//! Machine-speed calibration.
//!
//! On a shared host the jobs' speed drifts by up to 40% from one minute
//! to the next, far more than the run-to-run noise of a median. A fixed
//! kernel owned by the benchmark, timed around each timed piece of work,
//! tracks much of that drift. Each time is therefore scaled to a
//! reference speed: `raw × REFERENCE_MS / kernel median`, with the median
//! of the samples taken just before and just after it. The raw values are
//! printed beside them. The kernel never changes with the program under
//! test, and samples are taken only while the program is idle, so it
//! never competes with it.
//!
//! The kernel is a pointer chase through a 1 MiB random cycle: it spills
//! the private caches like the partitioners' own walks over their graphs,
//! so it slows down when a neighbour contends for the caches. Over 34
//! sixteen-second windows whose job medians spread by 40%, job medians
//! divided by this kernel's median spread by 8–9%; a compute-only kernel
//! left 21–25%, a 256 KiB chase 10–14% and a 32 MiB chase 20–22%.
//!
//! The host's speed changes within seconds, so each time is scaled by
//! the samples nearest to it, not by the run's median. Over 20 serve-mix
//! runs, scaling by samples taken only before and after the window left
//! the median latency of ten runs spread by 12–27%; scaling each sixth of
//! the window by samples taken just before it, 12–18%; each thirtieth,
//! 6–7%.
//!
//! The two CPUs do not slow down together, and a job may run on either,
//! so the samples alternate between them. A fixed job run 160 times on
//! alternate CPUs, with samples on both CPUs before and after each run,
//! gave these spreads of the medians of four consecutive runs:
//!
//! | scaled by | prop on p2 | ML on golem3 |
//! |---|---|---|
//! | nothing | 15.4% | 14.0% |
//! | samples before, on the job's CPU | 9.0% | 6.7% |
//! | samples before, on the other CPU | 15.5% | 14.8% |
//! | samples before and after, on both CPUs | 7.6% | 8.6% |
//!
//! Over windows of fifteen runs the last row read 5.7% and 5.3%, against
//! 4.4% and 8.4% for samples on the job's CPU, which the benchmark cannot
//! know, and 15.8% and 15.6% unscaled.

use crate::schedule::SplitMix;
use crate::stats;
use crate::sys;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the cycle: 4 bytes each, 1 MiB in all.
const CYCLE_LEN: usize = 1 << 18;

/// Steps per sample: 7 to 16 ms on the reference machine.
const STEPS: usize = 1_000_000;

/// Samples a closed loop takes between jobs: two on each of two CPUs.
pub const PER_JOB: usize = 4;

/// A typical kernel time on the reference machine (a 2-CPU 2.1 GHz Xeon
/// container, where it ranged from 7 to 16 ms), so scaled times read
/// about as measured there.
pub const REFERENCE_MS: f64 = 8.0;

/// A single random cycle through `0..n` (Sattolo's shuffle): following
/// it visits every entry before returning, in an order no prefetcher can
/// guess.
fn random_cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut rng = SplitMix::new(0x00ca_11b7);
    for i in (1..n).rev() {
        next.swap(i, rng.below(i));
    }
    next
}

/// Follows `steps` links of the cycle from entry 0.
fn chase(next: &[u32], steps: usize) -> u32 {
    let mut at = 0u32;
    for _ in 0..steps {
        at = next[at as usize];
    }
    at
}

/// Kernel timings taken during one run, in groups: one group each time
/// the program pauses between two timed pieces of work.
#[derive(Clone, Debug, Default)]
pub struct Calibration {
    cycle: Vec<u32>,
    samples: Vec<f64>,
    /// Where each group starts in `samples`.
    groups: Vec<usize>,
}

impl Calibration {
    /// Times the kernel `n` times as one group and returns the group's
    /// index, for [`Calibration::around`]. The samples take turns on the
    /// CPUs the calling thread may use, one thread at a time: timed on
    /// both CPUs at once, the kernel tracked the jobs worse, since at
    /// times the host let the two CPUs run only in turn.
    pub fn mark(&mut self, n: usize) -> usize {
        if self.cycle.is_empty() {
            self.cycle = random_cycle(CYCLE_LEN);
        }
        let cpus = sys::thread_cpus();
        self.groups.push(self.samples.len());
        for i in 0..n {
            if let Some(cpu) = cpus.get(i % cpus.len().max(1)) {
                sys::pin_thread(std::slice::from_ref(cpu));
            }
            let start = Instant::now();
            black_box(chase(black_box(&self.cycle), STEPS));
            self.samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        if !cpus.is_empty() {
            sys::pin_thread(&cpus);
        }
        self.groups.len() - 1
    }

    /// Factor that scales a time measured between group `g` and the next
    /// group to the reference speed, by the median of both groups'
    /// samples (of group `g` alone when it is the last).
    pub fn around(&self, g: usize) -> f64 {
        let at = |g: usize| self.groups.get(g).copied().unwrap_or(self.samples.len());
        let median = stats::median(&self.samples[at(g)..at(g + 2)]);
        REFERENCE_MS / median.unwrap_or(f64::NAN)
    }

    /// Median kernel time of the whole run in milliseconds; `NaN` before
    /// any sample.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.samples).unwrap_or(f64::NAN)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Factor that scales a time no group was taken around, such as a
    /// set-up or a daemon's CPU time over the window, to the reference
    /// speed, by the run's median kernel time.
    pub fn scale(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_entry_once() {
        let next = random_cycle(1000);
        let mut seen = vec![false; 1000];
        let mut at = 0;
        for _ in 0..1000 {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = next[at as usize];
        }
        assert_eq!(at, 0);
        assert_eq!(chase(&next, 1000), 0);
    }

    #[test]
    fn groups_scale_the_times_between_them() {
        let cpus = sys::thread_cpus();
        let mut c = Calibration::default();
        assert!(c.scale().is_nan() && c.is_empty());
        assert_eq!((c.mark(3), c.mark(2)), (0, 1));
        assert_eq!(c.len(), 5);
        assert!(c.median_ms() > 0.0);
        assert_eq!(
            c.around(1),
            REFERENCE_MS / stats::median(&c.samples[3..]).unwrap()
        );
        assert_eq!(c.around(0), c.scale());
        assert!(c.around(2).is_nan());
        // The thread may use every CPU it could before.
        assert_eq!(sys::thread_cpus(), cpus);
    }

    #[test]
    fn around_takes_both_neighbouring_groups() {
        let c = Calibration {
            samples: vec![8.0, 8.0, 16.0, 16.0, 16.0, 4.0],
            groups: vec![0, 2, 5],
            ..Calibration::default()
        };
        assert_eq!(c.around(0), 0.5);
        assert_eq!(c.around(1), 0.5);
        assert_eq!(c.around(2), 2.0);
    }
}
