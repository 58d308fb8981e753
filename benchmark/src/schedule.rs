//! Seeded inputs: job seeds and the open-loop arrival schedule.
//!
//! Everything derives from the workload seed through splitmix64, so one
//! seed gives the same jobs and the same arrival times on every run and
//! every machine.

use std::time::Duration;

/// The splitmix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64).ceil() as usize - 1
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The seed of job `index` of `workload` under workload seed `seed`: a
/// 32-bit value, so it prints short and batch seed offsets never wrap.
pub fn job_seed(seed: u64, workload: &str, index: u64) -> u64 {
    let mut rng = SplitMix::new(seed ^ fnv1a(workload.as_bytes()));
    for _ in 0..index {
        rng.next_u64();
    }
    rng.next_u64() >> 32
}

/// One open-loop arrival.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Arrival {
    /// When the request is due, from the start of the run.
    pub due: Duration,
    /// Which job key to send.
    pub key: usize,
}

/// Arrivals per deck the key kinds are dealt from (see [`poisson`]).
pub const DECK: usize = 20;

/// A Poisson arrival schedule at `rate` jobs per second over `seconds`.
/// Each arrival picks a key: one of the first `first_keys` keys or one of
/// the next `other_keys`, each uniformly. Which of the two it picks is
/// dealt from shuffled decks of [`DECK`] arrivals, `first_share` of each
/// deck first, so every seed gets the same mix. (Drawn per arrival, the
/// share of the slower kind varied by a few percent between seeds, and the
/// median latency moved with it.)
pub fn poisson(
    seed: u64,
    rate: f64,
    seconds: f64,
    first_share: f64,
    first_keys: usize,
    other_keys: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed ^ 0x5eed_a771_7a15_0000);
    let firsts = (first_share * DECK as f64).round() as usize;
    let mut deck = [false; DECK];
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return out;
        }
        if out.len() % DECK == 0 {
            for (i, card) in deck.iter_mut().enumerate() {
                *card = i < firsts;
            }
            for i in (1..DECK).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        let key = if deck[out.len() % DECK] {
            rng.below(first_keys)
        } else {
            first_keys + rng.below(other_keys)
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            key,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_identical_across_runs_and_seed_dependent() {
        let a = poisson(7, 70.0, 15.0, 0.75, 48, 16);
        let b = poisson(7, 70.0, 15.0, 0.75, 48, 16);
        assert_eq!(a, b);
        assert_ne!(a, poisson(8, 70.0, 15.0, 0.75, 48, 16));
        // About rate × seconds arrivals, in order, inside the window.
        assert!((900..1200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.last().unwrap().due < Duration::from_secs(15));
        // Both key ranges are used, in exactly the requested mix per deck.
        for deck in a.chunks_exact(DECK) {
            assert_eq!(deck.iter().filter(|x| x.key < 48).count(), 15);
        }
        assert!(a.iter().all(|x| x.key < 64));
        // The decks are shuffled: the slower kind does not always come
        // at the same positions.
        let last = |deck: &[Arrival]| deck.iter().rposition(|x| x.key >= 48);
        assert!(a.chunks_exact(DECK).any(|d| last(d) != last(&a[..DECK])));
    }

    #[test]
    fn job_seeds_are_stable_and_distinct() {
        assert_eq!(job_seed(1, "ml-golem3", 0), job_seed(1, "ml-golem3", 0));
        assert_ne!(job_seed(1, "ml-golem3", 0), job_seed(1, "ml-golem3", 1));
        assert_ne!(job_seed(1, "ml-golem3", 0), job_seed(2, "ml-golem3", 0));
        assert_ne!(job_seed(1, "ml-golem3", 0), job_seed(1, "prop-p2", 0));
        assert!(job_seed(3, "serve-mix", 5) < 1 << 32);
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut rng = SplitMix::new(0);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!(u > 0.0 && u <= 1.0);
            assert!(rng.below(3) < 3);
        }
    }
}
