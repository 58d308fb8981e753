//! Live daemon metrics: lock-free counters, per-engine latency
//! histograms, and aggregated engine profile counters.
//!
//! Counters are plain relaxed atomics — `stats` is a monitoring surface,
//! not a synchronisation point, so torn cross-counter reads (a job
//! counted accepted but not yet completed) are acceptable and documented.
//!
//! The profile totals build on `prop_core::prof`: each worker resets the
//! thread-local counters before a job and folds the per-job snapshot in
//! here afterwards. With the `prof` feature off the snapshots are all
//! zero and the section reports `enabled: false`.

use crate::json::{self, Json};
use prop_core::prof::ProfSnapshot;
use prop_engines::EngineName;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Histogram buckets: bucket `i` counts jobs with
/// `wall_ms in [2^i - 1, 2^(i+1) - 1)`; the last bucket is open-ended.
pub const LATENCY_BUCKETS: usize = 16;

/// A lock-free log2 latency histogram: one lane of the per-engine
/// `stats` section, and the per-worker latency surface of the
/// coordinator's cluster metrics.
#[derive(Default)]
pub struct LatencyHistogram {
    count: AtomicU64,
    total_ms: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    /// A zeroed histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one observation.
    pub fn record(&self, wall_ms: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ms.fetch_add(wall_ms, Ordering::Relaxed);
        self.buckets[bucket_of(wall_ms)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Renders `{count, total_ms, log2_ms_buckets}`.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .map(|b| json::uint(b.load(Ordering::Relaxed)))
            .collect();
        json::obj(vec![
            ("count", json::uint(self.count())),
            ("total_ms", json::uint(self.total_ms.load(Ordering::Relaxed))),
            ("log2_ms_buckets", Json::Arr(buckets)),
        ])
    }
}

/// The daemon-wide metrics registry.
#[derive(Default)]
pub struct Metrics {
    /// Jobs admitted to the queue.
    pub accepted: AtomicU64,
    /// Submissions refused because the queue was at capacity.
    pub rejected_full: AtomicU64,
    /// Submissions refused during shutdown drain.
    pub rejected_shutdown: AtomicU64,
    /// Request lines that failed to parse or validate.
    pub malformed: AtomicU64,
    /// Jobs that ran to completion.
    pub completed: AtomicU64,
    /// Jobs stopped by an explicit cancel.
    pub cancelled: AtomicU64,
    /// Jobs stopped by their deadline.
    pub timed_out: AtomicU64,
    /// Jobs that returned an engine error or panicked.
    pub failed: AtomicU64,
    /// Jobs that ran the recursive k-way driver (`k > 2` or budgeted).
    pub kway: AtomicU64,
    /// Worker panics contained by the pool (a subset of `failed`).
    pub worker_panics: AtomicU64,
    /// Connections accepted since start.
    pub connections: AtomicU64,
    latency: [LatencyHistogram; EngineName::ALL.len()],
    prof: Mutex<ProfSnapshot>,
}

/// The bucket index a latency falls into.
fn bucket_of(wall_ms: u64) -> usize {
    // ilog2(ms + 1), clamped: 0ms→0, 1..=2ms→1, 3..=6ms→2, ...
    (usize::try_from((wall_ms + 1).ilog2()).expect("small log")).min(LATENCY_BUCKETS - 1)
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one finished job's wall time under its engine.
    pub fn record_latency(&self, engine: EngineName, wall_ms: u64) {
        self.latency[engine.index()].record(wall_ms);
    }

    /// Folds one job's engine-profile snapshot into the totals.
    pub fn record_prof(&self, snapshot: &ProfSnapshot) {
        self.prof.lock().expect("prof totals lock").merge(snapshot);
    }

    /// Renders the full `stats` JSON body.
    pub fn to_json(&self, queue_depth: usize, queue_capacity: usize, draining: bool) -> Json {
        let get = |c: &AtomicU64| json::uint(c.load(Ordering::Relaxed));
        let jobs = json::obj(vec![
            ("accepted", get(&self.accepted)),
            ("rejected_full", get(&self.rejected_full)),
            ("rejected_shutdown", get(&self.rejected_shutdown)),
            ("malformed", get(&self.malformed)),
            ("completed", get(&self.completed)),
            ("cancelled", get(&self.cancelled)),
            ("timed_out", get(&self.timed_out)),
            ("failed", get(&self.failed)),
            ("kway", get(&self.kway)),
            ("worker_panics", get(&self.worker_panics)),
        ]);
        let queue = json::obj(vec![
            ("depth", json::uint(queue_depth as u64)),
            ("capacity", json::uint(queue_capacity as u64)),
            ("draining", Json::Bool(draining)),
        ]);
        let mut engines = Vec::new();
        for name in EngineName::ALL {
            let lane = &self.latency[name.index()];
            if lane.count() == 0 {
                continue;
            }
            engines.push((name.as_str(), lane.to_json()));
        }
        let prof = {
            let total = self.prof.lock().expect("prof totals lock");
            let mut fields = vec![("enabled", Json::Bool(prop_core::prof::enabled()))];
            fields.extend(total.fields().map(|(name, value)| (name, json::uint(value))));
            json::obj(fields)
        };
        json::obj(vec![
            ("connections", get(&self.connections)),
            ("jobs", jobs),
            ("queue", queue),
            ("latency", json::obj(engines)),
            ("prof", prof),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(6), 2);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(u64::MAX - 1), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn latency_accumulates_per_engine() {
        let m = Metrics::new();
        m.record_latency(EngineName::Prop, 5);
        m.record_latency(EngineName::Prop, 9);
        m.record_latency(EngineName::Fm, 0);
        let body = m.to_json(2, 8, false);
        let lat = body.get("latency").unwrap();
        let prop = lat.get("prop").unwrap();
        assert_eq!(prop.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(prop.get("total_ms").and_then(Json::as_u64), Some(14));
        let buckets = prop.get("log2_ms_buckets").and_then(Json::as_arr).unwrap();
        assert_eq!(buckets[2].as_u64(), Some(1)); // 5ms
        assert_eq!(buckets[3].as_u64(), Some(1)); // 9ms
        // Engines with no traffic are omitted.
        assert!(lat.get("fm-tree").is_none());
        assert!(lat.get("fm").is_some());
    }

    #[test]
    fn counters_and_queue_render() {
        let m = Metrics::new();
        m.accepted.fetch_add(3, Ordering::Relaxed);
        m.rejected_full.fetch_add(1, Ordering::Relaxed);
        let body = m.to_json(7, 16, true);
        let jobs = body.get("jobs").unwrap();
        assert_eq!(jobs.get("accepted").and_then(Json::as_u64), Some(3));
        assert_eq!(jobs.get("rejected_full").and_then(Json::as_u64), Some(1));
        assert_eq!(jobs.get("completed").and_then(Json::as_u64), Some(0));
        let queue = body.get("queue").unwrap();
        assert_eq!(queue.get("depth").and_then(Json::as_u64), Some(7));
        assert_eq!(queue.get("capacity").and_then(Json::as_u64), Some(16));
        assert_eq!(queue.get("draining").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn prof_totals_fold_in() {
        let m = Metrics::new();
        m.record_prof(&ProfSnapshot {
            moves: 10,
            seed_ns: 100,
            ..ProfSnapshot::default()
        });
        m.record_prof(&ProfSnapshot {
            moves: 5,
            gain_recomputes: 2,
            ml_refine_ns: 40,
            ml_levels: 6,
            ml_rejected: 1,
            ..ProfSnapshot::default()
        });
        let prof = m.to_json(0, 1, false);
        let prof = prof.get("prof").unwrap();
        assert_eq!(prof.get("moves").and_then(Json::as_u64), Some(15));
        assert_eq!(prof.get("seed_ns").and_then(Json::as_u64), Some(100));
        assert_eq!(prof.get("gain_recomputes").and_then(Json::as_u64), Some(2));
        assert_eq!(prof.get("ml_refine_ns").and_then(Json::as_u64), Some(40));
        assert_eq!(prof.get("ml_levels").and_then(Json::as_u64), Some(6));
        assert_eq!(prof.get("ml_rejected").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn stats_prof_lists_every_counter() {
        let m = Metrics::new();
        let snapshot = ProfSnapshot {
            flow_corridors: 3,
            flow_accepted: 2,
            ..ProfSnapshot::default()
        };
        m.record_prof(&snapshot);
        let body = m.to_json(0, 1, false);
        let prof = body.get("prof").unwrap();
        for (name, value) in snapshot.fields() {
            assert_eq!(prof.get(name).and_then(Json::as_u64), Some(value), "{name}");
        }
    }
}
