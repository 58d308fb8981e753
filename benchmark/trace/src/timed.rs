//! Span-recording wrappers around the layers' public entry points, and
//! the per-job layer split every workload reports.

use prop_benchmark::report::{metric, Metric};
use prop_benchmark::spans::{self, Recorder, Span};
use prop_benchmark::stats;
use prop_core::{BalanceConstraint, Bipartition, ImproveStats, Partitioner};
use prop_netlist::Hypergraph;
use std::sync::Mutex;

/// Span names of the move-based engines: the innermost layer whose self
/// time counts as engine time.
const MOVE_ENGINES: [&str; 3] = ["multilevel.refine", "core.prop", "fm.bucket"];

/// Delegates to `inner` and records one span per `improve` call, with the
/// graph size, passes and cut as attributes. Optionally keeps the input
/// and output of calls on a graph of a given size, for replays.
pub struct Timed<'r, P> {
    inner: P,
    name: &'static str,
    rec: &'r Recorder,
    capture_nodes: Option<usize>,
    captured: Mutex<Vec<(Bipartition, ImproveStats)>>,
}

impl<'r, P> Timed<'r, P> {
    /// Wraps `inner`, naming its spans `name`.
    pub fn new(inner: P, name: &'static str, rec: &'r Recorder) -> Self {
        Timed {
            inner,
            name,
            rec,
            capture_nodes: None,
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Also keeps the input partition and the stats of every call on a
    /// graph with `nodes` nodes (none when `None`).
    pub fn capturing(mut self, nodes: Option<usize>) -> Self {
        self.capture_nodes = nodes;
        self
    }

    /// The wrapped partitioner.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The kept `(input partition, stats)` pairs, in call order.
    pub fn take_captured(&self) -> Vec<(Bipartition, ImproveStats)> {
        std::mem::take(&mut *self.captured.lock().expect("capture lock poisoned"))
    }
}

impl<P: Partitioner> Partitioner for Timed<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let nodes = graph.num_nodes();
        let input = (self.capture_nodes == Some(nodes)).then(|| partition.clone());
        let id = self.rec.open(self.name);
        let stats = self.inner.improve(graph, partition, balance);
        self.rec.close(
            id,
            &[
                ("nodes", nodes as f64),
                ("passes", stats.passes as f64),
                ("cut", stats.cut_cost),
            ],
        );
        if let Some(input) = input {
            self.captured
                .lock()
                .expect("capture lock poisoned")
                .push((input, stats));
        }
        stats
    }
}

/// The library-side split of one job, from its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Split {
    /// The whole in-process job: the `job` span.
    pub library_ms: f64,
    /// Netlist layer: `netlist.*` spans.
    pub load_ms: f64,
    /// Self time of the move-based engines.
    pub engine_ms: f64,
    /// Everything else in the library: harnesses, V-cycle, k-way driver.
    pub driver_ms: f64,
    /// Move-engine calls.
    pub calls: f64,
    /// Engine passes over those calls.
    pub passes: f64,
}

/// Splits the spans of job `job` (which must have one `job` root span).
pub fn split(spans: &[Span], job: u64) -> Split {
    let selfs = spans::self_ns(spans);
    let mut s = Split::default();
    for (span, self_ns) in spans.iter().zip(selfs).filter(|(sp, _)| sp.job == job) {
        let ms = |ns: u64| ns as f64 / 1e6;
        if span.name == "job" {
            s.library_ms += ms(span.dur_ns());
        } else if span.name.starts_with("netlist.") {
            s.load_ms += ms(span.dur_ns());
        } else if MOVE_ENGINES.contains(&span.name) {
            s.engine_ms += ms(self_ns);
            s.calls += 1.0;
            s.passes += span.attr("passes").unwrap_or(0.0);
        }
    }
    s.driver_ms = s.library_ms - s.load_ms - s.engine_ms;
    s
}

/// The per-layer metrics every workload reports: per-job means of the
/// library split, and the median of the front-end overhead, which is a
/// difference of two wall times and so carries their noise.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    splits: Vec<Split>,
    frontend_ms: Vec<f64>,
}

impl Layers {
    /// Adds one job: its library split, and the end-to-end time the same
    /// job took outside the library (process, daemon or cluster).
    pub fn push(&mut self, split: Split, frontend_ms: f64) {
        self.splits.push(split);
        self.frontend_ms.push(frontend_ms);
    }

    /// The metrics, named as declared in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.splits.len();
        let mean = |f: fn(&Split) -> f64| {
            stats::mean(&self.splits.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        vec![
            metric("netlist.load_ms", "ms", mean(|s| s.load_ms), n),
            metric("engine.self_ms", "ms", mean(|s| s.engine_ms), n),
            metric("driver.self_ms", "ms", mean(|s| s.driver_ms), n),
            metric(
                "frontend.overhead_ms",
                "ms",
                stats::median(&self.frontend_ms).unwrap_or(f64::NAN),
                n,
            ),
            metric("engine.calls", "count", mean(|s| s.calls), n),
            metric("engine.passes", "count", mean(|s| s.passes), n),
        ]
    }
}

/// Summed duration in milliseconds of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        passes: f64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 1,
            attrs: vec![("passes", passes)],
        }
    }

    #[test]
    fn split_partitions_the_job_span() {
        let ms = 1_000_000;
        let spans = vec![
            span("job", 0, 100 * ms, None, 0.0),
            span("netlist.hgb_open", 0, 5 * ms, Some(0), 0.0),
            span("netlist.materialize", 5 * ms, 10 * ms, Some(0), 0.0),
            span("core.harness", 10 * ms, 100 * ms, Some(0), 0.0),
            span("multilevel.vcycle", 10 * ms, 90 * ms, Some(3), 7.0),
            span("multilevel.refine", 20 * ms, 40 * ms, Some(4), 3.0),
            span("multilevel.refine", 50 * ms, 80 * ms, Some(4), 4.0),
        ];
        let s = split(&spans, 1);
        assert_eq!(s.library_ms, 100.0);
        assert_eq!(s.load_ms, 10.0);
        assert_eq!(s.engine_ms, 50.0);
        assert_eq!(s.driver_ms, 40.0);
        assert_eq!((s.calls, s.passes), (2.0, 7.0));
        assert_eq!(
            split(&spans, 2),
            Split {
                driver_ms: 0.0,
                ..Split::default()
            }
        );
    }
}
