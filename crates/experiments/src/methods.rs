//! The timed method runner shared by the experiment binaries.

use prop_core::{CancelToken, ParallelPolicy};
use prop_engines::{EngineName, Job, JobReport};
use prop_netlist::Hypergraph;
use std::time::Instant;

/// One method's outcome on one circuit.
#[derive(Clone, PartialEq, Debug)]
pub struct MethodOutcome {
    /// Method display name (e.g. `"FM100"`).
    pub method: String,
    /// Best cut over all runs.
    pub cut: f64,
    /// Wall-clock seconds per run.
    pub seconds_per_run: f64,
    /// Number of runs.
    pub runs: usize,
}

/// Runs the registered `engine` at seed 0 under the `(r1, r2)` window
/// through the one job path and times it: `runs` seeded multi-start runs
/// fanned out over the worker threads `policy` resolves to for an
/// iterative engine, one invocation for a global one (WINDOW then tries
/// `runs` orderings). The reported cut is bit-identical for every
/// policy; only the wall-clock time changes.
pub fn run(
    label: &str,
    engine: EngineName,
    graph: &Hypergraph,
    (r1, r2): (f64, f64),
    runs: usize,
    policy: ParallelPolicy,
) -> MethodOutcome {
    let job = Job {
        r1,
        r2,
        runs,
        ..Job::new(engine)
    };
    let start = Instant::now();
    let report = job
        .run(graph, policy, &CancelToken::new())
        .expect("a valid job on a non-empty graph");
    let JobReport::TwoWay(report) = report else {
        unreachable!("a k = 2 job is a bipartition")
    };
    MethodOutcome {
        method: label.to_string(),
        cut: report.result.cut_cost,
        seconds_per_run: start.elapsed().as_secs_f64() / report.started_runs.max(1) as f64,
        runs: report.started_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn iterative_and_global_runners_report_consistent_outcomes() {
        let g = generate(&GeneratorConfig::new(60, 66, 220).with_seed(5)).unwrap();
        let fm_out = run("FM3", EngineName::Fm, &g, (0.5, 0.5), 3, ParallelPolicy::Sequential);
        assert_eq!(fm_out.runs, 3);
        assert!(fm_out.cut >= 0.0);
        assert!(fm_out.seconds_per_run >= 0.0);
        let par = run("FM3", EngineName::Fm, &g, (0.5, 0.5), 3, ParallelPolicy::Threads(2));
        assert_eq!(par.cut, fm_out.cut);
        let eig_out = run("EIG1", EngineName::Eig1, &g, (0.5, 0.5), 20, ParallelPolicy::Sequential);
        assert_eq!(eig_out.runs, 1);
        assert_eq!(eig_out.method, "EIG1");
    }
}
