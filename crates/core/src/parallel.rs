//! Deterministic parallel execution of best-of-R multi-start runs.
//!
//! The paper's experimental protocol is *best of R independent runs*
//! (FM100, FM40/20, LA-2/LA-3, PROP(20) in Tables 2–4). The runs share no
//! state — run `r` is fully determined by its seed `base_seed + r` — so
//! they parallelise perfectly at the run level without touching the
//! partitioning algorithm itself.
//!
//! Determinism is preserved by construction:
//!
//! * every run keeps the exact seed it would get sequentially
//!   (`base_seed.wrapping_add(r)`);
//! * per-run results land in a slot vector indexed by run id, never in
//!   completion order;
//! * the winner is the lowest `(cut, run_index)` pair — the same strict
//!   "first run with the minimum cut" rule the sequential loop applies.
//!
//! Consequently [`Partitioner::run_multi_parallel`] returns results
//! bit-identical to [`Partitioner::run_multi`] for every thread count.
//!
//! There is one harness body, [`run_multi_cancellable`]: the
//! uncancellable entry points run it under a fresh token that never
//! trips, which changes no control flow.

use crate::balance::BalanceConstraint;
use crate::cancel::{self, CancelToken};
use crate::cut::CutState;
use crate::error::PartitionError;
use crate::partition::Bipartition;
use crate::partitioner::{Partitioner, RunResult};
use crate::prof::{self, ProfSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};

/// How many worker threads a multi-start invocation may use.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ParallelPolicy {
    /// One worker; runs execute in run-index order on the calling thread.
    #[default]
    Sequential,
    /// Exactly `n` workers (`0` is treated as `1`).
    Threads(usize),
    /// One worker per available hardware thread
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl ParallelPolicy {
    /// The worker count this policy resolves to for `runs` runs: never 0,
    /// never more than `runs`.
    pub fn worker_count(self, runs: usize) -> usize {
        let raw = match self {
            ParallelPolicy::Sequential => 1,
            ParallelPolicy::Threads(n) => n.max(1),
            ParallelPolicy::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        };
        raw.min(runs.max(1))
    }
}

/// Spawns `f` on a scoped worker thread that hands its
/// [`prof`](crate::prof) counters back with its result; pair it with
/// [`join_profiled`].
pub(crate) fn spawn_profiled<'scope, T, F>(
    scope: &'scope Scope<'scope, '_>,
    f: F,
) -> ScopedJoinHandle<'scope, (T, ProfSnapshot)>
where
    T: Send + 'scope,
    F: FnOnce() -> T + Send + 'scope,
{
    scope.spawn(move || {
        let out = f();
        (out, prof::snapshot())
    })
}

/// Joins a worker started by [`spawn_profiled`]: folds its counters into
/// the calling thread's and re-raises its panic with the original
/// payload.
pub(crate) fn join_profiled<T>(handle: ScopedJoinHandle<'_, (T, ProfSnapshot)>) -> T {
    match handle.join() {
        Ok((out, counters)) => {
            prof::absorb(&counters);
            out
        }
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Runs `worker` on `workers` scoped threads and joins them in spawn
/// order through [`join_profiled`].
fn run_workers<F: Fn() + Sync>(workers: usize, worker: F) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| spawn_profiled(scope, &worker))
            .collect();
        for handle in handles {
            join_profiled(handle);
        }
    });
}

/// How a cancellable multi-start invocation terminated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunStatus {
    /// Every requested run finished; the result is bit-identical to the
    /// uncancellable harness.
    Completed,
    /// The token tripped: runs in flight stopped at their next pass
    /// boundary, unstarted runs were skipped. The result is the best
    /// feasible partition found up to that point.
    Cancelled,
}

/// Result of a cancellable multi-start invocation.
#[derive(Clone, PartialEq, Debug)]
pub struct MultiRunReport {
    /// The best partition found (over finished and partially-finished
    /// runs). Always balance-feasible when the initial partitions were.
    pub result: RunResult,
    /// Whether the invocation ran to completion or was cut short.
    pub status: RunStatus,
    /// How many runs began executing (each contributes one entry to
    /// `result.run_cuts`, even if it was stopped early). `0` only when
    /// the token was tripped before any run started, in which case the
    /// report carries run 0's seeded initial partition unimproved.
    pub started_runs: usize,
}

/// One finished run, parked in its slot until every run completes.
struct RunOutcome {
    partition: Bipartition,
    cut: f64,
    passes: usize,
}

fn execute_run<P: Partitioner + ?Sized>(
    partitioner: &P,
    graph: &prop_netlist::Hypergraph,
    balance: BalanceConstraint,
    base_seed: u64,
    run_index: usize,
) -> RunOutcome {
    let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(run_index as u64));
    let mut partition = Bipartition::random(graph.num_nodes(), &mut rng);
    let stats = partitioner.improve(graph, &mut partition, balance);
    // Re-derive the cost from scratch so multi-run comparison never
    // trusts incremental bookkeeping.
    let cut = CutState::new(graph, &partition).cut_cost();
    RunOutcome {
        partition,
        cut,
        passes: stats.passes,
    }
}

/// The graph-free rules every job surface shares, written once: at
/// least one run, and — where the caller has them — a satisfiable
/// `(r1, r2)` window and one finite, positive budget per part of `k`.
///
/// # Errors
///
/// [`PartitionError::InvalidConfig`] for the runs and budget rules,
/// [`PartitionError::InvalidBalance`] for the window.
pub fn check_job_rules(
    runs: usize,
    ratios: Option<(f64, f64)>,
    k: usize,
    budgets: Option<&[f64]>,
) -> Result<(), PartitionError> {
    let invalid = |message: String| Err(PartitionError::InvalidConfig { message });
    if runs == 0 {
        return invalid("runs must be at least 1".into());
    }
    if let Some(budgets) = budgets {
        if budgets.len() != k {
            return invalid(format!("{} budgets for k = {k} parts", budgets.len()));
        }
        if budgets.iter().any(|b| !b.is_finite() || *b <= 0.0) {
            return invalid("budgets must be finite and positive".into());
        }
    }
    if let Some((r1, r2)) = ratios {
        BalanceConstraint::new(r1, r2, 0)?;
    }
    Ok(())
}

/// The one multi-start harness, behind every `run_multi*` entry point of
/// [`Partitioner`].
///
/// Workers poll the token before claiming each run, and each run executes
/// with the token installed in the thread-local [`cancel`] slot so the
/// engine's pass loop can stop at a pass boundary. Because claims go
/// through one atomic counter, the set of started runs is always the
/// prefix `0..started`, and every started run parks an outcome in its
/// slot — so `run_cuts` is a prefix of the sequential trajectory.
///
/// With a token that never trips the result is the same at every
/// policy: the polls change no control flow and each run keeps its
/// sequential seed and slot.
///
/// # Errors
///
/// Returns [`PartitionError::EmptyGraph`] for a node-less graph and
/// [`PartitionError::InvalidConfig`] when `runs == 0`.
pub(crate) fn run_multi_cancellable<P: Partitioner + ?Sized>(
    partitioner: &P,
    graph: &prop_netlist::Hypergraph,
    balance: BalanceConstraint,
    runs: usize,
    base_seed: u64,
    policy: ParallelPolicy,
    token: &CancelToken,
) -> Result<MultiRunReport, PartitionError> {
    if graph.num_nodes() == 0 {
        return Err(PartitionError::EmptyGraph);
    }
    // `balance` is already built, so only the runs rule applies here.
    check_job_rules(runs, None, 2, None)?;

    let workers = policy.worker_count(runs);
    let outcomes: Vec<RunOutcome> = if workers <= 1 {
        let mut outcomes = Vec::with_capacity(runs);
        for r in 0..runs {
            if token.is_cancelled() {
                break;
            }
            outcomes.push(cancel::scope(token, || {
                execute_run(partitioner, graph, balance, base_seed, r)
            }));
        }
        outcomes
    } else {
        let slots: Vec<Mutex<Option<RunOutcome>>> =
            (0..runs).map(|_| Mutex::new(None)).collect();
        let next_run = AtomicUsize::new(0);
        run_workers(workers, || loop {
            if token.is_cancelled() {
                break;
            }
            let r = next_run.fetch_add(1, Ordering::Relaxed);
            if r >= runs {
                break;
            }
            let outcome = cancel::scope(token, || {
                execute_run(partitioner, graph, balance, base_seed, r)
            });
            *slots[r].lock().expect("run slot poisoned") = Some(outcome);
        });
        // Claims are a contiguous prefix (one atomic counter), and every
        // claimed run parks an outcome before its worker moves on.
        slots
            .into_iter()
            .map_while(|slot| slot.into_inner().expect("run slot poisoned"))
            .collect()
    };

    let started_runs = outcomes.len();
    let outcomes = if outcomes.is_empty() {
        // Tripped before any run began: fall back to run 0's seeded
        // initial partition so the report still carries a feasible
        // partition with an honestly recounted cut.
        let mut rng = StdRng::seed_from_u64(base_seed);
        let partition = Bipartition::random(graph.num_nodes(), &mut rng);
        let cut = CutState::new(graph, &partition).cut_cost();
        vec![RunOutcome {
            partition,
            cut,
            passes: 0,
        }]
    } else {
        outcomes
    };

    let mut total_passes = 0;
    let mut run_cuts = Vec::with_capacity(outcomes.len());
    let mut best_index = 0;
    for (r, outcome) in outcomes.iter().enumerate() {
        total_passes += outcome.passes;
        run_cuts.push(outcome.cut);
        if outcome.cut < outcomes[best_index].cut {
            best_index = r;
        }
    }
    let best = outcomes
        .into_iter()
        .nth(best_index)
        .expect("best_index is in range");
    Ok(MultiRunReport {
        result: RunResult {
            partition: best.partition,
            cut_cost: best.cut,
            total_passes,
            run_cuts,
        },
        status: if token.is_cancelled() {
            RunStatus::Cancelled
        } else {
            RunStatus::Completed
        },
        started_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Side;
    use crate::partitioner::ImproveStats;
    use prop_netlist::{Hypergraph, HypergraphBuilder};

    /// A do-nothing partitioner: improvement keeps the initial partition.
    struct Identity;

    impl Partitioner for Identity {
        fn name(&self) -> &str {
            "identity"
        }

        fn improve(
            &self,
            graph: &Hypergraph,
            partition: &mut Bipartition,
            _balance: BalanceConstraint,
        ) -> ImproveStats {
            ImproveStats {
                passes: 1,
                cut_cost: CutState::new(graph, partition).cut_cost(),
            }
        }
    }

    fn graph() -> Hypergraph {
        let mut b = HypergraphBuilder::new(8);
        for i in 0..7 {
            b.add_net(1.0, [i, i + 1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(ParallelPolicy::Sequential.worker_count(16), 1);
        assert_eq!(ParallelPolicy::Threads(4).worker_count(16), 4);
        assert_eq!(ParallelPolicy::Threads(0).worker_count(16), 1);
        // Never more workers than runs.
        assert_eq!(ParallelPolicy::Threads(64).worker_count(3), 3);
        assert!(ParallelPolicy::Auto.worker_count(1024) >= 1);
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential() {
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let sequential = Identity.run_multi(&g, balance, 12, 99).unwrap();
        for threads in [2, 3, 8, 32] {
            let parallel = Identity
                .run_multi_parallel(&g, balance, 12, 99, ParallelPolicy::Threads(threads))
                .unwrap();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
        let auto = Identity
            .run_multi_parallel(&g, balance, 12, 99, ParallelPolicy::Auto)
            .unwrap();
        assert_eq!(sequential, auto);
    }

    #[test]
    fn parallel_validates_inputs() {
        let empty = HypergraphBuilder::new(0).build().unwrap();
        let balance = BalanceConstraint::bisection(0);
        assert_eq!(
            Identity.run_multi_parallel(&empty, balance, 4, 0, ParallelPolicy::Auto),
            Err(PartitionError::EmptyGraph)
        );
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        assert!(matches!(
            Identity.run_multi_parallel(&g, balance, 0, 0, ParallelPolicy::Auto),
            Err(PartitionError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn winner_ties_break_by_run_index() {
        // Identity keeps the seeded random partition, so equal-cut runs
        // are possible; the winner must be the earliest minimal run.
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let result = Identity
            .run_multi_parallel(&g, balance, 16, 5, ParallelPolicy::Threads(4))
            .unwrap();
        let min = result
            .run_cuts
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.cut_cost, min);
        let first_min = result.run_cuts.iter().position(|&c| c == min).unwrap();
        // Reconstruct the winning run's partition from its seed.
        let mut rng = StdRng::seed_from_u64(5u64.wrapping_add(first_min as u64));
        let expected = Bipartition::random(8, &mut rng);
        assert_eq!(result.partition, expected);
        assert_eq!(result.partition.count(Side::A), 4);
    }

    #[test]
    fn untripped_token_is_bit_identical() {
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let plain = Identity.run_multi(&g, balance, 12, 99).unwrap();
        for policy in [
            ParallelPolicy::Sequential,
            ParallelPolicy::Threads(3),
            ParallelPolicy::Auto,
        ] {
            let token = CancelToken::new();
            let report = Identity
                .run_multi_cancellable(&g, balance, 12, 99, policy, &token)
                .unwrap();
            assert_eq!(report.result, plain, "{policy:?}");
            assert_eq!(report.status, RunStatus::Completed);
            assert_eq!(report.started_runs, 12);
        }
    }

    #[test]
    fn pre_tripped_token_yields_seeded_initial_partition() {
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let token = CancelToken::new();
        token.cancel();
        for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads(4)] {
            let report = Identity
                .run_multi_cancellable(&g, balance, 6, 42, policy, &token)
                .unwrap();
            assert_eq!(report.status, RunStatus::Cancelled);
            assert_eq!(report.started_runs, 0);
            assert_eq!(report.result.run_cuts.len(), 1);
            assert_eq!(report.result.total_passes, 0);
            // Exactly run 0's seeded initial partition, honestly recounted.
            let mut rng = StdRng::seed_from_u64(42);
            let expected = Bipartition::random(8, &mut rng);
            assert_eq!(report.result.partition, expected);
            assert_eq!(
                report.result.cut_cost,
                CutState::new(&g, &expected).cut_cost()
            );
            assert!(report.result.partition.is_balanced(balance));
        }
    }

    #[test]
    fn cancellable_validates_inputs() {
        let token = CancelToken::new();
        let empty = HypergraphBuilder::new(0).build().unwrap();
        assert_eq!(
            Identity.run_multi_cancellable(
                &empty,
                BalanceConstraint::bisection(0),
                4,
                0,
                ParallelPolicy::Auto,
                &token
            ),
            Err(PartitionError::EmptyGraph)
        );
        let g = graph();
        assert!(matches!(
            Identity.run_multi_cancellable(
                &g,
                BalanceConstraint::bisection(8),
                0,
                0,
                ParallelPolicy::Auto,
                &token
            ),
            Err(PartitionError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn trait_object_can_run_parallel() {
        let boxed: Box<dyn Partitioner> = Box::new(Identity);
        let g = graph();
        let balance = BalanceConstraint::bisection(8);
        let result = boxed
            .run_multi_parallel(&g, balance, 4, 1, ParallelPolicy::Threads(2))
            .unwrap();
        assert_eq!(result.run_cuts.len(), 4);
    }
}
