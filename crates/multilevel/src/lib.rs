//! Multilevel (clustering pre-phase) partitioning on top of PROP.
//!
//! The DAC-96 paper closes: "we believe that in conjunction with a
//! clustering initial phase \[PROP\] will yield a high-quality partitioning
//! tool." This crate is that tool:
//!
//! 1. **Coarsen** — repeated heavy-edge matching merges tightly connected
//!    node pairs into supernodes (sizes accumulate as node weights;
//!    internal nets vanish, identical nets merge with summed cost) until
//!    the circuit is small.
//! 2. **Initial partition** — the coarsest circuit is bisected by the
//!    inner partitioner from several greedy weight-balanced starts.
//! 3. **Uncoarsen + refine** — the partition is projected back level by
//!    level and refined at each level by the inner partitioner under the
//!    size-constrained balance criterion.
//!
//! The key property making this sound is that coarsening is *cut-exact*:
//! any partition of a coarse level induces a partition of the fine level
//! with exactly the same cut cost (see [`coarsen::CoarseLevel::project`]).
//!
//! # The two faces of [`Multilevel`]
//!
//! * As a [`GlobalPartitioner`], [`Multilevel::partition`] runs one
//!   V-cycle seeded from `config.seed` — the one-shot global method.
//! * As a [`Partitioner`], [`Multilevel::improve`] runs one V-cycle per
//!   harness run, which plugs the engine into the multi-start machinery:
//!   `run_multi_parallel` gives deterministic parallel multi-start
//!   V-cycles (bit-identical to sequential for every thread count) and
//!   `run_multi_cancellable` gives cooperative cancellation. The per-run
//!   V-cycle seed is derived from `config.seed` and a hash of the
//!   harness-seeded initial partition, so run `r` is fully determined by
//!   `(config.seed, base_seed + r)` — never by thread scheduling.
//!
//! # Seed streams and prefix stability
//!
//! All randomness inside a V-cycle is drawn from independent seed
//! streams derived by [`stream_seed`]: matching order at level `l` uses
//! `(seed, Matching, l)`, coarsest start `s` uses `(seed, Start, s)`.
//! Because start `s` never consumes draws from any other start's stream,
//! raising `coarsest_starts` only *appends* starts: the first `k` initial
//! bisections are identical for every `coarsest_starts ≥ k`
//! (prefix-stable, pinned by `tests/multilevel_vcycle.rs`).
//!
//! # Parallelism
//!
//! One V-cycle runs on one thread. Multi-CPU speed comes from around it,
//! deterministically: the best-of-R harness fans runs out over workers,
//! the k-way driver runs sibling subtrees concurrently, and the daemon
//! cluster shards sweeps over machines. Every one of them returns the
//! same bits at every worker count.
//!
//! # Cancellation
//!
//! The V-cycle polls the thread-local cancellation slot at every level
//! boundary: between coarsening levels, between coarsest starts, and
//! before each refinement during uncoarsening. A trip mid-uncoarsening
//! skips the remaining refinements but **keeps projecting** down to the
//! input circuit — projection is cut-exact and weight-preserving, so the
//! partial result is a real (if less refined) partition of the input.
//!
//! ```
//! use prop_core::{BalanceConstraint, GlobalPartitioner, Prop, PropConfig};
//! use prop_multilevel::Multilevel;
//! use prop_netlist::generate::{generate, GeneratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generate(&GeneratorConfig::new(400, 440, 1500).with_seed(1))?;
//! let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes())?;
//! let ml = Multilevel::new(Prop::new(PropConfig::calibrated()));
//! let result = ml.partition(&graph, balance)?;
//! assert!(result.partition.is_balanced(balance));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coarsen;

use coarsen::{coarsen, CoarseLevel};
use prop_core::prof::{self, Phase};
use prop_core::{
    assignment_hash, cancel, BalanceConstraint, Bipartition, CutState, GlobalPartitioner,
    ImproveStats, ParallelPolicy, PartitionError, Partitioner, Prop, PropConfig, RunResult, Side,
    SideWeights,
};
use prop_netlist::Hypergraph;
pub use prop_flow::FlowConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the multilevel scheme.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MultilevelConfig {
    /// Stop coarsening once the circuit has at most this many nodes.
    /// Values below 2 act as 2: a one-node circuit has no bisection, so
    /// coarsening never goes below two nodes.
    pub coarsest_nodes: usize,
    /// Hard cap on coarsening levels built, folded ones included (also
    /// stops when matching stalls).
    pub max_levels: usize,
    /// Number of initial bisections tried at the coarsest level.
    pub coarsest_starts: usize,
    /// Nets larger than this are ignored when scoring matches (they carry
    /// almost no clustering signal).
    pub max_match_net: usize,
    /// FM pass cap at *capped* weighted levels of the [`standard`]
    /// engine — levels above `fm_converge_nodes` nodes (ignored by custom
    /// inner partitioners, which keep their own pass policy).
    ///
    /// [`standard`]: Multilevel::standard
    pub refine_passes: usize,
    /// Weighted levels of at most this many nodes run FM to convergence
    /// in the [`standard`] engine; larger ones get `refine_passes`.
    ///
    /// [`standard`]: Multilevel::standard
    pub fm_converge_nodes: usize,
    /// Weighted levels larger than this are never refined, whatever the
    /// inner refiner: their moves are a strict subset of the (much
    /// cheaper) moves available at the unit-weight finest level, so
    /// refining both is redundant work. The V-cycle applies the rule
    /// itself — no move-based pass and no flow pass at the coarsest
    /// starts or during uncoarsening — and coarsening *folds* such a
    /// level away as soon as the next one is built: its fine→coarse map
    /// is composed into the next level's and its circuit is dropped, so
    /// it is never resident below its own level. The matching seed and
    /// `max_levels` count levels built, so folding changes no result.
    pub refine_skip_nodes: usize,
    /// PROP passes run after FM converges at unit-weight levels (the
    /// input circuit) in the [`standard`] engine; `0` disables the
    /// polish.
    ///
    /// [`standard`]: Multilevel::standard
    pub polish_passes: usize,
    /// Seed for matching orders and initial bisections.
    pub seed: u64,
    /// Has no effect: nothing reads it, and every value runs the same
    /// sequential V-cycle. It once selected a synchronous intra-run
    /// parallel V-cycle, which was deleted (DESIGN §13); the field stays
    /// only so that code setting it keeps compiling, and goes in a later
    /// release.
    pub intra: ParallelPolicy,
    /// Flow-based corridor refinement run by the [`standard`] engine
    /// after move-based refinement at each level (disabled by default,
    /// which keeps the engine byte-identical to the classic V-cycle).
    /// The pass is deterministic and RNG-free.
    ///
    /// [`standard`]: Multilevel::standard
    pub flow: FlowConfig,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsest_nodes: 120,
            max_levels: 24,
            coarsest_starts: 8,
            max_match_net: 8,
            refine_passes: 1,
            fm_converge_nodes: 20_000,
            refine_skip_nodes: 40_000,
            polish_passes: 1,
            seed: 0,
            intra: ParallelPolicy::Sequential,
            flow: FlowConfig::default(),
        }
    }
}

/// The stall limit of every FM pass [`MlRefiner`] runs: a pass stops once
/// it has made this many tentative moves without a new best feasible
/// prefix, then commits its best prefix as a full pass does.
///
/// A V-cycle's FM passes start from a projected partition that is already
/// good, so nearly all of a full pass is explored and rolled back: on a
/// 103k-node circuit the finest level's first pass commits a few hundred
/// of its 103k tentative moves. Stopping after a stall keeps the commit
/// and skips the rest (DESIGN §12). Over suite golem3 job seeds 0–11,
/// limits of 400 and 1000 gave the same cuts; 200 and 100 cost quality.
pub const FM_STALL_MOVES: usize = 400;

/// The independent random streams of a V-cycle; see [`stream_seed`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeedStream {
    /// Matching order of coarsening level `index`.
    Matching,
    /// Greedy initial bisection of coarsest start `index`.
    Start,
    /// Whole-V-cycle seed of harness run `index` (where `index` is a hash
    /// of the run's seeded initial partition).
    Run,
}

/// Derives the seed of draw stream `(stream, index)` from the engine seed.
///
/// Each `(stream, index)` pair gets a statistically independent seed via
/// the shared salted finalizer of [`prop_core::seed`], and no stream ever
/// consumes another stream's draws. This is what makes the
/// initial-partition draws *prefix-stable*: changing `coarsest_starts`
/// (or `max_levels`) leaves every earlier start's (or level's) randomness
/// untouched.
pub fn stream_seed(seed: u64, stream: SeedStream, index: u64) -> u64 {
    let salt: u64 = match stream {
        SeedStream::Matching => 0x9e37_79b9_7f4a_7c15,
        SeedStream::Start => 0xd1b5_4a32_d192_ed03,
        SeedStream::Run => 0x8cb9_2ba7_2f3d_8dd7,
    };
    prop_core::seed::salted_stream_seed(seed, salt, index)
}

/// The size- and weight-adaptive refiner of the production `ml` engine.
///
/// The cost structure of a V-cycle level is set by its weights, not just
/// its size. Unit-weight levels (the input circuit itself) refine
/// cheaply: every FM balance probe is O(1) and the bucket gain structure
/// applies directly. Weighted coarse levels are where refinement gets
/// expensive — heavy supernodes force deep balance-feasibility scans per
/// selected move — while every move available there is also available,
/// more finely and more cheaply, at the finest level. So the refiner
/// spends where it is paid:
///
/// * **Unit-weight levels** — FM-bucket to convergence, then a capped
///   PROP polish (`polish_passes`): PROP's probabilistic reordering
///   escapes the local minimum FM converged to, and this level decides
///   the reported cut.
/// * **Weighted levels above `fm_converge_nodes`** — FM capped at
///   `refine_passes`.
/// * **Smaller weighted levels** — FM to convergence.
///
/// Every FM pass stops once it stalls ([`FM_STALL_MOVES`]). The PROP
/// polish runs full passes: its best prefix comes at the very end of the
/// pass, a near-mirror of the partition that a stall rule would never
/// reach.
///
/// Weighted levels above `refine_skip_nodes` never reach the refiner: the
/// V-cycle folds them away (see [`MultilevelConfig::refine_skip_nodes`]).
///
/// [`prop_fm::FmBucket`] runs its O(1) bucket structure whenever net costs
/// are integral (unit fine costs stay integral through coarsening, since
/// merged nets sum them) and its tree only for fractional weights.
#[derive(Clone, Debug)]
pub struct MlRefiner {
    polish: Prop,
    polish_passes: usize,
    fm_capped: prop_fm::FmBucket,
    fm_full: prop_fm::FmBucket,
    fm_converge_nodes: usize,
    flow: FlowConfig,
}

impl MlRefiner {
    /// Builds the refiner from the tuning knobs of `config`
    /// (`refine_passes`, `fm_converge_nodes`, `polish_passes`, `flow`).
    pub fn new(config: &MultilevelConfig) -> Self {
        let passes = config.refine_passes.max(1);
        let fm_full = prop_fm::FmBucket {
            stall_moves: FM_STALL_MOVES,
            ..prop_fm::FmBucket::default()
        };
        MlRefiner {
            polish: Prop::new(PropConfig {
                max_passes: config.polish_passes.max(1),
                ..PropConfig::calibrated()
            }),
            polish_passes: config.polish_passes,
            fm_capped: prop_fm::FmBucket {
                max_passes: passes,
                ..fm_full
            },
            fm_full,
            fm_converge_nodes: config.fm_converge_nodes,
            flow: config.flow,
        }
    }

    /// Move-based refinement of one level: the size- and weight-adaptive
    /// dispatch described on the type.
    fn improve_moves(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let n = graph.num_nodes();
        if graph.has_unit_weights() && graph.has_unit_node_weights() {
            let fm = self.fm_full.improve(graph, partition, balance);
            if self.polish_passes == 0 {
                return fm;
            }
            let polish = self.polish.improve(graph, partition, balance);
            return ImproveStats {
                passes: fm.passes + polish.passes,
                cut_cost: polish.cut_cost,
            };
        }
        if n > self.fm_converge_nodes {
            self.fm_capped.improve(graph, partition, balance)
        } else {
            self.fm_full.improve(graph, partition, balance)
        }
    }
}

impl Partitioner for MlRefiner {
    fn name(&self) -> &str {
        "ML-refine"
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let moves = self.improve_moves(graph, partition, balance);
        // Flow refinement escapes minima move-based passes are stuck in.
        if !self.flow.enabled {
            return moves;
        }
        let flow = prop_flow::refine(graph, partition, balance, &self.flow);
        ImproveStats {
            passes: moves.passes + flow.accepted as usize,
            cut_cost: flow.cut_cost,
        }
    }
}

/// A multilevel wrapper around any iterative improver.
#[derive(Clone, Debug)]
pub struct Multilevel<P> {
    config: MultilevelConfig,
    inner: P,
}

impl Multilevel<MlRefiner> {
    /// The production `ml` engine: a V-cycle refined by the size- and
    /// weight-adaptive [`MlRefiner`] built from `config`'s tuning knobs.
    pub fn standard(config: MultilevelConfig) -> Self {
        let inner = MlRefiner::new(&config);
        Multilevel { config, inner }
    }
}

impl<P: Partitioner> Multilevel<P> {
    /// Wraps `inner` with the default multilevel configuration.
    pub fn new(inner: P) -> Self {
        Multilevel {
            config: MultilevelConfig::default(),
            inner,
        }
    }

    /// Wraps `inner` with an explicit configuration.
    pub fn with_config(inner: P, config: MultilevelConfig) -> Self {
        Multilevel { config, inner }
    }

    /// The inner refiner.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The configuration.
    pub fn config(&self) -> &MultilevelConfig {
        &self.config
    }

    /// Whether the V-cycle leaves `graph` unrefined: a weighted level
    /// above `refine_skip_nodes` (see [`MultilevelConfig::refine_skip_nodes`]).
    fn skips(&self, graph: &Hypergraph) -> bool {
        graph.num_nodes() > self.config.refine_skip_nodes
            && !(graph.has_unit_weights() && graph.has_unit_node_weights())
    }

    /// Coarsens `graph` all the way down, folding every level the V-cycle
    /// would skip into the next one as soon as that is built. Returns the
    /// kept level stack and whether a cancellation trip cut coarsening
    /// short.
    fn coarsen_all(&self, graph: &Hypergraph, seed: u64) -> (Vec<CoarseLevel>, bool) {
        let cfg = &self.config;
        let floor = cfg.coarsest_nodes.max(2);
        let mut levels: Vec<CoarseLevel> = Vec::new();
        // Levels built, folded ones included: the matching seed index and
        // the `max_levels` cap must not depend on what was folded.
        let mut built = 0;
        loop {
            let fine: &Hypergraph = levels.last().map_or(graph, |l| &l.coarse);
            let fine_n = fine.num_nodes();
            if fine_n <= floor || built >= cfg.max_levels {
                return (levels, false);
            }
            if cancel::requested() {
                return (levels, true);
            }
            let tick = prof::start();
            let level_seed = stream_seed(seed, SeedStream::Matching, built as u64);
            let level = coarsen(fine, cfg.max_match_net, level_seed);
            prof::stop(Phase::MlCoarsen, tick);
            prof::count_ml_level();
            // A stalled matching (degenerate circuit) would loop forever.
            if level.coarse.num_nodes() as f64 > fine_n as f64 * 0.95 {
                return (levels, false);
            }
            built += 1;
            match levels.last_mut() {
                Some(prev) if self.skips(&prev.coarse) => prev.fold(level),
                _ => levels.push(level),
            }
        }
    }

    /// One full V-cycle from `seed`. On a cancellation trip the cycle
    /// degrades gracefully (see the module docs) but always returns a
    /// partition of `graph`.
    fn vcycle(
        &self,
        graph: &Hypergraph,
        balance: BalanceConstraint,
        seed: u64,
    ) -> Result<VcycleRun, PartitionError> {
        if graph.num_nodes() == 0 {
            return Err(PartitionError::EmptyGraph);
        }
        let cfg = &self.config;

        // Phase 1: coarsen.
        let (mut levels, mut cancelled) = self.coarsen_all(graph, seed);

        // Phase 2: partition the coarsest circuit. The inner improver runs
        // from several greedy weight-balanced starts; each start draws
        // from its own seed stream (prefix-stable, see module docs). A
        // coarsest level above `refine_skip_nodes` keeps its starts
        // unrefined.
        let coarsest: &Hypergraph = levels.last().map_or(graph, |l| &l.coarse);
        let coarse_balance = if levels.is_empty() {
            balance
        } else {
            balance.for_graph(coarsest)?
        };
        let refine_coarsest = !self.skips(coarsest);
        let mut best: Option<(Bipartition, f64)> = None;
        let mut passes = 0;
        let tick = prof::start();
        for s in 0..cfg.coarsest_starts.max(1) {
            if cancel::requested() {
                cancelled = true;
            }
            let mut rng =
                StdRng::seed_from_u64(stream_seed(seed, SeedStream::Start, s as u64));
            let mut part = greedy_start(coarsest, &mut rng, coarse_balance);
            if cancelled {
                if best.is_none() {
                    // Tripped before any start finished: keep the greedy
                    // bisection unimproved so there is still a partition
                    // to project.
                    let cut = CutState::new(coarsest, &part).cut_cost();
                    best = Some((part, cut));
                }
                break;
            }
            if refine_coarsest {
                passes += self
                    .inner
                    .improve(coarsest, &mut part, coarse_balance)
                    .passes;
            }
            let cut = CutState::new(coarsest, &part).cut_cost();
            if best.as_ref().is_none_or(|&(_, b)| cut < b) {
                best = Some((part, cut));
            }
        }
        prof::stop(Phase::MlInitial, tick);
        let (mut partition, coarsest_cut) = best.expect("at least one start ran");

        // Phase 3: uncoarsen and refine level by level. A cancellation
        // trip stops refining but keeps projecting: projection is
        // cut-exact, so the partial result stays an honest partition of
        // the input circuit. Each level is popped and dropped once it has
        // been projected through, so the refinement of a level runs with
        // no coarser graph or map resident — the finest one with none. A
        // level above `refine_skip_nodes` is only projected through; here
        // that can only be a weighted input circuit, since coarsening
        // folded every such level but the coarsest.
        let mut level_cuts = Vec::with_capacity(levels.len() + 1);
        level_cuts.push(coarsest_cut);
        while let Some(level) = levels.pop() {
            let tick = prof::start();
            partition = level.project(&partition);
            prof::stop(Phase::MlProject, tick);
            drop(level);
            if cancel::requested() {
                cancelled = true;
            }
            let fine: &Hypergraph = levels.last().map_or(graph, |l| &l.coarse);
            if cancelled || self.skips(fine) {
                continue;
            }
            let fine_balance = if levels.is_empty() {
                balance
            } else {
                balance.for_graph(fine)?
            };
            let tick = prof::start();
            let stats = self.inner.improve(fine, &mut partition, fine_balance);
            prof::stop(Phase::MlRefine, tick);
            passes += stats.passes;
            level_cuts.push(stats.cut_cost);
        }

        // Re-derive the final cost from scratch: multi-level bookkeeping
        // is never trusted for the reported number.
        let cut = CutState::new(graph, &partition).cut_cost();
        Ok(VcycleRun {
            partition,
            cut,
            passes,
            level_cuts,
        })
    }

    /// Cut cost of each coarsest-level start, in start order, for the
    /// given engine seed. Diagnostic hook pinning the prefix-stability
    /// contract: the vector for `coarsest_starts = k` is a prefix of the
    /// vector for any larger start count (same `config.seed`). Every
    /// start is refined by the inner partitioner, whatever
    /// `refine_skip_nodes` says, so the vector pins the coarsest circuit
    /// and the start draws alone.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph.
    pub fn coarsest_start_cuts(
        &self,
        graph: &Hypergraph,
        balance: BalanceConstraint,
    ) -> Result<Vec<f64>, PartitionError> {
        if graph.num_nodes() == 0 {
            return Err(PartitionError::EmptyGraph);
        }
        let (levels, _) = self.coarsen_all(graph, self.config.seed);
        let coarsest: &Hypergraph = levels.last().map_or(graph, |l| &l.coarse);
        let coarse_balance = if levels.is_empty() {
            balance
        } else {
            balance.for_graph(coarsest)?
        };
        (0..self.config.coarsest_starts.max(1))
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(stream_seed(
                    self.config.seed,
                    SeedStream::Start,
                    s as u64,
                ));
                let mut part = greedy_start(coarsest, &mut rng, coarse_balance);
                self.inner.improve(coarsest, &mut part, coarse_balance);
                Ok(CutState::new(coarsest, &part).cut_cost())
            })
            .collect()
    }
}

/// Outcome of one V-cycle.
struct VcycleRun {
    partition: Bipartition,
    cut: f64,
    passes: usize,
    /// Cut after each refinement stage, coarsest first (the coarsest
    /// start's cut even when it is unrefined; skipped levels add none).
    level_cuts: Vec<f64>,
}

impl<P: Partitioner> GlobalPartitioner for Multilevel<P> {
    fn name(&self) -> &str {
        "ML"
    }

    fn partition(
        &self,
        graph: &Hypergraph,
        balance: BalanceConstraint,
    ) -> Result<RunResult, PartitionError> {
        let run = self.vcycle(graph, balance, self.config.seed)?;
        Ok(RunResult {
            partition: run.partition,
            cut_cost: run.cut,
            total_passes: run.passes,
            run_cuts: run.level_cuts,
        })
    }
}

impl<P: Partitioner> Partitioner for Multilevel<P> {
    fn name(&self) -> &str {
        "ML"
    }

    /// Runs one V-cycle and installs its result when it improves (or
    /// matches) the incoming partition; otherwise the partition is left
    /// untouched. The V-cycle seed is derived from `config.seed` and a
    /// hash of the incoming partition, so under the multi-start harness
    /// every run gets a distinct, thread-count-independent V-cycle.
    ///
    /// An incoming feasible partition is never traded for an infeasible
    /// one, which upholds the [`Partitioner::improve`] contract even when
    /// the harness balance differs from the V-cycle's internal
    /// size-constrained criterion.
    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let incoming_cut = CutState::new(graph, partition).cut_cost();
        let run_seed = stream_seed(
            self.config.seed,
            SeedStream::Run,
            assignment_hash(partition.sides()),
        );
        match self.vcycle(graph, balance, run_seed) {
            Ok(run) if run.cut <= incoming_cut && is_feasible(balance, graph, &run.partition) => {
                *partition = run.partition;
                ImproveStats {
                    passes: run.passes,
                    cut_cost: run.cut,
                }
            }
            Ok(run) => {
                prof::count_ml_rejected();
                ImproveStats {
                    passes: run.passes,
                    cut_cost: incoming_cut,
                }
            }
            // Unreachable through the harness (it rejects empty graphs
            // first); stand pat to honor the in-place contract anyway.
            Err(_) => ImproveStats {
                passes: 0,
                cut_cost: incoming_cut,
            },
        }
    }
}

/// Strict feasibility of a committed partition under `balance`, counting
/// both sides' cardinalities and weights from scratch.
fn is_feasible(balance: BalanceConstraint, graph: &Hypergraph, partition: &Bipartition) -> bool {
    let w = SideWeights::new(graph, partition);
    balance.is_feasible(
        [partition.count(Side::A), partition.count(Side::B)],
        [w.get(Side::A), w.get(Side::B)],
    )
}

/// The greedy initial bisection of one coarsest start: the classic
/// lighter-side rule for symmetric constraints, or capacity-aware
/// placement under asymmetric budget caps. The branch keeps the
/// symmetric path byte-identical to the classic V-cycle (its committed
/// golden cuts depend on the exact `weight[0] <= weight[1]`
/// tie-breaking), which a unified remaining-capacity rule would not be.
fn greedy_start<R: Rng + ?Sized>(
    graph: &Hypergraph,
    rng: &mut R,
    balance: BalanceConstraint,
) -> Bipartition {
    if balance.is_budgeted() {
        greedy_budgeted_bisection(
            graph,
            rng,
            [balance.side_capacity(Side::A), balance.side_capacity(Side::B)],
        )
    } else {
        greedy_weighted_bisection(graph, rng)
    }
}

/// The placement order of both greedy starts: a Fisher–Yates shuffle
/// (one `gen_range` draw per node above the first), then a stable sort
/// heaviest-first, so the final imbalance is bounded by the *smallest*
/// weights, not the largest, and equal weights keep the shuffled order.
fn greedy_order<R: Rng + ?Sized>(graph: &Hypergraph, rng: &mut R) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order.sort_by(|&a, &b| {
        graph
            .node_weight(prop_netlist::NodeId::new(b))
            .partial_cmp(&graph.node_weight(prop_netlist::NodeId::new(a)))
            .expect("finite node weights")
    });
    order
}

/// A greedy weight-balanced bisection: nodes in random order, heaviest
/// concerns resolved by always placing on the lighter side. Guarantees a
/// side-weight difference of at most the largest node weight.
fn greedy_weighted_bisection<R: Rng + ?Sized>(graph: &Hypergraph, rng: &mut R) -> Bipartition {
    let n = graph.num_nodes();
    let mut sides = vec![Side::A; n];
    let mut weight = [0.0f64; 2];
    for v in greedy_order(graph, rng) {
        let side = if weight[0] <= weight[1] { Side::A } else { Side::B };
        sides[v] = side;
        weight[side.index()] += graph.node_weight(prop_netlist::NodeId::new(v));
    }
    Bipartition::from_sides(sides)
}

/// The budgeted variant of [`greedy_weighted_bisection`]: heaviest
/// nodes first onto the side with the most *remaining capacity*, so an
/// asymmetric `(cap_a, cap_b)` window gets a start near its capacity
/// split rather than near 50/50. The same RNG draws are consumed, and
/// any overflow is bounded by the largest node weight (the balance
/// constraint's pass slack).
fn greedy_budgeted_bisection<R: Rng + ?Sized>(
    graph: &Hypergraph,
    rng: &mut R,
    caps: [f64; 2],
) -> Bipartition {
    let n = graph.num_nodes();
    let mut sides = vec![Side::A; n];
    let mut weight = [0.0f64; 2];
    for v in greedy_order(graph, rng) {
        let side = if caps[0] - weight[0] >= caps[1] - weight[1] {
            Side::A
        } else {
            Side::B
        };
        sides[v] = side;
        weight[side.index()] += graph.node_weight(prop_netlist::NodeId::new(v));
    }
    Bipartition::from_sides(sides)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_fm::FmTree;
    use prop_netlist::generate::{generate, GeneratorConfig};

    fn circuit(n: usize, seed: u64) -> Hypergraph {
        let nets = n * 11 / 10;
        generate(&GeneratorConfig::new(n, nets, nets * 7 / 2).with_seed(seed)).unwrap()
    }

    #[test]
    fn multilevel_prop_produces_feasible_partitions() {
        let graph = circuit(600, 3);
        let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).unwrap();
        let ml = Multilevel::new(Prop::new(PropConfig::calibrated()));
        let result = ml.partition(&graph, balance).unwrap();
        assert!(result.partition.is_balanced(balance));
        assert_eq!(
            result.cut_cost,
            CutState::new(&graph, &result.partition).cut_cost()
        );
    }

    #[test]
    fn multilevel_matches_or_beats_flat_runs_of_its_refiner() {
        let graph = circuit(800, 9);
        let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).unwrap();
        let flat = FmTree::default().run_multi(&graph, balance, 4, 0).unwrap();
        let ml = Multilevel::new(FmTree::default())
            .partition(&graph, balance)
            .unwrap();
        // The clustering pre-phase is the whole point: it should not lose
        // to the same refiner from random starts (allow a small epsilon of
        // slack for unlucky matchings).
        assert!(
            ml.cut_cost <= flat.cut_cost * 1.1 + 2.0,
            "ML-FM {} vs flat FM {}",
            ml.cut_cost,
            flat.cut_cost
        );
    }

    #[test]
    fn improve_is_deterministic_and_never_regresses() {
        let graph = circuit(500, 21);
        let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).unwrap();
        let ml = Multilevel::standard(MultilevelConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3 {
            let initial = Bipartition::random(graph.num_nodes(), &mut rng);
            let incoming_cut = CutState::new(&graph, &initial).cut_cost();
            let mut a = initial.clone();
            let mut b = initial.clone();
            let sa = ml.improve(&graph, &mut a, balance);
            let sb = ml.improve(&graph, &mut b, balance);
            assert_eq!(a, b, "improve must be deterministic in the input");
            assert_eq!(sa, sb);
            assert!(sa.cut_cost <= incoming_cut);
            assert!(a.is_balanced(balance));
            assert_eq!(sa.cut_cost, CutState::new(&graph, &a).cut_cost());
        }
    }

    #[test]
    fn improve_runs_differ_across_initial_partitions() {
        // Distinct incoming partitions must derive distinct V-cycle
        // seeds — that is what gives best-of-R its diversity.
        let graph = circuit(400, 5);
        let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).unwrap();
        let ml = Multilevel::standard(MultilevelConfig::default());
        let result = ml.run_multi(&graph, balance, 4, 11).unwrap();
        assert_eq!(result.run_cuts.len(), 4);
        let best = result.run_cuts.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(result.cut_cost, best);
    }

    #[test]
    fn start_cuts_are_prefix_stable() {
        let graph = circuit(700, 13);
        let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).unwrap();
        let few = Multilevel::standard(MultilevelConfig {
            coarsest_starts: 3,
            ..MultilevelConfig::default()
        });
        let many = Multilevel::standard(MultilevelConfig {
            coarsest_starts: 9,
            ..MultilevelConfig::default()
        });
        let few_cuts = few.coarsest_start_cuts(&graph, balance).unwrap();
        let many_cuts = many.coarsest_start_cuts(&graph, balance).unwrap();
        assert_eq!(few_cuts.len(), 3);
        assert_eq!(many_cuts.len(), 9);
        assert_eq!(few_cuts, many_cuts[..3]);
    }

    #[test]
    fn stream_seeds_are_pairwise_distinct() {
        let mut seen = std::collections::HashSet::new();
        for stream in [SeedStream::Matching, SeedStream::Start, SeedStream::Run] {
            for index in 0..64 {
                assert!(
                    seen.insert(stream_seed(42, stream, index)),
                    "collision at {stream:?}/{index}"
                );
            }
        }
    }

    #[test]
    fn greedy_bisection_is_weight_balanced() {
        let mut b = prop_netlist::HypergraphBuilder::new(7);
        b.add_net(1.0, [0, 1, 2, 3, 4, 5, 6]).unwrap();
        b.set_node_weights(vec![5.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0])
            .unwrap();
        let g = b.build().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let p = greedy_weighted_bisection(&g, &mut rng);
        let w = SideWeights::new(&g, &p);
        assert!((w.get(Side::A) - w.get(Side::B)).abs() <= 5.0);
        // With heaviest-first placement the real gap is at most the
        // smallest weight here.
        assert!((w.get(Side::A) - w.get(Side::B)).abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn empty_graph_errors() {
        let g = prop_netlist::HypergraphBuilder::new(0).build().unwrap();
        let balance = BalanceConstraint::bisection(0);
        let ml = Multilevel::new(Prop::new(PropConfig::calibrated()));
        assert_eq!(ml.partition(&g, balance), Err(PartitionError::EmptyGraph));
    }

    #[test]
    fn config_accessors() {
        let ml = Multilevel::with_config(
            FmTree::default(),
            MultilevelConfig {
                coarsest_nodes: 64,
                ..MultilevelConfig::default()
            },
        );
        assert_eq!(ml.config().coarsest_nodes, 64);
        assert_eq!(GlobalPartitioner::name(&ml), "ML");
        assert_eq!(Partitioner::name(&ml), "ML");
        let _ = ml.inner();
    }

    /// A weighted chain: every coarse level (and the input) is weighted.
    fn weighted_chain(n: usize) -> Hypergraph {
        let mut b = prop_netlist::HypergraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_net(2.0, [i, i + 1]).unwrap();
        }
        b.set_node_weights(vec![2.0; n]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn refiner_dispatches_by_size_and_weights() {
        // Unit-weight graph → FM + PROP polish; all paths keep
        // feasibility and report the true cut.
        let refiner = MlRefiner::new(&MultilevelConfig::default());
        let unit = circuit(300, 4);
        let balance = BalanceConstraint::new(0.45, 0.55, unit.num_nodes()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Bipartition::random(unit.num_nodes(), &mut rng);
        let stats = refiner.improve(&unit, &mut p, balance);
        assert!(p.is_balanced(balance));
        assert_eq!(stats.cut_cost, CutState::new(&unit, &p).cut_cost());
        assert_eq!(refiner.name(), "ML-refine");

        // A weighted circuit is refined whatever `refine_skip_nodes` says:
        // the skip is the V-cycle's rule, not the refiner's.
        let skipping = MlRefiner::new(&MultilevelConfig {
            refine_skip_nodes: 100,
            ..MultilevelConfig::default()
        });
        let weighted = weighted_chain(200);
        let balance = BalanceConstraint::new(0.45, 0.55, 200).unwrap();
        let mut p = Bipartition::random(200, &mut rng);
        let stats = skipping.improve(&weighted, &mut p, balance);
        assert!(stats.passes >= 1);
        assert!(p.is_balanced(balance));
        assert_eq!(stats.cut_cost, CutState::new(&weighted, &p).cut_cost());
    }

    #[test]
    fn refiner_fm_passes_stop_on_a_stall() {
        // Only the refiner's FM passes stop on a stall; a flat FM-bucket
        // runs the paper's full passes.
        let refiner = MlRefiner::new(&MultilevelConfig::default());
        assert_eq!(refiner.fm_full.stall_moves, FM_STALL_MOVES);
        assert_eq!(refiner.fm_capped.stall_moves, FM_STALL_MOVES);
        assert_eq!(refiner.fm_capped.max_passes, 1);
        assert_eq!(prop_fm::FmBucket::default().stall_moves, usize::MAX);
    }

    /// Delegates to the production refiner and records the size,
    /// weightedness, and passes of every call.
    struct Recording {
        inner: MlRefiner,
        calls: std::sync::Mutex<Vec<(usize, bool, usize)>>,
    }

    impl Partitioner for Recording {
        fn name(&self) -> &str {
            "recording"
        }

        fn improve(
            &self,
            graph: &Hypergraph,
            partition: &mut Bipartition,
            balance: BalanceConstraint,
        ) -> ImproveStats {
            let stats = self.inner.improve(graph, partition, balance);
            let weighted = !(graph.has_unit_weights() && graph.has_unit_node_weights());
            let call = (graph.num_nodes(), weighted, stats.passes);
            self.calls.lock().unwrap().push(call);
            stats
        }
    }

    #[test]
    fn vcycle_never_refines_levels_above_refine_skip_nodes() {
        let graph = weighted_chain(400);
        let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
        let vcycle = |refine_skip_nodes| {
            let config = MultilevelConfig {
                coarsest_nodes: 20,
                refine_skip_nodes,
                ..MultilevelConfig::default()
            };
            let ml = Multilevel::with_config(
                Recording {
                    inner: MlRefiner::new(&config),
                    calls: std::sync::Mutex::new(Vec::new()),
                },
                config,
            );
            let result = ml.partition(&graph, balance).unwrap();
            assert_eq!(result.cut_cost, CutState::new(&graph, &result.partition).cut_cost());
            let calls = ml.inner.calls.into_inner().unwrap();
            // The V-cycle's passes are exactly the refiner calls' passes.
            assert_eq!(result.total_passes, calls.iter().map(|c| c.2).sum::<usize>());
            (result, calls)
        };

        // Without the skip, the 400-node input and the ~200-node first
        // level are refined too.
        let (_, all) = vcycle(usize::MAX);
        assert!(all.iter().any(|&(n, _, _)| n > 150), "{all:?}");

        // Levels above refine_skip_nodes must not move: the input and the
        // first level are never handed to the refiner, so the reported
        // cut is the last refined level's, projected exactly.
        let (result, calls) = vcycle(150);
        assert!(!calls.is_empty());
        assert!(calls.iter().all(|&(n, w, _)| w && n <= 150), "{calls:?}");
        assert_eq!(Some(&result.cut_cost), result.run_cuts.last());
    }
}
