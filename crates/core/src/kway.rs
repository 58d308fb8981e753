//! Recursive k-way partitioning with per-part area budgets.
//!
//! The paper's §1: "Each subset is further partitioned into two smaller
//! subsets with a minimum cut, and so forth until we have recursively
//! partitioned the circuit into either a prespecified number k of
//! subsets…". This module drives any 2-way [`Partitioner`] through that
//! recursion. Two modes share one driver:
//!
//! * **Uniform** (`budgets: None`) — every level applies the `(r1, r2)`
//!   ratio balance (widened for uneven part counts when `k` is not a
//!   power of two), exactly like classic recursive bisection. With
//!   `k = 2` the driver reduces *byte-identically* to the existing
//!   bipartition harness: same constraint, same seeds, same engine call.
//! * **Budgeted** (`budgets: Some(vec)`) — each part carries an absolute
//!   area budget (multi-FPGA style; budgets need not be uniform). Every
//!   recursion node derives asymmetric per-side weight caps from the
//!   budget sums of its two part groups, widened by an *adaptive
//!   epsilon*: with sub-weight `W`, group budgets `B_L`/`B_R`, depth
//!   `d = ⌈log₂ k'⌉` and total slack `σ = (B_L + B_R)/W ≥ 1`, each level
//!   may use the per-level factor `f = σ^(1/d)`, so the slack is spent
//!   evenly across the remaining levels and leaf parts still land inside
//!   their budgets. Caps are floored at `W − B_other` so the two sides
//!   always cover `W`.
//!
//! **Determinism.** Every recursion node draws its harness seed from the
//! salted stream discipline of [`crate::seed`], keyed by the node's path
//! in the recursion tree (root = 1, children = `2·path` and
//! `2·path + 1`). The 2-way harness underneath is bit-identical at every
//! thread count, so the assembled k-way result is too — and it is stable
//! under `k` changes in the sense that the root bisection of `k = 2`
//! equals the plain bipartition at the same seed.
//!
//! **Cancellation.** The driver polls its [`CancelToken`] at recursion
//! node boundaries (the engines poll it at pass boundaries). Once
//! tripped, every remaining group is packed deterministically
//! (worst-fit decreasing) into its parts, so a cancelled run still
//! yields a complete, feasible assignment.

use crate::balance::BalanceConstraint;
use crate::cancel::CancelToken;
use crate::error::PartitionError;
use crate::parallel::{join_profiled, spawn_profiled, ParallelPolicy, RunStatus};
use crate::partition::{Bipartition, Side, SideWeights};
use crate::partitioner::{ImproveStats, Partitioner};
use crate::seed::salted_stream_seed;
use prop_netlist::{Hypergraph, NetId, NodeId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Stream-family salt of the per-recursion-node harness seeds (see
/// [`crate::seed::salted_stream_seed`]); the index is the node's path.
const KWAY_SEED_SALT: u64 = 0xa076_1d64_78bd_642f;

/// Weight-comparison tolerance, mirroring the balance constraint's.
const WEIGHT_EPS: f64 = 1e-9;

/// Configuration of one recursive k-way run.
#[derive(Clone, PartialEq, Debug)]
pub struct KwayConfig {
    /// Number of parts.
    pub k: usize,
    /// Absolute per-part area budgets (`budgets[i]` caps part `i`'s
    /// total node weight). `None` = uniform mode: ratio balance at every
    /// level, no budget enforcement.
    pub budgets: Option<Vec<f64>>,
    /// Multi-start runs per bisection.
    pub runs: usize,
    /// Base seed; per-node seeds derive from it by recursion path.
    pub seed: u64,
    /// Lower balance ratio of each bisection (uniform mode).
    pub r1: f64,
    /// Upper balance ratio of each bisection (uniform mode).
    pub r2: f64,
    /// Run-level fan-out policy handed to the 2-way harness. Results are
    /// bit-identical for every policy.
    pub policy: ParallelPolicy,
}

impl KwayConfig {
    /// The default protocol at `k` parts: best-of-20 runs, seed 0, the
    /// paper's 45–55% window, sequential fan-out, no budgets.
    pub fn new(k: usize) -> Self {
        KwayConfig {
            k,
            budgets: None,
            runs: 20,
            seed: 0,
            r1: 0.45,
            r2: 0.55,
            policy: ParallelPolicy::Sequential,
        }
    }
}

/// An assignment of every node to one of `k` parts, with the per-part
/// weights tallied at assembly.
#[derive(Clone, PartialEq, Debug)]
pub struct KwayPartition {
    assignment: Vec<u32>,
    k: usize,
    part_weights: Vec<f64>,
}

impl KwayPartition {
    /// The part of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn block(&self, node: NodeId) -> usize {
        self.assignment[node.index()] as usize
    }

    /// Number of parts `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parts `k` (alias of [`k`](KwayPartition::k), kept for
    /// the recursive-bisection vocabulary).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.k
    }

    /// The flat `node → part` assignment.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Total node weight of each part, accumulated in node order at
    /// assembly (the same order as the verification oracles, so the sums
    /// agree bit-for-bit).
    #[inline]
    pub fn part_weights(&self) -> &[f64] {
        &self.part_weights
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` for the empty assignment.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Node counts per part.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &b in &self.assignment {
            sizes[b as usize] += 1;
        }
        sizes
    }

    /// Node weights per part, recounted from `graph` (equal to
    /// [`part_weights`](KwayPartition::part_weights) when `graph` is the
    /// circuit the partition was built from).
    pub fn block_weights(&self, graph: &Hypergraph) -> Vec<f64> {
        let mut weights = vec![0.0; self.k];
        for v in graph.nodes() {
            weights[self.block(v)] += graph.node_weight(v);
        }
        weights
    }

    /// Whether `net` spans two or more parts.
    pub fn is_cut(&self, graph: &Hypergraph, net: NetId) -> bool {
        let mut blocks = graph.pins_of(net).iter().map(|&v| self.block(v));
        match blocks.next() {
            None => false,
            Some(first) => blocks.any(|b| b != first),
        }
    }

    /// The hyperedge-cut objective: total weight of nets spanning ≥ 2
    /// parts, accumulated in net order.
    pub fn cut_cost(&self, graph: &Hypergraph) -> f64 {
        graph
            .nets()
            .filter(|&net| self.is_cut(graph, net))
            .map(|net| graph.net_weight(net))
            .sum()
    }

    /// The connectivity (λ − 1) objective: `Σ (λ(net) − 1) · w(net)`
    /// over nets, where λ is the number of distinct parts a net's pins
    /// touch, accumulated in net order. For `k = 2` this equals
    /// [`cut_cost`](KwayPartition::cut_cost).
    pub fn connectivity_cost(&self, graph: &Hypergraph) -> f64 {
        let mut seen = vec![u64::MAX; self.k];
        let mut cost = 0.0;
        for (stamp, net) in graph.nets().enumerate() {
            let mut lambda = 0u32;
            for &v in graph.pins_of(net) {
                let part = self.assignment[v.index()] as usize;
                if seen[part] != stamp as u64 {
                    seen[part] = stamp as u64;
                    lambda += 1;
                }
            }
            if lambda >= 2 {
                cost += f64::from(lambda - 1) * graph.net_weight(net);
            }
        }
        cost
    }

    /// Number of cut nets.
    pub fn cut_nets(&self, graph: &Hypergraph) -> usize {
        graph.nets().filter(|&net| self.is_cut(graph, net)).count()
    }
}

/// Outcome of one k-way drive.
#[derive(Clone, PartialEq, Debug)]
pub struct KwayReport {
    /// The assembled partition.
    pub partition: KwayPartition,
    /// `Completed`, or `Cancelled` when the token tripped mid-recursion
    /// (the assignment is still complete: remaining groups were packed).
    pub status: RunStatus,
    /// Total engine passes across every bisection.
    pub total_passes: usize,
}

/// Recursively partitions `graph` into `config.k` parts with `engine`.
///
/// See the module docs for the two modes (uniform ratios vs per-part
/// budgets), the seed-path discipline, and the adaptive-epsilon cap
/// derivation.
///
/// # Errors
///
/// * [`PartitionError::EmptyGraph`] for a node-less graph.
/// * [`PartitionError::InvalidConfig`] when `k == 0`, `k` exceeds the
///   node count, `runs == 0`, a budget vector's arity is not `k`, or a
///   budget is non-finite or non-positive.
/// * [`PartitionError::InvalidBalance`] for unsatisfiable ratios.
/// * [`PartitionError::InfeasibleBudgets`] when the budgets sum below
///   the total node weight, any budget is below the heaviest node, or no
///   packing within the caps was found.
pub fn partition_kway<P: Partitioner + ?Sized>(
    graph: &Hypergraph,
    engine: &P,
    config: &KwayConfig,
) -> Result<KwayReport, PartitionError> {
    partition_kway_cancellable(graph, engine, config, &CancelToken::new())
}

/// Like [`partition_kway`], under a cooperative cancellation token: the
/// driver polls it at recursion-node boundaries and the engines at pass
/// boundaries. With a token that never trips the report is bit-identical
/// to [`partition_kway`].
///
/// # Errors
///
/// Same as [`partition_kway`].
pub fn partition_kway_cancellable<P: Partitioner + ?Sized>(
    graph: &Hypergraph,
    engine: &P,
    config: &KwayConfig,
    token: &CancelToken,
) -> Result<KwayReport, PartitionError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(PartitionError::EmptyGraph);
    }
    let k = config.k;
    if k == 0 || k > n {
        return Err(PartitionError::InvalidConfig {
            message: format!("cannot split {n} nodes into {k} parts"),
        });
    }
    if config.runs == 0 {
        return Err(PartitionError::InvalidConfig {
            message: "runs must be at least 1".into(),
        });
    }
    // Validate the ratios once up front.
    let _ = BalanceConstraint::new(config.r1, config.r2, n)?;
    if let Some(budgets) = &config.budgets {
        if budgets.len() != k {
            return Err(PartitionError::InvalidConfig {
                message: format!("{} budgets supplied for k = {k} parts", budgets.len()),
            });
        }
        if budgets.iter().any(|b| !b.is_finite() || *b <= 0.0) {
            return Err(PartitionError::InvalidConfig {
                message: "budgets must be finite and positive".into(),
            });
        }
        let total = graph.total_node_weight();
        let sum: f64 = budgets.iter().sum();
        if sum < total - WEIGHT_EPS {
            return Err(PartitionError::InfeasibleBudgets {
                message: format!("budgets sum to {sum}, below the total node weight {total}"),
            });
        }
        let w_max = graph.max_node_weight();
        if budgets.iter().any(|b| *b < w_max - WEIGHT_EPS) {
            return Err(PartitionError::InfeasibleBudgets {
                message: format!("a budget is below the heaviest node ({w_max})"),
            });
        }
    }

    let slots: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let run = Drive {
        graph,
        engine,
        config,
        token,
        assignment: &slots,
    };
    let workers = config.policy.worker_count(usize::MAX);
    let tree = drive(&run, graph.nodes().collect(), 0, k, 1, workers, false)?;
    let assignment: Vec<u32> = slots.into_iter().map(AtomicU32::into_inner).collect();

    // Assemble per-part weights in node order (the oracle's order).
    let mut part_weights = vec![0.0; k];
    for v in graph.nodes() {
        part_weights[assignment[v.index()] as usize] += graph.node_weight(v);
    }
    if let Some(budgets) = &config.budgets {
        if let Some(part) = (0..k).find(|&i| part_weights[i] > budgets[i] + WEIGHT_EPS) {
            return Err(PartitionError::InfeasibleBudgets {
                message: format!(
                    "no packing found: part {part} holds {} against budget {}",
                    part_weights[part], budgets[part]
                ),
            });
        }
    }
    Ok(KwayReport {
        partition: KwayPartition {
            assignment,
            k,
            part_weights,
        },
        status: if tree.cancelled {
            RunStatus::Cancelled
        } else {
            RunStatus::Completed
        },
        total_passes: tree.passes,
    })
}

/// The read-only context of one k-way run, shared by every recursion
/// node and every subtree thread.
struct Drive<'a, P: ?Sized> {
    graph: &'a Hypergraph,
    engine: &'a P,
    config: &'a KwayConfig,
    token: &'a CancelToken,
    /// One slot per node of `graph`. Recursion nodes own disjoint node
    /// sets, so concurrent subtrees never write the same slot, and the
    /// scope join orders every write before the final read.
    assignment: &'a [AtomicU32],
}

/// What one recursion subtree reports back to its parent.
struct Subtree {
    /// Engine passes over every bisection of the subtree.
    passes: usize,
    /// Sticky: set on the first tripped poll (or early-stopped engine
    /// report); every later group of the subtree is packed instead of
    /// bisected.
    cancelled: bool,
}

/// One recursion node: bisect `nodes` into the part range
/// `first .. first + k`, where `path` identifies the node in the
/// recursion tree (root 1, children `2·path` / `2·path + 1`) and
/// `workers` is the subtree's thread budget. `cancelled` is the sticky
/// flag handed down from the parent (or the left sibling).
fn drive<P: Partitioner + ?Sized>(
    run: &Drive<'_, P>,
    nodes: Vec<NodeId>,
    first: u32,
    k: usize,
    path: u64,
    workers: usize,
    mut cancelled: bool,
) -> Result<Subtree, PartitionError> {
    let Drive {
        graph,
        engine,
        config,
        token,
        assignment,
    } = *run;
    let done = |cancelled| {
        Ok(Subtree {
            passes: 0,
            cancelled,
        })
    };
    if nodes.is_empty() {
        return done(cancelled);
    }
    if k == 1 {
        for v in nodes {
            assignment[v.index()].store(first, Ordering::Relaxed);
        }
        return done(cancelled);
    }
    if token.is_cancelled() {
        cancelled = true;
    }
    let part_budgets = config
        .budgets
        .as_deref()
        .map(|b| &b[first as usize..first as usize + k]);
    if cancelled || nodes.len() <= 3 {
        // Cancelled, or too small to bisect meaningfully: deterministic
        // worst-fit-decreasing packing into the remaining parts.
        pack_parts(graph, nodes, first, k, part_budgets, assignment);
        return done(cancelled);
    }

    // The root works on `graph` directly: an induced subgraph of all
    // nodes would drop single-pin nets and renumber nothing, silently
    // breaking the k = 2 byte-identity with the plain bipartition path.
    let root = path == 1 && nodes.len() == graph.num_nodes();
    let (holder, back) = if root {
        (None, nodes)
    } else {
        let (s, b) = graph.induced_subgraph(&nodes);
        (Some(s), b)
    };
    let sub: &Hypergraph = holder.as_ref().unwrap_or(graph);

    let k_left = k.div_ceil(2);
    let k_right = k - k_left;
    let node_seed = if path == 1 {
        config.seed
    } else {
        salted_stream_seed(config.seed, KWAY_SEED_SALT, path)
    };
    // The harness fans this node's runs over the subtree's budget.
    let policy = ParallelPolicy::Threads(workers);

    let report;
    let caps;
    match part_budgets {
        Some(budgets) => {
            let (left_budgets, right_budgets) = budgets.split_at(k_left);
            let b_left: f64 = left_budgets.iter().sum();
            let b_right: f64 = right_budgets.iter().sum();
            let w = sub.total_node_weight();
            // Adaptive epsilon: spend the total budget slack σ evenly
            // over the remaining ⌈log₂ k⌉ levels, so every level gets
            // the same relative headroom and leaves still fit.
            let depth = k.next_power_of_two().trailing_zeros().max(1);
            let sigma = ((b_left + b_right) / w).max(1.0);
            let widen = sigma.powf(1.0 / f64::from(depth));
            let alpha = b_left / (b_left + b_right);
            let cap_a = b_left.min((alpha * w * widen).max(w - b_right));
            let cap_b = b_right.min(((1.0 - alpha) * w * widen).max(w - b_left));
            let balance = BalanceConstraint::budgeted(cap_a, cap_b, sub)?;
            // Random initial bisections target 50/50 and may start
            // outside an asymmetric window; the shim deterministically
            // repairs each start before the engine sees it.
            let shim = Repaired { inner: engine };
            report =
                shim.run_multi_cancellable(sub, balance, config.runs, node_seed, policy, token)?;
            caps = Some((balance, cap_a, cap_b));
        }
        None => {
            // Uneven k: one branch receives ⌈k/2⌉ of the parts. The
            // ratio window is symmetric, so it is widened to admit the
            // ideal larger-side fraction, and after the split the
            // heavier side is handed the larger part count.
            let (r1_eff, r2_eff) = if k_left == k_right {
                (config.r1, config.r2)
            } else {
                let target = k_left as f64 / k as f64;
                let hi = config.r2.max(target + (config.r2 - config.r1) / 4.0).min(0.99);
                ((1.0 - hi).max(0.01), hi)
            };
            let balance = BalanceConstraint::weighted(r1_eff, r2_eff, sub)?;
            report = engine.run_multi_cancellable(
                sub,
                balance,
                config.runs,
                node_seed,
                policy,
                token,
            )?;
            caps = None;
        }
    }
    let passes = report.result.total_passes;
    if report.status == RunStatus::Cancelled {
        cancelled = true;
    }
    let mut partition = report.result.partition;
    if let Some((balance, cap_a, cap_b)) = caps {
        // A pre-trip fallback (token tripped before any run) skips
        // `improve`, so the winner can still sit outside the caps;
        // repair it the same way the shim repairs starts.
        let counts = [partition.count(Side::A), partition.count(Side::B)];
        let weights = SideWeights::new(sub, &partition).as_array();
        if !balance.is_feasible(counts, weights) {
            repair_into_window(sub, &mut partition, balance);
            let counts = [partition.count(Side::A), partition.count(Side::B)];
            let weights = SideWeights::new(sub, &partition).as_array();
            if !balance.is_feasible(counts, weights) {
                return Err(PartitionError::InfeasibleBudgets {
                    message: format!(
                        "no bisection fits the caps ({cap_a}, {cap_b}) at recursion path {path}"
                    ),
                });
            }
        }
    }

    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut weight = [0.0f64; 2];
    for v in sub.nodes() {
        weight[partition.side(v).index()] += sub.node_weight(v);
        if partition.side(v) == Side::A {
            left.push(back[v.index()]);
        } else {
            right.push(back[v.index()]);
        }
    }
    // Nothing of this frame is needed below it: free the subgraph, its
    // back map and the bisection before the children run.
    drop((holder, back, partition));
    // Budgeted halves are anchored to their part ranges (side A was
    // capped by the left group's budgets); uniform uneven splits hand
    // the heavier side the larger part count, as before.
    if caps.is_none() && k_left != k_right && weight[1] > weight[0] {
        std::mem::swap(&mut left, &mut right);
    }
    let (left_path, right_path) = (2 * path, 2 * path + 1);
    let right_first = first + k_left as u32;
    let (l, r) = if workers >= 2 && k_right >= 2 {
        // Both children bisect: run them concurrently on split budgets.
        // Errors resolve left first, so the caller sees the error a
        // sequential run returns.
        let (w_left, w_right) = (workers.div_ceil(2), workers / 2);
        let (l, r) = std::thread::scope(|scope| {
            let r = spawn_profiled(scope, || {
                drive(
                    run,
                    right,
                    right_first,
                    k_right,
                    right_path,
                    w_right,
                    cancelled,
                )
            });
            let l = drive(run, left, first, k_left, left_path, w_left, cancelled);
            (l, join_profiled(r))
        });
        (l?, r?)
    } else {
        // In sequence, a cancellation in the left subtree also packs the
        // right one.
        let l = drive(run, left, first, k_left, left_path, workers, cancelled)?;
        let r = drive(
            run,
            right,
            right_first,
            k_right,
            right_path,
            workers,
            l.cancelled,
        )?;
        (l, r)
    };
    Ok(Subtree {
        passes: passes + l.passes + r.passes,
        cancelled: l.cancelled || r.cancelled,
    })
}

/// Deterministic worst-fit-decreasing packing of `nodes` into the part
/// range `first .. first + k`: nodes in (weight desc, id asc) order,
/// each into the part with the most remaining capacity (ties to the
/// lowest part). Capacities are the parts' budgets, or equal shares of
/// the group weight in uniform mode.
fn pack_parts(
    graph: &Hypergraph,
    mut nodes: Vec<NodeId>,
    first: u32,
    k: usize,
    budgets: Option<&[f64]>,
    assignment: &[AtomicU32],
) {
    let mut remaining: Vec<f64> = match budgets {
        Some(b) => b.to_vec(),
        None => {
            let w: f64 = nodes.iter().map(|&v| graph.node_weight(v)).sum();
            vec![w / k as f64; k]
        }
    };
    sort_by_weight_desc(graph, &mut nodes);
    for v in nodes {
        let mut best = 0;
        for part in 1..k {
            if remaining[part] > remaining[best] {
                best = part;
            }
        }
        remaining[best] -= graph.node_weight(v);
        assignment[v.index()].store(first + best as u32, Ordering::Relaxed);
    }
}

/// Sorts nodes by (weight descending, id ascending) — the deterministic
/// order shared by the packing and repair passes.
fn sort_by_weight_desc(graph: &Hypergraph, nodes: &mut [NodeId]) {
    nodes.sort_by(|&a, &b| {
        graph
            .node_weight(b)
            .partial_cmp(&graph.node_weight(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.index().cmp(&b.index()))
    });
}

/// Moves `partition` inside the committed caps of `balance` if it is
/// not already there, deterministically and with as few moves as
/// possible: shed the heaviest fitting nodes from the (single) side over
/// its cap; if that cannot reach the window, fall back to a full
/// worst-fit-decreasing repack of all nodes into the two caps.
fn repair_into_window(graph: &Hypergraph, partition: &mut Bipartition, balance: BalanceConstraint) {
    let mut weights = SideWeights::new(graph, partition).as_array();
    let counts = [partition.count(Side::A), partition.count(Side::B)];
    if balance.is_feasible(counts, weights) {
        return;
    }
    let caps = [
        balance.side_capacity(Side::A),
        balance.side_capacity(Side::B),
    ];
    // The caps cover the total weight, so at most one side overflows.
    let over = if weights[0] > caps[0] + WEIGHT_EPS {
        Side::A
    } else {
        Side::B
    };
    let to = over.other().index();
    let mut movers: Vec<NodeId> = partition.nodes_on(over).collect();
    sort_by_weight_desc(graph, &mut movers);
    for v in movers {
        if weights[over.index()] <= caps[over.index()] + WEIGHT_EPS {
            break;
        }
        let w = graph.node_weight(v);
        // The destination only fills up, so one descending pass finds
        // every mover that can ever fit.
        if weights[to] + w <= caps[to] + WEIGHT_EPS {
            partition.flip(v);
            weights[over.index()] -= w;
            weights[to] += w;
        }
    }
    if weights[0] <= caps[0] + WEIGHT_EPS && weights[1] <= caps[1] + WEIGHT_EPS {
        return;
    }
    // Full repack: every node in (weight desc, id asc) order onto the
    // side with the most remaining capacity.
    let mut order: Vec<NodeId> = graph.nodes().collect();
    sort_by_weight_desc(graph, &mut order);
    let mut packed = [0.0f64; 2];
    for v in order {
        let side = if caps[0] - packed[0] >= caps[1] - packed[1] {
            Side::A
        } else {
            Side::B
        };
        if partition.side(v) != side {
            partition.flip(v);
        }
        packed[side.index()] += graph.node_weight(v);
    }
}

/// A [`Partitioner`] shim that deterministically repairs each initial
/// partition into the balance window before delegating. Harness-provided
/// random starts target 50/50; under asymmetric budget caps they can be
/// infeasible on entry, which engines are not required to fix (their
/// contract only *preserves* feasibility).
struct Repaired<'a, P: ?Sized> {
    inner: &'a P,
}

impl<P: Partitioner + ?Sized> Partitioner for Repaired<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        repair_into_window(graph, partition, balance);
        self.inner.improve(graph, partition, balance)
    }
}

/// Recursively bisects `graph` into `k` parts with `partitioner` in
/// uniform mode: `runs` seeded 2-way runs per bisection under the
/// `(r1, r2)` ratio balance. A thin wrapper over [`partition_kway`] with
/// [`KwayConfig`] defaults and no budgets.
///
/// # Errors
///
/// As [`partition_kway`].
pub fn recursive_bisection<P: Partitioner + ?Sized>(
    graph: &Hypergraph,
    k: usize,
    r1: f64,
    r2: f64,
    partitioner: &P,
    runs: usize,
    seed: u64,
) -> Result<KwayPartition, PartitionError> {
    let config = KwayConfig {
        k,
        budgets: None,
        runs,
        seed,
        r1,
        r2,
        policy: ParallelPolicy::Sequential,
    };
    partition_kway(graph, partitioner, &config).map(|report| report.partition)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{Prop, PropConfig};
    use prop_netlist::generate::{generate, GeneratorConfig};

    fn circuit(seed: u64) -> Hypergraph {
        generate(&GeneratorConfig::new(256, 280, 950).with_seed(seed)).unwrap()
    }

    fn prop() -> Prop {
        Prop::new(PropConfig::calibrated())
    }

    #[test]
    fn four_way_blocks_are_balanced() {
        let g = circuit(1);
        let kp = recursive_bisection(&g, 4, 0.45, 0.55, &prop(), 2, 0).unwrap();
        assert_eq!(kp.num_blocks(), 4);
        assert_eq!(kp.len(), 256);
        let sizes = kp.block_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 256);
        for &s in &sizes {
            // Each block within a generous window of n/k.
            assert!((40..=90).contains(&s), "block sizes {sizes:?}");
        }
        assert!(kp.cut_cost(&g) > 0.0);
        assert_eq!(kp.cut_cost(&g), kp.cut_nets(&g) as f64);
        // λ−1 dominates the hyperedge cut.
        assert!(kp.connectivity_cost(&g) >= kp.cut_cost(&g));
    }

    #[test]
    fn non_power_of_two_k() {
        let g = circuit(2);
        let kp = recursive_bisection(&g, 5, 0.45, 0.55, &prop(), 1, 0).unwrap();
        assert_eq!(kp.num_blocks(), 5);
        let sizes = kp.block_sizes();
        for &s in &sizes {
            assert!((28..=80).contains(&s), "block sizes {sizes:?}");
        }
    }

    #[test]
    fn k_equals_one_is_identity() {
        let g = circuit(3);
        let kp = recursive_bisection(&g, 1, 0.45, 0.55, &prop(), 1, 0).unwrap();
        assert_eq!(kp.num_blocks(), 1);
        assert_eq!(kp.cut_nets(&g), 0);
        assert_eq!(kp.block_sizes(), vec![256]);
    }

    #[test]
    fn more_blocks_cut_more_nets() {
        let g = circuit(4);
        let k2 = recursive_bisection(&g, 2, 0.45, 0.55, &prop(), 2, 0).unwrap();
        let k8 = recursive_bisection(&g, 8, 0.45, 0.55, &prop(), 2, 0).unwrap();
        assert!(k8.cut_cost(&g) >= k2.cut_cost(&g));
    }

    #[test]
    fn invalid_arguments() {
        let g = circuit(5);
        assert!(recursive_bisection(&g, 0, 0.45, 0.55, &prop(), 1, 0).is_err());
        assert!(recursive_bisection(&g, 300, 0.45, 0.55, &prop(), 1, 0).is_err());
        assert!(recursive_bisection(&g, 2, 0.45, 0.55, &prop(), 0, 0).is_err());
        assert!(recursive_bisection(&g, 2, 0.7, 0.8, &prop(), 1, 0).is_err());
        let empty = prop_netlist::HypergraphBuilder::new(0).build().unwrap();
        assert_eq!(
            recursive_bisection(&empty, 2, 0.45, 0.55, &prop(), 1, 0),
            Err(PartitionError::EmptyGraph)
        );
    }

    #[test]
    fn weighted_blocks_balance_by_area() {
        let mut b = prop_netlist::HypergraphBuilder::new(8);
        for i in 0..7 {
            b.add_net(1.0, [i, i + 1]).unwrap();
        }
        b.set_node_weights(vec![4.0, 1.0, 1.0, 1.0, 4.0, 1.0, 1.0, 1.0])
            .unwrap();
        let g = b.build().unwrap();
        let kp = recursive_bisection(&g, 2, 0.4, 0.6, &prop(), 3, 0).unwrap();
        let w = kp.block_weights(&g);
        assert_eq!(w.iter().sum::<f64>(), 14.0);
        // Neither side may hoard both heavy nodes plus most light ones.
        assert!(w.iter().all(|&x| x <= 10.0), "{w:?}");
        // The stored per-part weights agree with the recount.
        assert_eq!(kp.part_weights(), w.as_slice());
    }

    #[test]
    fn deterministic_in_seed() {
        let g = circuit(6);
        let a = recursive_bisection(&g, 4, 0.45, 0.55, &prop(), 2, 9).unwrap();
        let b = recursive_bisection(&g, 4, 0.45, 0.55, &prop(), 2, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_k2_is_byte_identical_to_the_bipartition_harness() {
        let g = circuit(7);
        let engine = prop();
        let config = KwayConfig {
            runs: 3,
            seed: 11,
            ..KwayConfig::new(2)
        };
        let report = partition_kway(&g, &engine, &config).unwrap();
        let balance = BalanceConstraint::weighted(0.45, 0.55, &g).unwrap();
        let direct = engine
            .run_multi_parallel(&g, balance, 3, 11, ParallelPolicy::Sequential)
            .unwrap();
        let via_kway: Vec<u32> = direct
            .partition
            .sides()
            .iter()
            .map(|s| s.index() as u32)
            .collect();
        assert_eq!(report.partition.assignment(), via_kway.as_slice());
        assert_eq!(report.partition.cut_cost(&g), direct.cut_cost);
        assert_eq!(report.total_passes, direct.total_passes);
        assert_eq!(report.status, RunStatus::Completed);
    }

    #[test]
    fn budgets_are_respected_and_asymmetric() {
        let g = circuit(8); // 256 unit nodes
        let budgets = vec![150.0, 60.0, 60.0];
        let config = KwayConfig {
            budgets: Some(budgets.clone()),
            runs: 2,
            ..KwayConfig::new(3)
        };
        let report = partition_kway(&g, &prop(), &config).unwrap();
        let weights = report.partition.part_weights();
        assert_eq!(weights.iter().sum::<f64>(), 256.0);
        for (w, b) in weights.iter().zip(&budgets) {
            assert!(w <= b, "part weight {w} over budget {b}");
        }
        // The asymmetric first budget actually binds: part 0 must be
        // bigger than either small part could hold.
        assert!(weights[0] > 60.0, "{weights:?}");
    }

    #[test]
    fn budget_prechecks_are_typed_errors() {
        let g = circuit(9);
        let engine = prop();
        // Sum below the total weight.
        let config = KwayConfig {
            budgets: Some(vec![100.0, 100.0]),
            ..KwayConfig::new(2)
        };
        assert!(matches!(
            partition_kway(&g, &engine, &config),
            Err(PartitionError::InfeasibleBudgets { .. })
        ));
        // A budget below the heaviest node.
        let mut b = prop_netlist::HypergraphBuilder::new(6);
        b.add_net(1.0, [0, 1, 2, 3, 4, 5]).unwrap();
        b.set_node_weights(vec![5.0, 1.0, 1.0, 1.0, 1.0, 1.0]).unwrap();
        let heavy = b.build().unwrap();
        let config = KwayConfig {
            budgets: Some(vec![7.0, 4.0]),
            ..KwayConfig::new(2)
        };
        assert!(matches!(
            partition_kway(&heavy, &engine, &config),
            Err(PartitionError::InfeasibleBudgets { .. })
        ));
        // Arity and value validation are InvalidConfig, not infeasible.
        let config = KwayConfig {
            budgets: Some(vec![300.0]),
            ..KwayConfig::new(2)
        };
        assert!(matches!(
            partition_kway(&g, &engine, &config),
            Err(PartitionError::InvalidConfig { .. })
        ));
        let config = KwayConfig {
            budgets: Some(vec![300.0, -1.0]),
            ..KwayConfig::new(2)
        };
        assert!(matches!(
            partition_kway(&g, &engine, &config),
            Err(PartitionError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn pre_tripped_token_still_packs_every_node() {
        let g = circuit(10);
        let token = CancelToken::new();
        token.cancel();
        let config = KwayConfig {
            budgets: Some(vec![70.0; 4]),
            runs: 2,
            ..KwayConfig::new(4)
        };
        let report = partition_kway_cancellable(&g, &prop(), &config, &token).unwrap();
        assert_eq!(report.status, RunStatus::Cancelled);
        assert_eq!(report.partition.len(), 256);
        assert!(report.partition.assignment().iter().all(|&p| p < 4));
        // The packed partial result still honours the budgets.
        for w in report.partition.part_weights() {
            assert!(*w <= 70.0 + 1e-9, "{:?}", report.partition.part_weights());
        }
    }

    #[test]
    fn a_subtree_thread_panic_is_re_raised_with_its_payload() {
        // Panics only off the test thread, i.e. inside the right subtree's
        // worker; the left subtree runs on the calling thread.
        struct PanicsOnWorkers;
        impl Partitioner for PanicsOnWorkers {
            fn name(&self) -> &str {
                "panics-on-workers"
            }
            fn improve(
                &self,
                graph: &Hypergraph,
                partition: &mut Bipartition,
                balance: BalanceConstraint,
            ) -> ImproveStats {
                if std::thread::current().name().is_none() {
                    panic!("subtree worker failed");
                }
                prop().improve(graph, partition, balance)
            }
        }
        let g = circuit(11);
        let config = KwayConfig {
            runs: 1,
            policy: ParallelPolicy::Threads(2),
            ..KwayConfig::new(4)
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            partition_kway(&g, &PanicsOnWorkers, &config)
        }))
        .expect_err("the right subtree's panic must reach the caller");
        assert_eq!(
            caught.downcast_ref::<&str>(),
            Some(&"subtree worker failed")
        );
    }

    #[test]
    fn path_seeds_differ_from_sibling_to_sibling() {
        // The salted path streams must separate siblings: equal seeds
        // with different paths give different harness seeds.
        let s_left = salted_stream_seed(5, KWAY_SEED_SALT, 2);
        let s_right = salted_stream_seed(5, KWAY_SEED_SALT, 3);
        assert_ne!(s_left, s_right);
        assert_ne!(s_left, 5);
    }
}
