//! A from-scratch mirror of the PROP engine.
//!
//! [`ReferenceProp`] implements the exact pass semantics of `prop_core`'s
//! incremental PROP engine — the Fig.-2 schedule, the §3.2 probability
//! map, the §3.4 neighbor + top-k refresh, the `(gain, recency, id)`
//! selection order, the prefix commit — but with none of its machinery:
//! no heaps (selection sorts the unlocked nodes), no incremental cut
//! state (immediate gains come from direct pin counts), no prefix tracker
//! (a naive scan), no epoch marks (a fresh visited vector per move).
//!
//! Floating-point evaluation *order* is mirrored deliberately, including
//! the engine's divide-by-`p(u)` gain form and its ratio-based product
//! refresh, so a correct engine matches this reference **bit-for-bit**:
//! identical move sequences, identical gain tables at every refresh,
//! identical committed prefixes, identical final partitions. Any drift —
//! a tree mis-ordering, a stale gain, a wrong delta, a rollback slip —
//! shows up as a hard mismatch in the differential tests rather than a
//! statistical quality regression.

use crate::oracle;
use prop_core::{
    BalanceConstraint, Bipartition, GainInit, ImproveStats, PartitionError, Partitioner,
    PassTrace, PropConfig, Side, SideWeights,
};
use prop_dstruct::OrderedF64;
use prop_netlist::{Hypergraph, NetId, NodeId};

/// Selection key, ordered exactly like the engine's heap key: gain first,
/// then the recency stamp (most recently re-gained wins — bucket LIFO),
/// then the node id.
type Key = (OrderedF64, u64, u32);

/// The from-scratch PROP mirror. See the module docs.
///
/// ```
/// use prop_core::{BalanceConstraint, Partitioner, PropConfig};
/// use prop_netlist::generate::{generate, GeneratorConfig};
/// use prop_verify::ReferenceProp;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = generate(&GeneratorConfig::new(40, 44, 150).with_seed(7))?;
/// let balance = BalanceConstraint::bisection(graph.num_nodes());
/// let result = ReferenceProp::new(PropConfig::default()).run_seeded(&graph, balance, 1)?;
/// assert!(result.partition.is_balanced(balance));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct ReferenceProp {
    config: PropConfig,
}

/// Everything one reference pass recorded, for cross-engine comparison.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ReferencePassRecord {
    /// Gain table at the end of the refinement phase (pre-move).
    pub refinement_gains: Vec<f64>,
    /// Probabilities at the end of the refinement phase.
    pub refinement_probabilities: Vec<f64>,
    /// Every tentatively moved node, in move order.
    pub moves: Vec<usize>,
    /// The exact immediate gain of each tentative move.
    pub immediate_gains: Vec<f64>,
    /// Length of the committed prefix.
    pub committed_moves: usize,
    /// Gain of the committed prefix.
    pub committed_gain: f64,
    /// Cut cost (recomputed from scratch) after the commit.
    pub end_cut: f64,
}

impl ReferenceProp {
    /// Creates the mirror for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, like `Prop::new`.
    pub fn new(config: PropConfig) -> Self {
        config.validate().expect("invalid PROP configuration");
        ReferenceProp { config }
    }

    /// Like `Prop::improve_traced`: improves in place, returning one
    /// [`PassTrace`] per pass with identical contents.
    pub fn improve_traced(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> (ImproveStats, Vec<PassTrace>) {
        let (stats, traces, _) = self.improve_recorded(graph, partition, balance);
        (stats, traces)
    }

    /// Improves in place, additionally returning the full per-pass record
    /// (gain tables, move lists, commits) for bit-level comparison against
    /// an audited engine run.
    pub fn improve_recorded(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> (ImproveStats, Vec<PassTrace>, Vec<ReferencePassRecord>) {
        let mut state = RefState::new(graph);
        let mut traces = Vec::new();
        let mut records = Vec::new();
        while traces.len() < self.config.max_passes {
            let (committed, trace, record) =
                run_reference_pass(graph, partition, balance, &self.config, &mut state);
            traces.push(trace);
            records.push(record);
            if committed <= 0.0 {
                break;
            }
        }
        let stats = ImproveStats {
            passes: traces.len(),
            cut_cost: oracle::naive_cut(graph, partition),
        };
        (stats, traces, records)
    }
}

impl Default for ReferenceProp {
    fn default() -> Self {
        ReferenceProp::new(PropConfig::default())
    }
}

impl Partitioner for ReferenceProp {
    fn name(&self) -> &str {
        "PROP-oracle"
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        self.improve_traced(graph, partition, balance).0
    }
}

/// Runs a single reference pass; exposed so tests can exercise one pass
/// in isolation.
///
/// # Errors
///
/// Returns [`PartitionError::EmptyGraph`] for a node-less graph.
pub fn reference_pass(
    graph: &Hypergraph,
    partition: &mut Bipartition,
    balance: BalanceConstraint,
    config: &PropConfig,
) -> Result<ReferencePassRecord, PartitionError> {
    if graph.num_nodes() == 0 {
        return Err(PartitionError::EmptyGraph);
    }
    let mut state = RefState::new(graph);
    let (_, _, record) = run_reference_pass(graph, partition, balance, config, &mut state);
    Ok(record)
}

/// Cross-pass mirror state: probabilities, gains, products, and the
/// recency-stamp counter (which, like the engine's, never resets within
/// one improve call).
struct RefState {
    p: Vec<f64>,
    gain: Vec<f64>,
    locked: Vec<bool>,
    prod: Vec<[f64; 2]>,
    locked_cnt: Vec<[u32; 2]>,
    stamp: Vec<u64>,
    next_stamp: u64,
}

impl RefState {
    fn new(graph: &Hypergraph) -> Self {
        RefState {
            p: vec![0.0; graph.num_nodes()],
            gain: vec![0.0; graph.num_nodes()],
            locked: vec![false; graph.num_nodes()],
            prod: vec![[1.0; 2]; graph.num_nets()],
            locked_cnt: vec![[0; 2]; graph.num_nets()],
            stamp: vec![0; graph.num_nodes()],
            next_stamp: 0,
        }
    }

    fn key_of(&self, v: usize) -> Key {
        (OrderedF64::new(self.gain[v]), self.stamp[v], v as u32)
    }

    /// Recomputes one net's products and locked counts exactly (pins in
    /// CSR order, like the engine's per-net recomputation).
    fn recompute_net(&mut self, graph: &Hypergraph, partition: &Bipartition, net: NetId) {
        let mut prod = [1.0f64; 2];
        let mut cnt = [0u32; 2];
        for &x in graph.pins_of(net) {
            let s = partition.side(x).index();
            if self.locked[x.index()] {
                cnt[s] += 1;
            } else {
                prod[s] *= self.p[x.index()];
            }
        }
        self.prod[net.index()] = prod;
        self.locked_cnt[net.index()] = cnt;
    }

    fn rebuild_products(&mut self, graph: &Hypergraph, partition: &Bipartition) {
        for net in graph.nets() {
            self.recompute_net(graph, partition, net);
        }
    }

    /// The engine's gain arithmetic: same-side product divided by `p(u)`,
    /// clamped; cut-ness from direct pin counts.
    fn compute_gain(&self, graph: &Hypergraph, partition: &Bipartition, u: NodeId) -> f64 {
        let s = partition.side(u);
        let (si, oi) = (s.index(), s.other().index());
        let pu = self.p[u.index()];
        let mut g = 0.0;
        for &net in graph.nets_of(u) {
            let ni = net.index();
            let c = graph.net_weight(net);
            let same = if self.locked_cnt[ni][si] > 0 {
                0.0
            } else {
                (self.prod[ni][si] / pu).clamp(0.0, 1.0)
            };
            if oracle::naive_pins_on(graph, partition, net)[oi] > 0 {
                let other = if self.locked_cnt[ni][oi] > 0 {
                    0.0
                } else {
                    self.prod[ni][oi].clamp(0.0, 1.0)
                };
                g += c * (same - other);
            } else {
                g -= c * (1.0 - same);
            }
        }
        g
    }

    fn recompute_all_gains(&mut self, graph: &Hypergraph, partition: &Bipartition) {
        for v in graph.nodes() {
            if !self.locked[v.index()] {
                self.gain[v.index()] = self.compute_gain(graph, partition, v);
            }
        }
    }

    /// Maps gains to fresh probabilities; `true` when any changed.
    fn refresh_probabilities(&mut self, config: &PropConfig) -> bool {
        let mut changed = false;
        for v in 0..self.p.len() {
            let np = config.probability_of(self.gain[v]);
            if np != self.p[v] {
                self.p[v] = np;
                changed = true;
            }
        }
        changed
    }

    /// The §3.4 single-node refresh: new gain (re-stamped only on change,
    /// like a tree reposition), then the new probability pushed into the
    /// node's nets through the engine's ratio update.
    fn refresh_node(
        &mut self,
        graph: &Hypergraph,
        partition: &Bipartition,
        config: &PropConfig,
        x: NodeId,
    ) {
        let new_gain = self.compute_gain(graph, partition, x);
        if new_gain != self.gain[x.index()] {
            self.gain[x.index()] = new_gain;
            self.next_stamp += 1;
            self.stamp[x.index()] = self.next_stamp;
        }
        let new_p = config.probability_of(new_gain);
        let old_p = self.p[x.index()];
        if new_p != old_p {
            self.p[x.index()] = new_p;
            let ratio = new_p / old_p;
            let si = partition.side(x).index();
            for &net in graph.nets_of(x) {
                self.prod[net.index()][si] *= ratio;
            }
        }
    }

    /// Unlocked nodes of `side` in descending key order — the sorted
    /// stand-in for the engine's best-first heap walk.
    fn ranked(&self, partition: &Bipartition, side: Side) -> Vec<usize> {
        let mut nodes: Vec<usize> = (0..self.p.len())
            .filter(|&v| !self.locked[v] && partition.side(NodeId::new(v)) == side)
            .collect();
        nodes.sort_by_key(|&v| std::cmp::Reverse(self.key_of(v)));
        nodes
    }
}

/// One pass of Fig. 2, steps 3–10, mirrored naively.
fn run_reference_pass(
    graph: &Hypergraph,
    partition: &mut Bipartition,
    balance: BalanceConstraint,
    config: &PropConfig,
    state: &mut RefState,
) -> (f64, PassTrace, ReferencePassRecord) {
    let n = graph.num_nodes();
    let mut record = ReferencePassRecord::default();
    if n == 0 {
        return (0.0, PassTrace::default(), record);
    }
    state.locked.iter_mut().for_each(|l| *l = false);
    let mut side_weights = SideWeights::new(graph, partition);

    // Step 3: seeding.
    match config.init {
        GainInit::Uniform => state.p.iter_mut().for_each(|p| *p = config.p_init),
        GainInit::Deterministic => {
            for v in graph.nodes() {
                state.p[v.index()] =
                    config.probability_of(oracle::naive_fm_gain(graph, partition, v));
            }
        }
    }
    // Step 4: alternate gain/probability refinement to the same fixed
    // point the engine reaches.
    state.rebuild_products(graph, partition);
    state.recompute_all_gains(graph, partition);
    for _ in 0..config.refine_iterations {
        if !state.refresh_probabilities(config) {
            break;
        }
        state.rebuild_products(graph, partition);
        state.recompute_all_gains(graph, partition);
    }
    record.refinement_gains = state.gain.clone();
    record.refinement_probabilities = state.p.clone();

    // The engine refills its trees here, stamping every node in id order.
    for v in 0..n {
        state.next_stamp += 1;
        state.stamp[v] = state.next_stamp;
    }

    // Steps 5–8: the move phase.
    let mut immediate_gains: Vec<f64> = Vec::new();
    let mut feasible: Vec<bool> = Vec::new();
    let mut moves: Vec<NodeId> = Vec::new();
    while let Some(u) = select_reference_move(graph, partition, balance, &side_weights, state) {
        let from = partition.side(u);
        let immediate = immediate_gain_and_flip(graph, partition, u);
        side_weights.apply_move(from, graph.node_weight(u));
        state.locked[u.index()] = true;
        state.p[u.index()] = 0.0;
        for &net in graph.nets_of(u) {
            state.recompute_net(graph, partition, net);
        }
        immediate_gains.push(immediate);
        feasible.push(balance.is_feasible(
            [partition.count(Side::A), partition.count(Side::B)],
            side_weights.as_array(),
        ));
        moves.push(u);

        // Neighbor refresh in net/pin CSR order, each neighbor once.
        let mut visited = vec![false; n];
        visited[u.index()] = true;
        for &net in graph.nets_of(u) {
            for &x in graph.pins_of(net) {
                if !state.locked[x.index()] && !visited[x.index()] {
                    visited[x.index()] = true;
                    state.refresh_node(graph, partition, config, x);
                }
            }
        }
        // Top-k refresh per side, candidates snapshotted before refreshing.
        if config.top_k_refresh > 0 {
            for si in 0..2 {
                let top: Vec<usize> = state
                    .ranked(partition, Side::from_index(si))
                    .into_iter()
                    .take(config.top_k_refresh)
                    .collect();
                for v in top {
                    if !visited[v] {
                        visited[v] = true;
                        state.refresh_node(graph, partition, config, NodeId::new(v));
                    }
                }
            }
        }
    }

    // Steps 9–10: commit the best feasible prefix, roll the rest back.
    let best = oracle::best_prefix_naive(&immediate_gains, &feasible);
    let commit = best.map_or(0, |(m, _)| m);
    for &u in moves[commit..].iter().rev() {
        partition.flip(u);
    }
    let committed_gain = best.map_or(0.0, |(_, g)| g);

    let mut running = 0.0f64;
    let mut drawdown = 0.0f64;
    for &g in &immediate_gains[..commit] {
        running += g;
        drawdown = drawdown.min(running);
    }
    let trace = PassTrace {
        tentative_moves: moves.len(),
        committed_moves: commit,
        committed_gain,
        max_drawdown: drawdown,
    };
    record.moves = moves.iter().map(|u| u.index()).collect();
    record.immediate_gains = immediate_gains;
    record.committed_moves = commit;
    record.committed_gain = committed_gain;
    record.end_cut = oracle::naive_cut(graph, partition);
    (committed_gain, trace, record)
}

/// Step 6, mirrored: the best key over both sides whose move the balance
/// allows, with the same per-side blocking rules and the same
/// unbounded descending scan under weighted balance.
fn select_reference_move(
    graph: &Hypergraph,
    partition: &Bipartition,
    balance: BalanceConstraint,
    side_weights: &SideWeights,
    state: &RefState,
) -> Option<NodeId> {
    let counts = [partition.count(Side::A), partition.count(Side::B)];
    let weights = side_weights.as_array();
    let mut best: Option<Key> = None;
    for si in 0..2 {
        let side = Side::from_index(si);
        let ranked = state.ranked(partition, side);
        if !balance.is_weighted() {
            if !balance.allows_move(side, counts[0], counts[1]) {
                continue;
            }
            if let Some(&v) = ranked.first() {
                let key = state.key_of(v);
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                }
            }
            continue;
        }
        for &v in &ranked {
            if balance.allows_node_move(side, counts, weights, graph.node_weight(NodeId::new(v))) {
                let key = state.key_of(v);
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                }
                break;
            }
        }
    }
    best.map(|(_, _, id)| NodeId::new(id as usize))
}

/// Flips `u`, returning the exact immediate gain, accumulated over
/// `nets_of(u)` in order like `CutState::apply_move` — the floats agree
/// bit-for-bit.
fn immediate_gain_and_flip(graph: &Hypergraph, partition: &mut Bipartition, u: NodeId) -> f64 {
    let from = partition.side(u);
    let to = from.other();
    let mut gain = 0.0;
    for &net in graph.nets_of(u) {
        let mut counts = oracle::naive_pins_on(graph, partition, net);
        let was_cut = counts[0] > 0 && counts[1] > 0;
        counts[from.index()] -= 1;
        counts[to.index()] += 1;
        let is_cut = counts[0] > 0 && counts[1] > 0;
        match (was_cut, is_cut) {
            (true, false) => gain += graph.net_weight(net),
            (false, true) => gain -= graph.net_weight(net),
            _ => {}
        }
    }
    partition.flip(u);
    gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netlist::generate::{generate, GeneratorConfig};
    use prop_netlist::HypergraphBuilder;

    #[test]
    fn finds_the_obvious_bridge_cut() {
        let mut b = HypergraphBuilder::new(8);
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_net(1.0, [i, j]).unwrap();
                b.add_net(1.0, [i + 4, j + 4]).unwrap();
            }
        }
        b.add_net(1.0, [3, 4]).unwrap();
        let g = b.build().unwrap();
        let balance = BalanceConstraint::bisection(8);
        let res = ReferenceProp::default().run_multi(&g, balance, 4, 0).unwrap();
        assert_eq!(res.cut_cost, 1.0);
        assert!(res.partition.is_balanced(balance));
    }

    #[test]
    fn never_worsens_and_reports_consistent_cut() {
        let g = generate(&GeneratorConfig::new(40, 44, 150).with_seed(11)).unwrap();
        let balance = BalanceConstraint::bisection(40);
        for seed in 0..3 {
            let res = ReferenceProp::default().run_seeded(&g, balance, seed).unwrap();
            assert_eq!(res.cut_cost, oracle::naive_cut(&g, &res.partition));
            assert!(res.partition.is_balanced(balance));
        }
    }

    #[test]
    fn empty_pass_is_rejected() {
        let g = HypergraphBuilder::new(0).build().unwrap();
        let mut p = Bipartition::from_sides(vec![]);
        let err = reference_pass(&g, &mut p, BalanceConstraint::bisection(0), &PropConfig::default());
        assert_eq!(err.unwrap_err(), PartitionError::EmptyGraph);
    }

    #[test]
    fn record_shapes_are_consistent() {
        let g = generate(&GeneratorConfig::new(24, 30, 90).with_seed(5)).unwrap();
        let mut p = Bipartition::from_sides(
            (0..24)
                .map(|i| if i % 2 == 0 { Side::A } else { Side::B })
                .collect(),
        );
        let record =
            reference_pass(&g, &mut p, BalanceConstraint::bisection(24), &PropConfig::default())
                .unwrap();
        assert_eq!(record.refinement_gains.len(), 24);
        assert_eq!(record.moves.len(), record.immediate_gains.len());
        assert!(record.committed_moves <= record.moves.len());
        assert_eq!(record.end_cut, oracle::naive_cut(&g, &p));
    }
}
