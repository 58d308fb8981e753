//! The shared FM pass: selection, locking, delta gain updates, prefix
//! commit. Generic over the gain container (bucket array or AVL tree).

use prop_core::{BalanceConstraint, Bipartition, CutState, Side, SideWeights};
use prop_dstruct::PrefixTracker;
use prop_netlist::{Hypergraph, NodeId};

/// A per-side gain container for the FM pass.
pub(crate) trait GainContainer {
    /// Empties both sides.
    fn clear(&mut self);
    /// Adds a node with the given gain.
    fn insert(&mut self, node: u32, side: Side, gain: f64);
    /// Removes a node (its current gain and side are supplied).
    fn remove(&mut self, node: u32, side: Side, gain: f64);
    /// Moves a node between gain positions.
    fn reposition(&mut self, node: u32, side: Side, old_gain: f64, new_gain: f64) {
        self.remove(node, side, old_gain);
        self.insert(node, side, new_gain);
    }
    /// The best (gain, node) of a side, ties broken arbitrarily but
    /// deterministically.
    fn best(&mut self, side: Side) -> Option<(f64, u32)>;
    /// The best (gain, node) of a side among nodes accepted by `fits` —
    /// the size-constrained selection scan. Implementations walk their
    /// descending order until `fits` accepts.
    fn best_where(
        &mut self,
        side: Side,
        fits: &mut dyn FnMut(u32) -> bool,
    ) -> Option<(f64, u32)>;
}

/// Reusable buffers for FM-style passes.
pub(crate) struct PassState {
    pub gains: Vec<f64>,
    pub locked: Vec<bool>,
    pub moves: Vec<NodeId>,
    pub prefix: PrefixTracker,
}

impl PassState {
    pub(crate) fn new(n: usize) -> Self {
        PassState {
            gains: vec![0.0; n],
            locked: vec![false; n],
            moves: Vec::with_capacity(n),
            prefix: PrefixTracker::with_capacity(n),
        }
    }
}

/// Runs one FM pass and returns the committed gain (0 when the pass was
/// fully rolled back). `engine` is the display name reported to an
/// installed auditor under the `debug-audit` feature.
///
/// The pass stops early once `stall_moves` tentative moves have gone by
/// without a new best feasible prefix; it then commits the best prefix
/// and rolls back the tail, as a full pass does. A limit of at least the
/// node count never fires, so the pass is the paper's full pass.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_fm_pass<C: GainContainer>(
    engine: &'static str,
    graph: &Hypergraph,
    partition: &mut Bipartition,
    cut: &mut CutState,
    balance: BalanceConstraint,
    container: &mut C,
    state: &mut PassState,
    stall_moves: usize,
) -> f64 {
    #[cfg(not(feature = "debug-audit"))]
    let _ = engine;
    let n = graph.num_nodes();
    if n == 0 {
        return 0.0;
    }
    #[cfg(feature = "debug-audit")]
    prop_core::audit::with_auditor(|a| {
        a.begin_pass(&prop_core::audit::PassBegin {
            engine,
            graph,
            partition,
            cut,
            balance,
        });
    });
    state.locked.iter_mut().for_each(|l| *l = false);
    state.moves.clear();
    state.prefix.clear();
    container.clear();
    let mut side_weights = SideWeights::new(graph, partition);
    for v in graph.nodes() {
        state.gains[v.index()] = cut.move_gain(graph, partition, v);
        container.insert(v.index() as u32, partition.side(v), state.gains[v.index()]);
    }

    while let Some((u, side)) =
        select_move(graph, partition, balance, &side_weights, container)
    {
        container.remove(u.index() as u32, side, state.gains[u.index()]);
        state.locked[u.index()] = true;
        let immediate = apply_move_with_deltas(graph, partition, cut, container, state, u);
        side_weights.apply_move(side, graph.node_weight(u));
        state.prefix.push(
            immediate,
            balance.is_feasible(
                [partition.count(Side::A), partition.count(Side::B)],
                side_weights.as_array(),
            ),
        );
        state.moves.push(u);
        #[cfg(feature = "debug-audit")]
        prop_core::audit::with_auditor(|a| {
            a.after_move(&prop_core::audit::MoveRecord {
                engine,
                graph,
                partition,
                cut,
                balance,
                moved: u,
                immediate_gain: immediate,
                gains: &state.gains,
                locked: &state.locked,
                probabilities: None,
                products: None,
                fresh: None,
                side_weights: side_weights.as_array(),
            });
        });
        if state.prefix.moves_since_best() >= stall_moves {
            break;
        }
    }

    let best = state.prefix.best();
    let commit = best.map_or(0, |b| b.moves);
    for i in (commit..state.moves.len()).rev() {
        cut.apply_move(graph, partition, state.moves[i]);
    }
    let committed_gain = best.map_or(0.0, |b| b.gain);
    #[cfg(feature = "debug-audit")]
    prop_core::audit::with_auditor(|a| {
        a.after_pass(&prop_core::audit::PassRecord {
            engine,
            graph,
            partition,
            cut,
            balance,
            moves: &state.moves,
            immediate_gains: state.prefix.gains(),
            feasible: state.prefix.feasibility(),
            committed_moves: commit,
            committed_gain,
        });
    });
    committed_gain
}

/// The paper's selection rule: the best-gain node over both sides whose
/// move respects the pass-relaxed balance; if the global best is blocked,
/// the best node of the other side. Under a size-constrained balance the
/// containers are scanned in descending gain order for the first node
/// that fits.
pub(crate) fn select_move<C: GainContainer>(
    graph: &Hypergraph,
    partition: &Bipartition,
    balance: BalanceConstraint,
    side_weights: &SideWeights,
    container: &mut C,
) -> Option<(NodeId, Side)> {
    let counts = [partition.count(Side::A), partition.count(Side::B)];
    let weights = side_weights.as_array();
    let mut best: Option<(f64, u32, Side)> = None;
    for si in 0..2 {
        let side = Side::from_index(si);
        let candidate = if balance.is_weighted() {
            let mut fits = |id: u32| {
                balance.allows_node_move(
                    side,
                    counts,
                    weights,
                    graph.node_weight(NodeId::new(id as usize)),
                )
            };
            container.best_where(side, &mut fits)
        } else {
            if !balance.allows_move(side, counts[0], counts[1]) {
                continue;
            }
            container.best(side)
        };
        if let Some((g, id)) = candidate {
            let better = best.is_none_or(|(bg, bid, _)| (g, id) > (bg, bid));
            if better {
                best = Some((g, id, side));
            }
        }
    }
    best.map(|(_, id, side)| (NodeId::new(id as usize), side))
}

/// Moves `u` (already locked and removed from the container), applying the
/// classic FM delta rules to its free neighbors' gains. Returns the exact
/// immediate gain.
fn apply_move_with_deltas<C: GainContainer>(
    graph: &Hypergraph,
    partition: &mut Bipartition,
    cut: &mut CutState,
    container: &mut C,
    state: &mut PassState,
    u: NodeId,
) -> f64 {
    let from = partition.side(u);
    let to = from.other();

    // Before-move inspection of each incident net.
    for &net in graph.nets_of(u) {
        let w = graph.net_weight(net);
        let on_to = cut.pins_on(net, to);
        if on_to == 0 {
            // The net will enter the cut: every free pin gains by w (each
            // could later pull it back out).
            for &x in graph.pins_of(net) {
                if !state.locked[x.index()] {
                    bump(container, state, partition, x, w);
                }
            }
        } else if on_to == 1 {
            // The lone `to`-side pin loses its chance to uncut the net.
            for &x in graph.pins_of(net) {
                if !state.locked[x.index()] && partition.side(x) == to {
                    bump(container, state, partition, x, -w);
                }
            }
        }
    }

    let immediate = cut.apply_move(graph, partition, u);

    // After-move inspection.
    for &net in graph.nets_of(u) {
        let w = graph.net_weight(net);
        let on_from = cut.pins_on(net, from);
        if on_from == 0 {
            // The net left the cut: every free pin's gain drops by w.
            for &x in graph.pins_of(net) {
                if !state.locked[x.index()] {
                    bump(container, state, partition, x, -w);
                }
            }
        } else if on_from == 1 {
            // The lone remaining `from`-side pin can now uncut the net.
            for &x in graph.pins_of(net) {
                if !state.locked[x.index()] && partition.side(x) == from {
                    bump(container, state, partition, x, w);
                }
            }
        }
    }
    immediate
}

fn bump<C: GainContainer>(
    container: &mut C,
    state: &mut PassState,
    partition: &Bipartition,
    x: NodeId,
    delta: f64,
) {
    let old = state.gains[x.index()];
    let new = old + delta;
    state.gains[x.index()] = new;
    container.reposition(x.index() as u32, partition.side(x), old, new);
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_dstruct::{AvlTree, OrderedF64};
    use prop_netlist::generate::{generate, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct TreeBox {
        trees: [AvlTree<(OrderedF64, u32)>; 2],
    }

    impl GainContainer for TreeBox {
        fn clear(&mut self) {
            self.trees[0].clear();
            self.trees[1].clear();
        }
        fn insert(&mut self, node: u32, side: Side, gain: f64) {
            self.trees[side.index()].insert((OrderedF64::new(gain), node));
        }
        fn remove(&mut self, node: u32, side: Side, gain: f64) {
            let removed = self.trees[side.index()].remove(&(OrderedF64::new(gain), node));
            debug_assert!(removed);
        }
        fn best(&mut self, side: Side) -> Option<(f64, u32)> {
            self.trees[side.index()].max().map(|&(g, id)| (g.get(), id))
        }
        fn best_where(
            &mut self,
            side: Side,
            fits: &mut dyn FnMut(u32) -> bool,
        ) -> Option<(f64, u32)> {
            self.trees[side.index()]
                .iter_desc()
                .find(|&&(_, id)| fits(id))
                .map(|&(g, id)| (g.get(), id))
        }
    }

    /// Delta-maintained gains must equal from-scratch FM gains after every
    /// move of a pass.
    #[test]
    fn delta_gains_match_recomputation() {
        let graph = generate(&GeneratorConfig::new(50, 60, 200).with_seed(17)).unwrap();
        let balance = BalanceConstraint::bisection(50);
        let mut rng = StdRng::seed_from_u64(3);
        let mut partition = Bipartition::random(50, &mut rng);
        let mut cut = CutState::new(&graph, &partition);
        let mut state = PassState::new(50);
        let mut container = TreeBox {
            trees: [AvlTree::new(), AvlTree::new()],
        };
        container.clear();
        for v in graph.nodes() {
            state.gains[v.index()] = cut.move_gain(&graph, &partition, v);
            container.insert(v.index() as u32, partition.side(v), state.gains[v.index()]);
        }
        for _ in 0..30 {
            let side_weights = SideWeights::new(&graph, &partition);
            let Some((u, side)) =
                select_move(&graph, &partition, balance, &side_weights, &mut container)
            else {
                break;
            };
            container.remove(u.index() as u32, side, state.gains[u.index()]);
            state.locked[u.index()] = true;
            apply_move_with_deltas(
                &graph,
                &mut partition,
                &mut cut,
                &mut container,
                &mut state,
                u,
            );
            for x in graph.nodes() {
                if state.locked[x.index()] {
                    continue;
                }
                let fresh = cut.move_gain(&graph, &partition, x);
                assert!(
                    (state.gains[x.index()] - fresh).abs() < 1e-9,
                    "node {x}: delta {} vs fresh {fresh}",
                    state.gains[x.index()]
                );
            }
        }
    }

    #[test]
    fn pass_commits_consistent_state() {
        let graph = generate(&GeneratorConfig::new(64, 72, 250).with_seed(29)).unwrap();
        let balance = BalanceConstraint::bisection(64);
        let mut rng = StdRng::seed_from_u64(4);
        let mut partition = Bipartition::random(64, &mut rng);
        let mut cut = CutState::new(&graph, &partition);
        let before = cut.cut_cost();
        let mut state = PassState::new(64);
        let mut container = TreeBox {
            trees: [AvlTree::new(), AvlTree::new()],
        };
        let committed = run_fm_pass(
            "FM-test",
            &graph,
            &mut partition,
            &mut cut,
            balance,
            &mut container,
            &mut state,
            usize::MAX,
        );
        assert_eq!(cut, CutState::new(&graph, &partition));
        assert!((before - cut.cut_cost() - committed).abs() < 1e-9);
        assert!(partition.is_balanced(balance));
        assert!(committed >= 0.0);
    }

    /// One pass from a fixed random start under `stall_moves`: the
    /// committed partition, the committed gain, and the tentative moves
    /// with their gains and feasibility.
    fn one_pass(stall_moves: usize) -> (Bipartition, f64, Vec<NodeId>, Vec<f64>, Vec<bool>) {
        let graph = generate(&GeneratorConfig::new(300, 330, 1150).with_seed(41)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, 300).unwrap();
        let mut partition = Bipartition::random(300, &mut StdRng::seed_from_u64(8));
        let mut cut = CutState::new(&graph, &partition);
        let mut state = PassState::new(300);
        let mut container = TreeBox {
            trees: [AvlTree::new(), AvlTree::new()],
        };
        let committed = run_fm_pass(
            "FM-test",
            &graph,
            &mut partition,
            &mut cut,
            balance,
            &mut container,
            &mut state,
            stall_moves,
        );
        assert_eq!(cut, CutState::new(&graph, &partition));
        let gains = state.prefix.gains().to_vec();
        let feasible = state.prefix.feasibility().to_vec();
        (partition, committed, state.moves, gains, feasible)
    }

    #[test]
    fn stall_limit_at_or_above_n_is_a_full_pass() {
        let full = one_pass(usize::MAX);
        assert_eq!(full.2.len(), 300, "a full pass moves every node");
        assert_eq!(one_pass(300), full);
        assert_eq!(one_pass(301), full);
    }

    #[test]
    fn stalled_pass_stops_exactly_the_limit_after_its_best_prefix() {
        let (_, _, full_moves, full_gains, full_feasible) = one_pass(usize::MAX);
        for limit in [1, 5, 20, 60] {
            let (partition, committed, moves, gains, feasible) = one_pass(limit);
            // The stalled pass is a prefix of the full pass's move sequence.
            let k = moves.len();
            assert_eq!(moves, full_moves[..k]);
            assert_eq!(gains, full_gains[..k]);
            assert_eq!(feasible, full_feasible[..k]);
            // It stops at the first point `limit` moves past the best so
            // far (or when the nodes run out).
            let mut tracker = PrefixTracker::new();
            let mut stop = full_moves.len();
            for (i, (&g, &ok)) in full_gains.iter().zip(&full_feasible).enumerate() {
                tracker.push(g, ok);
                if tracker.moves_since_best() >= limit {
                    stop = i + 1;
                    break;
                }
            }
            assert_eq!(k, stop, "limit {limit}");
            let best = tracker.best();
            if limit <= 5 {
                assert!(k < full_moves.len(), "limit {limit} never fired");
            }
            if k < full_moves.len() {
                assert_eq!(k, best.map_or(0, |b| b.moves) + limit, "limit {limit}");
            }
            assert_eq!(committed, best.map_or(0.0, |b| b.gain));
            // What it commits is the full sequence's prefix up to its best.
            let mut expected = Bipartition::random(300, &mut StdRng::seed_from_u64(8));
            for &u in &full_moves[..best.map_or(0, |b| b.moves)] {
                expected.flip(u);
            }
            assert_eq!(partition, expected, "limit {limit}");
        }
    }
}
