//! The two Fiduccia–Mattheyses variants: bucket array and balanced tree.

use crate::pass::{run_fm_pass, GainContainer, PassState};
use prop_core::{BalanceConstraint, Bipartition, CutState, ImproveStats, Partitioner, Side};
use prop_dstruct::{AvlTree, BucketList, OrderedF64};
use prop_netlist::Hypergraph;

/// FM with the classic O(1) gain bucket array (the paper's "FM-bucket").
///
/// The bucket array needs integral net costs — gains are then integers
/// bounded by the largest weighted node degree. Unit costs are the paper's
/// case; integral non-unit costs arise from coarsened circuits whose
/// merged nets sum their fine unit costs. A circuit with fractional net
/// costs runs the same passes over [`FmTree`]'s balanced tree instead, so
/// every circuit gets a result (identical to [`FmTree`]'s on it).
///
/// ```
/// use prop_core::{BalanceConstraint, Partitioner};
/// use prop_fm::FmBucket;
/// use prop_netlist::generate::{generate, GeneratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = generate(&GeneratorConfig::new(60, 66, 220).with_seed(2))?;
/// let balance = BalanceConstraint::bisection(graph.num_nodes());
/// let result = FmBucket::default().run_seeded(&graph, balance, 0)?;
/// assert!(result.partition.is_balanced(balance));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FmBucket {
    /// Safety bound on passes per run (the paper observes 2–4 in practice).
    pub max_passes: usize,
    /// A pass stops once it has made this many tentative moves without
    /// reaching a new best feasible prefix, then commits its best prefix
    /// as a full pass does. The default, `usize::MAX`, runs the paper's
    /// full passes (every free node moved once).
    pub stall_moves: usize,
}

impl Default for FmBucket {
    fn default() -> Self {
        FmBucket {
            max_passes: 64,
            stall_moves: usize::MAX,
        }
    }
}

/// FM with a balanced-tree gain structure (the paper's "FM-tree").
///
/// Handles arbitrary net weights; Θ(nd log n) per pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FmTree {
    /// Safety bound on passes per run.
    pub max_passes: usize,
}

impl Default for FmTree {
    fn default() -> Self {
        FmTree { max_passes: 64 }
    }
}

struct BucketContainer {
    lists: [BucketList; 2],
}

impl BucketContainer {
    fn new(n: usize, max_abs_gain: i64) -> Self {
        BucketContainer {
            lists: [
                BucketList::new(n, max_abs_gain),
                BucketList::new(n, max_abs_gain),
            ],
        }
    }
}

/// Converts a unit-cost FM gain (an exact small integer stored as `f64`)
/// to its bucket index.
fn integral(gain: f64) -> i64 {
    let rounded = gain.round();
    debug_assert!(
        (gain - rounded).abs() < 1e-6,
        "bucket FM requires integral gains, got {gain}"
    );
    rounded as i64
}

impl GainContainer for BucketContainer {
    fn clear(&mut self) {
        // Reset in place once per pass: no second copy of the arrays.
        self.lists.iter_mut().for_each(BucketList::clear);
    }
    fn insert(&mut self, node: u32, side: Side, gain: f64) {
        self.lists[side.index()].insert(node as usize, integral(gain));
    }
    fn remove(&mut self, node: u32, side: Side, gain: f64) {
        let _ = gain;
        let removed = self.lists[side.index()].remove(node as usize);
        debug_assert!(removed);
    }
    fn reposition(&mut self, node: u32, side: Side, _old: f64, new_gain: f64) {
        self.lists[side.index()].update(node as usize, integral(new_gain));
    }
    fn best(&mut self, side: Side) -> Option<(f64, u32)> {
        let list = &mut self.lists[side.index()];
        let gain = list.max_gain()?;
        let node = list.peek_max()?;
        Some((gain as f64, node as u32))
    }
    fn best_where(
        &mut self,
        side: Side,
        fits: &mut dyn FnMut(u32) -> bool,
    ) -> Option<(f64, u32)> {
        self.lists[side.index()]
            .iter_desc()
            .find(|&(id, _)| fits(id as u32))
            .map(|(id, g)| (g as f64, id as u32))
    }
}

/// Tree container keyed by `(gain, recency stamp, node)`: among equal
/// gains the most recently (re)inserted node wins, matching the LIFO
/// tie-breaking of the bucket structure — a detail known to matter for FM
/// cut quality.
pub(crate) struct TreeContainer {
    trees: [AvlTree<(OrderedF64, u64, u32)>; 2],
    stamp: Vec<u64>,
    next_stamp: u64,
}

impl TreeContainer {
    pub(crate) fn new(capacity: usize) -> Self {
        TreeContainer {
            trees: [AvlTree::new(), AvlTree::new()],
            stamp: vec![0; capacity],
            next_stamp: 0,
        }
    }
}

impl GainContainer for TreeContainer {
    fn clear(&mut self) {
        self.trees[0].clear();
        self.trees[1].clear();
    }
    fn insert(&mut self, node: u32, side: Side, gain: f64) {
        self.next_stamp += 1;
        self.stamp[node as usize] = self.next_stamp;
        let inserted =
            self.trees[side.index()].insert((OrderedF64::new(gain), self.next_stamp, node));
        debug_assert!(inserted);
    }
    fn remove(&mut self, node: u32, side: Side, gain: f64) {
        let key = (OrderedF64::new(gain), self.stamp[node as usize], node);
        let removed = self.trees[side.index()].remove(&key);
        debug_assert!(removed);
    }
    fn best(&mut self, side: Side) -> Option<(f64, u32)> {
        self.trees[side.index()]
            .max()
            .map(|&(g, _, id)| (g.get(), id))
    }
    fn best_where(
        &mut self,
        side: Side,
        fits: &mut dyn FnMut(u32) -> bool,
    ) -> Option<(f64, u32)> {
        self.trees[side.index()]
            .iter_desc()
            .find(|&&(_, _, id)| fits(id))
            .map(|&(g, _, id)| (g.get(), id))
    }
}

impl Partitioner for FmBucket {
    fn name(&self) -> &str {
        "FM-bucket"
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let n = graph.num_nodes();
        let mut state = PassState::new(n);
        if !graph.has_integral_weights() {
            // Fractional gains have no bucket: the tree runs the same passes.
            let mut container = TreeContainer::new(n);
            return improve_with(
                "FM-bucket",
                graph,
                partition,
                balance,
                self.max_passes,
                self.stall_moves,
                &mut container,
                &mut state,
            );
        }
        // A node's gain is bounded by its weighted degree (every incident
        // net fully for or against the move). Unit costs reduce this to
        // the plain max degree.
        let max_gain = if graph.has_unit_weights() {
            graph.stats().max_degree as i64
        } else {
            let mut wdeg = vec![0.0f64; n];
            for net in graph.nets() {
                let w = graph.net_weight(net);
                for &pin in graph.pins_of(net) {
                    wdeg[pin.index()] += w;
                }
            }
            wdeg.iter().fold(0.0f64, |a, &b| a.max(b)) as i64
        };
        let mut container = BucketContainer::new(n, max_gain.max(1));
        improve_with(
            "FM-bucket",
            graph,
            partition,
            balance,
            self.max_passes,
            self.stall_moves,
            &mut container,
            &mut state,
        )
    }
}

impl Partitioner for FmTree {
    fn name(&self) -> &str {
        "FM-tree"
    }

    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let mut container = TreeContainer::new(graph.num_nodes());
        let mut state = PassState::new(graph.num_nodes());
        improve_with(
            "FM-tree",
            graph,
            partition,
            balance,
            self.max_passes,
            usize::MAX,
            &mut container,
            &mut state,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn improve_with<C: GainContainer>(
    engine: &'static str,
    graph: &Hypergraph,
    partition: &mut Bipartition,
    balance: BalanceConstraint,
    max_passes: usize,
    stall_moves: usize,
    container: &mut C,
    state: &mut PassState,
) -> ImproveStats {
    let mut cut = CutState::new(graph, partition);
    let mut passes = 0;
    while passes < max_passes {
        // Cooperative cancellation at the pass boundary (no-op unless a
        // tripped token is installed on this thread).
        if prop_core::cancel::requested() {
            break;
        }
        passes += 1;
        let committed = run_fm_pass(
            engine,
            graph,
            partition,
            &mut cut,
            balance,
            container,
            state,
            stall_moves,
        );
        if committed <= 0.0 {
            break;
        }
    }
    ImproveStats {
        passes,
        cut_cost: cut.cut_cost(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::cut_cost;
    use prop_netlist::generate::{generate, GeneratorConfig};
    use prop_netlist::HypergraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_cliques() -> Hypergraph {
        let mut b = HypergraphBuilder::new(8);
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_net(1.0, [i, j]).unwrap();
                b.add_net(1.0, [i + 4, j + 4]).unwrap();
            }
        }
        b.add_net(1.0, [0, 7]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bucket_finds_optimal_bridge_cut() {
        let g = two_cliques();
        let balance = BalanceConstraint::bisection(8);
        let res = FmBucket::default().run_multi(&g, balance, 5, 0).unwrap();
        assert_eq!(res.cut_cost, 1.0);
    }

    #[test]
    fn tree_finds_optimal_bridge_cut() {
        let g = two_cliques();
        let balance = BalanceConstraint::bisection(8);
        let res = FmTree::default().run_multi(&g, balance, 5, 0).unwrap();
        assert_eq!(res.cut_cost, 1.0);
    }

    #[test]
    fn bucket_and_tree_agree_on_unit_costs() {
        // Same selection rule and same deterministic tie-breaks modulo
        // container order; they need not match move-for-move, but both must
        // reach feasible local minima of the same quality class, and each
        // must equal its own recomputed cut.
        let g = generate(&GeneratorConfig::new(100, 110, 370).with_seed(12)).unwrap();
        let balance = BalanceConstraint::bisection(100);
        let rb = FmBucket::default().run_multi(&g, balance, 3, 9).unwrap();
        let rt = FmTree::default().run_multi(&g, balance, 3, 9).unwrap();
        assert_eq!(rb.cut_cost, cut_cost(&g, &rb.partition));
        assert_eq!(rt.cut_cost, cut_cost(&g, &rt.partition));
        assert!(rb.partition.is_balanced(balance));
        assert!(rt.partition.is_balanced(balance));
    }

    #[test]
    fn tree_handles_weighted_nets() {
        let mut b = HypergraphBuilder::new(4);
        b.add_net(10.0, [0, 1]).unwrap();
        b.add_net(10.0, [2, 3]).unwrap();
        b.add_net(0.5, [1, 2]).unwrap();
        let g = b.build().unwrap();
        let balance = BalanceConstraint::bisection(4);
        let res = FmTree::default().run_multi(&g, balance, 4, 0).unwrap();
        // Optimal bisection keeps the heavy nets internal.
        assert_eq!(res.cut_cost, 0.5);
    }

    #[test]
    fn bucket_runs_fractional_nets_as_the_tree_does() {
        let mut b = HypergraphBuilder::new(4);
        b.add_net(10.0, [0, 1]).unwrap();
        b.add_net(10.0, [2, 3]).unwrap();
        b.add_net(0.5, [1, 2]).unwrap();
        b.add_net(2.5, [0, 3]).unwrap();
        let g = b.build().unwrap();
        assert!(!g.has_integral_weights());
        let balance = BalanceConstraint::bisection(4);
        let rb = FmBucket::default().run_multi(&g, balance, 4, 0).unwrap();
        let rt = FmTree::default().run_multi(&g, balance, 4, 0).unwrap();
        assert_eq!(rb, rt);
        assert_eq!(rb.cut_cost, 3.0);
    }

    #[test]
    fn bucket_and_tree_agree_on_integral_weighted_nets() {
        // The coarse-circuit case: integral non-unit net costs. The bucket
        // structure must accept them and find the same-quality minimum as
        // the tree on a circuit with an unambiguous optimum.
        let mut b = HypergraphBuilder::new(4);
        b.add_net(10.0, [0, 1]).unwrap();
        b.add_net(10.0, [2, 3]).unwrap();
        b.add_net(2.0, [1, 2]).unwrap();
        let g = b.build().unwrap();
        assert!(!g.has_unit_weights() && g.has_integral_weights());
        let balance = BalanceConstraint::bisection(4);
        let rb = FmBucket::default().run_multi(&g, balance, 4, 0).unwrap();
        let rt = FmTree::default().run_multi(&g, balance, 4, 0).unwrap();
        assert_eq!(rb.cut_cost, 2.0);
        assert_eq!(rt.cut_cost, 2.0);
    }

    #[test]
    fn never_worsens() {
        let g = generate(&GeneratorConfig::new(80, 90, 300).with_seed(31)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, 80).unwrap();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut part = Bipartition::random(80, &mut rng);
            let before = cut_cost(&g, &part);
            let stats = FmBucket::default().improve(&g, &mut part, balance);
            assert!(stats.cut_cost <= before);
            assert_eq!(stats.cut_cost, cut_cost(&g, &part));
            assert!(stats.passes >= 1);
        }
    }

    #[test]
    fn names() {
        assert_eq!(FmBucket::default().name(), "FM-bucket");
        assert_eq!(FmTree::default().name(), "FM-tree");
    }
}
