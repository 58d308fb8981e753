//! Krishnamurthy's lookahead partitioner LA-k.

use prop_core::{
    BalanceConstraint, Bipartition, CutState, ImproveStats, Partitioner, Side, SideWeights,
};
use prop_dstruct::{AvlTree, PrefixTracker};
use prop_netlist::{Hypergraph, NodeId};

/// Maximum supported lookahead depth. The paper reports `k = 2..4` as the
/// useful range and notes the memory cost explodes beyond that.
pub const LA_MAX_LOOKAHEAD: usize = 4;

/// A lookahead gain vector, compared lexicographically. `v[0]` equals the
/// FM gain; `v[i]` counts potential gains that need `i` more same-side
/// moves to realise, minus symmetric potential losses.
type GainVec = [i64; LA_MAX_LOOKAHEAD];

/// The LA-k partitioner [Krishnamurthy 1984], as summarised in §2 of the
/// DAC-96 paper: each node carries a `k`-element gain vector whose `i`-th
/// element is the number of nets connected to `u` with exactly `i − 1`
/// other free same-side nodes, minus the number of nets with exactly
/// `i − 1` free other-side nodes (nets with locked pins on the relevant
/// side are excluded — their state can no longer change from that side).
/// Vectors are compared lexicographically; level 1 is exactly the FM gain.
///
/// Net weights are ignored (treated as unit), matching the original
/// formulation; the constructor therefore refuses weighted graphs at
/// `improve` time.
///
/// ```
/// use prop_core::{BalanceConstraint, Partitioner};
/// use prop_fm::La;
/// use prop_netlist::generate::{generate, GeneratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = generate(&GeneratorConfig::new(60, 70, 230).with_seed(4))?;
/// let balance = BalanceConstraint::bisection(graph.num_nodes());
/// let la3 = La::new(3).run_seeded(&graph, balance, 0)?;
/// assert!(la3.partition.is_balanced(balance));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct La {
    lookahead: usize,
    /// Safety bound on passes per run.
    pub max_passes: usize,
}

impl La {
    /// Creates an LA-k partitioner with lookahead depth `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= LA_MAX_LOOKAHEAD`.
    pub fn new(k: usize) -> Self {
        assert!(
            (1..=LA_MAX_LOOKAHEAD).contains(&k),
            "lookahead {k} outside 1..={LA_MAX_LOOKAHEAD}"
        );
        La {
            lookahead: k,
            max_passes: 64,
        }
    }

    /// The lookahead depth `k`.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// Computes the gain vector of `u` under the current locks.
    fn vector(
        &self,
        graph: &Hypergraph,
        partition: &Bipartition,
        locked: &[bool],
        u: NodeId,
    ) -> GainVec {
        let mut v = [0i64; LA_MAX_LOOKAHEAD];
        let side = partition.side(u);
        for &net in graph.nets_of(u) {
            let mut free_same = 0usize;
            let mut locked_same = 0usize;
            let mut free_other = 0usize;
            let mut locked_other = 0usize;
            for &x in graph.pins_of(net) {
                if x == u {
                    continue;
                }
                let same = partition.side(x) == side;
                match (same, locked[x.index()]) {
                    (true, false) => free_same += 1,
                    (true, true) => locked_same += 1,
                    (false, false) => free_other += 1,
                    (false, true) => locked_other += 1,
                }
            }
            // Positive potential: a *cut* net leaves the cutset once u and
            // its `free_same` free same-side companions have all moved —
            // impossible if a same-side pin is locked in place
            // (Krishnamurthy's binding number ∞). This generalises E(u):
            // level 1 is exactly the nets u alone can uncut.
            if (free_other + locked_other > 0) && locked_same == 0 && free_same < self.lookahead {
                v[free_same] += 1;
            }
            // Negative potential: moving u forecloses the net leaving the
            // cut from the other side (or cuts an internal net, the
            // `free_other == 0` case) — unless an other-side pin is locked,
            // in which case that possibility is already gone.
            if locked_other == 0 && free_other < self.lookahead {
                v[free_other] -= 1;
            }
        }
        v
    }
}

impl Partitioner for La {
    fn name(&self) -> &str {
        match self.lookahead {
            1 => "LA-1",
            2 => "LA-2",
            3 => "LA-3",
            _ => "LA-4",
        }
    }

    /// The gain vectors count nets, so they are defined on unit net costs
    /// only: on other netlists the move order ignores the costs, while
    /// the committed prefix still follows the costed cut.
    /// `prop_engines::EngineName::accepts` refuses such netlists before a
    /// job runs.
    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> ImproveStats {
        let n = graph.num_nodes();
        let mut cut = CutState::new(graph, partition);
        let mut passes = 0;
        let mut vectors: Vec<GainVec> = vec![[0; LA_MAX_LOOKAHEAD]; n];
        let mut locked = vec![false; n];
        // Keys carry a recency stamp so equal vectors break ties LIFO,
        // like the FM bucket structure.
        let mut trees: [AvlTree<(GainVec, u64, u32)>; 2] = [AvlTree::new(), AvlTree::new()];
        let mut stamp = vec![0u64; n];
        let mut next_stamp = 0u64;
        let mut prefix = PrefixTracker::with_capacity(n);
        let mut moves: Vec<NodeId> = Vec::with_capacity(n);
        let mut mark = vec![0u32; n];
        let mut epoch = 0u32;

        while passes < self.max_passes {
            // Cooperative cancellation at the pass boundary.
            if prop_core::cancel::requested() {
                break;
            }
            passes += 1;
            locked.iter_mut().for_each(|l| *l = false);
            prefix.clear();
            moves.clear();
            trees[0].clear();
            trees[1].clear();
            let mut side_weights = SideWeights::new(graph, partition);
            for v in graph.nodes() {
                vectors[v.index()] = self.vector(graph, partition, &locked, v);
                next_stamp += 1;
                stamp[v.index()] = next_stamp;
                trees[partition.side(v).index()].insert((
                    vectors[v.index()],
                    next_stamp,
                    v.index() as u32,
                ));
            }

            loop {
                // Selection: lexicographically best feasible vector; with
                // size constraints, the first fitting node in descending
                // order per side.
                let counts = [partition.count(Side::A), partition.count(Side::B)];
                let weights = side_weights.as_array();
                let mut best: Option<(GainVec, u64, u32, Side)> = None;
                #[allow(clippy::needless_range_loop)] // si doubles as Side index
                for si in 0..2 {
                    let side = Side::from_index(si);
                    let candidate = if balance.is_weighted() {
                        trees[si]
                            .iter_desc()
                            .find(|&&(_, _, id)| {
                                balance.allows_node_move(
                                    side,
                                    counts,
                                    weights,
                                    graph.node_weight(NodeId::new(id as usize)),
                                )
                            })
                            .copied()
                    } else if balance.allows_move(side, counts[0], counts[1]) {
                        trees[si].max().copied()
                    } else {
                        None
                    };
                    if let Some((vec, st, id)) = candidate {
                        if best.is_none_or(|(bv, bst, bid, _)| (vec, st, id) > (bv, bst, bid)) {
                            best = Some((vec, st, id, side));
                        }
                    }
                }
                let Some((vec, st, id, side)) = best else { break };
                let u = NodeId::new(id as usize);
                trees[side.index()].remove(&(vec, st, id));
                locked[u.index()] = true;
                let immediate = cut.apply_move(graph, partition, u);
                side_weights.apply_move(side, graph.node_weight(u));
                prefix.push(
                    immediate,
                    balance.is_feasible(
                        [partition.count(Side::A), partition.count(Side::B)],
                        side_weights.as_array(),
                    ),
                );
                moves.push(u);

                // Recompute every free neighbor's vector.
                epoch = epoch.wrapping_add(1);
                if epoch == 0 {
                    mark.iter_mut().for_each(|m| *m = u32::MAX);
                    epoch = 1;
                }
                mark[u.index()] = epoch;
                for &net in graph.nets_of(u) {
                    for &x in graph.pins_of(net) {
                        if locked[x.index()] || mark[x.index()] == epoch {
                            continue;
                        }
                        mark[x.index()] = epoch;
                        let fresh = self.vector(graph, partition, &locked, x);
                        if fresh != vectors[x.index()] {
                            let xs = partition.side(x).index();
                            let removed = trees[xs].remove(&(
                                vectors[x.index()],
                                stamp[x.index()],
                                x.index() as u32,
                            ));
                            debug_assert!(removed);
                            next_stamp += 1;
                            stamp[x.index()] = next_stamp;
                            trees[xs].insert((fresh, next_stamp, x.index() as u32));
                            vectors[x.index()] = fresh;
                        }
                    }
                }
            }

            let best = prefix.best();
            let commit = best.map_or(0, |b| b.moves);
            for i in (commit..moves.len()).rev() {
                cut.apply_move(graph, partition, moves[i]);
            }
            if best.map_or(0.0, |b| b.gain) <= 0.0 {
                break;
            }
        }
        ImproveStats {
            passes,
            cut_cost: cut.cut_cost(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::cut_cost;
    use prop_core::example::{figure1, paper_node};
    use prop_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn la3_vectors_match_figure_1a() {
        let fig = figure1();
        let la = La::new(3);
        let locked = vec![false; fig.graph.num_nodes()];
        let v1 = la.vector(&fig.graph, &fig.partition, &locked, paper_node(1));
        let v2 = la.vector(&fig.graph, &fig.partition, &locked, paper_node(2));
        let v3 = la.vector(&fig.graph, &fig.partition, &locked, paper_node(3));
        assert_eq!(&v1[..3], &[2, 0, 0], "node 1");
        assert_eq!(&v2[..3], &[2, 0, 1], "node 2");
        assert_eq!(&v3[..3], &[2, 0, 1], "node 3");
        // LA-3 cannot separate nodes 2 and 3 — the paper's point.
        assert_eq!(&v2[..3], &v3[..3]);
    }

    #[test]
    fn la1_level_equals_fm_gain() {
        let g = generate(&GeneratorConfig::new(40, 48, 160).with_seed(6)).unwrap();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        let part = Bipartition::random(40, &mut rng);
        let cut = CutState::new(&g, &part);
        let la = La::new(4);
        let locked = vec![false; 40];
        for v in g.nodes() {
            let vec = la.vector(&g, &part, &locked, v);
            let fm = cut.move_gain(&g, &part, v);
            assert_eq!(vec[0] as f64, fm, "node {v}");
        }
    }

    #[test]
    fn improves_and_stays_balanced() {
        let g = generate(&GeneratorConfig::new(80, 90, 300).with_seed(13)).unwrap();
        let balance = BalanceConstraint::bisection(80);
        for k in [2, 3] {
            let res = La::new(k).run_multi(&g, balance, 3, 5).unwrap();
            assert!(res.partition.is_balanced(balance), "LA-{k}");
            assert_eq!(res.cut_cost, cut_cost(&g, &res.partition));
        }
    }

    #[test]
    fn names_follow_depth() {
        assert_eq!(La::new(2).name(), "LA-2");
        assert_eq!(La::new(3).name(), "LA-3");
        assert_eq!(La::new(2).lookahead(), 2);
    }

    #[test]
    #[should_panic(expected = "outside 1..=4")]
    fn depth_zero_rejected() {
        let _ = La::new(0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=4")]
    fn depth_five_rejected() {
        let _ = La::new(5);
    }
}
