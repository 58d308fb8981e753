//! The Kernighan–Lin pair-swap heuristic on the clique-expanded graph.

use prop_core::{BalanceConstraint, Bipartition, CutState, ImproveStats, Partitioner, Side};
use prop_netlist::{Hypergraph, NodeId};
use std::collections::HashMap;

/// The classic Kernighan–Lin bisection heuristic [Kernighan & Lin 1970],
/// the ancestor of FM referenced in §1 of the paper.
///
/// KL operates on ordinary graphs, so the hypergraph is clique-expanded:
/// a net of size `q` and weight `w` becomes a `q`-clique of edges with
/// weight `w / (q − 1)` (the standard net model; nets larger than
/// [`max_clique_net`] are skipped to bound the expansion). Pass acceptance
/// maximises the graph-model gain; the reported cut is the true hypergraph
/// cut.
///
/// Pair swaps preserve side sizes exactly, so KL never changes the balance
/// of its input partition.
///
/// ```
/// use prop_core::{BalanceConstraint, Partitioner};
/// use prop_fm::Kl;
/// use prop_netlist::generate::{generate, GeneratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = generate(&GeneratorConfig::new(40, 48, 160).with_seed(8))?;
/// let balance = BalanceConstraint::bisection(graph.num_nodes());
/// let result = Kl::default().run_seeded(&graph, balance, 0)?;
/// assert!(result.partition.is_balanced(balance));
/// # Ok(())
/// # }
/// ```
///
/// [`max_clique_net`]: Kl::max_clique_net
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Kl {
    /// Safety bound on passes per run.
    pub max_passes: usize,
    /// Nets larger than this are omitted from the clique expansion
    /// (their O(q²) edge count would dominate; large nets carry little
    /// placement signal anyway).
    pub max_clique_net: usize,
}

impl Default for Kl {
    fn default() -> Self {
        Kl {
            max_passes: 16,
            max_clique_net: 64,
        }
    }
}

struct CliqueGraph {
    /// Adjacency lists: `adj[v]` = (neighbor, accumulated edge weight).
    adj: Vec<Vec<(u32, f64)>>,
    /// Pair-weight lookup with `(min, max)` keys.
    pair: HashMap<(u32, u32), f64>,
}

impl CliqueGraph {
    fn build(graph: &Hypergraph, max_clique_net: usize) -> Self {
        let mut pair: HashMap<(u32, u32), f64> = HashMap::new();
        for net in graph.nets() {
            let pins = graph.pins_of(net);
            let q = pins.len();
            if !(2..=max_clique_net).contains(&q) {
                continue;
            }
            let w = graph.net_weight(net) / (q as f64 - 1.0);
            for i in 0..q {
                for j in (i + 1)..q {
                    let (a, b) = (pins[i].index() as u32, pins[j].index() as u32);
                    let key = (a.min(b), a.max(b));
                    *pair.entry(key).or_insert(0.0) += w;
                }
            }
        }
        // Deterministic adjacency: hash-map order varies per process, and
        // float summation order must not.
        let mut edges: Vec<((u32, u32), f64)> = pair.iter().map(|(&k, &w)| (k, w)).collect();
        edges.sort_unstable_by_key(|&(k, _)| k);
        let mut adj = vec![Vec::new(); graph.num_nodes()];
        for ((a, b), w) in edges {
            adj[a as usize].push((b, w));
            adj[b as usize].push((a, w));
        }
        CliqueGraph { adj, pair }
    }

    fn weight(&self, a: u32, b: u32) -> f64 {
        self.pair
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(0.0)
    }
}

impl Partitioner for Kl {
    fn name(&self) -> &str {
        "KL"
    }

    /// Pair swaps preserve side counts, not side weights, so KL keeps
    /// only the unit-size criterion: on netlists with node sizes the
    /// result may leave the weighted window.
    /// `prop_engines::EngineName::accepts` refuses such netlists before a
    /// job runs.
    fn improve(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        _balance: BalanceConstraint,
    ) -> ImproveStats {
        let n = graph.num_nodes();
        let clique = CliqueGraph::build(graph, self.max_clique_net);
        let mut passes = 0;
        while passes < self.max_passes {
            // Cooperative cancellation at the pass boundary.
            if prop_core::cancel::requested() {
                break;
            }
            passes += 1;
            if self.run_pass(&clique, partition, n) <= 0.0 {
                break;
            }
        }
        ImproveStats {
            passes,
            cut_cost: CutState::new(graph, partition).cut_cost(),
        }
    }
}

impl Kl {
    /// One KL pass: greedy best-pair virtual swaps with D-value updates,
    /// then commit the best prefix. Returns the committed graph-model
    /// gain.
    fn run_pass(&self, clique: &CliqueGraph, partition: &mut Bipartition, n: usize) -> f64 {
        // D[v] = external − internal edge weight.
        let mut d = vec![0.0f64; n];
        #[allow(clippy::needless_range_loop)] // d and adj are indexed in lockstep
        for v in 0..n {
            let sv = partition.side(NodeId::new(v));
            for &(u, w) in &clique.adj[v] {
                if partition.side(NodeId::new(u as usize)) == sv {
                    d[v] -= w;
                } else {
                    d[v] += w;
                }
            }
        }
        let mut locked = vec![false; n];
        let mut swaps: Vec<(u32, u32, f64)> = Vec::new();
        let steps = partition.count(Side::A).min(partition.count(Side::B));
        for _ in 0..steps {
            // Free nodes of each side sorted by D descending.
            let mut free: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
            for v in 0..n {
                if !locked[v] {
                    free[partition.side(NodeId::new(v)).index()].push(v as u32);
                }
            }
            for side in free.iter_mut() {
                side.sort_by(|&x, &y| {
                    d[y as usize]
                        .partial_cmp(&d[x as usize])
                        .expect("finite D values")
                });
            }
            if free[0].is_empty() || free[1].is_empty() {
                break;
            }
            // Early-terminating best-pair scan (classic KL optimisation).
            let mut best: Option<(u32, u32, f64)> = None;
            let top_b = d[free[1][0] as usize];
            for &a in &free[0] {
                if let Some((_, _, bg)) = best {
                    if d[a as usize] + top_b <= bg {
                        break;
                    }
                }
                for &b in &free[1] {
                    if let Some((_, _, bg)) = best {
                        if d[a as usize] + d[b as usize] <= bg {
                            break;
                        }
                    }
                    let g = d[a as usize] + d[b as usize] - 2.0 * clique.weight(a, b);
                    if best.is_none_or(|(_, _, bg)| g > bg) {
                        best = Some((a, b, g));
                    }
                }
            }
            let Some((a, b, g)) = best else { break };
            locked[a as usize] = true;
            locked[b as usize] = true;
            // Update D of free neighbors as if a and b swapped sides.
            let side_a = partition.side(NodeId::new(a as usize));
            for &(x, w) in &clique.adj[a as usize] {
                if locked[x as usize] {
                    continue;
                }
                let same_as_a = partition.side(NodeId::new(x as usize)) == side_a;
                d[x as usize] += if same_as_a { 2.0 * w } else { -2.0 * w };
            }
            let side_b = partition.side(NodeId::new(b as usize));
            for &(y, w) in &clique.adj[b as usize] {
                if locked[y as usize] {
                    continue;
                }
                let same_as_b = partition.side(NodeId::new(y as usize)) == side_b;
                d[y as usize] += if same_as_b { 2.0 * w } else { -2.0 * w };
            }
            swaps.push((a, b, g));
        }

        // Best prefix of swap gains.
        let mut sum = 0.0;
        let mut best_sum = 0.0;
        let mut best_k = 0;
        for (k, &(_, _, g)) in swaps.iter().enumerate() {
            sum += g;
            if sum > best_sum {
                best_sum = sum;
                best_k = k + 1;
            }
        }
        for &(a, b, _) in &swaps[..best_k] {
            partition.flip(NodeId::new(a as usize));
            partition.flip(NodeId::new(b as usize));
        }
        best_sum
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
        b.add_net(1.0, [0, 4]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn finds_the_planted_bisection() {
        let g = two_cliques();
        let balance = BalanceConstraint::bisection(8);
        let res = Kl::default().run_multi(&g, balance, 6, 0).unwrap();
        assert_eq!(res.cut_cost, 1.0);
        assert!(res.partition.is_balanced(balance));
    }

    #[test]
    fn swaps_preserve_side_sizes_exactly() {
        let g = generate(&GeneratorConfig::new(50, 60, 200).with_seed(19)).unwrap();
        let balance = BalanceConstraint::bisection(50);
        let mut rng = StdRng::seed_from_u64(2);
        let mut part = Bipartition::random(50, &mut rng);
        let (a0, b0) = (part.count(Side::A), part.count(Side::B));
        Kl::default().improve(&g, &mut part, balance);
        assert_eq!(part.count(Side::A), a0);
        assert_eq!(part.count(Side::B), b0);
    }

    #[test]
    fn clique_expansion_weights() {
        let mut b = HypergraphBuilder::new(3);
        b.add_net(2.0, [0, 1, 2]).unwrap();
        b.add_net(1.0, [0, 1]).unwrap();
        let g = b.build().unwrap();
        let clique = CliqueGraph::build(&g, 64);
        // 3-pin net of weight 2 → edges of weight 1; the 2-pin net adds 1
        // more to (0,1).
        assert_eq!(clique.weight(0, 1), 2.0);
        assert_eq!(clique.weight(0, 2), 1.0);
        assert_eq!(clique.weight(1, 2), 1.0);
        assert_eq!(clique.weight(2, 0), 1.0); // symmetric lookup
    }

    #[test]
    fn oversized_nets_are_skipped() {
        let mut b = HypergraphBuilder::new(5);
        b.add_net(1.0, [0, 1, 2, 3, 4]).unwrap();
        let g = b.build().unwrap();
        let clique = CliqueGraph::build(&g, 3);
        assert_eq!(clique.weight(0, 1), 0.0);
    }

    #[test]
    fn improves_hypergraph_cut_on_clustered_input() {
        let g = generate(&GeneratorConfig::new(60, 70, 230).with_seed(23)).unwrap();
        let balance = BalanceConstraint::bisection(60);
        let mut rng = StdRng::seed_from_u64(8);
        let mut part = Bipartition::random(60, &mut rng);
        let before = cut_cost(&g, &part);
        let stats = Kl::default().improve(&g, &mut part, balance);
        assert!(stats.cut_cost <= before, "{} > {before}", stats.cut_cost);
        assert_eq!(stats.cut_cost, cut_cost(&g, &part));
    }
}
