//! PARABOLI-style quadratic-placement partitioning [Riess, Doll &
//! Johannes 1994].

use crate::laplacian::clique_laplacian;
use crate::ordering::{best_prefix_split, order_by_key};
use crate::GlobalPartitioner;
use prop_core::{BalanceConstraint, CutState, PartitionError, Partitioner, RunResult};
use prop_fm::FmTree;
use prop_linalg::{conjugate_gradient, CsrMatrix};
use prop_netlist::{Hypergraph, NodeId};

/// A PARABOLI-style partitioner: analytical (quadratic) placement on a
/// line, ordering split, and iterative local improvement.
///
/// PARABOLI solves quadratic placements with successively refined region
/// constraints. This reimplementation keeps the pipeline's core:
///
/// 1. pick two far-apart anchor nodes by a double BFS sweep,
/// 2. solve the anchored quadratic placement
///    `(L + μ·diag(anchors)) x = μ·pos` by conjugate gradient — the
///    1-D placement that minimises quadratic wirelength with the anchors
///    pinned near 0 and 1,
/// 3. split the placement ordering at its best balance-feasible prefix,
/// 4. polish with an FM (tree) improvement phase, as PARABOLI interleaves
///    analytical and local optimisation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ParaboliStyle {
    /// Anchor penalty weight μ.
    pub anchor_weight: f64,
    /// CG iteration cap.
    pub cg_iterations: usize,
    /// CG relative tolerance.
    pub cg_tolerance: f64,
    /// Nets larger than this are skipped in the clique expansion.
    pub max_clique_net: usize,
    /// Whether to run the FM polish phase.
    pub fm_polish: bool,
}

impl Default for ParaboliStyle {
    fn default() -> Self {
        ParaboliStyle {
            anchor_weight: 100.0,
            cg_iterations: 300,
            cg_tolerance: 1e-8,
            max_clique_net: 64,
            fm_polish: true,
        }
    }
}

impl ParaboliStyle {
    /// The 1-D anchored quadratic placement of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::EmptyGraph`] for a node-less graph.
    pub fn placement(&self, graph: &Hypergraph) -> Result<Vec<f64>, PartitionError> {
        let n = graph.num_nodes();
        if n == 0 {
            return Err(PartitionError::EmptyGraph);
        }
        let (a, b) = far_apart_anchors(graph);
        let laplacian = clique_laplacian(graph, self.max_clique_net);
        // (L + μ e_a e_aᵀ + μ e_b e_bᵀ) x = μ (0·e_a + 1·e_b).
        let mut triplets = Vec::with_capacity(2);
        triplets.push((a.index(), a.index(), self.anchor_weight));
        triplets.push((b.index(), b.index(), self.anchor_weight));
        // Small ridge keeps the system positive definite even for isolated
        // nodes (which the Laplacian leaves with a zero row).
        for v in 0..n {
            triplets.push((v, v, 1e-9));
        }
        let anchored = add(&laplacian, &CsrMatrix::from_triplets(n, n, &triplets));
        let mut rhs = vec![0.0; n];
        rhs[b.index()] = self.anchor_weight;
        let out = conjugate_gradient(&anchored, &rhs, self.cg_iterations, self.cg_tolerance);
        Ok(out.x)
    }
}

/// Element-wise sum of two equal-shape CSR matrices.
fn add(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    let mut triplets = Vec::with_capacity(a.nnz() + b.nnz());
    for m in [a, b] {
        for r in 0..m.rows() {
            let (cols, vals) = m.row(r);
            for (c, v) in cols.iter().zip(vals) {
                triplets.push((r, *c as usize, *v));
            }
        }
    }
    CsrMatrix::from_triplets(a.rows(), a.cols(), &triplets)
}

/// Double BFS sweep over the hypergraph's connectivity: from node 0 find
/// the farthest node `a`, then from `a` the farthest node `b`. A standard
/// cheap approximation of a graph diameter pair.
fn far_apart_anchors(graph: &Hypergraph) -> (NodeId, NodeId) {
    let a = bfs_farthest(graph, NodeId::new(0));
    let b = bfs_farthest(graph, a);
    if a == b {
        // Fully disconnected or single-node graph: any distinct pair.
        let other = if graph.num_nodes() > 1 { 1 } else { 0 };
        (a, NodeId::new(other))
    } else {
        (a, b)
    }
}

fn bfs_farthest(graph: &Hypergraph, start: NodeId) -> NodeId {
    let n = graph.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[start.index()] = 0;
    queue.push_back(start);
    let mut farthest = start;
    while let Some(v) = queue.pop_front() {
        for &net in graph.nets_of(v) {
            for &x in graph.pins_of(net) {
                if dist[x.index()] == usize::MAX {
                    dist[x.index()] = dist[v.index()] + 1;
                    if dist[x.index()] > dist[farthest.index()] {
                        farthest = x;
                    }
                    queue.push_back(x);
                }
            }
        }
    }
    farthest
}

impl GlobalPartitioner for ParaboliStyle {
    fn name(&self) -> &str {
        "PARABOLI"
    }

    fn partition(
        &self,
        graph: &Hypergraph,
        balance: BalanceConstraint,
    ) -> Result<RunResult, PartitionError> {
        let placement = self.placement(graph)?;
        let order = order_by_key(graph, &placement);
        let (mut partition, mut cut_cost) = best_prefix_split(graph, balance, &order);
        let mut total_passes = 1;
        if self.fm_polish {
            let stats = FmTree::default().improve(graph, &mut partition, balance);
            cut_cost = CutState::new(graph, &partition).cut_cost();
            total_passes += stats.passes;
        }
        Ok(RunResult {
            partition,
            cut_cost,
            total_passes,
            run_cuts: vec![cut_cost],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::cut_cost;
    use prop_netlist::generate::{generate, GeneratorConfig};
    use prop_netlist::HypergraphBuilder;

    fn path(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_net(1.0, [i, i + 1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn placement_orders_a_path_monotonically() {
        let g = path(10);
        let x = ParaboliStyle::default().placement(&g).unwrap();
        // The anchors are the path's endpoints; the placement must be
        // monotone along the path (up to direction).
        let increasing = x.windows(2).all(|w| w[0] <= w[1] + 1e-9);
        let decreasing = x.windows(2).all(|w| w[0] >= w[1] - 1e-9);
        assert!(increasing || decreasing, "{x:?}");
    }

    #[test]
    fn partitions_a_path_at_one_edge() {
        let g = path(12);
        let balance = BalanceConstraint::bisection(12);
        let res = ParaboliStyle::default().partition(&g, balance).unwrap();
        assert_eq!(res.cut_cost, 1.0);
        assert!(res.partition.is_balanced(balance));
    }

    #[test]
    fn polish_never_hurts() {
        let g = generate(&GeneratorConfig::new(100, 110, 370).with_seed(20)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, 100).unwrap();
        let raw = ParaboliStyle {
            fm_polish: false,
            ..ParaboliStyle::default()
        };
        let unpolished = raw.partition(&g, balance).unwrap();
        let polished = ParaboliStyle::default().partition(&g, balance).unwrap();
        assert!(polished.cut_cost <= unpolished.cut_cost + 1e-9);
        assert_eq!(polished.cut_cost, cut_cost(&g, &polished.partition));
    }

    #[test]
    fn anchors_are_distinct_endpoints_on_a_path() {
        let g = path(7);
        let (a, b) = far_apart_anchors(&g);
        assert_ne!(a, b);
        let ends = [0usize, 6];
        assert!(ends.contains(&a.index()));
        assert!(ends.contains(&b.index()));
    }

    #[test]
    fn name_is_paraboli() {
        assert_eq!(ParaboliStyle::default().name(), "PARABOLI");
    }
}
