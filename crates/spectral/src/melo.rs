//! MELO-style multiple-eigenvector linear ordering [Alpert & Yao 1995].

use crate::laplacian::clique_laplacian;
use crate::ordering::{best_prefix_split, order_by_key};
use crate::GlobalPartitioner;
use prop_core::{BalanceConstraint, Bipartition, PartitionError, RunResult};
use prop_linalg::{lanczos_smallest, LanczosOptions};
use prop_netlist::Hypergraph;

/// A MELO-style partitioner: "the more eigenvectors the better".
///
/// The original MELO constructs a single linear ordering from *multiple*
/// Laplacian eigenvectors and dynamic-programming splits. This
/// reimplementation keeps the defining idea — extract several non-trivial
/// eigenvectors and choose the best split any of them induces — using the
/// following candidate orderings:
///
/// * the ordering of each of the first `num_vectors` non-trivial
///   eigenvectors individually, and
/// * the angular ordering `atan2(v₃, v₂)` combining the first two
///   (a standard 2-D spectral embedding heuristic),
///
/// each split at its best balance-feasible prefix.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MeloStyle {
    /// How many non-trivial eigenvectors to extract (≥ 1).
    pub num_vectors: usize,
    /// Lanczos settings.
    pub lanczos: LanczosOptions,
    /// Nets larger than this are skipped in the clique expansion.
    pub max_clique_net: usize,
}

impl Default for MeloStyle {
    fn default() -> Self {
        MeloStyle {
            num_vectors: 3,
            lanczos: LanczosOptions::default(),
            max_clique_net: 64,
        }
    }
}

impl GlobalPartitioner for MeloStyle {
    fn name(&self) -> &str {
        "MELO"
    }

    fn partition(
        &self,
        graph: &Hypergraph,
        balance: BalanceConstraint,
    ) -> Result<RunResult, PartitionError> {
        let n = graph.num_nodes();
        if n == 0 {
            return Err(PartitionError::EmptyGraph);
        }
        let want = self.num_vectors.max(1);
        let laplacian = clique_laplacian(graph, self.max_clique_net);
        let mut opts = self.lanczos;
        opts.num_eigenpairs = (want + 1).min(n);
        let (_, vectors) = lanczos_smallest(&laplacian, opts);
        // Skip the trivial (constant) eigenvector.
        let nontrivial: Vec<&Vec<f64>> = vectors.iter().skip(1).collect();

        let mut best: Option<(Bipartition, f64)> = None;
        let mut run_cuts = Vec::new();
        let mut consider = |graph: &Hypergraph, keys: &[f64]| {
            let order = order_by_key(graph, keys);
            let (part, cost) = best_prefix_split(graph, balance, &order);
            run_cuts.push(cost);
            if best.as_ref().is_none_or(|&(_, b)| cost < b) {
                best = Some((part, cost));
            }
        };
        for v in &nontrivial {
            consider(graph, v);
        }
        if nontrivial.len() >= 2 {
            let angular: Vec<f64> = (0..n)
                .map(|i| nontrivial[1][i].atan2(nontrivial[0][i]))
                .collect();
            consider(graph, &angular);
        }
        if nontrivial.is_empty() {
            // Degenerate 1-node graph: fall back to the index ordering.
            let keys: Vec<f64> = (0..n).map(|i| i as f64).collect();
            consider(graph, &keys);
        }
        let (partition, cut_cost) = best.expect("at least one candidate ordering");
        Ok(RunResult {
            partition,
            cut_cost,
            total_passes: 1,
            run_cuts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Eig1;
    use prop_core::cut_cost;
    use prop_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn never_worse_than_eig1_on_the_same_spectrum() {
        // MELO's candidate set includes the Fiedler ordering, so with the
        // same Lanczos accuracy its cut can only tie or beat EIG1's.
        let g = generate(&GeneratorConfig::new(128, 140, 470).with_seed(3)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, 128).unwrap();
        let melo = MeloStyle::default().partition(&g, balance).unwrap();
        let eig = Eig1::default().partition(&g, balance).unwrap();
        assert!(
            melo.cut_cost <= eig.cut_cost + 1e-9,
            "MELO {} vs EIG1 {}",
            melo.cut_cost,
            eig.cut_cost
        );
        assert_eq!(melo.cut_cost, cut_cost(&g, &melo.partition));
        assert!(melo.partition.is_balanced(balance));
    }

    #[test]
    fn reports_one_cut_per_candidate_ordering() {
        let g = generate(&GeneratorConfig::new(60, 70, 230).with_seed(9)).unwrap();
        let balance = BalanceConstraint::bisection(60);
        let res = MeloStyle::default().partition(&g, balance).unwrap();
        // 3 eigenvector orderings + 1 angular.
        assert_eq!(res.run_cuts.len(), 4);
        let min = res.run_cuts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(res.cut_cost, min);
    }

    #[test]
    fn single_vector_configuration() {
        let g = generate(&GeneratorConfig::new(40, 48, 160).with_seed(14)).unwrap();
        let balance = BalanceConstraint::bisection(40);
        let m = MeloStyle {
            num_vectors: 1,
            ..MeloStyle::default()
        };
        let res = m.partition(&g, balance).unwrap();
        assert_eq!(res.run_cuts.len(), 1);
    }

    #[test]
    fn name_is_melo() {
        assert_eq!(MeloStyle::default().name(), "MELO");
    }
}
