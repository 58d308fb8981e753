//! WINDOW-style vertex-ordering clustering with an FM final phase
//! [Alpert & Kahng 1994].

use crate::ordering::{best_prefix_split, max_adjacency_order};
use crate::GlobalPartitioner;
use prop_core::{BalanceConstraint, Bipartition, CutState, PartitionError, Partitioner, RunResult};
use prop_fm::FmBucket;
use prop_netlist::{Hypergraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A WINDOW-style partitioner: max-adjacency vertex orderings split at
/// their best balance-feasible window, each polished by FM — the paper's
/// description of WINDOW as "clustering followed by 20 runs of FM".
///
/// The original derives several vertex orderings and evaluates *windows*
/// (contiguous ranges) of each as clusters; with 2-way balanced
/// partitioning the admissible windows of an ordering reduce to its
/// feasible prefixes, which is what [`best_prefix_split`] scans. Multiple
/// seed vertices (the `runs` knob, default 20 like the paper's FM20 final
/// phase) diversify the orderings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WindowStyle {
    /// Number of (ordering, FM polish) runs; the best result is kept.
    pub runs: usize,
    /// Base seed for the ordering start vertices.
    pub seed: u64,
}

impl Default for WindowStyle {
    fn default() -> Self {
        WindowStyle { runs: 20, seed: 0 }
    }
}

impl GlobalPartitioner for WindowStyle {
    fn name(&self) -> &str {
        "WINDOW"
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
        if self.runs == 0 {
            return Err(PartitionError::InvalidConfig {
                message: "WINDOW needs at least one run".into(),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x77aa_55cc_11dd_22ee);
        let fm = FmBucket::default();
        let mut best: Option<(Bipartition, f64)> = None;
        let mut run_cuts = Vec::with_capacity(self.runs);
        let mut total_passes = 0;
        for _ in 0..self.runs {
            let start = NodeId::new(rng.gen_range(0..n));
            let order = max_adjacency_order(graph, start);
            let (mut partition, _) = best_prefix_split(graph, balance, &order);
            let stats = fm.improve(graph, &mut partition, balance);
            total_passes += stats.passes;
            let cost = CutState::new(graph, &partition).cut_cost();
            run_cuts.push(cost);
            if best.as_ref().is_none_or(|&(_, b)| cost < b) {
                best = Some((partition, cost));
            }
        }
        let (partition, cut_cost) = best.expect("runs >= 1");
        Ok(RunResult {
            partition,
            cut_cost,
            total_passes,
            run_cuts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::cut_cost;
    use prop_netlist::generate::{generate, GeneratorConfig};

    #[test]
    fn produces_balanced_partitions() {
        let g = generate(&GeneratorConfig::new(90, 100, 330).with_seed(2)).unwrap();
        let balance = BalanceConstraint::bisection(90);
        let w = WindowStyle {
            runs: 5,
            ..WindowStyle::default()
        };
        let res = w.partition(&g, balance).unwrap();
        assert!(res.partition.is_balanced(balance));
        assert_eq!(res.cut_cost, cut_cost(&g, &res.partition));
        assert_eq!(res.run_cuts.len(), 5);
    }

    #[test]
    fn more_runs_never_hurt() {
        let g = generate(&GeneratorConfig::new(70, 80, 260).with_seed(6)).unwrap();
        let balance = BalanceConstraint::bisection(70);
        let few = WindowStyle { runs: 2, seed: 1 }.partition(&g, balance).unwrap();
        let many = WindowStyle { runs: 8, seed: 1 }.partition(&g, balance).unwrap();
        // Same seed: the first two runs coincide, so the 8-run result can
        // only tie or improve.
        assert!(many.cut_cost <= few.cut_cost + 1e-9);
    }

    #[test]
    fn zero_runs_rejected() {
        let g = generate(&GeneratorConfig::new(20, 24, 80).with_seed(1)).unwrap();
        let balance = BalanceConstraint::bisection(20);
        let w = WindowStyle { runs: 0, seed: 0 };
        assert!(matches!(
            w.partition(&g, balance),
            Err(PartitionError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn deterministic_in_seed() {
        let g = generate(&GeneratorConfig::new(50, 60, 200).with_seed(3)).unwrap();
        let balance = BalanceConstraint::bisection(50);
        let w = WindowStyle { runs: 3, seed: 9 };
        let a = w.partition(&g, balance).unwrap();
        let b = w.partition(&g, balance).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn name_is_window() {
        assert_eq!(WindowStyle::default().name(), "WINDOW");
    }
}
