//! The PROP probabilistic-gain partitioner (§3 of the paper).
//!
//! Each pass proceeds in two phases:
//!
//! 1. **Refinement** (steps 3–4 of Fig. 2): node probabilities are seeded
//!    (uniformly at `p_init`, or from deterministic gains), then gains and
//!    probabilities are alternately recomputed for a fixed number of
//!    iterations — gains from per-net probability products (Eqns. 3–4),
//!    probabilities from gains through the clamped linear map (§3.2).
//!    The paper's profile runs two iterations; the calibrated one none.
//! 2. **Moves** (steps 5–8): the best-gain balance-feasible node moves and
//!    locks (its probability drops to 0), the affected nets' products are
//!    rebuilt, its neighbors' gains are recomputed, and under the paper's
//!    profile the top-k nodes of each side are additionally refreshed
//!    (§3.4; the calibrated profile refreshes neighbours only). The
//!    exact immediate cut gain of every move feeds a prefix tracker; the
//!    best feasible prefix is committed (steps 9–10), everything beyond
//!    it is rolled back.
//!
//! Nodes are ranked per side in an indexed max-heap keyed by
//! `(gain, recency, node)`. The paper's complexity analysis (§3.5)
//! assumes an AVL tree; the heap gives the same order at a smaller
//! per-move constant (DESIGN.md §10). Per-net hot state is packed into
//! [`NetHot`] records so the gain inner loop is one sequential read per
//! incident net.

mod config;
mod engine;

pub use config::{GainInit, PropConfig};
pub use engine::NetHot;

use crate::balance::BalanceConstraint;
use crate::cut::CutState;
use crate::partition::Bipartition;
use crate::partitioner::{ImproveStats, Partitioner};
use engine::Engine;
use prop_netlist::Hypergraph;

/// Per-pass diagnostics of a PROP run.
///
/// The paper's key behavioural claim is that probabilistic selection
/// rides through *valleys* — sequences of moves whose immediate gains are
/// negative — to reach larger payoffs. [`PassTrace::max_drawdown`]
/// measures exactly how deep each committed prefix dipped.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct PassTrace {
    /// Nodes tentatively moved in the pass.
    pub tentative_moves: usize,
    /// Length of the committed prefix.
    pub committed_moves: usize,
    /// Total cut improvement of the committed prefix.
    pub committed_gain: f64,
    /// The most negative running sum of immediate gains within the
    /// committed prefix (0 when the pass never went below its start).
    pub max_drawdown: f64,
}

/// The PROP partitioner.
///
/// ```
/// use prop_core::{BalanceConstraint, Partitioner, Prop, PropConfig};
/// use prop_netlist::generate::{generate, GeneratorConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = generate(&GeneratorConfig::new(80, 90, 300).with_seed(5))?;
/// let balance = BalanceConstraint::bisection(graph.num_nodes());
/// let result = Prop::new(PropConfig::default()).run_seeded(&graph, balance, 1)?;
/// assert!(result.partition.is_balanced(balance));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Prop {
    config: PropConfig,
}

impl Prop {
    /// Creates a PROP partitioner.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`PropConfig::validate`] first when the parameters are not
    /// statically known.
    pub fn new(config: PropConfig) -> Self {
        config
            .validate()
            .expect("invalid PROP configuration");
        Prop { config }
    }

    /// The configuration this partitioner runs with.
    pub fn config(&self) -> &PropConfig {
        &self.config
    }

    /// Like [`Partitioner::improve`], additionally returning one
    /// [`PassTrace`] per executed pass — the instrumentation behind the
    /// valley-crossing analysis (see the `valley_crossing` example).
    pub fn improve_traced(
        &self,
        graph: &Hypergraph,
        partition: &mut Bipartition,
        balance: BalanceConstraint,
    ) -> (ImproveStats, Vec<PassTrace>) {
        let mut cut = CutState::new(graph, partition);
        let mut engine = Engine::new(graph, &self.config, balance);
        let mut traces = Vec::new();
        while traces.len() < self.config.max_passes {
            // Cooperative cancellation: stop at the pass boundary, where
            // the partition is feasible (each pass commits its best
            // feasible prefix). No-op unless a tripped token is installed.
            if crate::cancel::requested() {
                break;
            }
            let (committed, trace) = engine.run_pass(partition, &mut cut);
            traces.push(trace);
            if committed <= 0.0 {
                break;
            }
        }
        (
            ImproveStats {
                passes: traces.len(),
                cut_cost: cut.cut_cost(),
            },
            traces,
        )
    }
}

impl Default for Prop {
    fn default() -> Self {
        Prop::new(PropConfig::default())
    }
}

impl Partitioner for Prop {
    fn name(&self) -> &str {
        "PROP"
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::cut_cost;
    use crate::partition::Side;
    use prop_netlist::generate::{generate, GeneratorConfig};
    use prop_netlist::HypergraphBuilder;

    #[test]
    fn improves_an_obviously_bad_partition() {
        // Two 4-cliques of 2-pin nets joined by a single bridge net; the
        // alternating initial partition cuts many nets, the optimum cuts 1.
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
        let mut part = Bipartition::from_sides(vec![
            Side::A,
            Side::B,
            Side::A,
            Side::B,
            Side::A,
            Side::B,
            Side::A,
            Side::B,
        ]);
        let before = cut_cost(&g, &part);
        assert!(before > 1.0);
        let stats = Prop::default().improve(&g, &mut part, balance);
        let after = cut_cost(&g, &part);
        assert_eq!(stats.cut_cost, after);
        assert_eq!(after, 1.0, "optimal bridge cut should be found");
        assert!(part.is_balanced(balance));
    }

    #[test]
    fn both_init_methods_work() {
        let g = generate(&GeneratorConfig::new(120, 130, 440).with_seed(8)).unwrap();
        let balance = BalanceConstraint::bisection(g.num_nodes());
        for init in [GainInit::Uniform, GainInit::Deterministic] {
            let cfg = PropConfig {
                init,
                ..PropConfig::default()
            };
            let res = Prop::new(cfg).run_seeded(&g, balance, 3).unwrap();
            assert!(res.partition.is_balanced(balance), "{init:?}");
            assert_eq!(res.cut_cost, cut_cost(&g, &res.partition));
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let g = generate(&GeneratorConfig::new(90, 100, 330).with_seed(4)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
        let p = Prop::default();
        let a = p.run_multi(&g, balance, 3, 7).unwrap();
        let b = p.run_multi(&g, balance, 3, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn never_worsens_a_feasible_partition() {
        let g = generate(&GeneratorConfig::new(64, 70, 240).with_seed(2)).unwrap();
        let balance = BalanceConstraint::bisection(64);
        for seed in 0..5u64 {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            let mut part = Bipartition::random(64, &mut rng);
            let before = cut_cost(&g, &part);
            Prop::default().improve(&g, &mut part, balance);
            let after = cut_cost(&g, &part);
            assert!(after <= before, "seed {seed}: {after} > {before}");
            assert!(part.is_balanced(balance));
        }
    }

    #[test]
    #[should_panic(expected = "invalid PROP configuration")]
    fn invalid_config_panics() {
        let _ = Prop::new(PropConfig {
            p_min: 0.0,
            ..PropConfig::default()
        });
    }

    #[test]
    fn name_and_config_access() {
        let p = Prop::default();
        assert_eq!(p.name(), "PROP");
        assert_eq!(p.config().top_k_refresh, 5);
    }
}
