//! Heavy-edge matching coarsening: a seeded, sequential greedy matching
//! ([`coarsen`]) feeding a contraction that merges identical nets.

use prop_core::{Bipartition, Side};
use prop_netlist::{Hypergraph, HypergraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UNMATCHED: u32 = u32::MAX;

/// One coarsening level: the coarsened circuit and the node mapping from
/// the fine circuit it was built from. The fine circuit itself is not
/// stored — the V-cycle driver owns the chain of graphs, so a level costs
/// one mapping vector plus the coarse circuit instead of a full clone of
/// its parent.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The coarsened circuit. Supernode weights are the summed weights of
    /// their constituents; nets internal to a supernode are dropped and
    /// identical coarse nets are merged with summed cost, which makes
    /// coarsening *cut-exact* (see [`CoarseLevel::project`]).
    pub coarse: Hypergraph,
    /// `map[fine_node] = coarse_node`.
    map: Vec<u32>,
}

impl CoarseLevel {
    /// Number of nodes of the fine circuit this level coarsened from.
    pub fn fine_nodes(&self) -> usize {
        self.map.len()
    }

    /// The coarse image of a fine node.
    pub fn coarse_of(&self, fine: NodeId) -> NodeId {
        NodeId::new(self.map[fine.index()] as usize)
    }

    /// Projects a partition of the coarse circuit onto the fine circuit:
    /// every fine node takes its supernode's side. The projected partition
    /// has **exactly** the same cut cost, because every dropped net was
    /// internal to one supernode (hence internal to one side) and merged
    /// nets are cut simultaneously.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not match the coarse circuit.
    pub fn project(&self, coarse_partition: &Bipartition) -> Bipartition {
        assert_eq!(
            coarse_partition.len(),
            self.coarse.num_nodes(),
            "partition does not match the coarse circuit"
        );
        let sides: Vec<Side> = self
            .map
            .iter()
            .map(|&c| coarse_partition.side(NodeId::new(c as usize)))
            .collect();
        Bipartition::from_sides(sides)
    }

    /// Folds `next` — the level coarsened from this level's coarse
    /// circuit — into this one: the map is composed in place
    /// (`map[v] = next.map[map[v]]`) and this level's coarse circuit is
    /// replaced by `next`'s and dropped. Projecting through the folded
    /// level equals projecting through `next` and then through this
    /// level, so the cut-exactness of both carries over.
    ///
    /// # Panics
    ///
    /// Panics if `next` was not coarsened from this level's circuit.
    pub(crate) fn fold(&mut self, next: CoarseLevel) {
        assert_eq!(
            next.fine_nodes(),
            self.coarse.num_nodes(),
            "next level was not coarsened from this one"
        );
        for c in &mut self.map {
            *c = next.map[*c as usize];
        }
        self.coarse = next.coarse;
    }
}

/// The buffers of one coarsening call, sized by the circuit being
/// coarsened. Each call builds its own and drops it on return, so the
/// V-cycle never keeps buffers sized by the finest circuit resident while
/// it coarsens (and later refines) the smaller levels.
#[derive(Default, Debug)]
struct CoarsenScratch {
    order: Vec<u32>,
    mate: Vec<u32>,
    score: Vec<f64>,
    mark: Vec<u32>,
    /// Concatenated mapped-and-deduped pin sets of the surviving nets.
    pin_buf: Vec<u32>,
    /// `(offset into pin_buf, pin count, summed weight)` per surviving net.
    net_recs: Vec<(u32, u32, f64)>,
    sort_idx: Vec<u32>,
}

/// Coarsens `fine` by one level of heavy-edge matching: each node is
/// matched with its most strongly connected unmatched neighbor
/// (connectivity = Σ `w/(q−1)` over shared nets of size ≤ `max_match_net`),
/// visiting nodes in a seeded random order. Unmatchable nodes survive as
/// singleton supernodes.
pub fn coarsen(fine: &Hypergraph, max_match_net: usize, seed: u64) -> CoarseLevel {
    let scratch = &mut CoarsenScratch::default();
    let n = fine.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1357_9bdf_2468_ace0);
    let order = &mut scratch.order;
    order.extend(0..n as u32);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }

    let mate = &mut scratch.mate;
    mate.resize(n, UNMATCHED);
    // Scratch accumulation of connectivity scores, epoch-marked.
    scratch.score.resize(n, 0.0);
    scratch.mark.resize(n, u32::MAX);
    let score = &mut scratch.score;
    let mark = &mut scratch.mark;
    for (epoch, &u) in order.iter().enumerate() {
        let u = u as usize;
        if mate[u] != UNMATCHED {
            continue;
        }
        let epoch = epoch as u32;
        let u_id = NodeId::new(u);
        let mut best: Option<(f64, usize)> = None;
        for &net in fine.nets_of(u_id) {
            let q = fine.net_size(net);
            if !(2..=max_match_net).contains(&q) {
                continue;
            }
            let w = fine.net_weight(net) / (q as f64 - 1.0);
            for &x in fine.pins_of(net) {
                let xi = x.index();
                if xi == u || mate[xi] != UNMATCHED {
                    continue;
                }
                if mark[xi] != epoch {
                    mark[xi] = epoch;
                    score[xi] = 0.0;
                }
                score[xi] += w;
                let candidate = (score[xi], xi);
                let better = match best {
                    None => true,
                    Some((bs, bx)) => {
                        candidate.0 > bs
                            || (candidate.0 == bs && {
                                // Tie-break: lighter combined supernode,
                                // then smaller index — deterministic and
                                // weight-balancing.
                                let cw = fine.node_weight(x);
                                let bw = fine.node_weight(NodeId::new(bx));
                                cw < bw || (cw == bw && xi < bx)
                            })
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
        if let Some((_, v)) = best {
            mate[u] = v as u32;
            mate[v] = u as u32;
        }
    }

    let (map, coarse_weight) = assign_coarse_ids(fine, &scratch.mate);
    fill_net_records(fine, &map, scratch);
    let coarse = build_from_records(coarse_weight, scratch);
    CoarseLevel { coarse, map }
}

/// Assigns coarse ids from a pairing: matched pairs share one id,
/// singletons keep one; weights sum. Returns `(map, coarse_weight)`.
fn assign_coarse_ids(fine: &Hypergraph, mate: &[u32]) -> (Vec<u32>, Vec<f64>) {
    let n = fine.num_nodes();
    let mut map = vec![UNMATCHED; n];
    let mut coarse_weight: Vec<f64> = Vec::new();
    for v in 0..n {
        if map[v] != UNMATCHED {
            continue;
        }
        let id = coarse_weight.len() as u32;
        map[v] = id;
        let mut w = fine.node_weight(NodeId::new(v));
        if mate[v] != UNMATCHED {
            let m = mate[v] as usize;
            map[m] = id;
            w += fine.node_weight(NodeId::new(m));
        }
        coarse_weight.push(w);
    }
    (map, coarse_weight)
}

/// Coarse nets: map every pin set into coarse ids, sorted and deduped,
/// and drop nets that collapse inside one supernode. The merge of
/// identical pin sets happens later in [`build_from_records`]; here the
/// records are built by one sequential sweep into the flat scratch
/// buffers — no per-net allocation, no hash map.
fn fill_net_records(fine: &Hypergraph, map: &[u32], scratch: &mut CoarsenScratch) {
    let pin_buf = &mut scratch.pin_buf;
    for net in fine.nets() {
        let start = pin_buf.len();
        pin_buf.extend(fine.pins_of(net).iter().map(|&v| map[v.index()]));
        pin_buf[start..].sort_unstable();
        let mut len = 0;
        for i in start..pin_buf.len() {
            if len == 0 || pin_buf[start + len - 1] != pin_buf[i] {
                pin_buf[start + len] = pin_buf[i];
                len += 1;
            }
        }
        pin_buf.truncate(start + len);
        if len < 2 {
            pin_buf.truncate(start);
            continue;
        }
        scratch
            .net_recs
            .push((start as u32, len as u32, fine.net_weight(net)));
    }
}

/// Merges identical pin sets (summed cost) and builds the coarse circuit
/// from the filled scratch records. The lexicographic sort makes
/// identical pin sets adjacent; the order is deterministic because the
/// record array itself is.
fn build_from_records(coarse_weight: Vec<f64>, scratch: &mut CoarsenScratch) -> Hypergraph {
    let coarse_n = coarse_weight.len();
    let pin_buf = &scratch.pin_buf;
    let net_recs = &scratch.net_recs;
    let rec_pins = |&(start, len, _): &(u32, u32, f64)| -> &[u32] {
        &pin_buf[start as usize..(start + len) as usize]
    };
    let sort_idx = &mut scratch.sort_idx;
    sort_idx.extend(0..net_recs.len() as u32);
    sort_idx.sort_unstable_by(|&a, &b| {
        rec_pins(&net_recs[a as usize]).cmp(rec_pins(&net_recs[b as usize]))
    });

    let mut builder = HypergraphBuilder::new(coarse_n);
    builder
        .set_node_weights(coarse_weight)
        .expect("summed positive weights stay positive");
    let mut i = 0;
    while i < sort_idx.len() {
        let pins = rec_pins(&net_recs[sort_idx[i] as usize]);
        let mut weight = net_recs[sort_idx[i] as usize].2;
        let mut j = i + 1;
        while j < sort_idx.len() && rec_pins(&net_recs[sort_idx[j] as usize]) == pins {
            weight += net_recs[sort_idx[j] as usize].2;
            j += 1;
        }
        builder
            .add_net(weight, pins.iter().map(|&p| p as usize))
            .expect("mapped pins are in range");
        i = j;
    }
    builder.build().expect("coarse circuit is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::CutState;
    use prop_netlist::generate::{generate, GeneratorConfig};

    fn circuit(seed: u64) -> Hypergraph {
        generate(&GeneratorConfig::new(200, 220, 740).with_seed(seed)).unwrap()
    }

    #[test]
    fn coarsening_shrinks_and_conserves_weight() {
        let g = circuit(4);
        let level = coarsen(&g, 32, 1);
        assert!(level.coarse.num_nodes() < g.num_nodes());
        assert!(level.coarse.num_nodes() >= g.num_nodes() / 2);
        assert!(
            (level.coarse.total_node_weight() - g.total_node_weight()).abs() < 1e-9,
            "node weight must be conserved"
        );
        assert_eq!(level.fine_nodes(), g.num_nodes());
    }

    #[test]
    fn matching_is_a_valid_pairing() {
        let g = circuit(5);
        let level = coarsen(&g, 32, 2);
        // Every coarse node has 1 or 2 fine constituents.
        let mut count = vec![0usize; level.coarse.num_nodes()];
        for v in g.nodes() {
            count[level.coarse_of(v).index()] += 1;
        }
        assert!(count.iter().all(|&c| (1..=2).contains(&c)));
    }

    #[test]
    fn projection_is_cut_exact() {
        let g = circuit(6);
        let level = coarsen(&g, 32, 3);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let coarse_part = Bipartition::random(level.coarse.num_nodes(), &mut rng);
            let coarse_cut = CutState::new(&level.coarse, &coarse_part).cut_cost();
            let fine_part = level.project(&coarse_part);
            let fine_cut = CutState::new(&g, &fine_part).cut_cost();
            assert!(
                (coarse_cut - fine_cut).abs() < 1e-9,
                "coarse {coarse_cut} vs fine {fine_cut}"
            );
        }
    }

    #[test]
    fn repeated_coarsening_terminates() {
        let mut g = circuit(7);
        for _ in 0..20 {
            if g.num_nodes() <= 16 {
                break;
            }
            let level = coarsen(&g, 32, 11);
            assert!(level.coarse.num_nodes() <= g.num_nodes());
            g = level.coarse;
        }
        assert!(g.num_nodes() <= 120);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = circuit(8);
        let a = coarsen(&g, 32, 5);
        let b = coarsen(&g, 32, 5);
        assert_eq!(a.coarse, b.coarse);
        let c = coarsen(&g, 32, 6);
        // Different seed, almost surely different matching.
        assert_ne!(a.coarse, c.coarse);
    }

    #[test]
    fn folded_projection_equals_projecting_through_both_levels() {
        let g = circuit(12);
        let first = coarsen(&g, 32, 0);
        let second = coarsen(&first.coarse, 32, 1);
        let mut folded = first.clone();
        folded.fold(second.clone());
        assert_eq!(folded.coarse, second.coarse);
        assert_eq!(folded.fine_nodes(), g.num_nodes());
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..5 {
            let coarse_part = Bipartition::random(second.coarse.num_nodes(), &mut rng);
            let through_both = first.project(&second.project(&coarse_part));
            assert_eq!(folded.project(&coarse_part), through_both);
            assert_eq!(
                CutState::new(&g, &through_both).cut_cost(),
                CutState::new(&second.coarse, &coarse_part).cut_cost()
            );
        }
    }

    #[test]
    fn merged_nets_sum_their_weights() {
        // Doubled within-pair nets dominate the connectivity scores, so
        // every visit order matches (0,1) and (2,3). The two parallel
        // cross nets then collapse into one coarse net of summed weight.
        let mut b = HypergraphBuilder::new(4);
        b.add_net(1.0, [0, 1]).unwrap();
        b.add_net(1.0, [0, 1]).unwrap();
        b.add_net(1.0, [2, 3]).unwrap();
        b.add_net(1.0, [2, 3]).unwrap();
        b.add_net(1.0, [1, 2]).unwrap();
        b.add_net(1.0, [0, 3]).unwrap();
        let g = b.build().unwrap();
        for seed in 0..4 {
            let level = coarsen(&g, 32, seed);
            assert_eq!(level.coarse.num_nodes(), 2);
            // The two supernodes are joined by exactly one surviving net
            // carrying both cross nets' weight.
            assert_eq!(level.coarse.num_nets(), 1);
            assert!((level.coarse.total_net_weight() - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn project_checks_sizes() {
        let g = circuit(9);
        let level = coarsen(&g, 32, 1);
        let wrong = Bipartition::from_sides(vec![Side::A; level.coarse.num_nodes() + 1]);
        let _ = level.project(&wrong);
    }
}
