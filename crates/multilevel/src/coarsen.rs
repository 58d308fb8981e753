//! Heavy-edge matching coarsening.
//!
//! Two interchangeable matching front ends feed one contraction back end:
//!
//! * [`coarsen`] — the classic *sequential greedy* matching: nodes in
//!   a seeded random order, each grabbing its best unmatched neighbor,
//!   later nodes seeing earlier matches.
//! * [`coarsen_sync`] — the deterministic *propose/resolve* matching
//!   of the intra-parallel V-cycle: rounds of parallel proposals against
//!   a frozen mate snapshot, resolved sequentially in an order ranked by
//!   a salted seed hash (never by arrival order), so the matching is
//!   bit-identical at every thread count.
//!
//! Both produce valid pairings and cut-exact levels; they generally pick
//! *different* matchings (different algorithms), which is why the engine
//! switches front ends only when intra-run parallelism is requested.

use prop_core::prof;
use prop_core::{map_chunks, map_chunks_with, Bipartition, ParallelPolicy, Side};
use prop_netlist::{Hypergraph, HypergraphBuilder, NetId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UNMATCHED: u32 = u32::MAX;

/// Nodes per proposal chunk and nets per contraction chunk. Fixed — chunk
/// boundaries depend only on the circuit size, never the worker count.
const SYNC_CHUNK: usize = 4096;

/// Cap on propose/resolve rounds; in practice 2–4 suffice (a round with
/// no new pairs ends the loop early).
const MAX_MATCH_ROUNDS: usize = 8;

/// Salt separating the conflict-resolution rank stream from every other
/// seed stream derived from the engine seed.
const RANK_SALT: u64 = 0x6c62_272e_07bb_0142;

/// Splitmix64-style finalizer (same mixer as the engine's seed streams).
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

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
    fill_net_records_seq(fine, &map, scratch);
    let coarse = build_from_records(coarse_weight, scratch);
    CoarseLevel { coarse, map }
}

/// The intra-parallel coarsening front end: matching by synchronous
/// propose/resolve rounds, contraction by chunked parallel net mapping.
///
/// Each round, every unmatched node *proposes* its most strongly
/// connected unmatched neighbor (same connectivity score and tie-breaks
/// as [`coarsen`]) against a frozen snapshot of the matching —
/// evaluated in parallel over fixed node chunks. Proposals are then
/// *resolved* sequentially in the conflict-resolution order: nodes ranked
/// by the salted hash `mix64(seed ⊕ RANK_SALT ⊕ node)`, ties by node id —
/// a pure function of `(seed, node)`, never of thread scheduling. A
/// proposal `u → v` is accepted iff both ends are still unmatched when
/// `u`'s rank comes up. Rounds repeat until one adds no pairs.
///
/// The result is **bit-identical for every `policy`** (including
/// [`ParallelPolicy::Sequential`]) because chunking only schedules the
/// proposal evaluation; it is generally a *different* matching than
/// [`coarsen`]'s, whose greedy scan is order-dependent by design.
pub fn coarsen_sync(
    fine: &Hypergraph,
    max_match_net: usize,
    seed: u64,
    policy: ParallelPolicy,
) -> CoarseLevel {
    let scratch = &mut CoarsenScratch::default();
    let n = fine.num_nodes();
    let mate = &mut scratch.mate;
    mate.resize(n, UNMATCHED);

    // The deterministic conflict-resolution order: a salted-hash ranking
    // of the node ids, fixed for the whole level.
    let order = &mut scratch.order;
    order.extend(0..n as u32);
    let rank_seed = seed ^ RANK_SALT;
    order.sort_unstable_by_key(|&u| (mix64(rank_seed ^ u64::from(u)), u));

    for _ in 0..MAX_MATCH_ROUNDS {
        // Propose (parallel, frozen snapshot): per-worker score/mark
        // scratch sized to the level, allocated once per worker.
        let snapshot: &[u32] = mate;
        let proposal: Vec<u32> = map_chunks_with(
            policy,
            n,
            SYNC_CHUNK,
            || (vec![0.0f64; n], vec![u32::MAX; n]),
            |(score, mark), _, range| {
                range
                    .map(|u| propose(fine, max_match_net, snapshot, score, mark, u))
                    .collect::<Vec<u32>>()
            },
        )
        .into_iter()
        .flatten()
        .collect();

        // Resolve (sequential, rank order — cheap: one pass over n).
        let mut new_pairs = 0usize;
        for &u in order.iter() {
            let u = u as usize;
            if mate[u] != UNMATCHED {
                continue;
            }
            let v = proposal[u];
            if v == UNMATCHED || mate[v as usize] != UNMATCHED {
                continue;
            }
            mate[u] = v;
            mate[v as usize] = u as u32;
            new_pairs += 1;
        }
        prof::count_match_round();
        if new_pairs == 0 {
            break;
        }
    }

    let (map, coarse_weight) = assign_coarse_ids(fine, &scratch.mate);
    fill_net_records_par(fine, &map, scratch, policy);
    let coarse = build_from_records(coarse_weight, scratch);
    CoarseLevel { coarse, map }
}

/// One node's proposal: its most strongly connected unmatched neighbor
/// under the `snapshot` matching (connectivity = Σ `w/(q−1)` over shared
/// nets of size ≤ `max_match_net`; ties to the lighter combined
/// supernode, then the smaller index). `UNMATCHED` when `u` is matched or
/// has no eligible neighbor. `score`/`mark` are epoch-marked worker
/// scratch; `u` itself serves as the epoch stamp (unique per round).
fn propose(
    fine: &Hypergraph,
    max_match_net: usize,
    snapshot: &[u32],
    score: &mut [f64],
    mark: &mut [u32],
    u: usize,
) -> u32 {
    if snapshot[u] != UNMATCHED {
        return UNMATCHED;
    }
    let epoch = u as u32;
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
            if xi == u || snapshot[xi] != UNMATCHED {
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
    best.map_or(UNMATCHED, |(_, v)| v as u32)
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

/// Maps one net's pins into coarse ids, appending the sorted-and-deduped
/// pin set to `pin_buf` and its record to `net_recs`; nets that collapse
/// inside one supernode are dropped.
fn map_one_net(
    fine: &Hypergraph,
    map: &[u32],
    net: NetId,
    pin_buf: &mut Vec<u32>,
    net_recs: &mut Vec<(u32, u32, f64)>,
) {
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
        return;
    }
    net_recs.push((start as u32, len as u32, fine.net_weight(net)));
}

/// Coarse nets: map every pin set into coarse ids, drop nets that
/// collapse inside one supernode. The merge of identical pin sets happens
/// later in [`build_from_records`]; here the records are built by one
/// sequential sweep into the flat scratch buffers — no per-net
/// allocation, no hash map.
fn fill_net_records_seq(fine: &Hypergraph, map: &[u32], scratch: &mut CoarsenScratch) {
    let pin_buf = &mut scratch.pin_buf;
    let net_recs = &mut scratch.net_recs;
    for net in fine.nets() {
        map_one_net(fine, map, net, pin_buf, net_recs);
    }
}

/// The chunked-parallel variant of [`fill_net_records_seq`]: each net
/// chunk maps into chunk-local buffers, concatenated in chunk order with
/// an offset fixup — byte-identical buffer contents for every policy.
fn fill_net_records_par(
    fine: &Hypergraph,
    map: &[u32],
    scratch: &mut CoarsenScratch,
    policy: ParallelPolicy,
) {
    let chunks = map_chunks(policy, fine.num_nets(), SYNC_CHUNK, |_, range| {
        let mut pins: Vec<u32> = Vec::new();
        let mut recs: Vec<(u32, u32, f64)> = Vec::new();
        for ni in range {
            map_one_net(fine, map, NetId::new(ni), &mut pins, &mut recs);
        }
        (pins, recs)
    });
    let pin_buf = &mut scratch.pin_buf;
    let net_recs = &mut scratch.net_recs;
    for (pins, recs) in chunks {
        let base = pin_buf.len() as u32;
        pin_buf.extend_from_slice(&pins);
        net_recs.extend(recs.into_iter().map(|(s, l, w)| (s + base, l, w)));
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
        // Doubled intra-pair nets dominate the connectivity scores, so
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
    fn sync_matching_is_policy_independent() {
        let g = circuit(14);
        let baseline = coarsen_sync(&g, 32, 7, ParallelPolicy::Sequential);
        for policy in [
            ParallelPolicy::Threads(1),
            ParallelPolicy::Threads(2),
            ParallelPolicy::Threads(4),
            ParallelPolicy::Auto,
        ] {
            let level = coarsen_sync(&g, 32, 7, policy);
            assert_eq!(level.coarse, baseline.coarse, "{policy:?}");
            assert_eq!(level.map, baseline.map, "{policy:?}");
        }
    }

    #[test]
    fn sync_matching_is_a_valid_cut_exact_pairing() {
        let g = circuit(15);
        let level = coarsen_sync(&g, 32, 3, ParallelPolicy::Threads(2));
        assert!(level.coarse.num_nodes() < g.num_nodes());
        assert!(
            (level.coarse.total_node_weight() - g.total_node_weight()).abs() < 1e-9,
            "node weight must be conserved"
        );
        let mut count = vec![0usize; level.coarse.num_nodes()];
        for v in g.nodes() {
            count[level.coarse_of(v).index()] += 1;
        }
        assert!(count.iter().all(|&c| (1..=2).contains(&c)));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let coarse_part = Bipartition::random(level.coarse.num_nodes(), &mut rng);
            let coarse_cut = CutState::new(&level.coarse, &coarse_part).cut_cost();
            let fine_cut = CutState::new(&g, &level.project(&coarse_part)).cut_cost();
            assert!((coarse_cut - fine_cut).abs() < 1e-9);
        }
    }

    #[test]
    fn sync_matching_is_deterministic_in_seed() {
        let g = circuit(16);
        let a = coarsen_sync(&g, 32, 5, ParallelPolicy::Threads(2));
        let b = coarsen_sync(&g, 32, 5, ParallelPolicy::Threads(2));
        assert_eq!(a.coarse, b.coarse);
        assert_eq!(a.map, b.map);
        // Different rank seed, almost surely a different resolution order.
        let c = coarsen_sync(&g, 32, 6, ParallelPolicy::Threads(2));
        assert_ne!(a.coarse, c.coarse);
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
