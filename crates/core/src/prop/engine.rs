//! The per-pass PROP engine: probability refinement, product maintenance,
//! move selection, and prefix commit.
//!
//! # Hot-state layout
//!
//! All per-pass scratch state lives in flat arrays indexed by node or net
//! id and walked through the netlist CSR, never through per-entity
//! allocations:
//!
//! * per node — probability, gain, lock flag, epoch mark, recency stamp
//!   (five parallel `Vec`s);
//! * per net — one packed 32-byte [`NetHot`] record holding both sides'
//!   effective products and occupancy flags, the net weight, and the
//!   net's product-clock tick, so a §3.4 refresh ([`Engine::refresh_node`])
//!   — staleness check, then gain ([`Engine::compute_gain`]) — touches
//!   exactly one record per incident net instead of gathering from
//!   separate arrays (products, locked counts, cut pin counts, net
//!   weights, ticks).
//!
//! The refinement fixed point is *dirty-net incremental*: after the first
//! full product/gain sweep, an iteration only recomputes the nets touched
//! by a changed probability and only re-gains the nodes on those nets —
//! bit-identical to the full sweeps, because an untouched net's product
//! recomputation would multiply the same factors in the same order, and a
//! node whose own probability and incident products are all unchanged
//! would recompute to the same gain.

use crate::balance::BalanceConstraint;
use crate::cut::CutState;
use crate::gain::fm_gains;
use crate::partition::{Bipartition, Side, SideWeights};
use crate::prof;
use crate::prop::config::{GainInit, PropConfig, SelectionBackend};
use prop_dstruct::{AvlTree, HeapKey, IndexedMaxHeap, OrderedF64, PrefixTracker};
use prop_netlist::{Hypergraph, NetId, NodeId};

/// Selection key: gain first, then a monotonically increasing *recency
/// stamp*, then the node id. The maximum is the paper's "node with the
/// best gain"; among equal gains the most recently (re)inserted node wins,
/// matching the LIFO tie-breaking of the classic FM bucket structure —
/// which is known to matter for cut quality. Keys are unique (the id
/// breaks all remaining ties), so every ordered container over them
/// selects the same node. Stamps restart at zero each pass (the stores
/// are cleared and refilled, so no cross-pass key ever compares), which
/// keeps the key at 16 bytes. The key ends with the node id, so the heap
/// backend stores it alone ([`HeapKey`]): a 16-byte entry, four per
/// cache line, instead of a `(key, id)` pair padded to 24.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct GainKey {
    gain: OrderedF64,
    stamp: u32,
    node: u32,
}

const _: () = assert!(std::mem::size_of::<GainKey>() == 16);

impl HeapKey for GainKey {
    #[inline]
    fn id(&self) -> usize {
        self.node as usize
    }
}

/// Packed per-net hot state: everything [`Engine::compute_gain`] and the
/// staleness check of [`Engine::refresh_node`] need about one net, in one
/// 32-byte record.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NetHot {
    /// Per side: the *effective* stay product of Eqn. 2 — the product of
    /// `p(x)` over the side's pins, which is exactly `0.0` once any of
    /// them is locked (locked probability is 0, and `0.0` survives every
    /// later ratio update).
    pub prod: [f64; 2],
    /// The net weight, copied from the graph at engine construction so
    /// the gain loop reads no second array.
    pub weight: f64,
    /// Product-clock value of the net's last modification. Every tick
    /// is re-stamped when a pass rebuilds its products, so only ticks of
    /// the same pass are ever compared.
    pub tick: u32,
    /// Per side: whether the side holds any pin — the cut-ness test of
    /// Eqns. 3–4. Maintained by the same per-net recomputation as the
    /// products, so it always agrees with the incremental [`CutState`].
    pub occupied: [bool; 2],
}

// One record per incident net is the point of the packing: two fit in a
// 64-byte cache line.
const _: () = assert!(std::mem::size_of::<NetHot>() == 32);

/// The ordered-gain container pair (one per side) behind move selection.
/// All variants rank by [`GainKey`] and are observationally identical;
/// see [`SelectionBackend`] for the tradeoffs.
enum GainStore {
    Avl([AvlTree<GainKey>; 2]),
    Indexed([IndexedMaxHeap<GainKey>; 2]),
}

pub(crate) struct Engine<'a> {
    graph: &'a Hypergraph,
    config: &'a PropConfig,
    balance: BalanceConstraint,
    /// Node probabilities; 0 exactly when locked.
    p: Vec<f64>,
    /// Current probabilistic gains.
    gain: Vec<f64>,
    locked: Vec<bool>,
    /// Per-net packed products / occupancy / weight / tick.
    nets: Vec<NetHot>,
    /// Unlocked nodes of each side ranked by gain.
    store: GainStore,
    /// Epoch marks for node de-duplication (dirty-gain sweep in
    /// refinement, neighbor + top-k sweep per move).
    mark: Vec<u32>,
    epoch: u32,
    /// Epoch marks de-duplicating the dirty-net queue of a refinement
    /// iteration.
    net_mark: Vec<u32>,
    net_epoch: u32,
    /// Nets whose products must be recomputed this refinement iteration.
    dirty_nets: Vec<u32>,
    /// Product clock: bumped before every batch of per-net product
    /// modifications ([`Engine::tick`]), whose nets record it in
    /// [`NetHot::tick`]. Orders product writes against gain reads.
    clock: u32,
    /// Per node: clock value at which its stored gain's inputs were read.
    /// A node none of whose nets ticked since is *provably fresh*: a
    /// refresh would recompute the bit-identical gain (same products,
    /// same own probability — a probability change always ticks the
    /// node's own nets), push nothing, and change no probability, so it
    /// is skipped outright ([`Engine::refresh_node`]).
    node_tick: Vec<u32>,
    /// Per-node recency stamp of its current selection key.
    stamp: Vec<u32>,
    next_stamp: u32,
    /// Running per-side node weights (size-constrained balance).
    side_weights: SideWeights,
    moves: Vec<NodeId>,
    prefix: PrefixTracker,
    /// Reusable buffer for the §3.4 top-k refresh: the candidate ids are
    /// snapshotted here before refreshing (refreshes reposition container
    /// entries, which would invalidate a live traversal). Kept on the
    /// engine so the per-move hot path never allocates.
    topk_scratch: Vec<u32>,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        graph: &'a Hypergraph,
        config: &'a PropConfig,
        balance: BalanceConstraint,
    ) -> Self {
        let n = graph.num_nodes();
        let e = graph.num_nets();
        let nets = graph
            .nets()
            .map(|net| NetHot {
                prod: [1.0; 2],
                weight: graph.net_weight(net),
                tick: 0,
                occupied: [false; 2],
            })
            .collect();
        let store = match config.selection {
            SelectionBackend::AvlTree => GainStore::Avl([AvlTree::new(), AvlTree::new()]),
            SelectionBackend::IndexedHeap => {
                GainStore::Indexed([IndexedMaxHeap::with_ids(n), IndexedMaxHeap::with_ids(n)])
            }
        };
        Engine {
            graph,
            config,
            balance,
            p: vec![0.0; n],
            gain: vec![0.0; n],
            locked: vec![false; n],
            nets,
            store,
            mark: vec![0; n],
            epoch: 0,
            net_mark: vec![0; e],
            net_epoch: 0,
            dirty_nets: Vec::with_capacity(e),
            clock: 0,
            node_tick: vec![0; n],
            stamp: vec![0; n],
            next_stamp: 0,
            side_weights: SideWeights::new(graph, &Bipartition::from_sides(vec![Side::A; n])),
            moves: Vec::with_capacity(n),
            prefix: PrefixTracker::with_capacity(n),
            topk_scratch: Vec::with_capacity(2 * config.top_k_refresh),
        }
    }

    fn key_of(&self, v: NodeId) -> GainKey {
        GainKey {
            gain: OrderedF64::new(self.gain[v.index()]),
            stamp: self.stamp[v.index()],
            node: v.index() as u32,
        }
    }

    /// Stamps `v` and inserts its key into side `side_index`'s container,
    /// superseding any key `v` already holds there (the AVL caller removes
    /// the old key first, the indexed heap repositions in place).
    fn store_insert(&mut self, v: NodeId, side_index: usize) {
        self.next_stamp = self
            .next_stamp
            .checked_add(1)
            .expect("more than u32::MAX store insertions in one pass");
        self.stamp[v.index()] = self.next_stamp;
        let key = self.key_of(v);
        match &mut self.store {
            GainStore::Avl(trees) => {
                let inserted = trees[side_index].insert(key);
                debug_assert!(inserted, "duplicate selection key");
            }
            GainStore::Indexed(heaps) => {
                if heaps[side_index].contains(v.index()) {
                    heaps[side_index].update(key);
                } else {
                    heaps[side_index].insert(key);
                }
            }
        }
    }

    /// Runs one pass (steps 3–10 of Fig. 2) and returns the committed gain
    /// (0 when the pass found no improving prefix and was fully rolled
    /// back, which terminates the run) plus the pass trace.
    pub(crate) fn run_pass(
        &mut self,
        partition: &mut Bipartition,
        cut: &mut CutState,
    ) -> (f64, crate::prop::PassTrace) {
        let n = self.graph.num_nodes();
        if n == 0 {
            return (0.0, crate::prop::PassTrace::default());
        }
        #[cfg(feature = "debug-audit")]
        crate::audit::with_auditor(|a| {
            a.begin_pass(&crate::audit::PassBegin {
                engine: "PROP",
                graph: self.graph,
                partition,
                cut,
                balance: self.balance,
            });
        });
        self.locked.iter_mut().for_each(|l| *l = false);
        self.moves.clear();
        self.prefix.clear();
        self.side_weights = SideWeights::new(self.graph, partition);

        let t = prof::start();
        self.seed_probabilities(partition, cut);
        // Alternate gain and probability recomputation (step 4). The first
        // sweep is full: every net's products and every node's gain. Each
        // refinement iteration then maps the gains of the *previous* sweep
        // to new probabilities and incrementally recomputes only what those
        // changes touch; once a sweep leaves every probability unchanged
        // the iteration is at a fixed point and all remaining sweeps —
        // including the final consistency sweep — would reproduce the
        // products and gains already in place, so they are skipped. The
        // loop therefore ends with gains and products consistent with the
        // final probabilities without a separate recomputation.
        self.rebuild_products(partition);
        self.recompute_all_gains(partition);
        prof::stop(prof::Phase::Seed, t);
        let t = prof::start();
        for _ in 0..self.config.refine_iterations {
            if !self.refine_dirty(partition) {
                break;
            }
        }
        prof::stop(prof::Phase::Refine, t);
        #[cfg(feature = "debug-audit")]
        crate::audit::with_auditor(|a| {
            a.after_refinement(&crate::audit::RefinementRecord {
                engine: "PROP",
                graph: self.graph,
                partition,
                cut,
                probabilities: &self.p,
                gains: &self.gain,
                locked: &self.locked,
            });
        });

        match &mut self.store {
            GainStore::Avl(trees) => trees.iter_mut().for_each(AvlTree::clear),
            GainStore::Indexed(heaps) => heaps.iter_mut().for_each(IndexedMaxHeap::clear),
        }
        // Stamps restart each pass: the stores were just cleared, so no
        // key from an earlier pass can ever be compared against, and the
        // relative order of this pass's stamps is all that matters.
        self.next_stamp = 0;
        for v in self.graph.nodes() {
            self.store_insert(v, partition.side(v).index());
        }

        // Move phase (steps 5–8).
        loop {
            let t = prof::start();
            let selected = self.select_move(partition);
            prof::stop(prof::Phase::Select, t);
            let Some(u) = selected else { break };
            self.apply_and_update(u, partition, cut);
        }

        // Commit the best feasible prefix (steps 9–10).
        let best = self.prefix.best();
        let commit = best.map_or(0, |b| b.moves);
        for i in (commit..self.moves.len()).rev() {
            cut.apply_move(self.graph, partition, self.moves[i]);
        }
        let committed_gain = best.map_or(0.0, |b| b.gain);
        #[cfg(feature = "debug-audit")]
        crate::audit::with_auditor(|a| {
            a.after_pass(&crate::audit::PassRecord {
                engine: "PROP",
                graph: self.graph,
                partition,
                cut,
                balance: self.balance,
                moves: &self.moves,
                immediate_gains: self.prefix.gains(),
                feasible: self.prefix.feasibility(),
                committed_moves: commit,
                committed_gain,
            });
        });

        // Trace: how deep into negative territory the committed prefix
        // travelled — the paper's "moving such a node at the present time,
        // we expect that a future move will have a large immediate gain".
        let mut running = 0.0f64;
        let mut drawdown = 0.0f64;
        for &g in &self.prefix.gains()[..commit] {
            running += g;
            drawdown = drawdown.min(running);
        }
        let trace = crate::prop::PassTrace {
            tentative_moves: self.moves.len(),
            committed_moves: commit,
            committed_gain,
            max_drawdown: drawdown,
        };
        (committed_gain, trace)
    }

    /// Step 3: seed probabilities uniformly or from deterministic gains.
    fn seed_probabilities(&mut self, partition: &Bipartition, cut: &CutState) {
        match self.config.init {
            GainInit::Uniform => self.p.iter_mut().for_each(|p| *p = self.config.p_init),
            GainInit::Deterministic => {
                let det = fm_gains(self.graph, partition, cut);
                for (p, g) in self.p.iter_mut().zip(det) {
                    *p = self.config.probability_of(g);
                }
            }
        }
    }

    /// One incremental refinement iteration (the dirty-net replacement for
    /// a full probability + product + gain sweep). Returns `false` at the
    /// fixed point (no probability changed), leaving all state untouched.
    ///
    /// Bit-exactness: a net none of whose pins changed probability keeps a
    /// product that a from-scratch recomputation would reproduce exactly
    /// (same factors, same CSR order); a node all of whose nets are clean
    /// also has an unchanged own-probability (a node is a pin of each of
    /// its nets, so a changed `p(v)` dirties every net of `v`), hence its
    /// gain recomputation would read identical inputs — skipping it keeps
    /// the gain table bit-identical to the full sweep.
    fn refine_dirty(&mut self, partition: &Bipartition) -> bool {
        let graph = self.graph;
        // Probability half: apply the gain → probability map, queueing the
        // nets incident to every changed node.
        self.dirty_nets.clear();
        self.net_epoch = bump_epoch(self.net_epoch, &mut self.net_mark);
        let mut changed = false;
        for v in 0..self.p.len() {
            let np = self.config.probability_of(self.gain[v]);
            if np != self.p[v] {
                self.p[v] = np;
                changed = true;
                for &net in graph.nets_of(NodeId::new(v)) {
                    let ni = net.index();
                    if self.net_mark[ni] != self.net_epoch {
                        self.net_mark[ni] = self.net_epoch;
                        self.dirty_nets.push(ni as u32);
                    }
                }
            }
        }
        if !changed {
            return false;
        }
        // Product half: exact per-net recomputation of the dirty nets.
        for i in 0..self.dirty_nets.len() {
            self.recompute_net(NetId::new(self.dirty_nets[i] as usize), partition);
        }
        // Gain half: only nodes on dirty nets can have changed gains. No
        // node is locked during refinement, and the sweep writes gains
        // computed purely from probabilities and products, so visiting in
        // dirty-net order (deduplicated by epoch mark) instead of id order
        // yields the identical gain table.
        self.epoch = bump_epoch(self.epoch, &mut self.mark);
        for i in 0..self.dirty_nets.len() {
            let net = NetId::new(self.dirty_nets[i] as usize);
            for &x in graph.pins_of(net) {
                if self.mark[x.index()] != self.epoch {
                    self.mark[x.index()] = self.epoch;
                    self.gain[x.index()] = self.compute_gain(x, partition);
                    self.node_tick[x.index()] = self.clock;
                }
            }
        }
        true
    }

    /// Rebuilds every net's products and occupancy flags.
    fn rebuild_products(&mut self, partition: &Bipartition) {
        for net in self.graph.nets() {
            self.recompute_net(net, partition);
        }
    }

    /// Exactly recomputes one net's hot record from current probabilities
    /// and sides — O(q); used for all nets incident to a moved node,
    /// avoiding multiplicative drift entirely. The occupancy flags come
    /// for free from the same walk. A locked pin's probability is exactly
    /// 0, so multiplying it in yields the locked side's effective product
    /// of 0 without a branch; a side without locked pins multiplies the
    /// same factors in the same CSR order as an unlocked-only product.
    fn recompute_net(&mut self, net: NetId, partition: &Bipartition) {
        let mut prod = [1.0f64; 2];
        let mut occupied = [false; 2];
        for &x in self.graph.pins_of(net) {
            let s = partition.side(x).index();
            occupied[s] = true;
            prod[s] *= self.p[x.index()];
        }
        let tick = self.tick();
        let hot = &mut self.nets[net.index()];
        hot.prod = prod;
        hot.occupied = occupied;
        hot.tick = tick;
        prof::count_net_recompute();
    }

    /// Advances the product clock and returns the new value. On the u32
    /// wrap every node is made stale (node ticks 0, net ticks 1): a forced
    /// recompute is always safe, because the skip in
    /// [`Engine::refresh_node`] is only an optimisation.
    fn tick(&mut self) -> u32 {
        self.clock = match self.clock.checked_add(1) {
            Some(clock) => clock,
            None => {
                self.node_tick.fill(0);
                self.nets.iter_mut().for_each(|hot| hot.tick = 1);
                1
            }
        };
        self.clock
    }

    fn recompute_all_gains(&mut self, partition: &Bipartition) {
        for v in self.graph.nodes() {
            if !self.locked[v.index()] {
                self.gain[v.index()] = self.compute_gain(v, partition);
                self.node_tick[v.index()] = self.clock;
            }
        }
    }

    /// Eqns. 3–4 through the packed per-net records: O(p(u)) per call and
    /// one sequential record read per incident net.
    fn compute_gain(&self, u: NodeId, partition: &Bipartition) -> f64 {
        let s = partition.side(u);
        let (si, oi) = (s.index(), s.other().index());
        let pu = self.p[u.index()];
        debug_assert!(pu > 0.0, "gain of a locked node requested");
        prof::count_gain_recompute();
        let mut g = 0.0;
        for &net in self.graph.nets_of(u) {
            let hot = &self.nets[net.index()];
            let c = hot.weight;
            // A locked side's product is exactly 0, so both terms read 0
            // there with no branch.
            let same = (hot.prod[si] / pu).clamp(0.0, 1.0);
            if hot.occupied[oi] {
                g += c * (same - hot.prod[oi].clamp(0.0, 1.0));
            } else {
                g -= c * (1.0 - same);
            }
        }
        g
    }

    /// Step 6: the best-gain node over both sides whose move keeps the
    /// destination within the pass-relaxed balance bound; when the global
    /// best is blocked, the best node of the other side is taken. Under a
    /// size-constrained balance the scan walks each side's ranking in
    /// descending gain order until a node that fits is found, giving up
    /// after [`PropConfig::balance_probe_depth`] candidates when that
    /// bound is set (unbounded by default, preserving the exact baseline
    /// choice). On the indexed backend the walk is a read-only best-first
    /// descent. Both backends see the identical candidate sequence.
    fn select_move(&mut self, partition: &Bipartition) -> Option<NodeId> {
        let counts = [partition.count(Side::A), partition.count(Side::B)];
        let weights = self.side_weights.as_array();
        let graph = self.graph;
        let balance = self.balance;
        let probe_limit = self.config.balance_probe_depth.unwrap_or(usize::MAX);
        let mut best: Option<GainKey> = None;
        let consider = |key: GainKey, best: &mut Option<GainKey>| {
            if best.is_none_or(|b| key > b) {
                *best = Some(key);
            }
        };
        match &mut self.store {
            GainStore::Avl(trees) => {
                for (si, tree) in trees.iter().enumerate() {
                    let side = Side::from_index(si);
                    if !balance.is_weighted() {
                        // Count-based feasibility is per side, not per node.
                        if !balance.allows_move(side, counts[0], counts[1]) {
                            continue;
                        }
                        if let Some(&key) = tree.max() {
                            consider(key, &mut best);
                        }
                        continue;
                    }
                    for (probed, &key) in tree.iter_desc().enumerate() {
                        if probed >= probe_limit {
                            break;
                        }
                        let v = NodeId::new(key.id());
                        if balance.allows_node_move(side, counts, weights, graph.node_weight(v))
                        {
                            consider(key, &mut best);
                            break;
                        }
                    }
                }
            }
            GainStore::Indexed(heaps) => {
                for (si, heap) in heaps.iter_mut().enumerate() {
                    let side = Side::from_index(si);
                    if !balance.is_weighted() {
                        if !balance.allows_move(side, counts[0], counts[1]) {
                            continue;
                        }
                        if let Some(key) = heap.peek() {
                            consider(key, &mut best);
                        }
                        continue;
                    }
                    // Read-only probe in exact descending order — every
                    // entry is live, so the candidate sequence equals the
                    // AVL traversal's.
                    let mut probed = 0;
                    heap.descend(|key| {
                        probed += 1;
                        let v = NodeId::new(key.id());
                        if balance.allows_node_move(side, counts, weights, graph.node_weight(v))
                        {
                            consider(key, &mut best);
                            return false;
                        }
                        probed < probe_limit
                    });
                }
            }
        }
        best.map(|key| NodeId::new(key.id()))
    }

    /// Steps 7–8: move `u`, lock it, note the immediate gain, and update
    /// the affected nets, its neighbors (gains *and* probabilities, per
    /// §3.4), and the top-k of each side.
    fn apply_and_update(
        &mut self,
        u: NodeId,
        partition: &mut Bipartition,
        cut: &mut CutState,
    ) {
        let t = prof::start();
        let graph = self.graph;
        let from = partition.side(u);
        let key = self.key_of(u);
        match &mut self.store {
            GainStore::Avl(trees) => {
                let removed = trees[from.index()].remove(&key);
                debug_assert!(removed, "selected node missing from its tree");
            }
            GainStore::Indexed(heaps) => {
                let removed = heaps[from.index()].remove(u.index());
                debug_assert!(removed.is_some(), "selected node missing from its heap");
            }
        }

        let immediate = cut.apply_move(graph, partition, u);
        self.side_weights.apply_move(from, graph.node_weight(u));
        self.locked[u.index()] = true;
        self.p[u.index()] = 0.0;
        for &net in graph.nets_of(u) {
            self.recompute_net(net, partition);
        }
        self.prefix.push(
            immediate,
            self.balance.is_feasible(
                [partition.count(Side::A), partition.count(Side::B)],
                self.side_weights.as_array(),
            ),
        );
        self.moves.push(u);
        prof::count_move();
        prof::stop(prof::Phase::Apply, t);

        // Refresh all unlocked neighbors (each once): new gain from the
        // updated products, then a new probability from the new gain —
        // propagated into the neighbor's nets' products. This is why §3.4
        // speaks of neighbors-of-neighbors "whose probabilities have been
        // updated": the top-k refresh below catches that second-order
        // staleness without a full cascade.
        let t = prof::start();
        self.epoch = bump_epoch(self.epoch, &mut self.mark);
        self.mark[u.index()] = self.epoch;
        for &net in graph.nets_of(u) {
            for &x in graph.pins_of(net) {
                if !self.locked[x.index()] && self.mark[x.index()] != self.epoch {
                    self.mark[x.index()] = self.epoch;
                    self.refresh_node(x, partition);
                }
            }
        }

        // §3.4: additionally refresh the few top-ranked nodes per side.
        // Candidates already carrying this move's epoch mark were refreshed
        // in the neighbor sweep above and are skipped, so every node is
        // refreshed at most once per move; the ones we do refresh take the
        // mark, keeping the guarantee across both sides' top-k lists. The
        // ids are snapshotted into the reusable scratch buffer because
        // refreshing repositions container entries under a live traversal.
        let k = self.config.top_k_refresh;
        if k > 0 {
            let mut top = std::mem::take(&mut self.topk_scratch);
            for si in 0..2 {
                top.clear();
                match &mut self.store {
                    GainStore::Avl(trees) => {
                        top.extend(trees[si].iter_desc().take(k).map(|key| key.node));
                    }
                    GainStore::Indexed(heaps) => {
                        // Read-only best-first walk — no dead entries, no
                        // restore sifts.
                        let mut left = k;
                        heaps[si].descend(|key| {
                            top.push(key.node);
                            left -= 1;
                            left > 0
                        });
                    }
                }
                for &id in &top {
                    let x = NodeId::new(id as usize);
                    if self.mark[x.index()] != self.epoch {
                        self.mark[x.index()] = self.epoch;
                        self.refresh_node(x, partition);
                    }
                }
            }
            self.topk_scratch = top;
        }
        prof::stop(prof::Phase::Refresh, t);

        #[cfg(feature = "debug-audit")]
        crate::audit::with_auditor(|a| {
            a.after_move(&crate::audit::MoveRecord {
                engine: "PROP",
                graph: self.graph,
                partition,
                cut,
                balance: self.balance,
                moved: u,
                immediate_gain: immediate,
                gains: &self.gain,
                locked: &self.locked,
                probabilities: Some(&self.p),
                products: Some(&self.nets),
                fresh: Some((&self.mark, self.epoch)),
                side_weights: self.side_weights.as_array(),
            });
        });
    }

    /// Recomputes one unlocked node's gain, repositions it in its side's
    /// ranking, and propagates its refreshed probability into its nets'
    /// products.
    ///
    /// Provably redundant refreshes are elided: when no net of `x` ticked
    /// the product clock since `x`'s gain inputs were last read, the
    /// recomputation would reproduce the stored gain bit-for-bit (same
    /// products, same `p(x)`); when additionally `p(x)` already equals
    /// `probability_of` of that gain, the probability half is a no-op too
    /// (after refinement the two can disagree — the fixed iteration count
    /// ends on a gain sweep — so a first refresh may update products even
    /// with an unchanged gain). Both conditions together make the whole
    /// call a provable no-op, and it is skipped. This is the common case
    /// for §3.4 top-k candidates far from recent move activity, and is
    /// what keeps the per-move refresh cost proportional to *actual*
    /// state churn rather than to `2k + degree`.
    fn refresh_node(&mut self, x: NodeId, partition: &Bipartition) {
        let tick = self.node_tick[x.index()];
        if self.config.probability_of(self.gain[x.index()]) == self.p[x.index()]
            && self
                .graph
                .nets_of(x)
                .iter()
                .all(|net| self.nets[net.index()].tick <= tick)
        {
            return;
        }
        let new_gain = self.compute_gain(x, partition);
        self.node_tick[x.index()] = self.clock;
        let si = partition.side(x).index();
        if new_gain != self.gain[x.index()] {
            let old_key = self.key_of(x);
            if let GainStore::Avl(trees) = &mut self.store {
                let removed = trees[si].remove(&old_key);
                debug_assert!(removed, "refreshed node missing from its tree");
            }
            // Indexed heap: `store_insert` repositions the entry in place.
            self.gain[x.index()] = new_gain;
            self.store_insert(x, si);
        }
        let new_p = self.config.probability_of(new_gain);
        let old_p = self.p[x.index()];
        if new_p != old_p {
            // Incremental product update: x is unlocked and stays on its
            // side, so only its own factor changes (a locked side's 0
            // stays 0). Probabilities are bounded below by p_min > 0,
            // making the division exact enough; the per-pass product
            // rebuild resets any residual drift.
            self.p[x.index()] = new_p;
            let ratio = new_p / old_p;
            let tick = self.tick();
            for &net in self.graph.nets_of(x) {
                let hot = &mut self.nets[net.index()];
                hot.prod[si] *= ratio;
                hot.tick = tick;
            }
        }
    }
}

/// Advances an epoch counter, resetting the mark array on the (in
/// practice unreachable) wrap so stale marks can never alias the new
/// epoch.
fn bump_epoch(epoch: u32, marks: &mut [u32]) -> u32 {
    let next = epoch.wrapping_add(1);
    if next == 0 {
        marks.iter_mut().for_each(|m| *m = u32::MAX);
        1
    } else {
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::probabilistic_gains;
    use prop_netlist::generate::{generate, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The incremental product-based gains must match the naive Eqn. 3–4
    /// oracle at the start of the move phase.
    #[test]
    fn product_gains_match_naive_oracle() {
        let graph = generate(&GeneratorConfig::new(60, 70, 230).with_seed(21)).unwrap();
        let config = PropConfig::default();
        let balance = BalanceConstraint::bisection(60);
        let mut rng = StdRng::seed_from_u64(5);
        let partition = Bipartition::random(60, &mut rng);

        let mut engine = Engine::new(&graph, &config, balance);
        engine.p.iter_mut().for_each(|p| *p = 0.7);
        engine.rebuild_products(&partition);
        engine.recompute_all_gains(&partition);

        let oracle = probabilistic_gains(&graph, &partition, &vec![0.7; 60], &[false; 60]);
        assert_eq!(engine.gain.len(), oracle.len());
        for (v, (&got, &want)) in engine.gain.iter().zip(&oracle).enumerate() {
            assert!((got - want).abs() < 1e-9, "node {v}: {got} vs {want}");
        }
    }

    /// The dirty-net refinement iterations must leave exactly the state a
    /// full-sweep fixed point would: same probabilities, same products,
    /// same gains, bit-for-bit — on both selection backends.
    #[test]
    fn dirty_refinement_matches_full_sweeps() {
        let graph = generate(&GeneratorConfig::new(120, 140, 470).with_seed(91)).unwrap();
        let config = PropConfig::default();
        let balance = BalanceConstraint::bisection(120);
        let mut rng = StdRng::seed_from_u64(12);
        let partition = Bipartition::random(120, &mut rng);
        let cut = CutState::new(&graph, &partition);

        // Engine under test: seed + first full sweep + dirty iterations.
        let mut engine = Engine::new(&graph, &config, balance);
        engine.seed_probabilities(&partition, &cut);
        engine.rebuild_products(&partition);
        engine.recompute_all_gains(&partition);
        for _ in 0..config.refine_iterations {
            if !engine.refine_dirty(&partition) {
                break;
            }
        }

        // Full-sweep mirror of the old schedule.
        let mut full = Engine::new(&graph, &config, balance);
        full.seed_probabilities(&partition, &cut);
        full.rebuild_products(&partition);
        full.recompute_all_gains(&partition);
        for _ in 0..config.refine_iterations {
            let mut changed = false;
            for v in 0..full.p.len() {
                let np = config.probability_of(full.gain[v]);
                if np != full.p[v] {
                    full.p[v] = np;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            full.rebuild_products(&partition);
            full.recompute_all_gains(&partition);
        }

        assert_eq!(engine.p, full.p);
        assert_eq!(engine.gain, full.gain);
        // Ticks differ by construction (the full sweeps tick every net).
        let state =
            |e: &Engine| -> Vec<_> { e.nets.iter().map(|h| (h.prod, h.occupied)).collect() };
        assert_eq!(state(&engine), state(&full));
    }

    /// After several locked moves, the engine's incremental gains must
    /// match the oracle evaluated with the current locks. Probabilities
    /// are pinned (`p_min == p_max`) so per-move probability refreshes are
    /// no-ops and every refreshed gain is exactly oracle-comparable.
    #[test]
    fn incremental_gains_match_oracle_after_moves() {
        let graph = generate(&GeneratorConfig::new(40, 48, 160).with_seed(33)).unwrap();
        let config = PropConfig {
            p_min: 0.7,
            p_max: 0.7,
            p_init: 0.7,
            ..PropConfig::default()
        };
        let balance = BalanceConstraint::bisection(40);
        let mut rng = StdRng::seed_from_u64(6);
        let mut partition = Bipartition::random(40, &mut rng);
        let mut cut = CutState::new(&graph, &partition);

        let mut engine = Engine::new(&graph, &config, balance);
        engine.seed_probabilities(&partition, &cut);
        engine.rebuild_products(&partition);
        engine.recompute_all_gains(&partition);
        for v in graph.nodes() {
            engine.store_insert(v, partition.side(v).index());
        }

        for step in 0..10 {
            let u = engine.select_move(&partition).expect("moves available");
            engine.apply_and_update(u, &mut partition, &mut cut);
            // Oracle gains under current probabilities and locks, for every
            // node the engine refreshed (its up-to-date neighbors). Nodes
            // the engine deliberately leaves stale are skipped — the paper
            // only refreshes neighbors and the top-k.
            let oracle = probabilistic_gains(&graph, &partition, &engine.p, &engine.locked);
            let mut checked = 0;
            for x in graph.nodes() {
                if engine.locked[x.index()] || engine.mark[x.index()] != engine.epoch {
                    continue;
                }
                assert!(
                    (engine.gain[x.index()] - oracle[x.index()]).abs() < 1e-9,
                    "step {step}, node {x}"
                );
                checked += 1;
            }
            assert!(checked > 0, "step {step} refreshed no neighbors");
        }
    }

    /// With the default (probability-refreshing) configuration, the per-net
    /// records must stay exactly consistent with a from-scratch count
    /// after every move: occupied exactly where the side holds a pin, an
    /// effective product of exactly 0 where it holds a locked pin, and
    /// otherwise the product of a rebuild from the current probabilities.
    #[test]
    fn products_stay_consistent_under_probability_refresh() {
        let graph = generate(&GeneratorConfig::new(40, 48, 160).with_seed(34)).unwrap();
        let config = PropConfig::default();
        let balance = BalanceConstraint::bisection(40);
        let mut rng = StdRng::seed_from_u64(7);
        let mut partition = Bipartition::random(40, &mut rng);
        let mut cut = CutState::new(&graph, &partition);

        let mut engine = Engine::new(&graph, &config, balance);
        engine.seed_probabilities(&partition, &cut);
        engine.rebuild_products(&partition);
        engine.recompute_all_gains(&partition);
        for v in graph.nodes() {
            engine.store_insert(v, partition.side(v).index());
        }
        let mut locked_seen = false;
        for _ in 0..12 {
            let u = engine.select_move(&partition).expect("moves available");
            engine.apply_and_update(u, &mut partition, &mut cut);
            let snapshot = engine.nets.clone();
            engine.rebuild_products(&partition);
            for net in graph.nets() {
                let i = net.index();
                let mut pins = [0u32; 2];
                let mut locked = [0u32; 2];
                for &x in graph.pins_of(net) {
                    let s = partition.side(x).index();
                    pins[s] += 1;
                    locked[s] += u32::from(engine.locked[x.index()]);
                }
                for s in 0..2 {
                    assert_eq!(snapshot[i].occupied[s], pins[s] > 0, "net {net} side {s}");
                    if locked[s] > 0 {
                        locked_seen = true;
                        assert_eq!(snapshot[i].prod[s].to_bits(), 0, "net {net} side {s}");
                    } else {
                        assert!(
                            (snapshot[i].prod[s] - engine.nets[i].prod[s]).abs() < 1e-12,
                            "net {net} side {s}"
                        );
                    }
                }
            }
        }
        assert!(locked_seen, "no net ever held a locked pin");
    }

    /// A full pass must leave the cut state exactly consistent with a
    /// from-scratch recount, and the partition feasible.
    #[test]
    fn pass_leaves_consistent_state() {
        let graph = generate(&GeneratorConfig::new(80, 96, 330).with_seed(55)).unwrap();
        let config = PropConfig::default();
        let balance = BalanceConstraint::bisection(80);
        let mut rng = StdRng::seed_from_u64(9);
        let mut partition = Bipartition::random(80, &mut rng);
        let mut cut = CutState::new(&graph, &partition);
        let before = cut.cut_cost();

        let mut engine = Engine::new(&graph, &config, balance);
        let (committed, trace) = engine.run_pass(&mut partition, &mut cut);
        assert_eq!(trace.committed_gain, committed);
        assert!(trace.committed_moves <= trace.tentative_moves);
        assert!(trace.max_drawdown <= 0.0);
        let fresh = CutState::new(&graph, &partition);
        assert_eq!(cut, fresh);
        assert!((before - cut.cut_cost() - committed).abs() < 1e-9);
        assert!(partition.is_balanced(balance));
    }

    /// Every tentative move of a pass touches each node at most once: the
    /// pass locks nodes monotonically.
    #[test]
    fn pass_moves_each_node_at_most_once() {
        let graph = generate(&GeneratorConfig::new(30, 36, 120).with_seed(77)).unwrap();
        let config = PropConfig::default();
        let balance = BalanceConstraint::bisection(30);
        let mut rng = StdRng::seed_from_u64(10);
        let mut partition = Bipartition::random(30, &mut rng);
        let mut cut = CutState::new(&graph, &partition);
        let mut engine = Engine::new(&graph, &config, balance);
        engine.run_pass(&mut partition, &mut cut);
        let mut seen = [false; 30];
        for &u in &engine.moves {
            assert!(!seen[u.index()], "node {u} moved twice");
            seen[u.index()] = true;
        }
        assert!(!engine.moves.is_empty());
    }

    /// A product clock that wraps mid-pass changes nothing: the wrap makes
    /// every node stale, and a forced refresh recomputes the same gain. An
    /// engine started short of `u32::MAX` runs the same passes, with the
    /// same gain tables, as a fresh one, wherever the wrap lands: in the
    /// product rebuild, the refinement, or the move phase.
    #[test]
    fn clock_wrap_mid_pass_matches_a_fresh_engine() {
        let graph = generate(&GeneratorConfig::new(120, 140, 470).with_seed(42)).unwrap();
        let config = PropConfig::default();
        let balance = BalanceConstraint::new(0.45, 0.55, 120).unwrap();
        let run = |start: u32| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut partition = Bipartition::random(120, &mut rng);
            let mut cut = CutState::new(&graph, &partition);
            let mut engine = Engine::new(&graph, &config, balance);
            engine.clock = start;
            let mut passes = Vec::new();
            loop {
                let (committed, trace) = engine.run_pass(&mut partition, &mut cut);
                // The whole gain table, not only the moves: a wrongly
                // skipped refresh leaves a stale gain behind even where
                // it changes no selection.
                passes.push((engine.moves.clone(), trace, engine.gain.clone()));
                if committed <= 0.0 {
                    break;
                }
            }
            ((partition, cut.cut_cost(), passes), engine.clock)
        };
        let (fresh, ticks) = run(0);
        // Every fifth wrap point of the run: a wrap only misleads the
        // skip where the clock-read order of a node and its nets
        // straddles it, so a handful of hand-picked points can miss it.
        for short in (1..ticks).step_by(5) {
            let (result, clock) = run(u32::MAX - short);
            assert!(
                clock < u32::MAX - short,
                "{short} ticks short of the wrap never wrapped"
            );
            assert_eq!(result, fresh, "{short} ticks short of the wrap");
        }
    }

    /// Both selection backends must produce bit-identical passes: same
    /// moves, same commit, same final partition and cut.
    #[test]
    fn selection_backends_are_bit_identical() {
        let graph = generate(&GeneratorConfig::new(150, 170, 580).with_seed(66)).unwrap();
        let balance = BalanceConstraint::new(0.45, 0.55, 150).unwrap();
        for seed in 0..4u64 {
            let mut results = Vec::new();
            for selection in [SelectionBackend::AvlTree, SelectionBackend::IndexedHeap] {
                let config = PropConfig {
                    selection,
                    ..PropConfig::default()
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let mut partition = Bipartition::random(150, &mut rng);
                let mut cut = CutState::new(&graph, &partition);
                let mut engine = Engine::new(&graph, &config, balance);
                let mut passes = Vec::new();
                loop {
                    let (committed, trace) = engine.run_pass(&mut partition, &mut cut);
                    passes.push((engine.moves.clone(), trace));
                    if committed <= 0.0 {
                        break;
                    }
                }
                results.push((partition, cut.cut_cost(), passes));
            }
            assert_eq!(results[0], results[1], "avl vs indexed heap, seed {seed}");
        }
    }
}
