//! The immutable CSR hypergraph and its builder.

use crate::error::NetlistError;
use crate::hgb::Array;
use crate::ids::{NetId, NodeId};
use crate::stats::Stats;

/// An immutable hypergraph (circuit netlist) in compressed sparse row form.
///
/// Both directions of the pin relation are stored: for every node the list
/// of nets it is connected to ([`nets_of`]), and for every net the list of
/// nodes it connects ([`pins_of`]). Nets carry a strictly positive, finite
/// `f64` weight (the paper's net cost `c(nt)`; 1.0 for pure min-cut,
/// criticality-derived for timing-driven partitioning).
///
/// Construct via [`HypergraphBuilder`], or load a `.hgb` snapshot
/// ([`hgb::load_hgb`]): each CSR array is then a section of the
/// validated file image, used in place. Accessors are the same either way.
///
/// [`nets_of`]: Hypergraph::nets_of
/// [`pins_of`]: Hypergraph::pins_of
/// [`hgb::load_hgb`]: crate::hgb::load_hgb
#[derive(Clone, PartialEq, Debug)]
pub struct Hypergraph {
    /// `node_offsets[v]..node_offsets[v+1]` indexes `node_pins`.
    pub(crate) node_offsets: Array<u32>,
    /// Concatenated incident-net lists, one slice per node.
    pub(crate) node_pins: Array<NetId>,
    /// `net_offsets[e]..net_offsets[e+1]` indexes `net_pins`.
    pub(crate) net_offsets: Array<u32>,
    /// Concatenated pin lists, one slice per net.
    pub(crate) net_pins: Array<NodeId>,
    /// Per-net cost `c(nt)`, finite and `> 0`.
    pub(crate) net_weights: Array<f64>,
    /// Per-node size/area, finite and `> 0`. `None` means all nodes have
    /// unit size (the paper's default assumption).
    pub(crate) node_weights: Option<Array<f64>>,
    /// Optional human-readable node names (e.g. from a named netlist
    /// file), laid out as on disk: `(offsets, bytes)`, name `v` being
    /// the UTF-8 run `bytes[offsets[v]..offsets[v+1]]`.
    pub(crate) node_names: Option<(Array<u32>, Array<u8>)>,
}

impl Hypergraph {
    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_offsets.len() - 1
    }

    /// Number of nets `e`.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.net_offsets.len() - 1
    }

    /// Total number of pins `m` (sum of net sizes, equivalently sum of node
    /// degrees).
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.net_pins.len()
    }

    /// Nets incident to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn nets_of(&self, node: NodeId) -> &[NetId] {
        let i = node.index();
        let lo = self.node_offsets[i] as usize;
        let hi = self.node_offsets[i + 1] as usize;
        &self.node_pins[lo..hi]
    }

    /// Nodes connected by `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[inline]
    pub fn pins_of(&self, net: NetId) -> &[NodeId] {
        let i = net.index();
        let lo = self.net_offsets[i] as usize;
        let hi = self.net_offsets[i + 1] as usize;
        &self.net_pins[lo..hi]
    }

    /// Weight (cost `c(nt)`) of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[inline]
    pub fn net_weight(&self, net: NetId) -> f64 {
        self.net_weights[net.index()]
    }

    /// Number of nets incident to `node` (its pin count `p(u)`).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.nets_of(node).len()
    }

    /// Number of pins on `net` (its size `q(nt)`).
    #[inline]
    pub fn net_size(&self, net: NetId) -> usize {
        self.pins_of(net).len()
    }

    /// Returns `true` if every net has unit weight, enabling the integral
    /// bucket-list gain structure of the classic FM implementation.
    pub fn has_unit_weights(&self) -> bool {
        self.net_weights.iter().all(|&w| w == 1.0)
    }

    /// Returns `true` if every net weight is a (positive) integer. FM
    /// gains are then integral too, so the bucket-list gain structure
    /// still applies — the case for coarsened circuits, whose merged net
    /// weights are sums of the fine unit costs.
    pub fn has_integral_weights(&self) -> bool {
        self.net_weights.iter().all(|&w| w.fract() == 0.0)
    }

    /// Size (area) of `node`; 1.0 unless node weights were set.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn node_weight(&self, node: NodeId) -> f64 {
        match &self.node_weights {
            Some(w) => w[node.index()],
            None => 1.0,
        }
    }

    /// Returns `true` if every node has unit size (the paper's default
    /// assumption; count-based balance then equals weight-based balance).
    pub fn has_unit_node_weights(&self) -> bool {
        self.node_weights.is_none() || self.node_weights.as_ref().is_some_and(|w| w.iter().all(|&x| x == 1.0))
    }

    /// Sum of all node sizes.
    pub fn total_node_weight(&self) -> f64 {
        match &self.node_weights {
            Some(w) => w.iter().sum(),
            None => self.num_nodes() as f64,
        }
    }

    /// The largest node size.
    pub fn max_node_weight(&self) -> f64 {
        match &self.node_weights {
            Some(w) => w.iter().cloned().fold(0.0, f64::max),
            None => {
                if self.num_nodes() == 0 {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }

    /// The name of `node`, if names were provided at build/parse time.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        let (offsets, bytes) = self.node_names.as_ref()?;
        let run = &bytes[offsets[node.index()] as usize..offsets[node.index() + 1] as usize];
        Some(std::str::from_utf8(run).expect("node names are validated UTF-8"))
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// Iterator over all net ids `0..e`.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetId> + '_ {
        (0..self.num_nets()).map(NetId::new)
    }

    /// Iterator over the distinct neighbors of `node` — nodes sharing at
    /// least one net with it. Each neighbor is yielded exactly once.
    ///
    /// This is the paper's neighbor relation: `u` and `v` are neighbors when
    /// connected by a common net; the average neighbor count is
    /// `d = p(q − 1)`.
    pub fn neighbors(&self, node: NodeId) -> Neighbors<'_> {
        Neighbors::new(self, node)
    }

    /// Size statistics of this hypergraph, in the paper's notation.
    pub fn stats(&self) -> Stats {
        Stats::of(self)
    }

    /// Sum of all net weights — an upper bound on any cut cost.
    pub fn total_net_weight(&self) -> f64 {
        self.net_weights.iter().sum()
    }

    /// Extracts the sub-hypergraph induced by `nodes`: nets are restricted
    /// to member pins and kept only if at least two pins remain (smaller
    /// remnants can never be cut). Net weights, node weights, and node
    /// names carry over. Returns the subgraph and the mapping from new
    /// node ids back to the originals (`back[new] = old`).
    ///
    /// Used by recursive k-way bisection, where each half is partitioned
    /// further.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains an out-of-range or duplicate id.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Hypergraph, Vec<NodeId>) {
        let mut new_id = vec![u32::MAX; self.num_nodes()];
        for (i, &v) in nodes.iter().enumerate() {
            assert!(
                new_id[v.index()] == u32::MAX,
                "duplicate node {v} in induced_subgraph"
            );
            new_id[v.index()] = u32::try_from(i).expect("subgraph too large");
        }
        let mut builder = HypergraphBuilder::new(nodes.len());
        let mut pins = Vec::new();
        for net in self.nets() {
            pins.clear();
            pins.extend(self.pins_of(net).iter().filter_map(|&v| {
                let id = new_id[v.index()];
                (id != u32::MAX).then_some(id as usize)
            }));
            if pins.len() >= 2 {
                builder
                    .add_net(self.net_weight(net), pins.iter().copied())
                    .expect("validated pins");
            }
        }
        if self.node_weights.is_some() {
            builder
                .set_node_weights(nodes.iter().map(|&v| self.node_weight(v)).collect())
                .expect("weights already validated");
        }
        if self.node_names.is_some() {
            builder.set_node_names(
                nodes
                    .iter()
                    .map(|&v| {
                        self.node_name(v)
                            .map(str::to_owned)
                            .unwrap_or_default()
                    })
                    .collect(),
            );
        }
        (
            builder.build().expect("induced subgraph is well-formed"),
            nodes.to_vec(),
        )
    }
}

/// Iterator over the distinct neighbors of a node.
///
/// Created by [`Hypergraph::neighbors`]. Allocates a visited bitmap; prefer
/// batching neighbor traversals where possible.
#[derive(Debug)]
pub struct Neighbors<'a> {
    graph: &'a Hypergraph,
    center: NodeId,
    seen: Vec<bool>,
    net_pos: usize,
    pin_pos: usize,
}

impl<'a> Neighbors<'a> {
    fn new(graph: &'a Hypergraph, center: NodeId) -> Self {
        Neighbors {
            graph,
            center,
            seen: vec![false; graph.num_nodes()],
            net_pos: 0,
            pin_pos: 0,
        }
    }
}

impl<'a> Iterator for Neighbors<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let nets = self.graph.nets_of(self.center);
        while self.net_pos < nets.len() {
            let pins = self.graph.pins_of(nets[self.net_pos]);
            while self.pin_pos < pins.len() {
                let v = pins[self.pin_pos];
                self.pin_pos += 1;
                if v != self.center && !self.seen[v.index()] {
                    self.seen[v.index()] = true;
                    return Some(v);
                }
            }
            self.net_pos += 1;
            self.pin_pos = 0;
        }
        None
    }
}

/// Incremental builder for [`Hypergraph`].
///
/// # Example
///
/// ```
/// use prop_netlist::HypergraphBuilder;
///
/// # fn main() -> Result<(), prop_netlist::NetlistError> {
/// let mut b = HypergraphBuilder::new(3);
/// b.add_net(1.0, [0, 1])?;
/// b.add_net(2.5, [0, 1, 2])?;
/// let g = b.build()?;
/// assert_eq!(g.num_pins(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct HypergraphBuilder {
    num_nodes: usize,
    net_offsets: Vec<u32>,
    net_pins: Vec<NodeId>,
    net_weights: Vec<f64>,
    node_weights: Option<Vec<f64>>,
    node_names: Option<Vec<String>>,
    scratch_mark: Vec<u32>,
    epoch: u32,
}

impl HypergraphBuilder {
    /// Creates a builder for a hypergraph over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        HypergraphBuilder {
            num_nodes,
            net_offsets: vec![0],
            net_pins: Vec::new(),
            net_weights: Vec::new(),
            node_weights: None,
            node_names: None,
            scratch_mark: vec![0; num_nodes],
            epoch: 0,
        }
    }

    /// Number of nodes this builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.net_weights.len()
    }

    /// Attaches node sizes (areas) for the weighted balance criterion.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidNodeWeight`] if any size is
    /// non-finite or not strictly positive.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != num_nodes`.
    pub fn set_node_weights(&mut self, weights: Vec<f64>) -> Result<&mut Self, NetlistError> {
        assert_eq!(
            weights.len(),
            self.num_nodes,
            "node weight count must equal node count"
        );
        if let Some(&bad) = weights.iter().find(|w| !(w.is_finite() && **w > 0.0)) {
            return Err(NetlistError::InvalidNodeWeight { weight: bad });
        }
        self.node_weights = Some(weights);
        Ok(self)
    }

    /// Attaches human-readable node names.
    ///
    /// # Panics
    ///
    /// Panics if `names.len() != num_nodes`.
    pub fn set_node_names(&mut self, names: Vec<String>) -> &mut Self {
        assert_eq!(
            names.len(),
            self.num_nodes,
            "node name count must equal node count"
        );
        self.node_names = Some(names);
        self
    }

    /// Adds a net with weight `weight` connecting the given node indices.
    /// Duplicate pins within a net are silently de-duplicated (a cell with
    /// two pins on the same net behaves as one connection for min-cut).
    ///
    /// Returns the id the new net will have.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::InvalidNetWeight`] if `weight` is not finite and
    ///   strictly positive.
    /// * [`NetlistError::NodeOutOfRange`] if any pin index is `>= num_nodes`.
    /// * [`NetlistError::EmptyNet`] if the pin list is empty.
    pub fn add_net<I>(&mut self, weight: f64, pins: I) -> Result<NetId, NetlistError>
    where
        I: IntoIterator<Item = usize>,
    {
        if !(weight.is_finite() && weight > 0.0) {
            return Err(NetlistError::InvalidNetWeight { weight });
        }
        let id = NetId::new(self.net_weights.len());
        self.epoch += 1;
        let start = self.net_pins.len();
        for pin in pins {
            if pin >= self.num_nodes {
                self.net_pins.truncate(start);
                return Err(NetlistError::NodeOutOfRange {
                    node: pin,
                    num_nodes: self.num_nodes,
                });
            }
            if self.scratch_mark[pin] != self.epoch {
                self.scratch_mark[pin] = self.epoch;
                self.net_pins.push(NodeId::new(pin));
            }
        }
        if self.net_pins.len() == start {
            return Err(NetlistError::EmptyNet);
        }
        self.net_offsets
            .push(u32::try_from(self.net_pins.len()).expect("pin count exceeds u32::MAX"));
        self.net_weights.push(weight);
        Ok(id)
    }

    /// Finalises the builder into an immutable [`Hypergraph`], constructing
    /// the node → nets direction of the pin relation.
    ///
    /// # Errors
    ///
    /// Currently infallible for a builder whose `add_net` calls all
    /// succeeded; the `Result` return leaves room for global validation.
    pub fn build(self) -> Result<Hypergraph, NetlistError> {
        let n = self.num_nodes;
        // Counting sort of pins by node to build the transposed CSR.
        let mut degree = vec![0u32; n];
        for &pin in &self.net_pins {
            degree[pin.index()] += 1;
        }
        let mut node_offsets = vec![0u32; n + 1];
        for v in 0..n {
            node_offsets[v + 1] = node_offsets[v] + degree[v];
        }
        let mut cursor: Vec<u32> = node_offsets[..n].to_vec();
        let mut node_pins = vec![NetId::default(); self.net_pins.len()];
        for net in 0..self.net_weights.len() {
            let lo = self.net_offsets[net] as usize;
            let hi = self.net_offsets[net + 1] as usize;
            for &pin in &self.net_pins[lo..hi] {
                let slot = cursor[pin.index()];
                node_pins[slot as usize] = NetId::new(net);
                cursor[pin.index()] += 1;
            }
        }
        let node_names = self.node_names.map(|names| {
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0u32);
            let mut bytes = Vec::new();
            for name in names {
                bytes.extend_from_slice(name.as_bytes());
                offsets.push(u32::try_from(bytes.len()).expect("node names exceed u32::MAX bytes"));
            }
            (offsets.into(), bytes.into())
        });
        Ok(Hypergraph {
            node_offsets: node_offsets.into(),
            node_pins: node_pins.into(),
            net_offsets: self.net_offsets.into(),
            net_pins: self.net_pins.into(),
            net_weights: self.net_weights.into(),
            node_weights: self.node_weights.map(Array::from),
            node_names,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Hypergraph {
        // Three 2-pin nets forming a triangle plus one 3-pin net.
        let mut b = HypergraphBuilder::new(3);
        b.add_net(1.0, [0, 1]).unwrap();
        b.add_net(1.0, [1, 2]).unwrap();
        b.add_net(1.0, [2, 0]).unwrap();
        b.add_net(2.0, [0, 1, 2]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_nets(), 4);
        assert_eq!(g.num_pins(), 9);
        assert!(!g.has_unit_weights());
        assert_eq!(g.total_net_weight(), 5.0);
    }

    #[test]
    fn incidence_is_consistent_both_ways() {
        let g = triangle();
        for net in g.nets() {
            for &v in g.pins_of(net) {
                assert!(g.nets_of(v).contains(&net));
            }
        }
        for v in g.nodes() {
            for &net in g.nets_of(v) {
                assert!(g.pins_of(net).contains(&v));
            }
        }
    }

    #[test]
    fn degrees_and_sizes() {
        let g = triangle();
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        assert_eq!(g.net_size(NetId::new(3)), 3);
        assert_eq!(g.net_weight(NetId::new(3)), 2.0);
    }

    #[test]
    fn neighbors_are_distinct() {
        let g = triangle();
        let mut nb: Vec<usize> = g.neighbors(NodeId::new(0)).map(NodeId::index).collect();
        nb.sort_unstable();
        assert_eq!(nb, vec![1, 2]);
    }

    #[test]
    fn duplicate_pins_are_deduplicated() {
        let mut b = HypergraphBuilder::new(2);
        b.add_net(1.0, [0, 1, 0, 1, 0]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.net_size(NetId::new(0)), 2);
    }

    #[test]
    fn out_of_range_pin_is_rejected_and_builder_recovers() {
        let mut b = HypergraphBuilder::new(2);
        let err = b.add_net(1.0, [0, 5]).unwrap_err();
        assert_eq!(
            err,
            NetlistError::NodeOutOfRange {
                node: 5,
                num_nodes: 2
            }
        );
        // Builder state must not be corrupted by the failed net.
        b.add_net(1.0, [0, 1]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_nets(), 1);
        assert_eq!(g.num_pins(), 2);
    }

    #[test]
    fn invalid_weights_are_rejected() {
        let mut b = HypergraphBuilder::new(2);
        assert!(matches!(
            b.add_net(0.0, [0, 1]),
            Err(NetlistError::InvalidNetWeight { .. })
        ));
        assert!(matches!(
            b.add_net(f64::NAN, [0, 1]),
            Err(NetlistError::InvalidNetWeight { .. })
        ));
        assert!(matches!(
            b.add_net(-1.0, [0, 1]),
            Err(NetlistError::InvalidNetWeight { .. })
        ));
        assert!(matches!(
            b.add_net(f64::INFINITY, [0, 1]),
            Err(NetlistError::InvalidNetWeight { .. })
        ));
    }

    #[test]
    fn empty_net_is_rejected() {
        let mut b = HypergraphBuilder::new(2);
        assert_eq!(b.add_net(1.0, []), Err(NetlistError::EmptyNet));
    }

    #[test]
    fn single_pin_net_is_allowed() {
        // Degenerate but legal: some benchmark formats contain them.
        let mut b = HypergraphBuilder::new(2);
        b.add_net(1.0, [1]).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.net_size(NetId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(0)), 0);
    }

    #[test]
    fn node_names_roundtrip() {
        let mut b = HypergraphBuilder::new(2);
        b.add_net(1.0, [0, 1]).unwrap();
        b.set_node_names(vec!["a".into(), "b".into()]);
        let g = b.build().unwrap();
        assert_eq!(g.node_name(NodeId::new(1)), Some("b"));
        let g2 = triangle();
        assert_eq!(g2.node_name(NodeId::new(0)), None);
    }

    #[test]
    fn empty_hypergraph_is_fine() {
        let g = HypergraphBuilder::new(0).build().unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_nets(), 0);
        assert_eq!(g.num_pins(), 0);
    }

    fn triangle_stats_graph() -> Hypergraph {
        triangle()
    }

    #[test]
    fn nodes_nets_iterators_are_exact() {
        let g = triangle_stats_graph();
        assert_eq!(g.nodes().len(), 3);
        assert_eq!(g.nets().len(), 4);
    }

    #[test]
    fn default_node_weights_are_unit() {
        let g = triangle();
        assert!(g.has_unit_node_weights());
        assert_eq!(g.node_weight(NodeId::new(1)), 1.0);
        assert_eq!(g.total_node_weight(), 3.0);
        assert_eq!(g.max_node_weight(), 1.0);
    }

    #[test]
    fn custom_node_weights_roundtrip() {
        let mut b = HypergraphBuilder::new(3);
        b.add_net(1.0, [0, 1, 2]).unwrap();
        b.set_node_weights(vec![2.0, 0.5, 4.0]).unwrap();
        let g = b.build().unwrap();
        assert!(!g.has_unit_node_weights());
        assert_eq!(g.node_weight(NodeId::new(2)), 4.0);
        assert_eq!(g.total_node_weight(), 6.5);
        assert_eq!(g.max_node_weight(), 4.0);
    }

    #[test]
    fn explicit_unit_node_weights_count_as_unit() {
        let mut b = HypergraphBuilder::new(2);
        b.add_net(1.0, [0, 1]).unwrap();
        b.set_node_weights(vec![1.0, 1.0]).unwrap();
        assert!(b.build().unwrap().has_unit_node_weights());
    }

    #[test]
    fn invalid_node_weights_rejected() {
        let mut b = HypergraphBuilder::new(2);
        b.add_net(1.0, [0, 1]).unwrap();
        assert!(matches!(
            b.set_node_weights(vec![1.0, 0.0]),
            Err(NetlistError::InvalidNodeWeight { .. })
        ));
        assert!(matches!(
            b.set_node_weights(vec![f64::NAN, 1.0]),
            Err(NetlistError::InvalidNodeWeight { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "weight count")]
    fn node_weight_length_mismatch_panics() {
        let mut b = HypergraphBuilder::new(2);
        let _ = b.set_node_weights(vec![1.0]);
    }

    #[test]
    fn induced_subgraph_restricts_nets() {
        // Chain 0-1-2-3 plus a 3-pin net {0,1,3}.
        let mut b = HypergraphBuilder::new(4);
        b.add_net(1.0, [0, 1]).unwrap();
        b.add_net(1.0, [1, 2]).unwrap();
        b.add_net(1.0, [2, 3]).unwrap();
        b.add_net(2.0, [0, 1, 3]).unwrap();
        let g = b.build().unwrap();
        let (sub, back) = g.induced_subgraph(&[NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
        assert_eq!(sub.num_nodes(), 3);
        // Surviving nets: {0,1} and {0,1,3}; {1,2} and {2,3} collapse.
        assert_eq!(sub.num_nets(), 2);
        assert_eq!(sub.net_weight(NetId::new(1)), 2.0);
        assert_eq!(back, vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn induced_subgraph_carries_weights_and_names() {
        let mut b = HypergraphBuilder::new(3);
        b.add_net(1.0, [0, 1, 2]).unwrap();
        b.set_node_weights(vec![1.0, 2.0, 3.0]).unwrap();
        b.set_node_names(vec!["x".into(), "y".into(), "z".into()]);
        let g = b.build().unwrap();
        let (sub, _) = g.induced_subgraph(&[NodeId::new(2), NodeId::new(0)]);
        assert_eq!(sub.node_weight(NodeId::new(0)), 3.0);
        assert_eq!(sub.node_name(NodeId::new(0)), Some("z"));
        assert_eq!(sub.node_name(NodeId::new(1)), Some("x"));
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        let mut b = HypergraphBuilder::new(2);
        b.add_net(1.0, [0, 1]).unwrap();
        let g = b.build().unwrap();
        let _ = g.induced_subgraph(&[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn empty_graph_weight_queries() {
        let g = HypergraphBuilder::new(0).build().unwrap();
        assert_eq!(g.total_node_weight(), 0.0);
        assert_eq!(g.max_node_weight(), 0.0);
        assert!(g.has_unit_node_weights());
    }
}
