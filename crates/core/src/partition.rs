//! Two-way partition assignment.

use crate::balance::BalanceConstraint;
use prop_netlist::NodeId;
use rand::Rng;

/// One of the two sides of a bipartition (the paper's `V1` and `V2`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Side {
    /// The first subset, `V1`.
    A,
    /// The second subset, `V2`.
    B,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }

    /// Dense index (`A` → 0, `B` → 1) for array-indexed per-side state.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }

    /// Inverse of [`Side::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index > 1`.
    #[inline]
    pub fn from_index(index: usize) -> Side {
        match index {
            0 => Side::A,
            1 => Side::B,
            _ => panic!("side index {index} out of range"),
        }
    }
}

/// An assignment of every node to one of two sides, with side counts
/// maintained incrementally.
///
/// ```
/// use prop_core::{Bipartition, Side};
/// use prop_netlist::NodeId;
///
/// let mut p = Bipartition::from_sides(vec![Side::A, Side::A, Side::B]);
/// assert_eq!(p.count(Side::A), 2);
/// p.flip(NodeId::new(0));
/// assert_eq!(p.count(Side::A), 1);
/// assert_eq!(p.side(NodeId::new(0)), Side::B);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Bipartition {
    side: Vec<Side>,
    count: [usize; 2],
}

impl Bipartition {
    /// Builds a partition from an explicit side vector.
    pub fn from_sides(side: Vec<Side>) -> Self {
        let a = side.iter().filter(|&&s| s == Side::A).count();
        let count = [a, side.len() - a];
        Bipartition { side, count }
    }

    /// Builds a uniformly random near-equal bisection of `n` nodes: a
    /// random subset of `ceil(n/2)` nodes goes to side A. This is the
    /// "random initial partition" every iterative improver in the paper
    /// starts from.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut ids: Vec<usize> = (0..n).collect();
        // Fisher–Yates shuffle.
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let half = n.div_ceil(2);
        let mut side = vec![Side::B; n];
        for &v in &ids[..half] {
            side[v] = Side::A;
        }
        Bipartition {
            side,
            count: [half, n - half],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.side.len()
    }

    /// Returns `true` for the empty partition.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.side.is_empty()
    }

    /// The side of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn side(&self, node: NodeId) -> Side {
        self.side[node.index()]
    }

    /// Number of nodes on `side`.
    #[inline]
    pub fn count(&self, side: Side) -> usize {
        self.count[side.index()]
    }

    /// Moves `node` to the other side, returning its new side.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn flip(&mut self, node: NodeId) -> Side {
        let old = self.side[node.index()];
        let new = old.other();
        self.side[node.index()] = new;
        self.count[old.index()] -= 1;
        self.count[new.index()] += 1;
        new
    }

    /// Whether the partition satisfies the strict balance constraint.
    pub fn is_balanced(&self, balance: BalanceConstraint) -> bool {
        balance.is_feasible_counts(self.count[0], self.count[1])
    }

    /// The sides as a slice, node-indexed.
    pub fn sides(&self) -> &[Side] {
        &self.side
    }

    /// Nodes on the given side, in index order.
    pub fn nodes_on(&self, side: Side) -> impl Iterator<Item = NodeId> + '_ {
        self.side
            .iter()
            .enumerate()
            .filter(move |&(_, &s)| s == side)
            .map(|(i, _)| NodeId::new(i))
    }
}

/// FNV-1a 64 over a node→side assignment, one word per node (`0` for
/// side A, `1` for side B). The daemon reports it so clients can confirm
/// a bit-identical placement without the whole vector, and the V-cycle
/// derives its run seeds from it.
pub fn assignment_hash(sides: &[Side]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &s in sides {
        hash ^= u64::from(s == Side::B);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Running totals of node weight per side, maintained alongside a
/// [`Bipartition`] by the partitioning engines for size-constrained
/// balance (§1's "size constraints" remark).
///
/// ```
/// use prop_core::{Bipartition, Side, SideWeights};
/// use prop_netlist::HypergraphBuilder;
///
/// # fn main() -> Result<(), prop_netlist::NetlistError> {
/// let mut b = HypergraphBuilder::new(2);
/// b.add_net(1.0, [0, 1])?;
/// b.set_node_weights(vec![3.0, 1.0])?;
/// let g = b.build()?;
/// let p = Bipartition::from_sides(vec![Side::A, Side::B]);
/// let mut w = SideWeights::new(&g, &p);
/// assert_eq!(w.get(Side::A), 3.0);
/// w.apply_move(Side::A, 3.0); // node 0 moves A -> B
/// assert_eq!(w.get(Side::B), 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SideWeights {
    w: [f64; 2],
}

impl SideWeights {
    /// Computes the per-side weights of `partition` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the partition and graph disagree on the node count.
    pub fn new(graph: &prop_netlist::Hypergraph, partition: &Bipartition) -> Self {
        assert_eq!(
            graph.num_nodes(),
            partition.len(),
            "partition/graph node count mismatch"
        );
        let mut w = [0.0; 2];
        for v in graph.nodes() {
            w[partition.side(v).index()] += graph.node_weight(v);
        }
        SideWeights { w }
    }

    /// Weight currently on `side`.
    #[inline]
    pub fn get(&self, side: Side) -> f64 {
        self.w[side.index()]
    }

    /// Both weights, `[A, B]`.
    #[inline]
    pub fn as_array(&self) -> [f64; 2] {
        self.w
    }

    /// Records a move of one node of the given weight from `from` to the
    /// other side.
    #[inline]
    pub fn apply_move(&mut self, from: Side, weight: f64) {
        self.w[from.index()] -= weight;
        self.w[from.other().index()] += weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn assignment_hash_discriminates_and_is_stable() {
        let a = [Side::A, Side::B, Side::A];
        let b = [Side::A, Side::A, Side::B];
        assert_eq!(assignment_hash(&a), assignment_hash(&a));
        assert_ne!(assignment_hash(&a), assignment_hash(&b));
        assert_ne!(assignment_hash(&a[..2]), assignment_hash(&a));
    }

    #[test]
    fn from_sides_counts() {
        let p = Bipartition::from_sides(vec![Side::A, Side::B, Side::B]);
        assert_eq!(p.count(Side::A), 1);
        assert_eq!(p.count(Side::B), 2);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn flip_roundtrip() {
        let mut p = Bipartition::from_sides(vec![Side::A, Side::B]);
        assert_eq!(p.flip(NodeId::new(0)), Side::B);
        assert_eq!(p.count(Side::B), 2);
        assert_eq!(p.flip(NodeId::new(0)), Side::A);
        assert_eq!(p, Bipartition::from_sides(vec![Side::A, Side::B]));
    }

    #[test]
    fn random_is_near_equal() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [0usize, 1, 2, 7, 100, 101] {
            let p = Bipartition::random(n, &mut rng);
            assert_eq!(p.len(), n);
            assert_eq!(p.count(Side::A), n.div_ceil(2));
            assert_eq!(p.count(Side::B), n / 2);
        }
    }

    #[test]
    fn random_is_seeded() {
        let a = Bipartition::random(50, &mut StdRng::seed_from_u64(1));
        let b = Bipartition::random(50, &mut StdRng::seed_from_u64(1));
        let c = Bipartition::random(50, &mut StdRng::seed_from_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn nodes_on_lists_members() {
        let p = Bipartition::from_sides(vec![Side::A, Side::B, Side::A]);
        let a: Vec<usize> = p.nodes_on(Side::A).map(NodeId::index).collect();
        assert_eq!(a, vec![0, 2]);
    }

    #[test]
    fn side_helpers() {
        assert_eq!(Side::A.other(), Side::B);
        assert_eq!(Side::B.other(), Side::A);
        assert_eq!(Side::from_index(Side::A.index()), Side::A);
        assert_eq!(Side::from_index(1), Side::B);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_side_index_panics() {
        let _ = Side::from_index(2);
    }

    #[test]
    fn balanced_check() {
        let b = BalanceConstraint::bisection(4);
        let p = Bipartition::from_sides(vec![Side::A, Side::A, Side::B, Side::B]);
        assert!(p.is_balanced(b));
        let p = Bipartition::from_sides(vec![Side::A, Side::A, Side::A, Side::B]);
        assert!(!p.is_balanced(b));
    }
}
