//! Index newtypes for nodes and nets.

use std::fmt;

/// Identifier of a node (cell/component) in a [`Hypergraph`].
///
/// Node ids are dense indices in `0..num_nodes`. The newtype prevents
/// accidental mixing of node and net indices.
///
/// [`Hypergraph`]: crate::Hypergraph
// `repr(transparent)`: a `.hgb` pin section is read in place as
// `[NodeId]` (see `hgb::raw::Pod`).
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u32);

/// Identifier of a net (hyperedge) in a [`Hypergraph`].
///
/// Net ids are dense indices in `0..num_nets`.
///
/// [`Hypergraph`]: crate::Hypergraph
// `repr(transparent)`, as for `NodeId`.
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NetId(u32);

macro_rules! impl_id {
    ($t:ident, $doc:literal) => {
        impl $t {
            #[doc = concat!("Creates a new ", $doc, " id from a dense index.")]
            ///
            /// # Panics
            ///
            /// Panics if `index` exceeds `u32::MAX`.
            #[inline]
            pub fn new(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index exceeds u32::MAX"))
            }

            #[doc = concat!("Returns the dense index of this ", $doc, ".")]
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $t {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$t> for u32 {
            #[inline]
            fn from(id: $t) -> u32 {
                id.0
            }
        }

        impl From<$t> for usize {
            #[inline]
            fn from(id: $t) -> usize {
                id.index()
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

impl_id!(NodeId, "node");
impl_id!(NetId, "net");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.index(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(NodeId::from(42u32), id);
        assert_eq!(id.to_string(), "42");
    }

    #[test]
    fn net_id_roundtrip() {
        let id = NetId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(usize::from(id), 7);
        assert_eq!(id.to_string(), "7");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(NetId::new(0) < NetId::new(10));
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn node_id_overflow_panics() {
        let _ = NodeId::new(usize::MAX);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default().index(), 0);
        assert_eq!(NetId::default().index(), 0);
    }
}
