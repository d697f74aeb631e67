//! Node identifiers and per-node data for taxonomy trees.

use std::fmt;

/// Identifier of a node in a [`crate::Taxonomy`].
///
/// Node ids are dense indices into the taxonomy arena: the root is always
/// `NodeId::ROOT` (id 0) and every other node has a positive id. Ids are
/// assigned in insertion order, which the builder guarantees to be
/// breadth-compatible (a parent's id is always smaller than its children's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root of every taxonomy (abstraction level 0).
    pub const ROOT: NodeId = NodeId(0);

    /// Raw index of this node in the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw `u32` value of this node id.
    #[inline]
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Construct a node id from a raw index.
    ///
    /// The id is not validated against any particular taxonomy; queries with
    /// an out-of-range id return errors or panic with a clear message.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// Whether this node is the root.
    #[inline]
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Per-node payload stored in the taxonomy arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeData {
    /// Human-readable unique name (e.g. `"whole milk"`, `"dairy"`).
    pub name: String,
    /// Parent node; `None` only for the root.
    pub parent: Option<NodeId>,
    /// Abstraction level: 0 for the root, `height` for (balanced) leaves.
    pub level: usize,
    /// Children in insertion order.
    pub children: Vec<NodeId>,
    /// Whether this node is a synthetic copy introduced by rebalancing
    /// (Fig. 3 [B] of the paper): a leaf shallower than the tree height is
    /// extended with copies of itself down to the leaf level.
    pub synthetic: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_constants() {
        assert_eq!(NodeId::ROOT.index(), 0);
        assert!(NodeId::ROOT.is_root());
        assert!(!NodeId::from_index(3).is_root());
    }

    #[test]
    fn display_and_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.to_string(), "n42");
        assert_eq!(id.as_u32(), 42);
        assert_eq!(NodeId::from_index(id.index()), id);
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
    }

    #[test]
    fn index_roundtrip() {
        // The index round-trip pins the in-memory identity.
        let id = NodeId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(NodeId::from_index(id.index()), id);
    }
}
