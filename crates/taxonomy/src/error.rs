//! Error types for taxonomy construction and queries.

use std::fmt;

/// Errors that can arise while building or querying a [`crate::Taxonomy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaxonomyError {
    /// A node name was used more than once. Names must be unique because the
    /// data layer addresses taxonomy nodes by name when parsing datasets.
    DuplicateName(String),
    /// A parent was referenced before being defined.
    UnknownParent(String),
    /// The builder produced a tree with no nodes below the root.
    Empty,
    /// A node id is out of range for this taxonomy.
    InvalidNode(u32),
    /// Requested level is outside `1..=height`.
    InvalidLevel {
        /// The level that was asked for.
        requested: usize,
        /// The height of the tree (or the node's own level, for ancestor
        /// queries).
        height: usize,
    },
    /// An operation that requires a balanced taxonomy was attempted on an
    /// unbalanced one (leaves at differing depths).
    Unbalanced {
        /// Name of the offending leaf.
        leaf: String,
        /// Depth of the offending leaf.
        depth: usize,
        /// Height (maximum depth) of the tree.
        height: usize,
    },
    /// Adding this node would create a cycle (the node is its own ancestor).
    Cycle(String),
}

impl fmt::Display for TaxonomyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaxonomyError::DuplicateName(name) => {
                write!(f, "duplicate taxonomy node name: {name:?}")
            }
            TaxonomyError::UnknownParent(name) => {
                write!(f, "unknown parent node: {name:?}")
            }
            TaxonomyError::Empty => write!(f, "taxonomy has no nodes below the root"),
            TaxonomyError::InvalidNode(id) => write!(f, "invalid node id: {id}"),
            TaxonomyError::InvalidLevel { requested, height } => write!(
                f,
                "invalid taxonomy level {requested} (valid levels are 1..={height})"
            ),
            TaxonomyError::Unbalanced {
                leaf,
                depth,
                height,
            } => write!(
                f,
                "taxonomy is unbalanced: leaf {leaf:?} is at depth {depth}, height is {height}"
            ),
            TaxonomyError::Cycle(name) => {
                write!(f, "taxonomy edge would create a cycle at node {name:?}")
            }
        }
    }
}

impl std::error::Error for TaxonomyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TaxonomyError::DuplicateName("milk".into());
        assert!(e.to_string().contains("milk"));
        let e = TaxonomyError::InvalidLevel {
            requested: 9,
            height: 3,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains("1..=3"));
        let e = TaxonomyError::Unbalanced {
            leaf: "x".into(),
            depth: 2,
            height: 4,
        };
        assert!(e.to_string().contains("unbalanced"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&TaxonomyError::Empty);
    }
}
