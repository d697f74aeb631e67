//! # flipper-taxonomy
//!
//! Taxonomy (*is-a* hierarchy) trees for multi-level correlation mining, as
//! used by the Flipper algorithm of Barsky et al., *Mining Flipping
//! Correlations from Large Datasets with Taxonomies* (PVLDB 5(4), 2011).
//!
//! A taxonomy maps every leaf item of a transaction database to a chain of
//! generalizations: `canned beer → beer → drinks`. Flipping-pattern mining
//! contrasts correlations of the *same* itemset at every abstraction level,
//! which requires a **balanced** tree — every leaf at the same depth. This
//! crate provides:
//!
//! * an arena-backed [`Taxonomy`] with O(1) parent/children/level access and
//!   ancestor queries;
//! * a [`TaxonomyBuilder`] accepting arbitrary (possibly unbalanced) input
//!   and the two rebalancing strategies of the paper's Fig. 3
//!   ([`RebalancePolicy::LeafCopy`] and [`RebalancePolicy::Truncate`]);
//! * traversal iterators and Graphviz [`dot`] export.
//!
//! ```
//! use flipper_taxonomy::{Taxonomy, RebalancePolicy};
//!
//! let tax = Taxonomy::from_edges(
//!     [("drinks", ""), ("food", ""),
//!      ("beer", "drinks"), ("soda", "drinks"),
//!      ("bread", "food"), ("cheese", "food")],
//!     RebalancePolicy::RequireBalanced,
//! ).unwrap();
//!
//! let beer = tax.node_by_name("beer").unwrap();
//! let drinks = tax.node_by_name("drinks").unwrap();
//! assert_eq!(tax.ancestor_at_level(beer, 1).unwrap(), drinks);
//! assert_eq!(tax.height(), 2);
//! ```

mod builder;
pub mod dot;
mod error;
pub mod iter;
mod node;
mod restrict;
mod tree;

pub use builder::{RebalancePolicy, TaxonomyBuilder};
pub use error::TaxonomyError;
pub use node::NodeId;
pub use tree::Taxonomy;

#[cfg(test)]
mod proptests {
    //! Property-style tests, ported from `proptest` strategies to plain
    //! loops for the offline (dependency-free) build. The original strategy
    //! drew uniform trees from the grid 1–3 roots × 1–3 fanout × 1–3 height;
    //! that space is small enough to check *exhaustively*, which is strictly
    //! stronger than sampling it.

    use super::*;

    /// Every uniform tree over the small parameter grid exercised by the
    /// algorithm (1–3 roots, fanout 1–3, height 1–3).
    fn all_taxonomies() -> impl Iterator<Item = Taxonomy> {
        (1usize..4).flat_map(move |roots| {
            (1usize..4).flat_map(move |fanout| {
                (1usize..4).map(move |height| Taxonomy::uniform(roots, fanout, height).unwrap())
            })
        })
    }

    #[test]
    fn ancestor_levels_are_consistent() {
        for tax in all_taxonomies() {
            for &leaf in tax.leaves() {
                for h in 1..=tax.height() {
                    let anc = tax.ancestor_at_level(leaf, h).unwrap();
                    assert_eq!(tax.level_of(anc), h);
                    if h < tax.height() {
                        assert!(tax.is_ancestor(anc, leaf));
                    } else {
                        assert_eq!(anc, leaf);
                    }
                }
            }
        }
    }

    #[test]
    fn leaf_descendants_partition_leaves() {
        // Leaf descendants of level-1 nodes partition the leaf set.
        for tax in all_taxonomies() {
            let mut all: Vec<NodeId> = Vec::new();
            for &cat in tax.nodes_at_level(1).unwrap() {
                all.extend(tax.leaf_descendants(cat));
            }
            all.sort_unstable();
            assert_eq!(all.as_slice(), tax.leaves());
        }
    }

    #[test]
    fn lca_is_symmetric_and_ancestral() {
        for tax in all_taxonomies() {
            let leaves = tax.leaves();
            for &a in leaves.iter().take(4) {
                for &b in leaves.iter().rev().take(4) {
                    let l = tax.lca(a, b);
                    assert_eq!(l, tax.lca(b, a));
                    assert!(l == a || tax.is_ancestor(l, a));
                    assert!(l == b || tax.is_ancestor(l, b));
                }
            }
        }
    }

    #[test]
    fn distance_is_a_metric_on_sampled_nodes() {
        for tax in all_taxonomies() {
            let nodes: Vec<NodeId> = tax.node_ids().skip(1).collect();
            let sample: Vec<NodeId> = nodes.iter().copied().take(6).collect();
            for &a in &sample {
                assert_eq!(tax.distance(a, a), 0);
                for &b in &sample {
                    assert_eq!(tax.distance(a, b), tax.distance(b, a));
                    for &c in &sample {
                        assert!(tax.distance(a, c) <= tax.distance(a, b) + tax.distance(b, c));
                    }
                }
            }
        }
    }

    #[test]
    fn clone_roundtrip() {
        for tax in all_taxonomies() {
            let back = tax.clone();
            assert_eq!(tax, back);
            assert!(back.validate().is_ok());
        }
    }
}
