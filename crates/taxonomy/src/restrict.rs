//! Level restriction — the paper's §2.2 device for user queries over a
//! subset of abstraction levels: *"all that needs to be changed is the
//! input to the algorithm, which would be a truncated taxonomy tree
//! containing these specific levels of interest."*

use crate::builder::TaxonomyBuilder;
use crate::error::TaxonomyError;
use crate::tree::Taxonomy;

impl Taxonomy {
    /// Build a new taxonomy containing only the given abstraction levels.
    ///
    /// `keep` must be strictly increasing, within `1..=height`, and end
    /// with `height` (the leaf level must survive, or the transaction
    /// database would no longer reference leaves). Each kept node is
    /// re-parented to its nearest kept ancestor.
    ///
    /// ```
    /// use flipper_taxonomy::Taxonomy;
    /// let t = Taxonomy::uniform(2, 2, 3).unwrap();
    /// // Drop the middle level: flips are then evaluated between level 1
    /// // and the leaves only.
    /// let r = t.restrict_levels(&[1, 3]).unwrap();
    /// assert_eq!(r.height(), 2);
    /// assert_eq!(r.leaf_count(), t.leaf_count());
    /// ```
    pub fn restrict_levels(&self, keep: &[usize]) -> Result<Taxonomy, TaxonomyError> {
        if keep.is_empty() {
            return Err(TaxonomyError::Empty);
        }
        if !keep.windows(2).all(|w| w[0] < w[1]) || keep[0] < 1 {
            return Err(TaxonomyError::InvalidLevel {
                requested: keep[0],
                height: self.height(),
            });
        }
        let last = *keep.last().expect("non-empty");
        if last != self.height() {
            return Err(TaxonomyError::InvalidLevel {
                requested: last,
                height: self.height(),
            });
        }

        let mut b = TaxonomyBuilder::new();
        for (i, &level) in keep.iter().enumerate() {
            let parent_level = if i == 0 { None } else { Some(keep[i - 1]) };
            for &node in self.nodes_at_level(level)? {
                match parent_level {
                    None => b.add_root_child(self.name(node))?,
                    Some(pl) => {
                        let anc = self.ancestor_at_level(node, pl)?;
                        b.add_child(self.name(node), self.name(anc))?;
                    }
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_middle_level() {
        let t = Taxonomy::uniform(2, 2, 3).unwrap();
        let r = t.restrict_levels(&[1, 3]).unwrap();
        assert_eq!(r.height(), 2);
        assert_eq!(r.leaf_count(), 8);
        // A leaf's level-1 ancestor is preserved across the restriction.
        for &leaf in t.leaves() {
            let orig_cat = t.ancestor_at_level(leaf, 1).unwrap();
            let new_leaf = r.node_by_name(t.name(leaf)).expect("leaf survives");
            let new_cat = r.ancestor_at_level(new_leaf, 1).unwrap();
            assert_eq!(r.name(new_cat), t.name(orig_cat));
        }
        assert!(r.validate().is_ok());
    }

    #[test]
    fn keep_bottom_levels_only() {
        let t = Taxonomy::uniform(2, 2, 3).unwrap();
        let r = t.restrict_levels(&[2, 3]).unwrap();
        assert_eq!(r.height(), 2);
        // Former level-2 nodes become the categories.
        assert_eq!(r.nodes_at_level(1).unwrap().len(), 4);
    }

    #[test]
    fn identity_restriction() {
        let t = Taxonomy::uniform(2, 3, 3).unwrap();
        let r = t.restrict_levels(&[1, 2, 3]).unwrap();
        assert_eq!(r.height(), t.height());
        assert_eq!(r.node_count(), t.node_count());
        for &leaf in t.leaves() {
            assert!(r.node_by_name(t.name(leaf)).is_some());
        }
    }

    #[test]
    fn must_keep_leaf_level() {
        let t = Taxonomy::uniform(2, 2, 3).unwrap();
        let err = t.restrict_levels(&[1, 2]).unwrap_err();
        assert!(matches!(
            err,
            TaxonomyError::InvalidLevel { requested: 2, .. }
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let t = Taxonomy::uniform(2, 2, 3).unwrap();
        assert!(t.restrict_levels(&[]).is_err());
        assert!(t.restrict_levels(&[0, 3]).is_err());
        assert!(t.restrict_levels(&[2, 2, 3]).is_err());
        assert!(t.restrict_levels(&[3, 1]).is_err());
    }

    #[test]
    fn single_level_restriction_gives_flat_tree() {
        let t = Taxonomy::uniform(3, 2, 2).unwrap();
        let r = t.restrict_levels(&[2]).unwrap();
        assert_eq!(r.height(), 1);
        assert_eq!(r.leaf_count(), 6);
        // All former leaves are now level-1 categories of their own.
        assert_eq!(r.nodes_at_level(1).unwrap().len(), 6);
    }
}
