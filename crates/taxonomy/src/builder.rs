//! Incremental construction of taxonomies, balanced by the leaf-copy rule
//! of Fig. 3 \[B\] of the paper.

use crate::error::TaxonomyError;
use crate::node::{NodeData, NodeId};
use crate::tree::Taxonomy;
use std::collections::HashMap;

/// Builder for [`Taxonomy`].
///
/// Nodes are added as `(name, parent-name)` pairs; parents must already
/// exist. [`TaxonomyBuilder::build`] balances the tree and freezes it.
///
/// Flipping patterns compare correlations of the *same* itemset across every
/// abstraction level, so every item needs a generalization at every level.
/// `build` therefore extends each leaf shallower than the tree height with
/// synthetic copies of itself down to the leaf level (Fig. 3 \[B\], the
/// repair the paper's experiments use). A copy generalizes to the original,
/// so the correlation chain simply repeats across the padded levels; on an
/// already balanced tree nothing is added.
///
/// ```
/// use flipper_taxonomy::TaxonomyBuilder;
/// let mut b = TaxonomyBuilder::new();
/// b.add_root_child("drinks").unwrap();
/// b.add_child("beer", "drinks").unwrap();
/// b.add_child("canned beer", "beer").unwrap();
/// let tax = b.build().unwrap();
/// assert_eq!(tax.height(), 3);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TaxonomyBuilder {
    /// name, parent index into `names` (None = root child), synthetic flag.
    entries: Vec<(String, Option<usize>, bool)>,
    index: HashMap<String, usize>,
}

impl TaxonomyBuilder {
    /// Create an empty builder (the root node is implicit).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes added so far (excluding the implicit root).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add a level-1 node (direct child of the root).
    pub fn add_root_child(&mut self, name: &str) -> Result<(), TaxonomyError> {
        self.insert(name, None)
    }

    /// Add `name` as a child of the previously added node `parent`.
    pub fn add_child(&mut self, name: &str, parent: &str) -> Result<(), TaxonomyError> {
        let p = *self
            .index
            .get(parent)
            .ok_or_else(|| TaxonomyError::UnknownParent(parent.to_string()))?;
        self.insert(name, Some(p))
    }

    fn insert(&mut self, name: &str, parent: Option<usize>) -> Result<(), TaxonomyError> {
        if self.index.contains_key(name) {
            return Err(TaxonomyError::DuplicateName(name.to_string()));
        }
        if Some(name) == parent.map(|p| self.entries[p].0.as_str()) {
            return Err(TaxonomyError::Cycle(name.to_string()));
        }
        self.index.insert(name.to_string(), self.entries.len());
        self.entries.push((name.to_string(), parent, false));
        Ok(())
    }

    /// Depth of entry `i` (1 = child of root).
    fn depth(&self, i: usize) -> usize {
        let mut d = 1;
        let mut cur = self.entries[i].1;
        while let Some(p) = cur {
            d += 1;
            cur = self.entries[p].1;
        }
        d
    }

    /// Finalize the taxonomy, padding every shallow leaf to the tree height.
    pub fn build(mut self) -> Result<Taxonomy, TaxonomyError> {
        if self.entries.is_empty() {
            return Err(TaxonomyError::Empty);
        }
        let depths: Vec<usize> = (0..self.entries.len()).map(|i| self.depth(i)).collect();
        let mut has_child = vec![false; self.entries.len()];
        for e in &self.entries {
            if let Some(p) = e.1 {
                has_child[p] = true;
            }
        }
        let height = depths.iter().copied().max().ok_or(TaxonomyError::Empty)?;
        self.pad_leaves(&depths, &has_child, height)?;
        self.freeze()
    }

    /// Fig. 3 [B]: pad each shallow leaf with synthetic self-copies.
    fn pad_leaves(
        &mut self,
        depths: &[usize],
        has_child: &[bool],
        height: usize,
    ) -> Result<(), TaxonomyError> {
        let n = self.entries.len();
        for i in 0..n {
            if has_child[i] || depths[i] == height {
                continue;
            }
            let mut parent = i;
            for pad in 1..=(height - depths[i]) {
                let name = format!("{}#{}", self.entries[i].0, pad);
                if self.index.contains_key(&name) {
                    return Err(TaxonomyError::DuplicateName(name));
                }
                self.index.insert(name.clone(), self.entries.len());
                self.entries.push((name, Some(parent), true));
                parent = self.entries.len() - 1;
            }
        }
        Ok(())
    }

    /// Convert entries into the arena representation, assigning ids in
    /// level order so that parents always precede children.
    fn freeze(self) -> Result<Taxonomy, TaxonomyError> {
        let n = self.entries.len();
        let depths: Vec<usize> = (0..n).map(|i| self.depth(i)).collect();
        let height = depths.iter().copied().max().ok_or(TaxonomyError::Empty)?;

        // Order entries by (depth, insertion order) so ids are level-ordered.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (depths[i], i));
        let mut new_id = vec![0u32; n];
        for (rank, &i) in order.iter().enumerate() {
            new_id[i] = (rank + 1) as u32; // +1: root takes id 0
        }

        let mut nodes = Vec::with_capacity(n + 1);
        nodes.push(NodeData {
            name: "<root>".to_string(),
            parent: None,
            level: 0,
            children: Vec::new(),
            synthetic: false,
        });
        let mut name_to_id = HashMap::with_capacity(n + 1);
        name_to_id.insert("<root>".to_string(), NodeId::ROOT);
        for &i in &order {
            let (name, parent, synthetic) = &self.entries[i];
            let pid = match parent {
                None => NodeId::ROOT,
                Some(p) => NodeId(new_id[*p]),
            };
            let id = NodeId(new_id[i]);
            nodes.push(NodeData {
                name: name.clone(),
                parent: Some(pid),
                level: depths[i],
                children: Vec::new(),
                synthetic: *synthetic,
            });
            name_to_id.insert(name.clone(), id);
        }
        // Children lists and level index.
        let mut levels = vec![Vec::new(); height + 1];
        levels[0].push(NodeId::ROOT);
        for idx in 1..nodes.len() {
            let id = NodeId(idx as u32);
            // lint:allow(panic-hygiene) every non-root node was pushed with Some(parent) in the loop above
            let parent = nodes[idx].parent.expect("non-root");
            let level = nodes[idx].level;
            nodes[parent.index()].children.push(id);
            levels[level].push(id);
        }
        let tax = Taxonomy {
            nodes,
            name_to_id,
            height,
            levels,
        };
        tax.validate()?;
        Ok(tax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unbalanced tree of Fig. 3: b-leaves b11, b12 hang directly off b
    /// (no b1 between them) in the original figure; here we model the figure
    /// exactly: category b has a child b2 (internal) and direct leaf
    /// children b11, b12.
    fn fig3_builder() -> TaxonomyBuilder {
        let mut b = TaxonomyBuilder::new();
        for (c, p) in [
            ("a", ""),
            ("b", ""),
            ("a1", "a"),
            ("a2", "a"),
            ("b2", "b"),
            ("a11", "a1"),
            ("a12", "a1"),
            ("a21", "a2"),
            ("a22", "a2"),
            ("b11", "b"),
            ("b12", "b"),
            ("b21", "b2"),
            ("b22", "b2"),
        ] {
            if p.is_empty() {
                b.add_root_child(c).unwrap();
            } else {
                b.add_child(c, p).unwrap();
            }
        }
        b
    }

    #[test]
    fn leaf_copy_pads_to_full_height() {
        let t = fig3_builder().build().unwrap();
        assert_eq!(t.height(), 3);
        // b11 and b12 each gained one synthetic copy.
        let b11 = t.node_by_name("b11").unwrap();
        let b11c = t.node_by_name("b11#1").unwrap();
        assert_eq!(t.parent(b11c), Some(b11));
        assert!(t.is_synthetic(b11c));
        assert!(!t.is_synthetic(b11));
        assert_eq!(t.level_of(b11c), 3);
        assert!(t.validate().is_ok());
        // Leaves: 8 original leaves, but b11/b12 replaced by their copies.
        assert_eq!(t.leaf_count(), 8);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = TaxonomyBuilder::new();
        b.add_root_child("x").unwrap();
        assert_eq!(
            b.add_root_child("x").unwrap_err(),
            TaxonomyError::DuplicateName("x".into())
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = TaxonomyBuilder::new();
        assert!(matches!(
            b.add_child("y", "nope").unwrap_err(),
            TaxonomyError::UnknownParent(_)
        ));
    }

    #[test]
    fn empty_build_rejected() {
        assert_eq!(
            TaxonomyBuilder::new().build().unwrap_err(),
            TaxonomyError::Empty
        );
    }

    #[test]
    fn ids_are_level_ordered() {
        let t = fig3_builder().build().unwrap();
        for id in t.node_ids() {
            if let Some(p) = t.parent(id) {
                assert!(p < id, "parent {p} must precede child {id}");
            }
        }
    }

    #[test]
    fn builder_len_tracks_insertions() {
        let mut b = TaxonomyBuilder::new();
        assert!(b.is_empty());
        b.add_root_child("x").unwrap();
        b.add_child("y", "x").unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn single_level_taxonomy() {
        let mut b = TaxonomyBuilder::new();
        b.add_root_child("only").unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.leaves().len(), 1);
    }

    #[test]
    fn deep_chain() {
        let mut b = TaxonomyBuilder::new();
        b.add_root_child("l1").unwrap();
        let mut prev = "l1".to_string();
        for i in 2..=6 {
            let name = format!("l{i}");
            b.add_child(&name, &prev).unwrap();
            prev = name;
        }
        let t = b.build().unwrap();
        assert_eq!(t.height(), 6);
        let leaf = t.node_by_name("l6").unwrap();
        assert_eq!(
            t.ancestor_at_level(leaf, 1).unwrap(),
            t.node_by_name("l1").unwrap()
        );
    }
}
