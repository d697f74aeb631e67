//! The balanced taxonomy tree (`is-a` hierarchy) at the heart of multi-level
//! correlation mining.
//!
//! A [`Taxonomy`] models the paper's tree `T`: the root sits at abstraction
//! level 0 and is excluded from mining; level 1 holds the most general
//! categories; level `H` (= [`Taxonomy::height`]) holds the leaf items that
//! actually appear in transactions. Every leaf is at exactly level `H` — the
//! builder enforces this, rebalancing unbalanced input per Fig. 3 of the
//! paper.

use crate::error::TaxonomyError;
use crate::node::{NodeData, NodeId};
use std::collections::HashMap;

/// A balanced taxonomy tree.
///
/// Construct one with [`crate::TaxonomyBuilder`] or the convenience
/// constructors [`Taxonomy::uniform`] / [`Taxonomy::from_edges`].
///
/// # Invariants
///
/// * node 0 is the root at level 0;
/// * every non-root node has a parent one level above it;
/// * every leaf (childless node) is at level `height`;
/// * node names are unique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taxonomy {
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) name_to_id: HashMap<String, NodeId>,
    pub(crate) height: usize,
    /// `levels[h]` lists the node ids at abstraction level `h` (ascending).
    pub(crate) levels: Vec<Vec<NodeId>>,
}

impl Taxonomy {
    /// Height `H` of the tree: the number of abstraction levels below the
    /// root. Leaves live at level `H`; the shallowest minable level is 1.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of nodes, including the root.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf items (nodes at level `height`).
    #[inline]
    pub fn leaf_count(&self) -> usize {
        self.levels[self.height].len()
    }

    /// The unique name of `node`.
    ///
    /// # Panics
    /// Panics if `node` is out of range for this taxonomy.
    #[inline]
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].name
    }

    /// Look a node up by its unique name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_to_id.get(name).copied()
    }

    /// Parent of `node`, or `None` for the root.
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// Children of `node` in insertion order.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].children
    }

    /// Abstraction level of `node` (0 = root, `height` = leaves).
    #[inline]
    pub fn level_of(&self, node: NodeId) -> usize {
        self.nodes[node.index()].level
    }

    /// Whether `node` is a leaf (sits at level `height`).
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node.index()].children.is_empty()
    }

    /// Whether `node` is a synthetic rebalancing copy (Fig. 3 \[B\]).
    #[inline]
    pub fn is_synthetic(&self, node: NodeId) -> bool {
        self.nodes[node.index()].synthetic
    }

    /// All nodes at abstraction level `h`, in ascending id order.
    ///
    /// # Errors
    /// Returns [`TaxonomyError::InvalidLevel`] if `h > height`. Level 0 is
    /// allowed and yields the root alone.
    pub fn nodes_at_level(&self, h: usize) -> Result<&[NodeId], TaxonomyError> {
        self.levels
            .get(h)
            .map(Vec::as_slice)
            .ok_or(TaxonomyError::InvalidLevel {
                requested: h,
                height: self.height,
            })
    }

    /// Leaf items: the nodes at level `height`, ascending by id.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.levels[self.height]
    }

    /// Ancestor of `node` at level `h`.
    ///
    /// If `node` is already at level `h`, returns `node` itself. Returns an
    /// error if `h` exceeds the node's own level (a node has no descendants
    /// that are its "ancestors") or is outside the tree.
    pub fn ancestor_at_level(&self, node: NodeId, h: usize) -> Result<NodeId, TaxonomyError> {
        let lvl = self.level_of(node);
        if h > lvl || h > self.height {
            return Err(TaxonomyError::InvalidLevel {
                requested: h,
                height: lvl,
            });
        }
        let mut cur = node;
        for _ in h..lvl {
            cur = self
                .parent(cur)
                .ok_or(TaxonomyError::InvalidNode(cur.as_u32()))?;
        }
        Ok(cur)
    }

    /// The level-1 ancestor (top category) of `node`.
    ///
    /// The paper requires all items of a flipping pattern to descend from
    /// *different* level-1 nodes; this accessor implements that check.
    pub fn top_category(&self, node: NodeId) -> Result<NodeId, TaxonomyError> {
        self.ancestor_at_level(node, 1)
    }

    /// Path from `node` up to (and excluding) the root: `[node, parent, …,
    /// level-1 ancestor]`.
    pub fn path_to_root(&self, node: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.level_of(node));
        let mut cur = Some(node);
        while let Some(n) = cur {
            if n.is_root() {
                break;
            }
            path.push(n);
            cur = self.parent(n);
        }
        path
    }

    /// Whether `anc` is an ancestor of `node` (a node is not its own
    /// ancestor).
    pub fn is_ancestor(&self, anc: NodeId, node: NodeId) -> bool {
        if self.level_of(anc) >= self.level_of(node) {
            return false;
        }
        self.ancestor_at_level(node, self.level_of(anc))
            .map(|a| a == anc)
            .unwrap_or(false)
    }

    /// Lowest common ancestor of two nodes (may be the root).
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.level_of(a) > self.level_of(b) {
            a = self.parent(a).expect("non-root has parent");
        }
        while self.level_of(b) > self.level_of(a) {
            b = self.parent(b).expect("non-root has parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root has parent");
            b = self.parent(b).expect("non-root has parent");
        }
        a
    }

    /// Number of edges on the shortest path between `a` and `b` in the tree
    /// (the "taxonomy distance" used by surprisingness-ranking baselines).
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let l = self.lca(a, b);
        (self.level_of(a) - self.level_of(l)) + (self.level_of(b) - self.level_of(l))
    }

    /// All leaf descendants of `node` (if `node` is a leaf, just itself).
    pub fn leaf_descendants(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if self.is_leaf(n) {
                out.push(n);
            } else {
                stack.extend_from_slice(self.children(n));
            }
        }
        out.sort_unstable();
        out
    }

    /// All descendants of `node` at level `h` (empty if `h <= level(node)`).
    pub fn descendants_at_level(&self, node: NodeId, h: usize) -> Vec<NodeId> {
        if h <= self.level_of(node) || h > self.height {
            return Vec::new();
        }
        let mut frontier = vec![node];
        for _ in self.level_of(node)..h {
            let mut next = Vec::new();
            for n in frontier {
                next.extend_from_slice(self.children(n));
            }
            frontier = next;
        }
        frontier.sort_unstable();
        frontier
    }

    /// Iterate over all node ids in id order (root first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Pre-order depth-first traversal starting at the root.
    pub fn preorder(&self) -> crate::iter::Preorder<'_> {
        crate::iter::Preorder::new(self, NodeId::ROOT)
    }

    /// Validate all structural invariants; used by tests and after
    /// deserialization. Returns the first violation found.
    pub fn validate(&self) -> Result<(), TaxonomyError> {
        if self.nodes.len() < 2 {
            return Err(TaxonomyError::Empty);
        }
        for id in self.node_ids() {
            let d = &self.nodes[id.index()];
            match d.parent {
                None => {
                    if !id.is_root() {
                        return Err(TaxonomyError::InvalidNode(id.as_u32()));
                    }
                }
                Some(p) => {
                    if p.index() >= self.nodes.len() {
                        return Err(TaxonomyError::UnknownParent(d.name.clone()));
                    }
                    if self.level_of(p) + 1 != d.level {
                        return Err(TaxonomyError::InvalidNode(id.as_u32()));
                    }
                    if !self.children(p).contains(&id) {
                        return Err(TaxonomyError::InvalidNode(id.as_u32()));
                    }
                }
            }
            if d.children.is_empty() && !id.is_root() && d.level != self.height {
                return Err(TaxonomyError::Unbalanced {
                    leaf: d.name.clone(),
                    depth: d.level,
                    height: self.height,
                });
            }
        }
        Ok(())
    }

    /// Build a uniform balanced taxonomy: `roots` nodes at level 1, each
    /// internal node having `fanout` children, with `height` levels.
    ///
    /// Node names are systematic: `c3` for the 4th level-1 category,
    /// `c3.0.2` for grandchildren, etc. This matches the synthetic-data
    /// setting of the paper's §5.1 (10 level-1 categories, fanout 5,
    /// 4 levels).
    pub fn uniform(roots: usize, fanout: usize, height: usize) -> Result<Self, TaxonomyError> {
        assert!(height >= 1, "height must be at least 1");
        assert!(
            roots >= 1 && fanout >= 1,
            "roots and fanout must be positive"
        );
        let mut b = crate::builder::TaxonomyBuilder::new();
        let mut frontier: Vec<String> = Vec::new();
        for r in 0..roots {
            let name = format!("c{r}");
            b.add_root_child(&name)?;
            frontier.push(name);
        }
        for _ in 1..height {
            let mut next = Vec::with_capacity(frontier.len() * fanout);
            for parent in &frontier {
                for c in 0..fanout {
                    let name = format!("{parent}.{c}");
                    b.add_child(&name, parent)?;
                    next.push(name);
                }
            }
            frontier = next;
        }
        b.build(crate::RebalancePolicy::RequireBalanced)
    }

    /// Fast-path constructor for **already balanced, level-ordered** input:
    /// entry `i` (zero-based) becomes node id `i + 1` with the given name
    /// and parent node id (`0` = child of the root), exactly as the builder
    /// would have assigned them. This is the hot deserialization path for
    /// binary storage formats whose dictionaries are written in node-id
    /// order — it skips the builder's name-index bookkeeping, per-node depth
    /// walks and the level sort, building the arena in one pass.
    ///
    /// The result is **identical** (by `==`) to what
    /// [`TaxonomyBuilder`](crate::TaxonomyBuilder) produces for the same
    /// entries in the same order, which the test-suite asserts.
    ///
    /// # Errors
    /// Returns an error — so callers can fall back to the rebalancing
    /// builder — when the input breaks any fast-path precondition:
    /// * [`TaxonomyError::Empty`] — no entries;
    /// * [`TaxonomyError::UnknownParent`] — a parent id not smaller than the
    ///   entry's own id;
    /// * [`TaxonomyError::InvalidNode`] — entries not sorted by level
    ///   (a node shallower than its predecessor);
    /// * [`TaxonomyError::DuplicateName`] — a reused name;
    /// * [`TaxonomyError::Unbalanced`] — a leaf above the maximum depth
    ///   (the input needs real rebalancing).
    pub fn from_balanced_level_order<S: AsRef<str>>(
        entries: &[(S, u32)],
    ) -> Result<Self, TaxonomyError> {
        if entries.is_empty() {
            return Err(TaxonomyError::Empty);
        }
        let n = entries.len();
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
        for (i, (name, parent)) in entries.iter().enumerate() {
            let name = name.as_ref();
            let id = NodeId((i + 1) as u32);
            if *parent >= id.as_u32() {
                return Err(TaxonomyError::UnknownParent(name.to_string()));
            }
            let pid = NodeId(*parent);
            let level = nodes[pid.index()].level + 1;
            // Level-ordered means levels never decrease along the id order;
            // anything else would have been reordered by the builder.
            if level < nodes[i].level {
                return Err(TaxonomyError::InvalidNode(id.as_u32()));
            }
            nodes.push(NodeData {
                name: name.to_string(),
                parent: Some(pid),
                level,
                children: Vec::new(),
                synthetic: false,
            });
            if name_to_id.insert(name.to_string(), id).is_some() {
                return Err(TaxonomyError::DuplicateName(name.to_string()));
            }
        }
        let height = nodes.last().ok_or(TaxonomyError::Empty)?.level;
        let mut levels = vec![Vec::new(); height + 1];
        for idx in 0..nodes.len() {
            let id = NodeId(idx as u32);
            levels[nodes[idx].level].push(id);
            if let Some(p) = nodes[idx].parent {
                nodes[p.index()].children.push(id);
            }
        }
        let tax = Taxonomy {
            nodes,
            name_to_id,
            height,
            levels,
        };
        // Catches unbalanced leaves (and any precondition the checks above
        // missed), exactly like the builder's freeze step does.
        tax.validate()?;
        Ok(tax)
    }

    /// Build a taxonomy from `(child, parent)` name pairs. Parents must be
    /// declared (as someone's child, or as a root child with parent `""`)
    /// before being referenced. An empty parent string means "child of the
    /// root".
    pub fn from_edges<'a, I>(
        edges: I,
        policy: crate::RebalancePolicy,
    ) -> Result<Self, TaxonomyError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut b = crate::builder::TaxonomyBuilder::new();
        for (child, parent) in edges {
            if parent.is_empty() {
                b.add_root_child(child)?;
            } else {
                b.add_child(child, parent)?;
            }
        }
        b.build(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RebalancePolicy;

    fn toy() -> Taxonomy {
        // The Fig. 4 taxonomy: a/b categories, a1/a2/b1/b2, then 8 leaves.
        Taxonomy::from_edges(
            [
                ("a", ""),
                ("b", ""),
                ("a1", "a"),
                ("a2", "a"),
                ("b1", "b"),
                ("b2", "b"),
                ("a11", "a1"),
                ("a12", "a1"),
                ("a21", "a2"),
                ("a22", "a2"),
                ("b11", "b1"),
                ("b12", "b1"),
                ("b21", "b2"),
                ("b22", "b2"),
            ],
            RebalancePolicy::RequireBalanced,
        )
        .unwrap()
    }

    #[test]
    fn toy_structure() {
        let t = toy();
        assert_eq!(t.height(), 3);
        assert_eq!(t.node_count(), 15); // root + 2 + 4 + 8
        assert_eq!(t.leaf_count(), 8);
        assert_eq!(t.nodes_at_level(1).unwrap().len(), 2);
        assert_eq!(t.nodes_at_level(2).unwrap().len(), 4);
        assert_eq!(t.nodes_at_level(3).unwrap().len(), 8);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn ancestors_and_categories() {
        let t = toy();
        let a11 = t.node_by_name("a11").unwrap();
        let a1 = t.node_by_name("a1").unwrap();
        let a = t.node_by_name("a").unwrap();
        assert_eq!(t.ancestor_at_level(a11, 2).unwrap(), a1);
        assert_eq!(t.ancestor_at_level(a11, 1).unwrap(), a);
        assert_eq!(t.ancestor_at_level(a11, 3).unwrap(), a11);
        assert_eq!(t.top_category(a11).unwrap(), a);
        assert!(t.ancestor_at_level(a, 2).is_err());
        assert!(t.is_ancestor(a, a11));
        assert!(!t.is_ancestor(a11, a));
        assert!(!t.is_ancestor(a11, a11));
    }

    #[test]
    fn paths_lca_distance() {
        let t = toy();
        let a11 = t.node_by_name("a11").unwrap();
        let a12 = t.node_by_name("a12").unwrap();
        let b11 = t.node_by_name("b11").unwrap();
        let a1 = t.node_by_name("a1").unwrap();
        assert_eq!(t.lca(a11, a12), a1);
        assert_eq!(t.lca(a11, b11), NodeId::ROOT);
        assert_eq!(t.distance(a11, a12), 2);
        assert_eq!(t.distance(a11, b11), 6);
        assert_eq!(t.distance(a11, a11), 0);
        let p = t.path_to_root(a11);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], a11);
        assert_eq!(p[2], t.node_by_name("a").unwrap());
    }

    #[test]
    fn descendants() {
        let t = toy();
        let a = t.node_by_name("a").unwrap();
        assert_eq!(t.leaf_descendants(a).len(), 4);
        assert_eq!(t.descendants_at_level(a, 2).len(), 2);
        assert_eq!(t.descendants_at_level(a, 3).len(), 4);
        assert!(t.descendants_at_level(a, 1).is_empty());
        let a11 = t.node_by_name("a11").unwrap();
        assert_eq!(t.leaf_descendants(a11), vec![a11]);
    }

    #[test]
    fn uniform_tree_matches_paper_defaults() {
        // Paper §5.1: 10 categories, fanout 5, 4 levels → 10*5^3 = 1250 leaves.
        let t = Taxonomy::uniform(10, 5, 4).unwrap();
        assert_eq!(t.height(), 4);
        assert_eq!(t.nodes_at_level(1).unwrap().len(), 10);
        assert_eq!(t.leaf_count(), 1250);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn uniform_tree_height_one() {
        let t = Taxonomy::uniform(4, 3, 1).unwrap();
        assert_eq!(t.height(), 1);
        assert_eq!(t.leaf_count(), 4);
        // At height 1 the level-1 nodes are themselves the leaves.
        assert_eq!(t.leaves(), t.nodes_at_level(1).unwrap());
    }

    #[test]
    fn nodes_at_invalid_level() {
        let t = toy();
        assert!(t.nodes_at_level(4).is_err());
        assert_eq!(t.nodes_at_level(0).unwrap(), &[NodeId::ROOT]);
    }

    #[test]
    fn clone_roundtrip_preserves_everything() {
        // Deep-copy equality plus validation covers the structural
        // invariants.
        let t = toy();
        let back = t.clone();
        assert_eq!(t, back);
        assert!(back.validate().is_ok());
    }

    /// Entries of `tax` as the fast-path constructor expects them: node-id
    /// order, parent encoded as a node id (synthetic nodes skipped — this
    /// mirrors what a binary dictionary stores).
    fn level_order_entries(tax: &Taxonomy) -> Vec<(String, u32)> {
        tax.node_ids()
            .skip(1)
            .filter(|&n| !tax.is_synthetic(n))
            .map(|n| {
                (
                    tax.name(n).to_string(),
                    tax.parent(n).expect("non-root").as_u32(),
                )
            })
            .collect()
    }

    #[test]
    fn fast_path_matches_builder_exactly() {
        // Balanced trees of assorted shapes: the fast path must reproduce
        // the builder's output bit for bit (ids, levels, children order,
        // name index).
        for (roots, fanout, height) in [(1usize, 1usize, 1usize), (2, 2, 2), (3, 2, 3), (2, 3, 2)] {
            let built = Taxonomy::uniform(roots, fanout, height).unwrap();
            let fast = Taxonomy::from_balanced_level_order(&level_order_entries(&built)).unwrap();
            assert_eq!(built, fast, "roots={roots} fanout={fanout} height={height}");
        }
        let built = toy();
        let fast = Taxonomy::from_balanced_level_order(&level_order_entries(&built)).unwrap();
        assert_eq!(built, fast);
    }

    #[test]
    fn fast_path_rejects_bad_input() {
        let e = |v: &[(&str, u32)]| {
            Taxonomy::from_balanced_level_order(
                &v.iter()
                    .map(|(n, p)| (n.to_string(), *p))
                    .collect::<Vec<_>>(),
            )
            .unwrap_err()
        };
        assert_eq!(
            Taxonomy::from_balanced_level_order::<String>(&[]).unwrap_err(),
            TaxonomyError::Empty
        );
        // Forward parent reference.
        assert!(matches!(
            e(&[("a", 2), ("b", 0)]),
            TaxonomyError::UnknownParent(_)
        ));
        // Self parent.
        assert!(matches!(e(&[("a", 1)]), TaxonomyError::UnknownParent(_)));
        // Duplicate name.
        assert!(matches!(
            e(&[("a", 0), ("a", 0)]),
            TaxonomyError::DuplicateName(_)
        ));
        // Not level-ordered: a level-2 node before a level-1 node.
        assert!(matches!(
            e(&[("a", 0), ("b", 1), ("c", 0), ("d", 3)]),
            TaxonomyError::InvalidNode(_)
        ));
        // Unbalanced: leaf "b" at depth 1 in a height-2 tree — the caller
        // must fall back to the rebalancing builder.
        assert!(matches!(
            e(&[("a", 0), ("b", 0), ("a1", 1)]),
            TaxonomyError::Unbalanced { .. }
        ));
    }

    #[test]
    fn preorder_visits_all_nodes_root_first() {
        let t = toy();
        let order: Vec<NodeId> = t.preorder().collect();
        assert_eq!(order.len(), t.node_count());
        assert_eq!(order[0], NodeId::ROOT);
    }
}
