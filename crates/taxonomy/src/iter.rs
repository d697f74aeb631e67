//! Traversal iterators over taxonomy trees.

use crate::node::NodeId;
use crate::tree::Taxonomy;

/// Pre-order (node before its children) depth-first traversal.
pub struct Preorder<'t> {
    tax: &'t Taxonomy,
    stack: Vec<NodeId>,
}

impl<'t> Preorder<'t> {
    pub(crate) fn new(tax: &'t Taxonomy, start: NodeId) -> Self {
        Preorder {
            tax,
            stack: vec![start],
        }
    }
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.stack.pop()?;
        // Push children in reverse so the first child is visited first.
        for &c in self.tax.children(node).iter().rev() {
            self.stack.push(c);
        }
        Some(node)
    }
}

/// Iterator over the ancestors of a node, from its parent up to (and
/// excluding) the root.
pub struct Ancestors<'t> {
    tax: &'t Taxonomy,
    cur: Option<NodeId>,
}

impl<'t> Ancestors<'t> {
    /// Ancestors of `node`, nearest first.
    pub fn new(tax: &'t Taxonomy, node: NodeId) -> Self {
        Ancestors {
            tax,
            cur: tax.parent(node),
        }
    }
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.cur?;
        if node.is_root() {
            return None;
        }
        self.cur = self.tax.parent(node);
        Some(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Taxonomy;

    fn chain() -> Taxonomy {
        Taxonomy::from_edges([
            ("top", ""),
            ("mid", "top"),
            ("leaf", "mid"),
            ("leaf2", "mid"),
        ])
        .unwrap()
    }

    #[test]
    fn preorder_parent_before_children() {
        let t = chain();
        let order: Vec<NodeId> = t.preorder().collect();
        let pos = |n: &str| {
            let id = t.node_by_name(n).unwrap();
            order.iter().position(|&x| x == id).unwrap()
        };
        assert!(pos("top") < pos("mid"));
        assert!(pos("mid") < pos("leaf"));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn ancestors_excludes_root_and_self() {
        let t = chain();
        let leaf = t.node_by_name("leaf").unwrap();
        let anc: Vec<String> = Ancestors::new(&t, leaf)
            .map(|n| t.name(n).to_string())
            .collect();
        assert_eq!(anc, vec!["mid".to_string(), "top".to_string()]);
    }

    #[test]
    fn ancestors_of_level1_is_empty() {
        let t = chain();
        let top = t.node_by_name("top").unwrap();
        assert_eq!(Ancestors::new(&t, top).count(), 0);
    }
}
