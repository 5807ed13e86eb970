//! The search tree: an arena of nodes whose edges carry ⟨N, P, W, Q⟩.

use serde::{Deserialize, Serialize};

/// Statistics of one edge (s_p → s_q) per Sec. IV-A.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeStats {
    /// Flat grid-cell index this edge allocates the next group to.
    pub action: usize,
    /// Child node, created lazily on first traversal.
    pub child: Option<usize>,
    /// Visit count N.
    pub n: u32,
    /// Prior probability P from π_θ.
    pub p: f32,
    /// Accumulated value W.
    pub w: f64,
}

impl EdgeStats {
    /// The mean value Q = W / N (0 before any visit), Eq. 12.
    #[inline]
    pub fn q(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.w / self.n as f64
        }
    }
}

/// One node: a partial allocation at depth `depth` (t − 1 groups placed).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Tree depth = number of groups already placed.
    pub depth: usize,
    /// Outgoing edges, present once the node is *expanded*; `None` marks an
    /// unexplored node (the selection target s_s).
    pub edges: Option<Vec<EdgeStats>>,
    /// Cached terminal reward (terminal nodes are evaluated with the real
    /// pipeline exactly once).
    pub terminal_reward: Option<f64>,
}

/// Arena-allocated search tree.
///
/// A child is always allocated after its parent, so every edge points to a
/// larger index than the node it leaves. [`SearchTree::advance_root`]
/// keeps only the new root's subtree, so after the first committed action
/// the arena holds exactly the nodes reachable from the root, with the
/// root at index 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTree {
    nodes: Vec<Node>,
    root: usize,
    /// Nodes allocated earlier and dropped by [`SearchTree::advance_root`].
    /// Absent from trees serialized before compaction existed, whose
    /// arenas still hold every node they allocated.
    #[serde(default)]
    dropped: usize,
}

impl SearchTree {
    /// A tree with a single unexplored root at depth 0 (the empty
    /// placement).
    pub fn new() -> Self {
        SearchTree {
            nodes: vec![Node {
                depth: 0,
                edges: None,
                terminal_reward: None,
            }],
            root: 0,
            dropped: 0,
        }
    }

    /// Current root node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Moves the root to `child` (tree reuse after committing an action)
    /// and drops every node outside `child`'s subtree.
    ///
    /// The survivors keep their edge statistics and are renumbered in
    /// ascending old-index order; since a child always has a larger index
    /// than its parent, `child` becomes node 0. Indices held from before
    /// the call are stale afterwards.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node.
    pub fn advance_root(&mut self, child: usize) {
        assert!(child < self.nodes.len(), "node index out of range");
        // One ascending pass marks the subtree: a node is reached only from
        // a smaller index, so it is marked before the pass gets to it.
        let mut live = vec![false; self.nodes.len()];
        if let Some(mark) = live.get_mut(child) {
            *mark = true;
        }
        for (idx, node) in self.nodes.iter().enumerate().skip(child) {
            if !live.get(idx).copied().unwrap_or(false) {
                continue;
            }
            for c in node.edges.iter().flatten().filter_map(|e| e.child) {
                if let Some(mark) = live.get_mut(c) {
                    *mark = true;
                }
            }
        }
        let mut kept = 0;
        let renumber: Vec<Option<usize>> = live
            .iter()
            .map(|&l| {
                l.then(|| {
                    kept += 1;
                    kept - 1
                })
            })
            .collect();
        let old_nodes = std::mem::take(&mut self.nodes);
        self.dropped += old_nodes.len() - kept;
        self.nodes = old_nodes
            .into_iter()
            .zip(live)
            .filter(|&(_, l)| l)
            .map(|(mut node, _)| {
                for edge in node.edges.iter_mut().flatten() {
                    edge.child = edge.child.and_then(|c| renumber.get(c).copied().flatten());
                }
                node
            })
            .collect();
        self.root = 0;
    }

    /// Node count of the arena: after the first [`SearchTree::advance_root`]
    /// exactly the nodes reachable from the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Nodes allocated over the tree's lifetime, including those
    /// [`SearchTree::advance_root`] dropped.
    pub fn allocated(&self) -> usize {
        self.dropped + self.nodes.len()
    }

    /// Checks the invariants a deserialized tree must meet before it is
    /// searched: the root is in range, and every edge leads to a node in
    /// range with a larger index than the node it leaves.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let len = self.nodes.len();
        if self.root >= len {
            return Err(format!("root {} is outside its {len} nodes", self.root));
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Some(c) = node
                .edges
                .iter()
                .flatten()
                .filter_map(|e| e.child)
                .find(|&c| c <= idx || c >= len)
            {
                return Err(format!("node {idx} has an edge to node {c} of {len}"));
            }
        }
        Ok(())
    }

    /// `true` when the tree holds no nodes (never the case after `new`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable node access.
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Mutable node access.
    pub fn node_mut(&mut self, idx: usize) -> &mut Node {
        &mut self.nodes[idx]
    }

    /// Expands `node` with one edge per action, priors `priors`, and marks
    /// it explored. Edges start with N = W = 0 (Sec. IV-B2).
    ///
    /// # Panics
    ///
    /// Panics when the node is already expanded.
    pub fn expand(&mut self, node: usize, priors: &[f32]) {
        assert!(
            self.nodes[node].edges.is_none(),
            "node {node} is already expanded"
        );
        let edges = priors
            .iter()
            .enumerate()
            .map(|(action, &p)| EdgeStats {
                action,
                child: None,
                n: 0,
                p,
                w: 0.0,
            })
            .collect();
        self.nodes[node].edges = Some(edges);
    }

    /// The child node behind `(node, edge_idx)`, created on first use.
    // why: invariant, not input: callers only descend through nodes they have
    // already expanded.
    #[allow(clippy::expect_used)]
    pub fn child_of(&mut self, node: usize, edge_idx: usize) -> usize {
        let depth = self.nodes[node].depth;
        let existing = self.nodes[node].edges.as_ref().expect("expanded node")[edge_idx].child;
        match existing {
            Some(c) => c,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    depth: depth + 1,
                    edges: None,
                    terminal_reward: None,
                });
                self.nodes[node].edges.as_mut().expect("expanded node")[edge_idx].child = Some(idx);
                idx
            }
        }
    }

    /// Backpropagation (Eq. 12): every edge along `path` gains a visit and
    /// accumulates `value`.
    // why: invariant, not input: the selection path only contains expanded nodes.
    #[allow(clippy::expect_used)]
    pub fn backpropagate(&mut self, path: &[(usize, usize)], value: f64) {
        for &(node, edge_idx) in path {
            let edge = &mut self.nodes[node].edges.as_mut().expect("expanded node")[edge_idx];
            edge.n += 1;
            edge.w += value;
        }
    }

    /// Sum of child visit counts of `node` (the √Σ N term of Eq. 11).
    pub fn visit_sum(&self, node: usize) -> u32 {
        self.nodes[node]
            .edges
            .as_ref()
            .map(|es| es.iter().map(|e| e.n).sum())
            .unwrap_or(0)
    }
}

impl Default for SearchTree {
    fn default() -> Self {
        SearchTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_has_unexplored_root() {
        let t = SearchTree::new();
        assert_eq!(t.len(), 1);
        assert!(t.node(t.root()).edges.is_none());
        assert_eq!(t.node(t.root()).depth, 0);
    }

    #[test]
    fn expansion_initializes_edges_per_paper() {
        let mut t = SearchTree::new();
        t.expand(0, &[0.5, 0.3, 0.2]);
        let edges = t.node(0).edges.as_ref().unwrap();
        assert_eq!(edges.len(), 3);
        for (i, e) in edges.iter().enumerate() {
            assert_eq!(e.action, i);
            assert_eq!(e.n, 0);
            assert_eq!(e.w, 0.0);
            assert_eq!(e.q(), 0.0);
        }
        assert_eq!(edges[0].p, 0.5);
    }

    #[test]
    #[should_panic(expected = "already expanded")]
    fn double_expansion_panics() {
        let mut t = SearchTree::new();
        t.expand(0, &[1.0]);
        t.expand(0, &[1.0]);
    }

    #[test]
    fn children_are_created_lazily_and_cached() {
        let mut t = SearchTree::new();
        t.expand(0, &[0.6, 0.4]);
        let c0 = t.child_of(0, 0);
        let c0_again = t.child_of(0, 0);
        assert_eq!(c0, c0_again);
        assert_eq!(t.len(), 2);
        assert_eq!(t.node(c0).depth, 1);
        let c1 = t.child_of(0, 1);
        assert_ne!(c0, c1);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn backpropagation_updates_n_w_q() {
        let mut t = SearchTree::new();
        t.expand(0, &[1.0, 0.0]);
        let c = t.child_of(0, 0);
        t.expand(c, &[1.0]);
        let _gc = t.child_of(c, 0);
        let path = vec![(0, 0), (c, 0)];
        t.backpropagate(&path, 0.5);
        t.backpropagate(&path, 0.7);
        let e = &t.node(0).edges.as_ref().unwrap()[0];
        assert_eq!(e.n, 2);
        assert!((e.w - 1.2).abs() < 1e-12);
        assert!((e.q() - 0.6).abs() < 1e-12);
        assert_eq!(t.visit_sum(0), 2);
        assert_eq!(t.visit_sum(c), 2);
    }

    /// A tree grown by `walks` seeded descents from the root, each
    /// expanding the leaf it reaches and backpropagating a value.
    fn grown(seed: u64, walks: usize) -> SearchTree {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut t = SearchTree::new();
        for _ in 0..walks {
            let mut node = t.root();
            let mut path = Vec::new();
            while t.node(node).edges.is_some() && path.len() < 6 {
                let width = t.node(node).edges.as_ref().unwrap().len();
                let edge = next(width as u64) as usize;
                path.push((node, edge));
                node = t.child_of(node, edge);
            }
            if t.node(node).edges.is_none() {
                let width = 1 + next(4) as usize;
                let priors: Vec<f32> = (0..width).map(|i| 1.0 / (i + 1) as f32).collect();
                t.expand(node, &priors);
            }
            t.backpropagate(&path, next(1000) as f64 / 1000.0);
        }
        t
    }

    /// Nodes reachable from `idx`, itself included.
    fn reachable(t: &SearchTree, idx: usize) -> usize {
        let children = t.node(idx).edges.iter().flatten().filter_map(|e| e.child);
        1 + children.map(|c| reachable(t, c)).sum::<usize>()
    }

    /// Asserts that the subtrees under `a` in `ta` and `b` in `tb` match
    /// node for node: depth, terminal reward, and every edge's action, N,
    /// P and W.
    fn assert_same_subtree(ta: &SearchTree, a: usize, tb: &SearchTree, b: usize) {
        let (na, nb) = (ta.node(a), tb.node(b));
        assert_eq!(na.depth, nb.depth);
        assert_eq!(na.terminal_reward, nb.terminal_reward);
        assert_eq!(na.edges.is_some(), nb.edges.is_some());
        let (ea, eb) = (na.edges.iter().flatten(), nb.edges.iter().flatten());
        for (x, y) in ea.zip(eb) {
            assert_eq!(
                (x.action, x.n, x.p.to_bits()),
                (y.action, y.n, y.p.to_bits())
            );
            assert_eq!(x.w.to_bits(), y.w.to_bits());
            assert_eq!(x.child.is_some(), y.child.is_some());
            if let (Some(ca), Some(cb)) = (x.child, y.child) {
                assert_same_subtree(ta, ca, tb, cb);
            }
        }
    }

    #[test]
    fn advance_root_keeps_exactly_the_live_subtree() {
        for seed in 0..40 {
            let mut t = grown(seed, 80);
            // Descend twice: the second advance runs on a compacted arena.
            for _ in 0..2 {
                let root = t.root();
                let Some(child) = t
                    .node(root)
                    .edges
                    .iter()
                    .flatten()
                    .filter_map(|e| e.child)
                    .max()
                else {
                    break;
                };
                let before = t.clone();
                t.advance_root(child);
                assert_eq!(t.root(), 0);
                assert_eq!(t.len(), reachable(&before, child), "seed {seed}");
                assert_eq!(t.allocated(), before.allocated());
                assert_eq!(t.check(), Ok(()));
                assert_same_subtree(&before, child, &t, 0);
            }
        }
    }

    #[test]
    fn advance_root_to_a_leaf_leaves_one_node() {
        let mut t = SearchTree::new();
        t.expand(0, &[0.5, 0.5]);
        let a = t.child_of(0, 0);
        let b = t.child_of(0, 1);
        t.expand(a, &[1.0]);
        let _ = t.child_of(a, 0);
        t.advance_root(b);
        assert_eq!((t.root(), t.len(), t.allocated()), (0, 1, 4));
        assert_eq!(t.node(0).depth, 1);
    }

    #[test]
    fn check_rejects_edges_that_do_not_point_forward() {
        let mut t = SearchTree::new();
        t.expand(0, &[1.0]);
        let c = t.child_of(0, 0);
        t.expand(c, &[1.0]);
        assert_eq!(t.check(), Ok(()));
        t.node_mut(c).edges.as_mut().unwrap()[0].child = Some(0);
        assert!(t.check().is_err());
        t.node_mut(c).edges.as_mut().unwrap()[0].child = Some(9);
        assert!(t.check().is_err());
    }

    #[test]
    fn visit_sum_conserves_backpropagations() {
        // Property: after any sequence of backpropagations through the
        // root, the root's visit sum equals the number of backpropagations
        // that included a root edge.
        let mut t = SearchTree::new();
        t.expand(0, &[0.4, 0.3, 0.3]);
        let mut count = 0u32;
        for k in 0..50usize {
            let e = k % 3;
            let _ = t.child_of(0, e);
            t.backpropagate(&[(0, e)], (k as f64) * 0.01);
            count += 1;
            assert_eq!(t.visit_sum(0), count);
        }
        // Q of each edge equals its W/N.
        for e in t.node(0).edges.as_ref().unwrap() {
            if e.n > 0 {
                assert!((e.q() - e.w / e.n as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn deep_chain_allocation_is_linear() {
        // Each exploration adds exactly one node: a depth-k chain has k+1.
        let mut t = SearchTree::new();
        let mut node = 0usize;
        for depth in 1..=20 {
            t.expand(node, &[1.0]);
            node = t.child_of(node, 0);
            assert_eq!(t.len(), depth + 1);
            assert_eq!(t.node(node).depth, depth);
        }
    }

    #[test]
    fn visit_sum_of_unexpanded_node_is_zero() {
        let t = SearchTree::new();
        assert_eq!(t.visit_sum(0), 0);
    }
}
