//! Rooted weighted trees over subsets of graph nodes.
//!
//! Every tree in this workspace — landmark shortest-path trees, cover
//! trees — spans a subset of a host graph's nodes, and every tree edge is
//! a host-graph edge. [`Tree`] stores the tree in its own compact index
//! space (`0..size`) and keeps the mapping back to host node ids.

use crate::dijkstra::Sssp;
use crate::graph::Graph;
use crate::ids::{Cost, NodeId, Weight};

/// Index of a node *within a tree* (not a graph id).
pub type TreeIx = u32;

/// Reusable workspace for [`Tree::from_dist_parents_with`]: an
/// epoch-stamped dense graph-id → tree-index map plus the closure
/// buffer. Extracting many small trees (one per center) with one
/// scratch replaces a fresh `HashMap` per tree with two O(n) arrays
/// allocated once per worker; per-tree work stays O(tree size).
pub struct TreeScratch {
    ix: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    closed: Vec<NodeId>,
}

impl TreeScratch {
    /// Scratch for a host graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        TreeScratch { ix: vec![0; n], stamp: vec![0; n], epoch: 0, closed: Vec::new() }
    }

    fn begin(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.closed.clear();
        self.epoch
    }
}

/// A rooted weighted tree over a subset of graph nodes.
#[derive(Clone, Debug)]
pub struct Tree {
    /// Host-graph id of each tree node; `graph_ids\[0\]` is the root.
    graph_ids: Vec<u32>,
    /// Parent tree-index of each node (`u32::MAX` for the root).
    parents: Vec<TreeIx>,
    /// Weight of the edge to the parent (0 for the root).
    parent_weights: Vec<Weight>,
    /// Children adjacency, CSR-style.
    child_offsets: Vec<u32>,
    children: Vec<TreeIx>,
    /// Distance from the root along tree edges.
    depths: Vec<Cost>,
}

impl Tree {
    /// Build a tree from parallel arrays. `graph_ids\[0\]` must be the root
    /// and `parents\[0\] == u32::MAX`; every other parent index must be a
    /// valid tree index appearing *before* use is not required (any order
    /// accepted), but the parent relation must be acyclic.
    pub fn from_parents(
        graph_ids: Vec<u32>,
        parents: Vec<TreeIx>,
        parent_weights: Vec<Weight>,
    ) -> Self {
        match Self::try_from_parents(graph_ids, parents, parent_weights) {
            Ok(t) => t,
            // lint:allow(panic-free-serve): infallible wrapper over try_from_parents for internally-generated arrays; decode paths call try_from_parents directly
            Err(msg) => panic!("{msg}"),
        }
    }

    /// Fallible [`Tree::from_parents`] for data read from disk: structural
    /// corruption (length mismatch, bad parent index, cycle) is an `Err`
    /// carrying the same message [`Tree::from_parents`] panics with, and
    /// depth accumulation saturates so corrupt weights cannot overflow.
    pub fn try_from_parents(
        graph_ids: Vec<u32>,
        parents: Vec<TreeIx>,
        parent_weights: Vec<Weight>,
    ) -> Result<Self, String> {
        let n = graph_ids.len();
        if parents.len() != n || parent_weights.len() != n {
            return Err("tree arrays have mismatched lengths".to_string());
        }
        if n == 0 {
            return Err("tree must be non-empty".to_string());
        }
        if parents[0] != u32::MAX {
            return Err("node 0 must be the root".to_string());
        }
        // Children CSR.
        let mut deg = vec![0u32; n];
        for (i, &p) in parents.iter().enumerate() {
            if i != 0 {
                if p == u32::MAX || (p as usize) >= n {
                    return Err(format!("bad parent for node {i}"));
                }
                deg[p as usize] += 1;
            }
        }
        let mut child_offsets = vec![0u32; n + 1];
        for i in 0..n {
            child_offsets[i + 1] = child_offsets[i] + deg[i];
        }
        let mut children = vec![0 as TreeIx; child_offsets[n] as usize];
        let mut cursor: Vec<u32> = child_offsets[..n].to_vec();
        for (i, &p) in parents.iter().enumerate() {
            if i != 0 {
                children[cursor[p as usize] as usize] = i as TreeIx;
                cursor[p as usize] += 1;
            }
        }
        // Depths via BFS from the root (children arrays make this easy);
        // also validates acyclicity by counting visits.
        let mut depths = vec![Cost::MAX; n];
        depths[0] = 0;
        let mut stack = vec![0 as TreeIx];
        let mut visited = 1usize;
        while let Some(u) = stack.pop() {
            let (s, e) =
                (child_offsets[u as usize] as usize, child_offsets[u as usize + 1] as usize);
            for &c in &children[s..e] {
                depths[c as usize] = depths[u as usize].saturating_add(parent_weights[c as usize]);
                visited += 1;
                stack.push(c);
            }
        }
        if visited != n {
            return Err("parent relation is not a connected tree".to_string());
        }
        Ok(Tree { graph_ids, parents, parent_weights, child_offsets, children, depths })
    }

    /// Extract the shortest-path tree of an [`Sssp`] run restricted to a
    /// set of member nodes. Every member must be reachable and the set
    /// must be *ancestor-closed enough*: for each member, its whole
    /// shortest path to the source is added (so the result is connected).
    pub fn from_sssp(g: &Graph, sp: &Sssp, members: impl IntoIterator<Item = NodeId>) -> Self {
        Self::from_dist_parents(g, sp.source, &sp.dist, &sp.parent, members)
    }

    /// [`Tree::from_sssp`] over raw distance/parent slices — the form a
    /// [`crate::dijkstra::DijkstraScratch`] run exposes, so matrix-free
    /// construction can extract many small trees without allocating an
    /// [`Sssp`] (or any O(n) marker) per tree. Work and memory are
    /// O(tree size), not O(n).
    pub fn from_dist_parents(
        g: &Graph,
        source: NodeId,
        dist: &[Cost],
        parent: &[u32],
        members: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        use std::collections::HashMap;
        let mut tree_ix: HashMap<u32, u32> = HashMap::new();
        // Close under parents.
        let mut closed: Vec<NodeId> = Vec::new();
        for v in members {
            assert!(dist[v.idx()] != Cost::MAX, "member {v:?} unreachable from {source:?}");
            let mut cur = v;
            while !tree_ix.contains_key(&cur.0) {
                tree_ix.insert(cur.0, u32::MAX);
                closed.push(cur);
                let p = parent[cur.idx()];
                if p == u32::MAX {
                    break;
                }
                cur = NodeId(p);
            }
        }
        tree_ix.entry(source.0).or_insert_with(|| {
            closed.push(source);
            u32::MAX
        });
        // Order: root first, then by (dist, id) for determinism.
        closed.sort_unstable_by_key(|v| (dist[v.idx()], v.0));
        debug_assert_eq!(closed[0], source);
        for (i, v) in closed.iter().enumerate() {
            tree_ix.insert(v.0, i as u32);
        }
        let graph_ids: Vec<u32> = closed.iter().map(|v| v.0).collect();
        let mut parents = Vec::with_capacity(closed.len());
        let mut parent_weights = Vec::with_capacity(closed.len());
        for &v in &closed {
            let p = parent[v.idx()];
            if p != u32::MAX && v != source {
                parents.push(tree_ix[&p]);
                parent_weights
                    .push(g.edge_weight(NodeId(p), v).expect("SPT edge must be a graph edge"));
            } else {
                parents.push(u32::MAX);
                parent_weights.push(0);
            }
        }
        Tree::from_parents(graph_ids, parents, parent_weights)
    }

    /// [`Tree::from_dist_parents`] against a reusable [`TreeScratch`]
    /// instead of a per-call hash map. Produces bit-identical trees
    /// (same `(dist, id)` node order, same parents); only the lookup
    /// structure differs.
    pub fn from_dist_parents_with(
        scratch: &mut TreeScratch,
        g: &Graph,
        source: NodeId,
        dist: &[Cost],
        parent: &[u32],
        members: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let ep = scratch.begin();
        let TreeScratch { ix, stamp, closed, .. } = scratch;
        for v in members {
            assert!(dist[v.idx()] != Cost::MAX, "member {v:?} unreachable from {source:?}");
            let mut cur = v;
            while stamp[cur.idx()] != ep {
                stamp[cur.idx()] = ep;
                closed.push(cur);
                let p = parent[cur.idx()];
                if p == u32::MAX {
                    break;
                }
                cur = NodeId(p);
            }
        }
        if stamp[source.idx()] != ep {
            stamp[source.idx()] = ep;
            closed.push(source);
        }
        // Order: root first, then by (dist, id) for determinism.
        closed.sort_unstable_by_key(|v| (dist[v.idx()], v.0));
        debug_assert_eq!(closed[0], source);
        for (i, v) in closed.iter().enumerate() {
            ix[v.idx()] = i as u32;
        }
        let graph_ids: Vec<u32> = closed.iter().map(|v| v.0).collect();
        let mut parents = Vec::with_capacity(closed.len());
        let mut parent_weights = Vec::with_capacity(closed.len());
        for &v in closed.iter() {
            let p = parent[v.idx()];
            if p != u32::MAX && v != source {
                parents.push(ix[p as usize]);
                // lint:allow(panic-free-serve): p/v is a parent edge of the dijkstra run one call above on this same graph
                let w = g.edge_weight(NodeId(p), v).expect("SPT edge must be a graph edge");
                parent_weights.push(w);
            } else {
                parents.push(u32::MAX);
                parent_weights.push(0);
            }
        }
        Tree::from_parents(graph_ids, parents, parent_weights)
    }

    /// Number of nodes in the tree.
    #[inline(always)]
    pub fn size(&self) -> usize {
        self.graph_ids.len()
    }

    /// Tree index of the root (always 0).
    #[inline(always)]
    pub fn root(&self) -> TreeIx {
        0
    }

    /// Host-graph id of tree node `t`.
    #[inline(always)]
    // lint:allow-fn(panic-free-serve): validate-then-index — every TreeIx handed out by this tree is < size(); decode checks lengths
    pub fn graph_id(&self, t: TreeIx) -> NodeId {
        NodeId(self.graph_ids[t as usize])
    }

    /// All host-graph ids, indexed by tree index.
    pub fn graph_ids(&self) -> &[u32] {
        &self.graph_ids
    }

    /// Parent tree index of every node (`u32::MAX` at the root).
    pub fn parents(&self) -> &[TreeIx] {
        &self.parents
    }

    /// Weight of every node's parent edge (0 at the root).
    pub fn parent_weights(&self) -> &[Weight] {
        &self.parent_weights
    }

    /// Tree index of graph node `v`, linear scan (use [`Tree::index_map`]
    /// for bulk lookups).
    pub fn find(&self, v: NodeId) -> Option<TreeIx> {
        self.graph_ids.iter().position(|&g| g == v.0).map(|i| i as u32)
    }

    /// Dense map graph-id -> tree index (`u32::MAX` when absent).
    pub fn index_map(&self, graph_n: usize) -> Vec<u32> {
        let mut map = vec![u32::MAX; graph_n];
        for (i, &gid) in self.graph_ids.iter().enumerate() {
            map[gid as usize] = i as u32;
        }
        map
    }

    /// Parent of `t`, if not the root.
    #[inline(always)]
    pub fn parent(&self, t: TreeIx) -> Option<TreeIx> {
        let p = self.parents[t as usize];
        if p == u32::MAX {
            None
        } else {
            Some(p)
        }
    }

    /// Weight of the edge from `t` to its parent.
    #[inline(always)]
    pub fn parent_weight(&self, t: TreeIx) -> Weight {
        self.parent_weights[t as usize]
    }

    /// Children of `t`.
    #[inline(always)]
    pub fn children(&self, t: TreeIx) -> &[TreeIx] {
        let (s, e) =
            (self.child_offsets[t as usize] as usize, self.child_offsets[t as usize + 1] as usize);
        &self.children[s..e]
    }

    /// Distance from the root along tree edges.
    #[inline(always)]
    pub fn depth(&self, t: TreeIx) -> Cost {
        self.depths[t as usize]
    }

    /// Tree radius: max depth over all nodes.
    pub fn radius(&self) -> Cost {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// Heaviest edge in the tree.
    pub fn max_edge(&self) -> Weight {
        self.parent_weights.iter().copied().max().unwrap_or(0)
    }

    /// Distance between two tree nodes along tree edges (via LCA walk;
    /// O(depth)). Used by tests and analysis, not by routing.
    pub fn tree_distance(&self, mut a: TreeIx, mut b: TreeIx) -> Cost {
        let mut cost = 0;
        while a != b {
            let (da, db) = (self.depths[a as usize], self.depths[b as usize]);
            if da >= db {
                cost += self.parent_weights[a as usize];
                a = self.parents[a as usize];
            } else {
                cost += self.parent_weights[b as usize];
                b = self.parents[b as usize];
            }
        }
        cost
    }

    /// Path between two tree nodes along tree edges, inclusive.
    pub fn tree_path(&self, a: TreeIx, b: TreeIx) -> Vec<TreeIx> {
        let mut up_a = vec![a];
        let mut up_b = vec![b];
        let (mut x, mut y) = (a, b);
        while x != y {
            let (dx, dy) = (self.depths[x as usize], self.depths[y as usize]);
            if dx >= dy {
                x = self.parents[x as usize];
                up_a.push(x);
            } else {
                y = self.parents[y as usize];
                up_b.push(y);
            }
        }
        up_b.pop(); // drop duplicate LCA
        up_a.extend(up_b.into_iter().rev());
        up_a
    }

    /// Nodes ordered by (depth, graph id): the paper's "sorted by
    /// increasing distance from the root" order used by Lemma 4 naming.
    pub fn nodes_by_depth(&self) -> Vec<TreeIx> {
        let mut order: Vec<TreeIx> = (0..self.size() as u32).collect();
        order.sort_unstable_by_key(|&t| (self.depths[t as usize], self.graph_ids[t as usize]));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::graph::graph_from_edges;

    fn sample_tree() -> Tree {
        // root 0; children 1 (w2), 2 (w1); 1's child 3 (w5).
        Tree::from_parents(vec![10, 11, 12, 13], vec![u32::MAX, 0, 0, 1], vec![0, 2, 1, 5])
    }

    #[test]
    fn structure() {
        let t = sample_tree();
        assert_eq!(t.size(), 4);
        assert_eq!(t.root(), 0);
        assert_eq!(t.graph_id(3), NodeId(13));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.children(0), &[1, 2]);
        assert_eq!(t.depth(3), 7);
        assert_eq!(t.radius(), 7);
        assert_eq!(t.max_edge(), 5);
    }

    #[test]
    fn tree_distance_and_path() {
        let t = sample_tree();
        assert_eq!(t.tree_distance(3, 2), 5 + 2 + 1);
        assert_eq!(t.tree_distance(1, 3), 5);
        assert_eq!(t.tree_distance(2, 2), 0);
        assert_eq!(t.tree_path(3, 2), vec![3, 1, 0, 2]);
        assert_eq!(t.tree_path(0, 3), vec![0, 1, 3]);
    }

    #[test]
    fn find_and_index_map() {
        let t = sample_tree();
        assert_eq!(t.find(NodeId(12)), Some(2));
        assert_eq!(t.find(NodeId(99)), None);
        let map = t.index_map(20);
        assert_eq!(map[11], 1);
        assert_eq!(map[5], u32::MAX);
    }

    #[test]
    fn from_sssp_spans_members() {
        let g = graph_from_edges(6, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 4, 10), (4, 5, 1)]);
        let sp = dijkstra(&g, NodeId(0));
        let t = Tree::from_sssp(&g, &sp, [NodeId(3), NodeId(5)]);
        // Must contain all ancestors: 0,1,2,3,4,5.
        assert_eq!(t.size(), 6);
        assert_eq!(t.graph_id(t.root()), NodeId(0));
        // Depth equals graph distance for SPT members.
        for ti in 0..t.size() as u32 {
            assert_eq!(t.depth(ti), sp.d(t.graph_id(ti)));
        }
    }

    #[test]
    fn from_sssp_subset_only() {
        let g = graph_from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let sp = dijkstra(&g, NodeId(0));
        let t = Tree::from_sssp(&g, &sp, [NodeId(1)]);
        assert_eq!(t.size(), 2);
        assert_eq!(t.find(NodeId(3)), None);
    }

    #[test]
    fn scratch_extraction_matches_hashmap_path() {
        use crate::gen::Family;
        for fam in Family::ALL {
            let g = fam.generate(80, 0x7ACE);
            let sp = dijkstra(&g, NodeId(0));
            let members: Vec<NodeId> =
                g.nodes().filter(|v| sp.d(*v) != Cost::MAX && v.0 % 3 == 0).collect();
            let a = Tree::from_dist_parents(&g, NodeId(0), &sp.dist, &sp.parent, members.clone());
            let mut scratch = TreeScratch::new(g.n());
            // Run twice through the same scratch to exercise epoch reuse.
            for _ in 0..2 {
                let b = Tree::from_dist_parents_with(
                    &mut scratch,
                    &g,
                    NodeId(0),
                    &sp.dist,
                    &sp.parent,
                    members.clone(),
                );
                assert_eq!(a.graph_ids(), b.graph_ids(), "{}", fam.label());
                for t in 0..a.size() as u32 {
                    assert_eq!(a.parent(t), b.parent(t));
                    assert_eq!(a.parent_weight(t), b.parent_weight(t));
                }
            }
        }
    }

    #[test]
    fn nodes_by_depth_order() {
        let t = sample_tree();
        let order = t.nodes_by_depth();
        assert_eq!(order[0], 0);
        let depths: Vec<Cost> = order.iter().map(|&x| t.depth(x)).collect();
        let mut sorted = depths.clone();
        sorted.sort_unstable();
        assert_eq!(depths, sorted);
    }

    #[test]
    #[should_panic(expected = "not a connected tree")]
    fn detects_cycle() {
        // 1 and 2 point at each other (and node 0 is a lonely root).
        let _ = Tree::from_parents(vec![0, 1, 2], vec![u32::MAX, 2, 1], vec![0, 1, 1]);
    }

    #[test]
    fn singleton_tree() {
        let t = Tree::from_parents(vec![7], vec![u32::MAX], vec![0]);
        assert_eq!(t.size(), 1);
        assert_eq!(t.radius(), 0);
        assert_eq!(t.tree_distance(0, 0), 0);
    }
}
