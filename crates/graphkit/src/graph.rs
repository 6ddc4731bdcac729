//! Compressed-sparse-row weighted undirected graphs.
//!
//! Graphs are assembled through [`GraphBuilder`] (adjacency lists, cheap
//! to mutate) and then frozen into [`Graph`] (CSR, cheap to traverse).
//! All algorithm crates operate on the frozen form only.

use crate::ids::{NodeId, Weight};

/// Mutable graph under construction. Undirected; parallel edges are
/// deduplicated at freeze time keeping the lightest weight.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<(u32, u32, Weight)>,
}

impl GraphBuilder {
    /// Start a builder with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "graphkit supports at most 2^32-1 nodes");
        GraphBuilder { n: n as u32, edges: Vec::new() }
    }

    /// Number of nodes so far.
    pub fn num_nodes(&self) -> usize {
        self.n as usize
    }

    /// Append a fresh node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.n);
        self.n += 1;
        id
    }

    /// Add an undirected edge `{u, v}` of weight `w >= 1`.
    ///
    /// Self-loops are rejected: they never help a route and break the
    /// `min d(u,v) = 1` normalization the paper assumes.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        assert!(u.0 < self.n && v.0 < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(w >= 1, "edge weights must be >= 1 (paper normalization)");
        self.edges.push((u.0, v.0, w));
    }

    /// Number of (undirected) edges added so far, before dedup.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Freeze into CSR form. Deduplicates parallel edges (keeping the
    /// minimum weight) and sorts each adjacency list by neighbor id so
    /// port numbers are deterministic.
    pub fn build(mut self) -> Graph {
        let n = self.n as usize;
        // Canonicalize: (min, max) endpoint order, then sort + dedup.
        for e in &mut self.edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        self.edges.sort_unstable();
        self.edges.dedup_by(|next, keep| {
            if next.0 == keep.0 && next.1 == keep.1 {
                keep.2 = keep.2.min(next.2);
                true
            } else {
                false
            }
        });

        let mut degree = vec![0u32; n];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        offsets.push(0u64);
        for &d in &degree {
            acc += d as u64;
            offsets.push(acc);
        }
        let m2 = acc as usize;
        let mut targets = vec![0u32; m2];
        let mut weights = vec![0 as Weight; m2];
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        for &(u, v, w) in &self.edges {
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            weights[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            weights[cv] = w;
            cursor[v as usize] += 1;
        }
        // Sort each adjacency list by target id (weights follow).
        for u in 0..n {
            let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
            let mut pairs: Vec<(u32, Weight)> =
                targets[s..e].iter().copied().zip(weights[s..e].iter().copied()).collect();
            pairs.sort_unstable();
            for (i, (t, w)) in pairs.into_iter().enumerate() {
                targets[s + i] = t;
                weights[s + i] = w;
            }
        }
        Graph { offsets, targets, weights, num_edges: self.edges.len() }
    }
}

/// Frozen undirected weighted graph in CSR form.
///
/// Both directions of every edge are stored, so `neighbors(u)` is a
/// contiguous slice. The index of a neighbor within that slice is the
/// *port number* of the edge at `u` — the simulator's forwarding
/// primitive is "send out of port p".
#[derive(Clone, Debug)]
pub struct Graph {
    offsets: Vec<u64>,
    targets: Vec<u32>,
    weights: Vec<Weight>,
    num_edges: usize,
}

impl Graph {
    /// Number of nodes.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline(always)]
    pub fn m(&self) -> usize {
        self.num_edges
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n() as u32).map(NodeId)
    }

    /// Degree of `u`.
    #[inline(always)]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u.idx() + 1] - self.offsets[u.idx()]) as usize
    }

    /// Neighbor ids of `u`, sorted ascending. Index = port number.
    #[inline(always)]
    // lint:allow-fn(panic-free-serve): validate-then-index — span() bounds come from the frozen CSR offsets (checked monotone at decode)
    pub fn neighbors(&self, u: NodeId) -> &[u32] {
        let (s, e) = self.span(u);
        &self.targets[s..e]
    }

    /// Weights aligned with [`Graph::neighbors`].
    #[inline(always)]
    // lint:allow-fn(panic-free-serve): validate-then-index — span() bounds come from the frozen CSR offsets (checked monotone at decode)
    pub fn neighbor_weights(&self, u: NodeId) -> &[Weight] {
        let (s, e) = self.span(u);
        &self.weights[s..e]
    }

    /// `(neighbor, weight)` pairs of `u`.
    pub fn edges_of(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let (s, e) = self.span(u);
        self.targets[s..e].iter().copied().map(NodeId).zip(self.weights[s..e].iter().copied())
    }

    /// The port at `u` leading to neighbor `v`, if the edge exists.
    /// Binary search over the sorted adjacency slice.
    pub fn port_to(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.neighbors(u).binary_search(&v.0).ok().map(|p| p as u32)
    }

    /// The neighbor reached from `u` via `port`.
    pub fn endpoint(&self, u: NodeId, port: u32) -> NodeId {
        NodeId(self.neighbors(u)[port as usize])
    }

    /// Weight of the edge out of `u` via `port`.
    // lint:allow-fn(panic-free-serve): validate-then-index — ports are produced by port_to's binary search over this same adjacency slice
    pub fn port_weight(&self, u: NodeId, port: u32) -> Weight {
        self.neighbor_weights(u)[port as usize]
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.port_to(u, v).map(|p| self.port_weight(u, p))
    }

    /// Iterate every undirected edge once as `(u, v, w)` with `u < v`.
    pub fn all_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.nodes().flat_map(move |u| {
            self.edges_of(u).filter(move |&(v, _)| u < v).map(move |(v, w)| (u, v, w))
        })
    }

    #[inline(always)]
    // lint:allow-fn(panic-free-serve): validate-then-index — u < n for every NodeId in a frozen graph; offsets has n+1 entries by construction
    fn span(&self, u: NodeId) -> (usize, usize) {
        (self.offsets[u.idx()] as usize, self.offsets[u.idx() + 1] as usize)
    }

    /// Serialize the frozen CSR verbatim.
    pub fn to_wire(&self, w: &mut crate::wire::Writer) {
        w.slice_u64(&self.offsets);
        w.slice_u32(&self.targets);
        w.slice_u64(&self.weights);
        w.len(self.num_edges);
    }

    /// Inverse of [`Graph::to_wire`]. Validates the CSR invariants
    /// (monotone offsets, aligned arrays, in-range sorted targets) so a
    /// corrupt record is an error, not latent out-of-bounds panics.
    // lint:allow-fn(panic-free-serve): validate-then-index — CSR invariants (monotone offsets, aligned arrays, in-range targets) are checked before indexing
    pub fn from_wire(r: &mut crate::wire::Reader) -> std::io::Result<Graph> {
        use crate::wire::invalid;
        let offsets = r.slice_u64()?;
        let targets = r.slice_u32()?;
        let weights: Vec<Weight> = r.slice_u64()?;
        let num_edges = r.u64()? as usize;
        if offsets.is_empty() || offsets[0] != 0 {
            return Err(invalid("graph offsets must start at 0"));
        }
        let n = offsets.len() - 1;
        if n > u32::MAX as usize {
            return Err(invalid("graph node count out of range"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid("graph offsets must be monotone"));
        }
        if offsets[n] as usize != targets.len() || targets.len() != weights.len() {
            return Err(invalid("graph arrays have mismatched lengths"));
        }
        if num_edges.checked_mul(2) != Some(targets.len()) {
            return Err(invalid("graph edge count mismatch"));
        }
        for i in 0..n {
            let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
            let adj = &targets[s..e];
            if adj.iter().any(|&t| t as usize >= n) {
                return Err(invalid("graph target out of range"));
            }
            if adj.windows(2).any(|w| w[0] >= w[1]) {
                return Err(invalid("graph adjacency must be strictly sorted"));
            }
        }
        Ok(Graph { offsets, targets, weights, num_edges })
    }
}

/// Build a graph directly from an edge list over `n` nodes.
pub fn graph_from_edges(n: usize, edges: &[(u32, u32, Weight)]) -> Graph {
    let mut b = GraphBuilder::with_nodes(n);
    for &(u, v, w) in edges {
        b.add_edge(NodeId(u), NodeId(v), w);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0-1 (1), 0-2 (2), 1-3 (3), 2-3 (1), 1-2 (5)
        graph_from_edges(4, &[(0, 1, 1), (0, 2, 2), (1, 3, 3), (2, 3, 1), (1, 2, 5)])
    }

    #[test]
    fn csr_shape() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 3);
        assert_eq!(g.neighbors(NodeId(1)), &[0, 2, 3]);
        assert_eq!(g.neighbor_weights(NodeId(1)), &[1, 5, 3]);
    }

    #[test]
    fn ports_roundtrip() {
        let g = diamond();
        for u in g.nodes() {
            for (p, &t) in g.neighbors(u).iter().enumerate() {
                assert_eq!(g.port_to(u, NodeId(t)), Some(p as u32));
                assert_eq!(g.endpoint(u, p as u32), NodeId(t));
            }
        }
        assert_eq!(g.port_to(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = diamond();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(1));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(1));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(5));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(3)), None);
    }

    #[test]
    fn parallel_edges_keep_min_weight() {
        let g = graph_from_edges(2, &[(0, 1, 7), (1, 0, 3), (0, 1, 9)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(3));
    }

    #[test]
    fn all_edges_enumerates_once() {
        let g = diamond();
        let edges: Vec<_> = g.all_edges().collect();
        assert_eq!(edges.len(), 5);
        for (u, v, _) in edges {
            assert!(u < v);
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(NodeId(0), NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "weights must be >= 1")]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::with_nodes(2);
        b.add_edge(NodeId(0), NodeId(1), 0);
    }

    #[test]
    fn wire_roundtrip() {
        let g = diamond();
        let mut w = crate::wire::Writer::new();
        g.to_wire(&mut w);
        let bytes = w.into_bytes();
        let g2 = Graph::from_wire(&mut crate::wire::Reader::new(&bytes)).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        for u in g.nodes() {
            assert_eq!(g2.neighbors(u), g.neighbors(u));
            assert_eq!(g2.neighbor_weights(u), g.neighbor_weights(u));
        }
        // A flipped target lands out of range or breaks sortedness.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(Graph::from_wire(&mut crate::wire::Reader::new(&bad)).is_err());
    }

    #[test]
    fn builder_add_node() {
        let mut b = GraphBuilder::default();
        let a = b.add_node();
        let c = b.add_node();
        b.add_edge(a, c, 4);
        let g = b.build();
        assert_eq!(g.n(), 2);
        assert_eq!(g.edge_weight(a, c), Some(4));
    }
}
