//! Landmark-distance columns: the matrix-free substitute for the
//! dense rows the hierarchy's reference queries (`S(u,i)`, `m(u,r)`,
//! `c(u,r)`, rank positions) read from a `DistMatrix`.
//!
//! One full Dijkstra per landmark of rank ≥ 1 (there are
//! `Õ(n^{(k−1)/k})` of them) yields, for every node `u` and level
//! `l ≥ 1`, the complete `(d(u,c), c)`-sorted list of `C_l` members —
//! the exact structure the scheme's instance-tuned S-budget and
//! S-membership loops need, in `O(n · |C_1|)` memory instead of n².
//! Level 0 (`C_0 = V`) intentionally has no column here: its queries
//! are served by size-capped Dijkstras around each node (see the
//! scheme's construction notes in DESIGN.md).

use std::collections::HashMap;

use graphkit::{dijkstra, Cost, Graph, NodeId, INFINITY};

use crate::LandmarkHierarchy;

/// Distances from every rank-≥1 landmark to every node, organized as
/// per-node per-level sorted lists plus raw per-landmark rows.
pub struct LandmarkDistances {
    k: usize,
    n: usize,
    /// Landmark id → index into `rows`.
    row_of: HashMap<u32, u32>,
    /// Full distance row of each landmark (`rows[row_of[c]][v] = d(c, v)`).
    rows: Vec<Vec<Cost>>,
    /// Per level `l ∈ 1..k`: `n` consecutive chunks of `|C_l|`
    /// entries, chunk `u` holding `C_l` as `(d(u,c), c)` sorted
    /// ascending (unreachable members at the tail with `INFINITY`).
    lists: Vec<Vec<(Cost, u32)>>,
    /// `|C_l|` per level (index `l − 1`).
    strides: Vec<usize>,
}

impl LandmarkDistances {
    /// Run one Dijkstra per rank-≥1 landmark (fanned across threads)
    /// and assemble the per-node sorted level lists.
    pub fn build(g: &Graph, h: &LandmarkHierarchy) -> Self {
        let n = g.n();
        let k = h.k();
        let landmarks: Vec<u32> = h.level(1).to_vec(); // C_1 ⊇ C_2 ⊇ …
        let row_of: HashMap<u32, u32> =
            landmarks.iter().enumerate().map(|(i, &c)| (c, i as u32)).collect();
        // merge: distance rows, flattened in chunk (= landmark) order.
        let rows: Vec<Vec<Cost>> = graphkit::metrics::par_chunks(landmarks.len(), |range| {
            landmarks[range].iter().map(|&c| dijkstra(g, NodeId(c)).dist).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Per-node sorted lists per level, parallel over node chunks.
        let strides: Vec<usize> = (1..k).map(|l| h.level(l).len()).collect();
        let lists: Vec<Vec<(Cost, u32)>> = strides
            .iter()
            .enumerate()
            .map(|(l, &stride)| {
                let members = h.level(l + 1);
                if stride == 0 {
                    return Vec::new();
                }
                // merge: fixed-stride per-node segments, concatenated
                // in chunk (= node id) order.
                graphkit::metrics::par_chunks(n, |nodes| {
                    let mut chunk = Vec::with_capacity(nodes.len() * stride);
                    for u in nodes {
                        let start = chunk.len();
                        chunk.extend(members.iter().map(|&m| (rows[row_of[&m] as usize][u], m)));
                        chunk[start..].sort_unstable();
                    }
                    chunk
                })
                .into_iter()
                .flatten()
                .collect()
            })
            .collect();
        LandmarkDistances { k, n, row_of, rows, lists, strides }
    }

    /// The trade-off parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `d(c, v)` for a rank-≥1 landmark `c` (graphs are undirected, so
    /// this is also `d(v, c)`). Panics if `c` is not a landmark.
    #[inline]
    pub fn d(&self, c: u32, v: NodeId) -> Cost {
        self.rows[self.row_of[&c] as usize][v.idx()]
    }

    /// The `(d(u,c), c)`-sorted members of `C_l` as seen from `u`
    /// (`l ∈ 1..k`; unreachable members trail with `INFINITY`).
    #[inline]
    pub fn list(&self, u: NodeId, l: usize) -> &[(Cost, u32)] {
        debug_assert!(l >= 1 && l < self.k);
        let stride = self.strides[l - 1];
        &self.lists[l - 1][u.idx() * stride..(u.idx() + 1) * stride]
    }

    /// Position of landmark `c` (rank ≥ `l ≥ 1`) in `u`'s
    /// `(distance, id)`-ordered `C_l` list — the quantity the
    /// instance-tuned S budgets maximize.
    pub fn position(&self, u: NodeId, l: usize, c: u32) -> usize {
        let key = (self.d(c, u), c);
        self.list(u, l).partition_point(|&e| e < key)
    }

    /// `m(u, r)` — the highest rank present in `B(u, r)`: the largest
    /// `l` whose closest reachable `C_l` member sits within `r` (rank
    /// 0 is always present through `u` itself).
    pub fn max_rank_in_ball(&self, u: NodeId, r: Cost) -> usize {
        (1..self.k)
            .rev()
            .find(|&l| self.list(u, l).first().is_some_and(|&(d, _)| d != INFINITY && d <= r))
            .unwrap_or(0)
    }

    /// `c(u, r)` — the center: closest `C_{m(u,r)}` member by
    /// `(distance, id)`; `u` itself when `m = 0` (with strictly
    /// positive edge weights, `u` is the unique distance-0 member of
    /// `C_0 = V`). Identical to [`LandmarkHierarchy::center`] on
    /// connected graphs.
    pub fn center(&self, u: NodeId, r: Cost) -> NodeId {
        let m = self.max_rank_in_ball(u, r);
        if m == 0 {
            u
        } else {
            NodeId(self.list(u, m)[0].1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphkit::gen::Family;
    use graphkit::metrics::apsp;

    #[test]
    fn columns_match_dense_rows() {
        let g = Family::Geometric.generate(120, 0xB1);
        let d = apsp(&g);
        let h = LandmarkHierarchy::sample(g.n(), 3, 0xB1);
        let ld = LandmarkDistances::build(&g, &h);
        for u in g.nodes() {
            for l in 1..3 {
                let list = ld.list(u, l);
                assert_eq!(list.len(), h.level(l).len());
                let mut want: Vec<(u64, u32)> =
                    h.level(l).iter().map(|&c| (d.d(u, NodeId(c)), c)).collect();
                want.sort_unstable();
                assert_eq!(list, &want[..], "u={u} l={l}");
                for &c in h.level(l) {
                    assert_eq!(ld.d(c, u), d.d(u, NodeId(c)));
                }
            }
        }
    }

    #[test]
    fn center_and_rank_match_dense() {
        let g = Family::PrefAttach.generate(150, 0xB2);
        let d = apsp(&g);
        let h = LandmarkHierarchy::sample(g.n(), 3, 0xB2);
        let ld = LandmarkDistances::build(&g, &h);
        let radii = [0u64, 1, d.diameter() / 8, d.diameter() / 2, d.diameter() * 2];
        for u in g.nodes() {
            for &r in &radii {
                assert_eq!(
                    ld.max_rank_in_ball(u, r),
                    h.max_rank_in_ball(&d, u, r),
                    "m mismatch u={u} r={r}"
                );
                assert_eq!(ld.center(u, r), h.center(&d, u, r), "center mismatch u={u} r={r}");
            }
        }
    }

    #[test]
    fn positions_match_dense_sorted_levels() {
        let g = Family::ErdosRenyi.generate(90, 0xB3);
        let d = apsp(&g);
        let h = LandmarkHierarchy::sample(g.n(), 2, 0xB3);
        let ld = LandmarkDistances::build(&g, &h);
        for u in g.nodes() {
            let mut sorted: Vec<(u64, u32)> =
                h.level(1).iter().map(|&c| (d.d(u, NodeId(c)), c)).collect();
            sorted.sort_unstable();
            for &c in h.level(1) {
                let key = (d.d(u, NodeId(c)), c);
                let want = sorted.partition_point(|&e| e < key);
                assert_eq!(ld.position(u, 1, c), want);
            }
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two components: landmarks of the other side must neither
        // join balls nor become centers.
        let g = graphkit::graph_from_edges(
            10,
            &[
                (0, 1, 2),
                (1, 2, 2),
                (2, 3, 2),
                (3, 4, 2),
                (5, 6, 3),
                (6, 7, 3),
                (7, 8, 3),
                (8, 9, 3),
            ],
        );
        let d = apsp(&g);
        let h =
            LandmarkHierarchy::try_from_levels(10, 2, vec![(0..10).collect(), vec![2, 7]]).unwrap();
        let ld = LandmarkDistances::build(&g, &h);
        for u in g.nodes() {
            for &r in &[0u64, 4, 100, u64::MAX - 1] {
                assert_eq!(ld.max_rank_in_ball(u, r), h.max_rank_in_ball(&d, u, r));
                assert_eq!(ld.center(u, r), h.center(&d, u, r));
            }
        }
        // The far landmark trails with INFINITY and is never ranked.
        let list = ld.list(NodeId(0), 1);
        assert_eq!(list.last().unwrap().0, INFINITY);
        assert_eq!(ld.max_rank_in_ball(NodeId(0), u64::MAX - 1), 1);
        assert_eq!(ld.center(NodeId(0), u64::MAX - 1), NodeId(2));
    }
}
