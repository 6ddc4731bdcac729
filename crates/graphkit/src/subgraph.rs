//! Connected components, the split [`crate::diameter_matrix_free`]
//! runs on.

use crate::graph::Graph;
use crate::ids::NodeId;

/// Connected components of a graph, each as a sorted list of node ids.
pub fn components(g: &Graph) -> Vec<Vec<u32>> {
    let n = g.n();
    let mut comp = vec![u32::MAX; n];
    let mut out: Vec<Vec<u32>> = Vec::new();
    for start in 0..n as u32 {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        let c = out.len() as u32;
        let mut stack = vec![start];
        let mut members = Vec::new();
        comp[start as usize] = c;
        while let Some(u) = stack.pop() {
            members.push(u);
            for &v in g.neighbors(NodeId(u)) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = c;
                    stack.push(v);
                }
            }
        }
        members.sort_unstable();
        out.push(members);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn sample() -> Graph {
        graph_from_edges(6, &[(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (0, 5, 7)])
    }

    #[test]
    fn components_of_disconnected() {
        let g = graph_from_edges(7, &[(0, 1, 1), (1, 2, 1), (3, 4, 1), (5, 6, 1)]);
        let comps = components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4]);
        assert_eq!(comps[2], vec![5, 6]);
    }

    #[test]
    fn components_of_connected_is_single() {
        let comps = components(&sample());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 6);
    }

    #[test]
    fn isolated_nodes_are_singleton_components() {
        let g = graph_from_edges(3, &[(0, 1, 1)]);
        let comps = components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[1], vec![2]);
    }
}
