//! Σ-ary primary naming of tree nodes by distance rank (Lemma 4).
//!
//! Sort the tree's nodes by increasing distance from the root (ties by
//! id). The root gets the empty name; the next |Σ| nodes get 1-digit
//! names; the next |Σ|² get 2-digit names, and so on, where
//! |Σ| = ⌈n^{1/k}⌉. A node's name length therefore certifies its
//! distance rank: `V_j`, the nodes with ≤ j digits, are exactly the
//! `Σ_{t≤j} |Σ|^t` closest nodes to the root.

/// A primary name: between 0 (the root) and k digits, each in `0..sigma`.
pub type Name = Vec<u32>;

/// Assignment of Σ-ary names to ranks `0..count`.
#[derive(Clone, Debug)]
pub struct Naming {
    sigma: u64,
    count: usize,
    /// `level_end[l]` = number of nodes with names of length ≤ l
    /// (capped at `count`). `level_end\[0\] == 1` (just the root).
    level_end: Vec<usize>,
}

impl Naming {
    /// Plan names for `count` ranked nodes with alphabet size `sigma`.
    pub fn new(count: usize, sigma: u64) -> Self {
        // lint:allow(panic-free-serve): validate-then-index — decoders reach this only with a validated record (non-empty tree, σ ≥ 1: `ErtView::validate` rejects both), and the builders check k and σ before naming
        assert!(
            count >= 1 && sigma >= 1,
            "naming needs at least one node and a non-empty alphabet"
        );
        let mut level_end = vec![1usize];
        let mut total = 1u128;
        let mut level_size = 1u128;
        let mut end = 1usize;
        while end < count {
            level_size = level_size.saturating_mul(sigma as u128);
            total = total.saturating_add(level_size);
            end = total.min(count as u128) as usize;
            level_end.push(end);
            // Guard: sigma == 1 grows levels by one node each; fine, but
            // cap the loop at count iterations via the level_end growth.
            if level_end.len() > count + 1 {
                break;
            }
        }
        Naming { sigma, count, level_end }
    }

    /// Alphabet size |Σ|.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// Number of named nodes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of digit levels in use (max name length).
    pub fn max_level(&self) -> usize {
        self.level_end.len() - 1
    }

    /// How many nodes have names of length ≤ `level` (the size of `V_level`).
    pub fn level_capacity(&self, level: usize) -> usize {
        if level >= self.level_end.len() {
            self.count
        } else {
            self.level_end[level]
        }
    }

    /// Name length of the node with distance rank `rank`.
    pub fn level_of_rank(&self, rank: usize) -> usize {
        assert!(rank < self.count);
        self.level_end.partition_point(|&e| e <= rank)
    }

    /// The name of the node with distance rank `rank`.
    pub fn name_of_rank(&self, rank: usize) -> Name {
        let level = self.level_of_rank(rank);
        if level == 0 {
            return Vec::new();
        }
        let base = self.level_end[level - 1];
        let mut offset = (rank - base) as u64;
        let mut name = vec![0u32; level];
        for d in name.iter_mut().rev() {
            *d = (offset % self.sigma) as u32;
            offset /= self.sigma;
        }
        debug_assert_eq!(offset, 0, "rank exceeds level capacity");
        name
    }

    /// Rank of the name-child `(name(rank), y)` — the node whose name is
    /// `rank`'s name with digit `y` appended — or `None` if no such node
    /// exists. Pure index arithmetic: names enumerate lexicographically
    /// within each level, so the child of `(level, offset)` under digit
    /// `y` sits at offset `offset·σ + y` of level + 1. Replaces
    /// `rank_of_name(name_of_rank(rank) ++ [y])` without materializing
    /// either name.
    pub fn child_rank(&self, rank: usize, y: u32) -> Option<usize> {
        if y as u64 >= self.sigma {
            return None;
        }
        let level = self.level_of_rank(rank);
        if level + 1 >= self.level_end.len() {
            return None;
        }
        let base = if level == 0 { 0 } else { self.level_end[level - 1] };
        let child_offset = (rank - base) as u64 * self.sigma + y as u64;
        let child = self.level_end[level] as u64 + child_offset;
        if child < self.level_capacity(level + 1) as u64 {
            Some(child as usize)
        } else {
            None
        }
    }

    /// Inverse of [`Naming::name_of_rank`]: the rank carrying `name`, or
    /// `None` if no such node exists (name beyond `count`).
    pub fn rank_of_name(&self, name: &[u32]) -> Option<usize> {
        let level = name.len();
        if level == 0 {
            return Some(0);
        }
        if level >= self.level_end.len() {
            return None;
        }
        let mut offset = 0u64;
        for &d in name {
            if d as u64 >= self.sigma {
                return None;
            }
            offset = offset * self.sigma + d as u64;
        }
        let rank = self.level_end[level - 1] as u64 + offset;
        if (rank as usize) < self.level_capacity(level) {
            Some(rank as usize)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_empty() {
        let nm = Naming::new(10, 3);
        assert_eq!(nm.name_of_rank(0), Vec::<u32>::new());
        assert_eq!(nm.rank_of_name(&[]), Some(0));
        assert_eq!(nm.level_of_rank(0), 0);
    }

    #[test]
    fn level_sizes_follow_powers() {
        let nm = Naming::new(1 + 3 + 9 + 27, 3);
        assert_eq!(nm.level_capacity(0), 1);
        assert_eq!(nm.level_capacity(1), 4);
        assert_eq!(nm.level_capacity(2), 13);
        assert_eq!(nm.level_capacity(3), 40);
        assert_eq!(nm.max_level(), 3);
    }

    #[test]
    fn names_enumerate_lexicographically() {
        let nm = Naming::new(13, 3);
        assert_eq!(nm.name_of_rank(1), vec![0]);
        assert_eq!(nm.name_of_rank(3), vec![2]);
        assert_eq!(nm.name_of_rank(4), vec![0, 0]);
        assert_eq!(nm.name_of_rank(5), vec![0, 1]);
        assert_eq!(nm.name_of_rank(7), vec![1, 0]);
        assert_eq!(nm.name_of_rank(12), vec![2, 2]);
    }

    #[test]
    fn rank_name_roundtrip() {
        for sigma in [1u64, 2, 3, 5, 16] {
            let nm = Naming::new(100, sigma);
            for rank in 0..100 {
                let name = nm.name_of_rank(rank);
                assert_eq!(
                    nm.rank_of_name(&name),
                    Some(rank),
                    "sigma={sigma} rank={rank} name={name:?}"
                );
                assert_eq!(name.len(), nm.level_of_rank(rank));
            }
        }
    }

    #[test]
    fn child_rank_matches_name_arithmetic() {
        for sigma in [1u64, 2, 3, 5, 16, 1000] {
            for count in [1usize, 2, 6, 50, 100] {
                let nm = Naming::new(count, sigma);
                for rank in 0..count {
                    for y in 0..sigma.min(20) as u32 {
                        let mut name = nm.name_of_rank(rank);
                        name.push(y);
                        assert_eq!(
                            nm.child_rank(rank, y),
                            nm.rank_of_name(&name),
                            "sigma={sigma} count={count} rank={rank} y={y}"
                        );
                    }
                    assert_eq!(nm.child_rank(rank, sigma as u32), None);
                }
            }
        }
    }

    #[test]
    fn nonexistent_names_rejected() {
        let nm = Naming::new(6, 3); // levels: 1 + 3 + (2 of 9)
        assert_eq!(nm.rank_of_name(&[0, 2]), None); // only [0,0],[0,1] exist
        assert_eq!(nm.rank_of_name(&[9]), None); // digit out of alphabet
        assert_eq!(nm.rank_of_name(&[0, 0, 0]), None); // level too deep
    }

    #[test]
    fn sigma_one_chain() {
        // Degenerate alphabet (k >= log n case): each level holds one node.
        let nm = Naming::new(5, 1);
        for rank in 0..5 {
            assert_eq!(nm.level_of_rank(rank), rank);
            assert_eq!(nm.name_of_rank(rank), vec![0u32; rank]);
        }
    }

    #[test]
    fn big_sigma_single_level() {
        let nm = Naming::new(50, 1000);
        for rank in 1..50 {
            assert_eq!(nm.level_of_rank(rank), 1);
        }
        assert_eq!(nm.max_level(), 1);
    }
}
