//! 2D block-cyclic data distribution over a virtual process grid.
//!
//! The hybrid LU-QR algorithm distributes tiles over a virtual `p x q` grid
//! of nodes (paper Section II): tile `(i, j)` lives on the node at grid
//! coordinates `(i mod p, j mod q)`. At step `k` of the factorization the
//! panel (tile column `k`, rows `k..`) is split into `p` *domains* — the
//! sets of panel tiles co-located on one node. The **diagonal domain** is the
//! domain of the node owning the diagonal tile `A_kk`; pivoting inside it
//! requires no inter-node communication, which is the linchpin of the
//! algorithm's communication avoidance.

/// Virtual `p x q` process grid with 2D block-cyclic tile ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    /// Grid rows.
    pub p: usize,
    /// Grid columns.
    pub q: usize,
}

impl Grid {
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p >= 1 && q >= 1, "grid dimensions must be positive");
        Grid { p, q }
    }

    /// Single-node grid (shared-memory execution).
    pub fn single() -> Self {
        Grid { p: 1, q: 1 }
    }

    /// Total number of nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.p * self.q
    }

    /// Rank of the node owning tile `(i, j)` (row-major over grid coords).
    #[inline]
    pub fn owner(&self, i: usize, j: usize) -> usize {
        (i % self.p) * self.q + (j % self.q)
    }

    /// Grid coordinates of a node rank.
    #[inline]
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.nodes());
        (rank / self.q, rank % self.q)
    }

    /// Rank of the node owning the diagonal tile of step `k`.
    #[inline]
    pub fn diag_owner(&self, k: usize) -> usize {
        self.owner(k, k)
    }

    /// Tile rows of the panel at step `k` (rows `k..mt` of tile column `k`)
    /// that belong to the *diagonal domain*: local to the node owning
    /// `A_kk`, hence pivotable without inter-node communication.
    pub fn diagonal_domain_rows(&self, k: usize, mt: usize) -> Vec<usize> {
        (k..mt).step_by(self.p).collect()
    }

    /// All domains of the panel at step `k`: one entry per grid row that owns
    /// at least one panel tile, as `(grid_row, rows)` with `rows` ascending.
    /// The diagonal domain is always the entry whose `grid_row == k % p`.
    pub fn panel_domains(&self, k: usize, mt: usize) -> Vec<(usize, Vec<usize>)> {
        let mut domains: Vec<(usize, Vec<usize>)> = (0..self.p).map(|gr| (gr, vec![])).collect();
        for i in k..mt {
            domains[i % self.p].1.push(i);
        }
        domains.retain(|(_, rows)| !rows.is_empty());
        domains
    }

    /// Number of distinct nodes hosting at least one tile of panel `k`
    /// (participants in the criterion all-reduce, Section III).
    pub fn panel_node_count(&self, k: usize, mt: usize) -> usize {
        mt.saturating_sub(k).min(self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_block_cyclic() {
        let g = Grid::new(2, 3);
        assert_eq!(g.nodes(), 6);
        assert_eq!(g.owner(0, 0), 0);
        assert_eq!(g.owner(0, 1), 1);
        assert_eq!(g.owner(0, 3), 0); // wraps in j
        assert_eq!(g.owner(1, 0), 3);
        assert_eq!(g.owner(2, 0), 0); // wraps in i
        assert_eq!(g.owner(5, 7), g.owner(1, 1));
    }

    #[test]
    fn coords_roundtrip() {
        let g = Grid::new(4, 4);
        for rank in 0..16 {
            let (r, c) = g.coords(rank);
            assert_eq!(g.owner(r, c), rank);
        }
    }

    #[test]
    fn diagonal_domain_is_local_to_diag_owner() {
        let g = Grid::new(4, 2);
        let mt = 13;
        for k in 0..mt {
            let rows = g.diagonal_domain_rows(k, mt);
            assert!(rows.contains(&k));
            for &i in &rows {
                assert_eq!(g.owner(i, k), g.diag_owner(k), "row {i} not on diag node");
            }
            // Every excluded panel row is on a different node.
            for i in k..mt {
                if !rows.contains(&i) {
                    assert_ne!(g.owner(i, k), g.diag_owner(k));
                }
            }
        }
    }

    #[test]
    fn panel_domains_partition_panel() {
        let g = Grid::new(3, 2);
        let mt = 11;
        for k in 0..mt {
            let domains = g.panel_domains(k, mt);
            let mut all: Vec<usize> = domains.iter().flat_map(|(_, r)| r.clone()).collect();
            all.sort_unstable();
            let expected: Vec<usize> = (k..mt).collect();
            assert_eq!(all, expected, "domains must partition panel rows at k={k}");
            // Diagonal domain present and correct.
            let dd = domains.iter().find(|(gr, _)| *gr == k % g.p).unwrap();
            assert_eq!(dd.1, g.diagonal_domain_rows(k, mt));
        }
    }

    #[test]
    fn single_grid_owns_everything() {
        let g = Grid::single();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(g.owner(i, j), 0);
            }
        }
        assert_eq!(g.diagonal_domain_rows(2, 6), vec![2, 3, 4, 5]);
    }

    #[test]
    fn panel_node_count_clamps() {
        let g = Grid::new(4, 1);
        assert_eq!(g.panel_node_count(0, 10), 4);
        assert_eq!(g.panel_node_count(8, 10), 2);
        assert_eq!(g.panel_node_count(9, 10), 1);
    }

    #[test]
    fn sixteen_by_one_grid_matches_paper_fig3_setup() {
        // Figure 3 uses a 16x1 process grid: each panel tile row is its own
        // domain modulo 16; the diagonal domain at step k strides by 16.
        let g = Grid::new(16, 1);
        let rows = g.diagonal_domain_rows(3, 40);
        assert_eq!(rows, vec![3, 19, 35]);
    }
}
