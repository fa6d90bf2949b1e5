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
//!
//! [`Dist`] generalizes the mapping to **weighted** block-cyclic
//! ownership for heterogeneous clusters: instead of `i mod p`, tile rows
//! follow a repeating *pattern* of grid rows (and tile columns a pattern of
//! grid columns) in which faster grid rows/columns appear proportionally
//! more often — so a node twice as fast owns roughly twice the tiles,
//! while the cyclic interleaving (and with it the panel-domain structure
//! the algorithm's communication avoidance rests on) is preserved. The
//! unweighted pattern is the identity, which makes [`Dist::block_cyclic`]
//! bit-for-bit the classic `(i mod p, j mod q)` map.

use luqr_runtime::{Platform, SimReport};

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
    ///
    /// Delegates to [`Dist::block_cyclic`] — the panel-domain math lives
    /// in one place, the (possibly weighted) distribution.
    pub fn diagonal_domain_rows(&self, k: usize, mt: usize) -> Vec<usize> {
        Dist::block_cyclic(*self).diagonal_domain_rows(k, mt)
    }

    /// All domains of the panel at step `k`: one entry per grid row that owns
    /// at least one panel tile, as `(grid_row, rows)` with `rows` ascending.
    /// The diagonal domain is always the entry whose `grid_row == k % p`.
    /// Delegates to [`Dist::block_cyclic`].
    pub fn panel_domains(&self, k: usize, mt: usize) -> Vec<(usize, Vec<usize>)> {
        Dist::block_cyclic(*self).panel_domains(k, mt)
    }

    /// Number of distinct nodes hosting at least one tile of panel `k`
    /// (participants in the criterion all-reduce, Section III).
    /// Delegates to [`Dist::block_cyclic`].
    pub fn panel_node_count(&self, k: usize, mt: usize) -> usize {
        Dist::block_cyclic(*self).panel_node_count(k, mt)
    }
}

/// Tile-to-node ownership over a [`Grid`]: plain or weighted block-cyclic.
///
/// Tile row `i` belongs to grid row `row_pattern[i % row_pattern.len()]`;
/// tile column `j` to grid column `col_pattern[j % col_pattern.len()]`.
/// With identity patterns this is exactly [`Grid::owner`]; weighted
/// patterns repeat fast grid rows/columns more often. All the panel-domain
/// queries of [`Grid`] are reproduced here against the generalized map:
/// every planner query goes through the `Dist`, so one weighted
/// constructor call re-shapes the entire factorization's placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dist {
    grid: Grid,
    /// Repeating tile-row → grid-row pattern (every grid row appears ≥ 1×).
    row_pattern: Vec<usize>,
    /// Repeating tile-col → grid-col pattern.
    col_pattern: Vec<usize>,
}

/// Largest number of pattern slots one grid row/column may occupy — bounds
/// pattern length (and the resolution of the weighting) at 32 slots per
/// grid dimension entry.
const MAX_REPS: usize = 32;

/// Turn weights into an interleaved repetition pattern: entry `g` appears
/// `max(1, round(w_g / min_w))` times (capped at [`MAX_REPS`]), spread as
/// evenly as possible through the period so consecutive tile rows still
/// cycle through the grid.
fn weighted_pattern(weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty());
    assert!(
        weights.iter().all(|&w| w.is_finite() && w > 0.0),
        "weights must be positive and finite: {weights:?}"
    );
    let min = weights.iter().cloned().fold(f64::INFINITY, f64::min);
    let reps: Vec<usize> = weights
        .iter()
        .map(|&w| ((w / min).round() as usize).clamp(1, MAX_REPS))
        .collect();
    // Interleave: each of entry g's occurrences sits at fractional position
    // (t + 0.5) / reps[g]; merging by position spreads every entry evenly.
    let mut slots: Vec<(f64, usize)> = Vec::with_capacity(reps.iter().sum());
    for (g, &r) in reps.iter().enumerate() {
        for t in 0..r {
            slots.push(((t as f64 + 0.5) / r as f64, g));
        }
    }
    slots.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    slots.into_iter().map(|(_, g)| g).collect()
}

impl Dist {
    /// The classic unweighted 2D block-cyclic map of `grid`.
    pub fn block_cyclic(grid: Grid) -> Self {
        Dist {
            grid,
            row_pattern: (0..grid.p).collect(),
            col_pattern: (0..grid.q).collect(),
        }
    }

    /// Weighted block-cyclic: grid row `r` owns a share of tile rows
    /// proportional to `row_weights[r]`, grid column `c` a share of tile
    /// columns proportional to `col_weights[c]`.
    pub fn weighted(grid: Grid, row_weights: &[f64], col_weights: &[f64]) -> Self {
        assert_eq!(row_weights.len(), grid.p, "one weight per grid row");
        assert_eq!(col_weights.len(), grid.q, "one weight per grid column");
        Dist {
            grid,
            row_pattern: weighted_pattern(row_weights),
            col_pattern: weighted_pattern(col_weights),
        }
    }

    /// Weighted block-cyclic from per-node speeds (`speeds[rank]`, one per
    /// grid rank): grid row weights are the summed speeds of the nodes in
    /// each row, column weights the summed speeds per column. A node's
    /// tile share is exactly proportional to its speed whenever the speed
    /// profile is separable into row × column factors (e.g. fast nodes
    /// occupying whole grid rows); otherwise this is the best
    /// block-cyclic-shaped approximation.
    ///
    /// `speeds` may be longer than the grid (a platform with spare nodes:
    /// grid rank `r` runs on platform node `r`, so the extra entries
    /// belong to nodes the grid never uses and are ignored); shorter is an
    /// error. Equal speeds degenerate to [`Dist::block_cyclic`].
    pub fn speed_weighted(grid: Grid, speeds: &[f64]) -> Self {
        assert!(
            speeds.len() >= grid.nodes(),
            "need one speed per grid rank: got {} speeds for a {}x{} grid \
             ({} ranks)",
            speeds.len(),
            grid.p,
            grid.q,
            grid.nodes()
        );
        let row_weights: Vec<f64> = (0..grid.p)
            .map(|r| (0..grid.q).map(|c| speeds[r * grid.q + c]).sum())
            .collect();
        let col_weights: Vec<f64> = (0..grid.q)
            .map(|c| (0..grid.p).map(|r| speeds[r * grid.q + c]).sum())
            .collect();
        Dist::weighted(grid, &row_weights, &col_weights)
    }

    /// Weighted block-cyclic from *observed* per-node speeds — the
    /// criterion-aware calibration constructor. Non-positive entries
    /// (nodes that executed no compute work in the observation run) are
    /// floored to the smallest positive speed so every node keeps a place
    /// in the pattern; an all-non-positive vector degenerates to
    /// [`Dist::block_cyclic`] (nothing was observed, nothing to rebalance).
    pub fn calibrated(grid: Grid, observed_speeds: &[f64]) -> Self {
        assert!(
            observed_speeds.len() >= grid.nodes(),
            "need one observed speed per grid rank: got {} for {} ranks",
            observed_speeds.len(),
            grid.nodes()
        );
        let floor = observed_speeds
            .iter()
            .filter(|&&s| s.is_finite() && s > 0.0)
            .fold(f64::INFINITY, |m, &s| m.min(s));
        if !floor.is_finite() {
            return Dist::block_cyclic(grid);
        }
        let speeds: Vec<f64> = observed_speeds
            .iter()
            .map(|&s| if s.is_finite() && s > 0.0 { s } else { floor })
            .collect();
        Dist::speed_weighted(grid, &speeds)
    }

    /// Rebuild the speed weights from a first run's [`SimReport`]: each
    /// node is weighted by the effective GFLOP/s it achieved on the kernel
    /// mix it *actually executed*
    /// ([`SimReport::observed_node_speeds`]), not by its nominal GEMM
    /// throughput. On a QR-heavy hybrid run this shifts tiles toward the
    /// nodes whose QR kernels run well — the ROADMAP's criterion-aware
    /// weight calibration.
    pub fn calibrated_from(grid: Grid, report: &SimReport, platform: &Platform) -> Self {
        Dist::calibrated(grid, &report.observed_node_speeds(platform))
    }

    /// The underlying process grid.
    #[inline]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Total number of nodes.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.grid.nodes()
    }

    /// Grid row owning tile row `i`.
    #[inline]
    pub fn row_group(&self, i: usize) -> usize {
        self.row_pattern[i % self.row_pattern.len()]
    }

    /// Grid column owning tile column `j`.
    #[inline]
    pub fn col_group(&self, j: usize) -> usize {
        self.col_pattern[j % self.col_pattern.len()]
    }

    /// Rank of the node owning tile `(i, j)`.
    #[inline]
    pub fn owner(&self, i: usize, j: usize) -> usize {
        self.row_group(i) * self.grid.q + self.col_group(j)
    }

    /// Rank of the node owning the diagonal tile of step `k`.
    #[inline]
    pub fn diag_owner(&self, k: usize) -> usize {
        self.owner(k, k)
    }

    /// Tile rows of the panel at step `k` (rows `k..mt` of tile column `k`)
    /// in the *diagonal domain*: co-located with the node owning `A_kk`,
    /// hence pivotable without inter-node communication.
    pub fn diagonal_domain_rows(&self, k: usize, mt: usize) -> Vec<usize> {
        let dg = self.row_group(k);
        (k..mt).filter(|&i| self.row_group(i) == dg).collect()
    }

    /// All domains of the panel at step `k`: one entry per grid row owning
    /// at least one panel tile, as `(grid_row, rows)` with `rows`
    /// ascending. The diagonal domain is the entry whose
    /// `grid_row == row_group(k)`.
    pub fn panel_domains(&self, k: usize, mt: usize) -> Vec<(usize, Vec<usize>)> {
        let mut out: Vec<(usize, Vec<usize>)> = Vec::with_capacity(self.grid.p.min(mt - k));
        for gr in 0..self.grid.p {
            let rows: Vec<usize> = (k..mt).filter(|&i| self.row_group(i) == gr).collect();
            if !rows.is_empty() {
                out.push((gr, rows));
            }
        }
        out
    }

    /// Number of distinct grid rows hosting at least one tile of panel `k`
    /// (participants in the criterion all-reduce, Section III).
    pub fn panel_node_count(&self, k: usize, mt: usize) -> usize {
        let period = self.row_pattern.len();
        let mut seen = vec![false; self.grid.p];
        let mut count = 0;
        for i in k..mt.min(k + period) {
            let g = self.row_group(i);
            if !seen[g] {
                seen[g] = true;
                count += 1;
            }
        }
        count
    }

    /// Fraction of an `mt x nt` tile matrix owned by `node` — what the
    /// weighting promises (`~ speed share`) and what the tests pin.
    pub fn ownership_fraction(&self, node: usize, mt: usize, nt: usize) -> f64 {
        if mt == 0 || nt == 0 {
            return 0.0;
        }
        let mut owned = 0usize;
        for i in 0..mt {
            for j in 0..nt {
                if self.owner(i, j) == node {
                    owned += 1;
                }
            }
        }
        owned as f64 / (mt * nt) as f64
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
    fn block_cyclic_dist_matches_grid_everywhere() {
        // Grid::owner is the canonical `(i mod p, j mod q)` formula; the
        // identity-pattern Dist must reproduce it exactly. (Grid's
        // panel-domain queries delegate to Dist, so only the independent
        // owner math is cross-checked here.)
        let g = Grid::new(3, 2);
        let d = Dist::block_cyclic(g);
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(d.owner(i, j), g.owner(i, j), "({i},{j})");
            }
        }
        for k in 0..13 {
            assert_eq!(d.diag_owner(k), g.diag_owner(k));
        }
        // The distinct-group count degenerates to the classic clamp.
        for (k, mt) in [(0, 13), (10, 13), (12, 13)] {
            assert_eq!(d.panel_node_count(k, mt), (mt - k).min(g.p));
        }
    }

    #[test]
    fn equal_speeds_degenerate_to_block_cyclic() {
        let g = Grid::new(2, 2);
        let d = Dist::speed_weighted(g, &[7.0; 4]);
        assert_eq!(d, Dist::block_cyclic(g));
    }

    #[test]
    fn surplus_speeds_from_a_bigger_platform_are_ignored() {
        // A 2x2 grid on an 8-node platform's speed vector: ranks 0..4 map
        // to nodes 0..4, the rest are unused by the grid.
        let g = Grid::new(2, 2);
        let d = Dist::speed_weighted(g, &[2.0, 2.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0]);
        assert_eq!(d, Dist::speed_weighted(g, &[2.0, 2.0, 1.0, 1.0]));
    }

    #[test]
    fn weighted_ownership_tracks_the_weights() {
        // Grid rows weighted 2:1 → row 0 owns 2/3 of the tile rows.
        let g = Grid::new(2, 1);
        let d = Dist::weighted(g, &[2.0, 1.0], &[1.0]);
        let frac0 = d.ownership_fraction(0, 300, 300);
        let frac1 = d.ownership_fraction(1, 300, 300);
        assert!((frac0 - 2.0 / 3.0).abs() < 1e-12, "{frac0}");
        assert!((frac1 - 1.0 / 3.0).abs() < 1e-12, "{frac1}");
        assert!((frac0 + frac1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speed_weighted_2x2_gives_fast_row_its_share() {
        // Nodes 0,1 (grid row 0) 3x faster than nodes 2,3: row pattern
        // repeats grid row 0 three times per period of 4.
        let g = Grid::new(2, 2);
        let d = Dist::speed_weighted(g, &[3.0, 3.0, 1.0, 1.0]);
        let mt = 400;
        let f: Vec<f64> = (0..4).map(|n| d.ownership_fraction(n, mt, mt)).collect();
        assert!((f[0] - 0.375).abs() < 1e-12, "{f:?}"); // 3/4 of rows, 1/2 of cols
        assert!((f[2] - 0.125).abs() < 1e-12, "{f:?}");
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Column speeds are symmetric, so columns stay unweighted.
        assert_eq!(d.col_group(0), 0);
        assert_eq!(d.col_group(1), 1);
        assert_eq!(d.col_group(2), 0);
    }

    #[test]
    fn weighted_domains_partition_and_stay_colocated() {
        let g = Grid::new(3, 2);
        let d = Dist::weighted(g, &[4.0, 2.0, 1.0], &[1.0, 1.0]);
        let mt = 23;
        for k in 0..mt {
            let domains = d.panel_domains(k, mt);
            let mut all: Vec<usize> = domains.iter().flat_map(|(_, r)| r.clone()).collect();
            all.sort_unstable();
            assert_eq!(all, (k..mt).collect::<Vec<_>>(), "partition at k={k}");
            // Co-location: every row of a domain lives on one node (per
            // trailing column), and the diagonal domain matches.
            for (gr, rows) in &domains {
                for &i in rows {
                    assert_eq!(d.row_group(i), *gr);
                    assert_eq!(d.owner(i, k), *gr * g.q + d.col_group(k));
                }
            }
            let dd = domains
                .iter()
                .find(|(gr, _)| *gr == d.row_group(k))
                .unwrap();
            assert_eq!(dd.1, d.diagonal_domain_rows(k, mt));
            assert!(dd.1.contains(&k));
            // Count matches the distinct-groups definition.
            assert_eq!(d.panel_node_count(k, mt), domains.len());
        }
    }

    #[test]
    fn calibrated_floors_idle_nodes_and_tracks_observations() {
        let g = Grid::new(2, 1);
        // Observed 3:1 — same pattern as explicit weighting.
        let d = Dist::calibrated(g, &[3.0, 1.0]);
        assert_eq!(d, Dist::weighted(g, &[3.0, 1.0], &[1.0]));
        // An idle node (0.0 observed) is floored to the smallest positive
        // speed, not dropped from the pattern — with a single observation
        // that degenerates to an even split.
        let d = Dist::calibrated(g, &[5.0, 0.0]);
        assert_eq!(d, Dist::block_cyclic(g));
        // A NaN observation gets the same floor treatment.
        let d = Dist::calibrated(g, &[4.0, f64::NAN]);
        assert_eq!(d, Dist::weighted(g, &[4.0, 4.0], &[1.0]));
        // Nothing observed at all: fall back to plain block-cyclic.
        assert_eq!(Dist::calibrated(g, &[0.0, 0.0]), Dist::block_cyclic(g));
    }

    #[test]
    fn extreme_weights_keep_every_group_present() {
        // Even a 1000:1 weight keeps the slow row in the pattern (capped
        // repetitions), so no node is starved of panel participation.
        let g = Grid::new(2, 1);
        let d = Dist::weighted(g, &[1000.0, 1.0], &[1.0]);
        let frac1 = d.ownership_fraction(1, 330, 10);
        assert!(frac1 > 0.0, "slow row must still own tiles");
        assert!(frac1 < 0.05, "but only a sliver: {frac1}");
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
