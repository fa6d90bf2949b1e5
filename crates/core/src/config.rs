//! Configuration types for the factorization drivers.

use luqr_kernels::DEFAULT_IB;
use luqr_tile::{Dist, Grid};

use crate::criteria::Criterion;
use crate::trees::TreeConfig;

/// Which factorization algorithm to run (paper Section V-B's contenders).
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// The hybrid LU-QR algorithm (Algorithm 1) with the given robustness
    /// criterion deciding LU vs QR at every step.
    LuQr(Criterion),
    /// LU with pivoting restricted to the diagonal tile — efficient but
    /// unstable ("LU NoPiv" in the paper; it *does* pivot inside the tile).
    LuNoPiv,
    /// LU with incremental (pairwise) pivoting across the panel
    /// ("LU IncPiv"; stable-ish, degrades with tile count).
    LuIncPiv,
    /// LU with partial pivoting across the whole panel — the stability
    /// reference ("LUPP", ScaLAPACK-style).
    Lupp,
    /// Hierarchical tiled QR — the performance-stability reference
    /// ("HQR"); unconditionally stable, 2x flops.
    Hqr,
}

impl Algorithm {
    pub fn name(&self) -> String {
        match self {
            Algorithm::LuQr(c) => format!("LUQR({})", c.name()),
            Algorithm::LuNoPiv => "LU NoPiv".to_string(),
            Algorithm::LuIncPiv => "LU IncPiv".to_string(),
            Algorithm::Lupp => "LUPP".to_string(),
            Algorithm::Hqr => "HQR".to_string(),
        }
    }
}

/// Where the hybrid algorithm searches for pivots during its LU trial
/// factorization (paper Section II-A, assessed in Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotScope {
    /// Pivot only inside the diagonal tile.
    DiagonalTile,
    /// Pivot across the whole diagonal domain (the experimental default:
    /// bigger pivot pool, still no inter-node communication).
    DiagonalDomain,
}

/// LU-step variant (paper Section II-A/II-C). The paper's experiments use
/// (A1); (A2) is implemented for completeness — its benefit is that a
/// rejected trial is already the first kernel of the QR step. The block-LU
/// variants (B1)/(B2) are analyzed in the paper's reference \[4\] and left
/// out here (their block-triangular output changes the solve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LuVariant {
    /// (A1): GETRF on the panel (tile or domain scope), TRSM eliminate,
    /// pivots + SWPTRSM apply, GEMM update.
    #[default]
    A1,
    /// (A2): GEQRT on the diagonal tile, TRSM eliminate against `R`,
    /// UNMQR apply (`Qᵀ A_kj`), GEMM update. No pivoting at all — the
    /// criterion is the only stability guard. Forces
    /// [`PivotScope::DiagonalTile`].
    A2,
}

/// How tiles map onto the process grid.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum DistPolicy {
    /// Plain 2D block-cyclic: tile `(i, j)` → node `(i mod p, j mod q)`.
    #[default]
    BlockCyclic,
    /// Speed-aware weighted block-cyclic: one speed per grid rank (use
    /// [`luqr_runtime::Platform::node_speeds`] for a platform-derived
    /// vector); faster nodes own proportionally more tiles. See
    /// [`luqr_tile::Dist::speed_weighted`].
    SpeedWeighted(Vec<f64>),
    /// Criterion-aware calibrated weighting: per-rank *observed*
    /// effective speeds from a first run's simulation report
    /// ([`luqr_runtime::SimReport::observed_node_speeds`]), so the weights
    /// reflect the kernel-class mix the run actually executed (a QR-heavy
    /// hybrid run weights by QR throughput, not GEMM). Build via
    /// [`FactorOptions::calibrated_from`]; resolved through
    /// [`luqr_tile::Dist::calibrated`].
    Calibrated(Vec<f64>),
}

/// Options for a factorization run.
#[derive(Debug, Clone)]
pub struct FactorOptions {
    /// Tile size.
    pub nb: usize,
    /// Inner blocking of the QR kernels (default [`DEFAULT_IB`]).
    pub ib: usize,
    /// Virtual process grid (2D block-cyclic distribution).
    pub grid: Grid,
    /// Tile-ownership policy over that grid (plain or speed-weighted
    /// block-cyclic).
    pub dist: DistPolicy,
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Reduction trees for QR steps.
    pub trees: TreeConfig,
    /// Worker threads for the executor.
    pub threads: usize,
    /// Pivot search scope for the hybrid's LU trial.
    pub pivot_scope: PivotScope,
    /// LU-step variant for the hybrid (paper §II-C).
    pub lu_variant: LuVariant,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            nb: 80,
            ib: DEFAULT_IB,
            grid: Grid::single(),
            dist: DistPolicy::BlockCyclic,
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
            trees: TreeConfig::default(),
            threads: available_threads(),
            pivot_scope: PivotScope::DiagonalDomain,
            lu_variant: LuVariant::A1,
        }
    }
}

impl FactorOptions {
    /// Builder-style helpers.
    pub fn with_algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    pub fn with_grid(mut self, g: Grid) -> Self {
        self.grid = g;
        self
    }

    /// Speed-aware weighted distribution from per-node speeds (one entry
    /// per grid rank).
    pub fn with_speed_weights(mut self, speeds: Vec<f64>) -> Self {
        self.dist = DistPolicy::SpeedWeighted(speeds);
        self
    }

    /// Criterion-aware calibration: weight the distribution by the
    /// effective per-node speeds *observed* in `report` (the replay of a
    /// first run on `platform`), instead of the platform's nominal GEMM
    /// throughput. See
    /// [`DistPolicy::Calibrated`].
    pub fn calibrated_from(
        mut self,
        report: &luqr_runtime::SimReport,
        platform: &luqr_runtime::Platform,
    ) -> Self {
        self.dist = DistPolicy::Calibrated(report.observed_node_speeds(platform));
        self
    }

    /// The concrete tile-ownership map these options describe.
    ///
    /// Panics if a [`DistPolicy::SpeedWeighted`] speed vector is shorter
    /// than the grid's rank count (surplus entries — a platform with more
    /// nodes than the grid — are ignored, since grid rank `r` runs on
    /// platform node `r`).
    pub fn tile_dist(&self) -> Dist {
        match &self.dist {
            DistPolicy::BlockCyclic => Dist::block_cyclic(self.grid),
            DistPolicy::SpeedWeighted(speeds) => Dist::speed_weighted(self.grid, speeds),
            DistPolicy::Calibrated(observed) => Dist::calibrated(self.grid, observed),
        }
    }

    pub fn with_nb(mut self, nb: usize) -> Self {
        self.nb = nb;
        self
    }

    pub fn with_trees(mut self, t: TreeConfig) -> Self {
        self.trees = t;
        self
    }
}

/// Default worker count: the machine's parallelism.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The per-step choice made by the hybrid algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    Lu,
    Qr,
}

/// What happened at one elimination step.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Step index.
    pub k: usize,
    /// LU or QR.
    pub decision: Decision,
    /// The criterion's left-hand side (e.g. `α·‖A_kk⁻¹‖⁻¹`); semantics
    /// depend on the criterion.
    pub lhs: f64,
    /// The criterion's right-hand side (e.g. `max‖A_ik‖`).
    pub rhs: f64,
    /// Largest panel column 1-norm observed at this step (growth tracking).
    pub panel_norm: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_sane() {
        let o = FactorOptions::default();
        assert!(o.nb >= 1 && o.ib >= 1 && o.threads >= 1);
        assert_eq!(o.pivot_scope, PivotScope::DiagonalDomain);
    }

    #[test]
    fn tile_dist_defaults_to_block_cyclic() {
        let o = FactorOptions::default().with_grid(Grid::new(2, 2));
        assert_eq!(o.tile_dist(), Dist::block_cyclic(Grid::new(2, 2)));
        let w = o.with_speed_weights(vec![2.0, 2.0, 1.0, 1.0]);
        assert!(w.tile_dist().ownership_fraction(0, 100, 100) > 0.25);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Hqr.name(), "HQR");
        assert!(Algorithm::LuQr(Criterion::Max { alpha: 2.0 })
            .name()
            .contains("Max"));
    }
}
