//! Configuration types for the factorization drivers.

use luqr_kernels::DEFAULT_IB;
use luqr_tile::Grid;

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
    /// Tiled hierarchical QR — the performance-stability reference
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

/// Options for a factorization run.
#[derive(Debug, Clone)]
pub struct FactorOptions {
    /// Tile size.
    pub nb: usize,
    /// Inner blocking of the QR kernels (default [`DEFAULT_IB`]).
    pub ib: usize,
    /// Virtual process grid: tile `(i, j)` lives on node
    /// [`Grid::owner`]`(i, j)` (2D block-cyclic distribution).
    pub grid: Grid,
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
    fn algorithm_names() {
        assert_eq!(Algorithm::Hqr.name(), "HQR");
        assert!(Algorithm::LuQr(Criterion::Max { alpha: 2.0 })
            .name()
            .contains("Max"));
    }
}
