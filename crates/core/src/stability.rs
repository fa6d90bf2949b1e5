//! Backward-stability metrics (paper Section V-A).
//!
//! The paper evaluates stability with the HPL3 accuracy test of the
//! High-Performance Linpack benchmark:
//!
//! ```text
//! HPL3 = ‖A x − b‖∞ / (‖A‖∞ · ‖x‖∞ · ε · N)
//! ```
//!
//! and reports each algorithm's HPL3 *relative to LUPP* on the same system
//! (Figures 2 and 3). Values near 1 mean "as stable as partial pivoting";
//! large values mean instability; `NaN`/`inf` means the factorization broke
//! down entirely.

use luqr_kernels::blas::{gemm, Trans};
use luqr_kernels::Mat;

/// HPL3 backward-error measure of a computed solution.
pub fn hpl3(a: &Mat, x: &Mat, b: &Mat) -> f64 {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(x.rows(), n);
    assert_eq!(b.dims(), x.dims());
    if !x.all_finite() {
        return f64::INFINITY;
    }
    // r = A x - b.
    let mut r = b.clone();
    gemm(Trans::NoTrans, Trans::NoTrans, 1.0, a, x, -1.0, &mut r);
    let eps = f64::EPSILON;
    r.norm_inf() / (a.norm_inf() * x.norm_inf() * eps * n as f64)
}

/// Ratio of two HPL3 values with careful handling of breakdowns: a failed
/// numerator gives `inf`, a failed reference gives `0` (better than a
/// broken LUPP — the Fiedler case).
pub fn relative_hpl3(value: f64, reference: f64) -> f64 {
    if value.is_nan() || value.is_infinite() {
        return f64::INFINITY;
    }
    if reference.is_nan() || reference.is_infinite() || reference == 0.0 {
        return 0.0;
    }
    value / reference
}

/// Growth factor of a sequence of per-step panel norms against the first
/// (diagnostic for the criteria's growth bounds).
pub fn growth_factor(panel_norms: &[f64]) -> f64 {
    if panel_norms.is_empty() || panel_norms[0] == 0.0 {
        return 1.0;
    }
    let max = panel_norms.iter().copied().fold(0.0f64, f64::max);
    max / panel_norms[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_solution_gives_tiny_hpl3() {
        let n = 16;
        let a = Mat::random(n, n, 1);
        let x = Mat::random(n, 1, 2);
        let mut b = Mat::zeros(n, 1);
        gemm(Trans::NoTrans, Trans::NoTrans, 1.0, &a, &x, 0.0, &mut b);
        let v = hpl3(&a, &x, &b);
        assert!(v < 1.0, "exact solve must score far below 1, got {v}");
    }

    #[test]
    fn perturbed_solution_scores_large() {
        let n = 16;
        let a = Mat::random(n, n, 3);
        let x = Mat::random(n, 1, 4);
        let mut b = Mat::zeros(n, 1);
        gemm(Trans::NoTrans, Trans::NoTrans, 1.0, &a, &x, 0.0, &mut b);
        let mut bad = x.clone();
        bad[(0, 0)] += 1e-6;
        assert!(hpl3(&a, &bad, &b) > 1e6);
    }

    #[test]
    fn nan_solution_is_infinite() {
        let n = 4;
        let a = Mat::eye(n);
        let mut x = Mat::zeros(n, 1);
        x[(0, 0)] = f64::NAN;
        let b = Mat::zeros(n, 1);
        assert_eq!(hpl3(&a, &x, &b), f64::INFINITY);
    }

    #[test]
    fn relative_ratio_edge_cases() {
        assert_eq!(relative_hpl3(f64::NAN, 1.0), f64::INFINITY);
        assert_eq!(relative_hpl3(2.0, f64::INFINITY), 0.0);
        assert_eq!(relative_hpl3(4.0, 2.0), 2.0);
    }

    #[test]
    fn growth_factor_tracks_max() {
        assert_eq!(growth_factor(&[1.0, 4.0, 2.0]), 4.0);
        assert_eq!(growth_factor(&[]), 1.0);
        assert_eq!(growth_factor(&[2.0, 1.0]), 1.0);
    }
}
