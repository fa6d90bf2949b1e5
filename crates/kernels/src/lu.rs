//! LU factorization kernels.
//!
//! * [`getrf`] — blocked LU with partial pivoting on an m×n panel
//!   (right-looking, `IB`-wide block columns, Schur updates through the
//!   packed GEMM engine). Plays the role of the PLASMA recursive panel
//!   kernel the paper uses for the diagonal-domain factorization.
//! * [`getrf_nopiv`] — LU without pivoting (fails on an exactly-zero pivot).
//! * [`laswp`] — apply row interchanges.
//! * [`getrs`] — solve with an LU factorization, and [`getrs_right`] for
//!   right-side application `B <- B A^{-1}` (used by the block-LU variants
//!   B1/B2 of the paper, Section II-C2).
//!
//! Pivot conventions follow LAPACK: `ipiv[k] = p` means rows `k` and `p`
//! (0-based) were swapped at step `k`.

use crate::blas::{axpy, gemm, iamax, trsm, Diag, Side, Trans, UpLo};
use crate::flops::{add_flops, getrf_flops, KernelClass};
use crate::gemm_kernel::{gemm_strided, DIRECT_MAX_MNK, TILE_M};
use crate::mat::Mat;

/// Error type for factorization kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// A zero (or non-finite) pivot was encountered at the given elimination
    /// step; the factorization cannot proceed.
    ZeroPivot(usize),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::ZeroPivot(k) => write!(f, "zero pivot at elimination step {k}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Swap rows `r1` and `r2` of `a` over columns `j0..j1`.
pub fn swap_rows(a: &mut Mat, r1: usize, r2: usize, j0: usize, j1: usize) {
    if r1 == r2 {
        return;
    }
    for j in j0..j1 {
        let c = a.col_mut(j);
        c.swap(r1, r2);
    }
}

/// Apply the row interchanges `ipiv[k0..k1]` to all columns of `a`
/// (dlaswp, forward direction).
pub fn laswp(a: &mut Mat, ipiv: &[usize], k0: usize, k1: usize) {
    let n = a.cols();
    for (k, &p) in ipiv.iter().enumerate().take(k1).skip(k0) {
        swap_rows(a, k, p, 0, n);
    }
}

/// Apply the row interchanges in reverse order (undo a forward laswp).
pub fn laswp_backward(a: &mut Mat, ipiv: &[usize], k0: usize, k1: usize) {
    let n = a.cols();
    for k in (k0..k1).rev() {
        swap_rows(a, k, ipiv[k], 0, n);
    }
}

/// The strict reading of a `_continue` result: the pivots, or the first
/// zero-pivot step as an error.
fn strict((ipiv, first_zero): (Vec<usize>, Option<usize>)) -> Result<Vec<usize>, KernelError> {
    match first_zero {
        None => Ok(ipiv),
        Some(k) => Err(KernelError::ZeroPivot(k)),
    }
}

/// Unblocked LU with partial pivoting on the m×n matrix `a` (dgetf2).
///
/// On success, `L` (unit lower) and `U` (upper) overwrite `a`, and the pivot
/// vector is returned. Fails only if an entire pivot column is exactly zero
/// (or not finite) — [`getf2_continue`]'s report, as an error; `a` then
/// holds no usable factors.
pub fn getf2(a: &mut Mat) -> Result<Vec<usize>, KernelError> {
    strict(getf2_continue(a))
}

/// Unblocked LU with partial pivoting that, like LAPACK's DGETF2, *keeps
/// going* past an exactly-zero pivot: the multipliers of that column are
/// left untouched (no division) and the first zero-pivot step is reported.
/// Downstream triangular solves will then divide by zero and flood the
/// results with `inf`/`NaN` — precisely the "small values rounded up to 0
/// and then illegally used in a division" failure mode the paper observes
/// for LU NoPiv and LUPP on the Fiedler matrix (Section V-C).
pub fn getf2_continue(a: &mut Mat) -> (Vec<usize>, Option<usize>) {
    let (m, n) = a.dims();
    let steps = m.min(n);
    let mut ipiv = vec![0usize; steps];
    let mut first_zero = None;
    for k in 0..steps {
        let rel = iamax(&a.col(k)[k..]);
        let p = k + rel;
        ipiv[k] = p;
        swap_rows(a, k, p, 0, n);
        let pivot = a[(k, k)];
        if pivot == 0.0 || !pivot.is_finite() {
            if first_zero.is_none() {
                first_zero = Some(k);
            }
            continue; // LAPACK: skip the division, record info.
        }
        // Scale multipliers.
        let inv = 1.0 / pivot;
        for i in k + 1..m {
            a[(i, k)] *= inv;
        }
        // Rank-1 update of the trailing block, as contiguous-slice axpys
        // (bitwise-identical to the indexed loop, but vectorizable).
        for j in k + 1..n {
            let ukj = a[(k, j)];
            if ukj != 0.0 {
                let (ck, cj) = a.two_cols_mut(k, j);
                axpy(-ukj, &ck[k + 1..], &mut cj[k + 1..]);
            }
        }
    }
    add_flops(KernelClass::Getrf, getrf_flops(m, n));
    (ipiv, first_zero)
}

/// Blocked LU with partial pivoting (dgetrf, right-looking variant).
///
/// Plays the role of the PLASMA multi-threaded recursive panel kernel the
/// paper uses for the diagonal-domain factorization (sequential here):
/// factor `IB`-wide block columns in place with [`getf2`]-style pivoting,
/// then push the deferred trailing update through the packed GEMM engine.
/// Everything happens inside `a`'s own buffer — the only copy is the
/// `IB x (n-IB)` `U12` strip the Schur update needs aliasing-free. A zero
/// (or non-finite) pivot is an error — [`getrf_continue`]'s report — and
/// `a` then holds no usable factors.
pub fn getrf(a: &mut Mat) -> Result<Vec<usize>, KernelError> {
    strict(getrf_continue(a))
}

/// Blocked LU with partial pivoting that *continues* past zero pivots
/// (LAPACK `info` convention): same blocked structure as [`getrf`], but a
/// zero-pivot column is recorded and skipped (no division, no update with
/// that column) instead of aborting. Returns the pivots and the first
/// zero-pivot step, if any. All entries stay finite; when a zero pivot was
/// reported the factors are unusable and the caller is expected to fail
/// the run.
pub fn getrf_continue(a: &mut Mat) -> (Vec<usize>, Option<usize>) {
    let (m, n) = a.dims();
    let steps = m.min(n);
    const IB: usize = 8;
    let mut ipiv = Vec::with_capacity(steps);
    let mut first_zero = None;
    let mut u12 = Vec::new();
    let mut k0 = 0;
    while k0 < steps {
        let w = IB.min(steps - k0);
        getf2_in_place(a, k0, w, &mut ipiv, &mut first_zero);
        block_trailing_update(a, k0, w, &mut u12);
        k0 += w;
    }
    add_flops(KernelClass::Getrf, getrf_flops(m, n));
    (ipiv, first_zero)
}

/// Deferred right-of-block update shared by the blocked factorizations:
/// `U12 <- L11⁻¹ U12`, then `A22 -= L21 · U12`, all inside `a`'s buffer
/// (only the `w x nr` `U12` strip is staged into `u12`, aliasing-free).
fn block_trailing_update(a: &mut Mat, k0: usize, w: usize, u12: &mut Vec<f64>) {
    let (m, n) = a.dims();
    let nr = n - k0 - w; // trailing columns right of the block
    if nr == 0 {
        return;
    }
    // U12 <- L11^{-1} U12 (unit-lower forward substitution on the
    // block rows of every trailing column).
    for j in k0 + w..n {
        for p in 0..w {
            let kp = k0 + p;
            let (lcol, x) = a.two_cols_mut(kp, j);
            let xp = x[kp];
            if xp != 0.0 {
                axpy(-xp, &lcol[kp + 1..k0 + w], &mut x[kp + 1..k0 + w]);
            }
        }
    }
    // Deferred Schur update A22 -= L21 * U12, in place: stage the
    // U12 strip (it shares columns with A22), then split the
    // buffer at the block/trailing column boundary so L21 (left)
    // and A22 (right) borrow disjointly.
    let mr = m - k0 - w; // trailing rows below the block
    if mr > 0 {
        let lda = m;
        u12.clear();
        u12.reserve(w * nr);
        for j in k0 + w..n {
            u12.extend_from_slice(&a.col(j)[k0..k0 + w]);
        }
        let (left, right) = a.as_mut_slice().split_at_mut((k0 + w) * lda);
        let l21 = &left[k0 * lda + k0 + w..];
        let c22 = &mut right[k0 + w..];
        // In row chunks (whole register tiles) small enough for the direct
        // engine: a tall panel — the stacked diagonal domain is
        // `(nt − k)·nb` rows — would otherwise cross its size bound and
        // repack `L21` and `U12` for a product only `w` deep. Row grouping
        // never changes an entry's chain, so any panel height gives the bits
        // of the single call.
        let chunk = (DIRECT_MAX_MNK / (nr * w) / TILE_M * TILE_M).max(TILE_M);
        for i0 in (0..mr).step_by(chunk) {
            let rows = chunk.min(mr - i0);
            gemm_strided(
                rows,
                nr,
                w,
                -1.0,
                &l21[i0..],
                1,
                lda,
                u12,
                1,
                w,
                &mut c22[i0..],
                lda,
            );
        }
    }
}

/// One unblocked partially-pivoted elimination pass over block column
/// `k0..k0+w`, in place: pivot rows swap across the *full* width of `a`
/// (deferred-update convention — columns right of the block are updated by
/// the caller's TRSM/GEMM), rank-1 updates stay inside the block. Pivots
/// are appended to `ipiv` in absolute row indices. LAPACK `info`
/// semantics: a zero (or non-finite) pivot records the step in
/// `first_zero` and skips that column's division and in-block update.
/// Flops are accounted by the caller's closed-form total.
fn getf2_in_place(
    a: &mut Mat,
    k0: usize,
    w: usize,
    ipiv: &mut Vec<usize>,
    first_zero: &mut Option<usize>,
) {
    let n = a.cols();
    for kk in 0..w {
        let k = k0 + kk;
        let rel = iamax(&a.col(k)[k..]);
        let p = k + rel;
        ipiv.push(p);
        swap_rows(a, k, p, 0, n);
        let pivot = a[(k, k)];
        if pivot == 0.0 || !pivot.is_finite() {
            if first_zero.is_none() {
                *first_zero = Some(k);
            }
            continue; // LAPACK: skip the division, record info.
        }
        let inv = 1.0 / pivot;
        for v in &mut a.col_mut(k)[k + 1..] {
            *v *= inv;
        }
        for j in k + 1..k0 + w {
            let ukj = a[(k, j)];
            if ukj != 0.0 {
                let (ck, cj) = a.two_cols_mut(k, j);
                axpy(-ukj, &ck[k + 1..], &mut cj[k + 1..]);
            }
        }
    }
}

/// LU without pivoting (used by tests and the pure `LU NoPiv` discussion;
/// note the paper's "LU NoPiv" algorithm still pivots *inside* the diagonal
/// tile and therefore calls [`getrf`], not this).
pub fn getrf_nopiv(a: &mut Mat) -> Result<(), KernelError> {
    let (m, n) = a.dims();
    let steps = m.min(n);
    for k in 0..steps {
        let pivot = a[(k, k)];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(KernelError::ZeroPivot(k));
        }
        let inv = 1.0 / pivot;
        for i in k + 1..m {
            a[(i, k)] *= inv;
        }
        for j in k + 1..n {
            let ukj = a[(k, j)];
            if ukj != 0.0 {
                let (ck, cj) = a.two_cols_mut(k, j);
                axpy(-ukj, &ck[k + 1..], &mut cj[k + 1..]);
            }
        }
    }
    add_flops(KernelClass::Getrf, getrf_flops(m, n));
    Ok(())
}

/// Solve `A X = B` given the LU factorization of square `A` produced by
/// [`getrf`] (factors packed in `lu`, pivots in `ipiv`). `B` is overwritten
/// with the solution.
pub fn getrs(lu: &Mat, ipiv: &[usize], b: &mut Mat) {
    assert_eq!(lu.rows(), lu.cols());
    assert_eq!(lu.rows(), b.rows());
    laswp(b, ipiv, 0, ipiv.len());
    trsm(
        Side::Left,
        UpLo::Lower,
        Trans::NoTrans,
        Diag::Unit,
        1.0,
        lu,
        b,
    );
    trsm(
        Side::Left,
        UpLo::Upper,
        Trans::NoTrans,
        Diag::NonUnit,
        1.0,
        lu,
        b,
    );
}

/// Solve `X A = B` (i.e. `B <- B A^{-1}`) given the LU factorization of
/// square `A`. Needed by the block-LU variants (B1/B2) where the eliminate
/// step is `A_ik <- A_ik A_kk^{-1}` (paper §II-C2).
pub fn getrs_right(lu: &Mat, ipiv: &[usize], b: &mut Mat) {
    assert_eq!(lu.rows(), lu.cols());
    assert_eq!(lu.cols(), b.cols());
    // B A^{-1} = B (P^T L U)^{-1} = B U^{-1} L^{-1} P.
    trsm(
        Side::Right,
        UpLo::Upper,
        Trans::NoTrans,
        Diag::NonUnit,
        1.0,
        lu,
        b,
    );
    trsm(
        Side::Right,
        UpLo::Lower,
        Trans::NoTrans,
        Diag::Unit,
        1.0,
        lu,
        b,
    );
    // Apply P from the right: column interchanges in reverse order.
    for k in (0..ipiv.len()).rev() {
        let p = ipiv[k];
        if p != k {
            let (c1, c2) = b.two_cols_mut(k, p);
            c1.swap_with_slice(c2);
        }
    }
}

/// Reconstruct `P * A` from packed LU factors (test helper; also used by the
/// stability diagnostics to compute factorization residuals).
pub fn lu_reconstruct(lu: &Mat) -> Mat {
    let (m, n) = lu.dims();
    let k = m.min(n);
    let l = Mat::from_fn(m, k, |i, j| {
        if i == j {
            1.0
        } else if i > j {
            lu[(i, j)]
        } else {
            0.0
        }
    });
    let u = Mat::from_fn(k, n, |i, j| if i <= j { lu[(i, j)] } else { 0.0 });
    let mut pa = Mat::zeros(m, n);
    gemm(Trans::NoTrans, Trans::NoTrans, 1.0, &l, &u, 0.0, &mut pa);
    pa
}

/// Apply the permutation recorded in `ipiv` to a fresh copy of `a`
/// (i.e. compute `P * A`). Test helper.
pub fn permute_rows(a: &Mat, ipiv: &[usize]) -> Mat {
    let mut pa = a.clone();
    laswp(&mut pa, ipiv, 0, ipiv.len());
    pa
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_plu(a0: &Mat, lu: &Mat, ipiv: &[usize]) {
        let pa = permute_rows(a0, ipiv);
        let rec = lu_reconstruct(lu);
        let scale = a0.norm_max().max(1.0);
        assert!(
            pa.max_abs_diff(&rec) / scale < 1e-13,
            "PA != LU, err={}",
            pa.max_abs_diff(&rec)
        );
    }

    #[test]
    fn getf2_square() {
        let a0 = Mat::random(12, 12, 1);
        let mut a = a0.clone();
        let ipiv = getf2(&mut a).unwrap();
        check_plu(&a0, &a, &ipiv);
    }

    #[test]
    fn getf2_tall() {
        let a0 = Mat::random(20, 7, 2);
        let mut a = a0.clone();
        let ipiv = getf2(&mut a).unwrap();
        check_plu(&a0, &a, &ipiv);
    }

    #[test]
    fn getrf_recursive_square_matches_plu() {
        for n in [17, 33, 64, 100] {
            let a0 = Mat::random(n, n, n as u64);
            let mut a = a0.clone();
            let ipiv = getrf(&mut a).unwrap();
            check_plu(&a0, &a, &ipiv);
        }
    }

    #[test]
    fn getrf_recursive_tall_panel() {
        // The diagonal-domain panel: several stacked tiles, e.g. 4 tiles of 24.
        let a0 = Mat::random(96, 24, 9);
        let mut a = a0.clone();
        let ipiv = getrf(&mut a).unwrap();
        check_plu(&a0, &a, &ipiv);
    }

    #[test]
    fn getrf_pivots_select_column_max() {
        // With partial pivoting all multipliers are bounded by 1.
        let a0 = Mat::random(40, 40, 77);
        let mut a = a0.clone();
        let _ = getrf(&mut a).unwrap();
        for j in 0..40 {
            for i in j + 1..40 {
                assert!(
                    a[(i, j)].abs() <= 1.0 + 1e-14,
                    "multiplier > 1 at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn getrf_nopiv_breaks_on_zero_pivot() {
        let mut a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert_eq!(getrf_nopiv(&mut a), Err(KernelError::ZeroPivot(0)));
        // ... while pivoting handles it fine.
        let mut b = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!(getf2(&mut b).is_ok());
    }

    #[test]
    fn getrf_zero_column_is_error() {
        let mut a = Mat::zeros(3, 3);
        a[(0, 1)] = 1.0;
        a[(1, 2)] = 1.0;
        assert!(matches!(getf2(&mut a), Err(KernelError::ZeroPivot(0))));
    }

    #[test]
    fn getf2_continue_matches_getf2_on_regular_input() {
        let a0 = Mat::random(15, 15, 40);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let p1 = getf2(&mut a1).unwrap();
        let (p2, info) = getf2_continue(&mut a2);
        assert_eq!(info, None);
        assert_eq!(p1, p2);
        assert!(a1.max_abs_diff(&a2) < 1e-15);
    }

    #[test]
    fn getf2_continue_reports_and_survives_zero_column() {
        // Column 1 becomes exactly zero after step 0.
        let mut a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 1.0], &[3.0, 6.0, 2.0]]);
        let (_, info) = getf2_continue(&mut a);
        assert_eq!(info, Some(1));
        assert!(a.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn getrs_solves() {
        let n = 25;
        let a0 = Mat::random(n, n, 3);
        let x_true = Mat::random(n, 2, 4);
        let mut b = Mat::zeros(n, 2);
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            &a0,
            &x_true,
            0.0,
            &mut b,
        );
        let mut lu = a0.clone();
        let ipiv = getrf(&mut lu).unwrap();
        getrs(&lu, &ipiv, &mut b);
        assert!(b.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn getrs_right_applies_inverse_from_right() {
        let n = 15;
        let a0 = Mat::random(n, n, 5);
        let x_true = Mat::random(4, n, 6);
        // B = X * A
        let mut b = Mat::zeros(4, n);
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            &x_true,
            &a0,
            0.0,
            &mut b,
        );
        let mut lu = a0.clone();
        let ipiv = getrf(&mut lu).unwrap();
        getrs_right(&lu, &ipiv, &mut b);
        assert!(b.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn laswp_roundtrip() {
        let a0 = Mat::random(10, 4, 8);
        let ipiv = vec![3, 5, 2, 9];
        let mut a = a0.clone();
        laswp(&mut a, &ipiv, 0, 4);
        laswp_backward(&mut a, &ipiv, 0, 4);
        assert_eq!(a, a0);
    }

    /// The Schur update of a tall panel is cut into row chunks that stay on
    /// the direct engine; the factors are, bit for bit, those of the form
    /// that hands each block's whole update to one `gemm_strided` call
    /// (which past ~1 420 rows at 96 columns is the packed engine).
    #[test]
    fn getrf_tall_panel_is_bitwise_the_single_call_form() {
        const IB: usize = 8;
        for (m, n) in [(96, 96), (480, 96), (1440, 96), (2880, 96), (1501, 61)] {
            let a0 = Mat::random(m, n, (m + n) as u64);
            let mut a = a0.clone();
            let ipiv = getrf(&mut a).unwrap();

            let (mut r, mut ipiv_ref) = (a0.clone(), Vec::new());
            for k0 in (0..n).step_by(IB) {
                let w = IB.min(n - k0);
                getf2_in_place(&mut r, k0, w, &mut ipiv_ref, &mut None);
                let (nr, mr) = (n - k0 - w, m - k0 - w);
                if nr == 0 {
                    continue;
                }
                // U12 <- L11⁻¹ U12, as `block_trailing_update` does it.
                for j in k0 + w..n {
                    for kp in k0..k0 + w {
                        let (lcol, x) = r.two_cols_mut(kp, j);
                        let xp = x[kp];
                        if xp != 0.0 {
                            axpy(-xp, &lcol[kp + 1..k0 + w], &mut x[kp + 1..k0 + w]);
                        }
                    }
                }
                let u12 = r.sub(k0, k0 + w, w, nr);
                let (left, right) = r.as_mut_slice().split_at_mut((k0 + w) * m);
                let (l21, c22) = (&left[k0 * m + k0 + w..], &mut right[k0 + w..]);
                gemm_strided(mr, nr, w, -1.0, l21, 1, m, u12.as_slice(), 1, w, c22, m);
            }
            assert_eq!(ipiv, ipiv_ref, "{m}x{n}: pivots");
            assert!(
                crate::same_bits(a.as_slice(), r.as_slice()),
                "{m}x{n}: factors"
            );
        }
    }

    #[test]
    fn recursive_matches_unblocked() {
        let a0 = Mat::random(48, 48, 21);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let p1 = getf2(&mut a1).unwrap();
        let p2 = getrf(&mut a2).unwrap();
        // Same pivot choices (ties broken identically) => identical factors.
        assert_eq!(p1, p2);
        assert!(a1.max_abs_diff(&a2) < 1e-12);
    }
}
