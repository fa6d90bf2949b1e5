//! BLAS-like dense operations on [`Mat`].
//!
//! These are the building blocks for the LAPACK-style tile kernels. They
//! follow the BLAS parameter conventions (side / uplo / trans / diag) for the
//! combinations the solver actually uses, and report flops to the global
//! counters of [`crate::flops`].
//!
//! The Level-3 kernels are backed by the packed, register-tiled microkernel
//! in [`crate::gemm_kernel`] (GotoBLAS-style MC/KC/NC cache blocking around
//! an MR×NR register tile — see that module for the parameters and how to
//! tune them). All four GEMM transpose combinations and the blocked TRSM
//! path route through it; [`gemm_reference`] preserves the previous scalar
//! implementation for tests and benchmarks. Reported flops are exactly the
//! textbook `2 m n k` / `m n²` counts that Table I of the paper accounts
//! for, independent of blocking and fringe padding.

use crate::flops::{add_flops, gemm_flops, trsm_flops, KernelClass};
use crate::gemm_kernel::gemm_strided;
use crate::mat::Mat;

/// Which side a triangular matrix is applied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Which triangle of the matrix is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpLo {
    Upper,
    Lower,
}

/// Whether to use the matrix or its transpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    NoTrans,
    Trans,
}

/// Whether the triangular matrix has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    NonUnit,
    Unit,
}

// ---------------------------------------------------------------------------
// Level 1
// ---------------------------------------------------------------------------

/// `y += alpha * x`.
///
/// On x86-64 with AVX2+FMA this runs 4 lanes wide with fused
/// multiply-adds; per-element results differ from the scalar form only by
/// the FMA's skipped intermediate rounding, well inside the workspace's
/// componentwise kernel error model.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 8 && crate::gemm_kernel::avx2_fma_available() {
        unsafe { axpy_avx2(alpha, x, y) };
        return;
    }
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = x.len();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0;
    while i + 4 <= n {
        let xv = _mm256_loadu_pd(x.as_ptr().add(i));
        let yv = _mm256_loadu_pd(y.as_ptr().add(i));
        _mm256_storeu_pd(y.as_mut_ptr().add(i), _mm256_fmadd_pd(av, xv, yv));
        i += 4;
    }
    while i < n {
        *y.get_unchecked_mut(i) = alpha.mul_add(*x.get_unchecked(i), *y.get_unchecked(i));
        i += 1;
    }
}

/// Fused rank-4 axpy: `y += c0*x0 + c1*x1 + c2*x2 + c3*x3` in one pass.
/// Loads and stores `y` once instead of four times — the memory-traffic
/// saving that makes the blocked substitution in [`trsm`] pay off.
fn axpy4(c: [f64; 4], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64], y: &mut [f64]) {
    debug_assert!(x0.len() == y.len() && x1.len() == y.len());
    debug_assert!(x2.len() == y.len() && x3.len() == y.len());
    #[cfg(target_arch = "x86_64")]
    if y.len() >= 4 && crate::gemm_kernel::avx2_fma_available() {
        unsafe { axpy4_avx2(c, x0, x1, x2, x3, y) };
        return;
    }
    for i in 0..y.len() {
        y[i] += c[0] * x0[i] + c[1] * x1[i] + c[2] * x2[i] + c[3] * x3[i];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy4_avx2(c: [f64; 4], x0: &[f64], x1: &[f64], x2: &[f64], x3: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = y.len();
    let c0 = _mm256_set1_pd(c[0]);
    let c1 = _mm256_set1_pd(c[1]);
    let c2 = _mm256_set1_pd(c[2]);
    let c3 = _mm256_set1_pd(c[3]);
    let mut i = 0;
    while i + 4 <= n {
        let mut acc = _mm256_loadu_pd(y.as_ptr().add(i));
        acc = _mm256_fmadd_pd(c0, _mm256_loadu_pd(x0.as_ptr().add(i)), acc);
        acc = _mm256_fmadd_pd(c1, _mm256_loadu_pd(x1.as_ptr().add(i)), acc);
        acc = _mm256_fmadd_pd(c2, _mm256_loadu_pd(x2.as_ptr().add(i)), acc);
        acc = _mm256_fmadd_pd(c3, _mm256_loadu_pd(x3.as_ptr().add(i)), acc);
        _mm256_storeu_pd(y.as_mut_ptr().add(i), acc);
        i += 4;
    }
    while i < n {
        let v = c[3].mul_add(
            *x3.get_unchecked(i),
            c[2].mul_add(
                *x2.get_unchecked(i),
                c[1].mul_add(*x1.get_unchecked(i), c[0] * *x0.get_unchecked(i)),
            ),
        );
        *y.get_unchecked_mut(i) += v;
        i += 1;
    }
}

/// Dot product.
///
/// The AVX2 path accumulates in 4 independent lanes reduced at the end — a
/// reassociation of the scalar sum covered by the kernel error model.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 8 && crate::gemm_kernel::avx2_fma_available() {
        return unsafe { dot_avx2(x, y) };
    }
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let n = x.len();
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        let xv = _mm256_loadu_pd(x.as_ptr().add(i));
        let yv = _mm256_loadu_pd(y.as_ptr().add(i));
        acc = _mm256_fmadd_pd(xv, yv, acc);
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while i < n {
        s += x.get_unchecked(i) * y.get_unchecked(i);
        i += 1;
    }
    s
}

/// Sum and maximum of absolute values in one pass: `(Σ|xᵢ|, max|xᵢ|)`.
///
/// The AVX2 path keeps 4 independent sum/max lanes reduced at the end — the
/// usual norm reassociation covered by the kernel error model. Used by the
/// panel criterion scans, which would otherwise serialize on the scalar
/// sum's loop-carried dependency.
pub fn abs_sum_max(x: &[f64]) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 8 && crate::gemm_kernel::avx2_fma_available() {
        return unsafe { abs_sum_max_avx2(x) };
    }
    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    for &v in x {
        let a = v.abs();
        sum += a;
        max = max.max(a);
    }
    (sum, max)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn abs_sum_max_avx2(x: &[f64]) -> (f64, f64) {
    use std::arch::x86_64::*;
    let n = x.len();
    let sign_mask = _mm256_set1_pd(-0.0);
    let mut sum0 = _mm256_setzero_pd();
    let mut sum1 = _mm256_setzero_pd();
    let mut max0 = _mm256_setzero_pd();
    let mut max1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 8 <= n {
        let a0 = _mm256_andnot_pd(sign_mask, _mm256_loadu_pd(x.as_ptr().add(i)));
        let a1 = _mm256_andnot_pd(sign_mask, _mm256_loadu_pd(x.as_ptr().add(i + 4)));
        sum0 = _mm256_add_pd(sum0, a0);
        sum1 = _mm256_add_pd(sum1, a1);
        max0 = _mm256_max_pd(max0, a0);
        max1 = _mm256_max_pd(max1, a1);
        i += 8;
    }
    sum0 = _mm256_add_pd(sum0, sum1);
    max0 = _mm256_max_pd(max0, max1);
    let mut s_lanes = [0.0f64; 4];
    let mut m_lanes = [0.0f64; 4];
    _mm256_storeu_pd(s_lanes.as_mut_ptr(), sum0);
    _mm256_storeu_pd(m_lanes.as_mut_ptr(), max0);
    let mut sum = (s_lanes[0] + s_lanes[1]) + (s_lanes[2] + s_lanes[3]);
    let mut max = m_lanes[0].max(m_lanes[1]).max(m_lanes[2]).max(m_lanes[3]);
    while i < n {
        let a = x.get_unchecked(i).abs();
        sum += a;
        max = max.max(a);
        i += 1;
    }
    (sum, max)
}

/// Euclidean norm with scaling against overflow (dnrm2-style).
pub fn nrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale < a {
                ssq = 1.0 + ssq * (scale / a).powi(2);
                scale = a;
            } else {
                ssq += (a / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Index of the element with the largest absolute value (first on ties).
///
/// The AVX2 path tracks a per-lane running max and its index with a
/// compare/blend pair; the final cross-lane reduction picks the lowest
/// index among equal maxima, so the result is bit-identical to the scalar
/// scan (pivot choices cannot drift between builds).
pub fn iamax(x: &[f64]) -> usize {
    #[cfg(target_arch = "x86_64")]
    if x.len() >= 16 && crate::gemm_kernel::avx2_fma_available() {
        return unsafe { iamax_avx2(x) };
    }
    iamax_scalar(x)
}

fn iamax_scalar(x: &[f64]) -> usize {
    let mut best = 0usize;
    let mut bv = f64::NEG_INFINITY;
    for (i, &v) in x.iter().enumerate() {
        let a = v.abs();
        if a > bv {
            bv = a;
            best = i;
        }
    }
    best
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn iamax_avx2(x: &[f64]) -> usize {
    use std::arch::x86_64::*;
    let n = x.len();
    let sign_mask = _mm256_set1_pd(-0.0);
    let mut max = _mm256_set1_pd(f64::NEG_INFINITY);
    let mut idx = _mm256_setzero_pd();
    let mut cur = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    let four = _mm256_set1_pd(4.0);
    let mut i = 0;
    while i + 4 <= n {
        let a = _mm256_andnot_pd(sign_mask, _mm256_loadu_pd(x.as_ptr().add(i)));
        // Strictly-greater keeps the first occurrence per lane.
        let gt = _mm256_cmp_pd::<{ _CMP_GT_OQ }>(a, max);
        max = _mm256_blendv_pd(max, a, gt);
        idx = _mm256_blendv_pd(idx, cur, gt);
        cur = _mm256_add_pd(cur, four);
        i += 4;
    }
    let mut m_lanes = [0.0f64; 4];
    let mut i_lanes = [0.0f64; 4];
    _mm256_storeu_pd(m_lanes.as_mut_ptr(), max);
    _mm256_storeu_pd(i_lanes.as_mut_ptr(), idx);
    let mut bv = f64::NEG_INFINITY;
    let mut best = 0usize;
    for l in 0..4 {
        let li = i_lanes[l] as usize;
        // Ties across lanes resolve to the lowest index, matching the
        // scalar first-on-ties rule (lane order is not position order).
        if m_lanes[l] > bv || (m_lanes[l] == bv && li < best) {
            bv = m_lanes[l];
            best = li;
        }
    }
    while i < n {
        let a = x.get_unchecked(i).abs();
        if a > bv {
            bv = a;
            best = i;
        }
        i += 1;
    }
    best
}

/// Scale a slice in place.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// The `beta·C` half of a BLAS update. `beta = 0` means the output is *not
/// read*: it is overwritten with `+0.0`, so a NaN or Inf left in a reused
/// buffer does not survive as `0·NaN`, nor a negative entry as `−0.0`.
fn scale_output(beta: f64, c: &mut [f64]) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        scal(beta, c);
    }
}

// ---------------------------------------------------------------------------
// Level 2
// ---------------------------------------------------------------------------

/// `y = alpha * op(A) * x + beta * y`.
pub fn gemv(trans: Trans, alpha: f64, a: &Mat, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, n) = a.dims();
    match trans {
        Trans::NoTrans => {
            debug_assert_eq!(x.len(), n);
            debug_assert_eq!(y.len(), m);
            scale_output(beta, y);
            for (j, &xj) in x.iter().enumerate() {
                let axj = alpha * xj;
                if axj != 0.0 {
                    axpy(axj, a.col(j), y);
                }
            }
        }
        Trans::Trans => {
            debug_assert_eq!(x.len(), m);
            debug_assert_eq!(y.len(), n);
            scale_output(beta, y);
            for (j, yj) in y.iter_mut().enumerate() {
                *yj += alpha * dot(a.col(j), x);
            }
        }
    }
    add_flops(KernelClass::Other, gemm_flops(m, 1, n));
}

/// Rank-1 update `A += alpha * x * y^T`.
pub fn ger(alpha: f64, x: &[f64], y: &[f64], a: &mut Mat) {
    let (m, n) = a.dims();
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(y.len(), n);
    for (j, &yj) in y.iter().enumerate() {
        let ayj = alpha * yj;
        if ayj != 0.0 {
            axpy(ayj, x, a.col_mut(j));
        }
    }
    add_flops(KernelClass::Other, gemm_flops(m, n, 1));
}

// ---------------------------------------------------------------------------
// Level 3: GEMM
// ---------------------------------------------------------------------------

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Dimensions: `op(A)` is m×k, `op(B)` is k×n, `C` is m×n; `beta = 0`
/// overwrites `C` without reading it. Backed by [`crate::gemm_kernel`], with
/// transposition folded into the operand strides. Which engine runs depends
/// on the shape, never on the values: with AVX-512, an untransposed `B` and
/// `m·n·k ≤ 10⁶` (every tile product up to nb = 100) the product runs on the
/// direct 16 × 8 register tile, `A` read in place or, transposed, gathered
/// once; a transposed `B`, a larger product or a host without AVX-512 takes
/// the packed 8 × 6 path (see the module docs there, "Which shapes run
/// where").
pub fn gemm(transa: Trans, transb: Trans, alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &mut Mat) {
    let (m, n) = c.dims();
    let k = gemm_check_dims(transa, transb, a, b, c);

    scale_output(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        add_flops(KernelClass::Gemm, 0);
        return;
    }

    // op(A)(i, p): NoTrans reads a[i + p*lda], Trans reads a[p + i*lda].
    let (a_rs, a_cs) = match transa {
        Trans::NoTrans => (1, a.rows()),
        Trans::Trans => (a.rows(), 1),
    };
    let (b_rs, b_cs) = match transb {
        Trans::NoTrans => (1, b.rows()),
        Trans::Trans => (b.rows(), 1),
    };
    gemm_strided(
        m,
        n,
        k,
        alpha,
        a.as_slice(),
        a_rs,
        a_cs,
        b.as_slice(),
        b_rs,
        b_cs,
        c.as_mut_slice(),
        m,
    );
    add_flops(KernelClass::Gemm, gemm_flops(m, n, k));
}

fn gemm_check_dims(transa: Trans, transb: Trans, a: &Mat, b: &Mat, c: &Mat) -> usize {
    let (m, n) = c.dims();
    let k = match transa {
        Trans::NoTrans => {
            assert_eq!(a.rows(), m, "gemm: A rows != C rows");
            a.cols()
        }
        Trans::Trans => {
            assert_eq!(a.cols(), m, "gemm: A^T rows != C rows");
            a.rows()
        }
    };
    match transb {
        Trans::NoTrans => {
            assert_eq!(b.dims(), (k, n), "gemm: B dims mismatch");
        }
        Trans::Trans => {
            assert_eq!(b.dims(), (n, k), "gemm: B^T dims mismatch");
        }
    }
    k
}

/// Cache block sizes for [`gemm_reference`] (the pre-microkernel GEMM).
const REF_MC: usize = 64;
const REF_KC: usize = 128;
const REF_NC: usize = 256;

/// The previous scalar GEMM (`C = alpha * op(A) * op(B) + beta * C`): blocked
/// jki loops for NoTrans/NoTrans, plain loops otherwise. Kept as the
/// reference implementation the property tests and the `gemm` benchmark
/// compare the packed microkernel against; reports the same `2 m n k` flops.
pub fn gemm_reference(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Mat,
    b: &Mat,
    beta: f64,
    c: &mut Mat,
) {
    let (m, n) = c.dims();
    let k = gemm_check_dims(transa, transb, a, b, c);

    scale_output(beta, c.as_mut_slice());
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        add_flops(KernelClass::Gemm, 0);
        return;
    }

    match (transa, transb) {
        (Trans::NoTrans, Trans::NoTrans) => {
            for jj in (0..n).step_by(REF_NC) {
                let je = (jj + REF_NC).min(n);
                for kk in (0..k).step_by(REF_KC) {
                    let ke = (kk + REF_KC).min(k);
                    for ii in (0..m).step_by(REF_MC) {
                        let ie = (ii + REF_MC).min(m);
                        for j in jj..je {
                            for p in kk..ke {
                                let abp = alpha * b[(p, j)];
                                if abp != 0.0 {
                                    let acol = &a.col(p)[ii..ie];
                                    let ccol = &mut c.col_mut(j)[ii..ie];
                                    for (cv, av) in ccol.iter_mut().zip(acol) {
                                        *cv += abp * av;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        (Trans::Trans, Trans::NoTrans) => {
            // C(i,j) += alpha * dot(A(:,i), B(:,j)) — both column reads are contiguous.
            for j in 0..n {
                for i in 0..m {
                    let s = dot(&a.col(i)[..k], &b.col(j)[..k]);
                    c[(i, j)] += alpha * s;
                }
            }
        }
        (Trans::NoTrans, Trans::Trans) => {
            for j in 0..n {
                for p in 0..k {
                    let abp = alpha * b[(j, p)];
                    if abp != 0.0 {
                        let acol = a.col(p);
                        let ccol = c.col_mut(j);
                        for (cv, av) in ccol.iter_mut().zip(acol) {
                            *cv += abp * av;
                        }
                    }
                }
            }
        }
        (Trans::Trans, Trans::Trans) => {
            for j in 0..n {
                for i in 0..m {
                    let mut s = 0.0;
                    for p in 0..k {
                        s += a[(p, i)] * b[(j, p)];
                    }
                    c[(i, j)] += alpha * s;
                }
            }
        }
    }
    add_flops(KernelClass::Gemm, gemm_flops(m, n, k));
}

// ---------------------------------------------------------------------------
// Level 3: TRSM
// ---------------------------------------------------------------------------

/// Triangle dimension above which [`trsm`] switches to the blocked
/// algorithm: diagonal-block scalar solves plus packed-GEMM updates of the
/// off-diagonal part (which carries ~all the flops once `d ≫ TRSM_NB`).
const TRSM_NB: usize = 16;

/// Triangular solve with multiple right-hand sides:
/// `B <- alpha * op(A)^{-1} B` (Left) or `B <- alpha * B op(A)^{-1}` (Right).
///
/// `A` is the triangular factor; only the triangle selected by `uplo` is
/// referenced (plus the diagonal unless `Diag::Unit`). Triangles larger than
/// `TRSM_NB` take a blocked path whose bulk work runs on the packed GEMM
/// microkernel.
pub fn trsm(side: Side, uplo: UpLo, trans: Trans, diag: Diag, alpha: f64, a: &Mat, b: &mut Mat) {
    let (m, n) = b.dims();
    let d = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert_eq!(a.dims(), (d, d), "trsm: triangle dims mismatch");

    if alpha != 1.0 {
        scal(alpha, b.as_mut_slice());
    }
    if m == 0 || n == 0 {
        return;
    }

    if side == Side::Left && n <= 2 {
        // Skinny right-hand sides (the norm estimator's probe vectors):
        // classic in-place column substitution — one contiguous axpy or dot
        // against `T`'s column per step, no blocking or staging overhead.
        let unit = diag == Diag::Unit;
        for j in 0..n {
            left_col_solve(uplo, trans, unit, a, b.col_mut(j));
        }
    } else if d > TRSM_NB {
        trsm_blocked(side, uplo, trans, diag, a, b);
    } else {
        trsm_unblocked(side, uplo, trans, diag, a, b);
    }
    add_flops(KernelClass::Trsm, trsm_flops(m, n, side == Side::Left));
}

/// Blocked triangular solve: walk the diagonal in `TRSM_NB` blocks in
/// dependency order; for each block, subtract the contribution of the
/// already-solved part with one strided GEMM, then solve against the
/// diagonal block with the scalar kernel. The substitution recurrences are
/// unchanged — only the dot-product accumulations are reassociated by the
/// blocking, which is covered by the workspace's kernel error model.
fn trsm_blocked(side: Side, uplo: UpLo, trans: Trans, diag: Diag, a: &Mat, b: &mut Mat) {
    let (m, n) = b.dims();
    let lda = a.rows();
    // Whether blocks are solved in ascending diagonal order (forward
    // substitution) for this variant; descending otherwise.
    let forward = match (side, uplo, trans) {
        (Side::Left, UpLo::Lower, Trans::NoTrans) | (Side::Left, UpLo::Upper, Trans::Trans) => true,
        (Side::Left, _, _) => false,
        (Side::Right, UpLo::Upper, Trans::NoTrans) | (Side::Right, UpLo::Lower, Trans::Trans) => {
            true
        }
        (Side::Right, _, _) => false,
    };
    let d = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let nblocks = d.div_ceil(TRSM_NB);
    for blk in 0..nblocks {
        let i0 = TRSM_NB * if forward { blk } else { nblocks - 1 - blk };
        let tb = TRSM_NB.min(d - i0);
        let i1 = i0 + tb;
        let (s0, slen) = if forward { (0, i0) } else { (i1, d - i1) };
        match side {
            Side::Left => {
                let mut slab = b.sub(i0, 0, tb, n);
                if slen > 0 {
                    // slab -= op(A)[i0..i1, solved] * B[solved, :].
                    let (off, rs, cs) = match (uplo, trans) {
                        (UpLo::Lower, Trans::NoTrans) => (i0, 1, lda),
                        (UpLo::Upper, Trans::Trans) => (i0 * lda, lda, 1),
                        (UpLo::Upper, Trans::NoTrans) => (i0 + i1 * lda, 1, lda),
                        (UpLo::Lower, Trans::Trans) => (i1 + i0 * lda, lda, 1),
                    };
                    gemm_strided(
                        tb,
                        n,
                        slen,
                        -1.0,
                        &a.as_slice()[off..],
                        rs,
                        cs,
                        &b.as_slice()[s0..],
                        1,
                        m,
                        slab.as_mut_slice(),
                        tb,
                    );
                }
                let adiag = a.sub(i0, i0, tb, tb);
                trsm_unblocked(side, uplo, trans, diag, &adiag, &mut slab);
                b.set_sub(i0, 0, &slab);
            }
            Side::Right => {
                let mut slab = b.sub(0, i0, m, tb);
                if slen > 0 {
                    // slab -= B[:, solved] * op(A)[solved, i0..i1].
                    let (off, rs, cs) = match (uplo, trans) {
                        (UpLo::Upper, Trans::NoTrans) => (i0 * lda, 1, lda),
                        (UpLo::Lower, Trans::Trans) => (i0, lda, 1),
                        (UpLo::Lower, Trans::NoTrans) => (i1 + i0 * lda, 1, lda),
                        (UpLo::Upper, Trans::Trans) => (i0 + i1 * lda, lda, 1),
                    };
                    gemm_strided(
                        m,
                        tb,
                        slen,
                        -1.0,
                        &b.as_slice()[s0 * m..],
                        1,
                        m,
                        &a.as_slice()[off..],
                        rs,
                        cs,
                        slab.as_mut_slice(),
                        m,
                    );
                }
                let adiag = a.sub(i0, i0, tb, tb);
                trsm_unblocked(side, uplo, trans, diag, &adiag, &mut slab);
                b.set_sub(0, i0, &slab);
            }
        }
    }
}

/// Scalar substitution kernels — the base case of [`trsm_blocked`] and the
/// whole solve for small triangles. Expects `alpha` already applied.
///
/// Right-hand-side columns (Left side) and solved-column coefficients
/// (Right side) are processed four at a time: the batched inner loops make
/// one pass over contiguous memory with four independent update streams,
/// which both vectorizes and amortizes the per-pass loads/stores that
/// dominate short substitution updates.
fn trsm_unblocked(side: Side, uplo: UpLo, trans: Trans, diag: Diag, a: &Mat, b: &mut Mat) {
    let unit = diag == Diag::Unit;
    match side {
        Side::Left => match trans {
            Trans::NoTrans => left_notrans_solve(uplo, unit, a, b),
            Trans::Trans => left_trans_solve(uplo, unit, a, b),
        },
        Side::Right => right_solve(uplo, trans, unit, a, b),
    }
}

/// Solve `op(T) x = b` for a single right-hand-side column: straight
/// substitution over `T`'s columns, with one contiguous axpy (NoTrans) or
/// dot (Trans) per step.
fn left_col_solve(uplo: UpLo, trans: Trans, unit: bool, a: &Mat, x: &mut [f64]) {
    let m = x.len();
    match (trans, uplo) {
        (Trans::NoTrans, UpLo::Lower) => {
            for i in 0..m {
                let (head, tail) = x.split_at_mut(i + 1);
                if !unit {
                    head[i] /= a[(i, i)];
                }
                axpy(-head[i], &a.col(i)[i + 1..m], tail);
            }
        }
        (Trans::NoTrans, UpLo::Upper) => {
            for i in (0..m).rev() {
                let (head, tail) = x.split_at_mut(i);
                if !unit {
                    tail[0] /= a[(i, i)];
                }
                axpy(-tail[0], &a.col(i)[..i], head);
            }
        }
        // U^T is lower: forward sweep with dots against U's columns.
        (Trans::Trans, UpLo::Upper) => {
            for i in 0..m {
                x[i] -= dot(&a.col(i)[..i], &x[..i]);
                if !unit {
                    x[i] /= a[(i, i)];
                }
            }
        }
        // L^T is upper: backward sweep.
        (Trans::Trans, UpLo::Lower) => {
            for i in (0..m).rev() {
                x[i] -= dot(&a.col(i)[i + 1..m], &x[i + 1..]);
                if !unit {
                    x[i] /= a[(i, i)];
                }
            }
        }
    }
}

/// Solve `T X = B` (T the referenced triangle of `a`) through a transposed
/// scratch: `B` is staged row-major, so every substitution update is one
/// contiguous length-`n` axpy against a contiguous strip of `T`'s column —
/// the per-element addition order is exactly the classic right-looking
/// column substitution, just swept across all right-hand sides at once.
fn left_notrans_solve(uplo: UpLo, unit: bool, a: &Mat, b: &mut Mat) {
    let (m, n) = b.dims();
    let mut t = transpose_to_scratch(b);
    match uplo {
        UpLo::Lower => {
            // Forward substitution in rank-4 blocks: solve four rows among
            // themselves, then push their combined contribution into every
            // row below with one fused pass (one load/store of each target
            // row instead of four).
            let mut i0 = 0;
            while i0 < m {
                let ib = 4.min(m - i0);
                let i1 = i0 + ib;
                {
                    let block = &mut t[i0 * n..i1 * n];
                    for ii in 0..ib {
                        let i = i0 + ii;
                        let (head, tail) = block.split_at_mut((ii + 1) * n);
                        let row_i = &mut head[ii * n..];
                        if !unit {
                            scal(1.0 / a[(i, i)], row_i);
                        }
                        let acol = &a.col(i)[i + 1..i1];
                        for (row_p, &l) in tail.chunks_exact_mut(n).zip(acol) {
                            axpy(-l, row_i, row_p);
                        }
                    }
                }
                if i1 < m {
                    let (head, tail) = t.split_at_mut(i1 * n);
                    let rows = &head[i0 * n..];
                    if ib == 4 {
                        let c0 = &a.col(i0)[i1..m];
                        let c1 = &a.col(i0 + 1)[i1..m];
                        let c2 = &a.col(i0 + 2)[i1..m];
                        let c3 = &a.col(i0 + 3)[i1..m];
                        let (r0, rest) = rows.split_at(n);
                        let (r1, rest) = rest.split_at(n);
                        let (r2, r3) = rest.split_at(n);
                        for (p, row_p) in tail.chunks_exact_mut(n).enumerate() {
                            axpy4([-c0[p], -c1[p], -c2[p], -c3[p]], r0, r1, r2, r3, row_p);
                        }
                    } else {
                        for q in 0..ib {
                            let rq = &rows[q * n..(q + 1) * n];
                            let acol = &a.col(i0 + q)[i1..m];
                            for (row_p, &l) in tail.chunks_exact_mut(n).zip(acol) {
                                axpy(-l, rq, row_p);
                            }
                        }
                    }
                }
                i0 = i1;
            }
        }
        UpLo::Upper => {
            for i in (0..m).rev() {
                let (head, tail) = t.split_at_mut(i * n);
                let row_i = &mut tail[..n];
                if !unit {
                    scal(1.0 / a[(i, i)], row_i);
                }
                let acol = &a.col(i)[..i];
                for (row_p, &u) in head.chunks_exact_mut(n).zip(acol) {
                    axpy(-u, row_i, row_p);
                }
            }
        }
    }
    scratch_to_b(&t, b);
}

/// Solve `T^T X = B` in the same transposed scratch: row `i` of the
/// transposed system accumulates `-a[(p, i)] * row_p` over the already
/// solved rows — the coefficients are a contiguous strip of `T`'s column
/// `i`, and every update is a contiguous length-`n` axpy.
fn left_trans_solve(uplo: UpLo, unit: bool, a: &Mat, b: &mut Mat) {
    let (m, n) = b.dims();
    let mut t = transpose_to_scratch(b);
    match uplo {
        // U^T is lower: forward substitution.
        UpLo::Upper => {
            for i in 0..m {
                let (head, tail) = t.split_at_mut(i * n);
                let row_i = &mut tail[..n];
                let acol = &a.col(i)[..i];
                for (row_p, &u) in head.chunks_exact(n).zip(acol) {
                    axpy(-u, row_p, row_i);
                }
                if !unit {
                    scal(1.0 / a[(i, i)], row_i);
                }
            }
        }
        // L^T is upper: backward substitution.
        UpLo::Lower => {
            for i in (0..m).rev() {
                let (head, tail) = t.split_at_mut((i + 1) * n);
                let row_i = &mut head[i * n..];
                let acol = &a.col(i)[i + 1..m];
                for (row_p, &l) in tail.chunks_exact(n).zip(acol) {
                    axpy(-l, row_p, row_i);
                }
                if !unit {
                    scal(1.0 / a[(i, i)], row_i);
                }
            }
        }
    }
    scratch_to_b(&t, b);
}

/// Stage `b` row-major (row `i` of `b` at `t[i*n..(i+1)*n]`).
fn transpose_to_scratch(b: &Mat) -> Vec<f64> {
    let (m, n) = b.dims();
    let mut t = vec![0.0; m * n];
    for j in 0..n {
        for (i, &v) in b.col(j).iter().enumerate() {
            t[i * n + j] = v;
        }
    }
    t
}

/// Scatter the row-major scratch back into column-major `b`.
fn scratch_to_b(t: &[f64], b: &mut Mat) {
    let n = b.cols();
    for j in 0..n {
        for (i, v) in b.col_mut(j).iter_mut().enumerate() {
            *v = t[i * n + j];
        }
    }
}

/// Solve `X op(T) = B` column by column of `X`. Each solved column update
/// batches four coefficient/column pairs into one pass over the target.
fn right_solve(uplo: UpLo, trans: Trans, unit: bool, a: &Mat, b: &mut Mat) {
    let (m, n) = b.dims();
    // Effective lower-triangular orientation: columns depending only on
    // earlier ones are processed forward; otherwise in reverse.
    let forward = matches!(
        (uplo, trans),
        (UpLo::Upper, Trans::NoTrans) | (UpLo::Lower, Trans::Trans)
    );
    let coeff = |p: usize, j: usize| -> f64 {
        // op(T)(p, j), the multiplier of solved column p in target column j.
        match trans {
            Trans::NoTrans => a[(p, j)],
            Trans::Trans => a[(j, p)],
        }
    };
    let bs = b.as_mut_slice();
    for step in 0..n {
        let j = if forward { step } else { n - 1 - step };
        // Split so target column j is mutable while the already-solved
        // columns (before j when forward, after j otherwise) stay shared.
        let (xj, solved_base, s0): (&mut [f64], &[f64], usize) = if forward {
            let (solved, rest) = bs.split_at_mut(j * m);
            (&mut rest[..m], solved, 0)
        } else {
            let (head, tail) = bs.split_at_mut((j + 1) * m);
            (&mut head[j * m..], tail, j + 1)
        };
        let deps: std::ops::Range<usize> = if forward { 0..j } else { j + 1..n };
        let col_of = |p: usize| &solved_base[(p - s0) * m..(p - s0) * m + m];
        let mut p = deps.start;
        while p + 4 <= deps.end {
            let (u0, u1, u2, u3) = (
                coeff(p, j),
                coeff(p + 1, j),
                coeff(p + 2, j),
                coeff(p + 3, j),
            );
            let (x0, x1, x2, x3) = (col_of(p), col_of(p + 1), col_of(p + 2), col_of(p + 3));
            for r in 0..m {
                xj[r] -= u0 * x0[r] + u1 * x1[r] + u2 * x2[r] + u3 * x3[r];
            }
            p += 4;
        }
        for p in p..deps.end {
            let u = coeff(p, j);
            if u != 0.0 {
                axpy(-u, col_of(p), xj);
            }
        }
        if !unit {
            let inv = 1.0 / a[(j, j)];
            scal(inv, xj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(ta: Trans, tb: Trans, alpha: f64, a: &Mat, b: &Mat, beta: f64, c: &Mat) -> Mat {
        let (m, n) = c.dims();
        let k = if ta == Trans::NoTrans {
            a.cols()
        } else {
            a.rows()
        };
        Mat::from_fn(m, n, |i, j| {
            let mut s = 0.0;
            for p in 0..k {
                let av = if ta == Trans::NoTrans {
                    a[(i, p)]
                } else {
                    a[(p, i)]
                };
                let bv = if tb == Trans::NoTrans {
                    b[(p, j)]
                } else {
                    b[(j, p)]
                };
                s += av * bv;
            }
            alpha * s + beta * c[(i, j)]
        })
    }

    #[test]
    fn gemm_all_transposes_match_naive() {
        let (m, n, k) = (13, 9, 17);
        for (ta, tb) in [
            (Trans::NoTrans, Trans::NoTrans),
            (Trans::Trans, Trans::NoTrans),
            (Trans::NoTrans, Trans::Trans),
            (Trans::Trans, Trans::Trans),
        ] {
            let a = if ta == Trans::NoTrans {
                Mat::random(m, k, 1)
            } else {
                Mat::random(k, m, 1)
            };
            let b = if tb == Trans::NoTrans {
                Mat::random(k, n, 2)
            } else {
                Mat::random(n, k, 2)
            };
            let c0 = Mat::random(m, n, 3);
            let expected = naive_gemm(ta, tb, 1.5, &a, &b, -0.5, &c0);
            let mut c = c0.clone();
            gemm(ta, tb, 1.5, &a, &b, -0.5, &mut c);
            assert!(c.max_abs_diff(&expected) < 1e-12, "ta={ta:?} tb={tb:?}");
        }
    }

    /// `beta = 0` means "C is not read": whatever a reused output buffer
    /// held — NaN, Inf, a negative entry — the result is that of a fresh
    /// zero matrix, bit for bit.
    #[test]
    fn beta_zero_overwrites_a_poisoned_output() {
        let (m, n, k) = (13, 9, 17);
        let (a, b) = (Mat::random(m, k, 1), Mat::random(k, n, 2));
        let poison = [f64::NAN, f64::INFINITY, -1.0];
        let poisoned = |rows, cols| Mat::from_fn(rows, cols, |i, j| poison[(i + j) % 3]);
        type Gemm = fn(Trans, Trans, f64, &Mat, &Mat, f64, &mut Mat);
        for (name, f) in [("gemm", gemm as Gemm), ("gemm_reference", gemm_reference)] {
            // alpha = 0 too: the early return must not skip the overwrite.
            for alpha in [1.5, 0.0] {
                let mut fresh = Mat::zeros(m, n);
                f(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    alpha,
                    &a,
                    &b,
                    0.0,
                    &mut fresh,
                );
                let mut reused = poisoned(m, n);
                f(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    alpha,
                    &a,
                    &b,
                    0.0,
                    &mut reused,
                );
                assert!(
                    crate::same_bits(fresh.as_slice(), reused.as_slice()),
                    "{name}, alpha = {alpha}"
                );
            }
        }
        for (trans, len) in [(Trans::NoTrans, m), (Trans::Trans, k)] {
            let x = Mat::random(m + k - len, 1, 3);
            let mut fresh = vec![0.0; len];
            gemv(trans, 1.5, &a, x.col(0), 0.0, &mut fresh);
            let mut reused = poisoned(len, 1);
            gemv(trans, 1.5, &a, x.col(0), 0.0, reused.col_mut(0));
            assert!(crate::same_bits(&fresh, reused.col(0)), "gemv {trans:?}");
        }
    }

    #[test]
    fn gemm_blocked_path_large() {
        // Exceed all block sizes to exercise the tiling loops.
        let (m, n, k) = (130, 300, 150);
        let a = Mat::random(m, k, 10);
        let b = Mat::random(k, n, 11);
        let c0 = Mat::random(m, n, 12);
        let expected = naive_gemm(Trans::NoTrans, Trans::NoTrans, 1.0, &a, &b, 1.0, &c0);
        let mut c = c0;
        gemm(Trans::NoTrans, Trans::NoTrans, 1.0, &a, &b, 1.0, &mut c);
        assert!(c.max_abs_diff(&expected) < 1e-10);
    }

    #[test]
    fn gemm_flop_count_is_2mnk_blocked_and_reference() {
        use crate::flops::{measure, Attribution};
        // Shapes chosen to hit microkernel fringes in every dimension (m not
        // a multiple of MR, n not a multiple of NR, k straddling KC) plus
        // degenerate edges. The packed path must report exactly the same
        // closed-form 2·m·n·k as the reference loops — padding a fringe tile
        // to MR×NR must never inflate the accounted work.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (7, 3, 5),
            (13, 9, 17),
            (8, 6, 256),
            (130, 300, 150),
        ] {
            let a = Mat::random(m, k, 40);
            let b = Mat::random(k, n, 41);
            let c0 = Mat::random(m, n, 42);
            // Redirect this test's flops to a class no other kernel test
            // touches: the counters are process-global, so without the scope
            // concurrently running tests would pollute the measured delta.
            let _attr = Attribution::new(KernelClass::Estimate);
            let (_, blocked) = measure(|| {
                let mut c = c0.clone();
                gemm(
                    Trans::NoTrans,
                    Trans::Trans,
                    1.5,
                    &a,
                    &b.transpose(),
                    0.5,
                    &mut c,
                );
            });
            let (_, reference) = measure(|| {
                let mut c = c0.clone();
                gemm_reference(
                    Trans::NoTrans,
                    Trans::Trans,
                    1.5,
                    &a,
                    &b.transpose(),
                    0.5,
                    &mut c,
                );
            });
            let expected = gemm_flops(m, n, k);
            assert_eq!(
                blocked.get(KernelClass::Estimate),
                expected,
                "blocked gemm flops at ({m},{n},{k})"
            );
            assert_eq!(
                reference.get(KernelClass::Estimate),
                expected,
                "reference gemm flops at ({m},{n},{k})"
            );
        }
    }

    #[test]
    fn trsm_roundtrips_all_variants() {
        let n = 11;
        let nrhs = 6;
        // Well-conditioned triangle: dominant diagonal.
        let mut tri = Mat::random(n, n, 5);
        for i in 0..n {
            tri[(i, i)] = 4.0 + tri[(i, i)].abs();
        }
        for side in [Side::Left, Side::Right] {
            for uplo in [UpLo::Upper, UpLo::Lower] {
                for trans in [Trans::NoTrans, Trans::Trans] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        let x = if side == Side::Left {
                            Mat::random(n, nrhs, 9)
                        } else {
                            Mat::random(nrhs, n, 9)
                        };
                        // Build the effective triangle T.
                        let mut t = match uplo {
                            UpLo::Upper => tri.upper_triangular(),
                            UpLo::Lower => {
                                Mat::from_fn(n, n, |i, j| if i >= j { tri[(i, j)] } else { 0.0 })
                            }
                        };
                        if diag == Diag::Unit {
                            for i in 0..n {
                                t[(i, i)] = 1.0;
                            }
                        }
                        // B = op(T) * X (Left) or X * op(T) (Right)
                        let mut b = if side == Side::Left {
                            let mut b = Mat::zeros(n, nrhs);
                            gemm(trans, Trans::NoTrans, 1.0, &t, &x, 0.0, &mut b);
                            b
                        } else {
                            let mut b = Mat::zeros(nrhs, n);
                            gemm(Trans::NoTrans, trans, 1.0, &x, &t, 0.0, &mut b);
                            b
                        };
                        trsm(side, uplo, trans, diag, 1.0, &tri, &mut b);
                        assert!(
                            b.max_abs_diff(&x) < 1e-10,
                            "side={side:?} uplo={uplo:?} trans={trans:?} diag={diag:?}"
                        );
                    }
                }
            }
        }
    }

    /// Only the selected triangle is referenced (and not its diagonal when
    /// `Diag::Unit`): the rest of a factored tile holds another kernel's
    /// data. Poisoning it with NaN must not change a bit of the solve, on
    /// the skinny (`nrhs <= 2`), unblocked and blocked paths alike.
    #[test]
    fn trsm_never_reads_outside_its_triangle() {
        for d in [5, TRSM_NB + 1, 2 * TRSM_NB + 8] {
            let mut tri = Mat::random(d, d, 21);
            for i in 0..d {
                tri[(i, i)] = 4.0 + tri[(i, i)].abs();
            }
            for nrhs in [1, 2, 3, 7] {
                for side in [Side::Left, Side::Right] {
                    for uplo in [UpLo::Upper, UpLo::Lower] {
                        for trans in [Trans::NoTrans, Trans::Trans] {
                            for diag in [Diag::NonUnit, Diag::Unit] {
                                let referenced = |i: usize, j: usize| match uplo {
                                    _ if i == j => diag == Diag::NonUnit,
                                    UpLo::Upper => i < j,
                                    UpLo::Lower => i > j,
                                };
                                let masked = |fill: f64| {
                                    Mat::from_fn(d, d, |i, j| {
                                        if referenced(i, j) {
                                            tri[(i, j)]
                                        } else {
                                            fill
                                        }
                                    })
                                };
                                let b0 = if side == Side::Left {
                                    Mat::random(d, nrhs, 22)
                                } else {
                                    Mat::random(nrhs, d, 22)
                                };
                                let (mut clean, mut poisoned) = (b0.clone(), b0);
                                trsm(side, uplo, trans, diag, 1.0, &masked(0.0), &mut clean);
                                trsm(
                                    side,
                                    uplo,
                                    trans,
                                    diag,
                                    1.0,
                                    &masked(f64::NAN),
                                    &mut poisoned,
                                );
                                assert!(
                                    clean.all_finite() && clean == poisoned,
                                    "d={d} nrhs={nrhs} {side:?} {uplo:?} {trans:?} {diag:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_alpha_scaling() {
        let a = Mat::eye(4);
        let b0 = Mat::random(4, 3, 2);
        let mut b = b0.clone();
        trsm(
            Side::Left,
            UpLo::Upper,
            Trans::NoTrans,
            Diag::NonUnit,
            2.0,
            &a,
            &mut b,
        );
        for i in 0..4 {
            for j in 0..3 {
                assert!((b[(i, j)] - 2.0 * b0[(i, j)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn gemv_and_ger_match_naive() {
        let a = Mat::random(7, 5, 1);
        let x = Mat::random(5, 1, 2);
        let mut y = vec![1.0; 7];
        gemv(Trans::NoTrans, 2.0, &a, x.col(0), 3.0, &mut y);
        for i in 0..7 {
            let mut s = 0.0;
            for j in 0..5 {
                s += a[(i, j)] * x[(j, 0)];
            }
            assert!((y[i] - (2.0 * s + 3.0)).abs() < 1e-12);
        }

        let mut b = Mat::zeros(7, 5);
        ger(1.0, &y, x.col(0), &mut b);
        for i in 0..7 {
            for j in 0..5 {
                assert!((b[(i, j)] - y[i] * x[(j, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gemv_trans_matches_naive() {
        let a = Mat::random(7, 5, 3);
        let x: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let mut y = vec![0.5; 5];
        gemv(Trans::Trans, 1.0, &a, &x, -1.0, &mut y);
        for j in 0..5 {
            let mut s = 0.0;
            for i in 0..7 {
                s += a[(i, j)] * x[i];
            }
            assert!((y[j] - (s - 0.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn vector_ops() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
        assert_eq!(iamax(&[0.5, -3.0, 2.0]), 1);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        // nrm2 must not overflow on large inputs
        assert!(nrm2(&[1e308, 1e308]).is_finite());
    }
}
