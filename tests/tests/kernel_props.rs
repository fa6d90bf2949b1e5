//! Property tests pinning the packed register-tiled Level-3 kernels to a
//! naive reference under the componentwise backward-error model.
//!
//! The blocked kernels reorder floating-point summations relative to the
//! textbook loops (cache blocking, register tiling, runtime FMA
//! contraction), so exact equality is the wrong contract. The right one is
//! Higham's inner-product model, documented in `luqr_tests`: every computed
//! element differs from the naive result by at most
//! `2·γ_{k+2} · (|α|·(|A|·|B|) + |β·C₀|)` elementwise (each side of the
//! comparison contributes one `γ_{k+2}` factor). Shapes are drawn to cross
//! the microkernel fringes (m, n not multiples of MR/NR) and the TRSM
//! diagonal-block boundary, and α/β sweep the branch-relevant edge cases
//! 0.0, 1.0, −1.0 alongside general values.
//!
//! The QR apply kernels (UNMQR, TSMQR/TTMQR) run the same products on the
//! engine, on strided views of the tiles. They are pinned to the retained
//! elementwise loops (`luqr_tests::qr_ref`) under the columnwise bound
//! `qr_apply_bound` — orthogonal transformations are stable per column
//! norm, not per component — over ragged shapes (m ≠ n, w ≠ n), every
//! pentagon parameter class (l = 0, 0 < l < min(m, n), l = min(m, n)), both
//! `Q` and `Qᵀ`, and inner block sizes that do not divide n. Entries a
//! kernel must never read (R above V1, whatever lies below a pentagon's
//! trapezoid) are poisoned with NaN. One further case per apply kernel
//! draws tile-sized shapes (up to 100), so the applier's 8-column strips,
//! 16-row blocks and their masked fringes are crossed under the same bound.
//!
//! Last, `Mat` itself: its cache-line-aligned buffer must behave as the
//! plain `Vec<f64>` it replaced, so indexing, `Clone`, `PartialEq`,
//! sub-blocks and the in-place reshapes are run against a `Vec` model.

use luqr_kernels::blas::{gemm, gemm_reference, trsm, Diag, Side, Trans, UpLo};
use luqr_kernels::qr::{form_q, geqrt, tpmqrt, tpqrt, unmqr};
use luqr_kernels::Mat;
use luqr_tests::qr_ref::{rows_of_reflector, tpmqrt_ref, unmqr_ref};
use luqr_tests::{gemm_componentwise_bound, qr_apply_bound, EPS};
use proptest::prelude::*;

/// Naive triple-loop op(A)·op(B) accumulation for element (i, j), plus the
/// componentwise magnitude Σ|a||b| that scales the error bound.
fn dot_op(ta: Trans, tb: Trans, a: &Mat, b: &Mat, i: usize, j: usize, k: usize) -> (f64, f64) {
    let mut s = 0.0;
    let mut mag = 0.0;
    for p in 0..k {
        let av = match ta {
            Trans::NoTrans => a[(i, p)],
            Trans::Trans => a[(p, i)],
        };
        let bv = match tb {
            Trans::NoTrans => b[(p, j)],
            Trans::Trans => b[(j, p)],
        };
        s += av * bv;
        mag += (av * bv).abs();
    }
    (s, mag)
}

fn trans_of(flag: bool) -> Trans {
    if flag {
        Trans::Trans
    } else {
        Trans::NoTrans
    }
}

/// α/β values that hit the scaling/early-return branches plus general cases.
fn arb_scalar() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(-1.0), Just(0.75), Just(-1.5)]
}

/// Inner block sizes: 1, one that divides nothing, the benchmark's, and one
/// past every tile width drawn here (a single block).
fn arb_ib() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(5), Just(16), Just(64)]
}

/// 2-norm of column `j` of the stacked `[top; bot]`.
fn stacked_col_norm(top: &Mat, bot: &Mat, j: usize) -> f64 {
    let sq = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
    (sq(top.col(j)) + sq(bot.col(j))).sqrt()
}

/// Every entry of `got` is within `tol_of(column)` of `want`.
fn assert_cols_close(what: &str, got: &Mat, want: &Mat, tol_of: impl Fn(usize) -> f64) {
    for j in 0..got.cols() {
        let tol = tol_of(j);
        for i in 0..got.rows() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            prop_assert!(
                (g - w).abs() <= tol,
                "{what} ({i},{j}): {g} vs {w}, tol {tol}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Mat` against a column-major `Vec<f64>` model, empty shapes included.
    #[test]
    fn mat_behaves_as_the_vec_it_replaced(
        m in 0usize..20,
        n in 0usize..20,
        m2 in 0usize..20,
        n2 in 0usize..20,
        seed in any::<u64>(),
    ) {
        let r = Mat::random(m, n, seed);
        let mut model: Vec<f64> = r.as_slice().to_vec();
        prop_assert_eq!(model.len(), m * n);
        let mut a = Mat::from_fn(m, n, |i, j| model[i + j * m]);
        prop_assert_eq!(a.as_slice(), &model[..]);
        prop_assert_eq!(&a, &r);
        prop_assert_eq!(Mat::from_col_major(m, n, &model), r);
        prop_assert_eq!(a.as_slice().as_ptr().addr() % 64, 0);

        // A write through the index shows in the slice, the column and `==`.
        if m * n > 0 {
            let (i, j) = (seed as usize % m, (seed >> 32) as usize % n);
            a[(i, j)] += 1.0;
            model[i + j * m] += 1.0;
            prop_assert!(a != r);
            prop_assert_eq!(a[(i, j)], model[i + j * m]);
            prop_assert_eq!(a.col(j), &model[j * m..(j + 1) * m]);
        }
        // Same entries, other shape: not equal.
        if m != n {
            prop_assert!(Mat::from_col_major(n, m, &model) != a);
        }
        // A clone is deep and aligned.
        let b = a.clone();
        a.fill(2.0);
        prop_assert_eq!(b.as_slice(), &model[..]);
        prop_assert_eq!(b.as_slice().as_ptr().addr() % 64, 0);
        // Sub-block out, sub-block in.
        let (i0, j0) = (m / 3, n / 2);
        let s = b.sub(i0, j0, m - i0, n - j0);
        for j in 0..n - j0 {
            prop_assert_eq!(s.col(j), &model[(j0 + j) * m + i0..(j0 + j + 1) * m]);
        }
        a.set_sub(i0, j0, &s);
        for j in 0..n {
            for i in 0..m {
                let want = if i >= i0 && j >= j0 { model[i + j * m] } else { 2.0 };
                prop_assert_eq!(a[(i, j)], want);
            }
        }
        // In-place reshapes: to zeros of any other shape, to a stack.
        a.reset_zeroed(m2, n2);
        prop_assert_eq!(&a, &Mat::zeros(m2, n2));
        prop_assert_eq!(a.as_slice(), &vec![0.0; m2 * n2][..]);
        a.reset_stacked(&[&b, &b]);
        prop_assert_eq!(a.dims(), (2 * m, n));
        for j in 0..n {
            let col = &model[j * m..(j + 1) * m];
            prop_assert_eq!(a.col(j), &[col, col].concat()[..]);
        }
        prop_assert_eq!(a.as_slice().as_ptr().addr() % 64, 0);
    }

    /// UNMQR matches the elementwise reference, `Qᵀ(QC) = C`, and the formed
    /// `Q` is orthogonal — for tall, square and wide reflector tiles.
    #[test]
    fn unmqr_matches_elementwise_reference(
        m in 1usize..40,
        nv in 1usize..40,
        w in 1usize..30,
        ib in arb_ib(),
        transposed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let tr = trans_of(transposed);
        let mut v = Mat::random(m, nv, seed);
        let tf = geqrt(&mut v, ib);
        // R is never an input of the apply.
        for j in 0..nv {
            for i in 0..=j.min(m - 1) {
                v[(i, j)] = f64::NAN;
            }
        }
        let k = m.min(nv);
        let c0 = Mat::random(m, w, seed ^ 0xc);
        let zero = Mat::zeros(0, w);
        let tol = |j: usize| 2.0 * qr_apply_bound(m, k) * stacked_col_norm(&c0, &zero, j) + EPS;

        let mut c = c0.clone();
        unmqr(tr, &v, &tf, &mut c);
        let mut c_ref = c0.clone();
        unmqr_ref(tr, &v, &tf, &mut c_ref);
        assert_cols_close("unmqr vs reference", &c, &c_ref, tol);

        unmqr(trans_of(!transposed), &v, &tf, &mut c);
        assert_cols_close("round trip", &c, &c0, tol);

        let q = form_q(&v, &tf);
        let mut qtq = Mat::zeros(m, m);
        gemm(Trans::Trans, Trans::NoTrans, 1.0, &q, &q, 0.0, &mut qtq);
        let eye = Mat::eye(m);
        assert_cols_close("QᵀQ", &qtq, &eye, |_| 2.0 * qr_apply_bound(m, k) + EPS);
    }

    /// TPQRT annihilates the pentagon, and TPMQRT matches the elementwise
    /// reference, round-trips, and forms an orthogonal `Q` — for TS, TT and
    /// general pentagons on ragged tiles.
    #[test]
    fn tpqrt_tpmqrt_match_elementwise_reference(
        m in 1usize..33,
        n in 1usize..33,
        w in 1usize..30,
        l_class in 0usize..3,
        ib in arb_ib(),
        transposed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let tr = trans_of(transposed);
        let l = [0, m.min(n) / 2, m.min(n)][l_class];
        let in_pentagon = |i: usize, j: usize| i < rows_of_reflector(m, l, j);
        let mut r0 = Mat::random(n, n, seed).upper_triangular();
        for i in 0..n {
            r0[(i, i)] += 2.0;
        }
        let rand_b = Mat::random(m, n, seed ^ 0xb);
        // Below the trapezoid lies another kernel's data: poison it.
        let b0 = Mat::from_fn(m, n, |i, j| if in_pentagon(i, j) { rand_b[(i, j)] } else { f64::NAN });
        let mut r = r0.clone();
        let mut v = b0.clone();
        let tf = tpqrt(l, &mut r, &mut v, ib);
        for j in 0..n {
            for i in 0..m {
                prop_assert!(v[(i, j)].is_nan() != in_pentagon(i, j), "V₂ escaped the pentagon at ({i},{j})");
            }
        }

        // Qᵀ [R₀; B₀] = [R; 0] on the pentagon.
        let b0_clean = Mat::from_fn(m, n, |i, j| if in_pentagon(i, j) { b0[(i, j)] } else { 0.0 });
        let tol0 = |j: usize| 2.0 * qr_apply_bound(m + 1, n) * stacked_col_norm(&r0, &b0_clean, j) + EPS;
        let (mut top, mut bot) = (r0.clone(), b0_clean.clone());
        tpmqrt(Trans::Trans, l, &v, &tf, &mut top, &mut bot);
        assert_cols_close("Qᵀ[R₀;B₀] top", &top, &r, tol0);
        assert_cols_close("Qᵀ[R₀;B₀] bottom", &bot, &Mat::zeros(m, n), tol0);

        let a0 = Mat::random(n, w, seed ^ 0xa);
        let c0 = Mat::random(m, w, seed ^ 0xc);
        let tol = |j: usize| 2.0 * qr_apply_bound(m + 1, n) * stacked_col_norm(&a0, &c0, j) + EPS;
        let (mut a, mut c) = (a0.clone(), c0.clone());
        tpmqrt(tr, l, &v, &tf, &mut a, &mut c);
        let (mut a_ref, mut c_ref) = (a0.clone(), c0.clone());
        tpmqrt_ref(tr, l, &v, &tf, &mut a_ref, &mut c_ref);
        assert_cols_close("tpmqrt vs reference, top", &a, &a_ref, tol);
        assert_cols_close("tpmqrt vs reference, bottom", &c, &c_ref, tol);

        tpmqrt(trans_of(!transposed), l, &v, &tf, &mut a, &mut c);
        assert_cols_close("round trip, top", &a, &a0, tol);
        assert_cols_close("round trip, bottom", &c, &c0, tol);

        // Q = op(Q)·I formed on the stacked identity is orthogonal.
        let s = n + m;
        let mut qa = Mat::from_fn(n, s, |i, j| if i == j { 1.0 } else { 0.0 });
        let mut qb = Mat::from_fn(m, s, |i, j| if n + i == j { 1.0 } else { 0.0 });
        tpmqrt(tr, l, &v, &tf, &mut qa, &mut qb);
        let mut qtq = Mat::zeros(s, s);
        gemm(Trans::Trans, Trans::NoTrans, 1.0, &qa, &qa, 0.0, &mut qtq);
        gemm(Trans::Trans, Trans::NoTrans, 1.0, &qb, &qb, 1.0, &mut qtq);
        assert_cols_close("QᵀQ", &qtq, &Mat::eye(s), |_| 2.0 * qr_apply_bound(m + 1, n) + EPS);
    }

    /// UNMQR at tile-sized shapes: `m`, `w` up to 100 cross the applier's
    /// 16-row block and 8-column strip boundaries many times over, with
    /// `ib` both under and over one register tile of reflectors.
    #[test]
    fn unmqr_matches_reference_across_strips_and_row_blocks(
        m in 17usize..101,
        nv in 9usize..101,
        w in 9usize..101,
        ib in prop_oneof![Just(5usize), Just(16), Just(24)],
        transposed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let tr = trans_of(transposed);
        let mut v = Mat::random(m, nv, seed);
        let tf = geqrt(&mut v, ib);
        for j in 0..nv {
            for i in 0..=j.min(m - 1) {
                v[(i, j)] = f64::NAN;
            }
        }
        let c0 = Mat::random(m, w, seed ^ 0xc);
        let zero = Mat::zeros(0, w);
        let tol = |j: usize| 2.0 * qr_apply_bound(m, m.min(nv)) * stacked_col_norm(&c0, &zero, j) + EPS;
        let mut c = c0.clone();
        unmqr(tr, &v, &tf, &mut c);
        let mut c_ref = c0.clone();
        unmqr_ref(tr, &v, &tf, &mut c_ref);
        assert_cols_close("unmqr vs reference", &c, &c_ref, tol);
    }

    /// TSMQR / TTMQR / partial pentagons at tile-sized shapes (see above).
    #[test]
    fn tpmqrt_matches_reference_across_strips_and_row_blocks(
        m in 17usize..101,
        n in 9usize..101,
        w in 9usize..101,
        l_class in 0usize..3,
        ib in prop_oneof![Just(5usize), Just(16), Just(24)],
        transposed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let tr = trans_of(transposed);
        let l = [0, m.min(n) / 2, m.min(n)][l_class];
        let mut r = Mat::random(n, n, seed).upper_triangular();
        for i in 0..n {
            r[(i, i)] += 2.0;
        }
        let rand_b = Mat::random(m, n, seed ^ 0xb);
        let mut v = Mat::from_fn(m, n, |i, j| {
            if i < rows_of_reflector(m, l, j) { rand_b[(i, j)] } else { f64::NAN }
        });
        let tf = tpqrt(l, &mut r, &mut v, ib);
        let a0 = Mat::random(n, w, seed ^ 0xa);
        let c0 = Mat::random(m, w, seed ^ 0xc);
        let tol = |j: usize| 2.0 * qr_apply_bound(m + 1, n) * stacked_col_norm(&a0, &c0, j) + EPS;
        let (mut a, mut c) = (a0.clone(), c0.clone());
        tpmqrt(tr, l, &v, &tf, &mut a, &mut c);
        let (mut a_ref, mut c_ref) = (a0.clone(), c0.clone());
        tpmqrt_ref(tr, l, &v, &tf, &mut a_ref, &mut c_ref);
        assert_cols_close("tpmqrt vs reference, top", &a, &a_ref, tol);
        assert_cols_close("tpmqrt vs reference, bottom", &c, &c_ref, tol);
    }

    /// Blocked GEMM matches the naive loops within the documented bound, for
    /// every transpose combination, rectangular shape, and α/β edge case.
    #[test]
    fn gemm_matches_naive_within_error_model(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        ta in any::<bool>(),
        tb in any::<bool>(),
        alpha in arb_scalar(),
        beta in arb_scalar(),
        seed in any::<u64>(),
    ) {
        let (ta, tb) = (trans_of(ta), trans_of(tb));
        let a = match ta {
            Trans::NoTrans => Mat::random(m, k, seed),
            Trans::Trans => Mat::random(k, m, seed),
        };
        let b = match tb {
            Trans::NoTrans => Mat::random(k, n, seed ^ 0xb),
            Trans::Trans => Mat::random(n, k, seed ^ 0xb),
        };
        let c0 = Mat::random(m, n, seed ^ 0xc);

        let mut c = c0.clone();
        gemm(ta, tb, alpha, &a, &b, beta, &mut c);
        let mut c_ref = c0.clone();
        gemm_reference(ta, tb, alpha, &a, &b, beta, &mut c_ref);

        let bound = 2.0 * gemm_componentwise_bound(k);
        for j in 0..n {
            for i in 0..m {
                let (s, mag) = dot_op(ta, tb, &a, &b, i, j, k);
                let expect = alpha * s + beta * c0[(i, j)];
                let scale = alpha.abs() * mag + (beta * c0[(i, j)]).abs();
                let tol = bound * scale + EPS;
                prop_assert!(
                    (c[(i, j)] - expect).abs() <= tol,
                    "blocked ({i},{j}): {} vs {expect}, tol {tol}", c[(i, j)]
                );
                prop_assert!(
                    (c_ref[(i, j)] - expect).abs() <= tol,
                    "reference ({i},{j}): {} vs {expect}, tol {tol}", c_ref[(i, j)]
                );
            }
        }
    }

    /// TRSM (both the small unblocked path and the blocked path above the
    /// diagonal-block size) solves its triangular system to the backward
    /// error of the model: the residual of op(A)·X = α·B (resp. X·op(A))
    /// is bounded componentwise by `γ` times the magnitudes that formed it.
    #[test]
    fn trsm_residual_within_error_model(
        d in 1usize..48,
        nrhs in 1usize..12,
        left in any::<bool>(),
        upper in any::<bool>(),
        transposed in any::<bool>(),
        unit in any::<bool>(),
        alpha in prop_oneof![Just(1.0), Just(-1.0), Just(0.5)],
        seed in any::<u64>(),
    ) {
        let side = if left { Side::Left } else { Side::Right };
        let uplo = if upper { UpLo::Upper } else { UpLo::Lower };
        let tr = trans_of(transposed);
        let diag = if unit { Diag::Unit } else { Diag::NonUnit };

        // Well-scaled triangle: unit-magnitude diagonal keeps the solve from
        // amplifying the residual past what the model accounts for.
        let mut a = Mat::random(d, d, seed);
        for i in 0..d {
            a[(i, i)] = 1.0 + a[(i, i)].abs();
        }
        let (bm, bn) = if left { (d, nrhs) } else { (nrhs, d) };
        let b0 = Mat::random(bm, bn, seed ^ 0x7);
        let mut x = b0.clone();
        trsm(side, uplo, tr, diag, alpha, &a, &mut x);

        // Residual op(T)·X − α·B (Left) or X·op(T) − α·B (Right), where T is
        // the referenced triangle with the effective diagonal.
        let t = Mat::from_fn(d, d, |i, j| {
            let keep = match uplo {
                UpLo::Upper => i <= j,
                UpLo::Lower => i >= j,
            };
            if i == j && unit {
                1.0
            } else if keep {
                a[(i, j)]
            } else {
                0.0
            }
        });
        let bound = 2.0 * gemm_componentwise_bound(d);
        for j in 0..bn {
            for i in 0..bm {
                let (s, mag) = if left {
                    dot_op(tr, Trans::NoTrans, &t, &x, i, j, d)
                } else {
                    // X·op(T): element (i,j) dots row i of X with col j of op(T).
                    let mut s = 0.0;
                    let mut mag = 0.0;
                    for p in 0..d {
                        let tv = match tr {
                            Trans::NoTrans => t[(p, j)],
                            Trans::Trans => t[(j, p)],
                        };
                        s += x[(i, p)] * tv;
                        mag += (x[(i, p)] * tv).abs();
                    }
                    (s, mag)
                };
                let rhs = alpha * b0[(i, j)];
                let tol = bound * (mag + rhs.abs()) + EPS;
                prop_assert!(
                    (s - rhs).abs() <= tol,
                    "residual ({i},{j}): {s} vs {rhs}, tol {tol} (d={d}, {side:?} {uplo:?} {tr:?} {diag:?})"
                );
            }
        }
    }
}
