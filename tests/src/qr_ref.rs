//! Elementwise references for the QR apply kernels.
//!
//! These are the textbook loops that `luqr_kernels::qr::{unmqr, tpmqrt}` ran
//! before they moved onto the GEMM engine: one scalar dot product per entry
//! of `W = Vᵀ C`, a scalar triangular product with `T`, one scalar update per
//! entry of `C −= V W`. They index the whole tile's pentagon directly
//! (`rows_of_reflector`) instead of splitting each block into rectangle and
//! trapezoid, so they also cross-check the kernels' block geometry. Only the
//! property tests use them.

use luqr_kernels::qr::TFactor;
use luqr_kernels::{Mat, Trans};

/// Block start columns in application order: ascending for `Qᵀ`, descending
/// for `Q`.
fn block_order(trans: Trans, k: usize, ib: usize) -> Vec<usize> {
    let mut starts: Vec<usize> = (0..k).step_by(ib).collect();
    if trans == Trans::NoTrans {
        starts.reverse();
    }
    starts
}

/// `w ← op(T) w` for the upper-triangular `T` block at column `i` of `tf`.
fn apply_t(trans: Trans, tf: &TFactor, i: usize, w: &mut [f64]) {
    let kb = w.len();
    let old = w.to_vec();
    for (r, wr) in w.iter_mut().enumerate() {
        *wr = match trans {
            Trans::NoTrans => (r..kb).map(|c| tf.t[(r, i + c)] * old[c]).sum(),
            Trans::Trans => (0..=r).map(|c| tf.t[(c, i + r)] * old[c]).sum(),
        };
    }
}

/// Reference UNMQR: `C ← op(Q) C` for the reflectors of a `geqrt`-factored
/// tile (`v_src` strictly lower part, implicit unit diagonal).
pub fn unmqr_ref(trans: Trans, v_src: &Mat, tf: &TFactor, c: &mut Mat) {
    let m = v_src.rows();
    let k = m.min(v_src.cols());
    for i in block_order(trans, k, tf.ib) {
        let kb = tf.ib.min(k - i);
        // Reflector j: an implicit 1 in row j, then v_src(j+1.., j).
        let v = |r: usize, j: usize| if r == j { 1.0 } else { v_src[(r, j)] };
        for col in 0..c.cols() {
            let mut w: Vec<f64> = (i..i + kb)
                .map(|j| (j..m).map(|r| v(r, j) * c[(r, col)]).sum())
                .collect();
            apply_t(trans, tf, i, &mut w);
            for (j, wj) in (i..i + kb).zip(&w) {
                for r in j..m {
                    c[(r, col)] -= v(r, j) * wj;
                }
            }
        }
    }
}

/// Rows of the `m`-row pentagonal tile (parameter `l`) that reflector `j`
/// occupies: the `m − l` full rows plus its share of the trapezoid.
pub fn rows_of_reflector(m: usize, l: usize, j: usize) -> usize {
    m - l + (j + 1).min(l)
}

/// Reference TPMQRT (TSMQR for `l = 0`, TTMQR for `l = min(m, k)`):
/// `[A; B] ← op(Q) [A; B]` for the reflectors of a `tpqrt` factorization —
/// reflector `j` is row `j` of the identity stacked on `v(0..p_j, j)`.
pub fn tpmqrt_ref(trans: Trans, l: usize, v: &Mat, tf: &TFactor, a: &mut Mat, b: &mut Mat) {
    let (m, k) = v.dims();
    for i in block_order(trans, k, tf.ib) {
        let kb = tf.ib.min(k - i);
        for col in 0..a.cols() {
            let mut w: Vec<f64> = (i..i + kb)
                .map(|j| {
                    let p = rows_of_reflector(m, l, j);
                    a[(j, col)] + (0..p).map(|r| v[(r, j)] * b[(r, col)]).sum::<f64>()
                })
                .collect();
            apply_t(trans, tf, i, &mut w);
            for (j, wj) in (i..i + kb).zip(&w) {
                a[(j, col)] -= wj;
                for r in 0..rows_of_reflector(m, l, j) {
                    b[(r, col)] -= v[(r, j)] * wj;
                }
            }
        }
    }
}
