//! Householder QR tile kernels (LAPACK GEQRT family).
//!
//! These are the kernels of the paper's QR elimination step (Section II-B):
//!
//! * [`geqrt`] — blocked QR of a tile, storing `R` in the upper triangle,
//!   the Householder vectors `V` below the diagonal, and the block-reflector
//!   triangular factors `T` (inner block size `ib`, LAPACK DGEQRT layout).
//! * [`unmqr`] — apply `Q` / `Qᵀ` from a [`geqrt`] factorization (UNMQR).
//! * [`tpqrt`] — QR of an upper-triangular tile stacked on a *pentagonal*
//!   tile (LAPACK DTPQRT). With `l = 0` this is the **TSQRT** kernel
//!   (triangle on square); with `l = n` it is the **TTQRT** kernel (triangle
//!   on triangle) used by the reduction trees.
//! * [`tpmqrt`] — apply the corresponding `Qᵀ`/`Q` to a pair of tiles
//!   (**TSMQR** / **TTMQR**).
//!
//! # Structure of the apply kernels
//!
//! A QR step spends nearly all of its time applying block reflectors
//! `H = I − V T Vᵀ`, one per `ib`-wide column block of `V`: `W = Vᵀ C`,
//! `W ← op(T) W`, `C ← C − V W`. Both appliers, `larfb_left` (GEQRT
//! reflectors) and `tprfb_left` (pentagonal reflectors), run every one of
//! those products on the GEMM engine ([`gemm_strided`]) and work **in place**
//! on strided views of the caller's tiles — a view is a slice offset to the
//! block's first element plus the tile's leading dimension; no tile or
//! sub-block of `V` or `C` is ever copied out and back:
//!
//! * the **rectangular** rows of a `V` block (everything below `V1` in
//!   GEQRT storage, everything above the trapezoid in a pentagonal tile; all
//!   of it for TS kernels) go to the engine as they lie: `W += V2ᵀ C2` is
//!   the engine's skinny transposed-A product (`ib` rows of output), and
//!   `C2 −= V2 W` is a plain product of depth `ib`;
//! * the **triangle** of a `V` block (unit lower `V1` whose upper part holds
//!   `R`; the upper trapezoid of a pentagonal tile whose lower part may hold
//!   another kernel's reflectors) and the triangle `T` are each expanded once
//!   per block into a dense zero-padded `ib × ib` operand and then multiply
//!   the *whole* `ib × w` work matrix in one engine call (`expand_trap`).
//!   Only the referenced side of each triangle is ever read.
//!
//! So a TT block costs its rectangle plus two `ib`-sized triangles, never
//! the full TS rectangle: TTMQR stays near half of TSMQR, which the paper's
//! reduction-tree analysis depends on (a TTQRT is ~`2/3 nb³` flops versus
//! `2 nb³` for TSQRT). The zero padding makes a triangle product execute
//! `ib²` multiply-adds per column where a true `trmm` needs `ib²/2`; that
//! surplus is of relative order `ib / nb`, the price of running the
//! triangles at the engine's rate instead of in short per-column loops.
//!
//! The only workspace is one thread-local [`Scratch`]: the two `ib × w` work
//! matrices and the expanded triangle, grown on first use and reused by
//! every later call on that thread. Reported flops are closed forms of the
//! shapes alone, so they do not depend on the data.

use std::cell::RefCell;

use crate::blas::{axpy, dot, nrm2, scal, Trans, UpLo};
use crate::flops::{add_flops, Attribution, KernelClass};
use crate::gemm_kernel::gemm_strided;
use crate::mat::Mat;

/// Triangular block-reflector factors produced by [`geqrt`] / [`tpqrt`].
///
/// `t` is `ib x n`: column block `i` (of width `ibb = min(ib, n - i)`)
/// stores its upper-triangular `T` factor in `t[0..ibb, i..i+ibb]`,
/// exactly like LAPACK's `T` argument of DGEQRT.
#[derive(Debug, Clone, PartialEq)]
pub struct TFactor {
    pub ib: usize,
    pub t: Mat,
}

impl TFactor {
    pub fn new(ib: usize, n: usize) -> Self {
        assert!(ib >= 1);
        TFactor {
            ib,
            t: Mat::zeros(ib, n),
        }
    }

    /// Number of reflector columns covered.
    pub fn n(&self) -> usize {
        self.t.cols()
    }
}

/// Default inner block size for the blocked QR kernels.
///
/// The paper runs nb = 240 tiles with an inner blocking much smaller than nb
/// so the QR kernels approach their `4/3 nb³`-style leading-order counts.
pub const DEFAULT_IB: usize = 32;

// ---------------------------------------------------------------------------
// Elementary reflectors
// ---------------------------------------------------------------------------

/// Generate an elementary Householder reflector (dlarfg).
///
/// Given `alpha` and `x`, computes `tau` and overwrites `x` with `v` such
/// that `(I - tau [1; v][1; v]^T) [alpha; x] = [beta; 0]`.
/// Returns `(beta, tau)`.
///
/// Follows LAPACK's safeguards: the norm is formed with `hypot` (no
/// overflow/underflow in the squaring) and inputs whose norm lands below
/// `safmin` are rescaled before the division — subnormal residue columns
/// (e.g. after eliminating a rank-deficient tile) would otherwise produce
/// `0/0` reflectors.
pub fn larfg(alpha: f64, x: &mut [f64]) -> (f64, f64) {
    let mut alpha = alpha;
    let mut xnorm = nrm2(x);
    if xnorm == 0.0 {
        return (alpha, 0.0);
    }
    // safmin: smallest number whose reciprocal does not overflow, with a
    // guard factor of 1/eps like LAPACK's DLARFG.
    let safmin = f64::MIN_POSITIVE / f64::EPSILON;
    let rsafmn = 1.0 / safmin;
    let mut beta = -alpha.signum() * alpha.hypot(xnorm);
    let mut knt = 0u32;
    while beta.abs() < safmin && knt < 30 {
        scal(rsafmn, x);
        alpha *= rsafmn;
        xnorm = nrm2(x);
        beta = -alpha.signum() * alpha.hypot(xnorm);
        knt += 1;
    }
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in x.iter_mut() {
        *v *= scale;
    }
    for _ in 0..knt {
        beta *= safmin;
    }
    add_flops(KernelClass::Other, (3 * x.len()) as u64);
    (beta, tau)
}

// ---------------------------------------------------------------------------
// GEQRT: blocked QR of a tile
// ---------------------------------------------------------------------------

/// Unblocked QR (dgeqr2): factors `a` (m×n, m ≥ n not required — reflectors
/// stop at `min(m, n)`), returns the scalar `tau`s. `R` ends in the upper
/// triangle, `V` below the diagonal (implicit unit diagonal).
fn geqr2(a: &mut Mat) -> Vec<f64> {
    let (m, n) = a.dims();
    let k = m.min(n);
    let mut taus = Vec::with_capacity(k);
    let mut flops = 0u64;
    for j in 0..k {
        // Generate reflector from a[j.., j].
        let alpha = a[(j, j)];
        let (beta, tau) = {
            let col = a.col_mut(j);
            larfg(alpha, &mut col[j + 1..])
        };
        a[(j, j)] = beta;
        taus.push(tau);
        if tau != 0.0 {
            // Apply (I - tau v v^T) to the trailing columns.
            for c in j + 1..n {
                let w = {
                    let (cj, cc) = a.two_cols_mut(j, c);
                    let w = cc[j] + dot(&cj[j + 1..m], &cc[j + 1..m]);
                    cc[j] -= tau * w;
                    axpy(-tau * w, &cj[j + 1..m], &mut cc[j + 1..m]);
                    w
                };
                let _ = w;
                flops += 4 * (m - j) as u64;
            }
        }
    }
    add_flops(KernelClass::Other, flops);
    taus
}

/// Build the upper-triangular block-reflector factor `T` (dlarft,
/// Forward/Columnwise) for the `k` reflectors stored in `v` (m×k, unit lower
/// trapezoidal) with scalars `taus`. Writes into `t` (k×k, upper).
fn larft(v: &Mat, taus: &[f64], t: &mut Mat) {
    let (m, k) = v.dims();
    assert_eq!(taus.len(), k);
    assert_eq!(t.dims(), (k, k));
    let mut flops = 0u64;
    for j in 0..k {
        let tau = taus[j];
        if tau == 0.0 {
            for r in 0..=j {
                t[(r, j)] = 0.0;
            }
            continue;
        }
        // y[i] = V(:, i)^T v_j for i < j, with implicit unit diagonals:
        // = V(j, i) + sum_{r > j} V(r, i) * V(r, j).
        for i in 0..j {
            let mut s = v[(j, i)];
            s += dot(&v.col(i)[j + 1..m], &v.col(j)[j + 1..m]);
            t[(i, j)] = -tau * s;
            flops += 2 * (m - j) as u64;
        }
        flops += t_column_finish(t, j);
        t[(j, j)] = tau;
    }
    add_flops(KernelClass::Other, flops);
}

/// Last step of column `j` of a block factor `T` (dlarft / dtpqrt2):
/// `T(0..j, j) ← T(0..j, 0..j) · T(0..j, j)` in place, `T` upper triangular.
/// Row `i` of the product reads only entries `i..j` of the column, so going
/// down the rows never reads an entry already overwritten. Returns the
/// `j²` flops of a triangular matrix-vector product.
fn t_column_finish(t: &mut Mat, j: usize) -> u64 {
    for i in 0..j {
        let mut s = t[(i, i)] * t[(i, j)];
        for r in i + 1..j {
            s += t[(i, r)] * t[(r, j)];
        }
        t[(i, j)] = s;
    }
    (j * j) as u64
}

thread_local! {
    /// Workspace of the block-reflector appliers, one per thread: grown on
    /// first use, reused by every later call (tile kernels run thousands of
    /// blocks per factorization).
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch { w: Vec::new(), tw: Vec::new(), tri: Vec::new() })
    };
}

#[derive(Default)]
struct Scratch {
    /// `W = Vᵀ C`, `k × n` column-major.
    w: Vec<f64>,
    /// `op(T) W`, `k × n` column-major.
    tw: Vec<f64>,
    /// The triangle (or trapezoid) of `V` or `T` being multiplied, expanded
    /// to a dense zero-padded operand by [`expand_trap`].
    tri: Vec<f64>,
}

/// Expand `op(P)` into `dense` (column-major, zero-padded), ready to be an
/// untransposed `A` operand of the engine — which is how every triangle
/// product of the appliers runs as one [`gemm_strided`] call over the whole
/// work matrix.
///
/// `P` is the `pr × pc` trapezoid stored in the `uplo` part of `p` (leading
/// dimension `ldp`): `UpLo::Upper` keeps entries `(r, c)` with `r ≤ c`
/// (a `T` factor, or the trapezoid of a pentagonal `V`), `UpLo::Lower`
/// keeps `r > c` plus an implicit unit diagonal (`V1` of GEQRT storage).
/// Entries on the other side are never read — they hold `R` or another
/// kernel's reflectors. `dense` is `pr × pc`, or `pc × pr` for `Trans`.
fn expand_trap(
    uplo: UpLo,
    trans: Trans,
    p: &[f64],
    ldp: usize,
    pr: usize,
    pc: usize,
    dense: &mut Vec<f64>,
) {
    let ldd = match trans {
        Trans::NoTrans => pr,
        Trans::Trans => pc,
    };
    dense.clear();
    dense.resize(pr * pc, 0.0);
    for c in 0..pc {
        let rows = match uplo {
            UpLo::Upper => 0..(c + 1).min(pr),
            UpLo::Lower => c.min(pr)..pr,
        };
        for r in rows {
            let val = if uplo == UpLo::Lower && r == c {
                1.0
            } else {
                p[r + c * ldp]
            };
            match trans {
                Trans::NoTrans => dense[r + c * ldd] = val,
                Trans::Trans => dense[c + r * ldd] = val,
            }
        }
    }
}

/// Apply a block reflector to `C` from the left, in place (dlarfb,
/// Forward/Columnwise): `C ← (I − V T Vᵀ)^(T?) C`.
///
/// All three operands are strided views (slice from the block's first
/// element, leading dimension): `v` is `m × k` unit lower trapezoidal —
/// `V1` (`k × k`, reflectors strictly below an implicit unit diagonal; the
/// upper part is `R` and never read) on top of the rectangle `V2`
/// (`(m−k) × k`); `t` is the `k × k` upper-triangular factor; `c` is `m × n`.
///
/// `W = V1ᵀ C1 + V2ᵀ C2`, `TW = op(T) W`, `C2 −= V2 TW`, `C1 −= V1 TW`: the
/// `V2` products are engine calls straight on the views, the three
/// triangle products go through [`expand_trap`]; `W` and `TW` live in the
/// thread's [`Scratch`].
#[allow(clippy::too_many_arguments)]
fn larfb_left(
    trans: Trans,
    m: usize,
    k: usize,
    n: usize,
    v: &[f64],
    ldv: usize,
    t: &[f64],
    ldt: usize,
    c: &mut [f64],
    ldc: usize,
) {
    if k == 0 || n == 0 {
        return;
    }
    let (v2, m2) = (&v[k..], m - k);
    let mut scratch = SCRATCH.take();
    let Scratch { w, tw, tri } = &mut scratch;
    for buf in [&mut *w, &mut *tw] {
        buf.clear();
        buf.resize(k * n, 0.0);
    }
    // W = V1ᵀ C1 + V2ᵀ C2.
    expand_trap(UpLo::Lower, Trans::Trans, v, ldv, k, k, tri);
    gemm_strided(k, n, k, 1.0, tri, 1, k, c, 1, ldc, w, k);
    gemm_strided(k, n, m2, 1.0, v2, ldv, 1, &c[k..], 1, ldc, w, k);
    // TW = op(T) W.
    expand_trap(UpLo::Upper, trans, t, ldt, k, k, tri);
    gemm_strided(k, n, k, 1.0, tri, 1, k, w, 1, k, tw, k);
    // C2 −= V2 TW, C1 −= V1 TW.
    gemm_strided(m2, n, k, -1.0, v2, 1, ldv, tw, 1, k, &mut c[k..], ldc);
    expand_trap(UpLo::Lower, Trans::NoTrans, v, ldv, k, k, tri);
    gemm_strided(k, n, k, -1.0, tri, 1, k, tw, 1, k, c, ldc);
    SCRATCH.set(scratch);
    // Closed form of the elementwise kernel: 2(m − i) per (reflector i,
    // column) for each of the two V passes, k² per column for each of the
    // three triangle products.
    let v_pass = 2 * (k * m - k * (k - 1) / 2);
    add_flops(KernelClass::Other, ((2 * v_pass + 3 * k * k) * n) as u64);
}

/// Blocked QR factorization of a tile (LAPACK DGEQRT).
///
/// On return `a` holds `R` (upper triangle) and the Householder vectors `V`
/// (strictly lower part, implicit unit diagonal); the returned [`TFactor`]
/// holds the per-block triangular factors. `ib` is clamped to `min(m, n)`.
pub fn geqrt(a: &mut Mat, ib: usize) -> TFactor {
    let _attr = Attribution::new(KernelClass::Geqrt);
    let (m, n) = a.dims();
    let k = m.min(n);
    let ib = ib.clamp(1, k.max(1));
    let mut tf = TFactor::new(ib, k);
    let mut i = 0;
    while i < k {
        let ibb = ib.min(k - i);
        // Factor the block column a[i.., i..i+ibb].
        let mut blk = a.sub(i, i, m - i, ibb);
        let taus = geqr2(&mut blk);
        let mut tblk = Mat::zeros(ibb, ibb);
        larft(&blk, &taus, &mut tblk);
        a.set_sub(i, i, &blk);
        tf.t.set_sub(0, i, &tblk);
        // Update the trailing columns a[i.., i+ibb..n] in place.
        if i + ibb < n {
            larfb_left(
                Trans::Trans,
                m - i,
                ibb,
                n - i - ibb,
                blk.as_slice(),
                m - i,
                tblk.as_slice(),
                ibb,
                &mut a.as_mut_slice()[i + (i + ibb) * m..],
                m,
            );
        }
        i += ibb;
    }
    tf
}

/// Start columns of the `ib`-wide reflector blocks of a `k`-column `V`, in
/// application order: first to last for `Qᵀ`, last to first for `Q`.
fn block_starts(trans: Trans, k: usize, ib: usize) -> impl Iterator<Item = usize> {
    let blocks = k.div_ceil(ib);
    (0..blocks).map(move |s| match trans {
        Trans::Trans => s * ib,
        Trans::NoTrans => (blocks - 1 - s) * ib,
    })
}

/// Apply `Q` or `Qᵀ` (from [`geqrt`] factors in `v_src`/`tf`) to `c` from the
/// left (LAPACK DORMQR / the paper's UNMQR kernel).
///
/// `v_src` is the factored tile (reflectors in its strictly-lower part);
/// only the first `min(m, n)` reflector columns are used. Each block is
/// applied by `larfb_left` on views of `v_src`, `tf.t` and `c` themselves.
pub fn unmqr(trans: Trans, v_src: &Mat, tf: &TFactor, c: &mut Mat) {
    let _attr = Attribution::new(KernelClass::Unmqr);
    let (m, nv) = v_src.dims();
    let k = m.min(nv);
    assert_eq!(c.rows(), m, "unmqr: C row mismatch");
    assert_eq!(tf.n(), k, "unmqr: T factor width mismatch");
    let (ib, n) = (tf.ib, c.cols());
    for i in block_starts(trans, k, ib) {
        larfb_left(
            trans,
            m - i,
            ib.min(k - i),
            n,
            &v_src.as_slice()[i + i * m..],
            m,
            &tf.t.as_slice()[i * ib..],
            ib,
            &mut c.as_mut_slice()[i..],
            m,
        );
    }
}

/// Reconstruct the explicit `Q` (m×m) from [`geqrt`] factors (test helper).
pub fn form_q(v_src: &Mat, tf: &TFactor) -> Mat {
    let m = v_src.rows();
    let mut q = Mat::eye(m);
    unmqr(Trans::NoTrans, v_src, tf, &mut q);
    q
}

// ---------------------------------------------------------------------------
// TPQRT: triangle-on-pentagon QR (TSQRT when l = 0, TTQRT when l = n)
// ---------------------------------------------------------------------------

/// Number of rows of the pentagonal tile participating in reflector `j`:
/// the first `m - l` rows are always full; row `m - l + r` only exists for
/// columns `j >= r`.
#[inline]
fn pent_rows(m: usize, l: usize, j: usize) -> usize {
    m - l + (j + 1).min(l)
}

/// Unblocked triangle-on-pentagon QR (LAPACK DTPQRT2).
///
/// Factors the stacked matrix `[A; B]` where `a` is n×n upper triangular and
/// `b` is m×n pentagonal: its first `m - l` rows are full, its last `l` rows
/// form an upper trapezoid. On return `a` holds the new `R`, `b` holds the
/// Householder vectors `V₂` (the top part of each reflector is an implicit
/// identity column in `A`), and `t` (n×n upper) holds the block factor.
pub fn tpqrt2(l: usize, a: &mut Mat, b: &mut Mat, t: &mut Mat) {
    let (m, n) = b.dims();
    assert_eq!(a.dims(), (n, n), "tpqrt2: A must be n×n (upper triangular)");
    assert!(l <= m.min(n), "tpqrt2: l out of range");
    assert_eq!(t.dims(), (n, n), "tpqrt2: T must be n×n");
    let mut taus = vec![0.0f64; n];
    let mut flops = 0u64;

    for j in 0..n {
        let p = pent_rows(m, l, j);
        // Reflector from [A(j,j); B(0..p, j)].
        let alpha = a[(j, j)];
        let (beta, tau) = larfg(alpha, &mut b.col_mut(j)[..p]);
        a[(j, j)] = beta;
        taus[j] = tau;
        if tau == 0.0 {
            continue;
        }
        // Apply to the remaining columns c > j of [A; B].
        for c in j + 1..n {
            let (vj, bc) = b.two_cols_mut(j, c);
            let w = a[(j, c)] + dot(&vj[..p], &bc[..p]);
            a[(j, c)] -= tau * w;
            axpy(-tau * w, &vj[..p], &mut bc[..p]);
            flops += 4 * (p + 1) as u64;
        }
    }

    // Build T: T(0..j, j) = -tau_j * T(0..j, 0..j) * (V2(:,0..j)^T v2_j)
    // (the identity top parts contribute nothing across columns).
    t.fill(0.0);
    for j in 0..n {
        let tau = taus[j];
        if tau != 0.0 {
            let pj = pent_rows(m, l, j);
            for i in 0..j {
                let pi = pent_rows(m, l, i).min(pj);
                let s = dot(&b.col(i)[..pi], &b.col(j)[..pi]);
                t[(i, j)] = -tau * s;
                flops += 2 * pi as u64;
            }
            flops += t_column_finish(t, j);
        }
        t[(j, j)] = tau;
    }
    add_flops(KernelClass::Other, flops);
}

/// Rows `mb` of the pentagonal tile (m rows, parameter `l`) that the
/// `ibb`-wide reflector block starting at column `i` touches, and that
/// block's own pentagon parameter `lb`: its first `mb − lb` rows are a full
/// rectangle, its last `lb` rows an upper trapezoid starting at the block's
/// first column.
fn pent_block(m: usize, l: usize, i: usize, ibb: usize) -> (usize, usize) {
    let mb = (m - l + i + ibb).min(m);
    let lb = (mb + l).saturating_sub(m + i).min(ibb.min(mb));
    (mb, lb)
}

/// Apply the block reflector of a pentagonal factorization to the stacked
/// pair `[A; B]`, in place (LAPACK DTPRFB, Left, Forward, Columnwise).
///
/// All operands are strided views: `v` holds the block's `V₂` (`mb × k`,
/// pentagonal with parameter `lb` — `mb − lb` full rows over an `lb × k`
/// upper trapezoid whose lower part is never read), `t` the `k × k` factor,
/// `a` the `k × n` rows of the implicit-identity part, `b` the `mb × n`
/// rows of the bottom tile.
///
/// `W = A + V₂ᵀ B`, `TW = op(T) W`, `A −= TW`, `B −= V₂ TW`: the full rows
/// of `V₂` are engine calls straight on the views (all of `V₂` for the TS
/// kernels, `lb = 0`), the trapezoid and `T` go through [`expand_trap`]; `W`
/// and `TW` live in the thread's [`Scratch`].
#[allow(clippy::too_many_arguments)]
fn tprfb_left(
    trans: Trans,
    lb: usize,
    mb: usize,
    k: usize,
    n: usize,
    v: &[f64],
    ldv: usize,
    t: &[f64],
    ldt: usize,
    a: &mut [f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if k == 0 || n == 0 {
        return;
    }
    let mr = mb - lb;
    let v_trap = &v[mr..];
    let mut scratch = SCRATCH.take();
    let Scratch { w, tw, tri } = &mut scratch;
    // W = A + V₂ᵀ B: the full rows, then the trapezoid.
    w.clear();
    for col in 0..n {
        w.extend_from_slice(&a[col * lda..][..k]);
    }
    gemm_strided(k, n, mr, 1.0, v, ldv, 1, b, 1, ldb, w, k);
    expand_trap(UpLo::Upper, Trans::Trans, v_trap, ldv, lb, k, tri);
    gemm_strided(k, n, lb, 1.0, tri, 1, k, &b[mr..], 1, ldb, w, k);
    // TW = op(T) W.
    tw.clear();
    tw.resize(k * n, 0.0);
    expand_trap(UpLo::Upper, trans, t, ldt, k, k, tri);
    gemm_strided(k, n, k, 1.0, tri, 1, k, w, 1, k, tw, k);
    // A −= TW, B −= V₂ TW.
    for col in 0..n {
        for (av, wv) in a[col * lda..][..k].iter_mut().zip(&tw[col * k..][..k]) {
            *av -= wv;
        }
    }
    gemm_strided(mr, n, k, -1.0, v, 1, ldv, tw, 1, k, b, ldb);
    expand_trap(UpLo::Upper, Trans::NoTrans, v_trap, ldv, lb, k, tri);
    gemm_strided(lb, n, k, -1.0, tri, 1, lb, tw, 1, k, &mut b[mr..], ldb);
    SCRATCH.set(scratch);
    // Closed form of the elementwise kernel: 2·pⱼ per (reflector j, column)
    // for each of the two V₂ passes (pⱼ = rows of reflector j), k² per
    // column for the T product.
    let v_pass: usize = (0..k).map(|j| 2 * pent_rows(mb, lb, j)).sum();
    add_flops(KernelClass::Other, ((2 * v_pass + k * k) * n) as u64);
}

/// Blocked triangle-on-pentagon QR (LAPACK DTPQRT).
///
/// * `l = 0` → **TSQRT**: zero a full square tile `b` against the upper
///   triangular tile `a` (paper's LU-panel analogue for QR steps).
/// * `l = n` → **TTQRT**: zero an upper-triangular tile `b` against `a`
///   (the reduction-tree merge kernel).
///
/// `a` (n×n) must be upper triangular on entry and holds the updated `R` on
/// exit; `b` (m×n) holds the `V₂` reflectors on exit.
pub fn tpqrt(l: usize, a: &mut Mat, b: &mut Mat, ib: usize) -> TFactor {
    let _attr = Attribution::new(KernelClass::Tpqrt);
    let (m, n) = b.dims();
    assert_eq!(a.dims(), (n, n));
    assert!(l <= m.min(n));
    let ib = ib.clamp(1, n.max(1));
    let mut tf = TFactor::new(ib, n);

    let mut i = 0;
    while i < n {
        let ibb = ib.min(n - i);
        let (mb, lb) = pent_block(m, l, i, ibb);
        // Factor [A(i..i+ibb, i..i+ibb); B(0..mb, i..i+ibb)].
        let mut ablk = a.sub(i, i, ibb, ibb);
        let mut bblk = b.sub(0, i, mb, ibb);
        let mut tblk = Mat::zeros(ibb, ibb);
        tpqrt2(lb, &mut ablk, &mut bblk, &mut tblk);
        a.set_sub(i, i, &ablk);
        b.set_sub(0, i, &bblk);
        tf.t.set_sub(0, i, &tblk);
        // Update the remaining columns in place:
        // [A(i..i+ibb, i+ibb..n); B(0..mb, i+ibb..n)].
        if i + ibb < n {
            tprfb_left(
                Trans::Trans,
                lb,
                mb,
                ibb,
                n - i - ibb,
                bblk.as_slice(),
                mb,
                tblk.as_slice(),
                ibb,
                &mut a.as_mut_slice()[i + (i + ibb) * n..],
                n,
                &mut b.as_mut_slice()[(i + ibb) * m..],
                m,
            );
        }
        i += ibb;
    }
    tf
}

/// Apply `Qᵀ` (or `Q`) from a [`tpqrt`] factorization to the stacked pair of
/// tiles `[A; B]` (LAPACK DTPMQRT; the paper's **TSMQR** / **TTMQR**).
///
/// `v` is the reflector tile produced by [`tpqrt`] (m×k), `a` is the k×w top
/// tile and `b` the m×w bottom tile being updated. Each block is applied by
/// `tprfb_left` on views of `v`, `tf.t`, `a` and `b` themselves.
pub fn tpmqrt(trans: Trans, l: usize, v: &Mat, tf: &TFactor, a: &mut Mat, b: &mut Mat) {
    let _attr = Attribution::new(KernelClass::Tpmqrt);
    let (m, k) = v.dims();
    let w = a.cols();
    assert_eq!(a.rows(), k, "tpmqrt: A rows != k reflector columns");
    assert_eq!(b.dims(), (m, w), "tpmqrt: B dims mismatch");
    assert_eq!(tf.n(), k);
    assert!(l <= m.min(k), "tpmqrt: l out of range");
    let ib = tf.ib;
    for i in block_starts(trans, k, ib) {
        let ibb = ib.min(k - i);
        let (mb, lb) = pent_block(m, l, i, ibb);
        tprfb_left(
            trans,
            lb,
            mb,
            ibb,
            w,
            &v.as_slice()[i * m..],
            m,
            &tf.t.as_slice()[i * ib..],
            ib,
            &mut a.as_mut_slice()[i..],
            k,
            b.as_mut_slice(),
            m,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, Trans};

    fn assert_orthonormal(q: &Mat, tol: f64) {
        let m = q.rows();
        let mut qtq = Mat::zeros(m, m);
        gemm(Trans::Trans, Trans::NoTrans, 1.0, q, q, 0.0, &mut qtq);
        assert!(
            qtq.max_abs_diff(&Mat::eye(m)) < tol,
            "Q^T Q deviates from I by {}",
            qtq.max_abs_diff(&Mat::eye(m))
        );
    }

    #[test]
    fn larfg_annihilates() {
        let alpha = 3.0;
        let mut x = vec![1.0, -2.0, 0.5];
        let x0 = x.clone();
        let (beta, tau) = larfg(alpha, &mut x);
        // Check H [alpha; x0] = [beta; 0] with H = I - tau [1; v][1; v]^T.
        let mut full = vec![alpha];
        full.extend_from_slice(&x0);
        let mut v = vec![1.0];
        v.extend_from_slice(&x);
        let w: f64 = full.iter().zip(&v).map(|(a, b)| a * b).sum();
        let result: Vec<f64> = full.iter().zip(&v).map(|(a, b)| a - tau * w * b).collect();
        assert!((result[0] - beta).abs() < 1e-14);
        for r in &result[1..] {
            assert!(r.abs() < 1e-14);
        }
        // |beta| = norm of the input vector.
        let norm = (alpha * alpha + x0.iter().map(|v| v * v).sum::<f64>()).sqrt();
        assert!((beta.abs() - norm).abs() < 1e-14);
    }

    #[test]
    fn larfg_zero_tail() {
        let mut x = vec![0.0, 0.0];
        let (beta, tau) = larfg(5.0, &mut x);
        assert_eq!(beta, 5.0);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn larfg_subnormal_inputs_stay_finite() {
        // Underflow regression: |[alpha; x]| below safmin used to produce
        // tau = -0/-0 = NaN (observed on rank-deficient Wilkinson tiles).
        let mut x = vec![5e-324, 0.0];
        let (beta, tau) = larfg(0.0, &mut x);
        assert!(beta.is_finite() && tau.is_finite(), "beta {beta} tau {tau}");
        assert!(x.iter().all(|v| v.is_finite()));
        let mut x = vec![1e-310, -3e-312];
        let (beta, tau) = larfg(2e-311, &mut x);
        assert!(beta.is_finite() && tau.is_finite());
        assert!(x.iter().all(|v| v.is_finite()));
        // |beta| equals the (rescaled) input norm.
        let norm = (2e-311f64).powi(2).sqrt(); // underflows — use hypot chain
        let _ = norm;
    }

    #[test]
    fn geqrt_rank_one_tile_stays_finite() {
        // The tile full of -1s (a Wilkinson sub-block) is rank one; its QR
        // must not generate NaN reflectors from subnormal residue.
        for (m, ib) in [(48usize, 16usize), (48, 48), (64, 8)] {
            let mut a = Mat::from_fn(m, m, |_, _| -1.0);
            let tf = geqrt(&mut a, ib);
            assert!(a.all_finite(), "m={m} ib={ib}: V/R not finite");
            assert!(tf.t.all_finite(), "m={m} ib={ib}: T not finite");
            // R(0,0) = ±sqrt(m); everything below row 0 of R ~ 0.
            assert!((a[(0, 0)].abs() - (m as f64).sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn geqrt_reconstructs_a() {
        for (m, n, ib) in [
            (16, 16, 4),
            (24, 24, 24),
            (24, 24, 5),
            (32, 16, 4),
            (7, 7, 3),
        ] {
            let a0 = Mat::random(m, n, (m * n) as u64);
            let mut a = a0.clone();
            let tf = geqrt(&mut a, ib);
            let q = form_q(&a, &tf);
            assert_orthonormal(&q, 1e-13);
            // A == Q R.
            let r = Mat::from_fn(m, n, |i, j| if i <= j { a[(i, j)] } else { 0.0 });
            let mut qr = Mat::zeros(m, n);
            gemm(Trans::NoTrans, Trans::NoTrans, 1.0, &q, &r, 0.0, &mut qr);
            assert!(
                qr.max_abs_diff(&a0) < 1e-12,
                "m={m} n={n} ib={ib}: |QR - A| = {}",
                qr.max_abs_diff(&a0)
            );
        }
    }

    #[test]
    fn unmqr_transpose_then_notrans_roundtrip() {
        let (m, n, ib) = (20, 20, 6);
        let a0 = Mat::random(m, n, 3);
        let mut a = a0.clone();
        let tf = geqrt(&mut a, ib);
        let c0 = Mat::random(m, 9, 4);
        let mut c = c0.clone();
        unmqr(Trans::Trans, &a, &tf, &mut c);
        // Q^T A should be R.
        let mut qta = a0.clone();
        unmqr(Trans::Trans, &a, &tf, &mut qta);
        for j in 0..n {
            for i in j + 1..m {
                assert!(qta[(i, j)].abs() < 1e-12, "Q^T A not upper at ({i},{j})");
            }
        }
        unmqr(Trans::NoTrans, &a, &tf, &mut c);
        assert!(c.max_abs_diff(&c0) < 1e-12);
    }

    #[test]
    fn tpqrt2_ts_case_zeroes_b() {
        // TS: l = 0, B square.
        let n = 12;
        let r0 = Mat::random(n, n, 1).upper_triangular();
        let b0 = Mat::random(n, n, 2);
        let mut r = r0.clone();
        let mut b = b0.clone();
        let mut t = Mat::zeros(n, n);
        tpqrt2(0, &mut r, &mut b, &mut t);
        // Verify [R'；0] = Q^T [R0; B0] by applying tpmqrt to the stack.
        let tf = TFactor {
            ib: n,
            t: Mat::from_fn(n, n, |i, j| if i <= j { t[(i, j)] } else { 0.0 }),
        };
        let mut top = r0.clone();
        let mut bot = b0.clone();
        tpmqrt(Trans::Trans, 0, &b, &tf, &mut top, &mut bot);
        assert!(top.max_abs_diff(&r) < 1e-12, "top != new R");
        assert!(
            bot.norm_max() < 1e-12,
            "bottom tile not annihilated: {}",
            bot.norm_max()
        );
    }

    #[test]
    fn tpqrt_blocked_ts_matches_unblocked() {
        let n = 16;
        let r0 = Mat::random(n, n, 5).upper_triangular();
        let b0 = Mat::random(n, n, 6);

        let mut r1 = r0.clone();
        let mut b1 = b0.clone();
        let mut t1 = Mat::zeros(n, n);
        tpqrt2(0, &mut r1, &mut b1, &mut t1);

        let mut r2 = r0.clone();
        let mut b2 = b0.clone();
        let _tf = tpqrt(0, &mut r2, &mut b2, 5);

        assert!(r1.max_abs_diff(&r2) < 1e-12);
        assert!(b1.max_abs_diff(&b2) < 1e-12);
    }

    #[test]
    fn tpqrt_tt_preserves_triangles_and_zeroes_b() {
        // TT: l = n, both tiles upper triangular.
        let n = 12;
        let r0 = Mat::random(n, n, 7).upper_triangular();
        let b0 = Mat::random(n, n, 8).upper_triangular();
        for ib in [n, 4] {
            let mut r = r0.clone();
            let mut b = b0.clone();
            let tf = tpqrt(n, &mut r, &mut b, ib);
            // V2 stays upper triangular (structure exploited by TT kernels).
            for j in 0..n {
                for i in j + 1..n {
                    assert!(
                        b[(i, j)].abs() < 1e-13,
                        "V2 fill-in below diagonal (ib={ib})"
                    );
                }
            }
            // Applying Q^T to the original stack annihilates the bottom tile.
            let mut top = r0.clone();
            let mut bot = b0.clone();
            tpmqrt(Trans::Trans, n, &b, &tf, &mut top, &mut bot);
            assert!(top.max_abs_diff(&r) < 1e-12);
            assert!(bot.norm_max() < 1e-12, "ib={ib}: {}", bot.norm_max());
        }
    }

    #[test]
    fn tpmqrt_orthogonality_roundtrip() {
        // Q then Q^T must restore arbitrary data (both TS and TT).
        let n = 10;
        for l in [0usize, n] {
            let mut r = Mat::random(n, n, 9).upper_triangular();
            let mut vsrc = if l == 0 {
                Mat::random(n, n, 10)
            } else {
                Mat::random(n, n, 10).upper_triangular()
            };
            let tf = tpqrt(l, &mut r, &mut vsrc, 3);
            let a0 = Mat::random(n, 5, 11);
            let b0 = Mat::random(n, 5, 12);
            let mut a = a0.clone();
            let mut b = b0.clone();
            tpmqrt(Trans::Trans, l, &vsrc, &tf, &mut a, &mut b);
            tpmqrt(Trans::NoTrans, l, &vsrc, &tf, &mut a, &mut b);
            assert!(a.max_abs_diff(&a0) < 1e-12, "l={l}");
            assert!(b.max_abs_diff(&b0) < 1e-12, "l={l}");
        }
    }

    #[test]
    fn tpqrt_rectangular_bottom_tile() {
        // TS with a taller bottom tile (ragged tiles at the matrix border).
        let (m, n) = (14, 9);
        let r0 = Mat::random(n, n, 13).upper_triangular();
        let b0 = Mat::random(m, n, 14);
        let mut r = r0.clone();
        let mut b = b0.clone();
        let tf = tpqrt(0, &mut r, &mut b, 4);
        let mut top = r0;
        let mut bot = b0;
        tpmqrt(Trans::Trans, 0, &b, &tf, &mut top, &mut bot);
        assert!(top.max_abs_diff(&r) < 1e-12);
        assert!(bot.norm_max() < 1e-12);
    }

    #[test]
    fn qr_norm_preservation() {
        // 2-norm of columns of the stack is preserved by the orthogonal map:
        // here check Frobenius norm of [A; B] before/after TSQRT.
        let n = 8;
        let r0 = Mat::random(n, n, 20).upper_triangular();
        let b0 = Mat::random(n, n, 21);
        let before = (r0.norm_fro().powi(2) + b0.norm_fro().powi(2)).sqrt();
        let mut r = r0.clone();
        let mut b = b0.clone();
        let _ = tpqrt(0, &mut r, &mut b, 8);
        let after = r.norm_fro(); // bottom is zero after factorization
        assert!((before - after).abs() < 1e-12 * before.max(1.0));
    }
}
