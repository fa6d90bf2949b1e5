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
//! `H = I − 𝒱 T 𝒱ᵀ`, one per `ib`-wide column block of `V`: `W = 𝒱ᵀ C`,
//! `TW = op(T) W`, `C ← C − 𝒱 TW`. Both appliers, `larfb_left` (GEQRT
//! reflectors, `𝒱 = [V1; V2]`) and `tprfb_left` (pentagonal reflectors,
//! `𝒱 = [I; V₂]`), describe their block to **one applier**, `Block::apply`,
//! which works in place on strided views of the caller's tiles — a view is a
//! slice offset to the block's first element plus the tile's leading
//! dimension; no tile or sub-block of `C` is ever copied out and back.
//!
//! Per block it **packs once**:
//!
//! * the **rectangular** rows of the `V` block (everything below `V1` in
//!   GEQRT storage, everything above the trapezoid in a pentagonal tile; all
//!   of it for TS kernels) are transposed into `Vᵀ` (`k × rows`, vectorized
//!   8 × 8 transposes), the `A` operand of `Vᵀ·C`; untransposed they are
//!   read where they lie;
//! * the **triangle** of the `V` block (unit lower `V1` whose upper part
//!   holds `R`; the upper trapezoid of a pentagonal tile whose lower part may
//!   hold another kernel's reflectors) is expanded by `expand_trap` into
//!   dense zero-padded operands, transposed into its columns of `Vᵀ` and
//!   untransposed beside it. Only the referenced side of a triangle is ever
//!   read. A TS block has no triangle and packs none;
//! * `op(T)`, dense and zero-padded below its diagonal.
//!
//! Then it **sweeps `C` in strips of 8 columns**. For one strip: `W` starts
//! as the strip of `A` (pentagonal) or zero (GEQRT) and takes `Vᵀ·C` piece by
//! piece; `TW = op(T)·W`; `A −= TW`; `C −= V·TW` row block by row block. `W`
//! and `TW` are `k × 8` buffers that never leave L1, and the strip of `C` is
//! still in L1 from its read in `Vᵀ·C` when `C −= V·TW` writes it. Every one
//! of those products is a run of the engine's 16 × 8 register tile
//! (`TileEngine::tile`, shared with the direct GEMM), so the applier's
//! inner loop *is* the GEMM's; any `ib` works (`k > 16` in row panels of 16)
//! and any shape (row and column fringes are masked).
//!
//! Inside a run the tile `C` is cold — part of the trailing matrix, last
//! touched a step ago — and `Vᵀ·C` reads its strip as the `B` operand, in the
//! middle of the chain, where the tile's own fold-side prefetch cannot reach.
//! So the sweep **looks one strip ahead**: while it works on strip `j0` it
//! prefetches the lines of strip `j0 + 8` of `C` and of the block's rows of
//! the top tile (the first strip while the block is packed), one column per
//! register tile of the strip in work — a strip's hundred lines asked for in
//! one burst fill the load buffers and stall the very tile they should
//! overlap. It does so only where it can pay: when `C` has rows enough for
//! the chain to cover a miss (`gemm_kernel`, "Memory"), and only at rows the
//! kernel call meets for the first time (`Block::cold`, which `unmqr`,
//! `tpmqrt` and the blocked factorizations keep as they go down their
//! blocks) — the second block of a TSMQR finds all of `C` in cache, and a
//! prefetch of a resident line costs its issue slot for nothing (measured at
//! nb = 96 with every block looking ahead: TSMQR 5 µs slower hot, for the
//! same streamed time). A hint, never an input: no result depends on it.
//!
//! So a TT block costs its rectangle plus two `ib`-sized triangles, never
//! the full TS rectangle: TTMQR stays near half of TSMQR, which the paper's
//! reduction-tree analysis depends on (a TTQRT is ~`2/3 nb³` flops versus
//! `2 nb³` for TSQRT). The zero padding makes a triangle product execute
//! `ib²` multiply-adds per column where a true `trmm` needs `ib²/2`; that
//! surplus is of relative order `ib / nb`, the price of running the
//! triangles at the engine's rate instead of in short per-column loops.
//!
//! # Why the results are those of the composed products, bit for bit
//!
//! Before the one-pass applier each block was a composition of whole-matrix
//! engine calls — `W = A`, `W += V_rectᵀ·B`, `W += V_trapᵀ·B`, `TW = op(T)·W`,
//! `A −= TW`, `B −= V_rect·TW`, `B −= V_trap·TW` (and likewise for GEQRT
//! storage) — which survives as the test oracle (`tests::composed`). The
//! applier reorders *which entry is computed when*, never *how an entry is
//! computed*: each of those products still gives each of its output entries
//! one FMA chain over ascending depth, started from `+0.0`, folded into the
//! destination by one `fma(acc, ±1, dest)` (the `TileEngine` contract); the
//! products of a block still fold in the same order (rows of `V` ascending);
//! the zero-padded triangle entries still multiply (so signed zeros, NaNs and
//! infinities propagate alike); and a product of depth zero is still skipped
//! rather than folded. Strips and row blocks only partition the entries.
//! That is why every parity suite, pin and golden of the workspace kept its
//! value across the change, and it holds for tiles up to the direct engine's
//! size limit (`m·n·k ≤ 10⁶` per product, nb ≤ 250 at ib = 16), past which
//! the composed path used to split long chains into `KC`-deep partial sums.
//!
//! The only workspace is one thread-local `Scratch` — `Vᵀ`, the expanded
//! triangle, `op(T)` and the two strip buffers, a few tens of KiB at
//! nb = 96 — grown on first use and reused by every later call on that
//! thread. Reported flops are closed forms of the shapes alone, so they do
//! not depend on the data.

use std::cell::RefCell;
use std::ops::Range;

use crate::blas::{axpy, dot, nrm2, scal, Trans, UpLo};
use crate::flops::{add_flops, Attribution, KernelClass};
#[cfg(target_arch = "x86_64")]
use crate::gemm_kernel::{avx2_fma_available, avx512f_available, Avx2, Avx512};
use crate::gemm_kernel::{Portable, TileEngine, PREFETCH_MIN_DEPTH, TILE_M, TILE_N};
use crate::mat::{AlignedBuf, Mat};

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

/// Default inner block size for the blocked QR kernels
/// (`FactorOptions::default().ib`).
///
/// The paper runs nb = 240 tiles with an inner blocking much smaller than nb
/// so the QR kernels approach their `4/3 nb³`-style leading-order counts;
/// 16 is one register tile of reflectors per block.
pub const DEFAULT_IB: usize = 16;

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

/// Unblocked QR (dgeqr2) of the `m × n` view `a` (leading dimension `lda`;
/// m ≥ n not required — reflectors stop at `min(m, n)`), returns the scalar
/// `tau`s. `R` ends in the upper triangle, `V` below the diagonal (implicit
/// unit diagonal).
fn geqr2(m: usize, n: usize, a: &mut [f64], lda: usize) -> Vec<f64> {
    let k = m.min(n);
    let mut taus = Vec::with_capacity(k);
    let mut flops = 0u64;
    for j in 0..k {
        // Column j ends `head`; column c > j starts `(c − j)·lda − m` into
        // `tail`.
        let (head, tail) = a.split_at_mut(j * lda + m);
        let cj = &mut head[j * lda..];
        // Generate reflector from a[j.., j].
        let alpha = cj[j];
        let (beta, tau) = larfg(alpha, &mut cj[j + 1..]);
        cj[j] = beta;
        taus.push(tau);
        if tau != 0.0 {
            // Apply (I - tau v v^T) to the trailing columns.
            for c in j + 1..n {
                let cc = &mut tail[(c - j) * lda - m..][..m];
                let w = cc[j] + dot(&cj[j + 1..m], &cc[j + 1..m]);
                cc[j] -= tau * w;
                axpy(-tau * w, &cj[j + 1..m], &mut cc[j + 1..m]);
                flops += 4 * (m - j) as u64;
            }
        }
    }
    add_flops(KernelClass::Other, flops);
    taus
}

/// Build the upper-triangular block-reflector factor `T` (dlarft,
/// Forward/Columnwise) for the `k` reflectors stored in the `m × k` view `v`
/// (unit lower trapezoidal) with scalars `taus`. Writes the upper triangle
/// of the `k × k` view `t`.
fn larft(m: usize, k: usize, v: &[f64], ldv: usize, taus: &[f64], t: &mut [f64], ldt: usize) {
    assert_eq!(taus.len(), k);
    let mut flops = 0u64;
    for j in 0..k {
        let tau = taus[j];
        if tau == 0.0 {
            for r in 0..=j {
                t[r + j * ldt] = 0.0;
            }
            continue;
        }
        // y[i] = V(:, i)^T v_j for i < j, with implicit unit diagonals:
        // = V(j, i) + sum_{r > j} V(r, i) * V(r, j).
        for i in 0..j {
            let mut s = v[j + i * ldv];
            s += dot(
                &v[i * ldv + j + 1..i * ldv + m],
                &v[j * ldv + j + 1..j * ldv + m],
            );
            t[i + j * ldt] = -tau * s;
            flops += 2 * (m - j) as u64;
        }
        flops += t_column_finish(t, ldt, j);
        t[j + j * ldt] = tau;
    }
    add_flops(KernelClass::Other, flops);
}

/// Last step of column `j` of a block factor `T` (dlarft / dtpqrt2):
/// `T(0..j, j) ← T(0..j, 0..j) · T(0..j, j)` in place, `T` upper triangular.
/// Row `i` of the product reads only entries `i..j` of the column, so going
/// down the rows never reads an entry already overwritten. Returns the
/// `j²` flops of a triangular matrix-vector product.
fn t_column_finish(t: &mut [f64], ldt: usize, j: usize) -> u64 {
    for i in 0..j {
        let mut s = t[i + i * ldt] * t[i + j * ldt];
        for r in i + 1..j {
            s += t[i + r * ldt] * t[r + j * ldt];
        }
        t[i + j * ldt] = s;
    }
    (j * j) as u64
}

/// Split a strided view (leading dimension `ld`) after its first `cols`
/// columns: both halves start in the same row, and the second is empty (or
/// a column's unused tail) when the view has no more columns.
fn split_columns(view: &mut [f64], cols: usize, ld: usize) -> (&mut [f64], &mut [f64]) {
    view.split_at_mut((cols * ld).min(view.len()))
}

thread_local! {
    /// Workspace of the block-reflector applier, one per thread: grown on
    /// first use, reused by every later call (tile kernels run thousands of
    /// blocks per factorization).
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            vt: AlignedBuf::new(),
            tri: AlignedBuf::new(),
            t: AlignedBuf::new(),
            strip: AlignedBuf::new(),
        })
    };
}

/// Cache-line aligned buffers (`crate::mat`): with `k` a multiple of eight
/// every column of `Vᵀ`, `op(T)`, `W` and `TW` is whole vectors on whole lines.
#[derive(Default)]
struct Scratch {
    /// `Vᵀ` of the block, `k × m` column-major: transposed rectangle rows and
    /// the expanded transposed triangle, in the row order of `V`.
    vt: AlignedBuf,
    /// The triangle (or trapezoid) of `V`, untransposed, dense, zero-padded.
    tri: AlignedBuf,
    /// `op(T)`, dense, zero-padded, `k × k`; behind it `T` itself expanded,
    /// which `Tᵀ` is transposed from.
    t: AlignedBuf,
    /// `W` then `TW` of the strip being swept, `k × 8` each.
    strip: AlignedBuf,
}

/// The first `len` entries of `buf`, regrown (contents forgotten) if it is
/// shorter: every user writes what it reads.
fn grown(buf: &mut AlignedBuf, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.reset_zeroed(len);
    }
    &mut buf[..len]
}

/// Expand a trapezoid into `dense` (`pr × pc` column-major, zero-padded),
/// ready to be an untransposed `A` operand of the engine's tile.
///
/// The trapezoid is the `uplo` part of the `pr × pc` view `p` (leading
/// dimension `ldp`): `UpLo::Upper` keeps entries `(r, c)` with `r ≤ c`
/// (a `T` factor, or the trapezoid of a pentagonal `V`), `UpLo::Lower`
/// keeps `r > c` plus an implicit unit diagonal (`V1` of GEQRT storage).
/// Entries on the other side are never read — they hold `R` or another
/// kernel's reflectors.
///
/// # Safety
/// `p` must cover the `pr × pc` view and `dense` `pr · pc` entries, and the
/// CPU must support `E`'s ISA.
#[inline(always)]
unsafe fn expand_trap<E: TileEngine>(
    uplo: UpLo,
    p: *const f64,
    ldp: usize,
    pr: usize,
    pc: usize,
    dense: *mut f64,
) {
    for c in 0..pc {
        let below = (c + 1).min(pr);
        let (lo, hi) = match uplo {
            UpLo::Upper => (0, below),
            UpLo::Lower => (below, pr),
        };
        // SAFETY: column c of the view and of `dense`.
        unsafe {
            E::column_window(p.add(c * ldp), lo, hi, pr, dense.add(c * pr));
            if uplo == UpLo::Lower && c < pr {
                *dense.add(c + c * pr) = 1.0;
            }
        }
    }
}

/// One block reflector `H = I − 𝒱 T 𝒱ᵀ` and the rows it is applied to, as
/// strided views (slice from the block's first element, leading dimension).
///
/// `v` holds the `m × k` stored part of `𝒱`: a **triangle** on rows `tri`
/// (the `uplo` side of `v` there; the other side is never read) and a
/// **rectangle** on the remaining rows, which lie all before or all after
/// it. `c` holds the `m × n` rows of `C` those rows of `𝒱` act on. With
/// `top`, `𝒱` has an implicit `k × k` identity on top of `v`, acting on the
/// `k × n` view `top` (the pentagonal kernels); without, `𝒱 = v` (GEQRT
/// storage). `t` is the `k × k` upper-triangular factor.
struct Block<'a> {
    trans: Trans,
    m: usize,
    k: usize,
    n: usize,
    v: &'a [f64],
    ldv: usize,
    uplo: UpLo,
    tri: Range<usize>,
    t: &'a [f64],
    ldt: usize,
    top: Option<(&'a mut [f64], usize)>,
    c: &'a mut [f64],
    ldc: usize,
    /// Rows of `c` that no earlier block of this kernel call has touched:
    /// where the sweep looks ahead. A hint; results do not depend on it.
    cold: Range<usize>,
}

/// A run of rows of a block's `V` as the applier's untransposed operand:
/// `rows × k` at `v` with leading dimension `ldv` — the rectangle where it
/// lies, the triangle in its dense expansion. The same rows of `Vᵀ` sit at
/// column `rows.start` of [`Scratch::vt`], the same rows of `C` at row
/// `rows.start` of the block's `c`.
struct Piece {
    rows: Range<usize>,
    v: *const f64,
    ldv: usize,
}

/// The sweep's look-ahead (module docs): the rows of `C` the kernel call has
/// not touched yet — `rows` of them from `c` on, leading dimension `ldc` —
/// and the block's `k` rows of the top tile, asked of the caches one strip
/// ahead, a column per [`Ahead::tick`]. It only ever prefetches: its pointers
/// are never dereferenced.
struct Ahead {
    c: *const f64,
    ldc: usize,
    rows: usize,
    top: Option<(*const f64, usize)>,
    k: usize,
    /// Columns of `C`.
    n: usize,
    /// Next column to ask for, and how many of its strip are still to ask.
    col: usize,
    left: usize,
}

impl Ahead {
    /// Aim at the strip that starts at column `j0`, if there is one.
    #[inline(always)]
    fn aim(&mut self, j0: usize) {
        self.col = j0;
        self.left = if self.rows > 0 && j0 < self.n {
            TILE_N.min(self.n - j0)
        } else {
            0
        };
    }

    /// Ask for the next column of the strip aimed at, if any is left. One
    /// column per register tile of the strip in work spreads a strip's
    /// hundred lines over its eight or so tiles; asked for in one burst they
    /// fill the load buffers and stall the tile they were meant to overlap.
    #[inline(always)]
    fn tick<E: TileEngine>(&mut self) {
        if self.left > 0 {
            E::prefetch(
                self.c.wrapping_add(self.col * self.ldc),
                self.ldc,
                self.rows,
                1,
            );
            if let Some((a, lda)) = self.top {
                E::prefetch(a.wrapping_add(self.col * lda), lda, self.k, 1);
            }
            self.col += 1;
            self.left -= 1;
        }
    }

    #[inline(always)]
    fn flush<E: TileEngine>(&mut self) {
        while self.left > 0 {
            self.tick::<E>();
        }
    }
}

/// `D[0..m, 0..cols] ← S + alpha · A · B` for one strip of `cols ≤ 8`
/// columns, as a column of register tiles (`src`, `dst` as in
/// [`TileEngine::tile`]).
///
/// # Safety
/// As [`TileEngine::tile`], for `A` `m × depth`, `B` `depth × cols`, `S` and
/// `D` `m × cols`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn strip_product<E: TileEngine>(
    m: usize,
    cols: usize,
    depth: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    src: *const f64,
    lds: usize,
    dst: *mut f64,
    ldd: usize,
    ahead: &mut Ahead,
) {
    for i0 in (0..m).step_by(TILE_M) {
        let rows = TILE_M.min(m - i0);
        ahead.tick::<E>();
        // SAFETY: rows i0 .. i0 + rows of the caller's A, S and D.
        unsafe {
            let s = if src.is_null() { src } else { src.add(i0) };
            let (a, d) = (a.add(i0), dst.add(i0));
            E::tile(rows, cols, depth, alpha, a, lda, b, ldb, s, lds, d, ldd);
        }
    }
}

impl Block<'_> {
    /// `[top; C] ← op(H) · [top; C]`, in place: pack the block once, then
    /// one pass over `C` in strips of 8 columns (module docs).
    fn apply(self) {
        let (m, k, n) = (self.m, self.k, self.n);
        if k == 0 || n == 0 {
            return;
        }
        let tri = &self.tri;
        assert!(
            tri.start <= tri.end && tri.end <= m && (tri.start == 0 || tri.end == m),
            "block reflector: the triangle must sit at one end of V's rows"
        );
        // Every address the packing and the sweep form lies inside one of
        // these views (or the scratch, sized below).
        assert!(
            self.v.len() >= (k - 1) * self.ldv + m
                && self.t.len() >= (k - 1) * self.ldt + k
                && self.c.len() >= (n - 1) * self.ldc + m
                && self
                    .top
                    .as_ref()
                    .is_none_or(|(a, lda)| a.len() >= (n - 1) * lda + k),
            "block reflector: operand slice shorter than its declared shape"
        );
        let mut scratch = SCRATCH.take();
        // SAFETY: the asserts above bound the views; each wrapper runs only
        // after its CPUID probe.
        unsafe {
            #[cfg(target_arch = "x86_64")]
            if avx512f_available() {
                self.run_avx512(&mut scratch);
            } else if avx2_fma_available() {
                self.run_avx2(&mut scratch);
            } else {
                self.run::<Portable>(&mut scratch);
            }
            #[cfg(not(target_arch = "x86_64"))]
            self.run::<Portable>(&mut scratch);
        }
        SCRATCH.set(scratch);
    }

    /// # Safety
    /// [`Block::run`]'s, on a CPU with AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn run_avx512(self, scratch: &mut Scratch) {
        // SAFETY: the caller's.
        unsafe { self.run::<Avx512>(scratch) }
    }

    /// # Safety
    /// [`Block::run`]'s, on a CPU with AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn run_avx2(self, scratch: &mut Scratch) {
        // SAFETY: the caller's.
        unsafe { self.run::<Avx2>(scratch) }
    }

    /// # Safety
    /// The views must cover their declared shapes (the assert of
    /// [`Block::apply`]) and the CPU must support `E`'s ISA.
    #[inline(always)]
    unsafe fn run<E: TileEngine>(self, scratch: &mut Scratch) {
        let Block {
            trans,
            m,
            k,
            n,
            v,
            ldv,
            uplo,
            tri,
            t,
            ldt,
            mut top,
            c,
            ldc,
            cold,
        } = self;
        let rect = if tri.start == 0 {
            tri.end..m
        } else {
            0..tri.start
        };

        let c = c.as_mut_ptr();
        // Look ahead only when the chain of `Vᵀ·C` (`m` deep) is long enough
        // to cover a miss, and only at rows this call meets for the first
        // time: what an earlier block swept is a cache hit already, and a
        // prefetch of it would cost its issue slot for nothing.
        let cold = if m >= PREFETCH_MIN_DEPTH { cold } else { 0..0 };
        let mut ahead = Ahead {
            c: c.wrapping_add(cold.start),
            ldc,
            rows: cold.len(),
            top: top.as_ref().map(|(a, lda)| (a.as_ptr(), *lda)),
            k,
            n,
            col: 0,
            left: 0,
        };
        // The first strip, while the block is packed.
        ahead.aim(0);
        ahead.flush::<E>();

        // Pack: the triangle of V untransposed, Vᵀ (rectangle and triangle
        // transposed), op(T).
        let vt = grown(&mut scratch.vt, k * m);
        let tri_dense = grown(&mut scratch.tri, tri.len() * k);
        let (op_t, t_dense) = grown(&mut scratch.t, 2 * k * k).split_at_mut(k * k);
        // SAFETY: reads the `uplo` side of rows `tri` and all of rows `rect`
        // of the m × k view `v`, and the upper triangle of the k × k view
        // `t`; writes `tri_dense` (tri.len() × k), columns `tri` and `rect`
        // of the k × m buffer `vt`, and the two k × k halves of `scratch.t`.
        unsafe {
            let (v, vt) = (v.as_ptr(), vt.as_mut_ptr());
            let tri_dense = tri_dense.as_mut_ptr();
            expand_trap::<E>(uplo, v.add(tri.start), ldv, tri.len(), k, tri_dense);
            E::transpose(tri.len(), k, tri_dense, tri.len(), vt.add(tri.start * k), k);
            E::transpose(
                rect.len(),
                k,
                v.add(rect.start),
                ldv,
                vt.add(rect.start * k),
                k,
            );
            match trans {
                Trans::NoTrans => {
                    expand_trap::<E>(UpLo::Upper, t.as_ptr(), ldt, k, k, op_t.as_mut_ptr())
                }
                Trans::Trans => {
                    expand_trap::<E>(UpLo::Upper, t.as_ptr(), ldt, k, k, t_dense.as_mut_ptr());
                    E::transpose(k, k, t_dense.as_ptr(), k, op_t.as_mut_ptr(), k);
                }
            }
        }

        let tri_piece = Piece {
            v: tri_dense.as_ptr(),
            ldv: tri.len(),
            rows: tri,
        };
        let rect_piece = Piece {
            // SAFETY: row `rect.start ≤ m` of the view.
            v: unsafe { v.as_ptr().add(rect.start) },
            ldv,
            rows: rect,
        };
        // Ascending rows of V: the order the products fold in.
        let pieces = if tri_piece.rows.start == 0 {
            [tri_piece, rect_piece]
        } else {
            [rect_piece, tri_piece]
        };

        let (vt, op_t) = (vt.as_ptr(), op_t.as_ptr());
        let (w, tw) = grown(&mut scratch.strip, 2 * k * TILE_N).split_at_mut(k * TILE_N);
        for j0 in (0..n).step_by(TILE_N) {
            let cols = TILE_N.min(n - j0);
            ahead.aim(j0 + TILE_N);
            // SAFETY: columns j0 .. j0 + cols of `c` and `top`, rows
            // `p.rows` of `c` and the same rows of `vt`; `op_t` is k × k;
            // `w`, `tw` are k × 8. A product's destination (`w`, `tw`, `c`)
            // overlaps none of its inputs: `c` and `top` are `&mut` borrows,
            // disjoint from `v` and from each other.
            unsafe {
                let (w, tw) = (w.as_mut_ptr(), tw.as_mut_ptr());
                let cj = c.add(j0 * ldc);
                // W = A + Vᵀ·C (or 0 + Vᵀ·C), piece by piece. A piece without
                // rows is skipped, not folded: `x + 0·1` would turn a `−0.0`
                // into `+0.0`, and the composed path skipped it too.
                let (mut w_src, mut w_ld) = match &top {
                    Some((a, lda)) => (a.as_ptr().add(j0 * lda), *lda),
                    None => (std::ptr::null(), 0),
                };
                for p in pieces.iter().filter(|p| !p.rows.is_empty()) {
                    let (vt_p, c_p) = (vt.add(p.rows.start * k), cj.add(p.rows.start));
                    let depth = p.rows.len();
                    strip_product::<E>(
                        k, cols, depth, 1.0, vt_p, k, c_p, ldc, w_src, w_ld, w, k, &mut ahead,
                    );
                    (w_src, w_ld) = (w, k);
                }
                if w_src != w.cast_const() {
                    // V has no rows at all: W is its initial value.
                    for j in 0..cols {
                        for i in 0..k {
                            *w.add(i + j * k) = if w_src.is_null() {
                                0.0
                            } else {
                                *w_src.add(i + j * w_ld)
                            };
                        }
                    }
                }
                // TW = 0 + op(T)·W.
                strip_product::<E>(
                    k,
                    cols,
                    k,
                    1.0,
                    op_t,
                    k,
                    w,
                    k,
                    std::ptr::null(),
                    0,
                    tw,
                    k,
                    &mut ahead,
                );
                // C −= V·TW, row block by row block.
                for p in &pieces {
                    let (rows, c_p) = (p.rows.len(), cj.add(p.rows.start));
                    strip_product::<E>(
                        rows, cols, k, -1.0, p.v, p.ldv, tw, k, c_p, ldc, c_p, ldc, &mut ahead,
                    );
                }
            }
            ahead.flush::<E>();
            // A −= TW.
            if let Some((a, lda)) = &mut top {
                for (aj, twj) in a[j0 * *lda..].chunks_mut(*lda).zip(tw.chunks_exact(k)) {
                    for (av, wv) in aj[..k].iter_mut().zip(twj) {
                        *av -= wv;
                    }
                }
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
/// `W = V1ᵀ C1 + V2ᵀ C2`, `TW = op(T) W`, `C2 −= V2 TW`, `C1 −= V1 TW`, one
/// 8-column strip of `C` at a time ([`Block::apply`]). `cold` names the rows
/// of `c` this kernel call has not touched before ([`Block::cold`]).
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
    cold: Range<usize>,
) {
    if k == 0 || n == 0 {
        return;
    }
    Block {
        trans,
        m,
        k,
        n,
        v,
        ldv,
        uplo: UpLo::Lower,
        tri: 0..k,
        t,
        ldt,
        top: None,
        c,
        ldc,
        cold,
    }
    .apply();
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
/// Each block column is factored where it lies and its `T` written straight
/// into the factor.
pub fn geqrt(a: &mut Mat, ib: usize) -> TFactor {
    let _attr = Attribution::new(KernelClass::Geqrt);
    let (m, n) = a.dims();
    let k = m.min(n);
    let ib = ib.clamp(1, k.max(1));
    let mut tf = TFactor::new(ib, k);
    let mut i = 0;
    while i < k {
        let ibb = ib.min(k - i);
        // The block column a[i.., i..i+ibb] and the columns right of it,
        // both as views from row i.
        let (panel, trailing) = split_columns(&mut a.as_mut_slice()[i + i * m..], ibb, m);
        let taus = geqr2(m - i, ibb, panel, m);
        larft(
            m - i,
            ibb,
            panel,
            m,
            &taus,
            &mut tf.t.as_mut_slice()[i * ib..],
            ib,
        );
        // Update the trailing columns a[i.., i+ibb..n] in place.
        if i + ibb < n {
            larfb_left(
                Trans::Trans,
                m - i,
                ibb,
                n - i - ibb,
                panel,
                m,
                &tf.t.as_slice()[i * ib..],
                ib,
                trailing,
                m,
                // The first block sweeps every trailing column; the later
                // ones find them in cache.
                0..if i == 0 { m } else { 0 },
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
    // A block works on rows `i..m` of `c`; rows from `seen` on have been met.
    let mut seen = m;
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
            0..seen.saturating_sub(i),
        );
        seen = seen.min(i);
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
    t.fill(0.0);
    tpqrt2_views(
        l,
        m,
        n,
        a.as_mut_slice(),
        n,
        b.as_mut_slice(),
        m,
        t.as_mut_slice(),
        n,
    );
}

/// [`tpqrt2`] on strided views: `a` is `n × n`, `b` is `m × n`, and `t` is
/// `n × n` whose strictly upper part must be zero on entry (a column whose
/// `tau` is zero is left as it is).
#[allow(clippy::too_many_arguments)]
fn tpqrt2_views(
    l: usize,
    m: usize,
    n: usize,
    a: &mut [f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
    t: &mut [f64],
    ldt: usize,
) {
    let mut taus = vec![0.0f64; n];
    let mut flops = 0u64;

    for j in 0..n {
        let p = pent_rows(m, l, j);
        // Column j ends `head`; column c > j starts `(c − j)·ldb − m` into
        // `tail`.
        let (head, tail) = b.split_at_mut(j * ldb + m);
        let vj = &mut head[j * ldb..][..p];
        // Reflector from [A(j,j); B(0..p, j)].
        let alpha = a[j + j * lda];
        let (beta, tau) = larfg(alpha, vj);
        a[j + j * lda] = beta;
        taus[j] = tau;
        if tau == 0.0 {
            continue;
        }
        // Apply to the remaining columns c > j of [A; B].
        for c in j + 1..n {
            let bc = &mut tail[(c - j) * ldb - m..][..p];
            let w = a[j + c * lda] + dot(vj, bc);
            a[j + c * lda] -= tau * w;
            axpy(-tau * w, vj, bc);
            flops += 4 * (p + 1) as u64;
        }
    }

    // Build T: T(0..j, j) = -tau_j * T(0..j, 0..j) * (V2(:,0..j)^T v2_j)
    // (the identity top parts contribute nothing across columns).
    for j in 0..n {
        let tau = taus[j];
        if tau != 0.0 {
            let pj = pent_rows(m, l, j);
            for i in 0..j {
                let pi = pent_rows(m, l, i).min(pj);
                let s = dot(&b[i * ldb..][..pi], &b[j * ldb..][..pi]);
                t[i + j * ldt] = -tau * s;
                flops += 2 * pi as u64;
            }
            flops += t_column_finish(t, ldt, j);
        }
        t[j + j * ldt] = tau;
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
/// `W = A + V₂ᵀ B`, `TW = op(T) W`, `A −= TW`, `B −= V₂ TW`, one 8-column
/// strip of `[A; B]` at a time ([`Block::apply`]); a TS block (`lb = 0`) has
/// no trapezoid and expands none. `cold` names the rows of `b` this kernel
/// call has not touched before ([`Block::cold`]).
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
    cold: Range<usize>,
) {
    if k == 0 || n == 0 {
        return;
    }
    Block {
        trans,
        m: mb,
        k,
        n,
        v,
        ldv,
        uplo: UpLo::Upper,
        tri: mb - lb..mb,
        t,
        ldt,
        top: Some((a, lda)),
        c: b,
        ldc: ldb,
        cold,
    }
    .apply();
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
/// exit; `b` (m×n) holds the `V₂` reflectors on exit. Each block is factored
/// where it lies and its `T` written straight into the factor.
pub fn tpqrt(l: usize, a: &mut Mat, b: &mut Mat, ib: usize) -> TFactor {
    let _attr = Attribution::new(KernelClass::Tpqrt);
    let (m, n) = b.dims();
    assert_eq!(a.dims(), (n, n));
    assert!(l <= m.min(n));
    let ib = ib.clamp(1, n.max(1));
    let mut tf = TFactor::new(ib, n);

    // A block works on rows `0..mb` of `b`; rows below `seen` have been met.
    let mut seen = 0;
    let mut i = 0;
    while i < n {
        let ibb = ib.min(n - i);
        let (mb, lb) = pent_block(m, l, i, ibb);
        // [A(i..i+ibb, i..i+ibb); B(0..mb, i..i+ibb)] and the columns right
        // of it, as views: A's from row i, B's from row 0.
        let (a_blk, a_trailing) = split_columns(&mut a.as_mut_slice()[i + i * n..], ibb, n);
        let (b_blk, b_trailing) = split_columns(&mut b.as_mut_slice()[i * m..], ibb, m);
        tpqrt2_views(
            lb,
            mb,
            ibb,
            a_blk,
            n,
            b_blk,
            m,
            &mut tf.t.as_mut_slice()[i * ib..],
            ib,
        );
        // Update the remaining columns in place:
        // [A(i..i+ibb, i+ibb..n); B(0..mb, i+ibb..n)].
        if i + ibb < n {
            tprfb_left(
                Trans::Trans,
                lb,
                mb,
                ibb,
                n - i - ibb,
                b_blk,
                m,
                &tf.t.as_slice()[i * ib..],
                ib,
                a_trailing,
                n,
                b_trailing,
                m,
                seen.min(mb)..mb,
            );
            seen = seen.max(mb);
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
    // A block works on rows `0..mb` of `b`; rows below `seen` have been met.
    let mut seen = 0;
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
            seen.min(mb)..mb,
        );
        seen = seen.max(mb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{gemm, Trans};

    /// The composition of whole-matrix engine calls that [`Block::apply`]
    /// replaced, kept as its bitwise oracle: per block a copy of `W`, five to
    /// seven [`gemm_strided`] products over `k × n` work matrices, a subtract
    /// pass. Same signatures as the appliers of the parent module.
    mod composed {
        use crate::blas::{Trans, UpLo};
        use crate::gemm_kernel::gemm_strided;

        /// Expand `op(P)` into `dense` (column-major, zero-padded): the scalar
        /// expansion the composed path ran, independent of the engine's.
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
            dense: &mut [f64],
        ) {
            assert_eq!(dense.len(), pr * pc);
            let ldd = match trans {
                Trans::NoTrans => pr,
                Trans::Trans => pc,
            };
            dense.fill(0.0);
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

        fn expanded(
            uplo: UpLo,
            trans: Trans,
            p: &[f64],
            ldp: usize,
            pr: usize,
            pc: usize,
        ) -> Vec<f64> {
            let mut dense = vec![0.0; pr * pc];
            expand_trap(uplo, trans, p, ldp, pr, pc, &mut dense);
            dense
        }

        #[allow(clippy::too_many_arguments)]
        pub fn larfb_left(
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
            let (mut w, mut tw) = (vec![0.0; k * n], vec![0.0; k * n]);
            // W = V1ᵀ C1 + V2ᵀ C2.
            let tri = expanded(UpLo::Lower, Trans::Trans, v, ldv, k, k);
            gemm_strided(k, n, k, 1.0, &tri, 1, k, c, 1, ldc, &mut w, k);
            gemm_strided(k, n, m2, 1.0, v2, ldv, 1, &c[k..], 1, ldc, &mut w, k);
            // TW = op(T) W.
            let tri = expanded(UpLo::Upper, trans, t, ldt, k, k);
            gemm_strided(k, n, k, 1.0, &tri, 1, k, &w, 1, k, &mut tw, k);
            // C2 −= V2 TW, C1 −= V1 TW.
            gemm_strided(m2, n, k, -1.0, v2, 1, ldv, &tw, 1, k, &mut c[k..], ldc);
            let tri = expanded(UpLo::Lower, Trans::NoTrans, v, ldv, k, k);
            gemm_strided(k, n, k, -1.0, &tri, 1, k, &tw, 1, k, c, ldc);
        }

        #[allow(clippy::too_many_arguments)]
        pub fn tprfb_left(
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
            // W = A + V₂ᵀ B: the full rows, then the trapezoid.
            let mut w = Vec::with_capacity(k * n);
            for col in 0..n {
                w.extend_from_slice(&a[col * lda..][..k]);
            }
            gemm_strided(k, n, mr, 1.0, v, ldv, 1, b, 1, ldb, &mut w, k);
            let tri = expanded(UpLo::Upper, Trans::Trans, v_trap, ldv, lb, k);
            gemm_strided(k, n, lb, 1.0, &tri, 1, k, &b[mr..], 1, ldb, &mut w, k);
            // TW = op(T) W.
            let mut tw = vec![0.0; k * n];
            let tri = expanded(UpLo::Upper, trans, t, ldt, k, k);
            gemm_strided(k, n, k, 1.0, &tri, 1, k, &w, 1, k, &mut tw, k);
            // A −= TW, B −= V₂ TW.
            for col in 0..n {
                for (av, wv) in a[col * lda..][..k].iter_mut().zip(&tw[col * k..][..k]) {
                    *av -= wv;
                }
            }
            gemm_strided(mr, n, k, -1.0, v, 1, ldv, &tw, 1, k, b, ldb);
            let tri = expanded(UpLo::Upper, Trans::NoTrans, v_trap, ldv, lb, k);
            gemm_strided(lb, n, k, -1.0, &tri, 1, lb, &tw, 1, k, &mut b[mr..], ldb);
        }
    }

    /// [`unmqr`] over the composed applier.
    fn unmqr_composed(trans: Trans, v_src: &Mat, tf: &TFactor, c: &mut Mat) {
        let (m, nv) = v_src.dims();
        let (k, ib, n) = (m.min(nv), tf.ib, c.cols());
        for i in block_starts(trans, k, ib) {
            composed::larfb_left(
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

    /// [`tpmqrt`] over the composed applier.
    fn tpmqrt_composed(trans: Trans, l: usize, v: &Mat, tf: &TFactor, a: &mut Mat, b: &mut Mat) {
        let (m, k) = v.dims();
        let (ib, w) = (tf.ib, a.cols());
        for i in block_starts(trans, k, ib) {
            let ibb = ib.min(k - i);
            let (mb, lb) = pent_block(m, l, i, ibb);
            composed::tprfb_left(
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

    /// The composed path runs on whatever engine [`gemm_strided`] picks; it
    /// is the applier's bitwise twin wherever that engine fuses its
    /// multiply-adds (the direct AVX-512 path, the AVX2+FMA microkernel —
    /// `α = ±1` scales exactly and the oracle shapes stay under one `KC`
    /// panel), which the unfused scalar microkernel does not.
    fn engine_is_fused() -> bool {
        #[cfg(target_arch = "x86_64")]
        return avx2_fma_available();
        #[allow(unreachable_code)]
        false
    }

    /// A `T` factor of random upper triangles, NaN wherever an applier must
    /// not look: below each block's diagonal and past a short last block.
    fn random_tfactor(ib: usize, k: usize, seed: u64) -> TFactor {
        let vals = Mat::random(ib, k, seed);
        let t = Mat::from_fn(ib, k, |r, c| {
            if r <= c % ib {
                0.25 * vals[(r, c)]
            } else {
                f64::NAN
            }
        });
        TFactor { ib, t }
    }

    fn assert_bitwise(what: &str, got: &Mat, want: &Mat) {
        assert_eq!(got.dims(), want.dims());
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits(),
                "{what}: entry {i} is {g:e}, the composed path gives {w:e}"
            );
        }
    }

    const ORACLE_IBS: [usize; 6] = [3, 5, 8, 16, 32, 48];
    const ORACLE_WIDTHS: [usize; 6] = [1, 7, 8, 9, 17, 96];
    /// Zero rows is the degenerate block whose `W` is just `A`.
    const ORACLE_ROWS: [usize; 7] = [0, 1, 9, 16, 23, 96, 100];
    /// Reflector counts: one under a vector, one that gives every `ib` a
    /// short last block (61 = 3·16 + 13 = 32 + 29 = 48 + 13).
    const ORACLE_REFLECTORS: [usize; 2] = [7, 61];

    /// TSMQR / TTMQR / partial pentagons: the one-pass applier gives the
    /// composed path's bits, with everything outside the pentagon poisoned.
    #[test]
    fn tpmqrt_is_bitwise_the_composed_path() {
        if !engine_is_fused() {
            eprintln!("skipped: the engine of this host does not fuse multiply-adds");
            return;
        }
        for m in ORACLE_ROWS {
            for k in ORACLE_REFLECTORS {
                let full = m.min(k);
                for l in [0, full / 2, full] {
                    let vals = Mat::random(m, k, (m * 131 + k) as u64);
                    let v = Mat::from_fn(m, k, |i, j| {
                        if i < pent_rows(m, l, j) {
                            0.25 * vals[(i, j)]
                        } else {
                            f64::NAN
                        }
                    });
                    for ib in ORACLE_IBS {
                        let tf = random_tfactor(ib.min(k), k, ib as u64);
                        for w in ORACLE_WIDTHS {
                            let a0 = Mat::random(k, w, 7);
                            let b0 = Mat::random(m, w, 8);
                            for trans in [Trans::Trans, Trans::NoTrans] {
                                let (mut a, mut b) = (a0.clone(), b0.clone());
                                tpmqrt(trans, l, &v, &tf, &mut a, &mut b);
                                let (mut a_ref, mut b_ref) = (a0.clone(), b0.clone());
                                tpmqrt_composed(trans, l, &v, &tf, &mut a_ref, &mut b_ref);
                                let what = format!("m={m} k={k} l={l} ib={ib} w={w} {trans:?}");
                                assert!(a_ref.all_finite() && b_ref.all_finite(), "{what}");
                                assert_bitwise(&format!("{what}, top"), &a, &a_ref);
                                assert_bitwise(&format!("{what}, bottom"), &b, &b_ref);
                            }
                        }
                    }
                }
            }
        }
    }

    /// UNMQR on GEQRT storage: the one-pass applier gives the composed
    /// path's bits, with `R` (diagonal included) poisoned.
    #[test]
    fn unmqr_is_bitwise_the_composed_path() {
        if !engine_is_fused() {
            eprintln!("skipped: the engine of this host does not fuse multiply-adds");
            return;
        }
        for m in ORACLE_ROWS {
            for nv in ORACLE_REFLECTORS {
                let k = m.min(nv);
                if k == 0 {
                    continue; // no reflectors, no T factor to draw
                }
                let vals = Mat::random(m, nv, (m * 137 + nv) as u64);
                let v = Mat::from_fn(
                    m,
                    nv,
                    |i, j| {
                        if i > j {
                            0.25 * vals[(i, j)]
                        } else {
                            f64::NAN
                        }
                    },
                );
                for ib in ORACLE_IBS {
                    let tf = random_tfactor(ib.min(k), k, ib as u64);
                    for w in ORACLE_WIDTHS {
                        let c0 = Mat::random(m, w, 9);
                        for trans in [Trans::Trans, Trans::NoTrans] {
                            let mut c = c0.clone();
                            unmqr(trans, &v, &tf, &mut c);
                            let mut c_ref = c0.clone();
                            unmqr_composed(trans, &v, &tf, &mut c_ref);
                            let what = format!("m={m} nv={nv} ib={ib} w={w} {trans:?}");
                            assert!(c_ref.all_finite(), "{what}");
                            assert_bitwise(&what, &c, &c_ref);
                        }
                    }
                }
            }
        }
    }

    /// An address is not an input of the arithmetic: through their strided
    /// view entry points both appliers give the bits of the aligned call for
    /// every base offset of `V` (and `T`), of the top tile and of `C` within
    /// a cache line — with and without a trapezoid, with rows enough to
    /// prefetch a strip ahead and too few to — each view ending exactly
    /// where its allocation ends, so a vector access or a dereferenced
    /// look-ahead past an operand would be out of bounds.
    #[test]
    fn results_do_not_depend_on_alignment() {
        // The same `len` entries behind `off` entries of one buffer.
        let at = |off: usize, len: usize, seed: u64| -> Vec<f64> {
            let vals = Mat::random(len, 1, seed);
            let view = vals.as_slice().iter().map(|x| 0.25 * x);
            std::iter::repeat_n(f64::NAN, off).chain(view).collect()
        };
        // (rows of V and C, trapezoid rows, reflectors, columns of C)
        for (m, lb, k, n) in [(40, 0, 16, 19), (40, 16, 16, 8), (21, 5, 7, 9)] {
            let (ldv, ldt, lda, ldc) = (m + 3, k + 1, k + 2, m + 5);
            let v_len = (k - 1) * ldv + m;
            let t_len = (k - 1) * ldt + k;
            let a_len = (n - 1) * lda + k;
            let c_len = (n - 1) * ldc + m;
            for trans in [Trans::Trans, Trans::NoTrans] {
                let mut want: Option<[Vec<f64>; 3]> = None;
                for ov in 0..8 {
                    let (v, t) = (at(ov, v_len, 1), at(ov, t_len, 2));
                    for oa in 0..8 {
                        for oc in 0..8 {
                            let (mut a, mut c) = (at(oa, a_len, 3), at(oc, c_len, 4));
                            let mut c2 = c.clone();
                            let (v, t) = (&v[ov..], &t[ov..]);
                            tprfb_left(
                                trans,
                                lb,
                                m,
                                k,
                                n,
                                v,
                                ldv,
                                t,
                                ldt,
                                &mut a[oa..],
                                lda,
                                &mut c[oc..],
                                ldc,
                                0..m,
                            );
                            larfb_left(trans, m, k, n, v, ldv, t, ldt, &mut c2[oc..], ldc, 0..m);
                            let got = [a.split_off(oa), c.split_off(oc), c2.split_off(oc)];
                            let want = want.get_or_insert_with(|| got.clone());
                            assert!(
                                got.iter()
                                    .zip(want.iter())
                                    .all(|(g, w)| crate::same_bits(g, w)),
                                "m={m} lb={lb} k={k} n={n} {trans:?}: offsets {ov}, {oa}, {oc}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The copy-free panels: `geqrt` and `tpqrt` factor each block where it
    /// lies. Factoring a copy of the block column (its own leading
    /// dimension), updating the rest with the composed applier and copying
    /// back — what the kernels did before — gives the same bits.
    #[test]
    fn blocked_factorizations_are_bitwise_the_block_copy_form() {
        if !engine_is_fused() {
            eprintln!("skipped: the engine of this host does not fuse multiply-adds");
            return;
        }
        for (m, n, ib) in [(23, 23, 5), (40, 17, 16), (17, 40, 8), (96, 96, 16)] {
            let a0 = Mat::random(m, n, (m + n) as u64);
            let mut a = a0.clone();
            let tf = geqrt(&mut a, ib);

            let (mut a_ref, k) = (a0.clone(), m.min(n));
            let ib = ib.clamp(1, k);
            let mut tf_ref = TFactor::new(ib, k);
            for i in (0..k).step_by(ib) {
                let ibb = ib.min(k - i);
                let mut blk = a_ref.sub(i, i, m - i, ibb);
                let taus = geqr2(m - i, ibb, blk.as_mut_slice(), m - i);
                let mut tblk = Mat::zeros(ibb, ibb);
                larft(
                    m - i,
                    ibb,
                    blk.as_slice(),
                    m - i,
                    &taus,
                    tblk.as_mut_slice(),
                    ibb,
                );
                a_ref.set_sub(i, i, &blk);
                tf_ref.t.set_sub(0, i, &tblk);
                composed::larfb_left(
                    Trans::Trans,
                    m - i,
                    ibb,
                    n - i - ibb,
                    blk.as_slice(),
                    m - i,
                    tblk.as_slice(),
                    ibb,
                    &mut a_ref.as_mut_slice()[i + ((i + ibb) * m).min(m * n - i)..],
                    m,
                );
            }
            assert_bitwise(&format!("geqrt {m}x{n} ib={ib}, V and R"), &a, &a_ref);
            assert_bitwise(&format!("geqrt {m}x{n} ib={ib}, T"), &tf.t, &tf_ref.t);
        }

        for (m, n, l, ib) in [
            (23, 17, 0, 5),
            (17, 17, 17, 8),
            (30, 20, 9, 16),
            (96, 96, 0, 16),
        ] {
            let r0 = Mat::random(n, n, 3).upper_triangular();
            let b0 = Mat::from_fn(m, n, |i, j| {
                if i < pent_rows(m, l, j) {
                    (i as f64 - 1.5 * j as f64).sin()
                } else {
                    f64::NAN
                }
            });
            let (mut r, mut b) = (r0.clone(), b0.clone());
            let tf = tpqrt(l, &mut r, &mut b, ib);

            let (mut r_ref, mut b_ref) = (r0.clone(), b0.clone());
            let mut tf_ref = TFactor::new(ib, n);
            for i in (0..n).step_by(ib) {
                let ibb = ib.min(n - i);
                let (mb, lb) = pent_block(m, l, i, ibb);
                let mut ablk = r_ref.sub(i, i, ibb, ibb);
                let mut bblk = b_ref.sub(0, i, mb, ibb);
                let mut tblk = Mat::zeros(ibb, ibb);
                tpqrt2(lb, &mut ablk, &mut bblk, &mut tblk);
                r_ref.set_sub(i, i, &ablk);
                b_ref.set_sub(0, i, &bblk);
                tf_ref.t.set_sub(0, i, &tblk);
                composed::tprfb_left(
                    Trans::Trans,
                    lb,
                    mb,
                    ibb,
                    n - i - ibb,
                    bblk.as_slice(),
                    mb,
                    tblk.as_slice(),
                    ibb,
                    &mut r_ref.as_mut_slice()[i + ((i + ibb) * n).min(n * n - i)..],
                    n,
                    &mut b_ref.as_mut_slice()[(i + ibb) * m..],
                    m,
                );
            }
            assert_bitwise(&format!("tpqrt {m}x{n} l={l} ib={ib}, R"), &r, &r_ref);
            assert_bitwise(&format!("tpqrt {m}x{n} l={l} ib={ib}, T"), &tf.t, &tf_ref.t);
            // V₂ keeps the poison below the trapezoid, bit for bit too.
            assert_bitwise(&format!("tpqrt {m}x{n} l={l} ib={ib}, V₂"), &b, &b_ref);
        }
    }

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
