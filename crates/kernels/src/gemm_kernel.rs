//! Packed, register-tiled GEMM microkernel (GotoBLAS/BLIS-style).
//!
//! This is the single inner engine behind [`crate::blas::gemm`], the blocked
//! large-triangle path of [`crate::blas::trsm`], and the GEMM-shaped parts of
//! the QR trailing updates. It implements the accumulation
//!
//! ```text
//! C += alpha * op(A) * op(B)
//! ```
//!
//! on raw column-major storage with arbitrary row/column strides for the
//! inputs (transposition is folded into the strides, so all four transpose
//! combinations share one code path and one set of packing routines).
//!
//! # Blocking structure and parameters
//!
//! The classic three-loop cache blocking around a register-tile microkernel:
//!
//! * the operands are processed in `NC`-column × `KC`-depth panels of `B`
//!   and `MC`-row × `KC`-depth panels of `A`;
//! * each panel is **packed** into a contiguous buffer — `A` into `MR`-row
//!   strips (`alpha` is folded in during packing), `B` into `NR`-column
//!   strips — so the innermost loop reads both operands with stride 1
//!   regardless of the caller's layout;
//! * the microkernel computes an `MR × NR` tile of `C` held entirely in
//!   registers, accumulating over one `KC` panel depth per call.
//!
//! Fringe tiles are zero-padded in the packed buffers, so one microkernel
//! serves every problem shape; the padded lanes are discarded when the
//! accumulator is written back, and contribute exactly zero arithmetic to
//! the real entries of `C` (flop accounting stays the textbook `2 m n k` —
//! see `crate::flops`; note this module reports **no** flops itself, its
//! callers do).
//!
//! ## Tuning
//!
//! * `MR × NR` is the register tile: `MR * NR + MR + NR` f64 values must fit
//!   in the vector register file. 8×6 uses fifteen of the sixteen 256-bit
//!   vectors on AVX2 (12 accumulators + 2 A lanes + 1 broadcast) and
//!   autovectorizes to 4 lanes/vector on SSE2; 8×4 benched ~10% slower at
//!   the `nb = 48` tile size, 8×8 spills.
//! * `KC` sizes the packed panels: one `MR`-strip of A (`MR * KC * 8` bytes)
//!   plus one `NR`-strip of B should sit in L1 alongside the C tile;
//!   `MC × KC` of packed A should fill roughly half of L2.
//! * `NC` bounds the packed-B panel (`KC * NC * 8` bytes) to a fraction of
//!   L3; on these tile sizes (`nb ≤ 480`) it mostly just caps buffer size.
//!
//! To retune, read `kernels.gemm_gflops` from the benchmark's traced pass
//! (`benchmark/README.md`) and adjust: raise
//! `MR`/`NR` until the compiler starts spilling accumulators (visible as a
//! sharp GFLOP/s drop), then grow `KC` until L1 misses dominate, then `MC`
//! against L2.
//!
//! # Determinism
//!
//! For a fixed build, the result is a pure function of the operand values
//! and shapes: the `k`-dimension is always traversed in `KC`-blocks in
//! ascending order and each `C(i, j)` accumulates its partial sums in the
//! same order regardless of how the `m`/`n` dimensions are blocked **or
//! split across threads** (row/column grouping never changes the order of
//! additions into a given `C` entry). The multi-threaded path below splits
//! only the `n` dimension, so any thread count produces bitwise-identical
//! results — the executor-level determinism tests rely on this.
//!
//! On x86_64 an explicit AVX2+FMA microkernel is used when available —
//! unconditionally when compiled with `target-feature=+avx2,+fma`, else via
//! a one-time cached CPUID probe. Small products whose `B` is column-major
//! additionally take a direct AVX-512 path when AVX-512F is present: `B` and
//! `C` are read in place, and so is an untransposed `A`; a transposed `A` —
//! the skinny `Vᵀ·C` of the QR block reflectors, only `ib` rows deep — is
//! gathered into the A pack buffer first, which is `1/n` of the work the
//! packed path would spend repacking `B`. FMA contracts each multiply-add into one
//! rounding, so results differ between the SIMD and scalar kernels (and
//! therefore across machines); the selection is fixed per process, keeping
//! every within-run comparison deterministic. Numerical acceptance is
//! specified as a componentwise backward-error bound (see `tests/src/lib.rs`
//! in the workspace), never bitwise against a foreign build or machine.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows of the register tile.
pub const MR: usize = 8;
/// Columns of the register tile.
pub const NR: usize = 6;
/// Row-panel height of packed A (multiple of `MR`).
pub const MC: usize = 96;
/// Depth of the packed panels.
pub const KC: usize = 256;
/// Column-panel width of packed B (multiple of `NR`).
pub const NC: usize = 512;

/// Minimum flops (`2 m n k`) per spawned thread before the parallel path
/// engages; below this, thread spawn/join overhead beats the speedup.
const PAR_CHUNK_FLOPS: u64 = 1_000_000;

/// Largest `m * n * k` routed to the direct (unpacked) kernel. Below this
/// the operands sit in L1/L2 anyway and packing is pure overhead — at the
/// `nb = 48` tile size the direct kernel saves ~25% wall time. The bound
/// also keeps the direct path strictly below the parallel-split threshold
/// (`2 m n k < 2 * PAR_CHUNK_FLOPS`), so a call is either direct-serial or
/// packed, never a thread-count-dependent mix.
const DIRECT_MAX_MNK: usize = 1_000_000;

/// Worker-thread budget for large GEMM calls (set from
/// `FactorOptions::threads` by the factorization drivers; default 1).
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Set the thread budget used by [`gemm_strided`] for large products.
/// Process-global; results are bitwise-independent of this value.
pub fn set_kernel_threads(n: usize) {
    KERNEL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Current kernel thread budget.
pub fn kernel_threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed).max(1)
}

thread_local! {
    /// Reusable packing buffers (A-panel, B-panel) — tile kernels call GEMM
    /// thousands of times per factorization; this avoids a malloc per call.
    static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `C += alpha * op(A) * op(B)` on raw column-major storage.
///
/// * `op(A)` is `m × k`, read as `a[i * a_rs + p * a_cs]`;
/// * `op(B)` is `k × n`, read as `b[p * b_rs + c * b_cs]`;
/// * `C` is `m × n` column-major with leading dimension `ldc`
///   (`c[i + j * ldc]`).
///
/// A transposed operand is expressed by swapping its strides; a sub-block by
/// offsetting the slice. Reports no flops — callers account `2 m n k` (or
/// fold it into their own kernel's closed form).
#[allow(clippy::too_many_arguments)]
pub fn gemm_strided(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    b: &[f64],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f64],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    // Small products with a column-major B skip the packed path: the AVX-512
    // direct kernel reads B and C in place, and A too when it is untransposed.
    // A strided (transposed) A — the skinny `Vᵀ·C` product of the QR block
    // reflectors, `m = ib` rows deep — is first gathered into the A pack
    // buffer: `m·k` copies against `2·m·n·k` flops, where the packed path
    // would also repack all of B (a whole tile per `ib`-block). Row-strided B
    // and large products fall through to the packed path.
    #[cfg(target_arch = "x86_64")]
    if b_rs == 1 && m * n * k <= DIRECT_MAX_MNK && avx512f_available() {
        assert!(
            a.len() > (m - 1) * a_rs + (k - 1) * a_cs
                && b.len() > (k - 1) + (n - 1) * b_cs
                && c.len() > (m - 1) + (n - 1) * ldc,
            "gemm_strided: operand slice shorter than its declared shape"
        );
        if a_rs == 1 {
            // SAFETY: AVX-512F was verified via CPUID; the assert above
            // bounds every element the kernel addresses.
            unsafe { gemm_direct_avx512(m, n, k, alpha, a, a_cs, b, b_cs, c, ldc) };
        } else {
            PACK_BUFS.with(|bufs| {
                let apack = &mut bufs.borrow_mut().0;
                if apack.len() < m * k {
                    apack.resize(m * k, 0.0);
                }
                for (p, col) in apack.chunks_exact_mut(m).take(k).enumerate() {
                    for (i, x) in col.iter_mut().enumerate() {
                        *x = a[i * a_rs + p * a_cs];
                    }
                }
                // SAFETY: as above, with A now the m×k column-major gather.
                unsafe { gemm_direct_avx512(m, n, k, alpha, apack, m, b, b_cs, c, ldc) };
            });
        }
        return;
    }
    let flops = 2 * (m as u64) * (n as u64) * (k as u64);
    let threads = kernel_threads()
        .min((flops / PAR_CHUNK_FLOPS) as usize)
        .min(n / NR);
    if threads > 1 {
        // Split C's columns into contiguous NR-aligned chunks, one per
        // thread. Columns are contiguous in memory (stride ldc), so the
        // C slice splits cleanly; per-column arithmetic is independent of
        // the grouping, keeping the result bitwise equal to the serial run.
        let per = (n / threads) / NR * NR;
        let mut bounds = Vec::with_capacity(threads + 1);
        bounds.push(0usize);
        for t in 1..threads {
            bounds.push(per * t);
        }
        bounds.push(n);
        std::thread::scope(|s| {
            let mut rest = c;
            let mut taken = 0usize;
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                if hi == lo {
                    continue;
                }
                let want = if hi == n { rest.len() } else { (hi - lo) * ldc };
                let (head, tail) = rest.split_at_mut(want);
                rest = tail;
                debug_assert_eq!(taken, lo * ldc);
                taken += want;
                let b_off = lo * b_cs;
                s.spawn(move || {
                    gemm_serial(
                        m,
                        hi - lo,
                        k,
                        alpha,
                        a,
                        a_rs,
                        a_cs,
                        &b[b_off..],
                        b_rs,
                        b_cs,
                        head,
                        ldc,
                    );
                });
            }
        });
    } else {
        gemm_serial(m, n, k, alpha, a, a_rs, a_cs, b, b_rs, b_cs, c, ldc);
    }
}

/// Single-threaded packed driver: the three cache-blocking loops.
#[allow(clippy::too_many_arguments)]
fn gemm_serial(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    b: &[f64],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f64],
    ldc: usize,
) {
    PACK_BUFS.with(|bufs| {
        let mut bufs = bufs.borrow_mut();
        let (apack, bpack) = &mut *bufs;
        let a_len = round_up(MC.min(m), MR) * KC.min(k);
        let b_len = KC.min(k) * round_up(NC.min(n), NR);
        if apack.len() < a_len {
            apack.resize(a_len, 0.0);
        }
        if bpack.len() < b_len {
            bpack.resize(b_len, 0.0);
        }

        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            let nc_r = round_up(nc, NR);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(&mut bpack[..kc * nc_r], b, b_rs, b_cs, pc, jc, kc, nc);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    let mc_r = round_up(mc, MR);
                    pack_a(
                        &mut apack[..mc_r * kc],
                        a,
                        a_rs,
                        a_cs,
                        ic,
                        pc,
                        mc,
                        kc,
                        alpha,
                    );
                    // Macro kernel: sweep the register tiles of this block.
                    for jr in (0..nc).step_by(NR) {
                        let nr = NR.min(nc - jr);
                        let bp = &bpack[(jr / NR) * kc * NR..][..kc * NR];
                        for ir in (0..mc).step_by(MR) {
                            let mr = MR.min(mc - ir);
                            let ap = &apack[(ir / MR) * kc * MR..][..kc * MR];
                            let acc = microkernel(kc, ap, bp);
                            store_tile(&acc, c, ic + ir, jc + jr, mr, nr, ldc);
                        }
                    }
                }
            }
        }
    });
}

#[inline]
fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Pack the `mc × kc` block of `op(A)` starting at `(ic, pc)` into `MR`-row
/// strips, folding `alpha` in; rows past `mc` within a strip are zeroed.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    buf: &mut [f64],
    a: &[f64],
    a_rs: usize,
    a_cs: usize,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
    alpha: f64,
) {
    let mut out = buf.iter_mut();
    for i0 in (0..mc).step_by(MR) {
        let rows = MR.min(mc - i0);
        for p in 0..kc {
            let base = (ic + i0) * a_rs + (pc + p) * a_cs;
            for r in 0..rows {
                *out.next().unwrap() = alpha * a[base + r * a_rs];
            }
            for _ in rows..MR {
                *out.next().unwrap() = 0.0;
            }
        }
    }
}

/// Pack the `kc × nc` block of `op(B)` starting at `(pc, jc)` into `NR`-col
/// strips; columns past `nc` within a strip are zeroed.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    buf: &mut [f64],
    b: &[f64],
    b_rs: usize,
    b_cs: usize,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
) {
    let mut out = buf.iter_mut();
    for j0 in (0..nc).step_by(NR) {
        let cols = NR.min(nc - j0);
        for p in 0..kc {
            let base = (pc + p) * b_rs + (jc + j0) * b_cs;
            for col in 0..cols {
                *out.next().unwrap() = b[base + col * b_cs];
            }
            for _ in cols..NR {
                *out.next().unwrap() = 0.0;
            }
        }
    }
}

/// Add the (possibly fringe) register tile into `C`.
#[inline]
fn store_tile(
    acc: &[[f64; MR]; NR],
    c: &mut [f64],
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    ldc: usize,
) {
    if mr == MR && nr == NR {
        for (j, accj) in acc.iter().enumerate() {
            let cj = &mut c[i0 + (j0 + j) * ldc..][..MR];
            for (cv, av) in cj.iter_mut().zip(accj) {
                *cv += av;
            }
        }
    } else {
        for (j, accj) in acc.iter().enumerate().take(nr) {
            let cj = &mut c[i0 + (j0 + j) * ldc..][..mr];
            for (cv, av) in cj.iter_mut().zip(accj) {
                *cv += av;
            }
        }
    }
}

/// Microkernel dispatch: the explicit AVX2+FMA kernel when the build enables
/// it (`-C target-feature=+avx2,+fma` / `-C target-cpu=native`), otherwise a
/// one-time CPUID check at runtime on x86_64 (cached; an atomic load per
/// tile), falling back to the autovectorizing scalar kernel. Selection is
/// fixed for the life of the process, so results are deterministic per
/// machine; cross-machine float parity is covered by the backward-error
/// model, never assumed bitwise.
#[inline]
fn microkernel(kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    // Safety: AVX2/FMA are compile-time target features of this build.
    return unsafe { microkernel_avx2(kc, ap, bp) };

    #[cfg(all(
        target_arch = "x86_64",
        not(all(target_feature = "avx2", target_feature = "fma"))
    ))]
    if avx2_fma_available() {
        // Safety: presence of AVX2 and FMA was verified via CPUID.
        return unsafe { microkernel_avx2(kc, ap, bp) };
    }

    #[allow(unreachable_code)]
    microkernel_scalar(kc, ap, bp)
}

/// Cached CPUID probe for AVX2+FMA (constant-true when the build itself
/// already guarantees them). Also consulted by the Level-1 vector kernels
/// in [`crate::blas`].
#[cfg(all(
    target_arch = "x86_64",
    not(all(target_feature = "avx2", target_feature = "fma"))
))]
pub(crate) fn avx2_fma_available() -> bool {
    use std::sync::OnceLock;
    static OK: OnceLock<bool> = OnceLock::new();
    *OK.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// AVX2+FMA are compile-time target features of this build.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
pub(crate) fn avx2_fma_available() -> bool {
    true
}

/// Scalar `MR × NR` microkernel over one packed panel depth: written so each
/// accumulator column is an independent `MR`-lane vector operation — rustc
/// autovectorizes this to SSE2/AVX mul+add chains.
#[inline]
fn microkernel_scalar(kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
    let mut acc = [[0.0f64; MR]; NR];
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (accj, &bj) in acc.iter_mut().zip(bv) {
            for (a, &ai) in accj.iter_mut().zip(av) {
                *a += ai * bj;
            }
        }
    }
    acc
}

/// Explicit AVX2+FMA `MR × NR` (8 × 6) microkernel: 12 accumulator vectors
/// (two ymm per C column), one broadcast per B element, FMA-contracted. FMA
/// rounds once
/// per multiply-add where the scalar kernel rounds twice, so the two kernels
/// differ within the documented backward-error model.
///
/// # Safety
/// Caller must ensure the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
    use std::arch::x86_64::*;
    // Safety: all loads are within the packed panels (kc*MR / kc*NR elems).
    unsafe {
        let mut lo = [_mm256_setzero_pd(); NR];
        let mut hi = [_mm256_setzero_pd(); NR];
        for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
            let a_lo = _mm256_loadu_pd(av.as_ptr());
            let a_hi = _mm256_loadu_pd(av.as_ptr().add(4));
            for j in 0..NR {
                let bj = _mm256_set1_pd(bv[j]);
                lo[j] = _mm256_fmadd_pd(a_lo, bj, lo[j]);
                hi[j] = _mm256_fmadd_pd(a_hi, bj, hi[j]);
            }
        }
        let mut acc = [[0.0f64; MR]; NR];
        for j in 0..NR {
            _mm256_storeu_pd(acc[j].as_mut_ptr(), lo[j]);
            _mm256_storeu_pd(acc[j].as_mut_ptr().add(4), hi[j]);
        }
        acc
    }
}

/// Cached CPUID probe for AVX-512F.
#[cfg(target_arch = "x86_64")]
fn avx512f_available() -> bool {
    use std::sync::OnceLock;
    static OK: OnceLock<bool> = OnceLock::new();
    *OK.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// Direct (unpacked) AVX-512 driver for small untransposed products:
/// `C += alpha * A * B` with both operands read in place from column-major
/// storage. Register tile is `16 × 8` (two zmm row vectors × eight columns,
/// sixteen accumulator registers); row fringes use masked loads/stores, so
/// every shape stays on the vector path. Each `C(i, j)` accumulates its
/// `k` products in ascending order through one FMA chain — the same
/// per-element order as the packed microkernel, and deterministic for a
/// fixed build.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_direct_avx512(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
) {
    use std::arch::x86_64::*;
    const BM: usize = 16;
    const BN: usize = 8;
    // Safety: all pointer arithmetic stays inside the operand slices —
    // column p of A spans a[p*lda .. p*lda+m], of B b[p + j*ldb], of C
    // c[j*ldc .. j*ldc+m]; masked lanes are never touched.
    unsafe {
        let alpha_v = _mm512_set1_pd(alpha);
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let cp = c.as_mut_ptr();
        let mut i0 = 0;
        while i0 < m {
            let rows = BM.min(m - i0);
            let full = rows == BM;
            let mlo: __mmask8 = if rows >= 8 {
                0xff
            } else {
                ((1u16 << rows) - 1) as __mmask8
            };
            let mhi: __mmask8 = if rows > 8 {
                ((1u16 << (rows - 8)) - 1) as __mmask8
            } else {
                0
            };
            let mut j0 = 0;
            while j0 < n {
                let cols = BN.min(n - j0);
                if full && cols == BN {
                    // Hot tile: constant-trip loops, all accumulators in
                    // registers.
                    let mut lo = [_mm512_setzero_pd(); BN];
                    let mut hi = [_mm512_setzero_pd(); BN];
                    for p in 0..k {
                        let col = ap.add(p * lda + i0);
                        let a0 = _mm512_loadu_pd(col);
                        let a1 = _mm512_loadu_pd(col.add(8));
                        let brow = bp.add(p + j0 * ldb);
                        for j in 0..BN {
                            let bj = _mm512_set1_pd(*brow.add(j * ldb));
                            lo[j] = _mm512_fmadd_pd(a0, bj, lo[j]);
                            hi[j] = _mm512_fmadd_pd(a1, bj, hi[j]);
                        }
                    }
                    for j in 0..BN {
                        let cc = cp.add(i0 + (j0 + j) * ldc);
                        let c0 = _mm512_loadu_pd(cc);
                        _mm512_storeu_pd(cc, _mm512_fmadd_pd(lo[j], alpha_v, c0));
                        let c1 = _mm512_loadu_pd(cc.add(8));
                        _mm512_storeu_pd(cc.add(8), _mm512_fmadd_pd(hi[j], alpha_v, c1));
                    }
                } else {
                    // Fringe tile: masked rows and/or a short column strip.
                    let mut lo = [_mm512_setzero_pd(); BN];
                    let mut hi = [_mm512_setzero_pd(); BN];
                    for p in 0..k {
                        let col = ap.add(p * lda + i0);
                        let a0 = _mm512_maskz_loadu_pd(mlo, col);
                        let a1 = if mhi != 0 {
                            _mm512_maskz_loadu_pd(mhi, col.add(8))
                        } else {
                            _mm512_setzero_pd()
                        };
                        let brow = bp.add(p + j0 * ldb);
                        for (j, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate().take(cols) {
                            let bj = _mm512_set1_pd(*brow.add(j * ldb));
                            *l = _mm512_fmadd_pd(a0, bj, *l);
                            *h = _mm512_fmadd_pd(a1, bj, *h);
                        }
                    }
                    for j in 0..cols {
                        let cc = cp.add(i0 + (j0 + j) * ldc);
                        let c0 = _mm512_maskz_loadu_pd(mlo, cc);
                        _mm512_mask_storeu_pd(cc, mlo, _mm512_fmadd_pd(lo[j], alpha_v, c0));
                        if mhi != 0 {
                            let c1 = _mm512_maskz_loadu_pd(mhi, cc.add(8));
                            _mm512_mask_storeu_pd(
                                cc.add(8),
                                mhi,
                                _mm512_fmadd_pd(hi[j], alpha_v, c1),
                            );
                        }
                    }
                }
                j0 += cols;
            }
            i0 += rows;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference on the same strided views.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        a_rs: usize,
        a_cs: usize,
        b: &[f64],
        b_rs: usize,
        b_cs: usize,
        c: &mut [f64],
        ldc: usize,
    ) {
        for j in 0..n {
            for i in 0..m {
                let mut s = 0.0;
                for p in 0..k {
                    s += a[i * a_rs + p * a_cs] * b[p * b_rs + j * b_cs];
                }
                c[i + j * ldc] += alpha * s;
            }
        }
    }

    fn filled(len: usize, seed: u64) -> Vec<f64> {
        // Cheap deterministic fill (xorshift) — avoids pulling Mat in here.
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn strided_matches_reference_over_shapes_and_strides() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (7, 3, 5),
            (8, 4, 16),
            (13, 9, 17),
            (100, 35, 60),
            (130, 300, 150),
        ] {
            for &trans_a in &[false, true] {
                for &trans_b in &[false, true] {
                    let (a_rs, a_cs, lda_len) = if trans_a {
                        (k, 1, m * k)
                    } else {
                        (1, m, m * k)
                    };
                    let (b_rs, b_cs, ldb_len) = if trans_b {
                        (n, 1, k * n)
                    } else {
                        (1, k, k * n)
                    };
                    let a = filled(lda_len, 1);
                    let b = filled(ldb_len, 2);
                    let c0 = filled(m * n, 3);
                    let mut c1 = c0.clone();
                    let mut c2 = c0.clone();
                    gemm_strided(m, n, k, 1.25, &a, a_rs, a_cs, &b, b_rs, b_cs, &mut c1, m);
                    reference(m, n, k, 1.25, &a, a_rs, a_cs, &b, b_rs, b_cs, &mut c2, m);
                    let err = c1
                        .iter()
                        .zip(&c2)
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0f64, f64::max);
                    assert!(
                        err < 1e-10,
                        "m={m} n={n} k={k} ta={trans_a} tb={trans_b}: err {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_split_is_bitwise_equal_to_serial() {
        let (m, n, k) = (160, 240, 180); // big enough to clear the threshold
        let a = filled(m * k, 10);
        let b = filled(k * n, 11);
        let c0 = filled(m * n, 12);

        set_kernel_threads(1);
        let mut c_serial = c0.clone();
        gemm_strided(m, n, k, 1.0, &a, 1, m, &b, 1, k, &mut c_serial, m);

        for threads in [2, 3, 4] {
            set_kernel_threads(threads);
            let mut c_par = c0.clone();
            gemm_strided(m, n, k, 1.0, &a, 1, m, &b, 1, k, &mut c_par, m);
            assert!(
                c_serial
                    .iter()
                    .zip(&c_par)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "threads={threads}: parallel result differs bitwise"
            );
        }
        set_kernel_threads(1);
    }
}
