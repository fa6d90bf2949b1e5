//! The GEMM engines: a packed, register-tiled microkernel
//! (GotoBLAS/BLIS-style) and a direct register tile for tile-sized products.
//!
//! This is the single inner engine behind [`crate::blas::gemm`], the blocked
//! large-triangle path of [`crate::blas::trsm`], the Schur update of the LU
//! panel and the QR block-reflector applier. It implements the accumulation
//!
//! ```text
//! C += alpha * op(A) * op(B)
//! ```
//!
//! on raw column-major storage with arbitrary row/column strides for the
//! inputs (transposition is folded into the strides).
//!
//! # Which shapes run where
//!
//! [`gemm_strided`] picks an engine from the shape and the CPU, never from
//! the values:
//!
//! * **the direct tile** — with AVX-512F, a column-major `B` (`b_rs == 1`)
//!   and `m·n·k ≤ 10⁶` (`DIRECT_MAX_MNK`): every product between tiles up
//!   to nb = 100, which is everything the factorizations run at the
//!   benchmark's nb = 16 and nb = 96 — the trailing-matrix GEMM, the
//!   updates inside the blocked TRSM, the LU panel's Schur update (cut into
//!   row chunks under the bound, `crate::lu`). `B` and `C` are read in
//!   place, and so is an untransposed `A`; a transposed `A` is first
//!   gathered into the A pack buffer, `1/n` of the work the packed path
//!   would spend repacking `B`. One `16 × 8` register tile per block of `C`
//!   (section "The shared register tile");
//! * **the packed path** — everything else: a row-strided (transposed) `B`,
//!   a larger product (nb = 240 tiles, the dense products of tests and
//!   tools), or a host without AVX-512F, where it is the only GEMM. Its
//!   `8 × 6` microkernel is explicit AVX2+FMA when the CPU has it and an
//!   autovectorized scalar loop otherwise, and only it splits across
//!   threads (`set_kernel_threads`).
//!
//! The QR applier (`crate::qr`) does not go through `gemm_strided` at all:
//! it runs the register tile directly, in the AVX-512, AVX2+FMA or portable
//! body its own CPUID dispatch selects.
//!
//! # Blocking structure and parameters of the packed path
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
//! ## Tuning the packed path
//!
//! These parameters shape the packed path only; the direct tile is `16 × 8`
//! because sixteen zmm accumulators plus two vectors of `A` and one
//! broadcast fill the AVX-512 register file, and has no cache blocking to
//! tune — its operands are tiles.
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
//! To retune, time a product that takes this path (nb = 240 in
//! `kernel_rates`, or any shape on a host without AVX-512F;
//! `kernels.gemm_gflops` of the benchmark's traced pass times nb ≤ 96 and
//! so sees the direct tile) and adjust: raise
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
//! On x86_64 the packed path's explicit AVX2+FMA microkernel is used when
//! available — unconditionally when compiled with
//! `target-feature=+avx2,+fma`, else via a one-time cached CPUID probe.
//!
//! # The shared register tile
//!
//! The direct path's inner loop — a `16 × 8` tile of `C` in sixteen zmm
//! accumulators, one FMA chain per entry over ascending depth, one fold into
//! the destination — is a primitive of its own, `TileEngine::tile`, with
//! an explicit AVX-512 body, an explicit AVX2+FMA body and a portable
//! `f64::mul_add` body that agree bitwise. `gemm_direct_avx512` is a loop
//! of such tiles over `C`; the QR block-reflector applier (`crate::qr`)
//! runs its three products per 8-column strip on the same tile, which is
//! both why it runs at the GEMM's rate and why its results are those of the
//! engine calls it replaced. The trait also carries the two data movements
//! the applier needs at vector width: a block transpose and a zero-padded
//! column window.
//!
//! # Memory
//!
//! Inside a run a tile kernel meets tiles it has not touched for megabytes:
//! the trailing matrix of a step streams through the caches once per step.
//! The chain hides the streams it *reads as it goes* — `A` is reused by
//! every tile of a block row, `B` arrives in ascending addresses the
//! hardware prefetcher follows — but not the block it **folds into**: the
//! tile touches `src` only after its whole chain (96 deep at nb = 96,
//! ≈ 770 cycles), far beyond the out-of-order window, so left alone each
//! `16 × 8` block of `C` pays its miss exposed, 72 times per GEMM (measured
//! without the prefetch: 32 µs per GEMM in a run against 21 µs hot). So the
//! SIMD bodies of `TileEngine::tile` prefetch the
//! lines of `src` *before* the depth loop (as the BLIS microkernels prefetch
//! their `C` block), full and masked tiles alike, and the applier, whose
//! strip of `C` is a `B` operand *inside* the chain, prefetches one strip
//! ahead (`crate::qr`). Three rules:
//!
//! * **gated on depth, an observable of the call** (`PREFETCH_MIN_DEPTH`):
//!   a chain must be long enough to cover a miss, and at 16 deep (nb = 16
//!   tiles, every `ib`-deep product) the operands are L1/L2-resident and
//!   the prefetches would only cost issue slots — unconditionally they cost
//!   the nb = 16 workload 0 … 3 %;
//! * **never an input**: a prefetch reads nothing architecturally, so no
//!   result, decision or hash can depend on it, and `Portable` issues none;
//! * **never a dereference**: the lines are those overlapping the block,
//!   whatever its alignment, found by rounding addresses down — a line can
//!   start before the operand and a look-ahead strip can lie past it — so
//!   every such address is formed with `wrapping_add`/`wrapping_sub`, which
//!   unlike `ptr::add` may leave the allocation, and is handed only to the
//!   prefetch instruction, which faults on nothing.
//!
//! The other half is alignment: every `Mat` and every workspace of this
//! crate starts on a cache line (`crate::mat`), so with a row count that is
//! a multiple of eight no vector of a tile straddles two lines. A foreign,
//! misaligned slice is as correct, one line per column slower.
//!
//! # Determinism across machines
//!
//! FMA contracts each multiply-add into one
//! rounding, so results differ between the SIMD and scalar kernels (and
//! therefore across machines); the selection is fixed per process, keeping
//! every within-run comparison deterministic. Numerical acceptance is
//! specified as a componentwise backward-error bound (see `tests/src/lib.rs`
//! in the workspace), never bitwise against a foreign build or machine.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::mat::AlignedBuf;

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
/// packed, never a thread-count-dependent mix. A caller with a tall skinny
/// product (the LU panel's Schur update) cuts its rows into chunks under the
/// bound to stay on the direct tile, which changes no entry's chain.
pub(crate) const DIRECT_MAX_MNK: usize = 1_000_000;

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
    /// Cache-line aligned like a tile (`crate::mat`), so a gathered `A`
    /// panel is read in whole lines.
    static PACK_BUFS: RefCell<(AlignedBuf, AlignedBuf)> =
        const { RefCell::new((AlignedBuf::new(), AlignedBuf::new())) };
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
                    apack.reset_zeroed(m * k);
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
            apack.reset_zeroed(a_len);
        }
        if bpack.len() < b_len {
            bpack.reset_zeroed(b_len);
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
pub(crate) fn avx512f_available() -> bool {
    use std::sync::OnceLock;
    static OK: OnceLock<bool> = OnceLock::new();
    *OK.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// Rows of the direct engine's register tile: two 8-lane vectors.
pub(crate) const TILE_M: usize = 16;
/// Columns of the direct engine's register tile.
pub(crate) const TILE_N: usize = 8;

/// Chain length from which a tile, or a sweep over strips of such tiles,
/// prefetches what it will touch next (module docs, "Memory"): the chain
/// must be long enough to cover a miss, and at 16 deep (nb = 16 tiles, every
/// `ib`-deep product) the operands are L1/L2-resident anyway.
pub(crate) const PREFETCH_MIN_DEPTH: usize = 32;

/// Prefetch every cache line of the `rows × cols` column-major block at `p`
/// (leading dimension `ld`) into L1. Safe for any `p`, live or not: no
/// address formed here is dereferenced.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn prefetch_block(p: *const f64, ld: usize, rows: usize, cols: usize) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    const LINE: usize = 64;
    for j in 0..cols {
        let col = p.wrapping_add(j * ld).cast::<i8>();
        // A column that does not start on a line spills into one more.
        let skew = col.addr() % LINE;
        let first = col.wrapping_sub(skew);
        for line in 0..(skew + rows * 8).div_ceil(LINE) {
            // SAFETY: PREFETCHT0 is a hint of baseline x86-64 (SSE): it
            // reads nothing architecturally and faults on no address, so the
            // pointer — formed with wrapping arithmetic, possibly past its
            // operand — need not be dereferenceable.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(line * LINE)) };
        }
    }
}

/// The register tile of the direct engine, the one arithmetic primitive
/// under [`gemm_strided`]'s direct path and under the QR block-reflector
/// applier (`crate::qr`), in three bodies: explicit AVX-512 ([`Avx512`]),
/// explicit AVX2+FMA ([`Avx2`]) and `f64::mul_add` loops ([`Portable`]).
///
/// The bodies are `#[inline(always)]` and carry no `target_feature`
/// themselves: a driver is written once, generic over `TileEngine`, and
/// instantiated inside a `#[target_feature]` wrapper chosen by the cached
/// CPUID probes, the way [`microkernel`] is — so the whole driver, not only
/// the tile, is compiled for the ISA it runs on.
///
/// **What every entry sees** — the contract the bitwise guarantees of this
/// crate rest on: `D(i, j)` becomes `fma(acc, alpha, S(i, j))`, where `acc`
/// starts at `+0.0` and takes `fma(A(i, p), B(p, j), acc)` for
/// `p = 0, 1, …, depth − 1` in that order. One chain per entry, no partial
/// sums, one fold. How a caller cuts its rows and columns into tiles
/// therefore never changes a result, and neither does the choice of body.
pub(crate) trait TileEngine {
    /// `D[0..rows, 0..cols] ← S + alpha · A · B` with `A` `rows × depth`
    /// column-major (`a[i + p·lda]`), `B` `depth × cols` (`b[p + j·ldb]`),
    /// the addend `S` (`src[i + j·lds]`) and the destination `D`
    /// (`dst[i + j·ldd]`) column-major; `rows ≤ TILE_M`, `cols ≤ TILE_N`.
    /// `src == dst` is the in-place `C += alpha·A·B`; a null `src` stands
    /// for a block of `+0.0`.
    ///
    /// # Safety
    /// Every address named above must be inside a live allocation, `D` must
    /// not overlap `A` or `B` nor — unless it *is* `S` — `S`, and the CPU
    /// must support the body's ISA.
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile(
        rows: usize,
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
    );

    /// `out[c + r·ldo] ← v[r + c·ldv]` for `r < rows`, `c < cols`: the
    /// transpose of a column-major block, which is how the applier turns the
    /// rows of a reflector block into the `A` operand of `Vᵀ·C`.
    ///
    /// # Safety
    /// As [`TileEngine::tile`]: every address read or written must be live,
    /// `out` must not overlap `v`.
    unsafe fn transpose(
        rows: usize,
        cols: usize,
        v: *const f64,
        ldv: usize,
        out: *mut f64,
        ldo: usize,
    );

    /// `dst[i] ← src[i]` for `lo ≤ i < hi`, `dst[i] ← +0.0` for every other
    /// `i < n`: a column of a zero-padded operand that keeps one window of
    /// its source. Entries of `src` outside the window are never read.
    ///
    /// # Safety
    /// `lo ≤ hi ≤ n`; `src[lo..hi]` and `dst[0..n]` must be live and must
    /// not overlap.
    unsafe fn column_window(src: *const f64, lo: usize, hi: usize, n: usize, dst: *mut f64);

    /// Hint that the `rows × cols` column-major block at `p` (leading
    /// dimension `ld`) is about to be used. Never an input of a result and
    /// never a memory access: `p` may point anywhere, a body may do nothing
    /// ([`Portable`] does).
    #[inline(always)]
    fn prefetch(_p: *const f64, _ld: usize, _rows: usize, _cols: usize) {}
}

/// The `f64::mul_add` body of the tile: correct wherever Rust runs and fused
/// like the SIMD bodies, so all three agree bitwise. It is the whole engine
/// where no SIMD body applies, and the edge handler of [`Avx2`].
pub(crate) struct Portable;

impl TileEngine for Portable {
    #[inline(always)]
    unsafe fn tile(
        rows: usize,
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
    ) {
        debug_assert!(rows <= TILE_M && cols <= TILE_N);
        let mut acc = [[0.0f64; TILE_M]; TILE_N];
        // SAFETY: the caller vouches for every address formed here.
        unsafe {
            for p in 0..depth {
                let col = a.add(p * lda);
                for (j, accj) in acc.iter_mut().enumerate().take(cols) {
                    let bj = *b.add(p + j * ldb);
                    for (i, x) in accj.iter_mut().enumerate().take(rows) {
                        *x = (*col.add(i)).mul_add(bj, *x);
                    }
                }
            }
            for (j, accj) in acc.iter().enumerate().take(cols) {
                for (i, x) in accj.iter().enumerate().take(rows) {
                    let s = if src.is_null() {
                        0.0
                    } else {
                        *src.add(i + j * lds)
                    };
                    *dst.add(i + j * ldd) = x.mul_add(alpha, s);
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn transpose(
        rows: usize,
        cols: usize,
        v: *const f64,
        ldv: usize,
        out: *mut f64,
        ldo: usize,
    ) {
        // SAFETY: the caller vouches for every address formed here.
        unsafe {
            for r in 0..rows {
                for c in 0..cols {
                    *out.add(c + r * ldo) = *v.add(r + c * ldv);
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn column_window(src: *const f64, lo: usize, hi: usize, n: usize, dst: *mut f64) {
        // SAFETY: the caller vouches for `src[lo..hi]` and `dst[0..n]`.
        unsafe {
            for i in 0..n {
                *dst.add(i) = if lo <= i && i < hi { *src.add(i) } else { 0.0 };
            }
        }
    }
}

/// The explicit AVX2+FMA body of the tile, for x86-64 hosts without AVX-512.
/// It walks the tile in `8 × 4` quarters — which the contract allows, an
/// entry's chain does not know its neighbours — because that is what sixteen
/// 4-lane registers hold (eight accumulators, two vectors of `A`, one
/// broadcast). Edge quarters, the transpose and the column window are
/// [`Portable`]'s, compiled with FMA enabled by the instantiating wrapper.
#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx2;

#[cfg(target_arch = "x86_64")]
impl TileEngine for Avx2 {
    #[inline(always)]
    unsafe fn tile(
        rows: usize,
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
    ) {
        use std::arch::x86_64::*;
        const QM: usize = 8;
        const QN: usize = 4;
        debug_assert!(rows <= TILE_M && cols <= TILE_N);
        // As in the AVX-512 body: the lines every quarter will fold into,
        // before the first chain.
        if depth >= PREFETCH_MIN_DEPTH && !src.is_null() {
            Self::prefetch(src, lds, rows, cols);
        }
        for j0 in (0..cols).step_by(QN) {
            for i0 in (0..rows).step_by(QM) {
                let (qm, qn) = (QM.min(rows - i0), QN.min(cols - j0));
                // SAFETY: the caller vouches for every address of the tile
                // and for AVX2+FMA; this quarter is its rows i0 .. i0 + qm,
                // columns j0 .. j0 + qn.
                unsafe {
                    let (a, b) = (a.add(i0), b.add(j0 * ldb));
                    let s = if src.is_null() {
                        src
                    } else {
                        src.add(i0 + j0 * lds)
                    };
                    let d = dst.add(i0 + j0 * ldd);
                    if qm < QM || qn < QN {
                        Portable::tile(qm, qn, depth, alpha, a, lda, b, ldb, s, lds, d, ldd);
                        continue;
                    }
                    let mut lo = [_mm256_setzero_pd(); QN];
                    let mut hi = [_mm256_setzero_pd(); QN];
                    for p in 0..depth {
                        let col = a.add(p * lda);
                        let (a0, a1) = (_mm256_loadu_pd(col), _mm256_loadu_pd(col.add(4)));
                        for j in 0..QN {
                            let bj = _mm256_set1_pd(*b.add(p + j * ldb));
                            lo[j] = _mm256_fmadd_pd(a0, bj, lo[j]);
                            hi[j] = _mm256_fmadd_pd(a1, bj, hi[j]);
                        }
                    }
                    let alpha_v = _mm256_set1_pd(alpha);
                    for j in 0..QN {
                        let (s0, s1) = if s.is_null() {
                            (_mm256_setzero_pd(), _mm256_setzero_pd())
                        } else {
                            let sj = s.add(j * lds);
                            (_mm256_loadu_pd(sj), _mm256_loadu_pd(sj.add(4)))
                        };
                        let dj = d.add(j * ldd);
                        _mm256_storeu_pd(dj, _mm256_fmadd_pd(lo[j], alpha_v, s0));
                        _mm256_storeu_pd(dj.add(4), _mm256_fmadd_pd(hi[j], alpha_v, s1));
                    }
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn transpose(
        rows: usize,
        cols: usize,
        v: *const f64,
        ldv: usize,
        out: *mut f64,
        ldo: usize,
    ) {
        // SAFETY: the caller's.
        unsafe { Portable::transpose(rows, cols, v, ldv, out, ldo) }
    }

    #[inline(always)]
    unsafe fn column_window(src: *const f64, lo: usize, hi: usize, n: usize, dst: *mut f64) {
        // SAFETY: the caller's.
        unsafe { Portable::column_window(src, lo, hi, n, dst) }
    }

    #[inline(always)]
    fn prefetch(p: *const f64, ld: usize, rows: usize, cols: usize) {
        prefetch_block(p, ld, rows, cols);
    }
}

/// The explicit AVX-512 body of the tile: sixteen accumulator registers
/// (two zmm row vectors × eight columns), one broadcast per `B` element;
/// row and column fringes use masked loads and stores, so every shape stays
/// on the vector path and masked lanes are never touched.
#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx512;

/// The low `n` lanes of an 8-lane mask (`n ≥ 8` gives all eight).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lanes(n: usize) -> u8 {
    if n >= 8 {
        0xff
    } else {
        (1u8 << n) - 1
    }
}

#[cfg(target_arch = "x86_64")]
impl TileEngine for Avx512 {
    #[inline(always)]
    unsafe fn tile(
        rows: usize,
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
    ) {
        use std::arch::x86_64::*;
        debug_assert!(rows <= TILE_M && cols <= TILE_N);
        // The fold reads `src` only after the whole chain, far past the
        // out-of-order window: ask for its lines now (module docs, "Memory").
        if depth >= PREFETCH_MIN_DEPTH && !src.is_null() {
            Self::prefetch(src, lds, rows, cols);
        }
        // SAFETY: the caller vouches for the addresses and for AVX-512F;
        // lanes past `rows` are masked out of every load and store.
        unsafe {
            let alpha_v = _mm512_set1_pd(alpha);
            let mut lo = [_mm512_setzero_pd(); TILE_N];
            let mut hi = [_mm512_setzero_pd(); TILE_N];
            if rows == TILE_M && cols == TILE_N {
                // Hot tile: constant-trip loops, all accumulators in
                // registers.
                for p in 0..depth {
                    let col = a.add(p * lda);
                    let a0 = _mm512_loadu_pd(col);
                    let a1 = _mm512_loadu_pd(col.add(8));
                    let brow = b.add(p);
                    for j in 0..TILE_N {
                        let bj = _mm512_set1_pd(*brow.add(j * ldb));
                        lo[j] = _mm512_fmadd_pd(a0, bj, lo[j]);
                        hi[j] = _mm512_fmadd_pd(a1, bj, hi[j]);
                    }
                }
                for j in 0..TILE_N {
                    let (s0, s1) = if src.is_null() {
                        (_mm512_setzero_pd(), _mm512_setzero_pd())
                    } else {
                        let sj = src.add(j * lds);
                        (_mm512_loadu_pd(sj), _mm512_loadu_pd(sj.add(8)))
                    };
                    let dj = dst.add(j * ldd);
                    _mm512_storeu_pd(dj, _mm512_fmadd_pd(lo[j], alpha_v, s0));
                    _mm512_storeu_pd(dj.add(8), _mm512_fmadd_pd(hi[j], alpha_v, s1));
                }
            } else {
                // Fringe tile: masked rows and/or a short column strip.
                let mlo: __mmask8 = lanes(rows);
                let mhi: __mmask8 = lanes(rows.saturating_sub(8));
                for p in 0..depth {
                    let col = a.add(p * lda);
                    let a0 = _mm512_maskz_loadu_pd(mlo, col);
                    let a1 = if mhi != 0 {
                        _mm512_maskz_loadu_pd(mhi, col.add(8))
                    } else {
                        _mm512_setzero_pd()
                    };
                    let brow = b.add(p);
                    for (j, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate().take(cols) {
                        let bj = _mm512_set1_pd(*brow.add(j * ldb));
                        *l = _mm512_fmadd_pd(a0, bj, *l);
                        *h = _mm512_fmadd_pd(a1, bj, *h);
                    }
                }
                for j in 0..cols {
                    let zero = _mm512_setzero_pd();
                    let (sj, dj) = (src.wrapping_add(j * lds), dst.add(j * ldd));
                    let s0 = if src.is_null() {
                        zero
                    } else {
                        _mm512_maskz_loadu_pd(mlo, sj)
                    };
                    _mm512_mask_storeu_pd(dj, mlo, _mm512_fmadd_pd(lo[j], alpha_v, s0));
                    if mhi != 0 {
                        let s1 = if src.is_null() {
                            zero
                        } else {
                            _mm512_maskz_loadu_pd(mhi, sj.add(8))
                        };
                        _mm512_mask_storeu_pd(dj.add(8), mhi, _mm512_fmadd_pd(hi[j], alpha_v, s1));
                    }
                }
            }
        }
    }

    /// Full 8 × 8 blocks take no shuffle-network: 128-bit lane inserts
    /// straight from memory (load ports, not the shuffle port) gather rows
    /// `2s, 2s + 1` of the even columns into one vector and of the odd
    /// columns into another, and one unpack pair interleaves them into two
    /// finished rows. Edge blocks are [`Portable`]'s.
    #[inline(always)]
    unsafe fn transpose(
        rows: usize,
        cols: usize,
        v: *const f64,
        ldv: usize,
        out: *mut f64,
        ldo: usize,
    ) {
        use std::arch::x86_64::*;
        // SAFETY: the caller vouches for the addresses and for AVX-512F; a
        // full block reads v[r0 .. r0 + 8] of eight columns and writes
        // out[c0 .. c0 + 8] of eight rows, an edge block only its entries.
        unsafe {
            // Lanes q = 0..4 ← the two doubles at `p + q · step`.
            let gather = |p: *const f64, step: usize| {
                let lane = |q: usize| _mm_castpd_ps(_mm_loadu_pd(p.add(q * step)));
                let x = _mm512_castps128_ps512(lane(0));
                let x = _mm512_insertf32x4::<1>(x, lane(1));
                let x = _mm512_insertf32x4::<2>(x, lane(2));
                _mm512_castps_pd(_mm512_insertf32x4::<3>(x, lane(3)))
            };
            for c0 in (0..cols).step_by(8) {
                let cc = 8.min(cols - c0);
                for r0 in (0..rows).step_by(8) {
                    let rr = 8.min(rows - r0);
                    let (src, dst) = (v.add(r0 + c0 * ldv), out.add(c0 + r0 * ldo));
                    if rr == 8 && cc == 8 {
                        for s in 0..4 {
                            let even = gather(src.add(2 * s), 2 * ldv);
                            let odd = gather(src.add(2 * s + ldv), 2 * ldv);
                            let row = dst.add(2 * s * ldo);
                            _mm512_storeu_pd(row, _mm512_unpacklo_pd(even, odd));
                            _mm512_storeu_pd(row.add(ldo), _mm512_unpackhi_pd(even, odd));
                        }
                    } else {
                        Portable::transpose(rr, cc, src, ldv, dst, ldo);
                    }
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn column_window(src: *const f64, lo: usize, hi: usize, n: usize, dst: *mut f64) {
        use std::arch::x86_64::*;
        // SAFETY: the caller vouches for `src[lo..hi]` and `dst[0..n]`;
        // lanes outside the window are masked out of the load (a masked
        // lane touches no memory) and lanes past `n` out of the store.
        unsafe {
            for i0 in (0..n).step_by(8) {
                // Lanes i0 + b with lo ≤ i0 + b < hi.
                let window = lanes(hi.saturating_sub(i0)) & !lanes(lo.saturating_sub(i0));
                let x = _mm512_maskz_loadu_pd(window, src.wrapping_add(i0));
                _mm512_mask_storeu_pd(dst.add(i0), lanes(n - i0), x);
            }
        }
    }

    #[inline(always)]
    fn prefetch(p: *const f64, ld: usize, rows: usize, cols: usize) {
        prefetch_block(p, ld, rows, cols);
    }
}

/// Direct (unpacked) AVX-512 driver for small untransposed products:
/// `C += alpha * A * B` with both operands read in place from column-major
/// storage, one [`TileEngine::tile`] per `16 × 8` block of `C`. Each
/// `C(i, j)` accumulates its `k` products in ascending order through one FMA
/// chain — the same per-element order as the packed microkernel, and
/// deterministic for a fixed build.
///
/// # Safety
/// Caller must ensure the CPU supports AVX-512F and that the slices cover
/// the declared shapes.
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
    let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    let mut i0 = 0;
    while i0 < m {
        let rows = TILE_M.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let cols = TILE_N.min(n - j0);
            // SAFETY: all pointer arithmetic stays inside the operand
            // slices — column p of this tile's A spans a[p*lda+i0 ..][..rows],
            // its B entries are b[p + (j0+j)*ldb], its C columns
            // c[i0 + (j0+j)*ldc ..][..rows]; `c` is a `&mut` borrow, so it
            // overlaps neither input.
            unsafe {
                let ct = cp.add(i0 + j0 * ldc);
                let (at, bt) = (ap.add(i0), bp.add(j0 * ldb));
                Avx512::tile(rows, cols, k, alpha, at, lda, bt, ldb, ct, ldc, ct, ldc);
            }
            j0 += cols;
        }
        i0 += rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::same_bits;

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

    /// The three bodies of the register tile — and of the transpose and the
    /// column window beside it — agree bit for bit on full and masked
    /// shapes, so the AVX2 and the portable body are tested on an AVX-512
    /// host although they never run there.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tile_bodies_agree_bitwise() {
        if !(avx512f_available() && avx2_fma_available()) {
            eprintln!("skipped: this host lacks AVX-512F or AVX2+FMA");
            return;
        }
        #[target_feature(enable = "avx512f,avx2,fma")]
        unsafe fn run(body: usize, what: usize, args: &Args, out: &mut [f64]) {
            // SAFETY: the caller sized every buffer for `args`.
            unsafe {
                match body {
                    0 => drive::<Portable>(what, args, out),
                    1 => drive::<Avx2>(what, args, out),
                    _ => drive::<Avx512>(what, args, out),
                }
            }
        }
        struct Args<'a> {
            rows: usize,
            cols: usize,
            depth: usize,
            alpha: f64,
            a: &'a [f64],
            b: &'a [f64],
            src: Option<&'a [f64]>,
            ld: usize,
        }
        #[inline(always)]
        unsafe fn drive<E: TileEngine>(what: usize, x: &Args, out: &mut [f64]) {
            // SAFETY: as `run`.
            unsafe {
                match what {
                    0 => {
                        let src = x.src.map_or(std::ptr::null(), |s| s.as_ptr());
                        let (a, b, d) = (x.a.as_ptr(), x.b.as_ptr(), out.as_mut_ptr());
                        let (m, n, k) = (x.rows, x.cols, x.depth);
                        E::tile(m, n, k, x.alpha, a, x.ld, b, x.ld, src, x.ld, d, x.ld)
                    }
                    1 => E::transpose(x.rows, x.cols, x.a.as_ptr(), x.ld, out.as_mut_ptr(), x.ld),
                    _ => E::column_window(x.a.as_ptr(), x.depth, x.cols, x.rows, out.as_mut_ptr()),
                }
            }
        }
        let ld = 19; // ≥ every dimension used below
        let same = |what: usize, args: &Args, init: &[f64]| {
            let mut outs = [init.to_vec(), init.to_vec(), init.to_vec()];
            for (body, out) in outs.iter_mut().enumerate() {
                // SAFETY: the ISAs were probed; every operand holds ld × ld
                // entries and no dimension exceeds ld.
                unsafe { run(body, what, args, out) };
            }
            let [p, rest @ ..] = outs;
            for (body, v) in rest.iter().enumerate() {
                assert!(
                    p.iter().zip(v).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "primitive {what}, SIMD body {body}: rows={} cols={} depth={} src={}",
                    args.rows,
                    args.cols,
                    args.depth,
                    args.src.is_some()
                );
            }
            p
        };
        let (a, b, c) = (
            filled(ld * ld, 21),
            filled(ld * ld, 22),
            filled(ld * ld, 23),
        );
        for rows in [1, 7, 8, 9, 15, 16] {
            for cols in [1, 5, 8] {
                for depth in [0, 1, 16, 19] {
                    for src in [None, Some(&c[..])] {
                        let args = Args {
                            rows,
                            cols,
                            depth,
                            alpha: -1.0,
                            a: &a,
                            b: &b,
                            src,
                            ld,
                        };
                        let out = same(0, &args, &c);
                        // Entries outside the tile are left alone.
                        for (i, (o, c0)) in out.iter().zip(&c).enumerate() {
                            let inside = i % ld < rows && i / ld < cols;
                            assert!(
                                inside || o.to_bits() == c0.to_bits(),
                                "tile wrote entry {i}"
                            );
                        }
                    }
                }
            }
        }
        for rows in [1, 8, 9, 16, 19] {
            for cols in [1, 3, 8, 16, 19] {
                let args = Args {
                    rows,
                    cols,
                    depth: 0,
                    alpha: 0.0,
                    a: &a,
                    b: &b,
                    src: None,
                    ld,
                };
                let out = same(1, &args, &c);
                for r in 0..rows {
                    for col in 0..cols {
                        assert_eq!(out[col + r * ld], a[r + col * ld]);
                    }
                }
            }
        }
        for n in [1, 8, 9, 16, 19] {
            for (lo, hi) in [(0, 0), (0, n), (n / 2, n), (1.min(n), n / 2 + 1), (n, n)] {
                let args = Args {
                    rows: n,
                    cols: hi,
                    depth: lo,
                    alpha: 0.0,
                    a: &a,
                    b: &b,
                    src: None,
                    ld,
                };
                let out = same(2, &args, &c);
                for (i, o) in out.iter().enumerate().take(n) {
                    let want = if lo <= i && i < hi { a[i] } else { 0.0 };
                    assert_eq!(
                        o.to_bits(),
                        want.to_bits(),
                        "window [{lo}, {hi}) of {n}, entry {i}"
                    );
                }
            }
        }
    }

    /// An address is not an input of the arithmetic: every base offset of
    /// `A`, `B` and `C` within a cache line gives the bits of the aligned
    /// call — on full and masked tiles, chains long enough to prefetch and
    /// too short to, `A` in place and gathered — with each operand ending
    /// exactly where its allocation ends, so a vector load, a masked lane or
    /// a dereferenced look-ahead past an operand would be out of bounds.
    #[test]
    fn results_do_not_depend_on_alignment() {
        for &(m, n, k, trans_a) in &[
            (37, 21, 40, false),
            (16, 8, 33, false),
            (19, 9, 7, false),
            (33, 10, 64, true),
        ] {
            let (a_rs, a_cs) = if trans_a { (k, 1) } else { (1, m) };
            let (a0, b0, c0) = (filled(m * k, 31), filled(k * n, 32), filled(m * n, 33));
            // The operand at the end of a buffer it shares with `off`
            // leading entries.
            let at = |off: usize, x: &[f64]| [&filled(off, 34)[..], x].concat();
            let mut want = c0.clone();
            gemm_strided(m, n, k, -1.0, &a0, a_rs, a_cs, &b0, 1, k, &mut want, m);
            for oa in 0..8 {
                let a = at(oa, &a0);
                for ob in 0..8 {
                    let b = at(ob, &b0);
                    for oc in 0..8 {
                        let mut c = at(oc, &c0);
                        let (a, b, c_view) = (&a[oa..], &b[ob..], &mut c[oc..]);
                        gemm_strided(m, n, k, -1.0, a, a_rs, a_cs, b, 1, k, c_view, m);
                        assert!(
                            same_bits(&c[oc..], &want) && same_bits(&c[..oc], &filled(oc, 34)),
                            "m={m} n={n} k={k} ta={trans_a}: offsets {oa}, {ob}, {oc}"
                        );
                    }
                }
            }
        }
    }

    /// What lets a caller cut a product to stay on the direct tile (the LU
    /// panel's Schur update): for `alpha = ±1` and one `KC` panel of depth
    /// the direct and the packed engine give the same bits. Both run one FMA
    /// chain per entry over ascending depth from `+0.0`; the packed one
    /// folds `alpha` into `A` and adds, the direct one folds by
    /// `fma(acc, alpha, c)`, and negation is exact — `Σ fma(−a, b, ·)` then
    /// `c + acc` is `Σ fma(a, b, ·)` then `fma(acc, −1, c)`. (The one
    /// exception is the sign of a zero: where the chain is exactly `0` and
    /// `c` is `−0.0`, the direct fold keeps `−0.0` and the packed one gives
    /// `+0.0`; no such entry is drawn here.)
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn direct_and_packed_agree_bitwise_for_unit_alpha() {
        if !(avx512f_available() && avx2_fma_available()) {
            eprintln!(
                "skipped: needs the direct (AVX-512F) and the fused packed (AVX2+FMA) engine"
            );
            return;
        }
        for &(m, n, k) in &[
            (1, 1, 1),
            (7, 3, 5),
            (17, 9, 8),
            (130, 88, 8),
            (100, 35, 60),
            (96, 96, 96),
            (33, 50, KC),
        ] {
            assert!(m * n * k <= DIRECT_MAX_MNK && k <= KC);
            for trans_a in [false, true] {
                let (a_rs, a_cs) = if trans_a { (k, 1) } else { (1, m) };
                let (a, b, c0) = (filled(m * k, 41), filled(k * n, 42), filled(m * n, 43));
                for alpha in [1.0, -1.0] {
                    let (mut direct, mut packed) = (c0.clone(), c0.clone());
                    gemm_strided(m, n, k, alpha, &a, a_rs, a_cs, &b, 1, k, &mut direct, m);
                    gemm_serial(m, n, k, alpha, &a, a_rs, a_cs, &b, 1, k, &mut packed, m);
                    assert!(
                        same_bits(&direct, &packed),
                        "m={m} n={n} k={k} ta={trans_a} alpha={alpha}"
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
