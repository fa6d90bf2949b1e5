//! Hot-loop and streamed rates of the tile kernels, as fractions of the
//! core's own FMA peak — the numbers a kernel change is sized and checked on
//! before the benchmark's end-to-end run. Hot, the operands stay in cache, so
//! what moves is the kernel's own instruction stream; streamed, every call
//! meets a tile it has not seen for megabytes, the way a kernel meets the
//! trailing matrix inside a run, so the gap between the two columns is what
//! the memory system costs the kernel — read off one table instead of off a
//! trace.
//!
//! Prints, pinned to one CPU:
//!
//! * the measured FMA peak of the core (independent fused multiply-add
//!   chains on full-width vectors);
//! * µs per call, GFlop/s (from the flops the kernel itself reports) and
//!   the fraction of that peak for `gemm`, `trsm`, `getrf`, `geqrt`,
//!   `unmqr`, `tpqrt` (TS, TT) and `tpmqrt` (TS, TT) at nb ∈ {16, 96, 240},
//!   ib = 16. The factor kernels destroy their input, so each call is
//!   preceded by a restore from a template whose separately timed cost is
//!   subtracted;
//! * beside it, µs per call of the same kernel swept once over a pool of
//!   distinct tiles of 8 MB and of 64 MB (larger than L2, and than what L3
//!   keeps for one tenant of a shared host) in the executor's order: the
//!   panel-side operand (`A` of the GEMM, the reflectors) fixed, the
//!   row-side operand (`B`, the top tile of a TSMQR) cycling over one tile
//!   row, the updated tile streaming. The pool is rewritten from a template
//!   before every sweep, untimed, which is also what pushes its first tiles
//!   out of the near caches;
//! * `getrf` on the stacked diagonal domain of a tall panel (1 440 and
//!   2 880 rows of 96 columns), hot;
//! * for the three apply kernels at nb = 16, the per-call intercept and the
//!   per-8-column-strip slope of a least-squares line through
//!   w ∈ {8, 16, 32, 64} — the fixed cost of a call and the cost of one
//!   pass of the block-reflector applier.
//!
//! It prints; it asserts no wall-clock number.
//!
//! ```sh
//! cargo run --release -p luqr-bench --bin kernel_rates [-- --quick]
//! ```

use std::hint::black_box;
use std::time::Instant;

use luqr_bench::Args;
use luqr_kernels::blas::{gemm, trsm, Diag, Side, Trans, UpLo};
use luqr_kernels::flops::measure;
use luqr_kernels::lu::getrf;
use luqr_kernels::qr::{geqrt, tpmqrt, tpqrt, unmqr, TFactor};
use luqr_kernels::Mat;

const IB: usize = 16;

/// How long one timed batch runs, how many batches the minimum is over, how
/// many sweeps of a tile pool the streamed minimum is over and how many
/// tiles of the pool one sweep times (the whole pool is rewritten before
/// each, so even a short sweep meets tiles last touched a pool ago).
#[derive(Clone, Copy)]
struct Budget {
    batch_s: f64,
    batches: usize,
    sweeps: usize,
    sweep_tiles: usize,
}

/// Sizes of the tile pools the streamed columns sweep, in bytes.
const POOLS: [usize; 2] = [8 << 20, 64 << 20];

/// Tiles in one tile row of the trailing matrix: how many distinct row-side
/// operands a streamed sweep cycles through (the benchmark's `lu-dominant`
/// has 30).
const ROW_TILES: usize = 30;

/// Pin the calling thread to the first CPU it is allowed on; `None` when
/// the platform has no such call or it fails (the run goes on, noisier).
#[cfg(target_os = "linux")]
fn pin_to_first_cpu() -> Option<usize> {
    // glibc's affinity calls on a 1024-bit `cpu_set_t`; `pid == 0` is the
    // calling thread.
    type CpuMask = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
    }
    let size = std::mem::size_of::<CpuMask>();
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
    let cpu = word * 64 + bits.trailing_zeros() as usize;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes, only read.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_first_cpu() -> Option<usize> {
    None
}

/// Seconds per call of `f`: the fastest of `batches` batches, each sized
/// from a calibration call to last about `batch_s`. Interference on a shared
/// host only ever adds time, so the minimum is the steadiest estimate of
/// what the instruction stream itself costs.
fn per_call(budget: Budget, mut f: impl FnMut()) -> f64 {
    f(); // warm caches, scratch buffers and the CPUID probes
    let t0 = Instant::now();
    f();
    let one = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((budget.batch_s / one) as usize).clamp(1, 1 << 22);
    (0..budget.batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seconds and self-reported flops of one call of a kernel that updates
/// `state` in place and may be called on its own output.
fn hot<S>(budget: Budget, state: &mut S, call: impl Fn(&mut S)) -> (f64, f64) {
    let ((), counted) = measure(|| call(state));
    let secs = per_call(budget, || call(black_box(state)));
    (secs, counted.total() as f64)
}

/// As [`hot`] for a kernel that destroys its input: every call runs on a
/// restore of `template`, and the restore's own time is subtracted.
fn hot_restored<S: Clone>(
    budget: Budget,
    template: &S,
    restore: impl Fn(&mut S, &S),
    call: impl Fn(&mut S),
) -> (f64, f64) {
    let mut state = template.clone();
    let ((), counted) = measure(|| call(&mut state));
    let both = per_call(budget, || {
        restore(&mut state, template);
        call(black_box(&mut state));
    });
    let copy = per_call(budget, || restore(black_box(&mut state), template));
    ((both - copy).max(0.0), counted.total() as f64)
}

fn copy_mat(dst: &mut Mat, src: &Mat) {
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

/// Peak double-precision FMA rate of this core in GFlop/s, and the vector
/// width it was measured at.
fn fma_peak(budget: Budget) -> (f64, &'static str) {
    const ROUNDS: usize = 4096;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        /// Twelve independent chains of 8-lane FMAs: enough to cover the
        /// latency × throughput product of two FMA ports.
        #[target_feature(enable = "avx512f")]
        unsafe fn rounds(seed: f64) -> f64 {
            use std::arch::x86_64::*;
            let (x, y) = (_mm512_set1_pd(seed), _mm512_set1_pd(0.5));
            let mut acc = [_mm512_set1_pd(1.0); 12];
            for _ in 0..ROUNDS {
                for a in &mut acc {
                    *a = _mm512_fmadd_pd(*a, y, x);
                }
            }
            let mut sum = acc[0];
            for a in &acc[1..] {
                sum = _mm512_add_pd(sum, *a);
            }
            _mm512_reduce_add_pd(sum)
        }
        // SAFETY: AVX-512F was just detected.
        let secs = per_call(budget, || {
            black_box(unsafe { rounds(black_box(1e-3)) });
        });
        return ((ROUNDS * 12 * 8 * 2) as f64 / secs / 1e9, "AVX-512");
    }
    // Portable: sixteen 4-lane chains of `mul_add`; whatever the compiler
    // makes of them on this target is the peak the portable kernels see.
    let secs = per_call(budget, || {
        let (x, y) = (black_box(1e-3), 0.5f64);
        let mut acc = [[1.0f64; 4]; 16];
        for _ in 0..ROUNDS {
            for a in &mut acc {
                for v in a.iter_mut() {
                    *v = v.mul_add(y, x);
                }
            }
        }
        black_box(acc);
    });
    ((ROUNDS * 16 * 4 * 2) as f64 / secs / 1e9, "portable")
}

/// A GEQRT reflector tile with its factor, and TS / TT pentagonal reflector
/// tiles with theirs, all `nb × nb`.
struct Reflectors {
    geqrt: (Mat, TFactor),
    ts: (Mat, TFactor),
    tt: (Mat, TFactor),
    r: Mat,
}

fn reflectors(nb: usize) -> Reflectors {
    let mut v = Mat::random(nb, nb, 5);
    let tf = geqrt(&mut v, IB);
    let r = v.upper_triangular();
    let mut ts = Mat::random(nb, nb, 6);
    let tf_ts = tpqrt(0, &mut r.clone(), &mut ts, IB);
    let mut tt = Mat::random(nb, nb, 7).upper_triangular();
    let tf_tt = tpqrt(nb, &mut r.clone(), &mut tt, IB);
    Reflectors {
        geqrt: (v, tf),
        ts: (ts, tf_ts),
        tt: (tt, tf_tt),
        r,
    }
}

/// The operands the hot and the streamed table time their kernels on: three
/// random `nb × nb` tiles, a well-conditioned upper triangle, an upper
/// triangular bottom tile for the TT factor kernel, and the reflectors.
struct Tiles {
    nb: usize,
    a: Mat,
    b: Mat,
    c: Mat,
    u: Mat,
    tt_bottom: Mat,
    refl: Reflectors,
}

fn tiles(nb: usize) -> Tiles {
    let tile = |s: u64| Mat::random(nb, nb, s);
    let (a, b, c) = (tile(1), tile(2), tile(3));
    let mut u = tile(4).upper_triangular();
    for i in 0..nb {
        u[(i, i)] += nb as f64;
    }
    Tiles {
        nb,
        tt_bottom: b.upper_triangular(),
        refl: reflectors(nb),
        a,
        b,
        c,
        u,
    }
}

/// `(name, seconds, flops)` of the nine kernels on `nb × nb` tiles.
fn tile_rates(tiles: &Tiles, budget: Budget) -> Vec<(&'static str, f64, f64)> {
    let Tiles {
        nb,
        a,
        b,
        c,
        u,
        tt_bottom,
        refl,
    } = tiles;
    let nb = *nb;
    let pair = (a.clone(), c.clone());
    let restore_pair = |dst: &mut (Mat, Mat), src: &(Mat, Mat)| {
        copy_mat(&mut dst.0, &src.0);
        copy_mat(&mut dst.1, &src.1);
    };

    let mut rows = Vec::new();
    let mut put = |name, (secs, flops)| rows.push((name, secs, flops));
    // C −= A·B would grow C without bound over a hot loop; alternate the
    // sign so it stays where it started.
    let sign = std::cell::Cell::new(1.0);
    put(
        "gemm",
        hot(budget, &mut c.clone(), |c| {
            sign.set(-sign.get());
            gemm(Trans::NoTrans, Trans::NoTrans, sign.get(), a, b, 1.0, c)
        }),
    );
    put(
        "trsm",
        hot_restored(budget, b, copy_mat, |b| {
            trsm(
                Side::Right,
                UpLo::Upper,
                Trans::NoTrans,
                Diag::NonUnit,
                1.0,
                u,
                b,
            )
        }),
    );
    put(
        "getrf",
        hot_restored(budget, a, copy_mat, |a| {
            getrf(a).expect("a random tile is not singular");
        }),
    );
    put(
        "geqrt",
        hot_restored(budget, a, copy_mat, |a| {
            geqrt(a, IB);
        }),
    );
    put(
        "unmqr",
        hot(budget, &mut c.clone(), |c| {
            unmqr(Trans::Trans, &refl.geqrt.0, &refl.geqrt.1, c)
        }),
    );
    put(
        "tpqrt TS",
        hot_restored(
            budget,
            &(refl.r.clone(), b.clone()),
            restore_pair,
            |(r, b)| {
                tpqrt(0, r, b, IB);
            },
        ),
    );
    put(
        "tpqrt TT",
        hot_restored(
            budget,
            &(refl.r.clone(), tt_bottom.clone()),
            restore_pair,
            |(r, b)| {
                tpqrt(nb, r, b, IB);
            },
        ),
    );
    put(
        "tpmqrt TS",
        hot(budget, &mut pair.clone(), |(a, c)| {
            tpmqrt(Trans::Trans, 0, &refl.ts.0, &refl.ts.1, a, c)
        }),
    );
    put(
        "tpmqrt TT",
        hot(budget, &mut pair.clone(), |(a, c)| {
            tpmqrt(Trans::Trans, nb, &refl.tt.0, &refl.tt.1, a, c)
        }),
    );
    rows
}

/// Seconds per call of the nine kernels of [`tile_rates`], same order, each
/// swept over a pool of distinct `nb × nb` tiles of `POOLS[p]` bytes.
fn streamed_rates(tiles: &Tiles, budget: Budget) -> Vec<(&'static str, [f64; 2])> {
    let Tiles {
        nb,
        a,
        b,
        c,
        u,
        tt_bottom,
        refl,
    } = tiles;
    let nb = *nb;
    // (name, template of the streamed tile, template of the cycling tile,
    // the call on one of each).
    type Call<'a> = &'a dyn Fn(&mut Mat, &mut Mat);
    let kernels: [(&'static str, &Mat, &Mat, Call); 9] = [
        ("gemm", c, b, &|c, b| {
            gemm(Trans::NoTrans, Trans::NoTrans, -1.0, a, b, 1.0, c)
        }),
        ("trsm", b, b, &|x, _| {
            trsm(
                Side::Right,
                UpLo::Upper,
                Trans::NoTrans,
                Diag::NonUnit,
                1.0,
                u,
                x,
            )
        }),
        ("getrf", a, b, &|x, _| {
            getrf(x).expect("a random tile is not singular");
        }),
        ("geqrt", a, b, &|x, _| {
            geqrt(x, IB);
        }),
        ("unmqr", c, b, &|x, _| {
            unmqr(Trans::Trans, &refl.geqrt.0, &refl.geqrt.1, x)
        }),
        ("tpqrt TS", b, &refl.r, &|x, r| {
            tpqrt(0, r, x, IB);
        }),
        ("tpqrt TT", tt_bottom, &refl.r, &|x, r| {
            tpqrt(nb, r, x, IB);
        }),
        ("tpmqrt TS", c, a, &|x, top| {
            tpmqrt(Trans::Trans, 0, &refl.ts.0, &refl.ts.1, top, x)
        }),
        ("tpmqrt TT", c, a, &|x, top| {
            tpmqrt(Trans::Trans, nb, &refl.tt.0, &refl.tt.1, top, x)
        }),
    ];
    let tiles_in = |bytes: usize| (bytes / (8 * nb * nb)).max(1);
    let mut pool = vec![c.clone(); tiles_in(POOLS[1])];
    let mut row = vec![b.clone(); ROW_TILES];
    kernels
        .iter()
        .map(|&(name, streamed, cycling, call)| {
            let per_call = POOLS.map(|bytes| {
                let pool = &mut pool[..tiles_in(bytes)];
                (0..budget.sweeps)
                    .map(|_| {
                        row.iter_mut().for_each(|t| copy_mat(t, cycling));
                        pool.iter_mut().for_each(|t| copy_mat(t, streamed));
                        let timed = pool.len().min(budget.sweep_tiles);
                        let t0 = Instant::now();
                        for (i, t) in pool[..timed].iter_mut().enumerate() {
                            call(black_box(t), &mut row[i % ROW_TILES]);
                        }
                        t0.elapsed().as_secs_f64() / timed as f64
                    })
                    .fold(f64::INFINITY, f64::min)
            });
            (name, per_call)
        })
        .collect()
}

/// `(rows, seconds, flops)` of `getrf` on the stacked diagonal domain of a
/// tall panel, 96 columns: the `PANEL` task of a grid with one process row.
fn panel_rates(budget: Budget) -> Vec<(usize, f64, f64)> {
    [1440usize, 2880]
        .into_iter()
        .map(|m| {
            let (secs, flops) = hot_restored(budget, &Mat::random(m, 96, 8), copy_mat, |a| {
                getrf(a).expect("a random panel is not singular");
            });
            (m, secs, flops)
        })
        .collect()
}

/// Least-squares `(intercept, slope)` of `y` over `x`.
fn line_fit(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
    let (mx, my) = (sx / n, sy / n);
    let sxy: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

/// Per-call intercept and per-strip slope (seconds) of the apply kernels on
/// `nb × w` right-hand tiles, w ∈ {8, 16, 32, 64}.
fn apply_slopes(nb: usize, budget: Budget) -> Vec<(&'static str, f64, f64)> {
    let refl = reflectors(nb);
    let widths = [8usize, 16, 32, 64];
    let fit = |time_at: &dyn Fn(usize) -> f64| {
        let points: Vec<(f64, f64)> = widths
            .iter()
            .map(|&w| ((w / 8) as f64, time_at(w)))
            .collect();
        line_fit(&points)
    };
    let unmqr_at = |w: usize| {
        let mut c = Mat::random(nb, w, 11);
        hot(budget, &mut c, |c| {
            unmqr(Trans::Trans, &refl.geqrt.0, &refl.geqrt.1, c)
        })
        .0
    };
    let tpmqrt_at = |l: usize, v: &(Mat, TFactor), w: usize| {
        let mut pair = (Mat::random(nb, w, 12), Mat::random(nb, w, 13));
        hot(budget, &mut pair, |(a, c)| {
            tpmqrt(Trans::Trans, l, &v.0, &v.1, a, c)
        })
        .0
    };
    let mut out = Vec::new();
    let mut put = |name, (intercept, slope)| out.push((name, intercept, slope));
    put("unmqr", fit(&unmqr_at));
    put("tpmqrt TS", fit(&|w| tpmqrt_at(0, &refl.ts, w)));
    put("tpmqrt TT", fit(&|w| tpmqrt_at(nb, &refl.tt, w)));
    out
}

fn main() {
    let args = Args::parse();
    // Short batches, many of them: this kind of host flips between a fast
    // and a slow regime every few tens of milliseconds, and only a batch
    // that fits inside a fast window measures the kernel.
    let budget = if args.has("quick") {
        Budget {
            batch_s: 0.001,
            batches: 12,
            sweeps: 1,
            sweep_tiles: ROW_TILES,
        }
    } else {
        Budget {
            batch_s: 0.002,
            batches: 100,
            sweeps: 5,
            sweep_tiles: usize::MAX,
        }
    };
    match pin_to_first_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}"),
        None => println!("not pinned (no affinity call on this platform, or it failed)"),
    }
    let (peak, width) = fma_peak(budget);
    println!("FMA peak of this core: {peak:.1} GFlop/s ({width})\n");

    println!(
        "{:<10} {:>4} {:>10} {:>9} {:>8} {:>13} {:>13}",
        "", "", "hot", "", "", "streamed over", "streamed over"
    );
    println!(
        "{:<10} {:>4} {:>10} {:>9} {:>8} {:>13} {:>13}",
        "kernel", "nb", "µs/call", "GFlop/s", "of peak", "8 MB, µs", "64 MB, µs"
    );
    for nb in [16usize, 96, 240] {
        let tiles = tiles(nb);
        let streamed = streamed_rates(&tiles, budget);
        for ((name, secs, flops), (also, pools)) in
            tile_rates(&tiles, budget).into_iter().zip(streamed)
        {
            assert_eq!(name, also, "the two tables list the kernels in one order");
            let rate = flops / secs / 1e9;
            println!(
                "{name:<10} {nb:>4} {:>10.3} {rate:>9.2} {:>7.0}% {:>13.3} {:>13.3}",
                secs * 1e6,
                100.0 * rate / peak,
                pools[0] * 1e6,
                pools[1] * 1e6
            );
        }
        println!();
    }

    println!("getrf on a stacked diagonal domain, 96 columns (hot)");
    println!(
        "{:<10} {:>10} {:>9} {:>8}",
        "rows", "µs/call", "GFlop/s", "of peak"
    );
    for (m, secs, flops) in panel_rates(budget) {
        let rate = flops / secs / 1e9;
        println!(
            "{m:<10} {:>10.1} {rate:>9.2} {:>7.0}%",
            secs * 1e6,
            100.0 * rate / peak
        );
    }
    println!();

    println!("apply kernels at nb = 16, ib = {IB}: time = call + strips · strip (w = 8 · strips)");
    println!(
        "{:<10} {:>12} {:>13}",
        "kernel", "µs per call", "µs per strip"
    );
    for (name, intercept, slope) in apply_slopes(16, budget) {
        println!("{name:<10} {:>12.3} {:>13.3}", intercept * 1e6, slope * 1e6);
    }
}
