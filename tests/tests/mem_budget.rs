//! A run's memory is its tiles plus its live steps.
//!
//! A process-wide counting allocator (live bytes and their peak, over all
//! threads) measures what a factorization holds *besides the tiles* at its
//! worst moment: task records, and the cells its steps' tasks communicate
//! through — row-exchange snapshots, panel backups, T-factors, the panel
//! factorization. Those cells die with their step
//! ([`luqr_runtime::TaskOp::retire_step`]), so the excess is a few steps'
//! worth — O(window · n · nb) — where keeping every step's cells until the
//! end of the run is O(n²): on the all-LU fixture the snapshots alone are
//! one tile per trailing column per step, 300 tiles against the matrix's
//! 600. The byte counts repeat exactly for one thread, so they can gate in
//! CI where `VmHWM` and timings cannot. Each path's `peak-over-tiles bytes`
//! is printed for the next reader.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use luqr::builder::build_graph;
use luqr::solve::back_substitute;
use luqr::{factor_stream, Algorithm, Criterion, Decision, FactorOptions, StepRecord};
use luqr_kernels::Mat;
use luqr_runtime::execute;
use luqr_tests::with_watchdog;
use luqr_tile::{Grid, TiledMatrix};

// --- the counting allocator -------------------------------------------------

/// Bytes currently allocated, and the highest value that has reached since
/// the last [`measured`] began.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics, so touching them
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as growth first: a realloc may hold both blocks at once.
        Self::grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are the process's: one measurement at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run `f` and return how far the live byte count rose above where it
/// stood when `f` began.
fn measured<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let r = f();
    (r, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

// --- fixtures ---------------------------------------------------------------

const N: usize = 768;
const NB: usize = 32;
const WINDOW: usize = 4;

/// A random matrix with one structural edit per tile column, by
/// `panels[k % len]`: `L` adds `n` to the diagonal (the panel is dominant,
/// the Max criterion accepts the LU step); `Q` makes the panel's second
/// column a near-duplicate of its first, which row operations preserve, so
/// the diagonal block is nearly singular at its turn and the criterion
/// rejects the LU step.
fn system(panels: &[u8]) -> (Mat, Mat) {
    let mut a = Mat::random(N, N, 17);
    for k in 0..N / NB {
        let j = k * NB;
        match panels[k % panels.len()] {
            b'L' => (j..j + NB).for_each(|i| a[(i, i)] += N as f64),
            _ => (0..N).for_each(|i| a[(i, j + 1)] = a[(i, j)] + 1e-9 * a[(i, j + 1)]),
        }
    }
    (a, Mat::random(N, 1, 18))
}

fn options() -> FactorOptions {
    FactorOptions {
        nb: NB,
        ib: 8,
        grid: Grid::new(1, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 1e6 }),
        threads: 1,
        ..FactorOptions::default()
    }
}

fn lu_steps(records: &[StepRecord]) -> usize {
    records
        .iter()
        .filter(|r| r.decision == Decision::Lu)
        .count()
}

/// Bytes of the tiled `[A | b]`.
const TILE_BYTES: usize = N * (N + 1) * 8;

/// What one live step may hold: its panel column (backups, or the stacked
/// trial factorization), and one tile row of snapshots — a tile per
/// trailing column, right-hand side included.
const STEP_BYTES: usize = N * NB * 8 + (N / NB + 1) * NB * NB * 8;

/// Streamed: `window + 1` steps' worth — the window's steps and the one
/// retiring — and a quarter more for what is not step data: live task
/// records, datum directories, the solution. (Measured: 1.9–2.2 MB on the
/// all-LU fixture, 1.3–1.4 MB on the alternating one; with every step's
/// cells kept to the end, 3.9 MB and 2.6 MB.)
const STREAM_BUDGET: usize = (WINDOW + 1) * STEP_BYTES * 5 / 4;

/// Batch, executing: the FIFO executor has no window, but it drains steps
/// in order — the one finishing and the one starting. (Measured: 0.58 MB
/// and 0.38 MB; with every step's cells kept, 2.6 MB and 1.6 MB.)
const BATCH_BUDGET: usize = 2 * STEP_BYTES;

/// Batch, planning: the graph itself — a task's record, its countdown, its
/// share of the successor lists — and what building it holds besides.
/// (Measured on the all-LU fixture, 12 713 tasks: 155.2 bytes a task while
/// the builder took each op's closed-form successors; 137.2 with the edges
/// of one predecessor sweep per step, two steps' edges held at a time;
/// 122.8 once a task's cost is derived from its op instead of recorded in
/// its execution cell; 89.0 with each phase's edges written at once as one
/// block of 32-bit successor lists.)
const PLAN_BYTES_PER_TASK: usize = 170;

#[test]
fn peak_memory_over_the_tiles_is_a_few_steps_not_the_matrix() {
    println!(
        "tiles {TILE_BYTES} bytes, one step {STEP_BYTES} bytes; budgets: \
         batch {BATCH_BUDGET}, stream (window {WINDOW}) {STREAM_BUDGET}"
    );
    let mut solutions = Vec::new();
    for (fixture, panels, want_lu) in [("all-lu", "L", N / NB), ("lu-qr", "LQ", N / NB / 2 + 1)] {
        let (a, b) = system(panels.as_bytes());
        let opts = options();

        // Batch, at the seams of `factor_solve`: the whole graph is planned
        // first — O(tasks) records and edges, more than any step budget and
        // none of it step data — so the bound is on what *executing* it
        // adds to the tiles and the graph.
        let aug = TiledMatrix::from_dense_augmented(&a, &b, opts.nb);
        let ((graph, shared), planning) = measured(|| build_graph(&aug, N / NB, &opts));
        let (graph, batch) = with_watchdog(&format!("{fixture}: batch run"), move || {
            let (_, batch) = measured(|| execute(&graph, 1));
            (graph, batch)
        });
        assert_eq!(graph.ctx().live_steps(), 0, "{fixture}: batch step data");
        assert!(shared.error.lock().is_none(), "{fixture}");
        assert_eq!(lu_steps(&shared.records.lock()), want_lu, "{fixture}");
        let x = back_substitute(&aug, N, 1);
        println!(
            "{fixture:<7} batch  {} tasks, {planning} bytes to plan them",
            graph.len()
        );
        assert!(
            planning <= PLAN_BYTES_PER_TASK * graph.len(),
            "{fixture}: {planning} bytes to plan {} tasks, budget {PLAN_BYTES_PER_TASK} a task",
            graph.len()
        );
        drop((graph, aug));

        // Streamed: tiles, window and step data all inside the one call.
        let ((xs, records), stream) =
            with_watchdog(&format!("{fixture}: streamed run"), move || {
                measured(|| {
                    let f = factor_stream(&a, &b, &opts, WINDOW);
                    assert_eq!(f.ctx().live_steps(), 0, "{fixture}: stream step data");
                    (f.solution(), f.records)
                })
            });
        assert!(stream > TILE_BYTES, "{fixture}: the peak holds the tiles");
        assert_eq!(lu_steps(&records), want_lu, "{fixture}: streamed LU steps");
        assert_eq!(x.max_abs_diff(&xs), 0.0, "{fixture}: stream != batch");

        for (path, over, budget) in [
            ("batch", batch, BATCH_BUDGET),
            ("stream", stream - TILE_BYTES, STREAM_BUDGET),
        ] {
            println!("{fixture:<7} {path:<6} peak-over-tiles bytes {over:>9}");
            assert!(
                over <= budget,
                "{fixture} {path}: {over} bytes over the tiles, budget {budget}: \
                 step cells are outliving their steps"
            );
        }
        solutions.push(x);
    }
    assert_ne!(solutions[0].max_abs_diff(&solutions[1]), 0.0);
}
