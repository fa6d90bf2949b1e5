//! Streaming-runtime tests the parity harness does not own: the window's
//! memory bound against the batch graph, explicit 1- and 4-thread runs so
//! scheduler races surface in CI, thread and window invariance, and the
//! report's task accounting. Batch ≡ stream for every algorithm and window
//! is `builder_parity`'s and `dist_stream`'s table.

use luqr::{stability, Algorithm, Criterion};
use luqr_tests::paths::{bits, check_parity, run, Case, Outcome, Path};
use luqr_tile::Grid;

const MAX: Algorithm = Algorithm::LuQr(Criterion::Max { alpha: 100.0 });

/// With `window = 2`, a factorization whose full batch graph holds ≥ 10×
/// more live tasks than the streaming peak, with bitwise-identical results.
#[test]
fn window_two_uses_ten_times_fewer_live_tasks_than_batch() {
    let mut case = Case::new(MAX, Grid::single())
        .threads(4)
        .dominant(160, 99, 2);
    case.opts.nb = 4;
    let outs = check_parity(&case, &[Path::Batch, Path::Stream]);
    let (a, b) = case.system();
    let rb = stability::hpl3(&a, &outs[0].x, &b);
    assert!(rb < 60.0, "residual {rb} is not small");

    // The batch graph materializes every task of every step (both hybrid
    // branches); the streaming window keeps only un-completed records of at
    // most 2 consecutive steps.
    let batch_live = outs[0].graph().len();
    let stream = outs[1].report();
    let stream_peak = stream.peak_live_tasks;
    assert!(
        batch_live >= 10 * stream_peak,
        "batch graph holds {batch_live} tasks, streaming peak {stream_peak}: ratio {:.1} < 10",
        batch_live as f64 / stream_peak as f64
    );
    // Only the chosen branch was unrolled: far fewer tasks planned than the
    // batch graph's branch-pair construction.
    assert!(stream.tasks_planned < batch_live);
}

/// The hybrid at α = 5 on a 2×1 grid, over `dominant_system(48, 5, 2)`.
fn max5() -> Case {
    let max5 = Algorithm::LuQr(Criterion::Max { alpha: 5.0 });
    Case::new(max5, Grid::new(2, 1)).dominant(48, 5, 2)
}

/// Explicit single-thread invocation (deterministic reference schedule).
#[test]
fn streaming_single_thread() {
    check_parity(&max5().threads(1), &[Path::Batch, Path::Stream]);
}

/// Explicit 4-thread invocation (races between workers, the planner, and
/// step retirement surface here).
#[test]
fn streaming_four_threads() {
    check_parity(&max5().threads(4).window(3), &[Path::Batch, Path::Stream]);
}

/// Thread count and window size never change the bits.
#[test]
fn streaming_deterministic_across_threads_and_windows() {
    let sum = Algorithm::LuQr(Criterion::Sum { alpha: 10.0 });
    let case = Case::new(sum, Grid::single()).dominant(40, 31, 2);
    let x = |t, w| bits(&run(&case.clone().threads(t).window(w), Path::Stream).x);
    let reference = x(1, 1);
    for (threads, window) in [(1, 5), (2, 1), (4, 2), (8, 5)] {
        assert_eq!(
            reference,
            x(threads, window),
            "threads={threads} window={window} changed the result"
        );
    }
}

/// The streaming report's task accounting is self-consistent.
#[test]
fn streaming_report_accounting() {
    let f = run(
        &Case::new(MAX, Grid::single()).dominant(48, 12, 2),
        Path::Stream,
    );
    let r = f.report();
    assert_eq!(r.steps, 6); // 48 / 8
    assert_eq!(r.tasks_executed, r.tasks_planned);
    assert_eq!(r.per_step_tasks.iter().sum::<usize>(), r.tasks_planned);
    assert!(r.total_flops > 0.0);
    assert!(r.peak_live_tasks > 0);
    // On a diagonally dominant matrix every step picks LU — and because
    // streaming unrolls only the chosen branch, every planned task executes
    // (the batch path discards the whole QR branch).
    assert_eq!(f.ranks[0].lu_step_fraction(), 1.0);
}

/// A run clamps TS domains to at least one tile: `ts = 0` plans, and
/// computes, exactly what `ts = 1` does, batch and streamed, for the
/// hybrid taking both branches and for HQR.
#[test]
fn ts_zero_runs_as_ts_one() {
    let random = Algorithm::LuQr(Criterion::Random {
        lu_fraction: 0.5,
        seed: 5,
    });
    for algorithm in [random, Algorithm::Hqr] {
        let case = |ts| {
            let mut case = Case::new(algorithm.clone(), Grid::new(2, 1)).dominant(48, 5, 2);
            case.opts.trees.ts = ts;
            case
        };
        for path in [Path::Batch, Path::Stream] {
            let (zero, one) = (run(&case(0), path), run(&case(1), path));
            assert_eq!(bits(&zero.x), bits(&one.x), "{algorithm:?} on {path:?}");
            let decisions = |o: &Outcome| o.records.iter().map(|r| r.decision).collect::<Vec<_>>();
            assert_eq!(
                decisions(&zero),
                decisions(&one),
                "{algorithm:?} on {path:?}"
            );
        }
    }
}
