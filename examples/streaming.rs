//! Streaming runtime demo: factor a matrix whose *batch* task graph is an
//! order of magnitude larger than anything the streaming window ever
//! materializes.
//!
//! Phase 1 runs both runtimes at a moderate size and verifies the results
//! are bitwise identical while measuring the memory gap. Phase 2 scales up
//! with streaming only — the per-window live-task peak stays essentially
//! flat while the batch graph (built here only to be counted) keeps growing
//! cubically; at production N the batch graph simply would not fit.
//!
//! ```sh
//! cargo run --release --example streaming [N] [nb] [window]
//! ```

use luqr::{factor, factor_stream, stability, Algorithm, Criterion, FactorOptions};

#[path = "support/mod.rs"]
mod support;
use support::dominant_system as system;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_big: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(640);
    let nb: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let window: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3);

    let opts = FactorOptions {
        nb,
        ib: 4,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };

    // ---- Phase 1: bitwise parity + memory gap at a moderate size. -------
    let n_small = (n_big / 2).max(4 * nb);
    let (a, b) = system(n_small);
    println!("phase 1: batch vs streaming at N = {n_small}, nb = {nb}, window = {window}");

    let t0 = std::time::Instant::now();
    let batch = factor(&a, &b, &opts);
    let batch_dt = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let stream = factor_stream(&a, &b, &opts, window);
    let stream_dt = t0.elapsed().as_secs_f64();

    let xb = batch.solution();
    let xs = stream.solution();
    assert_eq!(
        xb.max_abs_diff(&xs),
        0.0,
        "streaming must be bitwise-identical to batch"
    );
    let hpl3 = stability::hpl3(&a, &xs, &b);
    println!("  residual (identical bitwise): HPL3 = {hpl3:.3e}");
    println!(
        "  batch : {:>8} task records materialized at once   ({batch_dt:.3}s)",
        batch.graph.len()
    );
    println!(
        "  stream: {:>8} peak live task records ({} steps live at peak)   ({stream_dt:.3}s)",
        stream.report.peak_live_tasks, stream.report.peak_live_steps
    );
    println!(
        "  graph-memory ratio: {:.1}x  (only the chosen branch is ever planned: {} tasks vs {})",
        batch.graph.len() as f64 / stream.report.peak_live_tasks as f64,
        stream.report.tasks_planned,
        batch.graph.len(),
    );

    // ---- Phase 2: streaming only at the full size. -----------------------
    let (a, b) = system(n_big);
    let nt = n_big.div_ceil(nb);
    println!("\nphase 2: streaming N = {n_big} ({nt} elimination steps), window = {window}");
    let t0 = std::time::Instant::now();
    let f = factor_stream(&a, &b, &opts, window);
    let dt = t0.elapsed().as_secs_f64();
    assert!(f.error.is_none(), "breakdown: {:?}", f.error);
    let x = f.solution();
    let hpl3 = stability::hpl3(&a, &x, &b);
    let r = &f.report;
    println!(
        "  {} tasks executed in {dt:.3}s ({:.2} Gflop/s)",
        r.tasks_executed,
        r.total_flops / dt / 1e9
    );
    println!(
        "  peak live tasks {} (vs {} planned over the whole run: {:.1}x reclaimed)",
        r.peak_live_tasks,
        r.tasks_planned,
        r.tasks_planned as f64 / r.peak_live_tasks as f64
    );
    println!("  HPL3 backward error = {hpl3:.3e}");
    println!(
        "  LU steps: {:.0}% of {}",
        100.0 * f.lu_step_fraction(),
        f.records.len()
    );

    // The acceptance bar of the streaming runtime, asserted here too so the
    // example doubles as a smoke test in CI.
    assert!(
        batch.graph.len() >= 10 * stream.report.peak_live_tasks,
        "streaming window did not beat the batch graph by 10x"
    );
}
