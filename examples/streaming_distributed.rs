//! Distributed streaming demo: per-node windows composed with the
//! platform communication model.
//!
//! Phase 1 runs a moderate-size hybrid factorization three ways — batch,
//! single-process streaming, and distributed streaming — and verifies the
//! solutions are bitwise identical *and* that the distributed run's online
//! virtual-time report (makespan / messages / bytes, computed while the
//! window drains) equals a discrete-event replay of the materialized batch
//! graph. Phase 2 scales up with distributed streaming only: cluster-level
//! makespan and message accounting at a size where the window's peak is
//! orders of magnitude below the task count the batch path would have to
//! materialize.
//!
//! ```sh
//! cargo run --release --example streaming_distributed [N] [nodes] [window]
//! ```
//!
//! `nodes` picks the virtual process grid: 1 → 1x1, 2 → 2x1, 4 → 2x2,
//! 16 → 4x4 (the paper's Dancer configuration).

use luqr::{
    factor, factor_stream, factor_stream_with, stability, Algorithm, Criterion, FactorOptions,
    StreamOptions,
};
use luqr_runtime::{simulate, Platform};
use luqr_tile::Grid;

#[path = "support/mod.rs"]
mod support;
use support::dominant_system as system;

fn grid_for(nodes: usize) -> Grid {
    match nodes {
        1 => Grid::single(),
        2 => Grid::new(2, 1),
        4 => Grid::new(2, 2),
        16 => Grid::new(4, 4),
        n => {
            // Fall back to the most square p x q with p*q = n.
            let mut p = (n as f64).sqrt() as usize;
            while n % p != 0 {
                p -= 1;
            }
            Grid::new(p, n / p)
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n_big: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(480);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    // The driver clamps the window to >= 1; so does the bar below.
    let window: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(3).max(1);

    let grid = grid_for(nodes);
    let platform = Platform::dancer_nodes(grid.nodes());
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        grid,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let dist_opts = StreamOptions::fixed(window, opts.threads).with_platform(platform.clone());

    // ---- Phase 1: three-way parity + online-sim == batch replay. --------
    let n_small = (n_big / 2).max(4 * opts.nb);
    println!(
        "phase 1: batch vs streaming vs distributed at N = {n_small}, \
         grid {}x{} ({} nodes), window = {window}",
        grid.p,
        grid.q,
        grid.nodes()
    );
    let (a, b) = system(n_small);
    let batch = factor(&a, &b, &opts);
    let stream = factor_stream(&a, &b, &opts, window);
    let dist = factor_stream_with(&a, &b, &opts, &dist_opts).expect("grid fits platform");
    let sim = dist
        .report
        .sim
        .as_ref()
        .expect("a platform run reports virtual time");

    let xb = batch.solution();
    assert_eq!(
        xb.max_abs_diff(&stream.solution()),
        0.0,
        "single-process streaming must be bitwise-identical to batch"
    );
    assert_eq!(
        xb.max_abs_diff(&dist.solution()),
        0.0,
        "distributed streaming must be bitwise-identical to batch"
    );
    let replay = simulate(&batch.graph, &platform);
    let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1e-30);
    assert!(
        rel(replay.makespan, sim.makespan) <= 1e-9,
        "online sim makespan {} != batch replay {}",
        sim.makespan,
        replay.makespan
    );
    assert_eq!(replay.messages, sim.messages, "message counts differ");
    assert_eq!(replay.bytes, sim.bytes, "byte counts differ");
    println!("  solutions bitwise identical across all three runtimes");
    println!(
        "  online virtual time == batch replay: makespan {:.4}s, {} msgs, {} bytes",
        sim.makespan, sim.messages, sim.bytes
    );
    let msgs = dist.report.msgs;
    println!(
        "  protocol: {} DataMsg + {} DecisionMsg + {} RetireMsg",
        msgs.data_msgs, msgs.decision_msgs, msgs.retire_msgs
    );

    // ---- Phase 2: distributed streaming only at the full size. ----------
    let (a, b) = system(n_big);
    let nt = n_big.div_ceil(opts.nb);
    println!(
        "\nphase 2: distributed streaming N = {n_big} ({nt} steps), \
         {} nodes, window = {window}",
        grid.nodes()
    );
    let t0 = std::time::Instant::now();
    let f = factor_stream_with(&a, &b, &opts, &dist_opts).expect("grid fits platform");
    let dt = t0.elapsed().as_secs_f64();
    assert!(f.error.is_none(), "breakdown: {:?}", f.error);
    let x = f.solution();
    let hpl3 = stability::hpl3(&a, &x, &b);
    let r = &f.report;
    let sim = r.sim.as_ref().expect("a platform run reports virtual time");
    println!(
        "  {} tasks executed in {dt:.3}s wall; peak live tasks {} \
         ({:.1}x reclaimed vs {} planned)",
        r.tasks_executed,
        r.peak_live_tasks,
        r.tasks_planned as f64 / r.peak_live_tasks as f64,
        r.tasks_planned,
    );
    println!(
        "  virtual cluster: makespan {:.4}s, {:.1} GFLOP/s normalized \
         ({:.0}% of peak), {} messages, {:.1} MB moved",
        sim.makespan,
        sim.gflops_normalized(2.0 / 3.0 * (n_big as f64).powi(3)),
        100.0 * sim.peak_fraction(&platform),
        sim.messages,
        sim.bytes as f64 / 1e6,
    );
    println!(
        "  LU steps: {:.0}% of {}; HPL3 backward error = {hpl3:.3e}",
        100.0 * f.lu_step_fraction(),
        f.records.len()
    );

    // CI smoke bar, the window's structural contract (the reclaimed ratio
    // above depends on thread timing, these do not): at most `window`
    // steps are live at once, so live tasks never exceed the `window`
    // largest steps' task counts.
    assert!(
        r.peak_live_steps <= window,
        "{} live steps under a window of {window}",
        r.peak_live_steps
    );
    let mut per_step = r.per_step_tasks.clone();
    per_step.sort_unstable_by(|x, y| y.cmp(x));
    let bound: usize = per_step.iter().take(window).sum();
    assert!(
        r.peak_live_tasks <= bound,
        "window did not bound live tasks (peak {} over the {window} largest steps' {bound})",
        r.peak_live_tasks
    );
}
