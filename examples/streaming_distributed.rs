//! Distributed streaming demo: per-node windows whose message routing is
//! the platform simulator's communication model.
//!
//! Phase 1 runs a moderate-size hybrid factorization twice — batch and
//! distributed streaming — and verifies the solutions are bitwise
//! identical *and* that the window routed, on every directed link, exactly
//! the payload messages and bytes a discrete-event replay of the
//! materialized batch graph prices; the replay's virtual cluster time is
//! printed. Phase 2 scales up with distributed streaming only: protocol
//! accounting at a size where the window's peak is orders of magnitude
//! below the task count the batch path would have to materialize.
//!
//! ```sh
//! cargo run --release --example streaming_distributed [N] [nodes] [window]
//! ```
//!
//! `nodes` picks the virtual process grid: 1 → 1x1, 2 → 2x1, 4 → 2x2,
//! 16 → 4x4 (the paper's Dancer configuration).

use luqr::{factor, factor_stream, stability, Algorithm, Criterion, FactorOptions};
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

    // ---- Phase 1: parity + window routing == replay network. -----------
    let n_small = (n_big / 2).max(4 * opts.nb);
    println!(
        "phase 1: batch vs distributed streaming at N = {n_small}, \
         grid {}x{} ({} nodes), window = {window}",
        grid.p,
        grid.q,
        grid.nodes()
    );
    let (a, b) = system(n_small);
    let batch = factor(&a, &b, &opts);
    let dist = factor_stream(&a, &b, &opts, window);
    assert_eq!(
        batch.solution().max_abs_diff(&dist.solution()),
        0.0,
        "distributed streaming must be bitwise-identical to batch"
    );
    // Per directed link: payload messages and bytes (retire reports are
    // protocol, not payload).
    let replay = simulate(&batch.graph, &platform);
    let routed: Vec<_> = dist
        .report
        .link_msgs
        .iter()
        .filter(|l| l.msgs.payload_msgs() > 0)
        .map(|l| (l.src, l.dst, l.msgs.payload_msgs(), l.msgs.bytes))
        .collect();
    let priced: Vec<_> = replay
        .link_messages
        .iter()
        .map(|l| (l.src, l.dst, l.messages, l.bytes))
        .collect();
    assert_eq!(routed, priced, "window routing != replay network");
    println!("  solutions bitwise identical; window routing == replay network on every link");
    println!(
        "  replayed virtual cluster: makespan {:.4}s, {} msgs, {} bytes",
        replay.makespan, replay.messages, replay.bytes
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
    let f = factor_stream(&a, &b, &opts, window);
    let dt = t0.elapsed().as_secs_f64();
    assert!(f.error.is_none(), "breakdown: {:?}", f.error);
    let x = f.solution();
    let hpl3 = stability::hpl3(&a, &x, &b);
    let r = &f.report;
    println!(
        "  {} tasks executed in {dt:.3}s wall; peak live tasks {} \
         ({:.1}x reclaimed vs {} planned)",
        r.tasks_executed,
        r.peak_live_tasks,
        r.tasks_planned as f64 / r.peak_live_tasks as f64,
        r.tasks_planned,
    );
    println!(
        "  protocol: {} payload messages, {:.1} MB routed, {} retire reports",
        r.msgs.payload_msgs(),
        r.msgs.bytes as f64 / 1e6,
        r.msgs.retire_msgs,
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
