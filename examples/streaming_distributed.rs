//! Distributed streaming demo: the process grid's ranks as threads of this
//! process over loopback mailboxes, whose message routing is the platform
//! simulator's communication model.
//!
//! Phase 1 runs a moderate-size hybrid factorization as a batch, in one
//! local streaming window and as loopback ranks, and verifies the solutions
//! are bitwise identical *and* that the ranks routed, on every directed
//! link, exactly the payload messages and bytes a discrete-event replay of
//! the materialized batch graph prices; the replay's virtual cluster time
//! is printed. Phase 2 scales up with the loopback ranks only: protocol
//! accounting at a size where each rank's window peak is orders of
//! magnitude below the task count the batch path would have to
//! materialize.
//!
//! ```sh
//! cargo run --release --example streaming_distributed [N] [nodes] [window]
//! ```
//!
//! `nodes` picks the process grid: 1 → 1x1, 2 → 2x1, 4 → 2x2, 16 → 4x4
//! (the paper's Dancer configuration).

use luqr::{
    factor, factor_stream, factor_stream_net_rank, stability, Algorithm, Criterion, FactorOptions,
    LinkMsgStats, StreamFactorization, StreamOptions,
};
use luqr_kernels::Mat;
use luqr_runtime::net::loopback::loopback_set;
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

/// Every rank of `opts.grid`, a thread each over loopback mailboxes; their
/// factorizations in rank order (rank 0's holds the result).
fn loopback_ranks(
    a: &Mat,
    b: &Mat,
    opts: &FactorOptions,
    window: usize,
) -> Vec<StreamFactorization> {
    let sopts = &StreamOptions::fixed(window, opts.threads);
    std::thread::scope(|s| {
        let ranks: Vec<_> = loopback_set(opts.grid.nodes())
            .into_iter()
            .map(|t| s.spawn(move || factor_stream_net_rank(a, b, opts, sopts, t)))
            .collect();
        let join = |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("rank panicked");
        ranks
            .into_iter()
            .map(|h| join(h).expect("loopback run"))
            .collect()
    })
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

    // ---- Phase 1: parity + the ranks' routing == replay network. -------
    let n_small = (n_big / 2).max(4 * opts.nb);
    println!(
        "phase 1: batch vs streaming vs loopback ranks at N = {n_small}, \
         grid {}x{} ({} nodes), window = {window}",
        grid.p,
        grid.q,
        grid.nodes()
    );
    let (a, b) = system(n_small);
    let batch = factor(&a, &b, &opts);
    let local = factor_stream(&a, &b, &opts, window);
    let ranks = loopback_ranks(&a, &b, &opts, window);
    for (path, x) in [
        ("streaming", local.solution()),
        ("loopback", ranks[0].solution()),
    ] {
        assert_eq!(
            batch.solution().max_abs_diff(&x),
            0.0,
            "{path} must be bitwise-identical to batch"
        );
    }
    // Per directed link, over the ranks: its payload messages and bytes.
    let replay = simulate(&batch.graph, &platform);
    let links = sent_links(&ranks);
    let routed: Vec<_> = links
        .iter()
        .map(|l| (l.src, l.dst, l.msgs.payload_msgs(), l.msgs.bytes))
        .collect();
    let priced: Vec<_> = replay
        .link_messages
        .iter()
        .map(|l| (l.src, l.dst, l.messages, l.bytes))
        .collect();
    assert_eq!(routed, priced, "the ranks' routing != replay network");
    println!("  solutions bitwise identical; the ranks' routing == replay network on every link");
    println!(
        "  replayed virtual cluster: makespan {:.4}s, {} msgs, {} bytes",
        replay.makespan, replay.messages, replay.bytes
    );
    let sum = |count: fn(&LinkMsgStats) -> u64| links.iter().map(count).sum::<u64>();
    println!(
        "  protocol: {} DataMsg + {} DecisionMsg",
        sum(|l| l.msgs.data_msgs),
        sum(|l| l.msgs.decision_msgs)
    );

    // ---- Phase 2: loopback ranks only at the full size. -----------------
    let (a, b) = system(n_big);
    let nt = n_big.div_ceil(opts.nb);
    println!(
        "\nphase 2: loopback ranks N = {n_big} ({nt} steps), \
         {} nodes, window = {window}",
        grid.nodes()
    );
    let t0 = std::time::Instant::now();
    let ranks = loopback_ranks(&a, &b, &opts, window);
    let dt = t0.elapsed().as_secs_f64();
    let f = &ranks[0];
    assert!(f.error.is_none(), "breakdown: {:?}", f.error);
    let x = f.solution();
    let hpl3 = stability::hpl3(&a, &x, &b);
    let executed: usize = ranks.iter().map(|f| f.report.tasks_executed).sum();
    println!("  {executed} tasks executed in {dt:.3}s wall");
    let links = sent_links(&ranks);
    let sum = |count: fn(&LinkMsgStats) -> u64| links.iter().map(count).sum::<u64>();
    println!(
        "  protocol: {} payload messages, {:.1} MB routed",
        sum(|l| l.msgs.payload_msgs()),
        sum(|l| l.msgs.bytes) as f64 / 1e6,
    );
    println!(
        "  LU steps: {:.0}% of {}; HPL3 backward error = {hpl3:.3e}",
        100.0 * f.lu_step_fraction(),
        f.records.len()
    );

    // CI smoke bar, each rank's window's structural contract (the reclaimed
    // ratio depends on thread timing, these do not): at most `window` steps
    // are live at once, so live tasks never exceed the `window` largest
    // steps' task counts.
    for (rank, f) in ranks.iter().enumerate() {
        let r = &f.report;
        println!(
            "  rank {rank}: {} tasks planned, peak live tasks {} ({:.1}x reclaimed)",
            r.tasks_planned,
            r.peak_live_tasks,
            r.tasks_planned as f64 / r.peak_live_tasks.max(1) as f64,
        );
        assert!(
            r.peak_live_steps <= window,
            "rank {rank}: {} live steps under a window of {window}",
            r.peak_live_steps
        );
        let mut per_step = r.per_step_tasks.clone();
        per_step.sort_unstable_by(|x, y| y.cmp(x));
        let bound: usize = per_step.iter().take(window).sum();
        assert!(
            r.peak_live_tasks <= bound,
            "rank {rank}: window did not bound live tasks (peak {} over the {window} largest \
             steps' {bound})",
            r.peak_live_tasks
        );
    }
}

/// Each directed link's messages once, as the rank that sent them counted
/// them, in `(src, dst)` order.
fn sent_links(ranks: &[StreamFactorization]) -> Vec<LinkMsgStats> {
    let mut links: Vec<LinkMsgStats> = ranks
        .iter()
        .enumerate()
        .flat_map(|(rank, f)| f.report.link_msgs.iter().filter(move |l| l.src == rank))
        .copied()
        .collect();
    links.sort_unstable_by_key(|l| (l.src, l.dst));
    links
}
