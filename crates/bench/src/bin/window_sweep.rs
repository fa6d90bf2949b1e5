//! Deep-vs-wide window sweep across grid aspect ratios (ROADMAP item).
//!
//! With distributed streaming in place, the two shape knobs are
//! orthogonal: the **grid aspect ratio** (tall 4x1, square 2x2, flat 1x4)
//! shapes the *simulated* cluster makespan — one replay of the grid's
//! batch graph, which no window changes — while the **window depth**
//! trades host-side wall clock and live-task memory: deep windows buy
//! panel lookahead, shallow windows bound the materialized graph. This
//! sweep prints both axes side by side so the trade reads off one table.
//!
//! Seeded from the `distsim` fixture of `tests/tests/pins.rs` (N = 320,
//! nb = 8, hybrid Max α = 1000 on Dancer nodes); override with `--n`,
//! `--nb`, `--alpha`.
//!
//! ```sh
//! cargo run --release -p luqr-bench --bin window_sweep [--n 320] [--nb 8]
//! ```

use luqr::{factor, factor_stream_with, Algorithm, Criterion, FactorOptions, StreamOptions};
use luqr_bench::Args;
use luqr_kernels::Mat;
use luqr_runtime::{simulate, Platform};
use luqr_tile::Grid;

fn main() {
    let args = Args::parse();
    let n: usize = args.get("n", 320);
    let nb: usize = args.get("nb", 8);
    let alpha: f64 = args.get("alpha", 1000.0);
    let nt = n.div_ceil(nb);

    let a = Mat::random(n, n, 1);
    let b = Mat::random(n, 1, 2);
    let windows = [1usize, 2, 4, 8];
    let grids = [Grid::new(4, 1), Grid::new(2, 2), Grid::new(1, 4)];

    println!(
        "deep-vs-wide sweep: N = {n}, nb = {nb} ({nt} steps), hybrid Max(α={alpha}), \
         4 Dancer nodes\n"
    );
    println!(
        "{:<6} {:>12} | {:>8} {:>10} {:>10}",
        "grid", "sim makespan", "window", "wall s", "peak live"
    );

    for grid in grids {
        let platform = Platform::dancer_nodes(grid.nodes());
        let opts = FactorOptions {
            nb,
            ib: (nb / 2).max(2),
            threads: 1,
            grid,
            algorithm: Algorithm::LuQr(Criterion::Max { alpha }),
            ..FactorOptions::default()
        };
        let sim = simulate(&factor(&a, &b, &opts).graph, &platform);
        for (i, &window) in windows.iter().enumerate() {
            let t0 = std::time::Instant::now();
            let f = factor_stream_with(&a, &b, &opts, &StreamOptions::fixed(window, 1));
            let wall = t0.elapsed().as_secs_f64();
            assert!(f.error.is_none(), "breakdown: {:?}", f.error);
            let (grid_col, sim_col) = if i == 0 {
                (
                    format!("{}x{}", grid.p, grid.q),
                    format!("{:.5}s", sim.makespan),
                )
            } else {
                (String::new(), String::new())
            };
            println!(
                "{grid_col:<6} {sim_col:>12} | {window:>8} {wall:>10.3} {:>10}",
                f.report.peak_live_tasks,
            );
        }
        println!();
    }
    println!(
        "reading: grid shape moves the *simulated* makespan (tall grids \
         drag more nodes into the\npanel all-reduce, flat grids serialize \
         the trailing-update rows; square balances both);\nwindow depth \
         only trades host wall clock against live-task memory."
    );
}
