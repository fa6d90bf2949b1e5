//! **Ablation A1** — reduction-tree shapes for the QR steps (paper §IV-b:
//! the default is GREEDY inside nodes, FIBONACCI across nodes, "for its
//! short critical path and good pipelining of consecutive trees", under TS
//! domains of a = 4).
//!
//! Runs HQR with every TS-domain size × intra × inter tree combination and
//! reports, per row: the task count, how many kills ran square (TS) and
//! how many triangular (TT), the measured single-thread wall-clock of the
//! factorization on this host, and the simulated makespan and critical
//! path on the Dancer model. `ts = inf` leaves one head per node, so the
//! intra tree has nothing to reduce and that block has one row per inter
//! tree.
//!
//! **What the two time columns can and cannot see.** A larger `ts` trades
//! two things: fewer and cheaper tasks (one TSMQR per tile pair where
//! `ts = 1` runs UNMQR + TTMQR for the same flops) against a longer serial
//! chain down the panel. The measured wall sees the first — it is one
//! thread, so it has no critical path. The simulator sees only the second:
//! the platform model prices the TS and the TT applies with one `QrApply`
//! efficiency (and both factor kernels with one `QrFactor`), so simulated
//! time is flops over one rate and the cheaper kernel mix does not show;
//! splitting that efficiency is a ROADMAP 3(b) follow-up.
//!
//! ```sh
//! cargo run --release -p luqr-bench --bin ablation_trees [--n 1600] [--nb 80]
//! ```

use std::time::Instant;

use luqr::{factor, Algorithm, FactorOptions, TaskOp, TreeConfig, TreeKind};
use luqr_bench::{random_system, Args};
use luqr_runtime::{simulate, Platform};
use luqr_tile::Grid;

fn main() {
    let args = Args::parse();
    let n = args.get("n", 1600usize);
    let nb = args.get("nb", 80usize);
    let grid = Grid::new(4, 1); // tall grid: trees matter most down the panel
    let platform = Platform::dancer_nodes(4);
    let sys = random_system(n, 21);

    println!("Tree ablation — HQR, N = {n}, nb = {nb}, 4x1 grid, 1 thread");
    println!(
        "{:<4} {:<10} {:<10} {:>7} {:>9} {:>9} {:>10} {:>11} {:>12}",
        "ts", "intra", "inter", "tasks", "TS kills", "TT kills", "wall", "makespan", "crit. path"
    );
    let mut best = (f64::INFINITY, String::new());
    for ts in [1, 2, 4, 8, usize::MAX] {
        let flat = ts == usize::MAX;
        let ts_label = if flat { "inf".into() } else { ts.to_string() };
        for intra in if flat {
            &TreeKind::ALL[..1]
        } else {
            &TreeKind::ALL[..]
        } {
            let intra_label = if flat {
                "-".into()
            } else {
                format!("{intra:?}")
            };
            for inter in TreeKind::ALL {
                let trees = TreeConfig {
                    ts,
                    intra: *intra,
                    inter,
                };
                let opts = FactorOptions {
                    nb,
                    grid,
                    algorithm: Algorithm::Hqr,
                    trees,
                    threads: 1,
                    ..FactorOptions::default()
                };
                let t0 = Instant::now();
                let f = factor(&sys.a, &sys.b, &opts);
                let wall = t0.elapsed().as_secs_f64();
                let kills = |square| {
                    f.graph
                        .tasks()
                        .filter(|t| matches!(t.op(), TaskOp::Tpqrt { ts, .. } if ts == square))
                        .count()
                };
                let sim = simulate(&f.graph, &platform);
                let label = format!("ts={ts_label} {intra_label}/{inter:?}");
                if sim.makespan < best.0 {
                    best = (sim.makespan, label);
                }
                println!(
                    "{ts_label:<4} {intra_label:<10} {:<10} {:>7} {:>9} {:>9} {:>9.4}s {:>10.4}s {:>11.4}s",
                    format!("{inter:?}"),
                    f.graph.len(),
                    kills(true),
                    kills(false),
                    wall,
                    sim.makespan,
                    sim.critical_path,
                );
            }
        }
    }
    println!("\nbest simulated makespan: {} ({:.4}s)", best.1, best.0);
}
