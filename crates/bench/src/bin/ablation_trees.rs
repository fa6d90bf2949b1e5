//! **Ablation A1** — reduction-tree shapes for the QR steps (paper §IV-b:
//! the default is GREEDY inside nodes, FIBONACCI across nodes, "for its
//! short critical path and good pipelining of consecutive trees").
//!
//! Runs HQR with every intra/inter tree combination and reports the
//! simulated makespan and critical path on the Dancer model.
//!
//! ```sh
//! cargo run --release -p luqr-bench --bin ablation_trees [--n 1600] [--nb 80]
//! ```

use luqr::{factor, Algorithm, FactorOptions, TreeConfig, TreeKind};
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

    println!("Tree ablation — HQR, N = {n}, nb = {nb}, 4x1 grid");
    println!(
        "{:<12} {:<12} {:>11} {:>14} {:>10}",
        "intra", "inter", "makespan", "crit. path", "GFLOP/s"
    );
    let kinds = [
        TreeKind::FlatTs,
        TreeKind::FlatTt,
        TreeKind::Binary,
        TreeKind::Greedy,
        TreeKind::Fibonacci,
    ];
    let mut best = (f64::INFINITY, String::new());
    for intra in kinds {
        for inter in [
            TreeKind::FlatTt,
            TreeKind::Binary,
            TreeKind::Greedy,
            TreeKind::Fibonacci,
        ] {
            let opts = FactorOptions {
                nb,
                grid,
                algorithm: Algorithm::Hqr,
                trees: TreeConfig { intra, inter },
                ..FactorOptions::default()
            };
            let f = factor(&sys.a, &sys.b, &opts);
            let sim = simulate(&f.graph, &platform);
            let label = format!("{intra:?}/{inter:?}");
            if sim.makespan < best.0 {
                best = (sim.makespan, label);
            }
            println!(
                "{:<12} {:<12} {:>10.4}s {:>13.4}s {:>10.1}",
                format!("{intra:?}"),
                format!("{inter:?}"),
                sim.makespan,
                sim.critical_path,
                sim.gflops_normalized(f.nominal_flops()),
            );
        }
    }
    println!("\nbest combination: {} ({:.4}s)", best.1, best.0);
}
