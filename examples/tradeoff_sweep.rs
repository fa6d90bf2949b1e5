//! Sweep the robustness threshold α and print the stability/performance
//! trade-off curve of the Max criterion (a one-matrix slice of Figure 2).
//!
//! ```sh
//! cargo run --release --example tradeoff_sweep [N] [nb]
//! ```

use luqr::{factor, stability, Algorithm, Criterion, FactorOptions};
use luqr_kernels::blas::{gemm, Trans};
use luqr_kernels::Mat;
use luqr_runtime::{simulate, Platform};
use luqr_tile::Grid;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1200);
    let nb: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(80);

    let a = Mat::random(n, n, 17);
    let x_true = Mat::random(n, 1, 18);
    let mut b = Mat::zeros(n, 1);
    gemm(
        Trans::NoTrans,
        Trans::NoTrans,
        1.0,
        &a,
        &x_true,
        0.0,
        &mut b,
    );
    let platform = Platform::dancer();

    // LUPP reference for relative stability.
    let lupp = {
        let opts = FactorOptions {
            nb,
            grid: Grid::new(4, 4),
            algorithm: Algorithm::Lupp,
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        stability::hpl3(&a, &f.solution(), &b)
    };
    println!("N = {n}, nb = {nb}; LUPP HPL3 = {lupp:.3e}\n");
    println!(
        "{:>9} {:>7} {:>14} {:>12} {:>12}",
        "alpha", "%LU", "rel. HPL3", "sim GFLOP/s", "%peak"
    );

    for alpha in [0.0, 50.0, 200.0, 1000.0, 4000.0, 10000.0, f64::INFINITY] {
        let opts = FactorOptions {
            nb,
            grid: Grid::new(4, 4),
            algorithm: Algorithm::LuQr(Criterion::Max { alpha }),
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        let h = stability::hpl3(&a, &f.solution(), &b);
        let sim = simulate(&f.graph, &platform);
        println!(
            "{:>9} {:>6.0}% {:>14.3} {:>12.1} {:>11.1}%",
            if alpha.is_infinite() {
                "inf".to_string()
            } else {
                format!("{alpha}")
            },
            100.0 * f.lu_step_fraction(),
            stability::relative_hpl3(h, lupp),
            sim.gflops_normalized(f.nominal_flops()),
            100.0 * sim.gflops() / platform.peak_gflops(),
        );
    }
}
