//! The bits of the solution, per configuration: one line
//! `config → hash(x_batch) hash(x_stream)` for 28 fixed systems, so that
//! "this kernel change is bitwise the parent's" is `diff` of two outputs —
//! build this bin at both commits (it uses only the public API), run each
//! once, compare.
//!
//! The configurations are the ones a tile-kernel change can reach through
//! different code:
//!
//! * the 12 `builder_parity` fixtures (n = 50 in ragged 8-tiles, 2 × 2
//!   grid, two right-hand sides): every algorithm, criterion, pivot scope
//!   and LU variant;
//! * n = 192, nb = 16 × HQR / `AlwaysQr` / `LuQr(Max)` × TS domains of 1
//!   and 4 × ib ∈ {5, 16}: small tiles, every QR kernel, an inner block that
//!   divides nothing;
//! * n = 500, nb = 96 × HQR / `LuQr(Max)` × ib ∈ {16, 48}: the benchmark's
//!   tile size with a ragged last tile, an inner block wider than one
//!   register tile.
//!
//! A hash is FNV-1a over the `f64` bit patterns of `x`, column-major. The
//! output holds nothing that depends on the machine's speed or on the run,
//! so two runs of one build print the same bytes (CI diffs them); a host
//! with another vector ISA fuses its multiply-adds differently and prints
//! other hashes, which is why the comparison is between two builds on one
//! host and never against a committed file.
//!
//! ```sh
//! cargo run --release -p luqr-bench --bin x_hashes > /tmp/here.txt
//! ```

use luqr::{
    factor_solve, factor_stream, Algorithm, Criterion, FactorOptions, LuVariant, PivotScope,
    TreeConfig,
};
use luqr_bench::system_from;
use luqr_kernels::blas::{gemm, Trans};
use luqr_kernels::Mat;
use luqr_tile::Grid;

fn fnv(x: &Mat) -> u64 {
    x.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Solve batch and streamed (window 3), print the two hashes.
fn line(label: &str, a: &Mat, b: &Mat, opts: &FactorOptions) {
    let (x, f) = factor_solve(a, b, opts);
    assert!(
        f.error.is_none(),
        "{label}: batch run failed: {:?}",
        f.error
    );
    let s = factor_stream(a, b, opts, 3);
    assert!(
        s.error.is_none(),
        "{label}: streamed run failed: {:?}",
        s.error
    );
    println!("{label:<34} → {:016x} {:016x}", fnv(&x), fnv(&s.solution()));
}

/// `builder_parity`'s system: random plus a dominant diagonal, n = 50, two
/// right-hand sides.
fn parity_fixture() -> (Mat, Mat) {
    let n = 50;
    let mut a = Mat::random(n, n, 2014);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    let x_true = Mat::random(n, 2, 41);
    let mut b = Mat::zeros(n, 2);
    gemm(
        Trans::NoTrans,
        Trans::NoTrans,
        1.0,
        &a,
        &x_true,
        0.0,
        &mut b,
    );
    (a, b)
}

fn main() {
    use Algorithm::{Hqr, LuIncPiv, LuNoPiv, LuQr, Lupp};
    use Criterion::{AlwaysLu, AlwaysQr, Max, Mumps, Random, Sum};
    let (dd, dt) = (PivotScope::DiagonalDomain, PivotScope::DiagonalTile);
    let (a1, a2) = (LuVariant::A1, LuVariant::A2);

    let (a, b) = parity_fixture();
    let random = Random {
        lu_fraction: 0.5,
        seed: 7,
    };
    for (label, algorithm, pivot_scope, lu_variant) in [
        ("hybrid-max", LuQr(Max { alpha: 100.0 }), dd, a1),
        ("hybrid-sum", LuQr(Sum { alpha: 100.0 }), dd, a1),
        ("hybrid-mumps", LuQr(Mumps { alpha: 100.0 }), dd, a1),
        ("hybrid-always-lu", LuQr(AlwaysLu), dd, a1),
        ("hybrid-always-qr", LuQr(AlwaysQr), dd, a1),
        ("hybrid-random", LuQr(random), dd, a1),
        ("hybrid-max-tile-scope", LuQr(Max { alpha: 100.0 }), dt, a1),
        ("hybrid-max-a2", LuQr(Max { alpha: 100.0 }), dt, a2),
        ("lu-nopiv", LuNoPiv, dd, a1),
        ("lu-incpiv", LuIncPiv, dd, a1),
        ("lupp", Lupp, dd, a1),
        ("hqr", Hqr, dd, a1),
    ] {
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid: Grid::new(2, 2),
            algorithm,
            pivot_scope,
            lu_variant,
            ..FactorOptions::default()
        };
        line(&format!("parity {label}"), &a, &b, &opts);
    }

    // A plain random matrix: the Max criterion at alpha = 2 takes both
    // branches on it.
    let algorithms = [
        ("hqr", Hqr),
        ("always-qr", LuQr(AlwaysQr)),
        ("max", LuQr(Max { alpha: 2.0 })),
    ];
    let small = system_from(Mat::random(192, 192, 23), 5);
    for (name, algorithm) in &algorithms {
        for ts in [1, 4] {
            for ib in [5, 16] {
                let opts = FactorOptions {
                    nb: 16,
                    ib,
                    grid: Grid::new(2, 2),
                    algorithm: algorithm.clone(),
                    trees: TreeConfig {
                        ts,
                        ..TreeConfig::default()
                    },
                    ..FactorOptions::default()
                };
                let label = format!("n192 nb16 {name} ts{ts} ib{ib}");
                line(&label, &small.a, &small.b, &opts);
            }
        }
    }
    let large = system_from(Mat::random(500, 500, 29), 6);
    for (name, algorithm) in [&algorithms[0], &algorithms[2]] {
        for ib in [16, 48] {
            let opts = FactorOptions {
                nb: 96,
                ib,
                grid: Grid::new(1, 2),
                algorithm: algorithm.clone(),
                ..FactorOptions::default()
            };
            let label = format!("n500 nb96 {name} ib{ib}");
            line(&label, &large.a, &large.b, &opts);
        }
    }
}
