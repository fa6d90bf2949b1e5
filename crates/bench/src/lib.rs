//! Shared harness utilities for the paper-reproduction binaries.
//!
//! Every binary regenerates one table or figure of Faverge et al. (IPDPS
//! 2014); see DESIGN.md's experiment index. The utilities here build test
//! systems, run one algorithm end to end (factor → solve → HPL3 →
//! platform simulation), and format aligned tables.

use luqr::{factor, stability, Algorithm, FactorOptions};
use luqr_kernels::blas::{gemm, Trans};
use luqr_kernels::Mat;
use luqr_runtime::{simulate, Platform};

/// A linear system with a known solution.
pub struct System {
    pub a: Mat,
    pub b: Mat,
    pub x_true: Mat,
}

/// Random system `A x = b` with `A` uniform in `[-1, 1]`.
pub fn random_system(n: usize, seed: u64) -> System {
    let a = Mat::random(n, n, seed);
    system_from(a, seed ^ 0x5eed)
}

/// System with the given matrix and a random exact solution.
pub fn system_from(a: Mat, seed: u64) -> System {
    let n = a.rows();
    let x_true = Mat::random(n, 1, seed);
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
    System { a, b, x_true }
}

/// Everything the experiment tables report about one run.
pub struct RunMetrics {
    /// HPL3 backward error of the computed solution.
    pub hpl3: f64,
    /// Fraction of LU steps (1.0 for the pure-LU baselines).
    pub lu_fraction: f64,
    /// Simulated makespan on the reference platform, seconds.
    pub sim_seconds: f64,
    /// "Fake" GFLOP/s: `2/3 N³ / time` (paper's normalization).
    pub fake_gflops: f64,
    /// "True" GFLOP/s: the algorithm's real leading-order flops over time.
    pub true_gflops: f64,
    /// Inter-node messages in the simulation.
    pub messages: u64,
    /// First numerical failure, if any.
    pub error: Option<String>,
    /// Wall-clock seconds of the actual (host) execution.
    pub wall_seconds: f64,
}

/// Factor + solve + measure one algorithm on one system.
pub fn run(sys: &System, opts: &FactorOptions, platform: &Platform) -> RunMetrics {
    let t0 = std::time::Instant::now();
    let f = factor(&sys.a, &sys.b, opts);
    let wall = t0.elapsed().as_secs_f64();
    let x = f.solution();
    let hpl3 = stability::hpl3(&sys.a, &x, &sys.b);
    let sim = simulate(&f.graph, platform);
    RunMetrics {
        hpl3,
        lu_fraction: f.lu_step_fraction(),
        sim_seconds: sim.makespan,
        fake_gflops: sim.gflops_normalized(f.nominal_flops()),
        true_gflops: sim.gflops_normalized(f.true_flops()),
        messages: sim.messages,
        error: f.error.clone(),
        wall_seconds: wall,
    }
}

/// Geometric mean (for aggregating HPL3 ratios across seeds).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (s / values.len() as f64).exp()
}

/// Format a float for table cells, collapsing breakdowns to "fail".
pub fn cell(v: f64) -> String {
    if v.is_nan() || v.is_infinite() {
        "fail".to_string()
    } else if v == 0.0 {
        "0".to_string()
    } else if !(0.001..10000.0).contains(&v.abs()) {
        format!("{v:.2e}")
    } else {
        format!("{v:.3}")
    }
}

/// Parse `--key value` style flags from the command line.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        let flag = format!("--{key}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn has(&self, key: &str) -> bool {
        let flag = format!("--{key}");
        self.raw.iter().any(|a| a == &flag)
    }
}

/// The experiment-scale defaults: problem size and platform are scaled
/// together (paper: N = 20000, nb = 240, 16 nodes; here: N ≈ 3200, nb = 80,
/// 4 nodes by default) so that the tiles-per-node ratio — which controls
/// how well panels hide behind update waves — is comparable.
pub struct Scale {
    pub n: usize,
    pub nb: usize,
    pub p: usize,
    pub q: usize,
}

impl Scale {
    pub fn from_args(args: &Args) -> Self {
        let full = args.has("full");
        Scale {
            n: args.get("n", if full { 6400 } else { 3200 }),
            nb: args.get("nb", 80),
            p: args.get("p", if full { 4 } else { 2 }),
            q: args.get("q", if full { 4 } else { 2 }),
        }
    }

    pub fn platform(&self) -> Platform {
        Platform::dancer_nodes(self.p * self.q)
    }

    pub fn grid(&self) -> luqr_tile::Grid {
        luqr_tile::Grid::new(self.p, self.q)
    }

    pub fn options(&self, algorithm: Algorithm) -> FactorOptions {
        FactorOptions {
            nb: self.nb,
            grid: self.grid(),
            algorithm,
            ..FactorOptions::default()
        }
    }
}
