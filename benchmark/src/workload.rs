//! The benchmark's inputs and the three execution paths they are pushed
//! through, with the checks every solve must pass.
//!
//! Workloads are *inputs*; timing metrics are *execution paths*. Every
//! workload sends the same `(A, b, FactorOptions)` through the batch
//! executor, the streaming window and the two-rank UDS transport, so the
//! cost a layer adds over the one below is a difference of two numbers on
//! one fixture.

use std::time::Instant;

use luqr::{
    factor_solve, factor_stream, factor_stream_net, stability, Algorithm, Criterion, Decision,
    FactorOptions, NetTransportKind, StepRecord,
};
use luqr_kernels::Mat;
use luqr_tile::Grid;

/// Steps the streaming and net paths keep materialized.
pub const WINDOW: usize = 4;
/// Inner blocking of the QR kernels, on every workload.
pub const IB: usize = 16;
/// A solve whose HPL3 backward error exceeds this counts as failed.
pub const HPL3_LIMIT: f64 = 0.05;
/// Order of every `--quick` problem.
const QUICK_N: usize = 384;

/// Relative distance between the two leading columns of a `Q` panel.
const NEAR_DUPLICATE: f64 = 1e-9;

/// One input: a matrix shape, a tile size, a criterion threshold and the
/// panel pattern that fixes which steps take which branch.
///
/// The benchmark is run under many seeds and its numbers must not depend on
/// which one: a plain random matrix puts every Max-criterion decision within
/// a few percent of its threshold, so the positions of the QR steps — and
/// with them the run time, by ±20 % — change with the seed. Instead the
/// random matrix gets one structural edit per tile column `k`, by
/// `panels[k % len]`:
///
/// * `L`: `n` is added to the tile's diagonal. The panel is dominant, the
///   criterion accepts the LU step.
/// * `Q`: the panel's second column becomes its first plus
///   [`NEAR_DUPLICATE`] × itself. Row operations — all that earlier steps
///   apply to a later panel — keep the two columns nearly dependent, so
///   the diagonal block is nearly singular when its turn comes and the
///   criterion rejects the LU step.
///
/// `alpha` sits between the two classes with a margin of ≥ 600× on either
/// side for every seed tried, so rounding-level kernel changes cannot flip
/// a decision. The last step has no tiles below it and is always LU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub n: usize,
    pub nb: usize,
    pub alpha: f64,
    pub panels: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lu-dominant",
        n: 2880,
        nb: 96,
        alpha: 100.0,
        panels: "L",
        why: "n=2880, nb=96, every panel dominant: all 30 steps take the LU branch, \
              GEMM/TRSM/GETRF do the work, few 72 KiB frames; a QR-kernel change must \
              not move it",
    },
    Workload {
        name: "hybrid-mixed",
        n: 1920,
        nb: 96,
        alpha: 1e6,
        panels: "LQLQL",
        why: "n=1920, nb=96, panels LQLQL: the Max criterion alternates 12 LU and 8 QR \
              steps for every seed, the paper's operating point; both kernel families \
              run, QR kernels dominate the time",
    },
    Workload {
        name: "small-tiles",
        n: 768,
        nb: 16,
        alpha: 1e6,
        panels: "LQQ",
        why: "n=768, nb=16, panels LQQ (17 LU / 31 QR steps): 1.2e5 tiny tasks and 2 KiB \
              frames, the workload where planning, window, hazard tracking and \
              per-message cost are the largest share",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The generated inputs: all the program under test ever sees of a seed.
pub struct Problem {
    pub a: Mat,
    pub b: Mat,
    pub opts: FactorOptions,
}

impl Workload {
    /// The order actually run: `--quick` shrinks every workload to
    /// [`QUICK_N`] (checks only; its numbers are not comparable).
    pub fn order(&self, quick: bool) -> usize {
        if quick {
            self.n.min(QUICK_N)
        } else {
            self.n
        }
    }

    /// Generate `(A, b)` from `seed` and fix the options shared by all
    /// three paths: one thread per rank and a 1×2 grid, so the batch,
    /// stream and net solutions must agree bitwise.
    pub fn problem(&self, seed: u64, quick: bool) -> Problem {
        let n = self.order(quick);
        let mut a = Mat::random(n, n, seed);
        let panels = self.panels.as_bytes();
        for k in 0..n.div_ceil(self.nb) {
            let cols = k * self.nb..((k + 1) * self.nb).min(n);
            match panels[k % panels.len()] {
                b'L' => cols.for_each(|i| a[(i, i)] += n as f64),
                b'Q' if cols.len() >= 2 => {
                    let j = cols.start;
                    for i in 0..n {
                        a[(i, j + 1)] = a[(i, j)] + NEAR_DUPLICATE * a[(i, j + 1)];
                    }
                }
                b'Q' => {}
                other => panic!("panel pattern holds {:?}", other as char),
            }
        }
        let b = Mat::random(n, 1, seed ^ 0x9E37_79B9_7F4A_7C15);
        let opts = FactorOptions {
            nb: self.nb,
            ib: IB,
            grid: Grid::new(1, 2),
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: self.alpha }),
            threads: 1,
            ..FactorOptions::default()
        };
        Problem { a, b, opts }
    }
}

/// An execution path: the same problem through one more layer each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Stream,
    Batch,
    Net,
}

impl Path {
    /// Warm-up and round-robin order. Stream goes first so its memory
    /// high-water mark is sampled before batch materializes a whole graph.
    pub const ALL: [Path; 3] = [Path::Stream, Path::Batch, Path::Net];

    pub fn name(self) -> &'static str {
        match self {
            Path::Stream => "stream",
            Path::Batch => "batch",
            Path::Net => "net",
        }
    }
}

/// What a solve hands to the checks.
pub struct Solved {
    pub x: Mat,
    pub lu_steps: usize,
    pub qr_steps: usize,
    /// Wall time of the public call plus the back-substitution.
    pub seconds: f64,
}

impl Solved {
    /// What every path returns, turned into what the checks take: a
    /// numerical breakdown recorded by the factorization is an `Err`.
    pub fn new(
        x: Mat,
        records: &[StepRecord],
        error: Option<String>,
        seconds: f64,
    ) -> Result<Solved, String> {
        if let Some(e) = error {
            return Err(format!("numerical breakdown: {e}"));
        }
        let lu_steps = records
            .iter()
            .filter(|r| r.decision == Decision::Lu)
            .count();
        Ok(Solved {
            x,
            lu_steps,
            qr_steps: records.len() - lu_steps,
            seconds,
        })
    }
}

/// Run `problem` through `path` with `threads` workers per rank, timing the
/// public entry point and `.solution()`. A transport failure or a numerical
/// breakdown is an `Err`, which the caller counts as a failed solve.
pub fn solve(path: Path, p: &Problem, threads: usize) -> Result<Solved, String> {
    let opts = FactorOptions {
        threads,
        ..p.opts.clone()
    };
    let t0 = Instant::now();
    let (x, records, error) = match path {
        Path::Batch => {
            let (x, f) = factor_solve(&p.a, &p.b, &opts);
            (x, f.records, f.error)
        }
        Path::Stream => {
            let f = factor_stream(&p.a, &p.b, &opts, WINDOW);
            (f.solution(), f.records, f.error)
        }
        Path::Net => {
            let f = factor_stream_net(&p.a, &p.b, &opts, WINDOW, &NetTransportKind::Uds)
                .map_err(|e| format!("transport error: {e}"))?;
            (f.solution(), f.records, f.error)
        }
    };
    Solved::new(x, &records, error, t0.elapsed().as_secs_f64())
}

/// Failure accounting over every solve of a run, warm-ups included.
///
/// The first solve that passes its own checks becomes the reference every
/// later solve must match bitwise (and in LU-step count): same inputs and
/// options, so any difference between paths or repetitions is a bug.
#[derive(Default)]
pub struct Checker {
    reference: Option<Mat>,
    pub attempted: u64,
    pub failed: u64,
    /// HPL3 and `(LU, QR)` step counts of the reference solve.
    pub hpl3: f64,
    pub steps: (usize, usize),
}

impl Checker {
    /// Count one solve; returns its timing when it passed every check.
    pub fn check(
        &mut self,
        what: &str,
        p: &Problem,
        solved: Result<Solved, String>,
    ) -> Option<Solved> {
        self.attempted += 1;
        match self.verdict(p, solved) {
            Ok(s) => Some(s),
            Err(why) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {why}");
                None
            }
        }
    }

    fn verdict(&mut self, p: &Problem, solved: Result<Solved, String>) -> Result<Solved, String> {
        let s = solved?;
        if !s.x.all_finite() {
            return Err("solution is not finite".to_string());
        }
        let hpl3 = stability::hpl3(&p.a, &s.x, &p.b);
        if hpl3.is_nan() || hpl3 > HPL3_LIMIT {
            return Err(format!("HPL3 = {hpl3} exceeds {HPL3_LIMIT}"));
        }
        match &self.reference {
            None => {
                self.reference = Some(s.x.clone());
                self.hpl3 = hpl3;
                self.steps = (s.lu_steps, s.qr_steps);
            }
            Some(x) => {
                if self.steps.0 != s.lu_steps {
                    return Err(format!(
                        "{} LU steps, reference took {}",
                        s.lu_steps, self.steps.0
                    ));
                }
                let same_bits = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
                if !x.as_slice().iter().zip(s.x.as_slice()).all(same_bits) {
                    return Err(format!(
                        "x differs from the reference by {:e} (must be bitwise equal)",
                        x.max_abs_diff(&s.x)
                    ));
                }
            }
        }
        Ok(s)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}
