//! # luqr — hybrid LU-QR dense linear solvers
//!
//! A reproduction of **"Designing LU-QR hybrid solvers for performance and
//! stability"** (Faverge, Herrmann, Langou, Lowery, Robert, Dongarra —
//! IPDPS 2014). The hybrid factorization decides, at *every* elimination
//! step, between an LU step (cheap: `2/3 nb³`-class kernels, embarrassingly
//! parallel update) and a QR step (always stable, twice the flops), based
//! on a robustness criterion evaluated on the panel with no global
//! communication.
//!
//! ```
//! use luqr::{factor, Algorithm, Criterion, FactorOptions};
//! use luqr_kernels::Mat;
//!
//! let n = 64;
//! let a = Mat::random(n, n, 42);
//! let b = Mat::random(n, 1, 7);
//! let opts = FactorOptions {
//!     nb: 16,
//!     algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
//!     ..FactorOptions::default()
//! };
//! let f = factor(&a, &b, &opts);
//! let x = f.solution();
//! assert!(luqr::stability::hpl3(&a, &x, &b) < 10.0);
//! ```
//!
//! The same factorization runs three ways, bitwise alike: [`factor`] builds
//! and executes the whole task graph; [`factor_stream`] /
//! [`factor_stream_with`] unroll it through a bounded window, each task
//! placed on a node of `opts.grid` (per-link message accounting in
//! `report.link_msgs`); [`factor_stream_net`] performs it over a real
//! transport. Virtual time on a simulated cluster is one thing: replaying
//! [`Factorization::graph`] with [`luqr_runtime::simulate`].
//!
//! Module map:
//! * [`criteria`] — Max / Sum / MUMPS / Random robustness criteria (§III);
//! * [`trees`] — reduction trees for QR steps (§II-B, §IV);
//! * [`panel`] — diagonal-domain trial factorization (§II-A);
//! * [`builder`] — per-step task planners ([`builder::StepPlanner`]) for
//!   the hybrid and all four baselines (LU NoPiv, LU IncPiv, LUPP, HQR)
//!   (§IV, Figure 1), dispatched through [`planner_for`]; a planner emits
//!   [`TaskOp`] descriptors ([`op`]) — everything else about a task is
//!   derived from its descriptor against the run's [`state`];
//! * [`net`] — real-transport distributed runs: SPMD ranks over loopback
//!   mailboxes or Unix-domain sockets, in-process or as `luqr-worker`
//!   processes;
//! * [`solve`] / [`stability`] — augmented-rhs solve and HPL3 metrics (§V).

pub mod builder;
pub mod config;
pub mod criteria;
mod edges;
mod interp;
pub mod keys;
pub mod net;
pub mod op;
pub mod panel;
pub mod solve;
pub mod stability;
pub mod state;
pub mod trees;

pub use builder::stream_source::PlannerStepSource;
pub use builder::{Inserter, StepPlanner};
pub use config::{Algorithm, Decision, FactorOptions, LuVariant, PivotScope, StepRecord};
pub use criteria::Criterion;
pub use net::{
    factor_stream_net, factor_stream_net_opts, factor_stream_net_rank, NetTransportKind,
};
pub use op::{Gate, TaskOp};
pub use state::RunCtx;
pub use trees::{TreeConfig, TreeKind};

use std::sync::Arc;

use luqr_kernels::Mat;
use luqr_runtime::stream::{StepSource, StreamReport};
use luqr_runtime::trace::TraceOptions;
use luqr_runtime::{execute, ExecReport, Platform};
use luqr_tile::TiledMatrix;

pub use luqr_runtime::{
    AttribBuckets, Attribution, LinkMsgStats, LinkSpec, LinkTraffic, MsgStats, NetReport, NodeSpec,
    Probe, ProbeReport, SchedPolicy, StreamOptions, TraceEvent, TransportError,
};

/// A batch task graph of [`TaskOp`]s.
pub type Graph = luqr_runtime::Graph<TaskOp>;

/// A completed factorization of an augmented system `[A | B]`.
pub struct Factorization {
    /// The factored augmented matrix (upper triangle = `U`/`R`; below lives
    /// whatever the eliminations left there).
    pub aug: TiledMatrix,
    /// The executed task graph: replay it on a virtual platform with
    /// [`luqr_runtime::simulate`] (insertion order),
    /// [`luqr_runtime::simulate_with`] (a scheduling policy) or
    /// [`luqr_runtime::simulate_probed`] (the same, with metrics), and
    /// render the replay with [`luqr_runtime::trace::to_chrome_trace_with`].
    pub graph: Graph,
    /// Executor statistics.
    pub exec: ExecReport,
    /// Per-step criterion decisions (hybrid algorithm only; empty for the
    /// baselines).
    pub records: Vec<StepRecord>,
    /// First numerical breakdown, if any: a zero pivot an LU kernel met
    /// or, when no kernel flagged one, the first zero or non-finite
    /// diagonal entry of the triangular factor (a singular `A` under HQR).
    pub error: Option<String>,
    /// Order of `A`.
    pub n: usize,
    /// Right-hand-side columns carried through the factorization.
    pub nrhs: usize,
    /// The algorithm that produced this factorization.
    pub algorithm: Algorithm,
}

impl Factorization {
    /// Back-substitute for the solution of `A x = B`.
    pub fn solution(&self) -> Mat {
        solve::back_substitute(&self.aug, self.n, self.nrhs)
    }

    /// Fraction of elimination steps that were LU steps.
    pub fn lu_step_fraction(&self) -> f64 {
        lu_step_fraction(&self.algorithm, &self.records)
    }

    /// The nominal LUPP operation count `2/3 N³` the paper normalizes
    /// GFLOP/s against ("fake" performance, Section V-A).
    pub fn nominal_flops(&self) -> f64 {
        2.0 / 3.0 * (self.n as f64).powi(3)
    }

    /// The algorithm's true leading-order operation count
    /// `(2/3 f_LU + 4/3 (1 − f_LU)) N³` (Table II).
    pub fn true_flops(&self) -> f64 {
        let f_lu = self.lu_step_fraction();
        (2.0 / 3.0 * f_lu + 4.0 / 3.0 * (1.0 - f_lu)) * (self.n as f64).powi(3)
    }

    /// Graphviz rendering of one elimination step of the executed graph
    /// (see [`luqr_runtime::dot`]); discarded-branch tasks render gray and
    /// dashed, so the picture shows which branch survived.
    pub fn dot_for_step(&self, k: usize) -> String {
        luqr_runtime::dot::to_dot_step(&self.graph, k)
    }
}

/// The planner registry: map an [`Algorithm`] to the [`StepPlanner`] that
/// inserts its per-step tasks.
///
/// This is the extension seam for new algorithms and step strategies
/// *within this crate*: add a planner module under [`builder`] (the
/// insertion helpers planners need — [`Inserter`]'s graph access, the
/// panel/update task builders — are crate-internal), give it an
/// [`Algorithm`] variant, and register it here.
pub fn planner_for(algorithm: &Algorithm) -> Box<dyn StepPlanner> {
    match algorithm {
        Algorithm::LuQr(_) => Box::new(builder::hybrid::HybridPlanner),
        Algorithm::LuNoPiv => Box::new(builder::lu::LuSimplePlanner::nopiv()),
        Algorithm::Lupp => Box::new(builder::lu::LuSimplePlanner::partial_pivoting()),
        Algorithm::LuIncPiv => Box::new(builder::incpiv::IncPivPlanner),
        Algorithm::Hqr => Box::new(builder::hqr::HqrPlanner),
    }
}

/// What every `factor*` entry point does before it plans: check the input
/// shapes, and give the packed-GEMM engine the same worker budget as the
/// executor so large trailing updates can split across threads
/// deterministically. Returns the order of `a`.
fn prelude(a: &Mat, rhs: &Mat, opts: &FactorOptions) -> usize {
    let n = a.rows();
    assert_eq!(a.cols(), n, "A must be square");
    assert_eq!(rhs.rows(), n, "rhs row mismatch");
    assert!(rhs.cols() >= 1, "need at least one rhs column");
    assert!(opts.nb >= 2, "tile size must be at least 2");
    luqr_kernels::gemm_kernel::set_kernel_threads(opts.threads.max(1));
    n
}

/// What every `factor*` entry point reads back after the run: the per-step
/// records in step order, and the first numerical breakdown. `result` is
/// the factored matrix if this run holds it; there, a run no kernel flagged
/// still broke down if its triangular factor is singular (HQR has no pivot
/// to find zero), at the first zero or non-finite diagonal entry.
fn epilogue(
    shared: &state::SharedState,
    result: Option<&TiledMatrix>,
) -> (Vec<StepRecord>, Option<String>) {
    let mut records = shared.records.lock().clone();
    records.sort_by_key(|r| r.k);
    let flagged = shared.error.lock().clone();
    let error = flagged.or_else(|| result.and_then(singular_column));
    (records, error)
}

/// The first column whose diagonal entry in `aug`'s triangular factor is
/// zero or not finite, as a breakdown message.
fn singular_column(aug: &TiledMatrix) -> Option<String> {
    (0..aug.mt()).find_map(|k| {
        let tile = aug.tile(k, k);
        let t = tile.lock();
        let c = (0..aug.tile_rows(k)).find(|&c| t[(c, c)] == 0.0 || !t[(c, c)].is_finite())?;
        let (col, d) = (k * aug.nb() + c, t[(c, c)]);
        Some(format!(
            "singular triangular factor: diagonal entry {col} is {d}"
        ))
    })
}

/// Factor `[A | rhs]` with the configured algorithm and solve-ready output.
///
/// `a` must be square; `rhs` must have the same row count and at least one
/// column (the paper's augmented-matrix workflow always carries the
/// right-hand side through the factorization).
pub fn factor(a: &Mat, rhs: &Mat, opts: &FactorOptions) -> Factorization {
    let n = prelude(a, rhs, opts);

    let aug = TiledMatrix::from_dense_augmented(a, rhs, opts.nb);
    let nt_a = aug.nt() - rhs.cols().div_ceil(opts.nb);
    let (graph, shared) = builder::build_graph(&aug, nt_a, opts);
    let exec = execute(&graph, opts.threads);
    let (records, error) = epilogue(&shared, Some(&aug));
    Factorization {
        aug,
        graph,
        exec,
        records,
        error,
        n,
        nrhs: rhs.cols(),
        algorithm: opts.algorithm.clone(),
    }
}

/// Convenience: factor and immediately back-substitute.
pub fn factor_solve(a: &Mat, rhs: &Mat, opts: &FactorOptions) -> (Mat, Factorization) {
    let f = factor(a, rhs, opts);
    let x = f.solution();
    (x, f)
}

/// A factorization produced by the *streaming* runtime.
///
/// Unlike [`Factorization`] there is no retained task graph: task records
/// were reclaimed as they completed (that bounded memory was the point), so
/// there is no graph to replay or export to DOT — replay the same
/// factorization's batch graph for virtual time. Everything numerical — the
/// factored matrix, solution, criterion records — is identical to the
/// batch path, bitwise.
pub struct StreamFactorization {
    /// The factored augmented matrix.
    pub aug: TiledMatrix,
    /// Streaming-executor statistics (peak live tasks / steps, totals).
    pub report: StreamReport,
    /// Per-step criterion decisions (hybrid algorithm only).
    pub records: Vec<StepRecord>,
    /// First numerical breakdown, if any, as in [`Factorization::error`]
    /// (the diagonal is scanned on the rank that holds the result).
    pub error: Option<String>,
    /// Order of `A`.
    pub n: usize,
    /// Right-hand-side columns carried through the factorization.
    pub nrhs: usize,
    /// The algorithm that produced this factorization.
    pub algorithm: Algorithm,
    /// The context the run's ops were interpreted against.
    pub(crate) ctx: Arc<RunCtx>,
    /// Whether `aug` holds the result. `false` on every rank but 0 of a
    /// real-transport run: a rank's mirror is its share of the matrix, and
    /// the end-of-run hand-off ships the result to rank 0 only.
    pub(crate) holds_result: bool,
}

impl StreamFactorization {
    /// Back-substitute for the solution of `A x = B`.
    ///
    /// Panics on a rank other than 0 of a real-transport run
    /// ([`factor_stream_net_rank`]), whose mirror never held the result.
    pub fn solution(&self) -> Mat {
        assert!(
            self.holds_result,
            "only rank 0 holds the result of a distributed run: this rank's mirror is its \
             share of the matrix, which cannot be back-substituted"
        );
        solve::back_substitute(&self.aug, self.n, self.nrhs)
    }

    /// The context the run's ops were interpreted against: every step's
    /// plan, and no step's data cells once the run has drained
    /// ([`RunCtx::live_steps`]).
    pub fn ctx(&self) -> &RunCtx {
        &self.ctx
    }

    /// Fraction of elimination steps that were LU steps.
    pub fn lu_step_fraction(&self) -> f64 {
        lu_step_fraction(&self.algorithm, &self.records)
    }

    /// Chrome trace-event JSON of the recorded execution spans (empty run
    /// unless the factorization was streamed with
    /// [`StreamOptions::trace`] on): windowed runs are inspectable in
    /// `chrome://tracing` like batch runs, with `pid` = virtual node and
    /// `tid` = worker thread. Given a platform, node lanes are named by its
    /// [`NodeSpec`]s; they carry no policy stamp, because the host workers
    /// pop by critical-path depth, not by a virtual-time policy.
    pub fn chrome_trace(&self, platform: Option<&Platform>) -> String {
        luqr_runtime::render_chrome_trace(
            &self.report.trace,
            &TraceOptions {
                platform,
                ..TraceOptions::default()
            },
        )
    }
}

/// Fraction of elimination steps that were LU steps: counted from the
/// hybrid's per-step records; by definition 0 for HQR and 1 for the LU
/// baselines.
fn lu_step_fraction(algorithm: &Algorithm, records: &[StepRecord]) -> f64 {
    match algorithm {
        Algorithm::LuQr(_) => {
            if records.is_empty() {
                return 0.0;
            }
            let lus = records
                .iter()
                .filter(|r| r.decision == Decision::Lu)
                .count();
            lus as f64 / records.len() as f64
        }
        Algorithm::Hqr => 0.0,
        _ => 1.0,
    }
}

/// Factor `[A | rhs]` with the **streaming runtime**: the task graph is
/// unrolled online with at most `window` consecutive elimination steps
/// materialized, completed steps are retired to reclaim memory, and the
/// hybrid's LU/QR criterion is consumed at the panel-ready point so only
/// the chosen branch is ever inserted.
///
/// Numerically identical (bitwise) to [`factor`] for every algorithm and
/// criterion; use it when the full graph would not fit — its memory
/// high-water mark is `report.peak_live_tasks` task records instead of the
/// batch path's O(N³/nb³).
pub fn factor_stream(
    a: &Mat,
    rhs: &Mat,
    opts: &FactorOptions,
    window: usize,
) -> StreamFactorization {
    factor_stream_with(a, rhs, opts, &StreamOptions::fixed(window, opts.threads))
}

/// Factor `[A | rhs]` with the streaming runtime under a full
/// [`StreamOptions`] configuration: window, per-task trace recording and
/// metrics [`Probe`].
///
/// Each task is placed on a virtual node of `opts.grid` (owner-computes):
/// cross-node dependencies become data / decision / retirement messages,
/// counted in `report.msgs` and per link in `report.link_msgs` (the
/// hybrid's decision broadcast from the panel owner as in the paper). The
/// payload messages on every link are the `link_messages` of
/// [`luqr_runtime::simulate`] replaying [`factor`]'s graph of the same
/// system, which is where this run's virtual time comes from. Numerics are
/// bitwise [`factor`]'s whatever the options.
pub fn factor_stream_with(
    a: &Mat,
    rhs: &Mat,
    opts: &FactorOptions,
    stream_opts: &StreamOptions,
) -> StreamFactorization {
    let n = prelude(a, rhs, opts);

    let aug = TiledMatrix::from_dense_augmented(a, rhs, opts.nb);
    let nt_a = aug.nt() - rhs.cols().div_ceil(opts.nb);
    let mut source = PlannerStepSource::new(&aug, nt_a, opts);
    let report = luqr_runtime::stream::execute_with(&mut source, stream_opts);
    let (records, error) = epilogue(source.shared(), Some(&aug));
    StreamFactorization {
        aug,
        report,
        records,
        error,
        n,
        nrhs: rhs.cols(),
        algorithm: opts.algorithm.clone(),
        ctx: source.context(),
        holds_result: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luqr_tile::Grid;

    fn well_conditioned(n: usize, seed: u64) -> Mat {
        // Random + dominant diagonal: every algorithm must nail this.
        let mut a = Mat::random(n, n, seed);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    fn check_solves(a: &Mat, opts: &FactorOptions, tol: f64) {
        let n = a.rows();
        let x_true = Mat::random(n, 2, 99);
        let mut b = Mat::zeros(n, 2);
        luqr_kernels::blas::gemm(
            luqr_kernels::Trans::NoTrans,
            luqr_kernels::Trans::NoTrans,
            1.0,
            a,
            &x_true,
            0.0,
            &mut b,
        );
        let (x, f) = factor_solve(a, &b, opts);
        assert!(
            f.error.is_none(),
            "{}: unexpected failure {:?}",
            opts.algorithm.name(),
            f.error
        );
        let err = x.max_abs_diff(&x_true);
        assert!(
            err < tol,
            "{}: solution error {err} (tol {tol})",
            opts.algorithm.name()
        );
    }

    #[test]
    fn all_algorithms_solve_easy_system() {
        let a = well_conditioned(48, 5);
        for algorithm in [
            Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
            Algorithm::LuQr(Criterion::Sum { alpha: 100.0 }),
            Algorithm::LuQr(Criterion::Mumps { alpha: 100.0 }),
            Algorithm::LuQr(Criterion::AlwaysQr),
            Algorithm::LuQr(Criterion::AlwaysLu),
            Algorithm::LuNoPiv,
            Algorithm::LuIncPiv,
            Algorithm::Lupp,
            Algorithm::Hqr,
        ] {
            let opts = FactorOptions {
                nb: 8,
                ib: 4,
                threads: 2,
                algorithm,
                ..FactorOptions::default()
            };
            check_solves(&a, &opts, 1e-8);
        }
    }

    #[test]
    fn hybrid_on_grid_with_ragged_tiles() {
        // N = 50 with nb = 8 → 7 tile rows, last of size 2; 2x2 grid.
        let a = well_conditioned(50, 6);
        for criterion in [
            Criterion::Max { alpha: 10.0 },
            Criterion::AlwaysQr,
            Criterion::Random {
                lu_fraction: 0.5,
                seed: 3,
            },
        ] {
            let opts = FactorOptions {
                nb: 8,
                ib: 4,
                threads: 2,
                grid: Grid::new(2, 2),
                algorithm: Algorithm::LuQr(criterion),
                ..FactorOptions::default()
            };
            check_solves(&a, &opts, 1e-8);
        }
    }

    #[test]
    fn dominant_matrix_takes_all_lu_steps() {
        // Block diagonally dominant ⇒ Max criterion at α = 1 keeps LU
        // everywhere (paper Section III-B).
        let a = well_conditioned(40, 7);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: 1.0 }),
            ..FactorOptions::default()
        };
        let b = Mat::random(40, 1, 1);
        let f = factor(&a, &b, &opts);
        assert_eq!(f.lu_step_fraction(), 1.0, "records: {:?}", f.records);
    }

    #[test]
    fn alpha_zero_takes_all_qr_steps() {
        let a = well_conditioned(40, 8);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: 0.0 }),
            ..FactorOptions::default()
        };
        let b = Mat::random(40, 1, 2);
        let f = factor(&a, &b, &opts);
        assert_eq!(f.lu_step_fraction(), 0.0);
        // And the result is still correct.
        let x = f.solution();
        assert!(stability::hpl3(&a, &x, &b) < 10.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let a = well_conditioned(32, 9);
        let b = Mat::random(32, 1, 3);
        let mk = |threads| {
            let opts = FactorOptions {
                nb: 8,
                ib: 4,
                threads,
                grid: Grid::new(2, 1),
                algorithm: Algorithm::LuQr(Criterion::Max { alpha: 5.0 }),
                ..FactorOptions::default()
            };
            factor(&a, &b, &opts).solution()
        };
        let x1 = mk(1);
        let x4 = mk(4);
        assert_eq!(x1.max_abs_diff(&x4), 0.0, "thread count changed the result");
    }

    #[test]
    fn simulate_executed_graph() {
        let a = well_conditioned(40, 11);
        let b = Mat::random(40, 1, 4);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            grid: Grid::new(2, 2),
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        let sim = luqr_runtime::simulate(&f.graph, &Platform::dancer());
        assert!(sim.makespan > 0.0);
        assert!(sim.makespan >= sim.critical_path - 1e-12);
        assert!(sim.total_flops > 0.0);
        assert!(sim.messages > 0, "2x2 grid must communicate");
    }

    #[test]
    fn flops_accounting() {
        let a = well_conditioned(32, 12);
        let b = Mat::random(32, 1, 5);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            algorithm: Algorithm::Hqr,
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        assert_eq!(f.lu_step_fraction(), 0.0);
        assert!((f.true_flops() - 2.0 * f.nominal_flops()).abs() < 1e-6);
    }

    #[test]
    fn planner_registry_covers_every_algorithm() {
        let cases = [
            (
                Algorithm::LuQr(Criterion::Max { alpha: 1.0 }),
                "hybrid-luqr",
            ),
            (Algorithm::LuNoPiv, "lu-nopiv"),
            (Algorithm::Lupp, "lupp"),
            (Algorithm::LuIncPiv, "lu-incpiv"),
            (Algorithm::Hqr, "hqr"),
        ];
        for (algorithm, expected) in cases {
            assert_eq!(planner_for(&algorithm).name(), expected);
        }
    }

    #[test]
    fn dot_export_for_one_step() {
        let a = well_conditioned(24, 13);
        let b = Mat::random(24, 1, 6);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        let dot = f.dot_for_step(0);
        assert!(dot.contains("PANEL(k=0)"));
        assert!(dot.contains("BACKUP"));
        assert!(!dot.contains("k=1)"));
    }
}
