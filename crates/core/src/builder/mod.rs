//! Task-graph construction, organized as pluggable [`StepPlanner`]s.
//!
//! Each factorization algorithm implements [`StepPlanner::plan_step`]: it
//! inserts every task of elimination step `k` (panel through trailing
//! updates, right-hand-side columns included) into the shared [`Inserter`].
//! [`build_graph`] looks the algorithm's planner up in the registry
//! ([`crate::planner_for`]) and drives it once per step, closing each step
//! as one planning phase. One sweep per phase feeds both sinks: the
//! closed-form predecessors of the phase's ops
//! ([`luqr_runtime::TaskOp::for_each_predecessor`]), including the
//! pipelining between consecutive steps, become the batch graph's edges
//! here and the streaming window's links there.
//!
//! The module tree mirrors the algorithm structure:
//! * [`hybrid`] — the paper's LU-QR hybrid (Algorithm 1), including the A2
//!   trial variant;
//! * [`lu`] — the shared LU elimination step (row exchanges, TRSM
//!   eliminate, GEMM update) plus the LU NoPiv / LUPP baselines;
//! * [`incpiv`] — the LU IncPiv baseline (pairwise pivoting);
//! * [`hqr`] — the QR elimination step (hybrid's QR branch and the HQR
//!   baseline);
//! * [`panel`] — panel-phase task insertion shared by the planners (backup,
//!   criterion collection, trial factorization, propagate);
//!
//! The hybrid insertion mirrors Figure 1 of the paper step by step:
//!
//! ```text
//!  BACKUP(i,k)  — save diagonal-domain panel tiles
//!  CRIT(d,k)    — off-domain nodes reduce their panel-column norms
//!  PANEL(k)     — trial LU of the diagonal domain + criterion decision
//!  PROP(i,k)    — restore the panel from backup if the decision was QR
//!  LU branch    — SWPTRSM / TRSM / GEMM   (discarded on a QR decision)
//!  QR branch    — GEQRT / TSQRT / TTQRT / UNMQR / TSMQR / TTMQR
//!                 (discarded on an LU decision)
//! ```
//!
//! Both branches are always present in the graph (the paper's static PTG
//! constraint); branch tasks carry a [`crate::Gate`], which makes them read the
//! decision at run time and either execute or discard themselves.
//!
//! **Tasks are data.** A planner does not build task bodies: it pushes one
//! [`TaskOp`] per task — a `Copy` descriptor `(kind, k, i, j, …, gate)` —
//! into the [`TaskSink`], after publishing the step's
//! `state::StepCells` (the lists an op cannot carry, and the cells
//! the step's tasks communicate through). The op's owner node is derived
//! from it here, at the current distribution; its name, accesses and body
//! are derived by the runtime when it needs them ([`crate::op`],
//! `interp`). A plan is therefore a sequence of small hashable
//! values, identical for the batch graph and the streaming window.

pub mod hqr;
pub mod hybrid;
pub mod incpiv;
pub mod lu;
pub mod panel;
pub mod stream_source;

use std::hash::{Hash, Hasher};

use luqr_kernels::Mat;
use luqr_runtime::hash::IntHasher;
use luqr_runtime::{DataKey, GraphBuilder, TaskId, TaskSink};
use luqr_tile::TiledMatrix;

use crate::config::FactorOptions;
use crate::keys;
use crate::op::TaskOp;
use crate::state::RunCtx;

pub use crate::state::SharedState;

/// Insertion context handed to every planner: the task sink under
/// construction — the batch [`GraphBuilder`] or the streaming window —
/// plus the run's context: the matrix, process grid, and options it
/// describes. All ownership and panel-domain queries go through the
/// context's `grid`.
pub struct Inserter<'a> {
    pub(crate) b: &'a mut (dyn TaskSink<TaskOp> + 'a),
    /// The run's context: matrix, options, process grid, per-step cells.
    pub(crate) ctx: &'a RunCtx,
}

impl Inserter<'_> {
    /// Number of tile columns of `A` (elimination steps to plan).
    pub fn num_steps(&self) -> usize {
        self.ctx.nt_a
    }

    /// Insert `op`, placed on its owner on the run's grid.
    pub(crate) fn push(&mut self, op: TaskOp) -> TaskId {
        self.b.push(op.node(self.ctx.grid), op)
    }

    /// All trailing column indices of step `k` (matrix + rhs tile columns).
    pub(crate) fn trailing(&self, k: usize) -> std::ops::Range<usize> {
        k + 1..self.ctx.aug.nt()
    }
}

/// One factorization algorithm, expressed as a per-step task planner.
///
/// Planners are stateless with respect to the matrix: all per-run context
/// arrives through the [`Inserter`]. [`build_graph`] calls `plan_step` for
/// `k = 0..nt_a` in order; a planner inserts every task of step `k`
/// (including both branch alternatives, for the hybrid) and nothing else.
pub trait StepPlanner {
    /// Planner name for diagnostics and traces.
    fn name(&self) -> &'static str;

    /// Insert all tasks of elimination step `k` into `ins`.
    ///
    /// This is the *batch* entry point: for algorithms with a runtime
    /// branch decision (the hybrid), it inserts **both** branch
    /// alternatives, each gated on the decision datum.
    fn plan_step(&self, k: usize, ins: &mut Inserter<'_>);

    /// Streaming entry point: insert step `k` up to (and including) its
    /// decision-producing task, and return that task's id — or insert the
    /// whole step and return `None` when nothing downstream depends on a
    /// runtime decision (all baselines).
    ///
    /// The streaming driver awaits the returned task, then calls
    /// [`StepPlanner::plan_step_rest`]; what the two halves share lives in
    /// the step's cells.
    fn plan_step_prelude(&self, k: usize, ins: &mut Inserter<'_>) -> Option<TaskId> {
        self.plan_step(k, ins);
        None
    }

    /// Insert the decision-dependent remainder of step `k`. Only called
    /// after the task returned by [`StepPlanner::plan_step_prelude`] has
    /// executed, so the planner can read the recorded decision and insert
    /// **only the chosen branch** — the streaming runtime's online
    /// counterpart of the batch path's insert-both-and-discard.
    fn plan_step_rest(&self, _k: usize, _ins: &mut Inserter<'_>) {}
}

/// Insert the complete factorization of `aug` (an augmented `[A | B]` tiled
/// matrix with `nt_a` tile columns of `A`) into a fresh graph, using the
/// planner registered for `opts.algorithm` (see [`crate::planner_for`]).
///
/// Each step is planned and closed as one phase: the builder takes its
/// edges from the phase's predecessor sweep, the streaming window's
/// ([`luqr_runtime::TaskOp::for_each_predecessor`]). No decision exists
/// yet, so the sweep covers both branches of a hybrid step.
pub fn build_graph(
    aug: &TiledMatrix,
    nt_a: usize,
    opts: &FactorOptions,
) -> (crate::Graph, SharedState) {
    let ctx = RunCtx::new(aug, nt_a, opts);
    let mut b = GraphBuilder::new(ctx.grid.nodes(), std::sync::Arc::clone(&ctx));

    // Declare every tile with its block-cyclic home.
    declare_tiles(&mut b, &ctx);

    let planner = crate::planner_for(&opts.algorithm);
    for k in 0..nt_a {
        let mut ins = Inserter {
            b: &mut b,
            ctx: &ctx,
        };
        planner.plan_step(k, &mut ins);
        b.close_phase(k);
    }
    (b.build(), ctx.shared.clone())
}

/// A fingerprint of what this build plans for an `n x n` system with `nrhs`
/// right-hand sides under `opts`: the tile counts of `[A | B]` and every op
/// of step 0 with its placement (both branches of a hybrid step), hashed.
/// A change to a planner, a reduction tree, a default option or the op
/// encoding moves step 0's ops, so two builds that agree on this plan the
/// same graph — what the processes of a multi-process run must have in
/// common before they exchange a frame ([`crate::net::launch`]).
pub fn plan_fingerprint(n: usize, nrhs: usize, opts: &FactorOptions) -> u64 {
    /// Hashes what is pushed and keeps nothing.
    struct HashSink {
        pushed: TaskId,
        hasher: IntHasher,
    }

    impl TaskSink<TaskOp> for HashSink {
        fn declare(&mut self, _key: DataKey, _bytes: usize, _home_node: usize) {}
        fn push(&mut self, node: usize, op: TaskOp) -> TaskId {
            (node, op).hash(&mut self.hasher);
            self.pushed += 1;
            self.pushed - 1
        }
    }

    // Planning reads the layout only: no tile of the matrix is held.
    let (a, rhs) = (Mat::zeros(n, n), Mat::zeros(n, nrhs));
    let aug = TiledMatrix::from_dense_augmented_where(&a, &rhs, opts.nb, |_, _| false);
    let nt_a = aug.nt() - nrhs.div_ceil(opts.nb);
    let ctx = RunCtx::new(&aug, nt_a, opts);
    let mut sink = HashSink {
        pushed: 0,
        hasher: IntHasher::default(),
    };
    (aug.mt(), aug.nt(), nt_a).hash(&mut sink.hasher);
    let mut ins = Inserter {
        b: &mut sink,
        ctx: &ctx,
    };
    crate::planner_for(&opts.algorithm).plan_step(0, &mut ins);
    sink.hasher.finish()
}

/// Declare every tile of the run's matrix with its distribution-assigned
/// home node (shared by the batch builder and the streaming source).
pub(crate) fn declare_tiles(sink: &mut dyn TaskSink<TaskOp>, ctx: &RunCtx) {
    let aug = &ctx.aug;
    for i in 0..aug.mt() {
        for j in 0..aug.nt() {
            let (tm, tn) = aug.tile_dims(i, j);
            sink.declare(keys::tile(i, j), tm * tn * 8, ctx.grid.owner(i, j));
        }
    }
}
