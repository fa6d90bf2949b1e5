//! Task-graph construction, organized as pluggable [`StepPlanner`]s.
//!
//! Each factorization algorithm implements [`StepPlanner::plan_step`]: it
//! inserts every task of elimination step `k` (panel through trailing
//! updates, right-hand-side columns included) into the shared [`Inserter`].
//! [`build_graph`] looks the algorithm's planner up in the registry
//! ([`crate::planner_for`]) and drives it once per step; the runtime's
//! hazard inference then yields the full dependency structure, including
//! pipelining between consecutive steps.
//!
//! The module tree mirrors the algorithm structure:
//! * [`hybrid`] — the paper's LU-QR hybrid (Algorithm 1), including the A2
//!   trial variant;
//! * [`lu`] — the shared LU elimination step plus the LU NoPiv / LUPP
//!   baselines;
//! * [`incpiv`] — the LU IncPiv baseline (pairwise pivoting);
//! * [`hqr`] — the QR elimination step (hybrid's QR branch and the HQR
//!   baseline);
//! * [`panel`] — panel-phase task insertion shared by the planners (backup,
//!   criterion collection, trial factorization, propagate);
//! * [`update`] — the shared trailing-update tasks (TRSM eliminate, GEMM).
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
//! constraint); branch tasks are inserted through
//! [`luqr_runtime::TaskBuilder::guard`], which makes them read the decision
//! at run time and either execute or discard themselves.

pub mod hqr;
pub mod hybrid;
pub mod incpiv;
pub mod lu;
pub mod panel;
pub mod stream_source;
pub mod update;

use std::sync::Arc;
use std::sync::OnceLock;

use luqr_kernels::qr::TFactor;
use luqr_kernels::Mat;
use luqr_runtime::hash::IntMap;
use luqr_runtime::{DataKey, GraphBuilder, TaskBuilder, TaskId, TaskSink};
use luqr_tile::{Dist, TiledMatrix};
use parking_lot::Mutex;

use crate::net::PayloadSlot;

use crate::config::{Decision, FactorOptions, StepRecord};
use crate::criteria::DomainCritData;
use crate::keys;
use crate::panel::PanelFactorization;

/// Fast task-name assembly: the builders mint one small `String` per task,
/// and `format!`'s formatting machinery is a measurable slice of
/// graph-construction time on fine-grained graphs. `tname!` concatenates
/// literal segments and indices with plain pushes instead.
macro_rules! tname {
    ($($seg:expr),+ $(,)?) => {{
        let mut s = String::with_capacity(24);
        $(crate::builder::NameSeg::push_to(&$seg, &mut s);)+
        s
    }};
}
pub(crate) use tname;

/// One segment of a task name (see [`tname!`]).
pub(crate) trait NameSeg {
    fn push_to(&self, s: &mut String);
}

impl NameSeg for &str {
    #[inline]
    fn push_to(&self, s: &mut String) {
        s.push_str(self);
    }
}

impl NameSeg for usize {
    #[inline]
    fn push_to(&self, s: &mut String) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut v = *self;
        loop {
            i -= 1;
            buf[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        s.push_str(std::str::from_utf8(&buf[i..]).unwrap());
    }
}

/// Shared state written by tasks and read back by the driver.
#[derive(Clone, Default)]
pub struct SharedState {
    /// Per-step criterion records (hybrid only), pushed in step order.
    pub records: Arc<Mutex<Vec<StepRecord>>>,
    /// First numerical failure observed (zero pivot etc.).
    pub error: Arc<Mutex<Option<String>>>,
    /// Live cells of every declared non-tile datum, registered while
    /// planning — the real-transport layer serializes payloads out of (and
    /// into) these ([`crate::net`]). Harmless off-transport: registration
    /// is a map insert per declared datum.
    pub(crate) payloads: Arc<Mutex<IntMap<DataKey, PayloadSlot>>>,
}

impl SharedState {
    pub(crate) fn fail(&self, msg: String) {
        let mut e = self.error.lock();
        if e.is_none() {
            *e = Some(msg);
        }
    }

    /// Register the live cell behind a declared datum key. Re-registration
    /// overwrites (the hybrid's A2 trial and its QR branch both declare
    /// `tfactor(k,k)`; the later, consumer-captured cell wins).
    pub(crate) fn register_payload(&self, key: DataKey, slot: PayloadSlot) {
        self.payloads.lock().insert(key, slot);
    }
}

/// T-factor produced by a QR kernel, shared between factor and apply tasks.
pub(crate) type TfCell = Arc<Mutex<Option<TFactor>>>;
/// Trial panel factorization, written once by the panel task.
pub(crate) type PanelCell = Arc<OnceLock<PanelFactorization>>;
/// The per-step LU/QR decision, written once by the panel task.
pub(crate) type DecCell = Arc<OnceLock<Decision>>;
/// Backup copy of one panel tile.
pub(crate) type BackupCell = Arc<Mutex<Option<Mat>>>;
/// Criterion data contributed by one off-trial domain.
pub(crate) type CritCell = Arc<OnceLock<DomainCritData>>;

/// One side of the hybrid's per-step branch pair: tasks gated on this
/// execute only when the panel task recorded the matching [`Decision`].
#[derive(Clone)]
pub(crate) struct BranchGate {
    k: usize,
    dec: DecCell,
    want: Decision,
}

impl BranchGate {
    pub(crate) fn lu(k: usize, dec: &DecCell) -> Self {
        BranchGate {
            k,
            dec: Arc::clone(dec),
            want: Decision::Lu,
        }
    }

    pub(crate) fn qr(k: usize, dec: &DecCell) -> Self {
        BranchGate {
            k,
            dec: Arc::clone(dec),
            want: Decision::Qr,
        }
    }
}

/// Gating extension for [`TaskBuilder`]: `gated(None)` inserts the task
/// unconditionally (baseline algorithms); `gated(Some(gate))` makes it a
/// branch task that discards itself when the step's decision differs.
pub(crate) trait Gated: Sized {
    fn gated(self, gate: Option<&BranchGate>) -> Self;
}

impl Gated for TaskBuilder<'_> {
    fn gated(self, gate: Option<&BranchGate>) -> Self {
        match gate {
            None => self,
            Some(g) => {
                let dec = Arc::clone(&g.dec);
                let want = g.want;
                self.guard(keys::decision(g.k), move || {
                    *dec.get().expect("decision missing") == want
                })
            }
        }
    }
}

/// Run `f` on the top-left `rows x cols` of `tile`, copying through a
/// sub-matrix when the tile is larger (border tiles, R-region operations).
pub(crate) fn with_sub<R>(
    tile: &mut Mat,
    rows: usize,
    cols: usize,
    f: impl FnOnce(&mut Mat) -> R,
) -> R {
    if tile.dims() == (rows, cols) {
        f(tile)
    } else {
        let mut s = tile.sub(0, 0, rows, cols);
        let r = f(&mut s);
        tile.set_sub(0, 0, &s);
        r
    }
}

/// Insertion context handed to every planner: the task sink under
/// construction — the batch [`GraphBuilder`] or the streaming window —
/// plus the matrix, distribution, and options it describes. All ownership
/// and panel-domain queries go through `dist`, so a speed-weighted
/// distribution re-shapes every planner's placement without the planners
/// knowing.
pub struct Inserter<'a> {
    pub(crate) b: &'a mut (dyn TaskSink + 'a),
    pub(crate) aug: &'a TiledMatrix,
    pub(crate) nt_a: usize,
    pub(crate) dist: Dist,
    pub(crate) opts: &'a FactorOptions,
    pub(crate) shared: SharedState,
}

impl Inserter<'_> {
    /// Number of tile columns of `A` (elimination steps to plan).
    pub fn num_steps(&self) -> usize {
        self.nt_a
    }

    pub(crate) fn tile_bytes(&self, i: usize, j: usize) -> usize {
        let (tm, tn) = self.aug.tile_dims(i, j);
        tm * tn * 8
    }

    /// All trailing column indices of step `k` (matrix + rhs tile columns).
    pub(crate) fn trailing(&self, k: usize) -> std::ops::Range<usize> {
        k + 1..self.aug.nt()
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
    /// [`StepPlanner::plan_step_rest`]; the planner may stash per-step
    /// state (decision cells, trial metadata) in `&mut self` in between.
    fn plan_step_prelude(&mut self, k: usize, ins: &mut Inserter<'_>) -> Option<TaskId> {
        self.plan_step(k, ins);
        None
    }

    /// Insert the decision-dependent remainder of step `k`. Only called
    /// after the task returned by [`StepPlanner::plan_step_prelude`] has
    /// executed, so the planner can read the recorded decision and insert
    /// **only the chosen branch** — the streaming runtime's online
    /// counterpart of the batch path's insert-both-and-discard.
    fn plan_step_rest(&mut self, _k: usize, _ins: &mut Inserter<'_>) {}
}

/// Insert the complete factorization of `aug` (an augmented `[A | B]` tiled
/// matrix with `nt_a` tile columns of `A`) into a fresh graph, using the
/// planner registered for `opts.algorithm` (see [`crate::planner_for`]).
pub fn build_graph(
    aug: &TiledMatrix,
    nt_a: usize,
    opts: &FactorOptions,
) -> (luqr_runtime::Graph, SharedState) {
    let shared = SharedState::default();
    let dist = opts.tile_dist();
    let mut b = GraphBuilder::new(dist.nodes());

    // Declare every tile with its (possibly weighted) block-cyclic home.
    declare_tiles(&mut b, aug, &dist);

    let mut ins = Inserter {
        b: &mut b,
        aug,
        nt_a,
        dist,
        opts,
        shared: shared.clone(),
    };
    let planner = crate::planner_for(&opts.algorithm);
    for k in 0..nt_a {
        planner.plan_step(k, &mut ins);
    }
    (b.build(), shared)
}

/// Declare every tile of `aug` with its distribution-assigned home node
/// (shared by the batch builder and the streaming source).
pub(crate) fn declare_tiles(sink: &mut dyn TaskSink, aug: &TiledMatrix, dist: &Dist) {
    for i in 0..aug.mt() {
        for j in 0..aug.nt() {
            let (tm, tn) = aug.tile_dims(i, j);
            sink.declare(keys::tile(i, j), tm * tn * 8, dist.owner(i, j));
        }
    }
}
