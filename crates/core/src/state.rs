//! What one factorization run shares between its planner, its tasks and
//! its driver: the tiles, the options, and one table of per-step cells.
//!
//! A [`crate::TaskOp`] carries indices only. Everything else about a step
//! lives in the `StepCells` of that step, in two parts with two
//! lifetimes:
//!
//! * the **plan** (`StepPlan` and the step's LU/QR decision) — the part
//!   of a step's plan that is a list rather than an index (the trial rows,
//!   the criterion and row-exchange groups). A few words per panel row,
//!   kept for the whole run, because names, accesses and owners are
//!   re-derived from it whenever a graph is replayed, simulated or drawn;
//! * the **data** (`StepData`) — what the step's task bodies read and
//!   write besides tiles: the trial panel factorization, panel backups,
//!   criterion data, T-factors, row-exchange snapshots, IncPiv L factors,
//!   indexed by tile row or column. Tile-sized, touched by tasks of the
//!   step only, and dropped by `RunCtx::retire_step` when the last of
//!   them has completed — the batch executor, the streaming window and a
//!   net rank all call it through [`luqr_runtime::TaskOp::retire_step`].
//!   A run therefore holds the data of its live steps, not of every step
//!   so far.
//!
//! The planner publishes a step's cells before it pushes the step's first
//! op; task bodies, access derivation and the payload codec all resolve
//! `(k, row)` through the same table.

use std::sync::{Arc, OnceLock};

use luqr_kernels::incpiv::PairPivot;
use luqr_kernels::{Mat, TFactor};
use luqr_tile::{Grid, TiledMatrix};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use crate::config::{Decision, FactorOptions, StepRecord};
use crate::criteria::{Criterion, DomainCritData};
use crate::panel::PanelFactorization;
use crate::trees::ElimOp;
use crate::Algorithm;

/// Shared state written by tasks and read back by the driver.
#[derive(Clone, Default)]
pub struct SharedState {
    /// Per-step criterion records (hybrid only), pushed in step order.
    pub records: Arc<Mutex<Vec<StepRecord>>>,
    /// First numerical failure observed (zero pivot etc.).
    pub error: Arc<Mutex<Option<String>>>,
}

impl SharedState {
    pub(crate) fn fail(&self, msg: String) {
        let mut e = self.error.lock();
        if e.is_none() {
            *e = Some(msg);
        }
    }
}

/// `n` empty cells.
pub(crate) fn cells<T: Default>(n: usize) -> Vec<T> {
    (0..n).map(|_| T::default()).collect()
}

/// The part of a step's plan that is a list rather than an index. Small,
/// and kept for the whole run: access derivation ([`crate::TaskOp::for_each_access`]),
/// graph replay, the simulator and the DOT / trace renderers re-derive from
/// it after the step's tasks are gone.
#[derive(Default)]
pub(crate) struct StepPlan {
    /// Rows of the panel factorization (hybrid trial, NoPiv, LUPP),
    /// ascending, diagonal tile first.
    pub trial_rows: Vec<usize>,
    /// Off-trial criterion collection: `(node, its panel rows)` per group
    /// (empty when the criterion never looks at those rows).
    pub crit_groups: Vec<(usize, Vec<usize>)>,
    /// Row exchanges of an LU step, one group per grid row holding trial
    /// rows other than the diagonal tile: `(row, offset in the stacked
    /// panel)`.
    pub swap_groups: Vec<Vec<(usize, usize)>>,
    /// Total height of the stacked trial rows.
    pub total_rows: usize,
    /// Nodes holding tiles of the panel column (all-reduce fan-in).
    pub panel_nodes: usize,
    /// A step with a QR branch: its elimination list
    /// ([`crate::trees::elimination_list`]), computed once per step.
    pub elim: Vec<ElimOp>,
    /// The same list in per-row order, for the QR branch's closed-form
    /// edges (`crate::edges`).
    pub elim_rows: RowOrder,
}

impl StepPlan {
    /// The `(row, stack offset)` pairs of exchange group `g`: none for
    /// group 0 (the pivot block itself), `swap_groups[g - 1]` otherwise.
    pub fn swap_rows(&self, g: crate::op::Ix) -> &[(usize, usize)] {
        match g {
            0 => &[],
            g => &self.swap_groups[g as usize - 1],
        }
    }
}

/// An elimination list in per-row order: for panel row `k + r`, the
/// positions in the list of the ops that touch it (a GEQRT touches its row,
/// a kill its victim and its eliminator), ascending.
#[derive(Default)]
pub(crate) struct RowOrder {
    pos: Vec<u32>,
    /// Row `r`'s positions are `pos[start[r]..start[r + 1]]`.
    start: Vec<u32>,
}

impl RowOrder {
    /// The per-row order of step `k`'s elimination list over rows `k..mt`.
    pub fn new(elim: &[ElimOp], k: usize, mt: usize) -> Self {
        let rows = |op: &ElimOp| match *op {
            ElimOp::Geqrt { row } => [Some(row), None],
            ElimOp::Kill {
                victim, eliminator, ..
            } => [Some(victim), Some(eliminator)],
        };
        let mut start = vec![0u32; mt - k + 1];
        for row in elim.iter().flat_map(rows).flatten() {
            start[row - k + 1] += 1;
        }
        for r in 0..mt - k {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut pos = vec![0u32; start[mt - k] as usize];
        for (p, op) in elim.iter().enumerate() {
            for row in rows(op).into_iter().flatten() {
                pos[next[row - k] as usize] = p as u32;
                next[row - k] += 1;
            }
        }
        RowOrder { pos, start }
    }

    /// The list positions of the ops touching row `k + r`, ascending.
    pub fn of(&self, r: usize) -> &[u32] {
        &self.pos[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

/// The cells a step's tasks communicate through. A planner sizes the
/// vectors its step's ops index; the rest stay empty. Only tasks of the
/// step touch them, so they are dropped when the step retires.
#[derive(Default)]
pub(crate) struct StepData {
    /// The panel factorization (pivots, criterion data), written once by
    /// the panel task.
    pub panel: OnceLock<PanelFactorization>,
    /// Criterion data contributed by each off-trial group.
    pub crit: Vec<OnceLock<DomainCritData>>,
    /// By tile row: backup copy of the panel tile.
    pub backup: Vec<Mutex<Option<Mat>>>,
    /// By tile row: T-factor of the row's GEQRT / TSQRT / TTQRT.
    pub tf: Vec<Mutex<Option<TFactor>>>,
    /// By tile row: IncPiv L factor and pairwise pivots of the row's TSTRF.
    pub l: Vec<OnceLock<(Mat, Vec<PairPivot>)>>,
    /// By tile column: pivot-block snapshot for the column's row exchanges.
    pub scratch: Vec<Mutex<Option<Mat>>>,
}

/// Shared access to the data cells of a step that has not retired.
pub(crate) struct StepDataRef<'a>(RwLockReadGuard<'a, Option<StepData>>);

impl std::ops::Deref for StepDataRef<'_> {
    type Target = StepData;

    fn deref(&self) -> &StepData {
        self.0.as_ref().expect("checked when the guard was taken")
    }
}

/// One elimination step: its plan, its decision, and — until it retires —
/// its data cells.
pub(crate) struct StepCells {
    pub plan: StepPlan,
    /// The step's LU/QR decision, written once by the panel task. Kept:
    /// the streaming planner and every gated op read it.
    pub decision: OnceLock<Decision>,
    /// `None` once the step has retired.
    data: RwLock<Option<StepData>>,
}

impl StepCells {
    pub fn new(plan: StepPlan, data: StepData) -> Self {
        StepCells {
            plan,
            decision: OnceLock::new(),
            data: RwLock::new(Some(data)),
        }
    }

    /// The decision, which the caller knows has been taken (it runs after
    /// the panel task, by a hazard edge or by the streaming driver's wait).
    pub fn decided(&self) -> Decision {
        *self.decision.get().expect("decision missing")
    }

    /// The step's data cells, unless the step has retired (the question a
    /// peer's payload poses).
    pub fn try_data(&self) -> Option<StepDataRef<'_>> {
        let guard = self.data.read();
        guard.is_some().then_some(StepDataRef(guard))
    }

    /// The step's data cells, for one of its own tasks: a step retires
    /// after its last task, so they are there.
    pub fn data(&self) -> StepDataRef<'_> {
        self.try_data()
            .expect("a task ran after its step had retired")
    }

    /// Drop the data cells: every task of the step has completed.
    fn release(&self) {
        *self.data.write() = None;
    }
}

/// The per-step cells of one run, by step.
pub(crate) struct StepState {
    steps: Vec<OnceLock<StepCells>>,
}

impl StepState {
    fn new(steps: usize) -> Self {
        StepState {
            steps: cells(steps),
        }
    }

    /// Publish the cells of step `k`. Called by the planner, once per
    /// step, before it pushes any op of the step.
    pub fn open(&self, k: usize, cells: StepCells) -> &StepCells {
        assert!(
            self.steps[k].set(cells).is_ok(),
            "step {k} planned twice in one run"
        );
        self.get(k)
    }

    /// The cells of a planned step.
    pub fn get(&self, k: usize) -> &StepCells {
        self.try_get(k)
            .unwrap_or_else(|| panic!("step {k} has not been planned"))
    }

    /// The cells of step `k`, if there is such a step and it has been
    /// planned (the question a peer's payload key poses).
    pub fn try_get(&self, k: usize) -> Option<&StepCells> {
        self.steps.get(k)?.get()
    }
}

/// The context every [`crate::TaskOp`] of one run is interpreted against.
pub struct RunCtx {
    /// The augmented matrix `[A | B]` (tiles shared with the caller's).
    pub(crate) aug: TiledMatrix,
    /// Tile columns of `A` — the number of elimination steps.
    pub(crate) nt_a: usize,
    pub(crate) opts: FactorOptions,
    /// The process grid tiles are distributed over (`opts.grid`).
    pub(crate) grid: Grid,
    pub(crate) steps: StepState,
    pub(crate) shared: SharedState,
}

impl RunCtx {
    /// Every run's options enter here: a TS domain holds at least its head.
    pub(crate) fn new(aug: &TiledMatrix, nt_a: usize, opts: &FactorOptions) -> Arc<Self> {
        let mut opts = opts.clone();
        opts.trees.ts = opts.trees.ts.max(1);
        Arc::new(RunCtx {
            aug: aug.share(),
            nt_a,
            grid: opts.grid,
            opts,
            steps: StepState::new(nt_a),
            shared: SharedState::default(),
        })
    }

    /// Every task of step `k` has completed: drop the step's data cells
    /// (its plan stays). The one release path of the batch executor, the
    /// streaming window and the net ranks.
    pub(crate) fn retire_step(&self, k: usize) {
        // A step the planner never reached (the run failed first) holds
        // nothing.
        if let Some(cells) = self.steps.try_get(k) {
            cells.release();
        }
    }

    /// Planned steps whose data cells are still held — the steps in
    /// flight during a run, none once it has drained.
    pub fn live_steps(&self) -> usize {
        let held = |s: &OnceLock<StepCells>| s.get().is_some_and(|c| c.try_data().is_some());
        self.steps.steps.iter().filter(|s| held(s)).count()
    }

    /// Size of tile `(i, j)` in bytes.
    pub(crate) fn tile_bytes(&self, i: usize, j: usize) -> usize {
        let (tm, tn) = self.aug.tile_dims(i, j);
        tm * tn * 8
    }

    /// The hybrid's robustness criterion.
    pub(crate) fn criterion(&self) -> &Criterion {
        match &self.opts.algorithm {
            Algorithm::LuQr(c) => c,
            other => panic!("{} has no criterion", other.name()),
        }
    }
}
