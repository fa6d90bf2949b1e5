//! The task descriptor: every task a planner emits is one [`TaskOp`] — a
//! kind plus its `(k, i, j, …)` tile indices and a branch gate — and
//! everything else about the task is a function of it: its name, its
//! elimination step, its owner node, its data accesses, its cost (here) and
//! its body (`interp`). Lists an op cannot carry — the trial rows of a
//! panel, the rows of a row-exchange group — are read from the step's
//! `state::StepPlan`, which outlives the step's tasks.

use luqr_kernels::flops::{geqrt_flops, getrf_flops};
use luqr_runtime::{Access, CostClass, DataClass, DataKey, Share, TaskResult, Visit};
use luqr_tile::Grid;

use crate::config::Decision;
use crate::keys::{self, Kind};
use crate::state::RunCtx;

/// Index type of the descriptor's fields (tile rows, tile columns, steps).
pub type Ix = u32;

/// Which side of the hybrid's per-step branch pair an op is on. A gated op
/// reads the step's decision first and executes only when the panel task
/// recorded the matching [`Decision`]; otherwise it is discarded: it does
/// nothing and costs nothing ([`TaskOp::cost`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Unconditional (the baselines, and the hybrid's panel phase).
    None,
    /// LU-branch task.
    Lu,
    /// QR-branch task.
    Qr,
}

impl Gate {
    /// The decision the op waits for, if it is gated.
    pub fn want(self) -> Option<Decision> {
        match self {
            Gate::None => None,
            Gate::Lu => Some(Decision::Lu),
            Gate::Qr => Some(Decision::Qr),
        }
    }
}

/// One task, as data. `k` is always the elimination step; `i` a tile row,
/// `j` a trailing tile column, `v`/`e` the victim and eliminator rows of a
/// QR kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskOp {
    /// Save panel tile `(i, k)` so Propagate can restore it.
    Backup { k: Ix, i: Ix },
    /// Off-trial criterion collection of group `d`, on `node`.
    Crit { k: Ix, d: Ix, node: Ix },
    /// Hybrid trial LU of the diagonal domain + criterion decision (A1).
    Panel { k: Ix },
    /// Hybrid trial QR of the diagonal tile + criterion decision (A2).
    PanelA2 { k: Ix },
    /// Restore panel tile `(i, k)` from its backup on a QR decision.
    Prop { k: Ix, i: Ix },
    /// Baseline panel LU: in the diagonal tile (LU NoPiv) or, `full_panel`,
    /// across the whole panel (LUPP).
    PanelLu { k: Ix, full_panel: bool },
    /// IncPiv diagonal-tile LU.
    Getrf { k: Ix },
    /// Snapshot the pivot-block tile `(k, j)`.
    SwpInit { k: Ix, j: Ix, gate: Gate },
    /// Row exchange of column `j` for exchange group `g` (`0` = inside the
    /// pivot block), on `node`.
    PivSwp {
        k: Ix,
        j: Ix,
        g: Ix,
        node: Ix,
        gate: Gate,
    },
    /// `U_kj = L11⁻¹ (P C)_top`.
    TrsmTop { k: Ix, j: Ix, gate: Gate },
    /// `A_ik <- A_ik U_kk⁻¹`.
    Trsm { k: Ix, i: Ix, gate: Gate },
    /// `A_ij -= A_ik A_kj`.
    Gemm { k: Ix, i: Ix, j: Ix, gate: Gate },
    /// QR of panel tile `(i, k)`.
    Geqrt { k: Ix, i: Ix, gate: Gate },
    /// `A_ij <- Qᵀ A_ij` with the reflectors of tile `(i, k)`.
    Unmqr { k: Ix, i: Ix, j: Ix, gate: Gate },
    /// Variant A2's pivot-row apply `A_kj <- Qᵀ A_kj`.
    Ormqr { k: Ix, j: Ix, gate: Gate },
    /// Kill victim `v` against eliminator `e`: TSQRT (`ts`, square victim)
    /// or TTQRT (triangular victim).
    Tpqrt {
        k: Ix,
        v: Ix,
        e: Ix,
        ts: bool,
        gate: Gate,
    },
    /// The kill's trailing update on rows `e` and `v` of column `j`:
    /// TSMQR or TTMQR.
    Tpmqrt {
        k: Ix,
        v: Ix,
        e: Ix,
        j: Ix,
        ts: bool,
        gate: Gate,
    },
    /// IncPiv: apply the diagonal LU to `(k, j)`.
    Gessm { k: Ix, j: Ix },
    /// IncPiv: pairwise elimination of `(i, k)` against the diagonal.
    Tstrf { k: Ix, i: Ix },
    /// IncPiv: the pairwise update of rows `k` and `i` of column `j`.
    Ssssm { k: Ix, i: Ix, j: Ix },
}

/// A planner's `usize` index as a descriptor field.
pub(crate) fn ix(v: usize) -> Ix {
    debug_assert!(v <= Ix::MAX as usize);
    v as Ix
}

impl TaskOp {
    /// The elimination step the task belongs to.
    pub fn step(self) -> usize {
        use TaskOp::*;
        (match self {
            Backup { k, .. }
            | Crit { k, .. }
            | Panel { k }
            | PanelA2 { k }
            | Prop { k, .. }
            | PanelLu { k, .. }
            | Getrf { k }
            | SwpInit { k, .. }
            | PivSwp { k, .. }
            | TrsmTop { k, .. }
            | Trsm { k, .. }
            | Gemm { k, .. }
            | Geqrt { k, .. }
            | Unmqr { k, .. }
            | Ormqr { k, .. }
            | Tpqrt { k, .. }
            | Tpmqrt { k, .. }
            | Gessm { k, .. }
            | Tstrf { k, .. }
            | Ssssm { k, .. } => k,
        }) as usize
    }

    /// The op's branch gate.
    pub fn gate(self) -> Gate {
        use TaskOp::*;
        match self {
            SwpInit { gate, .. }
            | PivSwp { gate, .. }
            | TrsmTop { gate, .. }
            | Trsm { gate, .. }
            | Gemm { gate, .. }
            | Geqrt { gate, .. }
            | Unmqr { gate, .. }
            | Ormqr { gate, .. }
            | Tpqrt { gate, .. }
            | Tpmqrt { gate, .. } => gate,
            _ => Gate::None,
        }
    }

    /// The node that runs the task on `grid` (owner-computes: the owner of
    /// the tile it mainly writes).
    pub fn node(self, grid: Grid) -> usize {
        use TaskOp::*;
        let owner = |i: Ix, j: Ix| grid.owner(i as usize, j as usize);
        match self {
            Backup { k, i } | Prop { k, i } | Tstrf { k, i } => owner(i, k),
            Trsm { k, i, .. } | Geqrt { k, i, .. } => owner(i, k),
            Crit { node, .. } | PivSwp { node, .. } => node as usize,
            Panel { k } | PanelA2 { k } | PanelLu { k, .. } | Getrf { k } => {
                grid.diag_owner(k as usize)
            }
            SwpInit { k, j, .. } | TrsmTop { k, j, .. } | Ormqr { k, j, .. } | Gessm { k, j } => {
                owner(k, j)
            }
            Gemm { i, j, .. } | Unmqr { i, j, .. } | Ssssm { i, j, .. } => owner(i, j),
            Tpqrt { k, v, .. } => owner(v, k),
            Tpmqrt { v, j, .. } => owner(v, j),
        }
    }

    /// Append the task's name, e.g. `"GEMM(3,4,k=2)"`.
    pub fn write_name(self, out: &mut String) {
        use std::fmt::Write as _;
        use TaskOp::*;
        let written = match self {
            Backup { k, i } => write!(out, "BACKUP({i},k={k})"),
            Crit { k, d, .. } => write!(out, "CRIT(d={d},k={k})"),
            Panel { k } => write!(out, "PANEL(k={k})"),
            PanelA2 { k } => write!(out, "PANELA2(k={k})"),
            Prop { k, i } => write!(out, "PROP({i},k={k})"),
            PanelLu {
                k,
                full_panel: false,
            } => write!(out, "PANELNP(k={k})"),
            PanelLu {
                k,
                full_panel: true,
            } => write!(out, "PANELPP(k={k})"),
            Getrf { k } => write!(out, "GETRF(k={k})"),
            SwpInit { k, j, .. } => write!(out, "SWPINIT({j},k={k})"),
            PivSwp { k, j, node, .. } => write!(out, "PIVSWP(n{node},{j},k={k})"),
            TrsmTop { k, j, .. } => write!(out, "TRSMTOP({j},k={k})"),
            Trsm { k, i, .. } => write!(out, "TRSM({i},k={k})"),
            Gemm { k, i, j, .. } => write!(out, "GEMM({i},{j},k={k})"),
            Geqrt { k, i, .. } => write!(out, "GEQRT({i},k={k})"),
            Unmqr { k, i, j, .. } => write!(out, "UNMQR({i},{j},k={k})"),
            Ormqr { k, j, .. } => write!(out, "ORMQR({j},k={k})"),
            Tpqrt {
                k, v, e, ts: true, ..
            } => write!(out, "TSQRT({v},{e},k={k})"),
            Tpqrt {
                k, v, e, ts: false, ..
            } => write!(out, "TTQRT({v},{e},k={k})"),
            Tpmqrt {
                k,
                v,
                e,
                j,
                ts: true,
                ..
            } => write!(out, "TSMQR({v},{e},{j},k={k})"),
            Tpmqrt {
                k,
                v,
                e,
                j,
                ts: false,
                ..
            } => write!(out, "TTMQR({v},{e},{j},k={k})"),
            Gessm { k, j } => write!(out, "GESSM(k={k},j={j})"),
            Tstrf { k, i } => write!(out, "TSTRF({i},k={k})"),
            Ssssm { k, i, j } => write!(out, "SSSSM({i},{j},k={k})"),
        };
        written.expect("writing to a String cannot fail");
    }

    /// The task's name, e.g. `"GEMM(3,4,k=2)"`.
    pub fn name(self) -> String {
        let mut s = String::with_capacity(24);
        self.write_name(&mut s);
        s
    }

    /// Visit the task's data accesses in declaration order: the decision
    /// read of a gated op first, then the kind's own.
    pub fn for_each_access(self, ctx: &RunCtx, mut f: impl FnMut(Access)) {
        use TaskOp::*;
        let tile = |i: Ix, j: Ix| keys::tile(i as usize, j as usize);
        let k = self.step();
        if self.gate() != Gate::None {
            f(Access::Read(keys::decision(k)));
        }
        let crit_keys = |f: &mut dyn FnMut(Access)| {
            for d in 0..ctx.steps.get(k).plan.crit_groups.len() {
                f(Access::Read(keys::crit_scratch(d, k)));
            }
        };
        match self {
            Backup { i, .. } => {
                f(Access::Read(keys::tile(i as usize, k)));
                f(Access::Mut(keys::backup(i as usize, k)));
            }
            Crit { d, .. } => {
                for &i in &ctx.steps.get(k).plan.crit_groups[d as usize].1 {
                    f(Access::Read(keys::tile(i, k)));
                }
                f(Access::Mut(keys::crit_scratch(d as usize, k)));
            }
            Panel { .. } => {
                for &i in &ctx.steps.get(k).plan.trial_rows {
                    f(Access::Mut(keys::tile(i, k)));
                }
                crit_keys(&mut f);
                f(Access::Mut(keys::pivots(k)));
                f(Access::Mut(keys::decision(k)));
            }
            PanelA2 { .. } => {
                f(Access::Mut(keys::tile(k, k)));
                f(Access::Mut(keys::tfactor(k, k)));
                crit_keys(&mut f);
                f(Access::Mut(keys::pivots(k)));
                f(Access::Mut(keys::decision(k)));
            }
            Prop { i, .. } => {
                f(Access::Read(keys::decision(k)));
                f(Access::Read(keys::backup(i as usize, k)));
                f(Access::Mut(keys::tile(i as usize, k)));
            }
            PanelLu { full_panel, .. } => {
                for &i in &ctx.steps.get(k).plan.trial_rows {
                    f(Access::Mut(keys::tile(i, k)));
                }
                f(Access::Mut(keys::pivots(k)));
                // ScaLAPACK's PDGETRF is bulk-synchronous: the panel of
                // step k starts only after the *entire* trailing update of
                // step k-1 — no lookahead. Model the barrier by an
                // ordering-only access to the whole trailing matrix.
                if full_panel {
                    for i in k..ctx.aug.mt() {
                        for j in k + 1..ctx.aug.nt() {
                            f(Access::Control(keys::tile(i, j)));
                        }
                    }
                }
            }
            Getrf { .. } => {
                f(Access::Mut(keys::tile(k, k)));
                f(Access::Mut(keys::pivots(k)));
            }
            SwpInit { j, .. } => {
                f(Access::Read(keys::tile(k, j as usize)));
                f(Access::Mut(keys::swap_scratch(j as usize, k)));
            }
            PivSwp { j, g, .. } => {
                f(Access::Read(keys::pivots(k)));
                f(Access::Read(keys::swap_scratch(j as usize, k)));
                f(Access::Mut(keys::tile(k, j as usize)));
                for &(i, _) in ctx.steps.get(k).plan.swap_rows(g) {
                    f(Access::Mut(keys::tile(i, j as usize)));
                }
            }
            TrsmTop { j, .. } => {
                f(Access::Read(keys::tile(k, k)));
                f(Access::Mut(keys::tile(k, j as usize)));
            }
            Trsm { i, .. } => {
                f(Access::Read(keys::tile(k, k)));
                f(Access::Mut(keys::tile(i as usize, k)));
            }
            Gemm { k, i, j, .. } => {
                f(Access::Read(tile(i, k)));
                f(Access::Read(tile(k, j)));
                f(Access::Mut(tile(i, j)));
            }
            Geqrt { i, .. } => {
                f(Access::Mut(keys::tile(i as usize, k)));
                f(Access::Mut(keys::tfactor(i as usize, k)));
            }
            Unmqr { k, i, j, .. } => {
                f(Access::Read(tile(i, k)));
                f(Access::Read(keys::tfactor(i as usize, k as usize)));
                f(Access::Mut(tile(i, j)));
            }
            Ormqr { j, .. } => {
                f(Access::Read(keys::tile(k, k)));
                f(Access::Read(keys::tfactor(k, k)));
                f(Access::Mut(keys::tile(k, j as usize)));
            }
            Tpqrt { k, v, e, .. } => {
                f(Access::Mut(tile(e, k)));
                f(Access::Mut(tile(v, k)));
                f(Access::Mut(keys::tfactor(v as usize, k as usize)));
            }
            Tpmqrt { k, v, e, j, .. } => {
                f(Access::Read(tile(v, k)));
                f(Access::Read(keys::tfactor(v as usize, k as usize)));
                f(Access::Mut(tile(e, j)));
                f(Access::Mut(tile(v, j)));
            }
            Gessm { j, .. } => {
                f(Access::Read(keys::pivots(k)));
                f(Access::Read(keys::tile(k, k)));
                f(Access::Mut(keys::tile(k, j as usize)));
            }
            Tstrf { i, .. } => {
                f(Access::Mut(keys::tile(k, k)));
                f(Access::Mut(keys::tile(i as usize, k)));
                f(Access::Mut(keys::incpiv_l(i as usize, k)));
            }
            Ssssm { i, j, .. } => {
                f(Access::Read(keys::incpiv_l(i as usize, k)));
                f(Access::Mut(keys::tile(k, j as usize)));
                f(Access::Mut(keys::tile(i as usize, j as usize)));
            }
        }
    }

    /// The task's cost — flops (bytes for a memory task), class, cores and
    /// synchronization rounds — from the tile dimensions, the step's plan
    /// and its decision: what the executors tally and the platform
    /// simulator prices. A gated op on the losing side of the decision is
    /// discarded. `None` while the cost waits for a decision the step has
    /// not taken: a gated op's, or Propagate's (a restore on QR, nothing on
    /// LU).
    pub fn cost(self, ctx: &RunCtx) -> Option<TaskResult> {
        use CostClass as C;
        use TaskOp::*;
        let k = self.step();
        let cells = ctx.steps.get(k);
        let decision = cells.decision.get().copied();
        let want = self.gate().want();
        if want.is_some_and(|want| decision != Some(want)) {
            return decision.map(|_| TaskResult::discarded());
        }
        let (plan, a) = (&cells.plan, &ctx.aug);
        let rows = |i: Ix| a.tile_rows(i as usize);
        let cols = |j: Ix| a.tile_cols(j as usize);
        let nbk = a.tile_cols(k);
        // Rounds of a criterion / pivot all-reduce over the panel's nodes.
        let rounds = (plan.panel_nodes as f64).log2().ceil().max(0.0) as u32;
        let flops = TaskResult::executed;
        // The hybrid's trial factorization runs the node's multi-threaded
        // kernel (paper §IV), then the criterion all-reduce.
        let trial = |factor: u64| {
            let f = factor as f64 + 2.0 * (nbk * nbk) as f64;
            flops(f, C::PanelFactor)
                .with_cores(u32::MAX)
                .with_latency_events(rounds)
        };
        Some(match self {
            Backup { i, .. } => TaskResult::memory(ctx.tile_bytes(i as usize, k)),
            // One node reduces the column norms of its group's panel tiles.
            Crit { d, .. } => {
                let group = &plan.crit_groups[d as usize].1;
                let area: usize = group.iter().map(|&i| a.tile_rows(i) * nbk).sum();
                flops(2.0 * area as f64, C::Estimate)
            }
            Panel { .. } => trial(getrf_flops(plan.total_rows, nbk)),
            PanelA2 { .. } => trial(geqrt_flops(a.tile_rows(k), nbk)),
            Prop { i, .. } => match decision? {
                Decision::Qr => TaskResult::memory(ctx.tile_bytes(i as usize, k)),
                Decision::Lu => TaskResult::control(),
            },
            // A full-panel LUPP factorization spans the grid column: every
            // pivot search is an all-reduce over its p nodes (the latency
            // the paper blames for LUPP's poor distributed performance).
            PanelLu { full_panel, .. } => {
                let f = flops(getrf_flops(plan.total_rows, nbk) as f64, C::PanelFactor);
                if full_panel {
                    f.with_cores(u32::MAX)
                        .with_latency_events(nbk as u32 * rounds)
                } else {
                    f
                }
            }
            Getrf { .. } => flops(getrf_flops(a.tile_rows(k), nbk) as f64, C::PanelFactor),
            SwpInit { j, .. } | PivSwp { j, .. } => TaskResult::memory(nbk * cols(j) * 8),
            TrsmTop { j, .. } | Gessm { j, .. } => flops((nbk * nbk * cols(j)) as f64, C::Trsm),
            Trsm { i, .. } | Tstrf { i, .. } => flops((rows(i) * nbk * nbk) as f64, C::Trsm),
            Gemm { i, j, .. } | Ssssm { i, j, .. } => {
                flops(2.0 * (rows(i) * cols(j) * nbk) as f64, C::Gemm)
            }
            Geqrt { i, .. } => flops(geqrt_flops(rows(i), nbk) as f64, C::QrFactor),
            Unmqr { i: row, j, .. } | Ormqr { j, k: row, .. } => {
                let (tm, w) = (rows(row), cols(j));
                let kref = tm.min(nbk);
                flops(((4 * tm - 2 * kref) * kref * w) as f64, C::QrApply)
            }
            // TS kills take a full square victim, TT kills a triangular one.
            Tpqrt { v, ts, .. } => {
                let scale = if ts { 2.0 } else { 2.0 / 3.0 };
                flops(scale * (rows(v) * nbk * nbk) as f64, C::QrFactor)
            }
            Tpmqrt { v, j, ts, .. } => {
                let scale = if ts { 4.0 } else { 2.0 };
                flops(scale * (rows(v) * nbk * cols(j)) as f64, C::QrApply)
            }
        })
    }
}

impl luqr_runtime::TaskOp for TaskOp {
    type Ctx = RunCtx;

    fn run(self, ctx: &RunCtx) {
        crate::interp::run(self, ctx);
    }

    fn cost(self, ctx: &RunCtx) -> Option<TaskResult> {
        TaskOp::cost(self, ctx)
    }

    fn step(self, _ctx: &RunCtx) -> Option<usize> {
        Some(TaskOp::step(self))
    }

    fn write_name(self, _ctx: &RunCtx, out: &mut String) {
        TaskOp::write_name(self, out);
    }

    fn for_each_access(self, ctx: &RunCtx, f: impl FnMut(Access)) {
        TaskOp::for_each_access(self, ctx, f);
    }

    fn position(self, ctx: &RunCtx) -> usize {
        self.dense_index(ctx)
    }

    fn for_each_predecessor(
        ctx: &RunCtx,
        step: usize,
        ops: &[Self],
        share: &Share<'_>,
        mut f: impl FnMut(Visit<'_>),
    ) {
        crate::edges::phase_predecessors(ctx, step, ops, share, &mut f);
    }

    fn retire_step(ctx: &RunCtx, step: usize) {
        ctx.retire_step(step);
    }

    /// Cross-node reads of the per-step decision datum are the paper's
    /// criterion broadcast: the distributed window accounts them as
    /// DecisionMsgs.
    fn data_class(_ctx: &RunCtx, key: DataKey) -> DataClass {
        match keys::unpack(key) {
            Some((Kind::Decision, ..)) => DataClass::Decision,
            _ => DataClass::Payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use luqr_runtime::trace::step_index;

    /// One op of every kind (both flavours of the two-name kinds), with
    /// the exact name the planners gave that task before ops existed.
    fn named_ops() -> Vec<(TaskOp, &'static str)> {
        use TaskOp::*;
        let gate = Gate::Lu;
        vec![
            (Backup { k: 2, i: 5 }, "BACKUP(5,k=2)"),
            (
                Crit {
                    k: 3,
                    d: 1,
                    node: 2,
                },
                "CRIT(d=1,k=3)",
            ),
            (Panel { k: 13 }, "PANEL(k=13)"),
            (PanelA2 { k: 4 }, "PANELA2(k=4)"),
            (Prop { k: 0, i: 7 }, "PROP(7,k=0)"),
            (
                PanelLu {
                    k: 6,
                    full_panel: false,
                },
                "PANELNP(k=6)",
            ),
            (
                PanelLu {
                    k: 6,
                    full_panel: true,
                },
                "PANELPP(k=6)",
            ),
            (Getrf { k: 9 }, "GETRF(k=9)"),
            (SwpInit { k: 1, j: 4, gate }, "SWPINIT(4,k=1)"),
            (
                PivSwp {
                    k: 0,
                    j: 5,
                    g: 1,
                    node: 1,
                    gate,
                },
                "PIVSWP(n1,5,k=0)",
            ),
            (TrsmTop { k: 2, j: 3, gate }, "TRSMTOP(3,k=2)"),
            (Trsm { k: 2, i: 11, gate }, "TRSM(11,k=2)"),
            (
                Gemm {
                    k: 2,
                    i: 3,
                    j: 4,
                    gate,
                },
                "GEMM(3,4,k=2)",
            ),
            (
                Geqrt {
                    k: 10,
                    i: 12,
                    gate: Gate::Qr,
                },
                "GEQRT(12,k=10)",
            ),
            (
                Unmqr {
                    k: 1,
                    i: 2,
                    j: 3,
                    gate: Gate::Qr,
                },
                "UNMQR(2,3,k=1)",
            ),
            (Ormqr { k: 1, j: 3, gate }, "ORMQR(3,k=1)"),
            (
                Tpqrt {
                    k: 0,
                    v: 5,
                    e: 4,
                    ts: true,
                    gate: Gate::Qr,
                },
                "TSQRT(5,4,k=0)",
            ),
            (
                Tpqrt {
                    k: 0,
                    v: 5,
                    e: 4,
                    ts: false,
                    gate: Gate::Qr,
                },
                "TTQRT(5,4,k=0)",
            ),
            (
                Tpmqrt {
                    k: 0,
                    v: 5,
                    e: 4,
                    j: 6,
                    ts: true,
                    gate: Gate::None,
                },
                "TSMQR(5,4,6,k=0)",
            ),
            (
                Tpmqrt {
                    k: 0,
                    v: 5,
                    e: 4,
                    j: 6,
                    ts: false,
                    gate: Gate::None,
                },
                "TTMQR(5,4,6,k=0)",
            ),
            (Gessm { k: 3, j: 5 }, "GESSM(k=3,j=5)"),
            (Tstrf { k: 3, i: 8 }, "TSTRF(8,k=3)"),
            (
                Ssssm {
                    k: 3,
                    i: 8,
                    j: 1234567,
                },
                "SSSSM(8,1234567,k=3)",
            ),
        ]
    }

    #[test]
    fn names_are_the_planners_strings_and_steps_what_they_encode() {
        for (op, name) in named_ops() {
            assert_eq!(op.name(), name);
            assert_eq!(Some(op.step()), step_index(name), "{name}");
        }
    }

    #[test]
    fn the_descriptor_is_small_and_hashable() {
        assert!(std::mem::size_of::<TaskOp>() <= 20);
        let ops: std::collections::HashSet<TaskOp> =
            named_ops().into_iter().map(|(op, _)| op).collect();
        assert_eq!(ops.len(), named_ops().len());
    }
}
