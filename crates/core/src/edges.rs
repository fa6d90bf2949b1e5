//! Closed-form edges: the task graph as a parameterized task graph.
//!
//! In the paper's PaRSEC implementation a task is `KIND(k, i, j)` and its
//! inputs and outputs are functions of those indices. Here too: the ops of
//! a planning phase know their predecessors
//! ([`luqr_runtime::TaskOp::for_each_predecessor`]) from their indices,
//! the reduction trees and the lists of their step's `StepPlan`, with no
//! record of what ran or was inserted before them. One sweep per phase
//! feeds both sinks: the batch graph closes each step as one phase with
//! both of its branches, the streaming window a step's prelude and then
//! its chosen branch.
//!
//! **The access sequences.** For every datum, a step's ops touch it in a
//! fixed order, which [`Step`] writes out as a short list of *slots* — one
//! writer, one control access, or a group of readers given by its indices
//! (the GEMMs of a tile row, the PIVSWPs of a column, …). A hybrid step's
//! list is its prelude's, then its LU branch's, then its QR branch's. The
//! batch graph is built before any decision exists and plans both
//! branches, so the QR branch's first write of a tile waits for the LU
//! branch's last readers of it. A stream plans only the branch its
//! decision chose, so once a step's decision is recorded a sweep passes
//! over the chosen branch alone (a QR step's sweep skips the LU branch; an
//! LU step's QR branch lies past the end of its last phase). A tile's
//! lists of consecutive steps join up: every step writes each tile it
//! touches, so one step back is always far enough, and a step's last
//! access to a tile the next step touches is a write. The hazard rules then
//! read off the list: an access depends on the datum's last writer, and a
//! write also on the readers since. Predecessors come a planning phase at
//! a time, in one sweep per datum: for each datum the phase may touch, the
//! sweep reads the step's sequence from the top once, keeping the datum's
//! state — its last writer and the readers since — and visits the accesses
//! of the phase's ops with it. A tile the step has not written yet starts
//! from the step before's last write.
//!
//! **Ids.** Each op also has a dense index within its step, its position
//! in the step's insertion order computed from its kind and indices
//! (`TaskOp::dense_index`): a predecessor is named by its step and that
//! position, which the batch builder maps to a task id with one addition
//! (the step's start) and the window looks up in its live step's table.

use std::ops::ControlFlow::{self, Break, Continue};
use std::ops::Range;

use luqr_runtime::{Access, Pred, Routed, Share, Visit};

use crate::config::{Decision, LuVariant};
use crate::keys::{self, Kind};
use crate::op::{ix, Gate, Ix, TaskOp};
use crate::state::{RunCtx, StepPlan};
use crate::trees::ElimOp;
use crate::Algorithm;

type Flow = ControlFlow<()>;

impl TaskOp {
    /// The op's position in its step's insertion order.
    pub(crate) fn dense_index(self, ctx: &RunCtx) -> usize {
        Step::new(ctx, self.step()).dense(self)
    }
}

/// [`luqr_runtime::TaskOp::for_each_predecessor`]: the accesses of `ops`,
/// one phase of step `k`, visited by one sweep over each datum the phase
/// may touch and `share` sweeps, as far as `share` visits them.
pub(crate) fn phase_predecessors(
    ctx: &RunCtx,
    k: usize,
    ops: &[TaskOp],
    share: &Share<'_>,
    f: &mut impl FnMut(Visit<'_>),
) {
    let Some(&first) = ops.first() else {
        return;
    };
    let st = Step::new(ctx, k);
    let lo = st.dense(first);
    debug_assert!(
        ops.iter()
            .enumerate()
            .all(|(n, &op)| op.step() == k && st.dense(op) == lo + n),
        "a phase of step {k} holds consecutive positions from {lo}"
    );
    debug_assert!(
        share.of().is_none()
            || ops
                .iter()
                .enumerate()
                .all(|(n, op)| op.node(ctx.grid) == share.node(n)),
        "the phase's ops are placed where their closed form says"
    );
    let phase = lo..lo + ops.len();
    // A debug build checks what is visited of every op: each access to a
    // swept datum once if the op is visited in full, else reads only.
    #[cfg(debug_assertions)]
    let (mut visits, f) = (vec![(0usize, false); ops.len()], f);
    #[cfg(debug_assertions)]
    let f = &mut |v: Visit<'_>| {
        visits[v.op].0 += 1;
        visits[v.op].1 |= !matches!(v.access, Access::Read(_));
        f(v);
    };
    let mut sweep = Sweep::new(&st, phase.clone(), share, f);
    st.phase_data(&phase, &mut |kind, a, b| {
        if share.sweeps(keys::pack(kind, a, b)) {
            sweep.datum(kind, a, b);
        }
    });
    #[cfg(debug_assertions)]
    for (n, (op, (visited, other))) in ops.iter().zip(visits).enumerate() {
        let (mut accesses, mut reads) = (0, 0);
        op.for_each_access(ctx, |a| {
            let swept = usize::from(share.sweeps(a.key()));
            accesses += swept;
            reads += swept * usize::from(matches!(a, Access::Read(_)));
        });
        let routing = !other && visited <= reads;
        assert!(
            if share.full(n) {
                accesses == visited
            } else {
                routing
            },
            "the sweep of step {k}'s phase from {lo}: {op:?}, {visited} visits"
        );
    }
}

/// A phase sweep: the visits of the ops at positions `phase` of a step,
/// datum by datum, each access with the datum's state as the step's access
/// sequence leaves it — its last writer and the readers since.
struct Sweep<'s, 'f, F> {
    st: &'s Step<'s>,
    /// The step before, whose last write of a tile is the tile's state
    /// before this step.
    prev: Option<Step<'s>>,
    phase: Range<usize>,
    share: &'s Share<'s>,
    /// The swept datum's readers since its last write.
    readers: Vec<Pred>,
    /// Which nodes the swept datum's current version was visited for.
    routed: Routed,
    f: &'f mut F,
}

impl<'s, 'f, F: FnMut(Visit<'_>)> Sweep<'s, 'f, F> {
    fn new(st: &'s Step<'s>, phase: Range<usize>, share: &'s Share<'s>, f: &'f mut F) -> Self {
        Sweep {
            st,
            prev: (st.k > 0).then(|| Step::new(st.ctx, st.k - 1)),
            phase,
            share,
            readers: Vec::new(),
            routed: Routed::default(),
            f,
        }
    }

    /// Sweep the step's accesses to datum `(kind, a, b)`, visiting those
    /// of the phase's ops that the share does, up to the phase's end.
    fn datum(&mut self, kind: Kind, a: usize, b: usize) {
        let Sweep {
            st,
            prev,
            phase,
            share,
            readers,
            routed,
            f,
        } = self;
        let (key, k, lo, end) = (keys::pack(kind, a, b), st.k, phase.start, phase.end);
        let grid = st.ctx.grid;
        // Where a version lives matters only to a rank's share.
        let node = |op: TaskOp| share.of().map_or(0, |_| op.node(grid));
        let at = |pos| Pred { step: k, pos };
        // The version the datum holds: its writer and that writer's node. A
        // tile's last write in the step before is named when a visit first
        // needs it; a never-written tile is fetched from its owner, and the
        // step's own data are written before they are read.
        let mut writer = None;
        let mut before = prev.as_ref().filter(|_| kind == Kind::Tile);
        let home = (kind == Kind::Tile).then(|| grid.owner(a, b));
        let last = |writer: &mut Option<(Pred, usize)>, before: &mut Option<&Step<'_>>| {
            if let Some(p) = before.take() {
                let op = p.last_writer(a, b);
                *writer = Some((
                    Pred {
                        step: p.k,
                        pos: p.dense(op),
                    },
                    node(op),
                ));
            }
            *writer
        };
        readers.clear();
        routed.reset();
        let _ = st.slots(kind, a, b, &mut |slot| {
            let (op, write) = match slot {
                Slot::Write(op) => (op, true),
                Slot::Control(op) => (op, false),
                Slot::Read(group) => {
                    return st.reader_runs(group, &mut |from, n, stride| {
                        // Members before the phase are named, not visited;
                        // members in it as the share says; a member at or
                        // past its end ends the sweep of the datum.
                        let pre = n.min(lo.saturating_sub(from).div_ceil(stride));
                        readers.extend((0..pre).map(|t| at(from + t * stride)));
                        let first = from + pre * stride;
                        let inside = (n - pre).min(end.saturating_sub(first).div_ceil(stride));
                        if inside > 0 {
                            let version = last(&mut writer, &mut before);
                            let src = version.map_or(home, |(_, node)| Some(node));
                            let version = version.map(|(p, _)| p);
                            let run = (first - lo, inside, stride);
                            visited_reads(share, routed, run, (version, src), &mut |op| {
                                f(Visit {
                                    op,
                                    access: Access::Read(key),
                                    writer: version,
                                    readers: &[],
                                });
                                readers.push(at(lo + op));
                            });
                        }
                        if pre + inside < n {
                            Break(())
                        } else {
                            Continue(())
                        }
                    });
                }
            };
            let pos = st.dense(op);
            if pos >= end {
                return Break(());
            }
            if pos >= lo && share.full(pos - lo) {
                let (access, since) = match write {
                    true => (Access::Mut(key), &readers[..]),
                    false => (Access::Control(key), &[][..]),
                };
                f(Visit {
                    op: pos - lo,
                    access,
                    writer: last(&mut writer, &mut before).map(|(p, _)| p),
                    readers: since,
                });
            }
            debug_assert!(
                !write || pos < lo || share.full(pos - lo),
                "{op:?} writes a swept datum, so it is visited in full"
            );
            if write {
                (writer, before) = (Some((at(pos), node(op))), None);
                readers.clear();
            }
            Continue(())
        });
    }
}

/// Which of a reader group's members in the phase the share visits: of
/// the ops `from + t * stride` (`t < n`, indices in the phase), those whose
/// read of `version`, which lives on node `src`, [`Share::reads`] keeps, in
/// order. Unless the rank may be the source, that is only the ops visited
/// in full, found in the phase's list of them rather than one by one.
fn visited_reads(
    share: &Share<'_>,
    routed: &mut Routed,
    (from, n, stride): (usize, usize, usize),
    (version, src): (Option<Pred>, Option<usize>),
    visit: &mut impl FnMut(usize),
) {
    let members = (0..n).map(|t| from + t * stride);
    if share.of().is_none_or(|rank| src.is_none_or(|s| s == rank)) {
        for op in members.filter(|&op| share.reads(op, version, src, routed)) {
            visit(op);
        }
    } else {
        let last = from + (n - 1) * stride;
        let full = share.full_in(from..last + 1).iter().map(|&op| op as usize);
        full.filter(|op| (op - from) % stride == 0).for_each(visit);
    }
}

/// One place in a datum's access sequence.
#[derive(Clone, Copy)]
enum Slot {
    /// A write (`Access::Mut`).
    Write(TaskOp),
    /// An ordering-only access: waits for the last writer, holds up nobody.
    Control(TaskOp),
    /// Reads by every op of a group, in any order among themselves.
    Read(Readers),
}

/// A group of readers, by its indices.
#[derive(Clone, Copy)]
enum Readers {
    /// One op.
    One(TaskOp),
    /// The op in every trailing column of its step.
    Cols(TaskOp),
    /// The GEMM of every row below the pivot row in column `j`.
    GemmCol(Ix),
    /// The TRSM of every row the LU branch eliminates.
    Trsms,
    /// The PIVSWP of every exchange group, in column `j` or in every column.
    Swaps(Option<Ix>),
    /// Every op the step inserts after its panel task (the decision's
    /// readers).
    AfterPanel,
}

/// The column op `op` moved to column `c`.
fn at_col(mut op: TaskOp, c: Ix) -> TaskOp {
    use TaskOp::*;
    match &mut op {
        SwpInit { j, .. }
        | PivSwp { j, .. }
        | TrsmTop { j, .. }
        | Gemm { j, .. }
        | Unmqr { j, .. }
        | Ormqr { j, .. }
        | Tpmqrt { j, .. }
        | Gessm { j, .. }
        | Ssssm { j, .. } => *j = c,
        _ => unreachable!("{op:?} has no trailing column"),
    }
    op
}

/// What every step of a run plans.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Prelude, LU branch, QR branch; `a2`: the trial is a QR of the
    /// diagonal tile and the LU branch applies it with ORMQRs.
    Hybrid {
        a2: bool,
    },
    /// LU NoPiv, or LUPP (`full_panel`).
    Lu {
        full_panel: bool,
    },
    IncPiv,
    Hqr,
}

/// One planned step and what its closed forms read.
struct Step<'a> {
    ctx: &'a RunCtx,
    plan: &'a StepPlan,
    /// The step's recorded branch decision, if any.
    decision: Option<Decision>,
    shape: Shape,
    k: usize,
    mt: usize,
    nt: usize,
}

impl<'a> Step<'a> {
    fn new(ctx: &'a RunCtx, k: usize) -> Self {
        let shape = match ctx.opts.algorithm {
            Algorithm::LuQr(_) => Shape::Hybrid {
                a2: ctx.opts.lu_variant == LuVariant::A2,
            },
            Algorithm::LuNoPiv => Shape::Lu { full_panel: false },
            Algorithm::Lupp => Shape::Lu { full_panel: true },
            Algorithm::LuIncPiv => Shape::IncPiv,
            Algorithm::Hqr => Shape::Hqr,
        };
        let cells = ctx.steps.get(k);
        Step {
            ctx,
            plan: &cells.plan,
            decision: cells.decision.get().copied(),
            shape,
            k,
            mt: ctx.aug.mt(),
            nt: ctx.aug.nt(),
        }
    }

    fn kx(&self) -> Ix {
        ix(self.k)
    }

    /// The trailing tile columns (right-hand sides included).
    fn cols(&self) -> Range<usize> {
        self.k + 1..self.nt
    }

    /// The tile rows below the pivot row.
    fn below(&self) -> Range<usize> {
        self.k + 1..self.mt
    }

    fn a2(&self) -> bool {
        self.shape == Shape::Hybrid { a2: true }
    }

    /// Whether the step plans ops of `gate`: all of them until its
    /// decision is recorded, then only the chosen branch's.
    fn planned(&self, gate: Gate) -> bool {
        gate.want()
            .is_none_or(|want| self.decision.is_none_or(|d| d == want))
    }

    fn lu_gate(&self) -> Gate {
        match self.shape {
            Shape::Hybrid { .. } => Gate::Lu,
            _ => Gate::None,
        }
    }

    fn qr_gate(&self) -> Gate {
        match self.shape {
            Shape::Hybrid { .. } => Gate::Qr,
            _ => Gate::None,
        }
    }

    fn is_trial(&self, i: usize) -> bool {
        self.plan.trial_rows.binary_search(&i).is_ok()
    }

    /// Trial rows above row `i` (the diagonal row included).
    fn trial_before(&self, i: usize) -> usize {
        let rows = &self.plan.trial_rows;
        if i >= self.mt {
            rows.len()
        } else {
            rows.partition_point(|&r| r < i)
        }
    }

    /// Whether the LU branch eliminates row `i > k` with a TRSM: rows of
    /// the trial already hold their multipliers, except under A2.
    fn eliminates(&self, i: usize) -> bool {
        self.a2() || !self.is_trial(i)
    }

    /// The rows in `k + 1..i` the LU branch eliminates.
    fn eliminated_before(&self, i: usize) -> usize {
        let above = i - self.k - 1;
        if self.a2() {
            above
        } else {
            above + 1 - self.trial_before(i)
        }
    }

    /// Number of row-exchange groups besides the pivot block.
    fn groups(&self) -> usize {
        self.plan.swap_groups.len()
    }

    /// The exchange group (`1..`) of row `i > k`, if the step swaps it.
    fn swap_group(&self, i: usize) -> Option<usize> {
        if self.a2() || !self.is_trial(i) {
            return None;
        }
        let p = self.ctx.grid.p;
        let groups = &self.plan.swap_groups;
        let g = groups.iter().position(|rows| rows[0].0 % p == i % p);
        g.map(|g| g + 1)
    }

    fn pivswp(&self, j: usize, g: usize) -> TaskOp {
        let node = match self.plan.swap_rows(ix(g)).first() {
            Some(&(row, _)) => self.ctx.grid.owner(row, j),
            None => self.ctx.grid.owner(self.k, j),
        };
        TaskOp::PivSwp {
            k: self.kx(),
            j: ix(j),
            g: ix(g),
            node: ix(node),
            gate: self.lu_gate(),
        }
    }

    fn crit(&self, d: usize) -> TaskOp {
        TaskOp::Crit {
            k: self.kx(),
            d: ix(d),
            node: ix(self.plan.crit_groups[d].0),
        }
    }

    /// The criterion group of an off-trial row.
    fn crit_of(&self, i: usize) -> usize {
        let node = self.ctx.grid.owner(i, self.k);
        let groups = &self.plan.crit_groups;
        groups
            .iter()
            .position(|&(n, _)| n == node)
            .expect("every off-trial row is in a criterion group")
    }

    /// The step's panel task.
    fn panel(&self) -> TaskOp {
        let k = self.kx();
        match self.shape {
            Shape::Hybrid { a2: false } => TaskOp::Panel { k },
            Shape::Hybrid { a2: true } => TaskOp::PanelA2 { k },
            Shape::Lu { full_panel } => TaskOp::PanelLu { k, full_panel },
            Shape::IncPiv => TaskOp::Getrf { k },
            Shape::Hqr => unreachable!("an HQR step has no panel task"),
        }
    }

    // --- the QR branch ------------------------------------------------------

    /// Positions in the elimination list of the ops touching row `i`.
    fn row_elim(&self, i: usize) -> &'a [u32] {
        self.plan.elim_rows.of(i - self.k)
    }

    /// The row the list's op `p` factors, whose T-factor its updates read:
    /// a GEQRT's row, a kill's victim.
    fn subject(&self, p: usize) -> usize {
        match self.plan.elim[p] {
            ElimOp::Geqrt { row } => row,
            ElimOp::Kill { victim, .. } => victim,
        }
    }

    /// The factor kernel of the list's op `p`.
    fn factor(&self, p: usize) -> TaskOp {
        let (k, gate) = (self.kx(), self.qr_gate());
        match self.plan.elim[p] {
            ElimOp::Geqrt { row } => TaskOp::Geqrt {
                k,
                i: ix(row),
                gate,
            },
            ElimOp::Kill {
                victim,
                eliminator,
                ts,
            } => TaskOp::Tpqrt {
                k,
                v: ix(victim),
                e: ix(eliminator),
                ts,
                gate,
            },
        }
    }

    /// The update of column `j` by the list's op `p`.
    fn update(&self, p: usize, j: usize) -> TaskOp {
        let (k, j, gate) = (self.kx(), ix(j), self.qr_gate());
        match self.plan.elim[p] {
            ElimOp::Geqrt { row } => TaskOp::Unmqr {
                k,
                i: ix(row),
                j,
                gate,
            },
            ElimOp::Kill {
                victim,
                eliminator,
                ts,
            } => TaskOp::Tpmqrt {
                k,
                v: ix(victim),
                e: ix(eliminator),
                j,
                ts,
                gate,
            },
        }
    }

    /// The position in the elimination list of a QR op of this step, if it
    /// is one: a row's GEQRT is the first op on it (it comes before the
    /// row eliminates anything), a victim's kill the last (a dead row does
    /// nothing).
    fn elim_pos(&self, op: TaskOp) -> Option<usize> {
        let (row, geqrt) = match op {
            TaskOp::Geqrt { i, .. } | TaskOp::Unmqr { i, .. } => (i as usize, true),
            TaskOp::Tpqrt { v, .. } | TaskOp::Tpmqrt { v, .. } => (v as usize, false),
            _ => return None,
        };
        let on_row = self.row_elim(row);
        let p = if geqrt {
            on_row[0]
        } else {
            on_row[on_row.len() - 1]
        } as usize;
        debug_assert!(
            self.subject(p) == row && matches!(self.plan.elim[p], ElimOp::Geqrt { .. }) == geqrt,
            "{op:?} is not at position {p} of its step's elimination list"
        );
        Some(p)
    }

    /// The last access of trailing tile `(i, j)` in this step, a write.
    fn last_writer(&self, i: usize, j: usize) -> TaskOp {
        let (k, i, j, gate) = (self.kx(), ix(i), ix(j), self.lu_gate());
        match self.shape {
            Shape::Hqr | Shape::Hybrid { .. } if self.planned(Gate::Qr) => {
                let on_row = self.row_elim(i as usize);
                self.update(on_row[on_row.len() - 1] as usize, j as usize)
            }
            Shape::IncPiv => TaskOp::Ssssm { k, i, j },
            _ => TaskOp::Gemm { k, i, j, gate },
        }
    }

    // --- the layout -----------------------------------------------------------

    /// Where the LU branch starts.
    fn lu_start(&self) -> usize {
        let (t, c) = (self.plan.trial_rows.len(), self.plan.crit_groups.len());
        match self.shape {
            Shape::Hybrid { .. } => 2 * t + c + 1,
            _ => 1,
        }
    }

    /// Ops per column of the LU branch's pivot-row phase.
    fn col_block(&self) -> usize {
        if self.a2() {
            1
        } else {
            self.groups() + 3
        }
    }

    /// Where the LU branch's block of pivot-row column `j` starts.
    fn column(&self, j: usize) -> usize {
        self.lu_start() + (j - self.k - 1) * self.col_block()
    }

    /// Where the LU branch's block of row `i > k` starts (`i = mt`: where
    /// the LU branch ends).
    fn lu_row(&self, i: usize) -> usize {
        let nj = self.nt - self.k - 1;
        self.column(self.nt) + (i - self.k - 1) * nj + self.eliminated_before(i)
    }

    /// Where the QR branch starts.
    fn qr_start(&self) -> usize {
        match self.shape {
            Shape::Hybrid { .. } => self.lu_row(self.mt),
            _ => 0,
        }
    }

    /// `op`'s position in the step's insertion order.
    fn dense(&self, op: TaskOp) -> usize {
        use TaskOp::*;
        let (k, nj) = (self.k, self.nt - self.k - 1);
        let (t, c) = (self.plan.trial_rows.len(), self.plan.crit_groups.len());
        let col = |j: Ix| j as usize - k - 1;
        let column = |j: Ix| self.column(j as usize);
        let incpiv_row = |i: Ix| 1 + nj + (i as usize - k - 1) * (1 + nj);
        let qr = |op| self.qr_start() + self.elim_pos(op).expect("a QR op") * (1 + nj);
        match op {
            Backup { i, .. } => self.trial_before(i as usize),
            Crit { d, .. } => t + d as usize,
            Panel { .. } | PanelA2 { .. } => t + c,
            Prop { i, .. } => t + c + 1 + self.trial_before(i as usize),
            PanelLu { .. } | Getrf { .. } => 0,
            SwpInit { j, .. } | Ormqr { j, .. } => column(j),
            PivSwp { j, g, .. } => column(j) + 1 + g as usize,
            TrsmTop { j, .. } => column(j) + self.groups() + 2,
            Trsm { i, .. } => self.lu_row(i as usize),
            Gemm { i, j, .. } => {
                let i = i as usize;
                self.lu_row(i) + usize::from(self.eliminates(i)) + col(j)
            }
            Geqrt { .. } | Tpqrt { .. } => qr(op),
            Unmqr { j, .. } | Tpmqrt { j, .. } => qr(op) + 1 + col(j),
            Gessm { j, .. } => 1 + col(j),
            Tstrf { i, .. } => incpiv_row(i),
            Ssssm { i, j, .. } => incpiv_row(i) + 1 + col(j),
        }
    }

    // --- a phase's data --------------------------------------------------------

    /// Every datum the ops at positions `phase` may access, as `(kind, a,
    /// b)` ([`keys::unpack`]'s spelling): the trailing tiles (a hybrid
    /// prelude's only in the panel column) and the data of the step's own
    /// that its shape and phase use. A datum the phase does not touch
    /// yields no visit.
    fn phase_data(&self, phase: &Range<usize>, f: &mut dyn FnMut(Kind, usize, usize)) {
        let (k, mt, nt) = (self.k, self.mt, self.nt);
        let hybrid = matches!(self.shape, Shape::Hybrid { .. });
        let prelude = hybrid && phase.start < self.lu_start();
        let branches = !hybrid || phase.end > self.lu_start();
        let cols = if branches { nt } else { k + 1 };
        for i in k..mt {
            for j in k..cols {
                f(Kind::Tile, i, j);
            }
        }
        if self.shape != Shape::Hqr {
            f(Kind::Pivot, 0, k);
        }
        if hybrid {
            f(Kind::Decision, 0, k);
        }
        if prelude {
            self.plan
                .trial_rows
                .iter()
                .for_each(|&i| f(Kind::Backup, i, k));
            (0..self.plan.crit_groups.len()).for_each(|d| f(Kind::CritScratch, d, k));
        }
        let tfactor_rows = match self.shape {
            Shape::Hqr | Shape::Hybrid { .. } if branches => mt,
            Shape::Hybrid { a2: true } => k + 1,
            _ => k,
        };
        (k..tfactor_rows).for_each(|i| f(Kind::TFactor, i, k));
        if branches {
            match self.shape {
                Shape::IncPiv => (k + 1..mt).for_each(|i| f(Kind::IncPivL, i, k)),
                Shape::Lu { .. } | Shape::Hybrid { a2: false } => {
                    (k + 1..nt).for_each(|j| f(Kind::SwapScratch, j, k))
                }
                _ => {}
            }
        }
    }

    /// The members of reader group `r` the step plans, in order, as runs
    /// `(from, n, stride)` of positions: `from + t * stride` for `t < n`.
    /// `f` may `Break`, which ends the walk.
    fn reader_runs(&self, r: Readers, f: &mut impl FnMut(usize, usize, usize) -> Flow) -> Flow {
        let cols = self.nt - self.k - 1;
        match r {
            Readers::One(x) => f(self.dense(x), 1, 1),
            Readers::Cols(x) => {
                let base = self.dense(at_col(x, ix(self.k + 1)));
                // A pivot-row TRSM heads each column's exchange block.
                let stride = match x {
                    TaskOp::TrsmTop { .. } => self.col_block(),
                    _ => 1,
                };
                f(base, cols, stride)
            }
            Readers::GemmCol(j) => {
                let c = j as usize - self.k - 1;
                for i in self.below() {
                    f(self.lu_row(i) + usize::from(self.eliminates(i)) + c, 1, 1)?;
                }
                Continue(())
            }
            Readers::Trsms => {
                for i in self.below().filter(|&i| self.eliminates(i)) {
                    f(self.lu_row(i), 1, 1)?;
                }
                Continue(())
            }
            Readers::Swaps(j) => {
                for j in j.map_or(self.cols(), |j| j as usize..j as usize + 1) {
                    f(self.column(j) + 1, self.groups() + 1, 1)?;
                }
                Continue(())
            }
            // The PROPs, then every op of the branches the step plans.
            Readers::AfterPanel => {
                let t = self.plan.trial_rows.len();
                f(self.dense(self.panel()) + 1, t, 1)?;
                let (lu, qr) = (self.lu_start(), self.qr_start());
                if self.planned(Gate::Lu) {
                    f(lu, qr - lu, 1)?;
                }
                if self.planned(Gate::Qr) {
                    f(qr, self.plan.elim.len() * (1 + cols), 1)?;
                }
                Continue(())
            }
        }
    }

    // --- the access sequences -------------------------------------------------
    //
    // Each walks the step's accesses to one datum in insertion order.

    /// The step's accesses to datum `(kind, a, b)` (as [`keys::unpack`]
    /// spells it).
    fn slots(&self, kind: Kind, a: usize, b: usize, f: &mut impl FnMut(Slot) -> Flow) -> Flow {
        match kind {
            Kind::Tile => self.tile(a, b, f),
            _ => self.datum(kind, a, f),
        }
    }

    fn tile(&self, i: usize, j: usize, f: &mut impl FnMut(Slot) -> Flow) -> Flow {
        let k = self.k;
        if i < k || j < k {
            return Continue(());
        }
        match self.shape {
            Shape::Hybrid { .. } => {
                if j == k {
                    self.prelude_tile(i, f)?;
                }
                if self.planned(Gate::Lu) {
                    self.lu_tile(i, j, f)?;
                }
                self.qr_tile(i, j, f)
            }
            Shape::Lu { full_panel } => {
                if j > k && full_panel {
                    // LUPP's bulk-synchronous barrier.
                    f(Slot::Control(self.panel()))?;
                }
                if j == k && self.is_trial(i) {
                    f(Slot::Write(self.panel()))?;
                }
                self.lu_tile(i, j, f)
            }
            Shape::IncPiv => self.incpiv_tile(i, j, f),
            Shape::Hqr => self.qr_tile(i, j, f),
        }
    }

    /// A hybrid prelude's accesses to panel tile `(i, k)`.
    fn prelude_tile(&self, i: usize, f: &mut impl FnMut(Slot) -> Flow) -> Flow {
        let k = self.kx();
        if self.is_trial(i) {
            f(Slot::Read(Readers::One(TaskOp::Backup { k, i: ix(i) })))?;
            f(Slot::Write(self.panel()))?;
            f(Slot::Write(TaskOp::Prop { k, i: ix(i) }))
        } else if !self.plan.crit_groups.is_empty() {
            f(Slot::Read(Readers::One(self.crit(self.crit_of(i)))))
        } else {
            Continue(())
        }
    }

    /// An LU step's, or LU branch's, accesses to tile `(i, j)` after the
    /// panel task.
    fn lu_tile(&self, i: usize, j: usize, f: &mut impl FnMut(Slot) -> Flow) -> Flow {
        use TaskOp::{Gemm, Ormqr, SwpInit, Trsm, TrsmTop};
        let (k, gate, next) = (self.kx(), self.lu_gate(), ix(self.k + 1));
        let (i, j) = (ix(i), ix(j));
        if i == k && j == k {
            let top = if self.a2() {
                Ormqr { k, j: next, gate }
            } else {
                TrsmTop { k, j: next, gate }
            };
            f(Slot::Read(Readers::Cols(top)))?;
            f(Slot::Read(Readers::Trsms))
        } else if j == k {
            if self.eliminates(i as usize) {
                f(Slot::Write(Trsm { k, i, gate }))?;
            }
            f(Slot::Read(Readers::Cols(Gemm {
                k,
                i,
                j: next,
                gate,
            })))
        } else if i == k {
            // The column's snapshot, exchanges and solve (A2: its ORMQR),
            // then its GEMMs' reads.
            if self.a2() {
                f(Slot::Write(Ormqr { k, j, gate }))?;
            } else {
                f(Slot::Read(Readers::One(SwpInit { k, j, gate })))?;
                for g in 0..=self.groups() {
                    f(Slot::Write(self.pivswp(j as usize, g)))?;
                }
                f(Slot::Write(TrsmTop { k, j, gate }))?;
            }
            f(Slot::Read(Readers::GemmCol(j)))
        } else {
            if let Some(g) = self.swap_group(i as usize) {
                f(Slot::Write(self.pivswp(j as usize, g)))?;
            }
            f(Slot::Write(Gemm { k, i, j, gate }))
        }
    }

    /// A QR step's, or QR branch's, accesses to tile `(i, j)`: each op of
    /// the list of those touching row `i`.
    fn qr_tile(&self, i: usize, j: usize, f: &mut impl FnMut(Slot) -> Flow) -> Flow {
        for &p in self.row_elim(i) {
            let p = p as usize;
            if j > self.k {
                f(Slot::Write(self.update(p, j)))?;
            } else {
                f(Slot::Write(self.factor(p)))?;
                if self.subject(p) == i {
                    f(Slot::Read(Readers::Cols(self.update(p, j + 1))))?;
                }
            }
        }
        Continue(())
    }

    /// An IncPiv step's accesses to tile `(i, j)`: the diagonal tile and
    /// the pivot row are written down the whole panel, a tile below the
    /// pivot row once.
    fn incpiv_tile(&self, i: usize, j: usize, f: &mut impl FnMut(Slot) -> Flow) -> Flow {
        let k = self.kx();
        let (i, j) = (ix(i), ix(j));
        if i == k && j == k {
            f(Slot::Write(TaskOp::Getrf { k }))?;
            f(Slot::Read(Readers::Cols(TaskOp::Gessm { k, j: k + 1 })))?;
            for r in self.below().map(ix) {
                f(Slot::Write(TaskOp::Tstrf { k, i: r }))?;
            }
            Continue(())
        } else if j == k {
            f(Slot::Write(TaskOp::Tstrf { k, i }))
        } else if i == k {
            f(Slot::Write(TaskOp::Gessm { k, j }))?;
            for r in self.below().map(ix) {
                f(Slot::Write(TaskOp::Ssssm { k, i: r, j }))?;
            }
            Continue(())
        } else {
            f(Slot::Write(TaskOp::Ssssm { k, i, j }))
        }
    }

    /// The step's accesses to a datum of its own (`a` is its index: a row,
    /// a column or a criterion group).
    fn datum(&self, kind: Kind, a: usize, f: &mut impl FnMut(Slot) -> Flow) -> Flow {
        let (k, ax, next) = (self.kx(), ix(a), ix(self.k + 1));
        let gate = self.lu_gate();
        // Everything but a T-factor is written once, by the task that opens
        // its sequence, and then read.
        let (writer, readers) = match kind {
            Kind::Tile => unreachable!("tiles are walked across steps"),
            Kind::TFactor => return self.tfactor(a, f),
            Kind::Backup => (
                TaskOp::Backup { k, i: ax },
                Some(Readers::One(TaskOp::Prop { k, i: ax })),
            ),
            Kind::Pivot => (
                self.panel(),
                match self.shape {
                    Shape::IncPiv => Some(Readers::Cols(TaskOp::Gessm { k, j: next })),
                    Shape::Hybrid { a2: true } => None,
                    _ => Some(Readers::Swaps(None)),
                },
            ),
            Kind::Decision => (self.panel(), Some(Readers::AfterPanel)),
            Kind::CritScratch => (self.crit(a), Some(Readers::One(self.panel()))),
            Kind::IncPivL => (
                TaskOp::Tstrf { k, i: ax },
                Some(Readers::Cols(TaskOp::Ssssm { k, i: ax, j: next })),
            ),
            Kind::SwapScratch => (
                TaskOp::SwpInit { k, j: ax, gate },
                Some(Readers::Swaps(Some(ax))),
            ),
        };
        f(Slot::Write(writer))?;
        match readers {
            Some(r) => f(Slot::Read(r)),
            None => Continue(()),
        }
    }

    /// The step's accesses to the T-factor of row `a`: A2's trial and its
    /// ORMQRs, then each kernel factoring the row and that kernel's
    /// updates.
    fn tfactor(&self, a: usize, f: &mut impl FnMut(Slot) -> Flow) -> Flow {
        if self.a2() && a == self.k {
            let (k, next, gate) = (self.kx(), ix(self.k + 1), self.lu_gate());
            f(Slot::Write(self.panel()))?;
            if self.planned(Gate::Lu) {
                f(Slot::Read(Readers::Cols(TaskOp::Ormqr {
                    k,
                    j: next,
                    gate,
                })))?;
            }
        }
        for &p in self.row_elim(a) {
            let p = p as usize;
            if self.subject(p) == a {
                f(Slot::Write(self.factor(p)))?;
                f(Slot::Read(Readers::Cols(self.update(p, self.k + 1))))?;
            }
        }
        Continue(())
    }
}
