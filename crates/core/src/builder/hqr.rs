//! The QR elimination step (hybrid's QR branch and the HQR baseline), and
//! the [`HqrPlanner`] running it unconditionally at every step.

use crate::op::{ix, Gate, TaskOp};
use crate::state::{cells, RowOrder, StepCells, StepData, StepPlan};
use crate::trees::{elimination_list, ElimOp};

use super::{panel, Inserter, StepPlanner};

/// The plan lists of a step with a QR branch: the elimination list of
/// panel column `k`, over its rows grouped by owning node, diagonal domain
/// first, and that list in per-row order.
pub(crate) fn elimination(ins: &Inserter<'_>, k: usize) -> (Vec<ElimOp>, RowOrder) {
    let mt = ins.ctx.aug.mt();
    // The first group necessarily contains row k since rows ascend.
    let domains: Vec<Vec<usize>> = {
        let mut ordered: Vec<(usize, Vec<usize>)> = Vec::new();
        for i in k..mt {
            let node = ins.ctx.grid.owner(i, k);
            match ordered.iter_mut().find(|(n, _)| *n == node) {
                Some((_, rows)) => rows.push(i),
                None => ordered.push((node, vec![i])),
            }
        }
        debug_assert_eq!(ordered[0].1[0], k);
        ordered.into_iter().map(|(_, rows)| rows).collect()
    };
    let elim = elimination_list(&domains, &ins.ctx.opts.trees);
    let rows = RowOrder::new(&elim, k, mt);
    (elim, rows)
}

/// Insert one QR elimination step: the reduction-tree factorization of
/// panel column `k` (GEQRT / TSQRT / TTQRT) interleaved with its trailing
/// updates (UNMQR / TSMQR / TTMQR), in the order of the step's
/// elimination list. `gate` is [`Gate::Qr`] for the hybrid's QR branch,
/// [`Gate::None`] for the HQR baseline. A row's T-factor datum is declared
/// when the row's first factor kernel is inserted.
pub(crate) fn insert_qr_step(ins: &mut Inserter<'_>, k: usize, gate: Gate) {
    let mut declared = vec![false; ins.ctx.aug.mt()];
    let mut factor_row = |ins: &mut Inserter<'_>, i: usize| {
        if !std::mem::replace(&mut declared[i], true) {
            panel::declare_tfactor(ins, k, i);
        }
    };
    let ctx = ins.ctx;
    for &op in &ctx.steps.get(k).plan.elim {
        match op {
            // GEQRT of one panel row plus its trailing updates
            // (`A_row,j <- Qᵀ A_row,j`).
            ElimOp::Geqrt { row } => {
                factor_row(ins, row);
                ins.push(TaskOp::Geqrt {
                    k: ix(k),
                    i: ix(row),
                    gate,
                });
                for j in ins.trailing(k) {
                    ins.push(TaskOp::Unmqr {
                        k: ix(k),
                        i: ix(row),
                        j: ix(j),
                        gate,
                    });
                }
            }
            // TSQRT (`ts`, full square victim) or TTQRT (triangular victim)
            // of a victim/eliminator pair, plus the trailing updates on
            // the pair of rows.
            ElimOp::Kill {
                victim,
                eliminator,
                ts,
            } => {
                factor_row(ins, victim);
                let (v, e) = (ix(victim), ix(eliminator));
                ins.push(TaskOp::Tpqrt {
                    k: ix(k),
                    v,
                    e,
                    ts,
                    gate,
                });
                for j in ins.trailing(k) {
                    ins.push(TaskOp::Tpmqrt {
                        k: ix(k),
                        v,
                        e,
                        j: ix(j),
                        ts,
                        gate,
                    });
                }
            }
        }
    }
}

/// HQR baseline: QR steps only, no panel trial / backup overhead.
pub struct HqrPlanner;

impl StepPlanner for HqrPlanner {
    fn name(&self) -> &'static str {
        "hqr"
    }

    fn plan_step(&self, k: usize, ins: &mut Inserter<'_>) {
        let data = StepData {
            tf: cells(ins.ctx.aug.mt()),
            ..StepData::default()
        };
        let (elim, elim_rows) = elimination(ins, k);
        let plan = StepPlan {
            elim,
            elim_rows,
            ..StepPlan::default()
        };
        ins.ctx.steps.open(k, StepCells::new(plan, data));
        insert_qr_step(ins, k, Gate::None);
    }
}
