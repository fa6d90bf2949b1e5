//! The LU IncPiv baseline (pairwise / incremental pivoting): GETRF on the
//! diagonal tile, GESSM applies along the pivot row, then a TSTRF/SSSSM
//! elimination chain down the panel.

use crate::keys;
use crate::op::{ix, TaskOp};
use crate::state::{cells, StepCells, StepData, StepPlan};

use super::{panel, Inserter, StepPlanner};

/// LU with incremental (pairwise) pivoting across the panel.
pub struct IncPivPlanner;

impl StepPlanner for IncPivPlanner {
    fn name(&self) -> &'static str {
        "lu-incpiv"
    }

    fn plan_step(&self, k: usize, ins: &mut Inserter<'_>) {
        let mt = ins.ctx.aug.mt();
        let nbk = ins.ctx.aug.tile_cols(k);
        let data = StepData {
            l: cells(mt),
            ..StepData::default()
        };
        ins.ctx
            .steps
            .open(k, StepCells::new(StepPlan::default(), data));
        // Diagonal tile: GETRF with in-tile pivoting.
        panel::insert_incpiv_diag(ins, k);
        // Apply to the diagonal row: GESSM.
        for j in ins.trailing(k) {
            ins.push(TaskOp::Gessm { k: ix(k), j: ix(j) });
        }
        // Pairwise elimination chain down the panel: TSTRF produces the
        // row's L factor and pivots, which its SSSSM updates consume.
        for i in k + 1..mt {
            let tm = ins.ctx.aug.tile_rows(i);
            ins.b.declare(
                keys::incpiv_l(i, k),
                (tm * nbk + nbk) * 8,
                ins.ctx.grid.owner(i, k),
            );
            ins.push(TaskOp::Tstrf { k: ix(k), i: ix(i) });
            for j in ins.trailing(k) {
                ins.push(TaskOp::Ssssm {
                    k: ix(k),
                    i: ix(i),
                    j: ix(j),
                });
            }
        }
    }
}
