//! The hybrid LU-QR planner (paper Algorithm 1): at every step, a trial LU
//! of the diagonal domain decides — via the configured robustness criterion
//! — between a cheap LU step and a stable QR step.
//!
//! Two insertion modes share all task-building code:
//!
//! * **Batch** ([`StepPlanner::plan_step`]): both branches are inserted
//!   into the static graph, each gated on the decision datum; the losing
//!   branch does nothing at run time (the paper's PTG constraint).
//! * **Streaming** ([`StepPlanner::plan_step_prelude`] /
//!   [`StepPlanner::plan_step_rest`]): the prelude stops after the PANEL
//!   task; once it has *executed*, the recorded decision is read back at
//!   planning time — from the step's cells — and only the chosen branch is
//!   inserted. The branch tasks keep their gate (which now trivially
//!   passes), so their access lists — and therefore the edges among
//!   executed tasks — are identical to the batch graph's.

use luqr_runtime::TaskId;

use crate::config::{Decision, LuVariant};
use crate::op::{ix, Gate, TaskOp};
use crate::state::{cells, StepCells, StepData, StepPlan};

use super::{hqr, lu, panel, Inserter, StepPlanner};

/// The hybrid LU-QR algorithm; its per-step robustness criterion is the
/// run's ([`crate::Algorithm::LuQr`] in the options).
pub struct HybridPlanner;

impl HybridPlanner {
    /// Publish the step's cells and insert everything up to the decision
    /// point: backup, criterion collection, the trial-panel task (whose id
    /// is returned), and the decision-gated Propagate restores.
    fn insert_prelude(&self, k: usize, ins: &mut Inserter<'_>) -> TaskId {
        let mt = ins.ctx.aug.mt();
        let trial_rows = panel::trial_rows(ins, k);
        let crit_groups = panel::crit_groups(ins, k, &trial_rows);
        let data = StepData {
            crit: cells(crit_groups.len()),
            backup: cells(mt),
            tf: cells(mt),
            ..lu::lu_step_data(ins)
        };
        let (elim, elim_rows) = hqr::elimination(ins, k);
        let plan = StepPlan {
            crit_groups,
            elim,
            elim_rows,
            ..lu::lu_step_plan(ins, k, trial_rows)
        };
        ins.ctx.steps.open(k, StepCells::new(plan, data));

        // --- Backup the trial panel tiles.
        panel::insert_backups(ins, k);

        // --- Off-trial criterion collection, one task per owning node.
        panel::insert_crit_collection(ins, k);

        // --- Panel: trial factorization + criterion decision.
        let panel_task = if ins.ctx.opts.lu_variant == LuVariant::A2 {
            panel::insert_a2_panel(ins, k)
        } else {
            panel::insert_trial_panel(ins, k)
        };

        // --- Propagate: restore the panel from backup on a QR decision.
        panel::insert_propagate(ins, k);
        panel_task
    }

    /// Insert the LU branch of step `k` (discarded when the decision is QR).
    fn insert_lu_branch(&self, ins: &mut Inserter<'_>, k: usize) {
        if ins.ctx.opts.lu_variant == LuVariant::A2 {
            insert_lu_step_a2(ins, k);
        } else {
            lu::insert_lu_step(ins, k, Gate::Lu);
        }
    }
}

impl StepPlanner for HybridPlanner {
    fn name(&self) -> &'static str {
        "hybrid-luqr"
    }

    fn plan_step(&self, k: usize, ins: &mut Inserter<'_>) {
        self.insert_prelude(k, ins);
        self.insert_lu_branch(ins, k);
        hqr::insert_qr_step(ins, k, Gate::Qr);
    }

    fn plan_step_prelude(&self, k: usize, ins: &mut Inserter<'_>) -> Option<TaskId> {
        Some(self.insert_prelude(k, ins))
    }

    fn plan_step_rest(&self, k: usize, ins: &mut Inserter<'_>) {
        // The panel task has executed: consume its decision *now* and
        // unroll only the surviving branch.
        match ins.ctx.steps.get(k).decided() {
            Decision::Lu => self.insert_lu_branch(ins, k),
            Decision::Qr => hqr::insert_qr_step(ins, k, Gate::Qr),
        }
    }
}

/// LU-step tasks for variant A2: Apply is `A_kj <- Qᵀ A_kj` (the ORMQR
/// flavour of UNMQR), Eliminate is `A_ik <- A_ik R⁻¹`, Update is the usual
/// GEMM.
fn insert_lu_step_a2(ins: &mut Inserter<'_>, k: usize) {
    // Apply Qᵀ to row k (including rhs columns).
    for j in ins.trailing(k) {
        ins.push(TaskOp::Ormqr {
            k: ix(k),
            j: ix(j),
            gate: Gate::Lu,
        });
    }
    // Eliminate + update every row below.
    for i in k + 1..ins.ctx.aug.mt() {
        lu::insert_row_elimination(ins, k, i, true, Gate::Lu);
    }
}
