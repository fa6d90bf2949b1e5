//! Panel-phase task insertion shared by the planners: backup of the trial
//! tiles, off-trial criterion collection, the trial factorization + decision
//! task (A1 and A2 variants), panel restore (Propagate), and the baseline
//! panel factorizations (NoPiv / LUPP / IncPiv diagonal).

use luqr_runtime::TaskId;

use crate::config::{LuVariant, PivotScope};
use crate::criteria::Criterion;
use crate::keys;
use crate::op::{ix, TaskOp};

use super::Inserter;

/// The rows participating in the hybrid's trial LU factorization at step
/// `k`. Variant A2 factors the diagonal tile with QR — no pivot pool beyond
/// the tile, so the trial is always tile-scoped.
pub(crate) fn trial_rows(ins: &Inserter<'_>, k: usize) -> Vec<usize> {
    let mt = ins.ctx.aug.mt();
    match (ins.ctx.opts.lu_variant, ins.ctx.opts.pivot_scope) {
        (LuVariant::A2, _) => vec![k],
        (_, PivotScope::DiagonalDomain) => ins.ctx.grid.diagonal_domain_rows(k, mt),
        (_, PivotScope::DiagonalTile) => vec![k],
    }
}

/// The off-trial criterion-collection groups: the panel rows outside the
/// trial, grouped by owning node — each node reduces its rows' column
/// norms locally (the paper's communication-avoiding criterion
/// all-reduce). Criteria that never look at the off-trial rows skip the
/// collection entirely.
pub(crate) fn crit_groups(
    ins: &Inserter<'_>,
    k: usize,
    trial_rows: &[usize],
) -> Vec<(usize, Vec<usize>)> {
    if matches!(
        ins.ctx.criterion(),
        Criterion::AlwaysLu | Criterion::AlwaysQr | Criterion::Random { .. }
    ) {
        return Vec::new();
    }
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for i in (k..ins.ctx.aug.mt()).filter(|i| !trial_rows.contains(i)) {
        let node = ins.ctx.grid.owner(i, k);
        match groups.iter_mut().find(|(n, _)| *n == node) {
            Some((_, rows)) => rows.push(i),
            None => groups.push((node, vec![i])),
        }
    }
    groups
}

/// Insert one BACKUP task per trial tile, saving its contents so Propagate
/// can restore the panel if the decision is QR.
pub(crate) fn insert_backups(ins: &mut Inserter<'_>, k: usize) {
    for &i in &ins.ctx.steps.get(k).plan.trial_rows {
        let bytes = ins.ctx.tile_bytes(i, k);
        ins.b
            .declare(keys::backup(i, k), bytes, ins.ctx.grid.owner(i, k));
        ins.push(TaskOp::Backup { k: ix(k), i: ix(i) });
    }
}

/// Insert one CRIT task per off-trial group.
pub(crate) fn insert_crit_collection(ins: &mut Inserter<'_>, k: usize) {
    let nbk = ins.ctx.aug.tile_cols(k);
    for (d, (node, _)) in ins.ctx.steps.get(k).plan.crit_groups.iter().enumerate() {
        ins.b
            .declare(keys::crit_scratch(d, k), (2 + nbk) * 8, *node);
        ins.push(TaskOp::Crit {
            k: ix(k),
            d: ix(d),
            node: ix(*node),
        });
    }
}

/// Declare the panel task's outputs: the pivot record (`pivot_words`
/// 8-byte words) and, for the hybrid, the decision.
fn declare_panel_outputs(ins: &mut Inserter<'_>, k: usize, pivot_words: usize, decides: bool) {
    let diag = ins.ctx.grid.diag_owner(k);
    ins.b.declare(keys::pivots(k), pivot_words * 8, diag);
    if decides {
        ins.b.declare(keys::decision(k), 8, diag);
    }
}

/// Insert the hybrid's PANEL task (variant A1): trial LU of the diagonal
/// domain, criterion evaluation against the collected off-trial data, and
/// the step's decision + record. Returns the panel task's id (the
/// streaming driver awaits it before unrolling the chosen branch).
pub(crate) fn insert_trial_panel(ins: &mut Inserter<'_>, k: usize) -> TaskId {
    declare_panel_outputs(ins, k, ins.ctx.aug.mt(), true);
    ins.push(TaskOp::Panel { k: ix(k) })
}

/// Insert the hybrid's PANELA2 task (paper §II-C1): the trial factors the
/// diagonal tile by QR, so a rejected trial is already the first kernel of
/// the QR step. Returns the panel task's id.
pub(crate) fn insert_a2_panel(ins: &mut Inserter<'_>, k: usize) -> TaskId {
    declare_panel_outputs(ins, k, 1, true);
    declare_tfactor(ins, k, k);
    ins.push(TaskOp::PanelA2 { k: ix(k) })
}

/// Declare the T-factor of panel row `i` at step `k`.
pub(crate) fn declare_tfactor(ins: &mut Inserter<'_>, k: usize, i: usize) {
    let bytes = ins.ctx.opts.ib * ins.ctx.aug.tile_cols(k) * 8;
    ins.b
        .declare(keys::tfactor(i, k), bytes, ins.ctx.grid.owner(i, k));
}

/// Insert the PROP tasks: restore each trial tile from its backup when the
/// decision was QR (the LU trial is then dead weight), or drop the backup
/// on an LU decision.
pub(crate) fn insert_propagate(ins: &mut Inserter<'_>, k: usize) {
    for &i in &ins.ctx.steps.get(k).plan.trial_rows {
        ins.push(TaskOp::Prop { k: ix(k), i: ix(i) });
    }
}

/// Insert the baseline panel task of LU NoPiv (`full_panel = false`, pivots
/// inside the diagonal tile) or LUPP (`full_panel = true`, pivots across
/// the whole panel).
pub(crate) fn insert_simple_panel(ins: &mut Inserter<'_>, k: usize, full_panel: bool) {
    declare_panel_outputs(ins, k, ins.ctx.aug.mt(), false);
    ins.push(TaskOp::PanelLu {
        k: ix(k),
        full_panel,
    });
}

/// Insert the IncPiv diagonal GETRF: in-tile partial pivoting.
pub(crate) fn insert_incpiv_diag(ins: &mut Inserter<'_>, k: usize) {
    declare_panel_outputs(ins, k, ins.ctx.aug.tile_cols(k), false);
    ins.push(TaskOp::Getrf { k: ix(k) });
}
