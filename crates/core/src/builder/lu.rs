//! The LU elimination step (pivot application, eliminate, update) shared by
//! the hybrid's LU branch and the LU NoPiv / LUPP baselines, plus the
//! [`LuSimplePlanner`] implementing those two baselines.

use crate::keys;
use crate::op::{ix, Gate, TaskOp};
use crate::state::{cells, StepCells, StepData, StepPlan};

use super::{panel, Inserter, StepPlanner};

/// The plan lists of an LU-shaped step whose panel is factored over
/// `trial_rows`: the row-exchange groups — trial rows other than the
/// diagonal tile, grouped by grid row (for any trailing column `j`, all
/// tiles `(i, j)` of one grid row live on the same node) with their
/// offsets in the stacked panel — and the panel's height and fan-in.
pub(crate) fn lu_step_plan(ins: &Inserter<'_>, k: usize, trial_rows: Vec<usize>) -> StepPlan {
    let aug = &ins.ctx.aug;
    let mut swap_groups: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    let mut offset = 0usize;
    for (idx, &i) in trial_rows.iter().enumerate() {
        if idx > 0 {
            let grid_row = i % ins.ctx.grid.p;
            match swap_groups.iter_mut().find(|(g, _)| *g == grid_row) {
                Some((_, rows)) => rows.push((i, offset)),
                None => swap_groups.push((grid_row, vec![(i, offset)])),
            }
        }
        offset += aug.tile_rows(i);
    }
    StepPlan {
        trial_rows,
        swap_groups: swap_groups.into_iter().map(|(_, rows)| rows).collect(),
        total_rows: offset,
        panel_nodes: ins.ctx.grid.panel_node_count(k, aug.mt()),
        ..StepPlan::default()
    }
}

/// The data cells of an LU-shaped step: the panel factorization and one
/// pivot-row snapshot per tile column.
pub(crate) fn lu_step_data(ins: &Inserter<'_>) -> StepData {
    StepData {
        scratch: cells(ins.ctx.aug.nt()),
        ..StepData::default()
    }
}

/// Insert the Eliminate task `A_ik <- A_ik U_kk^{-1}` (TRSM against the
/// upper triangle of the factored diagonal tile) and the Schur update of
/// panel row `i`: one GEMM `A_ij -= A_ik A_kj` per trailing tile column
/// (matrix and right-hand-side columns alike). Rows that already hold
/// their multipliers (`eliminate = false`) get the update only. Shared by
/// every LU-shaped step: LU NoPiv, LUPP, and the hybrid's LU branch in
/// both variants.
pub(crate) fn insert_row_elimination(
    ins: &mut Inserter<'_>,
    k: usize,
    i: usize,
    eliminate: bool,
    gate: Gate,
) {
    if eliminate {
        ins.push(TaskOp::Trsm {
            k: ix(k),
            i: ix(i),
            gate,
        });
    }
    for j in ins.trailing(k) {
        ins.push(TaskOp::Gemm {
            k: ix(k),
            i: ix(i),
            j: ix(j),
            gate,
        });
    }
}

/// Insert the Apply/Eliminate/Update tasks of an LU step whose panel has
/// been factored over the step's trial rows. `gate` is [`Gate::None`] for
/// the unconditional baselines and [`Gate::Lu`] for the hybrid's LU branch.
///
/// Apply phase, ScaLAPACK PDLASWP-style: snapshot the pivot-block tile, let
/// each owning node exchange *its own* rows with the pivot block (disjoint
/// writes, so the exchanges parallelize and each node only communicates one
/// pivot-block tile), then solve the top with `L11`. The per-tile Schur
/// updates are separate GEMM tasks.
pub(crate) fn insert_lu_step(ins: &mut Inserter<'_>, k: usize, gate: Gate) {
    let plan = &ins.ctx.steps.get(k).plan;
    let mt = ins.ctx.aug.mt();
    let nbk = ins.ctx.aug.tile_cols(k);

    // The diagonal tile of a square matrix is always square; the
    // fine-grained apply relies on it (its rows are exactly the pivoted
    // `U` rows).
    debug_assert_eq!(ins.ctx.aug.tile_rows(k), nbk);

    for j in ins.trailing(k) {
        let w = ins.ctx.aug.tile_cols(j);
        let top_owner = ins.ctx.grid.owner(k, j);
        ins.b
            .declare(keys::swap_scratch(j, k), nbk * w * 8, top_owner);

        // Snapshot the pivot-block tile.
        ins.push(TaskOp::SwpInit {
            k: ix(k),
            j: ix(j),
            gate,
        });

        // One exchange task per group; group 0 (on the pivot block's
        // owner) applies the pivot-block-internal permutation.
        for g in 0..=plan.swap_groups.len() {
            let node = match plan.swap_rows(ix(g)).first() {
                Some(&(row, _)) => ins.ctx.grid.owner(row, j),
                None => top_owner,
            };
            ins.push(TaskOp::PivSwp {
                k: ix(k),
                j: ix(j),
                g: ix(g),
                node: ix(node),
                gate,
            });
        }

        // Top solve: U_kj = L11^{-1} (P C)_top.
        ins.push(TaskOp::TrsmTop {
            k: ix(k),
            j: ix(j),
            gate,
        });
    }

    // Eliminate (off-trial rows only; trial rows already hold their
    // multipliers from the panel factorization) + per-tile update.
    for i in k + 1..mt {
        insert_row_elimination(ins, k, i, !plan.trial_rows.contains(&i), gate);
    }
}

/// Planner for the two simple LU baselines.
///
/// `full_panel = false`: pivot inside the diagonal tile only (LU NoPiv).
/// `full_panel = true`: pivot across the whole panel (LUPP).
pub struct LuSimplePlanner {
    full_panel: bool,
}

impl LuSimplePlanner {
    /// LU NoPiv: pivoting restricted to the diagonal tile.
    pub fn nopiv() -> Self {
        LuSimplePlanner { full_panel: false }
    }

    /// LUPP: partial pivoting across the whole panel (ScaLAPACK-style,
    /// bulk-synchronous).
    pub fn partial_pivoting() -> Self {
        LuSimplePlanner { full_panel: true }
    }
}

impl StepPlanner for LuSimplePlanner {
    fn name(&self) -> &'static str {
        if self.full_panel {
            "lupp"
        } else {
            "lu-nopiv"
        }
    }

    fn plan_step(&self, k: usize, ins: &mut Inserter<'_>) {
        let trial_rows: Vec<usize> = if self.full_panel {
            (k..ins.ctx.aug.mt()).collect()
        } else {
            vec![k]
        };
        let plan = lu_step_plan(ins, k, trial_rows);
        ins.ctx
            .steps
            .open(k, StepCells::new(plan, lu_step_data(ins)));
        panel::insert_simple_panel(ins, k, self.full_panel);
        insert_lu_step(ins, k, Gate::None);
    }
}
