//! The dependency oracle: a task sequence's edges inferred the
//! sequential-task-flow way, from each task's accesses in insertion order.
//!
//! This is how the batch graph's builder found its edges before they were
//! derived in closed form from each op's indices
//! ([`luqr::TaskOp::for_each_successor`]), and how the streaming window
//! still finds them: per datum, an access depends on the last writer (RAW,
//! WAW, and control ordering all collapse to this edge) and a write also
//! on every reader since (WAR). It runs the runtime's hazard core
//! ([`luqr_runtime::hazard`]) over the accesses of the ops.

use std::collections::HashMap;

use luqr_runtime::hazard::{finalize_preds, HazardCell};
use luqr_runtime::{Access, DataKey, TaskId, TaskOp};

/// The predecessors of each of `ops`, inserted in order: ids into `ops`,
/// ascending.
pub fn hazard_predecessors<O: TaskOp>(
    ctx: &O::Ctx,
    ops: impl IntoIterator<Item = O>,
) -> Vec<Vec<TaskId>> {
    let mut cells: HashMap<DataKey, HazardCell<()>> = HashMap::new();
    let mut all = Vec::new();
    let mut accesses = Vec::new();
    for (id, op) in ops.into_iter().enumerate() {
        accesses.clear();
        op.for_each_access(ctx, |acc| accesses.push(acc));
        // Pass 1: collect predecessors over the pre-insertion state.
        let mut preds = Vec::new();
        for acc in &accesses {
            let cell = cells.entry(acc.key()).or_default();
            cell.fold_preds(matches!(acc, Access::Mut(_)), &mut preds, &mut 0);
        }
        // Pass 2: update the cells in access order.
        for acc in &accesses {
            let cell = cells.get_mut(&acc.key()).expect("created in pass 1");
            match acc {
                Access::Read(_) => cell.note_read(id, 0),
                Access::Control(_) => {}
                Access::Mut(_) => cell.note_write(id, 0, ()),
            }
        }
        // Pass 3: sort, dedup, drop self-references from repeated keys.
        finalize_preds(&mut preds, id, |_| true);
        all.push(preds);
    }
    all
}

/// Successor lists (ascending) from predecessor lists.
pub fn successors(preds: &[Vec<TaskId>]) -> Vec<Vec<TaskId>> {
    let mut succs = vec![Vec::new(); preds.len()];
    for (id, ps) in preds.iter().enumerate() {
        for &p in ps {
            succs[p].push(id);
        }
    }
    succs
}
