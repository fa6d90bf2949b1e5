//! The one superscalar hazard-inference implementation.
//!
//! The streaming window's datum directories (`stream/window.rs`)
//! infer RAW / WAR / WAW dependence edges from declared data accesses, and
//! this module is the core they call, parameterized over the writer
//! payload `W` a client needs to remember about the last writer (the
//! placement/completion record, for the window). Nothing else in the
//! runtime infers an edge: the batch [`crate::graph::GraphBuilder`] takes
//! the algorithm's closed-form edges, and the replay
//! ([`crate::sim::simulate_with`]) schedules the edges stored in the
//! graph. The runtime's unit tests, and the workspace's oracle of those
//! closed forms, run the same rules over an op sequence.
//!
//! The rules, per datum (one [`HazardCell`]):
//!
//! * every access (Read / Mut / Control) depends on the **last writer**
//!   (RAW, WAW, and control ordering all collapse to this edge);
//! * a **Mut** additionally depends on every reader since that writer
//!   (WAR) and then clears the reader set and becomes the new writer;
//! * a **Read** joins the reader set.
//!
//! Critical-path depth (`1 + max` over hazard predecessors) folds along
//! the same edges; clients that don't track depth pass zeros and ignore
//! the fold. Reader entries referencing tasks that are no longer *live*
//! (scheduled / completed, client-defined) may be pruned at any time with
//! their depth folded into a per-cell scalar — pruning never changes
//! which edges later insertions see, because a dependency on a dead task
//! is vacuous everywhere this core is used.
//!
//! Clients consume the cell in the same three-pass shape:
//!
//! 1. for each access, [`HazardCell::fold_preds`] over the
//!    **pre-insertion** state collects predecessor ids and depth;
//! 2. for each access *in access order*, [`HazardCell::note_read`] /
//!    [`HazardCell::note_write`] update the state (a Mut after a Read of
//!    the same key within one task clears the fresh reader entry — which
//!    is exactly what the old fused single-loop builder produced after
//!    its final dedup, see the equivalence note below);
//! 3. [`finalize_preds`] sorts, dedups, and drops self-references and
//!    dead predecessors.
//!
//! **Equivalence with the fused builder loop** (pinned by the hazard-oracle
//! proptest in `tests/tests/sched_props.rs` against a naive oracle, by
//! `tests/tests/ptg_edges.rs` against the batch graph's closed-form edges,
//! and end to end by every streamed run `luqr_tests::paths::check_parity`
//! compares with the batch one): for a task touching the same key twice,
//! the fused loop either saw itself as the last writer (Mut-then-Read:
//! pushes its own id, dropped by the self-reference filter) or drained
//! its own fresh reader entry into the predecessor list (Read-then-Mut:
//! same drop). The three-pass shape reads only pre-insertion state, so
//! those self-edges never appear — and every cross-task edge appears in
//! both, possibly duplicated, which the shared dedup collapses
//! identically.

use crate::graph::TaskId;

/// Room a reader list starts with. A datum that is read at all is
/// typically read by a row or a column of updates, and every regrowth on
/// the way there is an allocation on the planner's per-task path.
const FIRST_READERS: usize = 8;

/// A hazard-map entry: a task and its critical-path depth (kept usable
/// after the task is scheduled or completed, so later insertions still
/// inherit depth until the entry is pruned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// Submission id.
    pub id: TaskId,
    /// Critical-path depth (`1 + max` over hazard predecessors; 0 for
    /// clients that don't track depth).
    pub depth: u64,
}

/// Readers of a datum since its last writer: live entries (potential WAR
/// predecessors) plus the folded depth of pruned, no-longer-live ones.
#[derive(Debug, Default)]
pub struct ReaderSet {
    /// Max depth over pruned readers.
    pub folded_depth: u64,
    /// Readers not yet known to be dead.
    pub entries: Vec<Dep>,
}

impl ReaderSet {
    fn push(&mut self, dep: Dep) {
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(FIRST_READERS);
        }
        self.entries.push(dep);
    }

    /// Drop entries whose tasks are no longer `live`, folding their depth
    /// into [`ReaderSet::folded_depth`], at client-chosen prune points
    /// (the streaming window prunes at step retirement).
    pub fn prune(&mut self, mut live: impl FnMut(TaskId) -> bool) {
        let mut folded = self.folded_depth;
        self.entries.retain(|d| {
            if live(d.id) {
                true
            } else {
                folded = folded.max(d.depth);
                false
            }
        });
        self.folded_depth = folded;
    }
}

/// The last writer of a datum: identity, depth, and whatever payload the
/// client needs to remember about it (`W`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writer<W> {
    /// Submission id.
    pub id: TaskId,
    /// Critical-path depth at insertion.
    pub depth: u64,
    /// Client payload (placement, completion state, ...).
    pub meta: W,
}

/// Per-datum hazard state: the last writer and the readers since it.
#[derive(Debug)]
pub struct HazardCell<W> {
    /// Last writer, if the datum has ever been written.
    pub writer: Option<Writer<W>>,
    /// Readers since that write.
    pub readers: ReaderSet,
}

// Manual impl: the derive would demand `W: Default`, but an empty cell
// has no writer payload to construct.
impl<W> Default for HazardCell<W> {
    fn default() -> Self {
        HazardCell {
            writer: None,
            readers: ReaderSet::default(),
        }
    }
}

impl<W> HazardCell<W> {
    /// Pass 1: collect this access's hazard predecessors from the
    /// pre-insertion state. Every access depends on the last writer; a
    /// Mut (`is_mut`) additionally depends on the readers since it.
    /// `max_depth` folds the depth of everything that contributed.
    #[inline]
    pub fn fold_preds(&self, is_mut: bool, preds: &mut Vec<TaskId>, max_depth: &mut u64) {
        if let Some(w) = &self.writer {
            preds.push(w.id);
            *max_depth = (*max_depth).max(w.depth);
        }
        if is_mut {
            *max_depth = (*max_depth).max(self.readers.folded_depth);
            for r in &self.readers.entries {
                preds.push(r.id);
                *max_depth = (*max_depth).max(r.depth);
            }
        }
    }

    /// Pass 2 (Read): join the reader set.
    #[inline]
    pub fn note_read(&mut self, id: TaskId, depth: u64) {
        self.readers.push(Dep { id, depth });
    }

    /// Pass 2 (Mut): become the new writer. Clears the reader set (its
    /// members are now ordered behind this task through the WAR edges
    /// pass 1 collected) and resets the fold.
    #[inline]
    pub fn note_write(&mut self, id: TaskId, depth: u64, meta: W) {
        self.readers.entries.clear();
        self.readers.folded_depth = 0;
        self.writer = Some(Writer { id, depth, meta });
    }
}

/// Pass 3: canonicalize a collected predecessor list — sort, dedup, drop
/// self-references (same-task repeated-key artifacts) and predecessors
/// that are no longer `live` (their effect is already in the client's
/// scoreboard, so the edge is vacuous).
#[inline]
pub fn finalize_preds(preds: &mut Vec<TaskId>, id: TaskId, mut live: impl FnMut(TaskId) -> bool) {
    preds.sort_unstable();
    preds.dedup();
    preds.retain(|&p| p != id && live(p));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_war_waw_edges() {
        let mut cell: HazardCell<()> = HazardCell::default();
        let mut preds = Vec::new();
        let mut depth = 0u64;

        // Task 0 writes.
        cell.fold_preds(true, &mut preds, &mut depth);
        assert!(preds.is_empty());
        cell.note_write(0, 1 + depth, ());

        // Task 1 reads: RAW on 0.
        let (mut preds, mut depth) = (Vec::new(), 0u64);
        cell.fold_preds(false, &mut preds, &mut depth);
        assert_eq!((preds.as_slice(), depth), ([0usize].as_slice(), 1));
        cell.note_read(1, 1 + depth);

        // Task 2 writes: WAW on 0, WAR on 1.
        let (mut preds, mut depth) = (Vec::new(), 0u64);
        cell.fold_preds(true, &mut preds, &mut depth);
        finalize_preds(&mut preds, 2, |_| true);
        assert_eq!((preds.as_slice(), depth), ([0usize, 1].as_slice(), 2));
        cell.note_write(2, 1 + depth, ());
        assert!(cell.readers.entries.is_empty(), "write clears readers");
        assert_eq!(cell.writer.unwrap().id, 2);
    }

    #[test]
    fn pruning_folds_depth_and_preserves_edscope() {
        const READERS: usize = 32;
        let mut cell: HazardCell<()> = HazardCell::default();
        for id in 0..READERS {
            cell.note_read(id, (id + 1) as u64);
        }
        // Prune everything but the last two "live" ids, then read again.
        cell.readers.prune(|t| t >= READERS - 2);
        cell.note_read(READERS, 40);
        assert_eq!(cell.readers.entries.len(), 3);
        assert_eq!(cell.readers.folded_depth, (READERS - 2) as u64);
        // A Mut still sees the folded depth.
        let (mut preds, mut depth) = (Vec::new(), 0u64);
        cell.fold_preds(true, &mut preds, &mut depth);
        assert_eq!(depth, 40);
        assert_eq!(preds.len(), 3);
    }

    #[test]
    fn finalize_drops_self_and_dead() {
        let mut preds = vec![5, 3, 5, 7, 3, 9];
        finalize_preds(&mut preds, 7, |p| p != 9);
        assert_eq!(preds, vec![3, 5]);
    }
}
