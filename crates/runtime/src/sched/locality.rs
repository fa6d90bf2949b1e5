//! Locality-aware selection: keep the chain hot, break ties toward
//! resident data.
//!
//! Each ready task carries its critical-path depth and a score of the
//! input bytes its owner node is still missing — the transfer volume that
//! scheduling it *now* would have to wait for
//! ([`crate::vtime::VirtualSchedule::missing_input_bytes`]). Selection is
//! deepest-chain-first, and only among equally deep tasks does the
//! missing-bytes score decide (then earliest insertion) — the
//! StarPU/PaRSEC data-reuse queue discipline, subordinated to chain
//! depth.
//!
//! # Why depth outranks bytes (measured)
//!
//! The first version of this policy ranked by missing bytes alone, depth
//! only on byte ties — and *lost to FIFO* on the homogeneous reference
//! cluster (0.98x at n=320) while winning modestly on the contended mixed
//! one. The diagnosis: a panel-chain task missing a single tile lost to
//! every shallow resident update, so the one chain that bounds the
//! makespan sat behind bulk trailing work; meanwhile the stall it was
//! "avoiding" was mostly imaginary, because nodes have many cores and a
//! waiting task's transfer overlaps other tasks' compute. An even
//! stronger resident-first variant (any-resident before any-missing,
//! depth inside each class) made things much worse (0.88x homogeneous,
//! 0.93x mixed) — confirming starvation of the critical chain, not byte
//! magnitude, as the mechanism. Depth-primary recovers both fixtures
//! (1.08x homogeneous, 1.18x mixed at n=320) while keeping the byte
//! tie-break's preference for resident work when chains are equally
//! deep.
//!
//! Note what this policy cannot change: the *number* of transfers. A
//! version crosses to a destination once however the schedule is permuted
//! (property-tested), so the win is purely overlap — stalls hide behind
//! resident work.
//!
//! # Incremental scoring
//!
//! Missing-bytes scores are cached, not recomputed wholesale per pop.
//! Processing a task on node `d` can change a *ready* task's score only
//! by delivering data **to `d`** (its transfers target the execution
//! node), and only downward — nothing a non-hazard-ordered task does can
//! make a resident input non-resident, and every task that rewrites one
//! of a ready task's inputs is hazard-ordered outside its ready tenure.
//! So the engine's [`Scheduler::invalidate`] marks `d` dirty, and a pop
//! re-scores exactly the entries that could have moved: never-scored
//! ones, and dirty-node entries whose cached score is nonzero (a zero
//! score cannot drop further). Every compared score is therefore exact,
//! so selection is bitwise what a full rescan would produce — an
//! argument independent of the comparator, which is why the depth-primary
//! re-ranking above needed no change here.

use std::collections::HashSet;

use super::{ReadyTask, SchedView, Scheduler};

struct Entry {
    task: ReadyTask,
    /// Cached missing-input-bytes score (exact once `fresh`).
    score: u64,
    fresh: bool,
}

/// Deepest-chain-first, fewest-missing-input-bytes tie-break.
#[derive(Default)]
pub struct LocalityAware {
    ready: Vec<Entry>,
    /// Nodes that received data since the last pop; cached scores of
    /// entries owned there may have decreased.
    dirty: HashSet<usize>,
}

impl Scheduler for LocalityAware {
    fn push(&mut self, task: ReadyTask) {
        self.ready.push(Entry {
            task,
            score: u64::MAX,
            fresh: false,
        });
    }

    fn invalidate(&mut self, node: usize) {
        self.dirty.insert(node);
    }

    fn pop(&mut self, view: &SchedView<'_>) -> Option<ReadyTask> {
        if self.ready.is_empty() {
            return None;
        }
        for e in &mut self.ready {
            if !e.fresh || (e.score > 0 && self.dirty.contains(&e.task.node)) {
                e.score = view.missing_input_bytes(&e.task);
                e.fresh = true;
            }
        }
        self.dirty.clear();
        let mut best = 0usize;
        for i in 1..self.ready.len() {
            let (a, b) = (&self.ready[i], &self.ready[best]);
            let better = a.task.depth > b.task.depth
                || (a.task.depth == b.task.depth
                    && (a.score < b.score || (a.score == b.score && a.task.id < b.task.id)));
            if better {
                best = i;
            }
        }
        Some(self.ready.swap_remove(best).task)
    }

    fn len(&self) -> usize {
        self.ready.len()
    }
}
