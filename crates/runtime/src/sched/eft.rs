//! Earliest-finish-time selection: HEFT's processor-selection rule,
//! restricted to the one choice this runtime leaves open.
//!
//! Classic HEFT picks, for the highest-ranked task, the processor that
//! finishes it earliest. Here placement is fixed by the data distribution
//! (owner computes — moving a task would move its tile), so the EFT rule
//! flips: among the *ready* tasks, run the one whose estimated finish —
//! data-ready time over the link model ⊔ earliest free cores, plus the
//! per-node duration from `task_seconds` — comes first
//! ([`crate::vtime::VirtualSchedule::estimate`]). The effect is gap
//! backfilling: where an insertion-order list schedule parks a core behind
//! a task whose remote input is still on the wire, EFT runs whatever can
//! actually finish, and the transfer completes behind useful work.
//!
//! # Lazy selection
//!
//! Estimates go stale with every scheduled task, but only in one
//! direction: processing a task claims cores (per-node free-time order
//! statistics only grow), extends NIC/trunk backlogs, and caches arrivals
//! at no earlier than their prior estimate — while a *ready* task's
//! writers and readers are frozen (anything that would rewrite its inputs
//! is hazard-ordered around its tenure in the ready set). So a cached
//! finish estimate is a **lower bound** on the task's fresh estimate, and
//! the classic lazy-heap trick applies: keep entries keyed by their last
//! known score, and on `pop` re-score only the top — if its fresh score
//! still beats the next entry's *cached* (= lower-bound) score, it beats
//! every fresh score in the heap and wins; otherwise push it back with
//! the new score and repeat. Amortized this replaces the full O(ready)
//! re-estimate per pop with a handful of re-scores, which is where the
//! policy's wall-clock decision cost lives.
//!
//! Ties break to the deeper chain, then the earlier insertion, for
//! determinism.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use super::{ReadyTask, SchedView, Scheduler};
use crate::vtime::OrderedF64;

/// A heap entry: the task plus its last computed finish estimate (a lower
/// bound on the current one; new entries start at -∞ = "never scored").
#[derive(Debug, Clone, Copy)]
struct Entry {
    score: OrderedF64,
    task: ReadyTask,
}

impl Entry {
    fn unscored(task: ReadyTask) -> Self {
        Entry {
            score: OrderedF64(f64::NEG_INFINITY),
            task,
        }
    }
}

// Total order: earliest finish first, ties to the deeper chain, then the
// earlier insertion — the same contract as `take_best_scored`.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.task.depth.cmp(&self.task.depth))
            .then_with(|| self.task.id.cmp(&other.task.id))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// Earliest-estimated-finish-first ready selection (lazy min-heap).
#[derive(Default)]
pub struct Eft {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl Scheduler for Eft {
    fn push(&mut self, task: ReadyTask) {
        self.heap.push(Reverse(Entry::unscored(task)));
    }

    fn pop(&mut self, view: &SchedView<'_>) -> Option<ReadyTask> {
        loop {
            let Reverse(top) = self.heap.pop()?;
            let fresh = Entry {
                score: OrderedF64(view.estimated_finish(&top.task)),
                task: top.task,
            };
            match self.heap.peek() {
                // Stale winner: its fresh score no longer beats even the
                // runner-up's cached lower bound. Reinsert and retry.
                Some(Reverse(next)) if fresh > *next => self.heap.push(Reverse(fresh)),
                // Fresh score ≤ every cached score ≤ every fresh score:
                // this is the earliest-finishing ready task.
                _ => return Some(fresh.task),
            }
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}
