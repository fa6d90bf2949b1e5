//! Insertion-order selection: the policy that pins history.
//!
//! Graph edges always point from lower to higher task ids, so the
//! smallest ready id is always the smallest *unscheduled* id — popping it
//! replays insertion order exactly, claim for claim, transfer for
//! transfer. `sched_props.rs` pins this bitwise against a raw
//! [`crate::vtime::VirtualSchedule`] fed the graph's tasks in id order,
//! which is what keeps the makespans pinned in `tests/tests/pins.rs`
//! valid: FIFO is one more policy of the replay, with no path of its own.

use std::collections::BTreeMap;

use super::{ReadyTask, SchedView, Scheduler};
use crate::graph::TaskId;

/// Smallest-submission-id-first ready selection.
#[derive(Default)]
pub struct Fifo {
    ready: BTreeMap<TaskId, ReadyTask>,
}

impl Scheduler for Fifo {
    fn push(&mut self, task: ReadyTask) {
        self.ready.insert(task.id, task);
    }

    fn pop(&mut self, _view: &SchedView<'_>) -> Option<ReadyTask> {
        self.ready.pop_first().map(|(_, t)| t)
    }

    fn len(&self) -> usize {
        self.ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_id_order_regardless_of_push_order() {
        let mut f = Fifo::default();
        for id in [5usize, 1, 9, 3] {
            f.push(ReadyTask {
                id,
                node: 0,
                depth: 1,
            });
        }
        // Fifo never scores: a view of an empty ready set will do.
        let vt = crate::vtime::VirtualSchedule::new(&crate::platform::Platform::single_node(1));
        let pending = crate::hash::IntMap::default();
        let view = SchedView::new(&vt, &pending);
        let order: Vec<TaskId> = std::iter::from_fn(|| f.pop(&view).map(|t| t.id)).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }
}
