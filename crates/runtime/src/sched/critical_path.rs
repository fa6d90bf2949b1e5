//! Critical-path-depth priority: the deepest ready chain runs first.
//!
//! Every task's priority is its longest dependency chain from the sources,
//! `depth = 1 + max depth(pred)` over *all* its predecessors, scheduled
//! ones included: the replay computes it in one forward pass over the
//! graph's edges in id order, the streaming window folds it at insertion
//! along the closed-form predecessors its live steps still hold. The deepest chain in an LU/QR
//! factorization is the panel chain — PANEL(k) → column-(k+1) updates →
//! PANEL(k+1) → … — so popping the deepest ready task first keeps the
//! panel chain hot instead of draining a step's embarrassingly parallel
//! trailing updates first. This is the online analogue of HEFT's upward rank: with
//! successors unknown at submission time (the streaming window plans
//! steps lazily), chain depth *from the entry* is the computable stand-in,
//! and in a factorization's forward-flowing DAG the two orders agree along
//! the panel spine, where the choice matters.
//!
//! [`ReadyQueue`] is shared verbatim with the streaming window's host-side
//! worker scheduler: batch virtual-time
//! scheduling and streaming execution pop by one implementation. A queue
//! whose priorities are all equal pops in id order — the replay's FIFO.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::TaskId;

/// One entry of the ready queue: a runnable task and its priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ready {
    /// Priority: the critical-path depth (longest chain from any source
    /// task), or 0 for a queue that pops in id order.
    pub cp: u64,
    /// The runnable task.
    pub id: TaskId,
    /// The task's owner node (carried for the virtual-time engine; ignored
    /// by the ordering).
    pub node: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Self) -> Ordering {
        // Deepest first; ties broken toward the earliest-inserted task so
        // the pop order is deterministic and roughly follows insertion.
        self.cp.cmp(&other.cp).then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Max-heap of runnable tasks ordered by priority, then smallest id.
#[derive(Default)]
pub struct ReadyQueue(BinaryHeap<Ready>);

impl ReadyQueue {
    pub fn push(&mut self, cp: u64, id: TaskId, node: usize) {
        self.0.push(Ready { cp, id, node });
    }

    /// Pop the deepest ready task.
    pub fn pop(&mut self) -> Option<Ready> {
        self.0.pop()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_deepest_first_then_insertion_order() {
        let mut q = ReadyQueue::default();
        q.push(1, 10, 0);
        q.push(3, 11, 0);
        q.push(3, 7, 1);
        q.push(2, 12, 0);
        let order: Vec<(u64, TaskId)> =
            std::iter::from_fn(|| q.pop().map(|r| (r.cp, r.id))).collect();
        assert_eq!(order, vec![(3, 7), (3, 11), (2, 12), (1, 10)]);
        assert!(q.pop().is_none());
    }

    #[test]
    fn zero_priority_pops_in_id_order_regardless_of_push_order() {
        let mut q = ReadyQueue::default();
        for id in [5usize, 1, 9, 3] {
            q.push(0, id, 0);
        }
        let order: Vec<TaskId> = std::iter::from_fn(|| q.pop().map(|r| r.id)).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
    }
}
