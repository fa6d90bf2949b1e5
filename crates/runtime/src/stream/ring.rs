//! The window's live task records: a ring indexed by task id.

use std::collections::VecDeque;

use crate::graph::TaskId;

/// Live task records, indexed by id.
///
/// Ids are issued sequentially, so the record of task `id` sits at
/// `slots[id - base]` (empty for an id issued without a record).
/// Completion empties the slot; the base advances past
/// the leading run of empty slots, so an out-of-order completion holds the
/// base (and its slot) until every older task is done. An id below the
/// base therefore names a completed task and a dependency on it is
/// vacuous. The span `slots.len()` is bounded by the tasks of the live
/// window of steps.
pub(super) struct TaskRing<T> {
    // `base` and `slots` are read by the window's table tests.
    pub(super) base: TaskId,
    pub(super) slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for TaskRing<T> {
    fn default() -> Self {
        TaskRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<T> TaskRing<T> {
    /// The id the next [`TaskRing::push`] will issue.
    pub(super) fn next_id(&self) -> TaskId {
        self.base + self.slots.len()
    }

    pub(super) fn push(&mut self, task: T) -> TaskId {
        let id = self.next_id();
        self.slots.push_back(Some(task));
        self.live += 1;
        id
    }

    /// Issue the next id to a task that gets no record here (a wire rank's
    /// task placed on another rank, with no stand-in): the id is never
    /// live.
    pub(super) fn skip(&mut self) -> TaskId {
        let id = self.next_id();
        if self.slots.is_empty() {
            self.base += 1;
        } else {
            self.slots.push_back(None);
        }
        id
    }

    pub(super) fn get_mut(&mut self, id: TaskId) -> Option<&mut T> {
        self.slots.get_mut(id.checked_sub(self.base)?)?.as_mut()
    }

    pub(super) fn get(&self, id: TaskId) -> Option<&T> {
        self.slots.get(id.checked_sub(self.base)?)?.as_ref()
    }

    pub(super) fn is_live(&self, id: TaskId) -> bool {
        self.get(id).is_some()
    }

    /// Reclaim the record of `id` (`None` if it is not live).
    pub(super) fn remove(&mut self, id: TaskId) -> Option<T> {
        let task = self.slots.get_mut(id.checked_sub(self.base)?)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(task)
    }

    /// Number of live records.
    pub(super) fn live(&self) -> usize {
        self.live
    }
}
