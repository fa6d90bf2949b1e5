//! Step-granular bookkeeping and retirement for the streaming window.
//!
//! The window's memory bound is expressed in *steps*: at most `window`
//! consecutive elimination steps may be materialized at once. A step is
//! *live* from `open_step` (the planner starts inserting its tasks) until
//! it *retires*: fully planned, every one of its tasks completed, and the
//! step before it retired. Individual task records are reclaimed earlier —
//! at task completion, by the window itself — so a live step's entry in
//! the window's step table ([`StepTable`]) keeps, beside its planned tasks
//! by position, only the edge blocks of its phases (each live
//! predecessor's successors and owed transfers there), its outstanding
//! count and the data declared in it; the table also counts the live steps
//! the planner gates on, and their peak.
//!
//! Retirement is the end of a step's memory, not only of its planner
//! slot: when a step retires the window drops the step's blocks (every
//! edge in them was walked when its predecessor completed), the directory
//! entries of the data declared inside the step and calls
//! [`crate::graph::TaskOp::retire_step`], so the run context drops the
//! cells the step's task bodies communicated through. What a run holds is
//! then its run-scoped data plus at most `window` steps' worth of step
//! data. (The batch executor has no step table; it reaches the same hook
//! from a per-step countdown built with the graph.)
//!
//! Steps retire *in order*. A step's blocks hold the transfers live
//! producers of the step before owe the step's consumers, and on a wire
//! rank, where those consumers run on other ranks, nothing else keeps the
//! step here until the producers complete. The table also keeps the last
//! retired step's planned tasks, for the next step's tasks to find the
//! writers they name there (the window's "Rank-local planning").

use crate::graph::TaskId;

use super::window::{Block, Slot};
use super::wire::ArrivalKey;

/// A task in its step's table: what a later insertion needs of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planned {
    pub id: TaskId,
    /// Its critical-path depth.
    pub depth: u64,
    /// The node it was placed on.
    pub node: usize,
    /// It has completed.
    pub done: bool,
}

/// A live step in the window's step table.
#[derive(Debug)]
pub(crate) struct LiveStep {
    /// The step's planned tasks by position.
    pub tasks: Vec<Option<Planned>>,
    /// Each planning phase's edges out of the tasks live when it was
    /// planned, in planning order.
    pub blocks: Vec<Block>,
    /// The slots of the data declared in the step, dropped with it.
    pub data: Vec<Slot>,
    /// On a wire, the inputs that cross it to the step's tasks here; a
    /// task's live record holds its range.
    pub needs: Vec<ArrivalKey>,
    /// Still accepting insertions (between `open` and `close`).
    open: bool,
    /// Tasks planned here but not yet completed.
    outstanding: usize,
}

/// The window's step table: each live step by index (`None` before it
/// opens and after it retires), and the live-step counts the planner gates
/// on and the report reads.
#[derive(Default)]
pub(crate) struct StepTable {
    /// The last retired step and its table: while the step after it is
    /// planned, a rank whose sweep skipped data still finds the writers
    /// that step's tasks name there.
    kept: Option<(usize, Vec<Option<Planned>>)>,
    steps: Vec<Option<LiveStep>>,
    live: usize,
    /// Highest concurrent live-step count observed.
    pub peak_live: usize,
    /// Tasks planned per step (index = step), for window-bound reporting.
    pub per_step_tasks: Vec<usize>,
}

impl StepTable {
    /// Number of steps currently materialized (open or with outstanding
    /// tasks).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Step `k`, while it is live.
    pub fn get(&self, k: usize) -> Option<&LiveStep> {
        self.steps.get(k)?.as_ref()
    }

    /// Step `k`, while it is live.
    pub fn get_mut(&mut self, k: usize) -> Option<&mut LiveStep> {
        self.steps.get_mut(k)?.as_mut()
    }

    /// Step `k`'s planned tasks by position, while it is live or the last
    /// retired step.
    pub fn tasks(&self, k: usize) -> Option<&[Option<Planned>]> {
        match self.get(k) {
            Some(step) => Some(&step.tasks),
            None => self
                .kept
                .as_ref()
                .filter(|kept| kept.0 == k)
                .map(|kept| &kept.1[..]),
        }
    }

    /// Step `k`, which must be live.
    pub fn live_mut(&mut self, k: usize) -> &mut LiveStep {
        self.get_mut(k)
            .unwrap_or_else(|| panic!("step {k} is not live"))
    }

    /// Begin planning step `k`.
    pub fn open(&mut self, k: usize) {
        if self.steps.len() <= k {
            self.steps.resize_with(k + 1, || None);
            self.per_step_tasks.resize(k + 1, 0);
        }
        assert!(self.steps[k].is_none(), "step {k} opened twice");
        self.steps[k] = Some(LiveStep {
            tasks: Vec::new(),
            blocks: Vec::new(),
            data: Vec::new(),
            needs: Vec::new(),
            open: true,
            outstanding: 0,
        });
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
    }

    /// Record one task planned into step `k`.
    pub fn planned(&mut self, k: usize) {
        let step = self.live_mut(k);
        assert!(step.open, "task planned into closed step {k}");
        step.outstanding += 1;
        self.per_step_tasks[k] += 1;
    }

    /// Step `k` is closed and drained, and the step before it has retired:
    /// it retires now.
    pub fn retires(&self, k: usize) -> bool {
        let earlier_gone = k == 0 || self.get(k - 1).is_none();
        self.get(k)
            .is_some_and(|s| !s.open && s.outstanding == 0 && earlier_gone)
    }

    /// Planning of step `k` is finished: does it retire on the spot (a
    /// fully-executed step behind a long decision wait)?
    pub fn close(&mut self, k: usize) -> bool {
        self.live_mut(k).open = false;
        self.retires(k)
    }

    /// Record one task of step `k` completed: does the step retire?
    pub fn completed(&mut self, k: usize) -> bool {
        let step = self.live_mut(k);
        assert!(step.outstanding > 0, "completion underflow in step {k}");
        step.outstanding -= 1;
        self.retires(k)
    }

    /// Step `k` retired (`close` or `completed` said so): take it out of
    /// the table.
    pub fn retire(&mut self, k: usize) -> LiveStep {
        let mut step = self.steps[k].take().expect("a live step retires");
        self.live -= 1;
        self.kept = Some((k, std::mem::take(&mut step.tasks)));
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_retires_when_closed_and_drained() {
        let mut t = StepTable::default();
        t.open(0);
        t.planned(0);
        t.planned(0);
        assert_eq!(t.live(), 1);
        assert!(!t.completed(0), "one outstanding left, still open");
        assert!(!t.close(0));
        assert_eq!(t.live(), 1);
        assert!(t.completed(0), "the last completion retires the step");
        t.retire(0);
        assert_eq!(t.live(), 0);
        assert!(t.get(0).is_none());
        assert_eq!(t.per_step_tasks, vec![2]);
    }

    #[test]
    fn empty_step_retires_at_close() {
        let mut t = StepTable::default();
        t.open(3);
        assert!(t.close(3));
        t.retire(3);
        assert_eq!(t.live(), 0);
        assert_eq!(t.peak_live, 1);
    }

    #[test]
    fn peak_tracks_concurrent_steps() {
        let mut t = StepTable::default();
        t.open(0);
        t.planned(0);
        t.close(0);
        t.open(1);
        t.planned(1);
        t.close(1);
        assert_eq!(t.peak_live, 2);
        assert!(t.completed(0));
        t.retire(0);
        t.open(2);
        t.close(2);
        assert_eq!(t.peak_live, 2);
    }

    /// A drained step waits for the one before it, and retires once asked
    /// again after that one has; the last retired step's table is kept.
    #[test]
    fn in_order_steps_wait_for_the_one_before() {
        let mut t = StepTable::default();
        for k in 0..2 {
            t.open(k);
            t.planned(k);
        }
        t.close(0);
        assert!(!t.close(1));
        assert!(!t.completed(1), "step 0 is still live");
        assert!(!t.retires(1));
        assert!(t.completed(0));
        t.retire(0);
        assert!(t.tasks(0).is_some_and(|tasks| tasks.is_empty()), "kept");
        assert!(t.retires(1));
        t.retire(1);
        assert!(t.tasks(0).is_none() && t.tasks(1).is_some());
        t.open(2);
        assert!(
            t.close(2),
            "an empty step after retired ones retires at close"
        );
    }

    /// Steps that drain behind a live one retire one by one once it has,
    /// each asked after the one before it is gone; a drained step still
    /// open waits for its close.
    #[test]
    fn drained_steps_retire_behind_the_one_before() {
        let mut t = StepTable::default();
        for k in 0..4 {
            t.open(k);
            t.planned(k);
        }
        for k in 0..3 {
            t.close(k);
        }
        for k in [3, 2, 1] {
            assert!(!t.completed(k), "step {k} waits for step 0");
        }
        assert!(t.completed(0));
        t.retire(0);
        for k in 1..3 {
            assert!(t.retires(k), "step {k} follows the one before");
            t.retire(k);
        }
        assert!(!t.retires(3), "step 3 is still open");
        assert_eq!(t.live(), 1);
        assert!(t.close(3));
        t.retire(3);
        assert_eq!((t.live(), t.peak_live), (0, 4));
        assert_eq!(t.per_step_tasks, vec![1; 4]);
    }
}
