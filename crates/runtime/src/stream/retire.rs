//! Step-granular bookkeeping and retirement for the streaming window.
//!
//! The window's memory bound is expressed in *steps*: at most `window`
//! consecutive elimination steps may be materialized at once. A step is
//! *live* from `open_step` (the planner starts inserting its tasks) until
//! it *retires*: fully planned **and** every one of its tasks completed.
//! Individual task records are reclaimed earlier — at task completion, by
//! the window itself — so a live step's entry in the window's step table
//! ([`StepTable`]) keeps, beside its planned tasks by position, only the
//! edge blocks of its phases (each live predecessor's successors and owed
//! transfers there), its outstanding counts, the data declared in it and
//! which nodes have reported their share; the table also counts the live
//! steps the planner gates on, and their peak.
//!
//! Retirement is the end of a step's memory, not only of its planner
//! slot: on the `StepEvent::retired` event the window drops the step's
//! blocks (every edge in them was walked when its predecessor completed),
//! the directory entries of the data declared inside the step and calls
//! [`crate::graph::TaskOp::retire_step`], so the run context drops the
//! cells the step's task bodies communicated through. What a run holds is
//! then its run-scoped data plus at most `window` steps' worth of step
//! data. (The batch executor has no step table; it reaches the same hook
//! from a per-step countdown built with the graph.)
//!
//! The counts are split by owner node: when one node's share of a closed
//! step drains, that node reports it (a [`crate::comm::RetireMsg`] in the
//! distributed protocol), and the step retires once every participating
//! node has reported.
//!
//! A table that counts only one rank's share retires its steps *in order*:
//! a step also waits for the one before it to retire. A step's blocks hold
//! the transfers live producers of the step before owe the step's
//! consumers, and where those consumers run on other ranks nothing else
//! keeps the step here until the producers complete. Such a table also
//! keeps the last retired step's planned tasks, for the next step's tasks
//! to find the writers they name there (the window's "Rank-local planning").

use crate::graph::TaskId;

use super::window::{Block, Slot};
use super::wire::ArrivalKey;

/// One node's share of a live step.
#[derive(Debug, Clone, Copy, Default)]
struct NodeShare {
    /// Tasks planned on the node and not yet completed.
    outstanding: usize,
    /// The node planned at least one task of the step.
    planned: bool,
    /// The node's drained share has been reported.
    reported: bool,
}

/// What one task completion did to its step.
#[derive(Debug, Default)]
pub(crate) struct StepEvent {
    /// The completing node's share of the (closed) step just drained: it
    /// reports retirement of its sub-window slice.
    pub node_drained: Option<usize>,
    /// Every node reported (and, in order, the step before retired): the
    /// step retires and planner capacity opens.
    pub retired: bool,
}

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
    /// task's record holds its range ([`super::Placed`]).
    pub needs: Vec<ArrivalKey>,
    /// Still accepting insertions (between `open` and `close`).
    open: bool,
    /// Tasks planned but not yet completed (all nodes).
    outstanding: usize,
    nodes: Vec<NodeShare>,
}

/// The window's step table: each live step by index (`None` before it
/// opens and after it retires), and the live-step counts the planner gates
/// on and the report reads.
pub(crate) struct StepTable {
    num_nodes: usize,
    /// A step retires only after the one before it, and its table of
    /// planned tasks outlives it until the next step retires.
    in_order: bool,
    /// In order, the last retired step and its table: while the step after
    /// it is planned, a rank whose sweep skipped data still finds the
    /// writers that step's tasks name there.
    kept: Option<(usize, Vec<Option<Planned>>)>,
    steps: Vec<Option<LiveStep>>,
    live: usize,
    /// Highest concurrent live-step count observed.
    pub peak_live: usize,
    /// Tasks planned per step (index = step), for window-bound reporting.
    pub per_step_tasks: Vec<usize>,
}

impl StepTable {
    pub fn new(num_nodes: usize, in_order: bool) -> Self {
        StepTable {
            num_nodes,
            in_order,
            kept: None,
            steps: Vec::new(),
            live: 0,
            peak_live: 0,
            per_step_tasks: Vec::new(),
        }
    }

    /// Nodes the step counts are split over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

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

    /// Step `k`'s planned tasks by position, while it is live or, in order,
    /// the last retired step.
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
            nodes: vec![NodeShare::default(); self.num_nodes],
        });
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
    }

    /// Record one task planned into step `k` on `node`.
    pub fn planned(&mut self, k: usize, node: usize) {
        let step = self.live_mut(k);
        assert!(step.open, "task planned into closed step {k}");
        step.outstanding += 1;
        let share = &mut step.nodes[node];
        share.outstanding += 1;
        share.planned = true;
        self.per_step_tasks[k] += 1;
    }

    /// Step `k` is closed and drained, and — on an in-order table — the
    /// step before it has retired: it retires now.
    pub fn retires(&self, k: usize) -> bool {
        let earlier_gone = !self.in_order || k == 0 || self.get(k - 1).is_none();
        self.get(k)
            .is_some_and(|s| !s.open && s.outstanding == 0 && earlier_gone)
    }

    /// Planning of step `k` is finished. Nodes whose share is already
    /// drained report immediately (returned); the step may retire on the
    /// spot (a fully-executed step behind a long decision wait).
    pub fn close(&mut self, k: usize) -> (Vec<usize>, bool) {
        let step = self.live_mut(k);
        step.open = false;
        let mut reports = Vec::new();
        for (n, share) in step.nodes.iter_mut().enumerate() {
            if share.planned && share.outstanding == 0 && !share.reported {
                share.reported = true;
                reports.push(n);
            }
        }
        (reports, self.retires(k))
    }

    /// Record one task of step `k` completed on `node`.
    pub fn completed(&mut self, k: usize, node: usize) -> StepEvent {
        let step = self.live_mut(k);
        assert!(step.outstanding > 0, "completion underflow in step {k}");
        let share = &mut step.nodes[node];
        assert!(
            share.outstanding > 0,
            "completion underflow in step {k} on node {node}"
        );
        step.outstanding -= 1;
        share.outstanding -= 1;
        let mut ev = StepEvent::default();
        if !step.open && share.outstanding == 0 && !share.reported {
            share.reported = true;
            ev.node_drained = Some(node);
        }
        ev.retired = self.retires(k);
        ev
    }

    /// Step `k` retired (`close` or `completed` said so): take it out of
    /// the table.
    pub fn retire(&mut self, k: usize) -> LiveStep {
        let mut step = self.steps[k].take().expect("a live step retires");
        self.live -= 1;
        if self.in_order {
            self.kept = Some((k, std::mem::take(&mut step.tasks)));
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_retires_when_closed_and_drained() {
        let mut t = StepTable::new(1, false);
        t.open(0);
        t.planned(0, 0);
        t.planned(0, 0);
        assert_eq!(t.live(), 1);
        let ev = t.completed(0, 0); // one outstanding left, still open
        assert!(!ev.retired);
        let (reports, retired) = t.close(0);
        assert!(reports.is_empty() && !retired);
        assert_eq!(t.live(), 1);
        let ev = t.completed(0, 0); // last completion retires the step
        assert!(ev.retired);
        assert_eq!(ev.node_drained, Some(0));
        t.retire(0);
        assert_eq!(t.live(), 0);
        assert!(t.get(0).is_none());
        assert_eq!(t.per_step_tasks, vec![2]);
    }

    #[test]
    fn empty_step_retires_at_close() {
        let mut t = StepTable::new(2, false);
        t.open(3);
        let (reports, retired) = t.close(3);
        assert!(reports.is_empty(), "no node planned, none report");
        assert!(retired);
        t.retire(3);
        assert_eq!(t.live(), 0);
        assert_eq!(t.peak_live, 1);
    }

    #[test]
    fn peak_tracks_concurrent_steps() {
        let mut t = StepTable::new(1, false);
        t.open(0);
        t.planned(0, 0);
        t.close(0);
        t.open(1);
        t.planned(1, 0);
        t.close(1);
        assert_eq!(t.peak_live, 2);
        assert!(t.completed(0, 0).retired);
        t.retire(0);
        t.open(2);
        assert!(t.close(2).1);
        t.retire(2);
        assert_eq!(t.peak_live, 2);
    }

    /// In order, a drained step waits for the one before it, and retires
    /// once asked again after that one has.
    #[test]
    fn in_order_steps_wait_for_the_one_before() {
        let mut t = StepTable::new(1, true);
        for k in 0..2 {
            t.open(k);
            t.planned(k, 0);
        }
        t.close(0);
        assert_eq!(t.close(1), (vec![], false));
        let ev = t.completed(1, 0);
        assert_eq!((ev.node_drained, ev.retired), (Some(0), false));
        assert!(!t.retires(1), "step 0 is still live");
        assert!(t.completed(0, 0).retired);
        t.retire(0);
        assert!(t.tasks(0).is_some_and(|tasks| tasks.is_empty()), "kept");
        assert!(t.retires(1));
        t.retire(1);
        assert!(t.tasks(0).is_none() && t.tasks(1).is_some());
        t.open(2);
        assert!(
            t.close(2).1,
            "an empty step after retired ones retires at close"
        );
    }

    #[test]
    fn nodes_report_their_share_independently() {
        let mut t = StepTable::new(3, false);
        t.open(0);
        t.planned(0, 0);
        t.planned(0, 2);
        t.planned(0, 2);
        // Node 2 drains first, but the step is still open: no report yet.
        t.completed(0, 2);
        let ev = t.completed(0, 2);
        assert_eq!(ev.node_drained, None, "open step never reports");
        // Closing reports node 2's (already drained) share.
        let (reports, retired) = t.close(0);
        assert_eq!(reports, vec![2]);
        assert!(!retired);
        // Node 0's last completion reports and retires.
        let ev = t.completed(0, 0);
        assert_eq!(ev.node_drained, Some(0));
        assert!(ev.retired);
        // Node 1 planned nothing and never reports.
    }
}
