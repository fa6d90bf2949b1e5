//! Step-granular bookkeeping and retirement for the streaming window.
//!
//! The window's memory bound is expressed in *steps*: at most `window`
//! consecutive elimination steps may be materialized at once. A step is
//! *live* from `open_step` (the planner starts inserting its tasks) until
//! it *retires*: fully planned **and** every one of its tasks completed.
//! Individual task records are reclaimed earlier — at task completion, by
//! the window itself — so the ledger only tracks per-step outstanding
//! counts, the live-step population the planner gates on, and the peak
//! statistics the reports expose.
//!
//! Retirement is the end of a step's memory, not only of its planner
//! slot: on the `StepEvent::retired` event the window drops the
//! directory entries of the data declared inside the step and calls
//! [`crate::graph::TaskOp::retire_step`], so the run context drops the
//! cells the step's task bodies communicated through. What a run holds is
//! then its run-scoped data plus at most `window` steps' worth of step
//! data. (The batch executor has no ledger; it reaches the same hook from
//! a per-step countdown built with the graph.)
//!
//! With per-node sub-windows the counts are additionally split by owner
//! node: when one node's share of a closed step drains, that node reports
//! it (a [`crate::comm::RetireMsg`] in the distributed protocol), and the
//! step retires once every participating node has reported.

use crate::hash::IntMap;

/// Per-step planning/completion state.
#[derive(Debug, Clone)]
struct StepStat {
    /// Tasks planned but not yet completed (all nodes).
    outstanding: usize,
    /// Still accepting insertions (between `open_step` and `close_step`).
    open: bool,
    /// Outstanding tasks per node.
    node_outstanding: Vec<usize>,
    /// Nodes that planned at least one task of this step.
    node_planned: Vec<bool>,
    /// Nodes whose drained share has been reported.
    node_reported: Vec<bool>,
}

/// What one task completion did to its step.
#[derive(Debug, Default)]
pub(crate) struct StepEvent {
    /// The completing node's share of the (closed) step just drained: it
    /// reports retirement of its sub-window slice.
    pub node_drained: Option<usize>,
    /// Every node reported: the step retired and planner capacity opened.
    pub retired: bool,
}

/// Tracks which steps are live and when each retires.
pub(crate) struct StepLedger {
    num_nodes: usize,
    steps: IntMap<usize, StepStat>,
    live_steps: usize,
    /// Highest concurrent live-step count observed.
    pub peak_live_steps: usize,
    /// Tasks planned per step (index = step), for window-bound reporting.
    pub per_step_planned: Vec<usize>,
}

impl StepLedger {
    pub fn new(num_nodes: usize) -> Self {
        StepLedger {
            num_nodes,
            steps: IntMap::default(),
            live_steps: 0,
            peak_live_steps: 0,
            per_step_planned: Vec::new(),
        }
    }

    /// Nodes the step counts are split over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of steps currently materialized (open or with outstanding
    /// tasks).
    pub fn live_steps(&self) -> usize {
        self.live_steps
    }

    /// Begin planning step `k`.
    pub fn open_step(&mut self, k: usize) {
        let prev = self.steps.insert(
            k,
            StepStat {
                outstanding: 0,
                open: true,
                node_outstanding: vec![0; self.num_nodes],
                node_planned: vec![false; self.num_nodes],
                node_reported: vec![false; self.num_nodes],
            },
        );
        assert!(prev.is_none(), "step {k} opened twice");
        self.live_steps += 1;
        self.peak_live_steps = self.peak_live_steps.max(self.live_steps);
        if self.per_step_planned.len() <= k {
            self.per_step_planned.resize(k + 1, 0);
        }
    }

    /// Record one task planned into step `k` on `node`.
    pub fn on_planned(&mut self, k: usize, node: usize) {
        let stat = self
            .steps
            .get_mut(&k)
            .unwrap_or_else(|| panic!("task planned into unopened step {k}"));
        assert!(stat.open, "task planned into closed step {k}");
        stat.outstanding += 1;
        stat.node_outstanding[node] += 1;
        stat.node_planned[node] = true;
        self.per_step_planned[k] += 1;
    }

    /// Planning of step `k` is finished. Nodes whose share is already
    /// drained report immediately (returned); the step may retire on the
    /// spot (a fully-executed step behind a long decision wait).
    pub fn close_step(&mut self, k: usize) -> (Vec<usize>, bool) {
        let stat = self
            .steps
            .get_mut(&k)
            .unwrap_or_else(|| panic!("closing unopened step {k}"));
        stat.open = false;
        let mut reports = Vec::new();
        for n in 0..self.num_nodes {
            if stat.node_planned[n] && stat.node_outstanding[n] == 0 && !stat.node_reported[n] {
                stat.node_reported[n] = true;
                reports.push(n);
            }
        }
        let retired = stat.outstanding == 0;
        if retired {
            self.retire(k);
        }
        (reports, retired)
    }

    /// Record one task of step `k` completed on `node`.
    pub fn on_completed(&mut self, k: usize, node: usize) -> StepEvent {
        let stat = self
            .steps
            .get_mut(&k)
            .unwrap_or_else(|| panic!("completion in unknown step {k}"));
        assert!(stat.outstanding > 0, "completion underflow in step {k}");
        assert!(
            stat.node_outstanding[node] > 0,
            "completion underflow in step {k} on node {node}"
        );
        stat.outstanding -= 1;
        stat.node_outstanding[node] -= 1;
        let mut ev = StepEvent::default();
        if !stat.open {
            if stat.node_outstanding[node] == 0 && !stat.node_reported[node] {
                stat.node_reported[node] = true;
                ev.node_drained = Some(node);
            }
            if stat.outstanding == 0 {
                self.retire(k);
                ev.retired = true;
            }
        }
        ev
    }

    fn retire(&mut self, k: usize) {
        self.steps.remove(&k);
        self.live_steps -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_retires_when_closed_and_drained() {
        let mut l = StepLedger::new(1);
        l.open_step(0);
        l.on_planned(0, 0);
        l.on_planned(0, 0);
        assert_eq!(l.live_steps(), 1);
        let ev = l.on_completed(0, 0); // one outstanding left, still open
        assert!(!ev.retired);
        let (reports, retired) = l.close_step(0);
        assert!(reports.is_empty() && !retired);
        assert_eq!(l.live_steps(), 1);
        let ev = l.on_completed(0, 0); // last completion retires the step
        assert!(ev.retired);
        assert_eq!(ev.node_drained, Some(0));
        assert_eq!(l.live_steps(), 0);
        assert_eq!(l.per_step_planned, vec![2]);
    }

    #[test]
    fn empty_step_retires_at_close() {
        let mut l = StepLedger::new(2);
        l.open_step(3);
        let (reports, retired) = l.close_step(3);
        assert!(reports.is_empty(), "no node planned, none report");
        assert!(retired);
        assert_eq!(l.live_steps(), 0);
        assert_eq!(l.peak_live_steps, 1);
    }

    #[test]
    fn peak_tracks_concurrent_steps() {
        let mut l = StepLedger::new(1);
        l.open_step(0);
        l.on_planned(0, 0);
        l.close_step(0);
        l.open_step(1);
        l.on_planned(1, 0);
        l.close_step(1);
        assert_eq!(l.peak_live_steps, 2);
        l.on_completed(0, 0);
        l.open_step(2);
        l.close_step(2);
        assert_eq!(l.peak_live_steps, 2);
    }

    #[test]
    fn nodes_report_their_share_independently() {
        let mut l = StepLedger::new(3);
        l.open_step(0);
        l.on_planned(0, 0);
        l.on_planned(0, 2);
        l.on_planned(0, 2);
        // Node 2 drains first, but the step is still open: no report yet.
        l.on_completed(0, 2);
        let ev = l.on_completed(0, 2);
        assert_eq!(ev.node_drained, None, "open step never reports");
        // Closing reports node 2's (already drained) share.
        let (reports, retired) = l.close_step(0);
        assert_eq!(reports, vec![2]);
        assert!(!retired);
        // Node 0's last completion reports and retires.
        let ev = l.on_completed(0, 0);
        assert_eq!(ev.node_drained, Some(0));
        assert!(ev.retired);
        // Node 1 planned nothing and never reports.
    }
}
