//! The modelled fabric: a platform's communication and compute model
//! driven online, one completed task at a time.
//!
//! With a [`Platform`] in the options the window's tasks still run on the
//! host's threads, but every completion is also *priced*: fed to the
//! policy-driven virtual-time engine ([`SchedEngine`]) in insertion order —
//! hazard inference keys on it — so per-node virtual clocks advance as the
//! window drains and the run ends with a [`SimReport`], without the
//! equivalent batch graph ever existing. Under FIFO (the default) that
//! report equals replaying the batch graph through
//! [`crate::sim::simulate`]; the other policies choose among at most
//! [`VTIME_LOOKAHEAD`] buffered tasks here, against the replay's whole
//! graph, so their online schedules are their own.

use std::collections::BTreeMap;

use crate::graph::{CostedAccess, TaskId, TaskResult};
use crate::platform::Platform;
use crate::probe::Probe;
use crate::sched::SchedEngine;
use crate::sim::SimReport;

use super::StreamOptions;

/// Scheduling lookahead of the online virtual-time engine: how many
/// completed-but-unscheduled task records the policy may hold for choice.
/// Bounded so streaming memory stays O(window + declared data), not
/// O(task count); at this horizon the policy sees roughly a trailing
/// update's worth of candidates. FIFO is lookahead-invariant (pinned in
/// `sched_props.rs`), so the default policy is unaffected.
const VTIME_LOOKAHEAD: usize = 256;

/// One completion awaiting its turn in insertion order: `(node, accesses,
/// result, step)`.
type Completion = (usize, Vec<CostedAccess>, TaskResult, usize);

/// Online virtual-time state. Completed tasks are *submitted* to the
/// engine in insertion order, so only the id-contiguity buffer (bounded by
/// the live window span) is ever pending here; the engine itself buffers
/// at most [`VTIME_LOOKAHEAD`] submitted records for the policy to choose
/// among.
pub(super) struct Modelled {
    engine: SchedEngine,
    pending: BTreeMap<TaskId, Completion>,
    next: TaskId,
}

impl Modelled {
    /// Panics when `platform` does not describe `num_nodes` nodes: the
    /// caller's grid and platform disagree, which no run can recover from.
    pub(super) fn new(platform: &Platform, opts: &StreamOptions, num_nodes: usize) -> Self {
        if let Err(e) = platform.require_nodes(num_nodes) {
            panic!("cannot stream against this platform: {e}");
        }
        let mut engine = SchedEngine::new(platform, opts.scheduler).with_lookahead(VTIME_LOOKAHEAD);
        engine.attach_probe(&opts.probe);
        Modelled {
            engine,
            pending: BTreeMap::new(),
            next: 0,
        }
    }

    /// Task `id` of `step` completed on `node`: buffer it and submit the
    /// id-contiguous prefix (the policy engine schedules at its own pace
    /// within its lookahead bound).
    pub(super) fn completed(
        &mut self,
        id: TaskId,
        node: usize,
        step: usize,
        accesses: Vec<CostedAccess>,
        result: TaskResult,
    ) {
        self.pending.insert(id, (node, accesses, result, step));
        while let Some((n, accs, r, step)) = self.pending.remove(&self.next) {
            self.engine.submit_tagged(n, &accs, r, Some(step));
            self.next += 1;
        }
    }

    /// End of the run: schedule whatever the lookahead bound left for the
    /// policy to choose among (the choice set is final), export the
    /// attribution, and summarize the timeline.
    pub(super) fn report(&mut self, probe: &Probe) -> SimReport {
        debug_assert!(self.pending.is_empty(), "virtual time lagging the drain");
        self.engine.drain();
        self.engine.flush_probe();
        if probe.is_enabled() {
            if let Some(att) = self.engine.attribution() {
                probe.set_attribution(att);
            }
        }
        self.engine.report()
    }
}
