//! The modelled fabric: a platform's communication and compute model
//! driven online, one completed task at a time.
//!
//! With a [`Platform`] in the options the window's tasks still run on the
//! host's threads, but every completion is also *priced*: fed to the
//! policy-driven virtual-time engine ([`SchedEngine`]) in insertion order —
//! hazard inference keys on it — so per-node virtual clocks advance as the
//! window drains and the run ends with a [`SimReport`] equal to replaying
//! the equivalent batch graph through [`crate::sim::simulate`], without
//! that graph ever existing. Two opt-in uses of the same model ride along:
//! steal-at-insert re-homes a task against the engine's finish oracle, and
//! recalibration reports the per-node speeds observed over retired steps.

use std::collections::BTreeMap;

use crate::graph::{CostClass, CostedAccess, TaskId, TaskResult};
use crate::platform::Platform;
use crate::probe::{metric, Histogram, Label, Probe};
use crate::sched::SchedEngine;
use crate::sim::SimReport;

use super::{Placed, StreamOptions};

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
    /// Steal-at-insert ([`StreamOptions::steal`], on more than one node):
    /// tasks re-homed, evaluations that kept the owner, and the finish-time
    /// win of each re-homing.
    steal: Option<(u64, u64, Histogram)>,
    /// Online speed observation ([`StreamOptions::recalibrate`]).
    calib: Option<CalibState>,
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
            steal: (opts.steal && num_nodes > 1).then(|| (0, 0, Histogram::default())),
            calib: opts
                .recalibrate
                .then(|| CalibState::new(platform, num_nodes)),
        }
    }

    /// Price the accesses of a task being inserted on `node` (the engine's
    /// input at its completion) and, with stealing on, re-decide its node
    /// against the online finish oracle. The oracle lags insertion — the
    /// engine prices *completed* work — so this is a heuristic re-homing,
    /// not an exact one: an idle node strictly beating the owner (even
    /// after shipping every input it lacks) takes the task, outputs then
    /// live where it ran. Kernel numerics are placement-independent (same
    /// thread pool, hazard-serialized), so only message routing and the
    /// virtual timeline change.
    pub(super) fn place(
        &mut self,
        node: usize,
        accesses: impl Iterator<Item = CostedAccess>,
    ) -> Placed {
        let mut placed = Placed::on(node);
        placed.accesses = accesses.collect();
        let costed = &placed.accesses;
        let Some((steals, kept, win)) = &mut self.steal else {
            return placed;
        };
        // Duration proxy: insertion time precedes execution, so the true
        // flops are unknown; a GEMM-shaped O(b^1.5) guess from the largest
        // input tile ranks nodes by the same speed and transfer terms the
        // exact estimate would.
        let max_in = costed.iter().map(|ca| ca.bytes).max().unwrap_or(0);
        let proxy = TaskResult::executed(2.0 * ((max_in / 8) as f64).powf(1.5), CostClass::Gemm);
        let (chosen, owner_finish, best) = self.engine.steal_target(node, costed, &proxy, &[]);
        if chosen != node {
            *steals += 1;
            win.observe(owner_finish - best);
        } else {
            *kept += 1;
        }
        placed.node = chosen;
        placed
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
        if let Some(c) = &mut self.calib {
            c.record(step, node, &result);
        }
        self.pending.insert(id, (node, accesses, result, step));
        while let Some((n, accs, r, step)) = self.pending.remove(&self.next) {
            self.engine.submit_tagged(n, &accs, r, Some(step));
            self.next += 1;
        }
    }

    pub(super) fn retired(&mut self, step: usize) {
        if let Some(c) = &mut self.calib {
            c.fold_retired(step);
        }
    }

    /// Per-node effective speeds over fully-retired steps; `None` until
    /// recalibration is on *and* a step has retired.
    pub(super) fn speeds(&self) -> Option<Vec<f64>> {
        self.calib
            .as_ref()
            .filter(|c| c.folded_steps > 0)
            .map(CalibState::speeds)
    }

    /// End of the run: schedule whatever the lookahead bound left for the
    /// policy to choose among (the choice set is final), export the
    /// attribution and the steal statistics, and summarize the timeline.
    /// Returns the report with the `(steals, kept)` counts.
    pub(super) fn report(&mut self, probe: &Probe) -> (SimReport, u64, u64) {
        debug_assert!(self.pending.is_empty(), "virtual time lagging the drain");
        self.engine.drain();
        self.engine.flush_probe();
        let (steals, kept, win) = self.steal.unwrap_or_default();
        if probe.is_enabled() {
            if let Some(att) = self.engine.attribution() {
                probe.set_attribution(att);
            }
            if steals + kept > 0 {
                let label = Label::Policy(self.engine.policy().name());
                probe.record_batch(|sink| {
                    sink.counter(metric::SCHED_STEALS, label, steals);
                    sink.counter(metric::SCHED_STEAL_KEPT, label, kept);
                    sink.merge_histogram(metric::SCHED_STEAL_WIN, label, &win);
                });
            }
        }
        (self.engine.report(), steals, kept)
    }
}

/// Online speed observation for [`crate::stream::StepSource::recalibrate`]:
/// executed compute flops bucketed per (step, node, class) at completion,
/// folded into running totals when the step retires — so the speeds
/// reported reflect *finished* steps only, not half-drained ones. The
/// per-node effective GFLOP/s is the platform model evaluated at the
/// observed class mix, exactly
/// [`crate::sim::SimReport::observed_node_speeds`] (task seconds are
/// linear in flops per class, so bucketed totals price identically to
/// per-task sums).
struct CalibState {
    platform: Platform,
    per_step: BTreeMap<usize, Vec<[f64; CostClass::COUNT]>>,
    totals: Vec<[f64; CostClass::COUNT]>,
    folded_steps: usize,
}

impl CalibState {
    fn new(platform: &Platform, nodes: usize) -> Self {
        CalibState {
            platform: platform.clone(),
            per_step: BTreeMap::new(),
            totals: vec![[0.0; CostClass::COUNT]; nodes],
            folded_steps: 0,
        }
    }

    fn record(&mut self, step: usize, node: usize, result: &TaskResult) {
        if result.executed && result.class.is_compute() && result.flops > 0.0 {
            let nodes = self.totals.len();
            self.per_step
                .entry(step)
                .or_insert_with(|| vec![[0.0; CostClass::COUNT]; nodes])[node]
                [result.class.index()] += result.flops;
        }
    }

    fn fold_retired(&mut self, step: usize) {
        if let Some(buckets) = self.per_step.remove(&step) {
            for (tot, got) in self.totals.iter_mut().zip(&buckets) {
                for (t, g) in tot.iter_mut().zip(got) {
                    *t += g;
                }
            }
        }
        self.folded_steps += 1;
    }

    /// Per-node effective GFLOP/s over everything folded so far (0.0 for
    /// nodes with no observations yet — [`crate::tile`]'s calibrated
    /// distribution floors those).
    fn speeds(&self) -> Vec<f64> {
        self.totals
            .iter()
            .enumerate()
            .map(|(n, flops)| {
                let (mut f, mut secs) = (0.0f64, 0.0f64);
                for class in CostClass::ALL {
                    if class.is_compute() {
                        let v = flops[class.index()];
                        if v > 0.0 {
                            f += v;
                            secs += self.platform.task_seconds(n, v, class);
                        }
                    }
                }
                if secs > 0.0 {
                    self.platform.node(n).cores as f64 * f / secs / 1e9
                } else {
                    0.0
                }
            })
            .collect()
    }
}
