//! The policy-driven virtual-time engine: hazard inference + ready-set
//! management wrapped around [`VirtualSchedule`]'s per-task costing.
//!
//! [`SchedEngine`] accepts tasks in **insertion order** (the order hazard
//! inference keys on — the same contract as [`crate::graph::GraphBuilder`]
//! and the streaming window), buffers them, and lets its [`Scheduler`]
//! decide the order in which buffered-and-ready tasks claim cores and
//! network slots. Any pop order the ready set permits is a topological
//! order of the hazard DAG, so the underlying scoreboard stays consistent;
//! the policy only chooses *which* valid list schedule the run gets.
//!
//! Its one caller is the replay ([`crate::sim::simulate_with`]): every
//! task is submitted, then [`SchedEngine::drain`] schedules the whole graph
//! with full lookahead, recording each task's span by submission id.

use std::time::Instant;

use super::{ReadyTask, SchedPolicy, Scheduler};
use crate::graph::{Access, CostedAccess, DataKey, TaskId, TaskResult};
use crate::hash::IntMap;
use crate::hazard::HazardCell;
use crate::platform::Platform;
use crate::probe::report::Attribution;
use crate::probe::{metric, Histogram, Label, Probe};
use crate::sim::SimReport;
use crate::vtime::VirtualSchedule;

/// A submitted task awaiting its turn in the virtual schedule.
pub(crate) struct Buffered {
    node: usize,
    accesses: Vec<CostedAccess>,
    result: TaskResult,
    preds_remaining: usize,
    succs: Vec<TaskId>,
    depth: u64,
    /// Elimination-step tag for the attribution pass (None if untagged).
    step: Option<usize>,
    /// Virtual time at which the task entered the ready pool.
    ready_at: f64,
}

/// Read-only view of the engine at selection time, handed to
/// [`Scheduler::pop`] so dynamic policies can score ready tasks against
/// the current core/network state.
pub struct SchedView<'a> {
    vt: &'a VirtualSchedule,
    tasks: &'a IntMap<TaskId, Buffered>,
}

impl<'a> SchedView<'a> {
    pub(crate) fn new(vt: &'a VirtualSchedule, tasks: &'a IntMap<TaskId, Buffered>) -> Self {
        SchedView { vt, tasks }
    }

    /// Input bytes the task would still have to move to its node if it ran
    /// now (0 = fully local / cached; discarded tasks move nothing).
    pub fn missing_input_bytes(&self, task: &ReadyTask) -> u64 {
        let b = &self.tasks[&task.id];
        if !b.result.executed {
            return 0;
        }
        self.vt.missing_input_bytes(b.node, &b.accesses)
    }

    /// Estimated finish time of running the task now (HEFT's EFT oracle:
    /// data-ready over the link model ⊔ cores-free, plus the per-node
    /// duration). Discarded tasks finish "immediately" at 0.0.
    pub fn estimated_finish(&self, task: &ReadyTask) -> f64 {
        let b = &self.tasks[&task.id];
        self.vt.estimate(b.node, &b.accesses, &b.result).1
    }
}

/// The policy-driven engine (see the module docs).
pub struct SchedEngine {
    vt: VirtualSchedule,
    policy: Box<dyn Scheduler>,
    policy_kind: SchedPolicy,
    /// Schedule at submit time, skipping dependency bookkeeping entirely.
    /// On by default for [`SchedPolicy::Fifo`]: submission order *is* its
    /// pop order, so buffering buys nothing and the hazard maps are dead
    /// weight.
    eager: bool,
    next_id: TaskId,
    buffered: IntMap<TaskId, Buffered>,
    /// Per-datum hazard state (the shared [`crate::hazard`] core; no
    /// writer payload — the scoreboard lives in `vt`).
    hazards: IntMap<DataKey, HazardCell<()>>,
    /// Per-task spans indexed by submission id.
    starts: Vec<f64>,
    finishes: Vec<f64>,
    /// Metrics probe (disabled by default). Scheduler latencies accumulate
    /// into the local histograms below — no lock per pop — and merge into
    /// the probe's registry at [`SchedEngine::flush_probe`].
    probe: Probe,
    task_wait: Histogram,
    decision: Histogram,
    /// Decimation counter for the ready-depth gauge.
    probe_tick: u64,
}

impl SchedEngine {
    /// An engine that records every task's `(start, finish)` span, indexed
    /// by submission id, so report spans line up with task ids whatever
    /// order the policy chose.
    pub fn new(platform: &Platform, policy: SchedPolicy) -> Self {
        SchedEngine {
            vt: VirtualSchedule::new(platform),
            policy: policy.scheduler(),
            policy_kind: policy,
            eager: policy == SchedPolicy::Fifo,
            next_id: 0,
            buffered: IntMap::default(),
            hazards: IntMap::default(),
            starts: Vec::new(),
            finishes: Vec::new(),
            probe: Probe::disabled(),
            task_wait: Histogram::default(),
            decision: Histogram::default(),
            probe_tick: 0,
        }
    }

    /// Attach a metrics probe to the engine and its virtual-time core
    /// (turning on the makespan-attribution pass there). A disabled probe
    /// changes nothing; an enabled one never alters scheduling decisions.
    pub fn attach_probe(&mut self, probe: &Probe) {
        self.probe = probe.clone();
        self.vt.attach_probe(probe);
    }

    /// Disable the FIFO eager fast path and force the generic
    /// buffer-and-select machinery even for [`SchedPolicy::Fifo`]. The two
    /// paths are bitwise equivalent (that is the parity the property tests
    /// pin by calling this); the forced form exists *for* those tests and
    /// costs the full hazard bookkeeping.
    pub fn with_forced_buffering(mut self) -> Self {
        self.eager = false;
        self
    }

    /// Submit the next task **in insertion order**. Hazard dependencies on
    /// earlier submissions are inferred from `accesses` exactly like
    /// [`crate::graph::GraphBuilder`]; the task is scheduled whenever the
    /// policy selects it.
    pub fn submit(&mut self, node: usize, accesses: &[CostedAccess], result: TaskResult) -> TaskId {
        self.submit_tagged(node, accesses, result, None)
    }

    /// [`SchedEngine::submit`] with an elimination-step tag carried down
    /// to the virtual-time engine's attribution pass. The tag is ignored
    /// (and free) unless an enabled probe is attached.
    pub fn submit_tagged(
        &mut self,
        node: usize,
        accesses: &[CostedAccess],
        result: TaskResult,
        step: Option<usize>,
    ) -> TaskId {
        let id = self.next_id;
        self.next_id += 1;

        if self.eager {
            // FIFO: submission order is the schedule; cost the task now
            // and keep no records at all (in particular, no clone of the
            // access list).
            let (start, finish) = self.vt.process_tagged(node, accesses, &result, step);
            self.record_span(id, start, finish);
            return id;
        }

        // Pass 1: hazard predecessors and critical-path depth over the
        // pre-insertion cells (RAW/WAW/control via the last writer; WAR
        // via the readers since that write).
        let mut preds: Vec<TaskId> = Vec::new();
        let mut max_depth = 0u64;
        for ca in accesses {
            if let Some(cell) = self.hazards.get(&ca.access.key()) {
                cell.fold_preds(
                    matches!(ca.access, Access::Mut(_)),
                    &mut preds,
                    &mut max_depth,
                );
            }
        }
        let depth = 1 + max_depth;

        // Pass 2: update the hazard cells in access order (a Mut after a
        // Read of the same key clears the reader fold, like the builder).
        for ca in accesses {
            let key = ca.access.key();
            match ca.access {
                Access::Read(_) => self.hazards.entry(key).or_default().note_read(id, depth),
                Access::Control(_) => {}
                Access::Mut(_) => self
                    .hazards
                    .entry(key)
                    .or_default()
                    .note_write(id, depth, ()),
            }
        }

        // Pass 3: wire the countdown. Dependencies on already-scheduled
        // tasks are vacuous (their effect is in the scoreboard).
        let buffered = &self.buffered;
        crate::hazard::finalize_preds(&mut preds, id, |p| buffered.contains_key(&p));
        let num_preds = preds.len();
        for &p in &preds {
            self.buffered
                .get_mut(&p)
                .expect("retained predecessor is buffered")
                .succs
                .push(id);
        }
        self.buffered.insert(
            id,
            Buffered {
                node,
                accesses: accesses.to_vec(),
                result,
                preds_remaining: num_preds,
                succs: Vec::new(),
                depth,
                step,
                ready_at: if num_preds == 0 { self.vt.now() } else { 0.0 },
            },
        );
        if num_preds == 0 {
            self.policy.push(ReadyTask { id, node, depth });
        }
        id
    }

    /// Schedule one policy-selected ready task; `false` when nothing is
    /// ready (i.e. the buffer is empty — the buffered prefix is
    /// dependency-closed).
    fn step(&mut self) -> bool {
        let probing = self.probe.is_enabled();
        let t0 = if probing { Some(Instant::now()) } else { None };
        let view = SchedView::new(&self.vt, &self.buffered);
        let Some(next) = self.policy.pop(&view) else {
            return false;
        };
        if let Some(t0) = t0 {
            // Wall-clock cost of the pop decision itself (policy scoring).
            self.decision.observe(t0.elapsed().as_secs_f64());
        }
        let task = self
            .buffered
            .remove(&next.id)
            .expect("ready task is buffered");
        if probing {
            let now = self.vt.now();
            self.task_wait.observe((now - task.ready_at).max(0.0));
            self.probe_tick += 1;
            if self.probe_tick.is_multiple_of(16) {
                self.probe.gauge(
                    metric::SCHED_READY_DEPTH,
                    Label::Policy(self.policy_kind.name()),
                    now,
                    self.policy.len() as f64,
                );
            }
        }
        let (start, finish) =
            self.vt
                .process_tagged(task.node, &task.accesses, &task.result, task.step);
        // Residency and clocks on the task's node just moved; let
        // cache-keeping policies re-score only entries that could change.
        self.policy.invalidate(task.node);
        self.record_span(next.id, start, finish);
        for s in task.succs {
            let b = self
                .buffered
                .get_mut(&s)
                .expect("successor of a buffered task is buffered");
            debug_assert!(b.preds_remaining >= 1, "dependency underflow");
            b.preds_remaining -= 1;
            if b.preds_remaining == 0 {
                b.ready_at = finish;
                self.policy.push(ReadyTask {
                    id: s,
                    node: b.node,
                    depth: b.depth,
                });
            }
        }
        true
    }

    fn record_span(&mut self, id: TaskId, start: f64, finish: f64) {
        if self.starts.len() <= id {
            self.starts.resize(id + 1, 0.0);
            self.finishes.resize(id + 1, 0.0);
        }
        self.starts[id] = start;
        self.finishes[id] = finish;
    }

    /// Schedule everything still buffered.
    pub fn drain(&mut self) {
        while self.step() {}
        debug_assert!(self.buffered.is_empty(), "ready set dried up early");
    }

    /// Merge locally-accumulated scheduler histograms and the network
    /// tallies into the attached probe's registry. Idempotent (the local
    /// histograms reset on merge); a no-op without an enabled probe. Call
    /// once, after [`SchedEngine::drain`].
    pub fn flush_probe(&mut self) {
        if self.probe.is_enabled() {
            let name = self.policy_kind.name();
            let (task_wait, decision) = (self.task_wait, self.decision);
            self.probe.record_batch(|sink| {
                sink.merge_histogram(metric::SCHED_TASK_WAIT, Label::Policy(name), &task_wait);
                sink.merge_histogram(metric::SCHED_DECISION, Label::Policy(name), &decision);
            });
            self.task_wait = Histogram::default();
            self.decision = Histogram::default();
        }
        self.vt.flush_probe();
    }

    /// The virtual-time engine's makespan attribution (see
    /// [`crate::probe::report`]). `None` unless an enabled probe was
    /// attached before submission began.
    pub fn attribution(&self) -> Option<Attribution> {
        self.vt.attribution()
    }

    /// Totals so far, as a [`SimReport`] with spans indexed by submission
    /// id. Call after [`SchedEngine::drain`].
    pub fn report(&self) -> SimReport {
        debug_assert!(self.buffered.is_empty(), "report() before drain()");
        let mut starts = self.starts.clone();
        let mut finishes = self.finishes.clone();
        starts.resize(self.next_id, 0.0);
        finishes.resize(self.next_id, 0.0);
        SimReport {
            starts,
            finishes,
            ..self.vt.report()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, CostClass, DataKey};
    use crate::platform::{Efficiency, LinkSpec, NodeSpec};
    use crate::sched::SchedPolicy;

    fn flat(nodes: usize, cores: usize) -> Platform {
        Platform::uniform(
            nodes,
            NodeSpec {
                cores,
                core_gflops: 1.0,
                efficiency: Efficiency::flat(),
            },
            LinkSpec::new(1.0, 1e9),
            1e9,
        )
    }

    fn acc(a: Access, bytes: usize, home: usize) -> CostedAccess {
        CostedAccess {
            access: a,
            bytes,
            home,
        }
    }

    fn secs(s: f64) -> TaskResult {
        TaskResult::executed(s * 1e9, CostClass::Gemm)
    }

    /// A chain and an independent task, submitted chain-first: Fifo keeps
    /// insertion order; every policy yields the same totals for this
    /// contention-free graph.
    #[test]
    fn fifo_equals_raw_engine_bitwise() {
        let p = flat(2, 2);
        let k = |i| DataKey(i);
        let tasks: Vec<(usize, Vec<CostedAccess>, TaskResult)> = vec![
            (0, vec![acc(Access::Mut(k(0)), 100, 0)], secs(1.0)),
            (0, vec![acc(Access::Mut(k(0)), 100, 0)], secs(2.0)),
            (1, vec![acc(Access::Read(k(0)), 100, 0)], secs(1.0)),
            (1, vec![acc(Access::Mut(k(1)), 50, 1)], secs(0.5)),
            (
                0,
                vec![acc(Access::Mut(k(0)), 100, 0)],
                TaskResult::discarded(),
            ),
            (0, vec![acc(Access::Read(k(1)), 50, 1)], secs(1.0)),
        ];
        let mut raw = VirtualSchedule::new(&p);
        let spans: Vec<(f64, f64)> = tasks
            .iter()
            .map(|(node, accs, r)| raw.process(*node, accs, r))
            .collect();
        let raw = SimReport {
            starts: spans.iter().map(|s| s.0).collect(),
            finishes: spans.iter().map(|s| s.1).collect(),
            ..raw.report()
        };
        // Both the eager fast path and the forced generic buffer-and-
        // select machinery must match the raw engine bitwise.
        for forced in [false, true] {
            let mut eng = SchedEngine::new(&p, SchedPolicy::Fifo);
            if forced {
                eng = eng.with_forced_buffering();
            }
            for (node, accs, r) in &tasks {
                eng.submit(*node, accs, *r);
            }
            eng.drain();
            assert_eq!(raw, eng.report(), "forced buffering: {forced}");
        }
    }

    /// An insertion-order schedule strands a core behind a late-data task;
    /// EFT and locality backfill the gap. Node 1's remote consumer waits
    /// for a slow cross-node transfer while an *equally deep* local
    /// consumer is data-ready — locality's byte tie-break (depth-primary,
    /// so the candidates must tie on depth) and EFT's finish estimate
    /// must both recover the idle second.
    #[test]
    fn eft_and_locality_backfill_transfer_stalls() {
        let p = flat(2, 1).with_latency(2.0);
        let ka = DataKey(0);
        let kb = DataKey(1);
        let makespan = |policy: SchedPolicy| {
            let mut eng = SchedEngine::new(&p, policy);
            // Producers: ka on node 0, kb on node 1. Two depth-2
            // consumers on node 1 become ready together: one needs the
            // remote ka (it waits on the wire), one only the local kb.
            // The remote one is inserted first.
            eng.submit(0, &[acc(Access::Mut(ka), 1000, 0)], secs(1.0));
            eng.submit(1, &[acc(Access::Mut(kb), 1000, 1)], secs(1.0));
            eng.submit(
                1,
                &[
                    acc(Access::Read(ka), 1000, 0),
                    acc(Access::Read(kb), 1000, 1),
                ],
                secs(1.0),
            );
            eng.submit(1, &[acc(Access::Read(kb), 1000, 1)], secs(1.0));
            eng.drain();
            eng.report().makespan
        };
        // Fifo: the remote consumer claims node 1's core first, starting
        // after the 1 s producer + 2 s latency (+1 µs wire); the local
        // consumer then runs 4..5.
        let fifo = makespan(SchedPolicy::Fifo);
        assert!((fifo - 5.0).abs() < 1e-3, "{fifo}");
        for policy in [SchedPolicy::LocalityAware, SchedPolicy::Eft] {
            let m = makespan(policy);
            assert!(
                (m - 4.0).abs() < 1e-3,
                "{} must backfill the stall: {m}",
                policy.name()
            );
        }
    }

    /// Scheduling permutes the timeline, never the data flow: message and
    /// byte totals are policy-invariant (each version crosses once per
    /// destination, whatever the order).
    #[test]
    fn transfer_totals_are_policy_invariant() {
        let p = flat(3, 2);
        let mk = |policy: SchedPolicy| {
            let mut eng = SchedEngine::new(&p, policy);
            for i in 0..4u64 {
                eng.submit(0, &[acc(Access::Mut(DataKey(i)), 100, 0)], secs(0.5));
            }
            for i in 0..4u64 {
                eng.submit(
                    (1 + (i as usize) % 2) % 3,
                    &[acc(Access::Read(DataKey(i)), 100, 0)],
                    secs(0.25),
                );
            }
            eng.drain();
            let r = eng.report();
            (r.messages, r.bytes, r.serial_seconds)
        };
        let base = mk(SchedPolicy::Fifo);
        for policy in SchedPolicy::all() {
            assert_eq!(mk(policy), base, "{}", policy.name());
        }
    }

    /// Probes observe the schedule without perturbing it: the probed report
    /// is bitwise the plain one, and the registry fills with scheduler
    /// latencies plus a reconciling attribution.
    #[test]
    fn probes_observe_without_perturbing() {
        use crate::probe::{metric, Label, Probe};
        let p = flat(2, 2);
        let feed = |eng: &mut SchedEngine| {
            for i in 0..32u64 {
                eng.submit_tagged(
                    (i % 2) as usize,
                    &[acc(Access::Mut(DataKey(i % 4)), 100, 0)],
                    secs(0.25),
                    Some((i / 8) as usize),
                );
            }
            eng.drain();
        };
        let mut plain = SchedEngine::new(&p, SchedPolicy::Eft);
        feed(&mut plain);
        let probe = Probe::enabled();
        let mut probed = SchedEngine::new(&p, SchedPolicy::Eft);
        probed.attach_probe(&probe);
        feed(&mut probed);
        probed.flush_probe();
        assert_eq!(plain.report(), probed.report());
        let snap = probe.snapshot();
        let wait = snap
            .histogram(metric::SCHED_TASK_WAIT, Label::Policy("eft"))
            .expect("task-wait histogram");
        assert_eq!(wait.count, 32);
        assert!(snap
            .histogram(metric::SCHED_DECISION, Label::Policy("eft"))
            .is_some());
        let att = probed.attribution().expect("attribution with probes on");
        assert!(att.max_reconciliation_error() <= 1e-9 * att.makespan.max(1.0));
    }

    /// The incremental selection structures (locality's dirty-node score
    /// cache, EFT's lazy heap) must reproduce the reference full-rescan
    /// scan (`take_best_scored`) *bitwise* — same pops, same spans, same
    /// totals — on a workload with cross-node transfers, shared keys,
    /// mixed depths, and score ties.
    #[test]
    fn incremental_policies_match_full_rescan_reference() {
        use crate::sched::take_best_scored;

        /// Reference implementation: recompute every score on every pop.
        struct Rescan {
            ready: Vec<ReadyTask>,
            eft: bool,
        }
        impl Scheduler for Rescan {
            fn name(&self) -> &'static str {
                "rescan"
            }
            fn push(&mut self, task: ReadyTask) {
                self.ready.push(task);
            }
            fn pop(&mut self, view: &SchedView<'_>) -> Option<ReadyTask> {
                if self.eft {
                    take_best_scored(&mut self.ready, |t| view.estimated_finish(t))
                } else {
                    // Locality's lexicographic rank: deepest chain first,
                    // fewest missing bytes among equals (the generic
                    // scan's own tie-break then handles id order).
                    take_best_scored(&mut self.ready, |t| {
                        (std::cmp::Reverse(t.depth), view.missing_input_bytes(t))
                    })
                }
            }
            fn len(&self) -> usize {
                self.ready.len()
            }
        }

        // Deterministic pseudo-random workload (LCG; no external seed).
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rnd = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let tasks: Vec<(usize, Vec<CostedAccess>, TaskResult)> = (0..160)
            .map(|i| {
                let node = rnd(3);
                let key = DataKey(rnd(16) as u64);
                let bytes = 64 + rnd(512);
                let home = rnd(3);
                let mut accs = if rnd(3) == 0 {
                    vec![acc(Access::Mut(key), bytes, home)]
                } else {
                    vec![acc(Access::Read(key), bytes, home)]
                };
                if i % 2 == 0 {
                    accs.push(acc(Access::Read(DataKey(16 + rnd(8) as u64)), 128, rnd(3)));
                }
                (node, accs, secs(0.05 + rnd(10) as f64 * 0.05))
            })
            .collect();

        let p = flat(3, 2).with_latency(0.5);
        for (policy, eft) in [
            (SchedPolicy::LocalityAware, false),
            (SchedPolicy::Eft, true),
        ] {
            let mut reference = SchedEngine::new(&p, policy);
            reference.policy = Box::new(Rescan {
                ready: Vec::new(),
                eft,
            });
            let mut incremental = SchedEngine::new(&p, policy);
            for (node, accs, r) in &tasks {
                reference.submit(*node, accs, *r);
                incremental.submit(*node, accs, *r);
            }
            reference.drain();
            incremental.drain();
            assert_eq!(
                reference.report(),
                incremental.report(),
                "{} diverged from the full-rescan reference",
                policy.name()
            );
        }
    }

    /// The critical-path policy prefers the deeper chain over shallow
    /// independent work when both are ready.
    #[test]
    fn critical_path_prefers_the_deep_chain() {
        let p = flat(1, 1);
        let chain = DataKey(0);
        let mut eng = SchedEngine::new(&p, SchedPolicy::CriticalPath);
        // Two-task chain (depths 1, 2) then a shallow independent task
        // (depth 1, later id).
        eng.submit(0, &[acc(Access::Mut(chain), 8, 0)], secs(1.0));
        eng.submit(0, &[acc(Access::Mut(chain), 8, 0)], secs(1.0));
        eng.submit(0, &[acc(Access::Mut(DataKey(1)), 8, 0)], secs(1.0));
        eng.drain();
        let r = eng.report();
        // Chain head first (only ready task of depth 1 wins by id), then
        // its depth-2 successor outranks the shallow task.
        assert_eq!(r.starts, vec![0.0, 1.0, 2.0]);
    }
}
