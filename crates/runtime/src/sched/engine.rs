//! The replay driver: a policy-ordered list schedule of a graph whose
//! hazard edges are already known, costed by [`VirtualSchedule`].
//!
//! [`replay`] seeds each task's remaining-predecessor count from the
//! graph's `num_preds`, pushes every root, and pops through the policy
//! until the ready set is empty: each popped task is costed, then its
//! `successors()` are released. Any pop order the ready set permits is a
//! topological order of the graph, so the scoreboard stays consistent;
//! the policy only chooses *which* valid list schedule the run gets.
//! Critical-path depth (`1 + max` over predecessors) is one forward pass
//! in id order — edges only point forward. A task's accesses are derived
//! only while it sits in the ready set, the one place a policy scores it.

use std::time::Instant;

use super::{ReadyTask, SchedPolicy, Scheduler};
use crate::graph::{CostedAccess, Graph, TaskId, TaskOp, TaskResult};
use crate::hash::IntMap;
use crate::platform::Platform;
use crate::probe::{metric, Histogram, Label, Probe};
use crate::sim::SimReport;
use crate::vtime::VirtualSchedule;

/// A ready task awaiting its turn in the virtual schedule.
pub(crate) struct Pending {
    node: usize,
    accesses: Vec<CostedAccess>,
    result: TaskResult,
    /// Virtual time at which the task entered the ready set.
    ready_at: f64,
}

/// Read-only view of the replay at selection time, handed to
/// [`Scheduler::pop`] so dynamic policies can score ready tasks against
/// the current core/network state.
pub struct SchedView<'a> {
    vt: &'a VirtualSchedule,
    tasks: &'a IntMap<TaskId, Pending>,
}

impl<'a> SchedView<'a> {
    pub(crate) fn new(vt: &'a VirtualSchedule, tasks: &'a IntMap<TaskId, Pending>) -> Self {
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

/// Replay an executed `graph` on `platform`, popping ready tasks through
/// `scheduler` (`policy`'s, or a test's reference implementation; `policy`
/// labels the probe metrics). Report spans are indexed by task id,
/// whatever order the policy chose. With an enabled `probe`, tasks are
/// tagged with their op's step, scheduler latencies and network tallies
/// land in its store, and the makespan attribution is set on it; the
/// report is bitwise the unprobed one.
///
/// Panics if the platform has fewer nodes than the graph's placements
/// reference, or if a task has no recorded result (run
/// [`crate::exec::execute`] first).
pub(crate) fn replay<O: TaskOp>(
    graph: &Graph<O>,
    platform: &Platform,
    policy: SchedPolicy,
    mut scheduler: Box<dyn Scheduler>,
    probe: &Probe,
) -> SimReport {
    if let Err(e) = platform.require_nodes(graph.num_nodes) {
        panic!(
            "cannot simulate: {e} (graph placements reference {} nodes)",
            graph.num_nodes
        );
    }
    let mut vt = VirtualSchedule::new(platform);
    vt.attach_probe(probe);
    let probing = probe.is_enabled();
    let label = Label::Policy(policy.name());
    let (mut task_wait, mut decision) = (Histogram::default(), Histogram::default());
    let mut probe_tick = 0u64;

    let n = graph.len();
    let mut remaining: Vec<usize> = graph.tasks().map(|t| t.num_preds()).collect();
    let mut depth = vec![1u64; n];
    for t in graph.tasks() {
        for &s in t.successors() {
            depth[s] = depth[s].max(depth[t.id] + 1);
        }
    }
    let (mut starts, mut finishes) = (vec![0.0; n], vec![0.0; n]);

    let mut pending: IntMap<TaskId, Pending> = IntMap::default();
    let admit = |pending: &mut IntMap<TaskId, Pending>, id: TaskId, ready_at: f64| {
        let t = graph.task(id);
        let result = t
            .result()
            .unwrap_or_else(|| panic!("task '{}' has no result; execute first", t.name()));
        let node = t.node();
        pending.insert(
            id,
            Pending {
                node,
                accesses: t.accesses(),
                result,
                ready_at,
            },
        );
        ReadyTask {
            id,
            node,
            depth: depth[id],
        }
    };
    for t in graph.tasks().filter(|t| t.num_preds() == 0) {
        scheduler.push(admit(&mut pending, t.id, 0.0));
    }

    loop {
        let t0 = probing.then(Instant::now);
        let Some(next) = scheduler.pop(&SchedView::new(&vt, &pending)) else {
            break;
        };
        let task = pending.remove(&next.id).expect("ready task is pending");
        let mut step = None;
        if let Some(t0) = t0 {
            // Wall-clock cost of the pop decision itself (policy scoring).
            decision.observe(t0.elapsed().as_secs_f64());
            let now = vt.now();
            task_wait.observe((now - task.ready_at).max(0.0));
            probe_tick += 1;
            if probe_tick.is_multiple_of(16) {
                probe.gauge(
                    metric::SCHED_READY_DEPTH,
                    label,
                    now,
                    scheduler.len() as f64,
                );
            }
            step = graph.task(next.id).step();
        }
        let (start, finish) = vt.process_tagged(task.node, &task.accesses, &task.result, step);
        // Residency and clocks on the task's node just moved; let
        // cache-keeping policies re-score only entries that could change.
        scheduler.invalidate(task.node);
        starts[next.id] = start;
        finishes[next.id] = finish;
        for &s in graph.task(next.id).successors() {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                scheduler.push(admit(&mut pending, s, finish));
            }
        }
    }
    debug_assert!(pending.is_empty(), "ready set dried up early");

    if probing {
        probe.record_batch(|snap| {
            snap.merge_histogram(metric::SCHED_TASK_WAIT, label, &task_wait);
            snap.merge_histogram(metric::SCHED_DECISION, label, &decision);
        });
        vt.flush_probe();
        if let Some(att) = vt.attribution() {
            probe.set_attribution(att);
        }
    }
    SimReport {
        starts,
        finishes,
        ..vt.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::graph::{Access, CostClass, DataKey};
    use crate::platform::{Efficiency, LinkSpec, NodeSpec};
    use crate::testing::{TestGraph, TestOp};

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

    fn secs(s: f64) -> impl FnOnce() -> TaskResult + Send + 'static {
        move || TaskResult::executed(s * 1e9, CostClass::Gemm)
    }

    /// Build and execute the graph `add` inserts into `nodes` nodes.
    fn executed(nodes: usize, add: impl FnOnce(&mut TestGraph)) -> Graph<TestOp> {
        let mut b = TestGraph::new(nodes);
        add(&mut b);
        let g = b.build();
        execute(&g, 1);
        g
    }

    fn run(g: &Graph<TestOp>, p: &Platform, policy: SchedPolicy) -> SimReport {
        replay(g, p, policy, policy.scheduler(), &Probe::disabled())
    }

    /// A chain and an independent task: Fifo replays id order, bitwise the
    /// raw engine fed the tasks in id order.
    #[test]
    fn fifo_equals_raw_engine_bitwise() {
        let p = flat(2, 2);
        let (k0, k1) = (DataKey(0), DataKey(1));
        let g = executed(2, |b| {
            b.declare(k0, 100, 0);
            b.declare(k1, 50, 1);
            b.task("a", 0, &[Access::Mut(k0)], secs(1.0));
            b.task("b", 0, &[Access::Mut(k0)], secs(2.0));
            b.task("c", 1, &[Access::Read(k0)], secs(1.0));
            b.task("d", 1, &[Access::Mut(k1)], secs(0.5));
            b.task("e", 0, &[Access::Mut(k0)], TaskResult::discarded);
            b.task("f", 0, &[Access::Read(k1)], secs(1.0));
        });
        let mut raw = VirtualSchedule::new(&p);
        let spans: Vec<(f64, f64)> = g
            .tasks()
            .map(|t| raw.process(t.node(), &t.accesses(), &t.result().unwrap()))
            .collect();
        let raw = SimReport {
            starts: spans.iter().map(|s| s.0).collect(),
            finishes: spans.iter().map(|s| s.1).collect(),
            ..raw.report()
        };
        assert_eq!(raw, run(&g, &p, SchedPolicy::Fifo));
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
        let (ka, kb) = (DataKey(0), DataKey(1));
        let makespan = |policy: SchedPolicy| {
            // Producers: ka on node 0, kb on node 1. Two depth-2
            // consumers on node 1 become ready together: one needs the
            // remote ka (it waits on the wire), one only the local kb.
            // The remote one is inserted first.
            let g = executed(2, |b| {
                b.declare(ka, 1000, 0);
                b.declare(kb, 1000, 1);
                b.task("pa", 0, &[Access::Mut(ka)], secs(1.0));
                b.task("pb", 1, &[Access::Mut(kb)], secs(1.0));
                b.task(
                    "remote",
                    1,
                    &[Access::Read(ka), Access::Read(kb)],
                    secs(1.0),
                );
                b.task("local", 1, &[Access::Read(kb)], secs(1.0));
            });
            run(&g, &p, policy).makespan
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
            let g = executed(3, |b| {
                for i in 0..4u64 {
                    b.declare(DataKey(i), 100, 0);
                    b.task(format!("w{i}"), 0, &[Access::Mut(DataKey(i))], secs(0.5));
                }
                for i in 0..4u64 {
                    let node = (1 + (i as usize) % 2) % 3;
                    b.task(
                        format!("r{i}"),
                        node,
                        &[Access::Read(DataKey(i))],
                        secs(0.25),
                    );
                }
            });
            let r = run(&g, &p, policy);
            (r.messages, r.bytes, r.serial_seconds)
        };
        let base = mk(SchedPolicy::Fifo);
        for policy in SchedPolicy::all() {
            assert_eq!(mk(policy), base, "{}", policy.name());
        }
    }

    /// Probes observe the schedule without perturbing it: the probed report
    /// is bitwise the plain one, and the store fills with scheduler
    /// latencies plus a reconciling attribution.
    #[test]
    fn probes_observe_without_perturbing() {
        let p = flat(2, 2);
        let g = executed(2, |b| {
            for i in 0..4u64 {
                b.declare(DataKey(i), 100, 0);
            }
            for i in 0..32u64 {
                b.task(
                    format!("T{i}(k={})", i / 8),
                    (i % 2) as usize,
                    &[Access::Mut(DataKey(i % 4))],
                    secs(0.25),
                );
            }
        });
        let policy = SchedPolicy::Eft;
        let plain = run(&g, &p, policy);
        let probe = Probe::enabled();
        let probed = replay(&g, &p, policy, policy.scheduler(), &probe);
        assert_eq!(plain, probed);
        let snap = probe.snapshot();
        let wait = snap
            .histogram(metric::SCHED_TASK_WAIT, Label::Policy("eft"))
            .expect("task-wait histogram");
        assert_eq!(wait.count, 32);
        assert!(snap
            .histogram(metric::SCHED_DECISION, Label::Policy("eft"))
            .is_some());
        let att = probe
            .report()
            .attribution
            .expect("attribution with probes on");
        assert!(att.max_reconciliation_error() <= 1e-9 * att.makespan.max(1.0));
        assert!(att.steps.iter().any(|(s, _)| *s == Some(3)));
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
        let g = executed(3, |b| {
            for key in 0..24u64 {
                let bytes = if key < 16 { 64 + rnd(512) } else { 128 };
                b.declare(DataKey(key), bytes, rnd(3));
            }
            for i in 0..160 {
                let node = rnd(3);
                let key = DataKey(rnd(16) as u64);
                let mut accs = if rnd(3) == 0 {
                    vec![Access::Mut(key)]
                } else {
                    vec![Access::Read(key)]
                };
                if i % 2 == 0 {
                    accs.push(Access::Read(DataKey(16 + rnd(8) as u64)));
                }
                b.task(
                    format!("t{i}"),
                    node,
                    &accs,
                    secs(0.05 + rnd(10) as f64 * 0.05),
                );
            }
        });

        let p = flat(3, 2).with_latency(0.5);
        for (policy, eft) in [
            (SchedPolicy::LocalityAware, false),
            (SchedPolicy::Eft, true),
        ] {
            let rescan = Box::new(Rescan {
                ready: Vec::new(),
                eft,
            });
            let reference = replay(&g, &p, policy, rescan, &Probe::disabled());
            assert_eq!(
                reference,
                run(&g, &p, policy),
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
        let (chain, other) = (DataKey(0), DataKey(1));
        // Two-task chain (depths 1, 2) then a shallow independent task
        // (depth 1, later id).
        let g = executed(1, |b| {
            b.declare(chain, 8, 0);
            b.declare(other, 8, 0);
            b.task("head", 0, &[Access::Mut(chain)], secs(1.0));
            b.task("tail", 0, &[Access::Mut(chain)], secs(1.0));
            b.task("shallow", 0, &[Access::Mut(other)], secs(1.0));
        });
        // Chain head first (only ready task of depth 1 wins by id), then
        // its depth-2 successor outranks the shallow task.
        assert_eq!(
            run(&g, &p, SchedPolicy::CriticalPath).starts,
            vec![0.0, 1.0, 2.0]
        );
    }
}
