//! The replay driver: a policy-ordered list schedule of a graph whose
//! hazard edges are already known, costed by [`VirtualSchedule`].
//!
//! [`replay`] seeds each task's remaining-predecessor count from the
//! graph's `num_preds`, pushes every root into one [`ReadyQueue`], and
//! pops until it is empty: each popped task is priced by its op's cost
//! ([`TaskOp::cost`]), then its `successors()` are released. Any pop order
//! the ready set permits is a topological order of the graph, so the
//! scoreboard stays consistent; the policy only sets the queue's priority
//! (see
//! [`SchedPolicy::priority`]). Critical-path depth (`1 + max` over
//! predecessors) is one forward pass in id order — edges only point
//! forward.

use super::{ReadyQueue, SchedPolicy};
use crate::graph::{Graph, TaskOp};
use crate::platform::Platform;
use crate::probe::{metric, Histogram, Label, Probe};
use crate::sim::SimReport;
use crate::vtime::VirtualSchedule;

/// Replay `graph` on `platform`, popping ready tasks in
/// `policy`'s order. Report spans are indexed by task id, whatever order
/// the policy chose. With an enabled `probe`, tasks are tagged with their
/// op's step, the virtual-time wait of each task in the ready set and
/// network tallies land in its store, and the makespan attribution is set
/// on it; the report is bitwise the unprobed one.
///
/// Panics if the platform has fewer nodes than the graph's placements
/// reference, or if a task's cost waits for a decision its step has not
/// taken ([`TaskOp::cost`]: a gated op of a graph that has not run — run
/// [`crate::exec::execute`] first).
pub(crate) fn replay<O: TaskOp>(
    graph: &Graph<O>,
    platform: &Platform,
    policy: SchedPolicy,
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
    let mut task_wait = Histogram::default();
    let mut probe_tick = 0u64;

    let n = graph.len();
    let mut remaining: Vec<usize> = graph.tasks().map(|t| t.num_preds()).collect();
    let mut depth = vec![1u64; n];
    for t in graph.tasks() {
        for s in t.successors() {
            depth[s] = depth[s].max(depth[t.id] + 1);
        }
    }
    let (mut starts, mut finishes) = (vec![0.0; n], vec![0.0; n]);
    // Virtual time at which each task entered the ready set.
    let mut ready_at = vec![0.0; n];

    let mut ready = ReadyQueue::default();
    for t in graph.tasks().filter(|t| t.num_preds() == 0) {
        ready.push(policy.priority(depth[t.id]), t.id, t.node());
    }

    while let Some(next) = ready.pop() {
        let t = graph.task(next.id);
        let cost = t.cost();
        let cost = cost.unwrap_or_else(|| panic!("task '{}' has no cost; execute first", t.name()));
        let mut step = None;
        if probing {
            let now = vt.now();
            task_wait.observe((now - ready_at[next.id]).max(0.0));
            probe_tick += 1;
            if probe_tick.is_multiple_of(16) {
                probe.gauge(metric::SCHED_READY_DEPTH, label, now, ready.len() as f64);
            }
            step = t.step();
        }
        let (start, finish) = vt.process_tagged(next.node, &t.accesses(), &cost, step);
        starts[next.id] = start;
        finishes[next.id] = finish;
        for s in t.successors() {
            remaining[s] -= 1;
            if remaining[s] == 0 {
                ready_at[s] = finish;
                ready.push(policy.priority(depth[s]), s, graph.task(s).node());
            }
        }
    }
    debug_assert!(
        remaining.iter().all(|&r| r == 0),
        "ready set dried up early"
    );

    if probing {
        probe.record_batch(|snap| {
            snap.merge_histogram(metric::SCHED_TASK_WAIT, label, &task_wait);
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
    use crate::graph::{Access, CostClass, DataKey, TaskResult};
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
        replay(g, p, policy, &Probe::disabled())
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
            .map(|t| raw.process(t.node(), &t.accesses(), &t.cost().unwrap()))
            .collect();
        let raw = SimReport {
            starts: spans.iter().map(|s| s.0).collect(),
            finishes: spans.iter().map(|s| s.1).collect(),
            ..raw.report()
        };
        assert_eq!(raw, run(&g, &p, SchedPolicy::Fifo));
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
    /// waits plus a reconciling attribution.
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
        let policy = SchedPolicy::CriticalPath;
        let plain = run(&g, &p, policy);
        let probe = Probe::enabled();
        let probed = replay(&g, &p, policy, &probe);
        assert_eq!(plain, probed);
        let snap = probe.snapshot();
        let wait = snap
            .histogram(metric::SCHED_TASK_WAIT, Label::Policy("critical-path"))
            .expect("task-wait histogram");
        assert_eq!(wait.count, 32);
        let att = probe
            .report()
            .attribution
            .expect("attribution with probes on");
        assert!(att.max_reconciliation_error() <= 1e-9 * att.makespan.max(1.0));
        assert!(att.steps.iter().any(|(s, _)| *s == Some(3)));
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
