//! Discrete-event platform simulator.
//!
//! Replays a task graph on a virtual cluster ([`Platform`]): every task
//! runs on one core of its owner node (owner-computes placement, as the 2D
//! block-cyclic distribution dictates), data crossing node boundaries costs
//! `latency + bytes/bandwidth` serialized on the sender's NIC, and each
//! task's duration comes from its cost — flops and kernel class, a closed
//! form of its op ([`crate::graph::TaskOp::cost`]). Only the hybrid's
//! branch ops wait for their step's decision, so its graph replays once it
//! has run; any other planner's graph replays before it runs exactly as
//! after. A datum is sent **once per destination node** regardless of how
//! many tasks there consume it (runtimes cache remote tiles), and discarded
//! tasks (the unselected LU/QR branch) take zero time and move zero data —
//! like PaRSEC's dropped alternatives.
//!
//! The replay schedules the graph's stored edges through the scheduler
//! subsystem's driver ([`crate::sched`]), costing each task with
//! [`crate::vtime::VirtualSchedule`]. It is the one platform model: a
//! streamed run of the same factorization inserts the chosen branch's
//! tasks in the same order and routes the same transfers (its per-link
//! payload messages are this report's `link_messages`), so its virtual
//! time is this replay's — discarded branches contribute nothing.
//!
//! **Scheduling policy.** Ready tasks — those whose graph predecessors
//! have all been costed — advance the virtual clock in the order a
//! [`SchedPolicy`] pops them. [`simulate`] is [`simulate_with`] under
//! FIFO, the smallest ready id first: an insertion-order list schedule in
//! which task `i` claims cores and network slots strictly after tasks
//! `0..i` (edges always point forward). The other policy is
//! critical-path, deepest chain first. Scheduling never changes the
//! factorization or the data flow (messages/bytes are policy-invariant);
//! it only chooses which valid list schedule the platform model costs.
//!
//! This is the performance vehicle of the reproduction: the build machine
//! cannot physically reproduce a 128-core cluster, but the task graph it
//! executed *numerically* is the same graph the paper's runtime would
//! schedule, so replaying it against the Dancer platform model recovers the
//! paper's performance shapes (Figure 2, Table II).

use crate::comm::LinkTraffic;
use crate::graph::{CostClass, Graph, TaskOp};
use crate::platform::Platform;
use crate::probe::{Probe, ProbeReport};
use crate::sched::{replay, SchedPolicy};

/// Result of simulating a graph on a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// End-to-end simulated time, seconds.
    pub makespan: f64,
    /// Sum of task durations (serial time), seconds.
    pub serial_seconds: f64,
    /// Longest dependency chain including communication delays, seconds.
    pub critical_path: f64,
    /// Inter-node messages sent.
    pub messages: u64,
    /// Inter-node bytes moved.
    pub bytes: u64,
    /// Per-node busy seconds.
    pub node_busy: Vec<f64>,
    /// Per-node, per-cost-class busy seconds (duration × cores claimed),
    /// indexed `[node][CostClass::index()]` — what a per-class calibration
    /// of the efficiency profile keys on.
    pub node_class_seconds: Vec<[f64; CostClass::COUNT]>,
    /// Per-node, per-cost-class executed flops (Memory entries carry the
    /// moved bytes, as everywhere in the cost model).
    pub node_class_flops: Vec<[f64; CostClass::COUNT]>,
    /// Total executed flops (Memory/Control excluded).
    pub total_flops: f64,
    /// Per-(src, dst) payload traffic, in link order. Sums to `messages`
    /// / `bytes`; identical under every scheduling policy for the same run
    /// (the network model tallies at its one send chokepoint).
    pub link_messages: Vec<LinkTraffic>,
    /// Per-task start times (simulation seconds, by task id).
    pub starts: Vec<f64>,
    /// Per-task finish times.
    pub finishes: Vec<f64>,
}

impl SimReport {
    /// Achieved GFLOP/s for the executed work.
    pub fn gflops(&self) -> f64 {
        if self.makespan > 0.0 {
            self.total_flops / self.makespan / 1e9
        } else {
            0.0
        }
    }

    /// GFLOP/s normalized to a nominal operation count (the paper reports
    /// `2/3 N³ / time` regardless of the algorithm's true flops).
    pub fn gflops_normalized(&self, nominal_flops: f64) -> f64 {
        if self.makespan > 0.0 {
            nominal_flops / self.makespan / 1e9
        } else {
            0.0
        }
    }

    /// Average utilization over the makespan, across every core of the
    /// platform.
    pub fn avg_utilization(&self, platform: &Platform) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.node_busy.iter().sum();
        busy / (self.makespan * platform.total_cores() as f64)
    }
}

/// Simulate a graph on `platform` under the insertion-order
/// (FIFO) schedule: [`simulate_with`] under [`SchedPolicy::Fifo`].
pub fn simulate<O: TaskOp>(graph: &Graph<O>, platform: &Platform) -> SimReport {
    simulate_with(graph, platform, SchedPolicy::Fifo)
}

/// Simulate a graph under a scheduling policy: the graph's ready tasks
/// claim cores and network slots in the order the policy selects. Report
/// spans stay indexed by task id whatever order that is.
///
/// Panics if a task's cost waits for a decision its step has not taken
/// (a hybrid graph that has not run: [`crate::exec::execute`] it first) or
/// a task is placed on a node outside the platform.
pub fn simulate_with<O: TaskOp>(
    graph: &Graph<O>,
    platform: &Platform,
    policy: SchedPolicy,
) -> SimReport {
    replay(graph, platform, policy, &Probe::disabled())
}

/// [`simulate_with`] with metrics probes attached: tasks are tagged with
/// their op's elimination step, the probe's store fills with scheduler
/// / network / vtime metrics as the replay runs, and the
/// makespan-attribution pass lands in the returned [`ProbeReport`]. The
/// [`SimReport`] is bitwise identical to an unprobed [`simulate_with`] run
/// — probes observe the schedule, never shape it.
pub fn simulate_probed<O: TaskOp>(
    graph: &Graph<O>,
    platform: &Platform,
    policy: SchedPolicy,
    probe: &Probe,
) -> (SimReport, ProbeReport) {
    let sim = replay(graph, platform, policy, probe);
    (sim, probe.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::graph::{Access, CostClass, DataKey, TaskResult};
    use crate::testing::TestGraph;

    fn k(i: u64) -> DataKey {
        DataKey(i)
    }

    use crate::platform::{Efficiency, LinkSpec, NodeSpec};

    fn flat_platform(nodes: usize, cores: usize) -> Platform {
        Platform::uniform(
            nodes,
            NodeSpec {
                cores,
                core_gflops: 1.0, // 1 GFLOP/s at flat efficiency
                efficiency: Efficiency::flat(),
            },
            LinkSpec::new(1.0, 1e9),
            1e9,
        )
    }

    /// 1 GFLOP at 1 GFLOP/s = 1 second per task.
    fn one_sec_task() -> TaskResult {
        TaskResult::executed(1e9, CostClass::Gemm)
    }

    #[test]
    fn serial_chain_equals_sum() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 0, 0);
        for i in 0..5 {
            b.task(format!("t{i}"), 0, &[Access::Mut(k(0))], one_sec_task);
        }
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(1, 4));
        assert!((r.makespan - 5.0).abs() < 1e-9);
        assert!((r.critical_path - 5.0).abs() < 1e-9);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn independent_tasks_fill_cores() {
        let mut b = TestGraph::new(1);
        for i in 0..8u64 {
            b.declare(k(i), 0, 0);
            b.task(format!("t{i}"), 0, &[Access::Mut(k(i))], one_sec_task);
        }
        let g = b.build();
        execute(&g, 1);
        // 8 unit tasks on 4 cores => 2 seconds.
        let r = simulate(&g, &flat_platform(1, 4));
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert!((r.serial_seconds - 8.0).abs() < 1e-9);
        // Critical path is one task.
        assert!((r.critical_path - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cross_node_edge_pays_latency() {
        let mut b = TestGraph::new(2);
        b.declare(k(0), 1000, 0);
        b.task("producer", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("consumer", 1, &[Access::Read(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let p = flat_platform(2, 1);
        let r = simulate(&g, &p);
        // 1s task + (1s latency + 1e-6s wire) + 1s task.
        assert!(r.makespan > 3.0 && r.makespan < 3.01, "{}", r.makespan);
        assert_eq!(r.messages, 1);
        assert_eq!(r.bytes, 1000);
    }

    #[test]
    fn same_node_edge_is_free() {
        let mut b = TestGraph::new(2);
        b.declare(k(0), 1000, 0);
        b.task("p", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("c", 0, &[Access::Read(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(2, 1));
        assert!((r.makespan - 2.0).abs() < 1e-9);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn discarded_tasks_cost_nothing() {
        let mut b = TestGraph::new(2);
        b.declare(k(0), 1_000_000, 0);
        b.task("real", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("dead", 1, &[Access::Mut(k(0))], TaskResult::discarded);
        b.task("after", 0, &[Access::Mut(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(2, 1));
        assert!((r.makespan - 2.0).abs() < 1e-9, "{}", r.makespan);
        assert_eq!(r.messages, 0);
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn zero_latency_is_pure_bandwidth_cost() {
        let mut b = TestGraph::new(2);
        b.declare(k(0), 500_000_000, 0); // 0.5 s of wire at 1 GB/s
        b.task("p", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task("c", 1, &[Access::Read(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let p = flat_platform(2, 1).with_latency(0.0);
        let r = simulate(&g, &p);
        // 1s task + 0.5s wire (no latency) + 1s task.
        assert!((r.makespan - 2.5).abs() < 1e-9, "{}", r.makespan);
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn initial_data_fetched_from_home() {
        let mut b = TestGraph::new(2);
        b.declare(k(0), 1000, 1); // lives on node 1
        b.task("t", 0, &[Access::Read(k(0))], one_sec_task); // runs on node 0
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(2, 1));
        assert!(r.makespan > 2.0, "fetch latency must delay start");
        assert_eq!(r.messages, 1);
    }

    #[test]
    fn initial_fetch_cached_per_node() {
        // Two tasks on node 0 reading the same remote datum: one fetch.
        let mut b = TestGraph::new(2);
        b.declare(k(0), 1000, 1);
        b.task("t1", 0, &[Access::Read(k(0))], one_sec_task);
        b.task("t2", 0, &[Access::Read(k(0))], one_sec_task);
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(2, 2));
        assert_eq!(r.messages, 1, "datum must be fetched once per node");
    }

    #[test]
    fn broadcast_sends_once_per_destination_node() {
        // Producer on node 0; 3 consumer tasks on node 1, 2 on node 2:
        // exactly 2 messages (one per destination node).
        let mut b = TestGraph::new(3);
        b.declare(k(0), 1000, 0);
        b.task("p", 0, &[Access::Mut(k(0))], one_sec_task);
        for i in 0..3 {
            b.task(format!("c1_{i}"), 1, &[Access::Read(k(0))], one_sec_task);
        }
        for i in 0..2 {
            b.task(format!("c2_{i}"), 2, &[Access::Read(k(0))], one_sec_task);
        }
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(3, 4));
        assert_eq!(r.messages, 2);
        assert_eq!(r.bytes, 2000);
    }

    #[test]
    fn makespan_bounded_by_critical_path_and_serial() {
        // Chain of diamonds.
        let mut b = TestGraph::new(1);
        b.declare(k(0), 0, 0);
        b.declare(k(1), 0, 0);
        b.declare(k(2), 0, 0);
        for _ in 0..6 {
            b.task("fork", 0, &[Access::Mut(k(0))], one_sec_task);
            b.task(
                "l",
                0,
                &[Access::Read(k(0)), Access::Mut(k(1))],
                one_sec_task,
            );
            b.task(
                "r",
                0,
                &[Access::Read(k(0)), Access::Mut(k(2))],
                one_sec_task,
            );
            b.task(
                "join",
                0,
                &[Access::Read(k(1)), Access::Read(k(2)), Access::Mut(k(0))],
                one_sec_task,
            );
        }
        let g = b.build();
        execute(&g, 2);
        let r = simulate(&g, &flat_platform(1, 2));
        assert!(r.makespan >= r.critical_path - 1e-9);
        assert!(r.makespan <= r.serial_seconds + 1e-9);
        // With 2 cores the two middle tasks overlap: 3 s per diamond.
        assert!((r.makespan - 18.0).abs() < 1e-9, "{}", r.makespan);
    }

    #[test]
    fn probed_replay_is_bitwise_identical_and_reconciles() {
        use crate::probe::Probe;

        let mut b = TestGraph::new(2);
        b.declare(k(0), 1000, 0);
        b.declare(k(1), 500, 1);
        b.task("PANEL(k=0)", 0, &[Access::Mut(k(0))], one_sec_task);
        b.task(
            "GEMM(0,1,k=0)",
            1,
            &[Access::Read(k(0)), Access::Mut(k(1))],
            one_sec_task,
        );
        b.task("dead", 0, &[Access::Mut(k(0))], TaskResult::discarded);
        b.task("GEMM(1,1,k=1)", 0, &[Access::Read(k(1))], one_sec_task);
        let g = b.build();
        execute(&g, 2);
        let p = flat_platform(2, 2);
        for policy in SchedPolicy::all() {
            let plain = simulate_with(&g, &p, policy);
            let probe = Probe::enabled();
            let (probed, report) = simulate_probed(&g, &p, policy, &probe);
            assert_eq!(plain, probed, "probes must not perturb {policy:?}");
            let att = report.attribution.expect("attribution with probes on");
            assert!(
                att.max_reconciliation_error() <= 1e-9 * att.makespan.max(1.0),
                "{policy:?}: {}",
                att.max_reconciliation_error()
            );
            assert!(
                att.steps.iter().any(|(s, _)| *s == Some(0)),
                "{policy:?} must tag step 0"
            );
        }
    }

    #[test]
    fn nic_serializes_distinct_sends() {
        // One producer on node 0 sending distinct 1 GB data to 3 other
        // nodes: egress serializes on node 0's NIC.
        let mut b = TestGraph::new(4);
        for i in 0..3u64 {
            b.declare(k(i), 1_000_000_000, 0);
        }
        let mut acc = vec![];
        for i in 0..3u64 {
            acc.push(Access::Mut(k(i)));
        }
        b.task("p", 0, &acc, one_sec_task);
        for i in 0..3u64 {
            b.task(
                format!("c{i}"),
                (i + 1) as usize,
                &[Access::Read(k(i))],
                one_sec_task,
            );
        }
        let g = b.build();
        execute(&g, 1);
        let r = simulate(&g, &flat_platform(4, 1));
        // p ends at 1; three 1s wire-time sends pipeline on the NIC:
        // arrivals ~3, ~4, ~5; last consumer ends ~6.
        assert!(
            r.makespan > 5.5,
            "NIC contention not modeled: {}",
            r.makespan
        );
        assert_eq!(r.messages, 3);
    }
}
