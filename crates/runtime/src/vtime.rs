//! Virtual-time scheduling: the discrete-event platform model, consumed
//! one task at a time.
//!
//! [`VirtualSchedule`] is the costing core of the replay
//! ([`crate::sim::simulate_with`]), which feeds it a graph's tasks in the
//! order a [`crate::sched::SchedPolicy`] pops them from the ready set (id
//! order under FIFO, deepest chain first under critical-path) — any
//! topological order of the graph keeps the scoreboard consistent.
//!
//! Determinism is by construction: the schedule is a *list schedule in
//! processing order*. Each processed task claims cores and network slots
//! strictly after every task processed before it; callers must feed a
//! topological order of the hazard DAG (insertion order is one — hazard
//! edges always point from lower to higher ids). The state evolution
//! depends only on the sequence of **executed** tasks — their placements,
//! declared accesses, and costs: discarded tasks (the losing
//! hybrid branch, present in the batch graph, never planned by a streamed
//! run) contribute no time, no data flow, and no scoreboard updates.
//!
//! The communication model (shared with [`crate::comm`]): data flows from
//! the last *executed* writer of each datum (or its home node if never
//! written); a version crosses to a given destination node once, however
//! many tasks there consume it (tile caching); egress serializes on the
//! sender's NIC; a transfer costs the platform link's
//! `latency + bytes/bandwidth`.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use crate::comm::Network;
use crate::graph::{Access, CostClass, CostedAccess, DataKey, TaskResult};
use crate::hash::IntMap;
use crate::platform::Platform;
use crate::probe::report::{AttribBuckets, Attribution};
use crate::probe::{metric, Label, Probe};
use crate::sim::SimReport;

/// Last executed writer of a datum.
#[derive(Debug, Clone)]
struct WriterState {
    node: usize,
    finish: f64,
    /// Critical-path end time (resource-free longest chain).
    cp: f64,
    /// Arrival time of this version at each node it was sent to.
    sent: HashMap<usize, f64>,
}

/// Per-datum scoreboard: bounded by the declared data, not the task count.
#[derive(Debug, Clone, Default)]
struct DatumState {
    writer: Option<WriterState>,
    /// Folded max finish over executed readers since the last write.
    readers_finish: f64,
    /// Folded max critical-path end over those readers.
    readers_cp: f64,
    /// Arrival time of the *initial* (never-written) datum at each node
    /// that fetched it from its home.
    initial_sent: HashMap<usize, f64>,
}

/// The discrete-event engine. Feed tasks with [`VirtualSchedule::process`]
/// in insertion order; read the totals back with [`VirtualSchedule::report`].
pub struct VirtualSchedule {
    platform: Platform,
    /// Core availability per node (min-heap of free times).
    cores: Vec<BinaryHeap<Reverse<OrderedF64>>>,
    net: Network,
    data: IntMap<DataKey, DatumState>,
    node_busy: Vec<f64>,
    /// Per-node, per-cost-class busy seconds (duration × cores claimed) —
    /// what a per-class calibration of the efficiency profile keys on.
    node_class_seconds: Vec<[f64; CostClass::COUNT]>,
    /// Per-node, per-cost-class executed flops (Memory entries carry bytes).
    node_class_flops: Vec<[f64; CostClass::COUNT]>,
    makespan: f64,
    serial_seconds: f64,
    cp_max: f64,
    total_flops: f64,
    /// Metrics probe (disabled by default — every recording is a branch).
    probe: Probe,
    /// Makespan-attribution accumulators; present only when a probe is
    /// attached, so probe-free runs skip every attribution fold.
    attrib: Option<AttribState>,
    /// Decimation counter for the node-busy gauge (sampling every task
    /// would dominate probe overhead without sharpening the timeline).
    probe_tick: u64,
    /// Guards [`VirtualSchedule::flush_probe`] against double-flushing
    /// link counters into the probe.
    probe_flushed: bool,
}

/// Attribution accumulators, in core-seconds until finalization.
struct AttribState {
    /// Per-node bucket totals over all claimed-core segments.
    node: Vec<AttribBuckets>,
    /// Per-elimination-step totals (`None` for untagged tasks).
    steps: BTreeMap<Option<usize>, AttribBuckets>,
    /// Reused per-task buffer of claimed-core free times.
    scratch: Vec<f64>,
}

impl VirtualSchedule {
    /// An engine that keeps only the per-datum scoreboard (O(declared
    /// data) memory, whatever the task count). Per-task spans are the
    /// caller's: [`VirtualSchedule::process`] returns each one, and the
    /// replay records them by task id.
    pub fn new(platform: &Platform) -> Self {
        VirtualSchedule {
            cores: (0..platform.nodes)
                .map(|_| {
                    (0..platform.node.cores)
                        .map(|_| Reverse(OrderedF64(0.0)))
                        .collect()
                })
                .collect(),
            net: Network::new(platform.nodes),
            data: IntMap::default(),
            node_busy: vec![0.0; platform.nodes],
            node_class_seconds: vec![[0.0; CostClass::COUNT]; platform.nodes],
            node_class_flops: vec![[0.0; CostClass::COUNT]; platform.nodes],
            makespan: 0.0,
            serial_seconds: 0.0,
            cp_max: 0.0,
            total_flops: 0.0,
            probe: Probe::disabled(),
            attrib: None,
            probe_tick: 0,
            probe_flushed: false,
            platform: platform.clone(),
        }
    }

    /// Current virtual clock: the latest finish processed so far.
    pub fn now(&self) -> f64 {
        self.makespan
    }

    /// Attach a metrics probe. When the probe is enabled this also turns
    /// on the makespan-attribution pass; a disabled probe changes nothing.
    pub fn attach_probe(&mut self, probe: &Probe) {
        self.probe = probe.clone();
        if probe.is_enabled() && self.attrib.is_none() {
            self.attrib = Some(AttribState {
                node: vec![AttribBuckets::default(); self.platform.nodes],
                steps: BTreeMap::new(),
                scratch: Vec::new(),
            });
        }
    }

    /// Schedule the next task (callers feed a topological order of the
    /// hazard DAG — insertion order, or a [`crate::sched`] policy's pick)
    /// and return its simulated `(start, finish)`. Discarded tasks take
    /// zero time, move zero data, and leave the scoreboard untouched.
    pub fn process(
        &mut self,
        node: usize,
        accesses: &[CostedAccess],
        result: &TaskResult,
    ) -> (f64, f64) {
        self.process_tagged(node, accesses, result, None)
    }

    /// [`VirtualSchedule::process`] with an elimination-step tag for the
    /// makespan-attribution pass. `step` is ignored (and free) unless an
    /// enabled probe is attached.
    pub fn process_tagged(
        &mut self,
        node: usize,
        accesses: &[CostedAccess],
        result: &TaskResult,
        step: Option<usize>,
    ) -> (f64, f64) {
        assert!(node < self.platform.nodes, "task on unknown node");
        if !result.executed {
            return (0.0, 0.0);
        }

        // Pass 1: data-ready time over all accesses, sending cross-node
        // transfers as needed (cached once per destination node). With an
        // attribution pass on, two extra thresholds are folded alongside:
        // `dep_ready` (inputs produced, zero transfer cost) and
        // `uncont_ready` (inputs arrived over uncontended links) — see
        // [`crate::probe::report`] for the decomposition they induce.
        let track = self.attrib.is_some();
        let mut data_ready = 0.0f64;
        let mut cp_ready = 0.0f64;
        let mut dep_ready = 0.0f64;
        let mut uncont_ready = 0.0f64;
        for ca in accesses {
            let key = ca.access.key();
            let st = self.data.entry(key).or_default();
            match ca.access {
                Access::Read(_) | Access::Mut(_) => {
                    match &mut st.writer {
                        Some(w) => {
                            if w.node != node && ca.bytes > 0 {
                                let arrival = match w.sent.get(&node) {
                                    Some(&a) => a,
                                    None => {
                                        let a = self.net.send(
                                            &self.platform,
                                            w.node,
                                            node,
                                            w.finish,
                                            ca.bytes,
                                        );
                                        w.sent.insert(node, a);
                                        a
                                    }
                                };
                                data_ready = data_ready.max(arrival);
                                let raw = self.platform.link.transfer_seconds(ca.bytes);
                                cp_ready = cp_ready.max(w.cp + raw);
                                if track {
                                    dep_ready = dep_ready.max(w.finish);
                                    uncont_ready = uncont_ready.max(w.finish + raw);
                                }
                            } else {
                                data_ready = data_ready.max(w.finish);
                                cp_ready = cp_ready.max(w.cp);
                                if track {
                                    dep_ready = dep_ready.max(w.finish);
                                }
                            }
                        }
                        None => {
                            // Initial datum: fetched from its home node,
                            // at most once per destination.
                            if ca.home != node && ca.bytes > 0 {
                                let arrival = match st.initial_sent.get(&node) {
                                    Some(&a) => a,
                                    None => {
                                        let a = self.net.send(
                                            &self.platform,
                                            ca.home,
                                            node,
                                            0.0,
                                            ca.bytes,
                                        );
                                        st.initial_sent.insert(node, a);
                                        a
                                    }
                                };
                                data_ready = data_ready.max(arrival);
                                if track {
                                    // Produced at t=0; only wire time is
                                    // unavoidable.
                                    uncont_ready = uncont_ready
                                        .max(self.platform.link.transfer_seconds(ca.bytes));
                                }
                            }
                        }
                    }
                    if matches!(ca.access, Access::Mut(_)) {
                        // WAR: wait for every executed reader since the
                        // last write (precedence only, no data).
                        data_ready = data_ready.max(st.readers_finish);
                        cp_ready = cp_ready.max(st.readers_cp);
                        if track {
                            dep_ready = dep_ready.max(st.readers_finish);
                        }
                    }
                }
                Access::Control(_) => {
                    if let Some(w) = &st.writer {
                        data_ready = data_ready.max(w.finish);
                        cp_ready = cp_ready.max(w.cp);
                        if track {
                            dep_ready = dep_ready.max(w.finish);
                        }
                    }
                }
            }
        }

        // Claim cores and run.
        let claim = (result.cores as usize).min(self.platform.node.cores).max(1);
        let duration = self.platform.task_seconds(result.flops, result.class) / claim as f64
            + result.latency_events as f64 * self.platform.link.latency;
        let mut core_free = 0.0f64;
        let mut scratch = match self.attrib.as_mut() {
            Some(a) => std::mem::take(&mut a.scratch),
            None => Vec::new(),
        };
        for _ in 0..claim {
            let Reverse(OrderedF64(f)) = self.cores[node].pop().expect("node has cores");
            core_free = core_free.max(f);
            if track {
                scratch.push(f);
            }
        }
        let start = data_ready.max(core_free);
        let finish = start + duration;
        for _ in 0..claim {
            self.cores[node].push(Reverse(OrderedF64(finish)));
        }
        if let Some(att) = self.attrib.as_mut() {
            // Each claimed core's gap [f, start] splits at the three
            // thresholds dep <= uncont <= arrived (clamped into the gap):
            // below dep nothing existed to wait for (idle), dep..uncont is
            // the uncontended wire time (transfer), uncont..arrived is
            // queueing (contention), and the remainder up to `start` is
            // idle again — the core sat free while this task waited on
            // siblings or simply wasn't selected yet.
            let uncont = uncont_ready.max(dep_ready);
            let arrived = data_ready.max(uncont);
            let mut g = AttribBuckets::default();
            for &f in &scratch {
                let s1 = dep_ready.clamp(f, start);
                let s2 = uncont.clamp(f, start);
                let s3 = arrived.clamp(f, start);
                g.idle += (s1 - f) + (start - s3);
                g.transfer += s2 - s1;
                g.contention += s3 - s2;
                g.compute += duration;
            }
            att.node[node].add(&g);
            att.steps.entry(step).or_default().add(&g);
            scratch.clear();
            att.scratch = scratch;
        }
        self.node_busy[node] += duration * claim as f64;
        self.node_class_seconds[node][result.class.index()] += duration * claim as f64;
        self.node_class_flops[node][result.class.index()] += result.flops;
        self.serial_seconds += duration;
        self.makespan = self.makespan.max(finish);
        if self.probe.is_enabled() {
            // Decimated busy-timeline samples: enough to plot utilization
            // over virtual time without a lock per task.
            self.probe_tick += 1;
            if self.probe_tick.is_multiple_of(32) {
                self.probe.gauge(
                    metric::VTIME_NODE_BUSY,
                    Label::Node(node),
                    finish,
                    self.node_busy[node],
                );
            }
        }
        let cp_end = cp_ready + duration;
        self.cp_max = self.cp_max.max(cp_end);
        if result.class != CostClass::Memory && result.class != CostClass::Control {
            self.total_flops += result.flops;
        }

        // Pass 2: update the scoreboard in access order (a Mut after a
        // Read of the same key clears the reader fold).
        for ca in accesses {
            let st = self.data.entry(ca.access.key()).or_default();
            match ca.access {
                Access::Read(_) => {
                    st.readers_finish = st.readers_finish.max(finish);
                    st.readers_cp = st.readers_cp.max(cp_end);
                }
                Access::Control(_) => {}
                Access::Mut(_) => {
                    st.readers_finish = 0.0;
                    st.readers_cp = 0.0;
                    st.initial_sent.clear();
                    st.writer = Some(WriterState {
                        node,
                        finish,
                        cp: cp_end,
                        sent: HashMap::new(),
                    });
                }
            }
        }

        (start, finish)
    }

    /// Totals so far, as a [`SimReport`] with empty `starts`/`finishes`
    /// (spans are the caller's to record).
    pub fn report(&self) -> SimReport {
        SimReport {
            makespan: self.makespan,
            serial_seconds: self.serial_seconds,
            critical_path: self.cp_max,
            messages: self.net.messages,
            bytes: self.net.bytes,
            node_busy: self.node_busy.clone(),
            node_class_seconds: self.node_class_seconds.clone(),
            node_class_flops: self.node_class_flops.clone(),
            total_flops: self.total_flops,
            link_messages: self.net.link_traffic(),
            starts: Vec::new(),
            finishes: Vec::new(),
        }
    }

    /// Finalize the makespan-attribution pass: add each core's tail idle
    /// (last free time to makespan), normalize core-seconds by node width,
    /// and return the per-node / per-step decomposition. `None` unless an
    /// enabled probe was attached before processing.
    pub fn attribution(&self) -> Option<Attribution> {
        let att = self.attrib.as_ref()?;
        let mut nodes = Vec::with_capacity(att.node.len());
        for (n, buckets) in att.node.iter().enumerate() {
            let mut b = *buckets;
            for &Reverse(OrderedF64(f)) in &self.cores[n] {
                b.idle += self.makespan - f;
            }
            let cores = self.platform.node.cores as f64;
            nodes.push(b.scale(1.0 / cores));
        }
        let steps = att.steps.iter().map(|(&k, v)| (k, *v)).collect();
        Some(Attribution {
            nodes,
            steps,
            makespan: self.makespan,
        })
    }

    /// Push accumulated per-link network counters into the attached probe. Idempotent; a no-op without an
    /// enabled probe. Callers invoke this once, after the last task.
    pub fn flush_probe(&mut self) {
        if !self.probe.is_enabled() || self.probe_flushed {
            return;
        }
        self.probe_flushed = true;
        let links = self.net.link_traffic();
        self.probe.record_batch(|snap| {
            for lt in &links {
                let label = Label::Link {
                    src: lt.src,
                    dst: lt.dst,
                };
                snap.add_counter(metric::COMM_LINK_MSGS, label, lt.messages);
                snap.add_counter(metric::COMM_LINK_BYTES, label, lt.bytes);
            }
        });
    }
}

/// f64 wrapper with a total order (no NaNs by construction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::platform::{Efficiency, LinkSpec, NodeSpec};

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

    fn one_sec() -> TaskResult {
        TaskResult::executed(1e9, CostClass::Gemm)
    }

    #[test]
    fn discarded_tasks_leave_no_trace() {
        let mut v = VirtualSchedule::new(&flat(2, 1));
        let k = DataKey(0);
        let (s0, _) = v.process(0, &[acc(Access::Mut(k), 1000, 0)], &one_sec());
        // A discarded writer on node 1 neither moves data nor bumps the
        // scoreboard: the next consumer still reads node 0's version.
        let (s1, _) = v.process(1, &[acc(Access::Mut(k), 1000, 0)], &TaskResult::discarded());
        let (start, _) = v.process(0, &[acc(Access::Read(k), 1000, 0)], &one_sec());
        assert!((start - 1.0).abs() < 1e-12);
        let r = v.report();
        assert_eq!(r.messages, 0);
        assert_eq!(vec![s0, s1, start], vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn version_sent_once_per_destination() {
        let mut v = VirtualSchedule::new(&flat(3, 4));
        let k = DataKey(0);
        v.process(0, &[acc(Access::Mut(k), 500, 0)], &one_sec());
        for _ in 0..3 {
            v.process(1, &[acc(Access::Read(k), 500, 0)], &one_sec());
        }
        v.process(2, &[acc(Access::Read(k), 500, 0)], &one_sec());
        let r = v.report();
        assert_eq!(r.messages, 2, "one transfer per destination node");
        assert_eq!(r.bytes, 1000);
    }

    #[test]
    fn per_node_core_counts_bound_the_claim() {
        // A whole-node kernel claims 4 cores on a 4-core node but only 1
        // on a 1-core node.
        let whole_node = TaskResult::executed(1e9, CostClass::Gemm).with_cores(u32::MAX);
        let finish = |cores: usize| {
            let mut v = VirtualSchedule::new(&flat(1, cores));
            v.process(0, &[acc(Access::Mut(DataKey(0)), 0, 0)], &whole_node)
                .1
        };
        let (f0, f1) = (finish(4), finish(1));
        assert!((f0 - 0.25).abs() < 1e-12, "4-way kernel: {f0}");
        assert!((f1 - 1.0).abs() < 1e-12, "clamped to 1 core: {f1}");
    }

    #[test]
    fn attribution_partitions_every_node_timeline() {
        // Two 2-core nodes; two producers on node 0 finish together at
        // t=1, so their 0.5 s transfers to node 1 serialize on node 0's
        // NIC: the second consumer pays real contention (0.5 s) on top of
        // the unavoidable transfer (latency 1 + wire 0.5).
        let p = flat(2, 2);
        let probe = Probe::enabled();
        let mut v = VirtualSchedule::new(&p);
        v.attach_probe(&probe);
        let (k1, k2) = (DataKey(0), DataKey(1));
        let bytes = 500_000_000; // 0.5 s of wire at 1e9 B/s
        v.process_tagged(0, &[acc(Access::Mut(k1), bytes, 0)], &one_sec(), Some(0));
        v.process_tagged(0, &[acc(Access::Mut(k2), bytes, 0)], &one_sec(), Some(0));
        v.process_tagged(1, &[acc(Access::Read(k1), bytes, 0)], &one_sec(), Some(1));
        v.process_tagged(1, &[acc(Access::Read(k2), bytes, 0)], &one_sec(), Some(1));

        let att = v.attribution().expect("probe attached");
        assert!((att.makespan - 4.0).abs() < 1e-12);
        for (n, b) in att.nodes.iter().enumerate() {
            assert!(
                (b.total() - att.makespan).abs() <= 1e-9 * att.makespan,
                "node {n}: {} != {}",
                b.total(),
                att.makespan
            );
        }
        let n1 = &att.nodes[1];
        assert!((n1.compute - 1.0).abs() < 1e-12);
        assert!((n1.transfer - 1.5).abs() < 1e-12);
        assert!((n1.contention - 0.25).abs() < 1e-12, "{}", n1.contention);
        assert!((n1.idle - 1.25).abs() < 1e-12);
        // Per-step core-seconds carry the tags.
        let steps: std::collections::HashMap<_, _> = att.steps.iter().cloned().collect();
        assert!((steps[&Some(0)].compute - 2.0).abs() < 1e-12);
        assert!((steps[&Some(1)].compute - 2.0).abs() < 1e-12);

        // Flushing pushes the per-link counters into the probe, once.
        v.flush_probe();
        v.flush_probe();
        let snap = probe.snapshot();
        use crate::probe::metric;
        let link = Label::Link { src: 0, dst: 1 };
        assert_eq!(snap.counter(metric::COMM_LINK_MSGS, link), 2);
        assert_eq!(
            snap.counter(metric::COMM_LINK_BYTES, link),
            2 * bytes as u64
        );
        // The report's per-link traffic agrees with the probe counters.
        let r = v.report();
        assert_eq!(r.link_messages.len(), 1);
        assert_eq!(r.link_messages[0].messages, 2);
    }

    #[test]
    fn rewrite_invalidates_the_cache() {
        let mut v = VirtualSchedule::new(&flat(2, 4));
        let k = DataKey(0);
        v.process(0, &[acc(Access::Mut(k), 500, 0)], &one_sec());
        v.process(1, &[acc(Access::Read(k), 500, 0)], &one_sec());
        v.process(0, &[acc(Access::Mut(k), 500, 0)], &one_sec());
        v.process(1, &[acc(Access::Read(k), 500, 0)], &one_sec());
        assert_eq!(v.report().messages, 2, "each version crosses once");
    }
}
