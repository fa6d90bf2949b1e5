//! The streaming window, split into per-node sub-windows: a live task
//! graph that grows at the planning edge and shrinks at the completion
//! edge, with cross-node progress flowing through explicit messages.
//!
//! [`StreamWindow`] accepts task insertions through the same [`TaskSink`]
//! surface as the batch [`crate::graph::GraphBuilder`] and infers the same
//! RAW / WAR / WAW hazard edges — with one twist: a dependency on a task
//! that has *already completed* is vacuous and produces no edge, so the
//! hazard metadata may keep referring to completed (reclaimed) tasks
//! without pinning their records. A task record is dropped the moment its
//! kernel finishes; completed reader entries are pruned — their depth
//! folded into a per-key scalar — at every step retirement, so the
//! metadata stays bounded by the declared data plus the live window, not
//! by the factorization's O(N³) task count.
//!
//! **Distribution.** Each virtual node owns a [`NodeWindow`]: the live
//! records and ready queue of the tasks *placed* on it (owner-computes),
//! plus the hazard directory of the data *homed* on it. A dependency
//! between tasks on the same node is a direct edge inside that
//! sub-window; a cross-node dependency is satisfied by a routed message
//! ([`crate::comm::Msg`]): the producer's completion delivers a
//! [`crate::comm::DataMsg`] once per destination node (consumers there
//! share the cached copy — and late consumers of an already-completed
//! producer trigger the send at insertion), the hybrid's criterion
//! decision reaches remote branch tasks as a [`crate::comm::DecisionMsg`]
//! broadcast from the panel-owner node, and a node whose share of a
//! closed step drains reports it with a [`crate::comm::RetireMsg`] so the
//! planner can retire the step. Ordering-only dependencies (WAR,
//! control) release remote successors without payload and are not counted
//! as messages — matching the platform simulator's cost model, which is
//! what keeps the online virtual-time report equal to a batch replay.
//!
//! All mutable state sits behind one mutex with two condition variables:
//! `work_cv` wakes workers when tasks become ready (or at shutdown), and
//! `plan_cv` wakes the planning thread when capacity opens, an awaited
//! decision task completes, or the graph drains.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::comm::{flow_msg, LinkMsgStats, Msg, MsgStats, RetireMsg};
use crate::exec::Tally;
use crate::graph::{
    Access, CostClass, CostedAccess, DataClass, DataKey, Kernel, TaskId, TaskResult, TaskSink,
};
use crate::hazard::{HazardCell, Writer};
use crate::net::{Frame, NetReport, PayloadStore, Transport, TransportError};
use crate::platform::Platform;
use crate::probe::{metric, Histogram, Label, Probe};
use crate::sched::{SchedEngine, SchedPolicy};
use crate::sim::SimReport;
use crate::trace::TraceEvent;

use super::priority::ReadyQueue;
use super::retire::StepLedger;

/// Scheduling lookahead of the online virtual-time engine: how many
/// completed-but-unscheduled task records the policy may hold for choice.
/// Bounded so streaming memory stays O(window + declared data), not
/// O(task count); at this horizon the policy sees roughly a trailing
/// update's worth of candidates. FIFO is lookahead-invariant (pinned in
/// `sched_props.rs`), so the default policy is unaffected.
const VTIME_LOOKAHEAD: usize = 256;

/// Per-writer payload the window keeps in its hazard cells: everything
/// message routing needs about the last writer once the task record
/// itself is reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriterMeta {
    /// Node the writer is placed on (the send source).
    node: usize,
    /// `None` while live; `Some(executed)` once completed.
    done: Option<bool>,
}

/// The window's hazard state per datum (the shared [`crate::hazard`]
/// core, carrying [`WriterMeta`]).
type DirCell = HazardCell<WriterMeta>;

/// The last *executed* version of a datum: where its payload actually
/// lives, and which nodes already hold a copy. This is what transfers
/// resolve against — a runtime-discarded writer produces nothing, so its
/// consumers fetch the previous executed version (or the initial tile),
/// exactly like the virtual-time engine's scoreboard.
#[derive(Debug)]
struct ExecVersion {
    id: TaskId,
    node: usize,
    /// Destination nodes already holding this version.
    sent: HashSet<usize>,
}

/// Per-datum directory entry, held by the sub-window of the datum's home
/// node: declaration metadata, hazard state, and the once-per-destination
/// transfer cache of the last executed version.
#[derive(Debug)]
struct DatumDir {
    bytes: usize,
    home: usize,
    class: DataClass,
    /// Hazard state: last writer (with routing metadata) + readers.
    hazard: DirCell,
    /// Last executed version (transfer source + cache).
    exec: Option<ExecVersion>,
    /// Nodes that fetched the never-written datum from its home.
    initial_fetched: HashSet<usize>,
}

/// Arrival state of one inbound payload, keyed by `(datum, producer)`.
///
/// Frames are buffered as raw bytes at receipt and decoded into the local
/// mirror *lazily* — either when a consumer task is popped for execution
/// (under the window lock, so hazard ordering makes the write safe) or
/// when the driver awaits a remote decision. Decoding eagerly in the
/// receiver would race the planner: a frame may arrive before the rank
/// has even declared the datum it updates.
enum Arrival {
    /// Received, not yet decoded into the local mirror.
    Bytes(Vec<u8>),
    /// Decoded and stored into the local mirror.
    Applied,
}

/// Key of one inbound payload: the datum plus its producing task
/// (`None` = an initial fetch from the datum's home rank).
type ArrivalKey = (DataKey, Option<TaskId>);

/// Wire-execution state of one rank. Present only under
/// [`crate::stream::execute_net`]; `None` leaves every routed message a
/// pure bookkeeping record, exactly the simulated-distribution path.
///
/// Every rank plans the *full* task graph deterministically (SPMD), so
/// the protocol messages each rank records are identical to the
/// simulated run's. The net state adds: real frames for the messages
/// this rank *sends* (`link.0 == rank`), arrival gating for the inputs
/// its local tasks need from other ranks, and wire-level counters that
/// are reconciled against the protocol tallies at the end of the run.
struct NetState {
    rank: usize,
    transport: Arc<dyn Transport>,
    store: Arc<dyn PayloadStore>,
    /// Inbound payloads by `(datum, producer)`; `producer == None` is an
    /// initial fetch from the datum's home.
    arrivals: HashMap<ArrivalKey, Arrival>,
    /// Local tasks blocked on a not-yet-arrived input: `(task, node)`.
    waiters: HashMap<ArrivalKey, Vec<(TaskId, usize)>>,
    /// Decision-writing tasks by id: `(decision datum, written locally)`.
    /// The driver consults this to await the *applied* decision (not just
    /// the stub's completion) before planning the rest of the step.
    pending_decisions: HashMap<TaskId, (DataKey, bool)>,
    /// Wire frames actually sent/received per protocol link, counted in
    /// protocol-message terms for reconciliation against `link_msgs`.
    wire_sent: BTreeMap<(usize, usize), MsgStats>,
    wire_recv: BTreeMap<(usize, usize), MsgStats>,
    /// Control frames (Sync / Result / Done / Fin / Shutdown) — protocol
    /// overhead outside the message model, counted separately.
    ctrl_sent: u64,
    ctrl_recv: u64,
    payload_bytes_sent: u64,
    payload_bytes_recv: u64,
    ser_hist: Histogram,
    de_hist: Histogram,
    /// End-of-run barrier state.
    dones: HashSet<usize>,
    fins: HashSet<usize>,
    shutdown_seen: bool,
    /// This rank has discharged all its protocol obligations: peers have
    /// sent their `Fin`, rank 0 has broadcast `Shutdown`. From here on a
    /// non-zero peer closing its endpoint is the normal staggered teardown
    /// (it got its `Shutdown` first), not a failure.
    complete: bool,
    /// First transport/protocol error; sticky, fails the whole run.
    error: Option<TransportError>,
}

impl NetState {
    fn nranks(&self) -> usize {
        self.transport.nranks()
    }

    fn fail(&mut self, e: TransportError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Serialize `key`'s current payload from the local mirror (timed into
    /// the serialize histogram). Missing payloads serialize as empty — the
    /// peer's store treats an empty blob as "nothing to apply".
    fn load_payload(&mut self, key: DataKey) -> Vec<u8> {
        let t0 = Instant::now();
        let bytes = self.store.load(key).unwrap_or_default();
        self.ser_hist.observe(t0.elapsed().as_secs_f64());
        bytes
    }

    /// Decode an arrived payload into the local mirror (timed into the
    /// deserialize histogram).
    fn store_payload(&mut self, key: DataKey, bytes: &[u8]) {
        let t0 = Instant::now();
        self.store.store(key, bytes);
        self.de_hist.observe(t0.elapsed().as_secs_f64());
    }
}

/// What the receiver pump should do after delivering a frame.
pub(crate) enum FramePump {
    Continue,
    Stop,
}

/// A materialized, not-yet-completed task.
struct LiveTask {
    name: String,
    step: usize,
    cp: u64,
    preds_remaining: usize,
    /// Successors placed on the same node (direct edges).
    local_succs: Vec<TaskId>,
    /// Remote successors released by message: (consumer, consumer node).
    remote_releases: Vec<(TaskId, usize)>,
    /// Data transfers owed at completion: (key, destination, bytes,
    /// class), deduplicated per (key, destination).
    pending_sends: Vec<(DataKey, usize, usize, DataClass)>,
    /// Declared accesses with datum metadata (virtual-time input).
    accesses: Vec<CostedAccess>,
    /// Net mode: inputs this task consumes from other ranks, each an
    /// extra predecessor resolved by frame arrival. Applied to the local
    /// mirror when the task is popped for execution.
    net_needs: Vec<(DataKey, Option<TaskId>)>,
    kernel: Option<Kernel>,
}

/// One virtual node's share of the window.
#[derive(Default)]
struct NodeWindow {
    live: HashMap<TaskId, LiveTask>,
    ready: ReadyQueue,
    directory: HashMap<DataKey, DatumDir>,
}

/// Online virtual-time state: completed tasks are *submitted* to the
/// policy-driven engine in insertion order (hazard inference keys on it),
/// so only the id-contiguity buffer (bounded by the live window span) is
/// ever pending here; the engine itself buffers at most
/// [`VTIME_LOOKAHEAD`] submitted records for the policy to choose among.
struct VtimeState {
    engine: SchedEngine,
    pending: BTreeMap<TaskId, (usize, Vec<CostedAccess>, TaskResult, usize)>,
    next: TaskId,
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

pub(crate) struct WindowState {
    next_id: TaskId,
    nodes: Vec<NodeWindow>,
    /// Home node of every declared datum (the directory locator).
    home_of: HashMap<DataKey, usize>,
    /// Node of every live task (global liveness index).
    live_nodes: HashMap<TaskId, usize>,
    pub(crate) ledger: StepLedger,
    planning_done: bool,
    pub(crate) tally: Tally,
    msgs: MsgStats,
    tasks_planned: usize,
    peak_live_tasks: usize,
    vtime: Option<VtimeState>,
    /// Steal-at-insert ([`crate::stream::StreamOptions::steal`]): re-home
    /// tasks against the vtime finish oracle at insertion.
    steal: bool,
    steals: u64,
    steal_kept: u64,
    steal_win: Histogram,
    /// Online speed observation (set when recalibration is on *and* a
    /// platform is modeled).
    calib: Option<CalibState>,
    trace: Option<Vec<TraceEvent>>,
    /// Metrics probe (cheap-clone handle; disabled by default).
    probe: Probe,
    /// Per-(src, dst) protocol message tallies (retire reports appear on
    /// the `(node, 0)` link — the planner lives with node 0).
    link_msgs: BTreeMap<(usize, usize), MsgStats>,
    /// Per-class kernel accounting — `(flops, wall-seconds histogram)`,
    /// indexed by [`CostClass::index`] — only allocated while probed.
    kernel_stats: Option<Box<[(f64, Histogram); CostClass::COUNT]>>,
    /// Wall time each step's planning closed at (probed runs only), for
    /// the close-to-retirement lag histogram.
    step_closed_at: HashMap<usize, f64>,
    /// Decimation counter for the live-task gauge.
    live_tick: u64,
    /// Real-transport state ([`crate::stream::execute_net`] only).
    net: Option<NetState>,
}

/// Does net mode have a sticky error? (Blocking waits bail on it.)
fn net_failed(st: &WindowState) -> bool {
    st.net.as_ref().is_some_and(|n| n.error.is_some())
}

/// Final statistics of one streaming run.
pub(crate) struct WindowStats {
    pub tally: Tally,
    pub steals: u64,
    pub steal_kept: u64,
    pub tasks_planned: usize,
    pub peak_live_tasks: usize,
    pub peak_live_steps: usize,
    pub per_step_tasks: Vec<usize>,
    pub msgs: MsgStats,
    pub link_msgs: Vec<LinkMsgStats>,
    pub sim: Option<SimReport>,
    pub trace: Vec<TraceEvent>,
    pub net: Option<NetReport>,
}

impl WindowState {
    /// Drop reader entries whose tasks have completed, folding their
    /// critical-path depth into the per-key scalar. Run at every step
    /// retirement: without it, reads of data that is never written again
    /// (decisions, T-factors, finalized panel columns) would accumulate
    /// hazard metadata proportional to the *total* task count, defeating
    /// the window's memory bound.
    fn prune_completed_readers(&mut self) {
        let live = &self.live_nodes;
        for nw in &mut self.nodes {
            for dir in nw.directory.values_mut() {
                dir.hazard.readers.prune(|id| live.contains_key(&id));
            }
        }
    }

    /// Record a protocol message — and, in net mode, put the frames this
    /// rank originates on the wire. `producer` is the executed version the
    /// payload carries (`None` for initial fetches and retire reports);
    /// [`crate::comm::DecisionMsg`] does not model it, so net mode threads
    /// it here for the receiver's arrival key.
    fn route(&mut self, msg: Msg, producer: Option<TaskId>) {
        self.msgs.record(&msg);
        let link = match &msg {
            Msg::Data(m) => (m.from, m.to),
            Msg::Decision(m) => (m.from, m.to),
            Msg::Retire(m) => (m.node, 0),
        };
        self.link_msgs.entry(link).or_default().record(&msg);
        let Some(net) = &mut self.net else { return };
        if link.0 != net.rank {
            return;
        }
        net.wire_sent.entry(link).or_default().record(&msg);
        let frame = match &msg {
            Msg::Data(m) => Frame::Data {
                key: m.key,
                producer: m.producer,
                from: m.from as u32,
                to: m.to as u32,
                class: DataClass::Payload,
                modeled_bytes: m.bytes as u64,
                payload: net.load_payload(m.key),
            },
            Msg::Decision(m) => Frame::Data {
                key: m.key,
                producer,
                from: m.from as u32,
                to: m.to as u32,
                class: DataClass::Decision,
                modeled_bytes: m.bytes as u64,
                payload: net.load_payload(m.key),
            },
            Msg::Retire(m) => Frame::Retire {
                step: m.step as u64,
                node: m.node as u32,
            },
        };
        if let Frame::Data { payload, .. } = &frame {
            net.payload_bytes_sent += payload.len() as u64;
        }
        if let Err(e) = net.transport.send(link.1, &frame) {
            net.fail(e);
        }
    }

    /// Apply ledger feedback from a close/completion: per-node retirement
    /// reports become [`RetireMsg`]s (the planner lives with node 0, whose
    /// report is local), and a retired step prunes reader metadata.
    /// `now` is the wall clock (seconds since the window's epoch) of the
    /// triggering event; it only feeds the probed retirement-lag metric.
    fn on_step_events(&mut self, reports: &[usize], retired: bool, step: usize, now: f64) {
        for &n in reports {
            if n != 0 {
                self.route(Msg::Retire(RetireMsg { step, node: n }), None);
            }
        }
        if retired {
            if let Some(closed) = self.step_closed_at.remove(&step) {
                self.probe.observe(
                    metric::STREAM_RETIRE_LAG,
                    Label::None,
                    (now - closed).max(0.0),
                );
            }
            if let Some(c) = &mut self.calib {
                c.fold_retired(step);
            }
            self.prune_completed_readers();
        }
    }
}

/// Shared streaming execution state (per-node sub-windows + scheduler
/// queues + the online communication/virtual-time accounting).
pub struct StreamWindow {
    num_nodes: usize,
    state: Mutex<WindowState>,
    work_cv: Condvar,
    plan_cv: Condvar,
    /// Net mode: wakes frame-arrival waiters (decision waits, end-of-run
    /// barriers) and error bails.
    net_cv: Condvar,
    /// Wall-clock epoch for trace timestamps.
    epoch: Instant,
}

/// Sentinel step used while no step is open (declaration phase).
const NO_STEP: usize = usize::MAX;

impl StreamWindow {
    pub fn new(num_nodes: usize) -> Self {
        StreamWindow::with_options(
            num_nodes,
            None,
            false,
            SchedPolicy::Fifo,
            &Probe::disabled(),
            false,
            false,
        )
    }

    /// A window that additionally drives the platform communication model
    /// online (`platform`, virtual time scheduled by `scheduler`), records
    /// per-task trace events (`trace`), and/or emits runtime metrics into
    /// an enabled `probe`.
    pub fn with_options(
        num_nodes: usize,
        platform: Option<&Platform>,
        trace: bool,
        scheduler: SchedPolicy,
        probe: &Probe,
        steal: bool,
        recalibrate: bool,
    ) -> Self {
        assert!(num_nodes >= 1);
        if let Some(p) = platform {
            if let Err(e) = p.require_nodes(num_nodes) {
                panic!("cannot stream against this platform: {e}");
            }
        }
        StreamWindow {
            num_nodes,
            state: Mutex::new(WindowState {
                next_id: 0,
                nodes: (0..num_nodes).map(|_| NodeWindow::default()).collect(),
                home_of: HashMap::new(),
                live_nodes: HashMap::new(),
                ledger: StepLedger::new(num_nodes),
                planning_done: false,
                tally: Tally::default(),
                msgs: MsgStats::default(),
                tasks_planned: 0,
                peak_live_tasks: 0,
                vtime: platform.map(|p| {
                    let mut engine = SchedEngine::new(p, scheduler).with_lookahead(VTIME_LOOKAHEAD);
                    engine.attach_probe(probe);
                    VtimeState {
                        engine,
                        pending: BTreeMap::new(),
                        next: 0,
                    }
                }),
                steal: steal && platform.is_some() && num_nodes > 1,
                steals: 0,
                steal_kept: 0,
                steal_win: Histogram::default(),
                calib: if recalibrate {
                    platform.map(|p| CalibState::new(p, num_nodes))
                } else {
                    None
                },
                trace: trace.then(Vec::<TraceEvent>::new),
                probe: probe.clone(),
                link_msgs: BTreeMap::new(),
                kernel_stats: probe
                    .is_enabled()
                    .then(|| Box::new([(0.0, Histogram::default()); CostClass::COUNT])),
                step_closed_at: HashMap::new(),
                live_tick: 0,
                net: None,
            }),
            work_cv: Condvar::new(),
            plan_cv: Condvar::new(),
            net_cv: Condvar::new(),
            epoch: Instant::now(),
        }
    }

    /// A window bound to a real transport endpoint: every protocol message
    /// this rank originates goes out as a wire frame and local tasks gate
    /// on the arrival of their remote inputs. Used by
    /// [`crate::stream::execute_net`] — which enforces the mode's
    /// restrictions (no platform model, FIFO, no stealing).
    pub(crate) fn with_net(
        num_nodes: usize,
        trace: bool,
        probe: &Probe,
        transport: Arc<dyn Transport>,
        store: Arc<dyn PayloadStore>,
    ) -> Self {
        assert_eq!(
            transport.nranks(),
            num_nodes,
            "transport world size must match the virtual node count"
        );
        let rank = transport.rank();
        assert!(rank < num_nodes, "transport rank out of range");
        let mut win = StreamWindow::with_options(
            num_nodes,
            None,
            trace,
            SchedPolicy::Fifo,
            probe,
            false,
            false,
        );
        win.state.get_mut().unwrap_or_else(|e| e.into_inner()).net = Some(NetState {
            rank,
            transport,
            store,
            arrivals: HashMap::new(),
            waiters: HashMap::new(),
            pending_decisions: HashMap::new(),
            wire_sent: BTreeMap::new(),
            wire_recv: BTreeMap::new(),
            ctrl_sent: 0,
            ctrl_recv: 0,
            payload_bytes_sent: 0,
            payload_bytes_recv: 0,
            ser_hist: Histogram::default(),
            de_hist: Histogram::default(),
            dones: HashSet::new(),
            fins: HashSet::new(),
            shutdown_seen: false,
            complete: false,
            error: None,
        });
        win
    }

    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WindowState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ---- planning side -------------------------------------------------

    /// Block until fewer than `window` steps are live.
    pub fn wait_for_capacity(&self, window: usize) {
        let mut st = self.lock();
        while st.ledger.live_steps() >= window && !net_failed(&st) {
            st = self.plan_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Begin planning step `k`; subsequent insertions are charged to it.
    pub fn open_step(&self, k: usize) {
        assert_ne!(k, NO_STEP);
        self.lock().ledger.open_step(k);
    }

    /// Planning of step `k` is complete.
    pub fn close_step(&self, k: usize) {
        let mut st = self.lock();
        let now = if st.probe.is_enabled() {
            let t = self.epoch.elapsed().as_secs_f64();
            st.step_closed_at.insert(k, t);
            t
        } else {
            0.0
        };
        // Closing may report already-drained node shares and retire the
        // step on the spot.
        let (reports, retired) = st.ledger.close_step(k);
        st.on_step_events(&reports, retired, k, now);
        drop(st);
        self.plan_cv.notify_all();
    }

    /// Block until task `id` has completed (its kernel ran and its record
    /// was reclaimed). Used by the driver to await a step's decision task.
    pub fn wait_for_task(&self, id: TaskId) {
        let mut st = self.lock();
        assert!(id < st.next_id, "waiting on a task that was never planned");
        while st.live_nodes.contains_key(&id) && !net_failed(&st) {
            st = self.plan_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// No further steps will be planned; workers may exit once drained.
    pub fn finish_planning(&self) {
        self.lock().planning_done = true;
        self.work_cv.notify_all();
        self.plan_cv.notify_all();
    }

    /// Block until every planned task has completed.
    pub fn wait_drained(&self) {
        let mut st = self.lock();
        while !st.live_nodes.is_empty() && !net_failed(&st) {
            st = self.plan_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Per-node effective speeds (GFLOP/s) observed over fully-retired
    /// steps, for [`crate::stream::StepSource::recalibrate`]. `None`
    /// until recalibration is enabled *and* at least one step retired.
    pub fn calibrated_speeds(&self) -> Option<Vec<f64>> {
        let st = self.lock();
        st.calib
            .as_ref()
            .filter(|c| c.folded_steps > 0)
            .map(|c| c.speeds())
    }

    /// Live task records right now (the auto-window policy's memory
    /// signal).
    pub fn live_tasks(&self) -> usize {
        self.lock().live_nodes.len()
    }

    /// Final statistics (call after [`StreamWindow::wait_drained`]).
    pub(crate) fn stats(&self) -> WindowStats {
        let mut st = self.lock();
        if let Some(v) = &mut st.vtime {
            debug_assert!(v.pending.is_empty(), "virtual time lagging the drain");
            // Schedule whatever the lookahead bound left for the policy to
            // choose among — the run is over, so the choice set is final.
            v.engine.drain();
            v.engine.flush_probe();
        }
        let net_report = st.net.as_ref().map(|n| {
            let frames = |map: &BTreeMap<(usize, usize), MsgStats>| {
                map.values()
                    .map(|m| m.data_msgs + m.decision_msgs + m.retire_msgs)
                    .sum::<u64>()
            };
            NetReport {
                rank: n.rank,
                nranks: n.nranks(),
                frames_sent: frames(&n.wire_sent),
                frames_received: frames(&n.wire_recv),
                ctrl_frames_sent: n.ctrl_sent,
                ctrl_frames_received: n.ctrl_recv,
                payload_bytes_sent: n.payload_bytes_sent,
                payload_bytes_received: n.payload_bytes_recv,
                serialize_seconds: n.ser_hist,
                deserialize_seconds: n.de_hist,
            }
        });
        if st.probe.is_enabled() {
            if let Some(att) = st.vtime.as_ref().and_then(|v| v.engine.attribution()) {
                st.probe.set_attribution(att);
            }
            let kernel_stats = st.kernel_stats.take();
            let totals = st.msgs;
            let wire = st.net.as_ref().map(|n| {
                let by_kind = |map: &BTreeMap<(usize, usize), MsgStats>, ctrl: u64| {
                    let mut sums = [0u64; 3];
                    for m in map.values() {
                        sums[0] += m.data_msgs;
                        sums[1] += m.decision_msgs;
                        sums[2] += m.retire_msgs;
                    }
                    [
                        ("data", sums[0]),
                        ("decision", sums[1]),
                        ("retire", sums[2]),
                        ("ctrl", ctrl),
                    ]
                };
                (
                    by_kind(&n.wire_sent, n.ctrl_sent),
                    by_kind(&n.wire_recv, n.ctrl_recv),
                    n.payload_bytes_sent,
                    n.payload_bytes_recv,
                    n.ser_hist,
                    n.de_hist,
                )
            });
            let (steals, steal_kept, steal_win) = (st.steals, st.steal_kept, st.steal_win);
            let steal_evals = steals + steal_kept;
            let steal_label = Label::Policy(
                st.vtime
                    .as_ref()
                    .map(|v| v.engine.policy().name())
                    .unwrap_or("fifo"),
            );
            st.probe.record_batch(|sink| {
                if let Some(ks) = &kernel_stats {
                    for (class, (flops, hist)) in CostClass::ALL.iter().zip(ks.iter()) {
                        if hist.count > 0 {
                            let label = Label::Class(class.name());
                            sink.counter(metric::KERNEL_FLOPS, label, *flops as u64);
                            sink.merge_histogram(metric::KERNEL_SECONDS, label, hist);
                        }
                    }
                }
                // Per-link payload traffic on the probe comes from the
                // virtual-time network (COMM_LINK_*); here we count the
                // *protocol* messages by kind, links included via
                // `WindowStats::link_msgs`.
                for (kind, n) in [
                    ("data", totals.data_msgs),
                    ("decision", totals.decision_msgs),
                    ("retire", totals.retire_msgs),
                ] {
                    if n > 0 {
                        sink.counter(metric::COMM_MSGS, Label::Kind(kind), n);
                    }
                }
                if steal_evals > 0 {
                    sink.counter(metric::SCHED_STEALS, steal_label, steals);
                    sink.counter(metric::SCHED_STEAL_KEPT, steal_label, steal_kept);
                    sink.merge_histogram(metric::SCHED_STEAL_WIN, steal_label, &steal_win);
                }
                if let Some((sent, recv, bytes_sent, bytes_recv, ser, de)) = &wire {
                    for &(kind, n) in sent {
                        if n > 0 {
                            sink.counter(metric::NET_FRAMES_SENT, Label::Kind(kind), n);
                        }
                    }
                    for &(kind, n) in recv {
                        if n > 0 {
                            sink.counter(metric::NET_FRAMES_RECV, Label::Kind(kind), n);
                        }
                    }
                    if *bytes_sent > 0 {
                        sink.counter(metric::NET_PAYLOAD_BYTES, Label::Kind("sent"), *bytes_sent);
                    }
                    if *bytes_recv > 0 {
                        sink.counter(
                            metric::NET_PAYLOAD_BYTES,
                            Label::Kind("received"),
                            *bytes_recv,
                        );
                    }
                    if ser.count > 0 {
                        sink.merge_histogram(metric::NET_SERIALIZE, Label::None, ser);
                    }
                    if de.count > 0 {
                        sink.merge_histogram(metric::NET_DESERIALIZE, Label::None, de);
                    }
                }
            });
        }
        WindowStats {
            tally: st.tally.clone(),
            steals: st.steals,
            steal_kept: st.steal_kept,
            tasks_planned: st.tasks_planned,
            peak_live_tasks: st.peak_live_tasks,
            peak_live_steps: st.ledger.peak_live_steps,
            per_step_tasks: st.ledger.per_step_planned.clone(),
            msgs: st.msgs,
            link_msgs: st
                .link_msgs
                .iter()
                .map(|(&(src, dst), &msgs)| LinkMsgStats { src, dst, msgs })
                .collect(),
            sim: st.vtime.as_ref().map(|v| v.engine.report()),
            trace: st.trace.clone().unwrap_or_default(),
            net: net_report,
        }
    }

    // ---- insertion (TaskSink via StepSink) -----------------------------

    fn declare(&self, key: DataKey, bytes: usize, home_node: usize) {
        assert!(home_node < self.num_nodes);
        let mut st = self.lock();
        match st.home_of.get(&key) {
            Some(&host) => {
                // Redeclaration updates the declaration (size *and* home,
                // mirroring GraphBuilder::declare's overwrite) but keeps
                // the hazard state. The directory entry itself stays on
                // the node that first hosted it — `home_of` is an internal
                // locator; `dir.home` is what access snapshots and
                // initial-fetch sources read.
                let dir = st.nodes[host]
                    .directory
                    .get_mut(&key)
                    .expect("declared datum has a directory entry");
                dir.bytes = bytes;
                dir.home = home_node;
            }
            None => {
                st.home_of.insert(key, home_node);
                st.nodes[home_node].directory.insert(
                    key,
                    DatumDir {
                        bytes,
                        home: home_node,
                        class: DataClass::Payload,
                        hazard: DirCell::default(),
                        exec: None,
                        initial_fetched: HashSet::new(),
                    },
                );
            }
        }
    }

    fn declare_class(&self, key: DataKey, class: DataClass) {
        let mut st = self.lock();
        let home = *st
            .home_of
            .get(&key)
            .unwrap_or_else(|| panic!("classifying undeclared data {key:?}"));
        st.nodes[home]
            .directory
            .get_mut(&key)
            .expect("declared datum has a directory entry")
            .class = class;
    }

    fn insert_task(
        &self,
        step: usize,
        name: String,
        node: usize,
        accesses: &[Access],
        kernel: Kernel,
    ) -> TaskId {
        assert!(node < self.num_nodes, "task placed on unknown node");
        assert_ne!(
            step, NO_STEP,
            "tasks may only be inserted into an open step"
        );
        let mut st = self.lock();
        let id = st.next_id;
        st.next_id += 1;

        // Pass 1: consult the per-datum directories (each homed on one
        // node's sub-window) for hazard predecessors and the critical-path
        // depth over *all* of them (completed predecessors contribute
        // depth but no edge) — the shared [`crate::hazard`] core, the same
        // rules as GraphBuilder::push_boxed.
        let mut preds: Vec<TaskId> = Vec::new();
        let mut max_pred_cp = 0u64;
        let mut costed: Vec<CostedAccess> = Vec::with_capacity(accesses.len());
        // Data-flow inputs for Read/Mut: (key, declared bytes/class at
        // this insertion, writer-at-insertion).
        let mut flows: Vec<(DataKey, usize, DataClass, Option<Writer<WriterMeta>>)> = Vec::new();
        // Net mode: the decision datum this task writes, if any (the
        // driver waits for its applied value, not just task completion).
        let mut wrote_decision: Option<DataKey> = None;
        for acc in accesses {
            let key = acc.key();
            let home = *st
                .home_of
                .get(&key)
                .unwrap_or_else(|| panic!("access to undeclared data {key:?} by task '{name}'"));
            let dir = st.nodes[home]
                .directory
                .get(&key)
                .expect("declared datum has a directory entry");
            costed.push(CostedAccess {
                access: *acc,
                bytes: dir.bytes,
                home: dir.home,
            });
            dir.hazard
                .fold_preds(matches!(acc, Access::Mut(_)), &mut preds, &mut max_pred_cp);
            if !matches!(acc, Access::Control(_)) {
                flows.push((key, dir.bytes, dir.class, dir.hazard.writer));
            }
            if matches!(acc, Access::Mut(_)) && dir.class == DataClass::Decision {
                wrote_decision = Some(key);
            }
        }
        let cp = 1 + max_pred_cp;

        // Net mode: tasks placed on other ranks run as no-op stubs here —
        // their hazard edges and message bookkeeping are identical (that
        // is what keeps every rank's MsgStats equal to the simulated
        // run's), but the actual kernel executes only on the owning rank.
        let net_rank = st.net.as_ref().map(|n| n.rank);
        let kernel = match net_rank {
            Some(rank) if node != rank => Box::new(TaskResult::control) as Kernel,
            _ => kernel,
        };

        // Steal-at-insert (opt-in): re-decide the execution node against
        // the online finish oracle before any placement-dependent state
        // is written. The oracle lags insertion — the vtime engine prices
        // *completed* work — so this is a heuristic re-homing, not an
        // exact one: an idle node strictly beating the owner (even after
        // shipping every input it lacks) takes the task, outputs then
        // live where it ran. Kernel numerics are placement-independent
        // (same thread pool, hazard-serialized), so only message routing
        // and the virtual timeline change.
        let node = if st.steal {
            let vt = st.vtime.as_ref().expect("steal requires a platform");
            // Duration proxy: insertion time precedes execution, so the
            // true flops are unknown; a GEMM-shaped O(b^1.5) guess from
            // the largest input tile ranks nodes by the same speed and
            // transfer terms the exact estimate would.
            let max_in = costed.iter().map(|ca| ca.bytes).max().unwrap_or(0);
            let proxy =
                TaskResult::executed(2.0 * ((max_in / 8) as f64).powf(1.5), CostClass::Gemm);
            let (chosen, owner_finish, best) = vt.engine.steal_target(node, &costed, &proxy, &[]);
            if chosen != node {
                st.steals += 1;
                st.steal_win.observe(owner_finish - best);
            } else {
                st.steal_kept += 1;
            }
            chosen
        } else {
            node
        };

        // Data-flow transfers, resolved against the *pre-insertion*
        // directory state (a Mut below overwrites the hazard writer).
        // An input whose hazard writer is still live is *owed*: the
        // producer may yet execute (it sends at completion) or discard
        // itself (the consumer then fetches the previous executed
        // version). Anything else resolves against the last executed
        // version right away. Every path is cached once per (version,
        // destination node) — identical to the virtual-time scoreboard.
        //
        // Net mode adds arrival gating on top: a *local* task whose input
        // version originates on another rank gains one extra predecessor
        // per such input, resolved when the matching frame arrives. The
        // resolved (key, producer) pair is deterministic across ranks —
        // it is a pure function of planning-order directory state.
        let mut net_needs: Vec<(DataKey, Option<TaskId>)> = Vec::new();
        for &(key, bytes, class, writer) in &flows {
            if bytes == 0 {
                continue;
            }
            if net_rank == Some(node) {
                let (producer, src) = match writer {
                    Some(w) if w.meta.done.is_none() => (Some(w.id), w.meta.node),
                    _ => {
                        let host = st.home_of[&key];
                        let dir = st.nodes[host].directory.get(&key).expect("declared");
                        match &dir.exec {
                            Some(v) => (Some(v.id), v.node),
                            None => (None, dir.home),
                        }
                    }
                };
                if src != node {
                    net_needs.push((key, producer));
                }
            }
            match writer {
                Some(w) if w.meta.done.is_none() => {
                    // Producer live (completion cannot interleave: the
                    // lock is held for the whole insertion). Register the
                    // owed transfer even when producer and consumer share
                    // a node — a later discard reroutes it to an executed
                    // version that may live elsewhere.
                    let pt = st.nodes[w.meta.node]
                        .live
                        .get_mut(&w.id)
                        .expect("undone writer is live");
                    if !pt
                        .pending_sends
                        .iter()
                        .any(|&(k2, d, _, _)| k2 == key && d == node)
                    {
                        pt.pending_sends.push((key, node, bytes, class));
                    }
                }
                _ => self.resolve_transfer(&mut st, key, node, bytes, class),
            }
        }

        // Pass 2: update the directories in access order.
        for acc in accesses {
            let key = acc.key();
            let home = st.home_of[&key];
            let dir = st.nodes[home]
                .directory
                .get_mut(&key)
                .expect("declared datum has a directory entry");
            match acc {
                Access::Read(_) => dir.hazard.note_read(id, cp),
                Access::Control(_) => {}
                Access::Mut(_) => dir
                    .hazard
                    .note_write(id, cp, WriterMeta { node, done: None }),
            }
        }

        // Pass 3: wire precedence. Only edges to still-live tasks count
        // toward the countdown; same-node edges stay inside the
        // sub-window, cross-node edges are released by message on the
        // predecessor's completion.
        let live = &st.live_nodes;
        crate::hazard::finalize_preds(&mut preds, id, |p| live.contains_key(&p));
        let mut preds_remaining = preds.len();
        for &p in &preds {
            let pnode = st.live_nodes[&p];
            let pt = st.nodes[pnode].live.get_mut(&p).expect("retained pred");
            if pnode == node {
                pt.local_succs.push(id);
            } else {
                pt.remote_releases.push((id, node));
            }
        }

        // Net mode: gate on not-yet-arrived remote inputs (one extra
        // predecessor each) and index decision writers for the driver.
        if let Some(net) = &mut st.net {
            for &(key, producer) in &net_needs {
                if !net.arrivals.contains_key(&(key, producer)) {
                    net.waiters
                        .entry((key, producer))
                        .or_default()
                        .push((id, node));
                    preds_remaining += 1;
                }
            }
            if let Some(key) = wrote_decision {
                net.pending_decisions.insert(id, (key, node == net.rank));
            }
        }

        st.nodes[node].live.insert(
            id,
            LiveTask {
                name,
                step,
                cp,
                preds_remaining,
                local_succs: Vec::new(),
                remote_releases: Vec::new(),
                pending_sends: Vec::new(),
                accesses: costed,
                net_needs,
                kernel: Some(kernel),
            },
        );
        st.live_nodes.insert(id, node);
        st.tasks_planned += 1;
        st.ledger.on_planned(step, node);
        let live_now = st.live_nodes.len();
        st.peak_live_tasks = st.peak_live_tasks.max(live_now);
        let ready_now = preds_remaining == 0;
        if ready_now {
            st.nodes[node].ready.push(cp, id, node);
        }
        let failed = net_failed(&st);
        drop(st);
        if ready_now {
            self.work_cv.notify_one();
        }
        if failed {
            // A wire send inside this insertion failed: wake everything so
            // blocked waits observe the sticky error.
            self.work_cv.notify_all();
            self.plan_cv.notify_all();
            self.net_cv.notify_all();
        }
        id
    }

    /// Move `key`'s payload to `dest`: from its last executed version, or
    /// from its home node if it was never (successfully) written — in
    /// either case at most once per (version, destination). No-ops when
    /// `dest` already holds the payload.
    fn resolve_transfer(
        &self,
        st: &mut WindowState,
        key: DataKey,
        dest: usize,
        bytes: usize,
        class: DataClass,
    ) {
        let host = st.home_of[&key];
        let dir = st.nodes[host].directory.get_mut(&key).expect("declared");
        let (msg, producer) = match &mut dir.exec {
            Some(v) => {
                if v.node == dest || !v.sent.insert(dest) {
                    return;
                }
                (
                    flow_msg(key, class, Some(v.id), v.node, dest, bytes),
                    Some(v.id),
                )
            }
            None => {
                if dir.home == dest || !dir.initial_fetched.insert(dest) {
                    return;
                }
                (flow_msg(key, class, None, dir.home, dest, bytes), None)
            }
        };
        st.route(msg, producer);
    }

    // ---- execution side ------------------------------------------------

    /// Worker loop: pop the globally deepest ready task across the
    /// per-node sub-windows, run it outside the lock, record the
    /// completion. Returns when planning is done and the window has
    /// drained.
    pub(crate) fn worker_loop(&self, worker: usize) {
        loop {
            let (id, node, kernel) = {
                let mut st = self.lock();
                'wait: loop {
                    let mut best: Option<(usize, super::priority::Ready)> = None;
                    for (n, nw) in st.nodes.iter().enumerate() {
                        if let Some(r) = nw.ready.peek() {
                            if best.is_none_or(|(_, b)| *r > b) {
                                best = Some((n, *r));
                            }
                        }
                    }
                    if let Some((n, _)) = best {
                        let r = st.nodes[n].ready.pop().expect("peeked entry");
                        let t = st.nodes[n]
                            .live
                            .get_mut(&r.id)
                            .expect("ready task not live");
                        let kernel = t
                            .kernel
                            .take()
                            .unwrap_or_else(|| panic!("task '{}' executed twice", t.name));
                        let needs = std::mem::take(&mut t.net_needs);
                        if !needs.is_empty() {
                            // All gating arrivals are in (they were extra
                            // predecessors); decode them into the local
                            // mirror now, under the lock — every ready
                            // task touching the same datum needs the same
                            // version (hazards serialize writers), so the
                            // write cannot race a reader.
                            Self::apply_net_needs(&mut st, &needs);
                        }
                        break 'wait (r.id, n, kernel);
                    }
                    if (st.planning_done && st.live_nodes.is_empty()) || net_failed(&st) {
                        return;
                    }
                    st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            let t0 = self.epoch.elapsed().as_secs_f64();
            let result = kernel();
            let t1 = self.epoch.elapsed().as_secs_f64();
            self.complete(id, node, result, worker, t0, t1);
        }
    }

    /// Decode a popped task's arrived inputs into the local mirror.
    /// Idempotent per `(datum, producer)`: the first consumer applies the
    /// bytes, later consumers find the slot already `Applied`.
    fn apply_net_needs(st: &mut WindowState, needs: &[(DataKey, Option<TaskId>)]) {
        let Some(net) = &mut st.net else { return };
        for &(key, producer) in needs {
            let bytes = match net.arrivals.get_mut(&(key, producer)) {
                Some(slot @ Arrival::Bytes(_)) => {
                    let Arrival::Bytes(b) = std::mem::replace(slot, Arrival::Applied) else {
                        unreachable!()
                    };
                    Some(b)
                }
                Some(Arrival::Applied) => None,
                None => panic!("task ready before its input {key:?} arrived"),
            };
            if let Some(b) = bytes {
                net.store_payload(key, &b);
            }
        }
    }

    fn complete(
        &self,
        id: TaskId,
        node: usize,
        result: TaskResult,
        worker: usize,
        start_s: f64,
        end_s: f64,
    ) {
        let mut st = self.lock();
        let mut task = st.nodes[node]
            .live
            .remove(&id)
            .unwrap_or_else(|| panic!("task {id} completed twice"));
        st.live_nodes.remove(&id);
        st.tally.record(&result);
        if let Some(c) = &mut st.calib {
            c.record(task.step, node, &result);
        }
        // Net mode tolerates no discarded *local* tasks: a runtime discard
        // means numerical breakdown rerouting, which would desynchronize
        // the ranks' identically-planned message streams. (Remote stubs
        // always report executed.)
        if !result.executed {
            if let Some(net) = &mut st.net {
                net.fail(TransportError::Protocol(format!(
                    "task '{}' discarded itself; breakdown rerouting is not \
                     supported over a real transport",
                    task.name
                )));
            }
        }

        if st.probe.is_enabled() {
            if result.executed {
                if let Some(ks) = &mut st.kernel_stats {
                    let entry = &mut ks[result.class.index()];
                    entry.0 += result.flops;
                    entry.1.observe((end_s - start_s).max(0.0));
                }
            }
            st.live_tick += 1;
            if st.live_tick.is_multiple_of(64) {
                let live = st.live_nodes.len() as f64;
                st.probe
                    .gauge(metric::STREAM_LIVE_TASKS, Label::None, end_s, live);
            }
        }

        if result.executed {
            if let Some(events) = &mut st.trace {
                events.push(TraceEvent {
                    name: task.name.clone(),
                    node,
                    worker,
                    step: Some(task.step),
                    start: start_s,
                    end: end_s,
                });
            }
        }

        // Mark written data as done; an executed writer becomes the
        // datum's current *executed version* (WAW hazards serialize
        // conflicting writers, so executed completions promote in
        // insertion order) with a fresh transfer cache.
        let mut sync_decisions: Vec<DataKey> = Vec::new();
        for ca in &task.accesses {
            if matches!(ca.access, Access::Mut(_)) {
                let key = ca.access.key();
                let host = st.home_of[&key];
                let dir = st.nodes[host].directory.get_mut(&key).expect("declared");
                if let Some(w) = &mut dir.hazard.writer {
                    if w.id == id {
                        w.meta.done = Some(result.executed);
                    }
                }
                if result.executed {
                    dir.exec = Some(ExecVersion {
                        id,
                        node,
                        sent: HashSet::new(),
                    });
                    if dir.class == DataClass::Decision {
                        sync_decisions.push(key);
                    }
                }
            }
        }

        // Net mode: a decision computed on this rank is broadcast eagerly
        // to *every* peer as a control frame — the driver on each rank
        // blocks on it before planning the rest of the step, and the
        // modeled DecisionMsg (sent above/below through `route` only to
        // branch-task hosts) cannot cover ranks whose share of the chosen
        // branch is empty.
        if let Some(net) = &mut st.net {
            if node == net.rank && result.executed {
                for key in sync_decisions {
                    let payload = net.load_payload(key);
                    for peer in (0..net.nranks()).filter(|&p| p != node) {
                        net.ctrl_sent += 1;
                        net.payload_bytes_sent += payload.len() as u64;
                        let frame = Frame::Sync {
                            key,
                            producer: id,
                            payload: payload.clone(),
                        };
                        if let Err(e) = net.transport.send(peer, &frame) {
                            net.fail(e);
                        }
                    }
                }
            }
        }

        // Flush the owed transfers: one DataMsg (or DecisionMsg) per
        // (datum, destination node). A discarded task produced nothing —
        // its consumers fetch the previous executed version (or the
        // initial tile) instead, wherever that lives.
        if result.executed {
            for &(key, dest, bytes, class) in &task.pending_sends {
                if dest == node {
                    continue;
                }
                let host = st.home_of[&key];
                let dir = st.nodes[host].directory.get_mut(&key).expect("declared");
                let v = dir.exec.as_mut().expect("executed writer was promoted");
                if v.sent.insert(dest) {
                    let msg = flow_msg(key, class, Some(id), node, dest, bytes);
                    st.route(msg, Some(id));
                }
            }
        } else {
            for &(key, dest, bytes, class) in &task.pending_sends {
                self.resolve_transfer(&mut st, key, dest, bytes, class);
            }
        }

        // Feed virtual time in insertion order: buffer this completion
        // and submit the contiguous prefix (the policy engine schedules
        // at its own pace within its lookahead bound).
        if let Some(v) = &mut st.vtime {
            // Move the accesses out — the record is being reclaimed and
            // nothing below reads them.
            v.pending.insert(
                id,
                (node, std::mem::take(&mut task.accesses), result, task.step),
            );
            while let Some((n, accs, r, step)) = v.pending.remove(&v.next) {
                v.engine.submit_tagged(n, &accs, r, Some(step));
                v.next += 1;
            }
        }

        // Release successors: local ones directly, remote ones by
        // delivery into their node's sub-window.
        let mut newly_ready = 0usize;
        let release = |st: &mut WindowState, s: TaskId, snode: usize| {
            let succ = st.nodes[snode]
                .live
                .get_mut(&s)
                .expect("successor completed before predecessor");
            debug_assert!(succ.preds_remaining >= 1, "dependency underflow");
            succ.preds_remaining -= 1;
            if succ.preds_remaining == 0 {
                let cp = succ.cp;
                st.nodes[snode].ready.push(cp, s, snode);
                1
            } else {
                0
            }
        };
        for s in task.local_succs {
            newly_ready += release(&mut st, s, node);
        }
        for (s, snode) in task.remote_releases {
            newly_ready += release(&mut st, s, snode);
        }

        let ev = st.ledger.on_completed(task.step, node);
        let reports: Vec<usize> = ev.node_drained.into_iter().collect();
        st.on_step_events(&reports, ev.retired, task.step, end_s);

        let drained = st.planning_done && st.live_nodes.is_empty();
        let has_net = st.net.is_some();
        let failed = net_failed(&st);
        drop(st);
        // One wake per newly runnable task (workers re-check the queues
        // under the lock before waiting, so a wake with no waiter is not
        // lost work); the drain wake must reach *every* worker so they
        // can exit.
        for _ in 0..newly_ready {
            self.work_cv.notify_one();
        }
        if drained || failed {
            self.work_cv.notify_all();
        }
        // Capacity may have opened, an awaited decision may have landed, or
        // the graph may have drained — all planner-side conditions.
        self.plan_cv.notify_all();
        if has_net {
            self.net_cv.notify_all();
        }
    }

    // ---- real-transport side (execute_net) -----------------------------

    /// Deliver one received wire frame into the window. Called by the
    /// driver's receiver thread; returns [`FramePump::Stop`] once the
    /// rank's shutdown frame lands (or an abort is detected).
    pub(crate) fn on_frame(&self, from: usize, frame: Frame) -> FramePump {
        let mut st = self.lock();
        if st.net.is_none() {
            return FramePump::Stop;
        }
        let mut newly_ready = 0usize;
        let mut pump = FramePump::Continue;
        match frame {
            Frame::Hello { .. } => {}
            Frame::Data {
                key,
                producer,
                from: src,
                to,
                class,
                modeled_bytes,
                payload,
            } => {
                let net = st.net.as_mut().expect("checked above");
                let msg = flow_msg(
                    key,
                    class,
                    producer,
                    src as usize,
                    to as usize,
                    modeled_bytes as usize,
                );
                net.wire_recv
                    .entry((src as usize, to as usize))
                    .or_default()
                    .record(&msg);
                net.payload_bytes_recv += payload.len() as u64;
                newly_ready = Self::net_arrival(&mut st, key, producer, payload);
            }
            Frame::Sync {
                key,
                producer,
                payload,
            } => {
                let net = st.net.as_mut().expect("checked above");
                net.ctrl_recv += 1;
                net.payload_bytes_recv += payload.len() as u64;
                newly_ready = Self::net_arrival(&mut st, key, Some(producer), payload);
            }
            Frame::Retire { step, node } => {
                let net = st.net.as_mut().expect("checked above");
                let msg = Msg::Retire(RetireMsg {
                    step: step as usize,
                    node: node as usize,
                });
                net.wire_recv
                    .entry((node as usize, 0))
                    .or_default()
                    .record(&msg);
            }
            Frame::Result { key, payload } => {
                // Rank 0 collecting the factored matrix: by the time any
                // Result arrives this rank is drained (per-link FIFO puts
                // it after the peer's Done, which follows our own drain),
                // so the store write cannot race a kernel.
                let net = st.net.as_mut().expect("checked above");
                net.ctrl_recv += 1;
                net.payload_bytes_recv += payload.len() as u64;
                net.store_payload(key, &payload);
            }
            Frame::Done => {
                let net = st.net.as_mut().expect("checked above");
                net.ctrl_recv += 1;
                net.dones.insert(from);
            }
            Frame::Fin => {
                let net = st.net.as_mut().expect("checked above");
                net.ctrl_recv += 1;
                net.fins.insert(from);
            }
            Frame::Shutdown => {
                // Legitimate only after this rank sent its Fin (it is
                // fully drained and parked in `net_finish`); mid-run it is
                // a peer's abort broadcast.
                let premature = !st.planning_done || !st.live_nodes.is_empty();
                let net = st.net.as_mut().expect("checked above");
                net.ctrl_recv += 1;
                net.shutdown_seen = true;
                if premature {
                    net.fail(TransportError::PeerLost { peer: from });
                }
                pump = FramePump::Stop;
            }
        }
        let failed = net_failed(&st);
        drop(st);
        for _ in 0..newly_ready {
            self.work_cv.notify_one();
        }
        if failed {
            self.work_cv.notify_all();
            self.plan_cv.notify_all();
        }
        self.net_cv.notify_all();
        pump
    }

    /// Record one payload arrival and release the tasks gated on it.
    /// Duplicate deliveries (a Sync broadcast racing the modeled
    /// DecisionMsg for the same version) are ignored: first one wins.
    fn net_arrival(
        st: &mut WindowState,
        key: DataKey,
        producer: Option<TaskId>,
        payload: Vec<u8>,
    ) -> usize {
        use std::collections::hash_map::Entry;
        let net = st.net.as_mut().expect("net mode");
        match net.arrivals.entry((key, producer)) {
            Entry::Occupied(_) => return 0,
            Entry::Vacant(slot) => {
                slot.insert(Arrival::Bytes(payload));
            }
        }
        let waiters = net.waiters.remove(&(key, producer)).unwrap_or_default();
        let mut newly_ready = 0;
        for (id, node) in waiters {
            let t = st.nodes[node].live.get_mut(&id).expect("waiter is live");
            debug_assert!(t.preds_remaining >= 1, "arrival underflow");
            t.preds_remaining -= 1;
            if t.preds_remaining == 0 {
                let cp = t.cp;
                st.nodes[node].ready.push(cp, id, node);
                newly_ready += 1;
            }
        }
        newly_ready
    }

    /// Whether a receiver-side disconnect is the normal staggered teardown
    /// rather than a failure: once this rank's protocol obligations are
    /// discharged (`Fin` sent / `Shutdown` broadcast), peers that received
    /// their `Shutdown` first close their endpoints while we may still be
    /// waiting on rank 0's link. Losing rank 0 itself is never benign — a
    /// parked peer would wait for its `Shutdown` forever.
    pub(crate) fn net_disconnect_benign(&self, e: &TransportError) -> bool {
        let st = self.lock();
        let Some(net) = st.net.as_ref() else {
            return false;
        };
        net.complete && matches!(e, TransportError::PeerLost { peer } if *peer != 0)
    }

    /// Propagate a receiver-side transport failure into the window and
    /// wake every blocked thread.
    pub(crate) fn net_fail(&self, e: TransportError) {
        let mut st = self.lock();
        if let Some(net) = st.net.as_mut() {
            net.fail(e);
        }
        drop(st);
        self.work_cv.notify_all();
        self.plan_cv.notify_all();
        self.net_cv.notify_all();
    }

    /// The sticky net error, if any.
    pub(crate) fn net_check(&self) -> Result<(), TransportError> {
        match self.lock().net.as_ref().and_then(|n| n.error.clone()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// After [`StreamWindow::wait_for_task`] on a decision task: block
    /// until the decision *value* is in the local mirror. A locally
    /// computed decision is already there; a remote one is applied from
    /// its Sync/DecisionMsg frame the moment it arrives.
    pub(crate) fn net_wait_decision(&self, id: TaskId) -> Result<(), TransportError> {
        let mut st = self.lock();
        let Some(net) = st.net.as_ref() else {
            return Ok(());
        };
        // `wait_for_task` also returns when the run failed; a decision task
        // of this rank may then never have run, so there is no value to plan
        // on even when it is local.
        if let Some(e) = &net.error {
            return Err(e.clone());
        }
        let Some(&(key, local)) = net.pending_decisions.get(&id) else {
            return Ok(());
        };
        if local {
            return Ok(());
        }
        loop {
            let net = st.net.as_mut().expect("net mode");
            if let Some(e) = &net.error {
                return Err(e.clone());
            }
            let arrived = match net.arrivals.get_mut(&(key, Some(id))) {
                Some(slot @ Arrival::Bytes(_)) => {
                    let Arrival::Bytes(b) = std::mem::replace(slot, Arrival::Applied) else {
                        unreachable!()
                    };
                    Some(Some(b))
                }
                Some(Arrival::Applied) => Some(None),
                None => None,
            };
            if let Some(bytes) = arrived {
                if let Some(b) = bytes {
                    net.store_payload(key, &b);
                }
                return Ok(());
            }
            st = self.net_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until `cond` holds on the net state (or the run failed).
    fn net_wait(&self, cond: impl Fn(&NetState) -> bool) -> Result<(), TransportError> {
        let mut st = self.lock();
        loop {
            let net = st.net.as_ref().expect("net mode");
            if let Some(e) = &net.error {
                return Err(e.clone());
            }
            if cond(net) {
                return Ok(());
            }
            st = self.net_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// End-of-run protocol, called after [`StreamWindow::wait_drained`]:
    ///
    /// 1. broadcast `Done` (a fence: per-link FIFO means every protocol
    ///    frame this rank sent precedes it);
    /// 2. wait for all peers' `Done`s — now every inbound protocol frame
    ///    has been counted — and reconcile wire counters against the
    ///    modeled per-link tallies;
    /// 3. ranks != 0 ship every datum whose final version they own as
    ///    `Result` frames, send `Fin`, and park until `Shutdown`; rank 0
    ///    waits for all `Fin`s (its mirror now holds the full factored
    ///    matrix) and broadcasts `Shutdown`.
    pub(crate) fn net_finish(&self) -> Result<(), TransportError> {
        let (rank, nranks) = {
            let mut st = self.lock();
            let Some(net) = st.net.as_mut() else {
                return Ok(());
            };
            let (rank, nranks) = (net.rank, net.nranks());
            for peer in (0..nranks).filter(|&p| p != rank) {
                net.ctrl_sent += 1;
                if let Err(e) = net.transport.send(peer, &Frame::Done) {
                    net.fail(e);
                }
            }
            (rank, nranks)
        };
        self.net_wait(|net| net.dones.len() == nranks - 1)?;
        self.net_reconcile()?;
        if rank == 0 {
            self.net_wait(|net| net.fins.len() == nranks - 1)?;
            let mut st = self.lock();
            let net = st.net.as_mut().expect("net mode");
            for peer in 1..nranks {
                net.ctrl_sent += 1;
                if let Err(e) = net.transport.send(peer, &Frame::Shutdown) {
                    net.fail(e);
                }
            }
            net.complete = true;
            if let Some(e) = &net.error {
                return Err(e.clone());
            }
        } else {
            self.net_send_results()?;
            self.net_wait(|net| net.shutdown_seen)?;
        }
        Ok(())
    }

    /// Cross-check this rank's wire traffic against the modeled protocol:
    /// on every link it touches, the frames actually moved must equal the
    /// messages the (identically planned) protocol recorded — the sent
    /// side by construction, the received side across a real wire.
    fn net_reconcile(&self) -> Result<(), TransportError> {
        let mut st = self.lock();
        let st = &mut *st;
        let Some(net) = st.net.as_mut() else {
            return Ok(());
        };
        let rank = net.rank;
        let mut mismatch: Option<String> = None;
        for (&(src, dst), msgs) in &st.link_msgs {
            let (side, wire) = if src == rank {
                ("sent", net.wire_sent.get(&(src, dst)))
            } else if dst == rank {
                ("received", net.wire_recv.get(&(src, dst)))
            } else {
                continue;
            };
            let wire = wire.copied().unwrap_or_default();
            if wire != *msgs {
                mismatch = Some(format!(
                    "link ({src},{dst}) {side}: wire {wire:?} != protocol {msgs:?}"
                ));
                break;
            }
        }
        if mismatch.is_none() {
            let stray = net
                .wire_sent
                .iter()
                .filter(|(&(s, _), _)| s == rank)
                .chain(net.wire_recv.iter().filter(|(&(_, d), _)| d == rank))
                .find(|(l, _)| !st.link_msgs.contains_key(l));
            if let Some((&(src, dst), wire)) = stray {
                mismatch = Some(format!(
                    "link ({src},{dst}): wire traffic {wire:?} on a link the \
                     protocol never used"
                ));
            }
        }
        if let Some(m) = mismatch {
            let e = TransportError::Protocol(format!(
                "rank {rank} wire/protocol reconciliation failed: {m}"
            ));
            net.fail(e.clone());
            return Err(e);
        }
        Ok(())
    }

    /// Ship every datum whose *final executed version* lives on this rank
    /// to rank 0. Exactly one rank owns each written datum's final
    /// version, so rank 0's mirror ends bitwise-complete; data a kernel
    /// consumed destructively (`load` returns `None`) is skipped — its
    /// value is dead in the algorithm too.
    fn net_send_results(&self) -> Result<(), TransportError> {
        let mut st = self.lock();
        let st = &mut *st;
        let net = st.net.as_mut().expect("net mode");
        let rank = net.rank;
        let mut owned: Vec<DataKey> = st
            .nodes
            .iter()
            .flat_map(|nw| nw.directory.iter())
            .filter(|(_, dir)| dir.exec.as_ref().is_some_and(|v| v.node == rank))
            .map(|(&key, _)| key)
            .collect();
        owned.sort_unstable();
        for key in owned {
            let t0 = Instant::now();
            let Some(payload) = net.store.load(key) else {
                continue;
            };
            net.ser_hist.observe(t0.elapsed().as_secs_f64());
            net.ctrl_sent += 1;
            net.payload_bytes_sent += payload.len() as u64;
            if let Err(e) = net.transport.send(0, &Frame::Result { key, payload }) {
                net.fail(e);
                break;
            }
        }
        net.ctrl_sent += 1;
        if let Err(e) = net.transport.send(0, &Frame::Fin) {
            net.fail(e);
        }
        net.complete = true;
        match &net.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Best-effort abort broadcast: on a failed run, wake every peer out
    /// of its blocking waits so the whole set unwinds instead of hanging.
    pub(crate) fn net_abort(&self) {
        let mut st = self.lock();
        if let Some(net) = st.net.as_mut() {
            let (rank, nranks) = (net.rank, net.nranks());
            for peer in (0..nranks).filter(|&p| p != rank) {
                net.ctrl_sent += 1;
                let _ = net.transport.send(peer, &Frame::Shutdown);
            }
        }
    }
}

/// [`TaskSink`] adapter binding insertions to one step of a
/// [`StreamWindow`]. Created by the streaming driver for each planning
/// phase; `usize::MAX` (declaration phase) accepts `declare` only.
pub struct StepSink<'a> {
    win: &'a StreamWindow,
    step: usize,
}

impl<'a> StepSink<'a> {
    pub fn new(win: &'a StreamWindow, step: usize) -> Self {
        StepSink { win, step }
    }

    /// Declaration-phase sink (no step open; task insertion panics).
    pub fn declarations(win: &'a StreamWindow) -> Self {
        StepSink { win, step: NO_STEP }
    }
}

impl TaskSink for StepSink<'_> {
    fn num_nodes(&self) -> usize {
        self.win.num_nodes()
    }

    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        self.win.declare(key, bytes, home_node);
    }

    fn declare_class(&mut self, key: DataKey, class: DataClass) {
        self.win.declare_class(key, class);
    }

    fn push_task(
        &mut self,
        name: String,
        node: usize,
        accesses: &[Access],
        kernel: Kernel,
    ) -> TaskId {
        self.win
            .insert_task(self.step, name, node, accesses, kernel)
    }
}
