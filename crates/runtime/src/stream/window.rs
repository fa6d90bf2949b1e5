//! The streaming window: a live task graph that grows at the planning
//! edge and shrinks at the completion edge, distributed over virtual nodes
//! whose cross-node progress flows through explicit messages.
//!
//! [`StreamWindow`] accepts task insertions through the same [`TaskSink`]
//! surface as the batch [`crate::graph::GraphBuilder`] — one [`TaskOp`]
//! descriptor per task — and infers the same RAW / WAR / WAW hazard edges
//! from the op's accesses, with one twist: a dependency on a task that has
//! *already completed* is vacuous and produces no edge, so the hazard
//! metadata may keep referring to completed (reclaimed) tasks without
//! pinning their records. A task record is dropped the moment its kernel
//! finishes; completed reader entries are pruned — their depth folded into
//! a per-key scalar — at every step retirement, so the metadata stays
//! bounded by the declared data plus the live window, not by the
//! factorization's O(N³) task count. Retirement is also where a step's
//! memory ends: the directory entries of the data declared while the step
//! was being planned are dropped (only that step's tasks could name them),
//! and [`TaskOp::retire_step`] tells the run context to drop what the
//! step's task bodies kept — in net mode when this rank's view of the step
//! (its own tasks and the stubs of everyone else's) has drained.
//!
//! A live record is the op plus bookkeeping: no name (rendered from the op
//! when a trace event is recorded), no body (a worker calls the op's
//! interpreter against the run's context; an op placed on another rank is
//! never run here), no list of written data (re-derived from the op at
//! completion), and its successor and owed-transfer lists live in shared
//! arenas (`chain`) — so planning a task allocates nothing.
//!
//! The one thing a record keeps that an op may also say is its *step*.
//! The window retires what the driver opens and closes — the step a
//! [`StepSink`] is bound to — and a source is free to plan tasks with no
//! step of their own (`op.step()` is `None`) into one; so the record
//! stores the open step, and insertion refuses an op whose own step is a
//! different one. Ledger, recalibration tally and trace events read the
//! record.
//!
//! **Tables.** Task ids are issued sequentially and the live span is
//! bounded by the window, so live records sit in one id-indexed ring
//! (`TaskRing`: a deque whose base advances past completed ids — an id
//! below the base is a completed task, by construction). Every declared
//! datum gets a dense slot in a `Vec<DatumDir>`; an insertion resolves each
//! access's [`DataKey`] to its slot once and the record remembers the
//! slots it will need at completion. The per-task path is array indexing.
//!
//! **Distribution.** Each task is *placed* on a virtual node
//! (owner-computes) and each datum is *homed* on one. A dependency between
//! tasks on the same node is a direct edge; a cross-node dependency is
//! satisfied by a routed message ([`crate::comm::Msg`]): the producer's
//! completion delivers a [`crate::comm::DataMsg`] once per destination
//! node (consumers there share the cached copy — and late consumers of an
//! already-completed producer trigger the send at insertion), the hybrid's
//! criterion decision reaches remote branch tasks as a
//! [`crate::comm::DecisionMsg`] broadcast from the panel-owner node, and a
//! node whose share of a closed step drains reports it with a
//! [`crate::comm::RetireMsg`] so the planner can retire the step.
//! Ordering-only dependencies (WAR, control) release remote successors
//! without payload and are not counted as messages — matching the platform
//! simulator's cost model, which is what keeps the online virtual-time
//! report equal to a batch replay. The ready queue orders by
//! `(depth, insertion id)` only, so one queue pops exactly what a scan of
//! per-node queues would.
//!
//! **Locking and wake-ups.** All mutable state sits behind one mutex.
//! Two kinds of thread sleep, each on its own condition variable, and
//! each *registers under the mutex what it is waiting for* before it
//! sleeps:
//!
//! * **Workers** sleep on `work_cv`, only when the ready queue is empty
//!   and the run is neither over nor failed; `parked_workers` counts the
//!   sleepers nobody has notified yet. Whoever makes `r` tasks runnable —
//!   the planner inserting, a worker completing, the receiver delivering a
//!   frame — *claims* `min(r, parked_workers)` sleepers (decrementing the
//!   count) and notifies exactly that many; a completing worker first pops
//!   its own next task in the same critical section, so it announces one
//!   task fewer. The end of the run (planning done and drained) and a
//!   sticky failure claim and notify all of them.
//! * **The driver thread** (planner; in net mode also the end-of-run
//!   protocol) sleeps on `plan_cv` with `planner_wait` set to one of:
//!   capacity below a window, a task id completing, the graph draining,
//!   or — net mode — the next inbound frame. Every critical section ends
//!   in `WindowState::take_wakes`, which evaluates that registered
//!   condition and, if it now holds (or the run failed), clears the
//!   registration and notifies once. A completion that changes nothing
//!   the driver waits for costs no notify.
//!
//! No wake-up is lost: a waiter checks its condition and registers while
//! holding the mutex and releases it only inside `Condvar::wait`; every
//! mutation that can make a condition true happens under the same mutex
//! and is followed, before the mutex is released, by the evaluation of
//! the registered conditions. So either the waiter saw the new state, or
//! the mutator saw the registration. Notifications are sent after the
//! mutex is dropped; a claimed sleeper that wakes to find its task taken
//! (or a spurious wake) re-checks and re-registers. std's futex condvar
//! makes a notify a system call even with nobody waiting, which is why
//! the registrations exist: on one CPU an ungated notify per completion
//! is two context switches per task.

use std::any::Any;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::comm::{flow_msg, LinkMsgStats, Msg, MsgStats, RetireMsg};
use crate::exec::Tally;
use crate::graph::{
    Access, CostClass, CostedAccess, DataClass, DataKey, TaskId, TaskOp, TaskResult, TaskSink,
};
use crate::hash::IntMap;
use crate::hazard::{HazardCell, Writer};
use crate::net::{Frame, NetReport, PayloadStore, Transport, TransportError};
use crate::platform::Platform;
use crate::probe::{metric, Histogram, Label, Probe};
use crate::sched::SchedEngine;
use crate::sim::SimReport;
use crate::trace::TraceEvent;

use super::chain::{Chain, Chains};
use super::priority::ReadyQueue;
use super::retire::StepLedger;
use super::StreamOptions;

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
/// lives. This is what transfers resolve against — a runtime-discarded
/// writer produces nothing, so its consumers fetch the previous executed
/// version (or the initial tile), exactly like the virtual-time engine's
/// scoreboard. Which nodes already hold a copy is in
/// [`WindowState::holds`].
#[derive(Debug, Clone, Copy)]
struct ExecVersion {
    id: TaskId,
    node: usize,
}

/// The version stamp of a never-written datum, as fetched from its home.
const INITIAL: TaskId = TaskId::MAX;

/// Index of a declared datum in [`WindowState::data`].
type Slot = u32;

/// Per-datum directory entry: declaration metadata, hazard state, and the
/// last executed version.
#[derive(Debug)]
struct DatumDir {
    key: DataKey,
    /// The step the datum was declared in and is dropped with; [`NO_STEP`]
    /// for data declared before planning (they last the whole run).
    step: usize,
    bytes: usize,
    home: usize,
    class: DataClass,
    /// Hazard state: last writer (with routing metadata) + readers.
    hazard: DirCell,
    /// Last executed version (transfer source).
    exec: Option<ExecVersion>,
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
    arrivals: IntMap<ArrivalKey, Arrival>,
    /// Local tasks blocked on a not-yet-arrived input.
    waiters: IntMap<ArrivalKey, Vec<TaskId>>,
    /// Decision-writing tasks by id: `(decision datum, written locally)`.
    /// The driver consults this to await the *applied* decision (not just
    /// the stub's completion) before planning the rest of the step.
    pending_decisions: IntMap<TaskId, (DataKey, bool)>,
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
    /// deserialize histogram). A payload the store rejects — truncated,
    /// malformed, for a datum it does not hold — fails the run.
    fn store_payload(&mut self, key: DataKey, bytes: &[u8]) {
        let t0 = Instant::now();
        if let Err(e) = self.store.store(key, bytes) {
            self.fail(e);
        }
        self.de_hist.observe(t0.elapsed().as_secs_f64());
    }

    /// A payload frame arrived for `key`: fail the run unless the store
    /// has such a datum and its step is still to come or in flight
    /// (nothing would ever consume the frame, and the peer that sent it is
    /// not running this protocol).
    fn check_known(&mut self, key: DataKey, from: usize) {
        if !self.store.knows(key) {
            self.fail(TransportError::Protocol(format!(
                "rank {from} sent a payload for {key:?}, which is not a datum of this run \
                 (or belongs to a step that has retired)"
            )));
        }
    }

    /// Decode the arrived payload `(key, producer)` into the local mirror,
    /// once: the first caller applies the bytes, later ones find the slot
    /// already `Applied`. `false` when nothing has arrived yet.
    fn apply_arrival(&mut self, key: DataKey, producer: Option<TaskId>) -> bool {
        match self.arrivals.get_mut(&(key, producer)) {
            Some(slot @ Arrival::Bytes(_)) => {
                let Arrival::Bytes(b) = std::mem::replace(slot, Arrival::Applied) else {
                    unreachable!()
                };
                self.store_payload(key, &b);
                true
            }
            Some(Arrival::Applied) => true,
            None => false,
        }
    }
}

/// What the receiver pump should do after delivering a frame.
pub(crate) enum FramePump {
    Continue,
    Stop,
}

/// A data transfer a live producer owes one destination node at
/// completion, deduplicated per `(datum, destination)`.
#[derive(Clone, Copy)]
struct OwedSend {
    key: DataKey,
    slot: Slot,
    dest: usize,
    bytes: usize,
    class: DataClass,
}

/// A materialized, not-yet-completed task: its descriptor plus the
/// window's bookkeeping. What the descriptor determines — the name, the
/// data it writes — is derived from `op` when needed, not stored.
struct LiveTask<O> {
    op: O,
    /// Node the task is placed on.
    node: usize,
    /// The open step the task was inserted into — `op.step()` whenever the
    /// op has one (see the module header).
    step: usize,
    cp: u64,
    preds_remaining: usize,
    /// Live successors, released at completion (same-node ones directly,
    /// cross-node ones standing for a message delivery). A chain in
    /// [`WindowState::succ_links`].
    succs: Chain,
    /// Owed transfers, a chain in [`WindowState::send_links`].
    pending_sends: Chain,
    /// Declared accesses with datum metadata — the virtual-time engine's
    /// input, kept only while a platform is modeled.
    accesses: Vec<CostedAccess>,
    /// Net mode: inputs this task consumes from other ranks, each an
    /// extra predecessor resolved by frame arrival. Applied to the local
    /// mirror when the task is popped for execution.
    net_needs: Vec<ArrivalKey>,
    /// A net-mode *stub*: a task placed on another rank. Its hazard edges
    /// and message bookkeeping are mirrored here; its op is never run on
    /// this rank.
    stub: bool,
}

/// Live task records, indexed by id.
///
/// Ids are issued sequentially, so the record of task `id` sits at
/// `slots[id - base]`. Completion empties the slot; the base advances past
/// the leading run of empty slots, so an out-of-order completion holds the
/// base (and its slot) until every older task is done. An id below the
/// base therefore names a completed task and a dependency on it is
/// vacuous. The span `slots.len()` is bounded by the tasks of the live
/// window of steps.
struct TaskRing<O> {
    base: TaskId,
    slots: VecDeque<Option<LiveTask<O>>>,
    live: usize,
}

impl<O> Default for TaskRing<O> {
    fn default() -> Self {
        TaskRing {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }
}

impl<O> TaskRing<O> {
    /// The id the next [`TaskRing::push`] will issue.
    fn next_id(&self) -> TaskId {
        self.base + self.slots.len()
    }

    fn push(&mut self, task: LiveTask<O>) -> TaskId {
        let id = self.next_id();
        self.slots.push_back(Some(task));
        self.live += 1;
        id
    }

    fn get_mut(&mut self, id: TaskId) -> Option<&mut LiveTask<O>> {
        self.slots.get_mut(id.checked_sub(self.base)?)?.as_mut()
    }

    fn is_live(&self, id: TaskId) -> bool {
        id.checked_sub(self.base)
            .and_then(|i| self.slots.get(i))
            .is_some_and(Option::is_some)
    }

    /// Reclaim the record of `id` (`None` if it is not live).
    fn remove(&mut self, id: TaskId) -> Option<LiveTask<O>> {
        let task = self.slots.get_mut(id.checked_sub(self.base)?)?.take()?;
        self.live -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(task)
    }

    /// Number of live records.
    fn live(&self) -> usize {
        self.live
    }
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

/// What the driver thread is blocked on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlannerWait {
    /// Fewer than this many steps live.
    Capacity(usize),
    /// This task completed.
    Task(TaskId),
    /// No live task left.
    Drained,
    /// Net mode: any inbound frame (the waiter re-checks its own
    /// condition on the net state).
    Frame,
}

/// The notifications one critical section owes, sent once the lock is
/// released.
struct Wakes {
    /// Parked workers to notify (`usize::MAX`: all of them).
    workers: usize,
    planner: bool,
}

/// One data-flow input of the task being inserted: the datum's
/// declaration and last writer *before* the insertion.
type Flow = (Slot, DataKey, usize, DataClass, Option<Writer<WriterMeta>>);

/// Per-insertion work vectors, kept across insertions: with the records'
/// own lists in shared arenas ([`Chains`]), the planner's hot path
/// allocates nothing per task.
#[derive(Default)]
struct InsertScratch {
    accesses: Vec<Access>,
    slots: Vec<Slot>,
    preds: Vec<TaskId>,
    flows: Vec<Flow>,
}

pub(crate) struct WindowState<O> {
    /// Live task records (also issues the task ids).
    tasks: TaskRing<O>,
    /// Arenas of the records' successor and owed-transfer lists.
    succ_links: Chains<TaskId>,
    send_links: Chains<OwedSend>,
    /// Runnable tasks, deepest first.
    ready: ReadyQueue,
    /// Declared data, by slot; the live entries are the ones `slot_of`
    /// names.
    data: Vec<DatumDir>,
    /// Slots of dropped step data, reused by later declarations.
    free_slots: Vec<Slot>,
    /// The once-per-destination transfer cache: the version of the datum
    /// in `slot` that node `dest` holds a copy of, by `(slot, dest)` —
    /// [`INITIAL`] for the never-written datum fetched from its home.
    holds: IntMap<(Slot, usize), TaskId>,
    slot_of: IntMap<DataKey, Slot>,
    scratch: InsertScratch,
    /// Net mode: unblocked stubs awaiting their inline completion (drained
    /// before the critical section that unblocked them ends).
    stubs: Vec<TaskId>,
    pub(crate) ledger: StepLedger,
    planning_done: bool,
    /// What the driver thread sleeps on, if it sleeps.
    planner_wait: Option<PlannerWait>,
    /// Sleeping workers nobody has notified yet.
    parked_workers: usize,
    /// Tasks pushed on the ready queue in this critical section.
    newly_ready: usize,
    /// An inbound frame was delivered in this critical section.
    frame_event: bool,
    planner_wakeups: u64,
    worker_parks: u64,
    /// Payload of the first panic on a worker (or a marker when the
    /// planner itself unwound); sticky, fails the whole run.
    panic: Option<Box<dyn Any + Send>>,
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
    step_closed_at: IntMap<usize, f64>,
    /// Decimation counter for the live-task gauge.
    live_tick: u64,
    /// Real-transport state ([`crate::stream::execute_net`] only).
    net: Option<NetState>,
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
    /// Times the driver thread returned from a sleep on `plan_cv`.
    pub planner_wakeups: u64,
    /// Times a worker went to sleep on `work_cv`.
    pub worker_parks: u64,
}

impl<O: TaskOp> WindowState<O> {
    /// Has the run failed (a kernel or the planner panicked, or — net mode
    /// — a transport/protocol error)? Sticky; every blocking wait bails.
    fn failed(&self) -> bool {
        self.panic.is_some() || self.net.as_ref().is_some_and(|n| n.error.is_some())
    }

    /// The failure as the error net-mode callers return. A panic is
    /// re-raised by the driver, which discards this stand-in.
    fn failure(&self) -> Option<TransportError> {
        match self.net.as_ref().and_then(|n| n.error.clone()) {
            Some(e) => Some(e),
            None => self
                .panic
                .is_some()
                .then(|| TransportError::Protocol("a task panicked on this rank".into())),
        }
    }

    /// Workers have nothing left to wait for.
    fn workers_done(&self) -> bool {
        self.failed() || (self.planning_done && self.tasks.live() == 0)
    }

    fn satisfied(&self, wait: PlannerWait) -> bool {
        self.failed()
            || match wait {
                PlannerWait::Capacity(window) => self.ledger.live_steps() < window,
                PlannerWait::Task(id) => !self.tasks.is_live(id),
                PlannerWait::Drained => self.tasks.live() == 0,
                PlannerWait::Frame => self.frame_event,
            }
    }

    /// End of a critical section: claim the sleepers whose condition this
    /// section made true (module docs, "Locking and wake-ups").
    fn take_wakes(&mut self) -> Wakes {
        let workers = if self.parked_workers == 0 {
            0
        } else if self.workers_done() {
            self.parked_workers = 0;
            usize::MAX
        } else {
            let n = self.newly_ready.min(self.parked_workers);
            self.parked_workers -= n;
            n
        };
        self.newly_ready = 0;
        let planner = self.planner_wait.is_some_and(|w| self.satisfied(w));
        if planner {
            self.planner_wait = None;
        }
        self.frame_event = false;
        Wakes { workers, planner }
    }

    /// A task's last predecessor is gone: queue it for a worker — or, for
    /// a stub, for inline completion by the current thread.
    fn unblocked(&mut self, id: TaskId, cp: u64, node: usize, stub: bool) {
        if stub {
            self.stubs.push(id);
        } else {
            self.ready.push(cp, id, node);
            self.newly_ready += 1;
        }
    }

    /// Drop one predecessor of live task `id`.
    fn release(&mut self, id: TaskId) {
        let t = self
            .tasks
            .get_mut(id)
            .expect("successor completed before predecessor");
        debug_assert!(t.preds_remaining >= 1, "dependency underflow");
        t.preds_remaining -= 1;
        if t.preds_remaining == 0 {
            let (cp, node, stub) = (t.cp, t.node, t.stub);
            self.unblocked(id, cp, node, stub);
        }
    }

    /// Take the deepest ready task for execution. Its gating arrivals are
    /// all in (they were extra predecessors); decode them into the local
    /// mirror now, under the lock — every ready task touching the same
    /// datum needs the same version (hazards serialize writers), so the
    /// write cannot race a reader. `None` when there is nothing to run —
    /// or an arrival could not be decoded, which has failed the run.
    fn pop_ready(&mut self) -> Option<(TaskId, O)> {
        let r = self.ready.pop()?;
        // The popping worker runs this one itself: one task fewer to
        // announce to sleepers.
        self.newly_ready = self.newly_ready.saturating_sub(1);
        let t = self.tasks.get_mut(r.id).expect("ready task not live");
        let op = t.op;
        let needs = std::mem::take(&mut t.net_needs);
        if let Some(net) = &mut self.net {
            for (key, producer) in needs {
                assert!(
                    net.apply_arrival(key, producer),
                    "task ready before its input {key:?} arrived"
                );
            }
            if net.error.is_some() {
                return None;
            }
        }
        Some((r.id, op))
    }

    /// Step `step` retired: forget the data declared in it, and on every
    /// other datum drop the reader entries whose tasks have completed,
    /// folding their critical-path depth into the per-key scalar. Without
    /// the pruning, reads of data that is never written again (finalized
    /// panel columns) would accumulate hazard metadata proportional to the
    /// *total* task count, defeating the window's memory bound.
    fn prune_directories(&mut self, step: usize) {
        let nodes = self.ledger.num_nodes();
        let tasks = &self.tasks;
        for (slot, dir) in self.data.iter_mut().enumerate() {
            if dir.step != step {
                dir.hazard.readers.prune(|id| tasks.is_live(id));
                continue;
            }
            let slot = slot as Slot;
            self.slot_of.remove(&dir.key);
            for dest in 0..nodes {
                self.holds.remove(&(slot, dest));
            }
            dir.step = NO_STEP;
            dir.hazard = DirCell::default();
            dir.exec = None;
            self.free_slots.push(slot);
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
    fn on_step_events(
        &mut self,
        ctx: &O::Ctx,
        reports: &[usize],
        retired: bool,
        step: usize,
        now: f64,
    ) {
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
            self.prune_directories(step);
            O::retire_step(ctx, step);
        }
    }

    /// Move the payload of the datum in `slot` to `dest`: from its last
    /// executed version, or from its home node if it was never
    /// (successfully) written — in either case at most once per (version,
    /// destination). No-ops when `dest` already holds the payload.
    fn resolve_transfer(&mut self, slot: Slot, dest: usize, bytes: usize, class: DataClass) {
        let dir = &self.data[slot as usize];
        let key = dir.key;
        let (producer, src) = match dir.exec {
            Some(v) => (Some(v.id), v.node),
            None => (None, dir.home),
        };
        if src != dest && self.newly_held(slot, dest, producer.unwrap_or(INITIAL)) {
            self.route(flow_msg(key, class, producer, src, dest, bytes), producer);
        }
    }

    /// Note that `dest` now holds `version` of the datum in `slot`; `false`
    /// if it already did.
    fn newly_held(&mut self, slot: Slot, dest: usize, version: TaskId) -> bool {
        self.holds.insert((slot, dest), version) != Some(version)
    }

    /// Record the completion of live task `id`: reclaim its record, publish
    /// what it wrote, flush the transfers it owes, feed virtual time, and
    /// release its successors (onto the ready queue, or the stub list).
    fn complete_task(
        &mut self,
        ctx: &O::Ctx,
        id: TaskId,
        result: TaskResult,
        worker: usize,
        start_s: f64,
        end_s: f64,
    ) {
        let mut task = self
            .tasks
            .remove(id)
            .unwrap_or_else(|| panic!("task {id} completed twice"));
        let node = task.node;
        self.tally.record(&result);
        if let Some(c) = &mut self.calib {
            c.record(task.step, node, &result);
        }
        // Net mode tolerates no discarded *local* tasks: a runtime discard
        // means numerical breakdown rerouting, which would desynchronize
        // the ranks' identically-planned message streams. (Remote stubs
        // always report executed.)
        if !result.executed {
            if let Some(net) = &mut self.net {
                net.fail(TransportError::Protocol(format!(
                    "task '{}' discarded itself; breakdown rerouting is not \
                     supported over a real transport",
                    task.op.name(ctx)
                )));
            }
        }

        if self.probe.is_enabled() {
            if result.executed {
                if let Some(ks) = &mut self.kernel_stats {
                    let entry = &mut ks[result.class.index()];
                    entry.0 += result.flops;
                    entry.1.observe((end_s - start_s).max(0.0));
                }
            }
            self.live_tick += 1;
            if self.live_tick.is_multiple_of(64) {
                let live = self.tasks.live() as f64;
                self.probe
                    .gauge(metric::STREAM_LIVE_TASKS, Label::None, end_s, live);
            }
        }

        if result.executed {
            if let Some(events) = &mut self.trace {
                events.push(TraceEvent {
                    name: task.op.name(ctx),
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
        let (data, slot_of) = (&mut self.data, &self.slot_of);
        task.op.for_each_access(ctx, |acc| {
            let Access::Mut(key) = acc else { return };
            let dir = &mut data[slot_of[&key] as usize];
            if let Some(w) = &mut dir.hazard.writer {
                if w.id == id {
                    w.meta.done = Some(result.executed);
                }
            }
            if result.executed {
                dir.exec = Some(ExecVersion { id, node });
                if dir.class == DataClass::Decision {
                    sync_decisions.push(key);
                }
            }
        });

        // Net mode: a decision computed on this rank is broadcast eagerly
        // to *every* peer as a control frame — the driver on each rank
        // blocks on it before planning the rest of the step, and the
        // modeled DecisionMsg (sent through `route` only to branch-task
        // hosts) cannot cover ranks whose share of the chosen branch is
        // empty.
        if let Some(net) = &mut self.net {
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
        let mut at = task.pending_sends.head();
        while let Some((s, next)) = self.send_links.get(at) {
            at = next;
            if !result.executed {
                self.resolve_transfer(s.slot, s.dest, s.bytes, s.class);
            } else if s.dest != node && self.newly_held(s.slot, s.dest, id) {
                let msg = flow_msg(s.key, s.class, Some(id), node, s.dest, s.bytes);
                self.route(msg, Some(id));
            }
        }

        // Feed virtual time in insertion order: buffer this completion
        // and submit the contiguous prefix (the policy engine schedules
        // at its own pace within its lookahead bound).
        if let Some(v) = &mut self.vtime {
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

        let mut at = task.succs.head();
        while let Some((s, next)) = self.succ_links.get(at) {
            at = next;
            self.release(s);
        }
        self.succ_links.release(task.succs);
        self.send_links.release(task.pending_sends);

        let ev = self.ledger.on_completed(task.step, node);
        self.on_step_events(
            ctx,
            ev.node_drained.as_slice(),
            ev.retired,
            task.step,
            end_s,
        );
    }

    /// Record one payload arrival from rank `from` and release the tasks
    /// gated on it. Duplicate deliveries (a Sync broadcast racing the
    /// modeled DecisionMsg for the same version; a replayed frame) are
    /// ignored, whatever has become of the datum since: first one wins.
    /// Anything else must name a datum the store still has a place for.
    fn net_arrival(
        &mut self,
        key: DataKey,
        producer: Option<TaskId>,
        payload: Vec<u8>,
        from: usize,
    ) {
        let net = self.net.as_mut().expect("net mode");
        if net.arrivals.contains_key(&(key, producer)) {
            return;
        }
        net.check_known(key, from);
        net.arrivals
            .insert((key, producer), Arrival::Bytes(payload));
        for id in net.waiters.remove(&(key, producer)).unwrap_or_default() {
            self.release(id);
        }
    }
}

/// Shared streaming execution state (the live window + scheduler queue +
/// the online communication/virtual-time accounting), over the ops of one
/// run and the context they are interpreted against.
pub struct StreamWindow<O: TaskOp> {
    num_nodes: usize,
    ctx: Arc<O::Ctx>,
    state: Mutex<WindowState<O>>,
    /// Workers sleep here (module docs, "Locking and wake-ups").
    work_cv: Condvar,
    /// The driver thread sleeps here.
    plan_cv: Condvar,
    /// Wall-clock epoch for trace timestamps.
    epoch: Instant,
}

/// Sentinel step used while no step is open (declaration phase).
const NO_STEP: usize = usize::MAX;

impl<O: TaskOp> StreamWindow<O> {
    pub fn new(num_nodes: usize, ctx: Arc<O::Ctx>) -> Self {
        StreamWindow::with_options(num_nodes, ctx, &StreamOptions::fixed(1, 1))
    }

    /// A window configured by `opts` (the window policy and thread count
    /// are the driver's business, not the window's): it may drive the
    /// platform communication model online, record per-task trace events,
    /// and emit runtime metrics into an enabled probe.
    pub fn with_options(num_nodes: usize, ctx: Arc<O::Ctx>, opts: &StreamOptions) -> Self {
        let &StreamOptions {
            trace,
            scheduler,
            steal,
            recalibrate,
            ref platform,
            ref probe,
            ..
        } = opts;
        let platform = platform.as_ref();
        assert!(num_nodes >= 1);
        if let Some(p) = platform {
            if let Err(e) = p.require_nodes(num_nodes) {
                panic!("cannot stream against this platform: {e}");
            }
        }
        StreamWindow {
            num_nodes,
            ctx,
            state: Mutex::new(WindowState {
                tasks: TaskRing::default(),
                succ_links: Chains::default(),
                send_links: Chains::default(),
                ready: ReadyQueue::default(),
                data: Vec::new(),
                free_slots: Vec::new(),
                holds: IntMap::default(),
                slot_of: IntMap::default(),
                scratch: InsertScratch::default(),
                stubs: Vec::new(),
                ledger: StepLedger::new(num_nodes),
                planning_done: false,
                planner_wait: None,
                parked_workers: 0,
                newly_ready: 0,
                frame_event: false,
                planner_wakeups: 0,
                worker_parks: 0,
                panic: None,
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
                step_closed_at: IntMap::default(),
                live_tick: 0,
                net: None,
            }),
            work_cv: Condvar::new(),
            plan_cv: Condvar::new(),
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
        ctx: Arc<O::Ctx>,
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
        let opts = StreamOptions {
            trace,
            probe: probe.clone(),
            ..StreamOptions::fixed(1, 1)
        };
        let mut win = StreamWindow::with_options(num_nodes, ctx, &opts);
        win.state.get_mut().unwrap_or_else(|e| e.into_inner()).net = Some(NetState {
            rank,
            transport,
            store,
            arrivals: IntMap::default(),
            waiters: IntMap::default(),
            pending_decisions: IntMap::default(),
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

    fn lock(&self) -> MutexGuard<'_, WindowState<O>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn notify(&self, wakes: Wakes) {
        match wakes.workers {
            0 => {}
            usize::MAX => self.work_cv.notify_all(),
            n => (0..n).for_each(|_| self.work_cv.notify_one()),
        }
        if wakes.planner {
            self.plan_cv.notify_one();
        }
    }

    /// End a critical section: complete the stubs it unblocked, release
    /// the lock, then wake exactly the sleepers whose condition it made
    /// true. Every mutation of the state goes through here.
    fn finish(&self, mut st: MutexGuard<'_, WindowState<O>>, worker: usize) {
        self.drain_stubs(&mut st, worker);
        let wakes = st.take_wakes();
        drop(st);
        self.notify(wakes);
    }

    /// Net mode: complete the unblocked stubs on the current thread — a
    /// stub runs nothing here, so a ready-queue round trip through a
    /// worker would only add a lock hand-off per remote task. A stub never
    /// originates a wire frame (its `route`d messages start on its own
    /// rank), so the per-link wire/protocol reconciliation is unaffected
    /// by who completes it, and when.
    fn drain_stubs(&self, st: &mut WindowState<O>, worker: usize) {
        if st.stubs.is_empty() {
            return;
        }
        let now = if st.trace.is_some() || st.probe.is_enabled() {
            self.now()
        } else {
            0.0
        };
        while let Some(id) = st.stubs.pop() {
            st.complete_task(&self.ctx, id, TaskResult::control(), worker, now, now);
        }
    }

    // ---- planning side -------------------------------------------------

    /// Sleep once on `plan_cv`, registered as waiting for `wait`.
    fn park_planner<'a>(
        &'a self,
        mut st: MutexGuard<'a, WindowState<O>>,
        wait: PlannerWait,
    ) -> MutexGuard<'a, WindowState<O>> {
        st.planner_wait = Some(wait);
        st = self.plan_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        st.planner_wait = None;
        st.planner_wakeups += 1;
        st
    }

    /// Block until `wait` holds (or the run failed).
    fn plan_wait(&self, wait: PlannerWait) {
        let mut st = self.lock();
        while !st.satisfied(wait) {
            st = self.park_planner(st, wait);
        }
    }

    /// Block until fewer than `window` steps are live.
    pub fn wait_for_capacity(&self, window: usize) {
        self.plan_wait(PlannerWait::Capacity(window));
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
            let t = self.now();
            st.step_closed_at.insert(k, t);
            t
        } else {
            0.0
        };
        // Closing may report already-drained node shares and retire the
        // step on the spot.
        let (reports, retired) = st.ledger.close_step(k);
        st.on_step_events(&self.ctx, &reports, retired, k, now);
        self.finish(st, 0);
    }

    /// Block until task `id` has completed (its kernel ran and its record
    /// was reclaimed). Used by the driver to await a step's decision task.
    pub fn wait_for_task(&self, id: TaskId) {
        assert!(
            id < self.lock().tasks.next_id(),
            "waiting on a task that was never planned"
        );
        self.plan_wait(PlannerWait::Task(id));
    }

    /// No further steps will be planned; workers may exit once drained.
    pub fn finish_planning(&self) {
        let mut st = self.lock();
        st.planning_done = true;
        self.finish(st, 0);
    }

    /// Block until every planned task has completed.
    pub fn wait_drained(&self) {
        self.plan_wait(PlannerWait::Drained);
    }

    /// Has the run failed (see [`StreamWindow::take_panic`] and
    /// [`StreamWindow::net_check`] for the cause)? Blocking waits return
    /// early on a failed run, so the driver checks before trusting them.
    pub(crate) fn failed(&self) -> bool {
        self.lock().failed()
    }

    /// Record a panic (a kernel's payload, or a marker for the planner's
    /// own unwind) as the run's sticky failure and wake every sleeper.
    pub(crate) fn fail_panicked(&self, payload: Box<dyn Any + Send>) {
        let mut st = self.lock();
        st.panic.get_or_insert(payload);
        self.finish(st, 0);
    }

    /// The payload of the first kernel panic, for the driver to re-raise.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.lock().panic.take()
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
        self.lock().tasks.live()
    }

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
            trace: st.trace.take().unwrap_or_default(),
            net: net_report,
            planner_wakeups: st.planner_wakeups,
            worker_parks: st.worker_parks,
        }
    }

    // ---- insertion (TaskSink via StepSink) -----------------------------

    /// Declare a datum from the sink of `step` ([`NO_STEP`]: before
    /// planning). A datum first declared in a step is dropped with it.
    fn declare(&self, step: usize, key: DataKey, bytes: usize, home_node: usize) {
        assert!(home_node < self.num_nodes);
        let mut st = self.lock();
        let st = &mut *st;
        match st.slot_of.get(&key) {
            // Redeclaration updates the declaration (size *and* home,
            // mirroring GraphBuilder::declare's overwrite) but keeps the
            // hazard state and the scope.
            Some(&slot) => {
                let dir = &mut st.data[slot as usize];
                dir.bytes = bytes;
                dir.home = home_node;
            }
            None => {
                let dir = DatumDir {
                    key,
                    step,
                    bytes,
                    home: home_node,
                    class: O::data_class(&self.ctx, key),
                    hazard: DirCell::default(),
                    exec: None,
                };
                let slot = match st.free_slots.pop() {
                    Some(slot) => {
                        st.data[slot as usize] = dir;
                        slot
                    }
                    None => {
                        st.data.push(dir);
                        Slot::try_from(st.data.len() - 1).expect("datum slots fit 32 bits")
                    }
                };
                st.slot_of.insert(key, slot);
            }
        }
    }

    fn insert_task(&self, step: usize, node: usize, op: O) -> TaskId {
        assert!(node < self.num_nodes, "task placed on unknown node");
        assert_ne!(
            step, NO_STEP,
            "tasks may only be inserted into an open step"
        );
        let ctx = &*self.ctx;
        assert!(
            op.step(ctx).is_none_or(|s| s == step),
            "op of another step inserted into step {step}"
        );
        let mut guard = self.lock();
        let st = &mut *guard;
        let id = st.tasks.next_id();
        let InsertScratch {
            mut accesses,
            mut slots,
            mut preds,
            mut flows,
        } = std::mem::take(&mut st.scratch);
        accesses.clear();
        slots.clear();
        preds.clear();
        flows.clear();
        op.for_each_access(ctx, |acc| accesses.push(acc));

        // Pass 1: resolve every access to its datum slot (the one hashed
        // look-up per access) and consult the directories for hazard
        // predecessors and the critical-path depth over *all* of them
        // (completed predecessors contribute depth but no edge) — the
        // shared [`crate::hazard`] core, the same rules as
        // GraphBuilder::push.
        let mut max_pred_cp = 0u64;
        let costed_len = if st.vtime.is_some() {
            accesses.len()
        } else {
            0
        };
        let mut costed: Vec<CostedAccess> = Vec::with_capacity(costed_len);
        // Net mode: the decision datum this task writes, if any (the
        // driver waits for its applied value, not just task completion).
        let mut wrote_decision: Option<DataKey> = None;
        for acc in &accesses {
            let key = acc.key();
            let slot = *st.slot_of.get(&key).unwrap_or_else(|| {
                panic!(
                    "access to undeclared data {key:?} by task '{}'",
                    op.name(ctx)
                )
            });
            slots.push(slot);
            let dir = &st.data[slot as usize];
            if st.vtime.is_some() {
                costed.push(CostedAccess {
                    access: *acc,
                    bytes: dir.bytes,
                    home: dir.home,
                });
            }
            let is_mut = matches!(acc, Access::Mut(_));
            dir.hazard.fold_preds(is_mut, &mut preds, &mut max_pred_cp);
            if !matches!(acc, Access::Control(_)) {
                // Data-flow input: declared bytes/class at this insertion
                // and the writer-at-insertion.
                flows.push((slot, key, dir.bytes, dir.class, dir.hazard.writer));
            }
            if is_mut && dir.class == DataClass::Decision {
                wrote_decision = Some(key);
            }
        }
        let cp = 1 + max_pred_cp;

        // Net mode: tasks placed on other ranks are stubs here — their
        // hazard edges and message bookkeeping are identical (that is what
        // keeps every rank's MsgStats equal to the simulated run's), but
        // the op is interpreted on the owning rank only.
        let net_rank = st.net.as_ref().map(|n| n.rank);
        let stub = net_rank.is_some_and(|rank| node != rank);

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
        let mut net_needs: Vec<ArrivalKey> = Vec::new();
        for &(slot, key, bytes, class, writer) in &flows {
            if bytes == 0 {
                continue;
            }
            let live_writer = writer.filter(|w| w.meta.done.is_none());
            if net_rank == Some(node) {
                let (producer, src) = match live_writer {
                    Some(w) => (Some(w.id), w.meta.node),
                    None => {
                        let dir = &st.data[slot as usize];
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
            match live_writer {
                Some(w) => {
                    // Producer live (completion cannot interleave: the
                    // lock is held for the whole insertion). Register the
                    // owed transfer even when producer and consumer share
                    // a node — a later discard reroutes it to an executed
                    // version that may live elsewhere.
                    let owed = &mut st
                        .tasks
                        .get_mut(w.id)
                        .expect("undone writer is live")
                        .pending_sends;
                    let known = |s: OwedSend| s.slot == slot && s.dest == node;
                    if !st.send_links.iter(*owed).any(known) {
                        let send = OwedSend {
                            key,
                            slot,
                            dest: node,
                            bytes,
                            class,
                        };
                        st.send_links.push(owed, send);
                    }
                }
                None => st.resolve_transfer(slot, node, bytes, class),
            }
        }

        // Pass 2: update the directories in access order.
        for (acc, &slot) in accesses.iter().zip(&slots) {
            let hazard = &mut st.data[slot as usize].hazard;
            match acc {
                Access::Read(_) => hazard.note_read(id, cp),
                Access::Control(_) => {}
                Access::Mut(_) => hazard.note_write(id, cp, WriterMeta { node, done: None }),
            }
        }

        // Pass 3: wire precedence. Only edges to still-live tasks count
        // toward the countdown; a same-node edge is direct, a cross-node
        // one stands for the message the predecessor's completion sends.
        let tasks = &mut st.tasks;
        crate::hazard::finalize_preds(&mut preds, id, |p| tasks.is_live(p));
        let mut preds_remaining = preds.len();
        for &p in &preds {
            let succs = &mut tasks.get_mut(p).expect("retained pred").succs;
            st.succ_links.push(succs, id);
        }

        // Net mode: gate on not-yet-arrived remote inputs (one extra
        // predecessor each) and index decision writers for the driver.
        if let Some(net) = &mut st.net {
            for &arrival in &net_needs {
                if !net.arrivals.contains_key(&arrival) {
                    net.waiters.entry(arrival).or_default().push(id);
                    preds_remaining += 1;
                }
            }
            if let Some(key) = wrote_decision {
                net.pending_decisions.insert(id, (key, node == net.rank));
            }
        }

        let pushed = st.tasks.push(LiveTask {
            op,
            node,
            step,
            cp,
            preds_remaining,
            succs: Chain::EMPTY,
            pending_sends: Chain::EMPTY,
            accesses: costed,
            net_needs,
            stub,
        });
        debug_assert_eq!(pushed, id);
        st.scratch = InsertScratch {
            accesses,
            slots,
            preds,
            flows,
        };
        st.tasks_planned += 1;
        st.ledger.on_planned(step, node);
        st.peak_live_tasks = st.peak_live_tasks.max(st.tasks.live());
        if preds_remaining == 0 {
            st.unblocked(id, cp, node, stub);
        }
        self.finish(guard, 0);
        id
    }

    // ---- execution side ------------------------------------------------

    /// Worker loop: pop the deepest ready task, run it outside the lock,
    /// and record its completion *and* pop the next task in one critical
    /// section. Returns when planning is done and the window has drained,
    /// or the run failed. A panicking kernel fails the run (the driver
    /// re-raises the payload) instead of leaving every other thread
    /// asleep.
    pub(crate) fn worker_loop(&self, worker: usize) {
        let mut next = self.next_task(self.lock(), worker);
        while let Some((id, op)) = next {
            let t0 = self.now();
            let run = std::panic::AssertUnwindSafe(|| op.run(&self.ctx));
            let result = match std::panic::catch_unwind(run) {
                Ok(result) => result,
                Err(payload) => return self.fail_panicked(payload),
            };
            let t1 = self.now();
            let mut st = self.lock();
            st.complete_task(&self.ctx, id, result, worker, t0, t1);
            next = self.next_task(st, worker);
        }
    }

    /// The tail of a worker's critical section: take the deepest ready
    /// task, sleeping while there is none; `None` once the run is over.
    fn next_task(
        &self,
        mut st: MutexGuard<'_, WindowState<O>>,
        worker: usize,
    ) -> Option<(TaskId, O)> {
        loop {
            // Stubs first: completing them may unblock a deeper task.
            self.drain_stubs(&mut st, worker);
            let next = if st.failed() { None } else { st.pop_ready() };
            if next.is_some() || st.workers_done() {
                self.finish(st, worker);
                return next;
            }
            st.parked_workers += 1;
            st.worker_parks += 1;
            // About to sleep: what this section owes is notified with the
            // lock held, released only inside the wait.
            let wakes = st.take_wakes();
            self.notify(wakes);
            st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
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
        st.frame_event = true;
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
                st.net_arrival(key, producer, payload, from);
            }
            Frame::Sync {
                key,
                producer,
                payload,
            } => {
                let net = st.net.as_mut().expect("checked above");
                net.ctrl_recv += 1;
                net.payload_bytes_recv += payload.len() as u64;
                st.net_arrival(key, Some(producer), payload, from);
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
                net.check_known(key, from);
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
                let premature = !st.planning_done || st.tasks.live() != 0;
                let net = st.net.as_mut().expect("checked above");
                net.ctrl_recv += 1;
                net.shutdown_seen = true;
                if premature {
                    net.fail(TransportError::PeerLost { peer: from });
                }
                pump = FramePump::Stop;
            }
        }
        self.finish(st, 0);
        pump
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
        self.finish(st, 0);
    }

    /// The sticky net error, if any.
    pub(crate) fn net_check(&self) -> Result<(), TransportError> {
        match self.lock().net.as_ref().and_then(|n| n.error.clone()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// After [`StreamWindow::wait_for_task`] on a decision task: block
    /// until the decision *value* is in the local mirror, `false` if the
    /// run failed instead. `wait_for_task` also returns on a failed run —
    /// the decision task may then never have run, so there is no value to
    /// plan on even when it is local. Otherwise a locally computed decision
    /// is already there; in net mode a remote one is applied from its
    /// Sync/DecisionMsg frame the moment it arrives (the stub completing
    /// only means its hazard slots released).
    pub(crate) fn wait_decision_value(&self, id: TaskId) -> bool {
        let mut st = self.lock();
        let remote = st
            .net
            .as_ref()
            .and_then(|net| net.pending_decisions.get(&id))
            .and_then(|&(key, local)| (!local).then_some(key));
        loop {
            if st.failed() {
                return false;
            }
            let Some(key) = remote else { return true };
            let net = st.net.as_mut().expect("remote decisions are net mode");
            if net.apply_arrival(key, Some(id)) {
                return true;
            }
            st = self.park_planner(st, PlannerWait::Frame);
        }
    }

    /// Block until `cond` holds on the net state (or the run failed).
    fn net_wait(&self, cond: impl Fn(&NetState) -> bool) -> Result<(), TransportError> {
        let mut st = self.lock();
        loop {
            if let Some(e) = st.failure() {
                return Err(e);
            }
            if cond(st.net.as_ref().expect("net mode")) {
                return Ok(());
            }
            st = self.park_planner(st, PlannerWait::Frame);
        }
    }

    /// End-of-run protocol, called after [`StreamWindow::wait_drained`]:
    ///
    /// 1. broadcast `Done` (a fence: per-link FIFO means every protocol
    ///    frame this rank sent precedes it);
    /// 2. wait for all peers' `Done`s — now every inbound protocol frame
    ///    has been counted — and reconcile wire counters against the
    ///    modeled per-link tallies;
    /// 3. ranks != 0 ship the result data whose final version they hold
    ///    as `Result` frames, send `Fin`, and park until `Shutdown`; rank 0
    ///    waits for all `Fin`s (its mirror now holds the result) and
    ///    broadcasts `Shutdown`.
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

    /// Ship to rank 0 every datum of the result
    /// ([`PayloadStore::in_result`]) whose final version lives on this
    /// rank: its last executed writer ran here, or nothing ever wrote it
    /// and it is homed here. Exactly one rank holds each datum's final
    /// version, so rank 0's mirror ends with the whole result, bitwise.
    fn net_send_results(&self) -> Result<(), TransportError> {
        let mut st = self.lock();
        let st = &mut *st;
        let net = st.net.as_mut().expect("net mode");
        let rank = net.rank;
        let mut owned: Vec<DataKey> = st
            .slot_of
            .values()
            .map(|&slot| &st.data[slot as usize])
            .filter(|dir| dir.exec.map_or(dir.home, |v| v.node) == rank)
            .map(|dir| dir.key)
            .filter(|&key| net.store.in_result(key))
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
pub struct StepSink<'a, O: TaskOp> {
    win: &'a StreamWindow<O>,
    step: usize,
}

impl<'a, O: TaskOp> StepSink<'a, O> {
    pub fn new(win: &'a StreamWindow<O>, step: usize) -> Self {
        StepSink { win, step }
    }

    /// Declaration-phase sink (no step open; task insertion panics).
    pub fn declarations(win: &'a StreamWindow<O>) -> Self {
        StepSink { win, step: NO_STEP }
    }
}

impl<O: TaskOp> TaskSink<O> for StepSink<'_, O> {
    fn num_nodes(&self) -> usize {
        self.win.num_nodes()
    }

    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        self.win.declare(self.step, key, bytes, home_node);
    }

    fn push(&mut self, node: usize, op: O) -> TaskId {
        self.win.insert_task(self.step, node, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{TestCtx, TestOp};

    fn record(tag: u64) -> LiveTask<u64> {
        LiveTask {
            op: tag,
            node: 0,
            step: 0,
            cp: 1,
            preds_remaining: 0,
            succs: Chain::EMPTY,
            pending_sends: Chain::EMPTY,
            accesses: Vec::new(),
            net_needs: Vec::new(),
            stub: false,
        }
    }

    fn occupied(ring: &TaskRing<u64>) -> usize {
        ring.slots.iter().filter(|s| s.is_some()).count()
    }

    #[test]
    fn ring_issues_sequential_ids_and_counts_live_records() {
        let mut ring = TaskRing::<u64>::default();
        for expect in 0..5 {
            assert_eq!(ring.next_id(), expect);
            assert_eq!(ring.push(record(7)), expect);
        }
        assert_eq!(ring.live(), 5);
        assert_eq!(ring.live(), occupied(&ring));
        assert!(ring.is_live(4) && !ring.is_live(5));
        assert_eq!(ring.get_mut(3).map(|t| t.op), Some(7));
    }

    #[test]
    fn out_of_order_completion_holds_the_base() {
        let mut ring = TaskRing::<u64>::default();
        for _ in 0..4 {
            ring.push(record(7));
        }
        // 1 and 2 complete before 0: their slots empty, the base stays.
        assert!(ring.remove(2).is_some());
        assert!(ring.remove(1).is_some());
        assert_eq!((ring.base, ring.slots.len()), (0, 4));
        assert_eq!(ring.live(), 2);
        assert_eq!(ring.live(), occupied(&ring));
        assert!(ring.is_live(0) && !ring.is_live(1) && !ring.is_live(2) && ring.is_live(3));
        assert!(ring.get_mut(1).is_none());
        assert!(ring.remove(1).is_none(), "a record is reclaimed once");
    }

    #[test]
    fn base_advances_past_the_completed_prefix() {
        let mut ring = TaskRing::<u64>::default();
        for _ in 0..4 {
            ring.push(record(7));
        }
        ring.remove(1);
        ring.remove(2);
        // The oldest record completes: the base skips the whole empty run.
        ring.remove(0);
        assert_eq!((ring.base, ring.slots.len()), (3, 1));
        assert_eq!(ring.live(), occupied(&ring));
        // Ids keep counting from where they were, and a drained ring's
        // base sits at the next id.
        assert_eq!(ring.push(record(7)), 4);
        ring.remove(3);
        ring.remove(4);
        assert_eq!((ring.base, ring.slots.len(), ring.live()), (5, 0, 0));
        assert_eq!(ring.next_id(), 5);
    }

    #[test]
    fn a_dependency_on_an_id_below_the_base_is_vacuous() {
        let mut ring = TaskRing::<u64>::default();
        for _ in 0..3 {
            ring.push(record(7));
        }
        ring.remove(0);
        ring.remove(1);
        assert_eq!(ring.base, 2);
        // Hazard metadata may still name the reclaimed tasks 0 and 1:
        // neither is live, so neither survives predecessor finalization.
        let mut preds = vec![0, 1, 2];
        crate::hazard::finalize_preds(&mut preds, 3, |p| ring.is_live(p));
        assert_eq!(preds, vec![2]);
        assert!(ring.get_mut(0).is_none() && ring.remove(1).is_none());
    }

    /// A datum declared through a step's sink lives as long as the step:
    /// retirement drops its directory entry and its transfer-cache entries,
    /// tells the context, and hands the slot to the next declaration; data
    /// declared before planning stay.
    #[test]
    fn step_data_leave_the_directory_when_their_step_retires() {
        let ctx = Arc::new(TestCtx::default());
        let win = StreamWindow::<TestOp>::new(2, Arc::clone(&ctx));
        let (tile, cell0, cell1) = (DataKey(1), DataKey(100), DataKey(101));
        win.declare(NO_STEP, tile, 8, 0);
        for (step, cell) in [(0, cell0), (1, cell1)] {
            win.open_step(step);
            StepSink::new(&win, step).declare(cell, 8, 0);
            // Produced on node 0, consumed on node 1: the cell is cached
            // for node 1 in `holds`.
            let accs = [Access::Read(tile), Access::Mut(cell)];
            let w = win.insert_task(step, 0, ctx.op("w", &accs, TaskResult::control));
            let r = win.insert_task(
                step,
                1,
                ctx.op("r", &[Access::Read(cell)], TaskResult::control),
            );
            win.close_step(step);
            let mut st = win.lock();
            let slot = st.slot_of[&cell];
            assert_eq!(
                slot,
                1,
                "step {step} reuses the slot step {} freed",
                step.max(1) - 1
            );
            for id in [w, r] {
                assert_eq!(st.pop_ready().map(|(id, _)| id), Some(id));
                st.complete_task(&ctx, id, TaskResult::control(), 0, 0.0, 0.0);
            }
            assert_eq!(*ctx.retired.lock().unwrap(), (0..=step).collect::<Vec<_>>());
            assert!(
                !st.slot_of.contains_key(&cell),
                "step {step}'s cell is forgotten"
            );
            assert!(st.slot_of.contains_key(&tile), "run-scoped data stay");
            assert!(st.holds.keys().all(|&(s, _)| s != slot), "{:?}", st.holds);
            assert_eq!((st.data.len(), st.free_slots.as_slice()), (2, &[slot][..]));
        }
    }

    /// The window end to end at the table level: a consumer inserted after
    /// its producer completed gets no edge and is runnable at once.
    #[test]
    fn completed_producer_leaves_no_edge() {
        let ctx = Arc::new(TestCtx::default());
        let win = StreamWindow::<TestOp>::new(1, Arc::clone(&ctx));
        let key = DataKey(1);
        win.declare(NO_STEP, key, 8, 0);
        win.open_step(0);
        let a = win.insert_task(0, 0, ctx.op("a", &[Access::Mut(key)], TaskResult::control));
        {
            let mut st = win.lock();
            let (id, _) = st.pop_ready().expect("a is runnable");
            assert_eq!(id, a);
            st.complete_task(&ctx, a, TaskResult::control(), 0, 0.0, 0.0);
            assert_eq!((st.tasks.base, st.tasks.live()), (1, 0));
        }
        let b = win.insert_task(0, 0, ctx.op("b", &[Access::Read(key)], TaskResult::control));
        let mut st = win.lock();
        assert_eq!(st.tasks.get_mut(b).expect("b is live").preds_remaining, 0);
        assert_eq!(st.pop_ready().map(|(id, _)| id), Some(b));
        assert_eq!(st.tasks.live(), 1);
    }
}
