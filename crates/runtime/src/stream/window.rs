//! The streaming window: a live task graph that grows at the planning
//! edge and shrinks at the completion edge — on one process, or as one rank
//! of a wire run whose cross-rank progress flows through explicit messages.
//!
//! [`StreamWindow`] takes tasks in a planning phase at a time — a step's
//! prelude, or its decision-dependent finish — as the driver's
//! [`crate::graph::TaskSink`] buffered them: one [`TaskOp`] descriptor per
//! task, the same surface as the batch [`crate::graph::GraphBuilder`]'s. It
//! links each task to the closed-form predecessors the phase's sweep names
//! ([`TaskOp::for_each_predecessor`]: one sweep per datum), with one twist:
//! a dependency on a task that has *already completed* is vacuous and
//! produces no edge. Each live step keeps a dense table from an op's
//! position in the step to its task id, critical-path depth and node, and
//! whether it has completed; a predecessor outside every live table
//! belongs to a retired step, so it has completed too. A task record is
//! dropped the moment its kernel finishes,
//! and a step's table when the step retires, so the window's metadata is
//! bounded by the declared data plus the live window, not by the
//! factorization's O(N³) task count. Retirement is also where a step's
//! memory ends: the directory entries of the data declared while the step
//! was being planned are dropped (only that step's tasks could name them),
//! and [`TaskOp::retire_step`] tells the run context to drop what the
//! step's task bodies kept.
//!
//! A live record is the op plus bookkeeping: no name (rendered from the op
//! when a trace event is recorded), no body (a worker calls the op's
//! interpreter against the run's context), no list of written data
//! (re-derived from the op at completion), and no list of successors or
//! owed transfers. Those are the edge store the batch graph keeps too: a
//! planning phase's edges out of live tasks are one [`Block`] — each
//! predecessor's successors in the phase and the transfers it owes their
//! nodes, keyed by its id — written once at the end of the phase's critical
//! section and kept with the phase's step until the step retires. A phase
//! names predecessors only in its own step and the one before, so a
//! completing task finds its lists in the blocks of its step and of the
//! next. Planning a task allocates nothing beyond the amortized growth of
//! its step's table and of the phase buffers the planner reuses.
//!
//! The one thing a record keeps that an op may also say is its *step*.
//! The window retires what the driver opens and closes — the step a
//! [`crate::stream::StepSink`] is bound to — and a source is free to plan tasks with no
//! step of their own (`op.step()` is `None`) into one; so the record
//! stores the open step, and insertion refuses an op whose own step is a
//! different one. The step table and trace events read the record.
//!
//! **Tables.** Live records sit in one id-indexed ring (`TaskRing`), live
//! steps in the step table (`retire::StepTable`: planned tasks by position,
//! the blocks of the step's phases, its outstanding count, the slots
//! of the data declared in the step). Every declared datum gets a dense
//! slot in a `Vec<DatumDir>` holding what only data can say: its
//! declaration and its last completed version; the transfer cache and the
//! owed-transfer marks are dense arrays by `(slot, node)`.
//!
//! **Insertion: one sweep per datum, one critical section per phase.**
//! Before the lock is taken, the phase's sweep runs: datum by datum, the
//! accesses of the phase's ops with the last writer and the readers since,
//! sorted by op. Under the lock, the phase's declarations are applied, each
//! datum it visited is resolved to its slot once, and its ops are linked,
//! routed and queued in insertion order — a predecessor in the phase
//! itself by its index there, any other through its step's table — with
//! the ids the sink promised (the ring issues them in insertion order).
//! The edges to live predecessors and the transfers those owe are
//! collected as pairs and written as the phase's block before the section
//! ends. With the step's last phase the same section closes the step, and
//! it ends in one `finish`.
//!
//! **Routing.** Each task is *placed* on a node (owner-computes) and each
//! datum is *homed* on one. Every writer's insertion makes the datum's last
//! planned version (its id and node); a reader planned next reads it. A
//! dependency between tasks on the same node is a direct edge; a
//! cross-node dependency is satisfied by a routed message
//! ([`crate::comm::Msg`]): the producer's completion delivers a
//! [`crate::comm::DataMsg`] once per destination node (consumers there
//! share the cached copy — and late consumers of an already-completed
//! producer trigger the send at insertion), and the hybrid's criterion
//! decision reaches remote branch tasks as a [`crate::comm::DecisionMsg`]
//! from the panel-owner node. Ordering-only dependencies (WAR, control)
//! release remote successors without payload and are not counted as
//! messages — matching the platform simulator's cost model. A local window
//! has no wire: the driver's sink places every task and homes every datum
//! on node 0, so nothing crosses and nothing is routed. A wire rank's
//! window makes a frame of each message it routes, and asks its wire at
//! insertion, completion and pop what a task waits for
//! ([`super::wire`]). The ready queue orders by `(depth, insertion id)`
//! only — the depth is `1 + max` over the predecessors in live tables.
//!
//! **Rank-local planning.** A wire rank runs the same source as every
//! other rank but inserts only the tasks placed on it,
//! and sweeps only the data homed on it, those its tasks have touched so
//! far, and the decisions: no other datum can name a predecessor, an input
//! or a transfer of its share. Of those data its sweep ([`Share`]) visits
//! every access of the ops it runs and of the other ranks' ops that write
//! one of them (they make the versions its tasks read); of any other op
//! only the first read, per version and destination node in the phase, of
//! a version the rank sources (the initial value homed here, or a version
//! its own task writes) — routing sends once per (version, destination)
//! anyway; and nothing else, so no `readers` list names a read it skipped.
//! The core sweep skips the rest of a reader group in closed form. An op
//! placed elsewhere that the sweep names nothing for costs only its id
//! ([`TaskRing::skip`]) and a table entry with its id and node: a datum the
//! rank starts to sweep later names its last writer there. One the sweep
//! names is linked like any other through the data swept — it gets its id,
//! its depth, its place (id, depth, node) in its step's table, and it
//! makes the versions it writes. Of its routing the rank does the part
//! that starts here — the inputs its own versions (or the initial values
//! homed here) owe its node, through the same once-per-(version,
//! destination) cache — and counts, for its own tasks, what arrives. It
//! runs no kernel here and its step's counts hold only the rank's own
//! tasks; it gets a record only as a stand-in (below).
//!
//! Depths follow what is named: a task's depth is `1 + max` over the
//! predecessors its sweep still names, and a skipped op's table entry has
//! depth 0. So a remote op's depth — and through it the priority of the
//! local tasks after it — counts only the chains the rank sees: a skipped
//! reader adds nothing to a later writer, and a remote writer's depth
//! misses whatever reached it only through data the rank does not sweep.
//! Where a local window's depth of a task comes from such a chain, the
//! wire rank's is smaller; the order among tasks whose depths agree is the
//! insertion order either way, and no edge, transfer or result moves.
//!
//! Steps retire in order (`retire` module docs): the transfers a live
//! producer owes consumers planned in the next step sit in that step's
//! blocks, and where those consumers run elsewhere nothing else keeps the
//! step here until the producer completes. And the last retired step's
//! table stays: a datum a rank starts to sweep names its writer there, as
//! no version it skipped was recorded. Three rules keep a rank's share
//! correct on its own:
//!
//! * A dependency on a task that runs elsewhere makes an edge only to its
//!   stand-in, if it has one (below): that task touches only its own
//!   rank's memory. A data-flow input from another rank gates the consumer
//!   on the arrival of its frame.
//! * **Stand-ins.** Decoding another rank's version into the local mirror
//!   writes the datum here, so it waits for this rank's live tasks that
//!   read or wrote the datum's earlier local copy. A remote writer they
//!   still use gets a *stand-in*: a live record on its own node that runs
//!   no kernel, whose predecessors are the live records it waits for
//!   through the data it writes — this rank's tasks, and the stand-in of
//!   the version before, so a chain of remote versions is a chain of
//!   edges, each within a step. The local consumers of its version link to
//!   it like to any live predecessor, on top of their frame's arrival.
//!   When its last predecessor completes, it completes in the same
//!   critical section ([`WindowState::settle`]): it never enters the ready
//!   queue, and no tally, trace event or step count sees it. A remote
//!   writer nothing here uses gets no record and costs its id. A remote
//!   decision's writer is a stand-in until its frame arrives too — every
//!   rank gets the `Sync` — and decodes it as it settles, so the driver's
//!   wait for a decision task covers a remote one.
//! * The result hand-off finds each datum's final version from its last
//!   planned writer, which may have run elsewhere.
//!
//! **Locking and wake-ups.** All mutable state sits behind one mutex.
//! Two kinds of thread sleep, each on its own condition variable, and
//! each *registers under the mutex what it is waiting for* before it
//! sleeps:
//!
//! * **Workers** sleep on `work_cv`, only when the ready queue is empty
//!   and the run is neither over nor failed; `parked_workers` counts the
//!   sleepers nobody has notified yet. Whoever makes `r` tasks runnable —
//!   the planner inserting, a worker completing, a wire's receiver
//!   delivering a frame — *claims* `min(r, parked_workers)` sleepers
//!   (decrementing the count) and notifies exactly that many; a completing
//!   worker first pops
//!   its own next task in the same critical section, so it announces one
//!   task fewer. The end of the run (planning done and drained) and a
//!   sticky failure claim and notify all of them.
//! * **The driver thread** (planner; on a wire also the end-of-run
//!   protocol) sleeps on `plan_cv` with `planner_wait` set to one of:
//!   capacity below a window, a task id completing, the graph draining,
//!   or — on a wire — the next inbound frame. Every critical section ends
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
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::comm::{flow_msg, LinkMsgStats, Msg, MsgStats};
use crate::exec::Tally;
use crate::graph::{
    Access, CostClass, Csr, DataClass, DataKey, Pred, Share, TaskId, TaskOp, TaskResult,
};
use crate::hash::{IntMap, IntSet};
use crate::net::TransportError;
use crate::probe::{metric, Histogram, Label, Probe};
use crate::sched::ReadyQueue;
use crate::trace::TraceEvent;

use super::retire::{Planned, StepTable};
use super::ring::TaskRing;
use super::wire::Wire;
use super::{StreamOptions, StreamReport};

/// The version of a datum its last planned writer makes: which task, and
/// where its payload lives. A reader planned next reads it (insertion
/// follows planning order), and once that writer has completed, transfers
/// resolve against it, exactly like the virtual-time engine's scoreboard
/// (the window plans a branch op only once its branch has won, so every
/// op it plans executes). Which nodes already hold a copy is in
/// [`WindowState::holds`].
#[derive(Debug, Clone, Copy)]
struct Version {
    id: TaskId,
    node: usize,
}

/// The version stamp of a never-written datum, as fetched from its home.
const INITIAL: TaskId = TaskId::MAX;

/// The transfer cache's entry for a node holding no version of a datum.
const NOT_HELD: TaskId = TaskId::MAX - 1;

/// Index of a declared datum in [`WindowState::data`].
pub(super) type Slot = u32;

/// Per-datum directory entry: declaration metadata and the last planned
/// version. (A datum declared in a step is dropped with it: the step's
/// table lists its slot.)
#[derive(Debug)]
struct DatumDir {
    key: DataKey,
    bytes: usize,
    home: usize,
    class: DataClass,
    /// Last planned version (`None`: the initial value, at `home`).
    version: Option<Version>,
}

/// A data transfer a live producer owes one destination node at
/// completion, deduplicated per `(datum, destination)` through
/// [`WindowState::holds`].
#[derive(Debug, Clone, Copy)]
pub(super) struct OwedSend {
    key: DataKey,
    dest: usize,
    bytes: usize,
    class: DataClass,
}

/// A materialized, not-yet-completed task: its descriptor plus the
/// window's bookkeeping. What the descriptor determines — the name, the
/// data it writes — is derived from `op` when needed, not stored. On a wire
/// rank a record placed on another node is a *stand-in* (module docs,
/// "Rank-local planning"): it runs no kernel.
struct LiveTask<O> {
    op: O,
    /// The open step the task was inserted into — `op.step()` whenever the
    /// op has one (see the module header).
    step: usize,
    cp: u64,
    preds_remaining: usize,
    /// The node the task runs on.
    node: usize,
    /// Inputs that cross the wire to this task, decoded into the local
    /// mirror when it is popped for execution: a range of its step's
    /// `needs`.
    needs: Range<u32>,
}

/// One planning phase's edges out of the tasks live when it was planned,
/// keyed by the predecessor's id: its successors in the phase, released at
/// its completion (same-node ones directly, cross-node ones standing for a
/// message delivery), and the transfers it owes their nodes, sent then.
#[derive(Debug, Default)]
pub(super) struct Block {
    succs: Csr<u32>,
    sends: Csr<OwedSend>,
}

/// What the driver thread is blocked on (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PlannerWait {
    /// Fewer than this many steps live.
    Capacity(usize),
    /// This task completed.
    Task(TaskId),
    /// No live task left.
    Drained,
    /// Any inbound frame of a wire (the waiter re-checks its own
    /// condition on the wire state).
    Frame,
}

/// The notifications one critical section owes, sent once the lock is
/// released.
struct Wakes {
    /// Parked workers to notify (`usize::MAX`: all of them).
    workers: usize,
    planner: bool,
}

/// One data-flow input of the task being inserted: the datum's slot and
/// declaration, and the version it reads — its producer (`None`: the
/// initial value) and where that lives, and whether the producer is a live
/// task of this rank (whose completion sends it).
struct Flow {
    slot: Slot,
    key: DataKey,
    bytes: usize,
    class: DataClass,
    producer: Option<TaskId>,
    src: usize,
    live: bool,
}

/// The task a dependency waits for, as the window finds it.
#[derive(Clone, Copy)]
enum Waits {
    /// Nothing: an input nobody wrote yet.
    Nothing,
    /// An earlier op of the same phase, by its index there: live, with
    /// the id and depth the phase gave it.
    Earlier(u32),
    /// A task planned before the phase, by step and position: looked up in
    /// the step's table.
    Planned { step: u32, pos: u32 },
}

/// One thing an op of a planning phase reads or waits for through one
/// datum, as the phase's sweep found it.
#[derive(Clone, Copy)]
struct Dep {
    /// The datum, by its index in [`Phase::data`].
    datum: u32,
    /// The op, by its index in the phase.
    op: u32,
    /// The datum's last writer, or a reader since.
    waits: Waits,
    /// The access reads the datum's version — whose writer `waits` names —
    /// rather than only waiting.
    input: bool,
    /// That access is a write.
    write: bool,
}

/// One planning phase of a step — the prelude, or the decision-dependent
/// finish — as the planner's sink buffered it: its declarations and its
/// ops with their placements. With it go the work vectors its insertion
/// reuses, so that planning allocates nothing per task beyond their
/// amortized growth and the phase's [`Block`].
pub(super) struct Phase<O> {
    /// `(key, bytes, home node)`, in declaration order.
    pub(super) decls: Vec<(DataKey, usize, usize)>,
    pub(super) ops: Vec<O>,
    /// The node each of `ops` is placed on.
    pub(super) nodes: Vec<usize>,
    /// The data the sweep visited, in its order, each with its slot
    /// (resolved under the lock).
    data: Vec<(DataKey, Slot)>,
    /// What the sweep found, datum by datum.
    deps: Vec<Dep>,
    /// `deps` by op.
    by_op: Csr<Dep>,
    /// The depth each op of the phase was given.
    cps: Vec<u64>,
    /// The predecessors of the op being inserted with a live record on
    /// this rank, tasks and stand-ins, with the datum (index in `data`)
    /// that names each.
    live_preds: Vec<(u32, TaskId)>,
    flows: Vec<Flow>,
    /// What the op being inserted writes: `(datum, slot)`.
    writes: Vec<(u32, Slot)>,
    /// The phase's block, as `(predecessor, successor)` and `(live writer,
    /// transfer)` pairs in insertion order.
    edges: Vec<(u32, u32)>,
    sends: Vec<(u32, OwedSend)>,
    /// On a wire rank, the data it sweeps: those homed on it and those its
    /// tasks have touched so far (module docs, "Rank-local planning").
    mine: IntSet<DataKey>,
    /// On a wire rank, per op: its sweep visits every access of the op —
    /// it runs here or writes a datum swept here ([`Share`]).
    full: Vec<bool>,
    /// The indices of those ops, ascending.
    full_ops: Vec<u32>,
}

impl<O> Default for Phase<O> {
    fn default() -> Self {
        Phase {
            decls: Vec::new(),
            ops: Vec::new(),
            nodes: Vec::new(),
            data: Vec::new(),
            deps: Vec::new(),
            by_op: Csr::default(),
            cps: Vec::new(),
            live_preds: Vec::new(),
            flows: Vec::new(),
            writes: Vec::new(),
            edges: Vec::new(),
            sends: Vec::new(),
            mine: IntSet::default(),
            full: Vec::new(),
            full_ops: Vec::new(),
        }
    }
}

impl<O: TaskOp> Phase<O> {
    /// Does a wire rank's sweep cover `key`: a datum of `mine`, or a
    /// decision?
    fn swept(mine: &IntSet<DataKey>, ctx: &O::Ctx, key: DataKey) -> bool {
        mine.contains(&key) || O::data_class(ctx, key) == DataClass::Decision
    }

    /// Wire rank `rank` takes in the phase: the data homed on it and those
    /// its ops touch join the data it sweeps, and its sweep visits in full
    /// the ops it runs and those that write a datum it sweeps.
    fn note_mine(&mut self, ctx: &O::Ctx, rank: usize) {
        let Phase {
            decls,
            ops,
            nodes,
            mine,
            full,
            full_ops,
            ..
        } = self;
        mine.extend(decls.iter().filter(|d| d.2 == rank).map(|d| d.0));
        for (&op, &node) in ops.iter().zip(nodes.iter()) {
            if node == rank {
                op.for_each_access(ctx, |a| {
                    mine.insert(a.key());
                });
            }
        }
        full.clear();
        full_ops.clear();
        for (i, (&op, &node)) in ops.iter().zip(nodes.iter()).enumerate() {
            let mut writes = node == rank;
            if !writes {
                op.for_each_access(ctx, |a| {
                    writes |= matches!(a, Access::Mut(k) if Self::swept(mine, ctx, k));
                });
            }
            full.push(writes);
            if writes {
                full_ops.push(i as u32);
            }
        }
    }

    /// Sweep the phase's data ([`TaskOp::for_each_predecessor`]), its ops
    /// at positions `first..` of `step`, into `data` and `deps`, and sort
    /// the deps by op — on wire rank `rank` only what its share needs
    /// ([`Share`]). A predecessor outside the phase must lie in its step or
    /// the one before: the completion walk looks for a task's successors
    /// only in the blocks of those two steps.
    fn sweep(&mut self, ctx: &O::Ctx, step: usize, first: usize, rank: Option<usize>) {
        let Phase {
            ops,
            nodes,
            data,
            deps,
            by_op,
            mine,
            full,
            full_ops,
            ..
        } = self;
        data.clear();
        deps.clear();
        let swept = |key| Self::swept(mine, ctx, key);
        let share = match rank {
            Some(rank) => Share::rank(rank, nodes, full, full_ops, &swept),
            None => Share::all(),
        };
        let waits = |p: Pred, op: usize| match p.pos.checked_sub(first) {
            Some(i) if p.step == step => Waits::Earlier(i as u32),
            _ => {
                assert!(
                    p.step == step || p.step + 1 == step,
                    "{} in step {step} waits for {p:?}: not in its step or the one before",
                    ops[op].name(ctx)
                );
                Waits::Planned {
                    step: u32::try_from(p.step).expect("steps fit 32 bits"),
                    pos: u32::try_from(p.pos).expect("positions fit 32 bits"),
                }
            }
        };
        O::for_each_predecessor(ctx, step, ops, &share, |v| {
            let key = v.access.key();
            if data.last().is_none_or(|&(last, _)| last != key) {
                data.push((key, 0));
            }
            let (datum, op) = ((data.len() - 1) as u32, v.op as u32);
            let dep = |waits, input, write| Dep {
                datum,
                op,
                waits,
                input,
                write,
            };
            let writer = v.writer.map_or(Waits::Nothing, |p| waits(p, v.op));
            match v.access {
                Access::Control(_) => {
                    if v.writer.is_some() {
                        deps.push(dep(writer, false, false));
                    }
                }
                acc => deps.push(dep(writer, true, matches!(acc, Access::Mut(_)))),
            }
            deps.extend(v.readers.iter().map(|&r| dep(waits(r, v.op), false, false)));
        });
        by_op.write(ops.len(), deps, |d| (d.op as usize, *d));
    }
}

pub(super) struct WindowState<O> {
    /// Live task records (also issues the task ids).
    tasks: TaskRing<LiveTask<O>>,
    /// Runnable tasks, deepest first.
    ready: ReadyQueue,
    /// The live steps: planned tasks by position, the blocks of their
    /// phases, outstanding counts, declared data.
    steps: StepTable,
    /// Declared data, by slot; the live entries are the ones `slot_of`
    /// names.
    data: Vec<DatumDir>,
    /// Slots of dropped step data, reused by later declarations.
    free_slots: Vec<Slot>,
    /// The once-per-destination transfer cache: the version of the datum
    /// in `slot` that node `dest` holds a copy of, or is owed by its live
    /// writer, at `slot * nodes + dest` — [`INITIAL`] for the never-written
    /// datum fetched from its home, [`NOT_HELD`] for none.
    holds: Vec<TaskId>,
    /// The nodes `holds` has an entry for per slot: 1 on a local window.
    num_nodes: usize,
    slot_of: IntMap<DataKey, Slot>,
    planning_done: bool,
    /// What the driver thread sleeps on, if it sleeps.
    planner_wait: Option<PlannerWait>,
    /// Sleeping workers nobody has notified yet.
    parked_workers: usize,
    /// Tasks pushed on the ready queue in this critical section.
    newly_ready: usize,
    /// Stand-ins whose last predecessor completed in this critical
    /// section, to complete before it ends ([`WindowState::settle`]).
    settled: Vec<TaskId>,
    /// An inbound frame was delivered in this critical section.
    pub(super) frame_event: bool,
    planner_wakeups: u64,
    worker_parks: u64,
    /// Payload of the first panic on a worker (or a marker when the
    /// planner itself unwound); sticky, fails the whole run.
    panic: Option<Box<dyn Any + Send>>,
    pub(crate) tally: Tally,
    msgs: MsgStats,
    tasks_planned: usize,
    /// Ops the sweeps named anything for: the tasks planned here and, on a
    /// wire rank, the boundary.
    ops_named: usize,
    /// On a wire rank, the other ranks' ops it named: those that write a
    /// datum it sweeps, and those visited only to route a version to them.
    boundary: [usize; 2],
    peak_live_tasks: usize,
    /// A wire rank's transport side; `None` on a local window.
    pub(super) wire: Option<Wire>,
    trace: Option<Vec<TraceEvent>>,
    /// Metrics probe (cheap-clone handle; disabled by default).
    probe: Probe,
    /// Per-(src, dst) protocol message tallies: on a wire rank, the links
    /// that touch it (a local window routes nothing).
    pub(super) link_msgs: BTreeMap<(usize, usize), MsgStats>,
    /// Per-class kernel accounting — `(flops, wall-seconds histogram)`,
    /// indexed by [`CostClass::index`] — only allocated while probed.
    kernel_stats: Option<Box<[(f64, Histogram); CostClass::COUNT]>>,
    /// Wall time each step's planning closed at (probed runs only), for
    /// the close-to-retirement lag histogram.
    step_closed_at: IntMap<usize, f64>,
    /// Decimation counter for the live-task gauge.
    live_tick: u64,
}

impl<O: TaskOp> WindowState<O> {
    /// Has the run failed (a kernel or the planner panicked, or the wire
    /// hit a transport/protocol error)? Sticky; every blocking wait bails.
    pub(super) fn failed(&self) -> bool {
        self.panic.is_some() || self.wire_error().is_some()
    }

    /// The wire's sticky failure, if any.
    fn wire_error(&self) -> Option<&TransportError> {
        self.wire.as_ref().and_then(Wire::error)
    }

    /// Does this process run the tasks placed on `node`? Every task, on a
    /// local window.
    #[inline]
    fn runs(&self, node: usize) -> bool {
        self.wire.as_ref().is_none_or(|w| w.runs(node))
    }

    /// Frames queued and not yet written.
    fn queued(&self) -> usize {
        self.wire.as_ref().map_or(0, Wire::queued)
    }

    /// The failure as the error [`crate::stream::execute_net`] returns. A
    /// panic is re-raised by the driver, which discards this stand-in.
    pub(super) fn failure(&self) -> Option<TransportError> {
        self.wire_error().cloned().or_else(|| {
            self.panic
                .is_some()
                .then(|| TransportError::Protocol("a task panicked on this rank".into()))
        })
    }

    /// Everything planned has run and nothing more will be planned.
    pub(super) fn drained(&self) -> bool {
        self.planning_done && self.tasks.live() == 0
    }

    /// Workers have nothing left to wait for.
    fn workers_done(&self) -> bool {
        self.failed() || self.drained()
    }

    fn satisfied(&self, wait: PlannerWait) -> bool {
        self.failed()
            || match wait {
                PlannerWait::Capacity(window) => self.steps.live() < window,
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

    /// A task's last predecessor is gone: queue it for a worker.
    fn unblocked(&mut self, id: TaskId, cp: u64, node: usize) {
        self.ready.push(cp, id, node);
        self.newly_ready += 1;
    }

    /// Drop one predecessor of live task `id`: with its last, a task is
    /// queued and a stand-in settles.
    pub(super) fn release(&mut self, id: TaskId) {
        let t = self
            .tasks
            .get_mut(id)
            .expect("successor completed before predecessor");
        debug_assert!(t.preds_remaining >= 1, "dependency underflow");
        t.preds_remaining -= 1;
        if t.preds_remaining == 0 {
            let (cp, node) = (t.cp, t.node);
            if self.runs(node) {
                self.unblocked(id, cp, node);
            } else {
                self.settled.push(id);
            }
        }
    }

    /// Complete the stand-ins released in this critical section, and those
    /// their completions release: each decodes the frame it waited for, if
    /// any, and releases its successors. No kernel, count or trace event.
    pub(super) fn settle(&mut self) {
        while let Some(id) = self.settled.pop() {
            let t = self.tasks.remove(id).expect("a stand-in settles once");
            self.apply_needs(t.step, t.needs);
            self.release_successors(id, t.step, t.node);
        }
    }

    /// Decode the inputs `needs` of a task of `step` that cross the wire.
    /// `false` when that failed the run.
    fn apply_needs(&mut self, step: usize, needs: Range<u32>) -> bool {
        let live = self.steps.get(step).expect("a live task's step is live");
        let needs = &live.needs[needs.start as usize..needs.end as usize];
        self.wire.as_mut().is_none_or(|w| w.apply(needs))
    }

    /// Take the deepest ready task for execution, once the wire has put its
    /// inputs in place — under the lock. `None` when there is nothing
    /// to run, or that failed the run.
    fn pop_ready(&mut self) -> Option<(TaskId, O)> {
        let r = self.ready.pop()?;
        // The popping worker runs this one itself: one task fewer to
        // announce to sleepers.
        self.newly_ready = self.newly_ready.saturating_sub(1);
        let t = self.tasks.get(r.id).expect("ready task not live");
        let (op, step, needs) = (t.op, t.step, t.needs.clone());
        self.apply_needs(step, needs).then_some((r.id, op))
    }

    /// Step `step` retired: drop its table and forget the data declared
    /// in it.
    fn forget_step(&mut self, step: usize) {
        let nodes = self.num_nodes;
        for slot in self.steps.retire(step).data {
            let dir = &mut self.data[slot as usize];
            self.slot_of.remove(&dir.key);
            let at = slot as usize * nodes;
            self.holds[at..at + nodes].fill(NOT_HELD);
            dir.version = None;
            self.free_slots.push(slot);
        }
    }

    /// Record a protocol message and put it on the wire, which only a wire
    /// rank's routing reaches. `producer` is the version the payload
    /// carries (`None` for initial fetches).
    fn route(&mut self, msg: Msg, producer: Option<TaskId>) {
        self.msgs.record(&msg);
        let link = match &msg {
            Msg::Data(m) => (m.from, m.to),
            Msg::Decision(m) => (m.from, m.to),
        };
        self.link_msgs.entry(link).or_default().record(&msg);
        let wire = self.wire.as_mut().expect("only a wire rank routes");
        wire.send(&msg, link, producer);
    }

    /// Step `step` retired on a close or completion: drop its table and
    /// data, and those of the drained steps after it that it held back. `now` is
    /// the wall clock (seconds since the window's epoch) of the triggering
    /// event; it only feeds the probed retirement-lag metric.
    fn retired(&mut self, ctx: &O::Ctx, mut step: usize, now: f64) {
        loop {
            if let Some(closed) = self.step_closed_at.remove(&step) {
                self.probe.observe(
                    metric::STREAM_RETIRE_LAG,
                    Label::None,
                    (now - closed).max(0.0),
                );
            }
            self.forget_step(step);
            O::retire_step(ctx, step);
            step += 1;
            if !self.steps.retires(step) {
                break;
            }
        }
    }

    /// Note that `dest` now holds `version` of the datum in `slot`; `false`
    /// if it already did.
    fn newly_held(&mut self, slot: Slot, dest: usize, version: TaskId) -> bool {
        let held = &mut self.holds[slot as usize * self.num_nodes + dest];
        std::mem::replace(held, version) != version
    }

    /// Record the completion of live task `id`, which executed at `cost`:
    /// reclaim its record, tell the wire, flush the transfers it owes, and
    /// release its successors.
    fn complete_task(
        &mut self,
        ctx: &O::Ctx,
        id: TaskId,
        cost: TaskResult,
        worker: usize,
        start_s: f64,
        end_s: f64,
    ) {
        let task = self
            .tasks
            .remove(id)
            .unwrap_or_else(|| panic!("task {id} completed twice"));
        let node = task.node;
        self.tally.record(&cost);

        if self.probe.is_enabled() {
            if let Some(ks) = &mut self.kernel_stats {
                let entry = &mut ks[cost.class.index()];
                entry.0 += cost.flops;
                entry.1.observe((end_s - start_s).max(0.0));
            }
            self.live_tick += 1;
            if self.live_tick.is_multiple_of(64) {
                let live = self.tasks.live() as f64;
                self.probe
                    .gauge(metric::STREAM_LIVE_TASKS, Label::None, end_s, live);
            }
        }

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

        if let Some(w) = &mut self.wire {
            w.completed(id);
        }
        self.release_successors(id, task.step, node);
        self.settle();
        if self.steps.completed(task.step) {
            self.retired(ctx, task.step, end_s);
        }
    }

    /// Live task `id` of `step`, on `node`, is gone: flush the transfers it
    /// owes and release its successors, as the blocks of its step and of
    /// the next list them.
    fn release_successors(&mut self, id: TaskId, step: usize, node: usize) {
        // The blocks leave the step table for the walk and go back after.
        let steps = [step, step + 1];
        let blocks = steps.map(|s| {
            let live = self.steps.get_mut(s);
            live.map(|l| std::mem::take(&mut l.blocks))
                .unwrap_or_default()
        });
        let named = || blocks.iter().flatten();

        // Flush the owed transfers: one DataMsg (or DecisionMsg) per
        // (datum, destination node).
        for s in named().flat_map(|b| b.sends.get(id)) {
            let msg = flow_msg(s.key, s.class, Some(id), node, s.dest, s.bytes);
            self.route(msg, Some(id));
        }
        for &s in named().flat_map(|b| b.succs.get(id)) {
            self.release(s as TaskId);
        }
        for (s, blocks) in steps.into_iter().zip(blocks) {
            if let Some(live) = self.steps.get_mut(s) {
                live.blocks = blocks;
            }
        }
    }

    /// Declare a datum from a phase of `step` ([`NO_STEP`]: before
    /// planning). A datum first declared in a step is dropped with it.
    fn declare(&mut self, ctx: &O::Ctx, step: usize, key: DataKey, bytes: usize, home: usize) {
        match self.slot_of.get(&key) {
            // Redeclaration updates the declaration (size *and* home,
            // mirroring GraphBuilder::declare's overwrite) but keeps the
            // executed version and the scope.
            Some(&slot) => {
                let dir = &mut self.data[slot as usize];
                dir.bytes = bytes;
                dir.home = home;
            }
            None => {
                let dir = DatumDir {
                    key,
                    bytes,
                    home,
                    class: O::data_class(ctx, key),
                    version: None,
                };
                let slot = match self.free_slots.pop() {
                    Some(slot) => {
                        self.data[slot as usize] = dir;
                        slot
                    }
                    None => {
                        self.data.push(dir);
                        self.holds
                            .resize(self.data.len() * self.num_nodes, NOT_HELD);
                        Slot::try_from(self.data.len() - 1).expect("datum slots fit 32 bits")
                    }
                };
                self.slot_of.insert(key, slot);
                if step != NO_STEP {
                    self.steps.live_mut(step).data.push(slot);
                }
            }
        }
    }

    /// Insert op `i` of `phase`, whose ops are tasks `base..` of the open
    /// `step`, given what the sweep found for it (`phase.by_op`). Its
    /// depth, one more than its predecessors' in the phase and the live
    /// steps' tables, goes to `phase.cps`; it makes the versions it writes,
    /// and its inputs are routed. An op this process
    /// runs is linked to its live predecessors (into the phase's block
    /// pairs) and queued if nothing holds it up; one another rank runs gets
    /// a stand-in if this rank still uses what it overwrites (module docs,
    /// "Rank-local planning").
    fn insert(&mut self, ctx: &O::Ctx, step: usize, base: TaskId, i: usize, phase: &mut Phase<O>) {
        let (op, node, id) = (phase.ops[i], phase.nodes[i], base + i);
        let here = self.runs(node);
        if !here {
            // Another rank's op: one the sweep named nothing for costs only
            // its id (its table entry names nothing: depth 0).
            if phase.by_op.get(i).is_empty() {
                phase.cps.push(0);
                self.tasks.skip();
                return;
            }
            self.boundary[usize::from(!phase.full[i])] += 1;
        }
        self.ops_named += 1;
        let (live_preds, flows) = (&mut phase.live_preds, &mut phase.flows);
        live_preds.clear();
        flows.clear();
        phase.writes.clear();

        // The closed-form predecessors: an earlier op of the phase has the
        // depth the phase gave it, anything else is looked up in the live
        // steps' tables; one with a live record here, a task or a stand-in,
        // is an edge. The version an input reads is its predecessor's, else
        // the datum's last planned one. Inputs carry their declared bytes
        // and class at this insertion; of another rank's op only those this
        // rank sources are kept. The decision datum the op writes, if any,
        // is noted.
        let mut max_pred_cp = 0u64;
        let mut wrote_decision: Option<DataKey> = None;
        for d in phase.by_op.get(i) {
            let pred = match d.waits {
                Waits::Nothing => None,
                Waits::Earlier(j) => {
                    let j = j as usize;
                    max_pred_cp = max_pred_cp.max(phase.cps[j]);
                    Some((base + j, phase.nodes[j]))
                }
                // Not in a table: the step retired, so the predecessor
                // completed.
                Waits::Planned { step: s, pos: p } => match self.steps.tasks(s as usize) {
                    None => None,
                    Some(table) => {
                        let planned = table.get(p as usize).copied().flatten();
                        let pred = planned.unwrap_or_else(|| {
                            panic!(
                                "step {s} position {p} of '{}' was not planned",
                                op.name(ctx)
                            )
                        });
                        max_pred_cp = max_pred_cp.max(pred.depth);
                        Some((pred.id, pred.node))
                    }
                },
            };
            let pred = pred.map(|(p, n)| (p, n, self.tasks.is_live(p)));
            if let Some((p, _, true)) = pred {
                live_preds.push((d.datum, p));
            }
            if !d.input {
                continue;
            }
            let slot = phase.data[d.datum as usize].1;
            let dir = &self.data[slot as usize];
            let (producer, src, live) = match (pred, dir.version) {
                (Some((w, n, live)), _) => (Some(w), n, live && self.runs(n)),
                (None, Some(v)) => (Some(v.id), v.node, false),
                (None, None) => (None, dir.home, false),
            };
            if dir.bytes != 0 && (here || self.runs(src)) {
                flows.push(Flow {
                    slot,
                    key: dir.key,
                    bytes: dir.bytes,
                    class: dir.class,
                    producer,
                    src,
                    live,
                });
            }
            if d.write {
                if dir.class == DataClass::Decision {
                    wrote_decision = Some(dir.key);
                }
                phase.writes.push((d.datum, slot));
            }
        }
        let cp = 1 + max_pred_cp;
        phase.cps.push(cp);
        for &(_, slot) in &phase.writes {
            self.data[slot as usize].version = Some(Version { id, node });
        }
        self.route_inputs(node, &phase.flows, &mut phase.sends);

        // What the wire adds: a task waits for the frames of its inputs
        // from other ranks, and a local decision is broadcast when it
        // completes. A stand-in waits only for the users of the data its op
        // writes, and for a decision made elsewhere, for the frame every
        // rank gets.
        let live_preds = &mut phase.live_preds;
        if !here {
            let writes = &phase.writes;
            live_preds.retain(|u| writes.iter().any(|w| w.0 == u.0));
        }
        let (needs, arrivals) = match &mut self.wire {
            Some(w) => {
                if let Some(key) = wrote_decision.filter(|_| here) {
                    w.pending_decisions.insert(id, key);
                }
                let remote = phase.flows.iter().filter(|f| here && f.src != node);
                let own = wrote_decision.filter(|_| !here).map(|key| (key, Some(id)));
                let inputs = remote.map(|f| (f.key, f.producer)).chain(own);
                w.place(id, inputs, &mut self.steps.live_mut(step).needs)
            }
            None => (0..0, 0),
        };
        live_preds.sort_unstable_by_key(|p| p.1);
        live_preds.dedup_by_key(|p| p.1);
        let preds_remaining = live_preds.len() + arrivals;
        if !here && preds_remaining == 0 {
            // Nothing here to wait for: no stand-in. A decision's frame that
            // is in already is decoded now, for the planner.
            self.apply_needs(step, needs);
            let skipped = self.tasks.skip();
            debug_assert_eq!(skipped, id);
            return;
        }
        let edges = live_preds.iter().map(|&(_, p)| (p as u32, id as u32));
        phase.edges.extend(edges);

        let pushed = self.tasks.push(LiveTask {
            op,
            step,
            cp,
            preds_remaining,
            node,
            needs,
        });
        debug_assert_eq!(pushed, id);
        if preds_remaining == 0 {
            self.unblocked(id, cp, node);
        }
    }

    /// Route the data-flow inputs `flows` of a task on `node`, once per
    /// (version, destination node) — identical to the virtual-time
    /// scoreboard. The rank that holds a version sends it: owed while its
    /// producer is live (into `sends`; the lock is held for the whole phase,
    /// so completion cannot interleave), at once otherwise; a wire rank
    /// also counts what comes to its own tasks from other ranks, which they
    /// send.
    fn route_inputs(&mut self, node: usize, flows: &[Flow], sends: &mut Vec<(u32, OwedSend)>) {
        for f in flows.iter().filter(|f| f.src != node) {
            if !self.newly_held(f.slot, node, f.producer.unwrap_or(INITIAL)) {
                continue;
            }
            match f.producer.filter(|_| f.live) {
                Some(w) => {
                    let (key, bytes, class) = (f.key, f.bytes, f.class);
                    let owed = OwedSend {
                        key,
                        dest: node,
                        bytes,
                        class,
                    };
                    sends.push((w as u32, owed));
                }
                None => {
                    let msg = flow_msg(f.key, f.class, f.producer, f.src, node, f.bytes);
                    self.route(msg, f.producer);
                }
            }
        }
    }

    /// The data whose final version lives on `rank`: its last planned
    /// writer ran there, or nothing ever wrote it and it is homed there.
    pub(super) fn final_versions_on(&self, rank: usize) -> Vec<DataKey> {
        self.slot_of
            .values()
            .map(|&slot| &self.data[slot as usize])
            .filter(|dir| dir.version.map_or(dir.home, |v| v.node) == rank)
            .map(|dir| dir.key)
            .collect()
    }
}

/// Shared streaming execution state (the live window, its ready queue and
/// message routing), over the ops of one run and the context they are
/// interpreted against.
pub struct StreamWindow<O: TaskOp> {
    /// The rank a wire run plans the share of.
    rank: Option<usize>,
    ctx: Arc<O::Ctx>,
    state: Mutex<WindowState<O>>,
    /// Workers sleep here (module docs, "Locking and wake-ups").
    work_cv: Condvar,
    /// The driver thread sleeps here.
    plan_cv: Condvar,
    /// Wall-clock epoch for trace timestamps.
    epoch: Instant,
    /// Tasks are timed: the run records trace events or probe metrics.
    /// Otherwise no clock is read per task.
    timed: bool,
}

/// Sentinel step used while no step is open (declaration phase).
pub(super) const NO_STEP: usize = usize::MAX;

impl<O: TaskOp> StreamWindow<O> {
    /// A window over `opts` (the window size and thread count are the
    /// driver's business, not the window's): it may record per-task trace
    /// events and emit runtime metrics into an enabled probe. With a wire,
    /// it is that rank's share of a run over the wire's world; without one,
    /// a local window, which has one node.
    pub(super) fn new(ctx: Arc<O::Ctx>, opts: &StreamOptions, wire: Option<Wire>) -> Self {
        let probe = &opts.probe;
        let rank = wire.as_ref().map(Wire::rank);
        let num_nodes = wire.as_ref().map_or(1, Wire::nranks);
        StreamWindow {
            rank,
            ctx,
            state: Mutex::new(WindowState {
                tasks: TaskRing::default(),
                ready: ReadyQueue::default(),
                steps: StepTable::default(),
                data: Vec::new(),
                free_slots: Vec::new(),
                holds: Vec::new(),
                num_nodes,
                slot_of: IntMap::default(),
                planning_done: false,
                planner_wait: None,
                parked_workers: 0,
                newly_ready: 0,
                settled: Vec::new(),
                frame_event: false,
                planner_wakeups: 0,
                worker_parks: 0,
                panic: None,
                tally: Tally::default(),
                msgs: MsgStats::default(),
                tasks_planned: 0,
                ops_named: 0,
                boundary: [0; 2],
                peak_live_tasks: 0,
                wire,
                trace: opts.trace.then(Vec::<TraceEvent>::new),
                probe: probe.clone(),
                link_msgs: BTreeMap::new(),
                kernel_stats: probe
                    .is_enabled()
                    .then(|| Box::new([(0.0, Histogram::default()); CostClass::COUNT])),
                step_closed_at: IntMap::default(),
                live_tick: 0,
            }),
            work_cv: Condvar::new(),
            plan_cv: Condvar::new(),
            epoch: Instant::now(),
            timed: opts.trace || probe.is_enabled(),
        }
    }

    /// A local window: it runs every task and routes nothing.
    pub(super) fn local(&self) -> bool {
        self.rank.is_none()
    }

    /// The context the run's ops are interpreted against.
    pub(super) fn context(&self) -> &O::Ctx {
        &self.ctx
    }

    /// Take the window lock. No critical section leaves frames behind: each
    /// writes what it queued before it releases the lock.
    pub(super) fn lock(&self) -> MutexGuard<'_, WindowState<O>> {
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(st.queued(), 0, "frames left queued across sections");
        st
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// [`StreamWindow::now`] if the run is timed, else 0.
    fn stamp(&self) -> f64 {
        if self.timed {
            self.now()
        } else {
            0.0
        }
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

    /// End a critical section: release the lock, then wake exactly the
    /// sleepers whose condition it made true. Every mutation of the state
    /// goes through here.
    pub(super) fn finish(&self, mut st: MutexGuard<'_, WindowState<O>>) {
        if let Some(w) = &mut st.wire {
            w.flush();
        }
        let wakes = st.take_wakes();
        drop(st);
        self.notify(wakes);
    }

    // ---- planning side -------------------------------------------------

    /// Sleep once on `plan_cv`, registered as waiting for `wait`.
    pub(super) fn park_planner<'a>(
        &'a self,
        mut st: MutexGuard<'a, WindowState<O>>,
        wait: PlannerWait,
    ) -> MutexGuard<'a, WindowState<O>> {
        debug_assert_eq!(st.queued(), 0, "the planner parks with frames queued");
        st.planner_wait = Some(wait);
        st = self.plan_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(st.queued(), 0, "frames left queued across sections");
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

    /// Begin planning step `k`; the phases planned next are charged to it.
    pub fn open_step(&self, k: usize) {
        assert_ne!(k, NO_STEP);
        self.lock().steps.open(k);
    }

    /// Block until task `id` has no live record here: it ran its kernel,
    /// or, on a wire rank, its stand-in settled or it got none. Used by the
    /// driver to await a step's decision task, whose value is then in this
    /// process's copy.
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
        self.finish(st);
    }

    /// Block until every planned task has completed.
    pub fn wait_drained(&self) {
        self.plan_wait(PlannerWait::Drained);
    }

    /// Has the run failed (see [`StreamWindow::take_panic`] and
    /// [`StreamWindow::end_of_run`] for the cause)? Blocking waits return
    /// early on a failed run, so the driver checks before trusting them.
    pub(crate) fn failed(&self) -> bool {
        self.lock().failed()
    }

    /// Record a panic (a kernel's payload, or a marker for the planner's
    /// own unwind) as the run's sticky failure and wake every sleeper.
    pub(crate) fn fail_panicked(&self, payload: Box<dyn Any + Send>) {
        let mut st = self.lock();
        st.panic.get_or_insert(payload);
        self.finish(st);
    }

    /// The payload of the first kernel panic, for the driver to re-raise.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.lock().panic.take()
    }

    /// End of the run: what the window and its wire counted, as the
    /// run's report (the driver fills in what it timed: wall clock and
    /// steps) and on the probe.
    pub(super) fn report(&self) -> StreamReport {
        let mut st = self.lock();
        let st = &mut *st;
        let (kernel_stats, totals) = (st.kernel_stats.take(), st.msgs);
        let (planner_wakeups, worker_parks) = (st.planner_wakeups, st.worker_parks);
        st.probe.record_batch(|snap| {
            snap.add_counter(metric::STREAM_PLANNER_WAKEUPS, Label::None, planner_wakeups);
            snap.add_counter(metric::STREAM_WORKER_PARKS, Label::None, worker_parks);
            if let Some(ks) = &kernel_stats {
                for (class, (flops, hist)) in CostClass::ALL.iter().zip(ks.iter()) {
                    if hist.count > 0 {
                        let label = Label::Class(class.name());
                        snap.add_counter(metric::KERNEL_FLOPS, label, *flops as u64);
                        snap.merge_histogram(metric::KERNEL_SECONDS, label, hist);
                    }
                }
            }
            // Per-link payload traffic on the probe comes from a replay's
            // network (COMM_LINK_*); here we count the *protocol* messages
            // by kind, links included via `StreamReport::link_msgs`.
            for (kind, n) in [
                ("data", totals.data_msgs),
                ("decision", totals.decision_msgs),
            ] {
                if n > 0 {
                    snap.add_counter(metric::COMM_MSGS, Label::Kind(kind), n);
                }
            }
        });
        let mut report = StreamReport {
            tasks_planned: st.tasks_planned,
            ops_named: st.ops_named,
            boundary_writers: st.boundary[0],
            boundary_readers: st.boundary[1],
            tasks_executed: st.tally.executed,
            total_flops: st.tally.flops,
            peak_live_tasks: st.peak_live_tasks,
            peak_live_steps: st.steps.peak_live,
            per_step_tasks: st.steps.per_step_tasks.clone(),
            msgs: st.msgs,
            link_msgs: st
                .link_msgs
                .iter()
                .map(|(&(src, dst), &msgs)| LinkMsgStats { src, dst, msgs })
                .collect(),
            trace: st.trace.take().unwrap_or_default(),
            ..StreamReport::default()
        };
        report.net = st.wire.as_ref().map(|w| w.report(&st.probe));
        report
    }

    // ---- insertion (a phase from StepSink) -------------------------------

    /// Take in a planning phase of `step` ([`NO_STEP`]: the declarations
    /// before planning): its declarations, then its ops in insertion order,
    /// each linked to the predecessors the phase's sweep found, routed and
    /// queued — and, with `close`, the end of the step's planning. The
    /// sweep runs before the lock is taken; the rest is one critical
    /// section, which resolves each datum of the phase to its slot once.
    /// The phase's ops get the next ids in order, as the sink promised;
    /// returns the id after them.
    pub(super) fn plan_phase(&self, step: usize, phase: &mut Phase<O>, close: bool) -> TaskId {
        let ctx = &*self.ctx;
        let first = phase.ops.first().map_or(0, |op| op.position(ctx));
        if let Some(rank) = self.rank {
            phase.note_mine(ctx, rank);
        }
        if !phase.ops.is_empty() {
            phase.sweep(ctx, step, first, self.rank);
        }
        let mut guard = self.lock();
        let st = &mut *guard;
        for (key, bytes, home) in phase.decls.drain(..) {
            st.declare(ctx, step, key, bytes, home);
        }
        if !phase.ops.is_empty() {
            for (n, (key, slot)) in phase.data.iter_mut().enumerate() {
                *slot = *st.slot_of.get(key).unwrap_or_else(|| {
                    let d = phase.deps.iter().find(|d| d.datum as usize == n);
                    let name = d.map(|d| phase.ops[d.op as usize].name(ctx));
                    panic!(
                        "access to undeclared data {key:?} by task '{}'",
                        name.unwrap_or_default()
                    )
                });
            }
            let base = st.tasks.next_id();
            let end = base + phase.ops.len();
            assert!(u32::try_from(end).is_ok(), "task ids fit 32 bits");
            phase.cps.clear();
            phase.edges.clear();
            phase.sends.clear();
            for i in 0..phase.ops.len() {
                st.insert(ctx, step, base, i, phase);
            }
            // The phase's edges become its block, kept with its step (the
            // successors' step, so it lasts as long as they wait). On a wire
            // a phase may owe transfers to tasks elsewhere and link nothing.
            if !(phase.edges.is_empty() && phase.sends.is_empty()) {
                let mut block = Block::default();
                block
                    .succs
                    .write(end, &phase.edges, |&(p, s)| (p as usize, s));
                block
                    .sends
                    .write(end, &phase.sends, |&(w, s)| (w as usize, s));
                st.steps.live_mut(step).blocks.push(block);
            }
            // The phase's ops enter the step's table once all are in: until
            // then, they found each other by their index in the phase.
            let table = &mut st.steps.live_mut(step).tasks;
            table.resize(table.len().max(first + phase.ops.len()), None);
            for (i, (&depth, &node)) in phase.cps.iter().zip(&phase.nodes).enumerate() {
                debug_assert!(
                    table[first + i].is_none(),
                    "position {} planned twice",
                    first + i
                );
                let id = base + i;
                table[first + i] = Some(Planned { id, depth, node });
            }
            for &node in &phase.nodes {
                if st.runs(node) {
                    st.steps.planned(step);
                    st.tasks_planned += 1;
                }
            }
            st.peak_live_tasks = st.peak_live_tasks.max(st.tasks.live());
            phase.ops.clear();
            phase.nodes.clear();
        }

        if close {
            let now = if st.probe.is_enabled() {
                let t = self.now();
                st.step_closed_at.insert(step, t);
                t
            } else {
                0.0
            };
            // A step whose tasks all ran before it closed retires now.
            if st.steps.close(step) {
                st.retired(ctx, step, now);
            }
        }
        let next = st.tasks.next_id();
        self.finish(guard);
        next
    }

    // ---- execution side ------------------------------------------------

    /// Worker loop: pop the deepest ready task, run it outside the lock,
    /// and record its completion *and* pop the next task in one critical
    /// section. Returns when planning is done and the window has drained,
    /// or the run failed. A panicking kernel fails the run (the driver
    /// re-raises the payload) instead of leaving every other thread
    /// asleep; so does an op that did not execute — the window plans a
    /// branch op only once its branch has won.
    pub(crate) fn worker_loop(&self, worker: usize) {
        let mut next = self.next_task(self.lock());
        while let Some((id, op)) = next {
            let t0 = self.stamp();
            let run = std::panic::AssertUnwindSafe(|| {
                op.run(&self.ctx);
                let cost = op.cost(&self.ctx).filter(|c| c.executed);
                cost.unwrap_or_else(|| {
                    panic!("task '{}' completed without executing", op.name(&self.ctx))
                })
            });
            let cost = match std::panic::catch_unwind(run) {
                Ok(cost) => cost,
                Err(payload) => return self.fail_panicked(payload),
            };
            let t1 = self.stamp();
            let mut st = self.lock();
            st.complete_task(&self.ctx, id, cost, worker, t0, t1);
            next = self.next_task(st);
        }
    }

    /// The tail of a worker's critical section: take the deepest ready
    /// task, sleeping while there is none; `None` once the run is over.
    fn next_task(&self, mut st: MutexGuard<'_, WindowState<O>>) -> Option<(TaskId, O)> {
        loop {
            // What the completion queued goes out before this section can
            // end or sleep (a failed write fails the run here).
            if let Some(w) = &mut st.wire {
                w.flush();
            }
            let next = if st.failed() { None } else { st.pop_ready() };
            if next.is_some() || st.workers_done() {
                self.finish(st);
                return next;
            }
            st.parked_workers += 1;
            st.worker_parks += 1;
            // About to sleep: what this section owes is notified with the
            // lock held, released only inside the wait.
            let wakes = st.take_wakes();
            self.notify(wakes);
            st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            debug_assert_eq!(st.queued(), 0, "frames left queued across sections");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::StepSink;
    use super::*;
    use crate::graph::TaskSink;
    use crate::testing::{TestCtx, TestOp};

    fn record(tag: u64) -> LiveTask<u64> {
        LiveTask {
            op: tag,
            step: 0,
            cp: 1,
            preds_remaining: 0,
            node: 0,
            needs: 0..0,
        }
    }

    fn occupied(ring: &TaskRing<LiveTask<u64>>) -> usize {
        ring.slots.iter().filter(|s| s.is_some()).count()
    }

    #[test]
    fn ring_issues_sequential_ids_and_counts_live_records() {
        let mut ring = TaskRing::<LiveTask<u64>>::default();
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
        let mut ring = TaskRing::<LiveTask<u64>>::default();
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
        let mut ring = TaskRing::<LiveTask<u64>>::default();
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
        let mut ring = TaskRing::<LiveTask<u64>>::default();
        for _ in 0..3 {
            ring.push(record(7));
        }
        ring.remove(0);
        ring.remove(1);
        assert_eq!(ring.base, 2);
        // A step's table may still name the reclaimed tasks 0 and 1:
        // neither is live, so neither becomes an edge.
        let preds: Vec<TaskId> = [0, 1, 2].into_iter().filter(|&p| ring.is_live(p)).collect();
        assert_eq!(preds, vec![2]);
        assert!(ring.get_mut(0).is_none() && ring.remove(1).is_none());
    }

    /// A datum declared through a step's sink lives as long as the step:
    /// retirement drops its directory entry and its transfer-cache entry,
    /// tells the context, and hands the slot to the next declaration; data
    /// declared before planning stay.
    #[test]
    fn step_data_leave_the_directory_when_their_step_retires() {
        let ctx = Arc::new(TestCtx::default());
        let win = StreamWindow::<TestOp>::new(Arc::clone(&ctx), &StreamOptions::fixed(1, 1), None);
        let (tile, cell0, cell1) = (DataKey(1), DataKey(100), DataKey(101));
        let mut sink = StepSink::new(&win, 2);
        sink.declare(tile, 8, 0);
        sink.flush(false);
        for (step, cell) in [(0, cell0), (1, cell1)] {
            win.open_step(step);
            sink.step = step;
            sink.declare(cell, 8, 1);
            // Placed on two nodes, run on the local window's one.
            let accs = [Access::Read(tile), Access::Mut(cell)];
            let w = sink.push(0, ctx.op("w", &accs, TaskResult::control));
            let r = sink.push(1, ctx.op("r", &[Access::Read(cell)], TaskResult::control));
            sink.flush(true);
            let mut st = win.lock();
            let slot = st.slot_of[&cell];
            assert_eq!(
                slot,
                1,
                "step {step} reuses the slot step {} freed",
                step.max(1) - 1
            );
            assert_eq!(st.data[slot as usize].home, 0, "homed on the window's node");
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
            assert_eq!(st.holds[slot as usize], NOT_HELD);
            assert_eq!((st.data.len(), st.free_slots.as_slice()), (2, &[slot][..]));
            assert_eq!(st.msgs, MsgStats::default(), "nothing crosses");
        }
    }

    /// A producer's lists are spread over the block of every phase that
    /// names it — its own, its step's finish and both phases of the next
    /// step — and its completion walks them all: each local consumer is
    /// released once, ascending, and one transfer goes per (datum,
    /// destination), in the order the remote consumers were inserted. A
    /// step's blocks go when it retires. The window is rank 0 of three,
    /// whose peers never run.
    #[test]
    fn completion_walks_the_blocks_of_its_step_and_the_next() {
        let ctx = Arc::new(TestCtx::default());
        let net = super::super::NetConfig {
            transport: crate::net::loopback::loopback_set(3).remove(0),
            store: Arc::new(crate::testing::NullStore),
        };
        let wire = Wire::new(net, 3).expect("rank 0 of 3");
        let opts = StreamOptions::fixed(2, 1);
        let win = StreamWindow::<TestOp>::new(Arc::clone(&ctx), &opts, Some(wire));
        let (a, b) = (DataKey(1), DataKey(2));
        let mut sink = StepSink::new(&win, 3);
        sink.declare(a, 8, 0);
        sink.declare(b, 8, 0);
        sink.flush(false);
        let read = |sink: &mut StepSink<'_, TestOp>, node, key| {
            sink.push(node, ctx.op("c", &[Access::Read(key)], TaskResult::control))
        };
        win.open_step(0);
        sink.step = 0;
        let write = [Access::Mut(a), Access::Mut(b)];
        let p = sink.push(0, ctx.op("p", &write, TaskResult::control));
        let mut consumers = vec![read(&mut sink, 0, a)];
        read(&mut sink, 1, a);
        sink.flush(false);
        consumers.push(read(&mut sink, 0, a));
        read(&mut sink, 2, a);
        sink.flush(true);
        win.open_step(1);
        sink.step = 1;
        consumers.push(read(&mut sink, 0, b));
        read(&mut sink, 1, b);
        sink.flush(false);
        // Node 1 is owed `a` already: its last read adds no transfer.
        consumers.push(read(&mut sink, 0, b));
        read(&mut sink, 2, b);
        read(&mut sink, 1, a);
        sink.flush(true);

        let mut st = win.lock();
        let blocks = |st: &WindowState<TestOp>, s: usize| st.steps.get(s).map(|l| l.blocks.len());
        assert_eq!([blocks(&st, 0), blocks(&st, 1)], [Some(2), Some(2)]);
        // What the completion walk visits, in its order.
        let named = || (0..2).flat_map(|s| &st.steps.get(s).expect("live").blocks);
        let succs: Vec<TaskId> = named()
            .flat_map(|b| b.succs.get(p))
            .map(|&s| s as TaskId)
            .collect();
        let sends: Vec<_> = named()
            .flat_map(|b| b.sends.get(p))
            .map(|s| (s.key, s.dest))
            .collect();
        assert_eq!(succs, consumers);
        assert_eq!(sends, [(a, 1), (a, 2), (b, 1), (b, 2)]);

        assert_eq!(st.pop_ready().map(|(id, _)| id), Some(p));
        st.complete_task(&ctx, p, TaskResult::control(), 0, 0.0, 0.0);
        assert_eq!(st.msgs.data_msgs, 4);
        for link in [(0, 1), (0, 2)] {
            assert_eq!(st.link_msgs[&link].data_msgs, 2, "{link:?}");
        }
        let mut ready = Vec::new();
        while let Some((id, _)) = st.pop_ready() {
            ready.push(id);
        }
        ready.sort_unstable();
        assert_eq!(ready, consumers, "each consumer is released once");

        for &c in &consumers[..2] {
            st.complete_task(&ctx, c, TaskResult::control(), 0, 0.0, 0.0);
        }
        assert_eq!(*ctx.retired.lock().unwrap(), [0]);
        assert_eq!([blocks(&st, 0), blocks(&st, 1)], [None, Some(2)]);
        for &c in &consumers[2..] {
            st.complete_task(&ctx, c, TaskResult::control(), 0, 0.0, 0.0);
        }
        assert_eq!(*ctx.retired.lock().unwrap(), [0, 1]);
        assert_eq!(blocks(&st, 1), None);
        // The section's frames go out before the lock is released.
        win.finish(st);
    }

    /// Another rank's writer of a datum this rank still uses gets a
    /// stand-in: a live record that never reaches the ready queue, runs no
    /// kernel and is counted nowhere, and that holds the writer's local
    /// consumers until the users of the copy it overwrites have completed,
    /// however early its frame arrives. It waits for the stand-in of the
    /// version before as well, so a version with users here but no
    /// consumer still orders the next one. A writer nothing here uses gets
    /// no record. The window is rank 0 of three; the peers only send it a
    /// frame each.
    #[test]
    fn a_remote_writer_waits_here_as_a_stand_in_for_the_users_of_its_copy() {
        use crate::net::{Frame, Transport};
        let ctx = Arc::new(TestCtx::default());
        let mut peers = crate::net::loopback::loopback_set(3);
        let endpoint: Arc<dyn Transport> = peers.remove(0);
        let net = super::super::NetConfig {
            transport: Arc::clone(&endpoint),
            store: Arc::new(crate::testing::NullStore),
        };
        let wire = Wire::new(net, 3).expect("rank 0 of 3");
        let opts = StreamOptions::fixed(1, 1).with_trace();
        let win = StreamWindow::<TestOp>::new(Arc::clone(&ctx), &opts, Some(wire));
        let (a, b, d) = (DataKey(1), DataKey(2), DataKey(3));
        let mut sink = StepSink::new(&win, 3);
        for key in [a, b, d] {
            sink.declare(key, 8, 0);
        }
        sink.flush(false);
        win.open_step(0);
        sink.step = 0;
        let op = |name: &str, access| ctx.op(name, &[access], TaskResult::control);
        // `w` overwrites what the local `r` reads; `c` reads `w`'s version.
        let r = sink.push(0, op("r", Access::Read(a)));
        let w = sink.push(1, op("w", Access::Mut(a)));
        let c = sink.push(0, op("c", Access::Read(a)));
        // A chain: `w0`'s version has a user of its old copy here and no
        // consumer, and `c1` reads the version after it.
        let r0 = sink.push(0, op("r0", Access::Read(b)));
        let w0 = sink.push(1, op("w0", Access::Mut(b)));
        let w1 = sink.push(2, op("w1", Access::Mut(b)));
        let c1 = sink.push(0, op("c1", Access::Read(b)));
        // Nothing here uses what `w2` overwrites.
        let w2 = sink.push(1, op("w2", Access::Mut(d)));
        let c2 = sink.push(0, op("c2", Access::Read(d)));
        sink.flush(true);

        let waits = |st: &WindowState<TestOp>, id| st.tasks.get(id).map(|t| t.preds_remaining);
        let ready = |st: &mut WindowState<TestOp>| {
            let mut ids = Vec::new();
            while let Some((id, _)) = st.pop_ready() {
                ids.push(id);
            }
            ids
        };
        let mut st = win.lock();
        let stand_ins = [w, w0, w1, w2].map(|id| waits(&st, id));
        assert_eq!(stand_ins, [Some(1), Some(1), Some(1), None]);
        // A consumer waits for the stand-in and the frame, or the frame.
        assert_eq!(
            [c, c1, c2].map(|id| waits(&st, id)),
            [Some(2), Some(2), Some(1)]
        );
        assert_eq!(ready(&mut st), [r, r0]);
        win.finish(st);

        // The frames come first: only `c2`, which no stand-in holds, runs.
        for (peer, key, producer) in [(1, a, w), (2, b, w1), (1, d, w2)] {
            let frame = Frame::Data {
                key,
                producer: Some(producer),
                from: peer as u32,
                to: 0,
                class: DataClass::Payload,
                modeled_bytes: 8,
                payload: Vec::new(),
            };
            peers[peer - 1].send(0, &frame).expect("a loopback send");
        }
        endpoint.shutdown();
        win.pump_frames(&*endpoint);
        let mut st = win.lock();
        assert_eq!(ready(&mut st), [c2]);
        let done = TaskResult::control();
        st.complete_task(&ctx, r, done, 0, 0.0, 0.0);
        assert!(!st.tasks.is_live(w), "w's stand-in settles with r");
        assert_eq!(ready(&mut st), [c]);
        st.complete_task(&ctx, r0, done, 0, 0.0, 0.0);
        assert!(!st.tasks.is_live(w0) && !st.tasks.is_live(w1));
        assert_eq!(ready(&mut st), [c1]);
        for id in [c, c1, c2] {
            st.complete_task(&ctx, id, done, 0, 0.0, 0.0);
        }
        assert_eq!((st.tasks.live(), st.ready.len()), (0, 0));
        assert_eq!(*ctx.retired.lock().unwrap(), [0]);
        win.finish(st);

        let report = win.report();
        let traced: Vec<_> = report.trace.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(traced, ["r", "r0", "c", "c1", "c2"]);
        assert_eq!((report.tasks_planned, report.tasks_executed), (5, 5));
        assert_eq!(report.per_step_tasks, [5]);
    }

    /// The window end to end at the table level: a consumer inserted (in a
    /// later phase) after its producer completed gets no edge and is
    /// runnable at once.
    #[test]
    fn completed_producer_leaves_no_edge() {
        let ctx = Arc::new(TestCtx::default());
        let win = StreamWindow::<TestOp>::new(Arc::clone(&ctx), &StreamOptions::fixed(1, 1), None);
        let key = DataKey(1);
        let mut sink = StepSink::new(&win, 1);
        sink.declare(key, 8, 0);
        sink.flush(false);
        win.open_step(0);
        sink.step = 0;
        let a = sink.push(0, ctx.op("a", &[Access::Mut(key)], TaskResult::control));
        sink.flush(false);
        {
            let mut st = win.lock();
            let (id, _) = st.pop_ready().expect("a is runnable");
            assert_eq!(id, a);
            st.complete_task(&ctx, a, TaskResult::control(), 0, 0.0, 0.0);
            assert_eq!((st.tasks.base, st.tasks.live()), (1, 0));
        }
        let b = sink.push(0, ctx.op("b", &[Access::Read(key)], TaskResult::control));
        sink.flush(false);
        let mut st = win.lock();
        assert_eq!(st.tasks.get_mut(b).expect("b is live").preds_remaining, 0);
        assert_eq!(st.pop_ready().map(|(id, _)| id), Some(b));
        assert_eq!(st.tasks.live(), 1);
    }
}
