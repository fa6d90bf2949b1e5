//! The batch task graph: a parameterized task graph, unrolled.
//!
//! The PaRSEC runtime used by the paper represents algorithms as
//! parameterized task graphs: a task is `(class, k, i, j)` and its body,
//! name, accesses, cost and dependencies are functions of that tuple. Here
//! a task is a [`TaskOp`] — a `Copy` descriptor the algorithm layer
//! defines — and the runtime stores that descriptor, the task's placement,
//! its edges and its countdown, and nothing else per task: names are
//! rendered when a trace event or a DOT node is emitted, accesses and costs
//! are derived again when a graph is replayed, and the body is one call
//! into the op's interpreter against the run's shared context
//! ([`TaskOp::Ctx`]). The runtime is generic over the op type and never
//! sees the algorithm layer's op set.
//!
//! Tasks are inserted in order by the algorithm driver, a planning phase
//! at a time, and the edges are the algorithm's: one sweep per phase
//! ([`TaskOp::for_each_predecessor`], computed from the ops' indices —
//! the PTG's input flows) feeds both sinks. They are the RAW / WAR / WAW
//! hazards over the [`DataKey`]s each op reads and writes, including the
//! pipelining between consecutive elimination steps. Both keep them in one
//! store: a phase's edges become one block of successor lists keyed by
//! predecessor id (a `Csr`), which the batch [`Graph`] keeps for its whole
//! life and the streaming window keeps with the phase's step until the
//! step retires. A phase names predecessors only in its own step and the
//! one before, so a task's successors are in the blocks of its step and
//! of the next.
//!
//! The paper's *dynamic* task-graph extension (Section IV) is modelled
//! exactly: the graph statically contains **both** the LU-branch and the
//! QR-branch tasks of every step; the panel task records its criterion
//! decision, and each branch op consults it at execution time, either
//! performing its kernel or doing nothing. Its cost ([`TaskOp::cost`])
//! reads the same decision: the losing branch is "discarded" (`executed =
//! false`), costs nothing and transfers nothing — the Propagate-selected
//! dead paths of Figure 1.

use std::ops::Range;
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

use crate::hash::IntMap;

/// Identifier of a task within one [`Graph`].
pub type TaskId = usize;

/// Opaque identifier for a unit of data (a tile, a T-factor, a backup copy,
/// a decision cell...). The algorithm layer chooses the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataKey(pub u64);

/// How a task touches a datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Shared read.
    Read(DataKey),
    /// Exclusive read-write (covers write-only; tiles are updated in place).
    Mut(DataKey),
    /// Ordering-only dependency: wait for the datum's last writer but move
    /// no data (models synchronization barriers, e.g. ScaLAPACK's
    /// bulk-synchronous steps).
    Control(DataKey),
}

impl Access {
    pub fn key(&self) -> DataKey {
        match self {
            Access::Read(k) | Access::Mut(k) | Access::Control(k) => *k,
        }
    }
}

/// What kind of payload a datum carries, for message classification in the
/// distributed streaming protocol (see [`crate::comm`]): tiles and factors
/// are [`DataClass::Payload`]; the hybrid's per-step LU/QR criterion
/// decision — broadcast from the panel-owner node — is
/// [`DataClass::Decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataClass {
    #[default]
    Payload,
    Decision,
}

/// A planned task, named by its step and its position there
/// ([`TaskOp::position`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pred {
    pub step: usize,
    pub pos: usize,
}

/// One access of an op of a planning phase, with the tasks it waits for
/// through it ([`TaskOp::for_each_predecessor`]).
#[derive(Debug, Clone, Copy)]
pub struct Visit<'a> {
    /// The op, by its index in the phase's insertion order.
    pub op: usize,
    pub access: Access,
    /// The datum's last writer before the access; `None` if nobody wrote
    /// it yet.
    pub writer: Option<Pred>,
    /// For a write, the readers since `writer`; empty for any other
    /// access.
    pub readers: &'a [Pred],
}

/// What the sweep of one planning phase visits
/// ([`TaskOp::for_each_predecessor`]): every access of every op, or what
/// one rank's share of the plan needs.
///
/// A rank sweeps only some data ([`Share::sweeps`]). Of a datum it sweeps,
/// it visits:
///
/// * every access of an op visited in full ([`Share::full`]): one placed on
///   the rank, or one that writes a datum the rank sweeps — it makes
///   versions the rank's tasks read, and their depth builds on its own;
/// * of any other op, only its first read of each version the rank may
///   source, once per destination node in the phase ([`Share::reads`]):
///   routing sends a version once per destination anyway, so later reads
///   add nothing;
///
/// and no other access. A `readers` list names no op of the phase whose
/// read the sweep did not visit.
#[derive(Clone, Copy)]
pub struct Share<'a> {
    /// The rank; `None`: every access is visited.
    rank: Option<usize>,
    /// The node each op of the phase is placed on.
    nodes: &'a [usize],
    /// Per op of the phase: visited in full.
    full: &'a [bool],
    /// The indices of the ops visited in full, ascending.
    full_ops: &'a [u32],
    /// The data the rank sweeps.
    data: &'a dyn Fn(DataKey) -> bool,
}

fn every_datum(_: DataKey) -> bool {
    true
}

impl Share<'static> {
    /// Every access of every op: the batch builder's and the counted
    /// fabric's sweep.
    pub fn all() -> Self {
        Share {
            rank: None,
            nodes: &[],
            full: &[],
            full_ops: &[],
            data: &every_datum,
        }
    }
}

impl<'a> Share<'a> {
    /// Rank `rank`'s share of a phase whose ops are placed on `nodes`:
    /// `full` says which of them it visits in full (`full_ops` lists them,
    /// ascending), `data` which data it sweeps.
    pub fn rank(
        rank: usize,
        nodes: &'a [usize],
        full: &'a [bool],
        full_ops: &'a [u32],
        data: &'a dyn Fn(DataKey) -> bool,
    ) -> Self {
        debug_assert_eq!(nodes.len(), full.len());
        debug_assert!(full_ops.windows(2).all(|w| w[0] < w[1]));
        Share {
            rank: Some(rank),
            nodes,
            full,
            full_ops,
            data,
        }
    }

    /// The rank whose share this is; `None` for [`Share::all`].
    pub fn of(&self) -> Option<usize> {
        self.rank
    }

    /// Is datum `key` swept at all?
    pub fn sweeps(&self, key: DataKey) -> bool {
        (self.data)(key)
    }

    /// Are all accesses of op `op` (its index in the phase) visited?
    #[inline]
    pub fn full(&self, op: usize) -> bool {
        self.rank.is_none() || self.full[op]
    }

    /// The node op `op` is placed on (a rank's share only).
    #[inline]
    pub fn node(&self, op: usize) -> usize {
        self.nodes[op]
    }

    /// The ops visited in full among the phase indices `ops`, ascending (a
    /// rank's share only).
    pub fn full_in(&self, ops: Range<usize>) -> &'a [u32] {
        let at = |i: usize| self.full_ops.partition_point(|&o| (o as usize) < i);
        &self.full_ops[at(ops.start)..at(ops.end)]
    }

    /// Does the sweep visit a read by op `op` of `version` (its writer;
    /// `None`: the initial value), which lives on node `src` (`None`: a
    /// source the caller cannot tell)? `routed` is the sweep's record for
    /// the datum: an op visited in full is, and its node counts as served;
    /// any other only if the rank may source the version and no read of it
    /// by the op's node was visited yet.
    #[inline]
    pub fn reads(
        &self,
        op: usize,
        version: Option<Pred>,
        src: Option<usize>,
        routed: &mut Routed,
    ) -> bool {
        let Some(rank) = self.rank else {
            return true;
        };
        if routed.version != Some(version) {
            *routed = Routed {
                version: Some(version),
                dests: 0,
            };
        }
        // Nodes past the mask's width are never marked: each such read is
        // visited, and routing dedups it.
        let bit = 1u64.checked_shl(self.nodes[op] as u32).unwrap_or(0);
        if self.full[op] {
            routed.dests |= bit;
            return true;
        }
        if src.is_some_and(|s| s != rank) || routed.dests & bit != 0 {
            return false;
        }
        routed.dests |= bit;
        true
    }
}

/// A sweep's record of one datum for [`Share::reads`]: the version whose
/// reads it has visited, and the destination nodes it visited them for.
#[derive(Debug, Clone, Copy, Default)]
pub struct Routed {
    version: Option<Option<Pred>>,
    dests: u64,
}

impl Routed {
    /// Forget everything: the sweep moves on to another datum.
    pub fn reset(&mut self) {
        *self = Routed::default();
    }
}

/// An access paired with the accessed datum's declaration. This is what
/// the virtual-time simulator consumes: it lets the communication model be
/// replayed from the task sequence alone, identically for a materialized
/// batch graph (which re-derives the accesses from each op) and for the
/// streaming window's reclaimed records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostedAccess {
    pub access: Access,
    /// Declared size of the datum, bytes.
    pub bytes: usize,
    /// Node the datum initially resides on.
    pub home: usize,
}

/// Broad kernel classes used by the platform simulator to assign per-class
/// efficiencies (a GEMM runs near peak; a panel factorization does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Matrix-matrix multiply updates (LU trailing updates).
    Gemm,
    /// Triangular solves.
    Trsm,
    /// LU panel / diagonal factorizations (pivot search limits efficiency).
    PanelFactor,
    /// QR factorization kernels (GEQRT / TSQRT / TTQRT).
    QrFactor,
    /// QR apply kernels (UNMQR / TSMQR / TTMQR).
    QrApply,
    /// Criterion computation and norm estimation.
    Estimate,
    /// Memory movement (backup / restore / swaps) — bandwidth bound.
    Memory,
    /// Pure control flow (decision propagation) — negligible cost.
    Control,
}

impl CostClass {
    /// Number of cost classes (array-indexed per-class accounting).
    pub const COUNT: usize = 8;

    /// Every class, in [`CostClass::index`] order.
    pub const ALL: [CostClass; CostClass::COUNT] = [
        CostClass::Gemm,
        CostClass::Trsm,
        CostClass::PanelFactor,
        CostClass::QrFactor,
        CostClass::QrApply,
        CostClass::Estimate,
        CostClass::Memory,
        CostClass::Control,
    ];

    /// Dense index of this class (for `[f64; CostClass::COUNT]` tables).
    pub fn index(self) -> usize {
        match self {
            CostClass::Gemm => 0,
            CostClass::Trsm => 1,
            CostClass::PanelFactor => 2,
            CostClass::QrFactor => 3,
            CostClass::QrApply => 4,
            CostClass::Estimate => 5,
            CostClass::Memory => 6,
            CostClass::Control => 7,
        }
    }

    /// Whether the class performs floating-point work (`flops` is real
    /// arithmetic, not bytes or bookkeeping).
    pub fn is_compute(self) -> bool {
        !matches!(self, CostClass::Memory | CostClass::Control)
    }

    /// Short stable identifier, used as the `class` label on per-kernel
    /// probe metrics (`luqr_kernel_flops_total{class="gemm"}`).
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Gemm => "gemm",
            CostClass::Trsm => "trsm",
            CostClass::PanelFactor => "panel",
            CostClass::QrFactor => "qr-factor",
            CostClass::QrApply => "qr-apply",
            CostClass::Estimate => "estimate",
            CostClass::Memory => "memory",
            CostClass::Control => "control",
        }
    }
}

/// What a task costs: the flops and kernel class the executors tally and
/// the platform simulator prices. A closed form of the op's indices, tile
/// shapes and step decision ([`TaskOp::cost`]), not a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskResult {
    /// Floating-point operations the kernel performs.
    pub flops: f64,
    /// Cost class for the simulator's efficiency model.
    pub class: CostClass,
    /// `false` when the task was a discarded branch (no work, no data flow).
    pub executed: bool,
    /// Cores the kernel occupies on its node (clamped to the node size by
    /// the simulator; `u32::MAX` = the whole node). The paper's panel
    /// factorizations use PLASMA's *multi-threaded* recursive-LU kernel —
    /// this is how that is expressed.
    pub cores: u32,
    /// Synchronization rounds inherent to the kernel (e.g. per-column pivot
    /// all-reduces of a distributed LUPP panel); each costs one network
    /// latency in the simulator.
    pub latency_events: u32,
}

impl TaskResult {
    /// A task that ran and performed `flops` work of the given class.
    pub fn executed(flops: f64, class: CostClass) -> Self {
        TaskResult {
            flops,
            class,
            executed: true,
            cores: 1,
            latency_events: 0,
        }
    }

    /// A task on the losing side of its step's decision: it does nothing.
    pub fn discarded() -> Self {
        TaskResult {
            flops: 0.0,
            class: CostClass::Control,
            executed: false,
            cores: 1,
            latency_events: 0,
        }
    }

    /// A zero-flop control task (decision broadcast, propagation).
    pub fn control() -> Self {
        TaskResult {
            flops: 0.0,
            class: CostClass::Control,
            executed: true,
            cores: 1,
            latency_events: 0,
        }
    }

    /// A memory-movement task of `bytes` volume (backup/restore); the
    /// simulator converts bytes to seconds via memory bandwidth.
    pub fn memory(bytes: usize) -> Self {
        TaskResult {
            flops: bytes as f64, // interpreted as bytes by CostClass::Memory
            class: CostClass::Memory,
            executed: true,
            cores: 1,
            latency_events: 0,
        }
    }

    /// Occupy `cores` cores on the owner node (`u32::MAX` = whole node).
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Charge `n` synchronization latencies to this task.
    pub fn with_latency_events(mut self, n: u32) -> Self {
        self.latency_events = n;
        self
    }
}

/// A task descriptor: plain `Copy` data from which everything the runtime
/// needs about the task is *derived on demand* — its body, its cost, its
/// name, its elimination step and its data accesses — against one per-run
/// context ([`TaskOp::Ctx`]: the tiles, the per-step cells, the options).
/// This is PaRSEC's `(class, k, i, j)`: the runtime stores the descriptor
/// and nothing per task that the descriptor determines.
///
/// The runtime is generic over the op type, so it knows nothing of the
/// algorithm layer's op set; its own tests implement the trait for a body
/// table of their own.
pub trait TaskOp: Copy + Send + Sync + 'static {
    /// What an op is interpreted against. One per run, shared by every
    /// thread that plans, executes or renders ops.
    type Ctx: Send + Sync + 'static;

    /// Execute the task body.
    fn run(self, ctx: &Self::Ctx);

    /// What the task costs ([`TaskResult`]): a discarded one when the
    /// step's decision went against it. `None` while the cost waits for a
    /// decision the step has not taken yet; never once the task has run.
    fn cost(self, ctx: &Self::Ctx) -> Option<TaskResult>;

    /// The elimination step the task belongs to — the streaming window's
    /// retirement unit and the `step` of a [`crate::trace::TraceEvent`].
    fn step(self, ctx: &Self::Ctx) -> Option<usize>;

    /// Append the task's human-readable name (`"GEMM(3,4,k=2)"`). Called
    /// only when a trace event, a DOT node or a diagnostic is rendered.
    fn write_name(self, ctx: &Self::Ctx, out: &mut String);

    /// Visit the task's data accesses, in declaration order. Must yield
    /// the same sequence every time it is called for the same op.
    fn for_each_access(self, ctx: &Self::Ctx, f: impl FnMut(Access));

    /// The op's position in its step's insertion order: the batch
    /// [`GraphBuilder`] gives it the id where its step starts plus this
    /// position, and the streaming window finds it there in its step's
    /// table.
    fn position(self, ctx: &Self::Ctx) -> usize;

    /// Visit every access of `ops` — what one planning phase inserted into
    /// `step`, in insertion order, at consecutive positions from `ops[0]`'s
    /// on — with the tasks it waits for: the datum's last writer before it,
    /// and for a write also the readers since that write. Visits come datum
    /// by datum, one sweep over each datum's access sequence; the streaming
    /// window resolves a datum once per run of visits to it. Steps count as
    /// planned: one whose branch decision is recorded holds only the chosen
    /// branch. `share` says which visits are made: all of them, or what
    /// one rank's share needs ([`Share`]) — a rank that plans only its
    /// share has no use for the data its tasks never touch, nor for the
    /// reads of other ranks' ops that route nothing from it.
    fn for_each_predecessor(
        ctx: &Self::Ctx,
        step: usize,
        ops: &[Self],
        share: &Share<'_>,
        f: impl FnMut(Visit<'_>),
    );

    /// Message class of a datum (see [`DataClass`]).
    fn data_class(_ctx: &Self::Ctx, _key: DataKey) -> DataClass {
        DataClass::Payload
    }

    /// Every task of `step` has completed (on this rank, in a distributed
    /// run): the context may drop what only that step's task bodies used.
    /// Called once per step by the batch executor and by the streaming
    /// window; names, steps, accesses and costs of the step's ops must keep
    /// deriving afterwards (graphs are replayed after they ran).
    fn retire_step(_ctx: &Self::Ctx, _step: usize) {}

    /// The rendered name, as an owned string.
    fn name(self, ctx: &Self::Ctx) -> String {
        let mut s = String::new();
        self.write_name(ctx, &mut s);
        s
    }
}

/// Destination of task insertion: either the batch [`GraphBuilder`] (the
/// whole factorization is materialized, then executed) or the streaming
/// window ([`crate::stream`], tasks execute while later steps are still
/// being planned). Algorithm planners write against this trait so the same
/// insertion code drives both runtimes. One sweep per planning phase
/// feeds both sinks: each takes the phase's closed-form predecessors
/// ([`TaskOp::for_each_predecessor`]), the RAW/WAR/WAW edges of the ops'
/// accesses — what keeps batch and streaming execution bitwise-identical.
/// A sink hands out each task's id at once; the batch graph's driver
/// closes a step as one phase ([`GraphBuilder::close_phase`]), while the
/// window's sink buffers a phase's declarations and insertions and the
/// window takes them in with one sweep per datum and one critical section.
pub trait TaskSink<O: TaskOp> {
    /// Number of virtual nodes task placements may reference.
    fn num_nodes(&self) -> usize;

    /// Declare a datum: its size in bytes (communication costing) and the
    /// node where it initially resides. A datum declared while a step is
    /// being planned belongs to that step: only the step's tasks may
    /// access it, and the streaming window forgets it when the step
    /// retires (the batch graph keeps every declaration, for replay).
    /// Redeclaring a key replaces both values, but the two sinks differ in which
    /// tasks see the replacement: the streaming window prices a task's
    /// accesses when its planning phase is inserted, after the phase's
    /// declarations, so the tasks of that phase and later ones do; the batch
    /// [`GraphBuilder`] keeps one declaration per key and prices accesses
    /// when the graph is replayed ([`TaskRef::accesses`], the simulator),
    /// so every task of the graph does. A planner that wants both sinks to
    /// agree declares a key's size and home once.
    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize);

    /// Insert a task placed on `node`, and return its id: its dependencies
    /// are the RAW / WAR / WAW hazards of its accesses on the tasks
    /// inserted before it.
    fn push(&mut self, node: usize, op: O) -> TaskId;
}

/// The stored part of one task: its descriptor, its placement and how many
/// tasks it waits for. Everything else is derived from `op`.
struct TaskRec<O> {
    op: O,
    node: u32,
    num_preds: u32,
}

/// Metadata for one declared datum.
#[derive(Debug, Clone, Copy)]
struct DataInfo {
    bytes: usize,
    home_node: usize,
}

/// Lists keyed by a dense range of ids, in one compressed array (a CSR):
/// the list of key `lo + i` is `vals[start[i]..start[i + 1]]`, and a key
/// outside the range has an empty one. Every such store of the runtime is
/// written by [`Csr::write`]: a planning phase's successor lists in the
/// batch [`Graph`] and in the streaming window, the window's owed
/// transfers, and its sweep's dependencies by op.
#[derive(Debug)]
pub(crate) struct Csr<T> {
    lo: usize,
    start: Vec<u32>,
    vals: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            lo: 0,
            start: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<T: Copy> Csr<T> {
    /// Replace the lists with those of `items`, keyed from the lowest key
    /// up to `end`; `split` gives an item's key and value. A stable counting
    /// sort: a key's values keep their order in `items`. Reuses the
    /// buffers, so rewriting a store allocates only to grow it.
    pub(crate) fn write<I>(&mut self, end: usize, items: &[I], split: impl Fn(&I) -> (usize, T)) {
        let Csr { lo, start, vals } = self;
        start.clear();
        vals.clear();
        let Some(first) = items.first() else { return };
        *lo = items.iter().map(|i| split(i).0).min().unwrap_or(end);
        assert!(
            u32::try_from(items.len()).is_ok(),
            "list lengths fit 32 bits"
        );
        // `start[k + 2]` counts key `lo + k`'s values; the running sum
        // leaves where they start in `start[k + 1]`, and filling advances
        // it to where they end, which is where key `lo + k + 1`'s values
        // start.
        start.resize(end - *lo + 2, 0);
        for i in items {
            start[split(i).0 - *lo + 2] += 1;
        }
        for k in 2..start.len() {
            start[k] += start[k - 1];
        }
        vals.resize(items.len(), split(first).1);
        for i in items {
            let (key, val) = split(i);
            let at = &mut start[key - *lo + 1];
            vals[*at as usize] = val;
            *at += 1;
        }
        start.pop();
    }

    /// The list of `key`.
    pub(crate) fn get(&self, key: usize) -> &[T] {
        match key
            .checked_sub(self.lo)
            .filter(|&i| i + 1 < self.start.len())
        {
            Some(i) => &self.vals[self.start[i] as usize..self.start[i + 1] as usize],
            None => &[],
        }
    }
}

impl<T: Copy + Ord> Csr<T> {
    /// Sort each list and drop its repeats, in place.
    fn sort_dedup(&mut self) {
        let (mut from, mut w) = (0, 0);
        for k in 1..self.start.len() {
            let to = self.start[k] as usize;
            self.vals[from..to].sort_unstable();
            let first = w;
            for r in from..to {
                if w == first || self.vals[w - 1] != self.vals[r] {
                    self.vals[w] = self.vals[r];
                    w += 1;
                }
            }
            self.start[k] = w as u32;
            from = to;
        }
        self.vals.truncate(w);
    }
}

/// Immutable, executable task graph: one descriptor record per task, one
/// block of successor lists per planning phase, and the run context the
/// descriptors are interpreted against.
pub struct Graph<O: TaskOp> {
    /// Number of virtual nodes referenced by task placements.
    pub num_nodes: usize,
    ctx: Arc<O::Ctx>,
    tasks: Vec<TaskRec<O>>,
    /// Each planning phase's successor lists, keyed by predecessor id, in
    /// planning order.
    blocks: Vec<Csr<u32>>,
    /// Per step, the id of its first task and the index of its first
    /// block.
    steps: Vec<(TaskId, usize)>,
    /// Per task, its predecessors that have not completed yet; the
    /// executor sets it to [`crate::exec::RAN`] when the task runs.
    pub(crate) countdown: Vec<AtomicU32>,
    /// Tasks of each step that have not run yet, by step; the executor
    /// retires a step when its count reaches zero.
    pub(crate) step_remaining: Vec<AtomicU32>,
    data: IntMap<DataKey, DataInfo>,
}

/// One task of a [`Graph`], for inspection (simulation, traces, tests).
pub struct TaskRef<'g, O: TaskOp> {
    graph: &'g Graph<O>,
    /// The task's id (its insertion index).
    pub id: TaskId,
}

impl<'g, O: TaskOp> TaskRef<'g, O> {
    /// The task's descriptor.
    pub fn op(&self) -> O {
        self.graph.tasks[self.id].op
    }

    /// Owner node in the virtual platform (owner-computes placement).
    pub fn node(&self) -> usize {
        self.graph.tasks[self.id].node as usize
    }

    /// Number of predecessors.
    pub fn num_preds(&self) -> usize {
        self.graph.tasks[self.id].num_preds as usize
    }

    /// Successor task ids, ascending: the task's lists in the blocks of
    /// its step and of the next one — the only phases that can name it.
    pub fn successors(&self) -> impl Iterator<Item = TaskId> + 'g {
        let (g, id) = (self.graph, self.id);
        let step = g.steps.partition_point(|&(start, _)| start <= id) - 1;
        let first = g.steps[step].1;
        let end = g.steps.get(step + 2).map_or(g.blocks.len(), |s| s.1);
        g.blocks[first..end]
            .iter()
            .flat_map(move |b| b.get(id))
            .map(|&s| s as TaskId)
    }

    /// What the task costs ([`TaskOp::cost`]): `None` only for a task
    /// whose step has no decision yet that its cost depends on.
    pub fn cost(&self) -> Option<TaskResult> {
        self.op().cost(&self.graph.ctx)
    }

    /// Human-readable name (trace / DOT export), e.g. `"GEMM(3,4,k=2)"`,
    /// rendered now.
    pub fn name(&self) -> String {
        self.op().name(&self.graph.ctx)
    }

    /// Elimination step of the task.
    pub fn step(&self) -> Option<usize> {
        self.op().step(&self.graph.ctx)
    }

    /// The task's accesses paired with their data's declarations — what
    /// the virtual-time simulator consumes.
    pub fn accesses(&self) -> Vec<CostedAccess> {
        let mut out = Vec::new();
        self.accesses_into(&mut out);
        out
    }

    /// [`TaskRef::accesses`] into a caller-kept buffer (cleared first).
    pub fn accesses_into(&self, out: &mut Vec<CostedAccess>) {
        out.clear();
        let data = &self.graph.data;
        self.op().for_each_access(&self.graph.ctx, |access| {
            let info = data[&access.key()];
            out.push(CostedAccess {
                access,
                bytes: info.bytes,
                home: info.home_node,
            });
        });
    }
}

impl<O: TaskOp> Graph<O> {
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The context the graph's ops are interpreted against.
    pub fn ctx(&self) -> &O::Ctx {
        &self.ctx
    }

    /// Task `id`.
    pub fn task(&self, id: TaskId) -> TaskRef<'_, O> {
        assert!(id < self.tasks.len(), "task id out of range");
        TaskRef { graph: self, id }
    }

    /// Every task, in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskRef<'_, O>> {
        (0..self.tasks.len()).map(move |id| TaskRef { graph: self, id })
    }

    /// Ids of tasks with no predecessors.
    pub fn roots(&self) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&t| self.tasks[t].num_preds == 0)
            .collect()
    }

    /// Verify the graph is acyclic and edges are well formed (debug aid;
    /// built graphs are acyclic by construction, since
    /// [`GraphBuilder::close_phase`] accepts edges only from earlier to
    /// later insertions).
    pub fn validate(&self) -> Result<(), String> {
        for t in self.tasks() {
            for s in t.successors() {
                if s <= t.id {
                    return Err(format!("edge {} -> {s} violates insertion order", t.id));
                }
                if s >= self.tasks.len() {
                    return Err(format!("edge {} -> {s} out of range", t.id));
                }
            }
        }
        Ok(())
    }
}

/// Builds a [`Graph`]: tasks are inserted in order, each with its
/// placement, a planning phase at a time, and the edges are the ones the
/// streaming window links — [`GraphBuilder::close_phase`] takes the
/// phase's predecessors from one sweep ([`TaskOp::for_each_predecessor`]),
/// names each by its id, where its step starts plus its position there,
/// and writes them at once as the phase's block of successor lists. A
/// phase names predecessors only in its own step and the one before.
/// Accesses are derived again only when the graph is replayed.
pub struct GraphBuilder<O: TaskOp> {
    num_nodes: usize,
    ctx: Arc<O::Ctx>,
    tasks: Vec<TaskRec<O>>,
    data: IntMap<DataKey, DataInfo>,
    /// The ops pushed since the last closed phase.
    phase: Vec<O>,
    /// The edges of the phase being closed, `(pred, succ)`.
    edges: Vec<(u32, u32)>,
    blocks: Vec<Csr<u32>>,
    /// Per planned step, the id of its first task and its first block.
    steps: Vec<(TaskId, usize)>,
}

impl<O: TaskOp> GraphBuilder<O> {
    pub fn new(num_nodes: usize, ctx: Arc<O::Ctx>) -> Self {
        assert!(num_nodes >= 1);
        GraphBuilder {
            num_nodes,
            ctx,
            tasks: Vec::new(),
            data: IntMap::default(),
            phase: Vec::new(),
            edges: Vec::new(),
            blocks: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Close a planning phase of `step`: the ops pushed since the last
    /// call, at consecutive positions of the step ([`TaskOp::position`]).
    /// Steps are planned in order from 0, each in one phase or more. The
    /// phase's block is written now: each predecessor's successors in the
    /// phase, ascending and without repeats.
    pub fn close_phase(&mut self, step: usize) {
        let lo = self.tasks.len() - self.phase.len();
        if step == self.steps.len() {
            let pos = self.phase.first().map_or(0, |op| op.position(&self.ctx));
            self.steps.push((lo - pos, self.blocks.len()));
        }
        assert_eq!(step + 1, self.steps.len(), "steps in order");
        let ctx = &*self.ctx;
        #[cfg(debug_assertions)]
        for (n, op) in self.phase.iter().enumerate() {
            let start = self.steps[step].0;
            assert_eq!(
                start + op.position(ctx),
                lo + n,
                "{} is at its position in step {step}, which starts at id {start}",
                op.name(ctx)
            );
        }
        let GraphBuilder {
            tasks,
            phase,
            edges,
            steps,
            ..
        } = self;
        // The earliest task the phase may name: its step's, or the one
        // before's, first.
        let floor = steps[step.saturating_sub(1)].0;
        edges.clear();
        O::for_each_predecessor(ctx, step, phase, &Share::all(), |v| {
            let id = lo + v.op;
            for &p in v.writer.iter().chain(v.readers) {
                let pred = steps.get(p.step).map(|s| s.0 + p.pos);
                let Some(pred) = pred.filter(|&q| q >= floor && q < id) else {
                    let named = pred
                        .filter(|&q| q < tasks.len())
                        .map(|q| tasks[q].op.name(ctx));
                    panic!(
                        "{} waits for {p:?} ({named:?}): not an earlier task of its step or the one before",
                        tasks[id].op.name(ctx)
                    );
                };
                edges.push((pred as u32, id as u32));
            }
        });
        let mut block = Csr::default();
        block.write(tasks.len(), edges, |&(p, s)| (p as usize, s));
        block.sort_dedup();
        for &s in &block.vals {
            tasks[s as usize].num_preds += 1;
        }
        self.blocks.push(block);
        phase.clear();
    }

    /// Finalize into an executable [`Graph`]. Every op must be in a closed
    /// phase.
    pub fn build(self) -> Graph<O> {
        assert!(self.phase.is_empty(), "every task is in a closed phase");
        // The phase and edge buffers go before the execution cells are
        // allocated.
        drop((self.phase, self.edges));
        let mut step_remaining: Vec<AtomicU32> = Vec::new();
        for t in &self.tasks {
            if let Some(step) = t.op.step(&self.ctx) {
                if step_remaining.len() <= step {
                    step_remaining.resize_with(step + 1, AtomicU32::default);
                }
                *step_remaining[step].get_mut() += 1;
            }
        }
        let g = Graph {
            num_nodes: self.num_nodes,
            step_remaining,
            ctx: self.ctx,
            countdown: self
                .tasks
                .iter()
                .map(|t| AtomicU32::new(t.num_preds))
                .collect(),
            tasks: self.tasks,
            blocks: self.blocks,
            steps: self.steps,
            data: self.data,
        };
        debug_assert!(g.validate().is_ok());
        g
    }
}

/// A declaration is priced when the graph is replayed, so a redeclaration
/// replaces it for every task; an op joins the open phase.
impl<O: TaskOp> TaskSink<O> for GraphBuilder<O> {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        assert!(home_node < self.num_nodes);
        self.data.insert(key, DataInfo { bytes, home_node });
    }

    fn push(&mut self, node: usize, op: O) -> TaskId {
        assert!(node < self.num_nodes, "task placed on unknown node");
        let id = self.tasks.len();
        assert!(id < u32::MAX as usize, "task ids fit 32 bits");
        self.tasks.push(TaskRec {
            op,
            node: node as u32,
            num_preds: 0,
        });
        self.phase.push(op);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TestGraph;

    fn k(i: u64) -> DataKey {
        DataKey(i)
    }

    fn noop() -> TaskResult {
        TaskResult::control()
    }

    /// The writer is a stable counting sort over the keys' dense range; a
    /// key outside it has an empty list.
    #[test]
    fn csr_keeps_each_keys_values_in_order() {
        let mut csr = Csr::default();
        let items = [(3, 30), (1, 10), (3, 31), (2, 20), (1, 11)];
        csr.write(5, &items, |&(k, v)| (k, v));
        let lists: Vec<&[u32]> = (0..7).map(|k| csr.get(k)).collect();
        assert_eq!(lists, [&[][..], &[10, 11], &[20], &[30, 31], &[], &[], &[]]);
        csr.write(5, &[(4, 2), (4, 1), (2, 7), (4, 2)], |&(k, v)| (k, v));
        csr.sort_dedup();
        assert_eq!(
            (csr.get(2), csr.get(3), csr.get(4)),
            (&[7][..], &[][..], &[1, 2][..])
        );
        csr.write(5, &[], |&(k, v): &(usize, u32)| (k, v));
        assert!((0..6).all(|k| csr.get(k).is_empty()));
    }

    #[test]
    fn raw_dependency() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        let w = b.task("w", 0, &[Access::Mut(k(0))], noop);
        let r = b.task("r", 0, &[Access::Read(k(0))], noop);
        let g = b.build();
        assert_eq!(g.task(w).successors().collect::<Vec<_>>(), [r]);
        assert_eq!(g.task(r).num_preds(), 1);
        assert_eq!(g.task(r).accesses()[0].access, Access::Read(k(0)));
    }

    #[test]
    fn war_and_waw_dependencies() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        let w1 = b.task("w1", 0, &[Access::Mut(k(0))], noop);
        let r1 = b.task("r1", 0, &[Access::Read(k(0))], noop);
        let r2 = b.task("r2", 0, &[Access::Read(k(0))], noop);
        let w2 = b.task("w2", 0, &[Access::Mut(k(0))], noop);
        let g = b.build();
        // w2 must wait for both readers (WAR) and the previous writer (WAW).
        assert!(g.task(r1).successors().collect::<Vec<_>>().contains(&w2));
        assert!(g.task(r2).successors().collect::<Vec<_>>().contains(&w2));
        assert!(g.task(w1).successors().collect::<Vec<_>>().contains(&r1));
        assert_eq!(g.task(w2).num_preds(), 3);
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        b.declare(k(1), 8, 0);
        let a = b.task("a", 0, &[Access::Mut(k(0))], noop);
        let c = b.task("c", 0, &[Access::Mut(k(1))], noop);
        let g = b.build();
        assert!(g.task(a).successors().collect::<Vec<_>>().is_empty());
        assert!(g.task(c).successors().collect::<Vec<_>>().is_empty());
        assert_eq!(g.roots(), vec![a, c]);
    }

    #[test]
    fn concurrent_readers_share_no_edges() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        let w = b.task("w", 0, &[Access::Mut(k(0))], noop);
        let r1 = b.task("r1", 0, &[Access::Read(k(0))], noop);
        let r2 = b.task("r2", 0, &[Access::Read(k(0))], noop);
        let g = b.build();
        assert!(!g.task(r1).successors().collect::<Vec<_>>().contains(&r2));
        assert_eq!(g.task(w).successors().collect::<Vec<_>>(), [r1, r2]);
    }

    #[test]
    fn accesses_carry_the_declaration() {
        let mut b = TestGraph::new(4);
        b.declare(k(7), 1024, 3);
        let t = b.task("t", 1, &[Access::Read(k(7))], noop);
        let g = b.build();
        // The simulator fetches never-written data from its declared home
        // with its declared size.
        let ca = g.task(t).accesses()[0];
        assert_eq!(ca.access, Access::Read(k(7)));
        assert_eq!(ca.home, 3);
        assert_eq!(ca.bytes, 1024);
    }

    #[test]
    fn redeclaration_keeps_hazards_and_replaces_the_declaration() {
        let mut b = TestGraph::new(2);
        b.declare(k(0), 64, 0);
        let early = b.task("early", 0, &[Access::Mut(k(0))], noop);
        b.declare(k(0), 128, 1); // redeclare: new size and home
        let late = b.task("late", 0, &[Access::Read(k(0))], noop);
        let g = b.build();
        assert_eq!(g.task(early).successors().collect::<Vec<_>>(), [late]);
        for t in [early, late] {
            assert_eq!(g.task(t).accesses()[0].bytes, 128);
            assert_eq!(g.task(t).accesses()[0].home, 1);
        }
    }

    #[test]
    fn duplicate_key_access_does_not_self_depend() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        // A task that both reads and mutates the same tile (in-place update).
        let t = b.task("t", 0, &[Access::Read(k(0)), Access::Mut(k(0))], noop);
        let g = b.build();
        assert_eq!(g.task(t).num_preds(), 0);
        assert!(!g.task(t).successors().collect::<Vec<_>>().contains(&t));
    }

    #[test]
    fn diamond_counts_preds_once() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        b.declare(k(1), 8, 0);
        let src = b.task("src", 0, &[Access::Mut(k(0)), Access::Mut(k(1))], noop);
        let mid = b.task("mid", 0, &[Access::Read(k(0)), Access::Read(k(1))], noop);
        let g = b.build();
        // Two data accesses, but only one precedence edge.
        assert_eq!(g.task(mid).num_preds(), 1);
        assert_eq!(g.task(mid).accesses().len(), 2);
        assert_eq!(g.task(src).successors().collect::<Vec<_>>(), [mid]);
    }

    #[test]
    fn names_steps_and_accesses_are_derived_from_the_op() {
        let mut b = TestGraph::new(2);
        b.declare(k(0), 8, 0);
        b.declare(k(1), 16, 1);
        b.declare(k(2), 8, 0);
        let accs = [
            Access::Read(k(0)),
            Access::Read(k(1)),
            Access::Control(k(2)),
        ];
        let r = b.task("GEMM(1,2,k=3)", 1, &accs, noop);
        let g = b.build();
        let t = g.task(r);
        assert_eq!(
            (t.name().as_str(), t.step(), t.node()),
            ("GEMM(1,2,k=3)", Some(3), 1)
        );
        let got: Vec<Access> = t.accesses().iter().map(|c| c.access).collect();
        assert_eq!(got, accs);
        // The datum declared on node 1 carries its home.
        assert_eq!(t.accesses()[1].home, 1);
    }

    #[test]
    fn validate_accepts_builder_output() {
        let mut b = TestGraph::new(2);
        for i in 0..10 {
            b.declare(k(i), 8, (i % 2) as usize);
        }
        for i in 0..10u64 {
            let deps = [Access::Mut(k(i)), Access::Read(k((i + 3) % 10))];
            b.task(format!("t{i}"), (i % 2) as usize, &deps, noop);
        }
        assert!(b.build().validate().is_ok());
    }
}
