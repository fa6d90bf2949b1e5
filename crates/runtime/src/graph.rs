//! Task graph with superscalar (data-hazard) dependency inference.
//!
//! The PaRSEC runtime used by the paper represents algorithms as
//! parameterized task graphs: a task is `(class, k, i, j)` and its body,
//! name, accesses and cost are functions of that tuple. Here a task is a
//! [`TaskOp`] — a `Copy` descriptor the algorithm layer defines — and the
//! runtime stores that descriptor, the task's placement and its hazard
//! edges, and nothing else per task: names are rendered when a trace event
//! or a DOT node is emitted, accesses are re-derived when a graph is
//! replayed, and the body is one call into the op's interpreter against
//! the run's shared context ([`TaskOp::Ctx`]). The runtime is generic over
//! the op type and never sees the algorithm layer's op set.
//!
//! Tasks are inserted sequentially by the algorithm driver and
//! dependencies are inferred from the data each op reads and writes (RAW,
//! WAR, WAW hazards over [`DataKey`]s) — the "superscalar" insertion
//! model. This gives the same DAG a PTG would, including automatic
//! pipelining between consecutive elimination steps.
//!
//! The paper's *dynamic* task-graph extension (Section IV) is modelled
//! exactly: the graph statically contains **both** the LU-branch and the
//! QR-branch tasks of every step; the panel task records its criterion
//! decision, and each branch op consults it at execution time, either
//! performing its kernel or reporting itself "discarded" (`executed =
//! false`). Discarded tasks cost nothing and transfer nothing — they are
//! the Propagate-selected dead paths of Figure 1.

use std::sync::atomic::AtomicU32;
use std::sync::{Arc, OnceLock};

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

/// What a task actually did when it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskResult {
    /// Floating-point operations actually performed.
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

    /// A task that consulted the decision and discarded itself.
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
/// needs about the task is *derived on demand* — its body, its name, its
/// elimination step and its data accesses — against one per-run context
/// ([`TaskOp::Ctx`]: the tiles, the per-step cells, the options). This is
/// PaRSEC's `(class, k, i, j)`: the runtime stores the descriptor and
/// nothing per task that the descriptor determines.
///
/// The runtime is generic over the op type, so it knows nothing of the
/// algorithm layer's op set; its own tests implement the trait for a body
/// table of their own.
pub trait TaskOp: Copy + Send + Sync + 'static {
    /// What an op is interpreted against. One per run, shared by every
    /// thread that plans, executes or renders ops.
    type Ctx: Send + Sync + 'static;

    /// Execute the task body.
    fn run(self, ctx: &Self::Ctx) -> TaskResult;

    /// The elimination step the task belongs to — the streaming window's
    /// retirement unit and the `step` of a [`crate::trace::TraceEvent`].
    fn step(self, ctx: &Self::Ctx) -> Option<usize>;

    /// Append the task's human-readable name (`"GEMM(3,4,k=2)"`). Called
    /// only when a trace event, a DOT node or a diagnostic is rendered.
    fn write_name(self, ctx: &Self::Ctx, out: &mut String);

    /// Visit the task's data accesses, in declaration order. Must yield
    /// the same sequence every time it is called for the same op.
    fn for_each_access(self, ctx: &Self::Ctx, f: impl FnMut(Access));

    /// Message class of a datum (see [`DataClass`]).
    fn data_class(_ctx: &Self::Ctx, _key: DataKey) -> DataClass {
        DataClass::Payload
    }

    /// Every task of `step` has completed (on this rank, in a distributed
    /// run): the context may drop what only that step's task bodies used.
    /// Called once per step by the batch executor and by the streaming
    /// window; names, steps and accesses of the step's ops must keep
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
/// window ([`crate::stream::StreamWindow`], tasks execute while later steps
/// are still being planned). Algorithm planners write against this trait so
/// the same insertion code drives both runtimes; both implementations infer
/// dependencies from the op's accesses with identical hazard rules, which
/// is what keeps batch and streaming execution bitwise-identical.
pub trait TaskSink<O: TaskOp> {
    /// Number of virtual nodes task placements may reference.
    fn num_nodes(&self) -> usize;

    /// Declare a datum: its size in bytes (communication costing) and the
    /// node where it initially resides. A datum declared while a step is
    /// being planned belongs to that step: only the step's tasks may
    /// access it, and the streaming window forgets it when the step
    /// retires (the batch graph keeps every declaration, for replay).
    /// Redeclaring a key keeps its hazard
    /// state and replaces both values, but the two sinks differ in which
    /// tasks see the replacement: the streaming window prices a task's
    /// accesses when it is inserted, so only later tasks do; the batch
    /// [`GraphBuilder`] keeps one declaration per key and prices accesses
    /// when the graph is replayed ([`TaskRef::accesses`], the simulator),
    /// so every task of the graph does. A planner that wants both sinks to
    /// agree declares a key's size and home once.
    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize);

    /// Insert a task placed on `node`; its dependencies are inferred from
    /// the op's accesses.
    fn push(&mut self, node: usize, op: O) -> TaskId;
}

/// The stored part of one task: its descriptor, its placement and how many
/// tasks it waits for. Everything else is derived from `op`.
struct TaskRec<O> {
    op: O,
    node: u32,
    num_preds: u32,
}

/// Execution state of one task.
pub(crate) struct RunCell {
    /// Remaining predecessor count during execution.
    pub(crate) preds_remaining: AtomicU32,
    /// Result recorded by the executor.
    pub(crate) result: OnceLock<TaskResult>,
}

/// Metadata for one declared datum.
#[derive(Debug, Clone, Copy)]
struct DataInfo {
    bytes: usize,
    home_node: usize,
}

/// Immutable, executable task graph: one descriptor record per task, the
/// successor lists of all tasks in one compressed array, and the run
/// context the descriptors are interpreted against.
pub struct Graph<O: TaskOp> {
    /// Number of virtual nodes referenced by task placements.
    pub num_nodes: usize,
    ctx: Arc<O::Ctx>,
    tasks: Vec<TaskRec<O>>,
    /// `succs[succ_start[id]..succ_start[id + 1]]` are the successors of
    /// task `id`, ascending.
    succ_start: Vec<u32>,
    succs: Vec<TaskId>,
    pub(crate) run: Vec<RunCell>,
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

    /// Successor task ids, ascending.
    pub fn successors(&self) -> &'g [TaskId] {
        let (a, b) = (
            self.graph.succ_start[self.id],
            self.graph.succ_start[self.id + 1],
        );
        &self.graph.succs[a as usize..b as usize]
    }

    /// The recorded execution result, if the task has run.
    pub fn result(&self) -> Option<TaskResult> {
        self.graph.run[self.id].result.get().copied()
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
    /// hazard-inferred graphs are acyclic by construction since edges only
    /// point from earlier to later insertions).
    pub fn validate(&self) -> Result<(), String> {
        for t in self.tasks() {
            for &s in t.successors() {
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

/// One declared datum of the builder: its declaration and hazard state.
struct Datum {
    info: DataInfo,
    hazard: crate::hazard::HazardCell<()>,
}

/// Builds a [`Graph`] by sequential task insertion with hazard-inferred
/// dependencies (the shared [`crate::hazard`] core; no writer payload and
/// no depth tracking here — the graph keeps every task record, so depth
/// is recomputable and liveness is universal).
///
/// Per insertion the builder appends one descriptor record and the task's
/// predecessor ids to one flat edge array; [`GraphBuilder::build`] turns
/// that array into the successor lists.
pub struct GraphBuilder<O: TaskOp> {
    num_nodes: usize,
    ctx: Arc<O::Ctx>,
    tasks: Vec<TaskRec<O>>,
    /// Predecessor ids of every task, in insertion order of the tasks
    /// (`num_preds` of them per task).
    pred_edges: Vec<u32>,
    data: Vec<Datum>,
    slot_of: IntMap<DataKey, u32>,
    /// Per-insertion work vectors, kept across insertions.
    slots: Vec<(Access, u32)>,
    preds: Vec<TaskId>,
}

impl<O: TaskOp> GraphBuilder<O> {
    pub fn new(num_nodes: usize, ctx: Arc<O::Ctx>) -> Self {
        assert!(num_nodes >= 1);
        GraphBuilder {
            num_nodes,
            ctx,
            tasks: Vec::new(),
            pred_edges: Vec::new(),
            data: Vec::new(),
            slot_of: IntMap::default(),
            slots: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Declare a datum: its size in bytes (for communication costing) and
    /// the node where it initially resides. A redeclaration replaces both
    /// (for every task of the graph: accesses are priced when replayed)
    /// and keeps the hazard state.
    pub fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        assert!(home_node < self.num_nodes);
        let info = DataInfo { bytes, home_node };
        match self.slot_of.get(&key) {
            Some(&slot) => self.data[slot as usize].info = info,
            None => {
                let slot = u32::try_from(self.data.len()).expect("datum slots fit 32 bits");
                self.slot_of.insert(key, slot);
                self.data.push(Datum {
                    info,
                    hazard: Default::default(),
                });
            }
        }
    }

    /// Number of virtual nodes task placements may reference.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of tasks inserted so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Insert a task placed on `node`. Dependencies on all previously
    /// inserted tasks are inferred from the op's accesses; the op runs
    /// when they have completed.
    pub fn push(&mut self, node: usize, op: O) -> TaskId {
        assert!(node < self.num_nodes, "task placed on unknown node");
        let id = self.tasks.len();
        assert!(id < u32::MAX as usize, "task ids fit 32 bits");
        let GraphBuilder {
            ctx,
            data,
            slot_of,
            slots,
            preds,
            ..
        } = self;
        slots.clear();
        preds.clear();

        // Pass 1: resolve each access to its datum (the one hashed look-up
        // per access) and collect hazard predecessors over the
        // pre-insertion cells (RAW/WAW/control via the last writer, WAR
        // via the readers since that write). Who the data *moves* from is
        // the simulator's business — it re-derives flow from the accesses,
        // skipping discarded writers.
        let mut depth = 0u64;
        op.for_each_access(ctx, |acc| {
            let key = acc.key();
            let slot = *slot_of
                .get(&key)
                .unwrap_or_else(|| panic!("access to undeclared data {key:?} by task '{id}'"));
            slots.push((acc, slot));
            data[slot as usize]
                .hazard
                .fold_preds(matches!(acc, Access::Mut(_)), preds, &mut depth);
        });

        // Pass 2: update the cells in access order.
        for &(acc, slot) in slots.iter() {
            let hazard = &mut data[slot as usize].hazard;
            match acc {
                Access::Read(_) => hazard.note_read(id, 0),
                Access::Control(_) => {}
                Access::Mut(_) => hazard.note_write(id, 0, ()),
            }
        }

        // Pass 3: dedup predecessors, drop self-references from repeated
        // keys (every inserted task stays live in a batch graph).
        crate::hazard::finalize_preds(preds, id, |_| true);

        self.pred_edges.extend(preds.iter().map(|&p| p as u32));
        self.tasks.push(TaskRec {
            op,
            node: node as u32,
            num_preds: preds.len() as u32,
        });
        id
    }

    /// Finalize into an executable [`Graph`]: transpose the predecessor
    /// edges into per-task successor lists (ascending and free of
    /// duplicates, because tasks are visited in id order and each task's
    /// predecessors were deduplicated).
    pub fn build(self) -> Graph<O> {
        let n = self.tasks.len();
        let mut succ_start = vec![0u32; n + 1];
        for &p in &self.pred_edges {
            succ_start[p as usize + 1] += 1;
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut cursor = succ_start.clone();
        let mut succs = vec![0 as TaskId; self.pred_edges.len()];
        let mut edges = self.pred_edges.iter();
        for (id, t) in self.tasks.iter().enumerate() {
            for &p in edges.by_ref().take(t.num_preds as usize) {
                succs[cursor[p as usize] as usize] = id;
                cursor[p as usize] += 1;
            }
        }
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
            run: self
                .tasks
                .iter()
                .map(|t| RunCell {
                    preds_remaining: AtomicU32::new(t.num_preds),
                    result: OnceLock::new(),
                })
                .collect(),
            tasks: self.tasks,
            succ_start,
            succs,
            data: self
                .slot_of
                .into_iter()
                .map(|(key, slot)| (key, self.data[slot as usize].info))
                .collect(),
        };
        debug_assert!(g.validate().is_ok());
        g
    }
}

impl<O: TaskOp> TaskSink<O> for GraphBuilder<O> {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        GraphBuilder::declare(self, key, bytes, home_node);
    }

    fn push(&mut self, node: usize, op: O) -> TaskId {
        GraphBuilder::push(self, node, op)
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

    #[test]
    fn raw_dependency() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        let w = b.task("w", 0, &[Access::Mut(k(0))], noop);
        let r = b.task("r", 0, &[Access::Read(k(0))], noop);
        let g = b.build();
        assert_eq!(g.task(w).successors(), [r]);
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
        assert!(g.task(r1).successors().contains(&w2));
        assert!(g.task(r2).successors().contains(&w2));
        assert!(g.task(w1).successors().contains(&r1));
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
        assert!(g.task(a).successors().is_empty());
        assert!(g.task(c).successors().is_empty());
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
        assert!(!g.task(r1).successors().contains(&r2));
        assert_eq!(g.task(w).successors(), [r1, r2]);
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
        assert_eq!(g.task(early).successors(), [late]);
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
        assert!(!g.task(t).successors().contains(&t));
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
        assert_eq!(g.task(src).successors(), [mid]);
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
