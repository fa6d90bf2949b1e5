//! Task graph with superscalar (data-hazard) dependency inference.
//!
//! The PaRSEC runtime used by the paper represents algorithms as
//! parameterized task graphs. Here tasks are inserted sequentially by the
//! algorithm driver and dependencies are inferred from the data each task
//! reads and writes (RAW, WAR, WAW hazards over [`DataKey`]s) — the
//! "superscalar" insertion model. This gives the same DAG a PTG would,
//! including automatic pipelining between consecutive elimination steps.
//!
//! The paper's *dynamic* task-graph extension (Section IV) is modelled
//! exactly: the graph statically contains **both** the LU-branch and the
//! QR-branch tasks of every step; the panel task records its criterion
//! decision, and each branch task consults it at execution time, either
//! performing its kernel or reporting itself "discarded" (`executed =
//! false`). Discarded tasks cost nothing and transfer nothing — they are
//! the Propagate-selected dead paths of Figure 1.

use std::sync::atomic::AtomicUsize;
use std::sync::OnceLock;

use parking_lot::Mutex;

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

/// An access paired with the accessed datum's declaration, snapshotted at
/// task-insertion time. This is what the virtual-time simulator consumes:
/// it lets the communication model be replayed from the task sequence
/// alone, identically for a materialized batch graph and for the streaming
/// window's reclaimed records.
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

/// A boxed task body, consumed exactly once when the task executes.
pub type Kernel = Box<dyn FnOnce() -> TaskResult + Send>;

/// Destination of task insertion: either the batch [`GraphBuilder`] (the
/// whole factorization is materialized, then executed) or the streaming
/// window ([`crate::stream::StreamWindow`], tasks execute while later steps
/// are still being planned). Algorithm planners write against this trait so
/// the same insertion code drives both runtimes; both implementations infer
/// dependencies from `accesses` with identical hazard rules, which is what
/// keeps batch and streaming execution bitwise-identical.
pub trait TaskSink {
    /// Number of virtual nodes task placements may reference.
    fn num_nodes(&self) -> usize;

    /// Declare a datum: its size in bytes (communication costing) and the
    /// node where it initially resides.
    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize);

    /// Classify an already-declared datum (default: every datum is
    /// [`DataClass::Payload`]). Sinks that do not account messages may
    /// ignore this.
    fn declare_class(&mut self, _key: DataKey, _class: DataClass) {}

    /// Insert a task whose dependencies are inferred from `accesses`.
    fn push_task(
        &mut self,
        name: String,
        node: usize,
        accesses: &[Access],
        kernel: Kernel,
    ) -> TaskId;
}

impl dyn TaskSink + '_ {
    /// Start a typed task insertion (the planner-facing surface; see
    /// [`GraphBuilder::insert`] for the batch equivalent).
    pub fn insert(&mut self, name: impl Into<String>, node: usize) -> TaskBuilder<'_> {
        TaskBuilder {
            sink: self,
            name: name.into(),
            node,
            // Typical tasks declare a handful of accesses; start with room
            // for them so the builder chain doesn't reallocate.
            accesses: Vec::with_capacity(8),
            guard: None,
        }
    }
}

/// One node of the task graph.
pub struct Task {
    /// Human-readable name (trace / DOT export), e.g. `"GEMM(3,4,k=2)"`.
    pub name: String,
    /// Owner node in the virtual platform (owner-computes placement).
    pub node: usize,
    /// Successor task ids (deduplicated).
    pub successors: Vec<TaskId>,
    /// Number of predecessors (for the executor's countdown).
    pub num_preds: usize,
    /// Remaining predecessor count during execution.
    pub(crate) preds_remaining: AtomicUsize,
    /// The task's declared accesses with datum metadata snapshotted at
    /// insertion time (what the virtual-time simulator consumes for both
    /// dependency timing and communication accounting).
    pub accesses: Vec<CostedAccess>,
    /// The kernel (consumed on execution).
    pub(crate) kernel: Mutex<Option<Kernel>>,
    /// Result recorded by the executor.
    pub(crate) result: OnceLock<TaskResult>,
}

impl Task {
    /// The recorded execution result, if the task has run.
    pub fn result(&self) -> Option<TaskResult> {
        self.result.get().copied()
    }
}

/// Immutable, executable task graph.
pub struct Graph {
    pub tasks: Vec<Task>,
    /// Number of virtual nodes referenced by task placements.
    pub num_nodes: usize,
}

impl Graph {
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
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
        for (id, t) in self.tasks.iter().enumerate() {
            for &s in &t.successors {
                if s <= id {
                    return Err(format!("edge {id} -> {s} violates insertion order"));
                }
                if s >= self.tasks.len() {
                    return Err(format!("edge {id} -> {s} out of range"));
                }
            }
        }
        Ok(())
    }
}

/// Metadata for one declared datum.
#[derive(Debug, Clone, Copy)]
struct DataInfo {
    bytes: usize,
    home_node: usize,
}

/// Builds a [`Graph`] by sequential task insertion with hazard-inferred
/// dependencies (the shared [`crate::hazard`] core; no writer payload and
/// no depth tracking here — the graph keeps every task record, so depth
/// is recomputable and liveness is universal).
pub struct GraphBuilder {
    num_nodes: usize,
    tasks: Vec<Task>,
    data: IntMap<DataKey, DataInfo>,
    hazards: IntMap<DataKey, crate::hazard::HazardCell<()>>,
}

impl GraphBuilder {
    pub fn new(num_nodes: usize) -> Self {
        assert!(num_nodes >= 1);
        GraphBuilder {
            num_nodes,
            tasks: Vec::new(),
            data: IntMap::default(),
            hazards: IntMap::default(),
        }
    }

    /// Declare a datum: its size in bytes (for communication costing) and
    /// the node where it initially resides.
    pub fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        assert!(home_node < self.num_nodes);
        self.data.insert(key, DataInfo { bytes, home_node });
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

    /// Insert a task. Dependencies on all previously inserted tasks are
    /// inferred from `accesses`; `kernel` runs when they have completed.
    pub fn task(
        &mut self,
        name: impl Into<String>,
        node: usize,
        accesses: &[Access],
        kernel: impl FnOnce() -> TaskResult + Send + 'static,
    ) -> TaskId {
        self.push_boxed(name.into(), node, accesses, Box::new(kernel))
    }

    fn push_boxed(
        &mut self,
        name: String,
        node: usize,
        accesses: &[Access],
        kernel: Kernel,
    ) -> TaskId {
        assert!(node < self.num_nodes, "task placed on unknown node");
        let id = self.tasks.len();
        let mut preds: Vec<TaskId> = Vec::with_capacity(accesses.len());
        let mut costed: Vec<CostedAccess> = Vec::with_capacity(accesses.len());

        // Pass 1: costed snapshots + hazard predecessors over the
        // pre-insertion cells (RAW/WAW/control via the last writer, WAR
        // via the readers since that write). Who the data *moves* from is
        // the simulator's business — it re-derives flow from the access
        // snapshots, skipping discarded writers.
        let mut depth = 0u64;
        for acc in accesses {
            let key = acc.key();
            let info = *self
                .data
                .get(&key)
                .unwrap_or_else(|| panic!("access to undeclared data {key:?} by task '{id}'"));
            costed.push(CostedAccess {
                access: *acc,
                bytes: info.bytes,
                home: info.home_node,
            });
            if let Some(cell) = self.hazards.get(&key) {
                cell.fold_preds(matches!(acc, Access::Mut(_)), &mut preds, &mut depth);
            }
        }

        // Pass 2: update the cells in access order.
        for acc in accesses {
            let key = acc.key();
            match acc {
                Access::Read(_) => self.hazards.entry(key).or_default().note_read(id, 0),
                Access::Control(_) => {}
                Access::Mut(_) => self.hazards.entry(key).or_default().note_write(id, 0, ()),
            }
        }

        // Pass 3: dedup predecessors, drop self-references from repeated
        // keys (every inserted task stays live in a batch graph).
        crate::hazard::finalize_preds(&mut preds, id, |_| true);

        let num_preds = preds.len();
        let task = Task {
            name,
            node,
            successors: Vec::new(),
            num_preds,
            preds_remaining: AtomicUsize::new(num_preds),
            accesses: costed,
            kernel: Mutex::new(Some(kernel)),
            result: OnceLock::new(),
        };
        self.tasks.push(task);
        for p in preds {
            self.tasks[p].successors.push(id);
        }
        id
    }

    /// Start a typed task insertion: declare accesses fluently, optionally
    /// gate the task on a runtime branch decision, then [`TaskBuilder::spawn`]
    /// the kernel. This is the preferred insertion surface for algorithm
    /// planners — it removes hand-rolled `&[Access::...]` arrays and
    /// centralizes the dynamic branch-discard mechanism.
    pub fn insert(&mut self, name: impl Into<String>, node: usize) -> TaskBuilder<'_> {
        (self as &mut dyn TaskSink).insert(name, node)
    }

    /// Finalize into an executable [`Graph`].
    pub fn build(mut self) -> Graph {
        for t in &mut self.tasks {
            t.successors.sort_unstable();
            t.successors.dedup();
        }
        let g = Graph {
            tasks: self.tasks,
            num_nodes: self.num_nodes,
        };
        debug_assert!(g.validate().is_ok());
        g
    }
}

impl TaskSink for GraphBuilder {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        GraphBuilder::declare(self, key, bytes, home_node);
    }

    fn push_task(
        &mut self,
        name: String,
        node: usize,
        accesses: &[Access],
        kernel: Kernel,
    ) -> TaskId {
        self.push_boxed(name, node, accesses, kernel)
    }
}

/// Fluent, typed task insertion (created by [`GraphBuilder::insert`]).
///
/// Accesses are recorded in call order; [`TaskBuilder::guard`] implements
/// the paper's dynamic task-graph discard: both branch alternatives are
/// statically present in the graph, and a guarded task consults its branch
/// predicate at execution time, running its kernel or reporting itself
/// [`TaskResult::discarded`].
pub struct TaskBuilder<'b> {
    sink: &'b mut dyn TaskSink,
    name: String,
    node: usize,
    accesses: Vec<Access>,
    guard: Option<Box<dyn Fn() -> bool + Send + 'static>>,
}

impl TaskBuilder<'_> {
    /// Shared-read access.
    pub fn reads(mut self, key: DataKey) -> Self {
        self.accesses.push(Access::Read(key));
        self
    }

    /// Shared-read access to each key in `keys`.
    pub fn reads_each(mut self, keys: impl IntoIterator<Item = DataKey>) -> Self {
        self.accesses.extend(keys.into_iter().map(Access::Read));
        self
    }

    /// Exclusive read-write access.
    pub fn writes(mut self, key: DataKey) -> Self {
        self.accesses.push(Access::Mut(key));
        self
    }

    /// Exclusive read-write access to each key in `keys`.
    pub fn writes_each(mut self, keys: impl IntoIterator<Item = DataKey>) -> Self {
        self.accesses.extend(keys.into_iter().map(Access::Mut));
        self
    }

    /// Ordering-only access (synchronize with the key's last writer, move no
    /// data).
    pub fn controls(mut self, key: DataKey) -> Self {
        self.accesses.push(Access::Control(key));
        self
    }

    /// Ordering-only access to each key in `keys`.
    pub fn controls_each(mut self, keys: impl IntoIterator<Item = DataKey>) -> Self {
        self.accesses.extend(keys.into_iter().map(Access::Control));
        self
    }

    /// Gate this task on a branch decision stored under `decision_key`: the
    /// task reads the decision datum and, at execution time, runs its kernel
    /// only if `selected()` returns true — otherwise it discards itself
    /// (zero cost, no data flow). One task of every branch pair survives.
    pub fn guard(
        mut self,
        decision_key: DataKey,
        selected: impl Fn() -> bool + Send + 'static,
    ) -> Self {
        // The decision read is ordered first so trace output shows the gate.
        self.accesses.insert(0, Access::Read(decision_key));
        self.guard = Some(Box::new(selected));
        self
    }

    /// Insert the task with a raw kernel returning its own [`TaskResult`].
    pub fn spawn(self, kernel: impl FnOnce() -> TaskResult + Send + 'static) -> TaskId {
        let TaskBuilder {
            sink,
            name,
            node,
            accesses,
            guard,
        } = self;
        let kernel: Kernel = match guard {
            None => Box::new(kernel),
            Some(selected) => Box::new(move || {
                if !selected() {
                    return TaskResult::discarded();
                }
                kernel()
            }),
        };
        sink.push_task(name, node, &accesses, kernel)
    }

    /// Insert a compute task with declared cost: the kernel body just does
    /// the work, and the task result is tagged `(flops, class)` — the
    /// cost-class tagging used by the platform simulator's efficiency model.
    pub fn spawn_costed(
        self,
        flops: f64,
        class: CostClass,
        body: impl FnOnce() + Send + 'static,
    ) -> TaskId {
        self.spawn(move || {
            body();
            TaskResult::executed(flops, class)
        })
    }

    /// Insert a memory-movement task of `bytes` volume (backup / restore /
    /// swap traffic; costed by bandwidth, not flops).
    pub fn spawn_memory(self, bytes: usize, body: impl FnOnce() + Send + 'static) -> TaskId {
        self.spawn(move || {
            body();
            TaskResult::memory(bytes)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn k(i: u64) -> DataKey {
        DataKey(i)
    }

    fn noop() -> TaskResult {
        TaskResult::control()
    }

    #[test]
    fn raw_dependency() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        let w = b.task("w", 0, &[Access::Mut(k(0))], noop);
        let r = b.task("r", 0, &[Access::Read(k(0))], noop);
        let g = b.build();
        assert_eq!(g.tasks[w].successors, vec![r]);
        assert_eq!(g.tasks[r].num_preds, 1);
        assert_eq!(g.tasks[r].accesses[0].access, Access::Read(k(0)));
    }

    #[test]
    fn war_and_waw_dependencies() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        let w1 = b.task("w1", 0, &[Access::Mut(k(0))], noop);
        let r1 = b.task("r1", 0, &[Access::Read(k(0))], noop);
        let r2 = b.task("r2", 0, &[Access::Read(k(0))], noop);
        let w2 = b.task("w2", 0, &[Access::Mut(k(0))], noop);
        let g = b.build();
        // w2 must wait for both readers (WAR) and the previous writer (WAW).
        assert!(g.tasks[r1].successors.contains(&w2));
        assert!(g.tasks[r2].successors.contains(&w2));
        assert!(g.tasks[w1].successors.contains(&r1));
        assert_eq!(g.tasks[w2].num_preds, 3);
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        b.declare(k(1), 8, 0);
        let a = b.task("a", 0, &[Access::Mut(k(0))], noop);
        let c = b.task("c", 0, &[Access::Mut(k(1))], noop);
        let g = b.build();
        assert!(g.tasks[a].successors.is_empty());
        assert!(g.tasks[c].successors.is_empty());
        assert_eq!(g.roots(), vec![a, c]);
    }

    #[test]
    fn concurrent_readers_share_no_edges() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        let w = b.task("w", 0, &[Access::Mut(k(0))], noop);
        let r1 = b.task("r1", 0, &[Access::Read(k(0))], noop);
        let r2 = b.task("r2", 0, &[Access::Read(k(0))], noop);
        let g = b.build();
        assert!(!g.tasks[r1].successors.contains(&r2));
        assert_eq!(g.tasks[w].successors, vec![r1, r2]);
    }

    #[test]
    fn access_snapshot_records_declaration() {
        let mut b = GraphBuilder::new(4);
        b.declare(k(7), 1024, 3);
        let t = b.task("t", 1, &[Access::Read(k(7))], noop);
        let g = b.build();
        // The simulator fetches never-written data from its declared home
        // with its declared size — both snapshotted at insertion time.
        let ca = g.tasks[t].accesses[0];
        assert_eq!(ca.access, Access::Read(k(7)));
        assert_eq!(ca.home, 3);
        assert_eq!(ca.bytes, 1024);
    }

    #[test]
    fn access_snapshot_survives_redeclaration() {
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 64, 0);
        let early = b.task("early", 0, &[Access::Read(k(0))], noop);
        b.declare(k(0), 128, 1); // redeclare: new size and home
        let late = b.task("late", 0, &[Access::Read(k(0))], noop);
        let g = b.build();
        assert_eq!(g.tasks[early].accesses[0].bytes, 64);
        assert_eq!(g.tasks[early].accesses[0].home, 0);
        assert_eq!(g.tasks[late].accesses[0].bytes, 128);
        assert_eq!(g.tasks[late].accesses[0].home, 1);
    }

    #[test]
    fn duplicate_key_access_does_not_self_depend() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        // A task that both reads and mutates the same tile (in-place update).
        let t = b.task("t", 0, &[Access::Read(k(0)), Access::Mut(k(0))], noop);
        let g = b.build();
        assert_eq!(g.tasks[t].num_preds, 0);
        assert!(!g.tasks[t].successors.contains(&t));
    }

    #[test]
    fn diamond_counts_preds_once() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        b.declare(k(1), 8, 0);
        let src = b.task("src", 0, &[Access::Mut(k(0)), Access::Mut(k(1))], noop);
        let mid = b.task("mid", 0, &[Access::Read(k(0)), Access::Read(k(1))], noop);
        let g = b.build();
        // Two data accesses, but only one precedence edge.
        assert_eq!(g.tasks[mid].num_preds, 1);
        assert_eq!(g.tasks[mid].accesses.len(), 2);
        assert_eq!(g.tasks[src].successors, vec![mid]);
    }

    #[test]
    fn kernels_are_consumed_once() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        let t = b.task("t", 0, &[Access::Mut(k(0))], move || {
            c2.fetch_add(1, Ordering::SeqCst);
            TaskResult::control()
        });
        let g = b.build();
        let kern = g.tasks[t].kernel.lock().take().unwrap();
        let _ = kern();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        assert!(g.tasks[t].kernel.lock().is_none());
    }

    #[test]
    fn task_builder_matches_raw_insertion() {
        let mut b = GraphBuilder::new(2);
        b.declare(k(0), 8, 0);
        b.declare(k(1), 16, 1);
        b.declare(k(2), 8, 0);
        let w = b
            .insert("w", 0)
            .writes(k(0))
            .writes_each([k(1)])
            .spawn(noop);
        let r = b
            .insert("r", 1)
            .reads(k(0))
            .reads_each([k(1)])
            .controls(k(2))
            .spawn(noop);
        let g = b.build();
        assert_eq!(g.tasks[w].successors, vec![r]);
        assert_eq!(g.tasks[r].num_preds, 1);
        // All three accesses are snapshotted, in call order.
        let accs: Vec<Access> = g.tasks[r].accesses.iter().map(|c| c.access).collect();
        assert_eq!(
            accs,
            vec![
                Access::Read(k(0)),
                Access::Read(k(1)),
                Access::Control(k(2))
            ]
        );
        // The datum declared on node 1 carries its home in the snapshot.
        assert_eq!(g.tasks[r].accesses[1].home, 1);
    }

    #[test]
    fn guarded_task_discards_when_branch_unselected() {
        use std::sync::atomic::AtomicBool;
        let decision = Arc::new(AtomicBool::new(false)); // "QR" selected
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        b.declare(k(9), 1, 0); // decision datum
        let lu_branch = {
            let d = Arc::clone(&decision);
            b.insert("lu", 0)
                .writes(k(0))
                .guard(k(9), move || d.load(Ordering::SeqCst))
                .spawn(|| TaskResult::executed(10.0, CostClass::Gemm))
        };
        let qr_branch = {
            let d = Arc::clone(&decision);
            b.insert("qr", 0)
                .writes(k(0))
                .guard(k(9), move || !d.load(Ordering::SeqCst))
                .spawn(|| TaskResult::executed(20.0, CostClass::QrFactor))
        };
        let g = b.build();
        let run = |t: TaskId| g.tasks[t].kernel.lock().take().unwrap()();
        let lu = run(lu_branch);
        let qr = run(qr_branch);
        assert!(!lu.executed, "unselected branch must discard");
        assert_eq!(lu.flops, 0.0);
        assert!(qr.executed);
        assert_eq!(qr.flops, 20.0);
    }

    #[test]
    fn spawn_costed_and_memory_tag_results() {
        let mut b = GraphBuilder::new(1);
        b.declare(k(0), 8, 0);
        let c = b
            .insert("c", 0)
            .writes(k(0))
            .spawn_costed(42.0, CostClass::Trsm, || {});
        let m = b.insert("m", 0).reads(k(0)).spawn_memory(4096, || {});
        let g = b.build();
        let run = |t: TaskId| g.tasks[t].kernel.lock().take().unwrap()();
        let rc = run(c);
        assert_eq!((rc.flops, rc.class), (42.0, CostClass::Trsm));
        let rm = run(m);
        assert_eq!((rm.flops, rm.class), (4096.0, CostClass::Memory));
    }

    #[test]
    fn validate_accepts_builder_output() {
        let mut b = GraphBuilder::new(2);
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
