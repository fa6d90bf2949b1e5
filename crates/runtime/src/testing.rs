//! The op type of the runtime's own unit tests: a [`TaskOp`] whose context
//! is a table of test-supplied bodies, so tests keep describing tasks as
//! `(name, accesses, closure)` while the runtime under test only ever sees
//! the descriptor.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use crate::graph::{
    Access, DataClass, DataKey, Graph, GraphBuilder, TaskId, TaskOp, TaskResult, TaskSink,
};
use crate::hazard::{finalize_preds, HazardCell};

type Body = Box<dyn FnOnce() -> TaskResult + Send>;

struct Entry {
    name: String,
    accesses: Vec<Access>,
    body: Mutex<Option<Body>>,
}

/// Index into a [`TestCtx`]'s body table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TestOp(u32);

/// The body table, appendable while a streaming run executes.
#[derive(Default)]
pub(crate) struct TestCtx {
    entries: RwLock<Vec<Arc<Entry>>>,
    decisions: RwLock<Vec<DataKey>>,
    /// The steps the runtime has retired, in the order it did.
    pub(crate) retired: Mutex<Vec<usize>>,
}

impl TestCtx {
    /// Register a task body; the step is the `k=NN` of its name, if any.
    pub(crate) fn op(
        &self,
        name: impl Into<String>,
        accesses: &[Access],
        body: impl FnOnce() -> TaskResult + Send + 'static,
    ) -> TestOp {
        let mut entries = self.entries.write().unwrap();
        entries.push(Arc::new(Entry {
            name: name.into(),
            accesses: accesses.to_vec(),
            body: Mutex::new(Some(Box::new(body))),
        }));
        TestOp(entries.len() as u32 - 1)
    }

    /// Register a body and insert it into `sink` on `node`.
    pub(crate) fn task(
        &self,
        sink: &mut dyn TaskSink<TestOp>,
        name: impl Into<String>,
        node: usize,
        accesses: &[Access],
        body: impl FnOnce() -> TaskResult + Send + 'static,
    ) -> TaskId {
        sink.push(node, self.op(name, accesses, body))
    }

    /// Classify `key` as a decision datum.
    pub(crate) fn mark_decision(&self, key: DataKey) {
        self.decisions.write().unwrap().push(key);
    }

    fn entry(&self, op: TestOp) -> Arc<Entry> {
        Arc::clone(&self.entries.read().unwrap()[op.0 as usize])
    }
}

impl TaskOp for TestOp {
    type Ctx = TestCtx;

    fn run(self, ctx: &TestCtx) -> TaskResult {
        let entry = ctx.entry(self);
        let body = entry.body.lock().unwrap().take();
        body.unwrap_or_else(|| panic!("task '{}' executed twice", entry.name))()
    }

    fn step(self, ctx: &TestCtx) -> Option<usize> {
        crate::trace::step_index(&ctx.entry(self).name)
    }

    fn write_name(self, ctx: &TestCtx, out: &mut String) {
        out.push_str(&ctx.entry(self).name);
    }

    fn for_each_access(self, ctx: &TestCtx, f: impl FnMut(Access)) {
        ctx.entry(self).accesses.iter().copied().for_each(f);
    }

    fn data_class(ctx: &TestCtx, key: DataKey) -> DataClass {
        if ctx.decisions.read().unwrap().contains(&key) {
            DataClass::Decision
        } else {
            DataClass::Payload
        }
    }

    fn retire_step(ctx: &TestCtx, step: usize) {
        ctx.retired.lock().unwrap().push(step);
    }
}

/// Run `f` on its own thread and fail — instead of hanging the test binary —
/// if it has not returned within the deadline. A panic inside `f` is
/// re-raised here.
pub(crate) fn with_watchdog<T: Send + 'static>(
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    let (tx, rx) = channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after 60 s (hang)"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("sender dropped by a panic"))
        }
    }
}

/// A [`GraphBuilder`] over [`TestOp`]s with the closure-style insertion the
/// tests are written in. Test ops have no closed-form edges, so this one
/// infers them from each op's accesses with the hazard core, as the
/// streaming window does, and hands them to the builder.
pub(crate) struct TestGraph {
    b: GraphBuilder<TestOp>,
    pub(crate) ctx: Arc<TestCtx>,
    cells: HashMap<DataKey, HazardCell<()>>,
    /// Successor ids of every inserted task.
    succs: Vec<Vec<TaskId>>,
}

impl TestGraph {
    pub(crate) fn new(num_nodes: usize) -> Self {
        let ctx = Arc::new(TestCtx::default());
        TestGraph {
            b: GraphBuilder::new(num_nodes, Arc::clone(&ctx)),
            ctx,
            cells: HashMap::new(),
            succs: Vec::new(),
        }
    }

    pub(crate) fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        self.b.declare(key, bytes, home_node);
        self.cells.entry(key).or_default();
    }

    pub(crate) fn task(
        &mut self,
        name: impl Into<String>,
        node: usize,
        accesses: &[Access],
        body: impl FnOnce() -> TaskResult + Send + 'static,
    ) -> TaskId {
        let id = self.ctx.task(&mut self.b, name, node, accesses, body);
        let mut preds = Vec::new();
        for acc in accesses {
            let cell = self
                .cells
                .get(&acc.key())
                .expect("access to undeclared data");
            cell.fold_preds(matches!(acc, Access::Mut(_)), &mut preds, &mut 0);
        }
        for acc in accesses {
            let cell = self.cells.get_mut(&acc.key()).expect("declared above");
            match acc {
                Access::Read(_) => cell.note_read(id, 0),
                Access::Control(_) => {}
                Access::Mut(_) => cell.note_write(id, 0, ()),
            }
        }
        finalize_preds(&mut preds, id, |_| true);
        self.succs.push(Vec::new());
        for p in preds {
            self.succs[p].push(id);
        }
        id
    }

    pub(crate) fn build(self) -> Graph<TestOp> {
        let succs = self.succs;
        self.b.build(|id, _, out| out.extend_from_slice(&succs[id]))
    }
}
