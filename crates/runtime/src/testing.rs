//! The op type of the runtime's own unit tests: a [`TaskOp`] whose context
//! is a table of test-supplied bodies, so tests keep describing tasks as
//! `(name, accesses, closure)` while the runtime under test only ever sees
//! the descriptor.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use crate::graph::{
    Access, DataClass, DataKey, Graph, GraphBuilder, Pred, TaskId, TaskOp, TaskResult, TaskSink,
};

type Body = Box<dyn FnOnce() -> TaskResult + Send>;

struct Entry {
    name: String,
    accesses: Vec<Access>,
    preds: Vec<Pred>,
    body: Mutex<Option<Body>>,
}

/// Index into a [`TestCtx`]'s body table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TestOp(u32);

/// The body table, appendable while a streaming run executes. Ops are
/// registered in the order they are planned, into the step they are
/// planned in, at their index in the table, and get their predecessors
/// there by the textbook rule: per datum, the last writer, and for a write
/// also the readers since.
#[derive(Default)]
pub(crate) struct TestCtx {
    entries: RwLock<Vec<Arc<Entry>>>,
    /// Per datum: its last writer, then the readers since.
    seen: Mutex<HashMap<DataKey, Vec<Pred>>>,
    decisions: RwLock<Vec<DataKey>>,
    /// The steps the runtime has retired, in the order it did.
    pub(crate) retired: Mutex<Vec<usize>>,
}

impl TestCtx {
    /// Register a task body planned into `step`; the op's own step is the
    /// `k=NN` of its name, if any.
    pub(crate) fn op(
        &self,
        step: usize,
        name: impl Into<String>,
        accesses: &[Access],
        body: impl FnOnce() -> TaskResult + Send + 'static,
    ) -> TestOp {
        let mut entries = self.entries.write().unwrap();
        let seen = &mut *self.seen.lock().unwrap();
        let pos = entries.len();
        let mut preds = Vec::new();
        for acc in accesses {
            let write = matches!(acc, Access::Mut(_));
            let known = seen.get(&acc.key()).into_iter().flatten();
            preds.extend(known.filter(|p| write || p.writer));
        }
        for acc in accesses {
            let (key, known) = (acc.key(), seen.entry(acc.key()).or_default());
            let me = |writer| Pred {
                step,
                pos,
                key,
                writer,
            };
            match acc {
                Access::Read(_) => known.push(me(false)),
                Access::Control(_) => {}
                Access::Mut(_) => *known = vec![me(true)],
            }
        }
        entries.push(Arc::new(Entry {
            name: name.into(),
            accesses: accesses.to_vec(),
            preds,
            body: Mutex::new(Some(Box::new(body))),
        }));
        TestOp(pos as u32)
    }

    /// Register a body and insert it into `sink`, which plans `step`, on
    /// `node`.
    pub(crate) fn task(
        &self,
        sink: &mut dyn TaskSink<TestOp>,
        step: usize,
        name: impl Into<String>,
        node: usize,
        accesses: &[Access],
        body: impl FnOnce() -> TaskResult + Send + 'static,
    ) -> TaskId {
        sink.push(node, self.op(step, name, accesses, body))
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

    fn position(self, _ctx: &TestCtx) -> usize {
        self.0 as usize
    }

    fn for_each_predecessor(self, ctx: &TestCtx, f: impl FnMut(Pred)) {
        ctx.entry(self).preds.iter().copied().for_each(f);
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
/// tests are written in. Its ops are all registered into step 0, so a
/// predecessor's position is its task id.
pub(crate) struct TestGraph {
    b: GraphBuilder<TestOp>,
    pub(crate) ctx: Arc<TestCtx>,
    /// Successor ids of every inserted task.
    succs: Vec<Vec<TaskId>>,
}

impl TestGraph {
    pub(crate) fn new(num_nodes: usize) -> Self {
        let ctx = Arc::new(TestCtx::default());
        TestGraph {
            b: GraphBuilder::new(num_nodes, Arc::clone(&ctx)),
            ctx,
            succs: Vec::new(),
        }
    }

    pub(crate) fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        self.b.declare(key, bytes, home_node);
    }

    pub(crate) fn task(
        &mut self,
        name: impl Into<String>,
        node: usize,
        accesses: &[Access],
        body: impl FnOnce() -> TaskResult + Send + 'static,
    ) -> TaskId {
        let op = self.ctx.op(0, name, accesses, body);
        let id = self.b.push(node, op);
        self.succs.push(Vec::new());
        op.for_each_predecessor(&self.ctx, |p| self.succs[p.pos].push(id));
        id
    }

    pub(crate) fn build(self) -> Graph<TestOp> {
        let succs = self.succs;
        self.b.build(|id, _, out| out.extend_from_slice(&succs[id]))
    }
}
