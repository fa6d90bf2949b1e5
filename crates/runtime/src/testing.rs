//! The op type of the runtime's own unit tests: a [`TaskOp`] whose context
//! is a table of test-supplied bodies, so tests keep describing tasks as
//! `(name, accesses, closure)` while the runtime under test only ever sees
//! the descriptor. A body returns the task's cost, which the op keeps once
//! it has run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use crate::graph::{
    Access, DataClass, DataKey, Graph, GraphBuilder, Pred, Routed, Share, TaskId, TaskOp,
    TaskResult, TaskSink, Visit,
};

type Body = Box<dyn FnOnce() -> TaskResult + Send>;

struct Entry {
    name: String,
    accesses: Vec<Access>,
    body: Mutex<Option<Body>>,
    cost: Mutex<Option<TaskResult>>,
}

/// Index into a [`TestCtx`]'s body table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TestOp(u32);

/// A datum's state under the textbook rule: its last writer (and the node
/// it ran on, on a rank's share) and the readers since, and which nodes a
/// rank's share visited a read of that version for.
#[derive(Default)]
struct Seen {
    writer: Option<Pred>,
    src: Option<usize>,
    readers: Vec<Pred>,
    routed: Routed,
}

/// The body table, appendable while a streaming run executes. An op's
/// position is its index in the table, and its predecessors come from the
/// textbook rule over the phases planned so far, in the step each phase
/// names: per datum, the last writer, and for a write also the readers
/// since.
#[derive(Default)]
pub(crate) struct TestCtx {
    entries: RwLock<Vec<Arc<Entry>>>,
    seen: Mutex<HashMap<DataKey, Seen>>,
    decisions: RwLock<Vec<DataKey>>,
    /// The steps the runtime has retired, in the order it did.
    pub(crate) retired: Mutex<Vec<usize>>,
}

impl TestCtx {
    /// Register a task body; the op's own step is the `k=NN` of its name,
    /// if any.
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
            cost: Mutex::new(None),
        }));
        TestOp((entries.len() - 1) as u32)
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

    fn run(self, ctx: &TestCtx) {
        let entry = ctx.entry(self);
        let body = entry.body.lock().unwrap().take();
        let cost = body.unwrap_or_else(|| panic!("task '{}' executed twice", entry.name))();
        *entry.cost.lock().unwrap() = Some(cost);
    }

    /// What the body returned, once it has run.
    fn cost(self, ctx: &TestCtx) -> Option<TaskResult> {
        *ctx.entry(self).cost.lock().unwrap()
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

    /// The textbook rule, op by op: all of an op's accesses see the state
    /// before it, then update it in access order. A datum `share` does not
    /// sweep is tracked, not visited; of one it does, an access is visited
    /// as `share` says, and a read it does not visit names nobody later.
    fn for_each_predecessor(
        ctx: &TestCtx,
        step: usize,
        ops: &[TestOp],
        share: &Share<'_>,
        mut f: impl FnMut(Visit<'_>),
    ) {
        let seen = &mut *ctx.seen.lock().unwrap();
        let mut visited = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            let entry = ctx.entry(op);
            visited.clear();
            for &access in &entry.accesses {
                let swept = share.sweeps(access.key());
                let s = seen.entry(access.key()).or_default();
                let visit = swept
                    && match access {
                        Access::Read(_) => share.reads(i, s.writer, s.src, &mut s.routed),
                        _ => share.full(i),
                    };
                if visit {
                    let readers = if matches!(access, Access::Mut(_)) {
                        &s.readers[..]
                    } else {
                        &[]
                    };
                    f(Visit {
                        op: i,
                        access,
                        writer: s.writer,
                        readers,
                    });
                }
                visited.push(visit || !swept);
            }
            let me = Pred {
                step,
                pos: op.0 as usize,
            };
            for (acc, &named) in entry.accesses.iter().zip(&visited) {
                let s = seen.entry(acc.key()).or_default();
                match acc {
                    Access::Read(_) if named => s.readers.push(me),
                    Access::Read(_) | Access::Control(_) => {}
                    Access::Mut(_) => {
                        s.writer = Some(me);
                        s.src = share.of().map(|_| share.node(i));
                        s.readers.clear();
                    }
                }
            }
        }
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
/// tests are written in. Each op is a phase of step 0 of its own, so its
/// position is its task id.
pub(crate) struct TestGraph {
    b: GraphBuilder<TestOp>,
    pub(crate) ctx: Arc<TestCtx>,
}

impl TestGraph {
    pub(crate) fn new(num_nodes: usize) -> Self {
        let ctx = Arc::new(TestCtx::default());
        TestGraph {
            b: GraphBuilder::new(num_nodes, Arc::clone(&ctx)),
            ctx,
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
        let id = self.b.push(node, self.ctx.op(name, accesses, body));
        self.b.close_phase(0);
        id
    }

    pub(crate) fn build(self) -> Graph<TestOp> {
        self.b.build()
    }
}
