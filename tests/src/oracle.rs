//! The dependency oracle: a task sequence's edges inferred the
//! sequential-task-flow way, from each task's accesses in insertion order.
//!
//! This is how the batch graph's builder and the streaming window found
//! their edges before one closed-form sweep per planning phase fed both
//! ([`luqr_runtime::TaskOp::for_each_predecessor`]). The rule, per datum:
//! an access depends on the last writer (RAW, WAW, and control ordering
//! all collapse to this edge), and a write also on every reader since that
//! write (WAR). [`Logged`] records the sequence a streamed run plans, and
//! the closed-form predecessors its planning phases name.

use std::collections::HashMap;
use std::sync::Arc;

use luqr::{PlannerStepSource, RunCtx};
use luqr_runtime::stream::{StepPhase, StepSource};
use luqr_runtime::{Access, DataKey, Pred, Share, TaskId, TaskOp, TaskSink};

/// The predecessors of each of `ops`, inserted in order: ids into `ops`,
/// ascending.
pub fn hazard_predecessors<O: TaskOp>(
    ctx: &O::Ctx,
    ops: impl IntoIterator<Item = O>,
) -> Vec<Vec<TaskId>> {
    // Per datum: the last writer and every reader since that write.
    let mut last_writer = HashMap::new();
    let mut readers: HashMap<_, Vec<TaskId>> = HashMap::new();
    let mut all = Vec::new();
    let mut accesses = Vec::new();
    for (id, op) in ops.into_iter().enumerate() {
        accesses.clear();
        op.for_each_access(ctx, |acc| accesses.push(acc));
        // All accesses see the state before the task, then update it in
        // access order.
        let mut preds: Vec<TaskId> = Vec::new();
        for acc in &accesses {
            let key = acc.key();
            preds.extend(last_writer.get(&key));
            if let Access::Mut(_) = acc {
                preds.extend(readers.get(&key).into_iter().flatten());
            }
        }
        for acc in &accesses {
            let key = acc.key();
            match acc {
                Access::Read(_) => readers.entry(key).or_default().push(id),
                Access::Control(_) => {}
                Access::Mut(_) => {
                    last_writer.insert(key, id);
                    readers.remove(&key);
                }
            }
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != id);
        all.push(preds);
    }
    all
}

/// Successor lists (ascending) from predecessor lists.
pub fn successors(preds: &[Vec<TaskId>]) -> Vec<Vec<TaskId>> {
    let mut succs = vec![Vec::new(); preds.len()];
    for (id, ps) in preds.iter().enumerate() {
        for &p in ps {
            succs[p].push(id);
        }
    }
    succs
}

/// A sink that records what passes through it, and the ids it hands out.
struct Tee<'a> {
    sink: &'a mut dyn TaskSink<luqr::TaskOp>,
    log: &'a mut Vec<(usize, luqr::TaskOp)>,
    ids: &'a mut Vec<TaskId>,
}

impl TaskSink<luqr::TaskOp> for Tee<'_> {
    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        self.sink.declare(key, bytes, home_node);
    }
    fn push(&mut self, node: usize, op: luqr::TaskOp) -> TaskId {
        self.log.push((node, op));
        let id = self.sink.push(node, op);
        self.ids.push(id);
        id
    }
}

/// A planner source whose planned ops are logged, with their placements,
/// on their way to the window — and with the predecessors the window is
/// handed for each: at the end of every planning phase, the phase's sweep
/// ([`luqr_runtime::TaskOp::for_each_predecessor`]) over the ops it
/// planned, against the run's state at that point.
pub struct Logged {
    pub source: PlannerStepSource,
    pub log: Vec<(usize, luqr::TaskOp)>,
    /// Per logged op: the id the driver's sink handed out for it.
    pub ids: Vec<TaskId>,
    /// Per logged op: the writers and readers its phase's sweep named.
    pub preds: Vec<Vec<Pred>>,
    /// `(step, task)` for every step whose prelude asked the driver to
    /// await a decision task.
    pub awaited: Vec<(usize, TaskId)>,
}

impl Logged {
    pub fn new(source: PlannerStepSource) -> Self {
        Logged {
            source,
            log: Vec::new(),
            ids: Vec::new(),
            preds: Vec::new(),
            awaited: Vec::new(),
        }
    }

    /// Sweep the phase of step `k` that logged the ops from `from` on.
    fn sweep(&mut self, k: usize, from: usize) {
        let ops: Vec<luqr::TaskOp> = self.log[from..].iter().map(|&(_, op)| op).collect();
        let preds = &mut self.preds;
        preds.resize(self.log.len(), Vec::new());
        let all = Share::all();
        luqr::TaskOp::for_each_predecessor(&self.source.context(), k, &ops, &all, |v| {
            preds[from + v.op].extend(v.writer.iter().chain(v.readers));
        });
    }
}

impl StepSource for Logged {
    type Op = luqr::TaskOp;
    fn context(&self) -> Arc<RunCtx> {
        self.source.context()
    }
    fn num_steps(&self) -> usize {
        self.source.num_steps()
    }
    fn num_nodes(&self) -> usize {
        self.source.num_nodes()
    }
    fn prepare(&mut self, sink: &mut dyn TaskSink<luqr::TaskOp>) {
        self.source.prepare(sink);
    }
    fn plan_prelude(&mut self, k: usize, sink: &mut dyn TaskSink<luqr::TaskOp>) -> StepPhase {
        let (from, log, ids) = (self.log.len(), &mut self.log, &mut self.ids);
        let phase = self.source.plan_prelude(k, &mut Tee { sink, log, ids });
        if let StepPhase::AwaitDecision(task) = phase {
            self.awaited.push((k, task));
        }
        self.sweep(k, from);
        phase
    }
    fn plan_finish(&mut self, k: usize, sink: &mut dyn TaskSink<luqr::TaskOp>) {
        let (from, log, ids) = (self.log.len(), &mut self.log, &mut self.ids);
        self.source.plan_finish(k, &mut Tee { sink, log, ids });
        self.sweep(k, from);
    }
}
