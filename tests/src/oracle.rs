//! The dependency oracle: a task sequence's edges inferred the
//! sequential-task-flow way, from each task's accesses in insertion order.
//!
//! This is how the batch graph's builder and the streaming window found
//! their edges before both took them in closed form from each op's indices
//! ([`luqr::TaskOp::for_each_successor`],
//! [`luqr_runtime::TaskOp::for_each_predecessor`]). The rule, per datum: an
//! access depends on the last writer (RAW, WAW, and control ordering all
//! collapse to this edge), and a write also on every reader since that
//! write (WAR). [`Logged`] records the sequence a streamed run plans.

use std::collections::HashMap;
use std::sync::Arc;

use luqr::{PlannerStepSource, RunCtx};
use luqr_runtime::stream::{StepPhase, StepSource};
use luqr_runtime::{Access, DataKey, TaskId, TaskOp, TaskSink};

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

/// A sink that records what passes through it.
struct Tee<'a> {
    sink: &'a mut dyn TaskSink<luqr::TaskOp>,
    log: &'a mut Vec<(usize, luqr::TaskOp)>,
}

impl TaskSink<luqr::TaskOp> for Tee<'_> {
    fn num_nodes(&self) -> usize {
        self.sink.num_nodes()
    }
    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        self.sink.declare(key, bytes, home_node);
    }
    fn push(&mut self, node: usize, op: luqr::TaskOp) -> TaskId {
        self.log.push((node, op));
        self.sink.push(node, op)
    }
}

/// A planner source whose planned ops are logged, with their placements,
/// on their way to the window.
pub struct Logged {
    pub source: PlannerStepSource,
    pub log: Vec<(usize, luqr::TaskOp)>,
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
        let log = &mut self.log;
        self.source.plan_prelude(k, &mut Tee { sink, log })
    }
    fn plan_finish(&mut self, k: usize, sink: &mut dyn TaskSink<luqr::TaskOp>) {
        let log = &mut self.log;
        self.source.plan_finish(k, &mut Tee { sink, log });
    }
}
