//! Adapter exposing a [`StepPlanner`] to the streaming runtime.
//!
//! [`PlannerStepSource`] implements [`luqr_runtime::stream::StepSource`]:
//! the streaming driver pulls elimination steps on demand, and each
//! planning call is translated into the planner's [`Inserter`] context over
//! whatever [`TaskSink`] the runtime hands back (the live window). The
//! hybrid planner returns its PANEL task from the prelude, which the driver
//! awaits before asking for the decision-dependent remainder — this is the
//! point where the criterion is consumed *online* and only the chosen
//! branch is unrolled.
//!
//! The source is what carries node-awareness from the algorithm layer into
//! the runtime: `num_nodes` reports the process grid's extent so the
//! window splits into per-node sub-windows, `prepare` declares every tile
//! with its block-cyclic home (the communication model's fetch sources and
//! byte counts), and the planners place each task on its owner node and
//! classify the per-step decision datum — which is how the distributed
//! window knows to account cross-node reads of it as the paper's criterion
//! broadcast ([`luqr_runtime::DecisionMsg`]).

use std::sync::Arc;

use luqr_runtime::stream::{StepPhase, StepSource};
use luqr_runtime::TaskSink;
use luqr_tile::TiledMatrix;

use crate::config::FactorOptions;
use crate::op::TaskOp;
use crate::state::RunCtx;

use super::{declare_tiles, Inserter, SharedState, StepPlanner};

/// A factorization exposed step by step to [`luqr_runtime::stream::execute_with`].
pub struct PlannerStepSource {
    planner: Box<dyn StepPlanner>,
    ctx: Arc<RunCtx>,
}

impl PlannerStepSource {
    /// Stream the factorization of `aug` (an augmented `[A | B]` tiled
    /// matrix with `nt_a` tile columns of `A`) using the planner registered
    /// for `opts.algorithm`.
    pub fn new(aug: &TiledMatrix, nt_a: usize, opts: &FactorOptions) -> Self {
        PlannerStepSource {
            planner: crate::planner_for(&opts.algorithm),
            ctx: RunCtx::new(aug, nt_a, opts),
        }
    }

    /// Shared state written by the factorization's tasks (criterion
    /// records, first numerical failure).
    pub fn shared(&self) -> &SharedState {
        &self.ctx.shared
    }

    /// The planner-facing insertion context over `sink`.
    fn inserter<'s>(&'s self, sink: &'s mut dyn TaskSink<TaskOp>) -> Inserter<'s> {
        Inserter {
            b: sink,
            ctx: &self.ctx,
        }
    }
}

impl StepSource for PlannerStepSource {
    type Op = TaskOp;

    fn context(&self) -> Arc<RunCtx> {
        Arc::clone(&self.ctx)
    }

    fn num_steps(&self) -> usize {
        self.ctx.nt_a
    }

    fn num_nodes(&self) -> usize {
        self.ctx.grid.nodes()
    }

    fn prepare(&mut self, sink: &mut dyn TaskSink<TaskOp>) {
        declare_tiles(sink, &self.ctx);
    }

    fn plan_prelude(&mut self, k: usize, sink: &mut dyn TaskSink<TaskOp>) -> StepPhase {
        match self.planner.plan_step_prelude(k, &mut self.inserter(sink)) {
            Some(decision_task) => StepPhase::AwaitDecision(decision_task),
            None => StepPhase::Complete,
        }
    }

    fn plan_finish(&mut self, k: usize, sink: &mut dyn TaskSink<TaskOp>) {
        self.planner.plan_step_rest(k, &mut self.inserter(sink));
    }
}
