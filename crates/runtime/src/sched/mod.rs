//! The replay's ready-task order.
//!
//! The discrete-event model ([`crate::vtime::VirtualSchedule`]) is a *list
//! scheduler*: tasks claim cores and network slots one at a time, in
//! whatever order they are handed to it, and any topological order of the
//! graph is a valid schedule. The replay driver (`engine.rs`, behind
//! [`crate::sim::simulate_with`]) schedules the graph it is given: each
//! task's remaining-predecessor count starts at the graph's `num_preds`, a
//! task enters the ready set when its last predecessor has been costed,
//! and the [`SchedPolicy`] decides which ready task claims resources next.
//! No hazard is inferred here — the edges are the ones
//! [`crate::graph::GraphBuilder`] stored.
//!
//! The two policies are the two pop orders this workspace's executors
//! use, so a replay costs a schedule one of them would run:
//!
//! * [`SchedPolicy::Fifo`] — the batch executor's ([`crate::exec`])
//!   first-in, first-out ready queue. The replay pops the smallest ready
//!   id: with every graph edge pointing from lower to higher ids, that
//!   replays insertion order exactly, which is bitwise the pre-subsystem
//!   engine (property-tested).
//! * [`SchedPolicy::CriticalPath`] — the streaming window's worker queue:
//!   the deepest ready chain first, ties toward the smallest id. Both pop
//!   one [`ReadyQueue`].
//!
//! Scheduling **never** changes the factorization: placements, kernels,
//! and numerical results are fixed by the algorithm layer; a policy only
//! permutes the virtual timeline. The timeline-only invariant is
//! property-tested in `sched_props.rs`: every policy's replay moves the
//! data the streaming window routed, link for link, and finishes every
//! executed task before any executed successor of it starts.

mod critical_path;
mod engine;

pub use critical_path::{Ready, ReadyQueue};
pub(crate) use engine::replay;

/// Which ready-task order drives the virtual-time schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Smallest ready id first: insertion order (the pre-subsystem
    /// behavior, bitwise).
    #[default]
    Fifo,
    /// Deepest dependency chain first (the streaming window's order).
    CriticalPath,
}

impl SchedPolicy {
    /// Stable lowercase name (bench records, trace lane labels).
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::CriticalPath => "critical-path",
        }
    }

    /// Every policy, in documentation order (sweeps and tests).
    pub fn all() -> [SchedPolicy; 2] {
        [SchedPolicy::Fifo, SchedPolicy::CriticalPath]
    }

    /// The [`ReadyQueue`] priority of a task of critical-path depth
    /// `depth`: the depth itself under critical-path, and 0 under FIFO,
    /// where the queue's tie-break — the smallest id — decides alone.
    pub(crate) fn priority(&self, depth: u64) -> u64 {
        match self {
            SchedPolicy::Fifo => 0,
            SchedPolicy::CriticalPath => depth,
        }
    }
}
