//! Critical-path-depth task priorities for the streaming window's
//! host-side workers.
//!
//! The implementation is [`crate::sched::ReadyQueue`]: the same depth
//! metric and the same max-heap drive both the batch virtual-time
//! schedule (under [`crate::sched::SchedPolicy::CriticalPath`]) and the
//! streaming workers' pop order, which is what keeps the two runtimes'
//! notion of "deepest ready task" identical. This module re-exports the queue under its historical
//! home so the window code reads unchanged.

pub use crate::sched::{Ready, ReadyQueue};
