//! # luqr-runtime — dynamic task-graph runtime and platform simulator
//!
//! A library-form reproduction of the runtime substrate the paper builds on
//! PaRSEC (Section IV):
//!
//! * [`graph`] — the batch task graph, a parameterized task graph unrolled:
//!   a task is a `Copy` descriptor ([`TaskOp`]) whose body, cost, name and
//!   accesses are derived from it on demand, and whose edges — the
//!   RAW/WAR/WAW hazards of those accesses — the algorithm layer supplies
//!   in closed form when the graph is built, as it supplies each op's
//!   predecessors to the streaming window. Both the LU and the QR branch
//!   of every elimination step live in the graph; branch ops consult the
//!   recorded criterion decision when they run and either execute or do
//!   nothing, and their cost reads the same decision — the paper's dynamic
//!   task-graph mechanism ("select the adequate tasks on the fly, and
//!   discard the useless ones").
//! * [`hash`] — the one integer hasher behind every sparse-key table
//!   ([`graph`], [`sched`]'s ready set, [`vtime`], the streaming window).
//! * [`exec`] — a dependency-counting multithreaded executor.
//! * [`platform`] / [`sim`] — a description of the paper's *Dancer* cluster
//!   (identical nodes, one flat link) and a discrete-event simulator
//!   replaying task graphs against it: owner-computes placement, each
//!   task's closed-form cost under per-class kernel efficiencies,
//!   NIC-serialized messages with latency + bandwidth. This regenerates
//!   the paper's distributed performance results from a single machine.
//! * [`stream`] — the windowed *streaming* executor: graph construction
//!   interleaved with execution, at most `window` consecutive steps
//!   materialized, completed steps retired, and per-step branch decisions
//!   consumed online ([`stream::StepSource`]). The batch path builds the
//!   whole DAG first; the streaming path bounds graph memory by the window.
//! * [`comm`] — the communication model shared by the simulator and the
//!   *distributed* streaming window: NIC-serialized transfers plus the
//!   protocol message records (DataMsg / DecisionMsg / RetireMsg).
//! * [`net`] — real transports for that protocol: a [`net::Transport`]
//!   endpoint per rank (in-process loopback, or Unix-domain sockets
//!   between worker processes) moving length-prefixed wire frames, driven
//!   by the SPMD executor [`stream::execute_net`].
//! * [`vtime`] — the virtual-time engine behind [`sim`]: the discrete-event
//!   model consumed one task at a time.
//! * [`sched`] — the replay's driver: the graph's stored edges release
//!   tasks into one ready queue, popped in one of the two orders this
//!   workspace's executors use — FIFO (id order, the batch executor's and
//!   the bitwise-pinned default) or critical-path (deepest chain first,
//!   the streaming workers' order, from the same queue).
//! * [`probe`] — typed metrics probes (counters, gauges, time-series
//!   histograms) threaded through the replay, the streaming window, the
//!   comm model, and the vtime engine, plus a replay's makespan
//!   attribution (compute / transfer / NIC contention / idle) and
//!   Chrome-trace, Prometheus, and JSON export.
//! * [`dot`] — Graphviz export (Figure 1's dataflow, from a live graph).

pub mod comm;
pub mod dot;
pub mod exec;
pub mod graph;
pub mod hash;
pub mod net;
pub mod platform;
pub mod probe;
pub mod sched;
pub mod sim;
pub mod stream;
#[cfg(test)]
pub(crate) mod testing;
pub mod trace;
pub mod vtime;

pub use comm::{
    DataMsg, DecisionMsg, LinkMsgStats, LinkTraffic, Msg, MsgStats, Network, RetireMsg,
};
pub use exec::{execute, execute_traced, ExecReport, Tally};
pub use graph::{
    Access, CostClass, CostedAccess, DataClass, DataKey, Graph, GraphBuilder, Pred, Routed, Share,
    TaskId, TaskOp, TaskRef, TaskResult, TaskSink, Visit,
};
pub use net::{Frame, NetReport, PayloadStore, Transport, TransportError};
pub use platform::{Efficiency, LinkSpec, NodeCountMismatch, NodeSpec, Platform};
pub use probe::{AttribBuckets, Attribution, Histogram, Label, Probe, ProbeReport, ProbeSnapshot};
pub use sched::SchedPolicy;
pub use sim::{simulate, simulate_probed, simulate_with, SimReport};
pub use stream::{NetConfig, StepPhase, StepSource, StreamOptions, StreamReport};
pub use trace::{render_chrome_trace, TraceEvent, TraceOptions};
pub use vtime::VirtualSchedule;
