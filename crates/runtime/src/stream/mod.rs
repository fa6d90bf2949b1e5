//! Windowed streaming executor: online graph unrolling.
//!
//! The batch pipeline ([`crate::graph::GraphBuilder`] → [`crate::exec::execute`])
//! materializes the *entire* task graph — O(N³) task records for a tiled
//! factorization, both branches of every hybrid step — before running a
//! single kernel. This module interleaves the two, the way PaRSEC's
//! parameterized task graphs unroll lazily:
//!
//! * a [`StepSource`] (the algorithm layer) is pulled **one step at a
//!   time**, and only when fewer than `window` steps are still live; what
//!   one planning call inserts — a *phase* — reaches the window at once:
//!   one sweep per datum derives the phase's edges, and one critical
//!   section links, routes and queues its tasks;
//! * tasks execute while later steps are still being planned, scheduled by
//!   critical-path depth ([`crate::sched::ReadyQueue`]) so the panel chain
//!   stays hot;
//! * a step's task records are reclaimed as they complete, and the step
//!   retires when it drains — graph memory is bounded by the window, not
//!   by the factorization;
//! * a source may split a step at its *decision point*
//!   ([`StepPhase::AwaitDecision`]): the driver blocks until the decision
//!   task has executed, then asks the source to plan the remainder — which
//!   can now consult fresh data and insert **only the chosen branch**
//!   instead of both branches statically.
//!
//! There is one distributed code path, and [`execute_with`] is not it: its
//! window runs every task of the source in this process, whatever node the
//! source places it on, and routes nothing. A distributed run is
//! [`execute_net`] on every rank — threads of one process over loopback
//! mailboxes, or processes over sockets. Each rank's window runs the tasks
//! placed on it, and cross-rank progress flows through [`crate::comm`]
//! message records, made into wire frames and tallied per directed link in
//! [`StreamReport::link_msgs`]. Routing sends what the platform simulator
//! prices — one payload message per (executed version, destination node) —
//! so the ranks' per-link payload traffic, summed, is the `link_messages`
//! of [`crate::sim::simulate`] replaying the equivalent batch graph. A
//! streamed run executes; virtual time is that replay's.
//!
//! Execution is bitwise-identical to the batch path because the window
//! links each task to the same closed-form predecessors the batch graph's
//! edges come from ([`TaskOp::for_each_predecessor`], a phase at a time);
//! a step whose decision is recorded names only its chosen branch, and
//! dropping a never-executed branch removes no executed writer and so
//! changes no per-datum mutation order.

mod retire;
mod ring;
mod window;
mod wire;

use std::sync::Arc;
use std::time::Instant;

use crate::comm::{LinkMsgStats, MsgStats};
use crate::graph::{DataKey, TaskId, TaskOp, TaskSink};
use crate::net::{NetReport, PayloadStore, Transport, TransportError};
use crate::probe::{metric, Label, Probe};
use crate::trace::TraceEvent;

use window::{Phase, StreamWindow, NO_STEP};
use wire::Wire;

/// What a source planned for one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPhase {
    /// The step is fully planned.
    Complete,
    /// The remainder of the step depends on the runtime outcome of the
    /// given task — named by the id the sink returned for it (e.g. the
    /// hybrid's LU/QR criterion decision): the driver must wait for it to
    /// complete, then call [`StepSource::plan_finish`].
    AwaitDecision(TaskId),
}

/// A factorization algorithm exposed step by step to the streaming driver.
///
/// This is the streaming counterpart of driving a batch planner in a loop:
/// the driver calls `plan_prelude(k, …)` for `k = 0..num_steps()` strictly
/// in order (the order the ops' closed-form predecessors assume), awaiting
/// the decision task and calling `plan_finish` in between when a step asks
/// for it.
pub trait StepSource {
    /// The task descriptors this source plans.
    type Op: TaskOp;

    /// The context those descriptors are interpreted against — shared by
    /// the planner (through the source) and the workers (through the
    /// window) for the whole run.
    fn context(&self) -> Arc<<Self::Op as TaskOp>::Ctx>;

    /// Number of elimination steps.
    fn num_steps(&self) -> usize;

    /// Nodes referenced by task placements: a wire run has one rank per
    /// node, a local window runs them all.
    fn num_nodes(&self) -> usize {
        1
    }

    /// Called once before planning; declare data here (no task insertion).
    fn prepare(&mut self, _sink: &mut dyn TaskSink<Self::Op>) {}

    /// Plan step `k` up to (and including) its decision point — or the
    /// whole step, for algorithms with no runtime decision. What one call
    /// inserts is a planning phase: the window takes it in when the call
    /// returns.
    fn plan_prelude(&mut self, k: usize, sink: &mut dyn TaskSink<Self::Op>) -> StepPhase;

    /// Plan the decision-dependent remainder of step `k` (only called
    /// after the task named by [`StepPhase::AwaitDecision`] completed).
    fn plan_finish(&mut self, _k: usize, _sink: &mut dyn TaskSink<Self::Op>) {}
}

/// Configuration of one streaming execution.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Live steps at most (clamped to ≥ 1).
    pub window: usize,
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Record per-task `(start, end, worker, step, node)` events
    /// ([`StreamReport::trace`]) for Chrome-trace export.
    pub trace: bool,
    /// Metrics probe. [`Probe::disabled`] (the default) records nothing
    /// and costs a branch per emission site; an enabled probe collects
    /// window/comm/kernel metrics, retrieved afterwards via
    /// [`Probe::report`].
    pub probe: Probe,
}

impl StreamOptions {
    /// A fixed window, untraced and unprobed.
    pub fn fixed(window: usize, threads: usize) -> Self {
        StreamOptions {
            window,
            threads,
            trace: false,
            probe: Probe::disabled(),
        }
    }

    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }
}

/// Summary of one streaming execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamReport {
    /// Wall-clock seconds, planning and execution interleaved.
    pub wall_seconds: f64,
    /// Elimination steps unrolled.
    pub steps: usize,
    /// Tasks planned into the window over the whole run (on a wire rank,
    /// those placed on it).
    pub tasks_planned: usize,
    /// Ops the planning sweeps named anything for: `tasks_planned` plus,
    /// on a wire rank, the boundary — `boundary_writers` other ranks' ops
    /// that write a datum the rank sweeps, and `boundary_readers` visited
    /// only to route a version the rank sources to their node (the
    /// window's "Rank-local planning"). Every other op of another rank
    /// costs the rank only its id.
    pub ops_named: usize,
    pub boundary_writers: usize,
    pub boundary_readers: usize,
    /// Tasks that ran their kernel: every completed one, since the window
    /// plans only the chosen hybrid branch.
    pub tasks_executed: usize,
    /// Total flops reported by executed tasks (excluding Memory
    /// pseudo-flops).
    pub total_flops: f64,
    /// Highest number of simultaneously materialized task records — the
    /// window's memory high-water mark. The batch path materializes
    /// `tasks_planned`-many records (and more: both branches) at once.
    pub peak_live_tasks: usize,
    /// Highest number of simultaneously live steps (≤ the window size).
    pub peak_live_steps: usize,
    /// Tasks planned per elimination step (for window-bound accounting).
    pub per_step_tasks: Vec<usize>,
    /// Distributed-protocol message counters (data transfers and decision
    /// broadcasts): on a wire rank ([`execute_net`]), the messages on the
    /// links that touch the rank; zero on a local window, which routes
    /// nothing.
    pub msgs: MsgStats,
    /// The same counters broken out per directed `(src, dst)` link, in
    /// `(src, dst)` order. Empty for a local window and a one-rank run.
    pub link_msgs: Vec<LinkMsgStats>,
    /// Per-task execution spans (set when [`StreamOptions::trace`] was
    /// on); render with [`crate::trace::render_chrome_trace`].
    pub trace: Vec<TraceEvent>,
    /// Wire-level transport counters (set by [`execute_net`] only):
    /// frames and payload bytes actually moved by *this rank*, with
    /// serialize/deserialize latency histograms.
    pub net: Option<NetReport>,
}

/// Transport binding for [`execute_net`]: the endpoint this rank sends and
/// receives on, plus the algorithm layer's payload serializer (how a
/// [`crate::graph::DataKey`]'s bytes get in and out of the local mirror).
///
/// Not folded into [`StreamOptions`] (which stays `Debug + Clone` over
/// plain data): transports are live OS resources.
#[derive(Clone)]
pub struct NetConfig {
    pub transport: Arc<dyn Transport>,
    pub store: Arc<dyn PayloadStore>,
}

/// The streaming driver's [`TaskSink`]: it buffers one planning phase of
/// the open step — the prelude, or the decision-dependent finish — and
/// [`StepSink::flush`] hands the phase to the window, which takes it in
/// with one sweep per datum and one critical section. It hands out the task
/// ids itself: the planner is the only thread that inserts, so the window
/// gives a phase's ops the next ids in order — the id a source names in
/// [`StepPhase::AwaitDecision`] is its task's. While no step is open
/// ([`NO_STEP`], before planning) it takes declarations only.
///
/// It checks each placement against the source's `nodes`, and on a local
/// window puts every op and every datum's home on node 0: the window has no
/// other, and so nothing it runs depends on another node.
struct StepSink<'a, O: TaskOp> {
    win: &'a StreamWindow<O>,
    nodes: usize,
    step: usize,
    /// The id of the next op pushed.
    next_id: TaskId,
    phase: Phase<O>,
}

impl<'a, O: TaskOp> StepSink<'a, O> {
    /// A sink for a source over `nodes` nodes, over a window nothing was
    /// inserted into yet.
    fn new(win: &'a StreamWindow<O>, nodes: usize) -> Self {
        StepSink {
            win,
            nodes,
            step: NO_STEP,
            next_id: 0,
            phase: Phase::default(),
        }
    }

    /// Where the window puts what the source placed on `node`.
    fn place(&self, node: usize) -> usize {
        assert!(node < self.nodes, "placement on unknown node {node}");
        if self.win.local() {
            0
        } else {
            node
        }
    }

    /// Hand the buffered phase to the window; with `close`, planning of the
    /// step ends with it.
    fn flush(&mut self, close: bool) {
        let next = self.win.plan_phase(self.step, &mut self.phase, close);
        assert_eq!(
            next, self.next_id,
            "the window issued the ids the sink handed out"
        );
    }
}

impl<O: TaskOp> TaskSink<O> for StepSink<'_, O> {
    fn declare(&mut self, key: DataKey, bytes: usize, home_node: usize) {
        let home = self.place(home_node);
        self.phase.decls.push((key, bytes, home));
    }

    fn push(&mut self, node: usize, op: O) -> TaskId {
        let node = self.place(node);
        let step = self.step;
        assert_ne!(
            step, NO_STEP,
            "tasks may only be inserted into an open step"
        );
        assert!(
            op.step(self.win.context()).is_none_or(|s| s == step),
            "op of another step inserted into step {step}"
        );
        self.phase.ops.push(op);
        self.phase.nodes.push(node);
        self.next_id += 1;
        self.next_id - 1
    }
}

/// Execute `source` in this process under the full streaming
/// configuration: window and worker threads (both clamped to ≥ 1),
/// optional trace recording.
///
/// The window is local: it runs every task and holds every datum, whatever
/// node the source places them on, so it routes nothing — its `msgs` are
/// zero and its `link_msgs` and `net` empty. A distributed run is
/// [`execute_net`] on every rank.
///
/// The calling thread plans; workers execute concurrently. Numerical
/// results are deterministic across window and thread count because the
/// closed-form edges serialize all conflicting accesses in planning order —
/// the same guarantee the batch executor gives.
pub fn execute_with<S: StepSource + ?Sized>(source: &mut S, opts: &StreamOptions) -> StreamReport {
    drive(source, opts, None).expect("only a transport can fail a run, and there is none")
}

/// Execute `source` as one rank of a real distributed run (SPMD): every
/// rank calls this with the *same* deterministic source over its own
/// mirror of the data, its own transport endpoint, and its own payload
/// store.
///
/// Every rank names every task by the same id, but plans and runs only its
/// share: the tasks placed on it, linked to their local predecessors and
/// gated on the arrival of their cross-rank inputs. A task placed on
/// another rank keeps its id, its place in its step's table and the
/// version it writes, and this rank still sends it the inputs it holds;
/// nothing else of it exists here. So each rank's [`MsgStats`] and
/// [`StreamReport::link_msgs`] are the run's payload messages on the links
/// that touch the rank (every one it sends goes out as a real wire frame),
/// its `tasks_planned` and `tasks_executed` its own share, and it retires
/// its own steps. At the end, ranks other than 0 ship the final version of
/// every datum they own to rank 0, whose mirror then holds the complete
/// factorization.
///
/// An endpoint whose world size is not `source.num_nodes()` is a typed
/// error before anything starts.
pub fn execute_net<S: StepSource + ?Sized>(
    source: &mut S,
    opts: &StreamOptions,
    net: NetConfig,
) -> Result<StreamReport, TransportError> {
    let wire = Wire::new(net, source.num_nodes())?;
    drive(source, opts, Some(wire))
}

/// Unwinding out of the driver's scope with workers (and, on a wire, the
/// receiver and the peers) still asleep would hang the scope's join: fail
/// the run on the way out so every thread returns.
struct AbortOnUnwind<'a, O: TaskOp>(&'a StreamWindow<O>);

impl<O: TaskOp> Drop for AbortOnUnwind<'_, O> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0
                .fail_panicked(Box::new("the streaming planner panicked"));
            if let Some(transport) = self.0.endpoint() {
                self.0.abort();
                transport.shutdown();
            }
        }
    }
}

/// The one driver loop behind [`execute_with`] and [`execute_net`]: the
/// calling thread opens, plans, awaits and closes steps, at most `window`
/// live at once, while `threads` workers execute; on a wire, a receiver thread
/// pumps inbound frames and the run ends with the rank protocol.
fn drive<S: StepSource + ?Sized>(
    source: &mut S,
    opts: &StreamOptions,
    wire: Option<Wire>,
) -> Result<StreamReport, TransportError> {
    let threads = opts.threads.max(1);
    let start = Instant::now();
    let win = StreamWindow::new(source.context(), opts, wire);
    let steps = source.num_steps();
    let probing = opts.probe.is_enabled();

    let window = opts.window.max(1);
    let mut wire_result = Ok(());

    std::thread::scope(|scope| {
        for w in 0..threads {
            let win = &win;
            scope.spawn(move || win.worker_loop(w));
        }
        if let Some(transport) = win.endpoint() {
            let win = &win;
            scope.spawn(move || win.pump_frames(&*transport));
        }
        let _abort = AbortOnUnwind(&win);

        let mut sink = StepSink::new(&win, source.num_nodes());
        source.prepare(&mut sink);
        sink.flush(false);
        for k in 0..steps {
            // A failed run's waits return at once: stop planning into it.
            if win.failed() {
                break;
            }
            win.wait_for_capacity(window);
            win.open_step(k);
            sink.step = k;
            let mut decision_wait = 0.0f64;
            if let StepPhase::AwaitDecision(decision_task) = source.plan_prelude(k, &mut sink) {
                sink.flush(false);
                let t0 = Instant::now();
                win.wait_for_task(decision_task);
                if !win.wait_decision_value(decision_task) {
                    sink.flush(true);
                    break;
                }
                decision_wait = t0.elapsed().as_secs_f64();
                source.plan_finish(k, &mut sink);
            }
            if probing {
                // Planner-side stall on this step's panel/criterion
                // decision (zero for steps with no decision point).
                opts.probe
                    .observe(metric::STREAM_PANEL_WAIT, Label::None, decision_wait);
            }
            sink.flush(true);
        }
        win.finish_planning();
        win.wait_drained();
        wire_result = win.end_of_run();
    });

    // A kernel panic outranks whatever it made of the transport.
    if let Some(payload) = win.take_panic() {
        std::panic::resume_unwind(payload);
    }
    wire_result?;
    let counted = win.report();
    Ok(StreamReport {
        wall_seconds: start.elapsed().as_secs_f64(),
        steps,
        ..counted
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, CostClass, DataKey, TaskResult};
    use crate::net::loopback::loopback_set;
    use crate::testing::{with_watchdog, NullStore, TestCtx, TestOp};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    type Sink<'a> = &'a mut dyn TaskSink<TestOp>;

    /// The op plumbing every test source shares: its ops are [`TestOp`]s
    /// over the body table in `self.ctx`.
    macro_rules! test_ops {
        () => {
            type Op = TestOp;
            fn context(&self) -> Arc<TestCtx> {
                Arc::clone(&self.ctx)
            }
        };
    }

    fn gemm_unit() -> TaskResult {
        TaskResult::executed(1.0, CostClass::Gemm)
    }

    fn k(i: u64) -> DataKey {
        DataKey(i)
    }

    /// [`execute_with`] under the watchdog: a release lost in the window
    /// fails the test, named by `what`, instead of hanging the binary.
    fn execute<S: StepSource + Send + 'static>(
        what: &str,
        mut src: S,
        opts: StreamOptions,
    ) -> StreamReport {
        with_watchdog(what, move || execute_with(&mut src, &opts))
    }

    /// Run a source on each of `nodes` SPMD ranks over loopback mailboxes,
    /// one thread each: rank `r` builds its own with `source(r)` (and the
    /// payload store over it). What `outcome` made of each rank's source,
    /// and its report, in rank order.
    fn wired<S: StepSource, T: Send>(
        nodes: usize,
        opts: &StreamOptions,
        source: impl Fn(usize) -> (S, Arc<dyn PayloadStore>) + Sync,
        outcome: impl Fn(&S) -> T + Sync,
    ) -> Vec<(T, StreamReport)> {
        std::thread::scope(|s| {
            let ranks: Vec<_> = loopback_set(nodes)
                .into_iter()
                .map(|transport| {
                    let (source, outcome) = (&source, &outcome);
                    s.spawn(move || {
                        let (mut src, store) = source(transport.rank());
                        let net = NetConfig { transport, store };
                        let report = execute_net(&mut src, opts, net);
                        (outcome(&src), report.expect("the wire run completes"))
                    })
                })
                .collect();
            let join = |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("rank panicked");
            ranks.into_iter().map(join).collect()
        })
    }

    /// The reports of `make()` run as two ranks under the watchdog, named by
    /// `what`, over stores that carry no bytes.
    fn two_ranks<S: StepSource + 'static>(
        what: &str,
        make: fn() -> S,
        opts: StreamOptions,
    ) -> Vec<StreamReport> {
        with_watchdog(what, move || {
            let ranks = wired(2, &opts, |_| (make(), Arc::new(NullStore) as _), |_| ());
            ranks.into_iter().map(|(_, report)| report).collect()
        })
    }

    /// A chain-per-step source: step `s` appends `width` tasks that all
    /// mutate the same datum, so execution is fully serialized.
    struct ChainSource {
        steps: usize,
        width: usize,
        log: Arc<parking_lot::Mutex<Vec<usize>>>,
        ctx: Arc<TestCtx>,
    }

    impl ChainSource {
        fn new(steps: usize, width: usize) -> Self {
            ChainSource {
                steps,
                width,
                log: Arc::default(),
                ctx: Arc::default(),
            }
        }
    }

    impl StepSource for ChainSource {
        test_ops!();

        fn num_steps(&self) -> usize {
            self.steps
        }

        fn prepare(&mut self, sink: Sink<'_>) {
            sink.declare(k(0), 8, 0);
        }

        fn plan_prelude(&mut self, s: usize, sink: Sink<'_>) -> StepPhase {
            for t in 0..self.width {
                let log = Arc::clone(&self.log);
                let tag = s * self.width + t;
                let name = format!("t{tag}");
                self.ctx.task(sink, name, 0, &[Access::Mut(k(0))], move || {
                    log.lock().push(tag);
                    gemm_unit()
                });
            }
            StepPhase::Complete
        }
    }

    #[test]
    fn chain_runs_in_order_across_steps() {
        for (window, threads) in [(1, 1), (1, 4), (2, 2), (8, 3)] {
            let src = ChainSource::new(6, 5);
            let log = Arc::clone(&src.log);
            let what = format!("chain w={window} t={threads}");
            let report = execute(&what, src, StreamOptions::fixed(window, threads));
            assert_eq!(report.tasks_executed, 30);
            assert_eq!(report.tasks_planned, 30);
            assert!(report.peak_live_steps <= window);
            let expected: Vec<usize> = (0..30).collect();
            assert_eq!(*log.lock(), expected, "w={window} t={threads}");
        }
    }

    #[test]
    fn window_bounds_live_tasks() {
        // Independent tasks per step: with window = 1, at most one step's
        // tasks may ever be materialized.
        #[derive(Default)]
        struct WideSource {
            ctx: Arc<TestCtx>,
        }
        impl StepSource for WideSource {
            test_ops!();
            fn num_steps(&self) -> usize {
                10
            }
            fn prepare(&mut self, sink: Sink<'_>) {
                for s in 0..10u64 {
                    for t in 0..20u64 {
                        sink.declare(k(s * 100 + t), 8, 0);
                    }
                }
            }
            fn plan_prelude(&mut self, s: usize, sink: Sink<'_>) -> StepPhase {
                for t in 0..20 {
                    let key = k((s as u64) * 100 + t as u64);
                    self.ctx
                        .task(sink, format!("t{s}/{t}"), 0, &[Access::Mut(key)], gemm_unit);
                }
                StepPhase::Complete
            }
        }
        let report = execute("wide", WideSource::default(), StreamOptions::fixed(1, 4));
        assert_eq!(report.tasks_executed, 200);
        assert_eq!(report.peak_live_steps, 1);
        assert!(
            report.peak_live_tasks <= 20,
            "peak {} exceeds one step's tasks",
            report.peak_live_tasks
        );
        assert_eq!(report.per_step_tasks, vec![20; 10]);
    }

    #[test]
    fn await_decision_plans_only_chosen_branch() {
        // Step 0 writes a runtime value; the source awaits it and plans a
        // branch depending on what the task computed — the online-decision
        // protocol of the hybrid planner.
        struct DecidingSource {
            decided: Arc<AtomicUsize>,
            branch_ran: Arc<AtomicUsize>,
            ctx: Arc<TestCtx>,
        }
        impl StepSource for DecidingSource {
            test_ops!();
            fn num_steps(&self) -> usize {
                1
            }
            fn prepare(&mut self, sink: Sink<'_>) {
                sink.declare(k(0), 8, 0);
            }
            fn plan_prelude(&mut self, _: usize, sink: Sink<'_>) -> StepPhase {
                let d = Arc::clone(&self.decided);
                let id = self
                    .ctx
                    .task(sink, "decide", 0, &[Access::Mut(k(0))], move || {
                        d.store(7, Ordering::SeqCst);
                        TaskResult::control()
                    });
                StepPhase::AwaitDecision(id)
            }
            fn plan_finish(&mut self, _: usize, sink: Sink<'_>) {
                // The decision value is visible *at planning time*.
                assert_eq!(self.decided.load(Ordering::SeqCst), 7);
                let b = Arc::clone(&self.branch_ran);
                self.ctx
                    .task(sink, "branch", 0, &[Access::Mut(k(0))], move || {
                        b.store(1, Ordering::SeqCst);
                        TaskResult::executed(2.0, CostClass::Trsm)
                    });
            }
        }
        let decided = Arc::new(AtomicUsize::new(0));
        let branch_ran = Arc::new(AtomicUsize::new(0));
        let src = DecidingSource {
            decided: Arc::clone(&decided),
            branch_ran: Arc::clone(&branch_ran),
            ctx: Arc::default(),
        };
        let report = execute("deciding", src, StreamOptions::fixed(2, 3));
        assert_eq!(report.tasks_executed, 2);
        assert_eq!(branch_ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_source_completes() {
        #[derive(Default)]
        struct Empty {
            ctx: Arc<TestCtx>,
        }
        impl StepSource for Empty {
            test_ops!();
            fn num_steps(&self) -> usize {
                0
            }
            fn plan_prelude(&mut self, _: usize, _: Sink<'_>) -> StepPhase {
                unreachable!()
            }
        }
        let report = execute("empty", Empty::default(), StreamOptions::fixed(4, 2));
        assert_eq!(report.tasks_planned, 0);
        assert_eq!(report.peak_live_steps, 0);
    }

    #[test]
    fn deterministic_across_windows_and_threads() {
        // A float reduction whose result depends on execution order: the
        // hazard chain must force identical arithmetic everywhere.
        fn run(window: usize, threads: usize) -> f64 {
            let cell = Arc::new(parking_lot::Mutex::new(1.0f64));
            struct Reduce {
                cell: Arc<parking_lot::Mutex<f64>>,
                ctx: Arc<TestCtx>,
            }
            impl StepSource for Reduce {
                test_ops!();
                fn num_steps(&self) -> usize {
                    8
                }
                fn prepare(&mut self, sink: Sink<'_>) {
                    sink.declare(k(0), 8, 0);
                }
                fn plan_prelude(&mut self, s: usize, sink: Sink<'_>) -> StepPhase {
                    for t in 0..5usize {
                        let cell = Arc::clone(&self.cell);
                        let i = s * 5 + t;
                        self.ctx
                            .task(sink, format!("r{i}"), 0, &[Access::Mut(k(0))], move || {
                                let mut v = cell.lock();
                                *v = (*v * 1.0000001).sin() + i as f64 * 1e-3;
                                TaskResult::control()
                            });
                    }
                    StepPhase::Complete
                }
            }
            let src = Reduce {
                cell: Arc::clone(&cell),
                ctx: Arc::default(),
            };
            let what = format!("reduce w={window} t={threads}");
            execute(&what, src, StreamOptions::fixed(window, threads));
            let v = *cell.lock();
            v
        }
        let base = run(1, 1);
        for (w, t) in [(1, 4), (3, 2), (8, 8)] {
            assert_eq!(base.to_bits(), run(w, t).to_bits(), "w={w} t={t}");
        }
    }

    /// A two-node source: step tasks on node 1 consume a datum produced on
    /// node 0, so two ranks must route cross-node releases and count the
    /// transfers.
    #[derive(Default)]
    struct TwoNodeSource {
        ctx: Arc<TestCtx>,
    }
    impl StepSource for TwoNodeSource {
        test_ops!();
        fn num_steps(&self) -> usize {
            3
        }
        fn num_nodes(&self) -> usize {
            2
        }
        fn prepare(&mut self, sink: Sink<'_>) {
            sink.declare(k(0), 100, 0);
            sink.declare(k(1), 100, 1);
        }
        fn plan_prelude(&mut self, s: usize, sink: Sink<'_>) -> StepPhase {
            self.ctx
                .task(sink, format!("p{s}"), 0, &[Access::Mut(k(0))], gemm_unit);
            // Two consumers on node 1: the version crosses once.
            for t in 0..2 {
                let accesses = [Access::Read(k(0)), Access::Mut(k(1))];
                self.ctx
                    .task(sink, format!("c{s}/{t}"), 1, &accesses, gemm_unit);
            }
            StepPhase::Complete
        }
    }

    #[test]
    fn cross_node_flow_counts_one_msg_per_version_and_destination() {
        let make = TwoNodeSource::default;
        let reports = two_ranks("two nodes", make, StreamOptions::fixed(2, 2));
        let executed: Vec<usize> = reports.iter().map(|r| r.tasks_executed).collect();
        assert_eq!(executed, [3, 6]);
        // One DataMsg per step for k(0) (producer → node 1), regardless
        // of the two consumers there: both ends count it alike.
        for report in &reports {
            let link = LinkMsgStats {
                src: 0,
                dst: 1,
                msgs: MsgStats {
                    data_msgs: 3,
                    bytes: 300,
                    ..MsgStats::default()
                },
            };
            assert_eq!(report.link_msgs, [link]);
            assert_eq!(report.msgs, link.msgs);
        }
    }

    /// A local window runs every node's tasks and routes nothing, whatever
    /// the source places where.
    #[test]
    fn single_node_source_moves_no_messages() {
        let chain = execute(
            "one node",
            ChainSource::new(4, 3),
            StreamOptions::fixed(2, 2),
        );
        let two = execute(
            "two nodes",
            TwoNodeSource::default(),
            StreamOptions::fixed(2, 2),
        );
        for report in [chain, two] {
            assert_eq!(report.tasks_executed, report.tasks_planned);
            assert_eq!(report.msgs, MsgStats::default());
            assert!(report.link_msgs.is_empty() && report.net.is_none());
        }
    }

    /// Redeclaring a datum updates its home for later insertions, exactly
    /// like the batch builder's overwrite.
    #[test]
    fn redeclared_home_moves_the_fetch_source() {
        #[derive(Default)]
        struct Redeclare {
            ctx: Arc<TestCtx>,
        }
        impl StepSource for Redeclare {
            test_ops!();
            fn num_steps(&self) -> usize {
                1
            }
            fn num_nodes(&self) -> usize {
                2
            }
            fn prepare(&mut self, sink: Sink<'_>) {
                sink.declare(k(0), 100, 0);
                sink.declare(k(0), 100, 1); // overwrite: now homed on node 1
            }
            fn plan_prelude(&mut self, _: usize, sink: Sink<'_>) -> StepPhase {
                // Reader on node 1 = the (re)declared home: no fetch.
                self.ctx
                    .task(sink, "local", 1, &[Access::Read(k(0))], gemm_unit);
                // Reader on node 0: fetches from node 1.
                self.ctx
                    .task(sink, "remote", 0, &[Access::Read(k(0))], gemm_unit);
                StepPhase::Complete
            }
        }
        let reports = two_ranks("redeclare", Redeclare::default, StreamOptions::fixed(1, 1));
        for report in &reports {
            assert_eq!(report.msgs.data_msgs, 1, "one initial fetch, to node 0");
            let fetch = LinkMsgStats {
                src: 1,
                dst: 0,
                msgs: report.msgs,
            };
            assert_eq!(report.link_msgs, vec![fetch], "from the new home");
        }
    }

    /// A probed rank: the probe sees its kernels, its protocol messages and
    /// its panel waits, and perturbs nothing.
    #[test]
    fn probed_streaming_reports_metrics_and_attribution() {
        let probe = Probe::enabled();
        let opts = StreamOptions::fixed(2, 2).with_probe(probe.clone());
        let report = two_ranks("probed", TwoNodeSource::default, opts).remove(0);

        // Per-link counters reconcile with the aggregate.
        let data: u64 = report.link_msgs.iter().map(|l| l.msgs.data_msgs).sum();
        assert_eq!(data, report.msgs.data_msgs);
        assert!(report.link_msgs.iter().any(|l| l.src == 0 && l.dst == 1));

        // Virtual-time attribution is the replay's (`sim::simulate_probed`).
        let pr = probe.report();
        assert!(pr.attribution.is_none());
        assert!(
            pr.snapshot
                .counter(metric::KERNEL_FLOPS, Label::Class("gemm"))
                > 0
        );
        assert!(pr.snapshot.counter(metric::COMM_MSGS, Label::Kind("data")) > 0);
        assert!(pr
            .snapshot
            .histogram(metric::STREAM_PANEL_WAIT, Label::None)
            .is_some());

        // Probes never perturb the run: a probe-free rerun reports the
        // same message counts and link breakdown.
        let plain = two_ranks(
            "unprobed",
            TwoNodeSource::default,
            StreamOptions::fixed(2, 2),
        );
        let plain = &plain[0];
        assert_eq!(plain.msgs, report.msgs);
        assert_eq!(plain.link_msgs, report.link_msgs);
    }

    #[test]
    fn trace_mode_records_every_executed_task() {
        let src = ChainSource::new(3, 2);
        let report = execute("traced", src, StreamOptions::fixed(2, 2).with_trace());
        assert_eq!(report.trace.len(), 6);
        for ev in &report.trace {
            assert!(ev.end >= ev.start);
            assert_eq!(ev.node, 0);
            assert!(ev.step.is_some());
        }
        let json = crate::trace::render_chrome_trace(&report.trace, &Default::default());
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 6);
    }

    /// Order-sensitive arithmetic the mixed source's kernels share: any
    /// reordering of conflicting tasks changes the final bits.
    #[derive(Default)]
    struct MixedCells {
        acc: f64,
        leaves: [f64; 4],
        decision: Option<bool>,
        branches: Vec<bool>,
    }

    /// A small source with every shape the wake-up protocol must survive:
    /// a serial chain, a fan-out with a join, and — on odd steps — a
    /// decision the planner awaits before planning one of two branches.
    /// Each such step declares its own decision cell, so no phase waits for
    /// a task two steps back. With `nodes == 2` the fan-out and the join
    /// cross ranks on a wire.
    struct MixedSource {
        steps: usize,
        nodes: usize,
        cells: Arc<parking_lot::Mutex<MixedCells>>,
        ctx: Arc<TestCtx>,
    }

    impl MixedSource {
        const ACC: u64 = 0;
        /// Step `s`'s decision cell is `DECISION + s`.
        const DECISION: u64 = 9;

        fn decision(s: usize) -> DataKey {
            k(Self::DECISION + s as u64)
        }

        fn new(steps: usize, nodes: usize) -> Self {
            let cells = MixedCells {
                acc: 1.0,
                ..MixedCells::default()
            };
            MixedSource {
                steps,
                nodes,
                cells: Arc::new(parking_lot::Mutex::new(cells)),
                ctx: Arc::default(),
            }
        }

        fn awaited_decisions(&self) -> usize {
            self.steps / 2
        }

        fn task(
            &self,
            f: impl FnOnce(&mut MixedCells) + Send + 'static,
        ) -> impl FnOnce() -> TaskResult + Send + 'static {
            let cells = Arc::clone(&self.cells);
            move || {
                f(&mut cells.lock());
                TaskResult::executed(1.0, CostClass::Gemm)
            }
        }

        /// Final accumulator bits and the branches taken.
        fn outcome(&self) -> (u64, Vec<bool>) {
            let c = self.cells.lock();
            (c.acc.to_bits(), c.branches.clone())
        }
    }

    impl StepSource for MixedSource {
        test_ops!();

        fn num_steps(&self) -> usize {
            self.steps
        }

        fn num_nodes(&self) -> usize {
            self.nodes
        }

        fn prepare(&mut self, sink: Sink<'_>) {
            sink.declare(k(Self::ACC), 8, 0);
            for j in 1..=4u64 {
                sink.declare(k(j), 8, j as usize % self.nodes);
            }
        }

        fn plan_prelude(&mut self, s: usize, sink: Sink<'_>) -> StepPhase {
            let acc = k(Self::ACC);
            for t in 0..3 {
                let tag = (3 * s + t) as f64;
                let body = self.task(move |c| c.acc = (c.acc * 1.0000001).sin() + tag * 1e-3);
                self.ctx
                    .task(sink, format!("chain{s}/{t}"), 0, &[Access::Mut(acc)], body);
            }
            for j in 0..4usize {
                let accesses = [Access::Read(acc), Access::Mut(k(j as u64 + 1))];
                let body = self.task(move |c| c.leaves[j] = c.acc + j as f64);
                let node = (j + 1) % self.nodes;
                self.ctx
                    .task(sink, format!("leaf{s}/{j}"), node, &accesses, body);
            }
            let accesses = [
                Access::Read(k(1)),
                Access::Read(k(2)),
                Access::Read(k(3)),
                Access::Read(k(4)),
                Access::Mut(acc),
            ];
            let body = self.task(|c| c.acc += c.leaves.iter().sum::<f64>() * 1e-3);
            self.ctx
                .task(sink, format!("join{s}"), self.nodes - 1, &accesses, body);
            if s.is_multiple_of(2) {
                return StepPhase::Complete;
            }
            let decision = Self::decision(s);
            self.ctx.mark_decision(decision);
            sink.declare(decision, 1, 0);
            let accesses = [Access::Read(acc), Access::Mut(decision)];
            let body = self.task(|c| c.decision = Some(c.acc.to_bits() & 1 == 0));
            let decide = self
                .ctx
                .task(sink, format!("decide{s}"), 0, &accesses, body);
            StepPhase::AwaitDecision(decide)
        }

        fn plan_finish(&mut self, s: usize, sink: Sink<'_>) {
            let branch = self
                .cells
                .lock()
                .decision
                .take()
                .expect("the awaited decision task ran before plan_finish");
            let accesses = [Access::Read(Self::decision(s)), Access::Mut(k(Self::ACC))];
            let body = self.task(move |c| {
                c.branches.push(branch);
                c.acc = if branch { c.acc * 1.5 } else { c.acc - 0.25 };
            });
            self.ctx
                .task(sink, format!("branch{s}"), 0, &accesses, body);
        }
    }

    /// A rank's payload store over the mixed source's cells: the
    /// accumulator and the leaves travel as their eight bytes, the awaited
    /// decision as one.
    struct MixedStore(Arc<parking_lot::Mutex<MixedCells>>);

    impl PayloadStore for MixedStore {
        fn load(&self, key: DataKey) -> Option<Vec<u8>> {
            let c = self.0.lock();
            match key.0 {
                MixedSource::ACC => Some(c.acc.to_le_bytes().to_vec()),
                j @ 1..=4 => Some(c.leaves[j as usize - 1].to_le_bytes().to_vec()),
                MixedSource::DECISION.. => c.decision.map(|d| vec![d as u8]),
                _ => None,
            }
        }

        fn store(&self, key: DataKey, bytes: &[u8]) -> Result<(), TransportError> {
            let mut c = self.0.lock();
            match (key.0, bytes) {
                (MixedSource::DECISION.., &[d]) => c.decision = Some(d != 0),
                (j @ 0..=4, &[..]) if bytes.len() == 8 => {
                    let v = f64::from_le_bytes(bytes.try_into().expect("eight bytes"));
                    match j {
                        0 => c.acc = v,
                        _ => c.leaves[j as usize - 1] = v,
                    }
                }
                _ => return Err(TransportError::Frame(format!("bad payload for {key:?}"))),
            }
            Ok(())
        }

        fn knows(&self, key: DataKey) -> bool {
            matches!(key.0, 0..=4 | MixedSource::DECISION..)
        }

        fn in_result(&self, key: DataKey) -> bool {
            key.0 == MixedSource::ACC
        }
    }

    /// The mixed source on two nodes as two SPMD ranks over loopback
    /// mailboxes — each rank its own source, cells and store; rank 0's
    /// outcome and report.
    fn mixed_on_the_wire(window: usize, threads: usize) -> ((u64, Vec<bool>), StreamReport) {
        let mixed = |_| {
            let src = MixedSource::new(6, 2);
            let store = Arc::new(MixedStore(Arc::clone(&src.cells)));
            (src, store as Arc<dyn PayloadStore>)
        };
        let opts = StreamOptions::fixed(window, threads);
        wired(2, &opts, mixed, MixedSource::outcome).swap_remove(0)
    }

    /// An endpoint that belongs to a world of another size than the
    /// source's nodes is a typed error, before anything runs.
    #[test]
    fn an_endpoint_of_another_world_size_is_a_typed_error() {
        let net = NetConfig {
            transport: loopback_set(3).remove(0),
            store: Arc::new(NullStore),
        };
        let mut src = TwoNodeSource::default();
        let run = execute_net(&mut src, &StreamOptions::fixed(2, 1), net);
        assert!(matches!(run, Err(TransportError::Protocol(_))));
        assert!(src.ctx.retired.lock().unwrap().is_empty());
    }

    /// The planner is woken when what it sleeps on became true — not once
    /// per completed task.
    #[test]
    fn planner_wakeups_are_bounded_by_its_waits() {
        let probe = Probe::enabled();
        let mut src = MixedSource::new(12, 2);
        let decisions = src.awaited_decisions();
        let opts = StreamOptions::fixed(2, 1).with_probe(probe.clone());
        let report = with_watchdog("wake-up budget", move || execute_with(&mut src, &opts));
        assert!(report.tasks_executed > 100);
        let snapshot = probe.report().snapshot;
        let wakeups = snapshot.counter(metric::STREAM_PLANNER_WAKEUPS, Label::None);
        // One sleep per capacity wait, per awaited decision, and for the
        // final drain — at most.
        let budget = (report.steps + decisions + 1) as u64;
        assert!(
            wakeups <= budget,
            "{wakeups} planner wake-ups for {} tasks (budget {budget})",
            report.tasks_executed
        );
        // A lone worker sleeps at most once per task it waited for.
        let parks = snapshot.counter(metric::STREAM_WORKER_PARKS, Label::None);
        assert!(parks <= report.tasks_executed as u64 + 1);
    }

    /// Lost-wake-up stress: every (threads, window) point runs the
    /// two-node mixed source many times under a watchdog — a lost wake-up
    /// is a hang, which the watchdog turns into a failure — in the local
    /// window and as two ranks over a wire, where the planner also sleeps
    /// on frames; every run must produce the same bits.
    #[test]
    fn no_wakeup_is_lost_across_threads_and_windows() {
        const REPS: usize = 200;
        let mut expected = None;
        for threads in [1, 2, 4] {
            for window in [1, 2, 7] {
                let what = format!("threads={threads} window={window}");
                let outcomes = with_watchdog(&what, move || {
                    let local = (0..REPS).map(|_| {
                        let mut src = MixedSource::new(6, 2);
                        let report = execute_with(&mut src, &StreamOptions::fixed(window, threads));
                        assert_eq!(report.tasks_executed, report.tasks_planned);
                        assert!(report.peak_live_steps <= window);
                        src.outcome()
                    });
                    let wired = (0..REPS).map(|_| {
                        let (outcome, report) = mixed_on_the_wire(window, threads);
                        assert_eq!(report.tasks_executed, report.tasks_planned);
                        assert!(report.peak_live_steps <= window);
                        let wire = report.net.expect("a wire run reports its wire");
                        assert!(wire.frames_sent > 0 && wire.frames_received > 0);
                        outcome
                    });
                    local.chain(wired).collect::<Vec<_>>()
                });
                let first = expected.get_or_insert_with(|| outcomes[0].clone());
                assert_eq!(first.1.len(), 3, "three awaited decisions");
                for (rep, got) in outcomes.iter().enumerate() {
                    assert_eq!(got, first, "{what} rep {rep}");
                }
            }
        }
    }

    /// A panicking kernel fails the run: the panic reaches the caller
    /// (with its own payload) instead of leaving the planner asleep inside
    /// the thread scope forever.
    #[test]
    fn panicking_kernel_propagates_instead_of_hanging() {
        #[derive(Default)]
        struct PanicAtStepZero {
            ctx: Arc<TestCtx>,
        }
        impl StepSource for PanicAtStepZero {
            test_ops!();
            fn num_steps(&self) -> usize {
                3
            }
            fn prepare(&mut self, sink: Sink<'_>) {
                sink.declare(k(0), 8, 0);
            }
            fn plan_prelude(&mut self, s: usize, sink: Sink<'_>) -> StepPhase {
                self.ctx
                    .task(sink, format!("t{s}"), 0, &[Access::Mut(k(0))], move || {
                        if s == 0 {
                            panic!("kernel exploded at step 0");
                        }
                        gemm_unit()
                    });
                StepPhase::Complete
            }
        }
        for threads in [1, 3] {
            let caught = with_watchdog("panicking kernel", move || {
                std::panic::catch_unwind(|| {
                    execute_with(
                        &mut PanicAtStepZero::default(),
                        &StreamOptions::fixed(1, threads),
                    )
                })
            });
            let payload = caught.expect_err("the kernel's panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("kernel exploded at step 0"),
                "threads={threads}"
            );
        }
    }

    /// So does a panicking planner: the workers must not be left asleep
    /// under the scope's join.
    #[test]
    fn panicking_planner_propagates_instead_of_hanging() {
        #[derive(Default)]
        struct PanicWhilePlanning {
            ctx: Arc<TestCtx>,
        }
        impl StepSource for PanicWhilePlanning {
            test_ops!();
            fn num_steps(&self) -> usize {
                3
            }
            fn prepare(&mut self, sink: Sink<'_>) {
                sink.declare(k(0), 8, 0);
            }
            fn plan_prelude(&mut self, s: usize, sink: Sink<'_>) -> StepPhase {
                assert!(s < 1, "planner exploded at step {s}");
                self.ctx.task(sink, "t", 0, &[Access::Mut(k(0))], gemm_unit);
                StepPhase::Complete
            }
        }
        let caught = with_watchdog("panicking planner", || {
            std::panic::catch_unwind(|| {
                execute_with(
                    &mut PanicWhilePlanning::default(),
                    &StreamOptions::fixed(2, 2),
                )
            })
        });
        let payload = caught.expect_err("the planner's panic must reach the caller");
        let msg = payload.downcast_ref::<String>().expect("assert! message");
        assert!(msg.contains("planner exploded at step 1"), "{msg}");
    }
}
