//! Multithreaded task-graph executor.
//!
//! Dependency-counting scheduler: every task carries an atomic countdown of
//! unfinished predecessors; completed tasks decrement their successors and
//! enqueue the ones that reach zero. Workers pull from a shared injector
//! queue (crossbeam MPMC channel). Because the dependency system serializes
//! all conflicting accesses, execution is deterministic in its numerical
//! results regardless of the number of workers — only the interleaving
//! changes. Each worker tallies the cost of the tasks it ran
//! ([`TaskOp::cost`]); the report merges the workers' tallies.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam::channel;

use crate::graph::{CostClass, Graph, TaskId, TaskOp, TaskResult};
use crate::trace::TraceEvent;

/// Running tally of task costs, shared by the batch executor's workers and
/// the streaming window's incremental counters so both runtimes count
/// executed / discarded tasks and flops identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Tasks that ran their kernel (`executed = true`).
    pub executed: usize,
    /// Tasks that discarded themselves (unselected branch).
    pub discarded: usize,
    /// Total flops reported by executed tasks (excluding Memory
    /// pseudo-flops, which encode bytes).
    pub flops: f64,
}

impl Tally {
    /// Fold one task result into the tally.
    pub fn record(&mut self, r: &TaskResult) {
        if r.executed {
            self.executed += 1;
            if r.class != CostClass::Memory {
                self.flops += r.flops;
            }
        } else {
            self.discarded += 1;
        }
    }

    /// Fold another tally into this one.
    fn merge(&mut self, other: Tally) {
        self.executed += other.executed;
        self.discarded += other.discarded;
        self.flops += other.flops;
    }
}

/// The countdown of a task that has run: a second run of it, or a report
/// before every task ran, is caught on it. It publishes nothing, so it is
/// written `Relaxed`; the report reads it after the workers have joined.
pub(crate) const RAN: u32 = u32::MAX;

/// Summary of one graph execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Wall-clock seconds for the whole graph.
    pub wall_seconds: f64,
    /// Tasks that ran their kernel (`executed = true`).
    pub tasks_executed: usize,
    /// Tasks that discarded themselves (unselected branch).
    pub tasks_discarded: usize,
    /// Total flops reported by executed tasks (excluding Memory pseudo-flops).
    pub total_flops: f64,
}

impl<O: TaskOp> Graph<O> {
    /// Run task `id`'s op against the graph's context and return its cost;
    /// the last task of a step to finish retires the step. The task's
    /// countdown, zero since it became ready, becomes [`RAN`]: a graph
    /// executed twice fails on its first root. `exclusive`: the calling
    /// thread is the only worker (see [`count_down`]).
    fn run_task(&self, id: TaskId, exclusive: bool) -> TaskResult {
        // Only the worker running the task touches its countdown now.
        let cell = &self.countdown[id];
        let op = self.task(id).op();
        let name = || op.name(self.ctx());
        if cell.load(Ordering::Relaxed) == RAN {
            panic!("task '{}' executed twice", name());
        }
        cell.store(RAN, Ordering::Relaxed);
        op.run(self.ctx());
        let cost = op.cost(self.ctx());
        let cost = cost.unwrap_or_else(|| panic!("task '{}' ran but has no cost", name()));
        if let Some(step) = op.step(self.ctx()) {
            // AcqRel: the retiring thread must see what every other task
            // of the step wrote before it drops the step's cells.
            if count_down(&self.step_remaining[step], exclusive) == 1 {
                O::retire_step(self.ctx(), step);
            }
        }
        cost
    }

    /// Count task `id` as done on each of its successors, handing the ones
    /// it was the last predecessor of to `ready`.
    fn release_successors(&self, id: TaskId, exclusive: bool, mut ready: impl FnMut(TaskId)) {
        for s in self.task(id).successors() {
            let prev = count_down(&self.countdown[s], exclusive);
            debug_assert!(prev >= 1, "dependency underflow");
            if prev == 1 {
                ready(s);
            }
        }
    }

    /// The span of task `id` on `worker`, named and step-tagged from its op.
    fn trace_event(&self, id: TaskId, worker: usize, start: f64, end: f64) -> TraceEvent {
        let t = self.task(id);
        TraceEvent {
            name: t.name(),
            node: t.node(),
            worker,
            step: t.step(),
            start,
            end,
        }
    }

    /// The report of a finished execution that took `wall_seconds` and
    /// tallied `tally`.
    fn report(&self, wall_seconds: f64, tally: Tally) -> ExecReport {
        let never_ran = self
            .countdown
            .iter()
            .position(|c| c.load(Ordering::Relaxed) != RAN);
        if let Some(id) = never_ran {
            panic!(
                "task '{}' never ran — cyclic or broken graph",
                self.task(id).name()
            );
        }
        ExecReport {
            wall_seconds,
            tasks_executed: tally.executed,
            tasks_discarded: tally.discarded,
            total_flops: tally.flops,
        }
    }
}

/// Decrement `counter` and return its value before. With `exclusive` — the
/// one-worker loop, where no other thread touches the graph's counters — a
/// relaxed load and store replaces the lock-prefixed read-modify-write;
/// otherwise the decrement is `AcqRel`, so whoever takes a counter to zero
/// sees everything the tasks before it wrote.
fn count_down(counter: &AtomicU32, exclusive: bool) -> u32 {
    if exclusive {
        let prev = counter.load(Ordering::Relaxed);
        counter.store(prev.wrapping_sub(1), Ordering::Relaxed);
        prev
    } else {
        counter.fetch_sub(1, Ordering::AcqRel)
    }
}

/// Execute the graph on `threads` worker threads (must be ≥ 1).
///
/// Panics if the graph was already executed or if the dependency counts
/// are inconsistent; a task that panics stops the run, and its panic is
/// re-raised on the calling thread.
pub fn execute<O: TaskOp>(graph: &Graph<O>, threads: usize) -> ExecReport {
    execute_inner(graph, threads, None)
}

/// Execute the graph and additionally record one [`TraceEvent`] per
/// executed task — real wall-clock spans with the worker that ran each
/// kernel, named and step-tagged from the op as the event is recorded —
/// mirroring what the streaming runtime records behind
/// [`crate::stream::StreamOptions::trace`].
pub fn execute_traced<O: TaskOp>(
    graph: &Graph<O>,
    threads: usize,
) -> (ExecReport, Vec<TraceEvent>) {
    let events = parking_lot::Mutex::new(Vec::with_capacity(graph.len()));
    let report = execute_inner(graph, threads, Some(&events));
    let mut events = events.into_inner();
    events.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    (report, events)
}

fn execute_inner<O: TaskOp>(
    graph: &Graph<O>,
    threads: usize,
    events: Option<&parking_lot::Mutex<Vec<TraceEvent>>>,
) -> ExecReport {
    let threads = threads.max(1);
    let n = graph.len();
    let start = Instant::now();
    if n == 0 {
        return graph.report(0.0, Tally::default());
    }

    // One task, start to finish: run the op, record its span when traced,
    // hand the successors it releases to `ready`, and return its cost.
    let run_one = |tid: TaskId, worker: usize, exclusive: bool, ready: &mut dyn FnMut(TaskId)| {
        let t0 = events.map(|_| start.elapsed().as_secs_f64());
        let cost = graph.run_task(tid, exclusive);
        if let (Some(events), Some(t0)) = (events, t0) {
            if cost.executed {
                let t1 = start.elapsed().as_secs_f64();
                events.lock().push(graph.trace_event(tid, worker, t0, t1));
            }
        }
        graph.release_successors(tid, exclusive, ready);
        cost
    };

    // Single-worker fast path: run the same FIFO discipline inline on the
    // calling thread. The ready order — and therefore every task
    // interleaving — is identical to the one-worker channel loop below;
    // only the thread spawn, the channel traffic and the atomic
    // read-modify-writes disappear, which is a measurable slice of wall
    // time on fine-grained graphs.
    if threads == 1 {
        let mut queue: std::collections::VecDeque<TaskId> = graph.roots().into();
        let mut tally = Tally::default();
        while let Some(tid) = queue.pop_front() {
            tally.record(&run_one(tid, 0, true, &mut |s| queue.push_back(s)));
        }
        return graph.report(start.elapsed().as_secs_f64(), tally);
    }

    let (tx, rx) = channel::unbounded::<TaskId>();
    for root in graph.roots() {
        tx.send(root).expect("queue closed");
    }
    let remaining = AtomicUsize::new(n);
    let panicked = parking_lot::Mutex::new(None);

    let total = parking_lot::Mutex::new(Tally::default());

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let rx = rx.clone();
            let tx = tx.clone();
            let (remaining, panicked, total) = (&remaining, &panicked, &total);
            let run_one = &run_one;
            scope.spawn(move || {
                let mut tally = Tally::default();
                // One sentinel per worker ends the run: every worker holds a
                // sender, so the channel never disconnects on its own.
                let stop_all = || {
                    for _ in 0..threads {
                        let _ = tx.send(usize::MAX);
                    }
                };
                while let Ok(tid) = rx.recv() {
                    if tid == usize::MAX {
                        break;
                    }
                    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_one(tid, worker, false, &mut |s| {
                            let _ = tx.send(s);
                        })
                    }));
                    match ran {
                        Ok(cost) => tally.record(&cost),
                        Err(payload) => {
                            // The task's successors will never be released:
                            // stop everyone, and re-raise on the caller's
                            // thread.
                            panicked.lock().get_or_insert(payload);
                            stop_all();
                            break;
                        }
                    }
                    // The worker finishing the last task wakes everyone up.
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        stop_all();
                    }
                }
                total.lock().merge(tally);
            });
        }
        drop(tx);
        drop(rx);
    });
    if let Some(payload) = panicked.into_inner() {
        std::panic::resume_unwind(payload);
    }

    graph.report(start.elapsed().as_secs_f64(), total.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, DataKey, TaskResult};
    use crate::testing::TestGraph;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn k(i: u64) -> DataKey {
        DataKey(i)
    }

    #[test]
    fn executes_chain_in_order() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        for i in 0..50u64 {
            let log = Arc::clone(&log);
            b.task(format!("t{i}"), 0, &[Access::Mut(k(0))], move || {
                log.lock().push(i);
                TaskResult::control()
            });
        }
        let g = b.build();
        let report = execute(&g, 4);
        assert_eq!(report.tasks_executed, 50);
        let log = log.lock();
        let expected: Vec<u64> = (0..50).collect();
        assert_eq!(*log, expected, "chain must run in dependency order");
    }

    #[test]
    fn parallel_tasks_all_run() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut b = TestGraph::new(1);
        for i in 0..200u64 {
            b.declare(k(i), 8, 0);
            let c = Arc::clone(&counter);
            b.task(format!("t{i}"), 0, &[Access::Mut(k(i))], move || {
                c.fetch_add(1, Ordering::SeqCst);
                TaskResult::executed(10.0, CostClass::Gemm)
            });
        }
        let g = b.build();
        let report = execute(&g, 3);
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(report.tasks_executed, 200);
        assert_eq!(report.total_flops, 2000.0);
    }

    #[test]
    fn fork_join_respects_dependencies() {
        // src -> 100 readers -> sink; sink must observe all reader effects.
        let acc = Arc::new(AtomicU64::new(0));
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        b.task("src", 0, &[Access::Mut(k(0))], TaskResult::control);
        for i in 0..100u64 {
            let acc = Arc::clone(&acc);
            b.task(format!("r{i}"), 0, &[Access::Read(k(0))], move || {
                acc.fetch_add(1, Ordering::SeqCst);
                TaskResult::control()
            });
        }
        let acc2 = Arc::clone(&acc);
        b.task("sink", 0, &[Access::Mut(k(0))], move || {
            assert_eq!(acc2.load(Ordering::SeqCst), 100, "sink ran early");
            TaskResult::control()
        });
        let g = b.build();
        execute(&g, 8);
    }

    #[test]
    fn discarded_tasks_counted() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        b.task("real", 0, &[Access::Mut(k(0))], || {
            TaskResult::executed(5.0, CostClass::Trsm)
        });
        b.task("dead", 0, &[Access::Mut(k(0))], TaskResult::discarded);
        let g = b.build();
        let r = execute(&g, 2);
        assert_eq!(r.tasks_executed, 1);
        assert_eq!(r.tasks_discarded, 1);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // A reduction over a shared cell: dependency order forces identical
        // arithmetic regardless of worker count.
        fn run(threads: usize) -> f64 {
            let cell = Arc::new(parking_lot::Mutex::new(1.0f64));
            let mut b = TestGraph::new(1);
            b.declare(k(0), 8, 0);
            for i in 0..40 {
                let cell = Arc::clone(&cell);
                b.task(format!("t{i}"), 0, &[Access::Mut(k(0))], move || {
                    let mut v = cell.lock();
                    *v = (*v * 1.0000001).sin() + i as f64 * 1e-3;
                    TaskResult::control()
                });
            }
            let g = b.build();
            execute(&g, threads);
            let v = *cell.lock();
            v
        }
        let a = run(1);
        let b_ = run(4);
        assert_eq!(a.to_bits(), b_.to_bits());
    }

    /// A step retires when the last of its tasks has run — once, under
    /// every executor — and tasks with no step retire nothing.
    #[test]
    fn each_step_retires_once_after_its_last_task() {
        type Run = fn(&Graph<crate::testing::TestOp>) -> ExecReport;
        let runs: [Run; 2] = [|g| execute(g, 1), |g| execute(g, 4)];
        for run in runs {
            let mut b = TestGraph::new(1);
            let ctx = Arc::clone(&b.ctx);
            let done = Arc::new(AtomicU64::new(0));
            for i in 0..12u64 {
                b.declare(k(i), 8, 0);
                let (ctx, done) = (Arc::clone(&ctx), Arc::clone(&done));
                // Steps 0, 1, 2 interleaved, four tasks each.
                b.task(
                    format!("t{i}(k={})", i % 3),
                    0,
                    &[Access::Mut(k(i))],
                    move || {
                        assert!(
                            !ctx.retired.lock().unwrap().contains(&(i as usize % 3)),
                            "step retired before task {i} ran"
                        );
                        done.fetch_add(1, Ordering::SeqCst);
                        TaskResult::control()
                    },
                );
            }
            b.declare(k(99), 8, 0);
            b.task("stepless", 0, &[Access::Mut(k(99))], TaskResult::control);
            let g = b.build();
            assert_eq!(run(&g).tasks_executed, 13);
            assert_eq!(done.load(Ordering::SeqCst), 12);
            let mut retired = ctx.retired.lock().unwrap().clone();
            retired.sort_unstable();
            assert_eq!(retired, [0, 1, 2]);
        }
    }

    /// A panicking task ends a multi-worker run with its panic, on the
    /// caller's thread — it does not leave the other workers waiting for
    /// successors it will never release.
    #[test]
    fn a_panicking_task_fails_the_run_instead_of_hanging_it() {
        let caught = crate::testing::with_watchdog("panicking task, two workers", || {
            let mut b = TestGraph::new(1);
            b.declare(k(0), 8, 0);
            b.task("boom", 0, &[Access::Mut(k(0))], || panic!("kernel failed"));
            b.task("after", 0, &[Access::Read(k(0))], TaskResult::control);
            let g = b.build();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(&g, 2)))
        });
        let payload = caught.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"kernel failed"));
    }

    #[test]
    fn memory_tasks_not_counted_as_flops() {
        let mut b = TestGraph::new(1);
        b.declare(k(0), 8, 0);
        b.task("bk", 0, &[Access::Read(k(0))], || TaskResult::memory(4096));
        let g = b.build();
        let r = execute(&g, 1);
        assert_eq!(r.total_flops, 0.0);
    }
}
