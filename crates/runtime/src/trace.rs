//! Execution-trace export in Chrome trace-event JSON.
//!
//! Two producers feed the same renderer:
//!
//! * [`to_chrome_trace_with`] renders a simulated schedule
//!   ([`crate::sim::SimReport`]) of a materialized graph — one process per
//!   virtual node, one duration event per executed task;
//! * the batch and streaming runtimes record [`TraceEvent`]s online
//!   ([`crate::exec::execute_traced`],
//!   [`crate::stream::StreamOptions::trace`]) — real wall-clock start/end,
//!   the worker that ran the task, its elimination step and its node (0
//!   in a local streaming window, the rank on a wire) —
//!   and [`render_chrome_trace`] renders them, so windowed runs are
//!   inspectable in `chrome://tracing` / Perfetto even though no graph
//!   survives the run.
//!
//! [`TraceOptions`] parameterizes the render: node lanes named from a
//! [`Platform`], a scheduler policy stamp, and probe counter tracks
//! (`"ph": "C"` events from a [`ProbeSnapshot`]) merged into the same JSON
//! array so gauges render as overlay graphs above the task spans.

use std::fmt::Write as _;

use crate::graph::{Graph, TaskOp};
use crate::platform::Platform;
use crate::probe::ProbeSnapshot;
use crate::sched::SchedPolicy;
use crate::sim::SimReport;

/// One executed task, as a renderable trace span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Task name, e.g. `"GEMM(3,4,k=2)"`.
    pub name: String,
    /// Owner node (trace process id).
    pub node: usize,
    /// Executing worker on that node (trace thread id).
    pub worker: usize,
    /// Elimination step, when the task name carries one.
    pub step: Option<usize>,
    /// Span start, seconds (simulation time or wall time since run start).
    pub start: f64,
    /// Span end, seconds.
    pub end: f64,
}

/// Rendering knobs for [`render_chrome_trace`]. `Default` renders bare
/// spans: no lane metadata, no policy stamp, no counter tracks.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceOptions<'a> {
    /// Name each node lane from the platform's node spec
    /// (`node1 (8c @ 8.52 GF)`) via `process_name` metadata events.
    pub platform: Option<&'a Platform>,
    /// Stamp the active scheduler policy into each lane name
    /// (`node1 (8c @ 8.52 GF) [critical-path]`), so a trace says *which
    /// schedule* it shows.
    pub policy: Option<SchedPolicy>,
    /// Merge probe gauge series as Chrome counter tracks (`"ph": "C"`)
    /// into the same array as the task spans.
    pub counters: Option<&'a ProbeSnapshot>,
}

/// Elimination-step index encoded in a rendered task name (the `k=NN` of
/// `"GEMM(3,4,k=2)"`), for readers of exported traces. The runtime itself
/// never parses names: a task's step is [`crate::graph::TaskOp::step`].
pub fn step_index(name: &str) -> Option<usize> {
    let start = name.rfind("k=")? + 2;
    let digits: &str = &name[start..];
    let end = digits
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    digits[..end].parse().ok()
}

/// The one Chrome trace-event renderer: lane metadata (when a platform is
/// given), one `"ph": "X"` span per event (times exported in microseconds;
/// `pid` = node, `tid` = worker, `args.step` = elimination step when
/// known), then probe counter tracks (when a snapshot is given) — all in a
/// single JSON array.
pub fn render_chrome_trace(events: &[TraceEvent], opts: &TraceOptions) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    if let Some(p) = opts.platform {
        let tag = opts
            .policy
            .map(|s| format!(" [{}]", s.name()))
            .unwrap_or_default();
        let spec = p.node.label();
        for n in 0..p.nodes {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {n}, \
                 \"args\": {{\"name\": \"node{n} ({spec}){tag}\"}}}}",
            );
        }
    }
    for ev in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let args = match ev.step {
            Some(k) => format!(", \"args\": {{\"step\": {k}}}"),
            None => String::new(),
        };
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": {}, \"tid\": {}, \"cat\": \"task\"{}}}",
            ev.name.replace('"', "'"),
            ev.start * 1e6,
            (ev.end - ev.start) * 1e6,
            ev.node,
            ev.worker,
            args,
        );
    }
    if let Some(snap) = opts.counters {
        crate::probe::export::write_chrome_counters(&mut out, &mut first, snap);
    }
    out.push_str("\n]\n");
    out
}

/// Render a simulated schedule as Chrome trace-event JSON.
///
/// Discarded tasks are omitted. Each event records its elimination-step
/// index in `args.step` (when the task carries one), so step retirement —
/// the streaming window's unit of memory reclamation — is visible as a
/// column in the trace viewer. Pass the platform and policy you simulated
/// with (the report does not carry them) to name and stamp the lanes, and
/// a probed replay's [`crate::probe::ProbeReport`] snapshot to overlay its
/// counter tracks on the simulated spans.
pub fn to_chrome_trace_with<O: TaskOp>(
    graph: &Graph<O>,
    sim: &SimReport,
    opts: &TraceOptions,
) -> String {
    render_chrome_trace(&sim_events(graph, sim), opts)
}

fn sim_events<O: TaskOp>(graph: &Graph<O>, sim: &SimReport) -> Vec<TraceEvent> {
    graph
        .tasks()
        .filter(|t| t.cost().is_some_and(|r| r.executed))
        .map(|t| TraceEvent {
            name: t.name(),
            node: t.node(),
            worker: 0,
            step: t.step(),
            start: sim.starts[t.id],
            end: sim.finishes[t.id],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::graph::{Access, CostClass, DataKey, TaskResult};
    use crate::platform::Platform;
    use crate::probe::{metric, Label, Probe};
    use crate::sim::simulate;
    use crate::testing::TestGraph;

    #[test]
    fn trace_contains_executed_tasks_only() {
        let mut b = TestGraph::new(2);
        b.declare(DataKey(0), 64, 0);
        b.task("work", 0, &[Access::Mut(DataKey(0))], || {
            TaskResult::executed(1e6, CostClass::Gemm)
        });
        b.task("dead", 1, &[Access::Mut(DataKey(0))], TaskResult::discarded);
        let g = b.build();
        execute(&g, 1);
        let sim = simulate(&g, &Platform::dancer_nodes(2));
        let json = to_chrome_trace_with(&g, &sim, &TraceOptions::default());
        assert!(json.contains("\"work\""));
        assert!(!json.contains("\"dead\""));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn step_index_parses_task_names() {
        assert_eq!(step_index("GEMM(3,4,k=2)"), Some(2));
        assert_eq!(step_index("PANEL(k=13)"), Some(13));
        assert_eq!(step_index("TSMQR(5,4,6,k=0)"), Some(0));
        assert_eq!(step_index("no step here"), None);
        assert_eq!(step_index("k="), None);
    }

    #[test]
    fn step_index_edge_cases() {
        // No `k=` marker at all.
        assert_eq!(step_index(""), None);
        assert_eq!(step_index("GEMM(3,4)"), None);
        // `k=` immediately followed by a non-digit.
        assert_eq!(step_index("PANEL(k=)"), None);
        assert_eq!(step_index("PANEL(k=x)"), None);
        // Digits terminated by trailing garbage parse up to the garbage.
        assert_eq!(step_index("PANEL(k=7)trailing"), Some(7));
        assert_eq!(step_index("k=42junk"), Some(42));
        // Multiple `k=` occurrences: the *last* one wins (rfind).
        assert_eq!(step_index("TRICK(k=1,k=9)"), Some(9));
        // ... even when the last one is empty.
        assert_eq!(step_index("TRICK(k=1,k=)"), None);
        // `k=` at the very end of the name with digits.
        assert_eq!(step_index("tail k=5"), Some(5));
    }

    #[test]
    fn trace_records_step_index() {
        let mut b = TestGraph::new(1);
        b.declare(DataKey(0), 64, 0);
        b.task("PANEL(k=3)", 0, &[Access::Mut(DataKey(0))], || {
            TaskResult::executed(1e6, CostClass::PanelFactor)
        });
        b.task("untagged", 0, &[Access::Mut(DataKey(0))], || {
            TaskResult::executed(1e6, CostClass::Gemm)
        });
        let g = b.build();
        execute(&g, 1);
        let sim = simulate(&g, &Platform::dancer_nodes(1));
        let json = to_chrome_trace_with(&g, &sim, &TraceOptions::default());
        assert!(json.contains("\"args\": {\"step\": 3}"));
        // Tasks without a step keep a well-formed event (no args field).
        assert!(json.contains("\"untagged\""));
    }

    #[test]
    fn trace_times_are_consistent() {
        let mut b = TestGraph::new(1);
        b.declare(DataKey(0), 64, 0);
        for i in 0..3 {
            b.task(format!("t{i}"), 0, &[Access::Mut(DataKey(0))], || {
                TaskResult::executed(2e6, CostClass::Trsm)
            });
        }
        let g = b.build();
        execute(&g, 1);
        let sim = simulate(&g, &Platform::dancer_nodes(1));
        let json = to_chrome_trace_with(&g, &sim, &TraceOptions::default());
        // Three events, consecutive, with positive durations.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 3);
        assert!(!json.contains("\"dur\": 0.000,"));
    }

    #[test]
    fn platform_lanes_are_named_by_node_spec() {
        let p = Platform::dancer_nodes(2);
        let events = vec![TraceEvent {
            name: "GEMM(1,1,k=0)".into(),
            node: 1,
            worker: 0,
            step: Some(0),
            start: 0.0,
            end: 1.0,
        }];
        let json = render_chrome_trace(
            &events,
            &TraceOptions {
                platform: Some(&p),
                ..TraceOptions::default()
            },
        );
        assert!(json.contains("\"name\": \"node0 (8c @ 8.52 GF)\""));
        assert!(json.contains("\"name\": \"node1 (8c @ 8.52 GF)\""));
        assert_eq!(json.matches("\"ph\": \"M\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 1);
        // Without a platform there is no lane metadata.
        assert!(!render_chrome_trace(&events, &TraceOptions::default()).contains("process_name"));
    }

    #[test]
    fn raw_events_render_worker_and_node() {
        let events = vec![TraceEvent {
            name: "TRSM(2,k=1)".into(),
            node: 3,
            worker: 2,
            step: Some(1),
            start: 0.5,
            end: 1.0,
        }];
        let json = render_chrome_trace(&events, &TraceOptions::default());
        assert!(json.contains("\"pid\": 3"));
        assert!(json.contains("\"tid\": 2"));
        assert!(json.contains("\"args\": {\"step\": 1}"));
        assert!(json.contains("\"ts\": 500000.000"));
    }

    /// One byte-exact golden per [`TraceOptions`] field: what a trace
    /// viewer (and the CI telemetry validator) parses is this exact text.
    #[test]
    fn golden_bytes_per_trace_option() {
        let p = Platform::dancer_nodes(2);
        let events = vec![
            TraceEvent {
                name: "PANEL(k=0)".into(),
                node: 0,
                worker: 0,
                step: Some(0),
                start: 0.0,
                end: 0.5,
            },
            TraceEvent {
                name: "say \"hi\"".into(),
                node: 1,
                worker: 1,
                step: None,
                start: 0.5,
                end: 1.25,
            },
        ];
        let probe = Probe::enabled();
        probe.gauge(metric::VTIME_NODE_BUSY, Label::Node(1), 0.5, 0.125);
        let snap = probe.snapshot();
        let render = |platform, policy, counters| {
            render_chrome_trace(
                &events,
                &TraceOptions {
                    platform,
                    policy,
                    counters,
                },
            )
        };

        assert_eq!(
            render(None, None, None),
            r#"[
  {"name": "PANEL(k=0)", "ph": "X", "ts": 0.000, "dur": 500000.000, "pid": 0, "tid": 0, "cat": "task", "args": {"step": 0}},
  {"name": "say 'hi'", "ph": "X", "ts": 500000.000, "dur": 750000.000, "pid": 1, "tid": 1, "cat": "task"}
]
"#
        );
        assert_eq!(
            render(Some(&p), None, None),
            r#"[
  {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "node0 (8c @ 8.52 GF)"}},
  {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "node1 (8c @ 8.52 GF)"}},
  {"name": "PANEL(k=0)", "ph": "X", "ts": 0.000, "dur": 500000.000, "pid": 0, "tid": 0, "cat": "task", "args": {"step": 0}},
  {"name": "say 'hi'", "ph": "X", "ts": 500000.000, "dur": 750000.000, "pid": 1, "tid": 1, "cat": "task"}
]
"#
        );
        assert_eq!(
            render(Some(&p), Some(SchedPolicy::CriticalPath), None),
            r#"[
  {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "node0 (8c @ 8.52 GF) [critical-path]"}},
  {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "node1 (8c @ 8.52 GF) [critical-path]"}},
  {"name": "PANEL(k=0)", "ph": "X", "ts": 0.000, "dur": 500000.000, "pid": 0, "tid": 0, "cat": "task", "args": {"step": 0}},
  {"name": "say 'hi'", "ph": "X", "ts": 500000.000, "dur": 750000.000, "pid": 1, "tid": 1, "cat": "task"}
]
"#
        );
        assert_eq!(
            render(None, None, Some(&snap)),
            r#"[
  {"name": "PANEL(k=0)", "ph": "X", "ts": 0.000, "dur": 500000.000, "pid": 0, "tid": 0, "cat": "task", "args": {"step": 0}},
  {"name": "say 'hi'", "ph": "X", "ts": 500000.000, "dur": 750000.000, "pid": 1, "tid": 1, "cat": "task"},
  {"name": "vtime_node_busy_seconds[node1]", "ph": "C", "ts": 500000.000, "pid": 1, "args": {"value": 0.125}}
]
"#
        );
    }

    #[test]
    fn counter_tracks_merge_into_span_trace() {
        let probe = Probe::enabled();
        probe.gauge(metric::SCHED_READY_DEPTH, Label::Policy("fifo"), 0.25, 3.0);
        probe.gauge(metric::VTIME_NODE_BUSY, Label::Node(1), 0.5, 0.125);
        let snap = probe.snapshot();
        let events = vec![TraceEvent {
            name: "GEMM(1,1,k=0)".into(),
            node: 1,
            worker: 0,
            step: Some(0),
            start: 0.0,
            end: 1.0,
        }];
        let json = render_chrome_trace(
            &events,
            &TraceOptions {
                platform: None,
                policy: None,
                counters: Some(&snap),
            },
        );
        // One span plus two counter samples, all in one well-formed array.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"C\"").count(), 2);
        assert!(json.contains("\"name\": \"sched_ready_depth[fifo]\""));
        assert!(json.contains("\"name\": \"vtime_node_busy_seconds[node1]\""));
        // Node-labelled counters land on that node's pid lane.
        assert!(json.contains("\"ph\": \"C\", \"ts\": 500000.000, \"pid\": 1"));
        assert!(json.trim_end().ends_with(']'));
        assert!(!json.contains(",,"));
        // An empty snapshot leaves the span render untouched.
        let bare = render_chrome_trace(&events, &TraceOptions::default());
        let empty_snap = Probe::enabled().snapshot();
        let with_empty = render_chrome_trace(
            &events,
            &TraceOptions {
                counters: Some(&empty_snap),
                ..TraceOptions::default()
            },
        );
        assert_eq!(bare, with_empty);
    }
}
