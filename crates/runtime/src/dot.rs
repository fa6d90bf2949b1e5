//! Graphviz export of task graphs.
//!
//! The paper's Figure 1 shows the dataflow of one elimination step —
//! Backup Panel → LU On Panel → Propagate → {LU step | QR step} kernels.
//! [`to_dot_filtered`] renders the same picture from a real graph: pass a
//! prefix filter (e.g. tasks of step `k`) and get a DOT digraph with tasks
//! colored by branch and discarded tasks grayed out.

use std::fmt::Write as _;

use crate::graph::{Graph, TaskOp};

/// Render the whole graph as a Graphviz `digraph`.
pub fn to_dot<O: TaskOp>(graph: &Graph<O>) -> String {
    render(graph, vec![true; graph.len()])
}

/// Render only the tasks of elimination step `k` (by their ops' step),
/// preserving edges among them.
pub fn to_dot_step<O: TaskOp>(graph: &Graph<O>, k: usize) -> String {
    render(graph, graph.tasks().map(|t| t.step() == Some(k)).collect())
}

/// Render the subgraph of tasks whose *name* passes `keep`, preserving edges
/// among kept tasks.
pub fn to_dot_filtered<O: TaskOp>(graph: &Graph<O>, keep: impl Fn(&str) -> bool) -> String {
    render(graph, graph.tasks().map(|t| keep(&t.name())).collect())
}

/// Render the `kept` tasks; names are rendered here, for those only.
///
/// Discarded-branch tasks — the dead paths a run-time LU/QR decision
/// rejected — render fully distinct: gray dashed boxes, with their
/// incident edges dashed too, so the surviving branch reads as the solid
/// subgraph (exactly the set a streaming run would have materialized).
fn render<O: TaskOp>(graph: &Graph<O>, kept: Vec<bool>) -> String {
    let mut s = String::new();
    s.push_str("digraph luqr {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n");
    let discarded: Vec<bool> = graph
        .tasks()
        .map(|t| matches!(t.cost(), Some(r) if !r.executed))
        .collect();
    for t in graph.tasks().filter(|t| kept[t.id]) {
        let name = t.name();
        let (color, style) = if discarded[t.id] {
            ("gray", ", style=dashed, fontcolor=gray")
        } else {
            (task_color(&name), "")
        };
        let _ = writeln!(
            s,
            "  t{} [label=\"{}\\nnode {}\", color={}{}];",
            t.id,
            name.replace('"', "'"),
            t.node(),
            color,
            style
        );
    }
    for t in graph.tasks().filter(|t| kept[t.id]) {
        let i = t.id;
        for succ in t.successors() {
            if kept[succ] {
                if discarded[i] || discarded[succ] {
                    let _ = writeln!(s, "  t{i} -> t{succ} [style=dashed, color=gray];");
                } else {
                    let _ = writeln!(s, "  t{i} -> t{succ};");
                }
            }
        }
    }
    s.push_str("}\n");
    s
}

fn task_color(name: &str) -> &'static str {
    // Color families matching Figure 1's stages.
    if name.starts_with("BACKUP") || name.starts_with("RESTORE") {
        "orange"
    } else if name.starts_with("PANEL") || name.starts_with("CRIT") {
        "red"
    } else if name.starts_with("PROP") {
        "purple"
    } else if name.contains("QRT") || name.contains("MQR") || name.starts_with("GEQRT") {
        "blue"
    } else if name.starts_with("GETRF")
        || name.starts_with("TRSM")
        || name.starts_with("GEMM")
        || name.starts_with("SWPTRSM")
    {
        "darkgreen"
    } else {
        "black"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Access, DataKey, TaskResult};
    use crate::testing::TestGraph;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut b = TestGraph::new(1);
        b.declare(DataKey(0), 8, 0);
        b.task(
            "PANEL(k=0)",
            0,
            &[Access::Mut(DataKey(0))],
            TaskResult::control,
        );
        b.task(
            "GEMM(1,1,k=0)",
            0,
            &[Access::Mut(DataKey(0))],
            TaskResult::control,
        );
        let g = b.build();
        let dot = to_dot(&g);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("PANEL(k=0)"));
        assert!(dot.contains("t0 -> t1;"));
        assert!(dot.contains("color=red"));
        assert!(dot.contains("color=darkgreen"));
    }

    #[test]
    fn filter_drops_tasks_and_their_edges() {
        let mut b = TestGraph::new(1);
        b.declare(DataKey(0), 8, 0);
        b.task("keep", 0, &[Access::Mut(DataKey(0))], TaskResult::control);
        b.task("drop", 0, &[Access::Mut(DataKey(0))], TaskResult::control);
        let g = b.build();
        let dot = to_dot_filtered(&g, |n| n == "keep");
        assert!(dot.contains("keep"));
        assert!(!dot.contains("drop"));
        assert!(!dot.contains("->"));
    }

    #[test]
    fn discarded_tasks_render_gray_dashed_with_dashed_edges() {
        let mut b = TestGraph::new(1);
        b.declare(DataKey(0), 8, 0);
        b.task("GEMM(1,1,k=0)", 0, &[Access::Mut(DataKey(0))], || {
            TaskResult::executed(1.0, crate::graph::CostClass::Gemm)
        });
        b.task(
            "TSQRT(1,k=0)",
            0,
            &[Access::Mut(DataKey(0))],
            TaskResult::discarded,
        );
        let g = b.build();
        crate::exec::execute(&g, 1);
        let dot = to_dot(&g);
        // The discarded branch task: gray dashed box, not its family color.
        assert!(dot.contains("TSQRT"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("color=gray"));
        assert!(!dot.contains("color=blue"));
        // Its incoming edge is dashed too; the executed task keeps its color.
        assert!(dot.contains("t0 -> t1 [style=dashed, color=gray];"));
        assert!(dot.contains("color=darkgreen"));
    }

    #[test]
    fn to_dot_step_filters_by_step_index() {
        let mut b = TestGraph::new(1);
        b.declare(DataKey(0), 8, 0);
        b.task(
            "PANEL(k=3)",
            0,
            &[Access::Mut(DataKey(0))],
            TaskResult::control,
        );
        b.task(
            "PANEL(k=13)",
            0,
            &[Access::Mut(DataKey(0))],
            TaskResult::control,
        );
        let g = b.build();
        let dot = to_dot_step(&g, 3);
        assert!(dot.contains("PANEL(k=3)"));
        assert!(!dot.contains("PANEL(k=13)"));
    }
}
