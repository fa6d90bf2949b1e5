//! Bench-side tracing: spans recorded around each public call into a layer,
//! kept in memory and written out as one Chrome trace when the run ends.
//!
//! Nothing here instruments `crates/`: the layer spans are taken in this
//! package, and the kernel spans are the [`luqr::TraceEvent`]s the
//! executors already return, re-based under the call that produced them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use luqr::TraceEvent;

use crate::json::write_escaped;

pub type SpanId = usize;

/// One span: a named interval (seconds since the recorder's origin), the
/// span that caused it, and the run (one traced solve) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub run: u32,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    /// Recorders of one pass share an origin, so their spans share a
    /// timeline once [`Recorder::absorb`]ed into one trace.
    pub fn with_origin(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Record `f` as a span named `name`, child of the innermost open span.
    /// Returns the span's id with `f`'s result.
    pub fn scope<R>(
        &mut self,
        name: &str,
        run: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (SpanId, R) {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            run,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (id, r)
    }

    /// Attach an executor's per-task events as children of `parent`. Event
    /// times count from the executor's own start, which is taken to be the
    /// start of `parent` (the call that ran it).
    pub fn adopt_kernel_events(&mut self, parent: SpanId, events: Vec<TraceEvent>) {
        let (base, run) = (self.spans[parent].start, self.spans[parent].run);
        self.spans.extend(events.into_iter().map(|e| Span {
            name: e.name,
            start: base + e.start,
            end: base + e.end,
            parent: Some(parent),
            run,
        }));
    }

    /// Append another recorder's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + shift),
            ..s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as a Chrome trace-event array (`pid` = run,
    /// `tid` = nesting depth, times in microseconds).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(id) = p {
                depth += 1;
                p = self.spans[id].parent;
            }
            line.clear();
            line.push_str("{\"name\": ");
            write_escaped(&mut line, &s.name).expect("writing to a String cannot fail");
            write!(
                line,
                ", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}",
                s.run,
                depth,
                s.start * 1e6,
                s.duration() * 1e6
            )
            .expect("writing to a String cannot fail");
            if i + 1 < self.spans.len() {
                line.push(',');
            }
            line.push('\n');
            out.write_all(line.as_bytes())?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            // Clip to the parent: a child cannot take time its parent lacks.
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Self time summed per `(run, layer)`, where a span's layer is its name up
/// to the first `(` — so the kernels group by class (`GEMM`, `TSMQR`, …).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<(u32, String), f64> {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('(').next().unwrap_or(&s.name).to_string();
        *by_layer.entry((s.run, layer)).or_insert(0.0) += t;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("exec", 1.0, 9.0, Some(0)),
            span("GEMM(1,2,k=0)", 1.0, 3.0, Some(1)),
            span("GEMM(1,3,k=0)", 2.0, 5.0, Some(1)), // overlaps the first by 1
            span("TRSM(1,k=0)", 6.0, 7.0, Some(1)),
            span("late", 9.5, 12.0, Some(0)), // sticks out of the root by 2
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 10.0 - 8.0 - 0.5);
        assert_eq!(st[1], 8.0 - (4.0 + 1.0));
        assert_eq!((st[2], st[3], st[4]), (2.0, 3.0, 1.0));
        assert_eq!(st[5], 2.5);
    }

    #[test]
    fn self_times_of_a_serial_tree_sum_to_the_root() {
        let spans = vec![
            span("root", 0.0, 4.0, None),
            span("a", 0.5, 2.0, Some(0)),
            span("b", 2.0, 3.5, Some(0)),
            span("K(0)", 2.25, 3.0, Some(2)),
        ];
        let total: f64 = self_times(&spans).iter().sum();
        assert_eq!(total, 4.0);
    }

    #[test]
    fn layers_group_kernels_by_class_and_run() {
        let mut spans = vec![
            span("exec", 0.0, 4.0, None),
            span("GEMM(1,2,k=0)", 0.0, 1.0, Some(0)),
            span("GEMM(2,2,k=0)", 1.0, 3.0, Some(0)),
        ];
        spans.push(Span {
            run: 2,
            ..span("GEMM(0,0,k=1)", 0.0, 0.5, None)
        });
        let by = self_time_by_layer(&spans);
        assert_eq!(by[&(1, "GEMM".to_string())], 3.0);
        assert_eq!(by[&(1, "exec".to_string())], 1.0);
        assert_eq!(by[&(2, "GEMM".to_string())], 0.5);
    }

    #[test]
    fn recorder_nests_scopes_and_adopts_events() {
        let origin = Instant::now();
        let mut rec = Recorder::with_origin(origin);
        let (outer, inner) = rec.scope("outer", 7, |rec| rec.scope("inner", 7, |_| ()).0);
        rec.adopt_kernel_events(
            inner,
            vec![TraceEvent {
                name: "GETRF(k=0)".to_string(),
                node: 0,
                worker: 0,
                step: Some(0),
                start: 0.25,
                end: 0.5,
            }],
        );
        let spans = rec.spans();
        assert_eq!(spans[outer].parent, None);
        assert_eq!(spans[inner].parent, Some(outer));
        assert!(spans[outer].start <= spans[inner].start && spans[inner].end <= spans[outer].end);
        let k = &spans[2];
        assert_eq!((k.parent, k.run), (Some(inner), 7));
        assert_eq!(k.start, spans[inner].start + 0.25);
        assert!((k.duration() - 0.25).abs() < 1e-12);

        let mut first = Recorder::with_origin(origin);
        first.scope("earlier", 6, |_| ());
        first.absorb(rec);
        let spans = first.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1 + inner].parent, Some(1 + outer));
        assert_eq!(spans[3].parent, Some(1 + inner));
    }
}
