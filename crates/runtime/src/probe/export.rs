//! Render a [`ProbeReport`] in the three supported telemetry formats:
//! Chrome-trace counter tracks (merged with span events by
//! [`crate::trace`]), Prometheus text exposition, and structured JSON.
//! All three are hand-rolled string builders — the workspace vendors no
//! serialization crates, and the formats are line-oriented enough that
//! this stays readable.

use std::fmt::Write as _;

use crate::probe::report::{AttribBuckets, ProbeReport};
use crate::probe::{Histogram, Label, ProbeSnapshot, HISTOGRAM_BOUNDS};

/// Metric-name prefix used in the Prometheus exposition.
const PROM_PREFIX: &str = "luqr_";

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Append Chrome-trace counter events (`"ph": "C"`) for every gauge time
/// series in the snapshot. `first` tracks whether a comma separator is
/// needed, matching the span-event writer in [`crate::trace`].
pub(crate) fn write_chrome_counters(out: &mut String, first: &mut bool, snap: &ProbeSnapshot) {
    for (&(name, label), series) in &snap.gauges {
        let pid = match label {
            Label::Node(n) => n,
            _ => 0,
        };
        let track = format!("{name}{}", label.suffix());
        for &(t, value) in &series.samples {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"ph\": \"C\", \"ts\": {:.3}, \"pid\": {}, \"args\": {{\"value\": {}}}}}",
                track,
                t * 1e6,
                pid,
                json_f64(value)
            );
        }
    }
}

/// Counter-track events as a standalone Chrome-trace JSON array (the
/// merged span+counter render lives in [`crate::trace`]).
pub fn chrome_counter_events(snap: &ProbeSnapshot) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    write_chrome_counters(&mut out, &mut first, snap);
    out.push_str("\n]\n");
    out
}

fn prom_labels(label: Label, extra: Option<(&str, &str)>) -> String {
    let base = label.prometheus();
    let inner = base.trim_start_matches('{').trim_end_matches('}');
    match extra {
        None => base,
        Some((k, v)) if inner.is_empty() => format!("{{{k}=\"{v}\"}}"),
        Some((k, v)) => format!("{{{inner},{k}=\"{v}\"}}"),
    }
}

fn prom_histogram(out: &mut String, name: &str, label: Label, h: &Histogram) {
    let mut cumulative = 0u64;
    for (slot, &bound) in HISTOGRAM_BOUNDS.iter().enumerate() {
        cumulative += h.buckets[slot];
        let le = format!("{bound}");
        let _ = writeln!(
            out,
            "{PROM_PREFIX}{name}_bucket{} {cumulative}",
            prom_labels(label, Some(("le", &le)))
        );
    }
    cumulative += h.buckets[HISTOGRAM_BOUNDS.len()];
    let _ = writeln!(
        out,
        "{PROM_PREFIX}{name}_bucket{} {cumulative}",
        prom_labels(label, Some(("le", "+Inf")))
    );
    let _ = writeln!(
        out,
        "{PROM_PREFIX}{name}_sum{} {}",
        label.prometheus(),
        h.sum
    );
    let _ = writeln!(
        out,
        "{PROM_PREFIX}{name}_count{} {}",
        label.prometheus(),
        h.count
    );
}

/// Render the report in the Prometheus text exposition format: `# HELP`
/// / `# TYPE` headers, one sample per line, histograms with cumulative
/// `le` buckets. Attribution appears as
/// `luqr_attribution_seconds{node,component}` gauges plus
/// `luqr_makespan_seconds`.
pub fn to_prometheus(report: &ProbeReport) -> String {
    let mut out = String::new();
    let snap = &report.snapshot;

    let mut last_name = "";
    for (&(name, label), value) in &snap.counters {
        if name != last_name {
            let _ = writeln!(out, "# HELP {PROM_PREFIX}{name} runtime probe counter");
            let _ = writeln!(out, "# TYPE {PROM_PREFIX}{name} counter");
            last_name = name;
        }
        let _ = writeln!(out, "{PROM_PREFIX}{name}{} {value}", label.prometheus());
    }

    last_name = "";
    for (&(name, label), series) in &snap.gauges {
        if name != last_name {
            let _ = writeln!(out, "# HELP {PROM_PREFIX}{name} runtime probe gauge");
            let _ = writeln!(out, "# TYPE {PROM_PREFIX}{name} gauge");
            last_name = name;
        }
        let _ = writeln!(
            out,
            "{PROM_PREFIX}{name}{} {}",
            label.prometheus(),
            series.last
        );
    }

    last_name = "";
    for (&(name, label), histogram) in &snap.histograms {
        if name != last_name {
            let _ = writeln!(out, "# HELP {PROM_PREFIX}{name} runtime probe histogram");
            let _ = writeln!(out, "# TYPE {PROM_PREFIX}{name} histogram");
            last_name = name;
        }
        prom_histogram(&mut out, name, label, histogram);
    }

    if let Some(att) = &report.attribution {
        let _ = writeln!(
            out,
            "# HELP {PROM_PREFIX}attribution_seconds makespan attribution per node"
        );
        let _ = writeln!(out, "# TYPE {PROM_PREFIX}attribution_seconds gauge");
        for (node, b) in att.nodes.iter().enumerate() {
            for (component, value) in [
                ("compute", b.compute),
                ("transfer", b.transfer),
                ("contention", b.contention),
                ("idle", b.idle),
            ] {
                let _ = writeln!(
                    out,
                    "{PROM_PREFIX}attribution_seconds{{node=\"{node}\",component=\"{component}\"}} {value}"
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP {PROM_PREFIX}makespan_seconds simulated makespan"
        );
        let _ = writeln!(out, "# TYPE {PROM_PREFIX}makespan_seconds gauge");
        let _ = writeln!(out, "{PROM_PREFIX}makespan_seconds {}", att.makespan);
    }

    out
}

fn json_labels(label: Label) -> String {
    format!("{{{}}}", label.json())
}

fn json_buckets(b: &AttribBuckets) -> String {
    format!(
        "\"compute\": {}, \"transfer\": {}, \"contention\": {}, \"idle\": {}, \"total\": {}",
        json_f64(b.compute),
        json_f64(b.transfer),
        json_f64(b.contention),
        json_f64(b.idle),
        json_f64(b.total())
    )
}

/// Render the full report as structured JSON: the attribution pass (or
/// `null`), then every counter, gauge series, and histogram.
pub fn to_json(report: &ProbeReport) -> String {
    let mut out = String::from("{\n  \"attribution\": ");
    match &report.attribution {
        None => out.push_str("null"),
        Some(att) => {
            let _ = write!(out, "{{\n    \"makespan\": {},", json_f64(att.makespan));
            out.push_str("\n    \"nodes\": [");
            for (node, b) in att.nodes.iter().enumerate() {
                if node > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n      {{\"node\": {node}, {}}}", json_buckets(b));
            }
            out.push_str("\n    ],\n    \"steps\": [");
            for (i, (step, b)) in att.steps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let step_json = match step {
                    Some(k) => format!("{k}"),
                    None => "null".to_string(),
                };
                let _ = write!(
                    out,
                    "\n      {{\"step\": {step_json}, {}}}",
                    json_buckets(b)
                );
            }
            out.push_str("\n    ]\n  }");
        }
    }

    let snap = &report.snapshot;
    out.push_str(",\n  \"counters\": [");
    for (i, (&(name, label), value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{name}\", \"labels\": {}, \"value\": {value}}}",
            json_labels(label)
        );
    }

    out.push_str("\n  ],\n  \"gauges\": [");
    for (i, (&(name, label), series)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{name}\", \"labels\": {}, \"last\": {}, \"samples\": [",
            json_labels(label),
            json_f64(series.last)
        );
        for (j, (t, v)) in series.samples.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{}, {}]", json_f64(*t), json_f64(*v));
        }
        out.push_str("]}");
    }

    out.push_str("\n  ],\n  \"histograms\": [");
    for (i, (&(name, label), hist)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{name}\", \"labels\": {}, \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"buckets\": [",
            json_labels(label),
            hist.count,
            json_f64(hist.sum),
            json_f64(hist.min),
            json_f64(hist.max),
            json_f64(hist.mean())
        );
        for (slot, &bound) in HISTOGRAM_BOUNDS.iter().enumerate() {
            if slot > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"le\": {}, \"count\": {}}}",
                json_f64(bound),
                hist.buckets[slot]
            );
        }
        let _ = write!(
            out,
            ",{{\"le\": null, \"count\": {}}}]}}",
            hist.buckets[HISTOGRAM_BOUNDS.len()]
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::report::Attribution;
    use crate::probe::{metric, Probe};

    fn sample_report() -> ProbeReport {
        let p = Probe::enabled();
        p.counter(metric::COMM_MSGS, Label::Kind("data"), 4);
        p.counter(
            metric::COMM_LINK_BYTES,
            Label::Link { src: 0, dst: 1 },
            4096,
        );
        p.gauge(
            metric::SCHED_READY_DEPTH,
            Label::Policy("critical-path"),
            0.5,
            3.0,
        );
        p.gauge(
            metric::SCHED_READY_DEPTH,
            Label::Policy("critical-path"),
            1.0,
            1.0,
        );
        p.observe(
            metric::SCHED_TASK_WAIT,
            Label::Policy("critical-path"),
            2e-4,
        );
        p.set_attribution(Attribution {
            nodes: vec![AttribBuckets {
                compute: 1.0,
                transfer: 0.25,
                contention: 0.25,
                idle: 0.5,
            }],
            steps: vec![(
                Some(0),
                AttribBuckets {
                    compute: 1.0,
                    ..Default::default()
                },
            )],
            makespan: 2.0,
        });
        p.report()
    }

    #[test]
    fn prometheus_lines_are_well_formed() {
        let text = to_prometheus(&sample_report());
        assert!(text.contains("# TYPE luqr_comm_msgs_total counter"));
        assert!(text.contains("luqr_comm_msgs_total{kind=\"data\"} 4"));
        assert!(text.contains("luqr_comm_link_bytes_total{src=\"0\",dst=\"1\"} 4096"));
        assert!(text.contains("# TYPE luqr_sched_task_wait_seconds histogram"));
        assert!(text.contains(
            "luqr_sched_task_wait_seconds_bucket{policy=\"critical-path\",le=\"+Inf\"} 1"
        ));
        assert!(text.contains("luqr_attribution_seconds{node=\"0\",component=\"compute\"} 1"));
        assert!(text.contains("luqr_makespan_seconds 2"));
        // Every non-comment line is `name{labels}? value`.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name_part.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
        }
    }

    #[test]
    fn json_export_is_structured() {
        let text = to_json(&sample_report());
        assert!(text.contains("\"makespan\": 2"));
        assert!(text.contains("\"nodes\": ["));
        assert!(text.contains("\"total\": 2"));
        assert!(text.contains("\"name\": \"comm_msgs_total\""));
        assert!(text.contains("\"samples\": [[0.5, 3],[1, 1]]"));
        assert!(text.contains("\"le\": null"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn counter_track_events_have_chrome_shape() {
        let rep = sample_report();
        let trace = chrome_counter_events(&rep.snapshot);
        assert!(trace.starts_with('['));
        assert!(trace.contains("\"ph\": \"C\""));
        assert!(trace.contains("\"name\": \"sched_ready_depth[critical-path]\""));
        assert!(trace.contains("\"args\": {\"value\": 3}"));
        assert!(trace.contains("\"ts\": 500000.000"));
    }
}
