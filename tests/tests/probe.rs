//! Probe-subsystem integration tests: probes never perturb what they
//! measure (bitwise report parity with unprobed runs, across the replay's
//! schedulers and on the distributed streaming path), a replay's makespan
//! attribution reconciles with the makespan on every node, and the three
//! export formats are well-formed on real factorization telemetry.

use luqr::{
    factor, factor_stream_with, Algorithm, Criterion, FactorOptions, Probe, SchedPolicy,
    StreamOptions,
};
use luqr_runtime::probe::export::{chrome_counter_events, to_json, to_prometheus};
use luqr_runtime::probe::metric;
use luqr_runtime::trace::{to_chrome_trace_with, TraceOptions};
use luqr_runtime::{simulate_probed, simulate_with, Label, Platform};
use luqr_tile::Grid;

fn hybrid_opts(grid: Grid) -> FactorOptions {
    FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    }
}

#[test]
fn probed_batch_replay_matches_and_reconciles_across_policies() {
    let (a, b) = luqr_tests::dominant_system(48, 11, 2);
    let opts = hybrid_opts(Grid::new(2, 2));
    let f = factor(&a, &b, &opts);
    let platform = Platform::dancer_nodes(4);

    for policy in SchedPolicy::all() {
        let plain = simulate_with(&f.graph, &platform, policy);
        let probe = Probe::enabled();
        let (probed, report) = simulate_probed(&f.graph, &platform, policy, &probe);
        assert_eq!(
            plain,
            probed,
            "{}: probe perturbed the replay",
            policy.name()
        );

        let att = report.attribution.as_ref().expect("attribution recorded");
        assert!((att.makespan - probed.makespan).abs() <= 1e-12 * probed.makespan);
        // compute + transfer + contention + idle == makespan on every node.
        let err = att.max_reconciliation_error();
        assert!(
            err <= 1e-9 * att.makespan.max(1.0),
            "{}: attribution off by {err}",
            policy.name()
        );
        // Per-step decomposition covers the elimination steps.
        assert!(att.steps.iter().any(|(k, _)| *k == Some(0)));
        // Per-link traffic is identical across scheduling policies (the
        // data flow is schedule-invariant) and reconciles with the totals.
        let msgs: u64 = probed.link_messages.iter().map(|l| l.messages).sum();
        let bytes: u64 = probed.link_messages.iter().map(|l| l.bytes).sum();
        assert_eq!(msgs, probed.messages);
        assert_eq!(bytes, probed.bytes);
    }
}

#[test]
fn probed_distributed_streaming_is_bitwise_invariant() {
    let (a, b) = luqr_tests::dominant_system(50, 2014, 2);
    let opts = hybrid_opts(Grid::new(2, 2));
    let plain_opts = StreamOptions::fixed(2, opts.threads);
    let plain = factor_stream_with(&a, &b, &opts, &plain_opts);
    let probe = Probe::enabled();
    let stream_opts = plain_opts.with_probe(probe.clone());
    let probed = factor_stream_with(&a, &b, &opts, &stream_opts);

    assert_eq!(
        plain.solution().max_abs_diff(&probed.solution()),
        0.0,
        "probe changed the numerics"
    );
    assert_eq!(plain.report.msgs, probed.report.msgs);
    assert_eq!(plain.report.link_msgs, probed.report.link_msgs);

    // The probe saw the run: kernels and protocol messages. Virtual-time
    // attribution is a replay's (above).
    let report = probe.report();
    assert!(
        report
            .snapshot
            .counter(metric::KERNEL_FLOPS, Label::Class("gemm"))
            > 0
    );
    assert!(
        report
            .snapshot
            .counter(metric::COMM_MSGS, Label::Kind("data"))
            > 0
    );
    assert!(report.attribution.is_none());
}

#[test]
fn export_formats_are_well_formed_on_real_telemetry() {
    let (a, b) = luqr_tests::dominant_system(48, 5, 2);
    let opts = hybrid_opts(Grid::new(2, 2));
    let f = factor(&a, &b, &opts);
    let platform = Platform::dancer_nodes(4);
    let probe = Probe::enabled();
    let (sim, report) = simulate_probed(&f.graph, &platform, SchedPolicy::CriticalPath, &probe);

    // Prometheus: every non-comment line is `name{labels} value`.
    let prom = to_prometheus(&report);
    assert!(prom.contains("# TYPE luqr_attribution_seconds gauge"));
    assert!(prom.contains("luqr_makespan_seconds"));
    for line in prom
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name_part, value) = line.rsplit_once(' ').expect("name value");
        assert!(!name_part.is_empty());
        assert!(
            value.parse::<f64>().is_ok(),
            "unparsable sample value in {line:?}"
        );
    }

    // JSON: structurally balanced, carries the attribution nodes.
    let json = to_json(&report);
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced JSON"
    );
    assert!(json.contains("\"attribution\""));
    assert!(json.contains("\"makespan\""));

    // Chrome counter tracks render standalone and merged.
    let counters = chrome_counter_events(&report.snapshot);
    assert!(counters.trim_start().starts_with('['));
    assert!(counters.contains("\"ph\": \"C\""));
    let merged = to_chrome_trace_with(
        &f.graph,
        &sim,
        &TraceOptions {
            platform: Some(&platform),
            policy: Some(SchedPolicy::CriticalPath),
            counters: Some(&report.snapshot),
        },
    );
    assert!(merged.contains("\"ph\": \"X\""));
    assert!(merged.contains("\"ph\": \"C\""));
    assert!(merged.contains("[critical-path]"));
}
