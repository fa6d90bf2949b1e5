//! Probe-subsystem integration tests: probes never perturb what they
//! measure (bitwise report parity with unprobed runs, across the replay's
//! schedulers and, through the parity harness, on the streamed and loopback
//! paths), a replay's makespan attribution reconciles with the makespan on
//! every node, and the three export formats are well-formed on real
//! factorization telemetry.

use luqr::{Algorithm, Criterion, Probe, SchedPolicy};
use luqr_runtime::probe::export::{chrome_counter_events, to_json, to_prometheus};
use luqr_runtime::probe::metric;
use luqr_runtime::trace::{to_chrome_trace_with, TraceOptions};
use luqr_runtime::{simulate_probed, simulate_with, Label, Platform};
use luqr_tests::paths::{check_parity, run, Case, Outcome, Path};
use luqr_tile::Grid;

fn hybrid() -> Case {
    let max = Algorithm::LuQr(Criterion::Max { alpha: 100.0 });
    Case::new(max, Grid::new(2, 2))
}

/// The hybrid's batch run on `dominant_system(48, seed, 2)`.
fn batch(seed: u64) -> Outcome {
    run(&hybrid().dominant(48, seed, 2), Path::Batch)
}

#[test]
fn probed_batch_replay_matches_and_reconciles_across_policies() {
    let f = batch(11);
    let platform = Platform::dancer_nodes(4);

    for policy in SchedPolicy::all() {
        let plain = simulate_with(f.graph(), &platform, policy);
        let probe = Probe::enabled();
        let (probed, report) = simulate_probed(f.graph(), &platform, policy, &probe);
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

/// The probed hybrid on the streamed and loopback paths: `check_parity`
/// runs both unprobed too and finds the same bits, messages and wire
/// counters. The probes saw the runs: kernels, protocol messages and, on
/// rank 0 of the loopback run, the wire.
#[test]
fn probed_distributed_streaming_is_bitwise_invariant() {
    let mut case = hybrid();
    case.probe = true;
    let outs = check_parity(&case, &[Path::Batch, Path::Stream, Path::Loopback]);
    let report = outs[1].probe.as_ref().expect("a probed stream");
    let counter = |name, label| report.snapshot.counter(name, label);
    assert!(counter(metric::KERNEL_FLOPS, Label::Class("gemm")) > 0);
    assert!(counter(metric::COMM_MSGS, Label::Kind("data")) > 0);
    // Virtual-time attribution is a replay's (above).
    assert!(report.attribution.is_none());
    let net = format!(
        "{:?}",
        outs[2].probe.as_ref().expect("a probed rank").snapshot
    );
    assert!(
        net.contains("net"),
        "probe snapshot has no net metrics: {net}"
    );
}

#[test]
fn export_formats_are_well_formed_on_real_telemetry() {
    let f = batch(5);
    let platform = Platform::dancer_nodes(4);
    let probe = Probe::enabled();
    let (sim, report) = simulate_probed(f.graph(), &platform, SchedPolicy::CriticalPath, &probe);

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
        f.graph(),
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
