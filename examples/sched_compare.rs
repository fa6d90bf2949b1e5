//! Scheduling-policy comparison on the PR-4 mixed hierarchical cluster.
//!
//! One hybrid factorization (the `cluster_hetero` platform: 2 fast + 2
//! slow nodes in two islands, 2x2 grid — here with the 10 Gbit/s backbone
//! modeled as a *shared trunk* of finite bisection bandwidth, so
//! inter-island transfers contend) is executed once, then its task graph
//! is replayed through the virtual-time engine under every scheduling
//! policy ([`luqr::SchedPolicy`]). Placement, kernels, and numerics are
//! identical across rows — the policy only chooses which ready task claims
//! cores and network slots next — so the makespan column isolates exactly
//! what list-scheduling order is worth on a heterogeneous platform:
//!
//! * `fifo` pins the insertion-order baseline (bitwise equal to
//!   `simulate()`);
//! * `critical-path` keeps the panel chain hot;
//! * `locality` / `eft` run resident work while transfers queue on the
//!   trunk — the win this example *asserts* (≥ 5% over FIFO, the bar
//!   `tests/tests/pins.rs` holds the policies to).
//!
//! Also demonstrated: a probed EFT replay — asserted equal to the unprobed
//! one — with its makespan attribution (compute / transfer / trunk
//! contention / idle per node), and the three telemetry exports of that
//! replay — a Chrome trace with counter tracks, structured JSON, and
//! Prometheus text — written to `$LUQR_PROBE_DIR` (or the system temp
//! dir).
//!
//! ```sh
//! cargo run --release --example sched_compare [N] [nb]
//! ```

use std::path::PathBuf;

use luqr::{factor, Algorithm, Criterion, DistPolicy, FactorOptions, Probe, SchedPolicy};
use luqr_runtime::probe::export::{to_json, to_prometheus};
use luqr_runtime::trace::{to_chrome_trace_with, TraceOptions};
use luqr_runtime::{simulate_probed, simulate_with, Platform};
use luqr_tile::Grid;

#[path = "support/mod.rs"]
mod support;
use support::dominant_system as system;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(320);
    let nb: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    // The PR-4 mixed cluster, with its 10 Gbit/s inter-island backbone
    // made a shared trunk: all cross-island transfers serialize on it.
    let platform = Platform::mixed_islands().with_backbone(1.25e9);
    let grid = Grid::new(2, 2);
    println!(
        "mixed hierarchical cluster ({} nodes, grid 2x2):",
        platform.nodes()
    );
    for (rank, spec) in platform.specs.iter().enumerate() {
        println!(
            "  node{rank}: {:<14} peak {:>6.1} GFLOP/s",
            spec.label(),
            spec.peak_gflops()
        );
    }
    println!(
        "  network: islands of 2, intra 20 Gbit/s; 10 Gbit/s backbone shared \
         across islands\nN = {n}, nb = {nb}\n"
    );

    let (a, b) = system(n);
    let opts = FactorOptions {
        nb,
        ib: nb / 2,
        grid,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        // Block-cyclic keeps every node on the panel's critical path, so
        // cross-island traffic — and with it the scheduler's room to hide
        // it — is at its natural maximum.
        dist: DistPolicy::BlockCyclic,
        ..FactorOptions::default()
    };
    let f = factor(&a, &b, &opts);
    assert!(f.error.is_none(), "breakdown: {:?}", f.error);

    println!(
        "batch graph replayed under each policy ({} tasks):",
        f.graph.len()
    );
    println!(
        "{:<16} {:>12} {:>10} {:>8} {:>9}",
        "policy", "makespan", "GFLOP/s", "msgs", "vs fifo"
    );
    let mut makespans = Vec::new();
    let mut eft_sim = None;
    for policy in SchedPolicy::all() {
        let sim = simulate_with(&f.graph, &platform, policy);
        makespans.push((policy, sim.makespan));
        println!(
            "{:<16} {:>11.6}s {:>10.1} {:>8} {:>8.2}%",
            policy.name(),
            sim.makespan,
            sim.gflops_normalized(f.nominal_flops()),
            sim.messages,
            100.0 * (makespans[0].1 - sim.makespan) / makespans[0].1,
        );
        if policy == SchedPolicy::Eft {
            eft_sim = Some(sim);
        }
    }
    let fifo = makespans[0].1;

    // The acceptance bar: on a mixed hierarchical cluster, resource-aware
    // selection must beat insertion order by a real margin.
    let locality = makespans
        .iter()
        .find(|(p, _)| *p == SchedPolicy::LocalityAware)
        .expect("swept")
        .1;
    let eft = makespans
        .iter()
        .find(|(p, _)| *p == SchedPolicy::Eft)
        .expect("swept")
        .1;
    let best = locality.min(eft);
    println!(
        "\nbest of locality/eft vs fifo: {:.2}% faster ({:.6}s vs {:.6}s)",
        100.0 * (fifo - best) / fifo,
        best,
        fifo
    );
    assert!(
        locality < fifo && eft < fifo,
        "locality ({locality}s) and eft ({eft}s) must both beat fifo ({fifo}s)"
    );
    assert!(
        best <= 0.95 * fifo,
        "locality/eft must beat fifo makespan by >= 5% on the mixed \
         cluster ({best}s vs {fifo}s)"
    );

    // ---- probed EFT replay: where does the makespan go? ----------------
    let probe = Probe::enabled();
    let (sim, report) = simulate_probed(&f.graph, &platform, SchedPolicy::Eft, &probe);
    assert_eq!(
        Some(&sim),
        eft_sim.as_ref(),
        "probed and unprobed EFT replays must agree exactly"
    );
    let trace_json = to_chrome_trace_with(
        &f.graph,
        &sim,
        &TraceOptions {
            platform: Some(&platform),
            policy: Some(SchedPolicy::Eft),
            counters: Some(&report.snapshot),
        },
    );
    let att = report.attribution.as_ref().expect("probed replay");
    println!(
        "\nEFT makespan attribution ({:.6}s makespan, per node):",
        att.makespan
    );
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>10}",
        "node", "compute", "transfer", "contention", "idle"
    );
    for (node, bucket) in att.nodes.iter().enumerate() {
        println!(
            "node{node:<4} {:>9.1}% {:>9.1}% {:>11.1}% {:>9.1}%",
            100.0 * bucket.compute / att.makespan,
            100.0 * bucket.transfer / att.makespan,
            100.0 * bucket.contention / att.makespan,
            100.0 * bucket.idle / att.makespan,
        );
        let total = bucket.total();
        assert!(
            (total - att.makespan).abs() <= 1e-9 * att.makespan,
            "node{node}: attribution sums to {total}, makespan {}",
            att.makespan
        );
    }
    assert!(trace_json.contains("[eft]"), "policy-stamped lanes missing");
    assert!(
        trace_json.contains("\"ph\": \"C\""),
        "counter tracks missing from merged trace"
    );

    // ---- telemetry exports ---------------------------------------------
    let dir = std::env::var_os("LUQR_PROBE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&dir).expect("create probe dir");
    let trace_path = dir.join("sched_trace.json");
    std::fs::write(&trace_path, &trace_json).expect("write trace");
    let report_path = dir.join("probe_report.json");
    std::fs::write(&report_path, to_json(&report)).expect("write report");
    let prom_path = dir.join("probe.prom");
    std::fs::write(&prom_path, to_prometheus(&report)).expect("write prom");
    println!(
        "\ntelemetry written:\n  {} (Chrome spans + counter tracks; lanes read e.g. \
         \"node2 (4c @ 4.26 GF) [eft]\")\n  {} (structured JSON)\n  {} (Prometheus text)",
        trace_path.display(),
        report_path.display(),
        prom_path.display()
    );
}
