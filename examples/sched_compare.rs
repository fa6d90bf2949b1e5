//! Replay-order comparison on four Dancer nodes.
//!
//! One hybrid factorization (2x2 grid) is executed once, then its task
//! graph is replayed through the virtual-time engine in the two ready-task
//! orders this workspace's executors use ([`luqr::SchedPolicy`]):
//!
//! * `fifo` — the batch executor's order; the replay pops the smallest
//!   ready id, which is insertion order (bitwise equal to `simulate()`);
//! * `critical-path` — the streaming workers' order: the deepest ready
//!   chain first, which keeps the panel chain hot.
//!
//! Placement, kernels, and numerics are identical across rows — the policy
//! only chooses which ready task claims cores and network slots next — so
//! the makespan column isolates what list-scheduling order is worth. The
//! example asserts that critical-path is no slower than FIFO; at the
//! default size the two makespans are the ones `tests/tests/pins.rs` pins.
//!
//! Also demonstrated: a probed critical-path replay — asserted equal to
//! the unprobed one — with its makespan attribution (compute / transfer /
//! NIC contention / idle per node, asserted to sum to the makespan), and
//! the three telemetry exports of that replay — a Chrome trace with
//! counter tracks, structured JSON, and Prometheus text — written to
//! `$LUQR_PROBE_DIR` (or the system temp dir). Every export is a function
//! of the replay alone, so two runs write identical files.
//!
//! ```sh
//! cargo run --release --example sched_compare [N] [nb]
//! ```

use std::path::PathBuf;

use luqr::{factor, Algorithm, Criterion, FactorOptions, Probe, SchedPolicy, TreeConfig};
use luqr_kernels::Mat;
use luqr_runtime::probe::export::{to_json, to_prometheus};
use luqr_runtime::trace::{to_chrome_trace_with, TraceOptions};
use luqr_runtime::{simulate_probed, simulate_with, Platform};
use luqr_tile::Grid;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(320);
    let nb: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    let platform = Platform::dancer_nodes(4);
    println!(
        "{} Dancer nodes ({}; link {} us, {} GB/s), grid 2x2\nN = {n}, nb = {nb}\n",
        platform.nodes,
        platform.node.label(),
        platform.link.latency * 1e6,
        platform.link.bandwidth / 1e9,
    );

    // A general random system: its pivoting and criterion-driven QR steps
    // give the graph both branches of the hybrid.
    let (a, b) = (Mat::random(n, n, 1), Mat::random(n, 1, 2));
    let opts = FactorOptions {
        nb,
        ib: nb / 2,
        threads: 1,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 1000.0 }),
        trees: TreeConfig {
            ts: 1,
            ..TreeConfig::default()
        },
        ..FactorOptions::default()
    };
    let f = factor(&a, &b, &opts);
    assert!(f.error.is_none(), "breakdown: {:?}", f.error);

    println!(
        "batch graph replayed under each policy ({} tasks):",
        f.graph.len()
    );
    println!(
        "{:<16} {:>16} {:>10} {:>8}",
        "policy", "makespan", "GFLOP/s", "msgs"
    );
    let [fifo, critical_path] = SchedPolicy::all().map(|policy| {
        let sim = simulate_with(&f.graph, &platform, policy);
        println!(
            "{:<16} {:>13.1} ns {:>10.1} {:>8}",
            policy.name(),
            sim.makespan * 1e9,
            sim.gflops_normalized(f.nominal_flops()),
            sim.messages,
        );
        sim
    });
    assert!(
        critical_path.makespan <= fifo.makespan,
        "critical-path ({}s) must not be slower than fifo ({}s)",
        critical_path.makespan,
        fifo.makespan
    );

    // ---- probed critical-path replay: where does the makespan go? -------
    let policy = SchedPolicy::CriticalPath;
    let probe = Probe::enabled();
    let (sim, report) = simulate_probed(&f.graph, &platform, policy, &probe);
    assert_eq!(
        sim, critical_path,
        "probed and unprobed critical-path replays must agree exactly"
    );
    let trace_json = to_chrome_trace_with(
        &f.graph,
        &sim,
        &TraceOptions {
            platform: Some(&platform),
            policy: Some(policy),
            counters: Some(&report.snapshot),
        },
    );
    let att = report.attribution.as_ref().expect("probed replay");
    println!(
        "\ncritical-path makespan attribution ({:.6}s makespan, per node):",
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
    assert!(
        trace_json.contains("[critical-path]"),
        "policy-stamped lanes missing"
    );
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
         \"node2 (8c @ 8.52 GF) [critical-path]\")\n  {} (structured JSON)\n  {} (Prometheus text)",
        trace_path.display(),
        report_path.display(),
        prom_path.display()
    );
}
