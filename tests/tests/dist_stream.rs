//! Distributed-streaming integration tests: bitwise residual parity
//! between batch and streaming for every algorithm × robustness criterion
//! at node counts {1, 4} and windows {1, 2, 7} — and, on every directed
//! link, equality of the window's routed payload traffic with a
//! `simulate()` replay of the equivalent batch graph on the same platform.

use luqr::{
    factor, factor_stream, factor_stream_with, Algorithm, Criterion, FactorOptions, StreamOptions,
};
use luqr_kernels::Mat;
use luqr_runtime::{simulate, Platform};
use luqr_tests::assert_routing_matches_replay;
use luqr_tile::Grid;

fn system(n: usize, seed: u64) -> (Mat, Mat) {
    luqr_tests::dominant_system(n, seed, 2)
}

/// Batch vs streaming vs the batch graph's replay, one configuration:
/// bitwise solutions, step-for-step decisions, and the window's per-link
/// payload traffic ≡ the replay's network.
fn check_three_way(opts: &FactorOptions, platform: &Platform, window: usize, n: usize, seed: u64) {
    let what = format!(
        "{} grid={}x{} window={window}",
        opts.algorithm.name(),
        opts.grid.p,
        opts.grid.q
    );
    let (a, b) = system(n, seed);
    let batch = factor(&a, &b, opts);
    let stream = factor_stream(&a, &b, opts, window);

    assert_eq!(batch.error, stream.error, "{what}: error mismatch");
    assert_eq!(
        batch.solution().max_abs_diff(&stream.solution()),
        0.0,
        "{what}: streaming diverged from batch"
    );

    // Criterion decisions match step for step.
    assert_eq!(batch.records.len(), stream.records.len());
    for (rb, rs) in batch.records.iter().zip(&stream.records) {
        assert_eq!(rb.k, rs.k);
        assert_eq!(rb.decision, rs.decision, "{what}: step {} decision", rb.k);
    }

    // The window routes what the replay prices: one payload message per
    // (produced version, destination node), on every link.
    let replay = simulate(&batch.graph, platform);
    assert_routing_matches_replay(&stream.report.link_msgs, &replay.link_messages, &what);

    // The window bound survives distribution.
    assert!(stream.report.peak_live_steps <= window, "{what}");
}

#[test]
fn distributed_streaming_parity_every_algorithm_and_criterion() {
    let algorithms = [
        Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        Algorithm::LuQr(Criterion::Sum { alpha: 100.0 }),
        Algorithm::LuQr(Criterion::Mumps { alpha: 100.0 }),
        Algorithm::LuQr(Criterion::AlwaysQr),
        Algorithm::LuQr(Criterion::AlwaysLu),
        Algorithm::LuQr(Criterion::Random {
            lu_fraction: 0.5,
            seed: 7,
        }),
        Algorithm::LuNoPiv,
        Algorithm::LuIncPiv,
        Algorithm::Lupp,
        Algorithm::Hqr,
    ];
    for algorithm in algorithms {
        for (grid, nodes) in [(Grid::single(), 1), (Grid::new(2, 2), 4)] {
            let platform = Platform::dancer_nodes(nodes);
            for window in [1, 2, 7] {
                let opts = FactorOptions {
                    nb: 8,
                    ib: 4,
                    threads: 2,
                    grid,
                    algorithm: algorithm.clone(),
                    ..FactorOptions::default()
                };
                check_three_way(&opts, &platform, window, 50, 2014);
            }
        }
    }
}

/// A hybrid run on four nodes communicates, and the decision broadcast is
/// visible as DecisionMsgs from the panel-owner node.
#[test]
fn distributed_hybrid_counts_decision_broadcasts() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(64, 99);
    let dist = factor_stream(&a, &b, &opts, 2);
    let msgs = dist.report.msgs;
    assert!(msgs.data_msgs > 0, "2x2 grid must move tiles");
    assert!(
        msgs.decision_msgs > 0,
        "hybrid steps must broadcast the criterion decision"
    );
    assert!(
        msgs.retire_msgs > 0,
        "remote nodes must report step retirement"
    );
    let replay = simulate(&factor(&a, &b, &opts).graph, &Platform::dancer_nodes(4));
    assert!(replay.makespan > 0.0);
    assert!(replay.makespan >= replay.critical_path - 1e-12);
}

/// Distributed streaming on a single node moves zero messages and zero
/// bytes, through every layer (protocol and replay).
#[test]
fn single_node_distributed_run_moves_nothing() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::single(),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(48, 5);
    let dist = factor_stream(&a, &b, &opts, 3);
    let msgs = dist.report.msgs;
    assert_eq!(msgs.data_msgs, 0);
    assert_eq!(msgs.decision_msgs, 0);
    assert_eq!(msgs.retire_msgs, 0);
    assert_eq!(msgs.bytes, 0);
    let replay = simulate(&factor(&a, &b, &opts).graph, &Platform::single_node(8));
    assert_eq!(replay.messages, 0);
    assert_eq!(replay.bytes, 0);
}

/// `latency = 0` degenerates the communication model to pure bandwidth
/// cost; the replay still moves exactly what the window routed.
#[test]
fn zero_latency_platform_costs_pure_bandwidth() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::Hqr,
        ..FactorOptions::default()
    };
    let (a, b) = system(48, 17);
    let p = Platform::dancer_nodes(4).with_latency(0.0);
    let dist = factor_stream(&a, &b, &opts, 2);
    let replay = simulate(&factor(&a, &b, &opts).graph, &p);
    assert_routing_matches_replay(&dist.report.link_msgs, &replay.link_messages, "latency 0");
    assert!(replay.bytes > 0);
    assert!(replay.makespan > 0.0);
}

/// Streaming trace export: behind the flag, every executed task gets a
/// `(start, end, worker, step, node)` span, renderable as Chrome trace
/// JSON.
#[test]
fn streaming_trace_export_covers_executed_tasks() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(48, 8);
    let stream_opts = StreamOptions::fixed(2, 2).with_trace();
    let f = factor_stream_with(&a, &b, &opts, &stream_opts);
    assert_eq!(f.report.trace.len(), f.report.tasks_executed);
    let mut nodes_seen = [false; 4];
    for ev in &f.report.trace {
        assert!(ev.end >= ev.start);
        assert!(ev.step.is_some());
        nodes_seen[ev.node] = true;
    }
    assert!(
        nodes_seen.iter().all(|&s| s),
        "2x2 grid must execute on all 4 nodes"
    );
    let json = f.chrome_trace(None);
    assert!(json.contains("\"args\": {\"step\": 0}"));
    assert!(json.contains("PANEL(k=0)"));
    assert!(!json.contains("process_name"));
    // Given a platform, lanes carry the node spec — and no policy stamp:
    // the host workers pop by critical-path depth, not by a sim policy.
    let named = f.chrome_trace(Some(&Platform::dancer_nodes(4)));
    assert!(named.contains("\"name\": \"node3 (8c @ 8.52 GF)\""));
    assert!(!named.contains("[fifo]"));
    // Untraced runs render an empty (but valid) document.
    let untraced = factor_stream(&a, &b, &opts, 2);
    assert_eq!(untraced.chrome_trace(None).trim(), "[\n\n]");
}

// ---------------------------------------------------------------------------
// Real-transport distributed runs: the counted protocol, performed.
// ---------------------------------------------------------------------------

use luqr::net::launch::{launch_multiprocess, NetJob};
use luqr::{factor_stream_net, factor_stream_net_opts, NetTransportKind, Probe};

/// One real-transport run against its two oracles: the batch factorization
/// (bitwise numerics) and the single-process distributed run, whose window
/// simulates the ranks as virtual nodes (exact protocol message
/// statistics, total and per link) — plus the runtime's own wire/protocol
/// reconciliation surfaced through rank 0's [`luqr::NetReport`].
fn check_net(opts: &FactorOptions, window: usize, n: usize, seed: u64, kind: &NetTransportKind) {
    let what = format!(
        "{} grid={}x{} window={window} over {kind:?}",
        opts.algorithm.name(),
        opts.grid.p,
        opts.grid.q
    );
    let (a, b) = system(n, seed);
    let batch = factor(&a, &b, opts);
    let dist = factor_stream(&a, &b, opts, window);
    let net = factor_stream_net(&a, &b, opts, window, kind).expect("net run failed");

    assert_eq!(batch.error, net.error, "{what}: error mismatch");
    assert_eq!(
        batch.solution().max_abs_diff(&net.solution()),
        0.0,
        "{what}: real-transport solution diverged from batch"
    );

    // Step records agree with the simulated distributed run bitwise.
    assert_eq!(net.records.len(), dist.records.len(), "{what}");
    for (rn, rd) in net.records.iter().zip(&dist.records) {
        assert_eq!(rn.k, rd.k, "{what}");
        assert_eq!(rn.decision, rd.decision, "{what}: step {} decision", rn.k);
        assert_eq!(
            rn.lhs.to_bits(),
            rd.lhs.to_bits(),
            "{what}: step {} lhs",
            rn.k
        );
        assert_eq!(
            rn.rhs.to_bits(),
            rd.rhs.to_bits(),
            "{what}: step {} rhs",
            rn.k
        );
    }

    // The performed protocol moved exactly the messages the simulation
    // modeled — in total and on every directed link.
    assert_eq!(
        net.report.msgs, dist.report.msgs,
        "{what}: MsgStats diverged from the simulated run"
    );
    assert_eq!(
        net.report.link_msgs, dist.report.link_msgs,
        "{what}: per-link MsgStats diverged"
    );

    // Rank 0's wire-level frame counters reconcile against the modeled
    // per-link protocol: every frame on the wire is a protocol message.
    let wire = net.report.net.as_ref().expect("net report missing");
    assert_eq!(wire.rank, 0, "{what}");
    assert_eq!(wire.nranks, opts.grid.nodes(), "{what}");
    let protocol_msgs = |l: &luqr_runtime::LinkMsgStats| {
        l.msgs.data_msgs + l.msgs.decision_msgs + l.msgs.retire_msgs
    };
    let sent: u64 = net
        .report
        .link_msgs
        .iter()
        .filter(|l| l.src == 0 && l.dst != 0)
        .map(protocol_msgs)
        .sum();
    let received: u64 = net
        .report
        .link_msgs
        .iter()
        .filter(|l| l.dst == 0 && l.src != 0)
        .map(protocol_msgs)
        .sum();
    assert_eq!(
        wire.frames_sent, sent,
        "{what}: wire frames != protocol msgs (sent)"
    );
    assert_eq!(
        wire.frames_received, received,
        "{what}: wire frames != protocol msgs (received)"
    );
    if opts.grid.nodes() > 1 {
        // Done + Fin/Shutdown at minimum; Sync broadcasts and Results too.
        assert!(wire.ctrl_frames_sent > 0, "{what}: no control frames sent");
        assert!(
            wire.ctrl_frames_received > 0,
            "{what}: no control frames received"
        );
    }
}

/// Loopback transport across every algorithm family on a 2x2 grid: each
/// exercises a different payload codec mix (pivots + swap scratch, T
/// factors, incremental-pivot L panels, criterion decisions + backups).
#[test]
fn net_loopback_matches_simulated_run_across_algorithms() {
    for algorithm in [
        Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        Algorithm::LuQr(Criterion::AlwaysQr),
        Algorithm::Lupp,
        Algorithm::LuIncPiv,
        Algorithm::LuNoPiv,
        Algorithm::Hqr,
    ] {
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid: Grid::new(2, 2),
            algorithm,
            ..FactorOptions::default()
        };
        check_net(&opts, 2, 50, 2014, &NetTransportKind::Loopback);
    }
}

/// The same hybrid run over in-process mailboxes and over real Unix-domain
/// sockets: transport choice must be invisible to numerics and protocol.
#[test]
fn net_loopback_and_uds_match_simulated_run() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    check_net(&opts, 2, 50, 2014, &NetTransportKind::Loopback);
    check_net(&opts, 2, 50, 2014, &NetTransportKind::Uds);
}

/// Deeper window and a rectangular grid over loopback.
#[test]
fn net_rect_grid_and_wide_window() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(1, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    check_net(&opts, 7, 50, 2014, &NetTransportKind::Loopback);
}

/// A single-rank "distributed" run: everything is local, nothing crosses
/// the wire, and the report says exactly that.
#[test]
fn net_single_rank_moves_nothing() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::single(),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(50, 2014);
    let batch = factor(&a, &b, &opts);
    let net =
        factor_stream_net(&a, &b, &opts, 2, &NetTransportKind::Loopback).expect("net run failed");
    assert_eq!(batch.solution().max_abs_diff(&net.solution()), 0.0);
    assert_eq!(net.report.msgs, luqr_runtime::MsgStats::default());
    let wire = net.report.net.as_ref().expect("net report missing");
    assert_eq!(wire.frames_sent, 0);
    assert_eq!(wire.frames_received, 0);
    assert_eq!(wire.payload_bytes_sent, 0);
}

/// Probing a real-transport run must not perturb it: bitwise solution,
/// identical protocol statistics, identical wire frame counters.
#[test]
fn net_probed_run_matches_unprobed() {
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(2, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let (a, b) = system(50, 2014);
    let plain =
        factor_stream_net(&a, &b, &opts, 2, &NetTransportKind::Loopback).expect("unprobed run");
    let probe = Probe::enabled();
    let sopts = StreamOptions::fixed(2, opts.threads).with_probe(probe.clone());
    let probed = factor_stream_net_opts(&a, &b, &opts, &sopts, &NetTransportKind::Loopback)
        .expect("probed run");

    assert_eq!(plain.solution().max_abs_diff(&probed.solution()), 0.0);
    assert_eq!(plain.report.msgs, probed.report.msgs);
    assert_eq!(plain.report.link_msgs, probed.report.link_msgs);
    let (wp, wq) = (
        plain.report.net.as_ref().expect("net report"),
        probed.report.net.as_ref().expect("net report"),
    );
    assert_eq!(wp.frames_sent, wq.frames_sent);
    assert_eq!(wp.frames_received, wq.frames_received);
    assert_eq!(wp.payload_bytes_sent, wq.payload_bytes_sent);
    assert_eq!(wp.payload_bytes_received, wq.payload_bytes_received);

    // The probe saw the wire: its export includes net counters.
    let report = probe.report();
    let rendered = format!("{:?}", report.snapshot);
    assert!(
        rendered.contains("net"),
        "probe snapshot has no net metrics: {rendered}"
    );
}

/// The full stack: four real `luqr-worker` OS processes meshed over UDS
/// reproduce the simulated run's message statistics exactly and the batch
/// factorization bitwise.
#[test]
fn net_four_worker_uds_processes_match_simulated_run() {
    let job = NetJob {
        n: 64,
        nrhs: 2,
        seed: 2014,
        nb: 8,
        ib: 4,
        p: 2,
        q: 2,
        threads: 2,
        window: 2,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 6.0 }),
    };
    let (a, b) = job.problem();
    let opts = job.options();
    let batch = factor(&a, &b, &opts);
    let dist = factor_stream(&a, &b, &opts, job.window);

    let mp = launch_multiprocess(&job, None).expect("multi-process run");
    assert_eq!(mp.error, None);
    let x = mp.solution.as_ref().expect("rank 0 reports a solution");
    assert_eq!(batch.solution().max_abs_diff(x), 0.0, "solution diverged");

    assert_eq!(mp.records.len(), dist.records.len());
    for (rm, rd) in mp.records.iter().zip(&dist.records) {
        assert_eq!(rm.k, rd.k);
        assert_eq!(rm.decision, rd.decision, "step {} decision", rm.k);
        assert_eq!(rm.lhs.to_bits(), rd.lhs.to_bits(), "step {} lhs", rm.k);
        assert_eq!(rm.rhs.to_bits(), rd.rhs.to_bits(), "step {} rhs", rm.k);
    }
    assert_eq!(mp.msgs, dist.report.msgs, "MsgStats diverged");
    assert_eq!(
        mp.link_msgs, dist.report.link_msgs,
        "per-link MsgStats diverged"
    );
    assert!(mp.frames_sent > 0 && mp.frames_received > 0);
    assert!(mp.payload_bytes_sent > 0 && mp.payload_bytes_received > 0);
}
