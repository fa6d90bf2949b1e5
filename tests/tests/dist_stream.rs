//! Distributed-streaming tests: batch ≡ stream for every algorithm ×
//! criterion on one node (the four-node half is `builder_parity`'s golden
//! table), batch ≡ stream ≡ net over loopback and Unix-domain sockets
//! ([`luqr_tests::paths::check_parity`]), and what only this suite asserts:
//! message counts, replays on other platforms, trace export, the one-rank
//! run, a singular input's breakdown and four real `luqr-worker` processes.

use luqr::net::launch::{launch_multiprocess, NetJob};
use luqr::{Algorithm, Criterion, Decision, MsgStats, StepRecord};
use luqr_runtime::{simulate, Platform};
use luqr_tests::assert_routing_matches_replay;
use luqr_tests::paths::{
    algorithm_from, bits, check_parity, msg_total, rank_links, run, Case, Input, Path,
};
use luqr_tests::toy::{self, Producer};
use luqr_tile::Grid;

const MAX: Algorithm = Algorithm::LuQr(Criterion::Max { alpha: 100.0 });
const LOCAL: [Path; 2] = [Path::Batch, Path::Stream];
const NET: [Path; 3] = [Path::Batch, Path::Stream, Path::Loopback];

fn case(algorithm: Algorithm, grid: Grid, n: usize, seed: u64) -> Case {
    Case::new(algorithm, grid).dominant(n, seed, 2)
}

/// A producer owes its output to remote consumers planned in its own
/// phase, in its step's finish and in the next step's prelude, and a rank
/// reads one version of a datum it is home to while another rank writes the
/// next — which no factorization plans ([`luqr_tests::toy`]).
#[test]
fn cross_phase_transfers_and_remote_overwrites_agree_on_every_path() {
    toy::check_parity(&TOY_PATHS, Producer::Node0);
}

/// The producer's rank has nothing in the next step that waits for it, so
/// its share of that step drains while the producer still owes the step's
/// remote consumers their inputs ([`Producer::Alternating`]).
#[test]
fn a_producer_still_sends_once_its_rank_drained_the_next_step() {
    toy::check_parity(&TOY_PATHS, Producer::Alternating);
}

/// Node 0 sources two versions of one datum that node 2 reads in one
/// phase, with node 1's write between them ([`Producer::Rewritten`]):
/// each version reaches node 2.
#[test]
fn every_version_a_rank_sources_reaches_each_remote_reader() {
    toy::check_parity(&TOY_PATHS, Producer::Rewritten);
}

const TOY_PATHS: [Path; 4] = [Path::Batch, Path::Stream, Path::Loopback, Path::Uds];

/// On a 2×2 grid, a rank plans in proportion to its share: its sweeps name
/// its own tasks and the boundary — the other ranks' ops that write a
/// datum it sweeps, and one reader per version it sources and destination
/// in a phase — and nothing of the rest.
#[test]
fn a_rank_names_its_own_tasks_and_the_boundary() {
    for algorithm in [MAX, Algorithm::Hqr] {
        let case = case(algorithm.clone(), Grid::new(2, 2), 96, 7);
        let outs = check_parity(&case, &[Path::Stream, Path::Loopback]);
        let total = outs[0].report().tasks_planned;
        for (rank, f) in outs[1].ranks.iter().enumerate() {
            let r = &f.report;
            let sent: u64 = r
                .link_msgs
                .iter()
                .filter(|l| l.src == rank)
                .map(|l| l.msgs.payload_msgs())
                .sum();
            let what = format!(
                "{algorithm:?} rank {rank} of {total} ops: {} planned, {} named, boundary {} + {}",
                r.tasks_planned, r.ops_named, r.boundary_writers, r.boundary_readers
            );
            assert_eq!(
                r.ops_named,
                r.tasks_planned + r.boundary_writers + r.boundary_readers,
                "{what}"
            );
            // A reader is named only for a version this rank routes to the
            // reader's node, which is one message the rank sends.
            assert!(r.boundary_readers as u64 <= sent, "{what}: {sent} sent");
            // Its own quarter and the boundary: under half of the plan.
            assert!(2 * r.ops_named < total, "{what}");
        }
    }
}

#[test]
fn distributed_streaming_parity_every_algorithm_and_criterion() {
    for sel in 0..10 {
        for window in [1, 2, 7] {
            let case = Case::new(algorithm_from(sel, 100), Grid::single());
            check_parity(&case.window(window), &LOCAL);
        }
    }
}

/// A hybrid run on four nodes communicates, and the decision broadcast is
/// visible as DecisionMsgs from the panel-owner node.
#[test]
fn distributed_hybrid_counts_decision_broadcasts() {
    let outs = check_parity(&case(MAX, Grid::new(2, 2), 64, 99), &LOCAL);
    let msgs = outs[1].report().msgs;
    assert!(msgs.data_msgs > 0, "2x2 grid must move tiles");
    assert!(msgs.decision_msgs > 0, "hybrid steps must broadcast");
    assert!(msgs.retire_msgs > 0, "remote nodes must report retirement");
    let replay = outs[0].replay();
    assert!(replay.makespan > 0.0);
    assert!(replay.makespan >= replay.critical_path - 1e-12);
}

/// Distributed streaming on a single node moves zero messages and zero
/// bytes, through every layer (protocol and replay).
#[test]
fn single_node_distributed_run_moves_nothing() {
    let outs = check_parity(&case(MAX, Grid::single(), 48, 5).window(3), &LOCAL);
    assert_eq!(outs[1].report().msgs, MsgStats::default());
    assert_eq!((outs[0].replay().messages, outs[0].replay().bytes), (0, 0));
}

/// `latency = 0` degenerates the communication model to pure bandwidth
/// cost; the replay still moves exactly what the window routed.
#[test]
fn zero_latency_platform_costs_pure_bandwidth() {
    let outs = check_parity(&case(Algorithm::Hqr, Grid::new(2, 2), 48, 17), &LOCAL);
    let platform = Platform::dancer_nodes(4).with_latency(0.0);
    let replay = simulate(outs[0].graph(), &platform);
    let routed = &outs[1].report().link_msgs;
    assert_routing_matches_replay(routed, &replay.link_messages, "latency 0");
    assert!(replay.bytes > 0);
    assert!(replay.makespan > 0.0);
}

/// Streaming trace export: behind the flag, every executed task gets a
/// `(start, end, worker, step, node)` span, renderable as Chrome trace
/// JSON.
#[test]
fn streaming_trace_export_covers_executed_tasks() {
    let case = case(MAX, Grid::new(2, 2), 48, 8);
    let mut traced = case.clone();
    traced.trace = true;
    let traced = run(&traced, Path::Stream);
    let f = &traced.ranks[0];
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
    let untraced = run(&case, Path::Stream).ranks.remove(0);
    assert_eq!(untraced.chrome_trace(None).trim(), "[\n\n]");
}

/// Loopback across the algorithm families on a 2x2 grid: each exercises a
/// different payload codec mix (pivots + swap scratch, T factors,
/// incremental-pivot L panels, criterion decisions + backups). The Max
/// hybrid's loopback row is `probe`'s, probed and unprobed.
#[test]
fn net_loopback_matches_simulated_run_across_algorithms() {
    // AlwaysQr, LU NoPiv, LU IncPiv, LUPP, HQR.
    for sel in [4, 6, 7, 8, 9] {
        check_parity(&Case::new(algorithm_from(sel, 100), Grid::new(2, 2)), &NET);
    }
}

/// The hybrid over real Unix-domain sockets: transport choice is invisible
/// to numerics and protocol.
#[test]
fn net_loopback_and_uds_match_simulated_run() {
    let paths = [Path::Batch, Path::Stream, Path::Uds];
    check_parity(&Case::new(MAX, Grid::new(2, 2)), &paths);
}

/// Deeper window and a rectangular grid over loopback.
#[test]
fn net_rect_grid_and_wide_window() {
    check_parity(&Case::new(MAX, Grid::new(1, 2)).window(7), &NET);
}

/// A single-rank "distributed" run: everything is local, nothing crosses
/// the wire, and the report says exactly that.
#[test]
fn net_single_rank_moves_nothing() {
    let outs = check_parity(&Case::new(MAX, Grid::single()), &NET);
    assert_eq!(outs[2].report().msgs, MsgStats::default());
    let wire = outs[2].report().net.as_ref().expect("net report");
    assert_eq!(wire.frames_sent, 0);
    assert_eq!(wire.frames_received, 0);
    assert_eq!(wire.payload_bytes_sent, 0);
}

/// An exactly singular `A` — zero, or zero in its last column — is a
/// breakdown under HQR and under the hybrid, the same on every path. HQR's
/// kernels have no pivot to find zero, so the run reports the first zero
/// diagonal entry of its triangular factor. The hybrid's trial LU meets
/// the zero pivot and forces its step's QR branch: every step from the
/// first singular panel on decides QR, and the error names that panel.
#[test]
fn singular_hqr_and_hybrid_report_their_breakdown_on_every_path() {
    let (n, seed) = (24, 3);
    for algorithm in [Algorithm::Hqr, MAX] {
        for (zero_from, first_singular) in [(0, 0), (23, 2)] {
            let case = Case::new(algorithm.clone(), Grid::new(2, 2));
            let case = case.input(Input::Singular { n, seed, zero_from });
            let outs = check_parity(&case, &NET);
            let what = format!("{}, zero from column {zero_from}", algorithm.name());
            let error = outs[0].error.as_deref().unwrap_or_else(|| panic!("{what}"));
            if algorithm == MAX {
                let panel = format!("panel {first_singular}: zero pivot");
                assert!(error.starts_with(&panel), "{what}: {error}");
                let forced = outs[0].records.iter().map(|r| (r.k, r.decision));
                for (k, decision) in forced.filter(|&(k, _)| k >= first_singular) {
                    assert_eq!(decision, Decision::Qr, "{what}: step {k}");
                }
            }
        }
    }
}

/// The full stack: four real `luqr-worker` OS processes meshed over UDS
/// reproduce, on rank 0's links, the simulated run's message statistics
/// exactly and the batch factorization bitwise.
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
    let case = Case::new(job.algorithm.clone(), Grid::new(2, 2)).input(Input::Job(job.clone()));
    assert_eq!(format!("{:?}", case.opts), format!("{:?}", job.options()));
    let outs = check_parity(&case, &LOCAL);
    let (batch, dist) = (&outs[0], &outs[1]);

    // A wire bug must fail the test, not hang it.
    let deadline = std::time::Duration::from_secs(120);
    let mp = launch_multiprocess(&job, None, deadline).expect("multi-process run");
    assert_eq!(mp.error, None);
    let x = mp.solution.as_ref().expect("rank 0 reports a solution");
    assert_eq!(bits(x), bits(&batch.x), "solution diverged");
    let steps = |r: &[StepRecord]| -> Vec<_> {
        let bits = |r: &StepRecord| (r.k, r.decision, r.lhs.to_bits(), r.rhs.to_bits());
        r.iter().map(bits).collect()
    };
    assert_eq!(steps(&mp.records), steps(&dist.records));
    // Rank 0 reports its own links: the streamed run's, restricted to them.
    let links = rank_links(&dist.report().link_msgs, 0);
    assert_eq!(mp.msgs, msg_total(&links), "MsgStats diverged");
    assert_eq!(mp.link_msgs, links, "per-link MsgStats diverged");
    assert!(mp.frames_sent > 0 && mp.frames_received > 0);
    assert!(mp.payload_bytes_sent > 0 && mp.payload_bytes_received > 0);
}
