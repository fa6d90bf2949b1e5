//! Cross-crate tests of the runtime executor and platform simulator on
//! real factorization graphs.

use luqr::builder::build_graph;
use luqr::{factor, Algorithm, Criterion, FactorOptions};
use luqr_kernels::Mat;
use luqr_runtime::{simulate, Platform, SimReport};
use luqr_tile::{Grid, TiledMatrix};

fn system(n: usize) -> (Mat, Mat) {
    let mut a = Mat::random(n, n, 31);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    (a, Mat::random(n, 1, 32))
}

#[test]
fn simulation_invariants_hold_across_algorithms() {
    let (a, b) = system(48);
    let platform = Platform::dancer_nodes(4);
    for algorithm in [
        Algorithm::LuQr(Criterion::Max { alpha: 10.0 }),
        Algorithm::LuNoPiv,
        Algorithm::Hqr,
        Algorithm::Lupp,
        Algorithm::LuIncPiv,
    ] {
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            grid: Grid::new(2, 2),
            algorithm,
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        let sim = simulate(&f.graph, &platform);
        let name = f.algorithm.name();
        assert!(sim.makespan > 0.0, "{name}");
        assert!(
            sim.makespan >= sim.critical_path - 1e-12,
            "{name}: makespan below critical path"
        );
        // Makespan is bounded by all-serial execution plus worst-case
        // fully-serialized communication.
        let link = platform.link;
        let comm_bound =
            sim.messages as f64 * (link.latency + 8.0 * 8.0 * 8.0 * 64.0 / link.bandwidth);
        assert!(
            sim.makespan <= sim.serial_seconds + comm_bound + 1e-9,
            "{name}: makespan {} above serial {} + comm {}",
            sim.makespan,
            sim.serial_seconds,
            comm_bound
        );
        assert!(sim.avg_utilization(&platform) <= 1.0 + 1e-9, "{name}");
        // Finish times are consistent.
        for i in 0..f.graph.len() {
            assert!(sim.finishes[i] >= sim.starts[i], "{name}: task {i}");
        }
        // A task's cost is a closed form of its op: a planner without
        // branch gates replays its graph before it runs exactly as after.
        if !matches!(f.algorithm, Algorithm::LuQr(_)) {
            let aug = TiledMatrix::from_dense_augmented(&a, &b, opts.nb);
            let nt_a = aug.nt() - b.cols().div_ceil(opts.nb);
            let (planned, _) = build_graph(&aug, nt_a, &opts);
            assert_eq!(bits(&simulate(&planned, &platform)), bits(&sim), "{name}");
        }
    }
}

/// The bits of what a replay reports: makespan, traffic (total and per
/// link), per-node per-class seconds, and every task's span.
fn bits(sim: &SimReport) -> Vec<u64> {
    let links = sim.link_messages.iter().flat_map(|l| {
        let (src, dst) = (l.src as u64, l.dst as u64);
        [src, dst, l.messages, l.bytes]
    });
    let seconds = sim.node_class_seconds.iter().flatten().map(|s| s.to_bits());
    let spans = sim.starts.iter().chain(&sim.finishes).map(|t| t.to_bits());
    [sim.makespan.to_bits(), sim.messages, sim.bytes]
        .into_iter()
        .chain(links)
        .chain(seconds)
        .chain(spans)
        .collect()
}

#[test]
fn single_node_platform_has_no_messages() {
    let (a, b) = system(32);
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        grid: Grid::single(),
        algorithm: Algorithm::Hqr,
        ..FactorOptions::default()
    };
    let f = factor(&a, &b, &opts);
    let sim = simulate(&f.graph, &Platform::single_node(8));
    assert_eq!(sim.messages, 0);
    assert_eq!(sim.bytes, 0);
}

#[test]
fn more_nodes_reduce_makespan_for_big_problems() {
    // Large enough that per-tile compute dominates per-tile transfers.
    let (a, b) = system(960);
    let mk = |p: usize, q: usize| {
        let opts = FactorOptions {
            nb: 96,
            ib: 16,
            grid: Grid::new(p, q),
            algorithm: Algorithm::LuNoPiv,
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        simulate(&f.graph, &Platform::dancer_nodes(p * q)).makespan
    };
    let t1 = mk(1, 1);
    let t4 = mk(2, 2);
    assert!(
        t4 < t1,
        "4 nodes ({t4:.4}s) must beat 1 node ({t1:.4}s) at this size"
    );
}

#[test]
fn hybrid_discards_exactly_one_branch_per_step() {
    let (a, b) = system(64);
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        algorithm: Algorithm::LuQr(Criterion::Random {
            lu_fraction: 0.5,
            seed: 5,
        }),
        ..FactorOptions::default()
    };
    let f = factor(&a, &b, &opts);
    // Per step: either the LU tasks or the QR tasks execute, never both.
    for k in 0..f.records.len() {
        let suffix = format!("k={k})");
        let mut lu_exec = 0;
        let mut qr_exec = 0;
        for t in f.graph.tasks() {
            let name = t.name();
            if !name.ends_with(&suffix) {
                continue;
            }
            let executed = t.cost().is_some_and(|r| r.executed);
            if name.starts_with("GEMM") || name.starts_with("TRSM(") {
                lu_exec += executed as usize;
            }
            if name.contains("QRT") || name.contains("MQR") {
                qr_exec += executed as usize;
            }
        }
        let dec = f.records[k].decision;
        if lu_exec > 0 {
            assert_eq!(dec, luqr::Decision::Lu, "step {k}");
            assert_eq!(qr_exec, 0, "step {k}: both branches executed");
        }
        if qr_exec > 0 {
            assert_eq!(dec, luqr::Decision::Qr, "step {k}");
            assert_eq!(lu_exec, 0, "step {k}: both branches executed");
        }
    }
}

#[test]
fn dot_export_of_real_graph_is_wellformed() {
    let (a, b) = system(32);
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        algorithm: Algorithm::LuQr(Criterion::AlwaysQr),
        ..FactorOptions::default()
    };
    let f = factor(&a, &b, &opts);
    let dot = f.dot_for_step(0);
    assert!(dot.starts_with("digraph"));
    assert!(dot.trim_end().ends_with('}'));
    assert!(dot.contains("PANEL(k=0)"));
    assert!(
        dot.contains("style=dashed"),
        "LU branch must render discarded"
    );
}
