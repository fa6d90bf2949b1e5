//! Property tests for distributed streaming: for random systems,
//! criteria, process grids, window sizes, and thread counts, (1) batch,
//! single-process streaming, and distributed streaming produce bitwise
//! identical solutions, and (2) the distributed run's online virtual-time
//! report equals a `simulate()` replay of the equivalent batch graph on
//! the same platform (makespan/serial/critical-path within 1e-9 relative,
//! messages and bytes exactly).
//!
//! Plus the heterogeneous-platform degeneracy pin: a [`Platform`] built as
//! an explicit list of identical `NodeSpec`s under a `Uniform` topology is
//! **bitwise** interchangeable with the homogeneous constructors — same
//! `SimReport` (every field, spans included) from both the batch replay
//! and the online distributed run. This is what guarantees the
//! heterogeneity refactor changed nothing in the uniform case.

use luqr::{
    factor, factor_stream, factor_stream_with, Algorithm, Criterion, FactorOptions, StreamOptions,
};
use luqr_kernels::Mat;
use luqr_runtime::{simulate, LinkSpec, NodeSpec, Platform, Topology};
use luqr_tests::dominant_system;
use luqr_tile::Grid;
use proptest::prelude::*;

fn random_system(n: usize, seed: u64) -> (Mat, Mat) {
    dominant_system(n, seed, 1)
}

/// Decode a criterion from two generated primitives (the vendored proptest
/// shim has no heterogeneous `prop_oneof`).
fn criterion_from(kind: usize, raw: u64) -> Criterion {
    let alpha = (raw % 1000) as f64;
    match kind {
        0 => Criterion::Max { alpha },
        1 => Criterion::Sum { alpha },
        2 => Criterion::Random {
            lu_fraction: 0.5,
            seed: raw,
        },
        3 => Criterion::AlwaysQr,
        _ => Criterion::AlwaysLu,
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn distributed_streaming_is_bitwise_batch_and_sim_exact(
        seed in any::<u64>(),
        n in 24usize..56,
        window_sel in 0usize..3,
        threads in 1usize..5,
        crit_kind in 0usize..5,
        crit_raw in any::<u64>(),
        grid_sel in 0usize..3,
    ) {
        let criterion = criterion_from(crit_kind, crit_raw);
        let nb = 8;
        let nt = n.div_ceil(nb);
        let window = [1, 2, nt][window_sel];
        let grid = [Grid::single(), Grid::new(2, 1), Grid::new(2, 2)][grid_sel];
        let platform = Platform::dancer_nodes(grid.nodes());
        let (a, b) = random_system(n, seed);
        let opts = FactorOptions {
            nb,
            ib: 4,
            threads,
            grid,
            algorithm: Algorithm::LuQr(criterion),
            ..FactorOptions::default()
        };

        let batch = factor(&a, &b, &opts);
        let stream = factor_stream(&a, &b, &opts, window);
        let dist_opts = StreamOptions::fixed(window, threads).with_platform(platform.clone());
        let dist = factor_stream_with(&a, &b, &opts, &dist_opts).expect("grid fits platform");
        let online = dist.report.sim.as_ref().expect("a platform run reports virtual time");

        // Identical arithmetic and failure behavior across all three.
        prop_assert_eq!(&batch.error, &stream.error);
        prop_assert_eq!(&batch.error, &dist.error);
        let xb = batch.solution();
        prop_assert_eq!(xb.max_abs_diff(&stream.solution()), 0.0);
        prop_assert_eq!(xb.max_abs_diff(&dist.solution()), 0.0);
        prop_assert_eq!(batch.records.len(), dist.records.len());
        for (rb, rd) in batch.records.iter().zip(&dist.records) {
            prop_assert_eq!(rb.decision, rd.decision);
        }

        // Online virtual time ≡ batch replay.
        let sim = simulate(&batch.graph, &platform);
        prop_assert!(
            close(sim.makespan, online.makespan),
            "makespan {} vs {}", sim.makespan, online.makespan
        );
        prop_assert!(close(sim.serial_seconds, online.serial_seconds));
        prop_assert!(close(sim.critical_path, online.critical_path));
        prop_assert_eq!(sim.messages, online.messages);
        prop_assert_eq!(sim.bytes, online.bytes);
        prop_assert_eq!(dist.report.msgs.payload_msgs(), online.messages);

        // Window bound in steps, as in the single-process runtime.
        prop_assert!(dist.report.peak_live_steps <= window);
    }

    /// Degeneracy pin: an explicitly heterogeneous platform whose specs
    /// are all equal (and whose topology is `Uniform`) is bitwise
    /// indistinguishable from the homogeneous constructor — the whole
    /// `SimReport` (makespan, messages, bytes, spans, busy vector) is
    /// `==` for both the batch replay and the online distributed run.
    #[test]
    fn identical_nodespecs_reproduce_the_homogeneous_path_bitwise(
        seed in any::<u64>(),
        n in 24usize..48,
        crit_kind in 0usize..5,
        crit_raw in any::<u64>(),
        grid_sel in 0usize..3,
    ) {
        let grid = [Grid::single(), Grid::new(2, 1), Grid::new(2, 2)][grid_sel];
        let uniform = Platform::dancer_nodes(grid.nodes());
        let hetero = Platform::heterogeneous(
            vec![NodeSpec::new(8, 8.52); grid.nodes()],
            Topology::Uniform(LinkSpec::new(5e-6, 1.25e9)),
            12e9,
        );
        prop_assert_eq!(&uniform, &hetero, "constructors must agree field for field");

        let (a, b) = random_system(n, seed);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid,
            algorithm: Algorithm::LuQr(criterion_from(crit_kind, crit_raw)),
            ..FactorOptions::default()
        };
        let batch = factor(&a, &b, &opts);
        let sim_u = simulate(&batch.graph, &uniform);
        let sim_h = simulate(&batch.graph, &hetero);
        prop_assert_eq!(&sim_u, &sim_h, "batch replay diverged");

        let [dist_u, dist_h] = [uniform, hetero].map(|platform| {
            let dist_opts = StreamOptions::fixed(2, opts.threads).with_platform(platform);
            factor_stream_with(&a, &b, &opts, &dist_opts).expect("grid fits platform")
        });
        prop_assert_eq!(&dist_u.report.sim, &dist_h.report.sim, "online virtual time diverged");
        prop_assert_eq!(
            dist_u.solution().max_abs_diff(&dist_h.solution()), 0.0
        );
    }
}
