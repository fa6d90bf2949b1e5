//! Property tests for distributed streaming: for random systems,
//! criteria, process grids, window sizes, and thread counts, (1) batch and
//! distributed streaming produce bitwise identical solutions, and (2) the
//! streamed run's window routes, on every directed link, exactly the
//! payload messages and bytes of a `simulate()` replay of the equivalent
//! batch graph on the same platform.

use luqr::{factor, factor_stream, Algorithm, Criterion, FactorOptions};
use luqr_kernels::Mat;
use luqr_runtime::{simulate, Platform};
use luqr_tests::{assert_routing_matches_replay, dominant_system};
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

        // Identical arithmetic and failure behavior.
        prop_assert_eq!(&batch.error, &stream.error);
        prop_assert_eq!(batch.solution().max_abs_diff(&stream.solution()), 0.0);
        prop_assert_eq!(batch.records.len(), stream.records.len());
        for (rb, rs) in batch.records.iter().zip(&stream.records) {
            prop_assert_eq!(rb.decision, rs.decision);
        }

        // Window routing ≡ replay network, link for link.
        let sim = simulate(&batch.graph, &platform);
        assert_routing_matches_replay(&stream.report.link_msgs, &sim.link_messages, "stream");

        // Window bound in steps, as in the single-process runtime.
        prop_assert!(stream.report.peak_live_steps <= window);
    }

}
