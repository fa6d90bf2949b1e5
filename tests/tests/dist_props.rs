//! Property tests for distributed streaming: for random systems, all ten
//! algorithm combos, process grids, window sizes and thread counts, the
//! batch path, the streaming window and every rank of a loopback run
//! compute the same bits and decisions, the window routes the batch graph's
//! replay link by link, and the loopback ranks' wire carries the stream's
//! protocol ([`luqr_tests::paths::check_parity`]).

use luqr_tests::paths::{algorithm_from, check_parity, Case, Path};
use luqr_tile::Grid;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn distributed_streaming_is_bitwise_batch_and_sim_exact(
        seed in any::<u64>(),
        n in 24usize..56,
        window_sel in 0usize..3,
        threads in 1usize..5,
        algo_sel in 0usize..10,
        algo_raw in any::<u64>(),
        grid_sel in 0usize..3,
    ) {
        let grid = [Grid::single(), Grid::new(2, 1), Grid::new(2, 2)][grid_sel];
        let window = [1, 2, n.div_ceil(8)][window_sel];
        let case = Case::new(algorithm_from(algo_sel, algo_raw), grid).window(window);
        let case = case.threads(threads).dominant(n, seed, 1);
        check_parity(&case, &[Path::Batch, Path::Stream, Path::Loopback]);
    }
}
