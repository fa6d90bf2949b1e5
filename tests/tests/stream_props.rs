//! Property tests for the streaming runtime: for random systems, all ten
//! algorithm combos, window sizes (1, 2, N) and thread counts, streaming —
//! locally and as loopback ranks — is bitwise the batch path, the window
//! bounds live steps and live tasks, and the ranks route the batch graph's
//! replay ([`luqr_tests::paths::check_parity`]).

use luqr_tests::paths::{algorithm_from, check_parity, Case, Path};
use luqr_tile::Grid;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streaming never changes the bits, whatever the window or thread
    /// count, and never materializes more than `window` steps' tasks.
    #[test]
    fn streaming_is_bitwise_batch_and_window_bounded(
        seed in any::<u64>(),
        n in 24usize..56,
        window_sel in 0usize..3,
        threads in 1usize..5,
        algo_sel in 0usize..10,
        algo_raw in any::<u64>(),
        two_d_grid in any::<bool>(),
    ) {
        let grid = if two_d_grid { Grid::new(2, 2) } else { Grid::single() };
        let window = [1, 2, n.div_ceil(8)][window_sel];
        let case = Case::new(algorithm_from(algo_sel, algo_raw), grid).window(window);
        let case = case.threads(threads).dominant(n, seed, 1);
        check_parity(&case, &[Path::Batch, Path::Stream, Path::Loopback]);
    }
}
