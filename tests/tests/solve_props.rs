//! Property tests for the tile-native back-substitution
//! (`luqr::solve::back_substitute`) against the dense solve it replaced
//! ([`luqr_tests::solve_ref`]).
//!
//! Two backward-stable solves of `U x = c` each satisfy
//! `(U + ΔU) x̂ = c` with `|ΔU| ≤ γ |U|` componentwise, whatever order they
//! sum in (Higham, Theorem 8.5). Subtracting the two perturbed systems
//! gives the condition-independent comparison used here:
//!
//! ```text
//! |U (x̂_tile − x̂_dense)| ≤ γ · |U| (|x̂_tile| + |x̂_dense|)
//! ```
//!
//! Everything below `U`'s diagonal — the strictly lower triangle of every
//! diagonal tile and every tile under it — holds other kernels' data after
//! a factorization and is poisoned with NaN: none of it may reach `x`.

use luqr::solve::back_substitute;
use luqr_kernels::Mat;
use luqr_tests::solve_ref::back_substitute_dense;
use luqr_tests::{gemm_componentwise_bound, EPS};
use luqr_tile::TiledMatrix;
use proptest::prelude::*;

/// `[U | c]` as the factorizations leave it, NaN wherever `U` is not.
fn factored(n: usize, nrhs: usize, seed: u64) -> (Mat, Mat) {
    let rand = Mat::random(n, n, seed);
    let a = Mat::from_fn(n, n, |i, j| {
        if i > j {
            f64::NAN
        } else if i == j {
            1.0 + rand[(i, i)].abs()
        } else {
            rand[(i, j)]
        }
    });
    (a, Mat::random(n, nrhs, seed ^ 0xc))
}

/// `[a | c]` tiled with the right-hand side on a fresh tile column (what the
/// factorizations work on), or uniformly, where it shares `a`'s last tile
/// column unless `nb` divides `n`.
fn tiled(a: &Mat, c: &Mat, nb: usize, uniform: bool) -> TiledMatrix {
    if uniform {
        let (n, nrhs) = (a.rows(), c.cols());
        let full = Mat::from_fn(
            n,
            n + nrhs,
            |i, j| if j < n { a[(i, j)] } else { c[(i, j - n)] },
        );
        TiledMatrix::from_dense(&full, nb)
    } else {
        TiledMatrix::from_dense_augmented(a, c, nb)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn tile_native_solve_matches_the_dense_reference(
        n in 1usize..70,
        nb in prop_oneof![Just(1usize), Just(2), Just(7), Just(16)],
        rhs_shape in 0usize..4,
        uniform in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Up to enough right-hand sides to span more than one tile column.
        let nrhs = [1, 2, 3, nb + 1][rhs_shape];
        let (a, c) = factored(n, nrhs, seed);
        let aug = tiled(&a, &c, nb, uniform);

        let x = back_substitute(&aug, n, nrhs);
        prop_assert_eq!(x.dims(), (n, nrhs));
        prop_assert!(x.all_finite(), "NaN from below the diagonal reached x");

        let x_ref = back_substitute_dense(&aug.to_dense(), n, nrhs);
        let bound = 2.0 * gemm_componentwise_bound(n);
        for j in 0..nrhs {
            for i in 0..n {
                let (mut s, mut mag) = (0.0, 0.0);
                for p in i..n {
                    s += a[(i, p)] * (x[(p, j)] - x_ref[(p, j)]);
                    mag += a[(i, p)].abs() * (x[(p, j)].abs() + x_ref[(p, j)].abs());
                }
                prop_assert!(
                    s.abs() <= bound * mag + EPS,
                    "row {i}, rhs {j}: |U dx| = {} over the model's {} (n={n}, nb={nb})",
                    s.abs(),
                    bound * mag
                );
            }
        }
    }
}

/// An exactly representable system solves exactly, in every tiling: the
/// tile walk visits the right tiles in the right order.
#[test]
fn exact_system_solves_exactly_in_every_tiling() {
    let n = 23;
    // U is all ones on and above the diagonal, x small integers, so c is
    // their suffix sums: every intermediate is an exact small integer.
    let u = Mat::from_fn(n, n, |i, j| if i <= j { 1.0 } else { f64::NAN });
    let x_true = Mat::from_fn(n, 3, |i, j| ((i + 2 * j) % 5) as f64 - 2.0);
    let c = Mat::from_fn(n, 3, |i, j| (i..n).map(|p| x_true[(p, j)]).sum());
    for nb in [1, 2, 5, 7, 16, 23, 40] {
        for uniform in [false, true] {
            let aug = tiled(&u, &c, nb, uniform);
            assert_eq!(
                back_substitute(&aug, n, 3),
                x_true,
                "nb = {nb}, uniform = {uniform}"
            );
        }
    }
}
