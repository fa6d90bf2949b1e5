//! Triangular solve after factorization.
//!
//! The paper's approach (Section II-D1): the right-hand side is appended to
//! `A` and every elimination transformation is applied to the augmented
//! matrix, so after the factorization only an `N x N` triangular solve
//! remains. Both LU and QR steps leave the transformed matrix upper
//! triangular (tile row `k` finalized at step `k`), so a single
//! back-substitution recovers `x` regardless of which steps were LU and
//! which were QR.
//!
//! The solve is an `O(n²)` stage next to the `O(n³)` factorization, so it
//! runs on the tiles where they lie: tile columns last to first, each
//! diagonal tile solved from its upper triangle, each tile above it
//! streamed once through a column update of the solution. Nothing below
//! the diagonal is read — those tiles hold whatever the eliminations left
//! there (L factors, Householder vectors).

use luqr_kernels::blas::{trsm, Diag, Side, Trans, UpLo};
use luqr_kernels::flops::{add_flops, gemm_flops, KernelClass};
use luqr_kernels::gemm_kernel::gemm_strided;
use luqr_kernels::Mat;
use luqr_tile::TiledMatrix;

/// Back-substitute the factored augmented matrix: solves `U x = c` where
/// `U` is the upper triangle of the first `n` columns and `c` the trailing
/// `nrhs` columns. Returns the `n x nrhs` solution.
///
/// The first `n` columns of `aug` must be tiled like its rows (tile column
/// `k` starts at column `k * nb`), as every constructor but a hand-written
/// [`TiledMatrix::with_col_starts`] lays them out. The right-hand side may
/// start on a tile boundary (the layout the factorizations work on) or
/// share the last tile column with `U` (a uniform tiling of `[U | c]`).
///
/// Zero diagonal entries produce `inf`/`NaN` in the solution (LAPACK
/// semantics) rather than an error: the factorization's `error` already
/// names the first of them (or the zero pivot that caused it).
pub fn back_substitute(aug: &TiledMatrix, n: usize, nrhs: usize) -> Mat {
    assert_eq!(aug.n(), n + nrhs, "augmented width mismatch");
    assert_eq!(aug.m(), n, "factored matrix must be square");
    let (nb, nt_a) = (aug.nb(), aug.mt());
    assert!(
        nt_a <= aug.nt()
            && (0..nt_a).all(|k| aug.col_start(k) == k * nb)
            && aug.col_start(nt_a) >= n,
        "the first n columns must be tiled like the rows"
    );

    // x starts as c, gathered from the tile columns that reach past U.
    let mut x = Mat::zeros(n, nrhs);
    if nrhs == 0 {
        return x;
    }
    for j in nt_a - 1..aug.nt() {
        let skip = n.saturating_sub(aug.col_start(j));
        for i in 0..nt_a {
            let tile = aug.tile(i, j);
            let t = tile.lock();
            for c in skip..t.cols() {
                let xc = x.col_mut(aug.col_start(j) + c - n);
                xc[i * nb..i * nb + t.rows()].copy_from_slice(t.col(c));
            }
        }
    }

    for k in (0..nt_a).rev() {
        // The block of x being solved, staged out of x's interleaved columns
        // so the updates above it can read it while they write x.
        let (r0, d) = (k * nb, aug.tile_rows(k));
        let mut xk = x.sub(r0, 0, d, nrhs);
        {
            let tile = aug.tile(k, k);
            let t = tile.lock();
            // Only the last diagonal tile can be wider than it is tall:
            // when right-hand-side columns share it.
            let head;
            let ukk = if t.cols() == d {
                &*t
            } else {
                head = t.sub(0, 0, d, d);
                &head
            };
            trsm(
                Side::Left,
                UpLo::Upper,
                Trans::NoTrans,
                Diag::NonUnit,
                1.0,
                ukk,
                &mut xk,
            );
        }
        x.set_sub(r0, 0, &xk);

        // x_i -= U_ik x_k for every tile above the diagonal one.
        for i in 0..k {
            let tile = aug.tile(i, k);
            let t = tile.lock();
            gemm_strided(
                nb,
                nrhs,
                d,
                -1.0,
                t.as_slice(),
                1,
                nb,
                xk.as_slice(),
                1,
                d,
                &mut x.as_mut_slice()[i * nb..],
                n,
            );
            add_flops(KernelClass::Gemm, gemm_flops(nb, nrhs, d));
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use luqr_kernels::blas::gemm;

    #[test]
    fn solves_explicit_triangular_system() {
        let n = 24;
        let mut u = Mat::random(n, n, 9).upper_triangular();
        for i in 0..n {
            u[(i, i)] += 3.0; // well conditioned
        }
        let x_true = Mat::random(n, 2, 10);
        let mut c = Mat::zeros(n, 2);
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            &u,
            &x_true,
            0.0,
            &mut c,
        );
        // Assemble [U | c] — garbage below the diagonal must be ignored.
        let mut full = Mat::random(n, n + 2, 11);
        for i in 0..n {
            for j in 0..n {
                if i <= j {
                    full[(i, j)] = u[(i, j)];
                }
            }
            for j in 0..2 {
                full[(i, n + j)] = c[(i, j)];
            }
        }
        // Uniform tiling: the last tile column holds U's last three columns
        // and both right-hand sides.
        let aug = TiledMatrix::from_dense(&full, 7);
        let x = back_substitute(&aug, n, 2);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn zero_diagonal_floods_nan() {
        let n = 4;
        let mut full = Mat::eye(n);
        full[(1, 1)] = 0.0;
        let mut aug = Mat::zeros(n, n + 1);
        aug.set_sub(0, 0, &full);
        for i in 0..n {
            aug[(i, n)] = 1.0;
        }
        let t = TiledMatrix::from_dense(&aug, 2);
        let x = back_substitute(&t, n, 1);
        assert!(!x.all_finite());
    }

    #[test]
    fn no_right_hand_side_gives_an_empty_solution() {
        let t = TiledMatrix::from_dense(&Mat::eye(5), 2);
        assert_eq!(back_substitute(&t, 5, 0).dims(), (5, 0));
    }
}
