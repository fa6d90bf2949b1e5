//! Dense reference for the back-substitution.
//!
//! This is the solve `luqr::solve::back_substitute` ran before it moved onto
//! the tiles: gather the factored augmented matrix into one dense buffer,
//! copy its upper triangle out through a per-element mask, and hand the
//! whole `n × n` triangle to one dense `trsm`. Only the property tests use
//! it.

use luqr_kernels::blas::{trsm, Diag, Side, Trans, UpLo};
use luqr_kernels::Mat;

/// Solve `U x = c` for the dense factored augmented matrix `[U | c]`
/// (`n × (n + nrhs)`, anything below `U`'s diagonal ignored).
pub fn back_substitute_dense(aug: &Mat, n: usize, nrhs: usize) -> Mat {
    assert_eq!(aug.dims(), (n, n + nrhs), "augmented shape mismatch");
    let u = Mat::from_fn(n, n, |i, j| if i <= j { aug[(i, j)] } else { 0.0 });
    let mut x = aug.sub(0, n, n, nrhs);
    trsm(
        Side::Left,
        UpLo::Upper,
        Trans::NoTrans,
        Diag::NonUnit,
        1.0,
        &u,
        &mut x,
    );
    x
}
