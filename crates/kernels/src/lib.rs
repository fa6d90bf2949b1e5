//! # luqr-kernels — dense tile kernels for the hybrid LU-QR solver
//!
//! Pure-Rust implementations of the LAPACK/PLASMA tile kernels that the
//! LU-QR hybrid factorization of Faverge et al. (IPDPS 2014) is built from:
//!
//! | paper kernel | here | cost (nb³ units, Table I) |
//! |---|---|---|
//! | GETRF  | [`lu::getrf`]                       | 2/3 |
//! | TRSM   | [`blas::trsm`]                      | 1   |
//! | GEMM   | [`blas::gemm`]                      | 2   |
//! | GEQRT  | [`qr::geqrt`]                       | 4/3 |
//! | UNMQR  | [`qr::unmqr`]                       | 2   |
//! | TSQRT  | [`qr::tpqrt`] with `l = 0`          | 2   |
//! | TSMQR  | [`qr::tpmqrt`] with `l = 0`         | 4   |
//! | TTQRT  | [`qr::tpqrt`] with `l = n`          | 2/3 |
//! | TTMQR  | [`qr::tpmqrt`] with `l = n`         | 2   |
//! | TSTRF / GESSM / SSSSM (IncPiv) | [`incpiv`]  | —   |
//!
//! Every kernel reports its floating-point operations to the global counters
//! in [`flops`], keyed by kernel class, which is how the repository verifies
//! Table I and costs tasks in the platform simulator.
//!
//! All matrices are column-major `f64` ([`mat::Mat`]); kernels accept
//! arbitrary (compatible) rectangular shapes so that ragged border tiles and
//! right-hand-side tile columns work without special cases.

pub mod blas;
pub mod flops;
pub mod gemm_kernel;
pub mod incpiv;
pub mod lu;
pub mod mat;
pub mod norm_est;
pub mod qr;

pub use blas::{Diag, Side, Trans, UpLo};
pub use lu::KernelError;
pub use mat::Mat;
pub use qr::{TFactor, DEFAULT_IB};

/// Bitwise equality of two slices, for the tests that hold one code path to
/// the bits of another (`==` would let `-0.0 == 0.0` and reject NaN).
#[cfg(test)]
pub(crate) fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}
