//! # luqr-tile — tiled matrices and data distribution
//!
//! The data substrate of the hybrid LU-QR solver:
//!
//! * [`matrix::TiledMatrix`] — a dense matrix cut into independently
//!   lockable `nb x nb` tiles (ragged borders supported), with right-hand
//!   side augmentation for the factor-then-solve workflow of the paper.
//! * [`layout::Grid`] — the virtual `p x q` process grid with 2D
//!   block-cyclic ownership and the *diagonal domain* computation at the
//!   heart of the algorithm's communication avoidance.
//! * [`gallery`] — the random and special test matrices of the paper's
//!   Table III, plus the Fiedler matrix of Section V-C.

pub mod gallery;
pub mod layout;
pub mod matrix;

pub use layout::Grid;
pub use matrix::{TileRef, TiledMatrix};
