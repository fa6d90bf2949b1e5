//! Column-major dense matrix storage.
//!
//! `Mat` is the storage unit for every tile manipulated by the solver. It is
//! deliberately minimal: an owned, column-major `m x n` buffer of `f64` with
//! the access patterns the kernels need (column slices, sub-block copies,
//! norms). All BLAS/LAPACK-like operations live in the sibling modules and
//! operate on `&Mat`/`&mut Mat`.
//!
//! # Alignment
//!
//! The buffer of a `Mat` starts on a cache line (`as_slice().as_ptr()` is a
//! multiple of `ALIGN` = 64 bytes), whoever built it and however — `zeros`,
//! `from_fn`, `clone`, `sub`, a tile decoded off the wire, a scratch matrix
//! regrown by `reset_zeroed` / `reset_stacked`. The kernels address a tile
//! in 64-byte vectors of eight rows; when the row count is a multiple of
//! eight (16- and 96-row tiles) every column then starts on a line and no
//! vector load or store of the register tile straddles two. It is a
//! performance invariant only: no kernel's result depends on an address
//! (`results_do_not_depend_on_alignment` in `gemm_kernel` and `qr`).
//!
//! The line is found inside an ordinary allocation: a `Mat` is still one
//! allocation, of `8·m·n` + `SLACK` = 48 bytes at the allocator's own
//! 16-byte alignment, and the buffer starts at the first line boundary in
//! it. Asking the allocator for the alignment instead
//! (`Layout::from_size_align(8·m·n, 64)`) costs no padding but goes through
//! `posix_memalign`, which on this glibc (2.36) over-allocates and splits
//! every request, cannot hand a freed tile back to the next tile-sized
//! request, and zero-fills by `memset` where `calloc` would map fresh pages:
//! measured on the benchmark, peak RSS +2.9 MB on `lu-dominant` and +1.0 MB
//! on `hybrid-mixed`, against +0.0 for the slack. A matrix without entries
//! allocates nothing.

use std::alloc::{self, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Alignment in bytes of every [`Mat`] buffer and of the kernels'
/// thread-local workspaces: one cache line, one 8-lane vector of `f64`.
pub(crate) const ALIGN: usize = 64;

/// Alignment requested from the allocator: what `malloc` gives unasked, so
/// the request stays on its plain path (module docs).
const BASE_ALIGN: usize = 16;

/// Bytes added to every allocation so that a line boundary lies within
/// `SLACK` bytes of its `BASE_ALIGN`-aligned start.
const SLACK: usize = ALIGN - BASE_ALIGN;

/// An owned `f64` buffer aligned to [`ALIGN`] bytes: the part of `Vec<f64>`
/// that [`Mat`] and the kernels' workspaces use, with the alignment `Vec`
/// cannot ask for. Dereferences to its `len` initialised entries.
///
/// Invariant: `cap == 0`, `pad == 0` and `ptr` dangles (nothing is
/// allocated), or `ptr − pad` bytes is a live allocation of
/// `Self::layout(cap)` with `pad <= SLACK`; `ptr` is a multiple of `ALIGN`
/// and its first `len <= cap` entries are initialised.
pub(crate) struct AlignedBuf {
    ptr: NonNull<f64>,
    len: usize,
    cap: usize,
    /// Bytes from the start of the allocation to `ptr`.
    pad: usize,
}

// SAFETY: an `AlignedBuf` owns its allocation exclusively, as a `Vec<f64>`
// does, and `f64` is `Send + Sync`: moving it moves the only pointer, and
// `&AlignedBuf` gives out only `&[f64]`.
unsafe impl Send for AlignedBuf {}
// SAFETY: as above.
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// An empty buffer; allocates nothing.
    pub(crate) const fn new() -> Self {
        AlignedBuf {
            // Dangling but aligned, so even an empty slice starts on a line.
            ptr: NonNull::without_provenance(std::num::NonZero::new(ALIGN).unwrap()),
            len: 0,
            cap: 0,
            pad: 0,
        }
    }

    fn layout(cap: usize) -> Layout {
        cap.checked_mul(std::mem::size_of::<f64>())
            .and_then(|bytes| bytes.checked_add(SLACK))
            .and_then(|bytes| Layout::from_size_align(bytes, BASE_ALIGN).ok())
            .expect("matrix buffer: capacity overflow")
    }

    /// An empty buffer with room for `cap` entries.
    fn with_capacity(cap: usize) -> Self {
        Self::allocate(cap, false)
    }

    /// `len` entries of `+0.0`.
    fn zeroed(len: usize) -> Self {
        let mut buf = Self::allocate(len, true);
        buf.len = len;
        buf
    }

    fn allocate(cap: usize, zeroed: bool) -> Self {
        if cap == 0 {
            return Self::new();
        }
        let layout = Self::layout(cap);
        // SAFETY: `layout` has a non-zero size.
        let raw = unsafe {
            if zeroed {
                alloc::alloc_zeroed(layout)
            } else {
                alloc::alloc(layout)
            }
        };
        if raw.is_null() {
            alloc::handle_alloc_error(layout)
        }
        // `raw` is a multiple of `BASE_ALIGN`, which divides `ALIGN`, so the
        // next line boundary is at most `SLACK` bytes on.
        let pad = raw.addr().next_multiple_of(ALIGN) - raw.addr();
        // SAFETY: `pad <= SLACK`, and the allocation is `SLACK` bytes longer
        // than the `cap` entries that follow `ptr`; a pointer into a live
        // allocation is not null.
        let ptr = unsafe { NonNull::new_unchecked(raw.add(pad).cast::<f64>()) };
        AlignedBuf {
            ptr,
            len: 0,
            cap,
            pad,
        }
    }

    fn from_slice(src: &[f64]) -> Self {
        let mut buf = Self::with_capacity(src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Forget the contents and make room for `cap` entries. Capacity only
    /// grows, at least doubling like `Vec`'s, so a workspace that is reset
    /// to creeping sizes reallocates a logarithmic number of times.
    fn clear_reserve(&mut self, cap: usize) {
        self.len = 0;
        if cap > self.cap {
            let grown = cap.max(self.cap.saturating_mul(2));
            // Nothing to carry over: release first, so the two blocks are
            // never live together.
            *self = Self::new();
            *self = Self::with_capacity(grown);
        }
    }

    /// Forget the contents and become `len` entries of `+0.0`, reusing the
    /// allocation when it is large enough.
    pub(crate) fn reset_zeroed(&mut self, len: usize) {
        self.clear_reserve(len);
        // SAFETY: `clear_reserve` left room for `len` entries, and the
        // all-zero byte pattern is `+0.0`.
        unsafe { self.ptr.as_ptr().write_bytes(0, len) };
        self.len = len;
    }

    fn push(&mut self, x: f64) {
        assert!(self.len < self.cap, "matrix buffer: push past capacity");
        // SAFETY: entry `len` is inside the allocation of `cap` entries.
        unsafe { self.ptr.as_ptr().add(self.len).write(x) };
        self.len += 1;
    }

    fn extend_from_slice(&mut self, src: &[f64]) {
        assert!(
            src.len() <= self.cap - self.len,
            "matrix buffer: extend past capacity"
        );
        // SAFETY: entries `len .. len + src.len()` are inside the allocation
        // (the assert), and `src` cannot overlap a buffer `self` borrows
        // mutably.
        unsafe {
            let tail = self.ptr.as_ptr().add(self.len);
            std::ptr::copy_nonoverlapping(src.as_ptr(), tail, src.len());
        }
        self.len += src.len();
    }
}

impl Default for AlignedBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: by the invariant the allocation starts `pad` bytes
            // before `ptr` and was made with this layout.
            unsafe {
                let raw = self.ptr.as_ptr().cast::<u8>().sub(self.pad);
                alloc::dealloc(raw, Self::layout(self.cap));
            }
        }
    }
}

impl Deref for AlignedBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        // SAFETY: `ptr` is aligned and non-null, its first `len` entries are
        // initialised and live as long as `self` is borrowed.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as `deref`, and `&mut self` makes the borrow exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Owned column-major `m x n` matrix of `f64`.
///
/// Element `(i, j)` lives at `data[j * m + i]`. The leading dimension always
/// equals the row count (tiles are stored contiguously), and the buffer
/// starts on a cache line (module docs).
#[derive(Clone, PartialEq)]
pub struct Mat {
    m: usize,
    n: usize,
    data: AlignedBuf,
}

impl Mat {
    /// `m x n` matrix of zeros.
    pub fn zeros(m: usize, n: usize) -> Self {
        Mat {
            m,
            n,
            data: AlignedBuf::zeroed(m * n),
        }
    }

    /// `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 1.0;
        }
        a
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(m: usize, n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = AlignedBuf::with_capacity(m * n);
        for j in 0..n {
            for i in 0..m {
                data.push(f(i, j));
            }
        }
        Mat { m, n, data }
    }

    /// Build from a column-major slice (`data.len() == m * n`).
    pub fn from_col_major(m: usize, n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), m * n, "column-major buffer has wrong length");
        Mat {
            m,
            n,
            data: AlignedBuf::from_slice(data),
        }
    }

    /// Build from rows given in row-major order (convenient in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let m = rows.len();
        let n = if m == 0 { 0 } else { rows[0].len() };
        for r in rows {
            assert_eq!(r.len(), n, "ragged row list");
        }
        Mat::from_fn(m, n, |i, j| rows[i][j])
    }

    /// Deterministic uniform random matrix in `[-1, 1]`.
    pub fn random(m: usize, n: usize, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Mat::from_fn(m, n, |_, _| rng.random_range(-1.0..1.0))
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.m
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.n
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// True when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.m == 0 || self.n == 0
    }

    /// Raw column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.n);
        &self.data[j * self.m..(j + 1) * self.m]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.n);
        &mut self.data[j * self.m..(j + 1) * self.m]
    }

    /// Two distinct mutable columns at once (for column swaps / updates).
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert!(j1 != j2 && j1 < self.n && j2 < self.n);
        let m = self.m;
        let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
        let (head, tail) = self.data.split_at_mut(hi * m);
        let a = &mut head[lo * m..lo * m + m];
        let b = &mut tail[..m];
        if j1 < j2 {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Set all entries to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Reshape in place to `m x n`, zero-filled, reusing the allocation
    /// (capacity grows monotonically; scratch buffers stay warm across
    /// calls instead of cycling through the allocator).
    pub fn reset_zeroed(&mut self, m: usize, n: usize) {
        self.m = m;
        self.n = n;
        self.data.reset_zeroed(m * n);
    }

    /// Reshape in place to the vertical stack of `parts` (which must share
    /// a column count), reusing the allocation. Every entry is written by
    /// the copy, so no zero fill is needed.
    pub fn reset_stacked(&mut self, parts: &[&Mat]) {
        let n = parts[0].n;
        let m: usize = parts.iter().map(|p| p.m).sum();
        debug_assert!(
            parts.iter().all(|p| p.n == n),
            "reset_stacked: ragged widths"
        );
        self.m = m;
        self.n = n;
        self.data.clear_reserve(m * n);
        for j in 0..n {
            for p in parts {
                self.data.extend_from_slice(p.col(j));
            }
        }
    }

    /// Copy the full contents of `src` (same dims required).
    pub fn copy_from(&mut self, src: &Mat) {
        assert_eq!(self.dims(), src.dims(), "copy_from dimension mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// Extract the sub-block `rows x cols` starting at `(i0, j0)`.
    pub fn sub(&self, i0: usize, j0: usize, rows: usize, cols: usize) -> Mat {
        assert!(
            i0 + rows <= self.m && j0 + cols <= self.n,
            "sub out of range"
        );
        let mut data = AlignedBuf::with_capacity(rows * cols);
        for j in 0..cols {
            data.extend_from_slice(&self.col(j0 + j)[i0..i0 + rows]);
        }
        Mat {
            m: rows,
            n: cols,
            data,
        }
    }

    /// Write `block` into `self` at offset `(i0, j0)`.
    pub fn set_sub(&mut self, i0: usize, j0: usize, block: &Mat) {
        assert!(
            i0 + block.m <= self.m && j0 + block.n <= self.n,
            "set_sub out of range"
        );
        for j in 0..block.n {
            let dst = j0 + j;
            let src_col = block.col(j);
            self.data[dst * self.m + i0..dst * self.m + i0 + block.m].copy_from_slice(src_col);
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.n, self.m, |i, j| self[(j, i)])
    }

    /// Upper-triangular copy (entries strictly below the diagonal zeroed).
    pub fn upper_triangular(&self) -> Mat {
        Mat::from_fn(
            self.m,
            self.n,
            |i, j| if i <= j { self[(i, j)] } else { 0.0 },
        )
    }

    /// Unit-lower-triangular copy (ones on the diagonal, zeros above).
    pub fn unit_lower_triangular(&self) -> Mat {
        Mat::from_fn(self.m, self.n, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// 1-norm: maximum absolute column sum.
    pub fn norm_one(&self) -> f64 {
        (0..self.n)
            .map(|j| self.col(j).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Infinity norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> f64 {
        let mut row_sums = vec![0.0f64; self.m];
        for j in 0..self.n {
            for (i, &v) in self.col(j).iter().enumerate() {
                row_sums[i] += v.abs();
            }
        }
        row_sums.into_iter().fold(0.0, f64::max)
    }

    /// Max norm: largest absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry of column `j` restricted to rows `i0..`.
    pub fn col_max_abs_from(&self, j: usize, i0: usize) -> f64 {
        self.col(j)[i0..]
            .iter()
            .fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// `max |self - other|` over all entries (dims must match).
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.dims(), other.dims());
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0, |acc, (a, b)| acc.max((a - b).abs()))
    }

    /// True when all entries are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.m && j < self.n,
            "index ({i},{j}) out of {:?}",
            self.dims()
        );
        &self.data[j * self.m + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.m && j < self.n,
            "index ({i},{j}) out of {:?}",
            self.dims()
        );
        &mut self.data[j * self.m + i]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.m, self.n)?;
        for i in 0..self.m.min(12) {
            write!(f, "  ")?;
            for j in 0..self.n.min(12) {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.n > 12 { "..." } else { "" })?;
        }
        if self.m > 12 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_column_major() {
        let mut a = Mat::zeros(3, 2);
        a[(2, 1)] = 5.0;
        assert_eq!(a.as_slice()[3 + 2], 5.0);
        assert_eq!(a[(2, 1)], 5.0);
    }

    #[test]
    fn eye_and_from_fn() {
        let i3 = Mat::eye(3);
        let alt = Mat::from_fn(3, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(i3, alt);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.dims(), (3, 2));
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(2, 0)], 5.0);
    }

    #[test]
    fn norms_on_known_matrix() {
        let a = Mat::from_rows(&[&[1.0, -2.0], &[-3.0, 4.0]]);
        assert_eq!(a.norm_one(), 6.0); // col 1: |−2|+|4| = 6
        assert_eq!(a.norm_inf(), 7.0); // row 1: |−3|+|4| = 7
        assert_eq!(a.norm_max(), 4.0);
        assert!((a.norm_fro() - (30.0f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn sub_and_set_sub_roundtrip() {
        let a = Mat::random(6, 5, 42);
        let b = a.sub(1, 2, 3, 2);
        let mut c = Mat::zeros(6, 5);
        c.set_sub(1, 2, &b);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(c[(1 + i, 2 + j)], a[(1 + i, 2 + j)]);
            }
        }
        assert_eq!(c[(0, 0)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::random(4, 7, 7);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn two_cols_mut_disjoint() {
        let mut a = Mat::from_fn(3, 3, |i, j| (i + 10 * j) as f64);
        let (c0, c2) = a.two_cols_mut(0, 2);
        std::mem::swap(&mut c0[1], &mut c2[1]);
        assert_eq!(a[(1, 0)], 21.0);
        assert_eq!(a[(1, 2)], 1.0);
    }

    #[test]
    fn random_is_deterministic() {
        assert_eq!(Mat::random(5, 5, 3), Mat::random(5, 5, 3));
        assert_ne!(Mat::random(5, 5, 3), Mat::random(5, 5, 4));
    }

    #[test]
    fn triangular_copies() {
        let a = Mat::random(4, 4, 1);
        let u = a.upper_triangular();
        let l = a.unit_lower_triangular();
        for i in 0..4 {
            for j in 0..4 {
                if i <= j {
                    assert_eq!(u[(i, j)], a[(i, j)]);
                    if i == j {
                        assert_eq!(l[(i, j)], 1.0);
                    } else {
                        assert_eq!(l[(i, j)], 0.0);
                    }
                } else {
                    assert_eq!(u[(i, j)], 0.0);
                    assert_eq!(l[(i, j)], a[(i, j)]);
                }
            }
        }
    }

    fn assert_aligned(what: &str, a: &Mat) {
        assert_eq!(
            a.as_slice().as_ptr().addr() % ALIGN,
            0,
            "{what}: a {}x{} buffer off its cache line",
            a.rows(),
            a.cols()
        );
    }

    /// The alignment invariant, through every way a buffer comes to be. Odd
    /// sizes in a row, so consecutive requests land at every offset the
    /// allocator has.
    #[test]
    fn every_buffer_starts_on_a_cache_line() {
        let mut keep = Vec::new();
        for (m, n) in [(1, 1), (3, 5), (16, 16), (7, 9), (96, 96), (5, 1), (33, 2)] {
            let r = Mat::random(m, n, (m * n) as u64);
            assert_aligned("random", &r);
            assert_aligned("zeros", &Mat::zeros(m, n));
            assert_aligned("eye", &Mat::eye(m));
            assert_aligned("from_fn", &Mat::from_fn(m, n, |i, j| (i + j) as f64));
            assert_aligned("from_col_major", &Mat::from_col_major(m, n, r.as_slice()));
            assert_aligned("clone", &r.clone());
            assert_aligned("sub", &r.sub(m / 2, n / 2, m - m / 2, n - n / 2));
            assert_aligned("transpose", &r.transpose());
            assert_aligned("upper_triangular", &r.upper_triangular());
            keep.push(r); // hold it: the next round must not reuse this block
        }
        // A scratch matrix through growth, shrinkage and regrowth.
        let mut s = Mat::zeros(0, 0);
        for (m, n) in [(3, 3), (40, 7), (2, 2), (96, 96), (5, 5), (97, 96)] {
            s.reset_zeroed(m, n);
            assert_aligned("reset_zeroed", &s);
            assert_eq!(s.dims(), (m, n));
            assert!(s.as_slice().iter().all(|x| x.to_bits() == 0));
            s.fill(f64::NAN); // the next reset must not keep any of this
        }
        for parts in [&keep[..2], &keep[3..4], &keep[..1]] {
            let parts: Vec<Mat> = parts.iter().map(|p| p.sub(0, 0, p.rows(), 1)).collect();
            s.reset_stacked(&parts.iter().collect::<Vec<_>>());
            assert_aligned("reset_stacked", &s);
            let stacked: Vec<f64> = parts.iter().flat_map(|p| p.col(0).to_vec()).collect();
            assert_eq!(s.as_slice(), &stacked[..]);
        }
    }

    /// A matrix without entries owns no allocation, whichever dimension is
    /// zero and however it was made, and can still be used and dropped.
    #[test]
    fn empty_matrices_allocate_nothing() {
        let empties = [
            Mat::zeros(0, 0),
            Mat::zeros(0, 7),
            Mat::zeros(7, 0),
            Mat::from_fn(0, 3, |_, _| unreachable!()),
            Mat::from_col_major(4, 0, &[]),
            Mat::random(0, 0, 1),
            Mat::zeros(0, 5).clone(),
            Mat::zeros(5, 0).transpose(),
            Mat::random(4, 4, 2).sub(1, 1, 0, 3),
        ];
        for e in &empties {
            assert_eq!(e.data.cap, 0, "{:?} allocated", e.dims());
            assert!(e.is_empty() && e.as_slice().is_empty());
            assert_aligned("empty", e);
            assert_eq!(e.norm_max(), 0.0);
        }
        let mut s = Mat::random(3, 3, 3);
        s.reset_zeroed(0, 9);
        assert!(s.as_slice().is_empty());
        assert_eq!(s, Mat::zeros(0, 9));
    }

    #[test]
    fn col_max_abs_from_skips_rows() {
        let a = Mat::from_rows(&[&[9.0], &[-2.0], &[1.0]]);
        assert_eq!(a.col_max_abs_from(0, 0), 9.0);
        assert_eq!(a.col_max_abs_from(0, 1), 2.0);
    }
}
