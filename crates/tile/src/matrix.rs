//! Tiled matrix storage.
//!
//! A [`TiledMatrix`] is an `M x N` dense matrix cut into tiles: rows are
//! split uniformly by `nb` (ragged last row — the paper's "no restriction
//! on N", Section II-D2), columns follow an explicit list of widths. The
//! explicit column layout lets [`TiledMatrix::augment`] start the
//! right-hand-side columns on a fresh tile boundary even when `N` is not a
//! multiple of `nb`, so every factorization step sees a square diagonal
//! tile.
//!
//! Each tile is an independently lockable [`Mat`] so that runtime tasks
//! operating on disjoint tiles proceed in parallel; the dependency system
//! of `luqr-runtime` guarantees exclusive access — the mutexes exist to
//! keep the data structure sound Rust and are uncontended in correct
//! schedules.

use std::sync::Arc;

use luqr_kernels::Mat;
use parking_lot::Mutex;

/// Shared handle to one tile.
pub type TileRef = Arc<Mutex<Mat>>;

/// Dense matrix stored as a 2D array of tiles (uniform `nb` row tiling with
/// a ragged last row; explicit column tile widths).
pub struct TiledMatrix {
    /// Global row count.
    m: usize,
    /// Global column count.
    n: usize,
    /// Row tile size.
    nb: usize,
    /// Tile rows.
    mt: usize,
    /// Column tile boundaries: `col_starts[j]..col_starts[j+1]` is tile
    /// column `j`; `col_starts.len() == nt + 1`.
    col_starts: Vec<usize>,
    /// Tiles in column-major tile order: tile `(i, j)` at `j * mt + i`.
    tiles: Vec<TileRef>,
}

fn uniform_starts(n: usize, nb: usize) -> Vec<usize> {
    let nt = n.div_ceil(nb);
    let mut s: Vec<usize> = (0..nt).map(|j| j * nb).collect();
    s.push(n);
    s
}

impl TiledMatrix {
    /// Zero matrix of global size `m x n`, uniform `nb` tiling both ways.
    pub fn zeros(m: usize, n: usize, nb: usize) -> Self {
        Self::with_col_starts(m, nb, uniform_starts(n, nb))
    }

    /// Zero matrix with an explicit column-tile layout.
    pub fn with_col_starts(m: usize, nb: usize, col_starts: Vec<usize>) -> Self {
        assert!(nb >= 1, "tile size must be positive");
        assert!(m >= 1, "matrix dimensions must be positive");
        assert!(col_starts.len() >= 2, "need at least one column tile");
        assert_eq!(col_starts[0], 0);
        assert!(
            col_starts.windows(2).all(|w| w[0] < w[1]),
            "column starts must strictly increase"
        );
        let n = *col_starts.last().unwrap();
        let mt = m.div_ceil(nb);
        let nt = col_starts.len() - 1;
        let mut tiles = Vec::with_capacity(mt * nt);
        for j in 0..nt {
            let tn = col_starts[j + 1] - col_starts[j];
            for i in 0..mt {
                let tm = Self::row_dim(i, mt, m, nb);
                tiles.push(Arc::new(Mutex::new(Mat::zeros(tm, tn))));
            }
        }
        TiledMatrix {
            m,
            n,
            nb,
            mt,
            col_starts,
            tiles,
        }
    }

    fn row_dim(idx: usize, count: usize, total: usize, nb: usize) -> usize {
        if idx + 1 == count {
            total - idx * nb
        } else {
            nb
        }
    }

    /// Build from a dense matrix (uniform tiling).
    pub fn from_dense(a: &Mat, nb: usize) -> Self {
        let (m, n) = a.dims();
        Self::build(
            m,
            nb,
            uniform_starts(n, nb),
            |_, _| true,
            |i0, j0, tm, tn| a.sub(i0, j0, tm, tn),
        )
    }

    /// Build tiles directly from a per-tile constructor, with no
    /// intermediate zero fill: `f(row0, col0, tm, tn)` produces the tile
    /// whose top-left global element is `(row0, col0)`, for every tile
    /// `(i, j)` that `keep` selects; the others are left empty (`0 x 0`).
    fn build(
        m: usize,
        nb: usize,
        col_starts: Vec<usize>,
        keep: impl Fn(usize, usize) -> bool,
        mut f: impl FnMut(usize, usize, usize, usize) -> Mat,
    ) -> Self {
        assert!(nb >= 1, "tile size must be positive");
        assert!(m >= 1, "matrix dimensions must be positive");
        let n = *col_starts.last().unwrap();
        let mt = m.div_ceil(nb);
        let nt = col_starts.len() - 1;
        let mut tiles = Vec::with_capacity(mt * nt);
        for j in 0..nt {
            let tn = col_starts[j + 1] - col_starts[j];
            for i in 0..mt {
                let tm = Self::row_dim(i, mt, m, nb);
                let t = if keep(i, j) {
                    let t = f(i * nb, col_starts[j], tm, tn);
                    debug_assert_eq!(t.dims(), (tm, tn));
                    t
                } else {
                    Mat::zeros(0, 0)
                };
                tiles.push(Arc::new(Mutex::new(t)));
            }
        }
        TiledMatrix {
            m,
            n,
            nb,
            mt,
            col_starts,
            tiles,
        }
    }

    /// Build the augmented tiling `[A | rhs]` straight from the dense
    /// inputs — one copy per tile, against `from_dense(..).augment(..)`'s
    /// zero-fill plus tile-clone round trip.
    pub fn from_dense_augmented(a: &Mat, rhs: &Mat, nb: usize) -> Self {
        Self::from_dense_augmented_where(a, rhs, nb, |_, _| true)
    }

    /// [`TiledMatrix::from_dense_augmented`] holding only the tiles
    /// `keep(i, j)` selects — one rank's share of a distributed matrix.
    /// Every other tile is an empty (`0 x 0`) `Mat` until something is
    /// stored into it; dimensions always come from the layout
    /// ([`TiledMatrix::tile_dims`]), never from an absent tile.
    pub fn from_dense_augmented_where(
        a: &Mat,
        rhs: &Mat,
        nb: usize,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Self {
        let (m, n) = a.dims();
        assert_eq!(rhs.rows(), m, "rhs row mismatch");
        let mut col_starts = uniform_starts(n, nb);
        let mut c = n;
        while c < n + rhs.cols() {
            c = (c + nb).min(n + rhs.cols());
            col_starts.push(c);
        }
        Self::build(m, nb, col_starts, keep, |i0, j0, tm, tn| {
            if j0 < n {
                a.sub(i0, j0, tm, tn)
            } else {
                rhs.sub(i0, j0 - n, tm, tn)
            }
        })
    }

    /// Whether tile `(i, j)` is held (see
    /// [`TiledMatrix::from_dense_augmented_where`]).
    pub fn holds_tile(&self, i: usize, j: usize) -> bool {
        self.tile_ref(i, j).lock().dims() == self.tile_dims(i, j)
    }

    /// Build elementwise from a function of global `(row, col)` (uniform
    /// tiling).
    pub fn from_fn(m: usize, n: usize, nb: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let t = TiledMatrix::zeros(m, n, nb);
        for i in 0..t.mt {
            for j in 0..t.nt() {
                let (tm, tn) = t.tile_dims(i, j);
                let c0 = t.col_starts[j];
                let block = Mat::from_fn(tm, tn, |r, c| f(i * nb + r, c0 + c));
                *t.tile(i, j).lock() = block;
            }
        }
        t
    }

    /// Gather into a dense matrix.
    pub fn to_dense(&self) -> Mat {
        let mut a = Mat::zeros(self.m, self.n);
        for i in 0..self.mt {
            for j in 0..self.nt() {
                let tile = self.tile(i, j);
                let g = tile.lock();
                a.set_sub(i * self.nb, self.col_starts[j], &g);
            }
        }
        a
    }

    /// A second handle onto the *same* tiles: the layout is copied, every
    /// tile is shared. What a run context keeps so that its tasks can
    /// reach the tiles by index.
    pub fn share(&self) -> TiledMatrix {
        TiledMatrix {
            m: self.m,
            n: self.n,
            nb: self.nb,
            mt: self.mt,
            col_starts: self.col_starts.clone(),
            tiles: self.tiles.clone(),
        }
    }

    /// Deep copy (fresh tile allocations).
    pub fn deep_clone(&self) -> TiledMatrix {
        let t = TiledMatrix::with_col_starts(self.m, self.nb, self.col_starts.clone());
        for (dst, src) in t.tiles.iter().zip(&self.tiles) {
            *dst.lock() = src.lock().clone();
        }
        t
    }

    /// Global rows.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Global columns.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row tile size.
    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Tile rows.
    #[inline]
    pub fn mt(&self) -> usize {
        self.mt
    }

    /// Tile columns.
    #[inline]
    pub fn nt(&self) -> usize {
        self.col_starts.len() - 1
    }

    /// First global column of tile column `j`.
    pub fn col_start(&self, j: usize) -> usize {
        self.col_starts[j]
    }

    /// Dimensions of tile `(i, j)`.
    pub fn tile_dims(&self, i: usize, j: usize) -> (usize, usize) {
        (self.tile_rows(i), self.tile_cols(j))
    }

    /// Row count of tile row `i`.
    pub fn tile_rows(&self, i: usize) -> usize {
        assert!(i < self.mt, "tile row out of range");
        Self::row_dim(i, self.mt, self.m, self.nb)
    }

    /// Column count of tile column `j`.
    pub fn tile_cols(&self, j: usize) -> usize {
        assert!(j + 1 < self.col_starts.len(), "tile column out of range");
        self.col_starts[j + 1] - self.col_starts[j]
    }

    /// Shared handle to tile `(i, j)`.
    pub fn tile(&self, i: usize, j: usize) -> TileRef {
        Arc::clone(self.tile_ref(i, j))
    }

    /// Tile `(i, j)`, borrowed.
    pub fn tile_ref(&self, i: usize, j: usize) -> &TileRef {
        assert!(i < self.mt && j < self.nt(), "tile index out of range");
        &self.tiles[j * self.mt + i]
    }

    /// Tile column containing global column `gj`.
    fn col_tile_of(&self, gj: usize) -> usize {
        debug_assert!(gj < self.n);
        // col_starts is sorted; find the last start <= gj.
        match self.col_starts.binary_search(&gj) {
            Ok(j) if j < self.nt() => j,
            Ok(j) => j - 1,
            Err(j) => j - 1,
        }
    }

    /// Read a single global element (locks a tile; for diagnostics/tests).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let ti = i / self.nb;
        let tj = self.col_tile_of(j);
        let tile = self.tile(ti, tj);
        let g = tile.lock();
        g[(i % self.nb, j - self.col_starts[tj])]
    }

    /// Infinity norm of the whole matrix.
    pub fn norm_inf(&self) -> f64 {
        let mut row_sums = vec![0.0f64; self.m];
        for i in 0..self.mt {
            for j in 0..self.nt() {
                let tile = self.tile(i, j);
                let g = tile.lock();
                for c in 0..g.cols() {
                    for (r, &v) in g.col(c).iter().enumerate() {
                        row_sums[i * self.nb + r] += v.abs();
                    }
                }
            }
        }
        row_sums.into_iter().fold(0.0, f64::max)
    }

    /// Max absolute entry of the whole matrix.
    pub fn norm_max(&self) -> f64 {
        self.tiles
            .iter()
            .map(|t| t.lock().norm_max())
            .fold(0.0, f64::max)
    }

    /// Largest tile 1-norm over the whole matrix (the quantity whose growth
    /// the paper's criteria bound, Section III).
    pub fn max_tile_norm_one(&self) -> f64 {
        self.tiles
            .iter()
            .map(|t| t.lock().norm_one())
            .fold(0.0, f64::max)
    }

    /// Append `rhs` (global rows == `self.m`) as extra tile columns and
    /// return the augmented matrix `[A | rhs]` (paper Section II-D1). The
    /// rhs columns always start on a fresh tile boundary so that every
    /// elimination step keeps a square diagonal tile.
    pub fn augment(&self, rhs: &Mat) -> TiledMatrix {
        assert_eq!(rhs.rows(), self.m, "rhs row mismatch");
        let mut col_starts = self.col_starts.clone();
        let mut c = self.n;
        while c < self.n + rhs.cols() {
            c = (c + self.nb).min(self.n + rhs.cols());
            col_starts.push(c);
        }
        let aug = TiledMatrix::with_col_starts(self.m, self.nb, col_starts);
        // Copy A tiles (row/column layouts coincide on the A part).
        for i in 0..self.mt {
            for j in 0..self.nt() {
                *aug.tile(i, j).lock() = self.tile(i, j).lock().clone();
            }
        }
        // Fill rhs tiles.
        for i in 0..aug.mt {
            for j in self.nt()..aug.nt() {
                let (tm, tn) = aug.tile_dims(i, j);
                let c0 = aug.col_starts[j] - self.n;
                let block = Mat::from_fn(tm, tn, |r, cc| rhs[(i * self.nb + r, c0 + cc)]);
                *aug.tile(i, j).lock() = block;
            }
        }
        aug
    }

    /// Extract global columns `j0..j0+w` as a dense matrix (used to read the
    /// transformed right-hand side back out of an augmented matrix).
    pub fn dense_columns(&self, j0: usize, w: usize) -> Mat {
        assert!(j0 + w <= self.n);
        let mut out = Mat::zeros(self.m, w);
        for c in 0..w {
            let gj = j0 + c;
            let tj = self.col_tile_of(gj);
            let lj = gj - self.col_starts[tj];
            for i in 0..self.mt {
                let tile = self.tile(i, tj);
                let g = tile.lock();
                for r in 0..g.rows() {
                    out[(i * self.nb + r, c)] = g[(r, lj)];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip_exact_tiling() {
        let a = Mat::random(12, 12, 1);
        let t = TiledMatrix::from_dense(&a, 4);
        assert_eq!((t.mt(), t.nt()), (3, 3));
        assert_eq!(t.to_dense(), a);
    }

    #[test]
    fn dense_roundtrip_ragged() {
        // 13 x 10 with nb = 4: border tiles are 1 x 4 / 4 x 2 / 1 x 2.
        let a = Mat::random(13, 10, 2);
        let t = TiledMatrix::from_dense(&a, 4);
        assert_eq!((t.mt(), t.nt()), (4, 3));
        assert_eq!(t.tile_dims(3, 2), (1, 2));
        assert_eq!(t.tile_dims(0, 2), (4, 2));
        assert_eq!(t.tile_dims(3, 0), (1, 4));
        assert_eq!(t.to_dense(), a);
    }

    #[test]
    fn from_fn_matches_dense() {
        let f = |i: usize, j: usize| (i * 31 + j) as f64;
        let t = TiledMatrix::from_fn(9, 7, 4, f);
        let d = Mat::from_fn(9, 7, f);
        assert_eq!(t.to_dense(), d);
        assert_eq!(t.get(8, 6), f(8, 6));
    }

    #[test]
    fn norms_match_dense() {
        let a = Mat::random(17, 11, 3);
        let t = TiledMatrix::from_dense(&a, 5);
        assert!((t.norm_inf() - a.norm_inf()).abs() < 1e-13);
        assert!((t.norm_max() - a.norm_max()).abs() < 1e-15);
    }

    #[test]
    fn augment_appends_rhs() {
        let a = Mat::random(10, 10, 4);
        let b = Mat::random(10, 3, 5);
        let t = TiledMatrix::from_dense(&a, 4);
        let aug = t.augment(&b);
        assert_eq!(aug.n(), 13);
        let d = aug.to_dense();
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(d[(i, j)], a[(i, j)]);
            }
            for j in 0..3 {
                assert_eq!(d[(i, 10 + j)], b[(i, j)]);
            }
        }
        let back = aug.dense_columns(10, 3);
        assert_eq!(back, b);
    }

    #[test]
    fn augment_rhs_lands_in_fresh_tiles_when_n_is_tile_multiple() {
        let a = Mat::random(8, 8, 1);
        let b = Mat::random(8, 1, 2);
        let aug = TiledMatrix::from_dense(&a, 4).augment(&b);
        assert_eq!(aug.nt(), 3);
        assert_eq!(aug.tile_cols(2), 1);
    }

    #[test]
    fn augment_with_ragged_a_starts_fresh_tile_column() {
        // n = 10, nb = 4: A's last tile column is 2 wide, rhs gets its own
        // tile column after it (never mixed into A's tiles).
        let a = Mat::random(10, 10, 7);
        let b = Mat::random(10, 2, 8);
        let aug = TiledMatrix::from_dense(&a, 4).augment(&b);
        assert_eq!(aug.n(), 12);
        assert_eq!(aug.nt(), 4);
        assert_eq!(aug.tile_cols(2), 2); // A's ragged border kept
        assert_eq!(aug.tile_cols(3), 2); // rhs in its own tile column
        assert_eq!(aug.col_start(3), 10);
        let d = aug.to_dense();
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(d[(i, j)], a[(i, j)]);
            }
            for j in 0..2 {
                assert_eq!(d[(i, 10 + j)], b[(i, j)]);
            }
        }
        assert_eq!(aug.dense_columns(10, 2), b);
    }

    #[test]
    fn augment_wide_rhs_splits_into_nb_chunks() {
        let a = Mat::random(8, 8, 9);
        let b = Mat::random(8, 10, 10);
        let aug = TiledMatrix::from_dense(&a, 4).augment(&b);
        assert_eq!(aug.nt(), 2 + 3); // rhs: 4 + 4 + 2
        assert_eq!(aug.tile_cols(4), 2);
        assert_eq!(aug.dense_columns(8, 10), b);
    }

    #[test]
    fn a_share_holds_the_selected_tiles_and_the_full_layout() {
        // n = 10, nb = 4, three right-hand sides: tile columns 4, 4, 2 | 3.
        let a = Mat::random(10, 10, 11);
        let b = Mat::random(10, 3, 12);
        let full = TiledMatrix::from_dense_augmented(&a, &b, 4);
        let mine = |i: usize, j: usize| (i + j) % 2 == 1;
        let share = TiledMatrix::from_dense_augmented_where(&a, &b, 4, mine);
        assert_eq!((share.mt(), share.nt()), (full.mt(), full.nt()));
        for i in 0..full.mt() {
            for j in 0..full.nt() {
                assert_eq!(share.tile_dims(i, j), full.tile_dims(i, j));
                assert_eq!(share.holds_tile(i, j), mine(i, j), "tile ({i},{j})");
                if mine(i, j) {
                    assert_eq!(*share.tile(i, j).lock(), *full.tile(i, j).lock());
                } else {
                    assert_eq!(share.tile(i, j).lock().dims(), (0, 0));
                }
            }
        }
        assert!(full.holds_tile(2, 3));
    }

    #[test]
    fn deep_clone_is_independent() {
        let t = TiledMatrix::from_dense(&Mat::random(6, 6, 9), 3);
        let c = t.deep_clone();
        t.tile(0, 0).lock()[(0, 0)] = 999.0;
        assert_ne!(c.get(0, 0), 999.0);
    }

    #[test]
    fn max_tile_norm_one() {
        let t = TiledMatrix::from_fn(4, 4, 2, |i, j| if i < 2 && j < 2 { 1.0 } else { 0.25 });
        assert_eq!(t.max_tile_norm_one(), 2.0);
    }

    #[test]
    fn col_tile_lookup() {
        let t = TiledMatrix::with_col_starts(4, 4, vec![0, 4, 6, 11]);
        assert_eq!(t.nt(), 3);
        assert_eq!(t.tile_cols(1), 2);
        assert_eq!(t.col_tile_of(0), 0);
        assert_eq!(t.col_tile_of(3), 0);
        assert_eq!(t.col_tile_of(4), 1);
        assert_eq!(t.col_tile_of(5), 1);
        assert_eq!(t.col_tile_of(6), 2);
        assert_eq!(t.col_tile_of(10), 2);
    }
}
