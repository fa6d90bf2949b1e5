//! Floating-point operation accounting.
//!
//! The paper's Table I expresses the cost of each tile kernel in units of
//! `nb^3` flops (LU factor 2/3, QR factor 4/3, TRSM 1, TSQRT 2, GEMM 2,
//! TSMQR 4, ...). To verify those constants experimentally — and to feed the
//! platform simulator with per-task costs — every kernel in this crate
//! reports the flops it performs to a set of global counters, keyed by
//! kernel class.
//!
//! Counters use relaxed atomics: they are bumped once per kernel call with a
//! closed-form count, so the overhead is negligible and exact cross-thread
//! ordering is irrelevant (we only read aggregates after quiescence).

use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel classes tracked by the flop counters.
///
/// The classes mirror the kernels of the paper's Table I plus the extra
/// kernels needed by the baselines (incremental pivoting) and the criteria
/// (norm estimation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum KernelClass {
    /// LU factorization with partial pivoting (GETRF).
    Getrf,
    /// Triangular solve with multiple right-hand sides (TRSM).
    Trsm,
    /// General matrix-matrix multiply (GEMM).
    Gemm,
    /// QR factorization of a tile (GEQRT).
    Geqrt,
    /// Apply Q^T from a GEQRT factorization (UNMQR / ORMQR).
    Unmqr,
    /// QR of triangle-on-top-of-pentagon (TPQRT; covers TSQRT `l=0` and TTQRT `l=n`).
    Tpqrt,
    /// Apply Q^T from a TPQRT factorization (TPMQRT; covers TSMQR and TTMQR).
    Tpmqrt,
    /// Incremental-pivoting LU of triangle-on-square (TSTRF).
    Tstrf,
    /// Apply incremental-pivoting updates (GESSM / SSSSM).
    Ssssm,
    /// Norm / condition estimation work for the robustness criteria.
    Estimate,
    /// Everything else (vector ops outside tracked kernels, solves, ...).
    Other,
}

pub const KERNEL_CLASS_COUNT: usize = 11;

/// All kernel classes, in `repr` order.
pub const ALL_KERNEL_CLASSES: [KernelClass; KERNEL_CLASS_COUNT] = [
    KernelClass::Getrf,
    KernelClass::Trsm,
    KernelClass::Gemm,
    KernelClass::Geqrt,
    KernelClass::Unmqr,
    KernelClass::Tpqrt,
    KernelClass::Tpmqrt,
    KernelClass::Tstrf,
    KernelClass::Ssssm,
    KernelClass::Estimate,
    KernelClass::Other,
];

impl KernelClass {
    pub fn name(self) -> &'static str {
        match self {
            KernelClass::Getrf => "GETRF",
            KernelClass::Trsm => "TRSM",
            KernelClass::Gemm => "GEMM",
            KernelClass::Geqrt => "GEQRT",
            KernelClass::Unmqr => "UNMQR",
            KernelClass::Tpqrt => "TPQRT",
            KernelClass::Tpmqrt => "TPMQRT",
            KernelClass::Tstrf => "TSTRF",
            KernelClass::Ssssm => "SSSSM",
            KernelClass::Estimate => "EST",
            KernelClass::Other => "OTHER",
        }
    }
}

static COUNTERS: [AtomicU64; KERNEL_CLASS_COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; KERNEL_CLASS_COUNT]
};

thread_local! {
    /// Kernel class that currently "owns" all flops on this thread, if any.
    static ATTRIBUTION: std::cell::Cell<Option<KernelClass>> =
        const { std::cell::Cell::new(None) };
}

/// Scope guard: while alive, every flop recorded on this thread is attributed
/// to `class`, regardless of the default class of the primitive that performs
/// it. This is how composite kernels (GEQRT built from GEMM/TRMV, recursive
/// GETRF built from TRSM/GEMM, ...) charge their inner work to themselves, as
/// the paper's Table I accounting does.
pub struct Attribution {
    prev: Option<KernelClass>,
}

impl Attribution {
    pub fn new(class: KernelClass) -> Self {
        let prev = ATTRIBUTION.with(|a| a.replace(Some(class)));
        Attribution { prev }
    }
}

impl Drop for Attribution {
    fn drop(&mut self) {
        let prev = self.prev;
        ATTRIBUTION.with(|a| a.set(prev));
    }
}

/// Record `flops` floating-point operations against `class`, unless an
/// [`Attribution`] scope is active on this thread (then the scope's class
/// receives them).
#[inline]
pub fn add_flops(class: KernelClass, flops: u64) {
    let effective = ATTRIBUTION.with(|a| a.get()).unwrap_or(class);
    COUNTERS[effective as usize].fetch_add(flops, Ordering::Relaxed);
}

/// Snapshot of all counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlopSnapshot {
    counts: [u64; KERNEL_CLASS_COUNT],
}

impl FlopSnapshot {
    /// Capture the current global counter values.
    pub fn capture() -> Self {
        let mut counts = [0u64; KERNEL_CLASS_COUNT];
        for (i, c) in COUNTERS.iter().enumerate() {
            counts[i] = c.load(Ordering::Relaxed);
        }
        FlopSnapshot { counts }
    }

    /// Flops of `class` in this snapshot.
    pub fn get(&self, class: KernelClass) -> u64 {
        self.counts[class as usize]
    }

    /// Total across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-class difference `self - earlier` (counters are monotone).
    pub fn since(&self, earlier: &FlopSnapshot) -> FlopSnapshot {
        let mut counts = [0u64; KERNEL_CLASS_COUNT];
        for ((c, s), e) in counts.iter_mut().zip(&self.counts).zip(&earlier.counts) {
            *c = s.saturating_sub(*e);
        }
        FlopSnapshot { counts }
    }

    /// Iterate `(class, flops)` pairs with non-zero counts.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (KernelClass, u64)> + '_ {
        ALL_KERNEL_CLASSES.iter().copied().filter_map(move |c| {
            let v = self.get(c);
            (v > 0).then_some((c, v))
        })
    }
}

/// Measure the flops performed by `f`, per class.
///
/// Counters are global, so concurrent measurement from several threads will
/// attribute each other's work; use from a single measuring thread.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, FlopSnapshot) {
    let before = FlopSnapshot::capture();
    let r = f();
    let after = FlopSnapshot::capture();
    (r, after.since(&before))
}

// ---------------------------------------------------------------------------
// Closed-form flop counts for the standard kernels (used both for counting
// and by the platform simulator to cost tasks).
// ---------------------------------------------------------------------------

/// GEMM `C -= A * B` with `A` m×k, `B` k×n: `2 m n k` flops.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

/// TRSM with an m×m (side=Left) or n×n (side=Right) triangle: `m n <dim>` flops.
pub fn trsm_flops(m: usize, n: usize, side_left: bool) -> u64 {
    let d = if side_left { m } else { n } as u64;
    (m as u64) * (n as u64) * d
}

/// GETRF on m×n (m ≥ n): `n^2 (m - n/3)` ≈ `2/3 n^3` when m = n.
pub fn getrf_flops(m: usize, n: usize) -> u64 {
    let (m, n) = (m as f64, n as f64);
    (n * n * (m - n / 3.0)).max(0.0) as u64
}

/// GEQRT on m×n (m ≥ n): `2 n^2 (m - n/3)` ≈ `4/3 n^3` when m = n
/// (plus the O(n^2 ib) T-factor construction, counted separately by the kernel).
pub fn geqrt_flops(m: usize, n: usize) -> u64 {
    2 * getrf_flops(m, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot() {
        let before = FlopSnapshot::capture();
        add_flops(KernelClass::Gemm, 100);
        add_flops(KernelClass::Gemm, 23);
        add_flops(KernelClass::Trsm, 7);
        let delta = FlopSnapshot::capture().since(&before);
        assert_eq!(delta.get(KernelClass::Gemm), 123);
        assert_eq!(delta.get(KernelClass::Trsm), 7);
        assert_eq!(delta.total(), 130);
    }

    #[test]
    fn measure_scopes_deltas() {
        let (_, d) = measure(|| add_flops(KernelClass::Geqrt, 55));
        assert_eq!(d.get(KernelClass::Geqrt), 55);
        assert_eq!(d.get(KernelClass::Gemm), 0);
    }

    #[test]
    fn closed_forms() {
        assert_eq!(gemm_flops(10, 10, 10), 2000);
        assert_eq!(trsm_flops(10, 4, true), 400);
        assert_eq!(trsm_flops(4, 10, false), 400);
        // square getrf ≈ 2/3 n^3
        let n = 30usize;
        let g = getrf_flops(n, n) as f64;
        assert!((g - 2.0 / 3.0 * (n as f64).powi(3)).abs() < 1.0);
        assert_eq!(geqrt_flops(n, n), 2 * getrf_flops(n, n));
    }

    #[test]
    fn attribution_redirects_flops() {
        let before = FlopSnapshot::capture();
        {
            let _g = Attribution::new(KernelClass::Geqrt);
            add_flops(KernelClass::Gemm, 40); // inner GEMM inside a GEQRT
        }
        add_flops(KernelClass::Gemm, 2); // outside the scope
        let d = FlopSnapshot::capture().since(&before);
        assert_eq!(d.get(KernelClass::Geqrt), 40);
        assert_eq!(d.get(KernelClass::Gemm), 2);
    }

    #[test]
    fn attribution_nests_and_restores() {
        let before = FlopSnapshot::capture();
        {
            let _a = Attribution::new(KernelClass::Tpqrt);
            {
                let _b = Attribution::new(KernelClass::Getrf);
                add_flops(KernelClass::Gemm, 5);
            }
            add_flops(KernelClass::Gemm, 7);
        }
        let d = FlopSnapshot::capture().since(&before);
        assert_eq!(d.get(KernelClass::Getrf), 5);
        assert_eq!(d.get(KernelClass::Tpqrt), 7);
    }

    #[test]
    fn iter_nonzero_reports_classes() {
        let before = FlopSnapshot::capture();
        add_flops(KernelClass::Tstrf, 9);
        let delta = FlopSnapshot::capture().since(&before);
        let v: Vec<_> = delta.iter_nonzero().collect();
        assert!(v.contains(&(KernelClass::Tstrf, 9)));
    }
}
