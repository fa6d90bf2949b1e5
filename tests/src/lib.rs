//! Integration-test crate for the `luqr` workspace: the tests in
//! `tests/tests/` exercise the full stack together, and this library holds
//! what they share — the error model, the fixtures, the dependency
//! [`oracle`], the parity harness [`paths`] through which the suites run
//! their factorizations, one case table per suite, and a [`toy`] source for
//! the dataflow no factorization plans.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use luqr::{LinkMsgStats, LinkTraffic, TreeConfig, TreeKind};
use luqr_kernels::blas::{gemm, Trans};
use luqr_kernels::Mat;

pub mod oracle;
pub mod paths;
pub mod qr_ref;
pub mod solve_ref;
pub mod toy;

/// The reduction trees as they were before the TS level existed: every
/// panel tile triangularized, GREEDY inside nodes, FIBONACCI across them.
/// Pins and goldens recorded then are checked under these; at `ts = 1`
/// plans, simulated makespans, message counts and `x` are bitwise what they
/// were.
pub const TWO_LEVEL: TreeConfig = TreeConfig {
    ts: 1,
    intra: TreeKind::Greedy,
    inter: TreeKind::Fibonacci,
};

/// How long one run may take before [`with_watchdog`] fails it as hung.
/// The slowest case of the parity suites (`Dominant { n: 160 }`, batch
/// path) takes 0.5 s in a debug build on a 2-vCPU host; this is 60 times
/// that.
pub const WATCHDOG: Duration = Duration::from_secs(30);

/// Run `f` on a thread of its own and fail, naming `what`, if it has not
/// returned within [`WATCHDOG`]: a run that hangs (a release lost in the
/// window, a peer that never answers) fails its case instead of the test
/// binary hanging. A panic inside `f` is re-raised here.
pub fn with_watchdog<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(v) => v,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: still running after {WATCHDOG:?} (hang)"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("sender dropped by a panic"))
        }
    }
}

/// Machine epsilon for `f64`; the standard model's unit roundoff is `EPS / 2`.
pub const EPS: f64 = f64::EPSILON;

/// Higham's `γ_k = k·u / (1 − k·u)` with `u = ε/2` — the bound on the
/// relative error of a `k`-term floating-point inner product, valid for
/// **any** summation order (Higham, *Accuracy and Stability of Numerical
/// Algorithms*, 2nd ed., Lemma 3.1). The packed register-tiled GEMM, the
/// blocked TRSM, the naive reference loops, and FMA-contracted variants all
/// satisfy this same bound; only the low-order bits differ between them.
pub fn gamma(k: usize) -> f64 {
    let ku = k as f64 * (EPS / 2.0);
    assert!(ku < 1.0, "error model breaks down for k ≈ 1/u");
    ku / (1.0 - ku)
}

/// Componentwise forward-error bound for one element of
/// `C ← α·op(A)·op(B) + β·C` with inner dimension `k`:
///
/// ```text
/// |Ĉ(i,j) − C(i,j)| ≤ gemm_componentwise_bound(k) · (|α|·|A|·|B| + |β·C|)(i,j)
/// ```
///
/// The `k + 2` accounts for the `k`-term dot product plus the scaling by
/// `α` and the final accumulation into `β·C`. Tests that compare the
/// blocked kernels against a naive reference must use this scale — an
/// absolute tolerance would be wrong for badly scaled inputs.
pub fn gemm_componentwise_bound(k: usize) -> f64 {
    gamma(k + 2)
}

/// Columnwise forward-error bound for applying `k` Householder reflectors
/// of length `m` to a vector `c`, one by one or in blocked (compact-WY)
/// form:
///
/// ```text
/// ‖ĉ − op(Q)·c‖₂ ≤ qr_apply_bound(m, k) · ‖c‖₂
/// ```
///
/// Orthogonal transformations are stable normwise per column, not
/// componentwise (Higham, Lemma 19.3 and §19.5: `k·γ̃_m` with `γ̃_m = γ_{d·m}`
/// for a small integer `d`; `d = 8` here covers the extra `T` and triangle
/// products of the WY form). The elementwise reference and the engine-backed
/// kernels both satisfy it, so two of them differ by at most twice this.
pub fn qr_apply_bound(m: usize, k: usize) -> f64 {
    k as f64 * gamma(8 * m.max(1))
}

/// Maximum factor by which an HPL3-style normalized residual may drift
/// between two backward-stable implementations of the same factorization.
///
/// `stability::hpl3` reports `‖Ax̂−b‖∞ / (ε·n·(‖A‖∞‖x̂‖∞+‖b‖∞))`: the
/// residual numerator is itself the result of massive cancellation and is
/// of size `O(γ_n·(|A||x̂|+|b|))`, so re-ordering the kernel summations
/// (register tiling, cache blocking, FMA contraction) changes it by a
/// modest constant factor — not by orders of magnitude. A genuinely broken
/// kernel (dropped update, wrong transpose) moves hpl3 by 1e2–1e12 on the
/// parity fixtures, so a 4x band cleanly separates reordering drift from
/// real defects. Measured drift for the register-tiled kernels on the
/// golden fixture was within [0.70, 1.05] of the pre-kernel residuals.
pub const HPL3_DRIFT_FACTOR: f64 = 4.0;

/// `true` when two normalized residuals agree under the backward-error
/// model: both finite and within [`HPL3_DRIFT_FACTOR`] of each other.
pub fn hpl3_within_model(got: f64, golden: f64) -> bool {
    got.is_finite()
        && golden.is_finite()
        && got <= golden * HPL3_DRIFT_FACTOR
        && golden <= got * HPL3_DRIFT_FACTOR
}

/// Random matrix with a dominant diagonal: every algorithm and criterion
/// factors it without breakdown, which is what parity-style tests need.
pub fn well_conditioned(n: usize, seed: u64) -> Mat {
    let mut a = Mat::random(n, n, seed);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// A dominant-diagonal system `A x = B` with `nrhs` right-hand sides
/// manufactured from a known random solution.
pub fn dominant_system(n: usize, seed: u64, nrhs: usize) -> (Mat, Mat) {
    let a = well_conditioned(n, seed);
    let x_true = Mat::random(n, nrhs, seed ^ 0x5eed);
    let mut b = Mat::zeros(n, nrhs);
    gemm(
        Trans::NoTrans,
        Trans::NoTrans,
        1.0,
        &a,
        &x_true,
        0.0,
        &mut b,
    );
    (a, b)
}

/// A streamed run's window routes what the replay of the same
/// factorization's batch graph prices: on every directed link, its payload
/// messages (data + decision) and their bytes are the replay's
/// `link_messages`. Retire reports are protocol, not payload.
pub fn assert_routing_matches_replay(links: &[LinkMsgStats], replay: &[LinkTraffic], what: &str) {
    let routed: Vec<LinkTraffic> = links
        .iter()
        .filter(|l| l.msgs.payload_msgs() > 0)
        .map(|l| LinkTraffic {
            src: l.src,
            dst: l.dst,
            messages: l.msgs.payload_msgs(),
            bytes: l.msgs.bytes,
        })
        .collect();
    assert_eq!(
        routed, replay,
        "{what}: per-link payload traffic, window vs replay"
    );
}
