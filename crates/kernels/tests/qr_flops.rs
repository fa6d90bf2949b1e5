//! Flop accounting of the pentagonal QR kernels.
//!
//! The flop counters are process-global, so a test that compares counts
//! exactly must be the only test of its process: this file holds one.

use luqr_kernels::flops::{measure, KernelClass};
use luqr_kernels::qr::{tpmqrt, tpqrt, TFactor};
use luqr_kernels::{Mat, Trans};

/// The TT kernels (triangle on triangle) cost about half of the TS kernels
/// (triangle on square) — what gives TT reduction trees their short critical
/// path — and the apply-side count depends on the shapes alone.
#[test]
fn tt_kernel_costs_less_than_ts() {
    let n = 32;
    let r0 = Mat::random(n, n, 30).upper_triangular();
    let factor = |l: usize, mut b: Mat| {
        let mut r = r0.clone();
        let (tf, counted) = measure(|| tpqrt(l, &mut r, &mut b, 8));
        (b, tf, counted.get(KernelClass::Tpqrt))
    };
    let (v_ts, tf_ts, f_ts) = factor(0, Mat::random(n, n, 31));
    let (v_tt, tf_tt, f_tt) = factor(n, Mat::random(n, n, 31).upper_triangular());
    assert!(
        (f_tt as f64) < 0.6 * f_ts as f64,
        "TTQRT ({f_tt}) should be much cheaper than TSQRT ({f_ts})"
    );

    let apply = |l: usize, v: &Mat, tf: &TFactor, c: &Mat| {
        let (mut a, mut b) = (r0.clone(), c.clone());
        let ((), counted) = measure(|| tpmqrt(Trans::Trans, l, v, tf, &mut a, &mut b));
        counted.get(KernelClass::Tpmqrt)
    };
    let c = Mat::random(n, n, 32);
    let a_ts = apply(0, &v_ts, &tf_ts, &c);
    let a_tt = apply(n, &v_tt, &tf_tt, &c);
    assert!(
        a_tt as f64 <= 0.6 * a_ts as f64,
        "TTMQR ({a_tt}) should cost about half of TSMQR ({a_ts})"
    );
    // A C full of zeros costs what a random one does.
    assert_eq!(a_tt, apply(n, &v_tt, &tf_tt, &Mat::zeros(n, n)));
}
