//! The reduction trees' TS level changes *which* Householder transformations
//! a QR step applies, not that they are Householder transformations: on the
//! paper's Table III gallery the default tree (TS domains of 4) is as
//! backward stable as the two-level tree it replaced (`ts = 1`). This guards
//! the plumbing — a wrong eliminator, a victim killed with the wrong kernel
//! — not the theory.
//!
//! The criterion of a step runs before the step's tree, so the hybrid's
//! decisions agree under both trees up to and including its first QR step.
//! Past it they need not: two trees apply two different orthogonal
//! transformations, the trailing rows differ by more than round-off, and a
//! criterion that sits near its threshold (`circul` does) may then fall on
//! the other side. Where the decisions are structural — panels that are
//! diagonally dominant or plainly not — they agree throughout.

use luqr::{
    factor_solve, factor_stream_with, stability, Algorithm, Criterion, Decision, FactorOptions,
    Factorization, StreamOptions, TreeConfig,
};
use luqr_kernels::Mat;
use luqr_tests::{with_watchdog, HPL3_DRIFT_FACTOR, TWO_LEVEL};
use luqr_tile::gallery::SpecialMatrix;
use luqr_tile::Grid;

/// 12 tile rows on a 2 x 2 grid: six panel rows per node at step 0, so the
/// default tree has a full and a short TS domain on each.
const N: usize = 96;

fn options(algorithm: Algorithm, trees: TreeConfig) -> FactorOptions {
    FactorOptions {
        nb: 8,
        ib: 4,
        grid: Grid::new(2, 2),
        algorithm,
        threads: 2,
        trees,
        ..FactorOptions::default()
    }
}

/// [`factor_solve`] under the watchdog, named by `what`.
fn solved(what: &str, a: &Mat, b: &Mat, opts: FactorOptions) -> (Mat, Factorization) {
    let (a, b) = (a.clone(), b.clone());
    with_watchdog(what, move || factor_solve(&a, &b, &opts))
}

fn decisions(f: &Factorization) -> Vec<Decision> {
    f.records.iter().map(|r| r.decision).collect()
}

#[test]
fn default_tree_is_as_stable_as_the_two_level_tree_on_the_gallery() {
    let default = TreeConfig::default();
    assert_eq!(default.ts, 4);
    let b = Mat::random(N, 1, 7);
    let mut qr_steps_seen = 0;
    for m in SpecialMatrix::TABLE3 {
        let a = m.generate(N, 1234);
        for algorithm in [
            Algorithm::Hqr,
            Algorithm::LuQr(Criterion::Max { alpha: 10.0 }),
        ] {
            let what = format!("{} under {}", m.name(), algorithm.name());
            let [(x1, f1), (x4, f4)] = [TWO_LEVEL, default].map(|trees| {
                let what = format!("{what}, ts = {}", trees.ts);
                solved(&what, &a, &b, options(algorithm.clone(), trees))
            });
            assert_eq!(f1.error, f4.error, "{what}");
            if f1.error.is_some() {
                continue; // exactly singular at this size under both trees
            }

            let (d1, d4) = (decisions(&f1), decisions(&f4));
            let first_qr = d1.iter().position(|&d| d == Decision::Qr);
            let shared = first_qr.map_or(d1.len(), |k| k + 1);
            assert_eq!(d1[..shared], d4[..shared], "{what}");
            qr_steps_seen += d4.iter().filter(|&&d| d == Decision::Qr).count();

            let (h1, h4) = (stability::hpl3(&a, &x1, &b), stability::hpl3(&a, &x4, &b));
            assert!(
                h4.is_finite() && h4 <= HPL3_DRIFT_FACTOR * h1,
                "{what}: HPL3 {h4:.3e} at ts = 4 against {h1:.3e} at ts = 1"
            );
        }
    }
    assert!(qr_steps_seen > 0, "the hybrid never took a QR step");
}

/// Panels that alternate between diagonally dominant and plain random decide
/// themselves whatever the earlier QR steps left behind: the LU/QR mix is the
/// tree's to execute, not to change.
#[test]
fn structural_decisions_do_not_depend_on_the_tree() {
    let nb = 8;
    let mut a = Mat::random(N, N, 42);
    for i in 0..N {
        if (i / nb).is_multiple_of(2) {
            a[(i, i)] += N as f64;
        }
    }
    let b = Mat::random(N, 1, 7);
    let default = TreeConfig::default();
    let [f1, f4] = [TWO_LEVEL, default].map(|trees| {
        let opts = options(Algorithm::LuQr(Criterion::Max { alpha: 6.0 }), trees);
        solved(&format!("structural, ts = {}", trees.ts), &a, &b, opts).1
    });
    let d4 = decisions(&f4);
    assert_eq!(decisions(&f1), d4);
    assert_eq!(f1.lu_step_fraction(), f4.lu_step_fraction());
    assert!(d4.contains(&Decision::Lu) && d4.contains(&Decision::Qr));
}

/// Which worker runs a TS kill never changes what it computes.
#[test]
fn two_stream_workers_match_one_bitwise_at_the_default_tree() {
    let a = Mat::random(N, N, 3);
    let b = Mat::random(N, 2, 4);
    for algorithm in [
        Algorithm::Hqr,
        Algorithm::LuQr(Criterion::Max { alpha: 10.0 }),
    ] {
        let opts = options(algorithm, TreeConfig::default());
        let [one, two] = [1, 2].map(|workers| {
            let what = format!("{} streamed, {workers} workers", opts.algorithm.name());
            let (a, b, opts) = (a.clone(), b.clone(), opts.clone());
            with_watchdog(&what, move || {
                let f = factor_stream_with(&a, &b, &opts, &StreamOptions::fixed(3, workers));
                assert!(f.error.is_none(), "{:?}", f.error);
                f.solution()
            })
        });
        assert_eq!(one.as_slice(), two.as_slice(), "{}", opts.algorithm.name());
    }
}
