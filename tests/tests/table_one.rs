//! Table I of the paper: the cost of each tile kernel, in units of nb³
//! flops. A task's cost ([`luqr::TaskOp::cost`]) is the closed form the
//! executors tally and the platform simulator prices; on full tiles it is
//! Table I's constant times nb³, exactly. The kernels' own flop counts lie
//! between that closed form and `1 + 2 ib / nb` times it — the T-factor
//! construction and application of the QR kernels — and GETRF, TRSM and
//! GEMM count exactly their closed forms.
//!
//! The flop counters are process-global, so a test that compares counts
//! exactly must be the only test of its process: this file holds one.

use luqr::{factor, Algorithm, Criterion, FactorOptions, PivotScope, TaskOp, TreeConfig};
use luqr_kernels::blas::{gemm, trsm, Diag, Side, Trans, UpLo};
use luqr_kernels::flops::measure;
use luqr_kernels::lu::getrf_continue;
use luqr_kernels::qr::{geqrt, tpmqrt, tpqrt, unmqr};
use luqr_kernels::Mat;

/// Table I's kernels (with the TT pair of the reduction trees): name,
/// constant as `(numerator, denominator)`, and whether the kernel counts
/// exactly its closed form.
const TABLE: [(&str, (f64, f64), bool); 9] = [
    ("GETRF", (2.0, 3.0), true),
    ("TRSM", (1.0, 1.0), true),
    ("GEMM", (2.0, 1.0), true),
    ("GEQRT", (4.0, 3.0), false),
    ("UNMQR", (2.0, 1.0), false),
    ("TSQRT", (2.0, 1.0), false),
    ("TSMQR", (4.0, 1.0), false),
    ("TTQRT", (2.0, 3.0), false),
    ("TTMQR", (2.0, 1.0), false),
];

/// The Table I kernel `op` runs, if it runs one; its tiles are full when
/// its column (`k`, or `j`) is a column of `A`, not the right-hand side's.
fn kernel(op: TaskOp, nt_a: u32) -> Option<&'static str> {
    use TaskOp::*;
    let name = match op {
        Getrf { .. } => "GETRF",
        Trsm { .. } => "TRSM",
        Gemm { j, .. } | Unmqr { j, .. } | Tpmqrt { j, .. } if j >= nt_a => return None,
        Gemm { .. } => "GEMM",
        Geqrt { .. } => "GEQRT",
        Unmqr { .. } => "UNMQR",
        Tpqrt { ts: true, .. } => "TSQRT",
        Tpmqrt { ts: true, .. } => "TSMQR",
        Tpqrt { ts: false, .. } => "TTQRT",
        Tpmqrt { ts: false, .. } => "TTMQR",
        _ => return None,
    };
    Some(name)
}

/// Every full-tile task of the hybrid (both branches), IncPiv and HQR (TS
/// and TT kills) that ran a Table I kernel costs exactly its constant
/// times nb³; returns the kinds seen.
fn check_closed_forms(nb: usize, ib: usize) -> Vec<&'static str> {
    let n = 3 * nb;
    let a = Mat::random(n, n, 7);
    let b = Mat::random(n, 1, 8);
    let nb3 = (nb * nb * nb) as f64;
    let trees = |ts| TreeConfig {
        ts,
        ..TreeConfig::default()
    };
    let runs = [
        (Algorithm::LuQr(Criterion::AlwaysLu), trees(4)),
        (Algorithm::LuQr(Criterion::AlwaysQr), trees(4)),
        (Algorithm::LuIncPiv, trees(4)),
        (Algorithm::Hqr, trees(usize::MAX)),
        (Algorithm::Hqr, trees(1)),
    ];
    let mut seen = Vec::new();
    for (algorithm, trees) in runs {
        let opts = FactorOptions {
            nb,
            ib,
            algorithm,
            trees,
            threads: 1,
            // The hybrid's trial is then the diagonal tile, and the rows
            // below it are eliminated by TRSM tasks.
            pivot_scope: PivotScope::DiagonalTile,
            ..FactorOptions::default()
        };
        let f = factor(&a, &b, &opts);
        for t in f.graph.tasks() {
            let Some(name) = kernel(t.op(), n.div_ceil(nb) as u32) else {
                continue;
            };
            let cost = t.cost().expect("an executed graph prices every task");
            if !cost.executed {
                continue;
            }
            let (num, den) = TABLE.iter().find(|row| row.0 == name).unwrap().1;
            assert_eq!(cost.flops, num * nb3 / den, "{} at nb = {nb}", t.name());
            if !seen.contains(&name) {
                seen.push(name);
            }
        }
    }
    seen
}

/// The flops each kernel counts on nb × nb tiles.
fn counted(nb: usize, ib: usize) -> Vec<(&'static str, u64)> {
    let a0 = Mat::random(nb, nb, 1);
    let tri = {
        let mut t = Mat::random(nb, nb, 2).upper_triangular();
        for i in 0..nb {
            t[(i, i)] += 2.0;
        }
        t
    };
    let count = |f: &mut dyn FnMut()| measure(f).1.total();
    let mut rows = Vec::new();
    rows.push((
        "GETRF",
        count(&mut || drop(getrf_continue(&mut a0.clone()))),
    ));
    rows.push((
        "TRSM",
        count(&mut || {
            let mut b = Mat::random(nb, nb, 3);
            trsm(
                Side::Right,
                UpLo::Upper,
                Trans::NoTrans,
                Diag::NonUnit,
                1.0,
                &tri,
                &mut b,
            );
        }),
    ));
    rows.push((
        "GEMM",
        count(&mut || {
            let (x, y) = (Mat::random(nb, nb, 4), Mat::random(nb, nb, 5));
            let mut c = Mat::random(nb, nb, 6);
            gemm(Trans::NoTrans, Trans::NoTrans, -1.0, &x, &y, 1.0, &mut c);
        }),
    ));
    let mut v = a0.clone();
    let mut tf = None;
    rows.push(("GEQRT", count(&mut || tf = Some(geqrt(&mut v, ib)))));
    let tf = tf.unwrap();
    rows.push((
        "UNMQR",
        count(&mut || unmqr(Trans::Trans, &v, &tf, &mut Mat::random(nb, nb, 7))),
    ));
    // A kill and its update: TS (square victim, `l = 0`) and TT
    // (triangular victim, `l = nb`).
    for (kill, update, l) in [("TSQRT", "TSMQR", 0), ("TTQRT", "TTMQR", nb)] {
        let mut victim = Mat::random(nb, nb, 8);
        if l > 0 {
            victim = victim.upper_triangular();
        }
        let mut tf = None;
        let factor = &mut || tf = Some(tpqrt(l, &mut tri.clone(), &mut victim, ib));
        rows.push((kill, count(factor)));
        let tf = tf.unwrap();
        let apply = &mut || {
            let (mut top, mut bot) = (Mat::random(nb, nb, 9), Mat::random(nb, nb, 10));
            tpmqrt(Trans::Trans, l, &victim, &tf, &mut top, &mut bot);
        };
        rows.push((update, count(apply)));
    }
    rows
}

#[test]
fn kernel_costs_are_table_one() {
    for (nb, ib) in [(48, 16), (240, 32)] {
        let mut seen = check_closed_forms(nb, ib);
        seen.sort_unstable();
        let mut all: Vec<_> = TABLE.iter().map(|row| row.0).collect();
        all.sort_unstable();
        assert_eq!(seen, all, "a full-tile task of every kind at nb = {nb}");

        let nb3 = (nb * nb * nb) as f64;
        let slack = 1.0 + 2.0 * ib as f64 / nb as f64;
        for (name, flops) in counted(nb, ib) {
            let &(_, (num, den), exact) = TABLE.iter().find(|row| row.0 == name).unwrap();
            let (closed, flops) = (num * nb3 / den, flops as f64);
            let what =
                format!("{name} at (nb, ib) = ({nb}, {ib}): {flops} flops, closed form {closed}");
            if exact {
                assert_eq!(flops, closed, "{what}");
            } else {
                assert!(flops >= closed && flops <= closed * slack, "{what}");
            }
        }
    }
}
