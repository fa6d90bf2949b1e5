//! Property-based tests (proptest) on the workspace invariants.

use luqr::{factor_solve, Algorithm, Criterion, FactorOptions};
use luqr_kernels::blas::{gemm, Trans};
use luqr_kernels::lu::{getrf, lu_reconstruct, permute_rows};
use luqr_kernels::qr::{form_q, geqrt, tpmqrt, tpqrt};
use luqr_kernels::Mat;
use luqr_tile::{Grid, TiledMatrix};
use proptest::prelude::*;

fn arb_mat(max_dim: usize) -> impl Strategy<Value = Mat> {
    (2usize..=max_dim, 2usize..=max_dim, any::<u64>())
        .prop_map(|(m, n, seed)| Mat::random(m, n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lu_factors_reconstruct_pa(a in arb_mat(24)) {
        let mut lu = a.clone();
        if let Ok(ipiv) = getrf(&mut lu) {
            let pa = permute_rows(&a, &ipiv);
            let rec = lu_reconstruct(&lu);
            let scale = a.norm_max().max(1.0);
            prop_assert!(pa.max_abs_diff(&rec) / scale < 1e-12);
        }
    }

    #[test]
    fn qr_is_orthogonal_and_reconstructs(a in arb_mat(20), ib in 1usize..8) {
        let a0 = a.clone();
        let mut f = a;
        let tf = geqrt(&mut f, ib);
        let q = form_q(&f, &tf);
        let m = q.rows();
        let mut qtq = Mat::zeros(m, m);
        gemm(Trans::Trans, Trans::NoTrans, 1.0, &q, &q, 0.0, &mut qtq);
        prop_assert!(qtq.max_abs_diff(&Mat::eye(m)) < 1e-12);
        let (mm, nn) = a0.dims();
        let r = Mat::from_fn(mm, nn, |i, j| if i <= j { f[(i, j)] } else { 0.0 });
        let mut qr = Mat::zeros(mm, nn);
        gemm(Trans::NoTrans, Trans::NoTrans, 1.0, &q, &r, 0.0, &mut qr);
        prop_assert!(qr.max_abs_diff(&a0) < 1e-11 * a0.norm_max().max(1.0));
    }

    #[test]
    fn ts_tt_elimination_annihilates(n in 3usize..16, seed in any::<u64>(), tt in any::<bool>()) {
        let r0 = Mat::random(n, n, seed).upper_triangular();
        let b0 = if tt {
            Mat::random(n, n, seed ^ 1).upper_triangular()
        } else {
            Mat::random(n, n, seed ^ 1)
        };
        let l = if tt { n } else { 0 };
        let mut r = r0.clone();
        let mut b = b0.clone();
        let tf = tpqrt(l, &mut r, &mut b, 4);
        // The recorded transformation really zeroes the bottom tile.
        let mut top = r0.clone();
        let mut bot = b0.clone();
        tpmqrt(Trans::Trans, l, &b, &tf, &mut top, &mut bot);
        prop_assert!(bot.norm_max() < 1e-11 * (1.0 + r0.norm_max() + b0.norm_max()));
        prop_assert!(top.max_abs_diff(&r) < 1e-11 * (1.0 + r.norm_max()));
    }

    #[test]
    fn tiled_roundtrip(a in arb_mat(40), nb in 1usize..12) {
        let t = TiledMatrix::from_dense(&a, nb);
        prop_assert_eq!(t.to_dense(), a);
    }

    #[test]
    fn factor_solve_recovers_solution(
        nt in 2usize..5,
        seed in any::<u64>(),
        alpha in prop_oneof![Just(0.0), Just(10.0), Just(f64::INFINITY)],
    ) {
        let nb = 7;
        let n = nt * nb + (seed % 5) as usize; // often ragged
        let mut a = Mat::random(n, n, seed);
        for i in 0..n {
            a[(i, i)] += n as f64; // well conditioned
        }
        let x_true = Mat::random(n, 1, seed ^ 99);
        let mut b = Mat::zeros(n, 1);
        gemm(Trans::NoTrans, Trans::NoTrans, 1.0, &a, &x_true, 0.0, &mut b);
        let opts = FactorOptions {
            nb,
            ib: 3,
            grid: Grid::new(2, 2),
            algorithm: Algorithm::LuQr(Criterion::Max { alpha }),
            ..FactorOptions::default()
        };
        let (x, f) = factor_solve(&a, &b, &opts);
        prop_assert!(f.error.is_none());
        prop_assert!(x.max_abs_diff(&x_true) < 1e-7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn elimination_lists_always_valid(
        p in 1usize..6,
        mt in 2usize..20,
        k in 0usize..4,
        ts in prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(7), Just(usize::MAX)],
        intra_i in 0usize..4,
        inter_i in 0usize..4,
    ) {
        use luqr::trees::{elimination_list, ElimOp, TreeConfig, TreeKind};
        let kinds = TreeKind::ALL;
        let k = k.min(mt - 1);
        let grid = Grid::new(p, 1);
        let mut domains: Vec<Vec<usize>> = Vec::new();
        for (_, rows) in grid.panel_domains(k, mt) {
            if rows[0] == k {
                domains.insert(0, rows);
            } else {
                domains.push(rows);
            }
        }
        let cfg = TreeConfig { ts, intra: kinds[intra_i], inter: kinds[inter_i] };
        let ops = elimination_list(&domains, &cfg);
        // Every row except k killed exactly once by a live, lower-indexed,
        // triangularized eliminator; a TT victim is triangular, a TS victim
        // never GEQRT'd; one GEQRT per TS domain.
        let mut killed = std::collections::HashSet::new();
        let mut tri = std::collections::HashSet::new();
        for op in &ops {
            match *op {
                ElimOp::Geqrt { row } => {
                    prop_assert!(!killed.contains(&row));
                    prop_assert!(tri.insert(row));
                }
                ElimOp::Kill { victim, eliminator, ts } => {
                    prop_assert!(eliminator < victim);
                    prop_assert!(!killed.contains(&victim));
                    prop_assert!(!killed.contains(&eliminator));
                    prop_assert!(tri.contains(&eliminator));
                    prop_assert_eq!(tri.contains(&victim), !ts);
                    killed.insert(victim);
                }
            }
        }
        prop_assert_eq!(killed.len(), mt - k - 1);
        let heads: usize = domains.iter().map(|d| d.len().div_ceil(cfg.ts)).sum();
        prop_assert_eq!(tri.len(), heads);
    }

    #[test]
    fn gallery_matrices_finite_and_sized(n in 8usize..64, seed in any::<u64>()) {
        use luqr_tile::gallery::SpecialMatrix;
        for m in SpecialMatrix::TABLE3 {
            let a = m.generate(n, seed);
            prop_assert_eq!(a.dims(), (n, n), "{}", m.name());
            prop_assert!(a.all_finite(), "{}", m.name());
        }
    }

    #[test]
    fn incpiv_pair_elimination_reconstructs(n in 3usize..14, seed in any::<u64>()) {
        use luqr_kernels::incpiv::{ssssm, tstrf};
        let u0 = {
            let mut u = Mat::random(n, n, seed).upper_triangular();
            for i in 0..n {
                u[(i, i)] += 1.0;
            }
            u
        };
        let a0 = Mat::random(n, n, seed ^ 2);
        let mut u = u0.clone();
        let mut a = a0.clone();
        let mut l = Mat::zeros(n, n);
        let piv = tstrf(&mut u, &mut a, &mut l).unwrap();
        // Pairwise multipliers bounded by 1 and replay annihilates.
        prop_assert!(l.norm_max() <= 1.0 + 1e-12);
        let mut top = u0;
        let mut bot = a0;
        ssssm(&l, &piv, &mut top, &mut bot);
        prop_assert!(bot.norm_max() < 1e-10 * (1.0 + top.norm_max()));
        prop_assert!(top.max_abs_diff(&u) < 1e-10 * (1.0 + u.norm_max()));
    }
}
