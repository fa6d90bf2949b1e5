//! Reduction trees for the QR elimination steps (paper Sections II-B, IV).
//!
//! A QR step zeroes every panel tile below the diagonal using eliminator
//! tiles. The *elimination list* — which tile kills which, in what order —
//! is exactly what distinguishes the HQR tree variants. The hybrid uses
//! HQR's three-level hierarchy, matched to the platform:
//!
//! 1. **TS level.** Inside a node, `ts` consecutive panel tiles form a TS
//!    domain: the first (the domain's *head*) is triangularized with GEQRT
//!    and kills the others *square*, one after the other, with
//!    TSQRT/TSMQR. A TS kill costs one trailing task per (row, column)
//!    pair — a TSMQR of 4·nb³ flops — where triangularizing the victim
//!    first costs two, UNMQR + TTMQR, for the same flops; the victim's
//!    panel tile is also factored, and sent to the nodes that update its
//!    row, once instead of twice.
//! 2. **Intra-domain tree.** The heads of a node's TS domains, all
//!    triangular, are reduced to one root with TT kernels and no
//!    inter-node communication.
//! 3. **Inter-domain tree.** A TT tree across nodes merges the roots.
//!
//! The paper's default is GREEDY inside nodes and FIBONACCI across nodes
//! (chosen for its short critical path and good pipelining of consecutive
//! QR steps), under TS domains of `a = 4` tiles — DPLASMA's default. The
//! TS level trades parallelism for cheaper kernels: a TS domain is a
//! serial chain of `ts − 1` kills, so `ts = 1` (no TS level, every tile
//! triangularized) has the shortest critical path and the most tasks, and
//! `ts = usize::MAX` (one flat TS chain per node) the fewest tasks and the
//! longest chain. At 4 the heads' TT tree still has a quarter of the
//! node's tiles to pair off in parallel, while 3 of every 4 kills run the
//! cheap way.

/// Shape of a TT reduction tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Flat tree: the root merges the other tiles in sequence.
    FlatTt,
    /// Binary tournament (adjacent pairing).
    Binary,
    /// Greedy tournament: each round the top half of the surviving tiles
    /// eliminates the bottom half.
    Greedy,
    /// Fibonacci-staggered tree: round `r` kills a Fibonacci-growing
    /// number of tiles, trading single-step critical path for pipelining of
    /// consecutive steps.
    Fibonacci,
}

impl TreeKind {
    /// Every TT tree shape.
    pub const ALL: [TreeKind; 4] = [
        TreeKind::FlatTt,
        TreeKind::Binary,
        TreeKind::Greedy,
        TreeKind::Fibonacci,
    ];
}

/// Three-level tree configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Size of a TS domain: this many consecutive tiles of a node are
    /// killed square against the first of them. `1` triangularizes every
    /// tile (no TS level); `usize::MAX` is one flat TS chain per node. A
    /// run clamps it to ≥ 1, so `0` plans as `1`.
    pub ts: usize,
    /// TT tree over the TS-domain heads of each node (node-local, no
    /// communication).
    pub intra: TreeKind,
    /// TT tree across node roots (inter-node).
    pub inter: TreeKind,
}

impl Default for TreeConfig {
    /// The paper's default: TS domains of 4, GREEDY inside nodes,
    /// FIBONACCI between nodes.
    fn default() -> Self {
        TreeConfig {
            ts: 4,
            intra: TreeKind::Greedy,
            inter: TreeKind::Fibonacci,
        }
    }
}

/// One operation of a QR step's elimination list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElimOp {
    /// Triangularize tile row `row` (GEQRT) — prerequisite for acting as an
    /// eliminator or as a TT victim.
    Geqrt { row: usize },
    /// Zero tile row `victim` against `eliminator`. `ts = true` uses the
    /// TSQRT kernel (square victim), `ts = false` uses TTQRT (triangular
    /// victim, cheaper, enabled by a prior [`ElimOp::Geqrt`]).
    Kill {
        victim: usize,
        eliminator: usize,
        ts: bool,
    },
}

/// Build the elimination list for one QR step.
///
/// `domains` groups the panel's tile rows by owning domain, each ascending;
/// the first row of the first domain is the step's diagonal row `k` and
/// must be the overall smallest (callers pass
/// [`luqr_tile::Grid::panel_domains`] output rotated so the diagonal domain
/// comes first).
pub fn elimination_list(domains: &[Vec<usize>], cfg: &TreeConfig) -> Vec<ElimOp> {
    assert!(!domains.is_empty() && !domains[0].is_empty());
    let k = domains[0][0];
    for d in domains {
        debug_assert!(d.windows(2).all(|w| w[0] < w[1]), "domain rows must ascend");
        debug_assert!(d.iter().all(|&r| r >= k), "row below the diagonal step");
    }

    let mut ops = Vec::new();
    let mut roots = Vec::with_capacity(domains.len());
    for rows in domains {
        intra_domain(rows, cfg, &mut ops);
        roots.push(rows[0]);
    }
    // Inter-domain reduction over the (already triangular) roots.
    roots.sort_unstable();
    debug_assert_eq!(roots[0], k);
    for (victim, eliminator) in tt_tree(&roots, cfg.inter) {
        ops.push(ElimOp::Kill {
            victim,
            eliminator,
            ts: false,
        });
    }
    ops
}

/// Reduce one node's rows onto `rows[0]`: TS domains of `cfg.ts`
/// consecutive rows, then the `cfg.intra` TT tree over their heads.
fn intra_domain(rows: &[usize], cfg: &TreeConfig, ops: &mut Vec<ElimOp>) {
    assert!(cfg.ts >= 1, "a TS domain holds at least its head");
    for chunk in rows.chunks(cfg.ts) {
        ops.push(ElimOp::Geqrt { row: chunk[0] });
        for &victim in &chunk[1..] {
            ops.push(ElimOp::Kill {
                victim,
                eliminator: chunk[0],
                ts: true,
            });
        }
    }
    let heads: Vec<usize> = rows.iter().copied().step_by(cfg.ts).collect();
    for (victim, eliminator) in tt_tree(&heads, cfg.intra) {
        ops.push(ElimOp::Kill {
            victim,
            eliminator,
            ts: false,
        });
    }
}

/// Pairings `(victim, eliminator)` reducing `rows` (ascending, all already
/// triangular) onto `rows[0]` with TT kernels.
fn tt_tree(rows: &[usize], kind: TreeKind) -> Vec<(usize, usize)> {
    let mut ops = Vec::new();
    let mut alive: Vec<usize> = rows.to_vec();
    match kind {
        TreeKind::FlatTt => {
            for &r in &rows[1..] {
                ops.push((r, rows[0]));
            }
        }
        TreeKind::Binary => {
            while alive.len() > 1 {
                let mut survivors = Vec::with_capacity(alive.len().div_ceil(2));
                let mut i = 0;
                while i < alive.len() {
                    if i + 1 < alive.len() {
                        ops.push((alive[i + 1], alive[i]));
                    }
                    survivors.push(alive[i]);
                    i += 2;
                }
                alive = survivors;
            }
        }
        TreeKind::Greedy => {
            while alive.len() > 1 {
                let m = alive.len();
                let kills = m / 2;
                for t in 0..kills {
                    ops.push((alive[m - kills + t], alive[t]));
                }
                alive.truncate(m - kills);
            }
        }
        TreeKind::Fibonacci => {
            let (mut f1, mut f2) = (1usize, 1usize);
            while alive.len() > 1 {
                let m = alive.len();
                let kills = f1.clamp(1, (m / 2).max(1)).min(m - 1);
                for t in 0..kills {
                    let vi = m - kills + t;
                    let ei = vi - kills;
                    ops.push((alive[vi], alive[ei]));
                }
                alive.truncate(m - kills);
                let f3 = f1 + f2;
                f1 = f2;
                f2 = f3;
            }
        }
    }
    ops
}

/// Depth (rounds of kills) of the single-step critical path over one
/// node's `m` tiles under TS domains of `ts` and the TT tree `kind` — the
/// `ts − 1` serial kills of a full TS domain below the tree over the
/// `⌈m / ts⌉` heads. Diagnostic used by the tree ablation bench.
pub fn tree_depth(m: usize, ts: usize, kind: TreeKind) -> usize {
    if m <= 1 {
        return 0;
    }
    let cfg = TreeConfig {
        ts,
        intra: kind,
        inter: kind,
    };
    // Longest chain: a kill waits for both of its rows' previous kills.
    let mut depth = vec![0usize; m];
    let mut max_depth = 0;
    for op in elimination_list(&[(0..m).collect()], &cfg) {
        if let ElimOp::Kill {
            victim, eliminator, ..
        } = op
        {
            let d = depth[eliminator].max(depth[victim]) + 1;
            depth[eliminator] = d;
            max_depth = max_depth.max(d);
        }
    }
    max_depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const ALL_TS: [usize; 6] = [1, 2, 3, 4, 7, usize::MAX];

    /// Every `ts` × intra × inter combination.
    fn all_configs() -> impl Iterator<Item = TreeConfig> {
        ALL_TS.into_iter().flat_map(|ts| {
            TreeKind::ALL.into_iter().flat_map(move |intra| {
                TreeKind::ALL
                    .into_iter()
                    .map(move |inter| TreeConfig { ts, intra, inter })
            })
        })
    }

    /// Panels whose nodes hold different numbers of rows.
    fn uneven_fixtures() -> [Vec<Vec<usize>>; 3] {
        [
            vec![
                vec![2, 6, 10, 14],
                vec![3, 7, 11],
                vec![4, 8, 12],
                vec![5, 9, 13],
            ],
            vec![
                vec![0, 4, 8, 12, 16, 20],
                vec![1],
                vec![2, 6],
                vec![3, 7, 11, 15, 19],
            ],
            vec![(0..17).collect()],
        ]
    }

    /// Every non-root row killed exactly once; eliminators alive and
    /// triangular when used; eliminator index always below victim; a TT
    /// victim triangular, a TS victim never GEQRT'd.
    fn check_valid(domains: &[Vec<usize>], cfg: &TreeConfig) {
        let ops = elimination_list(domains, cfg);
        let all: Vec<usize> = domains.iter().flatten().copied().collect();
        let root = domains[0][0];
        let mut killed: HashSet<usize> = HashSet::new();
        let mut triangular: HashSet<usize> = HashSet::new();
        for op in &ops {
            match *op {
                ElimOp::Geqrt { row } => {
                    assert!(!killed.contains(&row), "GEQRT on killed row {row}");
                    assert!(triangular.insert(row), "row {row} GEQRT'd twice");
                }
                ElimOp::Kill {
                    victim,
                    eliminator,
                    ts,
                } => {
                    assert!(eliminator < victim, "eliminator above victim");
                    assert!(!killed.contains(&victim), "row {victim} killed twice");
                    assert!(
                        !killed.contains(&eliminator),
                        "dead eliminator {eliminator}"
                    );
                    assert!(
                        triangular.contains(&eliminator),
                        "eliminator {eliminator} not triangularized"
                    );
                    assert_eq!(
                        triangular.contains(&victim),
                        !ts,
                        "a TT victim is triangular, a TS victim square (row {victim})"
                    );
                    killed.insert(victim);
                }
            }
        }
        let expected: HashSet<usize> = all.iter().copied().filter(|&r| r != root).collect();
        assert_eq!(killed, expected, "not all rows eliminated exactly once");
    }

    #[test]
    fn all_tree_combinations_valid() {
        for cfg in all_configs() {
            check_valid(&uneven_fixtures()[0], &cfg);
        }
    }

    #[test]
    fn uneven_domains() {
        for cfg in all_configs() {
            check_valid(&uneven_fixtures()[1], &cfg);
        }
    }

    #[test]
    fn single_domain_many_tiles() {
        for cfg in all_configs() {
            check_valid(&uneven_fixtures()[2], &cfg);
        }
    }

    #[test]
    fn flat_ts_emits_single_geqrt_per_domain() {
        let ops = elimination_list(
            &[vec![0, 2, 4], vec![1, 3]],
            &TreeConfig {
                ts: usize::MAX,
                intra: TreeKind::Greedy,
                inter: TreeKind::FlatTt,
            },
        );
        assert_eq!(spell(&ops), "g0 s2>0 s4>0 g1 s3>1 t1>0");
    }

    #[test]
    fn single_tile_panel_only_triangularizes() {
        let ops = elimination_list(&[vec![7]], &TreeConfig::default());
        assert_eq!(ops, vec![ElimOp::Geqrt { row: 7 }]);
    }

    /// One GEQRT per TS domain, one kill per non-root row, and every row
    /// that is not a domain head dies square.
    #[test]
    fn geqrt_count_is_the_number_of_ts_domains() {
        for domains in uneven_fixtures() {
            let rows: usize = domains.iter().map(Vec::len).sum();
            for cfg in all_configs() {
                let ops = elimination_list(&domains, &cfg);
                let count = |f: fn(&ElimOp) -> bool| ops.iter().filter(|o| f(o)).count();
                let heads: usize = domains.iter().map(|d| d.len().div_ceil(cfg.ts)).sum();
                assert_eq!(count(|o| matches!(o, ElimOp::Geqrt { .. })), heads);
                assert_eq!(
                    count(|o| matches!(o, ElimOp::Kill { ts: true, .. })),
                    rows - heads
                );
                assert_eq!(
                    count(|o| matches!(o, ElimOp::Kill { ts: false, .. })),
                    heads - 1
                );
            }
        }
    }

    /// `g4` = GEQRT row 4, `s8>4` = row 8 killed square by row 4, `t8>4` =
    /// killed triangular.
    fn spell(ops: &[ElimOp]) -> String {
        let words: Vec<String> = ops
            .iter()
            .map(|op| match *op {
                ElimOp::Geqrt { row } => format!("g{row}"),
                ElimOp::Kill {
                    victim,
                    eliminator,
                    ts,
                } => format!("{}{victim}>{eliminator}", if ts { 's' } else { 't' }),
            })
            .collect();
        words.join(" ")
    }

    /// The lists the two-level trees gave before the TS level existed
    /// (printed at that commit): `ts = 1` is those trees, and `ts =
    /// usize::MAX` is what its flat-TS intra kind gave, under any `intra`.
    #[test]
    fn ts_one_and_ts_max_reproduce_the_two_level_lists() {
        let inter = TreeKind::Fibonacci;
        let tail = "t3>2 t2>1 t1>0";
        for (intra, want) in [
            (
                TreeKind::FlatTt,
                "g0 g4 g8 g12 g16 g20 t4>0 t8>0 t12>0 t16>0 t20>0 g1 g2 g6 t6>2 \
                 g3 g7 g11 g15 g19 t7>3 t11>3 t15>3 t19>3",
            ),
            (
                TreeKind::Binary,
                "g0 g4 g8 g12 g16 g20 t4>0 t12>8 t20>16 t8>0 t16>0 g1 g2 g6 t6>2 \
                 g3 g7 g11 g15 g19 t7>3 t15>11 t11>3 t19>3",
            ),
            (
                TreeKind::Greedy,
                "g0 g4 g8 g12 g16 g20 t12>0 t16>4 t20>8 t8>0 t4>0 g1 g2 g6 t6>2 \
                 g3 g7 g11 g15 g19 t15>3 t19>7 t11>3 t7>3",
            ),
            (
                TreeKind::Fibonacci,
                "g0 g4 g8 g12 g16 g20 t20>16 t16>12 t8>0 t12>4 t4>0 g1 g2 g6 t6>2 \
                 g3 g7 g11 g15 g19 t19>15 t15>11 t11>7 t7>3",
            ),
        ] {
            let list =
                |ts| elimination_list(&uneven_fixtures()[1], &TreeConfig { ts, intra, inter });
            assert_eq!(spell(&list(1)), format!("{want} {tail}"), "{intra:?}");
            assert_eq!(
                spell(&list(usize::MAX)),
                format!(
                    "g0 s4>0 s8>0 s12>0 s16>0 s20>0 g1 g2 s6>2 g3 s7>3 s11>3 s15>3 s19>3 {tail}"
                ),
                "{intra:?}"
            );
        }
    }

    #[test]
    fn default_kills_three_of_four_rows_square() {
        let ops = elimination_list(&uneven_fixtures()[1], &TreeConfig::default());
        assert_eq!(
            spell(&ops),
            "g0 s4>0 s8>0 s12>0 g16 s20>16 t16>0 g1 g2 s6>2 g3 s7>3 s11>3 s15>3 g19 t19>3 \
             t3>2 t2>1 t1>0"
        );
    }

    #[test]
    fn binary_tree_is_logarithmic() {
        assert_eq!(tree_depth(16, 1, TreeKind::Binary), 4);
        assert_eq!(tree_depth(16, 1, TreeKind::Greedy), 4);
        assert_eq!(tree_depth(16, 1, TreeKind::FlatTt), 15);
        let fib = tree_depth(16, 1, TreeKind::Fibonacci);
        assert!(
            fib > 4 && fib < 15,
            "fibonacci depth {fib} should sit between"
        );
    }

    /// A full TS domain is a chain of `ts − 1` kills under the tree over
    /// the heads; a flat TS chain is `m − 1` deep whatever the kind.
    #[test]
    fn depth_adds_the_ts_chain_below_the_heads_tree() {
        for kind in TreeKind::ALL {
            for (m, ts) in [(16, 2), (16, 4), (32, 4), (24, 8), (21, 7)] {
                assert_eq!(
                    tree_depth(m, ts, kind),
                    ts - 1 + tree_depth(m / ts, 1, kind),
                    "{kind:?}, m = {m}, ts = {ts}"
                );
            }
            assert_eq!(tree_depth(16, usize::MAX, kind), 15);
            // A short last domain does not lengthen the chain.
            assert_eq!(tree_depth(18, 4, kind), 3 + tree_depth(5, 1, kind));
            assert_eq!(tree_depth(1, 4, kind), 0);
        }
        assert_eq!(tree_depth(16, 4, TreeKind::Greedy), 3 + 2);
    }

    #[test]
    fn greedy_and_binary_kill_half_per_round() {
        let rows: Vec<usize> = (0..8).collect();
        let g = tt_tree(&rows, TreeKind::Greedy);
        let b = tt_tree(&rows, TreeKind::Binary);
        assert_eq!(g.len(), 7);
        assert_eq!(b.len(), 7);
        // First greedy round: top 4 eliminate bottom 4.
        assert_eq!(&g[..4], &[(4, 0), (5, 1), (6, 2), (7, 3)]);
        // First binary round: adjacent pairs.
        assert_eq!(&b[..4], &[(1, 0), (3, 2), (5, 4), (7, 6)]);
    }

    #[test]
    fn survivor_is_diagonal_row() {
        // The diagonal row k=5 must never be a victim.
        let domains = vec![vec![5, 9, 13], vec![6, 10], vec![7, 11], vec![8, 12]];
        for cfg in all_configs() {
            for op in elimination_list(&domains, &cfg) {
                if let ElimOp::Kill { victim, .. } = op {
                    assert_ne!(victim, 5);
                }
            }
        }
    }
}
