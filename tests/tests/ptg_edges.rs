//! Every edge is closed-form: one predecessor sweep per planning phase
//! ([`luqr_runtime::TaskOp::for_each_predecessor`]) feeds both sinks, and
//! its edges are the ones hazard inference finds from the ops' accesses in
//! insertion order ([`luqr_tests::oracle`]).
//!
//! The batch graph closes each step as one phase, before any decision
//! exists: its successor lists and predecessor counts are the oracle's,
//! for every planner, on the `plan_ops` fixtures and on grids, ragged
//! shapes, right-hand sides and reduction trees around them. Both branches
//! of a hybrid step are in the graph, so this covers the cross-branch
//! WAR/WAW edges, LUPP's control barrier and the TS kills, whose victim
//! has no GEQRT in its step.
//!
//! A streamed run plans only each step's chosen branch, once its decision
//! is recorded: there, the closed-form predecessors of every op, as its
//! planning phase's sweep names them (which the window links), are the
//! oracle's over the sequence the run planned.

use std::collections::HashSet;

use luqr::{
    builder, Algorithm, Criterion, Decision, FactorOptions, LuVariant, PivotScope,
    PlannerStepSource, StreamOptions, TaskOp, TreeConfig,
};
use luqr_runtime::stream::{self, StepSource};
use luqr_runtime::TaskOp as _;
use luqr_tests::oracle::{hazard_predecessors, successors, Logged};
use luqr_tests::{dominant_system, with_watchdog};
use luqr_tile::{Grid, TiledMatrix};
use proptest::prelude::*;

/// The planners of `plan_ops`.
fn planner(index: usize) -> (&'static str, Algorithm, LuVariant, PivotScope) {
    let max = Algorithm::LuQr(Criterion::Max { alpha: 100.0 });
    let random = Algorithm::LuQr(Criterion::Random {
        lu_fraction: 0.5,
        seed: 5,
    });
    let (a1, domain) = (LuVariant::A1, PivotScope::DiagonalDomain);
    [
        ("hybrid-a1-domain", max.clone(), a1, domain),
        ("hybrid-a1-tile", max.clone(), a1, PivotScope::DiagonalTile),
        ("hybrid-a2", max, LuVariant::A2, domain),
        ("hybrid-random", random, a1, domain),
        ("lu-nopiv", Algorithm::LuNoPiv, a1, domain),
        ("lupp", Algorithm::Lupp, a1, domain),
        ("lu-incpiv", Algorithm::LuIncPiv, a1, domain),
        ("hqr", Algorithm::Hqr, a1, domain),
    ][index]
        .clone()
}

const PLANNERS: usize = 8;
const TS: [usize; 3] = [1, 4, usize::MAX];
const GRIDS: [(usize, usize); 4] = [(1, 1), (1, 2), (2, 2), (4, 1)];

/// The options of planner `index` on a `(p, q)` grid under TS domains of
/// `ts`, with `nb = 16`.
fn options(index: usize, (p, q): (usize, usize), ts: usize) -> FactorOptions {
    let (_, algorithm, lu_variant, pivot_scope) = planner(index);
    FactorOptions {
        nb: 16,
        ib: 4,
        grid: Grid::new(p, q),
        algorithm,
        threads: 1,
        pivot_scope,
        lu_variant,
        trees: TreeConfig {
            ts,
            ..TreeConfig::default()
        },
    }
}

/// Build the batch graph of an `n x n` system with `nrhs` right-hand sides
/// (`nb = 16`) and check every task's successors and predecessor count
/// against the oracle's.
fn check(index: usize, n: usize, (p, q): (usize, usize), nrhs: usize, ts: usize) {
    let label = planner(index).0;
    let what = format!("{label} n={n} grid {p}x{q} nrhs={nrhs} ts={ts}");
    let (a, b) = dominant_system(n, 11, nrhs);
    let opts = options(index, (p, q), ts);
    let aug = TiledMatrix::from_dense_augmented(&a, &b, opts.nb);
    let nt_a = aug.nt() - nrhs.div_ceil(opts.nb);
    let (graph, _) = builder::build_graph(&aug, nt_a, &opts);
    let ctx = graph.ctx();

    let preds = hazard_predecessors(ctx, graph.tasks().map(|t| t.op()));
    let succs = successors(&preds);
    for t in graph.tasks() {
        let got: Vec<_> = t.successors().collect();
        assert_eq!(got, succs[t.id], "{what}: {}", t.name());
        assert_eq!(t.num_preds(), preds[t.id].len(), "{what}: {}", t.name());
    }
}

/// Every planner under each TS-domain size, on the `plan_ops` fixtures and
/// on a ragged order (`n = 100`: a 4-row last tile) on every grid with one
/// and three right-hand sides.
#[test]
fn closed_form_edges_are_the_hazard_edges_on_the_fixtures() {
    for index in 0..PLANNERS {
        for ts in TS {
            for (n, grid) in [(96, (1, 1)), (104, (2, 2)), (192, (1, 2))] {
                check(index, n, grid, 1, ts);
            }
            for grid in GRIDS {
                for nrhs in [1, 3] {
                    check(index, 100, grid, nrhs, ts);
                }
            }
        }
    }
}

/// Stream an `n x n` system and check every planned op's closed-form
/// predecessors, as its phase's sweep named them when the phase was
/// planned, against the oracle's over the planned sequence, as sets of
/// `(step, position)`. Returns the run's decisions.
fn check_streamed(index: usize, n: usize, grid: (usize, usize), ts: usize) -> Vec<Decision> {
    let what = format!("{} n={n} grid {grid:?} ts={ts} streamed", planner(index).0);
    let (a, b) = dominant_system(n, 11, 1);
    let opts = options(index, grid, ts);
    let aug = TiledMatrix::from_dense_augmented(&a, &b, opts.nb);
    let logged = with_watchdog(&what, move || {
        let mut logged = Logged::new(PlannerStepSource::new(&aug, aug.nt() - 1, &opts));
        stream::execute_with(&mut logged, &StreamOptions::fixed(2, 2));
        let records = logged.source.shared().records.lock().clone();
        (logged.source.context(), logged.log, logged.preds, records)
    });
    let (ctx, log, swept_preds, records) = logged;
    let ctx = &*ctx;
    let at = |op: TaskOp| (op.step(), op.position(ctx));
    let oracle = hazard_predecessors(ctx, log.iter().map(|&(_, op)| op));
    assert_eq!(swept_preds.len(), log.len(), "{what}: every op swept");
    for ((&(_, op), preds), swept) in log.iter().zip(&oracle).zip(&swept_preds) {
        let closed: HashSet<_> = swept.iter().map(|p| (p.step, p.pos)).collect();
        let inferred: HashSet<_> = preds.iter().map(|&p| at(log[p].1)).collect();
        assert_eq!(closed, inferred, "{what}: predecessors of {op:?}");
    }
    records.iter().map(|r| r.decision).collect()
}

/// Every planner, streamed under each TS-domain size on the fixtures;
/// the hybrid under `Random` takes both branches.
#[test]
fn closed_form_predecessors_are_the_hazard_edges_of_a_streamed_run() {
    let mut random = Vec::new();
    for index in 0..PLANNERS {
        for ts in TS {
            for (n, grid) in [(96, (1, 1)), (104, (2, 2)), (100, (1, 2))] {
                let decisions = check_streamed(index, n, grid, ts);
                if planner(index).0 == "hybrid-random" {
                    random.extend(decisions);
                }
            }
        }
    }
    assert!(random.contains(&Decision::Lu) && random.contains(&Decision::Qr));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ragged and tile-aligned orders, every grid, one or three right-hand
    /// sides (a ragged right-hand-side column when `n` is).
    #[test]
    fn closed_form_edges_are_the_hazard_edges(
        index in 0..PLANNERS,
        n in 17usize..=120,
        grid in 0..GRIDS.len(),
        three_rhs in any::<bool>(),
        ts in 0..TS.len(),
    ) {
        check(index, n, GRIDS[grid], if three_rhs { 3 } else { 1 }, TS[ts]);
    }
}
