//! A step's data cells end with the step — on the batch executor, in the
//! streaming window and on every rank of a real-transport run — and nothing
//! else about the run changes.
//!
//! After every run no step holds data cells any more, while every step's
//! *plan* still answers: the executed batch graph re-derives the names,
//! priced accesses and hazard edges of a graph that never ran, and the ops
//! a streamed or distributed run executed derive the same accesses against
//! that run's context as against the batch one. A net rank's mirror is its
//! share: its home tiles, plus the tiles a frame brought; only rank 0 ends
//! up holding the result, and only rank 0 will back-substitute.

use std::sync::Arc;

use luqr::builder::build_graph;
use luqr::{
    factor, factor_stream, factor_stream_net_rank, Algorithm, Criterion, FactorOptions,
    Factorization, RunCtx, StreamFactorization, StreamOptions, TaskOp,
};
use luqr_runtime::net::loopback::loopback_set;
use luqr_runtime::{simulate, Access, Platform, Transport};
use luqr_tests::dominant_system;
use luqr_tile::{Grid, TiledMatrix};

const N: usize = 104;
const NB: usize = 16;
const WINDOW: usize = 2;

fn planners() -> [(&'static str, Algorithm); 5] {
    let random = Criterion::Random {
        lu_fraction: 0.5,
        seed: 5,
    };
    [
        ("hybrid", Algorithm::LuQr(random)),
        ("lu-nopiv", Algorithm::LuNoPiv),
        ("lupp", Algorithm::Lupp),
        ("lu-incpiv", Algorithm::LuIncPiv),
        ("hqr", Algorithm::Hqr),
    ]
}

fn options(algorithm: &Algorithm, grid: Grid) -> FactorOptions {
    FactorOptions {
        nb: NB,
        ib: 4,
        grid,
        algorithm: algorithm.clone(),
        threads: 2,
        ..FactorOptions::default()
    }
}

/// Every rank of a loopback run, in rank order.
fn net_ranks(
    a: &luqr_kernels::Mat,
    b: &luqr_kernels::Mat,
    opts: &FactorOptions,
) -> Vec<StreamFactorization> {
    let sopts = StreamOptions::fixed(WINDOW, opts.threads);
    std::thread::scope(|s| {
        let ranks: Vec<_> = loopback_set(opts.grid.nodes())
            .into_iter()
            .map(|t| {
                let t: Arc<dyn Transport> = t;
                let sopts = &sopts;
                s.spawn(move || factor_stream_net_rank(a, b, opts, sopts, t))
            })
            .collect();
        ranks
            .into_iter()
            .map(|h| h.join().expect("rank panicked").expect("net run failed"))
            .collect()
    })
}

fn accesses(op: TaskOp, ctx: &RunCtx) -> Vec<Access> {
    let mut out = Vec::new();
    op.for_each_access(ctx, |a| out.push(a));
    out
}

/// The ops of `batch` that executed (the winning branch of every step):
/// what a streamed run of the same problem plans.
fn executed_ops(batch: &Factorization) -> Vec<TaskOp> {
    batch
        .graph
        .tasks()
        .filter(|t| t.result().is_some_and(|r| r.executed))
        .map(|t| t.op())
        .collect()
}

/// `ctx` holds no step data, and its plans derive for `ops` what the batch
/// context derives.
fn assert_released_and_intact(what: &str, ctx: &RunCtx, ops: &[TaskOp], batch: &RunCtx) {
    assert_eq!(ctx.live_steps(), 0, "{what}: steps still holding data");
    for &op in ops {
        assert_eq!(
            accesses(op, ctx),
            accesses(op, batch),
            "{what}: {}",
            op.name()
        );
    }
}

#[test]
fn every_run_releases_its_step_data_and_keeps_its_plans() {
    let (a, b) = dominant_system(N, 11, 1);
    for (label, algorithm) in planners() {
        for grid in [Grid::new(1, 2), Grid::new(2, 2)] {
            let what = format!("{label} on {}x{}", grid.p, grid.q);
            let opts = options(&algorithm, grid);
            let platform = Platform::dancer_nodes(grid.nodes());

            // Batch: every step retired by the executor; the graph still
            // replays — through the simulator, and access by access against
            // a graph that never ran.
            let batch = factor(&a, &b, &opts);
            assert_eq!(batch.error, None, "{what}");
            assert_eq!(batch.graph.ctx().live_steps(), 0, "{what}: batch");
            let aug = TiledMatrix::from_dense_augmented(&a, &b, NB);
            let (fresh, _) = build_graph(&aug, aug.nt() - 1, &opts);
            assert_eq!(fresh.ctx().live_steps(), aug.nt() - 1, "{what}: unexecuted");
            assert_eq!(batch.graph.len(), fresh.len(), "{what}");
            for (ran, planned) in batch.graph.tasks().zip(fresh.tasks()) {
                assert_eq!(ran.name(), planned.name(), "{what}");
                assert_eq!(ran.accesses(), planned.accesses(), "{what}: {}", ran.name());
                assert_eq!(ran.successors(), planned.successors(), "{what}");
            }
            let sim = simulate(&batch.graph, &platform);
            assert!(sim.makespan > 0.0 && sim.messages > 0, "{what}");
            let x = batch.solution();
            let ops = executed_ops(&batch);
            let batch_ctx = batch.graph.ctx();

            let stream = factor_stream(&a, &b, &opts, WINDOW);
            assert_eq!(x.max_abs_diff(&stream.solution()), 0.0, "{what}: stream");
            assert_released_and_intact(&format!("{what}, stream"), stream.ctx(), &ops, batch_ctx);

            let ranks = net_ranks(&a, &b, &opts);
            assert_eq!(x.max_abs_diff(&ranks[0].solution()), 0.0, "{what}: net");
            for (r, f) in ranks.iter().enumerate() {
                assert_released_and_intact(&format!("{what}, rank {r}"), f.ctx(), &ops, batch_ctx);
                assert_eq!(f.records.len(), batch.records.len(), "{what}, rank {r}");
            }
        }
    }
}

/// What a rank holds when a 2×2 run is over: its home tiles, the tiles a
/// data frame delivered, on rank 0 the result — and not the matrix.
#[test]
fn a_net_rank_holds_its_share_and_what_it_was_sent() {
    let (a, b) = dominant_system(N, 11, 1);
    let opts = options(
        &Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        Grid::new(2, 2),
    );
    let grid = opts.grid;
    let ranks = net_ranks(&a, &b, &opts);
    let (mt, nt) = (ranks[0].aug.mt(), ranks[0].aug.nt());
    for (r, f) in ranks.iter().enumerate() {
        let tiles = || (0..mt).flat_map(|i| (0..nt).map(move |j| (i, j)));
        for (i, j) in tiles().filter(|&(i, j)| grid.owner(i, j) == r) {
            assert!(f.aug.holds_tile(i, j), "rank {r} lost its tile ({i},{j})");
        }
        let guests = tiles()
            .filter(|&(i, j)| grid.owner(i, j) != r && f.aug.holds_tile(i, j))
            .count();
        let foreign = tiles().filter(|&(i, j)| grid.owner(i, j) != r).count();
        let wire = f.report.net.as_ref().expect("net report");
        if r == 0 {
            // Rank 0 was also handed the result: everything the solve reads.
            for (i, j) in tiles().filter(|&(i, j)| i <= j || j >= nt - 1) {
                assert!(f.aug.holds_tile(i, j), "result tile ({i},{j}) missing");
            }
        } else {
            // A tile from elsewhere is there only if a frame brought it.
            assert!(
                guests as u64 <= wire.frames_received,
                "rank {r}: {guests} foreign tiles from {} frames",
                wire.frames_received
            );
        }
        assert!(
            guests < foreign,
            "rank {r} holds all {foreign} foreign tiles: a full mirror"
        );
    }
    // The tile in the far corner from rank 3 = (1, 1) is one nothing it
    // runs ever reads.
    assert!(!ranks[3].aug.holds_tile(0, 0));
}

/// The end-of-run hand-off ships rank 0 the tiles the solve reads — on or
/// above the diagonal, and the right-hand side — and nothing else: no tile
/// below the diagonal, no pivots, no snapshots. LU NoPiv makes the count
/// exact: it broadcasts no decisions, so a peer's control frames are its
/// `Done`s, its `Result`s and one `Fin`, and the last writer of every
/// result tile (`TRSMTOP`) runs on the tile's home.
#[test]
fn the_hand_off_ships_the_result_tiles_and_nothing_else() {
    let (a, b) = dominant_system(N, 11, 1);
    let opts = options(&Algorithm::LuNoPiv, Grid::new(2, 2));
    let grid = opts.grid;
    let ranks = net_ranks(&a, &b, &opts);
    let (mt, nt) = (ranks[0].aug.mt(), ranks[0].aug.nt());
    let mut handed_over = 0;
    for (r, f) in ranks.iter().enumerate().skip(1) {
        let result_tiles = (0..mt)
            .flat_map(|i| (0..nt).map(move |j| (i, j)))
            .filter(|&(i, j)| grid.owner(i, j) == r && (i <= j || j >= nt - 1))
            .count() as u64;
        let wire = f.report.net.as_ref().expect("net report");
        let results = wire.ctrl_frames_sent - ranks.len() as u64;
        assert_eq!(results, result_tiles, "rank {r}: Result frames");
        handed_over += results;
    }
    let wire = ranks[0].report.net.as_ref().expect("net report");
    assert_eq!(
        wire.ctrl_frames_received,
        handed_over + 2 * (ranks.len() as u64 - 1),
        "rank 0: every peer's Done, Results and Fin"
    );
}

/// Only rank 0's mirror ever holds the result; asking another rank for the
/// solution is a loud error, not numbers from a partial mirror.
#[test]
fn only_rank_zero_back_substitutes() {
    let (a, b) = dominant_system(48, 3, 1);
    let opts = FactorOptions {
        nb: 8,
        ..options(&Algorithm::LuNoPiv, Grid::new(1, 2))
    };
    let ranks = net_ranks(&a, &b, &opts);
    let x = factor(&a, &b, &opts).solution();
    assert_eq!(x.max_abs_diff(&ranks[0].solution()), 0.0);
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ranks[1].solution()));
    let payload = match refused {
        Ok(_) => panic!("rank 1 back-substituted a mirror that never held the result"),
        Err(payload) => payload,
    };
    let message = payload.downcast_ref::<&str>().expect("a literal message");
    assert!(
        message.contains("only rank 0 holds the result"),
        "{message}"
    );
}
