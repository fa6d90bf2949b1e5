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

use luqr::builder::build_graph;
use luqr::{Algorithm, Criterion, Graph, RunCtx, TaskOp};
use luqr_runtime::Access;
use luqr_tests::paths::{check_parity, run, Case, Path};
use luqr_tile::{Grid, TiledMatrix};

const N: usize = 104;
const NB: usize = 16;

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

/// `algorithm` on `grid` over `dominant_system(N, 11, 1)`, tiles of `NB`.
fn case(algorithm: &Algorithm, grid: Grid) -> Case {
    let mut case = Case::new(algorithm.clone(), grid);
    case.opts.nb = NB;
    case.dominant(N, 11, 1)
}

fn accesses(op: TaskOp, ctx: &RunCtx) -> Vec<Access> {
    let mut out = Vec::new();
    op.for_each_access(ctx, |a| out.push(a));
    out
}

/// The ops of `graph` that executed (the winning branch of every step):
/// what a streamed run of the same problem plans.
fn executed_ops(graph: &Graph) -> Vec<TaskOp> {
    let executed = graph
        .tasks()
        .filter(|t| t.cost().is_some_and(|r| r.executed));
    executed.map(|t| t.op()).collect()
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
    for (label, algorithm) in planners() {
        for grid in [Grid::new(1, 2), Grid::new(2, 2)] {
            let what = format!("{label} on {}x{}", grid.p, grid.q);
            let case = case(&algorithm, grid);
            let outs = check_parity(&case, &[Path::Batch, Path::Stream, Path::Loopback]);
            let (batch, stream, net) = (&outs[0], &outs[1], &outs[2]);
            assert_eq!(batch.error, None, "{what}");

            // Batch: every step retired by the executor; the graph still
            // replays — through the simulator, and access by access against
            // a graph that never ran.
            let graph = batch.graph();
            assert_eq!(graph.ctx().live_steps(), 0, "{what}: batch");
            let (a, b) = case.system();
            let aug = TiledMatrix::from_dense_augmented(&a, &b, NB);
            let (fresh, _) = build_graph(&aug, aug.nt() - 1, &case.opts);
            assert_eq!(fresh.ctx().live_steps(), aug.nt() - 1, "{what}: unexecuted");
            assert_eq!(graph.len(), fresh.len(), "{what}");
            for (ran, planned) in graph.tasks().zip(fresh.tasks()) {
                assert_eq!(ran.name(), planned.name(), "{what}");
                assert_eq!(ran.accesses(), planned.accesses(), "{what}: {}", ran.name());
                let (ran_succs, planned_succs): (Vec<_>, Vec<_>) =
                    (ran.successors().collect(), planned.successors().collect());
                assert_eq!(ran_succs, planned_succs, "{what}");
            }
            let sim = batch.replay();
            assert!(sim.makespan > 0.0 && sim.messages > 0, "{what}");

            let ops = executed_ops(graph);
            let stream_ctx = stream.ranks[0].ctx();
            assert_released_and_intact(&format!("{what}, stream"), stream_ctx, &ops, graph.ctx());
            for (r, f) in net.ranks.iter().enumerate() {
                assert_released_and_intact(
                    &format!("{what}, rank {r}"),
                    f.ctx(),
                    &ops,
                    graph.ctx(),
                );
                assert_eq!(f.records.len(), batch.records.len(), "{what}, rank {r}");
            }
        }
    }
}

/// What a rank holds when a 2×2 run is over: its home tiles, the tiles a
/// data frame delivered, on rank 0 the result — and not the matrix.
#[test]
fn a_net_rank_holds_its_share_and_what_it_was_sent() {
    let grid = Grid::new(2, 2);
    let max = Algorithm::LuQr(Criterion::Max { alpha: 100.0 });
    let ranks = run(&case(&max, grid), Path::Loopback).ranks;
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
    let grid = Grid::new(2, 2);
    let ranks = run(&case(&Algorithm::LuNoPiv, grid), Path::Loopback).ranks;
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
    let case = Case::new(Algorithm::LuNoPiv, Grid::new(1, 2)).dominant(48, 3, 1);
    // Rank 0's solution is the batch one, bitwise.
    let outs = check_parity(&case, &[Path::Batch, Path::Loopback]);
    let ranks = &outs[1].ranks;
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
