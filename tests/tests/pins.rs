//! Deterministic pins of the cost model, the schedulers and the protocol.
//!
//! Every exact value below is a field of the `BENCH_{sched,distsim,stream,
//! net}.json` baselines the `cargo bench` harnesses used to write,
//! reproduced to the last digit by a run of those harnesses at the commit
//! that retired them. They are counts and *simulated* nanoseconds — none
//! is a measurement of this host — so a change that moves one has changed
//! what a planner emits, what the platform model charges, or what a
//! scheduling policy decides, and must say so by updating the value here.
//! `peak_live_tasks` is absent on purpose: it depends on thread timing
//! (`stream_exec` and `stream_props` bound it instead).
//!
//! Those baselines predate the reduction trees' TS level, so the shared
//! fixture runs the trees they were recorded under ([`luqr_tests::TWO_LEVEL`], `ts = 1`);
//! the rows marked "default tree" pin the same quantities under
//! [`TreeConfig::default`].
//!
//! The two wall-clock bars the harnesses asserted are `#[ignore]`d; CI runs
//! them with
//! `cargo test --release -p luqr-tests --test pins -- --include-ignored`.
//!
//! Every factorization runs under [`with_watchdog`], so a release lost in
//! an executor fails the pin that hung instead of the whole binary.

use std::time::Instant;

use luqr::{
    factor, factor_stream, factor_stream_net, factor_stream_with, Algorithm, Criterion,
    FactorOptions, Factorization, LinkMsgStats, NetTransportKind, Probe, SchedPolicy,
    StreamOptions, TreeConfig,
};
use luqr_kernels::blas::{gemm, gemm_reference, Trans};
use luqr_kernels::Mat;
use luqr_runtime::{simulate, simulate_with, Platform, SimReport, StreamReport};
use luqr_tests::paths::loopback_ranks;
use luqr_tests::{assert_routing_matches_replay, union_links, with_watchdog, TWO_LEVEL};
use luqr_tile::Grid;

/// The fixture every retired harness shared: a general random system (its
/// pivoting and criterion-driven QR steps give the DAG both branches) under
/// the hybrid at Max α = 1000, one worker.
fn fixture(n: usize, nb: usize, grid: Grid) -> (Mat, Mat, FactorOptions) {
    let opts = FactorOptions {
        nb,
        ib: nb / 2,
        threads: 1,
        grid,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 1000.0 }),
        trees: TWO_LEVEL,
        ..FactorOptions::default()
    };
    (Mat::random(n, n, 1), Mat::random(n, 1, 2), opts)
}

fn factored(n: usize, nb: usize) -> Factorization {
    let (a, b, opts) = fixture(n, nb, Grid::new(2, 2));
    batch(&format!("n = {n}, nb = {nb}"), a, b, opts)
}

/// [`factor`] under the watchdog, named by `what`.
fn batch(what: &str, a: Mat, b: Mat, opts: FactorOptions) -> Factorization {
    with_watchdog(&format!("batch run, {what}"), move || factor(&a, &b, &opts))
}

/// [`factor_stream`]'s report under the watchdog, named by `what`.
fn streamed(what: &str, a: &Mat, b: &Mat, opts: &FactorOptions, window: usize) -> StreamReport {
    let (a, b, opts) = (a.clone(), b.clone(), opts.clone());
    let what = format!("streamed run, {what}, window {window}");
    with_watchdog(&what, move || factor_stream(&a, &b, &opts, window).report)
}

/// The per-link messages of a loopback run's ranks under the watchdog,
/// named by `what`.
fn loopback_links(
    what: &str,
    a: &Mat,
    b: &Mat,
    opts: &FactorOptions,
    window: usize,
) -> Vec<LinkMsgStats> {
    let (a, b, opts) = (a.clone(), b.clone(), opts.clone());
    let what = format!("loopback run, {what}");
    with_watchdog(&what, move || {
        let ranks = loopback_ranks(&a, &b, &opts, &StreamOptions::fixed(window, opts.threads));
        union_links(ranks.iter().map(|f| &f.report))
    })
}

/// `(sim_makespan_ns, sim_messages)` of a report, the makespan as the
/// baselines recorded it: nanoseconds, printed to one decimal.
fn row(sim: &SimReport) -> (f64, u64) {
    let printed = format!("{:.1}", sim.makespan * 1e9);
    (printed.parse().expect("a decimal"), sim.messages)
}

/// Replay under every policy, in [`SchedPolicy::all`] order (fifo,
/// critical-path). FIFO is the insertion-order `simulate()`.
fn policy_sweep(f: &Factorization, platform: &Platform) -> [SimReport; 2] {
    SchedPolicy::all().map(|policy| simulate_with(&f.graph, platform, policy))
}

#[test]
fn sched_homogeneous_n320_pins() {
    let sims = policy_sweep(&factored(320, 16), &Platform::dancer_nodes(4));
    assert_eq!(sims.each_ref().map(row), [(743441.6, 538), (670287.9, 538)]);
}

/// Default tree: HQR kills most tiles with TS kernels (1 981 executed
/// TSMQRs here), so these rows price the TS kill that the `ts = 1` rows
/// above never run. Depth order loses to FIFO on this fixture.
#[test]
fn sched_hqr_default_tree_n320_pins() {
    let (a, b, opts) = fixture(320, 16, Grid::new(2, 2));
    let opts = opts
        .with_algorithm(Algorithm::Hqr)
        .with_trees(TreeConfig::default());
    let f = batch("HQR, default tree", a, b, opts);
    assert_eq!(f.graph.len(), 3808);
    let ts_applies = f
        .graph
        .tasks()
        .filter(|t| t.name().starts_with("TSMQR") && t.cost().is_some_and(|c| c.executed));
    assert_eq!(ts_applies.count(), 1981);
    let sims = policy_sweep(&f, &Platform::dancer_nodes(4));
    assert_eq!(
        sims.each_ref().map(row),
        [(1037450.7, 746), (2218825.5, 746)]
    );
}

/// The batch graph's replay is the one cost model, and what the loopback
/// ranks route online is what it prices: the same messages on every link,
/// at every window.
#[test]
fn distsim_batch_replay_and_online_sim_agree_on_pinned_values() {
    let platform = Platform::dancer_nodes(4);
    for (n, batch_tasks, want) in [
        (160, 9786, (402220.2, 535)),
        (240, 30956, (676501.4, 1105)),
        (320, 70976, (999070.0, 1875)),
    ] {
        let (a, b, opts) = fixture(n, 8, Grid::new(2, 2));
        let what = format!("n = {n}");
        let graph = batch(&what, a.clone(), b.clone(), opts.clone()).graph;
        assert_eq!(graph.len(), batch_tasks, "n = {n}");
        let replay = simulate(&graph, &platform);
        assert_eq!(row(&replay), want, "n = {n}");
        for window in [2, 4] {
            let what = format!("n = {n}, window {window}");
            let links = loopback_links(&what, &a, &b, &opts, window);
            assert_routing_matches_replay(&links, &replay.link_messages, &what);
        }
    }
}

/// The batch graph carries both branches of every hybrid step; the window
/// plans only the chosen one, whatever its depth.
#[test]
fn stream_task_count_pins() {
    for (trees, n, batch_tasks, tasks_planned) in [
        (TWO_LEVEL, 160, 9869, 3939),
        (TWO_LEVEL, 240, 31154, 11809),
        (TWO_LEVEL, 320, 71339, 26279),
        // Default tree: every step of this fixture takes LU, so only the
        // batch graph's discarded QR branches shrink.
        (TreeConfig::default(), 240, 23906, 11809),
    ] {
        let (a, b, opts) = fixture(n, 8, Grid::single());
        let opts = opts.with_trees(trees);
        let what = format!("n = {n}, ts = {}", trees.ts);
        let graph = batch(&what, a.clone(), b.clone(), opts.clone()).graph;
        assert_eq!(graph.len(), batch_tasks, "{what}");
        for window in [2, 4] {
            let report = streamed(&what, &a, &b, &opts, window);
            assert_eq!(
                report.tasks_planned, tasks_planned,
                "{what}, window {window}"
            );
        }
    }
}

/// What crosses the wire is a property of the protocol, not of the
/// transport that carries it: rank 0's protocol messages (the payload
/// messages on the links that touch it), frames and payload bytes sent.
#[test]
fn net_e2e_n320_counts_are_the_same_on_every_transport() {
    let (n, nb) = (320, 32);
    let mut a = Mat::random(n, n, 42);
    for i in 0..n {
        if (i / nb).is_multiple_of(2) {
            a[(i, i)] += n as f64;
        }
    }
    let b = Mat::random(n, 2, 7);
    let mut opts = FactorOptions::default()
        .with_nb(nb)
        .with_grid(Grid::new(2, 2))
        .with_algorithm(Algorithm::LuQr(Criterion::Max { alpha: 6.0 }));
    opts.ib = 8;
    opts.threads = 2;
    for (trees, want) in [
        (TWO_LEVEL, (136, 73, 331_446)),
        // Default tree.
        (TreeConfig::default(), (112, 61, 269_886)),
    ] {
        let opts = opts.clone().with_trees(trees);
        for kind in [NetTransportKind::Loopback, NetTransportKind::Uds] {
            let what = format!("{kind:?} run, ts = {}", trees.ts);
            let (a, b, opts) = (a.clone(), b.clone(), opts.clone());
            let report = with_watchdog(&what, move || {
                factor_stream_net(&a, &b, &opts, 4, &kind)
                    .expect("net run")
                    .report
            });
            let msgs = report.msgs;
            let wire = report.net.expect("net report");
            assert_eq!(
                (
                    msgs.data_msgs + msgs.decision_msgs,
                    wire.frames_sent,
                    wire.payload_bytes_sent
                ),
                want,
                "{what}"
            );
        }
    }
}

/// How many times slower `g` is than `f`: the median, over twenty
/// alternating rounds after one warm-up round, of the round's own ratio.
/// Pairing each `g` with the `f` that ran beside it keeps a slow spell of
/// the host from landing on one side only.
fn times_slower(mut f: impl FnMut(), mut g: impl FnMut()) -> f64 {
    let seconds = |run: &mut dyn FnMut()| {
        let t0 = Instant::now();
        run();
        t0.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..21)
        .map(|_| {
            let t = seconds(&mut f);
            seconds(&mut g) / t
        })
        .skip(1)
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

#[test]
#[ignore = "wall-clock bar; run in the release profile"]
fn packed_gemm_is_twice_the_reference_at_n256() {
    let n = 256;
    let (a, b) = (Mat::random(n, n, 1), Mat::random(n, n, 2));
    let (mut c, mut c_ref) = (Mat::random(n, n, 3), Mat::random(n, n, 3));
    let no = Trans::NoTrans;
    let speedup = times_slower(
        || gemm(no, no, 1.0, &a, &b, 0.0, &mut c),
        || gemm_reference(no, no, 1.0, &a, &b, 0.0, &mut c_ref),
    );
    eprintln!("packed GEMM at n = {n}: {speedup:.2}x the reference");
    assert!(speedup >= 2.0, "packed GEMM is {speedup:.2}x the reference");
}

#[test]
#[ignore = "wall-clock bar; run in the release profile"]
fn probes_on_cost_under_five_percent() {
    let (a, b, opts) = fixture(256, 8, Grid::single());
    // One watchdog over all 42 runs: one per run would add a thread start
    // to each side of every ratio.
    let ratio = with_watchdog("probed vs unprobed streamed runs", move || {
        times_slower(
            || {
                factor_stream_with(&a, &b, &opts, &StreamOptions::fixed(4, 1));
            },
            || {
                let probe = Probe::enabled();
                let stream_opts = StreamOptions::fixed(4, 1).with_probe(probe.clone());
                factor_stream_with(&a, &b, &opts, &stream_opts);
                probe.report();
            },
        )
    });
    let overhead_pct = 100.0 * (ratio - 1.0);
    eprintln!("probe overhead (median of twenty paired runs): {overhead_pct:.2}%");
    assert!(ratio <= 1.05, "probes-on costs {overhead_pct:.2}% > 5%");
}
