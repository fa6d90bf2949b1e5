//! One parity harness: every way a factorization executes, checked from a
//! case table through one call site.
//!
//! A [`Case`] is a factorization (its [`FactorOptions`]), a streaming
//! window, an optional probe and a seeded [`Input`]. [`run`] performs it on
//! one [`Path`] — the batch executor, the local streaming window, or the
//! ranks of a real-transport run over loopback mailboxes or Unix-domain
//! sockets — and [`check_parity`] checks what the runtime promises whatever
//! the path: the same solution and LU/QR decisions, bit for bit; ranks that
//! route, link by link, what the batch graph's replay prices; wire frames
//! that are the protocol's messages; and a probe that perturbs nothing.

use std::sync::OnceLock;

use luqr::net::launch::NetJob;
use luqr::{
    factor, factor_stream_net_opts, factor_stream_net_rank, factor_stream_with, Algorithm,
    Criterion, FactorOptions, Factorization, Graph, LinkMsgStats, MsgStats, NetReport,
    NetTransportKind, Probe, ProbeReport, StepRecord, StreamFactorization, StreamOptions,
};
use luqr_kernels::blas::{gemm, Trans};
use luqr_kernels::Mat;
use luqr_runtime::net::loopback::loopback_set;
use luqr_runtime::{simulate, Platform, SimReport, StreamReport, Transport};
use luqr_tile::Grid;

use crate::{
    assert_routing_matches_replay, dominant_system, union_links, well_conditioned, with_watchdog,
};

/// The system a case factors.
#[derive(Clone, Debug)]
pub enum Input {
    /// [`dominant_system`]`(n, seed, nrhs)`.
    Dominant { n: usize, seed: u64, nrhs: usize },
    /// `builder_parity`'s golden fixture: `well_conditioned(50, 2014)`, and
    /// two right-hand sides made from `x_true = Mat::random(50, 2, 41)`.
    Golden,
    /// A multi-process job's problem ([`NetJob::problem`]).
    Job(NetJob),
    /// `dominant_system(n, seed, 1)` with the columns of `A` from `zero_from`
    /// on set to zero: exactly singular.
    Singular {
        n: usize,
        seed: u64,
        zero_from: usize,
    },
}

/// One factorization to perform.
#[derive(Clone, Debug)]
pub struct Case {
    pub opts: FactorOptions,
    /// Live steps of a streamed or net run.
    pub window: usize,
    /// Probe rank 0's window; [`check_parity`] then also runs every streamed
    /// and net path unprobed, and compares.
    pub probe: bool,
    /// Record per-task spans in the window's report.
    pub trace: bool,
    pub input: Input,
}

impl Case {
    /// `algorithm` on `grid`: tiles of 8, inner blocking 4, two threads,
    /// window 2, over `dominant_system(50, 2014, 2)`.
    pub fn new(algorithm: Algorithm, grid: Grid) -> Case {
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid,
            algorithm,
            ..FactorOptions::default()
        };
        let (n, seed, nrhs) = (50, 2014, 2);
        let input = Input::Dominant { n, seed, nrhs };
        Case {
            opts,
            window: 2,
            probe: false,
            trace: false,
            input,
        }
    }

    pub fn window(self, window: usize) -> Case {
        Case { window, ..self }
    }

    pub fn threads(mut self, threads: usize) -> Case {
        self.opts.threads = threads;
        self
    }

    pub fn input(self, input: Input) -> Case {
        Case { input, ..self }
    }

    /// Over [`dominant_system`]`(n, seed, nrhs)`.
    pub fn dominant(self, n: usize, seed: u64, nrhs: usize) -> Case {
        self.input(Input::Dominant { n, seed, nrhs })
    }

    /// `[A | B]`.
    pub fn system(&self) -> (Mat, Mat) {
        match &self.input {
            &Input::Dominant { n, seed, nrhs } => dominant_system(n, seed, nrhs),
            Input::Golden => {
                let (a, x_true) = (well_conditioned(50, 2014), Mat::random(50, 2, 41));
                let mut b = Mat::zeros(50, 2);
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
            Input::Job(job) => job.problem(),
            &Input::Singular { n, seed, zero_from } => {
                let (mut a, b) = dominant_system(n, seed, 1);
                (zero_from..n).for_each(|j| a.col_mut(j).fill(0.0));
                (a, b)
            }
        }
    }
}

/// Where a case executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// [`factor`]: the whole graph built, then executed.
    Batch,
    /// [`factor_stream_with`]: the local window, which runs every node's
    /// tasks and routes nothing.
    Stream,
    /// Every rank over loopback mailboxes, a [`factor_stream_net_rank`]
    /// thread each.
    Loopback,
    /// [`factor_stream_net_opts`] over Unix-domain sockets: rank 0 only.
    Uds,
}

/// What a path produced.
pub struct Outcome {
    pub path: Path,
    pub x: Mat,
    pub records: Vec<StepRecord>,
    pub error: Option<String>,
    /// `Batch`: the factorization, and its graph's replay on
    /// `Platform::dancer_nodes(grid.nodes())` once [`Outcome::replay`] has
    /// asked for it.
    pub batch: Option<(Factorization, OnceLock<SimReport>)>,
    /// The other paths: the run's factorizations, rank 0 first (every rank
    /// on `Loopback`, rank 0 alone otherwise).
    pub ranks: Vec<StreamFactorization>,
    /// What a probed case's probe saw (streamed and net paths).
    pub probe: Option<ProbeReport>,
}

impl Outcome {
    pub fn graph(&self) -> &Graph {
        &self.batch.as_ref().expect("a batch outcome").0.graph
    }

    pub fn replay(&self) -> &SimReport {
        let (f, replay) = self.batch.as_ref().expect("a batch outcome");
        replay.get_or_init(|| simulate(&f.graph, &Platform::dancer_nodes(f.graph.num_nodes)))
    }

    /// Rank 0's window report.
    pub fn report(&self) -> &StreamReport {
        &self.ranks.first().expect("a streamed outcome").report
    }
}

/// Perform `case` on `path`.
pub fn run(case: &Case, path: Path) -> Outcome {
    let case = case.clone();
    let what = format!("{path:?} run of {case:?}");
    with_watchdog(&what, move || perform(&case, path))
}

fn perform(case: &Case, path: Path) -> Outcome {
    let ((a, b), opts) = (case.system(), &case.opts);
    let probe = case.probe.then(Probe::enabled).unwrap_or_default();
    let mut sopts = StreamOptions::fixed(case.window, opts.threads).with_probe(probe.clone());
    sopts.trace = case.trace;
    let (batch, ranks) = match path {
        Path::Batch => (Some((factor(&a, &b, opts), OnceLock::new())), Vec::new()),
        Path::Stream => (None, vec![factor_stream_with(&a, &b, opts, &sopts)]),
        Path::Loopback => (None, loopback_ranks(&a, &b, opts, &sopts)),
        Path::Uds => {
            let f = factor_stream_net_opts(&a, &b, opts, &sopts, &NetTransportKind::Uds);
            (None, vec![f.expect("uds run failed")])
        }
    };
    let (x, records, error) = match (&batch, ranks.first()) {
        (Some((f, _)), _) => (f.solution(), f.records.clone(), f.error.clone()),
        (None, Some(f)) => (f.solution(), f.records.clone(), f.error.clone()),
        (None, None) => unreachable!("every path yields a factorization"),
    };
    let probe = (case.probe && path != Path::Batch).then(|| probe.report());
    Outcome {
        path,
        x,
        records,
        error,
        batch,
        ranks,
        probe,
    }
}

/// Every rank of a loopback run, in rank order; peers run unprobed.
pub fn loopback_ranks(
    a: &Mat,
    b: &Mat,
    opts: &FactorOptions,
    sopts: &StreamOptions,
) -> Vec<StreamFactorization> {
    let peer = &sopts.clone().with_probe(Probe::disabled());
    std::thread::scope(|s| {
        let ranks: Vec<_> = loopback_set(opts.grid.nodes())
            .into_iter()
            .map(|t| {
                let sopts = if t.rank() == 0 { sopts } else { peer };
                s.spawn(move || factor_stream_net_rank(a, b, opts, sopts, t))
            })
            .collect();
        let join = |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("rank panicked");
        ranks
            .into_iter()
            .map(|h| join(h).expect("net run failed"))
            .collect()
    })
}

/// Run `case` on every path of `paths` and check each against the first:
///
/// * the same `error`, `x` bit for bit and the same decision at every step;
///   among streamed and net paths, the criterion's `lhs`/`rhs` bits too;
/// * `Stream`: at most `window` live steps, no more live tasks than the
///   heaviest `window` steps plan, and nothing routed;
/// * `Loopback`/`Uds`: every rank's wire frames are the protocol messages
///   on its links, and its message totals those links' sum;
/// * `Loopback`, where every rank reports: both ends of every link count it
///   alike and, beside `Batch`, the ranks' payload traffic is the replay's
///   on every link;
/// * `Uds`, beside `Loopback`: rank 0's messages, per link, are that run's
///   rank 0's;
/// * a probed case: the path run unprobed moves the same bits, messages
///   and wire counters.
///
/// Returns the outcomes, in `paths` order.
pub fn check_parity(case: &Case, paths: &[Path]) -> Vec<Outcome> {
    let outs: Vec<Outcome> = paths.iter().map(|&p| run(case, p)).collect();
    let find = |path| outs.iter().find(|o| o.path == path);
    let (first, streamed) = (&outs[0], outs.iter().find(|o| o.path != Path::Batch));
    let steps = |r: &[StepRecord], exact: bool| -> Vec<_> {
        let criterion = |r: &StepRecord| exact.then(|| (r.lhs.to_bits(), r.rhs.to_bits()));
        r.iter().map(|r| (r.k, r.decision, criterion(r))).collect()
    };
    for o in &outs {
        let what = format!("{case:?} on {:?} vs {:?}", o.path, first.path);
        assert_eq!(o.error, first.error, "{what}: error");
        assert_eq!(bits(&o.x), bits(&first.x), "{what}: x");
        assert_eq!(
            steps(&o.records, false),
            steps(&first.records, false),
            "{what}"
        );
        let Some(s) = streamed.filter(|_| o.path != Path::Batch) else {
            continue;
        };
        assert_eq!(steps(&o.records, true), steps(&s.records, true), "{what}");
        let report = o.report();
        if o.path == Path::Stream {
            // The window bound, in steps and in tasks: no more live tasks
            // than the heaviest `window` consecutive steps plan.
            assert!(report.peak_live_steps <= case.window, "{what}: live steps");
            let steps = &report.per_step_tasks;
            let heaviest = steps.windows(case.window.min(steps.len()).max(1));
            let heaviest = heaviest.map(|w| w.iter().sum()).max().unwrap_or(0);
            assert!(report.peak_live_tasks <= heaviest, "{what}: live tasks");
            assert_eq!(report.msgs, MsgStats::default(), "{what}: routed");
            assert!(
                report.link_msgs.is_empty() && report.net.is_none(),
                "{what}"
            );
        } else {
            for (r, f) in o.ranks.iter().enumerate() {
                assert_wire_is_protocol(&f.report, (r, case.opts.grid.nodes()), &what);
                let total = msg_total(&f.report.link_msgs);
                assert_eq!(f.report.msgs, total, "{what}, rank {r}: messages");
            }
            if o.path == Path::Loopback {
                let links = union_links(o.ranks.iter().map(|f| &f.report));
                if let Some(batch) = find(Path::Batch) {
                    let replay = &batch.replay().link_messages;
                    assert_routing_matches_replay(&links, replay, &what);
                }
            } else if let Some(loopback) = find(Path::Loopback) {
                let rank0 = loopback.report();
                assert_eq!(
                    report.link_msgs, rank0.link_msgs,
                    "{what}: messages per link"
                );
            }
        }
        if case.probe {
            let mut plain = case.clone();
            plain.probe = false;
            let plain = run(&plain, o.path);
            assert_eq!(bits(&o.x), bits(&plain.x), "{what}: probed x");
            for (p, q) in o.ranks.iter().zip(&plain.ranks) {
                assert_eq!(p.report.msgs, q.report.msgs, "{what}: probed msgs");
                assert_eq!(p.report.link_msgs, q.report.link_msgs, "{what}");
                let wire = |r: &StreamReport| r.net.as_ref().map(wire_counters);
                assert_eq!(wire(&p.report), wire(&q.report), "{what}: probed wire");
            }
        }
    }
    outs
}

/// Rank `r` of `nodes` says so, and every frame it sent or received is a
/// data or decision message on one of its links, as its per-link protocol
/// tally says.
pub(crate) fn assert_wire_is_protocol(
    report: &StreamReport,
    (r, nodes): (usize, usize),
    what: &str,
) {
    let (wire, what) = (
        report.net.as_ref().expect("net report"),
        format!("{what}, rank {r}"),
    );
    assert_eq!((wire.rank, wire.nranks), (r, nodes), "{what}");
    let protocol = |keep: &dyn Fn(usize, usize) -> bool| -> u64 {
        let links = report.link_msgs.iter().filter(|l| keep(l.src, l.dst));
        links.map(|l| l.msgs.payload_msgs()).sum()
    };
    let sent = protocol(&|src, dst| src == r && dst != r);
    let received = protocol(&|src, dst| dst == r && src != r);
    assert_eq!(wire.frames_sent, sent, "{what}: frames sent");
    assert_eq!(wire.frames_received, received, "{what}: frames received");
    if nodes > 1 {
        // Done and Fin/Shutdown at the least.
        assert!(wire.ctrl_frames_sent > 0, "{what}: no control frames sent");
        assert!(wire.ctrl_frames_received > 0, "{what}");
    }
}

/// The counters of `links`, summed.
pub fn msg_total(links: &[LinkMsgStats]) -> MsgStats {
    links.iter().fold(MsgStats::default(), |t, l| MsgStats {
        data_msgs: t.data_msgs + l.msgs.data_msgs,
        decision_msgs: t.decision_msgs + l.msgs.decision_msgs,
        bytes: t.bytes + l.msgs.bytes,
        ..t
    })
}

fn wire_counters(w: &NetReport) -> [u64; 4] {
    let (sent, received) = (w.payload_bytes_sent, w.payload_bytes_received);
    [w.frames_sent, w.frames_received, sent, received]
}

/// `x`'s bits: a bitwise comparison that holds for `NaN` too.
pub fn bits(x: &Mat) -> Vec<u64> {
    x.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The proptests' algorithm decoder (the vendored proptest shim has no
/// heterogeneous `prop_oneof`): `sel` picks one of the ten combos — six
/// hybrid criteria, four baselines — and `raw` seeds its parameters.
pub fn algorithm_from(sel: usize, raw: u64) -> Algorithm {
    let alpha = (raw % 1000) as f64;
    let random = Criterion::Random {
        lu_fraction: 0.5,
        seed: raw,
    };
    match sel % 10 {
        0 => Algorithm::LuQr(Criterion::Max { alpha }),
        1 => Algorithm::LuQr(Criterion::Sum { alpha }),
        2 => Algorithm::LuQr(Criterion::Mumps { alpha }),
        3 => Algorithm::LuQr(random),
        4 => Algorithm::LuQr(Criterion::AlwaysQr),
        5 => Algorithm::LuQr(Criterion::AlwaysLu),
        6 => Algorithm::LuNoPiv,
        7 => Algorithm::LuIncPiv,
        8 => Algorithm::Lupp,
        _ => Algorithm::Hqr,
    }
}
