//! The traced pass: per-layer numbers for one workload.
//!
//! A separate pass from the timed one — the end-to-end metrics never come
//! from here. It times each path a few times untraced and traced in
//! alternation, keeps the traced run with the median wall time of each
//! path (so every number of a path comes from one self-consistent run),
//! and derives the layer metrics from bench-side spans around the public
//! calls plus the per-task events the executors already return. Counts
//! (tasks, flops, steps, frames, bytes) repeat exactly; times are single
//! runs and carry the machine's noise.

use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::Instant;

use luqr::{
    builder, factor_stream_net_opts, keys, solve::back_substitute, NetTransportKind,
    PlannerStepSource, StreamOptions, TraceEvent,
};
use luqr_kernels::{blas, flops, lu, qr, Diag, Mat, Side, Trans, UpLo};
use luqr_runtime::net::socket::{socket_set, SocketSpec};
use luqr_runtime::{execute_traced, stream, DataClass, Frame, Transport};
use luqr_tile::TiledMatrix;

use crate::host::{self, Pinning};
use crate::json::Metric;
use crate::spans::{self_time_by_layer, self_times, Recorder};
use crate::stats::{median, summarize};
use crate::workload::{self, Checker, Path, Problem, Solved, IB, WINDOW};
use crate::Args;

/// Untraced/traced pairs per path; the traced run with the median wall is
/// the one reported and written to the trace file.
const PAIRS: usize = 3;
/// Unpinned repetitions behind each two-worker / two-CPU speed-up.
const UNPINNED_REPS: usize = 3;

/// Every per-layer metric: `(name, unit, better)`. `BENCHMARK.json` lists
/// the same names; a unit test keeps the two in step.
pub const PER_LAYER: [(&str, &str, &str); 48] = [
    ("kernels.gemm_gflops", "GFlop/s", "higher"),
    ("kernels.trsm_gflops", "GFlop/s", "higher"),
    ("kernels.getrf_gflops", "GFlop/s", "higher"),
    ("kernels.geqrt_gflops", "GFlop/s", "higher"),
    ("kernels.unmqr_gflops", "GFlop/s", "higher"),
    ("kernels.tpqrt_gflops", "GFlop/s", "higher"),
    ("kernels.tpmqrt_gflops", "GFlop/s", "higher"),
    ("kernels.qr_over_lu_tile_time", "ratio", "lower"),
    ("kernels.busy_s", "s", "lower"),
    ("kernels.lu_busy_s", "s", "lower"),
    ("kernels.qr_busy_s", "s", "lower"),
    ("kernels.flops", "count", "lower"),
    ("kernels.tasks_executed", "count", "lower"),
    ("tile.pack_s", "s", "lower"),
    ("tile.unpack_s", "s", "lower"),
    ("tile.bytes", "bytes", "lower"),
    ("core.plan_s", "s", "lower"),
    ("core.plan_ns_per_task", "ns", "lower"),
    ("core.tasks_planned_batch", "count", "lower"),
    ("core.tasks_discarded", "count", "lower"),
    ("core.lu_steps", "count", "higher"),
    ("core.qr_steps", "count", "lower"),
    ("core.back_substitute_s", "s", "lower"),
    ("core.hpl3", "ratio", "lower"),
    ("runtime.exec.wall_s", "s", "lower"),
    ("runtime.exec.overhead_s", "s", "lower"),
    ("runtime.exec.overhead_ns_per_task", "ns", "lower"),
    ("runtime.exec.t2_speedup", "ratio", "higher"),
    ("runtime.exec.t2_spread_pct", "%", "lower"),
    ("runtime.stream.wall_s", "s", "lower"),
    ("runtime.stream.overhead_ns_per_task", "ns", "lower"),
    ("runtime.stream.tasks_planned", "count", "lower"),
    ("runtime.stream.peak_live_tasks", "count", "lower"),
    ("runtime.stream.t2_speedup", "ratio", "higher"),
    ("runtime.stream.t2_spread_pct", "%", "lower"),
    ("runtime.net.frames_sent", "count", "lower"),
    ("runtime.net.payload_bytes_sent", "bytes", "lower"),
    ("runtime.net.protocol_msgs", "count", "lower"),
    ("runtime.net.ser_s", "s", "lower"),
    ("runtime.net.de_s", "s", "lower"),
    ("runtime.net.uds_frames_per_s", "1/s", "higher"),
    ("runtime.net.uds_rtt_us", "us", "lower"),
    ("runtime.net.cost_over_stream", "ratio", "lower"),
    ("runtime.net.r2_speedup", "ratio", "higher"),
    ("runtime.net.r2_spread_pct", "%", "lower"),
    ("runtime.net.peak_rss_mb", "MB", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("trace_reconcile_gap_pct", "%", "lower"),
];

/// Collects `(name, value)` pairs and resolves units from [`PER_LAYER`].
#[derive(Default)]
struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        let &(name, unit, _) = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        println!("{name:<36} {value:>16.6} {unit}");
        self.0.push(Metric { name, value, unit });
    }
}

/// Kernel time summed over an executor's task events, split by the branch
/// the kernel belongs to (tasks both branches share — backup, criterion,
/// trial panel, restore — are in the total only).
struct Busy {
    total: f64,
    lu: f64,
    qr: f64,
}

fn busy(events: &[TraceEvent]) -> Busy {
    let mut b = Busy {
        total: 0.0,
        lu: 0.0,
        qr: 0.0,
    };
    for e in events {
        let d = e.end - e.start;
        b.total += d;
        match e.name.split('(').next().unwrap_or("") {
            "GEMM" | "TRSM" | "TRSMTOP" | "SWPINIT" | "PIVSWP" | "GETRF" | "ORMQR" => b.lu += d,
            "GEQRT" | "UNMQR" | "TSQRT" | "TTQRT" | "TSMQR" | "TTMQR" => b.qr += d,
            _ => {}
        }
    }
    b
}

/// One traced solve: its spans (the first is the root), the solve itself
/// for the checks (timed by its spans, so `seconds` stays 0), and what the
/// layer metrics need from it.
struct Traced<L> {
    rec: Recorder,
    solved: Result<Solved, String>,
    layer: L,
}

impl<L> Traced<L> {
    /// Wall time of the root span.
    fn wall(&self) -> f64 {
        self.rec.spans()[0].duration()
    }
}

struct BatchLayer {
    pack_s: f64,
    plan_s: f64,
    exec_wall_s: f64,
    back_s: f64,
    unpack_s: f64,
    tasks_planned: usize,
    tasks_executed: usize,
    tasks_discarded: usize,
    flops: f64,
    busy: Busy,
}

/// The batch path taken apart at its public seams: pack → plan the whole
/// graph → execute it → back-substitute (what `luqr::factor_solve` does).
fn traced_batch(p: &Problem, origin: Instant) -> Traced<BatchLayer> {
    const RUN: u32 = 1;
    let n = p.a.rows();
    let mut rec = Recorder::with_origin(origin);
    luqr_kernels::gemm_kernel::set_kernel_threads(1);
    let (_, (ids, aug, x, report, events, records, error, tasks_planned)) =
        rec.scope("batch", RUN, |rec| {
            let (pack, aug) = rec.scope("tile.pack", RUN, |_| {
                TiledMatrix::from_dense_augmented(&p.a, &p.b, p.opts.nb)
            });
            let nt_a = aug.nt() - p.b.cols().div_ceil(p.opts.nb);
            let (plan, (graph, shared)) = rec.scope("core.plan", RUN, |_| {
                builder::build_graph(&aug, nt_a, &p.opts)
            });
            let (exec, (report, events)) =
                rec.scope("runtime.exec", RUN, |_| execute_traced(&graph, 1));
            let (back, x) = rec.scope("core.back_substitute", RUN, |_| {
                back_substitute(&aug, n, p.b.cols())
            });
            let records = shared.records.lock().clone();
            let error = shared.error.lock().clone();
            let tasks_planned = graph.len();
            // Tearing down ~1e5 task records is a visible slice of batch_s
            // on small tiles (and the memory the streaming path never holds).
            rec.scope("runtime.graph_drop", RUN, |_| drop(graph));
            let ids = (pack, plan, exec, back);
            (ids, aug, x, report, events, records, error, tasks_planned)
        });
    // Not on the solve path, so outside the root span it must reconcile with.
    let (unpack, _) = rec.scope("tile.unpack", RUN, |_| aug.to_dense());
    let (pack, plan, exec, back) = ids;
    let dur = |id: usize| rec.spans()[id].duration();
    let layer = BatchLayer {
        pack_s: dur(pack),
        plan_s: dur(plan),
        exec_wall_s: dur(exec),
        back_s: dur(back),
        unpack_s: dur(unpack),
        tasks_planned,
        tasks_executed: report.tasks_executed,
        tasks_discarded: report.tasks_discarded,
        flops: report.total_flops,
        busy: busy(&events),
    };
    rec.adopt_kernel_events(exec, events);
    Traced {
        solved: Solved::new(x, &records, error, 0.0),
        rec,
        layer,
    }
}

struct StreamLayer {
    wall_s: f64,
    tasks_planned: usize,
    peak_live_tasks: usize,
    busy: Busy,
}

/// The streaming path at its public seams: pack → `stream::execute_with`
/// over a `PlannerStepSource` (planning happens inside, interleaved with
/// execution) → back-substitute (what `luqr::factor_stream` does).
fn traced_stream(p: &Problem, origin: Instant) -> Traced<StreamLayer> {
    const RUN: u32 = 2;
    let n = p.a.rows();
    let mut rec = Recorder::with_origin(origin);
    luqr_kernels::gemm_kernel::set_kernel_threads(1);
    let (_, (exec, x, report, records, error)) = rec.scope("stream", RUN, |rec| {
        let (_, aug) = rec.scope("tile.pack", RUN, |_| {
            TiledMatrix::from_dense_augmented(&p.a, &p.b, p.opts.nb)
        });
        let nt_a = aug.nt() - p.b.cols().div_ceil(p.opts.nb);
        let mut source = PlannerStepSource::new(&aug, nt_a, &p.opts);
        let sopts = StreamOptions::fixed(WINDOW, 1).with_trace();
        let (exec, report) = rec.scope("runtime.stream", RUN, |_| {
            stream::execute_with(&mut source, &sopts)
        });
        let records = source.shared().records.lock().clone();
        let error = source.shared().error.lock().clone();
        let (_, x) = rec.scope("core.back_substitute", RUN, |_| {
            back_substitute(&aug, n, p.b.cols())
        });
        (exec, x, report, records, error)
    });
    let layer = StreamLayer {
        wall_s: rec.spans()[exec].duration(),
        tasks_planned: report.tasks_planned,
        peak_live_tasks: report.peak_live_tasks,
        busy: busy(&report.trace),
    };
    rec.adopt_kernel_events(exec, report.trace);
    Traced {
        solved: Solved::new(x, &records, error, 0.0),
        rec,
        layer,
    }
}

#[derive(Default)]
struct NetLayer {
    frames_sent: u64,
    payload_bytes_sent: u64,
    protocol_msgs: u64,
    ser_s: f64,
    de_s: f64,
}

/// The net path: `factor_stream_net_opts` is the narrowest public call that
/// runs both ranks, so packing and both ranks' planning sit inside its
/// span; the counters are rank 0's `NetReport`.
fn traced_net(p: &Problem, origin: Instant) -> Traced<NetLayer> {
    const RUN: u32 = 3;
    let mut rec = Recorder::with_origin(origin);
    let sopts = StreamOptions::fixed(WINDOW, 1).with_trace();
    let (_, (layer, solved)) = rec.scope("net", RUN, |rec| {
        let (net, f) = rec.scope("runtime.net", RUN, |_| {
            factor_stream_net_opts(&p.a, &p.b, &p.opts, &sopts, &NetTransportKind::Uds)
        });
        let mut f = match f {
            Ok(f) => f,
            Err(e) => return (NetLayer::default(), Err(format!("transport error: {e}"))),
        };
        let (_, x) = rec.scope("core.back_substitute", RUN, |_| f.solution());
        let wire = f.report.net.clone().unwrap_or_default();
        let msgs = f.report.msgs;
        let layer = NetLayer {
            frames_sent: wire.frames_sent,
            payload_bytes_sent: wire.payload_bytes_sent,
            protocol_msgs: msgs.data_msgs + msgs.decision_msgs + msgs.retire_msgs,
            ser_s: wire.serialize_seconds.sum,
            de_s: wire.deserialize_seconds.sum,
        };
        // Rank 0's share of the kernels; its clock starts a little after
        // the call does (socket set-up), which the trace file ignores.
        rec.adopt_kernel_events(net, std::mem::take(&mut f.report.trace));
        (layer, Solved::new(x, &f.records, f.error, 0.0))
    });
    Traced { rec, solved, layer }
}

/// Run every traced candidate through the checks and keep the one with the
/// median wall time.
fn median_run<L>(
    mut runs: Vec<Traced<L>>,
    what: &str,
    p: &Problem,
    checker: &mut Checker,
) -> Traced<L> {
    for r in &mut runs {
        let solved = std::mem::replace(&mut r.solved, Err(String::new()));
        checker.check(what, p, solved);
    }
    runs.sort_by(|a, b| a.wall().total_cmp(&b.wall()));
    runs.swap_remove(runs.len() / 2)
}

/// Seconds and self-reported flops of one kernel call, from timing a pool
/// of fresh copies of `template` per sample (no copy inside the timer).
fn time_kernel<S: Clone>(template: &S, state_bytes: usize, call: impl Fn(&mut S)) -> (f64, f64) {
    const SAMPLES: usize = 9;
    const POOL_BYTES: usize = 8 << 20;
    let ((), counted) = flops::measure(|| call(&mut template.clone()));
    let pool_len = (POOL_BYTES / state_bytes.max(1)).clamp(4, 512);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let mut pool = vec![template.clone(); pool_len];
            let t0 = Instant::now();
            for s in &mut pool {
                call(s);
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(&pool);
            dt / pool_len as f64
        })
        .collect();
    (median(&samples), counted.total() as f64)
}

/// Direct timed calls of the seven tile kernels on `nb × nb` tiles.
fn kernel_rates(nb: usize, seed: u64, out: &mut Out) {
    let tile = |s: u64| Mat::random(nb, nb, seed.wrapping_add(s));
    let tile_bytes = nb * nb * 8;
    let (a, b, c) = (tile(1), tile(2), tile(3));
    // A well-conditioned upper triangle for TRSM.
    let mut u = tile(4).upper_triangular();
    for i in 0..nb {
        u[(i, i)] += nb as f64;
    }
    let mut v = tile(5);
    let tf = qr::geqrt(&mut v, IB);
    let r = v.upper_triangular();
    let mut v2 = tile(6);
    let tf2 = qr::tpqrt(0, &mut r.clone(), &mut v2, IB);

    let gemm = time_kernel(&c, tile_bytes, |c| {
        blas::gemm(Trans::NoTrans, Trans::NoTrans, -1.0, &a, &b, 1.0, c)
    });
    let trsm = time_kernel(&b, tile_bytes, |b| {
        blas::trsm(
            Side::Right,
            UpLo::Upper,
            Trans::NoTrans,
            Diag::NonUnit,
            1.0,
            &u,
            b,
        )
    });
    let getrf = time_kernel(&a, tile_bytes, |a| {
        lu::getrf(a).expect("a random tile is not singular");
    });
    let geqrt = time_kernel(&a, tile_bytes, |a| {
        qr::geqrt(a, IB);
    });
    let unmqr = time_kernel(&c, tile_bytes, |c| qr::unmqr(Trans::Trans, &v, &tf, c));
    let tpqrt = time_kernel(&(r, b.clone()), 2 * tile_bytes, |(r, b)| {
        qr::tpqrt(0, r, b, IB);
    });
    let tpmqrt = time_kernel(&(a.clone(), c.clone()), 2 * tile_bytes, |(a, c)| {
        qr::tpmqrt(Trans::Trans, 0, &v2, &tf2, a, c)
    });

    for (name, (secs, flops)) in [
        ("kernels.gemm_gflops", gemm),
        ("kernels.trsm_gflops", trsm),
        ("kernels.getrf_gflops", getrf),
        ("kernels.geqrt_gflops", geqrt),
        ("kernels.unmqr_gflops", unmqr),
        ("kernels.tpqrt_gflops", tpqrt),
        ("kernels.tpmqrt_gflops", tpmqrt),
    ] {
        out.put(name, flops / secs / 1e9);
    }
    // One QR elimination+update pair against one LU pair; the paper's
    // model says about 2.
    out.put(
        "kernels.qr_over_lu_tile_time",
        (tpqrt.0 + tpmqrt.0) / (trsm.0 + gemm.0),
    );
}

/// The bench's own two-endpoint UDS pump over the repository's socket
/// transport: one-way frame rate and round-trip time of `nb × nb` tile
/// frames, with no factorization attached.
fn uds_pump(nb: usize, dir: &FsPath) -> Result<(f64, f64), String> {
    const ROUND_TRIPS: usize = 500;
    // About 32 MiB one way, whatever the tile size.
    let frames = ((32 << 20) / (nb * nb * 8)).clamp(200, 5000);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let spec = SocketSpec::Uds {
        dir: dir.to_path_buf(),
    };
    let set = socket_set(&spec, 2).map_err(|e| e.to_string())?;
    let tile_frame = |from: u32, to: u32| Frame::Data {
        key: keys::tile(0, 0),
        producer: None,
        from,
        to,
        class: DataClass::Payload,
        modeled_bytes: (nb * nb * 8) as u64,
        payload: vec![0x5a; nb * nb * 8],
    };
    let result = std::thread::scope(|s| {
        // Rank 1 drains the one-way burst, acknowledges it, then echoes.
        let peer = Arc::clone(&set[1]);
        let echo = s.spawn(move || -> Result<(), String> {
            for _ in 0..frames {
                peer.recv().map_err(|e| e.to_string())?;
            }
            peer.send(0, &Frame::Done).map_err(|e| e.to_string())?;
            let back = tile_frame(1, 0);
            for _ in 0..ROUND_TRIPS {
                peer.recv().map_err(|e| e.to_string())?;
                peer.send(0, &back).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let me = &set[0];
        let run = || -> Result<(f64, f64), String> {
            let frame = tile_frame(0, 1);
            let t0 = Instant::now();
            for _ in 0..frames {
                me.send(1, &frame).map_err(|e| e.to_string())?;
            }
            me.recv().map_err(|e| e.to_string())?;
            let frames_per_s = frames as f64 / t0.elapsed().as_secs_f64();
            let mut rtts = Vec::with_capacity(ROUND_TRIPS);
            for _ in 0..ROUND_TRIPS {
                let t0 = Instant::now();
                me.send(1, &frame).map_err(|e| e.to_string())?;
                me.recv().map_err(|e| e.to_string())?;
                rtts.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            Ok((frames_per_s, median(&rtts)))
        };
        let result = run();
        if result.is_err() {
            // Unblock the echo thread before joining it.
            set[1].shutdown();
        }
        let echoed = echo.join().expect("echo thread panicked");
        result.and_then(|r| echoed.map(|()| r))
    });
    for ep in &set {
        ep.shutdown();
    }
    drop(set);
    let _ = std::fs::remove_dir_all(dir);
    result
}

/// Print the self time of each layer of one traced run and return its
/// reconciliation gap: the share of the root span's wall that no span
/// below it accounts for.
fn print_self_times(path: &str, rec: &Recorder) -> f64 {
    let spans = rec.spans();
    let root = &spans[0];
    let root_self = self_times(spans)[0];
    println!(
        "self time by layer, {path} run (traced wall {:.4} s):",
        root.duration()
    );
    let mut layers: Vec<_> = self_time_by_layer(spans)
        .into_iter()
        .filter(|((run, _), _)| *run == root.run)
        .map(|((_, layer), t)| (layer, t))
        .collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (layer, t) in &layers {
        println!(
            "    {layer:<22} {t:>10.4} s  {:>5.1} %",
            100.0 * t / root.duration()
        );
    }
    let gap = 100.0 * root_self / root.duration();
    println!("    spans below the root cover all but {gap:.3} % of it");
    gap
}

pub fn traced_pass(
    args: &Args,
    pin: &Pinning,
    checker: &mut Checker,
    out_dir: &FsPath,
) -> Vec<Metric> {
    let w = args.workload;
    let su = crate::set_up(args, checker);
    let p = &su.problem;
    let pairs = if args.quick { 1 } else { PAIRS };

    // Untraced and traced runs in alternation, path by path.
    let origin = Instant::now();
    let mut untraced: [Vec<f64>; 3] = Default::default();
    let (mut batches, mut streams, mut nets) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..pairs {
        for (i, path) in Path::ALL.into_iter().enumerate() {
            let what = format!("{} untraced", path.name());
            if let Some(s) = checker.check(&what, p, workload::solve(path, p, 1)) {
                untraced[i].push(s.seconds);
            }
            match path {
                Path::Stream => streams.push(traced_stream(p, origin)),
                Path::Batch => batches.push(traced_batch(p, origin)),
                Path::Net => nets.push(traced_net(p, origin)),
            }
        }
    }
    let stream = median_run(streams, "stream traced", p, checker);
    let batch = median_run(batches, "batch traced", p, checker);
    let net = median_run(nets, "net traced", p, checker);
    let untraced_s = untraced.map(|v| if v.is_empty() { f64::NAN } else { median(&v) });
    let [stream_s, batch_s, net_s] = untraced_s;

    // Two workers per rank, and two ranks on two CPUs: unpinned, ungated.
    let unpinned: [Vec<f64>; 3] = pin.unpinned(|| {
        let mut t: [Vec<f64>; 3] = Default::default();
        for _ in 0..if args.quick { 1 } else { UNPINNED_REPS } {
            for (i, path) in Path::ALL.into_iter().enumerate() {
                let threads = if path == Path::Net { 1 } else { 2 };
                let what = format!("{} unpinned, {threads} thread(s) per rank", path.name());
                if let Some(s) = checker.check(&what, p, workload::solve(path, p, threads)) {
                    t[i].push(s.seconds);
                }
            }
        }
        t
    });

    let mut out = Out::default();
    println!("per-layer metrics ({}, seed {}):", w.name, args.seed);
    kernel_rates(w.nb, args.seed, &mut out);
    let b = &batch.layer;
    out.put("kernels.busy_s", b.busy.total);
    out.put("kernels.lu_busy_s", b.busy.lu);
    out.put("kernels.qr_busy_s", b.busy.qr);
    out.put("kernels.flops", b.flops);
    out.put("kernels.tasks_executed", b.tasks_executed as f64);

    out.put("tile.pack_s", b.pack_s);
    out.put("tile.unpack_s", b.unpack_s);
    let n = p.a.rows();
    out.put("tile.bytes", (n * (n + p.b.cols()) * 8) as f64);

    out.put("core.plan_s", b.plan_s);
    out.put(
        "core.plan_ns_per_task",
        1e9 * b.plan_s / b.tasks_planned as f64,
    );
    out.put("core.tasks_planned_batch", b.tasks_planned as f64);
    out.put("core.tasks_discarded", b.tasks_discarded as f64);
    out.put("core.lu_steps", checker.steps.0 as f64);
    out.put("core.qr_steps", checker.steps.1 as f64);
    out.put("core.back_substitute_s", b.back_s);
    out.put("core.hpl3", checker.hpl3);

    let exec_overhead = b.exec_wall_s - b.busy.total;
    out.put("runtime.exec.wall_s", b.exec_wall_s);
    out.put("runtime.exec.overhead_s", exec_overhead);
    out.put(
        "runtime.exec.overhead_ns_per_task",
        1e9 * exec_overhead / b.tasks_planned as f64,
    );
    speedup(&mut out, "runtime.exec.t2", batch_s, &unpinned[1]);

    let s = &stream.layer;
    out.put("runtime.stream.wall_s", s.wall_s);
    out.put(
        "runtime.stream.overhead_ns_per_task",
        1e9 * (s.wall_s - s.busy.total) / s.tasks_planned as f64,
    );
    out.put("runtime.stream.tasks_planned", s.tasks_planned as f64);
    out.put("runtime.stream.peak_live_tasks", s.peak_live_tasks as f64);
    speedup(&mut out, "runtime.stream.t2", stream_s, &unpinned[0]);

    let nl = &net.layer;
    out.put("runtime.net.frames_sent", nl.frames_sent as f64);
    out.put(
        "runtime.net.payload_bytes_sent",
        nl.payload_bytes_sent as f64,
    );
    out.put("runtime.net.protocol_msgs", nl.protocol_msgs as f64);
    out.put("runtime.net.ser_s", nl.ser_s);
    out.put("runtime.net.de_s", nl.de_s);
    let (frames_per_s, rtt_us) =
        uds_pump(w.nb, &std::env::temp_dir().join("pump")).unwrap_or_else(|e| {
            eprintln!("warning: UDS pump failed: {e}");
            (f64::NAN, f64::NAN)
        });
    out.put("runtime.net.uds_frames_per_s", frames_per_s);
    out.put("runtime.net.uds_rtt_us", rtt_us);
    out.put("runtime.net.cost_over_stream", net_s / stream_s);
    speedup(&mut out, "runtime.net.r2", net_s, &unpinned[2]);
    out.put("runtime.net.peak_rss_mb", su.rss_after_mb[2]);

    let traced_total = stream.wall() + batch.wall() + net.wall();
    let untraced_total = stream_s + batch_s + net_s;
    out.put(
        "trace_overhead_pct",
        100.0 * (traced_total - untraced_total) / untraced_total,
    );
    let gap = [
        print_self_times("stream", &stream.rec),
        print_self_times("batch", &batch.rec),
        print_self_times("net", &net.rec),
    ]
    .into_iter()
    .fold(0.0, f64::max);
    out.put("trace_reconcile_gap_pct", gap);

    let mut rec = stream.rec;
    rec.absorb(batch.rec);
    rec.absorb(net.rec);
    let trace_file = out_dir.join(format!("trace-{}.json", w.name));
    match rec.write_chrome_trace(&trace_file) {
        Ok(()) => println!(
            "wrote {} ({} spans)",
            trace_file.display(),
            rec.spans().len()
        ),
        Err(e) => eprintln!("warning: cannot write {}: {e}", trace_file.display()),
    }
    host::vm_hwm_mb().inspect(|mb| println!("VmHWM at the end of the traced pass: {mb:.1} MB"));
    out.0
}

/// `<prefix>_speedup` = pinned one-worker median over the unpinned median,
/// and `<prefix>_spread_pct` = the unpinned runs' (max − min) / median.
fn speedup(out: &mut Out, prefix: &str, pinned_s: f64, unpinned: &[f64]) {
    let (ratio, spread) = if unpinned.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        let s = summarize(unpinned);
        (pinned_s / s.median, 100.0 * (s.max - s.min) / s.median)
    };
    out.put(&format!("{prefix}_speedup"), ratio);
    out.put(&format!("{prefix}_spread_pct"), spread);
}
