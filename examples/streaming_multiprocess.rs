//! Distributed streaming across **real worker processes**: spawn one
//! `luqr-worker` per rank of the process grid, meshed over Unix-domain
//! sockets, and verify the run against the in-process reference —
//! bitwise-identical solution and records, exactly equal protocol message
//! counts per link.
//!
//! ```text
//! cargo run --release --example streaming_multiprocess [n] [workers] [window]
//! ```
//!
//! `workers` must be 1, 2, or 4 (grids 1x1 / 1x2 / 2x2). The worker
//! binary is located via `$LUQR_WORKER` or next to this example's
//! executable; build it first with
//! `cargo build --release -p luqr --bin luqr-worker`.

use luqr::net::launch::{launch_multiprocess, NetJob};
use luqr::net::NetTransportKind;
use luqr::{factor_stream, factor_stream_net, Algorithm, Criterion};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(320, |s| s.parse().expect("bad n"));
    let workers: usize = args.next().map_or(4, |s| s.parse().expect("bad workers"));
    let window: usize = args.next().map_or(4, |s| s.parse().expect("bad window"));
    let (p, q) = match workers {
        1 => (1, 1),
        2 => (1, 2),
        4 => (2, 2),
        w => panic!("workers must be 1, 2, or 4 (got {w})"),
    };

    // α = 6 on a diagonally dominant system yields a genuinely mixed
    // hybrid run: some steps take the LU fast path, some fail the
    // criterion and fall back to QR.
    let job = NetJob {
        n,
        nrhs: 2,
        seed: 42,
        nb: 32,
        ib: 8,
        p,
        q,
        threads: 2,
        window,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 6.0 }),
    };
    let (a, b) = job.problem();
    let opts = job.options();

    println!(
        "multi-process distributed streaming: n={n} grid={p}x{q} window={window} {}",
        opts.algorithm.name()
    );

    // In-process references: the plain streaming run (numerics oracle) and
    // the loopback-transport run (message-count oracle, same SPMD path).
    let reference = factor_stream(&a, &b, &opts, window);
    assert!(reference.error.is_none(), "reference run broke down");
    let loopback =
        factor_stream_net(&a, &b, &opts, window, &NetTransportKind::Loopback).expect("loopback");

    // The real thing: `workers` separate OS processes over UDS.
    let deadline = std::time::Duration::from_secs(300);
    let mp = launch_multiprocess(&job, None, deadline).expect("multi-process run");
    assert!(mp.error.is_none(), "multi-process run broke down");
    let x_mp = mp.solution.as_ref().expect("rank 0 reports a solution");

    // Bitwise numerics parity with the in-process runs.
    let x_ref = reference.solution();
    assert_eq!(
        x_ref.max_abs_diff(x_mp),
        0.0,
        "multi-process solution diverged from in-process streaming"
    );
    assert_eq!(
        x_ref.max_abs_diff(&loopback.solution()),
        0.0,
        "loopback solution diverged from in-process streaming"
    );

    // Step-for-step decision parity (bitwise criterion values included).
    assert_eq!(reference.records.len(), mp.records.len());
    let mut lu_steps = 0;
    for (rr, rm) in reference.records.iter().zip(&mp.records) {
        assert_eq!(rr.k, rm.k);
        assert_eq!(rr.decision, rm.decision, "step {} decision", rr.k);
        assert_eq!(rr.lhs.to_bits(), rm.lhs.to_bits(), "step {} lhs", rr.k);
        assert_eq!(rr.rhs.to_bits(), rm.rhs.to_bits(), "step {} rhs", rr.k);
        if rr.decision == luqr::Decision::Lu {
            lu_steps += 1;
        }
    }
    assert!(
        lu_steps > 0 && lu_steps < reference.records.len(),
        "expected a mixed hybrid run, got {lu_steps}/{} LU steps",
        reference.records.len()
    );

    // Exact protocol message-count parity with the in-process transport
    // run on rank 0's links, total and per directed link.
    assert_eq!(
        loopback.report.msgs, mp.msgs,
        "multi-process MsgStats diverged from in-process"
    );
    assert_eq!(
        loopback.report.link_msgs, mp.link_msgs,
        "per-link MsgStats diverged"
    );

    // Residual sanity on the multi-process solution.
    let mut residual = b.clone();
    luqr_kernels::blas::gemm(
        luqr_kernels::Trans::NoTrans,
        luqr_kernels::Trans::NoTrans,
        -1.0,
        &a,
        x_mp,
        1.0,
        &mut residual,
    );
    let rnorm = residual
        .as_slice()
        .iter()
        .fold(0.0f64, |m, &v| m.max(v.abs()));
    assert!(rnorm / (n as f64) < 1e-8, "residual {rnorm}");

    println!(
        "  workers={workers}: rank 0's links: {} data + {} decision msgs, {} bytes modeled",
        mp.msgs.data_msgs, mp.msgs.decision_msgs, mp.msgs.bytes
    );
    println!(
        "  rank0 wire: {} frames sent / {} received, {} payload bytes sent / {} received",
        mp.frames_sent, mp.frames_received, mp.payload_bytes_sent, mp.payload_bytes_received
    );
    println!(
        "  {} LU steps / {} total; solution bitwise-equal to in-process run; residual {rnorm:.3e}",
        lu_steps,
        reference.records.len()
    );
    println!("OK");
}
