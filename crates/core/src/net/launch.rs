//! Multi-process deployment: the `luqr-worker` protocol and launcher.
//!
//! A distributed run across real processes needs four agreements between
//! the launcher and its workers: the *problem* (every rank must build the
//! same matrix — SPMD), the *plan* (every rank must unroll the same task
//! graph from it), the *rendezvous* (where the socket mesh lives), and the
//! *result* (how rank 0 reports back). All four are deliberately minimal:
//! a [`NetJob`] is a seed-and-shape description passed on the command line
//! (no matrix ever crosses a pipe) together with the launcher's
//! [`NetJob::plan_fingerprint`], which a worker built from other sources —
//! a stale binary of the sibling profile, typically — checks against its
//! own and refuses on a mismatch instead of diverging mid-run; the
//! rendezvous is a UDS directory; and the result is a
//! small hand-rolled binary file ([`WorkerResult`]) with the solution,
//! per-step records, and message statistics — everything the parity
//! oracles compare.
//!
//! [`launch_multiprocess`] spawns one `luqr-worker` per rank (binary
//! located via `$LUQR_WORKER` or next to the current executable), waits
//! for the set, and decodes rank 0's result file. [`worker_main`] is the
//! whole worker binary, kept here so it is unit-testable.

use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

use luqr_kernels::Mat;
use luqr_runtime::net::socket::{SocketEndpoint, SocketSpec};
use luqr_runtime::{LinkMsgStats, MsgStats, StreamOptions, Transport, TransportError};
use luqr_tile::Grid;

use super::payload::{encode_record, put_mat, put_u64, Rd};
use super::{factor_stream_net_rank, ScratchDir};
use crate::config::{Algorithm, FactorOptions, StepRecord};
use crate::criteria::Criterion;
use crate::StreamFactorization;

/// A problem every rank can reconstruct from its command line alone.
#[derive(Debug, Clone)]
pub struct NetJob {
    /// Matrix order.
    pub n: usize,
    /// Right-hand-side columns.
    pub nrhs: usize,
    /// Seed for the deterministic problem generator ([`NetJob::problem`]).
    pub seed: u64,
    /// Tile size / QR inner blocking.
    pub nb: usize,
    pub ib: usize,
    /// Process grid (`p × q` ranks).
    pub p: usize,
    pub q: usize,
    /// Worker threads per rank.
    pub threads: usize,
    /// Streaming window (consecutive live elimination steps).
    pub window: usize,
    /// Algorithm; must survive [`alg_spec`] / [`parse_alg_spec`].
    pub algorithm: Algorithm,
}

impl NetJob {
    /// The job's deterministic problem: a random matrix whose diagonal is
    /// made dominant on every *even* tile panel only, plus a random
    /// right-hand side. Under a hybrid criterion the dominant panels take
    /// the LU fast path and the others fall back to QR — a genuinely mixed
    /// run that exercises both kernel families and their payload codecs.
    /// Every rank calls this with the same seed and gets bitwise-identical
    /// inputs.
    pub fn problem(&self) -> (Mat, Mat) {
        let mut a = Mat::random(self.n, self.n, self.seed);
        for i in 0..self.n {
            if (i / self.nb).is_multiple_of(2) {
                a[(i, i)] += self.n as f64;
            }
        }
        let rhs = Mat::random(self.n, self.nrhs, self.seed ^ 0x9e37_79b9_7f4a_7c15);
        (a, rhs)
    }

    /// The factorization options the job describes.
    pub fn options(&self) -> FactorOptions {
        let mut opts = FactorOptions::default()
            .with_nb(self.nb)
            .with_grid(Grid::new(self.p, self.q))
            .with_algorithm(self.algorithm.clone());
        opts.ib = self.ib;
        opts.threads = self.threads;
        opts
    }

    /// What this build plans for the job
    /// ([`crate::builder::plan_fingerprint`]).
    pub fn plan_fingerprint(&self) -> u64 {
        crate::builder::plan_fingerprint(self.n, self.nrhs, &self.options())
    }

    /// Refuse a job whose launcher planned it differently: the two were
    /// built from different sources, and their ranks would diverge (or
    /// hang) mid-run.
    fn check_plan(&self, launcher: u64) -> Result<(), TransportError> {
        let own = self.plan_fingerprint();
        if own == launcher {
            return Ok(());
        }
        Err(TransportError::Protocol(format!(
            "this luqr-worker plans the job as {own:016x}, its launcher as {launcher:016x}: \
             a stale binary? rebuild it in the launcher's profile \
             (cargo build [--release] -p luqr --bin luqr-worker)"
        )))
    }

    fn to_args(&self) -> Vec<String> {
        vec![
            "--n".into(),
            self.n.to_string(),
            "--nrhs".into(),
            self.nrhs.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--nb".into(),
            self.nb.to_string(),
            "--ib".into(),
            self.ib.to_string(),
            "--p".into(),
            self.p.to_string(),
            "--q".into(),
            self.q.to_string(),
            "--threads".into(),
            self.threads.to_string(),
            "--window".into(),
            self.window.to_string(),
            "--alg".into(),
            alg_spec(&self.algorithm).expect("algorithm has no CLI spec"),
            "--plan".into(),
            format!("{:016x}", self.plan_fingerprint()),
        ]
    }
}

/// The CLI spelling of an algorithm (`--alg`), or `None` for variants that
/// cannot round-trip through a flat string (random criterion etc.).
pub fn alg_spec(a: &Algorithm) -> Option<String> {
    match a {
        Algorithm::LuQr(Criterion::Max { alpha }) => Some(format!("luqr-max:{alpha}")),
        Algorithm::LuQr(Criterion::Sum { alpha }) => Some(format!("luqr-sum:{alpha}")),
        Algorithm::LuQr(Criterion::Mumps { alpha }) => Some(format!("luqr-mumps:{alpha}")),
        Algorithm::LuQr(Criterion::AlwaysLu) => Some("luqr-alwayslu".into()),
        Algorithm::LuQr(Criterion::AlwaysQr) => Some("luqr-alwaysqr".into()),
        Algorithm::LuQr(Criterion::Random { .. }) => None,
        Algorithm::LuNoPiv => Some("lunopiv".into()),
        Algorithm::LuIncPiv => Some("luincpiv".into()),
        Algorithm::Lupp => Some("lupp".into()),
        Algorithm::Hqr => Some("hqr".into()),
    }
}

/// Parse an `--alg` spec back into an [`Algorithm`].
pub fn parse_alg_spec(s: &str) -> Option<Algorithm> {
    let crit = |s: &str| s.split_once(':').and_then(|(_, a)| a.parse::<f64>().ok());
    match s {
        "lunopiv" => Some(Algorithm::LuNoPiv),
        "luincpiv" => Some(Algorithm::LuIncPiv),
        "lupp" => Some(Algorithm::Lupp),
        "hqr" => Some(Algorithm::Hqr),
        "luqr-alwayslu" => Some(Algorithm::LuQr(Criterion::AlwaysLu)),
        "luqr-alwaysqr" => Some(Algorithm::LuQr(Criterion::AlwaysQr)),
        _ if s.starts_with("luqr-max:") => {
            Some(Algorithm::LuQr(Criterion::Max { alpha: crit(s)? }))
        }
        _ if s.starts_with("luqr-sum:") => {
            Some(Algorithm::LuQr(Criterion::Sum { alpha: crit(s)? }))
        }
        _ if s.starts_with("luqr-mumps:") => {
            Some(Algorithm::LuQr(Criterion::Mumps { alpha: crit(s)? }))
        }
        _ => None,
    }
}

/// What rank 0 reports back to the launcher.
#[derive(Debug, Clone)]
pub struct WorkerResult {
    /// First numerical breakdown, if any.
    pub error: Option<String>,
    /// The solution of `A x = B` (present when no breakdown).
    pub solution: Option<Mat>,
    /// Per-step criterion records, sorted by step.
    pub records: Vec<StepRecord>,
    /// Rank 0's protocol message totals: the payload messages on its
    /// links.
    pub msgs: MsgStats,
    /// Rank 0's protocol messages per link, `(src, dst)` order.
    pub link_msgs: Vec<LinkMsgStats>,
    /// Rank 0's wire-level counters.
    pub frames_sent: u64,
    pub frames_received: u64,
    pub ctrl_frames_sent: u64,
    pub ctrl_frames_received: u64,
    pub payload_bytes_sent: u64,
    pub payload_bytes_received: u64,
}

const RESULT_MAGIC: &[u8; 4] = b"LQN1";

/// Serialize a rank's outcome for the launcher (rank 0 writes this to its
/// `--out` file).
pub fn encode_result(fact: &StreamFactorization) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(RESULT_MAGIC);
    match &fact.error {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            put_u64(&mut out, e.len() as u64);
            out.extend_from_slice(e.as_bytes());
        }
    }
    match &fact.error {
        None => {
            out.push(1);
            put_mat(&mut out, &fact.solution());
        }
        Some(_) => out.push(0),
    }
    put_u64(&mut out, fact.records.len() as u64);
    for r in &fact.records {
        encode_record(&mut out, r);
    }
    encode_msg_stats(&mut out, &fact.report.msgs);
    put_u64(&mut out, fact.report.link_msgs.len() as u64);
    for l in &fact.report.link_msgs {
        put_u64(&mut out, l.src as u64);
        put_u64(&mut out, l.dst as u64);
        encode_msg_stats(&mut out, &l.msgs);
    }
    let net = fact.report.net.as_ref();
    for v in [
        net.map_or(0, |n| n.frames_sent),
        net.map_or(0, |n| n.frames_received),
        net.map_or(0, |n| n.ctrl_frames_sent),
        net.map_or(0, |n| n.ctrl_frames_received),
        net.map_or(0, |n| n.payload_bytes_sent),
        net.map_or(0, |n| n.payload_bytes_received),
    ] {
        put_u64(&mut out, v);
    }
    out
}

fn encode_msg_stats(out: &mut Vec<u8>, m: &MsgStats) {
    put_u64(out, m.data_msgs);
    put_u64(out, m.decision_msgs);
    put_u64(out, m.retire_msgs);
    put_u64(out, m.bytes);
}

/// Decode a worker result file. Panics on a malformed file (the launcher
/// and worker are the same build; a mismatch is a bug, not an input).
pub fn decode_result(bytes: &[u8]) -> WorkerResult {
    try_decode_result(bytes).unwrap_or_else(|e| panic!("malformed worker result: {e}"))
}

fn try_decode_result(bytes: &[u8]) -> Result<WorkerResult, TransportError> {
    let mut rd = Rd::new(bytes);
    let magic = [rd.u8()?, rd.u8()?, rd.u8()?, rd.u8()?];
    assert_eq!(&magic, RESULT_MAGIC, "bad worker-result magic");
    let error = match rd.u8()? {
        0 => None,
        _ => {
            let len = rd.u64()? as usize;
            let s = (0..len).map(|_| rd.u8()).collect::<Result<Vec<u8>, _>>()?;
            Some(String::from_utf8(s).expect("worker error not utf8"))
        }
    };
    let solution = match rd.u8()? {
        0 => None,
        _ => Some(rd.mat()?),
    };
    let nrec = rd.u64()? as usize;
    let records = (0..nrec)
        .map(|_| rd.record())
        .collect::<Result<Vec<StepRecord>, _>>()?;
    let msgs = decode_msg_stats(&mut rd)?;
    let nlinks = rd.u64()? as usize;
    let link_msgs = (0..nlinks)
        .map(|_| {
            Ok(LinkMsgStats {
                src: rd.u64()? as usize,
                dst: rd.u64()? as usize,
                msgs: decode_msg_stats(&mut rd)?,
            })
        })
        .collect::<Result<Vec<LinkMsgStats>, TransportError>>()?;
    let r = WorkerResult {
        error,
        solution,
        records,
        msgs,
        link_msgs,
        frames_sent: rd.u64()?,
        frames_received: rd.u64()?,
        ctrl_frames_sent: rd.u64()?,
        ctrl_frames_received: rd.u64()?,
        payload_bytes_sent: rd.u64()?,
        payload_bytes_received: rd.u64()?,
    };
    assert_eq!(rd.remaining(), 0, "trailing bytes in worker result");
    Ok(r)
}

fn decode_msg_stats(rd: &mut Rd<'_>) -> Result<MsgStats, TransportError> {
    Ok(MsgStats {
        data_msgs: rd.u64()?,
        decision_msgs: rd.u64()?,
        retire_msgs: rd.u64()?,
        bytes: rd.u64()?,
    })
}

/// Locate the `luqr-worker` binary: `$LUQR_WORKER` first, then the current
/// executable's own build profile, then the sibling profile.
pub fn locate_worker() -> Option<PathBuf> {
    let env = std::env::var_os("LUQR_WORKER").map(PathBuf::from);
    locate_worker_from(env, &std::env::current_exe().ok()?)
}

/// [`locate_worker`] with its two inputs explicit. Walking up from `exe`
/// finds the binary of the same profile (tests live in
/// `target/<profile>/deps/`, examples in `target/<profile>/examples/`, the
/// binary in `target/<profile>/`). Failing that, a `debug` or `release`
/// directory on that walk is swapped for the other one: `cargo build
/// --release && cargo test` builds only `target/release/luqr-worker` and
/// runs the tests from `target/debug/deps/`.
fn locate_worker_from(env: Option<PathBuf>, exe: &Path) -> Option<PathBuf> {
    let walk: Vec<&Path> = exe.ancestors().skip(1).take(3).collect();
    let sibling = |dir: &&Path| match dir.file_name()?.to_str()? {
        "debug" => Some(dir.with_file_name("release")),
        "release" => Some(dir.with_file_name("debug")),
        _ => None,
    };
    let own = walk.iter().map(|d| d.to_path_buf());
    let other = walk.iter().filter_map(sibling);
    env.into_iter()
        .chain(own.chain(other).map(|d| d.join("luqr-worker")))
        .find(|p| p.is_file())
}

/// Run `job` as `p·q` real `luqr-worker` processes meshed over
/// Unix-domain sockets, and return rank 0's decoded result. Worker stderr
/// is inherited, so breakdown/transport diagnostics surface in the
/// caller's log. A set still running `deadline` after the launch is an
/// error naming the ranks that were. Whatever the outcome, the run's
/// scratch directory is removed and no worker it started outlives the
/// call.
pub fn launch_multiprocess(
    job: &NetJob,
    worker: Option<PathBuf>,
    deadline: Duration,
) -> Result<WorkerResult, String> {
    let until = Instant::now() + deadline;
    let nranks = job.p * job.q;
    assert!(nranks >= 1);
    let worker = worker.or_else(locate_worker).ok_or_else(|| {
        "luqr-worker binary not found: build it (cargo build -p luqr --bin luqr-worker) \
         or point $LUQR_WORKER at it"
            .to_string()
    })?;

    let scratch = ScratchDir::create("luqr-mp")?;
    let uds_dir = scratch.0.join("uds");
    std::fs::create_dir_all(&uds_dir).map_err(|e| format!("create {}: {e}", uds_dir.display()))?;
    let out_path = scratch.0.join("rank0.bin");

    let job_args = job.to_args();
    let mut children = Vec::new();
    for rank in 0..nranks {
        let mut cmd = Command::new(&worker);
        cmd.args(["--rank".to_string(), rank.to_string()])
            .args(["--nranks".to_string(), nranks.to_string()])
            .args(["--uds".to_string(), uds_dir.display().to_string()])
            .args(&job_args);
        if rank == 0 {
            cmd.args(["--out".to_string(), out_path.display().to_string()]);
        }
        match cmd.spawn() {
            Ok(child) => children.push((rank, child)),
            Err(e) => {
                // The ranks already started would wait out their connect
                // timeout for a peer that never comes.
                reap(children);
                return Err(format!("spawn {}: {e}", worker.display()));
            }
        }
    }

    // Poll the whole set: a rank whose peer has died waits for it forever,
    // so the first failure ends the run, and so does the deadline.
    let mut failures = Vec::new();
    while !children.is_empty() && failures.is_empty() {
        if Instant::now() >= until {
            let running: Vec<usize> = children.iter().map(|&(rank, _)| rank).collect();
            failures.push(format!(
                "ranks {running:?} still running after the {deadline:?} deadline"
            ));
            break;
        }
        children.retain_mut(|(rank, child)| match child.try_wait() {
            Ok(None) => true,
            Ok(Some(status)) => {
                if !status.success() {
                    failures.push(format!("rank {rank} exited with {status}"));
                }
                false
            }
            Err(e) => {
                failures.push(format!("rank {rank} wait failed: {e}"));
                true
            }
        });
        if failures.is_empty() && !children.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    reap(children);
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let bytes =
        std::fs::read(&out_path).map_err(|e| format!("read {}: {e}", out_path.display()))?;
    Ok(decode_result(&bytes))
}

/// Kill and wait the ranks of a run that cannot complete.
fn reap(children: Vec<(usize, Child)>) {
    for (_, mut child) in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The `luqr-worker` entry point: parse args, connect the mesh, run this
/// rank, and (for rank 0) write the result file. Returns a diagnostic on
/// any usage, transport, or I/O failure.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let mut rank = None;
    let mut nranks = None;
    let mut uds = None;
    let mut out = None;
    let mut plan = None;
    let mut job = NetJob {
        n: 0,
        nrhs: 1,
        seed: 42,
        nb: 32,
        ib: 8,
        p: 1,
        q: 1,
        threads: 1,
        window: 4,
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
    };

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--rank" => rank = Some(val()?.parse::<usize>().map_err(|e| e.to_string())?),
            "--nranks" => nranks = Some(val()?.parse::<usize>().map_err(|e| e.to_string())?),
            "--uds" => uds = Some(PathBuf::from(val()?)),
            "--out" => out = Some(PathBuf::from(val()?)),
            "--n" => {
                job.n = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--nrhs" => {
                job.nrhs = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--seed" => {
                job.seed = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--nb" => {
                job.nb = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--ib" => {
                job.ib = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--p" => {
                job.p = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--q" => {
                job.q = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--threads" => {
                job.threads = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--window" => {
                job.window = val()?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--alg" => {
                let s = val()?;
                job.algorithm =
                    parse_alg_spec(&s).ok_or_else(|| format!("unknown --alg spec {s:?}"))?;
            }
            "--plan" => plan = Some(u64::from_str_radix(&val()?, 16).map_err(|e| e.to_string())?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    let rank = rank.ok_or("--rank is required")?;
    let nranks = nranks.ok_or("--nranks is required")?;
    for (flag, value) in [("--p", job.p), ("--q", job.q), ("--nb", job.nb)] {
        if value == 0 {
            return Err(format!("{flag} must be positive"));
        }
    }
    if rank >= nranks {
        return Err(format!(
            "--rank {rank} is out of range for --nranks {nranks}"
        ));
    }
    if nranks != job.p * job.q {
        return Err(format!(
            "--nranks {nranks} does not match the {}x{} grid",
            job.p, job.q
        ));
    }
    if job.n == 0 {
        return Err("--n is required".into());
    }
    if out.is_some() && rank != 0 {
        return Err("--out is for rank 0: only rank 0 holds the result".into());
    }
    let spec = SocketSpec::Uds {
        dir: uds.ok_or("--uds DIR is required")?,
    };

    if let Some(launcher) = plan {
        job.check_plan(launcher)
            .map_err(|e| format!("rank {rank}: {e}"))?;
    }

    let transport: Arc<dyn Transport> = Arc::new(
        SocketEndpoint::connect(&spec, rank, nranks).map_err(|e| format!("connect: {e}"))?,
    );
    let (a, rhs) = job.problem();
    let opts = job.options();
    let sopts = StreamOptions::fixed(job.window, job.threads);
    let fact = factor_stream_net_rank(&a, &rhs, &opts, &sopts, transport)
        .map_err(|e| format!("rank {rank}: {e}"))?;
    if let Some(path) = out {
        std::fs::write(&path, encode_result(&fact))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg_specs_round_trip() {
        for a in [
            Algorithm::LuQr(Criterion::Max { alpha: 12.5 }),
            Algorithm::LuQr(Criterion::Sum { alpha: 3.0 }),
            Algorithm::LuQr(Criterion::Mumps { alpha: 0.5 }),
            Algorithm::LuQr(Criterion::AlwaysLu),
            Algorithm::LuQr(Criterion::AlwaysQr),
            Algorithm::LuNoPiv,
            Algorithm::LuIncPiv,
            Algorithm::Lupp,
            Algorithm::Hqr,
        ] {
            let spec = alg_spec(&a).unwrap();
            assert_eq!(parse_alg_spec(&spec), Some(a), "spec {spec}");
        }
        assert_eq!(parse_alg_spec("bogus"), None);
    }

    #[test]
    fn worker_lookup_order_is_env_then_own_then_sibling_profile() {
        let root = std::env::temp_dir().join(format!("luqr-locate-{}", std::process::id()));
        let touch = |rel: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, b"").unwrap();
            path
        };
        let exe = touch("target/debug/deps/some_test-0123");
        let pinned = touch("elsewhere/luqr-worker");
        let sibling = touch("target/release/luqr-worker");
        let own = touch("target/debug/luqr-worker");

        let found = |env: Option<&PathBuf>| locate_worker_from(env.cloned(), &exe);
        assert_eq!(found(Some(&pinned)), Some(pinned.clone()));
        assert_eq!(found(None), Some(own.clone()));
        // A pinned path that does not exist falls through to the walk.
        assert_eq!(found(Some(&root.join("missing"))), Some(own.clone()));
        std::fs::remove_file(&own).unwrap();
        assert_eq!(found(None), Some(sibling.clone()));
        // The swap works from the release side too.
        let release_exe = touch("target/release/examples/demo");
        std::fs::remove_file(&sibling).unwrap();
        let debug_only = touch("target/debug/luqr-worker");
        assert_eq!(locate_worker_from(None, &release_exe), Some(debug_only));
        std::fs::remove_dir_all(root.join("target")).unwrap();
        assert_eq!(found(None), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn small_job(algorithm: Algorithm) -> NetJob {
        NetJob {
            n: 16,
            nrhs: 2,
            seed: 7,
            nb: 4,
            ib: 2,
            p: 1,
            q: 2,
            threads: 1,
            window: 2,
            algorithm,
        }
    }

    /// A worker handed a job that its launcher planned differently — the
    /// stale-binary case — refuses with a typed error naming both hashes,
    /// before it touches the mesh.
    #[test]
    fn a_worker_refuses_a_job_its_launcher_planned_differently() {
        let job = small_job(Algorithm::Hqr);
        let own = job.plan_fingerprint();
        assert_eq!(job.check_plan(own), Ok(()));
        let other = own ^ 1;
        match job.check_plan(other) {
            Err(TransportError::Protocol(m)) => {
                assert!(m.contains(&format!("{own:016x}")), "{m}");
                assert!(m.contains(&format!("{other:016x}")), "{m}");
            }
            r => panic!("expected a protocol error, got {r:?}"),
        }

        // Through the binary's entry point: no socket directory exists, so
        // passing the check would fail on `connect:` instead.
        let args = |plan: u64| {
            let mut args: Vec<String> = ["--rank", "1", "--nranks", "2", "--uds", "/nonexistent"]
                .map(String::from)
                .to_vec();
            args.extend(job.to_args());
            let at = args.iter().position(|a| a == "--plan").unwrap() + 1;
            args[at] = format!("{plan:016x}");
            args
        };
        let refused = worker_main(&args(other)).unwrap_err();
        assert!(
            refused.starts_with("rank 1: protocol violation")
                && refused.contains(&format!("{own:016x}"))
                && refused.contains(&format!("{other:016x}")),
            "{refused}"
        );
        let accepted = worker_main(&args(own)).unwrap_err();
        assert!(accepted.starts_with("connect:"), "{accepted}");
    }

    /// The fingerprint repeats, and moves with anything that moves the
    /// plan: the reduction tree, the algorithm, the tile counts.
    #[test]
    fn plan_fingerprint_follows_the_plan() {
        use crate::trees::TreeConfig;
        let job = small_job(Algorithm::Hqr);
        let opts = job.options();
        let fp = |n, opts: &FactorOptions| crate::builder::plan_fingerprint(n, 2, opts);
        assert_eq!(job.plan_fingerprint(), fp(16, &opts));
        let two_level = TreeConfig {
            ts: 1,
            ..opts.trees
        };
        assert_ne!(fp(16, &opts), fp(16, &opts.clone().with_trees(two_level)));
        assert_ne!(fp(16, &opts), fp(20, &opts));
        assert_ne!(
            job.plan_fingerprint(),
            small_job(Algorithm::Lupp).plan_fingerprint()
        );
    }

    /// A deadline no test launch reaches.
    const LONG: Duration = Duration::from_secs(600);

    /// The launch tests look for this process's scratch directories: one
    /// launch at a time.
    static ONE_LAUNCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// The scratch directories of this process's launches left behind.
    fn leftovers() -> Vec<String> {
        let prefix = format!("luqr-mp-{}-", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(&prefix))
            .collect()
    }

    /// A launch that cannot start its workers fails cleanly: an `Err`, and
    /// no scratch directory left behind.
    #[test]
    fn a_failed_spawn_leaves_no_scratch_directory() {
        let _one = ONE_LAUNCH.lock().unwrap_or_else(|e| e.into_inner());
        let pid = std::process::id();
        let worker = std::env::temp_dir().join(format!("luqr-noexec-{pid}"));
        std::fs::write(&worker, b"not a program").unwrap();
        let err = launch_multiprocess(&small_job(Algorithm::Hqr), Some(worker.clone()), LONG);
        std::fs::remove_file(&worker).unwrap();
        assert!(err.unwrap_err().starts_with("spawn "));
        assert_eq!(leftovers(), Vec::<String>::new());
    }

    /// A rank that fails ends the launch at once: the launcher kills the
    /// rank still waiting on its mesh — which would wait for the dead peer
    /// forever — and removes its scratch directory.
    #[test]
    fn a_failed_rank_ends_the_launch_and_reaps_its_peers() {
        use std::os::unix::fs::PermissionsExt;
        use std::sync::mpsc::channel;
        let _one = ONE_LAUNCH.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("luqr-fake-worker-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (worker, pid_file) = (dir.join("luqr-worker"), dir.join("rank1.pid"));
        // Rank 0 fails once rank 1 is up; rank 1 sleeps, as a rank blocked
        // on a dead peer does.
        let script = format!(
            "#!/bin/sh\n\
             case \" $* \" in *\" --rank 0 \"*)\n\
             \x20 while [ ! -s {pid} ]; do sleep 0.01; done; exit 3 ;;\n\
             esac\n\
             echo $$ > {pid}\n\
             exec sleep 60\n",
            pid = pid_file.display()
        );
        std::fs::write(&worker, script).unwrap();
        std::fs::set_permissions(&worker, std::fs::Permissions::from_mode(0o755)).unwrap();

        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let _ = tx.send(launch_multiprocess(
                &small_job(Algorithm::Hqr),
                Some(worker),
                LONG,
            ));
        });
        let launched = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the launch is still waiting 10 s after rank 0 failed");
        let err = launched.unwrap_err();
        assert!(err.starts_with("rank 0 exited"), "{err}");
        let rank1 = std::fs::read_to_string(&pid_file).unwrap();
        let alive = Command::new("kill")
            .args(["-0", rank1.trim()])
            .stderr(std::process::Stdio::null())
            .status();
        assert!(!alive.unwrap().success(), "rank 1 outlived the launch");
        assert_eq!(leftovers(), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A set that outlives its deadline is reaped: the launch returns an
    /// error naming the ranks still running, and leaves no worker process
    /// and no scratch directory behind.
    #[test]
    fn a_launch_past_its_deadline_reaps_every_rank() {
        use std::os::unix::fs::PermissionsExt;
        let _one = ONE_LAUNCH.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("luqr-slow-worker-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let worker = dir.join("luqr-worker");
        // Every rank records its pid, before it runs anything else, and
        // then outlasts the deadline, as a set stuck on a wire bug does.
        let script = format!(
            "#!/bin/sh\n\
             echo $$ > {dir}/$$.pid\n\
             exec sleep 60\n",
            dir = dir.display()
        );
        std::fs::write(&worker, script).unwrap();
        std::fs::set_permissions(&worker, std::fs::Permissions::from_mode(0o755)).unwrap();

        let t0 = Instant::now();
        let deadline = Duration::from_secs(2);
        let err = launch_multiprocess(&small_job(Algorithm::Hqr), Some(worker), deadline)
            .expect_err("the set outlives its deadline");
        assert!(err.contains("ranks [0, 1] still running"), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the deadline ended the launch"
        );
        let pids: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| {
                let name = entry.unwrap().file_name().into_string().unwrap();
                name.strip_suffix(".pid").map(String::from)
            })
            .collect();
        assert_eq!(pids.len(), 2, "every rank started: {pids:?}");
        for pid in pids {
            let alive = Command::new("kill")
                .args(["-0", &pid])
                .stderr(std::process::Stdio::null())
                .status();
            assert!(
                !alive.unwrap().success(),
                "worker {pid} outlived the launch"
            );
        }
        assert_eq!(leftovers(), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Arguments the job cannot run with are usage errors naming the flag,
    /// reported before anything is planned or connected.
    #[test]
    fn a_worker_reports_bad_arguments_as_usage_errors() {
        for (bad, flag) in [
            // With `--plan` a worker plans the job before it connects.
            ("--rank 0 --nranks 0 --p 0 --q 0 --plan 0", "--p"),
            ("--rank 0 --nranks 0 --q 0 --plan 0", "--q"),
            ("--rank 0 --nranks 1 --nb 0 --plan 0", "--nb"),
            ("--rank 2 --nranks 1", "--rank"),
        ] {
            let args: Vec<String> = format!("{bad} --n 8 --uds /nonexistent")
                .split_whitespace()
                .map(String::from)
                .collect();
            let err = worker_main(&args).expect_err("a usage error");
            assert!(err.starts_with(flag), "{bad}: {err}");
        }
    }

    #[test]
    fn job_problem_is_deterministic() {
        let job = small_job(Algorithm::Lupp);
        let (a1, b1) = job.problem();
        let (a2, b2) = job.problem();
        assert_eq!(a1.as_slice(), a2.as_slice());
        assert_eq!(b1.as_slice(), b2.as_slice());
    }
}
