//! Real-transport distributed factorization: run the SPMD streaming
//! executor over in-process mailboxes or actual sockets.
//!
//! [`crate::factor_stream_with`] *counts* a distributed run — one process,
//! per-node sub-windows, message counters. This module *performs* one:
//! every rank of the process grid runs the same planner over its own
//! *share* of the matrix, but its window inserts only the tasks placed on
//! it (the others keep their ids and the versions they write, no more),
//! each rank retires its own steps, and the data / decision protocol
//! crosses a [`luqr_runtime::Transport`] as length-prefixed wire frames.
//! Payload bytes are produced and consumed by the `payload` store, which
//! resolves every declared datum key to a tile of the rank's mirror or a
//! cell of the run's per-step table.
//!
//! **What a rank holds.** Its mirror starts with the tiles homed on it
//! under the run's distribution and nothing else; a tile from another rank
//! materialises when its first payload arrives (a rank never runs an op it
//! does not own, so it never touches a tile it neither owns nor was sent)
//! and then stays — received tiles are not evicted, because the sender's
//! record of which version each rank holds assumes a delivered version
//! stays delivered. Step cells live as long as their step. At the end,
//! ranks other than 0 ship rank 0 the tiles the solve reads (on or above
//! the diagonal, and the right-hand side) whose final version they hold;
//! rank 0's mirror then holds the result, every other rank's never does.
//!
//! Three deployment shapes:
//!
//! * [`factor_stream_net`] — all ranks as threads of this process, over
//!   loopback mailboxes or real Unix-domain sockets;
//! * [`factor_stream_net_rank`] — one rank on an arbitrary endpoint (the
//!   building block the `luqr-worker` binary uses);
//! * [`launch::launch_multiprocess`] — N separate `luqr-worker` processes
//!   meshed over UDS, results collected from rank 0.
//!
//! Every shape reproduces the single-process streamed run's residuals and
//! LU/QR decisions bitwise, and on each rank its protocol message counts on
//! the links that touch the rank exactly; the runtime asserts
//! wire-frame/protocol-message reconciliation per link before results are
//! accepted.

pub mod launch;
mod payload;

use payload::StepStore;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use luqr_kernels::Mat;
use luqr_runtime::net::loopback::loopback_set;
use luqr_runtime::net::socket::{socket_set, SocketSpec};
use luqr_runtime::stream::{execute_net, StepSource};
use luqr_runtime::{NetConfig, PayloadStore, Probe, StreamOptions, Transport, TransportError};
use luqr_tile::TiledMatrix;

use crate::builder::stream_source::PlannerStepSource;
use crate::config::FactorOptions;
use crate::StreamFactorization;

/// Which transport carries the inter-rank protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetTransportKind {
    /// In-process mailboxes (the reference implementation).
    Loopback,
    /// Unix-domain sockets under a fresh temp directory.
    Uds,
}

static RUN: AtomicUsize = AtomicUsize::new(0);

/// The scratch directory of one socket run (in-process or multi-process),
/// removed when the run leaves — whether it returns, fails, or unwinds
/// from a rank's panic.
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create a fresh `<prefix>-<pid>-<run>` directory under the temp dir.
    fn create(prefix: &str) -> Result<ScratchDir, String> {
        let dir = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            RUN.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dyn_transports<T: Transport + 'static>(set: Vec<Arc<T>>) -> Vec<Arc<dyn Transport>> {
    set.into_iter().map(|e| e as Arc<dyn Transport>).collect()
}

/// Factor `[A | rhs]` with the **real-transport distributed runtime**: one
/// SPMD rank per node of `opts.grid`, all inside this process, exchanging
/// wire frames over `kind`. Numerics and per-step decisions are identical
/// to [`crate::factor_stream`] / [`crate::factor_stream_with`] under the
/// same options, and so are the protocol message statistics on rank 0's
/// links; rank 0's factorization (whose mirror holds the result at the
/// end) is returned.
pub fn factor_stream_net(
    a: &Mat,
    rhs: &Mat,
    opts: &FactorOptions,
    window: usize,
    kind: &NetTransportKind,
) -> Result<StreamFactorization, TransportError> {
    factor_stream_net_opts(
        a,
        rhs,
        opts,
        &StreamOptions::fixed(window, opts.threads),
        kind,
    )
}

/// [`factor_stream_net`] under full [`StreamOptions`] (window, probe).
/// The probe observes rank 0's window — including the wire-level
/// frame/byte/latency metrics; peer ranks run unprobed.
pub fn factor_stream_net_opts(
    a: &Mat,
    rhs: &Mat,
    opts: &FactorOptions,
    stream_opts: &StreamOptions,
    kind: &NetTransportKind,
) -> Result<StreamFactorization, TransportError> {
    let nranks = opts.grid.nodes();
    let mut uds_dir = None;
    let transports: Vec<Arc<dyn Transport>> = match kind {
        NetTransportKind::Loopback => dyn_transports(loopback_set(nranks)),
        NetTransportKind::Uds => {
            let scratch = ScratchDir::create("luqr-net").map_err(TransportError::Connect)?;
            let dir = uds_dir.insert(scratch).0.clone();
            dyn_transports(socket_set(&SocketSpec::Uds { dir }, nranks)?)
        }
    };

    let (r0, peers) = std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .iter()
            .skip(1)
            .map(|t| {
                let t = Arc::clone(t);
                let sopts = stream_opts.clone().with_probe(Probe::disabled());
                s.spawn(move || factor_stream_net_rank(a, rhs, opts, &sopts, t))
            })
            .collect();
        let r0 = factor_stream_net_rank(a, rhs, opts, stream_opts, Arc::clone(&transports[0]));
        let peers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect();
        (r0, peers)
    });

    // A failing rank aborts the set, surfacing as `PeerLost` everywhere
    // else — prefer reporting the root cause over the secondary noise.
    let root_cause = |errs: Vec<TransportError>| {
        errs.into_iter().reduce(|best, e| match best {
            TransportError::PeerLost { .. } | TransportError::Closed => e,
            _ => best,
        })
    };
    match r0 {
        Ok(fact) => {
            let errs: Vec<_> = peers.into_iter().filter_map(Result::err).collect();
            match root_cause(errs) {
                None => Ok(fact),
                Some(e) => Err(e),
            }
        }
        Err(e0) => {
            let mut errs = vec![e0];
            errs.extend(peers.into_iter().filter_map(Result::err));
            Err(root_cause(errs).unwrap())
        }
    }
}

/// Run **one rank** of a real-transport distributed factorization on an
/// already-connected endpoint. Every rank of the set must call this with
/// identical `a`, `rhs`, and options (SPMD: each rank runs the same planner
/// over its own share of the tiles, and plans and executes the ops it
/// owns).
///
/// Only rank 0's mirror holds the result at return (peers ship it the
/// result tiles they hold during the end-of-run handshake), so call
/// [`StreamFactorization::solution`] on rank 0's factorization — on any
/// other rank it panics. The per-step records are identical on every rank;
/// a rank's report counts its own tasks and the protocol messages on its
/// own links.
pub fn factor_stream_net_rank(
    a: &Mat,
    rhs: &Mat,
    opts: &FactorOptions,
    stream_opts: &StreamOptions,
    transport: Arc<dyn Transport>,
) -> Result<StreamFactorization, TransportError> {
    let n = crate::prelude(a, rhs, opts);
    let rank = transport.rank();
    let aug = rank_share(a, rhs, opts, rank);
    let nt_a = aug.nt() - rhs.cols().div_ceil(opts.nb);
    let mut source = PlannerStepSource::new(&aug, nt_a, opts);
    let store: Arc<dyn PayloadStore> = Arc::new(StepStore::new(source.context()));
    let report = execute_net(&mut source, stream_opts, NetConfig { transport, store })?;
    let (records, error) = crate::epilogue(source.shared(), (rank == 0).then_some(&aug));
    Ok(StreamFactorization {
        aug,
        report,
        records,
        error,
        n,
        nrhs: rhs.cols(),
        algorithm: opts.algorithm.clone(),
        ctx: source.context(),
        holds_result: rank == 0,
    })
}

/// What `rank` packs of `[A | rhs]`: the tiles homed on it on the run's
/// grid (the home the planner declares for each tile).
fn rank_share(a: &Mat, rhs: &Mat, opts: &FactorOptions, rank: usize) -> TiledMatrix {
    let grid = opts.grid;
    TiledMatrix::from_dense_augmented_where(a, rhs, opts.nb, |i, j| grid.owner(i, j) == rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use luqr_tile::Grid;

    /// A run that leaves through `?` still removes its socket directory,
    /// files and all.
    #[test]
    fn scratch_dir_is_removed_on_an_early_error_return() {
        fn mesh_that_fails(dir: &std::path::Path) -> Result<(), TransportError> {
            std::fs::create_dir_all(dir).unwrap();
            let _dir = ScratchDir(dir.to_path_buf());
            std::fs::write(dir.join("rank0.sock"), b"bound before rank 1 failed").unwrap();
            Err(TransportError::Connect("rank 1 never came up".into()))?;
            unreachable!()
        }
        let dir = std::env::temp_dir().join(format!("luqr-net-guard-{}", std::process::id()));
        assert!(mesh_that_fails(&dir).is_err());
        assert!(!dir.exists(), "{} leaked", dir.display());
    }

    /// An endpoint of a set whose size is not the grid's is refused with
    /// the typed error, not a panic.
    #[test]
    fn a_transport_of_the_wrong_world_size_is_a_protocol_error() {
        let (a, rhs) = (Mat::random(16, 16, 1), Mat::random(16, 1, 2));
        let opts = FactorOptions {
            nb: 8,
            grid: Grid::new(2, 2),
            ..FactorOptions::default()
        };
        let rank0: Arc<dyn Transport> = loopback_set(3).swap_remove(0);
        let sopts = StreamOptions::fixed(2, 1);
        let err = factor_stream_net_rank(&a, &rhs, &opts, &sopts, rank0).err();
        assert!(matches!(err, Some(TransportError::Protocol(_))), "{err:?}");
    }

    /// At the start of a run the ranks' mirrors partition the matrix: each
    /// holds exactly the tiles the planner will declare it the home of.
    #[test]
    fn a_rank_starts_with_exactly_its_home_tiles() {
        let (a, rhs) = (Mat::random(40, 40, 1), Mat::random(40, 2, 2));
        let opts = FactorOptions {
            nb: 8,
            grid: Grid::new(2, 2),
            ..FactorOptions::default()
        };
        let shares: Vec<TiledMatrix> = (0..4).map(|r| rank_share(&a, &rhs, &opts, r)).collect();
        let full = TiledMatrix::from_dense_augmented(&a, &rhs, opts.nb);
        for i in 0..full.mt() {
            for j in 0..full.nt() {
                for (r, share) in shares.iter().enumerate() {
                    let home = opts.grid.owner(i, j) == r;
                    assert_eq!(share.holds_tile(i, j), home, "rank {r}, tile ({i},{j})");
                    if home {
                        assert_eq!(*share.tile(i, j).lock(), *full.tile(i, j).lock());
                    }
                }
            }
        }
    }
}
