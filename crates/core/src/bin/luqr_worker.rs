//! One rank of a multi-process distributed factorization.
//!
//! Spawned by [`luqr::net::launch::launch_multiprocess`] (or by hand):
//!
//! ```text
//! luqr-worker --rank 0 --nranks 4 --uds /tmp/mesh \
//!     --n 320 --nrhs 2 --seed 42 --nb 32 --ib 8 --p 2 --q 2 \
//!     --threads 2 --window 4 --alg luqr-max:100 --out /tmp/rank0.bin
//! ```
//!
//! Every rank rebuilds the same seeded problem, meshes over UDS,
//! and runs its SPMD share; rank 0 (whose mirror holds all results at the
//! end) writes the solution + statistics to `--out`. The launcher also
//! passes `--plan <hex>`, the fingerprint of the task graph *it* would
//! unroll for the job: a worker that plans the job differently (a stale
//! binary) exits with a protocol error instead of joining the mesh. All
//! logic lives in [`luqr::net::launch::worker_main`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match luqr::net::launch::worker_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("luqr-worker: {e}");
            ExitCode::from(2)
        }
    }
}
