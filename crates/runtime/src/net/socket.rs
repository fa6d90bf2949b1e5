//! Socket transport: length-prefixed frames over Unix-domain sockets
//! between real worker processes.
//!
//! The set forms a full mesh. Rank `r` listens at `{dir}/rank{r}.sock`;
//! every pair `(i, j)` with `i < j` is connected by `j` dialing `i` and
//! opening with a [`Frame::Hello`] carrying its rank. Nothing sleeps while
//! a mesh forms in one process: [`socket_set`] binds every listener before
//! any rank dials, and a rank accepting waits on its listener (`poll(2)`)
//! until a peer connects or the deadline passes. Only a rank of separate
//! processes may dial a listener that is not bound yet, and retries it.
//! A peer that never comes is a [`TransportError::Connect`] at the
//! deadline (30 s for [`SocketEndpoint::connect`]).
//!
//! Each peer stream gets a dedicated reader thread feeding one inbox
//! queue; writes take a per-peer mutex so concurrent senders cannot
//! interleave frames, and a batch of frames ([`Transport::send_batch`])
//! goes out in one vectored write.

use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use super::wire::{read_frame, write_frame, write_frames, Frame};
use super::{Transport, TransportError};

/// How long connection establishment (dial + accept) may take before the
/// endpoint gives up with [`TransportError::Connect`].
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// Backoff between dial retries while a peer's listener comes up.
const DIAL_BACKOFF: Duration = Duration::from_millis(2);

/// Where a socket set lives.
#[derive(Debug, Clone)]
pub enum SocketSpec {
    /// Unix-domain sockets `rank{r}.sock` under one directory.
    Uds { dir: PathBuf },
}

/// The UDS path rank `rank` listens on under `dir`.
pub fn uds_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank{rank}.sock"))
}

type InboxItem = Result<(usize, Frame), TransportError>;

/// One rank's endpoint of a socket mesh.
pub struct SocketEndpoint {
    rank: usize,
    nranks: usize,
    /// Writer half per peer (`None` at our own index).
    writers: Vec<Option<Mutex<UnixStream>>>,
    inbox: Mutex<mpsc::Receiver<InboxItem>>,
    wake: mpsc::Sender<InboxItem>,
    closed: Arc<AtomicBool>,
}

impl SocketEndpoint {
    /// Bind, dial every lower rank, accept every higher rank, and spawn
    /// one reader thread per peer; a peer that does not show up within
    /// 30 s is a [`TransportError::Connect`].
    pub fn connect(spec: &SocketSpec, rank: usize, nranks: usize) -> Result<Self, TransportError> {
        SocketEndpoint::connect_within(spec, rank, nranks, CONNECT_TIMEOUT)
    }

    /// [`SocketEndpoint::connect`], giving up after `timeout`.
    fn connect_within(
        spec: &SocketSpec,
        rank: usize,
        nranks: usize,
        timeout: Duration,
    ) -> Result<Self, TransportError> {
        assert!(rank < nranks, "rank {rank} out of range for {nranks} ranks");
        let deadline = Instant::now() + timeout;
        SocketEndpoint::join(bind(spec, rank)?, spec, rank, nranks, deadline)
    }

    /// Mesh rank `rank`, whose listener is bound, with the rest of the set.
    fn join(
        listener: UnixListener,
        spec: &SocketSpec,
        rank: usize,
        nranks: usize,
        deadline: Instant,
    ) -> Result<Self, TransportError> {
        let mut streams: Vec<Option<UnixStream>> = (0..nranks).map(|_| None).collect();

        // Dial every lower rank, announcing ourselves. The peer's listener
        // may not exist yet — retry until the deadline.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let mut stream = dial(spec, peer, deadline)?;
            write_frame(&mut stream, &Frame::Hello { rank: rank as u32 })?;
            *slot = Some(stream);
        }

        // Accept every higher rank; the opening Hello says who dialed.
        for _ in rank + 1..nranks {
            let mut stream = accept(&listener, deadline)?;
            let peer = match read_frame(&mut stream)? {
                Frame::Hello { rank: r } => r as usize,
                other => {
                    return Err(TransportError::Protocol(format!(
                        "expected Hello handshake, got {other:?}"
                    )))
                }
            };
            if peer <= rank || peer >= nranks || streams[peer].is_some() {
                return Err(TransportError::Protocol(format!(
                    "unexpected Hello from rank {peer}"
                )));
            }
            streams[peer] = Some(stream);
        }
        drop(listener);

        let (wake, rx) = mpsc::channel::<InboxItem>();
        let closed = Arc::new(AtomicBool::new(false));
        let mut writers: Vec<Option<Mutex<UnixStream>>> = Vec::with_capacity(nranks);
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else {
                writers.push(None);
                continue;
            };
            let reader = stream
                .try_clone()
                .map_err(|e| TransportError::Connect(format!("clone stream: {e}")))?;
            spawn_reader(peer, reader, wake.clone(), Arc::clone(&closed));
            writers.push(Some(Mutex::new(stream)));
        }
        Ok(SocketEndpoint {
            rank,
            nranks,
            writers,
            inbox: Mutex::new(rx),
            wake,
            closed,
        })
    }
}

fn bind(spec: &SocketSpec, rank: usize) -> Result<UnixListener, TransportError> {
    let SocketSpec::Uds { dir } = spec;
    let path = uds_path(dir, rank);
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)
        .map_err(|e| TransportError::Connect(format!("bind {}: {e}", path.display())))?;
    // Accepting waits on the socket ([`accept`]), never in `accept(2)`.
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Connect(format!("nonblocking: {e}")))?;
    Ok(listener)
}

/// Connect to `peer`'s listener. Only a listener that is not there yet (a
/// peer process still starting) is retried, after [`DIAL_BACKOFF`], until
/// the deadline; a set built by [`socket_set`] binds every listener first.
fn dial(spec: &SocketSpec, peer: usize, deadline: Instant) -> Result<UnixStream, TransportError> {
    let SocketSpec::Uds { dir } = spec;
    loop {
        match UnixStream::connect(uds_path(dir, peer)) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(TransportError::Connect(format!("dial rank {peer}: {e}")));
                }
                std::thread::sleep(DIAL_BACKOFF);
            }
        }
    }
}

/// Accept one connection, waiting on the listener (`poll(2)`) until one is
/// pending or the deadline passes — then a [`TransportError::Connect`]
/// instead of a hang.
fn accept(listener: &UnixListener, deadline: Instant) -> Result<UnixStream, TransportError> {
    loop {
        match listener.accept() {
            Ok((s, _)) => {
                // The accepted stream inherits nonblocking on some
                // platforms; force it back to blocking.
                let _ = s.set_nonblocking(false);
                return Ok(s);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(TransportError::Connect("accept timed out".into()));
                }
                wait_readable(listener, left)
                    .map_err(|e| TransportError::Connect(format!("poll: {e}")))?;
            }
            Err(e) => return Err(TransportError::Connect(format!("accept: {e}"))),
        }
    }
}

/// Block until `listener` has a connection pending or `timeout` passes
/// (either way `Ok`: the caller tries to accept and looks at the clock).
fn wait_readable(listener: &UnixListener, timeout: Duration) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_short, c_ulong};
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    const POLLIN: c_short = 1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // Round up: a sub-millisecond wait must not turn into a busy poll.
    let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one live, writable pollfd for the whole call, and
    // `nfds` says exactly one.
    match unsafe { poll(&mut fd, 1, ms) } {
        -1 => match std::io::Error::last_os_error() {
            e if e.kind() == std::io::ErrorKind::Interrupted => Ok(()),
            e => Err(e),
        },
        _ => Ok(()),
    }
}

fn spawn_reader(
    peer: usize,
    stream: UnixStream,
    tx: mpsc::Sender<InboxItem>,
    closed: Arc<AtomicBool>,
) {
    // Buffered: a frame's length prefix and header then cost no syscall of
    // their own, and small frames arrive several to a read. Large payloads
    // bypass the buffer (`BufReader` reads straight into a destination at
    // least as large as itself).
    let mut stream = BufReader::new(stream);
    std::thread::Builder::new()
        .name(format!("luqr-net-rx-{peer}"))
        .spawn(move || loop {
            match read_frame(&mut stream) {
                Ok(frame) => {
                    if tx.send(Ok((peer, frame))).is_err() {
                        return;
                    }
                }
                Err(TransportError::Closed) => {
                    // Clean EOF: expected after our own shutdown; a live
                    // run losing a peer is an error.
                    if !closed.load(Ordering::Acquire) {
                        let _ = tx.send(Err(TransportError::PeerLost { peer }));
                    }
                    return;
                }
                Err(e) => {
                    if !closed.load(Ordering::Acquire) {
                        let _ = tx.send(Err(e));
                    }
                    return;
                }
            }
        })
        .expect("spawn reader thread");
}

impl Transport for SocketEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn send_batch(&self, to: usize, frames: &[Frame]) -> Result<(), TransportError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let Some(writer) = self.writers.get(to).and_then(|w| w.as_ref()) else {
            return Err(TransportError::Protocol(format!("no stream to rank {to}")));
        };
        let mut stream = writer.lock().unwrap_or_else(|e| e.into_inner());
        write_frames(&mut *stream, frames)
    }

    fn recv(&self) -> Result<(usize, Frame), TransportError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let rx = self.inbox.lock().unwrap_or_else(|e| e.into_inner());
        match rx.recv() {
            Ok(item) => item,
            Err(_) => Err(TransportError::Closed),
        }
    }

    fn shutdown(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        for writer in self.writers.iter().flatten() {
            let stream = writer.lock().unwrap_or_else(|e| e.into_inner());
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let _ = self.wake.send(Err(TransportError::Closed));
    }
}

impl Drop for SocketEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Build a full in-process mesh of `n` socket endpoints: every listener
/// is bound first, so no rank dials an absent one, then each rank's
/// connect runs on its own thread, since establishment is mutual.
pub fn socket_set(spec: &SocketSpec, n: usize) -> Result<Vec<Arc<SocketEndpoint>>, TransportError> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let listeners = (0..n)
        .map(|rank| bind(spec, rank))
        .collect::<Result<Vec<_>, _>>()?;
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let spec = spec.clone();
            std::thread::spawn(move || SocketEndpoint::join(listener, &spec, rank, n, deadline))
        })
        .collect();
    let mut endpoints = Vec::with_capacity(n);
    for h in handles {
        endpoints.push(Arc::new(h.join().expect("connect thread panicked")?));
    }
    Ok(endpoints)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("luqr-net-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn uds_mesh_moves_frames() {
        let dir = temp_dir("mesh");
        let set = socket_set(&SocketSpec::Uds { dir: dir.clone() }, 3).unwrap();
        set[0].send(2, &Frame::Fin).unwrap();
        set[1].send(2, &Frame::Done).unwrap();
        let mut got = [set[2].recv().unwrap(), set[2].recv().unwrap()];
        got.sort_by_key(|(from, _)| *from);
        assert_eq!(got[0], (0, Frame::Fin));
        assert_eq!(got[1], (1, Frame::Done));
        for ep in &set {
            ep.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A peer that never comes is a typed `Connect` error at the
    /// deadline, whether the rank waits to accept it or dials it.
    #[test]
    fn a_missing_peer_is_a_connect_error() {
        let dir = temp_dir("missing");
        let spec = SocketSpec::Uds { dir: dir.clone() };
        let within = Duration::from_millis(50);
        let t0 = Instant::now();
        for rank in [0, 1] {
            let err = SocketEndpoint::connect_within(&spec, rank, 2, within).err();
            assert!(
                matches!(err, Some(TransportError::Connect(_))),
                "rank {rank} alone: {err:?}"
            );
            let _ = std::fs::remove_file(uds_path(&dir, rank));
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "both gave up at their deadline"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A two-rank set forms without sleeping: well under the old 2 ms
    /// dial backoff (median of 20). A wall-clock bar, so it runs only when
    /// asked (`--include-ignored`): on a loaded host the scheduler alone
    /// can take longer.
    #[test]
    #[ignore = "wall-clock bar"]
    fn a_two_rank_set_connects_in_under_half_a_millisecond() {
        let dir = temp_dir("fast");
        let spec = SocketSpec::Uds { dir: dir.clone() };
        let mut times: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let set = socket_set(&spec, 2).unwrap();
                let dt = t0.elapsed();
                set.iter().for_each(|ep| ep.shutdown());
                dt
            })
            .collect();
        times.sort_unstable();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            times[10] < Duration::from_micros(500),
            "median {:?} of {times:?}",
            times[10]
        );
    }

    #[test]
    fn dropped_peer_is_reported() {
        let dir = temp_dir("drop");
        let set = socket_set(&SocketSpec::Uds { dir: dir.clone() }, 2).unwrap();
        // Rank 1 vanishes without the run protocol's Shutdown fence.
        set[1].shutdown();
        assert_eq!(
            set[0].recv(),
            Err(TransportError::PeerLost { peer: 1 }),
            "rank 0 sees the dropped peer"
        );
        set[0].shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
