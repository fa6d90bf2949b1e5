//! Real transports for the distributed streaming window.
//!
//! The simulator records the protocol traffic ([`crate::comm::Msg`]) of a
//! distributed run without moving a byte. This module gives that protocol
//! a wire: a [`Transport`] endpoint per rank, over which the SPMD
//! streaming executor ([`crate::stream::execute_net`]) exchanges
//! length-prefixed [`wire::Frame`]s. Two implementations ship, one
//! in-process and one socket family:
//!
//! * [`loopback::loopback_set`] — in-process mailboxes, the reference
//!   implementation pinned bitwise to the routed-record path;
//! * [`socket::SocketEndpoint`] — length-prefixed frames over Unix-domain
//!   sockets between rank threads or real worker processes.
//!
//! Every implementation round-trips frames through the [`wire`] codec, so
//! the serialized format is exercised even in-process. Payload bytes come
//! from a [`PayloadStore`] — the algorithm layer's registry of live datum
//! cells — which keeps the runtime agnostic of tile/T-factor/pivot
//! representations.

use std::fmt;

use crate::graph::DataKey;
use crate::probe::Histogram;

pub mod loopback;
pub mod socket;
pub mod wire;

pub use wire::{decode_frame, encode_frame, read_frame, write_frame, write_frames, Frame};

/// Typed transport failures, propagated through the streaming executor's
/// `Result` path instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Establishing a connection failed.
    Connect(String),
    /// A frame was malformed (bad magic/version/kind/body).
    Frame(String),
    /// The stream ended mid-frame.
    ShortRead { wanted: usize, got: usize },
    /// A peer's connection dropped while the run was still live.
    PeerLost { peer: usize },
    /// The endpoint was shut down (clean close).
    Closed,
    /// The run protocol was violated (reconciliation mismatch, unexpected
    /// frame, unsupported feature over the wire).
    Protocol(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Connect(m) => write!(f, "connect failed: {m}"),
            TransportError::Frame(m) => write!(f, "bad frame: {m}"),
            TransportError::ShortRead { wanted, got } => {
                write!(f, "short read: wanted {wanted} bytes, got {got}")
            }
            TransportError::PeerLost { peer } => write!(f, "peer {peer} lost"),
            TransportError::Closed => write!(f, "endpoint closed"),
            TransportError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One rank's endpoint: frame-oriented send/recv over some medium.
///
/// `send_batch` may be called concurrently from several threads; `recv` is
/// called from the single receiver thread of the streaming executor.
/// `shutdown` unblocks a pending `recv` with [`TransportError::Closed`]
/// and makes further calls fail; it must be idempotent.
pub trait Transport: Send + Sync {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Total ranks in the set.
    fn nranks(&self) -> usize;
    /// Send `frames` to `to`, in order (delivered in order per link), in as
    /// few writes as the medium allows (a socket: one vectored write over
    /// the frames' headers and payloads, no payload copied).
    fn send_batch(&self, to: usize, frames: &[Frame]) -> Result<(), TransportError>;
    /// Send one frame to `to`: a batch of one.
    fn send(&self, to: usize, frame: &Frame) -> Result<(), TransportError> {
        self.send_batch(to, std::slice::from_ref(frame))
    }
    /// Block for the next frame from any peer; returns `(from, frame)`.
    fn recv(&self) -> Result<(usize, Frame), TransportError>;
    /// Close the endpoint locally, releasing a blocked `recv`.
    fn shutdown(&self);
}

/// The algorithm layer's serializer for live datum payloads.
///
/// `load` snapshots the current contents of `key`'s cell as wire bytes
/// (`None` when the cell is empty — nothing to ship); `store` decodes
/// wire bytes into the cell. Payload bytes and keys come from a peer:
/// `store` reports bytes it cannot decode, and a key it has no cell for,
/// as a [`TransportError`] — which fails the run — and never panics on
/// them. Implementations must be callable from any runtime thread.
pub trait PayloadStore: Send + Sync {
    fn load(&self, key: DataKey) -> Option<Vec<u8>>;
    fn store(&self, key: DataKey, bytes: &[u8]) -> Result<(), TransportError>;
    /// Whether `key` names a datum of this run that a payload can still be
    /// for: its cell exists, or will (a payload may arrive before its
    /// consumer is planned) — not one whose step has retired and dropped
    /// it. The window checks every first delivery of an inbound payload
    /// against this on arrival.
    fn knows(&self, key: DataKey) -> bool;
    /// Whether `key` is part of what the run hands back (what the caller's
    /// solve will read), as opposed to an intermediate. At the end of a
    /// run a rank ships rank 0 the result data it holds and nothing else.
    fn in_result(&self, key: DataKey) -> bool;
}

/// Wire-level traffic totals of one rank's run, reported alongside the
/// protocol-message statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetReport {
    /// This endpoint's rank and the size of the set.
    pub rank: usize,
    pub nranks: usize,
    /// Protocol frames (data / decision) sent and received.
    pub frames_sent: u64,
    pub frames_received: u64,
    /// Control frames (sync / result / done / fin / shutdown).
    pub ctrl_frames_sent: u64,
    pub ctrl_frames_received: u64,
    /// Serialized payload bytes actually moved (not the modeled sizes).
    pub payload_bytes_sent: u64,
    pub payload_bytes_received: u64,
    /// Per-payload serialize / deserialize latencies.
    pub serialize_seconds: Histogram,
    pub deserialize_seconds: Histogram,
}
