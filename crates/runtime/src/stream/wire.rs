//! The wire: one rank of an SPMD run over a real [`Transport`].
//!
//! **Its share.** Every rank runs the same deterministic source, so every
//! rank names every task by the same id and every version by the same
//! producer, but its window inserts only the tasks placed on it; a task
//! placed elsewhere runs nothing here — it gets its id and a table entry,
//! and, if the rank's sweep names it, the version it writes and, while
//! this rank's tasks use what it overwrites, a stand-in ([`super::window`],
//! "Rank-local planning"). The routing this rank does is the run's
//! restricted to its own links: it sends what its versions owe other nodes
//! and counts what comes to its own tasks, so the ranks' per-link counts
//! together are the whole run's. The wire makes real frames of the
//! messages it *sends* (`link.0 == rank`) and reconciles wire-level
//! counters against those tallies at the end. Each rank retires its own
//! steps, in order.
//!
//! **Batched section writes.** A frame is not written where it is made: it
//! joins its peer's queue, and the critical section that queued it writes
//! each peer's queue as one batch ([`Transport::send_batch`]: over a socket,
//! one vectored write of the frames' headers and payloads) before the
//! window lock is released — at the end of every section and before a
//! worker sleeps. The lock is never taken with frames queued, so frames
//! leave in the order of the sections that made them and per-link order is
//! what it was frame by frame; the counts, the reconciliation and the
//! `Done` fence are those of the single frames. A task's remote inputs sit
//! in its step's list, and the lists of waiters are reused, so the
//! insertion path allocates only as the live window grows.
//!
//! **Arrival gating.** A local task whose input version originates on
//! another rank gains one extra predecessor per such input, resolved when
//! the matching frame arrives. The `(datum, producer)` pair is a pure
//! function of planning order, hence the same on both ends. Frames are
//! buffered as raw bytes at receipt and decoded into the local mirror
//! *lazily* — when a consumer is popped for execution or a remote
//! decision's stand-in settles, under the window lock. Decoding eagerly in
//! the receiver would race the planner: a frame may arrive before the rank
//! has even declared the datum it updates. A decode is a write of the
//! mirror, so it must also come after this rank's tasks that use the
//! datum's earlier local copy: the window orders that, by the remote
//! writer's stand-in, which the consumer waits for beside the frame. A
//! decision computed here is also broadcast to *every* peer as a `Sync`
//! control frame — each rank's driver waits for it, through the decision
//! writer's stand-in, before planning the rest of the step, and the routed
//! `DecisionMsg` (routed only to branch-task hosts) cannot cover ranks
//! whose share of the chosen branch is empty.
//!
//! **End of run.** After the window drains:
//!
//! 1. broadcast `Done` (a fence: per-link FIFO means every protocol frame
//!    this rank sent precedes it);
//! 2. wait for all peers' `Done`s — now every inbound protocol frame has
//!    been counted — and reconcile wire counters against the per-link
//!    protocol tallies;
//! 3. ranks != 0 ship the result data whose final version they hold as
//!    `Result` frames, send `Fin`, and park until `Shutdown`; rank 0 waits
//!    for all `Fin`s (its mirror now holds the result) and broadcasts
//!    `Shutdown`.
//!
//! A failed rank broadcasts `Shutdown` early instead, which every peer
//! reads as [`TransportError::PeerLost`]: the set unwinds, nobody hangs.

use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::comm::{flow_msg, Msg, MsgStats};
use crate::graph::{DataClass, DataKey, TaskId, TaskOp};
use crate::hash::IntMap;
use crate::net::{Frame, NetReport, PayloadStore, Transport, TransportError};
use crate::probe::{metric, Histogram, Label, Probe};

use super::window::{PlannerWait, StreamWindow};
use super::NetConfig;

/// Key of one inbound payload: the datum plus its producing task
/// (`None` = an initial fetch from the datum's home rank).
pub(super) type ArrivalKey = (DataKey, Option<TaskId>);

/// The frame of one inbound version.
enum Payload {
    /// Not received yet.
    Awaited,
    /// Received, not yet decoded into the local mirror.
    Bytes(Vec<u8>),
    /// Decoded and stored into the local mirror.
    Applied,
}

/// One version another rank writes, as this rank sees it.
struct Inbound {
    payload: Payload,
    /// Local tasks blocked on it until it arrives.
    waiters: Vec<TaskId>,
}

impl Inbound {
    fn awaited() -> Inbound {
        Inbound {
            payload: Payload::Awaited,
            waiters: Vec::new(),
        }
    }

    fn arrived(&self) -> bool {
        !matches!(self.payload, Payload::Awaited)
    }
}

/// Per-link wire traffic, counted in protocol-message terms.
type LinkTally = BTreeMap<(usize, usize), MsgStats>;

/// Wire-execution state of one rank.
pub(super) struct Wire {
    rank: usize,
    transport: Arc<dyn Transport>,
    store: Arc<dyn PayloadStore>,
    arrivals: IntMap<ArrivalKey, Inbound>,
    /// The decision datum each live local decision task writes, broadcast
    /// when it completes.
    pub(super) pending_decisions: IntMap<TaskId, DataKey>,
    /// Frames actually sent/received per protocol link, for reconciliation
    /// against the window's `link_msgs`.
    sent: LinkTally,
    received: LinkTally,
    /// Control frames (Sync / Result / Done / Fin / Shutdown) — protocol
    /// overhead outside the message model, counted separately.
    ctrl_sent: u64,
    ctrl_recv: u64,
    payload_bytes_sent: u64,
    payload_bytes_recv: u64,
    ser_hist: Histogram,
    de_hist: Histogram,
    /// End-of-run barrier state.
    dones: HashSet<usize>,
    fins: HashSet<usize>,
    shutdown_seen: bool,
    /// This rank has discharged all its protocol obligations: peers have
    /// sent their `Fin`, rank 0 has broadcast `Shutdown`. From here on a
    /// non-zero peer closing its endpoint is the normal staggered teardown
    /// (it got its `Shutdown` first), not a failure.
    complete: bool,
    /// First transport/protocol error; sticky, fails the whole run.
    error: Option<TransportError>,
    /// The frames of the window's critical section, per peer, written as
    /// one batch each before the section ends ([`Wire::flush`]).
    outbox: Vec<Vec<Frame>>,
    /// Emptied lists of a version's waiters, kept for reuse: so the
    /// insertion path allocates only while the live window grows.
    spare_ids: Vec<Vec<TaskId>>,
}

/// What the receiver pump should do after delivering a frame.
enum FramePump {
    Continue,
    Stop,
}

impl Wire {
    /// Bind `net`'s endpoint as one of `num_nodes` ranks.
    pub(super) fn new(net: NetConfig, num_nodes: usize) -> Result<Self, TransportError> {
        let NetConfig { transport, store } = net;
        let (rank, nranks) = (transport.rank(), transport.nranks());
        if nranks != num_nodes || rank >= nranks {
            return Err(TransportError::Protocol(format!(
                "endpoint is rank {rank} of {nranks}, the run has {num_nodes} node(s)"
            )));
        }
        Ok(Wire {
            rank,
            transport,
            store,
            arrivals: IntMap::default(),
            pending_decisions: IntMap::default(),
            sent: BTreeMap::new(),
            received: BTreeMap::new(),
            ctrl_sent: 0,
            ctrl_recv: 0,
            payload_bytes_sent: 0,
            payload_bytes_recv: 0,
            ser_hist: Histogram::default(),
            de_hist: Histogram::default(),
            dones: HashSet::new(),
            fins: HashSet::new(),
            shutdown_seen: false,
            complete: false,
            error: None,
            outbox: (0..nranks).map(|_| Vec::new()).collect(),
            spare_ids: Vec::new(),
        })
    }

    pub(super) fn nranks(&self) -> usize {
        self.transport.nranks()
    }

    #[inline]
    pub(super) fn error(&self) -> Option<&TransportError> {
        self.error.as_ref()
    }

    fn fail(&mut self, e: TransportError) {
        self.error.get_or_insert(e);
    }

    fn check(&self) -> Result<(), TransportError> {
        self.error.clone().map_or(Ok(()), Err)
    }

    /// Serialize `key`'s current payload from the local mirror (timed into
    /// the serialize histogram). Missing payloads serialize as empty — the
    /// peer's store treats an empty blob as "nothing to apply".
    fn load_payload(&mut self, key: DataKey) -> Vec<u8> {
        let t0 = Instant::now();
        let bytes = self.store.load(key).unwrap_or_default();
        self.ser_hist.observe(t0.elapsed().as_secs_f64());
        bytes
    }

    /// Decode an arrived payload into the local mirror (timed into the
    /// deserialize histogram). A payload the store rejects — truncated,
    /// malformed, for a datum it does not hold — fails the run.
    fn store_payload(&mut self, key: DataKey, bytes: &[u8]) {
        let t0 = Instant::now();
        if let Err(e) = self.store.store(key, bytes) {
            self.fail(e);
        }
        self.de_hist.observe(t0.elapsed().as_secs_f64());
    }

    /// A payload frame arrived for `key`: fail the run unless the store
    /// has such a datum and its step is still to come or in flight
    /// (nothing would ever consume the frame, and the peer that sent it is
    /// not running this protocol).
    fn check_known(&mut self, key: DataKey, from: usize) {
        if !self.store.knows(key) {
            self.fail(TransportError::Protocol(format!(
                "rank {from} sent a payload for {key:?}, which is not a datum of this run \
                 (or belongs to a step that has retired)"
            )));
        }
    }

    /// Queue one frame for `to`: it goes out with the rest of the critical
    /// section's frames to `to` when the section ends.
    fn send_frame(&mut self, to: usize, frame: Frame) {
        self.outbox[to].push(frame);
    }

    /// Write the queued frames: one batch per peer, in the order they were
    /// queued. The window calls this before its lock is released, so the
    /// frames of one critical section cost each peer one write, and per-link
    /// order is the order of the sections. An error fails the run.
    pub(super) fn flush(&mut self) {
        for to in 0..self.outbox.len() {
            if self.outbox[to].is_empty() {
                continue;
            }
            let result = self.transport.send_batch(to, &self.outbox[to]);
            self.outbox[to].clear();
            if let Err(e) = result {
                self.fail(e);
            }
        }
    }

    /// Frames queued and not yet written.
    pub(super) fn queued(&self) -> usize {
        self.outbox.iter().map(Vec::len).sum()
    }

    /// Queue one control frame to every peer.
    fn broadcast(&mut self, frame: &Frame) {
        let rank = self.rank;
        for peer in (0..self.nranks()).filter(|&p| p != rank) {
            self.ctrl_sent += 1;
            self.send_frame(peer, frame.clone());
        }
    }

    // ---- the window's seams --------------------------------------------

    /// This endpoint's rank.
    pub(super) fn rank(&self) -> usize {
        self.rank
    }

    /// Does this rank run the tasks placed on `node`?
    #[inline]
    pub(super) fn runs(&self, node: usize) -> bool {
        node == self.rank
    }

    /// Insertion of task `id`: which of its inputs cross the wire to it —
    /// `inputs`, each a version another rank writes (appended to its step's
    /// `needs`, whose range they take is returned) — and how many of those
    /// have not arrived yet: extra predecessors, released by
    /// [`Wire::arrival`].
    pub(super) fn place(
        &mut self,
        id: TaskId,
        inputs: impl Iterator<Item = ArrivalKey>,
        needs: &mut Vec<ArrivalKey>,
    ) -> (Range<u32>, usize) {
        let start = needs.len();
        needs.extend(inputs);
        let at = |i: usize| u32::try_from(i).expect("a step's inputs fit 32 bits");
        let range = at(start)..at(needs.len());
        let mut gates = 0;
        for &arrival in &needs[start..] {
            let inbound = self
                .arrivals
                .entry(arrival)
                .or_insert_with(Inbound::awaited);
            if !inbound.arrived() {
                if inbound.waiters.capacity() == 0 {
                    inbound.waiters = self.spare_ids.pop().unwrap_or_default();
                }
                inbound.waiters.push(id);
                gates += 1;
            }
        }
        (range, gates)
    }

    /// Put a routed protocol message on the wire if this rank originates
    /// it. `producer` is the executed version the payload carries (`None`
    /// for initial fetches);
    /// [`crate::comm::DecisionMsg`] does not model it, so it is threaded
    /// here for the receiver's arrival key.
    pub(super) fn send(&mut self, msg: &Msg, link: (usize, usize), producer: Option<TaskId>) {
        if link.0 != self.rank {
            return;
        }
        self.sent.entry(link).or_default().record(msg);
        let frame = match msg {
            Msg::Data(m) => Frame::Data {
                key: m.key,
                producer: m.producer,
                from: m.from as u32,
                to: m.to as u32,
                class: DataClass::Payload,
                modeled_bytes: m.bytes as u64,
                payload: self.load_payload(m.key),
            },
            Msg::Decision(m) => Frame::Data {
                key: m.key,
                producer,
                from: m.from as u32,
                to: m.to as u32,
                class: DataClass::Decision,
                modeled_bytes: m.bytes as u64,
                payload: self.load_payload(m.key),
            },
        };
        if let Frame::Data { payload, .. } = &frame {
            self.payload_bytes_sent += payload.len() as u64;
        }
        self.send_frame(link.1, frame);
    }

    /// Local task `id` completed: a decision it computed goes to every
    /// peer.
    pub(super) fn completed(&mut self, id: TaskId) {
        if let Some(key) = self.pending_decisions.remove(&id) {
            let payload = self.load_payload(key);
            self.payload_bytes_sent += (payload.len() * (self.nranks() - 1)) as u64;
            self.broadcast(&Frame::Sync {
                key,
                producer: id,
                payload,
            });
        }
    }

    /// A list the window is done with, for reuse.
    pub(super) fn recycle(&mut self, mut ids: Vec<TaskId>) {
        if ids.capacity() > 0 {
            ids.clear();
            self.spare_ids.push(ids);
        }
    }

    /// A task is popped for execution, or a stand-in settles: decode its
    /// gating arrivals into the local mirror, each once (a later caller
    /// finds it `Applied`). They have all arrived (they were extra
    /// predecessors); every ready task touching the same datum needs the
    /// same version (WAW edges serialize writers, and a remote writer's
    /// stand-in waits for the users of the copy it overwrites), so the
    /// write cannot race a reader. `false` when one could not be decoded,
    /// which has failed the run.
    pub(super) fn apply(&mut self, needs: &[ArrivalKey]) -> bool {
        for &(key, producer) in needs {
            let inbound = self.arrivals.get_mut(&(key, producer));
            let inbound = inbound
                .filter(|inbound| inbound.arrived())
                .unwrap_or_else(|| panic!("task ready before its input {key:?} arrived"));
            if let Payload::Bytes(b) = std::mem::replace(&mut inbound.payload, Payload::Applied) {
                self.store_payload(key, &b);
            }
        }
        self.error.is_none()
    }

    // ---- inbound frames -------------------------------------------------

    /// Record one payload arrival from rank `from` and hand back the tasks
    /// it makes ready. Duplicate deliveries (a Sync broadcast racing the
    /// routed DecisionMsg for the same version; a replayed frame) are
    /// ignored, whatever has become of the datum since: first one wins.
    /// Anything else must name a datum the store still has a place for.
    fn arrival(&mut self, arrival: ArrivalKey, payload: Vec<u8>, from: usize) -> Vec<TaskId> {
        self.payload_bytes_recv += payload.len() as u64;
        let known = self.arrivals.get(&arrival);
        if known.is_some_and(|a| !matches!(a.payload, Payload::Awaited)) {
            return Vec::new();
        }
        self.check_known(arrival.0, from);
        let inbound = self
            .arrivals
            .entry(arrival)
            .or_insert_with(Inbound::awaited);
        inbound.payload = Payload::Bytes(payload);
        std::mem::take(&mut inbound.waiters)
    }

    /// Account one received frame; returns the tasks it releases.
    /// `drained` says whether this rank has planned and run everything.
    fn on_frame(&mut self, from: usize, frame: Frame, drained: bool) -> (Vec<TaskId>, FramePump) {
        let mut released = Vec::new();
        let mut pump = FramePump::Continue;
        if !matches!(frame, Frame::Hello { .. } | Frame::Data { .. }) {
            self.ctrl_recv += 1;
        }
        match frame {
            Frame::Hello { .. } => {}
            Frame::Data {
                key,
                producer,
                from: src,
                to,
                class,
                modeled_bytes,
                payload,
            } => {
                let link = (src as usize, to as usize);
                let msg = flow_msg(key, class, producer, link.0, link.1, modeled_bytes as usize);
                self.received.entry(link).or_default().record(&msg);
                released = self.arrival((key, producer), payload, from);
            }
            Frame::Sync {
                key,
                producer,
                payload,
            } => released = self.arrival((key, Some(producer)), payload, from),
            Frame::Result { key, payload } => {
                // Rank 0 collecting the factored matrix: by the time any
                // Result arrives this rank is drained (per-link FIFO puts
                // it after the peer's Done, which follows our own drain),
                // so the store write cannot race a kernel.
                self.payload_bytes_recv += payload.len() as u64;
                self.check_known(key, from);
                self.store_payload(key, &payload);
            }
            Frame::Done => {
                self.dones.insert(from);
            }
            Frame::Fin => {
                self.fins.insert(from);
            }
            Frame::Shutdown => {
                // Legitimate only after this rank sent its Fin (it is
                // fully drained and parked in `end_of_run`); mid-run it is
                // a peer's abort broadcast.
                self.shutdown_seen = true;
                if !drained {
                    self.fail(TransportError::PeerLost { peer: from });
                }
                pump = FramePump::Stop;
            }
        }
        (released, pump)
    }

    // ---- end of run -----------------------------------------------------

    /// Cross-check this rank's wire traffic against the protocol: on every
    /// link it touches, the frames actually moved must equal the messages
    /// its routing recorded — the sent side by construction, the received
    /// side (counted by this rank, sent by the peer) across a real wire.
    fn reconcile(&mut self, link_msgs: &LinkTally) -> Result<(), TransportError> {
        let rank = self.rank;
        let mut mismatch: Option<String> = None;
        for (&(src, dst), msgs) in link_msgs {
            let (side, wire) = if src == rank {
                ("sent", self.sent.get(&(src, dst)))
            } else if dst == rank {
                ("received", self.received.get(&(src, dst)))
            } else {
                continue;
            };
            let wire = wire.copied().unwrap_or_default();
            if wire != *msgs {
                mismatch = Some(format!(
                    "link ({src},{dst}) {side}: wire {wire:?} != protocol {msgs:?}"
                ));
                break;
            }
        }
        if mismatch.is_none() {
            let stray = self
                .sent
                .iter()
                .filter(|(&(s, _), _)| s == rank)
                .chain(self.received.iter().filter(|(&(_, d), _)| d == rank))
                .find(|(l, _)| !link_msgs.contains_key(l));
            if let Some((&(src, dst), wire)) = stray {
                mismatch = Some(format!(
                    "link ({src},{dst}): wire traffic {wire:?} on a link the \
                     protocol never used"
                ));
            }
        }
        if let Some(m) = mismatch {
            self.fail(TransportError::Protocol(format!(
                "rank {rank} wire/protocol reconciliation failed: {m}"
            )));
        }
        self.check()
    }

    /// Ship rank 0 the result data ([`PayloadStore::in_result`]) among
    /// `held` — the data whose final version lives on this rank — then
    /// `Fin`. Exactly one rank holds each datum's final version, so rank
    /// 0's mirror ends with the whole result, bitwise.
    fn send_results(&mut self, mut held: Vec<DataKey>) -> Result<(), TransportError> {
        held.retain(|&key| self.store.in_result(key));
        held.sort_unstable();
        for key in held {
            let t0 = Instant::now();
            let Some(payload) = self.store.load(key) else {
                continue;
            };
            self.ser_hist.observe(t0.elapsed().as_secs_f64());
            self.ctrl_sent += 1;
            self.payload_bytes_sent += payload.len() as u64;
            // One at a time: the result is not held twice.
            self.send_frame(0, Frame::Result { key, payload });
            self.flush();
            if self.error.is_some() {
                break;
            }
        }
        self.ctrl_sent += 1;
        self.send_frame(0, Frame::Fin);
        self.flush();
        self.complete = true;
        self.check()
    }

    /// Wire-level totals of the run, exported to an enabled `probe` too.
    pub(super) fn report(&self, probe: &Probe) -> NetReport {
        let by_kind = |tally: &LinkTally| {
            tally.values().fold([0u64; 2], |s, m| {
                [s[0] + m.data_msgs, s[1] + m.decision_msgs]
            })
        };
        let (sent, received) = (by_kind(&self.sent), by_kind(&self.received));
        probe.record_batch(|snap| {
            let (to, from) = (self.payload_bytes_sent, self.payload_bytes_recv);
            let sides = [
                (metric::NET_FRAMES_SENT, "sent", sent, self.ctrl_sent, to),
                (
                    metric::NET_FRAMES_RECV,
                    "received",
                    received,
                    self.ctrl_recv,
                    from,
                ),
            ];
            for (frames, side, [data, decision], ctrl, bytes) in sides {
                let kinds = [("data", data), ("decision", decision), ("ctrl", ctrl)];
                for (kind, n) in kinds {
                    if n > 0 {
                        snap.add_counter(frames, Label::Kind(kind), n);
                    }
                }
                if bytes > 0 {
                    snap.add_counter(metric::NET_PAYLOAD_BYTES, Label::Kind(side), bytes);
                }
            }
            snap.merge_histogram(metric::NET_SERIALIZE, Label::None, &self.ser_hist);
            snap.merge_histogram(metric::NET_DESERIALIZE, Label::None, &self.de_hist);
        });
        NetReport {
            rank: self.rank,
            nranks: self.nranks(),
            frames_sent: sent.iter().sum(),
            frames_received: received.iter().sum(),
            ctrl_frames_sent: self.ctrl_sent,
            ctrl_frames_received: self.ctrl_recv,
            payload_bytes_sent: self.payload_bytes_sent,
            payload_bytes_received: self.payload_bytes_recv,
            serialize_seconds: self.ser_hist,
            deserialize_seconds: self.de_hist,
        }
    }
}

/// The wire's side of the driver: the receiver pump and the end-of-run
/// protocol. Each is a no-op on a
/// local window.
impl<O: TaskOp> StreamWindow<O> {
    /// The endpoint of a wire run, for the receiver thread to block on
    /// outside the window lock.
    pub(crate) fn endpoint(&self) -> Option<Arc<dyn Transport>> {
        let st = self.lock();
        st.wire.as_ref().map(|wire| Arc::clone(&wire.transport))
    }

    /// Receiver thread: deliver inbound frames into the window until the
    /// run's shutdown frame (or the endpoint closes underneath us).
    pub(crate) fn pump_frames(&self, transport: &dyn Transport) {
        loop {
            let pump = match transport.recv() {
                Ok((from, frame)) => self.on_frame(from, frame),
                Err(TransportError::Closed) => FramePump::Stop,
                Err(e) => self.on_recv_error(e),
            };
            if matches!(pump, FramePump::Stop) {
                break;
            }
        }
    }

    fn on_frame(&self, from: usize, frame: Frame) -> FramePump {
        let mut st = self.lock();
        let drained = st.drained();
        let Some(wire) = &mut st.wire else {
            return FramePump::Stop;
        };
        let (released, pump) = wire.on_frame(from, frame, drained);
        for &id in &released {
            st.release(id);
        }
        st.settle();
        if let Some(wire) = &mut st.wire {
            wire.recycle(released);
        }
        st.frame_event = true;
        self.finish(st);
        pump
    }

    /// A receiver-side transport failure. Once this rank's protocol
    /// obligations are discharged (`Fin` sent / `Shutdown` broadcast),
    /// peers that received their `Shutdown` first close their endpoints
    /// while we may still be waiting on rank 0's link: the normal staggered
    /// teardown, keep pumping for our own `Shutdown`. Losing rank 0 itself
    /// is never benign — a parked peer would wait for its `Shutdown`
    /// forever. Anything else fails the run and wakes every blocked thread.
    fn on_recv_error(&self, e: TransportError) -> FramePump {
        let mut st = self.lock();
        let Some(wire) = &mut st.wire else {
            return FramePump::Stop;
        };
        if wire.complete && matches!(e, TransportError::PeerLost { peer } if peer != 0) {
            return FramePump::Continue;
        }
        wire.fail(e);
        self.finish(st);
        FramePump::Stop
    }

    /// Block until `cond` holds on the wire state (or the run failed).
    fn wire_wait(&self, cond: impl Fn(&Wire) -> bool) -> Result<(), TransportError> {
        let mut st = self.lock();
        loop {
            if let Some(e) = st.failure() {
                return Err(e);
            }
            match &st.wire {
                Some(wire) if !cond(wire) => {}
                _ => return Ok(()),
            }
            st = self.park_planner(st, PlannerWait::Frame);
        }
    }

    /// Run `f` on the wire state under the window lock, and write what it
    /// queued.
    fn with_wire<R>(&self, f: impl FnOnce(&mut Wire) -> R) -> Option<R> {
        let mut st = self.lock();
        let wire = st.wire.as_mut()?;
        let r = f(wire);
        wire.flush();
        Some(r)
    }

    /// The end-of-run protocol of the module header, called after
    /// [`StreamWindow::wait_drained`]; on a failed run, the error and the
    /// abort broadcast instead. Closes the endpoint in every case: rank 0
    /// never gets a `Shutdown` frame of its own, and an erroring rank's
    /// receiver may still be blocked in `recv()`.
    pub(crate) fn end_of_run(&self) -> Result<(), TransportError> {
        let Some(transport) = self.endpoint() else {
            return Ok(());
        };
        let failure = self.lock().failure();
        let result = match failure {
            Some(e) => Err(e),
            None => self.handshake(transport.rank(), transport.nranks()),
        };
        if result.is_err() {
            self.abort();
        }
        transport.shutdown();
        result
    }

    fn handshake(&self, rank: usize, nranks: usize) -> Result<(), TransportError> {
        self.with_wire(|wire| wire.broadcast(&Frame::Done));
        self.wire_wait(|wire| wire.dones.len() == nranks - 1)?;
        {
            let mut st = self.lock();
            let st = &mut *st;
            if let Some(wire) = &mut st.wire {
                wire.reconcile(&st.link_msgs)?;
            }
        }
        if rank == 0 {
            self.wire_wait(|wire| wire.fins.len() == nranks - 1)?;
            let sent = self.with_wire(|wire| {
                wire.broadcast(&Frame::Shutdown);
                wire.complete = true;
                wire.check()
            });
            sent.unwrap_or(Ok(()))
        } else {
            let mut st = self.lock();
            let held = st.final_versions_on(rank);
            if let Some(wire) = &mut st.wire {
                wire.send_results(held)?;
            }
            drop(st);
            self.wire_wait(|wire| wire.shutdown_seen)
        }
    }

    /// Best-effort abort broadcast: on a failed run, wake every peer out
    /// of its blocking waits so the whole set unwinds instead of hanging —
    /// they cannot make progress without this rank's frames, and over an
    /// in-process transport nobody would notice a silently missing peer.
    pub(crate) fn abort(&self) {
        self.with_wire(|wire| wire.broadcast(&Frame::Shutdown));
    }
}
