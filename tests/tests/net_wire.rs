//! Wire-format tests for the real-transport frame codec: property-based
//! round-trips for every [`Frame`] variant (tile-sized payload blobs
//! included), a pinned golden frame guarding the byte layout against
//! accidental format drift, and the typed error paths — truncated frames,
//! short reads, closed and dropped peers.

use std::io::Cursor;

use luqr_runtime::net::loopback::LoopbackEndpoint;
use luqr_runtime::net::wire::{
    decode_frame, encode_frame, read_frame, write_frame, Frame, MAGIC, MAX_FRAME, VERSION,
};
use luqr_runtime::{DataClass, DataKey, TaskId, Transport, TransportError};
use proptest::prelude::*;

/// Deterministic pseudo-random payload blob (an LCG over the seed).
fn gen_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 56) as u8
        })
        .collect()
}

/// Build one of the eight frame variants from generated primitives (the
/// vendored proptest shim has no heterogeneous `prop_oneof`). Payload
/// blobs range from empty up past a full 32x32 f64 tile (8 KiB) so real
/// framing sizes are exercised, not just toys.
fn build_frame(kind: usize, a: u64, b: u64, c: u64, (f1, f2): (bool, bool), blob: &[u8]) -> Frame {
    match kind {
        0 => Frame::Hello { rank: a as u32 },
        1 => Frame::Data {
            key: DataKey(a),
            producer: f1.then_some(b as TaskId),
            from: c as u32,
            to: (c >> 32) as u32,
            class: if f2 {
                DataClass::Decision
            } else {
                DataClass::Payload
            },
            modeled_bytes: b ^ c,
            payload: blob.to_vec(),
        },
        2 => Frame::Sync {
            key: DataKey(a),
            producer: b as TaskId,
            payload: blob.to_vec(),
        },
        3 => Frame::Result {
            key: DataKey(a),
            payload: blob.to_vec(),
        },
        4 => Frame::Done,
        5 => Frame::Fin,
        _ => Frame::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode -> decode is the identity for every frame variant.
    #[test]
    fn encode_decode_round_trips(
        kind in 0usize..7,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        flags in (any::<bool>(), any::<bool>()),
        blob in (0usize..9000, any::<u64>()).prop_map(|(n, s)| gen_bytes(n, s)),
    ) {
        let frame = build_frame(kind, a, b, c, flags, &blob);
        let bytes = encode_frame(&frame);
        prop_assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    /// The stream path (write_frame / read_frame) agrees with the buffer
    /// path, including back-to-back frames on one stream.
    #[test]
    fn stream_round_trips(
        kinds in (0usize..7, 0usize..7, 0usize..7),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        flags in (any::<bool>(), any::<bool>()),
        blob in (0usize..9000, any::<u64>()).prop_map(|(n, s)| gen_bytes(n, s)),
    ) {
        let frames = [
            build_frame(kinds.0, a, b, c, flags, &blob),
            build_frame(kinds.1, b, c, a, flags, &blob),
            build_frame(kinds.2, c, a, b, flags, &blob),
        ];
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for f in &frames {
            prop_assert_eq!(&read_frame(&mut cur).unwrap(), f);
        }
        prop_assert!(matches!(read_frame(&mut cur), Err(TransportError::Closed)));
    }

    /// Every strict prefix of an encoded frame fails to decode — no
    /// truncation is silently accepted.
    #[test]
    fn truncation_never_decodes(
        kind in 0usize..7,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        flags in (any::<bool>(), any::<bool>()),
        blob in (0usize..600, any::<u64>()).prop_map(|(n, s)| gen_bytes(n, s)),
    ) {
        let frame = build_frame(kind, a, b, c, flags, &blob);
        let bytes = encode_frame(&frame);
        // Check a spread of cut points (all of them on small frames).
        let step = (bytes.len() / 16).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            prop_assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {} / {} bytes decoded",
                cut,
                bytes.len()
            );
        }
    }
}

/// The exact bytes of a known `Data` frame, pinned. If this test breaks,
/// the wire format changed: bump [`VERSION`] and update every peer — old
/// and new workers cannot be mixed in one mesh.
#[test]
fn golden_data_frame_bytes_are_pinned() {
    let frame = Frame::Data {
        key: DataKey(0x0102_0304_0506_0708),
        producer: Some(9),
        from: 1,
        to: 2,
        class: DataClass::Decision,
        modeled_bytes: 512,
        payload: vec![0xAA, 0xBB, 0xCC],
    };
    let expected: Vec<u8> = vec![
        44, 0, 0, 0, // length prefix: 3 header + 41 body bytes
        MAGIC, VERSION, 1, // kind = Data
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // key (LE)
        1, 9, 0, 0, 0, 0, 0, 0, 0, // producer = Some(9)
        1, 0, 0, 0, // from
        2, 0, 0, 0, // to
        1, // class = Decision
        0, 2, 0, 0, 0, 0, 0, 0, // modeled_bytes = 512 (LE)
        3, 0, 0, 0, // payload length
        0xAA, 0xBB, 0xCC, // payload
    ];
    assert_eq!(encode_frame(&frame), expected);
    assert_eq!(decode_frame(&expected).unwrap(), frame);
}

#[test]
fn golden_control_frame_bytes_are_pinned() {
    assert_eq!(
        encode_frame(&Frame::Done),
        vec![3, 0, 0, 0, MAGIC, VERSION, 5]
    );
    // Kind 2 was a step-retirement notice to rank 0, while every rank
    // planned every task; a rank now retires its own steps.
    let old_retire = [
        15, 0, 0, 0, MAGIC, VERSION, 2, 7, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0,
    ];
    assert_eq!(
        decode_frame(&old_retire),
        Err(TransportError::Frame("unknown frame kind 2".into()))
    );
}

/// EOF before any byte is a clean close; EOF mid-frame is a short read
/// with honest wanted/got accounting.
#[test]
fn eof_maps_to_closed_or_short_read() {
    let bytes = encode_frame(&Frame::Hello { rank: 1 });

    let mut empty = Cursor::new(&[][..]);
    assert!(matches!(
        read_frame(&mut empty),
        Err(TransportError::Closed)
    ));

    let mut header_cut = Cursor::new(&bytes[..2]);
    assert!(matches!(
        read_frame(&mut header_cut),
        Err(TransportError::ShortRead { wanted: 4, got: 2 })
    ));

    let mut body_cut = Cursor::new(&bytes[..bytes.len() - 1]);
    match read_frame(&mut body_cut) {
        Err(TransportError::ShortRead { wanted, got }) => assert_eq!(wanted, got + 1),
        other => panic!("expected ShortRead, got {other:?}"),
    }
}

#[test]
fn corrupt_headers_are_typed_frame_errors() {
    let mut bytes = encode_frame(&Frame::Done);
    bytes[4] = 0x00; // magic
    assert!(matches!(
        decode_frame(&bytes),
        Err(TransportError::Frame(_))
    ));

    let mut bytes = encode_frame(&Frame::Done);
    bytes[5] = VERSION + 1;
    assert!(matches!(
        decode_frame(&bytes),
        Err(TransportError::Frame(_))
    ));

    let mut bytes = encode_frame(&Frame::Done);
    bytes[6] = 250; // unknown kind
    assert!(matches!(
        decode_frame(&bytes),
        Err(TransportError::Frame(_))
    ));

    // Oversized length prefix is rejected before any allocation.
    let mut oversized = Vec::new();
    oversized.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    assert!(matches!(
        decode_frame(&oversized),
        Err(TransportError::Frame(_))
    ));
}

/// A peer closing its endpoint mid-run surfaces as `PeerLost` on the
/// survivor, with the correct peer identified; the survivor's own
/// `shutdown` turns subsequent receives into clean `Closed`.
#[test]
fn dropped_socket_peer_is_peer_lost() {
    let dir = std::env::temp_dir().join(format!("luqr-wiretest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = luqr_runtime::net::socket::SocketSpec::Uds { dir: dir.clone() };
    let set = luqr_runtime::net::socket::socket_set(&spec, 2).unwrap();
    let mut it = set.into_iter();
    let (r0, r1) = (it.next().unwrap(), it.next().unwrap());

    r1.send(0, &Frame::Done).unwrap();
    assert_eq!(r0.recv().unwrap(), (1, Frame::Done));

    r1.shutdown();
    assert!(matches!(
        r0.recv(),
        Err(TransportError::PeerLost { peer: 1 })
    ));

    r0.shutdown();
    assert!(matches!(r0.recv(), Err(TransportError::Closed)));
    assert!(matches!(
        r0.send(1, &Frame::Done),
        Err(TransportError::Closed)
    ));
    let _ = std::fs::remove_dir_all(dir);
}

/// Losing a peer mid-factorization fails the whole run with a typed
/// error instead of hanging: rank 1 connects, handshakes, then vanishes
/// before serving any protocol traffic.
#[test]
fn mid_run_peer_loss_fails_the_run() {
    use luqr::{factor_stream_net_rank, Algorithm, Criterion, FactorOptions, StreamOptions};
    use luqr_tile::Grid;

    let (a, b) = luqr_tests::dominant_system(32, 5, 1);
    let opts = FactorOptions {
        nb: 8,
        ib: 4,
        threads: 2,
        grid: Grid::new(1, 2),
        algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
        ..FactorOptions::default()
    };
    let set = luqr_runtime::net::loopback::loopback_set(2);
    let mut it = set.into_iter();
    let (t0, t1) = (it.next().unwrap(), it.next().unwrap());

    let deserter = std::thread::spawn(move || {
        // Abort broadcast, then gone — exactly what a crashed worker's
        // teardown (or `net_abort`) produces.
        t1.send(0, &Frame::Shutdown).unwrap();
        t1.shutdown();
    });
    let sopts = StreamOptions::fixed(2, 2);
    let err = match factor_stream_net_rank(&a, &b, &opts, &sopts, t0) {
        Err(e) => e,
        Ok(_) => panic!("run must fail when a peer vanishes"),
    };
    assert!(
        matches!(err, TransportError::PeerLost { peer: 1 }),
        "expected PeerLost from rank 1, got {err:?}"
    );
    deserter.join().unwrap();
}

/// A rank-1 endpoint that runs the protocol faithfully except for the
/// first payload-class data frame it sends (a decision also travels as a
/// control frame, so tampering with its data frame would go unnoticed),
/// which `tamper` rewrites.
struct TamperingPeer<T> {
    inner: std::sync::Arc<T>,
    tamper: fn(&mut DataKey, &mut Vec<u8>),
    tampered: std::sync::atomic::AtomicBool,
}

impl<T: Transport> Transport for TamperingPeer<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn send_batch(&self, to: usize, frames: &[Frame]) -> Result<(), TransportError> {
        use std::sync::atomic::Ordering;
        let mut frames = frames.to_vec();
        for frame in &mut frames {
            if let Frame::Data {
                key,
                payload,
                class: DataClass::Payload,
                ..
            } = frame
            {
                if !payload.is_empty() && !self.tampered.swap(true, Ordering::SeqCst) {
                    (self.tamper)(key, payload);
                }
            }
        }
        self.inner.send_batch(to, &frames)
    }
    fn recv(&self) -> Result<(usize, Frame), TransportError> {
        self.inner.recv()
    }
    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

/// Run a two-rank loopback hybrid factorization (`n = 64`, `nb = 8`) on
/// `grid` whose rank 1 sits behind the endpoint `peer` builds, and return
/// what rank 0's run ended with. Under a watchdog: a hostile peer must end
/// the run, not hang or panic it.
fn rank0_outcome_with_peer<T: Transport + 'static>(
    grid: luqr_tile::Grid,
    window: usize,
    peer: impl FnOnce(std::sync::Arc<LoopbackEndpoint>) -> T + Send + 'static,
) -> Result<(), TransportError> {
    use luqr::{factor_stream_net_rank, Algorithm, Criterion, FactorOptions, StreamOptions};
    use std::sync::Arc;

    luqr_tests::with_watchdog("a run with a hostile peer", move || {
        let (a, b) = luqr_tests::dominant_system(64, 5, 1);
        let opts = FactorOptions {
            nb: 8,
            ib: 4,
            threads: 2,
            grid,
            algorithm: Algorithm::LuQr(Criterion::Max { alpha: 100.0 }),
            ..FactorOptions::default()
        };
        let sopts = StreamOptions::fixed(window, 2);
        let mut set = luqr_runtime::net::loopback::loopback_set(2).into_iter();
        let (t0, t1) = (set.next().unwrap(), set.next().unwrap());
        let t1 = Arc::new(peer(t1));
        std::thread::scope(|s| {
            // Rank 1 loses rank 0 once rank 0 fails; its error is the echo.
            s.spawn(|| {
                let _ = factor_stream_net_rank(&a, &b, &opts, &sopts, t1);
            });
            factor_stream_net_rank(&a, &b, &opts, &sopts, t0).map(|_| ())
        })
    })
}

/// [`rank0_outcome_with_peer`] on a 1×2 grid, window 2, with a rank 1 that
/// tampers with its first data frame.
fn rank0_outcome_with_tampering_peer(
    tamper: fn(&mut DataKey, &mut Vec<u8>),
) -> Result<(), TransportError> {
    rank0_outcome_with_peer(luqr_tile::Grid::new(1, 2), 2, move |inner| TamperingPeer {
        inner,
        tamper,
        tampered: Default::default(),
    })
}

/// A data frame whose payload stops short of the matrix it announces
/// fails the run with the codec's typed error.
#[test]
fn truncated_payload_from_a_peer_fails_the_run() {
    let outcome = rank0_outcome_with_tampering_peer(|_key, payload| {
        payload.truncate(payload.len() - 1);
    });
    match outcome {
        Err(TransportError::Frame(m)) => assert!(m.contains("payload truncated"), "{m}"),
        other => panic!("expected a truncated-payload frame error, got {other:?}"),
    }
}

/// A data frame for a datum that does not exist in this run fails the run
/// on arrival — nothing would ever consume it.
#[test]
fn payload_for_an_unknown_datum_fails_the_run() {
    let outcome = rank0_outcome_with_tampering_peer(|key, _payload| {
        *key = DataKey(0xdead << 40);
    });
    match outcome {
        Err(TransportError::Protocol(m)) => assert!(m.contains("not a datum of this run"), "{m}"),
        other => panic!("expected an unknown-datum protocol error, got {other:?}"),
    }
}

/// A rank-1 endpoint that runs the protocol faithfully and, once, sends
/// rank 0 a step-0 payload a second time after rank 0 has retired step 0.
///
/// On a 2×1 grid the panel rows alternate between the ranks, so the
/// hybrid's criterion collection crosses the wire every step: rank 1 ships
/// `crit_scratch(0, 0)` for step 0's panel on rank 0, and rank 0 ships
/// `crit_scratch(0, 1)` for step 1's panel here. With a window of one step
/// rank 0 opens step 1 only after step 0 has retired there, so the arrival
/// of its step-1 frame is the cue: whatever `alter` makes of the saved
/// step-0 frame reaches a rank 0 that has dropped step 0's cells.
struct ReplayingPeer {
    inner: std::sync::Arc<LoopbackEndpoint>,
    alter: fn(&mut Frame),
    saved: std::sync::Mutex<Option<Frame>>,
}

impl Transport for ReplayingPeer {
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn send_batch(&self, to: usize, frames: &[Frame]) -> Result<(), TransportError> {
        let step0 = |frame: &&Frame| matches!(frame, Frame::Data { key, .. } if *key == luqr::keys::crit_scratch(0, 0));
        if let Some(frame) = frames.iter().find(step0) {
            *self.saved.lock().unwrap() = Some(frame.clone());
        }
        self.inner.send_batch(to, frames)
    }
    fn recv(&self) -> Result<(usize, Frame), TransportError> {
        let (from, frame) = self.inner.recv()?;
        if matches!(&frame, Frame::Data { key, .. } if *key == luqr::keys::crit_scratch(0, 1)) {
            let mut replay = (self.saved.lock().unwrap().take())
                .expect("step 0's criterion data left before step 1's arrived");
            (self.alter)(&mut replay);
            self.inner.send(0, &replay)?;
        }
        Ok((from, frame))
    }
    fn shutdown(&self) {
        self.inner.shutdown()
    }
}

fn rank0_outcome_with_replaying_peer(alter: fn(&mut Frame)) -> Result<(), TransportError> {
    rank0_outcome_with_peer(luqr_tile::Grid::new(2, 1), 1, move |inner| ReplayingPeer {
        inner,
        alter,
        saved: Default::default(),
    })
}

/// An exact replay duplicates an arrival rank 0 has applied: the arrival
/// path ignores it — first one wins, whatever has become of the cell — and
/// the run goes on to its end, where the surplus frame on the link fails
/// the wire/protocol reconciliation. No panic on the missing cell, and the
/// cell is not brought back.
#[test]
fn replayed_payload_of_a_retired_step_is_ignored_on_arrival() {
    match rank0_outcome_with_replaying_peer(|_| {}) {
        Err(TransportError::Protocol(m)) => assert!(m.contains("reconciliation failed"), "{m}"),
        other => panic!("expected the end-of-run reconciliation to object, got {other:?}"),
    }
}

/// The same payload under another producer id duplicates nothing: it is a
/// first delivery for a step whose cells are gone, and fails the run on
/// arrival with a typed error.
#[test]
fn fresh_payload_for_a_retired_step_fails_the_run() {
    let outcome = rank0_outcome_with_replaying_peer(|frame| {
        let Frame::Data { producer, .. } = frame else {
            unreachable!("only data frames are saved")
        };
        *producer = Some(producer.expect("a criterion task produced it") + 1_000_000);
    });
    match outcome {
        Err(TransportError::Protocol(m)) => assert!(m.contains("has retired"), "{m}"),
        other => panic!("expected a retired-step protocol error, got {other:?}"),
    }
}
