//! Length-prefixed wire format for the streaming protocol.
//!
//! Every frame is `[len: u32 LE] [magic 0xA7] [version 0x01] [kind: u8]
//! [body]`, where `len` counts the magic, version, kind, and body bytes.
//! The body is a hand-rolled little-endian encoding (the workspace vendors
//! offline — no serde): integers as fixed-width LE, payload blobs as
//! `[len: u32 LE] [bytes]`. The same codec backs every transport — the
//! in-process loopback endpoint round-trips the encoded bytes too, so the
//! format is exercised even when no socket is involved.
//!
//! A payload is the one large field of a frame and always its last, so the
//! stream path never copies it in user space: [`write_frames`] sends the
//! stack-built headers and the payloads of a batch of frames in one
//! vectored write, and
//! [`read_frame`] parses the header out of a small read-ahead and reads the
//! rest of the payload straight into the `Vec` the frame will own.

use std::io::{ErrorKind, IoSlice, Read, Write};

use crate::graph::{DataClass, DataKey, TaskId};

use super::TransportError;

/// First byte after the length prefix of every frame.
pub const MAGIC: u8 = 0xA7;
/// Wire-format revision.
pub const VERSION: u8 = 0x01;
/// Upper bound on `len` (magic + version + kind + body); frames beyond it
/// are rejected before any allocation.
pub const MAX_FRAME: u32 = 1 << 30;

/// One unit of traffic between two ranks.
///
/// `Hello` is the connection handshake (socket transports only). `Data`
/// carries a payload or decision message ([`crate::comm::Msg`]) that a
/// rank's window routes; `modeled_bytes` carries the declared datum size
/// (what [`crate::comm::MsgStats`] counts), which generally differs from
/// the serialized payload length. The rest are control frames of the SPMD
/// run protocol: `Sync` broadcasts a step decision to every peer, `Result`
/// ships an owned datum back to rank 0 at the end, and `Done` / `Fin` /
/// `Shutdown` fence the teardown. Kind 2 is unassigned: it decodes as an
/// unknown kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Handshake: the connecting peer announces its rank.
    Hello { rank: u32 },
    /// A routed payload or decision message with its serialized datum.
    Data {
        key: DataKey,
        producer: Option<TaskId>,
        from: u32,
        to: u32,
        class: DataClass,
        modeled_bytes: u64,
        payload: Vec<u8>,
    },
    /// Decision broadcast: `(key, producing task, serialized decision)`.
    Sync {
        key: DataKey,
        producer: TaskId,
        payload: Vec<u8>,
    },
    /// Final datum hand-off to rank 0.
    Result { key: DataKey, payload: Vec<u8> },
    /// "All my protocol frames are on the wire."
    Done,
    /// "All my results are on the wire."
    Fin,
    /// Rank 0's teardown order.
    Shutdown,
}

const KIND_HELLO: u8 = 0;
const KIND_DATA: u8 = 1;
const KIND_SYNC: u8 = 3;
const KIND_RESULT: u8 = 4;
const KIND_DONE: u8 = 5;
const KIND_FIN: u8 = 6;
const KIND_SHUTDOWN: u8 = 7;

/// Longest frame header after the length prefix: magic, version and kind,
/// then every fixed-width field of a `Data` frame with a producer, up to
/// and including its payload length. Only a payload lies beyond it.
const HEAD_MAX: usize = 3 + 8 + 9 + 4 + 4 + 1 + 8 + 4;

/// A frame's header (length prefix included), built on the stack; the
/// payload, if any, follows it on the wire and is never copied into it.
struct Head {
    buf: [u8; 4 + HEAD_MAX],
    len: usize,
}

impl Head {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// Split a frame into its encoded header and the payload that follows it
/// (empty for the kinds that carry none).
fn encode_head(frame: &Frame) -> (Head, &[u8]) {
    let mut h = Head {
        buf: [0; 4 + HEAD_MAX],
        len: 4, // the length prefix is filled in last
    };
    h.u8(MAGIC);
    h.u8(VERSION);
    let mut blob: Option<&[u8]> = None;
    match frame {
        Frame::Hello { rank } => {
            h.u8(KIND_HELLO);
            h.u32(*rank);
        }
        Frame::Data {
            key,
            producer,
            from,
            to,
            class,
            modeled_bytes,
            payload,
        } => {
            h.u8(KIND_DATA);
            h.u64(key.0);
            match producer {
                Some(id) => {
                    h.u8(1);
                    h.u64(*id as u64);
                }
                None => h.u8(0),
            }
            h.u32(*from);
            h.u32(*to);
            h.u8(match class {
                DataClass::Payload => 0,
                DataClass::Decision => 1,
            });
            h.u64(*modeled_bytes);
            blob = Some(payload);
        }
        Frame::Sync {
            key,
            producer,
            payload,
        } => {
            h.u8(KIND_SYNC);
            h.u64(key.0);
            h.u64(*producer as u64);
            blob = Some(payload);
        }
        Frame::Result { key, payload } => {
            h.u8(KIND_RESULT);
            h.u64(key.0);
            blob = Some(payload);
        }
        Frame::Done => h.u8(KIND_DONE),
        Frame::Fin => h.u8(KIND_FIN),
        Frame::Shutdown => h.u8(KIND_SHUTDOWN),
    }
    if let Some(b) = blob {
        h.u32(b.len() as u32);
    }
    let payload = blob.unwrap_or_default();
    let len = (h.len - 4 + payload.len()) as u32;
    h.buf[..4].copy_from_slice(&len.to_le_bytes());
    (h, payload)
}

/// Encode a frame into its full wire representation (length prefix
/// included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let (head, payload) = encode_head(frame);
    let mut out = Vec::with_capacity(head.len + payload.len());
    out.extend_from_slice(head.bytes());
    out.extend_from_slice(payload);
    out
}

/// Write one frame to a byte stream: header and payload go out in one
/// vectored write, so the payload is not first copied behind its header.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), TransportError> {
    let (head, payload) = encode_head(frame);
    let mut slices = [IoSlice::new(head.bytes()), IoSlice::new(payload)];
    write_slices(w, &mut slices)
}

/// Frames per vectored write of [`write_frames`] (two slices each, well
/// under the kernel's `IOV_MAX`).
const BATCH: usize = 64;

/// Write `frames` to a byte stream, in order: their headers and payloads go
/// out in vectored writes of up to 64 frames, so a batch costs one
/// system call (unless the stream takes it in parts) and no payload is
/// copied behind its header.
pub fn write_frames(w: &mut impl Write, frames: &[Frame]) -> Result<(), TransportError> {
    if let [frame] = frames {
        return write_frame(w, frame);
    }
    for chunk in frames.chunks(BATCH) {
        let heads: Vec<(Head, &[u8])> = chunk.iter().map(encode_head).collect();
        let mut slices: Vec<IoSlice<'_>> = heads
            .iter()
            .flat_map(|(head, payload)| [IoSlice::new(head.bytes()), IoSlice::new(payload)])
            .collect();
        write_slices(w, &mut slices)?;
    }
    Ok(())
}

/// Write every byte of `slices` and flush.
fn write_slices(w: &mut impl Write, mut slices: &mut [IoSlice<'_>]) -> Result<(), TransportError> {
    let mut write_all = || -> std::io::Result<()> {
        while !slices.is_empty() {
            match w.write_vectored(slices) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut slices, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    };
    write_all().map_err(|e| TransportError::Frame(format!("write: {e}")))
}

/// Fill `buf` from `r`, stopping early only at end of stream; returns the
/// number of bytes that arrived.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, TransportError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Frame(format!("read: {e}"))),
        }
    }
    Ok(got)
}

/// Cursor over a received frame: the header fields come out of `head`
/// (the first `min(len, HEAD_MAX)` bytes after the length prefix, already
/// read), a payload's remainder straight from the stream into its own
/// buffer.
struct Reader<'a, R> {
    /// The frame's declared length (magic + version + kind + body).
    len: usize,
    head: &'a [u8],
    pos: usize,
    stream: &'a mut R,
}

impl<R: Read> Reader<'_, R> {
    fn take(&mut self, n: usize) -> Result<&[u8], TransportError> {
        if n > self.head.len() - self.pos {
            return Err(TransportError::ShortRead {
                wanted: n,
                got: self.head.len() - self.pos,
            });
        }
        let s = &self.head[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TransportError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TransportError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TransportError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A payload is its frame's last field: its length must account for
    /// exactly what the frame has left, which also bounds the allocation
    /// by the (already checked) frame length.
    fn blob(&mut self) -> Result<Vec<u8>, TransportError> {
        let n = self.u32()? as usize;
        let left = self.len - self.pos;
        if n > left {
            return Err(TransportError::ShortRead {
                wanted: n,
                got: left,
            });
        }
        self.pos += n;
        self.done()?;
        let buffered = &self.head[self.pos - n..];
        let mut payload = vec![0u8; n];
        payload[..buffered.len()].copy_from_slice(buffered);
        let got = read_full(self.stream, &mut payload[buffered.len()..])?;
        if buffered.len() + got < n {
            return Err(TransportError::ShortRead {
                wanted: self.len,
                got: self.head.len() + got,
            });
        }
        Ok(payload)
    }

    fn done(&self) -> Result<(), TransportError> {
        if self.pos != self.len {
            return Err(TransportError::Frame(format!(
                "{} trailing bytes after frame body",
                self.len - self.pos
            )));
        }
        Ok(())
    }
}

/// Decode one full wire frame (length prefix included), as produced by
/// [`encode_frame`].
pub fn decode_frame(mut bytes: &[u8]) -> Result<Frame, TransportError> {
    let frame = match read_frame(&mut bytes) {
        // A buffer holds a whole frame or is cut short; it cannot "close".
        Err(TransportError::Closed) => Err(TransportError::ShortRead { wanted: 4, got: 0 }),
        other => other,
    }?;
    if !bytes.is_empty() {
        return Err(TransportError::Frame(format!(
            "{} bytes after the frame",
            bytes.len()
        )));
    }
    Ok(frame)
}

/// Read one frame from a byte stream. A clean EOF before any byte of the
/// length prefix maps to [`TransportError::Closed`]; EOF anywhere else is
/// a [`TransportError::ShortRead`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, TransportError> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf)? {
        4 => {}
        0 => return Err(TransportError::Closed),
        got => return Err(TransportError::ShortRead { wanted: 4, got }),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(TransportError::Frame(format!("oversized frame: {len}")));
    }
    let len = len as usize;
    let mut head = [0u8; HEAD_MAX];
    let head = &mut head[..len.min(HEAD_MAX)];
    let got = read_full(r, head)?;
    if got < head.len() {
        return Err(TransportError::ShortRead { wanted: len, got });
    }
    let mut r = Reader {
        len,
        head,
        pos: 0,
        stream: r,
    };
    let magic = r.u8()?;
    if magic != MAGIC {
        return Err(TransportError::Frame(format!("bad magic 0x{magic:02X}")));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(TransportError::Frame(format!("bad version {version}")));
    }
    let kind = r.u8()?;
    let frame = match kind {
        KIND_HELLO => Frame::Hello { rank: r.u32()? },
        KIND_DATA => {
            let key = DataKey(r.u64()?);
            let producer = match r.u8()? {
                0 => None,
                1 => Some(r.u64()? as TaskId),
                t => return Err(TransportError::Frame(format!("bad producer tag {t}"))),
            };
            let from = r.u32()?;
            let to = r.u32()?;
            let class = match r.u8()? {
                0 => DataClass::Payload,
                1 => DataClass::Decision,
                c => return Err(TransportError::Frame(format!("bad data class {c}"))),
            };
            let modeled_bytes = r.u64()?;
            let payload = r.blob()?;
            Frame::Data {
                key,
                producer,
                from,
                to,
                class,
                modeled_bytes,
                payload,
            }
        }
        KIND_SYNC => Frame::Sync {
            key: DataKey(r.u64()?),
            producer: r.u64()? as TaskId,
            payload: r.blob()?,
        },
        KIND_RESULT => Frame::Result {
            key: DataKey(r.u64()?),
            payload: r.blob()?,
        },
        KIND_DONE => Frame::Done,
        KIND_FIN => Frame::Fin,
        KIND_SHUTDOWN => Frame::Shutdown,
        k => return Err(TransportError::Frame(format!("unknown frame kind {k}"))),
    };
    r.done()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = encode_frame(&f);
        assert_eq!(decode_frame(&bytes).unwrap(), f);
        // And through the stream interface.
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), f);
    }

    #[test]
    fn frames_round_trip() {
        roundtrip(Frame::Hello { rank: 3 });
        roundtrip(Frame::Data {
            key: DataKey(0x0123_4567_89AB_CDEF),
            producer: Some(42),
            from: 1,
            to: 2,
            class: DataClass::Payload,
            modeled_bytes: 51_200,
            payload: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Frame::Data {
            key: DataKey(7),
            producer: None,
            from: 0,
            to: 3,
            class: DataClass::Decision,
            modeled_bytes: 8,
            payload: vec![],
        });
        roundtrip(Frame::Sync {
            key: DataKey(11),
            producer: 100,
            payload: vec![0xFF; 17],
        });
        roundtrip(Frame::Result {
            key: DataKey(12),
            payload: vec![9; 33],
        });
        roundtrip(Frame::Done);
        roundtrip(Frame::Fin);
        roundtrip(Frame::Shutdown);
    }

    fn tile_frame(payload: Vec<u8>) -> Frame {
        Frame::Data {
            key: DataKey(5),
            producer: None,
            from: 0,
            to: 1,
            class: DataClass::Payload,
            modeled_bytes: payload.len() as u64,
            payload,
        }
    }

    /// A stream that hands out (and accepts) a few bytes per call: frames
    /// must survive short reads and partial vectored writes.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        writes: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            let n = buf.len().min(7);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_survive_short_reads_and_partial_writes() {
        let frames = [
            tile_frame((0..=255).collect()),
            Frame::Sync {
                key: DataKey(3),
                producer: 1,
                payload: vec![1],
            },
            tile_frame(vec![]),
            tile_frame(vec![9; 5]), // shorter than the header read-ahead
        ];
        let mut pipe = Trickle {
            data: Vec::new(),
            pos: 0,
            writes: 0,
        };
        for f in &frames {
            write_frame(&mut pipe, f).unwrap();
        }
        // The same frames again, as one batch.
        write_frames(&mut pipe, &frames).unwrap();
        let expected: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        assert_eq!(pipe.data, [&expected[..], &expected[..]].concat());
        for f in frames.iter().chain(&frames) {
            assert_eq!(&read_frame(&mut pipe).unwrap(), f);
        }
        assert_eq!(read_frame(&mut pipe), Err(TransportError::Closed));
    }

    /// Header and payload leave in one vectored write: one syscall per
    /// frame (or batch of frames) on a socket, and no copy of the payload
    /// behind its header.
    #[test]
    fn a_frame_is_one_vectored_write() {
        struct Vectored {
            data: Vec<u8>,
            calls: usize,
        }
        impl Write for Vectored {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                panic!("write_frame must use write_vectored");
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.calls += 1;
                bufs.iter().for_each(|b| self.data.extend_from_slice(b));
                Ok(bufs.iter().map(|b| b.len()).sum())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Vectored {
            data: Vec::new(),
            calls: 0,
        };
        let frame = tile_frame(vec![0x5a; 72 << 10]);
        write_frame(&mut w, &frame).unwrap();
        assert_eq!(w.calls, 1);
        assert_eq!(w.data, encode_frame(&frame));

        // A batch is one vectored write per 64 frames.
        let frames: Vec<Frame> = (0..100).map(|n| tile_frame(vec![n as u8; n])).collect();
        w.data.clear();
        write_frames(&mut w, &frames).unwrap();
        assert_eq!(w.calls, 1 + 2);
        assert_eq!(
            w.data,
            frames.iter().flat_map(encode_frame).collect::<Vec<u8>>()
        );
    }

    /// A payload must account for exactly the rest of its frame.
    #[test]
    fn payload_length_must_match_the_frame() {
        let good = encode_frame(&tile_frame(vec![1, 2, 3, 4]));
        let blob_len_at = good.len() - 4 - 4;
        assert_eq!(good[blob_len_at..blob_len_at + 4], [4, 0, 0, 0]);

        let mut short = good.clone();
        short[blob_len_at] = 3; // one payload byte left over
        assert!(matches!(
            decode_frame(&short),
            Err(TransportError::Frame(_))
        ));

        let mut long = good.clone();
        long[blob_len_at..blob_len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&long),
            Err(TransportError::ShortRead {
                wanted: u32::MAX as usize,
                got: 4
            })
        );

        let mut trailing = good;
        trailing.push(0);
        assert!(matches!(
            decode_frame(&trailing),
            Err(TransportError::Frame(_))
        ));
    }

    #[test]
    fn truncated_frames_are_short_reads() {
        let bytes = encode_frame(&Frame::Sync {
            key: DataKey(1),
            producer: 0,
            payload: vec![7; 3],
        });
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TransportError::ShortRead { .. } | TransportError::Closed
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_frame_errors() {
        let mut bytes = encode_frame(&Frame::Done);
        bytes[4] = 0x00;
        assert!(matches!(
            decode_frame(&bytes),
            Err(TransportError::Frame(_))
        ));
        let mut bytes = encode_frame(&Frame::Done);
        bytes[5] = 0x7F;
        assert!(matches!(
            decode_frame(&bytes),
            Err(TransportError::Frame(_))
        ));
    }
}
