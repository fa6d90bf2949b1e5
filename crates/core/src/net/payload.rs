//! Payload serialization for the real transport layer.
//!
//! The runtime moves wire frames; the *contents* of a data frame are the
//! algorithm layer's business. Every datum the planners declare is either
//! a tile of the rank's matrix mirror or a cell of the run's per-step
//! table ([`crate::state::StepCells`]), and its [`DataKey`] says which:
//! [`StepStore`] implements the runtime's [`PayloadStore`] by unpacking
//! the key (`(kind, i, k)`) and indexing the mirror or the table — `load`
//! snapshots a cell as little-endian wire bytes, `store` decodes wire
//! bytes back into the (remote mirror's) cell. A rank's mirror holds the
//! tiles homed on it; a tile from elsewhere is an empty `Mat` until its
//! first payload arrives, and the tile-shaped frame materialises it.
//!
//! Keys and bytes arrive from peers: a key that names nothing here — or a
//! cell of a step that has retired and dropped its data — and bytes that
//! do not decode, are a [`TransportError`], never a panic, and never bring
//! a dropped cell back.
//!
//! The codecs are hand-rolled (the workspace vendors no serde): `u32`/`u64`
//! length-and-tag fields plus `f64::to_bits` for floats, so a round-trip is
//! bitwise — the property the distributed parity oracle relies on.

use std::sync::Arc;

use luqr_kernels::incpiv::PairPivot;
use luqr_kernels::{Mat, TFactor};
use luqr_runtime::{DataKey, PayloadStore, TransportError};

use crate::config::{Decision, StepRecord};
use crate::criteria::{DomainCritData, PanelCritData};
use crate::keys::{self, Kind};
use crate::panel::PanelFactorization;
use crate::state::RunCtx;

/// [`PayloadStore`] over a rank's run context: tile payloads resolve into
/// the rank's matrix mirror, everything else into the cells of the step
/// the key names.
pub(crate) struct StepStore {
    ctx: Arc<RunCtx>,
}

impl StepStore {
    pub(crate) fn new(ctx: Arc<RunCtx>) -> Self {
        StepStore { ctx }
    }

    /// Exclusive bounds of the two indices a `kind` key packs, in this
    /// run — the one place that says which keys name a datum here.
    fn bounds(&self, kind: Kind) -> (usize, usize) {
        let (aug, steps) = (&self.ctx.aug, self.ctx.nt_a);
        match kind {
            Kind::Tile => (aug.mt(), aug.nt()),
            Kind::Pivot | Kind::Decision => (1, steps),
            Kind::SwapScratch => (aug.nt(), steps),
            // By tile row — or criterion group, of which a step has at
            // most one per panel row.
            Kind::TFactor | Kind::Backup | Kind::IncPivL | Kind::CritScratch => (aug.mt(), steps),
        }
    }

    /// `key` unpacked, if it is in bounds for this run.
    fn resolve(&self, key: DataKey) -> Option<(Kind, usize, usize)> {
        let (kind, i, k) = keys::unpack(key)?;
        let (rows, steps) = self.bounds(kind);
        (i < rows && k < steps).then_some((kind, i, k))
    }
}

/// Cell `i` of a step's `cells`, which a planner sizes to what its ops
/// index: a key in bounds for the run may still name none.
fn cell<T>(cells: &[T], i: usize, key: DataKey) -> Result<&T, TransportError> {
    cells.get(i).ok_or_else(|| unknown(key))
}

fn unknown(key: DataKey) -> TransportError {
    TransportError::Protocol(format!("no payload cell for {key:?}"))
}

fn retired(key: DataKey) -> TransportError {
    TransportError::Protocol(format!(
        "payload for {key:?}, whose step has retired and dropped its cells"
    ))
}

impl PayloadStore for StepStore {
    fn knows(&self, key: DataKey) -> bool {
        // A step that is not planned yet is still to come (a payload may
        // overtake its consumer's planning); one that has retired is over.
        self.resolve(key).is_some_and(|(kind, _, k)| {
            matches!(kind, Kind::Tile | Kind::Decision)
                || self
                    .ctx
                    .steps
                    .try_get(k)
                    .is_none_or(|c| c.try_data().is_some())
        })
    }

    fn in_result(&self, key: DataKey) -> bool {
        // Back-substitution reads `U` and the transformed right-hand side:
        // nothing below the diagonal, no step cell.
        matches!(self.resolve(key), Some((Kind::Tile, i, j)) if i <= j || j >= self.ctx.nt_a)
    }

    fn load(&self, key: DataKey) -> Option<Vec<u8>> {
        let (kind, i, k) = keys::unpack(key).unwrap_or_else(|| panic!("{key:?} is not ours"));
        if kind == Kind::Tile {
            return Some(encode_mat(&self.ctx.aug.tile_ref(i, k).lock()));
        }
        let cells = self.ctx.steps.get(k);
        if kind == Kind::Decision {
            // Shipping the decision also ships the step's record, so every
            // rank's record list is complete.
            return cells.decision.get().map(|d| {
                let recs = self.ctx.shared.records.lock();
                encode_decision(*d, recs.iter().find(|r| r.k == k))
            });
        }
        // A retired step has nothing left to ship.
        let cells = cells.try_data()?;
        match kind {
            Kind::Tile | Kind::Decision => unreachable!("resolved above"),
            Kind::TFactor => cells.tf[i].lock().as_ref().map(encode_tfactor),
            Kind::Pivot => cells.panel.get().map(encode_panel),
            Kind::Backup => cells.backup[i].lock().as_ref().map(encode_mat),
            Kind::SwapScratch => cells.scratch[i].lock().as_ref().map(encode_mat),
            Kind::CritScratch => cells.crit[i].get().map(encode_domain_crit),
            Kind::IncPivL => cells.l[i].get().map(|(l, piv)| {
                let mut out = encode_mat(l);
                put_pivots(&mut out, piv);
                out
            }),
        }
    }

    fn store(&self, key: DataKey, bytes: &[u8]) -> Result<(), TransportError> {
        let (kind, i, k) = self.resolve(key).ok_or_else(|| unknown(key))?;
        let mut rd = Rd::new(bytes);
        if kind == Kind::Tile {
            // An empty payload means the producer's cell was empty
            // (nothing to ship); leave the mirror's cell as it is too.
            if bytes.is_empty() {
                return Ok(());
            }
            // Straight into the tile's own buffer: a frame overwrites a
            // whole tile, so nothing of the old contents needs to survive.
            rd.mat_into(&mut self.ctx.aug.tile_ref(i, k).lock())?;
            return rd.finish(key);
        }
        let cells = self.ctx.steps.try_get(k).ok_or_else(|| unknown(key))?;
        if bytes.is_empty() {
            return Ok(());
        }
        if kind == Kind::Decision {
            let (d, rec) = rd.decision()?;
            let _ = cells.decision.set(d);
            if let Some(rec) = rec {
                // The decision may arrive twice (broadcast, and as the
                // modeled message) — push its record at most once per step.
                let mut recs = self.ctx.shared.records.lock();
                if !recs.iter().any(|r| r.k == k) {
                    recs.push(rec);
                }
            }
            return rd.finish(key);
        }
        let cells = cells.try_data().ok_or_else(|| retired(key))?;
        match kind {
            Kind::Tile | Kind::Decision => unreachable!("resolved above"),
            Kind::TFactor => *cell(&cells.tf, i, key)?.lock() = Some(rd.tfactor()?),
            Kind::Pivot => {
                let _ = cells.panel.set(rd.panel()?);
            }
            Kind::Backup => *cell(&cells.backup, i, key)?.lock() = Some(rd.mat()?),
            Kind::SwapScratch => *cell(&cells.scratch, i, key)?.lock() = Some(rd.mat()?),
            Kind::CritScratch => {
                let _ = cell(&cells.crit, i, key)?.set(rd.domain_crit()?);
            }
            Kind::IncPivL => {
                let slot = cell(&cells.l, i, key)?;
                let l = rd.mat()?;
                let piv = rd.pivots()?;
                let _ = slot.set((l, piv));
            }
        }
        rd.finish(key)
    }
}

// ---------------------------------------------------------------------------
// Little-endian codec primitives.

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append `vs` as little-endian bit patterns: one exactly-sized extend
/// (the flattened iterator knows its length), a block copy on a
/// little-endian host.
fn put_f64_slice(out: &mut Vec<u8>, vs: &[f64]) {
    out.extend(vs.iter().flat_map(|v| v.to_bits().to_le_bytes()));
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u64(out, vs.len() as u64);
    put_f64_slice(out, vs);
}

fn put_usizes(out: &mut Vec<u8>, vs: &[usize]) {
    put_u64(out, vs.len() as u64);
    for &v in vs {
        put_u64(out, v as u64);
    }
}

fn put_pivots(out: &mut Vec<u8>, vs: &[PairPivot]) {
    put_u64(out, vs.len() as u64);
    for v in vs {
        match v {
            None => out.push(0),
            Some(r) => {
                out.push(1);
                put_u64(out, *r as u64);
            }
        }
    }
}

fn le_u64(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("an 8-byte word"))
}

fn le_f64(word: &[u8]) -> f64 {
    f64::from_bits(le_u64(word))
}

/// Bounds-checked little-endian reader. Payload bytes come from a peer:
/// a read past the end is a [`TransportError::Frame`], reported before
/// anything is allocated that a bad count would size.
pub(crate) struct Rd<'a> {
    b: &'a [u8],
    p: usize,
}

type Decoded<T> = Result<T, TransportError>;

impl<'a> Rd<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Rd { b, p: 0 }
    }

    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        if n > self.remaining() {
            return Err(TransportError::Frame(format!(
                "payload truncated: wanted {} bytes at {}, have {}",
                n,
                self.p,
                self.b.len()
            )));
        }
        let s = &self.b[self.p..self.p + n];
        self.p += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Decoded<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("a 4-byte word"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Decoded<u64> {
        Ok(le_u64(self.take(8)?))
    }

    pub(crate) fn f64(&mut self) -> Decoded<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn u8(&mut self) -> Decoded<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn remaining(&self) -> usize {
        self.b.len() - self.p
    }

    /// The next `count` 8-byte words. Counts and dimensions come off the
    /// wire: the byte length is formed without overflow and bounds-checked
    /// by [`Rd::take`] *before* anything is sized by it (a count too large
    /// to express is just a payload that is too short).
    fn words(&mut self, count: Option<usize>) -> Decoded<std::slice::ChunksExact<'a, u8>> {
        let len = count.and_then(|c| c.checked_mul(8)).unwrap_or(usize::MAX);
        Ok(self.take(len)?.chunks_exact(8))
    }

    /// A `u64` element count, as a `usize` when it fits.
    fn count(&mut self) -> Decoded<Option<usize>> {
        Ok(usize::try_from(self.u64()?).ok())
    }

    fn f64s(&mut self) -> Decoded<Vec<f64>> {
        let n = self.count()?;
        Ok(self.words(n)?.map(le_f64).collect())
    }

    fn usizes(&mut self) -> Decoded<Vec<usize>> {
        let n = self.count()?;
        Ok(self.words(n)?.map(|w| le_u64(w) as usize).collect())
    }

    pub(crate) fn pivots(&mut self) -> Decoded<Vec<PairPivot>> {
        // Every pivot takes at least its tag byte.
        let n = self.count()?.unwrap_or(usize::MAX);
        if n > self.remaining() {
            return Err(TransportError::Frame(format!(
                "payload truncated: wanted {n} pivots at {}, have {}",
                self.p,
                self.b.len()
            )));
        }
        (0..n)
            .map(|_| {
                Ok(match self.u8()? {
                    0 => None,
                    _ => Some(self.u64()? as usize),
                })
            })
            .collect()
    }

    /// The payload must end here.
    pub(crate) fn finish(self, key: DataKey) -> Decoded<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(TransportError::Frame(format!(
                "{n} trailing bytes after decoding payload for {key:?}"
            ))),
        }
    }

    pub(crate) fn mat(&mut self) -> Decoded<Mat> {
        let mut a = Mat::zeros(0, 0);
        self.mat_into(&mut a)?;
        Ok(a)
    }

    /// Decode a matrix into `dst`, keeping `dst`'s buffer when the
    /// dimensions on the wire match its own. `dst` is untouched on error.
    pub(crate) fn mat_into(&mut self, dst: &mut Mat) -> Decoded<()> {
        let m = self.u32()? as usize;
        let n = self.u32()? as usize;
        let words = self.words(m.checked_mul(n))?;
        if dst.dims() != (m, n) {
            *dst = Mat::zeros(m, n);
        }
        for (d, w) in dst.as_mut_slice().iter_mut().zip(words) {
            *d = le_f64(w);
        }
        Ok(())
    }

    fn tfactor(&mut self) -> Decoded<TFactor> {
        let ib = self.u32()? as usize;
        Ok(TFactor { ib, t: self.mat()? })
    }

    fn panel(&mut self) -> Decoded<PanelFactorization> {
        let ipiv = self.usizes()?;
        let crit = self.panel_crit()?;
        let heights = self.usizes()?;
        Ok(PanelFactorization::new(ipiv, crit, heights))
    }

    fn panel_crit(&mut self) -> Decoded<PanelCritData> {
        Ok(PanelCritData {
            inv_norm_recip: self.f64()?,
            below_diag_max_norm1: self.f64()?,
            below_diag_sum_norm1: self.f64()?,
            local_col_max: self.f64s()?,
            pivot_abs: self.f64s()?,
        })
    }

    fn domain_crit(&mut self) -> Decoded<DomainCritData> {
        Ok(DomainCritData {
            max_tile_norm1: self.f64()?,
            sum_tile_norm1: self.f64()?,
            col_max: self.f64s()?,
        })
    }

    fn which(&mut self) -> Decoded<Decision> {
        Ok(match self.u8()? {
            0 => Decision::Lu,
            _ => Decision::Qr,
        })
    }

    pub(crate) fn record(&mut self) -> Decoded<StepRecord> {
        Ok(StepRecord {
            k: self.u64()? as usize,
            decision: self.which()?,
            lhs: self.f64()?,
            rhs: self.f64()?,
            panel_norm: self.f64()?,
        })
    }

    fn decision(&mut self) -> Decoded<(Decision, Option<StepRecord>)> {
        let d = self.which()?;
        let rec = match self.u8()? {
            0 => None,
            _ => Some(self.record()?),
        };
        Ok((d, rec))
    }
}

pub(crate) fn put_mat(out: &mut Vec<u8>, m: &Mat) {
    out.reserve(8 + 8 * m.as_slice().len());
    put_u32(out, m.rows() as u32);
    put_u32(out, m.cols() as u32);
    put_f64_slice(out, m.as_slice());
}

fn encode_mat(m: &Mat) -> Vec<u8> {
    let mut out = Vec::new();
    put_mat(&mut out, m);
    out
}

fn encode_tfactor(t: &TFactor) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, t.ib as u32);
    put_mat(&mut out, &t.t);
    out
}

fn encode_panel(p: &PanelFactorization) -> Vec<u8> {
    let mut out = Vec::new();
    put_usizes(&mut out, &p.ipiv);
    encode_panel_crit(&mut out, &p.crit);
    put_usizes(&mut out, &p.heights);
    out
}

fn encode_panel_crit(out: &mut Vec<u8>, c: &PanelCritData) {
    put_f64(out, c.inv_norm_recip);
    put_f64(out, c.below_diag_max_norm1);
    put_f64(out, c.below_diag_sum_norm1);
    put_f64s(out, &c.local_col_max);
    put_f64s(out, &c.pivot_abs);
}

fn encode_domain_crit(c: &DomainCritData) -> Vec<u8> {
    let mut out = Vec::new();
    put_f64(&mut out, c.max_tile_norm1);
    put_f64(&mut out, c.sum_tile_norm1);
    put_f64s(&mut out, &c.col_max);
    out
}

pub(crate) fn encode_record(out: &mut Vec<u8>, r: &StepRecord) {
    put_u64(out, r.k as u64);
    out.push(match r.decision {
        Decision::Lu => 0,
        Decision::Qr => 1,
    });
    put_f64(out, r.lhs);
    put_f64(out, r.rhs);
    put_f64(out, r.panel_norm);
}

fn encode_decision(d: Decision, rec: Option<&StepRecord>) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(match d {
        Decision::Lu => 0,
        Decision::Qr => 1,
    });
    match rec {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            encode_record(&mut out, r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FactorOptions;
    use luqr_tile::TiledMatrix;

    /// The decode failed, as a malformed frame whose message has `what`.
    fn assert_frame_error<T: std::fmt::Debug>(got: Decoded<T>, what: &str) {
        match got {
            Err(TransportError::Frame(m)) if m.contains(what) => {}
            other => panic!("expected a frame error with '{what}', got {other:?}"),
        }
    }

    #[test]
    fn mat_round_trips_bitwise() {
        let m = Mat::random(7, 3, 42);
        let bytes = encode_mat(&m);
        let mut rd = Rd::new(&bytes);
        let back = rd.mat().unwrap();
        assert_eq!(rd.remaining(), 0);
        assert_eq!(m.as_slice(), back.as_slice());
        assert_eq!((m.rows(), m.cols()), (back.rows(), back.cols()));
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The codec moves bit patterns, not values: NaN payloads, signed
    /// zeros, subnormals and infinities all survive.
    #[test]
    fn special_values_round_trip_bitwise() {
        let specials = [
            f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // negative signalling NaN
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -f64::from_bits(1),      // smallest negative subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        let m = Mat::from_fn(3, 3, |i, j| specials[i + 3 * j]);
        let bytes = encode_mat(&m);
        assert_eq!(bytes.len(), 8 + 9 * 8);
        let mut rd = Rd::new(&bytes);
        let back = rd.mat().unwrap();
        assert_eq!(rd.remaining(), 0);
        assert_eq!(bits(&m), bits(&back));
    }

    #[test]
    fn empty_matrices_keep_their_shape() {
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let bytes = encode_mat(&Mat::zeros(m, n));
            assert_eq!(bytes.len(), 8, "{m}x{n} carries dimensions only");
            let mut rd = Rd::new(&bytes);
            assert_eq!(rd.mat().unwrap().dims(), (m, n));
            assert_eq!(rd.remaining(), 0);
        }
    }

    /// Dimensions come off the wire: a product that overflows, or merely
    /// exceeds the payload, must fail the bounds check — not size an
    /// allocation first.
    #[test]
    fn hostile_dimensions_fail_before_allocating() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        put_u32(&mut bytes, u32::MAX);
        bytes.extend_from_slice(&[0; 64]);
        assert_frame_error(Rd::new(&bytes).mat(), "payload truncated");
    }

    #[test]
    fn matrix_one_element_short_is_rejected() {
        let bytes = encode_mat(&Mat::random(4, 3, 1));
        let short = &bytes[..bytes.len() - 8];
        assert_frame_error(Rd::new(short).mat(), "payload truncated");
    }

    #[test]
    fn hostile_vector_count_fails_before_allocating() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[0; 64]);
        assert_frame_error(Rd::new(&bytes).f64s(), "payload truncated");
    }

    #[test]
    fn hostile_pivot_count_fails_before_allocating() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1 << 40);
        bytes.extend_from_slice(&[0; 64]);
        assert_frame_error(Rd::new(&bytes).pivots(), "payload truncated");
    }

    #[test]
    fn tfactor_and_l_payloads_round_trip() {
        let tf = TFactor {
            ib: 4,
            t: Mat::random(4, 12, 3),
        };
        let bytes = encode_tfactor(&tf);
        assert_eq!(bytes.len(), 4 + 8 + 48 * 8);
        let mut rd = Rd::new(&bytes);
        let back = rd.tfactor().unwrap();
        assert_eq!(rd.remaining(), 0);
        assert_eq!((back.ib, bits(&back.t)), (tf.ib, bits(&tf.t)));

        let (l, piv) = (Mat::random(6, 6, 4), vec![None, Some(5), Some(0)]);
        let mut bytes = encode_mat(&l);
        put_pivots(&mut bytes, &piv);
        let mut rd = Rd::new(&bytes);
        assert_eq!(
            (bits(&rd.mat().unwrap()), rd.pivots().unwrap()),
            (bits(&l), piv)
        );
        assert_eq!(rd.remaining(), 0);
    }

    /// A store over a one-tile matrix with no step planned.
    fn one_tile_store() -> (TiledMatrix, StepStore) {
        let aug = TiledMatrix::from_dense(&Mat::random(4, 4, 5), 4);
        let opts = FactorOptions {
            nb: 4,
            ..FactorOptions::default()
        };
        let store = StepStore::new(RunCtx::new(&aug, 1, &opts));
        (aug, store)
    }

    /// A tile frame is decoded into the tile's own buffer; only a frame of
    /// another shape replaces it.
    #[test]
    fn store_decodes_a_tile_in_place() {
        let (aug, store) = one_tile_store();
        let tile = aug.tile(0, 0);
        let before = tile.lock().as_slice().as_ptr();

        let same_shape = Mat::random(4, 4, 6);
        store
            .store(keys::tile(0, 0), &encode_mat(&same_shape))
            .unwrap();
        assert_eq!(bits(&tile.lock()), bits(&same_shape));
        assert_eq!(tile.lock().as_slice().as_ptr(), before, "allocation kept");

        let other_shape = Mat::random(2, 8, 7);
        store
            .store(keys::tile(0, 0), &encode_mat(&other_shape))
            .unwrap();
        assert_eq!(tile.lock().dims(), (2, 8));
        assert_eq!(bits(&tile.lock()), bits(&other_shape));

        // And what `load` ships is what `store` took.
        assert_eq!(
            store.load(keys::tile(0, 0)).unwrap(),
            encode_mat(&other_shape)
        );
    }

    #[test]
    fn store_rejects_a_truncated_tile_and_leaves_it_alone() {
        let (aug, store) = one_tile_store();
        let before = bits(&aug.tile(0, 0).lock());
        let bytes = encode_mat(&Mat::random(4, 4, 8));
        let short = &bytes[..bytes.len() - 1];
        assert_frame_error(store.store(keys::tile(0, 0), short), "payload truncated");
        assert_eq!(bits(&aug.tile(0, 0).lock()), before);
    }

    #[test]
    fn store_rejects_trailing_bytes() {
        let (_aug, store) = one_tile_store();
        let mut bytes = encode_mat(&Mat::random(4, 4, 9));
        bytes.push(0);
        assert_frame_error(store.store(keys::tile(0, 0), &bytes), "trailing bytes");
    }

    /// Keys come off the wire too: one that names no tile, no planned
    /// step, or nothing at all is a protocol error.
    #[test]
    fn store_rejects_keys_it_has_no_cell_for() {
        let (_aug, store) = one_tile_store();
        let payload = encode_mat(&Mat::random(4, 4, 10));
        for key in [
            keys::tile(0, 7),
            keys::tile(3, 0),
            keys::tfactor(0, 0), // a real datum, but step 0 is not planned
            keys::backup(0, 5),
            DataKey(0),
            DataKey(u64::MAX),
        ] {
            match store.store(key, &payload) {
                Err(TransportError::Protocol(m)) => assert!(m.contains("no payload cell")),
                other => panic!("{key:?}: expected a protocol error, got {other:?}"),
            }
        }
        assert!(store.knows(keys::tile(0, 0)) && store.knows(keys::tfactor(0, 0)));
        assert!(!store.knows(keys::tile(0, 7)) && !store.knows(keys::backup(0, 5)));
        assert!(!store.knows(DataKey(0)) && !store.knows(DataKey(u64::MAX)));
    }

    /// A rank's mirror holds no tile it neither owns nor was sent: the
    /// first payload for such a tile materialises it, with the frame's
    /// dimensions.
    #[test]
    fn store_materialises_an_absent_tile() {
        let (a, rhs) = (Mat::random(8, 8, 5), Mat::random(8, 1, 6));
        let aug = TiledMatrix::from_dense_augmented_where(&a, &rhs, 4, |i, _| i == 0);
        let opts = FactorOptions {
            nb: 4,
            ..FactorOptions::default()
        };
        let store = StepStore::new(RunCtx::new(&aug, 2, &opts));
        assert!(aug.holds_tile(0, 1) && !aug.holds_tile(1, 1));
        let sent = a.sub(4, 4, 4, 4);
        store.store(keys::tile(1, 1), &encode_mat(&sent)).unwrap();
        assert!(aug.holds_tile(1, 1));
        assert_eq!(bits(&aug.tile(1, 1).lock()), bits(&sent));
        assert!(!aug.holds_tile(1, 0), "nothing else appeared");
    }

    /// The hand-off ships what back-substitution reads.
    #[test]
    fn the_result_is_the_upper_triangle_and_the_right_hand_side() {
        let aug =
            TiledMatrix::from_dense_augmented(&Mat::random(8, 8, 5), &Mat::random(8, 1, 6), 4);
        let opts = FactorOptions {
            nb: 4,
            ..FactorOptions::default()
        };
        let store = StepStore::new(RunCtx::new(&aug, 2, &opts));
        for (i, j, want) in [
            (0, 0, true),
            (0, 1, true),
            (1, 1, true),
            (1, 0, false), // below the diagonal
            (0, 2, true),  // right-hand side
            (1, 2, true),
        ] {
            assert_eq!(store.in_result(keys::tile(i, j)), want, "tile ({i},{j})");
        }
        for key in [
            keys::tfactor(0, 0),
            keys::pivots(1),
            keys::decision(0),
            keys::swap_scratch(1, 0),
            keys::tile(2, 0), // no such tile
            DataKey(0),
        ] {
            assert!(!store.in_result(key), "{key:?}");
        }
    }

    /// A retired step has dropped its cells: it ships nothing, takes
    /// nothing — a typed error, and no cell comes back — and only its
    /// decision, which is part of the plan, stays.
    #[test]
    fn a_retired_step_neither_ships_nor_takes_payloads() {
        use crate::state::{cells, StepCells, StepData, StepPlan};
        let aug = TiledMatrix::from_dense(&Mat::random(4, 4, 5), 4);
        let opts = FactorOptions {
            nb: 4,
            ..FactorOptions::default()
        };
        let ctx = RunCtx::new(&aug, 1, &opts);
        let data = StepData {
            tf: cells(1),
            ..StepData::default()
        };
        ctx.steps.open(0, StepCells::new(StepPlan::default(), data));
        let store = StepStore::new(Arc::clone(&ctx));
        let key = keys::tfactor(0, 0);
        let payload = encode_tfactor(&TFactor {
            ib: 2,
            t: Mat::random(2, 4, 7),
        });

        assert!(store.knows(key));
        store.store(key, &payload).unwrap();
        assert_eq!(store.load(key), Some(payload.clone()));
        assert_eq!(ctx.live_steps(), 1);

        ctx.retire_step(0);
        assert_eq!(ctx.live_steps(), 0);
        assert!(!store.knows(key));
        assert_eq!(store.load(key), None);
        match store.store(key, &payload) {
            Err(TransportError::Protocol(m)) => assert!(m.contains("has retired"), "{m}"),
            other => panic!("expected a retired-step protocol error, got {other:?}"),
        }
        assert_eq!(ctx.live_steps(), 0, "the cell did not come back");

        let decision = encode_decision(Decision::Qr, None);
        assert!(store.knows(keys::decision(0)));
        store.store(keys::decision(0), &decision).unwrap();
        assert_eq!(store.load(keys::decision(0)), Some(decision));
    }

    #[test]
    fn decision_with_record_round_trips() {
        let rec = StepRecord {
            k: 3,
            decision: Decision::Qr,
            lhs: 1.5e-3,
            rhs: 2.25,
            panel_norm: 17.0,
        };
        let bytes = encode_decision(Decision::Qr, Some(&rec));
        let mut rd = Rd::new(&bytes);
        let (d, r) = rd.decision().unwrap();
        assert_eq!(rd.remaining(), 0);
        assert_eq!(d, Decision::Qr);
        let r = r.unwrap();
        assert_eq!(r.k, 3);
        assert_eq!(r.lhs.to_bits(), rec.lhs.to_bits());
    }

    #[test]
    fn pivots_round_trip() {
        let piv = vec![None, Some(4), Some(0), None];
        let mut out = Vec::new();
        put_pivots(&mut out, &piv);
        let mut rd = Rd::new(&out);
        assert_eq!(rd.pivots().unwrap(), piv);
    }
}
