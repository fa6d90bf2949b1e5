//! Payload serialization for the real transport layer.
//!
//! The runtime moves wire frames; the *contents* of a data frame are the
//! algorithm layer's business. Every datum the planners declare — tiles,
//! T-factors, panel factorizations, criterion data, the per-step decision —
//! has a live cell shared between its producer and consumer tasks. This
//! module keeps a registry mapping [`DataKey`]s to those cells
//! ([`PayloadSlot`]), and [`RegistryStore`] implements the runtime's
//! [`PayloadStore`]: `load` snapshots a cell as little-endian wire bytes,
//! `store` decodes wire bytes back into the (remote mirror's) cell.
//!
//! The codecs are hand-rolled (the workspace vendors no serde): `u32`/`u64`
//! length-and-tag fields plus `f64::to_bits` for floats, so a round-trip is
//! bitwise — the property the distributed parity oracle relies on.

use std::sync::Arc;

use parking_lot::Mutex;

use luqr_kernels::incpiv::PairPivot;
use luqr_kernels::{Mat, TFactor};
use luqr_runtime::hash::IntMap;
use luqr_runtime::{DataKey, PayloadStore};
use luqr_tile::{TileRef, TiledMatrix};

use crate::builder::{BackupCell, CritCell, DecCell, PanelCell, SharedState, TfCell};
use crate::config::{Decision, StepRecord};
use crate::criteria::{DomainCritData, PanelCritData};
use crate::keys;
use crate::panel::PanelFactorization;

/// Scratch tile shared by a step's row-exchange tasks (same shape as a
/// backup cell, distinct meaning).
pub(crate) type ScratchCell = Arc<Mutex<Option<Mat>>>;
/// Pairwise-elimination L factor + pivots (LU IncPiv).
pub(crate) type LCell = Arc<std::sync::OnceLock<(Mat, Vec<PairPivot>)>>;

/// A live datum cell, registered when the planner declares the datum.
#[derive(Clone)]
pub(crate) enum PayloadSlot {
    /// A T-factor cell (`keys::tfactor`).
    Tf(TfCell),
    /// A panel factorization (`keys::pivots`).
    Panel(PanelCell),
    /// The per-step LU/QR decision plus its criterion record
    /// (`keys::decision`). Shipping the decision also ships the step's
    /// [`StepRecord`], so every rank's record list is complete.
    Dec {
        cell: DecCell,
        records: Arc<Mutex<Vec<StepRecord>>>,
        k: usize,
    },
    /// A panel-tile backup (`keys::backup`).
    Backup(BackupCell),
    /// Off-trial domain criterion data (`keys::crit_scratch`).
    Crit(CritCell),
    /// IncPiv L factor + pivots (`keys::incpiv_l`).
    L(LCell),
    /// Row-exchange scratch tile (`keys::swap_scratch`).
    Scratch(ScratchCell),
}

/// [`PayloadStore`] over a rank's mirror: tile payloads resolve directly
/// into the rank's [`TiledMatrix`]; everything else resolves through the
/// [`SharedState`] payload registry the planners fill while planning.
pub(crate) struct RegistryStore {
    tiles: IntMap<DataKey, TileRef>,
    shared: SharedState,
}

impl RegistryStore {
    pub(crate) fn new(aug: &TiledMatrix, shared: &SharedState) -> Self {
        let mut tiles = IntMap::default();
        for i in 0..aug.mt() {
            for j in 0..aug.nt() {
                tiles.insert(keys::tile(i, j), aug.tile(i, j));
            }
        }
        RegistryStore {
            tiles,
            shared: shared.clone(),
        }
    }

    fn slot(&self, key: DataKey) -> Option<PayloadSlot> {
        self.shared.payloads.lock().get(&key).cloned()
    }
}

impl PayloadStore for RegistryStore {
    fn load(&self, key: DataKey) -> Option<Vec<u8>> {
        if let Some(tile) = self.tiles.get(&key) {
            return Some(encode_mat(&tile.lock()));
        }
        let slot = self
            .slot(key)
            .unwrap_or_else(|| panic!("no payload slot registered for {key:?}"));
        match slot {
            PayloadSlot::Tf(c) => c.lock().as_ref().map(encode_tfactor),
            PayloadSlot::Panel(c) => c.get().map(encode_panel),
            PayloadSlot::Dec { cell, records, k } => cell.get().map(|d| {
                let recs = records.lock();
                encode_decision(*d, recs.iter().find(|r| r.k == k))
            }),
            PayloadSlot::Backup(c) | PayloadSlot::Scratch(c) => c.lock().as_ref().map(encode_mat),
            PayloadSlot::Crit(c) => c.get().map(encode_domain_crit),
            PayloadSlot::L(c) => c.get().map(|(l, piv)| {
                let mut out = encode_mat(l);
                put_pivots(&mut out, piv);
                out
            }),
        }
    }

    fn store(&self, key: DataKey, bytes: &[u8]) {
        // An empty payload means the producer's cell was empty (nothing to
        // ship); leave the mirror's cell empty too.
        if bytes.is_empty() {
            return;
        }
        let mut rd = Rd::new(bytes);
        if let Some(tile) = self.tiles.get(&key) {
            // Straight into the tile's own buffer: a frame overwrites a
            // whole tile, so nothing of the old contents needs to survive.
            rd.mat_into(&mut tile.lock());
            rd.finish(key);
            return;
        }
        let slot = self
            .slot(key)
            .unwrap_or_else(|| panic!("no payload slot registered for {key:?}"));
        match slot {
            PayloadSlot::Tf(c) => *c.lock() = Some(rd.tfactor()),
            PayloadSlot::Panel(c) => {
                let _ = c.set(rd.panel());
            }
            PayloadSlot::Dec { cell, records, k } => {
                let (d, rec) = rd.decision();
                let _ = cell.set(d);
                if let Some(rec) = rec {
                    // The decision arrives both broadcast and (on rank 0)
                    // again with the end-of-run results — push its record
                    // at most once per step.
                    let mut recs = records.lock();
                    if !recs.iter().any(|r| r.k == k) {
                        recs.push(rec);
                    }
                }
            }
            PayloadSlot::Backup(c) | PayloadSlot::Scratch(c) => *c.lock() = Some(rd.mat()),
            PayloadSlot::Crit(c) => {
                let _ = c.set(rd.domain_crit());
            }
            PayloadSlot::L(c) => {
                let l = rd.mat();
                let piv = rd.pivots();
                let _ = c.set((l, piv));
            }
        }
        rd.finish(key);
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

/// Bounds-checked little-endian reader; payload bytes arrive framed and
/// length-checked, so a decode failure here is a codec bug — panic loudly,
/// and before allocating anything a bad count would size.
pub(crate) struct Rd<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Rd<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Rd { b, p: 0 }
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            n <= self.remaining(),
            "payload truncated: wanted {} bytes at {}, have {}",
            n,
            self.p,
            self.b.len()
        );
        let s = &self.b[self.p..self.p + n];
        self.p += n;
        s
    }

    pub(crate) fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    pub(crate) fn u64(&mut self) -> u64 {
        le_u64(self.take(8))
    }

    pub(crate) fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    pub(crate) fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    pub(crate) fn remaining(&self) -> usize {
        self.b.len() - self.p
    }

    /// The next `count` 8-byte words. Counts and dimensions come off the
    /// wire: the byte length is formed without overflow and bounds-checked
    /// by [`Rd::take`] *before* anything is sized by it (a count too large
    /// to express is just a payload that is too short).
    fn words(&mut self, count: Option<usize>) -> std::slice::ChunksExact<'a, u8> {
        let len = count.and_then(|c| c.checked_mul(8)).unwrap_or(usize::MAX);
        self.take(len).chunks_exact(8)
    }

    /// A `u64` element count, as a `usize` when it fits.
    fn count(&mut self) -> Option<usize> {
        usize::try_from(self.u64()).ok()
    }

    fn f64s(&mut self) -> Vec<f64> {
        let n = self.count();
        self.words(n).map(le_f64).collect()
    }

    fn usizes(&mut self) -> Vec<usize> {
        let n = self.count();
        self.words(n).map(|w| le_u64(w) as usize).collect()
    }

    pub(crate) fn pivots(&mut self) -> Vec<PairPivot> {
        // Every pivot takes at least its tag byte.
        let n = self.count().unwrap_or(usize::MAX);
        assert!(
            n <= self.remaining(),
            "payload truncated: wanted {n} pivots at {}, have {}",
            self.p,
            self.b.len()
        );
        (0..n)
            .map(|_| match self.u8() {
                0 => None,
                _ => Some(self.u64() as usize),
            })
            .collect()
    }

    fn finish(self, key: DataKey) {
        assert_eq!(
            self.remaining(),
            0,
            "trailing bytes after decoding payload for {key:?}"
        );
    }

    pub(crate) fn mat(&mut self) -> Mat {
        let mut a = Mat::zeros(0, 0);
        self.mat_into(&mut a);
        a
    }

    /// Decode a matrix into `dst`, keeping `dst`'s buffer when the
    /// dimensions on the wire match its own.
    pub(crate) fn mat_into(&mut self, dst: &mut Mat) {
        let m = self.u32() as usize;
        let n = self.u32() as usize;
        let words = self.words(m.checked_mul(n));
        if dst.dims() != (m, n) {
            *dst = Mat::zeros(m, n);
        }
        for (d, w) in dst.as_mut_slice().iter_mut().zip(words) {
            *d = le_f64(w);
        }
    }

    fn tfactor(&mut self) -> TFactor {
        let ib = self.u32() as usize;
        TFactor { ib, t: self.mat() }
    }

    fn panel(&mut self) -> PanelFactorization {
        let ipiv = self.usizes();
        let crit = self.panel_crit();
        let heights = self.usizes();
        PanelFactorization::new(ipiv, crit, heights)
    }

    fn panel_crit(&mut self) -> PanelCritData {
        PanelCritData {
            inv_norm_recip: self.f64(),
            below_diag_max_norm1: self.f64(),
            below_diag_sum_norm1: self.f64(),
            local_col_max: self.f64s(),
            pivot_abs: self.f64s(),
        }
    }

    fn domain_crit(&mut self) -> DomainCritData {
        DomainCritData {
            max_tile_norm1: self.f64(),
            sum_tile_norm1: self.f64(),
            col_max: self.f64s(),
        }
    }

    pub(crate) fn record(&mut self) -> StepRecord {
        StepRecord {
            k: self.u64() as usize,
            decision: if self.u8() == 0 {
                Decision::Lu
            } else {
                Decision::Qr
            },
            lhs: self.f64(),
            rhs: self.f64(),
            panel_norm: self.f64(),
        }
    }

    fn decision(&mut self) -> (Decision, Option<StepRecord>) {
        let d = if self.u8() == 0 {
            Decision::Lu
        } else {
            Decision::Qr
        };
        let rec = match self.u8() {
            0 => None,
            _ => Some(self.record()),
        };
        (d, rec)
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

    #[test]
    fn mat_round_trips_bitwise() {
        let m = Mat::random(7, 3, 42);
        let bytes = encode_mat(&m);
        let mut rd = Rd::new(&bytes);
        let back = rd.mat();
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
        let back = rd.mat();
        assert_eq!(rd.remaining(), 0);
        assert_eq!(bits(&m), bits(&back));
    }

    #[test]
    fn empty_matrices_keep_their_shape() {
        for (m, n) in [(0, 5), (5, 0), (0, 0)] {
            let bytes = encode_mat(&Mat::zeros(m, n));
            assert_eq!(bytes.len(), 8, "{m}x{n} carries dimensions only");
            let mut rd = Rd::new(&bytes);
            assert_eq!(rd.mat().dims(), (m, n));
            assert_eq!(rd.remaining(), 0);
        }
    }

    /// Dimensions come off the wire: a product that overflows, or merely
    /// exceeds the payload, must fail the bounds check — not size an
    /// allocation first.
    #[test]
    #[should_panic(expected = "payload truncated")]
    fn hostile_dimensions_fail_before_allocating() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::MAX);
        put_u32(&mut bytes, u32::MAX);
        bytes.extend_from_slice(&[0; 64]);
        Rd::new(&bytes).mat();
    }

    #[test]
    #[should_panic(expected = "payload truncated")]
    fn matrix_one_element_short_is_rejected() {
        let bytes = encode_mat(&Mat::random(4, 3, 1));
        Rd::new(&bytes[..bytes.len() - 8]).mat();
    }

    #[test]
    #[should_panic(expected = "payload truncated")]
    fn hostile_vector_count_fails_before_allocating() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[0; 64]);
        Rd::new(&bytes).f64s();
    }

    #[test]
    #[should_panic(expected = "payload truncated")]
    fn hostile_pivot_count_fails_before_allocating() {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1 << 40);
        bytes.extend_from_slice(&[0; 64]);
        Rd::new(&bytes).pivots();
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
        let back = rd.tfactor();
        assert_eq!(rd.remaining(), 0);
        assert_eq!((back.ib, bits(&back.t)), (tf.ib, bits(&tf.t)));

        let (l, piv) = (Mat::random(6, 6, 4), vec![None, Some(5), Some(0)]);
        let mut bytes = encode_mat(&l);
        put_pivots(&mut bytes, &piv);
        let mut rd = Rd::new(&bytes);
        assert_eq!((bits(&rd.mat()), rd.pivots()), (bits(&l), piv));
        assert_eq!(rd.remaining(), 0);
    }

    fn one_tile_store() -> (TiledMatrix, RegistryStore) {
        let aug = TiledMatrix::from_dense(&Mat::random(4, 4, 5), 4);
        let store = RegistryStore::new(&aug, &SharedState::default());
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
        store.store(keys::tile(0, 0), &encode_mat(&same_shape));
        assert_eq!(bits(&tile.lock()), bits(&same_shape));
        assert_eq!(tile.lock().as_slice().as_ptr(), before, "allocation kept");

        let other_shape = Mat::random(2, 8, 7);
        store.store(keys::tile(0, 0), &encode_mat(&other_shape));
        assert_eq!(tile.lock().dims(), (2, 8));
        assert_eq!(bits(&tile.lock()), bits(&other_shape));

        // And what `load` ships is what `store` took.
        assert_eq!(
            store.load(keys::tile(0, 0)).unwrap(),
            encode_mat(&other_shape)
        );
    }

    #[test]
    #[should_panic(expected = "payload truncated")]
    fn store_rejects_a_truncated_tile() {
        let (_aug, store) = one_tile_store();
        let bytes = encode_mat(&Mat::random(4, 4, 8));
        store.store(keys::tile(0, 0), &bytes[..bytes.len() - 1]);
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn store_rejects_trailing_bytes() {
        let (_aug, store) = one_tile_store();
        let mut bytes = encode_mat(&Mat::random(4, 4, 9));
        bytes.push(0);
        store.store(keys::tile(0, 0), &bytes);
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
        let (d, r) = rd.decision();
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
        assert_eq!(rd.pivots(), piv);
    }
}
