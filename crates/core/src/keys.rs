//! Data-key encoding for the task graph.
//!
//! Every datum the tasks touch — tiles, T-factors, panel backups, pivot
//! records, per-domain criterion scratch, per-step decisions — gets a unique
//! [`DataKey`]: the closed-form predecessor sweep that feeds the batch
//! graph and the streaming window alike unpacks them, and the simulator
//! prices them. Keys pack a kind tag and up to two 24-bit indices.

use luqr_runtime::DataKey;

const KIND_SHIFT: u32 = 56;
const I_SHIFT: u32 = 28;
const MASK: u64 = (1 << 28) - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub(crate) enum Kind {
    Tile = 1,
    TFactor = 2,
    Backup = 3,
    Pivot = 4,
    Decision = 5,
    CritScratch = 6,
    IncPivL = 7,
    SwapScratch = 8,
}

/// The key of datum `(kind, i, j)`, as [`unpack`] spells it.
pub(crate) fn pack(kind: Kind, i: usize, j: usize) -> DataKey {
    debug_assert!((i as u64) <= MASK && (j as u64) <= MASK);
    DataKey(((kind as u64) << KIND_SHIFT) | ((i as u64) << I_SHIFT) | j as u64)
}

/// The kind and the two indices packed in `key`, if it is one of ours
/// (keys also arrive off the wire, from peers).
pub(crate) fn unpack(key: DataKey) -> Option<(Kind, usize, usize)> {
    let kind = match key.0 >> KIND_SHIFT {
        1 => Kind::Tile,
        2 => Kind::TFactor,
        3 => Kind::Backup,
        4 => Kind::Pivot,
        5 => Kind::Decision,
        6 => Kind::CritScratch,
        7 => Kind::IncPivL,
        8 => Kind::SwapScratch,
        _ => return None,
    };
    let i = (key.0 >> I_SHIFT) & MASK;
    Some((kind, i as usize, (key.0 & MASK) as usize))
}

/// Tile `(i, j)` of the augmented matrix.
pub fn tile(i: usize, j: usize) -> DataKey {
    pack(Kind::Tile, i, j)
}

/// T-factor produced for tile row `i` at step `k` (GEQRT/TSQRT/TTQRT).
pub fn tfactor(i: usize, k: usize) -> DataKey {
    pack(Kind::TFactor, i, k)
}

/// Backup copy of panel tile `i` taken at step `k`.
pub fn backup(i: usize, k: usize) -> DataKey {
    pack(Kind::Backup, i, k)
}

/// Pivot vector + panel metadata of step `k`.
pub fn pivots(k: usize) -> DataKey {
    pack(Kind::Pivot, 0, k)
}

/// The LU/QR decision of step `k`.
pub fn decision(k: usize) -> DataKey {
    pack(Kind::Decision, 0, k)
}

/// Criterion scratch contributed by grid-row domain `d` at step `k`.
pub fn crit_scratch(d: usize, k: usize) -> DataKey {
    pack(Kind::CritScratch, d, k)
}

/// Incremental-pivoting L-factor + pivots for tile row `i` at step `k`.
pub fn incpiv_l(i: usize, k: usize) -> DataKey {
    pack(Kind::IncPivL, i, k)
}

/// Pivot-block snapshot for the row exchanges of column `j` at step `k`.
pub fn swap_scratch(j: usize, k: usize) -> DataKey {
    pack(Kind::SwapScratch, j, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_across_kinds_and_indices() {
        let keys = [
            tile(0, 0),
            tile(0, 1),
            tile(1, 0),
            tfactor(0, 0),
            backup(0, 0),
            pivots(0),
            decision(0),
            crit_scratch(0, 0),
            incpiv_l(0, 0),
            tile(123, 456),
            tfactor(123, 456),
        ];
        for (a, ka) in keys.iter().enumerate() {
            for (b, kb) in keys.iter().enumerate() {
                if a != b {
                    assert_ne!(ka, kb, "collision between key {a} and {b}");
                }
            }
        }
    }

    #[test]
    fn unpack_inverts_every_constructor() {
        assert_eq!(unpack(tile(3, 4)), Some((Kind::Tile, 3, 4)));
        assert_eq!(unpack(tfactor(5, 2)), Some((Kind::TFactor, 5, 2)));
        assert_eq!(unpack(backup(1, 0)), Some((Kind::Backup, 1, 0)));
        assert_eq!(unpack(pivots(7)), Some((Kind::Pivot, 0, 7)));
        assert_eq!(unpack(decision(7)), Some((Kind::Decision, 0, 7)));
        assert_eq!(unpack(crit_scratch(2, 9)), Some((Kind::CritScratch, 2, 9)));
        assert_eq!(unpack(incpiv_l(6, 1)), Some((Kind::IncPivL, 6, 1)));
        assert_eq!(unpack(swap_scratch(8, 3)), Some((Kind::SwapScratch, 8, 3)));
        assert_eq!(unpack(DataKey(0)), None);
        assert_eq!(unpack(DataKey(u64::MAX)), None);
    }

    #[test]
    fn large_indices_fit() {
        let a = tile(1 << 20, (1 << 20) + 1);
        let b = tile((1 << 20) + 1, 1 << 20);
        assert_ne!(a, b);
    }
}
