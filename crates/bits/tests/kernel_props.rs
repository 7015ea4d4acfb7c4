//! Differential properties of the `PackedIntVec` click-path kernels.
//!
//! The expiry sweep, the scattered and blocked inserts, the probe read
//! and the all-ones fill are each checked word for word against a
//! reference built from per-entry `set` calls (and `get` against a
//! bit-by-bit decode of the raw words). Widths cover 1..=64 bits, ranges
//! cross the sweep's 64-entry chunk boundary and end in the vector's
//! last word, and every dispatch-sensitive kernel runs under both the
//! wide and the forced-scalar dispatch.

use cfd_bits::simd::set_scalar_override;
use cfd_bits::words::low_mask;
use cfd_bits::PackedIntVec;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that flip the process-wide dispatch override,
/// so each one runs the dispatch it asked for.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Runs `f` once per dispatch: wide first, then forced scalar.
fn on_both_dispatches(mut f: impl FnMut(bool)) {
    let _guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());
    for force_scalar in [false, true] {
        set_scalar_override(Some(force_scalar));
        f(force_scalar);
    }
    set_scalar_override(None);
}

/// The reference store: a zeroed vector written one `set` per entry.
fn by_set(vals: &[u64], bits: u32) -> PackedIntVec {
    let mut v = PackedIntVec::new(vals.len(), bits);
    for (i, &x) in vals.iter().enumerate() {
        v.set(i, x);
    }
    v
}

/// Entry `i` decoded one bit at a time from the raw words.
fn bitwise_get(words: &[u64], bits: u32, i: usize) -> u64 {
    (0..bits as usize).fold(0, |acc, b| {
        let bit = i * bits as usize + b;
        acc | ((words[bit / 64] >> (bit % 64)) & 1) << b
    })
}

/// `len` pseudo-random entry values of `bits` width.
fn values(len: usize, bits: u32, seed: u64) -> Vec<u64> {
    (0..len as u64)
        .map(|i| {
            (i ^ seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29)
                & low_mask(bits)
        })
        .collect()
}

/// A sub-range of `0..len`: either ending at `len` (the last word, where
/// the two-word window clamps) or of a drawn length.
fn range_of(len: usize, start: usize, count: usize, to_end: bool) -> (usize, usize) {
    let start = start % len;
    let count = if to_end {
        len - start
    } else {
        count.min(len - start)
    };
    (start, count)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn get_matches_bitwise_decode(
        bits in 1u32..=64,
        len in 1usize..300,
        seed in any::<u64>(),
    ) {
        let total = (len * bits as usize).div_ceil(64);
        let words: Vec<u64> = values(total, 64, seed);
        let v = PackedIntVec::from_words(words.clone(), len, bits).expect("sized words");
        for i in 0..len {
            prop_assert_eq!(v.get(i), bitwise_get(&words, bits, i), "bits={} i={}", bits, i);
        }
    }

    #[test]
    fn all_ones_fill_matches_per_entry_set(
        bits in 1u32..=64,
        len in 0usize..300,
        seed in any::<u64>(),
    ) {
        let want = by_set(&vec![low_mask(bits); len], bits);
        prop_assert_eq!(PackedIntVec::new_all_ones(len, bits).as_words(), want.as_words());
        let mut dirty = by_set(&values(len, bits, seed), bits);
        dirty.fill(low_mask(bits));
        prop_assert_eq!(dirty.as_words(), want.as_words());
    }

    #[test]
    fn inserts_match_per_entry_set(
        bits in 1u32..=64,
        len in 1usize..300,
        seed in any::<u64>(),
        raw_idxs in prop::collection::vec(any::<usize>(), 0..24),
        with_last in any::<bool>(),
        value in any::<u64>(),
    ) {
        let value = value & low_mask(bits);
        let mut idxs: Vec<usize> = raw_idxs.iter().map(|i| i % len).collect();
        if with_last {
            idxs.push(len - 1);
        }
        let vals = values(len, bits, seed);
        let mut want = vals.clone();
        for &i in &idxs {
            want[i] = value;
        }
        let want = by_set(&want, bits);
        let mut scattered = by_set(&vals, bits);
        scattered.set_scattered(&idxs, value);
        prop_assert_eq!(scattered.as_words(), want.as_words(), "set_scattered bits={}", bits);
        on_both_dispatches(|scalar| {
            let mut blocked = by_set(&vals, bits);
            blocked.set_all(&idxs, value);
            assert_eq!(blocked.as_words(), want.as_words(), "set_all bits={bits} scalar={scalar}");
        });
    }

    #[test]
    fn expiry_sweep_matches_per_entry_model(
        bits in 1u32..=64,
        ts_bits in 1u32..=64,
        len in 1usize..300,
        start in any::<usize>(),
        count in 0usize..300,
        to_end in any::<bool>(),
        seed in any::<u64>(),
        empty_hi in any::<u64>(),
        now_seed in any::<u64>(),
        lo in 0u64..=1,
        all_ones in any::<bool>(),
        runs in prop::collection::vec((any::<usize>(), 0usize..200), 0..3),
    ) {
        // The timestamp field may be narrower than the entry (SWBF
        // cells carry a fingerprint above it), and `empty` need only
        // have an all-ones timestamp field. With an all-ones sentinel
        // (TBF entries, TimeTbf units), runs of empty entries that start
        // and end inside a 64-entry chunk give the wide sweep all-ones
        // words to skip.
        let ts_bits = if all_ones { bits } else { ts_bits.min(bits) };
        let mask = low_mask(bits);
        let ts_mask = low_mask(ts_bits);
        let empty = if all_ones { mask } else { ts_mask | (empty_hi & mask) };
        let range = ts_mask.clamp(2, 1 << 40);
        let now = now_seed % range;
        let hi = (range / 2).max(lo);
        let (start, count) = range_of(len, start, count, to_end);
        let mut vals: Vec<u64> = values(len, bits, seed)
            .into_iter()
            .enumerate()
            .map(|(i, raw)| {
                if i % 5 == 0 {
                    empty
                } else {
                    ((raw >> 3) % range) | (raw & !ts_mask & mask)
                }
            })
            .collect();
        for &(at, run) in &runs {
            let at = at % len;
            vals[at..(at + run).min(len)].fill(empty);
        }
        let mut want = vals.clone();
        let mut want_changed = 0;
        for e in &mut want[start..start + count] {
            let ts = *e & ts_mask;
            if ts == ts_mask {
                continue;
            }
            let age = if now >= ts { now - ts } else { range - ts + now };
            if !(lo..=hi).contains(&age) {
                *e = empty;
                want_changed += 1;
            }
        }
        let want = by_set(&want, bits);
        on_both_dispatches(|scalar| {
            let mut v = by_set(&vals, bits);
            let changed = v.expire_timestamps(start, count, ts_mask, empty, now, range, lo, hi);
            assert_eq!(changed, want_changed, "bits={bits} scalar={scalar}");
            assert_eq!(v.as_words(), want.as_words(), "bits={bits} scalar={scalar}");
        });
    }
}
