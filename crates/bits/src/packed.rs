//! A fixed-size vector of `b`-bit unsigned integers.
//!
//! This is the storage for timing-Bloom-filter entries (§4): `m` cells of
//! `O(log N)` bits each. Entries may straddle word boundaries; get/set are
//! branch-light and constant-time.

use crate::words::{low_mask, WORD_BITS};

/// A fixed-size vector of `len` entries, each `bits` wide (1..=64).
///
/// ```rust
/// use cfd_bits::PackedIntVec;
/// let mut v = PackedIntVec::new(10, 21);
/// v.set(3, 0x1F_FFFF);
/// assert_eq!(v.get(3), 0x1F_FFFF);
/// assert_eq!(v.get(2), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedIntVec {
    words: Vec<u64>,
    len: usize,
    bits: u32,
    max: u64,
}

impl PackedIntVec {
    /// Creates a vector of `len` zero entries of `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 64.
    #[must_use]
    pub fn new(len: usize, bits: u32) -> Self {
        assert!((1..=64).contains(&bits), "entry width must be 1..=64 bits");
        let total_bits = len
            .checked_mul(bits as usize)
            .expect("packed vector size overflow");
        Self {
            words: vec![0; total_bits.div_ceil(WORD_BITS)],
            len,
            bits,
            max: low_mask(bits),
        }
    }

    /// Creates a vector with every entry set to the all-ones pattern.
    ///
    /// The timing Bloom filter initializes "all bits in all entries ... to
    /// bit 1" (§4.1), reserving all-ones as the *empty* marker.
    #[must_use]
    pub fn new_all_ones(len: usize, bits: u32) -> Self {
        let mut v = Self::new(len, bits);
        v.fill(v.max);
        v
    }

    /// Number of entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of each entry in bits.
    #[inline]
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        self.bits
    }

    /// Largest storable value (`2^bits − 1`), i.e. the all-ones pattern.
    #[inline]
    #[must_use]
    pub fn max_value(&self) -> u64 {
        self.max
    }

    /// Memory footprint of the payload in bits.
    #[inline]
    #[must_use]
    pub fn memory_bits(&self) -> usize {
        self.words.len() * WORD_BITS
    }

    /// Reads entry `i`.
    ///
    /// Branch-free: the entry is cut from the clamped two-word window
    /// every kernel here uses, so an entry that straddles a word
    /// boundary costs the same as one that does not.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "entry index {i} out of range {}", self.len);
        load_entry(&self.words, i * self.bits as usize, self.max)
    }

    /// Hints the CPU to pull entry `i`'s cache line early; a no-op when
    /// the index is out of range.
    ///
    /// Batch frontends that know their probe indices ahead of time (see
    /// `Tbf::observe_batch`) issue this a few elements early so the
    /// random reads of [`PackedIntVec::get`] land in cache (see
    /// [`crate::words::prefetch`]).
    #[inline]
    pub fn prefetch(&self, i: usize) {
        if i < self.len {
            crate::words::prefetch(&self.words[i * self.bits as usize / WORD_BITS]);
        }
    }

    /// Writes entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or `value` does not fit in the entry width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u64) {
        assert!(i < self.len, "entry index {i} out of range {}", self.len);
        assert!(
            value <= self.max,
            "value {value} exceeds {}-bit entry",
            self.bits
        );
        let bit = i * self.bits as usize;
        let (w, off) = (bit / WORD_BITS, (bit % WORD_BITS) as u32);
        self.words[w] = (self.words[w] & !(self.max << off)) | (value << off);
        let have = WORD_BITS as u32 - off;
        if have < self.bits {
            let spill = self.bits - have;
            let hi_mask = low_mask(spill);
            self.words[w + 1] = (self.words[w + 1] & !hi_mask) | (value >> have);
        }
    }

    /// Applies `f` to `count` consecutive entries starting at `start`,
    /// rewriting an entry when `f` returns `Some(new)`. Returns the
    /// number of entries rewritten.
    ///
    /// This is the linear-maintenance primitive (TBF expiry sweeps):
    /// entries that sit wholly inside one backing word are decoded from
    /// a register instead of paying [`PackedIntVec::get`]'s per-entry
    /// bounds check and word fetch, and a word is written back at most
    /// once — several times cheaper than per-entry `get`/`set` over the
    /// same range.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > len` or `f` returns a value that does
    /// not fit in the entry width.
    pub fn update_range(
        &mut self,
        start: usize,
        count: usize,
        mut f: impl FnMut(u64) -> Option<u64>,
    ) -> usize {
        let end = start
            .checked_add(count)
            .expect("entry range overflows usize");
        assert!(
            end <= self.len,
            "entry range {start}+{count} exceeds {}",
            self.len
        );
        let bits = self.bits as usize;
        let mut changed = 0usize;
        let mut i = start;
        while i < end {
            let (w, off) = ((i * bits) / WORD_BITS, (i * bits) % WORD_BITS);
            if off + bits > WORD_BITS {
                // Entry straddles a word boundary: take the slow path.
                let old = self.get(i);
                if let Some(new) = f(old) {
                    self.set(i, new);
                    changed += 1;
                }
                i += 1;
                continue;
            }
            // Decode every entry wholly inside word `w` from a register.
            let mut word = self.words[w];
            let mut dirty = false;
            let mut off = off;
            while off + bits <= WORD_BITS && i < end {
                let old = (word >> off) & self.max;
                if let Some(new) = f(old) {
                    assert!(
                        new <= self.max,
                        "value {new} exceeds {}-bit entry",
                        self.bits
                    );
                    word = (word & !(self.max << off)) | (new << off);
                    dirty = true;
                    changed += 1;
                }
                off += bits;
                i += 1;
            }
            if dirty {
                self.words[w] = word;
            }
        }
        changed
    }

    /// Wide compare-and-store expiry sweep over `count` consecutive
    /// entries starting at `start` — the cleaning primitive shared by
    /// every wraparound-timestamp table (TBF entries, SWBF cells and
    /// side stamps, TimeTbf units).
    ///
    /// For each entry `v`: the timestamp field is `v & ts_mask` with
    /// all-ones meaning empty; an occupied entry whose wraparound age
    /// from `now` (clock period `range`) falls **outside**
    /// `[active_lo, active_hi]` is expired and rewritten to `empty`.
    /// Returns the number of entries rewritten.
    ///
    /// The wide dispatch is portable scalar code, not intrinsics: a
    /// store-free pass decodes up to 64 entries, each from an
    /// independent two-word window, and classifies them with
    /// branch-free flag arithmetic (the same compare set
    /// [`crate::simd::classify_stamps`] applies lane-wise) into an
    /// expired-bit mask; a second pass rewrites only the set bits. The
    /// scalar dispatch is the original register-cached per-entry branch
    /// chain ([`PackedIntVec::update_range`]), so `CFD_FORCE_SCALAR=1`
    /// measures the pre-SIMD code path. Both are bit-identical. When the
    /// empty sentinel is all ones, the wide dispatch skips a chunk whose
    /// covering words are all ones without decoding it; the return value
    /// is unchanged, and callers count every swept entry as a read
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics if `start + count > len` or `empty` does not fit in the
    /// entry width.
    #[allow(clippy::too_many_arguments)]
    pub fn expire_timestamps(
        &mut self,
        start: usize,
        count: usize,
        ts_mask: u64,
        empty: u64,
        now: u64,
        range: u64,
        active_lo: u64,
        active_hi: u64,
    ) -> usize {
        let end = start
            .checked_add(count)
            .expect("entry range overflows usize");
        assert!(
            end <= self.len,
            "entry range {start}+{count} exceeds {}",
            self.len
        );
        assert!(empty <= self.max, "value {empty} exceeds entry width");
        const LANES: usize = 8;
        if !crate::simd::wide_enabled() || count < LANES {
            // Scalar dispatch reproduces the pre-SIMD sweep exactly:
            // the register-cached per-entry loop with one branch chain
            // per entry, so forcing scalar (`CFD_FORCE_SCALAR=1`)
            // measures and behaves like the original code path. Short
            // segments (deep range extensions shrink the cleaning quota
            // to a handful of entries) take it too: the shift-register
            // setup costs more than it saves under one block.
            return self.update_range(start, count, |e| {
                let ts = e & ts_mask;
                if ts == ts_mask {
                    return None;
                }
                let age = if now >= ts {
                    now - ts
                } else {
                    range - ts + now
                };
                (!(active_lo..=active_hi).contains(&age)).then_some(empty)
            });
        }
        let bits = self.bits as usize;
        let max = self.max;
        // An all-ones empty sentinel makes an all-ones word all-empty,
        // so a chunk whose covering words are all `u64::MAX` holds no
        // occupied entry. Off-peak time windows sweep long runs of
        // those; skipping them changes nothing but the work.
        let skip_empty = empty == ts_mask && ts_mask == max;
        let words = &mut self.words[..];
        let mut changed = 0usize;
        // Classify, then rewrite. The first pass decodes each entry of a
        // chunk of up to 64 from its own two-word window (no serial
        // shift-register dependency, so decodes overlap across entries)
        // and folds the expiry predicate into a bit mask with flag
        // arithmetic: no branch on the data and no store, so no load
        // waits on a store to the word it reads. The second pass
        // rewrites only the set bits. Splitting is exact because an
        // entry's verdict depends only on its own bits.
        let mut chunk = start;
        while chunk < end {
            let n = (end - chunk).min(64);
            let base = chunk * bits;
            if skip_empty
                && words[base / WORD_BITS..=(base + n * bits - 1) / WORD_BITS]
                    .iter()
                    .all(|&w| w == u64::MAX)
            {
                chunk += n;
                continue;
            }
            let mut expired = 0u64;
            for j in 0..n {
                let ts = load_entry(words, base + j * bits, max) & ts_mask;
                let occupied = ts != ts_mask;
                let wrapped = ts > now;
                let age = now
                    .wrapping_sub(ts)
                    .wrapping_add(range & u64::from(wrapped).wrapping_neg());
                let active = (age >= active_lo) & (age <= active_hi);
                expired |= u64::from(occupied & !active) << j;
            }
            changed += expired.count_ones() as usize;
            while expired != 0 {
                let j = expired.trailing_zeros() as usize;
                expired &= expired - 1;
                store_entry(words, base + j * bits, max, empty);
            }
            chunk += n;
        }
        changed
    }

    /// Writes `value` into every entry listed in `idxs` — the insert
    /// primitive of the blocked probe layout, where all `k` probes land
    /// in one cache line. Scattered probes never fit its merge window;
    /// they go through [`PackedIntVec::set_scattered`].
    ///
    /// On the wide dispatch the writes are merged in registers: the
    /// (mask, pattern) pair of every entry is OR-accumulated into a
    /// small word window that is stored once per word, replacing `k`
    /// read-modify-write round trips with one pass over the line. The
    /// scalar dispatch (and any index spread wider than the window) is
    /// the plain per-entry [`PackedIntVec::set`] loop. Both orders
    /// write identical words: the per-entry bit ranges are disjoint
    /// (or identical, for repeated indices), so OR-merging cannot mix
    /// two entries.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `value` does not fit in
    /// the entry width.
    pub fn set_all(&mut self, idxs: &[usize], value: u64) {
        const WINDOW: usize = 16;
        let bits = self.bits as usize;
        let entry_bits = self.bits;
        let max = self.max;
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &i in idxs {
            lo = lo.min(i);
            hi = hi.max(i);
        }
        if !crate::simd::wide_enabled()
            || idxs.len() < 3
            || hi >= self.len
            || (hi * bits + bits - 1) / WORD_BITS - lo * bits / WORD_BITS >= WINDOW
        {
            // Scalar dispatch, tiny batches, and spreads wider than the
            // merge window take the plain per-entry store loop (it also
            // carries the out-of-range panic).
            for &i in idxs {
                self.set(i, value);
            }
            return;
        }
        assert!(value <= max, "value {value} exceeds {entry_bits}-bit entry");
        let base = lo * bits / WORD_BITS;
        let mut mask = [0u64; WINDOW];
        let mut pat = [0u64; WINDOW];
        let mut hi_w = 0usize;
        for &i in idxs {
            let bit = i * bits;
            let (w, off) = (bit / WORD_BITS - base, (bit % WORD_BITS) as u32);
            mask[w] |= max << off;
            pat[w] |= value << off;
            let have = WORD_BITS as u32 - off;
            let mut top = w;
            if have < entry_bits {
                mask[w + 1] |= low_mask(entry_bits - have);
                pat[w + 1] |= value >> have;
                top = w + 1;
            }
            hi_w = hi_w.max(top);
        }
        for (j, wd) in self.words[base..=base + hi_w].iter_mut().enumerate() {
            *wd = (*wd & !mask[j]) | pat[j];
        }
    }

    /// Writes `value` into every entry listed in `idxs` — the insert
    /// primitive of the scattered probe layout, where the `k` probes
    /// land in unrelated words.
    ///
    /// Each entry is one branch-free store: a `u128` mask/pattern over
    /// words `w` and `min(w + 1, last)`. An entry that does not straddle
    /// has an all-zero high half, so the second store rewrites its word
    /// unchanged. The value check runs once per call, the index check
    /// once per entry. Writes the same words as a [`PackedIntVec::set`]
    /// per index, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `value` does not fit in
    /// the entry width.
    pub fn set_scattered(&mut self, idxs: &[usize], value: u64) {
        assert!(
            value <= self.max,
            "value {value} exceeds {}-bit entry",
            self.bits
        );
        let (bits, len, max) = (self.bits as usize, self.len, self.max);
        for &i in idxs {
            assert!(i < len, "entry index {i} out of range {len}");
            store_entry(&mut self.words, i * bits, max, value);
        }
    }

    /// Sets every entry to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the entry width.
    pub fn fill(&mut self, value: u64) {
        assert!(value <= self.max, "value {value} exceeds entry width");
        if value == self.max {
            // All-ones entries tile whole words. The padding after the
            // last entry stays 0, as an entry-by-entry fill leaves it, so
            // the raw words (and checkpoint bytes) are the same.
            self.words.fill(u64::MAX);
            let tail = (self.len * self.bits as usize % WORD_BITS) as u32;
            if tail != 0 {
                let top = self.words.len() - 1;
                self.words[top] = low_mask(tail);
            }
            return;
        }
        // Entry-by-entry is O(len) but only used at construction/reset.
        for i in 0..self.len {
            self.set(i, value);
        }
    }

    /// The raw backing words (for checkpointing).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a vector from raw words produced by
    /// [`PackedIntVec::as_words`]. Returns `None` when the word count
    /// does not match `(len, bits)`.
    #[must_use]
    pub fn from_words(words: Vec<u64>, len: usize, bits: u32) -> Option<Self> {
        if !(1..=64).contains(&bits) {
            return None;
        }
        let total_bits = len.checked_mul(bits as usize)?;
        if words.len() != total_bits.div_ceil(crate::words::WORD_BITS) {
            return None;
        }
        Some(Self {
            words,
            len,
            bits,
            max: crate::words::low_mask(bits),
        })
    }

    /// Iterates over all entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Number of entries equal to `value`.
    #[must_use]
    pub fn count_eq(&self, value: u64) -> usize {
        self.iter().filter(|&v| v == value).count()
    }
}

/// Reads the `max`-masked entry starting at bit `bit` from the two-word
/// window `words[w]`, `words[min(w + 1, last)]`. The clamp is exact: the
/// second word only contributes when the entry straddles, and a
/// straddling entry always has a real successor word.
#[inline]
fn load_entry(words: &[u64], bit: usize, max: u64) -> u64 {
    let (w, off) = (bit / WORD_BITS, bit % WORD_BITS);
    let next = words[(w + 1).min(words.len() - 1)];
    (((u128::from(next) << WORD_BITS) | u128::from(words[w])) >> off) as u64 & max
}

/// Writes `value` (at most `max`) into the entry starting at bit `bit`
/// through one `u128` mask/pattern over the same clamped two-word
/// window as [`load_entry`]. The second word is loaded after the first
/// is stored, so the clamped case (`w` is the last word) stays exact.
#[inline]
fn store_entry(words: &mut [u64], bit: usize, max: u64, value: u64) {
    let (w, off) = (bit / WORD_BITS, bit % WORD_BITS);
    let mask = u128::from(max) << off;
    let pat = u128::from(value) << off;
    words[w] = (words[w] & !(mask as u64)) | pat as u64;
    let next = (w + 1).min(words.len() - 1);
    words[next] = (words[next] & !((mask >> WORD_BITS) as u64)) | (pat >> WORD_BITS) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_initialized_and_sized() {
        let v = PackedIntVec::new(100, 21);
        assert_eq!(v.len(), 100);
        assert_eq!(v.entry_bits(), 21);
        assert_eq!(v.max_value(), (1 << 21) - 1);
        assert!(v.iter().all(|x| x == 0));
        assert!(v.memory_bits() >= 2100);
    }

    #[test]
    fn all_ones_constructor() {
        let v = PackedIntVec::new_all_ones(50, 13);
        assert!(v.iter().all(|x| x == (1 << 13) - 1));
        assert_eq!(v.count_eq((1 << 13) - 1), 50);
    }

    #[test]
    fn straddling_entries_roundtrip() {
        // 21-bit entries straddle every third word boundary.
        let mut v = PackedIntVec::new(64, 21);
        for i in 0..64 {
            v.set(i, (i as u64 * 0x1_0101) & v.max_value());
        }
        for i in 0..64 {
            assert_eq!(v.get(i), (i as u64 * 0x1_0101) & v.max_value(), "i={i}");
        }
    }

    #[test]
    fn neighbors_are_not_disturbed() {
        let mut v = PackedIntVec::new(10, 21);
        v.fill(0x15_5555);
        v.set(5, 0);
        for i in 0..10 {
            let want = if i == 5 { 0 } else { 0x15_5555 };
            assert_eq!(v.get(i), want, "i={i}");
        }
    }

    #[test]
    fn full_width_64_bit_entries() {
        let mut v = PackedIntVec::new(5, 64);
        v.set(0, u64::MAX);
        v.set(4, 0x0123_4567_89AB_CDEF);
        assert_eq!(v.get(0), u64::MAX);
        assert_eq!(v.get(4), 0x0123_4567_89AB_CDEF);
        assert_eq!(v.get(1), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn overwide_value_panics() {
        let mut v = PackedIntVec::new(4, 7);
        v.set(0, 128);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let v = PackedIntVec::new(4, 7);
        let _ = v.get(4);
    }

    #[test]
    #[should_panic(expected = "entry width")]
    fn zero_width_panics() {
        let _ = PackedIntVec::new(4, 0);
    }

    #[test]
    fn update_range_rewrites_and_counts() {
        // 21-bit entries straddle word boundaries inside the range.
        let mut v = PackedIntVec::new(64, 21);
        for i in 0..64 {
            v.set(i, i as u64);
        }
        let changed = v.update_range(10, 40, |e| (e % 2 == 0).then_some(e + 1));
        assert_eq!(changed, 20);
        for i in 0..64 {
            let want = if (10..50).contains(&i) && i % 2 == 0 {
                i as u64 + 1
            } else {
                i as u64
            };
            assert_eq!(v.get(i), want, "i={i}");
        }
    }

    #[test]
    fn update_range_empty_and_full_width() {
        let mut v = PackedIntVec::new(8, 64);
        v.set(3, u64::MAX);
        assert_eq!(v.update_range(0, 0, |_| Some(0)), 0);
        let changed = v.update_range(0, 8, |e| (e == u64::MAX).then_some(7));
        assert_eq!(changed, 1);
        assert_eq!(v.get(3), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn update_range_out_of_bounds_panics() {
        let mut v = PackedIntVec::new(16, 7);
        v.update_range(10, 7, |_| None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::default())]
        #[test]
        fn update_range_matches_get_set_model(
            bits in 1u32..=64,
            start in 0usize..150,
            count in 0usize..150,
            threshold in any::<u64>(),
        ) {
            let count = count.min(200 - start);
            let mask = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            let mut v = PackedIntVec::new(200, bits);
            for i in 0..200 {
                v.set(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask);
            }
            let mut model: Vec<u64> = (0..200).map(|i| v.get(i)).collect();
            let th = threshold & mask;
            let changed = v.update_range(start, count, |e| (e > th).then_some(e / 2));
            let mut expect_changed = 0;
            for item in model.iter_mut().take(start + count).skip(start) {
                if *item > th {
                    *item /= 2;
                    expect_changed += 1;
                }
            }
            prop_assert_eq!(changed, expect_changed);
            for (i, want) in model.iter().enumerate() {
                prop_assert_eq!(v.get(i), *want, "i={}", i);
            }
        }

        #[test]
        #[allow(clippy::needless_range_loop)]
        fn matches_vec_model(
            bits in 1u32..=64,
            writes in prop::collection::vec((0usize..200, any::<u64>()), 0..400),
        ) {
            let mut v = PackedIntVec::new(200, bits);
            let mut model = vec![0u64; 200];
            let mask = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            for (i, raw) in writes {
                let val = raw & mask;
                v.set(i, val);
                model[i] = val;
            }
            for i in 0..200 {
                prop_assert_eq!(v.get(i), model[i]);
            }
        }
    }
}
