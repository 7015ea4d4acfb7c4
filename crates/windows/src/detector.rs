//! The one-pass duplicate-detection contract (paper Definition 1), one
//! contract for count and time windows alike.

use crate::spec::WindowSpec;
use serde::{Deserialize, Serialize};

/// The classification of one click.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// First occurrence within the current window: a *valid* click that
    /// the advertiser is charged for.
    Distinct,
    /// An identical click was already determined valid within the current
    /// window: not charged (paper Definition 1).
    Duplicate,
}

impl Verdict {
    /// `true` for [`Verdict::Duplicate`].
    #[inline]
    #[must_use]
    pub fn is_duplicate(self) -> bool {
        matches!(self, Verdict::Duplicate)
    }

    /// `true` for [`Verdict::Distinct`].
    #[inline]
    #[must_use]
    pub fn is_distinct(self) -> bool {
        matches!(self, Verdict::Distinct)
    }
}

/// A batch of click ids in one of the two layouts batches travel in.
///
/// Both views hold the same ids in stream order; a batch-observing
/// detector matches on the view once to pick its hashing pass.
#[derive(Debug, Clone, Copy)]
pub enum Keys<'a> {
    /// One slice per id.
    Refs(&'a [&'a [u8]]),
    /// Fixed-stride ids packed end-to-end, `key_len` bytes each: what
    /// the zero-allocation pipeline ships between stages (no per-id
    /// slice headers, and one multi-lane hashing pass over the buffer).
    Flat {
        /// The packed ids.
        bytes: &'a [u8],
        /// Bytes per id (non-zero; `bytes.len()` is a multiple of it).
        key_len: usize,
    },
}

impl<'a> Keys<'a> {
    /// The flat view of `bytes`, `key_len` bytes per id.
    ///
    /// # Panics
    /// If `key_len == 0` or `bytes.len()` is not a multiple of `key_len`.
    #[must_use]
    pub fn flat(bytes: &'a [u8], key_len: usize) -> Self {
        assert!(key_len > 0, "key_len must be non-zero");
        assert_eq!(
            bytes.len() % key_len,
            0,
            "flat key buffer length {} is not a multiple of key_len {key_len}",
            bytes.len(),
        );
        Keys::Flat { bytes, key_len }
    }

    /// Number of ids in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            Keys::Refs(ids) => ids.len(),
            Keys::Flat { bytes, key_len } => bytes.len() / key_len,
        }
    }

    /// `true` for a batch of no ids.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids, in stream order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        let (ids, packed): (&'a [&'a [u8]], _) = match *self {
            Keys::Refs(ids) => (ids, [].chunks_exact(1)),
            Keys::Flat { bytes, key_len } => (&[], bytes.chunks_exact(key_len)),
        };
        ids.iter().copied().chain(packed)
    }
}

/// A one-pass duplicate detector over a decaying window.
///
/// The contract mirrors the paper's problem statement (§1.3): given
/// limited memory and a window, classify each click of an unbounded
/// stream in a single pass. Implementations may be approximate with
/// one-sided error: the GBF/TBF detectors guarantee *zero false
/// negatives* while allowing a small false-positive rate.
///
/// # One contract for both clocks
///
/// A tick is an argument, not a separate method. A count window is a
/// time window whose clock is the arrival index, so count detectors
/// ignore ticks. Time-window detectors (`TimeTbf`, `TimeGbf`, the
/// `ExactTime*` oracles) read them; a click given no tick is judged at
/// the detector's *current clock* (see [`observe`]). Ticks should be
/// non-decreasing; the `cfd-core` detectors clamp late ones to the
/// high-water unit and count the event — time never moves backwards.
///
/// Batches go through one method, [`observe_keys_into`], over either
/// key layout ([`Keys`]) with optional ticks. Its default is the
/// per-click loop, so trait objects and third-party detectors get
/// batching for free; the Bloom-style detectors override it to hash the
/// whole batch up front.
///
/// # Error direction
///
/// Following the paper: a *false positive* is a distinct click wrongly
/// reported as [`Verdict::Duplicate`]; a *false negative* is a duplicate
/// wrongly reported as [`Verdict::Distinct`]. GBF and TBF have zero false
/// negatives; exact oracles have zero error in both directions.
///
/// [`observe`]: DuplicateDetector::observe
/// [`observe_keys_into`]: DuplicateDetector::observe_keys_into
pub trait DuplicateDetector {
    /// Classifies the next click of the stream and updates internal state.
    ///
    /// A time-window detector judges a tickless click at its *current
    /// clock*: the high-water tick seen so far, or tick 0 before the
    /// first click. So after `observe_at(x, t)`, `observe(x)` is a
    /// duplicate, and a tickless click never counts as a clock
    /// regression.
    fn observe(&mut self, id: &[u8]) -> Verdict;

    /// Classifies the click arriving at `tick`. The default ignores the
    /// tick ([`observe`]); time-window detectors override it.
    ///
    /// [`observe`]: DuplicateDetector::observe
    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        let _ = tick;
        self.observe(id)
    }

    /// Classifies a batch of consecutive clicks, in stream order, each
    /// at the current clock: [`observe_keys_into`] over
    /// [`Keys::Refs`] with no ticks, into a fresh vector.
    ///
    /// [`observe_keys_into`]: DuplicateDetector::observe_keys_into
    fn observe_batch(&mut self, ids: &[&[u8]]) -> Vec<Verdict> {
        let mut out = Vec::with_capacity(ids.len());
        self.observe_keys_into(Keys::Refs(ids), None, &mut out);
        out
    }

    /// Classifies a batch of consecutive clicks, in stream order,
    /// writing verdicts into `out` (cleared first, capacity reused, so a
    /// caller recycling the buffer allocates nothing once it has grown
    /// to the batch size).
    ///
    /// With `Some(ticks)` (one per key) each click is judged at its
    /// tick, as by [`observe_at`]; with `None` each is judged at the
    /// current clock, as by [`observe`]. Count windows ignore the ticks.
    /// Verdict-for-verdict equivalent to that per-click loop, which is
    /// the default; implementations override it to hash the whole batch
    /// before touching filter state, which improves locality without
    /// changing any verdict.
    ///
    /// # Panics
    /// Implementations may panic if the key count differs from
    /// `ticks.len()`.
    ///
    /// [`observe`]: DuplicateDetector::observe
    /// [`observe_at`]: DuplicateDetector::observe_at
    fn observe_keys_into(&mut self, keys: Keys<'_>, ticks: Option<&[u64]>, out: &mut Vec<Verdict>) {
        out.clear();
        match ticks {
            None => out.extend(keys.iter().map(|id| self.observe(id))),
            Some(ticks) => {
                assert_eq!(keys.len(), ticks.len(), "one tick per key");
                out.extend(
                    keys.iter()
                        .zip(ticks)
                        .map(|(id, &t)| self.observe_at(id, t)),
                );
            }
        }
    }

    /// The window model this detector approximates.
    fn window(&self) -> WindowSpec;

    /// Total payload memory, in bits (for the paper's space accounting).
    fn memory_bits(&self) -> usize;

    /// Resets to the empty-stream state, keeping the configuration.
    fn reset(&mut self);

    /// Human-readable algorithm name for reports and benches.
    fn name(&self) -> &'static str;
}

/// Boxed detectors forward the whole contract, so trait objects compose
/// with generic wrappers (e.g. `ShardedDetector<Box<dyn
/// ObservableDetector>>` in the CLI, where the algorithm is chosen at
/// runtime). `observe_batch` needs no forward: its default builds on the
/// forwarded `observe_keys_into`.
impl<D: DuplicateDetector + ?Sized> DuplicateDetector for Box<D> {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        (**self).observe(id)
    }
    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        (**self).observe_at(id, tick)
    }
    fn observe_keys_into(&mut self, keys: Keys<'_>, ticks: Option<&[u64]>, out: &mut Vec<Verdict>) {
        (**self).observe_keys_into(keys, ticks, out);
    }
    fn window(&self) -> WindowSpec {
        (**self).window()
    }
    fn memory_bits(&self) -> usize {
        (**self).memory_bits()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A duplicate detector that also reports health telemetry.
///
/// Marker for `DuplicateDetector + DetectorStats`, blanket-implemented
/// for every type satisfying both — its purpose is trait objects:
/// `Box<dyn ObservableDetector>` keeps runtime-chosen detectors (the
/// `cfd` CLI) both observable and drivable, where two separate `dyn`
/// bounds could not share one box.
///
/// [`DetectorStats`]: cfd_telemetry::DetectorStats
pub trait ObservableDetector: DuplicateDetector + cfd_telemetry::DetectorStats {}

impl<D: DuplicateDetector + cfd_telemetry::DetectorStats + ?Sized> ObservableDetector for D {}

/// Running tallies of a detector over a stream.
///
/// ```rust
/// use cfd_windows::{StreamSummary, Verdict};
/// let mut s = StreamSummary::default();
/// s.record(Verdict::Distinct);
/// s.record(Verdict::Duplicate);
/// assert_eq!(s.total(), 2);
/// assert_eq!(s.duplicates, 1);
/// assert!((s.duplicate_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamSummary {
    /// Clicks classified [`Verdict::Distinct`].
    pub distinct: u64,
    /// Clicks classified [`Verdict::Duplicate`].
    pub duplicates: u64,
}

impl StreamSummary {
    /// Records one verdict.
    #[inline]
    pub fn record(&mut self, v: Verdict) {
        match v {
            Verdict::Distinct => self.distinct += 1,
            Verdict::Duplicate => self.duplicates += 1,
        }
    }

    /// Total clicks recorded.
    #[inline]
    #[must_use]
    pub fn total(&self) -> u64 {
        self.distinct + self.duplicates
    }

    /// Fraction of clicks classified duplicate (0 when empty).
    #[must_use]
    pub fn duplicate_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.duplicates as f64 / self.total() as f64
        }
    }
}

/// Runs `detector` over `stream`, returning the summary tally.
///
/// Convenience for tests, examples, and the figure harness.
pub fn run_stream<'a, D, I>(detector: &mut D, stream: I) -> StreamSummary
where
    D: DuplicateDetector + ?Sized,
    I: IntoIterator<Item = &'a [u8]>,
{
    let mut summary = StreamSummary::default();
    for id in stream {
        summary.record(detector.observe(id));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial landmark-window detector used to exercise the trait
    /// machinery (real detectors live in `cfd-core` / `cfd-bloom`).
    struct ToyLandmark {
        seen: std::collections::HashSet<Vec<u8>>,
        n: usize,
        count: usize,
    }

    impl DuplicateDetector for ToyLandmark {
        fn observe(&mut self, id: &[u8]) -> Verdict {
            if self.count == self.n {
                self.seen.clear();
                self.count = 0;
            }
            self.count += 1;
            if self.seen.insert(id.to_vec()) {
                Verdict::Distinct
            } else {
                Verdict::Duplicate
            }
        }
        fn window(&self) -> WindowSpec {
            WindowSpec::Landmark { n: self.n }
        }
        fn memory_bits(&self) -> usize {
            self.seen.len() * 8
        }
        fn reset(&mut self) {
            self.seen.clear();
            self.count = 0;
        }
        fn name(&self) -> &'static str {
            "toy-landmark"
        }
    }

    #[test]
    fn verdict_predicates() {
        assert!(Verdict::Duplicate.is_duplicate());
        assert!(!Verdict::Duplicate.is_distinct());
        assert!(Verdict::Distinct.is_distinct());
    }

    #[test]
    fn run_stream_tallies() {
        let mut d = ToyLandmark {
            seen: Default::default(),
            n: 100,
            count: 0,
        };
        let ids: Vec<&[u8]> = vec![b"a", b"b", b"a", b"c", b"a"];
        let s = run_stream(&mut d, ids);
        assert_eq!(s.distinct, 3);
        assert_eq!(s.duplicates, 2);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn landmark_expires_all_at_boundary() {
        let mut d = ToyLandmark {
            seen: Default::default(),
            n: 2,
            count: 0,
        };
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
        assert_eq!(d.observe(b"x"), Verdict::Duplicate);
        // Boundary: window restarts, x is fresh again.
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
    }

    #[test]
    fn trait_object_usable() {
        let mut d: Box<dyn DuplicateDetector> = Box::new(ToyLandmark {
            seen: Default::default(),
            n: 10,
            count: 0,
        });
        assert_eq!(d.observe(b"k"), Verdict::Distinct);
        assert_eq!(d.name(), "toy-landmark");
        d.reset();
        assert_eq!(d.observe(b"k"), Verdict::Distinct);
    }

    #[test]
    fn default_batch_is_the_per_click_loop_over_either_view() {
        let toy = || ToyLandmark {
            seen: Default::default(),
            n: 4,
            count: 0,
        };
        let ids: Vec<&[u8]> = vec![b"ab", b"cd", b"ab", b"ab", b"ef", b"cd", b"ab"];
        let flat = ids.concat();
        let mut sequential = toy();
        let want: Vec<Verdict> = ids.iter().map(|id| sequential.observe(id)).collect();
        for keys in [Keys::Refs(&ids), Keys::flat(&flat, 2)] {
            assert_eq!(keys.len(), ids.len());
            assert!(keys.iter().eq(ids.iter().copied()));
            for ticks in [None, Some(&[9u64; 7][..])] {
                let mut out = vec![Verdict::Duplicate; 3];
                toy().observe_keys_into(keys, ticks, &mut out);
                assert_eq!(out, want, "{keys:?} {ticks:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple of key_len")]
    fn flat_view_rejects_a_ragged_buffer() {
        let _ = Keys::flat(b"abc", 2);
    }

    #[test]
    fn summary_rate_handles_empty() {
        assert_eq!(StreamSummary::default().duplicate_rate(), 0.0);
    }
}
