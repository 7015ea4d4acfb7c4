//! The GBF algorithm: group Bloom filters over jumping windows (§3).
//!
//! Memory is organized as an [`InterleavedBitMatrix`] of `m` groups ×
//! `Q + 1` lanes. At any moment `Q` lanes are *active* (the current
//! partial sub-window plus the `Q − 1` most recent full ones) and one
//! lane is the *spare* — the most recently expired filter, wiped
//! incrementally at `⌈m / (N/Q)⌉` groups per arriving element so the wipe
//! finishes before the lane is needed again (§3.1's `Q + 1` pieces trick).
//!
//! Per element the algorithm performs:
//!
//! * one hash evaluation (`k` indices by double hashing),
//! * `k × ⌈(Q+1)/64⌉` word reads + one AND-reduce + one mask for the
//!   duplicate probe across **all** active sub-windows at once,
//! * `k` word writes when the element is distinct,
//! * `⌈m/(N/Q)⌉` word writes of incremental cleaning.
//!
//! This matches Theorem 1: zero false negatives, false-positive rate of a
//! `Q`-filter union, and `O((Q/D) · (M/N))`-ish per-element cost in D-bit
//! word operations.

use crate::backend::{self, BatchBufs, CountCore, ProbeCore};
use crate::config::{ConfigError, GbfConfig, GbfLayout, ProbeLayout};
use crate::ops::OpCounters;
use cfd_bits::{InterleavedBitMatrix, TightBitMatrix};
use cfd_hash::{BlockGeometry, DoubleHashFamily, HashFamily, Planner, ProbePlan};
use cfd_telemetry::DetectorStats;
use cfd_windows::{DuplicateDetector, JumpingClock, Verdict, WindowSpec};
use std::borrow::Cow;
use std::cell::Cell;

/// Dynamic GBF state captured by a checkpoint.
pub(crate) struct GbfState<'a> {
    pub slot: usize,
    pub filled: usize,
    pub completed: u64,
    pub spare: Option<usize>,
    pub clean_next: usize,
    pub active_mask: Cow<'a, [u64]>,
    pub matrix_words: Cow<'a, [u64]>,
}

/// The group matrix in either memory layout (verdict-identical; see
/// [`GbfLayout`]).
#[derive(Debug, Clone)]
enum GroupMatrix {
    Padded(InterleavedBitMatrix),
    Tight(TightBitMatrix),
}

impl GroupMatrix {
    fn new(groups: usize, lanes: usize, layout: GbfLayout) -> Self {
        match layout {
            GbfLayout::Padded => GroupMatrix::Padded(InterleavedBitMatrix::new(groups, lanes)),
            GbfLayout::Tight => GroupMatrix::Tight(TightBitMatrix::new(groups, lanes)),
        }
    }

    fn lane_words(&self) -> usize {
        match self {
            GroupMatrix::Padded(mx) => mx.lane_words(),
            GroupMatrix::Tight(_) => 1,
        }
    }

    fn set(&mut self, group: usize, lane: usize) {
        match self {
            GroupMatrix::Padded(mx) => mx.set(group, lane),
            GroupMatrix::Tight(mx) => mx.set(group, lane),
        }
    }

    fn clear_lane_range(&mut self, lane: usize, start: usize, count: usize) -> usize {
        match self {
            GroupMatrix::Padded(mx) => mx.clear_lane_range(lane, start, count),
            GroupMatrix::Tight(mx) => mx.clear_lane_range(lane, start, count),
        }
    }

    fn memory_bits(&self) -> usize {
        match self {
            GroupMatrix::Padded(mx) => mx.memory_bits(),
            GroupMatrix::Tight(mx) => mx.memory_bits(),
        }
    }

    fn count_ones_in_lane(&self, lane: usize) -> usize {
        match self {
            GroupMatrix::Padded(mx) => mx.count_ones_in_lane(lane),
            GroupMatrix::Tight(mx) => mx.count_ones_in_lane(lane),
        }
    }

    #[inline]
    fn prefetch(&self, group: usize) {
        match self {
            GroupMatrix::Padded(mx) => mx.prefetch(group),
            GroupMatrix::Tight(mx) => mx.prefetch(group),
        }
    }
}

/// Group-Bloom-filter duplicate detector over count-based jumping windows.
///
/// ```rust
/// use cfd_core::{Gbf, GbfConfig};
/// use cfd_windows::{DuplicateDetector, Verdict};
///
/// # fn main() -> Result<(), cfd_core::ConfigError> {
/// let cfg = GbfConfig::builder(1 << 12, 8)
///     .total_memory_bits(1 << 18)
///     .build()?;
/// let mut gbf = Gbf::new(cfg)?;
/// assert_eq!(gbf.observe(b"203.0.113.9|c0ffee|ad-17"), Verdict::Distinct);
/// assert_eq!(gbf.observe(b"203.0.113.9|c0ffee|ad-17"), Verdict::Duplicate);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Gbf {
    cfg: GbfConfig,
    matrix: GroupMatrix,
    clock: JumpingClock,
    family: DoubleHashFamily,
    /// Lane mask of the currently active (queryable) sub-window filters.
    active_mask: Vec<u64>,
    /// Lane being cleaned, if a wipe is in progress.
    spare: Option<usize>,
    /// Next group index the cleaning sweep will visit.
    clean_next: usize,
    clean_quota: usize,
    ops: OpCounters,
    bufs: BatchBufs,
    acc: Vec<u64>,
    /// Blocked-probe geometry; `None` in scattered mode.
    geo: Option<BlockGeometry>,
    /// Probes actually issued per element: `k` scattered, capped at
    /// half the block in blocked mode (`min(k, slots/2)`, at least 1) —
    /// a single insertion must never saturate its block, or every later
    /// key landing on a touched block would be a false positive.
    k_eff: usize,
    /// `O(m)` occupancy passes performed (snapshot cadence only; the
    /// `throughput` bench asserts this never moves inside a timed loop).
    scans: Cell<u64>,
}

impl Gbf {
    /// Creates a detector from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is internally
    /// inconsistent (normally impossible after `GbfConfig::build`).
    pub fn new(cfg: GbfConfig) -> Result<Self, ConfigError> {
        if cfg.n == 0 || cfg.q == 0 || cfg.m == 0 {
            return Err(ConfigError::ZeroDimension("GBF dimension"));
        }
        if !(1..=64).contains(&cfg.k) {
            return Err(ConfigError::BadHashCount(cfg.k));
        }
        if cfg.layout == GbfLayout::Tight && cfg.q + 1 > 32 {
            return Err(ConfigError::LayoutTooWide { q: cfg.q });
        }
        let geo = cfg.block_geometry();
        if cfg.probe == ProbeLayout::Blocked && geo.is_none() {
            return Err(ConfigError::BlockedUnsupported {
                slot_bits: cfg.group_bits(),
                m: cfg.m,
            });
        }
        let k_eff = backend::effective_k(cfg.k, geo.as_ref());
        let matrix = GroupMatrix::new(cfg.m, cfg.q + 1, cfg.layout);
        let mut active_mask = vec![0u64; matrix.lane_words()];
        active_mask[0] |= 1; // slot 0 is current at stream start
        Ok(Self {
            clock: JumpingClock::new(cfg.q, cfg.sub_len()),
            family: DoubleHashFamily::new(cfg.seed),
            active_mask,
            spare: None,
            clean_next: 0,
            clean_quota: cfg.clean_quota(),
            ops: OpCounters::new(),
            bufs: BatchBufs::default(),
            acc: vec![0; matrix.lane_words()],
            geo,
            k_eff,
            scans: Cell::new(0),
            matrix,
            cfg,
        })
    }

    /// Probes issued per element: `k` in scattered mode, `min(k,
    /// slots/2)` in blocked mode (see the saturation cap on `k_eff`).
    #[must_use]
    pub fn effective_hash_count(&self) -> usize {
        self.k_eff
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> GbfConfig {
        self.cfg
    }

    /// Memory-operation counters (Theorem 1 accounting).
    #[must_use]
    pub fn ops(&self) -> OpCounters {
        self.ops
    }

    /// Words per group access (`⌈(Q+1)/64⌉`, the `D`-bit-word factor).
    #[must_use]
    pub fn lane_words(&self) -> usize {
        self.matrix.lane_words()
    }

    /// Fraction of set bits in the lane currently receiving insertions
    /// (diagnostics).
    #[must_use]
    pub fn current_fill_ratio(&self) -> f64 {
        self.scans.set(self.scans.get() + 1);
        self.matrix.count_ones_in_lane(self.clock.slot()) as f64 / self.cfg.m as f64
    }

    /// Internal state snapshot for checkpointing.
    pub(crate) fn checkpoint_parts(&self) -> (GbfConfig, GbfState<'_>) {
        let matrix_words = match &self.matrix {
            GroupMatrix::Padded(mx) => mx.as_words(),
            GroupMatrix::Tight(mx) => mx.as_words(),
        };
        (
            self.cfg,
            GbfState {
                slot: self.clock.slot(),
                filled: self.clock.filled(),
                completed: self.clock.completed_subwindows(),
                spare: self.spare,
                clean_next: self.clean_next,
                active_mask: Cow::Borrowed(&self.active_mask),
                matrix_words: Cow::Borrowed(matrix_words),
            },
        )
    }

    /// Rebuilds a detector from checkpoint parts; `None` if inconsistent.
    pub(crate) fn from_checkpoint_parts(cfg: GbfConfig, state: GbfState<'_>) -> Option<Self> {
        // Size-check against the provided payload BEFORE allocating: a
        // corrupt header could otherwise request an absurd matrix.
        let lanes = cfg.q.checked_add(1)?;
        let expected_words = match cfg.layout {
            GbfLayout::Padded => cfg.m.checked_mul(lanes.div_ceil(64))?,
            GbfLayout::Tight => {
                if lanes > 32 {
                    return None;
                }
                cfg.m.div_ceil(64 / lanes)
            }
        };
        let expected_mask_words = lanes.div_ceil(64);
        if state.matrix_words.len() != expected_words
            || state.active_mask.len() != expected_mask_words
            || state.clean_next > cfg.m
        {
            return None;
        }
        if state.spare.is_some_and(|s| s > cfg.q) {
            return None;
        }
        let mut d = Self::new(cfg).ok()?;
        d.clock = cfd_windows::JumpingClock::from_parts(
            cfg.q,
            cfg.sub_len(),
            state.slot,
            state.filled,
            state.completed,
        )?;
        d.active_mask = state.active_mask.into_owned();
        d.spare = state.spare;
        d.clean_next = state.clean_next;
        let words = state.matrix_words.into_owned();
        d.matrix = match cfg.layout {
            GbfLayout::Padded => {
                GroupMatrix::Padded(InterleavedBitMatrix::from_words(words, cfg.m, lanes)?)
            }
            GbfLayout::Tight => {
                GroupMatrix::Tight(TightBitMatrix::from_words(words, cfg.m, lanes)?)
            }
        };
        Some(d)
    }

    #[inline]
    fn mask_set(mask: &mut [u64], lane: usize) {
        mask[lane / 64] |= 1u64 << (lane % 64);
    }

    #[inline]
    fn mask_clear(mask: &mut [u64], lane: usize) {
        mask[lane / 64] &= !(1u64 << (lane % 64));
    }

    /// Advances the incremental wipe of the spare lane.
    fn clean_step(&mut self) {
        if let Some(spare) = self.spare {
            let remaining = self.cfg.m - self.clean_next;
            let count = self.clean_quota.min(remaining);
            let touched = self.matrix.clear_lane_range(spare, self.clean_next, count);
            self.ops.clean_writes += touched as u64;
            self.clean_next += count;
            if self.clean_next == self.cfg.m {
                self.spare = None;
                self.clean_next = 0;
            }
        }
    }

    /// Finishes any in-progress wipe immediately (used at rotation as a
    /// defensive fallback; the quota guarantees this is a no-op).
    fn clean_finish(&mut self) {
        if let Some(spare) = self.spare {
            let remaining = self.cfg.m - self.clean_next;
            if remaining > 0 {
                let touched = self
                    .matrix
                    .clear_lane_range(spare, self.clean_next, remaining);
                self.ops.clean_writes += touched as u64;
            }
            self.spare = None;
            self.clean_next = 0;
        }
    }

    /// The pure hashing half of this detector, shareable across threads.
    ///
    /// Plans it produces are valid for any GBF/TBF built with the same
    /// seed.
    #[must_use]
    pub fn planner(&self) -> Planner {
        Planner::from_family(self.family)
    }

    /// Hashes `id` into a replayable [`ProbePlan`] (pure; no state touched).
    #[inline]
    #[must_use]
    pub fn plan(&self, id: &[u8]) -> ProbePlan {
        ProbePlan::from_pair(self.family.pair(id))
    }

    /// The stateful half of an observation: clean, probe all active
    /// sub-windows, insert when distinct, rotate sub-windows.
    ///
    /// `observe(id)` ≡ `apply(plan(id))`; the split lets callers hash
    /// batches (or hash on another thread) before replaying here. The
    /// one hash evaluation is accounted to this element regardless of
    /// where it was computed, keeping Theorem 1's per-element op counts.
    pub fn apply(&mut self, plan: ProbePlan) -> Verdict {
        let mut bufs = std::mem::take(&mut self.bufs);
        let verdict = backend::apply_plan(self, &mut bufs, plan);
        self.bufs = bufs;
        verdict
    }

    /// Replays a batch of precomputed plans with the same lookahead
    /// prefetch as `observe_batch` — the stateful half of the sharded
    /// hash-once path, where plans were produced while routing.
    /// Verdicts go into `out` (cleared first, capacity reused).
    pub fn apply_batch_into(&mut self, plans: &[ProbePlan], out: &mut Vec<Verdict>) {
        let mut bufs = std::mem::take(&mut self.bufs);
        backend::apply_batch_into(self, &mut bufs, plans, out);
        self.bufs = bufs;
    }

    /// [`Gbf::apply`] with the plan's probe groups already expanded —
    /// the innermost stateful step, shared by the per-click and batch
    /// paths.
    fn apply_at(&mut self, probes: &[usize]) -> Verdict {
        self.ops.elements += 1;
        self.ops.hash_evals += 1;

        // Step 1 (§3.1): incremental cleaning of the expired filter.
        self.clean_step();

        // Step 2: probe all active sub-window filters with one AND-chain.
        let duplicate = match &self.matrix {
            GroupMatrix::Padded(mx) => {
                self.acc.copy_from_slice(&self.active_mask);
                for &g in probes {
                    mx.and_group_into(g, &mut self.acc);
                }
                self.acc.iter().any(|&w| w != 0)
            }
            GroupMatrix::Tight(mx) => {
                let mut acc = self.active_mask[0];
                for &g in probes {
                    acc &= mx.read_group(g);
                }
                acc != 0
            }
        };
        self.ops.probe_reads += (probes.len() * self.matrix.lane_words()) as u64;

        let verdict = if duplicate {
            Verdict::Duplicate
        } else {
            let cur = self.clock.slot();
            for &g in probes {
                self.matrix.set(g, cur);
            }
            self.ops.insert_writes += probes.len() as u64;
            Verdict::Distinct
        };

        // Step 3: sub-window bookkeeping.
        if let Some(rot) = self.clock.record_arrival() {
            // The new current slot must be fully clean; the quota
            // guarantees the previous wipe already finished.
            self.clean_finish();
            Self::mask_set(&mut self.active_mask, rot.new_slot);
            if let Some(expired) = rot.expired_slot {
                Self::mask_clear(&mut self.active_mask, expired);
                self.spare = Some(expired);
                self.clean_next = 0;
            }
        }
        verdict
    }
}

impl ProbeCore for Gbf {
    #[inline]
    fn table_len(&self) -> usize {
        self.cfg.m
    }

    #[inline]
    fn probe_width(&self) -> usize {
        self.k_eff
    }

    #[inline]
    fn block_geo(&self) -> Option<&BlockGeometry> {
        self.geo.as_ref()
    }

    #[inline]
    fn prefetch(&self, idx: usize) {
        self.matrix.prefetch(idx);
    }
}

impl CountCore for Gbf {
    #[inline]
    fn apply_probes(&mut self, _plan: ProbePlan, probes: &[usize]) -> Verdict {
        self.apply_at(probes)
    }
}

impl DuplicateDetector for Gbf {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let plan = self.plan(id);
        self.apply(plan)
    }

    fn observe_batch_into(&mut self, ids: &[&[u8]], out: &mut Vec<Verdict>) {
        // Hash the whole batch first (pure, multi-lane over equal-length
        // runs) and expand every plan's probe groups into one flat
        // buffer, then replay against filter state while prefetching
        // element `i + PREFETCH_AHEAD`'s cache lines — the same
        // latency-hiding replay as `Tbf::observe_batch`. In blocked mode
        // all of an element's probes share one line, so a single
        // prefetch per future element suffices.
        let mut bufs = std::mem::take(&mut self.bufs);
        let planner = self.planner();
        backend::observe_refs_into(self, &mut bufs, planner, ids, out);
        self.bufs = bufs;
    }

    fn observe_flat_into(&mut self, keys: &[u8], key_len: usize, out: &mut Vec<Verdict>) {
        let mut bufs = std::mem::take(&mut self.bufs);
        let planner = self.planner();
        backend::observe_flat_into(self, &mut bufs, planner, keys, key_len, out);
        self.bufs = bufs;
    }

    fn window(&self) -> WindowSpec {
        WindowSpec::Jumping {
            n: self.cfg.n,
            q: self.cfg.q,
        }
    }

    fn memory_bits(&self) -> usize {
        self.matrix.memory_bits()
    }

    fn reset(&mut self) {
        *self = Self::new(self.cfg).expect("configuration was already validated");
    }

    fn name(&self) -> &'static str {
        "gbf"
    }
}

impl DetectorStats for Gbf {
    fn stats_name(&self) -> &'static str {
        "gbf"
    }

    /// Fill ratio of each *active* lane (current partial sub-window
    /// first in rotation order is not guaranteed; entries follow lane
    /// index). `O(m)` per lane — snapshot cadence only.
    fn fill_ratios(&self) -> Vec<f64> {
        (0..=self.cfg.q)
            .filter(|&lane| self.active_mask[lane / 64] >> (lane % 64) & 1 == 1)
            .map(|lane| {
                self.scans.set(self.scans.get() + 1);
                self.matrix.count_ones_in_lane(lane) as f64 / self.cfg.m as f64
            })
            .collect()
    }

    /// Fraction of the spare lane's wipe still outstanding.
    fn cleaning_backlog(&self) -> f64 {
        if self.spare.is_some() {
            (self.cfg.m - self.clean_next) as f64 / self.cfg.m as f64
        } else {
            0.0
        }
    }

    fn cleaned_entries(&self) -> u64 {
        self.ops.clean_writes
    }

    fn observed_elements(&self) -> u64 {
        self.ops.elements
    }

    /// Distinct elements perform exactly `k_eff` insert writes, so the
    /// duplicate count is recoverable from the op counters.
    fn observed_duplicates(&self) -> u64 {
        self.ops.elements - self.ops.insert_writes / self.k_eff as u64
    }

    fn occupancy_scans(&self) -> u64 {
        self.scans.get()
    }

    /// A fresh key is flagged iff some active lane has all `k` probed
    /// bits set: `1 − Π over active lanes (1 − fill^k)` — Theorem 1's
    /// `Q`-filter union evaluated at the *live* fill instead of the
    /// design-point fill (`cfd_analysis::gbf::fp_steady`).
    fn estimated_fp(&self) -> f64 {
        let miss_all: f64 = self
            .fill_ratios()
            .iter()
            .map(|fill| 1.0 - fill.powi(self.cfg.k as i32))
            .product();
        1.0 - miss_all
    }

    /// Single-scan override: `fill_ratios` costs `O(m)` per active lane
    /// and the default assembly would run the lane count twice (once
    /// for the ratios, once inside `estimated_fp`). Derive both from
    /// one pass so health sampling stays cheap enough for the pipeline
    /// reporter.
    fn health(&self) -> cfd_telemetry::DetectorHealth {
        let fills = self.fill_ratios();
        let miss_all: f64 = fills
            .iter()
            .map(|fill| 1.0 - fill.powi(self.cfg.k as i32))
            .product();
        cfd_telemetry::DetectorHealth {
            detector: self.stats_name(),
            fill_ratios: fills,
            cleaning_backlog: self.cleaning_backlog(),
            sweep_position: self.sweep_position(),
            cleaned_entries: self.cleaned_entries(),
            observed_elements: self.observed_elements(),
            observed_duplicates: self.observed_duplicates(),
            estimated_fp: 1.0 - miss_all,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_windows::ExactJumpingDedup;

    fn gbf(n: usize, q: usize, m: usize, k: usize) -> Gbf {
        Gbf::new(
            GbfConfig::builder(n, q)
                .filter_bits(m)
                .hash_count(k)
                .seed(42)
                .build()
                .expect("valid config"),
        )
        .expect("valid gbf")
    }

    #[test]
    fn immediate_duplicate_detected() {
        let mut d = gbf(64, 4, 1 << 12, 5);
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
        assert_eq!(d.observe(b"x"), Verdict::Duplicate);
        assert_eq!(d.observe(b"y"), Verdict::Distinct);
    }

    #[test]
    fn duplicate_across_subwindows_detected() {
        // n = 16, q = 4 -> sub-windows of 4.
        let mut d = gbf(16, 4, 1 << 12, 5);
        d.observe(b"early");
        for i in 0..10u32 {
            d.observe(&i.to_le_bytes());
        }
        // 11 arrivals later, still within the 16-element window.
        assert_eq!(d.observe(b"early"), Verdict::Duplicate);
    }

    #[test]
    fn expired_subwindow_is_forgotten() {
        let mut d = gbf(16, 4, 1 << 14, 6);
        d.observe(b"old"); // lands in sub-window 0
        for i in 0..16u32 {
            // Fill four full sub-windows: sub-window 0 expires.
            d.observe(&(i + 1000).to_le_bytes());
        }
        assert_eq!(
            d.observe(b"old"),
            Verdict::Distinct,
            "remembered beyond window"
        );
    }

    #[test]
    fn zero_false_negatives_vs_exact_oracle() {
        let (n, q) = (64, 4);
        let mut d = gbf(n, q, 1 << 14, 6);
        let mut oracle = ExactJumpingDedup::new(n, q);
        for i in 0..10_000u64 {
            // Heavy duplication: ids cycle within and beyond the window.
            let key = (i % 97).to_le_bytes();
            let got = d.observe(&key);
            let want = oracle.observe(&key);
            if want == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
    }

    #[test]
    fn false_positive_rate_is_low_with_adequate_memory() {
        // 14 bits per sub-window element, k = 10 -> per-filter FP ~ 2^-10,
        // union of q = 8 filters ~ 0.008.
        let n = 1 << 12;
        let q = 8;
        let m = (n / q) * 14;
        let mut d = gbf(n, q, m, 10);
        let mut fps = 0u64;
        let total = 20 * n as u64;
        for i in 0..total {
            if d.observe(&i.to_le_bytes()) == Verdict::Duplicate {
                fps += 1; // stream is all-distinct: every Duplicate is an FP
            }
        }
        let rate = fps as f64 / total as f64;
        assert!(rate < 0.03, "fp rate {rate} too high");
    }

    #[test]
    fn cleaning_completes_before_lane_reuse() {
        // Tiny filter with awkward sizes: quota must still finish wipes.
        let mut d = gbf(10, 5, 97, 3);
        for i in 0..1_000u32 {
            d.observe(&i.to_le_bytes());
            if let Some(spare) = d.spare {
                // The spare lane is never the current insertion lane.
                assert_ne!(spare, d.clock.slot());
            }
        }
        // After many rotations every lane has been wiped at least once and
        // no stale bits leak: an all-distinct stream keeps fill bounded by
        // the window content.
        assert!(d.ops().clean_writes > 0);
    }

    #[test]
    fn stale_bits_never_resurface_after_wrap() {
        // Insert a key, let its lane expire, be cleaned, refilled and
        // expire again several times; the key must never be reported
        // duplicate once out of window.
        let n = 32;
        let mut d = gbf(n, 4, 1 << 13, 5);
        for round in 0..50u32 {
            let key = b"phoenix";
            assert_eq!(
                d.observe(key),
                Verdict::Distinct,
                "stale bit resurfaced in round {round}"
            );
            for i in 0..n as u32 {
                d.observe(&(round * 1_000 + i).to_le_bytes());
            }
        }
    }

    #[test]
    fn probe_reads_match_theorem_1_cost_model() {
        let mut d = gbf(1 << 10, 8, 1 << 12, 7);
        let elements = 5_000u64;
        for i in 0..elements {
            d.observe(&i.to_le_bytes());
        }
        let ops = d.ops();
        assert_eq!(ops.elements, elements);
        // k word-reads per element (lane_words = 1 for q + 1 = 9 lanes).
        assert_eq!(d.lane_words(), 1);
        assert_eq!(ops.probe_reads, elements * 7);
        // Cleaning writes are bounded by quota per element.
        let quota = d.config().clean_quota() as u64;
        assert!(ops.clean_writes <= elements * quota);
        assert_eq!(ops.hash_evals, elements);
    }

    #[test]
    fn many_lanes_use_multiple_words() {
        let d = gbf(1 << 10, 100, 1 << 10, 4);
        assert_eq!(d.lane_words(), 2);
        let mut d = d;
        // Smoke: still detects duplicates with multi-word masks.
        assert_eq!(d.observe(b"a"), Verdict::Distinct);
        assert_eq!(d.observe(b"a"), Verdict::Duplicate);
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut d = gbf(64, 4, 1 << 10, 4);
        d.observe(b"k");
        d.reset();
        assert_eq!(d.observe(b"k"), Verdict::Distinct);
        assert_eq!(d.ops().elements, 1);
    }

    #[test]
    fn tight_layout_is_verdict_identical_and_smaller() {
        use crate::config::GbfLayout;
        let (n, q, m, k) = (2_048usize, 8usize, 10_000usize, 6usize);
        let mut padded = Gbf::new(
            GbfConfig::builder(n, q)
                .filter_bits(m)
                .hash_count(k)
                .seed(9)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut tight = Gbf::new(
            GbfConfig::builder(n, q)
                .filter_bits(m)
                .hash_count(k)
                .seed(9)
                .layout(GbfLayout::Tight)
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..120_000u64 {
            let key = (i % 3_000).to_le_bytes();
            assert_eq!(padded.observe(&key), tight.observe(&key), "diverged at {i}");
        }
        // 9 lanes: tight packs 7 groups per word -> ~7x less memory.
        assert!(tight.memory_bits() * 6 < padded.memory_bits());
    }

    #[test]
    fn tight_layout_rejects_wide_q() {
        use crate::config::GbfLayout;
        let err = GbfConfig::builder(1 << 12, 32)
            .filter_bits(1 << 10)
            .layout(GbfLayout::Tight)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::LayoutTooWide { q: 32 }));
        assert!(err.to_string().contains("32"));
    }

    fn blocked_gbf(n: usize, q: usize, m: usize, k: usize, layout: GbfLayout) -> Gbf {
        Gbf::new(
            GbfConfig::builder(n, q)
                .filter_bits(m)
                .hash_count(k)
                .seed(42)
                .layout(layout)
                .probe(ProbeLayout::Blocked)
                .build()
                .expect("valid blocked config"),
        )
        .expect("valid blocked gbf")
    }

    #[test]
    fn blocked_mode_has_zero_false_negatives() {
        for layout in [GbfLayout::Padded, GbfLayout::Tight] {
            let (n, q) = (64, 4);
            let mut d = blocked_gbf(n, q, 1 << 14, 6, layout);
            let mut oracle = ExactJumpingDedup::new(n, q);
            for i in 0..10_000u64 {
                let key = (i % 97).to_le_bytes();
                let got = d.observe(&key);
                let want = oracle.observe(&key);
                if want == Verdict::Duplicate {
                    assert_eq!(got, Verdict::Duplicate, "{layout:?}: FN at element {i}");
                }
            }
        }
    }

    #[test]
    fn blocked_batch_matches_sequential() {
        let ids: Vec<Vec<u8>> = (0..6_000u64)
            .map(|i| (i % 700).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let mut sequential = blocked_gbf(256, 8, 1 << 14, 6, GbfLayout::Padded);
        let mut batched = blocked_gbf(256, 8, 1 << 14, 6, GbfLayout::Padded);
        let want: Vec<Verdict> = slices.iter().map(|id| sequential.observe(id)).collect();
        let mut got = Vec::new();
        for chunk in slices.chunks(513) {
            got.extend(batched.observe_batch(chunk));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn blocked_fp_stays_usable_with_adequate_memory() {
        // Blocked probing pays a load-variance FP penalty that grows as
        // blocks carry fewer slots. The tight layout at Q = 8 packs
        // 9-bit groups, so a 512-bit line holds 32 group slots — enough
        // for the penalty to stay moderate when memory is adequate.
        let n = 1 << 12;
        let q = 8;
        let m = (n / q) * 28;
        let mut d = blocked_gbf(n, q, m, 10, GbfLayout::Tight);
        assert_eq!(d.effective_hash_count(), 10, "32 slots keep k intact");
        let mut fps = 0u64;
        let total = 20 * n as u64;
        for i in 0..total {
            if d.observe(&i.to_le_bytes()) == Verdict::Duplicate {
                fps += 1;
            }
        }
        let rate = fps as f64 / total as f64;
        assert!(rate < 0.08, "blocked fp rate {rate} too high");
    }

    #[test]
    fn blocked_caps_probes_on_coarse_slots() {
        // Padded Q = 8 groups are 64-bit, so a line holds only 8 slots;
        // k is capped at slots/2 so one insert can never saturate its
        // block (uncapped, every touched block would report all later
        // arrivals as duplicates).
        let n = 1 << 12;
        let q = 8;
        let d = blocked_gbf(n, q, (n / q) * 14, 10, GbfLayout::Padded);
        assert_eq!(d.effective_hash_count(), 4);
        let scattered = Gbf::new(
            GbfConfig::builder(n, q)
                .filter_bits((n / q) * 14)
                .hash_count(10)
                .layout(GbfLayout::Padded)
                .build()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(scattered.effective_hash_count(), 10);
    }

    #[test]
    fn occupancy_scans_counts_fill_passes_only() {
        let mut d = gbf(64, 4, 1 << 12, 5);
        for i in 0..500u32 {
            d.observe(&i.to_le_bytes());
        }
        assert_eq!(d.occupancy_scans(), 0, "hot path must not scan");
        let lanes = d.fill_ratios().len() as u64;
        assert_eq!(d.occupancy_scans(), lanes);
        let _ = d.health();
        assert_eq!(d.occupancy_scans(), 2 * lanes);
    }

    #[test]
    fn memory_bits_reports_whole_matrix() {
        let d = gbf(64, 4, 1000, 4);
        // 5 lanes -> 1 word per group, 1000 groups.
        assert_eq!(d.memory_bits(), 1000 * 64);
    }
}
