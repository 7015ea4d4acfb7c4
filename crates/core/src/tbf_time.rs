//! TBF over *time-based* sliding windows (§4.1 extension).
//!
//! "Suppose the entire sliding window is equally divided into `R` time
//! units. In Step 1, the cleaning procedure executes once in each time
//! unit ... instead of inserting the counting-based position, the time
//! unit information is inserted into the entries of TBF."
//!
//! Entries store the wraparound *time-unit index* of their last insertion.
//! The window covers the last `R` units (the current unit included), so
//! two clicks within the same unit are duplicates. The paper's per-unit
//! cleaning daemon is implemented *lazily but faithfully*: when an
//! observation advances the clock by `g` units, the sweeps of the skipped
//! units are replayed one unit at a time, each evaluated at its own
//! virtual "now" — byte-for-byte the schedule an on-time daemon would
//! have produced. A gap of `R` or more units simply clears the table
//! (everything is expired by then), bounding the replay cost.
//!
//! # Hot path
//!
//! The detector mirrors the count-based [`crate::Tbf`] split: hashing is
//! pure ([`TimeTbf::plan`] / [`TimeTbf::planner`]) and the stateful half
//! replays precomputed [`ProbePlan`]s. The batch entry points
//! ([`TimeTbf::apply_batch_at_into`], `observe_batch_at`,
//! `observe_flat_at_into`) hash the whole batch in one multi-lane pass,
//! expand every plan's probe indices into one flat buffer, and replay
//! with one-line-ahead prefetch. Clock work is amortized per batch: the
//! unit index and wraparound stamp are recomputed only when a tick run
//! crosses into a new unit, so a burst of clicks inside one unit pays
//! the division and `advance_to` once.
//!
//! # Out-of-order ticks
//!
//! Time never moves backwards. A click whose tick maps to a unit behind
//! the detector's high-water unit is *clamped*: it is classified and
//! inserted as if it arrived in the current unit, and the event is
//! counted in [`OpCounters::clock_regressions`] so operators can see how
//! disordered the feed is. Clamping keeps the zero-false-negative
//! guarantee one-sided: a late duplicate is still flagged, and a late
//! distinct click can only be remembered slightly *longer* than its true
//! window.

use crate::backend::{self, BatchBufs, ProbeCore, TimedCore};
use crate::config::{ConfigError, ProbeLayout};
use crate::ops::OpCounters;
use cfd_bits::words::bits_for_value;
use cfd_bits::PackedIntVec;
use cfd_hash::{BlockGeometry, DoubleHashFamily, HashFamily, Planner, ProbePlan};
use cfd_telemetry::DetectorStats;
use cfd_windows::time::UnitClock;
use cfd_windows::{DuplicateDetector, Verdict, WindowSpec};
use std::borrow::Cow;
use std::cell::Cell;

/// Dynamic [`TimeTbf`] state captured by a checkpoint.
pub(crate) struct TimeTbfState<'a> {
    /// Absolute high-water unit (`None` before the first observation).
    pub cur_unit: Option<u64>,
    /// Next entry index the incremental sweep will visit.
    pub clean_next: usize,
    /// Raw words of the packed entry table.
    pub entry_words: Cow<'a, [u64]>,
}

/// Configuration of a [`TimeTbf`] detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeTbfConfig {
    /// Window span in time units (`R`).
    pub window_units: u64,
    /// Ticks per time unit (granularity of expiry).
    pub unit_ticks: u64,
    /// Number of TBF entries (`m`).
    pub m: usize,
    /// Hash functions per element (`k`).
    pub k: usize,
    /// Unit-range extension (`C` in units; default `R`).
    pub c_units: u64,
    /// Hash seed.
    pub seed: u64,
    /// Probe-index derivation scheme.
    pub probe: ProbeLayout,
}

impl TimeTbfConfig {
    /// Creates a validated configuration with the default `C = R` and
    /// scattered probing.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on zero dimensions, bad `k`, or window
    /// parameters whose products/sums overflow `u64`.
    pub fn new(
        window_units: u64,
        unit_ticks: u64,
        m: usize,
        k: usize,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let cfg = Self {
            window_units,
            unit_ticks,
            m,
            k,
            c_units: window_units,
            seed,
            probe: ProbeLayout::Scattered,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Returns the configuration with the probe layout replaced.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BlockedUnsupported`] when `Blocked` is
    /// requested but the entry width / table shape cannot form blocks.
    pub fn with_probe(mut self, probe: ProbeLayout) -> Result<Self, ConfigError> {
        self.probe = probe;
        if probe == ProbeLayout::Blocked && self.block_geometry().is_none() {
            return Err(ConfigError::BlockedUnsupported {
                slot_bits: self.entry_bits() as usize,
                m: self.m,
            });
        }
        Ok(self)
    }

    /// The wraparound unit range (`R + C`). Saturating: [`validate`]
    /// rejects configurations where the true sum overflows, so a
    /// saturated value is only ever seen on hand-built invalid configs.
    ///
    /// [`validate`]: TimeTbfConfig::new
    #[must_use]
    pub fn range(&self) -> u64 {
        self.window_units.saturating_add(self.c_units)
    }

    /// Bits per entry (`⌈log2(R + C + 1)⌉`, all-ones reserved as empty).
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        bits_for_value(self.range())
    }

    /// The cache-line block geometry, when `probe` is blocked.
    #[must_use]
    pub fn block_geometry(&self) -> Option<BlockGeometry> {
        match self.probe {
            ProbeLayout::Scattered => None,
            ProbeLayout::Blocked => BlockGeometry::for_line(self.m, self.entry_bits() as usize),
        }
    }

    /// The window span in ticks (`R × unit_ticks`). Saturating, like
    /// [`TimeTbfConfig::range`].
    #[must_use]
    pub fn window_ticks(&self) -> u64 {
        self.window_units.saturating_mul(self.unit_ticks)
    }

    /// Entries swept per *time unit* (`⌈m / C⌉`): the cleanable band of
    /// an entry spans `C` units, so one full table cycle fits inside it.
    #[must_use]
    pub fn clean_chunk(&self) -> usize {
        self.m
            .div_ceil(usize::try_from(self.c_units.max(1)).unwrap_or(usize::MAX))
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.window_units == 0 || self.c_units == 0 {
            return Err(ConfigError::ZeroDimension("window units"));
        }
        if self.unit_ticks == 0 {
            return Err(ConfigError::ZeroDimension("ticks per unit"));
        }
        if self.m == 0 {
            return Err(ConfigError::ZeroDimension("entry count m"));
        }
        if !(1..=64).contains(&self.k) {
            return Err(ConfigError::BadHashCount(self.k));
        }
        if self.window_units.checked_add(self.c_units).is_none() {
            return Err(ConfigError::ArithmeticOverflow {
                what: "unit range R + C",
            });
        }
        if self.window_units.checked_mul(self.unit_ticks).is_none() {
            return Err(ConfigError::ArithmeticOverflow {
                what: "window span R * unit_ticks",
            });
        }
        Ok(())
    }
}

/// Timing-Bloom-filter duplicate detector over time-based sliding
/// windows.
///
/// ```rust
/// use cfd_core::tbf_time::{TimeTbf, TimeTbfConfig};
/// use cfd_windows::{DuplicateDetector, Verdict};
///
/// # fn main() -> Result<(), cfd_core::ConfigError> {
/// // Window = 60 units of 1000 ticks (e.g. a one-minute window in ms).
/// let cfg = TimeTbfConfig::new(60, 1000, 1 << 16, 6, 0)?;
/// let mut d = TimeTbf::new(cfg)?;
/// assert_eq!(d.observe_at(b"ip|cookie|ad", 1_000), Verdict::Distinct);
/// assert_eq!(d.observe_at(b"ip|cookie|ad", 30_000), Verdict::Duplicate);
/// assert_eq!(d.observe_at(b"ip|cookie|ad", 90_000), Verdict::Distinct);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimeTbf {
    cfg: TimeTbfConfig,
    entries: PackedIntVec,
    units: UnitClock,
    family: DoubleHashFamily,
    /// Absolute unit of the last observation (`None` before the first).
    cur_unit: Option<u64>,
    clean_next: usize,
    clean_chunk: usize,
    empty: u64,
    ops: OpCounters,
    bufs: BatchBufs,
    /// Blocked-probe geometry; `None` in scattered mode.
    geo: Option<BlockGeometry>,
    /// Probes actually issued per element: `k` scattered, capped at
    /// half the block in blocked mode (see [`crate::Gbf`]).
    k_eff: usize,
    /// `O(m)` occupancy scans performed (snapshot-cadence only; see
    /// `DetectorStats::occupancy_scans`).
    scans: Cell<u64>,
}

impl TimeTbf {
    /// Creates a detector from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn new(cfg: TimeTbfConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let geo = match cfg.probe {
            ProbeLayout::Scattered => None,
            ProbeLayout::Blocked => Some(cfg.block_geometry().ok_or(
                ConfigError::BlockedUnsupported {
                    slot_bits: cfg.entry_bits() as usize,
                    m: cfg.m,
                },
            )?),
        };
        let k_eff = backend::effective_k(cfg.k, geo.as_ref());
        let entries = PackedIntVec::new_all_ones(cfg.m, cfg.entry_bits());
        let empty = entries.max_value();
        Ok(Self {
            units: UnitClock::new(cfg.unit_ticks),
            family: DoubleHashFamily::new(cfg.seed),
            cur_unit: None,
            clean_next: 0,
            clean_chunk: cfg.clean_chunk(),
            empty,
            ops: OpCounters::new(),
            bufs: BatchBufs::default(),
            geo,
            k_eff,
            scans: Cell::new(0),
            entries,
            cfg,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> TimeTbfConfig {
        self.cfg
    }

    /// Memory-operation counters.
    #[must_use]
    pub fn ops(&self) -> OpCounters {
        self.ops
    }

    /// Probes issued per element: `k` in scattered mode, `min(k,
    /// slots/2)` in blocked mode (saturation cap; see [`crate::Gbf`]).
    #[must_use]
    pub fn effective_hash_count(&self) -> usize {
        self.k_eff
    }

    /// Number of entries holding an *active* stamp — occupied and within
    /// the window as seen from the high-water unit (diagnostics;
    /// `O(m)`). Only active entries can satisfy a probe, so this is the
    /// occupancy that drives the false-positive rate.
    #[must_use]
    pub fn active_entries(&self) -> usize {
        self.scans.set(self.scans.get() + 1);
        let Some(now) = self.cur_unit else {
            return 0;
        };
        let now_mod = now % self.cfg.range();
        (0..self.cfg.m)
            .filter(|&i| {
                let e = self.entries.get(i);
                e != self.empty && self.is_active_mod(now_mod, e)
            })
            .count()
    }

    /// Internal state snapshot for checkpointing.
    pub(crate) fn checkpoint_parts(&self) -> (TimeTbfConfig, TimeTbfState<'_>) {
        (
            self.cfg,
            TimeTbfState {
                cur_unit: self.cur_unit,
                clean_next: self.clean_next,
                entry_words: Cow::Borrowed(self.entries.as_words()),
            },
        )
    }

    /// Rebuilds a detector from checkpoint parts; `None` if inconsistent.
    pub(crate) fn from_checkpoint_parts(
        cfg: TimeTbfConfig,
        state: TimeTbfState<'_>,
    ) -> Option<Self> {
        // Size-check against the provided payload BEFORE allocating: a
        // corrupt header could otherwise request an absurd table.
        let expected_words = cfg.m.checked_mul(cfg.entry_bits() as usize)?.div_ceil(64);
        if state.entry_words.len() != expected_words || state.clean_next >= cfg.m {
            return None;
        }
        let mut d = Self::new(cfg).ok()?;
        d.cur_unit = state.cur_unit;
        d.clean_next = state.clean_next;
        d.entries =
            PackedIntVec::from_words(state.entry_words.into_owned(), cfg.m, cfg.entry_bits())?;
        Some(d)
    }

    /// Unit age of the stamp `e` as seen from `now_mod = abs_now %
    /// range` (0 = written this unit). The caller hoists the modulo:
    /// probe and sweep loops evaluate many stamps against one clock
    /// position, and a 64-bit division per stamp would dominate them.
    #[inline]
    fn unit_age_mod(&self, now_mod: u64, e: u64) -> u64 {
        if now_mod >= e {
            now_mod - e
        } else {
            self.cfg.range() - e + now_mod
        }
    }

    #[inline]
    fn is_active_mod(&self, now_mod: u64, e: u64) -> bool {
        self.unit_age_mod(now_mod, e) < self.cfg.window_units
    }

    /// `count` entries of the cleaning daemon — one unit's worth is
    /// `clean_chunk` — evaluated at virtual unit `abs_unit`. Runs on [`PackedIntVec::expire_timestamps`] (on the
    /// wide dispatch: a store-free classify pass, then a rewrite of the
    /// expired entries only) with the wraparound clock position
    /// computed once per sweep — at production sizings the sweep visits
    /// several entries per arriving click, so its per-entry cost bounds
    /// detector throughput. The timed predicate differs from the
    /// count-based TBF's only in its activity interval: age 0 (written
    /// this unit) is still live, so it is `[0, window - 1]`.
    fn sweep(&mut self, abs_unit: u64, count: usize) {
        let m = self.cfg.m;
        let range = self.cfg.range();
        let window = self.cfg.window_units;
        let now_mod = abs_unit % range;
        let mut remaining = count;
        while remaining > 0 {
            let start = self.clean_next;
            let seg = remaining.min(m - start);
            let cleaned = self.entries.expire_timestamps(
                start,
                seg,
                self.empty,
                self.empty,
                now_mod,
                range,
                0,
                window - 1,
            );
            self.ops.clean_reads += seg as u64;
            self.ops.clean_writes += cleaned as u64;
            self.clean_next += seg;
            if self.clean_next == m {
                self.clean_next = 0;
            }
            remaining -= seg;
        }
    }

    /// Sweeps the whole table once at the high-water unit (a no-op
    /// before the first observation). Changes no verdict: an expired
    /// stamp already reads as absent.
    pub(crate) fn expire_all(&mut self) {
        if let Some(now) = self.cur_unit {
            self.sweep(now, self.cfg.m);
        }
    }

    /// Advances the clock to `unit`, replaying skipped units' sweeps.
    ///
    /// Out-of-order policy: a unit behind the high-water mark is clamped
    /// to it (time never moves backwards) and the event is counted in
    /// [`OpCounters::clock_regressions`].
    fn advance_to(&mut self, unit: u64) -> u64 {
        let last = match self.cur_unit {
            None => {
                self.cur_unit = Some(unit);
                return unit;
            }
            Some(last) => last,
        };
        if unit <= last {
            if unit < last {
                self.ops.clock_regressions += 1;
            }
            // `unit == last` is the common same-unit case: nothing to
            // sweep, and skipping it keeps `last + 1` below from
            // overflowing when the clock sits at `u64::MAX`.
            return last;
        }
        let crossed = unit - last;
        if crossed >= self.cfg.window_units {
            // Everything written before the gap is expired: clearing the
            // table is both correct and cheaper than replaying the gap.
            self.entries.fill(self.empty);
            self.ops.clean_writes += self.cfg.m as u64;
            self.clean_next = 0;
        } else {
            for u in (last + 1)..=unit {
                self.sweep(u, self.clean_chunk);
            }
        }
        self.cur_unit = Some(unit);
        unit
    }

    /// The pure hashing half of this detector, shareable across threads.
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

    /// The stateful half of a timed observation; `observe_at(id, tick)` ≡
    /// `apply_at(plan(id), tick)`. The hash evaluation is accounted to
    /// this element regardless of where it was computed.
    pub fn apply_at(&mut self, plan: ProbePlan, tick: u64) -> Verdict {
        let mut bufs = std::mem::take(&mut self.bufs);
        let verdict = backend::apply_plan_at(self, &mut bufs, plan, tick);
        self.bufs = bufs;
        verdict
    }

    /// The stateful half of a tickless observation; `observe(id)` ≡
    /// `apply(plan(id))`. Judged at the current clock: the high-water
    /// unit, or unit 0 before the first observation (never a clock
    /// regression).
    pub fn apply(&mut self, plan: ProbePlan) -> Verdict {
        let mut bufs = std::mem::take(&mut self.bufs);
        let verdict = backend::apply_plan_now(self, &mut bufs, plan);
        self.bufs = bufs;
        verdict
    }

    /// Replays a batch of precomputed plans, one tick per plan, with the
    /// same lookahead prefetch as `observe_batch_at` — the stateful half
    /// of [`PlannedDetector::apply_plan_batch_at`]. Verdicts go into
    /// `out` (cleared first, capacity reused).
    ///
    /// [`PlannedDetector::apply_plan_batch_at`]: crate::PlannedDetector::apply_plan_batch_at
    ///
    /// # Panics
    /// Panics if `plans.len() != ticks.len()`.
    pub fn apply_batch_at_into(
        &mut self,
        plans: &[ProbePlan],
        ticks: &[u64],
        out: &mut Vec<Verdict>,
    ) {
        let mut bufs = std::mem::take(&mut self.bufs);
        backend::apply_batch_at_into(self, &mut bufs, plans, ticks, out);
        self.bufs = bufs;
    }

    /// [`TimeTbf::apply_at`] with the plan's probe indices already
    /// expanded and the clock already advanced — the innermost stateful
    /// step, shared by the per-click and batch paths. `stamp_now` is
    /// `unit % range`, so activity checks reuse it instead of dividing
    /// per probe.
    fn probe_insert(&mut self, probes: &[usize], stamp_now: u64) -> Verdict {
        self.ops.elements += 1;
        self.ops.hash_evals += 1;
        let mut present_and_active = true;
        for &i in probes {
            let e = self.entries.get(i);
            self.ops.probe_reads += 1;
            if e == self.empty || !self.is_active_mod(stamp_now, e) {
                present_and_active = false;
                break;
            }
        }

        if present_and_active {
            Verdict::Duplicate
        } else {
            for &i in probes {
                self.entries.set(i, stamp_now);
            }
            self.ops.insert_writes += probes.len() as u64;
            Verdict::Distinct
        }
    }
}

impl ProbeCore for TimeTbf {
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
        self.entries.prefetch(idx);
    }
}

impl TimedCore for TimeTbf {
    #[inline]
    fn unit_of(&self, tick: u64) -> u64 {
        self.units.unit_of(tick)
    }

    #[inline]
    fn high_water(&self) -> Option<u64> {
        self.cur_unit
    }

    #[inline]
    fn advance_to(&mut self, unit: u64) -> u64 {
        Self::advance_to(self, unit)
    }

    #[inline]
    fn stamp_of(&self, unit: u64) -> u64 {
        unit % self.cfg.range()
    }

    #[inline]
    fn note_regression(&mut self) {
        self.ops.clock_regressions += 1;
    }

    #[inline]
    fn apply_probes_at(&mut self, _plan: ProbePlan, probes: &[usize], stamp_now: u64) -> Verdict {
        self.probe_insert(probes, stamp_now)
    }
}

impl DuplicateDetector for TimeTbf {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let plan = self.plan(id);
        self.apply(plan)
    }

    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        let plan = self.plan(id);
        self.apply_at(plan, tick)
    }

    fn observe_batch_at_into(&mut self, ids: &[&[u8]], ticks: &[u64], out: &mut Vec<Verdict>) {
        // Hash the whole batch first (pure, multi-lane over equal-length
        // runs), expand to one flat probe buffer, then replay against
        // filter state with lookahead prefetch — the same latency-hiding
        // schedule as `Tbf::observe_batch`.
        let mut bufs = std::mem::take(&mut self.bufs);
        let planner = self.planner();
        backend::observe_refs_at_into(self, &mut bufs, planner, ids, ticks, out);
        self.bufs = bufs;
    }

    fn observe_flat_at_into(
        &mut self,
        keys: &[u8],
        key_len: usize,
        ticks: &[u64],
        out: &mut Vec<Verdict>,
    ) {
        let mut bufs = std::mem::take(&mut self.bufs);
        let planner = self.planner();
        backend::observe_flat_at_into(self, &mut bufs, planner, keys, key_len, ticks, out);
        self.bufs = bufs;
    }

    fn window(&self) -> WindowSpec {
        WindowSpec::TimeSliding {
            ticks: self.cfg.window_ticks(),
        }
    }

    fn memory_bits(&self) -> usize {
        self.entries.memory_bits()
    }

    fn reset(&mut self) {
        *self = Self::new(self.cfg).expect("configuration was already validated");
    }

    fn name(&self) -> &'static str {
        "time-tbf"
    }
}

impl DetectorStats for TimeTbf {
    fn stats_name(&self) -> &'static str {
        "time-tbf"
    }

    /// One entry: the active-stamp occupancy ratio (`O(m)`).
    fn fill_ratios(&self) -> Vec<f64> {
        vec![self.active_entries() as f64 / self.cfg.m as f64]
    }

    /// Normalized position of the incremental sweep through the table.
    fn sweep_position(&self) -> f64 {
        self.clean_next as f64 / self.cfg.m as f64
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

    /// A fresh key is flagged iff all `k_eff` probes land on active
    /// entries: `(active/m)^k_eff` at the live occupancy (lower bound in
    /// blocked mode; see `cfd_analysis::blocked`).
    fn estimated_fp(&self) -> f64 {
        (self.active_entries() as f64 / self.cfg.m as f64).powi(self.k_eff as i32)
    }

    fn occupancy_scans(&self) -> u64 {
        self.scans.get()
    }

    /// Single-scan override: `fill_ratios` and `estimated_fp` each need
    /// the `O(m)` active-entry count; derive both from one pass.
    fn health(&self) -> cfd_telemetry::DetectorHealth {
        let fill = self.active_entries() as f64 / self.cfg.m as f64;
        cfd_telemetry::DetectorHealth {
            detector: self.stats_name(),
            fill_ratios: vec![fill],
            cleaning_backlog: 0.0,
            sweep_position: self.sweep_position(),
            cleaned_entries: self.cleaned_entries(),
            observed_elements: self.observed_elements(),
            observed_duplicates: self.observed_duplicates(),
            estimated_fp: fill.powi(self.k_eff as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_windows::ExactTimeSlidingDedup;

    fn ttbf(window_units: u64, unit_ticks: u64, m: usize, k: usize) -> TimeTbf {
        TimeTbf::new(TimeTbfConfig::new(window_units, unit_ticks, m, k, 9).unwrap()).unwrap()
    }

    fn blocked_ttbf(window_units: u64, unit_ticks: u64, m: usize, k: usize) -> TimeTbf {
        let cfg = TimeTbfConfig::new(window_units, unit_ticks, m, k, 9)
            .unwrap()
            .with_probe(ProbeLayout::Blocked)
            .unwrap();
        TimeTbf::new(cfg).unwrap()
    }

    #[test]
    fn duplicate_within_window_distinct_after() {
        let mut d = ttbf(10, 100, 1 << 14, 6);
        assert_eq!(d.observe_at(b"x", 0), Verdict::Distinct);
        assert_eq!(d.observe_at(b"x", 500), Verdict::Duplicate); // unit 5
        assert_eq!(d.observe_at(b"x", 999), Verdict::Duplicate); // unit 9
                                                                 // unit 10: the valid click at unit 0 left the 10-unit window.
        assert_eq!(d.observe_at(b"x", 1_000), Verdict::Distinct);
    }

    #[test]
    fn same_unit_repeats_are_duplicates() {
        let mut d = ttbf(5, 1_000, 1 << 12, 5);
        assert_eq!(d.observe_at(b"a", 123), Verdict::Distinct);
        assert_eq!(d.observe_at(b"a", 456), Verdict::Duplicate);
    }

    #[test]
    fn long_quiet_gap_clears_everything() {
        let mut d = ttbf(10, 1, 1 << 12, 5);
        d.observe_at(b"a", 0);
        d.observe_at(b"b", 1);
        // Gap of 1000 units: table cleared, both distinct again.
        assert_eq!(d.observe_at(b"a", 1_000), Verdict::Distinct);
        assert_eq!(d.observe_at(b"b", 1_001), Verdict::Distinct);
    }

    #[test]
    fn zero_false_negatives_vs_exact_timed_oracle() {
        let mut d = ttbf(16, 10, 1 << 14, 6);
        let mut oracle = ExactTimeSlidingDedup::new(16, 10);
        // Bursty stream: ids repeat at various lags, time advances in
        // irregular steps (including intra-unit bursts and small gaps).
        let mut tick = 0u64;
        for i in 0..30_000u64 {
            tick += match i % 7 {
                0 => 0,
                1 | 2 => 3,
                3 => 17,
                4 => 1,
                5 => 25,
                _ => 6,
            };
            let key = (i % 61).to_le_bytes();
            let got = d.observe_at(&key, tick);
            let want = oracle.observe_at(&key, tick);
            if want == Verdict::Duplicate {
                assert_eq!(
                    got,
                    Verdict::Duplicate,
                    "false negative at i={i} tick={tick}"
                );
            }
        }
    }

    #[test]
    fn aliasing_controlled_across_many_wraparounds() {
        // Range = 2R = 32 units; run thousands of units with a distinct
        // stream and verify the FP rate stays small.
        let mut d = ttbf(16, 1, 1 << 13, 6);
        let mut fps = 0u64;
        let total = 50_000u64;
        for i in 0..total {
            if d.observe_at(&i.to_le_bytes(), i / 3) == Verdict::Duplicate {
                fps += 1;
            }
        }
        assert!(
            (fps as f64 / total as f64) < 0.02,
            "fp rate too high: {fps}"
        );
    }

    #[test]
    fn out_of_order_ticks_are_clamped_and_counted() {
        let mut d = ttbf(10, 100, 1 << 12, 5);
        d.observe_at(b"a", 10_000);
        assert_eq!(d.ops().clock_regressions, 0);
        // An earlier tick arrives late: processed at the current unit.
        assert_eq!(d.observe_at(b"a", 2_000), Verdict::Duplicate);
        assert_eq!(d.ops().clock_regressions, 1);
        assert_eq!(d.observe_at(b"new", 1), Verdict::Distinct);
        assert_eq!(d.ops().clock_regressions, 2);
        // In-order ticks do not count.
        d.observe_at(b"later", 11_000);
        assert_eq!(d.ops().clock_regressions, 2);
    }

    #[test]
    fn tickless_observe_judges_at_the_current_clock() {
        let mut d = ttbf(10, 100, 1 << 12, 5);
        // Before the first click the clock is tick 0.
        assert_eq!(d.observe(b"early"), Verdict::Distinct);
        assert_eq!(d.observe_at(b"early", 99), Verdict::Duplicate); // unit 0
        assert_eq!(d.observe_at(b"x", 5_000), Verdict::Distinct);
        let regressions = d.ops().clock_regressions;
        assert_eq!(d.observe(b"x"), Verdict::Duplicate);
        // Judged at unit 50, where the unit-0 click has expired.
        assert_eq!(d.observe(b"early"), Verdict::Distinct);
        assert_eq!(d.observe(b"fresh"), Verdict::Distinct);
        assert_eq!(d.observe_at(b"fresh", 5_099), Verdict::Duplicate);
        assert_eq!(d.ops().clock_regressions, regressions);
    }

    #[test]
    fn entry_bits_follow_unit_range() {
        let cfg = TimeTbfConfig::new(60, 1000, 100, 4, 0).unwrap();
        // range = 120 -> 7 bits.
        assert_eq!(cfg.entry_bits(), 7);
        assert_eq!(cfg.clean_chunk(), 2); // ceil(100/60)
    }

    #[test]
    fn config_rejects_overflowing_windows() {
        // R + C = 2 * u64::MAX overflows.
        let err = TimeTbfConfig::new(u64::MAX, 1, 100, 4, 0).unwrap_err();
        assert!(matches!(err, ConfigError::ArithmeticOverflow { .. }));
        assert!(err.to_string().contains("overflow"));
        // R * unit_ticks overflows even though R + C does not.
        let err = TimeTbfConfig::new(1 << 33, 1 << 33, 100, 4, 0).unwrap_err();
        assert!(matches!(err, ConfigError::ArithmeticOverflow { .. }));
    }

    #[test]
    fn ticks_near_u64_max_are_classified_correctly() {
        // unit_ticks = 1: units are raw ticks; exercise the wraparound
        // stamp math at the very top of the tick space.
        let mut d = ttbf(8, 1, 1 << 12, 5);
        let base = u64::MAX - 20;
        assert_eq!(d.observe_at(b"edge", base), Verdict::Distinct);
        assert_eq!(d.observe_at(b"edge", base + 7), Verdict::Duplicate);
        // 8 units later the click has expired.
        assert_eq!(d.observe_at(b"edge", base + 8), Verdict::Distinct);
        // The final representable tick still processes.
        assert_eq!(d.observe_at(b"last", u64::MAX), Verdict::Distinct);
        assert_eq!(d.observe_at(b"last", u64::MAX), Verdict::Duplicate);
    }

    #[test]
    fn non_dividing_unit_ticks_round_down() {
        // unit_ticks = 7 does not divide the tick space evenly; ticks
        // inside one 7-tick unit are the same unit, tick 7k the next.
        let mut d = ttbf(3, 7, 1 << 12, 4);
        assert_eq!(d.observe_at(b"q", 6), Verdict::Distinct); // unit 0
        assert_eq!(d.observe_at(b"q", 7), Verdict::Duplicate); // unit 1
        assert_eq!(d.observe_at(b"q", 20), Verdict::Duplicate); // unit 2
                                                                // unit 3 (tick 21): the unit-0 click left the 3-unit window.
        assert_eq!(d.observe_at(b"q", 21), Verdict::Distinct);
    }

    #[test]
    fn batch_matches_sequential() {
        let ids: Vec<Vec<u8>> = (0..6_000u64)
            .map(|i| (i % 700).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let ticks: Vec<u64> = (0..6_000u64).map(|i| i * 3 / 2).collect();
        let mut sequential = ttbf(32, 40, 1 << 14, 6);
        let mut batched = ttbf(32, 40, 1 << 14, 6);
        let want: Vec<Verdict> = slices
            .iter()
            .zip(&ticks)
            .map(|(id, &t)| sequential.observe_at(id, t))
            .collect();
        let mut got = Vec::new();
        for (chunk, tchunk) in slices.chunks(513).zip(ticks.chunks(513)) {
            got.extend(batched.observe_batch_at(chunk, tchunk));
        }
        assert_eq!(got, want);
        // Counter parity: the amortized clock cache must not change any
        // accounting, including clamp events.
        assert_eq!(batched.ops(), sequential.ops());
    }

    #[test]
    fn flat_keys_match_slice_batch() {
        let keys: Vec<[u8; 8]> = (0..4_000u64).map(|i| (i % 311).to_le_bytes()).collect();
        let flat: Vec<u8> = keys.iter().flatten().copied().collect();
        let slices: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let ticks: Vec<u64> = (0..4_000u64).map(|i| i / 2).collect();
        let mut by_slices = ttbf(64, 16, 1 << 14, 6);
        let mut by_flat = ttbf(64, 16, 1 << 14, 6);
        let want = by_slices.observe_batch_at(&slices, &ticks);
        let mut got = Vec::new();
        by_flat.observe_flat_at_into(&flat, 8, &ticks, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn batch_counts_regressions_like_sequential() {
        let mut seq = ttbf(10, 10, 1 << 12, 4);
        let mut bat = ttbf(10, 10, 1 << 12, 4);
        let ids: Vec<Vec<u8>> = (0..6u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        // Ticks regress twice inside the batch (same regressed unit run).
        let ticks = [500u64, 40, 41, 700, 10, 900];
        for (id, &t) in slices.iter().zip(&ticks) {
            seq.observe_at(id, t);
        }
        bat.observe_batch_at(&slices, &ticks);
        assert_eq!(seq.ops().clock_regressions, 3);
        assert_eq!(bat.ops(), seq.ops());
    }

    #[test]
    fn blocked_mode_matches_oracle_and_caps_k() {
        let mut d = blocked_ttbf(16, 10, 1 << 14, 10);
        // range = 32 -> 6-bit entries -> 64 slots per line (pow2 floor),
        // k capped at slots/2 when smaller than k.
        assert!(d.effective_hash_count() <= 10);
        let mut oracle = ExactTimeSlidingDedup::new(16, 10);
        let mut tick = 0u64;
        for i in 0..20_000u64 {
            tick += i % 5;
            let key = (i % 53).to_le_bytes();
            let got = d.observe_at(&key, tick);
            let want = oracle.observe_at(&key, tick);
            if want == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "blocked FN at i={i}");
            }
        }
    }

    #[test]
    fn blocked_batch_matches_blocked_sequential() {
        let ids: Vec<Vec<u8>> = (0..5_000u64)
            .map(|i| (i % 600).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let ticks: Vec<u64> = (0..5_000u64).map(|i| i * 2).collect();
        let mut sequential = blocked_ttbf(32, 40, 1 << 14, 6);
        let mut batched = blocked_ttbf(32, 40, 1 << 14, 6);
        let want: Vec<Verdict> = slices
            .iter()
            .zip(&ticks)
            .map(|(id, &t)| sequential.observe_at(id, t))
            .collect();
        let got = batched.observe_batch_at(&slices, &ticks);
        assert_eq!(got, want);
    }

    #[test]
    fn occupancy_scans_count_table_passes_only() {
        let mut d = ttbf(16, 10, 1 << 12, 5);
        let ids: Vec<Vec<u8>> = (0..500u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let ticks: Vec<u64> = (0..500u64).collect();
        d.observe_batch_at(&slices, &ticks);
        assert_eq!(d.occupancy_scans(), 0, "hot path must not scan");
        let _ = d.active_entries();
        let _ = d.fill_ratios();
        assert_eq!(d.occupancy_scans(), 2);
        let _ = d.health();
        assert_eq!(d.occupancy_scans(), 3);
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut d = ttbf(8, 10, 1 << 10, 4);
        d.observe_at(b"k", 5);
        d.reset();
        assert_eq!(d.observe_at(b"k", 6), Verdict::Distinct);
    }
}
