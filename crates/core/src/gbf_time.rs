//! GBF over *time-based* jumping windows (§3.1 extension).
//!
//! "Instead of dividing the entire jumping window equally by counting
//! elements, the time-based jumping window is divided into `Q`
//! sub-windows with the same time expansion. Then each sub-window is
//! equally divided into `R` time units. In Step 1, the cleaning procedure
//! executes once in each time unit, and scans `M/((Q+1)R)` entries."
//!
//! The per-unit cleaning daemon is replayed lazily (see
//! [`crate::tbf_time`] for the same technique): when an observation
//! advances the clock by several units, each skipped unit's wipe chunk —
//! and any sub-window rotations — are executed in order before the
//! element is processed. A quiet gap of a full `(Q+1)`-sub-window cycle
//! or more clears the matrix outright.
//!
//! # Hot path
//!
//! Mirrors the count-based [`crate::Gbf`]: pure hashing
//! ([`TimeGbf::plan`] / [`TimeGbf::planner`]) split from stateful replay.
//! The batch entry point hashes the whole batch in one multi-lane pass,
//! expand probe groups into one flat buffer, and replay with
//! one-line-ahead prefetch; the unit clock (and with it all cleaning and
//! rotation work) is consulted only when an element's tick crosses into
//! a new unit. [`ProbeLayout::Blocked`] confines each element's `k`
//! groups to one cache line of the interleaved matrix, with the same
//! `k_eff = min(k, slots/2)` saturation cap as the count-based detectors.
//!
//! # Out-of-order ticks
//!
//! Same policy as [`crate::tbf_time`]: ticks behind the high-water unit
//! are clamped to the current unit and counted in
//! [`OpCounters::clock_regressions`]. The late click still probes every
//! active sub-window, so late duplicates are flagged; a late distinct
//! click is simply remembered as if it arrived now.

use crate::backend::{self, BatchBufs, ProbeCore, TimedCore};
use crate::config::{ConfigError, ProbeLayout};
use crate::ops::OpCounters;
use cfd_bits::InterleavedBitMatrix;
use cfd_hash::{BlockGeometry, DoubleHashFamily, HashFamily, Planner, ProbePlan};
use cfd_telemetry::DetectorStats;
use cfd_windows::time::UnitClock;
use cfd_windows::{DuplicateDetector, Keys, Verdict, WindowSpec};
use std::borrow::Cow;
use std::cell::Cell;

/// Dynamic [`TimeGbf`] state captured by a checkpoint.
pub(crate) struct TimeGbfState<'a> {
    /// Absolute high-water unit (`None` before the first observation).
    pub cur_unit: Option<u64>,
    /// Current insertion lane.
    pub slot: usize,
    /// Completed sub-windows since the stream start.
    pub completed: u64,
    /// Lane being wiped, if a wipe is in flight.
    pub spare: Option<usize>,
    /// Next group index the incremental wipe will visit.
    pub clean_next: usize,
    /// Active-lane bitmask words.
    pub mask_words: Cow<'a, [u64]>,
    /// Raw words of the interleaved matrix.
    pub matrix_words: Cow<'a, [u64]>,
}

/// Configuration of a [`TimeGbf`] detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeGbfConfig {
    /// Number of sub-windows (`Q`).
    pub q: usize,
    /// Time units per sub-window (`R`).
    pub sub_units: u64,
    /// Ticks per time unit.
    pub unit_ticks: u64,
    /// Bits per sub-window Bloom filter (`m`).
    pub m: usize,
    /// Hash functions per element (`k`).
    pub k: usize,
    /// Hash seed.
    pub seed: u64,
    /// Probe-index derivation scheme.
    pub probe: ProbeLayout,
}

impl TimeGbfConfig {
    /// Creates a validated configuration with scattered probing.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on zero dimensions, bad `k`, or window
    /// parameters whose products overflow `u64`.
    pub fn new(
        q: usize,
        sub_units: u64,
        unit_ticks: u64,
        m: usize,
        k: usize,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let cfg = Self {
            q,
            sub_units,
            unit_ticks,
            m,
            k,
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
    /// requested but the group stride / matrix shape cannot form blocks.
    pub fn with_probe(mut self, probe: ProbeLayout) -> Result<Self, ConfigError> {
        self.probe = probe;
        if probe == ProbeLayout::Blocked && self.block_geometry().is_none() {
            return Err(ConfigError::BlockedUnsupported {
                slot_bits: self.group_bits(),
                m: self.m,
            });
        }
        Ok(self)
    }

    /// Bits per group in the interleaved matrix: `Q + 1` lanes padded to
    /// whole words (the matrix stride, which is what blocked probing
    /// must respect).
    #[must_use]
    pub fn group_bits(&self) -> usize {
        (self.q + 1).div_ceil(64) * 64
    }

    /// The cache-line block geometry, when `probe` is blocked.
    #[must_use]
    pub fn block_geometry(&self) -> Option<BlockGeometry> {
        match self.probe {
            ProbeLayout::Scattered => None,
            ProbeLayout::Blocked => BlockGeometry::for_line(self.m, self.group_bits()),
        }
    }

    /// Window span in ticks (`Q × R × unit_ticks`). Saturating:
    /// validation rejects configurations where the true product
    /// overflows.
    #[must_use]
    pub fn window_ticks(&self) -> u64 {
        (self.q as u64)
            .saturating_mul(self.sub_units)
            .saturating_mul(self.unit_ticks)
    }

    /// Units covered by a full `(Q+1)`-lane rotation cycle; a quiet gap
    /// of at least this many units leaves no live bit. Saturating, like
    /// [`TimeGbfConfig::window_ticks`].
    #[must_use]
    pub fn full_cycle_units(&self) -> u64 {
        (self.q as u64 + 1).saturating_mul(self.sub_units)
    }

    /// Groups wiped per time unit (`⌈m / R⌉`): the expired filter is
    /// fully clean one sub-window after it expires, before its lane is
    /// reused.
    #[must_use]
    pub fn clean_chunk(&self) -> usize {
        self.m
            .div_ceil(usize::try_from(self.sub_units.max(1)).unwrap_or(usize::MAX))
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.q == 0 {
            return Err(ConfigError::ZeroDimension("sub-window count q"));
        }
        if self.sub_units == 0 || self.unit_ticks == 0 {
            return Err(ConfigError::ZeroDimension("time granularity"));
        }
        if self.m == 0 {
            return Err(ConfigError::ZeroDimension("filter size m"));
        }
        if !(1..=64).contains(&self.k) {
            return Err(ConfigError::BadHashCount(self.k));
        }
        if (self.q as u64)
            .checked_mul(self.sub_units)
            .and_then(|u| u.checked_mul(self.unit_ticks))
            .is_none()
        {
            return Err(ConfigError::ArithmeticOverflow {
                what: "window span Q * R * unit_ticks",
            });
        }
        if (self.q as u64)
            .checked_add(1)
            .and_then(|l| l.checked_mul(self.sub_units))
            .is_none()
        {
            return Err(ConfigError::ArithmeticOverflow {
                what: "rotation cycle (Q + 1) * R",
            });
        }
        Ok(())
    }
}

/// Group-Bloom-filter duplicate detector over time-based jumping windows.
///
/// ```rust
/// use cfd_core::gbf_time::{TimeGbf, TimeGbfConfig};
/// use cfd_windows::{DuplicateDetector, Verdict};
///
/// # fn main() -> Result<(), cfd_core::ConfigError> {
/// // 6 sub-windows of 10 units of 1000 ticks: a one-minute window.
/// let cfg = TimeGbfConfig::new(6, 10, 1000, 1 << 16, 6, 0)?;
/// let mut d = TimeGbf::new(cfg)?;
/// assert_eq!(d.observe_at(b"ip|ad", 500), Verdict::Distinct);
/// assert_eq!(d.observe_at(b"ip|ad", 30_000), Verdict::Duplicate);
/// assert_eq!(d.observe_at(b"ip|ad", 200_000), Verdict::Distinct);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TimeGbf {
    cfg: TimeGbfConfig,
    matrix: InterleavedBitMatrix,
    units: UnitClock,
    family: DoubleHashFamily,
    /// Absolute unit of the last observation.
    cur_unit: Option<u64>,
    /// Current insertion lane.
    slot: usize,
    /// Completed sub-windows since the stream start.
    completed: u64,
    active_mask: Vec<u64>,
    /// Lanes that took an insert since they were last wiped clean. A
    /// clean lane's wipe writes nothing, so sparse traffic does not pay
    /// `O(m)` for every sub-window boundary a gap crosses. Derived from
    /// inserts and not checkpointed: a restored detector marks every
    /// lane dirty.
    dirty: Vec<u64>,
    spare: Option<usize>,
    clean_next: usize,
    clean_chunk: usize,
    ops: OpCounters,
    bufs: BatchBufs,
    acc: Vec<u64>,
    /// Blocked-probe geometry; `None` in scattered mode.
    geo: Option<BlockGeometry>,
    /// Probes actually issued per element (`k` scattered, capped in
    /// blocked mode).
    k_eff: usize,
    /// `O(m)` occupancy scans performed (snapshot-cadence only).
    scans: Cell<u64>,
}

impl TimeGbf {
    /// Creates a detector from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn new(cfg: TimeGbfConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let geo = match cfg.probe {
            ProbeLayout::Scattered => None,
            ProbeLayout::Blocked => Some(cfg.block_geometry().ok_or(
                ConfigError::BlockedUnsupported {
                    slot_bits: cfg.group_bits(),
                    m: cfg.m,
                },
            )?),
        };
        let k_eff = backend::effective_k(cfg.k, geo.as_ref());
        let matrix = InterleavedBitMatrix::new(cfg.m, cfg.q + 1);
        let mut active_mask = vec![0u64; matrix.lane_words()];
        active_mask[0] |= 1;
        Ok(Self {
            units: UnitClock::new(cfg.unit_ticks),
            family: DoubleHashFamily::new(cfg.seed),
            cur_unit: None,
            slot: 0,
            completed: 0,
            active_mask,
            dirty: vec![0; matrix.lane_words()],
            spare: None,
            clean_next: 0,
            clean_chunk: cfg.clean_chunk(),
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

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> TimeGbfConfig {
        self.cfg
    }

    /// Memory-operation counters.
    #[must_use]
    pub fn ops(&self) -> OpCounters {
        self.ops
    }

    /// Probes issued per element: `k` in scattered mode, `min(k,
    /// slots/2)` in blocked mode.
    #[must_use]
    pub fn effective_hash_count(&self) -> usize {
        self.k_eff
    }

    /// Internal state snapshot for checkpointing.
    pub(crate) fn checkpoint_parts(&self) -> (TimeGbfConfig, TimeGbfState<'_>) {
        (
            self.cfg,
            TimeGbfState {
                cur_unit: self.cur_unit,
                slot: self.slot,
                completed: self.completed,
                spare: self.spare,
                clean_next: self.clean_next,
                mask_words: Cow::Borrowed(&self.active_mask),
                matrix_words: Cow::Borrowed(self.matrix.as_words()),
            },
        )
    }

    /// Rebuilds a detector from checkpoint parts; `None` if inconsistent.
    pub(crate) fn from_checkpoint_parts(
        cfg: TimeGbfConfig,
        state: TimeGbfState<'_>,
    ) -> Option<Self> {
        let lanes = cfg.q.checked_add(1)?;
        // Size-check against the payload BEFORE allocating.
        let lane_words = lanes.div_ceil(64);
        let expected_matrix_words = cfg.m.checked_mul(lane_words)?;
        if state.matrix_words.len() != expected_matrix_words
            || state.mask_words.len() != lane_words
            || state.slot >= lanes
            || state.spare.is_some_and(|s| s >= lanes)
        {
            return None;
        }
        // Wipe-cursor invariant: a cursor only exists while a lane is
        // being wiped; it resets to 0 the moment the wipe retires.
        match state.spare {
            Some(_) if state.clean_next >= cfg.m => return None,
            None if state.clean_next != 0 => return None,
            _ => {}
        }
        let mut d = Self::new(cfg).ok()?;
        d.cur_unit = state.cur_unit;
        d.slot = state.slot;
        d.completed = state.completed;
        d.spare = state.spare;
        d.clean_next = state.clean_next;
        d.active_mask = state.mask_words.into_owned();
        d.matrix = InterleavedBitMatrix::from_words(state.matrix_words.into_owned(), cfg.m, lanes)?;
        for lane in 0..lanes {
            Self::mask_set(&mut d.dirty, lane);
        }
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

    #[inline]
    fn mask_has(mask: &[u64], lane: usize) -> bool {
        mask[lane / 64] >> (lane % 64) & 1 == 1
    }

    /// Clears `count` groups of the spare lane from the wipe cursor —
    /// unless the lane took no insert since it was last clean — and
    /// retires the wipe once the cursor reaches `m`.
    fn wipe_spare(&mut self, spare: usize, count: usize) {
        if count > 0 && Self::mask_has(&self.dirty, spare) {
            let touched = self.matrix.clear_lane_range(spare, self.clean_next, count);
            self.ops.clean_writes += touched as u64;
        }
        self.clean_next += count;
        if self.clean_next == self.cfg.m {
            Self::mask_clear(&mut self.dirty, spare);
            self.spare = None;
            self.clean_next = 0;
        }
    }

    /// Wipes one unit's chunk of the spare lane.
    fn wipe_chunk(&mut self) {
        if let Some(spare) = self.spare {
            let count = self.clean_chunk.min(self.cfg.m - self.clean_next);
            self.wipe_spare(spare, count);
        }
    }

    /// Finishes the in-progress wipe immediately.
    fn wipe_finish(&mut self) {
        if let Some(spare) = self.spare {
            self.wipe_spare(spare, self.cfg.m - self.clean_next);
        }
    }

    /// One sub-window boundary: retire the oldest lane, move insertion to
    /// the next lane. The incoming lane is guaranteed fully clean:
    /// either its wipe finished during the preceding sub-window's units,
    /// or [`TimeGbf::wipe_finish`] completes the remainder here before
    /// the lane index advances onto it.
    fn rotate(&mut self) {
        self.wipe_finish();
        let slots = self.cfg.q + 1;
        self.slot = (self.slot + 1) % slots;
        self.completed = self.completed.saturating_add(1);
        Self::mask_set(&mut self.active_mask, self.slot);
        if self.completed >= self.cfg.q as u64 {
            let expired = (self.slot + 1) % slots;
            Self::mask_clear(&mut self.active_mask, expired);
            self.spare = Some(expired);
            self.clean_next = 0;
        }
    }

    /// Advances the lazy per-unit daemon to `unit`.
    ///
    /// Out-of-order policy: a unit behind the high-water mark is clamped
    /// to it (time never moves backwards) and counted in
    /// [`OpCounters::clock_regressions`].
    fn advance_to(&mut self, unit: u64) {
        let last = match self.cur_unit {
            None => {
                self.cur_unit = Some(unit);
                // Align the rotation phase with the first observation's
                // sub-window so boundaries land on absolute multiples.
                return;
            }
            Some(last) => last,
        };
        if unit <= last {
            if unit < last {
                self.ops.clock_regressions += 1;
            }
            // `unit == last` is the common same-unit case: nothing to
            // replay, and skipping it keeps `last + 1` below from
            // overflowing when the clock sits at `u64::MAX`.
            return;
        }
        let crossed = unit - last;
        if crossed >= self.cfg.full_cycle_units() {
            // Everything expired during the quiet gap; a matrix whose
            // lanes are all clean is already zero.
            if self.dirty.iter().any(|&w| w != 0) {
                self.matrix.clear_all();
                self.ops.clean_writes += (self.cfg.m * self.matrix.lane_words()) as u64;
                self.dirty.fill(0);
            }
            self.spare = None;
            self.clean_next = 0;
            // Keep the rotation phase consistent with absolute units.
            let rotations = unit / self.cfg.sub_units - last / self.cfg.sub_units;
            self.slot =
                (self.slot + (rotations % (self.cfg.q as u64 + 1)) as usize) % (self.cfg.q + 1);
            self.completed = self.completed.saturating_add(rotations);
            self.active_mask.iter_mut().for_each(|w| *w = 0);
            Self::mask_set(&mut self.active_mask, self.slot);
        } else {
            for u in (last + 1)..=unit {
                if u % self.cfg.sub_units == 0 {
                    self.rotate();
                } else {
                    self.wipe_chunk();
                }
            }
        }
        self.cur_unit = Some(unit);
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
        backend::apply_plan_at(self, plan, tick)
    }

    /// The stateful half of a tickless observation; `observe(id)` ≡
    /// `apply(plan(id))`. Judged at the current clock: the high-water
    /// unit, or unit 0 before the first observation (never a clock
    /// regression).
    pub fn apply(&mut self, plan: ProbePlan) -> Verdict {
        backend::apply_plan_now(self, plan)
    }

    /// [`TimeGbf::apply_at`] with the probe groups already expanded and
    /// the clock already advanced — the innermost stateful step, shared
    /// by the per-click and batch paths: probe all active sub-windows
    /// with one AND-chain, insert into the current lane when distinct.
    fn probe_insert(&mut self, probes: &[usize]) -> Verdict {
        self.ops.elements += 1;
        self.ops.hash_evals += 1;
        self.acc.copy_from_slice(&self.active_mask);
        for &g in probes {
            self.matrix.and_group_into(g, &mut self.acc);
        }
        self.ops.probe_reads += (probes.len() * self.matrix.lane_words()) as u64;

        if self.acc.iter().any(|&w| w != 0) {
            Verdict::Duplicate
        } else {
            let cur = self.slot;
            for &g in probes {
                self.matrix.set(g, cur);
            }
            Self::mask_set(&mut self.dirty, cur);
            self.ops.insert_writes += probes.len() as u64;
            Verdict::Distinct
        }
    }
}

impl ProbeCore for TimeGbf {
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

    fn bufs(&mut self) -> &mut BatchBufs {
        &mut self.bufs
    }
}

impl TimedCore for TimeGbf {
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
        Self::advance_to(self, unit);
        self.cur_unit.unwrap_or(unit)
    }

    /// The GBF matrix stores lane bits, not stamps; the replay's cached
    /// stamp is unused.
    #[inline]
    fn stamp_of(&self, _unit: u64) -> u64 {
        0
    }

    #[inline]
    fn note_regression(&mut self) {
        self.ops.clock_regressions += 1;
    }

    #[inline]
    fn apply_probes_at(&mut self, _plan: ProbePlan, probes: &[usize], _stamp_now: u64) -> Verdict {
        self.probe_insert(probes)
    }
}

impl DuplicateDetector for TimeGbf {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let plan = self.plan(id);
        self.apply(plan)
    }

    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        let plan = self.plan(id);
        self.apply_at(plan, tick)
    }

    fn observe_keys_into(&mut self, keys: Keys<'_>, ticks: Option<&[u64]>, out: &mut Vec<Verdict>) {
        backend::observe_keys_at_into(self, keys, ticks, out);
    }

    fn window(&self) -> WindowSpec {
        WindowSpec::TimeJumping {
            ticks: self.cfg.window_ticks(),
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
        "time-gbf"
    }
}

impl DetectorStats for TimeGbf {
    fn stats_name(&self) -> &'static str {
        "time-gbf"
    }

    /// Fill ratio of each *active* lane. `O(m)` per lane — snapshot
    /// cadence only.
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

    /// Normalized position of the incremental wipe through the spare lane.
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

    fn occupancy_scans(&self) -> u64 {
        self.scans.get()
    }

    /// A fresh key is flagged iff some active lane has all `k_eff`
    /// probed bits set: `1 − Π over active lanes (1 − fill^k_eff)` at
    /// the live fill.
    fn estimated_fp(&self) -> f64 {
        let miss_all: f64 = self
            .fill_ratios()
            .iter()
            .map(|fill| 1.0 - fill.powi(self.k_eff as i32))
            .product();
        1.0 - miss_all
    }

    /// Single-scan override: derive `estimated_fp` from the same lane
    /// pass as `fill_ratios` so health sampling costs one scan per lane.
    fn health(&self) -> cfd_telemetry::DetectorHealth {
        let fills = self.fill_ratios();
        let miss_all: f64 = fills
            .iter()
            .map(|fill| 1.0 - fill.powi(self.k_eff as i32))
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
    use cfd_windows::ExactTimeJumpingDedup;

    /// The one batch method at `ticks`, into a fresh vector.
    fn batch_at(d: &mut impl DuplicateDetector, ids: &[&[u8]], ticks: &[u64]) -> Vec<Verdict> {
        let mut out = Vec::new();
        d.observe_keys_into(Keys::Refs(ids), Some(ticks), &mut out);
        out
    }

    fn tgbf(q: usize, sub_units: u64, unit_ticks: u64, m: usize, k: usize) -> TimeGbf {
        TimeGbf::new(TimeGbfConfig::new(q, sub_units, unit_ticks, m, k, 13).unwrap()).unwrap()
    }

    fn blocked_tgbf(q: usize, sub_units: u64, unit_ticks: u64, m: usize, k: usize) -> TimeGbf {
        let cfg = TimeGbfConfig::new(q, sub_units, unit_ticks, m, k, 13)
            .unwrap()
            .with_probe(ProbeLayout::Blocked)
            .unwrap();
        TimeGbf::new(cfg).unwrap()
    }

    /// The satellite-3 invariant: outside the active window, no lane may
    /// hold a stale bit — retired lanes must be fully wiped before
    /// reuse, and the in-flight spare must be clean up to its cursor.
    fn assert_no_stale_bits(d: &TimeGbf, ctx: &str) {
        for lane in 0..=d.cfg.q {
            let active = d.active_mask[lane / 64] >> (lane % 64) & 1 == 1;
            if active {
                continue;
            }
            if Some(lane) == d.spare {
                for g in 0..d.clean_next {
                    assert!(
                        !d.matrix.get(g, lane),
                        "{ctx}: stale bit in wiped prefix of spare lane {lane} group {g}"
                    );
                }
            } else {
                assert_eq!(
                    d.matrix.count_ones_in_lane(lane),
                    0,
                    "{ctx}: stale bits in inactive lane {lane}"
                );
            }
        }
    }

    #[test]
    fn duplicate_within_window() {
        let mut d = tgbf(4, 10, 100, 1 << 14, 6);
        assert_eq!(d.observe_at(b"x", 0), Verdict::Distinct);
        assert_eq!(d.observe_at(b"x", 900), Verdict::Duplicate);
        // Still inside the 4 x 10-unit window (units 0..40).
        assert_eq!(d.observe_at(b"x", 3_500), Verdict::Duplicate);
    }

    #[test]
    fn expires_after_window_passes() {
        let mut d = tgbf(4, 10, 100, 1 << 14, 6);
        d.observe_at(b"x", 0); // unit 0, sub-window 0
                               // Advance past 4 full sub-windows (unit 40+): x's filter expired.
        assert_eq!(d.observe_at(b"x", 4_100), Verdict::Distinct);
    }

    #[test]
    fn long_gap_clears_all_state() {
        let mut d = tgbf(3, 4, 10, 1 << 12, 5);
        d.observe_at(b"a", 0);
        d.observe_at(b"b", 15);
        // Gap far beyond (q+1) sub-windows.
        assert_eq!(d.observe_at(b"a", 100_000), Verdict::Distinct);
        assert_eq!(d.observe_at(b"b", 100_010), Verdict::Distinct);
        assert_no_stale_bits(&d, "after quiet gap");
    }

    /// Only lanes that took an insert are wiped: the boundaries of
    /// sub-windows that saw only duplicates write nothing. A restored
    /// detector cannot know which lanes are clean, wipes each once, and
    /// judges the same.
    #[test]
    fn clean_lanes_are_not_wiped() {
        let m = 1 << 12;
        // 3 sub-windows of 4 units of 10 ticks: a sub-window is 40 ticks.
        let mut d = tgbf(3, 4, 10, m, 5);
        assert_eq!(d.observe_at(b"k", 0), Verdict::Distinct); // lane 0
        let mut restored = {
            let (cfg, state) = d.checkpoint_parts();
            TimeGbf::from_checkpoint_parts(cfg, state).expect("consistent parts")
        };
        // Sub-windows 1 and 2 see only a duplicate; at tick 120 lane 0
        // expires, so `k` lands in lane 3 and is then a duplicate until
        // the lanes of sub-windows 1 and 2 have been retired too.
        let stream = [
            (45, true),
            (85, true),
            (125, false),
            (165, true),
            (235, true),
        ];
        for (tick, dup) in stream {
            let want = if dup {
                Verdict::Duplicate
            } else {
                Verdict::Distinct
            };
            assert_eq!(d.observe_at(b"k", tick), want, "tick {tick}");
            assert_eq!(
                restored.observe_at(b"k", tick),
                want,
                "restored, tick {tick}"
            );
            assert_no_stale_bits(&d, &format!("tick {tick}"));
        }
        assert_eq!(d.ops().clean_writes, m as u64, "only lane 0 was dirty");
        // Lanes 0 and 1 whole, and three of lane 2's four wipe chunks.
        assert_eq!(restored.ops().clean_writes, (2 * m + 3 * m / 4) as u64);
    }

    #[test]
    fn rotation_keeps_recent_subwindows_active() {
        let mut d = tgbf(3, 5, 10, 1 << 13, 5);
        d.observe_at(b"k", 0); // sub-window 0 (units 0..5)
                               // Move to sub-window 2 (units 10..15): window = subs 0,1,2.
        assert_eq!(d.observe_at(b"k", 120), Verdict::Duplicate);
        // Sub-window 3 (units 15..20): window = subs 1,2,3; k from sub 0 gone.
        assert_eq!(d.observe_at(b"k", 160), Verdict::Distinct);
    }

    #[test]
    fn stale_bits_do_not_resurface_across_lane_reuse() {
        let mut d = tgbf(2, 3, 1, 4_096, 5);
        let mut tick = 0u64;
        for round in 0..100u64 {
            // One observation per unit; the key reappears every 9 units,
            // well past the 6-unit window.
            assert_eq!(
                d.observe_at(b"cycler", tick),
                Verdict::Distinct,
                "round {round}"
            );
            for j in 0..8 {
                tick += 1;
                d.observe_at(&(round * 100 + j).to_le_bytes(), tick);
            }
            tick += 1;
        }
    }

    #[test]
    fn arbitrary_jumps_leave_no_stale_bits() {
        // m = 1000 is NOT a multiple of sub_units = 7 (chunk = 143,
        // 143 * 6 = 858 < 1000: the rotation-unit wipe_finish must cover
        // the 142-group remainder). Jump patterns cover: intra-unit,
        // single-unit, multi-unit within a sub-window, jumps spanning
        // 1..several rotations, and jumps just below the quiet-gap
        // threshold.
        let jumps: [u64; 12] = [0, 1, 3, 6, 7, 8, 13, 14, 20, 27, 55, 27];
        let mut d = tgbf(7, 7, 1, 1_000, 4);
        let mut tick = 0u64;
        let mut i = 0u64;
        for round in 0..200u64 {
            tick += jumps[(round % 12) as usize];
            for _ in 0..5 {
                i += 1;
                d.observe_at(&i.to_le_bytes(), tick);
            }
            assert_no_stale_bits(&d, &format!("round {round} tick {tick}"));
        }
    }

    #[test]
    fn jumps_beyond_one_rotation_wipe_every_retired_lane() {
        // Jump exactly q units (> R) repeatedly: several rotations per
        // advance, so wipe_finish (not the per-unit chunks) must do the
        // clearing.
        let mut d = tgbf(5, 3, 1, 777, 4);
        for step in 0..100u64 {
            let tick = step * 5; // 5 units per observation = R + 2
            d.observe_at(&step.to_le_bytes(), tick);
            assert_no_stale_bits(&d, &format!("step {step}"));
        }
    }

    #[test]
    fn dense_stream_no_false_negatives_within_coverage() {
        // Jumping-window guarantee: anything valid within the last q-1
        // FULL sub-windows plus the current one is flagged.
        let mut d = tgbf(4, 10, 1, 1 << 14, 6);
        for i in 0..5_000u64 {
            let key = (i % 37).to_le_bytes();
            let v = d.observe_at(&key, i);
            // Re-observe immediately: must always be duplicate.
            assert_eq!(d.observe_at(&key, i), Verdict::Duplicate, "i={i} v={v:?}");
        }
    }

    #[test]
    fn zero_false_negatives_vs_exact_timed_oracle() {
        let mut d = tgbf(4, 8, 10, 1 << 14, 6);
        let mut oracle = ExactTimeJumpingDedup::new(4, 8, 10);
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
    fn out_of_order_ticks_clamped_and_counted() {
        let mut d = tgbf(4, 10, 100, 1 << 12, 5);
        d.observe_at(b"a", 50_000);
        assert_eq!(d.ops().clock_regressions, 0);
        assert_eq!(d.observe_at(b"a", 10), Verdict::Duplicate);
        assert_eq!(d.ops().clock_regressions, 1);
        d.observe_at(b"fresh", 51_000);
        assert_eq!(d.ops().clock_regressions, 1);
    }

    #[test]
    fn tickless_observe_judges_at_the_current_clock() {
        let mut d = tgbf(4, 10, 100, 1 << 12, 5);
        // Before the first click the clock is tick 0.
        assert_eq!(d.observe(b"early"), Verdict::Distinct);
        assert_eq!(d.observe_at(b"early", 99), Verdict::Duplicate);
        assert_eq!(d.observe_at(b"x", 50_000), Verdict::Distinct);
        let regressions = d.ops().clock_regressions;
        assert_eq!(d.observe(b"x"), Verdict::Duplicate);
        // Judged at tick 50_000, where the tick-0 click has expired.
        assert_eq!(d.observe(b"early"), Verdict::Distinct);
        assert_eq!(d.observe(b"fresh"), Verdict::Distinct);
        assert_eq!(d.observe_at(b"fresh", 50_099), Verdict::Duplicate);
        assert_eq!(d.ops().clock_regressions, regressions);
    }

    #[test]
    fn config_validation() {
        assert!(TimeGbfConfig::new(0, 1, 1, 8, 3, 0).is_err());
        assert!(TimeGbfConfig::new(2, 0, 1, 8, 3, 0).is_err());
        assert!(TimeGbfConfig::new(2, 1, 1, 0, 3, 0).is_err());
        assert!(TimeGbfConfig::new(2, 1, 1, 8, 0, 0).is_err());
        let cfg = TimeGbfConfig::new(6, 10, 1000, 1 << 10, 4, 0).unwrap();
        assert_eq!(cfg.window_ticks(), 60_000);
        assert_eq!(cfg.clean_chunk(), (1 << 10) / 10 + 1);
    }

    #[test]
    fn config_rejects_overflowing_windows() {
        // Q * R * unit_ticks overflows.
        let err = TimeGbfConfig::new(1 << 22, 1 << 22, 1 << 22, 8, 3, 0).unwrap_err();
        assert!(matches!(err, ConfigError::ArithmeticOverflow { .. }));
        // (Q + 1) * R overflows even with unit_ticks = 1... requires a
        // huge Q times huge R whose triple product with 1 also
        // overflows, so the span check fires; either way it must err.
        assert!(TimeGbfConfig::new(usize::MAX, u64::MAX, 1, 8, 3, 0).is_err());
    }

    #[test]
    fn ticks_near_u64_max_are_classified_correctly() {
        let mut d = tgbf(4, 4, 1, 1 << 12, 5);
        let base = u64::MAX - 40;
        assert_eq!(d.observe_at(b"edge", base), Verdict::Distinct);
        assert_eq!(d.observe_at(b"edge", base + 10), Verdict::Duplicate);
        // Past q full sub-windows: expired.
        assert_eq!(d.observe_at(b"edge", base + 24), Verdict::Distinct);
        assert_eq!(d.observe_at(b"last", u64::MAX), Verdict::Distinct);
        assert_eq!(d.observe_at(b"last", u64::MAX), Verdict::Duplicate);
    }

    #[test]
    fn batch_matches_sequential() {
        let ids: Vec<Vec<u8>> = (0..6_000u64)
            .map(|i| (i % 700).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let ticks: Vec<u64> = (0..6_000u64).map(|i| i * 3 / 2).collect();
        let mut sequential = tgbf(6, 32, 40, 1 << 14, 6);
        let mut batched = tgbf(6, 32, 40, 1 << 14, 6);
        let want: Vec<Verdict> = slices
            .iter()
            .zip(&ticks)
            .map(|(id, &t)| sequential.observe_at(id, t))
            .collect();
        let mut got = Vec::new();
        for (chunk, tchunk) in slices.chunks(513).zip(ticks.chunks(513)) {
            got.extend(batch_at(&mut batched, chunk, tchunk));
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
        let mut by_slices = tgbf(5, 16, 16, 1 << 14, 6);
        let mut by_flat = tgbf(5, 16, 16, 1 << 14, 6);
        let want = batch_at(&mut by_slices, &slices, &ticks);
        let mut got = Vec::new();
        by_flat.observe_keys_into(Keys::flat(&flat, 8), Some(&ticks), &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn batch_counts_regressions_like_sequential() {
        let mut seq = tgbf(4, 10, 10, 1 << 12, 4);
        let mut bat = tgbf(4, 10, 10, 1 << 12, 4);
        let ids: Vec<Vec<u8>> = (0..6u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let ticks = [500u64, 40, 41, 700, 10, 900];
        for (id, &t) in slices.iter().zip(&ticks) {
            seq.observe_at(id, t);
        }
        batch_at(&mut bat, &slices, &ticks);
        assert_eq!(seq.ops().clock_regressions, 3);
        assert_eq!(bat.ops(), seq.ops());
    }

    #[test]
    fn blocked_mode_matches_oracle_and_caps_k() {
        let mut d = blocked_tgbf(4, 8, 10, 1 << 14, 10);
        // 64-bit group stride -> 8 slots per line -> k capped at 4.
        assert_eq!(d.effective_hash_count(), 4);
        let mut oracle = ExactTimeJumpingDedup::new(4, 8, 10);
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
        let mut sequential = blocked_tgbf(6, 32, 40, 1 << 14, 6);
        let mut batched = blocked_tgbf(6, 32, 40, 1 << 14, 6);
        let want: Vec<Verdict> = slices
            .iter()
            .zip(&ticks)
            .map(|(id, &t)| sequential.observe_at(id, t))
            .collect();
        let got = batch_at(&mut batched, &slices, &ticks);
        assert_eq!(got, want);
    }

    #[test]
    fn occupancy_scans_count_lane_passes_only() {
        let mut d = tgbf(4, 8, 10, 1 << 12, 5);
        let ids: Vec<Vec<u8>> = (0..500u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let ticks: Vec<u64> = (0..500u64).collect();
        batch_at(&mut d, &slices, &ticks);
        assert_eq!(d.occupancy_scans(), 0, "hot path must not scan");
        let lanes = d.fill_ratios().len() as u64;
        assert_eq!(d.occupancy_scans(), lanes);
        let _ = d.health();
        assert_eq!(d.occupancy_scans(), 2 * lanes);
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut d = tgbf(3, 5, 10, 1 << 10, 4);
        d.observe_at(b"k", 0);
        d.reset();
        assert_eq!(d.observe_at(b"k", 0), Verdict::Distinct);
    }
}
