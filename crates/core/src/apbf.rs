//! The APBF backend: age-partitioned blocked Bloom filters over sliding
//! windows (Shtul, Baquero & Almeida, "Age-Partitioned Bloom Filters").
//!
//! Where the TBF widens each cell to a timestamp, the APBF keeps plain
//! *bits* but partitions them into `k + l` logical slices ordered by
//! age. A distinct element sets one bit in each of the `k` youngest
//! slices; a query reports a duplicate iff some `k` *consecutive*
//! slices all hit — the run an insertion leaves behind as it ages.
//! Every `g = ⌈n/l⌉` arrivals the slices shift one age: the oldest
//! retires and a pre-wiped spare becomes the new slice 0, so the
//! structure holds `k + l + 1` physical slices and wipes exactly one of
//! them — incrementally, a few words per arrival — per generation.
//!
//! The guarantees mirror the paper's Theorem 2 shape: zero false
//! negatives over the last `n` arrivals (an insertion survives at least
//! `l` shifts and `l·g ≥ n`), one-sided false positives of roughly
//! `(l+1)·r^k` at per-slice fill `r`, and O(1) amortized maintenance.
//! Unlike the TBF, stale elements expire *structurally* — no timestamp
//! aliasing, so there is no range-extension parameter to tune.
//!
//! Both probe layouts of the suite are supported: `Scattered` gives
//! each slice its own word-aligned bit range; `Blocked` confines all
//! `k + l + 1` probes of an element to one 512-bit cache line split
//! into per-slice lanes, so an observation touches one line.

use crate::backend::{self, BatchBufs, CountCore, ProbeCore};
use crate::config::{ConfigError, ProbeLayout};
use crate::ops::OpCounters;
use cfd_bits::BitVec;
use cfd_hash::mix::splitmix64;
use cfd_hash::{BlockGeometry, DoubleHashFamily, HashFamily, Planner, ProbePlan};
use cfd_telemetry::DetectorStats;
use cfd_windows::{DuplicateDetector, Keys, Verdict, WindowSpec};
use std::borrow::Cow;
use std::cell::Cell;

/// Bits per cache-line block in the blocked layout.
const LINE_BITS: usize = 512;

/// Validated APBF shape. All fields are plain data; [`Apbf::new`]
/// validates them, and [`ApbfConfig::for_budget`] derives a
/// false-positive-optimal shape from a memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApbfConfig {
    /// Sliding-window length in arrivals (`N`).
    pub n: usize,
    /// Slices an element sets / consecutive hits a duplicate needs.
    pub k: usize,
    /// Extra age slices; an insertion stays queryable for `l` shifts.
    pub l: usize,
    /// Total memory budget in bits for all `k + l + 1` physical slices.
    pub total_bits: usize,
    /// Hash seed shared with every detector of the same family.
    pub seed: u64,
    /// Probe derivation layout.
    pub probe: ProbeLayout,
}

impl ApbfConfig {
    /// Arrivals per generation: slices shift one age every `g = ⌈n/l⌉`
    /// arrivals, which makes `l` shifts cover at least `n` arrivals.
    #[must_use]
    pub fn generation_len(&self) -> usize {
        self.n.div_ceil(self.l).max(1)
    }

    /// Physical slices: `k + l` logical ages plus the wiping spare.
    #[must_use]
    pub fn physical_slices(&self) -> usize {
        self.k + self.l + 1
    }

    /// Bits addressable per slice once laid out: whole words of an even
    /// split when scattered, one power-of-two lane of every 512-bit line
    /// when blocked (`0` when the budget funds no slice).
    #[must_use]
    pub fn slice_capacity(&self) -> usize {
        let s = self.physical_slices();
        match self.probe {
            ProbeLayout::Scattered => (self.total_bits / s) / 64 * 64,
            ProbeLayout::Blocked => lane_bits_for(s).map_or(0, |w| self.total_bits / LINE_BITS * w),
        }
    }

    /// Searches `(k, l)` for the lowest modeled false-positive rate at
    /// window `n` under `total_bits` of memory — the equal-memory
    /// counterpart of `TbfConfig::builder(n).entries(..)`.
    ///
    /// The model is the slice-uniform closed form also exposed by
    /// `cfd-analysis`: fill `r = 1 − exp(−k·g / m_s)` at `m_s` bits per
    /// slice, `fp = (l+1)·r^k`. The objective is clamped at a floor of
    /// one expected false positive per hundred windows (`0.01 / n`):
    /// below that, FP differences are un-observable in any realistic
    /// stream, so spending more probes on them only buys per-element
    /// cost. Ties — including everything at the floor — prefer fewer
    /// probes (smaller `k`, then smaller `l`). Deterministic for fixed
    /// inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::MemoryTooSmall`] if no searched shape
    /// fits the budget, or [`ConfigError::WindowTooSmall`] for `n < 2`.
    pub fn for_budget(
        n: usize,
        total_bits: usize,
        seed: u64,
        probe: ProbeLayout,
    ) -> Result<Self, ConfigError> {
        if n < 2 {
            return Err(ConfigError::WindowTooSmall(n));
        }
        let fp_floor = 0.01 / n as f64;
        let mut best: Option<(f64, usize, usize)> = None;
        for k in 2..=16usize {
            for l in 1..=48usize {
                let per_slice = Self {
                    n,
                    k,
                    l,
                    total_bits,
                    seed,
                    probe,
                }
                .slice_capacity();
                if per_slice == 0 {
                    continue;
                }
                let g = n.div_ceil(l).max(1);
                let r = 1.0 - (-((k * g) as f64) / per_slice as f64).exp();
                let fp = ((l + 1) as f64 * r.powi(k as i32)).max(fp_floor);
                let better = match best {
                    None => true,
                    Some((bf, bk, bl)) => fp < bf || (fp == bf && (k < bk || (k == bk && l < bl))),
                };
                if better {
                    best = Some((fp, k, l));
                }
            }
        }
        let (_, k, l) = best.ok_or(ConfigError::MemoryTooSmall {
            provided: total_bits,
            required: 4 * 64,
        })?;
        Ok(Self {
            n,
            k,
            l,
            total_bits,
            seed,
            probe,
        })
    }
}

/// Largest power-of-two lane width fitting `s` slices in one line, or
/// `None` when fewer than two bits per lane fit.
fn lane_bits_for(s: usize) -> Option<usize> {
    let raw = LINE_BITS / s;
    if raw < 2 {
        return None;
    }
    Some(1 << (usize::BITS - 1 - raw.leading_zeros()))
}

/// How the physical slices map onto the backing bit vector.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// Slice `p` owns the word-aligned range
    /// `[p · 64·slice_words, (p+1) · 64·slice_words)`.
    Scattered {
        /// 64-bit words per slice.
        slice_words: usize,
    },
    /// Every element maps to one 512-bit line; slice `p` owns the
    /// `lane_bits`-wide lane at offset `p · lane_bits` of each line.
    Blocked {
        /// Cache lines in the table.
        lines: usize,
        /// Power-of-two bits per slice lane.
        lane_bits: usize,
    },
}

/// Dynamic APBF state captured by a checkpoint.
pub(crate) struct ApbfState<'a> {
    pub base: usize,
    pub in_gen: usize,
    pub wipe: Option<(usize, usize)>,
    pub bit_words: Cow<'a, [u64]>,
}

/// Age-partitioned Bloom-filter duplicate detector over count-based
/// sliding windows.
///
/// ```rust
/// use cfd_core::{Apbf, ApbfConfig, ProbeLayout};
/// use cfd_windows::{DuplicateDetector, Verdict};
///
/// # fn main() -> Result<(), cfd_core::ConfigError> {
/// let cfg = ApbfConfig::for_budget(1 << 12, 1 << 20, 7, ProbeLayout::Scattered)?;
/// let mut d = Apbf::new(cfg)?;
/// assert_eq!(d.observe(b"198.51.100.4|beef|ad-3"), Verdict::Distinct);
/// assert_eq!(d.observe(b"198.51.100.4|beef|ad-3"), Verdict::Duplicate);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Apbf {
    cfg: ApbfConfig,
    bits: BitVec,
    layout: Layout,
    family: DoubleHashFamily,
    /// Physical index of logical slice 0.
    base: usize,
    /// Arrivals since the last shift; shifts at `g`.
    in_gen: usize,
    /// Arrivals per generation (`⌈n/l⌉`).
    g: usize,
    /// In-progress spare wipe: `(physical slice, unit cursor)` where a
    /// unit is a word (scattered) or a line (blocked).
    wipe: Option<(usize, usize)>,
    /// Wipe units per arrival: `⌈units_per_slice / g⌉`, so a retired
    /// slice is clean before it becomes logical slice 0 again.
    wipe_quota: usize,
    ops: OpCounters,
    bufs: BatchBufs,
    /// `O(m)` occupancy scans performed (snapshot-cadence only).
    scans: Cell<u64>,
}

impl Apbf {
    /// Creates a detector from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the shape is invalid: `n < 2`,
    /// `k` outside `1..=64`, `l = 0`, a budget too small for one word
    /// (scattered) or one line (blocked) per slice, or a blocked lane
    /// narrower than two bits.
    pub fn new(cfg: ApbfConfig) -> Result<Self, ConfigError> {
        if cfg.n < 2 {
            return Err(ConfigError::WindowTooSmall(cfg.n));
        }
        if !(1..=64).contains(&cfg.k) {
            return Err(ConfigError::BadHashCount(cfg.k));
        }
        if cfg.l == 0 {
            return Err(ConfigError::ZeroDimension("age slices l"));
        }
        let s = cfg.physical_slices();
        let g = cfg.generation_len();
        let (layout, len, units) = match cfg.probe {
            ProbeLayout::Scattered => {
                let slice_words = (cfg.total_bits / s) / 64;
                if slice_words == 0 {
                    return Err(ConfigError::MemoryTooSmall {
                        provided: cfg.total_bits,
                        required: s * 64,
                    });
                }
                (
                    Layout::Scattered { slice_words },
                    s * slice_words * 64,
                    slice_words,
                )
            }
            ProbeLayout::Blocked => {
                let lane_bits = lane_bits_for(s).ok_or(ConfigError::BlockedUnsupported {
                    slot_bits: 1,
                    m: cfg.total_bits,
                })?;
                let lines = cfg.total_bits / LINE_BITS;
                if lines == 0 {
                    return Err(ConfigError::MemoryTooSmall {
                        provided: cfg.total_bits,
                        required: LINE_BITS,
                    });
                }
                (
                    Layout::Blocked { lines, lane_bits },
                    lines * LINE_BITS,
                    lines,
                )
            }
        };
        Ok(Self {
            bits: BitVec::new(len),
            layout,
            family: DoubleHashFamily::new(cfg.seed),
            base: 0,
            in_gen: 0,
            g,
            wipe: None,
            wipe_quota: units.div_ceil(g),
            ops: OpCounters::new(),
            bufs: BatchBufs::default(),
            scans: Cell::new(0),
            cfg,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> ApbfConfig {
        self.cfg
    }

    /// Memory-operation counters.
    #[must_use]
    pub fn ops(&self) -> OpCounters {
        self.ops
    }

    /// The sliding window in elements (`N`).
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.cfg.n
    }

    /// Bits addressable per slice under the realized layout
    /// ([`ApbfConfig::slice_capacity`]).
    #[must_use]
    pub fn slice_capacity(&self) -> usize {
        self.cfg.slice_capacity()
    }

    /// Arrivals after which an insertion is guaranteed gone: `(l+1)·g`
    /// shifts retire its youngest slice.
    #[must_use]
    pub fn expiry_horizon(&self) -> usize {
        (self.cfg.l + 1) * self.g
    }

    /// Physical index of logical slice `j` (age order, 0 = youngest).
    #[inline]
    fn phys(&self, j: usize) -> usize {
        let s = self.cfg.physical_slices();
        let p = self.base + j;
        if p >= s {
            p - s
        } else {
            p
        }
    }

    /// Internal state snapshot for checkpointing.
    pub(crate) fn checkpoint_parts(&self) -> (ApbfConfig, ApbfState<'_>) {
        (
            self.cfg,
            ApbfState {
                base: self.base,
                in_gen: self.in_gen,
                wipe: self.wipe,
                bit_words: Cow::Borrowed(self.bits.as_words()),
            },
        )
    }

    /// Rebuilds a detector from checkpoint parts; `None` if inconsistent.
    pub(crate) fn from_checkpoint_parts(cfg: ApbfConfig, state: ApbfState<'_>) -> Option<Self> {
        let mut d = Self::new(cfg).ok()?;
        let s = cfg.physical_slices();
        let units = match d.layout {
            Layout::Scattered { slice_words } => slice_words,
            Layout::Blocked { lines, .. } => lines,
        };
        if state.base >= s || state.in_gen >= d.g {
            return None;
        }
        if let Some((slice, cursor)) = state.wipe {
            if slice >= s || cursor >= units {
                return None;
            }
        }
        let len = d.bits.len();
        d.bits = BitVec::from_words(state.bit_words.into_owned(), len)?;
        d.base = state.base;
        d.in_gen = state.in_gen;
        d.wipe = state.wipe;
        Some(d)
    }

    /// Advances the in-progress spare wipe by the per-arrival quota.
    fn clean_step(&mut self) {
        let Some((slice, cursor)) = self.wipe else {
            return;
        };
        match self.layout {
            Layout::Scattered { slice_words } => {
                let end = (cursor + self.wipe_quota).min(slice_words);
                let word_base = slice * slice_words;
                self.bits
                    .clear_word_range(word_base + cursor, word_base + end);
                self.ops.clean_writes += (end - cursor) as u64;
                self.wipe = (end < slice_words).then_some((slice, end));
            }
            Layout::Blocked { lines, lane_bits } => {
                let end = (cursor + self.wipe_quota).min(lines);
                for line in cursor..end {
                    self.bits
                        .clear_range(line * LINE_BITS + slice * lane_bits, lane_bits);
                }
                self.ops.clean_writes += (end - cursor) as u64;
                self.wipe = (end < lines).then_some((slice, end));
            }
        }
    }

    /// Completes any residual wipe immediately (rotation safety net;
    /// the quota schedule finishes within one generation on its own).
    fn finish_wipe(&mut self) {
        while self.wipe.is_some() {
            self.clean_step();
        }
    }

    /// Counts the arrival; every `g` arrivals the slices shift one age:
    /// the pre-wiped spare becomes logical 0 and the retired oldest
    /// slice becomes the spare, starting its incremental wipe.
    fn advance(&mut self) {
        self.in_gen += 1;
        if self.in_gen < self.g {
            return;
        }
        self.in_gen = 0;
        debug_assert!(
            self.wipe.is_none(),
            "spare wipe must finish within one generation"
        );
        self.finish_wipe();
        let s = self.cfg.physical_slices();
        // The spare (base − 1 mod s) becomes logical 0; the old oldest
        // logical slice (k + l − 1) becomes the new spare.
        self.base = (self.base + s - 1) % s;
        self.wipe = Some((self.phys(self.cfg.k + self.cfg.l), 0));
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

    /// The stateful half of an observation: wipe step, consecutive-run
    /// probe, insert when distinct, advance the generation clock.
    pub fn apply(&mut self, plan: ProbePlan) -> Verdict {
        backend::apply_plan(self, plan)
    }

    /// [`Apbf::apply`] with the plan's probe indices already expanded.
    /// `probes[p]` is the bit for *physical* slice `p`.
    fn apply_at(&mut self, probes: &[usize]) -> Verdict {
        self.ops.elements += 1;
        self.ops.hash_evals += 1;
        self.clean_step();

        // Query: a duplicate left a run of k consecutive set slices
        // somewhere in the k + l logical ages. Scan young → old,
        // bailing once the remaining ages cannot complete a run; the
        // early exit keeps the touched-line count (the scattered
        // layout's real cost) at its minimum and beats branch-free
        // mask collection even when all ages share one L1-hot line.
        // Physical slice indices advance by wrap-around increment
        // instead of `phys(j)`'s per-age modulo.
        let ages = self.cfg.k + self.cfg.l;
        let k = self.cfg.k;
        let s = self.cfg.physical_slices();
        let mut p = self.base;
        let mut run = 0usize;
        let mut dup = false;
        for j in 0..ages {
            if run + (ages - j) < k {
                break;
            }
            self.ops.probe_reads += 1;
            if self.bits.get(probes[p]) {
                run += 1;
                if run == k {
                    dup = true;
                    break;
                }
            } else {
                run = 0;
            }
            p += 1;
            if p == s {
                p = 0;
            }
        }

        let verdict = if dup {
            // Duplicates are not valid clicks and must not refresh the
            // stored element (Definition 1), so nothing is written.
            Verdict::Duplicate
        } else {
            let mut p = self.base;
            for _ in 0..k {
                self.bits.set(probes[p]);
                p += 1;
                if p == s {
                    p = 0;
                }
            }
            self.ops.insert_writes += k as u64;
            Verdict::Distinct
        };
        self.advance();
        verdict
    }

    /// Set-bit count per physical slice, in one pass over the table.
    fn slice_ones(&self) -> Vec<usize> {
        self.scans.set(self.scans.get() + 1);
        let s = self.cfg.physical_slices();
        let mut counts = vec![0usize; s];
        match self.layout {
            Layout::Scattered { slice_words } => {
                for i in self.bits.iter_ones() {
                    counts[i / (slice_words * 64)] += 1;
                }
            }
            Layout::Blocked { lane_bits, .. } => {
                for i in self.bits.iter_ones() {
                    counts[(i % LINE_BITS) / lane_bits] += 1;
                }
            }
        }
        counts
    }

    /// Fill ratio of each *logical* slice, youngest first (`O(m)`).
    #[must_use]
    pub fn logical_fills(&self) -> Vec<f64> {
        let counts = self.slice_ones();
        let cap = self.slice_capacity().max(1) as f64;
        (0..self.cfg.k + self.cfg.l)
            .map(|j| counts[self.phys(j)] as f64 / cap)
            .collect()
    }

    /// The slice-product false-positive estimate at the given logical
    /// fills: `Σ_{i=0..l} Π_{j=i..i+k−1} fill_j`.
    fn fp_from_fills(&self, fills: &[f64]) -> f64 {
        let k = self.cfg.k;
        (0..=self.cfg.l)
            .map(|i| fills[i..i + k].iter().product::<f64>())
            .sum()
    }
}

impl ProbeCore for Apbf {
    #[inline]
    fn table_len(&self) -> usize {
        self.bits.len()
    }

    #[inline]
    fn probe_width(&self) -> usize {
        self.cfg.physical_slices()
    }

    /// Both layouts derive probes themselves, so the standard blocked
    /// geometry is never used.
    #[inline]
    fn block_geo(&self) -> Option<&BlockGeometry> {
        None
    }

    /// `probes[p]` addresses *physical* slice `p`: per-slice double
    /// hashing in scattered mode; one multiply-shift-selected line with
    /// per-slice lanes in blocked mode (the line pick remixes the pair
    /// so it stays independent of the shard router's `h1` bits).
    fn fill_probes(&self, plan: ProbePlan, out: &mut [usize]) {
        let pair = plan.pair();
        let h1 = pair.h1;
        let stride = pair.odd_stride();
        match self.layout {
            Layout::Scattered { slice_words } => {
                // Strength-reduced double hashing: two divisions total,
                // then an add with conditional wrap per slice — a
                // per-probe 64-bit modulo costs more than the probe's
                // cache-line load at any cached scale.
                let m_s = (slice_words * 64) as u64;
                let step = stride % m_s;
                let mut off = h1 % m_s;
                let mut base = 0usize;
                for slot in out.iter_mut() {
                    *slot = base + off as usize;
                    base += slice_words * 64;
                    off += step;
                    if off >= m_s {
                        off -= m_s;
                    }
                }
            }
            Layout::Blocked { lines, lane_bits } => {
                let mixed = splitmix64(h1 ^ pair.h2.rotate_left(32));
                let line = ((u128::from(mixed) * lines as u128) >> 64) as usize;
                let mask = (lane_bits - 1) as u64;
                for (p, slot) in out.iter_mut().enumerate() {
                    let off = h1.wrapping_add((p as u64).wrapping_mul(stride)) & mask;
                    *slot = line * LINE_BITS + p * lane_bits + off as usize;
                }
            }
        }
    }

    #[inline]
    fn prefetch(&self, idx: usize) {
        self.bits.prefetch(idx);
    }

    fn bufs(&mut self) -> &mut BatchBufs {
        &mut self.bufs
    }

    /// Blocked probes all land in one 512-bit line.
    #[inline]
    fn probes_share_line(&self) -> bool {
        matches!(self.layout, Layout::Blocked { .. })
    }
}

impl CountCore for Apbf {
    #[inline]
    fn apply_probes(&mut self, _plan: ProbePlan, probes: &[usize]) -> Verdict {
        self.apply_at(probes)
    }
}

impl DuplicateDetector for Apbf {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let plan = self.plan(id);
        self.apply(plan)
    }

    fn observe_keys_into(
        &mut self,
        keys: Keys<'_>,
        _ticks: Option<&[u64]>,
        out: &mut Vec<Verdict>,
    ) {
        backend::observe_keys_into(self, keys, out);
    }

    fn window(&self) -> WindowSpec {
        WindowSpec::Sliding { n: self.cfg.n }
    }

    fn memory_bits(&self) -> usize {
        self.bits.memory_bits()
    }

    fn reset(&mut self) {
        *self = Self::new(self.cfg).expect("configuration was already validated");
    }

    fn name(&self) -> &'static str {
        "apbf"
    }
}

impl DetectorStats for Apbf {
    fn stats_name(&self) -> &'static str {
        "apbf"
    }

    /// One entry per logical slice, youngest first (`O(m)`, one scan).
    fn fill_ratios(&self) -> Vec<f64> {
        self.logical_fills()
    }

    /// Progress of the spare-slice wipe (`1.0` when no wipe pending).
    fn sweep_position(&self) -> f64 {
        let units = match self.layout {
            Layout::Scattered { slice_words } => slice_words,
            Layout::Blocked { lines, .. } => lines,
        };
        match self.wipe {
            Some((_, cursor)) => cursor as f64 / units.max(1) as f64,
            None => 1.0,
        }
    }

    fn cleaned_entries(&self) -> u64 {
        self.ops.clean_writes
    }

    fn observed_elements(&self) -> u64 {
        self.ops.elements
    }

    /// Distinct elements perform exactly `k` insert writes.
    fn observed_duplicates(&self) -> u64 {
        self.ops.elements - self.ops.insert_writes / self.cfg.k as u64
    }

    /// `Σ_{i=0..l} Π fills[i..i+k]` at the live per-slice occupancy —
    /// the run-based analogue of the classical Bloom FP formula (`O(m)`).
    fn estimated_fp(&self) -> f64 {
        self.fp_from_fills(&self.logical_fills())
    }

    fn occupancy_scans(&self) -> u64 {
        self.scans.get()
    }

    /// Single-scan override: `fill_ratios` and `estimated_fp` share one
    /// `O(m)` pass.
    fn health(&self) -> cfd_telemetry::DetectorHealth {
        let fills = self.logical_fills();
        cfd_telemetry::DetectorHealth {
            detector: self.stats_name(),
            fill_ratios: fills.clone(),
            cleaning_backlog: 0.0,
            sweep_position: self.sweep_position(),
            cleaned_entries: self.cleaned_entries(),
            observed_elements: self.observed_elements(),
            observed_duplicates: self.observed_duplicates(),
            estimated_fp: self.fp_from_fills(&fills),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_windows::ExactSlidingDedup;

    fn apbf(n: usize, total_bits: usize) -> Apbf {
        Apbf::new(ApbfConfig::for_budget(n, total_bits, 77, ProbeLayout::Scattered).unwrap())
            .unwrap()
    }

    fn blocked_apbf(n: usize, total_bits: usize) -> Apbf {
        Apbf::new(ApbfConfig::for_budget(n, total_bits, 77, ProbeLayout::Blocked).unwrap()).unwrap()
    }

    #[test]
    fn immediate_duplicate_detected() {
        let mut d = apbf(16, 1 << 16);
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
        assert_eq!(d.observe(b"x"), Verdict::Duplicate);
    }

    #[test]
    fn for_budget_picks_a_valid_low_fp_shape() {
        let cfg = ApbfConfig::for_budget(1 << 12, 1 << 22, 1, ProbeLayout::Scattered).unwrap();
        assert!(cfg.k >= 2 && cfg.l >= 1);
        assert!(cfg.l * cfg.generation_len() >= cfg.n);
        // Determinism: same inputs, same shape.
        let again = ApbfConfig::for_budget(1 << 12, 1 << 22, 1, ProbeLayout::Scattered).unwrap();
        assert_eq!(cfg, again);
    }

    #[test]
    fn zero_false_negatives_vs_exact_oracle() {
        let n = 64;
        let mut d = apbf(n, 1 << 16);
        let mut oracle = ExactSlidingDedup::new(n);
        for i in 0..20_000u64 {
            let key = (i % 89).to_le_bytes();
            let got = d.observe(&key);
            let want = oracle.observe(&key);
            if want == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
    }

    #[test]
    fn blocked_mode_has_zero_false_negatives() {
        let n = 64;
        let mut d = blocked_apbf(n, 1 << 16);
        let mut oracle = ExactSlidingDedup::new(n);
        for i in 0..20_000u64 {
            let key = (i % 89).to_le_bytes();
            let got = d.observe(&key);
            let want = oracle.observe(&key);
            if want == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
    }

    #[test]
    fn stale_elements_expire_structurally() {
        let mut d = apbf(32, 1 << 16);
        d.observe(b"stale");
        // Push the element past its guaranteed-expired horizon.
        for i in 0..d.expiry_horizon() as u64 {
            d.observe(&i.to_le_bytes());
        }
        assert_eq!(d.observe(b"stale"), Verdict::Distinct);
    }

    #[test]
    fn duplicates_do_not_refresh_validity() {
        // Continuously re-observing a key never re-inserts it, so it
        // expires on schedule from the ORIGINAL insert despite the spam.
        let mut d = apbf(32, 1 << 16);
        assert_eq!(d.observe(b"a"), Verdict::Distinct);
        let mut went_distinct = false;
        for _ in 0..2 * d.expiry_horizon() {
            if d.observe(b"a") == Verdict::Distinct {
                went_distinct = true;
                break;
            }
        }
        assert!(went_distinct, "duplicate spam must not extend the element");
    }

    #[test]
    fn batch_matches_sequential() {
        let keys: Vec<Vec<u8>> = (0..6000u64)
            .map(|i| (i % 700).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut sequential = apbf(256, 1 << 18);
        let mut batched = apbf(256, 1 << 18);
        let want: Vec<Verdict> = slices.iter().map(|id| sequential.observe(id)).collect();
        let mut got = Vec::new();
        for chunk in slices.chunks(513) {
            got.extend(batched.observe_batch(chunk));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn blocked_batch_matches_sequential() {
        let keys: Vec<Vec<u8>> = (0..6000u64)
            .map(|i| (i % 700).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut sequential = blocked_apbf(256, 1 << 18);
        let mut batched = blocked_apbf(256, 1 << 18);
        let want: Vec<Verdict> = slices.iter().map(|id| sequential.observe(id)).collect();
        let mut got = Vec::new();
        for chunk in slices.chunks(513) {
            got.extend(batched.observe_batch(chunk));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn false_positive_rate_is_low_with_adequate_memory() {
        // ~64 bits per window element: the model predicts fp far below
        // the TBF at equal memory; assert a loose ceiling.
        let n = 1 << 12;
        let mut d = apbf(n, n * 64);
        let mut fps = 0u64;
        let total = 20 * n as u64;
        for i in 0..total {
            if d.observe(&i.to_le_bytes()) == Verdict::Duplicate {
                fps += 1;
            }
        }
        let rate = fps as f64 / total as f64;
        assert!(rate < 0.01, "fp rate {rate} too high");
    }

    #[test]
    fn occupancy_stays_bounded_by_wipes() {
        // A long distinct stream cannot fill the table: retired slices
        // are wiped every generation, so steady-state fill matches the
        // model, not the stream length.
        let n = 512;
        let mut d = apbf(n, n * 64);
        for i in 0..50_000u64 {
            d.observe(&i.to_le_bytes());
        }
        let fills = d.logical_fills();
        let g = d.config().generation_len();
        let cap = d.slice_capacity() as f64;
        // Oldest logical slice holds at most (l+1)·g·k insertions' bits.
        let model_max = 1.0 - (-((d.config().k * (d.config().l + 1) * g) as f64) / cap).exp();
        for (j, f) in fills.iter().enumerate() {
            assert!(
                *f <= model_max * 1.5 + 0.02,
                "slice {j} fill {f} above bound {model_max}"
            );
        }
        assert!(d.ops().clean_writes > 0, "wipes must actually run");
    }

    #[test]
    fn checkpoint_parts_roundtrip() {
        let mut d = apbf(64, 1 << 16);
        for i in 0..1000u64 {
            d.observe(&(i % 100).to_le_bytes());
        }
        let (cfg, state) = d.checkpoint_parts();
        let mut restored = Apbf::from_checkpoint_parts(cfg, state).expect("valid parts");
        // Identical verdicts on a follow-up stream.
        for i in 0..500u64 {
            let key = (i % 70).to_le_bytes();
            assert_eq!(d.observe(&key), restored.observe(&key), "element {i}");
        }
    }

    #[test]
    fn checkpoint_parts_reject_inconsistent_state() {
        let d = apbf(64, 1 << 16);
        let (cfg, mut state) = d.checkpoint_parts();
        state.base = cfg.physical_slices();
        assert!(Apbf::from_checkpoint_parts(cfg, state).is_none());
        let (cfg, mut state) = d.checkpoint_parts();
        state.bit_words.to_mut().pop();
        assert!(Apbf::from_checkpoint_parts(cfg, state).is_none());
    }

    #[test]
    fn occupancy_scans_counts_table_passes_only() {
        let mut d = apbf(256, 1 << 16);
        let keys: Vec<Vec<u8>> = (0..2000u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        d.observe_batch(&slices);
        assert_eq!(d.occupancy_scans(), 0, "hot path must not scan");
        let _ = d.fill_ratios();
        assert_eq!(d.occupancy_scans(), 1);
        let _ = d.health();
        assert_eq!(d.occupancy_scans(), 2, "health pays exactly one scan");
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut d = apbf(16, 1 << 16);
        d.observe(b"k");
        d.reset();
        assert_eq!(d.observe(b"k"), Verdict::Distinct);
    }
}
