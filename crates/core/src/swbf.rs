//! The SWBF backend: a dictionary-based sliding-window Bloom filter
//! (after Naor & Yogev, "Sliding Bloom Filters").
//!
//! Where Bloom-style backends smear each element across `k` shared
//! bits, the SWBF stores each element in **one cell** of a packed
//! dictionary: a cell holds an `f`-bit fingerprint next to a wraparound
//! timestamp (the TBF's timestamp discipline, all-ones = empty). An
//! element hashes to `b` candidate cells; it is a duplicate iff some
//! candidate holds its fingerprint with an in-window timestamp. A
//! distinct element claims the first empty-or-expired candidate —
//! active cells are **never overwritten**, so an element inserted into
//! the dictionary stays queryable for its full window: zero false
//! negatives by construction, with false positives only from
//! fingerprint collisions (`≈ b·load·2⁻ᶠ`).
//!
//! When all `b` candidates are active (a crowd of recent elements), the
//! element overflows into a small **side filter** — a plain timestamp
//! mini-TBF probed with independent hashes. The side path preserves
//! zero false negatives (timestamp overwrites only refresh activity)
//! and adds a second FP term gated by the overflow probability
//! (`load^b · side_load^k`). An absolute arrival counter lets queries
//! skip the side filter entirely once every side insertion has aged
//! out of the window — the common case for well-sized tables.
//!
//! Both tables expire entries with the TBF's incremental sweep (range
//! `2N−1`, quota `⌈m/N⌉` cells per arrival), so maintenance is O(1)
//! amortized and timestamps never alias.

use crate::backend::{self, BatchBufs, CountCore, ProbeCore};
use crate::config::{ConfigError, ProbeLayout};
use crate::ops::OpCounters;
use cfd_bits::words::bits_for_value;
use cfd_bits::PackedIntVec;
use cfd_hash::mix::splitmix64;
use cfd_hash::{BlockGeometry, DoubleHashFamily, HashFamily, HashPair, Planner, ProbePlan};
use cfd_telemetry::DetectorStats;
use cfd_windows::{DuplicateDetector, Verdict, WindowSpec, WrapCounter};
use std::borrow::Cow;
use std::cell::Cell;

/// Candidate cells probed per element in the main dictionary.
const B_CANDIDATES: usize = 4;

/// Probes per element in the side mini-TBF.
pub const K_SIDE: usize = 4;

/// Fraction of the budget (as a divisor) given to the side filter.
const SIDE_DIVISOR: usize = 32;

/// Validated SWBF shape. [`SwbfConfig::for_budget`] derives the
/// fingerprint width and cell counts from a memory budget; [`Swbf::new`]
/// validates the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwbfConfig {
    /// Sliding-window length in arrivals (`N`).
    pub n: usize,
    /// Total memory budget in bits (main dictionary + side filter).
    pub total_bits: usize,
    /// Fingerprint bits per cell ([`SwbfConfig::for_budget`] searches
    /// this for the lowest modeled false-positive rate).
    pub fingerprint_bits: u32,
    /// Hash seed shared with every detector of the same family.
    pub seed: u64,
    /// Probe derivation layout for the main dictionary (the side
    /// filter is always scattered).
    pub probe: ProbeLayout,
}

impl SwbfConfig {
    /// Derives an SWBF shape from a memory budget: `1/32` of the budget
    /// funds the side filter; the fingerprint width is searched over
    /// `8..=24` bits for the lowest modeled false-positive rate.
    ///
    /// Wider fingerprints shrink the collision term `b·load·2⁻ᶠ` but
    /// leave fewer cells, raising the load — and with it the overflow
    /// rate `load^b` that feeds (and can saturate) the side filter,
    /// whose own term `side_load^k` is *not* gated by the main load at
    /// query time. The search balances the two; it is deterministic for
    /// fixed inputs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::WindowTooSmall`] for `n < 2` and
    /// [`ConfigError::MemoryTooSmall`] when no searched width can fund
    /// the minimum candidate and side-probe counts.
    pub fn for_budget(
        n: usize,
        total_bits: usize,
        seed: u64,
        probe: ProbeLayout,
    ) -> Result<Self, ConfigError> {
        if n < 2 {
            return Err(ConfigError::WindowTooSmall(n));
        }
        let probe_cfg = |f: u32| Self {
            n,
            total_bits,
            fingerprint_bits: f,
            seed,
            probe,
        };
        let mut best: Option<(f64, u32)> = None;
        for f in 8..=24u32 {
            let cfg = probe_cfg(f);
            if cfg.validate().is_err() {
                continue;
            }
            let load = (n as f64 / cfg.cells() as f64).min(1.0);
            let collision = B_CANDIDATES as f64 * load * 0.5f64.powi(f as i32);
            // Expected active side stamps: overflow rate × window × probes.
            let stamps = K_SIDE as f64 * load.powi(B_CANDIDATES as i32) * n as f64;
            let side_load = 1.0 - (-stamps / cfg.side_cells() as f64).exp();
            let fp = collision + side_load.powi(K_SIDE as i32);
            if best.is_none_or(|(bf, _)| fp < bf) {
                best = Some((fp, f));
            }
        }
        let (_, f) = best.ok_or(ConfigError::MemoryTooSmall {
            provided: total_bits,
            required: (B_CANDIDATES * (8 + bits_for_value(2 * n as u64 - 1) as usize)
                + K_SIDE * bits_for_value(2 * n as u64 - 1) as usize)
                * 2,
        })?;
        Ok(probe_cfg(f))
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::WindowTooSmall(self.n));
        }
        if !(1..=40).contains(&self.fingerprint_bits) || self.cell_bits() > 64 {
            return Err(ConfigError::BadHashCount(self.fingerprint_bits as usize));
        }
        if self.cells() < B_CANDIDATES || self.side_cells() < K_SIDE {
            return Err(ConfigError::MemoryTooSmall {
                provided: self.total_bits,
                required: (B_CANDIDATES * self.cell_bits() as usize
                    + K_SIDE * self.ts_bits() as usize)
                    * SIDE_DIVISOR,
            });
        }
        Ok(())
    }

    /// Wraparound timestamp range `2N − 1` (the TBF's default `C = N−1`
    /// slack, so the proven sweep schedule transfers unchanged).
    #[must_use]
    pub fn range(&self) -> u64 {
        2 * self.n as u64 - 1
    }

    /// Bits per timestamp; the all-ones value is the empty sentinel and
    /// exceeds every valid timestamp.
    #[must_use]
    pub fn ts_bits(&self) -> u32 {
        bits_for_value(self.range())
    }

    /// Bits given to the side filter.
    #[must_use]
    pub fn side_bits(&self) -> usize {
        self.total_bits / SIDE_DIVISOR
    }

    /// Bits per main-dictionary cell (`fingerprint + timestamp`).
    #[must_use]
    pub fn cell_bits(&self) -> u32 {
        self.fingerprint_bits + self.ts_bits()
    }

    /// Main-dictionary cell count.
    #[must_use]
    pub fn cells(&self) -> usize {
        (self.total_bits - self.side_bits()) / self.cell_bits() as usize
    }

    /// Side-filter entry count.
    #[must_use]
    pub fn side_cells(&self) -> usize {
        self.side_bits() / self.ts_bits() as usize
    }

    /// Blocked-probe geometry of the main dictionary; `None` when
    /// scattered or when no cell fits a line.
    #[must_use]
    pub fn block_geometry(&self) -> Option<BlockGeometry> {
        match self.probe {
            ProbeLayout::Scattered => None,
            ProbeLayout::Blocked => {
                BlockGeometry::for_line(self.cells(), self.cell_bits() as usize)
            }
        }
    }

    /// Candidate cells probed per element (the blocked layout may cap
    /// them at half a line's slots).
    #[must_use]
    pub fn effective_candidates(&self) -> usize {
        backend::effective_k(B_CANDIDATES, self.block_geometry().as_ref())
    }
}

/// Dynamic SWBF state captured by a checkpoint.
pub(crate) struct SwbfState<'a> {
    pub now: u64,
    pub arrivals: u64,
    pub last_side_insert: Option<u64>,
    pub clean_next: usize,
    pub side_clean_next: usize,
    pub cell_words: Cow<'a, [u64]>,
    pub side_words: Cow<'a, [u64]>,
}

/// Dictionary-based sliding-window Bloom-filter duplicate detector over
/// count-based windows.
///
/// ```rust
/// use cfd_core::{Swbf, SwbfConfig, ProbeLayout};
/// use cfd_windows::{DuplicateDetector, Verdict};
///
/// # fn main() -> Result<(), cfd_core::ConfigError> {
/// let cfg = SwbfConfig::for_budget(1 << 12, 1 << 20, 7, ProbeLayout::Scattered)?;
/// let mut d = Swbf::new(cfg)?;
/// assert_eq!(d.observe(b"198.51.100.4|beef|ad-3"), Verdict::Distinct);
/// assert_eq!(d.observe(b"198.51.100.4|beef|ad-3"), Verdict::Duplicate);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Swbf {
    cfg: SwbfConfig,
    /// Main dictionary: `fingerprint << ts_bits | timestamp` per cell.
    cells: PackedIntVec,
    /// Side mini-TBF: timestamps only.
    side: PackedIntVec,
    wrap: WrapCounter,
    family: DoubleHashFamily,
    ts_bits: u32,
    ts_mask: u64,
    empty_cell: u64,
    side_empty: u64,
    /// Incremental sweep cursors and per-arrival quotas.
    clean_next: usize,
    quota: usize,
    side_clean_next: usize,
    side_quota: usize,
    /// Absolute arrivals processed (side-skip bookkeeping).
    arrivals: u64,
    /// Arrival index of the most recent side insertion, if any.
    last_side_insert: Option<u64>,
    /// Duplicates observed (insert width varies, so this is tracked
    /// directly rather than derived from op counters).
    dups: u64,
    /// Elements that overflowed into the side filter (diagnostics).
    side_distinct: u64,
    ops: OpCounters,
    bufs: BatchBufs,
    /// Blocked-probe geometry for the main dictionary; `None` scattered.
    geo: Option<BlockGeometry>,
    /// Candidates actually probed: `B_CANDIDATES`, saturation-capped in
    /// blocked mode.
    b_eff: usize,
    /// `O(m)` occupancy scans performed (snapshot-cadence only).
    scans: Cell<u64>,
}

impl Swbf {
    /// Creates a detector from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the shape is invalid — window or
    /// budget too small, or blocked probing unsupported for the cell
    /// width.
    pub fn new(cfg: SwbfConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let m = cfg.cells();
        let cell_bits = cfg.cell_bits();
        let geo = cfg.block_geometry();
        if cfg.probe == ProbeLayout::Blocked && geo.is_none() {
            return Err(ConfigError::BlockedUnsupported {
                slot_bits: cell_bits as usize,
                m,
            });
        }
        let b_eff = cfg.effective_candidates();
        let cells = PackedIntVec::new_all_ones(m, cell_bits);
        let side = PackedIntVec::new_all_ones(cfg.side_cells(), cfg.ts_bits());
        let ts_bits = cfg.ts_bits();
        Ok(Self {
            empty_cell: cells.max_value(),
            side_empty: side.max_value(),
            wrap: WrapCounter::new(cfg.range()),
            family: DoubleHashFamily::new(cfg.seed),
            ts_bits,
            ts_mask: (1u64 << ts_bits) - 1,
            clean_next: 0,
            quota: m.div_ceil(cfg.n),
            side_clean_next: 0,
            side_quota: cfg.side_cells().div_ceil(cfg.n),
            arrivals: 0,
            last_side_insert: None,
            dups: 0,
            side_distinct: 0,
            ops: OpCounters::new(),
            bufs: BatchBufs::default(),
            geo,
            b_eff,
            scans: Cell::new(0),
            cells,
            side,
            cfg,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> SwbfConfig {
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

    /// Candidate cells actually probed per element.
    #[must_use]
    pub fn effective_candidates(&self) -> usize {
        self.b_eff
    }

    /// Elements routed to the side filter so far.
    #[must_use]
    pub fn side_inserts(&self) -> u64 {
        self.side_distinct
    }

    /// `true` once any element has overflowed into the side filter.
    #[must_use]
    pub fn side_inserted(&self) -> bool {
        self.side_distinct > 0
    }

    #[inline]
    fn is_active(&self, t: u64) -> bool {
        self.wrap.is_active(t, self.cfg.n as u64 - 1)
    }

    /// `f`-bit fingerprint from a remix of the pair, independent of the
    /// candidate-index derivation (and of the blocked line pick, which
    /// mixes the halves in the opposite order).
    #[inline]
    fn fingerprint(&self, pair: HashPair) -> u64 {
        splitmix64(pair.h2 ^ pair.h1.rotate_left(32)) & ((1u64 << self.cfg.fingerprint_bits) - 1)
    }

    /// Side-filter probe indices from an independent remix of the pair.
    #[inline]
    fn side_probes(&self, pair: HashPair) -> [usize; K_SIDE] {
        let h1 = splitmix64(pair.h1 ^ 0x9E37_79B9_7F4A_7C15);
        let stride = splitmix64(pair.h2 ^ 0xD1B5_4A32_D192_ED03) | 1;
        let m = self.side.len() as u64;
        let mut out = [0usize; K_SIDE];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = (h1.wrapping_add((i as u64).wrapping_mul(stride)) % m) as usize;
        }
        out
    }

    /// `true` while some side insertion may still be inside the window,
    /// so side queries cannot be skipped.
    #[inline]
    fn side_live(&self) -> bool {
        self.last_side_insert
            .is_some_and(|t| self.arrivals - t < self.cfg.n as u64)
    }

    /// Internal state snapshot for checkpointing.
    pub(crate) fn checkpoint_parts(&self) -> (SwbfConfig, SwbfState<'_>) {
        (
            self.cfg,
            SwbfState {
                now: self.wrap.now(),
                arrivals: self.arrivals,
                last_side_insert: self.last_side_insert,
                clean_next: self.clean_next,
                side_clean_next: self.side_clean_next,
                cell_words: Cow::Borrowed(self.cells.as_words()),
                side_words: Cow::Borrowed(self.side.as_words()),
            },
        )
    }

    /// Rebuilds a detector from checkpoint parts; `None` if inconsistent.
    pub(crate) fn from_checkpoint_parts(cfg: SwbfConfig, state: SwbfState<'_>) -> Option<Self> {
        let mut d = Self::new(cfg).ok()?;
        if state.clean_next >= cfg.cells() || state.side_clean_next >= cfg.side_cells() {
            return None;
        }
        if let Some(t) = state.last_side_insert {
            if t > state.arrivals {
                return None;
            }
        }
        d.wrap = WrapCounter::from_parts(cfg.range(), state.now)?;
        d.cells =
            PackedIntVec::from_words(state.cell_words.into_owned(), cfg.cells(), cfg.cell_bits())?;
        d.side = PackedIntVec::from_words(
            state.side_words.into_owned(),
            cfg.side_cells(),
            cfg.ts_bits(),
        )?;
        d.arrivals = state.arrivals;
        d.last_side_insert = state.last_side_insert;
        d.clean_next = state.clean_next;
        d.side_clean_next = state.side_clean_next;
        Some(d)
    }

    /// Incremental expiry sweep over both tables: `⌈m/N⌉` cells per
    /// arrival each, so expired timestamps are erased before their
    /// wraparound values can alias fresh ones (the TBF schedule).
    ///
    /// Both sweeps run through [`PackedIntVec::expire_timestamps`] — the
    /// wide compare-and-store the TBF sweep uses — split at each table's
    /// boundary so every segment is a contiguous cell range.
    fn clean_step(&mut self) {
        let now = self.wrap.now();
        let range = self.cfg.range();
        let hi = self.cfg.n as u64 - 1;
        let m = self.cells.len();
        let mut remaining = self.quota;
        while remaining > 0 {
            let seg = remaining.min(m - self.clean_next);
            let cleaned = self.cells.expire_timestamps(
                self.clean_next,
                seg,
                self.ts_mask,
                self.empty_cell,
                now,
                range,
                1,
                hi,
            );
            self.ops.clean_reads += seg as u64;
            self.ops.clean_writes += cleaned as u64;
            self.clean_next += seg;
            if self.clean_next == m {
                self.clean_next = 0;
            }
            remaining -= seg;
        }
        let ms = self.side.len();
        let mut remaining = self.side_quota;
        while remaining > 0 {
            let seg = remaining.min(ms - self.side_clean_next);
            let cleaned = self.side.expire_timestamps(
                self.side_clean_next,
                seg,
                self.side_empty,
                self.side_empty,
                now,
                range,
                1,
                hi,
            );
            self.ops.clean_reads += seg as u64;
            self.ops.clean_writes += cleaned as u64;
            self.side_clean_next += seg;
            if self.side_clean_next == ms {
                self.side_clean_next = 0;
            }
            remaining -= seg;
        }
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

    /// The stateful half of an observation: sweep, candidate probe,
    /// insert-or-overflow when distinct, advance the clock.
    pub fn apply(&mut self, plan: ProbePlan) -> Verdict {
        let mut bufs = std::mem::take(&mut self.bufs);
        let verdict = backend::apply_plan(self, &mut bufs, plan);
        self.bufs = bufs;
        verdict
    }

    /// Replays a batch of precomputed plans with lookahead prefetch.
    /// Verdicts go into `out` (cleared first, capacity reused).
    pub fn apply_batch_into(&mut self, plans: &[ProbePlan], out: &mut Vec<Verdict>) {
        let mut bufs = std::mem::take(&mut self.bufs);
        backend::apply_batch_into(self, &mut bufs, plans, out);
        self.bufs = bufs;
    }

    /// Live load of the main dictionary: active cells / cells (`O(m)`).
    #[must_use]
    pub fn active_load(&self) -> f64 {
        self.scans.set(self.scans.get() + 1);
        let active = self
            .cells
            .iter()
            .filter(|&c| {
                let ts = c & self.ts_mask;
                ts != self.ts_mask && self.is_active(ts)
            })
            .count();
        active as f64 / self.cells.len().max(1) as f64
    }

    /// Live load of the side filter (`O(m_side)`; no scan counted —
    /// the side table is a fixed small fraction of the budget).
    fn side_load(&self) -> f64 {
        let active = self
            .side
            .iter()
            .filter(|&t| t != self.side_empty && self.is_active(t))
            .count();
        active as f64 / self.side.len().max(1) as f64
    }

    /// The model FP at the given loads:
    /// `b·load·2⁻ᶠ + load^b · side_load^k`.
    fn fp_from_loads(&self, load: f64, side_load: f64) -> f64 {
        let b = self.b_eff as f64;
        let collision = b * load * 0.5f64.powi(self.cfg.fingerprint_bits as i32);
        let overflow = load.powi(self.b_eff as i32) * side_load.powi(K_SIDE as i32);
        collision + overflow
    }
}

impl ProbeCore for Swbf {
    #[inline]
    fn table_len(&self) -> usize {
        self.cells.len()
    }

    #[inline]
    fn probe_width(&self) -> usize {
        self.b_eff
    }

    #[inline]
    fn block_geo(&self) -> Option<&BlockGeometry> {
        self.geo.as_ref()
    }

    #[inline]
    fn prefetch(&self, idx: usize) {
        self.cells.prefetch(idx);
    }
}

impl CountCore for Swbf {
    fn apply_probes(&mut self, plan: ProbePlan, probes: &[usize]) -> Verdict {
        self.ops.elements += 1;
        self.ops.hash_evals += 1;
        self.clean_step();

        let pair = plan.pair();
        let fp = self.fingerprint(pair);
        let now = self.wrap.now();

        // Query the candidates; remember the first claimable cell.
        let mut dup = false;
        let mut open: Option<usize> = None;
        if cfd_bits::simd::wide_enabled() && (4..=31).contains(&probes.len()) {
            // Wide path: decode every candidate, then one activity
            // classify plus one shifted-compare give the duplicate and
            // claimable lanes as bitmasks. Bit-identical to the loop
            // below, including early-exit `probe_reads` accounting (a
            // duplicate at lane `d` counts `d + 1` reads).
            let mut vals = [0u64; 32];
            for (slot, &i) in probes.iter().enumerate() {
                vals[slot] = self.cells.get(i);
            }
            let b = probes.len();
            let masks = cfd_bits::simd::classify_stamps(
                &vals[..b],
                self.ts_mask,
                now,
                self.cfg.range(),
                1,
                self.cfg.n as u64 - 1,
                0,
            );
            let fpm = cfd_bits::simd::eq_shifted_mask(&vals[..b], self.ts_bits, fp) & masks.active;
            let claimable = !masks.active & ((1u32 << b) - 1);
            if fpm != 0 {
                dup = true;
                let scanned = fpm.trailing_zeros();
                self.ops.probe_reads += u64::from(scanned) + 1;
                if claimable & ((1u32 << scanned) - 1) != 0 {
                    open = Some(probes[(claimable.trailing_zeros()) as usize]);
                }
            } else {
                self.ops.probe_reads += b as u64;
                if claimable != 0 {
                    open = Some(probes[claimable.trailing_zeros() as usize]);
                }
            }
        } else {
            for &i in probes {
                let cell = self.cells.get(i);
                self.ops.probe_reads += 1;
                let ts = cell & self.ts_mask;
                if ts == self.ts_mask || !self.is_active(ts) {
                    if open.is_none() {
                        open = Some(i);
                    }
                } else if cell >> self.ts_bits == fp {
                    dup = true;
                    break;
                }
            }
        }

        // The side filter only matters while one of its insertions can
        // still be in-window; otherwise skip the four extra reads.
        let mut side_probes = None;
        if !dup && self.side_live() {
            let sp = self.side_probes(pair);
            self.ops.probe_reads += K_SIDE as u64;
            dup = sp.iter().all(|&i| {
                let t = self.side.get(i);
                t != self.side_empty && self.is_active(t)
            });
            side_probes = Some(sp);
        }

        let verdict = if dup {
            // Duplicates are not valid clicks and must not refresh the
            // stored element (Definition 1).
            self.dups += 1;
            Verdict::Duplicate
        } else if let Some(i) = open {
            self.cells.set(i, fp << self.ts_bits | now);
            self.ops.insert_writes += 1;
            Verdict::Distinct
        } else {
            // All candidates are occupied by active elements: overflow
            // into the side filter (timestamp refreshes there only ever
            // extend activity, so zero false negatives are preserved).
            let sp = side_probes.unwrap_or_else(|| self.side_probes(pair));
            for &i in &sp {
                self.side.set(i, now);
            }
            self.ops.insert_writes += K_SIDE as u64;
            self.side_distinct += 1;
            self.last_side_insert = Some(self.arrivals);
            Verdict::Distinct
        };
        self.wrap.advance();
        self.arrivals += 1;
        verdict
    }
}

impl DuplicateDetector for Swbf {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let plan = self.plan(id);
        self.apply(plan)
    }

    fn observe_batch_into(&mut self, ids: &[&[u8]], out: &mut Vec<Verdict>) {
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
        WindowSpec::Sliding { n: self.cfg.n }
    }

    fn memory_bits(&self) -> usize {
        self.cells.memory_bits() + self.side.memory_bits()
    }

    fn reset(&mut self) {
        *self = Self::new(self.cfg).expect("configuration was already validated");
    }

    fn name(&self) -> &'static str {
        "swbf"
    }
}

impl DetectorStats for Swbf {
    fn stats_name(&self) -> &'static str {
        "swbf"
    }

    /// Two entries: main-dictionary active load, side-filter active
    /// load (`O(m)`, one scan).
    fn fill_ratios(&self) -> Vec<f64> {
        vec![self.active_load(), self.side_load()]
    }

    /// Normalized position of the main sweep through the dictionary.
    fn sweep_position(&self) -> f64 {
        self.clean_next as f64 / self.cells.len().max(1) as f64
    }

    fn cleaned_entries(&self) -> u64 {
        self.ops.clean_writes
    }

    fn observed_elements(&self) -> u64 {
        self.ops.elements
    }

    fn observed_duplicates(&self) -> u64 {
        self.dups
    }

    /// `b·load·2⁻ᶠ + load^b·side_load^k` at the live loads (`O(m)`).
    fn estimated_fp(&self) -> f64 {
        self.fp_from_loads(self.active_load(), self.side_load())
    }

    fn occupancy_scans(&self) -> u64 {
        self.scans.get()
    }

    /// Single-scan override: the loads feeding `fill_ratios` and
    /// `estimated_fp` are computed once.
    fn health(&self) -> cfd_telemetry::DetectorHealth {
        let load = self.active_load();
        let side_load = self.side_load();
        cfd_telemetry::DetectorHealth {
            detector: self.stats_name(),
            fill_ratios: vec![load, side_load],
            cleaning_backlog: 0.0,
            sweep_position: self.sweep_position(),
            cleaned_entries: self.cleaned_entries(),
            observed_elements: self.observed_elements(),
            observed_duplicates: self.observed_duplicates(),
            estimated_fp: self.fp_from_loads(load, side_load),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_windows::ExactSlidingDedup;

    fn swbf(n: usize, total_bits: usize) -> Swbf {
        Swbf::new(SwbfConfig::for_budget(n, total_bits, 77, ProbeLayout::Scattered).unwrap())
            .unwrap()
    }

    fn blocked_swbf(n: usize, total_bits: usize) -> Swbf {
        Swbf::new(SwbfConfig::for_budget(n, total_bits, 77, ProbeLayout::Blocked).unwrap()).unwrap()
    }

    #[test]
    fn immediate_duplicate_detected() {
        let mut d = swbf(16, 1 << 16);
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
        assert_eq!(d.observe(b"x"), Verdict::Duplicate);
    }

    #[test]
    fn element_slides_out_after_n() {
        let n = 8;
        let mut d = swbf(n, 1 << 16);
        d.observe(b"first"); // position 0
        for i in 0..n as u32 - 1 {
            d.observe(&i.to_le_bytes()); // positions 1..=7
        }
        // Position 8: "first" is exactly N back -> out of window.
        assert_eq!(d.observe(b"first"), Verdict::Distinct);
    }

    #[test]
    fn element_still_in_window_at_n_minus_1() {
        let n = 8;
        let mut d = swbf(n, 1 << 16);
        d.observe(b"first"); // position 0
        for i in 0..n as u32 - 2 {
            d.observe(&i.to_le_bytes()); // positions 1..=6
        }
        // Position 7: "first" has age 7 = N-1 -> still inside.
        assert_eq!(d.observe(b"first"), Verdict::Duplicate);
    }

    #[test]
    fn duplicates_do_not_refresh_validity() {
        let n = 4;
        let mut d = swbf(n, 1 << 16);
        assert_eq!(d.observe(b"a"), Verdict::Distinct); // pos 0 (valid)
        assert_eq!(d.observe(b"a"), Verdict::Duplicate); // pos 1
        assert_eq!(d.observe(b"a"), Verdict::Duplicate); // pos 2
        assert_eq!(d.observe(b"a"), Verdict::Duplicate); // pos 3
                                                         // pos 4: the valid a@0 slid out; duplicates never extended it.
        assert_eq!(d.observe(b"a"), Verdict::Distinct);
    }

    #[test]
    fn zero_false_negatives_vs_exact_oracle() {
        let n = 64;
        let mut d = swbf(n, 1 << 16);
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
        let mut d = blocked_swbf(n, 1 << 16);
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
    fn zero_false_negatives_under_crowding() {
        // A tiny budget forces candidate crowding and side-filter
        // overflow; zero FN must survive the overflow path and many
        // timestamp wraparounds.
        let n = 128;
        let mut d = swbf(n, 2048);
        let mut oracle = ExactSlidingDedup::new(n);
        for i in 0..50_000u64 {
            let key = (i % 150).to_le_bytes();
            let got = d.observe(&key);
            let want = oracle.observe(&key);
            if want == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
        assert!(d.side_inserted(), "crowding must exercise the side path");
    }

    #[test]
    fn batch_matches_sequential() {
        let keys: Vec<Vec<u8>> = (0..6000u64)
            .map(|i| (i % 700).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut sequential = swbf(256, 1 << 18);
        let mut batched = swbf(256, 1 << 18);
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
        let mut sequential = blocked_swbf(256, 1 << 18);
        let mut batched = blocked_swbf(256, 1 << 18);
        let want: Vec<Verdict> = slices.iter().map(|id| sequential.observe(id)).collect();
        let mut got = Vec::new();
        for chunk in slices.chunks(513) {
            got.extend(batched.observe_batch(chunk));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn false_positive_rate_is_very_low_with_adequate_memory() {
        // Fingerprinting buys orders of magnitude over bit-smearing
        // backends: at ~128 bits per element the model sits around
        // 1e-5, so a distinct stream should barely ever collide.
        let n = 1 << 12;
        let mut d = swbf(n, n * 128);
        let mut fps = 0u64;
        let total = 20 * n as u64;
        for i in 0..total {
            if d.observe(&i.to_le_bytes()) == Verdict::Duplicate {
                fps += 1;
            }
        }
        let rate = fps as f64 / total as f64;
        assert!(rate < 1e-3, "fp rate {rate} too high ({fps} hits)");
    }

    #[test]
    fn side_queries_are_skipped_once_quiet() {
        let n = 32;
        let mut d = swbf(n, 1 << 16);
        // A comfortable budget never overflows: the side stays unused
        // and probe reads stay at b_eff per element plus sweep quota.
        for i in 0..5000u64 {
            d.observe(&i.to_le_bytes());
        }
        assert!(!d.side_inserted(), "well-sized table must not overflow");
        assert_eq!(
            d.ops().probe_reads,
            5000 * d.effective_candidates() as u64,
            "side reads must be skipped while the side filter is idle"
        );
    }

    #[test]
    fn checkpoint_parts_roundtrip() {
        let mut d = swbf(64, 1 << 16);
        for i in 0..1000u64 {
            d.observe(&(i % 100).to_le_bytes());
        }
        let (cfg, state) = d.checkpoint_parts();
        let mut restored = Swbf::from_checkpoint_parts(cfg, state).expect("valid parts");
        for i in 0..500u64 {
            let key = (i % 70).to_le_bytes();
            assert_eq!(d.observe(&key), restored.observe(&key), "element {i}");
        }
    }

    #[test]
    fn checkpoint_parts_reject_inconsistent_state() {
        let d = swbf(64, 1 << 16);
        let (cfg, mut state) = d.checkpoint_parts();
        state.clean_next = cfg.cells();
        assert!(Swbf::from_checkpoint_parts(cfg, state).is_none());
        let (cfg, mut state) = d.checkpoint_parts();
        state.cell_words.to_mut().pop();
        assert!(Swbf::from_checkpoint_parts(cfg, state).is_none());
        let (cfg, mut state) = d.checkpoint_parts();
        state.last_side_insert = Some(state.arrivals + 1);
        assert!(Swbf::from_checkpoint_parts(cfg, state).is_none());
    }

    #[test]
    fn occupancy_scans_counts_table_passes_only() {
        let mut d = swbf(256, 1 << 16);
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
        let mut d = swbf(16, 1 << 16);
        d.observe(b"k");
        d.reset();
        assert_eq!(d.observe(b"k"), Verdict::Distinct);
    }
}
