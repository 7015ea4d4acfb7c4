//! TBF over jumping windows with a large number of sub-windows (§4.1).
//!
//! "TBF can also be easily extended to handle jumping windows. If TBF is
//! utilized over a jumping window which is evenly divided into `Q`
//! sub-windows, then all elements in the same sub-window will have the
//! same timestamp, and they will be eliminated from TBF simultaneously.
//! When `Q` is large, GBF cannot process the click stream efficiently,
//! and TBF is a better choice."
//!
//! Entries store the *sub-window index* (wraparound range `Q + C_q`)
//! instead of the element position, so entry width is `O(log Q)` — far
//! below the sliding TBF's `O(log N)` — and the probe is `k` entry reads
//! regardless of `Q`, where GBF would need `k × ⌈(Q+1)/64⌉` word reads.

use crate::backend::{self, BatchBufs, CountCore, ProbeCore};
use crate::config::{ConfigError, ProbeLayout};
use crate::ops::OpCounters;
use cfd_bits::words::bits_for_value;
use cfd_bits::PackedIntVec;
use cfd_hash::{BlockGeometry, DoubleHashFamily, HashFamily, Planner, ProbePlan};
use cfd_telemetry::DetectorStats;
use cfd_windows::{DuplicateDetector, JumpingClock, Verdict, WindowSpec, WrapCounter};
use std::cell::Cell;

/// Configuration of a [`JumpingTbf`] detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JumpingTbfConfig {
    /// Jumping-window length `N` in elements.
    pub n: usize,
    /// Number of sub-windows `Q` (may be large — that is the point).
    pub q: usize,
    /// Number of TBF entries (`m`).
    pub m: usize,
    /// Hash functions per element (`k`).
    pub k: usize,
    /// Sub-window-index range extension `C_q` (default `Q`).
    pub c_q: usize,
    /// Hash seed.
    pub seed: u64,
    /// Probe index layout (scattered vs. cache-line-blocked).
    pub probe: ProbeLayout,
}

impl JumpingTbfConfig {
    /// Creates a validated configuration with the default `C_q = Q`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on zero dimensions, `q > n`, or bad `k`.
    pub fn new(n: usize, q: usize, m: usize, k: usize, seed: u64) -> Result<Self, ConfigError> {
        let cfg = Self {
            n,
            q,
            m,
            k,
            c_q: q,
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

    /// Cache-line block geometry for the blocked probe layout; `None`
    /// when scattered or when the shape does not admit blocks.
    #[must_use]
    pub fn block_geometry(&self) -> Option<BlockGeometry> {
        if self.probe != ProbeLayout::Blocked {
            return None;
        }
        BlockGeometry::for_line(self.m, self.entry_bits() as usize)
    }

    /// The wraparound sub-index range (`Q + C_q`).
    #[must_use]
    pub fn range(&self) -> u64 {
        (self.q + self.c_q) as u64
    }

    /// Bits per entry (`⌈log2(Q + C_q + 1)⌉`, all-ones reserved as empty).
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        bits_for_value(self.range())
    }

    /// Entries swept per arrival: the cleanable band of an entry spans
    /// `C_q` sub-windows = `C_q × ⌈N/Q⌉` arrivals, so
    /// `⌈m / (C_q · sub_len)⌉` keeps the sweep ahead of value reuse.
    #[must_use]
    pub fn clean_quota(&self) -> usize {
        let band = self.c_q * self.n.div_ceil(self.q);
        self.m.div_ceil(band.max(1))
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::ZeroDimension("window length n"));
        }
        if self.q == 0 || self.c_q == 0 {
            return Err(ConfigError::ZeroDimension("sub-window count q"));
        }
        if self.q > self.n {
            return Err(ConfigError::TooManySubWindows {
                q: self.q,
                n: self.n,
            });
        }
        if self.m == 0 {
            return Err(ConfigError::ZeroDimension("entry count m"));
        }
        if !(1..=64).contains(&self.k) {
            return Err(ConfigError::BadHashCount(self.k));
        }
        Ok(())
    }
}

/// Mutable-state snapshot carried by a checkpoint (the configuration
/// travels separately).
pub(crate) struct JumpingTbfState {
    pub sub_now: u64,
    pub slot: usize,
    pub filled: usize,
    pub completed_subwindows: u64,
    pub clean_next: usize,
    pub entry_words: Vec<u64>,
}

/// Timing-Bloom-filter duplicate detector over count-based jumping
/// windows (the large-`Q` regime where [`crate::Gbf`] is too slow).
///
/// ```rust
/// use cfd_core::tbf_jumping::{JumpingTbf, JumpingTbfConfig};
/// use cfd_windows::{DuplicateDetector, Verdict};
///
/// # fn main() -> Result<(), cfd_core::ConfigError> {
/// // 1024 sub-windows: GBF would need 17 words per probe group.
/// let cfg = JumpingTbfConfig::new(1 << 14, 1 << 10, 1 << 18, 7, 0)?;
/// let mut d = JumpingTbf::new(cfg)?;
/// assert_eq!(d.observe(b"bot-17"), Verdict::Distinct);
/// assert_eq!(d.observe(b"bot-17"), Verdict::Duplicate);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct JumpingTbf {
    cfg: JumpingTbfConfig,
    entries: PackedIntVec,
    clock: JumpingClock,
    /// Wraparound *sub-window* counter; `now()` is the current sub-index.
    sub: WrapCounter,
    family: DoubleHashFamily,
    clean_next: usize,
    clean_quota: usize,
    empty: u64,
    ops: OpCounters,
    bufs: BatchBufs,
    /// Blocked-probe geometry; `None` in scattered mode.
    geo: Option<BlockGeometry>,
    /// Probes per element: `k` scattered, `min(k, slots/2)` blocked
    /// (saturation cap; see [`crate::Gbf`]).
    k_eff: usize,
    /// `O(m)` occupancy scans performed (snapshot cadence only).
    scans: Cell<u64>,
}

impl JumpingTbf {
    /// Creates a detector from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn new(cfg: JumpingTbfConfig) -> Result<Self, ConfigError> {
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
            clock: JumpingClock::new(cfg.q, cfg.n.div_ceil(cfg.q)),
            sub: WrapCounter::new(cfg.range()),
            family: DoubleHashFamily::new(cfg.seed),
            clean_next: 0,
            clean_quota: cfg.clean_quota(),
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

    /// Probes issued per element: `k` in scattered mode, `min(k,
    /// slots/2)` in blocked mode (saturation cap; see [`crate::Gbf`]).
    #[must_use]
    pub fn effective_hash_count(&self) -> usize {
        self.k_eff
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> JumpingTbfConfig {
        self.cfg
    }

    /// Memory-operation counters.
    #[must_use]
    pub fn ops(&self) -> OpCounters {
        self.ops
    }

    /// Internal state snapshot for checkpointing.
    pub(crate) fn checkpoint_parts(&self) -> (JumpingTbfConfig, JumpingTbfState) {
        (
            self.cfg,
            JumpingTbfState {
                sub_now: self.sub.now(),
                slot: self.clock.slot(),
                filled: self.clock.filled(),
                completed_subwindows: self.clock.completed_subwindows(),
                clean_next: self.clean_next,
                entry_words: self.entries.as_words().to_vec(),
            },
        )
    }

    /// Rebuilds a detector from checkpoint parts; `None` if inconsistent.
    pub(crate) fn from_checkpoint_parts(
        cfg: JumpingTbfConfig,
        state: JumpingTbfState,
    ) -> Option<Self> {
        // Size-check against the provided payload BEFORE allocating: a
        // corrupt header could otherwise request an absurd table.
        let expected_words = cfg.m.checked_mul(cfg.entry_bits() as usize)?.div_ceil(64);
        if state.entry_words.len() != expected_words || state.clean_next >= cfg.m {
            return None;
        }
        let mut d = Self::new(cfg).ok()?;
        d.sub = WrapCounter::from_parts(cfg.range(), state.sub_now)?;
        d.clock = JumpingClock::from_parts(
            cfg.q,
            cfg.n.div_ceil(cfg.q),
            state.slot,
            state.filled,
            state.completed_subwindows,
        )?;
        d.clean_next = state.clean_next;
        d.entries = cfd_bits::PackedIntVec::from_words(state.entry_words, cfg.m, cfg.entry_bits())?;
        Some(d)
    }

    /// Number of entries holding an *active* sub-window index — the
    /// occupancy that drives the false-positive rate (`O(m)`).
    #[must_use]
    pub fn active_entries(&self) -> usize {
        self.scans.set(self.scans.get() + 1);
        (0..self.cfg.m)
            .filter(|&i| {
                let e = self.entries.get(i);
                e != self.empty && self.is_active(e)
            })
            .count()
    }

    /// Sub-index age: 0 = current sub-window. Active iff `< Q`.
    #[inline]
    fn sub_age(&self, e: u64) -> u64 {
        let now = self.sub.now();
        let range = self.cfg.range();
        if now >= e {
            now - e
        } else {
            range - e + now
        }
    }

    #[inline]
    fn is_active(&self, e: u64) -> bool {
        self.sub_age(e) < self.cfg.q as u64
    }

    fn clean_step(&mut self) {
        let m = self.cfg.m;
        for _ in 0..self.clean_quota {
            let i = self.clean_next;
            self.clean_next += 1;
            if self.clean_next == m {
                self.clean_next = 0;
            }
            let e = self.entries.get(i);
            self.ops.clean_reads += 1;
            if e != self.empty && !self.is_active(e) {
                self.entries.set(i, self.empty);
                self.ops.clean_writes += 1;
            }
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

    /// The stateful half of an observation; `observe(id)` ≡
    /// `apply(plan(id))`. The hash evaluation is accounted to this
    /// element regardless of where it was computed.
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

    /// [`JumpingTbf::apply`] with the probe indices already expanded —
    /// the innermost stateful step, shared by per-click and batch paths.
    fn apply_at(&mut self, probes: &[usize]) -> Verdict {
        self.ops.elements += 1;
        self.ops.hash_evals += 1;
        self.clean_step();

        let mut present_and_active = true;
        for &i in probes {
            let e = self.entries.get(i);
            self.ops.probe_reads += 1;
            if e == self.empty || !self.is_active(e) {
                present_and_active = false;
                break;
            }
        }

        let verdict = if present_and_active {
            Verdict::Duplicate
        } else {
            let t = self.sub.now();
            for &i in probes {
                self.entries.set(i, t);
            }
            self.ops.insert_writes += probes.len() as u64;
            Verdict::Distinct
        };

        if self.clock.record_arrival().is_some() {
            // All elements of the finished sub-window share the expiring
            // timestamp; advancing the sub-counter retires them together.
            self.sub.advance();
        }
        verdict
    }
}

impl ProbeCore for JumpingTbf {
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

impl CountCore for JumpingTbf {
    #[inline]
    fn apply_probes(&mut self, _plan: ProbePlan, probes: &[usize]) -> Verdict {
        self.apply_at(probes)
    }
}

impl DuplicateDetector for JumpingTbf {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let plan = self.plan(id);
        self.apply(plan)
    }

    fn observe_batch(&mut self, ids: &[&[u8]]) -> Vec<Verdict> {
        let mut out = Vec::with_capacity(ids.len());
        self.observe_batch_into(ids, &mut out);
        out
    }

    fn observe_batch_into(&mut self, ids: &[&[u8]], out: &mut Vec<Verdict>) {
        // Hash up front (multi-lane over equal-length runs) and replay
        // with lookahead prefetch — same pattern as `Tbf`.
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
        self.entries.memory_bits()
    }

    fn reset(&mut self) {
        *self = Self::new(self.cfg).expect("configuration was already validated");
    }

    fn name(&self) -> &'static str {
        "jumping-tbf"
    }
}

impl DetectorStats for JumpingTbf {
    fn stats_name(&self) -> &'static str {
        "jumping-tbf"
    }

    /// One entry: the active-sub-index occupancy ratio (`O(m)`).
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

    /// Classical Bloom FP at the live active occupancy:
    /// `(active/m)^k_eff`.
    fn estimated_fp(&self) -> f64 {
        (self.active_entries() as f64 / self.cfg.m as f64).powi(self.k_eff as i32)
    }

    fn occupancy_scans(&self) -> u64 {
        self.scans.get()
    }

    /// Single-scan override: `fill_ratios` and `estimated_fp` each need
    /// the `O(m)` active-entry count; assemble the sample from one scan
    /// (see the matching override on `Tbf`).
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
    use cfd_windows::ExactJumpingDedup;

    fn jtbf(n: usize, q: usize, m: usize, k: usize) -> JumpingTbf {
        JumpingTbf::new(JumpingTbfConfig::new(n, q, m, k, 21).unwrap()).unwrap()
    }

    #[test]
    fn immediate_duplicate_detected() {
        let mut d = jtbf(64, 16, 1 << 12, 5);
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
        assert_eq!(d.observe(b"x"), Verdict::Duplicate);
    }

    #[test]
    fn whole_subwindow_expires_together() {
        // n = 8, q = 4 -> sub-windows of 2 elements, window = 4 subs.
        let mut d = jtbf(8, 4, 1 << 12, 5);
        d.observe(b"a"); // sub 0
        d.observe(b"b"); // sub 0 done
        for i in 0..6u32 {
            d.observe(&i.to_le_bytes()); // subs 1..3 fill
        }
        // a and b were in sub 0, which left the window after 4 rotations.
        assert_eq!(d.observe(b"a"), Verdict::Distinct);
        assert_eq!(d.observe(b"b"), Verdict::Distinct);
        // Both are valid again and immediately duplicate on repeat.
        assert_eq!(d.observe(b"a"), Verdict::Duplicate);
    }

    #[test]
    fn zero_false_negatives_vs_exact_oracle() {
        let (n, q) = (60, 12);
        let mut d = jtbf(n, q, 1 << 14, 6);
        let mut oracle = ExactJumpingDedup::new(n, q);
        for i in 0..20_000u64 {
            let key = (i % 83).to_le_bytes();
            let got = d.observe(&key);
            let want = oracle.observe(&key);
            if want == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
    }

    #[test]
    fn zero_false_negatives_with_large_q() {
        let (n, q) = (256, 64);
        let mut d = jtbf(n, q, 1 << 14, 6);
        let mut oracle = ExactJumpingDedup::new(n, q);
        for i in 0..30_000u64 {
            let key = (i % 300).to_le_bytes();
            let got = d.observe(&key);
            if oracle.observe(&key) == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
    }

    #[test]
    fn entry_width_scales_with_q_not_n() {
        let cfg = JumpingTbfConfig::new(1 << 20, 1 << 10, 1 << 16, 7, 0).unwrap();
        // range = 2q = 2^11 (power of two, so one extra bit keeps the
        // all-ones empty pattern distinct) -> 12-bit entries, vs 21 for
        // the sliding TBF over the same N = 2^20 window.
        assert_eq!(cfg.entry_bits(), 12);
    }

    #[test]
    fn false_positive_rate_low_on_distinct_stream() {
        let n = 1 << 12;
        let q = 1 << 8;
        let m = n * 14;
        let mut d = jtbf(n, q, m, 10);
        let mut fps = 0u64;
        let total = 20 * n as u64;
        for i in 0..total {
            if d.observe(&i.to_le_bytes()) == Verdict::Duplicate {
                fps += 1;
            }
        }
        assert!(
            (fps as f64 / total as f64) < 0.01,
            "fp rate too high: {fps}"
        );
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(JumpingTbfConfig::new(4, 9, 10, 3, 0).is_err());
        assert!(JumpingTbfConfig::new(0, 1, 10, 3, 0).is_err());
        assert!(JumpingTbfConfig::new(8, 2, 0, 3, 0).is_err());
        assert!(JumpingTbfConfig::new(8, 2, 10, 0, 0).is_err());
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut d = jtbf(16, 4, 1 << 10, 4);
        d.observe(b"k");
        d.reset();
        assert_eq!(d.observe(b"k"), Verdict::Distinct);
    }

    fn blocked_jtbf(n: usize, q: usize, m: usize, k: usize) -> JumpingTbf {
        let cfg = JumpingTbfConfig::new(n, q, m, k, 21)
            .unwrap()
            .with_probe(ProbeLayout::Blocked)
            .unwrap();
        JumpingTbf::new(cfg).unwrap()
    }

    #[test]
    fn blocked_mode_has_zero_false_negatives() {
        let (n, q) = (60, 12);
        let mut d = blocked_jtbf(n, q, 1 << 14, 6);
        let mut oracle = ExactJumpingDedup::new(n, q);
        for i in 0..20_000u64 {
            let key = (i % 83).to_le_bytes();
            let got = d.observe(&key);
            let want = oracle.observe(&key);
            if want == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
    }

    #[test]
    fn blocked_batch_matches_sequential() {
        let keys: Vec<Vec<u8>> = (0..6000u64)
            .map(|i| (i % 500).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut sequential = blocked_jtbf(256, 64, 1 << 14, 6);
        let mut batched = blocked_jtbf(256, 64, 1 << 14, 6);
        let want: Vec<Verdict> = slices.iter().map(|id| sequential.observe(id)).collect();
        let mut got = Vec::new();
        for chunk in slices.chunks(511) {
            got.extend(batched.observe_batch(chunk));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn batch_matches_sequential_scattered_too() {
        let keys: Vec<Vec<u8>> = (0..6000u64)
            .map(|i| (i % 500).to_le_bytes().to_vec())
            .collect();
        let slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut sequential = jtbf(256, 64, 1 << 14, 6);
        let mut batched = jtbf(256, 64, 1 << 14, 6);
        let want: Vec<Verdict> = slices.iter().map(|id| sequential.observe(id)).collect();
        let mut got = Vec::new();
        for chunk in slices.chunks(511) {
            got.extend(batched.observe_batch(chunk));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn blocked_fp_stays_usable_with_adequate_memory() {
        // 12-bit entries at Q = 2^10 -> 32 slots per line; 16 entries
        // per element keeps the per-block load variance penalty small.
        let n = 1 << 12;
        let q = 1 << 10;
        let mut d = blocked_jtbf(n, q, n * 16, 10);
        assert_eq!(d.effective_hash_count(), 10);
        let mut fps = 0u64;
        let total = 20 * n as u64;
        for i in 0..total {
            if d.observe(&i.to_le_bytes()) == Verdict::Duplicate {
                fps += 1;
            }
        }
        let rate = fps as f64 / total as f64;
        assert!(rate < 0.06, "blocked fp rate {rate} too high");
    }
}
