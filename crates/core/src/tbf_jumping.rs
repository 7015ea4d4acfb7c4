//! TBF over jumping windows with a large number of sub-windows (§4.1).
//!
//! "TBF can also be easily extended to handle jumping windows. If TBF is
//! utilized over a jumping window which is evenly divided into `Q`
//! sub-windows, then all elements in the same sub-window will have the
//! same timestamp, and they will be eliminated from TBF simultaneously.
//! When `Q` is large, GBF cannot process the click stream efficiently,
//! and TBF is a better choice."
//!
//! That is a time-window TBF whose time unit is one sub-window of
//! arrivals, so [`JumpingTbf`] is a [`TimeTbf`] with `R = Q` units of
//! `⌈N/Q⌉` ticks and range extension `C_q`, clocked by its own arrival
//! counter: arrival `i` is judged at tick `i`, and feed ticks are
//! ignored. Entries store the wraparound *sub-window index* (range
//! `Q + C_q`), so entry width is `O(log Q)` — far below the sliding
//! TBF's `O(log N)` — and the probe is `k` entry reads regardless of
//! `Q`, where GBF would need `k × ⌈(Q+1)/64⌉` word reads.

use crate::backend;
use crate::config::{ConfigError, ProbeLayout};
use crate::ops::OpCounters;
use crate::sharded::PlannedDetector;
use crate::tbf_time::{TimeTbf, TimeTbfConfig, TimeTbfState};
use cfd_hash::{Planner, ProbePlan};
use cfd_telemetry::{DetectorHealth, DetectorStats};
use cfd_windows::{DuplicateDetector, Keys, Verdict, WindowSpec};
use std::borrow::Cow;

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
        self.time_config().with_probe(probe)?;
        Ok(self)
    }

    /// The time-window TBF this detector runs: `Q` units of `⌈N/Q⌉`
    /// arrivals (one sub-window each), range extension `C_q` units. Its
    /// entries are `⌈log2(Q + C_q + 1)⌉` bits wide, all-ones reserved as
    /// empty.
    #[must_use]
    pub fn time_config(&self) -> TimeTbfConfig {
        TimeTbfConfig {
            window_units: self.q as u64,
            unit_ticks: self.sub_len(),
            m: self.m,
            k: self.k,
            c_units: self.c_q as u64,
            seed: self.seed,
            probe: self.probe,
        }
    }

    /// Arrivals per sub-window, `⌈N/Q⌉`.
    fn sub_len(&self) -> u64 {
        self.n.div_ceil(self.q.max(1)) as u64
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

/// Mutable-state snapshot carried by a kind-8 checkpoint (the
/// configuration travels separately). The clock fields keep the layout
/// of the sub-window clock the format was defined with; all four are
/// functions of the arrival count.
pub(crate) struct JumpingTbfState<'a> {
    pub sub_now: u64,
    pub slot: usize,
    pub filled: usize,
    pub completed_subwindows: u64,
    pub clean_next: usize,
    pub entry_words: Cow<'a, [u64]>,
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
    inner: TimeTbf,
    /// Arrivals so far: the tick the next click is judged at.
    arrivals: u64,
    /// Recycled tick buffer for the batch paths.
    ticks: Vec<u64>,
}

impl JumpingTbf {
    /// Creates a detector from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn new(cfg: JumpingTbfConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self {
            inner: TimeTbf::new(cfg.time_config())?,
            cfg,
            arrivals: 0,
            ticks: Vec::new(),
        })
    }

    /// Probes issued per element: `k` in scattered mode, `min(k,
    /// slots/2)` in blocked mode (saturation cap; see [`crate::Gbf`]).
    #[must_use]
    pub fn effective_hash_count(&self) -> usize {
        self.inner.effective_hash_count()
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> JumpingTbfConfig {
        self.cfg
    }

    /// Memory-operation counters.
    #[must_use]
    pub fn ops(&self) -> OpCounters {
        self.inner.ops()
    }

    /// Internal state snapshot for checkpointing.
    pub(crate) fn checkpoint_parts(&self) -> (JumpingTbfConfig, JumpingTbfState<'_>) {
        let sub_len = self.cfg.sub_len();
        let completed = self.arrivals / sub_len;
        let (time_cfg, state) = self.inner.checkpoint_parts();
        (
            self.cfg,
            JumpingTbfState {
                sub_now: completed % time_cfg.range(),
                slot: (completed % (self.cfg.q as u64 + 1)) as usize,
                filled: (self.arrivals % sub_len) as usize,
                completed_subwindows: completed,
                clean_next: state.clean_next,
                entry_words: state.entry_words,
            },
        )
    }

    /// Rebuilds a detector from checkpoint parts; `None` if inconsistent.
    ///
    /// The sweep cursor of a checkpoint may come from a schedule that
    /// swept per arrival rather than per unit, so the restored table is
    /// swept once in full: expired entries read as absent either way, so
    /// this changes no verdict, and it re-establishes the per-unit
    /// sweep's invariant that no expired stamp outlives its range.
    pub(crate) fn from_checkpoint_parts(
        cfg: JumpingTbfConfig,
        state: JumpingTbfState<'_>,
    ) -> Option<Self> {
        cfg.validate().ok()?;
        let sub_len = cfg.sub_len();
        let completed = state.completed_subwindows;
        let slots = (cfg.q as u64).checked_add(1)?;
        if state.filled as u64 >= sub_len
            || state.slot as u64 != completed % slots
            || state.sub_now != completed % cfg.time_config().range()
        {
            return None;
        }
        let arrivals = completed
            .checked_mul(sub_len)?
            .checked_add(state.filled as u64)?;
        let mut inner = TimeTbf::from_checkpoint_parts(
            cfg.time_config(),
            TimeTbfState {
                cur_unit: arrivals.checked_sub(1).map(|last| last / sub_len),
                clean_next: state.clean_next,
                entry_words: state.entry_words,
            },
        )?;
        inner.expire_all();
        Some(Self {
            cfg,
            inner,
            arrivals,
            ticks: Vec::new(),
        })
    }

    /// The ticks of the next `count` arrivals, in the recycled buffer
    /// (hand it back to `self.ticks` after use).
    fn take_ticks(&mut self, count: usize) -> Vec<u64> {
        let mut ticks = std::mem::take(&mut self.ticks);
        ticks.clear();
        ticks.extend(self.arrivals..self.arrivals + count as u64);
        self.arrivals += count as u64;
        ticks
    }
}

/// Every path judges arrivals at their own index; feed ticks are
/// ignored (`observe_at` keeps its default, `observe_keys_into`
/// replaces the ticks with arrival indices).
impl PlannedDetector for JumpingTbf {
    fn probe_planner(&self) -> Planner {
        self.inner.planner()
    }

    fn apply_plan(&mut self, plan: ProbePlan) -> Verdict {
        let tick = self.arrivals;
        self.arrivals += 1;
        self.inner.apply_at(plan, tick)
    }

    fn apply_plan_batch_into(&mut self, plans: &[ProbePlan], out: &mut Vec<Verdict>) {
        let ticks = self.take_ticks(plans.len());
        backend::replay_plans_at_into(&mut self.inner, plans, Some(&ticks), out);
        self.ticks = ticks;
    }
}

impl DuplicateDetector for JumpingTbf {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let plan = self.inner.plan(id);
        self.apply_plan(plan)
    }

    fn observe_keys_into(
        &mut self,
        keys: Keys<'_>,
        _ticks: Option<&[u64]>,
        out: &mut Vec<Verdict>,
    ) {
        let ticks = self.take_ticks(keys.len());
        self.inner.observe_keys_into(keys, Some(&ticks), out);
        self.ticks = ticks;
    }

    fn window(&self) -> WindowSpec {
        WindowSpec::Jumping {
            n: self.cfg.n,
            q: self.cfg.q,
        }
    }

    fn memory_bits(&self) -> usize {
        self.inner.memory_bits()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.arrivals = 0;
    }

    fn name(&self) -> &'static str {
        "jumping-tbf"
    }
}

impl DetectorStats for JumpingTbf {
    fn stats_name(&self) -> &'static str {
        "jumping-tbf"
    }

    fn fill_ratios(&self) -> Vec<f64> {
        self.inner.fill_ratios()
    }

    fn sweep_position(&self) -> f64 {
        self.inner.sweep_position()
    }

    fn cleaned_entries(&self) -> u64 {
        self.inner.cleaned_entries()
    }

    fn observed_elements(&self) -> u64 {
        self.inner.observed_elements()
    }

    fn observed_duplicates(&self) -> u64 {
        self.inner.observed_duplicates()
    }

    fn estimated_fp(&self) -> f64 {
        self.inner.estimated_fp()
    }

    fn occupancy_scans(&self) -> u64 {
        self.inner.occupancy_scans()
    }

    fn health(&self) -> DetectorHealth {
        DetectorHealth {
            detector: self.stats_name(),
            ..self.inner.health()
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
        assert_eq!(cfg.time_config().entry_bits(), 12);
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
