//! The backend-agnostic hot-path layer shared by every window-filter
//! backend.
//!
//! PRs 1–5 grew the same machinery — flat-buffer batch replay with
//! lookahead prefetch, blocked/scattered probe expansion, recycled
//! buffers, and (for timed detectors) the per-run clock cache — once per
//! detector. This module extracts it behind two small traits so a new
//! backend implements only its *probe semantics* and inherits the whole
//! batch/prefetch schedule:
//!
//! * [`ProbeCore`] — how one element's probe indices are derived and
//!   prefetched under the configured [`crate::ProbeLayout`].
//! * [`CountCore`] / [`TimedCore`] — the innermost stateful step
//!   (sweep + probe + insert) for count- and time-based windows.
//!
//! The free functions below are the per-clock frontends: one
//! single-plan step, one plan replay and one key-batch frontend
//! ([`observe_keys_into`], [`observe_keys_at_into`]) per clock. Buffers
//! live in a [`BatchBufs`] the detector owns ([`ProbeCore::bufs`]) and
//! are `mem::take`n around each call, so the hot path stays
//! allocation-free after warm-up.

use crate::PlannedDetector;
use cfd_hash::{BlockGeometry, Planner, ProbePlan};
use cfd_windows::{Keys, Verdict};

/// Elements of lookahead in the batch replay loop: while element `i` is
/// applied, element `i + PREFETCH_AHEAD`'s cache lines are being pulled.
pub(crate) const PREFETCH_AHEAD: usize = 8;

/// Recycled scratch buffers for the plan → probe → verdict pipeline.
///
/// `take`/restore around the shared free functions keeps the borrow of
/// the detector (`&mut C`) disjoint from the buffers.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchBufs {
    /// Single-element probe scratch (`probe_width` slots).
    pub probe: Vec<usize>,
    /// Batch probe buffer: a `PREFETCH_AHEAD`-deep ring for the count
    /// replay, a whole-batch flat expansion for the timed replay.
    pub flat: Vec<usize>,
    /// Recycled plan buffer for the id-hashing frontends.
    pub plans: Vec<ProbePlan>,
}

/// Probe-index derivation and prefetch for one backend: the geometry
/// half of the hot path.
pub(crate) trait ProbeCore {
    /// Number of addressable slots (`m`); the range of scattered probes.
    fn table_len(&self) -> usize;

    /// Probe indices issued per element (`k_eff` for Bloom-style
    /// backends; structural widths like slices-per-element for others).
    fn probe_width(&self) -> usize;

    /// The cache-line block geometry, when the standard blocked layout
    /// is in use. Backends with a custom blocked derivation return
    /// `None` and override [`ProbeCore::fill_probes`] /
    /// [`ProbeCore::probes_share_line`] instead.
    fn block_geo(&self) -> Option<&BlockGeometry>;

    /// Expands a plan into `out.len()` probe indices under the
    /// configured layout.
    #[inline]
    fn fill_probes(&self, plan: ProbePlan, out: &mut [usize]) {
        match self.block_geo() {
            Some(g) => plan.fill_blocked(g, out),
            None => plan.fill(self.table_len(), out),
        }
    }

    /// Hints the CPU to pull slot `idx`'s cache line early.
    fn prefetch(&self, idx: usize);

    /// `true` when all of an element's probes land on one cache line,
    /// so prefetching the first suffices.
    #[inline]
    fn probes_share_line(&self) -> bool {
        self.block_geo().is_some()
    }

    /// The detector's recycled scratch buffers.
    fn bufs(&mut self) -> &mut BatchBufs;
}

/// The stateful half of a count-window backend: one observation given
/// its expanded probes.
pub(crate) trait CountCore: ProbeCore {
    /// Sweep, probe, insert-if-distinct, advance the window clock. The
    /// plan is passed alongside its expanded probes for backends that
    /// derive extra per-element material from the hash pair
    /// (fingerprints, side-table probes); Bloom-style backends ignore it.
    fn apply_probes(&mut self, plan: ProbePlan, probes: &[usize]) -> Verdict;
}

/// The stateful half of a time-window backend. Split so the batch
/// replay can cache clock work across same-unit runs exactly like the
/// hand-written per-detector loops did.
pub(crate) trait TimedCore: ProbeCore {
    /// Maps a tick to its absolute time unit.
    fn unit_of(&self, tick: u64) -> u64;

    /// The high-water unit (`None` before the first observation).
    fn high_water(&self) -> Option<u64>;

    /// Advances the clock to `unit` (replaying skipped units' sweeps),
    /// clamping regressions; returns the effective unit.
    fn advance_to(&mut self, unit: u64) -> u64;

    /// The wraparound stamp written for observations in `unit` (backends
    /// without per-entry stamps return any constant).
    fn stamp_of(&self, unit: u64) -> u64;

    /// Counts one clock regression (a clamped element inside a cached
    /// same-unit run, where [`TimedCore::advance_to`] is not consulted).
    fn note_regression(&mut self);

    /// Probe + insert at the already-advanced clock position.
    fn apply_probes_at(&mut self, plan: ProbePlan, probes: &[usize], stamp_now: u64) -> Verdict;
}

/// Expands every plan's probe indices into the recycled flat buffer
/// (`probe_width` indices per element).
pub(crate) fn expand_plans<C: ProbeCore + ?Sized>(
    core: &C,
    plans: &[ProbePlan],
    flat: &mut Vec<usize>,
) {
    let w = core.probe_width();
    flat.clear();
    flat.resize(plans.len() * w, 0);
    for (plan, slot) in plans.iter().zip(flat.chunks_exact_mut(w)) {
        core.fill_probes(*plan, slot);
    }
}

/// Applies one plan through the single-element scratch buffer.
pub(crate) fn apply_plan<C: CountCore + ?Sized>(core: &mut C, plan: ProbePlan) -> Verdict {
    let mut probe = std::mem::take(&mut core.bufs().probe);
    probe.resize(core.probe_width(), 0);
    core.fill_probes(plan, &mut probe);
    let verdict = core.apply_probes(plan, &probe);
    core.bufs().probe = probe;
    verdict
}

/// Fused expand + replay with lookahead prefetch: element
/// `i + depth`'s probes are expanded (and their cache lines
/// prefetched) while element `i` is applied, through a `depth`-deep
/// ring of probe rows. Verdicts go into `out` (cleared first, capacity
/// reused).
///
/// The ring replaces the former whole-batch flat buffer: at a wide
/// `probe_width` (APBF expands one row per physical slice — 65 at the
/// shootout budget) a 1024-element batch expanded to ~0.5 MB, so the
/// replay loop fought its own scratch for L2 and ran *slower* than the
/// sequential path. The ring keeps the in-flight scratch at
/// `depth × probe_width` slots — L1-resident at any width.
pub(crate) fn replay_plans_into<C: CountCore + ?Sized>(
    core: &mut C,
    plans: &[ProbePlan],
    out: &mut Vec<Verdict>,
) {
    let w = core.probe_width();
    let one_line = core.probes_share_line();
    out.clear();
    // Lookahead scales inversely with the lines prefetched per element:
    // 16 elements deep for one-line (blocked) cores, shallower as the
    // per-element line count grows, so the lines in flight stay within
    // what the core can track instead of evicting each other before
    // use. (Deeper one-line rings were measured slower: at 32 the
    // blocked APBF batch path lost ~10%.)
    let lines_per_element = if one_line { 1 } else { w };
    let depth = (4 * PREFETCH_AHEAD)
        .div_ceil(lines_per_element)
        .min(2 * PREFETCH_AHEAD)
        .min(plans.len());
    if depth == 0 {
        return;
    }
    let mut ring = std::mem::take(&mut core.bufs().flat);
    ring.clear();
    ring.resize(depth * w, 0);
    let expand = |core: &C, plan: ProbePlan, row: &mut [usize]| {
        core.fill_probes(plan, row);
        if one_line {
            core.prefetch(row[0]);
        } else {
            for &j in row.iter() {
                core.prefetch(j);
            }
        }
    };
    // Prime the ring: expand + prefetch the first `depth` elements.
    for (row, plan) in ring.chunks_exact_mut(w).zip(plans) {
        expand(core, *plan, row);
    }
    for (i, plan) in plans.iter().enumerate() {
        let row = &mut ring[(i % depth) * w..][..w];
        out.push(core.apply_probes(*plan, row));
        // Recycle the row just applied for element `i + depth`.
        if let Some(next) = plans.get(i + depth) {
            expand(core, *next, row);
        }
    }
    core.bufs().flat = ring;
}

/// Hashes a batch of keys (pure, multi-lane over the flat buffer or
/// over equal-length runs of slices) and replays the plans with
/// lookahead prefetch: the count-window batch frontend.
pub(crate) fn observe_keys_into<C: CountCore + PlannedDetector + ?Sized>(
    core: &mut C,
    keys: Keys<'_>,
    out: &mut Vec<Verdict>,
) {
    let plans = plan_keys(core, keys);
    replay_plans_into(core, &plans, out);
    core.bufs().plans = plans;
}

/// The plans of a key batch, in the core's recycled plan buffer (the
/// caller hands it back to `bufs().plans`).
fn plan_keys<C: ProbeCore + PlannedDetector + ?Sized>(
    core: &mut C,
    keys: Keys<'_>,
) -> Vec<ProbePlan> {
    let mut plans = std::mem::take(&mut core.bufs().plans);
    plan_keys_into(core.probe_planner(), keys, &mut plans);
    plans
}

/// Hashes a key batch into `plans` (cleared first, one plan per key in
/// order): the one place a frontend matches on the key view.
pub(crate) fn plan_keys_into(planner: Planner, keys: Keys<'_>, plans: &mut Vec<ProbePlan>) {
    match keys {
        Keys::Refs(ids) => planner.plan_refs_into(ids, plans),
        Keys::Flat { bytes, key_len } => planner.plan_flat_into(bytes, key_len, plans),
    }
}

/// Applies one plan at `tick` through the single-element scratch buffer.
pub(crate) fn apply_plan_at<C: TimedCore + ?Sized>(
    core: &mut C,
    plan: ProbePlan,
    tick: u64,
) -> Verdict {
    let unit = core.unit_of(tick);
    apply_plan_in_unit(core, plan, unit)
}

/// Applies one plan at the current clock — the high-water unit, or unit
/// 0 before the first observation — so a tickless observation never
/// counts as a clock regression.
pub(crate) fn apply_plan_now<C: TimedCore + ?Sized>(core: &mut C, plan: ProbePlan) -> Verdict {
    let unit = core.high_water().unwrap_or(0);
    apply_plan_in_unit(core, plan, unit)
}

fn apply_plan_in_unit<C: TimedCore + ?Sized>(core: &mut C, plan: ProbePlan, unit: u64) -> Verdict {
    let mut probe = std::mem::take(&mut core.bufs().probe);
    probe.resize(core.probe_width(), 0);
    core.fill_probes(plan, &mut probe);
    let unit = core.advance_to(unit);
    let stamp_now = core.stamp_of(unit);
    let verdict = core.apply_probes_at(plan, &probe, stamp_now);
    core.bufs().probe = probe;
    verdict
}

/// Replays a batch of plans, each at the current clock
/// ([`apply_plan_now`]): what a timed core does with tickless plans.
pub(crate) fn replay_plans_now_into<C: TimedCore + ?Sized>(
    core: &mut C,
    plans: &[ProbePlan],
    out: &mut Vec<Verdict>,
) {
    out.clear();
    out.extend(plans.iter().map(|&plan| apply_plan_now(core, plan)));
}

/// Timed replay of a batch of plans: with `None`, each at the current
/// clock; with one tick per plan, through one flat probe expansion with
/// lookahead prefetch and a per-run clock cache — `advance_to` and the
/// wraparound stamp are recomputed only when an element's unit differs
/// from its predecessor's, so a burst of clicks inside one unit pays
/// the division once. Clamped runs still count one regression per
/// element to match the sequential path.
///
/// # Panics
/// Panics if `plans.len() != ticks.len()`.
pub(crate) fn replay_plans_at_into<C: TimedCore + ?Sized>(
    core: &mut C,
    plans: &[ProbePlan],
    ticks: Option<&[u64]>,
    out: &mut Vec<Verdict>,
) {
    let Some(ticks) = ticks else {
        return replay_plans_now_into(core, plans, out);
    };
    assert_eq!(plans.len(), ticks.len(), "one tick per key");
    let w = core.probe_width();
    let one_line = core.probes_share_line();
    let mut flat = std::mem::take(&mut core.bufs().flat);
    expand_plans(core, plans, &mut flat);
    out.clear();
    // Per-run clock cache: (raw unit, stamp, whether the run is clamped).
    let mut run: Option<(u64, u64, bool)> = None;
    let mut ahead = flat.chunks_exact(w).skip(PREFETCH_AHEAD);
    for ((plan, slot), &tick) in plans.iter().zip(flat.chunks_exact(w)).zip(ticks) {
        if let Some(next) = ahead.next() {
            if one_line {
                core.prefetch(next[0]);
            } else {
                for &j in next {
                    core.prefetch(j);
                }
            }
        }
        let raw = core.unit_of(tick);
        let stamp_now = match run {
            Some((r, stamp, clamped)) if r == raw => {
                if clamped {
                    core.note_regression();
                }
                stamp
            }
            _ => {
                let high_water = core.high_water();
                let unit = core.advance_to(raw);
                let clamped = high_water.is_some_and(|h| raw < h);
                let stamp = core.stamp_of(unit);
                run = Some((raw, stamp, clamped));
                stamp
            }
        };
        out.push(core.apply_probes_at(*plan, slot, stamp_now));
    }
    core.bufs().flat = flat;
}

/// The time-window batch frontend: hashes a batch of keys and replays
/// the plans at their ticks (or, with `None`, at the current clock).
///
/// # Panics
/// Panics if the key count differs from `ticks.len()`.
pub(crate) fn observe_keys_at_into<C: TimedCore + PlannedDetector + ?Sized>(
    core: &mut C,
    keys: Keys<'_>,
    ticks: Option<&[u64]>,
    out: &mut Vec<Verdict>,
) {
    let plans = plan_keys(core, keys);
    replay_plans_at_into(core, &plans, ticks, out);
    core.bufs().plans = plans;
}

/// The `k_eff` saturation cap shared by every blocked backend: probes
/// per element are capped at half the block so one insertion can never
/// saturate its cache line (see `crate::Gbf` for the rationale).
pub(crate) fn effective_k(k: usize, geo: Option<&BlockGeometry>) -> usize {
    match geo {
        Some(g) => k.min(g.slots() / 2).max(1),
        None => k,
    }
}
