//! The scenario sweep driver: brute-force a [`ScenarioSpec`]'s declared
//! grid over (algo, memory, k, Q, layout, shards, batch, dispatch)
//! against its compiled click stream. It is the one harness for
//! detector comparisons: the `scenarios/bench_*.toml` specs are the
//! benchmark records.
//!
//! One compiled stream, many detector configurations. For every
//! [`SweepPoint`] of the grid the driver:
//!
//! 1. resolves `algo = "auto"` through the
//!    [`cfd_analysis::select`] closed forms;
//! 2. replays the stream through an exact oracle matching the
//!    backend's window semantics (sliding for TBF/APBF/SWBF, jumping
//!    for GBF, wall-clock for the time variants) — cached per
//!    semantics, so the grid doesn't re-pay it;
//! 3. runs an accuracy pass (false positives / false negatives against
//!    the oracle) and `rounds` timed passes with the configuration
//!    order alternated between rounds, reporting the median clicks/s.
//!    `batch = 1` judges click by click through `observe_at`; larger
//!    batches replay through `observe_keys_into` over flat keys, the path the
//!    pipeline workers use (a sharded count window hashes each click
//!    once for routing and probing). A `wide` or `scalar` dispatch pins
//!    the SIMD kernels for the point's passes. Every timed round must
//!    flag as many duplicates as the accuracy pass;
//! 4. folds the per-config rows into a compare-groups report along the
//!    spec's `group_by` axis.
//!
//! A capped run (`--quick`) shrinks every click-denominated length of
//! the spec with the stream, so a window sized for the full stream
//! still fills ([`SweepOptions::max_clicks`]).
//!
//! [`report_json`] emits the `cfd-bench-sweep/1` artifact;
//! [`render_table`] the human table. `tools/check_bench.py` holds every
//! gate on the artifact: the FP models, the spec's `[[gates]]` ratio
//! floors, and the checks that hold on every sweep (no occupancy scan,
//! identical verdicts across batch and dispatch, memory within ±12% of
//! a `bits_per_element` budget). Used by `cfd sweep --scenario <file>`.

use cfd_analysis::select::{auto_select, auto_select_timed, AutoChoice};
use cfd_core::config::ProbeLayout;
use cfd_core::registry::{self, BackendGeometry, DetectorBackend, MemorySpec};
use cfd_core::sharded::ShardedDetector;
use cfd_core::{simd, ShardRouter};
use cfd_stream::scenario::{Budget, ScenarioSpec, ScenarioWindow, SweepPoint, GROUP_BY_AXES};
use cfd_stream::Click;
use cfd_windows::{
    DuplicateDetector, ExactJumpingDedup, ExactSlidingDedup, ExactTimeJumpingDedup,
    ExactTimeSlidingDedup, Keys, ObservableDetector, Verdict, WindowSpec,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Bytes per click key ([`Click::key`]).
const KEY_LEN: usize = 16;

/// How hard to drive the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Quick (CI) scale: clicks capped, fewer timed rounds.
    pub quick: bool,
    /// Timed rounds per configuration (the median is reported).
    pub rounds: usize,
    /// Cap on the stream length, regardless of the spec. A cap below
    /// the spec's `clicks` shrinks the spec's windows with it.
    pub max_clicks: Option<u64>,
}

impl SweepOptions {
    /// Full scale: the spec's click count, 10 timed rounds.
    #[must_use]
    pub fn full() -> Self {
        Self {
            quick: false,
            rounds: 10,
            max_clicks: None,
        }
    }

    /// CI smoke scale: at most 2^18 clicks, 2 timed rounds.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            quick: true,
            rounds: 2,
            max_clicks: Some(1 << 18),
        }
    }
}

/// The measured outcome of one grid point.
#[derive(Debug, Clone)]
pub struct ConfigOutcome {
    /// The grid point as declared (algo possibly `auto`).
    pub point: SweepPoint,
    /// The backend actually built.
    pub resolved_algo: String,
    /// The closed-form FP prediction behind an `auto` resolution.
    pub auto_predicted_fp: Option<f64>,
    /// Whether that prediction met the spec's `target_fp`.
    pub auto_meets_target: Option<bool>,
    /// Distinct clicks under the oracle's window semantics.
    pub distinct: u64,
    /// Oracle duplicates (ground truth).
    pub duplicates: u64,
    /// Duplicates the detector reported.
    pub detected: u64,
    /// Detector said duplicate, oracle said distinct.
    pub false_positives: u64,
    /// Detector said distinct, oracle said duplicate. For unsharded
    /// configs this is bounded by `false_positives`: the paper's
    /// no-false-negative guarantee holds for every *inserted* click,
    /// and the only way a click goes uninserted is an earlier false
    /// positive on the same id (which suppresses the stamp), so each
    /// miss is pre-paid by an FP. Sharded configs can also miss via
    /// per-shard window slide-out (`cfd_analysis::sharding`).
    pub false_negatives: u64,
    /// `false_positives / distinct`.
    pub fp_rate: f64,
    /// The closed-form FP model of the built shape, per shard (every
    /// backend but blocked `jumping-tbf`; a sharded count window only
    /// over a stream that repeats no id).
    pub fp_model: Option<f64>,
    /// Detector memory, bits.
    pub memory_bits: u64,
    /// Occupancy scans over the accuracy and timed passes.
    pub occupancy_scans: u64,
    /// Every timed round, clicks/s.
    pub rates: Vec<f64>,
    /// Median of `rates`.
    pub clicks_per_sec: f64,
}

/// One `group_by` bucket of the compare-groups report.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// The axis value (e.g. `"gbf"` when grouping by algo).
    pub value: String,
    /// Grid points in the bucket.
    pub configs: usize,
    /// Best median throughput in the bucket.
    pub best_clicks_per_sec: f64,
    /// Label of the config that achieved it.
    pub best_config: String,
    /// Lowest measured FP rate in the bucket.
    pub min_fp_rate: f64,
    /// Highest measured FP rate in the bucket.
    pub max_fp_rate: f64,
    /// Smallest detector in the bucket, bits.
    pub min_memory_bits: u64,
    /// `true` when every unsharded config in the bucket kept its
    /// misses within the FP-propagation bound (`fn ≤ fp`).
    pub fn_within_fp_bound: bool,
}

/// A finished sweep: the spec, the stream's vitals, and every row.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The scenario that was swept (windows as run: shrunk at a capped
    /// scale).
    pub spec: ScenarioSpec,
    /// Whether this ran at quick (CI) scale.
    pub quick: bool,
    /// Clicks actually streamed (after any quick-scale cap).
    pub clicks: u64,
    /// Injected guaranteed duplicates in the stream.
    pub injected: u64,
    /// Timed rounds per config.
    pub rounds: usize,
    /// Lanes the `wide` dispatch runs on this host (1 without AVX2).
    pub lanes: usize,
    /// One row per grid point, in grid order.
    pub configs: Vec<ConfigOutcome>,
    /// The compare-groups folding along `spec.sweep.group_by`.
    pub groups: Vec<GroupSummary>,
}

/// Window semantics an exact oracle must replay — the cache key that
/// lets every same-semantics grid point share one oracle pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OracleKind {
    Sliding,
    Jumping(usize),
    TimeSliding,
    TimeJumping(usize),
}

/// The oracle semantics of a built detector's window.
fn oracle_kind(window: WindowSpec) -> OracleKind {
    match window {
        WindowSpec::Jumping { q, .. } => OracleKind::Jumping(q),
        WindowSpec::TimeSliding { .. } => OracleKind::TimeSliding,
        WindowSpec::TimeJumping { q, .. } => OracleKind::TimeJumping(q),
        _ => OracleKind::Sliding,
    }
}

/// Registry backends the sweep accepts under the spec's window model:
/// time backends under a time window, count backends under a count
/// window (`arena` needs per-tenant ground truth the global oracles
/// cannot express; it has its own harness in `throughput --tenants`).
fn sweepable(spec: &ScenarioSpec) -> impl Iterator<Item = &'static registry::BackendEntry> {
    let timed = spec.window.is_timed();
    registry::backends()
        .iter()
        .filter(move |e| e.timed == timed && e.name != "arena")
}

fn validate_algos(spec: &ScenarioSpec) -> Result<(), String> {
    for algo in &spec.sweep.algos {
        if algo != "auto" && !sweepable(spec).any(|e| e.name == algo) {
            let names: Vec<&str> = sweepable(spec).map(|e| e.name).collect();
            return Err(format!(
                "sweep.algo: `{algo}` is not sweepable under window.model = \"{}\" \
                 (accepted: auto, {})",
                if spec.window.is_timed() {
                    "time"
                } else {
                    "count"
                },
                names.join(", ")
            ));
        }
    }
    Ok(())
}

/// The spec as run with its stream capped at `clicks`: unchanged when
/// the cap does not bind, else every click-denominated length (window
/// capacity, unit ticks, injection lag, ramp period) divided by the
/// power of two that brings the spec's click count under the cap.
fn at_scale(spec: &ScenarioSpec, clicks: u64) -> ScenarioSpec {
    let mut spec = spec.clone();
    if clicks >= spec.clicks {
        return spec;
    }
    let div = spec.clicks.div_ceil(clicks.max(1)).next_power_of_two();
    let shrink = |x: u64| (x / div).max(1);
    match &mut spec.window {
        ScenarioWindow::Count { n } => *n = shrink(*n as u64) as usize,
        ScenarioWindow::Time { n, unit_ticks, .. } => {
            *n = shrink(*n as u64) as usize;
            *unit_ticks = shrink(*unit_ticks);
        }
    }
    spec.inject.max_lag = shrink(spec.inject.max_lag as u64) as usize;
    if let Some(r) = spec.ramp.as_mut() {
        r.period = shrink(r.period);
    }
    spec.clicks = clicks;
    spec
}

fn parse_layout(layout: &str) -> ProbeLayout {
    match layout {
        "blocked" => ProbeLayout::Blocked,
        _ => ProbeLayout::Scattered,
    }
}

/// `geo` funded by `budget` at its own window: `c` cells or `b` bits
/// per element of it.
fn funded(geo: BackendGeometry, budget: Budget) -> BackendGeometry {
    BackendGeometry {
        memory: match budget {
            Budget::CellsPerElement(c) => MemorySpec::CellsPerElement(c),
            Budget::BitsPerElement(b) => MemorySpec::TotalBits(geo.window * b),
        },
        ..geo
    }
}

/// The whole-stream geometry of one grid point: the spec's window (and
/// time units, under a time window) at the point's budget, `k`, `Q` and
/// layout.
fn geometry(spec: &ScenarioSpec, point: &SweepPoint) -> BackendGeometry {
    let geo = BackendGeometry::new(spec.window.n(), MemorySpec::CellsPerElement(1))
        .with_sub_windows(point.q)
        .with_hash_count(point.k)
        .with_seed(spec.seed)
        .with_probe(parse_layout(&point.layout));
    let geo = match spec.window {
        ScenarioWindow::Time {
            window_units,
            sub_units,
            unit_ticks,
            ..
        } => geo.with_time_units(window_units, sub_units, unit_ticks),
        ScenarioWindow::Count { .. } => geo,
    };
    funded(geo, point.budget)
}

/// The geometry each shard of a grid point is built at: the spec's
/// window split over the shards, funded at the point's budget per
/// element of its own share (so a sharded row spends what an unsharded
/// one does), probing with the router's hash family so one hash per
/// click serves routing and probing. One shard is the whole geometry.
fn shard_geometry(
    spec: &ScenarioSpec,
    point: &SweepPoint,
    timed: bool,
) -> Result<BackendGeometry, String> {
    let geo = geometry(spec, point);
    if point.shards == 1 {
        return Ok(geo);
    }
    let router = ShardRouter::new(spec.seed, point.shards).map_err(|e| e.to_string())?;
    Ok(funded(geo.for_shards(point.shards, timed), point.budget).with_seed(router.probe_seed()))
}

/// One grid point's detector: a registry backend, or shards of one
/// behind a router. Sharded count windows judge batches hash-once
/// ([`ShardedDetector::observe_batch_hash_once`]); sharded time windows
/// take the generic scatter/gather with ticks, which hashes each click
/// twice (once to route, once to probe).
enum Driver {
    One(Box<dyn DetectorBackend>),
    Sharded {
        shards: ShardedDetector<Box<dyn DetectorBackend>>,
        hash_once: bool,
    },
}

impl Driver {
    /// Builds the detector for one grid point, each shard at its
    /// [`shard_geometry`].
    fn build(resolved: &str, spec: &ScenarioSpec, point: &SweepPoint) -> Result<Self, String> {
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", point.label());
        let entry = registry::find(resolved).ok_or_else(|| err(&"not a registry backend"))?;
        let geo = shard_geometry(spec, point, entry.timed).map_err(|e| err(&e))?;
        let one = || entry.build(&geo).map_err(|e| err(&e));
        if point.shards == 1 {
            return Ok(Self::One(one()?));
        }
        let inner = (0..point.shards)
            .map(|_| one())
            .collect::<Result<Vec<_>, _>>()?;
        let shards = ShardedDetector::new(spec.seed, inner).map_err(|e| err(&e))?;
        debug_assert!(shards.hash_once_aligned());
        Ok(Self::Sharded {
            shards,
            hash_once: !entry.timed,
        })
    }

    fn detector(&mut self) -> &mut dyn ObservableDetector {
        match self {
            Self::One(d) => d,
            Self::Sharded { shards, .. } => shards,
        }
    }

    /// Judges the whole stream, each click at its tick, handing every
    /// batch's verdicts to `each`: click by click through `observe_at`
    /// for `batch = 1`, else through `observe_keys_into` (or the
    /// hash-once path of a sharded count window).
    fn replay(
        &mut self,
        keys: &[u8],
        ticks: &[u64],
        batch: usize,
        mut each: impl FnMut(&[Verdict]),
    ) {
        match self {
            Self::Sharded {
                shards,
                hash_once: true,
            } if batch > 1 => {
                let mut ids = Vec::with_capacity(batch);
                for chunk in keys.chunks(batch * KEY_LEN) {
                    ids.clear();
                    ids.extend(chunk.chunks_exact(KEY_LEN));
                    each(&shards.observe_batch_hash_once(&ids));
                }
            }
            Self::One(d) => replay_on(d, keys, ticks, batch, each),
            Self::Sharded { shards, .. } => replay_on(shards, keys, ticks, batch, each),
        }
    }
}

fn replay_on(
    d: &mut impl DuplicateDetector,
    keys: &[u8],
    ticks: &[u64],
    batch: usize,
    mut each: impl FnMut(&[Verdict]),
) {
    if batch == 1 {
        for (key, &tick) in keys.chunks_exact(KEY_LEN).zip(ticks) {
            each(&[d.observe_at(key, tick)]);
        }
        return;
    }
    let mut out = Vec::with_capacity(batch);
    for (kc, tc) in keys.chunks(batch * KEY_LEN).zip(ticks.chunks(batch)) {
        d.observe_keys_into(Keys::flat(kc, KEY_LEN), Some(tc), &mut out);
        each(&out);
    }
}

/// Replays the stream through the exact oracle of the given semantics
/// over `geo`'s window (count oracles ignore the ticks).
fn oracle_verdicts(
    kind: OracleKind,
    geo: &BackendGeometry,
    keys: &[u8],
    ticks: &[u64],
) -> Vec<bool> {
    let mut oracle: Box<dyn DuplicateDetector> = match kind {
        OracleKind::Sliding => Box::new(ExactSlidingDedup::new(geo.window)),
        OracleKind::Jumping(q) => Box::new(ExactJumpingDedup::new(geo.window, q.max(1))),
        OracleKind::TimeSliding => {
            Box::new(ExactTimeSlidingDedup::new(geo.window_units, geo.unit_ticks))
        }
        OracleKind::TimeJumping(q) => Box::new(ExactTimeJumpingDedup::new(
            q.max(1),
            geo.sub_units,
            geo.unit_ticks,
        )),
    };
    keys.chunks_exact(KEY_LEN)
        .zip(ticks)
        .map(|(k, &t)| oracle.observe_at(k, t) == Verdict::Duplicate)
        .collect()
}

/// The closed-form FP model of the shape the registry builds at `geo`
/// (a sharded row's per-shard geometry: each shard sees its share of
/// the stream through its share of the window). A time backend runs its
/// count twin's algorithm over a window holding `n` clicks, so it
/// shares the twin's model. Blocked `jumping-tbf` has none.
fn fp_model_for(resolved: &str, geo: &BackendGeometry) -> Option<f64> {
    use cfd_analysis::blocked::{fp_blocked_gbf, fp_blocked_tbf};
    use cfd_analysis::{apbf, gbf, swbf, tbf};
    let n = geo.window;
    Some(match resolved {
        "tbf" | "time-tbf" => {
            let (m, k, block) = if resolved == "tbf" {
                let c = registry::tbf_config(geo).ok()?;
                (c.m, c.k, c.block_geometry())
            } else {
                let c = registry::time_tbf_config(geo).ok()?;
                (c.m, c.k, c.block_geometry())
            };
            match block {
                None => tbf::fp_sliding(m, k, n),
                Some(b) => fp_blocked_tbf(m, b.slots(), k, n),
            }
        }
        "gbf" | "time-gbf" => {
            let (m, k, q, block) = if resolved == "gbf" {
                let c = registry::gbf_config(geo).ok()?;
                (c.m, c.k, c.q, c.block_geometry())
            } else {
                let c = registry::time_gbf_config(geo).ok()?;
                (c.m, c.k, c.q, c.block_geometry())
            };
            match block {
                None => gbf::fp_worst_case(m, k, n, q),
                Some(b) => fp_blocked_gbf(m, b.slots(), k, n, q),
            }
        }
        "jumping-tbf" if geo.probe == ProbeLayout::Scattered => {
            let c = registry::jumping_tbf_config(geo).ok()?;
            tbf::fp_jumping_bounds(c.m, c.k, n, c.q).1
        }
        "apbf" => {
            let c = registry::apbf_config(geo).ok()?;
            let cap = c.slice_capacity();
            match c.probe {
                ProbeLayout::Scattered => apbf::fp_sliding(n, c.k, c.l, cap),
                ProbeLayout::Blocked => {
                    // One lane of every 512-bit line per slice.
                    let lines = c.total_bits / 512;
                    apbf::fp_sliding_blocked(n, c.k, c.l, lines, cap / lines.max(1))
                }
            }
        }
        "swbf" => {
            let c = registry::swbf_config(geo).ok()?;
            let (cells, side, fpb) = (c.cells(), c.side_cells(), c.fingerprint_bits);
            let (b, k_side) = (c.effective_candidates(), cfd_core::swbf::K_SIDE);
            match c.block_geometry() {
                None => swbf::fp_sliding(n, cells, side, fpb, b, k_side),
                Some(g) => swbf::fp_sliding_blocked(n, cells, side, fpb, g.slots(), b, k_side),
            }
        }
        _ => return None,
    })
}

/// Resolves `auto` for the spec's window model at this grid point
/// (the parser only admits `auto` on a `cells_per_element` grid).
fn resolve_auto(spec: &ScenarioSpec, point: &SweepPoint) -> AutoChoice {
    let select = if spec.window.is_timed() {
        auto_select_timed
    } else {
        auto_select
    };
    select(
        spec.window.n(),
        point.q,
        point.budget.per_element(),
        point.k,
        spec.sweep.target_fp,
    )
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Pins the SIMD kernel dispatch for one grid point's passes and
/// restores the environment's choice when dropped.
struct DispatchPin;

impl DispatchPin {
    fn new(dispatch: &str) -> Self {
        simd::set_scalar_override(match dispatch {
            "wide" => Some(false),
            "scalar" => Some(true),
            _ => None,
        });
        Self
    }
}

impl Drop for DispatchPin {
    fn drop(&mut self) {
        simd::set_scalar_override(None);
    }
}

/// Runs the full sweep of `spec` at the given scale.
///
/// # Errors
///
/// Returns a message naming the grid point (or spec field) when a
/// backend cannot be built or an algo is not sweepable.
pub fn run(spec: &ScenarioSpec, opts: &SweepOptions) -> Result<SweepReport, String> {
    validate_algos(spec)?;
    let spec = &at_scale(spec, opts.max_clicks.unwrap_or(u64::MAX));

    // Compile the stream once; every grid point replays the same
    // clicks.
    let mut stream = spec.compile();
    let clicks: Vec<Click> = stream
        .by_ref()
        .take(spec.clicks as usize)
        .map(|sc| sc.click)
        .collect();
    let injected = stream.injected_duplicates();
    let keys: Vec<u8> = clicks.iter().flat_map(Click::key).collect();
    let ticks: Vec<u64> = clicks.iter().map(|c| c.tick).collect();
    drop(clicks);

    let grid = spec.grid();
    let mut oracles: HashMap<OracleKind, Rc<Vec<bool>>> = HashMap::new();
    let mut outcomes: Vec<ConfigOutcome> = Vec::with_capacity(grid.len());

    // Accuracy pass (also the warm-up) per grid point.
    for point in &grid {
        let (resolved, auto_predicted_fp, auto_meets_target) = if point.algo == "auto" {
            let choice = resolve_auto(spec, point);
            (
                choice.algo.to_owned(),
                Some(choice.predicted_fp),
                Some(choice.meets_target),
            )
        } else {
            (point.algo.clone(), None, None)
        };

        let _pin = DispatchPin::new(&point.dispatch);
        let mut driver = Driver::build(&resolved, spec, point)?;
        let kind = oracle_kind(driver.detector().window());
        let geo = geometry(spec, point);
        let oracle = oracles
            .entry(kind)
            .or_insert_with(|| Rc::new(oracle_verdicts(kind, &geo, &keys, &ticks)))
            .clone();

        let memory_bits = driver.detector().memory_bits() as u64;
        let (mut fp, mut fneg, mut detected, mut dup_truth) = (0u64, 0u64, 0u64, 0u64);
        let mut truths = oracle.iter();
        driver.replay(&keys, &ticks, point.batch, |verdicts| {
            for (&v, &truth) in verdicts.iter().zip(&mut truths) {
                let said_dup = v == Verdict::Duplicate;
                detected += u64::from(said_dup);
                dup_truth += u64::from(truth);
                fp += u64::from(said_dup && !truth);
                fneg += u64::from(!said_dup && truth);
            }
        });
        let distinct = ticks.len() as u64 - dup_truth;
        // Shards are modelled per shard. Against the global oracle a
        // sharded count window's FP also counts repeats its shard
        // window still holds after the global one let them go, which no
        // filter model bounds, unless the stream repeats no id. Time
        // shards share one clock, so their window is the global one.
        let timed = spec.window.is_timed();
        let modelled = point.shards == 1 || timed || dup_truth == 0;
        outcomes.push(ConfigOutcome {
            point: point.clone(),
            fp_model: shard_geometry(spec, point, timed)
                .ok()
                .filter(|_| modelled)
                .and_then(|shard| fp_model_for(&resolved, &shard)),
            resolved_algo: resolved,
            auto_predicted_fp,
            auto_meets_target,
            distinct,
            duplicates: dup_truth,
            detected,
            false_positives: fp,
            false_negatives: fneg,
            fp_rate: if distinct == 0 {
                0.0
            } else {
                fp as f64 / distinct as f64
            },
            memory_bits,
            occupancy_scans: driver.detector().occupancy_scans(),
            rates: Vec::new(),
            clicks_per_sec: 0.0,
        });
    }

    // Timed rounds, configuration order alternated so drift hits the
    // grid symmetrically. Every round must repeat the accuracy pass's
    // verdicts.
    for round in 0..opts.rounds {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..outcomes.len()).collect()
        } else {
            (0..outcomes.len()).rev().collect()
        };
        for idx in order {
            let o = &mut outcomes[idx];
            let _pin = DispatchPin::new(&o.point.dispatch);
            let mut driver = Driver::build(&o.resolved_algo, spec, &o.point)?;
            let mut detected = 0u64;
            let start = Instant::now();
            driver.replay(&keys, &ticks, o.point.batch, |verdicts| {
                detected += verdicts.iter().filter(|v| v.is_duplicate()).count() as u64;
            });
            let rate = ticks.len() as f64 / start.elapsed().as_secs_f64();
            if detected != o.detected {
                return Err(format!(
                    "{}: timed round {round} flagged {detected} duplicates, the accuracy pass {}",
                    o.point.label(),
                    o.detected
                ));
            }
            o.rates.push(rate);
            o.occupancy_scans += driver.detector().occupancy_scans();
        }
    }
    for o in &mut outcomes {
        o.clicks_per_sec = median(&o.rates);
    }

    Ok(SweepReport {
        groups: fold_groups(spec, &outcomes),
        spec: spec.clone(),
        quick: opts.quick,
        clicks: ticks.len() as u64,
        injected,
        rounds: opts.rounds,
        lanes: {
            let _wide = DispatchPin::new("wide");
            simd::active_lanes()
        },
        configs: outcomes,
    })
}

/// Folds per-config rows into `group_by` buckets, in first-seen order
/// (which is grid order, so it follows the spec's axis order).
fn fold_groups(spec: &ScenarioSpec, outcomes: &[ConfigOutcome]) -> Vec<GroupSummary> {
    let axis = &spec.sweep.group_by;
    let mut order: Vec<String> = Vec::new();
    let mut buckets: HashMap<String, Vec<&ConfigOutcome>> = HashMap::new();
    for o in outcomes {
        let value = o.point.axis(axis);
        if !buckets.contains_key(&value) {
            order.push(value.clone());
        }
        buckets.entry(value).or_default().push(o);
    }
    order
        .into_iter()
        .map(|value| {
            let rows = &buckets[&value];
            let best = rows
                .iter()
                .max_by(|a, b| a.clicks_per_sec.total_cmp(&b.clicks_per_sec))
                .expect("bucket is never empty");
            GroupSummary {
                value,
                configs: rows.len(),
                best_clicks_per_sec: best.clicks_per_sec,
                best_config: best.point.label(),
                min_fp_rate: rows.iter().map(|o| o.fp_rate).fold(f64::INFINITY, f64::min),
                max_fp_rate: rows.iter().map(|o| o.fp_rate).fold(0.0, f64::max),
                min_memory_bits: rows.iter().map(|o| o.memory_bits).min().unwrap_or(0),
                fn_within_fp_bound: rows
                    .iter()
                    .all(|o| o.point.shards > 1 || o.false_negatives <= o.false_positives),
            }
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_f64(x: f64) -> String {
    if x == 0.0 {
        "0.0".to_owned()
    } else {
        format!("{x:.6e}")
    }
}

fn json_opt_f64(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_owned(), json_f64)
}

fn json_str_array(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// A grid axis value as JSON: a string for the named axes, a number
/// otherwise, `null` for the budget key a grid does not use.
fn json_axis_value(axis: &str, value: &str) -> String {
    match (axis, value) {
        (_, "-") => "null".to_owned(),
        ("algo" | "layout" | "dispatch", v) => format!("\"{}\"", json_escape(v)),
        (_, v) => v.to_owned(),
    }
}

/// Serializes a report as the `cfd-bench-sweep/1` JSON artifact.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn report_json(r: &SweepReport) -> String {
    let spec = &r.spec;
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"cfd-bench-sweep/1\",\n");
    let _ = writeln!(
        out,
        "  \"scale\": \"{}\",",
        if r.quick { "quick" } else { "full" }
    );
    let _ = writeln!(out, "  \"clicks\": {},", r.clicks);
    let _ = writeln!(out, "  \"rounds\": {},", r.rounds);
    let _ = writeln!(out, "  \"injected_duplicates\": {},", r.injected);
    let _ = writeln!(out, "  \"lanes\": {},", r.lanes);
    let _ = writeln!(out, "  \"scenario\": {{");
    let _ = writeln!(out, "    \"name\": \"{}\",", json_escape(&spec.name));
    let _ = writeln!(out, "    \"seed\": {},", spec.seed);
    let _ = writeln!(
        out,
        "    \"window_model\": \"{}\",",
        if spec.window.is_timed() {
            "time"
        } else {
            "count"
        }
    );
    let _ = writeln!(out, "    \"window_n\": {},", spec.window.n());
    let mix: Vec<String> = spec
        .traffic
        .mix
        .iter()
        .map(|e| e.kind.name().to_owned())
        .collect();
    let _ = writeln!(out, "    \"mix_kinds\": {},", json_str_array(&mix));
    let _ = writeln!(out, "    \"inject_rate\": {}", json_f64(spec.inject.rate));
    let _ = writeln!(out, "  }},");
    let s = &spec.sweep;
    let _ = writeln!(out, "  \"group_by\": \"{}\",", json_escape(&s.group_by));
    let _ = writeln!(out, "  \"grid\": {{");
    for axis in GROUP_BY_AXES {
        let values: Vec<String> = s
            .axis_values(axis)
            .iter()
            .map(|v| json_axis_value(axis, v))
            .collect();
        let _ = writeln!(out, "    \"{axis}\": [{}],", values.join(", "));
    }
    let _ = writeln!(out, "    \"target_fp\": {}", json_f64(s.target_fp));
    let _ = writeln!(out, "  }},");
    let gates: Vec<String> = spec
        .gates
        .iter()
        .map(|g| {
            format!(
                "{{\"axis\": \"{}\", \"num\": \"{}\", \"den\": \"{}\", \"floor\": {}, \"algos\": {}}}",
                json_escape(&g.axis),
                json_escape(&g.num),
                json_escape(&g.den),
                json_f64(g.floor),
                json_str_array(&g.algos)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"gates\": [{}],", gates.join(", "));
    out.push_str("  \"configs\": [\n");
    for (i, o) in r.configs.iter().enumerate() {
        let p = &o.point;
        out.push_str("    {");
        for axis in GROUP_BY_AXES {
            let _ = write!(
                out,
                "\"{axis}\": {}, ",
                json_axis_value(axis, &p.axis(axis))
            );
        }
        let _ = write!(
            out,
            "\"resolved_algo\": \"{}\", \"distinct\": {}, \"duplicates\": {}, \"detected\": {}, \
             \"false_positives\": {}, \"false_negatives\": {}, \"fp_rate\": {}, ",
            json_escape(&o.resolved_algo),
            o.distinct,
            o.duplicates,
            o.detected,
            o.false_positives,
            o.false_negatives,
            json_f64(o.fp_rate)
        );
        let _ = write!(
            out,
            "\"fp_model\": {}, \"auto_predicted_fp\": {}, \"auto_meets_target\": {}, ",
            json_opt_f64(o.fp_model),
            json_opt_f64(o.auto_predicted_fp),
            o.auto_meets_target
                .map_or_else(|| "null".to_owned(), |b| b.to_string()),
        );
        let rates: Vec<String> = o.rates.iter().map(|&x| json_f64(x)).collect();
        let _ = write!(
            out,
            "\"memory_bits\": {}, \"occupancy_scans\": {}, \
             \"clicks_per_sec_median\": {}, \"clicks_per_sec_rounds\": [{}]",
            o.memory_bits,
            o.occupancy_scans,
            json_f64(o.clicks_per_sec),
            rates.join(", ")
        );
        out.push_str(if i + 1 == r.configs.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ],\n  \"groups\": [\n");
    for (i, g) in r.groups.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(
            out,
            "\"value\": \"{}\", \"configs\": {}, \"best_clicks_per_sec\": {}, \
             \"best_config\": \"{}\", \"min_fp_rate\": {}, \"max_fp_rate\": {}, \
             \"min_memory_bits\": {}, \"fn_within_fp_bound\": {}",
            json_escape(&g.value),
            g.configs,
            json_f64(g.best_clicks_per_sec),
            json_escape(&g.best_config),
            json_f64(g.min_fp_rate),
            json_f64(g.max_fp_rate),
            g.min_memory_bits,
            g.fn_within_fp_bound
        );
        out.push_str(if i + 1 == r.groups.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the human-readable per-config table plus the compare-groups
/// summary.
#[must_use]
pub fn render_table(r: &SweepReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# sweep `{}` — {} clicks ({} injected duplicates), {} configs, {} rounds{}",
        r.spec.name,
        r.clicks,
        r.injected,
        r.configs.len(),
        r.rounds,
        if r.quick { " [quick]" } else { "" }
    );
    let _ = writeln!(
        out,
        "{:<48} {:>12} {:>10} {:>5} {:>12} {:>14}",
        "config", "fp_rate", "fp_model", "fn", "mem_bits", "clicks/s"
    );
    for o in &r.configs {
        let label = if o.point.algo == "auto" {
            format!("{} (auto->{})", o.point.label(), o.resolved_algo)
        } else {
            o.point.label()
        };
        let _ = writeln!(
            out,
            "{:<48} {:>12.3e} {:>10} {:>5} {:>12} {:>14.0}",
            label,
            o.fp_rate,
            o.fp_model
                .map_or_else(|| "-".to_owned(), |m| format!("{m:.1e}")),
            o.false_negatives,
            o.memory_bits,
            o.clicks_per_sec
        );
    }
    let _ = writeln!(out, "\n# compare groups by `{}`", r.spec.sweep.group_by);
    let _ = writeln!(
        out,
        "{:<20} {:>8} {:>14} {:>12} {:>12} {:>12} {:>7}",
        "group", "configs", "best clicks/s", "min fp", "max fp", "min bits", "fn<=fp"
    );
    for g in &r.groups {
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>14.0} {:>12.3e} {:>12.3e} {:>12} {:>7}",
            g.value,
            g.configs,
            g.best_clicks_per_sec,
            g.min_fp_rate,
            g.max_fp_rate,
            g.min_memory_bits,
            if g.fn_within_fp_bound { "yes" } else { "NO" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the sweeps: a `dispatch` row pins the process-wide
    /// kernel override, so two concurrent sweeps would unpin each
    /// other's rows.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    const SPEC: &str = r#"
[scenario]
name = "sweep-unit"
seed = 7
clicks = 6000

[window]
model = "count"
n = 1024

[traffic]
publishers = 4
ads = 16

[[traffic.mix]]
kind = "unique"
weight = 0.8

[[traffic.mix]]
kind = "zipf"
weight = 0.2
universe = 500
skew = 1.0

[inject]
rate = 0.05
max_lag = 256

[sweep]
algo = ["tbf", "gbf", "auto"]
cells_per_element = [14]
k = [8]
sub_windows = [8]
layout = ["scattered"]
shards = [1, 2]
batch = [128]
target_fp = 0.01
group_by = "algo"
"#;

    /// `spec` under a time window of 16 units of 64 ticks (time-gbf: 8
    /// sub-windows of 2 units).
    fn timed(spec: &str) -> String {
        spec.replace(
            "model = \"count\"\nn = 1024",
            "model = \"time\"\nn = 1024\nwindow_units = 16\nsub_units = 2\nunit_ticks = 64",
        )
    }

    fn quick() -> SweepOptions {
        SweepOptions {
            quick: true,
            rounds: 1,
            max_clicks: Some(6_000),
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_bounds_misses_by_false_positives() {
        let _serial = serial();
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let report = run(&spec, &quick()).unwrap();
        assert_eq!(report.configs.len(), 3 * 2);
        assert!(report.injected > 100, "injection too rare");
        for o in &report.configs {
            assert!(o.memory_bits > 0);
            assert!(o.clicks_per_sec > 0.0);
            assert!(
                o.duplicates > 0,
                "{}: oracle saw no duplicates",
                o.point.label()
            );
            if o.point.shards == 1 {
                // Every miss must be pre-paid by a false positive on
                // the same id (FP suppresses the insert).
                assert!(
                    o.false_negatives <= o.false_positives,
                    "{}: {} misses > {} false positives",
                    o.point.label(),
                    o.false_negatives,
                    o.false_positives
                );
            }
            if o.point.algo == "auto" {
                assert!(o.auto_predicted_fp.is_some());
                assert_ne!(o.resolved_algo, "auto");
            }
        }
        assert_eq!(report.groups.len(), 3);
        assert!(report.groups.iter().all(|g| g.configs == 2));
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let _serial = serial();
        let spec = ScenarioSpec::parse(SPEC).unwrap();
        let report = run(&spec, &quick()).unwrap();
        let json = report_json(&report);
        assert!(json.contains("\"schema\": \"cfd-bench-sweep/1\""));
        assert!(json.contains("\"groups\""));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the dependency set.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let table = render_table(&report);
        assert!(table.contains("compare groups"));
    }

    #[test]
    fn timed_specs_sweep_time_backends() {
        let _serial = serial();
        let spec_text = timed(SPEC).replace(
            "algo = [\"tbf\", \"gbf\", \"auto\"]",
            "algo = [\"time-tbf\", \"time-gbf\", \"auto\"]",
        );
        let spec = ScenarioSpec::parse(&spec_text).unwrap();
        let report = run(&spec, &quick()).unwrap();
        assert_eq!(report.configs.len(), 6);
        for o in &report.configs {
            assert!(o.resolved_algo.starts_with("time-"), "{}", o.resolved_algo);
            if o.point.shards == 1 {
                assert!(
                    o.false_negatives <= o.false_positives,
                    "{}: fn {} > fp {}",
                    o.point.label(),
                    o.false_negatives,
                    o.false_positives
                );
            }
        }
    }

    #[test]
    fn count_spec_rejects_time_backends_by_name() {
        let _serial = serial();
        let spec_text = SPEC.replace(
            "algo = [\"tbf\", \"gbf\", \"auto\"]",
            "algo = [\"time-tbf\"]",
        );
        let spec = ScenarioSpec::parse(&spec_text).unwrap();
        let err = run(&spec, &quick()).unwrap_err();
        assert!(err.contains("sweep.algo"), "{err}");
        // And arena is routed to its own harness.
        let spec_text = SPEC.replace("algo = [\"tbf\", \"gbf\", \"auto\"]", "algo = [\"arena\"]");
        let spec = ScenarioSpec::parse(&spec_text).unwrap();
        assert!(run(&spec, &quick()).unwrap_err().contains("sweep.algo"));
    }

    #[test]
    fn batch_and_dispatch_never_change_a_verdict() {
        let _serial = serial();
        let axes = "layout = [\"scattered\", \"blocked\"]\nshards = [1, 2]\n\
                    batch = [1, 256]\ndispatch = [\"wide\", \"scalar\"]";
        let grid = |algos: &str| {
            SPEC.replace("algo = [\"tbf\", \"gbf\", \"auto\"]", algos)
                .replace(
                    "layout = [\"scattered\"]\nshards = [1, 2]\nbatch = [128]",
                    axes,
                )
        };
        // Every count backend at an equal bits budget, which every
        // shard count must realize, then the time pair under a time
        // window.
        let count = grid("algo = [\"tbf\", \"gbf\", \"jumping-tbf\", \"apbf\", \"swbf\"]")
            .replace("cells_per_element = [14]", "bits_per_element = [272]");
        let time = timed(&grid("algo = [\"time-tbf\", \"time-gbf\"]"));
        for (text, algos) in [(count, 5), (time, 2)] {
            let report = run(&ScenarioSpec::parse(&text).unwrap(), &quick()).unwrap();
            assert_eq!(report.configs.len(), algos * 2 * 2 * 4);
            let counts = |o: &ConfigOutcome| (o.false_positives, o.false_negatives, o.detected);
            for family in report.configs.chunks(4) {
                assert!(family[0].detected > 0, "{}", family[0].point.label());
                for o in family {
                    assert_eq!(o.point.layout, family[0].point.layout);
                    assert_eq!(counts(o), counts(&family[0]), "{}", o.point.label());
                    assert_eq!(o.occupancy_scans, 0, "{}", o.point.label());
                    // Sharded count rows over repeating ids and blocked
                    // jumping-tbf have no model.
                    let modelled = (o.point.shards == 1 || algos == 2)
                        && (o.point.algo != "jumping-tbf" || o.point.layout == "scattered");
                    assert_eq!(o.fp_model.is_some(), modelled, "{}", o.point.label());
                    if o.point.budget == Budget::BitsPerElement(272) {
                        let used = o.memory_bits as f64 / (1024.0 * 272.0);
                        assert!((0.88..=1.12).contains(&used), "{}", o.point.label());
                    }
                }
            }
        }
    }

    #[test]
    fn capped_runs_shrink_click_lengths_so_windows_fill() {
        let spec = ScenarioSpec::parse(&timed(SPEC)).unwrap();
        assert_eq!(at_scale(&spec, 6_000), spec);
        // 6000 / 1000 rounds up to a divisor of 8.
        let small = at_scale(&spec, 1_000);
        let want = ScenarioWindow::Time {
            n: 128,
            window_units: 16,
            sub_units: 2,
            unit_ticks: 8,
        };
        assert_eq!(
            (small.clicks, small.window, small.inject.max_lag),
            (1_000, want, 32)
        );
    }
}
