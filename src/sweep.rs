//! The scenario sweep driver: brute-force a [`ScenarioSpec`]'s declared
//! grid over (algo, m, k, Q, layout, shards, batch) against its
//! compiled click stream.
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
//!    order alternated between rounds, reporting the median clicks/s —
//!    the same protocol as the `cfd-bench` binaries;
//! 4. folds the per-config rows into a compare-groups report along the
//!    spec's `group_by` axis.
//!
//! [`report_json`] emits the `cfd-bench-sweep/1` artifact
//! `tools/check_bench.py` validates; [`render_table`] the human table.
//!
//! Used by `cfd sweep --scenario <file>` and
//! `throughput --scenario <file>`.

use cfd_analysis::select::{auto_select, auto_select_timed, AutoChoice};
use cfd_core::config::ProbeLayout;
use cfd_core::registry::{self, BackendGeometry, MemorySpec};
use cfd_core::sharded::ShardedDetector;
use cfd_stream::scenario::{ScenarioSpec, ScenarioWindow, SweepPoint};
use cfd_stream::Click;
use cfd_windows::{
    DuplicateDetector, ExactJumpingDedup, ExactSlidingDedup, ExactTimeJumpingDedup,
    ExactTimeSlidingDedup, ObservableDetector, Verdict, WindowSpec,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// How hard to drive the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Quick (CI) scale: clicks capped, fewer timed rounds.
    pub quick: bool,
    /// Timed rounds per configuration (the median is reported).
    pub rounds: usize,
    /// Cap on the stream length, regardless of the spec.
    pub max_clicks: Option<u64>,
}

impl SweepOptions {
    /// Full scale: the spec's click count, 5 timed rounds.
    #[must_use]
    pub fn full() -> Self {
        Self {
            quick: false,
            rounds: 5,
            max_clicks: None,
        }
    }

    /// CI smoke scale: at most 2^15 clicks, 2 timed rounds.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            quick: true,
            rounds: 2,
            max_clicks: Some(1 << 15),
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
    /// Closed-form FP model where one applies (unsharded scattered
    /// TBF/GBF families).
    pub fp_model: Option<f64>,
    /// Detector memory, bits.
    pub memory_bits: u64,
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
    /// The scenario that was swept.
    pub spec: ScenarioSpec,
    /// Whether this ran at quick (CI) scale.
    pub quick: bool,
    /// Clicks actually streamed (after any quick-scale cap).
    pub clicks: u64,
    /// Injected guaranteed duplicates in the stream.
    pub injected: u64,
    /// Timed rounds per config.
    pub rounds: usize,
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

fn parse_layout(layout: &str) -> ProbeLayout {
    match layout {
        "blocked" => ProbeLayout::Blocked,
        _ => ProbeLayout::Scattered,
    }
}

/// The whole-stream geometry of one grid point: the spec's window (and
/// time units, under a time window) at the point's memory, `k`, `Q` and
/// layout.
fn geometry(spec: &ScenarioSpec, point: &SweepPoint) -> BackendGeometry {
    let geo = BackendGeometry::new(
        spec.window.n(),
        MemorySpec::CellsPerElement(point.cells_per_element),
    )
    .with_sub_windows(point.q)
    .with_hash_count(point.k)
    .with_seed(spec.seed)
    .with_probe(parse_layout(&point.layout));
    match spec.window {
        ScenarioWindow::Time {
            window_units,
            sub_units,
            unit_ticks,
            ..
        } => geo.with_time_units(window_units, sub_units, unit_ticks),
        ScenarioWindow::Count { .. } => geo,
    }
}

/// Builds the full (possibly sharded) detector for one grid point, each
/// shard at the registry's per-shard geometry. Count and time windows
/// are driven alike: every chunk is judged at its ticks, which count
/// windows ignore.
fn build_driver(
    resolved: &str,
    spec: &ScenarioSpec,
    point: &SweepPoint,
) -> Result<Box<dyn ObservableDetector + Send>, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", point.label());
    let entry = registry::find(resolved).ok_or_else(|| err(&"not a registry backend"))?;
    let geo = geometry(spec, point);
    if point.shards == 1 {
        return Ok(Box::new(entry.build(&geo).map_err(|e| err(&e))?));
    }
    let shard_geo = geo.for_shards(point.shards, entry.timed);
    let inner = (0..point.shards)
        .map(|_| entry.build(&shard_geo))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| err(&e))?;
    let sharded = ShardedDetector::new(spec.seed, inner).map_err(|e| err(&e))?;
    Ok(Box::new(sharded))
}

/// Replays the stream through the exact oracle of the given semantics
/// over `geo`'s window (count oracles ignore the ticks).
fn oracle_verdicts(
    kind: OracleKind,
    geo: &BackendGeometry,
    keys: &[[u8; 16]],
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
    keys.iter()
        .zip(ticks)
        .map(|(k, &t)| oracle.observe_at(k, t) == Verdict::Duplicate)
        .collect()
}

/// The closed-form FP model for rows where one applies: unsharded,
/// scattered, TBF/GBF families (the models the figures validate).
fn fp_model_for(resolved: &str, spec: &ScenarioSpec, point: &SweepPoint) -> Option<f64> {
    if point.shards != 1 || point.layout != "scattered" {
        return None;
    }
    let n = spec.window.n();
    let c = point.cells_per_element;
    // A time backend runs its count twin's algorithm over a window
    // holding `n` clicks, so it shares the twin's model.
    match resolved.strip_prefix("time-").unwrap_or(resolved) {
        "tbf" => Some(cfd_analysis::tbf::fp_sliding(n * c, point.k, n)),
        "gbf" => Some(cfd_analysis::gbf::fp_worst_case(
            n.div_ceil(point.q) * c,
            point.k,
            n,
            point.q,
        )),
        "jumping-tbf" => Some(cfd_analysis::tbf::fp_jumping_bounds(n * c, point.k, n, point.q).1),
        _ => None,
    }
}

/// Resolves `auto` for the spec's window model at this grid point.
fn resolve_auto(spec: &ScenarioSpec, point: &SweepPoint) -> AutoChoice {
    let select = if spec.window.is_timed() {
        auto_select_timed
    } else {
        auto_select
    };
    select(
        spec.window.n(),
        point.q,
        point.cells_per_element,
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

/// Judges the whole stream through `driver` in batches of `batch`, each
/// click at its tick, handing every batch's verdicts to `each`.
fn replay(
    driver: &mut Box<dyn ObservableDetector + Send>,
    keys: &[[u8; 16]],
    ticks: &[u64],
    batch: usize,
    mut each: impl FnMut(&[Verdict]),
) {
    let mut refs: Vec<&[u8]> = Vec::with_capacity(batch);
    let mut out = Vec::with_capacity(batch);
    for (kc, tc) in keys.chunks(batch).zip(ticks.chunks(batch)) {
        refs.clear();
        refs.extend(kc.iter().map(<[u8; 16]>::as_slice));
        driver.observe_batch_at_into(&refs, tc, &mut out);
        each(&out);
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

    // Compile the stream once; every grid point replays the same
    // clicks.
    let clicks_wanted = match opts.max_clicks {
        Some(cap) => spec.clicks.min(cap),
        None => spec.clicks,
    };
    let mut stream = spec.compile();
    let clicks: Vec<Click> = stream
        .by_ref()
        .take(clicks_wanted as usize)
        .map(|sc| sc.click)
        .collect();
    let injected = stream.injected_duplicates();
    let keys: Vec<[u8; 16]> = clicks.iter().map(Click::key).collect();
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

        let mut driver = build_driver(&resolved, spec, point)?;
        let kind = oracle_kind(driver.window());
        let oracle = oracles
            .entry(kind)
            .or_insert_with(|| {
                Rc::new(oracle_verdicts(kind, &geometry(spec, point), &keys, &ticks))
            })
            .clone();

        let memory_bits = driver.memory_bits() as u64;
        let (mut fp, mut fneg, mut detected, mut dup_truth) = (0u64, 0u64, 0u64, 0u64);
        let mut truths = oracle.iter();
        replay(&mut driver, &keys, &ticks, point.batch, |verdicts| {
            for (&v, &truth) in verdicts.iter().zip(&mut truths) {
                let said_dup = v == Verdict::Duplicate;
                detected += u64::from(said_dup);
                dup_truth += u64::from(truth);
                fp += u64::from(said_dup && !truth);
                fneg += u64::from(!said_dup && truth);
            }
        });
        let distinct = keys.len() as u64 - dup_truth;
        outcomes.push(ConfigOutcome {
            point: point.clone(),
            fp_model: fp_model_for(&resolved, spec, point),
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
            rates: Vec::new(),
            clicks_per_sec: 0.0,
        });
    }

    // Timed rounds, configuration order alternated so drift hits the
    // grid symmetrically.
    for round in 0..opts.rounds {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..outcomes.len()).collect()
        } else {
            (0..outcomes.len()).rev().collect()
        };
        for idx in order {
            let o = &mut outcomes[idx];
            let mut driver = build_driver(&o.resolved_algo, spec, &o.point)?;
            let start = Instant::now();
            replay(&mut driver, &keys, &ticks, o.point.batch, |_| {});
            let rate = keys.len() as f64 / start.elapsed().as_secs_f64();
            o.rates.push(rate);
        }
    }
    for o in &mut outcomes {
        o.clicks_per_sec = median(&o.rates);
    }

    let groups = fold_groups(spec, &outcomes);
    Ok(SweepReport {
        spec: spec.clone(),
        quick: opts.quick,
        clicks: keys.len() as u64,
        injected,
        rounds: opts.rounds,
        configs: outcomes,
        groups,
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

fn json_usize_array(items: &[usize]) -> String {
    let nums: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", nums.join(", "))
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
    let _ = writeln!(out, "    \"algo\": {},", json_str_array(&s.algos));
    let _ = writeln!(
        out,
        "    \"cells_per_element\": {},",
        json_usize_array(&s.cells_per_element)
    );
    let _ = writeln!(out, "    \"k\": {},", json_usize_array(&s.hash_counts));
    let _ = writeln!(
        out,
        "    \"sub_windows\": {},",
        json_usize_array(&s.sub_windows)
    );
    let _ = writeln!(out, "    \"layout\": {},", json_str_array(&s.layouts));
    let _ = writeln!(out, "    \"shards\": {},", json_usize_array(&s.shards));
    let _ = writeln!(out, "    \"batch\": {},", json_usize_array(&s.batches));
    let _ = writeln!(out, "    \"target_fp\": {}", json_f64(s.target_fp));
    let _ = writeln!(out, "  }},");
    out.push_str("  \"configs\": [\n");
    for (i, o) in r.configs.iter().enumerate() {
        let p = &o.point;
        out.push_str("    {");
        let _ = write!(
            out,
            "\"algo\": \"{}\", \"resolved_algo\": \"{}\", \"cells_per_element\": {}, \
             \"k\": {}, \"sub_windows\": {}, \"layout\": \"{}\", \"shards\": {}, \"batch\": {}, ",
            json_escape(&p.algo),
            json_escape(&o.resolved_algo),
            p.cells_per_element,
            p.k,
            p.q,
            json_escape(&p.layout),
            p.shards,
            p.batch
        );
        let _ = write!(
            out,
            "\"distinct\": {}, \"duplicates\": {}, \"detected\": {}, \
             \"false_positives\": {}, \"false_negatives\": {}, \"fp_rate\": {}, ",
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
            "\"memory_bits\": {}, \"clicks_per_sec_median\": {}, \"clicks_per_sec_rounds\": [{}]",
            o.memory_bits,
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
        "{:<42} {:>12} {:>10} {:>5} {:>12} {:>14}",
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
            "{:<42} {:>12.3e} {:>10} {:>5} {:>12} {:>14.0}",
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

    fn quick() -> SweepOptions {
        SweepOptions {
            quick: true,
            rounds: 1,
            max_clicks: Some(6_000),
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_bounds_misses_by_false_positives() {
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
        let spec_text = SPEC
            .replace(
                "model = \"count\"\nn = 1024",
                "model = \"time\"\nn = 1024\nwindow_units = 16\nsub_units = 2\nunit_ticks = 64",
            )
            .replace(
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
}
