//! PR 3 throughput benchmark: scattered vs. cache-line-blocked probing.
//!
//! Measures single-thread and sharded (hash-once) clicks/sec for the
//! GBF and TBF detectors in both probe layouts on a distinct-id stream,
//! and cross-checks the blocked layout's measured false-positive rate
//! against the closed-form model in `cfd_analysis::blocked`. Every
//! `Duplicate` verdict on a distinct stream is a false positive, so the
//! timing stream doubles as the FP experiment.
//!
//! Protocol (reproducible by construction):
//!
//! * fixed seeds, fixed id stream (`0..clicks` little-endian — the hash
//!   family scrambles them, so the probe pattern is uniform);
//! * one warm-up round per configuration, discarded;
//! * ≥ 10 measured rounds at full scale, configuration order reversed
//!   on alternate rounds so frequency drift and cache warming cancel;
//! * the median round is the reported number;
//! * the occupancy-scan counters must stay at zero across every timed
//!   loop (the `health()` O(m) scan must never ride the hot path).
//!
//! ```text
//! cargo run --release -p cfd-bench --bin throughput [--quick] [--out PATH]
//! ```
//!
//! Default scale streams 2^22 clicks per round and writes
//! `BENCH_pr3.json` (machine-readable) in the working directory plus a
//! human-readable table under `results/`. `--quick` is the CI smoke:
//! 2^18 clicks, 3 measured rounds — use `--out` to keep it from
//! overwriting the committed full-scale file.
//!
//! ## PR 4 scenario: `--pipeline`
//!
//! ```text
//! cargo run --release -p cfd-bench --bin throughput -- --pipeline [--quick] [--out PATH]
//! ```
//!
//! Benchmarks the pipeline ingest's multi-lane batch hashing
//! ([`Planner::plan_flat_into`]) against the per-id scalar
//! [`Planner::plan`] loop over the same 16-byte click keys, under the
//! same paired, order-alternated, median-of-rounds protocol, with a
//! checksum cross-check that the plans are identical, writing a
//! `cfd-bench-pipeline/2` report to `BENCH_pipeline.json`.
//! `BENCH_pr4.json` keeps the `/1` record, whose second half compared
//! the ring data plane against the since-deleted channel one; the ring
//! pipeline is now measured end to end by `perfbench`.
//!
//! ## PR 5 scenario: `--timed`
//!
//! ```text
//! cargo run --release -p cfd-bench --bin throughput -- --timed [--quick] [--out PATH]
//! ```
//!
//! Benchmarks the *time-based* detectors (`TimeTbf` / `TimeGbf`) under
//! the same protocol, writing `BENCH_pr5.json`: for each family and
//! probe layout, the per-click `observe_at` loop vs the hash-once
//! flat-key batch path (`observe_flat_at_into`) on a distinct-id stream
//! whose ticks advance one per click, so every round crosses the full
//! unit-advance/incremental-cleaning machinery. The batch and
//! sequential duplicate counts are asserted equal every round, and the
//! occupancy-scan counters must stay at zero across every timed loop.
//!
//! ## PR 6 scenario: `--shootout`
//!
//! ```text
//! cargo run --release -p cfd-bench --bin throughput -- --shootout [--quick] [--out PATH]
//! ```
//!
//! The backend Pareto shootout, writing `BENCH_pr6.json`: every
//! count-window backend in the [`cfd_core::registry`] (TBF, GBF, APBF,
//! SWBF) built through [`cfd_core::registry::build`] at the **same
//! memory budget** (`272·N` bits — the TBF sizing convention of 16
//! entries per element at 17-bit entries), each measured in both probe
//! layouts and both drive modes (per-click `observe` vs the hash-once
//! flat-key `observe_flat_into`)
//! on a distinct-id stream. Every `Duplicate` verdict is a false
//! positive, so one pass yields accuracy, memory, and throughput — the
//! three Pareto axes — per backend. Gates: measured FP within each
//! backend's `cfd-analysis` model bound, batch/sequential verdict
//! parity, realized memory within ±12% of the shared budget, zero
//! occupancy scans, and (full scale) APBF/SWBF batch speedup ≥ 1.3×.
//!
//! ## PR 9 scenario: `--tenants`
//!
//! ```text
//! cargo run --release -p cfd-bench --bin throughput -- --tenants [--quick] [--out PATH]
//! ```
//!
//! The multi-tenant arena scenario, writing `BENCH_pr9.json`: a
//! Zipf-skewed [`TenantTraffic`] stream over a universe of up to one
//! million (advertiser, campaign) tenants is replayed through a
//! [`TenantArena`] (per-click, flat-batch, and 4-way tenant-routed
//! sharded rows) and through one big TBF at the **same total memory**
//! (the single-detector baseline the arena must stay within 0.7× of).
//! The generator injects tenant-lag-1 duplicates it counts, so every
//! round asserts verdict isolation: the arena must flag at least the
//! injected count (a miss would mean a tenant's window lost state) and
//! at most the per-tenant `cfd-analysis` FP bound beyond it (an excess
//! would mean cross-tenant contamination). Gates: amortized
//! bytes/live-tenant within 1.25× of [`arena_tenant_budget`],
//! arena-batch clicks/s ≥ 0.7× the baseline (full scale), isolation
//! every round, zero occupancy scans in the hot loops.
//!
//! ## PR 10 scenario: `--scenario <file.toml>`
//!
//! ```text
//! cargo run --release -p cfd-bench --bin throughput -- --scenario scenarios/mixed_fraud.toml [--quick] [--out PATH]
//! ```
//!
//! Compiles a declarative scenario spec (`cfd_stream::scenario`) and
//! brute-forces its `[sweep]` grid with the same driver as `cfd sweep`,
//! writing a `cfd-bench-sweep/1` report (default `BENCH_sweep.json`).

use cfd_analysis::blocked::{fp_blocked_gbf, fp_blocked_tbf};
use cfd_analysis::sizing::{arena_tenant_budget, TenantBudget};
use cfd_core::config::ProbeLayout;
use cfd_core::registry::{BackendGeometry, DetectorBackend, MemorySpec};
use cfd_core::{
    Apbf, ApbfConfig, ArenaConfig, Gbf, GbfConfig, ShardedDetector, Swbf, SwbfConfig, Tbf,
    TbfConfig, TenantArena, TimeGbf, TimeGbfConfig, TimeTbf, TimeTbfConfig,
};
use cfd_hash::{Planner, ProbePlan};
use cfd_stream::{
    BotnetConfig, BotnetStream, Click, TenantTraffic, TenantTrafficConfig, TENANT_KEY_LEN,
};
use cfd_windows::{DetectorStats, DuplicateDetector, Verdict};
use std::fmt::Write as _;
use std::time::Instant;

/// (clicks/sec, duplicate verdicts, occupancy scans) of one timed run.
type RunResult = (f64, u64, u64);

/// A fresh-detector-per-round measurement closure.
type RunFn = Box<dyn FnMut(&[&[u8]]) -> RunResult>;

/// Batch size for `observe_batch` — large enough to amortize the flat
/// probe-buffer fill, small enough to stay cache-resident.
const BATCH: usize = 1024;

/// Shards for the sharded rows (hash-once routing exercised even on a
/// single core).
const SHARDS: usize = 4;

const K: usize = 10;

struct ScaleCfg {
    label: &'static str,
    clicks: usize,
    rounds: usize,
    tbf_n: usize,
    gbf_n: usize,
}

/// One benchmark configuration: builds a fresh detector per round and
/// streams the whole click set through it.
struct Bench {
    name: &'static str,
    family: &'static str,
    layout: ProbeLayout,
    sharded: bool,
    run: RunFn,
    fp_model: Option<f64>,
    rates: Vec<f64>,
    false_positives: u64,
}

fn layout_name(layout: ProbeLayout) -> &'static str {
    match layout {
        ProbeLayout::Scattered => "scattered",
        ProbeLayout::Blocked => "blocked",
    }
}

/// Streams `ids` through `d` in [`BATCH`]-sized chunks, returning
/// (clicks/sec, duplicate verdicts, occupancy scans).
fn drive<D: DuplicateDetector + DetectorStats>(d: &mut D, ids: &[&[u8]]) -> RunResult {
    let start = Instant::now();
    let mut dups = 0u64;
    for chunk in ids.chunks(BATCH) {
        dups += d
            .observe_batch(chunk)
            .iter()
            .filter(|&&v| v == Verdict::Duplicate)
            .count() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (ids.len() as f64 / secs, dups, d.occupancy_scans())
}

/// Sharded variant of [`drive`] using the hash-once batch path.
fn drive_sharded(d: &mut ShardedDetector<Tbf>, ids: &[&[u8]]) -> RunResult {
    assert!(d.hash_once_aligned(), "shards must share the router family");
    let start = Instant::now();
    let mut dups = 0u64;
    for chunk in ids.chunks(BATCH) {
        dups += d
            .observe_batch_hash_once(chunk)
            .iter()
            .filter(|&&v| v == Verdict::Duplicate)
            .count() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (ids.len() as f64 / secs, dups, d.occupancy_scans())
}

fn tbf_config(n: usize, layout: ProbeLayout, seed: u64) -> TbfConfig {
    TbfConfig::builder(n)
        .entries(n * 16)
        .hash_count(K)
        .seed(seed)
        .probe(layout)
        .build()
        .expect("valid tbf config")
}

fn gbf_config(n: usize, layout: ProbeLayout) -> GbfConfig {
    GbfConfig::builder(n, 8)
        .filter_bits((n / 8) * 28)
        .hash_count(K)
        .seed(7)
        .layout(cfd_core::config::GbfLayout::Tight)
        .probe(layout)
        .build()
        .expect("valid gbf config")
}

fn sharded_tbf(n: usize, layout: ProbeLayout) -> ShardedDetector<Tbf> {
    let router = cfd_core::ShardRouter::new(7, SHARDS).expect("router");
    let per = cfd_core::sharded::per_shard_window(n, SHARDS);
    let shards = (0..SHARDS)
        .map(|_| Tbf::new(tbf_config(per, layout, router.probe_seed())).expect("shard"))
        .collect();
    ShardedDetector::new(7, shards).expect("sharded")
}

fn benches(scale: &ScaleCfg) -> Vec<Bench> {
    let mut out = Vec::new();
    for layout in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
        let tbf_n = scale.tbf_n;
        let cfg = tbf_config(tbf_n, layout, 7);
        let fp_model = cfg
            .block_geometry()
            .map(|geo| fp_blocked_tbf(cfg.m, geo.slots(), K, tbf_n));
        out.push(Bench {
            name: if layout == ProbeLayout::Blocked {
                "tbf-blocked"
            } else {
                "tbf-scattered"
            },
            family: "tbf",
            layout,
            sharded: false,
            run: Box::new(move |ids| {
                let mut d = Tbf::new(cfg).expect("tbf");
                drive(&mut d, ids)
            }),
            fp_model,
            rates: Vec::new(),
            false_positives: 0,
        });

        let gbf_n = scale.gbf_n;
        let gcfg = gbf_config(gbf_n, layout);
        let g_model = gcfg
            .block_geometry()
            .map(|geo| fp_blocked_gbf(gcfg.m, geo.slots(), K, gbf_n, gcfg.q));
        out.push(Bench {
            name: if layout == ProbeLayout::Blocked {
                "gbf-blocked"
            } else {
                "gbf-scattered"
            },
            family: "gbf",
            layout,
            sharded: false,
            run: Box::new(move |ids| {
                let mut d = Gbf::new(gcfg).expect("gbf");
                drive(&mut d, ids)
            }),
            fp_model: g_model,
            rates: Vec::new(),
            false_positives: 0,
        });

        let s_model = Tbf::new(tbf_config(
            cfd_core::sharded::per_shard_window(tbf_n, SHARDS),
            layout,
            7,
        ))
        .expect("shard model probe")
        .config()
        .block_geometry()
        .map(|geo| {
            let per = cfd_core::sharded::per_shard_window(tbf_n, SHARDS);
            fp_blocked_tbf(per * 16, geo.slots(), K, per)
        });
        out.push(Bench {
            name: if layout == ProbeLayout::Blocked {
                "sharded-tbf-blocked"
            } else {
                "sharded-tbf-scattered"
            },
            family: "sharded-tbf",
            layout,
            sharded: true,
            run: Box::new(move |ids| {
                let mut d = sharded_tbf(tbf_n, layout);
                drive_sharded(&mut d, ids)
            }),
            fp_model: s_model,
            rates: Vec::new(),
            false_positives: 0,
        });
    }
    out
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

fn json_f64(x: f64) -> String {
    if x == 0.0 {
        "0.0".to_owned()
    } else {
        format!("{x:.6e}")
    }
}

// ---------------------------------------------------------------------
// PR 4 scenario: multi-lane hashing micro.
// ---------------------------------------------------------------------

/// Click-key length: [`Click::key`] is 16 bytes.
const PIPE_KEY_LEN: usize = 16;

struct PipelineScale {
    label: &'static str,
    clicks: usize,
    rounds: usize,
}

/// XOR-fold of the plans' `h1` halves — forces materialization and
/// doubles as a scalar-vs-lanes identity check.
fn plan_checksum(plans: &[ProbePlan]) -> u64 {
    plans.iter().fold(0u64, |acc, p| acc ^ p.pair().h1)
}

fn run_pipeline_scenario(quick: bool, out_path: &str) {
    let scale = if quick {
        PipelineScale {
            label: "quick",
            clicks: 1 << 17,
            rounds: 3,
        }
    } else {
        PipelineScale {
            label: "full",
            clicks: 1 << 21,
            rounds: 10,
        }
    };
    println!(
        "# throughput --pipeline — {} scale: {} clicks/round, {} measured rounds (+1 warm-up)",
        scale.label, scale.clicks, scale.rounds
    );

    // Deterministic duplicate-heavy stream, generated once outside every
    // timed region; the hash micro-bench hashes its 16-byte keys.
    let clicks: Vec<Click> = BotnetStream::new(BotnetConfig::default(), 8, 64)
        .take(scale.clicks)
        .map(|c| c.click)
        .collect();
    let mut keys: Vec<u8> = Vec::with_capacity(clicks.len() * PIPE_KEY_LEN);
    for c in &clicks {
        keys.extend_from_slice(&c.key());
    }

    // ---- Hash micro: scalar plan loop vs multi-lane flat batch ------
    let planner = Planner::new(7);
    let mut plans: Vec<ProbePlan> = Vec::with_capacity(clicks.len());
    let mut scalar_rates = Vec::new();
    let mut lanes_rates = Vec::new();
    let mut checksums_agree = true;
    for round in 0..=scale.rounds {
        let mut scalar_first = round % 2 == 0;
        let mut scalar_rate = 0.0;
        let mut lanes_rate = 0.0;
        let mut scalar_sum = 0u64;
        let mut lanes_sum = 0u64;
        for _ in 0..2 {
            if scalar_first {
                let start = Instant::now();
                plans.clear();
                for key in keys.chunks_exact(PIPE_KEY_LEN) {
                    plans.push(planner.plan(key));
                }
                scalar_rate = clicks.len() as f64 / start.elapsed().as_secs_f64();
                scalar_sum = std::hint::black_box(plan_checksum(&plans));
            } else {
                let start = Instant::now();
                planner.plan_flat_into(&keys, PIPE_KEY_LEN, &mut plans);
                lanes_rate = clicks.len() as f64 / start.elapsed().as_secs_f64();
                lanes_sum = std::hint::black_box(plan_checksum(&plans));
            }
            scalar_first = !scalar_first;
        }
        checksums_agree &= scalar_sum == lanes_sum;
        if round > 0 {
            scalar_rates.push(scalar_rate);
            lanes_rates.push(lanes_rate);
        }
    }
    let hash_speedup = median(&lanes_rates) / median(&scalar_rates);

    // ---- Human table ------------------------------------------------
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# throughput --pipeline ({} scale, {} clicks, median of {} rounds)",
        scale.label, scale.clicks, scale.rounds
    );
    let _ = writeln!(table, "{:<28} {:>14}", "config", "Mclicks/s");
    for (name, rates) in [
        ("hash scalar plan()", &scalar_rates),
        ("hash multi-lane flat", &lanes_rates),
    ] {
        let _ = writeln!(table, "{:<28} {:>14.2}", name, median(rates) / 1e6);
    }
    let _ = writeln!(
        table,
        "# multi-lane/scalar hash speedup = {hash_speedup:.2}x"
    );
    print!("{table}");

    // ---- Gates ------------------------------------------------------
    let hash_ok = hash_speedup >= 1.3;
    println!(
        "# gates: lanes>=1.3x {} | checksums {}",
        if hash_ok {
            "PASS"
        } else if quick {
            "SKIP (quick)"
        } else {
            "FAIL"
        },
        if checksums_agree { "PASS" } else { "FAIL" },
    );

    // ---- Machine-readable JSON --------------------------------------
    let join = |rates: &[f64]| {
        rates
            .iter()
            .map(|&r| json_f64(r))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"cfd-bench-pipeline/2\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(json, "  \"clicks\": {},", scale.clicks);
    let _ = writeln!(json, "  \"rounds\": {},", scale.rounds);
    let _ = writeln!(json, "  \"hash\": {{");
    let _ = writeln!(
        json,
        "    \"lanes\": {},",
        cfd_hash::lanes::preferred_lanes()
    );
    let _ = writeln!(
        json,
        "    \"scalar_keys_per_sec_median\": {},",
        json_f64(median(&scalar_rates))
    );
    let _ = writeln!(
        json,
        "    \"lanes_keys_per_sec_median\": {},",
        json_f64(median(&lanes_rates))
    );
    let _ = writeln!(json, "    \"scalar_rounds\": [{}],", join(&scalar_rates));
    let _ = writeln!(json, "    \"lanes_rounds\": [{}],", join(&lanes_rates));
    let _ = writeln!(json, "    \"speedup\": {}", json_f64(hash_speedup));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"checks\": {{");
    let _ = writeln!(json, "    \"hash_speedup_ok\": {hash_ok},");
    let _ = writeln!(json, "    \"checksums_agree\": {checksums_agree}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write json");
    println!("# wrote {out_path}");

    let table_path = format!("results/throughput_pipeline_{}.txt", scale.label);
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write(&table_path, &table);
        println!("# wrote {table_path}");
    }

    if !checksums_agree || !(quick || hash_ok) {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// PR 5 scenario: time-based detectors, sequential vs batch, per layout.
// ---------------------------------------------------------------------

/// Timed-scenario id length: 8-byte little-endian counters, same as the
/// PR 3 stream (the hash family scrambles them).
const TIMED_KEY_LEN: usize = 8;

/// Time units per TimeTbf sliding window / sub-windows per TimeGbf
/// jumping window. With ticks advancing one per click, `unit_ticks` is
/// chosen so a window spans roughly the detector's sized-for capacity.
const TIMED_TBF_UNITS: u64 = 16;
const TIMED_GBF_Q: usize = 8;

/// A timed-measurement closure over (flat keys, ticks).
type TimedRunFn = Box<dyn FnMut(&[u8], &[u64]) -> RunResult>;

struct TimedBench {
    name: &'static str,
    family: &'static str,
    layout: ProbeLayout,
    mode: &'static str,
    run: TimedRunFn,
    rates: Vec<f64>,
    duplicates: u64,
}

fn time_tbf_cfg(n: usize, layout: ProbeLayout) -> TimeTbfConfig {
    // One unit ≈ n / TIMED_TBF_UNITS clicks at one tick per click, so
    // the wall-clock window holds about the n elements the table
    // (m = 16 n entries, as in the count-based rows) is sized for.
    let unit_ticks = (n as u64 / TIMED_TBF_UNITS).max(1);
    TimeTbfConfig::new(TIMED_TBF_UNITS, unit_ticks, n * 16, K, 7)
        .and_then(|c| c.with_probe(layout))
        .expect("valid time-tbf config")
}

fn time_gbf_cfg(n: usize, layout: ProbeLayout) -> TimeGbfConfig {
    // One sub-window of one unit ≈ n / Q clicks; per-lane filter sized
    // like the count-based GBF rows ((n / Q) * 28 bits).
    let unit_ticks = (n as u64 / TIMED_GBF_Q as u64).max(1);
    TimeGbfConfig::new(TIMED_GBF_Q, 1, unit_ticks, (n / TIMED_GBF_Q) * 28, K, 7)
        .and_then(|c| c.with_probe(layout))
        .expect("valid time-gbf config")
}

/// Per-click `observe_at` loop over the flat key buffer.
fn drive_timed_seq<D: DuplicateDetector + DetectorStats>(
    d: &mut D,
    keys: &[u8],
    ticks: &[u64],
) -> RunResult {
    let start = Instant::now();
    let mut dups = 0u64;
    for (key, &tick) in keys.chunks_exact(TIMED_KEY_LEN).zip(ticks) {
        if d.observe_at(key, tick) == Verdict::Duplicate {
            dups += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (ticks.len() as f64 / secs, dups, d.occupancy_scans())
}

/// Hash-once flat-key batch path in [`BATCH`]-sized chunks, verdict
/// buffer reused across chunks (zero steady-state allocation).
fn drive_timed_batch<D: DuplicateDetector + DetectorStats>(
    d: &mut D,
    keys: &[u8],
    ticks: &[u64],
) -> RunResult {
    let start = Instant::now();
    let mut dups = 0u64;
    let mut verdicts = Vec::with_capacity(BATCH);
    for (kc, tc) in keys.chunks(BATCH * TIMED_KEY_LEN).zip(ticks.chunks(BATCH)) {
        d.observe_flat_at_into(kc, TIMED_KEY_LEN, tc, &mut verdicts);
        dups += verdicts
            .iter()
            .filter(|&&v| v == Verdict::Duplicate)
            .count() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (ticks.len() as f64 / secs, dups, d.occupancy_scans())
}

fn timed_benches(scale: &ScaleCfg) -> Vec<TimedBench> {
    let mut out = Vec::new();
    for layout in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
        let blocked = layout == ProbeLayout::Blocked;
        let tbf_n = scale.tbf_n;
        let gbf_n = scale.gbf_n;
        out.push(TimedBench {
            name: if blocked {
                "time-tbf-blocked-seq"
            } else {
                "time-tbf-scattered-seq"
            },
            family: "time-tbf",
            layout,
            mode: "sequential",
            run: Box::new(move |keys, ticks| {
                let mut d = TimeTbf::new(time_tbf_cfg(tbf_n, layout)).expect("time-tbf");
                drive_timed_seq(&mut d, keys, ticks)
            }),
            rates: Vec::new(),
            duplicates: 0,
        });
        out.push(TimedBench {
            name: if blocked {
                "time-tbf-blocked-batch"
            } else {
                "time-tbf-scattered-batch"
            },
            family: "time-tbf",
            layout,
            mode: "batch",
            run: Box::new(move |keys, ticks| {
                let mut d = TimeTbf::new(time_tbf_cfg(tbf_n, layout)).expect("time-tbf");
                drive_timed_batch(&mut d, keys, ticks)
            }),
            rates: Vec::new(),
            duplicates: 0,
        });
        out.push(TimedBench {
            name: if blocked {
                "time-gbf-blocked-seq"
            } else {
                "time-gbf-scattered-seq"
            },
            family: "time-gbf",
            layout,
            mode: "sequential",
            run: Box::new(move |keys, ticks| {
                let mut d = TimeGbf::new(time_gbf_cfg(gbf_n, layout)).expect("time-gbf");
                drive_timed_seq(&mut d, keys, ticks)
            }),
            rates: Vec::new(),
            duplicates: 0,
        });
        out.push(TimedBench {
            name: if blocked {
                "time-gbf-blocked-batch"
            } else {
                "time-gbf-scattered-batch"
            },
            family: "time-gbf",
            layout,
            mode: "batch",
            run: Box::new(move |keys, ticks| {
                let mut d = TimeGbf::new(time_gbf_cfg(gbf_n, layout)).expect("time-gbf");
                drive_timed_batch(&mut d, keys, ticks)
            }),
            rates: Vec::new(),
            duplicates: 0,
        });
    }
    out
}

fn run_timed_scenario(quick: bool, out_path: &str) {
    let scale = if quick {
        ScaleCfg {
            label: "quick",
            clicks: 1 << 18,
            rounds: 3,
            tbf_n: 1 << 16,
            gbf_n: 1 << 17,
        }
    } else {
        ScaleCfg {
            label: "full",
            clicks: 1 << 22,
            rounds: 10,
            tbf_n: 1 << 20,
            gbf_n: 1 << 21,
        }
    };
    println!(
        "# throughput --timed — {} scale: {} clicks/round, {} measured rounds (+1 warm-up), \
         batch {BATCH}",
        scale.label, scale.clicks, scale.rounds
    );

    // Distinct 8-byte ids, ticks advancing one per click: every round
    // walks the whole unit-advance + incremental-cleaning machinery
    // (TIMED_TBF_UNITS sweeps per window span, Q lane rotations).
    let keys: Vec<u8> = (0..scale.clicks as u64)
        .flat_map(u64::to_le_bytes)
        .collect();
    let ticks: Vec<u64> = (0..scale.clicks as u64).collect();

    let mut benches = timed_benches(&scale);
    let mut scan_violations = 0u32;
    for round in 0..=scale.rounds {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..benches.len()).collect()
        } else {
            (0..benches.len()).rev().collect()
        };
        for idx in order {
            let b = &mut benches[idx];
            let (rate, dups, scans) = (b.run)(&keys, &ticks);
            if scans != 0 {
                scan_violations += 1;
                eprintln!(
                    "FAIL: {} performed {scans} occupancy scans in the timed hot loop",
                    b.name
                );
            }
            if round == 0 {
                b.duplicates = dups;
            } else if dups != b.duplicates {
                eprintln!(
                    "FAIL: {} duplicate count drifted across rounds ({} vs {})",
                    b.name, dups, b.duplicates
                );
                scan_violations += 1;
            }
            if round > 0 {
                b.rates.push(rate);
            }
        }
        if round == 0 {
            println!("# warm-up complete");
        }
    }

    // The batch path must be a pure optimization: identical duplicate
    // counts to the sequential loop, per family and layout.
    let mut paths_agree = true;
    for layout in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
        for family in ["time-tbf", "time-gbf"] {
            let dups = |mode: &str| {
                benches
                    .iter()
                    .find(|b| b.family == family && b.layout == layout && b.mode == mode)
                    .map(|b| b.duplicates)
                    .expect("all rows present")
            };
            if dups("sequential") != dups("batch") {
                paths_agree = false;
                eprintln!(
                    "FAIL: {family} ({}) batch and sequential verdicts disagree",
                    layout_name(layout)
                );
            }
        }
    }

    // ---- Human table ------------------------------------------------
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# throughput --timed — sequential vs batch, scattered vs blocked \
         ({} scale, {} clicks, median of {} rounds)",
        scale.label, scale.clicks, scale.rounds
    );
    let _ = writeln!(table, "{:<28} {:>14} {:>14}", "config", "Mclicks/s", "dups");
    for b in &benches {
        let _ = writeln!(
            table,
            "{:<28} {:>14.2} {:>14}",
            b.name,
            median(&b.rates) / 1e6,
            b.duplicates
        );
    }
    let rate_of = |family: &str, layout: ProbeLayout, mode: &str| {
        benches
            .iter()
            .find(|b| b.family == family && b.layout == layout && b.mode == mode)
            .map(|b| median(&b.rates))
            .expect("all rows present")
    };
    let mut batch_speedups: Vec<(&str, f64)> = Vec::new();
    let mut blocked_speedups: Vec<(&str, f64)> = Vec::new();
    for family in ["time-tbf", "time-gbf"] {
        let batch = rate_of(family, ProbeLayout::Scattered, "batch")
            / rate_of(family, ProbeLayout::Scattered, "sequential");
        let blocked = rate_of(family, ProbeLayout::Blocked, "batch")
            / rate_of(family, ProbeLayout::Scattered, "batch");
        let _ = writeln!(
            table,
            "# {family}: batch/sequential = {batch:.2}x, blocked/scattered (batch) = {blocked:.2}x"
        );
        batch_speedups.push((family, batch));
        blocked_speedups.push((family, blocked));
    }
    print!("{table}");

    // ---- Gates ------------------------------------------------------
    let batch_ok = batch_speedups.iter().all(|&(_, s)| s >= 1.3);
    let blocked_ok = blocked_speedups.iter().all(|&(_, s)| s >= 1.3);
    let scans_ok = scan_violations == 0;
    let gate = |ok: bool| {
        if ok {
            "PASS"
        } else if quick {
            "SKIP (quick)"
        } else {
            "FAIL"
        }
    };
    println!(
        "# gates: batch>=1.3x {} | blocked>=1.3x {} | paths-agree {} | no-hot-scans {}",
        gate(batch_ok),
        gate(blocked_ok),
        if paths_agree { "PASS" } else { "FAIL" },
        if scans_ok { "PASS" } else { "FAIL" },
    );

    // ---- Machine-readable JSON --------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"cfd-bench-timed/1\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(json, "  \"clicks\": {},", scale.clicks);
    let _ = writeln!(json, "  \"rounds\": {},", scale.rounds);
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, b) in benches.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", b.name);
        let _ = writeln!(json, "      \"family\": \"{}\",", b.family);
        let _ = writeln!(json, "      \"layout\": \"{}\",", layout_name(b.layout));
        let _ = writeln!(json, "      \"mode\": \"{}\",", b.mode);
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_median\": {},",
            json_f64(median(&b.rates))
        );
        let rounds: Vec<String> = b.rates.iter().map(|&r| json_f64(r)).collect();
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_rounds\": [{}],",
            rounds.join(", ")
        );
        let _ = writeln!(json, "      \"duplicates\": {}", b.duplicates);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < benches.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    for (i, family) in ["time-tbf", "time-gbf"].iter().enumerate() {
        let batch = batch_speedups
            .iter()
            .find(|(f, _)| f == family)
            .expect("family present")
            .1;
        let blocked = blocked_speedups
            .iter()
            .find(|(f, _)| f == family)
            .expect("family present")
            .1;
        let _ = writeln!(
            json,
            "    \"{family}\": {{ \"batch\": {}, \"blocked\": {} }}{}",
            json_f64(batch),
            json_f64(blocked),
            if i == 0 { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"checks\": {{");
    let _ = writeln!(json, "    \"batch_speedup_ok\": {batch_ok},");
    let _ = writeln!(json, "    \"blocked_speedup_ok\": {blocked_ok},");
    let _ = writeln!(json, "    \"paths_agree\": {paths_agree},");
    let _ = writeln!(json, "    \"no_occupancy_scans\": {scans_ok}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write json");
    println!("# wrote {out_path}");

    let table_path = format!("results/throughput_timed_{}.txt", scale.label);
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write(&table_path, &table);
        println!("# wrote {table_path}");
    }

    let speedup_gates_ok = quick || (batch_ok && blocked_ok);
    if !paths_agree || !scans_ok || !speedup_gates_ok {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// PR 6 scenario: registry backend shootout at equal memory.
// ---------------------------------------------------------------------

/// Count-window backends entered in the shootout, registry names.
const SHOOT_ALGOS: [&str; 4] = ["tbf", "gbf", "apbf", "swbf"];

/// Shared memory budget in bits per window element: the TBF sizing
/// convention (16 entries per element at a 17-bit entry width). At the
/// full-scale window (`n = 2^20`) this funds ~34 MB tables — large
/// enough that probes miss the core-private caches, the regime the
/// batch prefetch schedule is built for.
const SHOOT_BITS_PER_ELEMENT: usize = 272;

/// FP-gate slack factor per shootout cell. The blocked TBF/GBF models
/// embed the Poisson block-load mixture and track measurements within
/// 10%; their *scattered* counterparts are first-order classical-Bloom
/// forms that undershoot the double-hash / jumping-window machinery by
/// up to ~2×, so they gate at 2.5×. The APBF/SWBF models are documented
/// upper bounds in both layouts, gated at 1.5× like their unit tests.
fn shoot_fp_slack(algo: &str, layout: ProbeLayout) -> f64 {
    match (algo, layout) {
        ("tbf" | "gbf", ProbeLayout::Blocked) => 1.1,
        ("tbf" | "gbf", ProbeLayout::Scattered) => 2.5,
        _ => 1.5,
    }
}

/// Bits needed to store values `0..=max` (local copy of
/// `cfd_bits::words::bits_for_value`; `cfd-bench` does not depend on
/// `cfd-bits`).
fn shoot_bits_for_value(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// Closed-form FP bound for one shootout cell, from the `cfd-analysis`
/// model matching the backend and probe layout. The structural
/// parameters mirror the registry's `TotalBits` geometry arms exactly.
fn shoot_fp_model(algo: &str, layout: ProbeLayout, n: usize, total: usize) -> f64 {
    match algo {
        "tbf" => {
            let cfg = tbf_config_budget(n, total, layout);
            match cfg.block_geometry() {
                None => cfd_analysis::tbf::fp_sliding(cfg.m, K, n),
                Some(geo) => fp_blocked_tbf(cfg.m, geo.slots(), K, n),
            }
        }
        "gbf" => {
            let cfg = gbf_config_budget(n, total, layout);
            match cfg.block_geometry() {
                None => cfd_analysis::gbf::fp_worst_case(cfg.m, K, n, cfg.q),
                Some(geo) => fp_blocked_gbf(cfg.m, geo.slots(), K, n, cfg.q),
            }
        }
        "apbf" => {
            let cfg = ApbfConfig::for_budget(n, total, 7, layout).expect("apbf cfg");
            let d = Apbf::new(cfg).expect("apbf");
            match layout {
                ProbeLayout::Scattered => {
                    cfd_analysis::apbf::fp_sliding(n, cfg.k, cfg.l, d.slice_capacity())
                }
                ProbeLayout::Blocked => {
                    let lines = cfg.total_bits / 512;
                    let lane_bits = d.slice_capacity() / lines;
                    cfd_analysis::apbf::fp_sliding_blocked(n, cfg.k, cfg.l, lines, lane_bits)
                }
            }
        }
        "swbf" => {
            let cfg = SwbfConfig::for_budget(n, total, 7, layout).expect("swbf cfg");
            let d = Swbf::new(cfg).expect("swbf");
            match layout {
                ProbeLayout::Scattered => cfd_analysis::swbf::fp_sliding(
                    n,
                    cfg.cells(),
                    cfg.side_cells(),
                    cfg.fingerprint_bits,
                    d.effective_candidates(),
                    4,
                ),
                ProbeLayout::Blocked => {
                    let slots = 1 << (512usize / cfg.cell_bits() as usize).ilog2();
                    cfd_analysis::swbf::fp_sliding_blocked(
                        n,
                        cfg.cells(),
                        cfg.side_cells(),
                        cfg.fingerprint_bits,
                        slots,
                        d.effective_candidates(),
                        4,
                    )
                }
            }
        }
        other => unreachable!("unregistered shootout algo {other}"),
    }
}

/// The registry's `tbf` entry at `TotalBits`, reproduced so the model
/// sees the exact built shape (entry width included).
fn tbf_config_budget(n: usize, total: usize, layout: ProbeLayout) -> TbfConfig {
    let entry_bits = shoot_bits_for_value(2 * n as u64 - 1) as usize;
    TbfConfig::builder(n)
        .entries(total / entry_bits)
        .hash_count(K)
        .seed(7)
        .probe(layout)
        .build()
        .expect("tbf budget config")
}

/// The registry's `gbf` entry at `TotalBits`: the padded layout spends
/// one whole word per probe group, so the per-filter bit count divides
/// by the real group stride.
fn gbf_config_budget(n: usize, total: usize, layout: ProbeLayout) -> GbfConfig {
    let q = 8usize;
    let group_bits = (q + 1).div_ceil(64) * 64;
    GbfConfig::builder(n, q)
        .filter_bits(total / group_bits)
        .hash_count(K)
        .seed(7)
        .probe(layout)
        .build()
        .expect("gbf budget config")
}

/// Builds one shootout detector through the registry — the same
/// resolution path the CLI and pipeline use.
fn shoot_build(
    algo: &str,
    layout: ProbeLayout,
    n: usize,
    total: usize,
) -> Box<dyn DetectorBackend> {
    let geo = BackendGeometry::new(n, MemorySpec::TotalBits(total))
        .with_seed(7)
        .with_probe(layout);
    cfd_core::registry::build(algo, &geo).expect("registered backend builds at the shared budget")
}

/// Byte width of one shootout click id.
const SHOOT_KEY_LEN: usize = 8;

/// Per-click `observe` loop (the sequential half of the batch-parity
/// comparison).
fn drive_shoot_seq(d: &mut Box<dyn DetectorBackend>, keys: &[u8]) -> RunResult {
    let start = Instant::now();
    let mut dups = 0u64;
    for key in keys.chunks_exact(SHOOT_KEY_LEN) {
        if d.observe(key) == Verdict::Duplicate {
            dups += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (
        (keys.len() / SHOOT_KEY_LEN) as f64 / secs,
        dups,
        d.occupancy_scans(),
    )
}

/// Hash-once flat-key batch path in [`BATCH`]-sized chunks, verdict
/// buffer reused across chunks (zero steady-state allocation) — the
/// same batch convention the timed scenario gates.
fn drive_shoot_batch(d: &mut Box<dyn DetectorBackend>, keys: &[u8]) -> RunResult {
    let start = Instant::now();
    let mut dups = 0u64;
    let mut verdicts = Vec::with_capacity(BATCH);
    for chunk in keys.chunks(BATCH * SHOOT_KEY_LEN) {
        d.observe_flat_into(chunk, SHOOT_KEY_LEN, &mut verdicts);
        dups += verdicts
            .iter()
            .filter(|&&v| v == Verdict::Duplicate)
            .count() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (
        (keys.len() / SHOOT_KEY_LEN) as f64 / secs,
        dups,
        d.occupancy_scans(),
    )
}

/// A shootout runner over the flat key buffer (`SHOOT_KEY_LEN` bytes
/// per click).
type ShootRunFn = Box<dyn FnMut(&[u8]) -> RunResult>;

struct ShootBench {
    algo: &'static str,
    layout: ProbeLayout,
    mode: &'static str,
    run: ShootRunFn,
    fp_model: f64,
    memory_bits: usize,
    rates: Vec<f64>,
    false_positives: u64,
}

fn shoot_benches(n: usize, total: usize) -> Vec<ShootBench> {
    let mut out = Vec::new();
    for algo in SHOOT_ALGOS {
        for layout in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
            let fp_model = shoot_fp_model(algo, layout, n, total);
            let memory_bits = shoot_build(algo, layout, n, total).memory_bits();
            for mode in ["sequential", "batch"] {
                let seq = mode == "sequential";
                out.push(ShootBench {
                    algo,
                    layout,
                    mode,
                    run: Box::new(move |keys| {
                        let mut d = shoot_build(algo, layout, n, total);
                        if seq {
                            drive_shoot_seq(&mut d, keys)
                        } else {
                            drive_shoot_batch(&mut d, keys)
                        }
                    }),
                    fp_model,
                    memory_bits,
                    rates: Vec::new(),
                    false_positives: 0,
                });
            }
        }
    }
    out
}

fn run_shootout_scenario(quick: bool, out_path: &str) {
    let (label, clicks, rounds, n) = if quick {
        ("quick", 1usize << 18, 3usize, 1usize << 14)
    } else {
        ("full", 1usize << 22, 10usize, 1usize << 20)
    };
    let total = n * SHOOT_BITS_PER_ELEMENT;
    println!(
        "# throughput --shootout — {label} scale: {clicks} clicks/round, {rounds} measured \
         rounds (+1 warm-up), window {n}, {total} bits/backend, batch {BATCH}"
    );

    // Distinct id stream (one flat buffer, SHOOT_KEY_LEN bytes per
    // click): every Duplicate verdict is a false positive.
    let keys: Vec<u8> = (0..clicks as u64).flat_map(u64::to_le_bytes).collect();

    let mut benches = shoot_benches(n, total);
    let mut scan_violations = 0u32;
    for round in 0..=rounds {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..benches.len()).collect()
        } else {
            (0..benches.len()).rev().collect()
        };
        for idx in order {
            let b = &mut benches[idx];
            let (rate, dups, scans) = (b.run)(&keys);
            if scans != 0 {
                scan_violations += 1;
                eprintln!(
                    "FAIL: {}-{}-{} performed {scans} occupancy scans in the hot loop",
                    b.algo,
                    layout_name(b.layout),
                    b.mode
                );
            }
            if round == 0 {
                b.false_positives = dups;
            } else {
                if dups != b.false_positives {
                    scan_violations += 1;
                    eprintln!(
                        "FAIL: {}-{}-{} verdicts drifted across rounds ({dups} vs {})",
                        b.algo,
                        layout_name(b.layout),
                        b.mode,
                        b.false_positives
                    );
                }
                b.rates.push(rate);
            }
        }
        if round == 0 {
            println!("# warm-up complete");
        }
    }

    // Batch must be a pure optimization of the sequential loop.
    let cell = |algo: &str, layout: ProbeLayout, mode: &str| {
        benches
            .iter()
            .find(|b| b.algo == algo && b.layout == layout && b.mode == mode)
            .expect("all cells present")
    };
    let mut paths_agree = true;
    for algo in SHOOT_ALGOS {
        for layout in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
            let (s, b) = (
                cell(algo, layout, "sequential").false_positives,
                cell(algo, layout, "batch").false_positives,
            );
            if s != b {
                paths_agree = false;
                eprintln!(
                    "FAIL: {algo} ({}) batch and sequential verdicts disagree ({b} vs {s})",
                    layout_name(layout)
                );
            }
        }
    }

    // FP gate: measured within the per-backend model bound (plus
    // three-sigma sampling slack on the finite stream).
    let mut fp_ok = true;
    for b in &benches {
        let fp = b.false_positives as f64 / clicks as f64;
        let slack = 3.0 * (b.fp_model * (1.0 - b.fp_model) / clicks as f64).sqrt();
        if fp > b.fp_model * shoot_fp_slack(b.algo, b.layout) + slack {
            fp_ok = false;
            eprintln!(
                "FAIL: {}-{} measured FP {fp:.3e} exceeds model {:.3e}",
                b.algo,
                layout_name(b.layout),
                b.fp_model
            );
        }
    }

    // Memory fairness gate: every backend within ±12% of the budget.
    let mut memory_ok = true;
    for b in &benches {
        let used = b.memory_bits as f64 / total as f64;
        if !(0.88..=1.12).contains(&used) {
            memory_ok = false;
            eprintln!(
                "FAIL: {}-{} spent {used:.3} of the {total}-bit budget",
                b.algo,
                layout_name(b.layout)
            );
        }
    }

    // ---- Human table and Pareto summary -----------------------------
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# throughput --shootout — registry backends at equal memory \
         ({label} scale, {clicks} clicks, median of {rounds} rounds, {total} bits/backend)"
    );
    let _ = writeln!(
        table,
        "{:<26} {:>12} {:>12} {:>12} {:>12}",
        "config", "Mclicks/s", "fp-measured", "fp-model", "mem-bits"
    );
    for b in &benches {
        let fp = b.false_positives as f64 / clicks as f64;
        let _ = writeln!(
            table,
            "{:<26} {:>12.2} {:>12.3e} {:>12.3e} {:>12}",
            format!("{}-{}-{}", b.algo, layout_name(b.layout), b.mode),
            median(&b.rates) / 1e6,
            fp,
            b.fp_model,
            b.memory_bits
        );
    }
    let mut batch_speedups: Vec<(&str, f64)> = Vec::new();
    for algo in SHOOT_ALGOS {
        let s = median(&cell(algo, ProbeLayout::Scattered, "batch").rates)
            / median(&cell(algo, ProbeLayout::Scattered, "sequential").rates);
        let _ = writeln!(table, "# {algo}: batch/sequential (scattered) = {s:.2}x");
        batch_speedups.push((algo, s));
    }
    let _ = writeln!(table, "#");
    let _ = writeln!(
        table,
        "# Pareto (scattered batch): | backend | FP rate | memory bits | Mclicks/s |"
    );
    for algo in SHOOT_ALGOS {
        let b = cell(algo, ProbeLayout::Scattered, "batch");
        let _ = writeln!(
            table,
            "# | {algo} | {:.3e} | {} | {:.2} |",
            b.false_positives as f64 / clicks as f64,
            b.memory_bits,
            median(&b.rates) / 1e6
        );
    }
    print!("{table}");

    // ---- Gates ------------------------------------------------------
    // Batch-speedup gate: the new backends must keep hot-path parity
    // with the incumbents' batch machinery (full scale only).
    let batch_ok = batch_speedups
        .iter()
        .filter(|(a, _)| *a == "apbf" || *a == "swbf")
        .all(|&(_, s)| s >= 1.3);
    let scans_ok = scan_violations == 0;
    println!(
        "# gates: apbf/swbf batch>=1.3x {} | fp-within-model {} | memory±12% {} | \
         paths-agree {} | no-hot-scans {}",
        if batch_ok {
            "PASS"
        } else if quick {
            "SKIP (quick)"
        } else {
            "FAIL"
        },
        if fp_ok { "PASS" } else { "FAIL" },
        if memory_ok { "PASS" } else { "FAIL" },
        if paths_agree { "PASS" } else { "FAIL" },
        if scans_ok { "PASS" } else { "FAIL" },
    );

    // ---- Machine-readable JSON --------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"cfd-bench-shootout/1\",");
    let _ = writeln!(json, "  \"scale\": \"{label}\",");
    let _ = writeln!(json, "  \"clicks\": {clicks},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"window\": {n},");
    let _ = writeln!(json, "  \"memory_bits_budget\": {total},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, b) in benches.iter().enumerate() {
        let fp = b.false_positives as f64 / clicks as f64;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"algo\": \"{}\",", b.algo);
        let _ = writeln!(json, "      \"layout\": \"{}\",", layout_name(b.layout));
        let _ = writeln!(json, "      \"mode\": \"{}\",", b.mode);
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_median\": {},",
            json_f64(median(&b.rates))
        );
        let rs: Vec<String> = b.rates.iter().map(|&r| json_f64(r)).collect();
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_rounds\": [{}],",
            rs.join(", ")
        );
        let _ = writeln!(json, "      \"fp_measured\": {},", json_f64(fp));
        let _ = writeln!(json, "      \"fp_model\": {},", json_f64(b.fp_model));
        let _ = writeln!(json, "      \"memory_bits\": {}", b.memory_bits);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < benches.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    for (i, (algo, s)) in batch_speedups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{algo}\": {{ \"batch\": {} }}{}",
            json_f64(*s),
            if i + 1 < batch_speedups.len() {
                ","
            } else {
                ""
            }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"pareto\": [");
    for (i, algo) in SHOOT_ALGOS.iter().enumerate() {
        let b = cell(algo, ProbeLayout::Scattered, "batch");
        let _ = writeln!(
            json,
            "    {{ \"algo\": \"{algo}\", \"fp_measured\": {}, \"memory_bits\": {}, \
             \"clicks_per_sec_median\": {} }}{}",
            json_f64(b.false_positives as f64 / clicks as f64),
            b.memory_bits,
            json_f64(median(&b.rates)),
            if i + 1 < SHOOT_ALGOS.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"checks\": {{");
    let _ = writeln!(json, "    \"batch_speedup_ok\": {batch_ok},");
    let _ = writeln!(json, "    \"fp_within_model\": {fp_ok},");
    let _ = writeln!(json, "    \"memory_within_budget\": {memory_ok},");
    let _ = writeln!(json, "    \"paths_agree\": {paths_agree},");
    let _ = writeln!(json, "    \"no_occupancy_scans\": {scans_ok}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write json");
    println!("# wrote {out_path}");

    let table_path = format!("results/throughput_shootout_{label}.txt");
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write(&table_path, &table);
        println!("# wrote {table_path}");
    }

    let speedup_gates_ok = quick || batch_ok;
    if !fp_ok || !memory_ok || !paths_agree || !scans_ok || !speedup_gates_ok {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// PR 8 scenario: SIMD vs forced-scalar dispatch on the blocked batch
// path — same stream, same backends, only the kernel dispatch differs.
// ---------------------------------------------------------------------

/// One (backend, dispatch) cell of the SIMD shootout.
struct SimdBench {
    algo: &'static str,
    /// `"scalar"` forces the portable kernels; `"wide"` allows AVX2.
    dispatch: &'static str,
    rates: Vec<f64>,
    false_positives: u64,
}

/// Blocked-layout batch throughput for every registry count backend,
/// with the probe/clean kernels forced scalar vs allowed wide. Both
/// sides replay the identical distinct-id stream, so any verdict
/// difference or occupancy scan is a correctness failure, and the
/// wide/scalar rate ratio isolates exactly the SIMD contribution
/// (hash lanes, batch schedule, and memory budget are shared).
fn run_simd_scenario(quick: bool, out_path: &str) {
    let (label, clicks, rounds, n) = if quick {
        ("quick", 1usize << 18, 3usize, 1usize << 14)
    } else {
        ("full", 1usize << 22, 10usize, 1usize << 20)
    };
    let total = n * SHOOT_BITS_PER_ELEMENT;
    // Lane width the "wide" rows will actually get on this machine
    // (1 on non-AVX2 hosts, where both rows dispatch scalar and the
    // speedup gates are vacuous).
    cfd_core::simd::set_scalar_override(Some(false));
    let lanes = cfd_core::simd::active_lanes();
    cfd_core::simd::set_scalar_override(None);
    println!(
        "# throughput --simd — {label} scale: {clicks} clicks/round, {rounds} measured \
         rounds (+1 warm-up), window {n}, {total} bits/backend, batch {BATCH}, \
         wide lanes {lanes}"
    );

    // Distinct id stream: every Duplicate verdict is a false positive,
    // and both dispatch rows must report the same count.
    let keys: Vec<u8> = (0..clicks as u64).flat_map(u64::to_le_bytes).collect();

    let mut benches: Vec<SimdBench> = SHOOT_ALGOS
        .iter()
        .flat_map(|&algo| {
            ["scalar", "wide"].map(|dispatch| SimdBench {
                algo,
                dispatch,
                rates: Vec::new(),
                false_positives: 0,
            })
        })
        .collect();

    let mut violations = 0u32;
    for round in 0..=rounds {
        // Alternate the visit order so slow drift (thermal, cache)
        // cannot systematically favor one dispatch.
        let order: Vec<usize> = if round % 2 == 0 {
            (0..benches.len()).collect()
        } else {
            (0..benches.len()).rev().collect()
        };
        for idx in order {
            let b = &mut benches[idx];
            cfd_core::simd::set_scalar_override(Some(b.dispatch == "scalar"));
            let mut d = shoot_build(b.algo, ProbeLayout::Blocked, n, total);
            let (rate, dups, scans) = drive_shoot_batch(&mut d, &keys);
            if scans != 0 {
                violations += 1;
                eprintln!(
                    "FAIL: {}-{} performed {scans} occupancy scans in the hot loop",
                    b.algo, b.dispatch
                );
            }
            if round == 0 {
                b.false_positives = dups;
            } else {
                if dups != b.false_positives {
                    violations += 1;
                    eprintln!(
                        "FAIL: {}-{} verdicts drifted across rounds ({dups} vs {})",
                        b.algo, b.dispatch, b.false_positives
                    );
                }
                b.rates.push(rate);
            }
        }
        if round == 0 {
            println!("# warm-up complete");
        }
    }
    cfd_core::simd::set_scalar_override(None);

    let cell = |algo: &str, dispatch: &str| {
        benches
            .iter()
            .find(|b| b.algo == algo && b.dispatch == dispatch)
            .expect("all cells present")
    };

    // Dispatch must never change a verdict.
    let mut verdicts_agree = true;
    for algo in SHOOT_ALGOS {
        let (s, w) = (
            cell(algo, "scalar").false_positives,
            cell(algo, "wide").false_positives,
        );
        if s != w {
            verdicts_agree = false;
            eprintln!("FAIL: {algo} wide and scalar verdicts disagree ({w} vs {s})");
        }
    }

    // ---- Human table ------------------------------------------------
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# throughput --simd — blocked batch, wide vs forced-scalar kernels \
         ({label} scale, {clicks} clicks, median of {rounds} rounds, {total} bits/backend, \
         wide lanes {lanes})"
    );
    let _ = writeln!(
        table,
        "{:<20} {:>12} {:>14}",
        "config", "Mclicks/s", "false-positives"
    );
    for b in &benches {
        let _ = writeln!(
            table,
            "{:<20} {:>12.2} {:>14}",
            format!("{}-{}", b.algo, b.dispatch),
            median(&b.rates) / 1e6,
            b.false_positives
        );
    }
    let mut speedups: Vec<(&str, f64)> = Vec::new();
    for algo in SHOOT_ALGOS {
        let s = median(&cell(algo, "wide").rates) / median(&cell(algo, "scalar").rates);
        let _ = writeln!(table, "# {algo}: wide/scalar = {s:.2}x");
        speedups.push((algo, s));
    }
    print!("{table}");

    // ---- Gates ------------------------------------------------------
    // GBF's hot path is word-granular lane cleaning (~34 word RMWs per
    // click), which the wide dispatch turns into contiguous AND-store
    // sweeps — the one backend where SIMD buys a whole-pipeline win
    // (isolated sweep kernel ~1.9x; end-to-end 1.22–1.35x across runs,
    // median ~1.26x on the reference one-core host). The gate floor
    // sits at 1.2x — below the measured band, not at its midpoint — so
    // a rerun on a noisy host reproduces PASS instead of coin-flipping
    // around the point estimate. The probe-dominated backends are
    // early-exit branch-bound (see docs/PERFORMANCE.md "SIMD probe
    // path"): there the wide kernels are bit-identical rewrites gated
    // only against regression, with a floor loose enough for one-core
    // VM noise (APBF shares every instruction across both rows yet
    // still wobbles ~10% between runs). Full scale, AVX2 hosts only —
    // with one lane both rows run the same kernels.
    let speedup_ok = speedups.iter().all(|&(algo, s)| {
        let floor = if algo == "gbf" { 1.2 } else { 0.85 };
        s >= floor
    });
    let gates_apply = !quick && lanes > 1;
    let scans_ok = violations == 0;
    println!(
        "# gates: gbf wide>=1.2x + no backend <0.85x {} | verdicts-agree {} | no-hot-scans {}",
        if speedup_ok {
            "PASS"
        } else if gates_apply {
            "FAIL"
        } else {
            "SKIP (quick)"
        },
        if verdicts_agree { "PASS" } else { "FAIL" },
        if scans_ok { "PASS" } else { "FAIL" },
    );

    // ---- Machine-readable JSON --------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"cfd-bench-simd/1\",");
    let _ = writeln!(json, "  \"scale\": \"{label}\",");
    let _ = writeln!(json, "  \"clicks\": {clicks},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"window\": {n},");
    let _ = writeln!(json, "  \"memory_bits_budget\": {total},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"lanes\": {lanes},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, b) in benches.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"algo\": \"{}\",", b.algo);
        let _ = writeln!(json, "      \"dispatch\": \"{}\",", b.dispatch);
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_median\": {},",
            json_f64(median(&b.rates))
        );
        let rs: Vec<String> = b.rates.iter().map(|&r| json_f64(r)).collect();
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_rounds\": [{}],",
            rs.join(", ")
        );
        let _ = writeln!(json, "      \"false_positives\": {}", b.false_positives);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < benches.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    for (i, (algo, s)) in speedups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{algo}\": {{ \"wide\": {} }}{}",
            json_f64(*s),
            if i + 1 < speedups.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"checks\": {{");
    let _ = writeln!(json, "    \"simd_speedup_ok\": {speedup_ok},");
    let _ = writeln!(json, "    \"verdicts_agree\": {verdicts_agree},");
    let _ = writeln!(json, "    \"no_occupancy_scans\": {scans_ok}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write json");
    println!("# wrote {out_path}");

    let table_path = format!("results/throughput_simd_{label}.txt");
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write(&table_path, &table);
        println!("# wrote {table_path}");
    }

    let speedup_gate_ok = !gates_apply || speedup_ok;
    if !verdicts_agree || !scans_ok || !speedup_gate_ok {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// PR 9 scenario: multi-tenant arena vs one big detector at equal memory.
// ---------------------------------------------------------------------

/// Per-tenant sliding window: each (advertiser, campaign) pair gets its
/// own dedup horizon of this many clicks.
const TENANT_WINDOW: usize = 32;

/// Per-tenant FP target the arena regions are sized for (the
/// `arena_tenant_budget` operating point the bytes/tenant gate uses).
const TENANT_TARGET_FP: f64 = 0.01;

/// Shards for the tenant-routed sharded row.
const TENANT_SHARDS: usize = 4;

/// A tenant-scenario runner over (flat 16-byte keys, per-key slices);
/// arena rows also return their post-run [`cfd_core::ArenaStats`]
/// `(live_tenants, slab_bytes)` pair, read *after* the timed region.
type TenantRunFn = Box<dyn FnMut(&[u8], &[&[u8]]) -> (RunResult, Option<(usize, usize)>)>;

struct TenantBench {
    name: &'static str,
    run: TenantRunFn,
    rates: Vec<f64>,
    duplicates: u64,
}

/// One arena provisioned for `slots` tenants at the budgeted per-tenant
/// geometry.
fn tenant_arena(budget: TenantBudget, slots: usize, seed: u64) -> TenantArena {
    TenantArena::new(
        ArenaConfig::new(TENANT_WINDOW, budget.entries, budget.k, seed).with_initial_slots(slots),
    )
    .expect("arena config")
}

/// Four arenas behind a tenant-routing shard router, probe families
/// aligned so routing hashes each click once.
fn tenant_sharded(budget: TenantBudget, slots_per_shard: usize) -> ShardedDetector<TenantArena> {
    let router = cfd_core::ShardRouter::new(7, TENANT_SHARDS).expect("router");
    let seed = router.probe_seed();
    let shards = (0..TENANT_SHARDS)
        .map(|_| tenant_arena(budget, slots_per_shard, seed))
        .collect();
    ShardedDetector::new(7, shards).expect("sharded arena")
}

/// The single-detector baseline: one big TBF holding the same total
/// memory the arena slab holds, window spanning the same aggregate
/// element capacity (`live_tenants · TENANT_WINDOW`).
fn tenant_baseline(total_bits: usize, window: usize, k: usize) -> Tbf {
    let entry_bits = shoot_bits_for_value(2 * window as u64 - 1) as usize;
    Tbf::new(
        TbfConfig::builder(window)
            .entries((total_bits / entry_bits).max(1))
            .hash_count(k)
            .seed(7)
            .build()
            .expect("baseline config"),
    )
    .expect("baseline tbf")
}

/// Flat-key batch drive shared by the arena-batch and baseline rows.
fn drive_tenant_flat<D: DuplicateDetector + DetectorStats>(d: &mut D, keys: &[u8]) -> RunResult {
    let start = Instant::now();
    let mut dups = 0u64;
    let mut verdicts = Vec::with_capacity(BATCH);
    for chunk in keys.chunks(BATCH * TENANT_KEY_LEN) {
        d.observe_flat_into(chunk, TENANT_KEY_LEN, &mut verdicts);
        dups += verdicts
            .iter()
            .filter(|&&v| v == Verdict::Duplicate)
            .count() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    (
        (keys.len() / TENANT_KEY_LEN) as f64 / secs,
        dups,
        d.occupancy_scans(),
    )
}

fn tenant_benches(budget: TenantBudget, live: usize, total_bits: usize) -> Vec<TenantBench> {
    let baseline_window = (live * TENANT_WINDOW).max(2);
    vec![
        TenantBench {
            name: "arena-seq",
            run: Box::new(move |keys, _| {
                let mut d = tenant_arena(budget, live, 7);
                let start = Instant::now();
                let mut dups = 0u64;
                for key in keys.chunks_exact(TENANT_KEY_LEN) {
                    if d.observe(key) == Verdict::Duplicate {
                        dups += 1;
                    }
                }
                let secs = start.elapsed().as_secs_f64();
                let rate = (keys.len() / TENANT_KEY_LEN) as f64 / secs;
                let scans = d.occupancy_scans();
                let stats = d.arena_stats();
                (
                    (rate, dups, scans),
                    Some((stats.live_tenants, stats.slab_bytes)),
                )
            }),
            rates: Vec::new(),
            duplicates: 0,
        },
        TenantBench {
            name: "arena-batch",
            run: Box::new(move |keys, _| {
                let mut d = tenant_arena(budget, live, 7);
                let result = drive_tenant_flat(&mut d, keys);
                let stats = d.arena_stats();
                (result, Some((stats.live_tenants, stats.slab_bytes)))
            }),
            rates: Vec::new(),
            duplicates: 0,
        },
        TenantBench {
            name: "arena-sharded",
            run: Box::new(move |_, ids| {
                let mut d = tenant_sharded(budget, live.div_ceil(TENANT_SHARDS));
                let start = Instant::now();
                let mut dups = 0u64;
                for chunk in ids.chunks(BATCH) {
                    dups += d
                        .observe_batch_tenant_routed(chunk)
                        .iter()
                        .filter(|&&v| v == Verdict::Duplicate)
                        .count() as u64;
                }
                let secs = start.elapsed().as_secs_f64();
                let rate = ids.len() as f64 / secs;
                let scans = d.occupancy_scans();
                let (mut live_total, mut slab_total) = (0usize, 0usize);
                for shard in d.shards() {
                    let stats = shard.arena_stats();
                    live_total += stats.live_tenants;
                    slab_total += stats.slab_bytes;
                }
                ((rate, dups, scans), Some((live_total, slab_total)))
            }),
            rates: Vec::new(),
            duplicates: 0,
        },
        TenantBench {
            name: "single-tbf",
            run: Box::new(move |keys, _| {
                let mut d = tenant_baseline(total_bits, baseline_window, budget.k);
                (drive_tenant_flat(&mut d, keys), None)
            }),
            rates: Vec::new(),
            duplicates: 0,
        },
    ]
}

fn run_tenants_scenario(quick: bool, out_path: &str) {
    let (label, clicks, rounds, tenants) = if quick {
        ("quick", 1usize << 18, 3usize, 1usize << 12)
    } else {
        ("full", 1usize << 22, 10usize, 1usize << 20)
    };
    let budget = arena_tenant_budget(TENANT_WINDOW, TENANT_TARGET_FP);
    println!(
        "# throughput --tenants — {label} scale: {clicks} clicks/round, {rounds} measured \
         rounds (+1 warm-up), {tenants}-tenant universe, window {TENANT_WINDOW}/tenant, \
         budget {} B/tenant (m_t = {}, k = {}), batch {BATCH}",
        budget.bytes_per_tenant, budget.entries, budget.k
    );

    // Deterministic Zipf-skewed tenant stream, generated once outside
    // every timed region. The generator counts the duplicates it
    // injects (all at tenant-relative lag 1, guaranteed in-window), so
    // the stream doubles as the isolation experiment.
    let mut traffic = TenantTraffic::new(TenantTrafficConfig::new(tenants, 9));
    let mut keys: Vec<u8> = Vec::new();
    traffic.fill_flat(clicks, &mut keys);
    let injected = traffic.duplicates_emitted();
    let ids: Vec<&[u8]> = keys.chunks_exact(TENANT_KEY_LEN).collect();

    // Tenants the stream actually touches: the arena materializes
    // exactly these, so provisioning for them keeps the amortized
    // bytes/tenant at the analysis budget (capacity planning, not
    // oracle knowledge — a deployment sizes for its tenant count).
    let live: usize = {
        let mut seen = std::collections::HashSet::new();
        for id in &ids {
            seen.insert(cfd_hash::tenant_prefix(id));
        }
        seen.len()
    };
    let total_bits = live * budget.bytes_per_tenant * 8;
    println!("# stream: {live} distinct tenants hit, {injected} duplicates injected");

    let mut benches = tenant_benches(budget, live, total_bits);
    let mut violations = 0u32;
    let mut isolation_ok = true;
    let mut bytes_per_tenant_measured = 0.0f64;
    let mut live_measured = 0usize;
    // Per-probe FP bound for the excess-duplicate isolation gate: each
    // click probes one tenant region at most this full.
    let fp_bound = budget.predicted_fp;
    let fp_slack = 3.0 * (fp_bound * (1.0 - fp_bound) / clicks as f64).sqrt();
    for round in 0..=rounds {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..benches.len()).collect()
        } else {
            (0..benches.len()).rev().collect()
        };
        for idx in order {
            let b = &mut benches[idx];
            let ((rate, dups, scans), stats) = (b.run)(&keys, &ids);
            if scans != 0 {
                violations += 1;
                eprintln!(
                    "FAIL: {} performed {scans} occupancy scans in the hot loop",
                    b.name
                );
            }
            if let Some((live_seen, slab_bytes)) = stats {
                // Verdict isolation, asserted every round: at least the
                // injected duplicates (no tenant lost window state), at
                // most the per-tenant FP bound beyond them (no
                // cross-tenant contamination).
                if dups < injected {
                    isolation_ok = false;
                    eprintln!(
                        "FAIL: {} missed injected duplicates ({dups} < {injected})",
                        b.name
                    );
                }
                let excess = (dups.saturating_sub(injected)) as f64 / clicks as f64;
                if excess > fp_bound + fp_slack {
                    isolation_ok = false;
                    eprintln!(
                        "FAIL: {} excess duplicate rate {excess:.3e} exceeds the \
                         per-tenant FP bound {fp_bound:.3e}",
                        b.name
                    );
                }
                if live_seen != live {
                    isolation_ok = false;
                    eprintln!(
                        "FAIL: {} materialized {live_seen} tenants, stream hit {live}",
                        b.name
                    );
                }
                if b.name == "arena-batch" {
                    bytes_per_tenant_measured = slab_bytes as f64 / live_seen.max(1) as f64;
                    live_measured = live_seen;
                }
            }
            if round == 0 {
                b.duplicates = dups;
            } else {
                if dups != b.duplicates {
                    violations += 1;
                    eprintln!(
                        "FAIL: {} verdicts drifted across rounds ({dups} vs {})",
                        b.name, b.duplicates
                    );
                }
                b.rates.push(rate);
            }
        }
        if round == 0 {
            println!("# warm-up complete");
        }
    }

    let rate_of = |name: &str| {
        benches
            .iter()
            .find(|b| b.name == name)
            .map(|b| median(&b.rates))
            .expect("all rows present")
    };
    let baseline_ratio = rate_of("arena-batch") / rate_of("single-tbf");
    let batch_speedup = rate_of("arena-batch") / rate_of("arena-seq");
    let bytes_ratio = bytes_per_tenant_measured / budget.bytes_per_tenant as f64;

    // ---- Human table ------------------------------------------------
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# throughput --tenants — arena vs one big TBF at equal memory \
         ({label} scale, {clicks} clicks, median of {rounds} rounds, {live} live tenants, \
         {total_bits} bits/side)"
    );
    let _ = writeln!(table, "{:<18} {:>12} {:>14}", "config", "Mclicks/s", "dups");
    for b in &benches {
        let _ = writeln!(
            table,
            "{:<18} {:>12.2} {:>14}",
            b.name,
            median(&b.rates) / 1e6,
            b.duplicates
        );
    }
    let _ = writeln!(
        table,
        "# arena-batch/single-tbf = {baseline_ratio:.2}x, batch/seq = {batch_speedup:.2}x"
    );
    let _ = writeln!(
        table,
        "# bytes/live-tenant = {bytes_per_tenant_measured:.1} \
         (budget {}, ratio {bytes_ratio:.3})",
        budget.bytes_per_tenant
    );
    print!("{table}");

    // ---- Gates ------------------------------------------------------
    let throughput_ok = baseline_ratio >= 0.7;
    let bytes_ok = bytes_ratio <= 1.25;
    let scans_ok = violations == 0;
    println!(
        "# gates: arena>=0.7x-baseline {} | bytes/tenant<=1.25x-budget {} | isolation {} | \
         rounds-stable+no-hot-scans {}",
        if throughput_ok {
            "PASS"
        } else if quick {
            "SKIP (quick)"
        } else {
            "FAIL"
        },
        if bytes_ok { "PASS" } else { "FAIL" },
        if isolation_ok { "PASS" } else { "FAIL" },
        if scans_ok { "PASS" } else { "FAIL" },
    );

    // ---- Machine-readable JSON --------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"cfd-bench-tenants/1\",");
    let _ = writeln!(json, "  \"scale\": \"{label}\",");
    let _ = writeln!(json, "  \"clicks\": {clicks},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"tenant_universe\": {tenants},");
    let _ = writeln!(json, "  \"live_tenants\": {live_measured},");
    let _ = writeln!(json, "  \"tenant_window\": {TENANT_WINDOW},");
    let _ = writeln!(json, "  \"duplicates_injected\": {injected},");
    let _ = writeln!(json, "  \"memory_bits_per_side\": {total_bits},");
    let _ = writeln!(json, "  \"budget\": {{");
    let _ = writeln!(json, "    \"entries\": {},", budget.entries);
    let _ = writeln!(json, "    \"hash_count\": {},", budget.k);
    let _ = writeln!(
        json,
        "    \"predicted_fp\": {},",
        json_f64(budget.predicted_fp)
    );
    let _ = writeln!(
        json,
        "    \"bytes_per_tenant\": {}",
        budget.bytes_per_tenant
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, b) in benches.iter().enumerate() {
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", b.name);
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_median\": {},",
            json_f64(median(&b.rates))
        );
        let rs: Vec<String> = b.rates.iter().map(|&r| json_f64(r)).collect();
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_rounds\": [{}],",
            rs.join(", ")
        );
        let _ = writeln!(json, "      \"duplicates\": {}", b.duplicates);
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < benches.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"bytes_per_tenant_measured\": {},",
        json_f64(bytes_per_tenant_measured)
    );
    let _ = writeln!(json, "  \"baseline_ratio\": {},", json_f64(baseline_ratio));
    let _ = writeln!(json, "  \"batch_speedup\": {},", json_f64(batch_speedup));
    let _ = writeln!(json, "  \"checks\": {{");
    let _ = writeln!(json, "    \"throughput_ok\": {throughput_ok},");
    let _ = writeln!(json, "    \"bytes_per_tenant_ok\": {bytes_ok},");
    let _ = writeln!(json, "    \"isolation_ok\": {isolation_ok},");
    let _ = writeln!(json, "    \"no_occupancy_scans\": {scans_ok}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(out_path, &json).expect("write json");
    println!("# wrote {out_path}");

    let table_path = format!("results/throughput_tenants_{label}.txt");
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write(&table_path, &table);
        println!("# wrote {table_path}");
    }

    let throughput_gate_ok = quick || throughput_ok;
    if !bytes_ok || !isolation_ok || !scans_ok || !throughput_gate_ok {
        std::process::exit(1);
    }
}

/// PR 10 scenario: `--scenario <file.toml>` — compile a declarative
/// scenario spec and brute-force its sweep grid, writing the
/// `cfd-bench-sweep/1` artifact (same driver as `cfd sweep`).
fn run_scenario_sweep(path: &str, quick: bool, out: &str) {
    use click_fraud_detection::cli::UsageError;
    use click_fraud_detection::sweep;

    let spec = cfd_stream::scenario::ScenarioSpec::from_path(path.as_ref()).unwrap_or_else(|e| {
        let err = UsageError::Invalid {
            option: "scenario",
            reason: e.to_string(),
        };
        eprintln!("error: {err}");
        std::process::exit(2);
    });
    let opts = if quick {
        sweep::SweepOptions::quick()
    } else {
        sweep::SweepOptions::full()
    };
    eprintln!(
        "sweeping `{}`: {} grid points over {} clicks{}",
        spec.name,
        spec.grid().len(),
        spec.clicks,
        if opts.quick { " [quick]" } else { "" }
    );
    let report = sweep::run(&spec, &opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    print!("{}", sweep::render_table(&report));
    std::fs::write(out, sweep::report_json(&report)).unwrap_or_else(|e| {
        eprintln!("error: writing {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
}

fn main() {
    let parsed = cfd_bench::args::parse_or_exit(
        &[
            "quick", "full", "pipeline", "timed", "shootout", "simd", "tenants",
        ],
        &["out", "scenario"],
    );
    let quick = parsed.flag("quick") && !parsed.flag("full");
    let pipeline = parsed.flag("pipeline");
    let timed = parsed.flag("timed");
    let shootout = parsed.flag("shootout");
    let simd = parsed.flag("simd");
    let tenants = parsed.flag("tenants");
    let out_path: Option<String> = parsed.option("out").map(ToOwned::to_owned);
    if let Some(path) = parsed.option("scenario") {
        let out = out_path.unwrap_or_else(|| "BENCH_sweep.json".to_owned());
        run_scenario_sweep(path, quick, &out);
        return;
    }
    if pipeline {
        let out = out_path.unwrap_or_else(|| "BENCH_pipeline.json".to_owned());
        run_pipeline_scenario(quick, &out);
        return;
    }
    if timed {
        let out = out_path.unwrap_or_else(|| "BENCH_pr5.json".to_owned());
        run_timed_scenario(quick, &out);
        return;
    }
    if shootout {
        let out = out_path.unwrap_or_else(|| "BENCH_pr6.json".to_owned());
        run_shootout_scenario(quick, &out);
        return;
    }
    if simd {
        let out = out_path.unwrap_or_else(|| "BENCH_pr8.json".to_owned());
        run_simd_scenario(quick, &out);
        return;
    }
    if tenants {
        let out = out_path.unwrap_or_else(|| "BENCH_pr9.json".to_owned());
        run_tenants_scenario(quick, &out);
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_pr3.json".to_owned());
    let scale = if quick {
        ScaleCfg {
            label: "quick",
            clicks: 1 << 18,
            rounds: 3,
            tbf_n: 1 << 16,
            gbf_n: 1 << 17,
        }
    } else {
        ScaleCfg {
            label: "full",
            clicks: 1 << 22,
            rounds: 10,
            tbf_n: 1 << 20,
            gbf_n: 1 << 21,
        }
    };

    // Distinct id stream: generation is outside every timed region.
    let raw: Vec<[u8; 8]> = (0..scale.clicks as u64).map(u64::to_le_bytes).collect();
    let ids: Vec<&[u8]> = raw.iter().map(<[u8; 8]>::as_slice).collect();

    let mut benches = benches(&scale);
    println!(
        "# throughput — {} scale: {} clicks/round, {} measured rounds (+1 warm-up), batch {BATCH}",
        scale.label, scale.clicks, scale.rounds
    );

    let mut scan_violations = 0u32;
    for round in 0..=scale.rounds {
        // Alternate configuration order so slow drift (thermal, noisy
        // neighbours) hits scattered and blocked symmetrically.
        let order: Vec<usize> = if round % 2 == 0 {
            (0..benches.len()).collect()
        } else {
            (0..benches.len()).rev().collect()
        };
        for idx in order {
            let b = &mut benches[idx];
            let (rate, dups, scans) = (b.run)(&ids);
            if scans != 0 {
                scan_violations += 1;
                eprintln!(
                    "FAIL: {} performed {scans} occupancy scans in the hot loop",
                    b.name
                );
            }
            if round == 0 {
                // Warm-up round: keep the (deterministic) FP count,
                // discard the timing.
                b.false_positives = dups;
            } else {
                b.rates.push(rate);
            }
        }
        if round == 0 {
            println!("# warm-up complete");
        }
    }

    // ---- Human table ---------------------------------------------------
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# throughput — scattered vs blocked probing ({} scale, {} clicks, median of {} rounds)",
        scale.label, scale.clicks, scale.rounds
    );
    let _ = writeln!(
        table,
        "{:<24} {:>12} {:>12} {:>12} {:>12}",
        "config", "Mclicks/s", "fp-measured", "fp-model", "model-ratio"
    );
    for b in &benches {
        let fp = b.false_positives as f64 / scale.clicks as f64;
        let (model, ratio) = match b.fp_model {
            Some(m) => (
                format!("{m:.3e}"),
                format!("{:.2}", fp / m.max(f64::MIN_POSITIVE)),
            ),
            None => ("-".to_owned(), "-".to_owned()),
        };
        let _ = writeln!(
            table,
            "{:<24} {:>12.2} {:>12.3e} {:>12} {:>12}",
            b.name,
            median(&b.rates) / 1e6,
            fp,
            model,
            ratio
        );
    }
    let mut speedups: Vec<(&str, f64)> = Vec::new();
    for family in ["tbf", "gbf", "sharded-tbf"] {
        let rate = |layout: ProbeLayout| {
            benches
                .iter()
                .find(|b| b.family == family && b.layout == layout)
                .map(|b| median(&b.rates))
                .expect("both layouts present")
        };
        speedups.push((
            family,
            rate(ProbeLayout::Blocked) / rate(ProbeLayout::Scattered),
        ));
    }
    for (family, s) in &speedups {
        let _ = writeln!(table, "# {family}: blocked/scattered speedup = {s:.2}x");
    }
    print!("{table}");

    // ---- PASS/FAIL gates ----------------------------------------------
    // Speedup gate: the memory-bound single-thread families must clear
    // 1.3x at full scale (quick CI runs only smoke the machinery).
    let speedup_ok = speedups
        .iter()
        .filter(|(f, _)| *f == "tbf" || *f == "gbf")
        .all(|(_, s)| *s >= 1.3);
    // FP gate: measured blocked FP within 10% of the closed-form model,
    // plus three-sigma sampling slack for the finite stream.
    let mut fp_ok = true;
    for b in &benches {
        if let Some(model) = b.fp_model {
            let fp = b.false_positives as f64 / scale.clicks as f64;
            let slack = 3.0 * (model * (1.0 - model) / scale.clicks as f64).sqrt();
            if fp > model * 1.1 + slack {
                fp_ok = false;
                eprintln!(
                    "FAIL: {} measured FP {fp:.3e} exceeds model {model:.3e} by >10%",
                    b.name
                );
            }
        }
    }
    let scans_ok = scan_violations == 0;
    println!(
        "# gates: speedup>=1.3x {} | fp-within-model {} | no-hot-scans {}",
        if speedup_ok {
            "PASS"
        } else if quick {
            "SKIP (quick)"
        } else {
            "FAIL"
        },
        if fp_ok { "PASS" } else { "FAIL" },
        if scans_ok { "PASS" } else { "FAIL" },
    );

    // ---- Machine-readable JSON ----------------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"cfd-bench-throughput/1\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.label);
    let _ = writeln!(json, "  \"clicks\": {},", scale.clicks);
    let _ = writeln!(json, "  \"rounds\": {},", scale.rounds);
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"configs\": [");
    for (i, b) in benches.iter().enumerate() {
        let fp = b.false_positives as f64 / scale.clicks as f64;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{}\",", b.name);
        let _ = writeln!(json, "      \"family\": \"{}\",", b.family);
        let _ = writeln!(json, "      \"layout\": \"{}\",", layout_name(b.layout));
        let _ = writeln!(json, "      \"sharded\": {},", b.sharded);
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_median\": {},",
            json_f64(median(&b.rates))
        );
        let rounds: Vec<String> = b.rates.iter().map(|&r| json_f64(r)).collect();
        let _ = writeln!(
            json,
            "      \"clicks_per_sec_rounds\": [{}],",
            rounds.join(", ")
        );
        let _ = writeln!(json, "      \"fp_measured\": {},", json_f64(fp));
        let _ = writeln!(
            json,
            "      \"fp_model\": {}",
            b.fp_model.map_or("null".to_owned(), json_f64)
        );
        let _ = writeln!(
            json,
            "    }}{}",
            if i + 1 < benches.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    for (i, (family, s)) in speedups.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{family}\": {}{}",
            json_f64(*s),
            if i + 1 < speedups.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"checks\": {{");
    let _ = writeln!(json, "    \"speedup_ok\": {speedup_ok},");
    let _ = writeln!(json, "    \"fp_within_model\": {fp_ok},");
    let _ = writeln!(json, "    \"no_occupancy_scans\": {scans_ok}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write json");
    println!("# wrote {out_path}");

    let table_path = format!("results/throughput_{}.txt", scale.label);
    if std::fs::create_dir_all("results").is_ok() {
        let _ = std::fs::write(&table_path, &table);
        println!("# wrote {table_path}");
    }

    if !fp_ok || !scans_ok || (!quick && !speedup_ok) {
        std::process::exit(1);
    }
}
