//! Two detector-free or tenant-keyed micro-benchmarks that the scenario
//! sweep cannot express. Every detector comparison (probe layouts, time
//! windows, the equal-memory backend shootout, SIMD dispatch) is a
//! `scenarios/bench_*.toml` spec run by `cfd sweep`.
//!
//! Protocol (reproducible by construction): fixed seeds and streams,
//! one warm-up round, ≥ 10 measured rounds at full scale with the
//! configuration order alternated between rounds, the median round
//! reported.
//!
//! ## `--pipeline`
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
//! ## `--tenants`
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

use cfd_analysis::sizing::{arena_tenant_budget, TenantBudget};
use cfd_core::{ArenaConfig, ShardedDetector, Tbf, TbfConfig, TenantArena};
use cfd_hash::{Planner, ProbePlan};
use cfd_stream::{
    BotnetConfig, BotnetStream, Click, TenantTraffic, TenantTrafficConfig, TENANT_KEY_LEN,
};
use cfd_windows::{DetectorStats, DuplicateDetector, Verdict};
use std::fmt::Write as _;
use std::time::Instant;

/// (clicks/sec, duplicate verdicts, occupancy scans) of one timed run.
type RunResult = (f64, u64, u64);

/// Batch size for the batch paths — large enough to amortize the flat
/// probe-buffer fill, small enough to stay cache-resident.
const BATCH: usize = 1024;

const USAGE: &str = "\
usage: throughput --pipeline|--tenants [--quick] [--out PATH]
  --pipeline  multi-lane vs scalar batch hashing (BENCH_pipeline.json)
  --tenants   multi-tenant arena vs one detector at equal memory (BENCH_pr9.json)
Detector comparisons are scenario specs: cfd sweep --scenario scenarios/bench_*.toml";

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
// Multi-lane hashing micro.
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
// Multi-tenant arena vs one big detector at equal memory.
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
    let entry_bits = cfd_bits::words::bits_for_value(2 * window as u64 - 1) as usize;
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

fn main() {
    let parsed =
        cfd_bench::args::parse_or_exit(&["quick", "full", "pipeline", "tenants"], &["out"]);
    let quick = parsed.flag("quick") && !parsed.flag("full");
    let out_path: Option<String> = parsed.option("out").map(ToOwned::to_owned);
    if parsed.flag("pipeline") {
        let out = out_path.unwrap_or_else(|| "BENCH_pipeline.json".to_owned());
        run_pipeline_scenario(quick, &out);
    } else if parsed.flag("tenants") {
        let out = out_path.unwrap_or_else(|| "BENCH_pr9.json".to_owned());
        run_tenants_scenario(quick, &out);
    } else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
}
