//! Table TS — throughput scaling of the sharded, batch-oriented
//! detection layer.
//!
//! Four progressively layered measurements over the same
//! duplicate-injected click stream:
//!
//! 1. **sequential** — the pre-refactor path: one TBF, one
//!    `observe` call per click.
//! 2. **batched, S shards** — `ShardedDetector<Tbf>` with per-shard
//!    window `N/S` (same total memory), driven single-threaded through
//!    `observe_batch` (hash up front, prefetch ahead, probe
//!    back-to-back). On one core the S > 1 rows carry the routing and
//!    scatter overhead with no parallelism to pay for it — they bound
//!    that overhead from above.
//! 3. **detector stage, S workers (projected)** — each shard's bucket
//!    sub-stream is timed *in isolation*, exactly the work one pipeline
//!    worker performs (workers share no state; routing runs on the
//!    ingest thread, overlapped). `count / max_shard_time` is the
//!    detector-stage wall time on S dedicated cores, so this row is the
//!    pipeline's scaling law measured without needing S physical cores.
//! 4. **pipeline, S shards** — the full `run_sharded_pipeline`
//!    end-to-end (ingest routing, one worker thread per shard,
//!    resequencer, billing), against a faithful reconstruction of the
//!    seed's pre-refactor pipeline (per-click channel messages, a mutex
//!    lock per click). True thread scaling is bounded by the host's
//!    core count, which the table prints for honest interpretation; the
//!    monotone-scaling check uses these rows when the host has at least
//!    as many cores as shards, and the projected rows otherwise.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin table_shard [--paper|--smoke]
//! ```

use cfd_adnet::{
    run_sharded_pipeline, run_sharded_pipeline_instrumented, Advertiser, AdvertiserId,
    BillingEngine, Campaign, ClickOutcome, FraudScorer, PipelineConfig, PipelineTelemetry,
    Registry,
};
use cfd_core::sharded::{per_shard_window, ShardedDetector};
use cfd_core::{Tbf, TbfConfig};
use cfd_stream::{AdId, Click, DuplicateInjector, UniqueClickStream};
use cfd_windows::{DuplicateDetector, Verdict};
use crossbeam::channel;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH: usize = 1024;
const ROUNDS: usize = 5;
const CELLS_PER_ELEMENT: usize = 8;
const HASHES: usize = 6;
const ADS: u32 = 64;

fn sharded_tbf(n: usize, shards: usize) -> ShardedDetector<Tbf> {
    ShardedDetector::from_fn(9, shards, |_| {
        let n_s = per_shard_window(n, shards);
        Tbf::new(
            TbfConfig::builder(n_s)
                .entries(n_s * CELLS_PER_ELEMENT)
                .hash_count(HASHES)
                .seed(1)
                .build()
                .expect("cfg"),
        )
    })
    .expect("sharded detector")
}

/// One single-threaded contestant in the interleaved measurement.
struct Competitor {
    name: &'static str,
    shards: String,
    detector: Box<dyn DuplicateDetector>,
    batched: bool,
}

fn row(name: &str, shards: &str, melems: f64, memory_bits: usize) {
    println!(
        "{:<24} {:>7} {:>12.3} {:>12.1}",
        name,
        shards,
        melems,
        memory_bits as f64 / 8.0 / 1024.0
    );
}

/// Faithful reconstruction of the seed's pipeline detector stage
/// (pre-refactor): one click per bounded-channel message, per-click
/// `observe`, and a `Mutex`-guarded progress counter taken on every
/// click in both stages. This is the baseline the batched, sharded
/// pipeline is judged against.
fn prerefactor_pipeline_melems(
    mut detector: Tbf,
    registry: Registry,
    clicks: &[Click],
    queue: usize,
) -> f64 {
    let progress = Arc::new(Mutex::new((0u64, 0u64)));
    let start = Instant::now();
    std::thread::scope(|s| {
        let (tx_raw, rx_raw) = channel::bounded::<Click>(queue);
        let (tx_judged, rx_judged) = channel::bounded::<(Click, Verdict)>(queue);

        let progress_det = Arc::clone(&progress);
        s.spawn(move || {
            let mut scorer = FraudScorer::new();
            for click in rx_raw {
                let verdict = detector.observe(&click.key());
                scorer.record(&click, verdict);
                progress_det.lock().0 += 1;
                if tx_judged.send((click, verdict)).is_err() {
                    break;
                }
            }
        });

        let progress_bill = Arc::clone(&progress);
        s.spawn(move || {
            let mut registry = registry;
            let mut engine = BillingEngine::new(());
            let mut savings = 0u64;
            for (click, verdict) in rx_judged {
                let outcome = engine.process_judged(&click, verdict, &mut registry);
                if outcome == ClickOutcome::DuplicateBlocked {
                    if let Some(c) = registry.campaign(click.id.ad) {
                        savings += c.cpc_micros;
                    }
                }
                progress_bill.lock().1 += 1;
            }
            std::hint::black_box(savings);
        });

        for &click in clicks {
            if tx_raw.send(click).is_err() {
                break;
            }
        }
        drop(tx_raw);
    });
    let billed = progress.lock().1;
    assert_eq!(billed, clicks.len() as u64);
    clicks.len() as f64 / start.elapsed().as_secs_f64() / 1e6
}

fn registry() -> Registry {
    let mut r = Registry::new();
    r.add_advertiser(Advertiser::new(AdvertiserId(1), "acme", u64::MAX / 4));
    for ad in 0..ADS {
        r.add_campaign(Campaign {
            ad: AdId(ad),
            advertiser: AdvertiserId(1),
            cpc_micros: 100,
        })
        .expect("advertiser registered");
    }
    r
}

fn main() {
    let scale = cfd_bench::args::parse_or_exit(cfd_bench::args::SCALE_FLAGS, &[]).scale();
    // 4x the figure window: the batched path's up-front hashing +
    // prefetch pays off in proportion to how badly the probe reads miss
    // cache, so the filter must comfortably exceed L1/L2.
    let n = scale.n() * 4;
    let count = 2 * n;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let clicks: Vec<Click> =
        DuplicateInjector::new(UniqueClickStream::new(7, 16, ADS), 0.25, n / 2, 8)
            .take(count)
            .collect();
    let keys: Vec<[u8; 16]> = clicks.iter().map(Click::key).collect();

    println!(
        "# Table TS — sharded detection throughput, {} (N = {n}, {count} clicks, {cores} core(s))",
        scale.label()
    );
    println!(
        "{:<24} {:>7} {:>12} {:>12}",
        "path", "shards", "Melem/s", "mem (KiB)"
    );

    // 1 + 2. Pre-refactor sequential path vs single-thread batched
    // sharded paths, measured in interleaved rounds (every contestant
    // samples every noise phase of the host; best-of-ROUNDS each).
    let mut competitors = vec![Competitor {
        name: "sequential per-click",
        shards: "-".to_owned(),
        detector: Box::new(sharded_tbf(n, 1).into_shards().pop().expect("one shard")),
        batched: false,
    }];
    for shards in SHARD_COUNTS {
        competitors.push(Competitor {
            name: "batched one-thread",
            shards: shards.to_string(),
            detector: Box::new(sharded_tbf(n, shards)),
            batched: true,
        });
    }
    let mut best = vec![0.0f64; competitors.len()];
    let mut refs: Vec<&[u8]> = Vec::with_capacity(BATCH);
    for _ in 0..ROUNDS {
        for (c, best) in competitors.iter_mut().zip(&mut best) {
            c.detector.reset();
            let start = Instant::now();
            if c.batched {
                for chunk in keys.chunks(BATCH) {
                    refs.clear();
                    refs.extend(chunk.iter().map(<[u8; 16]>::as_slice));
                    c.detector.observe_batch(&refs);
                }
            } else {
                for key in &keys {
                    c.detector.observe(key);
                }
            }
            *best = best.max(count as f64 / start.elapsed().as_secs_f64() / 1e6);
        }
    }
    for (c, melems) in competitors.iter().zip(&best) {
        row(c.name, &c.shards, *melems, c.detector.memory_bits());
        if !c.batched {
            println!();
        }
    }
    let sequential = best[0];
    let batched = best[1..].to_vec();
    println!();

    // 3. Projected S-worker detector stage: each shard's bucket stream
    // timed alone (= one pipeline worker's exact workload); completion
    // on S dedicated cores is governed by the slowest shard.
    let mut projected = Vec::new();
    for shards in SHARD_COUNTS {
        let d = sharded_tbf(n, shards);
        let router = d.router();
        let memory_bits = d.memory_bits();
        let mut shard_keys: Vec<Vec<[u8; 16]>> = vec![Vec::new(); shards];
        for key in &keys {
            shard_keys[router.route(key)].push(*key);
        }
        let mut slowest = 0.0f64;
        let mut refs: Vec<&[u8]> = Vec::with_capacity(BATCH);
        for (worker, bucket) in d.into_shards().iter_mut().zip(&shard_keys) {
            let mut best = f64::INFINITY;
            for _ in 0..ROUNDS {
                worker.reset();
                let start = Instant::now();
                for chunk in bucket.chunks(BATCH) {
                    refs.clear();
                    refs.extend(chunk.iter().map(<[u8; 16]>::as_slice));
                    worker.observe_batch(&refs);
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            slowest = slowest.max(best);
        }
        let melems = count as f64 / slowest / 1e6;
        row(
            "detector stage projected",
            &shards.to_string(),
            melems,
            memory_bits,
        );
        projected.push(melems);
    }
    println!();

    // 4. Full pipeline, pre- vs post-refactor. The baseline is the
    // seed's stage layout: per-click channel messages and a mutex lock
    // per click. Thread scaling is bounded by the host's core count.
    let mut prerefactor = 0.0f64;
    for _ in 0..2 {
        let d = sharded_tbf(n, 1).into_shards().pop().expect("one shard");
        prerefactor = prerefactor.max(prerefactor_pipeline_melems(d, registry(), &clicks, 256));
    }
    row(
        "pipeline pre-refactor",
        "-",
        prerefactor,
        sharded_tbf(n, 1).memory_bits(),
    );
    let mut end_to_end = Vec::new();
    for shards in SHARD_COUNTS {
        let d = sharded_tbf(n, shards);
        let memory_bits = d.memory_bits();
        let start = Instant::now();
        let outcome = run_sharded_pipeline(
            d,
            registry(),
            clicks.iter().copied(),
            PipelineConfig {
                batch: BATCH,
                queue: 16,
            },
            None,
        );
        let melems = count as f64 / start.elapsed().as_secs_f64() / 1e6;
        assert_eq!(outcome.report.clicks, count as u64);
        row(
            "pipeline end-to-end",
            &shards.to_string(),
            melems,
            memory_bits,
        );
        end_to_end.push(melems);
    }

    println!();

    // 5. Telemetry overhead: the instrumented pipeline (per-stage
    // latency histograms, queue gauges, health flags) against the plain
    // one at the widest shard count. The hot path adds two Instant
    // reads plus three relaxed histogram RMWs per *batch*, so the two
    // must land within measurement noise. Two measurement hazards:
    //
    //  - Multi-threaded runs on a shared host are noisy (the
    //    round-to-round spread routinely exceeds the effect being
    //    measured), so the check uses the MEDIAN of per-round paired
    //    ratios, with the order alternated each round to cancel
    //    scheduler/cache drift.
    //  - The instrumented run takes one O(m) health sample per shard
    //    at shutdown — a fixed cost that amortizes on production-length
    //    streams but dominates a 2^17-click smoke run. The check
    //    therefore streams at least 2^20 clicks regardless of scale,
    //    mirroring the `cfd run --metrics` acceptance workload.
    let shards = *SHARD_COUNTS.last().expect("non-empty");
    let pipeline_cfg = PipelineConfig {
        batch: BATCH,
        queue: 16,
    };
    let check_count = count.max(1 << 20);
    let check_clicks: Vec<Click> = if check_count == count {
        clicks.clone()
    } else {
        DuplicateInjector::new(UniqueClickStream::new(7, 16, ADS), 0.25, n / 2, 8)
            .take(check_count)
            .collect()
    };
    let run_plain = || {
        let start = Instant::now();
        let outcome = run_sharded_pipeline(
            sharded_tbf(n, shards),
            registry(),
            check_clicks.iter().copied(),
            pipeline_cfg,
            None,
        );
        assert_eq!(outcome.report.clicks, check_count as u64);
        check_count as f64 / start.elapsed().as_secs_f64() / 1e6
    };
    let run_instrumented = || {
        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
        let start = Instant::now();
        let outcome = run_sharded_pipeline_instrumented(
            sharded_tbf(n, shards),
            registry(),
            check_clicks.iter().copied(),
            pipeline_cfg,
            None,
            telemetry,
        );
        let melems = check_count as f64 / start.elapsed().as_secs_f64() / 1e6;
        assert_eq!(outcome.report.clicks, check_count as u64);
        (melems, metrics.snapshot(), outcome.health)
    };
    let mut ratios = Vec::new();
    let mut plain_best = 0.0f64;
    let mut instr_best = 0.0f64;
    let mut last_instrumented = None;
    for round in 0..15 {
        let (plain, instr) = if round % 2 == 0 {
            let p = run_plain();
            let i = run_instrumented();
            (p, i)
        } else {
            let i = run_instrumented();
            let p = run_plain();
            (p, i)
        };
        ratios.push(instr.0 / plain);
        plain_best = plain_best.max(plain);
        instr_best = instr_best.max(instr.0);
        last_instrumented = Some((instr.1, instr.2));
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    let overhead = 100.0 * (1.0 - median);
    println!(
        "# check: instrumented pipeline best {instr_best:.3} vs plain best {plain_best:.3} \
         Melem/s; median paired ratio {median:.3} (overhead {overhead:+.1}%, {}; \
         round spread {:.3}..{:.3})",
        if median >= 0.95 {
            "within 5%: PASS"
        } else {
            "FAIL"
        },
        ratios.first().expect("rounds ran"),
        ratios.last().expect("rounds ran"),
    );
    let (snapshot, health) = last_instrumented.expect("rounds ran");
    println!("# telemetry summary (s={shards}, last instrumented run):");
    for stage in ["hash", "probe", "resequence", "billing"] {
        let h = snapshot
            .get_histogram(&format!("pipeline.stage.{stage}_ns"))
            .expect("stage histogram registered");
        println!(
            "#   stage {stage:<10} batches={} p50={}ns p99={}ns max={}ns",
            h.count,
            h.p50(),
            h.p99(),
            h.max
        );
    }
    println!(
        "#   resequencer stalls={} pending-peak={} clicks",
        snapshot
            .get_counter("pipeline.reseq.stalls")
            .expect("registered"),
        match snapshot
            .entries
            .iter()
            .find(|e| e.name == "pipeline.reseq.pending_peak")
            .map(|e| &e.value)
        {
            Some(cfd_telemetry::MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    );
    for (i, h) in health.iter().enumerate() {
        println!(
            "#   shard {i} fill={:.4} online-fp={:.3e} dup-rate={:.4}",
            h.mean_fill(),
            h.estimated_fp,
            h.duplicate_rate()
        );
    }

    println!();
    println!(
        "# note: single-thread batched/sequential ratio {:.3} (s=1 {:.3} vs {:.3} Melem/s): \
         batching is a wash without parallelism or memory-latency headroom.",
        batched[0] / sequential,
        batched[0],
        sequential
    );
    println!(
        "# check: batched pipeline s=1 {:.3} vs pre-refactor per-click pipeline {:.3} Melem/s ({})",
        end_to_end[0],
        prerefactor,
        if end_to_end[0] >= prerefactor {
            "refactor >= pre-refactor: PASS"
        } else {
            "FAIL"
        }
    );
    // A single shared-cache core cannot express detector-stage
    // parallelism, so judge scaling on measured end-to-end rows only
    // when every worker can have its own core.
    let (scaling, basis) = if cores >= *SHARD_COUNTS.last().expect("non-empty") {
        (&end_to_end, "pipeline end-to-end (measured)")
    } else {
        (&projected, "detector stage (projected S workers)")
    };
    let monotone = scaling.windows(2).all(|w| w[1] >= w[0]);
    println!(
        "# check: {basis} 1 -> 2 -> 4 shards {} Melem/s ({})",
        scaling
            .iter()
            .map(|m| format!("{m:.3}"))
            .collect::<Vec<_>>()
            .join(" -> "),
        if monotone {
            "monotone non-decreasing: PASS"
        } else {
            "FAIL"
        }
    );
    println!(
        "# pipeline rows measure thread scaling and are bounded by the {cores} available core(s)."
    );
}
