//! `cfd` — command-line front-end for the click-fraud detection suite.
//!
//! ```text
//! cfd generate --kind botnet --count 100000 --out clicks.cfdt
//! cfd detect   --algo tbf --window 8192 --trace clicks.cfdt --score-publishers
//! cfd run      --algo tbf --kind botnet --count 1000000 --shards 4 --metrics
//! cfd size     --algo gbf --window 1048576 --sub-windows 8 --target-fp 0.001
//! ```
//!
//! The trace format is the `CFDT` binary of `cfd_stream::trace`; every
//! run is deterministic for a given `--seed`. `cfd run` drives the full
//! concurrent billing pipeline and, with `--metrics[=millis]`, prints
//! periodic telemetry snapshots to stderr (the metric catalog lives in
//! `docs/OBSERVABILITY.md`).

use cfd_adnet::{
    publish_final_health, replay_client, run_sharded_pipeline, run_sharded_segment, serve,
    Advertiser, AdvertiserId, Campaign, ClientConfig, DrainControl, Endpoint, FraudScorer,
    PipelineConfig, PipelineTelemetry, SegmentState, ServeConfig, ServeInstruments, ServeTelemetry,
    ServerState,
};
use cfd_core::config::ProbeLayout;
use cfd_core::registry::{BackendGeometry, DetectorBackend, MemorySpec};
use cfd_core::sharded::ShardedDetector;
use cfd_stream::{
    read_trace, write_trace, AdId, BotnetConfig, BotnetStream, Click, CoalitionConfig,
    CoalitionStream, CrawlerStream, DuplicateInjector, FlashCrowdConfig, FlashCrowdStream,
    UniqueClickStream,
};
use cfd_telemetry::{Registry as TelemetryRegistry, Reporter, SnapshotFormat};
use cfd_windows::{
    DuplicateDetector, ExactSlidingDedup, ObservableDetector, StreamSummary, WindowSpec,
};
use click_fraud_detection::{cli, sweep};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Err(Failure::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed. A usage error (an unknown command or option, a
/// missing value, a bad value) prints the usage text after its `error:`
/// line; any other failure prints the `error:` line alone.
enum Failure {
    Usage(String),
    Runtime(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Self::Runtime(e)
    }
}

impl From<cli::UsageError> for Failure {
    fn from(e: cli::UsageError) -> Self {
        Self::Usage(e.to_string())
    }
}

/// The usage text with the per-command blocks spliced from [`cli`] (so
/// help can never drift from the options each command accepts, nor from
/// `README.md`, which embeds the gateway blocks verbatim) and the
/// `--algo` list spliced in from the backend registry (so help can never
/// drift from the registered backends).
fn usage() -> String {
    [
        "usage: cfd <command> [options]\n\ncommands:",
        cli::GENERATE_USAGE,
        cli::DETECT_USAGE,
        cli::RUN_USAGE,
        cli::SERVE_USAGE,
        cli::REPLAY_USAGE,
        cli::SWEEP_USAGE,
        cli::SIZE_USAGE,
        "  algos      list the registered detector backends (markdown table;
             README.md's algorithm table is generated from this)
  help       print this message",
    ]
    .join("\n")
    .replace("{algos}", &cfd_core::registry::algo_list())
}

/// Minimal `--name value` argument map (flags take `true`).
struct Opts(HashMap<String, String>);

impl Opts {
    /// Parses `args`, rejecting any option the command's `usage` block
    /// does not name.
    fn parse(args: &[String], usage: &str) -> Result<Self, Failure> {
        let mut map = HashMap::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| Failure::Usage(format!("expected an option, got `{arg}`")))?;
            // `--name=value` binds inline; otherwise the next
            // non-option token is the value, and a bare flag is "true".
            if let Some((name, value)) = name.split_once('=') {
                map.insert(name.to_owned(), value.to_owned());
                continue;
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                _ => "true".to_owned(),
            };
            map.insert(name.to_owned(), value);
        }
        cli::check_options(usage, map.keys().map(String::as_str))?;
        Ok(Self(map))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn required(&self, name: &str) -> Result<&str, Failure> {
        self.get(name)
            .ok_or_else(|| Failure::Usage(format!("missing --{name}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, Failure> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| bad_value(name, v)),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Parses a count option that must be at least 1, rejecting zero
    /// (and garbage) with the typed [`cli::UsageError`] instead of
    /// letting a zero-shard router or zero-bit detector budget panic
    /// deeper in the stack.
    fn positive(&self, name: &'static str, default: usize) -> Result<usize, Failure> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => Ok(cli::parse_positive(name, raw)?),
        }
    }
}

/// The usage error of an option value that does not parse.
fn bad_value(name: &str, value: &str) -> Failure {
    Failure::Usage(format!("--{name}: bad value `{value}`"))
}

fn run(args: &[String]) -> Result<(), Failure> {
    match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&Opts::parse(&args[1..], cli::GENERATE_USAGE)?),
        Some("detect") => cmd_detect(&Opts::parse(&args[1..], cli::DETECT_USAGE)?),
        Some("run") => cmd_run(&Opts::parse(&args[1..], cli::RUN_USAGE)?),
        Some("serve") => cmd_serve(&Opts::parse(&args[1..], cli::SERVE_USAGE)?),
        Some("replay-client") => cmd_replay_client(&Opts::parse(&args[1..], cli::REPLAY_USAGE)?),
        Some("size") => cmd_size(&Opts::parse(&args[1..], cli::SIZE_USAGE)?),
        Some("sweep") => cmd_sweep(&Opts::parse(&args[1..], cli::SWEEP_USAGE)?),
        Some("algos") => {
            print!("{}", cfd_core::registry::markdown_table());
            Ok(())
        }
        Some("help") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(Failure::Usage(format!("unknown command `{other}`"))),
    }
}

/// Synthesizes `count` clicks of the named workload (shared by
/// `cfd generate` and `cfd run`).
fn synth_clicks(kind: &str, count: usize, seed: u64) -> Result<Vec<Click>, Failure> {
    Ok(match kind {
        "unique" => UniqueClickStream::new(seed, 16, 64).take(count).collect(),
        "duplicates" => {
            DuplicateInjector::new(UniqueClickStream::new(seed, 16, 64), 0.25, 5_000, seed ^ 1)
                .take(count)
                .collect()
        }
        "botnet" => BotnetStream::new(
            BotnetConfig {
                seed,
                ..BotnetConfig::default()
            },
            16,
            64,
        )
        .take(count)
        .map(|c| c.click)
        .collect(),
        "coalition" => CoalitionStream::new(CoalitionConfig {
            seed,
            ..CoalitionConfig::default()
        })
        .take(count)
        .map(|c| c.click)
        .collect(),
        "crawler" => CrawlerStream::new(8, 32, 10, seed).take(count).collect(),
        "flashcrowd" => FlashCrowdStream::new(FlashCrowdConfig {
            seed,
            ..FlashCrowdConfig::default()
        })
        .take(count)
        .map(|c| c.click)
        .collect(),
        other => {
            return Err(Failure::Usage(format!(
                "--kind: unknown workload `{other}`"
            )))
        }
    })
}

/// Reads a `CFDT` trace file.
fn load_trace(path: &str) -> Result<Vec<Click>, String> {
    let buf = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    read_trace(&buf).map_err(|e| e.to_string())
}

fn cmd_generate(opts: &Opts) -> Result<(), Failure> {
    let kind = opts.required("kind")?.to_owned();
    let count: usize = opts.parse_num("count", 100_000)?;
    let seed: u64 = opts.parse_num("seed", 0)?;
    let out = opts.required("out")?.to_owned();

    let clicks = synth_clicks(&kind, count, seed)?;
    let buf = write_trace(&clicks);
    std::fs::write(&out, &buf).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {count} clicks ({} bytes) to {out}", buf.len());
    Ok(())
}

/// The detector-shaping options shared by `cmd_detect`, `cmd_run` and
/// `cmd_serve`, parsed once into the registry's geometry so every
/// command builds the same detector from the same flags.
struct DetectorSpec {
    geo: BackendGeometry,
    /// Whether the backend's window is a time window (from its registry
    /// entry; `exact` is a count window).
    timed: bool,
}

impl DetectorSpec {
    fn parse(opts: &Opts, algo: &str) -> Result<Self, Failure> {
        // A zero window or zero cells-per-element would hand the
        // registry a zero-bit memory budget (for the arena backend, a
        // zero budget for every tenant) — reject it up front.
        let window = opts.positive("window", 1 << 16)?;
        let cells = opts.positive("cells-per-element", 14)?;
        let geo = BackendGeometry::new(window, MemorySpec::CellsPerElement(cells))
            .with_sub_windows(opts.parse_num("sub-windows", 8)?)
            .with_hash_count(opts.parse_num("k", 10)?)
            .with_seed(opts.parse_num("seed", 0)?)
            .with_probe(parse_layout(opts)?)
            .with_time_units(
                opts.positive("window-units", 64)? as u64,
                opts.positive("sub-units", 8)? as u64,
                opts.positive("unit-ticks", 1024)? as u64,
            );
        Ok(Self {
            geo,
            timed: cfd_core::registry::find(algo).is_some_and(|e| e.timed),
        })
    }
}

/// Builds one detector at geometry `geo` for `cmd_detect` / `cmd_run`.
/// The boxed trait object carries [`ObservableDetector`] so the
/// instrumented pipeline can also poll detector health through it.
///
/// Every Bloom-style backend resolves through the registry
/// (`cfd_core::registry`); only the `exact` oracle — which needs raw
/// ids, not hashes — is built here directly.
fn build_detector(
    algo: &str,
    geo: &BackendGeometry,
) -> Result<Box<dyn ObservableDetector + Send>, Failure> {
    if algo == "exact" {
        if geo.probe == ProbeLayout::Blocked {
            return Err(Failure::Usage(
                "--layout blocked needs a Bloom-style detector, not `exact`".into(),
            ));
        }
        return Ok(Box::new(ExactSlidingDedup::new(geo.window)));
    }
    Ok(Box::new(build_backend(algo, geo)?))
}

/// Builds one registry backend; the flags chose both name and geometry,
/// so a rejection is a usage error.
fn build_backend(algo: &str, geo: &BackendGeometry) -> Result<Box<dyn DetectorBackend>, Failure> {
    cfd_core::registry::build(algo, geo).map_err(|e| Failure::Usage(format!("--algo: {e}")))
}

/// Builds the `shards`-way keyspace composition, each shard built by
/// `build` at the registry's per-shard geometry
/// ([`BackendGeometry::for_shards`]). The routing seed is decorrelated
/// from the probe seed by `ShardRouter` itself.
fn build_sharded<D>(
    spec: &DetectorSpec,
    shards: usize,
    build: impl Fn(&BackendGeometry) -> Result<D, Failure>,
) -> Result<ShardedDetector<D>, Failure> {
    let geo = spec.geo.for_shards(shards, spec.timed);
    let inner = (0..shards)
        .map(|_| build(&geo))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShardedDetector::new(spec.geo.seed, inner).map_err(|e| e.to_string())?)
}

/// Parses `--layout scattered|blocked` (default scattered).
fn parse_layout(opts: &Opts) -> Result<ProbeLayout, Failure> {
    match opts.get("layout").unwrap_or("scattered") {
        "scattered" => Ok(ProbeLayout::Scattered),
        "blocked" => Ok(ProbeLayout::Blocked),
        other => Err(Failure::Usage(format!(
            "--layout: `{other}` (accepted: scattered, blocked)"
        ))),
    }
}

fn cmd_detect(opts: &Opts) -> Result<(), Failure> {
    let algo = opts.required("algo")?.to_owned();
    let spec = DetectorSpec::parse(opts, &algo)?;
    let shards: usize = opts.positive("shards", 1)?;
    let batch: usize = opts.positive("batch", 512)?;
    let clicks = load_trace(opts.required("trace")?)?;

    let mut detector: Box<dyn ObservableDetector + Send> = if shards > 1 {
        Box::new(build_sharded(&spec, shards, |geo| {
            build_detector(&algo, geo)
        })?)
    } else {
        build_detector(&algo, &spec.geo)?
    };

    // Every click is judged at its own trace tick; count windows ignore
    // the ticks.
    let mut summary = StreamSummary::default();
    let mut scorer = FraudScorer::new();
    let mut keys: Vec<[u8; 16]> = Vec::with_capacity(batch);
    let mut ticks: Vec<u64> = Vec::with_capacity(batch);
    for chunk in clicks.chunks(batch) {
        keys.clear();
        keys.extend(chunk.iter().map(Click::key));
        ticks.clear();
        ticks.extend(chunk.iter().map(|c| c.tick));
        let refs: Vec<&[u8]> = keys.iter().map(<[u8; 16]>::as_slice).collect();
        for (click, v) in chunk.iter().zip(detector.observe_batch_at(&refs, &ticks)) {
            summary.record(v);
            scorer.record(click, v);
        }
    }

    println!("detector : {} over {}", detector.name(), detector.window());
    if shards > 1 {
        if spec.timed {
            println!("shards   : {shards} x {algo} sharing the global time window");
        } else {
            println!(
                "shards   : {shards} x {algo} with per-shard window {}",
                spec.geo.for_shards(shards, false).window
            );
        }
    }
    println!(
        "memory   : {:.1} KiB",
        detector.memory_bits() as f64 / 8.0 / 1024.0
    );
    print_stream_report(opts, &summary, &scorer);
    Ok(())
}

/// Shared tail of `cmd_detect`: stream totals plus the optional
/// publisher fraud-score table.
fn print_stream_report(opts: &Opts, summary: &StreamSummary, scorer: &FraudScorer) {
    println!("clicks   : {}", summary.total());
    println!(
        "duplicate: {} ({:.3}%)",
        summary.duplicates,
        100.0 * summary.duplicate_rate()
    );
    println!("distinct : {}", summary.distinct);

    if opts.flag("score-publishers") {
        println!();
        println!("publisher fraud scores (z >= 3 flagged):");
        println!(
            "{:>10} {:>10} {:>10} {:>8} {:>8}",
            "publisher", "clicks", "blocked", "rate", "z"
        );
        for s in scorer.scores(100) {
            println!(
                "{:>10} {:>10} {:>10} {:>8.4} {:>8.2}{}",
                s.publisher.0,
                s.clicks,
                s.blocked,
                s.rate,
                s.z_score,
                if s.is_suspicious(3.0) {
                    "  <-- SUSPICIOUS"
                } else {
                    ""
                }
            );
        }
    }
}

/// A billing registry of one advertiser with an effectively unlimited
/// budget and one flat-CPC campaign per ad in `ads`.
fn flat_registry(ads: impl IntoIterator<Item = AdId>) -> cfd_adnet::Registry {
    let mut registry = cfd_adnet::Registry::new();
    registry.add_advertiser(Advertiser::new(AdvertiserId(1), "advertiser", u64::MAX / 4));
    for ad in ads {
        registry
            .add_campaign(Campaign {
                ad,
                advertiser: AdvertiserId(1),
                cpc_micros: 100,
            })
            .expect("advertiser just registered");
    }
    registry
}

/// The fixed billing registry behind `--ads N`: campaigns `0..N`.
/// `cfd run --ads N` and `cfd serve --ads N` build this identically, so
/// their `--report-json` outputs are comparable byte for byte.
fn fixed_registry(ads: u32) -> cfd_adnet::Registry {
    flat_registry((0..ads).map(AdId))
}

/// A billing registry covering every distinct ad that appears in
/// `clicks`.
fn billing_registry(clicks: &[Click]) -> cfd_adnet::Registry {
    let mut ads: Vec<_> = clicks.iter().map(|c| c.id.ad).collect();
    ads.sort_unstable();
    ads.dedup();
    flat_registry(ads)
}

/// Parses `--metrics[=millis]` / `--metrics-json`, shared by `cmd_run`
/// and `cmd_serve`: whether metrics are on, the snapshot interval
/// (`--metrics` alone means 1s) and the snapshot format.
fn parse_metrics(opts: &Opts) -> Result<(bool, Duration, SnapshotFormat), Failure> {
    let interval_ms: u64 = match opts.get("metrics") {
        None | Some("true") => 1_000,
        Some(v) => v.parse().map_err(|_| bad_value("metrics", v))?,
    };
    let format = if opts.flag("metrics-json") {
        SnapshotFormat::JsonLines
    } else {
        SnapshotFormat::Table
    };
    Ok((
        opts.flag("metrics") || opts.flag("metrics-json"),
        Duration::from_millis(interval_ms.max(1)),
        format,
    ))
}

/// The billing tail shared by `cmd_run` and `cmd_serve`: totals, one
/// health line per shard, and the optional `--report-json` file.
fn print_billing(
    opts: &Opts,
    r: &cfd_adnet::NetworkReport,
    health: &[cfd_telemetry::DetectorHealth],
) -> Result<(), Failure> {
    println!("charged  : {}", r.charged);
    println!(
        "blocked  : {} duplicates ({} micros saved)",
        r.duplicates_blocked, r.savings_micros
    );
    println!("revenue  : {} micros", r.revenue_micros);
    for (i, h) in health.iter().enumerate() {
        println!(
            "shard {i}  : fill={:.4} est_fp={:.2e} dup_rate={:.4} elements={}",
            h.mean_fill(),
            h.estimated_fp,
            h.duplicate_rate(),
            h.observed_elements
        );
    }
    if let Some(path) = opts.get("report-json") {
        std::fs::write(path, r.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), Failure> {
    let algo = opts.get("algo").unwrap_or("tbf").to_owned();
    let spec = DetectorSpec::parse(opts, &algo)?;
    let seed = spec.geo.seed;
    let shards: usize = opts.positive("shards", 4)?;
    let batch: usize = opts.positive("batch", 512)?;
    let queue: usize = opts.positive("queue", 16)?;

    let clicks: Vec<Click> = match opts.get("trace") {
        Some(path) => load_trace(path)?,
        None => {
            let kind = opts.get("kind").unwrap_or("botnet");
            let count: usize = opts.parse_num("count", 1_000_000)?;
            synth_clicks(kind, count, seed)?
        }
    };

    let (metrics_on, interval, format) = parse_metrics(opts)?;

    // The 1-shard case still goes through the sharded pipeline: one
    // worker, trivial router, same telemetry.
    let detector = build_sharded(&spec, shards, |geo| build_detector(&algo, geo))?;
    let time_window_ticks = match detector.window() {
        WindowSpec::TimeSliding { ticks } | WindowSpec::TimeJumping { ticks, .. } => Some(ticks),
        _ => None,
    };
    let registry = match opts.get("ads") {
        Some(_) => fixed_registry(opts.parse_num("ads", 64)?),
        None => billing_registry(&clicks),
    };
    let config = PipelineConfig { batch, queue };
    let total = clicks.len();

    let started = Instant::now();
    let (report, health, elapsed) = if metrics_on {
        let metrics = Arc::new(TelemetryRegistry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
        let on_tick = {
            let telemetry = Arc::clone(&telemetry);
            move || telemetry.request_detector_health()
        };
        let reporter = Reporter::spawn(Arc::clone(&metrics), interval, format, on_tick);
        let outcome = run_sharded_segment(
            detector,
            SegmentState::new(registry),
            clicks.into_iter(),
            config,
            None,
            Some(Arc::clone(&telemetry)),
        );
        let elapsed = started.elapsed();
        // The final health sample scans every shard's table: take it off
        // the clock, then let the reporter's final snapshot show it.
        let health = publish_final_health(&outcome.detector, &telemetry);
        reporter.stop(); // final snapshot, even on sub-interval runs
        (outcome.report(), health, elapsed)
    } else {
        let outcome = run_sharded_pipeline(detector, registry, clicks, config, None);
        (outcome.report, outcome.health, started.elapsed())
    };

    let r = &report;
    match time_window_ticks {
        Some(t) => println!(
            "pipeline : {} over a {t}-tick time window ({shards} shards)",
            r.detector
        ),
        None => println!(
            "pipeline : {} over {} ({shards} shards)",
            r.detector, spec.geo.window
        ),
    }
    println!(
        "memory   : {:.1} KiB",
        r.detector_memory_bits as f64 / 8.0 / 1024.0
    );
    println!(
        "clicks   : {total} in {:.2}s ({:.0} clicks/s)",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    print_billing(opts, r, &health)
}

/// Set by the `SIGTERM`/`SIGINT` handler; a watcher thread inside
/// `cmd_serve` turns it into a [`DrainControl`] drain request.
static SIG_DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_drain_signal(_sig: i32) {
    SIG_DRAIN.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn cmd_serve(opts: &Opts) -> Result<(), Failure> {
    let endpoint = Endpoint::parse(opts.required("listen")?)
        .map_err(|e| Failure::Usage(format!("--listen: {e}")))?;
    let algo = opts.get("algo").unwrap_or("tbf").to_owned();
    let spec = DetectorSpec::parse(opts, &algo)?;
    let shards: usize = opts.positive("shards", 4)?;
    let batch: usize = opts.positive("batch", 512)?;
    let queue: usize = opts.positive("queue", 16)?;
    let ads: u32 = opts.parse_num("ads", 64)?;
    let hub_batches: usize = opts.positive("hub-batches", 64)?;
    let checkpoint = opts.get("checkpoint").map(PathBuf::from);
    let checkpoint_every: u64 = opts.parse_num("checkpoint-every", 0)?;

    // A restart has only the checkpoint file: detector tables, billing
    // ledger, scorer tallies, and the resume position all come from it.
    let state: ServerState<Box<dyn DetectorBackend>> = if opts.flag("resume") {
        let path = checkpoint
            .as_deref()
            .ok_or_else(|| Failure::Usage("--resume needs --checkpoint".into()))?;
        let state = ServerState::read_checkpoint(path).map_err(|e| e.to_string())?;
        eprintln!(
            "resumed from {} at position {}",
            path.display(),
            state.position
        );
        state
    } else {
        let detector = build_sharded(&spec, shards, |geo| build_backend(&algo, geo))?;
        ServerState::new(detector, fixed_registry(ads))
    };
    // A resumed detector keeps the checkpoint's shard count, whatever
    // `--shards` says; telemetry and the summary follow the detector.
    let shards = state.detector.shard_count();

    let (metrics_on, interval, format) = parse_metrics(opts)?;
    let metrics = Arc::new(TelemetryRegistry::new());
    let pipeline_t = metrics_on.then(|| Arc::new(PipelineTelemetry::new(&metrics, shards)));
    let instruments = ServeInstruments {
        serve: Some(Arc::new(ServeTelemetry::new(&metrics))),
        pipeline: pipeline_t.clone(),
        progress: None,
    };
    let reporter = metrics_on.then(|| {
        let on_tick = {
            let pipeline_t = pipeline_t.clone();
            move || {
                if let Some(t) = &pipeline_t {
                    t.request_detector_health();
                }
            }
        };
        Reporter::spawn(Arc::clone(&metrics), interval, format, on_tick)
    });

    let config = ServeConfig {
        pipeline: PipelineConfig { batch, queue },
        checkpoint_path: checkpoint,
        checkpoint_every,
        hub_batches,
        ..ServeConfig::default()
    };

    // SIGTERM/SIGINT request a graceful drain: stop accepting, finish
    // what is in flight, write a final checkpoint and report.
    unsafe {
        signal(SIGTERM, on_drain_signal);
        signal(SIGINT, on_drain_signal);
    }
    let control = DrainControl::new();
    let done = AtomicBool::new(false);
    eprintln!("serving on {endpoint} (SIGTERM drains gracefully)");
    let started = Instant::now();
    let outcome = thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                if SIG_DRAIN.load(Ordering::SeqCst) {
                    control.request_drain();
                    break;
                }
                thread::sleep(Duration::from_millis(50));
            }
        });
        let outcome = serve(state, &endpoint, &config, &control, &instruments);
        done.store(true, Ordering::Release);
        outcome
    })
    .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    if let Some(r) = reporter {
        r.stop();
    }

    let r = &outcome.report;
    println!("gateway  : {} on {endpoint} ({shards} shards)", r.detector);
    println!("position : {} clicks accepted", outcome.state.position);
    println!(
        "clicks   : {} in {:.2}s ({:.0} clicks/s)",
        r.clicks,
        elapsed.as_secs_f64(),
        r.clicks as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    print_billing(opts, r, &outcome.health)
}

fn cmd_replay_client(opts: &Opts) -> Result<(), Failure> {
    let endpoint = Endpoint::parse(opts.required("connect")?)
        .map_err(|e| Failure::Usage(format!("--connect: {e}")))?;
    let clicks = load_trace(opts.required("trace")?)?;

    let limit = match opts.get("limit") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| bad_value("limit", v))?),
    };
    let throttle = match opts.get("throttle-ms") {
        None => None,
        Some(v) => Some(Duration::from_millis(
            v.parse().map_err(|_| bad_value("throttle-ms", v))?,
        )),
    };
    let config = ClientConfig {
        frame_clicks: opts.parse_num("frame-clicks", 256)?,
        limit,
        drain: opts.flag("drain"),
        connect_attempts: opts.parse_num("retries", 50)?,
        throttle,
        ..ClientConfig::default()
    };
    let stats = replay_client(&endpoint, &clicks, &config).map_err(|e| e.to_string())?;
    println!(
        "connected : {endpoint} (server position {})",
        stats.server_position
    );
    println!(
        "sent      : {} clicks ({} skipped as already processed)",
        stats.sent_clicks, stats.skipped_clicks
    );
    println!(
        "retries   : {} connect retries, {} mid-stream reconnects",
        stats.connect_retries, stats.reconnects
    );
    Ok(())
}

fn cmd_size(opts: &Opts) -> Result<(), Failure> {
    let algo = opts.required("algo")?.to_owned();
    let window: usize = opts.parse_num("window", 1 << 20)?;
    let q: usize = opts.parse_num("sub-windows", 8)?;
    let target: f64 = opts.parse_num("target-fp", 0.001)?;
    if !(target > 0.0 && target < 1.0) {
        return Err(Failure::Usage("--target-fp must be in (0, 1)".into()));
    }

    let sizing = match algo.as_str() {
        "gbf" => cfd_analysis::sizing::gbf_sizing(window, q, target),
        "tbf" => cfd_analysis::sizing::tbf_sizing(window, target),
        "metwally" => cfd_analysis::sizing::counting_scheme_sizing(window, q, target),
        other => {
            return Err(Failure::Usage(format!(
                "--algo: unknown detector `{other}`"
            )))
        }
    };
    println!("algorithm    : {algo}");
    println!("window       : {window} elements");
    if algo != "tbf" {
        println!("sub-windows  : {q}");
    }
    println!("target FP    : {target}");
    println!("table size m : {}", sizing.m);
    println!("hash count k : {}", sizing.k);
    println!("predicted FP : {:.3e}", sizing.predicted_fp);
    println!(
        "total memory : {:.1} KiB",
        sizing.total_bits as f64 / 8.0 / 1024.0
    );
    Ok(())
}

fn cmd_sweep(opts: &Opts) -> Result<(), Failure> {
    let path = opts
        .get("scenario")
        .ok_or(cli::UsageError::Missing("scenario"))?;
    // An unreadable or malformed spec file is not a command-line error.
    let spec = cfd_stream::scenario::ScenarioSpec::from_path(path.as_ref())
        .map_err(|e| format!("--scenario: {e}"))?;
    let sweep_opts = if opts.flag("quick") {
        sweep::SweepOptions::quick()
    } else {
        sweep::SweepOptions::full()
    };
    eprintln!(
        "sweeping `{}`: {} grid points over {} clicks{}",
        spec.name,
        spec.grid().len(),
        sweep_opts
            .max_clicks
            .map_or(spec.clicks, |c| c.min(spec.clicks)),
        if sweep_opts.quick { " [quick]" } else { "" }
    );
    let report = sweep::run(&spec, &sweep_opts)?;
    if opts.flag("table") || !opts.flag("out") {
        print!("{}", sweep::render_table(&report));
    }
    if let Some(out) = opts.get("out") {
        std::fs::write(out, sweep::report_json(&report))
            .map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}
