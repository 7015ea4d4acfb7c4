//! The three named workloads, their detectors, and their inputs.

use cfd_adnet::{Advertiser, AdvertiserId, Campaign, Registry};
use cfd_analysis::cost::{gbf_cost, tbf_cost, CostModel};
use cfd_core::sharded::{per_shard_window, PlannedDetector, ShardRouter, ShardedDetector};
use cfd_core::{CheckpointState, Gbf, GbfConfig, OpCounters, Tbf, TbfConfig};
use cfd_stream::scenario::ScenarioSpec;
use cfd_stream::{wire, AdId, Click};
use cfd_telemetry::DetectorStats;
use cfd_windows::{DuplicateDetector, ExactJumpingDedup, ExactSlidingDedup};
use std::time::Instant;

/// Keyspace shards of every workload (the `cfd run` default of 2 here).
pub const SHARDS: usize = 2;
/// Clicks per pipeline batch (the `cfd serve` / `cfd run` default).
pub const BATCH: usize = 512;
/// Ring capacity per shard, in batches (the CLI default).
pub const QUEUE: usize = 16;
/// Router seed; shard detectors use the router's aligned probe seed.
pub const ROUTER_SEED: u64 = 0;
/// Cells per window element and hash count (the CLI defaults).
pub const CELLS_PER_ELEMENT: usize = 14;
pub const HASHES: usize = 10;
/// GBF sub-windows on serve-paced (the paper's Q).
pub const GBF_Q: usize = 8;
/// Mean offered rate of serve-paced in clicks/s. Frozen: the diurnal
/// ramp peaks at ~3.5x the mean (~0.9 Mclicks/s), below the saturated
/// serve-mixed rate on a 2-core host.
pub const PACED_RATE: f64 = 250_000.0;
/// Length of one serve-paced session's schedule, in seconds.
pub const PACED_SESSION_SECONDS: f64 = 4.0;

/// Which end-to-end path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `serve()` over a Unix socket, closed loop (send as fast as the
    /// socket accepts).
    ServeClosed,
    /// `serve()` over a Unix socket, open loop on a fixed schedule.
    ServePaced,
    /// `run_sharded_pipeline` in process.
    Pipeline,
}

/// A named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    spec: &'static str,
    /// Clicks per CFDW `CLICKS` frame.
    pub frame_clicks: usize,
    /// Checkpoint cadence in clicks (0: only at drain / end).
    pub checkpoint_every: u64,
    /// `true` for the count GBF, `false` for the count TBF.
    pub gbf: bool,
    /// The percentile `latency_p99_ms` reports: 99, or the highest
    /// percentile that repeats within a tenth across seeds where p99
    /// does not. On serve-paced, checkpoint stalls hold up ~7% of the
    /// frames and their length drifts with host load, so p95-p99
    /// spread 0.1-0.3 across seeds while p90 stays within 0.05.
    pub tail_percentile: f64,
}

pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-mixed",
        path: Path::ServeClosed,
        spec: include_str!("../workloads/serve_mixed.toml"),
        frame_clicks: 256,
        checkpoint_every: 1 << 20,
        gbf: false,
        tail_percentile: 99.0,
    },
    Workload {
        name: "serve-paced",
        path: Path::ServePaced,
        spec: include_str!("../workloads/serve_paced.toml"),
        frame_clicks: 32,
        checkpoint_every: 1 << 16,
        gbf: true,
        tail_percentile: 90.0,
    },
    Workload {
        name: "audit-bigwindow",
        path: Path::Pipeline,
        spec: include_str!("../workloads/audit_bigwindow.toml"),
        frame_clicks: BATCH,
        checkpoint_every: 0,
        gbf: false,
        tail_percentile: 99.0,
    },
];

/// Everything a run derives from `(workload, seed, scale)`.
pub struct Inputs {
    /// Global count window `N`.
    pub window: usize,
    pub checkpoint_every: u64,
    pub clicks: Vec<Click>,
    /// Every ad the stream clicks, sorted (the billing registry's
    /// campaigns).
    pub ads: Vec<AdId>,
    /// Pre-encoded CFDW `CLICKS` frames covering `clicks` in order.
    pub frames: Vec<Vec<u8>>,
    /// Send offset of each frame from the start of the run, in seconds
    /// (open loop only; empty otherwise).
    pub schedule: Vec<f64>,
    /// The generator's encoding cost.
    pub encode_ns_per_click: f64,
    /// FNV-1a over every click key: shows the seed changes the stream.
    pub digest: u64,
}

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Compiles the workload's scenario at `seed`. `shrink` divides
    /// every size by `2^shrink` (0 for the real benchmark; the
    /// self-test uses a small scale).
    pub fn inputs(&self, seed: u64, shrink: u32) -> Inputs {
        let mut spec = ScenarioSpec::parse(self.spec).expect("frozen workload spec parses");
        spec.seed = seed;
        let window = (spec.window.n() >> shrink).max(1024);
        spec.inject.max_lag = (spec.inject.max_lag >> shrink).clamp(1, window);
        if let Some(r) = spec.ramp.as_mut() {
            r.period = (r.period >> shrink).max(64);
        }
        let rate = PACED_RATE / f64::from(1u32 << shrink);
        let count = match self.path {
            Path::ServePaced => (rate * PACED_SESSION_SECONDS) as u64,
            _ => spec.clicks >> shrink,
        };
        spec.clicks = count;
        let stream: Vec<_> = spec.compile().take(count as usize).collect();
        let clicks: Vec<Click> = stream.iter().map(|s| s.click).collect();
        let mut ads: Vec<AdId> = clicks.iter().map(|c| c.id.ad).collect();
        ads.sort_unstable();
        ads.dedup();

        let t0 = Instant::now();
        let frames: Vec<Vec<u8>> = clicks
            .chunks(self.frame_clicks)
            .map(|chunk| {
                let mut f = Vec::with_capacity(9 + chunk.len() * wire::CLICK_RECORD_BYTES + 4);
                wire::encode_clicks(&mut f, chunk);
                f
            })
            .collect();
        let encode_ns_per_click = t0.elapsed().as_nanos() as f64 / clicks.len().max(1) as f64;

        // Open loop: a frame is due when its last click's scenario
        // tick comes up, with ticks rescaled to the mean offered rate.
        let schedule = if self.path == Path::ServePaced {
            let last_tick = clicks.last().map_or(1, |c| c.tick.max(1)) as f64;
            let span = count as f64 / rate;
            clicks
                .chunks(self.frame_clicks)
                .map(|chunk| chunk[chunk.len() - 1].tick as f64 / last_tick * span)
                .collect()
        } else {
            Vec::new()
        };

        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for c in &clicks {
            for b in c.key() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        Inputs {
            window,
            checkpoint_every: self.checkpoint_every >> shrink,
            clicks,
            ads,
            frames,
            schedule,
            encode_ns_per_click,
            digest,
        }
    }
}

/// A billing registry with every ad of the stream registered: one
/// advertiser with an effectively unlimited budget, one campaign per
/// ad at a flat CPC (the `cfd run` convention).
pub fn registry_for(ads: &[AdId]) -> Registry {
    let mut registry = Registry::new();
    registry.add_advertiser(Advertiser::new(AdvertiserId(1), "advertiser", u64::MAX / 4));
    for &ad in ads {
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

/// The detector backends the workloads use, with the accounting hooks
/// the ledger reads.
pub trait Backend:
    DuplicateDetector + DetectorStats + PlannedDetector + CheckpointState + Send + 'static
{
    /// One shard detector over a per-shard window of `n_s`.
    fn build(n_s: usize, seed: u64) -> Self;
    /// Exact memory-operation counters.
    fn op_counts(&self) -> OpCounters;
    /// The Theorem 1.3 / 2.3 cost prediction for this configuration.
    fn model(&self) -> CostModel;
    /// The exact oracle with this backend's window semantics.
    fn oracle(n_s: usize) -> Box<dyn DuplicateDetector>;
}

impl Backend for Tbf {
    fn build(n_s: usize, seed: u64) -> Self {
        let cfg = TbfConfig::builder(n_s)
            .entries(n_s * CELLS_PER_ELEMENT)
            .hash_count(HASHES)
            .seed(seed)
            .build()
            .expect("valid TBF geometry");
        Tbf::new(cfg).expect("valid TBF geometry")
    }
    fn op_counts(&self) -> OpCounters {
        self.ops()
    }
    fn model(&self) -> CostModel {
        let c = self.config();
        tbf_cost(c.m, c.k, c.c)
    }
    fn oracle(n_s: usize) -> Box<dyn DuplicateDetector> {
        Box::new(ExactSlidingDedup::new(n_s))
    }
}

impl Backend for Gbf {
    fn build(n_s: usize, seed: u64) -> Self {
        let cfg = GbfConfig::builder(n_s, GBF_Q)
            .filter_bits(n_s.div_ceil(GBF_Q) * CELLS_PER_ELEMENT)
            .hash_count(HASHES)
            .seed(seed)
            .build()
            .expect("valid GBF geometry");
        Gbf::new(cfg).expect("valid GBF geometry")
    }
    fn op_counts(&self) -> OpCounters {
        self.ops()
    }
    fn model(&self) -> CostModel {
        let c = self.config();
        gbf_cost(c.m, c.k, c.n, c.q, self.lane_words())
    }
    fn oracle(n_s: usize) -> Box<dyn DuplicateDetector> {
        Box::new(ExactJumpingDedup::new(n_s, GBF_Q))
    }
}

/// The router every workload shards by.
pub fn router() -> ShardRouter {
    ShardRouter::new(ROUTER_SEED, SHARDS).expect("nonzero shard count")
}

/// A fresh sharded detector over global window `n`, its shards built
/// on the router's probe seed so one hash serves routing and probing.
pub fn build_detector<D: Backend>(n: usize) -> ShardedDetector<D> {
    let seed = router().probe_seed();
    let n_s = per_shard_window(n, SHARDS);
    ShardedDetector::new(
        ROUTER_SEED,
        (0..SHARDS).map(|_| D::build(n_s, seed)).collect(),
    )
    .expect("nonzero shard count")
}
