//! Pipeline instrumentation: the metric bundle threaded through the
//! stages of [`crate::pipeline::run_sharded_pipeline_instrumented`].
//!
//! [`PipelineTelemetry`] registers every pipeline metric into a caller
//! supplied [`cfd_telemetry::Registry`] and hands the stages cheap,
//! lock-free handles:
//!
//! * **per-shard queue depth** — a [`Gauge`] incremented by ingest on
//!   push and decremented by the owning worker on pop, so a snapshot
//!   shows how many batches sit in each worker's bounded ring
//!   (backpressure made visible).
//! * **per-stage latency** — log2-bucketed [`Histogram`]s of per-batch
//!   wall time for the four stages: `hash` (ingest key building and
//!   shard routing), `probe` (detector
//!   [`observe_flat_into`](cfd_windows::DuplicateDetector::observe_flat_into)),
//!   `resequence` (placing a judged batch in the reorder ring), and
//!   `billing` (releasing and settling clicks in sequence order).
//! * **resequencer stalls** — a [`Counter`] of judged batches that
//!   could not release a single click because the head-of-line sequence
//!   number was still missing, plus a high-water gauge of the clicks
//!   the reorder ring holds.
//! * **detector health** — per-shard [`FloatGauge`]s (fill ratio,
//!   online FP estimate, duplicate rate, cleaning backlog, sweep
//!   position) fed by [`cfd_telemetry::DetectorStats::health`].
//!
//! Health is the one metric family that is *not* free: computing a fill
//! ratio scans the filter (`O(m)`). The workers therefore never compute
//! it spontaneously — a reporter thread calls
//! [`PipelineTelemetry::request_detector_health`], which raises one
//! [`AtomicBool`] per shard; each worker swaps its flag once per batch
//! and only pays the scan when the flag was up. The steady-state hot
//! path costs one relaxed atomic swap per *batch*, not per click.

use cfd_telemetry::Registry as MetricsRegistry;
use cfd_telemetry::{Counter, DetectorHealth, FloatGauge, Gauge, Histogram, TenantHealth};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-shard instrument handles (one set per detector worker).
struct ShardInstruments {
    /// Batches currently in this worker's bounded raw ring.
    queue_depth: Arc<Gauge>,
    /// Batches this worker has judged.
    batches: Arc<Counter>,
    /// Raised by the reporter; swapped down by the worker, which then
    /// publishes a fresh health sample into the gauges below.
    health_request: AtomicBool,
    /// Mean fill ratio over the detector's sub-windows/lanes.
    fill: Arc<FloatGauge>,
    /// Online false-positive estimate from current occupancy.
    fp_estimate: Arc<FloatGauge>,
    /// Duplicate verdicts / observed elements.
    duplicate_rate: Arc<FloatGauge>,
    /// GBF spare-lane cleaning backlog (0 when idle or not a GBF).
    clean_backlog: Arc<FloatGauge>,
    /// TBF incremental sweep position in [0, 1).
    sweep_position: Arc<FloatGauge>,
    /// Ingest pushes onto this shard's raw ring that found it full and
    /// had to wait.
    raw_full_waits: Arc<Counter>,
    /// Worker pushes onto this shard's judged ring that found it full
    /// and had to wait.
    judged_full_waits: Arc<Counter>,
    /// Multi-tenant slot-economy gauges (`arena.*`), registered lazily
    /// on the first [`TenantHealth`] sample so single-tenant runs never
    /// carry them.
    arena: OnceLock<ArenaInstruments>,
}

/// The `arena.shard{i}.*` gauge set, present only when the shard's
/// detector reports [`TenantHealth`] (i.e. is a tenant arena).
struct ArenaInstruments {
    slots: Arc<Gauge>,
    live_tenants: Arc<Gauge>,
    evictions: Arc<Gauge>,
    occupancy: Arc<FloatGauge>,
    bytes_per_tenant: Arc<FloatGauge>,
}

/// Lock-free instrument bundle for one pipeline run.
///
/// Construct with [`PipelineTelemetry::new`], wrap in an [`Arc`], and
/// pass to `run_sharded_pipeline_instrumented` (or
/// `run_sharded_segment`).
/// All metrics live in the [`cfd_telemetry::Registry`] given at
/// construction, so a [`cfd_telemetry::Reporter`] polling that registry
/// sees them alongside any caller-registered metrics.
pub struct PipelineTelemetry {
    registry: Arc<MetricsRegistry>,
    ingest_clicks: Arc<Counter>,
    ingest_idle_flushes: Arc<Counter>,
    stage_hash_ns: Arc<Histogram>,
    stage_probe_ns: Arc<Histogram>,
    stage_resequence_ns: Arc<Histogram>,
    stage_billing_ns: Arc<Histogram>,
    reseq_stalls: Arc<Counter>,
    pending_peak: Arc<Gauge>,
    reseq_empty_polls: Arc<Counter>,
    pool_raw_misses: Arc<Counter>,
    pool_judged_misses: Arc<Counter>,
    shards: Vec<ShardInstruments>,
}

impl std::fmt::Debug for PipelineTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineTelemetry")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl PipelineTelemetry {
    /// Registers the full pipeline metric set (for `shard_count`
    /// workers) into `registry`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero or if any of the metric names is
    /// already taken in `registry` (register one bundle per run).
    #[must_use]
    pub fn new(registry: &Arc<MetricsRegistry>, shard_count: usize) -> Self {
        assert!(shard_count > 0, "telemetry needs at least one shard");
        let shards = (0..shard_count)
            .map(|i| ShardInstruments {
                queue_depth: registry.gauge(
                    &format!("pipeline.shard{i}.queue_depth"),
                    "batches",
                    "batches waiting in this worker's bounded ring",
                ),
                batches: registry.counter(
                    &format!("pipeline.shard{i}.batches"),
                    "batches",
                    "batches judged by this worker",
                ),
                health_request: AtomicBool::new(false),
                fill: registry.float_gauge(
                    &format!("pipeline.shard{i}.fill"),
                    "ratio",
                    "mean detector fill ratio over active sub-windows",
                ),
                fp_estimate: registry.float_gauge(
                    &format!("pipeline.shard{i}.fp_estimate"),
                    "prob",
                    "online false-positive estimate from occupancy",
                ),
                duplicate_rate: registry.float_gauge(
                    &format!("pipeline.shard{i}.duplicate_rate"),
                    "ratio",
                    "duplicate verdicts / observed clicks",
                ),
                clean_backlog: registry.float_gauge(
                    &format!("pipeline.shard{i}.clean_backlog"),
                    "ratio",
                    "GBF spare-lane cleaning backlog (unswept fraction)",
                ),
                sweep_position: registry.float_gauge(
                    &format!("pipeline.shard{i}.sweep_pos"),
                    "ratio",
                    "TBF incremental sweep position",
                ),
                raw_full_waits: registry.counter(
                    &format!("pipeline.shard{i}.raw_full_waits"),
                    "waits",
                    "ingest pushes that found this shard's raw ring full",
                ),
                judged_full_waits: registry.counter(
                    &format!("pipeline.shard{i}.judged_full_waits"),
                    "waits",
                    "worker pushes that found this shard's judged ring full",
                ),
                arena: OnceLock::new(),
            })
            .collect();
        let telemetry = Self {
            registry: Arc::clone(registry),
            ingest_clicks: registry.counter(
                "pipeline.ingest.clicks",
                "clicks",
                "clicks routed to shard workers",
            ),
            ingest_idle_flushes: registry.counter(
                "pipeline.ingest.idle_flushes",
                "batches",
                "partial batches pushed because the click source went idle",
            ),
            stage_hash_ns: registry.histogram(
                "pipeline.stage.hash_ns",
                "ns",
                "per-block click-key building and routing latency",
            ),
            stage_probe_ns: registry.histogram(
                "pipeline.stage.probe_ns",
                "ns",
                "per-batch detector observe_flat_into latency",
            ),
            stage_resequence_ns: registry.histogram(
                "pipeline.stage.resequence_ns",
                "ns",
                "per-batch reorder-ring placement latency",
            ),
            stage_billing_ns: registry.histogram(
                "pipeline.stage.billing_ns",
                "ns",
                "per-batch billing settlement latency",
            ),
            reseq_stalls: registry.counter(
                "pipeline.reseq.stalls",
                "batches",
                "judged batches that released no click (head-of-line gap)",
            ),
            pending_peak: registry.gauge(
                "pipeline.reseq.pending_peak",
                "clicks",
                "high-water mark of clicks held in the reorder ring",
            ),
            reseq_empty_polls: registry.counter(
                "pipeline.reseq.empty_polls",
                "polls",
                "billing sweeps over the judged rings that found nothing",
            ),
            pool_raw_misses: registry.counter(
                "pipeline.pool.raw_misses",
                "allocs",
                "raw-batch pool gets that had to allocate a fresh buffer",
            ),
            pool_judged_misses: registry.counter(
                "pipeline.pool.judged_misses",
                "allocs",
                "judged-batch pool gets that had to allocate a fresh buffer",
            ),
            shards,
        };
        // Snapshot of the probe-kernel dispatch at construction: 8 when
        // the AVX2 wide path is active, 1 when scalar is forced
        // (`CFD_FORCE_SCALAR`) or unavailable. A dashboard comparing two
        // deployments' throughput reads this first.
        telemetry
            .registry
            .gauge(
                "pipeline.simd_lanes",
                "lanes",
                "probe-kernel SIMD lane width (1 = scalar dispatch)",
            )
            .set(cfd_core::simd::active_lanes() as i64);
        telemetry
    }

    /// The registry all instruments were registered into.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Number of shard workers this bundle was sized for.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Asks every shard worker to publish a fresh detector-health
    /// sample at its next batch boundary.
    ///
    /// Call this from a reporter tick (see
    /// [`cfd_telemetry::Reporter::spawn`]'s `on_tick` hook) right
    /// before taking a snapshot: health scans are `O(m)` so the workers
    /// only pay for them on request.
    pub fn request_detector_health(&self) {
        for shard in &self.shards {
            shard.health_request.store(true, Ordering::Relaxed);
        }
    }

    /// Publishes a health sample into shard `idx`'s gauges.
    ///
    /// Also used by the pipeline for the final unconditional sample at
    /// worker shutdown, so even a metrics-off-until-the-end run reports
    /// terminal detector state.
    pub fn publish_health(&self, idx: usize, health: &DetectorHealth) {
        let s = &self.shards[idx];
        s.fill.set(health.mean_fill());
        s.fp_estimate.set(health.estimated_fp);
        s.duplicate_rate.set(health.duplicate_rate());
        s.clean_backlog.set(health.cleaning_backlog);
        s.sweep_position.set(health.sweep_position);
    }

    /// Publishes a multi-tenant slot-economy sample into shard `idx`'s
    /// `arena.*` gauges, registering them on first use — so the gauge
    /// family only exists for runs whose detector actually is a tenant
    /// arena.
    pub fn publish_tenant_health(&self, idx: usize, tenant: &TenantHealth) {
        let a = self.shards[idx].arena.get_or_init(|| ArenaInstruments {
            slots: self.registry.gauge(
                &format!("arena.shard{idx}.slots"),
                "slots",
                "tenant slots allocated (live + free)",
            ),
            live_tenants: self.registry.gauge(
                &format!("arena.shard{idx}.live_tenants"),
                "tenants",
                "tenants currently materialized in the slab",
            ),
            evictions: self.registry.gauge(
                &format!("arena.shard{idx}.evictions"),
                "tenants",
                "tenants decayed by idle eviction since start",
            ),
            occupancy: self.registry.float_gauge(
                &format!("arena.shard{idx}.occupancy"),
                "ratio",
                "live tenants / allocated slots",
            ),
            bytes_per_tenant: self.registry.float_gauge(
                &format!("arena.shard{idx}.bytes_per_tenant"),
                "bytes",
                "amortized slab bytes per live tenant",
            ),
        });
        a.slots.set(tenant.slots as i64);
        a.live_tenants.set(tenant.live_tenants as i64);
        a.evictions
            .set(i64::try_from(tenant.evictions).unwrap_or(i64::MAX));
        a.occupancy.set(tenant.occupancy);
        a.bytes_per_tenant.set(tenant.bytes_per_live_tenant);
    }

    /// Consumes shard `idx`'s health-request flag (true at most once
    /// per [`request_detector_health`](Self::request_detector_health)).
    pub(crate) fn take_health_request(&self, idx: usize) -> bool {
        self.shards[idx]
            .health_request
            .swap(false, Ordering::Relaxed)
    }

    pub(crate) fn ingest_clicks(&self) -> &Counter {
        &self.ingest_clicks
    }

    pub(crate) fn ingest_idle_flushes(&self) -> &Counter {
        &self.ingest_idle_flushes
    }

    pub(crate) fn shard_queue_depth(&self, idx: usize) -> &Gauge {
        &self.shards[idx].queue_depth
    }

    pub(crate) fn shard_batches(&self, idx: usize) -> &Counter {
        &self.shards[idx].batches
    }

    pub(crate) fn stage_hash_ns(&self) -> &Histogram {
        &self.stage_hash_ns
    }

    pub(crate) fn stage_probe_ns(&self) -> &Histogram {
        &self.stage_probe_ns
    }

    pub(crate) fn stage_resequence_ns(&self) -> &Histogram {
        &self.stage_resequence_ns
    }

    pub(crate) fn stage_billing_ns(&self) -> &Histogram {
        &self.stage_billing_ns
    }

    pub(crate) fn reseq_stalls(&self) -> &Counter {
        &self.reseq_stalls
    }

    pub(crate) fn pending_peak(&self) -> &Gauge {
        &self.pending_peak
    }

    pub(crate) fn reseq_empty_polls(&self) -> &Counter {
        &self.reseq_empty_polls
    }

    pub(crate) fn pool_raw_misses(&self) -> &Counter {
        &self.pool_raw_misses
    }

    pub(crate) fn pool_judged_misses(&self) -> &Counter {
        &self.pool_judged_misses
    }

    pub(crate) fn shard_raw_full_waits(&self, idx: usize) -> &Counter {
        &self.shards[idx].raw_full_waits
    }

    pub(crate) fn shard_judged_full_waits(&self, idx: usize) -> &Counter {
        &self.shards[idx].judged_full_waits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_full_metric_set() {
        let registry = Arc::new(MetricsRegistry::new());
        let t = PipelineTelemetry::new(&registry, 3);
        assert_eq!(t.shard_count(), 3);
        let snap = registry.snapshot();
        // 12 global metrics + 9 per shard.
        assert_eq!(snap.entries.len(), 12 + 3 * 9);
        assert!(snap.get_counter("pipeline.ingest.clicks").is_some());
        assert!(snap.get_counter("pipeline.ingest.idle_flushes").is_some());
        let lanes = snap.get_gauge("pipeline.simd_lanes");
        assert!(
            lanes == Some(1) || lanes == Some(cfd_core::simd::LANES_WIDE as i64),
            "simd_lanes gauge must report the dispatch width, got {lanes:?}"
        );
        assert!(snap.get_histogram("pipeline.stage.probe_ns").is_some());
        assert!(snap.get_counter("pipeline.shard2.batches").is_some());
        assert!(snap.get_counter("pipeline.shard2.raw_full_waits").is_some());
        assert!(snap.get_counter("pipeline.pool.raw_misses").is_some());
        assert!(snap.get_counter("pipeline.reseq.empty_polls").is_some());
    }

    #[test]
    fn arena_gauges_register_lazily_and_update() {
        let registry = Arc::new(MetricsRegistry::new());
        let t = PipelineTelemetry::new(&registry, 2);
        let before = registry.snapshot().entries.len();
        let sample = TenantHealth {
            slots: 64,
            live_tenants: 48,
            evictions: 3,
            occupancy: 0.75,
            bytes_per_live_tenant: 256.0,
        };
        t.publish_tenant_health(1, &sample);
        let snap = registry.snapshot();
        // Only shard 1 grew the five arena.* gauges; shard 0 stays bare.
        assert_eq!(snap.entries.len(), before + 5);
        assert_eq!(snap.get_gauge("arena.shard1.slots"), Some(64));
        assert_eq!(snap.get_gauge("arena.shard1.live_tenants"), Some(48));
        assert_eq!(snap.get_gauge("arena.shard1.evictions"), Some(3));
        assert!(snap.get_gauge("arena.shard0.slots").is_none());
        // Re-publishing updates in place, no re-registration.
        t.publish_tenant_health(
            1,
            &TenantHealth {
                live_tenants: 50,
                ..sample
            },
        );
        let snap = registry.snapshot();
        assert_eq!(snap.entries.len(), before + 5);
        assert_eq!(snap.get_gauge("arena.shard1.live_tenants"), Some(50));
    }

    #[test]
    fn health_requests_are_consumed_once() {
        let registry = Arc::new(MetricsRegistry::new());
        let t = PipelineTelemetry::new(&registry, 2);
        assert!(!t.take_health_request(0));
        t.request_detector_health();
        assert!(t.take_health_request(0));
        assert!(!t.take_health_request(0), "swap must consume the flag");
        assert!(t.take_health_request(1), "each shard has its own flag");
    }

    #[test]
    fn publish_health_lands_in_gauges() {
        let registry = Arc::new(MetricsRegistry::new());
        let t = PipelineTelemetry::new(&registry, 1);
        let h = DetectorHealth {
            detector: "tbf",
            fill_ratios: vec![0.25, 0.75],
            cleaning_backlog: 0.0,
            sweep_position: 0.0,
            cleaned_entries: 0,
            observed_elements: 100,
            observed_duplicates: 10,
            estimated_fp: 0.01,
        };
        t.publish_health(0, &h);
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| match e.value {
                    cfd_telemetry::MetricValue::Float(f) => f,
                    _ => panic!("expected float gauge"),
                })
                .expect("metric registered")
        };
        assert!((get("pipeline.shard0.fill") - 0.5).abs() < 1e-12);
        assert!((get("pipeline.shard0.fp_estimate") - 0.01).abs() < 1e-12);
        assert!((get("pipeline.shard0.duplicate_rate") - 0.1).abs() < 1e-12);
    }
}
