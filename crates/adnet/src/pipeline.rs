//! A concurrent, sharded click-processing pipeline.
//!
//! Real ad networks separate ingestion, fraud filtering, and billing
//! into stages. This module wires the suite's components into a
//! pipeline with the detector stage fanned out over the keyspace shards
//! of a [`ShardedDetector`]:
//!
//! ```text
//!                    ┌► shard worker 0 ─┐
//! ingest ──(route)───┼► shard worker 1 ─┼──► resequencer ► billing
//! (caller)           └► shard worker S  ┘    (seq order)
//! ```
//!
//! Bounded SPSC [`crate::ring`]s carry *pooled* batch buffers that
//! cycle ingest → worker → billing → back to a [`crate::ring::Pool`],
//! so the steady-state hot loop performs **zero heap allocations**
//! (asserted by the `zero_alloc_steady_state` integration test) and
//! never takes a blocking lock. Click keys travel in one flat buffer per
//! batch, feeding the multi-lane batch hasher (`cfd_hash::lanes`) at
//! both the routing and probing stages.
//!
//! * **Ingest** (the caller's thread) stamps every click with a global
//!   sequence number, routes it by [`ShardRouter`] — batch-hashing all
//!   keys of a staging block per [`ShardRouter::route_flat_into`] — and
//!   forwards clicks to the owning worker in batches (amortizing
//!   transport traffic).
//! * **Shard workers** each own one inner detector exclusively — the
//!   one-pass algorithms are inherently sequential *per keyspace shard*,
//!   which is exactly why Theorems 1 & 2 obsess over per-element cost —
//!   and judge whole batches via the allocation-free
//!   [`DuplicateDetector::observe_keys_into`] (hash-then-apply
//!   locality).
//! * **Resequencer + billing** restores global stream order from the
//!   sequence numbers (a reorder ring indexed by sequence number) and
//!   settles each click straight from its slot through the
//!   [`BillingEngine`] and the [`FraudScorer`], so budget accounting is
//!   byte-identical to a sequential run however the workers interleave.
//!
//! A single-detector run is a one-shard [`ShardedDetector`]: one worker,
//! a trivial router, the same machinery. Progress is published through
//! lock-free [`PipelineProgress`] atomics rather than a mutex, so
//! polling from a gauge thread never stalls the hot path.
//!
//! Like its predecessor, the detector stage judges *every* click,
//! including clicks on unregistered ads (billing later files those under
//! `unknown_ads` without consulting the verdict); a sequential
//! [`crate::network::AdNetwork`] run skips unknown ads entirely, so the
//! two only agree when every clicked ad is registered.
//!
//! ## Count and time windows
//!
//! One judge path serves both clocks. The worker fills a recycled tick
//! buffer with each batch's [`Click::tick`]s and judges the batch's
//! flat keys through [`DuplicateDetector::observe_keys_into`]:
//! count-window detectors ignore the ticks, time-window detectors
//! (`TimeTbf`, `TimeGbf`) advance their unit clocks from them. Routing
//! is tick-blind (by key only), so each shard receives its clicks in
//! global stream order and advances its clock exactly as a sequential
//! [`DuplicateDetector::observe_at`] run of the same [`ShardedDetector`]
//! would.
//!
//! ## Barrier snapshots
//!
//! A source that answers [`Pull::Barrier`] asks for a checkpoint at
//! that point of the stream, and the run takes one without stopping
//! (aligned barriers, as in Carbone et al., *Lightweight Asynchronous
//! Snapshots for Distributed Dataflows*, arXiv:1506.08603). Ingest
//! ships every partial bucket, then pushes a marker carrying a recycled
//! snapshot buffer into each shard's raw ring. A worker that pops the
//! marker appends its shard's `CFDS` blob to the buffer and forwards
//! the marker on its judged ring, so the blob holds exactly the clicks
//! before the barrier. Billing settles up to the barrier, waits for
//! every shard's marker, copies its own state and hands the complete
//! snapshot to the crate-private sink (`cfd serve`'s checkpoint
//! writer). Only one snapshot is in flight: ingest takes the snapshot
//! buffers back from the sink before it can place the next barrier.
//! In-process runs have no sink and ignore barriers.
//!
//! [`ShardRouter`]: cfd_core::ShardRouter
//! [`ShardRouter::route_flat_into`]: cfd_core::ShardRouter::route_flat_into

use crate::billing::{BillingEngine, Ledger};
use crate::entities::Registry;
use crate::fraud::FraudScorer;
use crate::report::NetworkReport;
use crate::ring::{self, Backoff, Doorbell, Pool, TryPopError};
use crate::telemetry::PipelineTelemetry;
use cfd_core::sharded::ShardedDetector;
use cfd_stream::Click;
use cfd_telemetry::{DetectorHealth, DetectorStats, TenantHealth};
use cfd_windows::{DuplicateDetector, Keys, Verdict};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Default clicks per inter-stage batch.
const DEFAULT_BATCH: usize = 256;

/// Bytes per click key ([`Click::key`] is a 16-byte array).
const KEY_LEN: usize = 16;

/// A click annotated with its fraud verdict (detector → billing stage).
#[derive(Debug, Clone, Copy)]
struct JudgedClick {
    click: Click,
    verdict: Verdict,
}

/// A pooled batch of sequence-stamped clicks bound for one shard worker.
///
/// The 16-byte click keys ride along in one flat buffer (`KEY_LEN`
/// bytes per item, same order as `items`) so ingest hashes each key
/// once for routing and the worker feeds the same bytes straight into
/// [`DuplicateDetector::observe_keys_into`] without rebuilding them.
///
/// A batch whose `snapshot` is set is a barrier marker: it carries no
/// clicks, only the buffer the worker appends its shard blob to.
#[derive(Default)]
struct ClickBatch {
    items: Vec<(u64, Click)>,
    keys: Vec<u8>,
    snapshot: Option<Vec<u8>>,
}

impl ClickBatch {
    fn clear(&mut self) {
        self.items.clear();
        self.keys.clear();
    }
}

/// A pooled judged batch headed for the resequencer; a set `snapshot`
/// marks a forwarded barrier marker holding the shard's blob.
#[derive(Default)]
struct JudgedBatch {
    items: Vec<(u64, JudgedClick)>,
    snapshot: Option<Vec<u8>>,
}

/// The resequencer: sequence number `s` waits in slot `s & mask`,
/// tagged with `s`. Ingest stages no click a window or more past the
/// next one to settle, so a ring covering the window never holds two
/// clicks in one slot. Slots are reserved up front and first written
/// when a sequence number reaches them.
struct ReorderRing {
    slots: Vec<(u64, JudgedClick)>,
    mask: u64,
    /// The next sequence number to settle.
    next: u64,
    /// Clicks placed and not yet settled.
    held: usize,
}

impl ReorderRing {
    fn place(&mut self, seq: u64, judged: JudgedClick) {
        let i = (seq & self.mask) as usize;
        if i >= self.slots.len() {
            // First lap: tag the gap with a sequence number never reached.
            self.slots.resize(i + 1, (u64::MAX, judged));
        }
        let tag = self.slots[i].0;
        debug_assert!(tag < self.next || tag == u64::MAX, "{seq} overwrote {tag}");
        self.slots[i] = (seq, judged);
        self.held += 1;
    }

    /// Settles held clicks in sequence order up to the first missing one
    /// or `stop`.
    fn release(&mut self, stop: u64, mut settle: impl FnMut(&JudgedClick)) {
        let from = self.next;
        while self.next < stop {
            match self.slots.get((self.next & self.mask) as usize) {
                Some((seq, judged)) if *seq == self.next => settle(judged),
                _ => break,
            }
            self.next += 1;
        }
        self.held -= (self.next - from) as usize;
    }
}

/// Live progress counters readable while the pipeline runs.
///
/// Plain atomics: stage threads publish with relaxed stores, gauges poll
/// with [`PipelineProgress::detected`] / [`PipelineProgress::billed`]
/// without ever contending a lock.
#[derive(Debug, Default)]
pub struct PipelineProgress {
    detected: AtomicU64,
    billed: AtomicU64,
}

impl PipelineProgress {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clicks that passed the detector stage so far.
    #[must_use]
    pub fn detected(&self) -> u64 {
        self.detected.load(Ordering::Relaxed)
    }

    /// Clicks fully billed so far.
    #[must_use]
    pub fn billed(&self) -> u64 {
        self.billed.load(Ordering::Relaxed)
    }
}

/// One pull from a [`ClickSource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pull {
    /// The next click of the stream.
    Click(Click),
    /// Nothing is buffered right now, but the stream has not ended: the
    /// ingest pushes its partial batches instead of holding them back.
    Idle,
    /// Take a snapshot here: it holds every click pulled before this
    /// answer and none pulled after. Ignored by a run without a
    /// snapshot sink (every public entry point).
    Barrier,
    /// The stream (or this segment of it) is over.
    End,
}

/// The pull contract of the pipeline's ingest stage.
///
/// Every `Iterator<Item = Click>` is a source through the blanket impl
/// and never reports [`Pull::Idle`], so in-process runs batch exactly
/// as before. A live source (the `cfd serve` hub) reports `Idle` when
/// it runs dry, so clicks already received are judged and billed
/// without waiting for a full batch.
pub trait ClickSource {
    /// Pulls the next click, or reports that none is buffered or that
    /// the stream ended.
    fn pull(&mut self) -> Pull;
}

impl<I: Iterator<Item = Click>> ClickSource for I {
    fn pull(&mut self) -> Pull {
        self.next().map_or(Pull::End, Pull::Click)
    }
}

/// Tuning knobs of the sharded pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Upper bound on clicks per inter-stage batch (larger batches
    /// amortize transport overhead; smaller ones bound resequencer
    /// latency). A cap, not a fill target: when the source reports
    /// [`Pull::Idle`], ingest pushes every partial batch it holds.
    pub batch: usize,
    /// Ring capacity per worker, in batches (backpressure), rounded up
    /// to a power of two.
    pub queue: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            batch: DEFAULT_BATCH,
            queue: 16,
        }
    }
}

/// Result of a pipeline run.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The final network report.
    pub report: NetworkReport,
    /// Per-publisher fraud scores recorded by the detector stage.
    pub scorer: FraudScorer,
    /// The registry with final budget states.
    pub registry: Registry,
    /// Final per-shard detector health samples, taken from the joined
    /// shards by [`publish_final_health`]. Empty for the uninstrumented
    /// entry point (plain [`run_sharded_pipeline`]), which places no
    /// [`DetectorStats`] bound on the detector.
    pub health: Vec<DetectorHealth>,
}

/// Cross-segment pipeline state for [`run_sharded_segment`]: what must
/// persist between two segments (and inside a serve checkpoint) for the
/// concatenation of segments to equal one continuous run.
#[derive(Debug, Default)]
pub struct SegmentState {
    /// Advertiser budgets and campaigns, with spend carried forward.
    pub registry: Registry,
    /// The billing ledger so far.
    pub ledger: Ledger,
    /// Fraud savings (micro-units) so far.
    pub savings_micros: u64,
    /// Per-publisher fraud tallies so far.
    pub scorer: FraudScorer,
}

impl SegmentState {
    /// Fresh state for a stream's first segment.
    #[must_use]
    pub fn new(registry: Registry) -> Self {
        Self {
            registry,
            ..Self::default()
        }
    }
}

/// Result of one [`run_sharded_segment`] call.
#[derive(Debug)]
pub struct SegmentOutcome<D> {
    /// The detector, reassembled with its window state advanced by this
    /// segment's clicks — feed it to the next segment.
    pub detector: ShardedDetector<D>,
    /// Billing state including this segment — feed it to the next
    /// segment, or build the final [`NetworkReport`] from it. A caller
    /// that wants the final health samples takes them from `detector`
    /// with [`publish_final_health`].
    pub state: SegmentState,
    /// Total detector memory, bits (for the report).
    pub memory_bits: usize,
    /// Detector name (for the report).
    pub name: &'static str,
}

impl<D> SegmentOutcome<D> {
    /// The report a run ending at this segment would print.
    #[must_use]
    pub fn report(&self) -> NetworkReport {
        NetworkReport::from_ledger(
            self.name,
            self.memory_bits,
            &self.state.ledger,
            self.state.savings_micros,
        )
    }

    /// The one-shot outcome of a run that is this single segment.
    fn into_outcome(self, health: Vec<DetectorHealth>) -> PipelineOutcome {
        PipelineOutcome {
            report: self.report(),
            scorer: self.state.scorer,
            registry: self.state.registry,
            health,
        }
    }
}

/// A one-slot hand-over between threads that either side can close.
pub(crate) struct Handoff<T> {
    /// The item, and whether the hand-over is closed.
    slot: Mutex<(Option<T>, bool)>,
    changed: Condvar,
}

/// How often a waiting [`Handoff::take`] re-checks its `give_up` test.
const HANDOFF_POLL: Duration = Duration::from_millis(10);

impl<T> Handoff<T> {
    pub(crate) fn new(item: Option<T>) -> Self {
        Self {
            slot: Mutex::new((item, false)),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, (Option<T>, bool)> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Places the item; the slot must be empty.
    pub(crate) fn put(&self, item: T) {
        let mut slot = self.lock();
        debug_assert!(slot.0.is_none(), "hand-over slot already full");
        slot.0 = Some(item);
        drop(slot);
        self.changed.notify_all();
    }

    /// Closes the hand-over: a waiting or later `take` of an empty slot
    /// returns `None`. An item already placed can still be taken.
    pub(crate) fn close(&self) {
        self.lock().1 = true;
        self.changed.notify_all();
    }

    /// Waits for the item. `None` once the hand-over is closed and
    /// empty, or when `give_up()` turns true while waiting.
    pub(crate) fn take(&self, give_up: impl Fn() -> bool) -> Option<T> {
        let mut slot = self.lock();
        loop {
            if let Some(item) = slot.0.take() {
                return Some(item);
            }
            if slot.1 || give_up() {
                return None;
            }
            slot = self
                .changed
                .wait_timeout(slot, HANDOFF_POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// The parts of one checkpoint as of a barrier, in the recycled buffers
/// they travel in.
pub(crate) struct Snapshot {
    /// Clicks the run had pulled before the barrier.
    pub(crate) clicks: u64,
    /// One `CFDS` blob per shard, in router order. Each buffer is
    /// reserved to its shard's checkpoint size before the run starts.
    pub(crate) shards: Vec<Vec<u8>>,
    /// Billing state after settling every click before the barrier.
    pub(crate) registry: Registry,
    pub(crate) ledger: Ledger,
    pub(crate) savings_micros: u64,
    pub(crate) scorer: FraudScorer,
    /// The sink's output buffer; the pipeline never touches it.
    pub(crate) cfdg: Vec<u8>,
}

/// The snapshot plumbing of a run that honours [`Pull::Barrier`].
pub(crate) struct Barriers<'a, D> {
    /// Appends one shard's blob to a snapshot buffer.
    pub(crate) encode: fn(&D, &mut Vec<u8>),
    /// The idle snapshot. Ingest takes it at a barrier, waiting while
    /// the previous one is still at the sink; the sink returns it, or
    /// closes this hand-over when it fails, which stops the ingest.
    pub(crate) free: &'a Handoff<Snapshot>,
    /// Complete snapshots, from billing to the sink.
    pub(crate) full: &'a Handoff<Snapshot>,
}

/// Runs one *segment* of a longer stream through the sharded fan-out
/// pipeline, carrying detector and billing state across calls.
///
/// Because the detector shards, router seed, ledger, budgets, savings,
/// and fraud tallies all carry over — and each segment preserves
/// per-shard observation order and reseqenced billing order — the
/// concatenation of segments is verdict-for-verdict and micro-for-micro
/// identical to one [`run_sharded_pipeline`] call over the whole
/// stream. `cfd serve` runs one segment for its whole life and takes
/// its checkpoints as barrier snapshots instead (see the module docs).
///
/// `clicks` is any [`ClickSource`]: an iterator batches exactly like
/// [`run_sharded_pipeline`], while a live source that reports
/// [`Pull::Idle`] gets its partial batches pushed as soon as it runs
/// dry.
///
/// `telemetry` (optional) attaches the same instrument bundle as
/// [`run_sharded_pipeline_instrumented`]; pass the *same* bundle every
/// segment so counters accumulate across the run. The workers answer
/// health requests while the segment runs; the final sample is
/// [`publish_final_health`] over the returned detector.
///
/// # Panics
///
/// Panics if a pipeline stage panics, or if `telemetry` was built for a
/// different shard count.
pub fn run_sharded_segment<D, S>(
    detector: ShardedDetector<D>,
    state: SegmentState,
    clicks: S,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
    telemetry: Option<Arc<PipelineTelemetry>>,
) -> SegmentOutcome<D>
where
    D: DuplicateDetector + DetectorStats + Send,
    S: ClickSource,
{
    run_barriered(detector, state, clicks, config, progress, telemetry, None)
}

/// [`run_sharded_segment`] that takes a snapshot at every
/// [`Pull::Barrier`] when `barriers` is set.
pub(crate) fn run_barriered<D, S>(
    detector: ShardedDetector<D>,
    state: SegmentState,
    clicks: S,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
    telemetry: Option<Arc<PipelineTelemetry>>,
    barriers: Option<Barriers<'_, D>>,
) -> SegmentOutcome<D>
where
    D: DuplicateDetector + DetectorStats + Send,
    S: ClickSource,
{
    if let Some(t) = &telemetry {
        assert_eq!(
            t.shard_count(),
            detector.shard_count(),
            "telemetry bundle sized for a different shard count"
        );
    }
    let instr = match telemetry {
        Some(t) => Instrumentation {
            telemetry: Some(t),
            health_of: |d: &D| Some(d.health()),
            tenant_health_of: |d: &D| d.tenant_health(),
        },
        None => Instrumentation::off(),
    };
    run_fanout(detector, state, clicks, config, progress, instr, barriers)
}

/// Instrumentation plumbing for [`run_fanout`]: the optional metric
/// bundle plus a monomorphized health probe. Uninstrumented entry
/// points pass `telemetry: None` and a `health_of` that returns `None`,
/// so the hot path stays free of `DetectorStats` bounds *and* timing
/// calls.
struct Instrumentation<D> {
    telemetry: Option<Arc<PipelineTelemetry>>,
    health_of: fn(&D) -> Option<DetectorHealth>,
    tenant_health_of: fn(&D) -> Option<TenantHealth>,
}

impl<D> Instrumentation<D> {
    fn off() -> Self {
        Self {
            telemetry: None,
            health_of: |_| None,
            tenant_health_of: |_| None,
        }
    }
}

/// Saturating nanosecond count for histogram recording.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `clicks` through one detector worker thread *per shard* of
/// `detector`, an order-restoring resequencer, and a billing stage.
///
/// The ingest thread routes every click to its keyspace shard, so each
/// worker sees exactly the subsequence its shard would see under
/// single-threaded [`ShardedDetector::observe`] — verdicts are
/// identical, and the resequencer makes billing order identical too.
/// A one-shard `detector` is the single-detector pipeline.
///
/// # Panics
///
/// Panics if a pipeline stage panics.
pub fn run_sharded_pipeline<D, I>(
    detector: ShardedDetector<D>,
    registry: Registry,
    clicks: I,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
) -> PipelineOutcome
where
    D: DuplicateDetector + Send,
    I: IntoIterator<Item = Click>,
{
    run_fanout(
        detector,
        SegmentState::new(registry),
        clicks.into_iter(),
        config,
        progress,
        Instrumentation::off(),
        None,
    )
    .into_outcome(Vec::new())
}

/// [`run_sharded_pipeline`] with live telemetry: one queue-depth gauge
/// and health-gauge set per shard worker, shared per-stage latency
/// histograms, and resequencer stall counters, all in `telemetry`'s
/// registry. [`PipelineOutcome::health`] carries one final
/// [`DetectorHealth`] per shard, in shard order. The run is one
/// [`run_sharded_segment`] over the whole stream followed by
/// [`publish_final_health`].
///
/// # Panics
///
/// Panics if `telemetry.shard_count()` differs from the detector's
/// shard count, or if a pipeline stage panics.
pub fn run_sharded_pipeline_instrumented<D, I>(
    detector: ShardedDetector<D>,
    registry: Registry,
    clicks: I,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
    telemetry: Arc<PipelineTelemetry>,
) -> PipelineOutcome
where
    D: DuplicateDetector + DetectorStats + Send,
    I: IntoIterator<Item = Click>,
{
    let out = run_sharded_segment(
        detector,
        SegmentState::new(registry),
        clicks.into_iter(),
        config,
        progress,
        Some(Arc::clone(&telemetry)),
    );
    let health = publish_final_health(&out.detector, &telemetry);
    out.into_outcome(health)
}

/// The end-of-run health sample: one [`DetectorHealth`] per shard of
/// `detector`, in shard order, each published to `telemetry` with its
/// per-tenant split. Every sample is an `O(m)` occupancy scan, so the
/// pipeline leaves it to the caller, which can take it after its clock
/// stops and before the reporter's final snapshot.
///
/// # Panics
///
/// Panics if `telemetry` was built for a different shard count.
pub fn publish_final_health<D: DetectorStats>(
    detector: &ShardedDetector<D>,
    telemetry: &PipelineTelemetry,
) -> Vec<DetectorHealth> {
    detector
        .shards()
        .iter()
        .enumerate()
        .map(|(idx, shard)| {
            let health = shard.health();
            telemetry.publish_health(idx, &health);
            if let Some(th) = shard.tenant_health() {
                telemetry.publish_tenant_health(idx, &th);
            }
            health
        })
        .collect()
}

/// The billing stage's state: everything a segment carries over except
/// the detector.
struct Billing<'a> {
    engine: BillingEngine<()>,
    registry: Registry,
    savings: u64,
    scorer: FraudScorer,
    progress: Option<&'a PipelineProgress>,
}

impl Billing<'_> {
    /// Settles one judged click against the ledger, tallying fraud
    /// savings and the publisher's score.
    fn settle(&mut self, &JudgedClick { click, verdict }: &JudgedClick) {
        let (_, saved) = self
            .engine
            .settle_judged(&click, verdict, &mut self.registry);
        self.savings += saved;
        self.scorer.record(&click, verdict);
        if let Some(p) = self.progress {
            p.billed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Copies the billing state into `snap`'s recycled buffers.
    fn copy_into(&self, snap: &mut Snapshot) {
        snap.registry.clone_from(&self.registry);
        snap.ledger.clone_from(self.engine.ledger());
        snap.savings_micros = self.savings;
        snap.scorer.clone_from(&self.scorer);
    }
}

/// The fan-out engine behind every entry point: bounded SPSC rings
/// between stages and two shared [`Pool`]s recycling the batch buffers,
/// so the steady state allocates nothing.
///
/// Buffer life cycle: ingest `get`s a [`ClickBatch`] from the raw pool,
/// fills it, and pushes it down the owning shard's raw ring; the worker
/// judges it, moves the payload into a pooled [`JudgedBatch`], and
/// `put`s the emptied `ClickBatch` straight back; billing drains the
/// judged rings round-robin and `put`s each drained `JudgedBatch` back.
/// After warm-up every `get` hits the pool — the pool-miss counters in
/// telemetry stay flat. An idle worker parks on its raw ring's doorbell,
/// and idle billing on the one doorbell all judged rings share, so each
/// wakes when a batch arrives.
/// Barrier markers are pooled batches too, and the snapshot buffers
/// they carry cycle between ingest, the workers, billing and the sink.
///
/// Ingest hashes each staging block's keys once with the multi-lane
/// batch hasher ([`ShardRouter::route_flat_into`]) and ships the same
/// key bytes to the worker inside the batch, where
/// [`DuplicateDetector::observe_keys_into`] reuses them for probing.
///
/// [`ShardRouter::route_flat_into`]: cfd_core::ShardRouter::route_flat_into
#[allow(clippy::too_many_lines)]
fn run_fanout<D, S>(
    detector: ShardedDetector<D>,
    state: SegmentState,
    mut clicks: S,
    config: PipelineConfig,
    progress: Option<Arc<PipelineProgress>>,
    instr: Instrumentation<D>,
    barriers: Option<Barriers<'_, D>>,
) -> SegmentOutcome<D>
where
    D: DuplicateDetector + Send,
    S: ClickSource,
{
    let batch = config.batch.max(1);
    let queue = config.queue.max(1);
    let name = detector.name();
    let router_seed = detector.router_seed();
    let router = detector.router();
    let workers = detector.into_shards();
    let shard_count = workers.len();
    let SegmentState {
        registry,
        ledger: seed_ledger,
        savings_micros: seed_savings,
        scorer,
    } = state;
    let raw_pool = Arc::new(Pool::<ClickBatch>::new());
    let judged_pool = Arc::new(Pool::<JudgedBatch>::new());
    // Pre-populate both pools to their structural in-flight bounds with
    // capacity-reserved buffers: per shard, `queue` batches can sit in a
    // ring plus one in the producer's hand and one in the consumer's.
    // An empty pool hands out `T::default()` (capacity-0 vectors) on a
    // miss, so lazily-grown pools reach their working population at a
    // timing-dependent point — occasionally *after* a steady-state
    // allocation watcher has started counting.
    for _ in 0..shard_count * (queue + 2) {
        raw_pool.put(ClickBatch {
            items: Vec::with_capacity(batch),
            keys: Vec::with_capacity(batch * KEY_LEN),
            snapshot: None,
        });
        judged_pool.put(JudgedBatch {
            items: Vec::with_capacity(batch),
            snapshot: None,
        });
    }
    // In-flight window: ingest stages a block only while it stays within
    // `window` clicks of the next sequence number billing is waiting for.
    // It covers both rings of every shard full plus every hand, so clicks
    // completing in order never wait on it. It binds when one shard
    // falls behind while the others run ahead (or a skewed stream leaves
    // one shard's bucket unshipped): without it the resequencer backlog
    // grows with the stream, and the reorder ring could not be sized.
    let window = shard_count * (2 * queue.next_power_of_two() + 3) * batch;
    let billed_seq = AtomicU64::new(0);
    // The snapshot of the barrier in flight, from ingest to billing:
    // ingest places it before pushing the markers, so billing finds it
    // when the first marker arrives.
    let in_flight: Handoff<Snapshot> = Handoff::new(None);
    let encode = barriers.as_ref().map(|b| b.encode);

    thread::scope(|s| {
        // Shard workers: exclusive detector ownership, one raw ring in
        // and one judged ring out per worker (SPSC at both ends — no
        // fan-in contention point).
        let mut raw_producers = Vec::with_capacity(shard_count);
        let mut judged_consumers = Vec::with_capacity(shard_count);
        // Every worker rings billing's one doorbell when it publishes.
        let billing_bell = Arc::new(Doorbell::new());
        let mut handles = Vec::with_capacity(shard_count);
        for (idx, mut detector) in workers.into_iter().enumerate() {
            let (raw_tx, mut raw_rx) = ring::spsc::<ClickBatch>(queue);
            let (mut judged_tx, judged_rx) =
                ring::spsc_with::<JudgedBatch>(queue, Arc::clone(&billing_bell));
            raw_producers.push(raw_tx);
            judged_consumers.push(judged_rx);
            let progress = progress.clone();
            let telemetry = instr.telemetry.clone();
            let health_of = instr.health_of;
            let tenant_health_of = instr.tenant_health_of;
            let raw_pool = Arc::clone(&raw_pool);
            let judged_pool = Arc::clone(&judged_pool);
            handles.push(s.spawn(move || {
                let telem = telemetry.as_deref();
                let mut verdicts: Vec<Verdict> = Vec::with_capacity(batch);
                let mut ticks: Vec<u64> = Vec::with_capacity(batch);
                while let Some(mut b) = raw_rx.pop() {
                    if let Some(t) = telem {
                        t.shard_queue_depth(idx).sub(1);
                    }
                    let mut judged = judged_pool.get();
                    judged.items.clear();
                    if let Some(mut snap) = b.snapshot.take() {
                        // A barrier: every click before it is judged, none
                        // after it is. Copy the shard's tables and pass
                        // the marker on.
                        let encode = encode.expect("barrier markers come with an encoder");
                        encode(&detector, &mut snap);
                        judged.snapshot = Some(snap);
                    } else {
                        let t0 = telem.map(|_| Instant::now());
                        // The key bytes were built (and lane-hashed for
                        // routing) at ingest; probe them directly. Count
                        // windows ignore the ticks, time windows read them.
                        ticks.clear();
                        ticks.extend(b.items.iter().map(|(_, c)| c.tick));
                        detector.observe_keys_into(
                            Keys::flat(&b.keys, KEY_LEN),
                            Some(&ticks),
                            &mut verdicts,
                        );
                        if let Some((t, t0)) = telem.zip(t0) {
                            t.stage_probe_ns().record(duration_ns(t0.elapsed()));
                        }
                        judged.items.extend(
                            b.items.drain(..).zip(verdicts.iter().copied()).map(
                                |((seq, click), verdict)| (seq, JudgedClick { click, verdict }),
                            ),
                        );
                    }
                    b.clear();
                    raw_pool.put(b);
                    if let Some(p) = &progress {
                        p.detected
                            .fetch_add(judged.items.len() as u64, Ordering::Relaxed);
                    }
                    if let Some(t) = telem {
                        t.shard_batches(idx).inc();
                        if t.take_health_request(idx) {
                            if let Some(h) = health_of(&detector) {
                                t.publish_health(idx, &h);
                            }
                            if let Some(th) = tenant_health_of(&detector) {
                                t.publish_tenant_health(idx, &th);
                            }
                        }
                    }
                    if judged_tx.push(judged).is_err() {
                        break; // billing stage gone; drain and stop
                    }
                }
                if let Some(t) = telem {
                    // Backpressure totals for both of this shard's
                    // rings (the wait counters live on the shared ring
                    // state, so either end can read them).
                    t.shard_raw_full_waits(idx).add(raw_rx.stats().full_waits);
                    t.shard_judged_full_waits(idx)
                        .add(judged_tx.stats().full_waits);
                }
                let bits = detector.memory_bits();
                (detector, bits)
            }));
        }

        // Resequencer + billing: poll every judged ring round-robin,
        // restore global order, settle verdicts. Draining each ring
        // unconditionally keeps workers from deadlocking against a full
        // judged ring; after a sweep that found them all empty, billing
        // waits on the doorbell the workers ring.
        let progress_bill = progress.clone();
        let telemetry_bill = instr.telemetry.clone();
        let judged_pool_bill = Arc::clone(&judged_pool);
        let billed_seq = &billed_seq;
        let in_flight = &in_flight;
        let full = barriers.as_ref().map(|b| b.full);
        let billing = s.spawn(move || {
            let telem = telemetry_bill.as_deref();
            let mut bill = Billing {
                engine: BillingEngine::with_ledger((), seed_ledger),
                registry,
                savings: seed_savings,
                scorer,
                progress: progress_bill.as_deref(),
            };
            let mut ring = ReorderRing {
                slots: Vec::with_capacity(window.next_power_of_two()),
                mask: window.next_power_of_two() as u64 - 1,
                next: 0,
                held: 0,
            };
            // The barrier being assembled: settling stops at its
            // position until every shard's marker is in.
            let mut snapshot: Option<Snapshot> = None;
            let mut blobs: Vec<Option<Vec<u8>>> = (0..shard_count).map(|_| None).collect();
            let mut markers = 0usize;
            let mut consumers = judged_consumers;
            let mut open = vec![true; consumers.len()];
            let mut live = consumers.len();
            let mut empty_polls = 0u64;
            while live > 0 {
                let mut progressed = false;
                for (ci, rx) in consumers.iter_mut().enumerate() {
                    if !open[ci] {
                        continue;
                    }
                    loop {
                        let mut jb = match rx.try_pop() {
                            Ok(jb) => jb,
                            Err(TryPopError::Empty) => break,
                            Err(TryPopError::Disconnected) => {
                                open[ci] = false;
                                live -= 1;
                                break;
                            }
                        };
                        progressed = true;
                        let t0 = telem.map(|_| Instant::now());
                        if let Some(blob) = jb.snapshot.take() {
                            if snapshot.is_none() {
                                snapshot = in_flight.take(|| false);
                            }
                            blobs[ci] = Some(blob);
                            markers += 1;
                        }
                        for (seq, judged) in jb.items.drain(..) {
                            ring.place(seq, judged);
                        }
                        judged_pool_bill.put(jb);
                        let t1 = telem.zip(t0).map(|(t, t0)| {
                            let now = Instant::now();
                            t.stage_resequence_ns().record(duration_ns(now - t0));
                            now
                        });
                        let from = ring.next;
                        loop {
                            let stop = snapshot.as_ref().map_or(u64::MAX, |snap| snap.clicks);
                            ring.release(stop, |judged| bill.settle(judged));
                            // Published only after settling: ingest may
                            // then stage clicks a window past it.
                            billed_seq.store(ring.next, Ordering::Relaxed);
                            if markers < shard_count {
                                break;
                            }
                            // Every click before the barrier was in some
                            // shard's ring ahead of its marker, so all of
                            // them are settled now. Hand the snapshot
                            // over, then settle what it held back.
                            let mut snap = snapshot.take().expect("taken with the first marker");
                            debug_assert_eq!(ring.next, snap.clicks, "barrier before its clicks");
                            snap.shards
                                .extend(blobs.iter_mut().map(|b| b.take().expect("one per shard")));
                            bill.copy_into(&mut snap);
                            full.expect("markers come with a sink").put(snap);
                            markers = 0;
                        }
                        if let Some((t, t1)) = telem.zip(t1) {
                            if ring.next == from && ring.held > 0 {
                                t.reseq_stalls().inc();
                            }
                            t.pending_peak()
                                .set_max(i64::try_from(ring.held).unwrap_or(i64::MAX));
                            t.stage_billing_ns().record(duration_ns(t1.elapsed()));
                        }
                    }
                }
                if !progressed && live > 0 {
                    empty_polls += 1;
                    billing_bell.wait_until(|| {
                        consumers
                            .iter()
                            .zip(&open)
                            .any(|(rx, &open)| open && rx.is_ready())
                    });
                }
            }
            // Workers are done: the remainder is a contiguous tail.
            ring.release(u64::MAX, |judged| bill.settle(judged));
            debug_assert_eq!(ring.held, 0, "resequencer hole at shutdown");
            if let Some(t) = telem {
                t.reseq_empty_polls().add(empty_polls);
            }
            (
                bill.engine.into_ledger(),
                bill.savings,
                bill.registry,
                bill.scorer,
            )
        });

        // Ingest + route on the caller's thread: stage up to a block of
        // clicks, build all keys flat, lane-hash the block once for
        // routing, then scatter into per-shard pooled batches. A bucket
        // ships when it reaches `batch`, when the source goes idle
        // (partial buckets, so buffered clicks never wait for more to
        // arrive), at a barrier, or at the end of the stream.
        let telem = instr.telemetry.as_deref();
        let mut stage_clicks: Vec<Click> = Vec::with_capacity(batch);
        let mut stage_keys: Vec<u8> = Vec::with_capacity(batch * KEY_LEN);
        let mut routes: Vec<usize> = Vec::with_capacity(batch);
        let mut buckets: Vec<ClickBatch> = (0..shard_count).map(|_| raw_pool.get()).collect();
        let mut marker_bufs: Vec<Vec<u8>> = Vec::with_capacity(shard_count);
        // Pushes one batch down `shard`'s raw ring; `false` once its
        // worker is gone.
        let mut ship = |shard: usize, b: ClickBatch| {
            if let Some(t) = telem {
                t.ingest_clicks().add(b.items.len() as u64);
                t.shard_queue_depth(shard).add(1);
            }
            raw_producers[shard].push(b).is_ok()
        };
        let worker_died = || handles.iter().any(thread::ScopedJoinHandle::is_finished);
        let mut seq = 0u64;
        let block = batch as u64;
        let window = window as u64;
        'ingest: loop {
            if seq + block > billed_seq.load(Ordering::Relaxed) + window {
                // Billing waits on a click a full window back; it may sit
                // in a partial bucket, so ship them all, then wait.
                for (shard, b) in buckets.iter_mut().enumerate() {
                    if !b.items.is_empty() && !ship(shard, std::mem::replace(b, raw_pool.get())) {
                        break 'ingest;
                    }
                }
                let mut backoff = Backoff::new();
                while seq + block > billed_seq.load(Ordering::Relaxed) + window {
                    if worker_died() {
                        break 'ingest; // a worker died; stop feeding
                    }
                    backoff.snooze();
                }
            }
            stage_clicks.clear();
            let mut pulled = Pull::End;
            while stage_clicks.len() < batch {
                pulled = clicks.pull();
                let Pull::Click(c) = pulled else { break };
                stage_clicks.push(c);
            }
            if !stage_clicks.is_empty() {
                let t0 = telem.map(|_| Instant::now());
                stage_keys.clear();
                for c in &stage_clicks {
                    stage_keys.extend_from_slice(&c.key());
                }
                router.route_flat_into(&stage_keys, KEY_LEN, &mut routes);
                if let Some((t, t0)) = telem.zip(t0) {
                    t.stage_hash_ns().record(duration_ns(t0.elapsed()));
                }
                for (i, click) in stage_clicks.drain(..).enumerate() {
                    let shard = routes[i];
                    let b = &mut buckets[shard];
                    b.items.push((seq, click));
                    b.keys
                        .extend_from_slice(&stage_keys[i * KEY_LEN..(i + 1) * KEY_LEN]);
                    seq += 1;
                    if b.items.len() == batch {
                        let full = std::mem::replace(b, raw_pool.get());
                        if !ship(shard, full) {
                            break 'ingest; // a worker died; stop feeding
                        }
                    }
                }
            }
            match pulled {
                Pull::Click(_) => {} // the staging block filled up
                Pull::Idle => {
                    for (shard, b) in buckets.iter_mut().enumerate() {
                        if b.items.is_empty() {
                            continue;
                        }
                        if let Some(t) = telem {
                            t.ingest_idle_flushes().inc();
                        }
                        let partial = std::mem::replace(b, raw_pool.get());
                        if !ship(shard, partial) {
                            break 'ingest;
                        }
                    }
                }
                Pull::Barrier => {
                    let Some(sink) = &barriers else { continue };
                    for (shard, b) in buckets.iter_mut().enumerate() {
                        if !b.items.is_empty() && !ship(shard, std::mem::replace(b, raw_pool.get()))
                        {
                            break 'ingest;
                        }
                    }
                    // Waits while the previous snapshot is at the sink;
                    // `None` when the sink failed.
                    let Some(mut snap) = sink.free.take(worker_died) else {
                        break 'ingest;
                    };
                    snap.clicks = seq;
                    marker_bufs.append(&mut snap.shards);
                    in_flight.put(snap);
                    for (shard, mut buf) in marker_bufs.drain(..).enumerate() {
                        buf.clear();
                        let mut marker = raw_pool.get();
                        marker.snapshot = Some(buf);
                        if !ship(shard, marker) {
                            break 'ingest;
                        }
                    }
                }
                Pull::End => break,
            }
        }
        for (shard, b) in buckets.into_iter().enumerate() {
            if b.items.is_empty() {
                raw_pool.put(b);
            } else {
                ship(shard, b);
            }
        }
        drop(raw_producers);

        let mut workers = Vec::with_capacity(shard_count);
        let mut memory_bits = 0usize;
        for handle in handles {
            let (detector, bits) = handle.join().expect("detector worker panicked");
            workers.push(detector);
            memory_bits += bits;
        }
        let (ledger, savings, registry, scorer) = billing.join().expect("billing stage panicked");
        if let Some(t) = telem {
            t.pool_raw_misses().add(raw_pool.misses());
            t.pool_judged_misses().add(judged_pool.misses());
        }
        SegmentOutcome {
            detector: ShardedDetector::new(router_seed, workers)
                .expect("shards returned by the fan-out reassemble"),
            state: SegmentState {
                registry,
                ledger,
                savings_micros: savings,
                scorer,
            },
            memory_bits,
            name,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::billing::ClickOutcome;
    use crate::entities::{Advertiser, AdvertiserId, Campaign};
    use cfd_core::sharded::per_shard_window;
    use cfd_core::{Tbf, TbfConfig, TimeTbf, TimeTbfConfig};
    use cfd_stream::{AdId, BotnetConfig, BotnetStream};

    fn registry_with_budget(budget: u64) -> Registry {
        let mut r = Registry::new();
        r.add_advertiser(Advertiser::new(AdvertiserId(1), "acme", budget));
        for ad in 0..64 {
            r.add_campaign(Campaign {
                ad: AdId(ad),
                advertiser: AdvertiserId(1),
                cpc_micros: 100,
            })
            .expect("advertiser registered");
        }
        r
    }

    fn registry() -> Registry {
        registry_with_budget(u64::MAX / 4)
    }

    fn clicks(n: usize) -> Vec<Click> {
        BotnetStream::new(BotnetConfig::default(), 8, 64)
            .take(n)
            .map(|c| c.click)
            .collect()
    }

    /// `d` as the one-shard [`ShardedDetector`] a single-detector run is.
    fn one_shard<D>(d: D) -> ShardedDetector<D> {
        ShardedDetector::new(0, vec![d]).expect("one shard")
    }

    fn sharded_tbf(n: usize, shards: usize) -> ShardedDetector<Tbf> {
        ShardedDetector::from_fn(7, shards, |_| {
            let n_s = per_shard_window(n, shards);
            Tbf::new(
                TbfConfig::builder(n_s)
                    .entries(n_s * 16)
                    .seed(4)
                    .build()
                    .expect("cfg"),
            )
        })
        .expect("sharded detector")
    }

    #[test]
    fn pipeline_matches_sequential_network() {
        let cs = clicks(30_000);
        let mk = || {
            Tbf::new(
                TbfConfig::builder(2_048)
                    .entries(1 << 15)
                    .seed(4)
                    .build()
                    .expect("cfg"),
            )
            .expect("detector")
        };
        // Sequential reference.
        let mut net = crate::network::AdNetwork::new(mk());
        let mut reg = registry();
        std::mem::swap(net.registry_mut(), &mut reg);
        let sequential = net.run(cs.iter());

        // Pipelined.
        let outcome = run_sharded_pipeline(
            one_shard(mk()),
            registry(),
            cs.iter().copied(),
            PipelineConfig {
                batch: 256,
                queue: 1,
            },
            None,
        );
        assert_eq!(outcome.report.charged, sequential.charged);
        assert_eq!(
            outcome.report.duplicates_blocked,
            sequential.duplicates_blocked
        );
        assert_eq!(outcome.report.revenue_micros, sequential.revenue_micros);
        assert_eq!(outcome.report.savings_micros, sequential.savings_micros);
    }

    /// The acceptance bar of the sharded layer: the parallel pipeline
    /// over `S` shard workers reproduces a sequential run of the *same*
    /// `ShardedDetector` bit for bit — the routing preserves per-shard
    /// observation order and the resequencer preserves billing order.
    /// A tight budget makes billing order-sensitive, so a resequencer
    /// bug cannot hide.
    #[test]
    fn sharded_pipeline_matches_sequential_sharded_network() {
        let cs = clicks(30_000);
        for (shards, budget) in [(1usize, u64::MAX / 4), (4, u64::MAX / 4), (4, 50_000)] {
            let mut net = crate::network::AdNetwork::new(sharded_tbf(2_048, shards));
            let mut reg = registry_with_budget(budget);
            std::mem::swap(net.registry_mut(), &mut reg);
            let sequential = net.run(cs.iter());

            let outcome = run_sharded_pipeline(
                sharded_tbf(2_048, shards),
                registry_with_budget(budget),
                cs.iter().copied(),
                PipelineConfig::default(),
                None,
            );
            assert_eq!(
                outcome.report.charged, sequential.charged,
                "shards={shards}"
            );
            assert_eq!(
                outcome.report.duplicates_blocked, sequential.duplicates_blocked,
                "shards={shards}"
            );
            assert_eq!(
                outcome.report.budget_rejections,
                sequential.budget_rejections
            );
            assert_eq!(outcome.report.revenue_micros, sequential.revenue_micros);
            assert_eq!(outcome.report.savings_micros, sequential.savings_micros);
            assert_eq!(
                outcome.report.detector_memory_bits,
                sequential.detector_memory_bits
            );
        }
    }

    /// Batch size is a throughput knob, never a semantics knob: the
    /// resequencer output is invariant under batch boundaries.
    #[test]
    fn batch_size_does_not_change_any_tally() {
        let cs = clicks(10_000);
        let run = |batch: usize| {
            run_sharded_pipeline(
                sharded_tbf(1_024, 3),
                registry_with_budget(400_000),
                cs.iter().copied(),
                PipelineConfig { batch, queue: 4 },
                None,
            )
        };
        let a = run(1);
        let b = run(509);
        assert_eq!(a.report.charged, b.report.charged);
        assert_eq!(a.report.duplicates_blocked, b.report.duplicates_blocked);
        assert_eq!(a.report.budget_rejections, b.report.budget_rejections);
        assert_eq!(a.report.revenue_micros, b.report.revenue_micros);
        assert_eq!(a.scorer.total_clicks(), b.scorer.total_clicks());
    }

    #[test]
    fn progress_counters_advance() {
        let progress = Arc::new(PipelineProgress::new());
        let cs = clicks(5_000);
        let d = Tbf::new(
            TbfConfig::builder(512)
                .entries(1 << 13)
                .build()
                .expect("cfg"),
        )
        .expect("detector");
        let outcome = run_sharded_pipeline(
            one_shard(d),
            registry(),
            cs,
            PipelineConfig {
                batch: 64,
                queue: 1,
            },
            Some(progress.clone()),
        );
        assert_eq!(progress.detected(), 5_000);
        assert_eq!(progress.billed(), 5_000);
        assert_eq!(outcome.report.clicks, 5_000);
    }

    #[test]
    fn scorer_travels_with_the_outcome() {
        let cs = clicks(20_000);
        let d = Tbf::new(
            TbfConfig::builder(4_096)
                .entries(1 << 16)
                .build()
                .expect("cfg"),
        )
        .expect("detector");
        let outcome = run_sharded_pipeline(
            one_shard(d),
            registry(),
            cs,
            PipelineConfig {
                batch: 128,
                queue: 1,
            },
            None,
        );
        assert!(outcome.scorer.total_clicks() == 20_000);
        assert!(!outcome.scorer.scores(100).is_empty());
    }

    /// Telemetry is observation, not intervention: the instrumented run
    /// produces a report identical to the plain run's, while its
    /// registry fills with consistent stage metrics and the outcome
    /// carries one final health sample per shard.
    #[test]
    fn instrumented_run_matches_plain_run_and_reports() {
        let cs = clicks(20_000);
        let shards = 4;
        let plain = run_sharded_pipeline(
            sharded_tbf(2_048, shards),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
        );
        assert!(plain.health.is_empty(), "plain runs carry no health");

        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
        telemetry.request_detector_health(); // exercise the request path
        let observed = run_sharded_pipeline_instrumented(
            sharded_tbf(2_048, shards),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
            Arc::clone(&telemetry),
        );
        assert_eq!(observed.report.charged, plain.report.charged);
        assert_eq!(
            observed.report.duplicates_blocked,
            plain.report.duplicates_blocked
        );
        assert_eq!(observed.report.revenue_micros, plain.report.revenue_micros);

        assert_eq!(observed.health.len(), shards, "one sample per shard");
        let total: u64 = observed.health.iter().map(|h| h.observed_elements).sum();
        assert_eq!(total, 20_000, "shard healths partition the stream");
        assert!(observed.health.iter().all(|h| h.fill_ratios[0] > 0.0));

        let snap = metrics.snapshot();
        assert_eq!(
            snap.get_counter("pipeline.ingest.clicks"),
            Some(20_000),
            "every click routed"
        );
        let batches: u64 = (0..shards)
            .map(|i| {
                snap.get_counter(&format!("pipeline.shard{i}.batches"))
                    .expect("registered")
            })
            .sum();
        assert!(batches > 0);
        for stage in ["hash", "probe", "resequence", "billing"] {
            let h = snap
                .get_histogram(&format!("pipeline.stage.{stage}_ns"))
                .expect("stage histogram registered");
            assert!(h.count > 0, "{stage} recorded no batches");
            assert!(h.max > 0, "{stage} latencies all zero");
        }
        // All queues drained at shutdown.
        for e in &snap.entries {
            if e.name.ends_with("queue_depth") {
                assert_eq!(e.value, cfd_telemetry::MetricValue::Gauge(0), "{}", e.name);
            }
        }
        // Ring extras: the pools are pre-populated to their
        // structural in-flight bound, so no `get` ever finds them empty
        // — zero misses means zero mid-run buffer creation.
        let raw_misses = snap
            .get_counter("pipeline.pool.raw_misses")
            .expect("registered");
        assert_eq!(
            raw_misses, 0,
            "pre-populated pool ran dry: {raw_misses} raw-batch allocations"
        );
        assert_eq!(
            snap.get_counter("pipeline.ingest.idle_flushes"),
            Some(0),
            "an in-memory iterator never goes idle"
        );
    }

    /// A skewed stream parks shard 0's only click in a partial bucket
    /// while shard 1 runs ahead. The in-flight window ships that bucket
    /// and holds ingest back, so the resequencer backlog stays within
    /// the window (`shards * (2 * queue + 3) * batch` clicks) instead of
    /// growing with the stream, and billing equals a sequential run.
    ///
    /// The second case sizes the window just under a power of two (3 ×
    /// 5 × 256 = 3,840 clicks), so its backlog overflows any reorder
    /// ring smaller than the window's power of two, and sets a budget
    /// that runs out inside the first window: which publishers earn the
    /// last charges then depends on settlement order, so per-publisher
    /// revenue, spend and the scorer are compared too. A resequencer
    /// that loses or stalls a click fails the watchdog instead of
    /// hanging the test.
    #[test]
    fn skewed_stream_keeps_the_resequencer_within_the_window() {
        let wide = PipelineConfig::default();
        let tight = PipelineConfig {
            batch: 256,
            queue: 1,
        };
        for (shards, config, budget) in [(2, wide, u64::MAX / 4), (3, tight, 200_000)] {
            let router = sharded_tbf(2_048, shards).router();
            let mut skewed: Vec<Click> = Vec::new();
            for c in clicks(150_000) {
                let shard = router.route(&c.key());
                if (shard == 0 && skewed.is_empty()) || (shard == 1 && !skewed.is_empty()) {
                    skewed.push(c);
                }
            }
            skewed.truncate(40_000);
            let mut sequential = BillingEngine::new(sharded_tbf(2_048, shards));
            let mut reg = registry_with_budget(budget);
            let mut scorer = FraudScorer::new();
            let mut savings = 0;
            for c in &skewed {
                // Every ad is registered: a blocked click is a duplicate
                // verdict, any other outcome a distinct one.
                let outcome = sequential.process(c, &mut reg);
                let blocked = outcome == ClickOutcome::DuplicateBlocked;
                savings += if blocked { 100 } else { 0 };
                scorer.record(
                    c,
                    if blocked {
                        Verdict::Duplicate
                    } else {
                        Verdict::Distinct
                    },
                );
            }
            let detector = sequential.detector();
            let expected = NetworkReport::from_ledger(
                detector.name(),
                detector.memory_bits(),
                sequential.ledger(),
                savings,
            );
            assert!(budget > 1 << 40 || expected.budget_rejections > 0);

            let metrics = Arc::new(cfd_telemetry::Registry::new());
            let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
            let (done, outcome) = std::sync::mpsc::channel();
            thread::spawn(move || {
                let out = run_sharded_segment(
                    sharded_tbf(2_048, shards),
                    SegmentState::new(registry_with_budget(budget)),
                    skewed.into_iter(),
                    config,
                    None,
                    Some(telemetry),
                );
                done.send(out).ok();
            });
            let out = outcome
                .recv_timeout(Duration::from_secs(120))
                .expect("the pipeline neither panicked nor stalled");
            assert_eq!(out.report(), expected, "shards {shards}");
            let sorted = |m: &cfd_core::MixMap<u32, u64>| {
                let mut v: Vec<_> = m.iter().map(|(&p, &r)| (p, r)).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(
                sorted(&out.state.ledger.per_publisher_micros),
                sorted(&sequential.ledger().per_publisher_micros),
                "per-publisher revenue, shards {shards}"
            );
            let spend = |r: &Registry| r.advertiser(AdvertiserId(1)).map(|a| a.spent_micros);
            assert_eq!(spend(&out.state.registry), spend(&reg), "shards {shards}");
            let tallies = |s: &FraudScorer| {
                let mut t: Vec<_> = s.tallies().collect();
                t.sort_unstable();
                t
            };
            assert_eq!(tallies(&out.state.scorer), tallies(&scorer));
            let peak = metrics
                .snapshot()
                .get_gauge("pipeline.reseq.pending_peak")
                .expect("registered");
            let window = shards * (2 * config.queue.next_power_of_two() + 3) * config.batch;
            assert!(peak <= window as i64, "backlog peaked at {peak}");
        }
    }

    /// A source that reports idle after every `every` clicks.
    struct Stuttering<I> {
        clicks: I,
        every: usize,
        since_idle: usize,
    }

    impl<I: Iterator<Item = Click>> ClickSource for Stuttering<I> {
        fn pull(&mut self) -> Pull {
            if self.since_idle == self.every {
                self.since_idle = 0;
                return Pull::Idle;
            }
            self.since_idle += 1;
            self.clicks.next().map_or(Pull::End, Pull::Click)
        }
    }

    /// Idle reports push partial batches without changing a verdict or
    /// the billing order.
    #[test]
    fn idle_source_flushes_partial_batches_without_changing_the_report() {
        let cs = clicks(6_000);
        let shards = 3;
        let expected = run_sharded_pipeline(
            sharded_tbf(1_024, shards),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
        )
        .report;
        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
        let source = Stuttering {
            clicks: cs.iter().copied(),
            every: 100,
            since_idle: 0,
        };
        let out = run_sharded_segment(
            sharded_tbf(1_024, shards),
            SegmentState::new(registry()),
            source,
            PipelineConfig::default(),
            None,
            Some(telemetry),
        );
        assert_eq!(out.report(), expected);
        let snap = metrics.snapshot();
        assert_eq!(snap.get_counter("pipeline.ingest.clicks"), Some(6_000));
        // 60 idle reports, each with at least one non-empty bucket (100
        // clicks since the last flush), at most one per shard.
        let flushes = snap
            .get_counter("pipeline.ingest.idle_flushes")
            .expect("registered");
        assert!((60..=60 * 3).contains(&flushes), "{flushes}");
    }

    /// A one-shard instrumented run works with a boxed dynamic detector
    /// (the CLI's usage) and publishes terminal health.
    #[test]
    fn instrumented_single_shard_accepts_boxed_detector() {
        use cfd_windows::ObservableDetector;
        let cs = clicks(5_000);
        let d: Box<dyn ObservableDetector + Send> = Box::new(
            Tbf::new(
                TbfConfig::builder(512)
                    .entries(1 << 13)
                    .build()
                    .expect("cfg"),
            )
            .expect("detector"),
        );
        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, 1));
        let outcome = run_sharded_pipeline_instrumented(
            one_shard(d),
            registry(),
            cs,
            PipelineConfig {
                batch: 64,
                queue: 1,
            },
            None,
            Arc::clone(&telemetry),
        );
        assert_eq!(outcome.report.clicks, 5_000);
        assert_eq!(outcome.health.len(), 1);
        assert_eq!(outcome.health[0].observed_elements, 5_000);
        let snap = metrics.snapshot();
        assert_eq!(snap.get_counter("pipeline.ingest.clicks"), Some(5_000));
    }

    fn sharded_time_tbf(shards: usize) -> ShardedDetector<TimeTbf> {
        ShardedDetector::from_fn(7, shards, |_| {
            TimeTbf::new(TimeTbfConfig::new(64, 16, 1 << 14, 6, 4)?)
        })
        .expect("sharded timed detector")
    }

    /// The acceptance bar for time windows: the parallel pipeline blocks
    /// exactly the duplicates a sequential `observe_at` run of the same
    /// `ShardedDetector` finds, for 1 and 4 shards.
    #[test]
    fn timed_sharded_pipeline_matches_sequential_observe_at() {
        let cs = clicks(30_000);
        for shards in [1usize, 4] {
            let mut reference = sharded_time_tbf(shards);
            let dup_count = cs
                .iter()
                .filter(|c| reference.observe_at(&c.key(), c.tick) == Verdict::Duplicate)
                .count() as u64;

            let outcome = run_sharded_pipeline(
                sharded_time_tbf(shards),
                registry(),
                cs.iter().copied(),
                PipelineConfig::default(),
                None,
            );
            assert_eq!(outcome.report.clicks, cs.len() as u64, "shards={shards}");
            assert_eq!(
                outcome.report.duplicates_blocked, dup_count,
                "shards={shards}"
            );
            assert_eq!(
                outcome.report.charged,
                cs.len() as u64 - dup_count,
                "shards={shards}"
            );
        }
    }

    /// The instrumented entry point reports per-shard health over time
    /// windows too, and keeps the occupancy-scan budget: health sampling
    /// is the only scan.
    #[test]
    fn timed_instrumented_run_reports_health() {
        let cs = clicks(10_000);
        let shards = 4;
        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, shards));
        let outcome = run_sharded_pipeline_instrumented(
            sharded_time_tbf(shards),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
            Arc::clone(&telemetry),
        );
        assert_eq!(outcome.health.len(), shards, "one sample per shard");
        let total: u64 = outcome.health.iter().map(|h| h.observed_elements).sum();
        assert_eq!(total, 10_000, "shard healths partition the stream");

        // Single-shard boxed form (the CLI's usage).
        use cfd_windows::ObservableDetector;
        let d: Box<dyn ObservableDetector + Send> = Box::new(
            TimeTbf::new(TimeTbfConfig::new(64, 16, 1 << 14, 6, 4).expect("cfg"))
                .expect("detector"),
        );
        let metrics = Arc::new(cfd_telemetry::Registry::new());
        let telemetry = Arc::new(PipelineTelemetry::new(&metrics, 1));
        let outcome = run_sharded_pipeline_instrumented(
            one_shard(d),
            registry(),
            cs.iter().copied(),
            PipelineConfig {
                batch: 64,
                queue: 1,
            },
            None,
            Arc::clone(&telemetry),
        );
        assert_eq!(outcome.report.clicks, 10_000);
        assert_eq!(outcome.health.len(), 1);
        assert_eq!(outcome.health[0].observed_elements, 10_000);
    }

    /// Billing's scorer over a 4-worker run equals the scorer of a
    /// sequential run over the same stream.
    #[test]
    fn sharded_scorer_matches_sequential() {
        let cs = clicks(20_000);
        let wide = run_sharded_pipeline(
            sharded_tbf(2_048, 4),
            registry(),
            cs.iter().copied(),
            PipelineConfig::default(),
            None,
        );
        let mut scorer = FraudScorer::new();
        let mut detector = sharded_tbf(2_048, 4);
        for c in &cs {
            let v = detector.observe(&c.key());
            scorer.record(c, v);
        }
        let sorted = |s: &FraudScorer| {
            let mut t: Vec<_> = s.tallies().collect();
            t.sort_unstable();
            t
        };
        assert_eq!(sorted(&wide.scorer), sorted(&scorer));
    }
}
