//! Multi-client soak for `cfd serve`: zero steady-state allocations,
//! barrier checkpoints included, and telemetry-visible backpressure
//! instead of drops.
//!
//! Three clients stream framed clicks into one gateway over a Unix
//! socket. A counting [`GlobalAlloc`] wrapper tallies every allocation
//! in the process; after a warm-up span is fully billed the counter is
//! snapshotted, a measured span streams through all three connections,
//! and the delta is asserted to be **exactly zero** allocations — the
//! socket readers, frame decoder, hub, buffer pool, ring pipeline,
//! barrier snapshots and checkpoint writer (CFDG encode, tmp file,
//! `fsync`, rename) all reuse memory acquired during warm-up.
//!
//! The hub is deliberately sized at one batch so the producers outrun
//! the pipeline: the soak asserts `serve.hub.full_waits > 0` (readers
//! blocked, sockets pushed back) while **every** click still arrives —
//! backpressure, never loss.

use cfd_adnet::{
    serve, Advertiser, AdvertiserId, Campaign, DrainControl, Endpoint, PipelineConfig,
    PipelineProgress, Registry, ServeConfig, ServeInstruments, ServeTelemetry, ServerState,
};
use cfd_core::sharded::{per_shard_window, ShardedDetector};
use cfd_core::{Tbf, TbfConfig};
use cfd_stream::wire;
use cfd_stream::{AdId, BotnetConfig, BotnetStream, Click, ClickId, PublisherId};
use cfd_telemetry::Registry as MetricsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

/// Counts allocation events; delegates to the system allocator.
///
/// While `TRACE_SIZES` is set (the measured span), the first few
/// allocation sizes are also recorded so a nonzero delta names its
/// culprits in the failure message instead of just counting them.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static TRACE_SIZES: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
static TRACED: [AtomicU64; 8] = [const { AtomicU64::new(0) }; 8];
static TRACED_AT: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if TRACE_SIZES.load(Ordering::Relaxed) {
        let at = TRACED_AT.fetch_add(1, Ordering::Relaxed) as usize;
        if let Some(slot) = TRACED.get(at) {
            slot.store(size as u64, Ordering::Relaxed);
        }
    }
}

fn traced_sizes() -> Vec<u64> {
    let n = (TRACED_AT.load(Ordering::Relaxed) as usize).min(TRACED.len());
    TRACED[..n]
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect()
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const CLIENTS: usize = 3;
const WARMUP_PER_CLIENT: usize = 2_000;
const MEASURED_PER_CLIENT: usize = 2_000;
const PER_CLIENT: usize = WARMUP_PER_CLIENT + MEASURED_PER_CLIENT;
const FRAME_CLICKS: usize = 64;
const SHARDS: usize = 4;
const PUBLISHERS: usize = 8;
const ADS: usize = 64;
/// Clicks between barrier checkpoints: four barriers land in the
/// warm-up span (the first after the key sweep, so the first CFDG
/// encode already sees every table at full size) and four in the
/// measured span.
const CHECKPOINT_EVERY: u64 = 1_500;

/// One click for every (publisher, ad) pair, prepended to the warm-up
/// span so every publisher-keyed billing/scorer map reaches its final
/// bucket count before the allocation counters are snapshotted.
///
/// Relying on the random stream for coverage is a latent flake: a
/// publisher or ad whose first click lands in the *measured* span
/// would grow a ledger/scorer hash table mid-soak. (The intermittent
/// 224-byte allocation this soak used to catch turned out to be the
/// ring pipeline's lazily-populated batch pools, fixed at the source
/// by pre-populating them — but deterministic key coverage keeps the
/// map-growth hazard closed regardless of stream seed.)
fn coverage_sweep() -> Vec<Click> {
    (0..PUBLISHERS)
        .flat_map(|p| {
            (0..ADS).map(move |ad| {
                let id = ClickId::new(0xC0A8_0000 + (p * ADS + ad) as u32, 0, AdId(ad as u32));
                Click::new(id, 0, PublisherId(p as u32), 100)
            })
        })
        .collect()
}

fn registry() -> Registry {
    let mut r = Registry::new();
    r.add_advertiser(Advertiser::new(AdvertiserId(1), "acme", u64::MAX / 4));
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

fn sharded_tbf() -> ShardedDetector<Tbf> {
    ShardedDetector::from_fn(7, SHARDS, |_| {
        let n_s = per_shard_window(2_048, SHARDS);
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

/// All frames for `clicks` concatenated into one writable buffer.
fn encode_span(clicks: &[Click]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(clicks.len() * wire::CLICK_RECORD_BYTES + 1024);
    for chunk in clicks.chunks(FRAME_CLICKS) {
        wire::encode_clicks(&mut buf, chunk);
    }
    buf
}

/// Spin until `progress.billed()` reaches `target`; neither `billed()`
/// nor `yield_now` allocates.
fn wait_billed(progress: &PipelineProgress, target: u64) {
    while progress.billed() < target {
        thread::yield_now();
    }
}

#[test]
fn multi_client_soak_is_zero_alloc_with_backpressure() {
    let sweep = coverage_sweep();
    let total = (CLIENTS * PER_CLIENT + sweep.len()) as u64;
    let warm_total = (CLIENTS * WARMUP_PER_CLIENT + sweep.len()) as u64;

    // Bounded key space (8 publishers × 64 ads), and client 0's warm-up
    // opens with the deterministic sweep over all of it, so every ledger
    // and scorer map reaches its working size during warm-up.
    let clicks: Vec<Click> = BotnetStream::new(BotnetConfig::default(), 8, 64)
        .take(CLIENTS * PER_CLIENT)
        .map(|c| c.click)
        .collect();

    // Pre-encode every frame each client will write, so the measured
    // phase on the client side is nothing but `write_all` of a slice.
    let warm_bufs: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|i| {
            let span = &clicks[i * PER_CLIENT..i * PER_CLIENT + WARMUP_PER_CLIENT];
            if i == 0 {
                let mut with_sweep = sweep.clone();
                with_sweep.extend_from_slice(span);
                encode_span(&with_sweep)
            } else {
                encode_span(span)
            }
        })
        .collect();
    let meas_bufs: Vec<Vec<u8>> = (0..CLIENTS)
        .map(|i| encode_span(&clicks[i * PER_CLIENT + WARMUP_PER_CLIENT..(i + 1) * PER_CLIENT]))
        .collect();
    let mut drain_buf = Vec::new();
    wire::encode_drain(&mut drain_buf);
    let hello_len = {
        let mut v = Vec::new();
        wire::encode_hello(&mut v, 0);
        v.len()
    };

    let sock = std::env::temp_dir().join(format!("cfd-serve-soak-{}.sock", std::process::id()));
    let checkpoint =
        std::env::temp_dir().join(format!("cfd-serve-soak-{}.cfdg", std::process::id()));
    let endpoint = Endpoint::Unix(sock.clone());
    let control = DrainControl::new();
    let metrics = Arc::new(MetricsRegistry::new());
    let progress = Arc::new(PipelineProgress::new());
    let instruments = ServeInstruments {
        serve: Some(Arc::new(ServeTelemetry::new(&metrics))),
        pipeline: None,
        progress: Some(Arc::clone(&progress)),
    };
    let config = ServeConfig {
        pipeline: PipelineConfig { batch: 1, queue: 8 },
        checkpoint_path: Some(checkpoint.clone()),
        checkpoint_every: CHECKPOINT_EVERY,
        // One-batch hub: three eager producers against a per-click
        // consumer guarantees blocked sends — visible backpressure.
        hub_batches: 1,
        // Pin the buffer population at startup: hub depth + one batch
        // in flight per connection + one being drained, with room for
        // the largest frame — the steady state never creates a buffer.
        pool_buffers: CLIENTS + 4,
        pool_clicks: FRAME_CLICKS,
    };

    let barrier = Barrier::new(CLIENTS + 1);
    let (start_calls, end_calls) = (AtomicU64::new(0), AtomicU64::new(0));
    let (start_bytes, end_bytes) = (AtomicU64::new(0), AtomicU64::new(0));

    let outcome = thread::scope(|s| {
        let server = s.spawn(|| {
            serve(
                ServerState::new(sharded_tbf(), registry()),
                &endpoint,
                &config,
                &control,
                &instruments,
            )
            .expect("serve")
        });

        for i in 0..CLIENTS {
            let (warm, meas) = (&warm_bufs[i], &meas_bufs[i]);
            let (sock, barrier, drain) = (&sock, &barrier, &drain_buf);
            s.spawn(move || {
                let mut stream = loop {
                    match UnixStream::connect(sock) {
                        Ok(s) => break s,
                        Err(_) => thread::sleep(Duration::from_millis(5)),
                    }
                };
                let mut hello = vec![0u8; hello_len];
                stream.read_exact(&mut hello).expect("hello");
                stream.write_all(warm).expect("warm-up span");
                barrier.wait(); // warm-up written
                barrier.wait(); // counters snapshotted; go
                stream.write_all(meas).expect("measured span");
                barrier.wait(); // measured billed + snapshotted
                if i == 0 {
                    stream.write_all(drain).expect("drain frame");
                }
            });
        }

        barrier.wait(); // all warm-up frames written
        wait_billed(&progress, warm_total);
        start_calls.store(ALLOC_CALLS.load(Ordering::Relaxed), Ordering::Relaxed);
        start_bytes.store(ALLOC_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
        TRACE_SIZES.store(true, Ordering::Relaxed);
        barrier.wait(); // release the measured span
        wait_billed(&progress, total);
        TRACE_SIZES.store(false, Ordering::Relaxed);
        end_calls.store(ALLOC_CALLS.load(Ordering::Relaxed), Ordering::Relaxed);
        end_bytes.store(ALLOC_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
        barrier.wait(); // release the drain
        server.join().expect("server thread")
    });

    // No drops anywhere: every click of every client was accepted,
    // detected, and billed.
    assert_eq!(outcome.report.clicks, total);
    assert_eq!(outcome.state.position, total);
    let snap = metrics.snapshot();
    assert_eq!(snap.get_counter("serve.clicks_received"), Some(total));
    assert_eq!(snap.get_counter("serve.connections"), Some(CLIENTS as u64));

    // Backpressure was real and visible: readers blocked on the
    // one-batch hub instead of dropping.
    let full_waits = snap.get_counter("serve.hub.full_waits").expect("counter");
    assert!(
        full_waits > 0,
        "three eager producers against a one-batch hub must block at least once"
    );

    // Barrier checkpoints were written all along. One checkpoint is in
    // flight at a time, so the ingest passed the barrier at 12,000 only
    // once the one at 10,500 was durable: the writes at 7,500, 9,000 and
    // 10,500 began and ended inside the measured span. The drain adds
    // one more at the final position.
    let barriers = total / CHECKPOINT_EVERY;
    assert!(warm_total < 7_500 && total >= 12_000, "span bounds moved");
    assert_eq!(snap.get_counter("serve.checkpoints"), Some(barriers + 1));
    let restored = ServerState::<Tbf>::read_checkpoint(&checkpoint).expect("drain checkpoint");
    assert_eq!(restored.position, total);
    let _ = std::fs::remove_file(&checkpoint);

    let calls = end_calls.load(Ordering::Relaxed) - start_calls.load(Ordering::Relaxed);
    let bytes = end_bytes.load(Ordering::Relaxed) - start_bytes.load(Ordering::Relaxed);
    assert_eq!(
        calls,
        0,
        "steady state allocated {calls} times ({bytes} bytes, sizes {:?}) over {} clicks",
        traced_sizes(),
        total - warm_total
    );
}
