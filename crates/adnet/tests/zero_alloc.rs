//! Zero-allocation regression test for the ring pipeline.
//!
//! A counting [`GlobalAlloc`] wrapper tallies every allocation in the
//! process. The test streams a warm-up span through the pipeline, waits
//! until it is fully billed (every pooled buffer back in its pool,
//! every map and heap grown to its working size), snapshots the
//! counter, streams a measured span, waits again, and snapshots once
//! more. The steady state must allocate **nothing**: the delta between
//! the two snapshots is asserted to be exactly zero allocations. It runs
//! once over count-window shards (`Tbf`) and once over time-window
//! shards (`TimeTbf`), which also covers the worker's recycled tick
//! buffer.
//!
//! The library crates all `#![forbid(unsafe_code)]`; the one `unsafe
//! impl` lives here, in a test binary, where `GlobalAlloc` requires it.

use cfd_adnet::{run_sharded_pipeline, PipelineConfig, PipelineProgress};
use cfd_adnet::{Advertiser, AdvertiserId, Campaign, Registry};
use cfd_core::sharded::{per_shard_window, ShardedDetector};
use cfd_core::{Tbf, TbfConfig, TimeTbf, TimeTbfConfig};
use cfd_stream::{AdId, BotnetConfig, BotnetStream, Click};
use cfd_windows::DuplicateDetector;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts allocation events and bytes; delegates to the system
/// allocator. Deallocations are not tracked — the assertion is about
/// *acquiring* memory in the steady state, and frees never acquire.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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

fn sharded_time_tbf(shards: usize) -> ShardedDetector<TimeTbf> {
    ShardedDetector::from_fn(7, shards, |_| {
        TimeTbf::new(TimeTbfConfig::new(64, 16, 1 << 13, 6, 4).expect("cfg"))
    })
    .expect("sharded detector")
}

/// Spin until `progress.billed()` reaches `target`, yielding so the
/// single-CPU CI container lets the pipeline threads run. Neither
/// `billed()` nor `yield_now` allocates.
fn wait_billed(progress: &PipelineProgress, target: u64) {
    while progress.billed() < target {
        std::thread::yield_now();
    }
}

#[test]
fn zero_alloc_steady_state() {
    const SHARDS: usize = 4;
    assert_steady_state_allocates_nothing(sharded_tbf(2_048, SHARDS));
    assert_steady_state_allocates_nothing(sharded_time_tbf(SHARDS));
}

fn assert_steady_state_allocates_nothing<D: DuplicateDetector + Send>(
    detector: ShardedDetector<D>,
) {
    const WARMUP: usize = 6_000;
    const MEASURED: usize = 6_000;

    // Bounded key space: 8 publishers × 64 ads keeps the billing
    // ledger and fraud scorer maps at a fixed size once warm.
    let clicks: Vec<Click> = BotnetStream::new(BotnetConfig::default(), 8, 64)
        .take(WARMUP + MEASURED + 1)
        .map(|c| c.click)
        .collect();

    let progress = Arc::new(PipelineProgress::new());
    let start_calls = Arc::new(AtomicU64::new(u64::MAX));
    let end_calls = Arc::new(AtomicU64::new(u64::MAX));
    let start_bytes = Arc::new(AtomicU64::new(u64::MAX));
    let end_bytes = Arc::new(AtomicU64::new(u64::MAX));

    // `batch: 1` makes ingest pull exactly one click per ring push, so
    // when the stream closure below is asked for click `i`, clicks
    // `0..i` have all been pushed — waiting for `billed() == i` then
    // quiesces the whole pipeline (all pooled buffers returned, all
    // workers parked on empty rings) before the counter is sampled.
    let stream = {
        let progress = Arc::clone(&progress);
        let (sc, ec) = (Arc::clone(&start_calls), Arc::clone(&end_calls));
        let (sb, eb) = (Arc::clone(&start_bytes), Arc::clone(&end_bytes));
        clicks.into_iter().enumerate().map(move |(i, c)| {
            if i == WARMUP {
                wait_billed(&progress, WARMUP as u64);
                sc.store(ALLOC_CALLS.load(Ordering::Relaxed), Ordering::Relaxed);
                sb.store(ALLOC_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
            } else if i == WARMUP + MEASURED {
                wait_billed(&progress, (WARMUP + MEASURED) as u64);
                ec.store(ALLOC_CALLS.load(Ordering::Relaxed), Ordering::Relaxed);
                eb.store(ALLOC_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            c
        })
    };

    let outcome = run_sharded_pipeline(
        detector,
        registry(),
        stream,
        PipelineConfig { batch: 1, queue: 8 },
        Some(Arc::clone(&progress)),
    );
    assert_eq!(outcome.report.clicks, (WARMUP + MEASURED + 1) as u64);

    let calls = end_calls.load(Ordering::Relaxed) - start_calls.load(Ordering::Relaxed);
    let bytes = end_bytes.load(Ordering::Relaxed) - start_bytes.load(Ordering::Relaxed);
    assert!(
        end_calls.load(Ordering::Relaxed) != u64::MAX,
        "measurement span never ran"
    );
    assert_eq!(
        calls, 0,
        "steady state allocated {calls} times ({bytes} bytes) over {MEASURED} clicks"
    );
}
