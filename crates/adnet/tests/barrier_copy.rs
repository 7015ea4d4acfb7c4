//! The billing stage's barrier copy allocates nothing once warm.
//!
//! At every barrier the billing thread copies its registry, ledger and
//! fraud scorer into the snapshot it hands to the checkpoint writer,
//! with `clone_from` into the buffers the previous snapshot left
//! behind. A counting [`GlobalAlloc`] wraps that copy: the first copy
//! into empty buffers allocates, every later one over a key space that
//! has stopped growing must allocate nothing.
//!
//! The library crates all `#![forbid(unsafe_code)]`; the one `unsafe
//! impl` lives here, in a test binary, where `GlobalAlloc` requires it.

use cfd_adnet::billing::Ledger;
use cfd_adnet::{Advertiser, AdvertiserId, BillingEngine, Campaign, FraudScorer, Registry};
use cfd_stream::{AdId, BotnetConfig, BotnetStream, Click};
use cfd_windows::{DuplicateDetector, ExactSlidingDedup};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts allocation events; delegates to the system allocator.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The billing state one barrier copies.
#[derive(Default)]
struct SnapshotCopy {
    registry: Registry,
    ledger: Ledger,
    scorer: FraudScorer,
}

impl SnapshotCopy {
    /// The copy `Billing::copy_into` makes; returns the allocations it
    /// took.
    fn copy_from(&mut self, registry: &Registry, ledger: &Ledger, scorer: &FraudScorer) -> u64 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        self.registry.clone_from(registry);
        self.ledger.clone_from(ledger);
        self.scorer.clone_from(scorer);
        ALLOC_CALLS.load(Ordering::Relaxed) - before
    }
}

#[test]
fn barrier_copies_after_the_first_allocate_nothing() {
    let mut registry = Registry::new();
    for a in 1..=3 {
        registry.add_advertiser(Advertiser::new(
            AdvertiserId(a),
            format!("adv-{a}"),
            1 << 40,
        ));
    }
    for ad in 0..64 {
        registry
            .add_campaign(Campaign {
                ad: AdId(ad),
                advertiser: AdvertiserId(1 + ad % 3),
                cpc_micros: 100,
            })
            .expect("advertiser registered");
    }
    // 8 publishers × 64 ads: the maps stop growing during the first
    // span, so later spans only change values.
    let clicks: Vec<Click> = BotnetStream::new(BotnetConfig::default(), 8, 64)
        .take(40_000)
        .map(|c| c.click)
        .collect();
    let mut detector = ExactSlidingDedup::new(4_096);
    let mut engine = BillingEngine::new(());
    let mut scorer = FraudScorer::new();
    let mut snapshot = SnapshotCopy::default();
    for (span, chunk) in clicks.chunks(10_000).enumerate() {
        for c in chunk {
            let v = detector.observe(&c.key());
            engine.process_judged(c, v, &mut registry);
            scorer.record(c, v);
        }
        let calls = snapshot.copy_from(&registry, engine.ledger(), &scorer);
        if span == 0 {
            assert!(calls > 0, "the first copy fills empty buffers");
        } else {
            assert_eq!(calls, 0, "barrier copy {span} allocated {calls} times");
        }
        // The copy is exact: every advertiser (name and spend), every
        // campaign, the ledger and the scorer's tallies.
        assert!(snapshot.registry.advertisers().eq(registry.advertisers()));
        assert!(snapshot.registry.campaigns().eq(registry.campaigns()));
        let ledger = engine.ledger();
        assert_eq!(
            (snapshot.ledger.clicks, snapshot.ledger.charged),
            (ledger.clicks, ledger.charged)
        );
        assert_eq!(
            snapshot.ledger.per_publisher_micros,
            ledger.per_publisher_micros
        );
        let tallies = |s: &FraudScorer| {
            let mut t: Vec<_> = s.tallies().collect();
            t.sort_unstable();
            t
        };
        assert_eq!(tallies(&snapshot.scorer), tallies(&scorer));
    }
}
