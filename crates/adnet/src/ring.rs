//! Bounded single-producer/single-consumer ring buffer and buffer pool —
//! the zero-allocation transport of the pipeline data plane.
//!
//! A `Mutex<VecDeque>` + `Condvar` channel (the crossbeam shim) takes a
//! lock on every send/receive, may allocate inside the deque, and parks
//! through the kernel under contention. This ring moves batches between
//! pipeline stages with two cache-padded atomic counters and a fixed
//! slot array instead:
//!
//! * **SPSC discipline.** Exactly one [`Producer`] and one [`Consumer`]
//!   exist per ring (enforced by ownership — the handles are not `Clone`).
//!   The producer is the only writer of `head`, the consumer the only
//!   writer of `tail`, so both advance with plain `store(Release)` —
//!   no CAS, no lock on the counter path.
//! * **Safe Rust.** The workspace forbids `unsafe`, so slots are
//!   `Mutex<Option<T>>` instead of `UnsafeCell<MaybeUninit<T>>`. The
//!   head/tail protocol guarantees a slot is never locked by both sides
//!   at once, so every lock acquisition is uncontended — a single atomic
//!   exchange, with none of the condvar parking of the channel shim.
//! * **Batch publication.** [`Producer::push_all`] writes every slot of a
//!   burst and publishes them with *one* `head` store;
//!   [`Consumer::pop_ready`] drains everything published with one `tail`
//!   store. Counter traffic is amortized over the burst.
//! * **Wake on arrival.** A consumer that finds its ring empty spins and
//!   yields briefly, then parks on the ring's [`Doorbell`]; every `head`
//!   publication and the producer's drop ring it, so a parked consumer
//!   wakes when work arrives rather than on a timer. Several rings can
//!   share one doorbell when one thread consumes them all
//!   ([`spsc_with`]). Producers blocked on a full ring keep the
//!   spin → yield → sleep `Backoff`: that wait binds only under
//!   saturation, where a consumer is busy freeing slots.
//! * **Explicit backpressure.** Blocked pushes (ring full) and blocked
//!   pops (ring empty) are counted in [`RingStats`], which the pipeline
//!   publishes as telemetry so saturation is observable, not guessed.
//!
//! Counters are monotonic and wrap naturally; capacity is rounded up to a
//! power of two so `counter & mask` indexes slots correctly across wraps.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};
use std::time::Duration;

/// Pads a counter to its own cache line (64 B, doubled to 128 B to stay
/// clear of adjacent-line prefetching) so producer and consumer counters
/// never false-share.
#[repr(align(128))]
#[derive(Default)]
struct CachePadded<T>(T);

/// Snapshot of a ring's backpressure counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Push attempts that found the ring full and had to wait.
    pub full_waits: u64,
    /// Pop attempts that found the ring empty and had to wait.
    pub empty_waits: u64,
}

/// Exponential spin → yield → sleep backoff for the producer-side
/// waits (ring full, the pipeline's in-flight window), which bind only
/// under saturation. On a single hardware thread pure spinning would
/// starve the peer, so the ladder reaches `yield_now` after a few
/// rounds and a short sleep after that. Consumer-side waits climb only
/// the spin and yield rungs ([`Backoff::is_completed`]) and then park on
/// a [`Doorbell`], so an idle stage wakes when work arrives, not when a
/// sleep ends.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    step: u32,
}

/// Rungs that spin (`2^step` pause hints each).
const SPIN_LIMIT: u32 = 4;
/// Rungs (spins included) before the ladder sleeps.
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn reset(&mut self) {
        self.step = 0;
    }

    /// Whether the spin and yield rungs are used up: the next
    /// [`Backoff::snooze`] would sleep, so a waiter that can be woken
    /// should park instead.
    pub(crate) fn is_completed(&self) -> bool {
        self.step >= YIELD_LIMIT
    }

    pub(crate) fn snooze(&mut self) {
        if self.step < SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < YIELD_LIMIT {
            thread::yield_now();
        } else {
            thread::sleep(Duration::from_micros(50));
        }
        self.step = (self.step + 1).min(16);
    }
}

/// Where a consumer thread parks while its ring (or rings) are empty,
/// and what producers ring after they publish.
///
/// The protocol is a Dekker-style handshake over two locations, the
/// ring's `head` and the `parked` flag:
///
/// * the waiter sets `parked`, issues a `SeqCst` fence, re-checks its
///   rings, and only then calls [`thread::park`];
/// * a producer stores `head` (or clears its alive flag), issues a
///   `SeqCst` fence, and reads `parked`.
///
/// The two fences are totally ordered, so either the waiter's re-check
/// sees the new `head` or the producer sees `parked` set — never
/// neither. A producer that sees it clears it and unparks the waiter;
/// an `unpark` that lands before the waiter reaches `park` leaves the
/// thread's token set, so that `park` returns at once. No wake-up is
/// lost, and no timeout backs the wait.
///
/// One thread waits on a doorbell at a time; any number of producers
/// ring it.
#[derive(Debug, Default)]
pub struct Doorbell {
    /// The thread that last waited here.
    waiter: Mutex<Option<Thread>>,
    /// Set by the waiter before its last re-check; cleared by the
    /// producer that wakes it, or by the waiter when the re-check
    /// finds work.
    parked: AtomicBool,
}

impl Doorbell {
    /// A doorbell no thread waits on yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Producer side, after a publication: wakes the waiter if it
    /// announced itself parked.
    fn ring(&self) {
        // Pairs with the waiter's fence in `wait_until`; the fences, not
        // the flag's own orderings, order `head` against `parked`.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::Relaxed) {
            // A poisoned lock still holds a whole `Option<Thread>`.
            if let Some(waiter) = &*self.waiter.lock().unwrap_or_else(PoisonError::into_inner) {
                waiter.unpark();
            }
        }
    }

    /// Consumer side: returns once `ready()` holds. Spins and yields
    /// briefly, then parks until a producer rings. `ready` must read
    /// only rings built on this doorbell, so that their producers ring
    /// it, and a `true` must stay true until the caller acts on it
    /// ([`Consumer::is_ready`] is such a test).
    pub fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        let mut backoff = Backoff::new();
        while !backoff.is_completed() {
            if ready() {
                return;
            }
            backoff.snooze();
        }
        self.register();
        loop {
            self.parked.store(true, Ordering::Relaxed);
            // Pairs with the producer's fence in `ring`.
            fence(Ordering::SeqCst);
            if ready() {
                self.parked.store(false, Ordering::Relaxed);
                return;
            }
            thread::park();
        }
    }

    /// Records the calling thread as the one to unpark.
    fn register(&self) {
        let me = thread::current();
        let mut waiter = self.waiter.lock().unwrap_or_else(PoisonError::into_inner);
        if waiter.as_ref().map(Thread::id) != Some(me.id()) {
            *waiter = Some(me);
        }
    }
}

struct Shared<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Items ever pushed (monotonic, wrapping). Producer-written.
    head: CachePadded<AtomicUsize>,
    /// Items ever popped (monotonic, wrapping). Consumer-written.
    tail: CachePadded<AtomicUsize>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
    full_waits: AtomicU64,
    empty_waits: AtomicU64,
    /// Rung after every publication and when the producer goes.
    bell: Arc<Doorbell>,
}

impl<T> Shared<T> {
    fn stats(&self) -> RingStats {
        RingStats {
            full_waits: self.full_waits.load(Ordering::Relaxed),
            empty_waits: self.empty_waits.load(Ordering::Relaxed),
        }
    }
}

/// Error of [`Producer::try_push`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The ring is full; the item is handed back.
    Full(T),
    /// The consumer is gone; the item is handed back and no push can
    /// ever succeed again.
    Disconnected(T),
}

/// Error of the blocking batch send ([`Producer::push_all`]): the
/// consumer is gone, so no push can ever succeed again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ring consumer disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Error of [`Consumer::try_pop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryPopError {
    /// Nothing published right now; the producer is still alive.
    Empty,
    /// The producer is gone and the ring is drained: end of stream.
    Disconnected,
}

/// The sending half of a ring; exactly one exists per ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    mask: usize,
    cap: usize,
    /// Consumer position as of the last refresh — lets the fast path
    /// push without touching the consumer's cache line at all.
    cached_tail: usize,
}

/// The receiving half of a ring; exactly one exists per ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    mask: usize,
    /// Producer position as of the last refresh — lets the fast path
    /// pop without touching the producer's cache line at all.
    cached_head: usize,
}

/// Creates a bounded SPSC ring holding at least `capacity` items
/// (rounded up to the next power of two, minimum 1), with a doorbell of
/// its own.
pub fn spsc<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    spsc_with(capacity, Arc::new(Doorbell::new()))
}

/// [`spsc`] on a shared doorbell: one thread consuming several rings
/// built on the same `bell` waits for all of them with one
/// [`Doorbell::wait_until`].
pub fn spsc_with<T>(capacity: usize, bell: Arc<Doorbell>) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let slots: Box<[Mutex<Option<T>>]> = (0..cap).map(|_| Mutex::new(None)).collect();
    let shared = Arc::new(Shared {
        slots,
        head: CachePadded::default(),
        tail: CachePadded::default(),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
        full_waits: AtomicU64::new(0),
        empty_waits: AtomicU64::new(0),
        bell,
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            mask: cap - 1,
            cap,
            cached_tail: 0,
        },
        Consumer {
            shared,
            mask: cap - 1,
            cached_head: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Slot count of the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items currently in flight (racy snapshot).
    #[must_use]
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.head
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(s.tail.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty (racy snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Backpressure counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        self.shared.stats()
    }

    /// Writes one slot at `head` without publishing it.
    #[inline]
    fn stage(&self, head: usize, item: T) {
        // Uncontended by protocol: the consumer never locks a slot in
        // [tail, head) boundary position `head` until it is published.
        *self.shared.slots[head & self.mask]
            .lock()
            .expect("ring slot lock poisoned") = Some(item);
    }

    /// Attempts to push without blocking.
    ///
    /// # Errors
    /// [`TryPushError::Full`] when no slot is free,
    /// [`TryPushError::Disconnected`] when the consumer is gone.
    pub fn try_push(&mut self, item: T) -> Result<(), TryPushError<T>> {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed);
        if head.wrapping_sub(self.cached_tail) == self.cap {
            self.cached_tail = s.tail.0.load(Ordering::Acquire);
            if head.wrapping_sub(self.cached_tail) == self.cap {
                return if s.consumer_alive.load(Ordering::Relaxed) {
                    Err(TryPushError::Full(item))
                } else {
                    Err(TryPushError::Disconnected(item))
                };
            }
        }
        self.stage(head, item);
        s.head.0.store(head.wrapping_add(1), Ordering::Release);
        s.bell.ring();
        Ok(())
    }

    /// Pushes, blocking (spin → yield → sleep) while the ring is full.
    ///
    /// # Errors
    /// Returns the item when the consumer disconnected.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        let mut item = match self.try_push(item) {
            Ok(()) => return Ok(()),
            Err(TryPushError::Disconnected(item)) => return Err(item),
            Err(TryPushError::Full(item)) => item,
        };
        self.shared.full_waits.fetch_add(1, Ordering::Relaxed);
        let mut backoff = Backoff::new();
        loop {
            backoff.snooze();
            item = match self.try_push(item) {
                Ok(()) => return Ok(()),
                Err(TryPushError::Disconnected(item)) => return Err(item),
                Err(TryPushError::Full(item)) => item,
            };
        }
    }

    /// Drains `buf` into the ring in bursts, publishing each burst with
    /// a single `head` store; blocks while full. `buf` is left empty on
    /// success.
    ///
    /// # Errors
    /// Stops and returns `Err` when the consumer disconnected (items not
    /// yet staged are dropped with the drain, as on any disconnect).
    pub fn push_all(&mut self, buf: &mut Vec<T>) -> Result<(), Disconnected> {
        let s = &*self.shared;
        let mut backoff = Backoff::new();
        let mut iter = buf.drain(..);
        let mut remaining = iter.len();
        let mut head = s.head.0.load(Ordering::Relaxed);
        while remaining > 0 {
            let mut free = self.cap - head.wrapping_sub(self.cached_tail);
            if free == 0 {
                self.cached_tail = s.tail.0.load(Ordering::Acquire);
                free = self.cap - head.wrapping_sub(self.cached_tail);
                if free == 0 {
                    if !s.consumer_alive.load(Ordering::Relaxed) {
                        return Err(Disconnected);
                    }
                    s.full_waits.fetch_add(1, Ordering::Relaxed);
                    backoff.snooze();
                    continue;
                }
            }
            let burst = free.min(remaining);
            for _ in 0..burst {
                let item = iter.next().expect("length checked");
                self.stage(head, item);
                head = head.wrapping_add(1);
            }
            s.head.0.store(head, Ordering::Release);
            s.bell.ring();
            remaining -= burst;
            backoff.reset();
        }
        Ok(())
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.producer_alive.store(false, Ordering::Release);
        // End of stream (or a dying producer) wakes a parked consumer.
        self.shared.bell.ring();
    }
}

impl<T> Consumer<T> {
    /// Items currently in flight (racy snapshot).
    #[must_use]
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.head
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(s.tail.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty (racy snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Backpressure counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        self.shared.stats()
    }

    /// Takes the published item at `tail`.
    #[inline]
    fn unstage(&self, tail: usize) -> T {
        self.shared.slots[tail & self.mask]
            .lock()
            .expect("ring slot lock poisoned")
            .take()
            .expect("published ring slot was empty")
    }

    /// Attempts to pop without blocking.
    ///
    /// # Errors
    /// [`TryPopError::Empty`] when nothing is published,
    /// [`TryPopError::Disconnected`] when the producer is gone and the
    /// ring is drained.
    pub fn try_pop(&mut self) -> Result<T, TryPopError> {
        let s = &*self.shared;
        let tail = s.tail.0.load(Ordering::Relaxed);
        if self.cached_head == tail {
            self.cached_head = s.head.0.load(Ordering::Acquire);
            if self.cached_head == tail {
                if s.producer_alive.load(Ordering::Acquire) {
                    return Err(TryPopError::Empty);
                }
                // The producer's final pushes happen-before the alive
                // flag clears: one more head read decides drained-vs-end.
                self.cached_head = s.head.0.load(Ordering::Acquire);
                if self.cached_head == tail {
                    return Err(TryPopError::Disconnected);
                }
            }
        }
        let item = self.unstage(tail);
        s.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(item)
    }

    /// Whether a pop would return at once: an item is published, or the
    /// producer is gone (a pop then drains or reports end of stream).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        let s = &*self.shared;
        s.head.0.load(Ordering::Acquire) != s.tail.0.load(Ordering::Relaxed)
            || !s.producer_alive.load(Ordering::Acquire)
    }

    /// Pops, blocking while the ring is empty: a short spin/yield, then
    /// parked on the ring's [`Doorbell`] until the producer publishes or
    /// goes. Returns `None` when the producer is gone and everything was
    /// drained — the end-of-stream signal.
    pub fn pop(&mut self) -> Option<T> {
        loop {
            match self.try_pop() {
                Ok(item) => return Some(item),
                Err(TryPopError::Disconnected) => return None,
                Err(TryPopError::Empty) => {}
            }
            self.shared.empty_waits.fetch_add(1, Ordering::Relaxed);
            self.shared.bell.wait_until(|| self.is_ready());
        }
    }

    /// Drains everything currently published into `out` (appended),
    /// confirming the whole burst with a single `tail` store. Returns
    /// the number of items taken; `0` means nothing was published.
    pub fn pop_ready(&mut self, out: &mut Vec<T>) -> usize {
        let s = &*self.shared;
        let tail = s.tail.0.load(Ordering::Relaxed);
        self.cached_head = s.head.0.load(Ordering::Acquire);
        let avail = self.cached_head.wrapping_sub(tail);
        for i in 0..avail {
            out.push(self.unstage(tail.wrapping_add(i)));
        }
        if avail > 0 {
            s.tail.0.store(tail.wrapping_add(avail), Ordering::Release);
        }
        avail
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
    }
}

/// A recycling pool of `Default`-constructible buffers.
///
/// Pipeline stages `get` a buffer, fill it, ship it through a ring, and
/// the receiving stage `put`s it back once drained. After warm-up every
/// `get` is a hit and the hot loop performs no heap allocation; misses
/// (pool empty → `T::default()` allocation at first use) are counted so
/// the zero-allocation claim is observable.
#[derive(Debug, Default)]
pub struct Pool<T> {
    stack: Mutex<Vec<T>>,
    misses: AtomicU64,
}

impl<T: Default> Pool<T> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A recycled buffer, or `T::default()` (counted as a miss) when the
    /// pool is empty.
    pub fn get(&self) -> T {
        if let Some(item) = self.stack.lock().expect("pool lock poisoned").pop() {
            return item;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        T::default()
    }

    /// Returns a buffer to the pool. The caller clears it first — the
    /// pool stores it as-is.
    pub fn put(&self, item: T) {
        self.stack.lock().expect("pool lock poisoned").push(item);
    }

    /// `get` calls that found the pool empty.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.try_push(i).expect("fits");
        }
        assert!(matches!(tx.try_push(99), Err(TryPushError::Full(99))));
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Ok(i));
        }
        assert_eq!(rx.try_pop(), Err(TryPopError::Empty));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = spsc::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = spsc::<u8>(0);
        assert_eq!(tx.capacity(), 1);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = spsc::<usize>(2);
        for i in 0..1000 {
            tx.push(i).expect("consumer alive");
            if i % 2 == 1 {
                assert_eq!(rx.try_pop(), Ok(i - 1));
                assert_eq!(rx.try_pop(), Ok(i));
            }
        }
    }

    #[test]
    fn producer_drop_signals_end_of_stream_after_drain() {
        let (mut tx, mut rx) = spsc::<u8>(4);
        tx.try_push(1).expect("fits");
        tx.try_push(2).expect("fits");
        drop(tx);
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None);
        assert_eq!(rx.try_pop(), Err(TryPopError::Disconnected));
    }

    #[test]
    fn consumer_drop_fails_pushes() {
        let (mut tx, rx) = spsc::<u8>(1);
        tx.try_push(1).expect("fits");
        drop(rx);
        // Ring is full and the consumer will never free a slot.
        assert!(matches!(tx.try_push(2), Err(TryPushError::Disconnected(2))));
        assert_eq!(tx.push(3), Err(3));
    }

    #[test]
    fn push_all_and_pop_ready_move_bursts() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        let mut burst: Vec<u32> = (0..6).collect();
        tx.push_all(&mut burst).expect("consumer alive");
        assert!(burst.is_empty());
        let mut out = Vec::new();
        assert_eq!(rx.pop_ready(&mut out), 6);
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert_eq!(rx.pop_ready(&mut out), 0);
    }

    #[test]
    fn push_all_larger_than_capacity_blocks_through() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let producer = std::thread::spawn(move || {
            let mut burst: Vec<u32> = (0..64).collect();
            tx.push_all(&mut burst).expect("consumer alive");
            tx.stats()
        });
        let mut got = Vec::new();
        while got.len() < 64 {
            if rx.pop_ready(&mut got) == 0 {
                std::thread::yield_now();
            }
        }
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        let stats = producer.join().expect("producer");
        assert!(stats.full_waits > 0, "a 2-slot ring must have blocked");
    }

    #[test]
    fn blocked_pop_counts_empty_waits() {
        let (mut tx, mut rx) = spsc::<u8>(2);
        let consumer = std::thread::spawn(move || {
            let got = rx.pop();
            (got, rx.stats())
        });
        std::thread::sleep(Duration::from_millis(10));
        tx.push(7).expect("consumer alive");
        let (got, stats) = consumer.join().expect("consumer");
        assert_eq!(got, Some(7));
        assert!(stats.empty_waits > 0);
    }

    #[test]
    fn pool_recycles_and_counts_misses() {
        let pool: Pool<Vec<u8>> = Pool::new();
        let mut a = pool.get();
        assert_eq!(pool.misses(), 1);
        a.extend_from_slice(b"abc");
        a.clear();
        let cap = a.capacity();
        pool.put(a);
        let b = pool.get();
        assert_eq!(pool.misses(), 1, "recycled, not defaulted");
        assert_eq!(b.capacity(), cap, "same buffer came back");
    }
}
