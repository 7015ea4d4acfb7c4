//! Property and stress tests of the SPSC ring: whatever mix of single
//! pushes, burst pushes, single pops, and burst pops the two ends use,
//! every item comes out exactly once, in FIFO order, with nothing lost
//! at disconnect — and a consumer parked on a doorbell is woken by every
//! publication and by its producer's drop (no lost wake-up).

use cfd_adnet::ring::{spsc, spsc_with, Consumer, Doorbell, Producer, TryPopError, TryPushError};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

proptest! {
    /// Single-threaded FIFO: an arbitrary interleaving of bounded
    /// pushes and pops never loses, duplicates, or reorders an item.
    #[test]
    fn interleaved_ops_preserve_fifo(
        capacity in 1usize..12,
        ops in prop::collection::vec((any::<bool>(), 1usize..7), 0..64),
    ) {
        let (mut tx, mut rx) = spsc::<u64>(capacity);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for (is_push, amount) in ops {
            if is_push {
                for _ in 0..amount {
                    match tx.try_push(next_in) {
                        Ok(()) => next_in += 1,
                        Err(TryPushError::Full(_)) => break,
                        Err(TryPushError::Disconnected(_)) => unreachable!("consumer alive"),
                    }
                }
            } else {
                for _ in 0..amount {
                    match rx.try_pop() {
                        Ok(v) => {
                            prop_assert_eq!(v, next_out, "FIFO order violated");
                            next_out += 1;
                        }
                        Err(TryPopError::Empty) => break,
                        Err(TryPopError::Disconnected) => unreachable!("producer alive"),
                    }
                }
            }
            prop_assert_eq!(tx.len() as u64, next_in - next_out);
        }
        // Drain: everything pushed must still be there, in order.
        while let Ok(v) = rx.try_pop() {
            prop_assert_eq!(v, next_out);
            next_out += 1;
        }
        prop_assert_eq!(next_out, next_in, "items lost in the ring");
    }

    /// Burst API FIFO: `push_all` / `pop_ready` move whole batches with
    /// one publication each, and the stream they carry is still exact.
    #[test]
    fn burst_ops_preserve_fifo(
        capacity in 1usize..12,
        bursts in prop::collection::vec(1usize..9, 0..32),
    ) {
        let (mut tx, mut rx) = spsc::<u64>(capacity);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        let mut inbox: Vec<u64> = Vec::new();
        let mut outbox: Vec<u64> = Vec::new();
        for burst in bursts {
            inbox.clear();
            for _ in 0..burst.min(tx.capacity()) {
                inbox.push(next_in);
                next_in += 1;
            }
            prop_assert!(tx.push_all(&mut inbox).is_ok(), "consumer alive");
            prop_assert!(inbox.is_empty(), "push_all drains its buffer");
            outbox.clear();
            rx.pop_ready(&mut outbox);
            for v in &outbox {
                prop_assert_eq!(*v, next_out);
                next_out += 1;
            }
        }
        outbox.clear();
        rx.pop_ready(&mut outbox);
        for v in &outbox {
            prop_assert_eq!(*v, next_out);
            next_out += 1;
        }
        prop_assert_eq!(next_out, next_in, "items lost in the ring");
    }

    /// Two real threads, randomized batch sizes on both ends, a ring
    /// deliberately smaller than the stream: the consumer receives
    /// exactly 0..n in order — no loss, no duplication, no reordering
    /// across the wrap boundary — and sees a clean end-of-stream.
    #[test]
    fn two_thread_stream_is_exact(
        capacity in 1usize..9,
        n in 0usize..3_000,
        push_chunk in 1usize..65,
        pop_burst in any::<bool>(),
    ) {
        let (mut tx, mut rx) = spsc::<u64>(capacity);
        let producer = thread::spawn(move || {
            let mut sent = 0u64;
            while (sent as usize) < n {
                let end = (sent as usize + push_chunk).min(n) as u64;
                let mut chunk: Vec<u64> = (sent..end).collect();
                if tx.push_all(&mut chunk).is_err() {
                    return sent;
                }
                sent = end;
            }
            sent
        });
        // The consumer runs on its own thread so a lost wake-up trips
        // the watchdog instead of hanging the test thread.
        let (done_tx, done_rx) = mpsc::channel();
        let consumer = thread::spawn(move || {
            let mut received = 0u64;
            let mut take = |v: u64| {
                if v != received {
                    return Err(format!("order violated: got {v}, expected {received}"));
                }
                received += 1;
                Ok(())
            };
            let mut scratch: Vec<u64> = Vec::new();
            let result = if pop_burst {
                loop {
                    scratch.clear();
                    if rx.pop_ready(&mut scratch) == 0 {
                        match rx.try_pop() {
                            Ok(v) => scratch.push(v),
                            Err(TryPopError::Empty) => {
                                thread::yield_now();
                                continue;
                            }
                            Err(TryPopError::Disconnected) => break Ok(()),
                        }
                    }
                    if let Err(e) = scratch.iter().try_for_each(|&v| take(v)) {
                        break Err(e);
                    }
                }
            } else {
                std::iter::from_fn(|| rx.pop()).try_for_each(take)
            };
            done_tx.send(result.map(|()| received)).ok();
        });
        let received = match done_rx.recv_timeout(WATCHDOG) {
            Ok(result) => result.unwrap_or_else(|e| panic!("{e}")),
            Err(e) => panic!("the consumer never saw the end of the stream: {e}"),
        };
        consumer.join().expect("consumer panicked");
        let sent = producer.join().expect("producer panicked");
        prop_assert_eq!(sent, n as u64, "producer saw a false disconnect");
        prop_assert_eq!(received, n as u64, "items lost or duplicated");
    }
}

/// A longer fixed-seed stress run than the proptest cases: a tiny ring
/// forces constant wraparound and full/empty collisions between two
/// free-running threads, and the stream must still be exact. The
/// consumer runs on its own thread behind the watchdog.
#[test]
fn two_thread_wraparound_stress() {
    const N: u64 = 200_000;
    let (mut tx, mut rx) = spsc::<u64>(4);
    let producer = thread::spawn(move || {
        for v in 0..N {
            tx.push(v).expect("consumer outlives the stream");
        }
        tx.stats().full_waits
    });
    let (done_tx, done_rx) = mpsc::channel();
    let consumer = thread::spawn(move || {
        let mut expected = 0u64;
        while let Some(v) = rx.pop() {
            assert_eq!(v, expected, "order violated at item {expected}");
            expected += 1;
        }
        done_tx.send(expected).ok();
    });
    let received = done_rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|e| panic!("the consumer never saw the end of the stream: {e}"));
    consumer.join().expect("consumer panicked");
    let full_waits = producer.join().expect("producer panicked");
    assert_eq!(received, N, "items lost or duplicated");
    // A 4-slot ring carrying 200k items cannot avoid backpressure.
    assert!(full_waits > 0, "stress run never exercised a full ring");
}

/// How long a test waits for a hand-off before calling it a lost
/// wake-up: far beyond any scheduling delay, so only a consumer that
/// stays parked with work published trips it.
const WATCHDOG: Duration = Duration::from_secs(20);

/// A random pause before a push — none, a spin, a yield, or a 10–200 µs
/// sleep — so pushes land while the consumer is spinning, yielding,
/// about to park, or parked.
fn pause(rng: &mut SmallRng) {
    match rng.gen_range(0u32..4) {
        0 => {}
        1 => {
            for _ in 0..rng.gen_range(1u32..4_000) {
                std::hint::spin_loop();
            }
        }
        2 => thread::yield_now(),
        _ => thread::sleep(Duration::from_micros(rng.gen_range(10u64..=200))),
    }
}

/// Pushes `0..n` with random pauses, waiting after each push until the
/// consumer acknowledges that item: a push whose wake-up is lost leaves
/// the consumer parked and trips the watchdog, instead of being rescued
/// by the next push or by the producer's drop.
fn push_acknowledged(tx: &mut Producer<u64>, acks: &mpsc::Receiver<u64>, n: u64, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..n {
        pause(&mut rng);
        tx.push(i).expect("consumer alive");
        let got = acks
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|e| panic!("item {i} never reached the consumer: {e}"));
        assert_eq!(got, i, "order violated");
    }
}

/// `Consumer::pop` on a worker's shape: one producer, one blocking
/// consumer, every push acknowledged.
#[test]
fn blocking_pop_wakes_for_every_push() {
    const N: u64 = 20_000;
    let (mut tx, mut rx) = spsc::<u64>(4);
    let (ack_tx, ack_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let consumer = thread::spawn(move || {
        while let Some(v) = rx.pop() {
            if ack_tx.send(v).is_err() {
                break;
            }
        }
        done_tx.send(rx.stats()).ok();
    });
    push_acknowledged(&mut tx, &ack_rx, N, 27);
    drop(tx);
    let stats = done_rx
        .recv_timeout(WATCHDOG)
        .expect("the producer's drop never ended the stream");
    consumer.join().expect("consumer panicked");
    assert!(stats.empty_waits > 0, "the consumer never had to wait");
}

/// Billing's shape: one thread drains 2–4 rings that share a doorbell,
/// waiting on it after every sweep that found them all empty, with one
/// producer thread per ring.
#[test]
fn shared_doorbell_wakes_for_every_ring() {
    const N: u64 = 3_000;
    for rings in 2..=4usize {
        let bell = Arc::new(Doorbell::new());
        let mut producers = Vec::new();
        let mut consumers: Vec<Consumer<u64>> = Vec::new();
        let mut ack_txs = Vec::new();
        for r in 0..rings {
            let (mut tx, rx) = spsc_with::<u64>(2, Arc::clone(&bell));
            let (ack_tx, ack_rx) = mpsc::channel();
            consumers.push(rx);
            ack_txs.push(ack_tx);
            let seed = (rings * 10 + r) as u64;
            producers.push(thread::spawn(move || {
                push_acknowledged(&mut tx, &ack_rx, N, seed);
            }));
        }
        let (done_tx, done_rx) = mpsc::channel();
        let consumer = thread::spawn(move || {
            let mut open = vec![true; consumers.len()];
            let mut live = consumers.len();
            let mut received = vec![0u64; consumers.len()];
            while live > 0 {
                let mut progressed = false;
                for (r, rx) in consumers.iter_mut().enumerate() {
                    while open[r] {
                        match rx.try_pop() {
                            Ok(v) => {
                                progressed = true;
                                received[r] += 1;
                                // A producer that already failed is gone.
                                ack_txs[r].send(v).ok();
                            }
                            Err(TryPopError::Empty) => break,
                            Err(TryPopError::Disconnected) => {
                                open[r] = false;
                                live -= 1;
                            }
                        }
                    }
                }
                if !progressed && live > 0 {
                    bell.wait_until(|| {
                        consumers
                            .iter()
                            .zip(&open)
                            .any(|(rx, &open)| open && rx.is_ready())
                    });
                }
            }
            done_tx.send(received).ok();
        });
        for p in producers {
            p.join().expect("producer saw a lost wake-up");
        }
        // Every producer has dropped: the last drops must wake the
        // consumer into seeing every ring disconnected.
        let received = done_rx
            .recv_timeout(WATCHDOG)
            .expect("the consumer never saw end of stream");
        consumer.join().expect("consumer panicked");
        assert_eq!(received, vec![N; rings], "{rings} rings");
    }
}

/// Spins for `n` pause hints.
fn spin(n: u32) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

/// Two threads bat one item back and forth over two rings, each pausing
/// a random 0..spread pause hints before it answers, so that many
/// publications land while the waiting side ends its spin/yield prefix
/// and announces itself parked: the race the two fences close. Where
/// that moment falls depends on the host and the build, so the rounds
/// sweep several spreads. A lost wake-up leaves both threads parked and
/// trips the watchdog.
#[test]
fn ping_pong_never_loses_a_wake_up() {
    const SPREADS: [u32; 5] = [8, 16, 32, 64, 128];
    const ROUNDS_PER_SPREAD: u64 = 80_000;
    let rounds = ROUNDS_PER_SPREAD * SPREADS.len() as u64;
    let spread_of = |round: u64| SPREADS[(round / ROUNDS_PER_SPREAD) as usize];
    let (mut ping_tx, mut ping_rx) = spsc::<u64>(1);
    let (mut pong_tx, mut pong_rx) = spsc::<u64>(1);
    let (echo_done_tx, echo_done_rx) = mpsc::channel();
    let echo = thread::spawn(move || {
        let mut rng = SmallRng::seed_from_u64(1);
        while let Some(v) = ping_rx.pop() {
            spin(rng.gen_range(0..spread_of(v)));
            if pong_tx.push(v).is_err() {
                break;
            }
        }
        echo_done_tx.send(()).ok();
    });
    let (done_tx, done_rx) = mpsc::channel();
    let pinger = thread::spawn(move || {
        let mut rng = SmallRng::seed_from_u64(2);
        for i in 0..rounds {
            spin(rng.gen_range(0..spread_of(i)));
            ping_tx.push(i).expect("echo thread alive");
            assert_eq!(pong_rx.pop(), Some(i), "order violated");
        }
        done_tx.send(pong_rx.stats()).ok();
    });
    let stats = done_rx
        .recv_timeout(WATCHDOG)
        .expect("a wake-up was lost: both threads parked");
    pinger.join().expect("pinging thread panicked");
    echo_done_rx
        .recv_timeout(WATCHDOG)
        .expect("the pinger's drop never ended the echo thread's stream");
    echo.join().expect("echo thread panicked");
    assert!(
        stats.empty_waits > 0,
        "the replies never had to be waited for"
    );
}

/// End of stream reaches a consumer that is already parked: the
/// producer's drop rings the doorbell.
#[test]
fn parked_pop_returns_none_promptly_after_producer_drops() {
    let (tx, mut rx) = spsc::<u64>(4);
    let (done_tx, done_rx) = mpsc::channel();
    let consumer = thread::spawn(move || {
        let got = rx.pop();
        done_tx.send((got, rx.stats())).ok();
    });
    // Long past the spin/yield prefix: the consumer is parked.
    thread::sleep(Duration::from_millis(20));
    let dropped = Instant::now();
    drop(tx);
    let (got, stats) = done_rx
        .recv_timeout(WATCHDOG)
        .expect("the producer's drop never woke the parked consumer");
    assert!(
        dropped.elapsed() < Duration::from_secs(1),
        "woke {:?} after the drop",
        dropped.elapsed()
    );
    consumer.join().expect("consumer panicked");
    assert_eq!(got, None);
    assert_eq!(stats.empty_waits, 1);
}
