//! `cfd serve`: long-running network ingest with reconnect,
//! backpressure, and checkpointed restart.
//!
//! This module turns the batch pipeline of [`crate::pipeline`] into a
//! *gateway process*: clicks arrive over a socket (or are tailed from a
//! growing frame file) speaking the [`cfd_stream::wire`] format and flow
//! through a bounded hub into one pipeline run that lives as long as the
//! server. Every `checkpoint_every` clicks the hub source answers a
//! barrier, and the complete billing state as of that position is
//! persisted by a writer thread while clicks keep moving, so a killed
//! server restarts without false negatives.
//!
//! ```text
//! client ──frames──► reader ─┐
//! client ──frames──► reader ─┼─► Hub ─► HubSource ──► ingest ─► shard workers ─► billing
//!       (TCP/Unix)           │  (bounded)  │ barrier    │ marker   │ table copy    │ registry,
//! file  ──frames──► tailer ──┘             │ every K    └──────────┴──────────────►│ ledger copy
//!                                          │                                     ▼
//!                                          └───────── snapshot buffers ◄── writer thread
//!                                                                       (CFDG, CRC, write,
//!                                                                        fsync, rename)
//! ```
//!
//! **Checkpoints** are aligned barrier snapshots (see
//! [`crate::pipeline`]): the click path pays one copy of each shard's
//! tables, and encoding, CRC, write and `fsync` happen on the writer
//! thread. One checkpoint is in flight at a time: a barrier that finds
//! the previous one unfinished waits for it, so positions stay exact
//! multiples of `checkpoint_every` from the server's start. The drain
//! checkpoint is written only if no barrier already covered the final
//! position, and [`serve`] returns only once it is durable. The `CFDG`
//! file is written and read with [`Writer`] and [`Reader`], the codec
//! of the `CFDS` detector blob it nests; the writer thread keeps its
//! sort scratch and `.tmp` path across barriers, so a barrier
//! checkpoint allocates nothing once the tables stop growing.
//!
//! **Durability.** A checkpoint is written to `PATH.tmp`, `fsync`ed,
//! renamed over `PATH`, and the directory is `fsync`ed. A `kill -9`
//! leaves either the previous or the new complete file, never a torn
//! one; after an OS crash or power loss the file named `PATH` is the
//! last checkpoint whose directory `fsync` completed. Clicks after that
//! position are replayed by the client from the restarted server's
//! `HELLO` position.
//!
//! **Backpressure** is propagated end to end without drops: the hub is
//! a bounded queue, so when detection falls behind, readers block in
//! the hub send and *stop reading their sockets*; the kernel
//! buffers fill and TCP flow control pushes back on the client. Every
//! blocked send increments a counter surfaced as
//! `serve.hub.full_waits`, so an operator sees backpressure instead of
//! silent loss.
//!
//! **Resume** is position-based: the server greets every connection
//! with a `HELLO` frame announcing how many clicks it has accepted so
//! far (its *position*); a [`replay_client`] skips that prefix of its
//! trace. After a crash the restarted server's position comes from the
//! last checkpoint, so the client replays exactly the clicks the
//! checkpoint had not captured. This assumes **one logical stream
//! writer**: concurrent clients may interleave freely (the soak test
//! exercises that), but position-based resume is only meaningful for a
//! single trace replayed by a single client at a time, and a reconnect
//! racing the previous connection's final in-flight batch can replay a
//! batch twice (see `docs/OPERATIONS.md`).
//!
//! **Drain** is cooperative: a client `DRAIN` frame or a local
//! [`DrainControl::request_drain`] (the CLI wires `SIGTERM` to this)
//! stops the acceptor and readers; once every producer detaches, the
//! hub closes, the pipeline finishes its in-flight clicks, the drain
//! checkpoint is made durable, and [`serve`] returns the final
//! [`NetworkReport`]. However [`serve`] ends — drained, failed, or
//! unwinding from a panic — it requests a drain and empties the hub on
//! the way out, so its threads stop and the outcome reaches the caller
//! at once.

use crate::billing::Ledger;
use crate::entities::{Advertiser, AdvertiserId, Campaign, Registry};
use crate::fraud::FraudScorer;
use crate::pipeline::{
    run_barriered, Barriers, ClickSource, Handoff, PipelineConfig, PipelineProgress, Pull,
    SegmentState, Snapshot,
};
use crate::report::NetworkReport;
use crate::ring::{Pool, TryPopError};
use crate::telemetry::PipelineTelemetry;
use cfd_core::checkpoint::{sharded_checkpoint_into, Reader, Writer};
use cfd_core::{CheckpointError, CheckpointState, ShardedDetector};
use cfd_stream::wire::{self, FrameReader, WireError};
use cfd_stream::{AdId, Click};
use cfd_telemetry::{Counter, DetectorHealth, DetectorStats, Gauge, Registry as MetricsRegistry};
use cfd_windows::DuplicateDetector;
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Magic bytes opening a `CFDG` gateway checkpoint.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"CFDG";

/// `CFDG` format version this build writes and accepts.
pub const CHECKPOINT_VERSION: u16 = 1;

/// How long readers and the acceptor sleep between poll rounds while
/// idle; bounds drain-request latency.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Socket read timeout: how often a blocked reader re-checks the drain
/// flag.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// Bytes read from a socket per syscall.
const READ_CHUNK: usize = 16 * 1024;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong serving or replaying a stream.
#[derive(Debug)]
pub enum ServeError {
    /// An OS-level I/O failure (bind, accept, read, write, file ops).
    Io(io::Error),
    /// A malformed frame on the wire.
    Wire(WireError),
    /// A malformed detector blob inside a checkpoint.
    Checkpoint(CheckpointError),
    /// A structurally invalid `CFDG` checkpoint.
    BadCheckpoint(&'static str),
    /// An endpoint string without a `unix:`/`tcp:`/`tail:` scheme.
    BadEndpoint(String),
    /// The client exhausted its connection attempts.
    Connect {
        /// Attempts made before giving up.
        attempts: u32,
        /// The last connection error.
        last: io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Wire(e) => write!(f, "wire protocol error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "detector checkpoint error: {e}"),
            ServeError::BadCheckpoint(msg) => write!(f, "bad CFDG checkpoint: {msg}"),
            ServeError::BadEndpoint(s) => {
                write!(
                    f,
                    "bad endpoint {s:?}: expected unix:PATH, tcp:ADDR, or tail:PATH"
                )
            }
            ServeError::Connect { attempts, last } => {
                write!(f, "could not connect after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) | ServeError::Connect { last: e, .. } => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

/// Where clicks come from (server) or go to (client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket at this path. The server removes a stale
    /// socket file before binding and after shutting down.
    Unix(PathBuf),
    /// A TCP listen/connect address, e.g. `127.0.0.1:4100`.
    Tcp(String),
    /// A growing file of wire frames: the server tails it, the client
    /// appends to it. No `HELLO`/resume handshake in this mode.
    FileTail(PathBuf),
}

impl Endpoint {
    /// Parses `unix:PATH`, `tcp:ADDR`, or `tail:PATH`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadEndpoint`] on any other scheme.
    pub fn parse(s: &str) -> Result<Self, ServeError> {
        if let Some(p) = s.strip_prefix("unix:") {
            Ok(Endpoint::Unix(PathBuf::from(p)))
        } else if let Some(a) = s.strip_prefix("tcp:") {
            Ok(Endpoint::Tcp(a.to_owned()))
        } else if let Some(p) = s.strip_prefix("tail:") {
            Ok(Endpoint::FileTail(PathBuf::from(p)))
        } else {
            Err(ServeError::BadEndpoint(s.to_owned()))
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
            Endpoint::FileTail(p) => write!(f, "tail:{}", p.display()),
        }
    }
}

/// One accepted or dialed connection, Unix or TCP.
enum NetStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl NetStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Unix(s) => s.set_read_timeout(d),
            NetStream::Tcp(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Unix(s) => s.read(buf),
            NetStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Unix(s) => s.write(buf),
            NetStream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Unix(s) => s.flush(),
            NetStream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound, non-blocking listener, Unix or TCP.
enum NetListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl NetListener {
    fn bind(endpoint: &Endpoint) -> Result<Option<Self>, ServeError> {
        match endpoint {
            Endpoint::Unix(path) => {
                // The serve process owns the socket path: a leftover
                // file from a killed predecessor would make bind fail.
                let _ = fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Some(NetListener::Unix(l)))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Some(NetListener::Tcp(l)))
            }
            Endpoint::FileTail(_) => Ok(None),
        }
    }

    /// Non-blocking accept: `Ok(None)` when no connection is pending.
    fn poll_accept(&self) -> io::Result<Option<NetStream>> {
        let r = match self {
            NetListener::Unix(l) => l.accept().map(|(s, _)| NetStream::Unix(s)),
            NetListener::Tcp(l) => l.accept().map(|(s, _)| NetStream::Tcp(s)),
        };
        match r {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Drain control
// ---------------------------------------------------------------------------

/// A one-way "finish up and exit" switch shared by the serve loop, its
/// reader threads, and external signal handlers.
///
/// The CLI flips this from its `SIGTERM`/`SIGINT` handler; a client can
/// flip it remotely with a `DRAIN` frame. Once raised it never lowers.
#[derive(Debug, Default)]
pub struct DrainControl {
    draining: AtomicBool,
}

impl DrainControl {
    /// Creates a control in the serving (not draining) state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a graceful drain: stop accepting, stop reading, finish
    /// the in-flight clicks, checkpoint, report, exit.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// `true` once a drain has been requested.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// The hub: bounded many-producer/one-consumer batch queue
// ---------------------------------------------------------------------------

/// Hub interior: the batch queue plus the count of attached producers.
struct HubInner {
    queue: VecDeque<Vec<Click>>,
    producers: usize,
}

/// A bounded MPSC queue of pooled click batches between the connection
/// readers and the pipeline.
///
/// Built on `Mutex` + `Condvar` rather than the SPSC rings of
/// [`crate::ring`] because the producer side is *dynamic* (one per live
/// connection) — and unlike a channel, it counts the sends that found
/// the queue full ([`Hub::full_waits`]), which is exactly the
/// backpressure signal `serve.hub.full_waits` exports.
struct Hub {
    inner: Mutex<HubInner>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    full_waits: AtomicU64,
    /// Clicks accepted into the hub since stream position zero; seeded
    /// from the checkpoint on restart. This is the position `HELLO`
    /// announces to connecting clients.
    received: AtomicU64,
}

impl Hub {
    /// Locks the hub, recovering the guard from a poisoned mutex.
    ///
    /// A reader thread that panics mid-send (a malformed frame, a bug
    /// in decode) poisons this mutex; `.lock().expect(..)` here would
    /// then cascade the panic into every other reader, the pipeline
    /// runner, and the drain path — one bad connection would wedge the
    /// whole gateway with work still queued. The inner state (queue +
    /// producer count) is consistent at every unlock point, so the
    /// recovered guard is safe to keep serving with.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, HubInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn new(capacity: usize, position: u64) -> Self {
        Self {
            inner: Mutex::new(HubInner {
                queue: VecDeque::with_capacity(capacity),
                producers: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            full_waits: AtomicU64::new(0),
            received: AtomicU64::new(position),
        }
    }

    /// Attaches a producer; the hub closes when the last one detaches.
    fn producer(&self) -> HubProducer<'_> {
        self.lock_inner().producers += 1;
        HubProducer { hub: self }
    }

    /// Clicks accepted so far (the server's stream position).
    fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// Sends that found the queue full and had to wait.
    fn full_waits(&self) -> u64 {
        self.full_waits.load(Ordering::Relaxed)
    }

    /// Pops the next batch without blocking. [`TryPopError::Empty`]
    /// while the queue is empty and a producer is attached;
    /// [`TryPopError::Disconnected`] once the hub is closed and drained.
    fn try_recv(&self) -> Result<Vec<Click>, TryPopError> {
        let mut inner = self.lock_inner();
        match inner.queue.pop_front() {
            Some(b) => {
                drop(inner);
                self.not_full.notify_one();
                Ok(b)
            }
            None if inner.producers == 0 => Err(TryPopError::Disconnected),
            None => Err(TryPopError::Empty),
        }
    }

    /// Pops the next batch; blocks while the queue is empty and at
    /// least one producer is attached. `None` once the hub is closed
    /// (no producers) and drained.
    fn recv(&self) -> Option<Vec<Click>> {
        let mut inner = self.lock_inner();
        loop {
            if let Some(b) = inner.queue.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(b);
            }
            if inner.producers == 0 {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// A reader's handle on the hub; detaches on drop.
struct HubProducer<'a> {
    hub: &'a Hub,
}

impl HubProducer<'_> {
    /// Enqueues one batch, blocking while the hub is at capacity.
    ///
    /// The batch is counted into the stream position *before* the
    /// capacity wait, so a `HELLO` composed while this send is blocked
    /// already covers it — the resuming client will not replay clicks
    /// that are merely stuck behind backpressure.
    fn send(&self, batch: Vec<Click>) {
        self.hub
            .received
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut inner = self.hub.lock_inner();
        if inner.queue.len() >= self.hub.capacity {
            self.hub.full_waits.fetch_add(1, Ordering::Relaxed);
            while inner.queue.len() >= self.hub.capacity {
                inner = self
                    .hub
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        inner.queue.push_back(batch);
        drop(inner);
        self.hub.not_empty.notify_one();
    }
}

impl Drop for HubProducer<'_> {
    fn drop(&mut self) {
        let mut inner = self.hub.lock_inner();
        inner.producers -= 1;
        let last = inner.producers == 0;
        drop(inner);
        if last {
            self.hub.not_empty.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Hub source: hub → click source with barriers
// ---------------------------------------------------------------------------

/// Feeds the pipeline from the hub, recycling drained batch buffers
/// through the pool, and answers [`Pull::Barrier`] after every `every`
/// clicks (never when `every` is 0). Each drained batch advances the
/// stream position and its gauge.
///
/// When the hub runs dry it reports [`Pull::Idle`] so the pipeline
/// pushes the partial batches it holds instead of waiting for more
/// clicks. It first yields the thread once and looks again, so under
/// load (readers about to enqueue) it keeps batching; and it reports
/// idle at most once before the next pull blocks on the hub.
struct HubSource<'a> {
    hub: &'a Hub,
    pool: &'a Pool<Vec<Click>>,
    current: Option<(Vec<Click>, usize)>,
    every: u64,
    /// Clicks delivered since the last barrier.
    since_barrier: u64,
    /// Stream position: the server's start position plus every click
    /// delivered.
    position: u64,
    position_gauge: Option<&'a Gauge>,
    /// Idle was the last report: the next empty look blocks.
    idle_reported: bool,
}

impl<'a> HubSource<'a> {
    fn new(hub: &'a Hub, pool: &'a Pool<Vec<Click>>, every: u64, start: u64) -> Self {
        Self {
            hub,
            pool,
            current: None,
            every,
            since_barrier: 0,
            position: start,
            position_gauge: None,
            idle_reported: false,
        }
    }

    fn retire(&mut self) {
        if let Some((mut b, _)) = self.current.take() {
            b.clear();
            self.pool.put(b);
            if let Some(g) = self.position_gauge {
                g.set(gauge(self.position));
            }
        }
    }

    /// The next hub batch: blocking right after an idle report,
    /// otherwise one look, a yield, and a second look.
    fn next_batch(&mut self) -> Result<Vec<Click>, TryPopError> {
        if std::mem::take(&mut self.idle_reported) {
            return self.hub.recv().ok_or(TryPopError::Disconnected);
        }
        match self.hub.try_recv() {
            Err(TryPopError::Empty) => {
                thread::yield_now();
                self.hub.try_recv()
            }
            r => r,
        }
    }
}

impl ClickSource for &mut HubSource<'_> {
    fn pull(&mut self) -> Pull {
        if self.every > 0 && self.since_barrier == self.every {
            self.since_barrier = 0;
            return Pull::Barrier;
        }
        loop {
            if let Some((batch, idx)) = &mut self.current {
                if *idx < batch.len() {
                    let c = batch[*idx];
                    *idx += 1;
                    if *idx == batch.len() {
                        self.retire();
                    }
                    self.since_barrier += 1;
                    self.position += 1;
                    return Pull::Click(c);
                }
                self.retire();
            }
            match self.next_batch() {
                Ok(b) if b.is_empty() => self.pool.put(b),
                Ok(b) => self.current = Some((b, 0)),
                Err(TryPopError::Empty) => {
                    self.idle_reported = true;
                    return Pull::Idle;
                }
                Err(TryPopError::Disconnected) => return Pull::End,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// The serve-loop instrument bundle (see `docs/OBSERVABILITY.md`).
///
/// Registers every gateway metric into a caller-supplied
/// [`cfd_telemetry::Registry`] so a `Reporter` polling that registry
/// sees them alongside the pipeline metrics.
pub struct ServeTelemetry {
    connections: Arc<Counter>,
    active: Arc<Gauge>,
    frames: Arc<Counter>,
    clicks_received: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    disconnects: Arc<Counter>,
    hub_full_waits: Arc<Counter>,
    segments: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_bytes: Arc<Counter>,
    position: Arc<Gauge>,
    checkpoint_position: Arc<Gauge>,
    drain_requests: Arc<Counter>,
}

impl ServeTelemetry {
    /// Registers the serve metrics into `registry`.
    #[must_use]
    pub fn new(registry: &Arc<MetricsRegistry>) -> Self {
        Self {
            connections: registry.counter(
                "serve.connections",
                "conns",
                "Connections accepted since start",
            ),
            active: registry.gauge("serve.active", "conns", "Connections currently attached"),
            frames: registry.counter("serve.frames", "frames", "Wire frames decoded"),
            clicks_received: registry.counter(
                "serve.clicks_received",
                "clicks",
                "Clicks accepted into the ingest hub",
            ),
            protocol_errors: registry.counter(
                "serve.protocol_errors",
                "errors",
                "Connections dropped for malformed frames (bad CRC, bad payload)",
            ),
            disconnects: registry.counter(
                "serve.disconnects",
                "conns",
                "Connections that ended (EOF, error, or drain)",
            ),
            hub_full_waits: registry.counter(
                "serve.hub.full_waits",
                "waits",
                "Reader sends that blocked on a full hub (backpressure)",
            ),
            segments: registry.counter(
                "serve.segments",
                "segments",
                "Pipeline runs completed (one per serve)",
            ),
            checkpoints: registry.counter(
                "serve.checkpoints",
                "checkpoints",
                "Checkpoints written",
            ),
            checkpoint_bytes: registry.counter(
                "serve.checkpoint_bytes",
                "bytes",
                "Total checkpoint bytes written",
            ),
            position: registry.gauge(
                "serve.position",
                "clicks",
                "Stream position: clicks taken from the hub into the pipeline",
            ),
            checkpoint_position: registry.gauge(
                "serve.checkpoint_position",
                "clicks",
                "Stream position covered by the newest checkpoint (lag behind serve.position = loss window on kill -9)",
            ),
            drain_requests: registry.counter(
                "serve.drain_requests",
                "requests",
                "Drain requests observed (DRAIN frames + local signals)",
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Server state + CFDG checkpoints
// ---------------------------------------------------------------------------

/// Everything a gateway must persist to restart without false
/// negatives: the detector's window state, the billing state, and the
/// stream position the two are synchronized at.
#[derive(Debug)]
pub struct ServerState<D> {
    /// The sharded duplicate detector with its window state.
    pub detector: ShardedDetector<D>,
    /// Advertiser budgets and campaigns (spend carried forward).
    pub registry: Registry,
    /// The billing ledger.
    pub ledger: Ledger,
    /// Fraud savings so far, micro-units.
    pub savings_micros: u64,
    /// Per-publisher fraud tallies.
    pub scorer: FraudScorer,
    /// Clicks fully processed: the position the rest of this state is
    /// exact *as of*. `HELLO` resume positions start from here.
    pub position: u64,
}

impl<D> ServerState<D> {
    /// Fresh state at stream position zero.
    #[must_use]
    pub fn new(detector: ShardedDetector<D>, registry: Registry) -> Self {
        Self {
            detector,
            registry,
            ledger: Ledger::default(),
            savings_micros: 0,
            scorer: FraudScorer::new(),
            position: 0,
        }
    }
}

/// What a `CFDG` holds besides the detector blob, borrowed from a live
/// [`ServerState`] or a barrier snapshot.
struct BillingParts<'a> {
    position: u64,
    savings_micros: u64,
    registry: &'a Registry,
    ledger: &'a Ledger,
    scorer: &'a FraudScorer,
}

/// The sort buffers [`encode_cfdg`] orders the tables in. The checkpoint
/// writer thread keeps one across barriers, so once the tables stop
/// growing an encode allocates nothing.
#[derive(Debug, Default)]
struct CfdgScratch {
    /// `(id, slot)` of the advertisers.
    advertisers: Vec<(u32, usize)>,
    /// `(ad, slot)` of the campaigns.
    campaigns: Vec<(u32, usize)>,
    /// `(publisher, revenue)` pairs.
    revenue: Vec<(u32, u64)>,
    /// `(publisher, clicks, blocked)` tallies.
    tallies: Vec<(u32, u64, u64)>,
}

impl CfdgScratch {
    /// Refills every buffer from `parts`, sorted by key: the order the
    /// sections are written in, so identical states encode identically.
    fn sort(&mut self, parts: &BillingParts<'_>) {
        fn refill<T: Ord>(v: &mut Vec<T>, items: impl Iterator<Item = T>) {
            v.clear();
            v.extend(items);
            v.sort_unstable();
        }
        let registry = parts.registry;
        refill(
            &mut self.advertisers,
            registry.advertisers().enumerate().map(|(i, a)| (a.id.0, i)),
        );
        refill(
            &mut self.campaigns,
            registry.campaigns().enumerate().map(|(i, c)| (c.ad.0, i)),
        );
        let revenue = parts.ledger.per_publisher_micros.iter();
        refill(&mut self.revenue, revenue.map(|(&p, &m)| (p, m)));
        refill(&mut self.tallies, parts.scorer.tallies());
    }
}

/// Appends one complete `CFDG` blob to `out` (layout: see
/// [`ServerState::checkpoint_bytes`]); `detector` appends the `CFDS`
/// detector blob in place.
///
/// The one section encoder of the format: [`ServerState::checkpoint_bytes`]
/// calls it with the live detector, the serve writer thread with the
/// shard blobs a barrier copied out.
fn encode_cfdg(
    out: &mut Vec<u8>,
    scratch: &mut CfdgScratch,
    parts: &BillingParts<'_>,
    detector: impl FnOnce(&mut Vec<u8>),
) {
    // Sort before `out` grows by the detector blob: a scratch buffer
    // first allocated after that growth can sit right behind `out` on
    // the heap, and `out`'s next growth then copies the whole blob
    // (~0.3 ms at 4.4 MB, measured with the system allocator).
    scratch.sort(parts);
    let start = out.len();
    let mut w = Writer::new(out);
    w.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
    w.u64(parts.position);
    w.u64(parts.savings_micros);
    w.nested(detector);

    let registry = parts.registry;
    w.usize(scratch.advertisers.len());
    for &(_, slot) in &scratch.advertisers {
        let a = registry.advertiser_in(slot);
        w.u32(a.id.0);
        w.bytes(a.name.as_bytes());
        w.u64(a.budget_micros);
        w.u64(a.spent_micros);
    }
    w.usize(scratch.campaigns.len());
    for &(_, slot) in &scratch.campaigns {
        let c = registry.campaign_in(slot);
        w.u32(c.ad.0);
        w.u32(c.advertiser.0);
        w.u64(c.cpc_micros);
    }

    let ledger = parts.ledger;
    for v in [
        ledger.clicks,
        ledger.charged,
        ledger.duplicates_blocked,
        ledger.budget_rejections,
        ledger.unknown_ads,
        ledger.revenue_micros,
    ] {
        w.u64(v);
    }
    w.usize(scratch.revenue.len());
    for &(p, m) in &scratch.revenue {
        w.u32(p);
        w.u64(m);
    }
    w.usize(scratch.tallies.len());
    for &(p, clicks, blocked) in &scratch.tallies {
        w.u32(p);
        w.u64(clicks);
        w.u64(blocked);
    }

    let crc = wire::crc32(&out[start..]);
    Writer::new(out).u32(crc);
}

/// Decodes a `CFDG` body whose CRC has been checked and cut off: the
/// position, the detector's `CFDS` blob, and the billing state.
fn decode_cfdg(body: &[u8]) -> Result<(u64, &[u8], SegmentState), CheckpointError> {
    let mut r = Reader::new(body);
    r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let position = r.u64()?;
    let savings_micros = r.u64()?;
    let detector = r.bytes()?;

    let mut registry = Registry::new();
    for _ in 0..r.usize()? {
        let id = AdvertiserId(r.u32()?);
        let name = std::str::from_utf8(r.bytes()?)
            .map_err(|_| CheckpointError::Corrupt("advertiser name not UTF-8"))?;
        let mut a = Advertiser::new(id, name, r.u64()?);
        a.spent_micros = r.u64()?;
        registry.add_advertiser(a);
    }
    for _ in 0..r.usize()? {
        let campaign = Campaign {
            ad: AdId(r.u32()?),
            advertiser: AdvertiserId(r.u32()?),
            cpc_micros: r.u64()?,
        };
        registry
            .add_campaign(campaign)
            .map_err(|_| CheckpointError::Corrupt("campaign references unknown advertiser"))?;
    }

    let mut ledger = Ledger {
        clicks: r.u64()?,
        charged: r.u64()?,
        duplicates_blocked: r.u64()?,
        budget_rejections: r.u64()?,
        unknown_ads: r.u64()?,
        revenue_micros: r.u64()?,
        ..Ledger::default()
    };
    for _ in 0..r.usize()? {
        let publisher = r.u32()?;
        ledger.per_publisher_micros.insert(publisher, r.u64()?);
    }

    let mut scorer = FraudScorer::new();
    for _ in 0..r.usize()? {
        scorer.set_tally(r.u32()?, r.u64()?, r.u64()?);
    }
    r.finish()?;
    let state = SegmentState {
        registry,
        ledger,
        savings_micros,
        scorer,
    };
    Ok((position, detector, state))
}

/// A damaged `CFDG` section, as [`ServeError::BadCheckpoint`] names it.
fn damaged(e: CheckpointError) -> ServeError {
    ServeError::BadCheckpoint(match e {
        CheckpointError::BadVersion(_) => "unsupported version",
        CheckpointError::Corrupt(what) => what,
        _ => "bad magic",
    })
}

/// A checkpoint file written so that it survives an OS crash or power
/// loss, not only a killed process: `PATH.tmp`, `fsync`, rename over
/// `PATH`, `fsync` of the directory. A crash at any point leaves either
/// the previous file or the new one under `PATH`. The tmp path is built
/// once, so a writer that keeps one allocates nothing per write.
struct DurableFile<'a> {
    path: &'a Path,
    tmp: PathBuf,
}

impl<'a> DurableFile<'a> {
    fn new(path: &'a Path) -> Self {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        Self {
            path,
            tmp: tmp.into(),
        }
    }

    /// Makes `bytes` the content of the file. Errors name the
    /// checkpoint path.
    fn write(&self, bytes: &[u8]) -> Result<(), ServeError> {
        let write = || -> io::Result<()> {
            let mut file = fs::File::create(&self.tmp)?;
            file.write_all(bytes)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&self.tmp, self.path)?;
            let dir = match self.path.parent() {
                Some(d) if !d.as_os_str().is_empty() => d,
                _ => Path::new("."),
            };
            fs::File::open(dir)?.sync_all()
        };
        write().map_err(|e| {
            ServeError::Io(io::Error::new(
                e.kind(),
                format!("checkpoint {}: {e}", self.path.display()),
            ))
        })
    }
}

impl<D> ServerState<D>
where
    ShardedDetector<D>: CheckpointState,
{
    /// Serializes the complete gateway state as one `CFDG` blob.
    ///
    /// Layout (all integers little-endian): magic `CFDG` · version u16
    /// · position u64 · savings u64 · length-prefixed detector `CFDS`
    /// blob · advertisers (count, then id/name/budget/spent sorted by
    /// id) · campaigns (count, then ad/advertiser/cpc sorted by ad) ·
    /// ledger (6 totals + per-publisher pairs sorted by publisher) ·
    /// fraud tallies (sorted by publisher) · CRC-32 of everything
    /// before it. Map entries are sorted so identical states serialize
    /// byte-identically.
    #[must_use]
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4096);
        let parts = BillingParts {
            position: self.position,
            savings_micros: self.savings_micros,
            registry: &self.registry,
            ledger: &self.ledger,
            scorer: &self.scorer,
        };
        encode_cfdg(&mut out, &mut CfdgScratch::default(), &parts, |out| {
            self.detector.checkpoint_into(out);
        });
        out
    }

    /// Restores a gateway state from [`ServerState::checkpoint_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadCheckpoint`] on a CRC mismatch or a
    /// damaged `CFDG` section, and [`ServeError::Checkpoint`] on a
    /// detector blob the [`CheckpointState`] impl rejects.
    pub fn restore(buf: &[u8]) -> Result<Self, ServeError> {
        let (body, crc) = buf
            .split_last_chunk()
            .ok_or(ServeError::BadCheckpoint("too short"))?;
        if wire::crc32(body) != u32::from_le_bytes(*crc) {
            return Err(ServeError::BadCheckpoint("CRC mismatch"));
        }
        let (position, detector, state) = decode_cfdg(body).map_err(damaged)?;
        Ok(Self {
            detector: ShardedDetector::<D>::restore(detector)?,
            registry: state.registry,
            ledger: state.ledger,
            savings_micros: state.savings_micros,
            scorer: state.scorer,
            position,
        })
    }

    /// Writes the checkpoint atomically and durably (`path.tmp`,
    /// `fsync`, rename, `fsync` of the directory), so a crash mid-write
    /// — a killed process or a lost machine — leaves the previous
    /// checkpoint intact. Returns the byte size written.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] on filesystem failure.
    pub fn write_checkpoint(&self, path: &Path) -> Result<usize, ServeError> {
        let bytes = self.checkpoint_bytes();
        DurableFile::new(path).write(&bytes)?;
        Ok(bytes.len())
    }

    /// Reads a checkpoint written by [`ServerState::write_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on filesystem failure or a corrupt blob.
    pub fn read_checkpoint(path: &Path) -> Result<Self, ServeError> {
        let bytes = fs::read(path)?;
        Self::restore(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Serve configuration + outcome
// ---------------------------------------------------------------------------

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pipeline knobs.
    pub pipeline: PipelineConfig,
    /// Where to persist checkpoints; `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// Clicks between two barrier checkpoints. `0` means no barriers:
    /// checkpoint only at drain.
    pub checkpoint_every: u64,
    /// Hub capacity in batches; the backpressure depth between readers
    /// and the pipeline.
    pub hub_batches: usize,
    /// Batch buffers to pre-fill the pool with at startup, each sized
    /// for [`ServeConfig::pool_clicks`] clicks. Sized to the worst-case
    /// in-flight population (`hub_batches` + expected concurrent
    /// connections + 1), this pins the gateway's buffer population at
    /// startup so the steady state never allocates a batch. `0` grows
    /// the pool on demand instead.
    pub pool_buffers: usize,
    /// Click capacity of each pre-filled pool buffer; size it to the
    /// largest `CLICKS` frame clients send.
    pub pool_clicks: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            checkpoint_path: None,
            checkpoint_every: 0,
            hub_batches: 64,
            pool_buffers: 0,
            pool_clicks: 0,
        }
    }
}

/// Optional instruments threaded into [`serve`].
#[derive(Default)]
pub struct ServeInstruments {
    /// Gateway counters (connections, frames, checkpoints, …).
    pub serve: Option<Arc<ServeTelemetry>>,
    /// Pipeline instruments.
    pub pipeline: Option<Arc<PipelineTelemetry>>,
    /// Lock-free progress counters (clicks detected/billed).
    pub progress: Option<Arc<PipelineProgress>>,
}

/// What a drained [`serve`] run hands back.
#[derive(Debug)]
pub struct ServeOutcome<D> {
    /// The final billing report over everything processed (including
    /// state restored from a checkpoint).
    pub report: NetworkReport,
    /// The final gateway state — already persisted if checkpointing
    /// was configured.
    pub state: ServerState<D>,
    /// Final per-shard detector health samples (empty without pipeline
    /// telemetry).
    pub health: Vec<DetectorHealth>,
}

// ---------------------------------------------------------------------------
// Connection readers
// ---------------------------------------------------------------------------

/// Decodes frames arriving on one connection into hub batches.
///
/// Exits on EOF, an I/O error, a protocol error, a `DRAIN` frame, or a
/// raised drain flag; the server keeps serving other connections unless
/// the exit was a drain.
fn run_reader(
    mut stream: NetStream,
    guard: &HubProducer<'_>,
    pool: &Pool<Vec<Click>>,
    control: &DrainControl,
    t: Option<&ServeTelemetry>,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    if let Some(t) = t {
        t.connections.inc();
        t.active.add(1);
    }
    let mut hello = Vec::with_capacity(32);
    wire::encode_hello(&mut hello, guard.hub.received());
    if stream.write_all(&hello).is_err() {
        if let Some(t) = t {
            t.active.sub(1);
            t.disconnects.inc();
        }
        return;
    }
    let mut reader = FrameReader::with_capacity(2 * READ_CHUNK);
    let mut chunk = [0u8; READ_CHUNK];
    'conn: loop {
        if control.is_draining() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // client went away; keep serving
            Ok(n) => {
                reader.extend(&chunk[..n]);
                loop {
                    match reader.next_frame() {
                        Ok(Some(f)) => {
                            if let Some(t) = t {
                                t.frames.inc();
                            }
                            match f.kind {
                                wire::FRAME_CLICKS => {
                                    let mut batch = pool.get();
                                    batch.clear();
                                    match wire::decode_clicks_into(f.payload, &mut batch) {
                                        Ok(count) => {
                                            if let Some(t) = t {
                                                t.clicks_received.add(count as u64);
                                            }
                                            guard.send(batch);
                                        }
                                        Err(_) => {
                                            pool.put(batch);
                                            if let Some(t) = t {
                                                t.protocol_errors.inc();
                                            }
                                            break 'conn;
                                        }
                                    }
                                }
                                wire::FRAME_DRAIN => {
                                    if let Some(t) = t {
                                        t.drain_requests.inc();
                                    }
                                    control.request_drain();
                                    break 'conn;
                                }
                                _ => {
                                    if let Some(t) = t {
                                        t.protocol_errors.inc();
                                    }
                                    break 'conn;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            if let Some(t) = t {
                                t.protocol_errors.inc();
                            }
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
    if let Some(t) = t {
        t.active.sub(1);
        t.disconnects.inc();
    }
}

/// Tails a growing frame file, feeding its `CLICKS` frames into the
/// hub. Waits for the file to appear; at EOF it polls for growth
/// instead of exiting. No `HELLO` handshake in this mode.
fn run_tailer(
    path: &Path,
    guard: &HubProducer<'_>,
    pool: &Pool<Vec<Click>>,
    control: &DrainControl,
    t: Option<&ServeTelemetry>,
) {
    let mut file = loop {
        if control.is_draining() {
            return;
        }
        match fs::File::open(path) {
            Ok(f) => break f,
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    };
    if let Some(t) = t {
        t.connections.inc();
        t.active.add(1);
    }
    let mut reader = FrameReader::with_capacity(2 * READ_CHUNK);
    let mut chunk = [0u8; READ_CHUNK];
    'tail: loop {
        if control.is_draining() {
            break;
        }
        match file.read(&mut chunk) {
            Ok(0) => thread::sleep(POLL_INTERVAL), // at EOF: wait for growth
            Ok(n) => {
                reader.extend(&chunk[..n]);
                loop {
                    match reader.next_frame() {
                        Ok(Some(f)) if f.kind == wire::FRAME_CLICKS => {
                            if let Some(t) = t {
                                t.frames.inc();
                            }
                            let mut batch = pool.get();
                            batch.clear();
                            match wire::decode_clicks_into(f.payload, &mut batch) {
                                Ok(count) => {
                                    if let Some(t) = t {
                                        t.clicks_received.add(count as u64);
                                    }
                                    guard.send(batch);
                                }
                                Err(_) => {
                                    pool.put(batch);
                                    if let Some(t) = t {
                                        t.protocol_errors.inc();
                                    }
                                    break 'tail;
                                }
                            }
                        }
                        Ok(Some(f)) if f.kind == wire::FRAME_DRAIN => {
                            if let Some(t) = t {
                                t.frames.inc();
                                t.drain_requests.inc();
                            }
                            control.request_drain();
                            break 'tail;
                        }
                        Ok(Some(_)) | Err(_) => {
                            if let Some(t) = t {
                                t.protocol_errors.inc();
                            }
                            break 'tail;
                        }
                        Ok(None) => break,
                    }
                }
            }
            Err(_) => break,
        }
    }
    if let Some(t) = t {
        t.active.sub(1);
        t.disconnects.inc();
    }
}

// ---------------------------------------------------------------------------
// The serve loop
// ---------------------------------------------------------------------------

/// Saturating gauge value of a position.
fn gauge(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// The snapshot a barrier fills, with its table buffers reserved up
/// front: each shard buffer holds one trial encoding (so its pages are
/// touched before the first barrier), and the CFDG buffer has room for
/// all shard blobs.
fn reserved_snapshot<D: CheckpointState>(detector: &ShardedDetector<D>) -> Snapshot {
    let shards: Vec<Vec<u8>> = detector
        .shards()
        .iter()
        .map(|d| {
            let mut buf = Vec::new();
            d.checkpoint_into(&mut buf);
            buf.clear();
            buf
        })
        .collect();
    let tables: usize = shards.iter().map(Vec::capacity).sum();
    Snapshot {
        clicks: 0,
        shards,
        registry: Registry::new(),
        ledger: Ledger::default(),
        savings_micros: 0,
        scorer: FraudScorer::new(),
        cfdg: Vec::with_capacity(tables + 64 * 1024),
    }
}

/// Appends the `CFDG` of a barrier snapshot taken at `position`: the
/// bytes [`ServerState::checkpoint_bytes`] gives for the same state.
fn encode_snapshot(
    snap: &Snapshot,
    position: u64,
    router_seed: u64,
    scratch: &mut CfdgScratch,
    out: &mut Vec<u8>,
) {
    let parts = BillingParts {
        position,
        savings_micros: snap.savings_micros,
        registry: &snap.registry,
        ledger: &snap.ledger,
        scorer: &snap.scorer,
    };
    encode_cfdg(out, scratch, &parts, |out| {
        sharded_checkpoint_into(out, router_seed, snap.shards.len(), |i, out| {
            out.extend_from_slice(&snap.shards[i]);
        });
    });
}

/// The checkpoint writer thread: builds a `CFDG` from each snapshot
/// billing hands over, makes it durable, and returns the buffers for the
/// next barrier. The `CFDG` buffer travels with the snapshot, and the
/// sort scratch and tmp path stay here, so a barrier checkpoint
/// allocates nothing once the tables stop growing. When it ends — on a
/// write error or a panic too — it closes `free`, which stops the ingest
/// at its next barrier. Returns the position of the last durable
/// checkpoint, if any.
fn write_snapshots(
    full: &Handoff<Snapshot>,
    free: &Handoff<Snapshot>,
    path: &Path,
    start: u64,
    router_seed: u64,
    t: Option<&ServeTelemetry>,
) -> Result<Option<u64>, ServeError> {
    let _close = CloseOnDrop(free);
    let file = DurableFile::new(path);
    let mut scratch = CfdgScratch::default();
    let mut durable = None;
    while let Some(mut snap) = full.take(|| false) {
        let position = start + snap.clicks;
        let mut cfdg = std::mem::take(&mut snap.cfdg);
        cfdg.clear();
        encode_snapshot(&snap, position, router_seed, &mut scratch, &mut cfdg);
        file.write(&cfdg)?;
        if let Some(t) = t {
            t.checkpoints.inc();
            t.checkpoint_bytes.add(cfdg.len() as u64);
            t.checkpoint_position.set(gauge(position));
        }
        durable = Some(position);
        snap.cfdg = cfdg;
        free.put(snap);
    }
    Ok(durable)
}

/// Closes a hand-over when dropped, so a thread waiting on it is woken
/// however the scope that owns this guard ends.
struct CloseOnDrop<'a>(&'a Handoff<Snapshot>);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Stops the intake when dropped: requests a drain, then empties the
/// hub until every producer has detached. The serve scope holds one, so
/// however its closure ends — returned, failed, or unwinding from a
/// panic — the acceptor and the readers exit (a reader blocked on a full
/// hub is freed by the emptying), and the scope's join of them returns
/// instead of waiting for a drain nobody will request.
struct StopIntakeOnDrop<'a> {
    control: &'a DrainControl,
    hub: &'a Hub,
}

impl Drop for StopIntakeOnDrop<'_> {
    fn drop(&mut self) {
        self.control.request_drain();
        while self.hub.recv().is_some() {}
    }
}

/// Runs the gateway until drained: accept connections (or tail a
/// file), pump clicks through one pipeline run, checkpoint every
/// `checkpoint_every` clicks as a barrier snapshot and at drain (unless
/// a barrier already covered the final position), and return the final
/// report once the last checkpoint is durable.
///
/// See the module docs for the architecture; `docs/OPERATIONS.md` is
/// the operator-facing runbook.
///
/// # Errors
///
/// Returns [`ServeError::Io`] when the endpoint cannot be bound or a
/// checkpoint cannot be written. Connection-level errors never abort
/// the serve — they end that connection and are counted.
///
/// When it returns or unwinds, a drain has been requested on `control`.
///
/// # Panics
///
/// Panics if a pipeline stage or the checkpoint writer panics, or if
/// `instruments.pipeline` was sized for another shard count than the
/// detector's. The panic reaches the caller once the gateway's own
/// threads have stopped.
pub fn serve<D>(
    state: ServerState<D>,
    endpoint: &Endpoint,
    config: &ServeConfig,
    control: &DrainControl,
    instruments: &ServeInstruments,
) -> Result<ServeOutcome<D>, ServeError>
where
    D: DuplicateDetector + DetectorStats + CheckpointState + Send,
{
    let ServerState {
        detector,
        registry,
        ledger,
        savings_micros,
        scorer,
        position: start,
    } = state;
    let seg_state = SegmentState {
        registry,
        ledger,
        savings_micros,
        scorer,
    };

    let hub = Hub::new(config.hub_batches, start);
    let pool: Pool<Vec<Click>> = Pool::new();
    for _ in 0..config.pool_buffers {
        pool.put(Vec::with_capacity(config.pool_clicks));
    }
    let serve_t = instruments.serve.as_deref();
    if let Some(t) = serve_t {
        t.position.set(gauge(start));
        t.checkpoint_position.set(gauge(start));
    }
    // Barrier snapshots need a file to go to and a cadence; without
    // either there is no writer and no snapshot memory.
    let barrier_path = config
        .checkpoint_path
        .as_deref()
        .filter(|_| config.checkpoint_every > 0);
    let free = Handoff::new(barrier_path.map(|_| reserved_snapshot(&detector)));
    let full: Handoff<Snapshot> = Handoff::new(None);
    let router_seed = detector.router_seed();

    let listener = NetListener::bind(endpoint)?;

    let result = thread::scope(|s| -> Result<ServeOutcome<D>, ServeError> {
        // The intake guard keeps the hub open while connections can
        // still arrive; it drops (closing the hub once the readers
        // finish too) when a drain stops the acceptor/tailer.
        let intake_guard = hub.producer();
        let hub_ref = &hub;
        let pool_ref = &pool;
        let _stop = StopIntakeOnDrop { control, hub: &hub };
        match (listener, endpoint) {
            (Some(l), _) => {
                s.spawn(move || {
                    let guard = intake_guard;
                    loop {
                        if control.is_draining() {
                            break;
                        }
                        match l.poll_accept() {
                            Ok(Some(stream)) => {
                                let reader_guard = hub_ref.producer();
                                s.spawn(move || {
                                    run_reader(stream, &reader_guard, pool_ref, control, serve_t);
                                });
                            }
                            Ok(None) | Err(_) => thread::sleep(POLL_INTERVAL),
                        }
                    }
                    drop(guard);
                });
            }
            (None, Endpoint::FileTail(path)) => {
                let path = path.as_path();
                s.spawn(move || {
                    let guard = intake_guard;
                    run_tailer(path, &guard, pool_ref, control, serve_t);
                });
            }
            (None, _) => unreachable!("bind() returns a listener for socket endpoints"),
        }
        let (free_ref, full_ref) = (&free, &full);
        let writer = barrier_path.map(|path| {
            s.spawn(move || write_snapshots(full_ref, free_ref, path, start, router_seed, serve_t))
        });

        let mut source = HubSource::new(&hub, &pool, config.checkpoint_every, start);
        source.position_gauge = serve_t.map(|t| &*t.position);
        let out = {
            // Once the run ends (or unwinds), the writer finishes the
            // snapshot it holds and exits.
            let _close = CloseOnDrop(&full);
            run_barriered(
                detector,
                seg_state,
                &mut source,
                config.pipeline,
                instruments.progress.clone(),
                instruments.pipeline.clone(),
                writer.as_ref().map(|_| Barriers {
                    encode: |d: &D, out: &mut Vec<u8>| d.checkpoint_into(out),
                    free: &free,
                    full: &full,
                }),
            )
        };
        let position = source.position;
        if let Some(t) = serve_t {
            t.segments.inc();
            t.position.set(gauge(position));
            t.hub_full_waits.add(hub.full_waits());
        }
        // Losing the checkpoint target is fatal; `_stop` detaches the
        // readers on the way out.
        let durable = writer
            .map(|w| w.join().expect("checkpoint writer panicked"))
            .transpose()?
            .flatten();
        let report = out.report();
        let state = ServerState {
            detector: out.detector,
            registry: out.state.registry,
            ledger: out.state.ledger,
            savings_micros: out.state.savings_micros,
            scorer: out.state.scorer,
            position,
        };
        if let Some(path) = &config.checkpoint_path {
            // The drain checkpoint, unless a barrier already made this
            // very position durable.
            if durable != Some(position) {
                let written = state.write_checkpoint(path)?;
                if let Some(t) = serve_t {
                    t.checkpoints.inc();
                    t.checkpoint_bytes.add(written as u64);
                    t.checkpoint_position.set(gauge(position));
                }
            }
        }
        Ok(ServeOutcome {
            report,
            state,
            health: out.health,
        })
    });

    if let Endpoint::Unix(path) = endpoint {
        let _ = fs::remove_file(path);
    }
    result
}

// ---------------------------------------------------------------------------
// Replay client
// ---------------------------------------------------------------------------

/// [`replay_client`] tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Clicks per `CLICKS` frame.
    pub frame_clicks: usize,
    /// Stream at most this prefix of the trace (`None` = all of it).
    pub limit: Option<u64>,
    /// Send a `DRAIN` frame after the last click, asking the server to
    /// flush, checkpoint, report, and exit.
    pub drain: bool,
    /// Connection attempts per (re)connect before giving up.
    pub connect_attempts: u32,
    /// First retry delay; doubles per failure up to `max_backoff`.
    pub initial_backoff: Duration,
    /// Retry delay ceiling.
    pub max_backoff: Duration,
    /// Mid-stream reconnects before giving up on the whole replay.
    pub max_reconnects: u32,
    /// Optional pause between frames (rate limiting for soak runs).
    pub throttle: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            frame_clicks: 256,
            limit: None,
            drain: false,
            connect_attempts: 50,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            max_reconnects: 100,
            throttle: None,
        }
    }
}

/// What a finished [`replay_client`] run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Clicks written to the server this run.
    pub sent_clicks: u64,
    /// Trace prefix skipped because the server's first `HELLO` said it
    /// already held those clicks (resume after restart).
    pub skipped_clicks: u64,
    /// Mid-stream reconnects after an established connection failed.
    pub reconnects: u64,
    /// Failed dials that were retried with backoff (counts the
    /// client-starts-before-server grace window).
    pub connect_retries: u64,
    /// The position from the most recent `HELLO`.
    pub server_position: u64,
}

fn connect(endpoint: &Endpoint) -> io::Result<NetStream> {
    match endpoint {
        Endpoint::Unix(path) => UnixStream::connect(path).map(NetStream::Unix),
        Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(NetStream::Tcp),
        Endpoint::FileTail(_) => unreachable!("file mode handled before dialing"),
    }
}

fn connect_backoff(
    endpoint: &Endpoint,
    config: &ClientConfig,
) -> Result<(NetStream, u64), ServeError> {
    let attempts = config.connect_attempts.max(1);
    let mut delay = config.initial_backoff;
    let mut retries = 0u64;
    for attempt in 0..attempts {
        match connect(endpoint) {
            Ok(s) => return Ok((s, retries)),
            Err(e) => {
                if attempt + 1 == attempts {
                    return Err(ServeError::Connect { attempts, last: e });
                }
                retries += 1;
                thread::sleep(delay);
                delay = delay.saturating_mul(2).min(config.max_backoff);
            }
        }
    }
    unreachable!("loop returns on the last attempt")
}

/// Reads the server's `HELLO`, returning its resume position.
fn read_hello(stream: &mut NetStream) -> Result<u64, ServeError> {
    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 256];
    loop {
        if let Some(f) = reader.next_frame()? {
            if f.kind == wire::FRAME_HELLO {
                return Ok(wire::decode_hello(f.payload)?);
            }
            return Err(ServeError::Wire(WireError::BadPayload(
                "expected HELLO as the first server frame",
            )));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(ServeError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before HELLO",
            )));
        }
        reader.extend(&chunk[..n]);
    }
}

/// Streams (a prefix of) a recorded trace to a gateway, resuming from
/// the server's announced position and reconnecting with capped
/// exponential backoff on failure.
///
/// In [`Endpoint::FileTail`] mode the client appends frames to the
/// file instead; there is no handshake, so `limit` is the only cursor
/// and restarts re-append from zero.
///
/// # Errors
///
/// Returns [`ServeError::Connect`] when dialing keeps failing, and
/// [`ServeError::Io`]/[`ServeError::Wire`] on unrecoverable transport
/// or handshake failures.
pub fn replay_client(
    endpoint: &Endpoint,
    clicks: &[Click],
    config: &ClientConfig,
) -> Result<ClientStats, ServeError> {
    let total = config
        .limit
        .map_or(clicks.len() as u64, |l| l.min(clicks.len() as u64));
    let frame_clicks = config.frame_clicks.max(1);
    let mut stats = ClientStats::default();

    if let Endpoint::FileTail(path) = endpoint {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut buf = Vec::with_capacity(frame_clicks * wire::CLICK_RECORD_BYTES + 64);
        for chunk in
            clicks[..usize::try_from(total).expect("trace fits in memory")].chunks(frame_clicks)
        {
            buf.clear();
            wire::encode_clicks(&mut buf, chunk);
            file.write_all(&buf)?;
            stats.sent_clicks += chunk.len() as u64;
            if let Some(d) = config.throttle {
                thread::sleep(d);
            }
        }
        if config.drain {
            buf.clear();
            wire::encode_drain(&mut buf);
            file.write_all(&buf)?;
        }
        return Ok(stats);
    }

    let mut first_hello = true;
    let mut buf = Vec::with_capacity(frame_clicks * wire::CLICK_RECORD_BYTES + 64);
    loop {
        let (mut stream, retries) = connect_backoff(endpoint, config)?;
        stats.connect_retries += retries;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let position = match read_hello(&mut stream) {
            Ok(p) => p,
            Err(_) if stats.reconnects < u64::from(config.max_reconnects) => {
                stats.reconnects += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        stats.server_position = position;
        if first_hello {
            stats.skipped_clicks = position.min(total);
            first_hello = false;
        }
        let mut cursor = position.min(total);
        let mut broke = false;
        while cursor < total {
            let end = (cursor + frame_clicks as u64).min(total);
            buf.clear();
            wire::encode_clicks(
                &mut buf,
                &clicks[usize::try_from(cursor).expect("cursor fits")
                    ..usize::try_from(end).expect("cursor fits")],
            );
            if stream.write_all(&buf).is_err() {
                broke = true;
                break;
            }
            stats.sent_clicks += end - cursor;
            cursor = end;
            if let Some(d) = config.throttle {
                thread::sleep(d);
            }
        }
        if broke {
            if stats.reconnects >= u64::from(config.max_reconnects) {
                return Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection kept failing mid-stream",
                )));
            }
            stats.reconnects += 1;
            continue;
        }
        if config.drain {
            buf.clear();
            wire::encode_drain(&mut buf);
            if stream.write_all(&buf).is_err() {
                if stats.reconnects >= u64::from(config.max_reconnects) {
                    return Err(ServeError::Io(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "connection failed sending DRAIN",
                    )));
                }
                stats.reconnects += 1;
                continue;
            }
            // Hold the connection until the draining server closes it,
            // so every buffered byte is consumed before we exit.
            let mut sink = [0u8; 64];
            loop {
                match stream.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
        }
        return Ok(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_core::{Tbf, TbfConfig};
    use cfd_stream::{ClickId, PublisherId};

    fn mk_click(ip: u32) -> Click {
        Click::new(
            ClickId::new(ip, 7, AdId(ip % 4)),
            u64::from(ip),
            PublisherId(2),
            100,
        )
    }

    fn tbf_sharded(shards: usize) -> ShardedDetector<Tbf> {
        ShardedDetector::from_fn(9, shards, |_| {
            Tbf::new(
                TbfConfig::builder(1 << 10)
                    .entries((1 << 10) * 14)
                    .build()
                    .expect("cfg"),
            )
        })
        .expect("detector")
    }

    #[test]
    fn endpoint_parse_roundtrips() {
        for s in ["unix:/tmp/x.sock", "tcp:127.0.0.1:4100", "tail:/tmp/t.cfdw"] {
            let e = Endpoint::parse(s).expect("parses");
            assert_eq!(e.to_string(), s);
        }
        assert!(matches!(
            Endpoint::parse("http://nope"),
            Err(ServeError::BadEndpoint(_))
        ));
        assert!(
            Endpoint::parse("unix:").is_ok(),
            "empty path parses; bind fails later"
        );
    }

    #[test]
    fn hub_counts_full_waits_deterministically() {
        let hub = Hub::new(1, 0);
        let p = hub.producer();
        p.send(vec![mk_click(1)]); // fills capacity without waiting
        assert_eq!(hub.full_waits(), 0);
        thread::scope(|s| {
            let hub_ref = &hub;
            let p_ref = &p;
            s.spawn(move || {
                p_ref.send(vec![mk_click(2)]); // must block: queue is full
            });
            // The blocked send increments full_waits *before* waiting,
            // so this poll terminates deterministically.
            while hub_ref.full_waits() == 0 {
                thread::yield_now();
            }
            assert_eq!(hub_ref.recv().expect("first batch")[0].id.ip, 1);
            assert_eq!(hub_ref.recv().expect("second batch")[0].id.ip, 2);
        });
        assert_eq!(hub.full_waits(), 1);
        assert_eq!(hub.received(), 2);
        drop(p);
        assert!(hub.recv().is_none(), "closed and empty");
    }

    #[test]
    fn hub_survives_a_reader_panicking_under_the_lock() {
        // Regression: every Hub lock site used `.expect("hub lock")`,
        // so one reader thread panicking while holding the mutex
        // poisoned it and cascaded the panic into every other reader,
        // the segment runner, and the drain path — a wedged gateway
        // with work still queued. The sites now recover the guard via
        // `PoisonError::into_inner`.
        let hub = Arc::new(Hub::new(4, 0));
        let h = Arc::clone(&hub);
        thread::spawn(move || {
            let _guard = h.inner.lock().expect("first lock is clean");
            panic!("reader crashed while holding the hub lock");
        })
        .join()
        .expect_err("the reader thread must have panicked");
        assert!(hub.inner.is_poisoned(), "the panic poisoned the mutex");

        // The hub must keep serving: attach, send, recv, and drain all
        // cross the poisoned lock.
        let p = hub.producer();
        p.send(vec![mk_click(1)]);
        let batch = hub.recv().expect("queued batch survives the poison");
        assert_eq!(batch[0].id.ip, 1);
        assert_eq!(hub.received(), 1);
        drop(p);
        assert!(hub.recv().is_none(), "hub still drains cleanly to None");
    }

    #[test]
    fn hub_position_seeds_from_checkpoint() {
        let hub = Hub::new(4, 7_000);
        let p = hub.producer();
        p.send(vec![mk_click(1), mk_click(2)]);
        assert_eq!(hub.received(), 7_002);
    }

    /// Pulls until `End`, returning the clicks' ips, how many idle
    /// reports came in between, and how many clicks preceded each
    /// barrier.
    fn drain_source(mut source: &mut HubSource<'_>) -> (Vec<u32>, usize, Vec<usize>) {
        let (mut ips, mut idles, mut barriers) = (Vec::new(), 0, Vec::new());
        loop {
            match source.pull() {
                Pull::Click(c) => ips.push(c.id.ip),
                Pull::Idle => idles += 1,
                Pull::Barrier => barriers.push(ips.len()),
                Pull::End => return (ips, idles, barriers),
            }
        }
    }

    #[test]
    fn hub_source_answers_a_barrier_every_k_clicks() {
        for (every, want) in [
            (0u64, vec![]),
            (3, vec![3, 6, 9]),
            (5, vec![5, 10]),
            (20, vec![]),
        ] {
            let hub = Hub::new(8, 0);
            let pool: Pool<Vec<Click>> = Pool::new();
            let p = hub.producer();
            for base in [0u32, 5] {
                p.send((base..base + 5).map(mk_click).collect());
            }
            drop(p);
            let mut source = HubSource::new(&hub, &pool, every, 0);
            let (ips, idles, barriers) = drain_source(&mut source);
            assert_eq!(ips, (0..10).collect::<Vec<_>>(), "every={every}");
            assert_eq!(idles, 0, "a closed hub is never idle");
            assert_eq!(barriers, want, "every={every}");
            assert_eq!(source.position, 10);
            assert_eq!((&mut source).pull(), Pull::End, "closed source stays empty");
        }
    }

    #[test]
    fn hub_source_reports_idle_once_then_blocks() {
        let hub = Hub::new(8, 0);
        let pool: Pool<Vec<Click>> = Pool::new();
        thread::scope(|s| {
            let p = hub.producer();
            p.send((0..3).map(mk_click).collect());
            let mut source = HubSource::new(&hub, &pool, 0, 0);
            let mut src = &mut source;
            for ip in 0..3 {
                assert_eq!(src.pull(), Pull::Click(mk_click(ip)));
            }
            assert_eq!(src.pull(), Pull::Idle, "empty hub with a live producer");
            // The next pull must block until the late batch lands, not
            // report idle a second time.
            let late = s.spawn(move || {
                thread::sleep(Duration::from_millis(50));
                p.send((3..6).map(mk_click).collect());
            });
            assert_eq!(src.pull(), Pull::Click(mk_click(3)));
            late.join().expect("late sender");
            // The rest of the batch comes next, then the hub (now
            // closed) ends the stream.
            let (rest, idles, _) = drain_source(src);
            assert_eq!(rest, vec![4, 5]);
            assert_eq!(idles, 0, "the producer detached: end, not idle");
        });
    }

    #[test]
    fn checkpoint_roundtrips_bit_for_bit() {
        let mut state = ServerState::new(tbf_sharded(2), Registry::new());
        state
            .registry
            .add_advertiser(Advertiser::new(AdvertiserId(1), "acme", 500_000));
        state
            .registry
            .add_campaign(Campaign {
                ad: AdId(3),
                advertiser: AdvertiserId(1),
                cpc_micros: 100,
            })
            .expect("advertiser registered");
        state
            .registry
            .advertiser_mut(AdvertiserId(1))
            .expect("exists")
            .try_charge(1_300);
        state.ledger.clicks = 40;
        state.ledger.charged = 13;
        state.ledger.duplicates_blocked = 27;
        state.ledger.revenue_micros = 1_300;
        state.ledger.per_publisher_micros.insert(2, 1_300);
        state.savings_micros = 2_700;
        state.scorer.set_tally(2, 40, 27);
        state.position = 40;
        for ip in 0..32 {
            let c = mk_click(ip);
            state.detector.observe(&c.key());
        }

        let bytes = state.checkpoint_bytes();
        let restored = ServerState::<Tbf>::restore(&bytes).expect("restores");
        assert_eq!(restored.position, 40);
        assert_eq!(restored.savings_micros, 2_700);
        assert_eq!(restored.ledger.clicks, 40);
        assert_eq!(restored.ledger.charged, 13);
        assert_eq!(restored.ledger.duplicates_blocked, 27);
        assert_eq!(restored.ledger.per_publisher_micros.get(&2), Some(&1_300));
        assert_eq!(
            restored
                .registry
                .advertiser(AdvertiserId(1))
                .expect("restored")
                .spent_micros,
            1_300
        );
        assert_eq!(
            restored
                .registry
                .campaign(AdId(3))
                .expect("restored")
                .cpc_micros,
            100
        );
        let tallies: Vec<_> = restored.scorer.tallies().collect();
        assert_eq!(tallies, vec![(2, 40, 27)]);
        // The detector round-trips exactly, and the whole state
        // re-serializes byte-identically (sorted maps → canonical).
        assert_eq!(restored.detector.checkpoint(), state.detector.checkpoint());
        assert_eq!(restored.checkpoint_bytes(), bytes);
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let state = ServerState::new(tbf_sharded(1), Registry::new());
        let bytes = state.checkpoint_bytes();
        assert!(matches!(
            ServerState::<Tbf>::restore(&bytes[..bytes.len() - 1]),
            Err(ServeError::BadCheckpoint("CRC mismatch"))
        ));
        let mut flipped = bytes.clone();
        flipped[10] ^= 0xFF;
        assert!(matches!(
            ServerState::<Tbf>::restore(&flipped),
            Err(ServeError::BadCheckpoint("CRC mismatch"))
        ));
        assert!(ServerState::<Tbf>::restore(&[]).is_err());
        // Valid CRC but wrong magic.
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        let crc = wire::crc32(&wrong[..wrong.len() - 4]);
        let n = wrong.len();
        wrong[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ServerState::<Tbf>::restore(&wrong),
            Err(ServeError::BadCheckpoint("bad magic"))
        ));
    }

    #[test]
    fn checkpoint_file_write_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join(format!("cfd-serve-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("state.cfdg");
        let mut state = ServerState::new(tbf_sharded(2), Registry::new());
        state.position = 123;
        let written = state.write_checkpoint(&path).expect("writes");
        assert_eq!(written, fs::metadata(&path).expect("exists").len() as usize);
        assert!(!path.with_extension("cfdg.tmp").exists() && !dir.join("state.cfdg.tmp").exists());
        let restored = ServerState::<Tbf>::read_checkpoint(&path).expect("reads");
        assert_eq!(restored.position, 123);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_error_displays() {
        let cases: Vec<(ServeError, &str)> = vec![
            (ServeError::BadEndpoint("x".into()), "bad endpoint"),
            (ServeError::BadCheckpoint("short"), "bad CFDG"),
            (
                ServeError::Connect {
                    attempts: 3,
                    last: io::Error::new(io::ErrorKind::ConnectionRefused, "refused"),
                },
                "3 attempts",
            ),
            (ServeError::Wire(WireError::BadMagic), "wire"),
            (ServeError::Io(io::Error::other("disk")), "i/o"),
        ];
        for (e, needle) in cases {
            assert!(
                e.to_string().contains(needle),
                "{e} should contain {needle}"
            );
        }
    }

    /// A seeded gateway state: 3,000 clicks over 1,000 distinct ips
    /// through the detector, billed against two advertisers, spread
    /// over five publishers.
    fn seeded_state<D>(detector: ShardedDetector<D>) -> ServerState<D>
    where
        D: DuplicateDetector,
    {
        let mut state = ServerState::new(detector, two_advertisers());
        let mut engine = crate::billing::BillingEngine::new(());
        for c in scripted_clicks(3_000) {
            let v = state.detector.observe(&c.key());
            engine.process_judged(&c, v, &mut state.registry);
            state.scorer.record(&c, v);
        }
        state.ledger = engine.ledger().clone();
        state.savings_micros = 12_345;
        state.position = 3_000;
        state
    }

    /// Two advertisers over ads 0..4; the second one's budget runs out
    /// mid-stream, so billing order matters.
    fn two_advertisers() -> Registry {
        let mut registry = Registry::new();
        registry.add_advertiser(Advertiser::new(AdvertiserId(1), "acme", 900_000));
        registry.add_advertiser(Advertiser::new(AdvertiserId(2), "globex", 50_000));
        for ad in 0..4 {
            registry
                .add_campaign(Campaign {
                    ad: AdId(ad),
                    advertiser: AdvertiserId(1 + ad % 2),
                    cpc_micros: 100 + u64::from(ad),
                })
                .expect("advertiser registered");
        }
        registry
    }

    /// `n` clicks over 1,000 distinct ips, five publishers.
    fn scripted_clicks(n: u32) -> Vec<Click> {
        (0..n)
            .map(|i| {
                let mut c = mk_click(i.wrapping_mul(2_654_435_761) % 1_000);
                c.publisher = PublisherId(i % 5);
                c
            })
            .collect()
    }

    fn sharded_gbf(shards: usize) -> ShardedDetector<cfd_core::Gbf> {
        use cfd_core::{Gbf, GbfConfig};
        ShardedDetector::from_fn(9, shards, |_| {
            Gbf::new(
                GbfConfig::builder(1 << 10, 8)
                    .filter_bits(1 << 14)
                    .build()
                    .expect("cfg"),
            )
        })
        .expect("detector")
    }

    /// The CFDG bytes cannot drift silently: the CRC-32 of two seeded
    /// states is pinned to the values the encoder produced before its
    /// one-pass rewrite. (The CRC of the body, which is the trailer; the
    /// CRC of a whole blob is the same constant for every blob.)
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let body_crc = |b: &[u8]| (wire::crc32(&b[..b.len() - 4]), b.len());
        let tbf = seeded_state(tbf_sharded(2)).checkpoint_bytes();
        assert_eq!(body_crc(&tbf), (0xbc6b_d1dc, 40_011), "Tbf CFDG");
        let gbf = seeded_state(sharded_gbf(2)).checkpoint_bytes();
        assert_eq!(body_crc(&gbf), (0x61d2_893b, 262_813), "Gbf CFDG");
    }

    /// The CFDG decoder never panics. Over seeded 2-shard TBF and GBF
    /// states (advertisers, campaigns, per-publisher revenue and fraud
    /// tallies; a few KB each), every truncation of the body fails, and
    /// every single-bit flip restores or fails: inside the detector blob
    /// as `ServeError::Checkpoint`, elsewhere as
    /// `ServeError::BadCheckpoint` (either at the blob's length prefix).
    /// The CRC is recomputed after each mutation, so the damage reaches
    /// the decoder instead of stopping at the CRC.
    #[test]
    fn cfdg_decoder_never_panics_on_truncations_or_bit_flips() {
        fn sweep<D>(name: &str, state: &ServerState<D>)
        where
            ShardedDetector<D>: CheckpointState,
        {
            let bytes = state.checkpoint_bytes();
            assert!(bytes.len() < 8 << 10, "{name}: {} bytes", bytes.len());
            let body = &bytes[..bytes.len() - 4];
            let sealed = |body: &[u8]| {
                let mut b = body.to_vec();
                b.extend_from_slice(&wire::crc32(body).to_le_bytes());
                b
            };
            // magic 4 · version 2 · position 8 · savings 8, then the
            // detector blob's length prefix and the blob.
            let prefix = 22..30;
            let len = u64::from_le_bytes(body[prefix.clone()].try_into().expect("8 bytes"));
            let blob = 30..30 + usize::try_from(len).expect("blob length");
            for cut in 0..body.len() {
                assert!(
                    ServerState::<D>::restore(&sealed(&body[..cut])).is_err(),
                    "{name}: truncation at {cut} restored"
                );
            }
            let mut flipped = body.to_vec();
            for bit in 0..body.len() * 8 {
                let at = bit / 8;
                flipped[at] ^= 1 << (bit % 8);
                match ServerState::<D>::restore(&sealed(&flipped)) {
                    Ok(_) => {}
                    Err(ServeError::Checkpoint(_))
                        if blob.contains(&at) || prefix.contains(&at) => {}
                    Err(ServeError::BadCheckpoint(_)) if !blob.contains(&at) => {}
                    Err(e) => panic!("{name}: flipping bit {bit} failed as {e}"),
                }
                flipped[at] ^= 1 << (bit % 8);
            }
        }
        let small_tbf = ShardedDetector::from_fn(9, 2, |_| {
            Tbf::new(TbfConfig::builder(64).entries(256).build().expect("cfg"))
        })
        .expect("detector");
        sweep("tbf", &seeded_state(small_tbf));
        let small_gbf = ShardedDetector::from_fn(9, 2, |_| {
            cfd_core::Gbf::new(
                cfd_core::GbfConfig::builder(64, 4)
                    .filter_bits(128)
                    .build()
                    .expect("cfg"),
            )
        })
        .expect("detector");
        sweep("gbf", &seeded_state(small_gbf));
    }

    /// The file CRC catches single-bit damage anywhere in a multi-MB
    /// checkpoint, with the CRC left as written: every bit of the first
    /// and last 256 bytes (the CRC trailer among them) and every bit of
    /// the two bytes on either side of seeded 64-byte fold-block
    /// boundaries.
    #[test]
    fn single_bit_damage_to_a_large_checkpoint_is_a_crc_mismatch() {
        let big_tbf = ShardedDetector::from_fn(9, 2, |_| {
            Tbf::new(
                TbfConfig::builder(1 << 10)
                    .entries(1 << 20)
                    .build()
                    .expect("cfg"),
            )
        })
        .expect("detector");
        let mut bytes = seeded_state(big_tbf).checkpoint_bytes();
        let len = bytes.len();
        assert!(len > 2 << 20, "checkpoint is {len} bytes");
        let mut bits: Vec<usize> = (0..256 * 8).chain((len - 256) * 8..len * 8).collect();
        let mut seed = 0x00C0_FFEE_u64;
        for _ in 0..16 {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let boundary = 64 * (1 + (seed >> 33) as usize % (len / 64 - 1));
            bits.extend((boundary - 1) * 8..(boundary + 1) * 8);
        }
        for bit in bits {
            bytes[bit / 8] ^= 1 << (bit % 8);
            match ServerState::<Tbf>::restore(&bytes) {
                Err(ServeError::BadCheckpoint("CRC mismatch")) => {}
                Ok(_) => panic!("flipping bit {bit} of {len} bytes restored"),
                Err(e) => panic!("flipping bit {bit} of {len} bytes failed as {e}"),
            }
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(
            ServerState::<Tbf>::restore(&bytes).is_ok(),
            "undamaged file"
        );
    }

    /// A panic inside `serve()` reaches the caller at once: here the
    /// pipeline's telemetry bundle is sized for 3 shards and the
    /// detector has 2, so the pipeline asserts before any click. The
    /// acceptor would otherwise keep the serve scope open until a drain
    /// nobody requests.
    #[test]
    fn a_panic_inside_serve_unwinds_promptly() {
        let dir = std::env::temp_dir().join(format!("cfd-serve-panic-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let config = ServeConfig {
            checkpoint_path: Some(dir.join("s.cfdg")),
            checkpoint_every: 100,
            ..ServeConfig::default()
        };
        let metrics = Arc::new(MetricsRegistry::new());
        let instruments = ServeInstruments {
            pipeline: Some(Arc::new(PipelineTelemetry::new(&metrics, 3))),
            ..ServeInstruments::default()
        };
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let control = DrainControl::new();
            let state = ServerState::new(tbf_sharded(2), Registry::new());
            let run = std::panic::AssertUnwindSafe(|| {
                serve(state, &endpoint, &config, &control, &instruments)
            });
            let _ = done.send(std::panic::catch_unwind(run).is_err());
        });
        let unwound = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("serve() still running 10 s after its pipeline panicked");
        assert!(unwound, "serve() returned instead of panicking");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A source over `clicks` that answers a barrier after every
    /// `every` clicks and reports idle on every 97th pull, so some
    /// barriers land right after partial flushes.
    struct Scripted<'a> {
        clicks: std::slice::Iter<'a, Click>,
        every: u64,
        since_barrier: u64,
        pulls: u64,
    }

    impl ClickSource for Scripted<'_> {
        fn pull(&mut self) -> Pull {
            if self.since_barrier == self.every {
                self.since_barrier = 0;
                return Pull::Barrier;
            }
            self.pulls += 1;
            if self.pulls.is_multiple_of(97) {
                return Pull::Idle;
            }
            match self.clicks.next() {
                Some(&c) => {
                    self.since_barrier += 1;
                    Pull::Click(c)
                }
                None => Pull::End,
            }
        }
    }

    const TEST_PIPELINE: PipelineConfig = PipelineConfig {
        batch: 64,
        queue: 2,
    };

    /// The CFDG of every barrier of one barrier-engine run over
    /// `clicks`, encoded the way the writer thread encodes them.
    fn barrier_cfdgs<D>(detector: ShardedDetector<D>, clicks: &[Click], every: u64) -> Vec<Vec<u8>>
    where
        D: DuplicateDetector + DetectorStats + CheckpointState + Send,
    {
        let state = SegmentState::new(two_advertisers());
        let free = Handoff::new(Some(reserved_snapshot(&detector)));
        let full = Handoff::new(None);
        let router_seed = detector.router_seed();
        thread::scope(|s| {
            let sink = s.spawn(|| {
                let mut cfdgs = Vec::new();
                while let Some(snap) = full.take(|| false) {
                    let mut cfdg = Vec::new();
                    let scratch = &mut CfdgScratch::default();
                    encode_snapshot(&snap, snap.clicks, router_seed, scratch, &mut cfdg);
                    cfdgs.push(cfdg);
                    free.put(snap);
                }
                cfdgs
            });
            let source = Scripted {
                clicks: clicks.iter(),
                every,
                since_barrier: 0,
                pulls: 0,
            };
            {
                let _close = CloseOnDrop(&full);
                run_barriered(
                    detector,
                    state,
                    source,
                    TEST_PIPELINE,
                    None,
                    None,
                    Some(Barriers {
                        encode: |d: &D, out: &mut Vec<u8>| d.checkpoint_into(out),
                        free: &free,
                        full: &full,
                    }),
                );
            }
            sink.join().expect("sink")
        })
    }

    /// The stop-the-world CFDGs at `every`, `2 * every`, …: one
    /// `run_sharded_segment` per span, then `checkpoint_bytes`.
    fn stop_the_world_cfdgs<D>(
        mut detector: ShardedDetector<D>,
        clicks: &[Click],
        every: usize,
    ) -> Vec<Vec<u8>>
    where
        D: DuplicateDetector + DetectorStats + CheckpointState + Send,
    {
        let mut state = SegmentState::new(two_advertisers());
        let mut cfdgs = Vec::new();
        for (i, span) in clicks.chunks_exact(every).enumerate() {
            let out = crate::pipeline::run_sharded_segment(
                detector,
                state,
                span.iter().copied(),
                TEST_PIPELINE,
                None,
                None,
            );
            let server = ServerState {
                detector: out.detector,
                registry: out.state.registry,
                ledger: out.state.ledger,
                savings_micros: out.state.savings_micros,
                scorer: out.state.scorer,
                position: ((i + 1) * every) as u64,
            };
            cfdgs.push(server.checkpoint_bytes());
            detector = server.detector;
            state = SegmentState {
                registry: server.registry,
                ledger: server.ledger,
                savings_micros: server.savings_micros,
                scorer: server.scorer,
            };
        }
        cfdgs
    }

    /// Barrier snapshots are the stop-the-world checkpoints, byte for
    /// byte, at every position K, 2K, … of a 4-shard run, for count
    /// TBF, count GBF and a registry backend behind `Box<dyn>`.
    #[test]
    fn barrier_snapshots_equal_stop_the_world_checkpoints() {
        use cfd_core::registry::{self, BackendGeometry, MemorySpec};
        use cfd_core::DetectorBackend;
        const EVERY: usize = 700;
        let clicks = scripted_clicks(5_000);
        let check = |name: &str, barrier: Vec<Vec<u8>>, stw: Vec<Vec<u8>>| {
            assert_eq!(
                barrier.len(),
                5_000 / EVERY,
                "{name}: one snapshot per barrier"
            );
            assert_eq!(barrier.len(), stw.len(), "{name}");
            for (i, (b, w)) in barrier.iter().zip(&stw).enumerate() {
                assert!(
                    b == w,
                    "{name}: CFDG at position {} differs",
                    (i + 1) * EVERY
                );
            }
        };
        check(
            "tbf",
            barrier_cfdgs(tbf_sharded(4), &clicks, EVERY as u64),
            stop_the_world_cfdgs(tbf_sharded(4), &clicks, EVERY),
        );
        check(
            "gbf",
            barrier_cfdgs(sharded_gbf(4), &clicks, EVERY as u64),
            stop_the_world_cfdgs(sharded_gbf(4), &clicks, EVERY),
        );
        let boxed = || -> ShardedDetector<Box<dyn DetectorBackend>> {
            let geometry = BackendGeometry::new(1 << 10, MemorySpec::TotalBits(1 << 16));
            ShardedDetector::from_fn(9, 4, |_| registry::build("apbf", &geometry))
                .expect("detector")
        };
        check(
            "boxed apbf",
            barrier_cfdgs(boxed(), &clicks, EVERY as u64),
            stop_the_world_cfdgs(boxed(), &clicks, EVERY),
        );
    }
}
