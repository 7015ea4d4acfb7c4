//! The load generator and the serve sessions it drives: one thread,
//! one Unix-socket connection, `serve()` on a thread of the same
//! process.

use crate::workload::Backend;
use cfd_adnet::{
    serve, DrainControl, Endpoint, PipelineProgress, ServeConfig, ServeInstruments, ServeOutcome,
    ServerState,
};
use cfd_stream::{wire, FrameReader};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long the generator waits for the server to come up.
const CONNECT_DEADLINE: Duration = Duration::from_secs(20);

/// When frames are sent.
#[derive(Clone, Copy)]
pub enum Pace<'a> {
    /// Each frame as soon as the socket accepts the previous one.
    Closed,
    /// Frame `i` at `schedule[i]` seconds after the first `HELLO`,
    /// whether or not the server keeps up.
    Open(&'a [f64]),
}

pub struct SessionOut<D> {
    pub outcome: ServeOutcome<D>,
    /// State construction + bind up to the first `HELLO` received.
    pub setup_s: f64,
    /// The resume position the server announced.
    pub hello_position: u64,
    /// First click offered to the drained report.
    pub wall_s: f64,
    pub clicks_sent: u64,
    /// Per frame: due time to `billed()` covering its last click.
    pub latencies_ms: Vec<f64>,
    /// Per frame: how late the send completed against its due time
    /// (closed loop: the frame is due when the previous send completed).
    pub lag_ms: Vec<f64>,
}

/// One serve session: build the state, start `serve()`, connect, send
/// `frames` (each carrying `frame_clicks[i]` clicks) at `pace`, send
/// `DRAIN`, and collect the drained outcome.
pub fn run<D: Backend>(
    make_state: impl FnOnce() -> Result<ServerState<D>, String>,
    socket: &Path,
    config: &ServeConfig,
    frames: &[Vec<u8>],
    frame_clicks: &[u64],
    pace: Pace<'_>,
    mut instruments: ServeInstruments,
) -> Result<SessionOut<D>, String> {
    let progress = Arc::new(PipelineProgress::new());
    instruments.progress = Some(Arc::clone(&progress));
    let endpoint = Endpoint::Unix(socket.to_path_buf());
    let control = DrainControl::new();
    let _ = std::fs::remove_file(socket);

    let t0 = Instant::now();
    let state = make_state()?;
    thread::scope(|s| {
        let server = s.spawn(|| serve(state, &endpoint, config, &control, &instruments));
        let sent = drive(socket, t0, frames, frame_clicks, pace, &progress, || {
            server.is_finished()
        });
        if sent.is_err() {
            // Let the server wind down instead of waiting on a client
            // that is gone.
            control.request_drain();
        }
        let outcome = server
            .join()
            .map_err(|_| "serve thread panicked".to_owned())?
            .map_err(|e| format!("serve: {e}"));
        let end = Instant::now();
        let mut d = sent?;
        let outcome = outcome?;
        for &(due, _) in &d.pending {
            d.latencies_ms.push(ms(end.saturating_duration_since(due)));
        }
        Ok(SessionOut {
            outcome,
            setup_s: d.setup_s,
            hello_position: d.hello_position,
            wall_s: end.duration_since(d.first).as_secs_f64(),
            clicks_sent: d.clicks_sent,
            latencies_ms: d.latencies_ms,
            lag_ms: d.lag_ms,
        })
    })
}

struct Driven {
    setup_s: f64,
    hello_position: u64,
    first: Instant,
    clicks_sent: u64,
    latencies_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Frames not yet seen billed: (due, cumulative clicks).
    pending: VecDeque<(Instant, u64)>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The generator side of a session.
fn drive(
    socket: &Path,
    t0: Instant,
    frames: &[Vec<u8>],
    frame_clicks: &[u64],
    pace: Pace<'_>,
    progress: &PipelineProgress,
    server_done: impl Fn() -> bool,
) -> Result<Driven, String> {
    let mut conn = connect(socket, &server_done)?;
    let hello_position = read_hello(&mut conn)?;
    let hello = Instant::now();
    let mut d = Driven {
        setup_s: hello.duration_since(t0).as_secs_f64(),
        hello_position,
        first: hello,
        clicks_sent: 0,
        latencies_ms: Vec::with_capacity(frames.len()),
        lag_ms: Vec::with_capacity(frames.len()),
        pending: VecDeque::with_capacity(frames.len()),
    };
    let mut ready = hello;
    for (i, (frame, &n)) in frames.iter().zip(frame_clicks).enumerate() {
        let due = match pace {
            Pace::Closed => ready,
            Pace::Open(schedule) => {
                let due = hello + Duration::from_secs_f64(schedule[i]);
                wait_until(due, progress, &mut d);
                due
            }
        };
        if i == 0 {
            d.first = due;
        }
        conn.write_all(frame)
            .map_err(|e| format!("send frame {i}: {e}"))?;
        ready = Instant::now();
        d.lag_ms.push(ms(ready.saturating_duration_since(due)));
        d.clicks_sent += n;
        d.pending.push_back((due, d.clicks_sent));
        resolve(progress, &mut d, ready);
    }
    let mut drain = Vec::new();
    wire::encode_drain(&mut drain);
    conn.write_all(&drain)
        .map_err(|e| format!("send DRAIN: {e}"))?;
    while !d.pending.is_empty() && !server_done() {
        resolve(progress, &mut d, Instant::now());
        thread::yield_now();
    }
    Ok(d)
}

/// Records a latency for every pending frame `billed()` now covers.
fn resolve(progress: &PipelineProgress, d: &mut Driven, now: Instant) {
    let billed = progress.billed();
    while let Some(&(due, cum)) = d.pending.front() {
        if billed < cum {
            break;
        }
        d.latencies_ms.push(ms(now.saturating_duration_since(due)));
        d.pending.pop_front();
    }
}

/// Sleeps until `due`, polling progress on each wake-up. The generator
/// never spins: on a 2-core host a spinning generator would take a core
/// from the server it measures. Timer slack makes sends a little late,
/// which `lag_ms` records and the latency (timed from `due`) includes.
fn wait_until(due: Instant, progress: &PipelineProgress, d: &mut Driven) {
    loop {
        let now = Instant::now();
        resolve(progress, d, now);
        if now >= due {
            return;
        }
        thread::sleep(due - now);
    }
}

fn connect(socket: &Path, server_done: &impl Fn() -> bool) -> Result<UnixStream, String> {
    let start = Instant::now();
    loop {
        match UnixStream::connect(socket) {
            Ok(c) => return Ok(c),
            Err(e) => {
                if server_done() || start.elapsed() > CONNECT_DEADLINE {
                    return Err(format!("connect {}: {e}", socket.display()));
                }
                thread::yield_now();
            }
        }
    }
}

fn read_hello(conn: &mut UnixStream) -> Result<u64, String> {
    conn.set_read_timeout(Some(CONNECT_DEADLINE))
        .map_err(|e| format!("socket: {e}"))?;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 64];
    loop {
        if let Some(f) = reader.next_frame().map_err(|e| format!("HELLO: {e}"))? {
            if f.kind != wire::FRAME_HELLO {
                return Err(format!("expected HELLO, got frame kind {}", f.kind));
            }
            return wire::decode_hello(f.payload).map_err(|e| format!("HELLO: {e}"));
        }
        let n = conn.read(&mut buf).map_err(|e| format!("HELLO: {e}"))?;
        if n == 0 {
            return Err("server closed before HELLO".into());
        }
        reader.extend(&buf[..n]);
    }
}

/// The serve configuration of a workload.
pub fn config(checkpoint: Option<PathBuf>, checkpoint_every: u64) -> ServeConfig {
    ServeConfig {
        pipeline: cfd_adnet::PipelineConfig {
            batch: crate::workload::BATCH,
            queue: crate::workload::QUEUE,
            ..cfd_adnet::PipelineConfig::default()
        },
        checkpoint_path: checkpoint,
        checkpoint_every,
        ..ServeConfig::default()
    }
}
