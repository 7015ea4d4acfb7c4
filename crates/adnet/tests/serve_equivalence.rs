//! Recorded-replay equivalence for `cfd serve`.
//!
//! The headline acceptance test of the serving layer: a trace streamed
//! over a Unix socket through the gateway — including a mid-stream
//! graceful shutdown, a checkpoint restore, and a resumed client — must
//! produce a billing report **identical, verdict for verdict**, to
//! feeding the same trace to the in-process pipeline.

use cfd_adnet::{
    replay_client, run_sharded_pipeline, serve, Advertiser, AdvertiserId, Campaign, ClientConfig,
    DrainControl, Endpoint, PipelineConfig, PipelineProgress, PipelineTelemetry, Registry,
    ServeConfig, ServeInstruments, ServerState,
};
use cfd_core::sharded::{per_shard_window, ShardedDetector};
use cfd_core::{Tbf, TbfConfig};
use cfd_stream::wire;
use cfd_stream::{AdId, BotnetConfig, BotnetStream, Click};
use cfd_telemetry::Registry as MetricsRegistry;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const WINDOW: usize = 2_048;

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
        let n_s = per_shard_window(WINDOW, SHARDS);
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

fn trace(n: usize) -> Vec<Click> {
    BotnetStream::new(BotnetConfig::default(), 8, 64)
        .take(n)
        .map(|c| c.click)
        .collect()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cfd-{name}-{}", std::process::id()))
}

/// The reference: one continuous in-process pipeline run.
fn in_process_report(clicks: &[Click]) -> cfd_adnet::NetworkReport {
    run_sharded_pipeline(
        sharded_tbf(),
        registry(),
        clicks.iter().copied(),
        PipelineConfig::default(),
        None,
    )
    .report
}

#[test]
fn socket_stream_equals_in_process_run() {
    let clicks = trace(10_000);
    let expected = in_process_report(&clicks);

    let sock = temp_path("serve-eq.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let control = DrainControl::new();
    let config = ServeConfig::default();

    let outcome = thread::scope(|s| {
        let server = s.spawn(|| {
            serve(
                ServerState::new(sharded_tbf(), registry()),
                &endpoint,
                &config,
                &control,
                &ServeInstruments::default(),
            )
            .expect("serve")
        });
        let stats = replay_client(
            &endpoint,
            &clicks,
            &ClientConfig {
                drain: true,
                ..ClientConfig::default()
            },
        )
        .expect("replay");
        assert_eq!(stats.sent_clicks, clicks.len() as u64);
        assert_eq!(stats.skipped_clicks, 0);
        assert_eq!(stats.server_position, 0, "fresh server starts at zero");
        server.join().expect("server thread")
    });

    assert_eq!(
        outcome.report, expected,
        "socket-streamed report must be identical to the in-process run"
    );
    assert_eq!(outcome.state.position, clicks.len() as u64);
}

#[test]
fn checkpoint_restart_resumes_without_false_negatives() {
    let clicks = trace(9_000);
    let cut = 5_000u64;
    let expected = in_process_report(&clicks);

    let sock = temp_path("serve-restart.sock");
    let ckpt = temp_path("serve-restart.cfdg");
    let _ = std::fs::remove_file(&ckpt);
    let endpoint = Endpoint::Unix(sock.clone());
    let config = ServeConfig {
        checkpoint_path: Some(ckpt.clone()),
        checkpoint_every: 2_000,
        ..ServeConfig::default()
    };

    // Phase 1: stream a prefix, then drain gracefully mid-stream via the
    // in-band DRAIN frame. The server checkpoints every 2 000 clicks and
    // once more at drain, so the file on disk covers exactly `cut`.
    let control1 = DrainControl::new();
    let position1 = thread::scope(|s| {
        let server = s.spawn(|| {
            serve(
                ServerState::new(sharded_tbf(), registry()),
                &endpoint,
                &config,
                &control1,
                &ServeInstruments::default(),
            )
            .expect("serve phase 1")
        });
        let stats = replay_client(
            &endpoint,
            &clicks,
            &ClientConfig {
                limit: Some(cut),
                drain: true,
                ..ClientConfig::default()
            },
        )
        .expect("replay phase 1");
        assert_eq!(stats.sent_clicks, cut);
        let outcome = server.join().expect("server thread");
        assert_eq!(outcome.state.position, cut);
        outcome.state.position
    });

    // Phase 2: "kill -9" simulation boundary — all in-memory state is
    // discarded; the restarted server has only the checkpoint file.
    let restored = ServerState::<Tbf>::read_checkpoint(&ckpt).expect("restore checkpoint");
    assert_eq!(restored.position, position1);

    let control2 = DrainControl::new();
    let outcome = thread::scope(|s| {
        let server = s.spawn(|| {
            serve(
                restored,
                &endpoint,
                &config,
                &control2,
                &ServeInstruments::default(),
            )
            .expect("serve phase 2")
        });
        // The client replays the FULL trace; the HELLO position makes
        // it skip the prefix the checkpoint already covers.
        let stats = replay_client(
            &endpoint,
            &clicks,
            &ClientConfig {
                drain: true,
                ..ClientConfig::default()
            },
        )
        .expect("replay phase 2");
        assert_eq!(
            stats.server_position, cut,
            "HELLO announces the restored position"
        );
        assert_eq!(stats.skipped_clicks, cut);
        assert_eq!(stats.sent_clicks, clicks.len() as u64 - cut);
        server.join().expect("server thread")
    });

    assert_eq!(
        outcome.report, expected,
        "a checkpoint/restart cycle must not change a single verdict or micro"
    );
    assert_eq!(outcome.state.position, clicks.len() as u64);

    // The final checkpoint equals the final state: a second restart
    // would resume at the end of the stream.
    let last = ServerState::<Tbf>::read_checkpoint(&ckpt).expect("final checkpoint");
    assert_eq!(last.position, clicks.len() as u64);
    assert_eq!(last.ledger.revenue_micros, outcome.report.revenue_micros);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn client_backs_off_until_server_arrives() {
    let clicks = trace(500);
    let sock = temp_path("serve-backoff.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let control = DrainControl::new();
    let config = ServeConfig::default();

    let (stats, outcome) = thread::scope(|s| {
        // Client first: every dial fails until the server binds.
        let client = s.spawn(|| {
            replay_client(
                &endpoint,
                &clicks,
                &ClientConfig {
                    drain: true,
                    connect_attempts: 200,
                    ..ClientConfig::default()
                },
            )
            .expect("client retries until the server is up")
        });
        thread::sleep(Duration::from_millis(150));
        let server = s.spawn(|| {
            serve(
                ServerState::new(sharded_tbf(), registry()),
                &endpoint,
                &config,
                &control,
                &ServeInstruments::default(),
            )
            .expect("serve")
        });
        (
            client.join().expect("client"),
            server.join().expect("server"),
        )
    });

    assert!(
        stats.connect_retries > 0,
        "the client must have retried at least once before the server bound"
    );
    assert_eq!(stats.sent_clicks, clicks.len() as u64);
    assert_eq!(outcome.report.clicks, clicks.len() as u64);
}

#[test]
fn file_tail_mode_streams_and_drains() {
    let clicks = trace(3_000);
    let expected = in_process_report(&clicks);
    let frames = temp_path("serve-tail.cfdw");
    let _ = std::fs::remove_file(&frames);
    let endpoint = Endpoint::FileTail(frames.clone());
    let control = DrainControl::new();
    let config = ServeConfig::default();

    let outcome = thread::scope(|s| {
        let server = s.spawn(|| {
            serve(
                ServerState::new(sharded_tbf(), registry()),
                &endpoint,
                &config,
                &control,
                &ServeInstruments::default(),
            )
            .expect("serve")
        });
        let stats = replay_client(
            &endpoint,
            &clicks,
            &ClientConfig {
                drain: true,
                ..ClientConfig::default()
            },
        )
        .expect("append frames");
        assert_eq!(stats.sent_clicks, clicks.len() as u64);
        server.join().expect("server thread")
    });

    assert_eq!(
        outcome.report, expected,
        "tailed file run must match in-process"
    );
    let _ = std::fs::remove_file(&frames);
}

/// Dials a Unix socket until the server has bound it.
fn dial(path: &PathBuf) -> UnixStream {
    for _ in 0..500 {
        if let Ok(stream) = UnixStream::connect(path) {
            return stream;
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("server never bound {}", path.display());
}

/// Liveness: clicks fewer than one batch, on a connection that stays
/// open, are billed without waiting for more clicks or a `DRAIN`. The
/// ingest used to hold them in a partial batch until the segment ended.
#[test]
fn partial_batch_is_billed_before_drain() {
    let config = ServeConfig::default();
    let clicks = trace(100);
    assert!(clicks.len() < config.pipeline.batch);
    let expected = in_process_report(&clicks);

    let sock = temp_path("serve-live.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let control = DrainControl::new();
    let progress = Arc::new(PipelineProgress::new());
    let instruments = ServeInstruments {
        progress: Some(Arc::clone(&progress)),
        ..ServeInstruments::default()
    };

    let (billed_before_drain, outcome) = thread::scope(|s| {
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
        let mut stream = dial(&sock);
        let mut buf = Vec::new();
        wire::encode_clicks(&mut buf, &clicks);
        stream.write_all(&buf).expect("send clicks");
        let deadline = Instant::now() + Duration::from_secs(10);
        while progress.billed() < clicks.len() as u64 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        let billed = progress.billed();
        // Drain either way, so a failing run ends instead of hanging.
        buf.clear();
        wire::encode_drain(&mut buf);
        stream.write_all(&buf).expect("send drain");
        (billed, server.join().expect("server thread"))
    });

    assert_eq!(
        billed_before_drain,
        clicks.len() as u64,
        "clicks of a partial batch must be billed while the connection idles"
    );
    assert_eq!(outcome.report, expected);
}

/// A paced client (small frames with pauses) leaves the hub empty
/// between frames, so the ingest pushes partial batches; the report
/// must still equal the in-process run byte for byte.
#[test]
fn paced_client_flushes_idle_batches_without_changing_the_report() {
    let clicks = trace(4_000);
    let expected = in_process_report(&clicks);

    let sock = temp_path("serve-paced.sock");
    let endpoint = Endpoint::Unix(sock.clone());
    let control = DrainControl::new();
    // Short segments, so carries across segment boundaries meet idle
    // flushes too.
    let config = ServeConfig {
        checkpoint_every: 1_500,
        ..ServeConfig::default()
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let instruments = ServeInstruments {
        pipeline: Some(Arc::new(PipelineTelemetry::new(&metrics, SHARDS))),
        ..ServeInstruments::default()
    };

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
        let stats = replay_client(
            &endpoint,
            &clicks,
            &ClientConfig {
                frame_clicks: 16,
                throttle: Some(Duration::from_micros(500)),
                drain: true,
                ..ClientConfig::default()
            },
        )
        .expect("replay");
        assert_eq!(stats.sent_clicks, clicks.len() as u64);
        server.join().expect("server thread")
    });

    assert_eq!(
        outcome.report, expected,
        "idle flushes must not change a verdict or the billing order"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.get_counter("pipeline.ingest.clicks"),
        Some(clicks.len() as u64)
    );
    let flushes = snap
        .get_counter("pipeline.ingest.idle_flushes")
        .expect("registered");
    assert!(flushes > 0, "a paced client must trigger idle flushes");
}
