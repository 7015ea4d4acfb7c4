//! Barrier checkpoints of `cfd serve`: how many are written, what the
//! last one restores to, and how a checkpoint that cannot be written
//! ends the serve.

use cfd_adnet::{
    replay_client, run_sharded_pipeline, serve, Advertiser, AdvertiserId, Campaign, ClientConfig,
    DrainControl, Endpoint, PipelineConfig, Registry, ServeConfig, ServeError, ServeInstruments,
    ServeTelemetry, ServerState,
};
use cfd_core::sharded::{per_shard_window, ShardedDetector};
use cfd_core::{Tbf, TbfConfig};
use cfd_stream::{AdId, BotnetConfig, BotnetStream, Click};
use cfd_telemetry::Registry as MetricsRegistry;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

const SHARDS: usize = 4;
const WINDOW: usize = 2_048;

fn registry() -> Registry {
    let mut r = Registry::new();
    r.add_advertiser(Advertiser::new(AdvertiserId(1), "acme", 3_000_000));
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

/// One barrier per `checkpoint_every` clicks, plus a drain checkpoint
/// only when the stream does not end on a barrier: clicks ÷ cadence
/// checkpoints for an aligned stream, ⌈clicks ÷ cadence⌉ otherwise. The
/// file on disk is the drained state, byte for byte, and its report is
/// the in-process run's.
#[test]
fn drain_checkpoint_is_written_once_per_position() {
    for (clicks, every, want) in [(6_000usize, 2_000u64, 3u64), (7_000, 2_000, 4)] {
        let trace = trace(clicks);
        let sock = temp_path(&format!("ckpt-count-{clicks}.sock"));
        let ckpt = temp_path(&format!("ckpt-count-{clicks}.cfdg"));
        let _ = std::fs::remove_file(&ckpt);
        let endpoint = Endpoint::Unix(sock);
        let config = ServeConfig {
            pipeline: PipelineConfig {
                batch: 64,
                queue: 4,
            },
            checkpoint_path: Some(ckpt.clone()),
            checkpoint_every: every,
            ..ServeConfig::default()
        };
        let metrics = Arc::new(MetricsRegistry::new());
        let instruments = ServeInstruments {
            serve: Some(Arc::new(ServeTelemetry::new(&metrics))),
            ..ServeInstruments::default()
        };
        let control = DrainControl::new();
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
            let client = ClientConfig {
                drain: true,
                ..ClientConfig::default()
            };
            replay_client(&endpoint, &trace, &client).expect("replay");
            server.join().expect("server thread")
        });
        let snap = metrics.snapshot();
        assert_eq!(
            snap.get_counter("serve.checkpoints"),
            Some(want),
            "{clicks} clicks at cadence {every}"
        );
        assert_eq!(snap.get_counter("serve.segments"), Some(1));
        assert_eq!(
            snap.get_gauge("serve.checkpoint_position"),
            Some(clicks as i64)
        );

        let expected = run_sharded_pipeline(
            sharded_tbf(),
            registry(),
            trace.iter().copied(),
            PipelineConfig::default(),
            None,
        )
        .report;
        assert_eq!(outcome.report, expected);
        let restored = ServerState::<Tbf>::read_checkpoint(&ckpt).expect("restore");
        assert_eq!(restored.position, clicks as u64);
        assert!(
            restored.checkpoint_bytes() == outcome.state.checkpoint_bytes(),
            "the file on disk is the drained state"
        );
        let _ = std::fs::remove_file(&ckpt);
    }
}

/// Runs `serve()` with `config` on its own thread while a client streams
/// `clicks` and a `DRAIN`; returns what `serve()` returned, or `None`
/// if it did not return within a minute.
fn serve_with_deadline(
    name: &str,
    config: ServeConfig,
    clicks: usize,
) -> Option<Result<u64, ServeError>> {
    let trace = trace(clicks);
    let endpoint = Endpoint::Unix(temp_path(name));
    let (tx, rx) = mpsc::channel();
    let server_endpoint = endpoint.clone();
    thread::spawn(move || {
        let control = DrainControl::new();
        let result = serve(
            ServerState::new(sharded_tbf(), registry()),
            &server_endpoint,
            &config,
            &control,
            &ServeInstruments::default(),
        );
        let _ = tx.send(result.map(|o| o.state.position));
    });
    thread::spawn(move || {
        // The server may stop reading mid-stream; the client's errors
        // do not matter here.
        let client = ClientConfig {
            drain: true,
            connect_attempts: 20,
            max_reconnects: 0,
            ..ClientConfig::default()
        };
        let _ = replay_client(&endpoint, &trace, &client);
    });
    rx.recv_timeout(Duration::from_secs(60)).ok()
}

/// A checkpoint directory that does not exist: the first barrier's
/// write fails on the writer thread, the ingest stops at the next
/// barrier (woken, not left waiting for snapshot buffers that never
/// come back), and `serve()` returns a named `ServeError::Io`, without
/// a panic or a hang.
#[test]
fn failed_barrier_checkpoint_ends_serve_with_an_io_error() {
    let config = ServeConfig {
        pipeline: PipelineConfig {
            batch: 64,
            queue: 4,
        },
        checkpoint_path: Some(PathBuf::from("/nonexistent-cfd-dir/s.cfdg")),
        checkpoint_every: 1_000,
        ..ServeConfig::default()
    };
    match serve_with_deadline("ckpt-fail-barrier.sock", config, 20_000) {
        Some(Err(ServeError::Io(e))) => {
            assert!(e.to_string().contains("checkpoint"), "{e}");
        }
        Some(other) => panic!("expected ServeError::Io, got {other:?}"),
        None => panic!("serve() did not return within the deadline"),
    }
}

/// Only the drain checkpoint is written (no cadence), and it fails.
#[test]
fn failed_drain_checkpoint_ends_serve_with_an_io_error() {
    let config = ServeConfig {
        checkpoint_path: Some(PathBuf::from("/nonexistent-cfd-dir/s.cfdg")),
        checkpoint_every: 0,
        ..ServeConfig::default()
    };
    match serve_with_deadline("ckpt-fail-drain.sock", config, 5_000) {
        Some(Err(ServeError::Io(e))) => {
            assert!(e.to_string().contains("checkpoint"), "{e}");
        }
        Some(other) => panic!("expected ServeError::Io, got {other:?}"),
        None => panic!("serve() did not return within the deadline"),
    }
}
