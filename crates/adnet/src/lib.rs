//! A pay-per-click advertising-network simulator.
//!
//! The paper's motivation (§1.1) is economic: duplicate clicks drain
//! advertiser budgets, the publisher has little incentive to stop them,
//! and the resulting distrust ends in lawsuits. This crate builds the
//! laptop-scale substrate that turns the detectors of `cfd-core` into an
//! end-to-end system a downstream user could adopt:
//!
//! * [`entities`] — advertisers, campaigns, budgets.
//! * [`billing`] — the charging pipeline: every click runs through a
//!   pluggable [`cfd_windows::DuplicateDetector`]; only
//!   [`cfd_windows::Verdict::Distinct`] clicks are billed.
//! * [`network`] — the [`network::AdNetwork`] orchestrator and its
//!   [`report::NetworkReport`].
//! * [`audit`] — the paper's settlement mechanism: "both the online
//!   advertisers and publishers keep on auditing the click stream and
//!   reach an agreement on the determination of valid clicks". Two
//!   independent auditors replay the same stream concurrently and must
//!   produce identical valid-click digests.
//! * [`pipeline`] — the concurrent ingest → sharded detection → billing
//!   pipeline: one worker thread per keyspace shard, an order-restoring
//!   resequencer, and lock-free progress counters.
//! * [`ring`] — the bounded SPSC ring and buffer [`ring::Pool`] backing
//!   the pipeline's zero-steady-state-allocation data plane.
//! * [`telemetry`] — the [`telemetry::PipelineTelemetry`] instrument
//!   bundle the `*_instrumented` pipeline entry points feed: queue
//!   depths, per-stage latency histograms, resequencer stalls, and
//!   on-request detector health (see `docs/OBSERVABILITY.md`).
//! * [`report`] — serde-serializable reports for the benches/examples.
//! * [`mod@serve`] — the long-running gateway: socket/file-tail ingest of
//!   [`cfd_stream::wire`] frames with reconnect + resume, hub
//!   backpressure propagated to the socket, barrier-snapshot
//!   checkpoints written durably off the click path, and graceful
//!   drain (see `docs/OPERATIONS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod billing;
pub mod entities;
pub mod fraud;
pub mod network;
pub mod pipeline;
pub mod report;
pub mod ring;
pub mod serve;
pub mod telemetry;

pub use audit::{run_dual_audit, AuditOutcome};
pub use billing::{BillingEngine, ClickOutcome};
pub use entities::{Advertiser, AdvertiserId, Campaign, Registry};
pub use fraud::{FraudScorer, PublisherScore};
pub use network::AdNetwork;
pub use pipeline::{
    run_sharded_pipeline, run_sharded_pipeline_instrumented, run_sharded_segment, ClickSource,
    PipelineConfig, PipelineOutcome, PipelineProgress, Pull, SegmentOutcome, SegmentState,
};
pub use report::NetworkReport;
pub use ring::{Pool, RingStats};
pub use serve::{
    replay_client, serve, ClientConfig, ClientStats, DrainControl, Endpoint, ServeConfig,
    ServeError, ServeInstruments, ServeOutcome, ServeTelemetry, ServerState,
};
pub use telemetry::PipelineTelemetry;
