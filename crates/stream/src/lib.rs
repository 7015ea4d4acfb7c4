//! Click-stream substrate: the click model, synthetic workload
//! generators, and trace I/O.
//!
//! The paper's evaluation (§5) runs the detectors over synthetic streams
//! of distinct click identifiers; its motivation (§1.1) describes the
//! attack streams a deployed system would face (botnets, competitors,
//! crawlers). This crate provides both:
//!
//! * [`click`] — the [`click::Click`] record and its 16-byte
//!   detector key ("each click has a predefined identifier, such as the
//!   source IP address, or the cookie", §3.1).
//! * [`gen`] — workload generators: the paper's distinct-id stream
//!   ([`gen::unique::UniqueClickStream`]), duplicate injection at controlled
//!   lags, Zipf-popular ids, the Scenario-2 botnet attack, and Poisson
//!   arrival timing for time-based windows.
//! * [`trace`] — a compact binary trace format (plus serde-derived
//!   structures) so experiments are replayable byte-for-byte.
//! * [`wire`] — the CRC-framed streaming protocol `cfd serve` speaks
//!   over TCP/Unix sockets and tailed files: HELLO/CLICKS/DRAIN frames
//!   with an allocation-recycling incremental [`wire::FrameReader`].
//!
//! Real PPC feeds are proprietary; these generators are the DESIGN.md §4
//! substitution and exercise exactly the same detector code paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod click;
pub mod gen;
pub mod scenario;
pub mod trace;
pub mod wire;

pub use click::{AdId, Click, ClickId, PublisherId};
pub use gen::botnet::{BotnetConfig, BotnetStream};
pub use gen::coalition::{CoalitionConfig, CoalitionStream};
pub use gen::crawler::CrawlerStream;
pub use gen::duplicate::DuplicateInjector;
pub use gen::flashcrowd::{FlashCrowdConfig, FlashCrowdStream};
pub use gen::tenants::{TenantTraffic, TenantTrafficConfig, TENANT_KEY_LEN};
pub use gen::timing::PoissonArrivals;
pub use gen::unique::{UniqueClickStream, UniqueIdStream};
pub use gen::zipf::{ZipfClickStream, ZipfSampler};
pub use scenario::{
    Budget, MixEntry, MixKind, RatioGate, ScenarioClick, ScenarioError, ScenarioSpec,
    ScenarioStream, ScenarioWindow, SweepGrid, SweepPoint,
};
pub use trace::{read_trace, write_trace, TraceError};
pub use wire::{FrameReader, WireError};
