//! # Click-fraud duplicate detection: GBF and TBF
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Detecting Click Fraud in Pay-Per-Click Streams of Online Advertising
//! Networks* (Zhang & Guan, ICDCS 2008): two one-pass, small-memory
//! algorithms that detect duplicate clicks over decaying windows with
//! **zero false negatives** and a low, bounded false-positive rate.
//!
//! * [`Gbf`] — *group Bloom filters* over count-based **jumping windows**
//!   with a small number of sub-windows `Q` (§3). One probe checks all
//!   `Q` sub-window filters with `k` word reads thanks to a
//!   bit-interleaved layout, and expired filters are wiped incrementally.
//! * [`Tbf`] — *timing Bloom filters* over count-based **sliding
//!   windows** (§4). Bloom cells widen to `O(log N)`-bit wraparound
//!   timestamps; an incremental sweep erases expired timestamps before
//!   their values can be reused.
//! * [`JumpingTbf`] — TBF adapted to jumping windows with *large* `Q`,
//!   where GBF's `Q`-lane probe would be too wide (§4.1 extension): a
//!   [`TimeTbf`] whose time unit is one sub-window of arrivals.
//! * [`TimeGbf`] / [`TimeTbf`] — the time-based-window extensions of
//!   §3.1 / §4.1: windows measured in time units instead of elements.
//! * [`ShardedDetector`] — keyspace-sharded composition of any detector:
//!   ids route by an independent hash to one of `S` shards sized `N/S`,
//!   preserving zero false negatives per shard while enabling batch and
//!   multi-thread processing (see `cfd-adnet`'s parallel pipeline).
//!
//! Every count-based detector splits its step into a pure `plan(id)`
//! (one hash, reusable across threads and batches) and a stateful
//! `apply(plan)`; `observe` is the fused convenience form.
//!
//! All detectors implement [`cfd_windows::DuplicateDetector`] (or the
//! timed variant) and carry [`OpCounters`] so benchmarks can reproduce
//! the paper's running-time theorems in memory operations.
//!
//! ## Quick start
//!
//! ```rust
//! use cfd_core::{Tbf, TbfConfig};
//! use cfd_windows::{DuplicateDetector, Verdict};
//!
//! # fn main() -> Result<(), cfd_core::ConfigError> {
//! // A sliding window of the last 4096 clicks, ~14 entries per element.
//! let cfg = TbfConfig::builder(4096).entries(4096 * 14).build()?;
//! let mut detector = Tbf::new(cfg)?;
//!
//! assert_eq!(detector.observe(b"ip=203.0.113.9;ad=17"), Verdict::Distinct);
//! assert_eq!(detector.observe(b"ip=203.0.113.9;ad=17"), Verdict::Duplicate);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apbf;
pub mod arena;
mod backend;
pub mod checkpoint;
pub mod config;
pub mod gbf;
pub mod gbf_time;
pub mod ops;
pub mod registry;
pub mod sharded;
pub mod swbf;
pub mod tbf;
pub mod tbf_jumping;
pub mod tbf_time;

pub use apbf::{Apbf, ApbfConfig};
pub use arena::{ArenaConfig, ArenaStats, TenantArena};
/// Runtime scalar/SIMD dispatch shared by every backend's probe and
/// cleaning kernels (re-exported so frontends — telemetry, benches,
/// the CLI — can read and steer it without a `cfd-bits` dependency).
pub use cfd_bits::simd;
/// The id-keyed map of the billing stage's per-click lookups
/// (re-exported so `cfd-adnet` needs no `cfd-hash` dependency).
pub use cfd_hash::mix::MixMap;
pub use checkpoint::{CheckpointError, CheckpointState};
pub use config::{
    ConfigError, GbfConfig, GbfConfigBuilder, GbfLayout, ProbeLayout, TbfConfig, TbfConfigBuilder,
};
pub use gbf::Gbf;
pub use gbf_time::{TimeGbf, TimeGbfConfig};
pub use ops::OpCounters;
pub use registry::{BackendGeometry, DetectorBackend, MemorySpec};
pub use sharded::{PlannedDetector, ShardRouter, ShardedDetector};
pub use swbf::{Swbf, SwbfConfig};
pub use tbf::Tbf;
pub use tbf_jumping::JumpingTbf;
pub use tbf_time::{TimeTbf, TimeTbfConfig};
