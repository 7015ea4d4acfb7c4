//! The backend registry: window-filter detectors as named plugins.
//!
//! Every detector in this crate — TBF, GBF, jumping-TBF, their
//! time-window forms, APBF, SWBF and the tenant arena — shares the same
//! operational contract: it classifies clicks
//! ([`DuplicateDetector`](cfd_windows::DuplicateDetector)),
//! exposes its hashing half for batch and sharded replay
//! ([`PlannedDetector`]), reports health telemetry
//! ([`DetectorStats`]), and round-trips
//! its complete state through the
//! tagged `CFDS` checkpoint framing. [`DetectorBackend`] names that
//! contract, and this module maps algorithm names to constructors so
//! the CLI, the `cfd-adnet` pipeline, and `cfd-bench` all resolve
//! backends through one table instead of hand-rolled `match` arms.
//!
//! The registry is the single source of truth for which backends
//! exist: `--algo` help text, the README algorithm table, and the
//! differential test harness all iterate [`backends`], so adding a
//! backend here is the *only* step needed to surface it everywhere.
//! Whether a backend's window is counted in arrivals or in feed ticks
//! is a property of its entry ([`BackendEntry::timed`]), and so is the
//! one rule for splitting it over keyspace shards
//! ([`BackendGeometry::for_shards`]).
//!
//! ```rust
//! use cfd_core::registry::{self, BackendGeometry, MemorySpec};
//! use cfd_windows::{DuplicateDetector, Verdict};
//!
//! # fn main() -> Result<(), cfd_core::registry::BackendBuildError> {
//! let geo = BackendGeometry::new(4096, MemorySpec::TotalBits(4096 * 64));
//! let mut detector = registry::build("apbf", &geo)?;
//! assert_eq!(detector.observe(b"click"), Verdict::Distinct);
//! assert_eq!(detector.observe(b"click"), Verdict::Duplicate);
//! # Ok(())
//! # }
//! ```

use crate::arena::{ArenaConfig, TenantArena};
use crate::checkpoint::{
    self, CheckpointError, CheckpointState, KIND_APBF, KIND_ARENA, KIND_GBF, KIND_JUMPING_TBF,
    KIND_SWBF, KIND_TBF, KIND_TIME_GBF, KIND_TIME_TBF,
};
use crate::config::{ConfigError, ProbeLayout};
use crate::sharded::{per_shard_window, PlannedDetector};
use crate::tbf_jumping::JumpingTbfConfig;
use crate::{
    Apbf, ApbfConfig, Gbf, GbfConfig, JumpingTbf, Swbf, SwbfConfig, Tbf, TbfConfig, TimeGbf,
    TimeGbfConfig, TimeTbf, TimeTbfConfig,
};
use cfd_bits::words::bits_for_value;
use cfd_hash::{Planner, ProbePlan};
use cfd_telemetry::DetectorStats;
use cfd_windows::Verdict;
use std::fmt;

/// The full plugin contract of a detector backend: stream
/// classification, hash-once batch replay, health telemetry, and tagged
/// checkpointing. Blanket-implemented for every [`CheckpointState`]
/// detector, so concrete backends never implement it by hand.
///
/// `Box<dyn DetectorBackend>` implements the whole contract again
/// (including [`CheckpointState`], dispatching restores on the
/// checkpoint's kind tag), so runtime-chosen backends compose with
/// every generic wrapper — `ShardedDetector<Box<dyn DetectorBackend>>`
/// keeps hash-once routing *and* checkpointing.
pub trait DetectorBackend: PlannedDetector + DetectorStats + Send {
    /// Appends the complete state in the tagged `CFDS` framing to `out`
    /// (object-safe form of [`CheckpointState::checkpoint_into`]).
    fn checkpoint_into(&self, out: &mut Vec<u8>);
}

impl<T: PlannedDetector + DetectorStats + CheckpointState + Send> DetectorBackend for T {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        CheckpointState::checkpoint_into(self, out);
    }
}

impl PlannedDetector for Box<dyn DetectorBackend> {
    fn probe_planner(&self) -> Planner {
        (**self).probe_planner()
    }
    fn apply_plan(&mut self, plan: ProbePlan) -> Verdict {
        (**self).apply_plan(plan)
    }
    fn apply_plan_batch_into(&mut self, plans: &[ProbePlan], out: &mut Vec<Verdict>) {
        (**self).apply_plan_batch_into(plans, out);
    }
}

impl CheckpointState for Box<dyn DetectorBackend> {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        (**self).checkpoint_into(out);
    }

    /// Restores whichever backend the buffer's kind tag names — the
    /// backend-agnostic entry point for state recovery. A tag no entry
    /// claims yields [`CheckpointError::UnknownBackend`] instead of a
    /// panic, so a gateway restarting on an older binary degrades to a
    /// clean error.
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        restore_any(buf)
    }
}

/// How much memory a backend gets to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemorySpec {
    /// Total payload budget in bits; every backend spends the whole
    /// budget its own way (the equal-memory comparison the shootout
    /// bench uses).
    TotalBits(usize),
    /// The paper's per-element sizing idiom: `c` cells per window
    /// element, where a *cell* is the backend's native storage unit —
    /// filter bits for GBF and APBF, timestamp entries for the TBF
    /// family, fingerprint+timestamp slots for SWBF.
    CellsPerElement(usize),
}

/// The backend-agnostic shape every registry constructor builds from.
///
/// Backends ignore the knobs they do not have: APBF and SWBF derive
/// their own probe counts from the budget, so `hash_count` only binds
/// the TBF/GBF family; `sub_windows` only binds the jumping-window
/// detectors; the three time fields only bind the time-window
/// detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendGeometry {
    /// Count-window length `N` in elements. For a time-window backend,
    /// the window's capacity: the clicks one window is expected to hold,
    /// which sizes its tables.
    pub window: usize,
    /// Memory to spend, total or per element.
    pub memory: MemorySpec,
    /// Sub-window count `Q` for jumping-window backends.
    pub sub_windows: usize,
    /// Hash functions per element for the TBF/GBF family.
    pub hash_count: usize,
    /// Hash seed (align with `ShardRouter::probe_seed` for hash-once
    /// sharded routing).
    pub seed: u64,
    /// Probe index layout (scattered vs. cache-line-blocked).
    pub probe: ProbeLayout,
    /// Time-window span `R` in units (`time-tbf`).
    pub window_units: u64,
    /// Units per sub-window (`time-gbf`, whose window is
    /// `sub_windows × sub_units` units).
    pub sub_units: u64,
    /// Feed ticks per time unit.
    pub unit_ticks: u64,
}

impl BackendGeometry {
    /// A geometry with the CLI's defaults: 8 sub-windows, 10 hashes,
    /// seed 0, scattered probes, and a 65 536-tick time window (64
    /// units, or 8 sub-windows of 8 units, of 1024 ticks) — the span of
    /// the default count window on one-click-per-tick workloads.
    #[must_use]
    pub fn new(window: usize, memory: MemorySpec) -> Self {
        Self {
            window,
            memory,
            sub_windows: 8,
            hash_count: 10,
            seed: 0,
            probe: ProbeLayout::Scattered,
            window_units: 64,
            sub_units: 8,
            unit_ticks: 1024,
        }
    }

    /// Returns the geometry with `sub_windows` replaced.
    #[must_use]
    pub fn with_sub_windows(mut self, q: usize) -> Self {
        self.sub_windows = q;
        self
    }

    /// Returns the geometry with `hash_count` replaced.
    #[must_use]
    pub fn with_hash_count(mut self, k: usize) -> Self {
        self.hash_count = k;
        self
    }

    /// Returns the geometry with `seed` replaced.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the geometry with `probe` replaced.
    #[must_use]
    pub fn with_probe(mut self, probe: ProbeLayout) -> Self {
        self.probe = probe;
        self
    }

    /// Returns the geometry with the time window replaced: `window_units`
    /// units (`time-tbf`) or sub-windows of `sub_units` units
    /// (`time-gbf`), of `unit_ticks` ticks each.
    #[must_use]
    pub fn with_time_units(mut self, window_units: u64, sub_units: u64, unit_ticks: u64) -> Self {
        self.window_units = window_units;
        self.sub_units = sub_units;
        self.unit_ticks = unit_ticks;
        self
    }

    /// The geometry of each of `shards` keyspace shards — the one
    /// sharding rule. A count window splits into per-shard windows of
    /// [`per_shard_window`]`(N, S)`: same total memory, soft window edge
    /// (see `cfd_analysis::sharding`). A time window (`timed`, from
    /// [`BackendEntry::timed`]) keeps its span, because routing is
    /// tick-blind and every shard shares one clock; only its capacity
    /// splits, to `⌈N/S⌉`.
    #[must_use]
    pub fn for_shards(mut self, shards: usize, timed: bool) -> Self {
        self.window = if timed {
            self.window.div_ceil(shards.max(1))
        } else {
            per_shard_window(self.window, shards)
        };
        self
    }
}

/// Constructor signature of a registered backend.
type BuildFn = fn(&BackendGeometry) -> Result<Box<dyn DetectorBackend>, ConfigError>;
/// Checkpoint-restore signature of a registered backend.
type RestoreFn = fn(&[u8]) -> Result<Box<dyn DetectorBackend>, CheckpointError>;

/// One registered backend: its name, checkpoint kind tag, one-line
/// summary, and constructors.
pub struct BackendEntry {
    /// The `--algo` name.
    pub name: &'static str,
    /// The `CFDS` kind tag its checkpoints carry.
    pub kind: u8,
    /// `true` when the window is measured in feed ticks (a time
    /// window); `false` when it is counted in arrivals.
    pub timed: bool,
    /// Window model, for generated docs.
    pub window_model: &'static str,
    /// One-line summary, for generated docs and help text.
    pub summary: &'static str,
    build: BuildFn,
    restore: RestoreFn,
}

impl fmt::Debug for BackendEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackendEntry")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl BackendEntry {
    /// Builds this backend from the common geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the geometry cannot fund the
    /// backend's minimum shape.
    pub fn build(&self, geo: &BackendGeometry) -> Result<Box<dyn DetectorBackend>, ConfigError> {
        (self.build)(geo)
    }

    /// Restores this backend from one of its checkpoints.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input or a kind tag
    /// belonging to a different backend.
    pub fn restore(&self, buf: &[u8]) -> Result<Box<dyn DetectorBackend>, CheckpointError> {
        (self.restore)(buf)
    }
}

/// Timestamp entries for a memory spec: `M / entry_bits` (Theorem 2),
/// or `c` entries per window element.
fn tbf_entries(geo: &BackendGeometry, entry_bits: u32) -> usize {
    match geo.memory {
        MemorySpec::TotalBits(total) => total / entry_bits as usize,
        MemorySpec::CellsPerElement(c) => geo.window * c,
    }
}

/// Bits per GBF sub-window filter for a memory spec. The default padded
/// layout spends one whole word per probe group (`group_bits`), so an
/// equal-memory build must divide by the real group stride, not
/// `Q + 1` — GBF pays for its padding in the comparison. Rejects
/// `Q = 0` before the sizing divides by it.
fn gbf_filter_bits(geo: &BackendGeometry) -> Result<usize, ConfigError> {
    let q = geo.sub_windows;
    if q == 0 {
        return Err(ConfigError::ZeroDimension("sub-window count q"));
    }
    Ok(match geo.memory {
        MemorySpec::TotalBits(total) => total / ((q + 1).div_ceil(64) * 64),
        MemorySpec::CellsPerElement(c) => geo.window.div_ceil(q) * c,
    })
}

// Each entry's configuration at a geometry — exactly what its `build`
// constructs, or the `ConfigError` that rejects the geometry — public so
// a model (the sweep's FP models) sees the shape that runs.

/// The `tbf` entry's configuration: entries wide enough for stamps over
/// `2N - 1` arrivals.
pub fn tbf_config(geo: &BackendGeometry) -> Result<TbfConfig, ConfigError> {
    let entry_bits = bits_for_value(2 * geo.window.max(1) as u64 - 1);
    TbfConfig::builder(geo.window)
        .entries(tbf_entries(geo, entry_bits))
        .hash_count(geo.hash_count)
        .seed(geo.seed)
        .probe(geo.probe)
        .build()
}

/// The `gbf` entry's configuration.
pub fn gbf_config(geo: &BackendGeometry) -> Result<GbfConfig, ConfigError> {
    GbfConfig::builder(geo.window, geo.sub_windows)
        .filter_bits(gbf_filter_bits(geo)?)
        .hash_count(geo.hash_count)
        .seed(geo.seed)
        .probe(geo.probe)
        .build()
}

/// The `jumping-tbf` entry's configuration.
pub fn jumping_tbf_config(geo: &BackendGeometry) -> Result<JumpingTbfConfig, ConfigError> {
    let q = geo.sub_windows;
    let m = tbf_entries(geo, bits_for_value(2 * q.max(1) as u64));
    JumpingTbfConfig::new(geo.window, q, m, geo.hash_count, geo.seed)?.with_probe(geo.probe)
}

/// The `time-tbf` entry's configuration: stamps wrap over `R + C = 2R`
/// units.
pub fn time_tbf_config(geo: &BackendGeometry) -> Result<TimeTbfConfig, ConfigError> {
    let m = tbf_entries(geo, bits_for_value(geo.window_units.saturating_mul(2)));
    TimeTbfConfig::new(
        geo.window_units,
        geo.unit_ticks,
        m,
        geo.hash_count,
        geo.seed,
    )?
    .with_probe(geo.probe)
}

/// The `time-gbf` entry's configuration.
pub fn time_gbf_config(geo: &BackendGeometry) -> Result<TimeGbfConfig, ConfigError> {
    TimeGbfConfig::new(
        geo.sub_windows,
        geo.sub_units,
        geo.unit_ticks,
        gbf_filter_bits(geo)?,
        geo.hash_count,
        geo.seed,
    )?
    .with_probe(geo.probe)
}

/// The `apbf` entry's configuration: a cell is one filter bit.
pub fn apbf_config(geo: &BackendGeometry) -> Result<ApbfConfig, ConfigError> {
    let total = match geo.memory {
        MemorySpec::TotalBits(total) => total,
        MemorySpec::CellsPerElement(c) => geo.window * c,
    };
    ApbfConfig::for_budget(geo.window, total, geo.seed, geo.probe)
}

/// The `swbf` entry's configuration.
pub fn swbf_config(geo: &BackendGeometry) -> Result<SwbfConfig, ConfigError> {
    let total = match geo.memory {
        MemorySpec::TotalBits(total) => total,
        // A SWBF "cell" is a fingerprint+timestamp dictionary slot;
        // fund `c` slots per element at a nominal 12-bit fingerprint
        // (`for_budget` re-picks the exact width for the final budget).
        MemorySpec::CellsPerElement(c) => {
            let ts = bits_for_value(2 * geo.window.max(1) as u64 - 1) as usize;
            geo.window * c * (ts + 12)
        }
    };
    SwbfConfig::for_budget(geo.window, total, geo.seed, geo.probe)
}

static BACKENDS: &[BackendEntry] = &[
    BackendEntry {
        name: "tbf",
        kind: KIND_TBF,
        timed: false,
        window_model: "sliding, count-based",
        summary: "timing Bloom filter: O(log N)-bit timestamp cells, incremental sweep (paper §4)",
        build: |geo| Ok(Box::new(Tbf::new(tbf_config(geo)?)?)),
        restore: |buf| Ok(Box::new(Tbf::restore(buf)?)),
    },
    BackendEntry {
        name: "gbf",
        kind: KIND_GBF,
        timed: false,
        window_model: "jumping, count-based, small Q",
        summary: "group Bloom filters: Q sub-window filters probed in one interleaved read (paper §3)",
        build: |geo| Ok(Box::new(Gbf::new(gbf_config(geo)?)?)),
        restore: |buf| Ok(Box::new(Gbf::restore(buf)?)),
    },
    BackendEntry {
        name: "jumping-tbf",
        kind: KIND_JUMPING_TBF,
        timed: false,
        window_model: "jumping, count-based, large Q",
        summary: "TBF over sub-window indices: jumping windows where GBF's Q-lane probe is too wide (§4.1)",
        build: |geo| Ok(Box::new(JumpingTbf::new(jumping_tbf_config(geo)?)?)),
        restore: |buf| Ok(Box::new(JumpingTbf::restore(buf)?)),
    },
    BackendEntry {
        name: "time-tbf",
        kind: KIND_TIME_TBF,
        timed: true,
        window_model: "sliding, time-based",
        summary: "TBF over time units: entries stamp the unit, the sweep runs once per unit (§4.1)",
        build: |geo| Ok(Box::new(TimeTbf::new(time_tbf_config(geo)?)?)),
        restore: |buf| Ok(Box::new(TimeTbf::restore(buf)?)),
    },
    BackendEntry {
        name: "time-gbf",
        kind: KIND_TIME_GBF,
        timed: true,
        window_model: "jumping, time-based",
        summary: "GBF over time units: Q sub-window filters of equal duration, wiped once per unit (§3.1)",
        build: |geo| Ok(Box::new(TimeGbf::new(time_gbf_config(geo)?)?)),
        restore: |buf| Ok(Box::new(TimeGbf::restore(buf)?)),
    },
    BackendEntry {
        name: "apbf",
        kind: KIND_APBF,
        timed: false,
        window_model: "sliding, count-based",
        summary: "age-partitioned Bloom filter: k+l rotating slices, k-run queries, no timestamps",
        build: |geo| Ok(Box::new(Apbf::new(apbf_config(geo)?)?)),
        restore: |buf| Ok(Box::new(Apbf::restore(buf)?)),
    },
    BackendEntry {
        name: "swbf",
        kind: KIND_SWBF,
        timed: false,
        window_model: "sliding, count-based",
        summary: "sliding window Bloom filter: fingerprinted timestamp dictionary with cuckoo-style candidates",
        build: |geo| Ok(Box::new(Swbf::new(swbf_config(geo)?)?)),
        restore: |buf| Ok(Box::new(Swbf::restore(buf)?)),
    },
    BackendEntry {
        name: "arena",
        kind: KIND_ARENA,
        timed: false,
        window_model: "sliding, count-based, per tenant",
        summary: "multi-tenant arena: one TBF region per key prefix (advertiser, campaign) in a shared slab, hash-once routing",
        build: |geo| {
            let total = match geo.memory {
                MemorySpec::TotalBits(total) => total,
                MemorySpec::CellsPerElement(c) => {
                    let eb = bits_for_value(2 * geo.window.max(1) as u64 - 1) as usize;
                    // c cells per element for each initially funded
                    // tenant region.
                    geo.window * c * eb * crate::arena::DEFAULT_INITIAL_SLOTS
                }
            };
            let cfg = ArenaConfig::for_budget(geo.window, total, geo.hash_count, geo.seed)?
                .with_probe(geo.probe);
            Ok(Box::new(TenantArena::new(cfg)?))
        },
        restore: |buf| Ok(Box::new(TenantArena::restore(buf)?)),
    },
];

/// Every registered backend, in documentation order.
#[must_use]
pub fn backends() -> &'static [BackendEntry] {
    BACKENDS
}

/// Looks a backend up by its `--algo` name.
#[must_use]
pub fn find(name: &str) -> Option<&'static BackendEntry> {
    BACKENDS.iter().find(|e| e.name == name)
}

/// Error from [`build`]: the name is unknown, or the geometry cannot
/// fund the backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendBuildError {
    /// No registered backend has this name.
    UnknownName(String),
    /// The named backend rejected the geometry.
    Config(ConfigError),
}

impl fmt::Display for BackendBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownName(name) => {
                write!(f, "unknown backend `{name}` (registered: {})", algo_list())
            }
            Self::Config(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BackendBuildError {}

impl From<ConfigError> for BackendBuildError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// Builds the named backend from the common geometry.
///
/// # Errors
///
/// Returns [`BackendBuildError::UnknownName`] for a name no entry
/// claims, [`BackendBuildError::Config`] when the backend rejects the
/// geometry.
pub fn build(
    name: &str,
    geo: &BackendGeometry,
) -> Result<Box<dyn DetectorBackend>, BackendBuildError> {
    let entry = find(name).ok_or_else(|| BackendBuildError::UnknownName(name.to_owned()))?;
    Ok(entry.build(geo)?)
}

/// Restores whichever backend a checkpoint's kind tag names.
///
/// # Errors
///
/// Returns [`CheckpointError::UnknownBackend`] when the tag belongs to
/// no registered backend (e.g. a checkpoint written by a newer binary),
/// and the usual [`CheckpointError`]s on malformed input.
pub fn restore_any(buf: &[u8]) -> Result<Box<dyn DetectorBackend>, CheckpointError> {
    let kind = checkpoint::peek_kind(buf)?;
    let entry = BACKENDS
        .iter()
        .find(|e| e.kind == kind)
        .ok_or(CheckpointError::UnknownBackend { found: kind })?;
    entry.restore(buf)
}

/// The registered `--algo` names joined with `|` — CLI usage text pulls
/// this instead of hard-coding the list.
#[must_use]
pub fn algo_list() -> String {
    BACKENDS
        .iter()
        .map(|e| e.name)
        .collect::<Vec<_>>()
        .join("|")
}

/// The README's algorithm table, generated from the registry so docs
/// cannot drift from the code (a test diffs this against `README.md`).
#[must_use]
pub fn markdown_table() -> String {
    let mut out = String::from("| `--algo` | window model | summary |\n|---|---|---|\n");
    for e in BACKENDS {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            e.name, e.window_model, e.summary
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_windows::{DuplicateDetector, WindowSpec};

    fn geo() -> BackendGeometry {
        BackendGeometry::new(512, MemorySpec::TotalBits(512 * 64)).with_seed(7)
    }

    #[test]
    fn every_backend_builds_and_detects() {
        for entry in backends() {
            for probe in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
                let mut d = entry.build(&geo().with_probe(probe)).expect(entry.name);
                assert_eq!(d.observe(b"click-a"), Verdict::Distinct, "{}", entry.name);
                assert_eq!(d.observe(b"click-a"), Verdict::Duplicate, "{}", entry.name);
                // Count windows span the geometry's 512 arrivals, time
                // windows its default 65 536 ticks.
                let timed = match d.window() {
                    WindowSpec::Sliding { n } | WindowSpec::Jumping { n, .. } => {
                        assert_eq!(n, 512, "{}", entry.name);
                        false
                    }
                    WindowSpec::TimeSliding { ticks } | WindowSpec::TimeJumping { ticks, .. } => {
                        assert_eq!(ticks, 65_536, "{}", entry.name);
                        true
                    }
                    other => panic!("{}: unexpected window {other:?}", entry.name),
                };
                assert_eq!(timed, entry.timed, "{}", entry.name);
            }
        }
    }

    #[test]
    fn cells_per_element_spec_matches_legacy_cli_sizing() {
        // The CLI's historic `--cells-per-element` knob must keep
        // building identical detectors through the registry.
        let geo = BackendGeometry::new(1 << 12, MemorySpec::CellsPerElement(14))
            .with_hash_count(10)
            .with_seed(3);
        let built = build("tbf", &geo).expect("tbf");
        let direct = Tbf::new(
            TbfConfig::builder(1 << 12)
                .entries((1 << 12) * 14)
                .hash_count(10)
                .seed(3)
                .build()
                .expect("cfg"),
        )
        .expect("detector");
        assert_eq!(built.memory_bits(), direct.memory_bits());
    }

    #[test]
    fn time_backends_size_like_the_legacy_cli_builders() {
        // Before the registry built them, the CLI and the sweep sized
        // time tables by hand: `N·c` entries for time-tbf, `⌈N/Q⌉·c`
        // filter bits for time-gbf.
        let geo = BackendGeometry::new(1000, MemorySpec::CellsPerElement(14))
            .with_seed(3)
            .with_time_units(32, 4, 256);
        let tbf = TimeTbf::new(TimeTbfConfig::new(32, 256, 1000 * 14, 10, 3).expect("cfg"))
            .expect("detector");
        let gbf = TimeGbf::new(TimeGbfConfig::new(8, 4, 256, 125 * 14, 10, 3).expect("cfg"))
            .expect("detector");
        let built = build("time-tbf", &geo).expect("time-tbf");
        assert_eq!(built.memory_bits(), tbf.memory_bits());
        assert_eq!(built.window(), tbf.window());
        let built = build("time-gbf", &geo).expect("time-gbf");
        assert_eq!(built.memory_bits(), gbf.memory_bits());
        assert_eq!(built.window(), gbf.window());
    }

    #[test]
    fn shards_split_count_windows_but_only_time_capacity() {
        let geo = BackendGeometry::new(1000, MemorySpec::CellsPerElement(14));
        assert_eq!(geo.for_shards(4, false).window, per_shard_window(1000, 4));
        let shard = geo.for_shards(3, true);
        assert_eq!(shard.window, 334);
        assert_eq!(
            BackendGeometry {
                window: 1000,
                ..shard
            },
            geo,
            "only the capacity splits"
        );
        for name in ["time-tbf", "time-gbf"] {
            let whole = build(name, &geo).expect(name);
            let part = build(name, &shard).expect(name);
            assert_eq!(whole.window(), part.window(), "{name} keeps its span");
        }
    }

    #[test]
    fn equal_memory_budgets_land_within_tolerance() {
        // TotalBits is the shootout's fairness contract: every backend
        // must spend the budget, not quietly under-allocate.
        let budget = (1 << 14) * 32;
        for entry in backends() {
            let d = entry
                .build(&BackendGeometry::new(
                    1 << 14,
                    MemorySpec::TotalBits(budget),
                ))
                .expect(entry.name);
            let used = d.memory_bits() as f64 / budget as f64;
            assert!(
                (0.8..=1.12).contains(&used),
                "{} spent {used:.3} of the budget",
                entry.name
            );
        }
    }

    #[test]
    fn restore_any_dispatches_on_the_kind_tag() {
        for entry in backends() {
            let mut original = entry.build(&geo()).expect(entry.name);
            for i in 0..2_000u64 {
                original.observe(&(i % 300).to_le_bytes());
            }
            let buf = original.checkpoint();
            let mut restored = restore_any(&buf).expect(entry.name);
            assert_eq!(restored.name(), original.name(), "{}", entry.name);
            for i in 2_000..5_000u64 {
                let key = (i % 300).to_le_bytes();
                assert_eq!(
                    original.observe(&key),
                    restored.observe(&key),
                    "{} i={i}",
                    entry.name
                );
            }
        }
    }

    #[test]
    fn unknown_kind_tag_is_a_typed_error_not_a_panic() {
        // Forge a valid header whose kind no registered backend claims
        // (a checkpoint from some future binary).
        let mut buf = build("tbf", &geo()).expect("tbf").checkpoint();
        buf[6] = 0xEF;
        assert_eq!(
            restore_any(&buf).err(),
            Some(CheckpointError::UnknownBackend { found: 0xEF })
        );
        // Mismatched (known, but different) tags stay typed too.
        let swbf_buf = build("swbf", &geo()).expect("swbf").checkpoint();
        assert!(matches!(
            find("apbf").expect("entry").restore(&swbf_buf),
            Err(CheckpointError::WrongKind { found: 7, .. })
        ));
        // And garbage stays BadMagic.
        assert_eq!(restore_any(b"junk").err(), Some(CheckpointError::BadMagic));
    }

    #[test]
    fn boxed_backends_compose_with_sharding_and_checkpointing() {
        use crate::sharded::ShardedDetector;
        type Dyn = Box<dyn DetectorBackend>;
        let mut original: ShardedDetector<Dyn> = ShardedDetector::from_fn(17, 4, |_| {
            Ok::<_, BackendBuildError>(build("apbf", &geo()).expect("apbf"))
        })
        .expect("sharded");
        for i in 0..4_000u64 {
            original.observe(&(i % 500).to_le_bytes());
        }
        let buf = CheckpointState::checkpoint(&original);
        let mut restored =
            <ShardedDetector<Dyn> as CheckpointState>::restore(&buf).expect("valid checkpoint");
        for i in 4_000..9_000u64 {
            let key = (i % 500).to_le_bytes();
            assert_eq!(original.observe(&key), restored.observe(&key), "i={i}");
        }
    }

    #[test]
    fn generated_docs_cover_every_entry() {
        let list = algo_list();
        let table = markdown_table();
        for entry in backends() {
            assert!(list.contains(entry.name));
            assert!(table.contains(entry.name));
        }
        assert_eq!(list.matches('|').count() + 1, backends().len());
    }
}
