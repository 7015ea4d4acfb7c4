//! Decaying-window models and the duplicate-detection contract.
//!
//! The paper (§1.2) classifies decaying windows into *landmark*, *jumping*
//! and *sliding* models, each in a count-based and a time-based flavour.
//! This crate provides:
//!
//! * [`spec::WindowSpec`] — the window taxonomy as data.
//! * [`detector::DuplicateDetector`] — the one-pass contract every
//!   detector in the suite implements (GBF, TBF, the baselines, the
//!   exact oracles, and their time-window variants, which read the
//!   ticks the count windows ignore).
//! * [`wrap::WrapCounter`] — modular timestamp arithmetic with the
//!   `N + C` wraparound range of §4.1.
//! * [`clock::JumpingClock`] — sub-window rotation bookkeeping for
//!   count-based jumping windows.
//! * [`time::UnitClock`] — time-unit bookkeeping for time-based windows.
//! * [`exact`] — exact (hash-table) duplicate detectors over every window
//!   model: the ground-truth oracles for the zero-false-negative property
//!   tests and the memory-hungry baseline in the benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod detector;
pub mod exact;
pub mod exact_time;
pub mod spec;
pub mod time;
pub mod wrap;

pub use cfd_telemetry::{DetectorHealth, DetectorStats};
pub use clock::JumpingClock;
pub use detector::{DuplicateDetector, ObservableDetector, StreamSummary, Verdict};
pub use exact::{ExactJumpingDedup, ExactLandmarkDedup, ExactSlidingDedup};
pub use exact_time::{ExactTimeJumpingDedup, ExactTimeSlidingDedup};
pub use spec::WindowSpec;
pub use wrap::WrapCounter;
