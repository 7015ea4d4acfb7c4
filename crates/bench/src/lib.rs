//! Shared harness for the figure/table binaries and Criterion benches.
//!
//! Every binary in `src/bin/` but `throughput` regenerates one figure or
//! table of the paper and checks the paper's claim about it (see
//! DESIGN.md §3 for the full index and [`check`] for how a failed claim
//! becomes exit status 1). `ci.sh` runs each one at `--smoke`:
//!
//! | Binary | Paper artifact | Checked claim |
//! |--------|----------------|---------------|
//! | `fig1` | Fig. 1 — FP rate vs. window size, \[21\] scheme vs. GBF | \[21\] FP > GBF's at every N |
//! | `fig2a` | Fig. 2(a) — GBF FP over jumping windows, theory vs. experiment | measured meets [`GBF_FP_BAND`] × theory |
//! | `fig2b` | Fig. 2(b) — TBF FP over sliding windows, theory vs. experiment | measured meets [`TBF_FP_BAND`] × theory |
//! | `fig_warmup` | §5 warm-up protocol — FP from a cold start | below theory while filling, in band after |
//! | `table_ops` | Theorems 1 & 2 — per-element memory operations + throughput | counted ops ≤ predicted |
//! | `table_fn` | Theorems 1.1 & 2.1 — zero-false-negative verification | zero FN; Stable BF misses some |
//! | `table_adnet` | §1.1 — end-to-end fraud savings in the PPC simulator | TBF saves 0.98–1.10× the oracle |
//!
//! All binaries accept `--paper` to run at the paper's full `N = 2^20`
//! scale (minutes) instead of the quick default `N = 2^18` (seconds),
//! and `--smoke` for `N = 2^14`. They print aligned columns suitable
//! for plotting; `results/*_paper.txt` are their `--paper` stdout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod check;
pub mod fp;
pub mod naive;
pub mod scale;

pub use check::{Band, Checks, GBF_FP_BAND, TBF_FP_BAND};
pub use fp::{measure_fp, FpMeasurement};
pub use naive::NaiveJumpingBloom;
pub use scale::Scale;
