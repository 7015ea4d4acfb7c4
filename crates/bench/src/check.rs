//! Pass/fail checks for the figure and table binaries.
//!
//! Each binary states the paper's claims it reproduces as checks. It
//! prints every check as a `# check:` line under its table and, if any
//! failed, exits with status 1 once the whole table is out, so
//! `ci.sh` fails on a broken claim and the output still shows why.

use cfd_analysis::stats::Proportion;

/// A two-sided band around a closed-form model, in multiples of it.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// Lower edge, as a multiple of the model.
    pub lo: f64,
    /// Upper edge, as a multiple of the model.
    pub hi: f64,
}

impl Band {
    /// Whether the 95% Wilson interval of a measured rate meets
    /// `[lo, hi] × model`. The interval carries the sampling noise, so
    /// one band holds at every scale: a smoke run's few hundred false
    /// positives and a paper run's hundreds of thousands are judged
    /// against the same model error.
    #[must_use]
    pub fn meets(self, rate: &Proportion, model: f64) -> bool {
        rate.hi >= self.lo * model && rate.lo <= self.hi * model
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.2}, {:.2}]", self.lo, self.hi)
    }
}

/// GBF's measured FP against `cfd_analysis::gbf::fp_steady`. The model
/// sits above the measurement: in `results/fig2a_paper.txt` measured /
/// theory runs from 0.843 (k = 2) to 0.960 (k = 8), each 95% interval
/// within ±0.7% of it. The band leaves 4 points on either side.
pub const GBF_FP_BAND: Band = Band { lo: 0.80, hi: 1.00 };

/// TBF's measured FP against `cfd_analysis::tbf::fp_sliding`. In
/// `results/fig2b_paper.txt` measured / theory runs from 0.966 (k = 1)
/// to 1.008 (k = 13), each 95% interval within ±2% of it. The band
/// leaves 1.6 points below the lowest and 4 above the highest.
pub const TBF_FP_BAND: Band = Band { lo: 0.95, hi: 1.05 };

/// The checks one binary has run so far.
#[derive(Debug, Default)]
pub struct Checks {
    failed: usize,
}

impl Checks {
    /// Prints `# check: <claim>: PASS|FAIL` and records a failure.
    pub fn check(&mut self, ok: bool, claim: impl std::fmt::Display) {
        println!("# check: {claim}: {}", if ok { "PASS" } else { "FAIL" });
        self.failed += usize::from(!ok);
    }

    /// Exits with status 1 if any check failed.
    pub fn finish(self) {
        if self.failed > 0 {
            eprintln!("{} check(s) failed", self.failed);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_analysis::stats::wilson_95;

    #[test]
    fn band_judges_the_interval_not_the_point() {
        // 100 of 100,000 is 1e-3 with an interval of about ±20%.
        let rate = wilson_95(100, 100_000);
        assert!(TBF_FP_BAND.meets(&rate, 1.2e-3));
        assert!(TBF_FP_BAND.meets(&rate, 0.8e-3));
        assert!(!TBF_FP_BAND.meets(&rate, 2e-3));
        assert!(!TBF_FP_BAND.meets(&rate, 0.5e-3));
    }
}
