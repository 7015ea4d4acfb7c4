//! Figure 2(b): false-positive rate of TBF over sliding windows,
//! theoretical vs. experimental, as a function of the hash count `k`.
//!
//! Paper protocol (§5): `N = 2^20`, `m = 15,112,980` entries, `20·N`
//! distinct identifiers, false positives counted over the last `10·N`.
//! The binary exits with status 1 unless every measured rate meets
//! [`cfd_bench::TBF_FP_BAND`] around the model.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin fig2b [--paper|--smoke]
//! ```

use cfd_bench::{measure_fp, Checks, TBF_FP_BAND};
use cfd_core::{Tbf, TbfConfig};
use cfd_windows::DetectorStats;

fn main() {
    let scale = cfd_bench::args::parse_or_exit(cfd_bench::args::SCALE_FLAGS, &[]).scale();
    let mut outside = Vec::new();
    let n = scale.n();
    let m = scale.scaled(15_112_980);

    println!(
        "# Figure 2(b) — TBF over sliding windows, {}",
        scale.label()
    );
    println!("# N = {n}, m = {m} entries, C = N-1");
    println!(
        "{:>3} {:>14} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "k", "theory", "measured", "online-est", "ci-lo", "ci-hi", "fp-count"
    );

    for k in 1..=14usize {
        let cfg = TbfConfig::builder(n)
            .entries(m)
            .hash_count(k)
            .seed(0x7BF + k as u64)
            .build()
            .expect("valid configuration");
        let mut tbf = Tbf::new(cfg).expect("valid detector");
        let measured = measure_fp(&mut tbf, n, 0xB2 + k as u64);
        let theory = cfd_analysis::tbf::fp_sliding(m, k, n);
        if !TBF_FP_BAND.meets(&measured.rate, theory) {
            outside.push(k);
        }
        println!(
            "{:>3} {:>14.6e} {:>14.6e} {:>14.6e} {:>14.6e} {:>14.6e} {:>10}",
            k,
            theory,
            measured.rate.estimate,
            tbf.estimated_fp(),
            measured.rate.lo,
            measured.rate.hi,
            measured.false_positives
        );
    }
    println!("# online-est: DetectorStats::estimated_fp, (active_entries/m)^k at end");
    println!("# of stream, without knowing N (docs/OBSERVABILITY.md).");
    let mut checks = Checks::default();
    let claim = format!("95% interval meets {TBF_FP_BAND} x theory (outside: k = {outside:?})");
    checks.check(outside.is_empty(), claim);
    checks.finish();
}
