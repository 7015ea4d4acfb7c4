//! Figure 2(a): false-positive rate of GBF over jumping windows,
//! theoretical vs. experimental, as a function of the hash count `k`.
//!
//! Paper protocol (§5): `N = 2^20`, `Q = 8`, per-filter `m = 1,876,246`
//! bits, `20·N` distinct click identifiers, false positives counted over
//! the last `10·N`. Run with `--paper` for the exact sizes; the default
//! `--quick` keeps every ratio but shrinks `N` to `2^18`. The binary
//! exits with status 1 unless every measured rate meets
//! [`cfd_bench::GBF_FP_BAND`] around the model.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin fig2a [--paper|--smoke]
//! ```

use cfd_bench::{measure_fp, Checks, GBF_FP_BAND};
use cfd_core::{Gbf, GbfConfig};
use cfd_windows::DetectorStats;

fn main() {
    let scale = cfd_bench::args::parse_or_exit(cfd_bench::args::SCALE_FLAGS, &[]).scale();
    let mut outside = Vec::new();
    let n = scale.n();
    let q = 8usize;
    let m = scale.scaled(1_876_246);

    println!(
        "# Figure 2(a) — GBF over jumping windows, {}",
        scale.label()
    );
    println!("# N = {n}, Q = {q}, m = {m} bits/filter");
    println!(
        "{:>3} {:>14} {:>14} {:>14} {:>14} {:>14} {:>10}",
        "k", "theory", "measured", "online-est", "ci-lo", "ci-hi", "fp-count"
    );

    for k in 1..=14usize {
        let cfg = GbfConfig::builder(n, q)
            .filter_bits(m)
            .hash_count(k)
            .seed(0xF1624A + k as u64)
            .build()
            .expect("valid configuration");
        let mut gbf = Gbf::new(cfg).expect("valid detector");
        let measured = measure_fp(&mut gbf, n, 0x2A + k as u64);
        let theory = cfd_analysis::gbf::fp_steady(m, k, n, q);
        if !GBF_FP_BAND.meets(&measured.rate, theory) {
            outside.push(k);
        }
        println!(
            "{:>3} {:>14.6e} {:>14.6e} {:>14.6e} {:>14.6e} {:>14.6e} {:>10}",
            k,
            theory,
            measured.rate.estimate,
            gbf.estimated_fp(),
            measured.rate.lo,
            measured.rate.hi,
            measured.false_positives
        );
    }
    println!("# online-est: DetectorStats::estimated_fp from live lane occupancy at");
    println!("# end of stream, without knowing N (docs/OBSERVABILITY.md).");
    let mut checks = Checks::default();
    let claim = format!("95% interval meets {GBF_FP_BAND} x theory (outside: k = {outside:?})");
    checks.check(outside.is_empty(), claim);
    checks.finish();
}
