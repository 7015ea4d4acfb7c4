//! Derived figure: the warm-up transient behind the §5 protocol.
//!
//! The paper counts false positives only "within the last 10·N clicks to
//! make sure [the filter] has been stable". This binary shows *why*: it
//! plots the FP rate of GBF and TBF in windows of N/2 clicks from a cold
//! start. The rate climbs while the first window fills, because the
//! filter holds fewer than `N` ids, then settles onto the steady state
//! the analytic models predict.
//!
//! The binary exits with status 1 unless, for each detector, the first
//! `N` clicks read below the steady-state model and the clicks after
//! them meet the model's band (`cfd_bench::GBF_FP_BAND`,
//! `cfd_bench::TBF_FP_BAND`, the bands Fig. 2 is checked against).
//!
//! ```text
//! cargo run --release -p cfd-bench --bin fig_warmup [--paper|--smoke]
//! ```

use cfd_analysis::stats::wilson_95;
use cfd_bench::{Checks, GBF_FP_BAND, TBF_FP_BAND};
use cfd_core::{Gbf, GbfConfig, Tbf, TbfConfig};
use cfd_stream::UniqueIdStream;
use cfd_windows::DuplicateDetector;

fn main() {
    let scale = cfd_bench::args::parse_or_exit(cfd_bench::args::SCALE_FLAGS, &[]).scale();
    let n = scale.n() / 4;
    let q = 8usize;
    let k = 10usize;
    let gbf_m = scale.scaled(1_876_246) / 4;
    let tbf_m = scale.scaled(15_112_980) / 4;

    let mut gbf = Gbf::new(
        GbfConfig::builder(n, q)
            .filter_bits(gbf_m)
            .hash_count(k)
            .seed(0x77A8)
            .build()
            .expect("valid configuration"),
    )
    .expect("valid detector");
    let mut tbf = Tbf::new(
        TbfConfig::builder(n)
            .entries(tbf_m)
            .hash_count(k)
            .seed(0x77A9)
            .build()
            .expect("valid configuration"),
    )
    .expect("valid detector");

    let bucket = n / 2;
    let buckets = 24usize;
    println!(
        "# Warm-up transient, {} (N = {n}, buckets of N/2 clicks)",
        scale.label()
    );
    let gbf_theory = cfd_analysis::gbf::fp_steady(gbf_m, k, n, q);
    let tbf_theory = cfd_analysis::tbf::fp_sliding(tbf_m, k, n);
    println!("# theory steady state: gbf {gbf_theory:.3e}, tbf {tbf_theory:.3e}");
    println!("{:>8} {:>14} {:>14}", "bucket", "gbf-fp", "tbf-fp");

    // False positives [gbf, tbf] while the first window fills (buckets
    // 0 and 1), then after it.
    let mut fp = [[0u64; 2]; 2];
    let mut ids = UniqueIdStream::new(0xACE);
    for b in 0..buckets {
        let mut bucket_fp = [0u64; 2];
        for _ in 0..bucket {
            let key = ids.next().expect("infinite stream").to_le_bytes();
            bucket_fp[0] += u64::from(gbf.observe(&key).is_duplicate());
            bucket_fp[1] += u64::from(tbf.observe(&key).is_duplicate());
        }
        let phase = &mut fp[usize::from(b >= 2)];
        phase[0] += bucket_fp[0];
        phase[1] += bucket_fp[1];
        let [g, t] = bucket_fp.map(|c| c as f64 / bucket as f64);
        println!("{b:>8} {g:>14.6e} {t:>14.6e}");
    }
    let mut checks = Checks::default();
    let models = [
        ("gbf", gbf_theory, GBF_FP_BAND),
        ("tbf", tbf_theory, TBF_FP_BAND),
    ];
    for (i, (name, theory, band)) in models.into_iter().enumerate() {
        let fill = fp[0][i] as f64 / (2 * bucket) as f64;
        checks.check(
            fill < theory,
            format_args!("{name} FP while filling {fill:.3e} < theory"),
        );
        let rate = wilson_95(fp[1][i], ((buckets - 2) * bucket) as u64);
        let claim = format!(
            "{name} FP from bucket 2 on {:.3e} meets {band} x theory",
            rate.estimate
        );
        checks.check(band.meets(&rate, theory), claim);
    }
    checks.finish();
}
