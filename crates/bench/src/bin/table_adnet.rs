//! Table T3 (§1.1 motivation): end-to-end fraud savings in the PPC
//! network simulator.
//!
//! A botnet drives 30% of clicks at a $0.25 CPC. The table compares the
//! network's billing under no dedup, GBF, TBF, and the exact oracle:
//! blocked clicks, revenue, the advertiser money saved, and the detector
//! memory spent to get it.
//!
//! The binary exits with status 1 unless TBF's savings lie in
//! [`TBF_SAVINGS_BAND`] of the exact sliding oracle's.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin table_adnet [--paper|--smoke]
//! ```

use cfd_adnet::{AdNetwork, Advertiser, AdvertiserId, Campaign, NetworkReport};
use cfd_bench::{Band, Checks};
use cfd_core::{Gbf, GbfConfig, Tbf, TbfConfig};
use cfd_stream::{AdId, BotnetConfig, BotnetStream, Click};
use cfd_windows::{DuplicateDetector, ExactLandmarkDedup, ExactSlidingDedup};

const ADS: u32 = 64;
const CPC: u64 = 250_000;

/// TBF's savings as a multiple of the exact sliding oracle's. Both
/// slide over the same window, but TBF judges a repeat against the last
/// copy it let through (paper Definition 1), the oracle against every
/// arrival, so TBF can let through a repeat whose previous copy was
/// blocked; its false positives block some distinct clicks. Measured:
/// 1.048 at smoke scale (the oracle blocks only 460 repeats), 1.002 at
/// quick, 1.0005 at paper scale.
const TBF_SAVINGS_BAND: Band = Band { lo: 0.98, hi: 1.1 };

fn build_network<D: DuplicateDetector>(detector: D) -> AdNetwork<D> {
    let mut net = AdNetwork::new(detector);
    net.registry_mut()
        .add_advertiser(Advertiser::new(AdvertiserId(1), "acme", u64::MAX / 4));
    for ad in 0..ADS {
        net.registry_mut()
            .add_campaign(Campaign {
                ad: AdId(ad),
                advertiser: AdvertiserId(1),
                cpc_micros: CPC,
            })
            .expect("advertiser registered");
    }
    net
}

fn main() {
    let scale = cfd_bench::args::parse_or_exit(cfd_bench::args::SCALE_FLAGS, &[]).scale();
    let window = scale.n() / 32;
    let clicks_total = window * 40;

    let clicks: Vec<Click> = BotnetStream::new(
        BotnetConfig {
            bots: 2_000,
            attack_fraction: 0.3,
            target_cpc_micros: CPC,
            ..BotnetConfig::default()
        },
        16,
        ADS,
    )
    .take(clicks_total)
    .map(|c| c.click)
    .collect();

    println!(
        "# Table T3 — PPC billing under a botnet, {} (window = {window}, {clicks_total} clicks)",
        scale.label()
    );
    println!("{}", NetworkReport::header());

    let mut reports = Vec::new();
    // "No dedup": a 1-element landmark window never blocks.
    let mut none = build_network(ExactLandmarkDedup::new(1));
    reports.push(none.run(clicks.iter()));

    let gbf = Gbf::new(
        GbfConfig::builder(window, 8)
            .filter_bits(window / 8 * 14)
            .build()
            .expect("cfg"),
    )
    .expect("detector");
    let mut with_gbf = build_network(gbf);
    reports.push(with_gbf.run(clicks.iter()));

    let tbf = Tbf::new(
        TbfConfig::builder(window)
            .entries(window * 14)
            .build()
            .expect("cfg"),
    )
    .expect("detector");
    let mut with_tbf = build_network(tbf);
    reports.push(with_tbf.run(clicks.iter()));

    let mut exact = build_network(ExactSlidingDedup::new(window));
    reports.push(exact.run(clicks.iter()));

    for r in &reports {
        println!("{}", r.row());
    }

    let baseline = reports[0].revenue_micros;
    let oracle_blocked = reports[3].savings_micros;
    println!();
    for r in &reports[1..] {
        println!(
            "# {:<14} blocks ${:>10.2} of fraud ({:>5.1}% of oracle) with {:>8.1} KiB",
            r.detector,
            r.savings_micros as f64 / 1e6,
            100.0 * r.savings_micros as f64 / oracle_blocked.max(1) as f64,
            r.detector_memory_bits as f64 / 8.0 / 1024.0
        );
    }
    println!(
        "# unprotected network over-bills ${:.2} on this stream",
        (baseline - reports[3].revenue_micros) as f64 / 1e6
    );
    println!("# GBF can over-block: false positives block clicks, and its jumping");
    println!("# window covers N-N/Q..N of the stream.");
    let tbf = reports[2].savings_micros as f64 / oracle_blocked.max(1) as f64;
    let mut checks = Checks::default();
    let claim = format!("tbf savings {tbf:.3} x oracle's lie in {TBF_SAVINGS_BAND}");
    checks.check(
        (TBF_SAVINGS_BAND.lo..=TBF_SAVINGS_BAND.hi).contains(&tbf),
        claim,
    );
    checks.finish();
}
