//! Table T1 (derived from Theorems 1 & 2): per-element processing cost.
//!
//! The paper states running time in *memory operations*; this table
//! reports both the counted memory ops per element (for the instrumented
//! detectors) and the measured wall-clock throughput, across the
//! algorithms and their baselines, for small and large sub-window counts.
//!
//! Expected shape (§3.1, §4.1): GBF beats the naive separate-filter
//! layout, and degrades as `Q` grows (probe width `k·⌈(Q+1)/64⌉` and the
//! \[21\] scheme's `O(m)` expiry bursts); TBF's cost is independent of `Q`,
//! making it the better choice at large `Q` — the paper's headline
//! running-time claim. The binary exits with status 1 if a detector's
//! counted memory ops per element exceed the theorem's prediction
//! wherever one is printed; no timing column is checked.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin table_ops [--paper|--smoke]
//! ```

use cfd_bench::{Checks, NaiveJumpingBloom};
use cfd_bloom::metwally::{MetwallyConfig, MetwallyJumping};
use cfd_bloom::stable::{StableBloomFilter, StableConfig};
use cfd_core::tbf_jumping::{JumpingTbf, JumpingTbfConfig};
use cfd_core::{Gbf, GbfConfig, Tbf, TbfConfig};
use cfd_stream::UniqueIdStream;
use cfd_windows::{DuplicateDetector, ExactSlidingDedup};
use std::time::Instant;

/// Drives `detector` over `count` distinct ids, returning Melem/s.
fn throughput<D: DuplicateDetector + ?Sized>(d: &mut D, count: u64, seed: u64) -> f64 {
    let ids: Vec<u64> = UniqueIdStream::new(seed).take(count as usize).collect();
    let start = Instant::now();
    for id in &ids {
        d.observe(&id.to_le_bytes());
    }
    let secs = start.elapsed().as_secs_f64();
    count as f64 / secs / 1e6
}

/// Prints one table row; returns whether the counted ops stay within
/// the predicted ones (vacuously true without both).
fn row(
    name: &str,
    q: &str,
    melems: f64,
    ops: Option<f64>,
    predicted: Option<f64>,
    memory_bits: usize,
) -> bool {
    let within = match (ops, predicted) {
        (Some(o), Some(p)) => o <= p,
        _ => true,
    };
    let ops = ops.map_or_else(|| "-".to_owned(), |o| format!("{o:.2}"));
    let predicted = predicted.map_or_else(|| "-".to_owned(), |o| format!("{o:.2}"));
    println!(
        "{:<22} {:>6} {:>12.2} {:>14} {:>14} {:>12.1}",
        name,
        q,
        melems,
        ops,
        predicted,
        memory_bits as f64 / 8.0 / 1024.0
    );
    within
}

fn main() {
    let scale = cfd_bench::args::parse_or_exit(cfd_bench::args::SCALE_FLAGS, &[]).scale();
    let n = scale.n() / 4; // cost table does not need the full figure N
    let count = (n * 12) as u64;
    let bits_per_elem = 14usize;
    let mut within_prediction = true;

    println!("# Table T1 — per-element cost, {} (N = {n})", scale.label());
    println!(
        "{:<22} {:>6} {:>12} {:>14} {:>14} {:>12}",
        "detector", "Q", "Melem/s", "mem-ops/elem", "thm-predicted", "mem (KiB)"
    );

    for &q in &[8usize, 31, 255] {
        let m = (n / q).max(1) * bits_per_elem;

        let mut gbf = Gbf::new(
            GbfConfig::builder(n, q)
                .filter_bits(m)
                .hash_count(10)
                .build()
                .expect("cfg"),
        )
        .expect("detector");
        let t = throughput(&mut gbf, count, 1);
        let predicted = cfd_analysis::cost::gbf_cost(m, 10, n, q, gbf.lane_words()).total(1.0);
        within_prediction &= row(
            "gbf",
            &q.to_string(),
            t,
            Some(gbf.ops().mem_ops_per_element()),
            Some(predicted),
            gbf.memory_bits(),
        );

        let mut naive = NaiveJumpingBloom::new(n, q, m, 10, 1);
        let t = throughput(&mut naive, count, 2);
        row(
            "naive-separate",
            &q.to_string(),
            t,
            None,
            None,
            naive.memory_bits(),
        );

        let mut met = MetwallyJumping::new(MetwallyConfig {
            n,
            q,
            m,
            k: 10,
            seed: 1,
        });
        let t = throughput(&mut met, count, 3);
        row(
            "metwally[21]",
            &q.to_string(),
            t,
            None,
            None,
            met.memory_bits(),
        );

        let mut jtbf = JumpingTbf::new(
            JumpingTbfConfig::new(n, q, n * bits_per_elem / 12, 10, 1).expect("cfg"),
        )
        .expect("detector");
        let t = throughput(&mut jtbf, count, 4);
        row(
            "jumping-tbf",
            &q.to_string(),
            t,
            Some(jtbf.ops().mem_ops_per_element()),
            None,
            jtbf.memory_bits(),
        );
        println!();
    }

    let mut tbf = Tbf::new(
        TbfConfig::builder(n)
            .entries(n * bits_per_elem / 12)
            .hash_count(10)
            .build()
            .expect("cfg"),
    )
    .expect("detector");
    let t = throughput(&mut tbf, count, 5);
    let tbf_pred = cfd_analysis::cost::tbf_cost(tbf.config().m, 10, tbf.config().c).total(1.0);
    within_prediction &= row(
        "tbf (sliding)",
        "-",
        t,
        Some(tbf.ops().mem_ops_per_element()),
        Some(tbf_pred),
        tbf.memory_bits(),
    );

    let mut stable = StableBloomFilter::new(StableConfig {
        m: n * 2,
        cell_bits: 3,
        k: 6,
        p: 26,
        nominal_window: n,
        seed: 1,
    });
    let t = throughput(&mut stable, count, 6);
    row("stable-bloom[10]", "-", t, None, None, stable.memory_bits());

    let mut exact = ExactSlidingDedup::new(n);
    let t = throughput(&mut exact, count, 7);
    row("exact-sliding", "-", t, None, None, exact.memory_bits());

    println!();
    let mut checks = Checks::default();
    checks.check(
        within_prediction,
        "mem-ops/elem <= thm-predicted where printed",
    );
    checks.finish();
}
