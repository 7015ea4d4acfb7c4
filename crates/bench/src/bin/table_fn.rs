//! Table T2 (Theorems 1.1 & 2.1): zero-false-negative verification.
//!
//! Runs every detector over adversarial duplicate-heavy streams next to
//! an oracle of its own verdict history (paper Definition 1: a false
//! negative is a repeat of a click *the detector itself determined
//! valid* within the window that it nevertheless calls `Distinct`). The
//! streaming detectors must print 0 in the `false-neg` column; the
//! Stable Bloom Filter baseline \[10\] shows why the theorem is
//! non-trivial — its random eviction misses repeats (tens of thousands
//! on the injected stream; few or none on the botnet stream, whose
//! bots repeat faster than it evicts). The binary exits with status 1
//! if a streaming detector shows a false negative or the Stable Bloom
//! Filter shows none over both streams.
//!
//! ```text
//! cargo run --release -p cfd-bench --bin table_fn [--paper|--smoke]
//! ```

use cfd_bench::Checks;
use cfd_bloom::stable::{StableBloomFilter, StableConfig};
use cfd_core::tbf_jumping::{JumpingTbf, JumpingTbfConfig};
use cfd_core::{Gbf, GbfConfig, Tbf, TbfConfig};
use cfd_stream::{BotnetConfig, BotnetStream, DuplicateInjector, UniqueClickStream};
use cfd_windows::{DuplicateDetector, Verdict};
use std::collections::{HashSet, VecDeque};

/// Counts self-consistent false negatives and duplicates over a sliding
/// window of `n` (jumping detectors are checked against their jumping
/// coverage via `sub_len`).
fn run_check<D: DuplicateDetector + ?Sized>(
    d: &mut D,
    keys: &[Vec<u8>],
    n: usize,
    sub_windows: Option<usize>,
) -> (u64, u64) {
    let mut false_negatives = 0u64;
    let mut duplicates = 0u64;
    match sub_windows {
        None => {
            let mut ring: VecDeque<(Vec<u8>, bool)> = VecDeque::with_capacity(n);
            let mut valid: HashSet<Vec<u8>> = HashSet::new();
            for key in keys {
                let dup = d.observe(key) == Verdict::Duplicate;
                duplicates += u64::from(dup);
                if ring.len() == n {
                    let (old, was_valid) = ring.pop_front().expect("full");
                    if was_valid {
                        valid.remove(&old);
                    }
                }
                if !dup && valid.contains(key) {
                    false_negatives += 1;
                }
                let fresh = !dup && !valid.contains(key);
                if fresh {
                    valid.insert(key.clone());
                }
                ring.push_back((key.clone(), fresh));
            }
        }
        Some(q) => {
            let sub_len = n.div_ceil(q);
            let mut subs: VecDeque<HashSet<Vec<u8>>> = VecDeque::new();
            subs.push_back(HashSet::new());
            let mut filled = 0usize;
            for key in keys {
                let dup = d.observe(key) == Verdict::Duplicate;
                duplicates += u64::from(dup);
                let known = subs.iter().any(|s| s.contains(key));
                if !dup && known {
                    false_negatives += 1;
                }
                if !dup && !known {
                    subs.back_mut().expect("non-empty").insert(key.clone());
                }
                filled += 1;
                if filled == sub_len {
                    filled = 0;
                    subs.push_back(HashSet::new());
                    if subs.len() > q {
                        subs.pop_front();
                    }
                }
            }
        }
    }
    (false_negatives, duplicates)
}

fn main() {
    let scale = cfd_bench::args::parse_or_exit(cfd_bench::args::SCALE_FLAGS, &[]).scale();
    let mut checks = Checks::default();
    let mut stable_misses = 0;
    let n = scale.n() / 16;
    let q = 8usize;
    let clicks = 40 * n;

    // Two adversarial streams.
    let injected: Vec<Vec<u8>> =
        DuplicateInjector::new(UniqueClickStream::new(5, 8, 64), 0.35, n, 7)
            .take(clicks)
            .map(|c| c.key().to_vec())
            .collect();
    let botnet: Vec<Vec<u8>> = BotnetStream::new(
        BotnetConfig {
            bots: 256,
            attack_fraction: 0.5,
            ..BotnetConfig::default()
        },
        8,
        64,
    )
    .take(clicks)
    .map(|c| c.click.key().to_vec())
    .collect();

    println!(
        "# Table T2 — zero-false-negative verification, {} (N = {n}, {} clicks/stream)",
        scale.label(),
        clicks
    );
    println!(
        "{:<22} {:<10} {:>12} {:>12}",
        "detector", "stream", "duplicates", "false-neg"
    );

    for (stream_name, keys) in [("injected", &injected), ("botnet", &botnet)] {
        // Memory-starved configurations on purpose: FP pressure maximal.
        let mut tbf = Tbf::new(
            TbfConfig::builder(n)
                .entries(n * 2)
                .hash_count(4)
                .build()
                .expect("cfg"),
        )
        .expect("detector");
        let (fns, dups) = run_check(&mut tbf, keys, n, None);
        println!("{:<22} {:<10} {:>12} {:>12}", "tbf", stream_name, dups, fns);
        checks.check(fns == 0, format_args!("tbf {stream_name}: no false neg"));

        let mut gbf = Gbf::new(
            GbfConfig::builder(n, q)
                .filter_bits(n / q * 3)
                .hash_count(3)
                .build()
                .expect("cfg"),
        )
        .expect("detector");
        let (fns, dups) = run_check(&mut gbf, keys, n, Some(q));
        println!("{:<22} {:<10} {:>12} {:>12}", "gbf", stream_name, dups, fns);
        checks.check(fns == 0, format_args!("gbf {stream_name}: no false neg"));

        let mut jtbf = JumpingTbf::new(JumpingTbfConfig::new(n, 64, n * 2, 4, 3).expect("cfg"))
            .expect("detector");
        let (fns, dups) = run_check(&mut jtbf, keys, n, Some(64));
        println!(
            "{:<22} {:<10} {:>12} {:>12}",
            "jumping-tbf", stream_name, dups, fns
        );
        checks.check(
            fns == 0,
            format_args!("jumping-tbf {stream_name}: no false neg"),
        );

        let mut stable = StableBloomFilter::new(StableConfig {
            m: n * 2,
            cell_bits: 3,
            k: 4,
            p: 26,
            nominal_window: n,
            seed: 1,
        });
        let (fns, dups) = run_check(&mut stable, keys, n, None);
        println!(
            "{:<22} {:<10} {:>12} {:>12}",
            "stable-bloom[10]", stream_name, dups, fns
        );
        stable_misses += fns;
        println!();
    }
    checks.check(
        stable_misses > 0,
        "stable-bloom misses repeats over both streams",
    );
    checks.finish();
}
