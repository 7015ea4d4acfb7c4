//! Detector-health integration tests: the `DetectorStats` answers must
//! agree with ground truth observable from the outside (verdict tallies,
//! an all-distinct stream's false positives, shard aggregation).

use cfd_core::sharded::{per_shard_window, ShardedDetector};
use cfd_core::tbf_jumping::{JumpingTbf, JumpingTbfConfig};
use cfd_core::{Gbf, GbfConfig, Tbf, TbfConfig};
use cfd_windows::{DetectorStats, DuplicateDetector, Keys, Verdict};

fn gbf(n: usize, q: usize, m: usize, k: usize) -> Gbf {
    Gbf::new(
        GbfConfig::builder(n, q)
            .filter_bits(m)
            .hash_count(k)
            .seed(7)
            .build()
            .unwrap(),
    )
    .unwrap()
}

fn tbf(n: usize, m: usize, k: usize) -> Tbf {
    Tbf::new(
        TbfConfig::builder(n)
            .entries(m)
            .hash_count(k)
            .seed(7)
            .build()
            .unwrap(),
    )
    .unwrap()
}

#[test]
fn observed_counts_match_verdict_tally() {
    let mut d = tbf(256, 1 << 13, 6);
    let mut duplicates = 0u64;
    let total = 5_000u64;
    for i in 0..total {
        if d.observe(&(i % 97).to_le_bytes()) == Verdict::Duplicate {
            duplicates += 1;
        }
    }
    assert_eq!(d.observed_elements(), total);
    assert_eq!(d.observed_duplicates(), duplicates);
    assert!(duplicates > 0, "stream was chosen to contain duplicates");

    let mut g = gbf(256, 8, 1 << 14, 6);
    let mut g_duplicates = 0u64;
    for i in 0..total {
        if g.observe(&(i % 97).to_le_bytes()) == Verdict::Duplicate {
            g_duplicates += 1;
        }
    }
    assert_eq!(g.observed_elements(), total);
    assert_eq!(g.observed_duplicates(), g_duplicates);
}

#[test]
fn gbf_fill_tracks_active_lanes() {
    let (n, q) = (64, 4);
    let mut d = gbf(n, q, 1 << 12, 5);
    assert_eq!(d.fill_ratios().len(), 1, "only the first lane is active");
    for i in 0..(n as u32 * 3) {
        d.observe(&i.to_le_bytes());
    }
    let fills = d.fill_ratios();
    assert_eq!(fills.len(), q, "steady state keeps q lanes active");
    assert!(fills.iter().all(|&f| (0.0..=1.0).contains(&f)));
    assert!(fills.iter().any(|&f| f > 0.0), "inserts must set bits");
    let h = d.health();
    assert_eq!(h.detector, "gbf");
    assert!(h.cleaning_backlog >= 0.0 && h.cleaning_backlog <= 1.0);
    assert!(h.cleaned_entries > 0, "rotations must have wiped lanes");
}

#[test]
fn tbf_sweep_and_occupancy_are_sane() {
    let mut d = tbf(512, 1 << 13, 6);
    for i in 0..5_000u64 {
        d.observe(&i.to_le_bytes());
    }
    let h = d.health();
    assert_eq!(h.detector, "tbf");
    assert!((0.0..1.0).contains(&h.sweep_position));
    assert!(d.active_entries() <= d.occupied_entries());
    // Steady state on a distinct stream: about k * N active entries.
    let expected = 6.0 * 512.0;
    let active = d.active_entries() as f64;
    assert!(
        active <= expected * 1.05,
        "active entries {active} above insertion bound {expected}"
    );
    assert!(h.cleaned_entries > 0, "sweep must be erasing");
}

#[test]
fn online_fp_estimate_predicts_distinct_stream_fp() {
    // All-distinct stream: every Duplicate verdict is a false positive,
    // so the measured FP rate must sit near the occupancy-based
    // estimate. Generous 3x-plus-epsilon bands; this is a cross-check,
    // not a statistics exam.
    let n = 1 << 12;
    let mut d = tbf(n, n * 8, 6);
    let mut fps = 0u64;
    let total = 12 * n as u64;
    let mut estimate_at_steady = 0.0;
    for i in 0..total {
        if d.observe(&i.to_le_bytes()) == Verdict::Duplicate {
            fps += 1;
        }
        if i == total / 2 {
            estimate_at_steady = d.estimated_fp();
        }
    }
    let measured = fps as f64 / total as f64;
    assert!(
        estimate_at_steady > 0.0,
        "steady-state estimate must be positive"
    );
    assert!(
        measured <= estimate_at_steady * 3.0 + 1e-3,
        "measured {measured} far above estimate {estimate_at_steady}"
    );
    assert!(
        estimate_at_steady <= measured * 3.0 + 1e-3,
        "estimate {estimate_at_steady} far above measured {measured}"
    );
}

#[test]
fn gbf_fp_estimate_is_union_of_lane_estimates() {
    let n = 1 << 10;
    let mut d = gbf(n, 8, n * 10, 6);
    for i in 0..(3 * n as u64) {
        d.observe(&i.to_le_bytes());
    }
    let fills = d.fill_ratios();
    let expect: f64 = 1.0 - fills.iter().map(|f| 1.0 - f.powi(6)).product::<f64>();
    assert!((d.estimated_fp() - expect).abs() < 1e-12);
    assert!(d.estimated_fp() > 0.0);
    assert!(d.estimated_fp() < 0.05, "healthy sizing keeps FP small");
}

#[test]
fn jumping_tbf_reports_health() {
    let mut d = JumpingTbf::new(JumpingTbfConfig::new(256, 64, 1 << 13, 6, 3).unwrap()).unwrap();
    for i in 0..4_000u64 {
        // Period 100 < window 256: repeats stay inside the window.
        d.observe(&(i % 100).to_le_bytes());
    }
    let h = d.health();
    assert_eq!(h.detector, "jumping-tbf");
    assert_eq!(h.fill_ratios.len(), 1);
    assert!(h.fill_ratios[0] > 0.0);
    assert!((0.0..1.0).contains(&h.sweep_position));
    assert!(h.observed_duplicates > 0);
    assert!(h.estimated_fp >= 0.0);
}

#[test]
fn hot_paths_never_trigger_occupancy_scans() {
    // The O(m) occupancy passes (fill ratios, active-entry counts) are
    // snapshot-cadence operations; if one creeps into observe or the
    // batch path, per-click cost silently becomes O(m). The scan
    // counters are the regression guard: a pure observe workload must
    // leave them at zero, and only explicit health sampling moves them.
    let mut g = gbf(256, 8, 1 << 14, 6);
    let mut t = tbf(512, 1 << 13, 6);
    let mut j = JumpingTbf::new(JumpingTbfConfig::new(256, 64, 1 << 13, 6, 3).unwrap()).unwrap();
    let keys: Vec<Vec<u8>> = (0..5_000u64)
        .map(|i| (i % 700).to_le_bytes().to_vec())
        .collect();
    let slices: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let flat = keys.concat();
    let mut out = Vec::new();
    for (chunk, flat_chunk) in slices.chunks(257).zip(flat.chunks(257 * 8)) {
        g.observe_keys_into(Keys::Refs(chunk), None, &mut out);
        t.observe_keys_into(Keys::flat(flat_chunk, 8), None, &mut out);
        j.observe_keys_into(Keys::Refs(chunk), None, &mut out);
    }
    for id in &slices[..500] {
        g.observe(id);
        t.observe(id);
        j.observe(id);
    }
    assert_eq!(g.occupancy_scans(), 0, "gbf hot path scanned");
    assert_eq!(t.occupancy_scans(), 0, "tbf hot path scanned");
    assert_eq!(j.occupancy_scans(), 0, "jumping-tbf hot path scanned");

    let _ = g.health();
    let _ = t.health();
    let _ = j.health();
    assert!(g.occupancy_scans() > 0, "gbf health must count its scans");
    assert_eq!(t.occupancy_scans(), 1, "tbf health is one scan");
    assert_eq!(j.occupancy_scans(), 1, "jumping-tbf health is one scan");

    // Sharded composition: hot path stays scan-free and the wrapper
    // reports the sum over shards.
    let shards = 4;
    let n = 1 << 12;
    let mut d = ShardedDetector::from_fn(3, shards, |_| {
        let n_s = per_shard_window(n, shards);
        Tbf::new(
            TbfConfig::builder(n_s)
                .entries(n_s * 10)
                .hash_count(6)
                .build()?,
        )
    })
    .unwrap();
    for chunk in flat.chunks(257 * 8) {
        d.observe_keys_into(Keys::flat(chunk, 8), None, &mut out);
    }
    assert_eq!(d.occupancy_scans(), 0, "sharded hot path scanned");
    let _ = d.health();
    assert_eq!(d.occupancy_scans(), shards as u64);
}

#[test]
fn sharded_health_aggregates_shards() {
    let shards = 4;
    let n = 1 << 12;
    let mut d = ShardedDetector::from_fn(3, shards, |_| {
        let n_s = per_shard_window(n, shards);
        Tbf::new(
            TbfConfig::builder(n_s)
                .entries(n_s * 10)
                .hash_count(6)
                .build()?,
        )
    })
    .unwrap();
    let total = 10_000u64;
    for i in 0..total {
        d.observe(&(i % 3_000).to_le_bytes());
    }
    let h = d.health();
    assert_eq!(h.detector, "sharded");
    assert_eq!(h.fill_ratios.len(), shards, "one fill entry per TBF shard");
    assert_eq!(h.observed_elements, total);
    let per_shard: u64 = d
        .shards()
        .iter()
        .map(DetectorStats::observed_duplicates)
        .sum();
    assert_eq!(h.observed_duplicates, per_shard);
    assert!(h.duplicate_rate() > 0.0);
}
