//! Property tests for the blocked probe layout: whatever the stream,
//! blocked mode keeps the paper's one-sided guarantees (Theorems 1 & 2)
//! and the batch path is a pure optimization.
//!
//! False negatives are counted *self-consistently* (paper Definition 1,
//! same as `tests/common` at the workspace root): a click is a false
//! negative iff the detector previously determined an identical click
//! valid within the current window and still answers `Distinct`. An
//! earlier false positive blocks an insertion, so a later `Distinct` on
//! that key is consistent — and blocked mode trades FP rate for speed,
//! so that chain is more common than in scattered mode.

use cfd_core::config::ProbeLayout;
use cfd_core::{Gbf, GbfConfig, Tbf, TbfConfig};
use cfd_windows::{DuplicateDetector, Keys, Verdict};
use proptest::prelude::*;
use std::collections::{HashSet, VecDeque};

fn blocked_tbf(n: usize, m: usize, k: usize, seed: u64) -> Tbf {
    Tbf::new(
        TbfConfig::builder(n)
            .entries(m)
            .hash_count(k)
            .seed(seed)
            .probe(ProbeLayout::Blocked)
            .build()
            .expect("valid blocked tbf config"),
    )
    .expect("valid blocked tbf")
}

fn blocked_gbf(n: usize, q: usize, m: usize, k: usize, seed: u64) -> Gbf {
    Gbf::new(
        GbfConfig::builder(n, q)
            .filter_bits(m)
            .hash_count(k)
            .seed(seed)
            .probe(ProbeLayout::Blocked)
            .build()
            .expect("valid blocked gbf config"),
    )
    .expect("valid blocked gbf")
}

/// Self-consistent sliding-window false negatives (see module docs).
fn sliding_false_negatives<D: DuplicateDetector>(
    detector: &mut D,
    n: usize,
    keys: impl Iterator<Item = Vec<u8>>,
) -> u64 {
    let mut ring: VecDeque<(Vec<u8>, bool)> = VecDeque::with_capacity(n);
    let mut valid: HashSet<Vec<u8>> = HashSet::new();
    let mut false_negatives = 0u64;
    for key in keys {
        let dup = detector.observe(&key).is_duplicate();
        if ring.len() == n {
            let (old, was_valid) = ring.pop_front().expect("ring full");
            if was_valid {
                valid.remove(&old);
            }
        }
        if !dup && valid.contains(&key) {
            false_negatives += 1;
        }
        let counts_as_valid = !dup && !valid.contains(&key);
        if counts_as_valid {
            valid.insert(key.clone());
        }
        ring.push_back((key, counts_as_valid));
    }
    false_negatives
}

/// Self-consistent jumping-window false negatives.
fn jumping_false_negatives<D: DuplicateDetector>(
    detector: &mut D,
    n: usize,
    q: usize,
    keys: impl Iterator<Item = Vec<u8>>,
) -> u64 {
    let sub_len = n.div_ceil(q);
    let mut subs: VecDeque<HashSet<Vec<u8>>> = VecDeque::new();
    subs.push_back(HashSet::new());
    let mut filled = 0usize;
    let mut false_negatives = 0u64;
    for key in keys {
        let dup = detector.observe(&key).is_duplicate();
        let known = subs.iter().any(|s| s.contains(&key));
        if !dup && known {
            false_negatives += 1;
        }
        if !dup && !known {
            subs.back_mut().expect("non-empty").insert(key);
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
    false_negatives
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocked TBF never misses a click it previously validated inside
    /// the sliding window — Theorem 2's zero-FN survives the layout
    /// change (same deterministic cells written and probed per key).
    #[test]
    fn blocked_tbf_has_zero_false_negatives(
        seed in 0u64..1000,
        period in 3u64..120,
        n_shift in 4usize..9,
        stream in 1000u64..4000,
    ) {
        let n = 1 << n_shift;
        let mut d = blocked_tbf(n, 1 << 13, 6, seed);
        let keys = (0..stream).map(|i| (i % period).to_le_bytes().to_vec());
        prop_assert_eq!(sliding_false_negatives(&mut d, n, keys), 0);
    }

    /// Blocked GBF never misses a click it previously validated inside
    /// the jumping window (Theorem 1), even at starved sizings where
    /// blocked false positives are frequent.
    #[test]
    fn blocked_gbf_has_zero_false_negatives(
        seed in 0u64..1000,
        period in 3u64..120,
        stream in 1000u64..4000,
        m_factor in 3usize..40,
    ) {
        let (n, q) = (256, 8);
        let mut d = blocked_gbf(n, q, (n / q) * m_factor, 6, seed);
        let keys = (0..stream).map(|i| (i % period).to_le_bytes().to_vec());
        prop_assert_eq!(jumping_false_negatives(&mut d, n, q, keys), 0);
    }

    /// The batch path is verdict-identical to per-click observe for any
    /// chunking, in both layouts and over both key views.
    #[test]
    fn batch_equals_sequential_any_chunking(
        seed in 0u64..1000,
        period in 3u64..400,
        chunk in 1usize..300,
        blocked in any::<bool>(),
        flat_view in any::<bool>(),
    ) {
        let keys: Vec<[u8; 8]> = (0..2500u64).map(|i| (i % period).to_le_bytes()).collect();
        let slices: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let flat = keys.as_flattened();
        let probe = if blocked { ProbeLayout::Blocked } else { ProbeLayout::Scattered };
        let cfg = TbfConfig::builder(128)
            .entries(1 << 13)
            .hash_count(5)
            .seed(seed)
            .probe(probe)
            .build()
            .expect("cfg");
        let mut sequential = Tbf::new(cfg).expect("tbf");
        let mut batched = Tbf::new(cfg).expect("tbf");
        let want: Vec<Verdict> = slices.iter().map(|id| sequential.observe(id)).collect();
        let (mut got, mut out) = (Vec::new(), Vec::new());
        for (c, fc) in slices.chunks(chunk).zip(flat.chunks(chunk * 8)) {
            let keys = if flat_view { Keys::flat(fc, 8) } else { Keys::Refs(c) };
            batched.observe_keys_into(keys, None, &mut out);
            got.extend_from_slice(&out);
        }
        prop_assert_eq!(got, want);
    }

    /// Layout parity: scattered and blocked may disagree only through
    /// extra false positives — under the self-consistent definition
    /// both uphold zero false negatives on the same stream.
    #[test]
    fn scattered_and_blocked_agree_on_true_duplicates(
        seed in 0u64..1000,
        period in 3u64..100,
    ) {
        let n = 128;
        let scattered_cfg = TbfConfig::builder(n)
            .entries(1 << 13)
            .hash_count(6)
            .seed(seed)
            .build()
            .expect("cfg");
        let mut scattered = Tbf::new(scattered_cfg).expect("tbf");
        let mut blocked = blocked_tbf(n, 1 << 13, 6, seed);
        let keys: Vec<Vec<u8>> = (0..2000u64).map(|i| (i % period).to_le_bytes().to_vec()).collect();
        prop_assert_eq!(
            sliding_false_negatives(&mut scattered, n, keys.iter().cloned()),
            0
        );
        prop_assert_eq!(
            sliding_false_negatives(&mut blocked, n, keys.iter().cloned()),
            0
        );
    }
}
