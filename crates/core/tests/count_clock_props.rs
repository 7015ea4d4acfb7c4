//! A count window is a time window whose clock is the arrival index
//! (§3.1, §4.1): fed tick `i` for the `i`-th click, the time detectors
//! must judge every click exactly as their count twins do.
//!
//! * `Tbf` over `N` ≡ `TimeTbf` with `R = N` units of one tick;
//! * `Gbf` over `N` in `Q` sub-windows ≡ `TimeGbf` with `Q` sub-windows
//!   of `⌈N/Q⌉` one-tick units.
//!
//! Both pairs share the hash family and table size, so in the scattered
//! layout the verdict streams must be bit-identical — false positives
//! included — whether or not `Q` divides `N`.

use cfd_core::{Gbf, GbfConfig, Tbf, TbfConfig, TimeGbf, TimeGbfConfig, TimeTbf, TimeTbfConfig};
use cfd_windows::{DuplicateDetector, Keys, Verdict};
use proptest::prelude::*;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` ids, a third of them repeating the id seen up to `3n` clicks
/// earlier, so repeats land both inside and past the window.
fn click_ids(seed: u64, count: usize, n: usize) -> Vec<[u8; 8]> {
    let mut state = seed;
    let mut ids: Vec<[u8; 8]> = Vec::with_capacity(count);
    for i in 0..count {
        let r = splitmix64(&mut state);
        let lag = 1 + (r >> 32) as usize % (3 * n);
        let id = if r.is_multiple_of(3) && lag <= i {
            ids[i - lag]
        } else {
            splitmix64(&mut state).to_le_bytes()
        };
        ids.push(id);
    }
    ids
}

/// Judges `ids` through both detectors, the time one at tick = arrival
/// index, in batches of `batch`.
fn both_streams(
    count: &mut dyn DuplicateDetector,
    timed: &mut dyn DuplicateDetector,
    ids: &[[u8; 8]],
    batch: usize,
) -> (Vec<Verdict>, Vec<Verdict>) {
    let flat = ids.as_flattened();
    let ticks: Vec<u64> = (0..ids.len() as u64).collect();
    let (mut want, mut got, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for (group, tc) in flat.chunks(batch * 8).zip(ticks.chunks(batch)) {
        count.observe_keys_into(Keys::flat(group, 8), None, &mut out);
        want.extend_from_slice(&out);
        timed.observe_keys_into(Keys::flat(group, 8), Some(tc), &mut out);
        got.extend_from_slice(&out);
    }
    (want, got)
}

/// Count windows `N` for the TBF pair.
const TBF_WINDOWS: [usize; 4] = [64, 100, 1000, 1024];
/// `(N, Q)` for the GBF pair: `Q` divides `N` in half of them.
const GBF_WINDOWS: [(usize, usize); 6] =
    [(64, 8), (100, 8), (1000, 8), (1024, 8), (999, 4), (4096, 4)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tbf_equals_time_tbf_on_the_arrival_clock(
        seed in 0u64..1_000,
        geometry in 0..TBF_WINDOWS.len(),
        cells in 2usize..8,
        k in 2usize..8,
        batch in 1usize..300,
    ) {
        let n = TBF_WINDOWS[geometry];
        let m = n * cells;
        let mut tbf = Tbf::new(
            TbfConfig::builder(n).entries(m).hash_count(k).seed(seed).build().unwrap(),
        ).unwrap();
        let mut timed = TimeTbf::new(TimeTbfConfig::new(n as u64, 1, m, k, seed).unwrap()).unwrap();
        let ids = click_ids(seed, 12 * n, n);
        let (want, got) = both_streams(&mut tbf, &mut timed, &ids, batch);
        prop_assert!(want.contains(&Verdict::Duplicate));
        prop_assert_eq!(want, got);
    }

    #[test]
    fn gbf_equals_time_gbf_on_the_arrival_clock(
        seed in 0u64..1_000,
        geometry in 0..GBF_WINDOWS.len(),
        cells in 2usize..8,
        k in 2usize..8,
        batch in 1usize..300,
    ) {
        let (n, q) = GBF_WINDOWS[geometry];
        let sub_len = n.div_ceil(q);
        let m = sub_len * cells;
        let mut gbf = Gbf::new(
            GbfConfig::builder(n, q).filter_bits(m).hash_count(k).seed(seed).build().unwrap(),
        ).unwrap();
        let mut timed = TimeGbf::new(
            TimeGbfConfig::new(q, sub_len as u64, 1, m, k, seed).unwrap(),
        ).unwrap();
        let ids = click_ids(seed, 12 * n, n);
        let (want, got) = both_streams(&mut gbf, &mut timed, &ids, batch);
        prop_assert!(want.contains(&Verdict::Duplicate));
        prop_assert_eq!(want, got);
    }
}

/// Why `Tbf` cannot yet be deleted in favour of `TimeTbf`: at a
/// power-of-two `N` the time detector's `R + C = 2N` stamp range needs
/// one more bit per entry than the count detector's, so equal verdicts
/// cost more memory.
#[test]
fn time_tbf_spends_one_more_bit_per_entry_at_power_of_two_n() {
    let (n, m) = (1024, 14 * 1024);
    let tbf = Tbf::new(TbfConfig::builder(n).entries(m).build().unwrap()).unwrap();
    let timed = TimeTbf::new(TimeTbfConfig::new(n as u64, 1, m, 10, 0).unwrap()).unwrap();
    assert_eq!(tbf.memory_bits(), 157_696);
    assert_eq!(timed.memory_bits(), 172_032);
}
