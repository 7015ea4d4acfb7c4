//! Pinned verdict digests of the jumping-window TBF.
//!
//! `JumpingTbf` is a `TimeTbf` whose time unit is one sub-window of
//! arrivals (§4.1: "all elements in the same sub-window will have the
//! same timestamp"). The digests, memory figures and the committed
//! kind-8 checkpoint below were taken from the earlier stand-alone
//! implementation; the arrival-clocked form must reproduce all of them,
//! and must resume a checkpoint that implementation wrote.

use cfd_core::registry;
use cfd_core::tbf_jumping::{JumpingTbf, JumpingTbfConfig};
use cfd_core::{CheckpointState, ProbeLayout};
use cfd_windows::{DuplicateDetector, Verdict};

const CLICKS: usize = 1 << 18;
/// Share of clicks that repeat an earlier click, in percent.
const DUP_PERCENT: u64 = 30;
/// Largest lag (in clicks) at which a duplicate repeats its original:
/// past both windows below, so repeats land inside and outside them.
const MAX_LAG: u64 = 6_000;

/// A kind-8 checkpoint of [`fixture_detector`] after the first
/// [`FIXTURE_PREFIX`] clicks of `click_ids(FIXTURE_SEED)`.
const FIXTURE: &[u8] = include_bytes!("fixtures/jumping_tbf_kind8.cfds");
const FIXTURE_SEED: u64 = 5;
const FIXTURE_PREFIX: usize = 5_000;
const FIXTURE_SUFFIX: usize = 20_000;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Click ids: fresh ids, with `DUP_PERCENT`% repeating the id seen
/// `1..=MAX_LAG` clicks earlier.
fn click_ids(seed: u64, count: usize) -> Vec<[u8; 8]> {
    let mut state = seed;
    let mut ids: Vec<[u8; 8]> = Vec::with_capacity(count);
    for i in 0..count {
        let r = splitmix64(&mut state);
        let lag = 1 + (r >> 32) % MAX_LAG;
        let id = if r % 100 < DUP_PERCENT && lag as usize <= i {
            ids[i - lag as usize]
        } else {
            splitmix64(&mut state).to_le_bytes()
        };
        ids.push(id);
    }
    ids
}

/// FNV-1a over one byte per verdict (1 = duplicate).
fn fnv1a(verdicts: impl IntoIterator<Item = Verdict>) -> u64 {
    verdicts.into_iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
        (h ^ u64::from(v == Verdict::Duplicate)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn jumping_tbf(
    n: usize,
    q: usize,
    m: usize,
    k: usize,
    seed: u64,
    probe: ProbeLayout,
) -> JumpingTbf {
    let cfg = JumpingTbfConfig::new(n, q, m, k, seed)
        .and_then(|c| c.with_probe(probe))
        .expect("valid jumping-TBF geometry");
    JumpingTbf::new(cfg).expect("valid jumping-TBF geometry")
}

fn fixture_detector() -> JumpingTbf {
    jumping_tbf(1_000, 7, 4_096, 6, 11, ProbeLayout::Scattered)
}

#[test]
fn jumping_tbf_verdict_digests_are_pinned() {
    // Q divides N: 16 sub-windows of 256 arrivals, judged in batches.
    let ids = click_ids(17, CLICKS);
    let refs: Vec<&[u8]> = ids.iter().map(<[u8; 8]>::as_slice).collect();
    let mut d = jumping_tbf(4_096, 16, 14 * 4_096, 10, 3, ProbeLayout::Scattered);
    let mut verdicts = Vec::with_capacity(CLICKS);
    for batch in refs.chunks(256) {
        verdicts.extend(d.observe_batch(batch));
    }
    assert_eq!(d.memory_bits(), 344_064);
    assert_eq!(fnv1a(verdicts), 0xebb0_cba8_0bb2_ba3d);

    // Q does not divide N: 7 sub-windows of 143 arrivals (1001 > N), one
    // click at a time, blocked probes.
    let ids = click_ids(29, CLICKS);
    let mut d = jumping_tbf(1_000, 7, 14 * 1_000, 10, 4, ProbeLayout::Blocked);
    let verdicts: Vec<Verdict> = ids.iter().map(|id| d.observe(id)).collect();
    assert_eq!(d.memory_bits(), 56_000);
    assert_eq!(fnv1a(verdicts), 0x2dbc_e874_e3fe_bb97);
}

#[test]
fn earlier_kind8_checkpoint_resumes_with_the_pinned_digest() {
    let ids = click_ids(FIXTURE_SEED, FIXTURE_PREFIX + FIXTURE_SUFFIX);
    let suffix = &ids[FIXTURE_PREFIX..];
    let want = 0x4695_7e7e_de24_cb4b;

    let mut restored = JumpingTbf::restore(FIXTURE).expect("kind-8 fixture restores");
    assert_eq!(restored.config(), fixture_detector().config());
    assert_eq!(fnv1a(suffix.iter().map(|id| restored.observe(id))), want);

    let mut via_registry = registry::restore_any(FIXTURE).expect("restore_any takes kind 8");
    assert_eq!(via_registry.name(), "jumping-tbf");
    assert_eq!(
        fnv1a(suffix.iter().map(|id| via_registry.observe(id))),
        want
    );

    // A fresh detector fed the same prefix continues identically, and its
    // own checkpoint round-trips.
    let mut fresh = fixture_detector();
    for id in &ids[..FIXTURE_PREFIX] {
        fresh.observe(id);
    }
    let mut again = JumpingTbf::restore(&CheckpointState::checkpoint(&fresh)).expect("roundtrip");
    assert_eq!(fnv1a(suffix.iter().map(|id| fresh.observe(id))), want);
    assert_eq!(fnv1a(suffix.iter().map(|id| again.observe(id))), want);
}

#[test]
fn corrupted_kind8_checkpoints_fail_cleanly() {
    // Header: magic, version, kind (7 bytes), then the seven config and
    // five clock fields and the word count. Any single bit flip, or any
    // 8-byte field forced to all-ones, must restore or fail, never panic.
    const HEADER: usize = 7 + 6 * 8 + 1 + 6 * 8;
    for at in 7..HEADER {
        for bit in 0..8 {
            let mut buf = FIXTURE.to_vec();
            buf[at] ^= 1 << bit;
            let _ = JumpingTbf::restore(&buf);
        }
    }
    for field in (7..55).step_by(8).chain((56..HEADER).step_by(8)) {
        let mut buf = FIXTURE.to_vec();
        buf[field..field + 8].fill(0xFF);
        let _ = JumpingTbf::restore(&buf);
    }
}
