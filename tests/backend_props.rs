//! Backend-agnostic differential property harness.
//!
//! Earlier PRs grew one property file per detector; this harness runs
//! the whole matrix from a single parameterized loop over
//! [`cfd_core::registry::backends`], so a backend registered there is
//! automatically held to the full contract. Every stream is fed one
//! click per tick; count windows ignore the ticks, and the shared
//! geometry sizes time windows to span the same `N` clicks.
//!
//! 1. **Zero false negatives** under its own window model (sliding or
//!    jumping, count or time, chosen from `window()`), in the
//!    self-consistent Definition-1 sense of `tests/common`.
//! 2. **Batch ≡ sequential**: `observe_batch` under arbitrary chunking,
//!    the flat-key `observe_flat_into` path, and its tick-carrying
//!    `observe_flat_at_into` twin under arbitrary (even decreasing)
//!    ticks are verdict-for-verdict identical to per-click `observe`
//!    (`observe_at`, at the same ticks, for time windows).
//! 3. **Layout differential**: the blocked layout is a probe-placement
//!    change, not a semantic one — verdicts may differ from scattered
//!    only through one-sided false positives, so both layouts stay
//!    zero-FN (property 1 covers each) and their verdict streams agree
//!    on all but a small FP-explainable fraction.
//! 4. **Checkpoint round-trip**: `checkpoint` →
//!    [`cfd_core::registry::restore_any`] (and the entry's own
//!    `restore`) resumes a detector that continues verdict-for-verdict
//!    identically to the original.
//! 5. **SIMD ≡ scalar**: the AVX2 probe/clean kernels are a dispatch
//!    decision, not a semantic one — the same stream judged with the
//!    wide kernels forced off and on is verdict-for-verdict identical
//!    for every backend in both layouts.

mod common;

use cfd_core::config::ProbeLayout;
use cfd_core::registry::{self, BackendGeometry, MemorySpec};
use cfd_core::{ArenaConfig, CheckpointState, TenantArena};
use cfd_stream::{
    BotnetConfig, BotnetStream, DuplicateInjector, TenantTraffic, TenantTrafficConfig,
    UniqueClickStream, TENANT_KEY_LEN,
};
use cfd_windows::exact_time::{ExactTimeJumpingDedup, ExactTimeSlidingDedup};
use cfd_windows::{DuplicateDetector, Verdict, WindowSpec};
use proptest::prelude::*;
use std::sync::Mutex;

/// Window length shared by every property: small enough that a few
/// thousand keys cross many window turnovers.
const N: usize = 512;

/// Time geometry: 64 units (time-tbf), or 4 sub-windows of 16 units
/// (time-gbf), of 8 ticks — `N` ticks, so `N` clicks at one per tick.
const WINDOW_UNITS: u64 = 64;
const SUB_UNITS: u64 = 16;
const UNIT_TICKS: u64 = 8;

/// Both probe layouts, the inner axis of every loop.
const LAYOUTS: [ProbeLayout; 2] = [ProbeLayout::Scattered, ProbeLayout::Blocked];

/// The shared equal-budget geometry. 64 bits per window element funds
/// every registered backend's minimum shape (and leaves FPs frequent —
/// the stress the zero-FN property wants); the layout differential
/// instead passes a budget where FPs are rare, so disagreement stays a
/// sliver.
fn geometry(seed: u64, layout: ProbeLayout, bits_per_element: usize) -> BackendGeometry {
    BackendGeometry::new(N, MemorySpec::TotalBits(N * bits_per_element))
        .with_sub_windows(4)
        .with_hash_count(4)
        .with_seed(seed)
        .with_probe(layout)
        .with_time_units(WINDOW_UNITS, SUB_UNITS, UNIT_TICKS)
}

/// Duplicate-heavy keys: 40% re-clicks within a short gap, so every
/// window sees genuine duplicates.
fn injected_keys(seed: u64, count: usize) -> Vec<Vec<u8>> {
    DuplicateInjector::new(UniqueClickStream::new(seed, 4, 32), 0.4, 300, seed ^ 5)
        .take(count)
        .map(|c| c.key().to_vec())
        .collect()
}

/// Botnet keys: few identities, extreme repetition.
fn botnet_keys(seed: u64, count: usize) -> Vec<Vec<u8>> {
    BotnetStream::new(
        BotnetConfig {
            bots: 48,
            attack_fraction: 0.5,
            seed,
            ..BotnetConfig::default()
        },
        4,
        16,
    )
    .take(count)
    .map(|c| c.click.key().to_vec())
    .collect()
}

/// Fixed-stride 8-byte keys with forced repeats (`space` distinct ids),
/// packed flat for the `observe_flat_into` parity check.
fn flat_keys(seed: u64, count: usize, space: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut out = Vec::with_capacity(count * 8);
    for _ in 0..count {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.extend_from_slice(&((x >> 16) % space).to_le_bytes());
    }
    out
}

/// Shared tenant geometry for the arena properties: a 32-element
/// window per tenant at the same 299-entry/6-bit region shape the
/// bench budgets, deliberately under-provisioned at 8 initial slots so
/// a 64-tenant stream forces the slab through several growth doublings
/// mid-property.
fn arena_config(seed: u64, layout: ProbeLayout) -> ArenaConfig {
    ArenaConfig::new(32, 299, 4, seed)
        .with_initial_slots(8)
        .with_probe(layout)
}

/// Both layouts that the shared tenant geometry supports (blocked is
/// skipped if no cache-line block shape exists for the entry shape).
fn arena_layouts(seed: u64) -> Vec<ArenaConfig> {
    LAYOUTS
        .iter()
        .map(|&layout| arena_config(seed, layout))
        .filter(|cfg| cfg.probe == ProbeLayout::Scattered || cfg.block_geometry().is_some())
        .collect()
}

/// A Zipf-skewed multi-tenant key stream: 64 tenants, bursty runs,
/// 20% injected adjacent duplicates.
fn tenant_keys(seed: u64, count: usize) -> Vec<[u8; TENANT_KEY_LEN]> {
    TenantTraffic::new(TenantTrafficConfig {
        tenants: 64,
        skew: 1.0,
        duplicate_rate: 0.2,
        run_len: 3,
        seed,
    })
    .take(count)
    .collect()
}

/// The tenant prefix (first eight key bytes) as a sort key.
fn tenant_of(key: &[u8; TENANT_KEY_LEN]) -> u64 {
    u64::from_le_bytes(key[..8].try_into().unwrap())
}

/// The time-window form of `tests/common`'s self-consistent oracles,
/// one click per tick (click `i` at tick `i`):
/// `oracle` is an exact detector of the same window that is shown only
/// the clicks `detector` judged valid, so a `Distinct` verdict on a
/// click the oracle still holds inside its window is a false negative.
fn time_false_negatives<D: DuplicateDetector>(
    detector: &mut D,
    mut oracle: impl DuplicateDetector,
    keys: impl Iterator<Item = Vec<u8>>,
) -> u64 {
    let mut false_negatives = 0u64;
    for (tick, key) in (0u64..).zip(keys) {
        if detector.observe_at(&key, tick) == Verdict::Distinct
            && oracle.observe_at(&key, tick) == Verdict::Duplicate
        {
            false_negatives += 1;
        }
    }
    false_negatives
}

/// Runs the self-consistent false-negative oracle matching the
/// detector's own window model.
fn false_negatives<D: DuplicateDetector>(d: &mut D, keys: impl Iterator<Item = Vec<u8>>) -> u64 {
    match d.window() {
        WindowSpec::Sliding { n } | WindowSpec::Landmark { n } => {
            common::sliding_false_negatives(d, n, keys)
        }
        WindowSpec::Jumping { n, q } => common::jumping_false_negatives(d, n, q, keys),
        WindowSpec::TimeSliding { .. } => time_false_negatives(
            d,
            ExactTimeSlidingDedup::new(WINDOW_UNITS, UNIT_TICKS),
            keys,
        ),
        WindowSpec::TimeJumping { q, .. } => time_false_negatives(
            d,
            ExactTimeJumpingDedup::new(q, SUB_UNITS, UNIT_TICKS),
            keys,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property 1: every backend, in both layouts, never contradicts
    /// its own prior "valid" verdicts within its window model.
    #[test]
    fn every_backend_zero_false_negatives(seed in 0u64..1_000) {
        let mut keys = injected_keys(seed, 3_000);
        keys.extend(botnet_keys(seed, 3_000));
        for entry in registry::backends() {
            for layout in LAYOUTS {
                let mut d = entry
                    .build(&geometry(seed, layout, 64))
                    .expect("registered backend builds at the shared budget");
                let fns = false_negatives(&mut d, keys.iter().cloned());
                prop_assert_eq!(
                    fns, 0,
                    "{} ({layout:?}): {} false negatives", entry.name, fns
                );
            }
        }
    }

    /// Property 2: batching — ref-slice chunks of arbitrary size and
    /// the flat fixed-stride path — is a pure throughput knob; ticks are
    /// ignored by count windows and honoured per click by time windows.
    #[test]
    fn every_backend_batch_matches_observe(
        seed in 0u64..1_000,
        chunk in 1usize..300,
    ) {
        let flat = flat_keys(seed, 4_000, 700);
        let keys: Vec<Vec<u8>> = flat.chunks_exact(8).map(<[u8]>::to_vec).collect();
        for entry in registry::backends() {
            for layout in LAYOUTS {
                let geo = geometry(seed, layout, 64);
                let mut seq = entry.build(&geo).expect("build");
                let mut by_refs = entry.build(&geo).expect("build");
                let mut by_flat = entry.build(&geo).expect("build");

                let sequential: Vec<_> = keys.iter().map(|k| seq.observe(k)).collect();

                let mut via_refs = Vec::with_capacity(keys.len());
                for group in keys.chunks(chunk) {
                    let refs: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
                    via_refs.extend(by_refs.observe_batch(&refs));
                }
                prop_assert_eq!(
                    &sequential, &via_refs,
                    "{} ({layout:?}): observe_batch diverged", entry.name
                );

                let mut via_flat = Vec::with_capacity(keys.len());
                let mut out = Vec::new();
                for group in flat.chunks(chunk * 8) {
                    by_flat.observe_flat_into(group, 8, &mut out);
                    via_flat.extend_from_slice(&out);
                }
                prop_assert_eq!(
                    &sequential, &via_flat,
                    "{} ({layout:?}): observe_flat_into diverged", entry.name
                );

                // Arbitrary ticks, decreasing ones included: count windows
                // ignore them, time windows judge each click at its tick
                // exactly as the per-click path does.
                let mut by_flat_at = entry.build(&geo).expect("build");
                let ticks: Vec<u64> = (0..keys.len() as u64)
                    .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40)
                    .collect();
                let sequential_at: Vec<_> = if entry.timed {
                    let mut seq_at = entry.build(&geo).expect("build");
                    keys.iter().zip(&ticks).map(|(k, &t)| seq_at.observe_at(k, t)).collect()
                } else {
                    sequential.clone()
                };
                let mut via_flat_at = Vec::with_capacity(keys.len());
                for (group, tc) in flat.chunks(chunk * 8).zip(ticks.chunks(chunk)) {
                    by_flat_at.observe_flat_at_into(group, 8, tc, &mut out);
                    via_flat_at.extend_from_slice(&out);
                }
                prop_assert_eq!(
                    &sequential_at, &via_flat_at,
                    "{} ({layout:?}): observe_flat_at_into diverged", entry.name
                );
            }
        }
    }

    /// Property 3: blocked vs scattered is FP-placement only. At 512
    /// bits per element the FP rate is small, so the two verdict streams
    /// must agree on all but a sliver of the stream (each layout's
    /// zero-FN guarantee is property 1; a disagreement is therefore
    /// always some side's one-sided false positive).
    #[test]
    fn every_backend_layouts_agree_modulo_false_positives(seed in 0u64..1_000) {
        let keys = injected_keys(seed, 4_000);
        for entry in registry::backends() {
            let mut scattered = entry
                .build(&geometry(seed, ProbeLayout::Scattered, 512))
                .expect("build");
            let mut blocked = entry
                .build(&geometry(seed, ProbeLayout::Blocked, 512))
                .expect("build");
            let disagreements = (0u64..)
                .zip(&keys)
                .filter(|&(t, k)| scattered.observe_at(k, t) != blocked.observe_at(k, t))
                .count();
            prop_assert!(
                disagreements <= keys.len() / 20,
                "{}: layouts disagree on {disagreements}/{} verdicts",
                entry.name,
                keys.len()
            );
        }
    }

    /// Property 5: forcing the scalar kernels changes nothing but
    /// speed. Two fresh detectors judge the same duplicate-heavy stream
    /// (batched, so the grouped speculative replay actually engages),
    /// one with the wide kernels forced off and one with them allowed,
    /// and the verdict streams must be identical. On machines without
    /// AVX2 both runs dispatch scalar and the property is trivially
    /// true.
    #[test]
    fn every_backend_simd_matches_scalar(seed in 0u64..1_000, chunk in 1usize..300) {
        // The dispatch override is process-global state: hold a lock so
        // concurrent properties in this binary never race it.
        static DISPATCH: Mutex<()> = Mutex::new(());
        let _guard = DISPATCH.lock().unwrap_or_else(|e| e.into_inner());

        let mut keys = injected_keys(seed, 3_000);
        keys.extend(botnet_keys(seed, 2_000));
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let ticks: Vec<u64> = (0..keys.len() as u64).collect();
        let result = std::panic::catch_unwind(|| {
            for entry in registry::backends() {
                for layout in LAYOUTS {
                    let geo = geometry(seed, layout, 64);
                    let mut forced = entry.build(&geo).expect("build");
                    let mut wide = entry.build(&geo).expect("build");

                    cfd_core::simd::set_scalar_override(Some(true));
                    let mut scalar_verdicts = Vec::with_capacity(keys.len());
                    for (group, tc) in refs.chunks(chunk).zip(ticks.chunks(chunk)) {
                        scalar_verdicts.extend(forced.observe_batch_at(group, tc));
                    }

                    cfd_core::simd::set_scalar_override(Some(false));
                    let mut wide_verdicts = Vec::with_capacity(keys.len());
                    for (group, tc) in refs.chunks(chunk).zip(ticks.chunks(chunk)) {
                        wide_verdicts.extend(wide.observe_batch_at(group, tc));
                    }

                    assert_eq!(
                        scalar_verdicts, wide_verdicts,
                        "{} ({layout:?}): wide kernels changed a verdict",
                        entry.name
                    );
                }
            }
        });
        // Restore the default dispatch even when the body panicked, so
        // a failure here cannot bleed into later properties.
        cfd_core::simd::set_scalar_override(None);
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }

    /// Property 4: a checkpoint taken mid-stream restores — through the
    /// backend-agnostic `restore_any` and the entry's own `restore` —
    /// into a detector that continues identically.
    #[test]
    fn every_backend_checkpoint_roundtrips_midstream(seed in 0u64..1_000) {
        let keys = injected_keys(seed, 3_000);
        let (prefix, suffix) = keys.split_at(keys.len() / 2);
        for entry in registry::backends() {
            for layout in LAYOUTS {
                let mut original = entry.build(&geometry(seed, layout, 64)).expect("build");
                for (t, k) in (0u64..).zip(prefix) {
                    original.observe_at(k, t);
                }
                let buf = original.checkpoint();
                let mut restored = registry::restore_any(&buf)
                    .expect("checkpoint restores through the registry");
                let mut via_entry = entry.restore(&buf).expect("entry restore");
                prop_assert_eq!(restored.window(), original.window());
                prop_assert_eq!(restored.memory_bits(), original.memory_bits());
                for (t, k) in (prefix.len() as u64..).zip(suffix) {
                    let want = original.observe_at(k, t);
                    prop_assert_eq!(
                        restored.observe_at(k, t), want,
                        "{} ({layout:?}): restore_any diverged", entry.name
                    );
                    prop_assert_eq!(
                        via_entry.observe_at(k, t), want,
                        "{} ({layout:?}): entry restore diverged", entry.name
                    );
                }
            }
        }
    }
}

/// `time-gbf` sizes its filters by `⌈N/Q⌉`, so `Q = 0` is rejected by
/// name before the sizing divides — for one detector and for every
/// shard of a sharded build, under both memory specs.
#[test]
fn time_gbf_with_zero_sub_windows_is_a_named_error() {
    let timed = registry::find("time-gbf").expect("registered").timed;
    for memory in [
        MemorySpec::CellsPerElement(14),
        MemorySpec::TotalBits(1 << 20),
    ] {
        let geo = BackendGeometry::new(1 << 16, memory).with_sub_windows(0);
        for geo in [geo, geo.for_shards(4, timed)] {
            let err = registry::build("time-gbf", &geo)
                .err()
                .expect("q = 0 is rejected");
            assert_eq!(err.to_string(), "sub-window count q must be positive");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tenant property 1: **isolation is exact**, not statistical. A
    /// tenant is a disjoint stride of the shared slab, so the verdicts a
    /// tenant receives inside a 64-tenant interleaved stream must be
    /// byte-for-byte the verdicts a fresh arena produces when fed that
    /// tenant's subsequence alone — other tenants' traffic contributes
    /// nothing, not even false positives.
    #[test]
    fn arena_tenants_are_exactly_isolated(seed in 0u64..1_000) {
        let keys = tenant_keys(seed, 4_000);
        for cfg in arena_layouts(seed) {
            let mut shared = TenantArena::new(cfg).expect("arena builds");
            let mixed: Vec<_> = keys.iter().map(|k| (tenant_of(k), shared.observe(k))).collect();
            prop_assert!(shared.live_tenants() > 8, "stream materializes past the initial slots");
            for tenant in 0..64u64 {
                let mut solo = TenantArena::new(cfg).expect("arena builds");
                let alone: Vec<_> = keys
                    .iter()
                    .filter(|k| tenant_of(k) == tenant)
                    .map(|k| solo.observe(k))
                    .collect();
                let in_mix: Vec<_> = mixed
                    .iter()
                    .filter(|(t, _)| *t == tenant)
                    .map(|(_, v)| *v)
                    .collect();
                prop_assert_eq!(
                    alone, in_mix,
                    "tenant {} verdicts changed under interleaving ({:?})", tenant, cfg.probe
                );
            }
        }
    }

    /// Tenant property 2: the arena's grouped batch replay (ref-slice
    /// and flat-key, arbitrary chunking, run-grouped prefetch engaged)
    /// is verdict-for-verdict the per-click sequential stream.
    #[test]
    fn arena_batch_matches_per_tenant_sequential(
        seed in 0u64..1_000,
        chunk in 1usize..300,
    ) {
        let keys = tenant_keys(seed, 4_000);
        let flat: Vec<u8> = keys.iter().flatten().copied().collect();
        for cfg in arena_layouts(seed) {
            let mut seq = TenantArena::new(cfg).expect("arena builds");
            let mut by_refs = TenantArena::new(cfg).expect("arena builds");
            let mut by_flat = TenantArena::new(cfg).expect("arena builds");

            let sequential: Vec<_> = keys.iter().map(|k| seq.observe(k)).collect();

            let mut via_refs = Vec::with_capacity(keys.len());
            for group in keys.chunks(chunk) {
                let refs: Vec<&[u8]> = group.iter().map(<[u8; TENANT_KEY_LEN]>::as_slice).collect();
                via_refs.extend(by_refs.observe_batch(&refs));
            }
            prop_assert_eq!(
                &sequential, &via_refs,
                "observe_batch diverged ({:?})", cfg.probe
            );

            let mut via_flat = Vec::with_capacity(keys.len());
            let mut out = Vec::new();
            for group in flat.chunks(chunk * TENANT_KEY_LEN) {
                by_flat.observe_flat_into(group, TENANT_KEY_LEN, &mut out);
                via_flat.extend_from_slice(&out);
            }
            prop_assert_eq!(
                &sequential, &via_flat,
                "observe_flat_into diverged ({:?})", cfg.probe
            );
        }
    }

    /// Tenant property 3: a checkpoint taken with a grown, multi-tenant
    /// slab restores through the backend-agnostic `restore_any` into an
    /// arena that continues verdict-for-verdict identically — tenant
    /// routing map, per-tenant clocks, and free-slot stack included.
    #[test]
    fn arena_checkpoint_roundtrips_multi_tenant_state(seed in 0u64..1_000) {
        let keys = tenant_keys(seed, 4_000);
        let (prefix, suffix) = keys.split_at(keys.len() / 2);
        for cfg in arena_layouts(seed) {
            let mut original = TenantArena::new(cfg).expect("arena builds");
            for k in prefix {
                original.observe(k);
            }
            prop_assert!(original.live_tenants() > 8, "checkpoint covers a grown slab");
            let buf = original.checkpoint();
            let mut restored = registry::restore_any(&buf)
                .expect("arena checkpoint restores through the registry");
            prop_assert_eq!(restored.window(), original.window());
            prop_assert_eq!(restored.memory_bits(), original.memory_bits());
            for k in suffix {
                prop_assert_eq!(
                    restored.observe(k), original.observe(k),
                    "restored arena diverged ({:?})", cfg.probe
                );
            }
        }
    }
}
