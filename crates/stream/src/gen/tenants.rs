//! Zipf-skewed multi-tenant click traffic.
//!
//! A PPC commissioner serves thousands-to-millions of (advertiser,
//! campaign) pairs whose traffic is heavily skewed — a few big campaigns
//! draw most clicks. This generator emits flat 16-byte detector keys
//! `[tenant_id (8 bytes LE) ‖ click_id (8 bytes LE)]`, the exact shape
//! `cfd-core`'s `TenantArena` routes hash-once: the first eight bytes
//! are the routing prefix, the whole key is the probe identity.
//!
//! Properties the tenant bench leans on:
//!
//! * **Seed-deterministic** — same config, same byte stream.
//! * **Globally unique distinct ids** — a click id never repeats within
//!   a tenant (monotone counter) and tenants are disjoint by prefix, so
//!   *every* duplicate verdict beyond the injected ones is a false
//!   positive or cross-tenant contamination.
//! * **Adjacent injected duplicates** — a duplicate re-emits the
//!   tenant's immediately preceding click, so its tenant-relative lag is
//!   exactly 1 and any sliding window `n_t >= 2` must flag it: the
//!   injected count is a zero-false-negative floor for the detector's
//!   duplicate count.
//! * **Bursty tenants** — clicks arrive in same-tenant runs of
//!   `run_len`, modelling ad-pod bursts and exercising the arena's
//!   run-grouped prefetch replay.

use crate::gen::zipf::ZipfSampler;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bytes per emitted key: 8 tenant-prefix bytes + 8 click-id bytes.
pub const TENANT_KEY_LEN: usize = 16;

const NO_LAST: u64 = u64::MAX;

/// Shape of a [`TenantTraffic`] stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantTrafficConfig {
    /// Number of tenants (Zipf universe).
    pub tenants: usize,
    /// Zipf exponent over tenant popularity (`0` = uniform).
    pub skew: f64,
    /// Probability that a click repeats the tenant's previous click id.
    pub duplicate_rate: f64,
    /// Consecutive clicks emitted for one tenant before re-sampling.
    pub run_len: usize,
    /// RNG seed; the stream is a pure function of the config.
    pub seed: u64,
}

impl TenantTrafficConfig {
    /// A skew-1.0 config over `tenants` tenants: 5% adjacent duplicates,
    /// runs of 4, seeded for reproducibility.
    #[must_use]
    pub fn new(tenants: usize, seed: u64) -> Self {
        Self {
            tenants,
            skew: 1.0,
            duplicate_rate: 0.05,
            run_len: 4,
            seed,
        }
    }
}

/// The multi-tenant key stream (see module docs for the guarantees).
///
/// ```rust
/// use cfd_stream::gen::tenants::{TenantTraffic, TenantTrafficConfig, TENANT_KEY_LEN};
/// let mut traffic = TenantTraffic::new(TenantTrafficConfig::new(100, 42));
/// let mut flat = Vec::new();
/// traffic.fill_flat(1_000, &mut flat);
/// assert_eq!(flat.len(), 1_000 * TENANT_KEY_LEN);
/// ```
#[derive(Debug, Clone)]
pub struct TenantTraffic {
    cfg: TenantTrafficConfig,
    zipf: ZipfSampler,
    rng: SmallRng,
    /// Next fresh click id per tenant (monotone, never reused).
    next_click: Vec<u64>,
    /// Previous click id per tenant, [`NO_LAST`] right after a duplicate
    /// (so injected duplicates are never chained and always have
    /// tenant-relative lag exactly 1).
    last_click: Vec<u64>,
    current: usize,
    run_left: usize,
    emitted: u64,
    duplicates_emitted: u64,
}

impl TenantTraffic {
    /// Builds the stream.
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`, `run_len == 0`, the skew is
    /// negative/non-finite, or `duplicate_rate` is outside `[0, 1)`.
    #[must_use]
    pub fn new(cfg: TenantTrafficConfig) -> Self {
        assert!(cfg.tenants > 0, "tenant universe must be non-empty");
        assert!(cfg.run_len > 0, "run length must be positive");
        assert!(
            (0.0..1.0).contains(&cfg.duplicate_rate),
            "duplicate rate outside [0, 1)"
        );
        Self {
            cfg,
            zipf: ZipfSampler::new(cfg.tenants, cfg.skew, cfg.seed),
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0x07E4_A4E7_5EED),
            next_click: vec![0; cfg.tenants],
            last_click: vec![NO_LAST; cfg.tenants],
            current: 0,
            run_left: 0,
            emitted: 0,
            duplicates_emitted: 0,
        }
    }

    /// The stream's configuration.
    #[must_use]
    pub fn config(&self) -> &TenantTrafficConfig {
        &self.cfg
    }

    /// Keys emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Injected (guaranteed-in-window) duplicates emitted so far — the
    /// floor for any zero-false-negative detector's duplicate count over
    /// this stream, and the baseline the bench's isolation assert
    /// subtracts before bounding false positives.
    #[must_use]
    pub fn duplicates_emitted(&self) -> u64 {
        self.duplicates_emitted
    }

    /// Emits the next key.
    pub fn next_key(&mut self) -> [u8; TENANT_KEY_LEN] {
        if self.run_left == 0 {
            self.current = self.zipf.sample();
            self.run_left = self.cfg.run_len;
        }
        self.run_left -= 1;
        let t = self.current;
        let click =
            if self.last_click[t] != NO_LAST && self.rng.gen::<f64>() < self.cfg.duplicate_rate {
                self.duplicates_emitted += 1;
                let c = self.last_click[t];
                self.last_click[t] = NO_LAST;
                c
            } else {
                let c = self.next_click[t];
                self.next_click[t] = c + 1;
                self.last_click[t] = c;
                c
            };
        self.emitted += 1;
        let mut key = [0u8; TENANT_KEY_LEN];
        key[..8].copy_from_slice(&(t as u64).to_le_bytes());
        key[8..].copy_from_slice(&click.to_le_bytes());
        key
    }

    /// Appends `count` keys to a flat buffer (`TENANT_KEY_LEN` bytes
    /// each, end-to-end) — the flat key view `observe_keys_into` consumes.
    pub fn fill_flat(&mut self, count: usize, out: &mut Vec<u8>) {
        out.reserve(count * TENANT_KEY_LEN);
        for _ in 0..count {
            out.extend_from_slice(&self.next_key());
        }
    }
}

impl Iterator for TenantTraffic {
    type Item = [u8; TENANT_KEY_LEN];

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn streams_are_seed_deterministic() {
        let cfg = TenantTrafficConfig::new(500, 9);
        let a: Vec<_> = TenantTraffic::new(cfg).take(5_000).collect();
        let b: Vec<_> = TenantTraffic::new(cfg).take(5_000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TenantTraffic::new(TenantTrafficConfig::new(500, 10))
            .take(5_000)
            .collect();
        assert_ne!(a, c, "different seed, different stream");
    }

    #[test]
    fn skew_histogram_is_pinned() {
        // The whole point of the generator: seed 7 over 10 tenants must
        // reproduce this exact per-tenant histogram forever. If this
        // test breaks, bench results across versions stop being
        // comparable — bump the manifest schema, don't relax the test.
        let mut traffic = TenantTraffic::new(TenantTrafficConfig {
            tenants: 10,
            skew: 1.0,
            duplicate_rate: 0.0,
            run_len: 1,
            seed: 7,
        });
        let mut hist = [0u32; 10];
        for _ in 0..10_000 {
            let key = traffic.next_key();
            let t = u64::from_le_bytes(key[..8].try_into().unwrap());
            hist[usize::try_from(t).unwrap()] += 1;
        }
        assert_eq!(
            hist,
            [3444, 1699, 1158, 871, 644, 573, 463, 442, 359, 347],
            "pinned skew histogram changed"
        );
        // And the shape is Zipf-1: rank 0 draws ~1/H_10 ≈ 34%.
        assert!((f64::from(hist[0]) / 10_000.0 - 0.3414).abs() < 0.02);
    }

    #[test]
    fn distinct_ids_never_repeat_and_duplicates_are_adjacent_per_tenant() {
        let mut traffic = TenantTraffic::new(TenantTrafficConfig {
            tenants: 50,
            skew: 1.0,
            duplicate_rate: 0.2,
            run_len: 3,
            seed: 11,
        });
        let mut seen: HashMap<[u8; 16], usize> = HashMap::new();
        let mut last_by_tenant: HashMap<u64, [u8; 16]> = HashMap::new();
        let mut dups = 0u64;
        for _ in 0..20_000 {
            let key = traffic.next_key();
            let t = u64::from_le_bytes(key[..8].try_into().unwrap());
            let count = seen.entry(key).or_insert(0);
            *count += 1;
            if *count > 1 {
                dups += 1;
                assert_eq!(*count, 2, "a key repeats at most once");
                assert_eq!(
                    last_by_tenant[&t], key,
                    "duplicate must repeat the tenant's immediately previous click"
                );
            }
            last_by_tenant.insert(t, key);
        }
        assert_eq!(dups, traffic.duplicates_emitted());
        assert!(dups > 2_000, "20% duplicate rate actually injects");
        assert_eq!(traffic.emitted(), 20_000);
    }

    #[test]
    fn runs_group_same_tenant_keys() {
        let mut traffic = TenantTraffic::new(TenantTrafficConfig {
            tenants: 1_000,
            skew: 0.0, // uniform: distinct tenants per run w.h.p.
            duplicate_rate: 0.0,
            run_len: 4,
            seed: 3,
        });
        let tenants: Vec<u64> = (0..400)
            .map(|_| u64::from_le_bytes(traffic.next_key()[..8].try_into().unwrap()))
            .collect();
        for run in tenants.chunks(4) {
            assert!(run.iter().all(|&t| t == run[0]), "run not grouped: {run:?}");
        }
    }

    #[test]
    fn fill_flat_matches_next_key() {
        let cfg = TenantTrafficConfig::new(64, 5);
        let mut a = TenantTraffic::new(cfg);
        let mut b = TenantTraffic::new(cfg);
        let mut flat = Vec::new();
        a.fill_flat(100, &mut flat);
        let by_key: Vec<u8> = (0..100).flat_map(|_| b.next_key()).collect();
        assert_eq!(flat, by_key);
    }

    #[test]
    #[should_panic(expected = "duplicate rate")]
    fn bad_duplicate_rate_panics() {
        let mut cfg = TenantTrafficConfig::new(10, 0);
        cfg.duplicate_rate = 1.0;
        let _ = TenantTraffic::new(cfg);
    }
}
