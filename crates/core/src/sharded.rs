//! Keyspace sharding: scale-out composition of duplicate detectors.
//!
//! A [`ShardedDetector`] splits the click keyspace over `S` inner
//! detectors by the high bits of a *router hash* (seeded independently
//! of the detectors' probe hashing). Every occurrence of an id lands on
//! the same shard, so a shard sees the complete duplicate history of its
//! keys — the one-sided **zero-false-negative** guarantee of GBF/TBF
//! survives composition: relative to the per-shard window semantics, a
//! duplicate is never reported distinct.
//!
//! ## Window semantics and the `N/S` sizing rule
//!
//! Count-based windows change meaning under sharding. A shard advances
//! its window only on *its own* arrivals, so a shard with window `n_s`
//! covers the last `n_s` same-shard elements — in expectation the last
//! `S · n_s` elements of the global stream, but binomially distributed
//! around that. Sizing each shard at `n_s = N/S` therefore approximates
//! one global window of `N` with the same total memory and `S`-way
//! parallelism; `cfd-analysis::sharding` gives the closed-form
//! probability that a global-window duplicate at a given gap is still
//! covered. Time-based windows are unaffected (all shards share wall
//! clock).

use crate::backend;
use crate::config::ConfigError;
use cfd_hash::{DoubleHashFamily, HashFamily, HashPair, Planner, ProbePlan};
use cfd_telemetry::{DetectorHealth, DetectorStats, TenantHealth};
use cfd_windows::{DuplicateDetector, Keys, Verdict, WindowSpec};

/// Routes ids to shards by the high bits of an independent hash.
///
/// Uses the multiply-shift reduction `(h · S) >> 64`, which consumes the
/// *high* bits of the router hash — disjoint from the low-bits-modulo
/// reduction of the probe indices, and unbiased for any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    family: DoubleHashFamily,
    shards: usize,
}

impl ShardRouter {
    /// Creates a router over `shards` shards.
    ///
    /// The router derives its hashing from `seed` but decorrelates it
    /// from same-seeded detector probe hashing, so routing never biases
    /// which filter cells a shard's keys touch.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroDimension`] when `shards == 0`.
    pub fn new(seed: u64, shards: usize) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::ZeroDimension("shard count"));
        }
        Ok(Self {
            family: DoubleHashFamily::new(cfd_hash::mix::splitmix64(seed ^ 0x5EED_0F5A_ADC0_DE01)),
            shards,
        })
    }

    /// Number of shards routed over.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard of `id`; deterministic, in `[0, shard_count)`.
    #[inline]
    #[must_use]
    pub fn route(&self, id: &[u8]) -> usize {
        self.route_pair(self.family.pair(id))
    }

    /// The shard of an already-computed router-family [`HashPair`] —
    /// the reduction half of [`ShardRouter::route`], split out so the
    /// hash-once batch path can hash each id exactly once and reuse the
    /// pair for probing.
    #[inline]
    #[must_use]
    pub fn route_pair(&self, pair: HashPair) -> usize {
        ((u128::from(pair.h1) * self.shards as u128) >> 64) as usize
    }

    /// A [`Planner`] over the router's hash family. Detectors built
    /// with [`ShardRouter::probe_seed`] share this family, which is the
    /// alignment the hash-once path requires.
    #[must_use]
    pub fn planner(&self) -> Planner {
        Planner::from_family(self.family)
    }

    /// The probe seed aligned with this router: build shard detectors
    /// with this seed and `ShardedDetector::observe_batch_hash_once`
    /// computes one hash per click for routing *and* probing. Routing
    /// consumes the pair's high `h1` bits (multiply-shift) while
    /// scattered probing reduces modulo `m` and blocked probing remixes
    /// through `splitmix64`, so sharing the family does not correlate a
    /// shard with the filter cells its keys touch.
    #[must_use]
    pub fn probe_seed(&self) -> u64 {
        self.family.seed()
    }

    /// Routes a flat buffer of fixed-stride ids (`key_len` bytes each,
    /// packed end-to-end) in one multi-lane hashing pass, writing one
    /// shard index per id into `out` (cleared first, capacity reused).
    ///
    /// Equivalent to calling [`ShardRouter::route`] per id; this is the
    /// allocation-free form the pipeline's ingest stage uses.
    ///
    /// # Panics
    /// If `key_len == 0` or the buffer length is not a multiple of it.
    pub fn route_flat_into(&self, keys: &[u8], key_len: usize, out: &mut Vec<usize>) {
        out.resize(keys.len() / key_len.max(1), 0);
        cfd_hash::lanes::fill_flat_pairs(keys, key_len, self.family.seed(), out, |pair| {
            self.route_pair(pair)
        });
    }

    /// The shard of a *tenant* routing prefix ([`cfd_hash::tenant_prefix`]:
    /// the first eight key bytes). Unlike [`ShardRouter::route`], every id
    /// sharing a prefix lands on the same shard, which is what partitions
    /// the tenants of a `TenantArena` across shards without splitting any
    /// tenant's window. Costs one `splitmix64` — no key hash at all.
    #[inline]
    #[must_use]
    pub fn route_prefix(&self, prefix: u64) -> usize {
        let mixed = cfd_hash::mix::splitmix64(prefix ^ self.family.seed());
        ((u128::from(mixed) * self.shards as u128) >> 64) as usize
    }
}

/// A detector whose hashing half is exposed as a [`Planner`] so batches
/// can be hashed once, routed, and replayed — implemented by the
/// Bloom-style detectors, not the exact baselines (which need the raw
/// id, not a hash, to answer exactly).
pub trait PlannedDetector: DuplicateDetector {
    /// The pure hashing half; plans are only portable between detectors
    /// sharing its seed.
    fn probe_planner(&self) -> Planner;

    /// Replays one plan produced by this detector's planner
    /// (`observe(id)` ≡ `apply_plan(probe_planner().plan(id))`).
    fn apply_plan(&mut self, plan: ProbePlan) -> Verdict;

    /// Replays a batch of plans, preserving order, at the current clock
    /// (`observe_keys_into(keys, None, out)` ≡ this over the keys'
    /// plans). Verdicts go into `out` (cleared first, capacity reused);
    /// implementations override this with a prefetching replay.
    fn apply_plan_batch_into(&mut self, plans: &[ProbePlan], out: &mut Vec<Verdict>) {
        out.clear();
        for &p in plans {
            out.push(self.apply_plan(p));
        }
    }
}

/// The Bloom-style detectors expose both halves as inherent methods
/// (`planner`, `apply`); a batch of plans replays through the backend,
/// count cores with lookahead prefetch, time cores at the current clock.
macro_rules! planned_detector {
    ($replay:path => $($ty:ty),*) => {$(
        impl PlannedDetector for $ty {
            fn probe_planner(&self) -> Planner {
                self.planner()
            }
            fn apply_plan(&mut self, plan: ProbePlan) -> Verdict {
                self.apply(plan)
            }
            fn apply_plan_batch_into(&mut self, plans: &[ProbePlan], out: &mut Vec<Verdict>) {
                $replay(self, plans, out);
            }
        }
    )*};
}

planned_detector!(backend::replay_plans_into => crate::Tbf, crate::Gbf, crate::Apbf, crate::Swbf);
planned_detector!(backend::replay_plans_now_into => crate::TimeTbf, crate::TimeGbf);

/// The per-shard count window implementing the `N/S` sizing rule.
///
/// Clamped to 2 so every shard remains a valid sliding-window detector
/// even for tiny `N`.
#[must_use]
pub fn per_shard_window(n: usize, shards: usize) -> usize {
    n.div_ceil(shards.max(1)).max(2)
}

/// `S` inner detectors behind one [`DuplicateDetector`] face, routed by
/// keyspace.
///
/// ```rust
/// use cfd_core::sharded::{per_shard_window, ShardedDetector};
/// use cfd_core::{Tbf, TbfConfig};
/// use cfd_windows::{DuplicateDetector, Verdict};
///
/// # fn main() -> Result<(), cfd_core::ConfigError> {
/// let (n, shards) = (4096, 4);
/// let mut d = ShardedDetector::from_fn(9, shards, |_| {
///     let n_s = per_shard_window(n, shards);
///     Tbf::new(TbfConfig::builder(n_s).entries(n_s * 14).build()?)
/// })?;
/// assert_eq!(d.observe(b"ip|cookie|ad"), Verdict::Distinct);
/// assert_eq!(d.observe(b"ip|cookie|ad"), Verdict::Duplicate);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedDetector<D> {
    router: ShardRouter,
    /// Construction seed of the router, kept for checkpointing (the
    /// router itself only holds the derived hash family).
    router_seed: u64,
    shards: Vec<D>,
}

impl<D> ShardedDetector<D> {
    /// Wraps pre-built shard detectors (one per shard, keyspace-routed).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroDimension`] when `shards` is empty.
    pub fn new(router_seed: u64, shards: Vec<D>) -> Result<Self, ConfigError> {
        let router = ShardRouter::new(router_seed, shards.len())?;
        Ok(Self {
            router,
            router_seed,
            shards,
        })
    }

    /// Builds `count` shards with `make(shard_index)`.
    ///
    /// # Errors
    ///
    /// Propagates the first `make` error; rejects `count == 0`.
    pub fn from_fn<E: From<ConfigError>>(
        router_seed: u64,
        count: usize,
        mut make: impl FnMut(usize) -> Result<D, E>,
    ) -> Result<Self, E> {
        let router = ShardRouter::new(router_seed, count)?;
        let shards = (0..count).map(&mut make).collect::<Result<Vec<_>, E>>()?;
        Ok(Self {
            router,
            router_seed,
            shards,
        })
    }

    /// The keyspace router.
    #[must_use]
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The seed the router was constructed from (checkpoint header).
    #[must_use]
    pub fn router_seed(&self) -> u64 {
        self.router_seed
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard detectors, in router order.
    #[must_use]
    pub fn shards(&self) -> &[D] {
        &self.shards
    }

    /// Mutable access to one shard (diagnostics, op counters).
    pub fn shard_mut(&mut self, index: usize) -> &mut D {
        &mut self.shards[index]
    }

    /// Consumes the wrapper, returning the shard detectors.
    #[must_use]
    pub fn into_shards(self) -> Vec<D> {
        self.shards
    }
}

impl<D: PlannedDetector> ShardedDetector<D> {
    /// Whether every shard's probe family matches the router's, i.e.
    /// the shards were built with [`ShardRouter::probe_seed`]. Only
    /// then can one hash serve both routing and probing.
    #[must_use]
    pub fn hash_once_aligned(&self) -> bool {
        let seed = self.router.probe_seed();
        self.shards.iter().all(|s| s.probe_planner().seed() == seed)
    }

    /// [`DuplicateDetector::observe_batch`] hashing each id exactly
    /// once: the router pair doubles as the probe plan, removing the
    /// second hash evaluation per click that the generic path pays
    /// (`route` hashes, then each shard's `observe_batch` hashes
    /// again). Verdicts are identical to `observe_batch` when the
    /// shards are router-aligned; on misaligned shards this falls back
    /// to the two-hash path rather than probing with a foreign family.
    pub fn observe_batch_hash_once(&mut self, ids: &[&[u8]]) -> Vec<Verdict> {
        if !self.hash_once_aligned() {
            return self.observe_batch(ids);
        }
        let (router, planner) = (self.router, self.router.planner());
        scatter_gather(
            &mut self.shards,
            ids.iter().map(|id| planner.plan(id)),
            |plan| router.route_pair(plan.pair()),
            PlannedDetector::apply_plan_batch_into,
        )
    }

    /// [`ShardedDetector::observe_batch_hash_once`] routed by *tenant
    /// prefix* instead of key hash: every id whose first eight bytes
    /// match goes to the same shard ([`ShardRouter::route_prefix`]).
    /// This is the sharded driving mode for tenant arenas — a tenant's
    /// whole window lives in exactly one shard, so per-tenant duplicate
    /// detection across shards equals a single arena's. Still hash-once:
    /// the plan's routing prefix is a byte copy, not a second hash.
    /// Falls back to per-id `observe` (same routing) on shards not built
    /// with [`ShardRouter::probe_seed`].
    pub fn observe_batch_tenant_routed(&mut self, ids: &[&[u8]]) -> Vec<Verdict> {
        if !self.hash_once_aligned() {
            let routes: Vec<usize> = ids
                .iter()
                .map(|id| self.router.route_prefix(cfd_hash::tenant_prefix(id)))
                .collect();
            return ids
                .iter()
                .zip(routes)
                .map(|(id, shard)| self.shards[shard].observe(id))
                .collect();
        }
        let (router, planner) = (self.router, self.router.planner());
        scatter_gather(
            &mut self.shards,
            ids.iter().map(|id| planner.plan(id)),
            |plan| router.route_prefix(plan.prefix()),
            PlannedDetector::apply_plan_batch_into,
        )
    }
}

/// The batch scheme shared by the sharded batch paths: partition `items`
/// per shard by `route` (keeping per-shard stream order, which is all a
/// shard's window semantics depend on), `judge` each shard's bucket
/// once, then gather verdicts back into input order — the i-th item's
/// verdict is the next unconsumed verdict of its shard's bucket, because
/// bucketing preserved relative order. One shard skips the routing.
fn scatter_gather<D, T: Copy>(
    shards: &mut [D],
    items: impl Iterator<Item = T>,
    route: impl Fn(&T) -> usize,
    mut judge: impl FnMut(&mut D, &[T], &mut Vec<Verdict>),
) -> Vec<Verdict> {
    if let [shard] = shards {
        let mut out = Vec::new();
        judge(shard, &items.collect::<Vec<T>>(), &mut out);
        return out;
    }
    let len = items.size_hint().0;
    let cap = len / shards.len() + 1;
    let mut buckets: Vec<Vec<T>> = vec![Vec::with_capacity(cap); shards.len()];
    let mut routes = Vec::with_capacity(len);
    for item in items {
        let shard = route(&item);
        buckets[shard].push(item);
        routes.push(shard);
    }
    let verdicts: Vec<Vec<Verdict>> = buckets
        .iter()
        .zip(shards)
        .map(|(bucket, shard)| {
            let mut out = Vec::with_capacity(bucket.len());
            judge(shard, bucket, &mut out);
            out
        })
        .collect();
    let mut cursor = vec![0usize; verdicts.len()];
    routes
        .into_iter()
        .map(|shard| {
            let v = verdicts[shard][cursor[shard]];
            cursor[shard] += 1;
            v
        })
        .collect()
}

impl<D: DuplicateDetector> DuplicateDetector for ShardedDetector<D> {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let shard = self.router.route(id);
        self.shards[shard].observe(id)
    }

    /// Routing is tick-blind (by id only), and every shard advances its
    /// clock from its *own* clicks' ticks. All shards share wall clock,
    /// so — unlike count windows — time-window semantics per shard equal
    /// the global ones.
    fn observe_at(&mut self, id: &[u8], tick: u64) -> Verdict {
        let shard = self.router.route(id);
        self.shards[shard].observe_at(id, tick)
    }

    /// One scatter/gather over `(key, tick)` pairs: each shard judges
    /// its bucket with one batch call, with the bucket's ticks when the
    /// batch carries ticks.
    fn observe_keys_into(&mut self, keys: Keys<'_>, ticks: Option<&[u64]>, out: &mut Vec<Verdict>) {
        if let Some(ticks) = ticks {
            assert_eq!(keys.len(), ticks.len(), "one tick per key");
        }
        let router = self.router;
        let tick_of = |i: usize| ticks.map_or(0, |t| t[i]);
        let mut ids = Vec::new();
        let mut bucket_ticks = Vec::new();
        let verdicts = scatter_gather(
            &mut self.shards,
            keys.iter().enumerate().map(|(i, id)| (id, tick_of(i))),
            |&(id, _)| router.route(id),
            |shard, bucket, out| {
                ids.clear();
                ids.extend(bucket.iter().map(|&(id, _)| id));
                bucket_ticks.clear();
                bucket_ticks.extend(bucket.iter().map(|&(_, tick)| tick));
                let ticks = ticks.map(|_| bucket_ticks.as_slice());
                shard.observe_keys_into(Keys::Refs(&ids), ticks, out);
            },
        );
        out.clear();
        out.extend(verdicts);
    }

    /// The *approximated global* window: count-based shard windows scale
    /// by the shard count (the `N/S` rule run backwards); time-based
    /// windows pass through unscaled because all shards share wall
    /// clock.
    fn window(&self) -> WindowSpec {
        let s = self.shards.len();
        match self.shards[0].window() {
            WindowSpec::Sliding { n } => WindowSpec::Sliding { n: n * s },
            WindowSpec::Jumping { n, q } => WindowSpec::Jumping { n: n * s, q },
            WindowSpec::Landmark { n } => WindowSpec::Landmark { n: n * s },
            time_based => time_based,
        }
    }

    fn memory_bits(&self) -> usize {
        self.shards.iter().map(DuplicateDetector::memory_bits).sum()
    }

    fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.reset();
        }
    }

    fn name(&self) -> &'static str {
        "sharded"
    }
}

/// Health of the composition: per-shard samples folded with
/// [`DetectorHealth::aggregate`] — fill ratios concatenate across
/// shards, counters sum, backlog/sweep/FP average.
impl<D: DetectorStats> DetectorStats for ShardedDetector<D> {
    fn stats_name(&self) -> &'static str {
        "sharded"
    }

    fn fill_ratios(&self) -> Vec<f64> {
        self.shards
            .iter()
            .flat_map(DetectorStats::fill_ratios)
            .collect()
    }

    fn cleaning_backlog(&self) -> f64 {
        self.shards
            .iter()
            .map(DetectorStats::cleaning_backlog)
            .sum::<f64>()
            / self.shards.len() as f64
    }

    fn sweep_position(&self) -> f64 {
        self.shards
            .iter()
            .map(DetectorStats::sweep_position)
            .sum::<f64>()
            / self.shards.len() as f64
    }

    fn cleaned_entries(&self) -> u64 {
        self.shards.iter().map(DetectorStats::cleaned_entries).sum()
    }

    fn observed_elements(&self) -> u64 {
        self.shards
            .iter()
            .map(DetectorStats::observed_elements)
            .sum()
    }

    fn observed_duplicates(&self) -> u64 {
        self.shards
            .iter()
            .map(DetectorStats::observed_duplicates)
            .sum()
    }

    fn estimated_fp(&self) -> f64 {
        self.shards
            .iter()
            .map(DetectorStats::estimated_fp)
            .sum::<f64>()
            / self.shards.len() as f64
    }

    fn occupancy_scans(&self) -> u64 {
        self.shards.iter().map(DetectorStats::occupancy_scans).sum()
    }

    fn tenant_health(&self) -> Option<TenantHealth> {
        let samples: Vec<TenantHealth> = self
            .shards
            .iter()
            .filter_map(DetectorStats::tenant_health)
            .collect();
        if samples.is_empty() {
            return None;
        }
        let slots: usize = samples.iter().map(|s| s.slots).sum();
        let live: usize = samples.iter().map(|s| s.live_tenants).sum();
        let slab_bytes: f64 = samples
            .iter()
            .map(|s| s.bytes_per_live_tenant * s.live_tenants as f64)
            .sum();
        Some(TenantHealth {
            slots,
            live_tenants: live,
            evictions: samples.iter().map(|s| s.evictions).sum(),
            occupancy: live as f64 / slots.max(1) as f64,
            bytes_per_live_tenant: if live == 0 {
                0.0
            } else {
                slab_bytes / live as f64
            },
        })
    }

    fn health(&self) -> DetectorHealth {
        let samples: Vec<DetectorHealth> = self.shards.iter().map(DetectorStats::health).collect();
        let mut health =
            DetectorHealth::aggregate(&samples).expect("sharded detector has >= 1 shard");
        health.detector = "sharded";
        health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gbf, GbfConfig, Tbf, TbfConfig};
    use cfd_windows::ExactSlidingDedup;

    fn sharded_tbf(n: usize, shards: usize) -> ShardedDetector<Tbf> {
        ShardedDetector::from_fn(3, shards, |_| {
            let n_s = per_shard_window(n, shards);
            Tbf::new(
                TbfConfig::builder(n_s)
                    .entries(n_s * 14)
                    .hash_count(7)
                    .seed(11)
                    .build()?,
            )
        })
        .expect("valid sharded tbf")
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let router = ShardRouter::new(5, 7).expect("router");
        for i in 0..10_000u64 {
            let id = i.to_le_bytes();
            let s = router.route(&id);
            assert!(s < 7);
            assert_eq!(s, router.route(&id));
        }
    }

    #[test]
    fn routing_spreads_keys_roughly_evenly() {
        let shards = 8;
        let router = ShardRouter::new(1, shards).expect("router");
        let mut counts = vec![0u32; shards];
        let total = 80_000u64;
        for i in 0..total {
            counts[router.route(&i.to_le_bytes())] += 1;
        }
        let expected = total as f64 / shards as f64;
        for (s, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.05, "shard {s} count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(ShardRouter::new(0, 0).is_err());
        assert!(ShardedDetector::<Tbf>::new(0, Vec::new()).is_err());
    }

    #[test]
    fn immediate_duplicates_detected_any_shard_count() {
        for shards in [1, 2, 4, 8] {
            let mut d = sharded_tbf(1 << 12, shards);
            assert_eq!(d.observe(b"dup-me"), Verdict::Distinct, "s={shards}");
            assert_eq!(d.observe(b"dup-me"), Verdict::Duplicate, "s={shards}");
        }
    }

    #[test]
    fn zero_false_negatives_vs_per_shard_oracle() {
        // The exact reference for sharded semantics: one exact sliding
        // dedup per shard, same router. Anything it calls duplicate, the
        // sharded TBF must too.
        let (n, shards) = (512, 4);
        let mut d = sharded_tbf(n, shards);
        let router = d.router();
        let n_s = per_shard_window(n, shards);
        let mut oracles: Vec<ExactSlidingDedup> =
            (0..shards).map(|_| ExactSlidingDedup::new(n_s)).collect();
        for i in 0..30_000u64 {
            let key = (i % 700).to_le_bytes();
            let got = d.observe(&key);
            let want = oracles[router.route(&key)].observe(&key);
            if want == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
    }

    #[test]
    fn observe_batch_matches_observe_across_shards() {
        let ids: Vec<Vec<u8>> = (0..4_000u64)
            .map(|i| (i % 900).to_le_bytes().to_vec())
            .collect();
        let id_slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let mut sequential = sharded_tbf(1 << 10, 4);
        let mut batched = sharded_tbf(1 << 10, 4);
        let want: Vec<Verdict> = id_slices.iter().map(|id| sequential.observe(id)).collect();
        let mut got = Vec::new();
        for chunk in id_slices.chunks(97) {
            got.extend(batched.observe_batch(chunk));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn window_scales_count_windows_by_shard_count() {
        let d = sharded_tbf(4096, 4);
        assert_eq!(
            d.window(),
            WindowSpec::Sliding {
                n: per_shard_window(4096, 4) * 4
            }
        );
    }

    #[test]
    fn memory_is_summed_and_reset_clears_all_shards() {
        let mut d = sharded_tbf(1 << 10, 4);
        let single = d.shards()[0].memory_bits();
        assert_eq!(d.memory_bits(), single * 4);
        d.observe(b"x");
        d.reset();
        assert_eq!(d.observe(b"x"), Verdict::Distinct);
        assert_eq!(d.name(), "sharded");
    }

    #[test]
    fn sharded_gbf_detects_duplicates() {
        let mut d: ShardedDetector<Gbf> = ShardedDetector::from_fn(2, 4, |_| {
            Gbf::new(
                GbfConfig::builder(per_shard_window(1 << 12, 4), 8)
                    .filter_bits(1 << 14)
                    .hash_count(6)
                    .seed(4)
                    .build()?,
            )
        })
        .expect("valid sharded gbf");
        assert_eq!(d.observe(b"a"), Verdict::Distinct);
        assert_eq!(d.observe(b"b"), Verdict::Distinct);
        assert_eq!(d.observe(b"a"), Verdict::Duplicate);
        assert!(matches!(d.window(), WindowSpec::Jumping { .. }));
    }

    #[test]
    fn hash_once_matches_generic_batch_when_aligned() {
        let (n, shards) = (1 << 10, 4);
        let make = |router: &ShardRouter| {
            let seed = router.probe_seed();
            ShardedDetector::from_fn(3, shards, |_| {
                let n_s = per_shard_window(n, shards);
                Tbf::new(
                    TbfConfig::builder(n_s)
                        .entries(n_s * 14)
                        .hash_count(7)
                        .seed(seed)
                        .build()?,
                )
            })
            .expect("valid sharded tbf")
        };
        let router = ShardRouter::new(3, shards).expect("router");
        let mut generic = make(&router);
        let mut hash_once = make(&router);
        assert!(hash_once.hash_once_aligned());

        let ids: Vec<Vec<u8>> = (0..6_000u64)
            .map(|i| (i % 900).to_le_bytes().to_vec())
            .collect();
        let id_slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let mut want = Vec::new();
        let mut got = Vec::new();
        for chunk in id_slices.chunks(97) {
            want.extend(generic.observe_batch(chunk));
            got.extend(hash_once.observe_batch_hash_once(chunk));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn hash_once_falls_back_when_misaligned() {
        // Shards seeded independently of the router: the fast path must
        // refuse to probe with the router family and instead produce
        // the same verdicts as the generic path.
        let mut a = sharded_tbf(1 << 10, 4);
        let mut b = sharded_tbf(1 << 10, 4);
        assert!(!a.hash_once_aligned());
        let ids: Vec<Vec<u8>> = (0..3_000u64)
            .map(|i| (i % 500).to_le_bytes().to_vec())
            .collect();
        let id_slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
        let want = a.observe_batch(&id_slices);
        let got = b.observe_batch_hash_once(&id_slices);
        assert_eq!(got, want);
    }

    #[test]
    fn per_shard_window_covers_edge_cases() {
        assert_eq!(per_shard_window(4096, 4), 1024);
        assert_eq!(per_shard_window(10, 4), 3);
        assert_eq!(per_shard_window(1, 8), 2); // clamped for Tbf validity
        assert_eq!(per_shard_window(100, 1), 100);
    }

    // ---- time-based sharding -------------------------------------------

    use crate::{OpCounters, TimeGbf, TimeGbfConfig, TimeTbf, TimeTbfConfig};
    use cfd_windows::ExactTimeSlidingDedup;

    fn sharded_time_tbf(seed: u64, shards: usize) -> ShardedDetector<TimeTbf> {
        ShardedDetector::from_fn(seed, shards, |_| {
            TimeTbf::new(TimeTbfConfig::new(32, 10, 1 << 12, 6, 21)?)
        })
        .expect("valid sharded time-tbf")
    }

    /// An irregular but mostly-monotone tick stream with occasional
    /// regressions, plus a cyclic key so duplicates recur at many gaps.
    fn timed_stream(len: u64) -> (Vec<Vec<u8>>, Vec<u64>) {
        let mut tick = 0u64;
        let mut ids = Vec::new();
        let mut ticks = Vec::new();
        for i in 0..len {
            tick += (i * 7 + 3) % 11;
            if i % 97 == 96 {
                tick = tick.saturating_sub(25); // regressions exercise clamping
            }
            ids.push((i % 700).to_le_bytes().to_vec());
            ticks.push(tick);
        }
        (ids, ticks)
    }

    /// A sharded time window's batch path — one scatter/gather, each
    /// shard judging its bucket in one timed batch — equals per-click
    /// `observe_at`, verdict for verdict and shard op counter for
    /// counter, over both key views.
    #[test]
    fn timed_sharded_batch_matches_sequential() {
        fn check<D: DuplicateDetector>(make: impl Fn() -> D, ops: impl Fn(&D) -> OpCounters) {
            let (ids, ticks) = timed_stream(6_000);
            let id_slices: Vec<&[u8]> = ids.iter().map(Vec::as_slice).collect();
            let flat: Vec<u8> = ids.concat();
            let mut sequential = ShardedDetector::from_fn(3, 4, |_| Ok::<_, ConfigError>(make()))
                .expect("valid sharded detector");
            let want: Vec<Verdict> = id_slices
                .iter()
                .zip(&ticks)
                .map(|(id, &t)| sequential.observe_at(id, t))
                .collect();
            for flat_view in [false, true] {
                let mut batched = ShardedDetector::from_fn(3, 4, |_| Ok::<_, ConfigError>(make()))
                    .expect("valid sharded detector");
                let (mut got, mut out) = (Vec::new(), Vec::new());
                for (i, tc) in ticks.chunks(97).enumerate() {
                    let at = i * 97;
                    let keys = if flat_view {
                        Keys::flat(&flat[at * 8..(at + tc.len()) * 8], 8)
                    } else {
                        Keys::Refs(&id_slices[at..at + tc.len()])
                    };
                    batched.observe_keys_into(keys, Some(tc), &mut out);
                    got.extend_from_slice(&out);
                }
                assert_eq!(got, want, "flat view {flat_view}");
                for (b, s) in batched.shards().iter().zip(sequential.shards()) {
                    assert_eq!(ops(b), ops(s), "flat view {flat_view}");
                }
            }
        }
        check(
            || TimeTbf::new(TimeTbfConfig::new(32, 10, 1 << 12, 6, 21).expect("cfg")).unwrap(),
            TimeTbf::ops,
        );
        check(
            || TimeGbf::new(TimeGbfConfig::new(6, 5, 10, 1 << 12, 4, 21).expect("cfg")).unwrap(),
            TimeGbf::ops,
        );
    }

    /// A time detector's tickless plan replay judges every plan at the
    /// current clock, as tickless `observe` does.
    #[test]
    fn timed_plan_batch_matches_tickless_observe() {
        fn check<D: PlannedDetector>(make: impl Fn() -> D) {
            let (ids, ticks) = timed_stream(6_000);
            let (prefix, rest) = ids.split_at(3_000);
            let (mut reference, mut batched) = (make(), make());
            for (id, &t) in prefix.iter().zip(&ticks) {
                reference.observe_at(id, t);
                batched.observe_at(id, t);
            }
            let want: Vec<Verdict> = rest.iter().map(|id| reference.observe(id)).collect();
            let planner = batched.probe_planner();
            let plans: Vec<ProbePlan> = rest.iter().map(|id| planner.plan(id)).collect();
            let (mut got, mut out) = (Vec::new(), Vec::new());
            for pc in plans.chunks(97) {
                batched.apply_plan_batch_into(pc, &mut out);
                got.extend_from_slice(&out);
            }
            assert_eq!(got, want);
        }
        check(|| TimeTbf::new(TimeTbfConfig::new(32, 10, 1 << 12, 6, 21).expect("cfg")).unwrap());
        check(|| TimeGbf::new(TimeGbfConfig::new(6, 5, 10, 1 << 12, 4, 21).expect("cfg")).unwrap());
    }

    #[test]
    fn timed_sharded_zero_false_negatives_vs_global_oracle() {
        // Time-based windows are shard-transparent: all shards share
        // wall clock, so one *global* exact timed oracle is the ground
        // truth (no per-shard rescaling, unlike count windows).
        let mut d = sharded_time_tbf(7, 4);
        let mut oracle = ExactTimeSlidingDedup::new(32, 10);
        let (ids, ticks) = timed_stream(30_000);
        for (i, (id, &t)) in ids.iter().zip(&ticks).enumerate() {
            let got = d.observe_at(id, t);
            if oracle.observe_at(id, t) == Verdict::Duplicate {
                assert_eq!(got, Verdict::Duplicate, "false negative at element {i}");
            }
        }
    }

    #[test]
    fn route_prefix_is_deterministic_and_in_range() {
        let router = ShardRouter::new(9, 7).unwrap();
        for prefix in 0..10_000u64 {
            let shard = router.route_prefix(prefix);
            assert!(shard < 7);
            assert_eq!(shard, router.route_prefix(prefix), "stable");
        }
        // All ids sharing a tenant prefix land on one shard.
        let mut key = 42u64.to_le_bytes().to_vec();
        key.extend_from_slice(b"click-a");
        assert_eq!(
            router.route_prefix(cfd_hash::tenant_prefix(&key)),
            router.route_prefix(42)
        );
        // And the mapping actually spreads tenants around.
        let hits: std::collections::HashSet<usize> =
            (0..100u64).map(|p| router.route_prefix(p)).collect();
        assert!(hits.len() > 1);
    }

    #[test]
    fn tenant_routed_batch_matches_one_arena_per_tenant_stream() {
        use crate::arena::{ArenaConfig, TenantArena};
        // Sharded arenas driven tenant-routed must give each tenant the
        // same verdicts as ONE arena seeing the whole stream: a tenant
        // never splits across shards, and within a shard the arena is
        // order-preserving.
        let router_seed = 11;
        let router = ShardRouter::new(router_seed, 4).unwrap();
        let cfg = ArenaConfig::new(32, 307, 4, router.probe_seed()).with_initial_slots(2);
        let mut sharded =
            ShardedDetector::from_fn(router_seed, 4, |_| TenantArena::new(cfg)).unwrap();
        assert!(sharded.hash_once_aligned());
        let mut reference = TenantArena::new(cfg).unwrap();
        let mut rng = 77u64;
        let keys: Vec<Vec<u8>> = (0..4_000)
            .map(|_| {
                rng = cfd_hash::mix::splitmix64(rng);
                let mut k = (rng % 23).to_le_bytes().to_vec();
                k.extend_from_slice(&(rng % 31).to_le_bytes());
                k
            })
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let want: Vec<Verdict> = refs.iter().map(|id| reference.observe(id)).collect();
        let got = sharded.observe_batch_tenant_routed(&refs);
        assert_eq!(got, want);
        let live: usize = sharded.shards().iter().map(TenantArena::live_tenants).sum();
        assert_eq!(live, reference.live_tenants(), "tenants partitioned");
        assert!(
            sharded
                .shards()
                .iter()
                .filter(|s| s.live_tenants() > 0)
                .count()
                > 1,
            "tenants actually spread across shards"
        );
    }

    #[test]
    fn tenant_routed_fallback_matches_on_misaligned_shards() {
        use crate::arena::{ArenaConfig, TenantArena};
        let cfg = ArenaConfig::new(32, 307, 4, 0xDECAF).with_initial_slots(2);
        let mut fast = ShardedDetector::from_fn(5, 3, |_| TenantArena::new(cfg)).unwrap();
        let mut slow = ShardedDetector::from_fn(5, 3, |_| TenantArena::new(cfg)).unwrap();
        assert!(!fast.hash_once_aligned());
        let keys: Vec<Vec<u8>> = (0..900u64)
            .map(|i| {
                let mut k = (i % 13).to_le_bytes().to_vec();
                k.extend_from_slice(&(i % 17).to_le_bytes());
                k
            })
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let want = fast.observe_batch_tenant_routed(&refs);
        // Reference: per-id routing through the same prefix router.
        let router = ShardRouter::new(5, 3).unwrap();
        let got: Vec<Verdict> = refs
            .iter()
            .map(|id| {
                let shard = router.route_prefix(cfd_hash::tenant_prefix(id));
                slow.shard_mut(shard).observe(id)
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn timed_window_passes_through_unscaled() {
        let d = sharded_time_tbf(3, 4);
        // 32 units of 10 ticks: the global window, not 4x it.
        assert_eq!(d.window(), WindowSpec::TimeSliding { ticks: 320 });
        let single = d.shards()[0].memory_bits();
        assert_eq!(d.memory_bits(), single * 4);
    }
}
