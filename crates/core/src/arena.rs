//! Multi-tenant detector arena: many (advertiser, campaign) windows in
//! one shared slab.
//!
//! The paper's commissioner dedupes *each campaign's* click stream
//! independently (§1), but at millions of campaigns one heap-allocated
//! detector per tenant means millions of allocations, cold caches, and a
//! per-tenant hash cost. [`TenantArena`] packs every tenant's filter into
//! one [`cfd_bits::slab::WordSlab`]: a tenant is a *(slot, shared
//! geometry)* view over the slab's words — all tenants share one entry
//! width, one probe count, and one cache-line-aligned stride, so the
//! per-tenant marginal cost is the stride bytes and a 16-byte map entry.
//!
//! Per tenant the arena runs the paper's timing Bloom filter (§4)
//! verbatim: `m_t` wraparound timestamp entries over a sliding window of
//! the tenant's last `n_t` clicks, amortized cleaning included. The three
//! scale mechanisms on top:
//!
//! * **Hash-once routing** — a [`Planner`] plan carries the id's routing
//!   prefix ([`cfd_hash::tenant_prefix`]: the first eight key bytes) next
//!   to its 128-bit probe hash, so keys shaped `[tenant_id ‖ click_id]`
//!   route to their tenant with *zero* extra hash work, whatever the
//!   tenant count. The prefix→slot map is a flat open-addressing table
//!   (linear probing, backward-shift deletion).
//! * **Lazy instantiation** — a tenant materializes on its first click:
//!   pop a free slot (growing the slab by doubling when none is free),
//!   write the all-ones `empty` marker over its region, start its wrap
//!   clock at zero.
//! * **Idle decay** — optionally ([`ArenaConfig::with_idle_eviction`]),
//!   each arrival also inspects one slot round-robin (the same amortized
//!   schedule as the cleaning daemon) and evicts any tenant idle for more
//!   than the configured number of global arrivals, recycling its slot.
//!   Off by default: eviction forgets a tenant's window, which the
//!   registry-built backend must not do.
//!
//! Batch replay ([`PlannedDetector::apply_plan_batch_into`]) preserves
//! stream order exactly — batch ≡ sequential — while prefetching the next
//! tenant's region across run boundaries, so same-tenant runs (which the
//! Zipf generator in `cfd-stream` emits naturally) replay out of warm
//! lines.

use crate::backend;
use crate::config::{ConfigError, ProbeLayout};
use crate::ops::OpCounters;
use crate::sharded::PlannedDetector;
use cfd_bits::slab::{PackedRef, PackedView, WordSlab};
use cfd_bits::words::bits_for_value;
use cfd_hash::mix::splitmix64;
use cfd_hash::{BlockGeometry, DoubleHashFamily, Planner, ProbePlan};
use cfd_telemetry::{DetectorHealth, DetectorStats, TenantHealth};
use cfd_windows::{DuplicateDetector, Keys, Verdict, WindowSpec};
use std::borrow::Cow;
use std::cell::Cell;

/// Initial slot count used by [`ArenaConfig::for_budget`]: a memory
/// budget is split into this many tenant regions up front, and the slab
/// doubles from there on demand.
pub const DEFAULT_INITIAL_SLOTS: usize = 8;

/// Hard ceiling on arena slots (2^26 ≈ 67M tenants): a restore guard so
/// a corrupt checkpoint header cannot demand an absurd allocation.
const MAX_ARENA_SLOTS: usize = 1 << 26;

/// Geometry shared by every tenant of a [`TenantArena`].
///
/// One config describes *all* tenants: per-tenant window `n_t`, entries
/// per tenant `m_t`, probe count `k`, and the probe layout. The arena
/// needs the shapes identical — that is what lets a tenant be a plain
/// (slot, stride) view instead of an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaConfig {
    /// Per-tenant sliding-window length in elements (`n_t >= 2`).
    pub tenant_window: usize,
    /// Timestamp entries per tenant region (`m_t` in the TBF sizing).
    pub tenant_entries: usize,
    /// Probe indices per element (`k`, `1..=64`).
    pub hash_count: usize,
    /// Hash-family seed shared by probing and routing.
    pub seed: u64,
    /// Slots allocated up front; the slab doubles when they run out.
    pub initial_slots: usize,
    /// `Some(a)`: evict a tenant once it has been idle for more than `a`
    /// global arrivals (`a >= 1`). `None` (default): tenants never decay.
    pub idle_eviction: Option<u64>,
    /// Probe layout of every tenant region.
    pub probe: ProbeLayout,
}

impl ArenaConfig {
    /// Config with the given shared tenant geometry,
    /// [`DEFAULT_INITIAL_SLOTS`] slots, no idle eviction, and scattered
    /// probing. Validated by [`TenantArena::new`].
    #[must_use]
    pub fn new(tenant_window: usize, tenant_entries: usize, hash_count: usize, seed: u64) -> Self {
        Self {
            tenant_window,
            tenant_entries,
            hash_count,
            seed,
            initial_slots: DEFAULT_INITIAL_SLOTS,
            idle_eviction: None,
            probe: ProbeLayout::Scattered,
        }
    }

    /// Splits a total memory budget into [`DEFAULT_INITIAL_SLOTS`]
    /// per-tenant regions: `m_t = (total_bits / slots) / entry_bits`.
    /// The slab grows by doubling once more tenants than slots appear,
    /// so the budget bounds the *initial* footprint, not the tenant
    /// count.
    pub fn for_budget(
        tenant_window: usize,
        total_bits: usize,
        hash_count: usize,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if tenant_window < 2 {
            return Err(ConfigError::WindowTooSmall(tenant_window));
        }
        let entry_bits = bits_for_value(2 * tenant_window as u64 - 1) as usize;
        let tenant_entries = (total_bits / DEFAULT_INITIAL_SLOTS) / entry_bits;
        if tenant_entries == 0 {
            return Err(ConfigError::MemoryTooSmall {
                provided: total_bits,
                required: DEFAULT_INITIAL_SLOTS * entry_bits,
            });
        }
        Ok(Self::new(tenant_window, tenant_entries, hash_count, seed))
    }

    /// The same config with a different initial slot count.
    #[must_use]
    pub fn with_initial_slots(mut self, slots: usize) -> Self {
        self.initial_slots = slots;
        self
    }

    /// The same config with idle eviction enabled: tenants untouched for
    /// more than `idle_arrivals` global arrivals are decayed and their
    /// slot recycled.
    #[must_use]
    pub fn with_idle_eviction(mut self, idle_arrivals: u64) -> Self {
        self.idle_eviction = Some(idle_arrivals);
        self
    }

    /// The same config with a different probe layout.
    #[must_use]
    pub fn with_probe(mut self, probe: ProbeLayout) -> Self {
        self.probe = probe;
        self
    }

    /// Timestamp clock period: `2·n_t − 1`, the TBF wraparound range for
    /// a window of `n_t` with `c = n_t − 1` expiry slack.
    #[must_use]
    pub fn range(&self) -> u64 {
        2 * self.tenant_window as u64 - 1
    }

    /// Bits per timestamp entry.
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        bits_for_value(self.range())
    }

    /// Entries each arrival sweeps in its tenant's region:
    /// `⌈m_t / n_t⌉`, the TBF amortized-cleaning quota for
    /// `c = n_t − 1`.
    #[must_use]
    pub fn clean_quota(&self) -> usize {
        self.tenant_entries.div_ceil(self.tenant_window)
    }

    /// The cache-line block geometry shared by every region, when one
    /// exists for this entry shape.
    #[must_use]
    pub fn block_geometry(&self) -> Option<BlockGeometry> {
        BlockGeometry::for_line(self.tenant_entries, self.entry_bits() as usize)
    }

    /// Raw (pre-rounding) words per tenant region; [`WordSlab`] rounds
    /// this up to whole cache lines.
    fn stride_words(&self) -> Result<usize, ConfigError> {
        let bits = self
            .tenant_entries
            .checked_mul(self.entry_bits() as usize)
            .ok_or(ConfigError::ArithmeticOverflow {
                what: "tenant region bits",
            })?;
        Ok(bits.div_ceil(64))
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.tenant_window < 2 {
            return Err(ConfigError::WindowTooSmall(self.tenant_window));
        }
        if self.tenant_entries == 0 {
            return Err(ConfigError::ZeroDimension("tenant entry count m_t"));
        }
        if self.initial_slots == 0 {
            return Err(ConfigError::ZeroDimension("arena slot count"));
        }
        if !(1..=64).contains(&self.hash_count) {
            return Err(ConfigError::BadHashCount(self.hash_count));
        }
        if self.idle_eviction == Some(0) {
            return Err(ConfigError::ZeroDimension("idle eviction age"));
        }
        self.stride_words()?;
        Ok(())
    }
}

/// Point-in-time gauges of one arena, for telemetry export and the
/// tenant bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArenaStats {
    /// Slots currently allocated in the slab.
    pub slots: usize,
    /// Tenants currently materialized.
    pub live_tenants: usize,
    /// Tenants decayed by idle eviction since construction.
    pub evictions: u64,
    /// Total slab payload, bytes.
    pub slab_bytes: usize,
    /// Bytes of one tenant region (cache-line-rounded stride).
    pub stride_bytes: usize,
    /// `live_tenants / slots`.
    pub occupancy: f64,
    /// Amortized slab bytes per live tenant (0 when no tenant is live).
    pub bytes_per_live_tenant: f64,
}

/// Per-tenant bookkeeping: 32 bytes beside the region itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TenantMeta {
    /// The routing prefix that owns this slot.
    prefix: u64,
    /// Wraparound clock position: the timestamp the tenant's *next*
    /// element receives.
    now: u64,
    /// Next entry index of the tenant's cleaning sweep.
    clean_next: usize,
    /// Global arrival counter value at the tenant's last click.
    last_touch: u64,
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Whether a timestamp is inside the active window relative to a tenant
/// clock at `now` — the standalone TBF predicate: wraparound age in
/// `[1, n_t − 1]`.
#[inline]
fn active_in(ts: u64, now: u64, range: u64, hi: u64) -> bool {
    let age = if now >= ts {
        now - ts
    } else {
        range - ts + now
    };
    (1..=hi).contains(&age)
}

/// Flat open-addressing prefix→slot map: linear probing, power-of-two
/// capacity, backward-shift deletion (no tombstones, so lookup cost
/// stays bounded under heavy eviction churn). Rebuilt from tenant metas
/// on restore — never serialized.
#[derive(Debug, Clone)]
struct TenantMap {
    keys: Vec<u64>,
    slots: Vec<u32>,
    live: usize,
}

impl TenantMap {
    fn with_room_for(expected: usize) -> Self {
        let cap = (expected.max(4) * 2).next_power_of_two();
        Self {
            keys: vec![0; cap],
            slots: vec![EMPTY_SLOT; cap],
            live: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    #[inline]
    fn home(&self, prefix: u64) -> usize {
        splitmix64(prefix) as usize & self.mask()
    }

    #[inline]
    fn find(&self, prefix: u64) -> Option<u32> {
        let mask = self.mask();
        let mut i = self.home(prefix);
        loop {
            if self.slots[i] == EMPTY_SLOT {
                return None;
            }
            if self.keys[i] == prefix {
                return Some(self.slots[i]);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts an absent prefix, growing past the 0.7 load factor.
    fn insert(&mut self, prefix: u64, slot: u32) {
        if (self.live + 1) * 10 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.home(prefix);
        while self.slots[i] != EMPTY_SLOT {
            debug_assert_ne!(self.keys[i], prefix, "prefix inserted twice");
            i = (i + 1) & mask;
        }
        self.keys[i] = prefix;
        self.slots[i] = slot;
        self.live += 1;
    }

    fn grow(&mut self) {
        let mut bigger = Self {
            keys: vec![0; self.keys.len() * 2],
            slots: vec![EMPTY_SLOT; self.keys.len() * 2],
            live: 0,
        };
        for i in 0..self.keys.len() {
            if self.slots[i] != EMPTY_SLOT {
                bigger.insert(self.keys[i], self.slots[i]);
            }
        }
        *self = bigger;
    }

    /// Removes a prefix by backward-shifting the cluster behind it: an
    /// entry at `j` moves into the hole at `i` only if its home position
    /// lies cyclically outside `(i, j]`, which preserves every remaining
    /// entry's reachability from its home.
    fn remove(&mut self, prefix: u64) -> bool {
        let mask = self.mask();
        let mut i = self.home(prefix);
        loop {
            if self.slots[i] == EMPTY_SLOT {
                return false;
            }
            if self.keys[i] == prefix {
                break;
            }
            i = (i + 1) & mask;
        }
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if self.slots[j] == EMPTY_SLOT {
                break;
            }
            let home = self.home(self.keys[j]);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.keys[i] = self.keys[j];
                self.slots[i] = self.slots[j];
                i = j;
            }
        }
        self.slots[i] = EMPTY_SLOT;
        self.live -= 1;
        true
    }
}

/// Many logical per-tenant timing Bloom filters in one shared slab,
/// routed hash-once by key prefix.
///
/// Keys are `[tenant_id ‖ click_id]`: the first eight bytes route
/// (see [`cfd_hash::tenant_prefix`]), the full key probes. Each tenant
/// behaves exactly like a standalone [`crate::Tbf`] over that tenant's
/// subsequence of the stream — [`TenantArena::window`] reports the
/// *per-tenant* sliding window.
///
/// ```rust
/// use cfd_core::arena::{ArenaConfig, TenantArena};
/// use cfd_windows::DuplicateDetector;
///
/// let mut arena = TenantArena::new(ArenaConfig::new(64, 512, 4, 7)).unwrap();
/// let click = |tenant: u64, click: u64| {
///     let mut key = tenant.to_le_bytes().to_vec();
///     key.extend_from_slice(&click.to_le_bytes());
///     key
/// };
/// assert!(arena.observe(&click(1, 10)).is_distinct());
/// assert!(arena.observe(&click(2, 10)).is_distinct()); // other tenant
/// assert!(arena.observe(&click(1, 10)).is_duplicate());
/// assert_eq!(arena.live_tenants(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TenantArena {
    cfg: ArenaConfig,
    slab: WordSlab,
    metas: Vec<Option<TenantMeta>>,
    map: TenantMap,
    /// Recycled slot stack; popped before the slab grows.
    free: Vec<u32>,
    family: DoubleHashFamily,
    geo: Option<BlockGeometry>,
    k_eff: usize,
    entry_bits: u32,
    /// All-ones entry marker (also the packed `max_value`).
    empty: u64,
    /// Global arrival counter driving idle decay.
    arrivals: u64,
    /// Round-robin eviction-scan position.
    scan_cursor: usize,
    evictions: u64,
    ops: OpCounters,
    probe_buf: Vec<usize>,
    plan_buf: Vec<ProbePlan>,
    scans: Cell<u64>,
}

impl TenantArena {
    /// Builds an empty arena (no tenant materialized) after validating
    /// the shared geometry.
    pub fn new(cfg: ArenaConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let geo = match cfg.probe {
            ProbeLayout::Scattered => None,
            ProbeLayout::Blocked => Some(cfg.block_geometry().ok_or(
                ConfigError::BlockedUnsupported {
                    slot_bits: cfg.entry_bits() as usize,
                    m: cfg.tenant_entries,
                },
            )?),
        };
        let k_eff = backend::effective_k(cfg.hash_count, geo.as_ref());
        let entry_bits = cfg.entry_bits();
        let slab = WordSlab::new(cfg.initial_slots, cfg.stride_words()?);
        Ok(Self {
            cfg,
            slab,
            metas: vec![None; cfg.initial_slots],
            map: TenantMap::with_room_for(cfg.initial_slots),
            free: (0..cfg.initial_slots as u32).rev().collect(),
            family: DoubleHashFamily::new(cfg.seed),
            geo,
            k_eff,
            entry_bits,
            empty: (1u64 << entry_bits) - 1,
            arrivals: 0,
            scan_cursor: 0,
            evictions: 0,
            ops: OpCounters::new(),
            probe_buf: vec![0; k_eff],
            plan_buf: Vec::new(),
            scans: Cell::new(0),
        })
    }

    /// The shared tenant geometry.
    #[must_use]
    pub fn config(&self) -> &ArenaConfig {
        &self.cfg
    }

    /// Tenants currently materialized.
    #[must_use]
    pub fn live_tenants(&self) -> usize {
        self.map.live
    }

    /// Slots currently allocated (live + free).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slab.slots()
    }

    /// Tenants decayed by idle eviction since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Cumulative memory-operation counters.
    #[must_use]
    pub fn counters(&self) -> OpCounters {
        self.ops
    }

    /// Point-in-time arena gauges (exported as the `arena.*` metrics).
    #[must_use]
    pub fn arena_stats(&self) -> ArenaStats {
        let slots = self.slab.slots();
        let live = self.map.live;
        let slab_bytes = self.slab.memory_bits() / 8;
        ArenaStats {
            slots,
            live_tenants: live,
            evictions: self.evictions,
            slab_bytes,
            stride_bytes: self.slab.stride_words() * 8,
            occupancy: live as f64 / slots.max(1) as f64,
            bytes_per_live_tenant: if live == 0 {
                0.0
            } else {
                slab_bytes as f64 / live as f64
            },
        }
    }

    /// One round-robin idle-decay step, mirroring the cleaning daemon's
    /// amortization: inspect one slot per arrival.
    fn evict_step(&mut self) {
        let Some(idle) = self.cfg.idle_eviction else {
            return;
        };
        let slots = self.slab.slots();
        let cursor = self.scan_cursor;
        self.scan_cursor = (cursor + 1) % slots;
        if let Some(meta) = self.metas[cursor] {
            if self.arrivals.saturating_sub(meta.last_touch) > idle {
                self.map.remove(meta.prefix);
                self.metas[cursor] = None;
                self.slab.fill_region(cursor, u64::MAX);
                self.free.push(cursor as u32);
                self.evictions += 1;
            }
        }
    }

    /// Resolves a prefix to its slot, materializing the tenant on first
    /// click (growing the slab by doubling when no slot is free).
    fn slot_for(&mut self, prefix: u64) -> usize {
        if let Some(slot) = self.map.find(prefix) {
            return slot as usize;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let old = self.slab.slots();
                assert!(old * 2 <= MAX_ARENA_SLOTS, "arena slot cap exceeded");
                self.slab.grow(old);
                self.metas.resize(old * 2, None);
                self.free.extend((old as u32..(old * 2) as u32).rev());
                self.free.pop().expect("grow produced free slots")
            }
        };
        self.slab.fill_region(slot as usize, u64::MAX);
        self.metas[slot as usize] = Some(TenantMeta {
            prefix,
            now: 0,
            clean_next: 0,
            last_touch: self.arrivals,
        });
        self.map.insert(prefix, slot);
        slot as usize
    }

    /// The amortized cleaning sweep of one tenant: `⌈m_t/n_t⌉` entries
    /// from its sweep cursor, split at the region boundary.
    fn clean_step(&mut self, slot: usize, meta: &mut TenantMeta) {
        let m = self.cfg.tenant_entries;
        let quota = self.cfg.clean_quota();
        let range = self.cfg.range();
        let hi = self.cfg.tenant_window as u64 - 1;
        let mut view = PackedView::new(self.slab.region_mut(slot), m, self.entry_bits);
        let first = quota.min(m - meta.clean_next);
        let mut cleaned = view.expire_range(meta.clean_next, first, meta.now, range, 1, hi);
        if quota > first {
            cleaned += view.expire_range(0, quota - first, meta.now, range, 1, hi);
        }
        self.ops.clean_reads += quota as u64;
        self.ops.clean_writes += cleaned as u64;
        meta.clean_next = (meta.clean_next + quota) % m;
    }

    /// The stateful half of one observation: route, decay-scan, clean,
    /// probe, insert, tick the tenant clock.
    fn apply(&mut self, plan: ProbePlan) -> Verdict {
        self.arrivals += 1;
        self.ops.elements += 1;
        self.ops.hash_evals += 1;
        self.evict_step();
        let slot = self.slot_for(plan.prefix());
        let mut meta = self.metas[slot].expect("routed slot is live");
        meta.last_touch = self.arrivals;
        self.clean_step(slot, &mut meta);

        let m = self.cfg.tenant_entries;
        let mut probes = std::mem::take(&mut self.probe_buf);
        probes.resize(self.k_eff, 0);
        match &self.geo {
            Some(geo) => plan.fill_blocked(geo, &mut probes),
            None => plan.fill(m, &mut probes),
        }

        let empty = self.empty;
        let range = self.cfg.range();
        let hi = self.cfg.tenant_window as u64 - 1;
        let mut view = PackedView::new(self.slab.region_mut(slot), m, self.entry_bits);
        let mut duplicate = true;
        let mut reads = 0u64;
        for &i in &probes {
            reads += 1;
            let e = view.get(i);
            if e == empty || !active_in(e, meta.now, range, hi) {
                duplicate = false;
                break;
            }
        }
        self.ops.probe_reads += reads;
        if !duplicate {
            for &i in &probes {
                view.set(i, meta.now);
            }
            self.ops.insert_writes += probes.len() as u64;
        }
        self.probe_buf = probes;
        meta.now = (meta.now + 1) % self.cfg.range();
        self.metas[slot] = Some(meta);
        if duplicate {
            Verdict::Duplicate
        } else {
            Verdict::Distinct
        }
    }

    /// Active (in-window) entries across all live tenants; one full
    /// occupancy scan.
    fn active_entries(&self) -> u64 {
        self.scans.set(self.scans.get() + 1);
        let m = self.cfg.tenant_entries;
        let range = self.cfg.range();
        let hi = self.cfg.tenant_window as u64 - 1;
        let mut active = 0u64;
        for (slot, meta) in self.metas.iter().enumerate() {
            let Some(meta) = meta else { continue };
            let view = PackedRef::new(self.slab.region(slot), m, self.entry_bits);
            for i in 0..m {
                let e = view.get(i);
                if e != self.empty && active_in(e, meta.now, range, hi) {
                    active += 1;
                }
            }
        }
        active
    }

    fn fill_from_active(&self, active: u64) -> f64 {
        let live_entries = self.map.live * self.cfg.tenant_entries;
        if live_entries == 0 {
            0.0
        } else {
            active as f64 / live_entries as f64
        }
    }

    fn sweep_fraction(&self) -> f64 {
        if self.map.live == 0 {
            return 0.0;
        }
        let m = self.cfg.tenant_entries as f64;
        let sum: f64 = self
            .metas
            .iter()
            .flatten()
            .map(|meta| meta.clean_next as f64 / m)
            .sum();
        sum / self.map.live as f64
    }

    fn duplicates_observed(&self) -> u64 {
        self.ops.elements - self.ops.insert_writes / self.k_eff as u64
    }

    pub(crate) fn checkpoint_parts(&self) -> (ArenaConfig, ArenaState<'_>) {
        (
            self.cfg,
            ArenaState {
                arrivals: self.arrivals,
                scan_cursor: self.scan_cursor as u64,
                evictions: self.evictions,
                slots: self.slab.slots() as u64,
                metas: self
                    .metas
                    .iter()
                    .map(|m| m.map(|m| (m.prefix, m.now, m.clean_next as u64, m.last_touch)))
                    .collect(),
                free: self.free.iter().map(|&s| u64::from(s)).collect(),
                words: Cow::Borrowed(self.slab.as_words()),
            },
        )
    }

    /// Rebuilds an arena from checkpointed parts, re-deriving the
    /// prefix→slot map; `None` on any inconsistency.
    pub(crate) fn from_checkpoint_parts(cfg: ArenaConfig, state: ArenaState<'_>) -> Option<Self> {
        let mut arena = Self::new(cfg).ok()?;
        let slots = usize::try_from(state.slots).ok()?;
        if slots < cfg.initial_slots || slots > MAX_ARENA_SLOTS || state.metas.len() != slots {
            return None;
        }
        let slab = WordSlab::from_words(state.words.into_owned(), slots, cfg.stride_words().ok()?)?;
        let mut map = TenantMap::with_room_for(slots.min(state.metas.len()));
        let mut metas: Vec<Option<TenantMeta>> = Vec::with_capacity(slots);
        for parts in &state.metas {
            metas.push(match *parts {
                None => None,
                Some((prefix, now, clean_next, last_touch)) => {
                    let clean_next = usize::try_from(clean_next).ok()?;
                    if now >= cfg.range()
                        || clean_next >= cfg.tenant_entries
                        || last_touch > state.arrivals
                        || map.find(prefix).is_some()
                    {
                        return None;
                    }
                    map.insert(prefix, (metas.len()) as u32);
                    Some(TenantMeta {
                        prefix,
                        now,
                        clean_next,
                        last_touch,
                    })
                }
            });
        }
        let mut seen = vec![false; slots];
        let mut free = Vec::with_capacity(state.free.len());
        for &f in &state.free {
            let f = usize::try_from(f).ok()?;
            if f >= slots || seen[f] || metas[f].is_some() {
                return None;
            }
            seen[f] = true;
            free.push(f as u32);
        }
        if free.len() + map.live != slots {
            return None;
        }
        let scan_cursor = usize::try_from(state.scan_cursor).ok()?;
        if scan_cursor >= slots {
            return None;
        }
        arena.slab = slab;
        arena.metas = metas;
        arena.map = map;
        arena.free = free;
        arena.arrivals = state.arrivals;
        arena.scan_cursor = scan_cursor;
        arena.evictions = state.evictions;
        Some(arena)
    }
}

/// Checkpointed dynamic state of an arena (configuration travels
/// separately). The prefix→slot map is *not* part of the state — it is
/// re-derived from the metas on restore.
pub(crate) struct ArenaState<'a> {
    pub arrivals: u64,
    pub scan_cursor: u64,
    pub evictions: u64,
    pub slots: u64,
    pub metas: Vec<Option<(u64, u64, u64, u64)>>,
    pub free: Vec<u64>,
    pub words: Cow<'a, [u64]>,
}

impl DuplicateDetector for TenantArena {
    fn observe(&mut self, id: &[u8]) -> Verdict {
        let plan = self.probe_planner().plan(id);
        self.apply(plan)
    }

    fn observe_keys_into(
        &mut self,
        keys: Keys<'_>,
        _ticks: Option<&[u64]>,
        out: &mut Vec<Verdict>,
    ) {
        let mut plans = std::mem::take(&mut self.plan_buf);
        backend::plan_keys_into(self.probe_planner(), keys, &mut plans);
        self.apply_plan_batch_into(&plans, out);
        self.plan_buf = plans;
    }

    fn window(&self) -> WindowSpec {
        WindowSpec::Sliding {
            n: self.cfg.tenant_window,
        }
    }

    fn memory_bits(&self) -> usize {
        self.slab.memory_bits()
    }

    fn reset(&mut self) {
        *self = Self::new(self.cfg).expect("validated config");
    }

    fn name(&self) -> &'static str {
        "arena"
    }
}

impl PlannedDetector for TenantArena {
    fn probe_planner(&self) -> Planner {
        Planner::from_family(self.family)
    }

    fn apply_plan(&mut self, plan: ProbePlan) -> Verdict {
        self.apply(plan)
    }

    /// Order-preserving replay (batch ≡ sequential by construction) that
    /// prefetches the *next* tenant's region across run boundaries, so
    /// grouped same-tenant runs replay out of warm cache lines.
    fn apply_plan_batch_into(&mut self, plans: &[ProbePlan], out: &mut Vec<Verdict>) {
        out.clear();
        out.reserve(plans.len());
        for (i, &plan) in plans.iter().enumerate() {
            if let Some(next) = plans.get(i + 1) {
                if next.prefix() != plan.prefix() {
                    if let Some(slot) = self.map.find(next.prefix()) {
                        self.slab.prefetch(slot as usize);
                    }
                }
            }
            out.push(self.apply(plan));
        }
    }
}

impl DetectorStats for TenantArena {
    fn stats_name(&self) -> &'static str {
        "arena"
    }

    fn fill_ratios(&self) -> Vec<f64> {
        vec![self.fill_from_active(self.active_entries())]
    }

    fn sweep_position(&self) -> f64 {
        self.sweep_fraction()
    }

    fn cleaned_entries(&self) -> u64 {
        self.ops.clean_writes
    }

    fn observed_elements(&self) -> u64 {
        self.ops.elements
    }

    fn observed_duplicates(&self) -> u64 {
        self.duplicates_observed()
    }

    fn estimated_fp(&self) -> f64 {
        self.fill_from_active(self.active_entries())
            .powi(self.k_eff as i32)
    }

    fn occupancy_scans(&self) -> u64 {
        self.scans.get()
    }

    fn tenant_health(&self) -> Option<TenantHealth> {
        let s = self.arena_stats();
        Some(TenantHealth {
            slots: s.slots,
            live_tenants: s.live_tenants,
            evictions: s.evictions,
            occupancy: s.occupancy,
            bytes_per_live_tenant: s.bytes_per_live_tenant,
        })
    }

    fn health(&self) -> DetectorHealth {
        let fill = self.fill_from_active(self.active_entries());
        DetectorHealth {
            detector: self.stats_name(),
            fill_ratios: vec![fill],
            cleaning_backlog: 0.0,
            sweep_position: self.sweep_fraction(),
            cleaned_entries: self.ops.clean_writes,
            observed_elements: self.ops.elements,
            observed_duplicates: self.duplicates_observed(),
            estimated_fp: fill.powi(self.k_eff as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tbf;
    use crate::TbfConfig;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn key(tenant: u64, click: u64) -> Vec<u8> {
        let mut k = tenant.to_le_bytes().to_vec();
        k.extend_from_slice(&click.to_le_bytes());
        k
    }

    fn small_cfg() -> ArenaConfig {
        ArenaConfig::new(32, 307, 4, 0xA1E)
    }

    #[test]
    fn config_validation_rejects_bad_shapes() {
        assert_eq!(
            TenantArena::new(ArenaConfig::new(1, 8, 4, 0)).unwrap_err(),
            ConfigError::WindowTooSmall(1)
        );
        assert_eq!(
            TenantArena::new(ArenaConfig::new(8, 0, 4, 0)).unwrap_err(),
            ConfigError::ZeroDimension("tenant entry count m_t")
        );
        assert_eq!(
            TenantArena::new(ArenaConfig::new(8, 8, 0, 0)).unwrap_err(),
            ConfigError::BadHashCount(0)
        );
        assert_eq!(
            TenantArena::new(ArenaConfig::new(8, 8, 4, 0).with_initial_slots(0)).unwrap_err(),
            ConfigError::ZeroDimension("arena slot count")
        );
        assert_eq!(
            TenantArena::new(ArenaConfig::new(8, 8, 4, 0).with_idle_eviction(0)).unwrap_err(),
            ConfigError::ZeroDimension("idle eviction age")
        );
    }

    #[test]
    fn for_budget_splits_bits_across_initial_slots() {
        let cfg = ArenaConfig::for_budget(1 << 14, (1 << 14) * 32, 10, 0).unwrap();
        let arena = TenantArena::new(cfg).unwrap();
        // 15-bit entries, 65536 bits per slot → 4369 entries; the
        // cache-line-rounded slab lands exactly on the budget here.
        assert_eq!(cfg.tenant_entries, 4369);
        assert_eq!(arena.memory_bits(), (1 << 14) * 32);
        assert!(ArenaConfig::for_budget(1 << 14, 64, 10, 0).is_err());
    }

    #[test]
    fn detects_duplicates_per_tenant_and_isolates_tenants() {
        let mut arena = TenantArena::new(small_cfg()).unwrap();
        assert!(arena.observe(&key(1, 7)).is_distinct());
        assert!(arena.observe(&key(2, 7)).is_distinct());
        assert!(arena.observe(&key(1, 7)).is_duplicate());
        assert!(arena.observe(&key(2, 7)).is_duplicate());
        assert_eq!(arena.live_tenants(), 2);
    }

    #[test]
    fn each_tenant_matches_a_standalone_tbf() {
        // Interleave 3 tenants' streams; every verdict must equal the
        // verdict of a dedicated TBF fed only that tenant's stream.
        let cfg = small_cfg();
        let mut arena = TenantArena::new(cfg).unwrap();
        let mut solo: HashMap<u64, Tbf> = (1..=3)
            .map(|t| {
                let c = TbfConfig::builder(cfg.tenant_window)
                    .entries(cfg.tenant_entries)
                    .hash_count(cfg.hash_count)
                    .range_extension(cfg.tenant_window - 1)
                    .seed(cfg.seed)
                    .build()
                    .unwrap();
                (t, Tbf::new(c).unwrap())
            })
            .collect();
        let mut rng = 0x9E37u64;
        for step in 0..4000u64 {
            rng = splitmix64(rng);
            let t = 1 + rng % 3;
            let click = rng % 40 + step / 200; // drifting duplicate-heavy ids
            let k = key(t, click);
            assert_eq!(
                arena.observe(&k),
                solo.get_mut(&t).unwrap().observe(&k),
                "tenant {t} step {step}"
            );
        }
    }

    #[test]
    fn lazy_growth_doubles_the_slab() {
        let cfg = small_cfg().with_initial_slots(2);
        let mut arena = TenantArena::new(cfg).unwrap();
        assert_eq!(arena.slot_count(), 2);
        for t in 0..9u64 {
            arena.observe(&key(t, 0));
        }
        assert_eq!(arena.live_tenants(), 9);
        assert_eq!(arena.slot_count(), 16);
        let spare_bits = arena.memory_bits();
        arena.observe(&key(99, 0));
        assert_eq!(spare_bits, arena.memory_bits(), "room for 16 tenants");
    }

    #[test]
    fn idle_tenants_decay_and_slots_recycle() {
        let cfg = small_cfg().with_initial_slots(4).with_idle_eviction(64);
        let mut arena = TenantArena::new(cfg).unwrap();
        arena.observe(&key(7, 1));
        // Keep three other tenants busy until tenant 7 ages out.
        for i in 0..400u64 {
            arena.observe(&key(1 + i % 3, i));
        }
        assert!(arena.evictions() >= 1);
        assert_eq!(arena.live_tenants(), 3);
        assert_eq!(arena.slot_count(), 4, "slot recycled, no growth");
        // The decayed tenant restarts fresh: its duplicate is forgotten.
        assert!(arena.observe(&key(7, 1)).is_distinct());
    }

    #[test]
    fn batch_and_flat_replay_match_sequential() {
        let cfg = small_cfg();
        let mut seq = TenantArena::new(cfg).unwrap();
        let mut batched = TenantArena::new(cfg).unwrap();
        let mut flat_arena = TenantArena::new(cfg).unwrap();
        let mut rng = 1u64;
        let keys: Vec<Vec<u8>> = (0..600)
            .map(|_| {
                rng = splitmix64(rng);
                key(rng % 17, rng % 23)
            })
            .collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let flat: Vec<u8> = keys.iter().flatten().copied().collect();
        let expect: Vec<Verdict> = refs.iter().map(|id| seq.observe(id)).collect();
        let mut got = Vec::new();
        batched.observe_keys_into(Keys::Refs(&refs), None, &mut got);
        assert_eq!(expect, got);
        flat_arena.observe_keys_into(Keys::flat(&flat, 16), None, &mut got);
        assert_eq!(expect, got);
    }

    #[test]
    fn blocked_layout_matches_scattered_semantics() {
        let cfg = small_cfg().with_probe(ProbeLayout::Blocked);
        let mut arena = TenantArena::new(cfg).unwrap();
        assert!(arena.observe(&key(3, 3)).is_distinct());
        assert!(arena.observe(&key(3, 3)).is_duplicate());
        // 1-bit entries cannot host a blocked walk of two slots… they
        // can (512 fit); instead reject a region smaller than one block.
        let tiny = ArenaConfig::new(32, 2, 4, 0).with_probe(ProbeLayout::Blocked);
        assert!(matches!(
            TenantArena::new(tiny).unwrap_err(),
            ConfigError::BlockedUnsupported { .. }
        ));
    }

    #[test]
    fn stats_report_occupancy_without_batch_scans() {
        let cfg = small_cfg();
        let mut arena = TenantArena::new(cfg).unwrap();
        for i in 0..100u64 {
            arena.observe(&key(i % 5, i));
        }
        assert_eq!(arena.occupancy_scans(), 0, "observe path never scans");
        let health = arena.health();
        assert_eq!(arena.occupancy_scans(), 1, "health pays exactly one scan");
        assert!(health.fill_ratios[0] > 0.0);
        assert_eq!(health.observed_elements, 100);
        let stats = arena.arena_stats();
        assert_eq!(stats.live_tenants, 5);
        assert_eq!(stats.slots, DEFAULT_INITIAL_SLOTS);
        assert!((stats.occupancy - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(stats.stride_bytes % 64, 0);
    }

    #[test]
    fn reset_returns_to_the_initial_footprint() {
        let cfg = small_cfg().with_initial_slots(2);
        let mut arena = TenantArena::new(cfg).unwrap();
        for t in 0..40u64 {
            arena.observe(&key(t, 0));
        }
        assert!(arena.slot_count() > 2);
        arena.reset();
        assert_eq!(arena.slot_count(), 2);
        assert_eq!(arena.live_tenants(), 0);
        assert_eq!(arena.counters(), OpCounters::new());
        assert!(arena.observe(&key(0, 0)).is_distinct());
    }

    #[test]
    fn checkpoint_parts_round_trip_preserves_future_verdicts() {
        let cfg = small_cfg().with_initial_slots(2).with_idle_eviction(128);
        let mut arena = TenantArena::new(cfg).unwrap();
        let mut rng = 3u64;
        for _ in 0..800 {
            rng = splitmix64(rng);
            arena.observe(&key(rng % 11, rng % 19));
        }
        let (saved_cfg, state) = arena.checkpoint_parts();
        let mut restored = TenantArena::from_checkpoint_parts(saved_cfg, state).unwrap();
        assert_eq!(arena.memory_bits(), restored.memory_bits());
        assert_eq!(arena.live_tenants(), restored.live_tenants());
        for _ in 0..800 {
            rng = splitmix64(rng);
            let k = key(rng % 11, rng % 19);
            assert_eq!(arena.observe(&k), restored.observe(&k));
        }
    }

    #[test]
    fn from_checkpoint_parts_rejects_inconsistencies() {
        let cfg = small_cfg().with_initial_slots(2);
        let mut arena = TenantArena::new(cfg).unwrap();
        arena.observe(&key(1, 1));
        let (saved, good) = arena.checkpoint_parts();
        let rebuild = |mutate: &dyn Fn(&mut ArenaState)| {
            let (_, mut st) = arena.checkpoint_parts();
            mutate(&mut st);
            TenantArena::from_checkpoint_parts(saved, st)
        };
        assert!(TenantArena::from_checkpoint_parts(saved, good).is_some());
        assert!(rebuild(&|st| st.slots = 3).is_none(), "meta/slot mismatch");
        assert!(rebuild(&|st| st.words.to_mut().pop().map(|_| ()).unwrap()).is_none());
        assert!(rebuild(&|st| st.scan_cursor = 99).is_none());
        assert!(rebuild(&|st| st.free.clear()).is_none(), "free-list gap");
        assert!(rebuild(&|st| {
            for m in st.metas.iter_mut().flatten() {
                m.1 = u64::MAX; // clock beyond range
            }
        })
        .is_none());
    }

    proptest! {
        #[test]
        fn tenant_map_matches_std_hashmap(ops in proptest::collection::vec(
            (any::<u8>(), 0u32..64), 1..400)) {
            let mut map = TenantMap::with_room_for(4);
            let mut model: HashMap<u64, u32> = HashMap::new();
            for (i, (k, slot)) in ops.into_iter().enumerate() {
                let k = u64::from(k % 96);
                if i % 3 == 2 {
                    prop_assert_eq!(map.remove(k), model.remove(&k).is_some());
                } else if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                    map.insert(k, slot);
                    e.insert(slot);
                } else {
                    prop_assert_eq!(map.find(k), model.get(&k).copied());
                }
                prop_assert_eq!(map.live, model.len());
            }
            for (k, v) in &model {
                prop_assert_eq!(map.find(*k), Some(*v));
            }
        }
    }
}
