//! Runtime-dispatched SIMD kernels for the probe/apply hot path, and
//! the IEEE CRC-32 of the CFDW/CFDG formats ([`crc32`]).
//!
//! Every kernel here has two implementations: an AVX2 body (gathers,
//! wide 64-bit compares reduced to lane masks via `movemask`) and a
//! portable scalar/SWAR body. The two are **bit-identical by
//! construction** — the AVX2 side evaluates exactly the same integer
//! predicates, just four lanes at a time — so the dispatch decision can
//! never change a verdict, only how fast it is reached. Differential
//! proptests in `tests/backend_props.rs` (repo root) enforce this
//! end-to-end through every registry backend.
//!
//! Dispatch follows the same discipline as `cfd_hash::lanes`: the wide
//! path is taken only when AVX2 is detected at runtime **and** the
//! scalar override is off. `CFD_FORCE_SCALAR` (any non-empty value
//! other than `0`, read once via [`OnceLock`]) forces the portable path
//! for a whole process; [`set_scalar_override`] flips it within a
//! process so benches and differential tests can compare both paths
//! side by side.
//!
//! [`crc32`] follows the same rule with its own features: a
//! carry-less-multiply fold (`PCLMULQDQ`) when `pclmulqdq` and `sse4.1`
//! are detected and the scalar override is off, slice-by-16 otherwise.
//! Both compute the same CRC, so the choice never changes a byte on
//! disk or on the wire.
//!
//! This module is the **only** place in `cfd-bits` where the crate's
//! `#![deny(unsafe_code)]` is relaxed beyond the `words::prefetch`
//! hint: each `unsafe` block wraps an AVX2 intrinsic call, or the call
//! into the CRC fold, whose preconditions (CPU support, in-bounds
//! pointers) are discharged right above it and documented in a `SAFETY`
//! comment.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Lanes processed per iteration by the wide kernels when AVX2 is
/// active (two 4-lane `__m256i` halves).
pub const LANES_WIDE: usize = 8;

/// `CFD_FORCE_SCALAR` read once: any non-empty value other than `"0"`
/// disables the wide kernels for the whole process.
fn env_force_scalar() -> bool {
    static FORCE: OnceLock<bool> = OnceLock::new();
    *FORCE
        .get_or_init(|| std::env::var("CFD_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// In-process override: 0 = inherit the environment, 1 = force scalar,
/// 2 = allow wide (even under `CFD_FORCE_SCALAR`).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides the scalar/wide dispatch for this process: `Some(true)`
/// forces the scalar kernels, `Some(false)` re-enables the wide ones,
/// `None` restores the environment-driven default.
///
/// The env var is read once per process, which is the right contract
/// for production but useless for a bench (or differential test) that
/// wants to time both paths in one run. Because both paths are
/// bit-identical, flipping this mid-stream is always safe — it can
/// never change a verdict.
pub fn set_scalar_override(force: Option<bool>) {
    let v = match force {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// `true` when the scalar kernels are forced (override or environment).
#[must_use]
pub fn force_scalar() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => env_force_scalar(),
    }
}

/// Runtime CPU support for the wide kernels.
#[must_use]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The lane width the wide kernels will use on this machine right now:
/// [`LANES_WIDE`] with AVX2 detected and scalar not forced, else 1.
///
/// Surfaced as the `pipeline.simd_lanes` telemetry gauge.
#[must_use]
pub fn active_lanes() -> usize {
    if !force_scalar() && avx2_available() {
        LANES_WIDE
    } else {
        1
    }
}

/// `true` when the wide kernels are active ([`active_lanes`] > 1).
#[must_use]
pub fn wide_enabled() -> bool {
    active_lanes() > 1
}

/// Per-lane classification of wraparound timestamps, as lane bitmasks
/// (bit `i` = lane `i`; at most 32 lanes per call).
///
/// Produced by [`classify_stamps`]; `active ⊆ occupied` and
/// `recent ⊆ active` always hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StampMasks {
    /// Lanes whose timestamp field is not the all-ones empty marker.
    pub occupied: u32,
    /// Occupied lanes whose wraparound age is within `[lo, hi]`.
    pub active: u32,
    /// Active lanes whose age is `<= recent_within` — the speculation
    /// hazard window for grouped replay (a stamp this young may have
    /// crossed the age-0 alias point during the group).
    pub recent: u32,
}

/// Scalar reference predicate shared by both paths: wraparound age of
/// timestamp `ts` as seen from `now` on a clock of period `range`.
#[inline]
fn stamp_age(now: u64, range: u64, ts: u64) -> u64 {
    if now >= ts {
        now - ts
    } else {
        range.wrapping_sub(ts).wrapping_add(now)
    }
}

#[inline]
fn classify_stamps_scalar(
    vals: &[u64],
    ts_mask: u64,
    now: u64,
    range: u64,
    lo: u64,
    hi: u64,
    recent_within: u64,
) -> StampMasks {
    let mut m = StampMasks {
        occupied: 0,
        active: 0,
        recent: 0,
    };
    for (i, &v) in vals.iter().enumerate() {
        let ts = v & ts_mask;
        if ts == ts_mask {
            continue;
        }
        m.occupied |= 1 << i;
        let age = stamp_age(now, range, ts);
        if lo <= age && age <= hi {
            m.active |= 1 << i;
            if age <= recent_within {
                m.recent |= 1 << i;
            }
        }
    }
    m
}

/// Operand bound under which the AVX2 signed-compare lanes agree with
/// the scalar unsigned predicates: everything the kernels compare stays
/// below `2^62`, far above any real timestamp range.
const SIGNED_SAFE: u64 = 1 << 62;

/// Classifies up to 32 wraparound timestamps in one pass.
///
/// For each lane `v`: the timestamp field is `v & ts_mask`, all-ones is
/// the empty marker, and an occupied lane is *active* when its
/// wraparound age from `now` (period `range`) lies in `[lo, hi]`. The
/// `recent` mask flags active lanes with age `<= recent_within` —
/// callers that speculate across a group of arrivals use it to detect
/// stamps that could have crossed the age-0 alias point mid-group.
///
/// # Panics
///
/// Panics if `vals.len() > 32`.
#[must_use]
#[allow(unsafe_code)] // dispatch into the AVX2 bodies below
pub fn classify_stamps(
    vals: &[u64],
    ts_mask: u64,
    now: u64,
    range: u64,
    lo: u64,
    hi: u64,
    recent_within: u64,
) -> StampMasks {
    assert!(vals.len() <= 32, "at most 32 lanes per classify");
    #[cfg(target_arch = "x86_64")]
    {
        // The wide body compares lanes with signed 64-bit compares;
        // keep it to operand ranges where signed == unsigned. Real
        // clocks are tiny (range ≈ 2N), so this never excludes a
        // production configuration.
        if wide_enabled()
            && vals.len() >= 4
            && ts_mask < SIGNED_SAFE
            && range < SIGNED_SAFE
            && now < SIGNED_SAFE
            && hi < SIGNED_SAFE
            && recent_within < SIGNED_SAFE
        {
            // SAFETY: AVX2 support was verified at runtime by
            // `wide_enabled()` on this very call.
            return unsafe {
                avx2::classify_stamps(vals, ts_mask, now, range, lo, hi, recent_within)
            };
        }
    }
    classify_stamps_scalar(vals, ts_mask, now, range, lo, hi, recent_within)
}

/// Lane mask of `(vals[i] >> shift) == target` for up to 32 lanes —
/// the fingerprint-compare reduction of the SWBF cell probe.
///
/// # Panics
///
/// Panics if `vals.len() > 32` or `shift >= 64`.
#[must_use]
#[allow(unsafe_code)] // dispatch into the AVX2 bodies below
pub fn eq_shifted_mask(vals: &[u64], shift: u32, target: u64) -> u32 {
    assert!(vals.len() <= 32, "at most 32 lanes per compare");
    assert!(shift < 64, "shift must be < 64");
    #[cfg(target_arch = "x86_64")]
    {
        if wide_enabled() && vals.len() >= 4 {
            // SAFETY: AVX2 support was verified at runtime by
            // `wide_enabled()` on this very call.
            return unsafe { avx2::eq_shifted_mask(vals, shift, target) };
        }
    }
    let mut m = 0u32;
    for (i, &v) in vals.iter().enumerate() {
        if (v >> shift) == target {
            m |= 1 << i;
        }
    }
    m
}

/// Gathers `out[i] = base[idx[i]]` for four indices — one AVX2 gather
/// replacing four dependent scalar line loads in the grouped blocked
/// probe path.
///
/// # Panics
///
/// Panics if any index is out of bounds.
#[inline]
#[must_use]
#[allow(unsafe_code)] // dispatch into the AVX2 bodies below
pub fn gather4(base: &[u64], idx: [usize; 4]) -> [u64; 4] {
    assert!(
        idx.iter().all(|&i| i < base.len()),
        "gather index out of bounds"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if wide_enabled() {
            // SAFETY: AVX2 support was verified at runtime by
            // `wide_enabled()`, and every index was bounds-checked
            // against `base` just above, so the gather reads only
            // in-bounds `u64`s.
            return unsafe { avx2::gather4(base.as_ptr(), idx) };
        }
    }
    [base[idx[0]], base[idx[1]], base[idx[2]], base[idx[3]]]
}

/// ANDs `src` into `acc` word by word (`acc[i] &= src[i]`) — the GBF
/// interleaved-word AND-mask reduction, four words per step on AVX2.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[allow(unsafe_code)] // dispatch into the AVX2 bodies below
pub fn and_words(acc: &mut [u64], src: &[u64]) {
    assert_eq!(acc.len(), src.len(), "AND-reduce width mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if acc.len() >= 4 && wide_enabled() {
            // SAFETY: AVX2 support was verified at runtime by
            // `wide_enabled()`, and both slices were length-checked
            // above; the helper stays within `acc.len()` words.
            unsafe { avx2::and_words(acc, src) };
            return;
        }
    }
    for (a, &s) in acc.iter_mut().zip(src) {
        *a &= s;
    }
}

/// IEEE CRC-32 lookup tables for slicing-by-16 (reflected, polynomial
/// `0xEDB88320`), built at compile time. `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][n]` is the CRC of byte `n` followed
/// by `k` zero bytes, so sixteen lookups fold sixteen input bytes at
/// once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut n = 0;
    while n < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        n += 1;
    }
    tables
};

/// Shortest input the carry-less-multiply fold takes: one 64-byte
/// block to start from and at least one more to fold in. Shorter
/// inputs (HELLO, DRAIN and small CLICKS frames) go through the tables.
const CRC_FOLD_MIN: usize = 128;

/// IEEE CRC-32 (the zlib/PNG CRC: reflected polynomial `0xEDB88320`,
/// init and xor-out all ones) of `data` — the integrity check of every
/// CFDW frame and CFDG checkpoint.
///
/// Inputs of at least 128 bytes fold 4×128 bits per step with
/// `PCLMULQDQ` when `pclmulqdq` and `sse4.1` are detected and
/// [`force_scalar`] is off; everything else, and the last `len % 16`
/// bytes of a folded input, goes through slice-by-16. Both paths
/// compute the same function, so the dispatch never changes a byte.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_dispatch(data, !force_scalar())
}

/// [`crc32`] with the fold allowed or not, independent of the global
/// override (so the differential test reaches the fold however other
/// tests set it).
#[allow(unsafe_code)] // dispatch into the carry-less-multiply fold below
fn crc32_dispatch(data: &[u8], fold: bool) -> u32 {
    if fold && data.len() >= CRC_FOLD_MIN && clmul_available() {
        #[cfg(target_arch = "x86_64")]
        {
            let (body, tail) = data.split_at(data.len() & !15);
            // SAFETY: `clmul_available()` detected `pclmulqdq` and
            // `sse4.1` at runtime on this very call, the only target
            // features `clmul::fold` enables; it reads `body` through
            // safe slice indexing only.
            let state = unsafe { clmul::fold(!0, body) };
            return !crc32_sliced(state, tail);
        }
    }
    !crc32_sliced(!0, data)
}

/// Runtime CPU support for the carry-less-multiply CRC fold.
fn clmul_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Slicing-by-16 update of a raw CRC register (no init, no xor-out):
/// each step folds sixteen bytes through sixteen independent table
/// lookups; the tail of fewer than sixteen bytes goes bytewise.
fn crc32_sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let b: &[u8; 16] = b.try_into().expect("16-byte block");
        let w0 = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        c = t[15][(w0 & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! Carry-less-multiply CRC-32 fold: the method of Gopal et al.,
    //! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
    //! Instruction" (Intel, 2009), in its bit-reflected form (as in
    //! zlib-ng and Linux). Four 128-bit accumulators each absorb the
    //! next 64 bytes per step; they are folded into one, then reduced
    //! 128 → 64 → 32 bits and finished with a Barrett reduction.
    //!
    //! No `unsafe` here: the intrinsics are safe to call inside
    //! `#[target_feature]` functions that enable them, and every 16-byte
    //! block is read through slice indexing (`u64::from_le_bytes` into
    //! `_mm_set_epi64x`), never a raw pointer.

    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for P(x) = 0x1_04C1_1DB7, bit-reflected and
    // shifted left by one as the reflected product requires: `K1`/`K2`
    // fold 512 bits ahead, `K3`/`K4` 128 bits, `K5` 64 bits.
    /// `(x^(4·128+32) mod P)' << 1`.
    const K1: i64 = 0x1_5444_2BD4;
    /// `(x^(4·128-32) mod P)' << 1`.
    const K2: i64 = 0x1_C6E4_1596;
    /// `(x^(128+32) mod P)' << 1`.
    const K3: i64 = 0x1_7519_97D0;
    /// `(x^(128-32) mod P)' << 1`.
    const K4: i64 = 0x0_CCAA_009E;
    /// `(x^64 mod P)' << 1`.
    const K5: i64 = 0x1_63CD_6124;
    /// `P'`, the reflected polynomial.
    const P: i64 = 0x1_DB71_0641;
    /// `μ' = (x^64 / P)'`, the Barrett quotient.
    const MU: i64 = 0x1_F701_1641;

    /// Loads 16 bytes (little-endian lanes) from the front of `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Folds `x` forward by the distance the constant pair `k` encodes
    /// (low half × `k.lo`, high half × `k.hi`) and adds `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw CRC register `crc` (no init, no xor-out) over
    /// `data`, whose length is a multiple of 16 and at least 128.
    ///
    /// # Safety
    ///
    /// Calling it from code without these target features is `unsafe`:
    /// the caller must have detected `pclmulqdq` and `sse4.1` at
    /// runtime.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= super::CRC_FOLD_MIN && data.len().is_multiple_of(16));
        let mut blocks = data.chunks_exact(64);
        let first = blocks.next().expect("at least 128 bytes");
        let mut x0 = _mm_xor_si128(load(first), _mm_cvtsi32_si128(crc as i32));
        let mut x1 = load(&first[16..]);
        let mut x2 = load(&first[32..]);
        let mut x3 = load(&first[48..]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for b in &mut blocks {
            x0 = fold_into(x0, k1k2, load(b));
            x1 = fold_into(x1, k1k2, load(&b[16..]));
            x2 = fold_into(x2, k1k2, load(&b[32..]));
            x3 = fold_into(x3, k1k2, load(&b[48..]));
        }
        // Four accumulators into one, then any remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(x0, k3k4, x1);
        x = fold_into(x, k3k4, x2);
        x = fold_into(x, k3k4, x3);
        for b in blocks.remainder().chunks_exact(16) {
            x = fold_into(x, k3k4, load(b));
        }
        // 128 → 64 bits: the low half × K4 plus the high half, which
        // appends the 32 zero bits the CRC definition multiplies by.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        // 64 → 32 bits: the low 32 bits × K5 plus the rest.
        let mask32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction: q = (x mod x^32)·μ', then x + (q mod x^32)·P'
        // leaves the remainder in bits 32..64.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), pmu);
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, mask32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, r)) as u32
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    //! AVX2 bodies. Every function is `unsafe fn` + `target_feature`:
    //! callers discharge the CPU-support precondition (runtime
    //! detection) and any pointer bounds before the call.

    use super::StampMasks;
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_andnot_si256, _mm256_castsi256_pd,
        _mm256_cmpeq_epi64, _mm256_cmpgt_epi64, _mm256_i64gather_epi64, _mm256_loadu_si256,
        _mm256_movemask_pd, _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_srl_epi64,
        _mm256_storeu_si256, _mm256_sub_epi64, _mm_cvtsi64_si128,
    };

    /// One bit per 64-bit lane from a full-width lane mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn movemask4(m: __m256i) -> u32 {
        _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u32
    }

    /// Classifies one 4-lane block starting at `vals[at]`, merging the
    /// lane bits into `out` at bit offset `at`.
    #[inline]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn classify4(
        vals: &[u64],
        at: usize,
        ts_mask: __m256i,
        now: __m256i,
        range: __m256i,
        lo_m1: __m256i,
        hi: __m256i,
        recent: __m256i,
        out: &mut StampMasks,
    ) {
        // SAFETY (caller): `at + 4 <= vals.len()`, so the load reads
        // four in-bounds `u64`s; alignment is irrelevant for `loadu`.
        let v = _mm256_loadu_si256(vals.as_ptr().add(at).cast());
        let ts = _mm256_and_si256(v, ts_mask);
        let empty = _mm256_cmpeq_epi64(ts, ts_mask);
        let occupied = movemask4(_mm256_andnot_si256(empty, _mm256_set1_epi64x(-1)));
        // age = now - ts, plus one period when the stamp is "ahead" of
        // the clock (ts > now). The wrapping u64 subtraction plus the
        // masked add reproduces `stamp_age` exactly for every operand
        // the dispatcher admits (all < 2^62, so signed cmpgt == u64
        // ordering).
        let ahead = _mm256_cmpgt_epi64(ts, now);
        let age = _mm256_add_epi64(_mm256_sub_epi64(now, ts), _mm256_and_si256(ahead, range));
        let ge_lo = _mm256_cmpgt_epi64(age, lo_m1);
        let gt_hi = _mm256_cmpgt_epi64(age, hi);
        let in_win = movemask4(ge_lo) & !movemask4(gt_hi);
        let active = occupied & in_win;
        let gt_recent = movemask4(_mm256_cmpgt_epi64(age, recent));
        out.occupied |= occupied << at;
        out.active |= active << at;
        out.recent |= (active & !gt_recent) << at;
    }

    /// AVX2 body of [`super::classify_stamps`]: 4-lane blocks plus a
    /// scalar tail, bit-identical to the scalar body by construction.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn classify_stamps(
        vals: &[u64],
        ts_mask: u64,
        now: u64,
        range: u64,
        lo: u64,
        hi: u64,
        recent_within: u64,
    ) -> StampMasks {
        let mask_v = _mm256_set1_epi64x(ts_mask as i64);
        let now_v = _mm256_set1_epi64x(now as i64);
        let range_v = _mm256_set1_epi64x(range as i64);
        // `lo` is 0 or 1; `age >= lo` as signed `age > lo - 1` is exact
        // (age >= 0 always, and -1 compares below every age).
        let lo_m1 = _mm256_set1_epi64x(lo as i64 - 1);
        let hi_v = _mm256_set1_epi64x(hi as i64);
        let recent_v = _mm256_set1_epi64x(recent_within as i64);
        let mut out = StampMasks {
            occupied: 0,
            active: 0,
            recent: 0,
        };
        let full = vals.len() - vals.len() % 4;
        let mut at = 0;
        while at < full {
            classify4(
                vals, at, mask_v, now_v, range_v, lo_m1, hi_v, recent_v, &mut out,
            );
            at += 4;
        }
        if at < vals.len() {
            let tail = super::classify_stamps_scalar(
                &vals[at..],
                ts_mask,
                now,
                range,
                lo,
                hi,
                recent_within,
            );
            out.occupied |= tail.occupied << at;
            out.active |= tail.active << at;
            out.recent |= tail.recent << at;
        }
        out
    }

    /// AVX2 body of [`super::eq_shifted_mask`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn eq_shifted_mask(vals: &[u64], shift: u32, target: u64) -> u32 {
        let count = _mm_cvtsi64_si128(shift as i64);
        let target_v = _mm256_set1_epi64x(target as i64);
        let mut m = 0u32;
        let full = vals.len() - vals.len() % 4;
        let mut at = 0;
        while at < full {
            // SAFETY: `at + 4 <= vals.len()` by the loop bound.
            let v = _mm256_loadu_si256(vals.as_ptr().add(at).cast());
            let eq = _mm256_cmpeq_epi64(_mm256_srl_epi64(v, count), target_v);
            m |= movemask4(eq) << at;
            at += 4;
        }
        for (i, &v) in vals[at..].iter().enumerate() {
            if (v >> shift) == target {
                m |= 1 << (at + i);
            }
        }
        m
    }

    /// AVX2 body of [`super::gather4`]. Caller bounds-checks `idx`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather4(base: *const u64, idx: [usize; 4]) -> [u64; 4] {
        let idx_v = _mm256_setr_epi64x(idx[0] as i64, idx[1] as i64, idx[2] as i64, idx[3] as i64);
        // SAFETY (caller): every `idx[i] < len(base)`, so each gathered
        // address `base + idx[i] * 8` reads one in-bounds `u64`.
        let v = _mm256_i64gather_epi64::<8>(base.cast(), idx_v);
        let mut out = [0u64; 4];
        _mm256_storeu_si256(out.as_mut_ptr().cast(), v);
        out
    }

    /// AVX2 body of [`super::and_words`]. Caller length-checks slices.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn and_words(acc: &mut [u64], src: &[u64]) {
        let full = acc.len() - acc.len() % 4;
        let mut at = 0;
        while at < full {
            // SAFETY: `at + 4 <= acc.len() == src.len()` by the loop
            // bound and the caller's length check.
            let a = _mm256_loadu_si256(acc.as_ptr().add(at).cast());
            let s = _mm256_loadu_si256(src.as_ptr().add(at).cast());
            _mm256_storeu_si256(acc.as_mut_ptr().add(at).cast(), _mm256_and_si256(a, s));
            at += 4;
        }
        for (a, &s) in acc[at..].iter_mut().zip(&src[at..]) {
            *a &= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` under both dispatch settings and asserts it returns the
    /// same value; restores the override afterwards.
    fn both_paths<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) -> T {
        set_scalar_override(Some(true));
        let scalar = f();
        set_scalar_override(Some(false));
        let wide = f();
        set_scalar_override(None);
        assert_eq!(scalar, wide, "scalar and wide kernels disagree");
        scalar
    }

    #[test]
    fn active_lanes_honors_override() {
        set_scalar_override(Some(true));
        assert_eq!(active_lanes(), 1);
        assert!(!wide_enabled());
        set_scalar_override(None);
    }

    #[test]
    fn classify_matches_reference_model() {
        let range = 1023u64;
        let ts_mask = 2047u64;
        let hi = 511u64;
        let vals: Vec<u64> = (0..13)
            .map(|i| match i % 4 {
                0 => ts_mask,                    // empty
                1 => (i as u64 * 97) % range,    // somewhere on the clock
                2 => 700,                        // fixed stamp
                _ => range - 1 - (i as u64 % 3), // near the top of the clock
            })
            .collect();
        for now in [0u64, 1, 500, 700, 702, 1022] {
            let got = both_paths(|| classify_stamps(&vals, ts_mask, now, range, 1, hi, 7));
            for (i, &v) in vals.iter().enumerate() {
                let ts = v & ts_mask;
                let occupied = ts != ts_mask;
                let age = stamp_age(now, range, ts);
                let active = occupied && (1..=hi).contains(&age);
                let recent = active && age <= 7;
                assert_eq!(
                    got.occupied >> i & 1 == 1,
                    occupied,
                    "occ lane {i} now {now}"
                );
                assert_eq!(got.active >> i & 1 == 1, active, "act lane {i} now {now}");
                assert_eq!(got.recent >> i & 1 == 1, recent, "rec lane {i} now {now}");
            }
        }
    }

    #[test]
    fn classify_lo_zero_counts_age_zero_as_active() {
        // The timed-window sweep predicate: active = age in [0, hi].
        let got = both_paths(|| classify_stamps(&[5, 6, 7, 8], 63, 5, 32, 0, 2, 0));
        assert_eq!(got.occupied, 0b1111);
        // ages from now=5: 0, 31, 30, 29 -> only lane 0 is in [0, 2].
        assert_eq!(got.active, 0b0001);
        assert_eq!(got.recent, 0b0001);
    }

    #[test]
    fn eq_shifted_matches_reference() {
        let vals: Vec<u64> = (0..9).map(|i| (i as u64) << 10 | 3).collect();
        let got = both_paths(|| eq_shifted_mask(&vals, 10, 4));
        assert_eq!(got, 1 << 4);
        let all = both_paths(|| eq_shifted_mask(&vals, 63, 0));
        assert_eq!(all, (1 << 9) - 1);
    }

    #[test]
    fn gather4_reads_the_right_words() {
        let base: Vec<u64> = (0..100).map(|i| i * i).collect();
        let got = both_paths(|| gather4(&base, [0, 99, 42, 7]));
        assert_eq!(got, [0, 99 * 99, 42 * 42, 7 * 7]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather4_out_of_bounds_panics() {
        let base = vec![0u64; 4];
        let _ = gather4(&base, [0, 1, 2, 4]);
    }

    /// The plain bytewise table loop: the reference both CRC paths must
    /// agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Seeded splitmix64 bytes.
    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_fold_matches_sliced_and_bytewise() {
        if !clmul_available() {
            eprintln!("pclmulqdq/sse4.1 not detected: only the sliced path is checked");
        }
        // Every length 0..=1024 at every offset 0..16, so each fold
        // count, each 16-byte remainder and each tail length meets each
        // alignment of the blocks; one checkpoint-sized buffer (a
        // 13-byte tail after the fold); and standard IEEE CRC-32 check
        // values, short and folded.
        let data = seeded_bytes(1024 + 16, 0x5EED_C0DE);
        let big = seeded_bytes((4 << 20) + 77, 7);
        let ramp: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        let mut inputs: Vec<(&[u8], Option<u32>)> = (0..16)
            .flat_map(|at| (0..=1024).map(move |len| at..at + len))
            .map(|range| (&data[range], None))
            .collect();
        inputs.extend([
            (&big[..], None),
            (&b""[..], Some(0)),
            (&b"123456789"[..], Some(0xCBF4_3926)),
            (
                &b"The quick brown fox jumps over the lazy dog"[..],
                Some(0x414F_A339),
            ),
            (&[0u8; 4096][..], Some(0xC71C_0011)),
            (&[0xFFu8; 4096][..], Some(0xF154_670A)),
            (&ramp[..], Some(0xB70B_4C26)),
        ]);
        let want: Vec<u32> = inputs.iter().map(|(s, _)| crc32_bytewise(s)).collect();
        for (i, (&(s, known), &w)) in inputs.iter().zip(&want).enumerate() {
            let len = s.len();
            if let Some(k) = known {
                assert_eq!(w, k, "bytewise reference, input {i} (len {len})");
            }
            assert_eq!(!crc32_sliced(!0, s), w, "sliced, input {i} (len {len})");
            assert_eq!(crc32_dispatch(s, true), w, "folded, input {i} (len {len})");
        }
        // The public entry under both settings of the process override.
        for force in [Some(true), Some(false)] {
            set_scalar_override(force);
            for (i, (&(s, _), &w)) in inputs.iter().zip(&want).enumerate() {
                assert_eq!(crc32(s), w, "dispatched {force:?}, input {i}");
            }
        }
        set_scalar_override(None);
    }

    #[test]
    fn and_words_matches_reference() {
        let src: Vec<u64> = (0..11).map(|i| 0xF0F0_F0F0_F0F0_F0F0 ^ i).collect();
        let got = both_paths(|| {
            let mut acc: Vec<u64> = (0..11).map(|i| 0xFF00_FF00_FF00_FF00 | i).collect();
            and_words(&mut acc, &src);
            acc
        });
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(
                g,
                (0xFF00_FF00_FF00_FF00u64 | i as u64) & (0xF0F0_F0F0_F0F0_F0F0u64 ^ i as u64)
            );
        }
    }
}
