//! Pinned end-to-end digest of the count TBF at the serve-mixed shard
//! geometry (n = 2^16, m = 14·n, k = 10, batches of 256 plans).
//!
//! The packed-entry kernels (sweep, probe, insert) may be rewritten for
//! speed, but never for behaviour: the verdict stream, the Theorem 2 op
//! counters and the checkpoint bytes are pinned here, so a kernel change
//! that drifts any of them fails loudly instead of silently moving a
//! benchmark figure. Both the wide and the forced-scalar dispatch must
//! reproduce the same digest.

use cfd_core::simd::set_scalar_override;
use cfd_core::{CheckpointState, OpCounters, Tbf, TbfConfig};
use cfd_hash::ProbePlan;
use cfd_windows::Verdict;

const N: usize = 1 << 16;
const CLICKS: usize = 1 << 20;
const BATCH: usize = 256;
/// Share of clicks that repeat an earlier click, in percent.
const DUP_PERCENT: u64 = 26;
/// Largest lag (in clicks) at which a duplicate repeats its original.
const MAX_LAG: u64 = 4096;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Click ids: fresh ids, with `DUP_PERCENT`% repeating the id seen
/// `1..=MAX_LAG` clicks earlier.
fn click_ids(seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut ids = Vec::with_capacity(CLICKS);
    for i in 0..CLICKS {
        let r = splitmix64(&mut state);
        let lag = 1 + (r >> 32) % MAX_LAG;
        let id = if r % 100 < DUP_PERCENT && lag as usize <= i {
            ids[i - lag as usize]
        } else {
            splitmix64(&mut state)
        };
        ids.push(id);
    }
    ids
}

fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
}

/// CRC-32 (IEEE, reflected), the checksum CFDG files carry.
fn crc32(data: &[u8]) -> u32 {
    let table: Vec<u32> = (0..256u32)
        .map(|n| {
            (0..8).fold(n, |c, _| {
                if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                }
            })
        })
        .collect();
    !data.iter().fold(!0u32, |c, &b| {
        table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
}

fn serve_mixed_shard() -> Tbf {
    let cfg = TbfConfig::builder(N)
        .entries(14 * N)
        .hash_count(10)
        .seed(0x5EED_0001)
        .build()
        .expect("valid TBF geometry");
    Tbf::new(cfg).expect("valid TBF geometry")
}

/// (verdict-stream FNV-1a, op counters, checkpoint CRC-32).
fn digest(plans: &[ProbePlan]) -> (u64, OpCounters, u32) {
    let mut tbf = serve_mixed_shard();
    let mut out = Vec::with_capacity(BATCH);
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for batch in plans.chunks(BATCH) {
        tbf.apply_batch_into(batch, &mut out);
        for &v in &out {
            hash = fnv1a(hash, u8::from(v == Verdict::Duplicate));
        }
    }
    (hash, tbf.ops(), crc32(&tbf.checkpoint()))
}

#[test]
fn tbf_serve_mixed_digest_is_pinned_on_both_dispatches() {
    let planner = serve_mixed_shard();
    let plans: Vec<ProbePlan> = click_ids(17)
        .iter()
        .map(|id| planner.plan(&id.to_le_bytes()))
        .collect();
    let want_ops = OpCounters {
        probe_reads: 4_022_513,
        insert_writes: 7_759_670,
        clean_reads: 14_680_064,
        clean_writes: 3_231_228,
        hash_evals: CLICKS as u64,
        elements: CLICKS as u64,
        clock_regressions: 0,
    };
    for force_scalar in [false, true] {
        set_scalar_override(Some(force_scalar));
        let (hash, ops, crc) = digest(&plans);
        set_scalar_override(None);
        assert_eq!(
            hash, 0x7be6_19ca_3442_6474,
            "verdict stream drifted (scalar: {force_scalar})"
        );
        assert_eq!(
            ops, want_ops,
            "op counters drifted (scalar: {force_scalar})"
        );
        assert_eq!(
            crc, 0x2158_705e,
            "checkpoint bytes drifted (scalar: {force_scalar})"
        );
    }
}
