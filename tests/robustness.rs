//! Robustness: decoders must never panic on arbitrary bytes, and the
//! public constructors must reject rather than misbehave on garbage
//! parameters. (A billing system parses traces and checkpoints from
//! disk/network; "malformed input" must be an `Err`, not a crash.)

use cfd_core::{CheckpointState, Gbf, GbfConfig, Tbf, TbfConfig};
use cfd_stream::read_trace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn read_trace_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = read_trace(&bytes); // Ok or Err, never a panic
    }

    #[test]
    fn trace_header_fuzzing_with_valid_magic(
        mut bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // Force the magic so the parser gets past the first gate.
        let mut buf = b"CFDT".to_vec();
        buf.append(&mut bytes);
        let _ = read_trace(&buf);
    }

    #[test]
    fn tbf_restore_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Tbf::restore(&bytes);
    }

    #[test]
    fn gbf_restore_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Gbf::restore(&bytes);
    }

    #[test]
    fn checkpoint_restore_with_valid_header_fuzzed_body(
        mut bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // Valid magic + version + kind, garbage after.
        let mut buf = b"CFDS".to_vec();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(1); // TBF
        buf.append(&mut bytes);
        let _ = Tbf::restore(&buf);
    }

    #[test]
    fn truncated_valid_checkpoints_error_cleanly(cut in 0usize..200) {
        let cfg = TbfConfig::builder(64).entries(256).build().expect("cfg");
        let d = Tbf::new(cfg).expect("detector");
        let buf = d.checkpoint();
        let cut = cut.min(buf.len());
        if cut < buf.len() {
            prop_assert!(Tbf::restore(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn bitflipped_gbf_checkpoints_never_panic(
        flip_at in 0usize..512,
        flip_bit in 0u8..8,
    ) {
        let cfg = GbfConfig::builder(64, 4).filter_bits(256).build().expect("cfg");
        let mut d = Gbf::new(cfg).expect("detector");
        for i in 0..100u64 {
            use cfd_windows::DuplicateDetector;
            d.observe(&i.to_le_bytes());
        }
        let mut buf = d.checkpoint();
        let idx = flip_at % buf.len();
        buf[idx] ^= 1 << flip_bit;
        // Either restores (flip hit payload bits, which are all valid) or
        // errors; never panics, never produces an unusable detector.
        if let Ok(mut restored) = Gbf::restore(&buf) {
            use cfd_windows::DuplicateDetector;
            let _ = restored.observe(b"post-restore-probe");
        }
    }
}

/// A populated 3-shard TBF checkpoint for the sharded fuzzing below.
fn sharded_checkpoint() -> Vec<u8> {
    use cfd_core::sharded::ShardedDetector;
    use cfd_core::CheckpointState;
    use cfd_windows::DuplicateDetector;
    let mut d = ShardedDetector::from_fn(11, 3, |_| {
        Tbf::new(TbfConfig::builder(32).entries(128).build().expect("cfg"))
    })
    .expect("sharded detector");
    for i in 0..200u64 {
        d.observe(&i.to_le_bytes());
    }
    d.checkpoint()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sharded_restore_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        use cfd_core::sharded::ShardedDetector;
        use cfd_core::CheckpointState;
        let _ = ShardedDetector::<Tbf>::restore(&bytes);
    }

    #[test]
    fn sharded_restore_with_valid_header_fuzzed_body(
        mut bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        use cfd_core::sharded::ShardedDetector;
        use cfd_core::CheckpointState;
        // Valid magic + version + sharded kind, garbage after — the
        // shard count and every nested per-shard blob come from the
        // fuzzer.
        let mut buf = b"CFDS".to_vec();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.push(3); // sharded
        buf.append(&mut bytes);
        let _ = ShardedDetector::<Tbf>::restore(&buf);
    }

    #[test]
    fn truncated_sharded_checkpoints_error_cleanly(cut in 0usize..4096) {
        use cfd_core::sharded::ShardedDetector;
        use cfd_core::CheckpointState;
        let buf = sharded_checkpoint();
        let cut = cut.min(buf.len());
        if cut < buf.len() {
            prop_assert!(ShardedDetector::<Tbf>::restore(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn bitflipped_sharded_checkpoints_never_panic(
        flip_at in 0usize..8192,
        flip_bit in 0u8..8,
    ) {
        use cfd_core::sharded::ShardedDetector;
        use cfd_core::CheckpointState;
        use cfd_windows::DuplicateDetector;
        let mut buf = sharded_checkpoint();
        let idx = flip_at % buf.len();
        buf[idx] ^= 1 << flip_bit;
        // Either restores or errors; never panics, and a successful
        // restore yields a usable detector.
        if let Ok(mut restored) = ShardedDetector::<Tbf>::restore(&buf) {
            let _ = restored.observe(b"post-restore-probe");
        }
    }
}
