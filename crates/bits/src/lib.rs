//! Bit-level storage substrate for the click-fraud detection suite.
//!
//! Everything the paper's data structures need to touch memory lives here:
//!
//! * [`bitvec::BitVec`] — a fixed-size bit vector (classical Bloom
//!   filters).
//! * [`interleave::InterleavedBitMatrix`] — the *group Bloom filter*
//!   layout of §3: bit `j` of every sub-window filter shares a machine
//!   word, so one membership probe across all sub-windows is `k` word
//!   reads, an AND, and a mask.
//! * [`packed::PackedIntVec`] — a vector of `b`-bit unsigned entries
//!   (the `O(log N)`-bit timestamp cells of the timing Bloom filter, §4).
//! * [`counters::PackedCounterVec`] — saturating `b`-bit counters (the
//!   counting Bloom filter baseline of Metwally et al. \[21\]).
//! * [`words`] — shared word-math helpers.
//! * [`simd::crc32`] — the IEEE CRC-32 that guards every CFDW frame and
//!   CFDG checkpoint (carry-less-multiply fold or slice-by-16).
//!
//! All structures are safe Rust, fixed-capacity after construction, and
//! expose explicit word-operation accounting hooks so the benchmark
//! harness can reproduce the paper's running-time claims (Theorems 1
//! and 2) in *memory operations*, not just wall-clock time. `unsafe` is
//! confined to two places: the architectural cache-prefetch hint in
//! [`words::prefetch`] (no architectural effect beyond cache state,
//! cannot fault) and the runtime-dispatched AVX2 and CRC kernels in
//! [`simd`], where every call into them sits behind runtime feature
//! detection and a bounds check, each documented by a `SAFETY` comment.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitvec;
pub mod counters;
pub mod interleave;
pub mod packed;
pub mod simd;
pub mod slab;
pub mod tight;
pub mod words;

pub use bitvec::BitVec;
pub use counters::PackedCounterVec;
pub use interleave::InterleavedBitMatrix;
pub use packed::PackedIntVec;
pub use tight::TightBitMatrix;
