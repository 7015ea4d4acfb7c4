//! The `cfd serve` wire protocol: CRC-framed click streaming.
//!
//! A connection carries a sequence of self-delimiting frames; the
//! normative spec lives in `DESIGN.md` §"Serving architecture". Each
//! frame is
//!
//! ```text
//! len u32 | kind u8 | payload (len - 1 bytes) | crc u32
//! ```
//!
//! with all integers little-endian, `len` counting the kind byte plus
//! the payload, and `crc` the IEEE CRC-32 of the kind byte plus the
//! payload. Three frame kinds exist:
//!
//! * [`FRAME_HELLO`] (server → client on accept): payload
//!   `magic "CFDW" | version u16 | position u64`. `position` is the
//!   number of clicks of the logical stream the server has already
//!   accepted, so a reconnecting client resumes from there instead of
//!   replaying clicks the server would double-count.
//! * [`FRAME_CLICKS`] (client → server): payload `count u32` followed
//!   by `count` click records in the same 36-byte little-endian layout
//!   as the `CFDT` trace format of [`crate::trace`]
//!   (`tick u64 | ip u32 | cookie u64 | ad u32 | publisher u32 |
//!   cost u64`).
//! * [`FRAME_DRAIN`] (client → server): empty payload. Asks the server
//!   to drain gracefully — stop accepting input, flush the pipeline,
//!   checkpoint, and emit the final billing report.
//!
//! [`FrameReader`] is the incremental decoder: feed it raw socket bytes
//! with [`FrameReader::extend`] and pull complete frames with
//! [`FrameReader::next_frame`]. Its internal buffer is recycled, so a
//! warm reader decodes an arbitrarily long stream with zero further
//! heap allocations — the property the serve soak test asserts
//! end-to-end.

use crate::click::{AdId, Click, ClickId, PublisherId};
use bytes::{Buf, BufMut};
use std::fmt;

/// Protocol magic carried in every HELLO payload.
pub const WIRE_MAGIC: &[u8; 4] = b"CFDW";
/// Protocol version carried in every HELLO payload.
pub const WIRE_VERSION: u16 = 1;

/// Server greeting: protocol magic/version + resume position.
pub const FRAME_HELLO: u8 = 1;
/// A batch of click records.
pub const FRAME_CLICKS: u8 = 2;
/// Graceful-shutdown request (empty payload).
pub const FRAME_DRAIN: u8 = 3;

/// Upper bound on `len` (kind + payload bytes) of a single frame.
///
/// Large enough for 400k clicks per frame, small enough that a
/// desynchronized or hostile peer cannot make the reader buffer
/// gigabytes before the CRC check rejects the garbage.
pub const MAX_FRAME_BYTES: usize = 1 << 24;

/// Bytes per click record inside a `CLICKS` payload (the `CFDT` record
/// layout of [`crate::trace`]).
pub const CLICK_RECORD_BYTES: usize = 8 + 4 + 8 + 4 + 4 + 8;

/// Error produced while decoding wire frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A HELLO payload did not start with the `CFDW` magic.
    BadMagic,
    /// The peer speaks an unsupported protocol version.
    BadVersion(u16),
    /// A frame's CRC-32 did not match its contents.
    BadCrc {
        /// CRC carried by the frame trailer.
        expected: u32,
        /// CRC computed over the received kind + payload.
        got: u32,
    },
    /// A frame declared a length outside `1..=MAX_FRAME_BYTES`.
    BadLength(usize),
    /// A payload was malformed for its frame kind.
    BadPayload(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "HELLO payload is not CFDW"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadCrc { expected, got } => {
                write!(
                    f,
                    "frame CRC mismatch: expected {expected:#010x}, got {got:#010x}"
                )
            }
            WireError::BadLength(n) => write!(f, "frame length {n} out of range"),
            WireError::BadPayload(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

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

/// IEEE CRC-32 (the zlib/PNG polynomial) of `data`.
///
/// Slicing-by-16: each step folds sixteen bytes through sixteen
/// independent table lookups instead of sixteen dependent bytewise
/// steps; the tail of fewer than sixteen bytes goes bytewise.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
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
    c ^ 0xFFFF_FFFF
}

/// Appends one framed message (`kind` + `payload`) to `out`.
fn encode_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    debug_assert!(payload.len() < MAX_FRAME_BYTES, "frame too large");
    out.put_u32_le((1 + payload.len()) as u32);
    let body_start = out.len();
    out.push(kind);
    out.put_slice(payload);
    let crc = crc32(&out[body_start..]);
    out.put_u32_le(crc);
}

/// Appends a HELLO frame announcing `position` to `out`.
pub fn encode_hello(out: &mut Vec<u8>, position: u64) {
    let mut payload = [0u8; 14];
    payload[..4].copy_from_slice(WIRE_MAGIC);
    payload[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    payload[6..14].copy_from_slice(&position.to_le_bytes());
    encode_frame(out, FRAME_HELLO, &payload);
}

/// Appends a CLICKS frame carrying `clicks` to `out`.
///
/// # Panics
///
/// Panics if `clicks` would overflow [`MAX_FRAME_BYTES`]; split large
/// batches across frames instead.
pub fn encode_clicks(out: &mut Vec<u8>, clicks: &[Click]) {
    assert!(
        1 + 4 + clicks.len() * CLICK_RECORD_BYTES <= MAX_FRAME_BYTES,
        "CLICKS frame over MAX_FRAME_BYTES; split the batch"
    );
    out.put_u32_le((1 + 4 + clicks.len() * CLICK_RECORD_BYTES) as u32);
    let body_start = out.len();
    out.push(FRAME_CLICKS);
    out.put_u32_le(clicks.len() as u32);
    for c in clicks {
        out.put_u64_le(c.tick);
        out.put_u32_le(c.id.ip);
        out.put_u64_le(c.id.cookie);
        out.put_u32_le(c.id.ad.0);
        out.put_u32_le(c.publisher.0);
        out.put_u64_le(c.cost_micros);
    }
    let crc = crc32(&out[body_start..]);
    out.put_u32_le(crc);
}

/// Appends a DRAIN frame (empty payload) to `out`.
pub fn encode_drain(out: &mut Vec<u8>) {
    encode_frame(out, FRAME_DRAIN, &[]);
}

/// Decodes a HELLO payload, returning the announced resume position.
///
/// # Errors
///
/// Returns [`WireError`] on a short payload, wrong magic, or an
/// unsupported version.
pub fn decode_hello(payload: &[u8]) -> Result<u64, WireError> {
    if payload.len() != 14 {
        return Err(WireError::BadPayload("HELLO payload must be 14 bytes"));
    }
    if &payload[..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes([payload[4], payload[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let mut pos = [0u8; 8];
    pos.copy_from_slice(&payload[6..14]);
    Ok(u64::from_le_bytes(pos))
}

/// Decodes a CLICKS payload into `out` (appended, not cleared),
/// returning the record count.
///
/// Reuses `out`'s capacity — the serve path feeds pooled buffers here
/// so a warm decode allocates nothing.
///
/// # Errors
///
/// Returns [`WireError::BadPayload`] when the declared count disagrees
/// with the payload length.
pub fn decode_clicks_into(mut payload: &[u8], out: &mut Vec<Click>) -> Result<usize, WireError> {
    if payload.len() < 4 {
        return Err(WireError::BadPayload("CLICKS payload shorter than count"));
    }
    let count = payload.get_u32_le() as usize;
    if payload.len() != count * CLICK_RECORD_BYTES {
        return Err(WireError::BadPayload("CLICKS count disagrees with length"));
    }
    out.reserve(count);
    for _ in 0..count {
        let tick = payload.get_u64_le();
        let ip = payload.get_u32_le();
        let cookie = payload.get_u64_le();
        let ad = payload.get_u32_le();
        let publisher = payload.get_u32_le();
        let cost = payload.get_u64_le();
        out.push(Click::new(
            ClickId::new(ip, cookie, AdId(ad)),
            tick,
            PublisherId(publisher),
            cost,
        ));
    }
    Ok(count)
}

/// One complete, CRC-verified frame borrowed from a [`FrameReader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Frame kind ([`FRAME_HELLO`], [`FRAME_CLICKS`], [`FRAME_DRAIN`],
    /// or an unknown value the caller may skip or reject).
    pub kind: u8,
    /// The payload bytes (everything after the kind byte).
    pub payload: &'a [u8],
}

/// Incremental frame decoder over a byte stream.
///
/// Feed raw bytes with [`extend`](Self::extend) as they arrive, then
/// drain complete frames with [`next_frame`](Self::next_frame) until it
/// returns `Ok(None)` (more bytes needed). Consumed bytes are compacted
/// out of the internal buffer lazily, so the buffer stops growing once
/// it has seen the largest in-flight frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty reader with `capacity` bytes pre-reserved.
    ///
    /// A stream whose backlog (one partial frame plus one receive
    /// chunk) stays under `capacity` never reallocates the decode
    /// buffer — the foundation of the gateway's zero-allocation
    /// steady state.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
            start: 0,
        }
    }

    /// Appends freshly received bytes to the decode buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: move the unconsumed tail to the
        // front so capacity is reused instead of extended.
        if self.start > 0 {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decodes the next complete frame, if one is fully buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed. The returned
    /// [`FrameRef`] borrows the internal buffer and is valid until the
    /// next call to any `&mut self` method.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadLength`] or [`WireError::BadCrc`] on a
    /// corrupt stream; the reader is then desynchronized and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<FrameRef<'_>>, WireError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let head = &self.buf[self.start..];
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(WireError::BadLength(len));
        }
        if avail < 4 + len + 4 {
            return Ok(None);
        }
        let body = &self.buf[self.start + 4..self.start + 4 + len];
        let trailer = &self.buf[self.start + 4 + len..self.start + 4 + len + 4];
        let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let got = crc32(body);
        if expected != got {
            return Err(WireError::BadCrc { expected, got });
        }
        let frame_start = self.start + 4;
        self.start += 4 + len + 4;
        Ok(Some(FrameRef {
            kind: self.buf[frame_start],
            payload: &self.buf[frame_start + 1..frame_start + len],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::unique::UniqueClickStream;
    use proptest::prelude::*;

    fn sample_clicks(n: usize) -> Vec<Click> {
        UniqueClickStream::new(3, 8, 64).take(n).collect()
    }

    /// The plain bytewise table loop: the reference the sliced
    /// [`crc32`] must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_sliced_matches_bytewise_at_every_length_and_offset() {
        // Seeded splitmix64 bytes; every length 0..=64 at every offset
        // 0..8, so each tail length meets each alignment of the blocks.
        let mut state = 0x5EED_C0DE_u64;
        let data: Vec<u8> = (0..80)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn hello_roundtrip() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 123_456_789);
        let mut r = FrameReader::new();
        r.extend(&buf);
        let f = r.next_frame().expect("valid").expect("complete");
        assert_eq!(f.kind, FRAME_HELLO);
        assert_eq!(decode_hello(f.payload), Ok(123_456_789));
        assert!(r.next_frame().expect("valid").is_none());
    }

    #[test]
    fn clicks_roundtrip() {
        let clicks = sample_clicks(100);
        let mut buf = Vec::new();
        encode_clicks(&mut buf, &clicks);
        let mut r = FrameReader::new();
        r.extend(&buf);
        let f = r.next_frame().expect("valid").expect("complete");
        assert_eq!(f.kind, FRAME_CLICKS);
        let mut out = Vec::new();
        assert_eq!(decode_clicks_into(f.payload, &mut out), Ok(100));
        assert_eq!(out, clicks);
    }

    #[test]
    fn drain_roundtrip() {
        let mut buf = Vec::new();
        encode_drain(&mut buf);
        let mut r = FrameReader::new();
        r.extend(&buf);
        let f = r.next_frame().expect("valid").expect("complete");
        assert_eq!(f.kind, FRAME_DRAIN);
        assert!(f.payload.is_empty());
    }

    #[test]
    fn dribbled_bytes_reassemble() {
        let clicks = sample_clicks(17);
        let mut buf = Vec::new();
        encode_hello(&mut buf, 7);
        encode_clicks(&mut buf, &clicks);
        encode_drain(&mut buf);
        let mut r = FrameReader::new();
        let mut kinds = Vec::new();
        let mut decoded = Vec::new();
        // One byte at a time: every split point is exercised.
        for &b in &buf {
            r.extend(&[b]);
            while let Some(f) = r.next_frame().expect("valid") {
                kinds.push(f.kind);
                if f.kind == FRAME_CLICKS {
                    decode_clicks_into(f.payload, &mut decoded).expect("clicks");
                }
            }
        }
        assert_eq!(kinds, vec![FRAME_HELLO, FRAME_CLICKS, FRAME_DRAIN]);
        assert_eq!(decoded, clicks);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn corrupt_byte_is_caught_by_crc() {
        let clicks = sample_clicks(10);
        let mut buf = Vec::new();
        encode_clicks(&mut buf, &clicks);
        // Flip one payload bit (past the length header).
        buf[20] ^= 0x40;
        let mut r = FrameReader::new();
        r.extend(&buf);
        assert!(matches!(r.next_frame(), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn zero_and_oversized_lengths_rejected() {
        let mut r = FrameReader::new();
        r.extend(&0u32.to_le_bytes());
        assert_eq!(r.next_frame(), Err(WireError::BadLength(0)));
        let mut r = FrameReader::new();
        r.extend(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert_eq!(
            r.next_frame(),
            Err(WireError::BadLength(MAX_FRAME_BYTES + 1))
        );
    }

    #[test]
    fn hello_rejects_wrong_magic_and_version() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, 1);
        // Payload starts after len(4) + kind(1).
        let mut bad_magic = buf[5..19].to_vec();
        bad_magic[0] = b'X';
        assert_eq!(decode_hello(&bad_magic), Err(WireError::BadMagic));
        let mut bad_version = buf[5..19].to_vec();
        bad_version[4] = 0xFF;
        assert!(matches!(
            decode_hello(&bad_version),
            Err(WireError::BadVersion(_))
        ));
        assert!(decode_hello(&[1, 2, 3]).is_err());
    }

    #[test]
    fn clicks_count_mismatch_rejected() {
        let clicks = sample_clicks(3);
        let mut buf = Vec::new();
        encode_clicks(&mut buf, &clicks);
        let mut payload = buf[5..buf.len() - 4].to_vec();
        payload[0] = 9; // claim 9 records, carry 3
        let mut out = Vec::new();
        assert!(decode_clicks_into(&payload, &mut out).is_err());
    }

    #[test]
    fn errors_have_displays() {
        assert!(WireError::BadMagic.to_string().contains("CFDW"));
        assert!(WireError::BadVersion(9).to_string().contains('9'));
        assert!(WireError::BadLength(0).to_string().contains('0'));
        assert!(WireError::BadCrc {
            expected: 1,
            got: 2
        }
        .to_string()
        .contains("CRC"));
        assert!(WireError::BadPayload("x").to_string().contains('x'));
    }

    proptest! {
        /// Any click sequence, any frame sizing, any byte chunking:
        /// the reader reproduces the stream exactly.
        #[test]
        fn any_chunking_roundtrips(
            raw in prop::collection::vec(any::<(u64, u32, u64, u32, u32, u64)>(), 0..200),
            frame_clicks in 1usize..40,
            chunk in 1usize..64,
        ) {
            let clicks: Vec<Click> = raw
                .into_iter()
                .map(|(t, ip, ck, ad, pb, cost)| {
                    Click::new(ClickId::new(ip, ck, AdId(ad)), t, PublisherId(pb), cost)
                })
                .collect();
            let mut buf = Vec::new();
            for group in clicks.chunks(frame_clicks) {
                encode_clicks(&mut buf, group);
            }
            let mut r = FrameReader::new();
            let mut decoded = Vec::new();
            for part in buf.chunks(chunk) {
                r.extend(part);
                while let Some(f) = r.next_frame().expect("valid") {
                    prop_assert_eq!(f.kind, FRAME_CLICKS);
                    decode_clicks_into(f.payload, &mut decoded).expect("clicks");
                }
            }
            prop_assert_eq!(decoded, clicks);
            prop_assert_eq!(r.pending(), 0);
        }
    }
}
