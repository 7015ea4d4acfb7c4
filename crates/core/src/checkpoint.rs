//! Detector state checkpointing.
//!
//! A billing gateway cannot afford to forget its detection window on
//! restart: every in-window duplicate would be re-charged. This module
//! serializes the complete state of the count-based detectors to a
//! versioned binary format and restores them bit-for-bit, so a restored
//! detector continues the stream with *identical* verdicts.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic "CFDS" | version u16 | kind u8 |
//! config fields ... | dynamic state ... | payload words
//! ```
//!
//! Count-based ([`Tbf`], [`Gbf`]) and time-based ([`TimeTbf`],
//! [`TimeGbf`]) detectors are all checkpointable. A restored time-based
//! detector carries its high-water unit, so the first post-restart tick
//! expires exactly what a quiet gap of the same wall-clock length would
//! have — duplicates spanning the restart are still caught.

use crate::apbf::{Apbf, ApbfConfig, ApbfState};
use crate::arena::{ArenaConfig, ArenaState, TenantArena};
use crate::config::{GbfConfig, GbfLayout, ProbeLayout, TbfConfig};
use crate::gbf::Gbf;
use crate::gbf_time::{TimeGbf, TimeGbfConfig, TimeGbfState};
use crate::sharded::ShardedDetector;
use crate::swbf::{Swbf, SwbfConfig, SwbfState};
use crate::tbf::Tbf;
use crate::tbf_jumping::{JumpingTbf, JumpingTbfConfig, JumpingTbfState};
use crate::tbf_time::{TimeTbf, TimeTbfConfig, TimeTbfState};
use std::fmt;

const MAGIC: &[u8; 4] = b"CFDS";
const VERSION: u16 = 1;
pub(crate) const KIND_TBF: u8 = 1;
pub(crate) const KIND_GBF: u8 = 2;
pub(crate) const KIND_SHARDED: u8 = 3;
pub(crate) const KIND_TIME_TBF: u8 = 4;
pub(crate) const KIND_TIME_GBF: u8 = 5;
pub(crate) const KIND_APBF: u8 = 6;
pub(crate) const KIND_SWBF: u8 = 7;
pub(crate) const KIND_JUMPING_TBF: u8 = 8;
pub(crate) const KIND_ARENA: u8 = 9;

/// Reads the kind byte of a `CFDS` buffer after validating the magic
/// and version — the registry's dispatch key for backend-agnostic
/// restores.
pub(crate) fn peek_kind(buf: &[u8]) -> Result<u8, CheckpointError> {
    if buf.len() < 7 || &buf[..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    Ok(buf[6])
}

/// Upper bound on the shard count accepted when restoring a sharded
/// checkpoint; rejects absurd headers before any allocation.
const MAX_SHARDS: usize = 1 << 16;

fn probe_tag(probe: ProbeLayout) -> u8 {
    match probe {
        ProbeLayout::Scattered => 0,
        ProbeLayout::Blocked => 1,
    }
}

fn probe_from_tag(tag: u8) -> Result<ProbeLayout, CheckpointError> {
    match tag {
        0 => Ok(ProbeLayout::Scattered),
        1 => Ok(ProbeLayout::Blocked),
        _ => Err(CheckpointError::Corrupt("unknown probe-layout tag")),
    }
}

/// Error restoring a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not a `CFDS` buffer.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The buffer holds a different detector kind.
    WrongKind {
        /// Kind tag found in the buffer.
        found: u8,
        /// Kind tag required by the caller.
        expected: u8,
    },
    /// The buffer ended early or a field was out of range.
    Corrupt(&'static str),
    /// The kind tag names no backend this build knows — e.g. a
    /// checkpoint written by a newer binary with additional backends.
    /// Distinct from [`CheckpointError::WrongKind`], where the kind is
    /// known but the caller asked for a different one.
    UnknownBackend {
        /// Kind tag found in the buffer.
        found: u8,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "buffer is not a CFDS checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::WrongKind { found, expected } => {
                write!(f, "checkpoint holds kind {found}, expected {expected}")
            }
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::UnknownBackend { found } => {
                write!(f, "checkpoint holds unknown backend kind {found}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A minimal little-endian writer appending to a caller-owned buffer.
struct Writer<'a>(&'a mut Vec<u8>);

impl<'a> Writer<'a> {
    /// Appends the `CFDS` header for `kind` to `out`.
    fn open(out: &'a mut Vec<u8>, kind: u8) -> Self {
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(kind);
        Self(out)
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Length prefix, then the words in one bulk copy: a single
    /// reservation and a loop the compiler turns into a memcpy on
    /// little-endian targets, instead of a growth check per word.
    fn words(&mut self, ws: &[u64]) {
        self.usize(ws.len());
        let start = self.0.len();
        self.0.resize(start + ws.len() * 8, 0);
        for (dst, w) in self.0[start..].chunks_exact_mut(8).zip(ws) {
            dst.copy_from_slice(&w.to_le_bytes());
        }
    }
    /// A length-prefixed nested blob that `body` appends in place; the
    /// prefix is patched afterwards, so the blob is never staged.
    fn nested(&mut self, body: impl FnOnce(&mut Vec<u8>)) {
        let at = self.0.len();
        self.u64(0);
        body(self.0);
        let len = (self.0.len() - at - 8) as u64;
        self.0[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
    /// Flag byte + value: unlike a `u64::MAX` sentinel this stays
    /// unambiguous when the value itself can legitimately be `u64::MAX`
    /// (a high-water *unit* can, with `unit_ticks == 1`).
    fn opt_u64(&mut self, v: Option<u64>) {
        self.u8(u8::from(v.is_some()));
        self.u64(v.unwrap_or(0));
    }
}

/// A minimal little-endian reader.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn open(buf: &'a [u8], expected_kind: u8) -> Result<Self, CheckpointError> {
        if buf.len() < 7 || &buf[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let kind = buf[6];
        if kind != expected_kind {
            return Err(CheckpointError::WrongKind {
                found: kind,
                expected: expected_kind,
            });
        }
        Ok(Self(&buf[7..]))
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        let (&b, rest) = self
            .0
            .split_first()
            .ok_or(CheckpointError::Corrupt("unexpected end of buffer"))?;
        self.0 = rest;
        Ok(b)
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        if self.0.len() < 8 {
            return Err(CheckpointError::Corrupt("unexpected end of buffer"));
        }
        let (head, rest) = self.0.split_at(8);
        self.0 = rest;
        Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
    }
    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Corrupt("size overflow"))
    }
    fn words(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let len = self.usize()?;
        if len > self.0.len() / 8 {
            return Err(CheckpointError::Corrupt("word count beyond buffer"));
        }
        let (head, rest) = self.0.split_at(len * 8);
        self.0 = rest;
        Ok(head
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .collect())
    }
    fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.usize()?;
        if len > self.0.len() {
            return Err(CheckpointError::Corrupt("byte count beyond buffer"));
        }
        let (head, rest) = self.0.split_at(len);
        self.0 = rest;
        Ok(head)
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        let flag = self.u8()?;
        let value = self.u64()?;
        match flag {
            0 => Ok(None),
            1 => Ok(Some(value)),
            _ => Err(CheckpointError::Corrupt("bad option flag")),
        }
    }
    fn finish(self) -> Result<(), CheckpointError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt("trailing bytes"))
        }
    }
}

impl Tbf {
    /// Serializes the complete detector state.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        CheckpointState::checkpoint(self)
    }

    /// Restores a detector from a [`Tbf::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    pub fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_TBF)?;
        let cfg = TbfConfig {
            n: r.usize()?,
            m: r.usize()?,
            k: r.usize()?,
            c: r.usize()?,
            seed: r.u64()?,
            probe: probe_from_tag(r.u8()?)?,
        };
        let now = r.u64()?;
        let clean_next = r.usize()?;
        let entry_words = r.words()?;
        r.finish()?;
        Self::from_checkpoint_parts(cfg, now, clean_next, entry_words)
            .ok_or(CheckpointError::Corrupt("inconsistent TBF state"))
    }
}

impl Gbf {
    /// Serializes the complete detector state.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        CheckpointState::checkpoint(self)
    }

    /// Restores a detector from a [`Gbf::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    pub fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_GBF)?;
        let n = r.usize()?;
        let q = r.usize()?;
        let m = r.usize()?;
        let k = r.usize()?;
        let seed = r.u64()?;
        let layout = match r.u8()? {
            0 => GbfLayout::Padded,
            1 => GbfLayout::Tight,
            _ => return Err(CheckpointError::Corrupt("unknown layout tag")),
        };
        let probe = probe_from_tag(r.u8()?)?;
        let cfg = GbfConfig {
            n,
            q,
            m,
            k,
            seed,
            layout,
            probe,
        };
        let slot = r.usize()?;
        let filled = r.usize()?;
        let completed = r.u64()?;
        let spare = match r.u64()? {
            u64::MAX => None,
            s => Some(usize::try_from(s).map_err(|_| CheckpointError::Corrupt("spare"))?),
        };
        let clean_next = r.usize()?;
        let active_mask = r.words()?;
        let matrix_words = r.words()?;
        r.finish()?;
        Self::from_checkpoint_parts(
            cfg,
            slot,
            filled,
            completed,
            spare,
            clean_next,
            active_mask,
            matrix_words,
        )
        .ok_or(CheckpointError::Corrupt("inconsistent GBF state"))
    }
}

impl TimeTbf {
    /// Serializes the complete detector state, including the high-water
    /// unit (so a restart expires state like a quiet gap, not a reset).
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        CheckpointState::checkpoint(self)
    }

    /// Restores a detector from a [`TimeTbf::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    pub fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_TIME_TBF)?;
        let cfg = TimeTbfConfig {
            window_units: r.u64()?,
            unit_ticks: r.u64()?,
            m: r.usize()?,
            k: r.usize()?,
            c_units: r.u64()?,
            seed: r.u64()?,
            probe: probe_from_tag(r.u8()?)?,
        };
        let state = TimeTbfState {
            cur_unit: r.opt_u64()?,
            clean_next: r.usize()?,
            entry_words: r.words()?.into(),
        };
        r.finish()?;
        Self::from_checkpoint_parts(cfg, state)
            .ok_or(CheckpointError::Corrupt("inconsistent time-TBF state"))
    }
}

impl TimeGbf {
    /// Serializes the complete detector state, including the rotation
    /// phase and the in-flight spare-lane wipe cursor.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        CheckpointState::checkpoint(self)
    }

    /// Restores a detector from a [`TimeGbf::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    pub fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_TIME_GBF)?;
        let cfg = TimeGbfConfig {
            q: r.usize()?,
            sub_units: r.u64()?,
            unit_ticks: r.u64()?,
            m: r.usize()?,
            k: r.usize()?,
            seed: r.u64()?,
            probe: probe_from_tag(r.u8()?)?,
        };
        let cur_unit = r.opt_u64()?;
        let slot = r.usize()?;
        let completed = r.u64()?;
        let spare = match r.u64()? {
            u64::MAX => None,
            s => Some(usize::try_from(s).map_err(|_| CheckpointError::Corrupt("spare"))?),
        };
        let state = TimeGbfState {
            cur_unit,
            slot,
            completed,
            spare,
            clean_next: r.usize()?,
            mask_words: r.words()?.into(),
            matrix_words: r.words()?.into(),
        };
        r.finish()?;
        Self::from_checkpoint_parts(cfg, state)
            .ok_or(CheckpointError::Corrupt("inconsistent time-GBF state"))
    }
}

impl Apbf {
    /// Serializes the complete detector state, including the rotation
    /// phase and the in-flight spare-slice wipe cursor.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        CheckpointState::checkpoint(self)
    }

    /// Restores a detector from an [`Apbf::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    pub fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_APBF)?;
        let cfg = ApbfConfig {
            n: r.usize()?,
            k: r.usize()?,
            l: r.usize()?,
            total_bits: r.usize()?,
            seed: r.u64()?,
            probe: probe_from_tag(r.u8()?)?,
        };
        let base = r.usize()?;
        let in_gen = r.usize()?;
        let wipe_flag = r.u8()?;
        let slice = r.usize()?;
        let cursor = r.usize()?;
        let wipe = match wipe_flag {
            0 => None,
            1 => Some((slice, cursor)),
            _ => return Err(CheckpointError::Corrupt("bad wipe flag")),
        };
        let state = ApbfState {
            base,
            in_gen,
            wipe,
            bit_words: r.words()?.into(),
        };
        r.finish()?;
        Self::from_checkpoint_parts(cfg, state)
            .ok_or(CheckpointError::Corrupt("inconsistent APBF state"))
    }
}

impl Swbf {
    /// Serializes the complete detector state, including both sweep
    /// cursors and the side-filter liveness bookkeeping.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        CheckpointState::checkpoint(self)
    }

    /// Restores a detector from a [`Swbf::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    pub fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_SWBF)?;
        let cfg = SwbfConfig {
            n: r.usize()?,
            total_bits: r.usize()?,
            fingerprint_bits: u32::try_from(r.u64()?)
                .map_err(|_| CheckpointError::Corrupt("fingerprint bits"))?,
            seed: r.u64()?,
            probe: probe_from_tag(r.u8()?)?,
        };
        let state = SwbfState {
            now: r.u64()?,
            arrivals: r.u64()?,
            last_side_insert: r.opt_u64()?,
            clean_next: r.usize()?,
            side_clean_next: r.usize()?,
            cell_words: r.words()?.into(),
            side_words: r.words()?.into(),
        };
        r.finish()?;
        Self::from_checkpoint_parts(cfg, state)
            .ok_or(CheckpointError::Corrupt("inconsistent SWBF state"))
    }
}

/// Detectors whose complete state round-trips through the `CFDS` binary
/// format.
///
/// Implemented by every detector of this crate and generically by
/// [`ShardedDetector`] over any checkpointable shard type, so a sharded
/// gateway restarts with identical future verdicts just like a
/// single-detector one.
///
/// There is one encoder per type, [`CheckpointState::checkpoint_into`];
/// [`CheckpointState::checkpoint`] is a wrapper over it, so both produce
/// the same bytes.
pub trait CheckpointState: Sized {
    /// Appends the complete detector state to `out`, leaving the bytes
    /// already in it untouched. Table words are copied in bulk, and a
    /// caller that recycles `out` pays no allocation once it has grown
    /// to the checkpoint's size.
    fn checkpoint_into(&self, out: &mut Vec<u8>);

    /// Serializes the complete detector state.
    fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.checkpoint_into(&mut out);
        out
    }

    /// Restores a detector from a [`CheckpointState::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError>;
}

impl CheckpointState for Tbf {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let (cfg, state) = self.checkpoint_parts();
        let mut w = Writer::open(out, KIND_TBF);
        w.usize(cfg.n);
        w.usize(cfg.m);
        w.usize(cfg.k);
        w.usize(cfg.c);
        w.u64(cfg.seed);
        w.u8(probe_tag(cfg.probe));
        w.u64(state.now);
        w.usize(state.clean_next);
        w.words(&state.entry_words);
    }
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        Tbf::restore(buf)
    }
}

impl CheckpointState for Gbf {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let (cfg, state) = self.checkpoint_parts();
        let mut w = Writer::open(out, KIND_GBF);
        w.usize(cfg.n);
        w.usize(cfg.q);
        w.usize(cfg.m);
        w.usize(cfg.k);
        w.u64(cfg.seed);
        w.u8(match cfg.layout {
            GbfLayout::Padded => 0,
            GbfLayout::Tight => 1,
        });
        w.u8(probe_tag(cfg.probe));
        w.usize(state.slot);
        w.usize(state.filled);
        w.u64(state.completed);
        w.u64(state.spare.map_or(u64::MAX, |s| s as u64));
        w.usize(state.clean_next);
        w.words(&state.active_mask);
        w.words(&state.matrix_words);
    }
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        Gbf::restore(buf)
    }
}

impl CheckpointState for TimeTbf {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let (cfg, state) = self.checkpoint_parts();
        let mut w = Writer::open(out, KIND_TIME_TBF);
        w.u64(cfg.window_units);
        w.u64(cfg.unit_ticks);
        w.usize(cfg.m);
        w.usize(cfg.k);
        w.u64(cfg.c_units);
        w.u64(cfg.seed);
        w.u8(probe_tag(cfg.probe));
        w.opt_u64(state.cur_unit);
        w.usize(state.clean_next);
        w.words(&state.entry_words);
    }
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        TimeTbf::restore(buf)
    }
}

impl CheckpointState for TimeGbf {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let (cfg, state) = self.checkpoint_parts();
        let mut w = Writer::open(out, KIND_TIME_GBF);
        w.usize(cfg.q);
        w.u64(cfg.sub_units);
        w.u64(cfg.unit_ticks);
        w.usize(cfg.m);
        w.usize(cfg.k);
        w.u64(cfg.seed);
        w.u8(probe_tag(cfg.probe));
        w.opt_u64(state.cur_unit);
        w.usize(state.slot);
        w.u64(state.completed);
        w.u64(state.spare.map_or(u64::MAX, |s| s as u64));
        w.usize(state.clean_next);
        w.words(&state.mask_words);
        w.words(&state.matrix_words);
    }
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        TimeGbf::restore(buf)
    }
}

impl JumpingTbf {
    /// Serializes the complete detector state, including the sub-window
    /// clock position and sweep cursor.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        CheckpointState::checkpoint(self)
    }

    /// Restores a detector from a [`JumpingTbf::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    pub fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_JUMPING_TBF)?;
        let cfg = JumpingTbfConfig {
            n: r.usize()?,
            q: r.usize()?,
            m: r.usize()?,
            k: r.usize()?,
            c_q: r.usize()?,
            seed: r.u64()?,
            probe: probe_from_tag(r.u8()?)?,
        };
        let state = JumpingTbfState {
            sub_now: r.u64()?,
            slot: r.usize()?,
            filled: r.usize()?,
            completed_subwindows: r.u64()?,
            clean_next: r.usize()?,
            entry_words: r.words()?.into(),
        };
        r.finish()?;
        Self::from_checkpoint_parts(cfg, state)
            .ok_or(CheckpointError::Corrupt("inconsistent jumping-TBF state"))
    }
}

impl CheckpointState for JumpingTbf {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let (cfg, state) = self.checkpoint_parts();
        let mut w = Writer::open(out, KIND_JUMPING_TBF);
        w.usize(cfg.n);
        w.usize(cfg.q);
        w.usize(cfg.m);
        w.usize(cfg.k);
        w.usize(cfg.c_q);
        w.u64(cfg.seed);
        w.u8(probe_tag(cfg.probe));
        w.u64(state.sub_now);
        w.usize(state.slot);
        w.usize(state.filled);
        w.u64(state.completed_subwindows);
        w.usize(state.clean_next);
        w.words(&state.entry_words);
    }
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        JumpingTbf::restore(buf)
    }
}

impl CheckpointState for Apbf {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let (cfg, state) = self.checkpoint_parts();
        let mut w = Writer::open(out, KIND_APBF);
        w.usize(cfg.n);
        w.usize(cfg.k);
        w.usize(cfg.l);
        w.usize(cfg.total_bits);
        w.u64(cfg.seed);
        w.u8(probe_tag(cfg.probe));
        w.usize(state.base);
        w.usize(state.in_gen);
        w.u8(u8::from(state.wipe.is_some()));
        let (slice, cursor) = state.wipe.unwrap_or((0, 0));
        w.usize(slice);
        w.usize(cursor);
        w.words(&state.bit_words);
    }
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        Apbf::restore(buf)
    }
}

impl CheckpointState for Swbf {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let (cfg, state) = self.checkpoint_parts();
        let mut w = Writer::open(out, KIND_SWBF);
        w.usize(cfg.n);
        w.usize(cfg.total_bits);
        w.u64(u64::from(cfg.fingerprint_bits));
        w.u64(cfg.seed);
        w.u8(probe_tag(cfg.probe));
        w.u64(state.now);
        w.u64(state.arrivals);
        w.opt_u64(state.last_side_insert);
        w.usize(state.clean_next);
        w.usize(state.side_clean_next);
        w.words(&state.cell_words);
        w.words(&state.side_words);
    }
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        Swbf::restore(buf)
    }
}

impl TenantArena {
    /// Serializes the whole arena: shared tenant geometry, global decay
    /// clock, every live tenant's meta, the free-slot stack, and the
    /// slab words. The prefix→slot map is *not* serialized — restore
    /// re-derives it from the metas.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        CheckpointState::checkpoint(self)
    }

    /// Restores an arena from a [`TenantArena::checkpoint`] buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] on malformed input.
    pub fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_ARENA)?;
        let mut cfg = ArenaConfig::new(r.usize()?, r.usize()?, r.usize()?, r.u64()?)
            .with_initial_slots(r.usize()?);
        cfg.idle_eviction = r.opt_u64()?;
        cfg.probe = probe_from_tag(r.u8()?)?;
        let arrivals = r.u64()?;
        let scan_cursor = r.u64()?;
        let evictions = r.u64()?;
        let slots = r.u64()?;
        let mut metas = Vec::new();
        for _ in 0..slots {
            metas.push(match r.u8()? {
                0 => None,
                1 => Some((r.u64()?, r.u64()?, r.u64()?, r.u64()?)),
                _ => return Err(CheckpointError::Corrupt("bad tenant liveness flag")),
            });
        }
        let state = ArenaState {
            arrivals,
            scan_cursor,
            evictions,
            slots,
            metas,
            free: r.words()?,
            words: r.words()?.into(),
        };
        r.finish()?;
        Self::from_checkpoint_parts(cfg, state)
            .ok_or(CheckpointError::Corrupt("inconsistent arena state"))
    }
}

impl CheckpointState for TenantArena {
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let (cfg, state) = self.checkpoint_parts();
        let mut w = Writer::open(out, KIND_ARENA);
        w.usize(cfg.tenant_window);
        w.usize(cfg.tenant_entries);
        w.usize(cfg.hash_count);
        w.u64(cfg.seed);
        w.usize(cfg.initial_slots);
        w.opt_u64(cfg.idle_eviction);
        w.u8(probe_tag(cfg.probe));
        w.u64(state.arrivals);
        w.u64(state.scan_cursor);
        w.u64(state.evictions);
        w.u64(state.slots);
        for meta in &state.metas {
            match meta {
                None => w.u8(0),
                Some((prefix, now, clean_next, last_touch)) => {
                    w.u8(1);
                    w.u64(*prefix);
                    w.u64(*now);
                    w.u64(*clean_next);
                    w.u64(*last_touch);
                }
            }
        }
        w.words(&state.free);
        w.words(&state.words);
    }
    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        TenantArena::restore(buf)
    }
}

/// Appends a [`ShardedDetector`] `CFDS` blob: header (kind 3) | router
/// seed | shard count | length-prefixed per-shard blobs in router order,
/// where `shard(i, out)` appends shard `i`'s blob.
///
/// [`ShardedDetector`]'s own encoder is this function over its shards'
/// [`CheckpointState::checkpoint_into`]. A caller that copied each
/// shard's blob out earlier (the `cfd serve` snapshot writer, which
/// takes them on the shard threads) assembles the identical bytes
/// without touching the shards again.
pub fn sharded_checkpoint_into(
    out: &mut Vec<u8>,
    router_seed: u64,
    shard_count: usize,
    mut shard: impl FnMut(usize, &mut Vec<u8>),
) {
    let mut w = Writer::open(out, KIND_SHARDED);
    w.u64(router_seed);
    w.usize(shard_count);
    for i in 0..shard_count {
        w.nested(|out| shard(i, out));
    }
}

impl<D: CheckpointState> CheckpointState for ShardedDetector<D> {
    /// Format: see [`sharded_checkpoint_into`].
    fn checkpoint_into(&self, out: &mut Vec<u8>) {
        let shards = self.shards();
        sharded_checkpoint_into(out, self.router_seed(), shards.len(), |i, out| {
            shards[i].checkpoint_into(out);
        });
    }

    fn restore(buf: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::open(buf, KIND_SHARDED)?;
        let router_seed = r.u64()?;
        let count = r.usize()?;
        if count == 0 || count > MAX_SHARDS {
            return Err(CheckpointError::Corrupt("shard count out of range"));
        }
        let shards = (0..count)
            .map(|_| D::restore(r.bytes()?))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        ShardedDetector::new(router_seed, shards)
            .map_err(|_| CheckpointError::Corrupt("inconsistent sharded state"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_windows::DuplicateDetector;

    fn tbf() -> Tbf {
        Tbf::new(
            TbfConfig::builder(512)
                .entries(2_048)
                .hash_count(5)
                .seed(7)
                .build()
                .expect("cfg"),
        )
        .expect("detector")
    }

    fn gbf(layout: GbfLayout) -> Gbf {
        Gbf::new(
            GbfConfig::builder(512, 8)
                .filter_bits(1_024)
                .hash_count(5)
                .seed(7)
                .layout(layout)
                .build()
                .expect("cfg"),
        )
        .expect("detector")
    }

    #[test]
    fn tbf_roundtrip_preserves_every_future_verdict() {
        let mut original = tbf();
        for i in 0..5_000u64 {
            original.observe(&(i % 700).to_le_bytes());
        }
        let buf = original.checkpoint();
        let mut restored = Tbf::restore(&buf).expect("valid checkpoint");
        for i in 5_000..15_000u64 {
            let key = (i % 700).to_le_bytes();
            assert_eq!(original.observe(&key), restored.observe(&key), "i={i}");
        }
    }

    #[test]
    fn gbf_roundtrip_preserves_every_future_verdict_both_layouts() {
        for layout in [GbfLayout::Padded, GbfLayout::Tight] {
            let mut original = gbf(layout);
            for i in 0..5_000u64 {
                original.observe(&(i % 700).to_le_bytes());
            }
            let buf = original.checkpoint();
            let mut restored = Gbf::restore(&buf).expect("valid checkpoint");
            for i in 5_000..15_000u64 {
                let key = (i % 700).to_le_bytes();
                assert_eq!(
                    original.observe(&key),
                    restored.observe(&key),
                    "layout {layout:?}, i={i}"
                );
            }
        }
    }

    #[test]
    fn blocked_probe_layout_survives_roundtrip() {
        // The probe byte must restore the blocked geometry, or every
        // future probe would read different cells than the original.
        let mut original = Tbf::new(
            TbfConfig::builder(512)
                .entries(8_192)
                .hash_count(5)
                .seed(7)
                .probe(ProbeLayout::Blocked)
                .build()
                .expect("cfg"),
        )
        .expect("detector");
        for i in 0..5_000u64 {
            original.observe(&(i % 700).to_le_bytes());
        }
        let buf = original.checkpoint();
        let mut restored = Tbf::restore(&buf).expect("valid checkpoint");
        assert_eq!(restored.config().probe, ProbeLayout::Blocked);
        for i in 5_000..15_000u64 {
            let key = (i % 700).to_le_bytes();
            assert_eq!(original.observe(&key), restored.observe(&key), "i={i}");
        }

        for layout in [GbfLayout::Padded, GbfLayout::Tight] {
            let mut original = Gbf::new(
                GbfConfig::builder(512, 8)
                    .filter_bits(4_096)
                    .hash_count(5)
                    .seed(7)
                    .layout(layout)
                    .probe(ProbeLayout::Blocked)
                    .build()
                    .expect("cfg"),
            )
            .expect("detector");
            for i in 0..5_000u64 {
                original.observe(&(i % 700).to_le_bytes());
            }
            let buf = original.checkpoint();
            let mut restored = Gbf::restore(&buf).expect("valid checkpoint");
            assert_eq!(restored.config().probe, ProbeLayout::Blocked);
            for i in 5_000..15_000u64 {
                let key = (i % 700).to_le_bytes();
                assert_eq!(
                    original.observe(&key),
                    restored.observe(&key),
                    "layout {layout:?}, i={i}"
                );
            }
        }
    }

    #[test]
    fn checkpoint_mid_cleaning_is_faithful() {
        // Snapshot right after a rotation, while the spare lane wipe is
        // in progress: the wipe pointer must survive the roundtrip.
        let mut original = gbf(GbfLayout::Padded);
        for i in 0..65u64 {
            original.observe(&i.to_le_bytes()); // 64 = one sub-window
        }
        let buf = original.checkpoint();
        let mut restored = Gbf::restore(&buf).expect("valid checkpoint");
        for i in 65..3_000u64 {
            let key = (i % 90).to_le_bytes();
            assert_eq!(original.observe(&key), restored.observe(&key), "i={i}");
        }
    }

    #[test]
    fn rejects_malformed_buffers() {
        assert!(matches!(
            Tbf::restore(b"nope"),
            Err(CheckpointError::BadMagic)
        ));
        let mut buf = tbf().checkpoint();
        buf[4] = 0xFF;
        assert!(matches!(
            Tbf::restore(&buf),
            Err(CheckpointError::BadVersion(_))
        ));
        let buf = tbf().checkpoint();
        assert!(matches!(
            Gbf::restore(&buf),
            Err(CheckpointError::WrongKind { .. })
        ));
        let mut buf = tbf().checkpoint();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            Tbf::restore(&buf),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut buf = tbf().checkpoint();
        buf.push(0);
        assert!(matches!(
            Tbf::restore(&buf),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn errors_display() {
        assert!(CheckpointError::BadMagic.to_string().contains("CFDS"));
        assert!(CheckpointError::WrongKind {
            found: 2,
            expected: 1
        }
        .to_string()
        .contains('2'));
    }

    fn sharded_tbf() -> ShardedDetector<Tbf> {
        ShardedDetector::from_fn(17, 4, |_| {
            Tbf::new(
                TbfConfig::builder(128)
                    .entries(2_048)
                    .hash_count(5)
                    .seed(7)
                    .build()
                    .expect("cfg"),
            )
        })
        .expect("sharded")
    }

    #[test]
    fn sharded_roundtrip_preserves_every_future_verdict() {
        let mut original = sharded_tbf();
        for i in 0..5_000u64 {
            original.observe(&(i % 700).to_le_bytes());
        }
        let buf = CheckpointState::checkpoint(&original);
        let mut restored =
            <ShardedDetector<Tbf> as CheckpointState>::restore(&buf).expect("valid checkpoint");
        assert_eq!(restored.shard_count(), 4);
        for i in 5_000..15_000u64 {
            let key = (i % 700).to_le_bytes();
            assert_eq!(original.observe(&key), restored.observe(&key), "i={i}");
        }
    }

    #[test]
    fn sharded_gbf_roundtrip() {
        let mut original: ShardedDetector<Gbf> = ShardedDetector::from_fn(3, 2, |_| {
            Gbf::new(
                GbfConfig::builder(256, 8)
                    .filter_bits(1_024)
                    .hash_count(5)
                    .seed(9)
                    .build()
                    .expect("cfg"),
            )
        })
        .expect("sharded");
        for i in 0..2_000u64 {
            original.observe(&(i % 300).to_le_bytes());
        }
        let buf = CheckpointState::checkpoint(&original);
        let mut restored =
            <ShardedDetector<Gbf> as CheckpointState>::restore(&buf).expect("valid checkpoint");
        for i in 2_000..6_000u64 {
            let key = (i % 300).to_le_bytes();
            assert_eq!(original.observe(&key), restored.observe(&key), "i={i}");
        }
    }

    // ---- time-based detectors ------------------------------------------

    use cfd_windows::Verdict;

    /// Irregular ticks with occasional regressions, cyclic keys.
    fn timed_stream(range: std::ops::Range<u64>) -> impl Iterator<Item = ([u8; 8], u64)> {
        let mut tick = range.start * 5;
        range.map(move |i| {
            tick += (i * 7 + 3) % 11;
            if i % 97 == 96 {
                tick = tick.saturating_sub(25);
            }
            ((i % 700).to_le_bytes(), tick)
        })
    }

    fn time_tbf() -> TimeTbf {
        TimeTbf::new(TimeTbfConfig::new(32, 10, 2_048, 5, 7).expect("cfg")).expect("detector")
    }

    fn time_gbf() -> TimeGbf {
        TimeGbf::new(TimeGbfConfig::new(6, 5, 10, 1_024, 4, 7).expect("cfg")).expect("detector")
    }

    #[test]
    fn time_tbf_roundtrip_preserves_every_future_verdict() {
        for probe in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
            let cfg = TimeTbfConfig::new(32, 10, 2_048, 5, 7)
                .and_then(|c| c.with_probe(probe))
                .expect("cfg");
            let mut original = TimeTbf::new(cfg).expect("detector");
            for (key, tick) in timed_stream(0..5_000) {
                original.observe_at(&key, tick);
            }
            let buf = original.checkpoint();
            let mut restored = TimeTbf::restore(&buf).expect("valid checkpoint");
            assert_eq!(restored.config().probe, probe);
            for (key, tick) in timed_stream(5_000..15_000) {
                assert_eq!(
                    original.observe_at(&key, tick),
                    restored.observe_at(&key, tick),
                    "probe {probe:?}, tick {tick}"
                );
            }
        }
    }

    #[test]
    fn time_gbf_roundtrip_preserves_every_future_verdict() {
        for probe in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
            let cfg = TimeGbfConfig::new(6, 5, 10, 1_024, 4, 7)
                .and_then(|c| c.with_probe(probe))
                .expect("cfg");
            let mut original = TimeGbf::new(cfg).expect("detector");
            for (key, tick) in timed_stream(0..5_000) {
                original.observe_at(&key, tick);
            }
            let buf = original.checkpoint();
            let mut restored = TimeGbf::restore(&buf).expect("valid checkpoint");
            assert_eq!(restored.config().probe, probe);
            for (key, tick) in timed_stream(5_000..15_000) {
                assert_eq!(
                    original.observe_at(&key, tick),
                    restored.observe_at(&key, tick),
                    "probe {probe:?}, tick {tick}"
                );
            }
        }
    }

    #[test]
    fn time_gbf_checkpoint_mid_wipe_is_faithful() {
        // Snapshot right after a rotation starts a spare-lane wipe: the
        // wipe cursor must survive the roundtrip, or restored cleaning
        // would fall behind and leave stale bits.
        let mut original = time_gbf();
        for u in 0..6u64 {
            original.observe_at(&u.to_le_bytes(), u * 10); // one obs per unit
        }
        // Crossing into unit 5*... triggers rotations; wipe in flight.
        let buf = original.checkpoint();
        let mut restored = TimeGbf::restore(&buf).expect("valid checkpoint");
        for (key, tick) in timed_stream(6..4_000) {
            assert_eq!(
                original.observe_at(&key, tick),
                restored.observe_at(&key, tick),
                "tick {tick}"
            );
        }
    }

    #[test]
    fn time_tbf_high_water_at_u64_max_roundtrips() {
        // With unit_ticks == 1 the high-water unit can legitimately be
        // u64::MAX; the flag-byte encoding must not confuse it with the
        // never-observed state.
        let mut original =
            TimeTbf::new(TimeTbfConfig::new(32, 1, 256, 3, 7).expect("cfg")).expect("detector");
        original.observe_at(b"edge", u64::MAX);
        let buf = original.checkpoint();
        let mut restored = TimeTbf::restore(&buf).expect("valid checkpoint");
        assert_eq!(restored.observe_at(b"edge", u64::MAX), Verdict::Duplicate);
        // And a fresh detector's None survives too.
        let fresh = time_tbf();
        let restored_fresh = TimeTbf::restore(&fresh.checkpoint()).expect("valid checkpoint");
        assert_eq!(restored_fresh.checkpoint(), fresh.checkpoint());
    }

    #[test]
    fn timed_restores_reject_malformed_buffers() {
        // Every truncation must fail cleanly, never panic or OOM.
        let mut d = time_tbf();
        for (key, tick) in timed_stream(0..1_000) {
            d.observe_at(&key, tick);
        }
        let full = d.checkpoint();
        for cut in (0..full.len()).step_by(97) {
            assert!(
                TimeTbf::restore(&full[..cut]).is_err(),
                "tbf truncation at {cut} accepted"
            );
        }
        let mut g = time_gbf();
        for (key, tick) in timed_stream(0..1_000) {
            g.observe_at(&key, tick);
        }
        let full = g.checkpoint();
        for cut in (0..full.len()).step_by(97) {
            assert!(
                TimeGbf::restore(&full[..cut]).is_err(),
                "gbf truncation at {cut} accepted"
            );
        }
        // Kind confusion between the timed pair is rejected.
        assert!(matches!(
            TimeGbf::restore(&time_tbf().checkpoint()),
            Err(CheckpointError::WrongKind {
                found: 4,
                expected: 5
            })
        ));
        // A corrupt option flag is rejected (flag byte is right after
        // the 7-byte header + 49 config bytes for time-TBF).
        let mut bad_flag = time_tbf().checkpoint();
        bad_flag[7 + 49] = 2;
        assert!(matches!(
            TimeTbf::restore(&bad_flag),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn timed_sharded_roundtrip_preserves_every_future_verdict() {
        let mut original: ShardedDetector<TimeTbf> = ShardedDetector::from_fn(17, 4, |_| {
            TimeTbf::new(TimeTbfConfig::new(32, 10, 2_048, 5, 7)?)
        })
        .expect("sharded");
        for (key, tick) in timed_stream(0..5_000) {
            original.observe_at(&key, tick);
        }
        let buf = CheckpointState::checkpoint(&original);
        let mut restored =
            <ShardedDetector<TimeTbf> as CheckpointState>::restore(&buf).expect("valid checkpoint");
        assert_eq!(restored.shard_count(), 4);
        for (key, tick) in timed_stream(5_000..15_000) {
            assert_eq!(
                original.observe_at(&key, tick),
                restored.observe_at(&key, tick),
                "tick {tick}"
            );
        }
    }

    #[test]
    fn sharded_rejects_malformed_buffers() {
        type Sharded = ShardedDetector<Tbf>;
        assert!(matches!(
            <Sharded as CheckpointState>::restore(b"junk"),
            Err(CheckpointError::BadMagic)
        ));
        // A plain TBF checkpoint is the wrong kind.
        assert!(matches!(
            <Sharded as CheckpointState>::restore(&tbf().checkpoint()),
            Err(CheckpointError::WrongKind {
                found: 1,
                expected: 3
            })
        ));
        let full = CheckpointState::checkpoint(&sharded_tbf());
        // Every truncation must fail cleanly, never panic or OOM.
        for cut in (0..full.len()).step_by(97) {
            assert!(
                <Sharded as CheckpointState>::restore(&full[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Trailing garbage is rejected.
        let mut extended = full.clone();
        extended.extend_from_slice(&[0xAB; 9]);
        assert!(<Sharded as CheckpointState>::restore(&extended).is_err());
        // An absurd shard count in the header is rejected before any
        // allocation (offset 7 header + 8 seed = count field at 15).
        let mut bad_count = full;
        bad_count[15..23].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            <Sharded as CheckpointState>::restore(&bad_count),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn jumping_tbf_roundtrip_preserves_every_future_verdict() {
        for probe in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
            let cfg = crate::tbf_jumping::JumpingTbfConfig::new(512, 64, 8_192, 5, 7)
                .and_then(|c| c.with_probe(probe))
                .expect("cfg");
            let mut original = JumpingTbf::new(cfg).expect("detector");
            // Stop mid-sub-window so the clock phase is non-trivial.
            for i in 0..5_003u64 {
                original.observe(&(i % 700).to_le_bytes());
            }
            let buf = original.checkpoint();
            let mut restored = JumpingTbf::restore(&buf).expect("valid checkpoint");
            assert_eq!(restored.config().probe, probe);
            for i in 5_003..15_000u64 {
                let key = (i % 700).to_le_bytes();
                assert_eq!(
                    original.observe(&key),
                    restored.observe(&key),
                    "probe {probe:?}, i={i}"
                );
            }
            // Truncations fail cleanly.
            for cut in (0..buf.len()).step_by(97) {
                assert!(
                    JumpingTbf::restore(&buf[..cut]).is_err(),
                    "truncation at {cut} accepted"
                );
            }
        }
    }

    // ---- APBF / SWBF ---------------------------------------------------

    fn apbf(probe: ProbeLayout) -> Apbf {
        Apbf::new(ApbfConfig::for_budget(512, 512 * 24, 7, probe).expect("cfg")).expect("detector")
    }

    fn swbf(probe: ProbeLayout) -> Swbf {
        Swbf::new(SwbfConfig::for_budget(512, 512 * 48, 7, probe).expect("cfg")).expect("detector")
    }

    #[test]
    fn apbf_roundtrip_preserves_every_future_verdict() {
        for probe in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
            let mut original = apbf(probe);
            // Stop mid-generation so base/in_gen/wipe are all non-trivial.
            for i in 0..5_003u64 {
                original.observe(&(i % 700).to_le_bytes());
            }
            let buf = original.checkpoint();
            let mut restored = Apbf::restore(&buf).expect("valid checkpoint");
            assert_eq!(restored.config().probe, probe);
            for i in 5_003..15_000u64 {
                let key = (i % 700).to_le_bytes();
                assert_eq!(
                    original.observe(&key),
                    restored.observe(&key),
                    "probe {probe:?}, i={i}"
                );
            }
        }
    }

    #[test]
    fn swbf_roundtrip_preserves_every_future_verdict() {
        for probe in [ProbeLayout::Scattered, ProbeLayout::Blocked] {
            let mut original = swbf(probe);
            for i in 0..5_003u64 {
                original.observe(&(i % 700).to_le_bytes());
            }
            let buf = original.checkpoint();
            let mut restored = Swbf::restore(&buf).expect("valid checkpoint");
            assert_eq!(restored.config().probe, probe);
            for i in 5_003..15_000u64 {
                let key = (i % 700).to_le_bytes();
                assert_eq!(
                    original.observe(&key),
                    restored.observe(&key),
                    "probe {probe:?}, i={i}"
                );
            }
        }
    }

    #[test]
    fn swbf_roundtrip_preserves_side_filter_state() {
        // Crowd a tiny filter until inserts spill into the side filter,
        // then checkpoint: side table and liveness stamp must survive.
        let mut original =
            Swbf::new(SwbfConfig::for_budget(128, 2_048, 7, ProbeLayout::Scattered).expect("cfg"))
                .expect("detector");
        for i in 0..2_000u64 {
            original.observe(&i.to_le_bytes());
        }
        assert!(
            original.side_inserted(),
            "crowding should hit the side path"
        );
        let buf = original.checkpoint();
        let mut restored = Swbf::restore(&buf).expect("valid checkpoint");
        for i in 2_000..6_000u64 {
            let key = (i % 160).to_le_bytes();
            assert_eq!(original.observe(&key), restored.observe(&key), "i={i}");
        }
    }

    #[test]
    fn apbf_swbf_reject_malformed_buffers() {
        // Kind confusion between the two new backends is rejected.
        assert!(matches!(
            Swbf::restore(&apbf(ProbeLayout::Scattered).checkpoint()),
            Err(CheckpointError::WrongKind {
                found: 6,
                expected: 7
            })
        ));
        assert!(matches!(
            Apbf::restore(&swbf(ProbeLayout::Scattered).checkpoint()),
            Err(CheckpointError::WrongKind {
                found: 7,
                expected: 6
            })
        ));
        // Every truncation must fail cleanly, never panic or OOM.
        let mut a = apbf(ProbeLayout::Scattered);
        let mut s = swbf(ProbeLayout::Scattered);
        for i in 0..1_000u64 {
            a.observe(&i.to_le_bytes());
            s.observe(&i.to_le_bytes());
        }
        let full = a.checkpoint();
        for cut in (0..full.len()).step_by(97) {
            assert!(
                Apbf::restore(&full[..cut]).is_err(),
                "apbf truncation at {cut} accepted"
            );
        }
        let full = s.checkpoint();
        for cut in (0..full.len()).step_by(97) {
            assert!(
                Swbf::restore(&full[..cut]).is_err(),
                "swbf truncation at {cut} accepted"
            );
        }
        // A corrupt wipe flag is rejected (flag byte sits after the
        // 7-byte header, 4 usize config fields + seed + probe byte, and
        // base/in_gen).
        let mut bad_flag = a.checkpoint();
        bad_flag[7 + 4 * 8 + 8 + 1 + 2 * 8] = 3;
        assert!(matches!(
            Apbf::restore(&bad_flag),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn arena_roundtrip_preserves_every_future_verdict() {
        use crate::arena::{ArenaConfig, TenantArena};
        let mut original = TenantArena::new(
            ArenaConfig::new(64, 512, 4, 7)
                .with_initial_slots(2)
                .with_idle_eviction(4_096),
        )
        .expect("arena");
        let key = |i: u64| {
            let mut k = (i % 37).to_le_bytes().to_vec();
            k.extend_from_slice(&(i % 300).to_le_bytes());
            k
        };
        for i in 0..5_000u64 {
            original.observe(&key(i));
        }
        let buf = original.checkpoint();
        assert_eq!(peek_kind(&buf), Ok(KIND_ARENA));
        let mut restored = TenantArena::restore(&buf).expect("valid checkpoint");
        assert_eq!(original.memory_bits(), restored.memory_bits());
        assert_eq!(original.live_tenants(), restored.live_tenants());
        for i in 5_000..15_000u64 {
            assert_eq!(
                original.observe(&key(i)),
                restored.observe(&key(i)),
                "i={i}"
            );
        }
    }

    #[test]
    fn arena_restore_rejects_malformed_buffers() {
        use crate::arena::{ArenaConfig, TenantArena};
        let mut a = TenantArena::new(ArenaConfig::new(64, 512, 4, 7)).expect("arena");
        for i in 0..2_000u64 {
            a.observe(&(i % 90).to_le_bytes());
        }
        let full = a.checkpoint();
        for cut in (0..full.len()).step_by(97) {
            assert!(
                TenantArena::restore(&full[..cut]).is_err(),
                "arena truncation at {cut} accepted"
            );
        }
        // A corrupt tenant liveness flag is rejected (first flag byte
        // sits after the 7-byte header, 4 usize + seed config fields,
        // the idle option, the probe byte, and 4 u64 globals).
        let mut bad_flag = full.clone();
        bad_flag[7 + 4 * 8 + 8 + 9 + 1 + 4 * 8] = 9;
        assert!(matches!(
            TenantArena::restore(&bad_flag),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            Tbf::restore(&full),
            Err(CheckpointError::WrongKind {
                found: KIND_ARENA,
                expected: KIND_TBF
            })
        ));
    }

    #[test]
    fn peek_kind_reads_the_backend_tag() {
        assert_eq!(peek_kind(&tbf().checkpoint()), Ok(KIND_TBF));
        assert_eq!(
            peek_kind(&apbf(ProbeLayout::Scattered).checkpoint()),
            Ok(KIND_APBF)
        );
        assert_eq!(
            peek_kind(&swbf(ProbeLayout::Scattered).checkpoint()),
            Ok(KIND_SWBF)
        );
        assert_eq!(peek_kind(b"junk"), Err(CheckpointError::BadMagic));
        let mut buf = tbf().checkpoint();
        buf[5] = 0xEE;
        assert!(matches!(
            peek_kind(&buf),
            Err(CheckpointError::BadVersion(_))
        ));
    }

    /// `checkpoint_into` appends exactly `checkpoint()`'s bytes, leaving
    /// a prefix alone, into a recycled buffer with spare capacity: for
    /// every registry backend (through both the concrete type's trait
    /// and `Box<dyn DetectorBackend>`), the time-window detectors, and
    /// 4-shard `ShardedDetector`s.
    #[test]
    fn checkpoint_into_appends_checkpoint_bytes_after_a_prefix() {
        use crate::registry::{self, BackendGeometry, MemorySpec};
        use crate::DetectorBackend;
        fn check(name: &str, d: &impl CheckpointState) {
            let want = d.checkpoint();
            let mut buf = Vec::with_capacity(want.len() * 2);
            buf.extend_from_slice(&[0xAB; 4096]);
            buf.truncate(13); // recycled: old bytes beyond len, 13-byte prefix
            d.checkpoint_into(&mut buf);
            assert_eq!(&buf[..13], &[0xAB; 13], "{name}: prefix untouched");
            assert!(buf[13..] == want[..], "{name}: appended bytes differ");
        }
        let observe = |d: &mut dyn DuplicateDetector| {
            for i in 0..3_000u64 {
                d.observe(&(i % 900).to_le_bytes());
            }
        };
        let geometry = BackendGeometry::new(512, MemorySpec::TotalBits(1 << 15));
        for entry in registry::backends() {
            let mut boxed = entry.build(&geometry).expect("backend builds");
            observe(&mut boxed);
            check(entry.name, &boxed);
            let mut via_dyn = vec![0xAB; 13];
            DetectorBackend::checkpoint_into(&*boxed, &mut via_dyn);
            assert!(
                via_dyn[13..] == boxed.checkpoint()[..],
                "{}: dyn",
                entry.name
            );
            let mut sharded = ShardedDetector::from_fn(5, 4, |_| entry.build(&geometry))
                .expect("sharded backend");
            observe(&mut sharded);
            check(entry.name, &sharded);
        }
        let mut t = tbf();
        observe(&mut t);
        check("tbf", &t);
        let mut g = gbf(GbfLayout::Tight);
        observe(&mut g);
        check("gbf tight", &g);
        let mut time_tbf = TimeTbf::new(TimeTbfConfig::new(64, 16, 1 << 12, 6, 4).expect("cfg"))
            .expect("detector");
        let mut time_gbf = TimeGbf::new(TimeGbfConfig::new(8, 16, 4, 1 << 10, 4, 3).expect("cfg"))
            .expect("detector");
        for i in 0..3_000u64 {
            time_tbf.observe_at(&(i % 900).to_le_bytes(), i / 3);
            time_gbf.observe_at(&(i % 900).to_le_bytes(), i / 3);
        }
        check("time-tbf", &time_tbf);
        check("time-gbf", &time_gbf);
        let mut sharded_tbf =
            ShardedDetector::from_fn(5, 4, |_| Ok::<_, crate::ConfigError>(tbf()))
                .expect("sharded tbf");
        observe(&mut sharded_tbf);
        check("sharded tbf", &sharded_tbf);
    }
}
