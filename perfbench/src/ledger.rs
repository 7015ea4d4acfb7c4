//! The single-threaded layer ledger: every layer's public function
//! called in stream order on the workload's clicks, each call timed
//! from outside.
//!
//! 1. decode (`FrameReader` + `wire::decode_clicks_into`);
//! 2. key + `Planner::plan_flat_into`;
//! 3. route (`ShardRouter::route_pair`);
//! 4. per-shard `apply_plan_batch_into` on the hash-once plans;
//! 5. `BillingEngine::process_judged`;
//! 6. `ServerState::checkpoint_bytes` / `write_checkpoint` at the
//!    workload's cadence, and once at the end (the drain checkpoint).

use crate::workload::{Backend, SHARDS};
use cfd_adnet::{BillingEngine, ClickOutcome, NetworkReport, Registry, ServerState};
use cfd_core::sharded::ShardedDetector;
use cfd_hash::ProbePlan;
use cfd_stream::{wire, Click, FrameReader};
use cfd_windows::{DuplicateDetector, Verdict};
use std::path::Path;
use std::time::{Duration, Instant};

const KEY_LEN: usize = 16;

/// Self time per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub decode: Duration,
    pub hash: Duration,
    pub route: Duration,
    pub detector: Duration,
    pub billing: Duration,
    pub checkpoint: Duration,
}

impl LayerTimes {
    pub fn total(&self) -> Duration {
        self.decode + self.hash + self.route + self.detector + self.billing + self.checkpoint
    }
}

pub struct LedgerOut<D> {
    /// One verdict per click, in stream order.
    pub verdicts: Vec<Verdict>,
    /// Final gateway state (what the drain checkpoint holds).
    pub state: ServerState<D>,
    pub report: NetworkReport,
    pub times: LayerTimes,
    pub wall: Duration,
    /// Clicks routed to each shard.
    pub shard_loads: [u64; SHARDS],
    pub checkpoint_encode_ms: Vec<f64>,
    pub checkpoint_write_ms: Vec<f64>,
    /// Size of the final checkpoint.
    pub checkpoint_bytes: Vec<u8>,
    pub wire_bytes: u64,
}

struct Ledger<D> {
    state: ServerState<D>,
    engine: BillingEngine<()>,
    times: LayerTimes,
    keys: Vec<u8>,
    plans: Vec<ProbePlan>,
    routes: Vec<usize>,
    buckets: [Vec<ProbePlan>; SHARDS],
    outs: [Vec<Verdict>; SHARDS],
    verdicts: Vec<Verdict>,
    shard_loads: [u64; SHARDS],
    encode_ms: Vec<f64>,
    write_ms: Vec<f64>,
    last_bytes: Vec<u8>,
}

impl<D: Backend> Ledger<D> {
    fn block(&mut self, clicks: &[Click]) {
        let t = Instant::now();
        self.keys.clear();
        for c in clicks {
            self.keys.extend_from_slice(&c.key());
        }
        let router = self.state.detector.router();
        router
            .planner()
            .plan_flat_into(&self.keys, KEY_LEN, &mut self.plans);
        self.times.hash += t.elapsed();

        let t = Instant::now();
        self.routes.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        for plan in &self.plans {
            let s = router.route_pair(plan.pair());
            self.buckets[s].push(*plan);
            self.routes.push(s);
            self.shard_loads[s] += 1;
        }
        self.times.route += t.elapsed();

        let t = Instant::now();
        for (s, (bucket, out)) in self.buckets.iter().zip(&mut self.outs).enumerate() {
            self.state
                .detector
                .shard_mut(s)
                .apply_plan_batch_into(bucket, out);
        }
        let base = self.verdicts.len();
        let mut cursor = [0usize; SHARDS];
        for &s in &self.routes {
            self.verdicts.push(self.outs[s][cursor[s]]);
            cursor[s] += 1;
        }
        self.times.detector += t.elapsed();

        let t = Instant::now();
        for (click, &v) in clicks.iter().zip(&self.verdicts[base..]) {
            let outcome = self
                .engine
                .process_judged(click, v, &mut self.state.registry);
            if outcome == ClickOutcome::DuplicateBlocked {
                if let Some(c) = self.state.registry.campaign(click.id.ad) {
                    self.state.savings_micros += c.cpc_micros;
                }
            }
            self.state.scorer.record(click, v);
        }
        self.state.position += clicks.len() as u64;
        self.times.billing += t.elapsed();
    }

    fn checkpoint(&mut self, path: &Path) -> Result<(), String> {
        let t = Instant::now();
        self.state.ledger = self.engine.ledger().clone();
        self.last_bytes = self.state.checkpoint_bytes();
        let encode = t.elapsed();
        let t = Instant::now();
        self.state
            .write_checkpoint(path)
            .map_err(|e| format!("ledger checkpoint: {e}"))?;
        let write = t.elapsed();
        self.times.checkpoint += encode + write;
        self.encode_ms.push(encode.as_secs_f64() * 1e3);
        self.write_ms.push(write.as_secs_f64() * 1e3);
        Ok(())
    }
}

/// Runs the ledger over `frames` (the generator's CFDW frames) with a
/// fresh `detector` and `registry`.
pub fn run<D: Backend>(
    frames: &[Vec<u8>],
    detector: ShardedDetector<D>,
    registry: Registry,
    batch: usize,
    checkpoint_every: u64,
    checkpoint_path: &Path,
) -> Result<LedgerOut<D>, String> {
    let mut l = Ledger {
        state: ServerState::new(detector, registry),
        engine: BillingEngine::new(()),
        times: LayerTimes::default(),
        keys: Vec::with_capacity(batch * KEY_LEN * 2),
        plans: Vec::with_capacity(batch * 2),
        routes: Vec::with_capacity(batch * 2),
        buckets: std::array::from_fn(|_| Vec::with_capacity(batch * 2)),
        outs: std::array::from_fn(|_| Vec::with_capacity(batch * 2)),
        verdicts: Vec::new(),
        shard_loads: [0; SHARDS],
        encode_ms: Vec::new(),
        write_ms: Vec::new(),
        last_bytes: Vec::new(),
    };
    let mut reader = FrameReader::with_capacity(frames.first().map_or(0, Vec::len) * 2);
    let mut staged: Vec<Click> = Vec::with_capacity(batch * 2);
    let mut wire_bytes = 0u64;
    let mut next_checkpoint = checkpoint_every;

    let start = Instant::now();
    for frame in frames {
        let t = Instant::now();
        reader.extend(frame);
        while let Some(f) = reader
            .next_frame()
            .map_err(|e| format!("ledger decode: {e}"))?
        {
            wire::decode_clicks_into(f.payload, &mut staged)
                .map_err(|e| format!("ledger decode: {e}"))?;
        }
        l.times.decode += t.elapsed();
        wire_bytes += frame.len() as u64;
        if staged.len() >= batch {
            l.block(&staged);
            staged.clear();
            if checkpoint_every > 0 && l.state.position >= next_checkpoint {
                l.checkpoint(checkpoint_path)?;
                next_checkpoint += checkpoint_every;
            }
        }
    }
    if !staged.is_empty() {
        l.block(&staged);
    }
    l.checkpoint(checkpoint_path)?;
    let wall = start.elapsed();

    let report = NetworkReport::from_ledger(
        DuplicateDetector::name(&l.state.detector),
        DuplicateDetector::memory_bits(&l.state.detector),
        &l.state.ledger,
        l.state.savings_micros,
    );
    Ok(LedgerOut {
        verdicts: l.verdicts,
        state: l.state,
        report,
        times: l.times,
        wall,
        shard_loads: l.shard_loads,
        checkpoint_encode_ms: l.encode_ms,
        checkpoint_write_ms: l.write_ms,
        checkpoint_bytes: l.last_bytes,
        wire_bytes,
    })
}
