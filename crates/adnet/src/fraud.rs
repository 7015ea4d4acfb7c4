//! Publisher-level fraud scoring.
//!
//! The paper's future work (§6) points at "various sophisticated click
//! fraud attacks" and its related work (§2.4, Metwally et al. \[20\]) at
//! *coalitions* of publishers laundering shared identities through each
//! other. Duplicate detection gives a per-click signal; this module
//! aggregates it per publisher: a publisher whose blocked-duplicate rate
//! is far above the network norm is either extraordinarily unlucky or
//! inflating its clicks.
//!
//! Scoring: a one-sided binomial z-test of each publisher's blocked rate
//! against the pooled rate of all *other* publishers, so a large
//! coalition cannot hide by dragging the global mean up.

use cfd_stream::{Click, PublisherId};
use cfd_windows::Verdict;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-publisher fraud score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublisherScore {
    /// The publisher.
    pub publisher: PublisherId,
    /// Clicks routed through this publisher.
    pub clicks: u64,
    /// Clicks blocked as duplicates.
    pub blocked: u64,
    /// Blocked rate.
    pub rate: f64,
    /// One-sided z-score of the rate against the rest of the network.
    pub z_score: f64,
}

impl PublisherScore {
    /// `true` when the score exceeds `threshold` standard deviations
    /// (3.0 is a reasonable default at these volumes).
    #[must_use]
    pub fn is_suspicious(&self, threshold: f64) -> bool {
        self.z_score >= threshold
    }
}

/// Streaming per-publisher duplicate tallies.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FraudScorer {
    per_publisher: HashMap<u32, (u64, u64)>, // clicks, blocked
}

impl FraudScorer {
    /// Creates an empty scorer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one click and its duplicate verdict.
    pub fn record(&mut self, click: &Click, verdict: Verdict) {
        let entry = self
            .per_publisher
            .entry(click.publisher.0)
            .or_insert((0, 0));
        entry.0 += 1;
        if verdict == Verdict::Duplicate {
            entry.1 += 1;
        }
    }

    /// Iterates the raw `(publisher, clicks, blocked)` tallies in
    /// unspecified order — the serve checkpoint writer sorts them
    /// itself for a deterministic encoding.
    pub fn tallies(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        self.per_publisher
            .iter()
            .map(|(&p, &(clicks, blocked))| (p, clicks, blocked))
    }

    /// Sets one publisher's raw tally, replacing any previous value
    /// (checkpoint restore).
    pub fn set_tally(&mut self, publisher: u32, clicks: u64, blocked: u64) {
        self.per_publisher.insert(publisher, (clicks, blocked));
    }

    /// Total clicks recorded.
    #[must_use]
    pub fn total_clicks(&self) -> u64 {
        self.per_publisher.values().map(|&(c, _)| c).sum()
    }

    /// Computes the per-publisher scores, highest z first.
    ///
    /// Publishers with fewer than `min_clicks` are skipped (a z-test on
    /// ten clicks means nothing).
    #[must_use]
    pub fn scores(&self, min_clicks: u64) -> Vec<PublisherScore> {
        let total: u64 = self.total_clicks();
        let total_blocked: u64 = self.per_publisher.values().map(|&(_, b)| b).sum();
        let mut out = Vec::new();
        for (&publisher, &(clicks, blocked)) in &self.per_publisher {
            if clicks < min_clicks {
                continue;
            }
            // Pooled rate of everyone else.
            let rest_clicks = total - clicks;
            let rest_blocked = total_blocked - blocked;
            let p0 = if rest_clicks == 0 {
                0.0
            } else {
                rest_blocked as f64 / rest_clicks as f64
            };
            let rate = blocked as f64 / clicks as f64;
            let se = (p0 * (1.0 - p0) / clicks as f64).sqrt();
            let z_score = if se > 0.0 {
                (rate - p0) / se
            } else if rate > p0 {
                f64::INFINITY
            } else {
                0.0
            };
            out.push(PublisherScore {
                publisher: PublisherId(publisher),
                clicks,
                blocked,
                rate,
                z_score,
            });
        }
        out.sort_by(|a, b| b.z_score.total_cmp(&a.z_score));
        out
    }

    /// Publishers exceeding `threshold` standard deviations.
    #[must_use]
    pub fn suspicious(&self, min_clicks: u64, threshold: f64) -> Vec<PublisherScore> {
        self.scores(min_clicks)
            .into_iter()
            .filter(|s| s.is_suspicious(threshold))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_core::{Tbf, TbfConfig};
    use cfd_stream::{CoalitionConfig, CoalitionStream};
    use cfd_windows::DuplicateDetector;

    #[test]
    fn coalition_members_score_high_honest_score_low() {
        let cfg = CoalitionConfig::default();
        let members: Vec<u32> = cfg.members.iter().map(|p| p.0).collect();
        let honest: Vec<u32> = cfg.honest.iter().map(|p| p.0).collect();
        let stream = CoalitionStream::new(cfg);

        let window = 8_192;
        let mut detector = Tbf::new(
            TbfConfig::builder(window)
                .entries(window * 14)
                .build()
                .expect("cfg"),
        )
        .expect("detector");
        let mut scorer = FraudScorer::new();
        for cc in stream.take(200_000) {
            let v = detector.observe(&cc.click.key());
            scorer.record(&cc.click, v);
        }

        let flagged = scorer.suspicious(1_000, 3.0);
        let flagged_ids: Vec<u32> = flagged.iter().map(|s| s.publisher.0).collect();
        for m in &members {
            assert!(flagged_ids.contains(m), "coalition member {m} not flagged");
        }
        for h in &honest {
            assert!(
                !flagged_ids.contains(h),
                "honest publisher {h} falsely flagged"
            );
        }
    }

    #[test]
    fn scores_are_sorted_and_rated() {
        let mut s = FraudScorer::new();
        use cfd_stream::{AdId, ClickId};
        let mk = |p: u32| Click::new(ClickId::new(1, 2, AdId(3)), 0, PublisherId(p), 1);
        for _ in 0..100 {
            s.record(&mk(1), Verdict::Distinct);
            s.record(&mk(2), Verdict::Duplicate);
        }
        let scores = s.scores(10);
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0].publisher, PublisherId(2));
        assert!(scores[0].rate > 0.99);
        assert!(scores[0].z_score > scores[1].z_score);
        assert_eq!(s.total_clicks(), 200);
    }

    #[test]
    fn min_clicks_filters_noise() {
        let mut s = FraudScorer::new();
        use cfd_stream::{AdId, ClickId};
        let c = Click::new(ClickId::new(1, 2, AdId(3)), 0, PublisherId(9), 1);
        s.record(&c, Verdict::Duplicate);
        assert!(s.scores(10).is_empty());
        assert_eq!(s.scores(1).len(), 1);
    }
}
