//! Dense-slot billing against a reference model.
//!
//! The model is the straightforward `HashMap` settlement the registry,
//! ledger and scorer implement: campaigns and advertisers keyed by id,
//! per-publisher revenue and fraud tallies keyed by publisher. Random
//! operation streams interleave registrations (including re-registered
//! advertisers and campaigns, campaigns of unknown advertisers and tiny
//! budgets) with clicks (including unknown ads and publishers first
//! seen mid-stream), and the billing state takes one `CFDG` checkpoint
//! round trip at a random point. Every outcome, and then the final
//! ledger, registry and scorer, must equal the model's.

use cfd_adnet::{
    Advertiser, AdvertiserId, BillingEngine, Campaign, ClickOutcome, FraudScorer, Registry,
    ServerState,
};
use cfd_core::sharded::ShardedDetector;
use cfd_core::{Tbf, TbfConfig};
use cfd_stream::{AdId, Click, ClickId, PublisherId};
use cfd_windows::Verdict;
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference model: plain `HashMap` settlement.
#[derive(Default)]
struct Model {
    advertisers: HashMap<AdvertiserId, Advertiser>,
    campaigns: HashMap<AdId, Campaign>,
    totals: [u64; 6], // clicks, charged, blocked, rejected, unknown, revenue
    revenue: HashMap<u32, u64>,
    tallies: HashMap<u32, (u64, u64)>,
    savings: u64,
}

impl Model {
    fn add_campaign(&mut self, c: Campaign) -> Result<(), Campaign> {
        if !self.advertisers.contains_key(&c.advertiser) {
            return Err(c);
        }
        self.campaigns.insert(c.ad, c);
        Ok(())
    }

    fn click(&mut self, click: &Click, verdict: Verdict) -> ClickOutcome {
        let t = self.tallies.entry(click.publisher.0).or_insert((0, 0));
        t.0 += 1;
        t.1 += u64::from(verdict == Verdict::Duplicate);
        self.totals[0] += 1;
        let Some(c) = self.campaigns.get(&click.id.ad).copied() else {
            self.totals[4] += 1;
            return ClickOutcome::UnknownAd;
        };
        if verdict == Verdict::Duplicate {
            self.totals[2] += 1;
            self.savings += c.cpc_micros;
            return ClickOutcome::DuplicateBlocked;
        }
        let a = self.advertisers.get_mut(&c.advertiser).expect("checked");
        if !a.try_charge(c.cpc_micros) {
            self.totals[3] += 1;
            return ClickOutcome::BudgetExhausted;
        }
        self.totals[1] += 1;
        self.totals[5] += c.cpc_micros;
        *self.revenue.entry(click.publisher.0).or_insert(0) += c.cpc_micros;
        ClickOutcome::Charged {
            cpc_micros: c.cpc_micros,
        }
    }
}

/// The system under test: what the pipeline's billing stage holds.
struct Billing {
    engine: BillingEngine<()>,
    registry: Registry,
    scorer: FraudScorer,
    savings: u64,
}

impl Billing {
    fn click(&mut self, click: &Click, verdict: Verdict) -> ClickOutcome {
        let outcome = self
            .engine
            .process_judged(click, verdict, &mut self.registry);
        if outcome == ClickOutcome::DuplicateBlocked {
            self.savings += self
                .registry
                .campaign(click.id.ad)
                .expect("known")
                .cpc_micros;
        }
        self.scorer.record(click, verdict);
        outcome
    }

    /// One `CFDG` round trip of the billing state.
    fn restore(self, position: u64) -> Self {
        let detector = ShardedDetector::from_fn(3, 1, |_| {
            Tbf::new(TbfConfig::builder(64).entries(64 * 8).build()?)
        })
        .expect("detector");
        let mut state = ServerState::new(detector, self.registry);
        state.ledger = self.engine.ledger().clone();
        state.scorer = self.scorer;
        state.savings_micros = self.savings;
        state.position = position;
        let bytes = state.checkpoint_bytes();
        let back = ServerState::<Tbf>::restore(&bytes).expect("restores");
        assert_eq!(back.checkpoint_bytes(), bytes, "CFDG is canonical");
        Self {
            engine: BillingEngine::with_ledger((), back.ledger),
            registry: back.registry,
            scorer: back.scorer,
            savings: back.savings_micros,
        }
    }
}

fn sorted<K: Ord + Copy, V: Copy>(m: impl IntoIterator<Item = (K, V)>) -> Vec<(K, V)> {
    let mut v: Vec<_> = m.into_iter().collect();
    v.sort_unstable_by_key(|&(k, _)| k);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn dense_slot_billing_equals_the_hash_map_model(
        ops in prop::collection::vec((0u8..16, any::<u32>(), any::<u32>(), 0u64..400), 0..400),
        restore_at in 0usize..420,
    ) {
        let mut model = Model::default();
        let mut sut = Billing {
            engine: BillingEngine::new(()),
            registry: Registry::new(),
            scorer: FraudScorer::new(),
            savings: 0,
        };
        for (i, &(kind, a, b, amount)) in ops.iter().enumerate() {
            if i == restore_at {
                sut = sut.restore(i as u64);
            }
            match kind {
                // Advertisers 0..6, re-registered with fresh (often tiny)
                // budgets.
                0 | 1 => {
                    let id = AdvertiserId(a % 6);
                    let budget = if b % 4 == 0 { u64::MAX / 4 } else { amount };
                    let adv = Advertiser::new(id, format!("adv{}-{}", id.0, b % 3), budget);
                    model.advertisers.insert(id, adv.clone());
                    sut.registry.add_advertiser(adv);
                }
                // Campaigns on ads 0..12 of advertisers 0..7 (6 never
                // registers), re-registered with new owners and prices.
                2 | 3 => {
                    let c = Campaign {
                        ad: AdId(a % 12),
                        advertiser: AdvertiserId(b % 7),
                        cpc_micros: amount % 120,
                    };
                    prop_assert_eq!(sut.registry.add_campaign(c), model.add_campaign(c));
                }
                // Clicks on ads 0..16 (12..16 never registered), from
                // publishers whose range widens as the stream goes on,
                // plus one first seen at each position.
                _ => {
                    let publisher = if b % 9 == 0 { 1_000 + i as u32 } else { b % (1 + i as u32 / 16) };
                    let click = Click::new(
                        ClickId::new(a, amount, AdId(a % 16)),
                        i as u64,
                        PublisherId(publisher),
                        1,
                    );
                    let verdict = if b % 3 == 0 { Verdict::Duplicate } else { Verdict::Distinct };
                    prop_assert_eq!(sut.click(&click, verdict), model.click(&click, verdict), "op {}", i);
                }
            }
        }

        let l = sut.engine.ledger();
        let totals = [l.clicks, l.charged, l.duplicates_blocked, l.budget_rejections, l.unknown_ads, l.revenue_micros];
        prop_assert_eq!(totals, model.totals);
        prop_assert_eq!(sut.savings, model.savings);
        prop_assert_eq!(
            sorted(l.per_publisher_micros.iter().map(|(&p, &m)| (p, m))),
            sorted(model.revenue.iter().map(|(&p, &m)| (p, m)))
        );
        let advertisers = |it: Vec<&Advertiser>| {
            let mut v: Vec<_> = it.into_iter().map(|a| (a.id, a.name.clone(), a.budget_micros, a.spent_micros)).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(
            advertisers(sut.registry.advertisers().collect()),
            advertisers(model.advertisers.values().collect())
        );
        prop_assert_eq!(
            sorted(sut.registry.campaigns().map(|c| (c.ad.0, *c))),
            sorted(model.campaigns.values().map(|c| (c.ad.0, *c)))
        );
        for ad in 0..16 {
            prop_assert_eq!(sut.registry.campaign(AdId(ad)), model.campaigns.get(&AdId(ad)));
        }
        for id in 0..7 {
            let id = AdvertiserId(id);
            prop_assert_eq!(sut.registry.advertiser(id), model.advertisers.get(&id));
        }
        prop_assert_eq!(sorted(sut.scorer.tallies().map(|(p, c, b)| (p, (c, b)))), sorted(model.tallies.iter().map(|(&p, &t)| (p, t))));
    }
}
