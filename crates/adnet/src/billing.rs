//! The charging pipeline: detector verdict → billing outcome.

use crate::entities::Registry;
use cfd_core::MixMap;
use cfd_stream::{Click, PublisherId};
use cfd_windows::{DuplicateDetector, Verdict};
use serde::{Deserialize, Serialize};

/// What happened to one click in the billing pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClickOutcome {
    /// Valid click: the advertiser was charged `cpc_micros`.
    Charged {
        /// Amount charged, micro-units.
        cpc_micros: u64,
    },
    /// Flagged duplicate within the detection window: not charged
    /// (paper Definition 1).
    DuplicateBlocked,
    /// The advertiser's budget could not cover the click.
    BudgetExhausted,
    /// No campaign is registered for the clicked ad.
    UnknownAd,
}

impl ClickOutcome {
    /// `true` when the advertiser paid for this click.
    #[must_use]
    pub fn is_charged(&self) -> bool {
        matches!(self, ClickOutcome::Charged { .. })
    }
}

/// Per-publisher and global billing tallies.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Ledger {
    /// Clicks processed.
    pub clicks: u64,
    /// Clicks charged.
    pub charged: u64,
    /// Clicks blocked as duplicates.
    pub duplicates_blocked: u64,
    /// Clicks rejected for budget exhaustion.
    pub budget_rejections: u64,
    /// Clicks on unregistered ads.
    pub unknown_ads: u64,
    /// Total revenue (micro-units) credited to publishers.
    pub revenue_micros: u64,
    /// Revenue per publisher.
    pub per_publisher_micros: MixMap<u32, u64>,
}

impl Clone for Ledger {
    fn clone(&self) -> Self {
        Self {
            per_publisher_micros: self.per_publisher_micros.clone(),
            ..*self
        }
    }

    /// Reuses the per-publisher table, so a barrier copy allocates
    /// nothing once the table is as large as `source`'s.
    fn clone_from(&mut self, source: &Self) {
        let mut per_publisher_micros = std::mem::take(&mut self.per_publisher_micros);
        per_publisher_micros.clone_from(&source.per_publisher_micros);
        *self = Self {
            per_publisher_micros,
            ..*source
        };
    }
}

impl Ledger {
    /// Revenue credited to one publisher.
    #[must_use]
    pub fn publisher_revenue(&self, p: PublisherId) -> u64 {
        self.per_publisher_micros.get(&p.0).copied().unwrap_or(0)
    }
}

/// Billing engine: detector + registry + ledger.
///
/// The detector is *pluggable* — exact oracle, GBF, TBF, or any other
/// [`DuplicateDetector`] — which is what the comparison benches exploit.
#[derive(Debug)]
pub struct BillingEngine<D> {
    detector: D,
    ledger: Ledger,
}

impl<D> BillingEngine<D> {
    /// Creates an engine around a detector.
    ///
    /// `detector` may be any type at all — engines that only ever settle
    /// precomputed verdicts via [`BillingEngine::process_judged`] (the
    /// pipeline's billing stage) pass `()`.
    #[must_use]
    pub fn new(detector: D) -> Self {
        Self {
            detector,
            ledger: Ledger::default(),
        }
    }

    /// Creates an engine that resumes from a carried ledger.
    ///
    /// The serve path runs the pipeline in checkpoint-delimited
    /// segments; each segment's billing stage picks up the ledger the
    /// previous segment (or a restored checkpoint) left off with, so
    /// the tallies across segments equal one continuous run.
    #[must_use]
    pub fn with_ledger(detector: D, ledger: Ledger) -> Self {
        Self { detector, ledger }
    }

    /// Settles one click whose fraud verdict was already computed
    /// elsewhere (e.g. by the pipeline's detector stage), charging
    /// budgets and crediting publisher revenue.
    ///
    /// The detector is *not* consulted: verdict computation and billing
    /// are decoupled so they can run on different threads.
    pub fn process_judged(
        &mut self,
        click: &Click,
        verdict: Verdict,
        registry: &mut Registry,
    ) -> ClickOutcome {
        self.settle_judged(click, verdict, registry).0
    }

    /// [`BillingEngine::process_judged`] that also returns the fraud
    /// savings of the click: its campaign's cpc when it is a blocked
    /// duplicate, else 0 — so the caller needs no second lookup.
    pub(crate) fn settle_judged(
        &mut self,
        click: &Click,
        verdict: Verdict,
        registry: &mut Registry,
    ) -> (ClickOutcome, u64) {
        self.ledger.clicks += 1;
        let Some(slot) = registry.campaign_slot(click.id.ad) else {
            self.ledger.unknown_ads += 1;
            return (ClickOutcome::UnknownAd, 0);
        };
        self.settle(click, slot, verdict, registry)
    }

    /// Shared billing tail: verdict → ledger/budget bookkeeping for the
    /// campaign in `slot`, returning the outcome and the savings.
    fn settle(
        &mut self,
        click: &Click,
        slot: usize,
        verdict: Verdict,
        registry: &mut Registry,
    ) -> (ClickOutcome, u64) {
        let (campaign, advertiser) = registry.charge_target(slot);
        let cpc_micros = campaign.cpc_micros;
        if verdict == Verdict::Duplicate {
            self.ledger.duplicates_blocked += 1;
            return (ClickOutcome::DuplicateBlocked, cpc_micros);
        }
        if !advertiser.try_charge(cpc_micros) {
            self.ledger.budget_rejections += 1;
            return (ClickOutcome::BudgetExhausted, 0);
        }
        self.ledger.charged += 1;
        self.ledger.revenue_micros += cpc_micros;
        *self
            .ledger
            .per_publisher_micros
            .entry(click.publisher.0)
            .or_insert(0) += cpc_micros;
        (ClickOutcome::Charged { cpc_micros }, 0)
    }

    /// The running ledger.
    #[must_use]
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Consumes the engine, returning the final ledger.
    #[must_use]
    pub fn into_ledger(self) -> Ledger {
        self.ledger
    }
}

impl<D: DuplicateDetector> BillingEngine<D> {
    /// Processes one click against `registry`, charging budgets and
    /// crediting publisher revenue.
    pub fn process(&mut self, click: &Click, registry: &mut Registry) -> ClickOutcome {
        self.ledger.clicks += 1;
        let Some(slot) = registry.campaign_slot(click.id.ad) else {
            self.ledger.unknown_ads += 1;
            return ClickOutcome::UnknownAd;
        };
        // One pass over the stream: the detector sees every click for a
        // registered ad, duplicates included, so its window semantics
        // match the oracle definitions exactly.
        let verdict = self.detector.observe(&click.key());
        self.settle(click, slot, verdict, registry).0
    }

    /// The wrapped detector (e.g. for op-counter inspection).
    #[must_use]
    pub fn detector(&self) -> &D {
        &self.detector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{Advertiser, AdvertiserId, Campaign};
    use cfd_stream::{AdId, Click, ClickId};
    use cfd_windows::ExactSlidingDedup;

    fn setup() -> (Registry, BillingEngine<ExactSlidingDedup>) {
        let mut r = Registry::new();
        r.add_advertiser(Advertiser::new(AdvertiserId(1), "acme", 1_000));
        r.add_campaign(Campaign {
            ad: AdId(7),
            advertiser: AdvertiserId(1),
            cpc_micros: 250,
        })
        .expect("advertiser registered");
        (r, BillingEngine::new(ExactSlidingDedup::new(100)))
    }

    fn click(ip: u32) -> Click {
        Click::new(ClickId::new(ip, 1, AdId(7)), 0, PublisherId(3), 250)
    }

    #[test]
    fn distinct_clicks_charge_until_budget_runs_out() {
        let (mut r, mut e) = setup();
        for ip in 0..4 {
            assert!(e.process(&click(ip), &mut r).is_charged());
        }
        // Budget 1000 / 250 cpc = 4 clicks.
        assert_eq!(e.process(&click(99), &mut r), ClickOutcome::BudgetExhausted);
        let l = e.ledger();
        assert_eq!(l.charged, 4);
        assert_eq!(l.revenue_micros, 1_000);
        assert_eq!(l.publisher_revenue(PublisherId(3)), 1_000);
        assert_eq!(l.budget_rejections, 1);
    }

    #[test]
    fn duplicates_are_not_charged() {
        let (mut r, mut e) = setup();
        assert!(e.process(&click(5), &mut r).is_charged());
        assert_eq!(e.process(&click(5), &mut r), ClickOutcome::DuplicateBlocked);
        assert_eq!(e.ledger().duplicates_blocked, 1);
        assert_eq!(
            r.advertiser(AdvertiserId(1)).expect("exists").spent_micros,
            250
        );
    }

    #[test]
    fn process_judged_settles_precomputed_verdicts_without_a_detector() {
        let (mut r, _) = setup();
        // A detector-less engine: verdicts come from elsewhere.
        let mut e = BillingEngine::new(());
        assert!(e
            .process_judged(&click(1), Verdict::Distinct, &mut r)
            .is_charged());
        assert_eq!(
            e.process_judged(&click(1), Verdict::Duplicate, &mut r),
            ClickOutcome::DuplicateBlocked
        );
        let stray = Click::new(ClickId::new(1, 1, AdId(999)), 0, PublisherId(3), 1);
        assert_eq!(
            e.process_judged(&stray, Verdict::Distinct, &mut r),
            ClickOutcome::UnknownAd
        );
        let l = e.ledger();
        assert_eq!(
            (l.clicks, l.charged, l.duplicates_blocked, l.unknown_ads),
            (3, 1, 1, 1)
        );
    }

    #[test]
    fn process_and_process_judged_agree_ledger_for_ledger() {
        let (mut ra, mut ea) = setup();
        let (mut rb, _) = setup();
        let mut oracle = ExactSlidingDedup::new(100);
        let mut eb = BillingEngine::new(());
        for ip in [1u32, 2, 1, 3, 2, 2, 4, 1] {
            let c = click(ip);
            let a = ea.process(&c, &mut ra);
            let v = oracle.observe(&c.key());
            let b = eb.process_judged(&c, v, &mut rb);
            assert_eq!(a, b);
        }
        assert_eq!(ea.ledger().clicks, eb.ledger().clicks);
        assert_eq!(ea.ledger().charged, eb.ledger().charged);
        assert_eq!(
            ea.ledger().duplicates_blocked,
            eb.ledger().duplicates_blocked
        );
        assert_eq!(ea.ledger().revenue_micros, eb.ledger().revenue_micros);
    }

    #[test]
    fn unknown_ads_are_ignored_by_detector_and_budget() {
        let (mut r, mut e) = setup();
        let stray = Click::new(ClickId::new(1, 1, AdId(999)), 0, PublisherId(3), 1);
        assert_eq!(e.process(&stray, &mut r), ClickOutcome::UnknownAd);
        assert_eq!(e.ledger().unknown_ads, 1);
        assert_eq!(e.ledger().revenue_micros, 0);
    }
}
