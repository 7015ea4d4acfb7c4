//! Advertisers, campaigns, and the registry binding ads to both.

use cfd_core::MixMap;
use cfd_stream::AdId;
use serde::{Deserialize, Serialize};

/// An advertiser account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AdvertiserId(pub u32);

/// An advertiser with a spending budget.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Advertiser {
    /// Account id.
    pub id: AdvertiserId,
    /// Display name.
    pub name: String,
    /// Total budget in micro-currency units.
    pub budget_micros: u64,
    /// Amount spent so far.
    pub spent_micros: u64,
}

impl Advertiser {
    /// Creates an advertiser with a budget.
    #[must_use]
    pub fn new(id: AdvertiserId, name: impl Into<String>, budget_micros: u64) -> Self {
        Self {
            id,
            name: name.into(),
            budget_micros,
            spent_micros: 0,
        }
    }

    /// Remaining budget.
    #[must_use]
    pub fn remaining_micros(&self) -> u64 {
        self.budget_micros.saturating_sub(self.spent_micros)
    }

    /// Attempts to charge `amount`; returns `false` (and charges nothing)
    /// if the remaining budget is insufficient.
    pub fn try_charge(&mut self, amount: u64) -> bool {
        if self.remaining_micros() >= amount {
            self.spent_micros += amount;
            true
        } else {
            false
        }
    }

    /// Refunds `amount` (capped at the amount spent), returning the
    /// refunded value. Used by fraud-audit settlements (§1.1's
    /// "credit refund to advertisers who claim click fraud").
    pub fn refund(&mut self, amount: u64) -> u64 {
        let refunded = amount.min(self.spent_micros);
        self.spent_micros -= refunded;
        refunded
    }
}

impl Clone for Advertiser {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            ..*self
        }
    }

    /// Reuses the name's buffer, so a barrier copy allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        let mut name = std::mem::take(&mut self.name);
        name.clone_from(&source.name);
        *self = Self { name, ..*source };
    }
}

/// A pay-per-click campaign: one ad link owned by one advertiser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Campaign {
    /// The ad link being bid on.
    pub ad: AdId,
    /// The advertiser paying for clicks.
    pub advertiser: AdvertiserId,
    /// Cost per (valid) click, micro-units.
    pub cpc_micros: u64,
}

/// The network's directory of advertisers and campaigns.
///
/// Registration gives every advertiser and campaign a dense slot, and
/// each campaign keeps its advertiser's slot. Settling a click therefore
/// costs one [`MixMap`] lookup (ad → campaign slot) and two `Vec`
/// indexings; re-registering an id replaces the entry in its slot.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct Registry {
    advertisers: Vec<Advertiser>,
    advertiser_slots: MixMap<AdvertiserId, usize>,
    /// Each campaign with its advertiser's slot.
    campaigns: Vec<(Campaign, usize)>,
    campaign_slots: MixMap<AdId, usize>,
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Self {
            advertisers: self.advertisers.clone(),
            advertiser_slots: self.advertiser_slots.clone(),
            campaigns: self.campaigns.clone(),
            campaign_slots: self.campaign_slots.clone(),
        }
    }

    /// Copies into this registry's buffers: allocation-free once they
    /// have held a registry as large as `source`.
    fn clone_from(&mut self, source: &Self) {
        self.advertisers.clone_from(&source.advertisers);
        self.advertiser_slots.clone_from(&source.advertiser_slots);
        self.campaigns.clone_from(&source.campaigns);
        self.campaign_slots.clone_from(&source.campaign_slots);
    }
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an advertiser, replacing any previous entry.
    pub fn add_advertiser(&mut self, advertiser: Advertiser) {
        match self.advertiser_slots.get(&advertiser.id) {
            Some(&slot) => self.advertisers[slot] = advertiser,
            None => {
                self.advertiser_slots
                    .insert(advertiser.id, self.advertisers.len());
                self.advertisers.push(advertiser);
            }
        }
    }

    /// Registers a campaign, replacing any previous campaign of its ad.
    ///
    /// # Errors
    ///
    /// Returns the campaign if its advertiser is unknown.
    pub fn add_campaign(&mut self, campaign: Campaign) -> Result<(), Campaign> {
        let Some(&advertiser) = self.advertiser_slots.get(&campaign.advertiser) else {
            return Err(campaign);
        };
        match self.campaign_slots.get(&campaign.ad) {
            Some(&slot) => self.campaigns[slot] = (campaign, advertiser),
            None => {
                self.campaign_slots
                    .insert(campaign.ad, self.campaigns.len());
                self.campaigns.push((campaign, advertiser));
            }
        }
        Ok(())
    }

    /// Looks up the campaign for an ad link.
    #[must_use]
    pub fn campaign(&self, ad: AdId) -> Option<&Campaign> {
        self.campaign_slot(ad).map(|slot| &self.campaigns[slot].0)
    }

    /// The slot of `ad`'s campaign: the one lookup a settled click makes.
    pub(crate) fn campaign_slot(&self, ad: AdId) -> Option<usize> {
        self.campaign_slots.get(&ad).copied()
    }

    /// The campaign in `slot` and its advertiser, for charging.
    pub(crate) fn charge_target(&mut self, slot: usize) -> (&Campaign, &mut Advertiser) {
        let (campaign, advertiser) = &self.campaigns[slot];
        (campaign, &mut self.advertisers[*advertiser])
    }

    /// The advertiser in registration slot `slot` (see
    /// [`Registry::advertisers`]).
    pub(crate) fn advertiser_in(&self, slot: usize) -> &Advertiser {
        &self.advertisers[slot]
    }

    /// The campaign in registration slot `slot` (see
    /// [`Registry::campaigns`]).
    pub(crate) fn campaign_in(&self, slot: usize) -> &Campaign {
        &self.campaigns[slot].0
    }

    /// Immutable advertiser access.
    #[must_use]
    pub fn advertiser(&self, id: AdvertiserId) -> Option<&Advertiser> {
        let slot = *self.advertiser_slots.get(&id)?;
        Some(&self.advertisers[slot])
    }

    /// Mutable advertiser access (budget charging).
    pub fn advertiser_mut(&mut self, id: AdvertiserId) -> Option<&mut Advertiser> {
        let slot = *self.advertiser_slots.get(&id)?;
        Some(&mut self.advertisers[slot])
    }

    /// Number of registered advertisers.
    #[must_use]
    pub fn advertiser_count(&self) -> usize {
        self.advertisers.len()
    }

    /// Number of registered campaigns.
    #[must_use]
    pub fn campaign_count(&self) -> usize {
        self.campaigns.len()
    }

    /// Iterates advertisers in registration order.
    pub fn advertisers(&self) -> impl Iterator<Item = &Advertiser> {
        self.advertisers.iter()
    }

    /// Iterates campaigns in registration order — the serve checkpoint
    /// writer sorts them by ad for its encoding.
    pub fn campaigns(&self) -> impl Iterator<Item = &Campaign> {
        self.campaigns.iter().map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_respects_budget() {
        let mut a = Advertiser::new(AdvertiserId(1), "acme", 1_000);
        assert!(a.try_charge(600));
        assert!(!a.try_charge(600), "over-budget charge must fail");
        assert_eq!(a.remaining_micros(), 400);
        assert!(a.try_charge(400));
        assert_eq!(a.remaining_micros(), 0);
    }

    #[test]
    fn refund_caps_at_spent() {
        let mut a = Advertiser::new(AdvertiserId(1), "acme", 1_000);
        a.try_charge(300);
        assert_eq!(a.refund(500), 300);
        assert_eq!(a.spent_micros, 0);
    }

    #[test]
    fn campaign_requires_known_advertiser() {
        let mut r = Registry::new();
        let c = Campaign {
            ad: AdId(1),
            advertiser: AdvertiserId(9),
            cpc_micros: 100,
        };
        assert_eq!(r.add_campaign(c), Err(c));
        r.add_advertiser(Advertiser::new(AdvertiserId(9), "n", 10));
        assert!(r.add_campaign(c).is_ok());
        assert_eq!(r.campaign(AdId(1)), Some(&c));
        assert_eq!(r.campaign_count(), 1);
        assert_eq!(r.advertiser_count(), 1);
    }

    #[test]
    fn re_registering_replaces_in_place() {
        let mut r = Registry::new();
        r.add_advertiser(Advertiser::new(AdvertiserId(1), "a", 1_000));
        r.add_advertiser(Advertiser::new(AdvertiserId(2), "b", 1_000));
        let c = Campaign {
            ad: AdId(5),
            advertiser: AdvertiserId(1),
            cpc_micros: 100,
        };
        r.add_campaign(c).expect("known advertiser");
        let slot = r.campaign_slot(AdId(5)).expect("registered");
        assert!(r.charge_target(slot).1.try_charge(100));
        // A replaced advertiser starts from its new record, and the
        // campaign charges it through the same slot.
        r.add_advertiser(Advertiser::new(AdvertiserId(1), "a2", 50));
        assert_eq!(r.advertiser(AdvertiserId(1)).expect("kept").spent_micros, 0);
        assert_eq!(r.charge_target(slot).1.name, "a2");
        // A replaced campaign moves to its new advertiser and price.
        let moved = Campaign {
            advertiser: AdvertiserId(2),
            cpc_micros: 7,
            ..c
        };
        r.add_campaign(moved).expect("known advertiser");
        assert_eq!(r.campaign_slot(AdId(5)), Some(slot));
        let (campaign, advertiser) = r.charge_target(slot);
        assert_eq!((*campaign, advertiser.id), (moved, AdvertiserId(2)));
        assert_eq!((r.advertiser_count(), r.campaign_count()), (2, 1));
    }

    #[test]
    fn registry_lookup_misses_cleanly() {
        let r = Registry::new();
        assert!(r.campaign(AdId(5)).is_none());
        assert!(r.advertiser(AdvertiserId(5)).is_none());
    }
}
