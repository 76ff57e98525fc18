//! Resource tiers: classes of cores hireable at a given price.
//!
//! "The cost function consists of tiers, representing a class of resources
//! that can be hired at a given price" (§III-A.2). The paper's evaluation
//! uses two: a capacity-limited private tier (624 cores at 5 CU/TU/core)
//! and an unbounded public tier (20–110 CU/TU/core).

/// The private tier's core cost, CU/TU (Table III: 5).
pub const PRIVATE_CORE_COST: f64 = 5.0;

/// The private tier's capacity, cores (§IV-A: 624).
pub const PRIVATE_CAPACITY_CORES: u32 = 624;

/// How a tier's cores are billed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BillingMode {
    /// Pay-as-you-go: cores cost money from hire to release (public
    /// clouds).
    HiredTime,
    /// Usage-metered: cores cost money only while running tasks — the
    /// paper's private tier, whose cost represents "depreciation of the
    /// owned machines or an internal incentive for fair sharing" (§IV-A).
    BusyTime,
}

/// Identifies a tier within a [`TierCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(pub usize);

impl TierId {
    /// The private tier: first in every hybrid catalogue
    /// ([`TierCatalog::paper_hybrid`], `ScanConfig::tier_catalog`).
    pub const PRIVATE: TierId = TierId(0);
    /// The public tier: second in every hybrid catalogue.
    pub const PUBLIC: TierId = TierId(1);
}

/// One class of hireable resources.
#[derive(Debug, Clone, PartialEq)]
pub struct Tier {
    /// Human-readable name.
    pub name: String,
    /// Cost in cost units per core per time unit.
    pub cost_per_core_tu: f64,
    /// Total cores available, or `None` for an effectively unbounded tier
    /// (the public cloud).
    pub capacity_cores: Option<u32>,
    /// How this tier's cores are billed.
    pub billing: BillingMode,
}

impl Tier {
    /// The paper's private tier: [`PRIVATE_CAPACITY_CORES`] cores at
    /// [`PRIVATE_CORE_COST`], billed while busy.
    pub fn paper_private() -> Tier {
        Tier {
            name: "private".into(),
            cost_per_core_tu: PRIVATE_CORE_COST,
            capacity_cores: Some(PRIVATE_CAPACITY_CORES),
            billing: BillingMode::BusyTime,
        }
    }

    /// The paper's public tier at the given price (Table I varies it over
    /// 20, 50, 80, 110 CU/TU).
    pub fn paper_public(cost_per_core_tu: f64) -> Tier {
        Tier {
            name: "public".into(),
            cost_per_core_tu,
            capacity_cores: None,
            billing: BillingMode::HiredTime,
        }
    }
}

/// An ordered list of tiers, cheapest-preferred by convention.
#[derive(Debug, Clone, PartialEq)]
pub struct TierCatalog {
    tiers: Vec<Tier>,
}

impl TierCatalog {
    /// Builds a catalogue; order is preference order for hiring.
    ///
    /// # Panics
    /// Panics on an empty list or non-positive prices.
    pub fn new(tiers: Vec<Tier>) -> Self {
        assert!(!tiers.is_empty(), "at least one tier is required");
        for t in &tiers {
            assert!(
                t.cost_per_core_tu > 0.0 && t.cost_per_core_tu.is_finite(),
                "tier '{}' must have a positive finite price",
                t.name
            );
        }
        TierCatalog { tiers }
    }

    /// The paper's two-tier hybrid at a given public price:
    /// [`TierId::PRIVATE`] then [`TierId::PUBLIC`].
    pub fn paper_hybrid(public_cost: f64) -> Self {
        TierCatalog::new(vec![Tier::paper_private(), Tier::paper_public(public_cost)])
    }

    /// Number of tiers.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// True if the catalogue is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// The tier with the given id.
    #[inline]
    pub fn get(&self, id: TierId) -> &Tier {
        &self.tiers[id.0]
    }

    /// Iterates `(TierId, &Tier)` in preference order.
    pub fn iter(&self) -> impl Iterator<Item = (TierId, &Tier)> {
        self.tiers.iter().enumerate().map(|(i, t)| (TierId(i), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_hybrid_matches_table_iii() {
        let cat = TierCatalog::paper_hybrid(50.0);
        assert_eq!(cat.len(), 2);
        let private = cat.get(TierId::PRIVATE);
        assert_eq!(private.cost_per_core_tu, 5.0);
        assert_eq!(private.capacity_cores, Some(624));
        let public = cat.get(TierId::PUBLIC);
        assert_eq!(public.cost_per_core_tu, 50.0);
        assert_eq!(public.capacity_cores, None);
    }

    #[test]
    fn iteration_order_is_preference_order() {
        let cat = TierCatalog::paper_hybrid(20.0);
        let names: Vec<&str> = cat.iter().map(|(_, t)| t.name.as_str()).collect();
        assert_eq!(names, vec!["private", "public"]);
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_catalog_rejected() {
        TierCatalog::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive finite price")]
    fn free_tier_rejected() {
        TierCatalog::new(vec![Tier {
            name: "free".into(),
            cost_per_core_tu: 0.0,
            capacity_cores: None,
            billing: BillingMode::HiredTime,
        }]);
    }
}
