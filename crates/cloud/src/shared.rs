//! Shared provider capacity for multi-tenant fleets.
//!
//! A fleet run puts N tenant platforms on *one* provider: the private
//! tier's cores are a single finite pool arbitrated across tenants, and
//! the public tier's on-demand price surges with fleet-wide contention.
//! [`SharedCapacity`] is that arbiter — a small ledger of who holds how
//! many shared private cores and how many public cores the whole fleet
//! has on hire. Each tenant's [`CloudProvider`] holds a
//! [`SharedLease`] (an `Rc<RefCell<…>>` clone; sessions are
//! single-threaded) and consults it on every hire, release and price
//! quote.
//!
//! Single-tenant sessions never attach a lease, so their capacity checks
//! and billing arithmetic are byte-for-byte the pre-fleet code paths.
//!
//! The ledger also keeps a *watch list*: a parked tenant registers the
//! pool state that would change its next decision ("at least `n` private
//! cores free", "the surge multiplier below `m`"), and the release
//! that crosses a threshold moves the tenant onto the woken list, which
//! the fleet drains after every event. A change costs time in proportion
//! to the tenants it wakes, not to the tenant count.
//!
//! [`CloudProvider`]: crate::CloudProvider

use scan_sim::TenantId;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Contention-sensitive on-demand pricing for the shared public tier.
///
/// The quoted price is `base × (1 + factor × hired/per_cores)`: the more
/// public cores the fleet holds, the more the next core costs — a linear
/// stand-in for spot-market pressure. The multiplier is sampled at hire
/// time and locked into the VM for its whole life (on-demand instances
/// keep their launch price).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurgePricing {
    /// Price increase per `per_cores` public cores on hire fleet-wide.
    pub factor: f64,
    /// Core-count granularity of the surge.
    pub per_cores: f64,
}

impl SurgePricing {
    /// No surge: the public price is flat regardless of contention.
    pub const FLAT: SurgePricing = SurgePricing { factor: 0.0, per_cores: 1.0 };
}

/// The fleet-wide capacity ledger one provider pool shares across
/// tenants.
#[derive(Debug, Clone)]
pub struct SharedCapacity {
    /// Total private cores in the shared pool.
    private_cores: u32,
    /// Private cores currently reserved, per tenant.
    used_by_tenant: Vec<u32>,
    /// Private cores currently reserved, fleet-wide.
    used_total: u32,
    /// High-water mark of `used_total`.
    peak_used: u32,
    /// Public cores currently on hire, fleet-wide (drives the surge).
    public_cores: u32,
    surge: SurgePricing,
    /// Each tenant's registered [`Watch`], by tenant index.
    watches: Vec<Watch>,
    /// `(free private cores wanted, tenant)` of every private watch.
    private_watch: BTreeSet<(u32, u16)>,
    /// `(bits of the multiplier to fall below, tenant)` of every surge
    /// watch (positive floats order like their bits).
    surge_watch: BTreeSet<(u64, u16)>,
    /// Tenants a threshold crossing has woken, in wake order; their
    /// watches are cleared.
    woken: Vec<TenantId>,
}

/// The pool changes one parked tenant waits for. Either threshold, once
/// crossed by a release, wakes the tenant and clears its whole watch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Watch {
    /// Wake once at least this many private cores are free.
    pub private_free_at_least: Option<u32>,
    /// Wake once the public price multiplier falls below this (> 0).
    pub surge_below: Option<f64>,
}

impl SharedCapacity {
    /// A shared pool of `private_cores` across `tenants` tenants.
    ///
    /// # Panics
    /// Panics if `tenants` is zero.
    pub fn new(private_cores: u32, tenants: usize, surge: SurgePricing) -> Self {
        assert!(tenants > 0, "a shared pool needs at least one tenant");
        SharedCapacity {
            private_cores,
            used_by_tenant: vec![0; tenants],
            used_total: 0,
            peak_used: 0,
            public_cores: 0,
            surge,
            watches: vec![Watch::default(); tenants],
            private_watch: BTreeSet::new(),
            surge_watch: BTreeSet::new(),
            woken: Vec::new(),
        }
    }

    /// Wraps the pool in the handle tenants clone.
    pub fn into_lease(self) -> SharedLease {
        Rc::new(RefCell::new(self))
    }

    /// Total private cores in the pool.
    pub fn private_cores(&self) -> u32 {
        self.private_cores
    }

    /// Private cores not currently reserved by any tenant.
    pub fn free_private(&self) -> u32 {
        self.private_cores - self.used_total
    }

    /// Private cores `tenant` currently holds.
    pub fn used_by(&self, tenant: TenantId) -> u32 {
        self.used_by_tenant[tenant.index()]
    }

    /// Number of tenants sharing the pool.
    pub fn tenants(&self) -> usize {
        self.used_by_tenant.len()
    }

    /// Each tenant's fair share of the private pool (floor division; the
    /// remainder is first-come-first-served headroom).
    pub fn fair_share(&self) -> u32 {
        self.private_cores / self.used_by_tenant.len() as u32
    }

    /// High-water mark of fleet-wide private reservation.
    pub fn peak_used(&self) -> u32 {
        self.peak_used
    }

    /// Public cores the fleet currently has on hire.
    pub fn public_cores(&self) -> u32 {
        self.public_cores
    }

    /// Attempts to reserve `cores` private cores for `tenant`; false if
    /// the pool cannot cover them.
    pub fn try_reserve_private(&mut self, tenant: TenantId, cores: u32) -> bool {
        if self.free_private() < cores {
            return false;
        }
        self.used_by_tenant[tenant.index()] += cores;
        self.used_total += cores;
        self.peak_used = self.peak_used.max(self.used_total);
        true
    }

    /// Returns `cores` private cores from `tenant` to the pool.
    ///
    /// # Panics
    /// Panics if `tenant` does not hold that many cores.
    pub fn release_private(&mut self, tenant: TenantId, cores: u32) {
        assert!(
            self.used_by_tenant[tenant.index()] >= cores,
            "tenant {tenant} releasing {cores} shared cores but holds {}",
            self.used_by_tenant[tenant.index()]
        );
        self.used_by_tenant[tenant.index()] -= cores;
        self.used_total -= cores;
        let free = self.free_private();
        while let Some(&(want, t)) = self.private_watch.first() {
            if want > free {
                break;
            }
            self.wake(TenantId(t));
        }
    }

    /// Records `cores` public cores coming on hire fleet-wide.
    pub fn add_public(&mut self, cores: u32) {
        self.public_cores += cores;
    }

    /// Records `cores` public cores leaving hire fleet-wide.
    pub fn remove_public(&mut self, cores: u32) {
        debug_assert!(self.public_cores >= cores);
        self.public_cores = self.public_cores.saturating_sub(cores);
        let multiplier = self.public_price_multiplier();
        while let Some(&(below, t)) = self.surge_watch.last() {
            if multiplier >= f64::from_bits(below) {
                break;
            }
            self.wake(TenantId(t));
        }
    }

    /// The current on-demand price multiplier for the public tier, given
    /// fleet-wide contention (≥ 1.0; exactly 1.0 under [`SurgePricing::FLAT`]).
    pub fn public_price_multiplier(&self) -> f64 {
        1.0 + self.surge.factor * (self.public_cores as f64 / self.surge.per_cores)
    }

    /// Widens `tenant`'s watch to cover `watch` too: the tenant is woken
    /// at the first release that crosses any threshold it has
    /// registered since it was last woken. A stale threshold can only
    /// wake it early, which costs it one look; re-registering what is
    /// already covered touches nothing.
    pub fn watch(&mut self, tenant: TenantId, watch: Watch) {
        let old = self.watches[tenant.index()];
        let widened = Watch {
            private_free_at_least: widen(
                old.private_free_at_least,
                watch.private_free_at_least,
                u32::min,
            ),
            surge_below: widen(old.surge_below, watch.surge_below, f64::max),
        };
        if widened != old {
            self.set_watch(tenant, widened);
        }
    }

    /// Replaces `tenant`'s watch.
    fn set_watch(&mut self, tenant: TenantId, watch: Watch) {
        let old = std::mem::replace(&mut self.watches[tenant.index()], watch);
        if let Some(n) = old.private_free_at_least {
            self.private_watch.remove(&(n, tenant.0));
        }
        if let Some(m) = old.surge_below {
            self.surge_watch.remove(&(m.to_bits(), tenant.0));
        }
        if let Some(n) = watch.private_free_at_least {
            self.private_watch.insert((n, tenant.0));
        }
        if let Some(m) = watch.surge_below {
            debug_assert!(m > 0.0, "surge thresholds are positive");
            self.surge_watch.insert((m.to_bits(), tenant.0));
        }
    }

    /// Clears `tenant`'s watch and puts it on the woken list.
    fn wake(&mut self, tenant: TenantId) {
        self.set_watch(tenant, Watch::default());
        self.woken.push(tenant);
    }

    /// Moves the woken tenants, in wake order, into `out` (cleared first).
    pub fn drain_woken(&mut self, out: &mut Vec<TenantId>) {
        out.clear();
        out.append(&mut self.woken);
    }
}

/// The looser of two optional thresholds (`looser` picks between two).
fn widen<T: Copy>(a: Option<T>, b: Option<T>, looser: fn(T, T) -> T) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(looser(a, b)),
        (a, b) => a.or(b),
    }
}

/// The handle each tenant's provider holds on the shared pool. Sessions
/// are single-threaded (parallelism lives across fleet replications), so
/// a plain `Rc<RefCell<…>>` suffices.
pub type SharedLease = Rc<RefCell<SharedCapacity>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_is_arbitrated_across_tenants() {
        let mut pool = SharedCapacity::new(10, 2, SurgePricing::FLAT);
        assert!(pool.try_reserve_private(TenantId(0), 6));
        assert!(!pool.try_reserve_private(TenantId(1), 6), "only 4 left");
        assert!(pool.try_reserve_private(TenantId(1), 4));
        assert_eq!(pool.free_private(), 0);
        assert_eq!(pool.used_by(TenantId(0)), 6);
        assert_eq!(pool.peak_used(), 10);
        pool.release_private(TenantId(0), 6);
        assert_eq!(pool.free_private(), 6);
        assert_eq!(pool.peak_used(), 10, "peak is a high-water mark");
    }

    #[test]
    fn fair_share_is_floor_division() {
        let pool = SharedCapacity::new(10, 3, SurgePricing::FLAT);
        assert_eq!(pool.fair_share(), 3);
        assert_eq!(pool.tenants(), 3);
    }

    #[test]
    fn surge_multiplier_tracks_public_cores() {
        let mut pool = SharedCapacity::new(0, 1, SurgePricing { factor: 0.5, per_cores: 100.0 });
        assert_eq!(pool.public_price_multiplier(), 1.0);
        pool.add_public(200);
        assert!((pool.public_price_multiplier() - 2.0).abs() < 1e-12);
        pool.remove_public(100);
        assert!((pool.public_price_multiplier() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn releases_wake_only_the_tenants_whose_threshold_they_cross() {
        let mut pool = SharedCapacity::new(8, 4, SurgePricing { factor: 1.0, per_cores: 4.0 });
        assert!(pool.try_reserve_private(TenantId(0), 8));
        pool.add_public(12);
        let private = |n| Watch { private_free_at_least: Some(n), surge_below: None };
        pool.watch(TenantId(1), private(4));
        pool.watch(TenantId(2), private(1));
        // 12 public cores at 1 + n/4: the multiplier is 4.0, and falls
        // below 3.0 under 8 cores.
        pool.watch(TenantId(3), Watch { private_free_at_least: None, surge_below: Some(3.0) });
        // A tighter private threshold adds nothing to a looser one.
        pool.watch(TenantId(2), private(6));
        let mut woken = Vec::new();
        pool.release_private(TenantId(0), 2);
        pool.drain_woken(&mut woken);
        assert_eq!(woken, vec![TenantId(2)], "2 free cores wake only the 1-core watch");
        pool.release_private(TenantId(0), 2);
        pool.remove_public(4);
        pool.drain_woken(&mut woken);
        assert_eq!(woken, vec![TenantId(1)], "a multiplier of 3.0 is not below 3.0");
        pool.remove_public(1);
        pool.release_private(TenantId(0), 4);
        pool.drain_woken(&mut woken);
        assert_eq!(woken, vec![TenantId(3)], "woken tenants are unwatched until they re-register");
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut pool = SharedCapacity::new(10, 1, SurgePricing::FLAT);
        pool.release_private(TenantId(0), 1);
    }
}
