//! The provisioner: hiring, releasing and reshaping VMs against tier
//! capacity — the piece of CELAR the SCAN Scheduler "issues scaling
//! commands" to (§III-B).

use crate::instance::{InstanceSize, INSTANCE_SIZES};
use crate::shared::SharedLease;
use crate::tier::{BillingMode, TierCatalog, TierId};
use crate::vm::{Vm, VmId, VmKey, VmState};
use scan_sim::{SimDuration, SimTime, SlotArena, TenantId, TraceEvent, Tracer};
use std::fmt;

/// A live VM and its billing terms: one slot of the provider's arena.
#[derive(Debug, Clone)]
struct Hired {
    vm: Vm,
    billing: Billing,
}

/// One VM's billing terms.
#[derive(Debug, Clone, Copy)]
struct Billing {
    /// Price per core·TU captured at hire time. For a solo provider this
    /// is always the catalogue price; under a shared lease the public
    /// tier's surge multiplier is folded in at hire, and the VM keeps its
    /// launch price for life.
    price_per_core_tu: f64,
    /// Billed span already settled at an earlier size: a reshape settles
    /// what the VM accrued at its old size, and only the span after it is
    /// billed at the new size.
    billed_from: SimDuration,
    /// Hired span already settled at an earlier size (for core·TU).
    hired_from: SimDuration,
}

/// Why a hire request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HireError {
    /// Every allowed tier is at capacity.
    NoCapacity,
}

impl fmt::Display for HireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HireError::NoCapacity => write!(f, "no tier has capacity for the requested cores"),
        }
    }
}

impl std::error::Error for HireError {}

/// The simulated cloud provider.
///
/// VM records live in a [`SlotArena`] addressed by [`VmKey`]: a release
/// frees its slot for the next hire, so the table is as long as the most
/// VMs ever live at once, and `vm`/`vm_mut` are a bounds check, a
/// pointer add and an id compare. Ids are hire ordinals and never
/// reused; a separate ascending `live` list keeps iteration over the
/// live VMs in deterministic id order.
#[derive(Debug, Clone)]
pub struct CloudProvider {
    catalog: TierCatalog,
    /// Live VMs with their billing terms, one per slot.
    vms: SlotArena<Hired>,
    /// Live (not yet released) VM keys, ascending by id. Hires append
    /// (ids are monotone); releases splice out — live counts are small,
    /// so the memmove beats tree rebalancing.
    live: Vec<VmKey>,
    /// Live VMs per instance size, in `INSTANCE_SIZES` order.
    live_by_size: [u32; INSTANCE_SIZES.len()],
    cores_in_use: Vec<u32>, // per tier
    /// Cost already settled: released VMs, plus what reshaped VMs
    /// accrued at their earlier sizes (live VMs are integrated on demand
    /// from their last settlement).
    settled_cost: f64,
    /// The same settled cost broken out per tier (for end-of-run
    /// settlement events).
    settled_cost_by_tier: Vec<f64>,
    /// Core·TU settled the same way, per tier.
    settled_core_tu_by_tier: Vec<f64>,
    /// VMs ever hired: the next hire's id.
    hired_total: u64,
    /// Fleet mode: the shared capacity pool and this provider's tenant
    /// identity within it. `None` for single-tenant sessions, whose
    /// capacity checks and billing are exactly the pre-fleet arithmetic.
    lease: Option<(SharedLease, TenantId)>,
    /// Lifecycle event sink (disabled by default; see [`Tracer`]).
    tracer: Tracer,
}

impl CloudProvider {
    /// Creates a provider over a tier catalogue.
    pub fn new(catalog: TierCatalog) -> Self {
        let n = catalog.len();
        CloudProvider {
            catalog,
            vms: SlotArena::new(),
            live: Vec::new(),
            live_by_size: [0; INSTANCE_SIZES.len()],
            cores_in_use: vec![0; n],
            settled_cost: 0.0,
            settled_cost_by_tier: vec![0.0; n],
            settled_core_tu_by_tier: vec![0.0; n],
            hired_total: 0,
            lease: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Puts this provider on a shared capacity pool as `tenant`: hires on
    /// capacity-bounded tiers reserve from the pool (arbitrated across
    /// all leaseholders), and unbounded tiers are priced with the pool's
    /// contention-sensitive surge multiplier at hire time.
    pub fn attach_shared(&mut self, lease: SharedLease, tenant: TenantId) {
        self.lease = Some((lease, tenant));
    }

    /// The tenant identity under the shared lease ([`TenantId::SOLO`]
    /// when unleased).
    pub fn tenant(&self) -> TenantId {
        self.lease.as_ref().map_or(TenantId::SOLO, |(_, t)| *t)
    }

    /// The shared pool this provider draws from, if any.
    pub fn shared(&self) -> Option<&SharedLease> {
        self.lease.as_ref().map(|(l, _)| l)
    }

    /// Routes VM lifecycle events (hire / reshape / release) to `tracer`'s
    /// observers. The provider emits; it never reads the trace.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tier catalogue.
    pub fn catalog(&self) -> &TierCatalog {
        &self.catalog
    }

    /// Cores currently allocated on a tier.
    pub fn cores_in_use(&self, tier: TierId) -> u32 {
        self.cores_in_use[tier.0]
    }

    /// Free cores on a tier (`u32::MAX` for unbounded tiers). Under a
    /// shared lease a bounded tier is additionally capped by what is left
    /// in the shared pool, so the answer already reflects other tenants'
    /// reservations.
    pub fn free_cores(&self, tier: TierId) -> u32 {
        match self.catalog.get(tier).capacity_cores {
            Some(cap) => {
                let local = cap.saturating_sub(self.cores_in_use[tier.0]);
                match &self.lease {
                    Some((lease, _)) => local.min(lease.borrow().free_private()),
                    None => local,
                }
            }
            None => u32::MAX,
        }
    }

    /// Whether a hire of `size` could succeed on `tier` right now.
    pub fn has_capacity(&self, tier: TierId, size: InstanceSize) -> bool {
        self.free_cores(tier) >= size.cores()
    }

    /// The cheapest tier (in catalogue preference order) that can host
    /// `size` right now.
    pub fn cheapest_available_tier(&self, size: InstanceSize) -> Option<TierId> {
        self.catalog.iter().map(|(id, _)| id).find(|&id| self.has_capacity(id, size))
    }

    /// Hires a VM of `size` on the preferred tier (private first); it
    /// starts booting at `now`. Returns the new VM's key and ready time.
    pub fn hire(
        &mut self,
        size: InstanceSize,
        now: SimTime,
    ) -> Result<(VmKey, SimTime), HireError> {
        let tier = self.cheapest_available_tier(size).ok_or(HireError::NoCapacity)?;
        self.hire_on(tier, size, now)
    }

    /// Hires on a specific tier.
    pub fn hire_on(
        &mut self,
        tier: TierId,
        size: InstanceSize,
        now: SimTime,
    ) -> Result<(VmKey, SimTime), HireError> {
        if !self.has_capacity(tier, size) {
            return Err(HireError::NoCapacity);
        }
        let bounded = self.catalog.get(tier).capacity_cores.is_some();
        let base_price = self.catalog.get(tier).cost_per_core_tu;
        let price = match &self.lease {
            Some((lease, tenant)) => {
                let mut pool = lease.borrow_mut();
                if bounded {
                    if !pool.try_reserve_private(*tenant, size.cores()) {
                        return Err(HireError::NoCapacity);
                    }
                    base_price
                } else {
                    // Lock the contention-priced launch rate in before
                    // this hire raises the pressure.
                    let quoted = base_price * pool.public_price_multiplier();
                    pool.add_public(size.cores());
                    quoted
                }
            }
            None => base_price,
        };
        let id = VmId(u32::try_from(self.hired_total).expect("fewer than 2^32 hires"));
        let vm = Vm::hire(id, tier, size, now);
        let ready_at = match vm.state {
            VmState::Booting { ready_at } => ready_at,
            _ => unreachable!("freshly hired VMs boot"),
        };
        self.cores_in_use[tier.0] += size.cores();
        self.hired_total += 1;
        let billing = Billing {
            price_per_core_tu: price,
            billed_from: SimDuration::ZERO,
            hired_from: SimDuration::ZERO,
        };
        let key = VmKey { id, slot: self.vms.insert(Hired { vm, billing }) };
        self.live.push(key);
        self.live_by_size[size_slot(size)] += 1;
        self.tracer.emit(
            now,
            TraceEvent::VmHired { vm: id.0 as u64, tier: tier.0 as u32, cores: size.cores() },
        );
        Ok((key, ready_at))
    }

    /// Releases a VM: its cores return to the tier and its cost is
    /// settled.
    ///
    /// # Panics
    /// Panics on an unknown or released key, or a busy VM.
    pub fn release(&mut self, key: VmKey, now: SimTime) {
        self.vm_mut(key).expect("release of unknown VM").release(now);
        self.settle(key.slot, now);
        let Hired { vm, .. } = self.vms.remove(key.slot).expect("resolved above");
        let cores = vm.size.cores();
        let tier = vm.tier;
        self.cores_in_use[tier.0] -= cores;
        if let Some((lease, tenant)) = &self.lease {
            let mut pool = lease.borrow_mut();
            if self.catalog.get(tier).capacity_cores.is_some() {
                pool.release_private(*tenant, cores);
            } else {
                pool.remove_public(cores);
            }
        }
        let pos = self.live.binary_search(&key).expect("released VM was live");
        self.live.remove(pos);
        self.live_by_size[size_slot(vm.size)] -= 1;
        self.tracer
            .emit(now, TraceEvent::VmReleased { vm: key.id.0 as u64, tier: tier.0 as u32, cores });
    }

    /// The span `vm` is billed for up to `now` under its tier's billing
    /// mode, from hire.
    fn billed_span(&self, vm: &Vm, now: SimTime) -> SimDuration {
        match self.catalog.get(vm.tier).billing {
            BillingMode::HiredTime => vm.hired_span(now),
            BillingMode::BusyTime => vm.busy_span(now),
        }
    }

    /// `(cost, core·TU)` that `vm` has accrued at its current size up to
    /// `now`: since its hire, or since the reshape that gave it this size.
    fn accrued(&self, hired: &Hired, now: SimTime) -> (f64, f64) {
        let (vm, b) = (&hired.vm, &hired.billing);
        let cores = vm.size.cores() as f64;
        let billed = self.billed_span(vm, now) - b.billed_from;
        let hired = vm.hired_span(now) - b.hired_from;
        (cores * b.price_per_core_tu * billed.as_tu(), cores * hired.as_tu())
    }

    /// Moves what the VM in `slot` accrued at its current size into the
    /// settled totals and restarts its accrual at `now`.
    fn settle(&mut self, slot: u32, now: SimTime) {
        let hired = self.vms.get(slot).expect("settling a live VM");
        let (cost, core_tu) = self.accrued(hired, now);
        let (tier, billed_from, hired_from) =
            (hired.vm.tier, self.billed_span(&hired.vm, now), hired.vm.hired_span(now));
        self.settled_cost += cost;
        self.settled_cost_by_tier[tier.0] += cost;
        self.settled_core_tu_by_tier[tier.0] += core_tu;
        let b = &mut self.vms.get_mut(slot).expect("settling a live VM").billing;
        b.billed_from = billed_from;
        b.hired_from = hired_from;
    }

    /// Reshapes an idle VM to `new_size` (paying the boot penalty).
    /// Capacity accounting moves with the size change, and billing too:
    /// the span up to `now` is settled at the old size, the span after it
    /// bills at the new one. Returns the ready time, or `Err` if the tier
    /// cannot absorb a size increase.
    pub fn reshape(
        &mut self,
        key: VmKey,
        new_size: InstanceSize,
        now: SimTime,
    ) -> Result<SimTime, HireError> {
        let vm = self.vm(key).expect("reshape of unknown VM");
        let old = vm.size.cores();
        let new = new_size.cores();
        let tier = vm.tier;
        let bounded = self.catalog.get(tier).capacity_cores.is_some();
        if new > old {
            let extra = new - old;
            let free = match self.catalog.get(tier).capacity_cores {
                Some(cap) => cap.saturating_sub(self.cores_in_use[tier.0]),
                None => u32::MAX,
            };
            if free < extra {
                return Err(HireError::NoCapacity);
            }
            if let Some((lease, tenant)) = &self.lease {
                if bounded && !lease.borrow_mut().try_reserve_private(*tenant, extra) {
                    return Err(HireError::NoCapacity);
                }
            }
        } else if new < old {
            if let Some((lease, tenant)) = &self.lease {
                if bounded {
                    lease.borrow_mut().release_private(*tenant, old - new);
                }
            }
        }
        self.settle(key.slot, now);
        let vm = self.vm_mut(key).expect("resolved above");
        let from = size_slot(vm.size);
        let ready = vm.reshape(new_size, now);
        self.live_by_size[from] -= 1;
        self.live_by_size[size_slot(new_size)] += 1;
        self.cores_in_use[tier.0] = self.cores_in_use[tier.0] + new - old;
        self.tracer.emit(
            now,
            TraceEvent::VmReshaped {
                vm: key.id.0 as u64,
                tier: tier.0 as u32,
                cores_from: old,
                cores_to: new,
            },
        );
        Ok(ready)
    }

    /// Access a VM. A released VM's key returns `None`, also once its
    /// slot holds a later hire.
    #[inline]
    pub fn vm(&self, key: VmKey) -> Option<&Vm> {
        self.vms.get(key.slot).map(|h| &h.vm).filter(|vm| vm.id == key.id)
    }

    /// Mutable access to a VM (to drive its task lifecycle).
    #[inline]
    pub fn vm_mut(&mut self, key: VmKey) -> Option<&mut Vm> {
        self.vms.get_mut(key.slot).map(|h| &mut h.vm).filter(|vm| vm.id == key.id)
    }

    /// Live VMs with their billing terms, in id order (deterministic).
    fn hired(&self) -> impl Iterator<Item = &Hired> {
        self.live.iter().map(|key| self.vms.get(key.slot).expect("live VM present"))
    }

    /// Iterates over live VMs in id order (deterministic).
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.hired().map(|h| &h.vm)
    }

    /// Slots of the VM table: the most VMs live at once so far.
    pub fn vm_slots(&self) -> usize {
        self.vms.slot_count()
    }

    /// Number of live VMs of `size`, on any tier and in any state.
    pub fn live_of_size(&self, size: InstanceSize) -> usize {
        self.live_by_size[size_slot(size)] as usize
    }

    /// Total cost incurred up to `now`: settled cost of released VMs plus
    /// the running cost of live ones. This is the paper's "cost function
    /// … maps the number of machines currently active and their
    /// configuration to the cost per unit time of keeping them running",
    /// integrated over time.
    pub fn total_cost(&self, now: SimTime) -> f64 {
        let live: f64 = self.hired().map(|h| self.accrued(h, now).0).sum();
        self.settled_cost + live
    }

    /// Cost incurred on one tier up to `now` (live + settled). Summing
    /// this over tiers equals [`CloudProvider::total_cost`] up to f64
    /// addition order.
    pub fn cost_on_tier(&self, tier: TierId, now: SimTime) -> f64 {
        let live: f64 =
            self.hired().filter(|h| h.vm.tier == tier).map(|h| self.accrued(h, now).0).sum();
        self.settled_cost_by_tier[tier.0] + live
    }

    /// Total core·TU consumed up to `now` (live + settled).
    pub fn total_core_tu(&self, now: SimTime) -> f64 {
        (0..self.catalog.len()).map(|i| self.core_tu_on_tier(TierId(i), now)).sum()
    }

    /// Core·TU consumed on one tier up to `now` (live + settled).
    pub fn core_tu_on_tier(&self, tier: TierId, now: SimTime) -> f64 {
        let live: f64 =
            self.hired().filter(|h| h.vm.tier == tier).map(|h| self.accrued(h, now).1).sum();
        self.settled_core_tu_by_tier[tier.0] + live
    }

    /// Total VMs ever hired.
    pub fn hired_total(&self) -> u64 {
        self.hired_total
    }

    /// The price a core on `tier` would be billed at if hired *now*:
    /// the catalogue rate, surge-adjusted for fleet contention when a
    /// shared lease is attached. Scaling policies price Eq. 1 with this.
    pub fn quoted_price(&self, tier: TierId) -> f64 {
        let base = self.catalog.get(tier).cost_per_core_tu;
        match &self.lease {
            Some((lease, _)) if self.catalog.get(tier).capacity_cores.is_none() => {
                base * lease.borrow().public_price_multiplier()
            }
            _ => base,
        }
    }

    /// Idle live VMs whose idle span at `now` is at least `min_idle`,
    /// in id order — candidates for release by the scaling policy.
    /// (`live` is kept ascending, so no sort is needed.)
    pub fn idle_candidates(&self, now: SimTime, min_idle: SimDuration) -> Vec<VmKey> {
        self.live
            .iter()
            .copied()
            .filter(|&key| {
                self.vm(key).is_some_and(|vm| vm.is_idle() && vm.idle_span(now) >= min_idle)
            })
            .collect()
    }
}

/// `size`'s position in [`INSTANCE_SIZES`] (the sizes are the powers of
/// two from 1 to 16).
fn size_slot(size: InstanceSize) -> usize {
    size.cores().trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierCatalog;

    fn provider() -> CloudProvider {
        CloudProvider::new(TierCatalog::paper_hybrid(50.0))
    }

    fn sz(c: u32) -> InstanceSize {
        InstanceSize::new(c).unwrap()
    }

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn hire_prefers_private_until_full() {
        let mut p = provider();
        // 39 × 16 = 624 cores fill the private tier exactly.
        for _ in 0..39 {
            let (id, _) = p.hire(sz(16), t(0.0)).unwrap();
            assert_eq!(p.vm(id).unwrap().tier, TierId(0));
        }
        assert_eq!(p.cores_in_use(TierId(0)), 624);
        assert_eq!(p.free_cores(TierId(0)), 0);
        // The 40th lands on the public tier.
        let (id, _) = p.hire(sz(16), t(0.0)).unwrap();
        assert_eq!(p.vm(id).unwrap().tier, TierId(1));
    }

    #[test]
    fn private_only_catalog_can_exhaust() {
        let mut p = CloudProvider::new(TierCatalog::new(vec![crate::tier::Tier::paper_private()]));
        for _ in 0..39 {
            p.hire(sz(16), t(0.0)).unwrap();
        }
        assert_eq!(p.hire(sz(1), t(0.0)), Err(HireError::NoCapacity));
    }

    #[test]
    fn release_returns_cores_and_settles_cost() {
        let mut p = provider();
        let (id, ready) = p.hire(sz(8), t(0.0)).unwrap();
        assert_eq!(ready, t(0.5));
        assert_eq!(p.cores_in_use(TierId(0)), 8);
        // Run a task for 1 TU: the private tier bills busy time only.
        p.vm_mut(id).unwrap().finish_boot(ready);
        p.vm_mut(id).unwrap().start_task(t(1.0));
        p.vm_mut(id).unwrap().finish_task(t(2.0));
        p.release(id, t(2.0));
        assert_eq!(p.cores_in_use(TierId(0)), 0);
        assert_eq!(p.vms().count(), 0);
        // 8 cores × 5 CU × 1 busy TU = 40.
        assert!((p.total_cost(t(10.0)) - 40.0).abs() < 1e-9);
        // Core·TU accounting still reports the hired span (2 TU × 8).
        assert!((p.total_core_tu(t(10.0)) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn live_cost_integrates_continuously() {
        let mut p = provider();
        let (id, ready) = p.hire(sz(4), t(0.0)).unwrap();
        // Busy-billed tier: nothing accrues while idle…
        assert_eq!(p.total_cost(t(3.0)), 0.0);
        // …and an open busy period accrues continuously.
        p.vm_mut(id).unwrap().finish_boot(ready);
        p.vm_mut(id).unwrap().start_task(t(1.0));
        // 4 cores × 5 CU × 2 busy TU = 40.
        assert!((p.total_cost(t(3.0)) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn public_tier_bills_hired_time() {
        let mut p = provider();
        // Fill private, then hire public.
        for _ in 0..39 {
            p.hire(sz(16), t(0.0)).unwrap();
        }
        let (pub_id, _) = p.hire(sz(1), t(0.0)).unwrap();
        assert_eq!(p.vm(pub_id).unwrap().tier, TierId(1));
        // Private VMs are all idle (busy-billed → free); the public VM
        // bills from hire: 1 core × 50 CU × 1 TU.
        let cost = p.total_cost(t(1.0));
        assert!((cost - 50.0).abs() < 1e-6, "{cost}");
    }

    #[test]
    fn per_tier_costs_sum_to_total() {
        let mut p = provider();
        // Fill private, spill one onto public, settle one of each.
        for _ in 0..39 {
            let (id, r) = p.hire(sz(16), t(0.0)).unwrap();
            p.vm_mut(id).unwrap().finish_boot(r);
        }
        let (pub_id, _) = p.hire(sz(4), t(0.0)).unwrap();
        assert_eq!(p.vm(pub_id).unwrap().tier, TierId(1));
        let first = p.live[0];
        assert_eq!(first.id, VmId(0));
        p.vm_mut(first).unwrap().start_task(t(1.0));
        p.vm_mut(first).unwrap().finish_task(t(2.0));
        p.release(first, t(2.0));
        p.release(pub_id, t(3.0));
        let now = t(5.0);
        let by_tier = p.cost_on_tier(TierId(0), now) + p.cost_on_tier(TierId(1), now);
        assert!((by_tier - p.total_cost(now)).abs() < 1e-9, "{by_tier}");
        // Private released VM billed busy time: 16 cores × 5 CU × 1 TU.
        assert!((p.cost_on_tier(TierId(0), now) - 80.0).abs() < 1e-9);
        // Public released VM billed hired time: 4 cores × 50 CU × 3 TU.
        assert!((p.cost_on_tier(TierId(1), now) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn reshape_adjusts_capacity_accounting() {
        let mut p = provider();
        let (id, ready) = p.hire(sz(4), t(0.0)).unwrap();
        p.vm_mut(id).unwrap().finish_boot(ready);
        let ready2 = p.reshape(id, sz(16), t(1.0)).unwrap();
        assert_eq!(ready2, t(1.5));
        assert_eq!(p.cores_in_use(TierId(0)), 16);
        p.vm_mut(id).unwrap().finish_boot(ready2);
        // Shrink back.
        let _ = p.reshape(id, sz(1), t(2.0)).unwrap();
        assert_eq!(p.cores_in_use(TierId(0)), 1);
        assert_eq!((p.live_of_size(sz(1)), p.live_of_size(sz(4))), (1, 0));
    }

    #[test]
    fn reshape_bills_each_span_at_its_own_size() {
        let mut p = provider();
        let (id, ready) = p.hire(sz(4), t(0.0)).unwrap();
        let vm = p.vm_mut(id).unwrap();
        vm.finish_boot(ready);
        vm.start_task(t(1.0));
        vm.finish_task(t(3.0)); // span 1: 2 busy TU at 4 cores
        let ready2 = p.reshape(id, sz(16), t(3.0)).unwrap();
        let vm = p.vm_mut(id).unwrap();
        vm.finish_boot(ready2);
        vm.start_task(t(4.0));
        vm.finish_task(t(7.0)); // span 2: 3 busy TU at 16 cores
                                // Live and settled views agree before and after the release.
        let expect = 4.0 * 5.0 * 2.0 + 16.0 * 5.0 * 3.0;
        assert!((p.total_cost(t(8.0)) - expect).abs() < 1e-9, "{}", p.total_cost(t(8.0)));
        p.release(id, t(8.0));
        assert!((p.total_cost(t(9.0)) - expect).abs() < 1e-9);
        assert!((p.cost_on_tier(TierId(0), t(9.0)) - expect).abs() < 1e-9);
        // Core·TU follows the hired span: 3 TU at 4 cores, 5 TU at 16.
        assert!((p.core_tu_on_tier(TierId(0), t(9.0)) - (4.0 * 3.0 + 16.0 * 5.0)).abs() < 1e-9);
    }

    #[test]
    fn reshape_respects_capacity() {
        let mut p = CloudProvider::new(TierCatalog::new(vec![crate::tier::Tier {
            name: "tiny".into(),
            cost_per_core_tu: 1.0,
            capacity_cores: Some(8),
            billing: crate::tier::BillingMode::HiredTime,
        }]));
        let (id, ready) = p.hire(sz(8), t(0.0)).unwrap();
        p.vm_mut(id).unwrap().finish_boot(ready);
        assert_eq!(p.reshape(id, sz(16), t(1.0)), Err(HireError::NoCapacity));
        // Unchanged on failure.
        assert_eq!(p.vm(id).unwrap().size.cores(), 8);
        assert_eq!(p.cores_in_use(TierId(0)), 8);
    }

    #[test]
    fn idle_candidates_filter_by_span() {
        let mut p = provider();
        let (a, ra) = p.hire(sz(1), t(0.0)).unwrap();
        let (b, rb) = p.hire(sz(1), t(0.0)).unwrap();
        p.vm_mut(a).unwrap().finish_boot(ra);
        p.vm_mut(b).unwrap().finish_boot(rb);
        p.vm_mut(b).unwrap().start_task(t(1.0));
        // At t=3, a has been idle 2.5 TU; b is busy.
        let c = p.idle_candidates(t(3.0), SimDuration::new(2.0));
        assert_eq!(c, vec![a]);
        let none = p.idle_candidates(t(3.0), SimDuration::new(3.0));
        assert!(none.is_empty());
    }

    #[test]
    fn leased_providers_contend_for_the_shared_pool() {
        use crate::shared::{SharedCapacity, SurgePricing};
        use scan_sim::TenantId;
        // 32 shared private cores across two tenants, each with a local
        // catalogue that could take far more.
        let lease = SharedCapacity::new(32, 2, SurgePricing::FLAT).into_lease();
        let mut a = provider();
        let mut b = provider();
        a.attach_shared(lease.clone(), TenantId(0));
        b.attach_shared(lease.clone(), TenantId(1));
        let (id, _) = a.hire_on(TierId(0), sz(16), t(0.0)).unwrap();
        b.hire_on(TierId(0), sz(16), t(0.0)).unwrap();
        // The pool is exhausted even though each local catalogue has
        // 624-core headroom.
        assert_eq!(a.free_cores(TierId(0)), 0);
        assert!(!b.has_capacity(TierId(0), sz(1)));
        assert_eq!(b.hire_on(TierId(0), sz(1), t(0.0)), Err(HireError::NoCapacity));
        assert_eq!(lease.borrow().peak_used(), 32);
        // Releasing returns the cores to *both* tenants.
        a.release(id, t(1.0));
        assert!(b.has_capacity(TierId(0), sz(16)));
        assert_eq!(lease.borrow().used_by(TenantId(0)), 0);
    }

    #[test]
    fn surge_pricing_locks_the_launch_rate_per_vm() {
        use crate::shared::{SharedCapacity, SurgePricing};
        use scan_sim::TenantId;
        // No shared private cores: every hire spills to the public tier,
        // whose price doubles per 16 fleet-wide cores on hire.
        let lease =
            SharedCapacity::new(0, 1, SurgePricing { factor: 1.0, per_cores: 16.0 }).into_lease();
        let mut p = provider();
        p.attach_shared(lease.clone(), TenantId(0));
        assert_eq!(p.quoted_price(TierId(1)), 50.0, "no contention yet");
        let (first, _) = p.hire_on(TierId(1), sz(16), t(0.0)).unwrap();
        // The second hire is quoted at 2× while the first keeps 1×.
        assert!((p.quoted_price(TierId(1)) - 100.0).abs() < 1e-9);
        let (_second, _) = p.hire_on(TierId(1), sz(16), t(0.0)).unwrap();
        // Both billed HiredTime for 1 TU: 16·50·1 + 16·100·1.
        let cost = p.total_cost(t(1.0));
        assert!((cost - (800.0 + 1600.0)).abs() < 1e-6, "{cost}");
        // Releasing the first VM drops contention; its settled cost used
        // its launch price, not today's quote.
        p.release(first, t(1.0));
        assert!((p.quoted_price(TierId(1)) - 100.0).abs() < 1e-9);
        // Private quotes never surge.
        assert_eq!(p.quoted_price(TierId(0)), 5.0);
    }

    #[test]
    fn unleased_provider_quotes_catalogue_prices() {
        let p = provider();
        assert_eq!(p.quoted_price(TierId(0)), 5.0);
        assert_eq!(p.quoted_price(TierId(1)), 50.0);
        assert_eq!(p.tenant(), scan_sim::TenantId::SOLO);
        assert!(p.shared().is_none());
    }

    #[test]
    fn released_slots_are_reused_and_their_keys_go_dead() {
        let mut p = provider();
        let (a, _) = p.hire(sz(2), t(0.0)).unwrap();
        let (b, _) = p.hire(sz(2), t(0.0)).unwrap();
        p.release(a, t(1.0));
        let (c, _) = p.hire(sz(8), t(1.0)).unwrap();
        assert_eq!((c.id, c.slot), (VmId(2), a.slot), "a fresh id in the freed slot");
        assert!(p.vm(a).is_none() && p.vm_mut(a).is_none(), "a released key never resolves");
        assert_eq!(p.vm(c).map(|vm| (vm.id, vm.size.cores())), Some((VmId(2), 8)));
        assert_eq!(p.vms().map(|vm| vm.id).collect::<Vec<_>>(), vec![b.id, c.id]);
        assert_eq!((p.vm_slots(), p.hired_total()), (2, 3));
    }

    #[test]
    fn vms_iteration_is_deterministic() {
        let mut p = provider();
        let mut expect = Vec::new();
        for _ in 0..10 {
            expect.push(p.hire(sz(1), t(0.0)).unwrap().0);
        }
        let got: Vec<VmId> = p.vms().map(|v| v.id).collect();
        assert_eq!(got, expect.iter().map(|k: &VmKey| k.id).collect::<Vec<_>>());
    }
}
