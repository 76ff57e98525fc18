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
/// reused. Hires and releases keep no ordered list of the live VMs: the
/// few callers that walk them ([`CloudProvider::vms`], the cost sums,
/// [`CloudProvider::idle_candidates`]) collect the occupied slots and
/// sort them by id, so every walk and every f64 sum runs in id order.
#[derive(Debug, Clone)]
pub struct CloudProvider {
    catalog: TierCatalog,
    /// Live VMs with their billing terms, one per slot.
    vms: SlotArena<Hired>,
    /// Live VMs per instance size, in `INSTANCE_SIZES` order.
    live_by_size: [u32; INSTANCE_SIZES.len()],
    /// Hires, releases and reshapes so far: every change to
    /// `live_by_size`.
    live_version: u64,
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
            live_by_size: [0; INSTANCE_SIZES.len()],
            live_version: 0,
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
    #[inline]
    pub fn shared(&self) -> Option<&SharedLease> {
        self.lease.as_ref().map(|(l, _)| l)
    }

    /// Routes VM lifecycle events (hire / reshape / release) to `tracer`'s
    /// observers. The provider emits; it never reads the trace.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tier catalogue.
    #[inline]
    pub fn catalog(&self) -> &TierCatalog {
        &self.catalog
    }

    /// Cores currently allocated on a tier.
    #[inline]
    pub fn cores_in_use(&self, tier: TierId) -> u32 {
        self.cores_in_use[tier.0]
    }

    /// Free cores on a tier (`u32::MAX` for unbounded tiers). Under a
    /// shared lease a bounded tier is additionally capped by what is left
    /// in the shared pool, so the answer already reflects other tenants'
    /// reservations.
    #[inline]
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
    #[inline]
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
    #[inline]
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
        self.live_by_size[size_slot(size)] += 1;
        self.live_version += 1;
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
    #[inline]
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
        self.live_by_size[size_slot(vm.size)] -= 1;
        self.live_version += 1;
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
    // scan-lint: allow(hot-inline) -- runs once per release, and billing the hire outweighs the call
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
    // scan-lint: allow(hot-inline) -- runs once per reshape, and its tier and VM bookkeeping outweighs the call
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
        self.live_version += 1;
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

    /// Live VMs with their billing terms, in id order (deterministic):
    /// the occupied slots, sorted by id.
    fn hired(&self) -> impl Iterator<Item = &Hired> {
        let mut hired: Vec<&Hired> = self.vms.iter().map(|(_, h)| h).collect();
        hired.sort_unstable_by_key(|h| h.vm.id);
        hired.into_iter()
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
    #[inline]
    pub fn live_of_size(&self, size: InstanceSize) -> usize {
        self.live_by_size[size_slot(size)] as usize
    }

    /// Hires, releases and reshapes so far. Every change to
    /// [`CloudProvider::live_of_size`] changes it, so an answer computed
    /// from live counts holds while this reads the same.
    #[inline]
    pub fn live_version(&self) -> u64 {
        self.live_version
    }

    /// Total cost incurred up to `now`: settled cost of released VMs plus
    /// the running cost of live ones. This is the paper's "cost function
    /// … maps the number of machines currently active and their
    /// configuration to the cost per unit time of keeping them running",
    /// integrated over time.
    // scan-lint: allow(hot-inline) -- runs once per replan tick, and it sums every hire
    pub fn total_cost(&self, now: SimTime) -> f64 {
        let live: f64 = self.hired().map(|h| self.accrued(h, now).0).sum();
        self.settled_cost + live
    }

    /// Each tier's `(cost, core·TU)` up to `now`, indexed by `TierId.0`:
    /// settled plus live, each live sum taken in id order, from one walk
    /// of the live VMs. Summing the costs equals
    /// [`CloudProvider::total_cost`] up to f64 addition order.
    pub fn tier_totals(&self, now: SimTime) -> Vec<(f64, f64)> {
        let mut live = vec![(0.0, 0.0); self.catalog.len()];
        for h in self.hired() {
            let (cost, core_tu) = self.accrued(h, now);
            let sums = &mut live[h.vm.tier.0];
            sums.0 += cost;
            sums.1 += core_tu;
        }
        let settled = self.settled_cost_by_tier.iter().zip(&self.settled_core_tu_by_tier);
        settled.zip(live).map(|((&cost, &core_tu), (c, t))| (cost + c, core_tu + t)).collect()
    }

    /// Total core·TU consumed up to `now` (live + settled).
    pub fn total_core_tu(&self, now: SimTime) -> f64 {
        self.tier_totals(now).iter().map(|&(_, core_tu)| core_tu).sum()
    }

    /// Total VMs ever hired.
    pub fn hired_total(&self) -> u64 {
        self.hired_total
    }

    /// The price a core on `tier` would be billed at if hired *now*:
    /// the catalogue rate, surge-adjusted for fleet contention when a
    /// shared lease is attached. Scaling policies price Eq. 1 with this.
    #[inline]
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
    pub fn idle_candidates(&self, now: SimTime, min_idle: SimDuration) -> Vec<VmKey> {
        let mut keys: Vec<VmKey> = self
            .vms
            .iter()
            .filter(|(_, h)| h.vm.is_idle() && h.vm.idle_span(now) >= min_idle)
            .map(|(slot, h)| VmKey { id: h.vm.id, slot })
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// `size`'s position in [`INSTANCE_SIZES`] (the sizes are the powers of
/// two from 1 to 16).
#[inline]
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
            assert_eq!(p.vm(id).unwrap().tier, TierId::PRIVATE);
        }
        assert_eq!(p.cores_in_use(TierId::PRIVATE), 624);
        assert_eq!(p.free_cores(TierId::PRIVATE), 0);
        // The 40th lands on the public tier.
        let (id, _) = p.hire(sz(16), t(0.0)).unwrap();
        assert_eq!(p.vm(id).unwrap().tier, TierId::PUBLIC);
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
        assert_eq!(p.cores_in_use(TierId::PRIVATE), 8);
        // Run a task for 1 TU: the private tier bills busy time only.
        p.vm_mut(id).unwrap().finish_boot(ready);
        p.vm_mut(id).unwrap().start_task(t(1.0));
        p.vm_mut(id).unwrap().finish_task(t(2.0));
        p.release(id, t(2.0));
        assert_eq!(p.cores_in_use(TierId::PRIVATE), 0);
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
        assert_eq!(p.vm(pub_id).unwrap().tier, TierId::PUBLIC);
        // Private VMs are all idle (busy-billed → free); the public VM
        // bills from hire: 1 core × 50 CU × 1 TU.
        let cost = p.total_cost(t(1.0));
        assert!((cost - 50.0).abs() < 1e-6, "{cost}");
    }

    #[test]
    fn per_tier_costs_sum_to_total() {
        let mut p = provider();
        // Fill private, spill one onto public, settle one of each.
        let mut first = None;
        for _ in 0..39 {
            let (id, r) = p.hire(sz(16), t(0.0)).unwrap();
            p.vm_mut(id).unwrap().finish_boot(r);
            first.get_or_insert(id);
        }
        let (pub_id, _) = p.hire(sz(4), t(0.0)).unwrap();
        assert_eq!(p.vm(pub_id).unwrap().tier, TierId::PUBLIC);
        let first = first.expect("39 hires");
        assert_eq!(first.id, VmId(0));
        p.vm_mut(first).unwrap().start_task(t(1.0));
        p.vm_mut(first).unwrap().finish_task(t(2.0));
        p.release(first, t(2.0));
        p.release(pub_id, t(3.0));
        let now = t(5.0);
        let [(private, _), (public, _)] = p.tier_totals(now)[..] else { panic!("two tiers") };
        let by_tier = private + public;
        assert!((by_tier - p.total_cost(now)).abs() < 1e-9, "{by_tier}");
        // Private released VM billed busy time: 16 cores × 5 CU × 1 TU.
        assert!((private - 80.0).abs() < 1e-9);
        // Public released VM billed hired time: 4 cores × 50 CU × 3 TU.
        assert!((public - 600.0).abs() < 1e-9);
    }

    #[test]
    fn reshape_adjusts_capacity_accounting() {
        let mut p = provider();
        let (id, ready) = p.hire(sz(4), t(0.0)).unwrap();
        p.vm_mut(id).unwrap().finish_boot(ready);
        let ready2 = p.reshape(id, sz(16), t(1.0)).unwrap();
        assert_eq!(ready2, t(1.5));
        assert_eq!(p.cores_in_use(TierId::PRIVATE), 16);
        p.vm_mut(id).unwrap().finish_boot(ready2);
        // Shrink back.
        let _ = p.reshape(id, sz(1), t(2.0)).unwrap();
        assert_eq!(p.cores_in_use(TierId::PRIVATE), 1);
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
        let (cost, core_tu) = p.tier_totals(t(9.0))[TierId::PRIVATE.0];
        assert!((cost - expect).abs() < 1e-9);
        // Core·TU follows the hired span: 3 TU at 4 cores, 5 TU at 16.
        assert!((core_tu - (4.0 * 3.0 + 16.0 * 5.0)).abs() < 1e-9);
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
        let (id, _) = a.hire_on(TierId::PRIVATE, sz(16), t(0.0)).unwrap();
        b.hire_on(TierId::PRIVATE, sz(16), t(0.0)).unwrap();
        // The pool is exhausted even though each local catalogue has
        // 624-core headroom.
        assert_eq!(a.free_cores(TierId::PRIVATE), 0);
        assert!(!b.has_capacity(TierId::PRIVATE, sz(1)));
        assert_eq!(b.hire_on(TierId::PRIVATE, sz(1), t(0.0)), Err(HireError::NoCapacity));
        assert_eq!(lease.borrow().peak_used(), 32);
        // Releasing returns the cores to *both* tenants.
        a.release(id, t(1.0));
        assert!(b.has_capacity(TierId::PRIVATE, sz(16)));
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
        assert_eq!(p.quoted_price(TierId::PUBLIC), 50.0, "no contention yet");
        let (first, _) = p.hire_on(TierId::PUBLIC, sz(16), t(0.0)).unwrap();
        // The second hire is quoted at 2× while the first keeps 1×.
        assert!((p.quoted_price(TierId::PUBLIC) - 100.0).abs() < 1e-9);
        let (_second, _) = p.hire_on(TierId::PUBLIC, sz(16), t(0.0)).unwrap();
        // Both billed HiredTime for 1 TU: 16·50·1 + 16·100·1.
        let cost = p.total_cost(t(1.0));
        assert!((cost - (800.0 + 1600.0)).abs() < 1e-6, "{cost}");
        // Releasing the first VM drops contention; its settled cost used
        // its launch price, not today's quote.
        p.release(first, t(1.0));
        assert!((p.quoted_price(TierId::PUBLIC) - 100.0).abs() < 1e-9);
        // Private quotes never surge.
        assert_eq!(p.quoted_price(TierId::PRIVATE), 5.0);
    }

    #[test]
    fn unleased_provider_quotes_catalogue_prices() {
        let p = provider();
        assert_eq!(p.quoted_price(TierId::PRIVATE), 5.0);
        assert_eq!(p.quoted_price(TierId::PUBLIC), 50.0);
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
    fn live_vms_walk_in_id_order_after_out_of_order_slot_reuse() {
        let mut p = provider();
        let public = TierId::PUBLIC;
        // Public VMs bill hired time, so each accrues its own odd amount.
        let hire = |p: &mut CloudProvider, cores: u32, at: f64| {
            let (key, ready) = p.hire_on(public, sz(cores), t(at)).unwrap();
            p.vm_mut(key).unwrap().finish_boot(ready);
            key
        };
        let keys: Vec<VmKey> = [(16, 0.05), (1, 0.1), (4, 0.2), (2, 0.3)]
            .iter()
            .map(|&(c, at)| hire(&mut p, c, at))
            .collect();
        p.release(keys[0], t(1.3));
        p.release(keys[2], t(1.7));
        // The freed slots are reused most recent first: id 4 takes slot
        // 2, id 5 slot 0, so slot order is ids 5, 1, 4, 3.
        let (e, f) = (hire(&mut p, 4, 1.9), hire(&mut p, 8, 2.3));
        assert_eq!((e.slot, f.slot), (keys[2].slot, keys[0].slot));
        let by_slot: Vec<u32> = p.vms.iter().map(|(_, h)| h.vm.id.0).collect();
        assert_eq!(by_slot, vec![5, 1, 4, 3]);
        let ids: Vec<u32> = p.vms().map(|vm| vm.id.0).collect();
        assert_eq!(ids, vec![1, 3, 4, 5], "vms() walks ascending ids");
        assert_eq!(p.idle_candidates(t(9.0), SimDuration::ZERO), vec![keys[1], keys[3], e, f]);

        // The cost sums add the live VMs in id order, bit for bit.
        let now = t(3.33);
        let live = [keys[1], keys[3], e, f];
        let accrued = |key: VmKey| p.accrued(p.vms.get(key.slot).unwrap(), now).0;
        let in_id_order: f64 = live.iter().map(|&k| accrued(k)).sum();
        let in_slot_order: f64 = [f, keys[1], e, keys[3]].iter().map(|&k| accrued(k)).sum();
        assert_ne!(in_id_order.to_bits(), in_slot_order.to_bits(), "the order shows in the sum");
        let settled = p.settled_cost;
        assert_eq!(p.total_cost(now).to_bits(), (settled + in_id_order).to_bits());
        let tier_settled = p.settled_cost_by_tier[public.0];
        let tier_cost = p.tier_totals(now)[public.0].0;
        assert_eq!(tier_cost.to_bits(), (tier_settled + in_id_order).to_bits());
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
