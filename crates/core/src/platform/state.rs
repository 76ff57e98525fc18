//! Dense hot-path state containers for the platform (DESIGN §"Hot-path
//! data structures & determinism invariants").
//!
//! The dispatch/scaling inner loop runs once per event over these
//! structures; profiling showed the old map-based representations
//! (`BTreeMap`/`HashMap` keyed by ids) spending most of the loop in
//! pointer-chasing descents. Every per-VM table here is a `Vec` indexed
//! by the VM's provider slot ([`VmKey::slot`]), and every per-shape map
//! is a fixed five-slot array over [`SHAPE_CORES`]. Slots are reused
//! once a VM is released (the provider's VM table and the platform's job
//! table are [`SlotArena`](scan_sim::SlotArena)s), so these tables are
//! as long as the most VMs live at once, not as long as the session. A
//! slot is not an identity: each table keeps the VM's id beside what it
//! stores and answers only for the key it was given.
//!
//! Determinism invariants preserved from the map era (ids are hire
//! ordinals, never reused, and [`VmKey`]s order by id):
//! - **Idle-worker selection is lowest-id-first** ([`IdlePools::take_min`]
//!   pops the minimum id, exactly like `BTreeSet::iter().next()` did).
//! - **Shape iteration is ascending cores** (slot order = `[1,2,4,8,16]`).
//! - **Busy-set scans are order-insensitive** (min over f64 finish times
//!   commutes), so neither [`BusyTable`]'s split into one list per shape
//!   nor its swap-remove reordering is visible.
//!
//! Some containers also count their own changes, so a caller can memoise
//! an answer read from them and recompute it only once a count moves:
//! [`BusyTable::removed`] and [`BootingCounts::finished`] key the held
//! waits, and [`IdlePools::head_changes`] keys, with the provider's live
//! count version, the sweep's release instant.

use crate::config::{IDLE_TIMEOUT_TU, PUBLIC_IDLE_TIMEOUT_TU};
use scan_cloud::tier::TierId;
use scan_cloud::vm::{VmId, VmKey};
use scan_sched::queue::{shape_slot, TaskClass, N_SHAPES, SHAPE_CORES};
use scan_sim::{SimDuration, SimTime};
use scan_workload::job::Job;
use std::cell::Cell;
use std::collections::VecDeque;

/// Per-shape pools of idle workers with O(1) deterministic min-id pop,
/// plus the release index: per `(tier, shape)`, the same workers in the
/// order they became idle, and the grid instant the oldest of them times
/// out.
///
/// Each pool is kept sorted *descending* so `take_min` is a plain
/// `Vec::pop`. Inserts binary-search their position; pools hold tens of
/// VMs, so the occasional memmove is far cheaper than the tree nodes it
/// replaces. Ids are unique, so the searches compare ids alone: the
/// same order as the derived `(id, slot)` one at half the compare.
///
/// Each release list is an intrusive doubly-linked list threaded through
/// a table indexed by VM slot (like [`BusyTable`]'s positions), so a
/// worker taken from the middle of its list unlinks in O(1). A worker
/// becomes idle at the current instant, so appending at the tail keeps
/// each list ordered by idle start: the workers past an idle timeout are
/// always a prefix from the head, and the head is the next to time out.
#[derive(Debug)]
pub(super) struct IdlePools {
    pools: [Vec<VmKey>; N_SHAPES],
    /// Release-list links by VM slot; meaningful only for idle workers.
    links: Vec<IdleLink>,
    /// `(head, tail)` VM slots per tier (`TierId.0`) and shape slot:
    /// the longest and the most recently idle worker ([`NIL`] when
    /// empty).
    ends: [[(u32, u32); N_SHAPES]; 2],
    /// Per tier and shape slot, the first grid instant at which the
    /// list's head has timed out, computed when first asked for (most
    /// heads are assigned work again before anyone asks).
    front_expiry: [[Cell<Option<SimTime>>; N_SHAPES]; 2],
    /// Bit `tier * N_SHAPES + slot` set iff that release list is
    /// non-empty.
    listed: u16,
    /// Release-list head changes so far. `expiries()` reads only the
    /// heads, so its answer holds while this reads the same.
    head_changes: u64,
}

/// One idle worker's place in its `(tier, shape)` release list.
#[derive(Debug, Clone, Copy)]
struct IdleLink {
    /// When the worker became idle.
    since: SimTime,
    /// VM slots of the neighbours that became idle before and after it
    /// ([`NIL`] at the ends).
    prev: u32,
    next: u32,
    key: VmKey,
    tier: u8,
}

/// The null link: no VM slot.
const NIL: u32 = u32::MAX;

impl IdleLink {
    const UNUSED: IdleLink = IdleLink {
        since: SimTime::ZERO,
        prev: NIL,
        next: NIL,
        key: VmKey { id: VmId(u32::MAX), slot: NIL },
        tier: 0,
    };
}

impl IdlePools {
    /// Empty pools.
    pub(super) fn new() -> Self {
        IdlePools {
            pools: Default::default(),
            links: Vec::new(),
            ends: [[(NIL, NIL); N_SHAPES]; 2],
            front_expiry: Default::default(),
            listed: 0,
            head_changes: 0,
        }
    }

    /// Adds a worker of `tier` that became idle at `since` to its shape
    /// pool.
    pub(super) fn insert(&mut self, cores: u32, vm: VmKey, tier: TierId, since: SimTime) {
        let slot = shape_slot(cores);
        let pool = &mut self.pools[slot];
        let pos = pool.partition_point(|v| v.id > vm.id);
        debug_assert!(pool.get(pos) != Some(&vm), "double insert of idle VM");
        pool.insert(pos, vm);
        let at = vm.slot as usize;
        if self.links.len() <= at {
            self.links.resize(at + 1, IdleLink::UNUSED);
        }
        let (head, tail) = &mut self.ends[tier.0][slot];
        debug_assert!(
            *tail == NIL || self.links[*tail as usize].since <= since,
            "idle starts are monotone"
        );
        self.links[at] = IdleLink { since, prev: *tail, next: NIL, key: vm, tier: tier.0 as u8 };
        if *tail == NIL {
            *head = vm.slot;
            self.front_expiry[tier.0][slot].set(None);
            self.listed |= 1 << (tier.0 * N_SHAPES + slot);
            self.head_changes += 1;
        } else {
            self.links[*tail as usize].next = vm.slot;
        }
        *tail = vm.slot;
    }

    /// Removes a specific worker (e.g. picked for reshape or release).
    /// Returns whether it was present.
    pub(super) fn remove(&mut self, cores: u32, vm: VmKey) -> bool {
        let slot = shape_slot(cores);
        let pool = &mut self.pools[slot];
        let pos = pool.partition_point(|v| v.id > vm.id);
        if pool.get(pos) == Some(&vm) {
            pool.remove(pos);
            self.unlink(slot, vm);
            true
        } else {
            false
        }
    }

    /// Pops the lowest-id idle worker of a shape — the deterministic
    /// "lowest id first" selection rule.
    pub(super) fn take_min(&mut self, cores: u32) -> Option<VmKey> {
        let slot = shape_slot(cores);
        let vm = self.pools[slot].pop()?;
        self.unlink(slot, vm);
        Some(vm)
    }

    /// Drops idle worker `vm` of shape `slot` from its release list.
    fn unlink(&mut self, slot: usize, vm: VmKey) {
        let IdleLink { prev, next, key, tier, .. } = self.links[vm.slot as usize];
        debug_assert_eq!(key, vm, "idle VM missing from the release index");
        let tier = tier as usize;
        let (head, tail) = &mut self.ends[tier][slot];
        if prev == NIL {
            *head = next;
            self.front_expiry[tier][slot].set(None);
            self.head_changes += 1;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NIL {
            *tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        if *head == NIL {
            self.listed &= !(1 << (tier * N_SHAPES + slot));
        }
    }

    /// `(tier, shape slot, first grid instant its oldest worker is past
    /// the tier's idle timeout)` of every non-empty release list.
    pub(super) fn expiries(&self) -> impl Iterator<Item = (TierId, usize, SimTime)> + '_ {
        let mut listed = self.listed;
        std::iter::from_fn(move || {
            if listed == 0 {
                return None;
            }
            let bit = listed.trailing_zeros() as usize;
            listed &= listed - 1;
            let (tier, slot) = (bit / N_SHAPES, bit % N_SHAPES);
            let cached = &self.front_expiry[tier][slot];
            let at = cached.get().unwrap_or_else(|| {
                let since = self.links[self.ends[tier][slot].0 as usize].since;
                let at = grid_expiry(since, idle_timeout(TierId(tier)));
                cached.set(Some(at));
                at
            });
            Some((TierId(tier), slot, at))
        })
    }

    /// Release-list head changes so far: every change to what
    /// [`IdlePools::expiries`] answers changes it.
    pub(super) fn head_changes(&self) -> u64 {
        self.head_changes
    }

    /// Whether no worker is idle.
    pub(super) fn is_empty(&self) -> bool {
        self.pools.iter().all(Vec::is_empty)
    }

    /// Idle workers of one shape slot.
    pub(super) fn len_of_slot(&self, slot: usize) -> usize {
        self.pools[slot].len()
    }

    /// Ascending-id iteration over one shape slot's pool.
    pub(super) fn iter_slot_asc(&self, slot: usize) -> impl Iterator<Item = VmKey> + '_ {
        self.pools[slot].iter().rev().copied()
    }

    /// `(idle since, vm)` of one tier's idle workers of a shape slot,
    /// longest idle first.
    pub(super) fn by_idle_start(
        &self,
        tier: TierId,
        slot: usize,
    ) -> impl Iterator<Item = (SimTime, VmKey)> + '_ {
        let mut at = self.ends[tier.0][slot].0;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let link = &self.links[at as usize];
            at = link.next;
            Some((link.since, link.key))
        })
    }

    /// Every idle worker, as `(cores, vm)`.
    pub(super) fn all(&self) -> impl Iterator<Item = (u32, VmKey)> + '_ {
        SHAPE_CORES.iter().zip(&self.pools).flat_map(|(&c, pool)| pool.iter().map(move |&v| (c, v)))
    }
}

/// The grid the sweeps keep: `1.0 + 0.5k` TU. Every grid instant below
/// 2⁵³ is an exact binary fraction, so the arithmetic here is exact.
const GRID_START_TU: f64 = 1.0;
const GRID_STEP_TU: f64 = 0.5;

/// The first grid instant at or after `t` (strictly after it when
/// `inclusive` is false).
pub(super) fn next_grid(t: SimTime, inclusive: bool) -> SimTime {
    let k = ((t.as_tu() - GRID_START_TU) / GRID_STEP_TU).ceil().max(0.0);
    let g = GRID_START_TU + GRID_STEP_TU * k;
    SimTime::new(if !inclusive && g == t.as_tu() { g + GRID_STEP_TU } else { g })
}

/// How long a worker of `tier` stays idle before the sweep releases it.
pub(super) fn idle_timeout(tier: TierId) -> SimDuration {
    SimDuration::new(match tier {
        TierId::PRIVATE => IDLE_TIMEOUT_TU,
        _ => PUBLIC_IDLE_TIMEOUT_TU,
    })
}

/// Whether a worker idle since `since` has been idle for `timeout` at
/// `at` (its `idle_span(at) ≥ timeout`): the sweep's release test.
pub(super) fn idle_expired(since: SimTime, timeout: SimDuration, at: SimTime) -> bool {
    at - since >= timeout
}

/// The first grid instant at which a worker idle since `since` is past
/// `timeout`.
fn grid_expiry(since: SimTime, timeout: SimDuration) -> SimTime {
    let mut at = next_grid(since + timeout, true);
    while !idle_expired(since, timeout, at) {
        at = SimTime::new(at.as_tu() + GRID_STEP_TU);
    }
    while at.as_tu() - GRID_STEP_TU >= GRID_START_TU.max(since.as_tu())
        && idle_expired(since, timeout, SimTime::new(at.as_tu() - GRID_STEP_TU))
    {
        at = SimTime::new(at.as_tu() - GRID_STEP_TU);
    }
    at
}

/// The busy set: which VMs are running tasks and until when, as one
/// unordered dense `(vm, until)` list per shape slot over a table of
/// positions by VM slot.
///
/// The scaling decision's projected-wait scan reads the finish times of
/// one shape's busy VMs; keeping each shape in its own list (a VM cannot
/// reshape while busy) makes that scan as long as the shape's busy set,
/// not the whole busy set.
#[derive(Debug, Default)]
pub(super) struct BusyTable {
    /// Per shape slot, `(vm, until)`, unordered; removal is swap-remove.
    by_shape: [Vec<(VmKey, SimTime)>; N_SHAPES],
    /// VM slot → index into its shape's list; `u32::MAX` = not busy. As
    /// long as the highest VM slot seen.
    pos: Vec<u32>,
    /// Removals per shape slot, ever: the only busy-set change that can
    /// lengthen a shape's projected wait.
    removed: [u64; N_SHAPES],
}

const NOT_BUSY: u32 = u32::MAX;

impl BusyTable {
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Marks a VM of `cores` busy until `until`.
    pub(super) fn insert(&mut self, vm: VmKey, until: SimTime, cores: u32) {
        let slot = vm.slot as usize;
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, NOT_BUSY);
        }
        debug_assert_eq!(self.pos[slot], NOT_BUSY, "VM already busy");
        let list = &mut self.by_shape[shape_slot(cores)];
        self.pos[slot] = list.len() as u32;
        list.push((vm, until));
    }

    /// Clears the busy mark of a VM of `cores`. Returns whether it was
    /// busy at that shape (a key to an earlier VM of the same slot never
    /// was).
    pub(super) fn remove(&mut self, vm: VmKey, cores: u32) -> bool {
        let slot = vm.slot as usize;
        let Some(&idx) = self.pos.get(slot) else {
            return false;
        };
        let shape = shape_slot(cores);
        let list = &mut self.by_shape[shape];
        if list.get(idx as usize).is_none_or(|&(busy, _)| busy != vm) {
            return false;
        }
        self.pos[slot] = NOT_BUSY;
        list.swap_remove(idx as usize);
        self.removed[shape] += 1;
        if let Some(&(moved, _)) = list.get(idx as usize) {
            self.pos[moved.slot as usize] = idx;
        }
        true
    }

    /// Busy workers of `cores` that have ever been removed.
    pub(super) fn removed(&self, cores: u32) -> u64 {
        self.removed[shape_slot(cores)]
    }

    /// Soonest finish time among busy VMs of the given shape, as a span
    /// from `now`. Order-insensitive (f64 min), so the unordered entry
    /// list cannot perturb determinism.
    pub(super) fn min_wait_for_cores(&self, cores: u32, now: SimTime) -> Option<f64> {
        let mut best = f64::INFINITY;
        for &(_, until) in &self.by_shape[shape_slot(cores)] {
            best = best.min((until - now).as_tu());
        }
        best.is_finite().then_some(best)
    }
}

/// Per-class counters stored densely (stage rows × shape slots): the
/// platform's in-flight-hire (`pending`) accounting.
#[derive(Debug, Default)]
pub(super) struct ClassCounts {
    rows: Vec<[u32; N_SHAPES]>,
}

impl ClassCounts {
    pub(super) fn new() -> Self {
        Self::default()
    }

    pub(super) fn get(&self, stage: usize, cores: u32) -> u32 {
        self.rows.get(stage).map(|r| r[shape_slot(cores)]).unwrap_or(0)
    }

    pub(super) fn increment(&mut self, stage: usize, cores: u32) {
        while self.rows.len() <= stage {
            self.rows.push([0; N_SHAPES]);
        }
        self.rows[stage][shape_slot(cores)] += 1;
    }

    pub(super) fn decrement_saturating(&mut self, stage: usize, cores: u32) {
        if let Some(row) = self.rows.get_mut(stage) {
            let c = &mut row[shape_slot(cores)];
            *c = c.saturating_sub(1);
        }
    }
}

/// Per-shape count of VMs currently booting, maintained on hire /
/// reshape / `VmReady` so the scaling decision's "is anything of this
/// shape about to arrive?" probe is O(1) instead of a scan over every
/// live VM the provider knows about.
#[derive(Debug, Default)]
pub(super) struct BootingCounts {
    counts: [u32; N_SHAPES],
    /// Boots finished per shape slot, ever.
    finished: [u64; N_SHAPES],
}

impl BootingCounts {
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// A VM of `cores` started booting (fresh hire or reshape).
    pub(super) fn inc(&mut self, cores: u32) {
        self.counts[shape_slot(cores)] += 1;
    }

    /// A VM of `cores` finished booting (its `VmReady` fired).
    pub(super) fn dec(&mut self, cores: u32) {
        let c = &mut self.counts[shape_slot(cores)];
        debug_assert!(*c > 0, "boot completion without a tracked boot");
        *c = c.saturating_sub(1);
        self.finished[shape_slot(cores)] += 1;
    }

    /// Boots of `cores` that have ever finished.
    pub(super) fn finished(&self, cores: u32) -> u64 {
        self.finished[shape_slot(cores)]
    }

    /// VMs of `cores` currently booting.
    pub(super) fn get(&self, cores: u32) -> u32 {
        self.counts[shape_slot(cores)]
    }
}

/// What each booting VM was hired or reshaped for, by VM slot: the
/// class whose in-flight count its `VmReady` settles. As long as the
/// highest VM slot seen; each entry keeps its VM's id, so a key to an
/// earlier VM of the same slot finds nothing.
#[derive(Debug, Default)]
pub(super) struct Reservations {
    slots: Vec<Option<(VmId, TaskClass)>>,
}

impl Reservations {
    /// Reserves `vm` for `class`.
    pub(super) fn insert(&mut self, vm: VmKey, class: TaskClass) {
        let slot = vm.slot as usize;
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        debug_assert!(self.slots[slot].is_none(), "VM already reserved");
        self.slots[slot] = Some((vm.id, class));
    }

    /// Takes `vm`'s reservation, if it has one.
    pub(super) fn remove(&mut self, vm: VmKey) -> Option<TaskClass> {
        let entry = self.slots.get_mut(vm.slot as usize)?;
        match entry {
            Some((id, _)) if *id == vm.id => entry.take().map(|(_, class)| class),
            _ => None,
        }
    }
}

/// FIFO backlog of jobs the fair-share admission gate has deferred.
///
/// Only fleet tenants ever fill this: a solo session's gate is always
/// open, so the deque stays empty and costs one `is_empty` branch per
/// arrival. Deferred jobs keep their original submission timestamps, so
/// a long deferral shows up as latency (and lost reward), not as a
/// silently re-dated job.
#[derive(Debug, Default)]
pub(super) struct AdmissionBacklog {
    jobs: VecDeque<Job>,
}

impl AdmissionBacklog {
    pub(super) fn push(&mut self, job: Job) {
        self.jobs.push_back(job);
    }

    /// Pops the oldest deferred job.
    pub(super) fn pop(&mut self) -> Option<Job> {
        self.jobs.pop_front()
    }

    pub(super) fn len(&self) -> usize {
        self.jobs.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Standing worker-pool targets per shape (VM counts), dense by slot.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct StandingTargets {
    by_slot: [u32; N_SHAPES],
}

impl StandingTargets {
    pub(super) fn clear(&mut self) {
        self.by_slot = [0; N_SHAPES];
    }

    pub(super) fn set(&mut self, cores: u32, n: u32) {
        self.by_slot[shape_slot(cores)] = n;
    }

    pub(super) fn floor_for(&self, cores: u32) -> u32 {
        self.by_slot[shape_slot(cores)]
    }

    /// `(cores, target)` pairs in ascending-cores order (the deterministic
    /// iteration order the old `BTreeMap<u32, u32>` gave).
    pub(super) fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        SHAPE_CORES.iter().zip(self.by_slot.iter()).map(|(&c, &n)| (c, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The key of VM `id`, in slot `id`.
    fn key(id: u32) -> VmKey {
        VmKey { id: VmId(id), slot: id }
    }

    fn pools() -> IdlePools {
        IdlePools::new()
    }

    #[test]
    fn idle_pool_pops_lowest_id_first() {
        let mut pools = pools();
        for id in [7u32, 2, 9, 4] {
            pools.insert(4, key(id), TierId::PRIVATE, SimTime::ZERO);
        }
        assert_eq!(pools.take_min(4), Some(key(2)));
        assert_eq!(pools.take_min(4), Some(key(4)));
        pools.insert(4, key(1), TierId::PUBLIC, SimTime::ZERO);
        assert_eq!(pools.take_min(4), Some(key(1)));
        assert_eq!(pools.take_min(4), Some(key(7)));
        assert_eq!(pools.take_min(4), Some(key(9)));
        assert_eq!(pools.take_min(4), None);
    }

    #[test]
    fn idle_pool_remove_specific() {
        let mut pools = pools();
        pools.insert(8, key(3), TierId::PRIVATE, SimTime::ZERO);
        pools.insert(8, key(5), TierId::PRIVATE, SimTime::ZERO);
        assert!(pools.remove(8, key(3)));
        assert!(!pools.remove(8, key(3)));
        assert_eq!(pools.take_min(8), Some(key(5)));
        assert!(pools.by_idle_start(TierId::PRIVATE, shape_slot(8)).next().is_none());
    }

    #[test]
    fn release_lists_keep_idle_start_order_per_tier() {
        let mut pools = pools();
        pools.insert(2, key(9), TierId::PRIVATE, SimTime::new(1.0));
        pools.insert(2, key(4), TierId::PUBLIC, SimTime::new(2.0));
        pools.insert(2, key(1), TierId::PRIVATE, SimTime::new(3.0));
        let slot = shape_slot(2);
        let ids = |pools: &IdlePools, tier| -> Vec<u32> {
            pools.by_idle_start(tier, slot).map(|(_, v)| v.id.0).collect()
        };
        assert_eq!(ids(&pools, TierId::PRIVATE), vec![9, 1], "oldest idle first, not lowest id");
        assert_eq!(ids(&pools, TierId::PUBLIC), vec![4]);
        assert_eq!(pools.take_min(2), Some(key(1)));
        assert_eq!(ids(&pools, TierId::PRIVATE), vec![9]);
        let all: Vec<(u32, VmKey)> = pools.all().collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn the_front_of_each_release_list_knows_its_grid_expiry() {
        let mut pools = pools();
        let slot = shape_slot(4);
        let expiries = |pools: &IdlePools| -> Vec<(usize, f64)> {
            pools.expiries().map(|(tier, _, at)| (tier.0, at.as_tu())).collect()
        };
        assert_eq!(expiries(&pools), vec![]);
        // Idle from 3.2 for 2.0 TU: past the timeout from 5.2, so at 5.5.
        pools.insert(4, key(1), TierId::PRIVATE, SimTime::new(3.2));
        pools.insert(4, key(2), TierId::PRIVATE, SimTime::new(4.0));
        assert_eq!(expiries(&pools), vec![(0, 5.5)]);
        // Exactly on the grid counts as expired: 4.0 + 2.0 = 6.0.
        assert!(pools.remove(4, key(1)));
        assert_eq!(expiries(&pools), vec![(0, 6.0)]);
        // Nothing expires before the first grid instant, 1.0.
        pools.insert(4, key(3), TierId::PUBLIC, SimTime::new(0.1));
        assert_eq!(expiries(&pools), vec![(0, 6.0), (1, 1.0)]);
        assert_eq!(pools.expiries().map(|(_, s, _)| s).collect::<Vec<_>>(), vec![slot, slot]);
        assert_eq!(pools.take_min(4), Some(key(2)));
        assert_eq!(pools.take_min(4), Some(key(3)));
        assert_eq!(expiries(&pools), vec![]);
    }

    /// The release index as a naive model: per tier, every idle worker
    /// as `(since, vm, cores)` in the order it became idle; a shape's
    /// release list is that `Vec` filtered to the shape.
    #[derive(Default)]
    struct NaiveIdle {
        tiers: [Vec<(SimTime, VmKey, u32)>; 2],
    }

    impl NaiveIdle {
        fn list(&self, tier: usize, slot: usize) -> Vec<(SimTime, VmKey)> {
            let cores = SHAPE_CORES[slot];
            self.tiers[tier].iter().filter(|e| e.2 == cores).map(|&(t, v, _)| (t, v)).collect()
        }

        fn take(&mut self, cores: u32, vm: VmKey) -> bool {
            for list in &mut self.tiers {
                if let Some(pos) = list.iter().position(|e| e.1 == vm && e.2 == cores) {
                    list.remove(pos);
                    return true;
                }
            }
            false
        }

        fn take_min(&mut self, cores: u32) -> Option<VmKey> {
            let vm = self.tiers.iter().flatten().filter(|e| e.2 == cores).map(|e| e.1).min()?;
            self.take(cores, vm);
            Some(vm)
        }

        fn expiries(&self) -> Vec<(TierId, usize, SimTime)> {
            let mut out = Vec::new();
            for tier in 0..2 {
                for slot in 0..N_SHAPES {
                    if let Some(&(since, _)) = self.list(tier, slot).first() {
                        let at = grid_expiry(since, idle_timeout(TierId(tier)));
                        out.push((TierId(tier), slot, at));
                    }
                }
            }
            out
        }
    }

    /// Fails unless the pools and the model agree on every release list,
    /// every expiry and every idle worker.
    fn check_idle(pools: &IdlePools, naive: &NaiveIdle) -> Result<(), TestCaseError> {
        for tier in 0..2 {
            for slot in 0..N_SHAPES {
                let got: Vec<(SimTime, VmKey)> = pools.by_idle_start(TierId(tier), slot).collect();
                prop_assert_eq!((tier, slot, got), (tier, slot, naive.list(tier, slot)));
            }
        }
        prop_assert_eq!(pools.expiries().collect::<Vec<_>>(), naive.expiries());
        let mut all: Vec<(u32, VmKey)> = pools.all().collect();
        let mut want: Vec<(u32, VmKey)> =
            naive.tiers.iter().flatten().map(|&(_, v, c)| (c, v)).collect();
        all.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(all, want);
        Ok(())
    }

    proptest! {
        /// Random hires, lowest-id takes, returns to idle, removals and
        /// release sweeps over reused VM slots leave the pools exactly
        /// where the naive two-tier model is: the same pops, the same
        /// release lists in idle-start order, the same expired prefixes
        /// and the same expiries.
        #[test]
        fn prop_idle_pools_match_a_naive_two_tier_model(
            ops in proptest::collection::vec((0u8..9, 0usize..64, 0usize..8), 1..200),
        ) {
            let mut pools = IdlePools::new();
            let mut naive = NaiveIdle::default();
            // Live workers: (key, cores, tier, idle).
            let mut vms: Vec<(VmKey, u32, TierId, bool)> = Vec::new();
            let (mut free, mut next_slot, mut next_id) = (Vec::new(), 0u32, 0u32);
            let mut now = SimTime::ZERO;
            for &(op, a, b) in &ops {
                let cores = [2, 4, 8][b % 3];
                match op {
                    // Hire: a new VM id, often in a released VM's slot.
                    0 | 1 => {
                        let slot = if a % 3 != 0 && !free.is_empty() {
                            free.swap_remove(a % free.len())
                        } else {
                            next_slot += 1;
                            next_slot - 1
                        };
                        let vm = VmKey { id: VmId(next_id), slot };
                        next_id += 1;
                        let tier = TierId(a % 2);
                        pools.insert(cores, vm, tier, now);
                        naive.tiers[tier.0].push((now, vm, cores));
                        vms.push((vm, cores, tier, true));
                    }
                    // Take the lowest-id idle worker of a shape.
                    2 | 3 => {
                        let got = pools.take_min(cores);
                        prop_assert_eq!(got, naive.take_min(cores));
                        if let Some(vm) = got {
                            vms.iter_mut().find(|e| e.0 == vm).expect("live").3 = false;
                        }
                    }
                    // A busy worker goes idle again.
                    4 => {
                        let busy: Vec<usize> = (0..vms.len()).filter(|&i| !vms[i].3).collect();
                        if let Some(&i) = busy.get(a % busy.len().max(1)) {
                            let (vm, cores, tier, _) = vms[i];
                            pools.insert(cores, vm, tier, now);
                            naive.tiers[tier.0].push((now, vm, cores));
                            vms[i].3 = true;
                        }
                    }
                    // Remove a live worker (idle or not, right shape or
                    // not) and release it if it was idle.
                    5 => {
                        if vms.is_empty() {
                            continue;
                        }
                        let i = a % vms.len();
                        let (vm, shape, ..) = vms[i];
                        let asked = if b % 4 == 0 { cores } else { shape };
                        let removed = pools.remove(asked, vm);
                        prop_assert_eq!(removed, naive.take(asked, vm));
                        if removed {
                            free.push(vm.slot);
                            vms.swap_remove(i);
                        }
                    }
                    6 => now = SimTime::new(now.as_tu() + 0.3 * b as f64),
                    // A release sweep: walk each list's expired prefix and
                    // release its lowest ids, as the floor rule may.
                    _ => {
                        for tier in [TierId::PRIVATE, TierId::PUBLIC] {
                            let timeout = idle_timeout(tier);
                            for (slot, &cores) in SHAPE_CORES.iter().enumerate() {
                                let mut expired: Vec<VmKey> = pools
                                    .by_idle_start(tier, slot)
                                    .take_while(|&(since, _)| idle_expired(since, timeout, now))
                                    .map(|(_, vm)| vm)
                                    .collect();
                                let want: Vec<VmKey> = naive
                                    .list(tier.0, slot)
                                    .into_iter()
                                    .take_while(|&(since, _)| idle_expired(since, timeout, now))
                                    .map(|(_, vm)| vm)
                                    .collect();
                                prop_assert_eq!(&expired, &want);
                                expired.sort_unstable();
                                expired.truncate(a % (expired.len() + 1));
                                for vm in expired {
                                    prop_assert!(pools.remove(cores, vm));
                                    prop_assert!(naive.take(cores, vm));
                                    free.push(vm.slot);
                                    vms.retain(|e| e.0 != vm);
                                }
                            }
                        }
                    }
                }
                check_idle(&pools, &naive)?;
            }
        }
    }

    #[test]
    fn grid_instants_are_found_from_either_side() {
        assert_eq!(next_grid(SimTime::ZERO, true), SimTime::new(1.0));
        assert_eq!(next_grid(SimTime::new(1.0), true), SimTime::new(1.0));
        assert_eq!(next_grid(SimTime::new(1.0), false), SimTime::new(1.5));
        assert_eq!(next_grid(SimTime::new(7.01), true), SimTime::new(7.5));
        assert_eq!(next_grid(SimTime::new(7.01), false), SimTime::new(7.5));
    }

    #[test]
    fn idle_pool_slot_iteration_ascends() {
        let mut pools = pools();
        for id in [6u32, 1, 4] {
            pools.insert(16, key(id), TierId::PRIVATE, SimTime::ZERO);
        }
        let ids: Vec<u32> = pools.iter_slot_asc(4).map(|v| v.id.0).collect();
        assert_eq!(ids, vec![1, 4, 6]);
        assert_eq!(pools.len_of_slot(4), 3);
    }

    #[test]
    fn busy_table_tracks_min_wait_per_shape() {
        let mut busy = BusyTable::new();
        let now = SimTime::new(10.0);
        busy.insert(key(0), SimTime::new(15.0), 4);
        busy.insert(key(1), SimTime::new(12.0), 4);
        busy.insert(key(2), SimTime::new(11.0), 8);
        assert_eq!(busy.min_wait_for_cores(4, now), Some(2.0));
        assert_eq!(busy.min_wait_for_cores(8, now), Some(1.0));
        assert_eq!(busy.min_wait_for_cores(16, now), None);
        assert!(busy.remove(key(1), 4));
        assert_eq!(busy.min_wait_for_cores(4, now), Some(5.0));
        assert!(!busy.remove(key(1), 4));
        assert!(!busy.remove(key(2), 4), "a busy VM of another shape");
        assert_eq!((busy.removed(4), busy.removed(8)), (1, 0));
    }

    /// The busy set as a naive model: every busy VM as `(vm, until,
    /// cores)` in one list, scanned whole.
    #[derive(Default)]
    struct NaiveBusy {
        entries: Vec<(VmKey, SimTime, u32)>,
        removed: [u64; N_SHAPES],
    }

    impl NaiveBusy {
        fn remove(&mut self, vm: VmKey, cores: u32) -> bool {
            let Some(pos) = self.entries.iter().position(|e| e.0 == vm && e.2 == cores) else {
                return false;
            };
            self.entries.remove(pos);
            self.removed[shape_slot(cores)] += 1;
            true
        }

        fn min_wait_for_cores(&self, cores: u32, now: SimTime) -> Option<f64> {
            let waits = self.entries.iter().filter(|e| e.2 == cores).map(|e| (e.1 - now).as_tu());
            waits.reduce(f64::min)
        }
    }

    proptest! {
        /// Random busy marks and clears across shapes, over reused VM
        /// slots and with stale keys and wrong shapes, leave the
        /// per-shape lists answering exactly what the naive whole-set
        /// scan does: every shape's soonest finish (bit for bit), every
        /// removal count and every `remove` result.
        #[test]
        fn prop_busy_table_matches_a_naive_all_entries_model(
            ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64), 1..200),
        ) {
            let mut busy = BusyTable::new();
            let mut naive = NaiveBusy::default();
            // Busy VMs as (key, cores); the keys of VMs since released.
            let mut live: Vec<(VmKey, u32)> = Vec::new();
            let mut stale: Vec<VmKey> = Vec::new();
            let (mut free, mut next_slot, mut next_id) = (Vec::new(), 0u32, 0u32);
            let now = SimTime::new(3.0);
            for &(op, a, b) in &ops {
                let cores = SHAPE_CORES[b % N_SHAPES];
                match op {
                    // A fresh VM goes busy, often in a released VM's slot.
                    0..=2 => {
                        let slot = if a % 3 != 0 && !free.is_empty() {
                            free.swap_remove(a % free.len())
                        } else {
                            next_slot += 1;
                            next_slot - 1
                        };
                        let vm = VmKey { id: VmId(next_id), slot };
                        next_id += 1;
                        let until = SimTime::new(3.0 + 0.37 * a as f64 + 0.011 * b as f64);
                        busy.insert(vm, until, cores);
                        naive.entries.push((vm, until, cores));
                        live.push((vm, cores));
                    }
                    // A busy VM finishes: cleared at its own shape, or
                    // asked for at a wrong one first.
                    3 | 4 => {
                        if live.is_empty() {
                            continue;
                        }
                        let i = a % live.len();
                        let (vm, shape) = live[i];
                        if op == 4 && cores != shape {
                            prop_assert!(!busy.remove(vm, cores), "a busy VM of another shape");
                            prop_assert!(!naive.remove(vm, cores));
                        }
                        prop_assert!(busy.remove(vm, shape));
                        prop_assert!(naive.remove(vm, shape));
                        live.swap_remove(i);
                        free.push(vm.slot);
                        stale.push(vm);
                    }
                    // A released VM's key, whose slot may now be busy again.
                    _ => {
                        if let Some(&vm) = stale.get(a % stale.len().max(1)) {
                            prop_assert!(!busy.remove(vm, cores), "a stale key is never busy");
                            prop_assert!(!naive.remove(vm, cores));
                        }
                    }
                }
                for &c in &SHAPE_CORES {
                    let got = busy.min_wait_for_cores(c, now).map(f64::to_bits);
                    let want = naive.min_wait_for_cores(c, now).map(f64::to_bits);
                    prop_assert_eq!((c, got), (c, want));
                    prop_assert_eq!((c, busy.removed(c)), (c, naive.removed[shape_slot(c)]));
                }
            }
        }
    }

    #[test]
    fn busy_table_swap_remove_keeps_positions() {
        let mut busy = BusyTable::new();
        for i in 0..5u32 {
            busy.insert(key(i), SimTime::new(20.0 + i as f64), 2);
        }
        assert!(busy.remove(key(0), 2)); // swap-remove moves key(4) into slot 0
        assert!(busy.remove(key(4), 2));
        assert!(busy.remove(key(2), 2));
        let now = SimTime::ZERO;
        assert_eq!(busy.min_wait_for_cores(2, now), Some(21.0)); // key(1)
    }

    #[test]
    fn booting_counts_round_trip() {
        let mut booting = BootingCounts::new();
        assert_eq!(booting.get(4), 0);
        booting.inc(4);
        booting.inc(4);
        booting.inc(16);
        assert_eq!(booting.get(4), 2);
        assert_eq!(booting.get(16), 1);
        assert_eq!(booting.get(1), 0);
        booting.dec(4);
        assert_eq!(booting.get(4), 1);
        assert_eq!((booting.finished(4), booting.finished(16)), (1, 0));
    }

    #[test]
    fn class_counts_round_trip() {
        let mut counts = ClassCounts::new();
        assert_eq!(counts.get(3, 8), 0);
        counts.increment(3, 8);
        counts.increment(3, 8);
        assert_eq!(counts.get(3, 8), 2);
        counts.decrement_saturating(3, 8);
        assert_eq!(counts.get(3, 8), 1);
        counts.decrement_saturating(0, 1); // never incremented: no-op
        assert_eq!(counts.get(0, 1), 0);
    }

    #[test]
    fn busy_table_ignores_an_earlier_vm_of_the_same_slot() {
        let mut busy = BusyTable::new();
        let (old, new) = (VmKey { id: VmId(3), slot: 0 }, VmKey { id: VmId(8), slot: 0 });
        busy.insert(new, SimTime::new(4.0), 2);
        assert!(!busy.remove(old, 2), "a released VM's key is never busy");
        assert_eq!(busy.min_wait_for_cores(2, SimTime::ZERO), Some(4.0));
        assert!(busy.remove(new, 2));
    }

    #[test]
    fn reservations_answer_only_for_the_key_they_were_given() {
        let mut reserved = Reservations::default();
        let (a, b) = (TaskClass { stage: 0, cores: 4 }, TaskClass { stage: 2, cores: 16 });
        let (old, new) = (VmKey { id: VmId(1), slot: 2 }, VmKey { id: VmId(5), slot: 2 });
        reserved.insert(key(0), a);
        reserved.insert(new, b);
        assert_eq!(reserved.remove(old), None, "an earlier VM of the slot finds nothing");
        assert_eq!(reserved.remove(key(1)), None);
        assert_eq!(reserved.remove(new), Some(b));
        assert_eq!(reserved.remove(new), None);
        assert_eq!(reserved.remove(key(0)), Some(a));
    }

    #[test]
    fn admission_backlog_is_fifo() {
        use scan_workload::job::JobId;
        let mut b = AdmissionBacklog::default();
        assert!(b.is_empty());
        b.push(Job::new(JobId(0), 1.0, SimTime::ZERO));
        b.push(Job::new(JobId(1), 2.0, SimTime::ZERO));
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop().expect("two queued").id, JobId(0));
        assert_eq!(b.pop().expect("one queued").id, JobId(1));
        assert!(b.pop().is_none());
    }

    #[test]
    fn standing_targets_iterate_ascending_cores() {
        let mut t = StandingTargets::default();
        t.set(16, 3);
        t.set(1, 2);
        let pairs: Vec<(u32, u32)> = t.iter().filter(|&(_, n)| n > 0).collect();
        assert_eq!(pairs, vec![(1, 2), (16, 3)]);
        assert_eq!(t.floor_for(16), 3);
        t.clear();
        assert_eq!(t.floor_for(16), 0);
    }
}
