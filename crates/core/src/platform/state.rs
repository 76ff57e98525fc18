//! Dense hot-path state containers for the platform (DESIGN §"Hot-path
//! data structures & determinism invariants").
//!
//! The dispatch/scaling inner loop runs once per event over these four
//! structures; profiling showed the old map-based representations
//! (`BTreeMap`/`HashMap` keyed by ids) spending most of the loop in
//! pointer-chasing descents. Ids in this codebase are *dense monotone
//! u32s* (jobs number from 0 in arrival order, VMs in hire order, and
//! neither is ever reused within a session), so every map below is a
//! `Vec` indexed by id slot, and every per-shape map is a fixed
//! five-slot array over [`SHAPE_CORES`].
//!
//! Determinism invariants preserved from the map era:
//! - **Idle-worker selection is lowest-id-first** ([`IdlePools::take_min`]
//!   pops the minimum id, exactly like `BTreeSet::iter().next()` did).
//! - **Shape iteration is ascending cores** (slot order = `[1,2,4,8,16]`).
//! - **Busy-set scans are order-insensitive** (min over f64 finish times
//!   commutes), so [`BusyTable`]'s swap-remove reordering is invisible.

use scan_cloud::vm::VmId;
use scan_sched::queue::{shape_slot, N_SHAPES, SHAPE_CORES};
use scan_sim::SimTime;
use scan_workload::job::Job;
use std::collections::VecDeque;

/// Per-shape pools of idle workers with O(1) deterministic min-id pop.
///
/// Each pool is kept sorted *descending* so `take_min` is a plain
/// `Vec::pop`. Inserts binary-search their position; pools hold tens of
/// VMs, so the occasional memmove is far cheaper than the tree nodes it
/// replaces.
#[derive(Debug, Default)]
pub(super) struct IdlePools {
    pools: [Vec<VmId>; N_SHAPES],
}

impl IdlePools {
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Adds an idle worker to its shape pool.
    pub(super) fn insert(&mut self, cores: u32, vm: VmId) {
        let pool = &mut self.pools[shape_slot(cores)];
        let pos = pool.partition_point(|&v| v > vm);
        debug_assert!(pool.get(pos) != Some(&vm), "double insert of idle VM");
        pool.insert(pos, vm);
    }

    /// Removes a specific worker (e.g. picked for reshape or release).
    /// Returns whether it was present.
    pub(super) fn remove(&mut self, cores: u32, vm: VmId) -> bool {
        let pool = &mut self.pools[shape_slot(cores)];
        let pos = pool.partition_point(|&v| v > vm);
        if pool.get(pos) == Some(&vm) {
            pool.remove(pos);
            true
        } else {
            false
        }
    }

    /// Pops the lowest-id idle worker of a shape — the deterministic
    /// "lowest id first" selection rule.
    pub(super) fn take_min(&mut self, cores: u32) -> Option<VmId> {
        self.pools[shape_slot(cores)].pop()
    }

    /// Idle workers of one shape slot.
    pub(super) fn len_of_slot(&self, slot: usize) -> usize {
        self.pools[slot].len()
    }

    /// Ascending-id iteration over one shape slot's pool.
    pub(super) fn iter_slot_asc(&self, slot: usize) -> impl Iterator<Item = VmId> + '_ {
        self.pools[slot].iter().rev().copied()
    }
}

/// The busy set: which VMs are running tasks, until when, and at what
/// shape — a slot map over VM ids with an unordered dense entry list.
///
/// The scaling decision's projected-wait scan reads `(until, cores)` for
/// every busy VM; caching cores here (a VM cannot reshape while busy)
/// removes the per-entry provider lookup that used to dominate the scan.
#[derive(Debug, Default)]
pub(super) struct BusyTable {
    /// `(vm, until, cores)`, unordered; removal is swap-remove.
    entries: Vec<(VmId, SimTime, u32)>,
    /// VM slot → index into `entries`; `u32::MAX` = not busy.
    pos: Vec<u32>,
}

const NOT_BUSY: u32 = u32::MAX;

impl BusyTable {
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Marks a VM busy until `until`.
    pub(super) fn insert(&mut self, vm: VmId, until: SimTime, cores: u32) {
        if self.pos.len() <= vm.slot() {
            self.pos.resize(vm.slot() + 1, NOT_BUSY);
        }
        debug_assert_eq!(self.pos[vm.slot()], NOT_BUSY, "VM already busy");
        self.pos[vm.slot()] = self.entries.len() as u32;
        self.entries.push((vm, until, cores));
    }

    /// Clears a VM's busy mark. Returns whether it was busy.
    pub(super) fn remove(&mut self, vm: VmId) -> bool {
        let Some(&idx) = self.pos.get(vm.slot()) else {
            return false;
        };
        if idx == NOT_BUSY {
            return false;
        }
        self.pos[vm.slot()] = NOT_BUSY;
        self.entries.swap_remove(idx as usize);
        if let Some(&(moved, _, _)) = self.entries.get(idx as usize) {
            self.pos[moved.slot()] = idx;
        }
        true
    }

    /// Soonest finish time among busy VMs of the given shape, as a span
    /// from `now`. Order-insensitive (f64 min), so the unordered entry
    /// list cannot perturb determinism.
    pub(super) fn min_wait_for_cores(&self, cores: u32, now: SimTime) -> Option<f64> {
        let mut best = f64::INFINITY;
        for &(_, until, c) in &self.entries {
            if c == cores {
                best = best.min((until - now).as_tu());
            }
        }
        best.is_finite().then_some(best)
    }
}

/// Per-class counters stored densely (stage rows × shape slots), used
/// for both the in-flight-hire (`pending`) accounting.
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
    }

    /// VMs of `cores` currently booting.
    pub(super) fn get(&self, cores: u32) -> u32 {
        self.counts[shape_slot(cores)]
    }
}

/// A dense append-mostly arena keyed by monotone u32 id slots (job
/// runs, per-VM reservations). `None` = never inserted or removed; ids
/// are never reused, so a freed slot stays `None` for the session.
#[derive(Debug)]
pub(super) struct SlotArena<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for SlotArena<T> {
    fn default() -> Self {
        SlotArena { slots: Vec::new() }
    }
}

impl<T> SlotArena<T> {
    pub(super) fn new() -> Self {
        Self::default()
    }

    /// Inserts at `slot`, growing the arena as needed. Panics on
    /// occupied slots — ids are unique by construction.
    pub(super) fn insert(&mut self, slot: usize, value: T) {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        debug_assert!(self.slots[slot].is_none(), "slot arena id reused");
        self.slots[slot] = Some(value);
    }

    #[inline]
    pub(super) fn get(&self, slot: usize) -> Option<&T> {
        self.slots.get(slot)?.as_ref()
    }

    #[inline]
    pub(super) fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.slots.get_mut(slot)?.as_mut()
    }

    pub(super) fn remove(&mut self, slot: usize) -> Option<T> {
        self.slots.get_mut(slot)?.take()
    }

    /// Highest slot ever allocated plus one (the id-space bound, for
    /// sizing parallel stamp arrays).
    pub(super) fn slot_bound(&self) -> usize {
        self.slots.len()
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

    #[test]
    fn idle_pool_pops_lowest_id_first() {
        let mut pools = IdlePools::new();
        for id in [7u32, 2, 9, 4] {
            pools.insert(4, VmId(id));
        }
        assert_eq!(pools.take_min(4), Some(VmId(2)));
        assert_eq!(pools.take_min(4), Some(VmId(4)));
        pools.insert(4, VmId(1));
        assert_eq!(pools.take_min(4), Some(VmId(1)));
        assert_eq!(pools.take_min(4), Some(VmId(7)));
        assert_eq!(pools.take_min(4), Some(VmId(9)));
        assert_eq!(pools.take_min(4), None);
    }

    #[test]
    fn idle_pool_remove_specific() {
        let mut pools = IdlePools::new();
        pools.insert(8, VmId(3));
        pools.insert(8, VmId(5));
        assert!(pools.remove(8, VmId(3)));
        assert!(!pools.remove(8, VmId(3)));
        assert_eq!(pools.take_min(8), Some(VmId(5)));
    }

    #[test]
    fn idle_pool_slot_iteration_ascends() {
        let mut pools = IdlePools::new();
        for id in [6u32, 1, 4] {
            pools.insert(16, VmId(id));
        }
        let ids: Vec<u32> = pools.iter_slot_asc(4).map(|v| v.0).collect();
        assert_eq!(ids, vec![1, 4, 6]);
        assert_eq!(pools.len_of_slot(4), 3);
    }

    #[test]
    fn busy_table_tracks_min_wait_per_shape() {
        let mut busy = BusyTable::new();
        let now = SimTime::new(10.0);
        busy.insert(VmId(0), SimTime::new(15.0), 4);
        busy.insert(VmId(1), SimTime::new(12.0), 4);
        busy.insert(VmId(2), SimTime::new(11.0), 8);
        assert_eq!(busy.min_wait_for_cores(4, now), Some(2.0));
        assert_eq!(busy.min_wait_for_cores(8, now), Some(1.0));
        assert_eq!(busy.min_wait_for_cores(16, now), None);
        assert!(busy.remove(VmId(1)));
        assert_eq!(busy.min_wait_for_cores(4, now), Some(5.0));
        assert!(!busy.remove(VmId(1)));
    }

    #[test]
    fn busy_table_swap_remove_keeps_positions() {
        let mut busy = BusyTable::new();
        for i in 0..5u32 {
            busy.insert(VmId(i), SimTime::new(20.0 + i as f64), 2);
        }
        assert!(busy.remove(VmId(0))); // swap-remove moves VmId(4) into slot 0
        assert!(busy.remove(VmId(4)));
        assert!(busy.remove(VmId(2)));
        let now = SimTime::ZERO;
        assert_eq!(busy.min_wait_for_cores(2, now), Some(21.0)); // VmId(1)
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
    fn slot_arena_never_resurrects_removed_slots() {
        let mut arena: SlotArena<&str> = SlotArena::new();
        arena.insert(0, "a");
        arena.insert(3, "b");
        assert_eq!(arena.slot_bound(), 4);
        assert_eq!(arena.get(1), None);
        assert_eq!(arena.remove(3), Some("b"));
        assert_eq!(arena.remove(3), None);
        assert_eq!(arena.get(3), None);
        assert_eq!(arena.get(0), Some(&"a"));
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
