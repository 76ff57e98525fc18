//! The pending-event set: a deterministic priority queue over [`SimTime`].
//!
//! Simultaneous events are delivered in the order they were scheduled
//! (FIFO tie-breaking via a monotonic sequence number), which makes whole
//! simulation runs bit-reproducible — a requirement inherited from the
//! paper's "repeat 10 times, report mean ± σ" methodology, where each
//! repetition must be a pure function of its seed.
//!
//! Besides ordinary events, each tenant may hold one pending *wakeup*
//! ([`Calendar::wake`]): it carries a sequence number above every
//! ordinary one, so it fires after every other event of its tenant at the
//! same instant, and setting it again moves it (earlier or later) instead
//! of adding a second one. A moved wakeup's old heap entry is superseded
//! and silently dropped; it never reaches the caller or the clock.
//!
//! The heap is a plain binary min-heap over `{ key, event }` entries. The
//! ordering key is packed once, when an event is scheduled, so a sift
//! compares one stored `u128` per step and moves 32-byte entries (for a
//! 16-byte payload); [`ScheduledEvent`] is unpacked from the key only
//! when an event is popped.
//!
//! Beside the heap runs a FIFO *lane* for events a caller schedules in
//! key order ([`Calendar::schedule_in_order_for`]), such as completions
//! that follow their cause by one fixed delay. An event whose key is
//! above the lane's tail is appended there in O(1) and never sifted; one
//! that is not falls back to the heap. A pop takes the smaller of the
//! heap's top and the lane's front, so the lane changes no pop order,
//! only its cost.

use crate::tenant::TenantId;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Sequence numbers occupy the low 48 bits of the heap key; the 16 bits
/// above them hold the scheduling tenant. 2⁴⁸ events per run is far
/// beyond any realistic simulation, and the split keeps the whole key a
/// single `u128` compare.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
/// Wakeups take the upper half of the sequence space, numbered in the
/// order they were set: above any ordinary event's, so a wakeup is the
/// last of its tenant's events at its instant, and distinct from every
/// superseded wakeup of the tenant, so a wakeup moved back to an instant
/// it left never shares a key with its stale entry there.
const WAKE_SEQ: u64 = 1 << (SEQ_BITS - 1);
/// `Calendar::wakes` value of a tenant with no pending wakeup. No wakeup
/// key is zero: its sequence bits are at least [`WAKE_SEQ`].
const NO_WAKE: u128 = 0;

/// The heap ordering key, packed into one integer compare: fire-time bits
/// in the high half, tenant then sequence number in the low half.
/// `SimTime` is always finite and non-negative, so the IEEE-754 bit
/// pattern of `at` orders exactly like the float itself — one
/// branch-free `u128` comparison replaces a float compare plus a
/// tie-break. Among simultaneous events, lower tenants fire first and,
/// within one tenant, scheduling order wins; for single-tenant runs
/// (tenant always [`TenantId::SOLO`]) the key is numerically identical to
/// the pre-fleet `time ‖ seq` packing, so event orders — and golden
/// traces — are unchanged. Computed once per scheduled event and stored
/// in its heap entry.
#[inline]
fn pack(at: SimTime, tenant: TenantId, seq: u64) -> u128 {
    debug_assert!(seq <= SEQ_MASK, "calendar sequence overflowed 48 bits");
    ((at.as_tu().to_bits() as u128) << 64) | ((tenant.0 as u128) << SEQ_BITS) | seq as u128
}

/// The fire time a key was packed from.
#[inline]
fn key_at(key: u128) -> SimTime {
    SimTime::new(f64::from_bits((key >> 64) as u64))
}

/// The tenant a key was packed from.
#[inline]
fn key_tenant(key: u128) -> TenantId {
    TenantId((key >> SEQ_BITS) as u16)
}

/// The sequence number a key was packed from.
#[inline]
fn key_seq(key: u128) -> u64 {
    key as u64 & SEQ_MASK
}

/// An event with the instant at which it fires.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling sequence number; earlier-scheduled events fire first
    /// among simultaneous same-tenant ones. A wakeup's is above every
    /// ordinary event's.
    pub seq: u64,
    /// The tenant that scheduled the event ([`TenantId::SOLO`] for
    /// single-tenant simulations).
    pub tenant: TenantId,
    /// The event payload.
    pub event: E,
}

/// One heap entry: the packed ordering key and the payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    key: u128,
    event: E,
}

/// A deterministic event calendar.
///
/// ```
/// use scan_sim::{Calendar, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::new(2.0), "late");
/// cal.schedule(SimTime::new(1.0), "early");
/// cal.schedule(SimTime::new(1.0), "early-second");
///
/// assert_eq!(cal.pop().unwrap().event, "early");
/// assert_eq!(cal.pop().unwrap().event, "early-second");
/// assert_eq!(cal.pop().unwrap().event, "late");
/// assert!(cal.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    /// A binary min-heap on `key`: every entry's key is at most its
    /// children's (`2i + 1`, `2i + 2`). Keys are unique.
    heap: Vec<Entry<E>>,
    /// Ordinary events in strictly ascending key order (appended only
    /// above the tail); never a wakeup.
    lane: VecDeque<Entry<E>>,
    next_seq: u64,
    /// Wakeups set so far: the next wakeup's sequence number is
    /// `WAKE_SEQ + next_wake`.
    next_wake: u64,
    now: SimTime,
    /// Each tenant's pending wakeup key, by tenant index ([`NO_WAKE`]
    /// for none). A wakeup entry in the heap is live iff its key is its
    /// tenant's entry here; the heap's top is never a superseded one.
    wakes: Vec<u128>,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Bytes one pending event takes in the heap: the 16-byte packed key
    /// plus the payload, padded to the key's alignment.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Creates an empty calendar with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar with pre-allocated capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        Calendar {
            heap: Vec::with_capacity(n),
            lane: VecDeque::new(),
            next_seq: 0,
            next_wake: 0,
            now: SimTime::ZERO,
            wakes: Vec::new(),
        }
    }

    /// The current simulation instant: the fire time of the last popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at instant `at`, tagged with the
    /// implicit single-tenant id ([`TenantId::SOLO`]).
    ///
    /// # Panics
    /// Panics if `at` is in the past — causality violations are programming
    /// errors, not recoverable conditions.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_for(at, TenantId::SOLO, event);
    }

    /// Schedules `event` to fire at instant `at` on behalf of `tenant`.
    ///
    /// Simultaneous events are delivered tenant-major: all of tenant 0's
    /// events at an instant, then tenant 1's, and so on — with FIFO
    /// scheduling order within each tenant. This makes fleet interleaving
    /// a pure function of `(time, tenant, schedule order)`, independent
    /// of how tenants happened to be stepped.
    ///
    /// # Panics
    /// Panics if `at` is in the past — causality violations are programming
    /// errors, not recoverable conditions.
    pub fn schedule_for(&mut self, at: SimTime, tenant: TenantId, event: E) {
        let key = self.next_key(at, tenant);
        self.push(key, event);
    }

    /// Schedules `event` at `at` on behalf of `tenant`, exactly as
    /// [`Calendar::schedule_for`] does, for a caller whose calls come in
    /// ascending `(at, tenant)` order: the event then joins the lane in
    /// O(1) instead of the heap. An event out of that order falls back to
    /// the heap, so the order is a cost contract, never a correctness
    /// one.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_in_order_for(&mut self, at: SimTime, tenant: TenantId, event: E) {
        let key = self.next_key(at, tenant);
        if self.lane.back().is_none_or(|tail| tail.key < key) {
            self.lane.push_back(Entry { key, event });
        } else {
            self.push(key, event);
        }
    }

    /// The key of the next ordinary event at `at` for `tenant`.
    #[inline]
    fn next_key(&mut self, at: SimTime, tenant: TenantId) -> u128 {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({} < now {})",
            at.as_tu(),
            self.now.as_tu()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < WAKE_SEQ, "calendar sequence reached the wakeup range");
        pack(at, tenant, seq)
    }

    /// Sets `tenant`'s one pending wakeup to fire `event` at `at`,
    /// replacing any wakeup it already has (earlier or later).
    ///
    /// A wakeup fires after every other event of `tenant` at `at`, even
    /// ones scheduled later; among tenants it keeps the tenant-major
    /// order of [`Calendar::schedule_for`].
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn wake(&mut self, at: SimTime, tenant: TenantId, event: E) {
        assert!(
            at >= self.now,
            "cannot wake in the past ({} < now {})",
            at.as_tu(),
            self.now.as_tu()
        );
        if self.wakes.len() <= tenant.index() {
            self.wakes.resize(tenant.index() + 1, NO_WAKE);
        }
        let pending = self.wakes[tenant.index()];
        if pending != NO_WAKE && key_at(pending) == at {
            return;
        }
        let seq = WAKE_SEQ + self.next_wake;
        self.next_wake += 1;
        let key = pack(at, tenant, seq);
        self.wakes[tenant.index()] = key;
        self.push(key, event);
        self.drop_superseded();
    }

    /// Cancels `tenant`'s pending wakeup, if it has one.
    pub fn cancel_wake(&mut self, tenant: TenantId) {
        if let Some(pending) = self.wakes.get_mut(tenant.index()) {
            if std::mem::replace(pending, NO_WAKE) != NO_WAKE {
                self.drop_superseded();
            }
        }
    }

    /// Whether the entry keyed `key` will fire: an ordinary event, or its
    /// tenant's pending wakeup.
    #[inline]
    fn is_live(&self, key: u128) -> bool {
        key_seq(key) < WAKE_SEQ || self.wakes[key_tenant(key).index()] == key
    }

    /// Pops superseded wakeups off the top of the heap, so the top is
    /// always an event that will fire.
    #[inline]
    fn drop_superseded(&mut self) {
        while self.heap.first().is_some_and(|top| !self.is_live(top.key)) {
            self.pop_entry();
        }
    }

    /// The smallest pending key: the heap's top (known live) or the
    /// lane's front.
    #[inline]
    fn peek_key(&self) -> Option<u128> {
        match (self.heap.first(), self.lane.front()) {
            (Some(top), Some(front)) => Some(top.key.min(front.key)),
            (top, front) => top.or(front).map(|e| e.key),
        }
    }

    /// Pops the smaller of the heap's top (known live) and the lane's
    /// front, clearing its tenant's wakeup if it is one.
    #[inline]
    fn take_top(&mut self) -> Option<ScheduledEvent<E>> {
        let from_lane = match (self.heap.first(), self.lane.front()) {
            (Some(top), Some(front)) => front.key < top.key,
            (top, _) => top.is_none(),
        };
        let Entry { key, event } = if from_lane {
            self.lane.pop_front()?
        } else {
            let entry = self.pop_entry()?;
            if key_seq(entry.key) >= WAKE_SEQ {
                self.wakes[key_tenant(entry.key).index()] = NO_WAKE;
            }
            self.drop_superseded();
            entry
        };
        let (tenant, seq) = (key_tenant(key), key_seq(key));
        Some(ScheduledEvent { at: key_at(key), seq, tenant, event })
    }

    /// Pops the next event in (time, tenant, schedule-order) order and
    /// advances the clock to its fire time. Returns `None` when the
    /// calendar is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.take_top()?;
        debug_assert!(ev.at >= self.now);
        self.now = ev.at;
        Some(ev)
    }

    /// Pops the next event *and every event simultaneous with it* into
    /// `out` (cleared first), in pop order, advancing the clock once.
    /// Returns the number of events popped (zero when the calendar is
    /// empty).
    ///
    /// Only equivalent to one-at-a-time popping while handlers schedule
    /// nothing at the popped instant: a wakeup set at that instant for a
    /// tenant ordered inside the batch would fire after the whole batch.
    /// The platform's event loop therefore pops one at a time.
    pub fn pop_batch(&mut self, out: &mut Vec<ScheduledEvent<E>>) -> usize {
        out.clear();
        let Some(first) = self.pop() else {
            return 0;
        };
        let at = first.at;
        out.push(first);
        while self.peek_key().is_some_and(|key| key_at(key) == at) {
            out.push(self.take_top().expect("peeked non-empty"));
        }
        out.len()
    }

    /// Drops every pending event and wakeup, keeping the clock where it
    /// is.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.wakes.clear();
    }

    /// Adds an entry and sifts it up to its place.
    #[inline]
    fn push(&mut self, key: u128, event: E) {
        let mut pos = self.heap.len();
        self.heap.push(Entry { key, event });
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[parent].key < key {
                break;
            }
            self.heap.swap(pos, parent);
            pos = parent;
        }
    }

    /// Removes the minimum entry. The last entry takes the root's place,
    /// moves down along the smaller children to a leaf (one branch-free
    /// key compare per level) and then back up to where its key belongs:
    /// the last entry is usually among the latest, so it rarely climbs.
    #[inline]
    fn pop_entry(&mut self) -> Option<Entry<E>> {
        let mut top = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(top);
        }
        std::mem::swap(&mut top, &mut self.heap[0]);
        let heap = &mut self.heap[..];
        let (n, key) = (heap.len(), heap[0].key);
        let mut pos = 0;
        loop {
            let mut child = 2 * pos + 1;
            if child >= n {
                break;
            }
            if child + 1 < n {
                child += (heap[child + 1].key < heap[child].key) as usize;
            }
            heap.swap(pos, child);
            pos = child;
        }
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if heap[parent].key < key {
                break;
            }
            heap.swap(pos, parent);
            pos = parent;
        }
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(3.0), 3u32);
        cal.schedule(SimTime::new(1.0), 1);
        cal.schedule(SimTime::new(2.0), 2);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn negative_zero_pops_as_the_epoch() {
        // The key packs the instant's bits, so a `-0.0` kept as such would
        // sort after every positive instant.
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(5.0), 5u32);
        cal.schedule(SimTime::new(-0.0), 0);
        let order: Vec<(u32, u64)> =
            std::iter::from_fn(|| cal.pop().map(|e| (e.event, e.at.as_tu().to_bits()))).collect();
        assert_eq!(order, vec![(0, 0.0f64.to_bits()), (5, 5.0f64.to_bits())]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100u32 {
            cal.schedule(SimTime::new(5.0), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(1.5), ());
        cal.schedule(SimTime::new(4.0), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::new(1.5));
        cal.pop();
        assert_eq!(cal.now(), SimTime::new(4.0));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(2.0), ());
        cal.pop();
        cal.schedule(SimTime::new(1.0), ());
    }

    #[test]
    fn simultaneous_events_are_tenant_major() {
        let mut cal = Calendar::new();
        // Schedule in scrambled tenant order at one instant.
        cal.schedule_for(SimTime::new(2.0), TenantId(1), 10u32);
        cal.schedule_for(SimTime::new(2.0), TenantId(0), 0);
        cal.schedule_for(SimTime::new(2.0), TenantId(2), 20);
        cal.schedule_for(SimTime::new(2.0), TenantId(1), 11);
        cal.schedule_for(SimTime::new(2.0), TenantId(0), 1);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![0, 1, 10, 11, 20]);
    }

    #[test]
    fn tenant_ordering_yields_to_time() {
        let mut cal = Calendar::new();
        cal.schedule_for(SimTime::new(1.0), TenantId(5), 50u32);
        cal.schedule_for(SimTime::new(2.0), TenantId(0), 0);
        assert_eq!(cal.pop().unwrap().event, 50);
        assert_eq!(cal.pop().unwrap().event, 0);
    }

    #[test]
    fn clear_empties_but_keeps_clock() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(1.0), ());
        cal.schedule(SimTime::new(2.0), ());
        cal.pop();
        cal.clear();
        assert!(cal.pop().is_none());
        assert_eq!(cal.now(), SimTime::new(1.0));
    }

    #[test]
    fn a_wakeup_fires_after_its_tenants_later_scheduled_events() {
        let mut cal = Calendar::new();
        cal.wake(SimTime::new(2.0), TenantId(1), 100u32);
        cal.schedule_for(SimTime::new(2.0), TenantId(1), 10);
        cal.schedule_for(SimTime::new(2.0), TenantId(2), 20);
        cal.schedule_for(SimTime::new(2.0), TenantId(0), 0);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![0, 10, 100, 20]);
    }

    #[test]
    fn a_tenant_holds_one_wakeup_which_moves_both_ways() {
        let mut cal = Calendar::new();
        cal.wake(SimTime::new(5.0), TenantId(0), 5u32);
        cal.wake(SimTime::new(3.0), TenantId(0), 3);
        cal.wake(SimTime::new(4.0), TenantId(0), 4);
        cal.schedule(SimTime::new(6.0), 6);
        let fired: Vec<(f64, u32)> =
            std::iter::from_fn(|| cal.pop().map(|e| (e.at.as_tu(), e.event))).collect();
        assert_eq!(fired, vec![(4.0, 4), (6.0, 6)], "superseded wakeups never fire");
        assert_eq!(cal.now(), SimTime::new(6.0));
        // A fired wakeup is no longer pending, so the same instant can be
        // woken again.
        cal.wake(SimTime::new(6.0), TenantId(0), 7);
        assert_eq!(cal.pop().map(|e| e.event), Some(7));
    }

    #[test]
    fn a_cancelled_wakeup_neither_fires_nor_holds_the_clock() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(1.0), 1u32);
        cal.wake(SimTime::new(9.0), TenantId(3), 9);
        assert_eq!(cal.pop().map(|e| e.event), Some(1));
        cal.cancel_wake(TenantId(3));
        assert!(cal.pop().is_none());
        assert_eq!(cal.now(), SimTime::new(1.0));
    }

    /// Tenant 0's event at t = 1 wakes tenants 1 and 0 at t = 1: tenant
    /// 1's wakeup still fires at 1, before tenant 2's event there, while
    /// tenant 0's own wakeup fires after its event.
    #[test]
    fn a_wakeup_set_at_the_current_instant_keeps_tenant_order() {
        let mut cal = Calendar::new();
        cal.schedule_for(SimTime::new(1.0), TenantId(2), (2, "event"));
        cal.schedule_for(SimTime::new(1.0), TenantId(0), (0, "event"));
        cal.schedule_for(SimTime::new(1.0), TenantId(1), (1, "event"));
        let mut fired = Vec::new();
        while let Some(ev) = cal.pop() {
            let (tenant, what) = ev.event;
            fired.push((ev.at.as_tu(), tenant, what));
            if what == "event" && tenant == 0 {
                cal.wake(ev.at, TenantId(1), (1, "wake"));
                cal.wake(ev.at, TenantId(0), (0, "wake"));
            }
        }
        assert_eq!(
            fired,
            vec![
                (1.0, 0, "event"),
                (1.0, 0, "wake"),
                (1.0, 1, "event"),
                (1.0, 1, "wake"),
                (1.0, 2, "event"),
            ]
        );
    }

    /// The calendar's contract as a sorted map keyed `(time, tenant,
    /// seq)`, where each tenant's one pending wakeup takes the largest
    /// `seq`. Times are quarter-TU ticks, exact in both representations.
    #[derive(Default)]
    struct ModelCalendar {
        events: BTreeMap<(u64, u16, u64), u32>,
        /// Each tenant's pending wakeup instant.
        wakes: BTreeMap<u16, u64>,
        next_seq: u64,
        now: u64,
    }

    const MODEL_WAKE: u64 = u64::MAX;

    impl ModelCalendar {
        fn schedule_for(&mut self, at: u64, tenant: u16, event: u32) {
            self.events.insert((at, tenant, self.next_seq), event);
            self.next_seq += 1;
        }

        fn wake(&mut self, at: u64, tenant: u16, event: u32) {
            if self.wakes.get(&tenant) != Some(&at) {
                self.cancel_wake(tenant);
                self.wakes.insert(tenant, at);
                self.events.insert((at, tenant, MODEL_WAKE), event);
            }
        }

        fn cancel_wake(&mut self, tenant: u16) {
            if let Some(at) = self.wakes.remove(&tenant) {
                self.events.remove(&(at, tenant, MODEL_WAKE));
            }
        }

        /// `(at, tenant, seq or None for a wakeup, event)` of the first
        /// entry.
        fn pop(&mut self) -> Option<(u64, u16, Option<u64>, u32)> {
            let ((at, tenant, seq), event) = self.events.pop_first()?;
            if seq == MODEL_WAKE {
                self.wakes.remove(&tenant);
            }
            self.now = at;
            Some((at, tenant, (seq != MODEL_WAKE).then_some(seq), event))
        }
    }

    fn tick(at: u64) -> SimTime {
        SimTime::new(at as f64 * 0.25)
    }

    /// Pops one event from each and fails unless they agree.
    fn check_pop(cal: &mut Calendar<u32>, model: &mut ModelCalendar) -> Result<(), TestCaseError> {
        let got = cal.pop().map(|e| {
            let seq = (e.seq < WAKE_SEQ).then_some(e.seq);
            (e.at.as_tu().to_bits(), e.tenant.0, seq, e.event)
        });
        let want = model.pop().map(|(at, t, seq, ev)| (tick(at).as_tu().to_bits(), t, seq, ev));
        prop_assert_eq!(got, want);
        prop_assert_eq!(cal.now(), tick(model.now));
        Ok(())
    }

    /// Pops one instant's batch from each and fails unless they agree.
    fn check_pop_batch(
        cal: &mut Calendar<u32>,
        model: &mut ModelCalendar,
    ) -> Result<(), TestCaseError> {
        let mut out = Vec::new();
        let n = cal.pop_batch(&mut out);
        prop_assert_eq!(n, out.len());
        let got: Vec<_> = out
            .iter()
            .map(|e| {
                (e.at.as_tu().to_bits(), e.tenant.0, (e.seq < WAKE_SEQ).then_some(e.seq), e.event)
            })
            .collect();
        let mut want = Vec::new();
        if let Some(first) = model.pop() {
            want.push(first);
            while model.events.first_key_value().is_some_and(|(&(at, ..), _)| at == first.0) {
                want.extend(model.pop());
            }
        }
        let want: Vec<_> = want
            .into_iter()
            .map(|(at, t, seq, ev)| (tick(at).as_tu().to_bits(), t, seq, ev))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(cal.now(), tick(model.now));
        Ok(())
    }

    #[test]
    fn in_order_events_take_the_lane_and_the_rest_fall_back_to_the_heap() {
        let mut cal = Calendar::new();
        cal.schedule_in_order_for(SimTime::new(2.0), TenantId(0), 20u32);
        cal.schedule_in_order_for(SimTime::new(2.0), TenantId(1), 21);
        cal.schedule_in_order_for(SimTime::new(3.0), TenantId(1), 31);
        // Below the lane's tail: an earlier instant, then an earlier
        // tenant at the tail's instant.
        cal.schedule_in_order_for(SimTime::new(1.0), TenantId(0), 10);
        cal.schedule_in_order_for(SimTime::new(3.0), TenantId(0), 30);
        cal.schedule_for(SimTime::new(2.0), TenantId(0), 22);
        assert_eq!((cal.lane.len(), cal.heap.len()), (3, 3));
        let fired: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|e| e.event)).collect();
        assert_eq!(fired, vec![10, 20, 22, 21, 30, 31]);
    }

    proptest! {
        /// Random schedules, in-order-lane schedules (at a fixed delay,
        /// out of order only across tenants, or at any delay, so the heap
        /// fallback runs), wakeups (set, moved earlier, later or back to
        /// an instant they left) and cancellations across tenants pop
        /// exactly as the sorted-map model says, one at a time or one
        /// instant's batch at a time: the same instants, tenants,
        /// sequence numbers and payloads, with the clock following.
        #[test]
        fn prop_calendar_matches_a_sorted_map(
            ops in proptest::collection::vec((0u8..14, 0u16..4, 0u64..6), 1..300),
        ) {
            let mut cal = Calendar::new();
            let mut model = ModelCalendar::default();
            for (i, &(op, tenant, ahead)) in ops.iter().enumerate() {
                let at = model.now + ahead;
                let event = i as u32;
                match op {
                    0..=3 => {
                        cal.schedule_for(tick(at), TenantId(tenant), event);
                        model.schedule_for(at, tenant, event);
                    }
                    4..=5 => {
                        cal.wake(tick(at), TenantId(tenant), event);
                        model.wake(at, tenant, event);
                    }
                    6 => {
                        cal.cancel_wake(TenantId(tenant));
                        model.cancel_wake(tenant);
                    }
                    7..=8 => {
                        let at = if op == 7 { model.now + 2 } else { at };
                        cal.schedule_in_order_for(tick(at), TenantId(tenant), event);
                        model.schedule_for(at, tenant, event);
                    }
                    9 => check_pop_batch(&mut cal, &mut model)?,
                    _ => check_pop(&mut cal, &mut model)?,
                }
            }
            while !model.events.is_empty() {
                check_pop(&mut cal, &mut model)?;
            }
            prop_assert!(cal.pop().is_none(), "the calendar holds nothing the model does not");
        }

        /// Whatever order events are scheduled in, they pop in
        /// non-decreasing time order, and equal times pop in scheduling
        /// order.
        #[test]
        fn prop_pop_order_is_sorted_and_stable(times in proptest::collection::vec(0.0f64..100.0, 1..200)) {
            let mut cal = Calendar::new();
            for (i, t) in times.iter().enumerate() {
                cal.schedule(SimTime::new(*t), i);
            }
            let mut last = (SimTime::ZERO, 0usize);
            let mut first = true;
            let mut popped = 0;
            while let Some(ev) = cal.pop() {
                if !first {
                    prop_assert!(ev.at >= last.0);
                    if ev.at == last.0 {
                        prop_assert!(ev.event > last.1, "FIFO violated among ties");
                    }
                }
                last = (ev.at, ev.event);
                first = false;
                popped += 1;
            }
            prop_assert_eq!(popped, times.len());
        }
    }
}
