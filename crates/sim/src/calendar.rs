//! The pending-event set: a deterministic priority queue over [`SimTime`].
//!
//! Simultaneous events are delivered in the order they were scheduled
//! (FIFO tie-breaking via a monotonic sequence number), which makes whole
//! simulation runs bit-reproducible — a requirement inherited from the
//! paper's "repeat 10 times, report mean ± σ" methodology, where each
//! repetition must be a pure function of its seed.
//!
//! Besides ordinary events, each tenant may hold one pending *wakeup*
//! ([`Calendar::wake`]): it carries the reserved maximum sequence number,
//! so it fires after every other event of its tenant at the same
//! instant, and setting it again moves it (earlier or later) instead of
//! adding a second one. A moved wakeup's old heap entry is superseded and
//! silently dropped; it never reaches the caller or the clock.

use crate::tenant::TenantId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Sequence numbers occupy the low 48 bits of the heap key; the 16 bits
/// above them hold the scheduling tenant. 2⁴⁸ events per run is far
/// beyond any realistic simulation, and the split keeps the whole key a
/// single `u128` compare.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
/// The sequence number every wakeup carries: above any ordinary event's,
/// so a wakeup is the last of its tenant's events at its instant.
const WAKE_SEQ: u64 = SEQ_MASK;

/// An event with the instant at which it fires.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Scheduling sequence number; earlier-scheduled events fire first
    /// among simultaneous same-tenant ones.
    pub seq: u64,
    /// The tenant that scheduled the event ([`TenantId::SOLO`] for
    /// single-tenant simulations).
    pub tenant: TenantId,
    /// The event payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    /// The heap ordering key, packed into one integer compare: fire-time
    /// bits in the high half, tenant then sequence number in the low
    /// half. `SimTime` is always finite and non-negative, so the
    /// IEEE-754 bit pattern of `at` orders exactly like the float itself
    /// — one branch-free `u128` comparison replaces a float compare plus
    /// a tie-break (the heap's sift loop is the simulator's single
    /// hottest comparison site). Among simultaneous events, lower
    /// tenants fire first and, within one tenant, scheduling order wins;
    /// for single-tenant runs (tenant always [`TenantId::SOLO`]) the key
    /// is numerically identical to the pre-fleet `time ‖ seq` packing,
    /// so event orders — and golden traces — are unchanged.
    #[inline]
    fn key(&self) -> u128 {
        debug_assert!(self.seq <= SEQ_MASK, "calendar sequence overflowed 48 bits");
        ((self.at.as_tu().to_bits() as u128) << 64)
            | ((self.tenant.0 as u128) << SEQ_BITS)
            | (self.seq & SEQ_MASK) as u128
    }
}

// BinaryHeap is a max-heap; reverse the ordering so the earliest instant
// (and, within an instant, the lowest sequence number) is popped first.
impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
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
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
    /// Each tenant's pending wakeup instant, by tenant index. A wakeup
    /// entry in the heap is live iff its instant is its tenant's entry
    /// here; the heap's top is never a superseded one.
    wakes: Vec<Option<SimTime>>,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar with the clock at zero.
    pub fn new() -> Self {
        Calendar { heap: BinaryHeap::new(), next_seq: 0, now: SimTime::ZERO, wakes: Vec::new() }
    }

    /// Creates an empty calendar with pre-allocated capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        Calendar {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
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
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({} < now {})",
            at.as_tu(),
            self.now.as_tu()
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < WAKE_SEQ, "calendar sequence reached the wakeup slot");
        self.heap.push(ScheduledEvent { at, seq, tenant, event });
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
            self.wakes.resize(tenant.index() + 1, None);
        }
        if self.wakes[tenant.index()] == Some(at) {
            return;
        }
        self.wakes[tenant.index()] = Some(at);
        self.heap.push(ScheduledEvent { at, seq: WAKE_SEQ, tenant, event });
        self.drop_superseded();
    }

    /// Cancels `tenant`'s pending wakeup, if it has one.
    pub fn cancel_wake(&mut self, tenant: TenantId) {
        if let Some(slot) = self.wakes.get_mut(tenant.index()) {
            if slot.take().is_some() {
                self.drop_superseded();
            }
        }
    }

    /// Whether a wakeup entry is still its tenant's pending one.
    fn is_live(&self, ev: &ScheduledEvent<E>) -> bool {
        ev.seq != WAKE_SEQ || self.wakes[ev.tenant.index()] == Some(ev.at)
    }

    /// Pops superseded wakeups off the top of the heap, so the top is
    /// always an event that will fire.
    fn drop_superseded(&mut self) {
        while self.heap.peek().is_some_and(|top| !self.is_live(top)) {
            self.heap.pop();
        }
    }

    /// Pops the top entry (known live), clearing its tenant's wakeup if
    /// it is one.
    fn take_top(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        if ev.seq == WAKE_SEQ {
            self.wakes[ev.tenant.index()] = None;
        }
        self.drop_superseded();
        Some(ev)
    }

    /// Pops the next event in (time, tenant, schedule-order) order and
    /// advances the clock to its fire time. Returns `None` when the
    /// calendar is empty.
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
        while self.heap.peek().is_some_and(|e| e.at == at) {
            out.push(self.take_top().expect("peeked non-empty"));
        }
        out.len()
    }

    /// The fire time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending heap entries (superseded wakeups not yet
    /// dropped included).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event and wakeup, keeping the clock where it
    /// is.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.wakes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn peek_does_not_advance_clock() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(7.0), ());
        assert_eq!(cal.peek_time(), Some(SimTime::new(7.0)));
        assert_eq!(cal.now(), SimTime::ZERO);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn clear_empties_but_keeps_clock() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::new(1.0), ());
        cal.schedule(SimTime::new(2.0), ());
        cal.pop();
        cal.clear();
        assert!(cal.is_empty());
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
        assert_eq!(cal.peek_time(), None);
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

    proptest! {
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
