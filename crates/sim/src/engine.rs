//! A minimal generic simulation driver.
//!
//! The SCAN platform crate owns a rich world-state struct; this engine only
//! standardises the loop around the [`Calendar`]: pop the next event, hand
//! it to the handler together with a scheduling context, stop at the
//! horizon. Keeping the loop here means every simulation in the workspace
//! shares identical ordering/termination semantics.

use crate::calendar::Calendar;
use crate::time::SimTime;

/// What a handler tells the engine after processing one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Keep running.
    Continue,
    /// Stop immediately (e.g. an absorbing error state or early-exit
    /// condition); remaining events are discarded.
    Halt,
}

/// User logic driven by the engine.
pub trait EventHandler {
    /// The event payload type routed through the calendar.
    type Event;

    /// Processes one event. `calendar` is exposed so the handler can
    /// schedule follow-up events; `now` equals the event's fire time.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        calendar: &mut Calendar<Self::Event>,
    ) -> StepOutcome;
}

/// Statistics about a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Number of events actually dispatched.
    pub events_dispatched: u64,
    /// Clock value when the run stopped.
    pub ended_at: SimTime,
    /// True if the run stopped because the horizon was reached (rather
    /// than calendar exhaustion or a `Halt`).
    pub hit_horizon: bool,
}

/// The generic event loop.
#[derive(Debug)]
pub struct Engine<E> {
    calendar: Calendar<E>,
    horizon: Option<SimTime>,
}

impl<E> Engine<E> {
    /// Creates an engine that runs until the calendar empties.
    pub fn new() -> Self {
        Engine { calendar: Calendar::new(), horizon: None }
    }

    /// Creates an engine that stops once the clock would pass `horizon`.
    /// Events scheduled exactly at the horizon still fire.
    pub fn with_horizon(horizon: SimTime) -> Self {
        Engine { calendar: Calendar::new(), horizon: Some(horizon) }
    }

    /// Access to the calendar for seeding initial events.
    pub fn calendar_mut(&mut self) -> &mut Calendar<E> {
        &mut self.calendar
    }

    /// Read access to the calendar.
    pub fn calendar(&self) -> &Calendar<E> {
        &self.calendar
    }

    /// Current simulated instant.
    pub fn now(&self) -> SimTime {
        self.calendar.now()
    }

    /// Runs to completion: pops events in order, dispatching each to
    /// `handler`, until the calendar is empty, the horizon is passed, or
    /// the handler halts.
    ///
    /// Events are popped one at a time, so an event a handler schedules
    /// (or a wakeup it sets) at the current instant takes its place in
    /// the `(time, tenant, sequence)` order among the events still
    /// pending at that instant.
    pub fn run<H>(&mut self, handler: &mut H) -> RunReport
    where
        H: EventHandler<Event = E>,
    {
        let mut dispatched = 0u64;
        loop {
            match self.calendar.peek_time() {
                None => {
                    return RunReport {
                        events_dispatched: dispatched,
                        ended_at: self.calendar.now(),
                        hit_horizon: false,
                    }
                }
                Some(t) => {
                    if let Some(h) = self.horizon {
                        if t > h {
                            self.calendar.clear();
                            return RunReport {
                                events_dispatched: dispatched,
                                ended_at: h,
                                hit_horizon: true,
                            };
                        }
                    }
                }
            }
            let ev = self.calendar.pop().expect("peeked non-empty");
            dispatched += 1;
            if handler.handle(ev.at, ev.event, &mut self.calendar) == StepOutcome::Halt {
                return RunReport {
                    events_dispatched: dispatched,
                    ended_at: self.calendar.now(),
                    hit_horizon: false,
                };
            }
        }
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantId;
    use crate::time::SimDuration;

    /// A handler that re-schedules itself `remaining` times at +1 TU.
    struct Ticker {
        remaining: u32,
        seen: Vec<f64>,
    }

    impl EventHandler for Ticker {
        type Event = ();
        fn handle(&mut self, now: SimTime, _: (), cal: &mut Calendar<()>) -> StepOutcome {
            self.seen.push(now.as_tu());
            if self.remaining > 0 {
                self.remaining -= 1;
                cal.schedule(now + SimDuration::new(1.0), ());
            }
            StepOutcome::Continue
        }
    }

    #[test]
    fn runs_until_calendar_empty() {
        let mut engine = Engine::new();
        engine.calendar_mut().schedule(SimTime::ZERO, ());
        let mut h = Ticker { remaining: 3, seen: vec![] };
        let report = engine.run(&mut h);
        assert_eq!(h.seen, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(report.events_dispatched, 4);
        assert!(!report.hit_horizon);
        assert_eq!(report.ended_at, SimTime::new(3.0));
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut engine = Engine::with_horizon(SimTime::new(2.0));
        engine.calendar_mut().schedule(SimTime::ZERO, ());
        let mut h = Ticker { remaining: 100, seen: vec![] };
        let report = engine.run(&mut h);
        // Events at 0, 1, 2 fire; the one at 3 is beyond the horizon.
        assert_eq!(h.seen, vec![0.0, 1.0, 2.0]);
        assert!(report.hit_horizon);
        assert_eq!(report.ended_at, SimTime::new(2.0));
    }

    struct HaltAfter(u32);
    impl EventHandler for HaltAfter {
        type Event = u32;
        fn handle(&mut self, _: SimTime, ev: u32, _: &mut Calendar<u32>) -> StepOutcome {
            if ev >= self.0 {
                StepOutcome::Halt
            } else {
                StepOutcome::Continue
            }
        }
    }

    #[test]
    fn handler_can_halt_early() {
        let mut engine = Engine::new();
        for i in 0..10 {
            engine.calendar_mut().schedule(SimTime::new(i as f64), i);
        }
        let report = engine.run(&mut HaltAfter(4));
        assert_eq!(report.events_dispatched, 5); // events 0..=4
        assert_eq!(report.ended_at, SimTime::new(4.0));
    }

    /// Tenant 0's event at t = 1 wakes tenants 1 and 0 at t = 1: tenant
    /// 1's wakeup still fires at 1, before tenant 2's event there, while
    /// tenant 0's own wakeup fires after its event.
    struct Waker {
        fired: Vec<(f64, u16, &'static str)>,
    }

    impl EventHandler for Waker {
        type Event = (u16, &'static str);
        fn handle(
            &mut self,
            now: SimTime,
            (tenant, what): (u16, &'static str),
            cal: &mut Calendar<(u16, &'static str)>,
        ) -> StepOutcome {
            self.fired.push((now.as_tu(), tenant, what));
            if what == "event" && tenant == 0 {
                cal.wake(now, TenantId(1), (1, "wake"));
                cal.wake(now, TenantId(0), (0, "wake"));
            }
            StepOutcome::Continue
        }
    }

    #[test]
    fn a_wakeup_set_at_the_current_instant_keeps_tenant_order() {
        let mut engine = Engine::new();
        let cal = engine.calendar_mut();
        cal.schedule_for(SimTime::new(1.0), TenantId(2), (2, "event"));
        cal.schedule_for(SimTime::new(1.0), TenantId(0), (0, "event"));
        cal.schedule_for(SimTime::new(1.0), TenantId(1), (1, "event"));
        let mut h = Waker { fired: Vec::new() };
        let report = engine.run(&mut h);
        assert_eq!(
            h.fired,
            vec![
                (1.0, 0, "event"),
                (1.0, 0, "wake"),
                (1.0, 1, "event"),
                (1.0, 1, "wake"),
                (1.0, 2, "event"),
            ]
        );
        assert_eq!(report.events_dispatched, 5);
    }

    #[test]
    fn empty_calendar_returns_immediately() {
        let mut engine: Engine<()> = Engine::new();
        struct Never;
        impl EventHandler for Never {
            type Event = ();
            fn handle(&mut self, _: SimTime, _: (), _: &mut Calendar<()>) -> StepOutcome {
                panic!("no events should fire")
            }
        }
        let report = engine.run(&mut Never);
        assert_eq!(report.events_dispatched, 0);
    }
}
