//! Fixture: an event loop that calls into the queue crate on every
//! event. The small, non-generic callees without `#[inline]` are the
//! findings; the inlined, generic, allowed, same-crate and operator
//! calls are not.

use scan_queue::{Queue, Tick};

/// The fixture platform.
pub struct Platform {
    queue: Queue,
    now: Tick,
}

impl Platform {
    /// Runs events until the queue drains.
    pub fn run(mut self) -> u64 {
        let mut n = 0;
        while self.queue.len() > 0 {
            self.handle_event();
            n += 1;
        }
        n
    }

    fn handle_event(&mut self) {
        // `+` calls `Add::add`, which no call edge shows.
        self.now = self.now + Tick(1);
        let _ = self.queue.pop();
        let _ = self.queue.peek();
        let _ = self.queue.map(|x| x + 1);
        self.queue.compact();
        self.log();
    }

    fn log(&self) {}
}
