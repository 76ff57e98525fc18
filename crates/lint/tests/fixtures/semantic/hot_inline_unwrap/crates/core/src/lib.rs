//! Fixture: the event loop reaches its workers through an `Option` or a
//! `Result` it unwraps, then calls into the pool crate. Each unwrapped
//! binding or chain types as the worker, so its calls are edges; the
//! pattern-bound worker is not typed, so its call is not.

use scan_pool::Pool;

/// The fixture platform.
pub struct Platform {
    pool: Pool,
}

impl Platform {
    /// Runs one event.
    pub fn run(mut self) -> Result<(), String> {
        self.handle_event(0)
    }

    fn handle_event(&mut self, id: usize) -> Result<(), String> {
        let worker = self.pool.get_mut(id).expect("the event's worker exists");
        worker.start();
        // scan-lint: allow(panic-path) -- fixture: the bare unwrap is the pattern under test
        let worker = self.pool.get_mut(id).unwrap();
        worker.finish();
        let worker = self.pool.lookup(id)?;
        worker.boot();
        self.pool.get_mut(id).expect("the event's worker exists").stop();
        self.pool.lookup(id)?.tick();
        if let Some(found) = self.pool.get_mut(id) {
            found.probe();
        }
        Ok(())
    }
}
