//! Fixture: the event loop binds `worker` to a typed worker, then
//! shadows the name with bindings the graph cannot type: a pattern and
//! a plain `let` of a method call's value. Calls through the shadowing
//! bindings must make no edge to the worker's methods.

use scan_pool::Pool;

/// The fixture platform.
pub struct Platform {
    pool: Pool,
}

impl Platform {
    /// Runs one event.
    pub fn run(mut self) {
        self.handle_event(0)
    }

    fn handle_event(&mut self, id: usize) {
        let worker = self.pool.get_mut(id).expect("the event's worker exists");
        worker.start();
        if let Some(worker) = self.pool.get_mut(id + 1) {
            worker.probe();
        }
        let worker = self.pool.spare(id);
        worker.reset();
    }
}
