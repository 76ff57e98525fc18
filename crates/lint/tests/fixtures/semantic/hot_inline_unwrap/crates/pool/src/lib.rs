//! Fixture: the pool crate, whose lookups return an `Option` or a
//! `Result` of a worker.

/// A fixture worker.
pub struct Worker {
    busy: bool,
}

impl Worker {
    /// Reported: reached through `let … = ….expect(…);`.
    pub fn start(&mut self) {
        self.busy = true;
    }

    /// Reported: reached through `let … = ….unwrap();`.
    pub fn finish(&mut self) {
        self.busy = false;
    }

    /// Reported: reached through `let … = …?;`.
    pub fn boot(&mut self) {
        self.busy = false;
    }

    /// Reported: reached through `….expect(…).stop()` in one chain.
    pub fn stop(&mut self) {
        self.busy = false;
    }

    /// Not reported: reached through `…?.tick()`, and inlined.
    #[inline]
    pub fn tick(&mut self) {
        self.busy = !self.busy;
    }

    /// Not reported: only an `if let` binding reaches it, which the
    /// graph cannot type.
    pub fn probe(&self) -> bool {
        self.busy
    }
}

/// The fixture pool.
pub struct Pool {
    workers: Vec<Worker>,
}

impl Pool {
    /// The worker at `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> Option<&mut Worker> {
        self.workers.get_mut(id)
    }

    /// The worker at `id`, or an error naming it.
    #[inline]
    pub fn lookup(&mut self, id: usize) -> Result<&mut Worker, String> {
        self.workers.get_mut(id).ok_or_else(|| format!("no worker {id}"))
    }
}
