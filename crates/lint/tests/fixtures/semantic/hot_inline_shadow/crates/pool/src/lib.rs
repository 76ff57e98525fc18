//! Fixture: the pool crate. A worker and a spare share method names, so
//! a binding typed as the wrong one makes a call edge the code does not
//! have.

/// A fixture worker.
pub struct Worker {
    busy: bool,
}

impl Worker {
    /// Reported: reached through the typed `let worker = ….expect(…);`.
    pub fn start(&mut self) {
        self.busy = true;
    }

    /// Not reported: the only `worker.probe()` is on the `if let`
    /// binding that shadows the typed worker, which the graph cannot
    /// type.
    pub fn probe(&self) -> bool {
        self.busy
    }

    /// Not reported: the only `worker.reset()` is on a spare bound to
    /// the same name by a `let` the graph cannot type.
    pub fn reset(&mut self) {
        self.busy = false;
    }
}

/// A spare worker slot.
pub struct Spare {
    ready: bool,
}

impl Spare {
    /// Not reported either: the untyped binding makes no edge at all.
    pub fn reset(&mut self) {
        self.ready = false;
    }
}

/// The fixture pool.
pub struct Pool {
    workers: Vec<Worker>,
    spares: Vec<Spare>,
}

impl Pool {
    /// The worker at `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: usize) -> Option<&mut Worker> {
        self.workers.get_mut(id)
    }

    /// The spare at `id`.
    #[inline]
    pub fn spare(&mut self, id: usize) -> &mut Spare {
        &mut self.spares[id]
    }
}
