//! Fixture: the queue crate the event loop calls across a crate
//! boundary.

use std::ops::Add;

/// A fixture instant.
#[derive(Clone, Copy)]
pub struct Tick(pub u64);

impl Add for Tick {
    type Output = Tick;
    fn add(self, rhs: Tick) -> Tick {
        Tick(self.0 + rhs.0)
    }
}

/// The fixture queue.
pub struct Queue {
    items: Vec<u64>,
}

impl Queue {
    /// Reported: small, non-generic, no `#[inline]`.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Inlined, so the platform compiles its body; `slot` is then a call
    /// from the platform's crate.
    #[inline]
    pub fn pop(&mut self) -> Option<u64> {
        let at = self.slot()?;
        Some(self.items.remove(at))
    }

    /// Reported: a private helper an inlined function calls.
    fn slot(&self) -> Option<usize> {
        self.items.len().checked_sub(1)
    }

    /// Inlined, and so is what it calls.
    #[inline]
    pub fn peek(&self) -> Option<u64> {
        self.head()
    }

    #[inline(always)]
    fn head(&self) -> Option<u64> {
        self.items.last().copied()
    }

    /// Generic: instantiated in the caller's crate without an attribute.
    pub fn map<F: Fn(u64) -> u64>(&self, f: F) -> Vec<u64> {
        self.items.iter().map(|&x| f(x)).collect()
    }

    /// Allowed with a reason.
    // scan-lint: allow(hot-inline) -- fixture: a cold call whose body outweighs it
    pub fn compact(&mut self) {
        self.items.shrink_to_fit();
    }

    /// Not on the per-event path: nothing reaches it from a root.
    pub fn dump(&self) -> usize {
        self.items.capacity()
    }
}
