//! A free-list slot arena for per-run records that come and go.
//!
//! A simulation hires and releases workers and admits and completes jobs
//! for as long as it runs, but only a bounded number of them are live at
//! once. [`SlotArena`] keeps each live record in a slot of one `Vec` and
//! hands a removed record's slot to the next insert, so the table is as
//! long as the most records ever live at once, not as long as the run.
//!
//! A slot is *not* an identity: the same slot names a different record
//! once it is reused. Callers keep their public ids (hire and arrival
//! ordinals) in the records, order by those ids, and check the id when
//! a handle might outlive its record.

/// Records in reusable slots, addressed by the `u32` slot [`insert`]
/// returned.
///
/// [`insert`]: SlotArena::insert
#[derive(Debug, Clone)]
pub struct SlotArena<T> {
    slots: Vec<Option<T>>,
    /// Empty slots, the most recently emptied last.
    free: Vec<u32>,
}

impl<T> Default for SlotArena<T> {
    fn default() -> Self {
        SlotArena { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> SlotArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` in the most recently emptied slot, or in a new one
    /// when none is empty, and returns the slot.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none(), "free slot is occupied");
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 live records");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    /// The record in `slot`, if it holds one.
    #[inline]
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Mutable access to the record in `slot`, if it holds one.
    #[inline]
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.slots.get_mut(slot as usize)?.as_mut()
    }

    /// Takes the record out of `slot` and frees the slot for reuse.
    pub fn remove(&mut self, slot: u32) -> Option<T> {
        let value = self.slots.get_mut(slot as usize)?.take()?;
        self.free.push(slot);
        Some(value)
    }

    /// Records held.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no record is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever made: the most records held at once.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// `(slot, record)` of every record held, in slot order (not
    /// insertion order: a reused slot keeps its place).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        (0u32..).zip(&self.slots).filter_map(|(slot, value)| Some((slot, value.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_slots_are_reused_most_recent_first() {
        let mut arena = SlotArena::new();
        let (a, b, c) = (arena.insert("a"), arena.insert("b"), arena.insert("c"));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(arena.remove(a), Some("a"));
        assert_eq!(arena.remove(c), Some("c"));
        assert_eq!(arena.remove(c), None, "a slot empties once");
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.insert("d"), c);
        assert_eq!(arena.insert("e"), a);
        assert_eq!(arena.insert("f"), 3);
        assert_eq!(
            (arena.get(a), arena.get(b), arena.get(c)),
            (Some(&"e"), Some(&"b"), Some(&"d"))
        );
        assert_eq!((arena.len(), arena.slot_count()), (4, 4));
        let held: Vec<(u32, &str)> = arena.iter().map(|(slot, &v)| (slot, v)).collect();
        assert_eq!(held, vec![(a, "e"), (b, "b"), (c, "d"), (3, "f")]);
        *arena.get_mut(b).expect("b is held") = "B";
        assert_eq!(arena.get(b), Some(&"B"));
        assert_eq!(arena.get(99), None);
    }
}
