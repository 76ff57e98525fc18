//! Per-class FIFO task queues.
//!
//! §III-B: the scheduler "maintains an in-memory pool of available workers
//! and a FIFO queue of pending tasks per class". A *class* is the worker
//! shape a task needs (its thread count → instance size) plus the pipeline
//! stage (workers are stage-agnostic in software, but the estimators track
//! waits per stage).

use scan_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Worker shapes (cores) a task class can ask for, ascending. Powers of
/// two: shape ↔ slot conversion is a `trailing_zeros`.
pub const SHAPE_CORES: [u32; 5] = [1, 2, 4, 8, 16];

/// Number of distinct worker shapes.
pub const N_SHAPES: usize = SHAPE_CORES.len();

/// Dense slot for a shape (1→0, 2→1, 4→2, 8→3, 16→4).
///
/// # Panics
/// Panics (in debug builds) when `cores` is not a valid shape.
#[inline]
pub fn shape_slot(cores: u32) -> usize {
    let slot = cores.trailing_zeros() as usize;
    debug_assert!(
        slot < N_SHAPES && SHAPE_CORES[slot] == cores,
        "invalid worker shape: {cores} cores"
    );
    slot
}

/// The queue key: pipeline stage × worker cores required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskClass {
    /// 0-based pipeline stage.
    pub stage: usize,
    /// Cores a worker needs to serve this class.
    pub cores: u32,
}

/// One pending entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Queued<T> {
    /// The queued payload (a subtask handle at the platform level).
    pub item: T,
    /// When it entered the queue.
    pub enqueued_at: SimTime,
}

/// A FIFO queue with wait accounting.
#[derive(Debug, Clone)]
pub struct TaskQueue<T> {
    items: VecDeque<Queued<T>>,
    /// Completed waits (dequeue time − enqueue time), for EQT feedback.
    total_wait: SimDuration,
    dequeued: u64,
    peak_len: usize,
}

impl<T> Default for TaskQueue<T> {
    fn default() -> Self {
        TaskQueue {
            items: VecDeque::new(),
            total_wait: SimDuration::ZERO,
            dequeued: 0,
            peak_len: 0,
        }
    }
}

impl<T> TaskQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an item.
    pub fn push(&mut self, item: T, now: SimTime) {
        self.items.push_back(Queued { item, enqueued_at: now });
        self.peak_len = self.peak_len.max(self.items.len());
    }

    /// Pops the oldest item, recording its wait. Returns the item and how
    /// long it waited.
    pub fn pop(&mut self, now: SimTime) -> Option<(T, SimDuration)> {
        let q = self.items.pop_front()?;
        let wait = now - q.enqueued_at;
        self.total_wait += wait;
        self.dequeued += 1;
        Some((q.item, wait))
    }

    /// The head's enqueue time, if any.
    pub fn head_enqueued_at(&self) -> Option<SimTime> {
        self.items.front().map(|q| q.enqueued_at)
    }

    /// Queue length.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Longest the queue has ever been.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Mean wait of items already dequeued.
    pub fn mean_wait(&self) -> f64 {
        if self.dequeued == 0 {
            0.0
        } else {
            self.total_wait.as_tu() / self.dequeued as f64
        }
    }

    /// Iterates pending items oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Queued<T>> {
        self.items.iter()
    }
}

/// A keyed family of queues, stored densely.
///
/// Classes are `(stage, shape)` pairs where the shape axis is the fixed
/// five-slot [`SHAPE_CORES`] array, so the whole family is a
/// `Vec<[TaskQueue; 5]>` indexed by stage — every lookup is two array
/// indexes, and iteration walks stages then shapes in exactly the
/// `(stage, cores)` key order the old `BTreeMap` representation produced.
#[derive(Debug, Clone)]
pub struct QueueSet<T> {
    stages: Vec<[TaskQueue<T>; N_SHAPES]>,
    /// Per stage, bit `slot` set iff that class has pending items (kept
    /// incrementally), so walks skip the empty classes without a look.
    nonempty: Vec<u8>,
    /// Total pending items across all queues (kept incrementally).
    total: usize,
}

impl<T> Default for QueueSet<T> {
    fn default() -> Self {
        QueueSet { stages: Vec::new(), nonempty: Vec::new(), total: 0 }
    }
}

impl<T> QueueSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes into (creating if needed) the class queue.
    pub fn push(&mut self, class: TaskClass, item: T, now: SimTime) {
        while self.stages.len() <= class.stage {
            self.stages.push(std::array::from_fn(|_| TaskQueue::new()));
            self.nonempty.push(0);
        }
        let slot = shape_slot(class.cores);
        self.stages[class.stage][slot].push(item, now);
        self.nonempty[class.stage] |= 1 << slot;
        self.total += 1;
    }

    /// Pops the oldest item of a class.
    pub fn pop(&mut self, class: TaskClass, now: SimTime) -> Option<(T, SimDuration)> {
        let slot = shape_slot(class.cores);
        let queue = &mut self.stages.get_mut(class.stage)?[slot];
        let popped = queue.pop(now);
        if popped.is_some() {
            self.total -= 1;
            if queue.is_empty() {
                self.nonempty[class.stage] &= !(1 << slot);
            }
        }
        popped
    }

    /// The queue for a class, if its stage has ever been seen.
    pub fn get(&self, class: TaskClass) -> Option<&TaskQueue<T>> {
        Some(&self.stages.get(class.stage)?[shape_slot(class.cores)])
    }

    /// Number of stage rows allocated so far (stages are added lazily as
    /// classes are first pushed).
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// The shape slots of `stage` with pending items, as a bit mask (bit
    /// `slot`); zero for a stage never pushed to.
    pub fn nonempty_slots(&self, stage: usize) -> u8 {
        self.nonempty.get(stage).copied().unwrap_or(0)
    }

    /// Direct access to one `(stage, shape-slot)` queue, if allocated.
    pub fn at(&self, stage: usize, slot: usize) -> Option<&TaskQueue<T>> {
        Some(&self.stages.get(stage)?[slot])
    }

    /// Total pending items across classes.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Pending items for one shape slot across stages (demand on a
    /// worker shape regardless of stage).
    pub fn shape_len(&self, slot: usize) -> usize {
        self.stages.iter().map(|row| row[slot].len()).sum()
    }

    /// Pending items for one stage across shapes.
    pub fn stage_len(&self, stage: usize) -> usize {
        match self.stages.get(stage) {
            Some(row) => row.iter().map(TaskQueue::len).sum(),
            None => 0,
        }
    }

    /// Iterates `(class, queue)` pairs in key order (deterministic:
    /// ascending stage, then ascending cores).
    pub fn iter(&self) -> impl Iterator<Item = (TaskClass, &TaskQueue<T>)> {
        self.stages.iter().enumerate().flat_map(|(stage, row)| {
            row.iter()
                .enumerate()
                .map(move |(slot, q)| (TaskClass { stage, cores: SHAPE_CORES[slot] }, q))
        })
    }

    /// Classes with at least one pending item, in key order.
    pub fn nonempty_classes(&self) -> Vec<TaskClass> {
        self.iter().filter(|(_, q)| !q.is_empty()).map(|(c, _)| c).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn fifo_order_and_waits() {
        let mut q = TaskQueue::new();
        q.push("a", t(0.0));
        q.push("b", t(1.0));
        let (a, wa) = q.pop(t(3.0)).unwrap();
        assert_eq!(a, "a");
        assert_eq!(wa, SimDuration::new(3.0));
        let (b, wb) = q.pop(t(4.0)).unwrap();
        assert_eq!(b, "b");
        assert_eq!(wb, SimDuration::new(3.0));
        assert!(q.pop(t(5.0)).is_none());
        assert_eq!(q.mean_wait(), 3.0);
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn head_enqueued_at_tracks_front() {
        let mut q = TaskQueue::new();
        assert!(q.head_enqueued_at().is_none());
        q.push(1, t(2.0));
        q.push(2, t(5.0));
        assert_eq!(q.head_enqueued_at(), Some(t(2.0)));
        q.pop(t(6.0));
        assert_eq!(q.head_enqueued_at(), Some(t(5.0)));
    }

    #[test]
    fn queue_set_routes_by_class() {
        let mut qs: QueueSet<u32> = QueueSet::new();
        let c1 = TaskClass { stage: 0, cores: 4 };
        let c2 = TaskClass { stage: 0, cores: 8 };
        let c3 = TaskClass { stage: 3, cores: 4 };
        qs.push(c1, 10, t(0.0));
        qs.push(c2, 20, t(0.0));
        qs.push(c3, 30, t(0.0));
        qs.push(c1, 11, t(1.0));
        assert_eq!(qs.total_len(), 4);
        assert_eq!(qs.stage_len(0), 3);
        assert_eq!(qs.stage_len(3), 1);
        assert_eq!(qs.pop(c1, t(2.0)).unwrap().0, 10);
        assert_eq!(qs.get(c1).unwrap().len(), 1);
        assert_eq!(qs.nonempty_classes(), vec![c1, c2, c3]);
        let masks = |qs: &QueueSet<u32>| (0..5).map(|s| qs.nonempty_slots(s)).collect::<Vec<_>>();
        // 4 cores are slot 2, 8 cores slot 3.
        assert_eq!(masks(&qs), vec![0b1100, 0, 0, 0b100, 0]);
        qs.pop(c2, t(2.0));
        assert_eq!(masks(&qs), vec![0b100, 0, 0, 0b100, 0], "an emptied class leaves the mask");
        assert!(qs.pop(TaskClass { stage: 9, cores: 1 }, t(2.0)).is_none());
    }

    #[test]
    fn mean_wait_empty_queue() {
        let q: TaskQueue<()> = TaskQueue::new();
        assert_eq!(q.mean_wait(), 0.0);
    }
}
