//! A lightweight wall-clock self-profiler.
//!
//! [`scope!`](crate::prof::scope) opens an RAII span named by a `&'static
//! str`; nested spans form a call tree per thread, accumulated in a
//! thread-local arena (no allocation after the first visit to a call
//! site, no locks, no syscalls beyond `Instant::now`). Profiling is off
//! by default — a disabled scope is one relaxed atomic load and a branch
//! — and is switched on process-wide with [`enable`] before the run.
//!
//! Rayon-parallel runs fold profiles the way the drivers fold observers:
//! each worker thread calls [`reset_thread`] before its session and
//! [`take_summary`] after; the `Send` summaries then fold across threads
//! via [`Merge`] (frames match by path). [`ProfSummary::write_table`]
//! prints a sorted self/total table and
//! [`ProfSummary::write_collapsed`] emits collapsed-stack lines that
//! flamegraph tooling consumes directly (`path;leaf self_us`).
//!
//! Wall-clock numbers are inherently non-deterministic; everything else
//! in the platform's observability stack (traces, metrics) stays
//! bit-identical whether or not the profiler runs.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
// scan-lint: allow(wall-clock) -- the profiler measures the simulator, never feeds it.
use std::time::Instant;

use crate::trace::Merge;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the profiler on (process-wide). Call once, before the sessions
/// whose wall-clock breakdown you want.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the profiler off again (process-wide): later scopes are inert.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans currently record.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One node of a thread's span tree.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    parent: usize,
    children: Vec<usize>,
    total_ns: u64,
    count: u64,
}

#[derive(Debug, Default)]
struct ThreadProfile {
    /// Arena of tree nodes; index 0 is the synthetic root.
    nodes: Vec<Node>,
    /// Index of the currently open span (0 = at the root).
    current: usize,
    sessions: u64,
}

impl ThreadProfile {
    fn reset(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node { name: "", parent: 0, children: Vec::new(), total_ns: 0, count: 0 });
        self.current = 0;
        self.sessions = 0;
    }

    fn child(&mut self, name: &'static str) -> usize {
        let cur = self.current;
        // Call sites are few; a linear scan over the children beats any
        // hashing at this scale (and `&'static str` comparison is cheap —
        // same literal usually means pointer equality).
        if let Some(&c) = self.nodes[cur].children.iter().find(|&&c| {
            let n = self.nodes[c].name;
            std::ptr::eq(n.as_ptr(), name.as_ptr()) || n == name
        }) {
            return c;
        }
        let id = self.nodes.len();
        self.nodes.push(Node { name, parent: cur, children: Vec::new(), total_ns: 0, count: 0 });
        self.nodes[cur].children.push(id);
        id
    }
}

thread_local! {
    static PROFILE: RefCell<ThreadProfile> = RefCell::new({
        let mut p = ThreadProfile::default();
        p.reset();
        p
    });
}

/// Clears this thread's accumulated spans. Call at the start of each
/// session (one session = one rayon worker thread at a time, so the
/// thread-local tree is never shared).
pub fn reset_thread() {
    if !is_enabled() {
        return;
    }
    PROFILE.with(|p| p.borrow_mut().reset());
}

/// An open profiling span; closing (dropping) it adds the elapsed wall
/// time to its call-tree node. Inert unless [`enable`] was called.
pub struct Scope {
    // scan-lint: allow(wall-clock) -- the profiler measures the simulator, never feeds it.
    start: Option<Instant>,
}

impl Scope {
    /// Opens a span named `name` under the currently open span.
    #[inline]
    pub fn enter(name: &'static str) -> Scope {
        if !is_enabled() {
            return Scope { start: None };
        }
        PROFILE.with(|p| {
            let mut p = p.borrow_mut();
            let id = p.child(name);
            p.current = id;
        });
        // scan-lint: allow(wall-clock) -- the profiler measures the simulator, never feeds it.
        Scope { start: Some(Instant::now()) }
    }
}

impl Drop for Scope {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed().as_nanos() as u64;
            PROFILE.with(|p| {
                let mut p = p.borrow_mut();
                let cur = p.current;
                p.nodes[cur].total_ns += elapsed;
                p.nodes[cur].count += 1;
                p.current = p.nodes[cur].parent;
            });
        }
    }
}

/// Opens an RAII profiling span for the rest of the enclosing block:
/// `scan_sim::prof::scope!("dispatch");`.
#[macro_export]
macro_rules! prof_scope {
    ($name:literal) => {
        let _prof_guard = $crate::prof::Scope::enter($name);
    };
}
pub use crate::prof_scope as scope;

/// Wall-clock totals of one call-tree frame, identified by its path of
/// span names from the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStat {
    /// Span names from the outermost scope to this one.
    pub path: Vec<&'static str>,
    /// Wall time spent in this frame including its children, ns.
    pub total_ns: u64,
    /// Times the frame was entered.
    pub count: u64,
}

/// A thread's (or a merged run's) profile: every observed frame plus the
/// number of sessions folded in.
#[derive(Debug, Clone, Default)]
pub struct ProfSummary {
    /// Frames in first-visit order (paths are unique).
    pub frames: Vec<FrameStat>,
    /// Sessions folded into these totals.
    pub sessions: u64,
}

/// Drains this thread's spans into a `Send` summary (and resets the
/// thread state). Returns an empty summary when profiling is disabled.
pub fn take_summary() -> ProfSummary {
    if !is_enabled() {
        return ProfSummary::default();
    }
    PROFILE.with(|p| {
        let mut p = p.borrow_mut();
        let mut frames = Vec::new();
        // Depth-first, children in creation order, so the flat list is
        // stable for a given execution.
        let mut stack: Vec<(usize, Vec<&'static str>)> =
            p.nodes[0].children.iter().rev().map(|&c| (c, Vec::new())).collect();
        while let Some((id, prefix)) = stack.pop() {
            let node = &p.nodes[id];
            let mut path = prefix.clone();
            path.push(node.name);
            for &c in node.children.iter().rev() {
                stack.push((c, path.clone()));
            }
            frames.push(FrameStat { path, total_ns: node.total_ns, count: node.count });
        }
        let sessions = p.sessions.max(1);
        p.reset();
        ProfSummary { frames, sessions }
    })
}

impl ProfSummary {
    /// Self time of frame `i`: total minus the children's totals.
    fn self_ns(&self, i: usize) -> u64 {
        let parent = &self.frames[i];
        let child_total: u64 = self
            .frames
            .iter()
            .filter(|f| {
                f.path.len() == parent.path.len() + 1
                    && f.path[..parent.path.len()] == parent.path[..]
            })
            .map(|f| f.total_ns)
            .sum();
        parent.total_ns.saturating_sub(child_total)
    }

    /// Writes a table of frames sorted by self time (descending):
    /// `self_ms  total_ms  count  path`.
    pub fn write_table<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut rows: Vec<(u64, usize)> =
            (0..self.frames.len()).map(|i| (self.self_ns(i), i)).collect();
        rows.sort_by(|a, b| {
            b.0.cmp(&a.0).then_with(|| self.frames[a.1].path.cmp(&self.frames[b.1].path))
        });
        writeln!(w, "{:>12} {:>12} {:>10}  span", "self_ms", "total_ms", "count")?;
        for (self_ns, i) in rows {
            let f = &self.frames[i];
            writeln!(
                w,
                "{:>12.3} {:>12.3} {:>10}  {}",
                self_ns as f64 / 1e6,
                f.total_ns as f64 / 1e6,
                f.count,
                f.path.join(";"),
            )?;
        }
        Ok(())
    }

    /// Writes flamegraph-compatible collapsed stacks: one
    /// `outer;inner;leaf <self_us>` line per frame with nonzero self
    /// time, sorted lexicographically by path.
    pub fn write_collapsed<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut rows: Vec<(Vec<&'static str>, u64)> = (0..self.frames.len())
            .map(|i| (self.frames[i].path.clone(), self.self_ns(i)))
            .filter(|(_, s)| *s > 0)
            .collect();
        rows.sort();
        for (path, self_ns) in rows {
            writeln!(w, "{} {}", path.join(";"), self_ns / 1_000)?;
        }
        Ok(())
    }
}

impl Merge for ProfSummary {
    /// Folds another thread's (or repetition's) profile in: frames match
    /// by path and add; unseen frames append.
    fn merge(&mut self, other: Self) {
        for of in other.frames {
            if let Some(f) = self.frames.iter_mut().find(|f| f.path == of.path) {
                f.total_ns += of.total_ns;
                f.count += of.count;
            } else {
                self.frames.push(of);
            }
        }
        self.sessions += other.sessions;
    }
}

/// Marks one completed session on this thread (feeds the summary's
/// session count so per-session averages are possible downstream).
pub fn mark_session() {
    if !is_enabled() {
        return;
    }
    PROFILE.with(|p| p.borrow_mut().sessions += 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ENABLED flag is process-wide, so every test that flips it runs
    // in this one test body (Rust runs tests in threads of one process).
    #[test]
    fn spans_accumulate_into_a_tree_and_summaries_merge() {
        // Disabled: scopes are inert, summary is empty.
        let s = {
            crate::prof::scope!("never");
            take_summary()
        };
        assert!(s.frames.is_empty());

        enable();
        reset_thread();
        {
            crate::prof::scope!("outer");
            for _ in 0..3 {
                crate::prof::scope!("inner");
            }
        }
        mark_session();
        let a = take_summary();
        assert_eq!(a.sessions, 1);
        let outer = a.frames.iter().find(|f| f.path == ["outer"]).expect("outer frame");
        assert_eq!(outer.count, 1);
        let inner = a.frames.iter().find(|f| f.path == ["outer", "inner"]).expect("inner frame");
        assert_eq!(inner.count, 3);
        assert!(outer.total_ns >= inner.total_ns, "parent includes child time");

        // A second "thread": same shape, merge folds by path.
        reset_thread();
        {
            crate::prof::scope!("outer");
            crate::prof::scope!("inner");
        }
        mark_session();
        let b = take_summary();
        let mut merged = a.clone();
        Merge::merge(&mut merged, b);
        assert_eq!(merged.sessions, 2);
        let inner = merged.frames.iter().find(|f| f.path == ["outer", "inner"]).unwrap();
        assert_eq!(inner.count, 4);

        // Outputs render and the collapsed form is parseable.
        let mut table = Vec::new();
        merged.write_table(&mut table).unwrap();
        let table = String::from_utf8(table).unwrap();
        assert!(table.contains("outer;inner"));
        let mut collapsed = Vec::new();
        merged.write_collapsed(&mut collapsed).unwrap();
        for line in String::from_utf8(collapsed).unwrap().lines() {
            let (stack, n) = line.rsplit_once(' ').expect("stack <us>");
            assert!(!stack.is_empty());
            let _: u64 = n.parse().expect("numeric self time");
        }

        // Disabled again: scopes are inert and nothing accumulates.
        disable();
        {
            crate::prof::scope!("after");
        }
        assert!(!is_enabled());
        assert!(take_summary().frames.is_empty());
        enable();
        assert!(take_summary().frames.is_empty(), "a disabled scope left a frame");
        disable();
    }
}
