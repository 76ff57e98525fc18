//! The span data model: the segment taxonomy every job latency is
//! decomposed into.
//!
//! This module is the single source of truth the root
//! `tests/doc_contracts.rs` checks against `docs/SPANS.md` in both
//! directions: every [`SegmentKind::name`] label in [`ALL_SEGMENTS`] must
//! have a documentation row, and every documented row must exist here.

/// What a slice of a job's end-to-end latency was spent on.
///
/// The variants tile `[submitted_tu, completed_tu]` exhaustively and
/// without overlap (see [`JobSpans`](crate::span::JobSpans) for the
/// conservation invariant): per stage, the wait window splits into
/// queue wait and the anchor worker's boot or reshape window, followed
/// by the anchor subtask's service time and the fan-in tail while the
/// stage's other shards finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SegmentKind {
    /// Held on the fair-share admission backlog before being admitted.
    AdmissionDeferred,
    /// Enqueued, waiting for a worker (no boot attributable).
    QueueWait,
    /// Waiting specifically for the anchor worker's hire boot.
    BootWait,
    /// Waiting specifically for the anchor worker's reshape boot.
    ReshapePenalty,
    /// The stage's anchor (longest-running) subtask executing.
    Service,
    /// Anchor done; waiting for the stage's remaining shards to merge.
    FanIn,
}

/// Every segment kind, in canonical (display and aggregation) order.
pub const ALL_SEGMENTS: [SegmentKind; 6] = [
    SegmentKind::AdmissionDeferred,
    SegmentKind::QueueWait,
    SegmentKind::BootWait,
    SegmentKind::ReshapePenalty,
    SegmentKind::Service,
    SegmentKind::FanIn,
];

impl SegmentKind {
    /// Stable lowercase label (used in reports, Perfetto slices and
    /// `docs/SPANS.md`).
    pub fn name(self) -> &'static str {
        match self {
            Self::AdmissionDeferred => "admission_deferred",
            Self::QueueWait => "queue_wait",
            Self::BootWait => "boot_wait",
            Self::ReshapePenalty => "reshape_penalty",
            Self::Service => "service",
            Self::FanIn => "fan_in",
        }
    }

    /// Canonical position in [`ALL_SEGMENTS`].
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_order_matches_discriminants() {
        for (i, kind) in ALL_SEGMENTS.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(*kind as usize, i);
        }
    }

    #[test]
    fn segment_names_are_unique() {
        for (i, a) in ALL_SEGMENTS.iter().enumerate() {
            for b in &ALL_SEGMENTS[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
