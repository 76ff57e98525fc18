//! The store's data model: one column set per trace-event kind.
//!
//! The vocabulary is declared once, in `scan_sim::trace`: every
//! [`EventKind`] with its tag and its field table of `(name, type)`.
//! This module derives each kind's table layout from that field table
//! ([`columns`]) instead of restating it: ingest pushes values in field
//! order, the query layer resolves column names against the layout, the
//! export writes columns in layout order, and the root
//! `tests/doc_contracts.rs` checks the layout against `docs/TRACESTORE.md`
//! in both directions (so a field added or renamed without its
//! documentation row fails `cargo test`, and vice versa).
//!
//! Two implicit columns precede every table's declared columns and are
//! therefore *not* listed by [`columns`]:
//!
//! * `t` — the event's simulation time, stored as the `u64` bit pattern
//!   of the non-negative `f64` TU value (bit order equals numeric order,
//!   so the column is monotone and delta-encodes well);
//! * `tenant` — the owning tenant's id (0 for single-tenant sessions;
//!   the event's own `tenant` field for the admission events).

pub use scan_sim::trace::{EventKind, ALL_KINDS};
use scan_sim::trace::{Field, FieldType};

/// The physical type of one stored column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Plain `u32` values (ids, stages, core counts, depths).
    U32,
    /// Plain `u64` values (large counters).
    U64,
    /// `f64` values (times in TU, costs in CU, sizes).
    F64,
    /// Dictionary-encoded labels: a per-column string dictionary plus a
    /// `u32` code per row.
    Dict,
}

/// One declared column of an [`EventKind`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name; equals the `TraceEvent` field (and JSONL key) it
    /// stores, except for the derived `tier` on `subtask_dispatched`.
    pub name: &'static str,
    /// Physical type of the column.
    pub ty: ColumnType,
}

/// The column a field of type `ty` is stored in, or `None` for the
/// admission tenant, which becomes the row's `tenant` stamp.
///
/// Ids (`job`, `vm`) are stored as `u32`: upstream they are arena slot
/// indices that the platform itself keeps in `u32`, so the narrowing is
/// lossless in practice (values above `u32::MAX` saturate). A tier is
/// stored as its [`tier_label`](crate::store::tier_label) and a scaling
/// choice as its name.
fn column_type(ty: FieldType) -> Option<ColumnType> {
    match ty {
        FieldType::Id | FieldType::U32 => Some(ColumnType::U32),
        FieldType::U64 => Some(ColumnType::U64),
        FieldType::F64 => Some(ColumnType::F64),
        FieldType::Tier | FieldType::Choice => Some(ColumnType::Dict),
        FieldType::Tenant => None,
    }
}

/// The declared columns of `kind`'s table, in storage order: one per
/// field that has a column (every field but the admission tenant), in
/// field order, and for
/// `subtask_dispatched` a last, *derived* `tier` column, filled at ingest
/// from the dispatching VM's hire/reshape history.
pub fn columns(kind: EventKind) -> impl Iterator<Item = ColumnSpec> {
    let stored = kind
        .fields()
        .iter()
        .filter_map(|f| Some(ColumnSpec { name: f.name, ty: column_type(f.ty)? }));
    let derived = (kind == EventKind::SubtaskDispatched)
        .then_some(ColumnSpec { name: Field::TIER.name, ty: ColumnType::Dict });
    stored.chain(derived)
}

/// The position of a declared column of `kind` by name.
pub fn column_index(kind: EventKind, name: &str) -> Option<usize> {
    columns(kind).position(|c| c.name == name)
}

/// The aggregation functions the query layer can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Row count of the selection (no value column needed).
    Count,
    /// Sum of the value column, accumulated in row order.
    Sum,
    /// Arithmetic mean of the value column (sum in row order / count).
    Mean,
    /// Median by the nearest-rank method over `total_cmp`-sorted values.
    P50,
    /// 95th percentile, nearest-rank over `total_cmp`-sorted values.
    P95,
    /// Maximum by `total_cmp` (NaNs sort above every number).
    Max,
}

impl Agg {
    /// Every aggregation, in declaration order.
    pub const ALL: [Agg; 6] = [Self::Count, Self::Sum, Self::Mean, Self::P50, Self::P95, Self::Max];

    /// Stable lowercase label (used in query results and the docs).
    pub fn name(self) -> &'static str {
        match self {
            Self::Count => "count",
            Self::Sum => "sum",
            Self::Mean => "mean",
            Self::P50 => "p50",
            Self::P95 => "p95",
            Self::Max => "max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_names_are_unique_per_kind() {
        for kind in ALL_KINDS {
            let cols: Vec<ColumnSpec> = columns(kind).collect();
            for (i, a) in cols.iter().enumerate() {
                assert_ne!(a.name, "t", "t is implicit");
                assert_ne!(a.name, "tenant", "tenant is implicit");
                for b in &cols[i + 1..] {
                    assert_ne!(a.name, b.name, "duplicate column in {}", kind.tag());
                }
            }
            assert_eq!(column_index(kind, cols[0].name), Some(0));
            assert_eq!(column_index(kind, "no_such_column"), None);
        }
    }

    #[test]
    fn layouts_follow_the_field_tables() {
        // Every field but the admission tenant has a column, in field
        // order; only `subtask_dispatched` derives one more.
        for kind in ALL_KINDS {
            let fields: Vec<&str> = kind
                .fields()
                .iter()
                .filter(|f| f.ty != FieldType::Tenant)
                .map(|f| f.name)
                .collect();
            let names: Vec<&str> = columns(kind).map(|c| c.name).collect();
            match kind {
                EventKind::SubtaskDispatched => assert_eq!(names[..fields.len()], fields),
                _ => assert_eq!(names, fields, "{}", kind.tag()),
            }
        }
        let dispatched: Vec<ColumnSpec> = columns(EventKind::SubtaskDispatched).collect();
        assert_eq!(dispatched.last(), Some(&ColumnSpec { name: "tier", ty: ColumnType::Dict }));
        let admission: Vec<&str> = columns(EventKind::AdmissionDeferred).map(|c| c.name).collect();
        assert_eq!(admission, ["jobs", "backlog"]);
    }

    #[test]
    fn agg_all_lists_every_variant_in_order() {
        use Agg::*;
        for (i, agg) in Agg::ALL.into_iter().enumerate() {
            // Exhaustive: a new variant stops this compiling until it is
            // given its position here.
            let position = match agg {
                Count => 0,
                Sum => 1,
                Mean => 2,
                P50 => 3,
                P95 => 4,
                Max => 5,
            };
            assert_eq!(position, i, "{agg:?} is listed out of order");
        }
    }
}
