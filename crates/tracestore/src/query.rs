//! The aggregation query layer: staged vector operators over one
//! event-kind table.
//!
//! A [`Query`] compiles to a pipeline of [`VecOp`] stages that pass a
//! shrinking row [`Scratchpad`] from stage to stage, in the LocustDB
//! style: first a scan that selects every row, then one filter stage per
//! predicate (each narrowing the selection vector in place), then a
//! key-building stage (time bucket × group column), a value-gather
//! stage, and a final aggregation stage that folds each group with the
//! requested [`Agg`]. Stages touch whole column slices — no per-row
//! dispatch on event variants, which is what makes the store cheaper to
//! query than re-parsing JSONL.
//!
//! Determinism: grouping uses first-appearance group discovery plus a
//! final sort of the result rows by `(bucket, group)` — label groups
//! sort by label string, numeric groups by value — and `Sum`/`Mean`
//! accumulate in row order, so query results are identical for a given
//! store no matter how the store was sharded or merged.
//!
//! The worked example from `docs/TRACESTORE.md` — p95 queue wait per
//! tier:
//!
//! ```
//! use scan_tracestore::{Agg, EventKind, Query, TraceStore};
//! # use scan_sim::{SimTime, TraceEvent};
//! # let mut store = TraceStore::new();
//! # store.ingest(SimTime::new(0.5), &TraceEvent::VmHired { vm: 0, tier: 1, cores: 4 });
//! # store.ingest(SimTime::new(1.0), &TraceEvent::SubtaskDispatched {
//! #     job: 0, stage: 0, vm: 0, cores: 1, waited_tu: 0.25, busy_tu: 1.0 });
//! let rows = Query::over(EventKind::SubtaskDispatched)
//!     .group_by("tier")
//!     .aggregate(Agg::P95, "waited_tu")
//!     .run(&store)
//!     .expect("tier and waited_tu are declared subtask_dispatched columns");
//! assert_eq!(rows[0].group.as_deref(), Some("public"));
//! assert_eq!(rows[0].value, 0.25);
//! ```

use crate::column::Column;
use crate::schema::{column_index, columns, Agg, ColumnType, EventKind};
use crate::store::{Table, TraceStore};
use scan_sim::Field;
use std::fmt;

/// A row predicate narrowing the selection.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Keep rows whose time lies in the half-open window `[lo, hi)` TU.
    TimeRange {
        /// Inclusive lower bound, TU.
        lo_tu: f64,
        /// Exclusive upper bound, TU.
        hi_tu: f64,
    },
    /// Keep rows stamped with this tenant.
    Tenant(u32),
    /// Keep rows whose integral column equals `value`.
    EqU32 {
        /// Declared `u32`/`u64` column name.
        column: String,
        /// Value to match.
        value: u32,
    },
    /// Keep rows whose dictionary column carries `label`.
    EqLabel {
        /// Declared dictionary column name.
        column: String,
        /// Label to match (an un-interned label selects nothing).
        label: String,
    },
    /// Keep rows whose `f64` column lies in `[lo, hi)`.
    RangeF64 {
        /// Declared `f64` column name.
        column: String,
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
}

/// Why a query could not be compiled against the table's schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A named column is not declared for the queried kind.
    UnknownColumn {
        /// The queried kind's tag.
        kind: &'static str,
        /// The missing column name.
        column: String,
    },
    /// A column exists but its physical type does not fit the use.
    TypeMismatch {
        /// The offending column name.
        column: String,
        /// What the query needed it to be.
        needed: &'static str,
    },
    /// Every aggregation except `count` needs a value column.
    MissingValueColumn {
        /// The aggregation that was requested without a value column.
        agg: &'static str,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::UnknownColumn { kind, column } => {
                write!(f, "no column `{column}` in `{kind}` rows")
            }
            QueryError::TypeMismatch { column, needed } => {
                write!(f, "column `{column}` is not usable as {needed}")
            }
            QueryError::MissingValueColumn { agg } => {
                write!(f, "aggregation `{agg}` needs a value column")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// One result row of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Bucket start time in TU, when the query was bucketed.
    pub bucket_tu: Option<f64>,
    /// Group label (dictionary groups) or rendered number (integral
    /// groups), when the query grouped.
    pub group: Option<String>,
    /// The aggregated value.
    pub value: f64,
}

/// Where a stage reads per-row scalars from: an implicit column or a
/// declared one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// The implicit time column, as TU.
    Time,
    /// The implicit tenant column.
    Tenant,
    /// Declared column by index.
    Col(usize),
}

/// The mutable state handed from stage to stage: a selection vector plus
/// the buffers later stages fill. LocustDB keeps a typed buffer arena
/// here; our queries only ever need these three vectors, so they are
/// fields rather than named slots.
#[derive(Debug, Default)]
pub struct Scratchpad {
    /// Indices of the rows still selected, ascending.
    selection: Vec<u32>,
    /// `(bucket, group-key)` per selected row (parallel to `selection`).
    keys: Vec<(u64, u64)>,
    /// Value per selected row (parallel to `selection`).
    values: Vec<f64>,
}

impl Scratchpad {
    /// Rows still selected after the stages run so far.
    pub fn selected(&self) -> usize {
        self.selection.len()
    }
}

/// One pipeline stage: reads the table, narrows or extends the
/// scratchpad.
pub trait VecOp {
    /// Stable stage name, for plans and diagnostics.
    fn name(&self) -> String;
    /// Runs the stage.
    fn execute(&self, table: &Table, scratch: &mut Scratchpad);
}

/// Selects every row of the table.
struct ScanAll;

impl VecOp for ScanAll {
    fn name(&self) -> String {
        "scan".to_string()
    }

    fn execute(&self, table: &Table, scratch: &mut Scratchpad) {
        scratch.selection = (0..table.rows() as u32).collect();
    }
}

/// Narrows the selection with one compiled predicate.
struct FilterOp {
    label: String,
    kind: CompiledFilter,
}

enum CompiledFilter {
    TimeRange {
        lo: f64,
        hi: f64,
    },
    Tenant(u32),
    EqKey {
        col: usize,
        key: u64,
    },
    /// An `EqLabel` whose label was never interned: nothing matches.
    Never,
    RangeF64 {
        col: usize,
        lo: f64,
        hi: f64,
    },
}

impl VecOp for FilterOp {
    fn name(&self) -> String {
        format!("filter[{}]", self.label)
    }

    fn execute(&self, table: &Table, scratch: &mut Scratchpad) {
        let keep = |&row: &u32| -> bool {
            let i = row as usize;
            match &self.kind {
                CompiledFilter::TimeRange { lo, hi } => {
                    let t = table.time_tu(i);
                    *lo <= t && t < *hi
                }
                CompiledFilter::Tenant(tenant) => table.tenant()[i] == *tenant,
                CompiledFilter::EqKey { col, key } => {
                    table.columns()[*col].group_key(i) == Some(*key)
                }
                CompiledFilter::Never => false,
                CompiledFilter::RangeF64 { col, lo, hi } => {
                    let v = table.columns()[*col].value_f64(i);
                    *lo <= v && v < *hi
                }
            }
        };
        scratch.selection.retain(|row| keep(row));
    }
}

/// Builds the `(bucket, group)` key for every selected row.
struct BuildKeys {
    bucket_tu: Option<f64>,
    group: Option<Source>,
}

impl VecOp for BuildKeys {
    fn name(&self) -> String {
        match (self.bucket_tu, self.group) {
            (None, None) => "keys[scalar]".to_string(),
            (Some(w), None) => format!("keys[bucket {w} tu]"),
            (None, Some(_)) => "keys[group]".to_string(),
            (Some(w), Some(_)) => format!("keys[bucket {w} tu, group]"),
        }
    }

    fn execute(&self, table: &Table, scratch: &mut Scratchpad) {
        scratch.keys = scratch
            .selection
            .iter()
            .map(|&row| {
                let i = row as usize;
                let bucket = match self.bucket_tu {
                    Some(width) => (table.time_tu(i) / width).floor() as u64,
                    None => 0,
                };
                let group = match self.group {
                    // Times never group (f64), so only integral sources appear.
                    Some(Source::Tenant) => u64::from(table.tenant()[i]),
                    Some(Source::Col(c)) => table.columns()[c].group_key(i).unwrap_or(u64::MAX),
                    Some(Source::Time) | None => 0,
                };
                (bucket, group)
            })
            .collect();
    }
}

/// Gathers the per-row aggregation input.
struct GatherValues {
    value: Option<Source>,
}

impl VecOp for GatherValues {
    fn name(&self) -> String {
        "gather".to_string()
    }

    fn execute(&self, table: &Table, scratch: &mut Scratchpad) {
        scratch.values = scratch
            .selection
            .iter()
            .map(|&row| {
                let i = row as usize;
                match self.value {
                    Some(Source::Time) => table.time_tu(i),
                    Some(Source::Tenant) => f64::from(table.tenant()[i]),
                    Some(Source::Col(c)) => table.columns()[c].value_f64(i),
                    None => 0.0,
                }
            })
            .collect();
    }
}

/// Folds one group's gathered values with an [`Agg`]. Values arrive in
/// row order; `sort` is `total_cmp`, so NaNs land last and percentiles
/// stay total.
fn fold(agg: Agg, values: &[f64]) -> f64 {
    let n = values.len();
    match agg {
        Agg::Count => n as f64,
        Agg::Sum => values.iter().sum(),
        Agg::Mean => values.iter().sum::<f64>() / n as f64,
        Agg::P50 => nearest_rank(values, 0.50),
        Agg::P95 => nearest_rank(values, 0.95),
        Agg::Max => values.iter().copied().fold(f64::NEG_INFINITY, |a, b| {
            if b.total_cmp(&a).is_gt() {
                b
            } else {
                a
            }
        }),
    }
}

/// The nearest-rank percentile over a `total_cmp` sort: the value at
/// one-based rank `ceil(q × n)`. Callers never pass an empty slice
/// (groups exist only for selected rows).
fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// How result groups render and sort: dictionary groups by label,
/// numeric groups by value.
enum GroupRender<'a> {
    None,
    Label(&'a Column),
    Number,
}

/// A compiled aggregation query over one event kind. Build with
/// [`Query::over`], chain filters/grouping, finish with [`Query::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    kind: EventKind,
    filters: Vec<Filter>,
    group_by: Option<String>,
    bucket_tu: Option<f64>,
    agg: Agg,
    value: Option<String>,
}

impl Query {
    /// Starts a query over `kind` rows; the default aggregation is
    /// [`Agg::Count`] over the whole selection.
    pub fn over(kind: EventKind) -> Query {
        Query {
            kind,
            filters: Vec::new(),
            group_by: None,
            bucket_tu: None,
            agg: Agg::Count,
            value: None,
        }
    }

    /// Adds a row predicate (all filters must hold).
    pub fn filter(mut self, filter: Filter) -> Query {
        self.filters.push(filter);
        self
    }

    /// Keeps rows in the half-open time window `[lo, hi)` TU.
    pub fn between_tu(self, lo_tu: f64, hi_tu: f64) -> Query {
        self.filter(Filter::TimeRange { lo_tu, hi_tu })
    }

    /// Keeps rows stamped with `tenant`.
    pub fn tenant(self, tenant: u32) -> Query {
        self.filter(Filter::Tenant(tenant))
    }

    /// Groups results by an integral or dictionary column (`"tenant"`
    /// selects the implicit tenant column).
    pub fn group_by(mut self, column: &str) -> Query {
        self.group_by = Some(column.to_string());
        self
    }

    /// Buckets results over sim-time windows of `width_tu` TU; result
    /// rows carry the bucket's start time.
    pub fn bucket_tu(mut self, width_tu: f64) -> Query {
        self.bucket_tu = Some(width_tu);
        self
    }

    /// Sets the aggregation and its value column (`"t"` aggregates event
    /// times). Use [`Query::count`] for plain counts.
    pub fn aggregate(mut self, agg: Agg, value_column: &str) -> Query {
        self.agg = agg;
        self.value = Some(value_column.to_string());
        self
    }

    /// Counts selected rows (per group/bucket when combined).
    pub fn count(mut self) -> Query {
        self.agg = Agg::Count;
        self.value = None;
        self
    }

    /// Resolves a column reference against the queried kind.
    fn resolve(&self, name: &str) -> Result<Source, QueryError> {
        match name {
            "t" => Ok(Source::Time),
            _ if name == Field::TENANT.name => Ok(Source::Tenant),
            _ => column_index(self.kind, name).map(Source::Col).ok_or_else(|| {
                QueryError::UnknownColumn { kind: self.kind.tag(), column: name.to_string() }
            }),
        }
    }

    /// Resolves a declared column that must have one of `allowed` types.
    fn resolve_typed(
        &self,
        name: &str,
        allowed: &[ColumnType],
        needed: &'static str,
    ) -> Result<usize, QueryError> {
        match self.resolve(name)? {
            Source::Col(c)
                if columns(self.kind).nth(c).is_some_and(|s| allowed.contains(&s.ty)) =>
            {
                Ok(c)
            }
            _ => Err(QueryError::TypeMismatch { column: name.to_string(), needed }),
        }
    }

    /// Compiles the pipeline. Exposed so plans can be inspected (see
    /// [`Query::explain`]); most callers go straight to [`Query::run`].
    fn plan(&self, store: &TraceStore) -> Result<Vec<Box<dyn VecOp>>, QueryError> {
        let table = store.table(self.kind);
        let mut ops: Vec<Box<dyn VecOp>> = vec![Box::new(ScanAll)];
        for filter in &self.filters {
            let (label, kind) = match filter {
                Filter::TimeRange { lo_tu, hi_tu } => (
                    format!("{lo_tu} <= t < {hi_tu}"),
                    CompiledFilter::TimeRange { lo: *lo_tu, hi: *hi_tu },
                ),
                Filter::Tenant(tenant) => {
                    (format!("tenant == {tenant}"), CompiledFilter::Tenant(*tenant))
                }
                Filter::EqU32 { column, value } => {
                    let col = self.resolve_typed(
                        column,
                        &[ColumnType::U32, ColumnType::U64],
                        "an integral column",
                    )?;
                    (
                        format!("{column} == {value}"),
                        CompiledFilter::EqKey { col, key: u64::from(*value) },
                    )
                }
                Filter::EqLabel { column, label } => {
                    let col =
                        self.resolve_typed(column, &[ColumnType::Dict], "a dictionary column")?;
                    let compiled = match &table.columns()[col] {
                        Column::Dict { dict, .. } => match dict.lookup(label) {
                            Some(code) => CompiledFilter::EqKey { col, key: u64::from(code) },
                            None => CompiledFilter::Never,
                        },
                        _ => CompiledFilter::Never,
                    };
                    (format!("{column} == {label:?}"), compiled)
                }
                Filter::RangeF64 { column, lo, hi } => {
                    let col = self.resolve_typed(column, &[ColumnType::F64], "an f64 column")?;
                    (
                        format!("{lo} <= {column} < {hi}"),
                        CompiledFilter::RangeF64 { col, lo: *lo, hi: *hi },
                    )
                }
            };
            ops.push(Box::new(FilterOp { label, kind }));
        }
        let group = match &self.group_by {
            Some(name) => {
                let source = self.resolve(name)?;
                if let Source::Col(c) = source {
                    if columns(self.kind).nth(c).is_some_and(|s| s.ty == ColumnType::F64) {
                        return Err(QueryError::TypeMismatch {
                            column: name.clone(),
                            needed: "a groupable (integral or dictionary) column",
                        });
                    }
                }
                if source == Source::Time {
                    return Err(QueryError::TypeMismatch {
                        column: name.clone(),
                        needed: "a groupable column (bucket over `t` instead)",
                    });
                }
                Some(source)
            }
            None => None,
        };
        ops.push(Box::new(BuildKeys { bucket_tu: self.bucket_tu, group }));
        let value = match (&self.value, self.agg) {
            (Some(name), _) => Some(self.resolve(name)?),
            (None, Agg::Count) => None,
            (None, agg) => return Err(QueryError::MissingValueColumn { agg: agg.name() }),
        };
        ops.push(Box::new(GatherValues { value }));
        Ok(ops)
    }

    /// The compiled stage names, in execution order — the query plan.
    pub fn explain(&self, store: &TraceStore) -> Result<Vec<String>, QueryError> {
        let mut names: Vec<String> = self.plan(store)?.iter().map(|op| op.name()).collect();
        names.push(format!("aggregate[{}]", self.agg.name()));
        Ok(names)
    }

    /// Executes the pipeline and returns the aggregated rows, sorted by
    /// `(bucket, group)`.
    pub fn run(&self, store: &TraceStore) -> Result<Vec<Row>, QueryError> {
        let table = store.table(self.kind);
        let ops = self.plan(store)?;
        let mut scratch = Scratchpad::default();
        for op in &ops {
            op.execute(table, &mut scratch);
        }

        // Group discovery in first-appearance order, rows kept in row
        // order per group (a linear scan: group cardinality is tiny —
        // tiers, choices, tenants of one fleet cell).
        let mut groups: Vec<((u64, u64), Vec<f64>)> = Vec::new();
        for (key, value) in scratch.keys.iter().zip(&scratch.values) {
            match groups.iter_mut().find(|(k, _)| k == key) {
                Some((_, vals)) => vals.push(*value),
                None => groups.push((*key, vec![*value])),
            }
        }

        let render = match self.group_by.as_deref() {
            None => GroupRender::None,
            Some(name) => match column_index(self.kind, name).map(|c| &table.columns()[c]) {
                Some(col @ Column::Dict { .. }) => GroupRender::Label(col),
                _ => GroupRender::Number,
            },
        };
        let mut rows: Vec<Row> = groups
            .iter()
            .map(|((bucket, group), values)| Row {
                bucket_tu: self.bucket_tu.map(|w| *bucket as f64 * w),
                group: match &render {
                    GroupRender::None => None,
                    GroupRender::Label(Column::Dict { dict, .. }) => {
                        Some(dict.label(*group as u32).to_string())
                    }
                    GroupRender::Label(_) | GroupRender::Number => Some(group.to_string()),
                },
                value: fold(self.agg, values),
            })
            .collect();
        rows.sort_by(|a, b| {
            let bucket = a.bucket_tu.unwrap_or(0.0).total_cmp(&b.bucket_tu.unwrap_or(0.0));
            bucket.then_with(|| a.group.cmp(&b.group))
        });
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_sim::{SimTime, TraceEvent};

    fn dispatch(job: u64, vm: u64, waited: f64) -> TraceEvent {
        TraceEvent::SubtaskDispatched {
            job,
            stage: 0,
            vm,
            cores: 1,
            waited_tu: waited,
            busy_tu: 1.0,
        }
    }

    fn two_tier_store() -> TraceStore {
        let mut store = TraceStore::new();
        store.ingest(SimTime::new(0.1), &TraceEvent::VmHired { vm: 0, tier: 0, cores: 4 });
        store.ingest(SimTime::new(0.2), &TraceEvent::VmHired { vm: 1, tier: 1, cores: 8 });
        let waits = [(0u64, 0.1), (0, 0.3), (0, 0.2), (1, 1.0), (1, 3.0)];
        for (i, (vm, wait)) in waits.iter().enumerate() {
            store.ingest(SimTime::new(1.0 + i as f64), &dispatch(i as u64, *vm, *wait));
        }
        store
    }

    #[test]
    fn p95_queue_wait_per_tier() {
        let rows = Query::over(EventKind::SubtaskDispatched)
            .group_by("tier")
            .aggregate(Agg::P95, "waited_tu")
            .run(&two_tier_store())
            .expect("tier and waited_tu are declared subtask_dispatched columns");
        // Sorted by label: private (vm 0) then public (vm 1).
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].group.as_deref(), Some("private"));
        assert_eq!(rows[0].value, 0.3, "nearest-rank p95 of [0.1, 0.3, 0.2]");
        assert_eq!(rows[1].group.as_deref(), Some("public"));
        assert_eq!(rows[1].value, 3.0, "nearest-rank p95 of [1.0, 3.0]");
    }

    #[test]
    fn count_sum_mean_max() {
        let store = two_tier_store();
        let count = Query::over(EventKind::SubtaskDispatched)
            .count()
            .run(&store)
            .expect("count needs no columns");
        assert_eq!(count.len(), 1);
        assert_eq!(count[0].value, 5.0);
        assert_eq!(count[0].group, None);
        assert_eq!(count[0].bucket_tu, None);

        let sum = Query::over(EventKind::SubtaskDispatched)
            .aggregate(Agg::Sum, "waited_tu")
            .run(&store)
            .expect("waited_tu is declared");
        assert_eq!(sum[0].value, 0.1 + 0.3 + 0.2 + 1.0 + 3.0);

        let mean = Query::over(EventKind::SubtaskDispatched)
            .filter(Filter::EqLabel { column: "tier".into(), label: "public".into() })
            .aggregate(Agg::Mean, "waited_tu")
            .run(&store)
            .expect("tier and waited_tu are declared");
        assert_eq!(mean[0].value, 2.0);

        let max = Query::over(EventKind::SubtaskDispatched)
            .aggregate(Agg::Max, "waited_tu")
            .run(&store)
            .expect("waited_tu is declared");
        assert_eq!(max[0].value, 3.0);
    }

    #[test]
    fn time_buckets_carry_start_times() {
        let mut store = TraceStore::new();
        for (t, depth) in [(0.5, 1u32), (1.5, 3), (2.5, 5), (3.5, 7)] {
            store.ingest(SimTime::new(t), &TraceEvent::QueueDepthSampled { depth });
        }
        let rows = Query::over(EventKind::QueueDepth)
            .bucket_tu(2.0)
            .aggregate(Agg::Max, "depth")
            .run(&store)
            .expect("depth is declared");
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].bucket_tu, rows[0].value), (Some(0.0), 3.0));
        assert_eq!((rows[1].bucket_tu, rows[1].value), (Some(2.0), 7.0));
    }

    #[test]
    fn filters_compose_and_empty_windows_vanish() {
        let store = two_tier_store();
        let rows = Query::over(EventKind::SubtaskDispatched)
            .between_tu(0.0, 2.0)
            .filter(Filter::EqU32 { column: "vm".into(), value: 0 })
            .filter(Filter::RangeF64 { column: "waited_tu".into(), lo: 0.0, hi: 0.5 })
            .count()
            .run(&store)
            .expect("vm and waited_tu are declared");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, 1.0, "only the t=1.0 dispatch survives all filters");

        let none = Query::over(EventKind::SubtaskDispatched)
            .filter(Filter::EqLabel { column: "tier".into(), label: "spot".into() })
            .count()
            .run(&store)
            .expect("tier is declared");
        assert!(none.is_empty(), "an un-interned label selects nothing");
    }

    #[test]
    fn tenant_filter_and_group() {
        let mut store = TraceStore::for_tenant(0);
        store.ingest(SimTime::new(1.0), &TraceEvent::QueueDepthSampled { depth: 2 });
        let mut other = TraceStore::for_tenant(1);
        other.ingest(SimTime::new(1.0), &TraceEvent::QueueDepthSampled { depth: 9 });
        other.ingest(SimTime::new(2.0), &TraceEvent::QueueDepthSampled { depth: 1 });
        scan_sim::Merge::merge(&mut store, other);

        let per_tenant = Query::over(EventKind::QueueDepth)
            .group_by("tenant")
            .count()
            .run(&store)
            .expect("tenant is implicit on every kind");
        assert_eq!(per_tenant.len(), 2);
        assert_eq!((per_tenant[0].group.as_deref(), per_tenant[0].value), (Some("0"), 1.0));
        assert_eq!((per_tenant[1].group.as_deref(), per_tenant[1].value), (Some("1"), 2.0));

        let just_one = Query::over(EventKind::QueueDepth)
            .tenant(1)
            .aggregate(Agg::P50, "depth")
            .run(&store)
            .expect("depth is declared");
        assert_eq!(just_one[0].value, 1.0, "nearest-rank p50 of [9, 1] is the lower value");
    }

    #[test]
    fn schema_errors_are_reported() {
        let store = TraceStore::new();
        let unknown = Query::over(EventKind::QueueDepth).aggregate(Agg::Sum, "no_such").run(&store);
        assert_eq!(
            unknown,
            Err(QueryError::UnknownColumn { kind: "queue_depth", column: "no_such".into() })
        );

        let ungroupable =
            Query::over(EventKind::JobCompleted).group_by("latency_tu").count().run(&store);
        assert!(matches!(ungroupable, Err(QueryError::TypeMismatch { .. })));

        let missing_value =
            Query::over(EventKind::QueueDepth).group_by("depth").run(&TraceStore::new());
        assert!(missing_value.is_ok(), "default aggregation is count");
        let q =
            Query { value: None, ..Query::over(EventKind::QueueDepth).aggregate(Agg::Sum, "x") };
        assert_eq!(q.run(&store), Err(QueryError::MissingValueColumn { agg: "sum" }));
    }

    #[test]
    fn explain_lists_the_stages() {
        let stages = Query::over(EventKind::SubtaskDispatched)
            .between_tu(0.0, 10.0)
            .group_by("tier")
            .bucket_tu(5.0)
            .aggregate(Agg::P95, "waited_tu")
            .explain(&two_tier_store())
            .expect("all referenced columns are declared");
        assert_eq!(
            stages,
            ["scan", "filter[0 <= t < 10]", "keys[bucket 5 tu, group]", "gather", "aggregate[p95]"]
        );
    }
}
