//! The in-process columnar trace store: an [`Observer`] that turns the
//! event stream into per-kind typed tables during the run.
//!
//! Ingest is one loop over the event's field values (`TraceEvent::with_values`,
//! in the order of its kind's field table) that pushes each onto its
//! column — no strings are formatted and nothing is re-parsed later, in
//! contrast to the JSONL sink whose output every consumer had to decode
//! again. Replay runs the same mapping backwards and rebuilds each event
//! through `TraceEvent::from_values`. Two enrichments happen at ingest
//! time because they are free while the stream is live and expensive
//! afterwards:
//!
//! * **Tier attribution.** The store tracks every VM's current tier from
//!   its `vm_hired`/`vm_reshaped` history, so `subtask_dispatched` rows
//!   carry a derived `tier` label — the "p95 queue wait per tier" query
//!   needs no join.
//! * **Tenant stamping.** Every row records its tenant (0 for solo
//!   sessions); merged fleet stores therefore stay per-tenant queryable.
//!
//! Beside the tables the store keeps an *order stream*: one kind tag per
//! ingested event. Tables alone lose the order of events of different
//! kinds; with the tags, [`TraceStore::replay`] rebuilds the exact
//! stream the store observed, so every other artefact (JSONL, spans,
//! metrics) is a replay of the one recording.
//!
//! Merging ([`Merge`]) concatenates tables row-wise, remapping
//! dictionary codes, and concatenates the order streams; callers merge
//! in a fixed (repetition, tenant) order, so merged stores — and their
//! exports — are bit-identical for any `RAYON_NUM_THREADS` (the same
//! contract every observer in this workspace honours; see
//! `docs/TRACESTORE.md` § Determinism).

use crate::column::Column;
use crate::schema::{column_index, columns, EventKind, ALL_KINDS};
use scan_sim::{FieldType, Merge, Observer, ScalingChoice, SimTime, TraceEvent, Value, MAX_FIELDS};

/// The label a tier index is stored under: the catalogue order of
/// `Platform::new` (0 = private, 1 = public); later indices would be
/// spot-style tiers and keep their numeric name until they earn one.
pub fn tier_label(tier: u32) -> &'static str {
    match tier {
        0 => "private",
        1 => "public",
        _ => "tier2+",
    }
}

/// The value a stored label stands for in a field of type `ty`: a tier
/// through the inverse of [`tier_label`] (every tier from 2 on reads
/// back as 2), a scaling choice by its name. `None` for a label no event
/// can carry.
fn label_value(ty: FieldType, label: &str) -> Option<Value> {
    match ty {
        FieldType::Tier => (0..3).find(|&tier| tier_label(tier) == label).map(Value::Tier),
        FieldType::Choice => {
            ScalingChoice::ALL.into_iter().find(|c| c.name() == label).map(Value::Choice)
        }
        _ => None,
    }
}

/// The label used when a dispatching VM was never seen being hired
/// (possible only for synthetic streams; live sessions always hire
/// before dispatching).
pub const UNKNOWN_TIER: &str = "unknown";

/// One event kind's columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    kind: EventKind,
    /// Event times as `f64` bit patterns (monotone non-decreasing).
    t_bits: Vec<u64>,
    /// Owning tenant per row.
    tenant: Vec<u32>,
    /// Declared columns, parallel to [`schema::columns`](crate::schema::columns).
    cols: Vec<Column>,
}

impl Table {
    fn new(kind: EventKind) -> Table {
        Table {
            kind,
            t_bits: Vec::new(),
            tenant: Vec::new(),
            cols: columns(kind).map(|spec| Column::new(spec.ty)).collect(),
        }
    }

    /// The kind whose rows this table holds.
    pub fn kind(&self) -> EventKind {
        self.kind
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.t_bits.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.t_bits.is_empty()
    }

    /// Event time of row `i`, in TU.
    pub fn time_tu(&self, i: usize) -> f64 {
        f64::from_bits(self.t_bits[i])
    }

    /// The raw time column (bit patterns).
    pub fn t_bits(&self) -> &[u64] {
        &self.t_bits
    }

    /// The tenant column.
    pub fn tenant(&self) -> &[u32] {
        &self.tenant
    }

    /// The declared columns, in [`schema::columns`](crate::schema::columns) order.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// A declared column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        column_index(self.kind, name).map(|i| &self.cols[i])
    }

    /// Rebuilds a table from decoded parts (export reader). Lengths are
    /// the reader's responsibility; `check_invariants` re-verifies.
    pub(crate) fn from_parts(
        kind: EventKind,
        t_bits: Vec<u64>,
        tenant: Vec<u32>,
        cols: Vec<Column>,
    ) -> Table {
        Table { kind, t_bits, tenant, cols }
    }

    /// Row `row` rebuilt as the event it was ingested from: each field
    /// read back from its column (the admission tenant from the row
    /// stamp) and passed through `TraceEvent::from_values`. The derived
    /// `subtask_dispatched.tier` column is not an event field. `None` if
    /// a stored label is one no event can carry.
    fn event(&self, row: usize) -> Option<TraceEvent> {
        let fields = self.kind.fields();
        let mut values = [Value::U32(0); MAX_FIELDS];
        let mut cols = self.cols.iter();
        for (value, field) in values.iter_mut().zip(fields) {
            if field.ty == FieldType::Tenant {
                *value = Value::Tenant(self.tenant[row]);
                continue;
            }
            *value = match (field.ty, cols.next()?) {
                (FieldType::Id, Column::U32(v)) => Value::Id(u64::from(v[row])),
                (FieldType::U32, Column::U32(v)) => Value::U32(v[row]),
                (FieldType::U64, Column::U64(v)) => Value::U64(v[row]),
                (FieldType::F64, Column::F64(v)) => Value::F64(v[row]),
                (ty, Column::Dict { codes, dict }) => label_value(ty, dict.label(codes[row]))?,
                _ => return None,
            };
        }
        TraceEvent::from_values(self.kind, values.get(..fields.len())?)
    }

    /// Whether every dictionary label decodes: an event field's labels
    /// must be ones its events can carry, and the derived tier's may also
    /// be [`UNKNOWN_TIER`].
    fn labels_decode(&self) -> bool {
        let mut stored = self.kind.fields().iter().filter(|f| f.ty != FieldType::Tenant);
        self.cols.iter().all(|col| {
            let field = stored.next();
            let Column::Dict { dict, .. } = col else { return true };
            dict.labels().iter().all(|label| match field {
                Some(field) => label_value(field.ty, label).is_some(),
                None => label == UNKNOWN_TIER || label_value(FieldType::Tier, label).is_some(),
            })
        })
    }

    fn push_meta(&mut self, at: SimTime, tenant: u32) {
        self.t_bits.push(at.as_tu().to_bits());
        self.tenant.push(tenant);
    }

    fn append(&mut self, other: &Table) {
        self.t_bits.extend_from_slice(&other.t_bits);
        self.tenant.extend_from_slice(&other.tenant);
        for (mine, theirs) in self.cols.iter_mut().zip(&other.cols) {
            mine.append(theirs);
        }
    }
}

/// Saturating id narrowing: upstream ids are `u32` arena slots carried
/// in `u64` fields, so this is lossless for live streams.
fn narrow(id: u64) -> u32 {
    u32::try_from(id).unwrap_or(u32::MAX)
}

/// The columnar trace store. Build one per session (it is an
/// [`Observer`]); a parallel driver builds one per tenant session with
/// `|tenant| TraceStore::for_tenant(tenant as u32)` and merges the
/// results.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStore {
    tables: Vec<Table>,
    /// Tenant id stamped on every ingested row (admission events carry
    /// their own tenant and override the stamp).
    tenant: u32,
    /// VM id → current tier index, maintained from hire/reshape events.
    vm_tier: Vec<u32>,
    /// The order stream: each ingested event's kind, as its `ALL_KINDS`
    /// index, in emission order.
    order: Vec<u8>,
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceStore {
    /// An empty store stamping tenant 0 (single-tenant sessions).
    pub fn new() -> TraceStore {
        Self::for_tenant(0)
    }

    /// An empty store stamping every row with `tenant` (fleet sessions).
    pub fn for_tenant(tenant: u32) -> TraceStore {
        TraceStore {
            tables: ALL_KINDS.iter().map(|&k| Table::new(k)).collect(),
            tenant,
            vm_tier: Vec::new(),
            order: Vec::new(),
        }
    }

    /// The table for `kind` (possibly empty).
    pub fn table(&self, kind: EventKind) -> &Table {
        &self.tables[kind as usize]
    }

    /// All tables, in [`ALL_KINDS`] order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Total events ingested across all tables.
    pub fn events(&self) -> u64 {
        self.order.len() as u64
    }

    /// The order stream (export writer).
    pub(crate) fn order(&self) -> &[u8] {
        &self.order
    }

    /// Rebuilds a store from decoded tables and order stream (export
    /// reader). The vm→tier scratch map is not part of the persisted
    /// state — derived columns were materialized at ingest time — so a
    /// decoded store queries and replays identically but should not
    /// ingest further events.
    pub(crate) fn from_parts(tables: Vec<Table>, order: Vec<u8>) -> TraceStore {
        TraceStore { tables, tenant: 0, vm_tier: Vec::new(), order }
    }

    /// Every stored event as `(tenant, time, event)`, in the order the
    /// store ingested them: the order stream picks the table, a cursor
    /// per table picks the row. Replaying into an observer reproduces
    /// what it saw live, for solo and merged stores alike.
    ///
    /// The rebuild is exact with one exception: a tier index of 2 or
    /// more is stored under one label (`tier2+`, see [`tier_label`]) and
    /// comes back as 2.
    pub fn replay(&self) -> impl Iterator<Item = (u32, SimTime, TraceEvent)> + '_ {
        let mut cursor = [0usize; ALL_KINDS.len()];
        self.order.iter().map(move |&kind| {
            let kind = usize::from(kind);
            let row = cursor[kind];
            cursor[kind] += 1;
            let table = &self.tables[kind];
            let event =
                table.event(row).expect("ingest and decoding store only labels that decode");
            (table.tenant[row], SimTime::new(table.time_tu(row)), event)
        })
    }

    /// The tier currently attributed to `vm`, as a label.
    fn tier_of(&self, vm: u64) -> &'static str {
        match self.vm_tier.get(vm as usize) {
            Some(&t) if t != u32::MAX => tier_label(t),
            _ => UNKNOWN_TIER,
        }
    }

    fn note_tier(&mut self, vm: u64, tier: u32) {
        let idx = vm as usize;
        if idx >= self.vm_tier.len() {
            self.vm_tier.resize(idx + 1, u32::MAX);
        }
        self.vm_tier[idx] = tier;
    }

    /// Ingests one event (the [`Observer`] impl delegates here): each
    /// field value is pushed onto its column in field order, an id
    /// narrowed to `u32`, a tier or choice as its label, and an admission
    /// tenant as the row stamp.
    pub fn ingest(&mut self, at: SimTime, event: &TraceEvent) {
        let kind = event.kind();
        self.order.push(kind as u8);
        // Tier attribution must be current before the row is written.
        let tier_attr = match *event {
            TraceEvent::VmHired { vm, tier, .. } | TraceEvent::VmReshaped { vm, tier, .. } => {
                self.note_tier(vm, tier);
                None
            }
            TraceEvent::SubtaskDispatched { vm, .. } => Some(self.tier_of(vm)),
            _ => None,
        };
        let mut tenant = self.tenant;
        let table = &mut self.tables[kind as usize];
        let mut cols = table.cols.iter_mut();
        let mut next = || cols.next().expect("the layout has a column per stored field");
        event.with_values(|values| {
            for value in values {
                match *value {
                    Value::Id(id) => next().push_u32(narrow(id)),
                    Value::U32(v) => next().push_u32(v),
                    Value::U64(v) => next().push_u64(v),
                    Value::F64(v) => next().push_f64(v),
                    Value::Tier(tier) => next().push_label(tier_label(tier)),
                    Value::Choice(choice) => next().push_label(choice.name()),
                    Value::Tenant(t) => tenant = t,
                }
            }
        });
        if let Some(label) = tier_attr {
            next().push_label(label);
        }
        table.push_meta(at, tenant);
    }

    /// Sanity check used by tests, debug assertions and the export
    /// reader: every table's columns agree on the row count, every
    /// dictionary label decodes (so [`replay`](Self::replay) rebuilds
    /// each row), and the order stream names each kind exactly as often
    /// as its table has rows (so its length is Σ rows and replay stays
    /// in bounds).
    pub fn check_invariants(&self) -> bool {
        let mut counts = [0usize; ALL_KINDS.len()];
        for &kind in &self.order {
            match counts.get_mut(usize::from(kind)) {
                Some(n) => *n += 1,
                None => return false,
            }
        }
        self.tables.iter().zip(counts).all(|(t, n)| {
            t.rows() == n
                && t.tenant.len() == n
                && t.cols.iter().all(|c| c.len() == n)
                && t.labels_decode()
        })
    }
}

impl Observer for TraceStore {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        self.ingest(at, event);
    }
}

impl Merge for TraceStore {
    /// Appends `other`'s rows after this store's own, per table, and its
    /// order stream after this one's. Determinism contract: callers
    /// merge in `(repetition, tenant)` order.
    fn merge(&mut self, other: TraceStore) {
        for (mine, theirs) in self.tables.iter_mut().zip(&other.tables) {
            mine.append(theirs);
        }
        self.order.extend_from_slice(&other.order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_sim::ScalingChoice;

    fn t(tu: f64) -> SimTime {
        SimTime::new(tu)
    }

    #[test]
    fn ingest_fills_the_right_table() {
        let mut store = TraceStore::new();
        store
            .ingest(t(1.0), &TraceEvent::JobArrived { job: 3, size_units: 5.0, submitted_tu: 1.0 });
        store.ingest(t(2.0), &TraceEvent::QueueDepthSampled { depth: 9 });
        store.ingest(t(2.0), &TraceEvent::QueueDepthSampled { depth: 7 });
        assert_eq!(store.table(EventKind::JobArrived).rows(), 1);
        assert_eq!(store.table(EventKind::QueueDepth).rows(), 2);
        assert_eq!(store.events(), 3);
        assert!(store.check_invariants());
        let depth = store.table(EventKind::QueueDepth).column("depth").expect("declared column");
        assert_eq!(depth.value_f64(1), 7.0);
    }

    #[test]
    fn dispatch_rows_carry_the_hiring_tier() {
        let mut store = TraceStore::new();
        store.ingest(t(0.5), &TraceEvent::VmHired { vm: 0, tier: 1, cores: 4 });
        store.ingest(t(0.6), &TraceEvent::VmHired { vm: 1, tier: 0, cores: 2 });
        for (vm, at) in [(0u64, 1.0), (1, 1.5), (0, 2.0)] {
            store.ingest(
                t(at),
                &TraceEvent::SubtaskDispatched {
                    job: 1,
                    stage: 0,
                    vm,
                    cores: 1,
                    waited_tu: 0.1,
                    busy_tu: 1.0,
                },
            );
        }
        // Reshape does not change the tier, but a later hire of a new VM id does.
        store
            .ingest(t(2.5), &TraceEvent::VmReshaped { vm: 1, tier: 0, cores_from: 2, cores_to: 4 });
        let table = store.table(EventKind::SubtaskDispatched);
        let tier = table.column("tier").expect("derived tier column");
        match tier {
            Column::Dict { codes, dict } => {
                let labels: Vec<&str> = codes.iter().map(|&c| dict.label(c)).collect();
                assert_eq!(labels, ["public", "private", "public"]);
            }
            _ => unreachable!("tier is declared as a dict column"),
        }
    }

    #[test]
    fn unknown_vm_dispatches_label_unknown() {
        let mut store = TraceStore::new();
        store.ingest(
            t(1.0),
            &TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 0,
                vm: 42,
                cores: 1,
                waited_tu: 0.0,
                busy_tu: 1.0,
            },
        );
        let table = store.table(EventKind::SubtaskDispatched);
        match table.column("tier").expect("derived tier column") {
            Column::Dict { codes, dict } => assert_eq!(dict.label(codes[0]), UNKNOWN_TIER),
            _ => unreachable!("tier is declared as a dict column"),
        }
    }

    #[test]
    fn admission_rows_use_the_event_tenant() {
        let mut store = TraceStore::for_tenant(7);
        store.ingest(t(1.0), &TraceEvent::AdmissionDeferred { tenant: 3, jobs: 2, backlog: 2 });
        store.ingest(t(2.0), &TraceEvent::QueueDepthSampled { depth: 1 });
        assert_eq!(store.table(EventKind::AdmissionDeferred).tenant(), [3]);
        assert_eq!(store.table(EventKind::QueueDepth).tenant(), [7]);
    }

    #[test]
    fn merge_concatenates_and_remaps() {
        let mut a = TraceStore::new();
        a.ingest(t(1.0), &TraceEvent::VmHired { vm: 0, tier: 0, cores: 2 });
        let mut b = TraceStore::for_tenant(1);
        b.ingest(t(1.5), &TraceEvent::VmHired { vm: 0, tier: 1, cores: 4 });
        b.ingest(
            t(2.0),
            &TraceEvent::ScalingDecision {
                stage: 0,
                cores: 2,
                queued_jobs: 1,
                delay_cost: 1.0,
                hire_cost: 2.0,
                choice: ScalingChoice::Wait,
            },
        );
        a.merge(b);
        assert_eq!(a.events(), 3);
        assert!(a.check_invariants());
        let hired = a.table(EventKind::VmHired);
        assert_eq!(hired.rows(), 2);
        assert_eq!(hired.tenant(), [0, 1]);
        match hired.column("tier").expect("declared column") {
            Column::Dict { codes, dict } => {
                assert_eq!(dict.labels(), ["private", "public"]);
                assert_eq!(codes, &[0, 1]);
            }
            _ => unreachable!("tier is declared as a dict column"),
        }
    }

    #[test]
    fn tier_labels_round_trip() {
        for tier in 0..5 {
            let value = label_value(FieldType::Tier, tier_label(tier));
            assert_eq!(value, Some(Value::Tier(tier.min(2))));
        }
        assert_eq!(label_value(FieldType::Tier, UNKNOWN_TIER), None);
        assert_eq!(label_value(FieldType::Choice, "public"), None);
    }

    #[test]
    fn replay_keeps_emission_order_across_kinds_and_merges() {
        let run = |tenant: u32| {
            vec![
                (t(0.5), TraceEvent::VmHired { vm: 0, tier: 1, cores: 2 }),
                (t(1.5), TraceEvent::SubtaskDone { job: 0, stage: 0, vm: 0 }),
                (t(1.5), TraceEvent::VmBooted { vm: 0, cores: 2 }),
                (t(1.5), TraceEvent::AdmissionDeferred { tenant, jobs: 1, backlog: 1 }),
                (t(1.5), TraceEvent::SubtaskDone { job: 1, stage: 2, vm: 0 }),
                (t(2.0), TraceEvent::VmReleased { vm: 0, tier: 1, cores: 2 }),
                (t(2.0), TraceEvent::RunEnded { events_dispatched: 9 }),
            ]
        };
        let mut merged = TraceStore::new();
        let mut expected = Vec::new();
        for tenant in 0..2 {
            let mut store = TraceStore::for_tenant(tenant);
            for (at, event) in run(tenant) {
                store.ingest(at, &event);
                expected.push((tenant, at, event));
            }
            merged.merge(store);
        }
        assert!(merged.check_invariants());
        assert_eq!(merged.replay().collect::<Vec<_>>(), expected);
    }
}
