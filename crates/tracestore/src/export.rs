//! The compact on-disk export: `SCTS` version 3.
//!
//! Layout (all integers little-endian; `varint` is LEB128, 7 bits per
//! byte, low group first):
//!
//! ```text
//! magic      b"SCTS"
//! version    u32        (currently 3)
//! table ×16, in ALL_KINDS order:
//!   rows       varint
//!   if rows > 0:
//!     t        delta-varint × rows   (u64 f64-bit-pattern deltas; the
//!                                     column is monotone, so deltas fit
//!                                     small varints)
//!     tenant   varint × rows
//!     per declared column, in schema::columns order:
//!       U32    varint × rows
//!       U64    varint × rows
//!       F64    raw 8-byte LE × rows
//!       Dict   labels varint, then per label (len varint + UTF-8 bytes),
//!              then codes varint × rows
//! order      u8 × Σ rows   (each event's ALL_KINDS index, in emission
//!                           order; see TraceStore::replay)
//! digest     u64        (FNV-1a 64 over every preceding byte)
//! ```
//!
//! The trailing digest doubles as the store-level fingerprint CI pins:
//! [`TraceStore::digest`] returns it without materializing a file, and
//! because merged stores are bit-identical across thread counts, so is
//! the digest. Empty tables cost one byte each, so a solo fig4 cell
//! (which never emits admission events) pays no overhead for the fleet
//! kinds; the order stream costs one byte per event.

use crate::column::{Column, Interner};
use crate::schema::{columns, ColumnType, EventKind, ALL_KINDS};
use crate::store::{Table, TraceStore};
use std::fmt;

/// The 4-byte export signature.
pub const MAGIC: [u8; 4] = *b"SCTS";

/// The format version this crate writes and reads. Bumped to 2 when the
/// `slo_violation` table and `job_arrived.submitted_tu` column were
/// added, and to 3 when the order stream was appended after the tables.
pub const VERSION: u32 = 3;

/// Why decoding an export failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The version field is not [`VERSION`].
    BadVersion(u32),
    /// The buffer ended before the layout was complete.
    Truncated,
    /// The trailing digest does not match the decoded bytes.
    DigestMismatch {
        /// Digest stored in the trailer.
        stored: u64,
        /// Digest recomputed over the payload.
        computed: u64,
    },
    /// A decoded value is impossible (oversized varint, bad UTF-8,
    /// dictionary code past the dictionary, a label no event can carry,
    /// a time that is negative or not finite, an order stream that
    /// disagrees with the tables).
    Malformed,
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::BadMagic => write!(f, "not an SCTS export (bad magic)"),
            ExportError::BadVersion(v) => write!(f, "unsupported SCTS version {v}"),
            ExportError::Truncated => write!(f, "truncated SCTS export"),
            ExportError::DigestMismatch { stored, computed } => {
                write!(f, "SCTS digest mismatch: trailer {stored:016x}, payload {computed:016x}")
            }
            ExportError::Malformed => write!(f, "malformed SCTS payload"),
        }
    }
}

impl std::error::Error for ExportError {}

/// FNV-1a 64 over `bytes` — small, dependency-free, and stable across
/// platforms, which is all a CI fingerprint needs (this is an integrity
/// check, not a cryptographic commitment).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A cursor over the encoded buffer.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ExportError> {
        let end = self.pos.checked_add(n).ok_or(ExportError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(ExportError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn varint(&mut self) -> Result<u64, ExportError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self.bytes.get(self.pos).ok_or(ExportError::Truncated)?;
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ExportError::Malformed)
    }

    fn varint_u32(&mut self) -> Result<u32, ExportError> {
        u32::try_from(self.varint()?).map_err(|_| ExportError::Malformed)
    }
}

fn encode_table(out: &mut Vec<u8>, table: &Table) {
    push_varint(out, table.rows() as u64);
    if table.is_empty() {
        return;
    }
    let mut prev = 0u64;
    for &bits in table.t_bits() {
        push_varint(out, bits.wrapping_sub(prev));
        prev = bits;
    }
    for &tenant in table.tenant() {
        push_varint(out, u64::from(tenant));
    }
    for col in table.columns() {
        match col {
            Column::U32(v) => v.iter().for_each(|&x| push_varint(out, u64::from(x))),
            Column::U64(v) => v.iter().for_each(|&x| push_varint(out, x)),
            Column::F64(v) => v.iter().for_each(|&x| out.extend_from_slice(&x.to_le_bytes())),
            Column::Dict { codes, dict } => {
                push_varint(out, dict.len() as u64);
                for label in dict.labels() {
                    push_varint(out, label.len() as u64);
                    out.extend_from_slice(label.as_bytes());
                }
                codes.iter().for_each(|&c| push_varint(out, u64::from(c)));
            }
        }
    }
}

fn decode_table(r: &mut Reader<'_>, kind: EventKind) -> Result<Table, ExportError> {
    let rows = usize::try_from(r.varint()?).map_err(|_| ExportError::Malformed)?;
    if rows == 0 {
        // Even an empty table carries its declared (empty) columns, so
        // schema-resolved queries stay in bounds.
        let cols = columns(kind).map(|spec| Column::new(spec.ty)).collect();
        return Ok(Table::from_parts(kind, Vec::new(), Vec::new(), cols));
    }
    // Cap against absurd row counts before allocating (a corrupt varint
    // must not turn into an OOM): the buffer can hold at most one byte
    // per remaining row.
    if rows > r.bytes.len().saturating_sub(r.pos) {
        return Err(ExportError::Truncated);
    }
    let mut t_bits = Vec::with_capacity(rows);
    let mut prev = 0u64;
    for _ in 0..rows {
        prev = prev.wrapping_add(r.varint()?);
        let t = f64::from_bits(prev);
        if !(t.is_finite() && t >= 0.0) {
            return Err(ExportError::Malformed);
        }
        t_bits.push(prev);
    }
    let mut tenant = Vec::with_capacity(rows);
    for _ in 0..rows {
        tenant.push(r.varint_u32()?);
    }
    let mut cols = Vec::new();
    for spec in columns(kind) {
        let col = match spec.ty {
            ColumnType::U32 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(r.varint_u32()?);
                }
                Column::U32(v)
            }
            ColumnType::U64 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(r.varint()?);
                }
                Column::U64(v)
            }
            ColumnType::F64 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let raw = r.take(8)?;
                    let mut le = [0u8; 8];
                    le.copy_from_slice(raw);
                    v.push(f64::from_le_bytes(le));
                }
                Column::F64(v)
            }
            ColumnType::Dict => {
                let n_labels = usize::try_from(r.varint()?).map_err(|_| ExportError::Malformed)?;
                if n_labels > r.bytes.len().saturating_sub(r.pos) {
                    return Err(ExportError::Truncated);
                }
                let mut labels = Vec::with_capacity(n_labels);
                for _ in 0..n_labels {
                    let len = usize::try_from(r.varint()?).map_err(|_| ExportError::Malformed)?;
                    let raw = r.take(len)?;
                    labels
                        .push(String::from_utf8(raw.to_vec()).map_err(|_| ExportError::Malformed)?);
                }
                let mut codes = Vec::with_capacity(rows);
                for _ in 0..rows {
                    let code = r.varint_u32()?;
                    if code as usize >= n_labels {
                        return Err(ExportError::Malformed);
                    }
                    codes.push(code);
                }
                Column::Dict { codes, dict: Interner::from_labels(labels) }
            }
        };
        cols.push(col);
    }
    Ok(Table::from_parts(kind, t_bits, tenant, cols))
}

impl TraceStore {
    /// Encodes the store as an SCTS v3 buffer (payload + digest
    /// trailer). Bit-identical for equal stores, so merged fleet exports
    /// reproduce across `RAYON_NUM_THREADS`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.events() as usize * 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for table in self.tables() {
            encode_table(&mut out, table);
        }
        out.extend_from_slice(self.order());
        let digest = fnv1a64(&out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// The store's FNV-1a 64 fingerprint — the same value the export's
    /// trailer carries, computed without materializing a file.
    pub fn digest(&self) -> u64 {
        let bytes = self.to_bytes();
        let trailer = &bytes[bytes.len() - 8..];
        let mut le = [0u8; 8];
        le.copy_from_slice(trailer);
        u64::from_le_bytes(le)
    }

    /// Decodes an SCTS v3 buffer, verifying magic, version, layout, the
    /// order stream against the tables, and the digest trailer.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceStore, ExportError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(ExportError::Truncated);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let mut le = [0u8; 8];
        le.copy_from_slice(trailer);
        let stored = u64::from_le_bytes(le);
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(ExportError::DigestMismatch { stored, computed });
        }
        let mut r = Reader { bytes: payload, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(ExportError::BadMagic);
        }
        let mut ver = [0u8; 4];
        ver.copy_from_slice(r.take(4)?);
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(ExportError::BadVersion(version));
        }
        let mut tables = Vec::with_capacity(ALL_KINDS.len());
        for kind in ALL_KINDS {
            tables.push(decode_table(&mut r, kind)?);
        }
        // One tag per row: the stream's length is fixed by the tables,
        // and `take` bounds it by the bytes actually present.
        let events = tables.iter().map(Table::rows).sum();
        let order = r.take(events)?.to_vec();
        if r.pos != payload.len() {
            return Err(ExportError::Malformed);
        }
        let store = TraceStore::from_parts(tables, order);
        if !store.check_invariants() {
            return Err(ExportError::Malformed);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Agg, EventKind};
    use crate::Query;
    use scan_sim::{ScalingChoice, SimTime, TraceEvent};

    fn sample_store() -> TraceStore {
        let mut store = TraceStore::new();
        store.ingest(SimTime::new(0.25), &TraceEvent::VmHired { vm: 0, tier: 0, cores: 4 });
        store.ingest(
            SimTime::new(1.0),
            &TraceEvent::JobArrived { job: 0, size_units: 12.0, submitted_tu: 1.0 },
        );
        store.ingest(
            SimTime::new(1.5),
            &TraceEvent::SubtaskDispatched {
                job: 0,
                stage: 0,
                vm: 0,
                cores: 2,
                waited_tu: 0.5,
                busy_tu: 2.0,
            },
        );
        store.ingest(
            SimTime::new(2.0),
            &TraceEvent::ScalingDecision {
                stage: 0,
                cores: 2,
                queued_jobs: 3,
                delay_cost: 1.25,
                hire_cost: f64::NAN,
                choice: ScalingChoice::Wait,
            },
        );
        store.ingest(SimTime::new(9.0), &TraceEvent::RunEnded { events_dispatched: 1 << 40 });
        store
    }

    #[test]
    fn round_trips_byte_identically() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let decoded = TraceStore::from_bytes(&bytes).expect("own export must decode");
        // NaN in the scaling costs breaks PartialEq, so compare re-encoded
        // bytes: bit-identical encode ⇒ bit-identical store.
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(decoded.events(), store.events());
        assert!(decoded.check_invariants());
    }

    #[test]
    fn decoded_stores_answer_queries() {
        let store = sample_store();
        let decoded = TraceStore::from_bytes(&store.to_bytes()).expect("own export must decode");
        let rows = Query::over(EventKind::SubtaskDispatched)
            .group_by("tier")
            .aggregate(Agg::P95, "waited_tu")
            .run(&decoded)
            .expect("tier and waited_tu are declared");
        assert_eq!(rows[0].group.as_deref(), Some("private"));
        assert_eq!(rows[0].value, 0.5);
    }

    #[test]
    fn digest_matches_trailer_and_detects_tampering() {
        let store = sample_store();
        let mut bytes = store.to_bytes();
        assert_eq!(store.digest(), {
            let mut le = [0u8; 8];
            le.copy_from_slice(&bytes[bytes.len() - 8..]);
            u64::from_le_bytes(le)
        });
        let flip = bytes.len() / 2;
        bytes[flip] ^= 0x01;
        assert!(matches!(TraceStore::from_bytes(&bytes), Err(ExportError::DigestMismatch { .. })));
    }

    #[test]
    fn rejects_wrong_magic_version_and_truncation() {
        let store = sample_store();
        let good = store.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        reseal(&mut bad_magic);
        assert_eq!(TraceStore::from_bytes(&bad_magic), Err(ExportError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        reseal(&mut bad_version);
        assert_eq!(TraceStore::from_bytes(&bad_version), Err(ExportError::BadVersion(99)));

        assert_eq!(TraceStore::from_bytes(&good[..5]), Err(ExportError::Truncated));
    }

    /// Recomputes the digest trailer after an edit to the payload.
    fn reseal(bytes: &mut [u8]) {
        let payload_len = bytes.len() - 8;
        let digest = fnv1a64(&bytes[..payload_len]);
        bytes[payload_len..].copy_from_slice(&digest.to_le_bytes());
    }

    #[test]
    fn order_stream_closes_the_payload_and_is_checked() {
        let store = sample_store();
        let good = store.to_bytes();
        let order_at = good.len() - 8 - store.events() as usize;
        // Tags in ALL_KINDS index order: hired, arrived, dispatched,
        // decision, run_ended.
        assert_eq!(&good[order_at..good.len() - 8], [6, 0, 4, 10, 15]);

        let mut v2 = good.clone();
        v2[4] = 2;
        reseal(&mut v2);
        assert_eq!(TraceStore::from_bytes(&v2), Err(ExportError::BadVersion(2)));

        let mut bad_tag = good.clone();
        bad_tag[order_at] = ALL_KINDS.len() as u8;
        reseal(&mut bad_tag);
        assert_eq!(TraceStore::from_bytes(&bad_tag), Err(ExportError::Malformed));

        // A valid tag that names a kind one row too often.
        let mut miscounted = good.clone();
        miscounted[order_at] = 0;
        reseal(&mut miscounted);
        assert_eq!(TraceStore::from_bytes(&miscounted), Err(ExportError::Malformed));

        let mut short = good[..good.len() - 9].to_vec();
        short.extend_from_slice(&[0; 8]);
        reseal(&mut short);
        assert_eq!(TraceStore::from_bytes(&short), Err(ExportError::Truncated));
    }

    #[test]
    fn rejects_times_that_are_not_sim_times() {
        let good = sample_store().to_bytes();
        // The first table (job_arrived) holds one row at t = 1.0: its
        // rows varint is byte 8 and the time's delta varint follows.
        let mut first = Vec::new();
        push_varint(&mut first, 1.0f64.to_bits());
        assert_eq!(&good[9..9 + first.len()], first);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut bytes = good[..9].to_vec();
            push_varint(&mut bytes, f64::to_bits(bad));
            bytes.extend_from_slice(&good[9 + first.len()..]);
            reseal(&mut bytes);
            assert_eq!(TraceStore::from_bytes(&bytes), Err(ExportError::Malformed), "t = {bad}");
        }
    }

    #[test]
    fn empty_store_is_tiny() {
        let bytes = TraceStore::new().to_bytes();
        // magic + version + one zero-varint per kind + an empty order
        // stream + digest.
        assert_eq!(bytes.len(), 4 + 4 + 16 + 8);
        let decoded = TraceStore::from_bytes(&bytes).expect("empty export must decode");
        assert_eq!(decoded.events(), 0);
    }

    #[test]
    fn merged_exports_are_deterministic() {
        let build = |tenant: u32, depth: u32| {
            let mut s = TraceStore::for_tenant(tenant);
            s.ingest(SimTime::new(1.0), &TraceEvent::QueueDepthSampled { depth });
            s.ingest(SimTime::new(2.0), &TraceEvent::VmHired { vm: 0, tier: tenant, cores: 2 });
            s
        };
        let merge_all = || {
            let mut base = build(0, 4);
            scan_sim::Merge::merge(&mut base, build(1, 7));
            scan_sim::Merge::merge(&mut base, build(2, 9));
            base.to_bytes()
        };
        assert_eq!(merge_all(), merge_all());
    }
}
