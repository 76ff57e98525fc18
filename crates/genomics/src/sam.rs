//! SAM-style alignment records with a compact binary encoding ("SBAM").
//!
//! The paper's pipeline consumes "aligned DNA or RNA reads, typically in
//! Binary Aligned Map (BAM) format". Real BAM is BGZF-compressed; our SBAM
//! keeps the part that matters to the platform — a *binary, record-framed*
//! stream that sharders must split on record boundaries — without the
//! compression machinery.
//!
//! Binary layout (little-endian):
//!
//! ```text
//! file   := magic "SBAM1" u32 record_count record*
//! record := u32 total_len            (bytes after this field)
//!           u16 qname_len  qname
//!           u16 flag
//!           i32 ref_id  i32 pos  u8 mapq
//!           u32 seq_len   seq   qual(seq_len bytes)
//! ```

use std::fmt;

/// Magic bytes opening an SBAM stream.
pub const SBAM_MAGIC: &[u8; 5] = b"SBAM1";

/// Flag bit: the read failed to align.
pub const FLAG_UNMAPPED: u16 = 0x4;
/// Flag bit: the read aligned to the reverse strand.
pub const FLAG_REVERSE: u16 = 0x10;
/// Flag bit: the record is a PCR/optical duplicate.
pub const FLAG_DUPLICATE: u16 = 0x400;

/// One aligned (or unaligned) read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamRecord {
    /// Query (read) name.
    pub qname: String,
    /// Bitwise flags (`FLAG_*`).
    pub flag: u16,
    /// Reference sequence index; −1 when unmapped.
    pub ref_id: i32,
    /// 0-based leftmost mapping position; −1 when unmapped.
    pub pos: i32,
    /// Mapping quality (Phred-scaled confidence).
    pub mapq: u8,
    /// Read bases.
    pub seq: Vec<u8>,
    /// Phred+33 base qualities, same length as `seq`.
    pub qual: Vec<u8>,
}

impl SamRecord {
    /// An unmapped record for a read.
    pub fn unmapped(qname: impl Into<String>, seq: Vec<u8>, qual: Vec<u8>) -> Self {
        assert_eq!(seq.len(), qual.len());
        SamRecord {
            qname: qname.into(),
            flag: FLAG_UNMAPPED,
            ref_id: -1,
            pos: -1,
            mapq: 0,
            seq,
            qual,
        }
    }

    /// True when the unmapped flag is set.
    pub fn is_unmapped(&self) -> bool {
        self.flag & FLAG_UNMAPPED != 0
    }

    /// True when the duplicate flag is set.
    pub fn is_duplicate(&self) -> bool {
        self.flag & FLAG_DUPLICATE != 0
    }

    /// Serialised SBAM size of this record in bytes.
    pub fn encoded_len(&self) -> usize {
        4 + 2 + self.qname.len() + 2 + 4 + 4 + 1 + 4 + self.seq.len() * 2
    }

    /// Appends the SBAM encoding of this record to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        let payload = (self.encoded_len() - 4) as u32;
        out.extend_from_slice(&payload.to_le_bytes());
        out.extend_from_slice(&(self.qname.len() as u16).to_le_bytes());
        out.extend_from_slice(self.qname.as_bytes());
        out.extend_from_slice(&self.flag.to_le_bytes());
        out.extend_from_slice(&self.ref_id.to_le_bytes());
        out.extend_from_slice(&self.pos.to_le_bytes());
        out.push(self.mapq);
        out.extend_from_slice(&(self.seq.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.seq);
        out.extend_from_slice(&self.qual);
    }

    /// One-line SAM text form (subset of columns).
    pub fn to_sam_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.qname,
            self.flag,
            self.ref_id,
            self.pos + 1, // SAM is 1-based
            self.mapq,
            String::from_utf8_lossy(&self.seq),
            String::from_utf8_lossy(&self.qual),
        )
    }
}

impl fmt::Display for SamRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sam_line())
    }
}

/// Errors from SBAM decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SbamError {
    /// Stream did not start with the SBAM magic.
    BadMagic,
    /// Stream ended mid-record or mid-header.
    Truncated,
    /// A record's internal lengths are inconsistent.
    Corrupt(usize),
}

impl fmt::Display for SbamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SbamError::BadMagic => write!(f, "missing SBAM magic"),
            SbamError::Truncated => write!(f, "SBAM stream truncated"),
            SbamError::Corrupt(at) => write!(f, "corrupt SBAM record at byte {at}"),
        }
    }
}

impl std::error::Error for SbamError {}

/// Serialises records into an SBAM byte stream.
pub fn write_sbam(records: &[SamRecord]) -> Vec<u8> {
    let cap = 9 + records.iter().map(SamRecord::encoded_len).sum::<usize>();
    let mut out = Vec::with_capacity(cap);
    out.extend_from_slice(SBAM_MAGIC);
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        r.write_to(&mut out);
    }
    out
}

/// Parses an SBAM byte stream.
pub fn parse_sbam(buf: &[u8]) -> Result<Vec<SamRecord>, SbamError> {
    if buf.len() < 9 || &buf[..5] != SBAM_MAGIC {
        return Err(SbamError::BadMagic);
    }
    let count =
        u32::from_le_bytes(buf[5..9].try_into().expect("slice 5..9 is exactly 4 bytes")) as usize;
    // Never trust the untrusted count for preallocation: a corrupt header
    // must not trigger a giant allocation. 21 bytes is the minimum record.
    let mut records = Vec::with_capacity(count.min(buf.len() / 21 + 1));
    let mut pos = 9usize;
    for _ in 0..count {
        let rec_start = pos;
        let payload = read_u32(buf, &mut pos)? as usize;
        let rec_end = pos + payload;
        if rec_end > buf.len() {
            return Err(SbamError::Truncated);
        }
        let qname_len = read_u16(buf, &mut pos)? as usize;
        if pos + qname_len > rec_end {
            return Err(SbamError::Corrupt(rec_start));
        }
        let qname = String::from_utf8_lossy(&buf[pos..pos + qname_len]).into_owned();
        pos += qname_len;
        let flag = read_u16(buf, &mut pos)?;
        let ref_id = read_i32(buf, &mut pos)?;
        let rpos = read_i32(buf, &mut pos)?;
        if pos >= rec_end {
            return Err(SbamError::Corrupt(rec_start));
        }
        let mapq = buf[pos];
        pos += 1;
        let seq_len = read_u32(buf, &mut pos)? as usize;
        if pos + 2 * seq_len != rec_end {
            return Err(SbamError::Corrupt(rec_start));
        }
        let seq = buf[pos..pos + seq_len].to_vec();
        pos += seq_len;
        let qual = buf[pos..pos + seq_len].to_vec();
        pos += seq_len;
        records.push(SamRecord { qname, flag, ref_id, pos: rpos, mapq, seq, qual });
    }
    if pos != buf.len() {
        return Err(SbamError::Corrupt(pos));
    }
    Ok(records)
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32, SbamError> {
    let end = *pos + 4;
    if end > buf.len() {
        return Err(SbamError::Truncated);
    }
    let v = u32::from_le_bytes(buf[*pos..end].try_into().expect("bounds-checked 4-byte slice"));
    *pos = end;
    Ok(v)
}

fn read_u16(buf: &[u8], pos: &mut usize) -> Result<u16, SbamError> {
    let end = *pos + 2;
    if end > buf.len() {
        return Err(SbamError::Truncated);
    }
    let v = u16::from_le_bytes(buf[*pos..end].try_into().expect("bounds-checked 2-byte slice"));
    *pos = end;
    Ok(v)
}

fn read_i32(buf: &[u8], pos: &mut usize) -> Result<i32, SbamError> {
    Ok(read_u32(buf, pos)? as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(name: &str, pos: i32) -> SamRecord {
        SamRecord {
            qname: name.into(),
            flag: 0,
            ref_id: 0,
            pos,
            mapq: 60,
            seq: b"ACGTACGT".to_vec(),
            qual: b"IIIIIIII".to_vec(),
        }
    }

    #[test]
    fn roundtrip() {
        let rs = vec![rec("a", 1), rec("b", 100), SamRecord::unmapped("c", vec![b'N'], vec![b'!'])];
        let buf = write_sbam(&rs);
        assert_eq!(parse_sbam(&buf).unwrap(), rs);
    }

    #[test]
    fn empty_stream_roundtrips() {
        let buf = write_sbam(&[]);
        assert_eq!(parse_sbam(&buf).unwrap(), vec![]);
    }

    #[test]
    fn encoded_len_matches_actual() {
        let r = rec("read-1", 5);
        let mut buf = Vec::new();
        r.write_to(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(parse_sbam(b"NOTSBAM!!"), Err(SbamError::BadMagic));
        assert_eq!(parse_sbam(b""), Err(SbamError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let buf = write_sbam(&[rec("a", 1)]);
        for cut in [buf.len() - 1, buf.len() - 5, 10] {
            assert!(parse_sbam(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = write_sbam(&[rec("a", 1)]);
        buf.push(0xFF);
        assert!(matches!(parse_sbam(&buf), Err(SbamError::Corrupt(_))));
    }

    #[test]
    fn flags() {
        let mut r = rec("a", 1);
        assert!(!r.is_unmapped());
        assert!(!r.is_duplicate());
        r.flag |= FLAG_DUPLICATE;
        assert!(r.is_duplicate());
        let u = SamRecord::unmapped("u", vec![], vec![]);
        assert!(u.is_unmapped());
        assert_eq!(u.ref_id, -1);
    }

    #[test]
    fn sam_line_is_one_based() {
        let r = rec("a", 0);
        assert!(r.to_sam_line().contains("\t1\t"));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            entries in proptest::collection::vec(
                ("[a-zA-Z0-9_]{1,30}", 0u16..0x800, -1i32..4, 0i32..1_000_000, 0u8..=254, 0usize..100),
                0..40,
            )
        ) {
            let rs: Vec<SamRecord> = entries.iter().map(|(q, flag, rid, pos, mapq, len)| {
                SamRecord {
                    qname: q.clone(),
                    flag: *flag,
                    ref_id: *rid,
                    pos: *pos,
                    mapq: *mapq,
                    seq: vec![b'A'; *len],
                    qual: vec![b'I'; *len],
                }
            }).collect();
            let buf = write_sbam(&rs);
            prop_assert_eq!(parse_sbam(&buf).unwrap(), rs);
        }

        /// Any single-byte corruption of the header or a length field is
        /// either detected or yields a different record list — never a
        /// panic.
        #[test]
        fn prop_corruption_never_panics(flip in 0usize..200, val in 0u8..=255) {
            let rs = vec![rec("aaaa", 7), rec("bbbb", 9)];
            let mut buf = write_sbam(&rs);
            let idx = flip % buf.len();
            buf[idx] = val;
            let _ = parse_sbam(&buf); // must not panic
        }
    }
}
