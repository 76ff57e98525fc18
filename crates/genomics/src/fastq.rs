//! FASTQ records: the sequencer's raw output format.
//!
//! A record is four lines: `@id`, sequence, `+`, per-base qualities
//! (Phred+33). The parser is a streaming iterator over a byte buffer so
//! sharders can cut exactly on record boundaries.

use std::fmt;

/// One sequencing read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Read identifier (without the leading `@`).
    pub id: String,
    /// Base calls (`A`, `C`, `G`, `T`, `N`).
    pub seq: Vec<u8>,
    /// Phred+33 quality string, same length as `seq`.
    pub qual: Vec<u8>,
}

impl FastqRecord {
    /// Creates a record, checking the sequence/quality length invariant.
    pub fn new(id: impl Into<String>, seq: Vec<u8>, qual: Vec<u8>) -> Self {
        assert_eq!(seq.len(), qual.len(), "sequence and quality must have equal length");
        FastqRecord { id: id.into(), seq, qual }
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True for a zero-length read.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Mean Phred quality of the read (0 for empty reads).
    pub fn mean_quality(&self) -> f64 {
        if self.qual.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.qual.iter().map(|&q| (q.saturating_sub(33)) as u64).sum();
        sum as f64 / self.qual.len() as f64
    }

    /// Serialised size in bytes (4 lines + newlines).
    pub fn encoded_len(&self) -> usize {
        1 + self.id.len() + 1 + self.seq.len() + 1 + 2 + self.qual.len() + 1
    }

    /// Appends the four-line FASTQ encoding to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.push(b'@');
        out.extend_from_slice(self.id.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(&self.seq);
        out.push(b'\n');
        out.extend_from_slice(b"+\n");
        out.extend_from_slice(&self.qual);
        out.push(b'\n');
    }
}

impl fmt::Display for FastqRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{}\n{}\n+\n{}",
            self.id,
            String::from_utf8_lossy(&self.seq),
            String::from_utf8_lossy(&self.qual)
        )
    }
}

/// Serialises records into one in-memory FASTQ "file".
pub fn write_fastq(records: &[FastqRecord]) -> Vec<u8> {
    let cap: usize = records.iter().map(FastqRecord::encoded_len).sum();
    let mut out = Vec::with_capacity(cap);
    for r in records {
        r.write_to(&mut out);
    }
    out
}

/// Errors from FASTQ parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastqError {
    /// The record header did not start with `@` at the given byte offset.
    BadHeader(usize),
    /// Input ended in the middle of a record.
    Truncated,
    /// Separator line was not `+`.
    BadSeparator(usize),
    /// Sequence and quality lines differ in length.
    LengthMismatch {
        /// Offset of the offending record.
        at: usize,
    },
}

impl fmt::Display for FastqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastqError::BadHeader(at) => write!(f, "expected '@' header at byte {at}"),
            FastqError::Truncated => write!(f, "input truncated mid-record"),
            FastqError::BadSeparator(at) => write!(f, "expected '+' separator at byte {at}"),
            FastqError::LengthMismatch { at } => {
                write!(f, "sequence/quality length mismatch in record at byte {at}")
            }
        }
    }
}

impl std::error::Error for FastqError {}

/// Streaming FASTQ parser over a byte slice.
pub struct FastqReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FastqReader<'a> {
    /// Creates a reader over an in-memory FASTQ buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        FastqReader { buf, pos: 0 }
    }

    /// Current byte offset (always on a record boundary between records).
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn read_line(&mut self) -> Option<&'a [u8]> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let start = self.pos;
        let end = self.buf[start..]
            .iter()
            .position(|&c| c == b'\n')
            .map(|i| start + i)
            .unwrap_or(self.buf.len());
        self.pos = (end + 1).min(self.buf.len() + 1);
        if self.pos > self.buf.len() {
            self.pos = self.buf.len();
        }
        Some(&self.buf[start..end])
    }
}

impl Iterator for FastqReader<'_> {
    type Item = Result<FastqRecord, FastqError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let rec_start = self.pos;
        let header = self.read_line()?;
        if header.first() != Some(&b'@') {
            return Some(Err(FastqError::BadHeader(rec_start)));
        }
        let id = String::from_utf8_lossy(&header[1..]).into_owned();
        let Some(seq) = self.read_line() else {
            return Some(Err(FastqError::Truncated));
        };
        let seq = seq.to_vec();
        let sep_at = self.pos;
        let Some(sep) = self.read_line() else {
            return Some(Err(FastqError::Truncated));
        };
        if sep.first() != Some(&b'+') {
            return Some(Err(FastqError::BadSeparator(sep_at)));
        }
        let Some(qual) = self.read_line() else {
            return Some(Err(FastqError::Truncated));
        };
        let qual = qual.to_vec();
        if seq.len() != qual.len() {
            return Some(Err(FastqError::LengthMismatch { at: rec_start }));
        }
        Some(Ok(FastqRecord { id, seq, qual }))
    }
}

/// Parses a whole buffer, failing on the first malformed record.
pub fn parse_fastq(buf: &[u8]) -> Result<Vec<FastqRecord>, FastqError> {
    FastqReader::new(buf).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(id: &str, seq: &str, qual: &str) -> FastqRecord {
        FastqRecord::new(id, seq.as_bytes().to_vec(), qual.as_bytes().to_vec())
    }

    #[test]
    fn roundtrip_single() {
        let r = rec("read1/pos=42", "ACGT", "IIII");
        let buf = write_fastq(std::slice::from_ref(&r));
        let back = parse_fastq(&buf).unwrap();
        assert_eq!(back, vec![r]);
    }

    #[test]
    fn roundtrip_many() {
        let rs: Vec<FastqRecord> =
            (0..100).map(|i| rec(&format!("r{i}"), "ACGTACGT", "IIIIHHHH")).collect();
        let buf = write_fastq(&rs);
        assert_eq!(parse_fastq(&buf).unwrap(), rs);
    }

    #[test]
    fn encoded_len_matches() {
        let r = rec("id", "ACGT", "IIII");
        let mut buf = Vec::new();
        r.write_to(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
    }

    #[test]
    fn empty_buffer_yields_nothing() {
        assert_eq!(parse_fastq(b"").unwrap(), vec![]);
    }

    #[test]
    fn bad_header_detected() {
        let e = parse_fastq(b"not-a-header\nACGT\n+\nIIII\n").unwrap_err();
        assert_eq!(e, FastqError::BadHeader(0));
    }

    #[test]
    fn truncation_detected() {
        let e = parse_fastq(b"@r1\nACGT\n").unwrap_err();
        assert_eq!(e, FastqError::Truncated);
    }

    #[test]
    fn bad_separator_detected() {
        let e = parse_fastq(b"@r1\nACGT\nXIIII\nIIII\n").unwrap_err();
        assert!(matches!(e, FastqError::BadSeparator(_)));
    }

    #[test]
    fn length_mismatch_detected() {
        let e = parse_fastq(b"@r1\nACGT\n+\nII\n").unwrap_err();
        assert!(matches!(e, FastqError::LengthMismatch { .. }));
    }

    #[test]
    fn missing_trailing_newline_ok() {
        let recs = parse_fastq(b"@r1\nACGT\n+\nIIII").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].qual, b"IIII");
    }

    #[test]
    fn mean_quality() {
        let r = rec("r", "AC", "I!"); // I = 40, ! = 0
        assert!((r.mean_quality() - 20.0).abs() < 1e-12);
        let empty = FastqRecord::new("e", vec![], vec![]);
        assert_eq!(empty.mean_quality(), 0.0);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn constructor_checks_lengths() {
        FastqRecord::new("x", vec![b'A'], vec![]);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            recs in proptest::collection::vec(
                ("[a-zA-Z0-9_/]{1,20}", 1usize..200),
                0..50,
            )
        ) {
            let records: Vec<FastqRecord> = recs.iter().map(|(id, len)| {
                let seq: Vec<u8> = (0..*len).map(|i| b"ACGT"[(i * 7 + id.len()) % 4]).collect();
                let qual: Vec<u8> = (0..*len).map(|i| 33 + ((i * 3) % 40) as u8).collect();
                FastqRecord::new(id.clone(), seq, qual)
            }).collect();
            let buf = write_fastq(&records);
            prop_assert_eq!(parse_fastq(&buf).unwrap(), records);
        }
    }
}
