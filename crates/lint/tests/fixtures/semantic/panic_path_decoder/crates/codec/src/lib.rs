//! Fixture: a hostile-input decoder root with no event loop in sight.
//! The bare `unwrap()` behind `parse_vcf` is reported with its chain;
//! the same unwrap in `summarise`, which no root reaches, is not.

/// One decoded record.
pub struct Record {
    /// Position on the contig.
    pub pos: u64,
}

/// Decodes tab-separated records, one per line.
pub fn parse_vcf(text: &str) -> Option<Vec<Record>> {
    let mut out = Vec::new();
    for line in text.lines() {
        out.push(parse_line(line));
    }
    Some(out)
}

fn parse_line(line: &str) -> Record {
    Record { pos: line.split('\t').nth(1).unwrap().parse().unwrap_or(0) }
}

/// Not a decoder: callers hand it records already decoded.
pub fn summarise(records: &[Record]) -> u64 {
    records.iter().map(|r| r.pos).max().unwrap()
}
