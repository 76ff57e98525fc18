//! Data Sharders: record-boundary-respecting splitting and merging.
//!
//! §III-A.1(iii): "The SCAN is equipped with Data Sharders for each type of
//! genomic data … divide a 100GB FASTQ file into 25 4GB files, and create
//! 25 data analysis subtasks. On the other hand, the SCAN can merge many
//! small input files into one big file."
//!
//! Sharders operate on in-memory byte buffers and guarantee that every
//! shard is independently parseable: FASTQ shards cut between records,
//! SBAM shards re-frame each piece with its own header.

use crate::fastq::{FastqError, FastqReader};
use crate::sam::{parse_sbam, write_sbam, SamRecord, SbamError};

/// A plan describing how a dataset of `total_size` splits into shards of
/// at most `chunk_size` (both in the same unit — bytes here, GB at the
/// platform level).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Total dataset size.
    pub total_size: f64,
    /// Target shard size.
    pub chunk_size: f64,
    /// Sizes of each shard: all equal to `chunk_size` except a possibly
    /// smaller final shard.
    pub shard_sizes: Vec<f64>,
}

impl ShardPlan {
    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shard_sizes.len()
    }
}

/// Plans shards for a dataset: ⌈total/chunk⌉ pieces, the last one ragged.
///
/// # Panics
/// Panics unless both sizes are positive.
pub fn plan_shards(total_size: f64, chunk_size: f64) -> ShardPlan {
    assert!(total_size > 0.0 && chunk_size > 0.0, "sizes must be positive");
    let n = (total_size / chunk_size).ceil().max(1.0) as usize;
    let mut shard_sizes = vec![chunk_size; n];
    let remainder = total_size - chunk_size * (n - 1) as f64;
    shard_sizes[n - 1] = remainder;
    ShardPlan { total_size, chunk_size, shard_sizes }
}

/// Splits a FASTQ buffer into shards of at most `max_bytes` each, cutting
/// only on record boundaries. A record larger than `max_bytes` gets its
/// own shard (never split mid-record).
pub fn shard_fastq(buf: &[u8], max_bytes: usize) -> Result<Vec<Vec<u8>>, FastqError> {
    assert!(max_bytes > 0);
    let mut shards = Vec::new();
    let mut reader = FastqReader::new(buf);
    let mut shard_start = 0usize;
    let mut last_boundary = 0usize;
    loop {
        let before = reader.offset();
        match reader.next() {
            None => break,
            Some(Err(e)) => return Err(e),
            Some(Ok(_)) => {
                let after = reader.offset();
                if after - shard_start > max_bytes && before > shard_start {
                    shards.push(buf[shard_start..before].to_vec());
                    shard_start = before;
                }
                last_boundary = after;
            }
        }
    }
    if last_boundary > shard_start {
        shards.push(buf[shard_start..last_boundary].to_vec());
    }
    Ok(shards)
}

/// Concatenates FASTQ shards back into one buffer (the inverse of
/// [`shard_fastq`] — FASTQ has no header, so merging is concatenation).
pub fn merge_fastq(shards: &[Vec<u8>]) -> Vec<u8> {
    let cap = shards.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(cap);
    for s in shards {
        out.extend_from_slice(s);
    }
    out
}

/// Splits an SBAM buffer into independently-parseable SBAM shards of at
/// most `max_records` records each.
pub fn shard_sbam(buf: &[u8], max_records: usize) -> Result<Vec<Vec<u8>>, SbamError> {
    assert!(max_records > 0);
    let records = parse_sbam(buf)?;
    Ok(records.chunks(max_records).map(write_sbam).collect())
}

/// Merges SBAM shards back into one stream, preserving record order.
pub fn merge_sbam(shards: &[Vec<u8>]) -> Result<Vec<u8>, SbamError> {
    let mut all: Vec<SamRecord> = Vec::new();
    for s in shards {
        all.extend(parse_sbam(s)?);
    }
    Ok(write_sbam(&all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastq::{parse_fastq, write_fastq, FastqRecord};
    use proptest::prelude::*;

    fn records(n: usize, len: usize) -> Vec<FastqRecord> {
        (0..n)
            .map(|i| FastqRecord::new(format!("r{i}"), vec![b'A'; len], vec![b'I'; len]))
            .collect()
    }

    #[test]
    fn plan_shards_counts() {
        // The paper's example: 100 GB in 4 GB chunks → 25 shards.
        let plan = plan_shards(100.0, 4.0);
        assert_eq!(plan.n_shards(), 25);
        assert!(plan.shard_sizes.iter().all(|&s| (s - 4.0).abs() < 1e-12));
        // Ragged tail.
        let plan = plan_shards(10.0, 4.0);
        assert_eq!(plan.n_shards(), 3);
        assert!((plan.shard_sizes[2] - 2.0).abs() < 1e-12);
        // Chunk larger than total → one shard of the total.
        let plan = plan_shards(1.0, 4.0);
        assert_eq!(plan.n_shards(), 1);
        assert!((plan.shard_sizes[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan_conserves_total() {
        let plan = plan_shards(17.3, 2.5);
        let sum: f64 = plan.shard_sizes.iter().sum();
        assert!((sum - 17.3).abs() < 1e-9);
    }

    #[test]
    fn fastq_shards_parse_independently() {
        let recs = records(50, 80);
        let buf = write_fastq(&recs);
        let shards = shard_fastq(&buf, 1000).unwrap();
        assert!(shards.len() > 1);
        let mut recovered = Vec::new();
        for s in &shards {
            // Each shard parses on its own — the record-boundary guarantee.
            recovered.extend(parse_fastq(s).unwrap());
        }
        assert_eq!(recovered, recs);
    }

    #[test]
    fn fastq_shard_size_bound_respected() {
        // Fixed-width ids so every record has the same encoded length.
        let recs: Vec<FastqRecord> = (0..100)
            .map(|i| FastqRecord::new(format!("r{i:03}"), vec![b'A'; 50], vec![b'I'; 50]))
            .collect();
        let one = recs[0].encoded_len();
        let buf = write_fastq(&recs);
        let max = one * 7 + 3; // room for 7 records
        let shards = shard_fastq(&buf, max).unwrap();
        for s in &shards[..shards.len() - 1] {
            assert!(s.len() <= max, "shard of {} bytes exceeds max {max}", s.len());
            assert!(s.len() >= one * 7, "shard underfilled");
        }
    }

    #[test]
    fn oversized_record_gets_own_shard() {
        let recs = vec![
            FastqRecord::new("big", vec![b'A'; 500], vec![b'I'; 500]),
            FastqRecord::new("small", vec![b'C'; 10], vec![b'I'; 10]),
        ];
        let buf = write_fastq(&recs);
        let shards = shard_fastq(&buf, 100).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(parse_fastq(&shards[0]).unwrap()[0].id, "big");
    }

    #[test]
    fn merge_fastq_is_inverse() {
        let recs = records(30, 60);
        let buf = write_fastq(&recs);
        let shards = shard_fastq(&buf, 500).unwrap();
        assert_eq!(merge_fastq(&shards), buf);
    }

    #[test]
    fn empty_fastq_shards_to_nothing() {
        assert_eq!(shard_fastq(b"", 100).unwrap().len(), 0);
    }

    #[test]
    fn malformed_fastq_propagates_error() {
        assert!(shard_fastq(b"garbage\n", 100).is_err());
    }

    #[test]
    fn sbam_shard_and_merge_roundtrip() {
        let recs: Vec<SamRecord> = (0..25)
            .map(|i| SamRecord {
                qname: format!("q{i}"),
                flag: 0,
                ref_id: 0,
                pos: i,
                mapq: 60,
                seq: b"ACGT".to_vec(),
                qual: b"IIII".to_vec(),
            })
            .collect();
        let buf = write_sbam(&recs);
        let shards = shard_sbam(&buf, 10).unwrap();
        assert_eq!(shards.len(), 3);
        // Each shard is a valid SBAM stream.
        assert_eq!(parse_sbam(&shards[0]).unwrap().len(), 10);
        assert_eq!(parse_sbam(&shards[2]).unwrap().len(), 5);
        // Merging recovers the original records.
        let merged = merge_sbam(&shards).unwrap();
        assert_eq!(parse_sbam(&merged).unwrap(), recs);
    }

    #[test]
    fn sbam_shard_rejects_corrupt_input() {
        assert!(shard_sbam(b"bogus", 5).is_err());
    }

    proptest! {
        /// Sharding at any size, then merging, recovers the original
        /// record sequence (FASTQ).
        #[test]
        fn prop_fastq_shard_merge_roundtrip(
            n in 0usize..60,
            len in 1usize..100,
            max in 50usize..2000,
        ) {
            let recs = records(n, len);
            let buf = write_fastq(&recs);
            let shards = shard_fastq(&buf, max).unwrap();
            let merged = merge_fastq(&shards);
            prop_assert_eq!(parse_fastq(&merged).unwrap(), recs);
        }

        /// Every SBAM shard carries at most `max_records`, and the
        /// concatenation preserves order.
        #[test]
        fn prop_sbam_shard_bounds(n in 0usize..50, max in 1usize..20) {
            let recs: Vec<SamRecord> = (0..n).map(|i| SamRecord {
                qname: format!("q{i}"), flag: 0, ref_id: 0, pos: i as i32,
                mapq: 0, seq: vec![b'G'; 5], qual: vec![b'I'; 5],
            }).collect();
            let shards = shard_sbam(&write_sbam(&recs), max).unwrap();
            let mut total = 0;
            for s in &shards {
                let part = parse_sbam(s).unwrap();
                prop_assert!(part.len() <= max);
                total += part.len();
            }
            prop_assert_eq!(total, n);
        }
    }
}
