//! Hostile input for the three genomics decoders. Valid `write_fastq`,
//! `write_sbam` and `write_vcf` output, truncated at any byte or with any
//! one byte replaced, must decode to a value (`Ok`/`Err`, or
//! `Some`/`None` for VCF) — never panic — and the undamaged outputs must
//! round-trip.

use proptest::prelude::*;
use scan_genomics::fastq::{parse_fastq, write_fastq};
use scan_genomics::sam::{parse_sbam, write_sbam, FLAG_DUPLICATE, FLAG_REVERSE};
use scan_genomics::variant::{parse_vcf, write_vcf};
use scan_genomics::{FastqRecord, SamRecord, VcfRecord};

fn fastq_records() -> Vec<FastqRecord> {
    vec![
        FastqRecord::new("read1/pos=42", b"ACGTACGTNN".to_vec(), b"IIIIHHHH##".to_vec()),
        FastqRecord::new("r2 café", b"GATTACA".to_vec(), b"ABCDEFG".to_vec()),
        FastqRecord::new("", Vec::new(), Vec::new()),
        FastqRecord::new("r4", b"@+@+".to_vec(), b"++@@".to_vec()),
    ]
}

fn sam_records() -> Vec<SamRecord> {
    let mut mapped = SamRecord::unmapped("mapped/1", b"ACGTAC".to_vec(), b"IIIIII".to_vec());
    mapped.flag = FLAG_REVERSE | FLAG_DUPLICATE;
    mapped.ref_id = 3;
    mapped.pos = 1_000_123;
    mapped.mapq = 60;
    vec![
        SamRecord::unmapped("q1", b"GATTACA".to_vec(), b"ABCDEFG".to_vec()),
        mapped,
        SamRecord::unmapped("", Vec::new(), Vec::new()),
        SamRecord::unmapped("naïve", b"N".to_vec(), b"#".to_vec()),
    ]
}

fn vcf_records() -> Vec<VcfRecord> {
    vec![
        VcfRecord {
            chrom: 1,
            pos: 99,
            ref_base: 'A',
            alt_base: 'G',
            qual: 37.5,
            depth: 20,
            alt_count: 9,
        },
        VcfRecord {
            chrom: 2,
            pos: 0,
            ref_base: 'C',
            alt_base: 'T',
            qual: 0.0,
            depth: 0,
            alt_count: 0,
        },
        VcfRecord {
            chrom: 22,
            pos: 4_000_000,
            ref_base: 'T',
            alt_base: 'A',
            qual: 99.0,
            depth: 400,
            alt_count: 399,
        },
    ]
}

/// `bytes` cut at `cut` (a fraction of its length) and, separately, with
/// the byte at `at` replaced by `byte`.
fn damaged(bytes: &[u8], cut: f64, at: f64, byte: u8) -> [Vec<u8>; 2] {
    let cut = (cut * bytes.len() as f64) as usize;
    let mut replaced = bytes.to_vec();
    replaced[(at * bytes.len() as f64) as usize] = byte;
    [bytes[..cut].to_vec(), replaced]
}

/// Decodes `bytes` with all three decoders (VCF through a lossy UTF-8
/// view, since a byte edit can split a character). Reaching the end is
/// the test: none of them may panic.
fn decode_all(bytes: &[u8]) {
    let _ = parse_fastq(bytes);
    let _ = parse_sbam(bytes);
    let _ = parse_vcf(&String::from_utf8_lossy(bytes));
}

#[test]
fn valid_outputs_round_trip() {
    let fastq = fastq_records();
    assert_eq!(parse_fastq(&write_fastq(&fastq)).expect("the writer's FASTQ parses"), fastq);
    let sam = sam_records();
    assert_eq!(parse_sbam(&write_sbam(&sam)).expect("the writer's SBAM parses"), sam);
    let vcf = vcf_records();
    assert_eq!(parse_vcf(&write_vcf(&vcf)).expect("the writer's VCF parses"), vcf);
}

#[test]
fn every_truncation_decodes_without_panicking() {
    let vcf = write_vcf(&vcf_records());
    for bytes in [write_fastq(&fastq_records()), write_sbam(&sam_records()), vcf.into_bytes()] {
        for cut in 0..=bytes.len() {
            decode_all(&bytes[..cut]);
        }
    }
}

#[test]
fn every_single_byte_replacement_decodes_without_panicking() {
    let vcf = write_vcf(&vcf_records());
    for bytes in [write_fastq(&fastq_records()), write_sbam(&sam_records()), vcf.into_bytes()] {
        let mut damaged = bytes.clone();
        for at in 0..bytes.len() {
            for byte in 0..=u8::MAX {
                damaged[at] = byte;
                decode_all(&damaged);
            }
            damaged[at] = bytes[at];
        }
    }
}

#[test]
fn a_truncated_sbam_stream_is_refused() {
    let bytes = write_sbam(&sam_records());
    for cut in 0..bytes.len() {
        assert!(parse_sbam(&bytes[..cut]).is_err(), "a stream cut at byte {cut} decodes");
    }
}

proptest! {
    /// A damaged FASTQ stream is refused, or decodes into records the
    /// writer re-encodes to a stream that decodes to the same records.
    #[test]
    fn damaged_fastq_is_refused_or_sound(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        for bytes in damaged(&write_fastq(&fastq_records()), cut, at, byte) {
            decode_all(&bytes);
            if let Ok(records) = parse_fastq(&bytes) {
                prop_assert_eq!(parse_fastq(&write_fastq(&records)), Ok(records));
            }
        }
    }

    /// The same for SBAM.
    #[test]
    fn damaged_sbam_is_refused_or_sound(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        for bytes in damaged(&write_sbam(&sam_records()), cut, at, byte) {
            decode_all(&bytes);
            if let Ok(records) = parse_sbam(&bytes) {
                prop_assert_eq!(parse_sbam(&write_sbam(&records)), Ok(records));
            }
        }
    }

    /// A damaged VCF text is refused, or decodes into records the writer
    /// renders to a text that decodes again.
    #[test]
    fn damaged_vcf_is_refused_or_sound(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        for bytes in damaged(write_vcf(&vcf_records()).as_bytes(), cut, at, byte) {
            decode_all(&bytes);
            if let Some(records) = parse_vcf(&String::from_utf8_lossy(&bytes)) {
                let again = parse_vcf(&write_vcf(&records));
                prop_assert_eq!(again.map(|r| r.len()), Some(records.len()));
            }
        }
    }
}
