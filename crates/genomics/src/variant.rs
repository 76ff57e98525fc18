//! Pileup-based variant calling and the VCF output format.
//!
//! The paper's GATK pipeline ends with "a list of suspected mutations
//! compared to the reference genome" in "a standard VCF file". This module
//! implements the minimal honest version: pile up aligned bases per
//! reference position, call a SNV where the alternate-allele fraction and
//! depth clear thresholds, and emit VCF records (text round-trip + the
//! `VariantsToVCF`-style merge the Data Broker's gather step needs).

use crate::sam::SamRecord;
use crate::synth::ReferenceGenome;
use std::collections::HashMap;
use std::fmt;

/// One called variant.
#[derive(Debug, Clone, PartialEq)]
pub struct VcfRecord {
    /// Chromosome index (rendered as `chr<N>`).
    pub chrom: u32,
    /// 0-based position (rendered 1-based, per VCF).
    pub pos: u32,
    /// Reference base.
    pub ref_base: char,
    /// Alternate base.
    pub alt_base: char,
    /// Phred-scaled call quality.
    pub qual: f64,
    /// Read depth at the site.
    pub depth: u32,
    /// Alternate allele observation count.
    pub alt_count: u32,
}

impl VcfRecord {
    /// Alternate allele fraction.
    pub fn allele_fraction(&self) -> f64 {
        if self.depth == 0 {
            0.0
        } else {
            self.alt_count as f64 / self.depth as f64
        }
    }

    /// One VCF data line.
    pub fn to_line(&self) -> String {
        format!(
            "chr{}\t{}\t.\t{}\t{}\t{:.1}\tPASS\tDP={};AC={}",
            self.chrom,
            self.pos + 1,
            self.ref_base,
            self.alt_base,
            self.qual,
            self.depth,
            self.alt_count
        )
    }

    /// Parses one VCF data line produced by [`VcfRecord::to_line`].
    pub fn parse_line(line: &str) -> Option<VcfRecord> {
        let mut f = line.split('\t');
        let chrom = f.next()?.strip_prefix("chr")?.parse().ok()?;
        let pos1: u32 = f.next()?.parse().ok()?;
        let _id = f.next()?;
        let ref_base = f.next()?.chars().next()?;
        let alt_base = f.next()?.chars().next()?;
        let qual: f64 = f.next()?.parse().ok()?;
        let _filter = f.next()?;
        let info = f.next()?;
        let mut depth = 0;
        let mut alt_count = 0;
        for kv in info.split(';') {
            let (k, v) = kv.split_once('=')?;
            match k {
                "DP" => depth = v.parse().ok()?,
                "AC" => alt_count = v.parse().ok()?,
                _ => {}
            }
        }
        Some(VcfRecord {
            chrom,
            pos: pos1.checked_sub(1)?,
            ref_base,
            alt_base,
            qual,
            depth,
            alt_count,
        })
    }
}

impl fmt::Display for VcfRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

/// The standard VCF header emitted before data lines.
pub const VCF_HEADER: &str =
    "##fileformat=VCFv4.2\n##source=scan-genomics\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO";

/// Serialises records into a VCF "file" (header + lines, sorted).
pub fn write_vcf(records: &[VcfRecord]) -> String {
    let mut sorted: Vec<&VcfRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.chrom, r.pos));
    let mut out = String::from(VCF_HEADER);
    out.push('\n');
    for r in sorted {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

/// Parses a VCF file (skipping `#` header lines).
pub fn parse_vcf(text: &str) -> Option<Vec<VcfRecord>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(VcfRecord::parse_line)
        .collect()
}

/// Merges per-shard VCFs into one sorted, deduplicated VCF — the paper's
/// `VariantsToVCF` gather step ("the SCAN can merge many small input files
/// into one big file"). Records at the same site are combined by summing
/// depths/counts and keeping the max quality.
pub fn merge_vcf(shards: &[Vec<VcfRecord>]) -> Vec<VcfRecord> {
    let mut by_site: HashMap<(u32, u32, char), VcfRecord> = HashMap::new();
    for shard in shards {
        for r in shard {
            by_site
                .entry((r.chrom, r.pos, r.alt_base))
                .and_modify(|acc| {
                    acc.depth += r.depth;
                    acc.alt_count += r.alt_count;
                    acc.qual = acc.qual.max(r.qual);
                })
                .or_insert_with(|| r.clone());
        }
    }
    let mut out: Vec<VcfRecord> = by_site.into_values().collect();
    out.sort_by_key(|r| (r.chrom, r.pos, r.alt_base as u32));
    out
}

/// Pileup-based SNV caller.
#[derive(Debug, Clone, Copy)]
pub struct VariantCaller {
    /// Minimum read depth to consider a site.
    pub min_depth: u32,
    /// Minimum alternate allele fraction.
    pub min_allele_fraction: f64,
    /// Minimum base quality (Phred) for a base to count.
    pub min_base_quality: u8,
    /// Minimum mapping quality for a read to contribute.
    pub min_mapq: u8,
}

impl Default for VariantCaller {
    fn default() -> Self {
        VariantCaller { min_depth: 4, min_allele_fraction: 0.5, min_base_quality: 20, min_mapq: 10 }
    }
}

impl VariantCaller {
    /// Calls variants from aligned records against the reference.
    /// Duplicate-flagged and unmapped records are ignored (the pipeline's
    /// earlier stages set those flags).
    pub fn call(&self, genome: &ReferenceGenome, alignments: &[SamRecord]) -> Vec<VcfRecord> {
        // chrom → pos → base → (count)
        let mut pileup: HashMap<(u32, u32), [u32; 4]> = HashMap::new();
        for rec in alignments {
            if rec.is_unmapped() || rec.is_duplicate() || rec.mapq < self.min_mapq {
                continue;
            }
            let chrom = rec.ref_id as u32;
            for (i, (&base, &q)) in rec.seq.iter().zip(&rec.qual).enumerate() {
                if q.saturating_sub(33) < self.min_base_quality {
                    continue;
                }
                let code = match base {
                    b'A' => 0usize,
                    b'C' => 1,
                    b'G' => 2,
                    b'T' => 3,
                    _ => continue,
                };
                let pos = rec.pos as u32 + i as u32;
                pileup.entry((chrom, pos)).or_insert([0; 4])[code] += 1;
            }
        }
        let mut out = Vec::new();
        for ((chrom, pos), counts) in pileup {
            let depth: u32 = counts.iter().sum();
            if depth < self.min_depth {
                continue;
            }
            let chrom_seq = genome.chromosome(chrom as usize);
            if pos as usize >= chrom_seq.len() {
                continue;
            }
            let ref_base = chrom_seq[pos as usize];
            let ref_code = match ref_base {
                b'A' => 0usize,
                b'C' => 1,
                b'G' => 2,
                b'T' => 3,
                _ => continue,
            };
            // Strongest non-reference allele.
            let (alt_code, &alt_count) = counts
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != ref_code)
                .max_by_key(|(_, &c)| c)
                .expect("three alt alleles");
            if alt_count == 0 {
                continue;
            }
            let af = alt_count as f64 / depth as f64;
            if af < self.min_allele_fraction {
                continue;
            }
            // Phred-style quality: scaled by evidence.
            let qual = (alt_count as f64 * 10.0 * af).min(3000.0);
            out.push(VcfRecord {
                chrom,
                pos,
                ref_base: ref_base as char,
                alt_base: b"ACGT"[alt_code] as char,
                qual,
                depth,
                alt_count,
            });
        }
        out.sort_by_key(|r| (r.chrom, r.pos));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::KmerIndex;
    use crate::synth::{ReadSimulator, ReferenceGenome};
    use scan_sim::SimRng;

    #[test]
    fn vcf_line_roundtrip() {
        let r = VcfRecord {
            chrom: 1,
            pos: 41,
            ref_base: 'A',
            alt_base: 'T',
            qual: 99.5,
            depth: 30,
            alt_count: 15,
        };
        let back = VcfRecord::parse_line(&r.to_line()).unwrap();
        assert_eq!(back, r);
        assert!((r.allele_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn vcf_file_roundtrip_sorted() {
        let rs = vec![
            VcfRecord {
                chrom: 1,
                pos: 10,
                ref_base: 'A',
                alt_base: 'C',
                qual: 50.0,
                depth: 10,
                alt_count: 9,
            },
            VcfRecord {
                chrom: 0,
                pos: 99,
                ref_base: 'G',
                alt_base: 'T',
                qual: 60.0,
                depth: 12,
                alt_count: 11,
            },
        ];
        let text = write_vcf(&rs);
        assert!(text.starts_with("##fileformat"));
        let back = parse_vcf(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].chrom, 0, "output must be coordinate-sorted");
    }

    #[test]
    fn parse_vcf_rejects_garbage() {
        assert!(parse_vcf("#header\nnot a record\n").is_none());
    }

    #[test]
    fn merge_vcf_dedups_and_sums() {
        let a = vec![VcfRecord {
            chrom: 0,
            pos: 5,
            ref_base: 'A',
            alt_base: 'G',
            qual: 30.0,
            depth: 10,
            alt_count: 6,
        }];
        let b = vec![
            VcfRecord {
                chrom: 0,
                pos: 5,
                ref_base: 'A',
                alt_base: 'G',
                qual: 45.0,
                depth: 8,
                alt_count: 5,
            },
            VcfRecord {
                chrom: 0,
                pos: 2,
                ref_base: 'C',
                alt_base: 'T',
                qual: 20.0,
                depth: 4,
                alt_count: 4,
            },
        ];
        let merged = merge_vcf(&[a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].pos, 2);
        let site5 = &merged[1];
        assert_eq!(site5.depth, 18);
        assert_eq!(site5.alt_count, 11);
        assert_eq!(site5.qual, 45.0);
    }

    /// End-to-end: plant variants, simulate reads off the mutated sample,
    /// align against the clean reference, call — the planted variants come
    /// back.
    #[test]
    fn caller_recovers_planted_variants() {
        let mut rng = SimRng::from_seed_u64(7);
        let reference = ReferenceGenome::generate(&mut rng, 1, 4000);
        let (sample, planted) = reference.plant_variants(&mut rng, 10);
        let index = KmerIndex::build(&reference, 15);
        let sim = ReadSimulator { read_len: 100, error_rate: 0.001, reverse_prob: 0.5 };
        // ~30x coverage: 4000 * 30 / 100 = 1200 reads.
        let reads = sim.simulate(&mut rng, &sample, 1200);
        let alignments = index.align_batch(&reference, &reads);
        let calls = VariantCaller::default().call(&reference, &alignments);

        let called: std::collections::HashSet<(u32, u32, char)> =
            calls.iter().map(|c| (c.chrom, c.pos, c.alt_base)).collect();
        let mut found = 0;
        for v in &planted {
            if called.contains(&(v.chrom, v.pos, v.alt_base as char)) {
                found += 1;
            }
        }
        assert!(found >= 9, "recovered {found}/10 planted variants; calls: {}", calls.len());
        // And precision: few spurious calls.
        assert!(
            calls.len() <= planted.len() + 3,
            "too many spurious calls: {} (planted {})",
            calls.len(),
            planted.len()
        );
    }

    #[test]
    fn caller_ignores_duplicates_and_low_mapq() {
        let mut rng = SimRng::from_seed_u64(8);
        let reference = ReferenceGenome::generate(&mut rng, 1, 500);
        // Fabricate a pile of duplicate reads all claiming a variant.
        let mut fake = SamRecord {
            qname: "dup".into(),
            flag: crate::sam::FLAG_DUPLICATE,
            ref_id: 0,
            pos: 100,
            mapq: 60,
            seq: vec![b'A'; 50],
            qual: vec![b'I'; 50],
        };
        let dups: Vec<SamRecord> = (0..20).map(|_| fake.clone()).collect();
        let calls = VariantCaller::default().call(&reference, &dups);
        assert!(calls.is_empty(), "duplicates must not drive calls");
        // Same reads without the duplicate flag but with mapq 0.
        fake.flag = 0;
        fake.mapq = 0;
        let lowq: Vec<SamRecord> = (0..20).map(|_| fake.clone()).collect();
        assert!(VariantCaller::default().call(&reference, &lowq).is_empty());
    }

    #[test]
    fn caller_respects_depth_threshold() {
        let mut rng = SimRng::from_seed_u64(9);
        let reference = ReferenceGenome::generate(&mut rng, 1, 200);
        let pos = 50usize;
        let ref_base = reference.chromosome(0)[pos];
        let alt = if ref_base == b'A' { b'C' } else { b'A' };
        let rec = SamRecord {
            qname: "r".into(),
            flag: 0,
            ref_id: 0,
            pos: pos as i32,
            mapq: 60,
            seq: vec![alt],
            qual: vec![b'I'],
        };
        // 3 reads < min_depth 4 → no call; 4 reads → call.
        let three: Vec<SamRecord> = (0..3).map(|_| rec.clone()).collect();
        assert!(VariantCaller::default().call(&reference, &three).is_empty());
        let four: Vec<SamRecord> = (0..4).map(|_| rec.clone()).collect();
        let calls = VariantCaller::default().call(&reference, &four);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].alt_base, alt as char);
    }
}
