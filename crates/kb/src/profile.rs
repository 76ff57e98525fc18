//! Profiling-log ingestion: task logs become OWL-style named individuals.
//!
//! "The knowledge-base is initially created by profiling some of the most
//! common genome applications … After that, the knowledge base will be
//! expanded by using information from logs of each task running on the
//! SCAN platform." (§III-A.1)
//!
//! Each [`ProfileRecord`] mirrors the paper's RDF snippets — a named
//! individual like `GATK2` carrying `inputFileSize`, `steps`, `CPU`, `RAM`
//! and `eTime` datatype properties.

use crate::ontology::Ontology;
use crate::term::{NodeId, Term};
use std::borrow::Cow;

/// One observed task execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRecord {
    /// Application (class) name: `GATK`, `BWA`, `MaxQuant`, … Borrowed
    /// for the static names the simulator emits on its hot path (no
    /// per-record allocation), owned when read back from the store.
    pub application: Cow<'static, str>,
    /// 1-based pipeline stage index (the paper's `steps` property).
    pub stage: u32,
    /// Input data size in GB (the paper's `inputFileSize`).
    pub input_gb: f64,
    /// Threads the task ran with (stored under the `CPU` property).
    pub threads: u32,
    /// Main memory used, GB.
    pub ram_gb: f64,
    /// Measured execution time (the paper's `eTime`), in time units.
    pub e_time: f64,
}

impl ProfileRecord {
    /// Convenience constructor for single-threaded GATK observations.
    pub fn gatk(stage: u32, input_gb: f64, e_time: f64) -> Self {
        ProfileRecord {
            application: Cow::Borrowed("GATK"),
            stage,
            input_gb,
            threads: 1,
            ram_gb: 4.0,
            e_time,
        }
    }
}

impl Ontology {
    /// Ingests one profiling record as a fresh named individual
    /// (`GATK1`, `GATK2`, …) with the paper's datatype properties, and
    /// returns its node.
    pub fn ingest_profile(&mut self, rec: &ProfileRecord) -> NodeId {
        let class =
            self.lookup_class(&rec.application).unwrap_or_else(|| self.class(&rec.application));
        let id = self.fresh_individual(&rec.application, class);
        let v = *self.vocab();
        // Also type it as an Application instance, as in the paper's
        // `<rdf:type rdf:resource="&scan-ontology;Application"/>` rows.
        self.store_mut().insert(id, v.rdf_type, v.application);
        self.store_mut().set_property(id, v.input_file_size, Term::float(rec.input_gb));
        self.store_mut().set_property(id, v.steps, Term::int(rec.stage as i64));
        self.store_mut().set_property(id, v.cpu, Term::int(rec.threads as i64));
        self.store_mut().set_property(id, v.ram, Term::float(rec.ram_gb));
        self.store_mut().set_property(id, v.e_time, Term::float(rec.e_time));
        id
    }

    /// Reads back every ingested profile of `application` (any stage).
    pub fn profiles_of(&self, application: &str) -> Vec<ProfileRecord> {
        let Some(class) = self.lookup_class(application) else {
            return Vec::new();
        };
        let v = *self.vocab();
        let mut out = Vec::new();
        for id in self.instances_of(class) {
            let (Some(input_gb), Some(stage), Some(threads), Some(e_time)) = (
                self.store().number(id, v.input_file_size),
                self.store().number(id, v.steps),
                self.store().number(id, v.cpu),
                self.store().number(id, v.e_time),
            ) else {
                continue; // skip partially-described individuals
            };
            let ram_gb = self.store().number(id, v.ram).unwrap_or(0.0);
            out.push(ProfileRecord {
                application: Cow::Owned(application.to_string()),
                stage: stage as u32,
                input_gb,
                threads: threads as u32,
                ram_gb,
                e_time,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparql::parse_query;

    #[test]
    fn ingest_then_read_back() {
        let mut o = Ontology::with_scan_schema();
        let rec = ProfileRecord {
            application: "GATK".into(),
            stage: 1,
            input_gb: 10.0,
            threads: 8,
            ram_gb: 4.0,
            e_time: 180.0,
        };
        o.ingest_profile(&rec);
        let back = o.profiles_of("GATK");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], rec);
    }

    #[test]
    fn paper_knowledge_base_expansion() {
        // The four GATK instances from the paper's §III-A.1 example.
        let mut o = Ontology::with_scan_schema();
        for (size, etime) in [(10.0, 180.0), (5.0, 200.0), (20.0, 280.0), (4.0, 80.0)] {
            o.ingest_profile(&ProfileRecord {
                application: "GATK".into(),
                stage: 1,
                input_gb: size,
                threads: 8,
                ram_gb: 4.0,
                e_time: etime,
            });
        }
        assert_eq!(o.profiles_of("GATK").len(), 4);

        // And the paper's ranking query works over the ingested data.
        let q = parse_query(
            "PREFIX scan: <http://www.semanticweb.org/wxing/ontologies/scan-ontology#>
             SELECT ?app ?size ?t WHERE {
                 ?app a scan:Application .
                 ?app scan:inputFileSize ?size .
                 ?app scan:eTime ?t .
             } ORDER BY ASC(?t / ?size)",
        )
        .unwrap();
        let res = q.execute(o.store()).unwrap();
        assert_eq!(res.len(), 4);
        // Best time-per-GB is GATK3 (280/20 = 14).
        let first = res.rows()[0].get("app").unwrap().as_iri().unwrap().to_string();
        assert!(first.ends_with("GATK3"), "{first}");
    }

    #[test]
    fn unknown_application_creates_class() {
        let mut o = Ontology::with_scan_schema();
        o.ingest_profile(&ProfileRecord {
            application: "NovelTool".into(),
            stage: 2,
            input_gb: 1.0,
            threads: 2,
            ram_gb: 8.0,
            e_time: 42.0,
        });
        assert_eq!(o.profiles_of("NovelTool").len(), 1);
    }

    #[test]
    fn profiles_of_missing_app_is_empty() {
        let o = Ontology::with_scan_schema();
        assert!(o.profiles_of("Nonexistent").is_empty());
    }

    #[test]
    fn partial_individual_skipped() {
        let mut o = Ontology::with_scan_schema();
        let gatk = o.lookup_class("GATK").unwrap();
        // An individual with no eTime (e.g. a still-running task).
        let id = o.fresh_individual("GATK", gatk);
        let v = *o.vocab();
        o.store_mut().set_property(id, v.input_file_size, Term::float(2.0));
        assert!(o.profiles_of("GATK").is_empty());
    }
}
