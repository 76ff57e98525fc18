//! The rule set: per-file token rules (determinism + hygiene) and the
//! interprocedural passes in [`semantic`].
//!
//! Every rule has a stable kebab-case id, a severity, and a one-line
//! summary (shown by `scan-lint --list-rules` and catalogued with
//! examples in `docs/LINTS.md`). Per-file rules receive a [`RuleCtx`]
//! telling them the file's target class and whether its crate is
//! sim-facing; each rule decides its own scope from that.

mod determinism;
mod hygiene;
pub mod semantic;

use crate::diag::{Diagnostic, Severity};
use crate::source::{FileClass, SourceFile};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable kebab-case identifier (what `allow(…)` names).
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line summary for `--list-rules`.
    pub summary: &'static str,
}

/// Every rule the analyzer knows, including the meta-rules the allow
/// machinery emits itself.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-iter",
        severity: Severity::Error,
        summary: "no HashMap/HashSet in sim-facing library code (iteration order is \
                  nondeterministic); use BTreeMap/BTreeSet or an arena",
    },
    RuleInfo {
        id: "wall-clock",
        severity: Severity::Error,
        summary: "no std::time::Instant/SystemTime in sim-facing library code (sim::prof is the \
                  sanctioned wall-clock subsystem)",
    },
    RuleInfo {
        id: "os-entropy",
        severity: Severity::Error,
        summary: "no thread_rng/OsRng/std::env reads in sim-facing library code; all randomness \
                  flows from the seeded SimRng",
    },
    RuleInfo {
        id: "float-ord",
        severity: Severity::Error,
        summary: "no partial_cmp().unwrap()/expect() float ordering in sim-facing library code; \
                  use total_cmp or integer keys",
    },
    RuleInfo {
        id: "no-unwrap",
        severity: Severity::Warning,
        summary: "no bare unwrap() in library code; use expect(\"invariant message\") or handle \
                  the None/Err",
    },
    RuleInfo {
        id: "no-expect",
        severity: Severity::Warning,
        summary: "expect() messages in library code must state the invariant (a string literal of \
                  at least 8 bytes)",
    },
    RuleInfo {
        id: "no-panic",
        severity: Severity::Warning,
        summary: "no panic!/todo!/unimplemented! in library code; return a Result or document the \
                  contract and allow explicitly",
    },
    RuleInfo {
        id: "pub-docs",
        severity: Severity::Warning,
        summary: "every pub item in library code carries a doc comment",
    },
    RuleInfo {
        id: "stale-todo",
        severity: Severity::Warning,
        summary: "TODO/FIXME comments must reference an issue (`#123`) or a URL",
    },
    RuleInfo {
        id: "taint-nondet",
        severity: Severity::Error,
        summary: "no call path from sim-facing library code into a function that (transitively) \
                  uses HashMap/Instant/entropy/env in any crate; annotate a deterministic-by-\
                  construction sink with allow(taint-nondet) and a reason",
    },
    RuleInfo {
        id: "panic-path",
        severity: Severity::Error,
        summary: "no panic!/todo!/unimplemented!/bare unwrap() reachable along call edges from \
                  Platform::run/handle_event, Observer::on_event or a hostile-input \
                  decoder (TraceStore::from_bytes, parse_query, from_turtle, \
                  parse_fastq, parse_sbam, parse_vcf)",
    },
    RuleInfo {
        id: "hot-inline",
        severity: Severity::Warning,
        summary: "a small non-generic function another crate's event loop (Platform::run/\
                  handle_event) calls must be #[inline]: the bins and the benchmark build \
                  without LTO",
    },
    RuleInfo {
        id: "bad-allow",
        severity: Severity::Error,
        summary: "scan-lint allow directives must be well-formed, name known rules, and carry a \
                  `-- <reason>`",
    },
    RuleInfo {
        id: "unused-allow",
        severity: Severity::Warning,
        summary: "allow directives that suppress nothing must be removed",
    },
];

/// Looks up a rule's registered severity.
pub fn severity_of(id: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == id)
        .map(|r| r.severity)
        .expect("rules always report under a registered id")
}

/// Whether `id` names a known rule (used to validate allow directives).
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Per-file facts the token rules scope themselves by.
#[derive(Debug, Clone, Copy)]
pub struct RuleCtx<'a> {
    /// Target class of the file (library / binary / bench / test).
    pub class: FileClass,
    /// Cargo package name of the owning crate (e.g. `scan-sim`).
    pub crate_name: &'a str,
    /// Whether the crate is on the simulation path (determinism rules).
    pub sim_facing: bool,
}

impl RuleCtx<'_> {
    /// Whether determinism rules apply: sim-facing crates' library code.
    pub fn determinism_scope(&self) -> bool {
        self.sim_facing && self.class == FileClass::Library
    }

    /// Whether hygiene rules apply: any crate's library code.
    pub fn hygiene_scope(&self) -> bool {
        self.class == FileClass::Library
    }
}

/// Runs every per-file rule on one file *without* applying allow
/// directives — the workspace run applies allows globally afterwards so
/// one ledger covers both per-file and cross-file (semantic) findings.
pub fn check_file_raw(file: &SourceFile, ctx: RuleCtx<'_>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    determinism::check(file, ctx, &mut diags);
    hygiene::check(file, ctx, &mut diags);
    diags
}

/// Runs every per-file rule on one file, then applies the file's allow
/// directives. Returned diagnostics are final for this file (the
/// workspace-level semantic passes report separately).
pub fn check_file(file: &SourceFile, ctx: RuleCtx<'_>) -> Vec<Diagnostic> {
    let mut diags = check_file_raw(file, ctx);
    crate::diag::apply_allows(file, &mut diags, is_known_rule);
    diags.sort_by_key(|d| (d.line, d.col));
    diags
}

/// Helper shared by rules: emit one diagnostic at a token.
pub(crate) fn report(
    diags: &mut Vec<Diagnostic>,
    file: &SourceFile,
    token: &crate::lex::Token,
    rule: &'static str,
    message: String,
) {
    diags.push(Diagnostic {
        rule,
        severity: severity_of(rule),
        path: file.path.clone(),
        line: token.line,
        col: token.col,
        message,
        chain: Vec::new(),
    });
}
