//! Workspace discovery and the full analyzer run.
//!
//! Discovery is filesystem-based and deliberately simple: every
//! `crates/*/` directory with a `Cargo.toml` is a member crate, plus the
//! root `scan` package (`src/`, `tests/`, `examples/`). The vendored
//! `compat/` stand-ins are out of scope (they mimic external crates and
//! follow those crates' conventions), as is `crates/lint/tests/fixtures`
//! (deliberate violations used as test inputs).

use crate::diag::{Allows, Diagnostic};
use crate::graph;
use crate::model::SemanticModel;
use crate::rules::{self, semantic, RuleCtx};
use crate::source::{FileClass, SourceFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates on the simulation path: determinism rules apply to their
/// library code. Everything else (kb, genomics, metrics, bench, lint,
/// the root facade) is free to use wall clocks and hash maps. The trace
/// store and the span deriver are included: their artefacts are
/// digest-pinned / byte-compared across thread counts in CI, so hash
/// iteration or entropy there breaks the determinism contract too.
pub const SIM_FACING_CRATES: &[&str] = &[
    "scan-sim",
    "scan-sched",
    "scan-cloud",
    "scan-workload",
    "scan-platform",
    "scan-tracestore",
    "scan-spans",
];

/// One discovered source file with the facts the rules scope by.
pub struct WorkspaceFile {
    /// Lexed source, `path` workspace-relative.
    pub file: SourceFile,
    /// Target class the path implies.
    pub class: FileClass,
    /// Owning Cargo package name.
    pub crate_name: String,
}

impl WorkspaceFile {
    /// The rule context for this file.
    pub fn ctx(&self) -> RuleCtx<'_> {
        RuleCtx {
            class: self.class,
            crate_name: &self.crate_name,
            sim_facing: SIM_FACING_CRATES.contains(&self.crate_name.as_str()),
        }
    }
}

/// The loaded workspace: every in-scope source file.
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// All discovered files, sorted by path.
    pub files: Vec<WorkspaceFile>,
}

/// Outcome of a full run.
pub struct RunResult {
    /// All findings, sorted by (path, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl Workspace {
    /// Discovers and lexes every in-scope source file under `root`.
    pub fn load(root: &Path) -> io::Result<Self> {
        let mut files = Vec::new();

        let crates_dir = root.join("crates");
        for crate_dir in sorted_dirs(&crates_dir)? {
            let manifest = crate_dir.join("Cargo.toml");
            let Ok(manifest_text) = fs::read_to_string(&manifest) else { continue };
            let crate_name = package_name(&manifest_text).unwrap_or_else(|| {
                crate_dir.file_name().unwrap_or_default().to_string_lossy().into_owned()
            });
            collect_crate(root, &crate_dir, &crate_name, &mut files)?;
        }

        // The root `scan` facade package.
        for (dir, class) in [
            ("src", FileClass::Library),
            ("tests", FileClass::Test),
            ("examples", FileClass::Binary),
        ] {
            collect_rs(root, &root.join(dir), class, "scan", &mut files)?;
        }

        files.sort_by(|a, b| a.file.path.cmp(&b.file.path));
        Ok(Workspace { root: root.to_path_buf(), files })
    }

    /// Runs every rule over the loaded workspace: the per-file token
    /// rules and the semantic passes, with allow directives applied once,
    /// globally, at the end — a directive can excuse a per-file finding,
    /// a cross-file semantic finding, or act as a mid-analysis taint
    /// sink, all from one used-tracking ledger.
    pub fn run(&self) -> RunResult {
        let mut diagnostics = Vec::new();
        let mut allows =
            Allows::collect(self.files.iter().map(|wf| &wf.file), rules::is_known_rule);
        for wf in &self.files {
            diagnostics.extend(rules::check_file_raw(&wf.file, wf.ctx()));
        }
        let model = SemanticModel::build(self);
        let call_graph = graph::build(&model);
        semantic::check(&model, &call_graph, &mut allows, &mut diagnostics);
        allows.apply(&mut diagnostics);
        allows.finish(&mut diagnostics);
        diagnostics.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
        RunResult { diagnostics, files_scanned: self.files.len() }
    }

    /// Runs *only* the semantic passes (model + call graph + the three
    /// interprocedural rules) with global allow application. Used by the
    /// semantic fixture harness and the `lint/semantic` benchmark; the
    /// CLI always runs the full [`Workspace::run`].
    pub fn run_semantic(&self) -> RunResult {
        let mut diagnostics = Vec::new();
        let mut allows =
            Allows::collect(self.files.iter().map(|wf| &wf.file), rules::is_known_rule);
        let model = SemanticModel::build(self);
        let call_graph = graph::build(&model);
        semantic::check(&model, &call_graph, &mut allows, &mut diagnostics);
        allows.apply(&mut diagnostics);
        // Meta findings are skipped here on purpose: a fixture workspace
        // exercising one pass would otherwise drown in unused-allow noise
        // from directives aimed at the other passes.
        diagnostics.sort_by(|a, b| {
            (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule))
        });
        RunResult { diagnostics, files_scanned: self.files.len() }
    }
}

/// Collects a member crate's files: `src/` (library, with `src/bin` and
/// `src/main.rs` as binaries), `tests/`, `benches/`. The whole
/// `scan-bench` crate is harness code and classes as `Bench`.
fn collect_crate(
    root: &Path,
    crate_dir: &Path,
    crate_name: &str,
    out: &mut Vec<WorkspaceFile>,
) -> io::Result<()> {
    let lib_class = if crate_name == "scan-bench" { FileClass::Bench } else { FileClass::Library };
    collect_rs(root, &crate_dir.join("src"), lib_class, crate_name, out)?;
    collect_rs(root, &crate_dir.join("tests"), FileClass::Test, crate_name, out)?;
    collect_rs(root, &crate_dir.join("benches"), FileClass::Bench, crate_name, out)?;
    Ok(())
}

/// Recursively collects `.rs` files under `dir`, refining `class` for
/// binary targets and skipping the lint fixtures.
fn collect_rs(
    root: &Path,
    dir: &Path,
    class: FileClass,
    crate_name: &str,
    out: &mut Vec<WorkspaceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") && crate_name == "scan-lint" {
                continue;
            }
            let sub_class = if path.file_name().is_some_and(|n| n == "bin") {
                FileClass::Binary
            } else {
                class
            };
            collect_rs(root, &path, sub_class, crate_name, out)?;
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let file_class =
            if class == FileClass::Library && path.file_name().is_some_and(|n| n == "main.rs") {
                FileClass::Binary
            } else {
                class
            };
        let text = fs::read_to_string(&path)?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        out.push(WorkspaceFile {
            file: SourceFile::new(rel, text),
            class: file_class,
            crate_name: crate_name.to_string(),
        });
    }
    Ok(())
}

/// Immediate subdirectories of `dir`, sorted for deterministic output.
fn sorted_dirs(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Extracts `name = "…"` from a manifest's `[package]` table.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(table) = line.strip_prefix('[') {
            in_package = table.trim_end_matches(']') == "package";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}
