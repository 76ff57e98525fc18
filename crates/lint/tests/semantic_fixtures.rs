//! Golden-file harness for the interprocedural (semantic) passes.
//!
//! Every `tests/fixtures/semantic/<case>/` directory is a miniature
//! multi-crate workspace (its own `crates/*/Cargo.toml` + sources) that
//! [`Workspace::load`] loads like the real one. The semantic passes run
//! over it and the rendered findings — including each finding's full
//! evidence chain — are compared against the case's `expected.txt`.
//! Regenerate after an intentional pass change with:
//!
//! ```text
//! BLESS=1 cargo test -p scan-lint --test semantic_fixtures
//! ```
//!
//! The drift test then mutates a fixture workspace in memory (adds a
//! tainted helper) and asserts the pass *fires*, guarding against a
//! silently-vacuous analysis.

use scan_lint::source::SourceFile;
use scan_lint::workspace::Workspace;
use std::fs;
use std::path::{Path, PathBuf};

fn semantic_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/semantic")
}

/// Renders a semantic run the way the goldens store it: one line per
/// finding, then one indented line per chain hop.
fn render(ws: &Workspace) -> String {
    let mut out = String::new();
    for diag in ws.run_semantic().diagnostics {
        out.push_str(&diag.render());
        out.push('\n');
        for hop in &diag.chain {
            out.push_str(&format!("  -> {} ({}:{})\n", hop.label, hop.path.display(), hop.line));
        }
    }
    out
}

#[test]
fn semantic_fixtures_match_goldens() {
    let dir = semantic_dir();
    let bless = std::env::var_os("BLESS").is_some();
    let mut cases: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/fixtures/semantic directory exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    cases.sort();
    assert!(!cases.is_empty(), "no semantic fixture cases in {}", dir.display());

    let mut failures = Vec::new();
    for case in &cases {
        let ws = Workspace::load(case).expect("fixture workspaces load");
        let got = render(&ws);
        let golden = case.join("expected.txt");
        if bless {
            fs::write(&golden, &got).expect("goldens are writable under BLESS=1");
            continue;
        }
        let want = fs::read_to_string(&golden).unwrap_or_default();
        if got != want {
            failures.push(format!(
                "{}: output drifted from {}\n--- got ---\n{got}\n--- want ---\n{want}",
                case.display(),
                golden.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The acceptance shape for the taint pass: the cross-crate case flags
/// the sim boundary with a chain that reaches through the clean-looking
/// helper down to the wall-clock seed, and the *same* workspace with a
/// reasoned sink annotation scans clean.
#[test]
fn taint_is_interprocedural_and_sink_annotations_absorb() {
    let flagged = Workspace::load(&semantic_dir().join("taint_cross_crate")).unwrap();
    let result = flagged.run_semantic();
    let taint: Vec<_> = result.diagnostics.iter().filter(|d| d.rule == "taint-nondet").collect();
    assert_eq!(taint.len(), 1, "exactly one sim-boundary crossing");
    let d = taint[0];
    assert!(d.path.ends_with("crates/sched/src/lib.rs"), "reported at the crossing: {d:?}");
    assert!(d.chain.len() >= 4, "chain spans caller, helper, seeding fn and seed: {:?}", d.chain);
    let files: std::collections::BTreeSet<_> = d.chain.iter().map(|h| h.path.clone()).collect();
    assert!(files.len() >= 2, "chain crosses crates: {files:?}");

    let clean = Workspace::load(&semantic_dir().join("taint_sink_annotated")).unwrap();
    assert!(
        clean.run_semantic().diagnostics.is_empty(),
        "a reasoned allow(taint-nondet) on the helper absorbs the flow"
    );
}

/// Replaces one file of a loaded workspace with edited text.
fn patch(ws: &mut Workspace, suffix: &str, edit: impl Fn(&str) -> String) {
    let wf = ws
        .files
        .iter_mut()
        .find(|wf| wf.file.path.ends_with(suffix))
        .unwrap_or_else(|| panic!("workspace has a file ending in {suffix}"));
    let patched = edit(&wf.file.text);
    assert_ne!(patched, wf.file.text, "the drift edit must change {suffix}");
    wf.file = SourceFile::new(wf.file.path.clone(), patched);
}

/// Synthetic drift: routing the sim-facing caller through a *new*
/// tainted helper must fire the taint pass even though the original
/// flow stays sink-annotated.
#[test]
fn adding_a_tainted_helper_fires_taint() {
    let mut ws = Workspace::load(&semantic_dir().join("taint_sink_annotated")).unwrap();
    patch(&mut ws, "crates/helpers/src/lib.rs", |text| {
        let mut t = text.to_string();
        t.push_str(
            "\n/// Drifted-in helper with a fresh hazard.\npub fn jitter() -> u64 {\n    \
             std::time::Instant::now().elapsed().subsec_nanos() as u64\n}\n",
        );
        t
    });
    patch(&mut ws, "crates/sched/src/lib.rs", |text| {
        text.replace("estimate()", "estimate() + scan_helpers::jitter() as f64")
    });
    let result = ws.run_semantic();
    assert!(
        result.diagnostics.iter().any(|d| d.rule == "taint-nondet" && d.message.contains("jitter")),
        "the new tainted helper must be flagged at the sim boundary: {:?}",
        result.diagnostics
    );
}
