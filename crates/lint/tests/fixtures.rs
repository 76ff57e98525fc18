//! Golden-file harness for the rule fixtures.
//!
//! Every `tests/fixtures/<name>.rs` is linted as library code of a
//! sim-facing crate and the rendered findings are compared against
//! `tests/fixtures/<name>.expected`. Regenerate the goldens after an
//! intentional rule change with:
//!
//! ```text
//! BLESS=1 cargo test -p scan-lint --test fixtures
//! ```

use scan_lint::rules::{check_file, RuleCtx};
use scan_lint::source::{FileClass, SourceFile};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn lint_fixture(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("fixture sources are readable");
    let name = path.file_name().expect("fixture paths have file names");
    let file = SourceFile::new(PathBuf::from(name), text);
    let ctx = RuleCtx { class: FileClass::Library, crate_name: "scan-fixture", sim_facing: true };
    let mut out = String::new();
    for diag in check_file(&file, ctx) {
        out.push_str(&diag.render());
        out.push('\n');
    }
    out
}

#[test]
fn fixtures_match_goldens() {
    let dir = fixture_dir();
    let bless = std::env::var_os("BLESS").is_some();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/fixtures directory exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty(), "no fixtures found in {}", dir.display());

    let mut failures = Vec::new();
    for fixture in &fixtures {
        let got = lint_fixture(fixture);
        let golden = fixture.with_extension("expected");
        if bless {
            fs::write(&golden, &got).expect("golden files are writable under BLESS=1");
            continue;
        }
        let want = fs::read_to_string(&golden).unwrap_or_default();
        if got != want {
            failures.push(format!(
                "{}: output drifted from {}\n--- got ---\n{got}\n--- want ---\n{want}",
                fixture.display(),
                golden.display()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(lint_fixture(&fixture_dir().join("clean.rs")), "");
}

#[test]
fn every_non_meta_rule_appears_in_some_golden() {
    // The semantic (interprocedural) rules are exercised by
    // tests/semantic_fixtures.rs — they need multi-crate workspaces, not
    // single files.
    let covered_elsewhere = ["taint-nondet", "panic-path", "hot-inline"];
    let dir = fixture_dir();
    let mut all = String::new();
    for entry in fs::read_dir(&dir).expect("fixture dir") {
        let path = entry.expect("fixture entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            all.push_str(&lint_fixture(&path));
        }
    }
    for rule in scan_lint::rules::RULES {
        if covered_elsewhere.contains(&rule.id) {
            continue;
        }
        assert!(
            all.contains(&format!("[{}]", rule.id)),
            "rule `{}` never fires on any fixture; add a fixture case",
            rule.id
        );
    }
}
