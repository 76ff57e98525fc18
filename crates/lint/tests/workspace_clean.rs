//! The committed tree must lint clean: zero findings, warnings
//! included. This is the same bar `scripts/ci.sh` enforces with
//! `scan-lint --deny-warnings`; keeping it as a test means `cargo test`
//! alone catches a regression.

use scan_lint::Workspace;
use std::path::Path;

#[test]
fn committed_tree_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace root is readable");
    let result = ws.run();
    assert!(
        result.files_scanned > 100,
        "discovery collapsed: only {} files scanned",
        result.files_scanned
    );
    let rendered: Vec<String> = result.diagnostics.iter().map(|d| d.render()).collect();
    assert!(rendered.is_empty(), "committed tree has findings:\n{}", rendered.join("\n"));
}
