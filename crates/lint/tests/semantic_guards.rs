//! Non-vacuity guards for the semantic layer, pinned against the real
//! workspace: a refactor that silently stops resolving calls (or stops
//! finding hazards) would otherwise keep every pass green by making it
//! blind. `workspace_clean` pins the *post-allow* result at zero; these
//! pin the machinery underneath at non-trivial sizes.

use scan_lint::diag::Allows;
use scan_lint::graph;
use scan_lint::model::SemanticModel;
use scan_lint::rules::{self, semantic};
use scan_lint::source::SourceFile;
use scan_lint::workspace::Workspace;
use std::path::Path;

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::load(&root).expect("workspace root is readable")
}

#[test]
fn call_graph_covers_the_workspace() {
    let ws = real_workspace();
    let model = SemanticModel::build(&ws);
    let g = graph::build(&model);
    assert!(model.fns.len() >= 1000, "symbol table shrank: {} fns", model.fns.len());
    assert!(g.edge_count() >= 500, "call graph shrank: {} edges", g.edge_count());
}

/// Every `panic-path` root the pass names resolves to a non-test
/// function of the real workspace: a root whose function was renamed or
/// deleted would silently stop seeding the walk.
#[test]
fn every_panic_path_root_names_a_workspace_function() {
    let ws = real_workspace();
    let model = SemanticModel::build(&ws);
    for root in semantic::HOT_PATH_ROOTS.iter().chain(&semantic::DECODER_ROOTS) {
        assert!(
            (0..model.fns.len()).any(|id| !model.decl(id).is_test && root.names(&model, id)),
            "panic-path root {root:?} names no function in the workspace"
        );
    }
}

/// Replaces one file of the loaded workspace with edited text.
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

/// With allow directives ignored, the passes must find real hazards in
/// the real call graph. The taint pass is driven through a `HashMap`
/// helper injected (in memory) into the knowledge base and called from
/// `DataBroker::bootstrap`, and must report the crossing with a chain
/// rooted there; the panic-path pass must re-find the trace-store
/// columns' `# Panics` contract sites behind the observer hot path. If
/// the latter fails after removing those sites, re-point it at another
/// allowed site — the guard exists so the passes can never silently go
/// blind.
#[test]
fn passes_find_the_annotated_sites_when_allows_are_ignored() {
    let mut ws = real_workspace();
    patch(&mut ws, "crates/kb/src/advice.rs", |text| {
        format!(
            "{text}\nimpl KnowledgeBase {{\n    /// Drifted-in helper with a fresh hazard.\n    \
             pub fn drifted_index() -> usize {{\n        \
             std::collections::HashMap::<u32, u32>::new().len()\n    }}\n}}\n"
        )
    });
    patch(&mut ws, "crates/core/src/broker.rs", |text| {
        text.replacen(
            "let learned = Self::learn_model(&kb, model);",
            "let _ = KnowledgeBase::drifted_index();\n        \
             let learned = Self::learn_model(&kb, model);",
            1,
        )
    });
    let model = SemanticModel::build(&ws);
    let g = graph::build(&model);
    let mut no_allows = Allows::collect(std::iter::empty::<&SourceFile>(), rules::is_known_rule);
    let mut diags = Vec::new();
    semantic::check(&model, &g, &mut no_allows, &mut diags);
    assert!(
        diags.iter().any(|d| d.rule == "taint-nondet"
            && d.chain.first().is_some_and(|h| h.label == "DataBroker::bootstrap")
            && d.chain.iter().any(|h| h.label == "KnowledgeBase::drifted_index")),
        "taint pass went blind: {diags:?}"
    );
    let count = |rule: &str| diags.iter().filter(|d| d.rule == rule).count();
    assert!(count("panic-path") >= 1, "panic-path pass went blind: {diags:?}");
}

/// The hostile-input decoders are `panic-path` roots: the real
/// workspace's decoders scan clean, and a bare `unwrap()` planted (in
/// memory) in `parse_vcf` is reported with a chain rooted there.
#[test]
fn a_bare_unwrap_planted_in_a_decoder_is_reported() {
    let decoder_findings = |ws: &Workspace| {
        ws.run_semantic()
            .diagnostics
            .into_iter()
            .filter(|d| d.rule == "panic-path" && d.message.contains("decoder root"))
            .collect::<Vec<_>>()
    };
    let mut ws = real_workspace();
    assert_eq!(decoder_findings(&ws).len(), 0, "the decoders scan clean today");
    patch(&mut ws, "crates/genomics/src/variant.rs", |text| {
        text.replacen(
            "pub fn parse_vcf(text: &str) -> Option<Vec<VcfRecord>> {\n",
            "pub fn parse_vcf(text: &str) -> Option<Vec<VcfRecord>> {\n    \
             let _ = text.lines().next().unwrap();\n",
            1,
        )
    });
    let found = decoder_findings(&ws);
    assert!(
        found.len() == 1
            && found[0].path.ends_with("crates/genomics/src/variant.rs")
            && found[0].chain.first().is_some_and(|h| h.label == "parse_vcf"),
        "the planted unwrap must be reported from `parse_vcf`: {found:?}"
    );
}

/// The real workspace's per-event path scans clean for `hot-inline`,
/// and deleting one `#[inline]` of it is reported: from a public method
/// the event loop calls (`ClassQueues::pop`) and from a private helper
/// an inlined method calls (`ClassQueues::class`), whose body the
/// platform's crate compiles.
#[test]
fn removing_an_inline_attribute_is_reported() {
    let hot_inline = |ws: &Workspace| {
        ws.run_semantic()
            .diagnostics
            .into_iter()
            .filter(|d| d.rule == "hot-inline")
            .map(|d| d.message)
            .collect::<Vec<_>>()
    };
    let mut ws = real_workspace();
    assert_eq!(hot_inline(&ws), Vec::<String>::new(), "the per-event path scans clean today");
    for (fn_line, label) in [
        ("    pub fn pop(&mut self, class: TaskClass", "`ClassQueues::pop` (scan-sched)"),
        ("    fn class(&self, class: TaskClass)", "`ClassQueues::class` (scan-sched)"),
    ] {
        patch(&mut ws, "crates/sched/src/queue.rs", |text| {
            text.replacen(&format!("    #[inline]\n{fn_line}"), fn_line, 1)
        });
        let found = hot_inline(&ws);
        assert!(
            found.len() == 1
                && found[0].starts_with(label)
                && found[0].contains("compiled into scan-platform"),
            "the missing attribute must be reported as {label}: {found:?}"
        );
        ws = real_workspace();
    }
}
