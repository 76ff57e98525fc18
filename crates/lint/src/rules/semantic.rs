//! The interprocedural passes over the workspace call graph:
//! `taint-nondet`, `panic-path` and `dead-telemetry`. See
//! `docs/LINTS.md` § "Semantic passes" for the contracts.
//!
//! All three report [`Diagnostic`]s carrying an evidence
//! [`ChainHop`] chain; suppression of the *reported* site goes through
//! the workspace-global allow application, while taint additionally
//! consults [`Allows`] mid-analysis — an allow on a hazard line kills
//! that seed, and an allow on a function's declaration line is a sink
//! annotation that absorbs any taint flowing into or out of it.

use crate::diag::{Allows, ChainHop, Diagnostic};
use crate::graph::CallGraph;
use crate::lex::TokenKind;
use crate::model::{FileFacts, FnId, SemanticModel};
use crate::rules::severity_of;
use crate::source::FileClass;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;

/// Runs all three semantic passes.
pub fn check(
    model: &SemanticModel<'_>,
    graph: &CallGraph,
    allows: &mut Allows,
    diags: &mut Vec<Diagnostic>,
) {
    check_taint(model, graph, allows, diags);
    check_panic_paths(model, graph, diags);
    check_dead_telemetry(model, diags);
}

fn diag(
    rule: &'static str,
    path: PathBuf,
    line: u32,
    col: u32,
    message: String,
    chain: Vec<ChainHop>,
) -> Diagnostic {
    Diagnostic { rule, severity: severity_of(rule), path, line, col, message, chain }
}

/// Why a function is nondeterminism-tainted.
enum Cause {
    /// It contains the hazard itself (index into its `hazards`).
    Seed(usize),
    /// It calls a tainted function at this line of its own file.
    Via(FnId, u32),
}

/// `taint-nondet`: determinism hazards in *non-sim-facing* library code
/// (the per-file rules already forbid them in sim-facing code outright)
/// propagate backwards along call edges through non-sim functions; every
/// call edge from a sim-facing library function into a tainted function
/// is an error, reported at the call site with the full chain down to
/// the seeding hazard.
fn check_taint(
    model: &SemanticModel<'_>,
    graph: &CallGraph,
    allows: &mut Allows,
    diags: &mut Vec<Diagnostic>,
) {
    let mut cause: BTreeMap<FnId, Cause> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();

    for id in 0..model.fns.len() {
        let info = &model.fns[id];
        if info.sim_facing
            || info.class != FileClass::Library
            || info.hazards.is_empty()
            || model.decl(id).is_test
        {
            continue;
        }
        let path = model.file_of(id).path.clone();
        // A sink annotation on the declaration absorbs every hazard of
        // (and any taint through) this function.
        if allows.allowed(&path, model.decl(id).line, "taint-nondet") {
            continue;
        }
        for (hi, hz) in info.hazards.iter().enumerate() {
            if allows.allowed(&path, hz.line, "taint-nondet") {
                continue; // this seed is individually excused
            }
            cause.insert(id, Cause::Seed(hi));
            queue.push_back(id);
            break;
        }
    }

    while let Some(f) = queue.pop_front() {
        for edge in &graph.callers[f] {
            let caller = edge.other;
            let info = &model.fns[caller];
            let decl = model.decl(caller);
            if decl.is_test || info.class != FileClass::Library {
                continue;
            }
            if info.sim_facing {
                // The sim boundary crossing: report here, don't propagate
                // further (anything past this point is sim-facing code,
                // which the per-file rules keep hazard-free themselves).
                let path = model.file_of(caller).path.clone();
                let (chain, seed) = taint_chain(model, &cause, caller, edge.line, f);
                let through = model.label(f);
                diags.push(diag(
                    "taint-nondet",
                    path,
                    edge.line,
                    1,
                    format!(
                        "sim-facing `{}` calls `{through}`, which carries {} from {}:{}; chain: {}",
                        model.label(caller),
                        seed.0,
                        seed.1.display(),
                        seed.2,
                        chain_text(&chain),
                    ),
                    chain,
                ));
            } else if let std::collections::btree_map::Entry::Vacant(slot) = cause.entry(caller) {
                let path = model.file_of(caller).path.clone();
                if allows.allowed(&path, decl.line, "taint-nondet") {
                    continue; // sink annotation: absorbs inflowing taint
                }
                slot.insert(Cause::Via(f, edge.line));
                queue.push_back(caller);
            }
        }
    }
}

/// The evidence chain for one crossing edge, outermost hop (the
/// reported call site) first, and the seed's (what, path, line).
fn taint_chain(
    model: &SemanticModel<'_>,
    cause: &BTreeMap<FnId, Cause>,
    caller: FnId,
    call_line: u32,
    first: FnId,
) -> (Vec<ChainHop>, (String, PathBuf, u32)) {
    let mut hops = vec![ChainHop {
        label: model.label(caller),
        path: model.file_of(caller).path.clone(),
        line: call_line,
    }];
    let mut cur = first;
    loop {
        let path = model.file_of(cur).path.clone();
        match cause.get(&cur).expect("taint chains only link tainted functions") {
            Cause::Seed(hi) => {
                let hz = &model.fns[cur].hazards[*hi];
                hops.push(ChainHop {
                    label: model.label(cur),
                    path: path.clone(),
                    line: model.decl(cur).line,
                });
                let seed = (hz.what.clone(), path.clone(), hz.line);
                hops.push(ChainHop { label: format!("{} seed", hz.what), path, line: hz.line });
                return (hops, seed);
            }
            Cause::Via(callee, line) => {
                hops.push(ChainHop { label: model.label(cur), path, line: *line });
                cur = *callee;
            }
        }
    }
}

fn chain_text(chain: &[ChainHop]) -> String {
    chain.iter().map(|h| h.label.as_str()).collect::<Vec<_>>().join(" -> ")
}

/// `panic-path`: `panic!`/`todo!`/`unimplemented!` and bare `unwrap()`
/// sites in library code that are reachable, along call edges, from the
/// platform's event loop (`Platform::run`/`handle_event`, any
/// `EventHandler::handle` impl) or any `Observer::on_event` impl.
/// `expect("…")` is deliberately *not* a source — a stated invariant is
/// the house style for asserting impossibility — and neither is
/// indexing, which the arena-based designs use pervasively.
fn check_panic_paths(model: &SemanticModel<'_>, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    let mut parent: BTreeMap<FnId, (FnId, u32)> = BTreeMap::new();
    let mut root_of: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();

    for id in 0..model.fns.len() {
        let decl = model.decl(id);
        if decl.is_test {
            continue;
        }
        let is_root = (decl.owner.as_deref() == Some("Platform")
            && matches!(decl.name.as_str(), "run" | "handle_event"))
            || (decl.trait_name.as_deref() == Some("EventHandler") && decl.name == "handle")
            || (decl.trait_name.as_deref() == Some("Observer") && decl.name == "on_event");
        if is_root {
            root_of.insert(id, id);
            queue.push_back(id);
        }
    }

    while let Some(f) = queue.pop_front() {
        let root = root_of[&f];
        for edge in &graph.callees[f] {
            let callee = edge.other;
            if root_of.contains_key(&callee) || model.decl(callee).is_test {
                continue;
            }
            root_of.insert(callee, root);
            parent.insert(callee, (f, edge.line));
            queue.push_back(callee);
        }
    }

    for (&id, &root) in &root_of {
        let info = &model.fns[id];
        if info.class != FileClass::Library {
            continue;
        }
        for site in &info.panics {
            let path = model.file_of(id).path.clone();
            let chain = panic_chain(model, &parent, id, root, site.line);
            diags.push(diag(
                "panic-path",
                path,
                site.line,
                site.col,
                format!(
                    "{} is reachable from hot-path root `{}`; chain: {}",
                    site.what,
                    model.label(root),
                    chain_text(&chain),
                ),
                chain,
            ));
        }
    }
}

/// Root-first chain for a reachable panic site.
fn panic_chain(
    model: &SemanticModel<'_>,
    parent: &BTreeMap<FnId, (FnId, u32)>,
    id: FnId,
    root: FnId,
    site_line: u32,
) -> Vec<ChainHop> {
    let mut rev = vec![ChainHop {
        label: "panic site".to_string(),
        path: model.file_of(id).path.clone(),
        line: site_line,
    }];
    let mut cur = id;
    while cur != root {
        let (caller, line) = parent[&cur];
        rev.push(ChainHop {
            label: model.label(cur),
            path: model.file_of(caller).path.clone(),
            line,
        });
        cur = caller;
    }
    rev.push(ChainHop {
        label: model.label(root),
        path: model.file_of(root).path.clone(),
        line: model.decl(root).line,
    });
    rev.reverse();
    rev
}

/// Methods that count as *updating* a metric — handle-style
/// (`handle.inc()`) and the registry's imperative vocabulary
/// (`registry.counter_add(handle, n)`), where the handle is an argument.
const UPDATE_METHODS: &[&str] =
    &["inc", "add", "observe", "sample", "set", "record", "counter_add", "gauge_set", "rate_add"];
/// Registrar methods whose string argument names a metric family.
const REGISTER_METHODS: &[&str] = &["counter", "histogram", "series"];

/// `dead-telemetry`: telemetry that is declared but can never produce
/// data — (a) `TraceEvent` variants never constructed outside tests,
/// (b) metric registrations whose handle never reaches an update call,
/// (c) `Observer + Merge` types no `ObserverFactory` impl can build.
fn check_dead_telemetry(model: &SemanticModel<'_>, diags: &mut Vec<Diagnostic>) {
    check_unconstructed_variants(model, diags);
    check_unread_metrics(model, diags);
    check_unreachable_observers(model, diags);
}

/// (a) Every `TraceEvent` variant must be constructed somewhere outside
/// test code. Patterns (match arms, `if let`, `..` rests) don't count.
fn check_unconstructed_variants(model: &SemanticModel<'_>, diags: &mut Vec<Diagnostic>) {
    let Some(trace) = model
        .files
        .iter()
        .find(|f| f.wf.crate_name == "scan-sim" && f.wf.file.path.ends_with("src/trace.rs"))
    else {
        return; // no trace schema in this workspace (fixture runs)
    };
    let variants = declared_variants(trace, "TraceEvent");
    if variants.is_empty() {
        return;
    }

    let mut constructed: BTreeSet<String> = BTreeSet::new();
    for facts in &model.files {
        if !matches!(facts.wf.class, FileClass::Library | FileClass::Binary) {
            continue;
        }
        collect_constructions(facts, "TraceEvent", &mut constructed);
    }

    for (variant, line) in &variants {
        if !constructed.contains(variant) {
            diags.push(diag(
                "dead-telemetry",
                trace.wf.file.path.clone(),
                *line,
                1,
                format!(
                    "`TraceEvent::{variant}` is declared but never constructed outside tests; \
                     emit it or retire the variant (and its docs/TRACE_SCHEMA.md entry)"
                ),
                Vec::new(),
            ));
        }
    }
}

/// The variants of `enum enum_name` declared in a file, with their
/// lines: identifiers directly inside the enum body that follow its
/// opening brace, a separating comma or an attribute.
fn declared_variants(facts: &FileFacts<'_>, enum_name: &str) -> Vec<(String, u32)> {
    let file = &facts.wf.file;
    let code = &facts.code;
    let is =
        |k: usize, word: &str| code[k].kind == TokenKind::Ident && code[k].text(&file.text) == word;
    let Some(name) = (1..code.len()).find(|&k| is(k - 1, "enum") && is(k, enum_name)) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut depth = 0i32;
    for k in name + 1..code.len() {
        match code[k].kind {
            TokenKind::Punct(b'{' | b'(' | b'[') => depth += 1,
            TokenKind::Punct(b'}' | b')' | b']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokenKind::Ident
                if depth == 1
                    && matches!(code[k - 1].kind, TokenKind::Punct(b'{' | b',' | b']')) =>
            {
                out.push((code[k].text(&file.text).to_string(), code[k].line));
            }
            _ => {}
        }
    }
    out
}

/// Collects variants of `enum_name` that appear in *construction*
/// position (`Enum::V { … }` as an expression) in non-test code.
fn collect_constructions(facts: &FileFacts<'_>, enum_name: &str, out: &mut BTreeSet<String>) {
    let file = &facts.wf.file;
    let code = &facts.code;
    for k in 0..code.len() {
        if code[k].kind != TokenKind::Ident
            || code[k].text(&file.text) != enum_name
            || file.in_test_code(code[k].start)
        {
            continue;
        }
        // `Enum :: Variant`
        let is_path = matches!(code.get(k + 1).map(|t| t.kind), Some(TokenKind::Punct(b':')))
            && matches!(code.get(k + 2).map(|t| t.kind), Some(TokenKind::Punct(b':')))
            && matches!(code.get(k + 3).map(|t| t.kind), Some(TokenKind::Ident));
        if !is_path {
            continue;
        }
        let variant = code[k + 3].text(&file.text).to_string();
        // Only a braced body can be a struct-variant construction; a bare
        // mention (match arm head, `matches!`, doc link) never is.
        if !matches!(code.get(k + 4).map(|t| t.kind), Some(TokenKind::Punct(b'{'))) {
            continue;
        }
        // Scan the braced body: `..` at depth 1 marks a rest pattern;
        // `=>` or `=` straight after the close marks a match arm or
        // `if let` — all pattern positions, not constructions.
        let mut depth = 0i32;
        let mut j = k + 4;
        let mut has_rest = false;
        while j < code.len() {
            match code[j].kind {
                TokenKind::Punct(b'{') => depth += 1,
                TokenKind::Punct(b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct(b'.')
                    if depth == 1
                        && matches!(
                            code.get(j + 1).map(|t| t.kind),
                            Some(TokenKind::Punct(b'.'))
                        ) =>
                {
                    has_rest = true;
                }
                _ => {}
            }
            j += 1;
        }
        let next = code.get(j + 1).map(|t| t.kind);
        let arrow = next == Some(TokenKind::Punct(b'='));
        if !has_rest && !arrow {
            out.insert(variant);
        }
    }
}

/// (b) Every metric registration's handle must reach an update call.
fn check_unread_metrics(model: &SemanticModel<'_>, diags: &mut Vec<Diagnostic>) {
    for (fi, facts) in model.files.iter().enumerate() {
        if facts.wf.class != FileClass::Library {
            continue;
        }
        let file = &facts.wf.file;
        let code = &facts.code;
        for k in 0..code.len() {
            if code[k].kind != TokenKind::Ident
                || !REGISTER_METHODS.contains(&code[k].text(&file.text))
                || file.in_test_code(code[k].start)
            {
                continue;
            }
            let is_call = k > 0
                && matches!(code[k - 1].kind, TokenKind::Punct(b'.'))
                && matches!(code.get(k + 1).map(|t| t.kind), Some(TokenKind::Punct(b'(')))
                && matches!(code.get(k + 2).map(|t| t.kind), Some(TokenKind::Str));
            if !is_call {
                continue;
            }
            let name = code[k + 2].str_content(&file.text).unwrap_or_default().to_string();
            let Some(binding) = registration_binding(facts, k) else {
                continue; // handle shape not statable; give it the benefit
            };
            if !handle_is_updated(model, fi, &binding, code[k].line) {
                diags.push(diag(
                    "dead-telemetry",
                    file.path.clone(),
                    code[k].line,
                    code[k].col,
                    format!(
                        "metric `{name}` is registered into `{binding}` but that handle never \
                         reaches an update call ({}); wire it up or drop the registration",
                        UPDATE_METHODS.join("/"),
                    ),
                    Vec::new(),
                ));
            }
        }
    }
}

/// The binding a registration call's result lands in: the `let` name or
/// the struct-literal field of the enclosing statement.
fn registration_binding(facts: &FileFacts<'_>, call_idx: usize) -> Option<String> {
    let file = &facts.wf.file;
    let code = &facts.code;
    // Walk back to the statement start: `;`, `,`, `{` or `}` at depth 0
    // (closing brackets seen while walking backward open a nesting level).
    let mut depth = 0i32;
    let mut b = call_idx;
    while b > 0 {
        match code[b - 1].kind {
            TokenKind::Punct(b')') | TokenKind::Punct(b']') => depth += 1,
            TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => depth -= 1,
            TokenKind::Punct(b'}') => depth += 1,
            TokenKind::Punct(b'{') if depth > 0 => depth -= 1,
            TokenKind::Punct(b'{') | TokenKind::Punct(b';') => break,
            TokenKind::Punct(b',') if depth == 0 => break,
            _ => {}
        }
        b -= 1;
    }
    let word =
        |i: usize| code.get(i).filter(|t| t.kind == TokenKind::Ident).map(|t| t.text(&file.text));
    if word(b) == Some("let") {
        let mut n = b + 1;
        if word(n) == Some("mut") {
            n += 1;
        }
        return word(n).map(str::to_string);
    }
    // `field: <registrar chain>` inside a struct literal.
    if let Some(field) = word(b) {
        if matches!(code.get(b + 1).map(|t| t.kind), Some(TokenKind::Punct(b':')))
            && !matches!(code.get(b + 2).map(|t| t.kind), Some(TokenKind::Punct(b':')))
        {
            return Some(field.to_string());
        }
    }
    None
}

/// Whether `binding` appears near an update-method call in the owning
/// crate's non-test library code (a ±40-token window around each
/// occurrence, so multi-line update expressions still match).
fn handle_is_updated(
    model: &SemanticModel<'_>,
    file_idx: usize,
    binding: &str,
    registration_line: u32,
) -> bool {
    let crate_name = &model.files[file_idx].wf.crate_name;
    for facts in &model.files {
        if &facts.wf.crate_name != crate_name || facts.wf.class != FileClass::Library {
            continue;
        }
        let file = &facts.wf.file;
        let code = &facts.code;
        for k in 0..code.len() {
            if code[k].kind != TokenKind::Ident
                || code[k].text(&file.text) != binding
                || file.in_test_code(code[k].start)
            {
                continue;
            }
            if std::ptr::eq(&facts.wf.file, &model.files[file_idx].wf.file)
                && code[k].line == registration_line
            {
                continue; // the registration itself doesn't count as a read
            }
            let lo = k.saturating_sub(40);
            let hi = (k + 40).min(code.len());
            for j in lo..hi {
                if code[j].kind == TokenKind::Ident
                    && UPDATE_METHODS.contains(&code[j].text(&file.text))
                    && j > 0
                    && matches!(code[j - 1].kind, TokenKind::Punct(b'.'))
                    && matches!(code.get(j + 1).map(|t| t.kind), Some(TokenKind::Punct(b'(')))
                {
                    return true;
                }
            }
        }
    }
    false
}

/// (c) Every type implementing both `Observer` and `Merge` must be
/// buildable: some `ObserverFactory` impl has to name it. A Merge-only
/// type (a summary) or an Observer-only type (a sink without parallel
/// merge) is exempt — only the combination claims "I am fleet telemetry".
fn check_unreachable_observers(model: &SemanticModel<'_>, diags: &mut Vec<Diagnostic>) {
    let observers = model.trait_impls("Observer");
    let merges = model.trait_impls("Merge");
    if observers.is_empty() || merges.is_empty() {
        return;
    }
    let buildable = model.idents_in_trait_impls("ObserverFactory");
    for (ty, (file_idx, line)) in &merges {
        if !observers.contains_key(ty) || buildable.contains(ty) {
            continue;
        }
        diags.push(diag(
            "dead-telemetry",
            model.files[*file_idx].wf.file.path.clone(),
            *line,
            1,
            format!(
                "`{ty}` implements Observer and Merge but no ObserverFactory builds it; fleet \
                 runs can never collect its telemetry — add a factory or drop the Merge impl"
            ),
            Vec::new(),
        ));
    }
}
