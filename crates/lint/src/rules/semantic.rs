//! The interprocedural passes over the workspace call graph:
//! `taint-nondet` and `panic-path`. See `docs/LINTS.md` § "Semantic
//! passes" for the contracts.
//!
//! Both report [`Diagnostic`]s carrying an evidence
//! [`ChainHop`] chain; suppression of the *reported* site goes through
//! the workspace-global allow application, while taint additionally
//! consults [`Allows`] mid-analysis — an allow on a hazard line kills
//! that seed, and an allow on a function's declaration line is a sink
//! annotation that absorbs any taint flowing into or out of it.

use crate::diag::{Allows, ChainHop, Diagnostic};
use crate::graph::CallGraph;
use crate::model::{FnId, SemanticModel};
use crate::rules::severity_of;
use crate::source::FileClass;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

/// Runs both semantic passes.
pub fn check(
    model: &SemanticModel<'_>,
    graph: &CallGraph,
    allows: &mut Allows,
    diags: &mut Vec<Diagnostic>,
) {
    check_taint(model, graph, allows, diags);
    check_panic_paths(model, graph, diags);
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

/// The hostile-input decoders: they read bytes or text from outside the
/// process, so a malformed input must come back as an error, never as a
/// panic. `(impl owner, name)`; `None` is a free function.
const DECODER_ROOTS: [(Option<&str>, &str); 6] = [
    (Some("TraceStore"), "from_bytes"),
    (None, "parse_query"),
    (None, "from_turtle"),
    (None, "parse_fastq"),
    (None, "parse_sbam"),
    (None, "parse_vcf"),
];

/// `panic-path`: `panic!`/`todo!`/`unimplemented!` and bare `unwrap()`
/// sites in library code that are reachable, along call edges, from a
/// root. The roots are the platform's event loop
/// (`Platform::run`/`handle_event`, any `EventHandler::handle` impl), any
/// `Observer::on_event` impl, and the hostile-input decoders of
/// [`DECODER_ROOTS`].
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
            || (decl.trait_name.as_deref() == Some("Observer") && decl.name == "on_event")
            || is_decoder_root(model, id);
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
                    "{} is reachable from {} root `{}`; chain: {}",
                    site.what,
                    if is_decoder_root(model, root) { "decoder" } else { "hot-path" },
                    model.label(root),
                    chain_text(&chain),
                ),
                chain,
            ));
        }
    }
}

/// Whether `id` is one of the [`DECODER_ROOTS`] (an inherent method or a
/// free function, never a trait impl).
fn is_decoder_root(model: &SemanticModel<'_>, id: FnId) -> bool {
    let decl = model.decl(id);
    decl.trait_name.is_none()
        && DECODER_ROOTS.contains(&(decl.owner.as_deref(), decl.name.as_str()))
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
