//! The interprocedural passes over the workspace call graph:
//! `taint-nondet`, `panic-path` and `hot-inline`. See `docs/LINTS.md`
//! § "Semantic passes" for the contracts.
//!
//! Each reports [`Diagnostic`]s carrying an evidence
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

/// Runs every semantic pass.
pub fn check(
    model: &SemanticModel<'_>,
    graph: &CallGraph,
    allows: &mut Allows,
    diags: &mut Vec<Diagnostic>,
) {
    check_taint(model, graph, allows, diags);
    check_panic_paths(model, graph, diags);
    check_hot_inline(model, graph, diags);
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

/// A `panic-path` root by name. A trait-impl method matches in every
/// type that implements `trait_name`; an inherent method (`owner` set)
/// or a free function (neither set) must match exactly.
#[derive(Debug, Clone, Copy)]
pub struct RootName {
    /// The inherent `impl` type, for a method.
    pub owner: Option<&'static str>,
    /// The implemented trait, for a trait-impl method.
    pub trait_name: Option<&'static str>,
    /// The function's name.
    pub name: &'static str,
}

impl RootName {
    const fn inherent(owner: &'static str, name: &'static str) -> Self {
        RootName { owner: Some(owner), trait_name: None, name }
    }

    const fn trait_impl(trait_name: &'static str, name: &'static str) -> Self {
        RootName { owner: None, trait_name: Some(trait_name), name }
    }

    const fn free(name: &'static str) -> Self {
        RootName { owner: None, trait_name: None, name }
    }

    /// Whether the declaration `id` is this root.
    pub fn names(&self, model: &SemanticModel<'_>, id: FnId) -> bool {
        let decl = model.decl(id);
        decl.name == self.name
            && decl.trait_name.as_deref() == self.trait_name
            && (self.trait_name.is_some() || decl.owner.as_deref() == self.owner)
    }
}

/// The hot-path roots: the platform's event loop and every trace
/// observer, which run once per simulated event.
pub const HOT_PATH_ROOTS: [RootName; 3] = [
    RootName::inherent("Platform", "run"),
    RootName::inherent("Platform", "handle_event"),
    RootName::trait_impl("Observer", "on_event"),
];

/// The hostile-input decoders: they read bytes or text from outside the
/// process, so a malformed input must come back as an error, never as a
/// panic.
pub const DECODER_ROOTS: [RootName; 6] = [
    RootName::inherent("TraceStore", "from_bytes"),
    RootName::free("parse_query"),
    RootName::free("from_turtle"),
    RootName::free("parse_fastq"),
    RootName::free("parse_sbam"),
    RootName::free("parse_vcf"),
];

/// `panic-path`: `panic!`/`todo!`/`unimplemented!` and bare `unwrap()`
/// sites in library code that are reachable, along call edges, from a
/// root: the platform's event loop and the trace observers of
/// [`HOT_PATH_ROOTS`], and the hostile-input decoders of
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
        if HOT_PATH_ROOTS.iter().chain(&DECODER_ROOTS).any(|root| root.names(model, id)) {
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

/// Whether `id` is one of the [`DECODER_ROOTS`].
fn is_decoder_root(model: &SemanticModel<'_>, id: FnId) -> bool {
    DECODER_ROOTS.iter().any(|root| root.names(model, id))
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

/// The roots of the `hot-inline` walk: the platform's event loop. The
/// observers of [`HOT_PATH_ROOTS`] are left out, since a session with no
/// sink attached never calls them.
const INLINE_ROOTS: [RootName; 2] = [HOT_PATH_ROOTS[0], HOT_PATH_ROOTS[1]];

/// The largest body, in code tokens, that `hot-inline` asks to be
/// `#[inline]`: above the largest function the event loop calls in
/// another crate on its hot arms (`CloudProvider::hire_on`, 358 tokens),
/// with some room for it to grow. A cold callee under the bound whose
/// body outweighs the call (`CloudProvider::reshape`, 363 tokens, once
/// per reshape) carries a reasoned allow instead.
const HOT_INLINE_MAX_TOKENS: usize = 400;

/// `hot-inline`: a non-generic function of another workspace crate that
/// the event loop reaches, with a body under [`HOT_INLINE_MAX_TOKENS`]
/// and no `#[inline]`. The bins and the benchmark build without LTO, so
/// such a call stays an out-of-line call into the other crate's object
/// code.
///
/// An `#[inline]` or generic function's body is compiled into the crate
/// that calls it, so the walk charges its own calls to that crate: a
/// private helper an inlined function calls must be `#[inline]` too.
/// Each function is reported once, at its declaration, with the
/// shortest call chain from a root.
fn check_hot_inline(model: &SemanticModel<'_>, graph: &CallGraph, diags: &mut Vec<Diagnostic>) {
    // A walk state is a function and the crate its body is compiled into.
    type State<'m> = (FnId, &'m str);
    let mut parent: BTreeMap<State<'_>, State<'_>> = BTreeMap::new();
    let mut queue: VecDeque<State<'_>> = VecDeque::new();
    let mut roots = Vec::new();
    for id in 0..model.fns.len() {
        if !model.decl(id).is_test && INLINE_ROOTS.iter().any(|root| root.names(model, id)) {
            let state = (id, model.fns[id].crate_name.as_str());
            parent.insert(state, state);
            queue.push_back(state);
            roots.push(id);
        }
    }

    let mut reported: BTreeMap<FnId, State<'_>> = BTreeMap::new();
    while let Some((f, host)) = queue.pop_front() {
        for edge in &graph.callees[f] {
            let callee = edge.other;
            let decl = model.decl(callee);
            if decl.is_test || roots.contains(&callee) {
                continue;
            }
            let own = model.fns[callee].crate_name.as_str();
            if own != host && wants_inline(model, callee) {
                reported.entry(callee).or_insert((f, host));
            }
            let compiled_in = if decl.inline || decl.generic { host } else { own };
            if let std::collections::btree_map::Entry::Vacant(slot) =
                parent.entry((callee, compiled_in))
            {
                slot.insert((f, host));
                queue.push_back((callee, compiled_in));
            }
        }
    }

    for (id, (caller, host)) in reported {
        // Root-first chain of function labels, ending at `id`.
        let mut chain = vec![ChainHop {
            label: model.label(id),
            path: model.file_of(id).path.clone(),
            line: model.decl(id).line,
        }];
        let mut cur = (caller, host);
        loop {
            chain.push(ChainHop {
                label: model.label(cur.0),
                path: model.file_of(cur.0).path.clone(),
                line: model.decl(cur.0).line,
            });
            let up = parent[&cur];
            if up == cur {
                break;
            }
            cur = up;
        }
        chain.reverse();
        diags.push(diag(
            "hot-inline",
            model.file_of(id).path.clone(),
            model.decl(id).line,
            1,
            format!(
                "`{}` ({}) is called from `{}`, compiled into {}, on the per-event path and is \
                 not `#[inline]`; chain: {}",
                model.label(id),
                model.fns[id].crate_name,
                model.label(caller),
                host,
                chain_text(&chain),
            ),
            chain,
        ));
    }
}

/// Whether `id` is a small, non-generic library function without an
/// `#[inline]` attribute.
fn wants_inline(model: &SemanticModel<'_>, id: FnId) -> bool {
    let decl = model.decl(id);
    model.fns[id].class == FileClass::Library
        && !decl.generic
        && !decl.inline
        && decl.body.is_some_and(|(start, end)| end - start < HOT_INLINE_MAX_TOKENS)
}
