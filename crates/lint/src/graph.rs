//! The name-resolution-approximate call graph.
//!
//! Edges are found by scanning each function body for call expressions
//! and resolving them against the [`SemanticModel`]'s symbol table:
//!
//! - **Method calls** (`recv.m(…)`) resolve only through a *typed
//!   receiver* — `self`, `self.field`, a typed parameter or local, a
//!   constructor-inferred local, or the return type of the previous call
//!   in a chain. An `Option<T>`/`Result<T, _>` return unwrapped by
//!   `.expect(…)`, `.unwrap()` or `?` types as `T`, in a chain and in a
//!   `let` binding alike. A receiver the model cannot type produces *no*
//!   edge: a false edge would fabricate taint chains (e.g. every `.insert(…)`
//!   in the workspace linking to one crate's `insert`), so the graph
//!   under-approximates by construction.
//! - **Path calls** (`Type::m(…)`, `Self::m(…)`, `scan_kb::f(…)`)
//!   resolve via the impl-method or free-function index, filtered by the
//!   caller crate's import-derived dependency closure.
//! - **Free calls** (`f(…)`) resolve same-file first, then same-crate,
//!   then through the file's imports, then — only if unambiguous — to a
//!   unique candidate in the dependency closure.

use crate::lex::{Token, TokenKind};
use crate::model::{FnId, SemanticModel};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// One call edge, anchored at its call-site line in the caller's file.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// The other endpoint (callee in [`CallGraph::callees`], caller in
    /// [`CallGraph::callers`]).
    pub other: FnId,
    /// 1-based line of the call site in the *caller's* file.
    pub line: u32,
}

/// Adjacency in both directions, indexed by [`FnId`].
pub struct CallGraph {
    /// Outgoing edges per function.
    pub callees: Vec<Vec<Edge>>,
    /// Incoming edges per function (`other` is the caller).
    pub callers: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Total directed edge count.
    pub fn edge_count(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }
}

/// Words that look like `ident (` call heads but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "in", "as", "move", "fn", "let", "else",
    "break", "continue", "where", "unsafe", "async", "await", "yield", "ref", "mut", "pub", "use",
    "impl", "struct", "enum", "trait", "type", "mod", "const", "static", "crate", "super", "dyn",
    "extern", "box",
];

/// Builds the call graph for a model.
pub fn build(model: &SemanticModel<'_>) -> CallGraph {
    let mut callees: Vec<Vec<Edge>> = vec![Vec::new(); model.fns.len()];
    for (caller, edges) in callees.iter_mut().enumerate() {
        let mut resolver = Resolver::new(model, caller);
        resolver.scan(edges);
    }
    // Dedup (caller, callee) pairs, keeping the first (lowest-line) site.
    let mut callers: Vec<Vec<Edge>> = vec![Vec::new(); model.fns.len()];
    for (caller, edges) in callees.iter_mut().enumerate() {
        edges.sort_by_key(|e| (e.other, e.line));
        edges.dedup_by_key(|e| e.other);
        for e in edges.iter() {
            callers[e.other].push(Edge { other: caller, line: e.line });
        }
    }
    CallGraph { callees, callers }
}

/// Per-function call-site scanner and resolver.
struct Resolver<'m, 'w> {
    model: &'m SemanticModel<'w>,
    caller: FnId,
    file: &'w SourceFile,
    code: &'m [&'w Token],
    body: (usize, usize),
    owner: Option<String>,
    /// Variable name → significant type name (params + inferred lets).
    locals: BTreeMap<String, String>,
    /// Closing-`)` token index → return type of the call ending there
    /// (drives typing of `a.b().c()` chains).
    ret_at: BTreeMap<usize, String>,
    /// `let` bindings typed once the scan reaches their statement's `;`
    /// (token index, name): an unwrapped call's type is only known after
    /// the call is scanned. Innermost last.
    pending_lets: Vec<(usize, String)>,
}

impl<'m, 'w> Resolver<'m, 'w> {
    fn new(model: &'m SemanticModel<'w>, caller: FnId) -> Self {
        let info = &model.fns[caller];
        let facts = &model.files[info.file];
        let decl = &facts.items.fns[info.item];
        let mut locals = BTreeMap::new();
        for (name, ty) in &decl.params {
            if let Some(ty) = ty {
                locals.insert(name.clone(), ty.clone());
            }
        }
        Resolver {
            model,
            caller,
            file: &facts.wf.file,
            code: &facts.code,
            body: decl.body.unwrap_or((0, 0)),
            owner: decl.owner.clone(),
            locals,
            ret_at: BTreeMap::new(),
            pending_lets: Vec::new(),
        }
    }

    fn text(&self, k: usize) -> &'w str {
        self.code[k].text(&self.file.text)
    }

    fn kind(&self, k: usize) -> Option<TokenKind> {
        self.code.get(k).map(|t| t.kind)
    }

    fn is_punct(&self, k: usize, c: u8) -> bool {
        self.kind(k) == Some(TokenKind::Punct(c))
    }

    /// One left-to-right pass over the body: infer `let` types as they
    /// appear, resolve calls, and record chain return types.
    fn scan(&mut self, out: &mut Vec<Edge>) {
        let (start, end) = self.body;
        let end = end.min(self.code.len());
        let mut k = start;
        while k < end {
            while self.pending_lets.last().is_some_and(|(semi, _)| *semi <= k) {
                let (semi, name) = self.pending_lets.pop().expect("checked non-empty");
                if let Some(ty) = self.place_type(semi - 1) {
                    self.locals.insert(name, ty);
                }
            }
            if self.kind(k) != Some(TokenKind::Ident) {
                k += 1;
                continue;
            }
            let word = self.text(k);
            if word == "let" {
                self.infer_let(k + 1);
                k += 1;
                continue;
            }
            // `ident ! (` is a macro invocation, never a call edge.
            if self.is_punct(k + 1, b'!') {
                k += 2;
                continue;
            }
            if !self.is_punct(k + 1, b'(') || NON_CALL_KEYWORDS.contains(&word) {
                k += 1;
                continue;
            }
            let prev_kind = if k > start { self.kind(k - 1) } else { None };
            let targets = if prev_kind == Some(TokenKind::Punct(b'.')) {
                self.resolve_method(k, word)
            } else if prev_kind == Some(TokenKind::Punct(b':'))
                && k >= 2
                && self.is_punct(k - 2, b':')
            {
                self.resolve_path_call(k, word)
            } else if prev_kind == Some(TokenKind::Ident) && self.text(k - 1) == "fn" {
                Vec::new() // a nested fn's own declaration
            } else {
                self.resolve_free(word)
            };
            // Record the chain type at this call's closing paren: the
            // callee's return type, or the value an `.expect(…)` or
            // `.unwrap()` takes out of a typed `Option`/`Result`.
            let ret = match targets.first() {
                Some(&id) => self.return_type(id),
                None if matches!(word, "expect" | "unwrap")
                    && prev_kind == Some(TokenKind::Punct(b'.')) =>
                {
                    self.receiver_type(k).as_deref().and_then(unwrapped)
                }
                None => None,
            };
            if let Some(ret) = ret {
                let close = self.matching_paren(k + 1);
                self.ret_at.insert(close, ret);
            }
            let line = self.code[k].line;
            for id in targets {
                if id != self.caller {
                    out.push(Edge { other: id, line });
                }
            }
            k += 1;
        }
    }

    /// A callee's return type with `Self` resolved to its impl type.
    fn return_type(&self, id: FnId) -> Option<String> {
        let decl = self.model.decl(id);
        let ret = decl.ret.as_deref()?;
        match ret {
            "Self" => decl.owner.clone(),
            "Self?" => decl.owner.as_ref().map(|o| format!("{o}?")),
            _ => Some(ret.to_string()),
        }
    }

    /// Token index of the `)` matching the `(` at `open`.
    fn matching_paren(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut k = open;
        while k < self.code.len() {
            match self.code[k].kind {
                TokenKind::Punct(b'(') => depth += 1,
                TokenKind::Punct(b')') => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        self.code.len()
    }

    /// `let name: Type = …` / `let name = Type::new(…)` / `let name =
    /// Type { …` — records the binding's type when statable; `let name =
    /// ….expect(…);`, `….unwrap();` and `…?;` are typed when the scan
    /// reaches the `;`.
    fn infer_let(&mut self, mut k: usize) {
        if self.kind(k) == Some(TokenKind::Ident) && self.text(k) == "mut" {
            k += 1;
        }
        if self.kind(k) != Some(TokenKind::Ident) {
            return;
        }
        let name = self.text(k).to_string();
        // `let x: Type`
        if self.is_punct(k + 1, b':') && !self.is_punct(k + 2, b':') {
            if let Some(ty) = self.type_head(k + 2) {
                self.locals.insert(name, ty);
            }
            return;
        }
        if !self.is_punct(k + 1, b'=') {
            return;
        }
        let mut v = k + 2;
        // `let x = &mut base.field[index];` — a borrowed/moved place
        // expression; walk it forward and type it with `place_type`.
        while self.is_punct(v, b'&')
            || (self.kind(v) == Some(TokenKind::Ident) && self.text(v) == "mut")
        {
            v += 1;
        }
        if self.kind(v) != Some(TokenKind::Ident) {
            return;
        }
        if let Some(semi) = self.unwrapping_statement_end(v) {
            self.pending_lets.push((semi, name));
            return;
        }
        if let Some(ty) = self.place_expr_type(v) {
            self.locals.insert(name, ty);
            return;
        }
        let head = self.text(v).to_string();
        // `let x = Type { …` — a struct literal.
        if self.is_punct(v + 1, b'{') && self.model.type_crates.contains_key(&head) {
            self.locals.insert(name, head);
            return;
        }
        // `let x = Type::ctor(…)` — the constructor's return type, or the
        // type itself for the conventional `new`/`default`.
        if self.is_punct(v + 1, b':')
            && self.is_punct(v + 2, b':')
            && self.kind(v + 3) == Some(TokenKind::Ident)
            && self.is_punct(v + 4, b'(')
        {
            let method = self.text(v + 3);
            let key = (head.clone(), method.to_string());
            if let Some(ids) = self.model.methods.get(&key) {
                if let Some(ret) = ids.first().and_then(|&id| self.return_type(id)) {
                    self.locals.insert(name, ret);
                    return;
                }
            }
            if matches!(method, "new" | "default" | "with_capacity") {
                self.locals.insert(name, head);
            }
        }
    }

    /// Significant type name at `k` (same reduction as the item parser:
    /// skip `&`/`mut`/`dyn`/`impl`/lifetimes, last path segment, with
    /// containers kept as `[Element]` and smart pointers dereferenced).
    fn type_head(&self, mut k: usize) -> Option<String> {
        loop {
            match self.kind(k)? {
                TokenKind::Punct(b'&') | TokenKind::Punct(b'*') | TokenKind::Lifetime => k += 1,
                TokenKind::Ident if matches!(self.text(k), "mut" | "dyn" | "impl" | "const") => {
                    k += 1
                }
                TokenKind::Ident => break,
                TokenKind::Punct(b'[') => {
                    return self.type_head(k + 1).map(|i| format!("[{i}]"));
                }
                _ => return None,
            }
        }
        let mut last = self.text(k).to_string();
        while self.is_punct(k + 1, b':')
            && self.is_punct(k + 2, b':')
            && self.kind(k + 3) == Some(TokenKind::Ident)
        {
            last = self.text(k + 3).to_string();
            k += 3;
        }
        if self.is_punct(k + 1, b'<') {
            match last.as_str() {
                "Vec" | "VecDeque" => {
                    return self.type_head(k + 2).map(|i| format!("[{i}]"));
                }
                "Box" | "Rc" | "Arc" => return self.type_head(k + 2),
                _ => {}
            }
        }
        Some(last)
    }

    /// Candidates for a `.m(…)` call at `k` (the method ident).
    fn resolve_method(&self, k: usize, method: &str) -> Vec<FnId> {
        let recv_ty = self.receiver_type(k);
        let Some(ty) = recv_ty else { return Vec::new() };
        self.method_candidates(&ty, method)
    }

    /// Types the receiver expression ending just before the `.` at
    /// `k - 1`. Returns `None` when the model cannot justify a type.
    fn receiver_type(&self, k: usize) -> Option<String> {
        if k < 2 {
            return None;
        }
        self.place_type(k - 2) // token just before the dot
    }

    /// Types the *place expression* ending at token `r`: a typed local or
    /// `self`, one field hop through a typed base, the return type of a
    /// chained call (via [`Self::ret_at`]), or any of those under an
    /// index (`cols[i]` yields the element of a `[T]`-typed container).
    fn place_type(&self, r: usize) -> Option<String> {
        match self.kind(r)? {
            // `….prev()` — the chain map knows the type at the `)`.
            TokenKind::Punct(b')') => self.ret_at.get(&r).cloned(),
            // `…?` — the value of a typed `Option`/`Result`.
            TokenKind::Punct(b'?') => unwrapped(&self.place_type(r.checked_sub(1)?)?),
            // `…[i]` — indexing a container yields its element type.
            TokenKind::Punct(b']') => {
                let open = self.matching_open(r, b'[', b']')?;
                if open == 0 {
                    return None;
                }
                elem_of(&self.place_type(open - 1)?)
            }
            TokenKind::Ident => {
                let name = self.text(r);
                // `base.field` — one field hop through a typed base.
                if r >= 2 && self.is_punct(r - 1, b'.') {
                    let base_ty = self.place_type(r - 2)?;
                    return self.model.field_types.get(&(base_ty, name.to_string())).cloned();
                }
                if name == "self" {
                    return self.owner.clone();
                }
                self.locals.get(name).cloned()
            }
            _ => None,
        }
    }

    /// Types a whole-statement place expression starting at the ident at
    /// `v` (`base`, `base.field`, `base[i]`, and combinations). Only
    /// succeeds when the expression runs cleanly to the statement's `;` —
    /// a trailing operator or method call means the binding's value is
    /// something else entirely.
    fn place_expr_type(&self, v: usize) -> Option<String> {
        let mut j = v; // on the head ident
        loop {
            if self.is_punct(j + 1, b'.')
                && self.kind(j + 2) == Some(TokenKind::Ident)
                && !self.is_punct(j + 3, b'(')
            {
                j += 2;
                continue;
            }
            if self.is_punct(j + 1, b'[') {
                j = self.matching_close(j + 1, b'[', b']')?;
                continue;
            }
            break;
        }
        if !self.is_punct(j + 1, b';') {
            return None;
        }
        self.place_type(j)
    }

    /// The `;` ending the statement whose value starts at `v`, when that
    /// value ends in `.expect(…)`, `.unwrap()` or `?`.
    fn unwrapping_statement_end(&self, v: usize) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = v;
        let semi = loop {
            match self.kind(j)? {
                TokenKind::Punct(b'(' | b'[' | b'{') => depth += 1,
                TokenKind::Punct(b')' | b']' | b'}') => {
                    depth -= 1;
                    if depth < 0 {
                        return None;
                    }
                }
                TokenKind::Punct(b';') if depth == 0 => break j,
                _ => {}
            }
            j += 1;
        };
        if self.is_punct(semi - 1, b'?') {
            return Some(semi);
        }
        let open = self.matching_open(semi - 1, b'(', b')')?;
        let method = open.checked_sub(1)?;
        let unwraps = self.kind(method) == Some(TokenKind::Ident)
            && matches!(self.text(method), "expect" | "unwrap")
            && self.is_punct(method - 1, b'.');
        unwraps.then_some(semi)
    }

    /// Token index of the `close` bracket matching the `open` at `k`,
    /// scanning forwards.
    fn matching_close(&self, k: usize, open: u8, close: u8) -> Option<usize> {
        let mut depth = 0i32;
        let mut j = k;
        loop {
            match self.kind(j)? {
                TokenKind::Punct(c) if c == open => depth += 1,
                TokenKind::Punct(c) if c == close => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }

    /// Token index of the `open` bracket matching the `close` at `r`,
    /// scanning backwards.
    fn matching_open(&self, r: usize, open: u8, close: u8) -> Option<usize> {
        let mut depth = 0i32;
        let mut k = r;
        loop {
            match self.kind(k)? {
                TokenKind::Punct(c) if c == close => depth += 1,
                TokenKind::Punct(c) if c == open => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
            k = k.checked_sub(1)?;
        }
    }

    /// Method candidates on a type, filtered to the caller's crate
    /// dependency closure.
    fn method_candidates(&self, ty: &str, method: &str) -> Vec<FnId> {
        let caller_crate = &self.model.fns[self.caller].crate_name;
        self.model
            .methods
            .get(&(ty.to_string(), method.to_string()))
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| {
                        self.model.depends_on(caller_crate, &self.model.fns[id].crate_name)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Candidates for a `Q::m(…)` call at `k` (the method ident).
    fn resolve_path_call(&self, k: usize, method: &str) -> Vec<FnId> {
        if k < 3 || self.kind(k - 3) != Some(TokenKind::Ident) {
            return Vec::new();
        }
        let qualifier = self.text(k - 3);
        if qualifier == "Self" {
            let Some(owner) = &self.owner else { return Vec::new() };
            return self.method_candidates(owner, method);
        }
        // `scan_kb::f(…)` / `crate::f(…)` — a crate-qualified free call.
        let own_crate = &self.model.fns[self.caller].crate_name;
        if let Some(dep_crate) = crate_root(qualifier, own_crate) {
            if self.model.depends_on(own_crate, &dep_crate) {
                if let Some(ids) = self.model.free_fns.get(&(dep_crate.clone(), method.to_string()))
                {
                    return ids.clone();
                }
            }
        }
        // `module::f(…)` within the same crate.
        let as_free = self.model.free_fns.get(&(own_crate.clone(), method.to_string()));
        let type_candidates = self.method_candidates(qualifier, method);
        if !type_candidates.is_empty() {
            return type_candidates;
        }
        // An imported type's associated fn, or a same-crate module path.
        if let Some(src_crate) =
            self.model.files[self.model.fns[self.caller].file].imports.get(qualifier)
        {
            if let Some(ids) = self.model.free_fns.get(&(src_crate.clone(), method.to_string())) {
                return ids.clone();
            }
        }
        as_free.cloned().unwrap_or_default()
    }

    /// Candidates for a bare `f(…)` call.
    fn resolve_free(&self, name: &str) -> Vec<FnId> {
        let info = &self.model.fns[self.caller];
        let facts = &self.model.files[info.file];
        // Same file first (module-local helpers).
        let same_file: Vec<FnId> = (0..self.model.fns.len())
            .filter(|&id| {
                self.model.fns[id].file == info.file && {
                    let d = self.model.decl(id);
                    d.owner.is_none() && d.name == name
                }
            })
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        // Same crate.
        if let Some(ids) = self.model.free_fns.get(&(info.crate_name.clone(), name.to_string())) {
            if !ids.is_empty() {
                return ids.clone();
            }
        }
        // Imported by name.
        if let Some(src_crate) = facts.imports.get(name) {
            if let Some(ids) = self.model.free_fns.get(&(src_crate.clone(), name.to_string())) {
                return ids.clone();
            }
        }
        // Unique in the dependency closure.
        let mut found: Vec<FnId> = Vec::new();
        for ((crate_name, fn_name), ids) in &self.model.free_fns {
            if fn_name == name && self.model.depends_on(&info.crate_name, crate_name) {
                found.extend(ids);
            }
        }
        if found.len() == 1 {
            found
        } else {
            Vec::new()
        }
    }
}

/// The value type `T` of a `T?`-shaped (`Option`/`Result`) type, if any.
fn unwrapped(ty: &str) -> Option<String> {
    ty.strip_suffix('?').map(str::to_string)
}

/// The element type of a `[T]`-shaped container type, if any.
fn elem_of(ty: &str) -> Option<String> {
    ty.strip_prefix('[').and_then(|t| t.strip_suffix(']')).map(str::to_string)
}

/// The workspace crate a path qualifier refers to, if any (mirrors the
/// model's import-root convention).
fn crate_root(qualifier: &str, own_crate: &str) -> Option<String> {
    match qualifier {
        "crate" | "self" => Some(own_crate.to_string()),
        q if q.starts_with("scan") && q.contains('_') => Some(q.replace('_', "-")),
        _ => None,
    }
}
