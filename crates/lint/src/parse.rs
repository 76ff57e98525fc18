//! The item parser: the structural layer between the raw token stream
//! and the workspace semantic model.
//!
//! One pass over a file's tokens recovers just enough of Rust's item
//! grammar for interprocedural analysis — function declarations with
//! their owner (`impl` type), implemented trait, parameter and return
//! types, body extent and call sites; struct field types (for typing
//! method-call receivers); `use` imports; and the inline-`mod` nesting
//! that determines each item's module path. It is *name-resolution
//! approximate* by design: types are reduced to their significant last
//! path segment (`Vec<Option<Vm>>` → `Vec`), generics and trait objects
//! resolve to nothing, and that is fine — the call graph built on top
//! ([`crate::graph`]) only follows edges it can justify, and an
//! unresolvable call is simply absent (under-approximation, never a
//! false edge).

use crate::lex::{Token, TokenKind};
use crate::source::SourceFile;

/// One parsed function item.
#[derive(Debug)]
pub struct FnDecl {
    /// The function's name.
    pub name: String,
    /// Inline-module path from the crate/file root (`["sparql", "eval"]`).
    pub module: Vec<String>,
    /// The `impl` type's significant name, for methods (`None` for free
    /// functions).
    pub owner: Option<String>,
    /// The implemented trait's name, when the enclosing block is a trait
    /// impl (`impl Observer for X`).
    pub trait_name: Option<String>,
    /// Significant last segment of each parameter's type, paired with
    /// the parameter name (`self` excluded).
    pub params: Vec<(String, Option<String>)>,
    /// Significant last segment of the return type, if any.
    pub ret: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Code-token index range of the body (exclusive of the braces);
    /// `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Whether the declaration sits inside test-only code.
    pub is_test: bool,
    /// Whether the function is generic: it has type or const
    /// parameters, takes an `impl Trait` argument, sits in a generic
    /// `impl` or is a trait's default method. A generic function is
    /// instantiated in the crate that calls it, so it inlines across
    /// crates without an attribute.
    pub generic: bool,
    /// Whether an `#[inline]`, `#[inline(always)]` or `#[inline(never)]`
    /// attribute precedes the declaration.
    pub inline: bool,
}

/// One parsed struct declaration (field types feed receiver typing).
#[derive(Debug)]
pub struct StructDecl {
    /// The struct's name.
    pub name: String,
    /// Field name → significant last segment of its declared type.
    pub fields: Vec<(String, Option<String>)>,
}

/// One imported name from a `use` declaration: the name bound in this
/// file → the first path segment it came from (crate or module).
#[derive(Debug)]
pub struct UseImport {
    /// The bound name (last segment, or the `as` alias).
    pub name: String,
    /// The path's first segment (`scan_kb`, `std`, `crate`, …).
    pub root: String,
}

/// Everything the item parser recovers from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// All function declarations, in source order.
    pub fns: Vec<FnDecl>,
    /// All struct declarations.
    pub structs: Vec<StructDecl>,
    /// All imported names.
    pub uses: Vec<UseImport>,
}

/// Parses one file's items. `code` must be the file's non-comment tokens
/// (as produced by [`SourceFile::code_tokens`]); all token-index fields
/// of the result index into that slice.
pub fn parse_items(file: &SourceFile, code: &[&Token]) -> FileItems {
    Parser { file, code, items: FileItems::default() }.run()
}

struct Parser<'a> {
    file: &'a SourceFile,
    code: &'a [&'a Token],
    items: FileItems,
}

/// One frame of the scope stack the parser walks with.
enum Scope {
    /// An inline `mod name { … }`.
    Module(String),
    /// An `impl [Trait for] Type { … }` (or a `trait` block, which is
    /// generic over its implementors).
    Impl { type_name: String, trait_name: Option<String>, generic: bool },
    /// Any other brace (fn body, match, struct literal, …).
    Opaque,
}

impl<'a> Parser<'a> {
    fn text(&self, idx: usize) -> &'a str {
        self.code[idx].text(&self.file.text)
    }

    fn is_ident(&self, idx: usize, word: &str) -> bool {
        self.code.get(idx).is_some_and(|t| t.kind == TokenKind::Ident) && self.text(idx) == word
    }

    fn run(mut self) -> FileItems {
        let mut stack: Vec<Scope> = Vec::new();
        let mut k = 0;
        while k < self.code.len() {
            match self.code[k].kind {
                TokenKind::Punct(b'{') => {
                    stack.push(Scope::Opaque);
                    k += 1;
                }
                TokenKind::Punct(b'}') => {
                    stack.pop();
                    k += 1;
                }
                TokenKind::Ident => {
                    let word = self.text(k);
                    match word {
                        "fn" => k = self.parse_fn(k, &stack),
                        "mod" => k = self.parse_mod(k, &mut stack),
                        "impl" => k = self.parse_impl(k, &mut stack),
                        "trait" => k = self.parse_trait(k, &mut stack),
                        "struct" => k = self.parse_struct(k),
                        "use" => k = self.parse_use(k),
                        _ => k += 1,
                    }
                }
                _ => k += 1,
            }
        }
        self.items
    }

    /// The module path and innermost impl context (type, trait, whether
    /// the impl is generic) of a scope stack.
    fn context(&self, stack: &[Scope]) -> (Vec<String>, Option<String>, Option<String>, bool) {
        let mut module = Vec::new();
        let mut owner = None;
        let mut trait_name = None;
        let mut impl_generic = false;
        for scope in stack {
            match scope {
                Scope::Module(name) => module.push(name.clone()),
                Scope::Impl { type_name, trait_name: tn, generic } => {
                    owner = Some(type_name.clone());
                    trait_name = tn.clone();
                    impl_generic = *generic;
                }
                Scope::Opaque => {}
            }
        }
        (module, owner, trait_name, impl_generic)
    }

    /// `fn name <generics>? ( params ) (-> Ret)? ({ body } | ;)`.
    /// Returns the index to resume at (just *inside* the body, so nested
    /// items in closures are still seen — the body range is recorded for
    /// the model, not skipped).
    fn parse_fn(&mut self, fn_idx: usize, stack: &[Scope]) -> usize {
        let Some(name_tok) = self.code.get(fn_idx + 1) else { return fn_idx + 1 };
        if name_tok.kind != TokenKind::Ident {
            return fn_idx + 1;
        }
        let name = self.text(fn_idx + 1).to_string();
        let line = self.code[fn_idx].line;
        let mut k = fn_idx + 2;
        let mut generic = false;
        // Skip `<generics>` to the parameter list.
        if matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'<'))) {
            let close = self.skip_angles(k);
            generic = self.has_type_params(k, close);
            k = close;
        }
        if !matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'('))) {
            return fn_idx + 1;
        }
        let params_end = self.matching(k, b'(', b')');
        let params = self.parse_params(k + 1, params_end);
        generic |= (k + 1..params_end).any(|j| self.is_ident(j, "impl"));
        k = params_end + 1;
        // Return type: `-> Type` up to `{`, `;` or a `where` clause.
        let mut ret = None;
        if matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'-')))
            && matches!(self.code.get(k + 1).map(|t| t.kind), Some(TokenKind::Punct(b'>')))
        {
            let (ty, after) = self.parse_type(k + 2);
            ret = ty;
            k = after;
        }
        // Skip a `where` clause to the body brace or terminating `;`.
        while k < self.code.len()
            && !matches!(self.code[k].kind, TokenKind::Punct(b'{') | TokenKind::Punct(b';'))
        {
            k += 1;
        }
        let (module, owner, trait_name, impl_generic) = self.context(stack);
        let has_body = matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'{')));
        let body = if has_body {
            let close = self.matching(k, b'{', b'}');
            Some((k + 1, close))
        } else {
            None
        };
        self.items.fns.push(FnDecl {
            name,
            module,
            owner,
            trait_name,
            params,
            ret,
            line,
            body,
            is_test: self.file.in_test_code(self.code[fn_idx].start),
            generic: generic || impl_generic,
            inline: self.has_inline_attr(fn_idx),
        });
        // Resume *at* the body brace so the main walk balances the scope
        // stack itself (and still sees nested items inside the body).
        if has_body {
            k
        } else {
            k + 1
        }
    }

    /// Whether the `<…>` spanning `open..close` declares a type or const
    /// parameter: `<'a>` alone is lifetimes only and instantiates nothing.
    fn has_type_params(&self, open: usize, close: usize) -> bool {
        (open + 1..close).any(|j| self.code[j].kind == TokenKind::Ident)
    }

    /// Whether an `#[inline…]` attribute sits among the attributes and
    /// qualifiers (`pub(crate)`, `const`, `unsafe`, `extern "C"`) that
    /// precede the `fn` keyword at `fn_idx`. Doc comments are not code
    /// tokens, so they never interrupt the walk.
    fn has_inline_attr(&self, fn_idx: usize) -> bool {
        let mut k = fn_idx;
        while k > 0 {
            k -= 1;
            match self.code[k].kind {
                TokenKind::Ident
                    if matches!(
                        self.text(k),
                        "pub" | "crate" | "super" | "in" | "const" | "unsafe" | "async" | "extern"
                    ) => {}
                TokenKind::Str | TokenKind::Punct(b'(') | TokenKind::Punct(b')') => {}
                TokenKind::Punct(b']') => {
                    let Some(open) = self.matching_back(k, b'[', b']') else { return false };
                    if open == 0 || self.code[open - 1].kind != TokenKind::Punct(b'#') {
                        return false;
                    }
                    if self.is_ident(open + 1, "inline") {
                        return true;
                    }
                    k = open - 1;
                }
                _ => return false,
            }
        }
        false
    }

    /// Parses `name: Type` pairs of a parameter list (token range is
    /// exclusive of the parens). `self` receivers are skipped.
    fn parse_params(&self, mut k: usize, end: usize) -> Vec<(String, Option<String>)> {
        let mut params = Vec::new();
        while k < end {
            // A parameter starts after `(`, `,` — find `ident :` at depth 0.
            if self.code[k].kind == TokenKind::Ident
                && matches!(self.code.get(k + 1).map(|t| t.kind), Some(TokenKind::Punct(b':')))
                && !matches!(self.code.get(k + 2).map(|t| t.kind), Some(TokenKind::Punct(b':')))
            {
                let name = self.text(k).to_string();
                let (ty, after) = self.parse_type(k + 2);
                params.push((name, ty));
                k = after;
                // Advance to the comma separating this parameter.
                let mut depth = 0i32;
                while k < end {
                    match self.code[k].kind {
                        TokenKind::Punct(b'(')
                        | TokenKind::Punct(b'<')
                        | TokenKind::Punct(b'[') => depth += 1,
                        TokenKind::Punct(b')')
                        | TokenKind::Punct(b'>')
                        | TokenKind::Punct(b']') => depth -= 1,
                        TokenKind::Punct(b',') if depth <= 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
            k += 1;
        }
        params
    }

    /// Extracts the *significant* name of a type starting at `k`: skips
    /// `&`, lifetimes, `mut`, `dyn`/`impl`, walks a path to its last
    /// segment, and gives up (returns `None`) on tuples, fn pointers and
    /// generics-only types. Containers keep their *element* type in a
    /// bracketed form the call-graph resolver understands: `Vec<T>`,
    /// `VecDeque<T>`, `[T; N]` and `&[T]` all become `[T]` (indexing
    /// yields a `T`), while `Box`/`Rc`/`Arc` auto-deref and reduce to
    /// their inner type directly. Returns the name and the index just
    /// past the type's head segment (not the full type — callers only
    /// ever need to resume scanning from a safe point).
    fn parse_type(&self, mut k: usize) -> (Option<String>, usize) {
        while k < self.code.len() {
            match self.code[k].kind {
                TokenKind::Punct(b'&') | TokenKind::Punct(b'*') => k += 1,
                TokenKind::Lifetime => k += 1,
                TokenKind::Ident if matches!(self.text(k), "mut" | "dyn" | "impl" | "const") => {
                    k += 1
                }
                _ => break,
            }
        }
        // A slice or array type: keep the element type, bracketed.
        if matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'['))) {
            let (inner, after) = self.parse_type(k + 1);
            return (inner.map(|i| format!("[{i}]")), after);
        }
        if !matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Ident)) {
            return (None, k + 1);
        }
        // Walk `a::b::C` to the last segment.
        let mut last = self.text(k).to_string();
        let mut j = k + 1;
        while matches!(self.code.get(j).map(|t| t.kind), Some(TokenKind::Punct(b':')))
            && matches!(self.code.get(j + 1).map(|t| t.kind), Some(TokenKind::Punct(b':')))
            && matches!(self.code.get(j + 2).map(|t| t.kind), Some(TokenKind::Ident))
        {
            last = self.text(j + 2).to_string();
            j += 3;
        }
        if matches!(self.code.get(j).map(|t| t.kind), Some(TokenKind::Punct(b'<'))) {
            match last.as_str() {
                "Vec" | "VecDeque" => {
                    let (inner, _) = self.parse_type(j + 1);
                    if let Some(inner) = inner {
                        return (Some(format!("[{inner}]")), j);
                    }
                }
                "Box" | "Rc" | "Arc" => {
                    let (inner, _) = self.parse_type(j + 1);
                    if inner.is_some() {
                        return (inner, j);
                    }
                }
                _ => {}
            }
        }
        (Some(last), j)
    }

    /// `mod name { … }` pushes a scope; `mod name;` declares an
    /// out-of-line module (the file-path walk in the model covers it).
    fn parse_mod(&mut self, mod_idx: usize, stack: &mut Vec<Scope>) -> usize {
        let Some(name_tok) = self.code.get(mod_idx + 1) else { return mod_idx + 1 };
        if name_tok.kind != TokenKind::Ident {
            return mod_idx + 1;
        }
        let name = self.text(mod_idx + 1).to_string();
        match self.code.get(mod_idx + 2).map(|t| t.kind) {
            Some(TokenKind::Punct(b'{')) => {
                stack.push(Scope::Module(name));
                mod_idx + 3
            }
            _ => mod_idx + 2,
        }
    }

    /// `impl <generics>? Type { … }` or `impl Trait for Type { … }`.
    fn parse_impl(&mut self, impl_idx: usize, stack: &mut Vec<Scope>) -> usize {
        let mut k = impl_idx + 1;
        let mut generic = false;
        if matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'<'))) {
            let close = self.skip_angles(k);
            generic = self.has_type_params(k, close);
            k = close;
        }
        let (first, after_first) = self.parse_type(k);
        // Skip the first type's generic arguments if present.
        let mut k = after_first;
        if matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'<'))) {
            k = self.skip_angles(k);
        }
        let (type_name, trait_name) = if self.is_ident(k, "for") {
            let (ty, after_ty) = self.parse_type(k + 1);
            k = after_ty;
            if matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'<'))) {
                k = self.skip_angles(k);
            }
            (ty, first)
        } else {
            (first, None)
        };
        // Skip any `where` clause to the block brace.
        while k < self.code.len() && !matches!(self.code[k].kind, TokenKind::Punct(b'{')) {
            if matches!(self.code[k].kind, TokenKind::Punct(b';')) {
                return k + 1; // `impl Trait for Type;` — nothing to scope
            }
            k += 1;
        }
        let Some(type_name) = type_name else { return k + 1 };
        stack.push(Scope::Impl { type_name, trait_name, generic });
        k + 1
    }

    /// `trait Name [: bounds] { … }` scopes like an impl of the trait's
    /// own name, so default and bodiless trait methods are owned by the
    /// trait rather than leaking into the free-function namespace.
    fn parse_trait(&mut self, trait_idx: usize, stack: &mut Vec<Scope>) -> usize {
        let Some(name_tok) = self.code.get(trait_idx + 1) else { return trait_idx + 1 };
        if name_tok.kind != TokenKind::Ident {
            return trait_idx + 1;
        }
        let name = self.text(trait_idx + 1).to_string();
        let mut k = trait_idx + 2;
        while k < self.code.len() && !matches!(self.code[k].kind, TokenKind::Punct(b'{')) {
            if matches!(self.code[k].kind, TokenKind::Punct(b';')) {
                return k + 1;
            }
            k += 1;
        }
        stack.push(Scope::Impl { type_name: name, trait_name: None, generic: true });
        k + 1
    }

    /// `struct Name { field: Type, … }` (tuple/unit structs carry no
    /// field names and are recorded with no fields).
    fn parse_struct(&mut self, struct_idx: usize) -> usize {
        let Some(name_tok) = self.code.get(struct_idx + 1) else { return struct_idx + 1 };
        if name_tok.kind != TokenKind::Ident {
            return struct_idx + 1;
        }
        let name = self.text(struct_idx + 1).to_string();
        let mut k = struct_idx + 2;
        if matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'<'))) {
            k = self.skip_angles(k);
        }
        // `struct X;` / `struct X(T);` — record, no named fields.
        if !matches!(self.code.get(k).map(|t| t.kind), Some(TokenKind::Punct(b'{'))) {
            self.items.structs.push(StructDecl { name, fields: Vec::new() });
            return struct_idx + 2;
        }
        let close = self.matching(k, b'{', b'}');
        let mut fields = Vec::new();
        let mut j = k + 1;
        while j < close {
            // Fields sit at depth 0 of the struct body as `[pub] name :`.
            if self.code[j].kind == TokenKind::Ident
                && self.text(j) != "pub"
                && matches!(self.code.get(j + 1).map(|t| t.kind), Some(TokenKind::Punct(b':')))
                && !matches!(self.code.get(j + 2).map(|t| t.kind), Some(TokenKind::Punct(b':')))
            {
                let fname = self.text(j).to_string();
                let (ty, _after) = self.parse_type(j + 2);
                fields.push((fname, ty));
                // Advance to the field's separating comma at depth 0.
                let mut depth = 0i32;
                while j < close {
                    match self.code[j].kind {
                        TokenKind::Punct(b'(')
                        | TokenKind::Punct(b'<')
                        | TokenKind::Punct(b'[')
                        | TokenKind::Punct(b'{') => depth += 1,
                        TokenKind::Punct(b')')
                        | TokenKind::Punct(b'>')
                        | TokenKind::Punct(b']')
                        | TokenKind::Punct(b'}') => depth -= 1,
                        TokenKind::Punct(b',') if depth <= 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
            }
            j += 1;
        }
        self.items.structs.push(StructDecl { name, fields });
        close + 1
    }

    /// `use path::{a, b as c};` — records each bound name with the
    /// path's first segment.
    fn parse_use(&mut self, use_idx: usize) -> usize {
        let mut k = use_idx + 1;
        let mut root: Option<String> = None;
        let mut last: Option<String> = None;
        while k < self.code.len() {
            match self.code[k].kind {
                TokenKind::Punct(b';') => break,
                TokenKind::Ident => {
                    let word = self.text(k).to_string();
                    if word == "as" {
                        // Alias: the next ident replaces the bound name.
                        if let (Some(alias), Some(r)) =
                            (self.code.get(k + 1).filter(|t| t.kind == TokenKind::Ident), &root)
                        {
                            let _ = alias;
                            let name = self.text(k + 1).to_string();
                            self.items.uses.push(UseImport { name, root: r.clone() });
                            last = None;
                            k += 2;
                            continue;
                        }
                    }
                    if root.is_none() {
                        root = Some(word.clone());
                    }
                    last = Some(word);
                    k += 1;
                }
                TokenKind::Punct(b',') | TokenKind::Punct(b'}') => {
                    // Close out the pending name of a `{a, b}` group.
                    if let (Some(name), Some(r)) = (last.take(), &root) {
                        if name != "self" {
                            self.items.uses.push(UseImport { name, root: r.clone() });
                        }
                    }
                    k += 1;
                }
                _ => k += 1,
            }
        }
        if let (Some(name), Some(r)) = (last.take(), &root) {
            if name != "self" && name != r.as_str() {
                self.items.uses.push(UseImport { name, root: r.clone() });
            } else if name == r.as_str() {
                // `use foo;` binds the crate/module name itself.
                self.items.uses.push(UseImport { name, root: r.clone() });
            }
        }
        k + 1
    }

    /// Index just past the `>` matching the `<` at `open` (token-level
    /// matching; `>>` lexes as two puncts so nesting balances).
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut k = open;
        while k < self.code.len() {
            match self.code[k].kind {
                TokenKind::Punct(b'<') => depth += 1,
                TokenKind::Punct(b'>') => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                // `fn f<T: Fn(A) -> B>`: the `-` `>` of a return arrow
                // inside generics would misbalance; consume the pair.
                TokenKind::Punct(b'-')
                    if matches!(
                        self.code.get(k + 1).map(|t| t.kind),
                        Some(TokenKind::Punct(b'>'))
                    ) =>
                {
                    k += 1;
                }
                TokenKind::Punct(b';') | TokenKind::Punct(b'{') => return k, // malformed; bail
                _ => {}
            }
            k += 1;
        }
        k
    }

    /// Index of the token matching `open_ch` at `open` (which must hold
    /// an `open_ch` token). Returns the closing token's index.
    fn matching(&self, open: usize, open_ch: u8, close_ch: u8) -> usize {
        let mut depth = 0i32;
        let mut k = open;
        while k < self.code.len() {
            match self.code[k].kind {
                TokenKind::Punct(c) if c == open_ch => depth += 1,
                TokenKind::Punct(c) if c == close_ch => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Index of the token opening the `close_ch` at `close`, walking
    /// backwards; `None` if the file runs out first.
    fn matching_back(&self, close: usize, open_ch: u8, close_ch: u8) -> Option<usize> {
        let mut depth = 0i32;
        let mut k = close;
        loop {
            match self.code[k].kind {
                TokenKind::Punct(c) if c == close_ch => depth += 1,
                TokenKind::Punct(c) if c == open_ch => {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn parse(src: &str) -> (SourceFile, FileItems) {
        let file = SourceFile::new(PathBuf::from("x.rs"), src.to_string());
        let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
        let items = parse_items(&file, &code);
        // Re-parse for the caller since `code` borrows `file`.
        (SourceFile::new(PathBuf::from("x.rs"), src.to_string()), items)
    }

    #[test]
    fn free_fn_with_params_and_ret() {
        let (_, items) = parse("pub fn plan(total: f64, cfg: &ScanConfig) -> ShardPlan { x() }");
        let f = &items.fns[0];
        assert_eq!(f.name, "plan");
        assert_eq!(f.owner, None);
        assert_eq!(
            f.params,
            vec![
                ("total".to_string(), Some("f64".to_string())),
                ("cfg".to_string(), Some("ScanConfig".to_string())),
            ]
        );
        assert_eq!(f.ret.as_deref(), Some("ShardPlan"));
        assert!(f.body.is_some());
    }

    #[test]
    fn methods_carry_owner_and_trait() {
        let (_, items) = parse(
            "impl Observer for SpanObserver {\n  fn on_event(&mut self, e: &TraceEvent) {}\n}\n\
             impl Platform {\n  fn run(self) -> u32 { 0 }\n}",
        );
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].owner.as_deref(), Some("SpanObserver"));
        assert_eq!(items.fns[0].trait_name.as_deref(), Some("Observer"));
        assert_eq!(items.fns[1].owner.as_deref(), Some("Platform"));
        assert_eq!(items.fns[1].trait_name, None);
    }

    #[test]
    fn generic_impls_resolve_significant_names() {
        let (_, items) =
            parse("impl<W: io::Write> Observer for JsonlWriter<W> { fn on_event(&mut self) {} }");
        assert_eq!(items.fns[0].owner.as_deref(), Some("JsonlWriter"));
        assert_eq!(items.fns[0].trait_name.as_deref(), Some("Observer"));
    }

    #[test]
    fn inline_modules_nest() {
        let (_, items) = parse("mod outer { mod inner { fn deep() {} } fn shallow() {} }");
        assert_eq!(items.fns[0].module, vec!["outer", "inner"]);
        assert_eq!(items.fns[1].module, vec!["outer"]);
    }

    #[test]
    fn struct_fields_keep_significant_types() {
        let (_, items) =
            parse("pub struct Broker { kb: KnowledgeBase, pub noise: f64, vms: Vec<Option<Vm>> }");
        let s = &items.structs[0];
        assert_eq!(s.name, "Broker");
        // Containers keep their element type in bracketed form: indexing
        // `vms` yields an `Option`.
        assert_eq!(
            s.fields,
            vec![
                ("kb".to_string(), Some("KnowledgeBase".to_string())),
                ("noise".to_string(), Some("f64".to_string())),
                ("vms".to_string(), Some("[Option]".to_string())),
            ]
        );
    }

    #[test]
    fn use_trees_bind_names_to_roots() {
        let (_, items) = parse(
            "use scan_kb::{KnowledgeBase, ProfileRecord};\nuse std::time::Instant as Clock;\n",
        );
        let bound: Vec<(&str, &str)> =
            items.uses.iter().map(|u| (u.name.as_str(), u.root.as_str())).collect();
        assert!(bound.contains(&("KnowledgeBase", "scan_kb")));
        assert!(bound.contains(&("ProfileRecord", "scan_kb")));
        assert!(bound.contains(&("Clock", "std")));
    }

    #[test]
    fn fn_in_where_clause_generics_does_not_derail() {
        let (_, items) = parse(
            "impl<F, O> ObserverFactory for F where F: Fn(u64) -> O + Sync, O: Observer {\n\
               fn build(&self, session: u64) -> O { self(session) }\n}",
        );
        assert_eq!(items.fns[0].name, "build");
        assert_eq!(items.fns[0].owner.as_deref(), Some("F"));
    }

    #[test]
    fn inline_attributes_and_generics_are_recorded() {
        let (_, items) = parse(
            "impl Q {\n  #[inline]\n  pub fn a(&self) {}\n  /// Doc.\n  #[inline(always)]\n  \
             #[must_use]\n  pub(crate) const fn b() -> u32 { 0 }\n  #[must_use]\n  fn c() {}\n  \
             fn d<T: Copy>(t: T) {}\n  fn e(f: impl Fn()) {}\n  fn f<'a>(x: &'a u8) {}\n}\n\
             impl<T> W<T> { fn g(&self) {} }\nimpl<'a> V<'a> { fn h(&self) {} }\n\
             trait R { fn i(&self) {} }",
        );
        let facts: Vec<(&str, bool, bool)> =
            items.fns.iter().map(|f| (f.name.as_str(), f.inline, f.generic)).collect();
        assert_eq!(
            facts,
            [
                ("a", true, false),
                ("b", true, false),
                ("c", false, false),
                ("d", false, true),
                ("e", false, true),
                ("f", false, false),
                ("g", false, true),
                ("h", false, false),
                ("i", false, true),
            ]
        );
    }

    #[test]
    fn test_regions_mark_fns() {
        let (_, items) = parse("#[cfg(test)]\nmod tests { fn helper() {} }\nfn live() {}");
        assert!(items.fns[0].is_test);
        assert!(!items.fns[1].is_test);
    }
}
