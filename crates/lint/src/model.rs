//! The workspace semantic model: every parsed file's items folded into
//! one symbol table, with the per-function facts the interprocedural
//! passes consume — determinism hazards (taint seeds), panic sites
//! and the import-derived crate dependency closure. The model borrows the loaded [`Workspace`]; building it is
//! one pass over each file's tokens plus the item parse.

use crate::lex::{Token, TokenKind};
use crate::parse::{self, FileItems, FnDecl};
use crate::source::{FileClass, SourceFile};
use crate::workspace::{Workspace, WorkspaceFile, SIM_FACING_CRATES};
use std::collections::{BTreeMap, BTreeSet};

/// Index of a function in [`SemanticModel::fns`].
pub type FnId = usize;

/// One determinism hazard found in a function body — a taint seed.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// What was found (`` `HashMap` ``, `` `Instant` ``, …).
    pub what: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
}

/// One panic source in a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// What was found (`` `panic!` ``, ``bare `unwrap()` ``, …).
    pub what: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
}

/// One function in the workspace, with the analysis facts attached.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into [`SemanticModel::files`].
    pub file: usize,
    /// Index into that file's [`FileItems::fns`].
    pub item: usize,
    /// Owning crate's package name.
    pub crate_name: String,
    /// Whether the crate is on the simulation path.
    pub sim_facing: bool,
    /// The file's target class.
    pub class: FileClass,
    /// Determinism hazards in the body (empty outside library code).
    pub hazards: Vec<Hazard>,
    /// Panic sources in the body (empty outside library code).
    pub panics: Vec<PanicSite>,
}

/// One file's parsed items plus its code-token view and import map.
pub struct FileFacts<'w> {
    /// The underlying workspace file.
    pub wf: &'w WorkspaceFile,
    /// Non-comment tokens (what all item token-index fields index into).
    pub code: Vec<&'w Token>,
    /// Parsed items.
    pub items: FileItems,
    /// Imported name → source crate's package name (workspace crates
    /// only; `std`/external roots are omitted).
    pub imports: BTreeMap<String, String>,
}

/// The folded symbol table for one workspace.
pub struct SemanticModel<'w> {
    /// Per-file facts, parallel to [`Workspace::files`].
    pub files: Vec<FileFacts<'w>>,
    /// Every function in the workspace.
    pub fns: Vec<FnInfo>,
    /// (impl type name, method name) → candidate functions.
    pub methods: BTreeMap<(String, String), Vec<FnId>>,
    /// (crate name, free fn name) → candidate functions.
    pub free_fns: BTreeMap<(String, String), Vec<FnId>>,
    /// (type name, field name) → field type's significant name.
    pub field_types: BTreeMap<(String, String), String>,
    /// Type name → crates that declare a struct of that name.
    pub type_crates: BTreeMap<String, BTreeSet<String>>,
    /// Crate → its transitive workspace dependencies (derived from `use`
    /// imports; always includes the crate itself).
    pub crate_deps: BTreeMap<String, BTreeSet<String>>,
}

/// Idents whose presence in a function body seeds nondeterminism taint —
/// the same hazard vocabulary as the per-file determinism rules.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "OsRng", "from_entropy", "temp_dir"];
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

impl<'w> SemanticModel<'w> {
    /// Builds the model for a loaded workspace.
    pub fn build(ws: &'w Workspace) -> Self {
        let mut files = Vec::with_capacity(ws.files.len());
        for wf in &ws.files {
            let code: Vec<&Token> = wf.file.code_tokens().map(|(_, t)| t).collect();
            let items = parse::parse_items(&wf.file, &code);
            let imports = import_map(&items, &wf.crate_name);
            files.push(FileFacts { wf, code, items, imports });
        }

        let mut model = SemanticModel {
            files,
            fns: Vec::new(),
            methods: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            field_types: BTreeMap::new(),
            type_crates: BTreeMap::new(),
            crate_deps: BTreeMap::new(),
        };

        for file_idx in 0..model.files.len() {
            let crate_name = model.files[file_idx].wf.crate_name.clone();
            let sim_facing = SIM_FACING_CRATES.contains(&crate_name.as_str());
            let class = model.files[file_idx].wf.class;
            for item_idx in 0..model.files[file_idx].items.fns.len() {
                let id = model.fns.len();
                let (hazards, panics) = {
                    let facts = &model.files[file_idx];
                    let decl = &facts.items.fns[item_idx];
                    if class == FileClass::Library && !decl.is_test {
                        body_facts(&facts.wf.file, &facts.code, decl)
                    } else {
                        (Vec::new(), Vec::new())
                    }
                };
                let decl = &model.files[file_idx].items.fns[item_idx];
                match &decl.owner {
                    Some(owner) => model
                        .methods
                        .entry((owner.clone(), decl.name.clone()))
                        .or_default()
                        .push(id),
                    None => model
                        .free_fns
                        .entry((crate_name.clone(), decl.name.clone()))
                        .or_default()
                        .push(id),
                }
                model.fns.push(FnInfo {
                    file: file_idx,
                    item: item_idx,
                    crate_name: crate_name.clone(),
                    sim_facing,
                    class,
                    hazards,
                    panics,
                });
            }
            for s in &model.files[file_idx].items.structs {
                model.type_crates.entry(s.name.clone()).or_default().insert(crate_name.clone());
                for (field, ty) in &s.fields {
                    if let Some(ty) = ty {
                        model.field_types.insert((s.name.clone(), field.clone()), ty.clone());
                    }
                }
            }
        }

        model.crate_deps = dep_closure(&model.files);
        model
    }

    /// The parsed declaration of a function.
    pub fn decl(&self, id: FnId) -> &FnDecl {
        let info = &self.fns[id];
        &self.files[info.file].items.fns[info.item]
    }

    /// A human-readable label for a function: `Type::name` or `name`.
    pub fn label(&self, id: FnId) -> String {
        let decl = self.decl(id);
        match &decl.owner {
            Some(owner) => format!("{owner}::{}", decl.name),
            None => decl.name.clone(),
        }
    }

    /// The source file a function lives in.
    pub fn file_of(&self, id: FnId) -> &SourceFile {
        &self.files[self.fns[id].file].wf.file
    }

    /// Whether `callee_crate` is in `caller_crate`'s dependency closure
    /// (a crate always depends on itself).
    pub fn depends_on(&self, caller_crate: &str, callee_crate: &str) -> bool {
        caller_crate == callee_crate
            || self.crate_deps.get(caller_crate).is_some_and(|deps| deps.contains(callee_crate))
    }
}

/// Scans one function body for determinism hazards and panic sites.
fn body_facts(file: &SourceFile, code: &[&Token], decl: &FnDecl) -> (Vec<Hazard>, Vec<PanicSite>) {
    let Some((start, end)) = decl.body else { return (Vec::new(), Vec::new()) };
    let mut hazards = Vec::new();
    let mut panics = Vec::new();
    for k in start..end.min(code.len()) {
        let tok = code[k];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text(&file.text);
        if HASH_TYPES.contains(&text)
            || CLOCK_TYPES.contains(&text)
            || ENTROPY_IDENTS.contains(&text)
        {
            hazards.push(Hazard { what: format!("`{text}`"), line: tok.line, col: tok.col });
        } else if text == "env"
            && k >= 2
            && matches!(code[k - 1].kind, TokenKind::Punct(b':'))
            && matches!(code[k - 2].kind, TokenKind::Punct(b':'))
            && k >= 3
            && code[k - 3].kind == TokenKind::Ident
            && code[k - 3].text(&file.text) == "std"
        {
            hazards.push(Hazard { what: "`std::env`".to_string(), line: tok.line, col: tok.col });
        }
        let next = code.get(k + 1).map(|t| t.kind);
        if PANIC_MACROS.contains(&text) && next == Some(TokenKind::Punct(b'!')) {
            panics.push(PanicSite { what: format!("`{text}!`"), line: tok.line, col: tok.col });
        }
        if text == "unwrap"
            && k > 0
            && matches!(code[k - 1].kind, TokenKind::Punct(b'.'))
            && next == Some(TokenKind::Punct(b'('))
            && matches!(code.get(k + 2).map(|t| t.kind), Some(TokenKind::Punct(b')')))
        {
            panics.push(PanicSite {
                what: "bare `unwrap()`".to_string(),
                line: tok.line,
                col: tok.col,
            });
        }
    }
    (hazards, panics)
}

/// The crate a `use` root segment refers to, by the workspace's naming
/// convention (`scan_kb` → `scan-kb`); `crate`/`self`/`super` resolve to
/// the importing crate, everything else is external.
fn root_crate(root: &str, own_crate: &str) -> Option<String> {
    match root {
        "crate" | "self" | "super" => Some(own_crate.to_string()),
        r if r.starts_with("scan") => Some(r.replace('_', "-")),
        _ => None,
    }
}

/// Bound name → source crate, for one file's `use` declarations.
fn import_map(items: &FileItems, own_crate: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for u in &items.uses {
        if let Some(crate_name) = root_crate(&u.root, own_crate) {
            map.insert(u.name.clone(), crate_name);
        }
    }
    map
}

/// Transitive crate-dependency closure, derived from imports: crate A
/// depends on crate B when any file of A imports from B.
fn dep_closure(files: &[FileFacts<'_>]) -> BTreeMap<String, BTreeSet<String>> {
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for facts in files {
        let own = &facts.wf.crate_name;
        let entry = direct.entry(own.clone()).or_default();
        for dep in facts.imports.values() {
            if dep != own {
                entry.insert(dep.clone());
            }
        }
    }
    // Saturate: iterate until no closure grows (crate counts are tiny).
    let crates: Vec<String> = direct.keys().cloned().collect();
    loop {
        let mut grew = false;
        for c in &crates {
            let deps: Vec<String> = direct[c].iter().cloned().collect();
            let mut add = BTreeSet::new();
            for d in &deps {
                if let Some(dd) = direct.get(d) {
                    for x in dd {
                        if x != c && !direct[c].contains(x) {
                            add.insert(x.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                direct.get_mut(c).expect("crate key present by construction").extend(add);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    direct
}
