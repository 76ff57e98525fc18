//! `scan-lint`: the workspace's determinism-and-hygiene analyzer.
//!
//! A source-level static analyzer purpose-built for this repository. It
//! lexes every workspace crate with its own lightweight Rust tokenizer
//! (no external parser — the workspace builds fully offline) and
//! enforces three families of project invariants that `rustc` and
//! `clippy` cannot express:
//!
//! 1. **Determinism** — sim-facing library code must not use
//!    `HashMap`/`HashSet`, wall clocks, OS entropy, `std::env` reads, or
//!    `partial_cmp().unwrap()` float ordering, so a fixed seed is
//!    byte-identical run to run (see `docs/LINTS.md`).
//! 2. **Hygiene** — panic discipline in library code, doc comments on
//!    every `pub` item, no orphaned TODOs.
//! 3. **Semantic (interprocedural)** — on top of the lexer sits an item
//!    parser ([`parse`]), a workspace symbol table ([`model`]) and a
//!    name-resolution-approximate call graph ([`graph`]); three passes
//!    walk it: nondeterminism *taint* flowing from any crate into
//!    sim-facing code, *panic reachability* from the platform's event
//!    loop and observer hot paths, and *hot-inline*, the small
//!    cross-crate callees of the event loop that lack `#[inline]`. Their
//!    diagnostics carry the full call chain (`--explain-chain`).
//!
//! Findings can be silenced inline with
//! `// scan-lint: allow(<rule>) -- <reason>`; the reason is mandatory
//! and unused allows are themselves flagged. The `scan-lint` binary is a
//! step of `scripts/ci.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod graph;
pub mod lex;
pub mod model;
pub mod parse;
pub mod report;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::{Diagnostic, Severity};
pub use source::{FileClass, SourceFile};
pub use workspace::{RunResult, Workspace};
