//! L4 — telemetry discipline.
//!
//! Two checks keep the trace-event vocabulary honest and the fast path
//! allocation-free:
//!
//! * **Coverage** — every variant of the event enum (default
//!   `TraceEvent` in the `tmu-telemetry` crate) must be constructed by
//!   at least one non-test call site outside the declaring crate. A
//!   variant nothing records is dead vocabulary: it inflates the schema
//!   consumers must handle while guaranteeing they never see it.
//! * **Gating** — a `.record(...)` call whose arguments eagerly
//!   allocate (`format!`, `to_string`, `vec!`, …) must sit inside a
//!   conditional gated on the hub's `enabled()` / `should_sample()`.
//!   Plain `record` calls with `Copy` events are internally gated and
//!   need nothing; an allocating one must gate on `enabled()`. This
//!   turns the "disabled telemetry costs one branch" guarantee from a
//!   convention into a checked property.
//!
//! Examples (`examples/`) are demo code, not the fast path, and are
//! exempt from both checks.

use std::collections::HashSet;
use std::path::Path;

use crate::config::Config;
use crate::diag::{Diagnostic, Lint};
use crate::lex::TokKind;
use crate::lints::match_delim;
use crate::workspace::Workspace;

/// Identifiers inside `record(...)` arguments that imply an eager
/// allocation.
const ALLOC_MARKERS: [&str; 7] = [
    "format",
    "to_string",
    "to_owned",
    "vec",
    "join",
    "collect",
    "String",
];

/// Runs the lint over the workspace.
#[must_use]
pub fn check(ws: &Workspace, cfg: &Config, root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    coverage(ws, cfg, root, &mut diags);
    gating(ws, cfg, root, &mut diags);
    diags
}

fn is_example(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "examples")
}

/// Every enum variant must be constructed somewhere real.
fn coverage(ws: &Workspace, cfg: &Config, root: &Path, diags: &mut Vec<Diagnostic>) {
    let enum_name = cfg.telemetry.event_enum.as_str();
    let Some((decl_src, decl_enum)) = ws
        .crates
        .iter()
        .filter(|k| k.name == cfg.telemetry.event_crate)
        .flat_map(|k| k.sources.iter())
        .find_map(|s| {
            s.enums
                .iter()
                .find(|e| e.name == enum_name && !e.in_test)
                .map(|e| (s, e))
        })
    else {
        return; // no event enum in this workspace — nothing to check
    };

    let mut used: HashSet<String> = HashSet::new();
    for krate in &ws.crates {
        if krate.name == cfg.telemetry.event_crate {
            continue;
        }
        for src in &krate.sources {
            if is_example(&src.path) {
                continue;
            }
            for f in &src.fns {
                if f.in_test {
                    continue;
                }
                let toks = &src.tokens;
                let (lo, hi) = f.body;
                let mut j = lo;
                while j + 3 < hi {
                    if toks[j].is_ident(enum_name)
                        && toks[j + 1].is_punct(':')
                        && toks[j + 2].is_punct(':')
                        && toks[j + 3].kind == TokKind::Ident
                    {
                        used.insert(toks[j + 3].text.clone());
                    }
                    j += 1;
                }
            }
        }
    }

    for (variant, line) in &decl_enum.variants {
        if !used.contains(variant) {
            diags.push(Diagnostic::new(
                Lint::Telemetry,
                root,
                &decl_src.path,
                *line,
                format!(
                    "`{enum_name}::{variant}` is declared but never recorded by any \
                     non-test call site outside `{}` — wire it up or retire it",
                    cfg.telemetry.event_crate
                ),
            ));
        }
    }
}

/// Eagerly-allocating `record(...)` must be behind an enabled gate.
fn gating(ws: &Workspace, cfg: &Config, root: &Path, diags: &mut Vec<Diagnostic>) {
    for krate in &ws.crates {
        if krate.name == cfg.telemetry.event_crate {
            continue; // the hub's own internals sit behind the gate
        }
        for src in &krate.sources {
            if is_example(&src.path) {
                continue;
            }
            for f in &src.fns {
                if f.in_test || f.body.0 == f.body.1 {
                    continue;
                }
                scan_fn_gating(src, f.body, root, diags);
            }
        }
    }
}

fn scan_fn_gating(
    src: &crate::parse::SourceFile,
    (lo, hi): (usize, usize),
    root: &Path,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &src.tokens;
    // Walk the body once, tracking for every open `{` whether it (or an
    // ancestor) is the success arm of a conditional that mentions the
    // telemetry gate. `stmt_start` marks where the current statement's
    // tokens began, so a `{` can look back at its introducing condition.
    let mut gated_stack: Vec<bool> = Vec::new();
    let mut stmt_start = lo;
    let mut j = lo;
    while j < hi {
        let t = &toks[j];
        if t.is_punct('{') {
            let parent = gated_stack.last().copied().unwrap_or(false);
            let ctx = &toks[stmt_start..j];
            let is_if = ctx.iter().any(|t| t.is_ident("if") || t.is_ident("while"));
            let mentions_gate = ctx
                .iter()
                .any(|t| t.is_ident("enabled") || t.is_ident("should_sample"));
            let negated = ctx.iter().any(|t| t.is_punct('!'));
            gated_stack.push(parent || (is_if && mentions_gate && !negated));
            stmt_start = j + 1;
        } else if t.is_punct('}') {
            gated_stack.pop();
            stmt_start = j + 1;
        } else if t.is_punct(';') {
            stmt_start = j + 1;
        } else if t.is_ident("record")
            && j > lo
            && toks[j - 1].is_punct('.')
            && j + 1 < hi
            && toks[j + 1].is_punct('(')
        {
            let close = match_delim(toks, j + 1, hi, '(', ')');
            let args = &toks[j + 2..close.min(hi)];
            let allocates = args
                .iter()
                .any(|a| a.kind == TokKind::Ident && ALLOC_MARKERS.contains(&a.text.as_str()));
            let gated = gated_stack.last().copied().unwrap_or(false);
            if allocates && !gated {
                diags.push(Diagnostic::new(
                    Lint::Telemetry,
                    root,
                    &src.path,
                    t.line,
                    "eagerly-allocating `record(...)` outside an `enabled()` gate — \
                     gate on `enabled()` (`if hub.enabled() { ... }`) to keep the \
                     disabled fast path allocation-free"
                        .to_string(),
                ));
            }
        }
        j += 1;
    }
}
