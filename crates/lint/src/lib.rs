#![forbid(unsafe_code)]
// Finding order is output: `clippy.toml` bans HashMap/HashSet.
#![deny(clippy::disallowed_types)]
//! `sheriff-lint` — the workspace invariant checker for what needs a
//! call graph.
//!
//! The reproduction's central promise — same seed + same world ⇒
//! identical observations on the DES and TCP backends — and the §4
//! privacy contract rest on invariants spread over many files. Each is
//! owned by the one mechanism that resolves it best (DESIGN.md "Static
//! analysis & invariants"): rustc's exhaustive `match` for who handles
//! each `ProtoMsg` and `TimerKind`; clippy (`clippy.toml` plus module
//! attributes) for wall-clock reads and hash-ordered containers, which
//! it resolves by name through aliases and re-exports; the telemetry
//! `Registry` for metric names. What is left here is what none of them
//! can see, because it crosses function and crate boundaries: privacy
//! taint ([`taint`]), panic-freedom of the protocol machines, the
//! reactor and everything they reach ([`reach`]), and the lock passes
//! ([`locks`]) — all over one item parser ([`parser`]) and one workspace
//! call graph ([`graph`]), every file lexed exactly once.
//!
//! Deliberately dependency-free: see [`config`] for the policy tables
//! and the fixture corpus under `fixtures/` for known-bad and
//! pragma-suppressed specimens per rule. Suppression is per-line:
//!
//! ```text
//! let first = slots[0]; // sheriff-lint: allow(transitive-panic) — non-empty by construction
//! ```
//!
//! or per-item, for findings that span whole functions:
//!
//! ```text
//! // sheriff-lint: allow-item(privacy-taint) — offline study, synthetic profiles
//! fn export_profiles(...) { ... }
//! ```

pub mod config;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod parser;
pub mod reach;
pub mod rules;
pub mod taint;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

pub use graph::{CallGraph, SourceFile};
pub use rules::{Finding, Rule, ALL_RULES};

/// The result of analyzing a tree: what was scanned and what was found.
pub struct Report {
    /// Number of `.rs` files lexed and analyzed.
    pub files: usize,
    /// All findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
}

/// Analyzes a file or directory tree with every pass and reports what
/// it scanned. Directories are walked in sorted order, descending into
/// everything except [`config::SKIP_DIR_NAMES`]; only `.rs` files are
/// read. A path given explicitly is always scanned, even when a walk
/// would have skipped it — that is how the self-tests reach the
/// `fixtures/` corpus.
pub fn analyze(root: &Path) -> io::Result<Report> {
    let files = collect_sources(root)?;
    let call_graph = CallGraph::build(&files);
    let mut findings = taint::check(&call_graph);
    findings.extend(reach::check(&files, &call_graph));
    findings.extend(locks::check(&files, &call_graph));

    // Every pragma that fires is credited for the SL007 audit: every
    // pragma in the tree must have suppressed something.
    let used = suppress(&files, &mut findings);
    findings.extend(unused_pragmas(&files, &used));

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report {
        files: files.len(),
        findings,
    })
}

/// Backwards-compatible entry point: [`analyze`], findings only.
pub fn analyze_path(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze(root)?.findings)
}

/// Reads, lexes, and parses every `.rs` file under `root` (or `root`
/// itself when it is a file). One lex per file, shared by every pass.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    if root.is_dir() {
        walk(root, &mut paths)?;
    } else {
        paths.push(root.to_path_buf());
    }
    let mut files = Vec::new();
    for path in paths {
        let src = fs::read_to_string(&path)?;
        let norm = path.to_string_lossy().replace('\\', "/");
        let toks = lexer::lex(&src);
        let test_marks = rules::test_regions(&toks);
        let items = parser::parse_items(&toks, &test_marks);
        files.push(SourceFile {
            path: norm,
            toks,
            test_marks,
            items,
        });
    }
    Ok(files)
}

fn walk(dir: &Path, paths: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if config::SKIP_DIR_NAMES.contains(&name) {
                continue;
            }
            walk(&path, paths)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            paths.push(path);
        }
    }
    Ok(())
}

/// Applies pragma suppression. A per-line `allow(...)` pragma covers
/// its own line and the next; a per-item `allow-item(...)` pragma on
/// (or one line above) an item's first line covers the item's whole
/// line span — findings are attributed to functions, so the function is
/// the natural suppression unit. Every pragma that suppresses a finding
/// is credited (by its own line) in the returned set, for the SL007
/// audit.
fn suppress(files: &[SourceFile], findings: &mut Vec<Finding>) -> BTreeSet<(String, u32)> {
    struct FileSuppression {
        lines: Vec<(u32, Vec<Rule>)>,
        /// `(pragma line, span start, span end, rules)`.
        spans: Vec<(u32, u32, u32, Vec<Rule>)>,
    }

    let mut by_path: BTreeMap<&str, FileSuppression> = BTreeMap::new();
    for f in files {
        let lines = rules::pragma_lines(&f.toks);
        let item_pragmas = rules::item_pragma_lines(&f.toks);
        let mut spans = Vec::new();
        for item in &f.items {
            let end_line = f
                .toks
                .get(
                    item.end
                        .saturating_sub(1)
                        .min(f.toks.len().saturating_sub(1)),
                )
                .map_or(item.line, |t| t.line);
            for (pline, prules) in &item_pragmas {
                if *pline == item.line || pline + 1 == item.line {
                    spans.push((*pline, item.line, end_line, prules.clone()));
                }
            }
        }
        if !lines.is_empty() || !spans.is_empty() {
            by_path.insert(&f.path, FileSuppression { lines, spans });
        }
    }

    let mut used = BTreeSet::new();
    findings.retain(|f| {
        let Some(s) = by_path.get(f.path.as_str()) else {
            return true;
        };
        if let Some(pline) = rules::suppressing_line(&s.lines, f.rule, f.line) {
            used.insert((f.path.clone(), pline));
            return false;
        }
        for (pline, lo, hi, rules) in &s.spans {
            if f.line >= *lo && f.line <= *hi && rules.contains(&f.rule) {
                used.insert((f.path.clone(), *pline));
                return false;
            }
        }
        true
    });
    used
}

/// The SL007 audit: every `allow(...)` / `allow-item(...)` pragma in
/// the scanned tree must have suppressed at least one finding this run.
/// A pragma that fires for nothing is either stale (the violation it
/// sanctioned is gone — delete it) or typo'd (it names no known rule —
/// it never protected anything). An SL007 finding sits on the pragma's
/// own line and can itself be suppressed by `allow(unused-pragma)` on
/// or above that line — one level, no fixpoint.
fn unused_pragmas(files: &[SourceFile], used: &BTreeSet<(String, u32)>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        let mut all = rules::pragma_lines(&f.toks);
        all.extend(rules::item_pragma_lines(&f.toks));
        all.sort_by_key(|(l, _)| *l);
        for (line, rules_listed) in &all {
            if used.contains(&(f.path.clone(), *line)) {
                continue;
            }
            if rules::suppressed(&all, Rule::UnusedPragma, *line) {
                continue;
            }
            let detail = if rules_listed.is_empty() {
                "it names no known rule (typo?)"
            } else {
                "the finding it sanctioned is gone — delete it"
            };
            findings.push(Finding {
                path: f.path.clone(),
                line: *line,
                rule: Rule::UnusedPragma,
                message: format!("`sheriff-lint` pragma suppresses no finding: {detail}"),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_skips_vendor_and_fixture_dirs() {
        // The crate's own fixtures directory is full of violations by
        // construction; a walk over the crate must not see them.
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let findings = analyze_path(here).unwrap();
        assert!(
            findings.is_empty(),
            "linter source tree should be clean: {findings:?}"
        );
    }

    #[test]
    fn explicit_fixture_path_is_scanned() {
        let bad = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/unused_pragma_bad.rs");
        let findings = analyze_path(&bad).unwrap();
        assert!(!findings.is_empty());
    }
}
