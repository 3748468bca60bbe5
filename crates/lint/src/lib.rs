#![forbid(unsafe_code)]
//! `sheriff-lint` — a workspace invariant checker that statically
//! enforces the determinism and privacy contracts.
//!
//! The reproduction's central promise — same seed + same world ⇒
//! identical observations on the DES and TCP backends — rests on
//! invariants the Rust compiler cannot see: no wall-clock reads outside
//! the TCP adapter, no hash-order iteration where order leaks into
//! command emission, no panics in the protocol machines, and metric
//! names that the panel/exporter joins can rely on. The parity and
//! chaos tests enforce all of this *dynamically*, but only for the
//! seeds they run; a latent `Instant::now()` can hide until a rare
//! schedule exposes it. This crate enforces the same contract
//! *statically*, over every line, on every CI run.
//!
//! Two layers:
//!
//! * **Per-file token rules** ([`rules`]) — run over each file's token
//!   stream in isolation.
//! * **Flow-aware passes** — an item parser ([`parser`]) and a
//!   workspace call graph ([`graph`]) feed the cross-file rules:
//!   privacy taint ([`taint`]), transitive panic-freedom ([`reach`]),
//!   and the lock passes ([`locks`]).
//!
//! What the compiler *can* see is left to it: who handles each
//! `ProtoMsg` and `TimerKind` is the machines' exhaustive `match` arms
//! (DESIGN.md "Static analysis & invariants").
//!
//! Every file is lexed exactly once; the same token stream feeds the
//! per-file rules, the `#[cfg(test)]` region marks, and the parser.
//!
//! Deliberately dependency-free: see [`config`] for the policy tables
//! and the fixture corpus under `fixtures/` for known-bad and
//! pragma-suppressed specimens per rule. Suppression is per-line:
//!
//! ```text
//! let t = Instant::now(); // sheriff-lint: allow(wall-clock) — adapter boundary
//! ```
//!
//! or per-item for the cross-file rules, whose findings span whole
//! functions:
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
pub use rules::{check_file, Finding, Rule, ALL_RULES};

/// The result of analyzing a tree: what was scanned and what was found.
pub struct Report {
    /// Number of `.rs` files lexed and analyzed.
    pub files: usize,
    /// All findings, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
}

/// Analyzes a file or directory tree with every pass — per-file rules
/// plus the cross-file flow passes — and reports what it scanned.
/// Directories are walked in sorted order, descending into everything
/// except [`config::SKIP_DIR_NAMES`]; only `.rs` files are read. A path
/// given explicitly is always scanned, even when a walk would have
/// skipped it — that is how the self-tests reach the `fixtures/`
/// corpus.
pub fn analyze(root: &Path) -> io::Result<Report> {
    analyze_observed(root, &mut |_| {})
}

/// [`analyze`] with a pass-boundary observer: `mark(name)` is called
/// when the named pass completes. The library never reads a clock (the
/// SL001 contract applies to the linter's own sources); the CLI turns
/// the callbacks into the per-pass timing lines of the CI
/// `lint-concurrency` stage.
pub fn analyze_observed(root: &Path, mark: &mut dyn FnMut(&'static str)) -> io::Result<Report> {
    let files = collect_sources(root)?;
    mark("walk+lex+parse");

    // Layer 1: per-file token rules, over the already-lexed streams.
    // Every pragma that fires is credited for the SL007 audit.
    let mut used: BTreeSet<(String, u32)> = BTreeSet::new();
    let mut findings = Vec::new();
    for f in &files {
        let mut fired = Vec::new();
        findings.extend(rules::check_tokens_tracked(
            &f.path,
            &f.toks,
            &f.test_marks,
            &mut fired,
        ));
        for line in fired {
            used.insert((f.path.clone(), line));
        }
    }
    mark("token-rules");

    // Layer 2: flow-aware passes over the workspace call graph.
    let call_graph = CallGraph::build(&files);
    mark("call-graph");
    let mut cross = Vec::new();
    cross.extend(taint::check(&call_graph));
    mark("taint");
    cross.extend(reach::check(&files, &call_graph));
    mark("reach");
    cross.extend(locks::check(&files, &call_graph));
    mark("locks");
    suppress_cross(&files, &mut cross, &mut used);
    findings.extend(cross);

    // SL007: every pragma in the tree must have suppressed something.
    findings.extend(unused_pragmas(&files, &used));
    mark("suppression-audit");

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

/// Applies pragma suppression to cross-file findings. Per-line
/// `allow(...)` pragmas work exactly as for the token rules; per-item
/// `allow-item(...)` pragmas on (or one line above) an item's first
/// line suppress across the item's whole line span — cross-file
/// findings are attributed to functions, not tokens, so the function is
/// the natural suppression unit. Every pragma that suppresses a finding
/// is credited into `used` (by its own line) for the SL007 audit.
fn suppress_cross(
    files: &[SourceFile],
    findings: &mut Vec<Finding>,
    used: &mut BTreeSet<(String, u32)>,
) {
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

/// Renders a report as deterministic machine-readable JSON: stable key
/// order, findings pre-sorted, one object per finding with the stable
/// rule `id`. Hand-rolled (the crate is dependency-free); strings are
/// escaped per RFC 8259. Timing never appears here — the report is
/// byte-for-byte reproducible for a given tree, so CI can diff it.
pub fn render_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"sheriff-lint\",\n");
    out.push_str("  \"schema_version\": 6,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"id\": \"{}\", ", f.rule.id()));
        out.push_str(&format!("\"rule\": \"{}\", ", f.rule.name()));
        out.push_str(&format!("\"severity\": \"{}\", ", f.rule.severity()));
        out.push_str(&format!("\"path\": {}, ", json_str(&f.path)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"message\": {}", json_str(&f.message)));
        out.push('}');
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"counts_by_rule\": {");
    for (i, rule) in ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let n = report.findings.iter().filter(|f| f.rule == *rule).count();
        out.push_str(&format!("\"{}\": {}", rule.name(), n));
    }
    out.push_str("}\n");
    out.push_str("}\n");
    out
}

/// JSON string literal with RFC 8259 escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_skips_vendor_and_fixture_dirs() {
        // The crate's own fixtures directory is full of violations by
        // construction; a walk over the crate must not see them. The
        // linter lints its own sources with every pass (satellite
        // contract: the tree below is in HASH_ITER_SCOPE).
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let findings = analyze_path(here).unwrap();
        assert!(
            findings.is_empty(),
            "linter source tree should be clean: {findings:?}"
        );
    }

    #[test]
    fn explicit_fixture_path_is_scanned() {
        let bad = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/wall_clock_bad.rs");
        let findings = analyze_path(&bad).unwrap();
        assert!(!findings.is_empty());
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let report = Report {
            files: 2,
            findings: vec![Finding {
                path: "crates/a\\b.rs".into(),
                line: 7,
                rule: Rule::PrivacyTaint,
                message: "say \"no\"".into(),
            }],
        };
        let json = render_json(&report);
        assert!(json.contains("\"id\": \"SL101\""));
        assert!(json.contains("\"path\": \"crates/a\\\\b.rs\""));
        assert!(json.contains("\"message\": \"say \\\"no\\\"\""));
        assert!(json.contains("\"privacy-taint\": 1"));
        assert!(json.contains("\"wall-clock\": 0"));
    }
}
