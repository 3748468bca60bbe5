//! The determinism-contract rules and the machinery they share: path
//! scoping, `#[cfg(test)]`-region detection, and pragma suppression.
//!
//! The four per-file rules are deliberately token-level —
//! no type information, no name resolution. That buys zero dependencies
//! and sub-second runs at the cost of precision, which the scoping
//! rules and the per-line `// sheriff-lint: allow(<rule>)` pragma buy
//! back. The flow-aware rules ([`Rule::PrivacyTaint`],
//! [`Rule::TransitivePanic`], the SL2xx family) are cross-file:
//! they run over the workspace call graph in [`crate::taint`],
//! [`crate::reach`] and [`crate::locks`], and only their identity
//! (name, id, severity) lives here. The allowlist lives in
//! [`crate::config`]; policy questions (why is a file sanctioned?)
//! belong in DESIGN.md "Static analysis & invariants".

use crate::config;
use crate::lexer::{Tok, TokKind};

/// One rule of the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Instant::now` / `SystemTime` outside sanctioned boundary files:
    /// wall-clock reads make runs time-dependent.
    WallClock,
    /// `HashMap` / `HashSet` in order-sensitive subsystems: iteration
    /// order can leak into command emission.
    HashIter,
    /// `unwrap` / `expect` / panic-family macros / indexing in the
    /// protocol state machines, which must degrade rather than crash.
    NoPanicProtocol,
    /// Counter/gauge/histogram names must follow `subsystem.snake_case`
    /// so panel and exporter joins never drift.
    TelemetryNaming,
    /// Cross-file: peer plaintext / doppelganger profile data reaching
    /// a wire, telemetry, or report sink without passing through a
    /// `crypto::elgamal`/`crypto::ipfe` encryption entry point.
    PrivacyTaint,
    /// Cross-file: a panic site in any crate reachable from the
    /// protocol entry points via the workspace call graph.
    TransitivePanic,
    /// A `// sheriff-lint: allow(...)` / `allow-item(...)` pragma that
    /// suppresses no finding. Stale pragmas are deleted policy: every
    /// surviving pragma must still be load-bearing, or a repaired
    /// violation could silently regress behind it.
    UnusedPragma,
    /// Concurrency: a cycle in the lock-order graph built from guard
    /// scopes across the workspace call graph — two threads taking the
    /// same pair of locks in opposite orders can deadlock.
    LockOrderCycle,
    /// Concurrency: a guard scope that reaches a declared blocking sink
    /// (socket accept/connect, `sync_all`, thread `join`, channel
    /// `recv`, `Condvar::wait` under a second lock, `sleep`) — blocking
    /// under a shard lock stalls every peer on that reactor thread.
    BlockingUnderLock,
    /// Concurrency: a protocol-machine entry point (`on_message` /
    /// `on_timer` / …) invoked while a wire-layer guard is live — the
    /// invariant that keeps the sans-IO layer actually sans-IO.
    CallbackUnderLock,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [Rule; 10] = [
    Rule::WallClock,
    Rule::HashIter,
    Rule::NoPanicProtocol,
    Rule::TelemetryNaming,
    Rule::UnusedPragma,
    Rule::PrivacyTaint,
    Rule::TransitivePanic,
    Rule::LockOrderCycle,
    Rule::BlockingUnderLock,
    Rule::CallbackUnderLock,
];

impl Rule {
    /// The kebab-case name used in findings and pragmas.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HashIter => "hash-iter",
            Rule::NoPanicProtocol => "no-panic-protocol",
            Rule::TelemetryNaming => "telemetry-naming",
            Rule::PrivacyTaint => "privacy-taint",
            Rule::TransitivePanic => "transitive-panic",
            Rule::UnusedPragma => "unused-pragma",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::BlockingUnderLock => "blocking-under-lock",
            Rule::CallbackUnderLock => "callback-under-lock",
        }
    }

    /// The stable rule id used in machine-readable reports. Per-file
    /// token rules are `SL0xx`; flow-aware cross-file rules are
    /// `SL1xx`; the concurrency-safety family over the threaded wire
    /// layer is `SL2xx`. Ids never change meaning; retired ids (SL002,
    /// SL006, SL102, SL105, SL204) are not reused.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "SL001",
            Rule::HashIter => "SL003",
            Rule::NoPanicProtocol => "SL004",
            Rule::TelemetryNaming => "SL005",
            Rule::UnusedPragma => "SL007",
            Rule::PrivacyTaint => "SL101",
            Rule::TransitivePanic => "SL103",
            Rule::LockOrderCycle => "SL201",
            Rule::BlockingUnderLock => "SL202",
            Rule::CallbackUnderLock => "SL203",
        }
    }

    /// Severity in machine-readable reports. Every current rule is a
    /// CI gate (`error`); the field exists so a future advisory rule
    /// can report `warning` without changing the report schema.
    pub fn severity(self) -> &'static str {
        "error"
    }

    /// Parses a pragma/CLI rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description shown by `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock reads (Instant::now / SystemTime) outside sanctioned adapters"
            }
            Rule::HashIter => {
                "HashMap/HashSet in order-sensitive code; use BTreeMap/BTreeSet or sort"
            }
            Rule::NoPanicProtocol => {
                "unwrap/expect/panic!/indexing in protocol machines; degrade, don't crash"
            }
            Rule::TelemetryNaming => {
                "metric names must be subsystem.snake_case (dotted, lowercase)"
            }
            Rule::PrivacyTaint => {
                "peer plaintext reaching a wire/telemetry/report sink without encryption"
            }
            Rule::TransitivePanic => {
                "panic site reachable from a protocol entry point, in any crate"
            }
            Rule::UnusedPragma => "allow()/allow-item() pragma that suppresses nothing; delete it",
            Rule::LockOrderCycle => {
                "cycle in the lock-order graph (guard scopes over the call graph)"
            }
            Rule::BlockingUnderLock => {
                "blocking call (accept/sync_all/join/recv/wait/sleep) reachable under a guard"
            }
            Rule::CallbackUnderLock => {
                "protocol entry point (on_message/on_timer) invoked while a wire guard is live"
            }
        }
    }

    /// Whether the rule fires inside this file at all, per the
    /// [`crate::config`] scoping tables. `path` uses `/` separators.
    /// Cross-file rules never fire from the per-file loop.
    fn applies_to(self, path: &str) -> bool {
        match self {
            Rule::WallClock => !config::matches_any(path, config::WALL_CLOCK_ALLOWED),
            Rule::TelemetryNaming => true,
            Rule::HashIter => config::matches_any(path, config::HASH_ITER_SCOPE),
            Rule::NoPanicProtocol => config::matches_any(path, config::NO_PANIC_SCOPE),
            Rule::PrivacyTaint
            | Rule::TransitivePanic
            | Rule::UnusedPragma
            | Rule::LockOrderCycle
            | Rule::BlockingUnderLock
            | Rule::CallbackUnderLock => false,
        }
    }
}

/// One violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// File the violation is in (as given to the analyzer).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Violated rule.
    pub rule: Rule,
    /// What was seen.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Analyzes one file's source. `path` is used for scoping and reporting
/// and should be workspace-relative where possible. Convenience wrapper
/// around [`check_tokens`] for callers that hold raw source; the tree
/// analyzer lexes once per file and calls [`check_tokens`] directly so
/// the same token stream feeds every per-file rule *and* the parser.
pub fn check_file(path: &str, src: &str) -> Vec<Finding> {
    let norm = path.replace('\\', "/");
    let toks = crate::lexer::lex(src);
    let test_tok = test_regions(&toks);
    check_tokens(&norm, &toks, &test_tok)
}

/// Runs every per-file rule over an already-lexed token stream. `norm`
/// must be `/`-separated; `test_tok` marks `#[cfg(test)]` regions (from
/// [`test_regions`] over the same stream).
pub fn check_tokens(norm: &str, toks: &[Tok], test_tok: &[bool]) -> Vec<Finding> {
    check_tokens_tracked(norm, toks, test_tok, &mut Vec::new())
}

/// [`check_tokens`], additionally recording into `used` the line of
/// every pragma that suppressed at least one finding — the raw material
/// of the SL007 unused-pragma audit in [`crate::analyze`].
pub(crate) fn check_tokens_tracked(
    norm: &str,
    toks: &[Tok],
    test_tok: &[bool],
    used: &mut Vec<u32>,
) -> Vec<Finding> {
    // No per-file rule applies to test code: tests may panic (that is
    // what asserts do), may hold HashMaps they never emit from, and
    // register throwaway metric names.
    if config::matches_any(norm, config::TEST_TREE_MARKERS) {
        return Vec::new();
    }
    let allowed = pragma_lines(toks);

    let mut findings = Vec::new();
    for rule in ALL_RULES {
        if !rule.applies_to(norm) {
            continue;
        }
        let mut hits = Vec::new();
        match rule {
            Rule::WallClock => wall_clock(toks, &mut hits),
            Rule::HashIter => hash_iter(toks, &mut hits),
            Rule::NoPanicProtocol => no_panic(toks, &mut hits),
            Rule::TelemetryNaming => telemetry_naming(toks, &mut hits),
            // Cross-file rules run from crate::taint / crate::reach /
            // crate::locks, and the unused-pragma audit runs centrally
            // in crate::analyze; applies_to already filtered them out.
            Rule::PrivacyTaint
            | Rule::TransitivePanic
            | Rule::UnusedPragma
            | Rule::LockOrderCycle
            | Rule::BlockingUnderLock
            | Rule::CallbackUnderLock => {}
        }
        for (idx, msg) in hits {
            if test_tok[idx] {
                continue;
            }
            let line = toks[idx].line;
            if let Some(pline) = suppressing_line(&allowed, rule, line) {
                used.push(pline);
                continue;
            }
            findings.push(Finding {
                path: norm.to_string(),
                line,
                rule,
                message: msg,
            });
        }
    }
    findings.sort_by_key(|a| (a.line, a.rule));
    findings
}

// ----- pragma suppression -----

/// Lines carrying `// sheriff-lint: allow(rule, ...)`, mapped to the
/// rules they allow. A pragma suppresses findings on its own line (the
/// trailing-comment form) and on the following line (the
/// comment-above form).
pub(crate) fn pragma_lines(toks: &[Tok]) -> Vec<(u32, Vec<Rule>)> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        if let Some(rules) = parse_pragma(&t.text) {
            out.push((t.line, rules));
        }
    }
    out
}

/// Lines carrying `// sheriff-lint: allow-item(rule, ...)`. An item
/// pragma on (or one line above) an item's first line suppresses the
/// listed rules across the item's whole span — the unit the flow-aware
/// passes report at. Per-line `allow(...)` stays the right tool for the
/// token rules; `allow-item` exists because a cross-file finding often
/// has no single line the author controls.
pub(crate) fn item_pragma_lines(toks: &[Tok]) -> Vec<(u32, Vec<Rule>)> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        if let Some(rules) = parse_item_pragma(&t.text) {
            out.push((t.line, rules));
        }
    }
    out
}

/// Parses the body of a line comment (text after `//`). Returns the
/// allowed rules, or `None` when the comment is not a pragma. Unknown
/// rule names are ignored rather than honored, so a typo'd pragma
/// still fails the build — loudly, next to the pragma.
pub fn parse_pragma(comment: &str) -> Option<Vec<Rule>> {
    parse_pragma_with(comment, "allow")
}

/// Parses the item-scoped pragma form `sheriff-lint: allow-item(...)`.
pub fn parse_item_pragma(comment: &str) -> Option<Vec<Rule>> {
    parse_pragma_with(comment, "allow-item")
}

fn parse_pragma_with(comment: &str, verb: &str) -> Option<Vec<Rule>> {
    let rest = comment.trim_start().strip_prefix("sheriff-lint:")?;
    let rest = rest.trim_start().strip_prefix(verb)?;
    let rest = rest.trim_start().strip_prefix('(')?;
    let inner = rest.split(')').next()?;
    Some(
        inner
            .split(',')
            .filter_map(|name| Rule::from_name(name.trim()))
            .collect(),
    )
}

pub(crate) fn suppressed(allowed: &[(u32, Vec<Rule>)], rule: Rule, line: u32) -> bool {
    suppressing_line(allowed, rule, line).is_some()
}

/// The line of the pragma suppressing `rule` at `line`, when one does.
/// Separated from [`suppressed`] so the SL007 audit can credit the
/// pragma that actually fired. A trailing pragma on the finding's own
/// line wins over one on the line above: otherwise two adjacent
/// trailing pragmas would both be credited to the first, and the
/// audit would flag the second as stale.
pub(crate) fn suppressing_line(allowed: &[(u32, Vec<Rule>)], rule: Rule, line: u32) -> Option<u32> {
    allowed
        .iter()
        .find(|(l, rules)| *l == line && rules.contains(&rule))
        .or_else(|| {
            allowed
                .iter()
                .find(|(l, rules)| l + 1 == line && rules.contains(&rule))
        })
        .map(|(l, _)| *l)
}

// ----- #[cfg(test)] regions -----

/// Marks, per token, whether it sits inside an item gated by
/// `#[cfg(test)]` (module, fn, impl, anything). Single forward pass:
/// after such an attribute, the next item is skipped — to the matching
/// `}` of its first `{`, or to a top-relative `;` for braceless items.
/// Public because the tree analyzer computes this once per file and
/// shares it between the per-file rules and the item parser.
pub fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut marks = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(after_attr) = cfg_test_attr_end(toks, i) {
            let mut j = after_attr;
            // Skip stacked attributes and doc comments between the
            // cfg(test) attribute and the item itself.
            loop {
                if j < toks.len() && toks[j].is_punct('#') {
                    let mut k = j + 1;
                    if k < toks.len() && toks[k].is_punct('[') {
                        let mut depth = 0i32;
                        while k < toks.len() {
                            if toks[k].is_punct('[') {
                                depth += 1;
                            } else if toks[k].is_punct(']') {
                                depth -= 1;
                                if depth == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            k += 1;
                        }
                        j = k;
                        continue;
                    }
                }
                if j < toks.len()
                    && matches!(toks[j].kind, TokKind::LineComment | TokKind::BlockComment)
                {
                    j += 1;
                    continue;
                }
                break;
            }
            // Consume the gated item: everything to the matching close
            // of its first `{`, or to `;` before any `{` opens.
            let mut depth = 0i32;
            while j < toks.len() {
                marks[j] = true;
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].is_punct(';') && depth == 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    marks
}

/// When `#[cfg(test)]` (or `#[cfg(any(test, ...))]` — any attribute of
/// the shape `cfg(... test ...)`) starts at token `i`, returns the
/// index just past its closing `]`.
fn cfg_test_attr_end(toks: &[Tok], i: usize) -> Option<usize> {
    if !(toks[i].is_punct('#')
        && toks.get(i + 1)?.is_punct('[')
        && toks.get(i + 2)?.is_ident("cfg"))
    {
        return None;
    }
    let mut depth = 0i32;
    let mut saw_test = false;
    let mut j = i + 1;
    while j < toks.len() {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return if saw_test { Some(j + 1) } else { None };
            }
        } else if toks[j].is_ident("test") {
            saw_test = true;
        }
        j += 1;
    }
    None
}

// ----- the rules themselves -----

pub(crate) type Hits = Vec<(usize, String)>;

fn wall_clock(toks: &[Tok], hits: &mut Hits) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("SystemTime") {
            hits.push((i, "SystemTime read".into()));
        }
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            hits.push((i, "Instant::now() call".into()));
        }
    }
}

fn hash_iter(toks: &[Tok], hits: &mut Hits) {
    for (i, t) in toks.iter().enumerate() {
        for name in ["HashMap", "HashSet"] {
            if t.is_ident(name) {
                hits.push((
                    i,
                    format!(
                        "`{name}` in order-sensitive code; use BTree{} or sort before emitting",
                        &name[4..]
                    ),
                ));
            }
        }
    }
}

/// Keywords that legitimately precede `[` without forming an index
/// expression (`return [..]`, `match x { .. => [..] }`, …).
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "if", "else", "match", "return", "in", "loop", "while", "for", "move", "mut", "ref", "break",
    "dyn", "where",
];

/// Shared with [`crate::reach`], which applies the same scan to
/// function-body token slices reachable from the protocol entry points.
pub(crate) fn no_panic(toks: &[Tok], hits: &mut Hits) {
    for (i, t) in toks.iter().enumerate() {
        // .unwrap( / .expect( and their _err twins.
        for name in ["unwrap", "expect", "unwrap_err", "expect_err"] {
            if t.is_ident(name)
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                hits.push((i, format!(".{name}() can panic; handle the None/Err arm")));
            }
        }
        // panic-family macros.
        for name in ["panic", "unreachable", "todo", "unimplemented"] {
            if t.is_ident(name) && toks.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                hits.push((i, format!("`{name}!` in protocol code; degrade instead")));
            }
        }
        // Index expressions: `[` whose previous significant token ends
        // an expression (identifier, `)`, or `]`). Array types (`: [u64;
        // 3]`), attributes (`#[...]`) and macros (`vec![..]`) don't.
        if t.is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let indexes = match prev.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                _ => false,
            };
            if indexes {
                hits.push((
                    i,
                    "index expression can panic; use .get()/.get_mut()".into(),
                ));
            }
        }
    }
}

fn telemetry_naming(toks: &[Tok], hits: &mut Hits) {
    for (i, t) in toks.iter().enumerate() {
        let registers = ["counter", "gauge", "histogram"]
            .iter()
            .any(|m| t.is_ident(m));
        if !(registers && i > 0 && toks[i - 1].is_punct('.')) {
            continue;
        }
        let Some(open) = toks.get(i + 1) else {
            continue;
        };
        if !open.is_punct('(') {
            continue;
        }
        // First argument: an optional `&` then a string literal. Names
        // built with format!/helpers are out of reach for a token lint
        // (their *templates* still get checked wherever they are
        // literal).
        let mut j = i + 2;
        while toks.get(j).is_some_and(|t| t.is_punct('&')) {
            j += 1;
        }
        let Some(arg) = toks.get(j) else { continue };
        if arg.kind == TokKind::Str && !well_formed_metric_name(&arg.text) {
            hits.push((
                j,
                format!("metric name `{}` is not subsystem.snake_case", arg.text),
            ));
        }
    }
}

/// `subsystem.snake_case`: two or more dot-separated segments, each of
/// lowercase letters, digits, or underscores, starting with a letter
/// or digit. (`{index:03}` interpolations in format templates are
/// tolerated segment-internally.)
fn well_formed_metric_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    if segments.len() < 2 {
        return false;
    }
    segments.iter().all(|seg| {
        !seg.is_empty()
            && seg.chars().all(|c| {
                c.is_ascii_lowercase()
                    || c.is_ascii_digit()
                    || c == '_'
                    || c == '{'
                    || c == '}'
                    || c == ':'
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn pragma_parses_one_or_many_rules() {
        assert_eq!(
            parse_pragma(" sheriff-lint: allow(wall-clock)"),
            Some(vec![Rule::WallClock])
        );
        assert_eq!(
            parse_pragma(" sheriff-lint: allow(hash-iter, wall-clock)"),
            Some(vec![Rule::HashIter, Rule::WallClock])
        );
        assert_eq!(parse_pragma(" just a comment"), None);
        assert_eq!(
            parse_pragma(" sheriff-lint: allow(no-such-rule)"),
            Some(vec![])
        );
    }

    #[test]
    fn pragma_suppresses_same_line_and_next_line() {
        let src = "\
let t = SystemTime::now(); // sheriff-lint: allow(wall-clock)
// sheriff-lint: allow(wall-clock)
let u = SystemTime::now();
let v = SystemTime::now();
";
        let findings = check_file("crates/demo/src/lib.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn typod_pragma_does_not_suppress() {
        let src = "let t = SystemTime::now(); // sheriff-lint: allow(wallclock)\n";
        let findings = check_file("crates/demo/src/lib.rs", src);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn wall_clock_scoping_honors_allowlist() {
        let src = "let t = Instant::now();\n";
        assert_eq!(check_file("crates/wire/src/deploy.rs", src).len(), 0);
        assert_eq!(
            check_file("crates/experiments/src/bin/fig1.rs", src).len(),
            0
        );
        assert_eq!(check_file("crates/core/src/system.rs", src).len(), 1);
    }

    #[test]
    fn panics_in_cfg_test_are_fine() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); panic!(\"boom\"); }\n}\n";
        let findings = check_file("crates/core/src/protocol/demo.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn index_heuristic() {
        let path = "crates/core/src/protocol/demo.rs";
        assert_eq!(check_file(path, "let x = arr[0];").len(), 1);
        assert_eq!(check_file(path, "let x = f()[0];").len(), 1);
        assert!(check_file(path, "let x: [u64; 3] = [0; 3];").is_empty());
        assert!(check_file(path, "let v = vec![1, 2];").is_empty());
        assert!(check_file(path, "#[derive(Debug)]\nstruct S;").is_empty());
        assert!(check_file(path, "for x in [1, 2] {}").is_empty());
        assert!(check_file(path, "fn f(x: &[u8]) {}").is_empty());
    }

    #[test]
    fn hash_iter_only_in_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check_file("crates/core/src/protocol/peer.rs", src).len(), 1);
        assert_eq!(check_file("crates/netsim/src/fault.rs", src).len(), 1);
        assert!(check_file("crates/market/src/world.rs", src).is_empty());
    }

    #[test]
    fn telemetry_names_must_be_dotted_snake_case() {
        let path = "crates/demo/src/lib.rs";
        assert!(check_file(path, r#"r.counter("coordinator.requests_total");"#).is_empty());
        assert!(check_file(path, r#"r.gauge(&format!("a.{i}.b"));"#).is_empty());
        assert_eq!(check_file(path, r#"r.counter("jobs");"#).len(), 1);
        assert_eq!(check_file(path, r#"r.gauge("Bad.Name");"#).len(), 1);
        assert_eq!(check_file(path, r#"r.histogram("lat", &[1.0]);"#).len(), 1);
    }

    #[test]
    fn findings_sort_by_line() {
        let src = "let a = SystemTime::now();\nr.counter(\"jobs\");\n";
        let findings = check_file("crates/demo/src/lib.rs", src);
        assert_eq!(
            rules_of(&findings),
            vec![Rule::WallClock, Rule::TelemetryNaming]
        );
    }
}
