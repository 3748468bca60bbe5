//! The rules' identity (name, id, description) and the machinery the
//! passes share: `#[cfg(test)]`-region detection, pragma suppression,
//! and the panic-site scanner.
//!
//! Every rule is cross-file: the passes run over the workspace call
//! graph in [`crate::taint`], [`crate::reach`] and [`crate::locks`].
//! The scope tables live in [`crate::config`]; policy questions (why is
//! a tree in scope?) belong in DESIGN.md "Static analysis & invariants".

use crate::lexer::{Tok, TokKind};

/// One rule of the determinism and privacy contracts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Peer plaintext / doppelganger profile data reaching a wire,
    /// telemetry, or report sink without passing through a
    /// `crypto::elgamal`/`crypto::ipfe` encryption entry point.
    PrivacyTaint,
    /// A panic site (`unwrap` / `expect` / panic-family macros /
    /// indexing) in the protocol machines or the reactor, or in any
    /// crate reachable from them via the workspace call graph: they
    /// must degrade rather than crash.
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
pub const ALL_RULES: [Rule; 6] = [
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
            Rule::PrivacyTaint => "privacy-taint",
            Rule::TransitivePanic => "transitive-panic",
            Rule::UnusedPragma => "unused-pragma",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::BlockingUnderLock => "blocking-under-lock",
            Rule::CallbackUnderLock => "callback-under-lock",
        }
    }

    /// The stable rule id. The pragma audit is `SL0xx`; the flow rules
    /// are `SL1xx`; the concurrency-safety family over the threaded
    /// wire layer is `SL2xx`. Ids never change meaning; retired ids
    /// (SL001–SL006, SL102, SL105, SL204) are not reused.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnusedPragma => "SL007",
            Rule::PrivacyTaint => "SL101",
            Rule::TransitivePanic => "SL103",
            Rule::LockOrderCycle => "SL201",
            Rule::BlockingUnderLock => "SL202",
            Rule::CallbackUnderLock => "SL203",
        }
    }

    /// Parses a pragma/CLI rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// One-line description shown by `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::PrivacyTaint => {
                "peer plaintext reaching a wire/telemetry/report sink without encryption"
            }
            Rule::TransitivePanic => {
                "panic site in the protocol machines or the reactor, or reachable from them"
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
/// passes report at: a cross-file finding often has no single line the
/// author controls.
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
/// shares it between the item parser and the lock pass.
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

// ----- the panic-site scan -----

pub(crate) type Hits = Vec<(usize, String)>;

/// Keywords that legitimately precede `[` without forming an index
/// expression (`return [..]`, `match x { .. => [..] }`, …).
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "if", "else", "match", "return", "in", "loop", "while", "for", "move", "mut", "ref", "break",
    "dyn", "where",
];

/// The scan [`crate::reach`] applies to every function body in, or
/// reachable from, the panic-freedom scope. Token-level on purpose: a
/// map index (`m[&k]`) is a `[` after an identifier like any other,
/// where a type-aware lint sees only slice indexing.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// Lines of `src` the panic scan hits.
    fn panic_lines(src: &str) -> Vec<u32> {
        let toks = lex(src);
        let mut hits = Hits::new();
        no_panic(&toks, &mut hits);
        hits.iter().map(|(i, _)| toks[*i].line).collect()
    }

    #[test]
    fn pragma_parses_one_or_many_rules() {
        assert_eq!(
            parse_pragma(" sheriff-lint: allow(transitive-panic)"),
            Some(vec![Rule::TransitivePanic])
        );
        assert_eq!(
            parse_pragma(" sheriff-lint: allow(privacy-taint, transitive-panic)"),
            Some(vec![Rule::PrivacyTaint, Rule::TransitivePanic])
        );
        assert_eq!(parse_pragma(" just a comment"), None);
        // Retired and unknown names allow nothing.
        assert_eq!(
            parse_pragma(" sheriff-lint: allow(wall-clock, no-such-rule)"),
            Some(vec![])
        );
    }

    #[test]
    fn pragma_suppresses_same_line_and_next_line() {
        let src = "\
let t = a.unwrap(); // sheriff-lint: allow(transitive-panic)
// sheriff-lint: allow(transitive-panic)
let u = b.unwrap();
let v = c.unwrap();
";
        let allowed = pragma_lines(&lex(src));
        let open: Vec<u32> = panic_lines(src)
            .into_iter()
            .filter(|l| !suppressed(&allowed, Rule::TransitivePanic, *l))
            .collect();
        assert_eq!(open, vec![4]);
    }

    #[test]
    fn typod_pragma_does_not_suppress() {
        let src = "let t = a.unwrap(); // sheriff-lint: allow(transitivepanic)\n";
        let allowed = pragma_lines(&lex(src));
        assert!(!suppressed(&allowed, Rule::TransitivePanic, 1));
    }

    #[test]
    fn panics_in_cfg_test_are_fine() {
        let src =
            "fn p() {}\n#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); panic!(\"boom\"); }\n}\n";
        let toks = lex(src);
        let marks = test_regions(&toks);
        for (t, marked) in toks.iter().zip(&marks) {
            assert_eq!(*marked, t.line >= 3, "{t:?}");
        }
    }

    #[test]
    fn index_heuristic() {
        assert_eq!(panic_lines("let x = arr[0];").len(), 1);
        assert_eq!(panic_lines("let x = f()[0];").len(), 1);
        // A map index is an index: clippy's `indexing_slicing` cannot
        // see this one, which is why the scan stays here.
        assert_eq!(panic_lines("let x = m[&k];").len(), 1);
        assert!(panic_lines("let x: [u64; 3] = [0; 3];").is_empty());
        assert!(panic_lines("let v = vec![1, 2];").is_empty());
        assert!(panic_lines("#[derive(Debug)]\nstruct S;").is_empty());
        assert!(panic_lines("for x in [1, 2] {}").is_empty());
        assert!(panic_lines("fn f(x: &[u8]) {}").is_empty());
    }
}
