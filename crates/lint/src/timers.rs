//! Timer-obligation linearity, statically: the pass that shadows the
//! model checker's `timer.obligation_leak` invariant.
//!
//! The model checker (`crates/model`) proves dynamically, over every
//! interleaving to a bounded depth, that an armed timer is always
//! consumed by a handler that recognizes it. This pass enforces the
//! same contract over *every line on every CI run*, at the resolution a
//! linter can see. (That a fired timer reaches the arm that armed it at
//! all needs no pass: drivers carry the `TimerKind` value itself, so
//! there is no integer encoding to get wrong.)
//!
//! **SL105 `obligation-leak`** — a protocol machine that arms a
//! `TimerKind` variant (`kind: TimerKind::V { … }` in an `Output::
//! Timer` construction) must also *release* it: a pattern for the
//! variant in one of the machine's release handlers
//! ([`config::TIMER_RELEASE_FNS`]), or a per-file sanction in
//! [`config::TIMER_DRIVER_HANDLED`] naming the code that matches the
//! variant instead (the reliable channel's `Retransmit`, matched by
//! `RoleNode::on_timer`, is the one live case). This is the static
//! shadow of the mutation the model kills dynamically: delete a
//! machine's `on_timer` arm and the checker finds a leaking schedule —
//! this pass finds the deleted arm without running anything.
//!
//! The pass is cross-layer (it needs the item parser), runs per-file,
//! and is deliberately under-approximate: an arm the token scanner
//! cannot read is skipped, never guessed at. Suppression uses the
//! standard per-line pragma (`// sheriff-lint: allow(obligation-leak)`).

use std::collections::{BTreeMap, BTreeSet};

use crate::config;
use crate::graph::SourceFile;
use crate::lexer::TokKind;
use crate::parser::ItemKind;
use crate::routing::{is_pattern, matches_macro_pattern_ranges};
use crate::rules::{Finding, Rule};

/// Runs the timer pass over the analyzed files.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        check_obligations(file, &mut findings);
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings
}

fn check_obligations(file: &SourceFile, findings: &mut Vec<Finding>) {
    if !file.path.contains(config::PROTOCOL_DIR) {
        return;
    }
    let toks = &file.toks;

    // Armed variants: `kind: TimerKind::V` in a timer construction,
    // anywhere in the machine's non-test functions. First site wins —
    // one finding per leaked variant, not per arm.
    let mut armed: BTreeMap<String, u32> = BTreeMap::new();
    // Released variants: a `TimerKind::V` *pattern* inside one of the
    // release handlers.
    let mut released: BTreeSet<String> = BTreeSet::new();

    for item in &file.items {
        if item.kind != ItemKind::Fn || item.in_tests {
            continue;
        }
        let end = item.end.min(toks.len());
        let is_release_fn = config::TIMER_RELEASE_FNS.contains(&item.name.as_str());
        let matches_ranges = if is_release_fn {
            matches_macro_pattern_ranges(toks, item.start, end)
        } else {
            Vec::new()
        };
        let mut i = item.start;
        while i + 3 < end {
            if !(toks[i].is_ident("TimerKind")
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_punct(':')
                && toks[i + 3].kind == TokKind::Ident)
            {
                i += 1;
                continue;
            }
            let variant = toks[i + 3].text.clone();
            let line = toks[i + 3].line;
            let in_matches = matches_ranges.iter().any(|r| r.contains(&(i + 3)));
            let pattern = in_matches || is_pattern(toks, i + 4, end);
            if is_release_fn && pattern {
                released.insert(variant);
            } else if !pattern
                && i >= 2
                && toks[i - 2].is_ident("kind")
                && toks[i - 1].is_punct(':')
            {
                armed.entry(variant).or_insert(line);
            }
            i += 4;
        }
    }

    let machine = file
        .path
        .rsplit('/')
        .next()
        .and_then(|n| n.strip_suffix(".rs"))
        .unwrap_or("")
        .to_string();
    for (variant, line) in &armed {
        if released.contains(variant) || config::timer_driver_handled(&file.path, variant) {
            continue;
        }
        findings.push(Finding {
            path: file.path.clone(),
            line: *line,
            rule: Rule::ObligationLeak,
            message: format!(
                "`{machine}` arms `TimerKind::{variant}` but no release handler \
                 ({fns}) patterns it and no driver-handled sanction covers this file: \
                 the fired timer's obligation leaks",
                fns = config::TIMER_RELEASE_FNS.join("/"),
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_items;
    use crate::rules::test_regions;

    fn file(path: &str, src: &str) -> SourceFile {
        let toks = lex(src);
        let test_marks = test_regions(&toks);
        let items = parse_items(&toks, &test_marks);
        SourceFile {
            path: path.into(),
            toks,
            test_marks,
            items,
        }
    }

    #[test]
    fn armed_without_release_is_flagged_once_per_variant() {
        let f = file(
            "crates/core/src/protocol/widget.rs",
            "impl W { pub fn on_message(&mut self, out: &mut Vec<Output>) {\n\
             out.push(Output::Timer { delay_ms: 5, kind: TimerKind::JobDeadline(job) });\n\
             out.push(Output::Timer { delay_ms: 9, kind: TimerKind::JobDeadline(job) });\n\
             out.push(Output::Timer { delay_ms: 5, kind: TimerKind::Heartbeat });\n\
             }\n\
             pub fn on_timer(&mut self, kind: TimerKind) { match kind {\n\
             TimerKind::Heartbeat => {} _ => {} } } }",
        );
        let findings = check(&[f]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::ObligationLeak);
        assert_eq!(findings[0].line, 2, "first arm site is the witness");
        assert!(findings[0].message.contains("TimerKind::JobDeadline"));
    }

    #[test]
    fn let_else_and_matches_releases_count() {
        let f = file(
            "crates/core/src/protocol/widget.rs",
            "impl W { pub fn arm(&mut self, out: &mut Vec<Output>) {\n\
             out.push(Output::Timer { delay_ms: 5, kind: TimerKind::DbDone(job) });\n\
             out.push(Output::Timer { delay_ms: 5, kind: TimerKind::Parole(p) });\n\
             }\n\
             pub fn on_timer(&mut self, kind: TimerKind) {\n\
             let TimerKind::DbDone(job) = kind else { return; };\n\
             if matches!(kind, TimerKind::Parole(_)) { } } }",
        );
        let findings = check(&[f]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn driver_handled_sanction_is_per_file() {
        let src = "impl C { pub fn harden(&mut self, out: &mut Vec<Output>) {\n\
             out.push(Output::Timer { delay_ms: 40, kind: TimerKind::Retransmit(seq) });\n\
             } }";
        let sanctioned = file("crates/core/src/protocol/reliable.rs", src);
        assert!(check(&[sanctioned]).is_empty());
        let elsewhere = file("crates/core/src/protocol/widget.rs", src);
        let findings = check(&[elsewhere]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("Retransmit"));
    }

    #[test]
    fn test_code_neither_arms_nor_releases() {
        let f = file(
            "crates/core/src/protocol/widget.rs",
            "#[cfg(test)]\nmod tests {\n\
             fn t(out: &mut Vec<Output>) {\n\
             out.push(Output::Timer { delay_ms: 5, kind: TimerKind::Quarantine(9) });\n\
             } }",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn non_protocol_files_are_out_of_scope() {
        let f = file(
            "crates/core/src/system.rs",
            "fn drive(out: &mut Vec<Output>) {\n\
             out.push(Output::Timer { delay_ms: 5, kind: TimerKind::Quarantine(9) });\n\
             }",
        );
        assert!(check(&[f]).is_empty());
    }
}
