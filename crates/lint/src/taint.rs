//! Privacy-taint pass: peer plaintext may only leave as ciphertext.
//!
//! The §4 contract: peers' personal data (browsing identity, profile
//! vectors, doppelganger client state) leaves a node only under
//! ElGamal/IPFE encryption. This pass proves a static approximation of
//! that over the workspace call graph:
//!
//! * A function is **tainted** when it reads a declared source field
//!   ([`crate::config::TAINT_SOURCE_FIELDS`]) or calls a declared
//!   source accessor, or when a tainted function calls it (arguments
//!   flow down the call tree).
//! * A function **sanitizes** when it calls one of the declared
//!   `crypto::elgamal`/`crypto::ipfe` encryption entry points; taint
//!   neither propagates out of a sanitizing function nor counts against
//!   its own sink calls — whatever it emits is deemed ciphertext.
//! * A **finding** is a call from a tainted, non-sanitizing function to
//!   a declared sink: wire frame serialization, telemetry label
//!   registration, or an experiment report writer.
//!
//! The pass is flow-insensitive inside a function (one sanitizer call
//! cleanses the whole function) and name-based across them; what it
//! buys is the cross-file guarantee no per-line check can give —
//! a refactor that pipes `PpcEngine::browser` into a frame writer three
//! crates away fails CI with the witness path.

use std::collections::BTreeMap;

use crate::config;
use crate::graph::{CallGraph, FnId};
use crate::rules::{Finding, Rule};

/// Runs the pass over a built call graph.
pub fn check(graph: &CallGraph) -> Vec<Finding> {
    // Seed: functions that touch a source directly.
    let mut tainted: BTreeMap<FnId, FnId> = BTreeMap::new(); // fn → taint origin
    let mut queue = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if f.in_tests || config::matches_any(&f.path, config::TAINT_EXEMPT) {
            continue;
        }
        // Harness/driver files read spec fields to *construct* peers;
        // they are not origins (but stay flaggable via propagation).
        if config::matches_any(&f.path, config::TAINT_SEED_EXEMPT) {
            continue;
        }
        if !f.reads.is_empty() || f.calls_source_fn {
            tainted.insert(id, id);
            queue.push(id);
        }
    }

    // Propagate down the call tree, stopping at sanitizing functions.
    while let Some(id) = queue.pop() {
        if graph.fns[id].sanitizes {
            continue;
        }
        let origin = tainted.get(&id).copied().unwrap_or(id);
        if let Some(callees) = graph.edges.get(id) {
            for &callee in callees {
                let cf = &graph.fns[callee];
                if cf.in_tests || config::matches_any(&cf.path, config::TAINT_EXEMPT) {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = tainted.entry(callee) {
                    e.insert(origin);
                    queue.push(callee);
                }
            }
        }
    }

    // Findings: sink calls from tainted, non-sanitizing functions.
    let mut findings = Vec::new();
    for (&id, &origin) in &tainted {
        let f = &graph.fns[id];
        if f.sanitizes {
            continue;
        }
        for (sink, line) in &f.sink_calls {
            let o = &graph.fns[origin];
            let via = if origin == id {
                String::new()
            } else {
                format!(" (tainted via `{}` at {}:{})", o.name, o.path, o.line)
            };
            let source = if o.reads.is_empty() {
                "a declared source accessor".to_string()
            } else {
                format!("source field `{}`", o.reads.join("`, `"))
            };
            findings.push(Finding {
                path: f.path.clone(),
                line: *line,
                rule: Rule::PrivacyTaint,
                message: format!(
                    "`{}` reaches sink `{sink}` carrying {source}{via}; \
                     route it through crypto::elgamal/crypto::ipfe first",
                    f.name
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SourceFile;
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

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        check(&CallGraph::build(&files))
    }

    #[test]
    fn direct_source_to_sink_is_flagged() {
        let findings = run(vec![file(
            "crates/core/src/leak.rs",
            "fn leak(e: &Engine, w: &mut W) { let a = e.affluence; write_frame(w, &[a as u8]); }",
        )]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::PrivacyTaint);
        assert!(findings[0].message.contains("affluence"));
    }

    #[test]
    fn sanitizer_call_cleanses_the_function() {
        let findings = run(vec![file(
            "crates/core/src/ok.rs",
            "fn fine(e: &Engine, w: &mut W) { let a = e.affluence; \
             let ct = encrypt(a); write_frame(w, &ct); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn taint_propagates_through_helpers_across_files() {
        let findings = run(vec![
            file(
                "crates/core/src/a.rs",
                "fn top(e: &Engine, w: &mut W) { let a = e.affluence; emit(w, a); }",
            ),
            file(
                "crates/crypto/src/b.rs",
                "pub fn emit(w: &mut W, a: f64) { write_frame(w, &[a as u8]); }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].path.contains("crypto/src/b.rs"));
        assert!(findings[0].message.contains("tainted via"));
    }

    #[test]
    fn sanitizing_helper_stops_propagation() {
        let findings = run(vec![file(
            "crates/core/src/a.rs",
            "fn read_it(e: &Engine) -> Vec<u8> { let a = e.affluence; client_vector(&[a as u64]) }\n\
             fn top(e: &Engine, w: &mut W) { let v = read_it(e); }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let findings = run(vec![file(
            "crates/core/tests/leak.rs",
            "fn leak(e: &Engine, w: &mut W) { let a = e.affluence; write_frame(w, &[1]); }",
        )]);
        assert!(findings.is_empty());
    }
}
