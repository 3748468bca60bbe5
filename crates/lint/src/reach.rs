//! Transitive panic-freedom: nothing in the protocol machines or the
//! reactor, and nothing they can reach, may panic.
//!
//! A state machine that calls into a helper crate inherits that
//! helper's panics: an `unwrap` in `crypto` or `wire` takes down the
//! driver thread under exactly the chaos schedules the protocol is
//! supposed to absorb. This pass seeds a walk of the workspace call
//! graph with *every* non-test function under
//! [`crate::config::NO_PANIC_SCOPE`] — so one rule covers "in the
//! machines" and "reachable from them" — and applies the panic-token
//! scan to each reached function body, wherever it lives.
//!
//! Test trees and `#[cfg(test)]` items are skipped. A finding outside
//! the scope carries its witness: the scope function it is reachable
//! from and the direct caller the walk arrived through.

use std::collections::BTreeMap;

use crate::config;
use crate::graph::{CallGraph, FnId, SourceFile};
use crate::rules::{no_panic, Finding, Hits, Rule};

/// Runs the pass over a built call graph.
pub fn check(files: &[SourceFile], graph: &CallGraph) -> Vec<Finding> {
    let mut reachable: BTreeMap<FnId, FnId> = BTreeMap::new(); // fn → caller
    let mut queue = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if !f.in_tests && config::matches_any(&f.path, config::NO_PANIC_SCOPE) {
            reachable.insert(id, id); // seeds are their own caller
            queue.push(id);
        }
    }

    while let Some(id) = queue.pop() {
        if let Some(callees) = graph.edges.get(id) {
            for &callee in callees {
                if graph.fns[callee].in_tests || reachable.contains_key(&callee) {
                    continue;
                }
                reachable.insert(callee, id);
                queue.push(callee);
            }
        }
    }

    let mut findings = Vec::new();
    for (&id, &caller) in &reachable {
        let f = &graph.fns[id];
        if config::matches_any(&f.path, config::TEST_TREE_MARKERS) {
            continue;
        }
        let toks = &files[f.file].toks;
        let end = f.end.min(toks.len());
        let mut hits: Hits = Vec::new();
        no_panic(&toks[f.start..end], &mut hits);
        if hits.is_empty() {
            continue;
        }
        let why = if caller == id {
            "is in the panic-freedom scope".to_string()
        } else {
            let seed = seed_of(&reachable, id);
            let via = if caller == seed {
                String::new()
            } else {
                format!(" via `{}`", graph.fns[caller].name)
            };
            let s = &graph.fns[seed];
            format!("is reachable from `{}::{}`{via}", s.module, s.name)
        };
        for (idx, msg) in hits {
            findings.push(Finding {
                path: f.path.clone(),
                line: toks[f.start + idx].line,
                rule: Rule::TransitivePanic,
                message: format!("`{}` {why}: {msg}", f.name),
            });
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    findings.dedup_by(|a, b| (&a.path, a.line, &a.message) == (&b.path, b.line, &b.message));
    findings
}

/// Walks the caller chain back to the seed.
fn seed_of(reachable: &BTreeMap<FnId, FnId>, mut id: FnId) -> FnId {
    loop {
        let Some(&parent) = reachable.get(&id) else {
            return id;
        };
        if parent == id {
            return id;
        }
        id = parent;
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

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        check(&files, &CallGraph::build(&files))
    }

    #[test]
    fn panic_in_reachable_helper_crate_is_flagged() {
        let findings = run(vec![
            file(
                "crates/core/src/protocol/peer.rs",
                "impl P { pub fn on_message(&mut self) { seal_payload(); } }",
            ),
            file(
                "crates/crypto/src/seal.rs",
                "pub fn seal_payload() { let x: Option<u8> = None; x.unwrap(); }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::TransitivePanic);
        assert!(findings[0].path.contains("crypto"));
        assert!(findings[0].message.contains("peer::on_message"));
    }

    #[test]
    fn unreachable_panic_is_not_flagged() {
        let findings = run(vec![
            file(
                "crates/core/src/protocol/peer.rs",
                "impl P { pub fn on_message(&mut self) {} }",
            ),
            file(
                "crates/crypto/src/seal.rs",
                "pub fn orphan() { let x: Option<u8> = None; x.unwrap(); }",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn every_fn_in_the_scope_dirs_is_a_seed() {
        // Neither is a handler entry point, neither is called.
        let findings = run(vec![
            file(
                "crates/core/src/protocol/peer.rs",
                "impl P { fn helper(&self) { let x: Option<u8> = None; x.unwrap(); } }",
            ),
            file(
                "crates/wire/src/reactor/conn.rs",
                "fn pump(m: &BTreeMap<u8, u8>, k: u8) -> u8 { m[&k] }",
            ),
        ]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.message.contains("is in the panic-freedom scope")));
    }

    #[test]
    fn witness_names_the_direct_caller() {
        let findings = run(vec![
            file(
                "crates/core/src/protocol/measurement.rs",
                "impl M { pub fn on_timer(&mut self) { pack_rows(); } }",
            ),
            file(
                "crates/html/src/pack.rs",
                "pub fn pack_rows() { row_bytes(); }\n\
                 pub fn row_bytes() -> u8 { let v = vec![1u8]; v[0] }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("via `pack_rows`"));
        assert!(findings[0].message.contains("measurement::on_timer"));
    }

    #[test]
    fn cfg_test_helpers_are_exempt() {
        let findings = run(vec![
            file(
                "crates/core/src/protocol/peer.rs",
                "impl P { pub fn on_message(&mut self) { seal_payload(); } }",
            ),
            file(
                "crates/crypto/src/seal.rs",
                "pub fn seal_payload() {}\n\
                 #[cfg(test)]\nfn seal_helper() { x.unwrap(); }",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
