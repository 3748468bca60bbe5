//! The linter's self-test corpus: each known-bad fixture must trip
//! exactly its own rule (right count, no bleed into other rules), and
//! each pragma-suppressed twin must pass clean.

use std::path::PathBuf;

use sheriff_lint::{analyze_path, Rule};

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rel)
}

fn check_bad(rel: &str, rule: Rule, expected: usize) {
    let findings = analyze_path(&fixture(rel)).expect("fixture readable");
    assert_eq!(
        findings.len(),
        expected,
        "{rel}: wrong finding count: {findings:#?}"
    );
    for f in &findings {
        assert_eq!(f.rule, rule, "{rel}: bled into another rule: {f}");
        assert!(f.line > 0);
    }
}

fn check_clean(rel: &str) {
    let findings = analyze_path(&fixture(rel)).expect("fixture readable");
    assert!(
        findings.is_empty(),
        "{rel}: should be suppressed: {findings:#?}"
    );
}

#[test]
fn no_panic_fixture_trips_only_transitive_panic() {
    // `step` is no handler entry point and nothing calls it: being
    // under `core/src/protocol/` is what makes it a seed. The sixth
    // site is `self.bonus[&selector]`, the map index that
    // `clippy::indexing_slicing` cannot see.
    check_bad(
        "core/src/protocol/no_panic_bad.rs",
        Rule::TransitivePanic,
        6,
    );
}

#[test]
fn reactor_tree_is_inside_the_no_panic_scope() {
    // Twin of the protocol fixture, homed under `wire/src/reactor/`:
    // the scope entry added with the reactor backend must hit the same
    // six sites there.
    check_bad("wire/src/reactor/no_panic_bad.rs", Rule::TransitivePanic, 6);
}

#[test]
fn pragma_suppressed_twins_all_pass() {
    check_clean("core/src/protocol/no_panic_pragma.rs");
}

// ------------------------------------------------------------------
// Cross-file pass corpus: each fixture is a miniature workspace tree.
// ------------------------------------------------------------------

#[test]
fn reach_fixture_trips_only_transitive_panic() {
    // `expect` one hop from the entry, bare index two hops out.
    check_bad("reach_bad", Rule::TransitivePanic, 2);
}

#[test]
fn reach_fixture_second_hop_carries_a_via_witness() {
    let findings = sheriff_lint::analyze_path(&fixture("reach_bad")).expect("fixture readable");
    assert!(
        findings.iter().any(
            |f| f.message.contains("via `decode`") && f.message.contains("machine::on_message")
        ),
        "{findings:#?}"
    );
}

#[test]
fn cross_pass_pragma_twins_all_pass() {
    check_clean("reach_pragma");
}

// ------------------------------------------------------------------
// Concurrency passes (SL201–SL203) and the pragma audit (SL007).
// ------------------------------------------------------------------

#[test]
fn lock_order_fixture_trips_only_lock_order_cycle() {
    // One interprocedural two-function cycle, one finding.
    check_bad("locks_bad", Rule::LockOrderCycle, 1);
}

#[test]
fn lock_order_cycle_carries_one_witness_per_edge() {
    let findings = sheriff_lint::analyze_path(&fixture("locks_bad")).expect("fixture readable");
    let msg = &findings[0].message;
    for needle in [
        "wire::ledger",
        "wire::audit",
        "`post`",
        "`close_period`",
        "`reconcile`",
        "`roll_up`",
    ] {
        assert!(msg.contains(needle), "missing {needle} in: {msg}");
    }
}

#[test]
fn blocking_fixture_trips_only_blocking_under_lock() {
    // Condvar wait under a second guard, recv under a guard, and a
    // transitive fsync through a helper.
    check_bad("blocking_bad", Rule::BlockingUnderLock, 3);
}

#[test]
fn blocking_transitive_finding_names_the_sink() {
    let findings = sheriff_lint::analyze_path(&fixture("blocking_bad")).expect("fixture readable");
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`persist`") && f.message.contains("`sync_all`")),
        "{findings:#?}"
    );
}

#[test]
fn callback_fixture_trips_only_callback_under_lock() {
    check_bad("callback_bad", Rule::CallbackUnderLock, 2);
}

#[test]
fn unused_pragma_fixture_trips_only_unused_pragma() {
    // An allow naming a retired rule (SL101), a stale trailing allow, a
    // typo'd rule name, and a stale allow-item.
    check_bad("unused_pragma_bad.rs", Rule::UnusedPragma, 4);
}

#[test]
fn concurrency_pragma_and_ok_twins_all_pass() {
    check_clean("locks_pragma");
    check_clean("locks_ok");
    check_clean("blocking_pragma");
    check_clean("blocking_ok");
    check_clean("callback_pragma");
    check_clean("callback_ok");
    check_clean("core/src/protocol/unused_pragma_ok.rs");
}

/// Writes `(rel_path, contents)` pairs under a fresh temp tree rooted
/// at `name`, preserving the `crates/...` path shape the scope tables
/// key on, and returns the root.
fn temp_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&root);
    for (rel, contents) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("tree paths have parents"))
            .expect("temp tree");
        std::fs::write(&path, contents).expect("temp write");
    }
    root
}

#[test]
fn reordering_the_wire_locks_is_caught_by_sl201() {
    // Re-introduce the deadlock shape the deployment layer designed
    // out: the reactor asks the fault gate while holding the completion
    // sink's lock, while `drain_peer` takes the gate before the sink — a
    // `wire::state` ↔ `wire::gate` cycle with one witness in each
    // function, in two files. No pragma hides it: deploy.rs and
    // shard.rs are kept pragma-free on purpose.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let live = |rel: &str| {
        std::fs::read_to_string(manifest.join("../wire/src").join(rel)).expect("live source")
    };
    let (deploy, shard, reactor) = (
        live("deploy.rs"),
        live("reactor/shard.rs"),
        live("reactor/reactor.rs"),
    );
    let mutated_reactor = reactor.replace(
        "            (Some(gate), Some(owned)) => ask(&mut gate.lock(), owned.idx),",
        "            (Some(gate), Some(owned)) => {\n                \
         let _held = self.ctx.sink.state.lock();\n                \
         let mut gate = gate.lock();\n                \
         ask(&mut gate, owned.idx)\n            }",
    );
    assert_ne!(reactor, mutated_reactor, "mutation must apply");
    let mutated_shard = shard.replace(
        "    let Ok(mut st) = sink.state.lock() else {",
        "    let _gate = sink.gate.lock();\n    let Ok(mut st) = sink.state.lock() else {",
    );
    assert_ne!(shard, mutated_shard, "mutation must apply");

    let root = temp_tree(
        "sheriff-lint-sl201-mutation",
        &[
            ("crates/wire/src/deploy.rs", &deploy),
            ("crates/wire/src/reactor/shard.rs", &mutated_shard),
            ("crates/wire/src/reactor/reactor.rs", &mutated_reactor),
        ],
    );
    let findings = analyze_path(&root).expect("mutated tree analyzable");
    let cycles: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == Rule::LockOrderCycle)
        .collect();
    assert_eq!(cycles.len(), 1, "{findings:#?}");
    for needle in ["wire::state", "wire::gate", "`ask_gate`", "`drain_peer`"] {
        assert!(
            cycles[0].message.contains(needle),
            "missing {needle} in: {}",
            cycles[0].message
        );
    }

    // And the unmutated tree is clean — the finding is the reorder,
    // not the fixture plumbing.
    let root = temp_tree(
        "sheriff-lint-sl201-clean",
        &[
            ("crates/wire/src/deploy.rs", &deploy),
            ("crates/wire/src/reactor/shard.rs", &shard),
            ("crates/wire/src/reactor/reactor.rs", &reactor),
        ],
    );
    let findings = analyze_path(&root).expect("live tree analyzable");
    assert!(findings.is_empty(), "{findings:#?}");
}
