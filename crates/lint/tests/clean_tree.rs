//! The contract this crate exists to keep: the workspace source tree
//! has zero determinism-contract findings. Any regression — a new
//! `Instant::now()`, a HashMap in an order-sensitive path, a panic
//! reachable from a machine — fails here (and in the `sheriff-lint` ci.sh stage) with the
//! exact file and line.

use std::path::PathBuf;

use sheriff_lint::analyze_path;

#[test]
fn workspace_crates_are_clean() {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("crates");
    let findings = analyze_path(&crates).expect("workspace tree readable");
    assert!(
        findings.is_empty(),
        "determinism-contract violations in the tree:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
}
