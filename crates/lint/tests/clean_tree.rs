//! The contract this crate exists to keep: the workspace source tree
//! has zero findings. Any regression — peer plaintext reaching a sink, a
//! panic in or reachable from a machine, a lock-order cycle — fails here
//! (and in the `sheriff-lint` ci.sh stage) with the exact file and line.
//! And the one table that describes the live workspace, the crate
//! layering the call graph resolves against, must match the manifests.

use std::collections::BTreeSet;
use std::path::PathBuf;

use sheriff_lint::analyze_path;
use sheriff_lint::config::{crate_layer, CRATE_LAYERS};

fn crates_dir() -> PathBuf {
    // Through the workspace root, so every path ends `crates/<name>/…`
    // — the shape the layer table keys on.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../crates")
}

#[test]
fn workspace_crates_are_clean() {
    let findings = analyze_path(&crates_dir()).expect("workspace tree readable");
    assert!(
        findings.is_empty(),
        "determinism-contract violations in the tree:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
}

#[test]
fn crate_layers_match_the_manifests() {
    // A crate missing from the table resolves unconstrained and a
    // dependency on an equal or higher layer silently drops its
    // call-graph edges, so drift is a failure here, not a quieter lint.
    let mut dirs = BTreeSet::new();
    for entry in std::fs::read_dir(crates_dir()).expect("crates/ readable") {
        let dir = entry.expect("dir entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        let layer_of = |krate: &str| crate_layer(&format!("crates/{krate}/src/lib.rs"));
        let layer = layer_of(name).unwrap_or_else(|| panic!("`{name}` is not in CRATE_LAYERS"));
        let deps = manifest
            .lines()
            .skip_while(|l| l.trim() != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.trim().strip_prefix("sheriff-"))
            .filter_map(|l| l.split([' ', '=']).next());
        for dep in deps {
            let below = layer_of(dep).unwrap_or_else(|| panic!("`{dep}` is not in CRATE_LAYERS"));
            assert!(
                below < layer,
                "`{name}` (layer {layer}) depends on `{dep}` (layer {below}): not strictly lower"
            );
        }
        dirs.insert(name.to_string());
    }
    let table: BTreeSet<String> = CRATE_LAYERS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(table, dirs, "CRATE_LAYERS rows vs crates/*/Cargo.toml");
}
