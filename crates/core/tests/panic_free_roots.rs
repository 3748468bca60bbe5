//! The protocol machines, the reactor and everything they reach must not
//! panic (§3.2's servers run unattended on input they do not control).
//! Clippy enforces that through one `#![deny(...)]` header at the root
//! of each crate they reach, and the clippy stage of `ci.sh` only sees a
//! header that is there. This test fails when a header is dropped,
//! narrowed or overridden at the root.

use std::path::Path;

/// The crates the protocol machines and the reactor reach. `bigint`,
/// `crypto`, `kmeans`, `stats` and `model` are not among them.
const ROOTS: [&str; 8] = [
    "core",
    "wire",
    "html",
    "market",
    "telemetry",
    "geo",
    "netsim",
    "currency",
];

const LINTS: [&str; 7] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::indexing_slicing",
];

/// The lint names of every inner attribute `#![<level>(...)]` at the
/// crate root, skipping comments.
fn root_lints(src: &str, level: &str) -> Vec<String> {
    let code: String = src
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n");
    let open = format!("#![{level}(");
    code.match_indices(&open)
        .flat_map(|(at, _)| {
            let args = &code[at + open.len()..];
            let args = &args[..args.find(")]").unwrap_or(args.len())];
            args.split(',').map(|a| a.trim().to_string())
        })
        .filter(|a| !a.is_empty())
        .collect()
}

#[test]
fn every_crate_the_protocol_reaches_denies_panics_at_its_root() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for krate in ROOTS {
        let path = crates.join(krate).join("src/lib.rs");
        let src = std::fs::read_to_string(&path).expect("crate root readable");
        let denied = root_lints(&src, "deny");
        for lint in LINTS {
            assert!(
                denied.iter().any(|d| d == lint),
                "{}: `{lint}` is not denied at the crate root",
                path.display()
            );
        }
        for level in ["allow", "warn", "expect"] {
            let loosened: Vec<_> = root_lints(&src, level)
                .into_iter()
                .filter(|l| LINTS.contains(&l.as_str()))
                .collect();
            assert!(
                loosened.is_empty(),
                "{}: the root {level}s {loosened:?}",
                path.display()
            );
        }
    }
}

#[test]
fn the_header_reader_sees_a_missing_or_commented_lint() {
    let whole = "#![deny(\n    clippy::panic,\n    clippy::todo\n)]\n";
    assert_eq!(root_lints(whole, "deny"), ["clippy::panic", "clippy::todo"]);
    let commented = "#![deny(\n    // clippy::panic,\n    clippy::todo\n)]\n";
    assert_eq!(root_lints(commented, "deny"), ["clippy::todo"]);
    assert!(root_lints("// #![deny(clippy::panic)]\n", "deny").is_empty());
}
