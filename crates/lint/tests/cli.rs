//! The binary's exit code is the gate `ci.sh` reads, so it is tested as
//! a binary: a `main` that always returned success would pass every
//! library test and the clean-tree stage.

use std::path::PathBuf;
use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sheriff-lint"))
        .args(args)
        .current_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures"))
        .output()
        .expect("sheriff-lint runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn exit_code_tells_known_bad_trees_from_their_clean_twins() {
    for (bad, ok, rule) in [
        ("reach_bad", "reach_pragma", "transitive-panic"),
        ("locks_bad", "locks_ok", "lock-order-cycle"),
    ] {
        let (code, stdout) = run(&[bad]);
        assert_eq!(code, Some(1), "{bad} must fail the gate");
        assert!(stdout.contains(rule), "{bad}: {stdout}");
        assert_eq!(run(&[ok]), (Some(0), String::new()), "{ok} must pass");
    }
    // One bad tree among clean ones still fails the run.
    assert_eq!(run(&["reach_pragma", "locks_bad"]).0, Some(1));
}

#[test]
fn five_rules_are_listed_and_unknown_flags_are_usage_errors() {
    let (code, stdout) = run(&["--list-rules"]);
    assert_eq!(code, Some(0));
    let ids: Vec<&str> = stdout.lines().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(ids, ["SL007", "SL103", "SL201", "SL202", "SL203"]);
    // A retired flag must not be read as "no paths, nothing to report".
    assert_eq!(run(&["--json", "reach_bad"]).0, Some(2));
    assert_eq!(run(&[]).0, Some(2));
}
