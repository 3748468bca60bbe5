#![forbid(unsafe_code)]
//! CLI: `sheriff-lint [--list-rules] <path>...`
//!
//! Exits 0 when every given tree is clean, 1 when any finding is
//! reported, 2 on usage or I/O errors. `ci.sh` runs it over `crates`
//! as a named stage (which also times it). Findings go to stdout, the
//! summary line to stderr.

use std::path::Path;
use std::process::ExitCode;

use sheriff_lint::{analyze, ALL_RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list-rules") {
        for rule in ALL_RULES {
            println!("{:<7} {:<19} {}", rule.id(), rule.name(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        usage();
        return ExitCode::from(2);
    }

    let (mut files, mut findings) = (0, Vec::new());
    for arg in &args {
        match analyze(Path::new(arg)) {
            Ok(r) => {
                files += r.files;
                findings.extend(r.findings);
            }
            Err(e) => {
                eprintln!("sheriff-lint: {arg}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    for f in &findings {
        println!("{f}");
    }
    eprintln!(
        "sheriff-lint: {files} file(s), {} rules, {} finding(s)",
        ALL_RULES.len(),
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage() {
    eprintln!("usage: sheriff-lint [--list-rules] <path>...");
    eprintln!("       checks .rs files for panic sites the protocol reaches and lock misuse");
}
