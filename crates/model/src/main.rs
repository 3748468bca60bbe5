//! `sheriff-model` CLI: explore one or more worlds, print findings,
//! optionally archive a JSON report.
//!
//! ```text
//! sheriff-model [--world small|giveup|byzantine]... [--depth N]
//!               [--mutate drop-db-done-arm|drop-retransmit-arm|ignore-abandoned|
//!                         ack-at-hand-off]
//!               [--json PATH]
//! ```
//!
//! With no `--world`, all three canonical worlds run; with no
//! `--depth`, each world uses its CI-pinned depth
//! ([`WorldKind::ci_depth`]). Exit status: `0`
//! when every run is clean, `1` when any violation was found, `2` on
//! usage errors.

use std::process::ExitCode;

use sheriff_model::{explore, report_json, Mutation, WorldCfg, WorldKind};

fn usage() -> ExitCode {
    eprintln!(
        "usage: sheriff-model [--world small|giveup|byzantine]... [--depth N] \
         [--mutate NAME] [--json PATH]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut worlds: Vec<WorldKind> = Vec::new();
    let mut depth: Option<usize> = None;
    let mut mutation: Option<Mutation> = None;
    let mut json_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--world" => match args.next().as_deref().and_then(WorldKind::parse) {
                Some(w) => worlds.push(w),
                None => return usage(),
            },
            "--depth" => match args.next().and_then(|s| s.parse().ok()) {
                Some(d) => depth = Some(d),
                None => return usage(),
            },
            "--mutate" => match args.next().as_deref().and_then(Mutation::parse) {
                Some(m) => mutation = Some(m),
                None => return usage(),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if worlds.is_empty() {
        worlds = vec![WorldKind::Small, WorldKind::Giveup, WorldKind::Byzantine];
    }

    let mut outcomes = Vec::new();
    for kind in worlds {
        let mut cfg = WorldCfg::preset(kind);
        if let Some(m) = mutation {
            cfg = cfg.with_mutation(m);
        }
        let depth = depth.unwrap_or_else(|| kind.ci_depth());
        let outcome = explore(cfg, depth);
        println!(
            "world {:>9}  depth {:>2}  states {:>7}  transitions {:>8}  violations {}",
            kind.name(),
            depth,
            outcome.stats.states,
            outcome.stats.transitions,
            outcome.violations_total,
        );
        for v in &outcome.violations {
            println!("  VIOLATION {}: {}", v.rule, v.detail);
            for (i, step) in v.trace.iter().enumerate() {
                println!("    {i:>2}. {}", step.desc);
            }
        }
        outcomes.push(outcome);
    }

    let report = report_json(&outcomes);
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("sheriff-model: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if outcomes.iter().all(sheriff_model::Outcome::ok) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
