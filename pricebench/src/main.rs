//! Command line of the benchmark.
//!
//! `pricebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! is the form `BENCHMARK.json` names: it prints the result object as the
//! last line of standard output. `pricebench noise` repeats that command
//! and holds the spread of every end-to-end metric against its bound.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use pricebench::run::{end_to_end, traced, Better, END_TO_END};
use pricebench::stats::{iqr_share, median, rel_diff};
use pricebench::workloads::WORKLOADS;

const USAGE: &str = "usage:
  pricebench --workload <tcp_serial|tcp_window|des_open|kmeans_private> \\
             [--seed 31] [--seconds 25] [--trace 0|1]
  pricebench noise [--runs 10] [--seed 31] [--seconds 25]";

/// Value of `--flag` in `args`, parsed; `default` when absent.
fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{name} needs a value\n{USAGE}")),
    }
}

/// Where this build's outputs go: `<target dir>/pricebench`, next to the
/// executable, so they stay inside the checkout that built it.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("pricebench")))
        .unwrap_or_else(|| PathBuf::from("pricebench/target/pricebench"))
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let workload: String = flag(args, "--workload", String::new())?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let seed: u64 = flag(args, "--seed", 31)?;
    let seconds: f64 = flag(args, "--seconds", 25.0)?;
    let trace: u8 = flag(args, "--trace", 0)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }

    // The v2 Database server fsyncs its WAL once per check under
    // `std::env::temp_dir()`; keep that inside the checkout.
    let out = out_dir();
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    eprintln!(
        "pricebench: workload={workload} seed={seed} seconds={seconds} trace={trace} \
         nproc={} TMPDIR={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        tmp.display()
    );

    let outcome = if trace == 0 {
        end_to_end(&workload, seed, seconds, 1)
    } else {
        traced(&workload, seed, seconds, 1, &out)
    };
    for e in outcome.errors.iter().take(10) {
        eprintln!("pricebench: WRONG OUTPUT: {e}");
    }
    println!("{}", outcome.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `metrics.<name>.value` of a result line.
fn value_in(line: &str, name: &str) -> Option<f64> {
    let v = serde_json::from_str_value(line).ok()?;
    let metric = v.as_object()?.get("metrics")?.as_object()?.get(name)?;
    metric.as_object()?.get("value")?.as_f64()
}

/// One set of runs: per workload, per end-to-end metric, `runs` values.
type Set = Vec<Vec<Vec<f64>>>;

fn run_set(runs: u64, seed: u64, seconds: f64) -> Result<Set, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut set = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for i in 0..runs {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &(seed + i).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            if !out.status.success() {
                return Err(format!(
                    "{workload} seed {} failed: {line}\n{}",
                    seed + i,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            for (m, def) in END_TO_END.iter().enumerate() {
                let v = value_in(line, def.name)
                    .ok_or_else(|| format!("{workload}: no {} in {line}", def.name))?;
                set[w][m].push(v);
            }
            eprintln!("{workload} seed {}: {line}", seed + i);
        }
    }
    Ok(set)
}

/// Two sets of runs of the same binary, A then B; the acceptance rule
/// of the benchmark applied to itself. Breach → exit code 1.
fn noise(args: &[String]) -> Result<ExitCode, String> {
    let runs: u64 = flag(args, "--runs", 10)?;
    let seed: u64 = flag(args, "--seed", 31)?;
    let seconds: f64 = flag(args, "--seconds", 25.0)?;
    if runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    let a = run_set(runs, seed, seconds)?;
    let b = run_set(runs, seed, seconds)?;
    let mut breaches = 0;
    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let (va, vb) = (&a[w][m], &b[w][m]);
            let (ma, mb) = (median(va), median(vb));
            let worse = match def.better {
                Better::Lower => rel_diff(ma, mb),
                Better::Higher => -rel_diff(ma, mb),
            };
            let (sa, sb) = (iqr_share(va), iqr_share(vb));
            // Set-up time is held to its medians only.
            let spread_ok = def.name == "setup_s" || sa.max(sb) <= def.bound;
            let ok = spread_ok && worse <= def.bound;
            breaches += usize::from(!ok);
            println!(
                "| {workload} | {} | {ma:.4} | {mb:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                def.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                def.bound * 100.0,
                if ok { "ok" } else { "BREACH" }
            );
        }
    }
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("pricebench: refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = if args.first().is_some_and(|a| a == "noise") {
        noise(&args)
    } else {
        run_one(&args)
    };
    res.unwrap_or_else(|e| {
        eprintln!("pricebench: {e}");
        ExitCode::from(2)
    })
}
