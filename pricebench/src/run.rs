//! One benchmark run: repetitions of a workload reduced to the metrics
//! `BENCHMARK.json` names, and the result line the driver reads.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use crate::host::Probe;
use crate::layers;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{op_span, run_rep, Rep, Scale, REPS};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload with tracing off.
/// On `des_open`, `op_ms_p50` is *virtual* milliseconds from submission to
/// completion (Table 1's response time). Every other time is wall on the
/// TCP workloads and at reference host speed on `des_open` and
/// `kmeans_private`.
///
/// No tail percentile is gated: every metric here is reported by every
/// workload, and on the CPU-bound ones the pooled 90th percentile moved
/// by 26 % between two sets of runs of the same binary (README, "Noise,
/// measured"). The tail is printed to standard error and, for the traced
/// repetition, as the per-layer `run.op_ms_p95`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// What a run prints as its last line.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output-check failures, for the human reading stderr.
    pub errors: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`; every value with all its digits.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Each repetition gets its own inputs, all derived from `--seed`.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(rep as u64)
}

/// `percentile`, or NaN (which fails the run) when nothing was sampled.
fn percentile_or_nan(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        percentile(values, p)
    }
}

/// About this many layer metrics are timed; they share half of a traced
/// run's `--seconds` evenly.
const TIMED_LAYER_METRICS: f64 = 50.0;

fn outcome(reps: &[Rep], metrics: Vec<Metric>) -> Outcome {
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let errors: Vec<String> = reps.iter().flat_map(|r| r.errors.clone()).collect();
    Outcome {
        correct: failed == 0 && errors.is_empty() && metrics.iter().all(|m| m.value.is_finite()),
        attempted: reps.iter().map(|r| r.ops + r.failed).sum::<u64>().max(1),
        failed,
        metrics,
        errors,
    }
}

/// The untraced run: `REPS` repetitions sharing `seconds` of timed work.
///
/// Throughput and set-up time are the median repetition's; the median
/// latency is taken over the pooled samples of all repetitions. All are
/// at reference host speed where the workload is host-adjusted (see
/// [`crate::host`]); standard error also gets the wall-clock throughput,
/// the host slowdown and the highest percentile the samples support.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64, warmup_div: usize) -> Outcome {
    let scale = Scale {
        timed: Duration::from_secs_f64(seconds / REPS as f64),
        warmup_div,
    };
    let probe = Probe::new();
    let mut off = Tracer::new(false);
    let reps: Vec<Rep> = (0..REPS)
        .map(|i| {
            run_rep(
                workload,
                rep_seed(seed, i),
                scale,
                &probe,
                &mut off,
                i as u64,
            )
        })
        .collect();
    let rates: Vec<f64> = reps.iter().map(Rep::ops_per_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let lat: Vec<f64> = reps.iter().flat_map(|r| r.lat_ms.iter().copied()).collect();
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "ops_per_s" => median(&rates),
                "op_ms_p50" => percentile_or_nan(&lat, 50.0),
                "setup_s" => median(&setups),
                other => unreachable!("no rule for metric {other}"),
            };
            Metric::new(m.name, m.unit, v)
        })
        .collect();
    let wall_rates: Vec<f64> = reps.iter().map(Rep::wall_ops_per_s).collect();
    let slowdown: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.slowdown.iter().copied())
        .collect();
    eprintln!(
        "{workload}: ops_per_s of the {REPS} repetitions {rates:.3?}, by the wall clock {wall_rates:.3?}; \
         setup_s {setups:.3?}; host slowdown {}; {} latency samples, {}",
        if slowdown.is_empty() {
            "not read".to_string()
        } else {
            format!("median {:.3} of {} readings", median(&slowdown), slowdown.len())
        },
        lat.len(),
        highest_supported_percentile(lat.len()).map_or("too few for a percentile".into(), |p| {
            format!("op_ms_p{p} = {:.3}", percentile(&lat, p))
        }),
    );
    outcome(&reps, metrics)
}

/// Rate of `op_span`-named operations in the first and last quarter of
/// the window from the start of `timed` to the last operation's end.
fn quarter_rates(tr: &Tracer, op_span: &str, ops_per_span: f64) -> (f64, f64) {
    let spans = tr.spans();
    let Some(start) = spans.iter().find(|s| s.name == "timed").map(|s| s.start_ns) else {
        return (0.0, 0.0);
    };
    let ends: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == op_span)
        .map(|s| s.end_ns)
        .collect();
    let Some(&last) = ends.iter().max() else {
        return (0.0, 0.0);
    };
    let quarter = (last - start) as f64 / 4.0;
    let rate = |from: f64, to: f64| {
        let n = ends
            .iter()
            .filter(|&&e| (e - start) as f64 > from && (e - start) as f64 <= to)
            .count();
        n as f64 * ops_per_span / (quarter / 1e9)
    };
    (rate(0.0, quarter), rate(3.0 * quarter, 4.0 * quarter))
}

/// `utime + stime` of this process, seconds (`/proc/self/stat`).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks of 1/100 s.
    let rest = stat.rsplit(") ").next().unwrap_or("");
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The traced run: one untraced and one traced repetition at a quarter
/// of `seconds` each (their difference is the tracing overhead), then
/// every layer measurement in the remaining half. Spans are written to
/// `out_dir/trace-<workload>.json`; the per-name time table goes to
/// stderr.
pub fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    warmup_div: usize,
    out_dir: &Path,
) -> Outcome {
    let scale = Scale {
        timed: Duration::from_secs_f64(seconds / 4.0),
        warmup_div,
    };
    let probe = Probe::new();
    let mut off = Tracer::new(false);
    let plain = run_rep(workload, rep_seed(seed, 0), scale, &probe, &mut off, 0);
    let mut tr = Tracer::new(true);
    let cpu0 = cpu_seconds();
    let rep = run_rep(workload, rep_seed(seed, 0), scale, &probe, &mut tr, 0);
    // The probe is one busy thread: its wall time is CPU time.
    let cpu_s = cpu_seconds() - cpu0 - rep.probe_s;
    let rss_mb = peak_rss_mb();

    let (op_span, ops_per_span) = op_span(workload);
    let (first_q, last_q) = quarter_rates(&tr, op_span, ops_per_span);
    let ops = rep.ops.max(1) as f64;
    let c = rep.counts;
    let metric = Metric::new;
    let mut metrics = vec![
        metric("trace.ops_per_s_untraced", "1/s", plain.ops_per_s()),
        metric("trace.ops_per_s_traced", "1/s", rep.ops_per_s()),
        metric(
            "trace.overhead_pct",
            "%",
            (plain.ops_per_s() / rep.ops_per_s() - 1.0) * 100.0,
        ),
        metric("run.ops_per_s_wall", "1/s", rep.wall_ops_per_s()),
        metric(
            "host.slowdown",
            "ratio",
            if rep.slowdown.is_empty() {
                probe.slowdown()
            } else {
                median(&rep.slowdown)
            },
        ),
        metric("run.op_ms_p95", "ms", percentile_or_nan(&rep.lat_ms, 95.0)),
        metric("run.ops_per_s_first_quarter", "1/s", first_q),
        metric("run.ops_per_s_last_quarter", "1/s", last_q),
        metric("wire.frames_per_check", "count", c.frames as f64 / ops),
        metric("wire.bytes_per_check", "B", c.bytes as f64 / ops),
        metric("wire.wakeups_per_check", "count", c.wakeups as f64 / ops),
        metric(
            "wire.shard_queue_depth_max",
            "count",
            c.queue_depth_max as f64,
        ),
        metric(
            "core.system.events_per_check",
            "count",
            c.events as f64 / ops,
        ),
        metric(
            "core.system.ns_per_event",
            "ns",
            if c.events == 0 {
                0.0
            } else {
                rep.wall_s * 1e9 / c.events as f64
            },
        ),
        metric("core.protocol.retransmits", "count", c.retransmits as f64),
        metric("core.protocol.dedup_hits", "count", c.dedup_hits as f64),
        metric("proc.cpu_ms_per_op", "ms", cpu_s * 1e3 / ops),
        metric("proc.peak_rss_mb", "MB", rss_mb),
    ];

    std::fs::create_dir_all(out_dir).expect("create output directory");
    let path = out_dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tr.to_json()).expect("write trace");
    eprintln!(
        "{workload}: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    eprintln!("| span | count | total ms | self ms | self share of repetition |");
    eprintln!("|---|---:|---:|---:|---:|");
    let rows = tr.time_by_name();
    let whole = rows
        .iter()
        .find(|r| r.name == "repetition")
        .map_or(1, |r| r.total_ns.max(1)) as f64;
    for r in &rows {
        eprintln!(
            "| {} | {} | {:.1} | {:.1} | {:.1} % |",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            r.self_ns as f64 / whole * 100.0
        );
    }

    let budget = Duration::from_secs_f64(seconds / 2.0 / TIMED_LAYER_METRICS);
    metrics.extend(layers::measure_all(budget, &out_dir.join("tmp"), seed));
    outcome(&[plain, rep], metrics)
}
