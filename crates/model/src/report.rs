//! The `--json` machine-readable report.
//!
//! Hand-rolled serialization: the report is a small, fixed shape, and
//! writing it directly keeps `sheriff-model` dependency-free and the
//! byte output deterministic (keys in fixed order, no float formatting,
//! no wall-clock timestamps — CI archives these and diffs across runs).

use std::fmt::Write as _;

use crate::explore::{Outcome, Violation};
use crate::world::Event;

/// Bumped whenever the report shape changes.
pub const SCHEMA_VERSION: u32 = 2;

fn esc(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn event_json(out: &mut String, event: Event) {
    match event {
        Event::Deliver { slot } => {
            let _ = write!(out, "{{\"kind\":\"deliver\",\"slot\":{slot}}}");
        }
        Event::Duplicate { slot } => {
            let _ = write!(out, "{{\"kind\":\"duplicate\",\"slot\":{slot}}}");
        }
        Event::Drop { slot } => {
            let _ = write!(out, "{{\"kind\":\"drop\",\"slot\":{slot}}}");
        }
        Event::FireTimer { slot } => {
            let _ = write!(out, "{{\"kind\":\"fire_timer\",\"slot\":{slot}}}");
        }
        Event::CrashRestart { node } => {
            out.push_str("{\"kind\":\"crash_restart\",\"node\":");
            esc(out, &format!("{node:?}"));
            out.push('}');
        }
        Event::Inject { index } => {
            let _ = write!(out, "{{\"kind\":\"inject\",\"index\":{index}}}");
        }
    }
}

fn violations_json(out: &mut String, list: &[Violation]) {
    out.push('[');
    for (i, v) in list.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"rule\":");
        esc(out, &v.rule);
        out.push_str(",\"detail\":");
        esc(out, &v.detail);
        let _ = write!(out, ",\"at_quiescence\":{}", v.at_quiescence);
        out.push_str(",\"trace\":[");
        for (j, step) in v.trace.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"event\":");
            event_json(out, step.event);
            out.push_str(",\"desc\":");
            esc(out, &step.desc);
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
}

/// Renders one world's outcome as a JSON object (no trailing newline).
pub fn outcome_json(outcome: &Outcome) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"world\":");
    esc(&mut out, outcome.cfg.kind.name());
    out.push_str(",\"mutation\":");
    match outcome.cfg.mutation {
        Some(m) => esc(&mut out, m.name()),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"depth\":{},\"budgets\":{{\"duplicate\":{},\"drop\":{},\"crash\":{}}}",
        outcome.depth_limit,
        outcome.cfg.dup_budget,
        outcome.cfg.drop_budget,
        outcome.cfg.crash_budget
    );
    let _ = write!(
        out,
        ",\"stats\":{{\"states\":{},\"transitions\":{},\"deduped\":{},\"truncated\":{},\"max_depth\":{}}}",
        outcome.stats.states,
        outcome.stats.transitions,
        outcome.stats.deduped,
        outcome.stats.truncated,
        outcome.stats.max_depth
    );
    let _ = write!(out, ",\"violations_total\":{}", outcome.violations_total);
    out.push_str(",\"violations\":");
    violations_json(&mut out, &outcome.violations);
    let _ = write!(out, ",\"ok\":{}}}", outcome.ok());
    out
}

/// Renders the full multi-world report.
pub fn report_json(outcomes: &[Outcome]) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(out, "{{\"schema_version\":{SCHEMA_VERSION},\"runs\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&outcome_json(o));
    }
    let all_ok = outcomes.iter().all(Outcome::ok);
    let _ = write!(out, "],\"ok\":{all_ok}}}");
    out.push('\n');
    out
}
