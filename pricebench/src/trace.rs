//! Benchmark-side spans: recorded around the calls into each layer,
//! kept in memory, written out when the run ends. Spans inside the
//! program are a later change (ROADMAP item 4).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes [`Tracer::spans`]; spans of one
/// operation share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Handle of an open span, returned by [`Tracer::open`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder. A disabled tracer records nothing, so the same
/// workload code runs traced and untraced.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` for operation `op`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            op,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// The parent of top-level spans.
    pub fn root() -> SpanId {
        SpanId(None)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }

    /// Per span name: how many, total time, and self time — duration
    /// minus the part of the interval covered by child spans.
    pub fn time_by_name(&self) -> Vec<NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_insert(NameTotal {
                name: s.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.count += 1;
            e.total_ns += total;
            // Children of a windowed parent overlap each other, so their
            // sum can exceed the parent; self time bottoms out at zero.
            e.self_ns += total.saturating_sub(child);
        }
        by_name.into_values().collect()
    }
}

/// One row of [`Tracer::time_by_name`].
#[derive(Clone, Debug, PartialEq)]
pub struct NameTotal {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("rep", Tracer::root(), 0);
        t.close(s);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(), "[\n]");
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let rep = t.open("rep", Tracer::root(), 0);
        let a = t.open("check", rep, 1);
        t.close(a);
        let b = t.open("check", rep, 2);
        t.close(b);
        t.close(rep);
        // Pin the clock readings so the arithmetic is checkable.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 40;
        t.spans[2].start_ns = 50;
        t.spans[2].end_ns = 90;
        let rows = t.time_by_name();
        assert_eq!(
            rows,
            vec![
                NameTotal {
                    name: "check",
                    count: 2,
                    total_ns: 70,
                    self_ns: 70
                },
                NameTotal {
                    name: "rep",
                    count: 1,
                    total_ns: 100,
                    self_ns: 30
                },
            ]
        );
        assert!(t
            .to_json()
            .contains("\"name\":\"check\",\"start_ns\":10,\"end_ns\":40,\"parent\":0,\"op\":1"));
    }
}
