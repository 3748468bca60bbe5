//! Deterministic telemetry for the Price $heriff (paper §3.4, §10).
//!
//! A metrics registry (counters, gauges, fixed-bucket histograms) plus a
//! span-style structured event log, all timestamped in **virtual
//! milliseconds** (`SimTime` in the DES layer). Nothing in this crate reads
//! a wall clock or any other ambient source, so a recording taken from a
//! simulation run under a fixed seed is bit-for-bit reproducible: two runs
//! with the same seed serialise to byte-identical JSON snapshots.
//!
//! Design notes:
//!
//! * Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap
//!   `Arc`s handed out by the [`Registry`]. Hot paths resolve names once at
//!   construction time and afterwards touch only atomics (or a short
//!   mutex-guarded bucket update), never strings.
//! * All maps are `BTreeMap`s and the JSON printer is deterministic, so a
//!   [`Snapshot`] has exactly one textual form.
//! * Snapshots are *mergeable* ([`Snapshot::merge`]): counters and gauges
//!   add, histograms with identical bucket edges add bucket-wise, event
//!   logs interleave by timestamp. This is what lets per-shard recordings
//!   from a distributed deployment be combined into one run report.
//! * The §3.4 monitoring panel is a pure rendering over a snapshot
//!   ([`panel::coordinator_panel`]): the panel no longer maintains any
//!   counters of its own.

#![forbid(unsafe_code)]
// The protocol and the reactor reach this crate: it must not panic
// (DESIGN.md, "Panic-freedom is clippy's, per crate").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

mod events;
mod metrics;
pub mod panel;
mod snapshot;

pub use events::{Event, FieldValue};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MergeError};
pub use snapshot::Snapshot;

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Default cap on retained events; past it, new events are counted in
/// `events_dropped` instead of stored (bounded memory on long runs).
pub const DEFAULT_EVENT_CAPACITY: usize = 10_000;

struct EventBuf {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

/// `subsystem.snake_case`: two or more dot-separated segments of
/// lowercase letters, digits and `_`, plus `-`/`:` for the host address in
/// `coordinator.server.{idx:03}.{addr}:{port}.{key}`. Panel and exporter
/// joins rely on it; it is checked (debug builds) where every name passes,
/// so names built with `format!` are covered too.
fn well_formed(name: &str) -> bool {
    let segment = |seg: &str| {
        !seg.is_empty()
            && seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b"_-:".contains(&b))
    };
    name.contains('.') && name.split('.').all(segment)
}

fn assert_well_formed(name: &str) {
    debug_assert!(
        well_formed(name),
        "metric name `{name}` is not subsystem.snake_case"
    );
}

/// Central metric store. Cloneable via `Arc<Registry>`; all methods take
/// `&self` so one registry can be shared across every subsystem of a run.
/// Every lock here is a leaf: no method takes a second lock (a
/// histogram's included) or blocks while it holds one.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: Mutex<EventBuf>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Empty registry with the default event capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Empty registry retaining at most `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: Mutex::new(EventBuf {
                events: Vec::new(),
                capacity,
                dropped: 0,
            }),
        }
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        assert_well_formed(name);
        Arc::clone(
            self.counters
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        assert_well_formed(name);
        Arc::clone(
            self.gauges
                .lock()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram named `name` with the given bucket upper edges
    /// (strictly increasing), created on first use.
    ///
    /// # Panics
    /// If a histogram of the same name already exists with different edges.
    pub fn histogram(&self, name: &str, edges: &[f64]) -> Arc<Histogram> {
        assert_well_formed(name);
        let mut map = self.histograms.lock();
        let h = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new(edges)));
        assert_eq!(
            h.edges(),
            edges,
            "histogram `{name}` re-registered with different bucket edges"
        );
        Arc::clone(h)
    }

    /// Appends a structured event at virtual time `at_ms`. Beyond the
    /// capacity the event is dropped and counted instead.
    pub fn event(&self, at_ms: u64, name: &str, fields: Vec<(&str, FieldValue)>) {
        let mut buf = self.events.lock();
        if buf.events.len() >= buf.capacity {
            buf.dropped += 1;
            return;
        }
        buf.events.push(Event {
            at_ms,
            name: name.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        });
    }

    /// Span-style event: logged at its end time, carrying its start and
    /// duration (virtual ms) as leading fields.
    pub fn span(&self, start_ms: u64, end_ms: u64, name: &str, fields: Vec<(&str, FieldValue)>) {
        let mut all = vec![
            ("start_ms", FieldValue::U64(start_ms)),
            (
                "duration_ms",
                FieldValue::U64(end_ms.saturating_sub(start_ms)),
            ),
        ];
        all.extend(fields);
        self.event(end_ms, name, all);
    }

    /// Point-in-time copy of every metric and the event log.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        // Copied out, so no histogram is locked under the map's guard.
        let histograms = self.histograms.lock().clone();
        let histograms = histograms
            .into_iter()
            .map(|(k, v)| (k, v.snapshot()))
            .collect();
        let buf = self.events.lock();
        Snapshot {
            counters,
            gauges,
            histograms,
            events: buf.events.clone(),
            events_dropped: buf.dropped,
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // One guard at a time (a guard in the chain would outlive it).
        let counters = self.counters.lock().len();
        let gauges = self.gauges.lock().len();
        let histograms = self.histograms.lock().len();
        let events = self.events.lock().events.len();
        f.debug_struct("Registry")
            .field("counters", &counters)
            .field("gauges", &gauges)
            .field("histograms", &histograms)
            .field("events", &events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("a.total");
        c.inc();
        c.add(4);
        let g = r.gauge("a.depth");
        g.set(7);
        g.add(-2);
        // Same-name lookup returns the same underlying metric.
        assert_eq!(r.counter("a.total").get(), 5);
        assert_eq!(r.gauge("a.depth").get(), 5);
        let s = r.snapshot();
        assert_eq!(s.counters["a.total"], 5);
        assert_eq!(s.gauges["a.depth"], 5);
    }

    #[test]
    fn events_capped_and_counted() {
        let r = Registry::with_event_capacity(2);
        r.event(1, "e", vec![("k", FieldValue::U64(1))]);
        r.span(2, 5, "f", vec![]);
        r.event(9, "overflow", vec![]);
        let s = r.snapshot();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events_dropped, 1);
        assert_eq!(
            s.events[1].fields[1],
            ("duration_ms".to_string(), FieldValue::U64(3))
        );
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let r = Registry::new();
            r.counter("z.last").inc();
            r.counter("a.first").add(2);
            r.histogram("test.lat_ms", &[1.0, 10.0]).observe(3.5);
            r.event(42, "tick", vec![("node", FieldValue::Str("db".into()))]);
            r.snapshot().to_json()
        };
        assert_eq!(build(), build());
        // BTreeMap ordering: "a.first" serialises before "z.last".
        let json = build();
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
    }

    #[test]
    fn metric_names_are_dotted_lowercase_segments() {
        for bad in ["jobs", "Bad.Name", "a..b", ".a", "a.", "a.b c", ""] {
            assert!(!well_formed(bad), "{bad:?}");
        }
        for good in [
            "coordinator.requests_total",
            "coordinator.server.000.192.168.1.11:8080.online",
            &panel::server_metric(1, "ms-0", 80, "pending_jobs"),
            "netsim.node.007.backlog",
        ] {
            assert!(well_formed(good), "{good:?}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "metric name `jobs`")]
    fn registering_a_malformed_name_panics_in_debug_builds() {
        Registry::new().counter("jobs");
    }

    #[test]
    #[should_panic(expected = "different bucket edges")]
    fn histogram_edge_conflict_panics() {
        let r = Registry::new();
        r.histogram("test.lat_ms", &[1.0, 2.0]);
        r.histogram("test.lat_ms", &[1.0, 3.0]);
    }
}
