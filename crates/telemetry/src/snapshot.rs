//! Serializable, mergeable point-in-time recordings.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::events::Event;
use crate::metrics::{HistogramSnapshot, MergeError};

/// Everything a [`crate::Registry`] held at one instant. All maps are
/// ordered and the JSON printer is deterministic, so equal snapshots
/// serialise to byte-identical text — the replay tests compare exactly
/// that.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained structured events, oldest first.
    pub events: Vec<Event>,
    /// Events discarded once the retention cap was hit.
    pub events_dropped: u64,
}

impl Snapshot {
    /// Folds `other` into `self`: counters and `events_dropped` add,
    /// gauges add (levels sum across shards), histograms add bucket-wise,
    /// event logs interleave by timestamp (stable, so same-time events
    /// keep `self`-before-`other` order).
    pub fn merge(&mut self, other: &Snapshot) -> Result<(), MergeError> {
        // Validate every histogram pair before mutating anything, so a
        // failed merge leaves `self` untouched.
        for (name, h) in &other.histograms {
            if let Some(mine) = self.histograms.get(name) {
                if mine.edges != h.edges {
                    return Err(MergeError::EdgeMismatch);
                }
            }
        }
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h)?,
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.at_ms);
        self.events_dropped += other.events_dropped;
        Ok(())
    }

    /// Compact deterministic JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialises")
    }

    /// Parses a snapshot back from JSON (report tooling, merge pipelines).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FieldValue, Registry};

    fn sample(seed: u64) -> Snapshot {
        let r = Registry::new();
        r.counter("test.jobs").add(seed);
        r.gauge("test.depth").set(seed as i64);
        let h = r.histogram("test.lat_ms", &[10.0, 100.0]);
        h.observe(seed as f64);
        r.event(seed, "tick", vec![("n", FieldValue::U64(seed))]);
        r.snapshot()
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let s = sample(7);
        let back = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), s.to_json());
    }

    #[test]
    fn merge_adds_and_interleaves() {
        let mut a = sample(5);
        let b = sample(200);
        a.merge(&b).unwrap();
        assert_eq!(a.counters["test.jobs"], 205);
        assert_eq!(a.gauges["test.depth"], 205);
        assert_eq!(a.histograms["test.lat_ms"].count, 2);
        assert_eq!(a.histograms["test.lat_ms"].counts, vec![1, 0, 1]);
        let times: Vec<u64> = a.events.iter().map(|e| e.at_ms).collect();
        assert_eq!(times, vec![5, 200]);
    }

    #[test]
    fn merge_rejects_mismatched_grids_without_mutating() {
        let mut a = sample(1);
        let r = Registry::new();
        r.counter("test.jobs").add(100);
        r.histogram("test.lat_ms", &[1.0]).observe(0.5);
        let b = r.snapshot();
        assert_eq!(a.merge(&b), Err(MergeError::EdgeMismatch));
        assert_eq!(
            a.counters["test.jobs"], 1,
            "failed merge left self untouched"
        );
    }
}
