//! Counter / gauge / fixed-bucket histogram primitives.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Monotone event counter. Lock-free; safe to bump from many threads (the
/// wire-layer tests rely on no increments being lost under contention).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous level (queue depth, online flag, pending jobs).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the level to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `d`.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the level to `v` if it is below it — a high-water mark.
    /// One atomic step, so concurrent raisers cannot overwrite a larger
    /// value with a smaller one the way a `get` followed by `set` can.
    pub fn raise_to(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistState {
    /// `counts[i]` for `i < edges.len()` counts observations `<= edges[i]`
    /// (and above the previous edge); the final slot is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

/// Fixed-bucket histogram: bucket upper edges are chosen at registration
/// and never change, which is what makes snapshots mergeable across
/// shards and runs.
pub struct Histogram {
    edges: Vec<f64>,
    /// Leaf: its guard only reads or bumps the buckets.
    state: Mutex<HistState>,
}

impl Histogram {
    /// New histogram over strictly increasing, finite bucket upper edges.
    pub fn new(edges: &[f64]) -> Self {
        assert!(
            !edges.is_empty(),
            "histogram needs at least one bucket edge"
        );
        assert!(
            edges.iter().zip(edges.iter().skip(1)).all(|(a, b)| a < b)
                && edges.iter().all(|e| e.is_finite()),
            "histogram edges must be finite and strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            state: Mutex::new(HistState {
                counts: vec![0; edges.len() + 1],
                count: 0,
                sum: 0.0,
            }),
        }
    }

    /// The configured bucket edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .edges
            .iter()
            .position(|&e| v <= e)
            .unwrap_or(self.edges.len());
        let mut s = self.state.lock();
        if let Some(bucket) = s.counts.get_mut(idx) {
            *bucket += 1;
        }
        s.count += 1;
        s.sum += v;
    }

    /// Point-in-time copy of the bucket state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let s = self.state.lock();
        HistogramSnapshot {
            edges: self.edges.clone(),
            counts: s.counts.clone(),
            count: s.count,
            sum: s.sum,
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("Histogram")
            .field("edges", &self.edges)
            .field("count", &s.count)
            .finish()
    }
}

/// Why two histogram snapshots refused to merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// Bucket edges differ; bucket-wise addition would be meaningless.
    EdgeMismatch,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::EdgeMismatch => write!(f, "histogram bucket edges differ"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Serializable, mergeable copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Bucket upper edges (strictly increasing).
    pub edges: Vec<f64>,
    /// Per-bucket counts; one longer than `edges` (final slot = overflow).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Conservative quantile estimate: the upper edge of the bucket that
    /// contains the `q`-quantile observation. Always one of the configured
    /// edges (overflow reports the final edge), so the estimate is bounded
    /// by the bucket grid rather than extrapolated.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        let bucket = self.counts.iter().position(|&c| {
            seen += c;
            seen >= target
        });
        // Overflow reports the final edge.
        let edge = bucket.and_then(|i| self.edges.get(i));
        edge.or(self.edges.last()).copied().unwrap_or_default()
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Adds `other` bucket-wise. Fails unless the bucket edges match
    /// exactly — fixed grids are what make shard merges sound.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> Result<(), MergeError> {
        if self.edges != other.edges || self.counts.len() != other.counts.len() {
            return Err(MergeError::EdgeMismatch);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_to_keeps_the_true_maximum_across_threads() {
        // Every thread walks its own residue class of 0..4000 upward and
        // back down, all released together; only thread 3 ever offers
        // 3999, and the smaller values the others (and its own descent)
        // offer afterwards must not displace it.
        let g = Gauge::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let (g, start) = (&g, &start);
                s.spawn(move || {
                    start.wait();
                    let mine = (0..1000).map(|i| i * 4 + t);
                    for v in mine.clone().chain(mine.rev()) {
                        g.raise_to(v);
                    }
                });
            }
        });
        assert_eq!(g.get(), 3999);
        g.raise_to(7);
        assert_eq!(g.get(), 3999, "a lower offer is a no-op");
    }

    #[test]
    fn buckets_partition_the_line() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 2.0, 10.0, 99.0, 100.0, 1e6] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2, 1]);
        assert_eq!(s.count, 7);
    }

    #[test]
    fn quantiles_walk_the_edges() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for _ in 0..90 {
            h.observe(0.5);
        }
        for _ in 0..10 {
            h.observe(50.0);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 1.0);
        assert_eq!(s.quantile(0.95), 100.0);
        assert_eq!(s.quantile(0.0), 1.0, "q=0 still reports a bucket edge");
    }

    #[test]
    fn overflow_quantile_clamps_to_last_edge() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(1e9);
        assert_eq!(h.snapshot().quantile(1.0), 2.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(&[1.0]);
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
        assert_eq!(h.snapshot().mean(), 0.0);
    }

    #[test]
    fn merge_requires_matching_edges() {
        let mut a = Histogram::new(&[1.0, 2.0]).snapshot();
        let b = Histogram::new(&[1.0, 3.0]).snapshot();
        assert_eq!(a.merge(&b), Err(MergeError::EdgeMismatch));
    }

    #[test]
    fn merge_adds_bucketwise() {
        let ha = Histogram::new(&[1.0, 2.0]);
        ha.observe(0.5);
        ha.observe(5.0);
        let hb = Histogram::new(&[1.0, 2.0]);
        hb.observe(1.5);
        let mut a = ha.snapshot();
        a.merge(&hb.snapshot()).unwrap();
        assert_eq!(a.counts, vec![1, 1, 1]);
        assert_eq!(a.count, 3);
        assert!((a.sum - 7.0).abs() < 1e-9);
    }
}
