//! Geography-aware latency for the simulated deployment.
//!
//! Control messages between the add-ons, the Coordinator, and the
//! Measurement servers cross the real Internet; their delay depends on
//! where the endpoints sit. [`GeoLatency`] prices each edge from the two
//! nodes' countries: same country < same region < cross-region, each with
//! lognormal jitter — the classic wide-area RTT shape. (Page-fetch delays
//! are modeled separately and dominate; this matters for protocol chatter
//! like the doppelganger round-trip of Fig. 1 steps 3.3–3.4.)

use rand::rngs::StdRng;

use sheriff_geo::Country;
use sheriff_netsim::latency::sample_standard_normal;
use sheriff_netsim::{LatencyModel, NodeId, SimTime};

/// One-way base latency in milliseconds: same country.
const INTRA_COUNTRY_MS: u64 = 15;
/// Same region, different country.
const INTRA_REGION_MS: u64 = 35;
/// Different region.
const CROSS_REGION_MS: u64 = 110;
/// Lognormal sigma applied to the base.
const SIGMA: f64 = 0.25;

/// A [`LatencyModel`] that knows which country each node lives in.
/// Nodes without a registered country (infrastructure in "the cloud") use
/// the intra-region base.
#[derive(Debug)]
pub struct GeoLatency {
    countries: Vec<Option<Country>>,
}

impl GeoLatency {
    /// Builds from a per-node country table indexed by [`NodeId`].
    pub fn new(countries: Vec<Option<Country>>) -> Self {
        GeoLatency { countries }
    }

    fn country(&self, n: NodeId) -> Option<Country> {
        self.countries.get(n.0).copied().flatten()
    }

    fn base_ms(&self, from: NodeId, to: NodeId) -> u64 {
        match (self.country(from), self.country(to)) {
            (Some(a), Some(b)) if a == b => INTRA_COUNTRY_MS,
            (Some(a), Some(b)) if a.region() == b.region() => INTRA_REGION_MS,
            (Some(_), Some(_)) => CROSS_REGION_MS,
            // One endpoint is cloud infrastructure: regional hop.
            _ => INTRA_REGION_MS,
        }
    }
}

impl LatencyModel for GeoLatency {
    fn latency(&mut self, from: NodeId, to: NodeId, rng: &mut StdRng) -> SimTime {
        let base = self.base_ms(from, to) as f64;
        let z = sample_standard_normal(rng);
        let ms = (base * (SIGMA * z).exp()).round().max(1.0) as u64;
        SimTime::from_millis(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn model() -> GeoLatency {
        GeoLatency::new(vec![
            Some(Country::ES), // 0
            Some(Country::ES), // 1
            Some(Country::FR), // 2
            Some(Country::JP), // 3
            None,              // 4: cloud
        ])
    }

    fn median_ms(m: &mut GeoLatency, a: usize, b: usize) -> u64 {
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples: Vec<u64> = (0..401)
            .map(|_| m.latency(NodeId(a), NodeId(b), &mut rng).as_millis())
            .collect();
        samples.sort_unstable();
        samples[200]
    }

    #[test]
    fn latency_orders_by_distance() {
        let mut m = model();
        let same_country = median_ms(&mut m, 0, 1);
        let same_region = median_ms(&mut m, 0, 2);
        let cross_region = median_ms(&mut m, 0, 3);
        assert!(
            same_country < same_region,
            "{same_country} vs {same_region}"
        );
        assert!(
            same_region < cross_region,
            "{same_region} vs {cross_region}"
        );
    }

    #[test]
    fn cloud_nodes_price_as_regional() {
        let mut m = model();
        let cloud = median_ms(&mut m, 0, 4);
        let regional = median_ms(&mut m, 0, 2);
        // Within jitter of each other.
        assert!(
            (cloud as i64 - regional as i64).abs() < 15,
            "{cloud} vs {regional}"
        );
    }

    #[test]
    fn latency_is_always_positive() {
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            assert!(m.latency(NodeId(0), NodeId(3), &mut rng).as_millis() >= 1);
        }
    }

    #[test]
    fn unknown_node_ids_fall_back_gracefully() {
        let mut m = model();
        let mut rng = StdRng::seed_from_u64(3);
        let t = m.latency(NodeId(99), NodeId(100), &mut rng);
        assert!(t.as_millis() > 0);
    }
}
