//! Latency models.
//!
//! The [`LatencyModel`] trait and the generic models (constant,
//! lognormal). The deployment's own model — geography-aware, its
//! lognormal tail standing in for §5's "sometimes overloaded" PlanetLab
//! servers — is `sheriff_core::latency::GeoLatency`.

use rand::rngs::StdRng;
use rand::Rng;

use crate::engine::{NodeId, SimTime};

/// Prices the network delay of one message on the (from, to) edge.
pub trait LatencyModel {
    /// Latency for a single message; may consult `rng` for jitter.
    fn latency(&mut self, from: NodeId, to: NodeId, rng: &mut StdRng) -> SimTime;
}

/// Fixed latency on every edge.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLatency(pub SimTime);

impl LatencyModel for ConstantLatency {
    fn latency(&mut self, _from: NodeId, _to: NodeId, _rng: &mut StdRng) -> SimTime {
        self.0
    }
}

/// Lognormal jitter around a base latency: `base · exp(σ·Z)` with standard
/// normal `Z` — the classic shape of wide-area RTTs.
#[derive(Clone, Copy, Debug)]
pub struct LognormalLatency {
    /// Median latency.
    pub base: SimTime,
    /// Log-space standard deviation (0.3–0.6 is realistic).
    pub sigma: f64,
}

impl LognormalLatency {
    fn sample(&self, rng: &mut StdRng) -> SimTime {
        let z = sample_standard_normal(rng);
        let factor = (self.sigma * z).exp();
        SimTime::from_millis((self.base.as_millis() as f64 * factor).round() as u64)
    }
}

impl LatencyModel for LognormalLatency {
    fn latency(&mut self, _from: NodeId, _to: NodeId, rng: &mut StdRng) -> SimTime {
        self.sample(rng)
    }
}

/// Box–Muller standard normal sample.
pub fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn constant_is_constant() {
        let mut m = ConstantLatency(SimTime::from_millis(25));
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(
                m.latency(NodeId(0), NodeId(1), &mut r),
                SimTime::from_millis(25)
            );
        }
    }

    #[test]
    fn lognormal_centers_on_base() {
        let mut m = LognormalLatency {
            base: SimTime::from_millis(100),
            sigma: 0.4,
        };
        let mut r = rng();
        let samples: Vec<f64> = (0..5000)
            .map(|_| m.latency(NodeId(0), NodeId(1), &mut r).as_millis() as f64)
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        assert!((median - 100.0).abs() < 10.0, "median={median}");
        assert!(samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn normal_sampler_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}
