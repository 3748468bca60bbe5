//! Observation records — the rows the Database server stores and the
//! measurement study analyzes (paper §6–§7).

use serde::{Deserialize, Serialize};

use sheriff_geo::{Country, IpV4};

/// Which kind of vantage point produced an observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum VantageKind {
    /// The user who initiated the price check.
    Initiator,
    /// Infrastructure Proxy Client — clean browser, fixed location.
    Ipc,
    /// Peer Proxy Client — real user's browser near the initiator.
    Ppc,
}

/// One price observation from one vantage point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PriceObservation {
    /// Vantage kind.
    pub vantage: VantageKind,
    /// Stable vantage identifier (IPC index or peer id).
    pub vantage_id: u64,
    /// Country of the vantage point.
    pub country: Country,
    /// City of the vantage point, when known.
    pub city: Option<String>,
    /// Source address.
    pub ip: IpV4,
    /// Raw selected/extracted price text (e.g. `"CAD912"`).
    pub raw_text: String,
    /// Detected source currency.
    pub currency: String,
    /// Amount in the source currency.
    pub amount: f64,
    /// Amount converted to EUR.
    pub amount_eur: f64,
    /// Low detection confidence (red asterisk on the result page)?
    pub low_confidence: bool,
    /// Fetch was CAPTCHA-blocked or extraction failed.
    pub failed: bool,
}

/// One complete price check request: the initiator's selection plus every
/// proxy response (paper Fig. 1 / Fig. 2).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PriceCheck {
    /// Globally unique job id assigned by the Coordinator.
    pub job_id: u64,
    /// Retailer domain.
    pub domain: String,
    /// Product URL path.
    pub url: String,
    /// Day index of the study.
    pub day: u32,
    /// All successful + failed observations (initiator first).
    pub observations: Vec<PriceObservation>,
}

impl PriceCheck {
    /// Successful observations only.
    pub fn valid(&self) -> impl Iterator<Item = &PriceObservation> {
        self.observations.iter().filter(|o| !o.failed)
    }

    /// Observations whose currency detection is trustworthy. The paper's
    /// analyses "excluded to the best of our ability the effects of …
    /// currency" (§1); low-confidence conversions (the Fig. 2 asterisk)
    /// stay on the result page but are excluded from spread statistics.
    pub fn confident(&self) -> impl Iterator<Item = &PriceObservation> {
        self.observations
            .iter()
            .filter(|o| !o.failed && !o.low_confidence)
    }

    /// Minimum observed EUR price among confident observations.
    pub fn min_eur(&self) -> Option<f64> {
        self.confident()
            .map(|o| o.amount_eur)
            .min_by(f64::total_cmp)
    }

    /// Maximum observed EUR price among confident observations.
    pub fn max_eur(&self) -> Option<f64> {
        self.confident()
            .map(|o| o.amount_eur)
            .max_by(f64::total_cmp)
    }

    /// Relative spread `(max - min) / min` over confident observations;
    /// `None` without ≥2 of them.
    pub fn relative_spread(&self) -> Option<f64> {
        let n = self.confident().count();
        if n < 2 {
            return None;
        }
        let min = self.min_eur()?;
        let max = self.max_eur()?;
        if min <= 0.0 {
            return None;
        }
        Some((max - min) / min)
    }

    /// True when any two valid observations differ by more than `epsilon`
    /// relative — the paper's "price check that resulted in some
    /// difference of price".
    pub fn has_difference(&self, epsilon: f64) -> bool {
        self.relative_spread().is_some_and(|s| s > epsilon)
    }

    /// Confident observations restricted to one country.
    pub fn in_country(&self, country: Country) -> Vec<&PriceObservation> {
        self.confident().filter(|o| o.country == country).collect()
    }

    /// Relative spread among observations *within* `country` — the
    /// within-country difference that flags candidate PDI-PD (§6.3).
    pub fn within_country_spread(&self, country: Country) -> Option<f64> {
        let obs = self.in_country(country);
        if obs.len() < 2 {
            return None;
        }
        let min = obs.iter().map(|o| o.amount_eur).min_by(f64::total_cmp)?;
        let max = obs.iter().map(|o| o.amount_eur).max_by(f64::total_cmp)?;
        if min <= 0.0 {
            return None;
        }
        Some((max - min) / min)
    }

    /// Country where the cheapest confident observation sits.
    pub fn cheapest_country(&self) -> Option<Country> {
        self.confident()
            .min_by(|a, b| a.amount_eur.total_cmp(&b.amount_eur))
            .map(|o| o.country)
    }

    /// Country where the most expensive confident observation sits.
    pub fn most_expensive_country(&self) -> Option<Country> {
        self.confident()
            .max_by(|a, b| a.amount_eur.total_cmp(&b.amount_eur))
            .map(|o| o.country)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_geo::IpV4;

    fn obs(country: Country, eur: f64, failed: bool) -> PriceObservation {
        PriceObservation {
            vantage: VantageKind::Ipc,
            vantage_id: 0,
            country,
            city: None,
            ip: IpV4(0),
            raw_text: format!("EUR{eur}"),
            currency: "EUR".into(),
            amount: eur,
            amount_eur: eur,
            low_confidence: false,
            failed,
        }
    }

    fn check(observations: Vec<PriceObservation>) -> PriceCheck {
        PriceCheck {
            job_id: 1,
            domain: "shop.com".into(),
            url: "/p/1".into(),
            day: 0,
            observations,
        }
    }

    #[test]
    fn spread_and_difference() {
        let c = check(vec![
            obs(Country::ES, 100.0, false),
            obs(Country::US, 150.0, false),
            obs(Country::JP, 120.0, false),
        ]);
        assert_eq!(c.min_eur(), Some(100.0));
        assert_eq!(c.max_eur(), Some(150.0));
        assert!((c.relative_spread().unwrap() - 0.5).abs() < 1e-12);
        assert!(c.has_difference(0.01));
        assert!(!c.has_difference(0.6));
        assert_eq!(c.cheapest_country(), Some(Country::ES));
        assert_eq!(c.most_expensive_country(), Some(Country::US));
    }

    #[test]
    fn failed_observations_ignored() {
        let c = check(vec![
            obs(Country::ES, 100.0, false),
            obs(Country::US, 900.0, true),
        ]);
        assert_eq!(c.max_eur(), Some(100.0));
        assert_eq!(c.relative_spread(), None, "single valid observation");
        assert!(!c.has_difference(0.0));
    }

    #[test]
    fn within_country_spread_needs_two_points() {
        let c = check(vec![
            obs(Country::ES, 100.0, false),
            obs(Country::ES, 103.0, false),
            obs(Country::US, 170.0, false),
        ]);
        let s = c.within_country_spread(Country::ES).unwrap();
        assert!((s - 0.03).abs() < 1e-12);
        assert_eq!(c.within_country_spread(Country::US), None);
        assert_eq!(c.within_country_spread(Country::JP), None);
    }

    #[test]
    fn identical_prices_no_difference() {
        let c = check(vec![
            obs(Country::ES, 50.0, false),
            obs(Country::FR, 50.0, false),
        ]);
        assert_eq!(c.relative_spread(), Some(0.0));
        assert!(!c.has_difference(0.001));
    }

    #[test]
    fn empty_check_is_benign() {
        let c = check(vec![]);
        assert_eq!(c.min_eur(), None);
        assert_eq!(c.relative_spread(), None);
        assert!(!c.has_difference(0.0));
        assert_eq!(c.cheapest_country(), None);
    }

    #[test]
    fn a_nan_price_orders_instead_of_panicking() {
        // A NaN orders above every number under `total_cmp`.
        let c = check(vec![
            obs(Country::ES, 100.0, false),
            obs(Country::ES, f64::NAN, false),
            obs(Country::US, 150.0, false),
        ]);
        assert_eq!(c.min_eur(), Some(100.0));
        assert!(c.max_eur().is_some_and(f64::is_nan));
        assert!(c
            .within_country_spread(Country::ES)
            .is_some_and(f64::is_nan));
        assert_eq!(c.cheapest_country(), Some(Country::ES));
        assert_eq!(c.most_expensive_country(), Some(Country::ES));
    }
}
