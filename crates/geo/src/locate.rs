//! Geolocation service.
//!
//! The Coordinator groups PPCs "at a zip-code, city or country level,
//! depending on the granularity of the available geo-location service"
//! (§3.2). [`GeoLocator`] models a service whose best granularity is
//! configurable, with graceful fallback: asking for finer granularity than
//! available returns the coarser location.

use serde::{Deserialize, Serialize};

use crate::country::Country;
use crate::ip::{city_index_of, country_of, IpV4};

/// Granularity levels of a geolocation answer, coarse to fine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Granularity {
    /// Country only.
    Country,
    /// Country + city.
    City,
    /// Country + city + zip code.
    Zip,
}

/// A geolocation answer.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Owning country.
    pub country: Country,
    /// City name, when granularity permits.
    pub city: Option<String>,
    /// Zip code, when granularity permits.
    pub zip: Option<String>,
}

impl Location {
    /// True when `other` is in the same location at the *coarsest common*
    /// granularity — the predicate used to pick PPCs "in the same
    /// geographic location as the initiator".
    pub fn same_area(&self, other: &Location) -> bool {
        if self.country != other.country {
            return false;
        }
        !matches!((&self.city, &other.city), (Some(a), Some(b)) if a != b)
    }

    /// Human-readable rendering, e.g. `"Spain, Barcelona"`.
    pub fn display(&self) -> String {
        match (&self.city, &self.zip) {
            (Some(c), Some(z)) => format!("{}, {} {}", self.country.name(), c, z),
            (Some(c), None) => format!("{}, {}", self.country.name(), c),
            _ => self.country.name().to_string(),
        }
    }
}

/// The geolocation service.
#[derive(Clone, Copy, Debug)]
pub struct GeoLocator {
    /// The finest granularity the service can provide.
    pub best: Granularity,
}

impl GeoLocator {
    /// Service with the given best granularity.
    pub fn new(best: Granularity) -> Self {
        GeoLocator { best }
    }

    /// Locates a synthetic address. `None` for addresses outside the
    /// allocated space.
    #[expect(clippy::indexing_slicing, reason = "the index is mod len")]
    pub fn locate(&self, ip: IpV4) -> Option<Location> {
        let country = country_of(ip)?;
        let city = if self.best >= Granularity::City {
            let cities = country.cities();
            Some(cities[city_index_of(ip) % cities.len()].to_string())
        } else {
            None
        };
        let zip = if self.best >= Granularity::Zip {
            // Synthetic zip derived from the city block; stable per city.
            Some(format!("{:05}", (ip.0 >> 16) & 0xffff))
        } else {
            None
        };
        Some(Location { country, city, zip })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::IpAllocator;

    #[test]
    fn country_granularity_has_no_city() {
        let mut alloc = IpAllocator::new();
        let ip = alloc.allocate(Country::ES, 0);
        let loc = GeoLocator::new(Granularity::Country).locate(ip).unwrap();
        assert_eq!(loc.country, Country::ES);
        assert!(loc.city.is_none());
        assert!(loc.zip.is_none());
    }

    #[test]
    fn city_granularity_resolves_city() {
        let mut alloc = IpAllocator::new();
        let ip = alloc.allocate(Country::ES, 1);
        let loc = GeoLocator::new(Granularity::City).locate(ip).unwrap();
        assert_eq!(loc.city.as_deref(), Some("Barcelona"));
        assert!(loc.zip.is_none());
    }

    #[test]
    fn zip_granularity_adds_zip() {
        let mut alloc = IpAllocator::new();
        let ip = alloc.allocate(Country::DE, 0);
        let loc = GeoLocator::new(Granularity::Zip).locate(ip).unwrap();
        assert!(loc.zip.is_some());
    }

    #[test]
    fn same_area_semantics() {
        let a = Location {
            country: Country::ES,
            city: Some("Madrid".into()),
            zip: None,
        };
        let b = Location {
            country: Country::ES,
            city: Some("Barcelona".into()),
            zip: None,
        };
        let c = Location {
            country: Country::ES,
            city: None,
            zip: None,
        };
        let d = Location {
            country: Country::FR,
            city: None,
            zip: None,
        };
        assert!(!a.same_area(&b), "different cities differ");
        assert!(a.same_area(&c), "coarse location matches at country level");
        assert!(!a.same_area(&d));
        assert!(a.same_area(&a));
    }

    #[test]
    fn unallocated_ip_locates_to_none() {
        let loc = GeoLocator::new(Granularity::City).locate(IpV4(0));
        assert!(loc.is_none());
    }

    #[test]
    fn display_formats() {
        let a = Location {
            country: Country::JP,
            city: Some("Tokyo".into()),
            zip: None,
        };
        assert_eq!(a.display(), "Japan, Tokyo");
    }
}
