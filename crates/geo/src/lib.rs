//! Synthetic geography for the Price $heriff world.
//!
//! The deployed system geolocates peers through their IP address at
//! zip-code, city, or country granularity (paper §3.2), and the measurement
//! study repeatedly needs country metadata: currencies (Fig. 2), VAT scales
//! (§7.3's amazon.com case), and a roster of 55 user countries (§6.1). This
//! crate provides all of that as a deterministic substrate:
//!
//! * [`country`] — the country catalogue: ISO code, name, region, currency,
//!   VAT rates;
//! * [`vat`] — product categories and per-country/category VAT resolution;
//! * [`ip`] — synthetic IPv4 allocation with per-country prefixes and the
//!   ISP churn model that makes PPCs hard for retailers to block (§3.2);
//! * [`locate`] — the geolocation service with granularity fallback.

#![forbid(unsafe_code)]
// The protocol and the reactor reach this crate: it must not panic
// (DESIGN.md, "Panic-freedom is clippy's, per crate").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod country;
pub mod ip;
pub mod locate;
pub mod vat;

pub use country::Country;
pub use ip::{IpAllocator, IpV4};
pub use locate::{GeoLocator, Granularity, Location};
pub use vat::{vat_rate, ProductCategory};
