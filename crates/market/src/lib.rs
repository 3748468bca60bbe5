//! The e-commerce world simulator.
//!
//! The deployed $heriff measured 1994 live e-commerce sites; this crate is
//! the synthetic equivalent, generating retailers whose *pricing behaviours*
//! span everything the paper observed so that every detector and analysis
//! path can run against known ground truth:
//!
//! * **location-based PD** — per-country multiplicative factors (×2.55
//!   steampowered-style extremes, Table 3);
//! * **A/B testing** — per-request or sticky-bucket price arms (the §7.4
//!   France-uniform vs UK-biased contrast);
//! * **VAT-by-identification** — logged-in customers see category VAT for
//!   their country, guests see base prices (§7.3's amazon case);
//! * **PDI-PD** — tracker-informed markups, the behaviour the paper hunted
//!   for; the simulator can generate it as a positive control even though
//!   the paper concluded the wild domains don't do it;
//! * **temporal strategies** — successive small drops with rare large jumps
//!   (Fig. 14) and slow drift (Fig. 15), plus intra-day algorithmic
//!   repricing;
//! * plus the *plumbing* the measurement system must survive: localized
//!   currencies and formats, layout/ad noise in product pages, third-party
//!   trackers, cookies, and per-IP bot detection with CAPTCHAs (§3.2).
//!
//! Everything is deterministic: randomized behaviours (A/B arms, jump days,
//! ad blocks) are driven by split-mix hashes of stable identifiers, never by
//! shared mutable RNG state.

#![forbid(unsafe_code)]
// The protocol and the reactor reach this crate: it must not panic
// (DESIGN.md, "Panic-freedom is clippy's, per crate").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod bot;
pub mod cookies;
pub mod page;
pub mod pricing;
pub mod product;
pub mod retailer;
pub mod tracker;
pub mod world;

pub use cookies::{Cookie, CookieJar};
pub use page::{format_price, PriceFormat};
pub use pricing::{FetchContext, PricingStrategy, UserAgent};
pub use product::{Product, ProductId};
pub use retailer::{FetchResult, Retailer};
pub use world::World;

/// SplitMix64: the deterministic hash behind every "random" retailer
/// behaviour. Public because experiments reuse it for stable assignment.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Hashes a sequence of values into one word (order-sensitive).
pub fn hash_mix(parts: &[u64]) -> u64 {
    let mut acc = 0x51ed_2701_93a4_c1e7u64;
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

/// Hashes a string deterministically (FNV-1a folded through splitmix).
pub fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    splitmix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_eq!(hash_mix(&[1, 2, 3]), hash_mix(&[1, 2, 3]));
        assert_eq!(hash_str("amazon.com"), hash_str("amazon.com"));
    }

    #[test]
    fn hashes_are_order_sensitive() {
        assert_ne!(hash_mix(&[1, 2]), hash_mix(&[2, 1]));
        assert_ne!(hash_str("a.com"), hash_str("b.com"));
    }

    #[test]
    fn hash_distribution_rough_uniformity() {
        // Buckets of consecutive inputs should spread.
        let mut buckets = [0u32; 16];
        for i in 0..16_000u64 {
            buckets[(splitmix64(i) % 16) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket {b}");
        }
    }
}
