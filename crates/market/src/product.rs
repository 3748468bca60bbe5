//! Products and catalogue generation.

use rand::Rng;
use serde::{Deserialize, Serialize};

use sheriff_geo::ProductCategory;

/// Product identifier, unique within a retailer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProductId(pub u32);

/// A catalogue product.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Product {
    /// Identifier within the retailer.
    pub id: ProductId,
    /// Display name (also the URL slug).
    pub name: String,
    /// Category (drives VAT and page template flavor).
    pub category: ProductCategory,
    /// Net base price in EUR, before any strategy.
    pub base_price_eur: f64,
    /// Relative popularity in [0, 1]; drives which products users check.
    pub popularity: f64,
}

impl Product {
    /// URL path of this product's page.
    pub fn url_path(&self) -> String {
        format!("/product/{}-{}", self.id.0, slug(&self.name))
    }
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Price bands the paper's Fig. 10 x-axis spans: from a few euro to the
/// €34.5k–46k Phase One camera.
const PRICE_BANDS: &[(f64, f64, f64)] = &[
    // (low, high, weight)
    (3.0, 30.0, 0.35),
    (30.0, 300.0, 0.35),
    (300.0, 3_000.0, 0.2),
    (3_000.0, 15_000.0, 0.07),
    (15_000.0, 50_000.0, 0.03),
];

/// Generates a catalogue of `n` products biased toward `main_category`
/// (retailers have an identity: clothing stores sell mostly clothing).
#[expect(clippy::indexing_slicing, reason = "gen_range(0..len) is in range")]
pub fn generate_catalog<R: Rng + ?Sized>(
    n: usize,
    main_category: ProductCategory,
    rng: &mut R,
) -> Vec<Product> {
    (0..n)
        .map(|i| {
            let category = if rng.gen::<f64>() < 0.7 {
                main_category
            } else {
                ProductCategory::ALL[rng.gen_range(0..ProductCategory::ALL.len())]
            };
            let band = pick_band(rng);
            // Log-uniform within the band: realistic price spread.
            let (lo, hi) = (band.0.ln(), band.1.ln());
            let price = (lo + rng.gen::<f64>() * (hi - lo)).exp();
            // Charm pricing: x.99 endings for cheap goods.
            let base_price_eur = if price < 100.0 {
                price.floor() + 0.99
            } else {
                (price / 10.0).round() * 10.0
            };
            Product {
                id: ProductId(i as u32),
                name: format!("{} item {}", category.label(), i),
                category,
                base_price_eur,
                popularity: rng.gen::<f64>().powi(2),
            }
        })
        .collect()
}

fn pick_band<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let total: f64 = PRICE_BANDS.iter().map(|b| b.2).sum();
    let mut target = rng.gen::<f64>() * total;
    // Rounding can leave `target` past the last weight: the last band.
    let mut band = (0.0, 0.0);
    for &(lo, hi, w) in PRICE_BANDS {
        band = (lo, hi);
        if target < w {
            break;
        }
        target -= w;
    }
    band
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn catalog_has_requested_size_and_valid_prices() {
        let mut rng = StdRng::seed_from_u64(1);
        let cat = generate_catalog(100, ProductCategory::Clothing, &mut rng);
        assert_eq!(cat.len(), 100);
        for p in &cat {
            assert!(
                p.base_price_eur >= 3.0 && p.base_price_eur <= 50_000.0,
                "{p:?}"
            );
            assert!((0.0..=1.0).contains(&p.popularity));
        }
    }

    #[test]
    fn catalog_biased_to_main_category() {
        let mut rng = StdRng::seed_from_u64(2);
        let cat = generate_catalog(300, ProductCategory::Books, &mut rng);
        let books = cat
            .iter()
            .filter(|p| p.category == ProductCategory::Books)
            .count();
        assert!(books > 180, "only {books}/300 books");
    }

    #[test]
    fn ids_are_sequential_unique() {
        let mut rng = StdRng::seed_from_u64(3);
        let cat = generate_catalog(50, ProductCategory::Games, &mut rng);
        for (i, p) in cat.iter().enumerate() {
            assert_eq!(p.id, ProductId(i as u32));
        }
    }

    #[test]
    fn url_slugs_are_clean() {
        let p = Product {
            id: ProductId(7),
            name: "Fancy Café Chair!".into(),
            category: ProductCategory::Furniture,
            base_price_eur: 99.99,
            popularity: 0.5,
        };
        let path = p.url_path();
        assert!(path.starts_with("/product/7-"));
        assert!(path
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '/'));
    }

    #[test]
    fn price_spread_covers_bands() {
        let mut rng = StdRng::seed_from_u64(4);
        let cat = generate_catalog(2000, ProductCategory::Electronics, &mut rng);
        let cheap = cat.iter().filter(|p| p.base_price_eur < 100.0).count();
        let expensive = cat.iter().filter(|p| p.base_price_eur > 10_000.0).count();
        assert!(cheap > 500, "cheap={cheap}");
        assert!(expensive > 10, "expensive={expensive}");
    }
}
