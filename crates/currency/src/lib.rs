//! Currency detection, price parsing, and conversion (paper §3.5).
//!
//! The Measurement server must compare prices scraped from arbitrary
//! retailer HTML across locales: `EUR654`, `$699`, `CAD912`, `ILS2,963`,
//! `JPY88,204`, `KRW829,075`… The paper's three-part algorithm is
//! implemented faithfully:
//!
//! 1. **cleanup** — strip newlines and collapse whitespace;
//! 2. **currency detection** — in priority order: 3-letter ISO code,
//!    retailer-specific custom notation (`US$`, `Kč`), then bare symbol.
//!    Ambiguous symbols (`$` may be USD, CAD, AUD, …) yield *low
//!    confidence*, rendered as the red asterisk in Fig. 2;
//! 3. **price extraction** — locale-aware numeric parsing; when the
//!    selection is a single concatenated token (`EUR654`) it is split into
//!    letter-words and digit-words and step 2 re-runs.
//!
//! Selections are sanitized and validated first: fewer than 25 characters
//! and at least one digit, the paper's anti-injection sanity check.

#![forbid(unsafe_code)]
// The protocol and the reactor reach this crate: it must not panic
// (DESIGN.md, "Panic-freedom is clippy's, per crate").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod catalog;
pub mod detect;
pub mod rates;

pub use catalog::{Currency, CurrencyCatalog};
pub use detect::{
    detect_price, detect_price_with_hint, validate_selection, Confidence, DetectError,
    DetectedPrice,
};
pub use rates::{FixedRates, RateProvider};

/// A detected-and-converted price ready for the Fig. 2 result page.
#[derive(Clone, Debug, PartialEq)]
pub struct Conversion {
    /// The original selected text, post-cleanup.
    pub original: String,
    /// Detected source currency ISO code.
    pub source: &'static str,
    /// Amount in the source currency.
    pub source_amount: f64,
    /// Target currency ISO code.
    pub target: String,
    /// Amount in the target currency.
    pub converted: f64,
    /// Detection confidence (Low ⇒ red asterisk in the UI).
    pub confidence: Confidence,
}

/// End-to-end helper: validate, detect, and convert a price selection into
/// `target` currency using `rates`.
///
/// ```
/// use sheriff_currency::{detect_and_convert, FixedRates};
///
/// // The paper's Fig. 2: a Canadian proxy returned "CAD912".
/// let rates = FixedRates::paper_era();
/// let conv = detect_and_convert("CAD912", "EUR", &rates).unwrap();
/// assert_eq!(conv.source, "CAD");
/// assert!((conv.converted - 646.26).abs() < 0.01);
/// ```
pub fn detect_and_convert(
    selection: &str,
    target: &str,
    rates: &dyn RateProvider,
) -> Result<Conversion, DetectError> {
    let detected = detect_price(selection)?;
    let converted = rates
        .convert(detected.amount, detected.currency.iso, target)
        .ok_or(DetectError::UnknownCurrency)?;
    Ok(Conversion {
        original: detected.original,
        source: detected.currency.iso,
        source_amount: detected.amount,
        target: target.to_string(),
        converted,
        confidence: detected.confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_rows_reproduce() {
        // Paper Fig. 2: the sample result page, converted to EUR.
        let rates = FixedRates::paper_era();
        let cases = [
            ("EUR654", 654.00),
            ("$699", 617.65),
            ("CAD912", 646.26),
            ("ILS2,963", 665.07),
            ("SEK6,283", 667.37),
            ("JPY88,204", 655.60),
            ("CZK18,215", 662.00),
            ("KRW829,075", 668.29),
            ("NZD997", 668.28),
        ];
        for (text, eur) in cases {
            let conv = detect_and_convert(text, "EUR", &rates).unwrap();
            assert!(
                (conv.converted - eur).abs() < 0.01,
                "{text}: got {:.2}, want {eur:.2}",
                conv.converted
            );
        }
    }

    #[test]
    fn dollar_sign_is_low_confidence() {
        let rates = FixedRates::paper_era();
        let conv = detect_and_convert("$699", "EUR", &rates).unwrap();
        assert_eq!(conv.confidence, Confidence::Low);
        let conv = detect_and_convert("USD699", "EUR", &rates).unwrap();
        assert_eq!(conv.confidence, Confidence::High);
    }
}
