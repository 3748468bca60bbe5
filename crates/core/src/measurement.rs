//! The Measurement-server pipeline (paper §3.2, §3.3, §3.5, §10.5):
//! Tags-Path price extraction, currency detection/conversion, and
//! DiffStorage, as pure functions the `system` nodes drive.

use serde::{Deserialize, Serialize};
use sheriff_currency::{detect_price_with_hint, Confidence, FixedRates, RateProvider};
use sheriff_geo::{Country, IpV4};
use sheriff_html::tagspath::{extract_text_by_path, TagsPath};
use sheriff_html::Document;

use crate::records::{PriceObservation, VantageKind};

/// Metadata of the vantage point that produced an HTML response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VantageMeta {
    /// Vantage kind.
    pub kind: VantageKind,
    /// Stable identifier.
    pub id: u64,
    /// Country.
    pub country: Country,
    /// City when known.
    pub city: Option<String>,
    /// Source IP.
    pub ip: IpV4,
}

/// The currency every result is converted into (Fig. 2's "Converted
/// Value" column): [`PriceObservation::amount_eur`].
pub const TARGET_CURRENCY: &str = "EUR";

/// Processes one proxy response into a [`PriceObservation`]: parses
/// `html`, then [`process_document`].
pub fn process_response(
    html: &str,
    path: &TagsPath,
    meta: &VantageMeta,
    rates: &FixedRates,
) -> PriceObservation {
    process_document(&Document::parse(html), path, meta, rates)
}

/// Processes one parsed proxy response into a [`PriceObservation`].
///
/// `doc` is the fetched page (possibly a CAPTCHA page), `path` the
/// initiator's Tags Path; the price is converted into
/// [`TARGET_CURRENCY`].
pub fn process_document(
    doc: &Document,
    path: &TagsPath,
    meta: &VantageMeta,
    rates: &FixedRates,
) -> PriceObservation {
    // Failed until a price is extracted, detected and converted.
    let mut obs = PriceObservation {
        vantage: meta.kind,
        vantage_id: meta.id,
        country: meta.country,
        city: meta.city.clone(),
        ip: meta.ip,
        raw_text: String::new(),
        currency: String::new(),
        amount: 0.0,
        amount_eur: 0.0,
        low_confidence: false,
        failed: true,
    };
    let Some((raw_text, _quality)) = extract_text_by_path(doc, path) else {
        return obs;
    };
    obs.raw_text = raw_text;
    // Geo-hinting for ambiguous symbols: when `$`/`kr`/`¥` could denote
    // several currencies, prefer the vantage country's own currency (a
    // Canadian proxy seeing `$912` is looking at CAD) — including its
    // decimal convention during parsing. The observation stays flagged
    // low-confidence — the Fig. 2 red asterisk — and the §6/§7 analyses
    // treat it accordingly.
    let Ok(detected) = detect_price_with_hint(&obs.raw_text, meta.country.currency()) else {
        return obs;
    };
    let currency_iso = detected.currency.iso;
    let Some(amount_eur) = rates.convert(detected.amount, currency_iso, TARGET_CURRENCY) else {
        return obs;
    };
    obs.currency = currency_iso.to_string();
    obs.amount = detected.amount;
    obs.amount_eur = amount_eur;
    obs.low_confidence = detected.confidence == Confidence::Low;
    obs.failed = false;
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_market::{format_price, PriceFormat};

    fn page(price_text: &str) -> String {
        format!(
            "<html><body><div class=\"product\">\
             <span class=\"price\">{price_text}</span></div></body></html>"
        )
    }

    fn meta() -> VantageMeta {
        VantageMeta {
            kind: VantageKind::Ipc,
            id: 3,
            country: Country::US,
            city: Some("Tennessee".into()),
            ip: IpV4(1),
        }
    }

    /// The Tags Path of `html`'s price element, recorded as `PeerProto`
    /// records the initiator's.
    fn path_for(html: &str) -> TagsPath {
        let doc = Document::parse(html);
        let price = doc.find_by_class("span", "price").expect("price element");
        TagsPath::from_node(&doc, price).expect("path")
    }

    #[test]
    fn full_pipeline_fig2_row() {
        // $699 seen in the US converts to €617.65 (Fig. 2).
        let rates = FixedRates::paper_era();
        let html = page("$699");
        let path = path_for(&html);
        let obs = process_response(&html, &path, &meta(), &rates);
        assert!(!obs.failed);
        assert_eq!(obs.currency, "USD");
        assert!((obs.amount - 699.0).abs() < 1e-9);
        assert!((obs.amount_eur - 617.65).abs() < 0.01);
        assert!(obs.low_confidence, "bare $ is ambiguous");
    }

    #[test]
    fn remote_page_with_different_price_extracts() {
        let rates = FixedRates::paper_era();
        let local = page("EUR100.00");
        let path = path_for(&local);
        let remote = page("CAD912.00");
        let obs = process_response(&remote, &path, &meta(), &rates);
        assert!(!obs.failed);
        assert_eq!(obs.currency, "CAD");
        assert!((obs.amount_eur - 646.26).abs() < 0.01);
    }

    #[test]
    fn captcha_page_fails_gracefully() {
        let rates = FixedRates::paper_era();
        let local = page("EUR5.00");
        let path = path_for(&local);
        let captcha = sheriff_market::page::render_captcha("shop.example");
        let obs = process_response(&captcha, &path, &meta(), &rates);
        assert!(obs.failed);
    }

    #[test]
    fn all_market_formats_pipeline_cleanly() {
        let rates = FixedRates::paper_era();
        for (fmt, cur) in [
            (PriceFormat::CodeConcat, "EUR"),
            (PriceFormat::CodeSuffix, "SEK"),
            (PriceFormat::SymbolPrefix, "USD"),
            (PriceFormat::SymbolSuffixEu, "EUR"),
            (PriceFormat::CodeConcat, "JPY"),
        ] {
            let text = format_price(1234.5, cur, fmt);
            let html = page(&text);
            let path = path_for(&html);
            let obs = process_response(&html, &path, &meta(), &rates);
            assert!(!obs.failed, "{fmt:?} {cur}: {text}");
            assert_eq!(obs.currency, cur, "{text}");
        }
    }

    #[test]
    fn deeply_nested_reply_is_processed_on_a_small_stack() {
        // A Byzantine PPC's reply: the price element, then 200 000 open
        // <b>s. Reactor shards run on 2 MiB thread stacks; a subtree walk
        // that recursed per level would abort the whole process there.
        let html = format!("<span class=\"price\">{}EUR9.00", "<b>".repeat(200_000));
        let path = path_for(&page("EUR1.00"));
        let obs = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || process_response(&html, &path, &meta(), &FixedRates::paper_era()))
            .expect("spawn")
            .join()
            .expect("no stack overflow");
        assert!(!obs.failed);
        assert_eq!(obs.raw_text, "EUR9.00");
        assert!((obs.amount_eur - 9.0).abs() < 1e-9);
    }
}
