//! The country catalogue.
//!
//! Countries are small copyable handles ([`Country`]) into a static table.
//! The set covers the paper's measurements: the top-10 user countries of
//! Table 2, the extreme-price countries of Table 4, every currency in the
//! Fig. 2 result page, and enough others to populate "1265 users from 55
//! countries" (§6.1).

use std::fmt;

use serde::{Deserialize, Serialize};

/// World region, used by the latency model and for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variant names are the documentation
pub enum Region {
    Europe,
    NorthAmerica,
    SouthAmerica,
    Asia,
    Oceania,
    Africa,
    MiddleEast,
}

pub(crate) struct CountryInfo {
    pub code: &'static str,
    pub name: &'static str,
    pub region: Region,
    /// ISO-4217 currency code as quoted by local retailers.
    pub currency: &'static str,
    /// Standard VAT / sales-tax rate (fraction, e.g. 0.21).
    pub vat_standard: f64,
    /// Reduced rate applied to favoured categories (books etc.).
    pub vat_reduced: f64,
    /// Representative cities for geolocation results.
    pub cities: &'static [&'static str],
}

macro_rules! country_table {
    ($(($n:literal, $idx:ident, $code:literal, $name:literal, $region:ident, $cur:literal,
        $vat:literal, $vatr:literal, [$($city:literal),+])),+ $(,)?) => {
        /// Index constants, one per catalogue row.
        #[allow(missing_docs)]
        impl Country {
            $(pub const $idx: Country = Country($n);)+
        }

        pub(crate) const TABLE: &[CountryInfo] = &[
            $(CountryInfo {
                code: $code,
                name: $name,
                region: Region::$region,
                currency: $cur,
                vat_standard: $vat,
                vat_reduced: $vatr,
                cities: &[$($city),+],
            }),+
        ];
    };
}

/// A handle to one catalogue country. `Copy`, order-stable, serde-friendly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Country(u8);

country_table![
    (
        0,
        ES,
        "ES",
        "Spain",
        Europe,
        "EUR",
        0.21,
        0.10,
        ["Madrid", "Barcelona", "Valencia"]
    ),
    (
        1,
        FR,
        "FR",
        "France",
        Europe,
        "EUR",
        0.20,
        0.055,
        ["Paris", "Lyon", "Marseille"]
    ),
    (
        2,
        US,
        "US",
        "United States",
        NorthAmerica,
        "USD",
        0.0,
        0.0,
        ["Tennessee", "Massachusetts", "Washington", "New York"]
    ),
    (
        3,
        CH,
        "CH",
        "Switzerland",
        Europe,
        "CHF",
        0.077,
        0.025,
        ["Zurich", "Geneva", "Bern"]
    ),
    (
        4,
        DE,
        "DE",
        "Germany",
        Europe,
        "EUR",
        0.19,
        0.07,
        ["Berlin", "Munich", "Hamburg"]
    ),
    (
        5,
        BE,
        "BE",
        "Belgium",
        Europe,
        "EUR",
        0.21,
        0.06,
        ["Brussels", "Antwerp"]
    ),
    (
        6,
        GB,
        "GB",
        "United Kingdom",
        Europe,
        "GBP",
        0.20,
        0.0,
        ["London", "Manchester", "Edinburgh"]
    ),
    (
        7,
        NL,
        "NL",
        "Netherlands",
        Europe,
        "EUR",
        0.21,
        0.09,
        ["Amsterdam", "Rotterdam"]
    ),
    (
        8,
        CY,
        "CY",
        "Cyprus",
        Europe,
        "EUR",
        0.19,
        0.05,
        ["Nicosia", "Limassol"]
    ),
    (
        9,
        CA,
        "CA",
        "Canada",
        NorthAmerica,
        "CAD",
        0.05,
        0.0,
        ["British Columbia", "Ontario", "Quebec"]
    ),
    (
        10,
        JP,
        "JP",
        "Japan",
        Asia,
        "JPY",
        0.08,
        0.08,
        ["Tokyo", "Hiroshima", "Osaka"]
    ),
    (
        11,
        CZ,
        "CZ",
        "Czech Republic",
        Europe,
        "CZK",
        0.21,
        0.15,
        ["Praha", "Brno"]
    ),
    (
        12,
        KR,
        "KR",
        "Korea",
        Asia,
        "KRW",
        0.10,
        0.10,
        ["Seoul", "Busan"]
    ),
    (
        13,
        NZ,
        "NZ",
        "New Zealand",
        Oceania,
        "NZD",
        0.15,
        0.15,
        ["Dunedin", "Auckland"]
    ),
    (
        14,
        SE,
        "SE",
        "Sweden",
        Europe,
        "SEK",
        0.25,
        0.06,
        ["Scandinavia", "Stockholm"]
    ),
    (
        15,
        IL,
        "IL",
        "Israel",
        MiddleEast,
        "ILS",
        0.17,
        0.0,
        ["Beer-Sheva", "Tel Aviv"]
    ),
    (
        16,
        PT,
        "PT",
        "Portugal",
        Europe,
        "EUR",
        0.23,
        0.06,
        ["Lisbon", "Porto"]
    ),
    (
        17,
        IE,
        "IE",
        "Ireland",
        Europe,
        "EUR",
        0.23,
        0.09,
        ["Dublin", "Cork"]
    ),
    (
        18,
        HK,
        "HK",
        "Hong Kong",
        Asia,
        "HKD",
        0.0,
        0.0,
        ["Hong Kong"]
    ),
    (
        19,
        BR,
        "BR",
        "Brazil",
        SouthAmerica,
        "BRL",
        0.17,
        0.07,
        ["Sao Paulo", "Rio de Janeiro"]
    ),
    (
        20,
        AU,
        "AU",
        "Australia",
        Oceania,
        "AUD",
        0.10,
        0.0,
        ["Sydney", "Melbourne"]
    ),
    (
        21,
        SG,
        "SG",
        "Singapore",
        Asia,
        "SGD",
        0.07,
        0.07,
        ["Singapore"]
    ),
    (
        22,
        TH,
        "TH",
        "Thailand",
        Asia,
        "THB",
        0.07,
        0.07,
        ["Bangkok", "Chiang Mai"]
    ),
    (
        23,
        IT,
        "IT",
        "Italy",
        Europe,
        "EUR",
        0.22,
        0.10,
        ["Rome", "Milan"]
    ),
    (
        24,
        AT,
        "AT",
        "Austria",
        Europe,
        "EUR",
        0.20,
        0.10,
        ["Vienna", "Graz"]
    ),
    (
        25,
        DK,
        "DK",
        "Denmark",
        Europe,
        "DKK",
        0.25,
        0.25,
        ["Copenhagen"]
    ),
    (
        26,
        NO,
        "NO",
        "Norway",
        Europe,
        "NOK",
        0.25,
        0.15,
        ["Oslo", "Bergen"]
    ),
    (
        27,
        FI,
        "FI",
        "Finland",
        Europe,
        "EUR",
        0.24,
        0.10,
        ["Helsinki"]
    ),
    (
        28,
        PL,
        "PL",
        "Poland",
        Europe,
        "PLN",
        0.23,
        0.08,
        ["Warsaw", "Krakow"]
    ),
    (
        29,
        GR,
        "GR",
        "Greece",
        Europe,
        "EUR",
        0.24,
        0.13,
        ["Athens", "Thessaloniki"]
    ),
    (
        30,
        HU,
        "HU",
        "Hungary",
        Europe,
        "HUF",
        0.27,
        0.18,
        ["Budapest"]
    ),
    (
        31,
        RO,
        "RO",
        "Romania",
        Europe,
        "RON",
        0.19,
        0.09,
        ["Bucharest"]
    ),
    (
        32,
        BG,
        "BG",
        "Bulgaria",
        Europe,
        "BGN",
        0.20,
        0.09,
        ["Sofia"]
    ),
    (
        33,
        HR,
        "HR",
        "Croatia",
        Europe,
        "EUR",
        0.25,
        0.13,
        ["Zagreb"]
    ),
    (
        34,
        SK,
        "SK",
        "Slovakia",
        Europe,
        "EUR",
        0.20,
        0.10,
        ["Bratislava"]
    ),
    (
        35,
        SI,
        "SI",
        "Slovenia",
        Europe,
        "EUR",
        0.22,
        0.095,
        ["Ljubljana"]
    ),
    (
        36,
        EE,
        "EE",
        "Estonia",
        Europe,
        "EUR",
        0.20,
        0.09,
        ["Tallinn"]
    ),
    (37, LV, "LV", "Latvia", Europe, "EUR", 0.21, 0.12, ["Riga"]),
    (
        38,
        LT,
        "LT",
        "Lithuania",
        Europe,
        "EUR",
        0.21,
        0.09,
        ["Vilnius"]
    ),
    (
        39,
        LU,
        "LU",
        "Luxembourg",
        Europe,
        "EUR",
        0.17,
        0.08,
        ["Luxembourg"]
    ),
    (
        40,
        MT,
        "MT",
        "Malta",
        Europe,
        "EUR",
        0.18,
        0.05,
        ["Valletta"]
    ),
    (
        41,
        MX,
        "MX",
        "Mexico",
        NorthAmerica,
        "MXN",
        0.16,
        0.0,
        ["Mexico City", "Guadalajara"]
    ),
    (
        42,
        AR,
        "AR",
        "Argentina",
        SouthAmerica,
        "ARS",
        0.21,
        0.105,
        ["Buenos Aires"]
    ),
    (
        43,
        CL,
        "CL",
        "Chile",
        SouthAmerica,
        "CLP",
        0.19,
        0.19,
        ["Santiago"]
    ),
    (
        44,
        CO,
        "CO",
        "Colombia",
        SouthAmerica,
        "COP",
        0.19,
        0.05,
        ["Bogota"]
    ),
    (
        45,
        IN,
        "IN",
        "India",
        Asia,
        "INR",
        0.18,
        0.05,
        ["Mumbai", "Bangalore"]
    ),
    (
        46,
        CN,
        "CN",
        "China",
        Asia,
        "CNY",
        0.13,
        0.09,
        ["Beijing", "Shanghai"]
    ),
    (47, TW, "TW", "Taiwan", Asia, "TWD", 0.05, 0.05, ["Taipei"]),
    (
        48,
        MY,
        "MY",
        "Malaysia",
        Asia,
        "MYR",
        0.06,
        0.06,
        ["Kuala Lumpur"]
    ),
    (
        49,
        ID,
        "ID",
        "Indonesia",
        Asia,
        "IDR",
        0.11,
        0.11,
        ["Jakarta"]
    ),
    (
        50,
        PH,
        "PH",
        "Philippines",
        Asia,
        "PHP",
        0.12,
        0.12,
        ["Manila"]
    ),
    (51, VN, "VN", "Vietnam", Asia, "VND", 0.10, 0.05, ["Hanoi"]),
    (
        52,
        ZA,
        "ZA",
        "South Africa",
        Africa,
        "ZAR",
        0.15,
        0.0,
        ["Johannesburg", "Cape Town"]
    ),
    (53, EG, "EG", "Egypt", Africa, "EGP", 0.14, 0.05, ["Cairo"]),
    (
        54,
        TR,
        "TR",
        "Turkey",
        MiddleEast,
        "TRY",
        0.20,
        0.10,
        ["Istanbul", "Ankara"]
    ),
    (
        55,
        AE,
        "AE",
        "United Arab Emirates",
        MiddleEast,
        "AED",
        0.05,
        0.0,
        ["Dubai"]
    ),
];

impl Country {
    /// All catalogue countries, in stable order.
    pub fn all() -> impl Iterator<Item = Country> {
        (0..TABLE.len() as u8).map(Country)
    }

    /// Number of catalogue countries.
    pub fn count() -> usize {
        TABLE.len()
    }

    /// Looks up by ISO-3166 alpha-2 code (case-insensitive).
    pub fn from_code(code: &str) -> Option<Country> {
        TABLE
            .iter()
            .position(|c| c.code.eq_ignore_ascii_case(code))
            .map(|i| Country(i as u8))
    }

    /// Catalogue row index (stable; used by the IP allocator).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    // Country is only minted from catalogue row positions (`from_code`,
    // the IP allocator), so the index is in range by construction; a
    // fabricated byte would mask catalogue corruption if silently
    // remapped, so the direct index stays.
    #[expect(clippy::indexing_slicing, reason = "in range by construction")]
    fn info(self) -> &'static CountryInfo {
        &TABLE[self.0 as usize]
    }

    /// ISO alpha-2 code.
    pub fn code(self) -> &'static str {
        self.info().code
    }

    /// English name.
    pub fn name(self) -> &'static str {
        self.info().name
    }

    /// World region.
    pub fn region(self) -> Region {
        self.info().region
    }

    /// Local currency's ISO-4217 code.
    pub fn currency(self) -> &'static str {
        self.info().currency
    }

    /// Standard VAT rate as a fraction.
    pub fn vat_standard(self) -> f64 {
        self.info().vat_standard
    }

    /// Reduced VAT rate as a fraction.
    pub fn vat_reduced(self) -> f64 {
        self.info().vat_reduced
    }

    /// Representative cities.
    pub fn cities(self) -> &'static [&'static str] {
        self.info().cities
    }
}

impl fmt::Debug for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

impl fmt::Display for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_large_enough_for_live_study() {
        // §6.1: users from 55 countries.
        assert!(
            Country::count() >= 55,
            "only {} countries",
            Country::count()
        );
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<&str> = Country::all().map(Country::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Country::count());
    }

    #[test]
    fn lookup_by_code() {
        assert_eq!(Country::from_code("es"), Some(Country::ES));
        assert_eq!(Country::from_code("GB"), Some(Country::GB));
        assert_eq!(Country::from_code("XX"), None);
    }

    #[test]
    fn table2_top_countries_present() {
        for code in ["ES", "FR", "US", "CH", "DE", "BE", "GB", "NL", "CY", "CA"] {
            assert!(Country::from_code(code).is_some(), "{code} missing");
        }
    }

    #[test]
    fn fig2_currencies_present() {
        let want = [
            "EUR", "USD", "CAD", "ILS", "SEK", "JPY", "CZK", "KRW", "NZD",
        ];
        let have: Vec<&str> = Country::all().map(Country::currency).collect();
        for w in want {
            assert!(have.contains(&w), "currency {w} missing");
        }
    }

    #[test]
    fn vat_rates_sane() {
        for c in Country::all() {
            assert!((0.0..0.35).contains(&c.vat_standard()), "{c:?}");
            assert!(c.vat_reduced() <= c.vat_standard() + 1e-9, "{c:?}");
            assert!(!c.cities().is_empty(), "{c:?}");
        }
    }

    #[test]
    fn eu_vat_values_match_paper_case_study() {
        // §7.3: amazon differences matched VAT scales; ES standard is 21%,
        // DE reduced is 7%.
        assert!((Country::ES.vat_standard() - 0.21).abs() < 1e-9);
        assert!((Country::DE.vat_reduced() - 0.07).abs() < 1e-9);
    }
}
