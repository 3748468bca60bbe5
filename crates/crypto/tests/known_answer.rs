//! Known-answer transcripts of one seeded protocol round per baked group.
//!
//! The hex below was recorded at the commit *before* the arithmetic under
//! this crate was replaced (schoolbook `mul` + Knuth D `rem`, Euclid
//! inversion, `q − 2b` exponents). It pins, in one assertion per group, how
//! the RNG is consumed (`random_exponent` for every key, `r` and ρ) and the
//! value of every primitive the round touches: `g^x`, `h^r·g^c`, `ct^ρ`,
//! `ρ⁻¹ mod q`, the function key, and `Π β_i^{s_i} / α^f`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::elgamal::SecretKey;
use sheriff_crypto::ipfe::{client_vector, server_vector, squared_distance};
use sheriff_crypto::protocol::{coordinator_evaluate, BlindedQuery};
use sheriff_crypto::GroupParams;

const POINT: [u64; 4] = [3, 0, 7, 2];
const CENTROID: [u64; 4] = [1, 4, 7, 0];

/// `(α, β₀, β_last)` of the seeded `encrypt`, `blind(..).blinded.alpha`, and
/// `coordinator_evaluate`'s result, as hex.
fn transcript(params: &GroupParams) -> [String; 5] {
    let mut rng = StdRng::seed_from_u64(0x5eed_1742);
    let sk = SecretKey::generate(params, POINT.len() + 2, &mut rng);
    let ct = sk.public_key().encrypt(&client_vector(&POINT), &mut rng);
    let query = BlindedQuery::blind(params, &ct, &mut rng);
    let resp = coordinator_evaluate(&sk, &query.blinded, &server_vector(&CENTROID));
    let table = DlogTable::build(params, 1024);
    assert_eq!(
        query.unblind(params, &resp, &table),
        Some(squared_distance(&POINT, &CENTROID))
    );
    [
        ct.alpha.to_hex(),
        ct.betas[0].to_hex(),
        ct.betas[POINT.len() + 1].to_hex(),
        query.blinded.alpha.to_hex(),
        resp.to_hex(),
    ]
}

#[test]
fn test_64_transcript() {
    assert_eq!(
        transcript(&GroupParams::test_64()),
        [
            "2a612d1b70625345",
            "5c1f3bea7c3c256e",
            "53bce29ea9f59d55",
            "5d5666a01a43d9bb",
            "14195d0c3294d364",
        ]
    );
}

#[test]
fn test_128_transcript() {
    assert_eq!(
        transcript(&GroupParams::test_128()),
        [
            "6dc45d9613775163dbdcc82bceb42a3",
            "676a90a07b4789117e7e0984e7a668f5",
            "4573161f8c54e1dd8211671cc45dc741",
            "7be905bb147cc41692b72b198900e690",
            "2ded2e728a55664033111954418e1cf8",
        ]
    );
}

#[test]
fn bits_256_transcript() {
    assert_eq!(
        transcript(&GroupParams::bits_256()),
        [
            "3810e6a9b904549431f7edac87c93b2af58479dba7d4e57b7880a5dd438aaf24",
            "7ca9d461b45e32b556f3baf24160963febfac4b959f87cc0a960f77dc4a85e7e",
            "809511f45d3232e63f1e56b2332eb70d01e7104f2743d5ff69661d3492d07982",
            "607d57ea8a239adc3955b53aba71aa3f2d0d9f7552b3468af5752433a81d81ee",
            "70f52babed35e096e695224fbcb00634e20fd6873630203bbef34d69fd8e26af",
        ]
    );
}
