//! Property tests for the crypto layer: the encrypted protocol must agree
//! with plain arithmetic on random inputs, and blinding must be lossless.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sheriff_bigint::Big;
use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::elgamal::{Ciphertext, SecretKey};
use sheriff_crypto::ipfe::{client_vector, eval_inner_product, server_vector, squared_distance};
use sheriff_crypto::protocol::{
    aggregate_cluster, coordinator_evaluate, decrypt_centroid, BlindedQuery,
};
use sheriff_crypto::GroupParams;

/// `eval_inner_product` as it was before it split by sign: every entry of
/// `s`, negative ones as `q − |s_i|`, raised above the line.
fn eval_inner_product_unsplit(params: &GroupParams, ct: &Ciphertext, s: &[i64], f: &Big) -> Big {
    let mut num = Big::one();
    for (si, beta) in s.iter().zip(&ct.betas) {
        let e = params.exponent_from_i64(*si);
        num = params.mul(&num, &params.pow(beta, &e));
    }
    params.div(&num, &params.pow(&ct.alpha, f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn split_inner_product_equals_full_width_form(
        s in proptest::collection::vec(-6000i64..6000, 1..9),
        seed in 0u64..1_000,
    ) {
        // Any subgroup elements will do: the identity is about the group,
        // not about well-keyed ciphertexts.
        let gp = if seed.is_multiple_of(2) { GroupParams::test_64() } else { GroupParams::test_128() };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut element = || gp.g_pow(&gp.random_exponent(&mut rng));
        let ct = Ciphertext {
            alpha: element(),
            betas: s.iter().map(|_| element()).collect(),
        };
        let f = gp.random_exponent(&mut StdRng::seed_from_u64(!seed));
        prop_assert_eq!(
            eval_inner_product(&gp, &ct, &s, &f),
            eval_inner_product_unsplit(&gp, &ct, &s, &f)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blinded_distance_matches_plain(
        a in proptest::collection::vec(0u64..16, 1..6),
        seed in 0u64..1_000,
    ) {
        let b: Vec<u64> = a.iter().map(|&x| (x + seed) % 16).collect();
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = client_vector(&a);
        let sk = SecretKey::generate(&gp, c.len(), &mut rng);
        let ct = sk.public_key().encrypt(&c, &mut rng);

        let query = BlindedQuery::blind(&gp, &ct, &mut rng);
        let s = server_vector(&b);
        let resp = coordinator_evaluate(&sk, &query.blinded, &s);
        let table = DlogTable::build(&gp, 8192);
        prop_assert_eq!(
            query.unblind(&gp, &resp, &table),
            Some(squared_distance(&a, &b))
        );
    }

    #[test]
    fn aggregated_centroid_is_rounded_mean(
        pts in proptest::collection::vec(
            proptest::collection::vec(0u64..20, 3),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&gp, 5, &mut rng);
        let pk = sk.public_key();
        let cts: Vec<_> = pts
            .iter()
            .map(|p| pk.encrypt(&client_vector(p), &mut rng))
            .collect();
        let refs: Vec<_> = cts.iter().collect();
        let agg = aggregate_cluster(&gp, &refs).unwrap();
        let n = pts.len() as u64;
        let table = DlogTable::build(&gp, 20 * 6 + 1);
        let got = decrypt_centroid(&sk, &agg, n, 2, &table).unwrap();
        let want: Vec<u64> = (0..3)
            .map(|d| {
                let sum: u64 = pts.iter().map(|p| p[d]).sum();
                (sum + n / 2) / n
            })
            .collect();
        prop_assert_eq!(got, want);
    }
}
