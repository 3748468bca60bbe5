//! Property tests for the crypto layer: the encrypted protocol must agree
//! with plain arithmetic on random inputs, blinding must be lossless, and
//! each step must compute what its per-factor form (one `pow` or `mul` per
//! factor, kept here as the oracle) computed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sheriff_bigint::{mod_mul, Big};
use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::elgamal::{Ciphertext, SecretKey, StoredCiphertext};
use sheriff_crypto::ipfe::{
    client_vector, eval_inner_product, eval_inner_products, server_vector, squared_distance,
};
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

/// `eval_inner_product` as it was before one ciphertext served every
/// centroid: one `pow` per factor, `|s_i|` below the line for `s_i < 0`,
/// one division per function.
fn eval_inner_product_per_factor(params: &GroupParams, ct: &Ciphertext, s: &[i64], f: &Big) -> Big {
    let (mut num, mut denom) = (Big::one(), params.pow(&ct.alpha, f));
    for (&si, beta) in s.iter().zip(&ct.betas) {
        let factor = params.pow(beta, &Big::from_u64(si.unsigned_abs()));
        let side = if si >= 0 { &mut num } else { &mut denom };
        *side = params.mul(side, &factor);
    }
    params.div(&num, &denom)
}

/// `SecretKey::decrypt_component` as it was: divide by `α^{x_i}`.
fn decrypt_by_division(sk: &SecretKey, ct: &Ciphertext, i: usize) -> Big {
    let gp = &sk.params;
    gp.div(&ct.betas[i], &gp.pow(&ct.alpha, &sk.x[i]))
}

/// An element of `[1, p)`, not necessarily of the order-`q` subgroup: `1`
/// and `p − 1` (of order 2) often, otherwise uniform.
fn any_element(gp: &GroupParams, rng: &mut StdRng) -> Big {
    match rng.gen_range(0..6) {
        0 => Big::one(),
        1 => gp.p.sub(&Big::one()),
        _ => loop {
            let a = Big::random_below(rng, &gp.p);
            if !a.is_zero() {
                break a;
            }
        },
    }
}

/// Compares the multi-function evaluation with the per-factor oracle on
/// `k` functions, and decryption with division, for a ciphertext of
/// arbitrary elements with `m + 2` components. Function `j` is, by
/// `j mod 4`: the all-`scale` centroid (`Σb² = m·scale²`), the all-zero
/// centroid (no entry below the line), a centroid with zeros, extremes and
/// random coordinates, or a vector with no entry above the line.
fn check_against_oracles(gp: &GroupParams, m: usize, k: usize, scale: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ct = Ciphertext {
        alpha: any_element(gp, &mut rng),
        betas: (0..m + 2).map(|_| any_element(gp, &mut rng)).collect(),
    };
    let functions: Vec<(Vec<i64>, Big)> = (0..k)
        .map(|j| {
            let s = match j % 4 {
                0 => server_vector(&vec![scale; m]),
                1 => server_vector(&vec![0; m]),
                2 => {
                    let mut coordinate = || match rng.gen_range(0..4) {
                        0 => 0,
                        1 => scale,
                        _ => rng.gen_range(0..=scale),
                    };
                    server_vector(&(0..m).map(|_| coordinate()).collect::<Vec<_>>())
                }
                _ => (0..m + 2)
                    .map(|_| -rng.gen_range(0..=2 * scale as i64))
                    .collect(),
            };
            (s, gp.random_exponent(&mut rng))
        })
        .collect();
    let got = eval_inner_products(gp, &ct, functions.iter().map(|(s, f)| (s.as_slice(), f)));
    let want: Vec<Big> = functions
        .iter()
        .map(|(s, f)| eval_inner_product_per_factor(gp, &ct, s, f))
        .collect();
    assert_eq!(got, want, "m = {m}, k = {k}, seed {seed}");

    let sk = SecretKey::generate(gp, m + 2, &mut rng);
    for i in 0..m + 2 {
        let want = decrypt_by_division(&sk, &ct, i);
        assert_eq!(
            sk.decrypt_component(&ct, i),
            want,
            "component {i}, seed {seed}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shared_evaluation_and_fermat_decryption_equal_their_oracles(
        m in 1usize..24,
        k in 1usize..=8,
        scale in 1u64..=16,
        seed in 0u64..1_000,
    ) {
        let gp = if seed.is_multiple_of(2) { GroupParams::test_64() } else { GroupParams::test_128() };
        check_against_oracles(&gp, m, k, scale, seed);
    }
}

/// `PublicKey::encrypt` as it was before combs: `g^r`, and per component
/// `h_i^r · g^{c_i}` from two `pow`s and a `mul`.
fn encrypt_per_factor(gp: &GroupParams, h: &[Big], msgs: &[u64], rng: &mut StdRng) -> Ciphertext {
    let r = gp.random_exponent(rng);
    Ciphertext {
        alpha: gp.pow(&gp.g, &r),
        betas: msgs
            .iter()
            .zip(h)
            .map(|(&m, hi)| gp.mul(&gp.pow(hi, &r), &gp.pow(&gp.g, &Big::from_u64(m))))
            .collect(),
    }
}

/// `Ciphertext::pow_all` as it was: one `pow` per component.
fn pow_all_per_factor(gp: &GroupParams, ct: &Ciphertext, rho: &Big) -> Ciphertext {
    Ciphertext {
        alpha: gp.pow(&ct.alpha, rho),
        betas: ct.betas.iter().map(|b| gp.pow(b, rho)).collect(),
    }
}

/// `aggregate_cluster` as it was: `GroupParams::mul` per product over
/// `α` and the components `[2, t)`.
fn aggregate_per_product(gp: &GroupParams, members: &[&Ciphertext]) -> Option<Ciphertext> {
    let (first, rest) = members.split_first()?;
    let mut acc = first.slice(2, first.dims());
    for ct in rest {
        acc.alpha = gp.mul(&acc.alpha, &ct.alpha);
        for (a, b) in acc.betas.iter_mut().zip(&ct.betas[2..]) {
            *a = gp.mul(a, b);
        }
    }
    Some(acc)
}

/// `decrypt_centroid` as it was before one `α` table served every
/// component: divide each `β_i` by `α^{x_{2+i}}`, then solve and round.
fn decrypt_centroid_by_division(
    sk: &SecretKey,
    agg: &Ciphertext,
    n: u64,
    table: &DlogTable,
) -> Option<Vec<u64>> {
    if !agg.is_well_formed(&sk.params) {
        return None;
    }
    let gp = &sk.params;
    (agg.betas.iter().zip(&sk.x[2..]))
        .map(|(beta, x)| {
            let sum = table.solve(&gp.div(beta, &gp.pow(&agg.alpha, x)))?;
            Some((sum + n / 2) / n)
        })
        .collect()
}

/// Compares, in `gp`, key derivation, `encrypt` (values and RNG draws),
/// `pow_all` (ρ random, 1 and `q − 1`), `blind`/`unblind` (honest and
/// chosen responses, non-elements), `aggregate_cluster` and
/// `decrypt_centroid` with their per-factor forms, for `members`
/// encryptions of `m`-dimensional profiles on the grid `0..=scale`, one
/// of arbitrary messages, and one ciphertext of arbitrary elements. The
/// stored form's `pow_all` and `BlindedQuery::from_stored` are compared
/// with `pow_all` and `blind` on those and on a ciphertext whose
/// components are 0, `p` and above `p`.
fn check_protocol_against_oracles(gp: &GroupParams, m: usize, members: usize, seed: u64) {
    let scale = 16u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let sk = SecretKey::generate(gp, m + 2, &mut rng);
    let pk = sk.public_key();
    for (hi, xi) in pk.h().iter().zip(&sk.x) {
        assert_eq!(*hi, gp.pow(&gp.g, xi), "h = g^x, seed {seed}");
    }

    let mut cts = Vec::new();
    let mut profiles = Vec::new();
    for j in 0..=members {
        let msgs = if j < members {
            let profile: Vec<u64> = (0..m).map(|_| rng.gen_range(0..=scale)).collect();
            profiles.push(profile.clone());
            client_vector(&profile)
        } else {
            (0..m + 2).map(|_| rng.gen_range(0..1u64 << 40)).collect()
        };
        let mut twin = rng.clone();
        let want = encrypt_per_factor(gp, pk.h(), &msgs, &mut twin);
        let ct = pk.encrypt(&msgs, &mut rng);
        assert_eq!(ct, want, "encrypt, seed {seed}");
        assert_eq!(
            rng.gen::<u64>(),
            twin.gen::<u64>(),
            "RNG draws, seed {seed}"
        );
        cts.push(ct);
    }

    let arbitrary = Ciphertext {
        alpha: any_element(gp, &mut rng),
        betas: (0..m + 2).map(|_| any_element(gp, &mut rng)).collect(),
    };
    let rhos = [
        gp.random_exponent(&mut rng),
        Big::one(),
        gp.q.sub(&Big::one()),
    ];
    let mut outside = cts[0].clone();
    outside.alpha = Big::zero();
    outside.betas[0] = gp.p.clone();
    outside.betas[1] = gp.p.add(&any_element(gp, &mut rng));
    let blindable = [&cts[0], &arbitrary, &outside];
    let stored = blindable.map(|ct| StoredCiphertext::new(gp, ct.clone()));
    for (ct, stored) in blindable.iter().zip(&stored) {
        assert_eq!(stored.ciphertext(), *ct);
        for rho in &rhos {
            let blinded = ct.pow_all(rho, gp);
            assert_eq!(
                blinded,
                pow_all_per_factor(gp, ct, rho),
                "pow_all, seed {seed}"
            );
            assert_eq!(stored.pow_all(rho, gp), blinded, "stored, seed {seed}");
        }
    }

    let table = DlogTable::build(gp, m as u64 * scale * scale + 1);
    let rho = gp.random_exponent(&mut rng.clone());
    let query = BlindedQuery::blind(gp, &cts[0], &mut rng);
    assert_eq!(query.blinded, pow_all_per_factor(gp, &cts[0], &rho));
    let rho_inv = gp.exponent_inv(&rho);
    let blinded = |v: i64| gp.g_pow(&mod_mul(&rho, &gp.exponent_from_i64(v), &gp.q));
    let centroid = profiles.last().expect("one profile at least");
    let responses = [
        coordinator_evaluate(&sk, &query.blinded, &server_vector(centroid)),
        blinded(0),
        blinded(-3),
        blinded(m as i64 * 256),
        any_element(gp, &mut rng),
        Big::zero(),
        gp.p.clone(),
    ];
    for resp in &responses {
        let want = if gp.contains(resp) {
            table.solve_signed(&gp.pow(resp, &rho_inv))
        } else {
            None
        };
        assert_eq!(
            query.unblind(gp, resp, &table),
            want,
            "unblind, seed {seed}"
        );
    }
    for (ct, stored) in blindable.iter().zip(&stored) {
        let mut twin = rng.clone();
        let want = BlindedQuery::blind(gp, ct, &mut twin);
        let got = BlindedQuery::from_stored(gp, stored, &gp.random_exponent(&mut rng));
        assert_eq!(got.blinded, want.blinded, "from_stored, seed {seed}");
        for resp in &responses {
            assert_eq!(
                got.unblind(gp, resp, &table),
                want.unblind(gp, resp, &table),
                "stored unblind, seed {seed}"
            );
        }
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "ρ draws, seed {seed}");
    }

    let sums = DlogTable::build(gp, members as u64 * scale + 1);
    let refs: Vec<&Ciphertext> = cts[..members].iter().collect();
    let agg = aggregate_cluster(gp, &refs).expect("members");
    assert_eq!(Some(agg.clone()), aggregate_per_product(gp, &refs));
    let n = members as u64;
    let centroid = decrypt_centroid(&sk, &agg, n, 2, &sums);
    assert_eq!(centroid, decrypt_centroid_by_division(&sk, &agg, n, &sums));
    assert!(centroid.is_some(), "honest aggregate decrypts, seed {seed}");
    let odd = [&arbitrary, &cts[members]];
    let agg = aggregate_cluster(gp, &odd).expect("two members");
    assert_eq!(Some(agg.clone()), aggregate_per_product(gp, &odd));
    assert_eq!(
        decrypt_centroid(&sk, &agg, 2, 2, &sums),
        decrypt_centroid_by_division(&sk, &agg, 2, &sums)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn protocol_steps_equal_their_per_factor_oracles(
        m in 1usize..24,
        members in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let gp = if seed.is_multiple_of(2) { GroupParams::test_64() } else { GroupParams::test_128() };
        check_protocol_against_oracles(&gp, m, members, seed);
    }
}

/// The same comparisons in the 256- and 512-bit groups (the kernel's
/// widest unrolled instances) and the RFC 3526 2048-bit group (its general
/// path). A few seconds in a release build: `cargo test --release -p
/// sheriff-crypto -- --ignored`.
#[test]
#[ignore = "wide groups: run in release by ci.sh"]
fn shared_evaluation_and_fermat_decryption_equal_their_oracles_in_wide_groups() {
    for gp in [GroupParams::bits_512(), GroupParams::modp_2048()] {
        for (seed, k) in [(1u64, 1usize), (2, 4), (3, 8)] {
            check_against_oracles(&gp, 20, k, 16, seed);
        }
    }
    for gp in [
        GroupParams::bits_256(),
        GroupParams::bits_512(),
        GroupParams::modp_2048(),
    ] {
        for (seed, members) in [(4u64, 1usize), (5, 3)] {
            check_protocol_against_oracles(&gp, 20, members, seed);
        }
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
