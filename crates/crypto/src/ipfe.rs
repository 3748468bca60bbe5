//! Inner-product evaluation on ElGamal-at-the-exponent ciphertexts
//! (the functional-encryption view of Abdalla et al., paper §10.4).
//!
//! The key holder derives a *function key* `f = Σ x_i·s_i mod q` for a
//! vector `s`; anyone holding `f`, `s`, and a ciphertext `(α, (β_i))` of `c`
//! can compute
//!
//! ```text
//! γ = Π β_i^{s_i} / α^f = g^{c·s}
//! ```
//!
//! without learning `c`. In the $heriff protocol the Coordinator holds both
//! the keys and `s` (the centroid-derived vector), so it evaluates the
//! product itself on a *blinded* ciphertext — see [`crate::protocol`].

use sheriff_bigint::{mod_add, mod_mul, Big};

use crate::elgamal::{Ciphertext, SecretKey};
use crate::group::GroupParams;

/// Derives the function key `f = Σ x_i·s_i mod q` for function vector `s`
/// (entries may be negative; they are reduced into `[0, q)`).
///
/// # Panics
/// If `s.len()` differs from the key dimension.
pub fn derive_function_key(sk: &SecretKey, s: &[i64]) -> Big {
    assert_eq!(s.len(), sk.x.len(), "function vector dimension mismatch");
    let q = &sk.params.q;
    s.iter().zip(&sk.x).fold(Big::zero(), |acc, (&si, xi)| {
        let si = sk.params.exponent_from_i64(si);
        mod_add(&acc, &mod_mul(&si, xi, q), q)
    })
}

/// Evaluates `g^{c·s}` from a ciphertext of `c`, the function vector `s`,
/// and its function key `f`.
///
/// Factors with `s_i < 0` are raised to `|s_i|` and join `α^f` below the
/// line, so every exponent but `f` is as small as the entry itself: the same
/// element as `β_i^{q − |s_i|}` above the line whenever `β_i` lies in the
/// order-`q` subgroup, as every component of an honest ciphertext does.
///
/// # Panics
/// If dimensions disagree, or what ends up below the line is `≡ 0 (mod p)`:
/// callers check [`Ciphertext::is_well_formed`] first.
pub fn eval_inner_product(params: &GroupParams, ct: &Ciphertext, s: &[i64], f: &Big) -> Big {
    assert_eq!(
        s.len(),
        ct.betas.len(),
        "function vector dimension mismatch"
    );
    let (mut num, mut denom) = (Big::one(), params.pow(&ct.alpha, f));
    for (&si, beta) in s.iter().zip(&ct.betas) {
        let factor = params.pow(beta, &Big::from_u64(si.unsigned_abs()));
        let side = if si >= 0 { &mut num } else { &mut denom };
        *side = params.mul(side, &factor);
    }
    params.div(&num, &denom)
}

/// Builds the client-side vector `c = (Σ a_i², 1, a_1, …, a_m)` from a
/// profile point `a` (paper §3.8).
pub fn client_vector(a: &[u64]) -> Vec<u64> {
    let sum_sq: u64 = a.iter().map(|&x| x * x).sum();
    let mut c = Vec::with_capacity(a.len() + 2);
    c.push(sum_sq);
    c.push(1);
    c.extend_from_slice(a);
    c
}

/// Builds the server-side vector `s = (1, Σ b_i², -2·b_1, …, -2·b_m)` from a
/// centroid point `b`, so that `c·s = Σa² + Σb² - 2Σ a_i b_i = d²(a, b)`.
pub fn server_vector(b: &[u64]) -> Vec<i64> {
    let sum_sq: i64 = b.iter().map(|&x| (x * x) as i64).sum();
    let mut s = Vec::with_capacity(b.len() + 2);
    s.push(1);
    s.push(sum_sq);
    s.extend(b.iter().map(|&x| -2 * (x as i64)));
    s
}

/// Plain-arithmetic squared Euclidean distance, the reference the encrypted
/// protocol must agree with.
pub fn squared_distance(a: &[u64], b: &[u64]) -> i64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as i64 - y as i64;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlog::DlogTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sheriff_bigint::mod_add;

    #[test]
    fn vectors_multiply_to_squared_distance() {
        let a = [3u64, 0, 7, 2];
        let b = [1u64, 4, 7, 0];
        let c = client_vector(&a);
        let s = server_vector(&b);
        let dot: i64 = c.iter().zip(&s).map(|(&ci, &si)| ci as i64 * si).sum();
        assert_eq!(dot, squared_distance(&a, &b));
    }

    #[test]
    fn encrypted_inner_product_matches_plain() {
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(17);
        let a = [5u64, 0, 3, 9, 1];
        let b = [2u64, 2, 3, 8, 4];
        let c = client_vector(&a);
        let s = server_vector(&b);

        let sk = SecretKey::generate(&gp, c.len(), &mut rng);
        let pk = sk.public_key();
        let ct = pk.encrypt(&c, &mut rng);

        let f = derive_function_key(&sk, &s);
        let gamma = eval_inner_product(&gp, &ct, &s, &f);

        let expected = squared_distance(&a, &b);
        let table = DlogTable::build(&gp, 4096);
        assert_eq!(table.solve_signed(&gamma), Some(expected));
    }

    #[test]
    fn zero_distance_for_identical_points() {
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(23);
        let a = [4u64, 4, 4];
        let c = client_vector(&a);
        let s = server_vector(&a);
        let sk = SecretKey::generate(&gp, c.len(), &mut rng);
        let ct = sk.public_key().encrypt(&c, &mut rng);
        let gamma = eval_inner_product(&gp, &ct, &s, &derive_function_key(&sk, &s));
        assert!(gamma.is_one(), "g^0 expected for identical points");
    }

    #[test]
    fn function_key_is_linear() {
        // f(s1 + s2) = f(s1) + f(s2) mod q
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(31);
        let sk = SecretKey::generate(&gp, 3, &mut rng);
        let s1 = [1i64, -2, 3];
        let s2 = [4i64, 5, -6];
        let sum: Vec<i64> = s1.iter().zip(&s2).map(|(a, b)| a + b).collect();
        let f_sum = derive_function_key(&sk, &sum);
        let f1 = derive_function_key(&sk, &s1);
        let f2 = derive_function_key(&sk, &s2);
        assert_eq!(f_sum, mod_add(&f1, &f2, &gp.q));
    }
}
