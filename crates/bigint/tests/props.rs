//! Property-based tests for the big-integer substrate.
//!
//! These pin the algebraic laws the crypto layer depends on: ring axioms,
//! the division identity, shift/multiply equivalence, and the group laws of
//! modular exponentiation — and, differentially, that the Montgomery paths
//! behind `mod_mul` / `mod_pow` / `mod_inv` compute what `Big::mul` +
//! `Big::rem` (which they replaced and which stay in the crate) compute.

use proptest::prelude::*;
use sheriff_bigint::{mod_inv, mod_mul, mod_pow, Big};

fn big_from_bytes(bytes: &[u8]) -> Big {
    // Interpret arbitrary bytes as a hex-ish number by mapping each byte to a
    // limb fragment; simpler: accumulate base-256.
    let mut acc = Big::zero();
    let b256 = Big::from_u64(256);
    for &byte in bytes {
        acc = acc.mul(&b256).add(&Big::from_u64(u64::from(byte)));
    }
    acc
}

fn arb_big() -> impl Strategy<Value = Big> {
    proptest::collection::vec(any::<u8>(), 0..40).prop_map(|v| big_from_bytes(&v))
}

fn arb_big_nonzero() -> impl Strategy<Value = Big> {
    arb_big().prop_map(|b| if b.is_zero() { Big::one() } else { b })
}

/// The safe primes `sheriff-crypto` bakes in (64 to 2048 bits).
const BAKED_PRIMES: [&str; 5] = [
    "a1c71aa2e828476b",
    "84221bf2e9f5d7bbe3c984f439570fc7",
    "c73f13a146a14dc8e3766c64650a0df40198173114a3cfc87e21e6999bb0aec7",
    "a561d0102b2242db157e15bb99cd00d3d6b66850af04101aceb1ec4b405377508b070cfd5c3bdf18cfc25f6b06f2dd72ef3a89470c08f47a944526d6ae8e2a0b",
    concat!(
        "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74",
        "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437",
        "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed",
        "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05",
        "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb",
        "9ed529077096966d670c354e4abc9804f1746c08ca18217c32905e462e36ce3b",
        "e39e772c180e86039b2783a2ec07a28fb5c55df06f4c52c9de2bcbf695581718",
        "3995497cea956ae515d2261898fa051015728e5a8aacaa68ffffffffffffffff",
    ),
];

fn from_u64_limbs(limbs: &[u64]) -> Big {
    let hex: String = limbs.iter().rev().map(|l| format!("{l:016x}")).collect();
    Big::from_hex(&hex).unwrap()
}

/// Raw material for a modulus or an operand: a class selector and limbs.
type Seed = (usize, Vec<u64>);

fn arb_seed() -> impl Strategy<Value = Seed> {
    (0usize..8, proptest::collection::vec(any::<u64>(), 1..=33))
}

/// Moduli of 1 to 33 `u64` limbs, odd and even, with the awkward ones
/// over-represented: 1, the single-limb prime 2⁶⁴ − 59, all-ones limbs
/// (every carry chain propagates), the baked safe primes and their `q`s.
fn modulus((class, mut limbs): Seed) -> Big {
    let pick = limbs[0] as usize;
    match class {
        0 if pick.is_multiple_of(4) => Big::one(),
        0 => Big::from_u64(u64::MAX - 58),
        1 => from_u64_limbs(&vec![u64::MAX; limbs.len()]),
        2 => {
            let p = Big::from_hex(BAKED_PRIMES[pick % 5]).unwrap();
            if pick.is_multiple_of(2) {
                p
            } else {
                p.shr(1)
            }
        }
        _ => {
            *limbs.last_mut().unwrap() |= 1 << 63;
            limbs[0] ^= u64::from(class.is_multiple_of(2)); // odd and even alike
            from_u64_limbs(&limbs)
        }
    }
}

/// Operands at the edges of `[0, m]`, inside it, and wider than `m`.
fn operand((class, limbs): Seed, m: &Big) -> Big {
    match class {
        0 => Big::zero(),
        1 => Big::one(),
        2 => m.sub(&Big::one()),
        3 => m.clone(),
        4 => m.add(&Big::one()),
        5 => from_u64_limbs(&limbs)
            .mul(m)
            .add(&from_u64_limbs(&limbs[..1])),
        _ => from_u64_limbs(&limbs).rem(m),
    }
}

/// Exponents 0, 1, `q = (m − 1)/2`, `q − 1`, and one to 2 048 random bits.
fn exponent((class, limbs): Seed, m: &Big) -> Big {
    let q = m.shr(1);
    match class {
        0 => Big::zero(),
        1 => Big::one(),
        2 => q,
        3 if !q.is_zero() => q.sub(&Big::one()),
        _ => {
            let bits = 1 + (limbs[0] as usize) % (64 * limbs.len()).min(2048);
            from_u64_limbs(&limbs).shr(64 * limbs.len() - bits)
        }
    }
}

/// What `mod_mul` was before Montgomery: schoolbook product, Knuth D.
fn oracle_mul(a: &Big, b: &Big, m: &Big) -> Big {
    a.mul(b).rem(m)
}

/// Bit-by-bit square-and-multiply over [`oracle_mul`].
fn oracle_pow(base: &Big, exp: &Big, m: &Big) -> Big {
    let mut acc = Big::one().rem(m);
    for i in (0..exp.bit_len()).rev() {
        acc = oracle_mul(&acc, &acc, m);
        if exp.bit(i) {
            acc = oracle_mul(&acc, base, m);
        }
    }
    acc
}

/// Euclid over `Big::rem`: decides which operands have no inverse.
fn gcd(mut a: Big, mut b: Big) -> Big {
    while !b.is_zero() {
        (a, b) = (b.clone(), a.rem(&b));
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn modmul_matches_mul_rem(m in arb_seed(), a in arb_seed(), b in arb_seed()) {
        let m = modulus(m);
        let (a, b) = (operand(a, &m), operand(b, &m));
        prop_assert_eq!(mod_mul(&a, &b, &m), oracle_mul(&a, &b, &m));
    }

    #[test]
    fn modinv_matches_mul_rem(m in arb_seed(), a in arb_seed()) {
        let m = modulus(m);
        let a = operand(a, &m);
        match mod_inv(&a, &m) {
            Some(inv) => {
                prop_assert!(inv < m);
                prop_assert_eq!(oracle_mul(&a, &inv, &m), Big::one());
            }
            None => prop_assert!(m.is_one() || !gcd(a.clone(), m.clone()).is_one()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn modpow_matches_square_and_multiply(m in arb_seed(), a in arb_seed(), e in arb_seed()) {
        let m = modulus(m);
        let (a, e) = (operand(a, &m), exponent(e, &m));
        prop_assert_eq!(mod_pow(&a, &e, &m), oracle_pow(&a, &e, &m));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in arb_big(), b in arb_big()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in arb_big(), b in arb_big(), c in arb_big()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in arb_big(), b in arb_big()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes(a in arb_big(), b in arb_big(), c in arb_big()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn add_sub_roundtrip(a in arb_big(), b in arb_big()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn division_identity(a in arb_big(), d in arb_big_nonzero()) {
        let (q, r) = a.div_rem(&d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
        prop_assert!(r < d);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in arb_big(), s in 0usize..100) {
        let pow2 = Big::one().shl(s);
        prop_assert_eq!(a.shl(s), a.mul(&pow2));
    }

    #[test]
    fn shl_shr_roundtrip(a in arb_big(), s in 0usize..100) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_big()) {
        prop_assert_eq!(Big::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn decimal_roundtrip(a in arb_big()) {
        prop_assert_eq!(Big::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u64..64, m in 2u64..100_000) {
        let naive = {
            let mut acc: u128 = 1;
            for _ in 0..exp {
                acc = acc * u128::from(base) % u128::from(m);
            }
            acc as u64
        };
        let got = mod_pow(&Big::from_u64(base), &Big::from_u64(exp), &Big::from_u64(m));
        prop_assert_eq!(got, Big::from_u64(naive));
    }

    #[test]
    fn modpow_adds_exponents(a in arb_big_nonzero(), e1 in 0u64..500, e2 in 0u64..500) {
        // Fixed odd modulus large enough to be interesting.
        let m = Big::from_hex("ffffffffffffffffffffffc5").unwrap();
        let lhs = mod_pow(&a, &Big::from_u64(e1 + e2), &m);
        let rhs = mod_mul(
            &mod_pow(&a, &Big::from_u64(e1), &m),
            &mod_pow(&a, &Big::from_u64(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_property(a in 1u64..1_000_000) {
        // p prime => every nonzero a has an inverse.
        let p = Big::from_u64(1_000_000_007);
        let a = Big::from_u64(a);
        let inv = mod_inv(&a, &p).unwrap();
        prop_assert_eq!(mod_mul(&a, &inv, &p), Big::one());
    }
}
