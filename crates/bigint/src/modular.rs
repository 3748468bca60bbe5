//! One-shot modular arithmetic over [`Big`] values, modulus last.
//!
//! `mod_mul`, `mod_pow` and `mod_inv` are total over moduli: an odd modulus
//! greater than 1 goes through a throw-away [`Montgomery`] context (operands
//! are reduced on entry); an even one, which has no Montgomery form, keeps
//! plain [`Big::mul`] + [`Big::rem`]. Callers that work modulo one prime all
//! day (the `O(n·k·m)` exponentiations per private *k*-means iteration,
//! paper Fig. 8c) keep a context instead of calling these.

use crate::big::Big;
use crate::montgomery::Montgomery;

/// `(a + b) mod m` for reduced `a`, `b`.
pub fn mod_add(a: &Big, b: &Big, m: &Big) -> Big {
    let s = a.add(b);
    if s >= *m {
        s.sub(m)
    } else {
        s
    }
}

/// `(a - b) mod m` for reduced `a`, `b`.
pub fn mod_sub(a: &Big, b: &Big, m: &Big) -> Big {
    if a >= b {
        a.sub(b)
    } else {
        a.add(m).sub(b)
    }
}

/// `(a * b) mod m`.
pub fn mod_mul(a: &Big, b: &Big, m: &Big) -> Big {
    match Montgomery::new(m) {
        Some(ctx) => ctx.mul(a, b),
        None => a.mul(b).rem(m),
    }
}

/// `base^exp mod m`.
///
/// Returns 1 for `exp == 0` (including `base == 0`, matching the usual
/// convention), and panics on a zero modulus.
pub fn mod_pow(base: &Big, exp: &Big, m: &Big) -> Big {
    assert!(!m.is_zero(), "mod_pow: zero modulus");
    if let Some(ctx) = Montgomery::new(m) {
        return ctx.pow(base, exp);
    }
    // Even modulus (or 1): plain square-and-multiply.
    let mut acc = Big::one().rem(m);
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mul(&acc).rem(m);
        if exp.bit(i) {
            acc = acc.mul(base).rem(m);
        }
    }
    acc
}

/// Modular inverse of `a` mod `m`, or `None` when `gcd(a, m) != 1`.
pub fn mod_inv(a: &Big, m: &Big) -> Option<Big> {
    if let Some(ctx) = Montgomery::new(m) {
        return ctx.inv(a);
    }
    if m.is_zero() || m.is_one() {
        return None;
    }
    // Even modulus: a unit `a` is odd, so swap the roles. With
    // `y = m⁻¹ mod a`, `m·y = 1 + t·a` and `a·(m − t) ≡ 1 (mod m)`.
    let a = a.rem(m);
    if a.is_one() {
        return Some(a);
    }
    let y = Montgomery::new(&a)?.inv(m)?;
    Some(m.sub(&m.mul(&y).sub(&Big::one()).div_rem(&a).0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64) -> Big {
        Big::from_u64(v)
    }

    #[test]
    fn add_sub_wraparound() {
        let m = b(97);
        assert_eq!(mod_add(&b(96), &b(5), &m), b(4));
        assert_eq!(mod_sub(&b(3), &b(5), &m), b(95));
        assert_eq!(mod_sub(&b(5), &b(3), &m), b(2));
    }

    #[test]
    fn pow_small_cases() {
        let m = b(1_000_000_007);
        assert_eq!(mod_pow(&b(2), &b(10), &m), b(1024));
        assert_eq!(mod_pow(&b(2), &b(0), &m), b(1));
        assert_eq!(mod_pow(&b(0), &b(5), &m), b(0));
        assert_eq!(mod_pow(&b(0), &b(0), &m), b(1));
        assert_eq!(mod_pow(&b(7), &b(1), &m), b(7));
    }

    #[test]
    fn pow_fermat_little() {
        // a^(p-1) = 1 mod p for prime p
        let p = b(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(mod_pow(&b(a), &p.sub(&Big::one()), &p), Big::one());
        }
    }

    #[test]
    fn pow_large_modulus() {
        // 2^255 mod (2^255 - 19)-ish prime check against known value via
        // structure: choose p = 2^127 - 1 (Mersenne prime), then
        // 2^127 mod p = 1 + ... actually 2^127 ≡ 1 (mod 2^127 - 1).
        let p = Big::from_hex("7fffffffffffffffffffffffffffffff").unwrap();
        assert_eq!(mod_pow(&b(2), &b(127), &p), Big::one());
    }

    #[test]
    fn pow_modulus_one() {
        assert_eq!(mod_pow(&b(5), &b(3), &Big::one()), Big::zero());
    }

    #[test]
    fn inverse_roundtrip() {
        let m = b(1_000_000_007);
        for a in [1u64, 2, 3, 97, 123_456_789] {
            let inv = mod_inv(&b(a), &m).unwrap();
            assert_eq!(mod_mul(&b(a), &inv, &m), Big::one(), "a={a}");
        }
    }

    #[test]
    fn inverse_not_coprime() {
        assert!(mod_inv(&b(6), &b(9)).is_none());
        assert!(mod_inv(&b(0), &b(7)).is_none());
        assert!(mod_inv(&b(5), &Big::one()).is_none());
    }

    #[test]
    fn inverse_even_modulus() {
        assert_eq!(mod_inv(&b(3), &b(10)), Some(b(7)));
        assert_eq!(mod_inv(&b(13), &b(10)), Some(b(7)));
        assert_eq!(mod_inv(&b(1), &b(2)), Some(b(1)));
        for a in [0u64, 4, 5, 10] {
            assert!(mod_inv(&b(a), &b(10)).is_none(), "a={a}");
        }
    }

    #[test]
    fn inverse_large() {
        let p = Big::from_hex("ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74")
            .unwrap();
        // p odd (not necessarily prime, but coprime with small a is likely);
        // verify the defining property when Some.
        let a = Big::from_hex("123456789abcdef").unwrap();
        if let Some(inv) = mod_inv(&a, &p) {
            assert_eq!(mod_mul(&a, &inv, &p), Big::one());
        }
    }
}
