//! DDH group parameters.
//!
//! ElGamal at the exponent lives in the order-`q` subgroup of `Z_p^*` for a
//! safe prime `p = 2q + 1`. All pre-baked groups use `g = 4 = 2²`, a
//! quadratic residue and hence a generator of the order-`q` subgroup
//! (for the RFC 3526 group the standardized generator 2 is itself squared).

use rand::Rng;

use sheriff_bigint::{gen_safe_prime, mod_mul, Big, Montgomery};

/// Parameters of a prime-order DDH group: subgroup of `Z_p^*` of order `q`
/// where `p = 2q + 1` is a safe prime and `g` generates the subgroup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupParams {
    /// Safe prime modulus.
    pub p: Big,
    /// Subgroup order, `(p - 1) / 2`.
    pub q: Big,
    /// Generator of the order-`q` subgroup.
    pub g: Big,
    /// Montgomery contexts for `p` (every group operation below) and `q`
    /// (exponent arithmetic), built once.
    pub(crate) mont_p: Montgomery,
    mont_q: Montgomery,
}

/// 64-bit safe-prime group — *test only*, trivially breakable.
const P_64: &str = "a1c71aa2e828476b";
/// 128-bit safe-prime group — *test only*.
const P_128: &str = "84221bf2e9f5d7bbe3c984f439570fc7";
/// 256-bit safe-prime group — demo strength.
const P_256: &str = "c73f13a146a14dc8e3766c64650a0df40198173114a3cfc87e21e6999bb0aec7";
/// 512-bit safe-prime group — the experiment default.
const P_512: &str = "a561d0102b2242db157e15bb99cd00d3d6b66850af04101aceb1ec4b405377508b070cfd5c3bdf18cfc25f6b06f2dd72ef3a89470c08f47a944526d6ae8e2a0b";
/// RFC 3526 group 14 (2048-bit MODP). Standardized safe prime.
const P_2048: &str = concat!(
    "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74",
    "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437",
    "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed",
    "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05",
    "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb",
    "9ed529077096966d670c354e4abc9804f1746c08ca18217c32905e462e36ce3b",
    "e39e772c180e86039b2783a2ec07a28fb5c55df06f4c52c9de2bcbf695581718",
    "3995497cea956ae515d2261898fa051015728e5a8aacaa68ffffffffffffffff",
);

impl GroupParams {
    /// The one place a group is assembled from its safe prime and generator.
    fn assemble(p: Big, g: Big) -> Self {
        let q = p.sub(&Big::one()).shr(1);
        let context = |m| Montgomery::new(m).expect("p and q are odd primes");
        GroupParams {
            mont_p: context(&p),
            mont_q: context(&q),
            p,
            q,
            g,
        }
    }

    fn from_hex_p(hex: &str) -> Self {
        let p = Big::from_hex(hex).expect("valid baked-in hex prime");
        Self::assemble(p, Big::from_u64(4))
    }

    /// 64-bit test group. Fast; cryptographically worthless.
    pub fn test_64() -> Self {
        Self::from_hex_p(P_64)
    }

    /// 128-bit test group.
    pub fn test_128() -> Self {
        Self::from_hex_p(P_128)
    }

    /// 256-bit group, used by benches.
    pub fn bits_256() -> Self {
        Self::from_hex_p(P_256)
    }

    /// 512-bit group, default for experiment binaries.
    pub fn bits_512() -> Self {
        Self::from_hex_p(P_512)
    }

    /// RFC 3526 2048-bit MODP group (generator squared to land in the
    /// prime-order subgroup).
    pub fn modp_2048() -> Self {
        Self::from_hex_p(P_2048)
    }

    /// Generates a fresh safe-prime group of `bits` bits. Slow for large
    /// sizes; prefer the pre-baked groups.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        let p = gen_safe_prime(rng, bits);
        // Square small candidates until we find a generator (any quadratic
        // residue != 1 generates the full order-q subgroup since q is prime).
        let mut h = Big::from_u64(2);
        loop {
            let g = mod_mul(&h, &h, &p);
            if !g.is_one() {
                return Self::assemble(p, g);
            }
            h = h.add(&Big::one());
        }
    }

    /// Selects a group by modulus size in bits from the pre-baked set.
    ///
    /// Accepts 64, 128, 256, 512, 2048; panics otherwise.
    pub fn baked(bits: usize) -> Self {
        match bits {
            64 => Self::test_64(),
            128 => Self::test_128(),
            256 => Self::bits_256(),
            512 => Self::bits_512(),
            2048 => Self::modp_2048(),
            other => panic!("no pre-baked group of {other} bits"),
        }
    }

    /// True for `a ∈ [1, p)`, an element of `Z_p^*` in canonical form: the
    /// check on what another party sent, before anything inverts it.
    pub fn contains(&self, a: &Big) -> bool {
        !a.is_zero() && *a < self.p
    }

    /// Group operation: `a * b mod p`.
    pub fn mul(&self, a: &Big, b: &Big) -> Big {
        self.mont_p.mul(a, b)
    }

    /// `base^e mod p`. Exponents are reduced mod `q` by the caller when they
    /// may exceed the subgroup order (all subgroup elements have order `q`).
    pub fn pow(&self, base: &Big, e: &Big) -> Big {
        self.mont_p.pow(base, e)
    }

    /// `g^e mod p`.
    pub fn g_pow(&self, e: &Big) -> Big {
        self.pow(&self.g, e)
    }

    /// Multiplicative inverse in `Z_p^*`; panics on `a ≡ 0 (mod p)`.
    pub fn inv(&self, a: &Big) -> Big {
        self.mont_p.inv(a).expect("element of Z_p^* is invertible")
    }

    /// `a / b mod p`.
    pub fn div(&self, a: &Big, b: &Big) -> Big {
        self.mul(a, &self.inv(b))
    }

    /// Uniformly random exponent in `[1, q)`.
    pub fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> Big {
        loop {
            let r = Big::random_below(rng, &self.q);
            if !r.is_zero() {
                return r;
            }
        }
    }

    /// `e⁻¹ mod q` for an exponent `e ≢ 0`: undoes a blinding by `e`.
    pub fn exponent_inv(&self, e: &Big) -> Big {
        self.mont_q.inv(e).expect("q prime, exponent nonzero")
    }

    /// Reduces a possibly-negative integer exponent into `[0, q)`.
    ///
    /// Negative values arise from the Coordinator's `s` vector whose tail is
    /// `-2·b_i` (paper §3.8).
    pub fn exponent_from_i64(&self, v: i64) -> Big {
        if v >= 0 {
            Big::from_u64(v as u64).rem(&self.q)
        } else {
            let m = Big::from_u64(v.unsigned_abs()).rem(&self.q);
            if m.is_zero() {
                Big::zero()
            } else {
                self.q.sub(&m)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_bigint::is_prime;

    #[test]
    fn baked_groups_are_safe_primes() {
        for bits in [64usize, 128, 256] {
            let gp = GroupParams::baked(bits);
            assert_eq!(gp.p.bit_len(), bits, "bits={bits}");
            assert!(is_prime(&gp.p), "p not prime for bits={bits}");
            assert!(is_prime(&gp.q), "q not prime for bits={bits}");
            assert_eq!(gp.q.shl(1).add(&Big::one()), gp.p);
        }
    }

    #[test]
    fn modp_2048_shape() {
        let gp = GroupParams::modp_2048();
        assert_eq!(gp.p.bit_len(), 2048);
        // Generator is in the subgroup: g^q == 1.
        assert!(gp.pow(&gp.g, &gp.q).is_one());
    }

    #[test]
    fn generator_has_order_q() {
        let gp = GroupParams::test_64();
        assert!(gp.pow(&gp.g, &gp.q).is_one());
        assert!(!gp.g.is_one());
        // Order is not 2 (g² ≠ 1) so it must be exactly q (q prime).
        assert!(!gp.mul(&gp.g, &gp.g).is_one());
    }

    #[test]
    fn div_is_mul_inverse() {
        let gp = GroupParams::test_64();
        let a = gp.g_pow(&Big::from_u64(12345));
        let b = gp.g_pow(&Big::from_u64(678));
        let c = gp.div(&a, &b);
        assert_eq!(gp.mul(&c, &b), a);
    }

    #[test]
    fn exponent_from_i64_negative_wraps() {
        let gp = GroupParams::test_64();
        let e = gp.exponent_from_i64(-3);
        // g^{-3} * g^3 = 1
        let x = gp.mul(&gp.g_pow(&e), &gp.g_pow(&Big::from_u64(3)));
        assert!(x.is_one());
        assert_eq!(gp.exponent_from_i64(0), Big::zero());
        assert_eq!(gp.exponent_from_i64(5), Big::from_u64(5));
    }

    #[test]
    fn random_exponent_in_range() {
        use rand::SeedableRng;
        let gp = GroupParams::test_64();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..20 {
            let e = gp.random_exponent(&mut rng);
            assert!(!e.is_zero() && e < gp.q);
        }
    }

    #[test]
    fn generate_small_group() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let gp = GroupParams::generate(&mut rng, 32);
        assert_eq!(gp.p.bit_len(), 32);
        assert!(gp.pow(&gp.g, &gp.q).is_one());
    }
}
