//! Vector ElGamal "at the exponent" (additively homomorphic).
//!
//! Encryption of a vector `c = (c_i)` under per-dimension public keys
//! `h_i = g^{x_i}` with shared randomness `r`:
//!
//! ```text
//! Enc_h(c) = (α, (β_i))   where α = g^r,  β_i = h_i^r · g^{c_i}
//! ```
//!
//! Decryption of a component yields the *group element* `γ_i = g^{c_i}`;
//! recovering `c_i` itself requires a small-range discrete logarithm
//! ([`crate::dlog`]). Component-wise multiplication of ciphertexts adds
//! plaintexts; powering an entire ciphertext by ρ scales every plaintext by
//! ρ, which is the blinding primitive of [`crate::protocol`].

use rand::Rng;

use sheriff_bigint::Big;

use crate::group::GroupParams;

/// Per-dimension secret keys `x = (x_i)`.
#[derive(Clone, Debug)]
pub struct SecretKey {
    /// The group these keys live in.
    pub params: GroupParams,
    /// Secret exponents, one per vector dimension.
    pub x: Vec<Big>,
}

/// Per-dimension public keys `h_i = g^{x_i}`.
#[derive(Clone, Debug)]
pub struct PublicKey {
    /// The group these keys live in.
    pub params: GroupParams,
    /// Public elements, one per vector dimension.
    pub h: Vec<Big>,
}

/// An ElGamal-at-the-exponent ciphertext `(α, (β_i))`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    /// Shared randomness component `g^r`.
    pub alpha: Big,
    /// Per-dimension payloads `h_i^r · g^{c_i}`.
    pub betas: Vec<Big>,
}

impl SecretKey {
    /// Generates `dims` independent key pairs in `params`.
    pub fn generate<R: Rng + ?Sized>(params: &GroupParams, dims: usize, rng: &mut R) -> Self {
        let x = (0..dims).map(|_| params.random_exponent(rng)).collect();
        SecretKey {
            params: params.clone(),
            x,
        }
    }

    /// Derives the matching public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey {
            params: self.params.clone(),
            h: self.x.iter().map(|xi| self.params.g_pow(xi)).collect(),
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.x.len()
    }

    /// Decrypts component `i` to the group element `g^{c_i}`.
    ///
    /// # Panics
    /// If `i` is out of range for the ciphertext or the key.
    pub fn decrypt_component(&self, ct: &Ciphertext, i: usize) -> Big {
        let gp = &self.params;
        let mask = gp.pow(&ct.alpha, &self.x[i]);
        gp.div(&ct.betas[i], &mask)
    }
}

impl PublicKey {
    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.h.len()
    }

    /// Encrypts the non-negative integer vector `msgs` (one value per
    /// dimension) with fresh shared randomness.
    ///
    /// # Panics
    /// If `msgs.len()` differs from the key dimension.
    pub fn encrypt<R: Rng + ?Sized>(&self, msgs: &[u64], rng: &mut R) -> Ciphertext {
        assert_eq!(
            msgs.len(),
            self.h.len(),
            "message dimension must match key dimension"
        );
        let gp = &self.params;
        let r = gp.random_exponent(rng);
        let alpha = gp.g_pow(&r);
        let betas = msgs
            .iter()
            .zip(&self.h)
            .map(|(&m, hi)| {
                let mask = gp.pow(hi, &r);
                gp.mul(&mask, &gp.g_pow(&Big::from_u64(m)))
            })
            .collect();
        Ciphertext { alpha, betas }
    }
}

impl Ciphertext {
    /// Homomorphic addition: component-wise product encrypts the
    /// component-wise sum of plaintexts (randomness adds too).
    ///
    /// # Panics
    /// If dimensions differ.
    pub fn add(&self, other: &Ciphertext, params: &GroupParams) -> Ciphertext {
        assert_eq!(self.betas.len(), other.betas.len(), "dimension mismatch");
        Ciphertext {
            alpha: params.mul(&self.alpha, &other.alpha),
            betas: self
                .betas
                .iter()
                .zip(&other.betas)
                .map(|(a, b)| params.mul(a, b))
                .collect(),
        }
    }

    /// Raises every component to the power ρ, turning `Enc(c)` into
    /// `Enc(ρ·c mod q)`. This is the Aggregator's blinding step.
    pub fn pow_all(&self, rho: &Big, params: &GroupParams) -> Ciphertext {
        Ciphertext {
            alpha: params.pow(&self.alpha, rho),
            betas: self.betas.iter().map(|b| params.pow(b, rho)).collect(),
        }
    }

    /// Restricts the ciphertext to dimensions `[from, to)`. Used by the
    /// centroid-update aggregation, which only sums the browsing-history
    /// dimensions (positions `[2, t)` in the paper's layout, Fig. 18).
    pub fn slice(&self, from: usize, to: usize) -> Ciphertext {
        Ciphertext {
            alpha: self.alpha.clone(),
            betas: self.betas[from..to].to_vec(),
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.betas.len()
    }

    /// True when every component lies in `[1, p)`. Decryption and
    /// inner-product evaluation divide by powers of the components, so a
    /// ciphertext from another party is checked before it reaches them.
    pub fn is_well_formed(&self, params: &GroupParams) -> bool {
        params.contains(&self.alpha) && self.betas.iter().all(|b| params.contains(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlog::DlogTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(dims: usize) -> (GroupParams, SecretKey, PublicKey, StdRng) {
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(99);
        let sk = SecretKey::generate(&gp, dims, &mut rng);
        let pk = sk.public_key();
        (gp, sk, pk, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (gp, sk, pk, mut rng) = setup(5);
        let msgs = vec![0u64, 1, 42, 999, 65535];
        let ct = pk.encrypt(&msgs, &mut rng);
        let table = DlogTable::build(&gp, 1 << 17);
        for (i, &m) in msgs.iter().enumerate() {
            let gamma = sk.decrypt_component(&ct, i);
            assert_eq!(table.solve(&gamma), Some(m), "component {i}");
        }
    }

    #[test]
    fn homomorphic_addition() {
        let (gp, sk, pk, mut rng) = setup(3);
        let a = vec![10u64, 20, 30];
        let b = vec![5u64, 6, 7];
        let ct = pk.encrypt(&a, &mut rng).add(&pk.encrypt(&b, &mut rng), &gp);
        let table = DlogTable::build(&gp, 1 << 10);
        for i in 0..3 {
            let gamma = sk.decrypt_component(&ct, i);
            assert_eq!(table.solve(&gamma), Some(a[i] + b[i]));
        }
    }

    #[test]
    fn blinding_scales_plaintext() {
        let (gp, sk, pk, mut rng) = setup(2);
        let ct = pk.encrypt(&[3, 7], &mut rng);
        let rho = Big::from_u64(11);
        let blinded = ct.pow_all(&rho, &gp);
        let table = DlogTable::build(&gp, 1 << 10);
        assert_eq!(table.solve(&sk.decrypt_component(&blinded, 0)), Some(33));
        assert_eq!(table.solve(&sk.decrypt_component(&blinded, 1)), Some(77));
    }

    #[test]
    fn blinding_with_large_rho_is_undecryptable_in_small_range() {
        // After blinding with a random (large) rho, the plaintexts land far
        // outside any feasible discrete-log range — this is exactly the
        // privacy property the protocol relies on.
        let (gp, sk, pk, mut rng) = setup(1);
        let ct = pk.encrypt(&[5], &mut rng);
        let rho = gp.random_exponent(&mut rng);
        let blinded = ct.pow_all(&rho, &gp);
        let table = DlogTable::build(&gp, 1 << 12);
        // Overwhelmingly likely: not recoverable in the small range.
        assert_eq!(table.solve(&sk.decrypt_component(&blinded, 0)), None);
    }

    #[test]
    fn slice_keeps_alpha() {
        let (_, _, pk, mut rng) = setup(4);
        let ct = pk.encrypt(&[1, 2, 3, 4], &mut rng);
        let s = ct.slice(2, 4);
        assert_eq!(s.dims(), 2);
        assert_eq!(s.alpha, ct.alpha);
        assert_eq!(s.betas[0], ct.betas[2]);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let (_, _, pk, mut rng) = setup(2);
        let _ = pk.encrypt(&[1, 2, 3], &mut rng);
    }

    #[test]
    fn fresh_randomness_differs() {
        let (_, _, pk, mut rng) = setup(1);
        let a = pk.encrypt(&[9], &mut rng);
        let b = pk.encrypt(&[9], &mut rng);
        assert_ne!(a.alpha, b.alpha, "randomness must be fresh per encryption");
        assert_ne!(a.betas[0], b.betas[0]);
    }
}
