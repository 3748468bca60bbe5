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

use sheriff_bigint::{Big, Columns, Comb, Windows};

use crate::group::GroupParams;

/// A ciphertext kept to be blinded round after round, as the Aggregator
/// keeps each client's (§3.8): the ciphertext and one comb per component
/// for exponents as wide as `q`, built once. A comb costs about one
/// ladder, so it pays from a component's second blinding on; it holds 63
/// residues.
#[derive(Clone, Debug)]
pub struct StoredCiphertext {
    /// Private so that the combs cannot go stale.
    ct: Ciphertext,
    /// `α`'s comb and each `β_i`'s, in Montgomery form modulo `p`.
    alpha: Comb,
    betas: Vec<Comb>,
}

/// Per-dimension secret keys `x = (x_i)`.
#[derive(Clone, Debug)]
pub struct SecretKey {
    /// The group these keys live in.
    pub params: GroupParams,
    /// Secret exponents, one per vector dimension.
    pub x: Vec<Big>,
}

/// Per-dimension public keys `h_i = g^{x_i}`, each with its comb: every
/// encryption raises every `h_i` to a fresh `r`.
#[derive(Clone, Debug)]
pub struct PublicKey {
    /// The group these keys live in. This field and `h` are private so
    /// that `combs` cannot go stale.
    params: GroupParams,
    /// Public elements, one per vector dimension.
    h: Vec<Big>,
    /// `h_i`'s comb for exponents as wide as `q`.
    combs: Vec<Comb>,
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

    /// Derives the matching public key, with a comb per `h_i`: about one
    /// exponentiation each, repaid by the first encryptions.
    pub fn public_key(&self) -> PublicKey {
        let (gp, mont) = (&self.params, &self.params.mont_p);
        let h: Vec<Big> = self.x.iter().map(|xi| gp.g_pow(xi)).collect();
        PublicKey {
            combs: h
                .iter()
                .map(|hi| mont.comb(&mont.enter(hi), gp.q.bit_len()))
                .collect(),
            params: gp.clone(),
            h,
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
        self.unmask(&self.alpha_comb(&ct.alpha), &ct.betas[i], i)
    }

    /// The comb of a ciphertext's `α`, which every [`SecretKey::unmask`]
    /// of its components shares.
    pub(crate) fn alpha_comb(&self, alpha: &Big) -> Comb {
        let mont = &self.params.mont_p;
        mont.comb(&mont.enter(alpha), self.params.p.bit_len())
    }

    /// `β / α^{x_i}` for `α, β ∈ [1, p)`, computed as `β · α^{p−1−x_i}`
    /// from `α`'s [`SecretKey::alpha_comb`]: `α^{p−1} = 1` for every such
    /// `α` (Fermat), so this is the same element at the cost of the same
    /// exponentiation and no inversion. (`α^{q−x_i}` would be it only for
    /// `α` in the order-`q` subgroup.)
    pub(crate) fn unmask(&self, alpha: &Comb, beta: &Big, i: usize) -> Big {
        let (gp, mont) = (&self.params, &self.params.mont_p);
        let e = gp.p.sub(&Big::one()).sub(&self.x[i]);
        let mut gamma = mont.comb_pow(alpha, &e);
        mont.mul_assign(&mut gamma, &mont.enter(beta), &mut mont.scratch());
        mont.leave(&gamma)
    }
}

impl PublicKey {
    /// Public elements `h_i`, one per vector dimension.
    pub fn h(&self) -> &[Big] {
        &self.h
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.h.len()
    }

    /// Encrypts the non-negative integer vector `msgs` (one value per
    /// dimension) with fresh shared randomness: `r` recoded once for `g`'s
    /// comb and every `h_i`'s, `g^{c_i}` from `g`'s window table, and one
    /// exit from Montgomery form per component.
    ///
    /// # Panics
    /// If `msgs.len()` differs from the key dimension.
    pub fn encrypt<R: Rng + ?Sized>(&self, msgs: &[u64], rng: &mut R) -> Ciphertext {
        assert_eq!(
            msgs.len(),
            self.h.len(),
            "message dimension must match key dimension"
        );
        let (gp, mont) = (&self.params, &self.params.mont_p);
        let r = Columns::new(&gp.random_exponent(rng), gp.q.bit_len());
        let alpha = mont.leave(&mont.pow_comb(&gp.g_comb, &r));
        let mut t = mont.scratch();
        let betas = msgs
            .iter()
            .zip(&self.combs)
            .map(|(&m, comb)| {
                let mut beta = mont.pow_comb(comb, &r);
                let g_m = mont.pow_table(&gp.g_table, &Windows::new(&Big::from_u64(m)));
                mont.mul_assign(&mut beta, &g_m, &mut t);
                mont.leave(&beta)
            })
            .collect();
        Ciphertext { alpha, betas }
    }
}

impl StoredCiphertext {
    /// Builds the combs of `ct`'s components in `params`. A component
    /// outside `[1, p)` gets the comb of its residue, as
    /// [`Ciphertext::pow_all`] raises its residue.
    pub fn new(params: &GroupParams, ct: Ciphertext) -> Self {
        let mont = &params.mont_p;
        let comb = |c| mont.comb(&mont.enter(c), params.q.bit_len());
        StoredCiphertext {
            alpha: comb(&ct.alpha),
            betas: ct.betas.iter().map(comb).collect(),
            ct,
        }
    }

    /// The ciphertext as received.
    pub fn ciphertext(&self) -> &Ciphertext {
        &self.ct
    }

    /// [`Ciphertext::pow_all`] from the combs, `params` being the group
    /// they were built in: ρ is recoded once for all of them, and each
    /// component costs one comb exponentiation, about a quarter of a
    /// ladder.
    pub fn pow_all(&self, rho: &Big, params: &GroupParams) -> Ciphertext {
        let mont = &params.mont_p;
        let rho = Columns::new(rho, params.q.bit_len());
        let pow = |c| mont.leave(&mont.pow_comb(c, &rho));
        Ciphertext {
            alpha: pow(&self.alpha),
            betas: self.betas.iter().map(pow).collect(),
        }
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
    /// `Enc(ρ·c mod q)`. This is the Aggregator's blinding step; ρ is
    /// recoded once for all components, each raised by a window ladder.
    /// A ciphertext blinded more than once is cheaper as a
    /// [`StoredCiphertext`].
    pub fn pow_all(&self, rho: &Big, params: &GroupParams) -> Ciphertext {
        let rho = Windows::new(rho);
        Ciphertext {
            alpha: params.pow_windows(&self.alpha, &rho),
            betas: self
                .betas
                .iter()
                .map(|b| params.pow_windows(b, &rho))
                .collect(),
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

    /// True when every component lies in `[1, p)`. Inner-product
    /// evaluation divides by powers of the components, and decryption's
    /// `α^{p−1−x}` is `α^{−x}` only for `α ≢ 0`, so a ciphertext from
    /// another party is checked before it reaches them.
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
