//! The two-party protocols between the Aggregator and the Coordinator
//! (paper Fig. 17 and Fig. 18).
//!
//! Roles, faithful to §3.8:
//!
//! * the **client** (PPC) encrypts `c = (Σa², 1, a_1..a_m)` under the
//!   Coordinator's public keys, hands the ciphertext to the Aggregator, and
//!   goes offline;
//! * the **Aggregator** holds ciphertexts and learns, per centroid, only the
//!   squared distance `d²(a, b)` — never `a`, never `b`;
//! * the **Coordinator** holds the secret keys and the centroids, and learns
//!   only per-cluster aggregate sums and cardinalities.
//!
//! ### Distance protocol (Fig. 17)
//!
//! The paper defers the inner-product evaluation mechanics to its citation.
//! Our concrete instantiation uses exponent blinding:
//!
//! 1. Aggregator samples ρ ← `[1, q)` and sends the blinded ciphertext
//!    `ct^ρ` (an encryption of `ρ·c mod q`) to the Coordinator.
//! 2. Coordinator evaluates the inner product against its centroid vector
//!    `s`, obtaining `γ' = g^{ρ·(c·s)}`, and returns `γ'`.
//! 3. Aggregator unblinds: `γ = γ'^{ρ⁻¹ mod q} = g^{c·s}` and solves the
//!    small-range discrete log to get `d²`.
//!
//! The Coordinator sees only encryptions of `ρ·c`, whose nonzero components
//! are uniformly large exponents — undecryptable under encryption-at-the-
//! exponent — so it learns no magnitude of `c`. (Multiplicative blinding
//! preserves zeros, so the Coordinator could learn which coordinates of a
//! blinded point are zero — the profile's *support*, never its values; the
//! non-collusion assumption prevents joining that support with the
//! Aggregator's identity mapping.) The Aggregator never sees `s` or `f`. A
//! malicious-but-non-colluding party learns exactly what the paper
//! concedes: the Aggregator learns distances; the Coordinator learns
//! cluster cardinalities.
//!
//! ### Centroid update (Fig. 18)
//!
//! The Aggregator multiplies member ciphertexts component-wise over the
//! profile dimensions `[2, t)` and forwards the aggregate with the cluster
//! cardinality `n`; the Coordinator decrypts each dimension (values ≤ n·Q,
//! still small), divides by `n`, and obtains the new centroid.
//!
//! ### Well-formedness
//!
//! Both protocols invert powers of what the other party sent (the distance
//! round divides; decryption multiplies by `α^{p−1−x}`, which is `α^{−x}`
//! only for `α ≢ 0`), so every element crossing between the roles must lie
//! in `[1, p)`
//! ([`Ciphertext::is_well_formed`], `GroupParams::contains`).
//! [`BlindedQuery::unblind`] and [`decrypt_centroid`] answer `None` for
//! input that does not; [`coordinator_evaluate`] returns a bare element, so
//! its caller checks the ciphertext first.

use rand::Rng;

use sheriff_bigint::{Big, Windows};

use crate::dlog::DlogTable;
use crate::elgamal::{Ciphertext, SecretKey, StoredCiphertext};
use crate::group::GroupParams;
use crate::ipfe::{derive_function_key, eval_inner_product};

/// Aggregator-side state for one blinded distance query.
///
/// ```
/// use rand::SeedableRng;
/// use sheriff_crypto::dlog::DlogTable;
/// use sheriff_crypto::elgamal::SecretKey;
/// use sheriff_crypto::ipfe::{client_vector, server_vector};
/// use sheriff_crypto::protocol::{coordinator_evaluate, BlindedQuery};
/// use sheriff_crypto::GroupParams;
///
/// let params = GroupParams::test_64();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
///
/// // Client: encrypt the profile point and go offline.
/// let profile = [3u64, 0, 5];
/// let sk = SecretKey::generate(&params, profile.len() + 2, &mut rng);
/// let ct = sk.public_key().encrypt(&client_vector(&profile), &mut rng);
///
/// // Aggregator blinds; Coordinator evaluates against its centroid;
/// // Aggregator unblinds to the squared distance.
/// let centroid = [1u64, 0, 5];
/// let query = BlindedQuery::blind(&params, &ct, &mut rng);
/// let resp = coordinator_evaluate(&sk, &query.blinded, &server_vector(&centroid));
/// let table = DlogTable::build(&params, 1024);
/// assert_eq!(query.unblind(&params, &resp, &table), Some(4)); // (3-1)²
/// ```
#[derive(Debug)]
pub struct BlindedQuery {
    /// The blinded ciphertext to forward to the Coordinator.
    pub blinded: Ciphertext,
    /// ρ⁻¹ mod q, kept by the Aggregator for unblinding, recoded once for
    /// the `k` responses it unblinds.
    rho_inv: Windows,
}

impl BlindedQuery {
    /// Step 1 (Aggregator): blind a client ciphertext by a fresh ρ, one
    /// [`GroupParams::random_exponent`] draw.
    pub fn blind<R: Rng + ?Sized>(params: &GroupParams, ct: &Ciphertext, rng: &mut R) -> Self {
        let rho = params.random_exponent(rng);
        Self::blinded_by(params, ct.pow_all(&rho, params), &rho)
    }

    /// Step 1 from a stored ciphertext's combs, by a `rho` the caller drew
    /// as [`BlindedQuery::blind`] draws it: `params.random_exponent(rng)`.
    /// With that ρ, the query is `blind`'s. Taking ρ rather than the RNG
    /// lets the caller draw every client's in order and blind them on any
    /// number of threads.
    pub fn from_stored(params: &GroupParams, stored: &StoredCiphertext, rho: &Big) -> Self {
        Self::blinded_by(params, stored.pow_all(rho, params), rho)
    }

    fn blinded_by(params: &GroupParams, blinded: Ciphertext, rho: &Big) -> Self {
        BlindedQuery {
            blinded,
            rho_inv: Windows::new(&params.exponent_inv(rho)),
        }
    }

    /// Step 3 (Aggregator): unblind the Coordinator's response and recover
    /// the squared distance, if it falls within `table`'s range and the
    /// response is a group element (not `0`, not `>= p`).
    pub fn unblind(&self, params: &GroupParams, response: &Big, table: &DlogTable) -> Option<i64> {
        let gamma = params.pow_windows(response, &self.rho_inv);
        table.solve_signed(&gamma)
    }
}

/// Step 2 (Coordinator): evaluate `g^{ρ·(c·s)}` on a blinded ciphertext for
/// centroid function vector `s` (already in `(1, Σb², -2b..)` form).
/// Panics unless `blinded` [`Ciphertext::is_well_formed`] and has the key's
/// dimension: the caller checks.
pub fn coordinator_evaluate(sk: &SecretKey, blinded: &Ciphertext, s: &[i64]) -> Big {
    let f = derive_function_key(sk, s);
    eval_inner_product(&sk.params, blinded, s, &f)
}

/// Aggregator side of the centroid update (Fig. 18): component-wise product
/// of all member ciphertexts, restricted to the profile dimensions `[2, t)`.
/// Each component enters Montgomery form once, and each product leaves it
/// once.
///
/// Returns `None` for an empty cluster, and for members that have fewer
/// than two components or differ in dimension: a client's ciphertext is
/// not checked on receipt, so a malformed one freezes its cluster.
pub fn aggregate_cluster(params: &GroupParams, members: &[&Ciphertext]) -> Option<Ciphertext> {
    let mont = &params.mont_p;
    // α and the profile components, entered.
    let entered = |ct: &Ciphertext| -> Vec<Vec<u64>> {
        let profile = &ct.betas[2..];
        std::iter::once(&ct.alpha)
            .chain(profile)
            .map(|c| mont.enter(c))
            .collect()
    };
    let (first, rest) = members.split_first()?;
    if first.dims() < 2 || rest.iter().any(|ct| ct.dims() != first.dims()) {
        return None;
    }
    let mut acc = entered(first);
    let mut t = mont.scratch();
    for ct in rest {
        for (a, c) in acc.iter_mut().zip(entered(ct)) {
            mont.mul_assign(a, &c, &mut t);
        }
    }
    Some(Ciphertext {
        alpha: mont.leave(&acc[0]),
        betas: acc[1..].iter().map(|b| mont.leave(b)).collect(),
    })
}

/// Coordinator side of the centroid update: decrypt the aggregated profile
/// sums and divide by the cluster cardinality (rounding to nearest).
///
/// `key_offset` is the dimension offset of the aggregate inside the full key
/// vector (always 2 in the paper's layout). Returns `None` if the aggregate
/// is not well-formed, does not cover exactly the key's dimensions from
/// `key_offset` on, or has a component beyond the discrete-log table's
/// range, any of which indicates a protocol error.
pub fn decrypt_centroid(
    sk: &SecretKey,
    aggregate: &Ciphertext,
    cardinality: u64,
    key_offset: usize,
    table: &DlogTable,
) -> Option<Vec<u64>> {
    assert!(cardinality > 0, "decrypt_centroid: empty cluster");
    let gp = &sk.params;
    if !aggregate.is_well_formed(gp) || key_offset + aggregate.dims() != sk.dims() {
        return None;
    }
    let alpha = sk.alpha_comb(&aggregate.alpha);
    let mut centroid = Vec::with_capacity(aggregate.dims());
    for (i, beta) in aggregate.betas.iter().enumerate() {
        let gamma = sk.unmask(&alpha, beta, key_offset + i);
        let sum = table.solve(&gamma)?;
        // Round-to-nearest division keeps centroids on the quantized grid.
        centroid.push((sum + cardinality / 2) / cardinality);
    }
    Some(centroid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipfe::{client_vector, server_vector, squared_distance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys(dims: usize, seed: u64) -> (GroupParams, SecretKey, StdRng) {
        let gp = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = SecretKey::generate(&gp, dims, &mut rng);
        (gp, sk, rng)
    }

    #[test]
    fn blinded_distance_end_to_end() {
        let a = [9u64, 0, 4, 7];
        let b = [2u64, 3, 4, 1];
        let c = client_vector(&a);
        let (gp, sk, mut rng) = keys(c.len(), 41);
        let pk = sk.public_key();

        // Client encrypts and goes offline.
        let ct = pk.encrypt(&c, &mut rng);

        // Aggregator blinds; Coordinator evaluates; Aggregator unblinds.
        let query = BlindedQuery::blind(&gp, &ct, &mut rng);
        let s = server_vector(&b);
        let response = coordinator_evaluate(&sk, &query.blinded, &s);
        let table = DlogTable::build(&gp, 4096);
        let d2 = query.unblind(&gp, &response, &table);

        assert_eq!(d2, Some(squared_distance(&a, &b)));
    }

    #[test]
    fn non_element_responses_and_aggregates_are_none() {
        let c = client_vector(&[9, 0, 4]);
        let (gp, sk, mut rng) = keys(c.len(), 42);
        let ct = sk.public_key().encrypt(&c, &mut rng);
        let query = BlindedQuery::blind(&gp, &ct, &mut rng);
        let table = DlogTable::build(&gp, 4096);
        assert_eq!(query.unblind(&gp, &Big::zero(), &table), None);
        assert_eq!(query.unblind(&gp, &gp.p, &table), None);

        assert!(ct.is_well_formed(&gp));
        let mut agg = aggregate_cluster(&gp, &[&ct]).unwrap();
        agg.alpha = Big::zero();
        assert!(!agg.is_well_formed(&gp));
        assert_eq!(decrypt_centroid(&sk, &agg, 1, 2, &table), None);
        agg.alpha = ct.alpha.clone();
        agg.betas[1] = gp.p.clone();
        assert_eq!(decrypt_centroid(&sk, &agg, 1, 2, &table), None);
    }

    #[test]
    fn coordinator_cannot_decrypt_blinded_profile() {
        let a = [5u64, 6, 7];
        let c = client_vector(&a);
        let (gp, sk, mut rng) = keys(c.len(), 43);
        let ct = sk.public_key().encrypt(&c, &mut rng);
        let query = BlindedQuery::blind(&gp, &ct, &mut rng);
        // Coordinator decrypts the blinded ciphertext components; the values
        // must not be recoverable in any feasible range.
        let table = DlogTable::build(&gp, 1 << 14);
        for i in 0..c.len() {
            let gamma = sk.decrypt_component(&query.blinded, i);
            assert_eq!(table.solve(&gamma), None, "component {i} leaked");
        }
    }

    #[test]
    fn centroid_update_recovers_mean() {
        let pts: Vec<Vec<u64>> = vec![vec![10, 0, 6], vec![14, 2, 6], vec![12, 4, 6]];
        let m = 3usize;
        let (gp, sk, mut rng) = keys(m + 2, 47);
        let pk = sk.public_key();
        let cts: Vec<Ciphertext> = pts
            .iter()
            .map(|p| pk.encrypt(&client_vector(p), &mut rng))
            .collect();
        let refs: Vec<&Ciphertext> = cts.iter().collect();
        let agg = aggregate_cluster(&gp, &refs).unwrap();
        let table = DlogTable::build(&gp, 1 << 10);
        let centroid = decrypt_centroid(&sk, &agg, pts.len() as u64, 2, &table).unwrap();
        assert_eq!(centroid, vec![12, 2, 6]);
    }

    #[test]
    fn empty_cluster_aggregates_to_none() {
        let gp = GroupParams::test_64();
        assert!(aggregate_cluster(&gp, &[]).is_none());
    }

    #[test]
    fn singleton_cluster_recovers_point() {
        let p = vec![3u64, 1, 4, 1, 5];
        let (gp, sk, mut rng) = keys(p.len() + 2, 53);
        let ct = sk.public_key().encrypt(&client_vector(&p), &mut rng);
        let agg = aggregate_cluster(&gp, &[&ct]).unwrap();
        let table = DlogTable::build(&gp, 1 << 10);
        let centroid = decrypt_centroid(&sk, &agg, 1, 2, &table).unwrap();
        assert_eq!(centroid, p);
    }

    #[test]
    fn rounding_in_centroid_division() {
        // Two points averaging to a half-integer: 3 and 4 → mean 3.5 → 4
        // under round-to-nearest (ties away from zero here: 3.5 → 4).
        let pts = [vec![3u64], vec![4u64]];
        let (gp, sk, mut rng) = keys(3, 59);
        let pk = sk.public_key();
        let cts: Vec<Ciphertext> = pts
            .iter()
            .map(|p| pk.encrypt(&client_vector(p), &mut rng))
            .collect();
        let refs: Vec<&Ciphertext> = cts.iter().collect();
        let agg = aggregate_cluster(&gp, &refs).unwrap();
        let table = DlogTable::build(&gp, 64);
        let centroid = decrypt_centroid(&sk, &agg, 2, 2, &table).unwrap();
        assert_eq!(centroid, vec![4]);
    }
}
