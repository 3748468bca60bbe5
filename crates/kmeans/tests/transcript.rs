//! A pinned transcript of the private k-means protocol: every Coordinator
//! response of every distance round, then the final centroids and
//! assignments, folded into one 64-bit digest per (group, seed).
//!
//! The constants were recorded before the Coordinator's evaluation moved to
//! a shared multi-exponentiation and decryption stopped dividing. Equal
//! digests mean equal group elements, not only an equal argmin per client.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::ipfe::client_vector;
use sheriff_crypto::protocol::{aggregate_cluster, BlindedQuery};
use sheriff_crypto::{Ciphertext, GroupParams};
use sheriff_kmeans::private::{reference_integer_kmeans, Coordinator};

const N: usize = 10;
const M: usize = 6;
const K: usize = 3;
const SCALE: u64 = 16;
const ITERS: usize = 3;

/// FNV-1a over 64 bits.
struct Digest(u64);

impl Digest {
    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Runs `ITERS` iterations and a final mapping through the public role
/// APIs, digesting each `evaluate_all` response, and checks the model
/// against the cleartext reference.
fn transcript(bits: usize, seed: u64) -> u64 {
    let params = GroupParams::baked(bits);
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<Vec<u64>> = (0..N)
        .map(|_| (0..M).map(|_| rng.gen_range(0..=SCALE)).collect())
        .collect();
    let mut coordinator = Coordinator::setup(&params, M, K, SCALE, &mut rng);
    let init = coordinator.centroids().to_vec();
    let pk = coordinator.public_key();
    let cts: Vec<Ciphertext> = points
        .iter()
        .map(|p| pk.encrypt(&client_vector(p), &mut rng))
        .collect();
    let dist = DlogTable::build(&params, M as u64 * SCALE * SCALE + 1);
    let sums = DlogTable::build(&params, N as u64 * SCALE + 1);

    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut assignments = vec![0; N];
    for round in 0..=ITERS {
        for (ct, slot) in cts.iter().zip(&mut assignments) {
            let query = BlindedQuery::blind(&params, ct, &mut rng);
            let responses = coordinator.evaluate_all(&query.blinded);
            assert_eq!(responses.len(), K);
            for r in &responses {
                digest.absorb(r.to_hex().as_bytes());
            }
            let d2 = |j: &usize| {
                let d = query.unblind(&params, &responses[*j], &dist);
                d.expect("distance within the table")
            };
            *slot = (0..K).min_by_key(d2).expect("k > 0");
        }
        if round == ITERS {
            break;
        }
        for cluster in 0..K {
            let members: Vec<&Ciphertext> = cts
                .iter()
                .zip(&assignments)
                .filter(|(_, &a)| a == cluster)
                .map(|(ct, _)| ct)
                .collect();
            let agg = aggregate_cluster(&params, &members);
            coordinator.update_centroid(cluster, agg.as_ref(), members.len() as u64, &sums);
        }
    }

    let reference = reference_integer_kmeans(&points, init, ITERS, 0.0);
    assert_eq!(coordinator.centroids(), reference.centroids);
    assert_eq!(assignments, reference.assignments);
    for c in coordinator.centroids() {
        c.iter().for_each(|x| digest.absorb(&x.to_le_bytes()));
    }
    assignments
        .iter()
        .for_each(|&a| digest.absorb(&(a as u64).to_le_bytes()));
    digest.0
}

#[test]
fn coordinator_responses_and_model_match_the_recorded_transcript() {
    let recorded = [
        (64, 11, 0x0a9a_548c_9bb6_7df6),
        (64, 12, 0xf86c_82c7_762c_2b03),
        (128, 11, 0xc577_2ab4_3423_17ef),
        (128, 12, 0x9159_4ea9_2af5_52a4),
    ];
    for (bits, seed, want) in recorded {
        assert_eq!(
            transcript(bits, seed),
            want,
            "{bits}-bit group, seed {seed}"
        );
    }
}
