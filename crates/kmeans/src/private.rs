//! The privacy-preserving k-means protocol (paper §3.8, Fig. 17/18, §10.4).
//!
//! Three roles, with the trust split the paper prescribes:
//!
//! * **clients** (PPCs) quantize their browsing-profile vectors, encrypt the
//!   derived `c`-vector under the Coordinator's keys, submit it once, and go
//!   offline;
//! * the **Aggregator** stores ciphertexts, runs blinded distance queries,
//!   and maintains the client→cluster mapping. It never sees a profile or a
//!   centroid;
//! * the **Coordinator** owns the secret keys and the centroids. It never
//!   sees a client point and never learns which client maps to which
//!   cluster — only per-cluster aggregates and cardinalities.
//!
//! The driver [`run_private`] iterates the two phases (client–cluster
//! mapping; centroid update) until the fraction of clients that changed
//! cluster falls below the halting threshold, exactly as §3.8 describes.
//! A distance round costs, per client, the blinding of its `m + 3`
//! components (one comb exponentiation each, from combs the [`Aggregator`]
//! builds once on receipt), then `k` inner products that share one comb of
//! the blinded `α` and one pass over `m + 2` small exponents, and one
//! inversion. Both parts parallelize trivially across clients — the
//! property behind Fig. 8c's multi-threaded speedup.

use rand::Rng;

use sheriff_bigint::Big;
use sheriff_crypto::dlog::DlogTable;
use sheriff_crypto::elgamal::{Ciphertext, SecretKey, StoredCiphertext};
use sheriff_crypto::ipfe::{client_vector, server_vector};
use sheriff_crypto::protocol::{aggregate_cluster, decrypt_centroid, BlindedQuery};
use sheriff_crypto::{derive_function_key, eval_inner_products, GroupParams};

/// Configuration for a private k-means run.
#[derive(Clone, Debug)]
pub struct PrivateConfig {
    /// Number of clusters (doppelgangers).
    pub k: usize,
    /// Hard iteration cap. The paper observes convergence in 6–10
    /// iterations on real profiles (§4).
    pub max_iters: usize,
    /// Halt when the fraction of clients changing cluster in an iteration
    /// is at most this value.
    pub halt_changed_fraction: f64,
    /// Quantization grid: profile coordinates live in `0..=scale`.
    pub scale: u64,
    /// Worker threads for the distance phase (1 = sequential).
    pub threads: usize,
}

impl Default for PrivateConfig {
    fn default() -> Self {
        PrivateConfig {
            k: 8,
            max_iters: 20,
            halt_changed_fraction: 0.01,
            scale: 16,
            threads: 1,
        }
    }
}

/// Output of a private k-means run.
#[derive(Clone, Debug)]
pub struct PrivateResult {
    /// Final centroids on the quantized grid — the doppelganger profiles
    /// (known to the Coordinator only, in deployment).
    pub centroids: Vec<Vec<u64>>,
    /// Client→cluster mapping (known to the Aggregator only).
    pub assignments: Vec<usize>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Coordinator role: secret keys + centroids.
pub struct Coordinator {
    sk: SecretKey,
    centroids: Vec<Vec<u64>>,
    /// Per centroid, its function vector `s` and function key, derived when
    /// the centroid changes and not per (client, centroid) evaluation.
    functions: Vec<(Vec<i64>, Big)>,
}

impl Coordinator {
    /// Sets up keys for `m`-dimensional profiles and `k` random initial
    /// centroids on the grid.
    pub fn setup<R: Rng + ?Sized>(
        params: &GroupParams,
        m: usize,
        k: usize,
        scale: u64,
        rng: &mut R,
    ) -> Self {
        let sk = SecretKey::generate(params, m + 2, rng);
        let centroids = (0..k)
            .map(|_| (0..m).map(|_| rng.gen_range(0..=scale)).collect())
            .collect();
        let mut coordinator = Coordinator {
            sk,
            centroids: Vec::new(),
            functions: Vec::new(),
        };
        coordinator.set_centroids(centroids);
        coordinator
    }

    /// Overrides the initial centroids (for reproducible comparisons with
    /// the cleartext reference).
    pub fn set_centroids(&mut self, centroids: Vec<Vec<u64>>) {
        self.functions = centroids.iter().map(|b| self.function_of(b)).collect();
        self.centroids = centroids;
    }

    fn function_of(&self, centroid: &[u64]) -> (Vec<i64>, Big) {
        let s = server_vector(centroid);
        let f = derive_function_key(&self.sk, &s);
        (s, f)
    }

    /// Public keys the clients encrypt under.
    pub fn public_key(&self) -> sheriff_crypto::PublicKey {
        self.sk.public_key()
    }

    /// Current centroids (deployment: internal to the Coordinator).
    pub fn centroids(&self) -> &[Vec<u64>] {
        &self.centroids
    }

    /// Phase (a), Coordinator side: evaluate `g^{ρ·d²}` of a blinded client
    /// ciphertext against every centroid. A ciphertext that is not
    /// well-formed (evaluating it would divide by zero) or not of the key's
    /// dimension gets no responses.
    pub fn evaluate_all(&self, blinded: &Ciphertext) -> Vec<Big> {
        if !blinded.is_well_formed(&self.sk.params) || blinded.dims() != self.sk.dims() {
            return Vec::new();
        }
        let functions = self.functions.iter().map(|(s, f)| (s.as_slice(), f));
        eval_inner_products(&self.sk.params, blinded, functions)
    }

    /// Phase (b), Coordinator side: decrypt a cluster aggregate into a new
    /// centroid. Empty clusters keep their previous centroid.
    pub fn update_centroid(
        &mut self,
        cluster: usize,
        aggregate: Option<&Ciphertext>,
        cardinality: u64,
        table: &DlogTable,
    ) {
        if let Some(agg) = aggregate {
            if cardinality > 0 {
                if let Some(c) = decrypt_centroid(&self.sk, agg, cardinality, 2, table) {
                    self.functions[cluster] = self.function_of(&c);
                    self.centroids[cluster] = c;
                }
            }
        }
    }
}

/// Aggregator role: ciphertexts + mapping.
pub struct Aggregator {
    params: GroupParams,
    cts: Vec<StoredCiphertext>,
    assignments: Vec<usize>,
}

impl Aggregator {
    /// Receives the encrypted client points and builds each one's stored
    /// form: every component is blinded once per distance round, and its
    /// comb pays from the second round on.
    pub fn new(params: &GroupParams, cts: Vec<Ciphertext>) -> Self {
        let n = cts.len();
        Aggregator {
            cts: cts
                .into_iter()
                .map(|ct| StoredCiphertext::new(params, ct))
                .collect(),
            params: params.clone(),
            assignments: vec![usize::MAX; n],
        }
    }

    /// Current client→cluster mapping.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Phase (a): map every client to its nearest centroid via blinded
    /// queries. Returns the number of clients whose cluster changed.
    ///
    /// Every client's ρ is drawn from `rng` first, in client order, as `n`
    /// calls of [`BlindedQuery::blind`] would draw them, so the thread
    /// count changes no draw. `threads > 1` then splits clients across
    /// crossbeam-scoped workers; the Coordinator's evaluation is a pure
    /// function of shared state, so this models `t` parallel protocol
    /// sessions.
    pub fn map_clients<R: Rng + ?Sized>(
        &mut self,
        coordinator: &Coordinator,
        dist_table: &DlogTable,
        threads: usize,
        rng: &mut R,
    ) -> usize {
        let params = &self.params;
        let rhos: Vec<Big> = self
            .cts
            .iter()
            .map(|_| params.random_exponent(rng))
            .collect();
        let assign = |ct: &StoredCiphertext, rho: &Big| {
            let query = BlindedQuery::from_stored(params, ct, rho);
            let responses = coordinator.evaluate_all(&query.blinded);
            nearest(params, &query, &responses, dist_table)
        };
        let n = self.cts.len();
        let new_assignments: Vec<usize> = if threads <= 1 || n < 2 {
            self.cts
                .iter()
                .zip(&rhos)
                .map(|(ct, rho)| assign(ct, rho))
                .collect()
        } else {
            let chunk = n.div_ceil(threads);
            let mut out = vec![0usize; n];
            let assign = &assign;
            crossbeam::scope(|scope| {
                let work = self.cts.chunks(chunk).zip(rhos.chunks(chunk));
                for (slot, (cts, rhos)) in out.chunks_mut(chunk).zip(work) {
                    scope.spawn(move |_| {
                        for (s, (ct, rho)) in slot.iter_mut().zip(cts.iter().zip(rhos)) {
                            *s = assign(ct, rho);
                        }
                    });
                }
            })
            .expect("k-means worker panicked");
            out
        };

        let changed = new_assignments
            .iter()
            .zip(&self.assignments)
            .filter(|(a, b)| a != b)
            .count();
        self.assignments = new_assignments;
        changed
    }

    /// Phase (b), Aggregator side: aggregate each cluster's ciphertexts and
    /// feed the Coordinator's centroid update.
    pub fn update_centroids(&self, coordinator: &mut Coordinator, k: usize, table: &DlogTable) {
        for cluster in 0..k {
            let members: Vec<&Ciphertext> = self
                .cts
                .iter()
                .zip(&self.assignments)
                .filter(|(_, &a)| a == cluster)
                .map(|(ct, _)| ct.ciphertext())
                .collect();
            let n = members.len() as u64;
            let agg = aggregate_cluster(&self.params, &members);
            coordinator.update_centroid(cluster, agg.as_ref(), n, table);
        }
    }
}

/// Index of the smallest unblinded distance (ties to the lowest index). A
/// failed unblind — the distance overflowed the table, or the response is
/// not a group element — counts as "very far" rather than aborting the
/// whole clustering.
fn nearest(gp: &GroupParams, query: &BlindedQuery, resp: &[Big], table: &DlogTable) -> usize {
    let d2 = |j: &usize| query.unblind(gp, &resp[*j], table).unwrap_or(i64::MAX);
    (0..resp.len()).min_by_key(d2).unwrap_or(0)
}

/// Runs the full protocol over cleartext quantized `points` (the driver
/// plays all three roles; deployment splits them across machines).
pub fn run_private<R: Rng + ?Sized>(
    params: &GroupParams,
    points: &[Vec<u64>],
    cfg: &PrivateConfig,
    rng: &mut R,
) -> PrivateResult {
    run_private_with_init(params, points, cfg, None, rng)
}

/// Like [`run_private`] but with explicit initial centroids (reproducibility
/// and reference comparisons).
pub fn run_private_with_init<R: Rng + ?Sized>(
    params: &GroupParams,
    points: &[Vec<u64>],
    cfg: &PrivateConfig,
    init: Option<Vec<Vec<u64>>>,
    rng: &mut R,
) -> PrivateResult {
    assert!(!points.is_empty(), "run_private: no points");
    let m = points[0].len();
    assert!(points.iter().all(|p| p.len() == m), "inconsistent dims");
    assert!(
        points.iter().all(|p| p.iter().all(|&x| x <= cfg.scale)),
        "point off the quantized grid"
    );

    // Clients encrypt and go offline.
    let mut coordinator = Coordinator::setup(params, m, cfg.k, cfg.scale, rng);
    if let Some(init) = init {
        assert_eq!(init.len(), cfg.k, "init centroid count");
        coordinator.set_centroids(init);
    }
    let pk = coordinator.public_key();
    let cts: Vec<Ciphertext> = points
        .iter()
        .map(|p| pk.encrypt(&client_vector(p), rng))
        .collect();
    let mut aggregator = Aggregator::new(params, cts);

    // Distance range: d² ≤ m · scale²; centroid sums ≤ n · scale.
    let dist_bound = (m as u64) * cfg.scale * cfg.scale + 1;
    let dist_table = DlogTable::build(params, dist_bound);
    let sum_bound = (points.len() as u64) * cfg.scale + 1;
    let sum_table = DlogTable::build(params, sum_bound);

    let mut iterations = 0;
    for it in 0..cfg.max_iters {
        iterations = it + 1;
        let changed = aggregator.map_clients(&coordinator, &dist_table, cfg.threads, rng);
        aggregator.update_centroids(&mut coordinator, cfg.k, &sum_table);
        if (changed as f64) / (points.len() as f64) <= cfg.halt_changed_fraction {
            break;
        }
    }
    // Final mapping against the final centroids.
    let _ = aggregator.map_clients(&coordinator, &dist_table, cfg.threads, rng);

    PrivateResult {
        centroids: coordinator.centroids().to_vec(),
        assignments: aggregator.assignments().to_vec(),
        iterations,
    }
}

/// Cleartext k-means with semantics *identical* to the private protocol
/// (integer grid, round-to-nearest centroid division, ties to the lowest
/// cluster index, empty clusters frozen). The encrypted run must match this
/// exactly given the same initial centroids — pinned by tests.
pub fn reference_integer_kmeans(
    points: &[Vec<u64>],
    mut centroids: Vec<Vec<u64>>,
    max_iters: usize,
    halt_changed_fraction: f64,
) -> PrivateResult {
    let n = points.len();
    let k = centroids.len();
    let mut assignments = vec![usize::MAX; n];
    let mut iterations = 0;
    for it in 0..max_iters {
        iterations = it + 1;
        let new_asg: Vec<usize> = points.iter().map(|p| nearest_int(p, &centroids)).collect();
        let changed = new_asg
            .iter()
            .zip(&assignments)
            .filter(|(a, b)| a != b)
            .count();
        assignments = new_asg;
        #[allow(clippy::needless_range_loop)] // c is the cluster id, not an index convenience
        for c in 0..k {
            let members: Vec<&Vec<u64>> = points
                .iter()
                .zip(&assignments)
                .filter(|(_, &a)| a == c)
                .map(|(p, _)| p)
                .collect();
            if members.is_empty() {
                continue;
            }
            let card = members.len() as u64;
            centroids[c] = (0..points[0].len())
                .map(|d| {
                    let sum: u64 = members.iter().map(|p| p[d]).sum();
                    (sum + card / 2) / card
                })
                .collect();
        }
        if (changed as f64) / (n as f64) <= halt_changed_fraction {
            break;
        }
    }
    let assignments = points.iter().map(|p| nearest_int(p, &centroids)).collect();
    PrivateResult {
        centroids,
        assignments,
        iterations,
    }
}

fn nearest_int(p: &[u64], centroids: &[Vec<u64>]) -> usize {
    let mut best = (0usize, i64::MAX);
    for (j, c) in centroids.iter().enumerate() {
        let d2: i64 = p
            .iter()
            .zip(c)
            .map(|(&x, &y)| {
                let d = x as i64 - y as i64;
                d * d
            })
            .sum();
        if d2 < best.1 {
            best = (j, d2);
        }
    }
    best.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_points() -> Vec<Vec<u64>> {
        // Two tight groups on the grid.
        vec![
            vec![0, 1, 0],
            vec![1, 0, 0],
            vec![0, 0, 1],
            vec![15, 16, 15],
            vec![16, 15, 16],
            vec![16, 16, 15],
        ]
    }

    #[test]
    fn private_matches_reference_exactly() {
        let params = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(71);
        let points = grid_points();
        let init = vec![vec![2u64, 2, 2], vec![14, 14, 14]];
        let cfg = PrivateConfig {
            k: 2,
            max_iters: 10,
            halt_changed_fraction: 0.0,
            scale: 16,
            threads: 1,
        };
        let private = run_private_with_init(&params, &points, &cfg, Some(init.clone()), &mut rng);
        let reference = reference_integer_kmeans(&points, init, 10, 0.0);
        assert_eq!(private.centroids, reference.centroids);
        assert_eq!(private.assignments, reference.assignments);
    }

    #[test]
    fn zero_response_is_very_far_not_a_panic() {
        let params = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(77);
        let mut coordinator = Coordinator::setup(&params, 3, 3, 16, &mut rng);
        coordinator.set_centroids(vec![vec![0, 0, 0], vec![1, 0, 1], vec![16, 16, 16]]);
        let ct = coordinator
            .public_key()
            .encrypt(&client_vector(&[0, 1, 0]), &mut rng);
        let table = DlogTable::build(&params, 3 * 16 * 16 + 1);
        let query = BlindedQuery::blind(&params, &ct, &mut rng);
        let mut responses = coordinator.evaluate_all(&query.blinded);
        assert_eq!(nearest(&params, &query, &responses, &table), 0);
        // One bad Coordinator reply: the client maps to the nearest of the rest.
        responses[0] = Big::zero();
        assert_eq!(nearest(&params, &query, &responses, &table), 1);
        responses[1] = params.p.clone();
        assert_eq!(nearest(&params, &query, &responses, &table), 2);
    }

    #[test]
    fn malformed_ciphertext_gets_no_responses_and_freezes_its_cluster() {
        let params = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(78);
        let mut coordinator = Coordinator::setup(&params, 2, 2, 16, &mut rng);
        let mut ct = coordinator
            .public_key()
            .encrypt(&client_vector(&[3, 4]), &mut rng);
        ct.alpha = Big::zero();
        assert!(coordinator.evaluate_all(&ct).is_empty());
        let before = coordinator.centroids().to_vec();
        let mut aggregator = Aggregator::new(&params, vec![ct]);
        let table = DlogTable::build(&params, 64);
        assert_eq!(aggregator.map_clients(&coordinator, &table, 1, &mut rng), 1);
        aggregator.update_centroids(&mut coordinator, 2, &table);
        assert_eq!(coordinator.centroids(), before);
    }

    #[test]
    fn ciphertext_of_the_wrong_dimension_gets_no_responses_and_freezes_its_cluster() {
        let params = GroupParams::test_64();
        let coordinator = || {
            let mut rng = StdRng::seed_from_u64(79);
            let mut c = Coordinator::setup(&params, 2, 2, 16, &mut rng);
            c.set_centroids(vec![vec![0, 0], vec![16, 16]]);
            c
        };
        let mut rng = StdRng::seed_from_u64(80);
        let pk = coordinator().public_key();
        let near = pk.encrypt(&client_vector(&[1, 2]), &mut rng);
        let far = pk.encrypt(&client_vector(&[15, 16]), &mut rng);
        let mut short = pk.encrypt(&client_vector(&[3, 4]), &mut rng);
        short.betas.pop();
        let mut long = near.clone();
        long.betas.push(far.betas[0].clone());
        for ct in [&short, &long] {
            assert!(coordinator().evaluate_all(ct).is_empty());
        }
        // With no responses it maps to cluster 0: alone there, sharing it
        // with an honest member, or one component long.
        let table = DlogTable::build(&params, 2 * 16 * 16 + 1);
        let clients = [
            vec![short.clone()],
            vec![near.clone(), short, far],
            vec![long.clone()],
            vec![long, near],
        ];
        for cts in clients {
            let mut coordinator = coordinator();
            let before = coordinator.centroids()[0].clone();
            let mut aggregator = Aggregator::new(&params, cts);
            aggregator.map_clients(&coordinator, &table, 1, &mut rng);
            assert_eq!(aggregator.assignments()[0], 0);
            aggregator.update_centroids(&mut coordinator, 2, &table);
            assert_eq!(coordinator.centroids()[0], before);
        }
    }

    #[test]
    fn map_clients_draws_what_blinding_each_client_draws_at_any_thread_count() {
        let params = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(81);
        let coordinator = Coordinator::setup(&params, 3, 2, 16, &mut rng);
        let pk = coordinator.public_key();
        let cts: Vec<Ciphertext> = (0..7u64)
            .map(|i| pk.encrypt(&client_vector(&[i, 2 * i, 16 - i]), &mut rng))
            .collect();
        let table = DlogTable::build(&params, 3 * 16 * 16 + 1);
        let mut mapped = Vec::new();
        for threads in [1, 4] {
            let mut aggregator = Aggregator::new(&params, cts.clone());
            let (mut got, mut want) = (rng.clone(), rng.clone());
            aggregator.map_clients(&coordinator, &table, threads, &mut got);
            for ct in &cts {
                BlindedQuery::blind(&params, ct, &mut want);
            }
            assert_eq!(got.gen::<u64>(), want.gen::<u64>(), "{threads} threads");
            mapped.push(aggregator.assignments().to_vec());
        }
        assert_eq!(mapped[0], mapped[1]);
    }

    #[test]
    fn private_parallel_matches_sequential() {
        let params = GroupParams::test_64();
        let points = grid_points();
        let init = vec![vec![0u64, 0, 0], vec![16, 16, 16]];
        let mk_cfg = |threads| PrivateConfig {
            k: 2,
            max_iters: 8,
            halt_changed_fraction: 0.0,
            scale: 16,
            threads,
        };
        let mut rng1 = StdRng::seed_from_u64(72);
        let seq =
            run_private_with_init(&params, &points, &mk_cfg(1), Some(init.clone()), &mut rng1);
        let mut rng2 = StdRng::seed_from_u64(73);
        let par = run_private_with_init(&params, &points, &mk_cfg(3), Some(init), &mut rng2);
        // Blinding randomness differs but results are deterministic given
        // the same initial centroids.
        assert_eq!(seq.centroids, par.centroids);
        assert_eq!(seq.assignments, par.assignments);
    }

    #[test]
    fn clusters_separate_obvious_groups() {
        // Random initialization is data-blind (the Coordinator never sees
        // points), so like any k-means it can land badly; practitioners
        // restart. Require that a clear majority of seeded restarts separate
        // the two obvious groups.
        let params = GroupParams::test_64();
        let points = grid_points();
        let cfg = PrivateConfig {
            k: 2,
            max_iters: 12,
            halt_changed_fraction: 0.0,
            scale: 16,
            threads: 1,
        };
        let mut separated = 0;
        for seed in 74..84 {
            let mut rng = StdRng::seed_from_u64(seed);
            let res = run_private(&params, &points, &cfg, &mut rng);
            assert!(res.assignments.iter().all(|&a| a < 2));
            let ok = res.assignments[0] == res.assignments[1]
                && res.assignments[0] == res.assignments[2]
                && res.assignments[3] == res.assignments[4]
                && res.assignments[3] == res.assignments[5]
                && res.assignments[0] != res.assignments[3];
            if ok {
                separated += 1;
            }
        }
        assert!(
            separated >= 7,
            "only {separated}/10 restarts separated the groups"
        );
    }

    #[test]
    fn converges_quickly_on_separated_data() {
        let params = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(75);
        let points = grid_points();
        let cfg = PrivateConfig {
            k: 2,
            max_iters: 20,
            halt_changed_fraction: 0.01,
            scale: 16,
            threads: 1,
        };
        let res = run_private(&params, &points, &cfg, &mut rng);
        assert!(res.iterations <= 6, "took {} iterations", res.iterations);
    }

    #[test]
    #[should_panic]
    fn off_grid_point_panics() {
        let params = GroupParams::test_64();
        let mut rng = StdRng::seed_from_u64(76);
        let cfg = PrivateConfig {
            scale: 4,
            ..Default::default()
        };
        let _ = run_private(&params, &[vec![100]], &cfg, &mut rng);
    }
}
