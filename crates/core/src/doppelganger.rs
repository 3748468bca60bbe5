//! Doppelgangers: cluster-trained fake browsing profiles (paper §3.6.2,
//! §3.7).
//!
//! A doppelganger is "a browser instance built to closely represent the
//! browsing profiles of a cluster of real users". The Coordinator trains
//! one per k-means centroid by visiting the centroid's domains and
//! accumulating client-side state; PPCs past their pollution budget fetch
//! with the doppelganger's cookies instead of their own.
//!
//! Identifiers are 256-bit random bearer tokens: the PPC fetches the
//! client-side state from the Coordinator through an anonymity network,
//! and the token is the *only* credential — "the Coordinator grants the
//! doppelganger client-side state only to those who submit the correct
//! token" (§3.7).

use std::collections::{HashMap, HashSet};

use rand::Rng;

use sheriff_market::{Cookie, CookieJar};

use crate::pollution::{FetchMode, PollutionLedger};

/// 256-bit bearer token identifying a doppelganger.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DoppelgangerId(pub [u8; 32]);

impl DoppelgangerId {
    /// Fresh random token.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut id = [0u8; 32];
        rng.fill(&mut id);
        DoppelgangerId(id)
    }

    /// Hex rendering (token display in the monitoring panel).
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl std::fmt::Debug for DoppelgangerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Doppelganger({}…)", &self.to_hex()[..8])
    }
}

// Bearer tokens travel inside protocol messages as 64-char hex strings
// (the vendored serde has no `Deserialize for [u8; 32]`).
impl serde::Serialize for DoppelgangerId {
    fn serialize(&self, w: &mut serde::Writer<'_>) {
        w.str(&self.to_hex());
    }
}

impl serde::Deserialize for DoppelgangerId {
    fn deserialize(p: &mut serde::Parser<'_>) -> Result<Self, serde::DeError> {
        let s = p
            .string()
            .map_err(|_| serde::DeError::new("DoppelgangerId: expected hex string"))?;
        if s.len() != 64 {
            return Err(serde::DeError::new("DoppelgangerId: expected 64 hex chars"));
        }
        let mut id = [0u8; 32];
        for (i, byte) in id.iter_mut().enumerate() {
            *byte = s
                .get(2 * i..2 * i + 2)
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or_else(|| serde::DeError::new("DoppelgangerId: bad hex"))?;
        }
        Ok(DoppelgangerId(id))
    }
}

/// One trained doppelganger.
#[derive(Clone, Debug)]
pub struct Doppelganger {
    /// Bearer token.
    pub id: DoppelgangerId,
    /// The centroid profile vector it was trained from.
    pub profile_vector: Vec<u64>,
    /// Accumulated client-side state.
    pub client_state: CookieJar,
    /// Pollution ledger: 1 serve per 4 training visits per domain.
    ledger: PollutionLedger,
    /// Regeneration count.
    pub generation: u32,
}

impl Doppelganger {
    /// Trains a doppelganger from a centroid over `universe` domains: each
    /// domain is "visited" `4 × centroid value` times, accumulating a
    /// first-party cookie per visited domain (so the budget rule
    /// "one request per 4 training visits" falls straight out of the
    /// ledger).
    pub fn train<R: Rng + ?Sized>(
        centroid: &[u64],
        universe: &[String],
        rng: &mut R,
    ) -> Doppelganger {
        assert_eq!(centroid.len(), universe.len(), "centroid/universe mismatch");
        let id = DoppelgangerId::random(rng);
        let mut client_state = CookieJar::new();
        let mut ledger = PollutionLedger::new();
        for (domain, &weight) in universe.iter().zip(centroid) {
            if weight == 0 {
                continue;
            }
            let visits = weight * 4;
            ledger.record_real_visits(domain, visits);
            client_state.set(
                domain,
                Cookie {
                    name: "session_id".into(),
                    value: format!("{:08x}", rng.gen::<u32>()),
                    third_party: false,
                },
            );
            client_state.set(
                domain,
                Cookie {
                    name: "visit_count".into(),
                    value: visits.to_string(),
                    third_party: false,
                },
            );
        }
        Doppelganger {
            id,
            profile_vector: centroid.to_vec(),
            client_state,
            ledger,
            generation: 0,
        }
    }

    /// Decides whether this doppelganger can serve a fetch towards
    /// `domain`, charging its budget. Domains it never "visited" are served
    /// clean (state deleted afterwards, nothing charged), matching §3.6.2.
    pub fn serve(&mut self, domain: &str) -> FetchMode {
        self.ledger.decide_and_charge(domain)
    }

    /// True when ≥50% of its visited domains are saturated — the paper's
    /// regeneration trigger.
    pub fn is_saturated(&self) -> bool {
        self.ledger.saturation() >= 0.5
    }

    /// Regenerates in place: new token, fresh client state, reset budgets.
    pub fn regenerate<R: Rng + ?Sized>(&mut self, universe: &[String], rng: &mut R) {
        let fresh = Doppelganger::train(&self.profile_vector, universe, rng);
        self.id = fresh.id;
        self.client_state = fresh.client_state;
        self.ledger = fresh.ledger;
        self.generation += 1;
    }
}

/// Coordinator-side store: token → doppelganger. The Coordinator never
/// learns which peer asks for which token (requests arrive anonymized).
#[derive(Debug, Default)]
pub struct DoppelgangerStore {
    by_token: HashMap<DoppelgangerId, Doppelganger>,
    /// Tokens rotated out by regeneration. An honest peer can race a
    /// rotation and present one of these; that must *not* score as a
    /// mismatch (only never-issued tokens are forgeries).
    retired: HashSet<DoppelgangerId>,
}

impl DoppelgangerStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains one doppelganger per centroid; returns tokens in centroid
    /// order (these go to the Aggregator for cluster→token mapping).
    pub fn train_all<R: Rng + ?Sized>(
        &mut self,
        centroids: &[Vec<u64>],
        universe: &[String],
        rng: &mut R,
    ) -> Vec<DoppelgangerId> {
        centroids
            .iter()
            .map(|c| {
                let d = Doppelganger::train(c, universe, rng);
                let id = d.id;
                self.by_token.insert(id, d);
                id
            })
            .collect()
    }

    /// Bearer-token lookup of the client-side state.
    pub fn client_state(&self, token: &DoppelgangerId) -> Option<&CookieJar> {
        self.by_token.get(token).map(|d| &d.client_state)
    }

    /// Whether `token` names a live doppelganger. A request bearing an
    /// unknown token is a *doppelganger mismatch* — either a stale replay
    /// of a rotated token or an outright forgery — and the defense layer
    /// scores it (see `protocol::defense`).
    pub fn is_known(&self, token: &DoppelgangerId) -> bool {
        self.by_token.contains_key(token)
    }

    /// Charges a serve and regenerates on saturation. Returns the (possibly
    /// new) token and the fetch mode — callers must switch to the returned
    /// token, mirroring how a regenerated doppelganger gets a new identity.
    pub fn serve<R: Rng + ?Sized>(
        &mut self,
        token: &DoppelgangerId,
        domain: &str,
        universe: &[String],
        rng: &mut R,
    ) -> Option<(DoppelgangerId, FetchMode)> {
        let mut d = self.by_token.remove(token)?;
        let mode = d.serve(domain);
        if d.is_saturated() {
            d.regenerate(universe, rng);
        }
        let new_token = d.id;
        if new_token != *token {
            self.retired.insert(*token);
        }
        self.by_token.insert(new_token, d);
        Some((new_token, mode))
    }

    /// Whether `token` once named a doppelganger that has since been
    /// regenerated under a new identity.
    pub fn is_retired(&self, token: &DoppelgangerId) -> bool {
        self.retired.contains(token)
    }

    /// Number of live doppelgangers.
    pub fn len(&self) -> usize {
        self.by_token.len()
    }

    /// True when no doppelgangers are trained.
    pub fn is_empty(&self) -> bool {
        self.by_token.is_empty()
    }
}

/// Aggregator-side directory: peer → cluster → token. The Aggregator knows
/// the mapping but never the profiles (paper §3.7's trust split).
#[derive(Debug, Default)]
pub struct AggregatorDirectory {
    peer_cluster: HashMap<u64, usize>,
    cluster_tokens: Vec<DoppelgangerId>,
}

impl AggregatorDirectory {
    /// Builds from k-means assignments and the Coordinator-issued tokens.
    pub fn new(assignments: &[(u64, usize)], cluster_tokens: Vec<DoppelgangerId>) -> Self {
        AggregatorDirectory {
            peer_cluster: assignments.iter().copied().collect(),
            cluster_tokens,
        }
    }

    /// Answers a peer's "Doppelganger ID request" (Fig. 1 step 3.3).
    pub fn token_for(&self, peer: u64) -> Option<DoppelgangerId> {
        let cluster = *self.peer_cluster.get(&peer)?;
        self.cluster_tokens.get(cluster).copied()
    }

    /// Updates a cluster's token after regeneration.
    pub fn update_token(&mut self, cluster: usize, token: DoppelgangerId) {
        if let Some(t) = self.cluster_tokens.get_mut(cluster) {
            *t = token;
        }
    }

    /// Cluster of a peer.
    pub fn cluster_of(&self, peer: u64) -> Option<usize> {
        self.peer_cluster.get(&peer).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn universe() -> Vec<String> {
        vec!["a.com".into(), "b.com".into(), "c.com".into()]
    }

    #[test]
    fn training_builds_state_proportional_to_centroid() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = Doppelganger::train(&[2, 0, 5], &universe(), &mut rng);
        assert!(!d.client_state.get("a.com").is_empty());
        assert!(
            d.client_state.get("b.com").is_empty(),
            "zero-weight domain untouched"
        );
        assert_eq!(d.client_state.value("c.com", "visit_count"), Some("20"));
    }

    #[test]
    fn budget_is_centroid_value() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Doppelganger::train(&[2], &["a.com".to_string()], &mut rng);
        // 8 training visits → budget 2.
        assert_eq!(d.serve("a.com"), FetchMode::RealOwnState);
        assert_eq!(d.serve("a.com"), FetchMode::RealOwnState);
        assert_eq!(
            d.serve("a.com"),
            FetchMode::Doppelganger,
            "budget exhausted"
        );
    }

    #[test]
    fn unvisited_domain_serves_clean() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Doppelganger::train(&[1, 0], &universe()[..2], &mut rng);
        assert_eq!(d.serve("b.com"), FetchMode::CleanOwnState);
    }

    #[test]
    fn saturation_triggers_regeneration_with_new_token() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = DoppelgangerStore::new();
        let uni = vec!["a.com".to_string()];
        let tokens = store.train_all(&[vec![1]], &uni, &mut rng);
        let t0 = tokens[0];
        // Budget is 1: first serve consumes it and saturates (1 of 1
        // domains saturated ≥ 50%) → regeneration.
        let (t1, mode) = store.serve(&t0, "a.com", &uni, &mut rng).unwrap();
        assert_eq!(mode, FetchMode::RealOwnState);
        assert_ne!(t0, t1, "regeneration must rotate the bearer token");
        assert!(store.client_state(&t0).is_none(), "old token revoked");
        assert!(store.client_state(&t1).is_some());
        // Generation bumped.
        let d = store.by_token.get(&t1).unwrap();
        assert_eq!(d.generation, 1);
    }

    #[test]
    fn bearer_token_is_required() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = DoppelgangerStore::new();
        store.train_all(&[vec![1, 1, 1]], &universe(), &mut rng);
        let forged = DoppelgangerId::random(&mut rng);
        assert!(store.client_state(&forged).is_none());
        assert!(store
            .serve(&forged, "a.com", &universe(), &mut rng)
            .is_none());
    }

    #[test]
    fn directory_maps_peer_to_cluster_token() {
        let mut rng = StdRng::seed_from_u64(6);
        let t0 = DoppelgangerId::random(&mut rng);
        let t1 = DoppelgangerId::random(&mut rng);
        let dir = AggregatorDirectory::new(&[(100, 0), (200, 1), (300, 0)], vec![t0, t1]);
        assert_eq!(dir.token_for(100), Some(t0));
        assert_eq!(dir.token_for(200), Some(t1));
        assert_eq!(dir.token_for(300), Some(t0));
        assert_eq!(dir.token_for(999), None);
        assert_eq!(dir.cluster_of(200), Some(1));
    }

    #[test]
    fn token_hex_is_64_chars() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = DoppelgangerId::random(&mut rng);
        assert_eq!(t.to_hex().len(), 64);
    }
}
