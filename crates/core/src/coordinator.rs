//! The Coordinator (paper §3.1.1, §3.4, Fig. 6/7).
//!
//! Pure state-machine logic, independent of transport: job-ID issuance,
//! whitelist filtering, the least-pending-jobs request-distribution
//! protocol over the Measurement-server list (an online heuristic for a
//! job-shop variant, §3.4), heartbeat liveness, and the peer registry
//! grouped by geolocation. The `system` module drives this over the
//! discrete-event network; unit tests drive it directly.

// Iteration order is observable here: `clippy.toml` bans HashMap/HashSet.
#![deny(clippy::disallowed_types)]

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use sheriff_geo::{IpV4, Location};
use sheriff_telemetry::{panel, Counter, FieldValue, Gauge, Registry};

use crate::whitelist::{Whitelist, WhitelistRejection};

/// Globally unique price-check job identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// Peer (PPC / browser add-on instance) identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PeerId(pub u64);

/// One row of the Measurement-server list (Fig. 6 bottom / Fig. 7 panel).
#[derive(Clone, Debug)]
pub struct ServerEntry {
    /// Server address (URL or IP).
    pub addr: String,
    /// Port.
    pub port: u16,
    /// Marked online (heartbeats fresh)?
    pub online: bool,
    /// Pending jobs currently assigned.
    pub pending_jobs: u32,
    /// Last heartbeat timestamp (virtual ms).
    pub last_heartbeat: u64,
}

/// A registered peer.
#[derive(Clone, Debug)]
pub struct PeerEntry {
    /// Current IP.
    pub ip: IpV4,
    /// Geolocated position.
    pub location: Location,
    /// Still connected?
    pub online: bool,
}

/// Why a price-check request was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// Whitelist refused the URL.
    Rejected(WhitelistRejection),
    /// No Measurement server is online.
    NoServerAvailable,
}

/// Per-server panel gauges, parallel to the `servers` list.
#[derive(Debug)]
struct ServerGauges {
    online: Arc<Gauge>,
    pending: Arc<Gauge>,
}

/// The Coordinator's state.
#[derive(Debug)]
pub struct Coordinator {
    whitelist: Whitelist,
    servers: Vec<ServerEntry>,
    // `BTreeMap` so every iteration below (orphan sweep, peers_near) is
    // key-ordered by construction — no sort step can be forgotten.
    peers: BTreeMap<PeerId, PeerEntry>,
    /// In-flight job → index of the server it is charged to.
    jobs: BTreeMap<JobId, usize>,
    next_job: u64,
    /// Heartbeat staleness threshold (ms) before a server goes offline.
    pub heartbeat_timeout_ms: u64,
    telemetry: Arc<Registry>,
    server_gauges: Vec<ServerGauges>,
    requests_total: Arc<Counter>,
    requests_rejected: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    heartbeats_expired: Arc<Counter>,
    jobs_requeued: Arc<Counter>,
    peers_online: Arc<Gauge>,
}

impl Coordinator {
    /// New Coordinator over a whitelist, with a private telemetry registry.
    pub fn new(whitelist: Whitelist) -> Self {
        Self::with_telemetry(whitelist, Arc::new(Registry::new()))
    }

    /// New Coordinator publishing its metrics into a shared registry.
    pub fn with_telemetry(whitelist: Whitelist, telemetry: Arc<Registry>) -> Self {
        Coordinator {
            whitelist,
            servers: Vec::new(),
            peers: BTreeMap::new(),
            jobs: BTreeMap::new(),
            next_job: 1,
            heartbeat_timeout_ms: 30_000,
            requests_total: telemetry.counter("coordinator.requests_total"),
            requests_rejected: telemetry.counter("coordinator.requests_rejected"),
            jobs_completed: telemetry.counter("coordinator.jobs_completed"),
            heartbeats_expired: telemetry.counter("coordinator.heartbeats_expired"),
            jobs_requeued: telemetry.counter("coordinator.jobs_requeued"),
            peers_online: telemetry.gauge("coordinator.peers_online"),
            server_gauges: Vec::new(),
            telemetry,
        }
    }

    /// The registry this coordinator publishes into.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    // ----- Measurement-server management (§3.4, §10.2.1) -----

    /// Registers a Measurement server (the admin web-interface flow).
    /// Returns its index in the server list.
    pub fn register_server(&mut self, addr: &str, port: u16, now: u64) -> usize {
        self.servers.push(ServerEntry {
            addr: addr.to_string(),
            port,
            online: true,
            pending_jobs: 0,
            last_heartbeat: now,
        });
        let index = self.servers.len() - 1;
        let online = self
            .telemetry
            .gauge(&panel::server_metric(index, addr, port, "online"));
        let pending =
            self.telemetry
                .gauge(&panel::server_metric(index, addr, port, "pending_jobs"));
        online.set(1);
        pending.set(0);
        self.server_gauges.push(ServerGauges { online, pending });
        self.telemetry.event(
            now,
            "coordinator.server_registered",
            vec![
                ("index", FieldValue::U64(index as u64)),
                ("addr", FieldValue::from(addr)),
            ],
        );
        index
    }

    /// Detaches a server. Only allowed once it has no pending jobs
    /// (§10.2.1); returns false otherwise.
    pub fn remove_server(&mut self, index: usize) -> bool {
        match self.servers.get_mut(index) {
            Some(s) if s.pending_jobs == 0 => {
                s.online = false;
                if let Some(g) = self.server_gauges.get(index) {
                    g.online.set(0);
                }
                true
            }
            _ => false,
        }
    }

    /// Records a heartbeat from server `index`.
    pub fn heartbeat(&mut self, index: usize, now: u64) {
        if let Some(s) = self.servers.get_mut(index) {
            s.last_heartbeat = now;
            s.online = true;
            if let Some(g) = self.server_gauges.get(index) {
                g.online.set(1);
            }
        }
    }

    /// Marks servers with stale heartbeats offline (§10.3).
    pub fn expire_heartbeats(&mut self, now: u64) {
        for (index, s) in self.servers.iter_mut().enumerate() {
            if s.online && now.saturating_sub(s.last_heartbeat) > self.heartbeat_timeout_ms {
                s.online = false;
                if let Some(g) = self.server_gauges.get(index) {
                    g.online.set(0);
                }
                self.heartbeats_expired.inc();
                self.telemetry.event(
                    now,
                    "coordinator.heartbeat_expired",
                    vec![
                        ("index", FieldValue::U64(index as u64)),
                        (
                            "stale_ms",
                            FieldValue::U64(now.saturating_sub(s.last_heartbeat)),
                        ),
                    ],
                );
            }
        }
    }

    /// The server list (monitoring panel data, Fig. 7).
    pub fn servers(&self) -> &[ServerEntry] {
        &self.servers
    }

    /// Step 1–2 of the request-distribution protocol: whitelist the URL,
    /// mint a job ID, pick the online server with the fewest pending jobs,
    /// and charge it.
    pub fn new_request(&mut self, url: &str, now: u64) -> Result<(JobId, usize), RequestError> {
        self.expire_heartbeats(now);
        self.requests_total.inc();
        let checked = self.whitelist.check(url).map_err(RequestError::Rejected);
        let chosen = checked.and_then(|_domain| {
            self.servers
                .iter()
                .enumerate()
                .filter(|(_, s)| s.online)
                .min_by_key(|(_, s)| s.pending_jobs)
                .map(|(i, _)| i)
                .ok_or(RequestError::NoServerAvailable)
        });
        let chosen = match chosen {
            Ok(i) => i,
            Err(e) => {
                self.requests_rejected.inc();
                return Err(e);
            }
        };
        let job = JobId(self.next_job);
        self.next_job += 1;
        let pending = match self.servers.get_mut(chosen) {
            Some(s) => {
                s.pending_jobs += 1;
                s.pending_jobs
            }
            None => 0,
        };
        self.jobs.insert(job, chosen);
        if let Some(g) = self.server_gauges.get(chosen) {
            g.pending.set(pending as i64);
        }
        self.telemetry.event(
            now,
            "coordinator.job_assigned",
            vec![
                ("job", FieldValue::U64(job.0)),
                ("server", FieldValue::U64(chosen as u64)),
                ("pending", FieldValue::U64(pending as u64)),
            ],
        );
        Ok((job, chosen))
    }

    /// Step 4: a Measurement server reports job completion; its counter
    /// decreases. Unknown/duplicate job IDs are ignored (the network-issue
    /// corrective case of §10.3 re-sends completions).
    pub fn job_complete(&mut self, job: JobId) {
        if let Some(server) = self.jobs.remove(&job) {
            if let Some(s) = self.servers.get_mut(server) {
                s.pending_jobs = s.pending_jobs.saturating_sub(1);
                self.jobs_completed.inc();
                let pending = s.pending_jobs;
                if let Some(g) = self.server_gauges.get(server) {
                    g.pending.set(pending as i64);
                }
            }
        }
    }

    /// Pending jobs on a server.
    pub fn pending_jobs(&self, index: usize) -> u32 {
        self.servers.get(index).map_or(0, |s| s.pending_jobs)
    }

    /// Pending-job counts for every registered server, in registration
    /// order (structured Fig. 7 data; the text panel renders the same).
    pub fn pending_jobs_per_server(&self) -> Vec<u32> {
        self.servers.iter().map(|s| s.pending_jobs).collect()
    }

    /// Folds the bookkeeping core's logical state into `d` for
    /// model-checker state canonicalization. Heartbeat stamps are
    /// absolute time and excluded; online/offline flags (their derived
    /// effect) are folded instead.
    pub fn state_digest(&self, d: &mut crate::protocol::Digest) {
        d.write_u64(self.next_job);
        d.write_u64(self.servers.len() as u64);
        for s in &self.servers {
            d.write_bool(s.online);
            d.write_u64(u64::from(s.pending_jobs));
        }
        for (job, &server) in &self.jobs {
            d.write_u64(job.0);
            d.write_u64(server as u64);
        }
        d.write_u64(self.peers.len() as u64);
        for (id, p) in &self.peers {
            d.write_u64(id.0);
            d.write_bool(p.online);
        }
    }

    /// §10.3 recovery: takes back every job charged to an offline server
    /// so the caller can re-admit it elsewhere. Only acts when at least
    /// one *online* server exists — a job on the sole (offline) server is
    /// left in place, since it may still complete once the server
    /// recovers and there is nowhere better to move it.
    pub fn take_orphaned_jobs(&mut self, now: u64) -> Vec<JobId> {
        if !self.servers.iter().any(|s| s.online) {
            return Vec::new();
        }
        // Job-id order: the requeue sequence is an observable event order.
        let orphaned: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|&(_, &idx)| self.servers.get(idx).is_none_or(|s| !s.online))
            .map(|(&job, _)| job)
            .collect();
        for &job in &orphaned {
            let Some(idx) = self.jobs.remove(&job) else {
                continue;
            };
            if let Some(s) = self.servers.get_mut(idx) {
                s.pending_jobs = s.pending_jobs.saturating_sub(1);
                let pending = s.pending_jobs;
                if let Some(g) = self.server_gauges.get(idx) {
                    g.pending.set(pending as i64);
                }
            }
            self.jobs_requeued.inc();
            self.telemetry.event(
                now,
                "coordinator.job_requeued",
                vec![
                    ("job", FieldValue::U64(job.0)),
                    ("server", FieldValue::U64(idx as u64)),
                ],
            );
        }
        orphaned
    }

    // ----- Peer registry (§3.2) -----

    /// A browser with the add-on came online.
    pub fn peer_online(&mut self, peer: PeerId, ip: IpV4, location: Location) {
        self.peers.insert(
            peer,
            PeerEntry {
                ip,
                location,
                online: true,
            },
        );
        self.peers_online.set(self.online_peers() as i64);
    }

    /// Peer disconnected.
    pub fn peer_offline(&mut self, peer: PeerId) {
        if let Some(p) = self.peers.get_mut(&peer) {
            p.online = false;
        }
        self.peers_online.set(self.online_peers() as i64);
    }

    /// Online peers in the same area as `location`, excluding the
    /// initiator, capped at `max` (the ~3 PPCs per request of §6.1).
    pub fn peers_near(&self, location: &Location, exclude: PeerId, max: usize) -> Vec<PeerId> {
        // BTreeMap iteration is peer-id order, so the list is already
        // deterministic without a sort.
        let mut out: Vec<PeerId> = self
            .peers
            .iter()
            .filter(|(&id, p)| id != exclude && p.online && p.location.same_area(location))
            .map(|(&id, _)| id)
            .collect();
        out.truncate(max);
        out
    }

    /// Number of online peers.
    pub fn online_peers(&self) -> usize {
        self.peers.values().filter(|p| p.online).count()
    }

    /// Registered peer info.
    pub fn peer(&self, id: PeerId) -> Option<&PeerEntry> {
        self.peers.get(&id)
    }

    /// Renders the Fig. 7 monitoring panel as text. Rendering reads only
    /// the telemetry registry — the panel is a view over the same snapshot
    /// the run reports export, with no hand-maintained counters.
    pub fn monitoring_panel(&self) -> String {
        panel::coordinator_panel(&self.telemetry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_geo::{Country, GeoLocator, Granularity, IpAllocator};

    fn coordinator() -> Coordinator {
        Coordinator::new(Whitelist::with_domains(["shop.com", "other.com"]))
    }

    fn loc(country: Country, city_idx: usize) -> (IpV4, Location) {
        let mut alloc = IpAllocator::new();
        let ip = alloc.allocate(country, city_idx);
        let l = GeoLocator::new(Granularity::City).locate(ip).unwrap();
        (ip, l)
    }

    #[test]
    fn requests_balance_to_least_loaded() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        c.register_server("s1", 80, 0);
        let (_, a) = c.new_request("shop.com/p/1", 1).unwrap();
        let (_, b) = c.new_request("shop.com/p/2", 2).unwrap();
        assert_ne!(a, b, "second request goes to the idle server");
        // Load: 1 and 1; complete one job, the freed server gets the next.
        let (job3, s3) = c.new_request("shop.com/p/3", 3).unwrap();
        assert_eq!(c.pending_jobs(s3), 2);
        c.job_complete(job3);
        let (_, s4) = c.new_request("shop.com/p/4", 4).unwrap();
        assert_eq!(s4, s3, "completion freed capacity");
    }

    #[test]
    fn slow_server_accumulates_fewer_jobs() {
        // "the response time of the system improves as 'slower' servers are
        // assigned fewer requests" — completions free the fast server.
        let mut c = coordinator();
        let slow = c.register_server("slow", 80, 0);
        let fast = c.register_server("fast", 80, 0);
        let mut fast_jobs = 0;
        for i in 0..20 {
            let (job, s) = c.new_request("shop.com/p", i).unwrap();
            if s == fast {
                fast_jobs += 1;
                c.job_complete(job); // fast server finishes immediately
            }
        }
        assert!(fast_jobs >= 15, "fast server got only {fast_jobs}/20");
        assert!(c.pending_jobs(slow) > 0);
    }

    #[test]
    fn rejected_urls_do_not_mint_jobs() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        let err = c.new_request("evil.example/x", 0).unwrap_err();
        assert!(matches!(err, RequestError::Rejected(_)));
        let err = c.new_request("shop.com/account/me", 0).unwrap_err();
        assert!(matches!(
            err,
            RequestError::Rejected(WhitelistRejection::PiiUrl)
        ));
        assert_eq!(c.pending_jobs(0), 0);
    }

    #[test]
    fn no_online_server_is_an_error() {
        let mut c = coordinator();
        assert_eq!(
            c.new_request("shop.com/p", 0).unwrap_err(),
            RequestError::NoServerAvailable
        );
    }

    #[test]
    fn heartbeat_expiry_takes_servers_offline() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        c.register_server("s1", 80, 0);
        c.heartbeat(1, 50_000);
        // s0's last heartbeat is 0; at t=40k it is stale (>30s timeout).
        let (_, s) = c.new_request("shop.com/p", 40_000).unwrap();
        assert_eq!(s, 1, "stale server skipped");
        assert!(!c.servers()[0].online);
        // Heartbeat revives it.
        c.heartbeat(0, 41_000);
        assert!(c.servers()[0].online);
    }

    #[test]
    fn server_removal_requires_drained_queue() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        let (job, _) = c.new_request("shop.com/p", 0).unwrap();
        assert!(!c.remove_server(0), "pending job blocks removal");
        c.job_complete(job);
        assert!(c.remove_server(0));
        assert!(!c.servers()[0].online);
    }

    #[test]
    fn job_ids_unique_and_completion_idempotent() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        let (a, _) = c.new_request("shop.com/p", 0).unwrap();
        let (b, _) = c.new_request("shop.com/p", 1).unwrap();
        assert_ne!(a, b);
        c.job_complete(a);
        c.job_complete(a); // duplicate completion ignored
        assert_eq!(c.pending_jobs(0), 1);
    }

    #[test]
    fn peer_registry_matches_by_area() {
        let mut c = coordinator();
        let (ip1, l1) = loc(Country::ES, 0);
        let (ip2, l2) = loc(Country::ES, 0);
        let (ip3, l3) = loc(Country::ES, 1);
        let (ip4, l4) = loc(Country::FR, 0);
        c.peer_online(PeerId(1), ip1, l1.clone());
        c.peer_online(PeerId(2), ip2, l2);
        c.peer_online(PeerId(3), ip3, l3);
        c.peer_online(PeerId(4), ip4, l4);
        let near = c.peers_near(&l1, PeerId(1), 10);
        assert_eq!(near, vec![PeerId(2)], "same city only, initiator excluded");
        assert_eq!(c.online_peers(), 4);
        c.peer_offline(PeerId(2));
        assert!(c.peers_near(&l1, PeerId(1), 10).is_empty());
    }

    #[test]
    fn peers_near_caps_at_max() {
        let mut c = coordinator();
        let (_, l) = loc(Country::ES, 0);
        for i in 0..10 {
            let (ip, pl) = loc(Country::ES, 0);
            let _ = ip;
            c.peer_online(PeerId(i), IpV4(i as u32), pl);
        }
        assert_eq!(c.peers_near(&l, PeerId(99), 3).len(), 3);
    }

    #[test]
    fn monitoring_panel_renders() {
        let mut c = coordinator();
        c.register_server("192.168.1.11", 80, 0);
        let panel = c.monitoring_panel();
        assert!(panel.contains("192.168.1.11"));
        assert!(panel.contains("online"));
    }

    #[test]
    fn monitoring_panel_golden() {
        // Fixed state -> exact panel text, rendered purely from the
        // telemetry registry.
        let mut c = coordinator();
        c.register_server("192.168.1.11", 80, 0);
        c.register_server("ms.example.org", 9000, 0);
        let (ip, l) = loc(Country::ES, 0);
        c.peer_online(PeerId(1), ip, l);
        let (_job, s) = c.new_request("shop.com/p/1", 1).unwrap();
        assert_eq!(s, 0);
        let (job2, _) = c.new_request("shop.com/p/2", 2).unwrap();
        c.job_complete(job2);
        assert!(c.new_request("evil.example/x", 3).is_err());
        assert_eq!(
            c.monitoring_panel(),
            "Worker            Port  Status   Jobs\n\
             192.168.1.11      80    online   1\n\
             ms.example.org    9000  online   0\n\
             \nRequests: 3 total, 1 rejected   Jobs completed: 1   Peers online: 1\n\
             Recovery: 0 retransmits, 0 dups absorbed, 0 jobs requeued, 0 restarts\n\
             Durability: 0 wal appends, 0 snapshots, 0 records recovered\n\
             Defense: 0 rejects, 0 quota trips, 0 quarantines, 0 paroles, 0 dropped\n"
        );
    }

    #[test]
    fn telemetry_tracks_request_lifecycle() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        let (job, _) = c.new_request("shop.com/p", 0).unwrap();
        c.job_complete(job);
        let _ = c.new_request("evil.example/x", 1);
        let snap = c.telemetry().snapshot();
        assert_eq!(snap.counters["coordinator.requests_total"], 2);
        assert_eq!(snap.counters["coordinator.requests_rejected"], 1);
        assert_eq!(snap.counters["coordinator.jobs_completed"], 1);
        let assigned: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "coordinator.job_assigned")
            .collect();
        assert_eq!(assigned.len(), 1);
        assert_eq!(
            assigned[0].field("job"),
            Some(&sheriff_telemetry::FieldValue::U64(job.0))
        );
    }

    #[test]
    fn orphaned_jobs_are_taken_back_only_when_somewhere_else_exists() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        c.register_server("s1", 80, 0);
        let (job, s) = c.new_request("shop.com/p", 0).unwrap();
        assert_eq!(s, 0);
        // Nothing is orphaned while everyone is online.
        assert!(c.take_orphaned_jobs(1).is_empty());
        // s0 goes stale; its job comes back for reassignment.
        c.heartbeat(1, 50_000);
        c.expire_heartbeats(50_000);
        assert_eq!(c.take_orphaned_jobs(50_000), vec![job]);
        assert_eq!(c.pending_jobs_per_server(), vec![0, 0]);
        assert_eq!(
            c.telemetry().snapshot().counters["coordinator.jobs_requeued"],
            1
        );
        // Idempotent: the job is no longer charged anywhere, so neither a
        // second sweep nor a late completion from the lapsed server
        // finds it in the ledger.
        assert!(c.take_orphaned_jobs(50_001).is_empty());
        c.job_complete(job);
        assert_eq!(c.pending_jobs_per_server(), vec![0, 0]);
        assert_eq!(
            c.telemetry().snapshot().counters["coordinator.jobs_completed"],
            0
        );
    }

    #[test]
    fn orphaned_jobs_stay_put_when_no_server_is_online() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        let (_job, _) = c.new_request("shop.com/p", 0).unwrap();
        c.expire_heartbeats(50_000);
        assert!(!c.servers()[0].online);
        assert!(
            c.take_orphaned_jobs(50_000).is_empty(),
            "nowhere to move it; the server may still recover"
        );
        assert_eq!(c.pending_jobs(0), 1);
    }

    #[test]
    fn heartbeat_expiry_is_counted() {
        let mut c = coordinator();
        c.register_server("s0", 80, 0);
        c.register_server("s1", 80, 0);
        c.heartbeat(1, 50_000);
        let _ = c.new_request("shop.com/p", 40_000);
        let snap = c.telemetry().snapshot();
        assert_eq!(snap.counters["coordinator.heartbeats_expired"], 1);
        assert!(snap
            .events
            .iter()
            .any(|e| e.name == "coordinator.heartbeat_expired"));
    }
}
