//! The node roster: every role machine of one deployment, built once,
//! in the order both backends number their nodes.
//!
//! `[coordinator, aggregator, db?, servers…, ipcs…, ppcs…]` is the
//! canonical layout: the DES assigns `NodeId`s in it, the TCP deployment
//! binds listeners in it, and fault and Byzantine plans name nodes by
//! their position in it — which is what lets one schedule mean the same
//! thing on either backend. IP allocation order (peers first, then
//! IPCs) is part of the contract too: it decides which address every
//! vantage fetches from, and with it the observation sets the parity
//! tests compare.

// Iteration order is observable here: `clippy.toml` bans HashMap/HashSet.
#![deny(clippy::disallowed_types)]

use std::sync::Arc;

use parking_lot::Mutex;
use sheriff_geo::{GeoLocator, Granularity, IpAllocator};
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::{UserAgent, World};
use sheriff_telemetry::Registry;

use crate::coordinator::{Coordinator, PeerId};
use crate::durability::Storage;
use crate::protocol::{
    Address, AggregatorProto, Channel, CoordinatorProto, DbProto, DefenseBook, IpcProto,
    MeasurementParams, MeasurementProto, PeerProto, ReliableConfig, Role, RoleNode,
};
use crate::proxy::{IpcEngine, PpcEngine};
use crate::system::{PpcSpec, SheriffConfig, SystemVersion};
use crate::whitelist::Whitelist;

/// Builds every node of the deployment `cfg` describes over `world`,
/// publishing into `registry`. Every world domain is whitelisted (the
/// deployment's manual curation). `db_storage` backs the Database
/// server's WAL + snapshot; v1 runs no Database node and drops it
/// unused.
pub fn build_roster(
    cfg: &SheriffConfig,
    world: &Arc<Mutex<World>>,
    ppcs: &[PpcSpec],
    registry: &Arc<Registry>,
    db_storage: Box<dyn Storage>,
) -> Vec<RoleNode> {
    let (whitelist, rates) = {
        let w = world.lock();
        (
            Whitelist::with_domains(w.domains().map(str::to_string)),
            w.rates.clone(),
        )
    };
    let mut alloc = IpAllocator::new();
    let locator = GeoLocator::new(Granularity::City);
    let v1 = cfg.version == SystemVersion::V1;
    let n_servers = if v1 { 1 } else { cfg.n_measurement_servers };

    // One at-least-once channel per node (shared counter names, so the
    // registry aggregates across the deployment).
    let reliable_cfg = ReliableConfig {
        base_backoff_ms: cfg.retransmit_base_ms,
        ..ReliableConfig::default()
    };
    let mut roster = Vec::new();
    let mut push = |me: Address, role: Role| {
        roster.push(RoleNode {
            me,
            role,
            chan: Channel::new(reliable_cfg).with_telemetry(registry),
        });
    };

    let mut coordinator = Coordinator::with_telemetry(whitelist, Arc::clone(registry));
    coordinator.heartbeat_timeout_ms = cfg.heartbeat_timeout_ms;
    for i in 0..n_servers {
        coordinator.register_server(&format!("ms-{i}"), 80, 0);
    }
    let mut peers = Vec::new();
    for spec in ppcs {
        let ip = alloc.allocate(spec.country, spec.city_idx);
        let location = locator.locate(ip).expect("allocated IPs always geolocate");
        coordinator.peer_online(PeerId(spec.peer_id), ip, location.clone());
        peers.push((spec, ip, location.city));
    }
    let mut coord_proto = CoordinatorProto::new(coordinator, cfg.ppc_per_request);
    coord_proto.sweep_every_ms = cfg.coord_sweep_every_ms;
    coord_proto.defense = DefenseBook::new(cfg.defense).with_telemetry(registry);
    push(
        Address::Coordinator,
        Role::Coordinator(Box::new(coord_proto)),
    );
    push(
        Address::Aggregator,
        Role::Aggregator(AggregatorProto::new()),
    );
    if !v1 {
        push(
            Address::Database,
            Role::Database(Box::new(DbProto::with_storage(
                cfg.db_cost,
                db_storage,
                cfg.db_snapshot_every,
            ))),
        );
    }

    let ipc_addrs: Vec<Address> = (0..cfg.ipc_locations.len())
        .map(|index| Address::Ipc { index })
        .collect();
    for index in 0..n_servers {
        let mut proto = MeasurementProto::new(MeasurementParams {
            index,
            ipcs: ipc_addrs.clone(),
            rates: rates.clone(),
            target_currency: cfg.target_currency.clone(),
            proc_per_reply_ms: cfg.proc_per_reply_ms,
            context_switch_alpha: cfg.context_switch_alpha,
            job_deadline_ms: cfg.job_deadline_ms,
            db_cost: cfg.db_cost,
            integrated_db: v1,
            heartbeat_every_ms: cfg.heartbeat_every_ms,
            ipc_countries: cfg.ipc_locations.iter().map(|&(c, _)| c).collect(),
            defense: cfg.defense,
        });
        proto.defense = DefenseBook::new(cfg.defense).with_telemetry(registry);
        push(
            Address::Server { index },
            Role::Measurement(Box::new(proto)),
        );
    }

    for (index, &(country, city_idx)) in cfg.ipc_locations.iter().enumerate() {
        let ip = alloc.allocate(country, city_idx);
        let city = locator.locate(ip).and_then(|l| l.city);
        let engine = IpcEngine {
            id: index as u64,
            country,
            city_idx,
            ip,
            user_agent: UserAgent {
                os: Os::Linux,
                browser: Browser::Firefox,
            },
        };
        push(
            Address::Ipc { index },
            Role::Ipc {
                proto: Box::new(IpcProto { engine, city }),
                world: Arc::clone(world),
            },
        );
    }

    for (spec, ip, city) in peers {
        push(
            Address::Peer { id: spec.peer_id },
            Role::Peer {
                proto: Box::new(PeerProto::new(
                    PpcEngine::new(spec, ip),
                    city,
                    cfg.target_currency.clone(),
                    cfg.enable_doppelgangers,
                )),
                world: Arc::clone(world),
            },
        );
    }
    roster
}
