//! Integration tests for the bounded model checker.
//!
//! Exploration *discovery* runs here stay shallow — these tests run in
//! the debug profile, where a transition costs ~10× its release price;
//! the deep CI-pinned sweeps (`WorldKind::ci_depth`) run in `ci.sh`'s
//! `model` stage against the release binary. Deeper behaviors are
//! validated by replaying their known minimized schedules through
//! [`reproduces`], which costs one world replay instead of a search.

use std::sync::Arc;

use parking_lot::Mutex;
use sheriff_core::durability::MemStorage;
use sheriff_core::protocol::Address;
use sheriff_core::roster::build_roster;
use sheriff_core::system::{PpcSpec, SheriffConfig, SystemVersion};
use sheriff_geo::Country;
use sheriff_market::pricing::{Browser, Os};
use sheriff_market::world::WorldConfig;
use sheriff_market::{UserAgent, World};
use sheriff_model::{
    explore, is_waived, reproduces, to_fault_plan, Event, Mutation, Topology, WorldCfg, WorldKind,
    WAIVERS,
};

/// The minimized 10-step small-world schedule of the accepted §WAL
/// ack-loss window, exactly as the explorer reports it: the happy path
/// to a delivered `StoreCheck`, a Database crash in the store window,
/// and the deferred `DbDone` discovering the torn record.
fn ack_loss_schedule() -> Vec<Event> {
    vec![
        Event::Deliver { slot: 0 },   // CoordRequest → Coordinator
        Event::Deliver { slot: 1 },   // Reliable(PpcList) → Server
        Event::Deliver { slot: 2 },   // Reliable(CoordAssign) → initiator
        Event::Deliver { slot: 5 },   // JobSubmit → Server
        Event::Deliver { slot: 6 },   // FetchOrder → vantage
        Event::Deliver { slot: 7 },   // FetchReply → Server
        Event::FireTimer { slot: 4 }, // ProcDone
        Event::Deliver { slot: 8 },   // Reliable(StoreCheck) → Database
        Event::CrashRestart {
            node: Address::Database,
        },
        Event::FireTimer { slot: 6 }, // deferred DbDone meets the tear
    ]
}

/// The minimized 13-step giveup-world schedule that leaks state when
/// the `IgnoreAbandoned` mutation discards the give-up payload: both
/// copies of the `StoreCheck` are destroyed, the channel abandons the
/// send, and nobody releases the job pinned on it.
fn abandoned_store_schedule() -> Vec<Event> {
    vec![
        Event::Deliver { slot: 0 },   // CoordRequest → Coordinator
        Event::Deliver { slot: 1 },   // Reliable(PpcList) → Server
        Event::Deliver { slot: 2 },   // Reliable(CoordAssign) → initiator
        Event::Deliver { slot: 3 },   // Ack → Coordinator
        Event::Deliver { slot: 4 },   // Ack → Coordinator
        Event::Deliver { slot: 5 },   // JobSubmit → Server
        Event::FireTimer { slot: 2 }, // creation JobDeadline (no-op)
        Event::FireTimer { slot: 3 }, // fan-out JobDeadline → assembly
        Event::FireTimer { slot: 4 }, // ProcDone → StoreCheck out
        Event::Drop { slot: 6 },      // StoreCheck copy 1 destroyed
        Event::FireTimer { slot: 5 }, // Retransmit → resend
        Event::Drop { slot: 7 },      // StoreCheck copy 2 destroyed
        Event::FireTimer { slot: 6 }, // Retransmit → give-up
    ]
}

#[test]
fn waiver_table_is_exactly_the_small_world_ack_loss_window() {
    assert_eq!(WAIVERS, &[(WorldKind::Small, "db.ack_loss_window")]);
    assert!(is_waived(WorldKind::Small, "db.ack_loss_window"));
    assert!(!is_waived(WorldKind::Giveup, "db.ack_loss_window"));
    assert!(!is_waived(WorldKind::Small, "durability.acked_store_lost"));
}

#[test]
fn ack_loss_schedule_reproduces_and_is_minimal() {
    let cfg = WorldCfg::preset(WorldKind::Small);
    let schedule = ack_loss_schedule();
    assert!(
        reproduces(cfg, &schedule, "db.ack_loss_window", false),
        "the canonical ack-loss schedule must reproduce its finding"
    );
    // 1-minimality: removing any single event kills the reproduction.
    for skip in 0..schedule.len() {
        let mut shorter = schedule.clone();
        shorter.remove(skip);
        assert!(
            !reproduces(cfg, &shorter, "db.ack_loss_window", false),
            "schedule without step {skip} should not reproduce"
        );
    }
}

#[test]
fn shallow_exploration_of_every_world_is_clean() {
    for kind in [WorldKind::Small, WorldKind::Giveup, WorldKind::Byzantine] {
        let outcome = explore(WorldCfg::preset(kind), 6);
        assert!(
            outcome.ok(),
            "world {} found {:?}",
            kind.name(),
            outcome.violations
        );
        assert!(outcome.stats.states > 1);
        assert!(outcome.stats.transitions >= outcome.stats.states);
    }
}

#[test]
fn drop_retransmit_arm_mutation_is_discovered_with_replayable_trace() {
    let cfg = WorldCfg::preset(WorldKind::Small).with_mutation(Mutation::DropRetransmitArm);
    let outcome = explore(cfg, 7);
    assert!(!outcome.ok(), "suppressed Retransmit arms must be caught");
    let v = &outcome.violations[0];
    assert_eq!(v.rule, "timer.obligation_leak");
    // The reported counterexample replays: same world, same schedule,
    // same finding.
    let schedule: Vec<Event> = v.trace.iter().map(|s| s.event).collect();
    assert!(reproduces(cfg, &schedule, &v.rule, v.at_quiescence));
    // And the baseline world does not exhibit it on that schedule.
    assert!(!reproduces(
        WorldCfg::preset(WorldKind::Small),
        &schedule,
        &v.rule,
        v.at_quiescence
    ));
}

#[test]
fn ignore_abandoned_mutation_leaks_state_at_quiescence() {
    let mutated = WorldCfg::preset(WorldKind::Giveup).with_mutation(Mutation::IgnoreAbandoned);
    let schedule = abandoned_store_schedule();
    assert!(
        reproduces(mutated, &schedule, "quiesce.leaked_state", true),
        "discarding the abandoned StoreCheck must leak pinned state"
    );
    // The un-mutated giveup world releases everything on give-up: the
    // same schedule quiesces clean (the release hook emits the
    // JobComplete/Results pair, so the state is not even quiescent yet).
    assert!(!reproduces(
        WorldCfg::preset(WorldKind::Giveup),
        &schedule,
        "quiesce.leaked_state",
        true
    ));
}

#[test]
fn counterexample_translates_to_a_scripted_fault_plan() {
    let cfg = WorldCfg::preset(WorldKind::Small);
    let topology = Topology {
        has_db: true,
        n_servers: 1,
        n_ipcs: 0,
        peer_ids: vec![1, 2],
    };
    let plan = to_fault_plan(cfg, &ack_loss_schedule(), &topology, 7, 40);
    assert!(plan.is_active(), "a crash schedule must produce a plan");
    assert_eq!(plan.crash_windows().len(), 1);
    assert_eq!(
        plan.crash_windows()[0].node,
        2,
        "Database maps to fault index 2"
    );

    // A giveup counterexample scripts per-link drops: the Server →
    // Database link is index 3 → 2, and both StoreCheck copies are the
    // link's first two sends.
    let giveup = WorldCfg::preset(WorldKind::Giveup).with_mutation(Mutation::IgnoreAbandoned);
    let mut drop_plan = to_fault_plan(giveup, &abandoned_store_schedule(), &topology, 7, 40);
    assert!(
        drop_plan.decide(0, 3, 2).drop,
        "first StoreCheck copy scripted to drop"
    );
    assert!(
        drop_plan.decide(0, 3, 2).drop,
        "second StoreCheck copy scripted to drop"
    );
    assert!(
        !drop_plan.decide(0, 3, 2).drop,
        "later sends on the link are untouched"
    );
}

#[test]
fn topology_formula_matches_the_roster_builder() {
    // `Topology::fault_index` is a formula; the numbering a fault plan
    // is phrased against is the order `build_roster` returns. Pin one to
    // the other for the deployment `replay_des.rs` replays onto, and for
    // its v1 twin (no Database node, so everything after shifts down).
    let peers: Vec<PpcSpec> = [100, 101]
        .into_iter()
        .map(|peer_id| PpcSpec {
            peer_id,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Linux,
                browser: Browser::Firefox,
            },
            affluence: 0.2,
            logged_in_domains: vec![],
        })
        .collect();
    for cfg in [SheriffConfig::fast(17), SheriffConfig::v1(17)] {
        let world = Arc::new(Mutex::new(World::build(&WorldConfig::small(), 17)));
        let roster = build_roster(
            &cfg,
            &world,
            &peers,
            &Arc::new(sheriff_telemetry::Registry::new()),
            Box::new(MemStorage::new()),
        );
        let topology = Topology {
            has_db: cfg.version == SystemVersion::V2,
            n_servers: cfg.n_measurement_servers,
            n_ipcs: cfg.ipc_locations.len(),
            peer_ids: peers.iter().map(|p| p.peer_id).collect(),
        };
        for (position, node) in roster.iter().enumerate() {
            assert_eq!(
                topology.fault_index(node.me),
                Some(position),
                "{:?} under {:?}",
                node.me,
                cfg.version
            );
        }
    }
}
