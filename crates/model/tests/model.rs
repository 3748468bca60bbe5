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
    explore, reproduces, to_fault_plan, Event, ModelWorld, Mutation, Topology, WorldCfg, WorldKind,
};

/// The 10-step small-world schedule that tears a store off the log: the
/// happy path to a delivered (and hop-acked) `StoreCheck`, a Database
/// crash between the WAL append and its flush, and the deferred
/// `DbDone` finding nobody to ack.
fn torn_store_schedule() -> Vec<Event> {
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
        Event::FireTimer { slot: 6 }, // deferred DbDone: nobody to ack
    ]
}

/// The torn-store schedule's first eight steps, then the `DbDone` that
/// hands the record to the flush and acks — behind the flush, unless
/// the disk lies.
fn handed_off_schedule() -> Vec<Event> {
    let mut schedule = torn_store_schedule()[..8].to_vec();
    schedule.push(Event::FireTimer { slot: 6 }); // DbDone: barrier, ack
    schedule
}

/// The 13-step giveup-world schedule that makes a `StoreCheck`
/// undeliverable: both copies are destroyed and the channel abandons
/// the send, which is what finishes the job pinned on it.
fn abandoned_store_schedule() -> Vec<Event> {
    vec![
        Event::Deliver { slot: 0 },   // CoordRequest → Coordinator
        Event::Deliver { slot: 1 },   // Reliable(PpcList) → Server
        Event::Deliver { slot: 2 },   // Reliable(CoordAssign) → initiator
        Event::Deliver { slot: 3 },   // Ack → Coordinator
        Event::Deliver { slot: 4 },   // Ack → Coordinator
        Event::Deliver { slot: 5 },   // JobSubmit → Server
        Event::FireTimer { slot: 2 }, // JobDeadline → assembly, re-armed
        Event::FireTimer { slot: 3 }, // its same-millisecond twin (no-op)
        Event::FireTimer { slot: 4 }, // ProcDone → StoreCheck out
        Event::Drop { slot: 6 },      // StoreCheck copy 1 destroyed
        Event::FireTimer { slot: 6 }, // Retransmit → resend
        Event::Drop { slot: 7 },      // StoreCheck copy 2 destroyed
        Event::FireTimer { slot: 7 }, // Retransmit → give-up
    ]
}

/// The 9-step schedule that cuts the Coordinator off from both parties
/// of a job it just admitted: `PpcList` and `CoordAssign` are destroyed
/// twice each, so nobody downstream ever hears of the job and only the
/// give-up hook can release its origin.
fn abandoned_assignment_schedule() -> Vec<Event> {
    vec![
        Event::Deliver { slot: 0 },   // CoordRequest → Coordinator
        Event::Drop { slot: 1 },      // PpcList copy 1 destroyed
        Event::Drop { slot: 2 },      // CoordAssign copy 1 destroyed
        Event::FireTimer { slot: 0 }, // Retransmit → resend PpcList
        Event::Drop { slot: 3 },      // PpcList copy 2 destroyed
        Event::FireTimer { slot: 1 }, // Retransmit → resend CoordAssign
        Event::Drop { slot: 4 },      // CoordAssign copy 2 destroyed
        Event::FireTimer { slot: 2 }, // Retransmit → give-up
        Event::FireTimer { slot: 3 }, // Retransmit → give-up
    ]
}

#[test]
fn torn_store_is_resent_by_the_requester_and_the_check_completes() {
    let mut w = ModelWorld::new(WorldCfg::preset(WorldKind::Small));
    let apply = |w: &mut ModelWorld, e: Event| {
        let findings = w.apply_event(e).expect("scheduled event applies");
        assert!(findings.is_empty(), "{}: {findings:?}", w.describe(e));
    };
    for e in torn_store_schedule() {
        apply(&mut w, e);
    }
    assert!(w.stored_jobs().is_empty(), "the crash tore the record off");
    // From here the adversary is out of moves that matter: only what an
    // undisturbed network, disk and clock do — deliveries, flushes,
    // timer firings.
    let mut steps = 0;
    while !w.protocol_quiescent() {
        let next = w
            .enabled_events()
            .into_iter()
            .find(|e| {
                matches!(
                    e,
                    Event::Deliver { .. } | Event::Flush | Event::FireTimer { .. }
                )
            })
            .expect("not quiescent, so something is deliverable, flushing or armed");
        apply(&mut w, next);
        steps += 1;
        assert!(steps < 64, "the recovery must itself quiesce");
    }
    assert_eq!(w.quiescence_findings(), [], "no job, origin or send left");
    assert!(w.stored_jobs().contains(&1), "the re-sent check is stored");
    assert!(w.acked_stores().contains(&1), "and its DbAck was delivered");
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
fn drop_db_done_arm_mutation_is_caught_when_the_store_lands() {
    // The torn-store schedule up to the StoreCheck's delivery: the
    // Database accepts the store and (mutated) arms nothing to finish it.
    let schedule = &torn_store_schedule()[..8];
    let small = WorldCfg::preset(WorldKind::Small);
    assert!(reproduces(
        small.with_mutation(Mutation::DropDbDoneArm),
        schedule,
        "timer.obligation_leak",
        false
    ));
    assert!(!reproduces(small, schedule, "timer.obligation_leak", false));
}

#[test]
fn ack_at_hand_off_mutation_is_caught_with_a_replayable_trace() {
    // The trace `sheriff-model --world small --depth 10 --mutate
    // ack-at-hand-off` reports: the DbAck leaves with the DbDone and
    // reaches the Measurement server while its record is only handed off.
    let mut schedule = handed_off_schedule();
    schedule.push(Event::Deliver { slot: 10 }); // Reliable(DbAck) → Server
    let small = WorldCfg::preset(WorldKind::Small);
    let rule = "durability.acked_store_lost";
    assert!(reproduces(
        small.with_mutation(Mutation::AckAtHandOff),
        &schedule,
        rule,
        false
    ));
    // Honest, the ack waits for the flush: there is no slot 10 to deliver
    // until the flush lands, and once it has, the delivery is clean.
    assert!(!reproduces(small, &schedule, rule, false));
    let mut flushed = handed_off_schedule();
    flushed.extend([Event::Flush, Event::Deliver { slot: 10 }]);
    let mut w = ModelWorld::new(small);
    for e in flushed {
        let findings = w.apply_event(e).expect("scheduled event applies");
        assert!(findings.is_empty(), "{findings:?}");
    }
    assert!(w.acked_stores().contains(&1));
}

#[test]
fn crash_with_the_flush_pending_lands_it_and_drops_the_held_ack() {
    let mut w = ModelWorld::new(WorldCfg::preset(WorldKind::Small));
    let apply = |w: &mut ModelWorld, e: Event| {
        let findings = w.apply_event(e).expect("scheduled event applies");
        assert!(findings.is_empty(), "{}: {findings:?}", w.describe(e));
    };
    for e in handed_off_schedule() {
        apply(&mut w, e);
    }
    assert!(w.enabled_events().contains(&Event::Flush));
    assert!(!w.protocol_quiescent(), "a pending flush is activity");
    assert_eq!(w.in_flight.len(), 10, "the ack is held, not sent");
    apply(
        &mut w,
        Event::CrashRestart {
            node: Address::Database,
        },
    );
    assert!(
        !w.enabled_events().contains(&Event::Flush),
        "recovery waited for the flush"
    );
    assert!(w.stored_jobs().contains(&1), "so the record survived");
    assert_eq!(w.in_flight.len(), 10, "and the held ack died unsent");
    // The requester's deadline re-sends; the recovered Database re-acks.
    let mut steps = 0;
    while !w.protocol_quiescent() {
        let next = w
            .enabled_events()
            .into_iter()
            .find(|e| {
                matches!(
                    e,
                    Event::Deliver { .. } | Event::Flush | Event::FireTimer { .. }
                )
            })
            .expect("not quiescent, so something is deliverable, flushing or armed");
        apply(&mut w, next);
        steps += 1;
        assert!(steps < 64, "the recovery must itself quiesce");
    }
    assert_eq!(w.quiescence_findings(), [], "no job, origin or send left");
    assert!(w.acked_stores().contains(&1), "the re-sent store was acked");
}

#[test]
fn ignore_abandoned_mutation_leaks_state_at_quiescence() {
    // Four drops: the preset's two cannot silence both messages. (On the
    // Measurement side the mutation no longer leaks within any finite
    // drop budget: the job deadline keeps re-sending the `StoreCheck`,
    // so discarding the give-up there costs liveness against a Database
    // that is gone for good, not state.)
    let cut_off = WorldCfg {
        drop_budget: 4,
        ..WorldCfg::preset(WorldKind::Giveup)
    };
    let schedule = abandoned_assignment_schedule();
    assert!(
        reproduces(
            cut_off.with_mutation(Mutation::IgnoreAbandoned),
            &schedule,
            "quiesce.leaked_state",
            true
        ),
        "discarding the abandoned assignment must leak the job's origin"
    );
    // Un-mutated, the same schedule quiesces clean, and so does the
    // undeliverable `StoreCheck` (whose release hook emits the
    // JobComplete/Results pair, so that state is not even quiescent yet).
    assert!(!reproduces(
        cut_off,
        &schedule,
        "quiesce.leaked_state",
        true
    ));
    assert!(!reproduces(
        WorldCfg::preset(WorldKind::Giveup),
        &abandoned_store_schedule(),
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
    let plan = to_fault_plan(cfg, &torn_store_schedule(), &topology, 7, 40);
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
