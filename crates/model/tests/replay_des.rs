//! Model schedule → DES regression replay.
//!
//! The checker's torn-store schedule (a Database crash between a WAL
//! append and its flush) is not just a trace — it is a schedule. This
//! test pushes it back through [`to_fault_plan`] and re-runs it under
//! the full discrete-event simulation: the plan skeleton pins *which*
//! node crashes, and because model virtual time and DES virtual time
//! are different clocks (the module docs call the translation a
//! skeleton for exactly this reason), the test scans a band of DES
//! crash windows around the store instant. At least one window must
//! land in the append→flush gap and tear the record off.
//!
//! The hop ack that stopped the channel's retransmit left when the
//! `StoreCheck` was *received*, so inside the gap nobody at the
//! Database end knows a store is owed. The Measurement server's job
//! deadline does: it sends the check again, the recovered Database
//! appends it a second time, and the check completes — in every window
//! the completed set and the stored set are both exactly the one job.

use std::collections::BTreeSet;

use sheriff_core::protocol::Address;
use sheriff_core::system::{PpcSpec, PriceSheriff, SheriffConfig};
use sheriff_geo::Country;
use sheriff_market::world::WorldConfig;
use sheriff_market::{ProductId, UserAgent, World};
use sheriff_model::{to_fault_plan, Event, Topology, WorldCfg, WorldKind};
use sheriff_netsim::{FaultPlan, SimTime};

/// The torn-store schedule (see `tests/model.rs`).
fn torn_store_schedule() -> Vec<Event> {
    vec![
        Event::Deliver { slot: 0 },
        Event::Deliver { slot: 1 },
        Event::Deliver { slot: 2 },
        Event::Deliver { slot: 5 },
        Event::Deliver { slot: 6 },
        Event::Deliver { slot: 7 },
        Event::FireTimer { slot: 4 },
        Event::Deliver { slot: 8 },
        Event::CrashRestart {
            node: Address::Database,
        },
        Event::FireTimer { slot: 6 },
    ]
}

fn specs(n: u64) -> Vec<PpcSpec> {
    (0..n)
        .map(|i| PpcSpec {
            peer_id: 100 + i,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: sheriff_market::pricing::Os::Linux,
                browser: sheriff_market::pricing::Browser::Firefox,
            },
            affluence: 0.2,
            logged_in_domains: vec![],
        })
        .collect()
}

/// One DES run of the small v2 deployment with `plan` installed;
/// returns `(wal_appends, completed_jobs, stored_jobs)`.
fn replay(seed: u64, plan: FaultPlan) -> (u64, BTreeSet<u64>, BTreeSet<u64>) {
    let world = World::build(&WorldConfig::small(), seed);
    let mut sheriff = PriceSheriff::new(SheriffConfig::fast(seed), world, &specs(1));
    sheriff.install_fault_plan(plan);
    sheriff.submit_check(SimTime::from_millis(0), 100, "amazon.com", ProductId(0));
    sheriff.run_until(SimTime::from_mins(3));
    let snap = sheriff.telemetry().snapshot();
    let appends = snap.counters.get("db.wal_appends").copied().unwrap_or(0);
    let completed = sheriff.completed().iter().map(|c| c.check.job_id).collect();
    let stored = sheriff.database_checks().iter().map(|c| c.job_id).collect();
    (appends, completed, stored)
}

#[test]
fn model_torn_store_schedule_recovers_under_the_des() {
    let topology = Topology {
        has_db: true,
        n_servers: 1,
        n_ipcs: 0,
        peer_ids: vec![1, 2],
    };
    let skeleton = to_fault_plan(
        WorldCfg::preset(WorldKind::Small),
        &torn_store_schedule(),
        &topology,
        17,
        40,
    );
    let windows = skeleton.crash_windows();
    assert_eq!(windows.len(), 1, "the schedule crashes exactly one node");
    let db_index = windows[0].node;
    assert_eq!(db_index, 2, "and that node is the Database");

    // Scan DES crash windows across the band where the StoreCheck lands
    // (the job deadline assembles at 2 s; seed 17 appends the record
    // around 2.6 s). The append→flush gap is a few milliseconds wide, so
    // the scan steps by 1 ms.
    let mut torn = 0u64;
    for start in 2_550..2_650 {
        let plan = FaultPlan::new(17).with_crash(db_index, start, start + 900);
        let (appends, completed, stored) = replay(17, plan);
        // Before the gap the dead node eats the delivery and the channel
        // retransmits; after it the store was already durable; inside it
        // the record is appended, torn off, and appended again when the
        // job deadline re-sends the check. The outcome is the same.
        assert_eq!(
            completed.len(),
            1,
            "crash window at {start}ms lost the check"
        );
        assert_eq!(
            completed, stored,
            "crash window at {start}ms: completed and stored diverge"
        );
        assert!((1..=2).contains(&appends), "{appends} appends at {start}ms");
        torn += appends - 1;
    }
    assert!(
        torn >= 1,
        "no scanned crash window landed between the WAL append and its flush"
    );
}
