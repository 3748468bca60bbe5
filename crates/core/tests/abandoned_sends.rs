//! Reliable-channel give-ups must release the bookkeeping pinned on the
//! abandoned send — regressions for the two leaks `sheriff-model`'s
//! quiescence invariant flagged in the live tree:
//!
//! * the **Coordinator** pinned a job origin (and the server's
//!   pending-job charge) forever when the `PpcList`/`CoordAssign` for an
//!   admitted job could never be delivered;
//! * a **Measurement server** pinned a job entry forever when its
//!   `StoreCheck` could never reach the Database server (the `DbAck`
//!   that finishes the job can then never arrive).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sheriff_core::coordinator::{Coordinator, JobId, PeerId};
use sheriff_core::db::DbCostModel;
use sheriff_core::protocol::{
    Address, CoordinatorProto, DefenseParams, MeasurementParams, MeasurementProto, Output, ProtoMsg,
};
use sheriff_core::records::{PriceCheck, PriceObservation, VantageKind};
use sheriff_core::whitelist::Whitelist;
use sheriff_currency::FixedRates;
use sheriff_geo::{Country, IpV4};

fn coordinator_proto() -> CoordinatorProto {
    let mut coordinator = Coordinator::new(Whitelist::with_domains(["amazon.com"]));
    coordinator.register_server("ms-0", 80, 0);
    CoordinatorProto::new(coordinator, 0)
}

#[test]
fn coordinator_releases_origin_when_assignment_is_abandoned() {
    let mut proto = coordinator_proto();
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::new();
    proto.on_message(
        0,
        Address::Peer { id: 1 },
        ProtoMsg::CoordRequest {
            url: "https://amazon.com/product/1".into(),
            peer: PeerId(1),
            local_tag: 42,
        },
        &mut rng,
        &mut out,
    );
    let assigned = out.iter().find_map(|o| match o {
        Output::Send {
            msg: ProtoMsg::CoordAssign { job, .. },
            ..
        } => Some(*job),
        _ => None,
    });
    let job = assigned.expect("whitelisted request with an online server is admitted");
    assert_eq!(proto.open_origins(), 1);
    assert_eq!(proto.coordinator.pending_jobs(0), 1);

    // The reliable channel exhausted its retransmit budget for the
    // PpcList: the job can never be worked, so the origin and the
    // server's charge are both released.
    proto.on_send_abandoned(&ProtoMsg::PpcList {
        job,
        ppcs: Vec::new(),
    });
    assert_eq!(
        proto.open_origins(),
        0,
        "abandoned assignment must not leak"
    );
    assert_eq!(proto.coordinator.pending_jobs(0), 0);

    // Irrelevant payloads release nothing (and a second release is a
    // no-op — `job_complete` is idempotent).
    proto.on_send_abandoned(&ProtoMsg::JobComplete { job });
    proto.on_send_abandoned(&ProtoMsg::CoordAssign {
        job,
        server: Address::Server { index: 0 },
        local_tag: 42,
    });
    assert_eq!(proto.open_origins(), 0);
}

fn measurement_proto() -> MeasurementProto {
    MeasurementProto::new(MeasurementParams {
        index: 0,
        ipcs: vec![],
        rates: FixedRates::paper_era(),
        target_currency: "EUR".into(),
        proc_per_reply_ms: 1.0,
        context_switch_alpha: 0.0,
        job_deadline_ms: 2_000,
        db_cost: DbCostModel::dedicated(),
        integrated_db: false,
        heartbeat_every_ms: 60_000,
        ipc_countries: vec![],
        defense: DefenseParams::default(),
    })
}

#[test]
fn measurement_finishes_job_when_store_check_is_abandoned() {
    let mut proto = measurement_proto();
    let (mut out, mut events) = (Vec::new(), Vec::new());
    // Half-open the job (the submit half is irrelevant here: any table
    // entry pins the DbAck wait once its StoreCheck is in flight).
    proto.on_message(
        0,
        Address::Coordinator,
        ProtoMsg::PpcList {
            job: JobId(1),
            ppcs: vec![],
        },
        &mut out,
        &mut events,
    );
    assert_eq!(proto.open_jobs().count(), 1);

    let check = PriceCheck {
        job_id: 1,
        domain: "amazon.com".into(),
        url: "amazon.com/product/1".into(),
        day: 0,
        observations: vec![PriceObservation {
            vantage: VantageKind::Initiator,
            vantage_id: 9,
            country: Country::ES,
            city: None,
            ip: IpV4(0x0A00_0001),
            raw_text: "EUR 10.00".into(),
            currency: "EUR".into(),
            amount: 10.0,
            amount_eur: 10.0,
            low_confidence: false,
            failed: false,
        }],
    };
    let (mut out, mut events) = (Vec::new(), Vec::new());
    proto.on_send_abandoned(
        5_000,
        &ProtoMsg::StoreCheck {
            job: JobId(1),
            check: Box::new(check),
        },
        &mut out,
        &mut events,
    );
    assert_eq!(
        proto.open_jobs().count(),
        0,
        "abandoned StoreCheck must not leak"
    );
    assert!(
        out.iter().any(|o| matches!(
            o,
            Output::Send {
                msg: ProtoMsg::JobComplete { job },
                ..
            } if job.0 == 1
        )),
        "the job is still released upstream"
    );

    // A give-up for a job already finished (late duplicate) is a no-op.
    let (mut out2, mut events2) = (Vec::new(), Vec::new());
    proto.on_send_abandoned(
        6_000,
        &ProtoMsg::JobComplete { job: JobId(1) },
        &mut out2,
        &mut events2,
    );
    assert_eq!(proto.open_jobs().count(), 0);
    assert!(out2.is_empty());
}
