//! Quarantine lifecycle at the Measurement-server machine level: a peer
//! floods past its reply quota, crosses the score threshold, serves
//! quarantine (everything dropped), moves to parole on the quarantine
//! timer, is re-admitted for fresh work while on parole, and is fully
//! reinstated — score forgiven — on the parole timer. Along the way its
//! observations are counted exactly once per job.

use sheriff_core::coordinator::JobId;
use sheriff_core::db::DbCostModel;
use sheriff_core::measurement::VantageMeta;
use sheriff_core::protocol::{
    Address, DefenseParams, MeasEvent, MeasurementParams, MeasurementProto, Output, ProtoMsg,
    Standing, TimerKind,
};
use sheriff_core::records::{PriceObservation, VantageKind};
use sheriff_currency::FixedRates;
use sheriff_geo::{Country, IpV4};
use sheriff_html::tagspath::TagsPath;
use sheriff_market::ProductId;

const PEER: u64 = 7;
const OTHER: u64 = 8;
const INITIATOR: u64 = 9;

/// A machine with a one-reply-per-job quota and a two-point threshold,
/// so two flood copies walk the peer straight into quarantine.
fn proto() -> MeasurementProto {
    MeasurementProto::new(MeasurementParams {
        index: 0,
        ipcs: vec![],
        rates: FixedRates::paper_era(),
        proc_per_reply_ms: 1.0,
        context_switch_alpha: 0.0,
        job_deadline_ms: 2_000,
        db_cost: DbCostModel::integrated(),
        integrated_db: true,
        heartbeat_every_ms: 60_000,
        ipc_countries: vec![],
        defense: DefenseParams {
            quarantine_threshold: 2,
            replies_per_job: 1,
            ..DefenseParams::default()
        },
    })
}

fn initiator_obs() -> PriceObservation {
    PriceObservation {
        vantage: VantageKind::Initiator,
        vantage_id: INITIATOR,
        country: Country::ES,
        city: None,
        ip: IpV4(0x0A00_0001),
        raw_text: "EUR 10.00".into(),
        currency: "EUR".into(),
        amount: 10.0,
        amount_eur: 10.0,
        low_confidence: false,
        failed: false,
    }
}

fn meta(peer: u64) -> VantageMeta {
    VantageMeta {
        kind: VantageKind::Ppc,
        id: peer,
        country: Country::ES,
        city: None,
        ip: IpV4(0x0A00_0002),
    }
}

/// Opens job `job` with PPCs 7 and 8: both protocol halves delivered,
/// fan-out done. The blank Tags Path makes every reply extract as a
/// failed fetch, which the plausibility gate must wave through.
fn open_job(p: &mut MeasurementProto, job: u64, now: u64) {
    let (mut out, mut events) = (Vec::new(), Vec::new());
    p.on_message(
        now,
        Address::Coordinator,
        ProtoMsg::PpcList {
            job: JobId(job),
            ppcs: vec![Address::Peer { id: PEER }, Address::Peer { id: OTHER }],
        },
        &mut out,
        &mut events,
    );
    p.on_message(
        now,
        Address::Peer { id: INITIATOR },
        ProtoMsg::JobSubmit {
            job: JobId(job),
            domain: "shop.example".into(),
            product: ProductId(1),
            tags_path: TagsPath { steps: vec![] },
            initiator_html: "<html></html>".into(),
            initiator_obs: Box::new(initiator_obs()),
        },
        &mut out,
        &mut events,
    );
}

fn reply(p: &mut MeasurementProto, job: u64, peer: u64, now: u64) -> (Vec<Output>, Vec<MeasEvent>) {
    let (mut out, mut events) = (Vec::new(), Vec::new());
    p.on_message(
        now,
        Address::Peer { id: peer },
        ProtoMsg::FetchReply {
            job: JobId(job),
            meta: meta(peer),
            html: "<html><span>10.00</span></html>".into(),
        },
        &mut out,
        &mut events,
    );
    (out, events)
}

#[test]
fn quota_trip_quarantine_parole_readmission_cycle() {
    let mut p = proto();
    open_job(&mut p, 1, 0);

    // Honest first reply: spends the job's one token and is admitted.
    reply(&mut p, 1, PEER, 10);
    assert_eq!(p.defense.admitted_by(PEER), 1);
    assert_eq!(p.defense.standing(PEER), Standing::Good);

    // Flood copy 1: the bucket is empty — quota trip, score 1.
    let (out, _) = reply(&mut p, 1, PEER, 20);
    assert!(out.is_empty(), "a quota trip below threshold stays local");
    assert_eq!(p.defense.score(PEER), 1);
    assert_eq!(p.defense.standing(PEER), Standing::Probation);

    // Flood copy 2: score 2 crosses the threshold — quarantine, with a
    // timer armed and the misbehavior reported upstream.
    let (out, _) = reply(&mut p, 1, PEER, 30);
    assert_eq!(p.defense.standing(PEER), Standing::Quarantined);
    assert_eq!(p.defense.totals.quarantines, 1);
    assert!(
        out.iter().any(|o| matches!(
            o,
            Output::Timer {
                kind: TimerKind::Quarantine(PEER),
                ..
            }
        )),
        "no quarantine timer armed: {out:?}"
    );
    assert!(
        out.iter().any(|o| matches!(
            o,
            Output::Send {
                to: Address::Coordinator,
                msg: ProtoMsg::MisbehaviorReport {
                    peer: PEER,
                    score: 2
                },
            }
        )),
        "no misbehavior report sent: {out:?}"
    );

    // While quarantined, everything from the peer is dropped before any
    // bookkeeping — not even a late/duplicate event.
    let (out, events) = reply(&mut p, 1, PEER, 40);
    assert!(out.is_empty() && events.is_empty());
    assert_eq!(p.defense.totals.quarantine_drops, 1);
    assert_eq!(
        p.defense.admitted_by(PEER),
        1,
        "no admissions in quarantine"
    );

    // The quarantine timer fires: parole, with the parole timer armed.
    let (mut out, mut events) = (Vec::new(), Vec::new());
    p.on_timer(30_030, TimerKind::Quarantine(PEER), &mut out, &mut events);
    assert_eq!(p.defense.standing(PEER), Standing::Parole);
    assert!(
        out.iter().any(|o| matches!(
            o,
            Output::Timer {
                kind: TimerKind::Parole(PEER),
                ..
            }
        )),
        "no parole timer armed: {out:?}"
    );

    // Fresh job while on parole: the peer is re-admitted, once.
    open_job(&mut p, 2, 31_000);
    let (_, events) = reply(&mut p, 2, PEER, 31_010);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, MeasEvent::ReplyAccepted { .. })),
        "parole reply not re-admitted: {events:?}"
    );
    assert_eq!(p.defense.admitted_by(PEER), 2);

    // The parole timer fires clean: full reinstatement, score forgiven.
    let (mut out, mut events) = (Vec::new(), Vec::new());
    p.on_timer(45_030, TimerKind::Parole(PEER), &mut out, &mut events);
    assert_eq!(p.defense.standing(PEER), Standing::Good);
    assert_eq!(p.defense.score(PEER), 0);
    assert_eq!(p.defense.totals.paroles, 1);

    // Finish job 2 and check the assembled result counts the paroled
    // peer's observation exactly once.
    let (mut out, mut events) = (Vec::new(), Vec::new());
    p.on_message(
        45_100,
        Address::Peer { id: OTHER },
        ProtoMsg::FetchReply {
            job: JobId(2),
            meta: meta(OTHER),
            html: "<html><span>10.00</span></html>".into(),
        },
        &mut out,
        &mut events,
    );
    let proc_done = out.iter().find_map(|o| match o {
        Output::Timer {
            kind: TimerKind::ProcDone(job),
            ..
        } => Some(*job),
        _ => None,
    });
    let job = proc_done.expect("both replies in: assembly scheduled");
    let (mut out, mut events) = (Vec::new(), Vec::new());
    p.on_timer(45_200, TimerKind::ProcDone(job), &mut out, &mut events);
    let check = out
        .iter()
        .find_map(|o| match o {
            Output::Send {
                msg: ProtoMsg::Results { check, .. },
                ..
            } => Some(check.as_ref().clone()),
            _ => None,
        })
        .expect("results streamed to the initiator");
    let from_peer = check
        .observations
        .iter()
        .filter(|o| o.vantage == VantageKind::Ppc && o.vantage_id == PEER)
        .count();
    assert_eq!(from_peer, 1, "paroled peer counted exactly once: {check:?}");
    assert_eq!(check.observations.len(), 3, "initiator + two PPC vantages");
}

/// A transport-duplicated reply from an honest peer is absorbed by the
/// vantage dedup *without* scoring once the quota allows it — dedup and
/// punishment are separate layers.
#[test]
fn honest_duplicate_within_quota_never_scores() {
    let mut p = proto();
    p.defense.set_params(DefenseParams {
        quarantine_threshold: 2,
        replies_per_job: 3,
        ..DefenseParams::default()
    });
    open_job(&mut p, 1, 0);
    reply(&mut p, 1, PEER, 10);
    let (_, events) = reply(&mut p, 1, PEER, 20);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, MeasEvent::ReplyDuplicate)),
        "duplicate not absorbed: {events:?}"
    );
    assert_eq!(p.defense.score(PEER), 0, "dedup must not score");
    assert_eq!(p.defense.admitted_by(PEER), 1);
}
