//! The wire bytes, pinned: `golden/envelopes.jsonl` holds one compact
//! JSON envelope per line, as the encoder wrote them before the codec
//! stopped building a `Value` tree. Every line must decode and re-encode
//! to the same bytes, and every case below must encode to its line — so
//! a codec change that moves a single byte of any frame fails here.
//!
//! The cases cover every [`ProtoMsg`] variant (the reliable envelope
//! around the two big ones included), every [`Address`] role, strings
//! that need each kind of escape and numbers at the edges of their types.

use std::collections::BTreeSet;

use sheriff_core::coordinator::{JobId, PeerId};
use sheriff_core::doppelganger::DoppelgangerId;
use sheriff_core::measurement::VantageMeta;
use sheriff_core::protocol::{Address, ProtoMsg};
use sheriff_core::records::{PriceCheck, PriceObservation, VantageKind};
use sheriff_geo::{Country, IpV4};
use sheriff_html::tagspath::{PathStep, TagsPath};
use sheriff_market::{Cookie, CookieJar, ProductId};
use sheriff_wire::Envelope;

const GOLDEN: &str = include_str!("golden/envelopes.jsonl");

/// Quote, backslash, every short escape, control bytes with no short
/// escape, DEL, U+2028, Latin-1, CJK and an astral character.
const NASTY: &str = "q\"uote b\\ack \u{0}\u{1}\u{1f} \n\r\t\u{8}\u{c} \u{7f} \
                     line\u{2028}sep café ü 中文 😀 /slash";

fn token(fill: u8) -> DoppelgangerId {
    let mut id = [fill; 32];
    id[0] = 0;
    id[31] = 0xff;
    DoppelgangerId(id)
}

fn observation(vantage: VantageKind, amount: f64, amount_eur: f64) -> PriceObservation {
    PriceObservation {
        vantage,
        vantage_id: u64::MAX,
        country: Country::ES,
        city: Some(NASTY.to_string()),
        ip: IpV4(u32::MAX),
        raw_text: "€ 1.234,56".to_string(),
        currency: "EUR".to_string(),
        amount,
        amount_eur,
        low_confidence: true,
        failed: false,
    }
}

fn check(observations: Vec<PriceObservation>) -> Box<PriceCheck> {
    Box::new(PriceCheck {
        job_id: 0,
        domain: "amazon.com".to_string(),
        url: format!("amazon.com/product/{NASTY}"),
        day: u32::MAX,
        observations,
    })
}

fn edge_check() -> Box<PriceCheck> {
    check(vec![
        observation(VantageKind::Initiator, 0.1, 290.0),
        observation(VantageKind::Ipc, 1e300, 5e-324),
        observation(VantageKind::Ppc, -0.0, 0.0),
    ])
}

fn job_submit() -> ProtoMsg {
    ProtoMsg::JobSubmit {
        job: JobId(42),
        domain: "shop.example".to_string(),
        product: ProductId(u32::MAX),
        tags_path: TagsPath {
            steps: vec![
                PathStep {
                    name: "div".to_string(),
                    class: Some("price big".to_string()),
                    id_attr: None,
                    nth_of_name: 0,
                },
                PathStep {
                    name: "span".to_string(),
                    class: None,
                    id_attr: Some(NASTY.to_string()),
                    nth_of_name: usize::MAX,
                },
            ],
        },
        initiator_html: format!("<html><body><p class=\"x\">{NASTY}</p></body></html>"),
        initiator_obs: Box::new(observation(VantageKind::Initiator, 18.59, 16.731)),
    }
}

fn jar() -> CookieJar {
    let mut jar = CookieJar::new();
    for (domain, name, third_party) in [
        ("shop.example", "sid", false),
        ("shop.example", "cart", true),
        ("tracker.example", "uid", true),
    ] {
        jar.set(
            domain,
            Cookie {
                name: name.to_string(),
                value: format!("{name}={NASTY}"),
                third_party,
            },
        );
    }
    jar
}

fn meta() -> VantageMeta {
    VantageMeta {
        kind: VantageKind::Ppc,
        id: 0,
        country: Country::US,
        city: None,
        ip: IpV4(0),
    }
}

/// Every case, in file order.
fn cases() -> Vec<Envelope> {
    let msgs = vec![
        ProtoMsg::StartCheck {
            domain: NASTY.to_string(),
            product: ProductId(0),
            local_tag: u64::MAX,
        },
        ProtoMsg::CoordRequest {
            url: "https://amazon.com/product/0?q=a&b=\"c\"".to_string(),
            peer: PeerId(u64::MAX),
            local_tag: 0,
        },
        ProtoMsg::CoordAssign {
            job: JobId(u64::MAX),
            server: Address::Server { index: 0 },
            local_tag: 7,
        },
        ProtoMsg::CoordReject {
            local_tag: 1,
            reason: NASTY.to_string(),
        },
        ProtoMsg::PpcList {
            job: JobId(0),
            ppcs: vec![],
        },
        ProtoMsg::PpcList {
            job: JobId(9),
            ppcs: vec![
                Address::Coordinator,
                Address::Aggregator,
                Address::Database,
                Address::Server { index: 1 },
                Address::Ipc { index: 29 },
                Address::Peer { id: u64::MAX },
            ],
        },
        job_submit(),
        ProtoMsg::FetchOrder {
            job: JobId(3),
            domain: "shop.example".to_string(),
            product: ProductId(4),
            seq: u64::MAX,
        },
        ProtoMsg::FetchReply {
            job: JobId(3),
            meta: meta(),
            html: format!("<html>\n\t<body data-x='{NASTY}'>\u{0}</body>\n</html>"),
        },
        ProtoMsg::FetchReply {
            job: JobId(3),
            meta: VantageMeta {
                city: Some("Zürich".to_string()),
                ..meta()
            },
            html: String::new(),
        },
        ProtoMsg::DoppIdRequest {
            job: JobId(5),
            peer: u64::MAX,
        },
        ProtoMsg::DoppIdReply {
            job: JobId(5),
            token: None,
        },
        ProtoMsg::DoppIdReply {
            job: JobId(5),
            token: Some(token(0xab)),
        },
        ProtoMsg::DoppStateRequest {
            job: JobId(6),
            token: token(0x01),
            domain: "shop.example".to_string(),
        },
        ProtoMsg::DoppStateReply {
            job: JobId(6),
            state: None,
        },
        ProtoMsg::DoppStateReply {
            job: JobId(6),
            state: Some(CookieJar::new()),
        },
        ProtoMsg::DoppStateReply {
            job: JobId(6),
            state: Some(jar()),
        },
        ProtoMsg::TokenRotated {
            old: token(0x10),
            new: token(0xfe),
        },
        ProtoMsg::StoreCheck {
            job: JobId(7),
            check: check(vec![]),
        },
        ProtoMsg::StoreCheck {
            job: JobId(7),
            check: edge_check(),
        },
        ProtoMsg::DbAck { job: JobId(7) },
        ProtoMsg::JobComplete { job: JobId(7) },
        ProtoMsg::Results {
            job: JobId(7),
            check: edge_check(),
        },
        ProtoMsg::Heartbeat { server_index: 0 },
        ProtoMsg::RemoveServer { index: usize::MAX },
        ProtoMsg::ServerRemoved {
            index: 2,
            removed: true,
        },
        ProtoMsg::ServerRemoved {
            index: 2,
            removed: false,
        },
        ProtoMsg::MisbehaviorReport {
            peer: 103,
            score: u32::MAX,
        },
        ProtoMsg::QuarantineNotice { peer: 0 },
        ProtoMsg::Reliable {
            seq: 0,
            inner: Box::new(ProtoMsg::StoreCheck {
                job: JobId(8),
                check: edge_check(),
            }),
        },
        ProtoMsg::Reliable {
            seq: u64::MAX,
            inner: Box::new(job_submit()),
        },
        ProtoMsg::Reliable {
            seq: 1,
            inner: Box::new(ProtoMsg::Reliable {
                seq: 2,
                inner: Box::new(ProtoMsg::Ack { seq: 0 }),
            }),
        },
        ProtoMsg::Ack { seq: 0 },
        ProtoMsg::Ack { seq: u64::MAX },
    ];
    let senders = [
        Address::Coordinator,
        Address::Aggregator,
        Address::Database,
        Address::Server { index: 0 },
        Address::Ipc { index: 3 },
        Address::Peer { id: 7 },
    ];
    msgs.into_iter()
        .zip(senders.iter().cycle())
        .map(|(msg, &from)| Envelope { from, msg })
        .collect()
}

#[test]
fn every_case_encodes_to_its_golden_line() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    let cases = cases();
    assert_eq!(lines.len(), cases.len(), "one line per case");
    for (i, (env, line)) in cases.iter().zip(&lines).enumerate() {
        let got = serde_json::to_string(env).expect("encodes");
        assert_eq!(got, *line, "case {i}");
        let back: Envelope = serde_json::from_str(line).expect("decodes");
        assert_eq!(&back, env, "case {i}");
    }
}

#[test]
fn every_golden_line_decodes_and_reencodes_to_the_same_bytes() {
    for (i, line) in GOLDEN.lines().enumerate() {
        let env: Envelope = serde_json::from_slice(line.as_bytes())
            .unwrap_or_else(|e| panic!("line {i} decodes: {e}"));
        let again = serde_json::to_vec(&env).expect("encodes");
        assert_eq!(String::from_utf8_lossy(&again), line, "line {i} re-encodes");
    }
}

#[test]
fn the_corpus_covers_every_variant_and_role() {
    let mut types = BTreeSet::new();
    let mut roles = BTreeSet::new();
    for line in GOLDEN.lines() {
        let v = serde_json::from_str_value(line).expect("line is JSON");
        let obj = v.as_object().expect("object");
        types.insert(
            obj["msg"].as_object().expect("msg")["type"]
                .as_str()
                .map(str::to_owned),
        );
        roles.insert(
            obj["from"].as_object().expect("from")["role"]
                .as_str()
                .map(str::to_owned),
        );
    }
    assert_eq!(types.len(), 24, "{types:?}");
    assert_eq!(roles.len(), 6, "{roles:?}");
}

/// Decoding reads what the tree-building parser read: keys in any order
/// (the tag first or last), unknown keys skipped, the last of duplicate
/// keys winning even over an earlier value of the wrong shape, and a
/// missing `Option` as `None`.
#[test]
fn decoding_takes_keys_in_any_order_skips_unknown_ones_and_keeps_the_last() {
    let want = Envelope {
        from: Address::Peer { id: 7 },
        msg: ProtoMsg::DoppIdReply {
            job: JobId(5),
            token: None,
        },
    };
    for text in [
        r#"{"msg":{"type":"dopp_id_reply","job":5},"from":{"id":7,"role":"peer"}}"#,
        r#" { "from" : { "role" : "peer" , "id" : 7 } , "msg" : { "job" : 5 , "token" : null ,
            "type" : "dopp_id_reply" } } "#,
        r#"{"x":[{"y":"\u00e9\ud83d\ude00"},-1.5e3,true],"from":{"role":"peer","id":"seven","id":7},
            "msg":{"type":"ack","job":"five","job":5,"type":"dopp_id_reply","extra":{}}}"#,
    ] {
        let got: Envelope = serde_json::from_str(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(got, want, "{text}");
    }
    for text in [
        r#"{"from":{"role":"peer","id":7},"msg":{"job":5,"type":"dopp_id_reply"}} x"#,
        r#"{"from":{"role":"peer","id":7},"msg":{"job":5,"job":"five","type":"dopp_id_reply"}}"#,
        r#"{"from":{"role":"peer","id":7},"msg":{"job":5,"type":"no_such_message"}}"#,
        r#"{"from":{"role":"peer","id":7},"msg":{"token":null,"type":"dopp_id_reply"}}"#,
        r#"{"from":{"role":"peer","id":7},"msg":{"job":5,"type":"dopp_id_reply","x":[}}"#,
    ] {
        assert!(serde_json::from_str::<Envelope>(text).is_err(), "{text}");
    }

    // A map's keys follow the same rule.
    let jar: CookieJar = serde_json::from_str(r#"{"store":{"b":[],"a":"x","a":[]}}"#).unwrap();
    assert_eq!(
        serde_json::to_string(&jar).unwrap(),
        r#"{"store":{"a":[],"b":[]}}"#
    );
    assert!(serde_json::from_str::<CookieJar>(r#"{"store":{"a":[],"a":"x"}}"#).is_err());
}
