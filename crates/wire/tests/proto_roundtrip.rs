//! Property tests for the unified protocol message enum on the wire:
//! every [`ProtoMsg`] variant must survive JSON encoding inside a
//! length-prefixed frame bit-for-bit, and the codec must hold its
//! boundaries (`MAX_FRAME_LEN`, truncated streams).

use std::io::Cursor;

use proptest::prelude::*;

use sheriff_core::coordinator::{JobId, PeerId};
use sheriff_core::doppelganger::DoppelgangerId;
use sheriff_core::measurement::VantageMeta;
use sheriff_core::protocol::{Address, ProtoMsg};
use sheriff_core::records::{PriceCheck, PriceObservation, VantageKind};
use sheriff_geo::{Country, IpV4};
use sheriff_html::tagspath::TagsPath;
use sheriff_market::{Cookie, CookieJar, ProductId};
use sheriff_wire::{read_frame, write_frame, Envelope, FrameError, MAX_FRAME_LEN};

fn country(sel: u64) -> Country {
    Country::all()
        .nth(sel as usize % Country::count())
        .expect("catalogue is nonempty")
}

fn address(sel: u64) -> Address {
    match sel % 6 {
        0 => Address::Coordinator,
        1 => Address::Aggregator,
        2 => Address::Database,
        3 => Address::Server {
            index: (sel / 6) as usize % 8,
        },
        4 => Address::Ipc {
            index: (sel / 6) as usize % 30,
        },
        _ => Address::Peer { id: sel / 6 },
    }
}

fn token(n: u64) -> DoppelgangerId {
    let mut id = [0u8; 32];
    id[..8].copy_from_slice(&n.to_le_bytes());
    id[24..].copy_from_slice(&n.to_be_bytes());
    DoppelgangerId(id)
}

fn observation(sel: u64, text: &str, amount: f64) -> PriceObservation {
    PriceObservation {
        vantage: match sel % 3 {
            0 => VantageKind::Initiator,
            1 => VantageKind::Ipc,
            _ => VantageKind::Ppc,
        },
        vantage_id: sel,
        country: country(sel),
        city: if sel.is_multiple_of(2) {
            None
        } else {
            Some(format!("city-{}", sel % 9))
        },
        ip: IpV4(sel as u32),
        raw_text: text.to_string(),
        currency: country(sel).currency().to_string(),
        amount,
        amount_eur: amount * 0.9,
        low_confidence: sel.is_multiple_of(5),
        failed: sel.is_multiple_of(7),
    }
}

fn check(sel: u64, text: &str, amount: f64) -> PriceCheck {
    PriceCheck {
        job_id: sel,
        domain: format!("shop-{}.example", sel % 4),
        url: format!("shop-{}.example/product/{}", sel % 4, sel % 11),
        day: sel as u32 % 90,
        observations: (0..sel % 4)
            .map(|i| observation(sel.wrapping_add(i), text, amount + i as f64))
            .collect(),
    }
}

fn meta(sel: u64) -> VantageMeta {
    let o = observation(sel, "", 0.0);
    VantageMeta {
        kind: o.vantage,
        id: o.vantage_id,
        country: o.country,
        city: o.city,
        ip: o.ip,
    }
}

fn jar(sel: u64) -> CookieJar {
    let mut jar = CookieJar::new();
    for i in 0..sel % 3 {
        jar.set(
            &format!("shop-{i}.example"),
            Cookie {
                name: format!("sid-{i}"),
                value: format!("v{}", sel.wrapping_mul(31).wrapping_add(i)),
                third_party: (sel + i).is_multiple_of(2),
            },
        );
    }
    jar
}

/// Deterministically builds one of the 25 [`ProtoMsg`] variants from
/// sampled primitives (the vendored proptest has no `prop_oneof`, so
/// variant choice rides on `sel`).
fn build(sel: u64, n: u64, text: &str, amount: f64) -> ProtoMsg {
    match sel % 25 {
        0 => ProtoMsg::StartCheck {
            domain: format!("shop-{}.example", n % 5),
            product: ProductId(n as u32 % 40),
            local_tag: n,
        },
        1 => ProtoMsg::CoordRequest {
            url: format!("shop.example/product/{}", n % 40),
            peer: PeerId(n),
            local_tag: sel,
        },
        2 => ProtoMsg::CoordAssign {
            job: JobId(n),
            server: Address::Server {
                index: n as usize % 8,
            },
            local_tag: sel,
        },
        3 => ProtoMsg::CoordReject {
            local_tag: n,
            reason: text.to_string(),
        },
        4 => ProtoMsg::PpcList {
            job: JobId(n),
            ppcs: (0..n % 5).map(|i| Address::Peer { id: sel ^ i }).collect(),
        },
        5 => ProtoMsg::JobSubmit {
            job: JobId(n),
            domain: format!("shop-{}.example", n % 5),
            product: ProductId(n as u32 % 40),
            tags_path: TagsPath { steps: vec![] },
            initiator_html: text.to_string(),
            initiator_obs: Box::new(observation(n, text, amount)),
        },
        6 => ProtoMsg::FetchOrder {
            job: JobId(n),
            domain: format!("shop-{}.example", n % 5),
            product: ProductId(n as u32 % 40),
            seq: sel,
        },
        7 => ProtoMsg::FetchReply {
            job: JobId(n),
            meta: meta(n),
            html: text.to_string(),
        },
        8 => ProtoMsg::DoppIdRequest {
            job: JobId(n),
            peer: sel,
        },
        9 => ProtoMsg::DoppIdReply {
            job: JobId(n),
            token: if n.is_multiple_of(2) {
                None
            } else {
                Some(token(n))
            },
        },
        10 => ProtoMsg::DoppStateRequest {
            job: JobId(n),
            token: token(n),
            domain: format!("shop-{}.example", n % 5),
        },
        11 => ProtoMsg::DoppStateReply {
            job: JobId(n),
            state: if n.is_multiple_of(2) {
                None
            } else {
                Some(jar(n))
            },
        },
        12 => ProtoMsg::TokenRotated {
            old: token(n),
            new: token(n.wrapping_add(1)),
        },
        13 => ProtoMsg::StoreCheck {
            job: JobId(n),
            check: Box::new(check(n, text, amount)),
        },
        14 => ProtoMsg::DbAck { job: JobId(n) },
        15 => ProtoMsg::JobComplete { job: JobId(n) },
        16 => ProtoMsg::Results {
            job: JobId(n),
            check: Box::new(check(n, text, amount)),
        },
        17 => ProtoMsg::Heartbeat {
            server_index: n as usize % 8,
        },
        18 => ProtoMsg::RemoveServer {
            index: n as usize % 8,
        },
        19 => ProtoMsg::ServerRemoved {
            index: n as usize % 8,
            removed: n.is_multiple_of(2),
        },
        20 => ProtoMsg::MisbehaviorReport {
            peer: n,
            score: sel as u32 % 64,
        },
        21 => ProtoMsg::QuarantineNotice { peer: n },
        // The reliable envelope nests an arbitrary inner variant — pick
        // it from the plain (non-recursive) range to bound the depth.
        22 => ProtoMsg::Reliable {
            seq: n,
            inner: Box::new(build(n % 22, sel, text, amount)),
        },
        23 => ProtoMsg::Ack { seq: n },
        _ => ProtoMsg::Shutdown,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any envelope (any sender, any message variant) survives the
    /// frame codec byte-for-byte.
    #[test]
    fn every_variant_roundtrips_through_the_frame_codec(
        sel in any::<u64>(),
        n in any::<u64>(),
        text in "[ -~]{0,48}",
        amount in 0.01f64..10_000.0,
    ) {
        let env = Envelope {
            from: address(sel ^ n),
            msg: build(sel, n, text.as_str(), amount),
        };
        let mut buf = Vec::new();
        env.send(&mut buf).unwrap();
        let mut cur = Cursor::new(buf);
        let got = Envelope::recv(&mut cur).unwrap().expect("one frame");
        prop_assert_eq!(got, env);
        prop_assert!(Envelope::recv(&mut cur).unwrap().is_none(), "clean EOF");
    }

    /// Chopping any amount off the end of a framed stream yields
    /// `UnexpectedEof`, never a short read that parses.
    #[test]
    fn truncated_streams_are_unexpected_eof(
        sel in any::<u64>(),
        n in any::<u64>(),
        cut in 1usize..96,
    ) {
        let env = Envelope { from: address(n), msg: build(sel, n, "x", 1.0) };
        let mut buf = Vec::new();
        env.send(&mut buf).unwrap();
        let keep = buf.len() - cut.min(buf.len() - 1);
        let mut cur = Cursor::new(&buf[..keep]);
        match Envelope::recv(&mut cur) {
            Err(FrameError::UnexpectedEof) => {}
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    /// Counted sends agree with the plain ones.
    #[test]
    fn counted_io_matches_uncounted(sel in any::<u64>(), n in any::<u64>()) {
        let env = Envelope { from: address(n), msg: build(sel, n, "y", 2.0) };
        let registry = std::sync::Arc::new(sheriff_telemetry::Registry::new());
        let wire = sheriff_wire::WireTelemetry::new(&registry);
        let mut a = Vec::new();
        let mut b = Vec::new();
        env.send(&mut a).unwrap();
        env.send_counted(&mut b, &wire).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(wire.frames_out.get(), 1);
        prop_assert_eq!(wire.bytes_out.get(), b.len() as u64);
        let got = Envelope::recv(&mut Cursor::new(b)).unwrap().unwrap();
        prop_assert_eq!(got, env);
    }
}

#[test]
fn frame_at_exactly_max_len_roundtrips() {
    let payload = vec![0xabu8; MAX_FRAME_LEN];
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).expect("boundary payload fits");
    let mut cur = Cursor::new(buf);
    let got = read_frame(&mut cur).unwrap().expect("one frame");
    assert_eq!(got.len(), MAX_FRAME_LEN);
    assert_eq!(got, payload);
    assert!(read_frame(&mut cur).unwrap().is_none());
}

#[test]
fn frame_one_past_max_len_is_too_large_on_both_sides() {
    let payload = vec![0u8; MAX_FRAME_LEN + 1];
    let mut buf = Vec::new();
    assert!(matches!(
        write_frame(&mut buf, &payload),
        Err(FrameError::TooLarge(_))
    ));
    // A forged header announcing MAX_FRAME_LEN + 1 is rejected before any
    // allocation of that size.
    let mut forged = Vec::new();
    forged.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes());
    assert!(matches!(
        read_frame(&mut Cursor::new(forged)),
        Err(FrameError::TooLarge(_))
    ));
}

#[test]
fn oversized_envelope_is_refused_at_send() {
    // A fetched page bigger than the frame budget must fail loudly at the
    // sender, not truncate.
    let env = Envelope {
        from: address(3),
        msg: ProtoMsg::FetchReply {
            job: JobId(1),
            meta: meta(1),
            html: "h".repeat(MAX_FRAME_LEN),
        },
    };
    let mut buf = Vec::new();
    assert!(matches!(env.send(&mut buf), Err(FrameError::TooLarge(_))));
}
