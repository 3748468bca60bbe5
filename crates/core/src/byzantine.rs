//! The Byzantine send edge: typed message mutation.
//!
//! [`sheriff_netsim::ByzantinePlan`] only *decides* — it knows nothing
//! about [`ProtoMsg`]. [`outbound`] is the one place a decision is asked
//! for and turned into concrete protocol-level misbehavior: price
//! equivocation (recipient-dependent digit skew), fabricated vantage
//! identities, stale replays, and request/ack flood junk. Both backends
//! pass every roster-to-roster send through it before their transport
//! (and before the fault gate, which then rules on each emitted copy),
//! so a given `(seed, edge, occurrence)` yields the same adversarial
//! traffic on either and chaos parity stays pinned.
//!
//! Codec-boundary attacks (garbage, oversized length fields,
//! slow-loris) are byte-level: [`outbound`] consumes the message and
//! names the attack in [`ByzApplied::codec`]. The TCP backend launches
//! the raw frame; the DES — whose messages never pass through a codec —
//! has nothing more to do, because on either backend nothing reaches the
//! receiving machine.

use sheriff_netsim::{fault::splitmix64, ByzDecision, ByzantinePlan, CodecAttack};

use crate::protocol::ProtoMsg;

/// Offset a fabricating peer adds to its vantage id: the forged
/// identity no longer matches the sending address, which is exactly
/// what the measurement server's envelope check rejects.
pub const FABRICATED_ID_OFFSET: u64 = 1000;

/// Tag bit marking flood-generated junk request tags so legitimate
/// initiator tags (small integers) can never collide with them.
pub const JUNK_TAG_BIT: u64 = 1 << 63;

/// Whether a message carries price evidence worth corrupting — the
/// content arms (equivocate / fabricate / stale-replay) only fire on
/// these; floods and codec attacks apply to any traffic.
#[deny(clippy::wildcard_enum_match_arm)]
fn price_bearing(msg: &ProtoMsg) -> bool {
    match msg {
        ProtoMsg::FetchReply { .. } | ProtoMsg::DoppStateRequest { .. } => true,
        ProtoMsg::StartCheck { .. }
        | ProtoMsg::CoordRequest { .. }
        | ProtoMsg::CoordAssign { .. }
        | ProtoMsg::CoordReject { .. }
        | ProtoMsg::PpcList { .. }
        | ProtoMsg::JobSubmit { .. }
        | ProtoMsg::FetchOrder { .. }
        | ProtoMsg::DoppIdRequest { .. }
        | ProtoMsg::DoppIdReply { .. }
        | ProtoMsg::DoppStateReply { .. }
        | ProtoMsg::TokenRotated { .. }
        | ProtoMsg::StoreCheck { .. }
        | ProtoMsg::DbAck { .. }
        | ProtoMsg::JobComplete { .. }
        | ProtoMsg::Results { .. }
        | ProtoMsg::Heartbeat { .. }
        | ProtoMsg::RemoveServer { .. }
        | ProtoMsg::ServerRemoved { .. }
        | ProtoMsg::MisbehaviorReport { .. }
        | ProtoMsg::QuarantineNotice { .. }
        | ProtoMsg::Reliable { .. }
        | ProtoMsg::Ack { .. } => false,
    }
}

/// Inserts `zeros` zeros after the first digit of every digit run in
/// `html`. The DOM structure (tags, attributes) is untouched, so the
/// initiator's Tags Path still extracts a price — just one skewed by
/// 10^zeros — which is what the defense layer's plausibility band is
/// built to catch.
pub fn skew_html_prices(html: &str, zeros: usize) -> String {
    let mut out = String::with_capacity(html.len() + 16);
    let mut in_run = false;
    for ch in html.chars() {
        out.push(ch);
        if ch.is_ascii_digit() {
            if !in_run {
                for _ in 0..zeros {
                    out.push('0');
                }
                in_run = true;
            }
        } else {
            in_run = false;
        }
    }
    out
}

/// What the sender's Byzantine profile made of one outbound message.
#[derive(Debug)]
pub struct ByzApplied {
    /// The (possibly mutated) original message; `None` when a codec
    /// attack consumed it.
    pub primary: Option<ProtoMsg>,
    /// Flood junk emitted alongside the primary, in deterministic
    /// order.
    pub junk: Vec<ProtoMsg>,
    /// The codec-boundary attack the send was turned into, with the
    /// message's occurrence number on its link (salts the attack bytes).
    pub codec: Option<(CodecAttack, u64)>,
}

impl ByzApplied {
    /// The protocol messages to emit, primary first.
    pub fn messages(self) -> impl Iterator<Item = ProtoMsg> {
        self.primary.into_iter().chain(self.junk)
    }
}

/// Passes one send on the directed link `from → to` (roster indices)
/// through `plan`: asks for the decision — advancing the link's
/// occurrence counter and the plan's totals — and applies it.
pub fn outbound(plan: &mut ByzantinePlan, from: usize, to: usize, msg: ProtoMsg) -> ByzApplied {
    let decision = plan.decide(from, to, price_bearing(&msg));
    apply(&decision, msg)
}

/// Applies `decision` to `msg`. Pure: the same `(decision, msg)` pair
/// yields the same traffic on every backend.
fn apply(decision: &ByzDecision, msg: ProtoMsg) -> ByzApplied {
    if let Some(attack) = decision.codec {
        // Byte-level attack replaces the message entirely; the
        // transport edge owns what (if anything) goes on the wire.
        return ByzApplied {
            primary: None,
            junk: Vec::new(),
            codec: Some((attack, decision.occurrence)),
        };
    }

    let mutated = mutate(decision, msg);
    let junk = flood_junk(decision, &mutated);
    ByzApplied {
        primary: Some(mutated),
        junk,
        codec: None,
    }
}

/// Content arms: equivocation, fabrication, stale replay.
fn mutate(decision: &ByzDecision, msg: ProtoMsg) -> ProtoMsg {
    match msg {
        ProtoMsg::FetchReply {
            job,
            mut meta,
            html,
        } => {
            let mut html = html;
            if let Some(salt) = decision.equivocate_salt {
                // Recipient-dependent salt → different zeros for
                // different recipients: classic equivocation.
                html = skew_html_prices(&html, 2 + (salt % 3) as usize);
            }
            if decision.stale_replay {
                // A replayed old page: fixed three-zero skew, as if an
                // ancient (pre-redenomination) capture were re-served.
                html = skew_html_prices(&html, 3);
            }
            if decision.fabricate {
                // Forge the vantage identity outside the sender's
                // envelope; the country/id no longer match the
                // transport-level source address.
                meta.id = meta.id.wrapping_add(FABRICATED_ID_OFFSET);
            }
            ProtoMsg::FetchReply { job, meta, html }
        }
        ProtoMsg::DoppStateRequest {
            job,
            mut token,
            domain,
        } => {
            if decision.stale_replay {
                // Replay with a stale/corrupted bearer token: the
                // coordinator no longer knows it and scores the
                // doppelganger mismatch.
                for b in token.0.iter_mut().take(8) {
                    *b ^= 0xA5;
                }
            }
            ProtoMsg::DoppStateRequest { job, token, domain }
        }
        other => other,
    }
}

/// Flood arm: junk shaped like the primary so it lands on the same
/// server-side quota.
fn flood_junk(decision: &ByzDecision, primary: &ProtoMsg) -> Vec<ProtoMsg> {
    let copies = decision.flood_copies as u64;
    if copies == 0 {
        return Vec::new();
    }
    let mut junk = Vec::with_capacity(copies as usize);
    for i in 0..copies {
        // Collision-free, and clear of the tag bit set below.
        let nonce = splitmix64(decision.occurrence * 64 + i) & !JUNK_TAG_BIT;
        junk.push(match primary {
            ProtoMsg::CoordRequest { url, peer, .. } => ProtoMsg::CoordRequest {
                url: url.clone(),
                peer: *peer,
                local_tag: JUNK_TAG_BIT | nonce,
            },
            reply @ ProtoMsg::FetchReply { .. } => reply.clone(),
            // Anything else: spurious-ack flood, absorbed (and
            // counted) by the receiver's reliable channel.
            _ => ProtoMsg::Ack {
                seq: JUNK_TAG_BIT | nonce,
            },
        });
    }
    junk
}

#[cfg(test)]
mod tests {
    use sheriff_netsim::ByzProfile;

    use super::*;
    use crate::coordinator::PeerId;
    use crate::doppelganger::DoppelgangerId;
    use crate::measurement::VantageMeta;
    use crate::records::VantageKind;
    use sheriff_geo::{Country, IpV4};

    fn reply() -> ProtoMsg {
        ProtoMsg::FetchReply {
            job: crate::coordinator::JobId(9),
            meta: VantageMeta {
                kind: VantageKind::Ppc,
                id: 104,
                country: Country::DE,
                city: None,
                ip: IpV4(0x0A00_0001),
            },
            html: "<span class=\"price\">EUR 1299.49</span>".into(),
        }
    }

    fn honest() -> ByzDecision {
        ByzDecision::HONEST
    }

    #[test]
    fn honest_decision_is_identity() {
        let applied = apply(&honest(), reply());
        assert_eq!(applied.primary, Some(reply()));
        assert!(applied.junk.is_empty());
    }

    #[test]
    fn skew_inserts_zeros_once_per_digit_run() {
        assert_eq!(skew_html_prices("EUR 12.49", 2), "EUR 1002.4009");
        assert_eq!(skew_html_prices("no digits", 3), "no digits");
        // DOM structure survives: tags keep their names.
        let skewed = skew_html_prices("<span>9</span>", 1);
        assert_eq!(skewed, "<span>90</span>");
    }

    #[test]
    fn equivocation_salt_varies_the_skew() {
        let mut d0 = honest();
        d0.equivocate_salt = Some(0); // 2 zeros
        let mut d2 = honest();
        d2.equivocate_salt = Some(2); // 4 zeros
        let a = apply(&d0, reply()).primary.unwrap();
        let b = apply(&d2, reply()).primary.unwrap();
        assert_ne!(a, b, "different recipients see different prices");
    }

    #[test]
    fn fabrication_forges_the_vantage_id() {
        let mut d = honest();
        d.fabricate = true;
        let ProtoMsg::FetchReply { meta, .. } = apply(&d, reply()).primary.unwrap() else {
            panic!("kind preserved");
        };
        assert_eq!(meta.id, 104 + FABRICATED_ID_OFFSET);
    }

    #[test]
    fn stale_replay_corrupts_dopp_tokens() {
        let mut d = honest();
        d.stale_replay = true;
        let msg = ProtoMsg::DoppStateRequest {
            job: crate::coordinator::JobId(1),
            token: DoppelgangerId([7u8; 32]),
            domain: "shop.com".into(),
        };
        let ProtoMsg::DoppStateRequest { token, .. } = apply(&d, msg).primary.unwrap() else {
            panic!("kind preserved");
        };
        assert_ne!(token, DoppelgangerId([7u8; 32]));
    }

    #[test]
    fn flood_shapes_junk_like_the_primary() {
        let mut d = honest();
        d.flood_copies = 3;
        let req = ProtoMsg::CoordRequest {
            url: "https://shop.com/p/1".into(),
            peer: PeerId(104),
            local_tag: 5,
        };
        let applied = apply(&d, req);
        assert_eq!(applied.junk.len(), 3);
        for j in &applied.junk {
            let ProtoMsg::CoordRequest { local_tag, .. } = j else {
                panic!("junk mirrors the request kind");
            };
            assert!(local_tag & JUNK_TAG_BIT != 0, "junk tags are marked");
        }
        // Non-request, non-reply primaries flood as spurious acks.
        let mut d2 = honest();
        d2.flood_copies = 2;
        let applied = apply(&d2, ProtoMsg::Heartbeat { server_index: 0 });
        assert!(applied
            .junk
            .iter()
            .all(|j| matches!(j, ProtoMsg::Ack { .. })));
    }

    #[test]
    fn codec_attack_consumes_the_primary() {
        let mut d = honest();
        d.codec = Some(CodecAttack::Garbage);
        d.flood_copies = 4; // decide() suppresses this; apply must too
        d.occurrence = 6;
        let applied = apply(&d, reply());
        assert!(applied.primary.is_none());
        assert!(applied.junk.is_empty());
        assert_eq!(applied.codec, Some((CodecAttack::Garbage, 6)));
    }

    #[test]
    fn outbound_counts_occurrences_per_link_and_spares_honest_senders() {
        let mut plan = ByzantinePlan::new(5).with_profile(
            3,
            ByzProfile {
                codec_oversize: 1.0,
                ..ByzProfile::HONEST
            },
        );
        let honest = outbound(&mut plan, 4, 0, reply());
        assert_eq!(honest.codec, None);
        assert_eq!(honest.messages().collect::<Vec<_>>(), vec![reply()]);
        for occurrence in 0..2 {
            let attacked = outbound(&mut plan, 3, 0, reply());
            assert_eq!(attacked.codec, Some((CodecAttack::Oversize, occurrence)));
            assert_eq!(attacked.messages().count(), 0);
        }
        assert_eq!(plan.stats.codec_attacks, 2);
    }

    #[test]
    fn junk_nonces_are_distinct_and_deterministic() {
        let mut d = honest();
        d.flood_copies = 4;
        d.occurrence = 11;
        let a = apply(&d, ProtoMsg::Ack { seq: 0 });
        let b = apply(&d, ProtoMsg::Ack { seq: 0 });
        let seqs: Vec<u64> = a
            .junk
            .iter()
            .map(|j| match j {
                ProtoMsg::Ack { seq } => *seq,
                other => panic!("junk is acks only, got {other:?}"),
            })
            .collect();
        let mut uniq = seqs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4, "nonces distinct");
        assert_eq!(format!("{:?}", a.junk), format!("{:?}", b.junk));
    }
}
