//! PPC / browser-add-on role: initiating price checks, serving remote
//! fetches under the pollution budget, doppelganger redemption.

use std::collections::BTreeMap;

use sheriff_html::tagspath::TagsPath;
use sheriff_html::Document;
use sheriff_market::{CookieJar, ProductId, World};

use crate::coordinator::{JobId, PeerId};
use crate::measurement::{process_document, VantageMeta};
use crate::pollution::FetchMode;
use crate::protocol::{day_of_ms, quarter_of_ms, Address, Output, ProtoMsg};
use crate::proxy::PpcEngine;
use crate::records::{PriceCheck, VantageKind};

/// A completed price check as recorded by the initiating add-on.
#[derive(Clone, Debug)]
pub struct CompletedProtoCheck {
    /// The result set.
    pub check: PriceCheck,
    /// Initiator-local request tag.
    pub local_tag: u64,
    /// Millisecond time the user clicked.
    pub submitted_ms: u64,
    /// Millisecond time the result page finished.
    pub completed_ms: u64,
}

struct PendingFetch {
    reply_to: Address,
    domain: String,
    product: ProductId,
    seq: u64,
}

/// The PPC / browser add-on as a sans-IO state machine.
pub struct PeerProto {
    /// Browser state, pollution ledger, identity.
    pub engine: PpcEngine,
    /// City label for observations, when known.
    pub city: Option<String>,
    /// Ask for doppelganger state when over budget.
    pub doppelgangers_enabled: bool,
    /// Own requests in flight: local_tag → (domain, product, submitted_ms).
    /// `BTreeMap` throughout this struct: command emission order must be
    /// seed-pure, so no hash-ordered container may feed it.
    own_pending: BTreeMap<u64, (String, ProductId, u64)>,
    /// Jobs assigned: job → local_tag (to find submit data).
    job_tags: BTreeMap<JobId, u64>,
    /// Remote fetches waiting on doppelganger state.
    dopp_pending: BTreeMap<JobId, PendingFetch>,
    /// Completed own checks, in completion order.
    pub completed: Vec<CompletedProtoCheck>,
    /// Rejected own checks: (local_tag, reason).
    pub rejected: Vec<(u64, String)>,
    /// `ServerRemoved` acks observed (when this peer plays admin).
    pub server_removals: Vec<(usize, bool)>,
    /// Sandbox failures observed while serving (must stay 0).
    pub sandbox_violations: usize,
    /// Quarantine notices received from the Coordinator (the add-on
    /// surfaces these to the user).
    pub quarantine_notices: Vec<u64>,
}

#[deny(clippy::wildcard_enum_match_arm)]
impl PeerProto {
    /// Wraps a configured engine.
    pub fn new(engine: PpcEngine, city: Option<String>, doppelgangers_enabled: bool) -> Self {
        PeerProto {
            engine,
            city,
            doppelgangers_enabled,
            own_pending: BTreeMap::new(),
            job_tags: BTreeMap::new(),
            dopp_pending: BTreeMap::new(),
            completed: Vec::new(),
            rejected: Vec::new(),
            server_removals: Vec::new(),
            sandbox_violations: 0,
            quarantine_notices: Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the FetchOrder fields
    fn serve_fetch(
        &mut self,
        now_ms: u64,
        job: JobId,
        reply_to: Address,
        domain: &str,
        product: ProductId,
        seq: u64,
        dopp_state: Option<&CookieJar>,
        world: &mut World,
        out: &mut Vec<Output>,
    ) {
        let day = day_of_ms(now_ms);
        let quarter = quarter_of_ms(now_ms);
        let Some(fetch) = self.engine.remote_fetch(
            world, domain, product, day, quarter, now_ms, seq, dopp_state,
        ) else {
            return;
        };
        if fetch.sandbox.is_some_and(|r| !r.is_clean()) {
            self.sandbox_violations += 1;
        }
        let meta = VantageMeta {
            kind: VantageKind::Ppc,
            id: self.engine.peer_id,
            country: self.engine.country,
            city: self.city.clone(),
            ip: self.engine.ip,
        };
        out.push(Output::SendFetched {
            to: reply_to,
            msg: ProtoMsg::FetchReply {
                job,
                meta,
                html: fetch.html,
            },
        });
    }

    /// The reliable channel exhausted its retransmit budget for `msg`
    /// and will never deliver it. Release whatever bookkeeping was
    /// pinned on that send — otherwise a sustained partition leaves
    /// `own_pending`/`job_tags`/`dopp_pending` entries behind forever
    /// (the leak the routing-matrix audit surfaced).
    pub fn on_send_abandoned(&mut self, msg: &ProtoMsg) {
        match msg {
            // The initial request never reached the coordinator: the
            // check is over before it began.
            ProtoMsg::CoordRequest { local_tag, .. } => {
                let Some(_slot) = self.own_pending.remove(local_tag) else {
                    return;
                };
                self.rejected
                    .push((*local_tag, "coordinator unreachable".to_string()));
            }
            // The submission never reached the measurement server: the
            // coordinator will expire the job on its own deadline, but
            // the local slot must not wait for that.
            ProtoMsg::JobSubmit { job, .. } => {
                if let Some(tag) = self.job_tags.remove(job) {
                    if self.own_pending.remove(&tag).is_some() {
                        self.rejected
                            .push((tag, "measurement server unreachable".to_string()));
                    }
                }
            }
            // A doppelganger lookup died in flight: the fetch it was
            // blocking can never be served, so drop the slot.
            ProtoMsg::DoppIdRequest { job, .. } | ProtoMsg::DoppStateRequest { job, .. } => {
                self.dopp_pending.remove(job);
            }
            // No other send pins state here.
            ProtoMsg::StartCheck { .. }
            | ProtoMsg::CoordAssign { .. }
            | ProtoMsg::CoordReject { .. }
            | ProtoMsg::PpcList { .. }
            | ProtoMsg::FetchOrder { .. }
            | ProtoMsg::FetchReply { .. }
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
            | ProtoMsg::Ack { .. } => {}
        }
    }

    /// In-flight bookkeeping sizes:
    /// `(own_pending, job_tags, dopp_pending)`. Leak regression tests
    /// assert these drain back to zero.
    pub fn pending_counts(&self) -> (usize, usize, usize) {
        (
            self.own_pending.len(),
            self.job_tags.len(),
            self.dopp_pending.len(),
        )
    }

    /// Feeds one delivered message.
    #[allow(clippy::too_many_lines)] // one arm per protocol step
    pub fn on_message(
        &mut self,
        now_ms: u64,
        from: Address,
        msg: ProtoMsg,
        world: &mut World,
        out: &mut Vec<Output>,
    ) {
        match msg {
            ProtoMsg::StartCheck {
                domain,
                product,
                local_tag,
            } => {
                self.own_pending
                    .insert(local_tag, (domain.clone(), product, now_ms));
                let url = format!("{domain}/product/{}", product.0);
                out.push(Output::send(
                    Address::Coordinator,
                    ProtoMsg::CoordRequest {
                        url,
                        peer: PeerId(self.engine.peer_id),
                        local_tag,
                    },
                ));
            }
            ProtoMsg::CoordAssign {
                job,
                server,
                local_tag,
            } => {
                // Any failure to produce a selection (CAPTCHA on the
                // initiator's own fetch, vanished product page) ends the
                // check with a rejection the user sees, and must release
                // the job at the Coordinator, or its pending counter would
                // leak (§10.3's corrective concern).
                let abort = |me: &mut Self, out: &mut Vec<Output>, reason: &str| {
                    if me.own_pending.remove(&local_tag).is_some() {
                        me.rejected.push((local_tag, reason.to_string()));
                    }
                    me.job_tags.remove(&job);
                    out.push(Output::send(
                        Address::Coordinator,
                        ProtoMsg::JobComplete { job },
                    ));
                };
                let Some((domain, product, _)) = self.own_pending.get(&local_tag).cloned() else {
                    out.push(Output::send(
                        Address::Coordinator,
                        ProtoMsg::JobComplete { job },
                    ));
                    return;
                };
                self.job_tags.insert(job, local_tag);
                // The user is on the page: fetch it as a real visit, select
                // the price, build the Tags Path (Fig. 4).
                let day = day_of_ms(now_ms);
                let quarter = quarter_of_ms(now_ms);
                let Some(html) = self.engine.initiator_fetch(
                    world,
                    &domain,
                    product,
                    day,
                    quarter,
                    now_ms,
                    job.0 * 100,
                ) else {
                    abort(self, out, "product page unavailable");
                    return;
                };
                let template = world.retailer(&domain).map_or(0, |r| r.template);
                let selection_el = sheriff_market::page::price_markup(template);
                let doc = Document::parse(&html);
                let price_el = doc.find_by_class(selection_el.0, selection_el.1);
                let Some(tags_path) = price_el.and_then(|el| TagsPath::from_node(&doc, el)) else {
                    abort(self, out, "no price on the page (CAPTCHA?)");
                    return;
                };
                let meta = VantageMeta {
                    kind: VantageKind::Initiator,
                    id: self.engine.peer_id,
                    country: self.engine.country,
                    city: self.city.clone(),
                    ip: self.engine.ip,
                };
                let obs = process_document(&doc, &tags_path, &meta, &world.rates);
                out.push(Output::send(
                    server,
                    ProtoMsg::JobSubmit {
                        job,
                        domain,
                        product,
                        tags_path,
                        initiator_html: html,
                        initiator_obs: Box::new(obs),
                    },
                ));
            }
            ProtoMsg::CoordReject { local_tag, reason } => {
                self.own_pending.remove(&local_tag);
                self.rejected.push((local_tag, reason));
            }
            ProtoMsg::FetchOrder {
                job,
                domain,
                product,
                seq,
            } => {
                let needs_dopp = self.doppelgangers_enabled
                    && self.engine.peek_mode(&domain) == FetchMode::Doppelganger;
                if needs_dopp {
                    self.dopp_pending.insert(
                        job,
                        PendingFetch {
                            reply_to: from,
                            domain: domain.clone(),
                            product,
                            seq,
                        },
                    );
                    out.push(Output::send(
                        Address::Aggregator,
                        ProtoMsg::DoppIdRequest {
                            job,
                            peer: self.engine.peer_id,
                        },
                    ));
                } else {
                    self.serve_fetch(now_ms, job, from, &domain, product, seq, None, world, out);
                }
            }
            ProtoMsg::DoppIdReply { job, token } => match (token, self.dopp_pending.get(&job)) {
                (Some(token), Some(p)) => {
                    let domain = p.domain.clone();
                    out.push(Output::send(
                        Address::Coordinator,
                        ProtoMsg::DoppStateRequest { job, token, domain },
                    ));
                }
                (None, Some(_)) => {
                    // Unclustered peer: fall back to a clean sandboxed fetch.
                    if let Some(p) = self.dopp_pending.remove(&job) {
                        self.serve_fetch(
                            now_ms,
                            job,
                            p.reply_to,
                            &p.domain.clone(),
                            p.product,
                            p.seq,
                            None,
                            world,
                            out,
                        );
                    }
                }
                _ => {}
            },
            ProtoMsg::DoppStateReply { job, state } => {
                if let Some(p) = self.dopp_pending.remove(&job) {
                    self.serve_fetch(
                        now_ms,
                        job,
                        p.reply_to,
                        &p.domain.clone(),
                        p.product,
                        p.seq,
                        state.as_ref(),
                        world,
                        out,
                    );
                }
            }
            ProtoMsg::Results { job, check } => {
                if let Some(tag) = self.job_tags.remove(&job) {
                    if let Some((_, _, submitted_ms)) = self.own_pending.remove(&tag) {
                        self.completed.push(CompletedProtoCheck {
                            check: *check,
                            local_tag: tag,
                            submitted_ms,
                            completed_ms: now_ms,
                        });
                    }
                }
            }
            ProtoMsg::ServerRemoved { index, removed } => {
                self.server_removals.push((index, removed));
            }
            ProtoMsg::QuarantineNotice { peer } => {
                self.quarantine_notices.push(peer);
            }
            // For another role, the channel or the driver.
            ProtoMsg::CoordRequest { .. }
            | ProtoMsg::PpcList { .. }
            | ProtoMsg::JobSubmit { .. }
            | ProtoMsg::FetchReply { .. }
            | ProtoMsg::DoppIdRequest { .. }
            | ProtoMsg::DoppStateRequest { .. }
            | ProtoMsg::TokenRotated { .. }
            | ProtoMsg::StoreCheck { .. }
            | ProtoMsg::DbAck { .. }
            | ProtoMsg::JobComplete { .. }
            | ProtoMsg::Heartbeat { .. }
            | ProtoMsg::RemoveServer { .. }
            | ProtoMsg::MisbehaviorReport { .. }
            | ProtoMsg::Reliable { .. }
            | ProtoMsg::Ack { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use sheriff_geo::{Country, IpAllocator};
    use sheriff_market::pricing::{Browser, Os};
    use sheriff_market::world::WorldConfig;
    use sheriff_market::UserAgent;

    use super::*;
    use crate::system::PpcSpec;

    fn peer() -> PeerProto {
        let spec = PpcSpec {
            peer_id: 7,
            country: Country::ES,
            city_idx: 0,
            user_agent: UserAgent {
                os: Os::Windows,
                browser: Browser::Chrome,
            },
            affluence: 0.5,
            logged_in_domains: vec![],
        };
        let engine = PpcEngine::new(&spec, IpAllocator::new().allocate(Country::ES, 0));
        PeerProto::new(engine, None, true)
    }

    #[test]
    fn abandoned_coord_request_releases_the_pending_check() {
        // Regression for the retransmit give-up leak: before the channel
        // reported abandoned sends, a peer whose CoordRequest died under a
        // partition kept the own_pending slot forever.
        let mut world = World::build(&WorldConfig::small(), 11);
        let mut p = peer();
        let mut out = Vec::new();
        p.on_message(
            0,
            Address::Peer { id: 7 },
            ProtoMsg::StartCheck {
                domain: "jcpenney.com".to_string(),
                product: ProductId(1),
                local_tag: 42,
            },
            &mut world,
            &mut out,
        );
        assert_eq!(p.pending_counts(), (1, 0, 0));
        let sent = out
            .iter()
            .find_map(|o| match o {
                Output::Send { msg, .. } => Some(msg.clone()),
                _ => None,
            })
            .expect("StartCheck emits a CoordRequest");
        assert!(matches!(sent, ProtoMsg::CoordRequest { .. }));

        p.on_send_abandoned(&sent);
        assert_eq!(p.pending_counts(), (0, 0, 0));
        assert_eq!(p.rejected.len(), 1);
        assert!(p.rejected[0].1.contains("unreachable"), "{:?}", p.rejected);
    }

    #[test]
    fn captcha_on_the_initiators_own_fetch_rejects_the_check() {
        // The initiator's fetch draws a CAPTCHA, so there is no price to
        // build a Tags Path from: the check must end in a rejection the
        // user sees, not in a slot nobody ever answers.
        let mut world = World::build(&WorldConfig::small(), 11);
        world.retailer_mut("jcpenney.com").expect("listed").bot =
            Some(sheriff_market::bot::BotDetector::new(60_000, 0));
        let mut p = peer();
        let mut out = Vec::new();
        let start = ProtoMsg::StartCheck {
            domain: "jcpenney.com".to_string(),
            product: ProductId(1),
            local_tag: 42,
        };
        p.on_message(0, Address::Peer { id: 7 }, start, &mut world, &mut out);
        out.clear();
        let assign = ProtoMsg::CoordAssign {
            job: JobId(5),
            server: Address::Server { index: 0 },
            local_tag: 42,
        };
        p.on_message(10, Address::Coordinator, assign, &mut world, &mut out);

        assert_eq!(p.pending_counts(), (0, 0, 0));
        assert_eq!(p.rejected.len(), 1, "{:?}", p.rejected);
        assert_eq!(p.rejected[0].0, 42);
        assert!(!p.rejected[0].1.is_empty());
        assert!(p.completed.is_empty());
        // The Coordinator still learns the job is over.
        assert!(out.iter().any(|o| matches!(
            o,
            Output::Send {
                to: Address::Coordinator,
                msg: ProtoMsg::JobComplete { job: JobId(5) },
                ..
            }
        )));
    }

    #[test]
    fn abandoned_dopp_lookup_drops_the_blocked_fetch_slot() {
        let mut p = peer();
        p.dopp_pending.insert(
            JobId(3),
            PendingFetch {
                reply_to: Address::Server { index: 0 },
                domain: "jcpenney.com".to_string(),
                product: ProductId(1),
                seq: 0,
            },
        );
        p.on_send_abandoned(&ProtoMsg::DoppIdRequest {
            job: JobId(3),
            peer: 7,
        });
        assert_eq!(p.pending_counts(), (0, 0, 0));
    }

    #[test]
    fn abandoned_unrelated_message_is_a_noop() {
        let mut p = peer();
        p.on_send_abandoned(&ProtoMsg::Ack { seq: 0 });
        assert_eq!(p.pending_counts(), (0, 0, 0));
        assert!(p.rejected.is_empty());
    }
}
