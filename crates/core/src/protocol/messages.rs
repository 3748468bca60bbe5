//! The unified §3.2 protocol message set.
//!
//! One enum serves both backends: the discrete-event simulator carries
//! [`ProtoMsg`] values in memory, the TCP deployment serializes them as
//! internally-tagged JSON (`{"type": "coord_request", ...}`) inside
//! length-prefixed frames. This replaces the old parallel pair of
//! `system::Msg` (sim-only) and `wire::proto::WireMsg` (TCP-only),
//! which had already drifted apart.

use serde::{Deserialize, Serialize};

use sheriff_html::tagspath::TagsPath;
use sheriff_market::{CookieJar, ProductId};

use crate::coordinator::{JobId, PeerId};
use crate::doppelganger::DoppelgangerId;
use crate::measurement::VantageMeta;
use crate::protocol::{Address, Digest};
use crate::records::{PriceCheck, PriceObservation};

/// Every message of the §3.2 price-check protocol, plus the deployment
/// control plane (shutdown, server administration).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ProtoMsg {
    /// User highlighted a price (injected at the initiating add-on).
    StartCheck {
        /// Retailer domain.
        domain: String,
        /// Product to check.
        product: ProductId,
        /// Initiator-local request tag.
        local_tag: u64,
    },
    /// Add-on → Coordinator (step 1).
    CoordRequest {
        /// Full product URL.
        url: String,
        /// Requesting peer.
        peer: PeerId,
        /// Echoed tag.
        local_tag: u64,
    },
    /// Coordinator → add-on (step 2).
    CoordAssign {
        /// Minted job.
        job: JobId,
        /// Chosen Measurement server.
        server: Address,
        /// Echoed tag.
        local_tag: u64,
    },
    /// Coordinator → add-on: request refused.
    CoordReject {
        /// Echoed tag.
        local_tag: u64,
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Coordinator → Measurement server (step 1.1).
    PpcList {
        /// Job the list belongs to.
        job: JobId,
        /// Same-location peers to ask.
        ppcs: Vec<Address>,
    },
    /// Add-on → Measurement server (step 3).
    JobSubmit {
        /// Job id.
        job: JobId,
        /// Retailer domain.
        domain: String,
        /// Product.
        product: ProductId,
        /// The Tags Path built at selection time.
        tags_path: TagsPath,
        /// The initiator's own page (DiffStorage base).
        initiator_html: String,
        /// The initiator's own observation.
        initiator_obs: Box<PriceObservation>,
    },
    /// Measurement server → proxy (steps 3.1/3.2).
    FetchOrder {
        /// Job id.
        job: JobId,
        /// Retailer domain.
        domain: String,
        /// Product.
        product: ProductId,
        /// Per-vantage request sequence (drives per-request A/B arms).
        seq: u64,
    },
    /// Proxy → Measurement server.
    FetchReply {
        /// Job id.
        job: JobId,
        /// Vantage metadata.
        meta: VantageMeta,
        /// Fetched HTML.
        html: String,
    },
    /// PPC → Aggregator (step 3.3).
    DoppIdRequest {
        /// Job the fetch belongs to.
        job: JobId,
        /// Requesting peer.
        peer: u64,
    },
    /// Aggregator → PPC.
    DoppIdReply {
        /// Job echo.
        job: JobId,
        /// The bearer token, if the peer is clustered.
        token: Option<DoppelgangerId>,
    },
    /// PPC → Coordinator (step 3.4, anonymized in deployment).
    DoppStateRequest {
        /// Job echo.
        job: JobId,
        /// Bearer token.
        token: DoppelgangerId,
        /// Domain the fetch targets (budget accounting).
        domain: String,
    },
    /// Coordinator → PPC.
    DoppStateReply {
        /// Job echo.
        job: JobId,
        /// Client-side state, if the token was valid.
        state: Option<CookieJar>,
    },
    /// Coordinator → Aggregator: a token rotated after regeneration.
    TokenRotated {
        /// Old token.
        old: DoppelgangerId,
        /// New token.
        new: DoppelgangerId,
    },
    /// Measurement server → Database server (step 4, v2 only).
    StoreCheck {
        /// Job id.
        job: JobId,
        /// The assembled check.
        check: Box<PriceCheck>,
    },
    /// Database server → Measurement server.
    DbAck {
        /// Job id.
        job: JobId,
    },
    /// Measurement server → Coordinator (Fig. 6 step 4).
    JobComplete {
        /// Finished job.
        job: JobId,
    },
    /// Measurement server → add-on (step 5).
    Results {
        /// Job id.
        job: JobId,
        /// The full result set (the Fig. 2 page's data).
        check: Box<PriceCheck>,
    },
    /// Measurement server → Coordinator liveness.
    Heartbeat {
        /// Index in the Coordinator's server list.
        server_index: usize,
    },
    /// Admin → Coordinator: decommission a Measurement server. The
    /// Coordinator refuses while the server's job queue is non-empty.
    RemoveServer {
        /// Index in the Coordinator's server list.
        index: usize,
    },
    /// Coordinator → admin: outcome of a [`ProtoMsg::RemoveServer`].
    ServerRemoved {
        /// Echoed index.
        index: usize,
        /// Whether the server was actually taken offline.
        removed: bool,
    },
    /// Measurement server → Coordinator: a peer crossed the local
    /// misbehavior threshold (see [`crate::protocol::defense`]). Rides
    /// the reliable channel so a lossy link cannot lose the escalation.
    MisbehaviorReport {
        /// The misbehaving peer.
        peer: u64,
        /// The reporting book's score at quarantine time.
        score: u32,
    },
    /// Coordinator → peer: the peer has been quarantined deployment-wide
    /// (its requests are refused and it is excluded from PPC lists until
    /// parole).
    QuarantineNotice {
        /// The quarantined peer (echoed so an add-on can display it).
        peer: u64,
    },
    /// At-least-once envelope: `inner` rides under a per-sender sequence
    /// number so the receiver can acknowledge and deduplicate retransmits
    /// (see [`crate::protocol::reliable`]).
    Reliable {
        /// Per-sender sequence number.
        seq: u64,
        /// The wrapped control message.
        inner: Box<ProtoMsg>,
    },
    /// Receiver → sender: a [`ProtoMsg::Reliable`] envelope arrived.
    Ack {
        /// Acknowledged sequence number.
        seq: u64,
    },
}

impl ProtoMsg {
    /// Folds the message's logical content into a model-checker state
    /// digest: a discriminant tag followed by every field,
    /// length-delimited (see [`crate::protocol::Digest`]).
    ///
    /// Structural rather than `Debug`-formatted on purpose — the model
    /// checker fingerprints every in-flight envelope on every explored
    /// transition, and formatting full messages dominated its profile.
    #[allow(clippy::too_many_lines)] // one arm per variant, all trivial
    pub fn fold_digest(&self, d: &mut Digest) {
        match self {
            ProtoMsg::StartCheck {
                domain,
                product,
                local_tag,
            } => {
                d.write_u64(0);
                d.write_str(domain);
                d.write_u64(u64::from(product.0));
                d.write_u64(*local_tag);
            }
            ProtoMsg::CoordRequest {
                url,
                peer,
                local_tag,
            } => {
                d.write_u64(1);
                d.write_str(url);
                d.write_u64(peer.0);
                d.write_u64(*local_tag);
            }
            ProtoMsg::CoordAssign {
                job,
                server,
                local_tag,
            } => {
                d.write_u64(2);
                d.write_u64(job.0);
                server.fold_digest(d);
                d.write_u64(*local_tag);
            }
            ProtoMsg::CoordReject { local_tag, reason } => {
                d.write_u64(3);
                d.write_u64(*local_tag);
                d.write_str(reason);
            }
            ProtoMsg::PpcList { job, ppcs } => {
                d.write_u64(4);
                d.write_u64(job.0);
                d.write_u64(ppcs.len() as u64);
                for p in ppcs {
                    p.fold_digest(d);
                }
            }
            ProtoMsg::JobSubmit {
                job,
                domain,
                product,
                tags_path,
                initiator_html,
                initiator_obs,
            } => {
                d.write_u64(5);
                d.write_u64(job.0);
                d.write_str(domain);
                d.write_u64(u64::from(product.0));
                fold_tags_path(tags_path, d);
                d.write_str(initiator_html);
                fold_observation(initiator_obs, d);
            }
            ProtoMsg::FetchOrder {
                job,
                domain,
                product,
                seq,
            } => {
                d.write_u64(6);
                d.write_u64(job.0);
                d.write_str(domain);
                d.write_u64(u64::from(product.0));
                d.write_u64(*seq);
            }
            ProtoMsg::FetchReply { job, meta, html } => {
                d.write_u64(7);
                d.write_u64(job.0);
                fold_vantage_meta(meta, d);
                d.write_str(html);
            }
            ProtoMsg::DoppIdRequest { job, peer } => {
                d.write_u64(8);
                d.write_u64(job.0);
                d.write_u64(*peer);
            }
            ProtoMsg::DoppIdReply { job, token } => {
                d.write_u64(9);
                d.write_u64(job.0);
                d.write_bool(token.is_some());
                if let Some(t) = token {
                    d.write_bytes(&t.0);
                }
            }
            ProtoMsg::DoppStateRequest { job, token, domain } => {
                d.write_u64(10);
                d.write_u64(job.0);
                d.write_bytes(&token.0);
                d.write_str(domain);
            }
            ProtoMsg::DoppStateReply { job, state } => {
                d.write_u64(11);
                d.write_u64(job.0);
                d.write_bool(state.is_some());
                if let Some(jar) = state {
                    // CookieJar keeps its store private and iterates
                    // deterministically (BTreeMap), so its Debug
                    // rendering is a stable, if slower, encoding. The
                    // variant never rides the checker's hot paths.
                    d.write_str(&format!("{jar:?}"));
                }
            }
            ProtoMsg::TokenRotated { old, new } => {
                d.write_u64(12);
                d.write_bytes(&old.0);
                d.write_bytes(&new.0);
            }
            ProtoMsg::StoreCheck { job, check } => {
                d.write_u64(13);
                d.write_u64(job.0);
                fold_check(check, d);
            }
            ProtoMsg::DbAck { job } => {
                d.write_u64(14);
                d.write_u64(job.0);
            }
            ProtoMsg::JobComplete { job } => {
                d.write_u64(15);
                d.write_u64(job.0);
            }
            ProtoMsg::Results { job, check } => {
                d.write_u64(16);
                d.write_u64(job.0);
                fold_check(check, d);
            }
            ProtoMsg::Heartbeat { server_index } => {
                d.write_u64(17);
                d.write_u64(*server_index as u64);
            }
            ProtoMsg::RemoveServer { index } => {
                d.write_u64(18);
                d.write_u64(*index as u64);
            }
            ProtoMsg::ServerRemoved { index, removed } => {
                d.write_u64(19);
                d.write_u64(*index as u64);
                d.write_bool(*removed);
            }
            ProtoMsg::MisbehaviorReport { peer, score } => {
                d.write_u64(20);
                d.write_u64(*peer);
                d.write_u64(u64::from(*score));
            }
            ProtoMsg::QuarantineNotice { peer } => {
                d.write_u64(21);
                d.write_u64(*peer);
            }
            ProtoMsg::Reliable { seq, inner } => {
                d.write_u64(22);
                d.write_u64(*seq);
                inner.fold_digest(d);
            }
            ProtoMsg::Ack { seq } => {
                d.write_u64(23);
                d.write_u64(*seq);
            }
        }
    }
}

fn fold_tags_path(path: &TagsPath, d: &mut Digest) {
    d.write_u64(path.steps.len() as u64);
    for step in &path.steps {
        d.write_str(&step.name);
        d.write_bool(step.class.is_some());
        if let Some(c) = &step.class {
            d.write_str(c);
        }
        d.write_bool(step.id_attr.is_some());
        if let Some(i) = &step.id_attr {
            d.write_str(i);
        }
        d.write_u64(step.nth_of_name as u64);
    }
}

fn fold_vantage_meta(meta: &VantageMeta, d: &mut Digest) {
    d.write_u64(match meta.kind {
        crate::records::VantageKind::Initiator => 0,
        crate::records::VantageKind::Ipc => 1,
        crate::records::VantageKind::Ppc => 2,
    });
    d.write_u64(meta.id);
    d.write_u64(meta.country.index() as u64);
    d.write_bool(meta.city.is_some());
    if let Some(c) = &meta.city {
        d.write_str(c);
    }
    d.write_u64(u64::from(meta.ip.0));
}

fn fold_observation(obs: &PriceObservation, d: &mut Digest) {
    d.write_u64(match obs.vantage {
        crate::records::VantageKind::Initiator => 0,
        crate::records::VantageKind::Ipc => 1,
        crate::records::VantageKind::Ppc => 2,
    });
    d.write_u64(obs.vantage_id);
    d.write_u64(obs.country.index() as u64);
    d.write_bool(obs.city.is_some());
    if let Some(c) = &obs.city {
        d.write_str(c);
    }
    d.write_u64(u64::from(obs.ip.0));
    d.write_str(&obs.raw_text);
    d.write_str(&obs.currency);
    d.write_u64(obs.amount.to_bits());
    d.write_u64(obs.amount_eur.to_bits());
    d.write_bool(obs.low_confidence);
    d.write_bool(obs.failed);
}

fn fold_check(check: &PriceCheck, d: &mut Digest) {
    d.write_u64(check.job_id);
    d.write_str(&check.domain);
    d.write_str(&check.url);
    d.write_u64(u64::from(check.day));
    d.write_u64(check.observations.len() as u64);
    for obs in &check.observations {
        fold_observation(obs, d);
    }
}
