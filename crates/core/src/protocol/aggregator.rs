//! Aggregator role: peer→cluster directory and bearer-token custody
//! (the §3.3 split of identity from state).

use crate::doppelganger::{AggregatorDirectory, DoppelgangerId};
use crate::protocol::{Address, Output, ProtoMsg};

/// The Aggregator as a sans-IO state machine.
pub struct AggregatorProto {
    /// Peer→cluster assignments and per-cluster tokens.
    pub directory: AggregatorDirectory,
    /// Token list mirroring the directory's cluster order.
    pub tokens: Vec<DoppelgangerId>,
}

#[deny(clippy::wildcard_enum_match_arm)]
impl AggregatorProto {
    /// An empty directory (no clustered peers yet).
    pub fn new() -> Self {
        AggregatorProto {
            directory: AggregatorDirectory::new(&[], Vec::new()),
            tokens: Vec::new(),
        }
    }

    /// Installs a trained peer→cluster mapping with its tokens.
    pub fn install(&mut self, assignments: &[(u64, usize)], tokens: Vec<DoppelgangerId>) {
        self.directory = AggregatorDirectory::new(assignments, tokens.clone());
        self.tokens = tokens;
    }

    /// Feeds one delivered message; commands come back through `out`.
    pub fn on_message(&mut self, from: Address, msg: ProtoMsg, out: &mut Vec<Output>) {
        match msg {
            ProtoMsg::DoppIdRequest { job, peer } => {
                let token = self.directory.token_for(peer);
                out.push(Output::send(from, ProtoMsg::DoppIdReply { job, token }));
            }
            ProtoMsg::TokenRotated { old, new } => {
                if let Some((pos, slot)) =
                    self.tokens.iter_mut().enumerate().find(|(_, t)| **t == old)
                {
                    *slot = new;
                    self.directory.update_token(pos, new);
                }
            }
            // For another role, the channel or the driver.
            ProtoMsg::StartCheck { .. }
            | ProtoMsg::CoordRequest { .. }
            | ProtoMsg::CoordAssign { .. }
            | ProtoMsg::CoordReject { .. }
            | ProtoMsg::PpcList { .. }
            | ProtoMsg::JobSubmit { .. }
            | ProtoMsg::FetchOrder { .. }
            | ProtoMsg::FetchReply { .. }
            | ProtoMsg::DoppIdReply { .. }
            | ProtoMsg::DoppStateRequest { .. }
            | ProtoMsg::DoppStateReply { .. }
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
            | ProtoMsg::Ack { .. }
            | ProtoMsg::Shutdown => {}
        }
    }
}

impl Default for AggregatorProto {
    fn default() -> Self {
        AggregatorProto::new()
    }
}
