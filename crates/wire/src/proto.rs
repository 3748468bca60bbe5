//! The §3.2 protocol on the wire: the *same* [`ProtoMsg`] enum the
//! discrete-event simulation delivers, JSON-encoded inside a
//! length-prefixed frame and wrapped in an [`Envelope`] that carries the
//! sender's logical [`Address`].
//!
//! There is deliberately no wire-only message set any more: both backends
//! speak `sheriff_core::protocol::ProtoMsg`, so the TCP deployment cannot
//! drift from the simulated protocol.

use serde::{Deserialize, Serialize};

use sheriff_core::protocol::{Address, ProtoMsg};
use sheriff_core::records::{PriceCheck, VantageKind};

use crate::frame::{read_frame, write_frame, FrameError};
use crate::telemetry::WireTelemetry;

/// One framed protocol message plus its sender. Over TCP a shard's
/// stream to a node carries the frames of every node on that shard, so
/// the source socket address does not name the sender; the logical
/// sender rides inside the frame instead (the discrete-event backend gets
/// the same information from the simulator's delivery metadata).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Logical sender.
    pub from: Address,
    /// The protocol message.
    pub msg: ProtoMsg,
}

impl Envelope {
    /// Writes self as one frame.
    pub fn send<W: std::io::Write>(&self, w: &mut W) -> Result<(), FrameError> {
        let payload = serde_json::to_vec(self).expect("Envelope serializes");
        write_frame(w, &payload)
    }

    /// Writes self as one frame, recording it in the wire counters.
    pub fn send_counted<W: std::io::Write>(
        &self,
        w: &mut W,
        telemetry: &WireTelemetry,
    ) -> Result<(), FrameError> {
        let payload = serde_json::to_vec(self).expect("Envelope serializes");
        write_frame(w, &payload)?;
        telemetry.sent(payload.len());
        Ok(())
    }

    /// Reads one envelope; `Ok(None)` on clean EOF.
    pub fn recv<R: std::io::Read>(r: &mut R) -> Result<Option<Envelope>, FrameError> {
        let Some(payload) = read_frame(r)? else {
            return Ok(None);
        };
        serde_json::from_slice(&payload).map(Some).map_err(|e| {
            FrameError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad message: {e}"),
            ))
        })
    }
}

/// One Fig. 2 result row — the wire deployment's user-facing view of a
/// [`PriceObservation`](sheriff_core::records::PriceObservation).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultRow {
    /// Vantage label, e.g. `"IPC US/Tennessee"` or `"peer 12 (Spain)"`.
    pub label: String,
    /// The raw extracted price text.
    pub original: String,
    /// Converted value in the requested currency.
    pub converted: f64,
    /// Currency-detection confidence was low (red asterisk).
    pub low_confidence: bool,
}

/// Renders a completed check as Fig. 2 result rows (failed observations
/// are dropped, as the result page only lists fetched prices).
pub fn rows_from_check(check: &PriceCheck) -> Vec<ResultRow> {
    check
        .valid()
        .map(|o| ResultRow {
            label: match o.vantage {
                VantageKind::Initiator => "You".to_string(),
                VantageKind::Ipc => match &o.city {
                    Some(city) => format!("IPC {}/{city}", o.country.code()),
                    None => format!("IPC {}", o.country.code()),
                },
                VantageKind::Ppc => format!("peer {} ({})", o.vantage_id, o.country.name()),
            },
            original: o.raw_text.clone(),
            converted: o.amount_eur,
            low_confidence: o.low_confidence,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_core::coordinator::{JobId, PeerId};
    use sheriff_market::ProductId;
    use std::io::Cursor;

    #[test]
    fn json_roundtrip_through_frames() {
        let msgs = vec![
            Envelope {
                from: Address::Peer { id: 7 },
                msg: ProtoMsg::CoordRequest {
                    url: "shop.com/product/1".into(),
                    peer: PeerId(7),
                    local_tag: 3,
                },
            },
            Envelope {
                from: Address::Coordinator,
                msg: ProtoMsg::CoordAssign {
                    job: JobId(1),
                    server: Address::Server { index: 0 },
                    local_tag: 3,
                },
            },
            Envelope {
                from: Address::Server { index: 0 },
                msg: ProtoMsg::FetchOrder {
                    job: JobId(1),
                    domain: "shop.com".into(),
                    product: ProductId(3),
                    seq: 142,
                },
            },
            Envelope {
                from: Address::Coordinator,
                msg: ProtoMsg::Shutdown,
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            m.send(&mut buf).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for expect in &msgs {
            let got = Envelope::recv(&mut cur).unwrap().unwrap();
            assert_eq!(&got, expect);
        }
        assert!(Envelope::recv(&mut cur).unwrap().is_none());
    }

    #[test]
    fn garbage_payload_is_an_error() {
        let mut buf = Vec::new();
        crate::frame::write_frame(&mut buf, b"not json").unwrap();
        let mut cur = Cursor::new(buf);
        assert!(Envelope::recv(&mut cur).is_err());
    }

    #[test]
    fn json_is_tagged_snake_case() {
        let m = Envelope {
            from: Address::Peer { id: 1 },
            msg: ProtoMsg::StartCheck {
                domain: "a.example".into(),
                product: ProductId(0),
                local_tag: 1,
            },
        };
        let json = serde_json::to_string(&m).unwrap();
        assert!(json.contains("\"type\":\"start_check\""), "{json}");
        assert!(json.contains("\"role\":\"peer\""), "{json}");
    }
}
