//! Per-connection state machines for the reactor.
//!
//! The transport contract is one [`Envelope`] per connection,
//! connect–write–close. Both directions are nonblocking and
//! incremental, so a shard's event loop is never parked on a socket:
//!
//! * [`Inbound`] feeds each readiness burst to the crate's one
//!   [`FrameAssembler`] — the byte rule the blocking `read_frame` runs
//!   on too — and surfaces the finished frame as an [`InboundEvent`];
//! * [`Outbound`] holds one already-encoded frame and flushes it as the
//!   socket accepts bytes, counting it in the wire telemetry only once
//!   the final byte is written (the same point the blocking
//!   `send_counted` path counts at).
//!
//! This file is inside the `sheriff-lint` panic-freedom scope: every
//! slice access goes through `get`, every fallible call is handled.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

use sheriff_netsim::CodecAttack;

use crate::frame::{encode_frame, FrameAssembler, MAX_FRAME_LEN, READ_CHUNK};
use crate::proto::Envelope;
use crate::telemetry::WireTelemetry;

/// How long a silent inbound connection may sit before the reactor reaps it.
pub(crate) const IDLE_CONN_MS: u64 = 5_000;

/// What one pump pass over an [`Inbound`] connection produced.
pub(crate) enum InboundEvent {
    /// Nothing new yet; keep the connection registered.
    Pending,
    /// One full envelope arrived. The connection is finished with it
    /// (the transport is one frame per connection).
    Frame(Box<Envelope>),
    /// The connection is over: EOF, an oversized length prefix, a
    /// payload that failed to parse, or a transport error — all the
    /// transport's problem, not the protocol's.
    Closed,
}

/// Incremental reader for one length-prefixed frame on a nonblocking
/// stream.
pub(crate) struct Inbound {
    stream: TcpStream,
    /// Local slot of the node whose listener accepted the stream.
    pub(crate) slot: usize,
    /// Virtual-ms timestamp of the accept, for idle reaping.
    pub(crate) opened_ms: u64,
    frame: FrameAssembler,
}

impl Inbound {
    pub(crate) fn new(stream: TcpStream, slot: usize, opened_ms: u64) -> Inbound {
        Inbound {
            stream,
            slot,
            opened_ms,
            frame: FrameAssembler::default(),
        }
    }

    /// Drains whatever the socket has ready right now and returns the
    /// connection's new state. Reads by the chunk, not by the
    /// assembler's exact `wants()`: one read per burst instead of one
    /// for the prefix and one for the payload.
    pub(crate) fn pump(&mut self, wire: &WireTelemetry) -> InboundEvent {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.frame.take() {
                Ok(None) => {}
                Ok(Some(payload)) => {
                    // Counted once whole: the bytes arrived even if the
                    // payload then fails to parse.
                    wire.received(payload.len());
                    return match serde_json::from_slice::<Envelope>(&payload) {
                        Ok(env) => InboundEvent::Frame(Box::new(env)),
                        Err(_) => InboundEvent::Closed,
                    };
                }
                // A length prefix past the cap.
                Err(_) => return InboundEvent::Closed,
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return InboundEvent::Closed,
                Ok(n) => self.frame.feed(chunk.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return InboundEvent::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return InboundEvent::Closed,
            }
        }
    }
}

/// What one pump pass over an [`Outbound`] connection produced.
pub(crate) enum OutboundEvent {
    /// The socket is full; try again next iteration.
    Pending,
    /// The whole frame is on the wire (and counted); close the stream.
    Done,
    /// The destination vanished mid-write (a post-shutdown send). The
    /// frame is dropped silently and *uncounted*.
    Failed,
}

/// Incremental writer for one already-encoded frame on a nonblocking
/// stream.
pub(crate) struct Outbound {
    stream: TcpStream,
    frame: Vec<u8>,
    written: usize,
    payload_len: usize,
}

impl Outbound {
    /// Encodes `env` and opens a connection toward `addr`. The connect
    /// itself is the kernel's three-way handshake against a loopback
    /// listener's accept queue — it completes immediately whether or not
    /// the destination shard has accepted yet, so the event loop is not
    /// stalled. `None` means the destination is gone (or the envelope is
    /// oversized); the caller drops the frame.
    pub(crate) fn open(addr: SocketAddr, env: &Envelope) -> Option<Outbound> {
        let payload = serde_json::to_vec(env).ok()?;
        let frame = encode_frame(&payload).ok()?.into();
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(Outbound {
            stream,
            frame,
            written: 0,
            payload_len: payload.len(),
        })
    }

    /// Pushes as many bytes as the socket will take.
    pub(crate) fn pump(&mut self, wire: &WireTelemetry) -> OutboundEvent {
        while self.written < self.frame.len() {
            let rest = self.frame.get(self.written..).unwrap_or(&[]);
            match self.stream.write(rest) {
                Ok(0) => return OutboundEvent::Failed,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return OutboundEvent::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return OutboundEvent::Failed,
            }
        }
        wire.sent(self.payload_len);
        OutboundEvent::Done
    }
}

/// A deliberately malformed outbound connection — the byte-level half of
/// a Byzantine codec attack. Never counted in the wire telemetry (the
/// bytes are not protocol frames) and never part of a link FIFO (the
/// DES twin drops the message outright, so attack traffic must not
/// delay the attacker's own honest sends).
pub(crate) struct RawOutbound {
    stream: TcpStream,
    frame: Vec<u8>,
    written: usize,
    /// Slow-loris: once flushed, the connection is parked open and
    /// silent so the victim's idle reaping is what ends it.
    hold_open: bool,
}

impl RawOutbound {
    /// Builds the attack bytes and opens the connection. `occurrence`
    /// (the link's message counter at decision time) varies the garbage
    /// so repeated attacks are not byte-identical.
    pub(crate) fn open(
        addr: SocketAddr,
        attack: CodecAttack,
        occurrence: u64,
    ) -> Option<RawOutbound> {
        let (frame, hold_open) = match attack {
            CodecAttack::Garbage => {
                // An honest length prefix over bytes that can never
                // parse as a JSON envelope (high bit set throughout).
                let mut f = Vec::with_capacity(4 + 64);
                f.extend_from_slice(&64u32.to_be_bytes());
                f.extend(
                    (0..64u8).map(|i| (occurrence as u8).wrapping_mul(31).wrapping_add(i) | 0x80),
                );
                (f, false)
            }
            CodecAttack::Oversize => {
                // A lying length field one past the cap; the receiver
                // must refuse before allocating anything of that size.
                (((MAX_FRAME_LEN as u32) + 1).to_be_bytes().to_vec(), false)
            }
            CodecAttack::SlowLoris => {
                // Announce a frame, deliver eight bytes of it, go quiet.
                let mut f = Vec::with_capacity(4 + 8);
                f.extend_from_slice(&256u32.to_be_bytes());
                f.extend_from_slice(&occurrence.to_be_bytes());
                (f, true)
            }
        };
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_nonblocking(true).ok()?;
        Some(RawOutbound {
            stream,
            frame,
            written: 0,
            hold_open,
        })
    }

    /// Pushes attack bytes. `Some(true)` made progress, `Some(false)`
    /// is pending or parked, `None` retires the connection.
    pub(crate) fn pump(&mut self) -> Option<bool> {
        let mut progressed = false;
        while self.written < self.frame.len() {
            let rest = self.frame.get(self.written..).unwrap_or(&[]);
            match self.stream.write(rest) {
                Ok(0) => return None,
                Ok(n) => {
                    self.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Some(progressed),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        if self.hold_open {
            // Flushed and parked: the victim's idle reap closes it.
            Some(progressed)
        } else {
            None
        }
    }
}
