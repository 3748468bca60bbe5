//! The reactor's two stream ends. Between nodes the transport is one
//! long-lived stream per (shard, destination node) with length-prefixed
//! frames back to back, so a shard's sends to one node keep their order.
//! Both ends are nonblocking and incremental: a shard's event loop never
//! parks on a socket.
//!
//! * [`OutLink`] connects on its first bytes, keeps what is not yet
//!   written in one buffer that each sweep offers the socket in one
//!   `write`, and counts a frame once its last byte is written. A
//!   Byzantine codec attack is an `OutLink` of its own whose bytes count
//!   as no frame.
//! * [`Inbound`] keeps one [`FrameAssembler`] — the byte rule `read_frame`
//!   runs on too — for the life of an accepted stream, and hands on every
//!   whole frame in stream order.
//!
//! Like the rest of the crate (see its root), this file cannot panic:
//! every slice access goes through `get`, every fallible call is handled.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use sheriff_netsim::CodecAttack;

use crate::frame::{FrameAssembler, MAX_FRAME_LEN};
use crate::proto::Envelope;
use crate::telemetry::WireTelemetry;

/// How long an inbound stream may sit silent since its accept, or stalled
/// mid-frame, before the reactor reaps it.
pub(crate) const IDLE_CONN_MS: u64 = 5_000;

/// The receiving end of one accepted stream.
pub(crate) struct Inbound {
    stream: TcpStream,
    /// Local slot of the node whose listener accepted the stream.
    pub(crate) slot: usize,
    frame: FrameAssembler,
    /// At least one whole frame arrived.
    framed: bool,
    /// Virtual ms the idle clock runs from: the accept, then the last
    /// pump that left a framed stream on a frame boundary.
    idle_since: u64,
}

impl Inbound {
    pub(crate) fn new(stream: TcpStream, slot: usize, now_ms: u64) -> Inbound {
        Inbound {
            stream,
            slot,
            frame: FrameAssembler::default(),
            framed: false,
            idle_since: now_ms,
        }
    }

    /// Drains what the socket has ready through `chunk` and appends every
    /// whole envelope to `out`, in stream order. `false` once the stream
    /// is over — EOF, an oversized length prefix, a payload that fails to
    /// parse, a transport error — with the frames ahead of that point in
    /// `out` all the same.
    pub(crate) fn pump(
        &mut self,
        now_ms: u64,
        chunk: &mut [u8],
        wire: &WireTelemetry,
        out: &mut Vec<Envelope>,
    ) -> bool {
        let open = loop {
            while let Some(payload) = self.frame.next().ok().flatten() {
                // Counted once whole, even if it then fails to parse.
                wire.received(payload.len());
                self.framed = true;
                match serde_json::from_slice::<Envelope>(payload) {
                    Ok(env) => out.push(env),
                    Err(_) => return false,
                }
            }
            // Nothing wanted with nothing to take: a length prefix past
            // the cap, and the stream is unusable.
            if self.frame.wants() == 0 {
                return false;
            }
            match self.stream.read(chunk) {
                Ok(0) => break false,
                Ok(n) => self.frame.feed(chunk.get(..n).unwrap_or(&[])),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        if self.framed && self.frame.is_empty() {
            self.idle_since = now_ms;
        }
        open
    }

    /// Whether the idle reaper closes this stream at `now_ms`: it has
    /// completed no frame since its accept (a silent client) or sits
    /// mid-frame (a slow loris), and has for longer than
    /// [`IDLE_CONN_MS`]. A stream at rest on a frame boundary after a
    /// frame is never reaped: its sender may write the next frame at any
    /// moment, and closing under it would lose that frame with no error
    /// on either side.
    pub(crate) fn idle_expired(&self, now_ms: u64) -> bool {
        let at_rest = self.framed && self.frame.is_empty();
        !at_rest && now_ms.saturating_sub(self.idle_since) > IDLE_CONN_MS
    }
}

/// What one [`OutLink::flush`] did.
#[derive(Default)]
pub(crate) struct Flushed {
    /// The link opened its stream.
    pub(crate) connected: bool,
    /// Frames whose last byte was written, now counted.
    pub(crate) frames: usize,
    /// Frames dropped uncounted: the destination is gone, or the stream
    /// broke under them.
    pub(crate) dropped: usize,
}

/// The sending end of a stream toward one node.
#[derive(Default)]
pub(crate) struct OutLink {
    stream: Option<TcpStream>,
    /// Bytes not yet written.
    pending: Vec<u8>,
    /// End offset in `pending` and payload length of each frame in it.
    ends: VecDeque<(usize, usize)>,
    /// The write half is shut.
    closed: bool,
}

impl OutLink {
    /// A link carrying one codec attack: bytes a receiver must refuse
    /// (garbage, a length past the cap) or a frame begun and left hanging
    /// (a slow loris). `occurrence` varies the garbage.
    pub(crate) fn attack(attack: CodecAttack, occurrence: u64) -> OutLink {
        let pending = match attack {
            CodecAttack::Garbage => 64u32
                .to_be_bytes()
                .into_iter()
                .chain(
                    (0..64u8).map(|i| (occurrence as u8).wrapping_mul(31).wrapping_add(i) | 0x80),
                )
                .collect(),
            CodecAttack::Oversize => ((MAX_FRAME_LEN as u32) + 1).to_be_bytes().to_vec(),
            CodecAttack::SlowLoris => 256u32
                .to_be_bytes()
                .into_iter()
                .chain(occurrence.to_be_bytes())
                .collect(),
        };
        OutLink {
            pending,
            ..OutLink::default()
        }
    }

    /// Queues `copies` frames of `env`: encoded once, straight into the
    /// link's buffer, and copied byte for byte from there. An envelope
    /// too large for a frame is dropped.
    pub(crate) fn push(&mut self, env: &Envelope, copies: usize) {
        if copies == 0 {
            return;
        }
        let start = self.pending.len();
        let Ok(len) = env.append_frame(&mut self.pending) else {
            return;
        };
        let end = self.pending.len();
        self.ends.push_back((end, len));
        for _ in 1..copies {
            self.pending.extend_from_within(start..end);
            self.ends.push_back((self.pending.len(), len));
        }
    }

    /// Frames queued and not yet wholly written.
    pub(crate) fn queued(&self) -> usize {
        self.ends.len()
    }

    /// Nothing is left to write.
    pub(crate) fn is_flushed(&self) -> bool {
        self.pending.is_empty()
    }

    /// Connects toward `addr` if the link has no stream — the handshake
    /// completes against a loopback listener's accept queue whether or not
    /// the destination shard has accepted — then offers the socket
    /// everything pending. A destination that is gone, or a stream that
    /// breaks (EPIPE, reset: a send after the destination shut down),
    /// drops the unwritten frames uncounted and closes the stream; the
    /// next frame connects afresh.
    pub(crate) fn flush(&mut self, addr: Option<SocketAddr>, wire: &WireTelemetry) -> Flushed {
        let mut done = Flushed::default();
        if self.pending.is_empty() {
            return done;
        }
        if self.stream.is_none() {
            // No Nagle: a frame behind an unacknowledged one must not wait
            // for the receiver's delayed ACK.
            self.stream = addr.and_then(|a| {
                let s = TcpStream::connect(a).ok()?;
                s.set_nonblocking(true).ok()?;
                s.set_nodelay(true).ok()?;
                Some(s)
            });
            done.connected = self.stream.is_some();
        }
        let (mut written, mut broken) = (0, self.stream.is_none());
        while let Some(stream) = self
            .stream
            .as_mut()
            .filter(|_| written < self.pending.len())
        {
            match stream.write(self.pending.get(written..).unwrap_or_default()) {
                Ok(n) if n > 0 => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Ok(_) | Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        while let Some(&(_, len)) = self.ends.front().filter(|(end, _)| *end <= written) {
            self.ends.pop_front();
            wire.sent(len);
            done.frames += 1;
        }
        if broken {
            done.dropped = self.ends.len();
            self.ends.clear();
            self.pending.clear();
            self.stream = None;
        } else if written > 0 {
            self.pending.drain(..written);
            self.ends.iter_mut().for_each(|(end, _)| *end -= written);
        }
        done
    }

    /// Shuts the write half once nothing is pending, so the receiver
    /// reads EOF after the last frame. `true` when the link is finished.
    pub(crate) fn finish(&mut self) -> bool {
        if !self.pending.is_empty() {
            return false;
        }
        if let Some(stream) = self.stream.as_ref().filter(|_| !self.closed) {
            let _ = stream.shutdown(Shutdown::Write);
        }
        self.closed = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    use sheriff_core::protocol::{Address, ProtoMsg};
    use sheriff_market::ProductId;
    use sheriff_telemetry::Registry;

    use crate::frame::READ_CHUNK;

    /// A connected loopback pair, both ends nonblocking.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        for s in [&client, &server] {
            s.set_nonblocking(true).expect("nonblocking");
        }
        (client, server)
    }

    fn wire() -> WireTelemetry {
        WireTelemetry::new(&Arc::new(Registry::new()))
    }

    fn start(tag: u64, domain_len: usize) -> Envelope {
        Envelope {
            from: Address::Peer { id: tag },
            msg: ProtoMsg::StartCheck {
                domain: "d".repeat(domain_len),
                product: ProductId(0),
                local_tag: tag,
            },
        }
    }

    /// Pumps `conn` at `now_ms` until `done` holds; loopback delivers
    /// what was written at once, so this spins a few rounds at most.
    fn pump_until(
        conn: &mut Inbound,
        now_ms: u64,
        out: &mut Vec<Envelope>,
        done: impl Fn(&Inbound, &[Envelope]) -> bool,
    ) {
        let (mut chunk, wire) = (vec![0; READ_CHUNK], wire());
        for _ in 0..100_000 {
            assert!(conn.pump(now_ms, &mut chunk, &wire, out), "stream closed");
            if done(conn, out) {
                return;
            }
            std::thread::yield_now();
        }
        panic!("bytes written on loopback never arrived");
    }

    fn frame_of(env: &Envelope) -> Vec<u8> {
        let mut frame = Vec::new();
        env.append_frame(&mut frame).expect("fits");
        frame
    }

    #[test]
    fn a_silent_client_is_reaped_after_the_idle_limit() {
        let (_client, server) = pair();
        let mut conn = Inbound::new(server, 0, 1_000);
        pump_until(&mut conn, 1_000, &mut Vec::new(), |_, _| true);
        assert!(!conn.idle_expired(1_000 + IDLE_CONN_MS));
        assert!(conn.idle_expired(1_001 + IDLE_CONN_MS));
    }

    #[test]
    fn a_stream_stalled_mid_frame_is_reaped_after_the_idle_limit() {
        let (mut client, server) = pair();
        let mut conn = Inbound::new(server, 0, 0);
        let mut out = Vec::new();
        client.write_all(&frame_of(&start(1, 8))).expect("write");
        pump_until(&mut conn, 100, &mut out, |_, out| out.len() == 1);
        // Announce the next frame, deliver eight bytes of it, go quiet.
        client
            .write_all(&frame_of(&start(2, 8))[..8])
            .expect("write");
        pump_until(&mut conn, 200, &mut out, |c, _| !c.frame.is_empty());
        assert!(
            !conn.idle_expired(100 + IDLE_CONN_MS),
            "clock runs from 100"
        );
        assert!(conn.idle_expired(101 + IDLE_CONN_MS));
    }

    #[test]
    fn a_stream_at_rest_after_a_frame_is_never_reaped() {
        let (mut client, server) = pair();
        let mut conn = Inbound::new(server, 0, 0);
        client.write_all(&frame_of(&start(1, 8))).expect("write");
        pump_until(&mut conn, 100, &mut Vec::new(), |_, out| out.len() == 1);
        assert!(!conn.idle_expired(100 + IDLE_CONN_MS + 1));
        assert!(!conn.idle_expired(u64::MAX));
    }

    /// Three small frames and one big one in one link buffer: the socket
    /// takes the big one over several writes, each frame is counted when
    /// its last byte is written and not before, and the receiving end
    /// yields all four in order. The big frame is as big as a frame may
    /// be: Linux loopback takes a 2 MiB write whole (≈ 3.9 MB, the
    /// default 4 MB `tcp_wmem` ceiling, went into the first write on a
    /// 6.x kernel), and then nothing is partial.
    #[test]
    fn frames_pipelined_on_one_stream_arrive_in_order_and_count_once_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sent: Vec<Envelope> = vec![
            start(1, 8),
            start(2, 8),
            start(3, 8),
            start(4, MAX_FRAME_LEN - 1024),
        ];
        let mut link = OutLink::default();
        let mut ends = Vec::new();
        for env in &sent {
            link.push(env, 1);
            ends.push(link.pending.len());
        }
        let total = link.pending.len();

        let (registry, mut chunk) = (Arc::new(Registry::new()), vec![0; READ_CHUNK]);
        let (tx, rx) = (WireTelemetry::new(&registry), wire());
        let first = link.flush(Some(addr), &tx);
        assert!(first.connected);
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        let mut conn = Inbound::new(server, 0, 0);

        let (mut got, mut partial_writes) = (Vec::new(), 0);
        let mut flushed = first;
        for _ in 0..100_000 {
            let written = total - link.pending.len();
            let whole = ends.iter().filter(|&&end| end <= written).count();
            assert_eq!(
                tx.frames_out.get(),
                whole as u64,
                "{written} of {total} bytes out"
            );
            assert_eq!(flushed.dropped, 0);
            if (1..total).contains(&written) && link.queued() > 0 {
                partial_writes += 1;
            }
            assert!(conn.pump(0, &mut chunk, &rx, &mut got));
            if got.len() == sent.len() {
                break;
            }
            flushed = link.flush(Some(addr), &tx);
            assert!(!flushed.connected, "one stream for all four frames");
        }
        assert_eq!(got, sent);
        assert_eq!(tx.frames_out.get(), 4);
        assert_eq!(rx.frames_in.get(), 4);
        assert!(partial_writes > 0, "the big frame went out in one write");
    }
}
