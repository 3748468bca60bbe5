//! Frame and byte accounting for the TCP deployment.
//!
//! Every frame the mini-deployment's nodes send — all of it leaves on
//! the reactor's outbound links — and every frame a reactor's inbound
//! stream completes is recorded in one shared [`WireTelemetry`], so over
//! loopback the invariant *frames out == frames in* (and likewise for
//! bytes) holds once the deployment drains — the concurrency tests
//! assert no increments are lost under parallel clients. What the
//! deployment injects from outside is posted to the owning shard, not
//! framed, and counts in neither book.

use std::sync::Arc;

use sheriff_telemetry::{Counter, Registry};

/// Cached counter handles for the wire layer.
#[derive(Debug)]
pub struct WireTelemetry {
    /// Frames written (`wire.frames_out`).
    pub frames_out: Arc<Counter>,
    /// Bytes written including the 4-byte length prefix (`wire.bytes_out`).
    pub bytes_out: Arc<Counter>,
    /// Frames read (`wire.frames_in`).
    pub frames_in: Arc<Counter>,
    /// Bytes read including the length prefix (`wire.bytes_in`).
    pub bytes_in: Arc<Counter>,
    /// Links the reactor connected (`wire.connects`), reconnects included;
    /// Byzantine raw streams are not counted.
    pub connects: Arc<Counter>,
}

impl WireTelemetry {
    /// Resolves the `wire.*` counters in `registry`.
    pub fn new(registry: &Arc<Registry>) -> Self {
        WireTelemetry {
            frames_out: registry.counter("wire.frames_out"),
            bytes_out: registry.counter("wire.bytes_out"),
            frames_in: registry.counter("wire.frames_in"),
            bytes_in: registry.counter("wire.bytes_in"),
            connects: registry.counter("wire.connects"),
        }
    }

    /// Records one outgoing frame with `payload_len` payload bytes.
    pub fn sent(&self, payload_len: usize) {
        self.frames_out.inc();
        self.bytes_out.add(payload_len as u64 + 4);
    }

    /// Records one incoming frame with `payload_len` payload bytes.
    pub fn received(&self, payload_len: usize) {
        self.frames_in.inc();
        self.bytes_in.add(payload_len as u64 + 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_include_the_length_prefix() {
        let registry = Arc::new(Registry::new());
        let t = WireTelemetry::new(&registry);
        t.sent(10);
        t.received(10);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["wire.frames_out"], 1);
        assert_eq!(snap.counters["wire.bytes_out"], 14);
        assert_eq!(snap.counters["wire.bytes_in"], 14);
    }
}
