//! The §3.4 / Fig. 7 monitoring panel, rendered from a [`Snapshot`].
//!
//! The panel used to be assembled from coordinator-private state; it is
//! now a pure function of the metrics registry, so whatever the panel
//! shows is exactly what the exported run report contains. The
//! coordinator publishes per-server gauges under a naming convention
//! (built by [`server_metric`]) and the renderer groups them back into
//! rows.

use crate::Snapshot;

/// Prefix for per-server panel gauges.
pub const SERVER_PREFIX: &str = "coordinator.server.";

/// Canonical name of a per-server panel gauge:
/// `coordinator.server.{idx:03}.{addr}:{port}.{key}`. The zero-padded
/// index keeps `BTreeMap` iteration in registration order.
pub fn server_metric(index: usize, addr: &str, port: u16, key: &str) -> String {
    format!("{SERVER_PREFIX}{index:03}.{addr}:{port}.{key}")
}

struct Row {
    addr: String,
    port: String,
    online: bool,
    jobs: i64,
}

/// Renders the monitoring panel: one row per registered Measurement
/// server plus a totals footer, all read from the snapshot.
pub fn coordinator_panel(snap: &Snapshot) -> String {
    let mut rows: Vec<(String, Row)> = Vec::new();
    for (name, &value) in &snap.gauges {
        let Some(rest) = name.strip_prefix(SERVER_PREFIX) else {
            continue;
        };
        let Some((idx, rest)) = rest.split_once('.') else {
            continue;
        };
        let Some((addr_port, key)) = rest.rsplit_once('.') else {
            continue;
        };
        let Some((addr, port)) = addr_port.rsplit_once(':') else {
            continue;
        };
        let row = match rows.iter_mut().find(|(i, _)| i == idx) {
            Some((_, row)) => row,
            None => {
                rows.push((
                    idx.to_string(),
                    Row {
                        addr: addr.to_string(),
                        port: port.to_string(),
                        online: false,
                        jobs: 0,
                    },
                ));
                let Some((_, row)) = rows.last_mut() else {
                    continue;
                };
                row
            }
        };
        match key {
            "online" => row.online = value != 0,
            "pending_jobs" => row.jobs = value,
            _ => {}
        }
    }

    let mut out = String::from("Worker            Port  Status   Jobs\n");
    for (_, row) in &rows {
        out.push_str(&format!(
            "{:<17} {:<5} {:<8} {}\n",
            row.addr,
            row.port,
            if row.online { "online" } else { "offline" },
            row.jobs
        ));
    }
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let peers = snap
        .gauges
        .get("coordinator.peers_online")
        .copied()
        .unwrap_or(0);
    out.push_str(&format!(
        "\nRequests: {} total, {} rejected   Jobs completed: {}   Peers online: {}\n",
        counter("coordinator.requests_total"),
        counter("coordinator.requests_rejected"),
        counter("coordinator.jobs_completed"),
        peers,
    ));
    out.push_str(&format!(
        "Recovery: {} retransmits, {} dups absorbed, {} jobs requeued, {} restarts\n",
        counter("protocol.retransmits"),
        counter("protocol.dedup_hits"),
        counter("coordinator.jobs_requeued"),
        counter("faults.node_restarts"),
    ));
    out.push_str(&format!(
        "Durability: {} wal appends, {} snapshots, {} records recovered\n",
        counter("db.wal_appends"),
        counter("db.snapshots"),
        counter("db.recovered_records"),
    ));
    out.push_str(&format!(
        "Defense: {} rejects, {} quota trips, {} quarantines, {} paroles, {} dropped\n",
        counter("defense.validation_rejects"),
        counter("defense.quota_trips"),
        counter("defense.quarantines"),
        counter("defense.paroles"),
        counter("defense.quarantine_drops"),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn renders_rows_in_registration_order_with_totals() {
        let r = Registry::new();
        // Addresses with dots and multi-digit ports exercise the parser.
        r.gauge(&server_metric(0, "192.168.1.11", 8080, "online"))
            .set(1);
        r.gauge(&server_metric(0, "192.168.1.11", 8080, "pending_jobs"))
            .set(3);
        r.gauge(&server_metric(1, "ms.example.org", 80, "online"))
            .set(0);
        r.gauge(&server_metric(1, "ms.example.org", 80, "pending_jobs"))
            .set(0);
        r.counter("coordinator.requests_total").add(12);
        r.counter("coordinator.requests_rejected").add(2);
        r.counter("coordinator.jobs_completed").add(9);
        r.gauge("coordinator.peers_online").set(4);
        r.counter("protocol.retransmits").add(5);
        r.counter("protocol.dedup_hits").add(2);
        r.counter("coordinator.jobs_requeued").add(1);
        r.counter("faults.node_restarts").add(1);
        r.counter("db.wal_appends").add(9);
        r.counter("db.snapshots").add(2);
        r.counter("db.recovered_records").add(4);
        r.counter("defense.validation_rejects").add(3);
        r.counter("defense.quota_trips").add(2);
        r.counter("defense.quarantines").add(1);
        r.counter("defense.paroles").add(1);
        r.counter("defense.quarantine_drops").add(7);
        let panel = coordinator_panel(&r.snapshot());
        assert_eq!(
            panel,
            "Worker            Port  Status   Jobs\n\
             192.168.1.11      8080  online   3\n\
             ms.example.org    80    offline  0\n\
             \nRequests: 12 total, 2 rejected   Jobs completed: 9   Peers online: 4\n\
             Recovery: 5 retransmits, 2 dups absorbed, 1 jobs requeued, 1 restarts\n\
             Durability: 9 wal appends, 2 snapshots, 4 records recovered\n\
             Defense: 3 rejects, 2 quota trips, 1 quarantines, 1 paroles, 7 dropped\n"
        );
    }

    #[test]
    fn empty_registry_renders_header_and_zero_totals() {
        let panel = coordinator_panel(&Registry::new().snapshot());
        assert!(panel.starts_with("Worker"));
        assert!(panel.contains("Requests: 0 total"));
    }
}
