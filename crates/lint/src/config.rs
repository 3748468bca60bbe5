//! The policy tables: where each pass does (and does not) apply, and
//! the call-graph resolution stoplist.
//!
//! Matching is by normalized-path substring (`/` separators), so the
//! tables work whether the analyzer is handed `crates`, an absolute
//! path, or a single file. Additions here are policy changes — every
//! entry needs a justification in DESIGN.md "Static analysis &
//! invariants", and shrinking a scope should be treated like deleting
//! a test.

/// Directory names never descended into during a walk. `fixtures` keeps
/// the linter's own known-bad corpus out of the clean-tree gate; the
/// self-tests point at those files explicitly, which bypasses the walk.
pub const SKIP_DIR_NAMES: &[&str] = &["vendor", "target", "fixtures", ".git"];

/// Where the transitive panic-freedom walk ([`crate::reach`]) starts:
/// every non-test function under these trees is a seed. The sans-IO
/// protocol machines must degrade (drop, requeue, re-admit) under chaos
/// schedules, never crash the driver. The wire reactor joins them: a
/// panic in a shard's event loop takes down *every* node that shard
/// owns, so its connection pumps and timer queue hold the same bar.
/// Prefix-free, so the fixture twins under `fixtures/core/src/protocol/`
/// and `fixtures/wire/src/reactor/` match too.
pub const NO_PANIC_SCOPE: &[&str] = &["core/src/protocol/", "wire/src/reactor/"];

/// Path fragments marking whole files as test/bench code.
pub const TEST_TREE_MARKERS: &[&str] = &["/tests/", "/benches/", "examples/"];

/// True when `path` contains any of the fragments.
pub fn matches_any(path: &str, fragments: &[&str]) -> bool {
    fragments.iter().any(|f| path.contains(f))
}

// ---------------------------------------------------------------------
// Call-graph resolution (crate::graph)
// ---------------------------------------------------------------------

/// Topological layering of the workspace crates, mirroring the Cargo
/// dependency DAG: a call site in crate X can only dispatch to a
/// function defined in the same crate or in a crate of *strictly
/// lower* layer (something X can depend on). This kills whole families
/// of false call-graph edges — e.g. the coordinator state machine
/// "calling" `MiniDeployment::remove_server` in the TCP harness via a
/// shared method name, which would wire the protocol to the harness's
/// panics and sinks. `tests/clean_tree.rs` holds the table to the
/// `[dependencies]` sections; paths outside `crates/<name>/` (fixture
/// trees) resolve unconstrained.
pub const CRATE_LAYERS: &[(&str, u32)] = &[
    ("bigint", 0),
    ("currency", 0),
    ("geo", 0),
    ("html", 0),
    ("lint", 0),
    ("stats", 0),
    ("telemetry", 0),
    ("crypto", 1),
    ("market", 1),
    ("netsim", 1),
    ("kmeans", 2),
    ("core", 3),
    ("model", 4),
    ("wire", 4),
    ("experiments", 5),
    ("bench", 6),
];

/// The crate layer for a file path of the form `…crates/<name>/…`.
pub fn crate_layer(path: &str) -> Option<u32> {
    let name = crate_name(path)?;
    CRATE_LAYERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, l)| *l)
}

/// The crate name for a file path of the form `…crates/<name>/…`. The
/// *last* `crates/` segment wins so relative prefixes like
/// `crates/lint/../../crates/wire/…` resolve to the real crate.
pub fn crate_name(path: &str) -> Option<&str> {
    let (_, rest) = path.rsplit_once("crates/")?;
    rest.split('/').next()
}

/// Method names too generic to resolve by name alone: a bare `.get(` or
/// `.insert(` call would edge into every impl in the workspace, so the
/// graph drops these rather than fabricate edges. Calls to these still
/// resolve when written with an explicit qualifier (`Type::get(...)`).
pub const METHOD_STOPLIST: &[&str] = &[
    "add", "apply", "clear", "clone", "cmp", "contains", "count", "default", "describe", "drain",
    "eq", "extend", "find", "fmt", "from", "get", "hash", "insert", "into", "is_empty", "iter",
    "join", "len", "lock", "merge", "min", "max", "name", "new", "next", "parse", "pop", "push",
    "read", "record", "recv", "remove", "render", "reset", "run", "send", "set", "sort", "tick",
    "value", "write",
];

// ---------------------------------------------------------------------
// Concurrency-safety passes (crate::locks): SL201–SL203
// ---------------------------------------------------------------------

/// Type names whose appearance in a struct field's (or `static`'s) type
/// tokens registers that field as a lock. `Condvar` is registered too:
/// it never produces a guard itself, but keeping it in the registry
/// documents the wait/notify surface next to the locks it pairs with.
pub const LOCK_TYPE_NAMES: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Call names that count as *blocking sinks* for SL202: a guard scope
/// from which one of these is reachable (directly or over the call
/// graph) stalls every peer on that reactor thread. `read`/`write` are
/// in the list for the socket-IO case; calls whose receiver is a
/// registered `RwLock` field are recognized as guard *acquisitions*
/// first and never double as sinks. `wait`/`wait_timeout` get the
/// canonical-condvar carve-out in the pass itself: waiting releases the
/// guard passed as the first argument, so only a wait under a *second*
/// live guard blocks.
pub const BLOCKING_SINKS: &[&str] = &[
    "accept",
    "connect",
    "sync_all",
    "join",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "sleep",
    "read",
    "read_exact",
    "read_to_end",
    "write",
    "write_all",
    "flush",
    "send_counted",
];

/// Per-function sanctions for SL202: `(path fragment, function name)`
/// pairs whose guard scopes may reach a blocking sink. These are the
/// reactor's intentional short critical sections; every entry needs a
/// justification in DESIGN.md "Concurrency invariants in the wire
/// layer". Empty today — the repairs moved every blocking call outside
/// its guard — but the table is the sanctioned widening point.
pub const BLOCKING_ALLOWED_FNS: &[(&str, &str)] = &[];

/// `(sink name, receiver ident)` pairs that are never blocking sinks.
/// The reliable channel's sans-IO admission check is spelled
/// `chan.accept(...)` on every driver — same name as the genuinely
/// blocking `TcpListener::accept`. The receiver is the lexical token
/// before the `.`, so the exemption stays narrow and auditable: an
/// accept on any other receiver still counts.
pub const BLOCKING_SINK_RECEIVER_EXEMPT: &[(&str, &str)] = &[("accept", "chan")];

/// Protocol-machine entry points for SL203: invoking one of these while
/// a wire-layer guard is live runs sans-IO code under a lock it cannot
/// see, coupling machine execution time to the guard's critical
/// section. (`accept` is deliberately absent: it collides with
/// `TcpListener::accept`, which SL202 owns.)
pub const PROTOCOL_CALLBACK_FNS: &[&str] =
    &["on_message", "on_timer", "on_restart", "on_retransmit"];

/// Where SL203 applies: the threaded wire layer. The DES backend
/// (`core/src/system.rs`) legitimately drives machines under its world
/// lock — it is single-threaded by construction — so the rule scopes to
/// the reactor/deploy tree (and its fixture twins).
pub const CALLBACK_SCOPE: &[&str] = &["wire/src/"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substring_matching_is_root_agnostic() {
        let peer = "crates/core/src/protocol/peer.rs";
        assert!(matches_any(peer, NO_PANIC_SCOPE));
        assert!(matches_any(&format!("/abs/repo/{peer}"), NO_PANIC_SCOPE));
        assert!(!matches_any("crates/wire/src/frame.rs", NO_PANIC_SCOPE));
        assert!(matches_any(
            "crates/wire/src/reactor/reactor.rs",
            NO_PANIC_SCOPE
        ));
        // Prefix-free entries deliberately reach the fixture corpus too.
        assert!(matches_any(
            "crates/lint/fixtures/wire/src/reactor/no_panic_bad.rs",
            NO_PANIC_SCOPE
        ));
        assert!(matches_any(
            "crates/core/tests/chaos_soak.rs",
            TEST_TREE_MARKERS
        ));
    }

    #[test]
    fn shared_node_step_is_in_scope() {
        // The one host of the protocol machines holds the machines' bar.
        assert!(matches_any(
            "crates/core/src/protocol/node.rs",
            NO_PANIC_SCOPE
        ));
    }
}
