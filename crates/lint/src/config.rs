//! The policy tables: where each pass does (and does not) apply, the
//! privacy-taint source/sink/sanitizer declarations, and the call-graph
//! resolution stoplist.
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
// Privacy-taint pass (crate::taint)
// ---------------------------------------------------------------------

/// Field names whose *read* marks a function as handling peer plaintext
/// or doppelganger profile data (§4's "never leaves as plaintext"
/// contract). Names are chosen to be distinctive workspace-wide:
///
/// * `affluence`, `logged_in_domains`, `browser` — the PPC's personal
///   browsing identity (`core/src/proxy.rs::PpcEngine`).
/// * `profile_vector`, `client_state` — doppelganger profile data
///   (`core/src/doppelganger.rs`); the profile vector *is* a cluster of
///   peers' browsing histories.
/// * `history` is deliberately absent: the name is too generic for
///   token-level matching — its accessors are covered by
///   [`TAINT_SOURCE_FNS`] instead.
///
/// Observation price fields (`core/src/records.rs`) are *not* sources:
/// prices travel to Measurement servers in `ProtoMsg` by §3.2 design,
/// and that flow is the machines' `match` arms, not a taint question.
pub const TAINT_SOURCE_FIELDS: &[&str] = &[
    "affluence",
    "logged_in_domains",
    "browser",
    "profile_vector",
    "client_state",
];

/// Function names whose *call* taints the caller: accessors that hand
/// out *individual* peer profile data. `profile_vector` turns one
/// peer's raw browsing history into a cluster-input vector; `train_all`
/// consumes those vectors. `DoppStore::client_state` is deliberately
/// absent: it returns the *trained cluster's* cookie jar — the
/// k-anonymized output the coordinator hands to peers by design (§4),
/// not an individual's plaintext.
pub const TAINT_SOURCE_FNS: &[&str] = &["profile_vector", "train_all"];

/// Sanctioning entry points: a function that routes its data through
/// one of these is considered to emit ciphertext, not plaintext. These
/// are the `crypto::elgamal` / `crypto::ipfe` encryption APIs.
pub const TAINT_SANITIZERS: &[&str] = &[
    "encrypt",
    "client_vector",
    "server_vector",
    "derive_function_key",
];

/// Sink call names: wire frame serialization, telemetry label
/// registration, and experiment report writers. A tainted function
/// calling any of these (without sanitizing) is a hard CI failure.
pub const TAINT_SINKS: &[&str] = &[
    "write_frame",
    "send_counted",
    "counter",
    "gauge",
    "histogram",
    "write_json",
];

/// Paths exempt from the taint pass: test trees and the offline study
/// pipeline, which processes synthetic profiles by design. Per-item
/// pragmas (not this table) sanction individual experiment binaries.
pub const TAINT_EXEMPT: &[&str] = &["/tests/", "/benches/"];

/// Paths whose *own* source-field reads do not seed taint. These are
/// the roster builder and the offline study pipeline: they read
/// `PpcSpec`/population fields to *construct* the simulated peers
/// (synthetic spec plumbing), which is not a peer divulging data.
/// Functions here still become tainted transitively — a protocol
/// function handing them real peer plaintext flags their sinks as
/// usual — they just are not origins. The backend drivers
/// (`core/src/system.rs`, `wire/src/deploy.rs`) left this table when
/// the roster builder took over peer construction: they no longer read
/// a spec field.
pub const TAINT_SEED_EXEMPT: &[&str] = &["core/src/roster.rs", "experiments/src/"];

/// True when reading field `name` counts as touching a taint source.
pub fn taint_source_field(_path: &str, name: &str) -> bool {
    TAINT_SOURCE_FIELDS.contains(&name)
}

/// True when calling function `name` counts as touching a taint source.
pub fn taint_source_fn(name: &str) -> bool {
    TAINT_SOURCE_FNS.contains(&name)
}

/// True when `name` is a sanctioning (encryption) entry point.
pub fn taint_sanitizer(name: &str) -> bool {
    TAINT_SANITIZERS.contains(&name)
}

/// True when `name` is a declared sink.
pub fn taint_sink(name: &str) -> bool {
    TAINT_SINKS.contains(&name)
}

/// Sinks that only leak through *label construction*. A call like
/// `registry.counter("coordinator.requests_total")` with a literal
/// name carries no peer data no matter how tainted the caller is; the
/// §4 exposure is a label *built from* peer fields. The graph scanner
/// drops these sink hits when the name argument is a string literal.
pub const TAINT_LABEL_SINKS: &[&str] = &["counter", "gauge", "histogram"];

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
    fn shared_node_step_and_roster_builder_are_in_scope() {
        // The one host of the protocol machines holds the machines' bar.
        assert!(matches_any(
            "crates/core/src/protocol/node.rs",
            NO_PANIC_SCOPE
        ));
        // The roster builder is the only driver-side code left that
        // reads `PpcSpec` fields.
        assert!(matches_any("crates/core/src/roster.rs", TAINT_SEED_EXEMPT));
        for driver in ["crates/core/src/system.rs", "crates/wire/src/deploy.rs"] {
            assert!(!matches_any(driver, TAINT_SEED_EXEMPT), "{driver}");
        }
    }

    #[test]
    fn taint_tables_answer_by_name() {
        assert!(taint_source_field("any/path.rs", "affluence"));
        assert!(!taint_source_field("any/path.rs", "amount_eur"));
        assert!(taint_sanitizer("client_vector"));
        assert!(taint_sink("write_frame"));
        assert!(!taint_sink("push"));
    }
}
