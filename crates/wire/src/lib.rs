//! Real networking for the Price $heriff: a length-prefixed JSON frame
//! codec over TCP and a runnable localhost mini-deployment.
//!
//! The discrete-event simulation in `sheriff-core` answers the paper's
//! performance questions; this crate answers "does the protocol actually
//! run over sockets?". Since the protocol refactor both backends execute
//! the *same* sans-IO state machines from `sheriff_core::protocol` — this
//! crate only supplies the transport:
//!
//! * [`frame`] — a 4-byte big-endian length prefix followed by a JSON
//!   payload (the classic framing exercise; JSON because the deployed
//!   back-end spoke PHP/JS, §10.5);
//! * [`proto`] — the [`Envelope`] wrapper that carries
//!   `sheriff_core::protocol::ProtoMsg` (the one unified message enum)
//!   over frames, plus the Fig. 2 [`ResultRow`] view. An envelope's JSON
//!   is written straight into the outgoing buffer behind its length
//!   prefix and parsed straight from the bytes the frame arrived in,
//!   with no JSON tree and no per-frame `Vec` on either side;
//! * [`deploy`] — the full node roster (Coordinator, Aggregator,
//!   Measurement/Database servers, IPCs, PPC add-ons) on ephemeral
//!   localhost ports, partitioned over a small set of reactor shards,
//!   with graceful shutdown that joins every shard thread;
//! * [`reactor`] — the nonblocking, readiness-driven event loop behind
//!   [`deploy`]: per-shard reactors own their nodes' listeners, live
//!   connections and a virtual-time timer queue, so thread count is
//!   `O(shards)` rather than `O(nodes)` and thousand-peer rosters fit;
//! * [`storage`] — a file-backed implementation of the core
//!   `durability::Storage` trait, so the Database worker's WAL and
//!   snapshots live on disk and a restart recovers by reading them back;
//! * [`telemetry`] — frame/byte counters shared by every framed send and
//!   receive in the deployment, so loopback traffic balances exactly.
//!
//! Everything is plain `std::net` driven nonblocking by the reactors: no
//! async runtime and no unsafe, and determinism of the *content* is
//! preserved because the synthetic web behind it is deterministic — the
//! `backend_parity` test pins DES and TCP runs to identical observations.

#![forbid(unsafe_code)]
// The protocol and the reactor reach this crate: it must not panic
// (DESIGN.md, "Panic-freedom is clippy's, per crate").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod deploy;
pub mod frame;
mod leaf;
pub mod proto;
pub mod reactor;
pub mod storage;
pub mod telemetry;

pub use deploy::MiniDeployment;
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use proto::{rows_from_check, Envelope, ResultRow};
pub use reactor::DeployOptions;
pub use storage::FileStorage;
pub use telemetry::WireTelemetry;
