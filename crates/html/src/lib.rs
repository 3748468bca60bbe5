//! HTML substrate: DOM, Tags Path, and diff storage.
//!
//! The Price $heriff locates a product price inside retailer HTML through a
//! *Tags Path* — the bottom-up chain of tags from the end of the document to
//! the element the user highlighted (paper §3.3, Fig. 4). The Measurement
//! server then replays that path on pages fetched by other proxy clients,
//! which may differ (dynamic content, per-location ads), so matching must be
//! tolerant. This crate provides:
//!
//! * [`dom`] — a flat DOM (one node table over one copy of the page) with
//!   a forgiving one-pass parser and a serializer;
//! * [`tagspath`] — Tags Path construction and tolerant extraction with the
//!   fallback ladder real pages need;
//! * [`diff`] — the `DiffStorage` module of §10.5: store the initiator's
//!   page in full and only line-level deltas for the other proxy responses.

#![forbid(unsafe_code)]
// The protocol and the reactor reach this crate: it must not panic
// (DESIGN.md, "Panic-freedom is clippy's, per crate").
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod diff;
pub mod dom;
pub mod tagspath;
mod tokenizer;

pub use diff::{DiffStorage, LineDiff};
pub use dom::{Document, NodeId, NodeKind};
pub use tagspath::{extract_by_path, TagsPath};
