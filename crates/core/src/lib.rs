//! The Price $heriff — the paper's primary contribution.
//!
//! A hybrid infrastructure / peer-to-peer watchdog for online price
//! discrimination (SIGCOMM'17). A user highlights a price; the system
//! re-fetches the same product page from ~30 dedicated vantage points
//! (IPCs) and a handful of peer browsers in the user's own location (PPCs),
//! extracts and converts every price, and reports the differences — all
//! without polluting the peers' browsing state or leaking their profiles.
//!
//! Architecture (paper Fig. 1), one module per component:
//!
//! * [`whitelist`] — sanctioned e-commerce domains and PII URL blacklist
//!   (§2.3);
//! * [`browser`] — the add-on's browser model: history, cookie jar, and the
//!   sandbox that leaves no trace of remote fetches (§3.6.1);
//! * [`pollution`] — the 1-remote-per-4-real-visits budget that bounds
//!   server-side state pollution (§3.6.2);
//! * [`doppelganger`] — cluster-trained fake profiles that shield peers
//!   past their pollution budget (§3.6.2, §3.7);
//! * [`coordinator`] — job IDs, whitelisting, the least-pending-jobs
//!   request distribution protocol (§3.4), peer tracking by location, and
//!   doppelganger state distribution behind 256-bit bearer tokens;
//! * [`measurement`] — the Measurement server pipeline: Tags Path
//!   extraction, currency conversion, DiffStorage (§3.3, §3.5, §10.5);
//! * [`db`] — the Database server with the integrated-vs-dedicated cost
//!   model behind Table 1;
//! * [`durability`] — the Database server's WAL + snapshot persistence
//!   and deterministic crash recovery;
//! * [`proxy`] — IPC and PPC fetch engines against the synthetic web;
//!   a PPC's browsing identity is [`private::Private`] plaintext;
//! * [`roster`] — the one builder of a deployment's node roster, in the
//!   order both backends and both fault plans number nodes;
//! * [`system`] — the whole distributed system wired over the
//!   discrete-event simulator, in both the v1 ($heriff, single server,
//!   integrated DB) and v2 (Price $heriff) configurations;
//! * [`records`] + [`analysis`] — observation records and the
//!   location-based / within-country / PDI-PD / A-B classification used by
//!   §6–§7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod browser;
pub mod byzantine;
pub mod coordinator;
pub mod db;
pub mod doppelganger;
pub mod durability;
pub mod latency;
pub mod measurement;
pub mod pollution;
pub mod private;
pub mod protocol;
pub mod proxy;
pub mod records;
pub mod roster;
pub mod system;
pub mod whitelist;

pub use browser::{BrowserProfile, SandboxReport};
pub use coordinator::{Coordinator, JobId, PeerId};
pub use records::{PriceCheck, PriceObservation, VantageKind};
pub use system::{PriceSheriff, SheriffConfig, SystemVersion};
pub use whitelist::Whitelist;
