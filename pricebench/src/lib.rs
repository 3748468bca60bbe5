//! `pricebench`: the repository's benchmark.
//!
//! Four workloads (`tcp_serial`, `tcp_window`, `des_open`,
//! `kmeans_private`), three end-to-end metrics taken with tracing off (at
//! reference host speed on the two CPU-bound workloads, see [`host`]), and
//! a separate traced run that yields the per-layer metrics. The contract
//! the command obeys is in `BENCHMARK.json`; names and reasons are in
//! this package's README.

#![forbid(unsafe_code)]

pub mod host;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
