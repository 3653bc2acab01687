//! # themis-serve
//!
//! The serving layer: many concurrent sessions over **one shared world**.
//!
//! The expensive part of an open-world Themis deployment is simulating the
//! K Bayesian-network forward-sample replicates. A [`ThemisServer`] holds a
//! single `Arc<ThemisSession>` — catalog, BN, and the session's
//! `OnceLock`-cached replicates — so a million clients pay that cost
//! exactly once; per-connection state is just an
//! [`themis_core::EngineOptions`] (governance policy), never model data.
//!
//! The wire protocol is line-delimited JSON over TCP ([`protocol`]), built
//! on `std::net` alone — no external dependencies. Responses carry the
//! [`themis_core::Route`] provenance stamp, so a client can always tell a
//! pure sample answer from a BN-backed one from a degraded one, and the
//! server aggregates those stamps into per-route / per-degrade-reason
//! counters ([`stats::ServerStats`]). They live in a
//! `themis_obs::MetricsRegistry` whose export, merged with the shared
//! world's `live.*` cache and ingest metrics and sorted by name — including
//! a log-linear latency histogram with p50/p90/p99 — is what the `stats` op
//! returns. Any `query` request may add `"trace":true` to get the engine's
//! span tree (the session's `analyze_with`) alongside a bit-identical
//! answer.
//!
//! Threading goes exclusively through `shims/rayon` ([`ThemisServer::serve`]
//! runs its accept workers on a [`rayon::Pool`] and therefore blocks; see
//! [`server`] for the orchestration pattern). [`Client`] is the matching
//! blocking client used by the CLI's `\connect` mode, the load-driver
//! bench, and the differential test harness.

#![forbid(unsafe_code)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::{Client, ClientError, Outcome};
pub use json::Json;
pub use protocol::{SetRequest, WireAnswer, WireError};
pub use server::{ServerConfig, ServerHandle, ThemisServer};
pub use stats::ServerStats;
