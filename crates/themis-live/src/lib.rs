//! # themis-live
//!
//! The live-data subsystem: everything Themis needs to serve queries while
//! the underlying sample *moves*. Two cooperating halves:
//!
//! * [`cache`] — a bounded [`AnswerCache`]: one map behind one lock, with
//!   exact least-recently-used eviction, keyed on a canonical **plan
//!   fingerprint** ([`fingerprint`]). The fingerprint covers the
//!   normalized SQL plan, the [`themis_query::Limits`] that can change an
//!   answer, and the world *generation*; the session adds the
//!   `morsel_rows` the answer was computed at, since morsel blocks merge
//!   in morsel order and two morsel sizes can differ in an answer's last
//!   bits. It deliberately excludes `threads`, which the differential
//!   suites prove answer-invariant. Epochs come from one counter, so they
//!   are unique and a fixed request sequence always produces the same
//!   hit/miss/evict counts (the wire goldens pin them). An ingest flushes
//!   the whole cache ([`AnswerCache::clear`]).
//!
//! * [`ingest`] — the data-plane helpers behind
//!   `ThemisSession::ingest`: growing a relation by appended rows
//!   (label-validated against the schema), and deciding whether an ingest
//!   actually *moved* the learned BN parameters (replicates are
//!   re-simulated only when it did). The model refit itself is
//!   `themis_core`'s, the same fit a cold build runs; under IPF it extends
//!   its incidence matrix through
//!   `themis_aggregates::IncidenceMatrix::extend`.
//!
//! [`stats`] holds the [`LiveStats`] metrics bundle (hit/miss/evict/
//! invalidate counters, ingest counters, generation gauge) registered in a
//! `themis_obs::MetricsRegistry` so servers can export them next to their
//! own counters.
//!
//! Nothing in this crate reads the environment, panics, or deep-clones a
//! `Relation` outside a constructor; cached values are shared as
//! `Arc<T>` and handed back bit-identical to the run that populated them.

#![forbid(unsafe_code)]

pub mod cache;
pub mod fingerprint;
pub mod ingest;
pub mod stats;

pub use cache::AnswerCache;
pub use fingerprint::{plan_fingerprint, Fingerprint};
pub use ingest::{bn_parameters_moved, grow_relation, IngestError};
pub use stats::{LiveSnapshot, LiveStats};
