//! # themis-core
//!
//! Themis: the first open-world database system (OW-DBMS) that automatically
//! rebalances arbitrarily biased samples to approximately answer queries as
//! if they were issued over the entire population (Orr, Balazinska, Suciu —
//! SIGMOD 2020).
//!
//! The data scientist inserts a biased sample `S` and a set of population
//! aggregates `Γ`, then asks queries; Themis builds a model `M(Γ, S)`
//! combining two debiasing techniques and routes each query to the right
//! one (§4.3):
//!
//! * a **reweighted sample** (uniform / constrained linear regression / IPF,
//!   see `themis-reweight`) — accurate for heavy hitters present in `S`,
//! * a **Bayesian network** over the population distribution (see
//!   `themis-bn`) — able to answer queries about tuples that are *not* in
//!   `S`, including when the sample's support differs from the population's.
//!
//! ## Querying: sessions, answers, routes
//!
//! Build a [`Themis`] model, then query it through a [`ThemisSession`]: the
//! session owns an explicit [`EngineOptions`] (no environment variables),
//! caches the K Bayesian-network replicates across queries, and stamps
//! every [`Answer`] with the [`Route`] that produced it. [`ThemisSession::explain`]
//! returns the routing decision without executing.
//!
//! ```
//! use themis_core::{Route, Themis, ThemisConfig, ThemisSession};
//! use themis_aggregates::{AggregateResult, AggregateSet};
//! use themis_data::paper_example::{example_population, example_sample};
//! use themis_data::AttrId;
//!
//! let population = example_population(); // normally unavailable!
//! let aggregates = AggregateSet::from_results(vec![
//!     AggregateResult::compute(&population, &[AttrId(0)]),
//!     AggregateResult::compute(&population, &[AttrId(1), AttrId(2)]),
//! ]);
//! let model = Themis::build(example_sample(), aggregates, 10.0, ThemisConfig::default());
//! let session = ThemisSession::new(model);
//!
//! // A point query about a tuple missing from the sample routes to the
//! // Bayesian network and still gets a non-trivial open-world answer.
//! let sql = "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'";
//! let answer = session.sql(sql).unwrap();
//! assert_eq!(answer.route, Route::BayesNet { k_agreed: 0 });
//! assert!(answer.scalar().unwrap() > 0.0);
//! // ...and explain predicts that route without executing.
//! assert_eq!(session.explain(sql).unwrap().route, answer.route.kind());
//! ```

#![forbid(unsafe_code)]

pub mod baselines;
pub mod error;
pub mod metrics;
pub mod model;
pub mod route;
pub mod session;

pub use error::ThemisError;
pub use metrics::{group_by_error, percent_difference};
pub use model::{ReweightMethod, Themis, ThemisConfig};
pub use route::{DegradeReason, Explain, Route, RouteKind};
pub use session::{Analyzed, Answer, IngestReport, ThemisSession};
// Re-exported so server and CLI layers see the live-data types through one
// front door.
pub use themis_live::{IngestError, LiveSnapshot, LiveStats};
pub use themis_obs::MetricValue;
// Re-exported so session users configure the engine without importing
// themis-query directly.
pub use themis_query::{
    saturating_micros, CancelToken, EngineOptions, FaultPlan, Limits, QueryTrace, TraceSink,
    TraceSpan,
};
