//! # themis-query
//!
//! Weighted columnar query execution for Themis.
//!
//! The paper stores reweighted samples in Postgres with the weight as an
//! extra column and translates `COUNT(*)` into `SUM(weight)` (§4.1, §6.1).
//! This crate implements that execution model natively over
//! [`themis_data::Relation`]: selections compile to per-domain value masks,
//! aggregation is hash group-by over `(group key) → Σ weight`, and
//! self-joins (Table 5's Q6) hash-join two weighted scans with the joined
//! row weight being the *product* of the input weights (each sample tuple
//! stands for `w` population tuples, so a joined pair stands for `w_l · w_r`
//! pairs).
//!
//! ## Engine selection is explicit
//!
//! Two engines share one planner. The **morsel-driven engine**
//! ([`execute_parallel`], reached via [`run_sql`]) is the production path;
//! it takes an explicit [`EngineOptions`] — `{ threads, morsel_rows }` —
//! from the caller, runs morsels inline at `threads: 1`, and produces
//! bit-identical results at every thread count for a fixed `morsel_rows`.
//! The **serial interpreter** ([`execute`]) is the reference oracle the
//! morsel engine is differentially tested against. Both take the same
//! [`EngineOptions`].
//!
//! [`Agreement`] runs one grouped query, compiled once, over several
//! relations that share a schema (the K BN replicates) and keeps the groups
//! all of them produce, agreeing on `u32` slot codes and labelling only
//! the survivors: the engine half of the replicate consensus behind every
//! hybrid and BN-only answer.
//!
//! No code in this crate reads environment variables. Binaries that want an
//! environment-driven thread count (the CLI shell) parse it themselves and
//! pass the resulting `EngineOptions` down.
//!
//! ## Query governance
//!
//! [`EngineOptions`] also carries cooperative [`Limits`] (deadline, row
//! budget, group budget), an optional [`CancelToken`], and a test-only
//! [`FaultPlan`] — see [`guard`]. Both engines check the armed
//! [`QueryGuard`] at morsel and row-fold boundaries; a tripped limit is a
//! typed [`ExecError::Governed`] and a contained worker panic is
//! [`ExecError::Internal`] — never a process abort. The serial engine
//! strides its guard checks by `morsel_rows`, so the fault-injection
//! differential suites see the same fault trip the same way on both.
//!
//! ## Observability
//!
//! [`EngineOptions`] carries a [`TraceSink`] (from `themis-obs`,
//! re-exported here). When enabled, the morsel engine tallies per-morsel
//! counters — `morsels`, `rows_scanned`, `rows_masked`, `rows_folded` /
//! `pairs_folded`, `guard_checks`, `groups_out` — into the innermost open
//! span. Counters are summed per morsel, never per worker, so a trace's
//! counter totals are identical at every thread count; tracing never
//! touches result values, so traced execution is bit-identical to
//! untraced. The default sink is disabled and costs one branch per morsel.
//! The serial oracle records no trace.
//!
//! ## Catalogs share relations
//!
//! [`Catalog`] stores tables behind [`std::sync::Arc`], so binding the same
//! relation under several names (a model's reweighted sample bound to every
//! FROM table of a self-join, say) is a pointer bump per binding — query
//! setup never deep-clones row data.

#![forbid(unsafe_code)]

pub mod agreement;
pub mod catalog;
pub mod exec;
pub mod exec_parallel;
pub mod guard;
pub mod value;

pub use agreement::Agreement;
pub use catalog::Catalog;
pub use exec::{apply_order_by, execute, run_sql, ExecError};
pub use exec_parallel::{execute_parallel, EngineOptions, DEFAULT_MORSEL_ROWS};
pub use guard::{CancelToken, FaultPlan, Limits, QueryGuard, Trip, GUARD_STRIDE};
pub use themis_obs::{saturating_micros, QueryTrace, TraceSink, TraceSpan};
pub use value::{cmp_group_prefix, QueryResult, Value};
