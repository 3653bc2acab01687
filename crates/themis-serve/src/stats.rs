//! Server observability: a [`MetricsRegistry`] of lock-free counters keyed
//! on the `Route`/`Answer` provenance stamps.
//!
//! Every answer's [`Route`] and every error increments exactly one counter
//! family, so the `stats` op exposes the live route mix — how many answers
//! came straight from the reweighted sample, how many needed the BN, how
//! many degraded and *why* — without any per-query allocation or locking.
//! The handles are registered under dotted names in a [`MetricsRegistry`];
//! the `stats` op serves its export merged with the shared world's
//! `live.*` family, sorted by name, and a log-linear histogram of
//! successful query latencies rides along and yields p50/p90/p99 without
//! external dependencies.

use crate::json::Json;
use std::sync::Arc;
use themis_core::{DegradeReason, LiveStats, Route, ThemisError};
use themis_obs::{Counter, Gauge, Histogram, MetricValue, MetricsRegistry};
use themis_query::{ExecError, Trip};

/// Counters for one server instance, registered in a [`MetricsRegistry`].
///
/// The named fields are `Arc` handles into `registry`, hoisted so the hot
/// path records without a name lookup. All increments are relaxed atomics:
/// the counters are observability, not synchronization.
#[derive(Debug)]
pub struct ServerStats {
    registry: MetricsRegistry,
    /// Connections accepted.
    pub connections: Arc<Counter>,
    /// `query` requests executed (successes and errors, excluding busy
    /// rejections).
    pub queries: Arc<Counter>,
    /// `query` requests that returned an error response.
    pub errors: Arc<Counter>,
    /// `query` requests rejected at admission (`busy`).
    pub busy_rejections: Arc<Counter>,
    /// Queries currently executing. Doubles as the admission slot: the
    /// server's concurrency permit acquires via [`Gauge::try_inc_below`].
    pub active_queries: Arc<Gauge>,
    /// Answers routed entirely to the reweighted sample.
    pub route_sample: Arc<Counter>,
    /// Answers routed to the Bayesian network.
    pub route_bayes_net: Arc<Counter>,
    /// Answers routed hybrid (sample ∪ BN consensus).
    pub route_hybrid: Arc<Counter>,
    /// Answers that degraded to their sample part.
    pub route_degraded: Arc<Counter>,
    /// Degradations caused by the deadline.
    pub degrade_deadline: Arc<Counter>,
    /// Degradations caused by the row budget.
    pub degrade_row_budget: Arc<Counter>,
    /// Degradations caused by the group budget.
    pub degrade_group_budget: Arc<Counter>,
    /// Degradations caused by a contained worker failure.
    pub degrade_worker_failure: Arc<Counter>,
    /// Governed errors: deadline exceeded outright.
    pub trip_deadline: Arc<Counter>,
    /// Governed errors: query cancelled.
    pub trip_cancelled: Arc<Counter>,
    /// Governed errors: row budget exceeded outright.
    pub trip_row_budget: Arc<Counter>,
    /// Governed errors: group budget exceeded outright.
    pub trip_group_budget: Arc<Counter>,
    /// Latency of *successful* queries, microseconds. Successes only so the
    /// histogram count is deterministic under golden fixtures that mix in
    /// error responses.
    pub query_latency_us: Arc<Histogram>,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats::new()
    }
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let connections = registry.counter("server.connections");
        let queries = registry.counter("server.queries");
        let errors = registry.counter("server.errors");
        let busy_rejections = registry.counter("server.busy_rejections");
        let active_queries = registry.gauge("server.active_queries");
        let route_sample = registry.counter("server.routes.sample");
        let route_bayes_net = registry.counter("server.routes.bayes_net");
        let route_hybrid = registry.counter("server.routes.hybrid");
        let route_degraded = registry.counter("server.routes.degraded");
        let degrade_deadline = registry.counter("server.degrade.deadline_exceeded");
        let degrade_row_budget = registry.counter("server.degrade.row_budget_exceeded");
        let degrade_group_budget = registry.counter("server.degrade.group_budget_exceeded");
        let degrade_worker_failure = registry.counter("server.degrade.worker_failure");
        let trip_deadline = registry.counter("server.trips.deadline");
        let trip_cancelled = registry.counter("server.trips.cancelled");
        let trip_row_budget = registry.counter("server.trips.row_budget");
        let trip_group_budget = registry.counter("server.trips.group_budget");
        let query_latency_us = registry.histogram("server.query_latency_us");
        ServerStats {
            registry,
            connections,
            queries,
            errors,
            busy_rejections,
            active_queries,
            route_sample,
            route_bayes_net,
            route_hybrid,
            route_degraded,
            degrade_deadline,
            degrade_row_budget,
            degrade_group_budget,
            degrade_worker_failure,
            trip_deadline,
            trip_cancelled,
            trip_row_budget,
            trip_group_budget,
            query_latency_us,
        }
    }

    /// Record a successful answer's route.
    pub fn record_route(&self, route: &Route) {
        let counter = match route {
            Route::Sample => &self.route_sample,
            Route::BayesNet { .. } => &self.route_bayes_net,
            Route::Hybrid { .. } => &self.route_hybrid,
            Route::Degraded { reason, .. } => {
                match reason {
                    DegradeReason::DeadlineExceeded => &self.degrade_deadline,
                    DegradeReason::RowBudgetExceeded => &self.degrade_row_budget,
                    DegradeReason::GroupBudgetExceeded => &self.degrade_group_budget,
                    DegradeReason::WorkerFailure => &self.degrade_worker_failure,
                }
                .inc();
                &self.route_degraded
            }
        };
        counter.inc();
    }

    /// Record a query error (after admission — busy rejections have their
    /// own counter).
    pub fn record_error(&self, err: &ThemisError) {
        self.errors.inc();
        if let ThemisError::Exec(ExecError::Governed(trip)) = err {
            match trip {
                Trip::Deadline => &self.trip_deadline,
                Trip::Cancelled => &self.trip_cancelled,
                Trip::RowBudget { .. } => &self.trip_row_budget,
                Trip::GroupBudget { .. } => &self.trip_group_budget,
            }
            .inc();
        }
    }

    /// The `stats` response body: every registered metric — the server's
    /// own 18 plus the shared world's 11 `live.*` — sorted by name.
    /// Counters and gauges serialize as numbers; histograms as
    /// `{count, p50_us, p90_us, p99_us, sum_us}` objects — the `_us` keys
    /// are wall-clock-dependent, so golden normalization zeroes them while
    /// `count` stays exact. The `live.*` entries are always present — all
    /// zeros on a world without an answer cache — so clients never branch
    /// on shape.
    pub fn body(&self, live: &LiveStats) -> Json {
        let mut exported = live.export();
        exported.extend(self.registry.export());
        exported.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        let metrics = exported
            .into_iter()
            .map(|(name, value)| {
                let json = match value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => Json::Num(v as f64),
                    MetricValue::Histogram(s) => Json::Obj(vec![
                        ("count".to_string(), Json::Num(s.count as f64)),
                        ("p50_us".to_string(), Json::Num(s.p50 as f64)),
                        ("p90_us".to_string(), Json::Num(s.p90 as f64)),
                        ("p99_us".to_string(), Json::Num(s.p99 as f64)),
                        ("sum_us".to_string(), Json::Num(s.sum as f64)),
                    ]),
                };
                (name, json)
            })
            .collect();
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("op".to_string(), Json::Str("stats".to_string())),
            ("stats".to_string(), Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::RouteKind;

    /// The `stats` object of `stats.body(live)`, as name/value pairs.
    fn entries(stats: &ServerStats, live: &LiveStats) -> Vec<(String, Json)> {
        match stats.body(live).get("stats") {
            Some(Json::Obj(entries)) => entries.clone(),
            other => panic!("stats must be an object, got {other:?}"),
        }
    }

    #[test]
    fn routes_and_errors_land_in_their_counters() {
        let degraded = |reason| Route::Degraded {
            planned: RouteKind::Hybrid,
            reason,
        };
        let governed = |trip| ThemisError::Exec(ExecError::Governed(trip));
        let routes = [
            (Route::Sample, vec!["server.routes.sample"]),
            (
                Route::BayesNet { k_agreed: 25 },
                vec!["server.routes.bayes_net"],
            ),
            (
                Route::Hybrid {
                    sample_groups: 1,
                    bn_groups_added: 2,
                },
                vec!["server.routes.hybrid"],
            ),
            (
                degraded(DegradeReason::DeadlineExceeded),
                vec!["server.routes.degraded", "server.degrade.deadline_exceeded"],
            ),
            (
                degraded(DegradeReason::RowBudgetExceeded),
                vec![
                    "server.routes.degraded",
                    "server.degrade.row_budget_exceeded",
                ],
            ),
            (
                degraded(DegradeReason::GroupBudgetExceeded),
                vec![
                    "server.routes.degraded",
                    "server.degrade.group_budget_exceeded",
                ],
            ),
            (
                degraded(DegradeReason::WorkerFailure),
                vec!["server.routes.degraded", "server.degrade.worker_failure"],
            ),
        ];
        let errors = [
            (
                governed(Trip::Deadline),
                vec!["server.errors", "server.trips.deadline"],
            ),
            (
                governed(Trip::Cancelled),
                vec!["server.errors", "server.trips.cancelled"],
            ),
            (
                governed(Trip::RowBudget { limit: 10 }),
                vec!["server.errors", "server.trips.row_budget"],
            ),
            (
                governed(Trip::GroupBudget { limit: 3 }),
                vec!["server.errors", "server.trips.group_budget"],
            ),
            // An ungoverned error counts as an error and as nothing else.
            (ThemisError::NoBayesNet, vec!["server.errors"]),
        ];
        let recorded = routes
            .iter()
            .map(|(route, moved)| {
                let stats = ServerStats::new();
                stats.record_route(route);
                (format!("{route:?}"), stats, moved)
            })
            .chain(errors.iter().map(|(err, moved)| {
                let stats = ServerStats::new();
                stats.record_error(err);
                (format!("{err:?}"), stats, moved)
            }));
        for (what, stats, moved) in recorded {
            let entries = entries(&stats, &LiveStats::new());
            assert_eq!(entries.len(), 29, "{what}");
            for (name, value) in &entries {
                // The latency histogram moves by its count (successes are
                // recorded by the server, not by `record_route`).
                let got = value
                    .as_u64()
                    .or_else(|| value.get("count").and_then(Json::as_u64));
                let want = u64::from(moved.contains(&name.as_str()));
                assert_eq!(got, Some(want), "{name} after {what}");
            }
        }
    }

    #[test]
    fn stats_body_is_sorted_and_complete() {
        let stats = ServerStats::new();
        stats.queries.add(3);
        stats.record_route(&Route::Sample);
        stats.query_latency_us.record(100);
        stats.query_latency_us.record(1_000);
        let live = LiveStats::new();
        live.cache_misses.add(2);
        live.generation.set(2);
        let body = stats.body(&live);
        assert_eq!(body.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(body.get("op"), Some(&Json::Str("stats".to_string())));
        let metrics = entries(&stats, &live);
        // Sorted by name, regardless of registration order.
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // 18 server metrics + 11 live.* metrics from the shared world.
        assert_eq!(names.len(), 29);
        let get = |k: &str| metrics.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        assert_eq!(get("server.queries").and_then(Json::as_u64), Some(3));
        assert_eq!(get("live.cache.misses").and_then(Json::as_u64), Some(2));
        assert_eq!(get("live.world.generation").and_then(Json::as_u64), Some(2));
        assert_eq!(get("server.routes.sample").and_then(Json::as_u64), Some(1));
        let hist = get("server.query_latency_us").unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(hist.get("sum_us").and_then(Json::as_u64), Some(1_100));
        assert!(hist.get("p50_us").and_then(Json::as_u64).unwrap() <= 100);
        // Serialization round-trips deterministically.
        let wire = body.to_string();
        assert_eq!(Json::parse(&wire).unwrap().to_string(), wire);
    }
}
