//! Query routing (§4.3): decide which debiasing component answers a query,
//! and merge the BN replicates' agreement into the answer.
//!
//! The paper's central claim is that neither debiasing technique dominates:
//! heavy hitters present in the sample are best answered by the reweighted
//! sample, tuples *missing* from the sample need Bayesian-network inference,
//! and open-world `GROUP BY` needs the union of both. This module makes
//! that decision explicit and observable: `decide` maps a parsed query to
//! a decision before anything executes (that is what
//! `ThemisSession::explain` surfaces), execution stamps the resulting
//! [`Route`] onto every [`crate::Answer`].
//!
//! Every BN-backed SQL answer (the session's hybrid `sql` and
//! `sql_bn_only`) asks `replicate_consensus` for the groups all K
//! replicates agree on. The agreement itself happens in *code space*
//! inside the engine ([`themis_query::Agreement`]): the query is compiled
//! once against the replicates' shared schema, each replicate's groups are
//! intersected with the running agreement by their `u32` domain codes and
//! their values summed in replicate order, and only the surviving groups
//! are labelled, once, before the union with the sample's groups. This
//! module keeps what is routing: the sample union, degradation, the phase
//! deadline and cancel check between replicates, and the spans. It is the
//! only hybrid `GROUP BY` there is.
//!
//! The §4.3 point rule lives in one function, `point_route`: `decide`
//! consults it for a point-shaped SQL query, and [`Themis::point_query`]
//! for the model API's point query, so both pick the same source.

use crate::model::Themis;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;
use themis_data::{AttrId, Relation};
use std::time::Instant;
use themis_query::{
    cmp_group_prefix, Agreement, Catalog, EngineOptions, ExecError, FaultPlan, QueryResult, Trip,
    Value,
};
use themis_sql::{AggFunc, Comparison, Literal, Predicate, Query, SelectItem};

/// Which debiasing component answered (or would answer) a query, without
/// the per-execution detail carried by [`Route`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// The reweighted sample (`COUNT(*)` ≡ `SUM(weight)`).
    Sample,
    /// The learned Bayesian network.
    BayesNet,
    /// Sample groups unioned with BN-replicate consensus groups.
    Hybrid,
}

impl fmt::Display for RouteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteKind::Sample => write!(f, "Sample"),
            RouteKind::BayesNet => write!(f, "BayesNet"),
            RouteKind::Hybrid => write!(f, "Hybrid"),
        }
    }
}

/// Why a BN-backed route fell back to its reweighted-sample part.
///
/// Degradation is the governance story for routed queries: when the BN
/// phase of a hybrid answer trips a limit or loses a worker, the sample
/// part — already computed, already debiased for everything the sample
/// covers — is returned instead of an error, and the reason is stamped on
/// the [`Route`] so callers can tell a complete open-world answer from a
/// best-effort one. Cancellation never degrades: a cancelled query means
/// *stop*, not *answer with less*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The BN phase exceeded the configured deadline.
    DeadlineExceeded,
    /// The BN phase exceeded the row budget.
    RowBudgetExceeded,
    /// The BN phase exceeded the group budget.
    GroupBudgetExceeded,
    /// A worker panicked during the BN phase (contained by the pool).
    WorkerFailure,
}

impl DegradeReason {
    /// The degradation a BN-phase error justifies, if any. Errors that are
    /// not governance trips or contained worker failures — planner errors,
    /// unknown columns — return `None` and must propagate: they would fail
    /// identically on the sample part, so hiding them behind a degraded
    /// answer would mask real bugs.
    pub(crate) fn from_error(err: &ExecError) -> Option<DegradeReason> {
        match err {
            ExecError::Governed(Trip::Deadline) => Some(DegradeReason::DeadlineExceeded),
            ExecError::Governed(Trip::RowBudget { .. }) => {
                Some(DegradeReason::RowBudgetExceeded)
            }
            ExecError::Governed(Trip::GroupBudget { .. }) => {
                Some(DegradeReason::GroupBudgetExceeded)
            }
            // Cancellation is a user decision to stop, never to degrade.
            ExecError::Governed(Trip::Cancelled) => None,
            ExecError::Internal(_) => Some(DegradeReason::WorkerFailure),
            _ => None,
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::DeadlineExceeded => write!(f, "deadline exceeded"),
            DegradeReason::RowBudgetExceeded => write!(f, "row budget exceeded"),
            DegradeReason::GroupBudgetExceeded => write!(f, "group budget exceeded"),
            DegradeReason::WorkerFailure => write!(f, "worker failure"),
        }
    }
}

/// The provenance of an executed answer: which component produced it, with
/// the execution-time detail the paper reports (§4.2.4, §4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// Answered entirely by the reweighted sample.
    Sample,
    /// Answered by the Bayesian network. `k_agreed` is the number of
    /// forward-sample replicates whose agreement produced the answer; `0`
    /// means direct inference (`n · Pr(X = v)`), which uses the exact joint
    /// probability and no replicates.
    BayesNet {
        /// Replicates that had to agree (0 ⇒ direct inference).
        k_agreed: usize,
    },
    /// Open-world union: every group of the reweighted-sample answer, plus
    /// the BN-consensus groups the sample missed.
    Hybrid {
        /// Groups contributed by the reweighted sample.
        sample_groups: usize,
        /// Groups added from the BN replicate consensus.
        bn_groups_added: usize,
    },
    /// The planned BN-backed route hit a governance limit or worker failure
    /// in its BN phase; the answer is the reweighted-sample part alone.
    Degraded {
        /// The route the query was planned to take.
        planned: RouteKind,
        /// Why the BN phase was abandoned.
        reason: DegradeReason,
    },
}

impl Route {
    /// The route without its execution detail (what `explain` can predict
    /// before running the query). A degraded answer *is* a sample answer —
    /// that is what the caller received.
    pub fn kind(&self) -> RouteKind {
        match self {
            Route::Sample | Route::Degraded { .. } => RouteKind::Sample,
            Route::BayesNet { .. } => RouteKind::BayesNet,
            Route::Hybrid { .. } => RouteKind::Hybrid,
        }
    }

    /// The route the query was *planned* to take — differs from [`kind`]
    /// only for degraded answers.
    ///
    /// [`kind`]: Route::kind
    pub fn planned_kind(&self) -> RouteKind {
        match self {
            Route::Degraded { planned, .. } => *planned,
            other => other.kind(),
        }
    }

    /// Why this answer was degraded, or `None` for a complete answer.
    pub fn degraded(&self) -> Option<DegradeReason> {
        match self {
            Route::Degraded { reason, .. } => Some(*reason),
            _ => None,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Route::Sample => write!(f, "Sample"),
            Route::BayesNet { k_agreed: 0 } => write!(f, "BayesNet (direct inference)"),
            Route::BayesNet { k_agreed } => {
                write!(f, "BayesNet ({k_agreed} replicates agreed)")
            }
            Route::Hybrid {
                sample_groups,
                bn_groups_added,
            } => write!(
                f,
                "Hybrid ({sample_groups} sample groups, {bn_groups_added} BN groups added)"
            ),
            Route::Degraded { planned, reason } => {
                write!(f, "Sample (degraded from {planned}: {reason})")
            }
        }
    }
}

/// The routing decision for a query, *without executing it* — returned by
/// `ThemisSession::explain`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explain {
    /// The route the query will take when executed.
    pub route: RouteKind,
    /// Human-readable justification of the decision.
    pub reason: String,
    /// Where the answer lands if the BN phase trips a configured limit or
    /// loses a worker: `Some(RouteKind::Sample)` for a BN-backed route under
    /// armed limits or an injected fault plan, `None` when nothing can
    /// degrade (no limits, or the route has no BN phase to abandon).
    pub degrades_to: Option<RouteKind>,
    /// Whether executing this query now would serve a resident answer-cache
    /// entry: `Some(true)` = cache hit, `Some(false)` = cache enabled but
    /// the fingerprint is not resident, `None` = no cache, or the query
    /// would bypass it (trace / fault plan / cancel token). Filled in by
    /// `ThemisSession::explain_with` from the *same* probe function
    /// execution uses, so explain and execution cannot disagree.
    pub cached: Option<bool>,
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "route: {} — {}", self.route, self.reason)?;
        if let Some(fallback) = self.degrades_to {
            write!(f, " (degrades to {fallback} if limits trip)")?;
        }
        if self.cached == Some(true) {
            write!(f, " [cached]")?;
        }
        Ok(())
    }
}

/// Internal routing decision, carrying what execution needs.
pub(crate) enum Decision {
    /// Run on the reweighted sample.
    Sample { reason: String },
    /// A point query about a tuple absent from the sample: answer by direct
    /// BN inference, `n · Pr(attrs = values)`.
    BnPoint {
        attrs: Vec<AttrId>,
        values: Vec<u32>,
        /// Output column name, mirroring what the engine would produce.
        column: String,
        reason: String,
    },
    /// Grouped query: sample answer unioned with BN replicate consensus.
    Hybrid { reason: String },
}

impl Decision {
    pub(crate) fn explain(&self, engine: &EngineOptions) -> Explain {
        let (route, reason) = match self {
            Decision::Sample { reason } => (RouteKind::Sample, reason),
            Decision::BnPoint { reason, .. } => (RouteKind::BayesNet, reason),
            Decision::Hybrid { reason } => (RouteKind::Hybrid, reason),
        };
        // Only the hybrid route has a BN *phase* that can be abandoned in
        // favour of an already-computed sample part. Direct BN inference
        // (BnPoint) runs no engine query, so no limit can trip it; and
        // cancellation stops rather than degrades, so an armed cancel token
        // alone predicts nothing.
        let armed = !engine.limits.is_unlimited() || engine.fault_plan != FaultPlan::None;
        let degrades_to = match route {
            RouteKind::Hybrid if armed => Some(RouteKind::Sample),
            _ => None,
        };
        Explain {
            route,
            reason: reason.clone(),
            degrades_to,
            // The decision function cannot see the session's cache; the
            // session fills this in (`None` stays for cache-off sessions).
            cached: None,
        }
    }
}

/// Whether the query produces grouped output (explicit `GROUP BY`, or the
/// paper's Table 5 shorthand of bare columns in the SELECT list).
fn is_grouped(query: &Query) -> bool {
    !query.group_by.is_empty()
        || query
            .select
            .iter()
            .any(|item| matches!(item, SelectItem::Column(_)))
}

/// A scalar count query pinned to one tuple: `SELECT COUNT(*) FROM t WHERE
/// a = 'x' AND b = 'y' ...` — the SQL spelling of the paper's point query.
struct PointShape {
    attrs: Vec<AttrId>,
    values: Vec<u32>,
    column: String,
}

/// Recognize a point-shaped query against the sample's schema. Returns
/// `None` for anything the point router should not touch (ranges, joins,
/// unknown labels, non-count aggregates, ...): those run on the sample, so
/// planner errors surface exactly as they would have.
fn point_shape(sample: &Relation, query: &Query) -> Option<PointShape> {
    if query.from.len() != 1
        || query.order_by.is_some()
        || query.limit.is_some()
        || !query.group_by.is_empty()
    {
        return None;
    }
    let schema = sample.schema();
    // Any table qualifier must name the single FROM binding; a stray
    // qualifier means the engine would reject the query, and the point
    // router must not answer SQL the engine rejects.
    let binding = query.from[0].binding();
    let qualifier_ok =
        |col: &themis_sql::ColumnRef| col.table.as_deref().is_none_or(|t| t == binding);
    // Exactly one aggregate, and it must be a (weighted) count.
    let [item] = &query.select[..] else {
        return None;
    };
    if let SelectItem::Aggregate { arg: Some(c), .. } = item {
        if !qualifier_ok(c) {
            return None;
        }
    }
    let column = match item {
        SelectItem::Aggregate {
            func: AggFunc::Count,
            arg,
            alias,
        } => alias.clone().unwrap_or_else(|| match arg {
            Some(c) => format!("{}({c})", AggFunc::Count.name()),
            None => format!("{}(*)", AggFunc::Count.name()),
        }),
        SelectItem::Aggregate {
            func: AggFunc::Sum,
            arg: Some(c),
            alias,
        } if c.column.eq_ignore_ascii_case("weight") && schema.attr_id(&c.column).is_none() => {
            alias
                .clone()
                .unwrap_or_else(|| format!("{}({c})", AggFunc::Sum.name()))
        }
        _ => return None,
    };
    // Every predicate must pin one distinct attribute to one in-domain
    // label. (A label outside the domain cannot be represented by the BN
    // either — the sample route answers 0 for it, which is correct.)
    let mut attrs = Vec::with_capacity(query.predicates.len());
    let mut values = Vec::with_capacity(query.predicates.len());
    for p in &query.predicates {
        let Predicate::Compare {
            col,
            op: Comparison::Eq,
            value: Literal::Str(s),
        } = p
        else {
            return None;
        };
        if !qualifier_ok(col) {
            return None;
        }
        let attr = schema.attr_id(&col.column)?;
        if attrs.contains(&attr) {
            return None;
        }
        let id = schema.domain(attr).id_of(s)?;
        attrs.push(attr);
        values.push(id);
    }
    if attrs.is_empty() {
        // A bare `SELECT COUNT(*)` is the total count — the reweighted
        // sample's Σ w(t) is the debiased answer.
        return None;
    }
    Some(PointShape {
        attrs,
        values,
        column,
    })
}

/// The §4.3 point rule: a point the reweighted sample holds is answered
/// from the sample (`SUM(weight)`), any other point by BN inference,
/// `n · Pr(attrs = values)` — or from the sample, where it counts 0, when
/// the model has no BN. Returns [`RouteKind::Sample`] or
/// [`RouteKind::BayesNet`]. `decide` and [`Themis::point_query`] both ask
/// this function, so SQL point queries and the model API pick the same
/// source.
pub(crate) fn point_route(model: &Themis, attrs: &[AttrId], values: &[u32]) -> RouteKind {
    if model.bayesian_network().is_some()
        && !model.reweighted_sample().contains_point(attrs, values)
    {
        RouteKind::BayesNet
    } else {
        RouteKind::Sample
    }
}

/// Route a parsed query (§4.3). This is pure decision logic — nothing
/// executes — so `ThemisSession::explain` and the execution path cannot
/// disagree: both call this exact function.
pub(crate) fn decide(model: &Themis, query: &Query) -> Decision {
    if model.bayesian_network().is_none() {
        return Decision::Sample {
            reason: "model has no Bayesian network; every query answers from the reweighted \
                     sample"
                .into(),
        };
    }
    if is_grouped(query) {
        return Decision::Hybrid {
            reason: format!(
                "grouped query: reweighted-sample groups unioned with groups agreed by all {} \
                 BN replicates",
                model.config().k_samples
            ),
        };
    }
    let sample = model.reweighted_sample();
    if let Some(point) = point_shape(sample, query) {
        let described: Vec<String> = point
            .attrs
            .iter()
            .zip(&point.values)
            .map(|(&a, &v)| {
                format!(
                    "{} = '{}'",
                    sample.schema().attr(a).name(),
                    sample.schema().domain(a).label(v)
                )
            })
            .collect();
        let described = described.join(", ");
        if point_route(model, &point.attrs, &point.values) == RouteKind::Sample {
            return Decision::Sample {
                reason: format!(
                    "point query ({described}) hits the sample; answered by SUM(weight)"
                ),
            };
        }
        return Decision::BnPoint {
            reason: format!(
                "point query ({described}) misses the sample; answered by n · Pr(...) from \
                 the Bayesian network"
            ),
            attrs: point.attrs,
            values: point.values,
            column: point.column,
        };
    }
    Decision::Sample {
        reason: "scalar aggregate (no grouping, not a single-tuple point query); answered \
                 from the reweighted sample"
            .into(),
    }
}

/// Bind every FROM table of `query` to `relation` — an `Arc` bump per
/// binding, never a data clone — and execute on the morsel engine.
pub(crate) fn run_on(
    relation: &Arc<Relation>,
    query: &Query,
    opts: &EngineOptions,
) -> Result<QueryResult, ExecError> {
    let mut catalog = Catalog::new();
    for table in &query.from {
        catalog.register(table.name.clone(), Arc::clone(relation));
    }
    themis_query::execute_parallel(&catalog, query, opts)
}

/// Draw the model's K forward-sample replicates (§4.2.4), each scaled to
/// the population size. Deterministic in the model's seed, so every call —
/// and every session — sees identical replicates.
pub(crate) fn simulate_replicates(model: &Themis) -> Vec<Arc<Relation>> {
    let Some(bn) = model.bayesian_network() else {
        return Vec::new();
    };
    let config = model.config();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let size = config
        .bn_sample_size
        .unwrap_or(model.reweighted_sample().len());
    themis_bn::sampling::forward_samples(
        bn,
        config.k_samples,
        size,
        model.population_size(),
        &mut rng,
    )
    .into_iter()
    .map(Arc::new)
    .collect()
}

/// The groups all replicates agree on for a SQL query, K-averaged and
/// labelled (`None` when there are no replicates). The query is compiled
/// once against the replicates' shared schema, and each replicate is one
/// engine execution (its own guard, `replicate` span and counters); groups
/// are agreed in code space inside the engine and labelled once at the end.
fn replicate_consensus(
    replicates: &[Arc<Relation>],
    query: &Query,
    opts: &EngineOptions,
) -> Result<Option<QueryResult>, ExecError> {
    // The engine's guard is re-armed per replicate, so its deadline bounds
    // one replicate at a time. This phase-level deadline bounds the *whole*
    // consensus loop: K nearly-on-budget replicates must not stretch a
    // 250ms deadline into K × 250ms.
    let phase_deadline = opts.limits.deadline.map(|d| Instant::now() + d);
    let mut agreement: Option<Agreement> = None;
    for replicate in replicates {
        if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            return Err(Trip::Cancelled.into());
        }
        if phase_deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(Trip::Deadline.into());
        }
        // One child span per replicate (the loop is serial, so span
        // nesting stays well-formed at every thread count).
        let _span = opts.trace.span("replicate");
        let agreement = match &mut agreement {
            Some(agreement) => agreement,
            None => agreement.insert(Agreement::compile(query, replicate)?),
        };
        agreement.fold(replicate, opts)?;
    }
    Ok(agreement.map(Agreement::finish))
}

/// The query with `ORDER BY` / `LIMIT` stripped: merge paths must union
/// *complete* group sets — truncating inputs first would both lose sample
/// groups (letting BN consensus values shadow real sample answers) and
/// make the consensus depend on per-replicate row ranking.
fn without_order_limit(query: &Query) -> Query {
    let mut inner = query.clone();
    inner.order_by = None;
    inner.limit = None;
    inner
}

/// Re-impose the *original* query's ordering on merged rows: sort by the
/// borrowed group prefix (the sample's rows and the consensus rows are each
/// in group order, but not together), then apply `ORDER BY` / `LIMIT` if the
/// query had them.
fn finish_merged(result: &mut QueryResult, query: &Query) -> Result<(), ExecError> {
    let arity = result.group_arity;
    result.rows.sort_by(|a, b| cmp_group_prefix(a, b, arity));
    if let Some(order) = &query.order_by {
        themis_query::apply_order_by(result, order)?;
    }
    if let Some(limit) = query.limit {
        result.rows.truncate(limit);
    }
    Ok(())
}

/// Hybrid SQL (§4.3): the reweighted-sample answer, unioned with the
/// BN-consensus groups the sample missed. The union happens over the
/// *untruncated* group sets; `ORDER BY` / `LIMIT` apply to the merged
/// result, so a LIMIT ranks sample and BN groups together instead of
/// letting consensus values shadow sample groups the limit cut.
pub(crate) fn hybrid_sql(
    sample: &Arc<Relation>,
    query: &Query,
    opts: &EngineOptions,
    replicates: &[Arc<Relation>],
) -> Result<(QueryResult, Route), ExecError> {
    let trace = &opts.trace;
    let _hybrid_span = trace.span("hybrid");
    let inner = without_order_limit(query);
    let mut merged = {
        let _span = trace.span("execute:sample");
        run_on(sample, &inner, opts)?
    };
    let sample_groups = merged.rows.len();
    let mut bn_groups_added = 0;
    let consensus = {
        let _span = trace.span("consensus");
        replicate_consensus(replicates, &inner, opts)
    };
    match consensus {
        Ok(Some(agreed)) => {
            let _span = trace.span("merge");
            // The sample part comes out of the engine sorted by group
            // labels, so membership is a binary search on its rows.
            let arity = merged.group_arity;
            for row in agreed.rows {
                let in_sample = merged.rows[..sample_groups]
                    .binary_search_by(|probe| cmp_group_prefix(probe, &row, arity))
                    .is_ok();
                if !in_sample {
                    merged.rows.push(row);
                    bn_groups_added += 1;
                }
            }
            trace.add_counts(&[
                ("bn_groups_added", bn_groups_added as u64),
                ("sample_groups", sample_groups as u64),
            ]);
        }
        Ok(None) => {}
        // Graceful degradation: the sample part is already a debiased
        // answer for every group the sample covers. If the BN phase trips a
        // limit or loses a worker, return that part with the reason stamped
        // on the route instead of throwing the whole answer away.
        // Non-degradable errors (cancellation, planner errors) propagate.
        Err(err) => {
            let Some(reason) = DegradeReason::from_error(&err) else {
                return Err(err);
            };
            {
                let _span = trace.span("degrade");
                trace.note("fallback", "Sample");
                trace.note("reason", &reason.to_string());
            }
            finish_merged(&mut merged, query)?;
            return Ok((
                merged,
                Route::Degraded {
                    planned: RouteKind::Hybrid,
                    reason,
                },
            ));
        }
    }
    finish_merged(&mut merged, query)?;
    Ok((
        merged,
        Route::Hybrid {
            sample_groups,
            bn_groups_added,
        },
    ))
}

/// BN-only SQL (§4.2.4 generalized): the query runs on each replicate;
/// groups present in all of them are returned with averaged values, with
/// the query's `ORDER BY` / `LIMIT` applied to the merged result.
pub(crate) fn bn_only_sql(
    query: &Query,
    opts: &EngineOptions,
    replicates: &[Arc<Relation>],
) -> Result<QueryResult, ExecError> {
    let inner = without_order_limit(query);
    let Some(mut out) = replicate_consensus(replicates, &inner, opts)? else {
        return Err(ExecError::Unsupported(
            "k_samples = 0: no BN replicates to answer from".into(),
        ));
    };
    finish_merged(&mut out, query)?;
    Ok(out)
}

/// Direct BN point inference as a scalar result: [`Themis::point_query_bn`]'s
/// `n · Pr(attrs = values)`, under the column name the engine would have
/// produced.
pub(crate) fn bn_point_result(
    model: &Themis,
    attrs: &[AttrId],
    values: &[u32],
    column: String,
) -> Result<QueryResult, ExecError> {
    // `decide` only routes to BnPoint when the model has a BN; surface a
    // routing bug as an error rather than a panic.
    let est = model.point_query_bn(attrs, values).map_err(|_| {
        ExecError::Unsupported("BnPoint routing requires a Bayesian network".into())
    })?;
    Ok(QueryResult {
        columns: vec![column],
        rows: vec![vec![Value::Num(est)]],
        group_arity: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_kinds_and_display() {
        let hybrid = Route::Hybrid {
            sample_groups: 3,
            bn_groups_added: 2,
        };
        assert_eq!(hybrid.kind(), RouteKind::Hybrid);
        assert_eq!(Route::Sample.kind(), RouteKind::Sample);
        assert_eq!(Route::BayesNet { k_agreed: 10 }.kind(), RouteKind::BayesNet);
        assert!(hybrid.to_string().contains("3 sample groups"));
        assert!(Route::BayesNet { k_agreed: 0 }.to_string().contains("direct inference"));
        assert!(Route::BayesNet { k_agreed: 7 }.to_string().contains("7 replicates"));
    }

    #[test]
    fn degraded_routes_are_sample_answers_with_provenance() {
        let degraded = Route::Degraded {
            planned: RouteKind::Hybrid,
            reason: DegradeReason::DeadlineExceeded,
        };
        assert_eq!(degraded.kind(), RouteKind::Sample);
        assert_eq!(degraded.planned_kind(), RouteKind::Hybrid);
        assert_eq!(degraded.degraded(), Some(DegradeReason::DeadlineExceeded));
        assert_eq!(
            degraded.to_string(),
            "Sample (degraded from Hybrid: deadline exceeded)"
        );
        assert_eq!(Route::Sample.planned_kind(), RouteKind::Sample);
        assert_eq!(Route::Sample.degraded(), None);
    }

    #[test]
    fn degrade_reasons_come_only_from_governance_and_worker_errors() {
        assert_eq!(
            DegradeReason::from_error(&Trip::Deadline.into()),
            Some(DegradeReason::DeadlineExceeded)
        );
        assert_eq!(
            DegradeReason::from_error(&Trip::RowBudget { limit: 9 }.into()),
            Some(DegradeReason::RowBudgetExceeded)
        );
        assert_eq!(
            DegradeReason::from_error(&Trip::GroupBudget { limit: 9 }.into()),
            Some(DegradeReason::GroupBudgetExceeded)
        );
        assert_eq!(
            DegradeReason::from_error(&ExecError::Internal("worker panicked: boom".into())),
            Some(DegradeReason::WorkerFailure)
        );
        // Cancellation and ordinary errors never degrade.
        assert_eq!(DegradeReason::from_error(&Trip::Cancelled.into()), None);
        assert_eq!(
            DegradeReason::from_error(&ExecError::UnknownColumn("nope".into())),
            None
        );
        // Reason text is stable enough for footers to echo.
        assert_eq!(DegradeReason::WorkerFailure.to_string(), "worker failure");
    }
}
