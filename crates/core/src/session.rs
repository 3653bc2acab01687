//! The session query API: explicit engine configuration, answer
//! provenance, cached BN replicates, the plan-fingerprint answer cache,
//! and streaming ingest.
//!
//! A [`ThemisSession`] owns a built [`Themis`] model plus an
//! [`EngineOptions`], and is the intended way to *query* a model:
//!
//! * every answer is an [`Answer`] — the result plus the [`Route`] that
//!   produced it and the wall-clock time it took;
//! * [`ThemisSession::explain`] returns the routing decision without
//!   executing (and, by construction, cannot disagree with the route an
//!   actual execution takes: both call the same decision function — the
//!   same invariant covers the cache verdict, see below);
//! * the K forward-sample BN replicates (§4.2.4) are simulated **once** per
//!   world generation and reused by every hybrid / BN-only query instead of
//!   being re-simulated per call;
//! * query setup never deep-clones a relation: the reweighted sample and
//!   each cached replicate live behind [`Arc`], and binding them into a
//!   per-query catalog is a pointer bump.
//!
//! ## Live data
//!
//! The model lives behind a generation-counted [`Arc`] swap (a `World`).
//! Readers pin the current generation with one `Arc` bump and never block;
//! [`ThemisSession::ingest`] builds a successor world off to the side —
//! the grown sample refit by the model's own fit, the one
//! [`Themis::build`] runs (under IPF over an incidence matrix extended by
//! the appended rows), and replicates re-simulated *only if the BN
//! parameters actually moved* — then swaps it in and flushes the answer
//! cache. In-flight queries finish on their pinned generation.
//!
//! An optional [`AnswerCache`] (off by default; see
//! [`ThemisSession::with_answer_cache`]) memoizes full answers by canonical
//! plan fingerprint and morsel size, evicting the least recently used.
//! Hits hand back the stored result bit-identical to the populating
//! execution. Traced, fault-injected, and cancellable queries bypass the
//! cache entirely, and degraded answers never populate it.

use crate::error::ThemisError;
use crate::model::Themis;
use crate::route::{self, Decision, Explain, Route};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};
use themis_data::{storage_bytes, Relation};
use themis_live::{plan_fingerprint, AnswerCache, Fingerprint, LiveSnapshot, LiveStats};
use themis_obs::Counter;
use themis_query::{EngineOptions, ExecError, FaultPlan, QueryResult, QueryTrace, TraceSink};
use themis_sql::{Query, SelectItem};

/// A query result with its provenance: which debiasing component answered
/// ([`Route`]) and how long the query took.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The result rows.
    pub result: QueryResult,
    /// Which component produced the answer (§4.3 routing).
    pub route: Route,
    /// Wall-clock time the query took, from parse to merged result.
    pub elapsed: Duration,
}

impl Answer {
    /// The single value of a scalar result (no groups, one aggregate);
    /// `None` if the shape doesn't match. Forwards to
    /// [`QueryResult::scalar`].
    pub fn scalar(&self) -> Option<f64> {
        self.result.scalar()
    }
}

/// `EXPLAIN ANALYZE` output: the executed [`Answer`] plus the
/// [`QueryTrace`] collected while producing it, and the router's group
/// cardinality estimate next to what actually came back.
///
/// Produced by [`ThemisSession::analyze`]. The answer is **bit-identical**
/// to what [`ThemisSession::sql`] returns for the same query and engine
/// options — tracing only observes, it never steers execution.
#[derive(Debug, Clone)]
pub struct Analyzed {
    /// The executed answer, identical to the untraced one.
    pub answer: Answer,
    /// The span tree collected during execution.
    pub trace: QueryTrace,
    /// Upper-bound estimate of the output group count before execution:
    /// the product of the grouping columns' domain sizes (1 for scalar
    /// queries; saturating).
    pub estimated_groups: u64,
    /// Groups actually returned (rows of the answer, after any `LIMIT`).
    pub actual_groups: u64,
}

/// What an ingest did — returned by [`ThemisSession::ingest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// The table name the batch was addressed to, echoed back (the session
    /// serves its one relation under any `FROM` name).
    pub table: String,
    /// Rows appended by this batch.
    pub rows_added: usize,
    /// Total sample rows after the ingest.
    pub sample_rows: usize,
    /// The new world generation.
    pub generation: u64,
    /// Whether the relearned BN's parameters (or the effective replicate
    /// size) moved — if so, replicates are re-simulated lazily.
    pub bn_moved: bool,
    /// Replicates carried over unchanged into the new generation (0 when
    /// the BN moved, or when none had been simulated yet).
    pub replicates_kept: usize,
    /// Answer-cache entries the ingest flushed: every entry resident when
    /// the new generation swapped in (0 with the cache off).
    pub cache_entries_dropped: usize,
}

/// One immutable generation of the queryable world: the model plus its
/// lazily simulated replicates. Queries pin a generation with one `Arc`
/// bump and keep using it even while an ingest swaps in a successor.
#[derive(Debug)]
struct World {
    model: Arc<Themis>,
    generation: u64,
    /// Lazily simulated, then reused by every query against this
    /// generation. The simulation is deterministic in the model's seed, so
    /// caching changes latency, never answers.
    replicates: OnceLock<Vec<Arc<Relation>>>,
    /// Set when an ingest invalidated previously simulated replicates: the
    /// live counter to bump when the lazy re-simulation actually runs, so
    /// obs can assert "an ingest that moved nothing re-simulated nothing".
    resim_counter: Option<Arc<Counter>>,
}

impl World {
    /// The cached K forward-sample replicates (empty without a BN).
    fn replicates(&self) -> &[Arc<Relation>] {
        self.replicates.get_or_init(|| {
            let reps = route::simulate_replicates(&self.model);
            if let Some(counter) = &self.resim_counter {
                counter.add(reps.len() as u64);
            }
            reps
        })
    }
}

/// A query session over a built [`Themis`] model. See the module docs.
#[derive(Debug)]
pub struct ThemisSession {
    world: RwLock<Arc<World>>,
    engine: EngineOptions,
    /// `None` = answer cache disabled (the default — benches and the
    /// differential oracles run uncached).
    cache: Option<AnswerCache<Answer>>,
    live: LiveStats,
    /// Serializes ingests. Readers never take this lock: they pin the
    /// current world through the brief `RwLock` read guard in
    /// [`ThemisSession::pinned`].
    ingest_lock: Mutex<()>,
}

impl ThemisSession {
    /// Session with default engine options (hardware threads).
    pub fn new(model: Themis) -> Self {
        Self::with_engine(model, EngineOptions::default())
    }

    /// Session with explicit engine options.
    pub fn with_engine(model: Themis, engine: EngineOptions) -> Self {
        ThemisSession {
            world: RwLock::new(Arc::new(World {
                model: Arc::new(model),
                generation: 0,
                replicates: OnceLock::new(),
                resim_counter: None,
            })),
            engine,
            cache: None,
            live: LiveStats::new(),
            ingest_lock: Mutex::new(()),
        }
    }

    /// Builder form of [`ThemisSession::set_answer_cache`].
    pub fn with_answer_cache(mut self, entries: usize) -> Self {
        self.set_answer_cache(entries);
        self
    }

    /// Enable (or resize — existing contents are dropped) the answer
    /// cache, bounded at `entries` answers (at least one).
    pub fn set_answer_cache(&mut self, entries: usize) {
        self.cache = Some(AnswerCache::new(entries));
        self.live.cache_entries.set(0);
    }

    /// Disable the answer cache and drop its contents.
    pub fn disable_answer_cache(&mut self) {
        self.cache = None;
        self.live.cache_entries.set(0);
    }

    /// The live-data metrics bundle (cache and ingest counters).
    pub fn live_stats(&self) -> &LiveStats {
        &self.live
    }

    /// A point-in-time copy of every live metric.
    pub fn live_snapshot(&self) -> LiveSnapshot {
        self.live.snapshot()
    }

    /// The current world generation (0 until the first ingest).
    pub fn generation(&self) -> u64 {
        self.pinned().generation
    }

    /// Pin the current world generation: the read lock is held only for an
    /// `Arc` bump, so queries never block behind an ingest swap.
    fn pinned(&self) -> Arc<World> {
        Arc::clone(
            &self
                .world
                .read()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// The underlying model — the current generation's. The handle stays
    /// valid (and unchanged) across later ingests.
    pub fn model(&self) -> Arc<Themis> {
        Arc::clone(&self.pinned().model)
    }

    /// The engine configuration the short forms (`sql`, `explain`,
    /// `analyze`, ...) run with; the `_with` forms take the caller's.
    pub fn engine(&self) -> &EngineOptions {
        &self.engine
    }

    /// Test-facing view of the current generation's replicates (forces the
    /// simulation).
    #[cfg(test)]
    fn replicates(&self) -> Vec<Arc<Relation>> {
        self.pinned().replicates().to_vec()
    }

    fn parse(sql: &str) -> Result<Query, ThemisError> {
        themis_sql::parse(sql)
            .map_err(|e| ThemisError::Exec(ExecError::Parse(e.to_string())))
    }

    /// Why a query must skip the answer cache, if it must. Feeds both
    /// execution ([`ThemisSession::sql_with`]) and
    /// [`ThemisSession::explain_with`] through
    /// [`ThemisSession::cache_fingerprint`] — the PR 3 invariant (explain
    /// and execution share one decision function) extended to the cache:
    ///
    /// * an enabled trace changes span structure on a hit, so traced
    ///   queries never consult or populate;
    /// * a fault plan makes execution diverge from any cached answer;
    /// * a cancel token can stop execution mid-way — a cached answer would
    ///   mask the cancellation.
    fn cache_bypass(engine: &EngineOptions) -> Option<&'static str> {
        if engine.trace.is_enabled() {
            Some("trace")
        } else if engine.fault_plan != FaultPlan::None {
            Some("fault-plan")
        } else if engine.cancel.is_some() {
            Some("cancel")
        } else {
            None
        }
    }

    /// The one cache-probe decision: `None` when the cache is off or the
    /// engine options force a bypass, otherwise the fingerprint both
    /// execution and explain key on. It carries `engine.morsel_rows`:
    /// morsel blocks merge in morsel order, so two morsel sizes can give
    /// answers that differ in their last bits.
    fn cache_fingerprint(
        &self,
        world: &World,
        query: &Query,
        engine: &EngineOptions,
    ) -> Option<Fingerprint> {
        self.cache.as_ref()?;
        if Self::cache_bypass(engine).is_some() {
            return None;
        }
        Some(
            plan_fingerprint(query, &engine.limits, world.generation)
                .with_morsel_rows(engine.morsel_rows),
        )
    }

    /// Run a SQL query with §4.3 routing: in-sample point queries and plain
    /// scalar aggregates answer from the reweighted sample, missing-tuple
    /// point queries fall back to direct BN inference, and grouped queries
    /// take the hybrid union of sample groups and BN-replicate consensus
    /// groups. The FROM table name(s) are bound to the reweighted sample.
    pub fn sql(&self, sql: &str) -> Result<Answer, ThemisError> {
        self.sql_with(sql, &self.engine)
    }

    /// [`ThemisSession::sql`] with explicit per-call engine options instead
    /// of the session's own.
    ///
    /// This is what lets one session be *shared*: a server holds a single
    /// `Arc<ThemisSession>` (one model, one replicate cache — the expensive
    /// simulation paid exactly once) while every connection carries its own
    /// [`EngineOptions`] — per-connection deadlines, budgets, cancel token,
    /// and thread width — passed here per query. `&self` only: concurrent
    /// callers never contend on session state.
    pub fn sql_with(&self, sql: &str, engine: &EngineOptions) -> Result<Answer, ThemisError> {
        let start = Instant::now();
        let world = self.pinned();
        // One probe decision, shared with explain: None = cache off or
        // bypassed, Some = the key to consult and (on a miss) populate. The
        // query parsed for the key is the one a miss executes.
        let (parsed, fingerprint) = match &self.cache {
            None => (None, None),
            Some(_) => match Self::cache_bypass(engine) {
                Some(_reason) => {
                    self.live.cache_bypasses.inc();
                    (None, None)
                }
                None => {
                    let query = Self::parse(sql)?;
                    let fingerprint = self.cache_fingerprint(&world, &query, engine);
                    (Some(query), fingerprint)
                }
            },
        };
        if let (Some(cache), Some(fp)) = (&self.cache, &fingerprint) {
            if let Some(hit) = cache.get(fp) {
                self.live.cache_hits.inc();
                // The stored result/route are returned untransformed —
                // bit-identical to the execution that populated the entry.
                return Ok(Answer {
                    result: hit.result.clone(),
                    route: hit.route.clone(),
                    elapsed: start.elapsed(),
                });
            }
            self.live.cache_misses.inc();
        }
        let (result, route) = self.routed(&world, sql, parsed, engine)?;
        let answer = Answer {
            result,
            route,
            elapsed: start.elapsed(),
        };
        if let (Some(cache), Some(fp)) = (&self.cache, &fingerprint) {
            // A governance-tripped (degraded) answer is not the plan's true
            // answer; it must never be served to an untripped caller.
            if answer.route.degraded().is_none() {
                let evicted = cache.insert(fp, Arc::new(answer.clone()));
                self.live.cache_evictions.add(evicted as u64);
                self.live.cache_entries.set(cache.len() as u64);
            }
        }
        Ok(answer)
    }

    /// The one routed execution path behind [`ThemisSession::sql_with`]
    /// (and so behind [`ThemisSession::analyze_with`], which calls it
    /// traced): parse (unless the caller already has, as `parsed`), decide,
    /// execute. Spans go to `engine.trace` (no-ops on the default disabled
    /// sink), and tracing never touches the result — traced and untraced
    /// calls produce bit-identical answers.
    fn routed(
        &self,
        world: &World,
        sql: &str,
        parsed: Option<Query>,
        engine: &EngineOptions,
    ) -> Result<(QueryResult, Route), ThemisError> {
        let trace = &engine.trace;
        let _query_span = trace.span("query");
        let query = {
            let _span = trace.span("parse");
            match parsed {
                Some(query) => query,
                None => Self::parse(sql)?,
            }
        };
        if trace.is_enabled() && self.cache.is_some() {
            // Traced queries bypass the answer cache (see
            // `cache_bypass`); record that on the span so EXPLAIN ANALYZE
            // output explains why a hot query still executed.
            trace.note("cache", "bypass");
        }
        let decision = {
            let _span = trace.span("route");
            let decision = route::decide(&world.model, &query);
            if trace.is_enabled() {
                let kind = match &decision {
                    Decision::Sample { .. } => "sample",
                    Decision::BnPoint { .. } => "bn_point",
                    Decision::Hybrid { .. } => "hybrid",
                };
                trace.note("decision", kind);
                if matches!(decision, Decision::Hybrid { .. }) {
                    // Observed *before* `world.replicates()` forces the
                    // cache below, so the note reflects whether this query
                    // pays the simulation or reuses it.
                    let cache = if world.replicates.get().is_some() {
                        "hit"
                    } else {
                        "miss"
                    };
                    trace.note("replicate_cache", cache);
                }
            }
            decision
        };
        let (result, route) = match decision {
            Decision::Sample { .. } => (
                route::run_on(world.model.sample_arc(), &query, engine)?,
                Route::Sample,
            ),
            Decision::BnPoint {
                attrs,
                values,
                column,
                ..
            } => {
                let _span = trace.span("bn_point");
                (
                    route::bn_point_result(&world.model, &attrs, &values, column)?,
                    Route::BayesNet { k_agreed: 0 },
                )
            }
            Decision::Hybrid { .. } => {
                let replicates = match world.replicates.get() {
                    Some(replicates) => replicates.as_slice(),
                    None => {
                        // The replicate-cache miss pays the simulation;
                        // attribute it to a span of its own.
                        let _span = trace.span("simulate");
                        let replicates = world.replicates();
                        let rows: usize = replicates.iter().map(|r| r.len()).sum();
                        let bytes = storage_bytes(replicates.iter().map(|r| r.as_ref()));
                        trace.add_counts(&[
                            ("bytes", bytes as u64),
                            ("replicates", replicates.len() as u64),
                            ("rows", rows as u64),
                        ]);
                        replicates
                    }
                };
                route::hybrid_sql(world.model.sample_arc(), &query, engine, replicates)?
            }
        };
        Ok((result, route))
    }

    /// `EXPLAIN ANALYZE`: run `sql` exactly as [`ThemisSession::sql`] would
    /// — same routing, same engine, bit-identical answer — while collecting
    /// a [`QueryTrace`] of the execution, and compare the router's group
    /// estimate with what actually came back.
    pub fn analyze(&self, sql: &str) -> Result<Analyzed, ThemisError> {
        self.analyze_with(sql, &self.engine)
    }

    /// [`ThemisSession::analyze`] with explicit per-call engine options.
    /// Any sink already present in `engine` is ignored: analysis always
    /// collects into its own fresh sink. It is a traced
    /// [`ThemisSession::sql_with`], so it bypasses the answer cache and
    /// counts the bypass like any traced query.
    pub fn analyze_with(&self, sql: &str, engine: &EngineOptions) -> Result<Analyzed, ThemisError> {
        let sink = TraceSink::enabled();
        let mut traced_engine = engine.clone();
        traced_engine.trace = sink.clone();
        let answer = self.sql_with(sql, &traced_engine)?;
        let trace = sink.finish();
        let estimated_groups = Self::estimated_groups(&self.model(), &Self::parse(sql)?);
        let actual_groups = answer.result.rows.len() as u64;
        Ok(Analyzed {
            answer,
            trace,
            estimated_groups,
            actual_groups,
        })
    }

    /// Upper bound on a query's output group count, from the sample
    /// schema: the product of the distinct grouping columns' domain sizes.
    /// Scalar queries estimate 1; unknown columns contribute nothing (the
    /// engine rejects them later anyway).
    fn estimated_groups(model: &Themis, query: &Query) -> u64 {
        let schema = model.reweighted_sample().schema();
        let mut seen: Vec<String> = Vec::new();
        let mut estimate: u64 = 1;
        let bare_columns = query.select.iter().filter_map(|item| match item {
            SelectItem::Column(c) => Some(c),
            _ => None,
        });
        for col in query.group_by.iter().chain(bare_columns) {
            let lower = col.column.to_ascii_lowercase();
            if seen.contains(&lower) {
                continue;
            }
            seen.push(lower);
            if let Some(attr) = schema.attr_id(&col.column) {
                estimate = estimate.saturating_mul(schema.domain(attr).size() as u64);
            }
        }
        estimate
    }

    /// The routing decision for `sql`, without executing it. The returned
    /// [`Explain`] also predicts degradation: under armed limits or a fault
    /// plan, a hybrid route reports `degrades_to = Some(Sample)` — the route
    /// a tripped BN phase falls back to.
    pub fn explain(&self, sql: &str) -> Result<Explain, ThemisError> {
        self.explain_with(sql, &self.engine)
    }

    /// [`ThemisSession::explain`] with explicit per-call engine options (the
    /// degradation prediction depends on which limits are armed, so a shared
    /// session must explain against the *caller's* options).
    pub fn explain_with(&self, sql: &str, engine: &EngineOptions) -> Result<Explain, ThemisError> {
        let world = self.pinned();
        let query = Self::parse(sql)?;
        let mut explain = route::decide(&world.model, &query).explain(engine);
        // The cache verdict comes from the same probe function execution
        // uses (`cache_fingerprint`), so explain cannot promise a hit that
        // `sql` would miss or vice versa. `contains` deliberately skips the
        // LRU epoch bump: explaining a query must not keep it resident.
        explain.cached = self
            .cache_fingerprint(&world, &query, engine)
            .and_then(|fp| self.cache.as_ref().map(|c| c.contains(&fp)));
        Ok(explain)
    }

    /// SQL over the reweighted sample only (no routing, no BN) — the
    /// behaviour of the pure reweighting baselines.
    pub fn sql_sample_only(&self, sql: &str) -> Result<Answer, ThemisError> {
        let start = Instant::now();
        let world = self.pinned();
        let query = Self::parse(sql)?;
        let result = route::run_on(world.model.sample_arc(), &query, &self.engine)?;
        Ok(Answer {
            result,
            route: Route::Sample,
            elapsed: start.elapsed(),
        })
    }

    /// SQL answered by the BN alone (§4.2.4 generalized): the query runs on
    /// each cached replicate; groups present in *all* replicates are
    /// returned with averaged values.
    pub fn sql_bn_only(&self, sql: &str) -> Result<Answer, ThemisError> {
        let start = Instant::now();
        let world = self.pinned();
        if world.model.bayesian_network().is_none() {
            return Err(ThemisError::NoBayesNet);
        }
        let query = Self::parse(sql)?;
        let result = route::bn_only_sql(&query, &self.engine, world.replicates())?;
        let k_agreed = world.replicates().len();
        Ok(Answer {
            result,
            route: Route::BayesNet { k_agreed },
            elapsed: start.elapsed(),
        })
    }

    /// Append labeled rows to the registered relation, refit the model, and
    /// swap in a new world generation. `&self`: concurrent readers keep
    /// answering on their pinned generation and never block.
    ///
    /// Semantics, in order:
    ///
    /// 1. the whole batch is validated first — a bad row rejects the batch
    ///    and the world is untouched;
    /// 2. the grown sample is refit by the model's own fit, the one
    ///    [`Themis::build`] runs: reweight (under IPF over the carried
    ///    incidence matrix, *extended* by the appended rows, which is
    ///    provably identical to rebuilding it), then relearn the BN on the
    ///    reweighted sample — so the new model is bit-identical to a cold
    ///    build on the grown sample;
    /// 3. replicates are re-simulated (lazily, on next use) **only** when
    ///    the BN parameters or the effective replicate size moved —
    ///    otherwise the old replicates are carried over and
    ///    `live.ingest.replicates_kept` records it;
    /// 4. the new world swaps in with `generation + 1`, and the whole
    ///    answer cache is flushed: the session binds its one relation to
    ///    every `FROM` name, so every entry is stale.
    ///
    /// `table` is the name the batch was addressed to, echoed in the
    /// report; it is not a catalog lookup.
    pub fn ingest(&self, table: &str, rows: &[Vec<String>]) -> Result<IngestReport, ThemisError> {
        // One writer at a time; readers never take this lock.
        let _writer = self
            .ingest_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let old = self.pinned();
        let model = old.model.grown(rows)?;

        // Replicates depend on exactly three inputs: the BN parameters, the
        // effective replicate size, and the fixed seed. Re-simulate iff one
        // of the first two moved.
        let sample_rows = model.reweighted_sample().len();
        let size_moved = model.config().bn_sample_size.is_none()
            && sample_rows != old.model.reweighted_sample().len();
        let bn_moved = size_moved
            || themis_live::bn_parameters_moved(
                old.model.bayesian_network(),
                model.bayesian_network(),
            );

        let replicates = OnceLock::new();
        let mut resim_counter = None;
        let mut replicates_kept = 0usize;
        if bn_moved {
            // Invalidated. If replicates had been simulated (or were
            // already pending re-simulation), the next lazy simulation is a
            // *re*-simulation and must be counted.
            if old.replicates.get().is_some() || old.resim_counter.is_some() {
                resim_counter = Some(Arc::clone(&self.live.replicates_resimulated));
            }
        } else {
            match old.replicates.get() {
                Some(reps) => {
                    replicates_kept = reps.len();
                    let _ = replicates.set(reps.clone());
                    self.live.replicates_kept.add(replicates_kept as u64);
                }
                // Never simulated: carry forward any pending
                // re-simulation debt from an earlier invalidating ingest.
                None => resim_counter = old.resim_counter.clone(),
            }
        }

        let generation = old.generation + 1;
        let world = Arc::new(World {
            model: Arc::new(model),
            generation,
            replicates,
            resim_counter,
        });
        *self
            .world
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = world;

        // Every entry answered the old generation, which no query reads
        // any more (fingerprints carry the generation): flush them all.
        let cache_entries_dropped = match &self.cache {
            Some(cache) => {
                let dropped = cache.clear();
                self.live.cache_invalidations.add(dropped as u64);
                self.live.cache_entries.set(cache.len() as u64);
                dropped
            }
            None => 0,
        };
        self.live.ingest_batches.inc();
        self.live.ingest_rows.add(rows.len() as u64);
        self.live.generation.set(generation);

        Ok(IngestReport {
            table: table.to_string(),
            rows_added: rows.len(),
            sample_rows,
            generation,
            bn_moved,
            replicates_kept,
            cache_entries_dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ThemisConfig;
    use crate::route::RouteKind;
    use themis_aggregates::{AggregateResult, AggregateSet};
    use themis_data::paper_example::{example_population, example_sample};
    use themis_data::AttrId;
    use themis_query::Value;

    fn paper_session(config: ThemisConfig) -> ThemisSession {
        paper_session_on(example_sample(), config)
    }

    /// A session over `sample` with the paper example's aggregates.
    fn paper_session_on(sample: Relation, config: ThemisConfig) -> ThemisSession {
        let p = example_population();
        let aggregates = AggregateSet::from_results(vec![
            AggregateResult::compute(&p, &[AttrId(0)]),
            AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]),
        ]);
        ThemisSession::new(Themis::build(sample, aggregates, 10.0, config))
    }

    fn open_world_session() -> ThemisSession {
        paper_session(ThemisConfig {
            bn_sample_size: Some(4_000),
            ..ThemisConfig::default()
        })
    }

    #[test]
    fn in_sample_point_query_routes_to_sample_and_explain_agrees() {
        let s = open_world_session();
        // NC→NY is in the sample.
        let sql = "SELECT COUNT(*) FROM flights WHERE o_st = 'NC' AND d_st = 'NY'";
        let answer = s.sql(sql).unwrap();
        assert_eq!(answer.route, Route::Sample);
        assert_eq!(s.explain(sql).unwrap().route, answer.route.kind());
        // Same value the sample-only path computes.
        let direct = s.model().point_query_sample(&[AttrId(1), AttrId(2)], &[1, 2]);
        assert!((answer.scalar().unwrap() - direct).abs() < 1e-9);
    }

    #[test]
    fn missing_tuple_point_query_routes_to_bn_and_explain_agrees() {
        let s = open_world_session();
        // FL→NY exists in the population but not in the sample.
        let sql = "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'";
        assert_eq!(s.explain(sql).unwrap().route, RouteKind::BayesNet);
        let answer = s.sql(sql).unwrap();
        assert_eq!(answer.route, Route::BayesNet { k_agreed: 0 });
        let est = answer.scalar().unwrap();
        assert!(est > 0.0, "open-world estimate must be positive, got {est}");
        // Agrees with the model-level hybrid point query.
        let direct = s.model().point_query(&[AttrId(1), AttrId(2)], &[0, 2]);
        assert!((est - direct).abs() < 1e-12);
        // And the aliased spelling keeps its alias as the column name.
        let aliased = s
            .sql("SELECT COUNT(*) AS n FROM flights WHERE o_st = 'FL' AND d_st = 'NY'")
            .unwrap();
        assert_eq!(aliased.result.columns, vec!["n"]);
    }

    #[test]
    fn open_world_group_by_routes_hybrid_with_added_groups() {
        let s = open_world_session();
        let sql = "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st";
        assert_eq!(s.explain(sql).unwrap().route, RouteKind::Hybrid);
        let answer = s.sql(sql).unwrap();
        let Route::Hybrid {
            sample_groups,
            bn_groups_added,
        } = answer.route
        else {
            panic!("expected hybrid route, got {:?}", answer.route);
        };
        assert_eq!(
            sample_groups,
            s.sql_sample_only(sql).unwrap().result.rows.len()
        );
        assert!(
            bn_groups_added > 0,
            "BN must add open-world groups on the paper example"
        );
        assert_eq!(answer.result.rows.len(), sample_groups + bn_groups_added);
        // Merged output stays sorted by the group prefix.
        let rows = &answer.result.rows;
        for w in rows.windows(2) {
            assert_ne!(
                themis_query::cmp_group_prefix(&w[0], &w[1], answer.result.group_arity),
                std::cmp::Ordering::Greater,
                "rows out of order"
            );
        }
    }

    #[test]
    fn scalar_aggregates_route_to_sample() {
        let s = open_world_session();
        let sql = "SELECT COUNT(*) FROM flights WHERE date <= 1";
        assert_eq!(s.explain(sql).unwrap().route, RouteKind::Sample);
        assert_eq!(s.sql(sql).unwrap().route, Route::Sample);
        // An unknown label cannot be a BN point: sample answers 0.
        let sql = "SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'";
        assert_eq!(s.explain(sql).unwrap().route, RouteKind::Sample);
        assert_eq!(s.sql(sql).unwrap().scalar(), Some(0.0));
    }

    #[test]
    fn without_bn_everything_routes_to_sample() {
        let s = paper_session(ThemisConfig {
            bn_mode: None,
            ..ThemisConfig::default()
        });
        for sql in [
            "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
            "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st",
        ] {
            assert_eq!(s.explain(sql).unwrap().route, RouteKind::Sample, "{sql}");
            assert_eq!(s.sql(sql).unwrap().route, Route::Sample, "{sql}");
        }
        assert!(matches!(
            s.sql_bn_only("SELECT COUNT(*) FROM flights"),
            Err(ThemisError::NoBayesNet)
        ));
    }

    #[test]
    fn bn_only_sql_reports_replicate_agreement() {
        let s = open_world_session();
        let answer = s
            .sql_bn_only("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st")
            .unwrap();
        assert_eq!(answer.route, Route::BayesNet { k_agreed: 10 });
        assert!(!answer.result.rows.is_empty());
    }

    #[test]
    fn zero_replicates_answer_hybrid_sql_from_the_sample_alone() {
        let s = paper_session(ThemisConfig {
            k_samples: 0,
            ..ThemisConfig::default()
        });
        let sql = "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st";
        assert_eq!(s.explain(sql).unwrap().route, RouteKind::Hybrid);
        let hybrid = s.sql(sql).unwrap();
        let sample = s.sql_sample_only(sql).unwrap();
        assert_eq!(hybrid.result, sample.result, "the sample rows, bit for bit");
        assert_eq!(
            hybrid.route,
            Route::Hybrid {
                sample_groups: sample.result.rows.len(),
                bn_groups_added: 0,
            }
        );
        assert!(matches!(
            s.sql_bn_only(sql),
            Err(ThemisError::Exec(ExecError::Unsupported(_)))
        ));
    }

    #[test]
    fn sql_point_queries_and_the_model_api_share_one_point_rule() {
        // Every 1- and 2-attribute point of the paper example's domain,
        // date × o_st × d_st = 2 × 3 × 3.
        let sizes = [2u32, 3, 3];
        let mut points: Vec<Vec<(usize, u32)>> = Vec::new();
        for (a, &a_size) in sizes.iter().enumerate() {
            for u in 0..a_size {
                points.push(vec![(a, u)]);
                for (b, &b_size) in sizes.iter().enumerate().skip(a + 1) {
                    points.extend((0..b_size).map(|v| vec![(a, u), (b, v)]));
                }
            }
        }
        assert_eq!(points.len(), 8 + 21);
        for bn_mode in [ThemisConfig::default().bn_mode, None] {
            let s = paper_session(ThemisConfig {
                bn_mode,
                ..ThemisConfig::default()
            });
            let model = s.model();
            let schema = model.reweighted_sample().schema();
            for point in &points {
                let attrs: Vec<AttrId> = point.iter().map(|&(a, _)| AttrId(a)).collect();
                let values: Vec<u32> = point.iter().map(|&(_, v)| v).collect();
                let filter: Vec<String> = attrs
                    .iter()
                    .zip(&values)
                    .map(|(&a, &v)| {
                        format!(
                            "{} = '{}'",
                            schema.attr(a).name(),
                            schema.domain(a).label(v)
                        )
                    })
                    .collect();
                let sql = format!(
                    "SELECT COUNT(*) FROM flights WHERE {}",
                    filter.join(" AND ")
                );
                let answer = s.sql(&sql).unwrap();
                let (est, direct) = (answer.scalar().unwrap(), model.point_query(&attrs, &values));
                let rule = route::point_route(&model, &attrs, &values);
                let in_sample = model.reweighted_sample().contains_point(&attrs, &values);
                assert_eq!(answer.route.kind(), rule, "{sql}");
                assert_eq!(
                    rule == RouteKind::Sample,
                    in_sample || bn_mode.is_none(),
                    "{sql}"
                );
                if rule == RouteKind::BayesNet {
                    assert_eq!(answer.route, Route::BayesNet { k_agreed: 0 }, "{sql}");
                    assert_eq!(est.to_bits(), direct.to_bits(), "{sql}");
                    let bn = model.point_query_bn(&attrs, &values).unwrap();
                    assert_eq!(direct.to_bits(), bn.to_bits(), "{sql}");
                } else {
                    // The engine sums per morsel, `point_count` in one pass.
                    assert_eq!(answer.route, Route::Sample, "{sql}");
                    assert!(
                        (est - direct).abs() <= 1e-9 * direct.abs(),
                        "{sql}: {est} vs {direct}"
                    );
                    assert_eq!(direct, model.point_query_sample(&attrs, &values), "{sql}");
                }
            }
        }
    }

    #[test]
    fn parse_and_exec_errors_are_themis_errors_not_panics() {
        let s = open_world_session();
        assert!(matches!(
            s.sql("SELEKT nope"),
            Err(ThemisError::Exec(ExecError::Parse(_)))
        ));
        assert!(matches!(
            s.sql("SELECT COUNT(*) FROM flights WHERE nope = 1"),
            Err(ThemisError::Exec(ExecError::UnknownColumn(_)))
        ));
        assert!(matches!(
            s.explain("SELEKT nope"),
            Err(ThemisError::Exec(ExecError::Parse(_)))
        ));
    }

    #[test]
    fn replicates_are_simulated_once_and_reused() {
        let s = open_world_session();
        s.sql("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st").unwrap();
        let first: Vec<*const Relation> = s
            .replicates()
            .iter()
            .map(Arc::as_ptr)
            .collect();
        s.sql("SELECT d_st, COUNT(*) FROM flights GROUP BY d_st").unwrap();
        let second: Vec<*const Relation> = s
            .replicates()
            .iter()
            .map(Arc::as_ptr)
            .collect();
        assert_eq!(first, second, "cache must hand back the same replicates");
        assert_eq!(first.len(), 10, "default K");
    }

    #[test]
    fn only_a_replicate_cache_miss_opens_a_simulate_span() {
        let s = open_world_session();
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        let miss = s.analyze(sql).unwrap().trace;
        let query = miss.find("query").unwrap();
        let names: Vec<&str> = query.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["parse", "route", "simulate", "hybrid"]);
        let simulate = miss.find("simulate").unwrap();
        let rows: usize = s.replicates().iter().map(|r| r.len()).sum();
        assert_eq!(simulate.counter("replicates"), Some(10));
        assert_eq!(simulate.counter("rows"), Some(rows as u64));
        // One byte per code (the three domains are small) and one weight
        // column the ten replicates share.
        let per_replicate = s.replicates()[0].len();
        assert_eq!(
            simulate.counter("bytes"),
            Some((rows * 3 + per_replicate * 8) as u64)
        );
        assert!(simulate.children.is_empty());
        let hit = s.analyze(sql).unwrap().trace;
        assert_eq!(
            hit.find("route").unwrap().note("replicate_cache"),
            Some("hit")
        );
        assert!(hit.find("simulate").is_none());
    }

    #[test]
    fn queries_never_deep_clone_the_sample() {
        let s = open_world_session();
        let sample = Arc::clone(s.model().sample_arc());
        let before = Arc::strong_count(&sample);
        s.sql("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st").unwrap();
        s.sql("SELECT COUNT(*) FROM flights t, flights s WHERE t.d_st = s.o_st")
            .unwrap();
        s.sql_sample_only("SELECT COUNT(*) FROM flights").unwrap();
        // Per-query catalogs take Arc bumps and release them; nothing holds
        // (or copied) the sample afterwards.
        assert_eq!(Arc::strong_count(&sample), before);
        // The same holds for every cached replicate across repeated queries.
        let replicate = Arc::clone(&s.replicates()[0]);
        let before = Arc::strong_count(&replicate);
        s.sql("SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st")
            .unwrap();
        assert_eq!(Arc::strong_count(&replicate), before);
    }

    #[test]
    fn point_query_answers_carry_routes() {
        let s = open_world_session();
        let in_sample = "SELECT COUNT(*) FROM flights WHERE o_st = 'NC' AND d_st = 'NY'";
        let missing = "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'";
        assert_eq!(s.sql(in_sample).unwrap().route, Route::Sample);
        assert_eq!(
            s.sql(missing).unwrap().route,
            Route::BayesNet { k_agreed: 0 }
        );
        let no_bn = paper_session(ThemisConfig {
            bn_mode: None,
            ..ThemisConfig::default()
        });
        let answer = no_bn.sql(missing).unwrap();
        assert_eq!(answer.route, Route::Sample);
        assert_eq!(answer.scalar(), Some(0.0));
    }

    #[test]
    fn bogus_table_qualifiers_never_route_to_the_bn() {
        let s = open_world_session();
        // FL→NY misses the sample, but the qualifier names no FROM binding:
        // the engine must reject this identically to the in-sample case,
        // instead of the point router silently answering it.
        for sql in [
            "SELECT COUNT(*) FROM flights WHERE bogus.o_st = 'FL' AND bogus.d_st = 'NY'",
            "SELECT COUNT(*) FROM flights WHERE bogus.o_st = 'NC' AND bogus.d_st = 'NY'",
        ] {
            assert!(
                matches!(
                    s.sql(sql),
                    Err(ThemisError::Exec(ExecError::UnknownColumn(_)))
                ),
                "{sql}"
            );
        }
        // A qualifier that names the FROM alias still point-routes.
        let ok = s
            .sql("SELECT COUNT(*) FROM flights f WHERE f.o_st = 'FL' AND f.d_st = 'NY'")
            .unwrap();
        assert_eq!(ok.route, Route::BayesNet { k_agreed: 0 });
    }

    #[test]
    fn hybrid_limit_ranks_merged_groups_without_shadowing_sample_counts() {
        let s = open_world_session();
        let full_sql = "SELECT o_st, d_st, COUNT(*) AS n FROM flights GROUP BY o_st, d_st";
        let limited_sql = format!("{full_sql} ORDER BY n DESC LIMIT 2");
        let full = s.sql(full_sql).unwrap();
        let limited = s.sql(&limited_sql).unwrap();
        // The route metadata reflects the *untruncated* union...
        assert_eq!(limited.route, full.route);
        // ...and the limited rows are exactly the top of the merged result,
        // so every surviving group keeps the value the full answer gave it
        // (a sample group cut by LIMIT is never re-added with a BN value).
        assert_eq!(limited.result.rows.len(), 2);
        let full_map = full.result.to_map();
        for (group, vals) in limited.result.to_map() {
            assert_eq!(full_map[&group], vals, "group {group:?}");
        }
    }

    #[test]
    fn bn_only_sql_honours_order_by_and_limit() {
        let s = open_world_session();
        let answer = s
            .sql_bn_only("SELECT o_st, COUNT(*) AS n FROM flights GROUP BY o_st ORDER BY n DESC LIMIT 2")
            .unwrap();
        assert_eq!(answer.result.rows.len(), 2);
        let ns: Vec<f64> = answer
            .result
            .rows
            .iter()
            .map(|row| match row[1] {
                Value::Num(v) => v,
                _ => panic!("aggregate cell"),
            })
            .collect();
        assert!(ns[0] >= ns[1], "rows must be ordered by n DESC: {ns:?}");
        // And the unknown-ORDER-BY error still surfaces like the engine's.
        assert!(matches!(
            s.sql_bn_only("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st ORDER BY nope"),
            Err(ThemisError::Exec(ExecError::UnknownColumn(_)))
        ));
    }

    #[test]
    fn row_budget_degrades_hybrid_to_its_sample_part_and_explain_predicts_it() {
        use themis_query::Limits;
        let s = open_world_session();
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        let sample_part = s.sql_sample_only(sql).unwrap().result.to_map();
        // Unlimited: no degradation predicted, none happens.
        let plain = s.explain(sql).unwrap();
        assert_eq!(plain.degrades_to, None);
        assert!(matches!(s.sql(sql).unwrap().route, Route::Hybrid { .. }));
        // A row budget the 4-row sample passes but every 4000-row BN
        // replicate trips.
        let engine = EngineOptions {
            limits: Limits {
                max_rows: Some(100),
                ..Limits::default()
            },
            ..EngineOptions::default()
        };
        let predicted = s.explain_with(sql, &engine).unwrap();
        assert_eq!(predicted.route, RouteKind::Hybrid);
        assert_eq!(predicted.degrades_to, Some(RouteKind::Sample));
        assert!(predicted.to_string().contains("degrades to Sample"));
        let answer = s.sql_with(sql, &engine).unwrap();
        assert_eq!(
            answer.route,
            Route::Degraded {
                planned: RouteKind::Hybrid,
                reason: crate::route::DegradeReason::RowBudgetExceeded,
            }
        );
        // A degraded answer is exactly the sample part — debiased for every
        // group the sample covers, minus the BN's open-world additions.
        assert_eq!(answer.route.kind(), RouteKind::Sample);
        assert_eq!(answer.route.planned_kind(), RouteKind::Hybrid);
        assert_eq!(answer.result.to_map(), sample_part);
        // Scalar queries have no BN phase: nothing to degrade even with
        // limits armed.
        let scalar = s.explain_with("SELECT COUNT(*) FROM flights", &engine).unwrap();
        assert_eq!(scalar.degrades_to, None);
    }

    #[test]
    fn contained_worker_panic_degrades_instead_of_aborting() {
        use themis_query::FaultPlan;
        let s = open_world_session();
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        // Morsel 1 only exists on the 4000-row replicates (morsel_rows
        // defaults to 2048); the 4-row sample never reaches it.
        let engine = EngineOptions {
            fault_plan: FaultPlan::PanicAtMorsel { morsel: 1 },
            ..EngineOptions::default()
        };
        assert_eq!(
            s.explain_with(sql, &engine).unwrap().degrades_to,
            Some(RouteKind::Sample)
        );
        let answer = s.sql_with(sql, &engine).unwrap();
        assert_eq!(
            answer.route.degraded(),
            Some(crate::route::DegradeReason::WorkerFailure)
        );
        assert!(!answer.result.rows.is_empty());
    }

    #[test]
    fn slow_bn_phase_degrades_on_deadline() {
        use std::time::Duration;
        use themis_query::{FaultPlan, Limits};
        let s = open_world_session();
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        // The injected stall sits on morsel 1, which only the replicates
        // have: the sample part finishes far inside the deadline, the BN
        // phase provably exceeds it.
        let engine = EngineOptions {
            limits: Limits {
                deadline: Some(Duration::from_millis(50)),
                ..Limits::default()
            },
            fault_plan: FaultPlan::SlowMorsel {
                morsel: 1,
                delay: Duration::from_millis(200),
            },
            ..EngineOptions::default()
        };
        let answer = s.sql_with(sql, &engine).unwrap();
        assert_eq!(
            answer.route,
            Route::Degraded {
                planned: RouteKind::Hybrid,
                reason: crate::route::DegradeReason::DeadlineExceeded,
            }
        );
        assert!(answer
            .route
            .to_string()
            .contains("degraded from Hybrid: deadline exceeded"));
    }

    #[test]
    fn cancellation_stops_the_query_rather_than_degrading_it() {
        use themis_query::{CancelToken, Trip};
        let s = open_world_session();
        let cancel = CancelToken::new();
        cancel.cancel();
        let engine = EngineOptions {
            cancel: Some(cancel),
            ..EngineOptions::default()
        };
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        // A cancel token alone predicts no degradation...
        assert_eq!(s.explain_with(sql, &engine).unwrap().degrades_to, None);
        // ...and a cancelled query is an error, never a partial answer.
        assert!(matches!(
            s.sql_with(sql, &engine),
            Err(ThemisError::Exec(ExecError::Governed(Trip::Cancelled)))
        ));
    }

    #[test]
    fn engine_options_are_session_state() {
        // The options a session is built with answer its short forms; the
        // `_with` forms take a caller's options for one call.
        let engine = EngineOptions {
            threads: 2,
            morsel_rows: 64,
            ..EngineOptions::default()
        };
        let model = (*open_world_session().model()).clone();
        let s = ThemisSession::with_engine(model, engine.clone());
        assert_eq!(s.engine().threads, 2);
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        let own = s.sql(sql).unwrap();
        assert!(!own.result.rows.is_empty());
        assert_eq!(s.sql_with(sql, &engine).unwrap().result, own.result);
    }

    fn live_session() -> ThemisSession {
        open_world_session().with_answer_cache(32)
    }

    fn rows(labels: &[[&str; 3]]) -> Vec<Vec<String>> {
        labels
            .iter()
            .map(|row| row.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn cache_hits_serve_bit_identical_answers_and_are_counted() {
        let s = live_session();
        let sql = "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st";
        let cold = s.sql(sql).unwrap();
        let snap = s.live_snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (0, 1));
        assert_eq!(snap.cache_entries, 1);
        let hit = s.sql(sql).unwrap();
        assert_eq!(hit.result, cold.result);
        assert_eq!(hit.route, cold.route);
        let snap = s.live_snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        // A different plan is its own entry, not a collision.
        s.sql("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st").unwrap();
        assert_eq!(s.live_snapshot().cache_entries, 2);
    }

    #[test]
    fn explain_reports_cache_state_from_the_same_probe() {
        let s = live_session();
        let sql = "SELECT COUNT(*) FROM flights WHERE o_st = 'NC'";
        assert_eq!(s.explain(sql).unwrap().cached, Some(false));
        s.sql(sql).unwrap();
        let explain = s.explain(sql).unwrap();
        assert_eq!(explain.cached, Some(true));
        assert!(explain.to_string().ends_with("[cached]"));
        // The probe itself never perturbs the hit/miss counters.
        let snap = s.live_snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (0, 1));
        // With the cache off, explain reports no cache opinion at all.
        let off = open_world_session();
        assert_eq!(off.explain(sql).unwrap().cached, None);
    }

    #[test]
    fn traced_and_fault_injected_queries_bypass_the_cache() {
        use themis_query::{FaultPlan, TraceSink};
        let s = live_session();
        let sql = "SELECT COUNT(*) FROM flights";
        let traced = EngineOptions {
            trace: TraceSink::enabled(),
            ..EngineOptions::default()
        };
        s.sql_with(sql, &traced).unwrap();
        s.sql_with(sql, &traced).unwrap();
        assert_eq!(s.explain_with(sql, &traced).unwrap().cached, None);
        let snap = s.live_snapshot();
        assert_eq!(snap.cache_bypasses, 2);
        assert_eq!((snap.cache_hits, snap.cache_misses, snap.cache_entries), (0, 0, 0));
        // Fault-injected runs are equally invisible to the cache.
        let faulty = EngineOptions {
            fault_plan: FaultPlan::PanicAtMorsel { morsel: 1_000_000 },
            ..EngineOptions::default()
        };
        s.sql_with(sql, &faulty).unwrap();
        let snap = s.live_snapshot();
        assert_eq!(snap.cache_bypasses, 3);
        assert_eq!(snap.cache_entries, 0);
    }

    #[test]
    fn analyze_counts_its_cache_bypass_like_a_traced_query() {
        let s = live_session();
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        let analyzed = s.analyze(sql).unwrap();
        // The trace notes the bypass, and the counter agrees with it.
        let note = analyzed.trace.find("query").and_then(|q| q.note("cache"));
        assert_eq!(note, Some("bypass"));
        let snap = s.live_snapshot();
        assert_eq!(snap.cache_bypasses, 1);
        assert_eq!(
            (snap.cache_hits, snap.cache_misses, snap.cache_entries),
            (0, 0, 0)
        );
        // The untraced query computes the same answer, and caches it.
        let answer = s.sql(sql).unwrap();
        assert_eq!(analyzed.answer.result, answer.result);
        assert_eq!(analyzed.answer.route, answer.route);
        let snap = s.live_snapshot();
        assert_eq!((snap.cache_bypasses, snap.cache_misses), (1, 1));
    }

    #[test]
    fn degraded_answers_are_never_cached() {
        use themis_query::Limits;
        let s = live_session();
        let engine = EngineOptions {
            limits: Limits {
                max_rows: Some(100),
                ..Limits::default()
            },
            ..EngineOptions::default()
        };
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        for _ in 0..2 {
            let answer = s.sql_with(sql, &engine).unwrap();
            assert!(answer.route.degraded().is_some());
        }
        let snap = s.live_snapshot();
        // Both runs consulted the cache (limits are not a bypass — they are
        // part of the fingerprint), but the degraded answer never populated.
        assert_eq!((snap.cache_hits, snap.cache_misses), (0, 2));
        assert_eq!(snap.cache_entries, 0);
    }

    #[test]
    fn ingest_matches_a_cold_build_bit_identically() {
        let appended = [["01", "NY", "FL"], ["02", "FL", "NY"]];
        let queries = [
            "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
            "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
            "SELECT COUNT(*) FROM flights WHERE date <= 1",
        ];
        let s = live_session();
        // Warm the cache pre-ingest so a stale hit would be caught below.
        for sql in &queries {
            s.sql(sql).unwrap();
        }
        let report = s.ingest("flights", &rows(&appended)).unwrap();
        assert_eq!(report.rows_added, 2);
        assert_eq!(report.sample_rows, 6);
        assert_eq!(report.generation, 1);
        assert_eq!(s.generation(), 1);
        // A cold session built from scratch on the grown sample.
        let mut grown = example_sample();
        for row in &appended {
            grown.push_row_labels(row);
        }
        let p = example_population();
        let aggregates = AggregateSet::from_results(vec![
            AggregateResult::compute(&p, &[AttrId(0)]),
            AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]),
        ]);
        let cold = ThemisSession::new(Themis::build(
            grown,
            aggregates,
            10.0,
            ThemisConfig {
                bn_sample_size: Some(4_000),
                ..ThemisConfig::default()
            },
        ));
        assert_eq!(
            s.model().reweighted_sample().weights(),
            cold.model().reweighted_sample().weights(),
            "incremental IPF must equal a cold rebuild bit-for-bit"
        );
        for sql in &queries {
            let live = s.sql(sql).unwrap();
            let fresh = cold.sql(sql).unwrap();
            assert_eq!(live.result, fresh.result, "{sql}");
            assert_eq!(live.route, fresh.route, "{sql}");
        }
    }

    #[test]
    fn ingest_matches_a_cold_build_under_every_reweighting_method() {
        use crate::model::ReweightMethod;
        let batches = [
            rows(&[["01", "NY", "FL"], ["02", "FL", "NY"]]),
            rows(&[["02", "NY", "NC"]]),
        ];
        let queries = [
            "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
            "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
            "SELECT date, COUNT(*) FROM flights GROUP BY date",
        ];
        let bits = |model: &Themis| -> Vec<u64> {
            let weights = model.reweighted_sample().weights();
            weights.iter().map(|w| w.to_bits()).collect()
        };
        for reweighting in [
            ReweightMethod::Uniform,
            ReweightMethod::LinReg(Default::default()),
            ReweightMethod::Ipf(Default::default()),
        ] {
            let config = ThemisConfig {
                reweighting,
                bn_sample_size: Some(4_000),
                ..ThemisConfig::default()
            };
            let live = paper_session(config.clone()).with_answer_cache(32);
            let mut grown = example_sample();
            // Under IPF the second batch extends the incidence matrix the
            // first ingest left on the grown model.
            for batch in &batches {
                for sql in &queries {
                    live.sql(sql).unwrap();
                }
                live.ingest("flights", batch).unwrap();
                for row in batch {
                    let labels: Vec<&str> = row.iter().map(String::as_str).collect();
                    grown.push_row_labels(&labels);
                }
                let cold = paper_session_on(grown.clone(), config.clone());
                let (model, fresh) = (live.model(), cold.model());
                let method = &config.reweighting;
                assert_eq!(bits(&model), bits(&fresh), "{method:?}");
                assert_eq!(model.ipf_report(), fresh.ipf_report(), "{method:?}");
                assert!(
                    !themis_live::bn_parameters_moved(
                        model.bayesian_network(),
                        fresh.bayesian_network()
                    ),
                    "{method:?}"
                );
                for sql in &queries {
                    let (a, b) = (live.sql(sql).unwrap(), cold.sql(sql).unwrap());
                    assert_eq!((a.result, a.route), (b.result, b.route), "{method:?}: {sql}");
                }
            }
        }
    }

    #[test]
    fn unmoved_ingest_keeps_replicates_and_resimulates_zero() {
        let s = live_session();
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        s.sql(sql).unwrap(); // forces the first (uncounted) simulation
        let before: Vec<*const Relation> =
            s.replicates().iter().map(Arc::as_ptr).collect();
        // An empty batch runs the full pipeline — extend, IPF, BN relearn —
        // and must conclude that nothing moved.
        let report = s.ingest("flights", &[]).unwrap();
        assert!(!report.bn_moved);
        assert_eq!(report.replicates_kept, 10);
        s.sql(sql).unwrap();
        let after: Vec<*const Relation> =
            s.replicates().iter().map(Arc::as_ptr).collect();
        assert_eq!(before, after, "replicates must be carried over by Arc");
        let snap = s.live_snapshot();
        assert_eq!(snap.replicates_resimulated, 0);
        assert_eq!(snap.replicates_kept, 10);
        assert_eq!(snap.generation, 1);
    }

    #[test]
    fn moving_ingest_resimulates_replicates_once() {
        let s = live_session();
        let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
        s.sql(sql).unwrap();
        let report = s.ingest("flights", &rows(&[["02", "FL", "NY"]])).unwrap();
        assert!(report.bn_moved);
        assert_eq!(report.replicates_kept, 0);
        assert_eq!(s.live_snapshot().replicates_resimulated, 0, "lazy until used");
        s.sql(sql).unwrap();
        s.sql(sql).unwrap();
        let snap = s.live_snapshot();
        assert_eq!(snap.replicates_resimulated, 10, "one re-simulation of K=10");
    }

    #[test]
    fn ingest_drops_every_cached_answer() {
        let s = live_session();
        // The session binds its one relation under any FROM name, so an
        // ingest addressed to `flights` makes the `voyages` answer stale
        // too.
        s.sql("SELECT COUNT(*) FROM flights").unwrap();
        s.sql("SELECT COUNT(*) FROM voyages").unwrap();
        assert_eq!(s.live_snapshot().cache_entries, 2);
        let report = s.ingest("flights", &[]).unwrap();
        assert_eq!(report.table, "flights");
        assert_eq!(report.cache_entries_dropped, 2);
        let snap = s.live_snapshot();
        assert_eq!(snap.cache_entries, 0);
        assert_eq!(snap.cache_invalidations, 2);
        s.sql("SELECT COUNT(*) FROM voyages").unwrap();
        let snap = s.live_snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (0, 3));
        // With the cache off an ingest drops nothing.
        let off = open_world_session();
        assert_eq!(off.ingest("flights", &[]).unwrap().cache_entries_dropped, 0);
    }

    #[test]
    fn morsel_sizes_never_share_cache_entries() {
        // Morsel blocks merge in morsel order, so a weighted group sum can
        // differ in its last bits between morsel sizes: an answer cached
        // at one size must not be served at another.
        let s = live_session();
        let sql = "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st";
        let at = |morsel_rows| EngineOptions {
            threads: 1,
            morsel_rows,
            ..EngineOptions::default()
        };
        let small = s.sql_with(sql, &at(7)).unwrap();
        let served = s.sql_with(sql, &at(2048)).unwrap();
        let fresh = open_world_session().sql_with(sql, &at(2048)).unwrap();
        assert_ne!(small.result, fresh.result, "the sizes must differ here");
        assert_eq!(served.result, fresh.result);
        let snap = s.live_snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (0, 2));
        // Each size keeps its own entry.
        assert_eq!(s.explain_with(sql, &at(7)).unwrap().cached, Some(true));
        assert_eq!(s.sql_with(sql, &at(7)).unwrap().result, small.result);
        assert_eq!(s.live_snapshot().cache_hits, 1);
    }

    #[test]
    fn bad_ingest_batches_are_rejected_atomically() {
        let s = live_session();
        let err = s.ingest("flights", &rows(&[["01", "ZZ", "NY"]]));
        assert!(matches!(err, Err(ThemisError::Ingest(_))), "{err:?}");
        let err = s.ingest("flights", &[vec!["01".to_string()]]);
        assert!(matches!(err, Err(ThemisError::Ingest(_))), "{err:?}");
        assert_eq!(s.generation(), 0);
        assert_eq!(s.model().reweighted_sample().len(), 4);
        assert_eq!(s.live_snapshot().ingest_batches, 0);
    }
}
