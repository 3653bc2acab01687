//! Differential testing of the session API across engine configurations:
//! `ThemisSession` with `EngineOptions { threads: 1 }` and `{ threads: 4 }`
//! must produce **bit-identical** `Answer`s — same `Route`, same rows, same
//! row order — on the random-query generator shared with
//! `exec_differential.rs`. A second suite holds the observability layer to
//! the same bar: `analyze()` answers equal untraced `sql()` answers, and
//! the collected trace *structure* is identical at widths 1, 2, and 8.
//!
//! Bit-identity (not epsilon agreement) holds because both sessions drive
//! the morsel engine with the same `morsel_rows`: the morsel decomposition,
//! and therefore every floating-point merge, is the same regardless of how
//! many workers execute it. Routing is engine-independent by construction.
//!
//! A third suite holds the live-data layer to the same bar: any
//! interleaving of random queries and random ingest batches, on
//! cache-enabled sessions at widths 1, 2, and 8, must answer bit-identically
//! to a cold session built from scratch on the final data — the answer
//! cache and the incremental reweighting/replicate-carry-over pipeline are
//! not allowed to be observable in results.
//!
//! A fourth suite pins the BN replicate consensus, which the engine now
//! agrees on in code space, to the label-space algorithm it replaced: a
//! test-local oracle re-simulates the replicates, runs each through the
//! engine, keys the results by labels, intersects them in replicate order
//! and divides by K. Hybrid and BN-only answers at widths 1, 2 and 8 must
//! equal it bit for bit, for K = 1, 3 and 10, and the consensus's
//! governance (per-replicate budgets, per-replicate fault morsels,
//! degradation, cancellation) must be what it was.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use themis_aggregates::{AggregateResult, AggregateSet};
use themis_core::{Route, RouteKind, Themis, ThemisConfig, ThemisError, ThemisSession};
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_data::{AttrId, Relation};
use themis_query::{
    apply_order_by, cmp_group_prefix, execute_parallel, CancelToken, Catalog, EngineOptions,
    ExecError, FaultPlan, Limits, QueryResult, Trip, Value,
};
use themis_sql::Query;
use themis_tests::querygen::{query_strategy, test_schema, SIZES};

/// A deterministic "population" over the generator's schema, skewed enough
/// that grouped queries see many distinct groups.
fn population() -> Relation {
    let mut rel = Relation::new(test_schema());
    for i in 0..2_000usize {
        rel.push_row(&[
            (i * 7 + i / 13) as u32 % SIZES[0],
            (i * 5 + 1) as u32 % SIZES[1],
            (i * 11 + i / 7) as u32 % SIZES[2],
        ]);
    }
    rel
}

/// A biased sample: only rows with small `a` values, so open-world groups
/// exist and hybrid queries genuinely add BN groups.
fn biased_sample(pop: &Relation) -> Relation {
    let rows: Vec<usize> = (0..pop.len())
        .filter(|&r| pop.value(r, AttrId(0)) < 3)
        .take(300)
        .collect();
    pop.select_rows(&rows)
}

/// A model of the biased sample with population aggregates over each of
/// `attr_sets`.
fn build_model(attr_sets: &[&[AttrId]]) -> Themis {
    build_model_k(attr_sets, ThemisConfig::default().k_samples)
}

/// [`build_model`] with `k` BN replicates.
fn build_model_k(attr_sets: &[&[AttrId]], k: usize) -> Themis {
    let pop = population();
    let aggregates = AggregateSet::from_results(
        attr_sets
            .iter()
            .map(|attrs| AggregateResult::compute(&pop, attrs))
            .collect(),
    );
    let n = pop.len() as f64;
    let sample = biased_sample(&pop);
    let config = ThemisConfig {
        bn_sample_size: Some(500),
        k_samples: k,
        ..ThemisConfig::default()
    };
    Themis::build(sample, aggregates, n, config)
}

/// The one model every session in this suite shares.
fn model() -> &'static Themis {
    static MODEL: OnceLock<Themis> = OnceLock::new();
    MODEL.get_or_init(|| build_model(&[&[AttrId(0)], &[AttrId(1), AttrId(2)]]))
}

/// Engine options at a given width: small morsels so multi-morsel merging
/// is actually exercised at every thread count.
fn engine(threads: usize) -> EngineOptions {
    EngineOptions {
        threads,
        morsel_rows: 7,
        ..EngineOptions::default()
    }
}

/// One model, two sessions differing only in thread count.
fn sessions() -> &'static (ThemisSession, ThemisSession) {
    static SESSIONS: OnceLock<(ThemisSession, ThemisSession)> = OnceLock::new();
    SESSIONS.get_or_init(|| {
        (
            ThemisSession::with_engine(model().clone(), engine(1)),
            ThemisSession::with_engine(model().clone(), engine(4)),
        )
    })
}

/// Three more sessions over the same model for the trace-determinism
/// suite: widths 1, 2, and 8. Kept separate from [`sessions`] so each
/// suite's replicate caches advance in lockstep with its own query stream.
fn traced_sessions() -> &'static [ThemisSession; 3] {
    static SESSIONS: OnceLock<[ThemisSession; 3]> = OnceLock::new();
    SESSIONS.get_or_init(|| {
        [1, 2, 8].map(|threads| ThemisSession::with_engine(model().clone(), engine(threads)))
    })
}

proptest! {
    /// Satellite acceptance: serial-width and 4-thread sessions agree
    /// bit-for-bit on route and rows for random queries.
    #[test]
    fn answers_are_bit_identical_across_thread_counts(sql in query_strategy()) {
        let (one, four) = sessions();
        match (one.sql(&sql), four.sql(&sql)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.route, &b.route, "route diverged: {}", sql);
                prop_assert_eq!(&a.result, &b.result, "rows diverged: {}", sql);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverged: {}", sql),
            (a, b) => panic!("{sql}: one succeeded, one failed: {a:?} vs {b:?}"),
        }
        // explain is engine-independent too, and agrees between sessions.
        prop_assert_eq!(one.explain(&sql).ok(), four.explain(&sql).ok());
    }

    /// Satellite acceptance for the observability layer: tracing observes,
    /// never steers. For random queries, `analyze()` answers are
    /// bit-identical to untraced `sql()` answers, and the trace *structure*
    /// — span names, nesting, counters, notes; not wall times — is
    /// identical at widths 1, 2, and 8.
    #[test]
    fn trace_structure_is_deterministic_across_thread_counts(sql in query_strategy()) {
        let [one, two, eight] = traced_sessions();
        // Analyze on every session *before* the untraced baseline runs:
        // `sql()` would prime session one's replicate cache and skew the
        // `replicate_cache` note against the still-cold other widths.
        let analyzed: Vec<_> = [one, two, eight].iter().map(|s| s.analyze(&sql)).collect();
        let baseline = one.sql(&sql);
        let mut structures: Vec<String> = Vec::new();
        for outcome in analyzed {
            match (outcome, &baseline) {
                (Ok(analyzed), Ok(answer)) => {
                    prop_assert_eq!(&analyzed.answer.route, &answer.route, "route diverged under tracing: {}", &sql);
                    prop_assert_eq!(&analyzed.answer.result, &answer.result, "rows diverged under tracing: {}", &sql);
                    prop_assert_eq!(analyzed.actual_groups, answer.result.rows.len() as u64);
                    prop_assert!(!analyzed.trace.is_empty(), "analyze produced no spans: {}", &sql);
                    prop_assert!(analyzed.trace.find("query").is_some(), "no root span: {}", &sql);
                    structures.push(analyzed.trace.structure());
                }
                (Err(a), Err(b)) => prop_assert_eq!(&a, b, "errors diverged under tracing: {}", &sql),
                (a, b) => panic!("{sql}: traced and untraced disagree on success: {a:?} vs {b:?}"),
            }
        }
        for pair in structures.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1], "trace structure diverged across widths: {}", &sql);
        }
    }
}

/// A random ingest batch: up to two rows of in-domain labels (empty
/// batches included on purpose — they must move nothing).
fn batch_strategy() -> impl Strategy<Value = Vec<Vec<String>>> {
    prop::collection::vec(
        (0u32..SIZES[0], 0u32..SIZES[1], 0u32..SIZES[2])
            .prop_map(|(a, b, c)| vec![a.to_string(), b.to_string(), c.to_string()]),
        0..3,
    )
}

/// An interleaving: at each step one random query (asked twice, so the
/// second ask exercises the cache) followed by one random ingest batch.
fn interleaving_strategy() -> impl Strategy<Value = Vec<(String, Vec<Vec<String>>)>> {
    prop::collection::vec((query_strategy(), batch_strategy()), 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole acceptance: queries interleaved with ingest on
    /// cache-enabled sessions at widths 1, 2, and 8 stay bit-identical to
    /// each other at every step, cache hits are bit-identical to their
    /// misses, and after the full interleaving every query answers
    /// bit-identically to a cold session built on the final data.
    #[test]
    fn interleaved_ingest_matches_a_cold_session(steps in interleaving_strategy()) {
        let sessions: Vec<ThemisSession> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                ThemisSession::with_engine(model().clone(), engine(threads))
                    .with_answer_cache(16)
            })
            .collect();
        for (sql, batch) in &steps {
            let mut answers = Vec::new();
            for s in &sessions {
                let miss = s.sql(sql);
                let hit = s.sql(sql);
                match (&miss, &hit) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.route, &b.route, "hit route diverged: {}", sql);
                        prop_assert_eq!(&a.result, &b.result, "hit rows diverged: {}", sql);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverged: {}", sql),
                    (a, b) => panic!("{sql}: miss and hit disagree on success: {a:?} vs {b:?}"),
                }
                answers.push(miss);
            }
            for pair in answers.windows(2) {
                match (&pair[0], &pair[1]) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.route, &b.route, "route diverged across widths: {}", sql);
                        prop_assert_eq!(&a.result, &b.result, "rows diverged across widths: {}", sql);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverged across widths: {}", sql),
                    (a, b) => panic!("{sql}: widths disagree on success: {a:?} vs {b:?}"),
                }
            }
            for s in &sessions {
                s.ingest("t", batch).expect("in-domain batch must apply");
            }
        }
        // A cold session built from scratch on the final data: the base
        // biased sample plus every ingested row, in arrival order.
        let pop = population();
        let aggregates = AggregateSet::from_results(vec![
            AggregateResult::compute(&pop, &[AttrId(0)]),
            AggregateResult::compute(&pop, &[AttrId(1), AttrId(2)]),
        ]);
        let mut grown = biased_sample(&pop);
        for (_, batch) in &steps {
            for row in batch {
                let labels: Vec<&str> = row.iter().map(String::as_str).collect();
                grown.push_row_labels(&labels);
            }
        }
        let config = ThemisConfig {
            bn_sample_size: Some(500),
            ..ThemisConfig::default()
        };
        let cold = ThemisSession::with_engine(
            Themis::build(grown, aggregates, pop.len() as f64, config),
            engine(1),
        );
        for (sql, _) in &steps {
            let fresh = cold.sql(sql);
            for s in &sessions {
                match (s.sql(sql), &fresh) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.route, &b.route, "route diverged from cold session: {}", sql);
                        prop_assert_eq!(&a.result, &b.result, "rows diverged from cold session: {}", sql);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(&a, b, "errors diverged from cold session: {}", sql),
                    (a, b) => panic!("{sql}: live and cold disagree on success: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

/// Satellite acceptance (asserted via the obs counters): an ingest that
/// moves no BN parameter re-simulates zero replicates — the full pipeline
/// runs, concludes nothing moved, and carries the old replicates over.
#[test]
fn ingest_moving_nothing_resimulates_zero_replicates() {
    let s = ThemisSession::with_engine(model().clone(), engine(2)).with_answer_cache(8);
    s.sql("SELECT a, COUNT(*) AS n FROM t GROUP BY a").unwrap();
    let report = s.ingest("t", &[]).unwrap();
    assert!(!report.bn_moved, "empty batch must move nothing");
    assert_eq!(report.replicates_kept, 10);
    s.sql("SELECT b, COUNT(*) AS n FROM t GROUP BY b").unwrap();
    let snap = s.live_snapshot();
    assert_eq!(snap.replicates_resimulated, 0);
    assert_eq!(snap.replicates_kept, 10);
    // The aggregates pin every factor of this model, so a batch that keeps
    // the structure leaves the BN bit-identical, and the replicates stay.
    let row = vec!["4".to_string(), "0".to_string(), "2".to_string()];
    let report = s.ingest("t", std::slice::from_ref(&row)).unwrap();
    assert!(!report.bn_moved, "pinned factors must not follow the sample");
    s.sql("SELECT a, COUNT(*) AS n FROM t GROUP BY a").unwrap();
    assert_eq!(s.live_snapshot().replicates_resimulated, 0);
    // With only `a` aggregated, the factors of b and c follow the sample
    // counts: the same batch moves the BN and re-simulates exactly once.
    let s = ThemisSession::with_engine(build_model(&[&[AttrId(0)]]), engine(2))
        .with_answer_cache(8);
    s.sql("SELECT a, COUNT(*) AS n FROM t GROUP BY a").unwrap();
    let report = s.ingest("t", std::slice::from_ref(&row)).unwrap();
    assert!(report.bn_moved, "unpinned factors follow the sample");
    s.sql("SELECT a, COUNT(*) AS n FROM t GROUP BY a").unwrap();
    assert_eq!(s.live_snapshot().replicates_resimulated, 10);
}

/// The fixed shapes the random generator cannot produce (self-joins) are
/// also bit-identical across thread counts.
#[test]
fn self_join_answers_are_bit_identical_across_thread_counts() {
    let (one, four) = sessions();
    for sql in [
        "SELECT COUNT(*) AS n FROM t x, t y WHERE x.b = y.c",
        "SELECT x.a, COUNT(*) AS n FROM t x, t y WHERE x.b = y.c GROUP BY x.a",
        "SELECT x.a, y.b, COUNT(*) AS n FROM t x, t y \
         WHERE x.c = y.c GROUP BY x.a, y.b ORDER BY n DESC LIMIT 4",
    ] {
        let a = one.sql(sql).expect(sql);
        let b = four.sql(sql).expect(sql);
        assert_eq!(a.route, b.route, "{sql}");
        assert_eq!(a.result, b.result, "{sql}");
    }
}

/// The widths every consensus check runs at.
const WIDTHS: [usize; 3] = [1, 2, 8];

/// One model with its sessions at [`WIDTHS`] and the replicates the oracle
/// rebuilds for it.
struct ConsensusWorld {
    model: Themis,
    sessions: [ThemisSession; 3],
    replicates: Vec<Arc<Relation>>,
}

impl ConsensusWorld {
    fn new(model: Themis) -> Self {
        let replicates = oracle_replicates(&model);
        ConsensusWorld {
            sessions: WIDTHS
                .map(|threads| ThemisSession::with_engine(model.clone(), engine(threads))),
            model,
            replicates,
        }
    }
}

/// The suite's model at K = 1, 3 and 10 replicates.
fn consensus_worlds() -> &'static [ConsensusWorld; 3] {
    static WORLDS: OnceLock<[ConsensusWorld; 3]> = OnceLock::new();
    WORLDS.get_or_init(|| {
        [1, 3, 10].map(|k| {
            let model = if k == model().config().k_samples {
                model().clone()
            } else {
                build_model_k(&[&[AttrId(0)], &[AttrId(1), AttrId(2)]], k)
            };
            ConsensusWorld::new(model)
        })
    })
}

/// The model's K replicates, rebuilt with `forward_samples` from its BN,
/// config and seed, as the session simulates them.
fn oracle_replicates(model: &Themis) -> Vec<Arc<Relation>> {
    let bn = model
        .bayesian_network()
        .expect("the suite's models have a BN");
    let config = model.config();
    let size = config
        .bn_sample_size
        .unwrap_or(model.reweighted_sample().len());
    let mut rng = SmallRng::seed_from_u64(config.seed);
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

/// `query` on the morsel engine with every FROM table bound to `relation`.
fn run_bound(
    relation: &Arc<Relation>,
    query: &Query,
    engine: &EngineOptions,
) -> Result<QueryResult, ExecError> {
    let mut catalog = Catalog::new();
    for table in &query.from {
        catalog.register(table.name.clone(), Arc::clone(relation));
    }
    execute_parallel(&catalog, query, engine)
}

/// The label-space consensus the engine's code-space agreement replaced:
/// each replicate's result keyed by its labels (`to_map`), intersected in
/// replicate order with the values summed, then divided by K. A hybrid
/// answer unions that with the sample's groups (sample values win); a
/// BN-only answer is the consensus alone, shaped like the first
/// replicate's result. Either is then sorted by group prefix, and the
/// query's ORDER BY and LIMIT applied, with the route the session reports.
fn oracle_answer(
    world: &ConsensusWorld,
    query: &Query,
    hybrid: bool,
) -> Result<(QueryResult, Route), ExecError> {
    let engine = engine(1);
    let mut inner = query.clone();
    inner.order_by = None;
    inner.limit = None;
    let sample = if hybrid {
        Some(run_bound(world.model.sample_arc(), &inner, &engine)?)
    } else {
        None
    };
    let mut template: Option<QueryResult> = None;
    let mut agreed: Option<HashMap<Vec<String>, Vec<f64>>> = None;
    for replicate in &world.replicates {
        let result = run_bound(replicate, &inner, &engine)?;
        let groups = result.to_map();
        template.get_or_insert(result);
        agreed = Some(match agreed {
            None => groups,
            Some(mut acc) => {
                acc.retain(|group, _| groups.contains_key(group));
                for (group, sums) in acc.iter_mut() {
                    for (sum, v) in sums.iter_mut().zip(&groups[group]) {
                        *sum += v;
                    }
                }
                acc
            }
        });
    }
    let k = world.replicates.len() as f64;
    let consensus = agreed.unwrap_or_default().into_iter().map(|(group, sums)| {
        let mut row: Vec<Value> = group.into_iter().map(Value::Str).collect();
        row.extend(sums.into_iter().map(|s| Value::Num(s / k)));
        row
    });
    let (mut out, route) = match sample {
        Some(mut merged) => {
            let sample_groups = merged.rows.len();
            let existing: HashSet<Vec<String>> = merged.to_map().into_keys().collect();
            let arity = merged.group_arity;
            for row in consensus {
                let labels: Vec<String> = row[..arity].iter().map(|v| v.to_string()).collect();
                if !existing.contains(&labels) {
                    merged.rows.push(row);
                }
            }
            let bn_groups_added = merged.rows.len() - sample_groups;
            (
                merged,
                Route::Hybrid {
                    sample_groups,
                    bn_groups_added,
                },
            )
        }
        None => {
            let mut out = template.expect("every consensus world has replicates");
            out.rows = consensus.collect();
            (
                out,
                Route::BayesNet {
                    k_agreed: world.replicates.len(),
                },
            )
        }
    };
    let arity = out.group_arity;
    out.rows.sort_by(|a, b| cmp_group_prefix(a, b, arity));
    if let Some(order) = &query.order_by {
        apply_order_by(&mut out, order)?;
    }
    if let Some(limit) = query.limit {
        out.rows.truncate(limit);
    }
    Ok((out, route))
}

/// Bit-for-bit equality: same columns, arity and row order, equal labels,
/// and numbers equal in their bits (not merely `==`).
fn same_bits(a: &QueryResult, b: &QueryResult) -> bool {
    a.columns == b.columns
        && a.group_arity == b.group_arity
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| match (u, v) {
                    (Value::Str(s), Value::Str(t)) => s == t,
                    (Value::Num(s), Value::Num(t)) => s.to_bits() == t.to_bits(),
                    _ => false,
                })
        })
}

/// One session answer against the oracle's: both succeed with the same
/// route and bit-identical rows, or both fail with the same engine error.
fn check_against_oracle(
    got: Result<themis_core::Answer, ThemisError>,
    want: &Result<(QueryResult, Route), ExecError>,
    context: &str,
) {
    match (got, want) {
        (Ok(answer), Ok((result, route))) => {
            assert_eq!(
                &answer.route, route,
                "route diverged from the oracle: {context}"
            );
            assert!(
                same_bits(&answer.result, result),
                "rows diverged from the oracle: {context}\n got {:?}\nwant {:?}",
                answer.result,
                result
            );
        }
        (Err(ThemisError::Exec(got)), Err(want)) => {
            assert_eq!(&got, want, "errors diverged: {context}")
        }
        (got, want) => panic!("{context}: session and oracle disagree: {got:?} vs {want:?}"),
    }
}

/// Hybrid (`sql_with`) and BN-only (`sql_bn_only`) answers of `sql` at
/// every width against the oracle's.
fn check_consensus(world: &ConsensusWorld, sql: &str) {
    let query = themis_sql::parse(sql).expect(sql);
    let bn_only = oracle_answer(world, &query, false);
    let hybrid = world.sessions[0]
        .explain(sql)
        .is_ok_and(|e| e.route == RouteKind::Hybrid)
        .then(|| oracle_answer(world, &query, true));
    let k = world.replicates.len();
    for (session, threads) in world.sessions.iter().zip(WIDTHS) {
        let context = format!("K = {k}, {threads} threads: {sql}");
        check_against_oracle(session.sql_bn_only(sql), &bn_only, &context);
        if let Some(hybrid) = &hybrid {
            check_against_oracle(session.sql_with(sql, &engine(threads)), hybrid, &context);
        }
    }
}

proptest! {
    /// The code-space replicate consensus answers exactly what the
    /// label-space algorithm did, for hybrid and BN-only SQL, at K = 1, 3
    /// and 10 and widths 1, 2 and 8.
    #[test]
    fn consensus_matches_the_label_space_oracle(sql in query_strategy(), world in 0usize..3) {
        check_consensus(&consensus_worlds()[world], &sql);
    }
}

/// The sparse layout (more than 4,096 keys) through the consensus: a small
/// flights world grouped by `fl_date, origin_state, dest_state` (12 × 20 ×
/// 20 = 4,800 keys).
#[test]
fn sparse_consensus_matches_the_label_space_oracle() {
    let dataset = FlightsDataset::generate(FlightsConfig {
        n: 6_000,
        ..FlightsConfig::default()
    });
    let attrs = FlightsDataset::attrs();
    let pop = &dataset.population;
    let aggregates = AggregateSet::from_results(vec![
        AggregateResult::compute(pop, &[attrs.o]),
        AggregateResult::compute(pop, &[attrs.f, attrs.de]),
    ]);
    let sample = dataset.sample_corners(&mut SmallRng::seed_from_u64(3));
    let config = ThemisConfig {
        bn_sample_size: Some(3_000),
        ..ThemisConfig::default()
    };
    let world = ConsensusWorld::new(Themis::build(sample, aggregates, pop.len() as f64, config));
    for sql in [
        "SELECT fl_date, origin_state, dest_state, COUNT(*) AS n, AVG(elapsed_time) FROM F \
         GROUP BY fl_date, origin_state, dest_state",
        "SELECT fl_date, origin_state, dest_state, MIN(distance), MAX(distance) FROM F \
         WHERE elapsed_time <= 6 GROUP BY fl_date, origin_state, dest_state \
         ORDER BY fl_date DESC LIMIT 40",
    ] {
        check_consensus(&world, sql);
        let answer = world.sessions[0].sql(sql).expect(sql);
        assert!(
            matches!(answer.route, Route::Hybrid { bn_groups_added, .. } if bn_groups_added > 0),
            "the biased sample misses groups the replicates agree on: {}",
            answer.route
        );
    }
}

/// The consensus's governance is what it was: each replicate is charged
/// against the row budget on its own, fault-plan morsels count per
/// replicate, a tripped BN phase degrades to the sample part, and a
/// cancelled token is an error.
#[test]
fn consensus_governance_is_unchanged() {
    let world = &consensus_worlds()[2];
    let session = &world.sessions[0];
    let sql = "SELECT a, COUNT(*) AS n, AVG(b) FROM t GROUP BY a";
    let query = themis_sql::parse(sql).unwrap();
    let complete = oracle_answer(world, &query, true);
    let replicate_rows = world.replicates[0].len() as u64;
    let sample_rows = world.model.reweighted_sample().len() as u64;
    assert!(sample_rows < replicate_rows);

    // A row budget above one replicate's rows but below K times that
    // passes: every replicate is charged on its own.
    let budget = EngineOptions {
        limits: Limits {
            max_rows: Some(2 * replicate_rows),
            ..Limits::default()
        },
        ..engine(1)
    };
    assert!(2 * replicate_rows < world.replicates.len() as u64 * replicate_rows);
    check_against_oracle(
        session.sql_with(sql, &budget),
        &complete,
        "per-replicate row budget",
    );

    // Morsel 1 exists only on the replicates (the sample fits in morsel 0),
    // and every replicate numbers its morsels from 0.
    let morsel_rows = sample_rows as usize;
    let degraded = |governed: EngineOptions, reason: &str| {
        let answer = session.sql_with(sql, &governed).expect(reason);
        assert_eq!(answer.route.planned_kind(), RouteKind::Hybrid, "{reason}");
        assert_eq!(
            answer.route.degraded().map(|r| r.to_string()).as_deref(),
            Some(reason)
        );
        // The sample part, as the same morsel size computes it.
        let sample_part = run_bound(
            world.model.sample_arc(),
            &query,
            &EngineOptions {
                morsel_rows: governed.morsel_rows,
                ..engine(1)
            },
        )
        .unwrap();
        assert!(
            same_bits(&answer.result, &sample_part),
            "{reason}: not the sample part"
        );
    };
    degraded(
        EngineOptions {
            morsel_rows,
            fault_plan: FaultPlan::PanicAtMorsel { morsel: 1 },
            ..engine(1)
        },
        "worker failure",
    );
    degraded(
        EngineOptions {
            morsel_rows,
            limits: Limits {
                deadline: Some(Duration::from_millis(50)),
                ..Limits::default()
            },
            fault_plan: FaultPlan::SlowMorsel {
                morsel: 1,
                delay: Duration::from_millis(200),
            },
            ..engine(1)
        },
        "deadline exceeded",
    );
    degraded(
        EngineOptions {
            limits: Limits {
                max_rows: Some(replicate_rows - 1),
                ..Limits::default()
            },
            ..engine(1)
        },
        "row budget exceeded",
    );

    // Cancellation stops, on both BN-backed paths.
    let cancel = CancelToken::new();
    cancel.cancel();
    let cancelled = EngineOptions {
        cancel: Some(cancel),
        ..engine(1)
    };
    assert!(matches!(
        session.sql_with(sql, &cancelled),
        Err(ThemisError::Exec(ExecError::Governed(Trip::Cancelled)))
    ));
    let bn_session = ThemisSession::with_engine(world.model.clone(), cancelled);
    assert!(matches!(
        bn_session.sql_bn_only(sql),
        Err(ThemisError::Exec(ExecError::Governed(Trip::Cancelled)))
    ));
}
