//! Failure-injection integration tests: degenerate aggregates, adversarial
//! inputs, and configuration corner cases must degrade gracefully, never
//! panic or produce NaN — and every governance fault (injected worker
//! panics, tripped deadlines/budgets, cancellation) must surface the *same*
//! typed error from both engines at every thread/morsel configuration.

use proptest::prelude::*;
use std::time::Duration;
use themis_aggregates::{AggregateResult, AggregateSet};
use themis_core::{ReweightMethod, Themis, ThemisConfig};
use themis_data::paper_example::{example_population, example_sample};
use themis_data::{AttrId, Relation};
use themis_query::{
    execute, CancelToken, Catalog, EngineOptions, ExecError, FaultPlan, Limits, Trip,
};
use themis_reweight::IpfOptions;
use themis_tests::querygen::{query_strategy, random_relation, rows_strategy, test_schema, SIZES};

fn assert_all_finite(t: &Themis) {
    assert!(t.reweighted_sample().weights().iter().all(|w| w.is_finite()));
    let attrs = [AttrId(0), AttrId(1), AttrId(2)];
    for date in 0..2u32 {
        for o in 0..3u32 {
            for d in 0..3u32 {
                let est = t.point_query(&attrs, &[date, o, d]);
                assert!(est.is_finite() && est >= 0.0, "estimate {est}");
            }
        }
    }
}

#[test]
fn empty_aggregate_set_degrades_to_aqp_plus_sample_bn() {
    // No aggregates at all: IPF has nothing to fit (weights stay 1 until
    // normalization never happens), the BN learns from the sample only.
    let t = Themis::build(
        example_sample(),
        AggregateSet::new(),
        10.0,
        ThemisConfig::default(),
    );
    assert_all_finite(&t);
    let rep = t.ipf_report().expect("IPF default");
    assert!(rep.converged, "vacuous constraints are satisfied");
    assert_eq!(rep.iterations, 0);
}

#[test]
fn zero_count_aggregate_groups_do_not_poison_weights() {
    // An aggregate claiming a group has zero population count: IPF scales
    // the participating tuples to zero — the remaining queries must stay
    // finite and the model usable.
    let groups = vec![(vec![0u32], 0.0), (vec![1u32], 10.0)];
    let set = AggregateSet::from_results(vec![AggregateResult::from_groups(
        vec![AttrId(0)],
        groups,
    )]);
    let t = Themis::build(example_sample(), set, 10.0, ThemisConfig::default());
    assert_all_finite(&t);
    // The date=01 tuples were zeroed by the (claimed) empty group.
    assert_eq!(t.point_query_sample(&[AttrId(0)], &[0]), 0.0);
    // date=02 got everything.
    assert!(t.point_query_sample(&[AttrId(0)], &[1]) > 0.0);
}

#[test]
fn wildly_inconsistent_aggregates_stay_finite() {
    // Two aggregates that cannot both hold (totals 10 vs 1000): IPF will
    // not converge; everything must stay finite, best effort.
    let p = example_population();
    let small = AggregateResult::compute(&p, &[AttrId(0)]);
    let huge = AggregateResult::from_groups(
        vec![AttrId(1)],
        vec![(vec![0], 900.0), (vec![1], 50.0), (vec![2], 50.0)],
    );
    let set = AggregateSet::from_results(vec![small, huge]);
    let t = Themis::build(example_sample(), set, 10.0, ThemisConfig::default());
    assert_all_finite(&t);
    assert!(!t.ipf_report().unwrap().converged);
}

#[test]
fn linreg_handles_single_group_aggregate() {
    // One aggregate with a single group (a plain total): the design matrix
    // is 1 row + intercept row; NNLS must handle it.
    let set = AggregateSet::from_results(vec![AggregateResult::from_groups(
        vec![AttrId(0)],
        vec![(vec![0], 5.0)],
    )]);
    let t = Themis::build(
        example_sample(),
        set,
        10.0,
        ThemisConfig {
            reweighting: ReweightMethod::LinReg(Default::default()),
            bn_mode: None,
            ..ThemisConfig::default()
        },
    );
    assert_all_finite(&t);
    assert!((t.reweighted_sample().total_weight() - 10.0).abs() < 1e-6);
}

#[test]
fn single_row_sample_builds() {
    let mut s = themis_data::Relation::new(themis_data::paper_example::example_schema());
    s.push_row_labels(&["01", "FL", "FL"]);
    let p = example_population();
    let set = AggregateSet::from_results(vec![AggregateResult::compute(&p, &[AttrId(0)])]);
    let t = Themis::build(s, set, 10.0, ThemisConfig::default());
    assert_all_finite(&t);
    // The lone tuple carries the date=01 mass.
    assert!((t.point_query_sample(&[AttrId(0)], &[0]) - 5.0).abs() < 1e-9);
}

#[test]
fn zero_iteration_ipf_is_uniform_weights() {
    let p = example_population();
    let set = AggregateSet::from_results(vec![AggregateResult::compute(&p, &[AttrId(0)])]);
    let t = Themis::build(
        example_sample(),
        set,
        10.0,
        ThemisConfig {
            reweighting: ReweightMethod::Ipf(IpfOptions {
                max_iterations: 0,
                tolerance: 1e-9,
            }),
            bn_mode: None,
            ..ThemisConfig::default()
        },
    );
    assert!(t.reweighted_sample().weights().iter().all(|&w| w == 1.0));
}

#[test]
fn duplicate_aggregates_are_harmless() {
    let p = example_population();
    let a = AggregateResult::compute(&p, &[AttrId(0)]);
    let set = AggregateSet::from_results(vec![a.clone(), a.clone(), a]);
    let t = Themis::build(example_sample(), set, 10.0, ThemisConfig::default());
    assert_all_finite(&t);
    assert!(t.ipf_report().unwrap().converged);
}

/// Every error path of the parallel engine must surface the *same*
/// `ExecError` as the serial engine — the planner is shared, so a query that
/// the serial oracle rejects must be rejected identically regardless of
/// thread count or morsel size.
#[test]
fn parallel_engine_errors_match_serial() {
    let mut catalog = Catalog::new();
    catalog.register("flights", example_population());
    type ErrorKind = fn(&ExecError) -> bool;
    let cases: &[(&str, ErrorKind)] = &[
        // Unknown column in a predicate.
        ("SELECT COUNT(*) FROM flights WHERE nope = 1", |e| {
            matches!(e, ExecError::UnknownColumn(_))
        }),
        // Bad ORDER BY target (not an output column).
        (
            "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st ORDER BY nope",
            |e| matches!(e, ExecError::UnknownColumn(_)),
        ),
        // Unknown table.
        ("SELECT COUNT(*) FROM missing", |e| {
            matches!(e, ExecError::UnknownTable(_))
        }),
        // Unknown column in GROUP BY.
        (
            "SELECT nope, COUNT(*) FROM flights GROUP BY nope",
            |e| matches!(e, ExecError::UnknownColumn(_)),
        ),
        // Aggregate-free query.
        ("SELECT o_st FROM flights", |e| {
            matches!(e, ExecError::Unsupported(_))
        }),
        // Cross product (two tables, no join condition).
        ("SELECT COUNT(*) FROM flights t, flights s", |e| {
            matches!(e, ExecError::Unsupported(_))
        }),
        // Unknown column on one side of a join.
        (
            "SELECT COUNT(*) FROM flights t, flights s WHERE t.nope = s.o_st",
            |e| matches!(e, ExecError::UnknownColumn(_)),
        ),
    ];
    for (sql, expected_kind) in cases {
        let query = themis_sql::parse(sql).expect(sql);
        let serial = execute(&catalog, &query, &EngineOptions::default()).unwrap_err();
        assert!(expected_kind(&serial), "{sql}: serial gave {serial:?}");
        for (threads, morsel_rows) in [(2, 1), (4, 3), (8, 2048)] {
            let opts = EngineOptions {
                threads,
                morsel_rows,
                ..EngineOptions::default()
            };
            let parallel = themis_query::execute_parallel(&catalog, &query, &opts).unwrap_err();
            assert_eq!(
                parallel, serial,
                "{sql}: parallel ({threads} threads) error differs"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Query governance (tentpole): injected faults and tripped limits.
// ---------------------------------------------------------------------------

/// Thread/morsel configurations the governance suites sweep: the inline
/// single-worker path, many threads with tiny morsels, and the default
/// morsel size (where `big_relation` still spans 3 morsels).
const CONFIGS: [(usize, usize); 3] = [(1, 7), (4, 3), (8, 2048)];

/// One query per plan shape the guard instruments: scalar scan, grouped
/// scan, self-join.
const GOVERNED_QUERIES: [&str; 3] = [
    "SELECT COUNT(*) AS n, SUM(c) FROM t",
    "SELECT a, b, COUNT(*) AS n, AVG(c) FROM t GROUP BY a, b",
    "SELECT x.a, COUNT(*) AS n FROM t x, t y WHERE x.b = y.c GROUP BY x.a",
];

/// ~5000 deterministic rows over the generator schema, so even the
/// `(8, 2048)` configuration spans several morsels.
fn big_relation() -> Relation {
    let mut rel = Relation::new(test_schema());
    for i in 0..5_000usize {
        let vals = [
            (i * 7 + 3) as u32 % SIZES[0],
            (i * 5 + 1) as u32 % SIZES[1],
            (i * 11) as u32 % SIZES[2],
        ];
        rel.push_row_weighted(&vals, (i % 8) as f64 * 0.5);
    }
    rel
}

fn governed_opts(
    threads: usize,
    morsel_rows: usize,
    limits: Limits,
    fault_plan: FaultPlan,
) -> EngineOptions {
    EngineOptions {
        threads,
        morsel_rows,
        limits,
        fault_plan,
        ..EngineOptions::default()
    }
}

/// Every `FaultPlan` fault, on every plan shape, at every configuration:
/// both engines return the *identical* typed error — never a panic, and
/// never an engine-dependent error value.
#[test]
fn injected_faults_yield_identical_typed_errors_from_both_engines() {
    let mut catalog = Catalog::new();
    catalog.register("t", big_relation());
    let cases: [(Limits, FaultPlan, ExecError); 3] = [
        // A stalled morsel pushes execution past a short deadline.
        (
            Limits {
                deadline: Some(Duration::from_millis(5)),
                ..Limits::default()
            },
            FaultPlan::SlowMorsel {
                morsel: 0,
                delay: Duration::from_millis(30),
            },
            ExecError::Governed(Trip::Deadline),
        ),
        // A worker panic is contained and typed, with the same message from
        // the serial engine's catch_unwind and the pool's containment.
        (
            Limits::default(),
            FaultPlan::PanicAtMorsel { morsel: 0 },
            ExecError::Internal("worker panicked: injected worker panic at morsel 0".into()),
        ),
        // Instant budget exhaustion at the first boundary.
        (
            Limits::default(),
            FaultPlan::BudgetExhaust,
            ExecError::Governed(Trip::RowBudget { limit: 0 }),
        ),
    ];
    for (limits, fault, expected) in &cases {
        for sql in GOVERNED_QUERIES {
            let query = themis_sql::parse(sql).expect(sql);
            for (threads, morsel_rows) in CONFIGS {
                let opts = governed_opts(threads, morsel_rows, limits.clone(), fault.clone());
                let serial = execute(&catalog, &query, &opts)
                    .expect_err("serial must trip the injected fault");
                let parallel = themis_query::execute_parallel(&catalog, &query, &opts)
                    .expect_err("parallel must trip the injected fault");
                assert_eq!(
                    &serial, expected,
                    "{sql} ({threads} threads, {morsel_rows} morsel): serial error"
                );
                assert_eq!(
                    &parallel, expected,
                    "{sql} ({threads} threads, {morsel_rows} morsel): parallel error"
                );
            }
        }
    }
}

/// Tripped limits are the same typed error from both engines: row budget,
/// group budget, an already-expired deadline, and a pre-cancelled token.
#[test]
fn tripped_limits_are_identical_typed_errors() {
    let mut catalog = Catalog::new();
    catalog.register("t", big_relation());
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let cases: [(&str, Limits, Option<CancelToken>, ExecError); 5] = [
        (
            "SELECT COUNT(*) AS n FROM t",
            Limits {
                max_rows: Some(100),
                ..Limits::default()
            },
            None,
            ExecError::Governed(Trip::RowBudget { limit: 100 }),
        ),
        // The join's row meter also counts joined pairs, so a key-skew
        // blowup trips even when max_rows exceeds both input sizes.
        (
            "SELECT COUNT(*) AS n FROM t x, t y WHERE x.b = y.c",
            Limits {
                max_rows: Some(2_000),
                ..Limits::default()
            },
            None,
            ExecError::Governed(Trip::RowBudget { limit: 2_000 }),
        ),
        (
            "SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b",
            Limits {
                max_groups: Some(3),
                ..Limits::default()
            },
            None,
            ExecError::Governed(Trip::GroupBudget { limit: 3 }),
        ),
        (
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a",
            Limits {
                deadline: Some(Duration::ZERO),
                ..Limits::default()
            },
            None,
            ExecError::Governed(Trip::Deadline),
        ),
        (
            "SELECT COUNT(*) AS n FROM t",
            Limits::default(),
            Some(cancelled),
            ExecError::Governed(Trip::Cancelled),
        ),
    ];
    for (sql, limits, cancel, expected) in &cases {
        let query = themis_sql::parse(sql).expect(sql);
        for (threads, morsel_rows) in CONFIGS {
            let opts = EngineOptions {
                threads,
                morsel_rows,
                limits: limits.clone(),
                cancel: cancel.clone(),
                ..EngineOptions::default()
            };
            let serial = execute(&catalog, &query, &opts).expect_err("serial must trip");
            let parallel = themis_query::execute_parallel(&catalog, &query, &opts)
                .expect_err("parallel must trip");
            assert_eq!(
                &serial, expected,
                "{sql} ({threads} threads, {morsel_rows} morsel): serial error"
            );
            assert_eq!(
                &parallel, expected,
                "{sql} ({threads} threads, {morsel_rows} morsel): parallel error"
            );
        }
    }
}

/// Zero-row inputs reach no morsel boundary: no fault fires, no budget
/// charges, and the armed result is bit-identical to the unarmed one on
/// both engines.
#[test]
fn zero_row_inputs_fire_no_faults_on_either_engine() {
    let mut catalog = Catalog::new();
    catalog.register("t", Relation::new(test_schema()));
    let faults = [
        FaultPlan::PanicAtMorsel { morsel: 0 },
        FaultPlan::BudgetExhaust,
        FaultPlan::SlowMorsel {
            morsel: 0,
            delay: Duration::from_secs(60),
        },
    ];
    for sql in GOVERNED_QUERIES {
        let query = themis_sql::parse(sql).expect(sql);
        let oracle = execute(&catalog, &query, &EngineOptions::default()).expect(sql);
        for fault in &faults {
            for (threads, morsel_rows) in CONFIGS {
                let opts = governed_opts(
                    threads,
                    morsel_rows,
                    Limits {
                        max_rows: Some(1),
                        max_groups: Some(1),
                        ..Limits::default()
                    },
                    fault.clone(),
                );
                let serial = execute(&catalog, &query, &opts).expect(sql);
                let parallel = themis_query::execute_parallel(&catalog, &query, &opts).expect(sql);
                assert_eq!(serial, oracle, "{sql}: armed serial differs on empty input");
                assert_eq!(parallel, oracle, "{sql}: armed parallel differs on empty input");
            }
        }
    }
}

proptest! {
    /// Differential acceptance: with never-tripping limits (plus an armed
    /// but never-cancelled token) the guard's checks all execute, yet both
    /// engines stay **bit-identical** to themselves run with unarmed
    /// options on random relations and queries.
    #[test]
    fn guarded_execution_with_headroom_is_bit_identical(
        rows in rows_strategy(),
        sql in query_strategy(),
    ) {
        let mut catalog = Catalog::new();
        catalog.register("t", random_relation(&rows));
        let query = themis_sql::parse(&sql).expect(&sql);
        let generous = Limits {
            deadline: Some(Duration::from_secs(3600)),
            max_rows: Some(u64::MAX / 2),
            max_groups: Some(usize::MAX / 2),
        };
        let guarded = EngineOptions {
            threads: 4,
            morsel_rows: 7,
            limits: generous,
            cancel: Some(CancelToken::new()),
            ..EngineOptions::default()
        };
        let plain = EngineOptions { threads: 4, morsel_rows: 7, ..EngineOptions::default() };
        let serial = execute(&catalog, &query, &plain).expect(&sql);
        let serial_guarded = execute(&catalog, &query, &guarded).expect(&sql);
        prop_assert_eq!(&serial, &serial_guarded, "serial guarded diverged: {}", &sql);
        let parallel = themis_query::execute_parallel(&catalog, &query, &plain).expect(&sql);
        let parallel_guarded =
            themis_query::execute_parallel(&catalog, &query, &guarded).expect(&sql);
        prop_assert_eq!(&parallel, &parallel_guarded, "parallel guarded diverged: {}", &sql);
    }
}

// ---------------------------------------------------------------------------
// Worker loss on the wire: fault isolation across server connections.
// ---------------------------------------------------------------------------

/// An injected worker panic inside one connection's query surfaces as that
/// client's typed `internal` error while concurrent connections on the same
/// server complete normally — worker loss is contained to the query that
/// hit it, and the faulted connection itself survives to answer again once
/// its fault plan is cleared.
#[test]
fn injected_worker_panic_is_isolated_to_its_connection() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use themis_core::ThemisSession;
    use themis_serve::{Client, ServerConfig, SetRequest, ThemisServer};

    let pop = big_relation();
    let aggregates = AggregateSet::from_results(vec![
        AggregateResult::compute(&pop, &[AttrId(0)]),
        AggregateResult::compute(&pop, &[AttrId(1), AttrId(2)]),
    ]);
    let n = pop.len() as f64;
    let sample_rows: Vec<usize> = (0..pop.len()).step_by(5).collect();
    let sample = pop.select_rows(&sample_rows);
    let world = Arc::new(ThemisSession::new(Themis::build(
        sample,
        aggregates,
        n,
        ThemisConfig::default(),
    )));
    let config = ServerConfig {
        workers: 3,
        max_concurrent_queries: 3,
        threads: 2,
        morsel_rows: 7,
        allow_fault_injection: true,
        ..ServerConfig::default()
    };
    let engine = EngineOptions {
        threads: 2,
        morsel_rows: 7,
        ..EngineOptions::default()
    };
    let sql = "SELECT COUNT(*) AS n FROM t";
    let oracle = world.sql_with(sql, &engine).expect("oracle");

    let server = ThemisServer::bind("127.0.0.1:0", Arc::clone(&world), config).expect("bind");
    let handle = server.handle();
    let addr = server.local_addr();
    let results = rayon::Pool::new(2)
        .try_par_indexed(2, |task| {
            if task == 0 {
                server.serve().map_err(|e| format!("serve failed: {e}"))
            } else {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    rayon::Pool::new(3)
                        .try_par_indexed(3, |i| {
                            let mut client = Client::connect(addr).expect("connect");
                            if i == 0 {
                                // The saboteur: arm a worker panic, watch it
                                // come back as a typed error, clear it, and
                                // keep using the same connection.
                                client
                                    .set(&SetRequest {
                                        fault: Some(FaultPlan::PanicAtMorsel { morsel: 0 }),
                                        ..SetRequest::default()
                                    })
                                    .expect("transport")
                                    .expect("set");
                                let err = client
                                    .query(sql)
                                    .expect("transport")
                                    .expect_err("armed fault must trip");
                                assert_eq!(err.kind, "internal", "{err}");
                                assert!(
                                    err.message.contains("injected worker panic at morsel 0"),
                                    "{err}"
                                );
                                client
                                    .set(&SetRequest {
                                        fault: Some(FaultPlan::None),
                                        ..SetRequest::default()
                                    })
                                    .expect("transport")
                                    .expect("set");
                            }
                            // Every connection — including the recovered
                            // saboteur — gets the oracle's exact answer.
                            for _ in 0..3 {
                                let wire = client
                                    .query(sql)
                                    .expect("transport")
                                    .unwrap_or_else(|e| panic!("client {i}: {e}"));
                                assert_eq!(wire.result, oracle.result, "client {i}");
                                assert_eq!(wire.route, oracle.route, "client {i}");
                            }
                        })
                        .expect("client pool");
                }));
                handle.shutdown();
                caught.map_err(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "driver panicked".to_string())
                })
            }
        })
        .expect("orchestration pool");
    for r in results {
        if let Err(message) = r {
            panic!("{message}");
        }
    }
}

#[test]
fn noisy_aggregate_totals_disagreeing_with_n_still_work() {
    // Aggregate total (14) disagrees with the declared population size
    // (10): Themis treats both as approximate.
    let set = AggregateSet::from_results(vec![AggregateResult::from_groups(
        vec![AttrId(0)],
        vec![(vec![0], 8.0), (vec![1], 6.0)],
    )]);
    let t = Themis::build(example_sample(), set, 10.0, ThemisConfig::default());
    assert_all_finite(&t);
    // BN marginal is normalized even though counts sum to 14 > n.
    let bn = t.bayesian_network().unwrap();
    assert!(bn.is_normalized(1e-6));
}

// ---------------------------------------------------------------------------
// Untrusted inputs: wire JSON, request dispatch, ingest batches.
// ---------------------------------------------------------------------------

/// The wire protocol's own vocabulary (keys, op names, fault kinds), so
/// generated values reach every branch of request parsing rather than
/// stopping at the missing-`op` error.
const WIRE_WORDS: [&str; 24] = [
    "op",
    "query",
    "explain",
    "set",
    "ingest",
    "stats",
    "metrics",
    "sql",
    "trace",
    "table",
    "rows",
    "deadline_ms",
    "max_rows",
    "max_groups",
    "threads",
    "morsel_rows",
    "fault",
    "kind",
    "morsel",
    "delay_ms",
    "slow_morsel",
    "panic_at_morsel",
    "budget_exhaust",
    "none",
];

/// A random JSON value at most `depth` containers deep, its keys and most
/// of its strings drawn from [`WIRE_WORDS`], its numbers from the edges
/// of what `as_u64` accepts.
fn random_json(rng: &mut rand::rngs::SmallRng, depth: u32) -> themis_serve::Json {
    use rand::Rng;
    use themis_serve::Json;
    const NUMBERS: [f64; 10] = [
        0.0,
        -0.0,
        1.0,
        7.0,
        -1.0,
        0.5,
        1e20,
        18_446_744_073_709_551_616.0,
        1e308,
        -1e308,
    ];
    const STRINGS: [&str; 4] = ["", "SELECT COUNT(*) FROM t", "01", "\u{1}é"];
    let word = |rng: &mut rand::rngs::SmallRng| WIRE_WORDS[rng.gen_range(0..WIRE_WORDS.len())];
    match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(NUMBERS[rng.gen_range(0..NUMBERS.len())]),
        3 => Json::Str(word(rng).to_string()),
        4 => Json::Str(STRINGS[rng.gen_range(0..STRINGS.len())].to_string()),
        5 => Json::Arr(
            (0..rng.gen_range(0..4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..6))
                .map(|_| (word(rng).to_string(), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A paper-example session with the answer cache on, as a server holds it.
fn paper_session() -> themis_core::ThemisSession {
    let p = example_population();
    let aggregates = AggregateSet::from_results(vec![
        AggregateResult::compute(&p, &[AttrId(0)]),
        AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]),
    ]);
    themis_core::ThemisSession::new(Themis::build(
        example_sample(),
        aggregates,
        10.0,
        ThemisConfig::default(),
    ))
    .with_answer_cache(32)
}

/// Labels of the paper example's columns next to labels of none of them.
const INGEST_LABELS: &str = "(01|02|FL|NC|NY|ZZ|fl|NY |0|)";

proptest! {
    /// The wire JSON parser never panics, whatever the line; what it
    /// accepts serializes and parses back to the same value.
    #[test]
    fn json_parser_never_panics(
        line in ".{0,160}",
        tokens in prop::collection::vec(
            "(\\{|\\}|\\[|\\]|:|,|\"[a-z]{0,3}\"|\"op\"|-?[0-9]{1,3}(\\.[0-9])?(e-?[0-9]{1,3})?|true|false|null|\"\\\\u[0-9a-f]{4}\"|\\\\|.)",
            0..40,
        ),
    ) {
        for input in [line, tokens.concat()] {
            if let Ok(value) = themis_serve::Json::parse(&input) {
                let again = themis_serve::Json::parse(&value.to_string());
                prop_assert_eq!(again.as_ref(), Ok(&value), "{}", &input);
            }
        }
    }

    /// Nesting far past the parser's depth cap, in any mix of arrays and
    /// objects, closed or not, is an error — never a stack overflow.
    #[test]
    fn json_nesting_past_the_depth_cap_is_an_error(
        arrays in prop::collection::vec(any::<bool>(), 65..20_000),
        closed in any::<bool>(),
    ) {
        let mut line: String = arrays
            .iter()
            .map(|&array| if array { "[" } else { "{\"k\":" })
            .collect();
        line.push('1');
        if closed {
            line.extend(arrays.iter().rev().map(|&array| if array { ']' } else { '}' }));
        }
        prop_assert!(themis_serve::Json::parse(&line).is_err());
    }

    /// Request dispatch never panics on a parsed value: anything that is
    /// not an object with a string `op` is an `Err`, and whatever parses as
    /// a `set` applies to engine options without panicking either, and
    /// never leaves them above the wire's thread ceiling.
    #[test]
    fn request_parsing_never_panics(
        seed in any::<u64>(),
        depth in 0u32..4,
        with_op in any::<bool>(),
    ) {
        use rand::{Rng, SeedableRng};
        use themis_serve::protocol::{parse_request, Request, MAX_SET_THREADS};
        use themis_serve::Json;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let value = if with_op {
            // One of the seven ops, then each member key at even odds.
            let op = WIRE_WORDS[rng.gen_range(0..7usize)];
            let mut pairs = vec![("op".to_string(), Json::Str(op.to_string()))];
            for &key in &WIRE_WORDS[7..20] {
                if rng.gen() {
                    // String members and ingest rows are often well-typed,
                    // so the checks past a member's type run too.
                    let member = match key {
                        "table" | "sql" if rng.gen() => Json::Str(op.to_string()),
                        // Thread counts around the ceiling, and far past it.
                        "threads" if rng.gen() => {
                            let near = [1.0, 255.0, 256.0, 257.0, 1_099_511_627_776.0];
                            Json::Num(near[rng.gen_range(0..near.len())])
                        }
                        "rows" if rng.gen() => Json::Arr(vec![
                            Json::Arr(vec![Json::Str("01".into()), random_json(&mut rng, 0)]),
                            random_json(&mut rng, 1),
                        ]),
                        _ => random_json(&mut rng, depth),
                    };
                    pairs.push((key.to_string(), member));
                }
            }
            Json::Obj(pairs)
        } else {
            random_json(&mut rng, depth)
        };
        let has_op = value.get("op").and_then(Json::as_str).is_some();
        match parse_request(&value) {
            Ok(Request::Set(set)) => {
                let mut engine = EngineOptions::with_threads(1);
                set.apply(&mut engine, true);
                prop_assert!(engine.threads <= MAX_SET_THREADS as usize, "{}", value);
            }
            Ok(_) => {}
            Err(message) => prop_assert!(!message.is_empty()),
        }
        if !has_op {
            prop_assert!(parse_request(&value).is_err(), "{}", value);
        }
    }

    /// A batch with at least one bad row — the wrong arity (the empty row
    /// included) or a label outside its column's domain — is rejected whole
    /// with `ThemisError::Ingest`, and the world is untouched: the same
    /// generation, the same sample, no batch counted.
    #[test]
    fn random_bad_ingest_batches_are_rejected_atomically(
        rows in prop::collection::vec(prop::collection::vec(INGEST_LABELS, 0..5), 0..6),
        bad in prop::collection::vec(INGEST_LABELS, 0..5),
        unknown in "(ZZ|fl|NY |0|)",
        column in 0usize..3,
        at in 0usize..6,
    ) {
        // A 3-cell row gets a label of no column in one cell; any other
        // length is an arity error already.
        let mut bad = bad;
        if bad.len() == 3 {
            bad[column] = unknown;
        }
        let mut batch = rows;
        batch.insert(at.min(batch.len()), bad);
        let session = paper_session();
        let state = |s: &themis_core::ThemisSession| {
            (s.generation(), s.model().reweighted_sample().len(), s.live_snapshot().ingest_batches)
        };
        let before = state(&session);
        let result = session.ingest("flights", &batch);
        prop_assert!(
            matches!(result, Err(themis_core::ThemisError::Ingest(_))),
            "{:?}: {:?}",
            &batch,
            &result
        );
        prop_assert_eq!(state(&session), before);
    }
}
