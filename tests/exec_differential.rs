//! Differential testing of the morsel-driven parallel engine against the
//! serial reference engine, plus cross-thread-count determinism.
//!
//! Policy: the serial engine (`themis_query::execute`) is the oracle. Every
//! property generates a random catalog and a random query from the supported
//! SQL subset (filters, IN, GROUP BY, ORDER BY/LIMIT, self-joins), runs both
//! engines, and requires identical shape/labels/row order and aggregate
//! agreement to 1e-9 (parallel merges associate float additions at morsel
//! boundaries, so bit-equality is only guaranteed at matching fold orders).
//! Run with `PROPTEST_CASES=500` (or more) for release gating.

use proptest::prelude::*;
use themis_data::Relation;
use themis_query::{Catalog, EngineOptions, QueryResult, Value};
use themis_tests::querygen::{
    adversarial_query_strategy, adversarial_rows_strategy, query_strategy, random_relation,
    rows_strategy, test_schema, SIZES,
};

/// Morsels far smaller than the row count, threads ≠ morsel count, so merge
/// order and work stealing are genuinely exercised.
fn test_opts() -> EngineOptions {
    EngineOptions {
        threads: 4,
        morsel_rows: 7,
        ..EngineOptions::default()
    }
}

/// Assert both engines produced the same result: identical columns, row
/// order, and group labels; aggregates within 1e-9.
fn assert_agree(sql: &str, serial: &QueryResult, parallel: &QueryResult) {
    assert_eq!(serial.columns, parallel.columns, "{sql}");
    assert_eq!(serial.group_arity, parallel.group_arity, "{sql}");
    assert_eq!(serial.rows.len(), parallel.rows.len(), "{sql}");
    for (i, (sr, pr)) in serial.rows.iter().zip(&parallel.rows).enumerate() {
        assert_eq!(sr.len(), pr.len(), "{sql} row {i}");
        for (sv, pv) in sr.iter().zip(pr) {
            match (sv, pv) {
                (Value::Str(s), Value::Str(p)) => assert_eq!(s, p, "{sql} row {i}"),
                (Value::Num(s), Value::Num(p)) => {
                    assert!((s - p).abs() <= 1e-9, "{sql} row {i}: {s} vs {p}")
                }
                _ => panic!("{sql} row {i}: cell type mismatch {sv:?} vs {pv:?}"),
            }
        }
    }
}

fn run_both(catalog: &Catalog, sql: &str, opts: &EngineOptions) {
    let query = themis_sql::parse(sql).expect(sql);
    let serial = themis_query::execute(catalog, &query, opts).expect(sql);
    let parallel = themis_query::execute_parallel(catalog, &query, opts).expect(sql);
    assert_agree(sql, &serial, &parallel);
}

proptest! {
    #[test]
    fn random_scans_agree(rows in rows_strategy(), sql in query_strategy()) {
        let mut c = Catalog::new();
        c.register("t", random_relation(&rows));
        run_both(&c, &sql, &test_opts());
    }

    #[test]
    fn random_self_joins_agree(rows in rows_strategy(), shape in 0u32..4, k in 0u32..4) {
        let mut c = Catalog::new();
        c.register("t", random_relation(&rows));
        let sql = match shape {
            0 => "SELECT COUNT(*) AS n FROM t x, t y WHERE x.b = y.c".to_string(),
            1 => "SELECT x.a, COUNT(*) AS n FROM t x, t y WHERE x.b = y.c GROUP BY x.a"
                .to_string(),
            2 => format!(
                "SELECT x.a, COUNT(*) AS n, SUM(y.c) FROM t x, t y \
                 WHERE x.b = y.c AND x.a <= {} GROUP BY x.a ORDER BY x.a",
                k % SIZES[0]
            ),
            _ => "SELECT x.a, y.b, COUNT(*) AS n FROM t x, t y \
                  WHERE x.c = y.c GROUP BY x.a, y.b ORDER BY n DESC LIMIT 4"
                .to_string(),
        };
        run_both(&c, &sql, &test_opts());
    }

    /// Adversarial shapes — self-join blowups, max-cardinality GROUP BY,
    /// zero-row inputs, zero-selectivity filters — agree like any other
    /// query. These are the inputs governance budgets exist for, so the
    /// engines must at least concur on them with no limits armed.
    #[test]
    fn adversarial_shapes_agree(
        rows in adversarial_rows_strategy(),
        sql in adversarial_query_strategy(),
        morsel in 1usize..16,
    ) {
        let mut c = Catalog::new();
        c.register("t", random_relation(&rows));
        let opts = EngineOptions { threads: 4, morsel_rows: morsel, ..EngineOptions::default() };
        run_both(&c, &sql, &opts);
    }

    #[test]
    fn agreement_holds_across_morsel_sizes(rows in rows_strategy(), morsel in 1usize..32) {
        let mut c = Catalog::new();
        c.register("t", random_relation(&rows));
        let opts = EngineOptions { threads: 3, morsel_rows: morsel, ..EngineOptions::default() };
        run_both(&c, "SELECT a, COUNT(*) AS n, AVG(b), MIN(c) FROM t GROUP BY a", &opts);
    }
}

/// A relation big enough to span many `DEFAULT_MORSEL_SIZE` morsels, with
/// dyadic (exactly representable) weights so float sums are exact and
/// results must be *identical* — not just close — across engines and thread
/// counts.
fn dyadic_relation(rows: usize) -> Relation {
    let mut rel = Relation::new(test_schema());
    for i in 0..rows {
        let vals = [
            (i * 7 + 3) as u32 % SIZES[0],
            (i * 5 + 1) as u32 % SIZES[1],
            (i * 11) as u32 % SIZES[2],
        ];
        // Weights in {0.0, 0.5, ..., 3.5}: sums associate exactly.
        rel.push_row_weighted(&vals, (i % 8) as f64 * 0.5);
    }
    rel
}

/// Identical `QueryResult` (row order included) for explicit
/// `EngineOptions` thread counts 1, 2, and 8 via the public `run_sql`
/// entry, including a zero-row table and an all-rows-filtered query. No
/// environment variables involved: the engine is configured per call.
#[test]
fn run_sql_is_deterministic_across_thread_counts() {
    let mut catalog = Catalog::new();
    catalog.register("t", dyadic_relation(5000));
    catalog.register("empty", Relation::new(test_schema()));
    let queries = [
        // Multi-morsel grouped scan with secondary ordering.
        "SELECT a, b, COUNT(*) AS n, AVG(c), MIN(b), MAX(a) FROM t \
         GROUP BY a, b ORDER BY n DESC LIMIT 10",
        // Scalar aggregate over everything.
        "SELECT COUNT(*), SUM(c) FROM t",
        // Zero-row table: scalar must yield the single zero row...
        "SELECT COUNT(*) AS n FROM empty",
        // ...and a grouped query an empty result.
        "SELECT a, COUNT(*) FROM empty GROUP BY a",
        // All rows filtered out.
        "SELECT COUNT(*) AS n FROM t WHERE a <= -1",
        "SELECT a, COUNT(*) FROM t WHERE a <= -1 GROUP BY a",
        // Self-join spanning morsels.
        "SELECT x.a, COUNT(*) AS n FROM t x, t y WHERE x.b = y.c AND x.a <= 2 \
         GROUP BY x.a ORDER BY x.a",
    ];
    for sql in queries {
        let mut results: Vec<(usize, QueryResult)> = Vec::new();
        for threads in [1usize, 2, 8] {
            let opts = EngineOptions::with_threads(threads);
            results.push((threads, themis_query::run_sql(&catalog, sql, &opts).expect(sql)));
        }
        let (_, base) = &results[0];
        for (threads, r) in &results[1..] {
            assert_eq!(
                r, base,
                "{sql}: threads = {threads} differs from threads = 1"
            );
        }
    }
}

/// The zero-row and all-filtered edge cases also agree under the explicit
/// parallel API with tiny morsels (no env involvement).
#[test]
fn edge_cases_agree_with_tiny_morsels() {
    let mut c = Catalog::new();
    c.register("t", dyadic_relation(40));
    c.register("empty", Relation::new(test_schema()));
    let opts = EngineOptions {
        threads: 8,
        morsel_rows: 1,
        ..EngineOptions::default()
    };
    for sql in [
        "SELECT COUNT(*) AS n FROM empty",
        "SELECT a, COUNT(*) FROM empty GROUP BY a",
        "SELECT COUNT(*) AS n, MIN(b), MAX(c) FROM t WHERE a <= -1",
        "SELECT a, AVG(b) FROM t GROUP BY a ORDER BY a DESC",
    ] {
        run_both(&c, sql, &opts);
    }
}
