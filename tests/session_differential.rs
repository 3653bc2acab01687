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

use proptest::prelude::*;
use std::sync::OnceLock;
use themis_aggregates::{AggregateResult, AggregateSet};
use themis_core::{Themis, ThemisConfig, ThemisSession};
use themis_data::{AttrId, Relation};
use themis_query::EngineOptions;
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
