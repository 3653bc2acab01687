//! Overhead of the query-governance layer (deadlines, budgets,
//! cancellation) on both engines.
//!
//! Not a criterion target: this bench runs each workload guarded and
//! unguarded — serial and parallel — and reports the relative overhead. The
//! guarded configuration arms *generous* limits (an hour-long deadline,
//! effectively infinite budgets, a live cancel token), so every cooperative
//! check executes but none trips: what is measured is the cost of the
//! guard itself, which the acceptance criterion caps at 5% aggregate.

use std::time::{Duration, Instant};
use themis_bench::report;
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_query::{
    execute, execute_guarded, execute_parallel, CancelToken, Catalog, EngineOptions, Limits,
    QueryResult,
};
use themis_serve::Json;
use themis_sql::Query;

const REPS: usize = 7;
const PARALLEL_THREADS: usize = 4;
/// Aggregate guarded-over-unguarded overhead cap (acceptance criterion).
const MAX_OVERHEAD: f64 = 0.05;

/// Best-of-`REPS` wall-clock seconds.
fn best_of<F: FnMut() -> QueryResult>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Limits generous enough never to trip, so the guard stays armed on every
/// code path without changing any result.
fn generous_limits() -> Limits {
    Limits {
        deadline: Some(Duration::from_secs(3600)),
        max_rows: Some(u64::MAX / 2),
        max_groups: Some(usize::MAX / 2),
    }
}

fn main() {
    report::banner(
        "governance-overhead",
        "guarded vs unguarded execution, serial and parallel (generous never-tripping limits)",
    );
    let n = 300_000;
    let dataset = FlightsDataset::generate(FlightsConfig {
        n,
        ..Default::default()
    });
    let mut catalog = Catalog::new();
    catalog.register("F", dataset.population.clone());

    // The self-join runs on a subset to keep its quadratic output bounded.
    let join_rows: Vec<usize> = (0..20_000).collect();
    let mut join_catalog = Catalog::new();
    join_catalog.register("F", dataset.population.select_rows(&join_rows));

    let workloads: [(&str, &Catalog, &str); 3] = [
        (
            "group_by_scan",
            &catalog,
            "SELECT origin_state, COUNT(*) AS n, AVG(elapsed_time) FROM F GROUP BY origin_state",
        ),
        (
            "filtered_scan",
            &catalog,
            "SELECT COUNT(*) FROM F WHERE distance <= 5 AND origin_state <> 'CA'",
        ),
        (
            "self_join_20k",
            &join_catalog,
            "SELECT t.origin_state, COUNT(*) FROM F t, F s \
             WHERE t.dest_state = s.origin_state AND t.dest_state IN ('CO', 'MN') \
             GROUP BY t.origin_state",
        ),
    ];

    let guarded_opts = EngineOptions {
        threads: PARALLEL_THREADS,
        limits: generous_limits(),
        cancel: Some(CancelToken::new()),
        ..EngineOptions::default()
    };
    let plain_opts = EngineOptions::with_threads(PARALLEL_THREADS);
    // The serial guarded path takes the same options; threads are ignored.
    let serial_guarded_opts = EngineOptions {
        threads: 1,
        limits: generous_limits(),
        cancel: Some(CancelToken::new()),
        ..EngineOptions::default()
    };

    let mut rows = Vec::new();
    let mut json_workloads = Vec::new();
    let (mut plain_total, mut guarded_total) = (0.0f64, 0.0f64);
    for (name, cat, sql) in workloads {
        let query: Query = themis_sql::parse(sql).expect(sql);
        // Guarded execution must not change the answer.
        let oracle = execute(cat, &query).expect(sql);
        assert_eq!(
            oracle,
            execute_guarded(cat, &query, &serial_guarded_opts).expect(sql),
            "{name}: serial guarded result diverged"
        );
        assert_eq!(
            execute_parallel(cat, &query, &plain_opts).expect(sql),
            execute_parallel(cat, &query, &guarded_opts).expect(sql),
            "{name}: parallel guarded result diverged"
        );

        let serial_s = best_of(|| execute(cat, &query).expect(sql));
        let serial_g = best_of(|| execute_guarded(cat, &query, &serial_guarded_opts).expect(sql));
        let par_s = best_of(|| execute_parallel(cat, &query, &plain_opts).expect(sql));
        let par_g = best_of(|| execute_parallel(cat, &query, &guarded_opts).expect(sql));
        plain_total += serial_s + par_s;
        guarded_total += serial_g + par_g;

        let serial_over = serial_g / serial_s - 1.0;
        let par_over = par_g / par_s - 1.0;
        rows.push(vec![
            name.to_string(),
            report::f(serial_s * 1e3),
            report::f(serial_g * 1e3),
            format!("{:+.1}%", serial_over * 100.0),
            report::f(par_s * 1e3),
            report::f(par_g * 1e3),
            format!("{:+.1}%", par_over * 100.0),
        ]);
        json_workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("sql".into(), Json::Str(sql.into())),
            ("serial_ms".into(), Json::Num(serial_s * 1e3)),
            ("serial_guarded_ms".into(), Json::Num(serial_g * 1e3)),
            ("serial_overhead".into(), Json::Num(serial_over)),
            ("parallel_ms".into(), Json::Num(par_s * 1e3)),
            ("parallel_guarded_ms".into(), Json::Num(par_g * 1e3)),
            ("parallel_overhead".into(), Json::Num(par_over)),
        ]));
    }
    report::table(
        &[
            "workload",
            "serial ms",
            "guarded ms",
            "overhead",
            "par t=4 ms",
            "guarded ms",
            "overhead",
        ],
        &rows,
    );
    let aggregate = guarded_total / plain_total - 1.0;
    println!(
        "\nn = {n}; best of {REPS}; parallel at {PARALLEL_THREADS} threads.\n\
         aggregate governance overhead: {:+.2}% (acceptance ceiling: {:.0}%)",
        aggregate * 100.0,
        MAX_OVERHEAD * 100.0
    );

    let record = Json::Obj(vec![
        ("bench".into(), Json::Str("governance_overhead".into())),
        ("n_rows".into(), Json::Num(n as f64)),
        ("reps".into(), Json::Num(REPS as f64)),
        ("parallel_threads".into(), Json::Num(PARALLEL_THREADS as f64)),
        ("workloads".into(), Json::Arr(json_workloads)),
        ("aggregate_overhead".into(), Json::Num(aggregate)),
        ("max_overhead_accepted".into(), Json::Num(MAX_OVERHEAD)),
    ]);
    match report::write_bench_json("robustness", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_robustness.json: {e}"),
    }

    assert!(
        aggregate < MAX_OVERHEAD,
        "governance overhead {:.2}% exceeds the {:.0}% acceptance ceiling",
        aggregate * 100.0,
        MAX_OVERHEAD * 100.0
    );
}
