//! Overhead of the observability layer (trace spans + engine counters) on
//! both engines.
//!
//! Not a criterion target: this bench runs each workload three ways —
//! uninstrumented, instrumented with a *disabled* [`TraceSink`], and
//! instrumented with an *enabled* sink — serial and parallel, and reports
//! the relative overheads. The acceptance criterion is the disabled case:
//! a `TraceSink::disabled()` threaded through execution must cost under 2%
//! aggregate, because every production query path carries one. The enabled
//! cost is reported for context but not capped — turning tracing on is an
//! explicit opt-in.
//!
//! The serial oracle `execute` is the uninstrumented baseline; the
//! parallel engine has no uninstrumented twin, so its disabled-sink run
//! joins the baseline side and only its enabled run is an overhead.

use std::time::Instant;
use themis_bench::report;
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_query::{
    execute, execute_guarded, execute_parallel, Catalog, EngineOptions, QueryResult, TraceSink,
};
use themis_serve::Json;
use themis_sql::Query;

const REPS: usize = 7;
const PARALLEL_THREADS: usize = 4;
/// Aggregate disabled-tracing overhead cap (acceptance criterion).
const MAX_DISABLED_OVERHEAD: f64 = 0.02;

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

fn main() {
    report::banner(
        "obs-overhead",
        "traced vs untraced execution, serial and parallel (disabled sink must be free)",
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

    let serial_disabled = EngineOptions {
        threads: 1,
        ..EngineOptions::default()
    };
    let par_disabled = EngineOptions::with_threads(PARALLEL_THREADS);
    let enabled = |threads| EngineOptions {
        threads,
        trace: TraceSink::enabled(),
        ..EngineOptions::default()
    };

    let mut rows = Vec::new();
    let mut json_workloads = Vec::new();
    let (mut baseline_total, mut disabled_total) = (0.0f64, 0.0f64);
    for (name, cat, sql) in workloads {
        let query: Query = themis_sql::parse(sql).expect(sql);
        // Tracing observes, never steers: every configuration returns the
        // bit-identical result.
        let oracle = execute(cat, &query).expect(sql);
        assert_eq!(
            oracle,
            execute_guarded(cat, &query, &serial_disabled).expect(sql),
            "{name}: disabled-sink serial result diverged"
        );
        assert_eq!(
            oracle,
            execute_guarded(cat, &query, &enabled(1)).expect(sql),
            "{name}: enabled-sink serial result diverged"
        );
        assert_eq!(
            execute_parallel(cat, &query, &par_disabled).expect(sql),
            execute_parallel(cat, &query, &enabled(PARALLEL_THREADS)).expect(sql),
            "{name}: enabled-sink parallel result diverged"
        );

        let serial_plain = best_of(|| execute(cat, &query).expect(sql));
        let serial_off = best_of(|| execute_guarded(cat, &query, &serial_disabled).expect(sql));
        let serial_on = best_of(|| execute_guarded(cat, &query, &enabled(1)).expect(sql));
        let par_off = best_of(|| execute_parallel(cat, &query, &par_disabled).expect(sql));
        let par_on = best_of(|| execute_parallel(cat, &query, &enabled(PARALLEL_THREADS)).expect(sql));
        baseline_total += serial_plain;
        disabled_total += serial_off;

        let disabled_over = serial_off / serial_plain - 1.0;
        let serial_on_over = serial_on / serial_off - 1.0;
        let par_on_over = par_on / par_off - 1.0;
        rows.push(vec![
            name.to_string(),
            report::f(serial_plain * 1e3),
            report::f(serial_off * 1e3),
            format!("{:+.1}%", disabled_over * 100.0),
            format!("{:+.1}%", serial_on_over * 100.0),
            report::f(par_off * 1e3),
            format!("{:+.1}%", par_on_over * 100.0),
        ]);
        json_workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("sql".into(), Json::Str(sql.into())),
            ("serial_plain_ms".into(), Json::Num(serial_plain * 1e3)),
            ("serial_disabled_ms".into(), Json::Num(serial_off * 1e3)),
            ("serial_disabled_overhead".into(), Json::Num(disabled_over)),
            ("serial_enabled_ms".into(), Json::Num(serial_on * 1e3)),
            ("serial_enabled_overhead".into(), Json::Num(serial_on_over)),
            ("parallel_disabled_ms".into(), Json::Num(par_off * 1e3)),
            ("parallel_enabled_ms".into(), Json::Num(par_on * 1e3)),
            ("parallel_enabled_overhead".into(), Json::Num(par_on_over)),
        ]));
    }
    report::table(
        &[
            "workload",
            "plain ms",
            "off ms",
            "off ovh",
            "on ovh",
            "par t=4 off ms",
            "on ovh",
        ],
        &rows,
    );
    let aggregate = disabled_total / baseline_total - 1.0;
    println!(
        "\nn = {n}; best of {REPS}; parallel at {PARALLEL_THREADS} threads.\n\
         aggregate disabled-tracing overhead: {:+.2}% (acceptance ceiling: {:.0}%)",
        aggregate * 100.0,
        MAX_DISABLED_OVERHEAD * 100.0
    );

    let record = Json::Obj(vec![
        ("bench".into(), Json::Str("obs_overhead".into())),
        ("n_rows".into(), Json::Num(n as f64)),
        ("reps".into(), Json::Num(REPS as f64)),
        ("parallel_threads".into(), Json::Num(PARALLEL_THREADS as f64)),
        ("workloads".into(), Json::Arr(json_workloads)),
        ("aggregate_disabled_overhead".into(), Json::Num(aggregate)),
        ("max_overhead_accepted".into(), Json::Num(MAX_DISABLED_OVERHEAD)),
    ]);
    match report::write_bench_json("obs", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_obs.json: {e}"),
    }

    assert!(
        aggregate < MAX_DISABLED_OVERHEAD,
        "disabled-tracing overhead {:.2}% exceeds the {:.0}% acceptance ceiling",
        aggregate * 100.0,
        MAX_DISABLED_OVERHEAD * 100.0
    );
}
