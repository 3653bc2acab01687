//! Overhead of the observability layer (trace spans + engine counters) on
//! the morsel engine, the engine every production query runs on.
//!
//! Not a criterion target. The acceptance criterion bounds what a
//! *disabled* [`TraceSink`] costs a query — every production query path
//! carries one — without an uninstrumented twin of the engine to compare
//! against:
//!
//! - an *enabled* sink counts the instrumentation calls the query makes
//!   ([`TraceSink::calls`]). The engine hoists `is_enabled` out of its
//!   loops, so a disabled sink receives at most that many calls (today two
//!   per execution: the `execute_parallel` span and `groups_out`);
//! - a tight loop times one disabled call of each kind (`span` with its
//!   guard's drop, `add`, `note`), and the most expensive kind sets the
//!   per-call cost;
//! - calls × cost over the disabled-sink query time bounds the disabled
//!   overhead, and every workload's bound must stay under 2%.
//!
//! A disabled-sink call added inside a per-row loop multiplies the calls
//! an enabled sink counts, so this gate fails it even when the compiler
//! hoists the disabled check and no timing could see the cost. The enabled
//! sink's own overhead is reported for context but not capped — turning
//! tracing on is an explicit opt-in.

use std::hint::black_box;
use std::time::Instant;
use themis_bench::report;
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_query::{execute_parallel, Catalog, EngineOptions, TraceSink};
use themis_serve::Json;
use themis_sql::Query;

const REPS: usize = 7;
const PARALLEL_THREADS: usize = 4;
/// Disabled calls per timing loop.
const CALL_LOOP: u32 = 1_000_000;
/// Disabled-tracing overhead cap per workload (acceptance criterion).
const MAX_DISABLED_OVERHEAD: f64 = 0.02;

/// Best-of-`REPS` wall-clock seconds.
fn best_of<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Nanoseconds per call of `call` on `sink`, over a loop of `CALL_LOOP`
/// calls the compiler cannot fold (the sink passes through `black_box`).
fn per_call_ns(sink: &TraceSink, call: impl Fn(&TraceSink)) -> f64 {
    let seconds = best_of(|| {
        for _ in 0..CALL_LOOP {
            call(black_box(sink));
        }
    });
    seconds * 1e9 / f64::from(CALL_LOOP)
}

fn main() {
    report::banner(
        "obs-overhead",
        "morsel engine: sink calls x disabled-call cost vs query time (disabled sink must be free)",
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

    let disabled_sink = TraceSink::disabled();
    let call_ns = [
        per_call_ns(&disabled_sink, |s| drop(s.span("execute_parallel"))),
        per_call_ns(&disabled_sink, |s| s.add("groups_out", 1)),
        per_call_ns(&disabled_sink, |s| s.note("cache", "bypass")),
    ]
    .into_iter()
    .fold(0.0, f64::max);

    let disabled = EngineOptions::with_threads(PARALLEL_THREADS);
    let enabled = || EngineOptions {
        trace: TraceSink::enabled(),
        ..disabled.clone()
    };

    let mut rows = Vec::new();
    let mut json_workloads = Vec::new();
    let mut worst = 0.0f64;
    for (name, cat, sql) in workloads {
        let query: Query = themis_sql::parse(sql).expect(sql);
        // Tracing observes, never steers: both sinks return the
        // bit-identical result.
        let counting = enabled();
        assert_eq!(
            execute_parallel(cat, &query, &disabled).expect(sql),
            execute_parallel(cat, &query, &counting).expect(sql),
            "{name}: enabled-sink result diverged"
        );
        let calls = counting.trace.calls();

        let off = best_of(|| execute_parallel(cat, &query, &disabled).expect(sql));
        let on = best_of(|| execute_parallel(cat, &query, &enabled()).expect(sql));
        let bound = calls as f64 * call_ns * 1e-9 / off;
        let on_over = on / off - 1.0;
        worst = worst.max(bound);
        rows.push(vec![
            name.to_string(),
            calls.to_string(),
            report::f(off * 1e3),
            format!("{:.4}%", bound * 100.0),
            report::f(on * 1e3),
            format!("{:+.1}%", on_over * 100.0),
        ]);
        json_workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("sql".into(), Json::Str(sql.into())),
            ("sink_calls".into(), Json::Num(calls as f64)),
            ("disabled_ms".into(), Json::Num(off * 1e3)),
            ("disabled_overhead_bound".into(), Json::Num(bound)),
            ("enabled_ms".into(), Json::Num(on * 1e3)),
            ("enabled_overhead".into(), Json::Num(on_over)),
        ]));
    }
    report::table(
        &[
            "workload",
            "sink calls",
            "off ms",
            "off bound",
            "on ms",
            "on ovh",
        ],
        &rows,
    );
    println!(
        "\nn = {n}; best of {REPS}; morsel engine at {PARALLEL_THREADS} threads; disabled call \
         {call_ns:.3} ns.\n\
         worst disabled-tracing overhead bound: {:.4}% (acceptance ceiling: {:.0}%)",
        worst * 100.0,
        MAX_DISABLED_OVERHEAD * 100.0
    );

    let record = Json::Obj(vec![
        ("bench".into(), Json::Str("obs_overhead".into())),
        ("n_rows".into(), Json::Num(n as f64)),
        ("reps".into(), Json::Num(REPS as f64)),
        ("parallel_threads".into(), Json::Num(PARALLEL_THREADS as f64)),
        ("disabled_call_ns".into(), Json::Num(call_ns)),
        ("workloads".into(), Json::Arr(json_workloads)),
        ("worst_disabled_overhead_bound".into(), Json::Num(worst)),
        ("max_overhead_accepted".into(), Json::Num(MAX_DISABLED_OVERHEAD)),
    ]);
    let path = report::write_bench_json("obs", &record)
        .unwrap_or_else(|e| panic!("could not write BENCH_obs.json: {e}"));
    println!("wrote {}", path.display());

    assert!(
        worst < MAX_DISABLED_OVERHEAD,
        "disabled-tracing overhead bound {:.4}% exceeds the {:.0}% acceptance ceiling",
        worst * 100.0,
        MAX_DISABLED_OVERHEAD * 100.0
    );
}
