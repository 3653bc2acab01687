//! Serial vs morsel-driven parallel engine throughput.
//!
//! Not a criterion target: this bench compares the two query engines
//! head-to-head at 1/2/4/8 threads and prints a speedup table via the
//! shared report formatter, which the criterion shim cannot express. Every
//! parallel result is checked against the serial engine's before timing is
//! trusted.
//!
//! Each point splits its speedup over the serial engine in two:
//!
//! - `algorithmic_speedup` — serial `execute` over the morsel engine at
//!   `threads: 1`. No thread is involved: this is the morsel engine's
//!   algorithm (flat dense accumulators instead of per-row allocated hash
//!   keys, and the column-at-a-time scan kernel) against the row-at-a-time
//!   interpreter. It is the same for every point of a workload.
//! - `parallel_speedup` — the morsel engine at `threads: 1` over the same
//!   engine at `threads: N`: what the extra workers add, and all they add.
//!
//! `speedup` (serial over `threads: N`) is their product; the acceptance
//! floor still applies to it on `group_by_scan` at 4 threads.

use std::time::Instant;
use themis_bench::report;
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_query::{execute, execute_parallel, Catalog, EngineOptions, QueryResult};
use themis_serve::Json;
use themis_sql::Query;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;

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

fn close(a: &QueryResult, b: &QueryResult) -> bool {
    use themis_query::Value;
    a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.iter().zip(y).all(|(u, v)| match (u, v) {
                (Value::Str(s), Value::Str(t)) => s == t,
                (Value::Num(s), Value::Num(t)) => (s - t).abs() <= 1e-6 * s.abs().max(1.0),
                _ => false,
            })
        })
}

fn main() {
    report::banner(
        "parallel-engine",
        "serial interpreter vs morsel-driven parallel engine (EngineOptions thread sweep)",
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

    let workloads: [(&str, &Catalog, &str); 4] = [
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
            "group_by_2d",
            &catalog,
            "SELECT origin_state, fl_date, COUNT(*) AS n FROM F \
             GROUP BY origin_state, fl_date ORDER BY n DESC LIMIT 20",
        ),
        (
            "self_join_20k",
            &join_catalog,
            "SELECT t.origin_state, COUNT(*) FROM F t, F s \
             WHERE t.dest_state = s.origin_state AND t.dest_state IN ('CO', 'MN') \
             GROUP BY t.origin_state",
        ),
    ];

    let mut rows = Vec::new();
    let mut json_workloads = Vec::new();
    let mut group_by_speedup_at_4 = 0.0;
    for (name, cat, sql) in workloads {
        let query: Query = themis_sql::parse(sql).expect(sql);
        let oracle = execute(cat, &query).expect(sql);
        let serial_s = best_of(|| execute(cat, &query).expect(sql));

        let mut cells = vec![name.to_string(), report::f(serial_s * 1e3)];
        let mut json_points = Vec::new();
        let mut one_thread_s = f64::NAN;
        for threads in THREAD_COUNTS {
            let opts = EngineOptions::with_threads(threads);
            let result = execute_parallel(cat, &query, &opts).expect(sql);
            assert!(
                close(&oracle, &result),
                "{name}: parallel result diverged from serial at {threads} threads"
            );
            let par_s = best_of(|| execute_parallel(cat, &query, &opts).expect(sql));
            if threads == 1 {
                one_thread_s = par_s;
            }
            let speedup = serial_s / par_s;
            let algorithmic = serial_s / one_thread_s;
            let parallel = one_thread_s / par_s;
            if name == "group_by_scan" && threads == 4 {
                group_by_speedup_at_4 = speedup;
            }
            cells.push(format!(
                "{} ({}x = {}x alg · {}x par)",
                report::f(par_s * 1e3),
                report::f(speedup),
                report::f(algorithmic),
                report::f(parallel)
            ));
            json_points.push(Json::Obj(vec![
                ("threads".into(), Json::Num(threads as f64)),
                ("ms".into(), Json::Num(par_s * 1e3)),
                ("speedup".into(), Json::Num(speedup)),
                ("algorithmic_speedup".into(), Json::Num(algorithmic)),
                ("parallel_speedup".into(), Json::Num(parallel)),
            ]));
        }
        rows.push(cells);
        json_workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("sql".into(), Json::Str(sql.into())),
            ("serial_ms".into(), Json::Num(serial_s * 1e3)),
            ("parallel".into(), Json::Arr(json_points)),
        ]));
    }
    report::table(
        &[
            "workload",
            "serial ms",
            "par t=1 ms",
            "par t=2 ms",
            "par t=4 ms",
            "par t=8 ms",
        ],
        &rows,
    );
    println!(
        "\nn = {n}; best of {REPS}; speedup over the serial engine = algorithmic (serial over \
         the morsel engine at 1 thread) x parallel (1 thread over N).\n\
         group_by_scan speedup at 4 threads: {}x (acceptance floor: 2x)",
        report::f(group_by_speedup_at_4)
    );

    let record = Json::Obj(vec![
        ("bench".into(), Json::Str("parallel_engine".into())),
        ("n_rows".into(), Json::Num(n as f64)),
        ("reps".into(), Json::Num(REPS as f64)),
        (
            "thread_counts".into(),
            Json::Arr(THREAD_COUNTS.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("workloads".into(), Json::Arr(json_workloads)),
        (
            "group_by_speedup_at_4_threads".into(),
            Json::Num(group_by_speedup_at_4),
        ),
    ]);
    match report::write_bench_json("parallel", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_parallel.json: {e}"),
    }

    assert!(
        group_by_speedup_at_4 >= 2.0,
        "parallel engine below the 2x acceptance floor on group_by_scan at 4 threads"
    );
}
