//! Route mix and per-route latency of the open-world session (ROADMAP
//! item 6: the route-mix bench emits `BENCH_routes.json`).
//!
//! Not a criterion target: this bench builds a biased-sample world where
//! every §4.3 route genuinely fires — scalar queries stay on the reweighted
//! sample, grouped queries go hybrid (sample groups + BN-agreed open-world
//! groups), and point predicates on labels absent from the sample route to
//! pure BN inference — then times each route and tallies the route mix of a
//! rotating mixed workload, exactly as the server exports it per
//! connection.

use std::time::Instant;
use themis_bench::report;
use themis_core::{Route, Themis, ThemisConfig, ThemisSession, TraceSpan};
use themis_data::{AttrId, Attribute, Domain, Relation, Schema};
use themis_query::EngineOptions;
use themis_serve::Json;

const REPS: usize = 7;
const MIXED_QUERIES: usize = 300;

/// Best-of-`REPS` wall-clock seconds.
fn best_of<F: FnMut()>(mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// A 50 000-row population over moderate domains, sampled with a hard bias
/// (`a < 10` only), so labels `a = 10..16` exist in the aggregates but not
/// in the sample: the open-world gap every route decision is about.
fn world() -> ThemisSession {
    let sizes = [16usize, 12, 8];
    let schema = Schema::new(vec![
        Attribute::new("a", Domain::indexed("a", sizes[0])),
        Attribute::new("b", Domain::indexed("b", sizes[1])),
        Attribute::new("c", Domain::indexed("c", sizes[2])),
    ]);
    let mut pop = Relation::new(schema);
    for i in 0..50_000usize {
        pop.push_row(&[
            ((i * 7 + i / 13) % sizes[0]) as u32,
            ((i * 5 + 1) % sizes[1]) as u32,
            ((i * 11 + i / 7) % sizes[2]) as u32,
        ]);
    }
    let aggregates = themis_aggregates::AggregateSet::from_results(vec![
        themis_aggregates::AggregateResult::compute(&pop, &[AttrId(0)]),
        themis_aggregates::AggregateResult::compute(&pop, &[AttrId(1), AttrId(2)]),
    ]);
    let n = pop.len() as f64;
    let rows: Vec<usize> = (0..pop.len())
        .filter(|&r| pop.value(r, AttrId(0)) < 10)
        .take(5_000)
        .collect();
    let sample = pop.select_rows(&rows);
    let config = ThemisConfig {
        bn_sample_size: Some(2_000),
        ..ThemisConfig::default()
    };
    ThemisSession::new(Themis::build(sample, aggregates, n, config))
}

/// Flatten a span tree into `(path, elapsed_us)` rows, depth-first, summing
/// repeated paths (per-replicate spans) into the first occurrence so the
/// attribution stays one row per distinct phase.
fn flatten_spans(spans: &[TraceSpan], prefix: &str, out: &mut Vec<(String, u64)>) {
    for span in spans {
        let path = if prefix.is_empty() {
            span.name.clone()
        } else {
            format!("{prefix}/{}", span.name)
        };
        match out.iter_mut().find(|(p, _)| *p == path) {
            Some(slot) => slot.1 += span.elapsed_us,
            None => out.push((path.clone(), span.elapsed_us)),
        }
        flatten_spans(&span.children, &path, out);
    }
}

/// Best-of-`REPS` traced run of one query: the span attribution of the
/// fastest repetition (fastest, so the attribution matches `best_ms` rather
/// than averaging scheduler noise in).
fn best_attribution(session: &ThemisSession, sql: &str) -> Vec<(String, u64)> {
    let mut best_total = u64::MAX;
    let mut best = Vec::new();
    for _ in 0..REPS {
        let analyzed = session.analyze(sql).expect(sql);
        let total: u64 = analyzed.trace.spans.iter().map(|s| s.elapsed_us).sum();
        if total < best_total {
            best_total = total;
            best.clear();
            flatten_spans(&analyzed.trace.spans, "", &mut best);
        }
    }
    best
}

fn route_kind(route: &Route) -> &'static str {
    match route {
        Route::Sample => "sample",
        Route::BayesNet { .. } => "bayes_net",
        Route::Hybrid { .. } => "hybrid",
        Route::Degraded { .. } => "degraded",
    }
}

fn main() {
    report::banner(
        "route-mix",
        "per-route latency and route distribution of a mixed open-world workload",
    );
    let session = world();
    let engine = EngineOptions::default();

    // One workload per route the decision function can pick.
    let workloads: [(&str, &str, &str); 4] = [
        ("scalar_sample", "SELECT COUNT(*) AS n FROM t", "sample"),
        (
            "grouped_hybrid",
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a",
            "hybrid",
        ),
        (
            "bn_point",
            "SELECT COUNT(*) AS n FROM t WHERE a = '12'",
            "bayes_net",
        ),
        (
            "grouped_filtered",
            "SELECT b, COUNT(*) AS n, AVG(c) FROM t WHERE a <> 3 GROUP BY b ORDER BY n DESC",
            "hybrid",
        ),
    ];

    let mut rows = Vec::new();
    let mut span_rows = Vec::new();
    let mut json_workloads = Vec::new();
    for (name, sql, expected_route) in workloads {
        // Warm the replicate cache and pin the route before timing.
        let answer = session.sql_with(sql, &engine).expect(sql);
        assert_eq!(
            route_kind(&answer.route),
            expected_route,
            "{name}: route drifted"
        );
        let best = best_of(|| {
            std::hint::black_box(session.sql_with(sql, &engine).expect(sql));
        });
        rows.push(vec![
            name.to_string(),
            expected_route.to_string(),
            report::f(best * 1e3),
        ]);
        // Per-span attribution: where the route's wall time actually goes,
        // so a shift in `best_ms` is explainable from this record alone.
        let attribution = best_attribution(&session, sql);
        json_workloads.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("sql".into(), Json::Str(sql.into())),
            ("route".into(), Json::Str(expected_route.into())),
            ("best_ms".into(), Json::Num(best * 1e3)),
            (
                "spans".into(),
                Json::Arr(
                    attribution
                        .iter()
                        .map(|(path, us)| {
                            Json::Obj(vec![
                                ("path".into(), Json::Str(path.clone())),
                                ("best_us".into(), Json::Num(*us as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
        for (path, us) in &attribution {
            span_rows.push(vec![name.to_string(), path.clone(), format!("{us}")]);
        }
    }
    report::table(&["workload", "route", "best ms"], &rows);
    println!();
    report::table(&["workload", "span", "best us"], &span_rows);

    // Mixed traffic: rotate through the workloads and tally what the
    // decision function actually picked, as the server's per-route
    // counters would.
    let mut counts = [("sample", 0u64), ("bayes_net", 0), ("hybrid", 0), ("degraded", 0)];
    let start = Instant::now();
    for i in 0..MIXED_QUERIES {
        let (_, sql, _) = workloads[i % workloads.len()];
        let answer = session.sql_with(sql, &engine).expect(sql);
        let kind = route_kind(&answer.route);
        if let Some(slot) = counts.iter_mut().find(|(k, _)| *k == kind) {
            slot.1 += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "\nmixed workload: {MIXED_QUERIES} queries in {:.2}s ({:.0} q/s); route mix: {}",
        elapsed,
        MIXED_QUERIES as f64 / elapsed,
        counts
            .iter()
            .map(|(k, c)| format!("{k}={c}"))
            .collect::<Vec<_>>()
            .join(" "),
    );

    let record = Json::Obj(vec![
        ("bench".into(), Json::Str("route_mix".into())),
        ("population_rows".into(), Json::Num(50_000.0)),
        ("sample_rows".into(), Json::Num(5_000.0)),
        ("reps".into(), Json::Num(REPS as f64)),
        ("workloads".into(), Json::Arr(json_workloads)),
        ("mixed_queries".into(), Json::Num(MIXED_QUERIES as f64)),
        ("mixed_elapsed_s".into(), Json::Num(elapsed)),
        (
            "mixed_qps".into(),
            Json::Num(MIXED_QUERIES as f64 / elapsed),
        ),
        (
            "route_mix".into(),
            Json::Obj(
                counts
                    .iter()
                    .map(|(k, c)| ((*k).to_string(), Json::Num(*c as f64)))
                    .collect(),
            ),
        ),
    ]);
    match report::write_bench_json("routes", &record) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_routes.json: {e}"),
    }
}
