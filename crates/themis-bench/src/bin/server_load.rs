//! Load driver for the Themis server (ROADMAP item 1): hammer an
//! in-process `ThemisServer` with N concurrent clients over the real TCP
//! wire and report p50/p99 round-trip latency, QPS, and the per-route mix
//! the server's `stats` op exports — written to `BENCH_server.json`. As a
//! CI gate it finishes with a metrics smoke check: the `metrics` op's
//! registry export must count exactly the driven load (printed as
//! `metrics-smoke: ok (queries=N)`).
//!
//! ```text
//! server_load [CLIENTS] [QUERIES_PER_CLIENT]      # defaults: 4, 200
//! ```
//!
//! The server and every client run on `shims/rayon` pool tasks inside this
//! process, so the numbers measure the serving stack (wire encode/decode,
//! admission, session execution over the shared world) without network
//! noise. Each client rotates through a mixed workload that exercises all
//! three live routes: sample-routed scalars, hybrid grouped queries, and
//! pure-BN point predicates on labels absent from the biased sample.

use std::sync::Arc;
use std::time::Instant;
use themis_bench::report;
use themis_core::{metrics, Themis, ThemisConfig, ThemisSession};
use themis_data::{AttrId, Attribute, Domain, Relation, Schema};
use themis_serve::{Client, Json, ServerConfig, ThemisServer};

/// The mixed workload, one route per shape.
const WORKLOAD: [&str; 4] = [
    "SELECT COUNT(*) AS n FROM t",
    "SELECT a, COUNT(*) AS n FROM t GROUP BY a",
    "SELECT COUNT(*) AS n FROM t WHERE a = '12'",
    "SELECT b, COUNT(*) AS n, AVG(c) FROM t WHERE a <> 3 GROUP BY b ORDER BY n DESC",
];

/// The biased open-world dataset: a 50 000-row population sampled only where
/// `a < 10`, so the BN route genuinely fires.
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

/// One client: `queries` round-trips rotating through the workload,
/// returning per-request latencies in seconds.
fn drive_client(addr: std::net::SocketAddr, slot: usize, queries: usize) -> Vec<f64> {
    let mut client = Client::connect(addr).expect("connect");
    let mut latencies = Vec::with_capacity(queries);
    for q in 0..queries {
        let sql = WORKLOAD[(slot + q) % WORKLOAD.len()];
        let start = Instant::now();
        client
            .query(sql)
            .expect("transport")
            .unwrap_or_else(|e| panic!("client {slot}: {e}"));
        latencies.push(start.elapsed().as_secs_f64());
    }
    latencies
}

fn main() {
    let mut args = std::env::args().skip(1);
    let clients: usize = args
        .next()
        .map(|a| a.parse().expect("CLIENTS must be a number"))
        .unwrap_or(4);
    let queries_per_client: usize = args
        .next()
        .map(|a| a.parse().expect("QUERIES_PER_CLIENT must be a number"))
        .unwrap_or(200);
    report::banner(
        "server-load",
        "concurrent clients hammering one shared world over the TCP wire",
    );

    let session = Arc::new(world());
    // Warm the replicate cache so the measurement is steady-state serving,
    // not one client paying the one-time simulation cost.
    for sql in WORKLOAD {
        session
            .sql(sql)
            .unwrap_or_else(|e| panic!("warmup {sql}: {e}"));
    }
    let config = ServerConfig {
        workers: clients,
        max_concurrent_queries: clients,
        ..ServerConfig::default()
    };
    let server =
        ThemisServer::bind("127.0.0.1:0", Arc::clone(&session), config).expect("bind");
    let handle = server.handle();
    let addr = server.local_addr();

    let mut outcomes = rayon::Pool::new(2)
        .try_par_indexed(2, |task| {
            if task == 0 {
                server.serve().expect("serve");
                None
            } else {
                let start = Instant::now();
                let per_client = rayon::Pool::new(clients)
                    .try_par_indexed(clients, |slot| drive_client(addr, slot, queries_per_client))
                    .expect("client pool");
                let wall = start.elapsed().as_secs_f64();
                // Pull the server's own counters before shutting it down.
                let mut observer = Client::connect(addr).expect("connect");
                let stats = observer.stats().expect("transport").expect("stats");
                let metrics = observer.metrics().expect("transport").expect("metrics");
                handle.shutdown();
                Some((per_client, wall, stats, metrics))
            }
        })
        .expect("orchestration pool");
    let (per_client, wall, stats, registry) = outcomes
        .pop()
        .flatten()
        .expect("driver task reports its measurements");

    let latencies: Vec<f64> = per_client.into_iter().flatten().collect();
    let total = latencies.len();
    let qps = total as f64 / wall;
    let p50 = metrics::percentile(&latencies, 50.0) * 1e3;
    let p99 = metrics::percentile(&latencies, 99.0) * 1e3;
    let mean = latencies.iter().sum::<f64>() / total as f64 * 1e3;

    let route_mix: Vec<(String, Json)> = ["sample", "bayes_net", "hybrid", "degraded"]
        .iter()
        .map(|k| {
            let count = stats
                .get("routes")
                .and_then(|r| r.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            ((*k).to_string(), Json::Num(count as f64))
        })
        .collect();

    report::table(
        &["clients", "queries", "wall s", "QPS", "p50 ms", "p99 ms", "mean ms"],
        &[vec![
            clients.to_string(),
            total.to_string(),
            report::f(wall),
            report::f(qps),
            report::f(p50),
            report::f(p99),
            report::f(mean),
        ]],
    );
    println!(
        "\nroute mix (server counters): {}",
        route_mix
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" "),
    );

    let record = Json::Obj(vec![
        ("bench".into(), Json::Str("server_load".into())),
        ("clients".into(), Json::Num(clients as f64)),
        (
            "queries_per_client".into(),
            Json::Num(queries_per_client as f64),
        ),
        ("total_queries".into(), Json::Num(total as f64)),
        ("wall_s".into(), Json::Num(wall)),
        ("qps".into(), Json::Num(qps)),
        ("p50_ms".into(), Json::Num(p50)),
        ("p99_ms".into(), Json::Num(p99)),
        ("mean_ms".into(), Json::Num(mean)),
        ("route_mix".into(), Json::Obj(route_mix)),
        (
            "workload".into(),
            Json::Arr(WORKLOAD.iter().map(|s| Json::Str((*s).to_string())).collect()),
        ),
    ]);
    let path = report::write_bench_json("server", &record)
        .unwrap_or_else(|e| panic!("could not write BENCH_server.json: {e}"));
    println!("wrote {}", path.display());

    // Metrics smoke (CI gate): the registry's `metrics` op must agree with
    // the load we just generated — exactly `total` queries counted, and
    // the latency histogram saw every one of them.
    let registry_queries = registry
        .get("server.queries")
        .and_then(Json::as_u64)
        .expect("metrics export carries server.queries");
    assert_eq!(
        registry_queries, total as u64,
        "metrics registry disagrees with the driven load"
    );
    let latency_count = registry
        .get("server.query_latency_us")
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .expect("metrics export carries the latency histogram");
    assert_eq!(
        latency_count, total as u64,
        "latency histogram missed successful queries"
    );
    println!("metrics-smoke: ok (queries={registry_queries})");
}
