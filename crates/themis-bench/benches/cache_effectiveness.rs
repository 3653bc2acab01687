//! Answer-cache effectiveness under a skewed interactive workload
//! (`BENCH_cache.json`): a Zipf-distributed stream of distinct plans is
//! replayed against a cache-enabled session and an identical uncached
//! session, and the per-query latency distributions are compared.
//!
//! Dashboards and interactive exploration re-ask a small set of hot
//! queries; Zipf is the standard model for that skew. The bench **asserts**
//! the cache earns its keep — cached p50 under 20% of uncached p50 — so a
//! regression that makes hits slow (or stops them happening) fails the
//! bench rather than just shifting a number.
//!
//! Not a criterion target: the interesting output is the latency quantile
//! split by hit/miss and the hit rate, not a single mean.

use std::time::Instant;
use themis_bench::report;
use themis_core::{Themis, ThemisConfig, ThemisSession};
use themis_data::{AttrId, Attribute, Domain, Relation, Schema};
use themis_query::EngineOptions;
use themis_serve::Json;

/// Distinct plans in the workload pool.
const DISTINCT_QUERIES: usize = 32;
/// Queries in the replayed stream.
const STREAM_LEN: usize = 1_200;
/// Answer-cache capacity — smaller than the pool, so cold-tail plans evict.
const CACHE_ENTRIES: usize = 24;
/// Acceptance: cached p50 must be below this fraction of uncached p50.
const P50_BUDGET: f64 = 0.20;

/// The same biased open-world dataset as the `server_load` bin, smaller so
/// the uncached arm stays fast enough to replay the full stream.
fn world() -> Themis {
    let sizes = [16usize, 12, 8];
    let schema = Schema::new(vec![
        Attribute::new("a", Domain::indexed("a", sizes[0])),
        Attribute::new("b", Domain::indexed("b", sizes[1])),
        Attribute::new("c", Domain::indexed("c", sizes[2])),
    ]);
    let mut pop = Relation::new(schema);
    for i in 0..20_000usize {
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
        .take(3_000)
        .collect();
    let sample = pop.select_rows(&rows);
    let config = ThemisConfig {
        bn_sample_size: Some(1_000),
        ..ThemisConfig::default()
    };
    Themis::build(sample, aggregates, n, config)
}

/// The distinct-plan pool: grouped (hybrid-route) and filtered queries over
/// every attribute, varied by predicate value so each is its own
/// fingerprint.
fn query_pool() -> Vec<String> {
    let mut pool = Vec::with_capacity(DISTINCT_QUERIES);
    pool.push("SELECT a, COUNT(*) AS n FROM t GROUP BY a".to_string());
    pool.push("SELECT b, COUNT(*) AS n FROM t GROUP BY b".to_string());
    pool.push("SELECT c, COUNT(*) AS n FROM t GROUP BY c".to_string());
    pool.push("SELECT a, b, COUNT(*) AS n FROM t GROUP BY a, b ORDER BY n DESC LIMIT 12".to_string());
    for v in 0..10 {
        pool.push(format!(
            "SELECT b, COUNT(*) AS n FROM t WHERE a = '{v}' GROUP BY b"
        ));
    }
    for v in 0..10 {
        pool.push(format!(
            "SELECT a, COUNT(*) AS n, AVG(c) FROM t WHERE b <> {v} GROUP BY a"
        ));
    }
    for v in 0..8 {
        pool.push(format!(
            "SELECT b, c, COUNT(*) AS n FROM t WHERE a = '{v}' GROUP BY b, c"
        ));
    }
    assert_eq!(pool.len(), DISTINCT_QUERIES);
    pool
}

/// Deterministic Zipf(s = 1) sampling over `n` ranks via a fixed-seed LCG:
/// rank k is drawn proportionally to 1/(k+1). No process entropy, so every
/// run replays the identical stream.
struct Zipf {
    cumulative: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(n: usize, seed: u64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / (k as f64 + 1.0);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf {
            cumulative,
            state: seed,
        }
    }

    fn next_rank(&mut self) -> usize {
        // Numerical Recipes LCG; the top bits feed a uniform in [0, 1).
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// Replay the stream on one session, returning sorted per-query latencies
/// in microseconds.
fn replay(session: &ThemisSession, pool: &[String], stream: &[usize]) -> Vec<f64> {
    let engine = EngineOptions::default();
    let mut latencies = Vec::with_capacity(stream.len());
    for &rank in stream {
        let sql = &pool[rank];
        let start = Instant::now();
        std::hint::black_box(session.sql_with(sql, &engine).expect(sql));
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    latencies
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    report::banner(
        "cache-effectiveness",
        "answer-cache latency win on a Zipf-skewed interactive workload",
    );
    let pool = query_pool();
    let mut zipf = Zipf::new(pool.len(), 0xCAC4E);
    let stream: Vec<usize> = (0..STREAM_LEN).map(|_| zipf.next_rank()).collect();

    let model = world();
    let uncached = ThemisSession::new(model.clone());
    let cached = ThemisSession::new(model).with_answer_cache(CACHE_ENTRIES);

    // Warm both sessions' replicate caches outside the timed stream (the
    // one-time BN simulation would otherwise land on an arbitrary query).
    let engine = EngineOptions::default();
    for s in [&uncached, &cached] {
        s.sql_with(&pool[0], &engine).expect("warmup");
    }

    let uncached_lat = replay(&uncached, &pool, &stream);
    let cached_lat = replay(&cached, &pool, &stream);
    let snap = cached.live_snapshot();
    let served = snap.cache_hits + snap.cache_misses;
    let hit_rate = snap.cache_hits as f64 / served.max(1) as f64;

    let mut rows = Vec::new();
    for (name, lat) in [("uncached", &uncached_lat), ("cached", &cached_lat)] {
        rows.push(vec![
            name.to_string(),
            report::f(quantile(lat, 0.50)),
            report::f(quantile(lat, 0.90)),
            report::f(quantile(lat, 0.99)),
        ]);
    }
    report::table(&["arm", "p50 us", "p90 us", "p99 us"], &rows);
    println!(
        "\nhit rate: {:.1}% ({} hits, {} misses, {} evictions over {} distinct plans, cache {CACHE_ENTRIES})",
        hit_rate * 100.0,
        snap.cache_hits,
        snap.cache_misses,
        snap.cache_evictions,
        DISTINCT_QUERIES,
    );

    let uncached_p50 = quantile(&uncached_lat, 0.50);
    let cached_p50 = quantile(&cached_lat, 0.50);
    let ratio = cached_p50 / uncached_p50;
    println!(
        "p50: cached {:.1} us vs uncached {:.1} us ({:.1}% — budget {:.0}%)",
        cached_p50,
        uncached_p50,
        ratio * 100.0,
        P50_BUDGET * 100.0,
    );

    let record = Json::Obj(vec![
        ("bench".into(), Json::Str("cache_effectiveness".into())),
        ("population_rows".into(), Json::Num(20_000.0)),
        ("sample_rows".into(), Json::Num(3_000.0)),
        ("distinct_queries".into(), Json::Num(DISTINCT_QUERIES as f64)),
        ("stream_len".into(), Json::Num(STREAM_LEN as f64)),
        ("cache_entries".into(), Json::Num(CACHE_ENTRIES as f64)),
        ("zipf_exponent".into(), Json::Num(1.0)),
        ("uncached_p50_us".into(), Json::Num(uncached_p50)),
        ("uncached_p90_us".into(), Json::Num(quantile(&uncached_lat, 0.90))),
        ("uncached_p99_us".into(), Json::Num(quantile(&uncached_lat, 0.99))),
        ("cached_p50_us".into(), Json::Num(cached_p50)),
        ("cached_p90_us".into(), Json::Num(quantile(&cached_lat, 0.90))),
        ("cached_p99_us".into(), Json::Num(quantile(&cached_lat, 0.99))),
        ("p50_ratio".into(), Json::Num(ratio)),
        ("hit_rate".into(), Json::Num(hit_rate)),
        ("hits".into(), Json::Num(snap.cache_hits as f64)),
        ("misses".into(), Json::Num(snap.cache_misses as f64)),
        ("evictions".into(), Json::Num(snap.cache_evictions as f64)),
    ]);
    let path = report::write_bench_json("cache", &record)
        .unwrap_or_else(|e| panic!("could not write BENCH_cache.json: {e}"));
    println!("wrote {}", path.display());

    assert!(
        ratio < P50_BUDGET,
        "cache ineffective: cached p50 {cached_p50:.1} us is {:.1}% of uncached {uncached_p50:.1} us (budget {:.0}%)",
        ratio * 100.0,
        P50_BUDGET * 100.0,
    );
    println!("cache effectiveness within budget");
}
