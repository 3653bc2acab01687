//! Wire-protocol golden tests: a fixture corpus of request/response lines
//! driven through a live server, asserting the **exact serialized shape** of
//! every response — valid queries, governance trips, injected faults,
//! malformed JSON, oversized lines, and busy admission rejections. The
//! protocol cannot drift silently: any byte-level change to a response
//! shows up as a fixture diff here.
//!
//! Fixture format (`tests/fixtures/wire_golden.txt`, one corpus per server
//! config): `#` lines are comments, `>>> ` prefixes a request line sent
//! verbatim, `<<< ` prefixes the expected response line. The only
//! normalization is `"<key>_us":<n>` → `"<key>_us":0` — wall-clock fields
//! (answer and span timings, latency-histogram summaries) all carry the
//! `_us` suffix; everything else is byte-exact.
//!
//! The world is the deterministic biased-sample world shared with the
//! differential suites; replicate simulation is seeded by the model config,
//! so even hybrid-route rows are byte-stable.

use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use themis_aggregates::{AggregateResult, AggregateSet};
use themis_core::{Themis, ThemisConfig, ThemisSession};
use themis_data::{AttrId, Attribute, Domain, Relation, Schema};
use themis_serve::{Client, ServerConfig, ThemisServer};

fn build_world() -> ThemisSession {
    let sizes = [5usize, 4, 3];
    let schema = Schema::new(vec![
        Attribute::new("a", Domain::indexed("a", sizes[0])),
        Attribute::new("b", Domain::indexed("b", sizes[1])),
        Attribute::new("c", Domain::indexed("c", sizes[2])),
    ]);
    let mut pop = Relation::new(schema);
    for i in 0..2_000usize {
        pop.push_row(&[
            ((i * 7 + i / 13) % sizes[0]) as u32,
            ((i * 5 + 1) % sizes[1]) as u32,
            ((i * 11 + i / 7) % sizes[2]) as u32,
        ]);
    }
    let aggregates = AggregateSet::from_results(vec![
        AggregateResult::compute(&pop, &[AttrId(0)]),
        AggregateResult::compute(&pop, &[AttrId(1), AttrId(2)]),
    ]);
    let n = pop.len() as f64;
    let rows: Vec<usize> = (0..pop.len())
        .filter(|&r| pop.value(r, AttrId(0)) < 3)
        .take(300)
        .collect();
    let sample = pop.select_rows(&rows);
    let config = ThemisConfig {
        bn_sample_size: Some(500),
        ..ThemisConfig::default()
    };
    ThemisSession::new(Themis::build(sample, aggregates, n, config))
}

fn world() -> Arc<ThemisSession> {
    static WORLD: OnceLock<Arc<ThemisSession>> = OnceLock::new();
    Arc::clone(WORLD.get_or_init(|| Arc::new(build_world())))
}

/// Replace every wall-clock field with a fixed value. All nondeterministic
/// protocol fields — `elapsed_us` on answers and trace spans, the latency
/// histogram's `p50_us`/`p90_us`/`p99_us`/`sum_us` — carry the `_us` key
/// suffix by convention, so this one rewrite (`"<key>_us":<digits>` →
/// `"<key>_us":0`) keeps every fixture byte-stable.
fn normalize(line: &str) -> String {
    let needle = "_us\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(pos) = rest.find(needle) {
        let after = pos + needle.len();
        out.push_str(&rest[..after]);
        let digits_end = rest[after..]
            .find(|c: char| !c.is_ascii_digit())
            .map(|i| after + i)
            .unwrap_or(rest.len());
        if digits_end > after {
            out.push('0');
        }
        rest = &rest[digits_end..];
    }
    out.push_str(rest);
    out
}

/// Parse the fixture into (request, expected-response) pairs.
fn parse_fixture(text: &str) -> Vec<(String, String)> {
    let mut pairs = Vec::new();
    let mut pending: Option<String> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(request) = line.strip_prefix(">>> ") {
            assert!(
                pending.is_none(),
                "fixture line {}: request without a response before it",
                lineno + 1
            );
            pending = Some(request.to_string());
        } else if let Some(response) = line.strip_prefix("<<< ") {
            let request = pending
                .take()
                .unwrap_or_else(|| panic!("fixture line {}: response without request", lineno + 1));
            pairs.push((request, response.to_string()));
        } else {
            panic!("fixture line {}: expected '#', '>>> ', or '<<< '", lineno + 1);
        }
    }
    assert!(pending.is_none(), "fixture ends with an unanswered request");
    pairs
}

/// Run every request of a fixture on one connection against `config`,
/// asserting each normalized response equals the fixture's. On mismatch the
/// panic carries the full actual transcript, ready to paste.
fn run_golden(fixture: &str, config: ServerConfig) {
    run_golden_on(fixture, config, world());
}

/// Like [`run_golden`] but on a caller-provided world — the live-data
/// corpus ingests into its world, which must not be the shared static one.
fn run_golden_on(fixture: &str, config: ServerConfig, world: Arc<ThemisSession>) {
    let pairs = parse_fixture(fixture);
    let server = ThemisServer::bind("127.0.0.1:0", world, config).expect("bind");
    let handle = server.handle();
    let addr = server.local_addr();
    let results = rayon::Pool::new(2)
        .try_par_indexed(2, |task| {
            if task == 0 {
                server.serve().map_err(|e| format!("serve failed: {e}"))
            } else {
                let caught = catch_unwind(AssertUnwindSafe(|| drive(addr, &pairs)));
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

fn drive(addr: SocketAddr, pairs: &[(String, String)]) {
    let mut client = Client::connect(addr).expect("connect");
    let mut transcript = String::new();
    let mut failed = false;
    for (request, expected) in pairs {
        let actual = normalize(&client.roundtrip_raw(request).expect("transport"));
        if &actual != expected {
            failed = true;
        }
        transcript.push_str(">>> ");
        transcript.push_str(request);
        transcript.push_str("\n<<< ");
        transcript.push_str(&actual);
        transcript.push('\n');
    }
    assert!(
        !failed,
        "wire protocol drifted from the golden fixture.\n\
         Actual transcript (normalized):\n{transcript}"
    );
}

/// The main corpus: queries on every route, explain, set echoes, a
/// governance trip, an injected worker panic, malformed and oversized
/// input, and the final deterministic stats snapshot.
#[test]
fn wire_protocol_matches_golden_fixture() {
    run_golden(
        include_str!("fixtures/wire_golden.txt"),
        ServerConfig {
            workers: 1,
            max_concurrent_queries: 4,
            threads: 1,
            morsel_rows: 7,
            max_line_bytes: 512,
            allow_fault_injection: true,
            ..ServerConfig::default()
        },
    );
}

/// Observability corpus: the `stats` export before and after a query mix
/// and traced queries (`"trace":true`) on the sample and hybrid routes —
/// all byte-stable after `_us` normalization.
#[test]
fn observability_ops_match_golden_fixture() {
    run_golden(
        include_str!("fixtures/wire_obs.txt"),
        ServerConfig {
            workers: 1,
            max_concurrent_queries: 4,
            threads: 1,
            morsel_rows: 7,
            max_line_bytes: 2048,
            allow_fault_injection: false,
            ..ServerConfig::default()
        },
    );
}

/// Live-data corpus: cache population, a predicted and served cache hit,
/// the `ingest` op (applied and rejected), and cache-visible stats. Runs on
/// its own cache-enabled world so the ingest cannot disturb the byte-pinned
/// answers of the corpora sharing the static world.
#[test]
fn live_data_ops_match_golden_fixture() {
    run_golden_on(
        include_str!("fixtures/wire_live.txt"),
        ServerConfig {
            workers: 1,
            max_concurrent_queries: 4,
            threads: 1,
            morsel_rows: 7,
            max_line_bytes: 2048,
            allow_fault_injection: false,
            ..ServerConfig::default()
        },
        Arc::new(build_world().with_answer_cache(16)),
    );
}

/// Admission rejection: a server with zero query capacity answers every
/// query with a typed `busy` error and counts it.
#[test]
fn busy_rejections_match_golden_fixture() {
    run_golden(
        include_str!("fixtures/wire_busy.txt"),
        ServerConfig {
            workers: 1,
            max_concurrent_queries: 0,
            ..ServerConfig::default()
        },
    );
}
