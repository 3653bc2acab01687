//! Behavioral tests for the server: request/response round-trips against a
//! live listener, per-connection governance policy, admission control,
//! hostile input on the wire, and counter export.
//!
//! `serve()` blocks (its accept loops run on a `shims/rayon` pool), so every
//! test orchestrates two pool tasks: task 0 serves, task 1 drives clients
//! and then shuts the server down. Driver panics are caught so the server
//! always receives its shutdown and the test never hangs.

use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use themis_aggregates::{AggregateResult, AggregateSet};
use themis_core::{Themis, ThemisConfig, ThemisSession};
use themis_data::{AttrId, Attribute, Domain, Relation, Schema};
use themis_query::{EngineOptions, Trip};
use themis_serve::{Client, Json, ServerConfig, SetRequest, ThemisServer};

/// The skewed open-world dataset the differential suites use: a 2 000-row
/// population, a 300-row sample biased to `a < 3`, BN enabled.
fn world() -> Arc<ThemisSession> {
    static WORLD: OnceLock<Arc<ThemisSession>> = OnceLock::new();
    Arc::clone(WORLD.get_or_init(|| {
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
        Arc::new(ThemisSession::new(Themis::build(sample, aggregates, n, config)))
    }))
}

/// Serve `config` on an ephemeral port, run `drive` against it, shut down.
fn with_server(config: ServerConfig, drive: impl Fn(SocketAddr) + Sync) {
    let server = ThemisServer::bind("127.0.0.1:0", world(), config).expect("bind");
    let handle = server.handle();
    let addr = server.local_addr();
    let results = rayon::Pool::new(2)
        .try_par_indexed(2, |task| {
            if task == 0 {
                server.serve().map_err(|e| format!("serve failed: {e}"))
            } else {
                let caught = catch_unwind(AssertUnwindSafe(|| drive(addr)));
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

/// The engine options a default-config connection runs with (for oracle
/// comparisons).
fn default_engine() -> EngineOptions {
    let config = ServerConfig::default();
    EngineOptions {
        threads: config.threads,
        morsel_rows: config.morsel_rows,
        ..EngineOptions::default()
    }
}

#[test]
fn wire_answers_match_the_session_exactly() {
    with_server(ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let oracle = world();
        let engine = default_engine();
        for sql in [
            "SELECT COUNT(*) AS n FROM t",
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a",
            "SELECT a, b, COUNT(*) AS n, AVG(b) FROM t GROUP BY a, b ORDER BY n DESC LIMIT 3",
            // `a = '4'` is in the population but missing from the biased
            // sample: the open-world BN route.
            "SELECT COUNT(*) AS n FROM t WHERE a = '4'",
        ] {
            let wire = client.query(sql).expect(sql).expect(sql);
            let direct = oracle.sql_with(sql, &engine).expect(sql);
            assert_eq!(wire.result, direct.result, "{sql}");
            assert_eq!(wire.route, direct.route, "{sql}");
            let wire_explain = client.explain(sql).expect(sql).expect(sql);
            assert_eq!(wire_explain, oracle.explain_with(sql, &engine).expect(sql), "{sql}");
        }
    });
}

#[test]
fn typed_errors_cross_the_wire() {
    with_server(ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let err = client
            .query("SELECT COUNT(*) AS n FROM t WHERE zzz = '1'")
            .expect("transport")
            .expect_err("unknown column must fail");
        assert_eq!(err.kind, "unknown_column");
        let err = client
            .query("THIS IS NOT SQL")
            .expect("transport")
            .expect_err("parse error expected");
        assert_eq!(err.kind, "parse");
        // The connection survives errors.
        assert!(client.query("SELECT COUNT(*) AS n FROM t").expect("transport").is_ok());
    });
}

#[test]
fn set_governs_the_connection_and_null_clears() {
    with_server(ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let echo = client
            .set(&SetRequest {
                max_rows: Some(Some(5)),
                ..SetRequest::default()
            })
            .expect("transport")
            .expect("set");
        assert_eq!(echo.get("max_rows").and_then(Json::as_u64), Some(5));
        let err = client
            .query("SELECT COUNT(*) AS n FROM t")
            .expect("transport")
            .expect_err("row budget must trip");
        assert_eq!(err.kind, "governed");
        assert_eq!(err.trip, Some(Trip::RowBudget { limit: 5 }));
        // Clearing the budget restores service on the same connection.
        client
            .set(&SetRequest {
                max_rows: Some(None),
                ..SetRequest::default()
            })
            .expect("transport")
            .expect("set");
        assert!(client.query("SELECT COUNT(*) AS n FROM t").expect("transport").is_ok());
    });
}

#[test]
fn governance_policy_is_per_connection_not_global() {
    with_server(ServerConfig::default(), |addr| {
        let mut strict = Client::connect(addr).expect("connect");
        let mut lax = Client::connect(addr).expect("connect");
        strict
            .set(&SetRequest {
                max_rows: Some(Some(1)),
                ..SetRequest::default()
            })
            .expect("transport")
            .expect("set");
        let err = strict
            .query("SELECT COUNT(*) AS n FROM t")
            .expect("transport")
            .expect_err("strict connection must trip");
        assert_eq!(err.kind, "governed");
        // The other connection is untouched by the first one's policy.
        assert!(lax.query("SELECT COUNT(*) AS n FROM t").expect("transport").is_ok());
    });
}

#[test]
fn fault_injection_is_refused_unless_enabled() {
    with_server(ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let echo = client
            .set(&SetRequest {
                fault: Some(themis_core::FaultPlan::PanicAtMorsel { morsel: 0 }),
                ..SetRequest::default()
            })
            .expect("transport")
            .expect("set");
        // Hardened server: the fault member is ignored, echo says none.
        assert_eq!(echo.get("fault").and_then(Json::as_str), Some("none"));
        assert!(client.query("SELECT COUNT(*) AS n FROM t").expect("transport").is_ok());
    });
}

#[test]
fn admission_control_rejects_with_typed_busy() {
    let config = ServerConfig {
        max_concurrent_queries: 0,
        ..ServerConfig::default()
    };
    with_server(config, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let err = client
            .query("SELECT COUNT(*) AS n FROM t")
            .expect("transport")
            .expect_err("capacity zero must reject");
        assert_eq!(err.kind, "busy");
        // Non-query ops are not admission-controlled.
        assert!(client.stats().expect("transport").is_ok());
        let stats = client.stats().expect("transport").expect("stats");
        assert_eq!(
            stats.get("server.busy_rejections").and_then(Json::as_u64),
            Some(1)
        );
    });
}

#[test]
fn hostile_lines_get_typed_errors_and_the_connection_survives() {
    let config = ServerConfig {
        max_line_bytes: 256,
        ..ServerConfig::default()
    };
    with_server(config, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let malformed = client.roundtrip_raw("{not json").expect("transport");
        assert!(malformed.contains("\"kind\":\"malformed\""), "{malformed}");
        let unknown_op = client
            .roundtrip_raw(r#"{"op":"warp"}"#)
            .expect("transport");
        assert!(unknown_op.contains("\"kind\":\"malformed\""), "{unknown_op}");
        // The metrics export is the `stats` op; `metrics` is no op at all.
        let metrics = client
            .roundtrip_raw(r#"{"op":"metrics"}"#)
            .expect("transport");
        assert_eq!(
            metrics,
            r#"{"ok":false,"error":{"kind":"malformed","message":"unknown op \"metrics\""}}"#
        );
        let oversized = client
            .roundtrip_raw(&format!(
                r#"{{"op":"query","sql":"SELECT COUNT(*) AS n FROM t WHERE a = '{}'"}}"#,
                "x".repeat(600)
            ))
            .expect("transport");
        assert!(oversized.contains("\"kind\":\"oversized\""), "{oversized}");
        // After all that abuse, a normal query still works.
        assert!(client.query("SELECT COUNT(*) AS n FROM t").expect("transport").is_ok());
    });
}

#[test]
fn concurrent_connections_share_one_world_and_counters_add_up() {
    let config = ServerConfig {
        workers: 8,
        max_concurrent_queries: 8,
        ..ServerConfig::default()
    };
    with_server(config, |addr| {
        let oracle = world();
        let engine = default_engine();
        let expected = oracle
            .sql_with("SELECT b, COUNT(*) AS n FROM t GROUP BY b", &engine)
            .expect("oracle");
        let results = rayon::Pool::new(6)
            .try_par_indexed(6, |i| {
                let mut client = Client::connect(addr).expect("connect");
                let mut answers = Vec::new();
                for _ in 0..3 {
                    answers.push(
                        client
                            .query("SELECT b, COUNT(*) AS n FROM t GROUP BY b")
                            .expect("transport")
                            .unwrap_or_else(|e| panic!("client {i}: {e}")),
                    );
                }
                answers
            })
            .expect("client pool");
        for answers in &results {
            for wire in answers {
                assert_eq!(wire.result, expected.result);
                assert_eq!(wire.route, expected.route);
            }
        }
        let mut client = Client::connect(addr).expect("connect");
        let stats = client.stats().expect("transport").expect("stats");
        let get = |name: &str| stats.get(name).and_then(Json::as_u64);
        // 18 grouped queries all took the same route.
        let hybrid = get("server.routes.hybrid").expect("hybrid");
        let sample = get("server.routes.sample").expect("sample");
        assert_eq!(hybrid + sample, 18, "{stats}");
        assert_eq!(get("server.queries"), Some(18));
        assert_eq!(get("server.connections"), Some(7));
        assert_eq!(get("server.active_queries"), Some(0));
    });
}

/// Satellite exactness check: N concurrent clients each issue a *known*
/// query mix, and every `stats` counter must land on the exact
/// predicted total — not "roughly N", exactly N. Admission is sized so no
/// busy rejection can occur; the injected fault panics at a morsel index
/// only the 500-row BN replicates reach (morsel_rows=7 ⇒ the 300-row
/// sample scan has 43 morsels, a replicate 72), so every faulted hybrid
/// degrades deterministically instead of erroring outright.
#[test]
fn known_query_mix_produces_exact_counters() {
    const CLIENTS: usize = 4;
    let config = ServerConfig {
        workers: CLIENTS + 1,
        max_concurrent_queries: CLIENTS + 1,
        morsel_rows: 7,
        allow_fault_injection: true,
        ..ServerConfig::default()
    };
    with_server(config, |addr| {
        rayon::Pool::new(CLIENTS)
            .try_par_indexed(CLIENTS, |i| {
                let mut client = Client::connect(addr).expect("connect");
                let scalar = "SELECT COUNT(*) AS n FROM t";
                let grouped = "SELECT a, COUNT(*) AS n FROM t GROUP BY a";
                // 1. Trip the row budget: one error, one row-budget trip.
                client
                    .set(&SetRequest {
                        max_rows: Some(Some(5)),
                        ..SetRequest::default()
                    })
                    .expect("transport")
                    .expect("set");
                let err = client
                    .query(scalar)
                    .expect("transport")
                    .expect_err("budget must trip");
                assert_eq!(err.trip, Some(Trip::RowBudget { limit: 5 }), "client {i}");
                client
                    .set(&SetRequest {
                        max_rows: Some(None),
                        ..SetRequest::default()
                    })
                    .expect("transport")
                    .expect("set");
                // 2. Two sample-route scalars and one hybrid group-by.
                for _ in 0..2 {
                    client.query(scalar).expect("transport").expect("scalar");
                }
                client.query(grouped).expect("transport").expect("grouped");
                // 3. A worker failure confined to the consensus phase: the
                // hybrid degrades to its sample part.
                client
                    .set(&SetRequest {
                        fault: Some(themis_core::FaultPlan::PanicAtMorsel { morsel: 50 }),
                        ..SetRequest::default()
                    })
                    .expect("transport")
                    .expect("set");
                let degraded = client.query(grouped).expect("transport").expect("degraded");
                assert!(
                    matches!(degraded.route, themis_core::Route::Degraded { .. }),
                    "client {i}: {:?}",
                    degraded.route
                );
                client
                    .set(&SetRequest {
                        fault: Some(themis_core::FaultPlan::None),
                        ..SetRequest::default()
                    })
                    .expect("transport")
                    .expect("set");
            })
            .expect("client pool");
        // Every tally is an exact function of the mix above.
        let n = CLIENTS as u64;
        let mut checker = Client::connect(addr).expect("connect");
        let stats = checker.stats().expect("transport").expect("stats");
        let get = |name: &str| stats.get(name).and_then(Json::as_u64);
        assert_eq!(get("server.queries"), Some(5 * n));
        assert_eq!(get("server.errors"), Some(n));
        assert_eq!(get("server.busy_rejections"), Some(0));
        assert_eq!(get("server.active_queries"), Some(0));
        assert_eq!(get("server.connections"), Some(n + 1));
        assert_eq!(get("server.routes.sample"), Some(2 * n));
        assert_eq!(get("server.routes.hybrid"), Some(n));
        assert_eq!(get("server.routes.degraded"), Some(n));
        assert_eq!(get("server.routes.bayes_net"), Some(0));
        assert_eq!(get("server.degrade.worker_failure"), Some(n), "{stats}");
        assert_eq!(get("server.trips.row_budget"), Some(n));
        assert_eq!(get("server.trips.deadline"), Some(0));
        // The latency histogram counted exactly the successful queries.
        let latency = stats.get("server.query_latency_us").expect("latency");
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(4 * n));
    });
}

#[test]
fn blank_lines_are_ignored_keepalives() {
    with_server(ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).expect("connect");
        // A blank line gets no response; the next real request is answered
        // in order — if the server responded to the blank line, this query
        // would read that response and fail to decode an answer from it.
        let response = client
            .roundtrip_raw("\n{\"op\":\"query\",\"sql\":\"SELECT COUNT(*) AS n FROM t\"}")
            .expect("transport");
        assert!(response.contains("\"ok\":true"), "{response}");
    });
}
