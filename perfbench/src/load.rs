//! The load run: an in-process `ThemisServer` driven over real TCP, with
//! every answer checked against an oracle. No per-layer timing happens here.

use crate::inputs::{engine, Inputs, GROUPED_QUERIES, TABLE};
use crate::report::{self, Outcome, RttLog};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use themis_core::{LiveSnapshot, Route, Themis, ThemisSession};
use themis_query::{QueryResult, Value};
use themis_serve::{protocol, Client, ClientError, Json, ServerConfig, ThemisServer, WireAnswer};

/// How often `ingest_live` sends a batch. An ingest keeps one core busy
/// for 0.3–0.7 s (BN parameter learning on the whole grown sample), so a
/// batch every second would leave the reads no core of their own whenever
/// the host takes some of its CPU away; every two seconds, reads and writes
/// still overlap in every period.
pub const INGEST_PERIOD: Duration = Duration::from_secs(2);

/// How long the untimed warm-up runs the workload's query stream.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Requests `point_cached` keeps in flight on its connection. A cached
/// point lookup costs the server about 25 µs; with one request at a time
/// every round trip waits for two thread wake-ups, each of which waits for
/// a vCPU on a shared host, and the loop measures the host's scheduler (a
/// run in which the host stole 29% of the vCPU time lost 60% of its
/// queries). With 8 in flight the server finds the next request in its
/// buffer instead of sleeping.
pub const PIPELINE_DEPTH: usize = 8;

/// The three workloads. See `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection, closed loop, answer cache off: Table 5's grouped
    /// queries, each a sample scan plus K replicate scans.
    GroupbyHybrid,
    /// One connection, closed loop, answer cache on: Zipf point lookups.
    PointCached,
    /// Two connections: `GroupbyHybrid`'s stream beside open-loop ingest,
    /// one batch every [`INGEST_PERIOD`].
    IngestLive,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GroupbyHybrid,
        Workload::PointCached,
        Workload::IngestLive,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GroupbyHybrid => "groupby_hybrid",
            Workload::PointCached => "point_cached",
            Workload::IngestLive => "ingest_live",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections during the timed phase.
    pub fn connections(self) -> usize {
        match self {
            Workload::IngestLive => 2,
            _ => 1,
        }
    }

    /// Query requests in flight on the timed query connection: the grouped
    /// streams ask one query at a time, `point_cached` pipelines.
    pub fn depth(self) -> usize {
        match self {
            Workload::PointCached => PIPELINE_DEPTH,
            _ => 1,
        }
    }

    /// Ingest batches the load run sends: one every [`INGEST_PERIOD`]
    /// beside the queries on `ingest_live`, none on the read-only workloads.
    pub fn batches(self, seconds: u64) -> usize {
        match self {
            Workload::IngestLive => seconds.div_ceil(INGEST_PERIOD.as_secs()) as usize,
            _ => 0,
        }
    }

    /// Answer-cache capacity of the served session.
    pub fn cache_entries(self, inputs: &Inputs) -> Option<usize> {
        match self {
            Workload::PointCached => Some(inputs.scale.cache_entries),
            _ => None,
        }
    }

    /// The SQL of operation `op` of this workload's query stream.
    pub fn sql(self, inputs: &Inputs, op: usize) -> &str {
        match self {
            Workload::PointCached => &inputs.points[op].sql,
            _ => GROUPED_QUERIES[op],
        }
    }

    /// This workload's query stream (indices for [`Workload::sql`]).
    pub fn stream<'a>(self, inputs: &'a Inputs) -> Box<dyn Iterator<Item = usize> + 'a> {
        match self {
            Workload::PointCached => Box::new(inputs.point_stream()),
            _ => Box::new(inputs.grouped_stream()),
        }
    }
}

/// An answer as the oracle knows it: rows and route.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The result rows.
    pub result: QueryResult,
    /// The route that produced them.
    pub route: Route,
}

/// Bit-for-bit equality of two results: labels equal, every number with
/// identical bits.
pub fn same_result(a: &QueryResult, b: &QueryResult) -> bool {
    a.columns == b.columns
        && a.group_arity == b.group_arity
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|(x, y)| {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| match (u, v) {
                    (Value::Str(p), Value::Str(q)) => p == q,
                    (Value::Num(p), Value::Num(q)) => p.to_bits() == q.to_bits(),
                    _ => false,
                })
        })
}

/// Check a wire outcome against its oracle answer.
pub fn check_answer(
    sql: &str,
    outcome: Result<Result<WireAnswer, themis_serve::WireError>, themis_serve::ClientError>,
    expected: Option<&Expected>,
) -> Result<WireAnswer, String> {
    let answer = match outcome {
        Ok(Ok(a)) => a,
        Ok(Err(e)) => return Err(format!("{sql}: server error {}: {}", e.kind, e.message)),
        Err(e) => return Err(format!("{sql}: {e}")),
    };
    if let Some(reason) = answer.route.degraded() {
        return Err(format!("{sql}: degraded ({reason})"));
    }
    if let Some(expected) = expected {
        matches(sql, &answer, expected)?;
    }
    Ok(answer)
}

/// Check a query's wire outcome for `workload`: against its oracle where
/// the workload has one, and on `ingest_live` for a hybrid route, since the
/// world grows under the queries.
fn check_query(
    workload: Workload,
    sql: &str,
    outcome: Result<Result<WireAnswer, themis_serve::WireError>, themis_serve::ClientError>,
    expected: Option<&Expected>,
) -> Result<(), String> {
    check_answer(sql, outcome, expected).and_then(|a| match a.route {
        Route::Hybrid { .. } => Ok(()),
        _ if workload != Workload::IngestLive => Ok(()),
        other => Err(format!("{sql}: expected a hybrid answer, got {other:?}")),
    })
}

/// The served session: the server's engine options, and the answer cache
/// when the workload has one.
pub fn session(model: Themis, cache: Option<usize>) -> ThemisSession {
    let session = ThemisSession::with_engine(model, engine());
    match cache {
        Some(entries) => session.with_answer_cache(entries),
        None => session,
    }
}

/// Server policy for `connections` clients: as many accept workers and
/// admission slots, and the default single engine thread.
pub fn server_config(connections: usize) -> ServerConfig {
    ServerConfig {
        workers: connections,
        max_concurrent_queries: connections,
        ..ServerConfig::default()
    }
}

/// Run `body` against a server bound around `world`, then stop the server
/// and wait for its workers.
pub fn with_server<T>(
    world: Arc<ThemisSession>,
    config: ServerConfig,
    body: impl FnOnce(SocketAddr) -> T,
) -> Result<T, String> {
    let server =
        ThemisServer::bind("127.0.0.1:0", world, config).map_err(|e| format!("bind: {e}"))?;
    let handle = server.handle();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let out = body(addr);
        handle.shutdown();
        match serving.join() {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    })
}

/// The guard on every timed connection: never more connections than
/// hardware threads or accept workers.
fn guard(connections: usize, workers: usize) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if connections > nproc || connections > workers {
        return Err(format!(
            "{connections} connections exceed nproc = {nproc} or workers = {workers}"
        ));
    }
    Ok(())
}

/// Open a timed connection. The guards: [`guard`], and a handshake before
/// timing so the connection is known to be accepted, not parked in the
/// listen backlog.
pub fn connect(addr: SocketAddr, connections: usize, workers: usize) -> Result<Client, String> {
    guard(connections, workers)?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match client.stats() {
        Ok(Ok(_)) => Ok(client),
        Ok(Err(e)) => Err(format!("handshake: {}", e.message)),
        Err(e) => Err(format!("handshake: {e}")),
    }
}

/// The timed query connection: query requests written ahead of their
/// answers, up to the workload's depth, and answers read back in order.
/// At depth 1 this is [`Client::query`] in a loop.
struct Pipeline {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    in_flight: VecDeque<(usize, Instant)>,
}

impl Pipeline {
    /// Open a timed connection, with [`connect`]'s guard and handshake.
    fn connect(addr: SocketAddr, connections: usize, workers: usize) -> Result<Pipeline, String> {
        guard(connections, workers)?;
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("connect: {e}"))?);
        let mut pipeline = Pipeline {
            reader,
            writer,
            in_flight: VecDeque::new(),
        };
        pipeline
            .write_line("{\"op\":\"stats\"}")
            .and_then(|()| pipeline.read_json())
            .map_err(|e| format!("handshake: {e}"))?;
        Ok(pipeline)
    }

    fn write_line(&mut self, line: &str) -> Result<(), ClientError> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        Ok(())
    }

    fn read_json(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        Json::parse(line.trim_end()).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Send query `op` of the stream.
    fn send(&mut self, op: usize, sql: &str) -> Result<(), ClientError> {
        self.write_line(&protocol::request_line("query", sql))?;
        self.in_flight.push_back((op, Instant::now()));
        Ok(())
    }

    /// Read the oldest answer in flight: its op, its round trip in ms from
    /// its send, and the decoded outcome, as [`Client::query`] gives it.
    fn receive(&mut self) -> Option<(usize, f64, themis_serve::Outcome<WireAnswer>)> {
        let (op, sent) = self.in_flight.pop_front()?;
        let outcome = self.read_json().and_then(|j| {
            let decoded = match j.get("ok").and_then(Json::as_bool) {
                Some(true) => protocol::decode_answer(&j).map(Ok),
                Some(false) => protocol::decode_error(&j).map(Err),
                None => Err("response has no boolean \"ok\"".to_string()),
            };
            decoded.map_err(ClientError::Protocol)
        });
        Some((op, sent.elapsed().as_secs_f64() * 1e3, outcome))
    }
}

/// Ask one query on a fresh connection and close it: the set-up's first
/// query, and the final-world probes.
fn ask_once(
    addr: SocketAddr,
    sql: &str,
    expected: Option<&Expected>,
) -> Result<WireAnswer, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    check_answer(sql, client.query(sql), expected)
}

/// In-process answers of `model` on an uncached session of its own, with
/// the server's engine options: the oracle every served answer is held to.
pub fn oracle<'a>(
    model: &Themis,
    sqls: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<Expected>, String> {
    let mirror = session(model.clone(), None);
    sqls.into_iter()
        .map(|sql| {
            mirror
                .sql_with(sql, &engine())
                .map(|a| Expected {
                    result: a.result,
                    route: a.route,
                })
                .map_err(|e| format!("oracle {sql}: {e}"))
        })
        .collect()
}

/// Whether a served answer is its oracle answer, bit for bit.
fn matches(sql: &str, answer: &WireAnswer, expected: &Expected) -> Result<(), String> {
    if answer.route == expected.route && same_result(&answer.result, &expected.result) {
        Ok(())
    } else {
        Err(format!("{sql}: answer differs from its oracle"))
    }
}

/// One cold set-up, timed from inputs in memory to the first answered
/// query over the wire: `Themis::build` (IPF, BN learning), the session and
/// its cache, `ThemisServer::bind`, and the first hybrid query, which
/// simulates the K replicates. `body` then runs untimed against the same
/// server, with the first answer to check.
fn setup<T>(
    inputs: &Inputs,
    cache: Option<usize>,
    connections: usize,
    body: impl FnOnce(SocketAddr, &Arc<ThemisSession>, Result<WireAnswer, String>) -> T,
) -> Result<(f64, T), String> {
    let sample = inputs.sample.clone();
    let aggregates = inputs.aggregates.clone();
    let config = inputs.config.clone();
    let start = Instant::now();
    let model = Themis::build(sample, aggregates, inputs.population_size, config);
    let world = Arc::new(session(model, cache));
    with_server(Arc::clone(&world), server_config(connections), |addr| {
        // A warm-up connection of its own, closed before any timed one
        // opens, so it cannot hold the only accept worker.
        let first = ask_once(addr, GROUPED_QUERIES[0], None);
        let seconds = start.elapsed().as_secs_f64();
        (seconds, body(addr, &world, first))
    })
}

/// What the load run measured.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Failures and attempts.
    pub outcome: Outcome,
    /// Cold set-up times, seconds.
    pub setups: Vec<f64>,
    /// Round-trip times of the timed queries.
    pub query_rtt: RttLog,
    /// Length of the timed query phase, seconds.
    pub phase_s: f64,
    /// Ingest round trips from each batch's scheduled send time, ms.
    pub ingest_ms: Vec<f64>,
    /// How late each batch was sent after its scheduled time, ms.
    pub lateness_ms: Vec<f64>,
    /// VmRSS after the timed phase with all connections closed, MB.
    pub rss_mb: f64,
    /// Mean percent difference of the workload's fixed query set.
    pub answer_error_pct: f64,
    /// The served session's live counters after the timed phase.
    pub live: LiveSnapshot,
}

/// Send ingest batch `i`, due at `due`, and record how late it went out,
/// its round trip from `due`, and whether the server applied it.
fn ingest_batch(
    client: &mut Client,
    inputs: &Inputs,
    i: usize,
    due: Instant,
    report: &mut LoadReport,
) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    report.lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
    let outcome = client.ingest(TABLE, inputs.batch(i));
    report.ingest_ms.push(due.elapsed().as_secs_f64() * 1e3);
    let checked = match outcome {
        // Each run's world starts at generation 0 and only these batches
        // grow it.
        Ok(Ok(r)) if r.rows_added == inputs.batch(i).len() && r.generation == i as u64 + 1 => {
            Ok(())
        }
        Ok(Ok(r)) => Err(format!("batch {i}: unexpected report {r:?}")),
        Ok(Err(e)) => Err(format!("batch {i}: server error {}: {}", e.kind, e.message)),
        Err(e) => Err(format!("batch {i}: {e}")),
    };
    report.outcome.record(checked);
}

/// Mean percent difference (§6.3) of one answer against its truth, over
/// the union of groups, on the first aggregate column.
pub fn result_error(truth: &QueryResult, estimate: &QueryResult) -> f64 {
    let t = truth.to_map();
    let e = estimate.to_map();
    let mut keys: Vec<&Vec<String>> = t.keys().chain(e.keys()).collect();
    keys.sort();
    keys.dedup();
    let total: f64 = keys
        .iter()
        .map(|k| {
            let tv = t.get(*k).map_or(0.0, |v| v[0]);
            let ev = e.get(*k).map_or(0.0, |v| v[0]);
            themis_core::percent_difference(tv, ev)
        })
        .sum();
    report::ratio(total, keys.len() as f64)
}

/// Run the workload's load for `seconds` and check every answer.
pub fn run(workload: Workload, inputs: &Inputs, seconds: u64) -> LoadReport {
    let mut report = LoadReport::default();
    let served = setup(
        inputs,
        workload.cache_entries(inputs),
        workload.connections(),
        |addr, world, first| serve(workload, inputs, seconds, addr, world, first, &mut report),
    );
    match served {
        Ok((s, ())) => report.setups.push(s),
        Err(e) => report.outcome.record(Err(e)),
    }
    // The other set-up samples come after the timed phase, so their garbage
    // stays out of `rss_mb`.
    for _ in 1..inputs.scale.setups {
        cold_setup(workload, inputs, &mut report);
    }
    report
}

/// One more cold set-up sample, its first answer checked against the
/// oracle of its own model.
fn cold_setup(workload: Workload, inputs: &Inputs, report: &mut LoadReport) {
    let cold = setup(
        inputs,
        workload.cache_entries(inputs),
        workload.connections(),
        |_, world, first| {
            let expected = oracle(&world.model(), [GROUPED_QUERIES[0]])?;
            matches(GROUPED_QUERIES[0], &first?, &expected[0])
        },
    );
    match cold {
        Ok((s, checked)) => {
            report.setups.push(s);
            report.outcome.record(checked);
        }
        Err(e) => report.outcome.record(Err(e)),
    }
}

/// Everything after the measured set-up, on the served world.
fn serve(
    workload: Workload,
    inputs: &Inputs,
    seconds: u64,
    addr: SocketAddr,
    world: &Arc<ThemisSession>,
    first: Result<WireAnswer, String>,
    report: &mut LoadReport,
) {
    // The oracle: in-process answers of the served model on a mirror
    // session, computed before timing.
    let model = world.model();
    let grouped = oracle(&model, GROUPED_QUERIES);
    let points = match workload {
        Workload::PointCached => oracle(&model, inputs.points.iter().map(|p| p.sql.as_str())),
        _ => Ok(Vec::new()),
    };
    let (grouped, points) = match (grouped, points) {
        (Ok(g), Ok(p)) => (g, p),
        (Err(e), _) | (_, Err(e)) => return report.outcome.record(Err(e)),
    };
    report
        .outcome
        .record(first.and_then(|a| matches(GROUPED_QUERIES[0], &a, &grouped[0])));
    let oracle_of = |op: usize| match workload {
        Workload::GroupbyHybrid => Some(&grouped[op]),
        Workload::PointCached => Some(&points[op]),
        // The world grows under the queries; the final world is checked
        // against a cold build below.
        Workload::IngestLive => None,
    };

    drop(model);
    warm_up(workload, inputs, addr, &oracle_of, report);
    let before = world.live_snapshot();
    timed_phase(workload, inputs, seconds, addr, &oracle_of, report);
    report.live = live_since(&before, world.live_snapshot());
    match report::rss_mb() {
        Ok(mb) => report.rss_mb = mb,
        Err(e) => report.outcome.record(Err(e)),
    }

    // The fixed query set, once, on the final world.
    let fixed: Vec<(&str, Option<&Expected>)> = match workload {
        Workload::PointCached => inputs
            .points
            .iter()
            .zip(&points)
            .map(|(p, e)| (p.sql.as_str(), Some(e)))
            .collect(),
        Workload::GroupbyHybrid => GROUPED_QUERIES
            .iter()
            .zip(&grouped)
            .map(|(q, e)| (*q, Some(e)))
            .collect(),
        Workload::IngestLive => GROUPED_QUERIES.iter().map(|q| (*q, None)).collect(),
    };
    let finals: Vec<Option<WireAnswer>> = fixed
        .into_iter()
        .map(|(sql, expected)| {
            let answer = ask_once(addr, sql, expected);
            let kept = answer.as_ref().ok().cloned();
            report.outcome.record(answer.map(|_| ()));
            kept
        })
        .collect();
    report.answer_error_pct = answer_error(workload, inputs, &finals);
    if workload == Workload::IngestLive {
        report.outcome.record(check_final_world(
            inputs,
            workload.batches(seconds),
            &world.model(),
            &finals,
        ));
    }
}

/// The warm-up: the workload's query stream for [`WARMUP`] on a connection
/// of its own, every answer checked, closed before a timed connection
/// opens. It brings the served world's memory into use and, on
/// `point_cached`, fills the answer cache, so timing starts in the steady
/// state. It never ingests.
fn warm_up<'o>(
    workload: Workload,
    inputs: &Inputs,
    addr: SocketAddr,
    oracle: &dyn Fn(usize) -> Option<&'o Expected>,
    report: &mut LoadReport,
) {
    let connections = workload.connections();
    let mut client = match connect(addr, connections, server_config(connections).workers) {
        Ok(c) => c,
        Err(e) => return report.outcome.record(Err(e)),
    };
    let start = Instant::now();
    let mut stream = workload.stream(inputs);
    while start.elapsed() < WARMUP {
        let op = stream.next().unwrap_or(0);
        let sql = workload.sql(inputs, op);
        let checked = check_query(workload, sql, client.query(sql), oracle(op));
        report.outcome.record(checked);
    }
}

/// The live counters `after` minus those `before`: what the timed phase
/// did, without the warm-up.
fn live_since(before: &LiveSnapshot, after: LiveSnapshot) -> LiveSnapshot {
    LiveSnapshot {
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_bypasses: after.cache_bypasses - before.cache_bypasses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        cache_invalidations: after.cache_invalidations - before.cache_invalidations,
        ingest_batches: after.ingest_batches - before.ingest_batches,
        ingest_rows: after.ingest_rows - before.ingest_rows,
        replicates_resimulated: after.replicates_resimulated - before.replicates_resimulated,
        replicates_kept: after.replicates_kept - before.replicates_kept,
        ..after
    }
}

/// The timed phase: closed-loop queries on one connection for `seconds`,
/// [`Workload::depth`] of them in flight, and on `ingest_live` open-loop
/// ingest on a second one.
fn timed_phase<'o>(
    workload: Workload,
    inputs: &Inputs,
    seconds: u64,
    addr: SocketAddr,
    oracle: &dyn Fn(usize) -> Option<&'o Expected>,
    report: &mut LoadReport,
) {
    let connections = workload.connections();
    let workers = server_config(connections).workers;
    let batches = workload.batches(seconds);
    let mut queries = match Pipeline::connect(addr, connections, workers) {
        Ok(p) => p,
        Err(e) => return report.outcome.record(Err(e)),
    };
    let mut ingest_client = None;
    if workload == Workload::IngestLive {
        match connect(addr, connections, workers) {
            Ok(c) => ingest_client = Some(c),
            Err(e) => return report.outcome.record(Err(e)),
        }
    }
    let ingest_done = AtomicBool::new(ingest_client.is_none());
    let duration = Duration::from_secs(seconds.max(1));
    let start = Instant::now();
    let mut ingest_report = LoadReport::default();
    let mut query_report = LoadReport::default();
    std::thread::scope(|scope| {
        if let Some(mut client) = ingest_client.take() {
            let ingest_report = &mut ingest_report;
            let ingest_done = &ingest_done;
            scope.spawn(move || {
                for i in 0..batches {
                    let due = start + INGEST_PERIOD * i as u32;
                    ingest_batch(&mut client, inputs, i, due, ingest_report);
                }
                ingest_done.store(true, Ordering::SeqCst);
            });
        }
        let mut stream = workload.stream(inputs);
        loop {
            while queries.in_flight.len() < workload.depth()
                && (start.elapsed() < duration || !ingest_done.load(Ordering::SeqCst))
            {
                let op = stream.next().unwrap_or(0);
                if let Err(e) = queries.send(op, workload.sql(inputs, op)) {
                    query_report.outcome.record(Err(format!("send: {e}")));
                    break;
                }
            }
            let Some((op, ms, outcome)) = queries.receive() else {
                break;
            };
            query_report.query_rtt.record(ms);
            let lost = outcome.is_err();
            let sql = workload.sql(inputs, op);
            query_report
                .outcome
                .record(check_query(workload, sql, outcome, oracle(op)));
            if lost {
                // The connection is broken: the answers still in flight
                // will not come.
                query_report.outcome.attempted += queries.in_flight.len() as u64;
                query_report.outcome.failed += queries.in_flight.len() as u64;
                break;
            }
        }
        query_report.phase_s = start.elapsed().as_secs_f64();
    });
    drop(queries);
    report.query_rtt = query_report.query_rtt;
    report.phase_s = query_report.phase_s;
    report.ingest_ms = ingest_report.ingest_ms;
    report.lateness_ms = ingest_report.lateness_ms;
    for o in [query_report.outcome, ingest_report.outcome] {
        report.outcome.attempted += o.attempted;
        report.outcome.failed += o.failed;
        report.outcome.failures.extend(o.failures);
    }
}

/// Mean percent difference of the final answers against population truth.
fn answer_error(workload: Workload, inputs: &Inputs, finals: &[Option<WireAnswer>]) -> f64 {
    let errors: Vec<f64> = match workload {
        Workload::PointCached => inputs
            .points
            .iter()
            .zip(finals)
            .filter_map(|(p, a)| {
                let estimate = a
                    .as_ref()?
                    .result
                    .rows
                    .first()?
                    .first()
                    .and_then(|v| match v {
                        Value::Num(n) => Some(*n),
                        Value::Str(_) => None,
                    })?;
                Some(themis_core::percent_difference(p.truth, estimate))
            })
            .collect(),
        _ => inputs
            .grouped_truth
            .iter()
            .zip(finals)
            .filter_map(|(truth, a)| Some(result_error(truth, &a.as_ref()?.result)))
            .collect(),
    };
    report::mean(&errors)
}

/// `ingest_live`'s final world must be what a cold `Themis::build` on the
/// grown sample makes, and must serve exactly that model's answers.
fn check_final_world(
    inputs: &Inputs,
    batches: usize,
    model: &Themis,
    finals: &[Option<WireAnswer>],
) -> Result<(), String> {
    crate::layers::verify_cold(inputs, model, inputs.grown_sample(batches))
        .map_err(|e| format!("final world: {e}"))?;
    let expected = oracle(model, GROUPED_QUERIES)?;
    for ((sql, wire), expected) in GROUPED_QUERIES.iter().zip(finals).zip(&expected) {
        let wire = wire
            .as_ref()
            .ok_or_else(|| format!("final world {sql}: no answer"))?;
        matches(sql, wire, expected).map_err(|e| format!("final world: {e}"))?;
    }
    Ok(())
}
