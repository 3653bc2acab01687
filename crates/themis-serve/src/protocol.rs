//! The wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, always in order.
//! Requests are objects with an `"op"` discriminant:
//!
//! | request | shape |
//! |---|---|
//! | query   | `{"op":"query","sql":"SELECT …"}` — add `"trace":true` for a span tree |
//! | explain | `{"op":"explain","sql":"SELECT …"}` |
//! | set     | `{"op":"set","deadline_ms":50,"max_rows":null,…}` |
//! | ingest  | `{"op":"ingest","table":"flights","rows":[["01","FL","NY"],…]}` |
//! | stats   | `{"op":"stats"}` — every server and `live.*` metric, sorted by name |
//!
//! Successful responses are `{"ok":true,"op":…,…}`; failures are
//! `{"ok":false,"error":{"kind":…,"message":…}}` with a structured
//! `"trip"` member on governance trips. Every encoder and decoder lives in
//! this module — the server, the client, the golden tests, and the
//! differential oracle all call the *same* functions, so the wire shape
//! cannot drift between them silently.
//!
//! ## Exactness
//!
//! Result cells are tagged: a group label is `{"s":"1"}`, an aggregate is
//! `{"n":12.5}`. Finite numbers round-trip bit-identically (see
//! [`crate::json`]); the non-finite values JSON cannot spell ride as tagged
//! strings `{"n":"NaN"}`, `{"n":"inf"}`, `{"n":"-inf"}`. This is what the
//! server-vs-session differential suite leans on when it demands the wire
//! answer equal the in-process answer bit for bit.

use crate::json::Json;
use std::time::Duration;
use themis_core::{
    Answer, DegradeReason, EngineOptions, Explain, FaultPlan, IngestReport, QueryTrace, Route,
    RouteKind, ThemisError, TraceSpan,
};
use themis_obs::saturating_micros;
use themis_query::{ExecError, QueryResult, Trip, Value};

/// Whole milliseconds through the same saturating path as
/// [`saturating_micros`] — every duration this module serializes goes
/// through one of these two helpers, so f64 precision loss is impossible
/// by construction at any magnitude.
fn saturating_millis(d: Duration) -> u64 {
    saturating_micros(d) / 1_000
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute SQL with §4.3 routing and return rows + provenance.
    Query {
        /// The SQL text.
        sql: String,
        /// Collect and return a query trace (`"trace":true`). Tracing is
        /// observation-only: the answer stays bit-identical.
        trace: bool,
    },
    /// Return the routing decision without executing.
    Explain {
        /// The SQL text.
        sql: String,
    },
    /// Adjust this connection's engine options.
    Set(SetRequest),
    /// Append labeled rows to the shared world (a new generation; see
    /// [`themis_core::ThemisSession::ingest`]).
    Ingest {
        /// The table the batch is addressed to, echoed in the report (the
        /// session serves its one relation under any `FROM` name).
        table: String,
        /// Rows as domain labels, one `Vec<String>` per row.
        rows: Vec<Vec<String>>,
    },
    /// Return the server's metrics (counters, gauges, latency histogram
    /// summary), sorted by name.
    Stats,
}

/// Largest `threads` a `set` request may ask for. Each scan or probe starts
/// up to that many workers and a join allocates that many partition
/// buckets per build morsel, so a larger value is rejected as malformed
/// and leaves the connection's engine untouched.
pub const MAX_SET_THREADS: u64 = 256;

/// Fields of a `set` request. Each option is three-state: absent (leave as
/// is), `null` (clear), or a value (set). `threads`/`morsel_rows` cannot be
/// cleared, only set; `threads` is at most [`MAX_SET_THREADS`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SetRequest {
    /// Per-query wall-clock deadline in milliseconds.
    pub deadline_ms: Option<Option<u64>>,
    /// Row budget ([`themis_core::Limits::max_rows`]).
    pub max_rows: Option<Option<u64>>,
    /// Group budget ([`themis_core::Limits::max_groups`]).
    pub max_groups: Option<Option<u64>>,
    /// Engine worker threads per query, 1 to [`MAX_SET_THREADS`].
    pub threads: Option<u64>,
    /// Rows per morsel.
    pub morsel_rows: Option<u64>,
    /// Deterministic fault plan (honored only when the server was built
    /// with `allow_fault_injection`).
    pub fault: Option<FaultPlan>,
}

impl SetRequest {
    /// Apply this request to a connection's engine options.
    /// `allow_fault_injection` gates the `fault` member: when false it is
    /// ignored entirely (production servers never run injected faults).
    pub fn apply(&self, engine: &mut EngineOptions, allow_fault_injection: bool) {
        if let Some(deadline) = self.deadline_ms {
            engine.limits.deadline = deadline.map(Duration::from_millis);
        }
        if let Some(rows) = self.max_rows {
            engine.limits.max_rows = rows;
        }
        if let Some(groups) = self.max_groups {
            engine.limits.max_groups = groups.map(|g| g as usize);
        }
        if let Some(threads) = self.threads {
            engine.threads = (threads as usize).max(1);
        }
        if let Some(morsel_rows) = self.morsel_rows {
            engine.morsel_rows = (morsel_rows as usize).max(1);
        }
        if allow_fault_injection {
            if let Some(fault) = &self.fault {
                engine.fault_plan = fault.clone();
            }
        }
    }
}

/// Parse one request line (already JSON-decoded). `Err` carries the message
/// for a `malformed` error response.
pub fn parse_request(j: &Json) -> Result<Request, String> {
    let op = j
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "request must be an object with a string \"op\"".to_string())?;
    match op {
        "query" | "explain" => {
            let sql = j
                .get("sql")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("\"{op}\" request needs a string \"sql\""))?
                .to_string();
            Ok(if op == "query" {
                let trace = match j.get("trace") {
                    None => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or_else(|| "\"trace\" must be a boolean".to_string())?,
                };
                Request::Query { sql, trace }
            } else {
                Request::Explain { sql }
            })
        }
        "set" => Ok(Request::Set(parse_set(j)?)),
        "ingest" => {
            let table = j
                .get("table")
                .and_then(Json::as_str)
                .ok_or_else(|| "\"ingest\" request needs a string \"table\"".to_string())?
                .to_string();
            let rows = j
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| "\"ingest\" request needs an array \"rows\"".to_string())?
                .iter()
                .map(|row| {
                    row.as_arr()
                        .ok_or_else(|| "each ingest row must be an array".to_string())?
                        .iter()
                        .map(|cell| {
                            cell.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| "ingest cells must be strings".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Request::Ingest { table, rows })
        }
        "stats" => Ok(Request::Stats),
        other => Err(format!("unknown op \"{other}\"")),
    }
}

/// Three-state option: absent / `null` / non-negative integer.
fn tristate(j: &Json, key: &str) -> Result<Option<Option<u64>>, String> {
    match j.get(key) {
        None => Ok(None),
        Some(Json::Null) => Ok(Some(None)),
        Some(v) => v
            .as_u64()
            .map(|n| Some(Some(n)))
            .ok_or_else(|| format!("\"{key}\" must be null or a non-negative integer")),
    }
}

fn parse_set(j: &Json) -> Result<SetRequest, String> {
    let mut set = SetRequest {
        deadline_ms: tristate(j, "deadline_ms")?,
        max_rows: tristate(j, "max_rows")?,
        max_groups: tristate(j, "max_groups")?,
        threads: None,
        morsel_rows: None,
        fault: None,
    };
    if let Some(v) = j.get("threads") {
        set.threads = Some(
            v.as_u64()
                .filter(|n| (1..=MAX_SET_THREADS).contains(n))
                .ok_or_else(|| {
                    format!("\"threads\" must be an integer from 1 to {MAX_SET_THREADS}")
                })?,
        );
    }
    if let Some(v) = j.get("morsel_rows") {
        set.morsel_rows = Some(
            v.as_u64()
                .filter(|&n| n >= 1)
                .ok_or_else(|| "\"morsel_rows\" must be a positive integer".to_string())?,
        );
    }
    if let Some(f) = j.get("fault") {
        set.fault = Some(parse_fault(f)?);
    }
    Ok(set)
}

fn parse_fault(j: &Json) -> Result<FaultPlan, String> {
    if j.is_null() {
        return Ok(FaultPlan::None);
    }
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "\"fault\" must be null or an object with a string \"kind\"".to_string())?;
    let morsel = |j: &Json| {
        j.get("morsel")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("fault \"{kind}\" needs an integer \"morsel\""))
    };
    match kind {
        "none" => Ok(FaultPlan::None),
        "slow_morsel" => Ok(FaultPlan::SlowMorsel {
            morsel: morsel(j)?,
            delay: Duration::from_millis(
                j.get("delay_ms")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "fault \"slow_morsel\" needs an integer \"delay_ms\"".to_string())?,
            ),
        }),
        "panic_at_morsel" => Ok(FaultPlan::PanicAtMorsel { morsel: morsel(j)? }),
        "budget_exhaust" => Ok(FaultPlan::BudgetExhaust),
        other => Err(format!("unknown fault kind \"{other}\"")),
    }
}

// ---------------------------------------------------------------------------
// Encoding: answers, explains, errors.
// ---------------------------------------------------------------------------

/// Encode one result cell. Labels are `{"s":…}`; numbers are `{"n":…}` with
/// the non-finite values JSON cannot spell as tagged strings.
pub fn cell_to_json(v: &Value) -> Json {
    match v {
        Value::Str(s) => Json::Obj(vec![("s".to_string(), Json::Str(s.clone()))]),
        Value::Num(n) if n.is_finite() => Json::Obj(vec![("n".to_string(), Json::Num(*n))]),
        Value::Num(n) => {
            let tag = if n.is_nan() {
                "NaN"
            } else if *n > 0.0 {
                "inf"
            } else {
                "-inf"
            };
            Json::Obj(vec![("n".to_string(), Json::Str(tag.to_string()))])
        }
    }
}

/// Decode one result cell (inverse of [`cell_to_json`]).
pub fn cell_from_json(j: &Json) -> Result<Value, String> {
    if let Some(s) = j.get("s").and_then(Json::as_str) {
        return Ok(Value::Str(s.to_string()));
    }
    match j.get("n") {
        Some(Json::Num(n)) => Ok(Value::Num(*n)),
        Some(Json::Str(tag)) => match tag.as_str() {
            "NaN" => Ok(Value::Num(f64::NAN)),
            "inf" => Ok(Value::Num(f64::INFINITY)),
            "-inf" => Ok(Value::Num(f64::NEG_INFINITY)),
            other => Err(format!("unknown numeric tag \"{other}\"")),
        },
        _ => Err("cell must be {\"s\":…} or {\"n\":…}".to_string()),
    }
}

fn route_kind_str(kind: RouteKind) -> &'static str {
    match kind {
        RouteKind::Sample => "sample",
        RouteKind::BayesNet => "bayes_net",
        RouteKind::Hybrid => "hybrid",
    }
}

fn route_kind_from_str(s: &str) -> Result<RouteKind, String> {
    match s {
        "sample" => Ok(RouteKind::Sample),
        "bayes_net" => Ok(RouteKind::BayesNet),
        "hybrid" => Ok(RouteKind::Hybrid),
        other => Err(format!("unknown route kind \"{other}\"")),
    }
}

/// The wire spelling of a [`DegradeReason`].
pub fn degrade_reason_str(reason: DegradeReason) -> &'static str {
    match reason {
        DegradeReason::DeadlineExceeded => "deadline_exceeded",
        DegradeReason::RowBudgetExceeded => "row_budget_exceeded",
        DegradeReason::GroupBudgetExceeded => "group_budget_exceeded",
        DegradeReason::WorkerFailure => "worker_failure",
    }
}

fn degrade_reason_from_str(s: &str) -> Result<DegradeReason, String> {
    match s {
        "deadline_exceeded" => Ok(DegradeReason::DeadlineExceeded),
        "row_budget_exceeded" => Ok(DegradeReason::RowBudgetExceeded),
        "group_budget_exceeded" => Ok(DegradeReason::GroupBudgetExceeded),
        "worker_failure" => Ok(DegradeReason::WorkerFailure),
        other => Err(format!("unknown degrade reason \"{other}\"")),
    }
}

/// Encode the route provenance stamp.
pub fn route_to_json(route: &Route) -> Json {
    let kind = |k: &str| ("kind".to_string(), Json::Str(k.to_string()));
    match route {
        Route::Sample => Json::Obj(vec![kind("sample")]),
        Route::BayesNet { k_agreed } => Json::Obj(vec![
            kind("bayes_net"),
            ("k_agreed".to_string(), Json::Num(*k_agreed as f64)),
        ]),
        Route::Hybrid {
            sample_groups,
            bn_groups_added,
        } => Json::Obj(vec![
            kind("hybrid"),
            ("sample_groups".to_string(), Json::Num(*sample_groups as f64)),
            (
                "bn_groups_added".to_string(),
                Json::Num(*bn_groups_added as f64),
            ),
        ]),
        Route::Degraded { planned, reason } => Json::Obj(vec![
            kind("degraded"),
            (
                "planned".to_string(),
                Json::Str(route_kind_str(*planned).to_string()),
            ),
            (
                "reason".to_string(),
                Json::Str(degrade_reason_str(*reason).to_string()),
            ),
        ]),
    }
}

/// Decode a route stamp (inverse of [`route_to_json`]).
pub fn route_from_json(j: &Json) -> Result<Route, String> {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "route must have a string \"kind\"".to_string())?;
    let field = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("route \"{kind}\" needs an integer \"{key}\""))
    };
    match kind {
        "sample" => Ok(Route::Sample),
        "bayes_net" => Ok(Route::BayesNet {
            k_agreed: field("k_agreed")?,
        }),
        "hybrid" => Ok(Route::Hybrid {
            sample_groups: field("sample_groups")?,
            bn_groups_added: field("bn_groups_added")?,
        }),
        "degraded" => Ok(Route::Degraded {
            planned: route_kind_from_str(
                j.get("planned")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "degraded route needs a string \"planned\"".to_string())?,
            )?,
            reason: degrade_reason_from_str(
                j.get("reason")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "degraded route needs a string \"reason\"".to_string())?,
            )?,
        }),
        other => Err(format!("unknown route kind \"{other}\"")),
    }
}

/// Encode a successful `query` response.
pub fn answer_body(answer: &Answer) -> Json {
    answer_body_with_trace(answer, None)
}

/// Encode a successful `query` response, appending a `"trace"` member when
/// the request asked for one. The untraced body is byte-identical to
/// [`answer_body`]: tracing only ever *adds* the final key.
pub fn answer_body_with_trace(answer: &Answer, trace: Option<&QueryTrace>) -> Json {
    let rows = answer
        .result
        .rows
        .iter()
        .map(|row| Json::Arr(row.iter().map(cell_to_json).collect()))
        .collect();
    let mut body = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str("query".to_string())),
        (
            "columns".to_string(),
            Json::Arr(
                answer
                    .result
                    .columns
                    .iter()
                    .map(|c| Json::Str(c.clone()))
                    .collect(),
            ),
        ),
        (
            "group_arity".to_string(),
            Json::Num(answer.result.group_arity as f64),
        ),
        ("rows".to_string(), Json::Arr(rows)),
        ("route".to_string(), route_to_json(&answer.route)),
        (
            "elapsed_us".to_string(),
            Json::Num(saturating_micros(answer.elapsed) as f64),
        ),
    ];
    if let Some(trace) = trace {
        body.push(("trace".to_string(), trace_to_json(trace)));
    }
    Json::Obj(body)
}

/// Encode a [`QueryTrace`] as an array of span objects. Key order within a
/// span is fixed (`name`, `elapsed_us`, `counters`, `notes`, `children`)
/// and empty members are omitted; counters and notes are already sorted by
/// key when a span closes, so the serialization is deterministic — the
/// only wall-clock-dependent fields carry the `_us` suffix the golden
/// normalizer zeroes.
pub fn trace_to_json(trace: &QueryTrace) -> Json {
    Json::Arr(trace.spans.iter().map(span_to_json).collect())
}

fn span_to_json(span: &TraceSpan) -> Json {
    let mut obj = vec![
        ("name".to_string(), Json::Str(span.name.clone())),
        (
            "elapsed_us".to_string(),
            Json::Num(span.elapsed_us as f64),
        ),
    ];
    if !span.counters.is_empty() {
        obj.push((
            "counters".to_string(),
            Json::Obj(
                span.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                    .collect(),
            ),
        ));
    }
    if !span.notes.is_empty() {
        obj.push((
            "notes".to_string(),
            Json::Obj(
                span.notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    if !span.children.is_empty() {
        obj.push((
            "children".to_string(),
            Json::Arr(span.children.iter().map(span_to_json).collect()),
        ));
    }
    Json::Obj(obj)
}

/// Decode a trace (inverse of [`trace_to_json`]).
pub fn trace_from_json(j: &Json) -> Result<QueryTrace, String> {
    let spans = j
        .as_arr()
        .ok_or_else(|| "trace must be an array of spans".to_string())?
        .iter()
        .map(span_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(QueryTrace { spans })
}

fn span_from_json(j: &Json) -> Result<TraceSpan, String> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| "span needs a string \"name\"".to_string())?
        .to_string();
    let elapsed_us = j
        .get("elapsed_us")
        .and_then(Json::as_u64)
        .ok_or_else(|| "span needs an integer \"elapsed_us\"".to_string())?;
    let counters = match j.get("counters") {
        None => Vec::new(),
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("counter \"{k}\" must be a non-negative integer"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("\"counters\" must be an object".to_string()),
    };
    let notes = match j.get("notes") {
        None => Vec::new(),
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("note \"{k}\" must be a string"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("\"notes\" must be an object".to_string()),
    };
    let children = match j.get("children") {
        None => Vec::new(),
        Some(v) => v
            .as_arr()
            .ok_or_else(|| "\"children\" must be an array".to_string())?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok(TraceSpan {
        name,
        elapsed_us,
        counters,
        notes,
        children,
    })
}

/// A `query` response decoded back into the session's own [`Answer`] —
/// what the differential suite compares against the in-process oracle. Its
/// `elapsed` is the server-measured execution time (informational; never
/// compared).
pub type WireAnswer = Answer;

/// Decode a successful `query` response (inverse of [`answer_body`]).
pub fn decode_answer(j: &Json) -> Result<WireAnswer, String> {
    let columns = j
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or_else(|| "answer needs \"columns\"".to_string())?
        .iter()
        .map(|c| {
            c.as_str()
                .map(str::to_string)
                .ok_or_else(|| "column names must be strings".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let rows = j
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| "answer needs \"rows\"".to_string())?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| "each row must be an array".to_string())?
                .iter()
                .map(cell_from_json)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let group_arity = j
        .get("group_arity")
        .and_then(Json::as_u64)
        .ok_or_else(|| "answer needs \"group_arity\"".to_string())? as usize;
    let route = route_from_json(
        j.get("route")
            .ok_or_else(|| "answer needs \"route\"".to_string())?,
    )?;
    let elapsed = Duration::from_micros(
        j.get("elapsed_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| "answer needs \"elapsed_us\"".to_string())?,
    );
    Ok(Answer {
        result: QueryResult {
            columns,
            rows,
            group_arity,
        },
        route,
        elapsed,
    })
}

/// Encode a successful `explain` response. `"cached"` mirrors
/// [`Explain::cached`]: `null` when no cache opinion applies (cache off or
/// bypass), else whether the answer would be served from cache right now.
pub fn explain_body(explain: &Explain) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str("explain".to_string())),
        (
            "route".to_string(),
            Json::Str(route_kind_str(explain.route).to_string()),
        ),
        ("reason".to_string(), Json::Str(explain.reason.clone())),
        (
            "degrades_to".to_string(),
            match explain.degrades_to {
                Some(kind) => Json::Str(route_kind_str(kind).to_string()),
                None => Json::Null,
            },
        ),
        (
            "cached".to_string(),
            match explain.cached {
                Some(hit) => Json::Bool(hit),
                None => Json::Null,
            },
        ),
    ])
}

/// Decode an `explain` response (inverse of [`explain_body`]). A missing
/// `"cached"` member decodes as `None`, so pre-cache responses still parse.
pub fn decode_explain(j: &Json) -> Result<Explain, String> {
    Ok(Explain {
        route: route_kind_from_str(
            j.get("route")
                .and_then(Json::as_str)
                .ok_or_else(|| "explain needs a string \"route\"".to_string())?,
        )?,
        reason: j
            .get("reason")
            .and_then(Json::as_str)
            .ok_or_else(|| "explain needs a string \"reason\"".to_string())?
            .to_string(),
        degrades_to: match j.get("degrades_to") {
            None | Some(Json::Null) => None,
            Some(v) => Some(route_kind_from_str(v.as_str().ok_or_else(|| {
                "\"degrades_to\" must be null or a route kind".to_string()
            })?)?),
        },
        cached: match j.get("cached") {
            None | Some(Json::Null) => None,
            Some(Json::Bool(b)) => Some(*b),
            Some(_) => return Err("\"cached\" must be null or a boolean".to_string()),
        },
    })
}

/// Encode a successful `ingest` response: the [`IngestReport`] verbatim.
pub fn ingest_body(report: &IngestReport) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str("ingest".to_string())),
        ("table".to_string(), Json::Str(report.table.clone())),
        (
            "rows_added".to_string(),
            Json::Num(report.rows_added as f64),
        ),
        (
            "sample_rows".to_string(),
            Json::Num(report.sample_rows as f64),
        ),
        (
            "generation".to_string(),
            Json::Num(report.generation as f64),
        ),
        ("bn_moved".to_string(), Json::Bool(report.bn_moved)),
        (
            "replicates_kept".to_string(),
            Json::Num(report.replicates_kept as f64),
        ),
        (
            "cache_entries_dropped".to_string(),
            Json::Num(report.cache_entries_dropped as f64),
        ),
    ])
}

/// Decode an `ingest` response (inverse of [`ingest_body`]).
pub fn decode_ingest(j: &Json) -> Result<IngestReport, String> {
    let num = |key: &str| {
        j.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("ingest report needs an integer \"{key}\""))
    };
    Ok(IngestReport {
        table: j
            .get("table")
            .and_then(Json::as_str)
            .ok_or_else(|| "ingest report needs a string \"table\"".to_string())?
            .to_string(),
        rows_added: num("rows_added")? as usize,
        sample_rows: num("sample_rows")? as usize,
        generation: num("generation")?,
        bn_moved: match j.get("bn_moved") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("ingest report needs a boolean \"bn_moved\"".to_string()),
        },
        replicates_kept: num("replicates_kept")? as usize,
        cache_entries_dropped: num("cache_entries_dropped")? as usize,
    })
}

/// Encode an `ingest` request line (inverse of the parsing in
/// [`parse_request`]).
pub fn ingest_to_json(table: &str, rows: &[Vec<String>]) -> Json {
    Json::Obj(vec![
        ("op".to_string(), Json::Str("ingest".to_string())),
        ("table".to_string(), Json::Str(table.to_string())),
        (
            "rows".to_string(),
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::Arr(row.iter().map(|cell| Json::Str(cell.clone())).collect())
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encode a successful `set` response: echo the connection's effective
/// engine options so clients can confirm what they negotiated.
pub fn set_body(engine: &EngineOptions) -> Json {
    let opt_num = |v: Option<u64>| match v {
        Some(n) => Json::Num(n as f64),
        None => Json::Null,
    };
    let fault = match &engine.fault_plan {
        FaultPlan::None => "none",
        FaultPlan::SlowMorsel { .. } => "slow_morsel",
        FaultPlan::PanicAtMorsel { .. } => "panic_at_morsel",
        FaultPlan::BudgetExhaust => "budget_exhaust",
    };
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::Str("set".to_string())),
        (
            "engine".to_string(),
            Json::Obj(vec![
                ("threads".to_string(), Json::Num(engine.threads as f64)),
                (
                    "morsel_rows".to_string(),
                    Json::Num(engine.morsel_rows as f64),
                ),
                (
                    "deadline_ms".to_string(),
                    opt_num(engine.limits.deadline.map(saturating_millis)),
                ),
                ("max_rows".to_string(), opt_num(engine.limits.max_rows)),
                (
                    "max_groups".to_string(),
                    opt_num(engine.limits.max_groups.map(|g| g as u64)),
                ),
                ("fault".to_string(), Json::Str(fault.to_string())),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// The wire spelling of a [`Trip`].
pub fn trip_to_json(trip: &Trip) -> Json {
    let kind = |k: &str| ("kind".to_string(), Json::Str(k.to_string()));
    match trip {
        Trip::Deadline => Json::Obj(vec![kind("deadline")]),
        Trip::Cancelled => Json::Obj(vec![kind("cancelled")]),
        Trip::RowBudget { limit } => Json::Obj(vec![
            kind("row_budget"),
            ("limit".to_string(), Json::Num(*limit as f64)),
        ]),
        Trip::GroupBudget { limit } => Json::Obj(vec![
            kind("group_budget"),
            ("limit".to_string(), Json::Num(*limit as f64)),
        ]),
    }
}

/// Decode a trip (inverse of [`trip_to_json`]).
pub fn trip_from_json(j: &Json) -> Result<Trip, String> {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| "trip must have a string \"kind\"".to_string())?;
    let limit = || {
        j.get("limit")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("trip \"{kind}\" needs an integer \"limit\""))
    };
    match kind {
        "deadline" => Ok(Trip::Deadline),
        "cancelled" => Ok(Trip::Cancelled),
        "row_budget" => Ok(Trip::RowBudget { limit: limit()? }),
        "group_budget" => Ok(Trip::GroupBudget {
            limit: limit()? as usize,
        }),
        other => Err(format!("unknown trip kind \"{other}\"")),
    }
}

/// Build an error response from a kind, message, and optional structured
/// trip. The server-level kinds (`malformed`, `oversized`, `busy`) and the
/// engine-level kinds (from [`themis_error_body`]) share this one shape.
pub fn error_body(kind: &str, message: &str, trip: Option<&Trip>) -> Json {
    let mut error = vec![
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("message".to_string(), Json::Str(message.to_string())),
    ];
    if let Some(t) = trip {
        error.push(("trip".to_string(), trip_to_json(t)));
    }
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Obj(error)),
    ])
}

/// Encode a [`ThemisError`] as an error response. The differential suite
/// calls this on the oracle's error and compares the resulting JSON against
/// the server's response verbatim.
pub fn themis_error_body(err: &ThemisError) -> Json {
    let message = err.to_string();
    match err {
        ThemisError::Exec(e) => {
            let kind = match e {
                ExecError::UnknownTable(_) => "unknown_table",
                ExecError::UnknownColumn(_) => "unknown_column",
                ExecError::Unsupported(_) => "unsupported",
                ExecError::Parse(_) => "parse",
                ExecError::Governed(_) => "governed",
                ExecError::Internal(_) => "internal",
            };
            let trip = match e {
                ExecError::Governed(t) => Some(t),
                _ => None,
            };
            error_body(kind, &message, trip)
        }
        ThemisError::NoBayesNet => error_body("no_bayes_net", &message, None),
        ThemisError::Ingest(_) => error_body("ingest", &message, None),
        // Model-construction errors cannot occur at query time; encode them
        // as internal so the protocol stays total over the error type.
        ThemisError::NoSamples | ThemisError::SchemaMismatch { .. } => {
            error_body("internal", &message, None)
        }
    }
}

/// An error response decoded back into structured form.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// The error kind discriminant (`"parse"`, `"governed"`, `"busy"`, …).
    pub kind: String,
    /// Human-readable message.
    pub message: String,
    /// The structured trip, on `"governed"` errors.
    pub trip: Option<Trip>,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// Decode an error response (inverse of [`error_body`]).
pub fn decode_error(j: &Json) -> Result<WireError, String> {
    let error = j
        .get("error")
        .ok_or_else(|| "error response needs an \"error\" object".to_string())?;
    Ok(WireError {
        kind: error
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "error needs a string \"kind\"".to_string())?
            .to_string(),
        message: error
            .get("message")
            .and_then(Json::as_str)
            .ok_or_else(|| "error needs a string \"message\"".to_string())?
            .to_string(),
        trip: match error.get("trip") {
            None => None,
            Some(t) => Some(trip_from_json(t)?),
        },
    })
}

/// Encode a [`SetRequest`] as a `set` request object (inverse of the
/// parsing in [`parse_request`]).
pub fn set_to_json(set: &SetRequest) -> Json {
    let mut pairs = vec![("op".to_string(), Json::Str("set".to_string()))];
    let tristate = |v: Option<u64>| match v {
        Some(n) => Json::Num(n as f64),
        None => Json::Null,
    };
    for (key, value) in [
        ("deadline_ms", set.deadline_ms),
        ("max_rows", set.max_rows),
        ("max_groups", set.max_groups),
    ] {
        if let Some(v) = value {
            pairs.push((key.to_string(), tristate(v)));
        }
    }
    for (key, value) in [("threads", set.threads), ("morsel_rows", set.morsel_rows)] {
        if let Some(n) = value {
            pairs.push((key.to_string(), Json::Num(n as f64)));
        }
    }
    if let Some(fault) = &set.fault {
        let kind = |k: &str, mut extra: Vec<(String, Json)>| {
            let mut obj = vec![("kind".to_string(), Json::Str(k.to_string()))];
            obj.append(&mut extra);
            Json::Obj(obj)
        };
        pairs.push((
            "fault".to_string(),
            match fault {
                FaultPlan::None => Json::Null,
                FaultPlan::SlowMorsel { morsel, delay } => kind(
                    "slow_morsel",
                    vec![
                        ("morsel".to_string(), Json::Num(*morsel as f64)),
                        (
                            "delay_ms".to_string(),
                            Json::Num(saturating_millis(*delay) as f64),
                        ),
                    ],
                ),
                FaultPlan::PanicAtMorsel { morsel } => kind(
                    "panic_at_morsel",
                    vec![("morsel".to_string(), Json::Num(*morsel as f64))],
                ),
                FaultPlan::BudgetExhaust => kind("budget_exhaust", Vec::new()),
            },
        ));
    }
    Json::Obj(pairs)
}

/// Build a request line for a `query` or `explain` op.
pub fn request_line(op: &str, sql: &str) -> String {
    Json::Obj(vec![
        ("op".to_string(), Json::Str(op.to_string())),
        ("sql".to_string(), Json::Str(sql.to_string())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_reject() {
        let q = Json::parse(r#"{"op":"query","sql":"SELECT COUNT(*) AS n FROM t"}"#).unwrap();
        assert_eq!(
            parse_request(&q).unwrap(),
            Request::Query {
                sql: "SELECT COUNT(*) AS n FROM t".to_string(),
                trace: false,
            }
        );
        let traced =
            Json::parse(r#"{"op":"query","sql":"SELECT COUNT(*) AS n FROM t","trace":true}"#)
                .unwrap();
        assert!(matches!(
            parse_request(&traced),
            Ok(Request::Query { trace: true, .. })
        ));
        assert!(parse_request(
            &Json::parse(r#"{"op":"query","sql":"SELECT 1","trace":1}"#).unwrap()
        )
        .is_err());
        let e = Json::parse(r#"{"op":"explain","sql":"SELECT 1"}"#).unwrap();
        assert!(matches!(parse_request(&e), Ok(Request::Explain { .. })));
        assert!(matches!(
            parse_request(&Json::parse(r#"{"op":"stats"}"#).unwrap()),
            Ok(Request::Stats)
        ));
        for bad in [
            r#"{"sql":"x"}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","sql":7}"#,
            r#"{"op":"warp"}"#,
            r#"[1,2]"#,
        ] {
            assert!(parse_request(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
        // The registry is served by `stats`; there is no second export.
        assert_eq!(
            parse_request(&Json::parse(r#"{"op":"metrics"}"#).unwrap()),
            Err("unknown op \"metrics\"".to_string())
        );
    }

    #[test]
    fn set_requests_apply_tristate_fields() {
        let j = Json::parse(
            r#"{"op":"set","deadline_ms":50,"max_rows":null,"threads":2,"morsel_rows":7,
                "fault":{"kind":"panic_at_morsel","morsel":3}}"#,
        )
        .unwrap();
        let Request::Set(set) = parse_request(&j).unwrap() else {
            panic!("not a set request");
        };
        let mut engine = EngineOptions {
            threads: 1,
            morsel_rows: 2048,
            ..EngineOptions::default()
        };
        engine.limits.max_rows = Some(9);
        set.apply(&mut engine, true);
        assert_eq!(engine.limits.deadline, Some(Duration::from_millis(50)));
        assert_eq!(engine.limits.max_rows, None); // null cleared it
        assert_eq!(engine.limits.max_groups, None); // absent left it alone
        assert_eq!((engine.threads, engine.morsel_rows), (2, 7));
        assert_eq!(engine.fault_plan, FaultPlan::PanicAtMorsel { morsel: 3 });

        // Fault plans are ignored unless the server allows injection.
        let mut hardened = EngineOptions::default();
        set.apply(&mut hardened, false);
        assert_eq!(hardened.fault_plan, FaultPlan::None);

        for bad in [
            r#"{"op":"set","deadline_ms":-1}"#,
            r#"{"op":"set","threads":0}"#,
            r#"{"op":"set","threads":null}"#,
            r#"{"op":"set","fault":{"kind":"warp"}}"#,
            r#"{"op":"set","fault":{"kind":"slow_morsel","morsel":1}}"#,
            r#"{"op":"set","fault":7}"#,
        ] {
            assert!(parse_request(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
        let clear = Json::parse(r#"{"op":"set","fault":null}"#).unwrap();
        let Request::Set(set) = parse_request(&clear).unwrap() else {
            panic!("not a set request");
        };
        assert_eq!(set.fault, Some(FaultPlan::None));
    }

    #[test]
    fn set_threads_stop_at_the_ceiling() {
        let parse = |threads: u64| {
            parse_request(&Json::parse(&format!(r#"{{"op":"set","threads":{threads}}}"#)).unwrap())
        };
        let Ok(Request::Set(set)) = parse(MAX_SET_THREADS) else {
            panic!("the ceiling itself is a valid thread count");
        };
        // Applying only records the count; no worker starts here.
        let mut engine = EngineOptions::with_threads(1);
        set.apply(&mut engine, false);
        assert_eq!(engine.threads, MAX_SET_THREADS as usize);
        for over in [MAX_SET_THREADS + 1, 1 << 40] {
            let message = parse(over).unwrap_err();
            assert_eq!(message, "\"threads\" must be an integer from 1 to 256");
        }
    }

    #[test]
    fn set_requests_roundtrip_through_encoding() {
        for set in [
            SetRequest {
                deadline_ms: Some(Some(50)),
                max_rows: Some(None),
                max_groups: None,
                threads: Some(2),
                morsel_rows: None,
                fault: Some(FaultPlan::SlowMorsel {
                    morsel: 1,
                    delay: Duration::from_millis(9),
                }),
            },
            SetRequest {
                fault: Some(FaultPlan::None),
                ..SetRequest::default()
            },
            SetRequest::default(),
        ] {
            let j = Json::parse(&set_to_json(&set).to_string()).unwrap();
            let Request::Set(back) = parse_request(&j).unwrap() else {
                panic!("not a set request");
            };
            assert_eq!(back, set);
        }
    }

    #[test]
    fn cells_roundtrip_including_non_finite() {
        for v in [
            Value::Str("label".to_string()),
            Value::Num(0.0),
            Value::Num(-2.5),
            Value::Num(f64::INFINITY),
            Value::Num(f64::NEG_INFINITY),
        ] {
            let back = cell_from_json(&cell_to_json(&v)).unwrap();
            assert_eq!(back, v);
        }
        // NaN != NaN under PartialEq; check the bits instead.
        let Value::Num(nan) = cell_from_json(&cell_to_json(&Value::Num(f64::NAN))).unwrap()
        else {
            panic!("not a number");
        };
        assert!(nan.is_nan());
        assert!(cell_from_json(&Json::parse(r#"{"n":"wat"}"#).unwrap()).is_err());
        assert!(cell_from_json(&Json::parse(r#"{"x":1}"#).unwrap()).is_err());
    }

    #[test]
    fn routes_roundtrip() {
        for route in [
            Route::Sample,
            Route::BayesNet { k_agreed: 25 },
            Route::Hybrid {
                sample_groups: 4,
                bn_groups_added: 2,
            },
            Route::Degraded {
                planned: RouteKind::Hybrid,
                reason: DegradeReason::WorkerFailure,
            },
            Route::Degraded {
                planned: RouteKind::BayesNet,
                reason: DegradeReason::DeadlineExceeded,
            },
        ] {
            assert_eq!(route_from_json(&route_to_json(&route)).unwrap(), route);
        }
        assert!(route_from_json(&Json::parse(r#"{"kind":"warp"}"#).unwrap()).is_err());
    }

    #[test]
    fn trips_and_errors_roundtrip() {
        for trip in [
            Trip::Deadline,
            Trip::Cancelled,
            Trip::RowBudget { limit: 100 },
            Trip::GroupBudget { limit: 8 },
        ] {
            assert_eq!(trip_from_json(&trip_to_json(&trip)).unwrap(), trip);
            let err = ThemisError::Exec(ExecError::Governed(trip));
            let wire = decode_error(&themis_error_body(&err)).unwrap();
            assert_eq!(wire.kind, "governed");
            assert_eq!(wire.trip, Some(trip));
        }
        let wire =
            decode_error(&themis_error_body(&ThemisError::Exec(ExecError::Parse(
                "near 'FROM'".to_string(),
            ))))
            .unwrap();
        assert_eq!((wire.kind.as_str(), wire.trip), ("parse", None));
        assert_eq!(wire.message, "near 'FROM'");
        let busy = decode_error(&error_body("busy", "server at capacity", None)).unwrap();
        assert_eq!(busy.to_string(), "busy: server at capacity");
    }

    #[test]
    fn answers_roundtrip_bit_identically() {
        let answer = Answer {
            result: QueryResult {
                columns: vec!["a".to_string(), "n".to_string()],
                rows: vec![
                    vec![Value::Str("0".to_string()), Value::Num(0.1 + 0.2)],
                    vec![Value::Str("1".to_string()), Value::Num(f64::MAX)],
                ],
                group_arity: 1,
            },
            route: Route::Hybrid {
                sample_groups: 2,
                bn_groups_added: 0,
            },
            elapsed: Duration::from_micros(1234),
        };
        let body = answer_body(&answer);
        let reparsed = Json::parse(&body.to_string()).unwrap();
        let wire = decode_answer(&reparsed).unwrap();
        assert_eq!(wire.result, answer.result);
        assert_eq!(wire.route, answer.route);
        assert_eq!(wire.elapsed, answer.elapsed);
        // Bit-level: 0.1 + 0.2 is not 0.3; the wire must preserve that.
        assert_eq!(
            wire.result.rows[0][1],
            Value::Num(0.30000000000000004),
        );
    }

    #[test]
    fn traces_roundtrip_and_only_extend_the_answer() {
        let trace = QueryTrace {
            spans: vec![TraceSpan {
                name: "query".to_string(),
                elapsed_us: 120,
                counters: vec![],
                notes: vec![],
                children: vec![
                    TraceSpan {
                        name: "parse".to_string(),
                        elapsed_us: 3,
                        counters: vec![],
                        notes: vec![],
                        children: vec![],
                    },
                    TraceSpan {
                        name: "execute_parallel".to_string(),
                        elapsed_us: 90,
                        counters: vec![
                            ("morsels".to_string(), 4),
                            ("rows_scanned".to_string(), 25),
                        ],
                        notes: vec![("decision".to_string(), "sample".to_string())],
                        children: vec![],
                    },
                ],
            }],
        };
        let j = Json::parse(&trace_to_json(&trace).to_string()).unwrap();
        assert_eq!(trace_from_json(&j).unwrap(), trace);
        assert!(trace_from_json(&Json::parse(r#"[{"name":"x"}]"#).unwrap()).is_err());

        let answer = Answer {
            result: QueryResult {
                columns: vec!["n".to_string()],
                rows: vec![vec![Value::Num(1.0)]],
                group_arity: 0,
            },
            route: Route::Sample,
            elapsed: Duration::from_micros(7),
        };
        let plain = answer_body(&answer).to_string();
        let traced = answer_body_with_trace(&answer, Some(&trace)).to_string();
        // Tracing appends the final `"trace"` member and changes nothing else.
        assert!(traced.starts_with(plain.trim_end_matches('}')), "{traced}");
        assert!(traced.contains("\"trace\":["), "{traced}");
        assert_eq!(answer_body_with_trace(&answer, None).to_string(), plain);
    }

    #[test]
    fn durations_saturate_instead_of_losing_precision() {
        // Below the cap: exact.
        assert_eq!(saturating_millis(Duration::from_millis(75)), 75);
        // Above 2^53 µs the old `as_micros() as f64` cast silently rounded;
        // the helper pins the value at the largest f64-exact magnitude.
        let huge = Duration::from_secs(u64::MAX / 2);
        assert_eq!(
            saturating_millis(huge),
            themis_obs::MAX_EXACT_MICROS / 1_000
        );
        let answer = Answer {
            result: QueryResult {
                columns: vec![],
                rows: vec![],
                group_arity: 0,
            },
            route: Route::Sample,
            elapsed: huge,
        };
        let wire = decode_answer(&Json::parse(&answer_body(&answer).to_string()).unwrap()).unwrap();
        assert_eq!(
            wire.elapsed,
            Duration::from_micros(themis_obs::MAX_EXACT_MICROS)
        );
    }

    #[test]
    fn explains_roundtrip() {
        for explain in [
            Explain {
                route: RouteKind::Hybrid,
                reason: "grouped query".to_string(),
                degrades_to: Some(RouteKind::Sample),
                cached: None,
            },
            Explain {
                route: RouteKind::Sample,
                reason: "scalar aggregate".to_string(),
                degrades_to: None,
                cached: Some(true),
            },
            Explain {
                route: RouteKind::Sample,
                reason: "scalar aggregate".to_string(),
                degrades_to: None,
                cached: Some(false),
            },
        ] {
            let j = Json::parse(&explain_body(&explain).to_string()).unwrap();
            assert_eq!(decode_explain(&j).unwrap(), explain);
        }
        // A pre-cache response with no "cached" member still decodes.
        let legacy = Json::parse(
            r#"{"ok":true,"op":"explain","route":"sample","reason":"r","degrades_to":null}"#,
        )
        .unwrap();
        assert_eq!(decode_explain(&legacy).unwrap().cached, None);
        let bad = Json::parse(
            r#"{"ok":true,"op":"explain","route":"sample","reason":"r","degrades_to":null,"cached":1}"#,
        )
        .unwrap();
        assert!(decode_explain(&bad).is_err());
    }

    #[test]
    fn ingest_requests_parse_and_reject() {
        let j = Json::parse(r#"{"op":"ingest","table":"flights","rows":[["01","FL","NY"],["02","NC","FL"]]}"#)
            .unwrap();
        let Request::Ingest { table, rows } = parse_request(&j).unwrap() else {
            panic!("not an ingest request");
        };
        assert_eq!(table, "flights");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["01", "FL", "NY"]);
        // The encoder round-trips through the parser.
        let encoded = ingest_to_json(&table, &rows);
        let back = parse_request(&Json::parse(&encoded.to_string()).unwrap()).unwrap();
        assert_eq!(back, Request::Ingest { table, rows });
        for bad in [
            r#"{"op":"ingest"}"#,
            r#"{"op":"ingest","table":"t"}"#,
            r#"{"op":"ingest","table":7,"rows":[]}"#,
            r#"{"op":"ingest","table":"t","rows":[7]}"#,
            r#"{"op":"ingest","table":"t","rows":[[7]]}"#,
        ] {
            assert!(parse_request(&Json::parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn ingest_reports_roundtrip() {
        let report = IngestReport {
            table: "flights".to_string(),
            rows_added: 3,
            sample_rows: 7,
            generation: 2,
            bn_moved: true,
            replicates_kept: 0,
            cache_entries_dropped: 4,
        };
        let j = Json::parse(&ingest_body(&report).to_string()).unwrap();
        assert_eq!(decode_ingest(&j).unwrap(), report);
        assert!(decode_ingest(&Json::parse(r#"{"ok":true}"#).unwrap()).is_err());
    }

    #[test]
    fn ingest_errors_carry_their_own_kind() {
        let err = ThemisError::Ingest(themis_core::IngestError::Arity {
            row: 0,
            expected: 3,
            got: 1,
        });
        let wire = decode_error(&themis_error_body(&err)).unwrap();
        assert_eq!(wire.kind, "ingest");
        assert!(wire.message.contains("row 0"), "{}", wire.message);
    }

    #[test]
    fn set_body_echoes_effective_options() {
        let mut engine = EngineOptions {
            threads: 2,
            morsel_rows: 512,
            ..EngineOptions::default()
        };
        engine.limits.deadline = Some(Duration::from_millis(75));
        engine.limits.max_groups = Some(10);
        let j = set_body(&engine);
        let e = j.get("engine").unwrap();
        assert_eq!(e.get("threads").and_then(Json::as_u64), Some(2));
        assert_eq!(e.get("deadline_ms").and_then(Json::as_u64), Some(75));
        assert_eq!(e.get("max_rows"), Some(&Json::Null));
        assert_eq!(e.get("max_groups").and_then(Json::as_u64), Some(10));
        assert_eq!(e.get("fault").and_then(Json::as_str), Some("none"));
    }
}
