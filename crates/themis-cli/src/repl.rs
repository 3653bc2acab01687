//! REPL session state and command handling, separated from I/O so it can be
//! unit tested.
//!
//! The shell wraps a [`ThemisSession`]: `\build` constructs it from the
//! loaded sample + aggregates, SQL lines run through the session's
//! `sql_with` (so every answer carries its [`Route`]), `\explain` shows the
//! routing decision without executing, and `\route` recalls the provenance
//! of the last answer. Engine configuration is explicit [`EngineOptions`]
//! owned by the shell alone and passed with every local call — `main` seeds
//! it from `THEMIS_THREADS` once at startup, and `\threads`, `\deadline` and
//! `\budget` change it; no library code ever reads the environment.
//!
//! `\connect <addr>` switches the shell into client mode against a running
//! `themis-served`: SQL, `\explain`, `\ingest` and `\cache stats` run on the
//! server (one dispatch decides where each of them runs), the governance
//! commands become a per-connection `set` on the server, and `\disconnect`
//! returns to the local model. Answers keep their provenance footer either
//! way — the `Route` stamp crosses the wire intact.

use std::time::Duration;
use themis_aggregates::{AggregateResult, AggregateSet};
use themis_core::{
    saturating_micros, Answer, EngineOptions, IngestReport, LiveSnapshot, Route, Themis,
    ThemisConfig, ThemisError, ThemisSession,
};
use themis_data::ingest::{ingest_csv, ColumnSpec};
use themis_data::{AttrId, Relation};
use themis_serve::{Client, Json, SetRequest};

/// What the loop should do after a line.
#[derive(Debug, PartialEq)]
pub enum Outcome {
    /// Print this (possibly empty) output and continue.
    Continue(String),
    /// Exit the shell.
    Quit,
}

/// Shell state: the loaded sample, registered aggregates, the engine
/// configuration, and the built query session.
pub struct Session {
    table_name: Option<String>,
    sample: Option<Relation>,
    aggregates: AggregateSet,
    population_size: Option<f64>,
    /// The one copy of the engine options: every local call passes them,
    /// and the governance commands push them to a connected server.
    engine: EngineOptions,
    model: Option<ThemisSession>,
    last_route: Option<Route>,
    /// Client-mode connection to a `themis-served` (`\connect`), with the
    /// address it was opened against for status messages.
    remote: Option<(String, Client)>,
    /// `\trace on`: every SQL answer also prints its span tree (locally via
    /// `analyze_with`, remotely via the `"trace":true` request flag).
    trace_on: bool,
    /// `\cache on`: answer caching for the local model. Applied to the
    /// running session immediately and re-applied on every `\build`.
    cache_on: bool,
}

/// Answer-cache capacity for `\cache on` — plenty for an interactive
/// shell, bounded so a long exploration cannot grow without limit.
const CACHE_ENTRIES: usize = 256;

/// A command that runs on a model: on the connected server in client mode,
/// on the local model otherwise (`Session::dispatch` decides).
#[derive(Clone, Copy)]
enum Op<'a> {
    /// A SQL line; `traced` also returns its span tree.
    Sql { sql: &'a str, traced: bool },
    /// `\explain <sql>`.
    Explain(&'a str),
    /// `\ingest <table> <rows>`.
    Ingest {
        table: &'a str,
        rows: &'a [Vec<String>],
    },
    /// `\cache stats`.
    CacheStats,
}

/// What an [`Op`] produced.
enum Reply {
    /// An executed query, printed with its provenance footer, and the
    /// span-tree text to append when traced.
    Answer(Answer, Option<String>),
    /// Anything else, already rendered.
    Text(String),
}

impl Op<'_> {
    /// Run on the local model with the shell's engine options.
    fn run_local(
        self,
        session: &ThemisSession,
        engine: &EngineOptions,
    ) -> Result<Reply, ThemisError> {
        Ok(match self {
            Op::Sql { sql, traced: false } => Reply::Answer(session.sql_with(sql, engine)?, None),
            Op::Sql { sql, traced: true } => {
                let analyzed = session.analyze_with(sql, engine)?;
                let trace = format!(
                    "{}groups: estimated {}, actual {}",
                    analyzed.trace.render(),
                    analyzed.estimated_groups,
                    analyzed.actual_groups
                );
                Reply::Answer(analyzed.answer, Some(trace))
            }
            Op::Explain(sql) => Reply::Text(session.explain_with(sql, engine)?.to_string()),
            Op::Ingest { table, rows } => {
                Reply::Text(describe_ingest(&session.ingest(table, rows)?))
            }
            Op::CacheStats => Reply::Text(describe_live(&session.live_snapshot())),
        })
    }

    /// Run on the server connected at `addr`; the server applies the
    /// engine options the shell last pushed to it.
    fn run_remote(self, client: &mut Client, addr: &str) -> themis_serve::Outcome<Reply> {
        let answer = |wire: themis_serve::WireAnswer| Answer {
            result: wire.result,
            route: wire.route,
            elapsed: wire.elapsed,
        };
        Ok(match self {
            Op::Sql { sql, traced: false } => {
                client.query(sql)?.map(|a| Reply::Answer(answer(a), None))
            }
            Op::Sql { sql, traced: true } => client
                .query_traced(sql)?
                .map(|(a, trace)| Reply::Answer(answer(a), Some(trace.render()))),
            Op::Explain(sql) => client.explain(sql)?.map(|e| Reply::Text(e.to_string())),
            Op::Ingest { table, rows } => client
                .ingest(table, rows)?
                .map(|report| Reply::Text(describe_ingest(&report))),
            Op::CacheStats => client
                .stats()?
                .map(|stats| Reply::Text(describe_server_cache(addr, &stats))),
        })
    }
}

impl Session {
    /// Fresh session with default engine options.
    pub fn new() -> Self {
        Self::with_engine(EngineOptions::default())
    }

    /// Fresh session with explicit engine options (`main` passes the
    /// `THEMIS_THREADS`-seeded options here).
    pub fn with_engine(engine: EngineOptions) -> Self {
        Self {
            table_name: None,
            sample: None,
            aggregates: AggregateSet::new(),
            population_size: None,
            engine,
            model: None,
            last_route: None,
            remote: None,
            trace_on: false,
            cache_on: false,
        }
    }

    /// Handle one input line.
    pub fn handle(&mut self, line: &str) -> Outcome {
        if line.is_empty() {
            return Outcome::Continue(String::new());
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            return self.meta(cmd);
        }
        let traced = self.trace_on;
        Outcome::Continue(self.dispatch(Op::Sql { sql: line, traced }))
    }

    fn meta(&mut self, cmd: &str) -> Outcome {
        let parts: Vec<&str> = cmd.split_whitespace().collect();
        match parts.first().copied() {
            Some("quit") | Some("q") | Some("exit") => Outcome::Quit,
            Some("help") => Outcome::Continue(HELP.to_string()),
            Some("load") => Outcome::Continue(self.cmd_load(&parts[1..])),
            Some("aggregate") => Outcome::Continue(self.cmd_aggregate(&parts[1..])),
            Some("population") => Outcome::Continue(self.cmd_population(&parts[1..])),
            Some("build") => Outcome::Continue(self.cmd_build()),
            Some("threads") => Outcome::Continue(self.cmd_threads(&parts[1..])),
            Some("deadline") => Outcome::Continue(self.cmd_deadline(&parts[1..])),
            Some("budget") => Outcome::Continue(self.cmd_budget(&parts[1..])),
            Some("connect") => Outcome::Continue(self.cmd_connect(&parts[1..])),
            Some("disconnect") => Outcome::Continue(self.cmd_disconnect()),
            Some("stats") => Outcome::Continue(self.cmd_server_export(Client::stats)),
            Some("metrics") => Outcome::Continue(self.cmd_server_export(Client::metrics)),
            Some("trace") => Outcome::Continue(self.cmd_trace(&parts[1..])),
            Some("cache") => Outcome::Continue(self.cmd_cache(&parts[1..])),
            Some("ingest") => Outcome::Continue(self.cmd_ingest(&parts[1..])),
            Some("explain") => {
                // Re-split from the raw command so the SQL keeps its
                // original spacing.
                let sql = cmd.strip_prefix("explain").unwrap_or("").trim();
                Outcome::Continue(self.cmd_explain(sql))
            }
            Some("route") => Outcome::Continue(self.cmd_route()),
            Some("status") => Outcome::Continue(self.cmd_status()),
            Some(other) => Outcome::Continue(format!("unknown command \\{other}; try \\help")),
            None => Outcome::Continue(String::new()),
        }
    }

    /// `\load <table> <file.csv> <spec,spec,...>` where spec is `cat` or
    /// `num:<buckets>`.
    fn cmd_load(&mut self, args: &[&str]) -> String {
        let [table, path, specs] = args else {
            return "usage: \\load <table> <file.csv> <cat|num:K>[,...]".into();
        };
        let specs: Result<Vec<ColumnSpec>, String> = specs
            .split(',')
            .map(|s| {
                if s == "cat" {
                    Ok(ColumnSpec::Categorical)
                } else if let Some(k) = s.strip_prefix("num:") {
                    k.parse::<usize>()
                        .map(|buckets| ColumnSpec::Numeric { buckets })
                        .map_err(|_| format!("bad bucket count in {s:?}"))
                } else {
                    Err(format!("bad column spec {s:?} (use cat or num:K)"))
                }
            })
            .collect();
        let specs = match specs {
            Ok(s) => s,
            Err(e) => return e,
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return format!("cannot read {path}: {e}"),
        };
        match ingest_csv(&text, &specs) {
            Ok(out) => {
                let msg = format!(
                    "loaded {} rows into {table} ({} null rows dropped)",
                    out.relation.len(),
                    out.dropped_nulls
                );
                self.table_name = Some(table.to_string());
                self.sample = Some(out.relation);
                self.model = None;
                msg
            }
            Err(e) => format!("ingest error: {e}"),
        }
    }

    /// `\aggregate <attr>[,<attr>...] <file.csv>` — the file has one header
    /// line (ignored) and rows `value[,value...],count`.
    fn cmd_aggregate(&mut self, args: &[&str]) -> String {
        let [attrs, path] = args else {
            return "usage: \\aggregate <attr>[,<attr>...] <file.csv>".into();
        };
        let Some(sample) = &self.sample else {
            return "load a sample first (\\load)".into();
        };
        let schema = sample.schema().clone();
        let attr_ids: Result<Vec<AttrId>, String> = attrs
            .split(',')
            .map(|name| {
                schema
                    .attr_id(name)
                    .ok_or_else(|| format!("unknown attribute {name:?}"))
            })
            .collect();
        let attr_ids = match attr_ids {
            Ok(a) => a,
            Err(e) => return e,
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return format!("cannot read {path}: {e}"),
        };
        let mut groups = Vec::new();
        for (i, line) in text.lines().skip(1).enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if fields.len() != attr_ids.len() + 1 {
                return format!(
                    "aggregate row {i}: expected {} fields, found {}",
                    attr_ids.len() + 1,
                    fields.len()
                );
            }
            let mut key = Vec::with_capacity(attr_ids.len());
            for (f, &a) in fields.iter().zip(&attr_ids) {
                match schema.domain(a).id_of(f) {
                    Some(id) => key.push(id),
                    // Values outside the sample's active domain cannot be
                    // represented; skip the group but keep going.
                    None => {
                        key.clear();
                        break;
                    }
                }
            }
            if key.is_empty() {
                continue;
            }
            // The arity check above guarantees a last field, but a parse
            // path must never be a panic away from killing the shell.
            let Some(count_field) = fields.last() else {
                continue;
            };
            let count: f64 = match count_field.parse() {
                Ok(c) => c,
                Err(_) => return format!("aggregate row {i}: bad count {count_field:?}"),
            };
            groups.push((key, count));
        }
        let n_groups = groups.len();
        self.aggregates
            .push(AggregateResult::from_groups(attr_ids, groups));
        self.model = None;
        format!("registered aggregate over {attrs} with {n_groups} groups")
    }

    fn cmd_population(&mut self, args: &[&str]) -> String {
        match args {
            [n] => match n.parse::<f64>() {
                Ok(v) if v > 0.0 => {
                    self.population_size = Some(v);
                    self.model = None;
                    format!("population size set to {v}")
                }
                _ => "population size must be a positive number".into(),
            },
            _ => "usage: \\population <n>".into(),
        }
    }

    fn cmd_build(&mut self) -> String {
        let Some(sample) = self.sample.clone() else {
            return "load a sample first (\\load)".into();
        };
        let Some(n) = self.population_size else {
            return "set the population size first (\\population <n>)".into();
        };
        if self.aggregates.is_empty() {
            return "register at least one aggregate first (\\aggregate)".into();
        }
        let model = Themis::build(sample, self.aggregates.clone(), n, ThemisConfig::default());
        let report = model
            .ipf_report()
            .map(|r| {
                format!(
                    "IPF: {} sweeps, violation {:.2e}, converged = {}",
                    r.iterations, r.final_violation, r.converged
                )
            })
            .unwrap_or_default();
        let mut session = ThemisSession::new(model);
        if self.cache_on {
            session.set_answer_cache(CACHE_ENTRIES);
        }
        self.model = Some(session);
        self.last_route = None;
        format!("model built. {report}")
    }

    /// `\threads [<n>]` — show or set the query-engine thread count in this
    /// shell's [`EngineOptions`].
    fn cmd_threads(&mut self, args: &[&str]) -> String {
        match args {
            [] => format!("query engine: {}", self.engine.describe()),
            [n] => match n.parse::<usize>() {
                Ok(t) if t >= 1 => {
                    self.engine.threads = t;
                    self.push_remote_engine()
                        .unwrap_or_else(|| format!("query engine: {}", self.engine.describe()))
                }
                _ => "thread count must be a positive integer".into(),
            },
            _ => "usage: \\threads [<n>]".into(),
        }
    }

    /// `\deadline [<ms>|off]` — show, set, or clear the per-query deadline.
    /// A query past its deadline stops with a typed error; a hybrid query
    /// whose BN phase trips degrades to its sample part (the answer footer
    /// says so).
    fn cmd_deadline(&mut self, args: &[&str]) -> String {
        match args {
            [] => format!("governance: {}", self.engine.limits.describe()),
            ["off"] => {
                self.engine.limits.deadline = None;
                self.apply_engine()
            }
            [ms] => match ms.parse::<u64>() {
                Ok(v) if v >= 1 => {
                    self.engine.limits.deadline = Some(Duration::from_millis(v));
                    self.apply_engine()
                }
                _ => "deadline must be a positive number of milliseconds, or off".into(),
            },
            _ => "usage: \\deadline [<ms>|off]".into(),
        }
    }

    /// `\budget [rows <n>|groups <n>|off]` — show, set, or clear the row /
    /// group budgets.
    fn cmd_budget(&mut self, args: &[&str]) -> String {
        match args {
            [] => format!("governance: {}", self.engine.limits.describe()),
            ["off"] => {
                self.engine.limits.max_rows = None;
                self.engine.limits.max_groups = None;
                self.apply_engine()
            }
            ["rows", n] => match n.parse::<u64>() {
                Ok(v) if v >= 1 => {
                    self.engine.limits.max_rows = Some(v);
                    self.apply_engine()
                }
                _ => "row budget must be a positive integer".into(),
            },
            ["groups", n] => match n.parse::<usize>() {
                Ok(v) if v >= 1 => {
                    self.engine.limits.max_groups = Some(v);
                    self.apply_engine()
                }
                _ => "group budget must be a positive integer".into(),
            },
            _ => "usage: \\budget [rows <n>|groups <n>|off]".into(),
        }
    }

    /// Push the shell's engine options to the connected server (if any),
    /// and report the governance state that resulted.
    fn apply_engine(&mut self) -> String {
        self.push_remote_engine()
            .unwrap_or_else(|| format!("governance: {}", self.engine.limits.describe()))
    }

    /// Mirror the shell's engine options to the connected server as a
    /// per-connection `set`. Returns the message to print when connected
    /// (`None` when there is no connection, so callers fall through to the
    /// local description).
    fn push_remote_engine(&mut self) -> Option<String> {
        let request = SetRequest {
            // Through the saturating helper (not a lossy `as` cast) so the
            // value survives the f64 wire encoding exactly.
            deadline_ms: Some(
                self.engine
                    .limits
                    .deadline
                    .map(|d| saturating_micros(d) / 1_000),
            ),
            max_rows: Some(self.engine.limits.max_rows),
            max_groups: Some(self.engine.limits.max_groups.map(|g| g as u64)),
            threads: Some(self.engine.threads as u64),
            morsel_rows: None,
            fault: None,
        };
        let applied = format!(
            "{} ({} threads)",
            self.engine.limits.describe(),
            self.engine.threads
        );
        let pushed = self.on_server(|client, addr| {
            client.set(&request).map(|set| {
                Ok(match set {
                    Ok(_) => format!("governance on {addr}: {applied}"),
                    Err(e) => format!("server rejected settings: {e}"),
                })
            })
        })?;
        Some(pushed.unwrap_or_else(|lost| lost))
    }

    /// `\connect <addr>` — switch into client mode against a running
    /// `themis-served`; the connection immediately inherits the shell's
    /// governance settings.
    fn cmd_connect(&mut self, args: &[&str]) -> String {
        let [addr] = args else {
            return "usage: \\connect <host:port>".into();
        };
        match Client::connect(*addr) {
            Ok(client) => {
                self.remote = Some((addr.to_string(), client));
                let pushed = self
                    .push_remote_engine()
                    .unwrap_or_else(|| "governance: default".into());
                format!(
                    "connected to {addr}; SQL now runs on the server (\\disconnect to return)\n{pushed}"
                )
            }
            Err(e) => format!("cannot connect to {addr}: {e}"),
        }
    }

    /// `\disconnect` — drop the server connection and return to the local
    /// model (if one is built).
    fn cmd_disconnect(&mut self) -> String {
        match self.remote.take() {
            Some((addr, _)) => format!("disconnected from {addr}"),
            None => "not connected".into(),
        }
    }

    /// `\stats` / `\metrics` — one of the connected server's exports,
    /// verbatim: its counters (connections, queries, per-route and
    /// per-degrade-reason tallies) or its metrics registry (counters,
    /// gauges, and the query-latency histogram with p50/p90/p99).
    fn cmd_server_export(
        &mut self,
        export: fn(&mut Client) -> themis_serve::Outcome<Json>,
    ) -> String {
        let text = self.on_server(|client, addr| {
            export(client).map(|json| json.map(|j| format!("server {addr}: {j}")))
        });
        match text {
            Some(Ok(text) | Err(text)) => text,
            None => "not connected (\\connect <host:port>)".into(),
        }
    }

    /// `\trace [on|off]` — toggle per-query tracing. While on, every SQL
    /// answer is followed by the span tree that produced it; answers stay
    /// bit-identical to untraced runs.
    fn cmd_trace(&mut self, args: &[&str]) -> String {
        match args {
            [] => format!("trace: {}", if self.trace_on { "on" } else { "off" }),
            ["on"] => {
                self.trace_on = true;
                "trace: on (answers now include their span tree)".into()
            }
            ["off"] => {
                self.trace_on = false;
                "trace: off".into()
            }
            _ => "usage: \\trace [on|off]".into(),
        }
    }

    /// `\cache [on|off|stats]` — toggle the local model's answer cache or
    /// show cache/ingest counters. Cached answers are bit-identical to
    /// fresh execution; the cache only changes latency. In client mode
    /// `stats` shows the server's counters (the server owns its cache).
    fn cmd_cache(&mut self, args: &[&str]) -> String {
        match args {
            [] => format!("cache: {}", if self.cache_on { "on" } else { "off" }),
            ["on"] => {
                self.cache_on = true;
                if let Some(session) = &mut self.model {
                    session.set_answer_cache(CACHE_ENTRIES);
                }
                // Names where the cache lives; nothing runs on a model here.
                if self.remote.is_some() {
                    return "cache: on for the local model; the server owns its own cache".into();
                }
                format!("cache: on ({CACHE_ENTRIES} entries)")
            }
            ["off"] => {
                self.cache_on = false;
                if let Some(session) = &mut self.model {
                    session.disable_answer_cache();
                }
                "cache: off (contents dropped)".into()
            }
            ["stats"] => self.dispatch(Op::CacheStats),
            _ => "usage: \\cache [on|off|stats]".into(),
        }
    }

    /// `\ingest <table> <v,v,...> [<v,v,...> ...]` — append labeled rows to
    /// the model (a new world generation; cached answers for the table are
    /// invalidated). In client mode the rows travel to the server and every
    /// connection sees the new generation.
    fn cmd_ingest(&mut self, args: &[&str]) -> String {
        let [table, row_specs @ ..] = args else {
            return "usage: \\ingest <table> <v,v,...> [<v,v,...> ...]".into();
        };
        if row_specs.is_empty() {
            return "usage: \\ingest <table> <v,v,...> [<v,v,...> ...]".into();
        }
        let rows: Vec<Vec<String>> = row_specs
            .iter()
            .map(|spec| spec.split(',').map(|v| v.trim().to_string()).collect())
            .collect();
        self.dispatch(Op::Ingest { table, rows: &rows })
    }

    /// `\explain <sql>` — show where the query would be routed, without
    /// executing it. In client mode the server answers.
    fn cmd_explain(&mut self, sql: &str) -> String {
        if sql.is_empty() {
            return "usage: \\explain <sql>".into();
        }
        self.dispatch(Op::Explain(sql))
    }

    /// Run `op` on the connected server if there is one, else on the local
    /// model with the shell's engine options. Every answer gets the same
    /// provenance footer, naming the server when it ran there.
    fn dispatch(&mut self, op: Op<'_>) -> String {
        let place = match &self.remote {
            Some((addr, _)) => format!(" on {addr}"),
            None => String::new(),
        };
        let reply = match self.on_server(|client, addr| op.run_remote(client, addr)) {
            Some(reply) => reply,
            None => match &self.model {
                Some(session) => op
                    .run_local(session, &self.engine)
                    .map_err(|e| format!("error: {e}")),
                None => return "build the model first (\\build)".into(),
            },
        };
        match reply {
            Ok(Reply::Answer(answer, trace)) => {
                let mut out = format!(
                    "{}-- {} [{:.1} ms{place}]",
                    answer.result,
                    answer.route,
                    answer.elapsed.as_secs_f64() * 1e3
                );
                if let Some(trace) = trace {
                    out.push_str("\ntrace:\n");
                    out.push_str(&trace);
                }
                self.last_route = Some(answer.route);
                out
            }
            Ok(Reply::Text(text)) | Err(text) => text,
        }
    }

    /// Run `call` on the connected server: `None` when not connected, else
    /// its reply or the message to print instead (`error: ...` for an error
    /// the server reports). A lost connection is dropped here, the one
    /// place that does.
    fn on_server<T>(
        &mut self,
        call: impl FnOnce(&mut Client, &str) -> themis_serve::Outcome<T>,
    ) -> Option<Result<T, String>> {
        let (addr, client) = self.remote.as_mut()?;
        Some(match call(client, addr) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(e)) => Err(format!("error: {e}")),
            Err(e) => {
                let lost = format!("connection to {addr} lost: {e}");
                self.remote = None;
                Err(lost)
            }
        })
    }

    /// `\route` — the provenance of the last executed query.
    fn cmd_route(&self) -> String {
        match &self.last_route {
            Some(route) => format!("last query answered by: {route}"),
            None => "no query executed yet".into(),
        }
    }

    fn cmd_status(&self) -> String {
        let mut out = String::new();
        match (&self.table_name, &self.sample) {
            (Some(t), Some(s)) => {
                out.push_str(&format!("table {t}: {} rows, {} attributes\n", s.len(), s.schema().arity()));
                for a in s.schema().attributes() {
                    out.push_str(&format!("  {} ({} values)\n", a.name(), a.domain().size()));
                }
            }
            _ => out.push_str("no sample loaded\n"),
        }
        out.push_str(&format!("aggregates: {}\n", self.aggregates.len()));
        match self.population_size {
            Some(n) => out.push_str(&format!("population size: {n}\n")),
            None => out.push_str("population size: unset\n"),
        }
        out.push_str(&format!("query engine: {}\n", self.engine.describe()));
        if self.trace_on {
            out.push_str("trace: on\n");
        }
        if self.cache_on {
            out.push_str(&format!("cache: on ({CACHE_ENTRIES} entries)\n"));
        }
        if let Some((addr, _)) = &self.remote {
            out.push_str(&format!("connected to: {addr} (client mode)\n"));
        }
        if let Some(route) = &self.last_route {
            out.push_str(&format!("last route: {route}\n"));
        }
        match &self.model {
            Some(s) => {
                out.push_str("model: built\n");
                out.push_str(&s.model().describe());
            }
            None => out.push_str("model: not built"),
        }
        out
    }
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

/// One line summarizing an applied ingest, shared by local and client mode.
fn describe_ingest(report: &IngestReport) -> String {
    format!(
        "ingested {} rows into {} (sample now {} rows, generation {}, BN {}, \
         {} replicates kept, {} cached answers dropped)",
        report.rows_added,
        report.table,
        report.sample_rows,
        report.generation,
        if report.bn_moved { "moved" } else { "unchanged" },
        report.replicates_kept,
        report.cache_entries_dropped,
    )
}

/// The `\cache stats` body for the local model: its cache and ingest
/// counters.
fn describe_live(s: &LiveSnapshot) -> String {
    format!(
        "cache: {} hits, {} misses, {} bypasses, {} evictions, {} invalidations, {} entries\n\
         ingest: {} batches, {} rows, generation {}, {} replicates resimulated, {} kept",
        s.cache_hits,
        s.cache_misses,
        s.cache_bypasses,
        s.cache_evictions,
        s.cache_invalidations,
        s.cache_entries,
        s.ingest_batches,
        s.ingest_rows,
        s.generation,
        s.replicates_resimulated,
        s.replicates_kept,
    )
}

/// The `\cache stats` body for a server: the cache and ingest sections of
/// its counters.
fn describe_server_cache(addr: &str, stats: &Json) -> String {
    match (stats.get("cache"), stats.get("ingest")) {
        (Some(cache), Some(ingest)) => {
            format!("server {addr}:\n  cache: {cache}\n  ingest: {ingest}")
        }
        _ => format!("server {addr} reports no cache section: {stats}"),
    }
}

const HELP: &str = "\
commands:
  \\load <table> <file.csv> <cat|num:K>[,...]   load a biased sample
  \\aggregate <attr>[,<attr>...] <file.csv>     register a population aggregate
                                               (rows: value[,value...],count)
  \\population <n>                              set the population size
  \\build                                       build the Themis model
  \\threads [<n>]                               show or set query-engine threads
  \\deadline [<ms>|off]                         show, set, or clear the query deadline
  \\budget [rows <n>|groups <n>|off]            show, set, or clear result budgets
  \\explain <sql>                               show where a query would route
                                               (Sample / BayesNet / Hybrid)
  \\route                                       provenance of the last answer
  \\trace [on|off]                              print each answer's span tree
                                               (EXPLAIN ANALYZE; answers unchanged)
  \\cache [on|off|stats]                        answer cache by plan fingerprint
                                               (bit-identical; latency only)
  \\ingest <table> <v,v,...> [...]              append labeled rows: new generation,
                                               incremental reweighting, cache invalidation
  \\status                                      show session state
  \\connect <host:port>                         client mode: run SQL on a themis-served
  \\disconnect                                  leave client mode
  \\stats                                       connected server's counters
  \\metrics                                     connected server's metrics registry
                                               (incl. query-latency p50/p90/p99)
  \\quit                                        exit
anything else is executed as SQL against the model, e.g.
  SELECT origin_state, COUNT(*) FROM flights GROUP BY origin_state;";

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Write a fixture under a path no other call shares: tests run on
    /// parallel threads, and a shared path would be truncated by one test
    /// while another reads it.
    fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "themis-cli-test-{}-{n}-{name}",
            std::process::id()
        ));
        let mut f = std::fs::File::create(&path).expect("temp file");
        f.write_all(content.as_bytes()).expect("write");
        path
    }

    fn full_session() -> Session {
        let sample = write_temp(
            "sample.csv",
            "state,month\nCA,01\nCA,01\nCA,02\nNY,01\n",
        );
        let agg = write_temp("agg.csv", "state,count\nCA,30\nNY,70\n");
        let mut s = Session::new();
        assert!(matches!(
            s.handle(&format!("\\load flights {} cat,cat", sample.display())),
            Outcome::Continue(_)
        ));
        let out = s.handle(&format!("\\aggregate state {}", agg.display()));
        assert!(matches!(out, Outcome::Continue(ref m) if m.contains("2 groups")), "{out:?}");
        for path in [sample, agg] {
            let _ = std::fs::remove_file(path);
        }
        s.handle("\\population 100");
        let out = s.handle("\\build");
        assert!(matches!(out, Outcome::Continue(ref m) if m.contains("model built")), "{out:?}");
        s
    }

    #[test]
    fn end_to_end_session_answers_sql() {
        let mut s = full_session();
        let out = s.handle("SELECT state, COUNT(*) FROM flights GROUP BY state");
        let Outcome::Continue(text) = out else {
            panic!("expected output")
        };
        assert!(text.contains("CA"), "{text}");
        assert!(text.contains("NY"), "{text}");
        // Every answer is stamped with its provenance.
        assert!(text.contains("-- Hybrid ("), "{text}");
        // NY is underrepresented in the sample (1 of 4 rows) but the
        // aggregate says it is 70% of the population: the debiased count
        // must exceed CA's.
        let ca: f64 = extract_count(&text, "CA");
        let ny: f64 = extract_count(&text, "NY");
        assert!(ny > ca, "NY {ny} should exceed CA {ca}\n{text}");
    }

    fn extract_count(table: &str, label: &str) -> f64 {
        table
            .lines()
            .find(|l| l.starts_with(label))
            .and_then(|l| l.split('|').nth(1))
            .and_then(|c| c.trim().parse().ok())
            .unwrap_or_else(|| panic!("row {label} not found in {table}"))
    }

    #[test]
    fn commands_require_prerequisites() {
        let mut s = Session::new();
        assert!(matches!(
            s.handle("SELECT COUNT(*) FROM t"),
            Outcome::Continue(ref m) if m.contains("\\build")
        ));
        assert!(matches!(
            s.handle("\\build"),
            Outcome::Continue(ref m) if m.contains("\\load")
        ));
        assert!(matches!(
            s.handle("\\aggregate state nowhere.csv"),
            Outcome::Continue(ref m) if m.contains("\\load")
        ));
    }

    #[test]
    fn quit_and_help_work() {
        let mut s = Session::new();
        assert_eq!(s.handle("\\quit"), Outcome::Quit);
        assert!(matches!(
            s.handle("\\help"),
            Outcome::Continue(ref m) if m.contains("\\explain")
        ));
        assert!(matches!(
            s.handle("\\nonsense"),
            Outcome::Continue(ref m) if m.contains("unknown command")
        ));
    }

    #[test]
    fn status_reports_state() {
        let mut s = full_session();
        let Outcome::Continue(status) = s.handle("\\status") else {
            panic!()
        };
        assert!(status.contains("4 rows"));
        assert!(status.contains("aggregates: 1"));
        assert!(status.contains("model: built"));
        assert!(status.contains("query engine: morsel-driven"), "{status}");
    }

    #[test]
    fn threads_command_updates_engine_options() {
        let mut s = Session::new();
        let Outcome::Continue(out) = s.handle("\\threads 4") else {
            panic!()
        };
        assert!(out.contains("4 threads"), "{out}");
        assert_eq!(s.engine.threads, 4);
        let Outcome::Continue(out) = s.handle("\\threads 1") else {
            panic!()
        };
        assert!(out.contains("1 thread,"), "{out}");
        let Outcome::Continue(out) = s.handle("\\threads zero") else {
            panic!()
        };
        assert!(out.contains("positive integer"), "{out}");
        // A built session runs with the shell's options from the next call.
        let mut s = full_session();
        s.handle("\\threads 3");
        assert_eq!(s.engine.threads, 3);
    }

    #[test]
    fn explain_shows_sample_route_for_in_sample_point_query() {
        let mut s = full_session();
        let Outcome::Continue(out) = s.handle("\\explain SELECT COUNT(*) FROM flights WHERE state = 'CA'") else {
            panic!()
        };
        assert!(out.contains("route: Sample"), "{out}");
        assert!(out.contains("hits the sample"), "{out}");
    }

    #[test]
    fn explain_shows_hybrid_route_for_group_by() {
        let mut s = full_session();
        let Outcome::Continue(out) =
            s.handle("\\explain SELECT state, COUNT(*) FROM flights GROUP BY state")
        else {
            panic!()
        };
        assert!(out.contains("route: Hybrid"), "{out}");
        assert!(out.contains("BN replicates"), "{out}");
        // The executed query takes the route explain promised.
        let Outcome::Continue(answer) = s.handle("SELECT state, COUNT(*) FROM flights GROUP BY state")
        else {
            panic!()
        };
        assert!(answer.contains("-- Hybrid ("), "{answer}");
        let Outcome::Continue(route) = s.handle("\\route") else {
            panic!()
        };
        assert!(route.contains("Hybrid"), "{route}");
    }

    #[test]
    fn explain_without_model_is_an_error_message() {
        let mut s = Session::new();
        let Outcome::Continue(out) = s.handle("\\explain SELECT COUNT(*) FROM flights") else {
            panic!()
        };
        assert!(out.contains("\\build"), "{out}");
        // And with a model but unparsable SQL, the error surfaces cleanly.
        let mut s = full_session();
        let Outcome::Continue(out) = s.handle("\\explain SELEKT nope") else {
            panic!()
        };
        assert!(out.contains("error:"), "{out}");
        let Outcome::Continue(out) = s.handle("\\explain") else {
            panic!()
        };
        assert!(out.contains("usage"), "{out}");
    }

    #[test]
    fn route_before_any_query_says_so() {
        let mut s = full_session();
        let Outcome::Continue(out) = s.handle("\\route") else {
            panic!()
        };
        assert!(out.contains("no query executed yet"), "{out}");
    }

    #[test]
    fn deadline_and_budget_commands_manage_governance() {
        let mut s = Session::new();
        // Show before set: governance starts off.
        assert!(matches!(
            s.handle("\\deadline"),
            Outcome::Continue(ref m) if m.contains("off")
        ));
        let Outcome::Continue(out) = s.handle("\\deadline 250") else {
            panic!()
        };
        assert!(out.contains("deadline 250ms"), "{out}");
        assert_eq!(
            s.engine.limits.deadline,
            Some(Duration::from_millis(250))
        );
        let Outcome::Continue(out) = s.handle("\\budget rows 1000") else {
            panic!()
        };
        assert!(out.contains("1000 rows"), "{out}");
        s.handle("\\budget groups 50");
        assert_eq!(s.engine.limits.max_rows, Some(1000));
        assert_eq!(s.engine.limits.max_groups, Some(50));
        // Armed limits show up in the engine status line.
        let Outcome::Continue(status) = s.handle("\\status") else {
            panic!()
        };
        assert!(status.contains("limits:"), "{status}");
        // `off` clears both budgets, `\deadline off` the deadline.
        s.handle("\\budget off");
        s.handle("\\deadline off");
        assert!(s.engine.limits.is_unlimited());
        // Bad input is a message, not a panic.
        assert!(matches!(
            s.handle("\\deadline soon"),
            Outcome::Continue(ref m) if m.contains("milliseconds")
        ));
        assert!(matches!(
            s.handle("\\budget rows many"),
            Outcome::Continue(ref m) if m.contains("positive integer")
        ));
        assert!(matches!(
            s.handle("\\budget cpu 3"),
            Outcome::Continue(ref m) if m.contains("usage")
        ));
    }

    #[test]
    fn tripped_budget_is_an_error_message_not_a_crash() {
        let mut s = full_session();
        // A 1-row budget trips on the 4-row sample scan itself.
        s.handle("\\budget rows 1");
        assert_eq!(
            s.engine.limits.max_rows,
            Some(1),
            "the shell's armed limits apply to the built session's next query"
        );
        let Outcome::Continue(out) =
            s.handle("SELECT state, COUNT(*) FROM flights GROUP BY state")
        else {
            panic!()
        };
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("row budget exceeded"), "{out}");
        // Lifting the budget restores normal answers in the same session.
        s.handle("\\budget off");
        let Outcome::Continue(out) =
            s.handle("SELECT state, COUNT(*) FROM flights GROUP BY state")
        else {
            panic!()
        };
        assert!(out.contains("-- Hybrid ("), "{out}");
    }

    #[test]
    fn trace_toggle_prints_span_tree_and_leaves_answers_identical() {
        let mut s = full_session();
        let sql = "SELECT state, COUNT(*) FROM flights GROUP BY state";
        let Outcome::Continue(untraced) = s.handle(sql) else {
            panic!()
        };
        let Outcome::Continue(out) = s.handle("\\trace on") else {
            panic!()
        };
        assert!(out.contains("trace: on"), "{out}");
        let Outcome::Continue(traced) = s.handle(sql) else {
            panic!()
        };
        // The answer table is bit-identical; tracing only appends.
        assert_eq!(
            untraced.split("\n-- ").next(),
            traced.split("\n-- ").next(),
            "{traced}"
        );
        assert!(traced.contains("trace:"), "{traced}");
        assert!(traced.contains("query ["), "{traced}");
        assert!(traced.contains("hybrid ["), "{traced}");
        assert!(traced.contains("rows_scanned="), "{traced}");
        // EXPLAIN ANALYZE extras: estimated vs actual group counts.
        assert!(traced.contains("groups: estimated 2, actual 2"), "{traced}");
        // Status reflects the toggle; `off` restores plain answers.
        let Outcome::Continue(status) = s.handle("\\status") else {
            panic!()
        };
        assert!(status.contains("trace: on"), "{status}");
        s.handle("\\trace off");
        let Outcome::Continue(out) = s.handle(sql) else {
            panic!()
        };
        assert!(!out.contains("trace:"), "{out}");
        assert!(matches!(
            s.handle("\\trace maybe"),
            Outcome::Continue(ref m) if m.contains("usage")
        ));
        assert!(matches!(
            s.handle("\\trace"),
            Outcome::Continue(ref m) if m.contains("trace: off")
        ));
    }

    #[test]
    fn cache_commands_toggle_and_report() {
        let mut s = full_session();
        assert!(matches!(
            s.handle("\\cache"),
            Outcome::Continue(ref m) if m.contains("cache: off")
        ));
        let Outcome::Continue(out) = s.handle("\\cache on") else {
            panic!()
        };
        assert!(out.contains("cache: on"), "{out}");
        // A repeated query is served from the cache, bit-identically
        // (same answer table), and the counters say so.
        let sql = "SELECT state, COUNT(*) FROM flights GROUP BY state";
        let Outcome::Continue(cold) = s.handle(sql) else {
            panic!()
        };
        let Outcome::Continue(warm) = s.handle(sql) else {
            panic!()
        };
        assert_eq!(
            cold.split("\n-- ").next(),
            warm.split("\n-- ").next(),
            "cached answer diverged"
        );
        let Outcome::Continue(stats) = s.handle("\\cache stats") else {
            panic!()
        };
        assert!(stats.contains("1 hits"), "{stats}");
        assert!(stats.contains("1 misses"), "{stats}");
        assert!(stats.contains("1 entries"), "{stats}");
        // Status shows the toggle; `off` drops the contents.
        let Outcome::Continue(status) = s.handle("\\status") else {
            panic!()
        };
        assert!(status.contains("cache: on"), "{status}");
        let Outcome::Continue(out) = s.handle("\\cache off") else {
            panic!()
        };
        assert!(out.contains("cache: off"), "{out}");
        assert!(matches!(
            s.handle("\\cache sideways"),
            Outcome::Continue(ref m) if m.contains("usage")
        ));
        // `\cache stats` without a model is a hint, not a crash.
        let mut fresh = Session::new();
        fresh.handle("\\cache on");
        assert!(matches!(
            fresh.handle("\\cache stats"),
            Outcome::Continue(ref m) if m.contains("\\build")
        ));
    }

    #[test]
    fn ingest_command_grows_the_model_and_reports() {
        let mut s = full_session();
        s.handle("\\cache on");
        // `state` totals are pinned by the registered aggregate (IPF holds
        // them fixed whatever the sample), so observe the unconstrained
        // `month` dimension instead.
        let sql = "SELECT month, COUNT(*) FROM flights GROUP BY month";
        let Outcome::Continue(before) = s.handle(sql) else {
            panic!()
        };
        let Outcome::Continue(out) = s.handle("\\ingest flights NY,02 NY,01") else {
            panic!()
        };
        assert!(out.contains("ingested 2 rows into flights"), "{out}");
        assert!(out.contains("sample now 6 rows"), "{out}");
        assert!(out.contains("generation 1"), "{out}");
        assert!(out.contains("1 cached answers dropped"), "{out}");
        // The grown sample answers differently: NY gained weight.
        let Outcome::Continue(after) = s.handle(sql) else {
            panic!()
        };
        assert_ne!(
            before.split("\n-- ").next(),
            after.split("\n-- ").next(),
            "ingest left the answer unchanged: {after}"
        );
        // Bad rows are typed errors and leave the model untouched.
        let Outcome::Continue(out) = s.handle("\\ingest flights TX") else {
            panic!()
        };
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("expected 2 values"), "{out}");
        let Outcome::Continue(out) = s.handle("\\ingest flights ZZ,01") else {
            panic!()
        };
        assert!(out.contains("unknown label 'ZZ'"), "{out}");
        let Outcome::Continue(stats) = s.handle("\\cache stats") else {
            panic!()
        };
        assert!(stats.contains("1 batches"), "{stats}");
        assert!(stats.contains("generation 1"), "{stats}");
        // Usage and missing-model paths.
        assert!(matches!(
            s.handle("\\ingest flights"),
            Outcome::Continue(ref m) if m.contains("usage")
        ));
        assert!(matches!(
            Session::new().handle("\\ingest flights NY,01"),
            Outcome::Continue(ref m) if m.contains("\\build")
        ));
    }

    #[test]
    fn connect_mode_runs_sql_on_the_server() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;
        use themis_data::{Attribute, Domain, Schema};
        use themis_serve::{ServerConfig, ThemisServer};

        let schema = Schema::new(vec![
            Attribute::new("a", Domain::indexed("a", 4)),
            Attribute::new("b", Domain::indexed("b", 3)),
        ]);
        let mut pop = Relation::new(schema);
        for i in 0..400usize {
            pop.push_row(&[(i % 4) as u32, ((i / 4) % 3) as u32]);
        }
        let aggregates = AggregateSet::from_results(vec![AggregateResult::compute(
            &pop,
            &[AttrId(0)],
        )]);
        let rows: Vec<usize> = (0..pop.len()).step_by(4).collect();
        let sample = pop.select_rows(&rows);
        let world = Arc::new(ThemisSession::new(Themis::build(
            sample,
            aggregates,
            pop.len() as f64,
            ThemisConfig::default(),
        )));
        let server =
            ThemisServer::bind("127.0.0.1:0", world, ServerConfig::default()).expect("bind");
        let handle = server.handle();
        let addr = server.local_addr().to_string();
        let results = rayon::Pool::new(2)
            .try_par_indexed(2, |task| {
                if task == 0 {
                    server.serve().map_err(|e| format!("serve failed: {e}"))
                } else {
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        let mut s = Session::new();
                        let Outcome::Continue(out) = s.handle(&format!("\\connect {addr}"))
                        else {
                            panic!("connect")
                        };
                        assert!(out.contains("connected to"), "{out}");
                        // SQL travels the wire; the footer names the server.
                        let Outcome::Continue(out) =
                            s.handle("SELECT a, COUNT(*) AS n FROM t GROUP BY a")
                        else {
                            panic!("sql")
                        };
                        assert!(out.contains(&format!("ms on {addr}")), "{out}");
                        let Outcome::Continue(route) = s.handle("\\route") else {
                            panic!("route")
                        };
                        assert!(!route.contains("no query executed yet"), "{route}");
                        // Explain is answered by the server too.
                        let Outcome::Continue(out) =
                            s.handle("\\explain SELECT COUNT(*) AS n FROM t")
                        else {
                            panic!("explain")
                        };
                        assert!(out.contains("route:"), "{out}");
                        // Governance commands become per-connection `set`s.
                        let Outcome::Continue(out) = s.handle("\\budget rows 1") else {
                            panic!("budget")
                        };
                        assert!(out.contains("governance on"), "{out}");
                        let Outcome::Continue(out) = s.handle("SELECT COUNT(*) AS n FROM t")
                        else {
                            panic!("strict sql")
                        };
                        assert!(out.contains("row budget exceeded"), "{out}");
                        s.handle("\\budget off");
                        let Outcome::Continue(out) = s.handle("SELECT COUNT(*) AS n FROM t")
                        else {
                            panic!("recovered sql")
                        };
                        assert!(out.contains("-- "), "{out}");
                        // Server counters are one command away.
                        let Outcome::Continue(out) = s.handle("\\stats") else {
                            panic!("stats")
                        };
                        assert!(out.contains("\"queries\""), "{out}");
                        // …and so is the metrics registry export.
                        let Outcome::Continue(out) = s.handle("\\metrics") else {
                            panic!("metrics")
                        };
                        assert!(out.contains("\"server.queries\""), "{out}");
                        assert!(out.contains("\"server.query_latency_us\""), "{out}");
                        assert!(out.contains("\"p99_us\""), "{out}");
                        // `\ingest` travels the wire: the server's world
                        // moves to a new generation for every connection.
                        let Outcome::Continue(out) = s.handle("\\ingest t 1,2") else {
                            panic!("ingest")
                        };
                        assert!(out.contains("ingested 1 rows into t"), "{out}");
                        assert!(out.contains("generation 1"), "{out}");
                        let Outcome::Continue(out) = s.handle("\\ingest t 9,9") else {
                            panic!("bad ingest")
                        };
                        assert!(out.contains("unknown label '9'"), "{out}");
                        // `\cache stats` shows the server's live counters.
                        let Outcome::Continue(out) = s.handle("\\cache stats") else {
                            panic!("cache stats")
                        };
                        assert!(out.contains("\"batches\":1"), "{out}");
                        // `\trace on` travels as the `"trace":true` flag.
                        s.handle("\\trace on");
                        let Outcome::Continue(out) =
                            s.handle("SELECT a, COUNT(*) AS n FROM t GROUP BY a")
                        else {
                            panic!("traced sql")
                        };
                        assert!(out.contains("trace:"), "{out}");
                        assert!(out.contains("query ["), "{out}");
                        assert!(out.contains("rows_scanned="), "{out}");
                        s.handle("\\trace off");
                        let Outcome::Continue(out) = s.handle("\\disconnect") else {
                            panic!("disconnect")
                        };
                        assert!(out.contains("disconnected"), "{out}");
                        // Back on the local (unbuilt) model.
                        let Outcome::Continue(out) = s.handle("SELECT COUNT(*) AS n FROM t")
                        else {
                            panic!("local sql")
                        };
                        assert!(out.contains("\\build"), "{out}");
                    }));
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

    #[test]
    fn connect_usage_and_disconnect_without_connection() {
        let mut s = Session::new();
        assert!(matches!(
            s.handle("\\connect"),
            Outcome::Continue(ref m) if m.contains("usage")
        ));
        assert!(matches!(
            s.handle("\\disconnect"),
            Outcome::Continue(ref m) if m.contains("not connected")
        ));
        assert!(matches!(
            s.handle("\\stats"),
            Outcome::Continue(ref m) if m.contains("not connected")
        ));
        assert!(matches!(
            s.handle("\\metrics"),
            Outcome::Continue(ref m) if m.contains("not connected")
        ));
    }

    #[test]
    fn bad_specs_are_reported() {
        let mut s = Session::new();
        let out = s.handle("\\load t nowhere.csv cat,banana");
        assert!(matches!(out, Outcome::Continue(ref m) if m.contains("bad column spec")));
    }
}
