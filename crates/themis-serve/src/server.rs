//! The TCP server: one shared immutable world, a session per connection.
//!
//! ## One world, many sessions
//!
//! A [`ThemisServer`] holds a single `Arc<ThemisSession>` — catalog, BN,
//! and the cached K forward-sample replicates behind the session's
//! `OnceLock`. The first query that needs the replicates pays the
//! simulation once; every connection after that shares the same `Arc`s.
//! Queries take `&self` all the way down and never contend: the `ingest`
//! op grows the world by swapping in a new generation behind the session's
//! `RwLock`, while in-flight queries finish on the generation they pinned.
//!
//! ## Threading
//!
//! All threading goes through `shims/rayon` (the workspace's only
//! sanctioned threading primitive). [`ThemisServer::serve`] runs `workers`
//! accept loops on one [`rayon::Pool`]; each worker owns one connection at
//! a time, reading request lines and writing response lines in order.
//! `serve` therefore **blocks** until [`ServerHandle::shutdown`] —
//! orchestrate it from another pool task:
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use themis_serve::{ServerConfig, ThemisServer};
//! # fn world() -> Arc<themis_core::ThemisSession> { unimplemented!() }
//! let server = ThemisServer::bind("127.0.0.1:0", world(), ServerConfig::default())?;
//! let handle = server.handle();
//! rayon::Pool::new(2).try_par_indexed(2, |task| {
//!     if task == 0 {
//!         let _ = server.serve(); // blocks until shutdown
//!     } else {
//!         // … drive clients against server.local_addr(), then:
//!         handle.shutdown();
//!     }
//! })
//! .map_err(|p| std::io::Error::other(p.message))?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ## Governance is policy here
//!
//! The mechanism (deadlines, budgets, cancellation, degradation) lives in
//! the engines; the server layers *policy* on top: every connection starts
//! from [`ServerConfig::default_limits`], may tighten or clear them with
//! `set`, and every query passes admission control first — at most
//! [`ServerConfig::max_concurrent_queries`] queries execute at once, the
//! rest are refused with a typed `busy` error rather than queued into a
//! latency collapse.

use crate::json::Json;
use crate::protocol::{
    answer_body_with_trace, error_body, explain_body, ingest_body, parse_request, set_body,
    themis_error_body, Request,
};
use crate::stats::ServerStats;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use themis_core::{
    saturating_micros, EngineOptions, FaultPlan, Limits, ThemisSession, TraceSink,
};
use themis_obs::Gauge;

/// Server policy knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Accept-loop workers — the maximum number of simultaneously served
    /// connections (a session-per-connection model: each worker owns one
    /// connection until it disconnects; further connections wait in the
    /// listen backlog).
    pub workers: usize,
    /// Admission control: queries executing at once across all
    /// connections. Excess queries receive a typed `busy` error.
    pub max_concurrent_queries: usize,
    /// Governance limits every connection starts from (connections may
    /// adjust their own with the `set` op).
    pub default_limits: Limits,
    /// Engine worker threads per query.
    pub threads: usize,
    /// Rows per morsel.
    pub morsel_rows: usize,
    /// Longest accepted request line in bytes; longer lines are discarded
    /// and answered with a typed `oversized` error.
    pub max_line_bytes: usize,
    /// Honor `fault` members of `set` requests (deterministic fault
    /// injection for tests). Keep `false` in production configurations.
    pub allow_fault_injection: bool,
}

impl Default for ServerConfig {
    /// Four connection workers, four concurrent queries, unlimited
    /// governance, single-threaded engine, 64 KiB lines, no fault
    /// injection.
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_concurrent_queries: 4,
            default_limits: Limits::default(),
            threads: 1,
            morsel_rows: themis_query::DEFAULT_MORSEL_ROWS,
            max_line_bytes: 64 * 1024,
            allow_fault_injection: false,
        }
    }
}

/// A clonable handle for stopping a running server from another task.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral `127.0.0.1:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request shutdown: accept loops stop taking connections and
    /// [`ThemisServer::serve`] returns once in-flight connections finish.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake one accept-blocked worker; workers cascade the wake to each
        // other as they exit.
        let _ = TcpStream::connect(self.addr);
    }
}

/// One read attempt from a connection.
enum Frame {
    /// A complete request line (newline stripped).
    Line(Vec<u8>),
    /// The line exceeded the configured maximum and was discarded.
    Oversized,
    /// The client closed the connection.
    Eof,
}

/// The server: a bound listener plus the shared world it serves.
#[derive(Debug)]
pub struct ThemisServer {
    world: Arc<ThemisSession>,
    config: ServerConfig,
    listener: TcpListener,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: ServerStats,
}

impl ThemisServer {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral port) around one
    /// shared world.
    pub fn bind(
        addr: impl ToSocketAddrs,
        world: Arc<ThemisSession>,
        config: ServerConfig,
    ) -> io::Result<ThemisServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(ThemisServer {
            world,
            config,
            listener,
            addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: ServerStats::new(),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop this server from another task.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Run the accept loops. **Blocks** until [`ServerHandle::shutdown`];
    /// see the module docs for the two-task orchestration pattern.
    pub fn serve(&self) -> io::Result<()> {
        let workers = self.config.workers.max(1);
        rayon::Pool::new(workers)
            .try_par_indexed(workers, |_| self.worker_loop())
            .map_err(|p| io::Error::other(format!("server worker panicked: {}", p.message)))?;
        Ok(())
    }

    /// One accept loop: take a connection, serve it to completion, repeat
    /// until shutdown.
    fn worker_loop(&self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.wake_peer();
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        // The wake connection (or a late client); either
                        // way, pass the wake along and exit.
                        drop(stream);
                        self.wake_peer();
                        return;
                    }
                    self.stats.connections.inc();
                    self.serve_connection(stream);
                }
                Err(_) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        self.wake_peer();
                        return;
                    }
                    // Transient accept failure: back off briefly instead of
                    // spinning.
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }

    /// Cascade a shutdown wake to the next accept-blocked worker.
    fn wake_peer(&self) {
        let _ = TcpStream::connect(self.addr);
    }

    /// Serve one connection: read request lines, write one response line
    /// per request, in order, until EOF or an I/O error.
    fn serve_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        // Per-connection policy: start from the server defaults, adjustable
        // via `set`. `threads`/`morsel_rows` come from config so every
        // connection's answers are bit-identical to a session configured
        // the same way.
        let mut engine = EngineOptions {
            threads: self.config.threads.max(1),
            morsel_rows: self.config.morsel_rows.max(1),
            limits: self.config.default_limits.clone(),
            cancel: None,
            fault_plan: FaultPlan::None,
            // Tracing is per-request: `dispatch` runs queries sent with
            // `"trace": true` through `analyze_with`, which brings its own
            // enabled sink.
            trace: TraceSink::disabled(),
        };
        loop {
            let frame = match read_frame(&mut reader, self.config.max_line_bytes) {
                Ok(f) => f,
                Err(_) => return,
            };
            let body = match frame {
                Frame::Eof => return,
                Frame::Oversized => error_body(
                    "oversized",
                    &format!(
                        "request line exceeds {} bytes",
                        self.config.max_line_bytes
                    ),
                    None,
                ),
                Frame::Line(bytes) => {
                    let Ok(text) = String::from_utf8(bytes) else {
                        if write_line(
                            &mut writer,
                            &error_body("malformed", "request line is not UTF-8", None),
                        )
                        .is_err()
                        {
                            return;
                        }
                        continue;
                    };
                    // Blank lines are keep-alive no-ops: no response.
                    if text.trim().is_empty() {
                        continue;
                    }
                    self.dispatch(&text, &mut engine)
                }
            };
            if write_line(&mut writer, &body).is_err() {
                return;
            }
        }
    }

    /// Execute one request line and build its response body.
    fn dispatch(&self, text: &str, engine: &mut EngineOptions) -> Json {
        let parsed = match Json::parse(text) {
            Ok(j) => j,
            Err(e) => return error_body("malformed", &format!("invalid JSON: {e}"), None),
        };
        let request = match parse_request(&parsed) {
            Ok(r) => r,
            Err(message) => return error_body("malformed", &message, None),
        };
        match request {
            Request::Query { sql, trace } => {
                let Some(_permit) = Permit::acquire(
                    &self.stats.active_queries,
                    self.config.max_concurrent_queries,
                ) else {
                    self.stats.busy_rejections.inc();
                    return error_body(
                        "busy",
                        &format!(
                            "server at capacity ({} concurrent queries)",
                            self.config.max_concurrent_queries
                        ),
                        None,
                    );
                };
                self.stats.queries.inc();
                // Tracing is per-request: `analyze_with` collects into its
                // own sink, never the connection's options.
                let outcome = if trace {
                    self.world
                        .analyze_with(&sql, engine)
                        .map(|analyzed| (analyzed.answer, Some(analyzed.trace)))
                } else {
                    self.world.sql_with(&sql, engine).map(|answer| (answer, None))
                };
                match outcome {
                    Ok((answer, query_trace)) => {
                        self.stats.record_route(&answer.route);
                        self.stats
                            .query_latency_us
                            .record(saturating_micros(answer.elapsed));
                        answer_body_with_trace(&answer, query_trace.as_ref())
                    }
                    Err(err) => {
                        self.stats.record_error(&err);
                        themis_error_body(&err)
                    }
                }
            }
            Request::Explain { sql } => match self.world.explain_with(&sql, engine) {
                Ok(explain) => explain_body(&explain),
                Err(err) => themis_error_body(&err),
            },
            Request::Set(set) => {
                set.apply(engine, self.config.allow_fault_injection);
                set_body(engine)
            }
            Request::Ingest { table, rows } => match self.world.ingest(&table, &rows) {
                Ok(report) => ingest_body(&report),
                // Ingest errors are not query errors: they carry their own
                // kind and stay out of the query counters.
                Err(err) => themis_error_body(&err),
            },
            Request::Stats => self.stats.body(self.world.live_stats()),
        }
    }
}

/// An admission permit: holds one slot of the concurrent-query gauge,
/// released on drop (success *and* error paths alike).
struct Permit<'a> {
    gauge: &'a Gauge,
}

impl<'a> Permit<'a> {
    fn acquire(gauge: &'a Gauge, max: usize) -> Option<Permit<'a>> {
        gauge.try_inc_below(max as u64).then(|| Permit { gauge })
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gauge.dec();
    }
}

/// Read one `\n`-terminated line of at most `max` bytes. Longer lines are
/// drained to their newline and reported as [`Frame::Oversized`] so the
/// connection can keep being used.
fn read_frame(reader: &mut BufReader<TcpStream>, max: usize) -> io::Result<Frame> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(Frame::Line(buf));
    }
    if buf.len() > max {
        // Drain the oversized line in bounded chunks (never buffering it).
        loop {
            let mut scratch = Vec::new();
            let n = reader
                .by_ref()
                .take(4096)
                .read_until(b'\n', &mut scratch)?;
            if n == 0 || scratch.last() == Some(&b'\n') {
                break;
            }
        }
        return Ok(Frame::Oversized);
    }
    // EOF arrived mid-line within budget: serve the partial line; the next
    // read reports EOF.
    Ok(Frame::Line(buf))
}

/// Serialize `body` and write it as one response line.
fn write_line(writer: &mut TcpStream, body: &Json) -> io::Result<()> {
    let mut line = body.to_string();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}
