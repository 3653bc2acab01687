//! A blocking wire-protocol client.
//!
//! [`Client`] speaks the line-delimited JSON protocol over one
//! `TcpStream`: each method writes one request line and reads exactly one
//! response line. Transport failures are [`ClientError`]; server-reported
//! failures (parse errors, governance trips, `busy`) come back as
//! [`WireError`] *values* in the inner `Result`, so callers — the
//! differential suite above all — can compare them against an oracle
//! instead of losing them to a stringly error channel.

use crate::json::Json;
use crate::protocol::{
    decode_answer, decode_error, decode_explain, decode_ingest, ingest_to_json, request_line,
    set_to_json, trace_from_json, SetRequest, WireAnswer, WireError,
};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use themis_core::{Explain, IngestReport, QueryTrace};

/// A transport or protocol failure (not a server-reported error).
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The server sent something the protocol decoder rejects.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The outcome of one request: transport-level `Err` outside, server-level
/// `Err` inside.
pub type Outcome<T> = Result<Result<T, WireError>, ClientError>;

/// A blocking connection to a [`crate::ThemisServer`].
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Send one raw line and read one raw response line (no JSON
    /// interpretation) — the golden tests drive malformed and oversized
    /// inputs through this. Do not send blank lines: the server ignores
    /// them without responding and this call would block.
    pub fn roundtrip_raw(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Send a request object and parse the response object.
    pub fn roundtrip(&mut self, request: &Json) -> Result<Json, ClientError> {
        let line = self.roundtrip_raw(&request.to_string())?;
        Json::parse(&line).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn request<T>(
        &mut self,
        line: String,
        decode: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Outcome<T> {
        let response = self.roundtrip_raw(&line)?;
        let j = Json::parse(&response).map_err(|e| ClientError::Protocol(e.to_string()))?;
        match j.get("ok").and_then(Json::as_bool) {
            Some(true) => decode(&j).map(Ok).map_err(ClientError::Protocol),
            Some(false) => decode_error(&j).map(Err).map_err(ClientError::Protocol),
            None => Err(ClientError::Protocol(
                "response has no boolean \"ok\"".to_string(),
            )),
        }
    }

    /// Execute SQL; the inner `Ok` carries rows + route + server-side
    /// timing, the inner `Err` the server's typed error.
    pub fn query(&mut self, sql: &str) -> Outcome<WireAnswer> {
        self.request(request_line("query", sql), decode_answer)
    }

    /// Execute SQL with `"trace":true`: the answer plus the server-side
    /// span tree. The answer is bit-identical to an untraced [`Client::query`].
    pub fn query_traced(&mut self, sql: &str) -> Outcome<(WireAnswer, QueryTrace)> {
        let line = Json::Obj(vec![
            ("op".to_string(), Json::Str("query".to_string())),
            ("sql".to_string(), Json::Str(sql.to_string())),
            ("trace".to_string(), Json::Bool(true)),
        ])
        .to_string();
        self.request(line, |j| {
            let answer = decode_answer(j)?;
            let trace = trace_from_json(
                j.get("trace")
                    .ok_or_else(|| "traced answer needs a \"trace\" array".to_string())?,
            )?;
            Ok((answer, trace))
        })
    }

    /// Ask for the routing decision without executing.
    pub fn explain(&mut self, sql: &str) -> Outcome<Explain> {
        self.request(request_line("explain", sql), decode_explain)
    }

    /// Append labeled rows to the server's shared world (a new generation
    /// visible to every connection); returns the server's ingest report.
    pub fn ingest(&mut self, table: &str, rows: &[Vec<String>]) -> Outcome<IngestReport> {
        self.request(ingest_to_json(table, rows).to_string(), decode_ingest)
    }

    /// Adjust this connection's engine options; returns the server's echo
    /// of the effective options.
    pub fn set(&mut self, set: &SetRequest) -> Outcome<Json> {
        self.request(set_to_json(set).to_string(), |j| {
            j.get("engine")
                .cloned()
                .ok_or_else(|| "set response needs an \"engine\" object".to_string())
        })
    }

    /// Fetch the server's metrics: every counter, gauge and histogram,
    /// sorted by name (see [`crate::stats::ServerStats::body`]).
    pub fn stats(&mut self) -> Outcome<Json> {
        self.request(
            Json::Obj(vec![("op".to_string(), Json::Str("stats".to_string()))]).to_string(),
            |j| {
                j.get("stats")
                    .cloned()
                    .ok_or_else(|| "stats response needs a \"stats\" object".to_string())
            },
        )
    }
}
