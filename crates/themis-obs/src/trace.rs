//! Query tracing: a span tree per query, collected through an explicit
//! [`TraceSink`] handle.
//!
//! ## Design constraints
//!
//! * **Zero cost when disabled.** A disabled sink is `None`; every method
//!   checks that one `Option` and returns. No allocation, no lock, no
//!   clock read.
//! * **Observation only.** The sink never feeds data back into execution:
//!   traced and untraced runs produce bit-identical answers.
//! * **Thread-count determinism.** Spans are opened and closed only by the
//!   query's orchestrating thread (routing, consensus, merge); engine
//!   worker threads only *add counters* to the innermost open span, one
//!   batched call per morsel. Counter sums are commutative and the morsel
//!   decomposition is fixed by `morsel_rows`, so the finished tree —
//!   names, nesting, counters, notes — is identical at every thread
//!   count. Only `elapsed_us` varies run to run.
//!
//! Counter and note keys are sorted when a span closes, so serializing a
//! trace is deterministic even though workers touch counters in arbitrary
//! order.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The largest duration in microseconds that `f64` (and therefore JSON)
/// can represent exactly: 2^53.
pub const MAX_EXACT_MICROS: u64 = 1 << 53;

/// Convert a [`Duration`] to whole microseconds, saturating at
/// [`MAX_EXACT_MICROS`] so the value survives an `f64` JSON round-trip
/// bit-identically. The naive `as_micros() as f64` silently loses
/// precision above 2^53 µs (~285 years — but a serialization layer must
/// not corrupt values silently at any magnitude).
pub fn saturating_micros(d: Duration) -> u64 {
    let us = d.as_micros();
    if us >= u128::from(MAX_EXACT_MICROS) {
        MAX_EXACT_MICROS
    } else {
        us as u64
    }
}

/// One finished span: a named region of query execution with its wall
/// time, counters, notes, and child spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Region name (`"parse"`, `"route"`, `"execute_parallel"`, …).
    pub name: String,
    /// Wall time, saturated via [`saturating_micros`]. The only
    /// nondeterministic field.
    pub elapsed_us: u64,
    /// Counter totals, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// String annotations, sorted by key.
    pub notes: Vec<(String, String)>,
    /// Nested child spans, in open order.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// Look up a counter by key.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    /// Look up a note by key.
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A finished query trace: the root spans in open order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryTrace {
    /// Root spans (usually one per query phase).
    pub spans: Vec<TraceSpan>,
}

impl QueryTrace {
    /// True when nothing was recorded (e.g. the sink was disabled).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Depth-first search for the first span with `name`.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        fn dfs<'a>(spans: &'a [TraceSpan], name: &str) -> Option<&'a TraceSpan> {
            for s in spans {
                if s.name == name {
                    return Some(s);
                }
                if let Some(hit) = dfs(&s.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        dfs(&self.spans, name)
    }

    /// A canonical fingerprint of everything deterministic in the trace:
    /// span names, nesting, counters, and notes — **not** wall times.
    /// Two runs of the same query at different thread counts must yield
    /// equal structures (`tests/session_differential.rs` enforces it).
    pub fn structure(&self) -> String {
        fn span(out: &mut String, s: &TraceSpan) {
            out.push_str(&s.name);
            out.push('{');
            for (i, (k, v)) in s.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push('=');
                out.push_str(&v.to_string());
            }
            out.push(';');
            for (i, (k, v)) in s.notes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push('=');
                out.push_str(v);
            }
            out.push('}');
            if !s.children.is_empty() {
                out.push('(');
                for (i, c) in s.children.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    span(out, c);
                }
                out.push(')');
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            span(&mut out, s);
        }
        out
    }

    /// Human-readable indented tree (the REPL's `\trace` output).
    pub fn render(&self) -> String {
        fn span(out: &mut String, s: &TraceSpan, depth: usize) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&s.name);
            out.push_str(&format!(" [{} us]", s.elapsed_us));
            for (k, v) in &s.counters {
                out.push_str(&format!(" {k}={v}"));
            }
            for (k, v) in &s.notes {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            for c in &s.children {
                span(out, c, depth + 1);
            }
        }
        let mut out = String::new();
        for s in &self.spans {
            span(&mut out, s, 0);
        }
        out
    }
}

/// A span still being recorded.
#[derive(Debug)]
struct OpenSpan {
    name: String,
    started: Instant,
    counters: Vec<(String, u64)>,
    notes: Vec<(String, String)>,
    children: Vec<TraceSpan>,
}

impl OpenSpan {
    fn close(mut self) -> TraceSpan {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.notes.sort_by(|a, b| a.0.cmp(&b.0));
        TraceSpan {
            name: self.name,
            elapsed_us: saturating_micros(self.started.elapsed()),
            counters: self.counters,
            notes: self.notes,
            children: self.children,
        }
    }
}

#[derive(Debug, Default)]
struct TraceState {
    stack: Vec<OpenSpan>,
    roots: Vec<TraceSpan>,
    /// Instrumentation calls received: see [`TraceSink::calls`].
    calls: u64,
}

impl TraceState {
    fn close_innermost(&mut self) {
        if let Some(open) = self.stack.pop() {
            let span = open.close();
            match self.stack.last_mut() {
                Some(parent) => parent.children.push(span),
                None => self.roots.push(span),
            }
        }
    }
}

/// The collection handle threaded through `EngineOptions`.
///
/// A **disabled** sink (the [`Default`]) carries no state: every call is a
/// single `Option` check. An **enabled** sink shares one span tree among
/// its clones, so cloning `EngineOptions` keeps writing into the same
/// trace. Equality is identity (like `CancelToken`): two enabled sinks are
/// equal only when they share state, and options equality stays cheap.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    state: Option<Arc<Mutex<TraceState>>>,
}

impl PartialEq for TraceSink {
    fn eq(&self, other: &Self) -> bool {
        match (&self.state, &other.state) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for TraceSink {}

impl TraceSink {
    /// The no-op sink: collects nothing, costs one `Option` check per
    /// call.
    pub fn disabled() -> TraceSink {
        TraceSink { state: None }
    }

    /// A collecting sink with a fresh, empty trace.
    pub fn enabled() -> TraceSink {
        TraceSink {
            state: Some(Arc::new(Mutex::new(TraceState::default()))),
        }
    }

    /// True when this sink collects. Instrumentation hot loops hoist this
    /// into a local so the disabled path stays branch-per-morsel, not
    /// branch-per-row.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, TraceState>> {
        let state = self.state.as_ref()?;
        match state.lock() {
            Ok(guard) => Some(guard),
            // A worker that panicked mid-add poisons the lock; the trace
            // is best-effort observability, so keep collecting.
            Err(poisoned) => Some(poisoned.into_inner()),
        }
    }

    /// `lock` for an instrumentation call, counted.
    fn lock_call(&self) -> Option<MutexGuard<'_, TraceState>> {
        let mut state = self.lock()?;
        state.calls += 1;
        Some(state)
    }

    /// How many instrumentation calls (`span`, `add`, `add_counts`,
    /// `note`) this sink has received; 0 for a disabled sink, which counts
    /// nothing. Instrumented code hoists [`TraceSink::is_enabled`] out of
    /// its hot loops, so a query makes at most as many calls on a disabled
    /// sink as it makes on an enabled one: this count bounds the calls a
    /// disabled sink costs.
    pub fn calls(&self) -> u64 {
        self.lock().map_or(0, |state| state.calls)
    }

    /// Open a span; it closes (and is attached to its parent) when the
    /// returned guard drops. Spans must nest: open/close only from the
    /// query's orchestrating thread.
    pub fn span(&self, name: &str) -> SpanGuard {
        if let Some(mut state) = self.lock_call() {
            state.stack.push(OpenSpan {
                name: name.to_string(),
                started: Instant::now(),
                counters: Vec::new(),
                notes: Vec::new(),
                children: Vec::new(),
            });
            SpanGuard {
                state: self.state.clone(),
            }
        } else {
            SpanGuard { state: None }
        }
    }

    /// Add `n` to counter `key` on the innermost open span. Worker threads
    /// may call this concurrently; sums are order-independent.
    pub fn add(&self, key: &str, n: u64) {
        self.add_counts(&[(key, n)]);
    }

    /// Batch-add several counters under one lock (one call per morsel).
    /// Counts with no open span are dropped — instrumented regions always
    /// run inside a span.
    pub fn add_counts(&self, counts: &[(&str, u64)]) {
        let Some(mut state) = self.lock_call() else {
            return;
        };
        let Some(open) = state.stack.last_mut() else {
            return;
        };
        for &(key, n) in counts {
            match open.counters.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = slot.1.saturating_add(n),
                None => open.counters.push((key.to_string(), n)),
            }
        }
    }

    /// Attach a string annotation to the innermost open span (last write
    /// per key wins).
    pub fn note(&self, key: &str, value: &str) {
        let Some(mut state) = self.lock_call() else {
            return;
        };
        let Some(open) = state.stack.last_mut() else {
            return;
        };
        match open.notes.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value.to_string(),
            None => open.notes.push((key.to_string(), value.to_string())),
        }
    }

    /// Close any spans still open and return the finished trace. The sink
    /// is empty afterwards (reusable for the next query). Disabled sinks
    /// return an empty trace.
    pub fn finish(&self) -> QueryTrace {
        let Some(mut state) = self.lock() else {
            return QueryTrace::default();
        };
        while !state.stack.is_empty() {
            state.close_innermost();
        }
        QueryTrace {
            spans: std::mem::take(&mut state.roots),
        }
    }
}

/// RAII guard for an open span: closes it on drop.
#[derive(Debug)]
pub struct SpanGuard {
    state: Option<Arc<Mutex<TraceState>>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(state) = self.state.as_ref() else {
            return;
        };
        let mut state = match state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.close_innermost();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_micros_is_exact_below_the_cap_and_saturates_above() {
        assert_eq!(saturating_micros(Duration::from_micros(0)), 0);
        assert_eq!(saturating_micros(Duration::from_micros(1234)), 1234);
        let cap = MAX_EXACT_MICROS;
        assert_eq!(saturating_micros(Duration::from_micros(cap - 1)), cap - 1);
        assert_eq!(saturating_micros(Duration::from_micros(cap)), cap);
        // Above the cap (where f64 would silently round), saturate.
        assert_eq!(saturating_micros(Duration::from_micros(cap + 1)), cap);
        assert_eq!(saturating_micros(Duration::from_secs(u64::MAX / 2)), cap);
        // The cap itself survives an f64 round-trip bit-identically.
        let through_f64 = (cap as f64) as u64;
        assert_eq!(through_f64, cap);
        // …and one past it would not (2^53 + 1 is not representable).
        assert_ne!(((cap + 1) as f64) as u64, cap + 1);
    }

    #[test]
    fn disabled_sink_collects_nothing() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        {
            let _s = sink.span("anything");
            sink.add("rows", 5);
            sink.note("k", "v");
        }
        assert!(sink.finish().is_empty());
        assert_eq!(sink, TraceSink::default());
        assert_eq!(sink.calls(), 0);
    }

    #[test]
    fn spans_nest_and_counters_sum() {
        let sink = TraceSink::enabled();
        {
            let _q = sink.span("query");
            {
                let _e = sink.span("execute");
                sink.add_counts(&[("rows", 10), ("morsels", 1)]);
                sink.add_counts(&[("rows", 7), ("morsels", 1)]);
                sink.note("engine", "parallel");
            }
            sink.add("merged", 3);
        }
        let trace = sink.finish();
        assert_eq!(trace.spans.len(), 1);
        let q = trace.find("query").expect("query span");
        assert_eq!(q.counter("merged"), Some(3));
        let e = trace.find("execute").expect("execute span");
        // Keys sorted on close; sums accumulated across batched adds.
        assert_eq!(
            e.counters,
            vec![("morsels".to_string(), 2), ("rows".to_string(), 17)]
        );
        assert_eq!(e.note("engine"), Some("parallel"));
        // Two spans, three adds and a note; neither `finish` nor `calls`
        // itself counts.
        assert_eq!(sink.calls(), 6);
        assert_eq!(sink.calls(), 6);
        // The sink is drained and reusable.
        assert!(sink.finish().is_empty());
    }

    #[test]
    fn structure_ignores_wall_time() {
        let build = || {
            let sink = TraceSink::enabled();
            {
                let _q = sink.span("query");
                let _e = sink.span("execute");
                sink.add("rows", 42);
            }
            sink.finish()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.structure(), b.structure());
        assert_eq!(a.structure(), "query{;}(execute{rows=42;})");
    }

    #[test]
    fn finish_closes_dangling_spans_and_render_indents() {
        let sink = TraceSink::enabled();
        let guard = sink.span("outer");
        sink.add("n", 1);
        let trace = sink.finish(); // outer still open: finish closes it
        drop(guard); // closing an already-drained sink is a no-op
        assert_eq!(trace.spans.len(), 1);
        let rendered = trace.render();
        assert!(rendered.starts_with("outer ["), "{rendered}");
        assert!(rendered.contains("n=1"), "{rendered}");
    }

    #[test]
    fn clones_share_state_and_equality_is_identity() {
        let sink = TraceSink::enabled();
        let clone = sink.clone();
        assert_eq!(sink, clone);
        assert_ne!(sink, TraceSink::enabled());
        assert_ne!(sink, TraceSink::disabled());
        {
            let _s = sink.span("shared");
            clone.add("via_clone", 2);
        }
        let trace = sink.finish();
        assert_eq!(
            trace.find("shared").and_then(|s| s.counter("via_clone")),
            Some(2)
        );
    }
}
