//! Query governance: cooperative deadlines, cancellation, and budgets.
//!
//! A long-lived process serving many sessions cannot let one pathological
//! query (a cross-join blowup, a huge GROUP BY key space) run unboundedly or
//! abort the process. This module is the governance layer both engines share:
//!
//! * [`Limits`] — a wall-clock deadline, a row budget, and a group budget,
//!   carried in [`crate::EngineOptions`];
//! * [`CancelToken`] — a shared flag another thread (a Ctrl-C handler, a
//!   server connection reaper) can set to stop a running query;
//! * [`QueryGuard`] — the per-execution state: it arms the deadline at query
//!   start and is checked **cooperatively** at morsel boundaries and every
//!   [`GUARD_STRIDE`] folded rows. Nothing is killed from outside; workers
//!   observe the guard and return a typed
//!   [`ExecError::Governed`].
//! * [`FaultPlan`] — deterministic fault injection (slow morsel, worker
//!   panic at morsel N, instant budget exhaustion) so every failure path is
//!   reachable from tests on both engines.
//!
//! ## Determinism
//!
//! Row budgets charge *exact* row counts per morsel, so the total charged is
//! identical no matter how many threads run: a row budget trips if and only
//! if the query examines more rows than the limit, on either engine. Group
//! budgets are checked against the final distinct-group count (plus early
//! per-morsel checks, which can only fire when the final check would too).
//! Deadlines and cancellation are inherently wall-clock/racy, but always
//! produce the same typed error when they fire.

use crate::exec::ExecError;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows folded between cooperative cancel/deadline checks (and budget
/// flushes) inside a morsel. Small enough to bound overrun, large enough to
/// keep the guard off the per-row hot path.
pub const GUARD_STRIDE: u64 = 1024;

/// Cooperative resource limits for one query execution. All `None` by
/// default: an unlimited guard compiles to a handful of untaken branches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Limits {
    /// Wall-clock budget, armed when execution starts.
    pub deadline: Option<Duration>,
    /// Maximum input rows examined (scan rows; for joins: build rows +
    /// probe rows + joined pairs folded).
    pub max_rows: Option<u64>,
    /// Maximum distinct groups materialized (before LIMIT truncation).
    pub max_groups: Option<usize>,
}

impl Limits {
    /// True when no limit is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_rows.is_none() && self.max_groups.is_none()
    }

    /// One-line description for shells and status displays.
    pub fn describe(&self) -> String {
        if self.is_unlimited() {
            return "off".to_string();
        }
        let mut parts = Vec::new();
        if let Some(d) = self.deadline {
            parts.push(format!("deadline {:.0}ms", d.as_secs_f64() * 1e3));
        }
        if let Some(n) = self.max_rows {
            parts.push(format!("max {n} rows"));
        }
        if let Some(n) = self.max_groups {
            parts.push(format!("max {n} groups"));
        }
        parts.join(", ")
    }
}

/// A shared cancellation flag. Clones observe the same flag; cancelling is
/// idempotent and visible to every execution carrying a clone.
///
/// Cancellation is *cooperative*: running queries observe the token at
/// morsel/stride boundaries and return
/// [`Trip::Cancelled`] — no thread is ever killed.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation of every execution carrying a clone of this
    /// token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Tokens compare by identity: two tokens are equal iff they share the flag.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// Deterministic fault injection, carried in [`crate::EngineOptions`].
/// Production configurations leave this at [`FaultPlan::None`]; tests use it
/// to make every governance failure path reachable on both engines.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FaultPlan {
    /// No injected faults.
    #[default]
    None,
    /// Sleep `delay` at the start of morsel `morsel` (exercises deadlines).
    SlowMorsel {
        /// Zero-based morsel index (row offset / `morsel_rows`).
        morsel: u64,
        /// How long the morsel stalls.
        delay: Duration,
    },
    /// Panic inside the worker processing morsel `morsel` (exercises panic
    /// containment; surfaces as [`ExecError::Internal`]).
    PanicAtMorsel {
        /// Zero-based morsel index.
        morsel: u64,
    },
    /// Trip the row budget at the first morsel boundary, regardless of the
    /// configured limit.
    BudgetExhaust,
}

/// Why a governed query was stopped. Carried inside
/// [`ExecError::Governed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// The configured deadline passed.
    Deadline,
    /// The query's [`CancelToken`] was cancelled.
    Cancelled,
    /// More rows examined than [`Limits::max_rows`].
    RowBudget {
        /// The configured limit.
        limit: u64,
    },
    /// More distinct groups materialized than [`Limits::max_groups`].
    GroupBudget {
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for Trip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trip::Deadline => write!(f, "deadline exceeded"),
            Trip::Cancelled => write!(f, "cancelled"),
            Trip::RowBudget { limit } => write!(f, "row budget exceeded (limit {limit})"),
            Trip::GroupBudget { limit } => write!(f, "group budget exceeded (limit {limit})"),
        }
    }
}

impl From<Trip> for ExecError {
    fn from(t: Trip) -> Self {
        ExecError::Governed(t)
    }
}

/// Per-execution governance state, armed from [`crate::EngineOptions`] when
/// execution starts and shared by reference across all workers.
///
/// All checks are cooperative and cheap: an unarmed guard (no limits, no
/// token, no faults) short-circuits on one boolean.
#[derive(Debug)]
pub struct QueryGuard {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    max_rows: Option<u64>,
    max_groups: Option<usize>,
    /// Rows charged so far, shared across workers. Morsels charge exact
    /// counts, so the total — and therefore whether the budget trips — is
    /// thread-count independent.
    rows: AtomicU64,
    fault: FaultPlan,
    /// False when nothing can trip; every check short-circuits.
    active: bool,
}

impl QueryGuard {
    /// Arm a guard from engine options: the deadline clock starts now.
    pub fn arm(opts: &crate::EngineOptions) -> Self {
        let l = &opts.limits;
        QueryGuard {
            deadline: l.deadline.map(|d| Instant::now() + d),
            cancel: opts.cancel.clone(),
            max_rows: l.max_rows,
            max_groups: l.max_groups,
            rows: AtomicU64::new(0),
            fault: opts.fault_plan.clone(),
            active: !l.is_unlimited()
                || opts.cancel.is_some()
                || opts.fault_plan != FaultPlan::None,
        }
    }

    /// Cancel/deadline check; called at morsel boundaries and every
    /// [`GUARD_STRIDE`] folded rows.
    pub fn check(&self) -> Result<(), ExecError> {
        if !self.active {
            return Ok(());
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(Trip::Cancelled.into());
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Trip::Deadline.into());
            }
        }
        Ok(())
    }

    /// Boundary hook at the start of morsel `morsel`. Both engines number
    /// morsels identically (row offset / `morsel_rows`, per input side), so
    /// injected faults fire at the same points and produce the same typed
    /// error from either engine.
    pub fn at_morsel(&self, morsel: u64) -> Result<(), ExecError> {
        if !self.active {
            return Ok(());
        }
        match &self.fault {
            FaultPlan::SlowMorsel { morsel: m, delay } if *m == morsel => {
                std::thread::sleep(*delay);
            }
            FaultPlan::PanicAtMorsel { morsel: m } if *m == morsel => {
                // Deliberate: this is the injected worker-panic fault. The
                // pool's catch_unwind containment turns it into
                // ExecError::Internal; tests assert no panic ever escapes.
                // themis-lint: allow(no-panic-in-libs) reason=test-only injected fault from FaultPlan::PanicAtMorsel; contained by the pool's catch_unwind and surfaced as ExecError::Internal
                panic!("injected worker panic at morsel {morsel}");
            }
            FaultPlan::BudgetExhaust => {
                return Err(Trip::RowBudget {
                    limit: self.max_rows.unwrap_or(0),
                }
                .into());
            }
            _ => {}
        }
        self.check()
    }

    /// Charge `n` examined rows against the row budget.
    pub fn charge_rows(&self, n: u64) -> Result<(), ExecError> {
        if !self.active || n == 0 {
            return Ok(());
        }
        let Some(limit) = self.max_rows else {
            return Ok(());
        };
        let total = self.rows.fetch_add(n, Ordering::Relaxed) + n;
        if total > limit {
            return Err(Trip::RowBudget { limit }.into());
        }
        Ok(())
    }

    /// Check a distinct-group count against the group budget. Called with
    /// per-morsel counts (early exit; a subset of the final count) and with
    /// the final merged count.
    pub fn check_groups(&self, count: usize) -> Result<(), ExecError> {
        if !self.active {
            return Ok(());
        }
        if let Some(limit) = self.max_groups {
            if count > limit {
                return Err(Trip::GroupBudget { limit }.into());
            }
        }
        Ok(())
    }
}

/// Per-morsel row meter: counts folded rows locally and flushes exact
/// charges (plus a cancel/deadline check) every [`GUARD_STRIDE`] rows, so
/// the shared atomic is touched at stride granularity, not per row.
pub(crate) struct RowMeter<'g> {
    guard: &'g QueryGuard,
    pending: u64,
    /// Flushes that actually ran a cooperative check. Together with the
    /// one `at_morsel` check per morsel this is the trace's `guard_checks`
    /// counter — a pure function of the rows the morsel examined, so it is
    /// identical at every thread count (unlike e.g. the join build's
    /// per-partition checks, which scale with the pool size and are
    /// deliberately *not* counted).
    checks: u64,
}

impl<'g> RowMeter<'g> {
    pub(crate) fn new(guard: &'g QueryGuard) -> Self {
        RowMeter {
            guard,
            pending: 0,
            checks: 0,
        }
    }

    /// Count one examined row.
    #[inline]
    pub(crate) fn tick(&mut self) -> Result<(), ExecError> {
        self.pending += 1;
        if self.pending >= GUARD_STRIDE {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Count `n` examined rows at once: a kernel stride of at most
    /// [`GUARD_STRIDE`] rows, starting on a stride boundary, so the meter
    /// flushes exactly where `n` calls to [`RowMeter::tick`] would.
    #[inline]
    pub(crate) fn tick_stride(&mut self, n: u64) -> Result<(), ExecError> {
        self.pending += n;
        if self.pending >= GUARD_STRIDE {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Charge pending rows and run the cooperative check. Called at stride
    /// boundaries and at the end of each morsel, so charges are exact.
    pub(crate) fn flush(&mut self) -> Result<(), ExecError> {
        if self.pending > 0 {
            self.checks += 1;
            self.guard.charge_rows(self.pending)?;
            self.pending = 0;
            self.guard.check()?;
        }
        Ok(())
    }

    /// Cooperative checks this meter has run (for trace counters).
    pub(crate) fn checks(&self) -> u64 {
        self.checks
    }
}

/// Run `f` with panics contained: a panic below (e.g. an injected
/// [`FaultPlan::PanicAtMorsel`] on the serial engine, which has no pool to
/// contain it) surfaces as [`ExecError::Internal`] with the same message the
/// parallel engine produces for a contained worker panic, so the engines
/// stay error-identical.
pub(crate) fn contain_panics<R>(f: impl FnOnce() -> Result<R, ExecError>) -> Result<R, ExecError> {
    // AssertUnwindSafe: on panic every partial result is discarded and only
    // the typed error escapes, so no broken invariant is observable.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(ExecError::Internal(format!("worker panicked: {message}")))
        }
    }
}

/// The parallel engine's mapping from a contained pool panic to the same
/// typed error [`contain_panics`] produces on the serial engine. The task
/// index is deliberately dropped: the engines must return *identical*
/// errors for the same injected fault.
pub(crate) fn task_panic_error(p: rayon::TaskPanic) -> ExecError {
    ExecError::Internal(format!("worker panicked: {}", p.message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineOptions;

    #[test]
    fn unarmed_guard_never_trips() {
        let g = QueryGuard::arm(&EngineOptions::with_threads(2));
        assert!(g.check().is_ok());
        assert!(g.at_morsel(0).is_ok());
        assert!(g.charge_rows(u64::MAX / 2).is_ok());
        assert!(g.check_groups(usize::MAX).is_ok());
    }

    #[test]
    fn row_budget_trips_exactly_past_the_limit() {
        let opts = EngineOptions {
            limits: Limits {
                max_rows: Some(100),
                ..Limits::default()
            },
            ..EngineOptions::default()
        };
        let g = QueryGuard::arm(&opts);
        assert!(g.charge_rows(100).is_ok());
        assert_eq!(
            g.charge_rows(1),
            Err(ExecError::Governed(Trip::RowBudget { limit: 100 }))
        );
    }

    #[test]
    fn cancellation_is_shared_and_idempotent() {
        let token = CancelToken::new();
        let opts = EngineOptions {
            cancel: Some(token.clone()),
            ..EngineOptions::default()
        };
        let g = QueryGuard::arm(&opts);
        assert!(g.check().is_ok());
        token.cancel();
        token.cancel();
        assert_eq!(g.check(), Err(ExecError::Governed(Trip::Cancelled)));
        assert!(token == token.clone());
        assert!(token != CancelToken::new());
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let opts = EngineOptions {
            limits: Limits {
                deadline: Some(Duration::ZERO),
                ..Limits::default()
            },
            ..EngineOptions::default()
        };
        let g = QueryGuard::arm(&opts);
        assert_eq!(g.check(), Err(ExecError::Governed(Trip::Deadline)));
    }

    #[test]
    fn group_budget_checks_counts() {
        let opts = EngineOptions {
            limits: Limits {
                max_groups: Some(3),
                ..Limits::default()
            },
            ..EngineOptions::default()
        };
        let g = QueryGuard::arm(&opts);
        assert!(g.check_groups(3).is_ok());
        assert_eq!(
            g.check_groups(4),
            Err(ExecError::Governed(Trip::GroupBudget { limit: 3 }))
        );
    }

    #[test]
    fn budget_exhaust_fault_trips_at_first_boundary() {
        let opts = EngineOptions {
            fault_plan: FaultPlan::BudgetExhaust,
            ..EngineOptions::default()
        };
        let g = QueryGuard::arm(&opts);
        assert_eq!(
            g.at_morsel(0),
            Err(ExecError::Governed(Trip::RowBudget { limit: 0 }))
        );
    }

    #[test]
    fn limits_describe_reads_well() {
        assert_eq!(Limits::default().describe(), "off");
        let l = Limits {
            deadline: Some(Duration::from_millis(250)),
            max_rows: Some(1000),
            max_groups: None,
        };
        assert_eq!(l.describe(), "deadline 250ms, max 1000 rows");
    }

    #[test]
    fn trip_messages_are_specific() {
        assert_eq!(Trip::Deadline.to_string(), "deadline exceeded");
        assert_eq!(
            Trip::RowBudget { limit: 7 }.to_string(),
            "row budget exceeded (limit 7)"
        );
        assert_eq!(
            Trip::GroupBudget { limit: 2 }.to_string(),
            "group budget exceeded (limit 2)"
        );
        assert_eq!(Trip::Cancelled.to_string(), "cancelled");
    }
}
