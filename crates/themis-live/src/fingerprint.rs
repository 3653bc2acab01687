//! Canonical plan fingerprints — the cache key.
//!
//! A fingerprint must satisfy one contract: **two queries share a
//! fingerprint only if their answers are bit-identical on the same
//! world generation.** It therefore covers:
//!
//! * the parsed plan, rendered canonically from the AST (keyword case and
//!   whitespace are gone after parsing; conjunctive WHERE predicates are
//!   sorted, since a conjunction is order-independent over the same row
//!   masks);
//! * the [`Limits`] in force — a row/group budget or deadline changes
//!   which answers are *possible*, so differently-governed connections
//!   never share entries;
//! * the world `generation`, bumped by every ingest — an entry that a
//!   query still pinned to the old world inserts after the ingest flushed
//!   the cache is never served on the new world;
//! * the `morsel_rows` the answer was computed at, which the session adds
//!   with [`Fingerprint::with_morsel_rows`]: the morsel engine merges
//!   morsel blocks in morsel order, so a weighted sum can differ in its
//!   last bits between two morsel sizes (see `themis_query`'s
//!   `exec_parallel` docs).
//!
//! It deliberately excludes `threads`: the differential suites
//! (`tests/exec_differential.rs`, `tests/session_differential.rs`) prove
//! answers bit-identical across thread counts at a fixed morsel size, so
//! keying on it would only shred the hit rate. Fault plans, cancel tokens,
//! and enabled trace sinks are not fingerprinted at all — they *bypass* the
//! cache entirely (see `ThemisSession`).

use std::fmt::Write as _;
use themis_query::Limits;
use themis_sql::{Predicate, Query, SelectItem};

/// A canonical cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    key: String,
}

impl Fingerprint {
    /// The canonical key string.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// This fingerprint for an answer computed at `morsel_rows` rows per
    /// morsel: answers computed at different morsel sizes never share a
    /// key.
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Fingerprint {
        let _ = write!(self.key, "|morsel:{morsel_rows}");
        self
    }
}

/// Build the fingerprint for a parsed query under the given limits and
/// world generation.
pub fn plan_fingerprint(query: &Query, limits: &Limits, generation: u64) -> Fingerprint {
    let mut key = String::with_capacity(96);
    key.push_str("plan:");
    render_query(&mut key, query);
    key.push_str("|limits:");
    render_limits(&mut key, limits);
    let _ = write!(key, "|gen:{generation}");
    Fingerprint { key }
}

fn render_query(out: &mut String, q: &Query) {
    out.push_str("SELECT ");
    for (i, item) in q.select.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match item {
            SelectItem::Column(c) => {
                let _ = write!(out, "{c}");
            }
            SelectItem::Aggregate { func, arg, alias } => {
                out.push_str(func.name());
                out.push('(');
                match arg {
                    Some(c) => {
                        let _ = write!(out, "{c}");
                    }
                    None => out.push('*'),
                }
                out.push(')');
                if let Some(a) = alias {
                    let _ = write!(out, " AS {a}");
                }
            }
        }
    }
    out.push_str(" FROM ");
    for (i, t) in q.from.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.name);
        if let Some(a) = &t.alias {
            let _ = write!(out, " {a}");
        }
    }
    // A conjunction is order-independent: every predicate masks rows and
    // the masks intersect, so sorting the rendered conjuncts makes
    // `WHERE a='1' AND b='2'` and `WHERE b='2' AND a='1'` one plan.
    let mut preds: Vec<String> = q.predicates.iter().map(render_predicate).collect();
    preds.sort();
    if !preds.is_empty() {
        out.push_str(" WHERE ");
        out.push_str(&preds.join(" AND "));
    }
    if !q.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, c) in q.group_by.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
    }
    if let Some(ob) = &q.order_by {
        let _ = write!(out, " ORDER BY {}", ob.column);
        if ob.desc {
            out.push_str(" DESC");
        }
    }
    if let Some(n) = q.limit {
        let _ = write!(out, " LIMIT {n}");
    }
}

fn render_predicate(p: &Predicate) -> String {
    match p {
        Predicate::Compare { col, op, value } => {
            let op = match op {
                themis_sql::Comparison::Eq => "=",
                themis_sql::Comparison::Ne => "<>",
                themis_sql::Comparison::Lt => "<",
                themis_sql::Comparison::Le => "<=",
                themis_sql::Comparison::Gt => ">",
                themis_sql::Comparison::Ge => ">=",
            };
            format!("{col} {op} {value}")
        }
        Predicate::In { col, values } => {
            // IN-list membership is set semantics; sort the rendered
            // literals so permuted lists share a plan.
            let mut vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            vals.sort();
            format!("{col} IN ({})", vals.join(","))
        }
        Predicate::JoinEq { left, right } => format!("{left} = {right}"),
    }
}

fn render_limits(out: &mut String, limits: &Limits) {
    match limits.deadline {
        Some(d) => {
            let _ = write!(out, "d={}", themis_obs::saturating_micros(d));
        }
        None => out.push_str("d=-"),
    }
    match limits.max_rows {
        Some(r) => {
            let _ = write!(out, ",r={r}");
        }
        None => out.push_str(",r=-"),
    }
    match limits.max_groups {
        Some(g) => {
            let _ = write!(out, ",g={g}");
        }
        None => out.push_str(",g=-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use themis_sql::parse;

    fn fp(sql: &str) -> Fingerprint {
        plan_fingerprint(&parse(sql).expect(sql), &Limits::default(), 0)
    }

    #[test]
    fn textual_noise_does_not_change_the_key() {
        let a = fp("SELECT COUNT(*) AS n FROM t WHERE a = '1' AND b = '2'");
        let b = fp("select   count(*) as n from t where b='2' and a='1'");
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn semantic_differences_change_the_key() {
        let base = fp("SELECT COUNT(*) AS n FROM t");
        for other in [
            "SELECT COUNT(*) AS m FROM t",
            "SELECT COUNT(*) AS n FROM t WHERE a = '1'",
            "SELECT a, COUNT(*) AS n FROM t GROUP BY a",
            "SELECT COUNT(*) AS n FROM t LIMIT 1",
            "SELECT SUM(a) AS n FROM t",
        ] {
            assert_ne!(base.key(), fp(other).key(), "{other}");
        }
    }

    #[test]
    fn in_lists_are_set_semantics() {
        let a = fp("SELECT COUNT(*) AS n FROM t WHERE a IN ('1', '2')");
        let b = fp("SELECT COUNT(*) AS n FROM t WHERE a IN ('2', '1')");
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn limits_and_generation_are_in_the_key() {
        let q = parse("SELECT COUNT(*) AS n FROM t").expect("parse");
        let unlimited = plan_fingerprint(&q, &Limits::default(), 0);
        let budgeted = Limits {
            max_rows: Some(3),
            ..Limits::default()
        };
        assert_ne!(unlimited.key(), plan_fingerprint(&q, &budgeted, 0).key());
        let deadlined = Limits {
            deadline: Some(Duration::from_millis(50)),
            ..Limits::default()
        };
        assert_ne!(unlimited.key(), plan_fingerprint(&q, &deadlined, 0).key());
        assert_ne!(
            unlimited.key(),
            plan_fingerprint(&q, &Limits::default(), 1).key()
        );
    }

    #[test]
    fn threads_have_no_representation_and_morsel_rows_do() {
        // The plan key renders plan + limits + generation only; the engine
        // shape is never passed in.
        let f = fp("SELECT COUNT(*) AS n FROM t");
        assert!(!f.key().contains("thread"));
        assert!(!f.key().contains("morsel"));
        // The session keys each answer on its morsel size as well.
        let (small, large) = (f.clone().with_morsel_rows(7), f.with_morsel_rows(2048));
        assert_ne!(small.key(), large.key());
        assert!(!small.key().contains("thread"));
    }
}
