//! Serial query execution: name resolution, predicate compilation, hash
//! group-by, and hash self-join.
//!
//! This module is the **reference engine**: a straightforward single-threaded
//! interpreter whose behaviour defines the semantics the morsel-driven
//! parallel engine ([`crate::exec_parallel`]) must reproduce exactly. The
//! query *planning* layer (name resolution, mask compilation, select
//! compilation — `plan_scan` / `plan_join`) and the output of each
//! aggregate (`output_value`) are shared by both engines so they cannot
//! drift apart. The per-row aggregate *fold* (`fold_row`) drives the serial
//! engine and the parallel join probe; the parallel scan kernel folds
//! column at a time instead, and a unit test holds it bit for bit to
//! `fold_row`.

use crate::catalog::Catalog;
use crate::guard::{QueryGuard, RowMeter};
use crate::value::{cmp_group_prefix, QueryResult, Value};
use std::collections::HashMap;
use std::fmt;
use themis_data::{AttrId, Relation};
use themis_sql::{
    AggFunc, ColumnRef, Comparison, Literal, Predicate, Query, SelectItem,
};

/// Execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// FROM references a table not in the catalog.
    UnknownTable(String),
    /// A column does not resolve against any bound table.
    UnknownColumn(String),
    /// A query shape the engine does not support.
    Unsupported(String),
    /// SQL failed to parse (from [`run_sql`]).
    Parse(String),
    /// A governance limit tripped: the deadline passed, the query was
    /// cancelled, or a row/group budget was exceeded (see [`crate::guard`]).
    Governed(crate::guard::Trip),
    /// A worker panicked; the panic was contained (it never unwinds the
    /// caller) and surfaced as this typed error.
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table {t}"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            ExecError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            ExecError::Parse(m) => write!(f, "{m}"),
            ExecError::Governed(t) => write!(f, "query stopped: {t}"),
            ExecError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Parse and execute a SQL string against a catalog on the morsel-driven
/// engine configured by `opts`.
///
/// This is the production entry point: at `threads: 1` the morsels run
/// inline on the caller, and for a fixed `morsel_rows` the result is
/// bit-identical at every thread count. This module's serial interpreter
/// ([`execute`]) stays available as the differential-testing oracle.
pub fn run_sql(
    catalog: &Catalog,
    sql: &str,
    opts: &crate::exec_parallel::EngineOptions,
) -> Result<QueryResult, ExecError> {
    let query = themis_sql::parse(sql).map_err(|e| ExecError::Parse(e.to_string()))?;
    crate::exec_parallel::execute_parallel(catalog, &query, opts)
}

/// Execute a parsed query on the serial reference engine.
pub fn execute(catalog: &Catalog, query: &Query) -> Result<QueryResult, ExecError> {
    let mut result = match query.from.len() {
        1 => execute_scan(catalog, query)?,
        2 => execute_join(catalog, query)?,
        n => return Err(ExecError::Unsupported(format!("{n} tables in FROM"))),
    };
    if let Some(order) = &query.order_by {
        apply_order_by(&mut result, order)?;
    }
    if let Some(limit) = query.limit {
        result.rows.truncate(limit);
    }
    Ok(result)
}

/// Execute a parsed query on the serial engine under a
/// [`QueryGuard`] armed from `opts` — the serial
/// counterpart to the governed [`crate::execute_parallel`].
///
/// With no limits, token, or fault plan configured this is bit-identical to
/// [`execute`] (the guard is inert and the drive loops fold rows in the same
/// order). `opts.threads` is ignored — execution is serial — but
/// `opts.morsel_rows` is honoured as the boundary stride so morsel indices
/// (and therefore injected [`FaultPlan`](crate::guard::FaultPlan) faults and
/// cooperative checks) line up with the parallel engine's decomposition: the
/// same fault trips at the same point on both engines, yielding the same
/// typed error. Panics below (e.g. the injected worker-panic fault) are
/// contained and surface as [`ExecError::Internal`].
pub fn execute_guarded(
    catalog: &Catalog,
    query: &Query,
    opts: &crate::EngineOptions,
) -> Result<QueryResult, ExecError> {
    let guard = QueryGuard::arm(opts);
    let morsel_rows = opts.morsel_rows.max(1);
    let _span = opts.trace.span("execute_serial");
    crate::guard::contain_panics(|| {
        let mut result = match query.from.len() {
            1 => scan_guarded(catalog, query, morsel_rows, &guard, &opts.trace)?,
            2 => join_guarded(catalog, query, morsel_rows, &guard, &opts.trace)?,
            n => return Err(ExecError::Unsupported(format!("{n} tables in FROM"))),
        };
        if let Some(order) = &query.order_by {
            apply_order_by(&mut result, order)?;
        }
        if let Some(limit) = query.limit {
            result.rows.truncate(limit);
        }
        opts.trace.add("groups_out", result.rows.len() as u64);
        Ok(result)
    })
}

/// Sort the result rows by a named output column (the engines call this for
/// `ORDER BY`; the hybrid query router re-applies it after unioning BN
/// groups into an ordered result).
pub fn apply_order_by(
    result: &mut QueryResult,
    order: &themis_sql::OrderBy,
) -> Result<(), ExecError> {
    let idx = result
        .columns
        .iter()
        .position(|c| c.eq_ignore_ascii_case(&order.column))
        .ok_or_else(|| {
            ExecError::UnknownColumn(format!("ORDER BY {} (not an output column)", order.column))
        })?;
    result.rows.sort_by(|a, b| {
        let ord = match (&a[idx], &b[idx]) {
            (Value::Num(x), Value::Num(y)) => x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal),
            (Value::Str(x), Value::Str(y)) => x.cmp(y),
            // Mixed cell types cannot arise within one column.
            _ => std::cmp::Ordering::Equal,
        };
        if order.desc {
            ord.reverse()
        } else {
            ord
        }
    });
    Ok(())
}

/// A column resolved to (table slot, attribute).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Resolved {
    pub(crate) table: usize,
    pub(crate) attr: AttrId,
}

/// Resolve a column against the bound tables. The magic column `weight`
/// (absent from the schema) resolves to `None` — it denotes the implicit
/// weight column.
fn resolve(
    col: &ColumnRef,
    bindings: &[(&str, &Relation)],
) -> Result<Option<Resolved>, ExecError> {
    let candidates: Vec<usize> = bindings
        .iter()
        .enumerate()
        .filter(|(_, (name, _))| col.table.as_deref().is_none_or(|t| t == *name))
        .map(|(i, _)| i)
        .collect();
    if candidates.is_empty() {
        return Err(ExecError::UnknownColumn(col.to_string()));
    }
    let mut found = None;
    for i in candidates {
        if let Some(attr) = bindings[i].1.schema().attr_id(&col.column) {
            if found.is_some() {
                return Err(ExecError::Unsupported(format!(
                    "ambiguous column {col}; qualify it with a table alias"
                )));
            }
            found = Some(Resolved { table: i, attr });
        }
    }
    match found {
        Some(r) => Ok(Some(r)),
        None if col.column.eq_ignore_ascii_case("weight") => Ok(None),
        None => Err(ExecError::UnknownColumn(col.to_string())),
    }
}

/// Numeric key of one domain value: the label parsed as a number when
/// possible, else the value id. Used for range comparisons and AVG/SUM.
pub(crate) fn numeric_key(label: &str, id: usize) -> f64 {
    label.parse::<f64>().unwrap_or(id as f64)
}

/// Numeric keys of every value of a domain, materialized for per-row
/// aggregate lookups (SUM/AVG/MIN/MAX evaluate one of these per input row,
/// so the table pays for itself; predicate compilation instead streams
/// [`numeric_key`] straight off the label slice — see [`compile_mask`]).
pub(crate) fn numeric_keys(rel: &Relation, attr: AttrId) -> Vec<f64> {
    rel.schema()
        .domain(attr)
        .labels()
        .iter()
        .enumerate()
        .map(|(i, l)| numeric_key(l, i))
        .collect()
}

/// Compile a non-join predicate into a per-value-id admission mask.
pub(crate) fn compile_mask(
    rel: &Relation,
    attr: AttrId,
    op: Comparison,
    value: &Literal,
) -> Result<Vec<bool>, ExecError> {
    let domain = rel.schema().domain(attr);
    let n = domain.size();
    let mask: Vec<bool> = match value {
        Literal::Str(s) => {
            let id = domain.id_of(s);
            match op {
                Comparison::Eq => (0..n).map(|i| Some(i as u32) == id).collect(),
                Comparison::Ne => (0..n).map(|i| Some(i as u32) != id).collect(),
                // Ordered comparison against a label uses domain order.
                _ => {
                    let Some(id) = id else {
                        return Err(ExecError::Unsupported(format!(
                            "label '{s}' not in domain for ordered comparison"
                        )));
                    };
                    (0..n)
                        .map(|i| apply_cmp(op, i as f64, id as f64))
                        .collect()
                }
            }
        }
        // Stream the numeric key of each label directly rather than
        // materializing a Vec<f64> per predicate.
        Literal::Num(x) => domain
            .labels()
            .iter()
            .enumerate()
            .map(|(i, l)| apply_cmp(op, numeric_key(l, i), *x))
            .collect(),
    };
    Ok(mask)
}

fn apply_cmp(op: Comparison, lhs: f64, rhs: f64) -> bool {
    match op {
        Comparison::Eq => lhs == rhs,
        Comparison::Ne => lhs != rhs,
        Comparison::Lt => lhs < rhs,
        Comparison::Le => lhs <= rhs,
        Comparison::Gt => lhs > rhs,
        Comparison::Ge => lhs >= rhs,
    }
}

/// Compile an IN predicate to a mask.
pub(crate) fn compile_in_mask(
    rel: &Relation,
    attr: AttrId,
    values: &[Literal],
) -> Result<Vec<bool>, ExecError> {
    let domain = rel.schema().domain(attr);
    let mut mask = vec![false; domain.size()];
    for v in values {
        match v {
            Literal::Str(s) => {
                if let Some(id) = domain.id_of(s) {
                    mask[id as usize] = true;
                }
            }
            Literal::Num(x) => {
                for (i, l) in domain.labels().iter().enumerate() {
                    if numeric_key(l, i) == *x {
                        mask[i] = true;
                    }
                }
            }
        }
    }
    Ok(mask)
}

/// One compiled aggregate.
pub(crate) enum CompiledAgg {
    CountStar,
    /// SUM over the implicit weight column (≡ COUNT(*) in the open-world
    /// model).
    SumWeight,
    Sum(Resolved),
    Avg(Resolved),
    Min(Resolved),
    Max(Resolved),
}

/// The compiled SELECT list: grouping columns and aggregates with their
/// output names.
pub(crate) struct CompiledSelect {
    pub(crate) group_cols: Vec<Resolved>,
    pub(crate) group_names: Vec<String>,
    pub(crate) aggs: Vec<CompiledAgg>,
    pub(crate) agg_names: Vec<String>,
}

pub(crate) fn compile_select(
    query: &Query,
    bindings: &[(&str, &Relation)],
) -> Result<CompiledSelect, ExecError> {
    let mut group_cols = Vec::new();
    let mut group_names = Vec::new();
    for g in &query.group_by {
        let r = resolve(g, bindings)?
            .ok_or_else(|| ExecError::Unsupported("GROUP BY weight".into()))?;
        group_cols.push(r);
        group_names.push(g.to_string());
    }

    let mut aggs = Vec::new();
    let mut agg_names = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Column(c) => {
                let r = resolve(c, bindings)?
                    .ok_or_else(|| ExecError::Unsupported("SELECT weight".into()))?;
                if !group_cols.contains(&r) {
                    // Implicit GROUP BY for bare columns in aggregate-free
                    // position is not supported; require explicit grouping
                    // unless the query has no GROUP BY at all (then treat
                    // the bare column list as the grouping, matching the
                    // paper's shorthand in Table 5).
                    if query.group_by.is_empty() {
                        group_cols.push(r);
                        group_names.push(c.to_string());
                    } else {
                        return Err(ExecError::Unsupported(format!(
                            "column {c} must appear in GROUP BY"
                        )));
                    }
                }
            }
            SelectItem::Aggregate { func, arg, alias } => {
                let compiled = match (func, arg) {
                    (AggFunc::Count, None) => CompiledAgg::CountStar,
                    (AggFunc::Count, Some(_)) => CompiledAgg::CountStar,
                    (AggFunc::Sum, Some(c)) => match resolve(c, bindings)? {
                        Some(r) => CompiledAgg::Sum(r),
                        None => CompiledAgg::SumWeight,
                    },
                    (AggFunc::Avg, Some(c)) => match resolve(c, bindings)? {
                        Some(r) => CompiledAgg::Avg(r),
                        None => {
                            return Err(ExecError::Unsupported("AVG(weight)".into()));
                        }
                    },
                    (AggFunc::Min, Some(c)) => match resolve(c, bindings)? {
                        Some(r) => CompiledAgg::Min(r),
                        None => return Err(ExecError::Unsupported("MIN(weight)".into())),
                    },
                    (AggFunc::Max, Some(c)) => match resolve(c, bindings)? {
                        Some(r) => CompiledAgg::Max(r),
                        None => return Err(ExecError::Unsupported("MAX(weight)".into())),
                    },
                    (f, None) => {
                        return Err(ExecError::Unsupported(format!("{}()", f.name())));
                    }
                };
                let name = alias.clone().unwrap_or_else(|| match item {
                    SelectItem::Aggregate { func, arg, .. } => match arg {
                        Some(c) => format!("{}({c})", func.name()),
                        None => format!("{}(*)", func.name()),
                    },
                    SelectItem::Column(_) => unreachable!(),
                });
                aggs.push(compiled);
                agg_names.push(name);
            }
        }
    }
    if aggs.is_empty() {
        return Err(ExecError::Unsupported(
            "queries must contain at least one aggregate".into(),
        ));
    }
    Ok(CompiledSelect {
        group_cols,
        group_names,
        aggs,
        agg_names,
    })
}

/// Accumulator per group: total weight plus per-aggregate (weighted sum)
/// state.
pub(crate) struct Accum {
    pub(crate) weight: f64,
    pub(crate) sums: Vec<f64>,
    /// Whether any positive-weight row has been folded in (MIN/MAX need a
    /// first-value seed and must ignore zero-weight rows).
    pub(crate) seen: bool,
}

impl Accum {
    /// A zeroed accumulator for `n_aggs` aggregates.
    pub(crate) fn zero(n_aggs: usize) -> Self {
        Accum {
            weight: 0.0,
            sums: vec![0.0; n_aggs],
            seen: false,
        }
    }
}

/// Precompute the per-aggregate numeric-key tables ([`numeric_keys`]) used
/// by SUM/AVG/MIN/MAX. Shared by both engines so each query computes them
/// once (the parallel engine hands references to every morsel task).
pub(crate) fn agg_numeric_tables(
    select: &CompiledSelect,
    bindings: &[(&str, &Relation)],
) -> Vec<Option<Vec<f64>>> {
    select
        .aggs
        .iter()
        .map(|a| match a {
            CompiledAgg::Sum(r)
            | CompiledAgg::Avg(r)
            | CompiledAgg::Min(r)
            | CompiledAgg::Max(r) => Some(numeric_keys(bindings[r.table].1, r.attr)),
            _ => None,
        })
        .collect()
}

/// A mutable view of one group's accumulator state, independent of where it
/// lives (a serial [`Accum`] or a slot in a parallel flat block).
pub(crate) struct AccumRef<'a> {
    pub(crate) weight: &'a mut f64,
    pub(crate) sums: &'a mut [f64],
    pub(crate) seen: &'a mut bool,
}

/// Fold one input row into an accumulator. `rows[t]` is the row index of
/// table slot `t`. This is the definition of per-row aggregate semantics:
/// the serial engine and the parallel join probe call it, and the parallel
/// scan kernel is tested bit for bit against it.
pub(crate) fn fold_row(
    select: &CompiledSelect,
    bindings: &[(&str, &Relation)],
    numeric: &[Option<Vec<f64>>],
    acc: AccumRef<'_>,
    rows: &[usize],
    weight: f64,
) {
    let AccumRef {
        weight: acc_weight,
        sums: acc_sums,
        seen: acc_seen,
    } = acc;
    *acc_weight += weight;
    for (i, agg) in select.aggs.iter().enumerate() {
        match agg {
            CompiledAgg::CountStar | CompiledAgg::SumWeight => acc_sums[i] += weight,
            CompiledAgg::Sum(r) | CompiledAgg::Avg(r) => {
                let v = bindings[r.table].1.value(rows[r.table], r.attr);
                // themis-lint: allow(no-panic-in-libs) reason=compile_select precomputes numeric tables for every SUM/AVG/MIN/MAX; this is the per-row hot path
                acc_sums[i] += weight * numeric[i].as_ref().expect("precomputed")[v as usize];
            }
            CompiledAgg::Min(r) => {
                if weight > 0.0 {
                    let v = bindings[r.table].1.value(rows[r.table], r.attr);
                    // themis-lint: allow(no-panic-in-libs) reason=compile_select precomputes numeric tables for every SUM/AVG/MIN/MAX; this is the per-row hot path
                    let key = numeric[i].as_ref().expect("precomputed")[v as usize];
                    acc_sums[i] = if *acc_seen { acc_sums[i].min(key) } else { key };
                }
            }
            CompiledAgg::Max(r) => {
                if weight > 0.0 {
                    let v = bindings[r.table].1.value(rows[r.table], r.attr);
                    // themis-lint: allow(no-panic-in-libs) reason=compile_select precomputes numeric tables for every SUM/AVG/MIN/MAX; this is the per-row hot path
                    let key = numeric[i].as_ref().expect("precomputed")[v as usize];
                    acc_sums[i] = if *acc_seen { acc_sums[i].max(key) } else { key };
                }
            }
        }
    }
    // Only positive-weight rows seed MIN/MAX: a zero-weight row must not
    // plant a stale 0.0 that a later min()/max() folds in.
    if weight > 0.0 {
        *acc_seen = true;
    }
}

/// Fresh group table for a serial drive loop, pre-seeded with the implicit
/// scalar group (SQL semantics: an aggregate-only query over an empty input
/// returns a single all-zero row, not an empty result).
fn new_groups(select: &CompiledSelect) -> HashMap<Vec<u32>, Accum> {
    let mut groups = HashMap::new();
    if select.group_cols.is_empty() {
        groups.insert(Vec::new(), Accum::zero(select.aggs.len()));
    }
    groups
}

/// Fold one input row into the serial group table (key lookup + shared
/// [`fold_row`]). Both serial drive loops (plain and guarded) go through
/// this, so they agree bit-for-bit.
fn fold_into(
    select: &CompiledSelect,
    bindings: &[(&str, &Relation)],
    numeric: &[Option<Vec<f64>>],
    groups: &mut HashMap<Vec<u32>, Accum>,
    row_idx: &[usize],
    weight: f64,
) {
    let key: Vec<u32> = select
        .group_cols
        .iter()
        .map(|r| bindings[r.table].1.value(row_idx[r.table], r.attr))
        .collect();
    let acc = groups
        .entry(key)
        .or_insert_with(|| Accum::zero(select.aggs.len()));
    fold_row(
        select,
        bindings,
        numeric,
        AccumRef {
            weight: &mut acc.weight,
            sums: &mut acc.sums,
            seen: &mut acc.seen,
        },
        row_idx,
        weight,
    );
}

/// Shared aggregation driver over an iterator of joined rows.
fn aggregate_rows(
    select: &CompiledSelect,
    bindings: &[(&str, &Relation)],
    rows: impl Iterator<Item = (Vec<usize>, f64)>,
) -> QueryResult {
    let numeric = agg_numeric_tables(select, bindings);
    let mut groups = new_groups(select);
    for (row_idx, weight) in rows {
        fold_into(select, bindings, &numeric, &mut groups, &row_idx, weight);
    }
    finalize_groups(select, bindings, groups)
}

/// The output value of one aggregate from its group's accumulator: AVG
/// divides the weighted sum by the group's weight (0 for a weightless
/// group); COUNT(*) and SUM(weight) report the group weight, which
/// [`fold_row`] builds from the very additions, in the very order, it gives
/// their own accumulators (so the morsel engine keeps no accumulator for
/// them); MIN, MAX and SUM report their accumulator. The single definition
/// both engines' results and the replicate agreement use.
pub(crate) fn output_value(agg: &CompiledAgg, weight: f64, sum: f64) -> f64 {
    match agg {
        CompiledAgg::CountStar | CompiledAgg::SumWeight => weight,
        CompiledAgg::Avg(_) => {
            if weight > 0.0 {
                sum / weight
            } else {
                0.0
            }
        }
        _ => sum,
    }
}

/// Turn accumulated groups into the final sorted [`QueryResult`]. Shared by
/// both engines so output formatting and row order are identical.
pub(crate) fn finalize_groups(
    select: &CompiledSelect,
    bindings: &[(&str, &Relation)],
    groups: impl IntoIterator<Item = (Vec<u32>, Accum)>,
) -> QueryResult {
    let mut rows_out: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(key, acc)| {
            let mut row: Vec<Value> = key
                .iter()
                .zip(&select.group_cols)
                .map(|(&v, r)| {
                    Value::Str(
                        bindings[r.table]
                            .1
                            .schema()
                            .domain(r.attr)
                            .label(v)
                            .to_string(),
                    )
                })
                .collect();
            for (agg, &sum) in select.aggs.iter().zip(&acc.sums) {
                row.push(Value::Num(output_value(agg, acc.weight, sum)));
            }
            row
        })
        .collect();
    // Group cells are a row's only labels and lead it, so this is the
    // label order; the sort is stable, and both engines sort the same way.
    let arity = select.group_cols.len();
    rows_out.sort_by(|a, b| cmp_group_prefix(a, b, arity));

    let mut columns = select.group_names.clone();
    columns.extend(select.agg_names.iter().cloned());
    QueryResult {
        columns,
        rows: rows_out,
        group_arity: arity,
    }
}

/// A compiled single-table scan: the bound relation, per-attribute admission
/// masks, and the compiled SELECT. Built once per query and shared by both
/// engines, so name-resolution and compilation errors are identical.
pub(crate) struct ScanPlan<'a> {
    pub(crate) rel: &'a Relation,
    pub(crate) bindings: Vec<(&'a str, &'a Relation)>,
    pub(crate) masks: Vec<(AttrId, Vec<bool>)>,
    pub(crate) select: CompiledSelect,
}

/// Compile a single-table query into a [`ScanPlan`].
pub(crate) fn plan_scan<'a>(
    catalog: &'a Catalog,
    query: &'a Query,
) -> Result<ScanPlan<'a>, ExecError> {
    let table = &query.from[0];
    let rel = catalog
        .get(&table.name)
        .ok_or_else(|| ExecError::UnknownTable(table.name.clone()))?;
    let bindings: Vec<(&str, &Relation)> = vec![(table.binding(), rel)];

    // Compile predicates to masks.
    let mut masks: Vec<(AttrId, Vec<bool>)> = Vec::new();
    for p in &query.predicates {
        match p {
            Predicate::Compare { col, op, value } => {
                let r = resolve(col, &bindings)?
                    .ok_or_else(|| ExecError::Unsupported("predicate on weight".into()))?;
                masks.push((r.attr, compile_mask(rel, r.attr, *op, value)?));
            }
            Predicate::In { col, values } => {
                let r = resolve(col, &bindings)?
                    .ok_or_else(|| ExecError::Unsupported("predicate on weight".into()))?;
                masks.push((r.attr, compile_in_mask(rel, r.attr, values)?));
            }
            Predicate::JoinEq { .. } => {
                return Err(ExecError::Unsupported(
                    "join predicate on a single-table query".into(),
                ));
            }
        }
    }

    let select = compile_select(query, &bindings)?;
    Ok(ScanPlan {
        rel,
        bindings,
        masks,
        select,
    })
}

fn execute_scan(catalog: &Catalog, query: &Query) -> Result<QueryResult, ExecError> {
    let ScanPlan {
        rel,
        bindings,
        masks,
        select,
    } = plan_scan(catalog, query)?;
    let weights = rel.weights();
    let rows = (0..rel.len()).filter_map(move |r| {
        for (attr, mask) in &masks {
            if !mask[rel.value(r, *attr) as usize] {
                return None;
            }
        }
        Some((vec![r], weights[r]))
    });
    Ok(aggregate_rows(&select, &bindings, rows))
}

/// Guarded serial scan: same fold order as [`execute_scan`], with guard
/// hooks at morsel boundaries (`row / morsel_rows`, matching the parallel
/// decomposition) and row charges via [`RowMeter`].
fn scan_guarded(
    catalog: &Catalog,
    query: &Query,
    morsel_rows: usize,
    guard: &QueryGuard,
    trace: &themis_obs::TraceSink,
) -> Result<QueryResult, ExecError> {
    let ScanPlan {
        rel,
        bindings,
        masks,
        select,
    } = plan_scan(catalog, query)?;
    let weights = rel.weights();
    let numeric = agg_numeric_tables(&select, &bindings);
    let mut groups = new_groups(&select);
    let mut meter = RowMeter::new(guard);
    let mut morsels = 0u64;
    let mut rows_masked = 0u64;
    let mut rows_folded = 0u64;
    'rows: for r in 0..rel.len() {
        if r % morsel_rows == 0 {
            meter.flush()?;
            morsels += 1;
            guard.at_morsel((r / morsel_rows) as u64)?;
            guard.check_groups(groups.len())?;
        }
        meter.tick()?;
        for (attr, mask) in &masks {
            if !mask[rel.value(r, *attr) as usize] {
                rows_masked += 1;
                continue 'rows;
            }
        }
        rows_folded += 1;
        fold_into(&select, &bindings, &numeric, &mut groups, &[r], weights[r]);
    }
    meter.flush()?;
    guard.check_groups(groups.len())?;
    if trace.is_enabled() {
        // Same counter names and — because the guarded drive loop mirrors
        // the morsel decomposition exactly — the same totals as the
        // parallel engine's per-morsel tallies.
        trace.add_counts(&[
            ("guard_checks", morsels + meter.checks()),
            ("morsels", morsels),
            ("rows_folded", rows_folded),
            ("rows_masked", rows_masked),
            ("rows_scanned", rel.len() as u64),
        ]);
    }
    Ok(finalize_groups(&select, &bindings, groups))
}

/// A compiled two-table equi-join: both bound relations, the join-key column
/// pairs (left side first), per-side admission masks, and the compiled
/// SELECT. Shared by both engines.
pub(crate) struct JoinPlan<'a> {
    pub(crate) left: &'a Relation,
    pub(crate) right: &'a Relation,
    pub(crate) bindings: Vec<(&'a str, &'a Relation)>,
    pub(crate) join_keys: Vec<(Resolved, Resolved)>,
    pub(crate) masks: Vec<(Resolved, Vec<bool>)>,
    pub(crate) select: CompiledSelect,
}

impl JoinPlan<'_> {
    /// Whether `row` of table slot `table` passes every mask on that side.
    pub(crate) fn passes(&self, table: usize, row: usize) -> bool {
        side_passes(&self.masks, self.bindings[table].1, table, row)
    }
}

/// Whether `row` of `rel`, bound at table slot `table`, passes every mask
/// on that side of a join.
pub(crate) fn side_passes(
    masks: &[(Resolved, Vec<bool>)],
    rel: &Relation,
    table: usize,
    row: usize,
) -> bool {
    masks
        .iter()
        .filter(|(r, _)| r.table == table)
        .all(|(r, mask)| mask[rel.value(row, r.attr) as usize])
}

/// Compile a two-table query into a [`JoinPlan`].
pub(crate) fn plan_join<'a>(
    catalog: &'a Catalog,
    query: &'a Query,
) -> Result<JoinPlan<'a>, ExecError> {
    let left_ref = &query.from[0];
    let right_ref = &query.from[1];
    let left = catalog
        .get(&left_ref.name)
        .ok_or_else(|| ExecError::UnknownTable(left_ref.name.clone()))?;
    let right = catalog
        .get(&right_ref.name)
        .ok_or_else(|| ExecError::UnknownTable(right_ref.name.clone()))?;
    let bindings: Vec<(&str, &Relation)> =
        vec![(left_ref.binding(), left), (right_ref.binding(), right)];

    // Split predicates into join keys and per-side filters.
    let mut join_keys: Vec<(Resolved, Resolved)> = Vec::new();
    let mut masks: Vec<(Resolved, Vec<bool>)> = Vec::new();
    for p in &query.predicates {
        match p {
            Predicate::JoinEq { left: l, right: r } => {
                let lr = resolve(l, &bindings)?
                    .ok_or_else(|| ExecError::Unsupported("join on weight".into()))?;
                let rr = resolve(r, &bindings)?
                    .ok_or_else(|| ExecError::Unsupported("join on weight".into()))?;
                if lr.table == rr.table {
                    return Err(ExecError::Unsupported(
                        "join predicate must span both tables".into(),
                    ));
                }
                let (a, b) = if lr.table == 0 { (lr, rr) } else { (rr, lr) };
                join_keys.push((a, b));
            }
            Predicate::Compare { col, op, value } => {
                let r = resolve(col, &bindings)?
                    .ok_or_else(|| ExecError::Unsupported("predicate on weight".into()))?;
                let rel = bindings[r.table].1;
                masks.push((r, compile_mask(rel, r.attr, *op, value)?));
            }
            Predicate::In { col, values } => {
                let r = resolve(col, &bindings)?
                    .ok_or_else(|| ExecError::Unsupported("predicate on weight".into()))?;
                let rel = bindings[r.table].1;
                masks.push((r, compile_in_mask(rel, r.attr, values)?));
            }
        }
    }
    if join_keys.is_empty() {
        return Err(ExecError::Unsupported(
            "two-table query without a join condition (cross products are not supported)".into(),
        ));
    }

    let select = compile_select(query, &bindings)?;
    Ok(JoinPlan {
        left,
        right,
        bindings,
        join_keys,
        masks,
        select,
    })
}

fn execute_join(catalog: &Catalog, query: &Query) -> Result<QueryResult, ExecError> {
    let plan = plan_join(catalog, query)?;
    let (left, right) = (plan.left, plan.right);

    // Build a hash table over the right side keyed by the join columns.
    let mut built: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for row in 0..right.len() {
        if !plan.passes(1, row) {
            continue;
        }
        let key: Vec<u32> = plan
            .join_keys
            .iter()
            .map(|(_, r)| right.value(row, r.attr))
            .collect();
        built.entry(key).or_default().push(row);
    }

    let mut joined: Vec<(Vec<usize>, f64)> = Vec::new();
    for lrow in 0..left.len() {
        if !plan.passes(0, lrow) {
            continue;
        }
        let key: Vec<u32> = plan
            .join_keys
            .iter()
            .map(|(l, _)| left.value(lrow, l.attr))
            .collect();
        if let Some(matches) = built.get(&key) {
            for &rrow in matches {
                joined.push((
                    vec![lrow, rrow],
                    left.weights()[lrow] * right.weights()[rrow],
                ));
            }
        }
    }
    Ok(aggregate_rows(&plan.select, &plan.bindings, joined.into_iter()))
}

/// Guarded serial hash join: same build/probe/fold order as
/// [`execute_join`] (probe pairs fold inline instead of materializing, which
/// preserves the order exactly), with guard hooks at morsel boundaries on
/// both sides. Charges mirror the parallel engine's: every build row, every
/// probe row, and every joined pair folded.
fn join_guarded(
    catalog: &Catalog,
    query: &Query,
    morsel_rows: usize,
    guard: &QueryGuard,
    trace: &themis_obs::TraceSink,
) -> Result<QueryResult, ExecError> {
    let plan = plan_join(catalog, query)?;
    let (left, right) = (plan.left, plan.right);
    let numeric = agg_numeric_tables(&plan.select, &plan.bindings);
    let mut meter = RowMeter::new(guard);
    let mut morsels = 0u64;
    let mut rows_masked = 0u64;
    let mut pairs_folded = 0u64;

    let mut built: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for row in 0..right.len() {
        if row % morsel_rows == 0 {
            meter.flush()?;
            morsels += 1;
            guard.at_morsel((row / morsel_rows) as u64)?;
        }
        meter.tick()?;
        if !plan.passes(1, row) {
            rows_masked += 1;
            continue;
        }
        let key: Vec<u32> = plan
            .join_keys
            .iter()
            .map(|(_, r)| right.value(row, r.attr))
            .collect();
        built.entry(key).or_default().push(row);
    }
    meter.flush()?;

    let mut groups = new_groups(&plan.select);
    let (lw, rw) = (left.weights(), right.weights());
    for (lrow, &lweight) in lw.iter().enumerate() {
        if lrow % morsel_rows == 0 {
            meter.flush()?;
            morsels += 1;
            guard.at_morsel((lrow / morsel_rows) as u64)?;
            guard.check_groups(groups.len())?;
        }
        meter.tick()?;
        if !plan.passes(0, lrow) {
            rows_masked += 1;
            continue;
        }
        let key: Vec<u32> = plan
            .join_keys
            .iter()
            .map(|(l, _)| left.value(lrow, l.attr))
            .collect();
        if let Some(matches) = built.get(&key) {
            for &rrow in matches {
                meter.tick()?;
                pairs_folded += 1;
                fold_into(
                    &plan.select,
                    &plan.bindings,
                    &numeric,
                    &mut groups,
                    &[lrow, rrow],
                    lweight * rw[rrow],
                );
            }
        }
    }
    meter.flush()?;
    guard.check_groups(groups.len())?;
    if trace.is_enabled() {
        trace.add_counts(&[
            ("guard_checks", morsels + meter.checks()),
            ("morsels", morsels),
            ("pairs_folded", pairs_folded),
            ("rows_masked", rows_masked),
            ("rows_scanned", (right.len() + left.len()) as u64),
        ]);
    }
    Ok(finalize_groups(&plan.select, &plan.bindings, groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_data::paper_example::{example_population, example_sample};

    /// These are semantics tests for the serial reference engine, so run
    /// straight through [`execute`] (shadows the crate-level `run_sql`,
    /// which drives the morsel engine).
    fn run_sql(catalog: &Catalog, sql: &str) -> Result<QueryResult, ExecError> {
        let query = themis_sql::parse(sql).map_err(|e| ExecError::Parse(e.to_string()))?;
        execute(catalog, &query)
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("flights", example_population());
        c.register("sample", example_sample());
        c
    }

    #[test]
    fn count_star_sums_weights() {
        let c = catalog();
        let r = run_sql(&c, "SELECT COUNT(*) FROM flights").unwrap();
        assert_eq!(r.scalar(), Some(10.0));
    }

    #[test]
    fn sum_weight_is_count_star() {
        let mut c = Catalog::new();
        let mut s = example_sample();
        s.fill_weights(2.5);
        c.register("s", s);
        let r = run_sql(&c, "SELECT SUM(weight) AS n FROM s").unwrap();
        assert_eq!(r.scalar(), Some(10.0));
        assert_eq!(r.columns, vec!["n"]);
    }

    #[test]
    fn filtered_group_by_count() {
        let c = catalog();
        let r = run_sql(
            &c,
            "SELECT o_st, COUNT(*) FROM flights WHERE date = '01' GROUP BY o_st",
        )
        .unwrap();
        let m = r.to_map();
        assert_eq!(m[&vec!["FL".to_string()]], vec![2.0]);
        assert_eq!(m[&vec!["NC".to_string()]], vec![1.0]);
        assert_eq!(m[&vec!["NY".to_string()]], vec![2.0]);
    }

    #[test]
    fn bare_select_columns_group_implicitly() {
        // Table 5 writes "SELECT O, AVG(E) FROM F" leaving GROUP BY implied.
        let c = catalog();
        let a = run_sql(&c, "SELECT o_st, COUNT(*) FROM flights").unwrap();
        let b = run_sql(&c, "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st").unwrap();
        assert_eq!(a.to_map(), b.to_map());
    }

    #[test]
    fn avg_is_weighted() {
        let mut c = Catalog::new();
        let mut s = example_sample();
        // weights: [1, 1, 8, 2]; date ids: [0, 0, 1, 0].
        s.set_weights(vec![1.0, 1.0, 8.0, 2.0]);
        c.register("s", s);
        let r = run_sql(&c, "SELECT AVG(date) AS a FROM s").unwrap();
        // Weighted mean of date ids (labels "01"/"02" parse to 1.0/2.0):
        // (1*1 + 1*1 + 8*2 + 2*1) / 12 = 20/12.
        assert!((r.scalar().unwrap() - 20.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn in_predicate_filters() {
        let c = catalog();
        let r = run_sql(
            &c,
            "SELECT COUNT(*) FROM flights WHERE o_st IN ('FL', 'NY')",
        )
        .unwrap();
        assert_eq!(r.scalar(), Some(6.0));
    }

    #[test]
    fn numeric_range_predicate() {
        let c = catalog();
        // date labels "01", "02" parse numerically.
        let r = run_sql(&c, "SELECT COUNT(*) FROM flights WHERE date <= 1").unwrap();
        assert_eq!(r.scalar(), Some(5.0));
    }

    #[test]
    fn self_join_counts_connecting_pairs() {
        let c = catalog();
        // Flights into X joined with flights out of X.
        let r = run_sql(
            &c,
            "SELECT COUNT(*) FROM flights t, flights s WHERE t.d_st = s.o_st",
        )
        .unwrap();
        // Hand count: d_st counts FL=4,NC=1,NY=5; o_st counts FL=3,NC=4,NY=3.
        // Σ_x d(x)·o(x) = 4*3 + 1*4 + 5*3 = 31.
        assert_eq!(r.scalar(), Some(31.0));
    }

    #[test]
    fn join_weights_multiply() {
        let mut c = Catalog::new();
        let mut s = example_sample();
        s.fill_weights(2.0);
        c.register("f", s);
        let r = run_sql(&c, "SELECT COUNT(*) FROM f t, f s WHERE t.d_st = s.o_st").unwrap();
        // Unweighted pair count on the sample: d_st [FL,FL,NY,NC] ids, o_st
        // [FL,FL,NC,NY]: d(FL)=2 · o(FL)=2 + d(NY)=1 · o(NY)=1 + d(NC)=1 ·
        // o(NC)=1 = 6 pairs, each weighted 2*2.
        assert_eq!(r.scalar(), Some(24.0));
    }

    #[test]
    fn join_with_group_by_and_filter() {
        let c = catalog();
        let r = run_sql(
            &c,
            "SELECT t.o_st, s.d_st, COUNT(*) FROM flights t, flights s \
             WHERE t.d_st = s.o_st AND t.d_st IN ('NC') GROUP BY t.o_st, s.d_st",
        )
        .unwrap();
        // Only NY→NC joins (1 tuple) with NC→* (4 tuples): NC→FL ×1,
        // NC→NY ×3.
        let m = r.to_map();
        assert_eq!(m[&vec!["NY".to_string(), "FL".to_string()]], vec![1.0]);
        assert_eq!(m[&vec!["NY".to_string(), "NY".to_string()]], vec![3.0]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn unknown_names_error() {
        let c = catalog();
        assert!(matches!(
            run_sql(&c, "SELECT COUNT(*) FROM missing"),
            Err(ExecError::UnknownTable(_))
        ));
        assert!(matches!(
            run_sql(&c, "SELECT COUNT(*) FROM flights WHERE nope = 1"),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    #[test]
    fn order_by_desc_limit_returns_top_groups() {
        let c = catalog();
        let r = run_sql(
            &c,
            "SELECT o_st, COUNT(*) AS n FROM flights GROUP BY o_st ORDER BY n DESC LIMIT 1",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
        // NC has 4 flights, the most.
        assert_eq!(r.rows[0][0], Value::Str("NC".into()));
        assert_eq!(r.rows[0][1], Value::Num(4.0));
    }

    #[test]
    fn order_by_group_column_sorts_labels() {
        let c = catalog();
        let r = run_sql(
            &c,
            "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st ORDER BY o_st DESC",
        )
        .unwrap();
        let labels: Vec<String> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Str(s) => s.clone(),
                Value::Num(_) => unreachable!(),
            })
            .collect();
        assert_eq!(labels, vec!["NY", "NC", "FL"]);
    }

    #[test]
    fn order_by_unknown_output_column_errors() {
        let c = catalog();
        let err = run_sql(
            &c,
            "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st ORDER BY nope",
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::UnknownColumn(_)));
    }

    #[test]
    fn min_max_aggregate_over_groups() {
        let c = catalog();
        let r = run_sql(
            &c,
            "SELECT o_st, MIN(date), MAX(date) FROM flights GROUP BY o_st",
        )
        .unwrap();
        let m = r.to_map();
        // FL flies in months 01 and 02 (labels parse to 1.0 / 2.0).
        assert_eq!(m[&vec!["FL".to_string()]], vec![1.0, 2.0]);
        // NC: one 01 flight, three 02 flights.
        assert_eq!(m[&vec!["NC".to_string()]], vec![1.0, 2.0]);
    }

    #[test]
    fn min_ignores_zero_weight_rows() {
        let mut c = Catalog::new();
        let mut s = example_sample();
        // Zero out the single date=02 row; MIN/MAX over date must then see
        // only date=01.
        s.set_weights(vec![1.0, 1.0, 0.0, 1.0]);
        c.register("s", s);
        let r = run_sql(&c, "SELECT MIN(date) AS lo, MAX(date) AS hi FROM s").unwrap();
        let m = r.to_map();
        assert_eq!(m[&Vec::<String>::new()], vec![1.0, 1.0]);
    }

    #[test]
    fn min_not_seeded_by_leading_zero_weight_row() {
        let mut c = Catalog::new();
        let mut s = example_sample();
        // First row has weight 0: MIN/MAX must take their seed from the
        // first *positive*-weight row, not a stale 0.0.
        // date ids: [0, 0, 1, 0] → labels "01","01","02","01".
        s.set_weights(vec![0.0, 0.0, 3.0, 0.0]);
        c.register("s", s);
        let r = run_sql(&c, "SELECT MIN(date) AS lo, MAX(date) AS hi FROM s").unwrap();
        let m = r.to_map();
        // Only the date=02 row counts.
        assert_eq!(m[&Vec::<String>::new()], vec![2.0, 2.0]);
    }

    #[test]
    fn empty_filter_returns_zero_row() {
        let c = catalog();
        let r = run_sql(&c, "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NC'")
            .unwrap();
        assert_eq!(r.scalar(), Some(0.0));
    }

    #[test]
    fn aggregate_free_queries_are_rejected() {
        let c = catalog();
        assert!(matches!(
            run_sql(&c, "SELECT o_st FROM flights"),
            Err(ExecError::Unsupported(_))
        ));
    }
}
