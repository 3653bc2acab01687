//! Morsel-driven parallel query execution.
//!
//! The serial engine in [`crate::exec`] interprets one row at a time against
//! hash tables keyed by `Vec<u32>`, allocating per row. This module drives
//! the *same* compiled plans (`plan_scan` / `plan_join` in [`crate::exec`])
//! over fixed-size **morsels** — contiguous row ranges claimed dynamically
//! by a scoped worker pool (`shims/rayon`). Each morsel fills a private
//! accumulator block; blocks are merged **in morsel order**, so the result
//! is deterministic for a given morsel size no matter how many threads run
//! or in what order morsels finish.
//!
//! ## The scan kernel
//!
//! A scan morsel is folded one stride of at most [`GUARD_STRIDE`] rows at a
//! time, column by column rather than row by row:
//!
//! 1. a **selection vector** of the stride's rows that pass every mask,
//!    built without a branch per row (each row is written, and the write
//!    cursor advances by the mask bit);
//! 2. the **slot** of each selected row (its packed group key, or its
//!    sparse slot);
//! 3. one tight loop per **accumulator** over the selected rows: the group
//!    weight (which also marks the slot occupied), then each aggregate in
//!    SELECT order. MIN/MAX read the per-slot "seen a positive weight"
//!    flags as they stood before each row, which a loop of their own
//!    records first. COUNT(*) and SUM(weight) have no loop: the per-row
//!    fold gives their accumulators the very additions it gives the group
//!    weight, so they report the weight (`output_value`).
//!
//! Each loop matches its column's width ([`themis_data::Column`]: one byte
//! per code where the domain fits, four otherwise) once per stride and
//! runs a body generic over the code type.
//!
//! Reordering the loops this way cannot change a bit of any answer: each
//! accumulator cell still receives exactly the additions the per-row fold
//! (`fold_row`) would give it, in row order, with the same operands, and
//! cells never read each other; morsel blocks still merge in morsel order.
//! Strides start on [`GUARD_STRIDE`] boundaries of the morsel and are
//! charged to the row meter whole, so governance checks (and the trace's
//! `guard_checks`) fall exactly where the per-row meter put them. The join
//! probe still folds pair by pair through `fold_row`: its pairs come out of
//! hash-bucket match lists, not column runs.
//!
//! Two accumulator layouts keep the hot loop allocation-free:
//!
//! * **dense** — when the product of the grouping domains is at most
//!   `DENSE_GROUP_LIMIT` (4096), group keys pack into a single array index
//!   (mixed-radix over the domain sizes) and accumulators live in flat
//!   `Vec<f64>` blocks;
//! * **sparse** — otherwise, a `HashMap` from key to a slot in the same
//!   flat block layout, creating slots in first-touch order.
//!
//! A query is compiled once into a `Compiled` plan that holds everything
//! but the rows (masks, aggregates, numeric-key tables, key layout), so the
//! replicate agreement ([`crate::agreement`]) runs one plan over every
//! relation sharing its schema and compares their groups by slot code.
//!
//! Joins are evaluated as **partitioned hash joins**: the build side is
//! split into `threads` partitions by join-key hash, each partition built by
//! one task (scanning in row order, so per-key match lists are ordered
//! exactly as the serial engine's), then probe morsels look up the partition
//! for each key. Determinism is unaffected by the partition count because
//! partitioning only routes keys to tables.
//!
//! Floating-point caveat: merging morsel blocks associates additions at
//! morsel boundaries differently from the serial left-to-right fold, so
//! serial and parallel sums can differ by ~1 ulp per boundary (they are
//! bit-identical when the input fits in one morsel, and for exactly
//! representable weights). The differential test suite pins both engines to
//! within `1e-9` of each other; results across *thread counts* are
//! bit-identical by construction.

use crate::catalog::Catalog;
use crate::exec::{
    agg_numeric_tables, apply_order_by, finalize_groups, fold_row, output_value, plan_join,
    plan_scan, side_passes, Accum, AccumRef, CompiledAgg, CompiledSelect, ExecError, Resolved,
};
use crate::guard::{
    task_panic_error, CancelToken, FaultPlan, Limits, QueryGuard, RowMeter, GUARD_STRIDE,
};
use crate::value::QueryResult;
use rayon::Pool;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use themis_data::{AttrId, Code, Column, Relation};
use themis_obs::TraceSink;
use themis_sql::Query;

/// Rows per morsel. Fixed (not derived from the thread count) so that the
/// morsel decomposition — and therefore the merged floating-point result —
/// is identical at every thread count.
pub const DEFAULT_MORSEL_ROWS: usize = 2048;

/// Largest packed group-key space evaluated with dense (flat-array)
/// accumulators; bigger key spaces fall back to the sparse layout.
const DENSE_GROUP_LIMIT: usize = 4096;

/// Explicit engine configuration, threaded through [`crate::run_sql`] and
/// [`execute_parallel`] by every caller.
///
/// Library code never reads environment variables: a session (or any other
/// caller) owns its `EngineOptions`. Binaries that honour a thread-count
/// environment variable (the CLI shell) parse it *into* this struct at
/// their own edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineOptions {
    /// Worker threads (1 ⇒ every morsel runs inline on the caller; results
    /// are bit-identical at every thread count for a fixed `morsel_rows`).
    pub threads: usize,
    /// Rows per morsel. Changing this changes how floating-point merges
    /// associate; keep it fixed across runs you want to compare exactly.
    pub morsel_rows: usize,
    /// Cooperative governance limits (deadline, row budget, group budget),
    /// checked at morsel and row-fold boundaries. Unlimited by default;
    /// tripping a limit yields [`ExecError::Governed`], never a panic.
    pub limits: Limits,
    /// Cancellation token observed cooperatively by running queries.
    /// `None` (the default) means not cancellable.
    pub cancel: Option<CancelToken>,
    /// Deterministic fault injection for tests; [`FaultPlan::None`] in
    /// production configurations.
    pub fault_plan: FaultPlan,
    /// Trace sink for query observability. Disabled by default: every
    /// instrumentation call short-circuits on a `None` inside the sink, so
    /// untraced execution pays one branch per morsel. Like
    /// [`CancelToken`], sinks compare by identity, which keeps
    /// `EngineOptions` comparable.
    pub trace: TraceSink,
}

impl Default for EngineOptions {
    /// Hardware threads, default morsel size, no limits, faults, or tracing.
    fn default() -> Self {
        EngineOptions {
            threads: rayon::available_threads(),
            morsel_rows: DEFAULT_MORSEL_ROWS,
            limits: Limits::default(),
            cancel: None,
            fault_plan: FaultPlan::default(),
            trace: TraceSink::default(),
        }
    }
}

impl EngineOptions {
    /// Explicit thread count, default morsel size.
    pub fn with_threads(threads: usize) -> Self {
        EngineOptions {
            threads: threads.max(1),
            ..EngineOptions::default()
        }
    }

    /// One-line description of the configured engine, for shells and status
    /// displays. Governance limits are appended only when armed.
    pub fn describe(&self) -> String {
        let mut d = format!(
            "morsel-driven ({} thread{}, {} rows/morsel)",
            self.threads.max(1),
            if self.threads.max(1) == 1 { "" } else { "s" },
            self.morsel_rows.max(1)
        );
        if !self.limits.is_unlimited() {
            d.push_str(&format!(", limits: {}", self.limits.describe()));
        }
        d
    }
}

/// Execute a parsed query on the morsel-driven parallel engine.
///
/// Semantics (including every error) match [`crate::execute`]; aggregate
/// values may differ from the serial engine by floating-point association
/// at morsel boundaries only.
///
/// Execution is governed by the [`QueryGuard`] armed from `opts`: workers
/// observe the deadline/cancellation token and charge row budgets at morsel
/// and stride boundaries, a tripped limit surfaces as
/// [`ExecError::Governed`], and a worker panic is contained by the pool and
/// surfaces as [`ExecError::Internal`] — identical to the errors the serial
/// engine ([`crate::execute`]) produces for the same fault.
pub fn execute_parallel(
    catalog: &Catalog,
    query: &Query,
    opts: &EngineOptions,
) -> Result<QueryResult, ExecError> {
    let guard = QueryGuard::arm(opts);
    let _span = opts.trace.span("execute_parallel");
    let (compiled, bindings) = Compiled::plan(catalog, query)?;
    let block = compiled.run(&bindings, opts, &guard)?;
    let mut result = compiled.spec.finish(&bindings, block);
    guard.check_groups(result.rows.len())?;
    if let Some(order) = &query.order_by {
        apply_order_by(&mut result, order)?;
    }
    if let Some(limit) = query.limit {
        result.rows.truncate(limit);
    }
    opts.trace.add("groups_out", result.rows.len() as u64);
    Ok(result)
}

/// The tables a query binds, one `(binding name, relation)` per FROM entry.
pub(crate) type Bindings<'a> = Vec<(&'a str, &'a Relation)>;

/// A query compiled against the schemas of its tables: everything a morsel
/// task needs except the rows. Running it over other relations with the
/// same schemas is sound, which is what lets the replicate agreement
/// compile once for K replicates.
pub(crate) struct Compiled {
    pub(crate) spec: GroupSpec,
    body: Body,
}

/// The row filter of a compiled query.
enum Body {
    /// Single-table scan: per-attribute admission masks.
    Scan { masks: Vec<(AttrId, Vec<bool>)> },
    /// Two-table equi-join: key column pairs (left first) and per-side
    /// masks.
    Join {
        keys: Vec<(Resolved, Resolved)>,
        masks: Vec<(Resolved, Vec<bool>)>,
    },
}

impl Compiled {
    /// Plan `query` against `catalog` (the shared planner, so every error
    /// matches the serial engine's), returning the compiled query and the
    /// tables it bound, one per FROM entry.
    pub(crate) fn plan<'a>(
        catalog: &'a Catalog,
        query: &'a Query,
    ) -> Result<(Compiled, Bindings<'a>), ExecError> {
        let (body, select, bindings) = match query.from.len() {
            1 => {
                let plan = plan_scan(catalog, query)?;
                (Body::Scan { masks: plan.masks }, plan.select, plan.bindings)
            }
            2 => {
                let plan = plan_join(catalog, query)?;
                let body = Body::Join {
                    keys: plan.join_keys,
                    masks: plan.masks,
                };
                (body, plan.select, plan.bindings)
            }
            n => return Err(ExecError::Unsupported(format!("{n} tables in FROM"))),
        };
        let spec = GroupSpec::new(select, &bindings);
        Ok((Compiled { spec, body }, bindings))
    }

    /// Run over `bindings` (one relation per FROM entry, with the schemas
    /// the plan was compiled against): every morsel's block, merged in
    /// morsel order. Group-free queries always hold their one scalar group.
    pub(crate) fn run(
        &self,
        bindings: &[(&str, &Relation)],
        opts: &EngineOptions,
        guard: &QueryGuard,
    ) -> Result<GroupBlock, ExecError> {
        let morsels = match &self.body {
            Body::Scan { masks } => scan_morsels(&self.spec, bindings[0].1, masks, opts, guard)?,
            Body::Join { keys, masks } => {
                join_morsels(&self.spec, bindings, keys, masks, opts, guard)?
            }
        };
        Ok(self.spec.merge_morsels(morsels))
    }
}

/// How group keys map to accumulator slots.
pub(crate) enum KeyCodec {
    /// Packed mixed-radix index into a flat table of `space` slots: the key
    /// `(v_0, v_1, ..)` lives at `Σ v_i · strides[i]`, `v_i < sizes[i]`.
    Dense {
        strides: Vec<usize>,
        sizes: Vec<usize>,
        space: usize,
    },
    /// Generic keys hashed to slots created in first-touch order.
    Sparse,
}

impl KeyCodec {
    /// Choose the layout for a compiled SELECT's grouping columns.
    fn choose(select: &CompiledSelect, bindings: &[(&str, &Relation)]) -> KeyCodec {
        let mut strides = Vec::with_capacity(select.group_cols.len());
        let mut sizes = Vec::with_capacity(select.group_cols.len());
        let mut space: usize = 1;
        for r in &select.group_cols {
            let size = bindings[r.table].1.schema().domain(r.attr).size();
            strides.push(space);
            sizes.push(size);
            match space.checked_mul(size) {
                Some(s) if s <= DENSE_GROUP_LIMIT => space = s,
                _ => return KeyCodec::Sparse,
            }
        }
        KeyCodec::Dense {
            strides,
            sizes,
            space,
        }
    }
}

/// Everything a morsel task needs to accumulate groups: the compiled
/// select, precomputed numeric tables, and the key layout. Immutable and
/// `Sync`, shared by reference across workers; it holds no rows, so one
/// spec serves every relation with the schema it was compiled against.
pub(crate) struct GroupSpec {
    pub(crate) select: CompiledSelect,
    numeric: Vec<Option<Vec<f64>>>,
    pub(crate) codec: KeyCodec,
    /// Whether any aggregate is MIN or MAX, the only readers of the
    /// per-slot `seen` flags.
    extrema: bool,
}

impl GroupSpec {
    fn new(select: CompiledSelect, bindings: &[(&str, &Relation)]) -> GroupSpec {
        let numeric = agg_numeric_tables(&select, bindings);
        let codec = KeyCodec::choose(&select, bindings);
        let extrema = select
            .aggs
            .iter()
            .any(|a| matches!(a, CompiledAgg::Min(_) | CompiledAgg::Max(_)));
        GroupSpec {
            select,
            numeric,
            codec,
            extrema,
        }
    }

    pub(crate) fn n_aggs(&self) -> usize {
        self.select.aggs.len()
    }

    /// Fold one joined pair into a probe morsel's block through the shared
    /// per-row fold. `key` is scratch for the sparse layout's lookup.
    fn fold(
        &self,
        g: &mut GroupBlock,
        bindings: &[(&str, &Relation)],
        rows: &[usize],
        weight: f64,
        key: &mut Vec<u32>,
    ) {
        let group_value = |r: &Resolved| bindings[r.table].1.value(rows[r.table], r.attr);
        let slot = match &self.codec {
            KeyCodec::Dense { strides, .. } => {
                let mut idx = 0usize;
                for (r, &stride) in self.select.group_cols.iter().zip(strides) {
                    idx += group_value(r) as usize * stride;
                }
                g.occupied[idx] = true;
                idx
            }
            KeyCodec::Sparse => {
                key.clear();
                key.extend(self.select.group_cols.iter().map(group_value));
                g.sparse_slot(key, self.n_aggs())
            }
        };
        let n = self.n_aggs();
        fold_row(
            &self.select,
            bindings,
            &self.numeric,
            AccumRef {
                weight: &mut g.weight[slot],
                sums: &mut g.sums[slot * n..(slot + 1) * n],
                seen: &mut g.seen[slot],
            },
            rows,
            weight,
        );
    }

    /// Merge morsel blocks in morsel order into one block, then make sure a
    /// group-free query holds its one scalar group (an aggregate-only query
    /// returns an all-zero row over empty input).
    fn merge_morsels(&self, morsels: Vec<GroupBlock>) -> GroupBlock {
        let mut it = morsels.into_iter();
        let mut acc = it
            .next()
            .unwrap_or_else(|| GroupBlock::new(&self.codec, self.n_aggs()));
        for m in it {
            self.merge(&mut acc, &m);
        }
        if self.select.group_cols.is_empty() {
            // Group-free ⇒ key space 1 ⇒ always the dense layout.
            // themis-lint: allow(no-panic-in-libs) reason=group-free spec allocates the dense one-slot layout, so occupied always has exactly one entry
            acc.occupied[0] = true;
        }
        acc
    }

    /// Merge `from` into `into`, slot by slot, preserving `from`'s slot
    /// order (morsel-order merging makes the result thread-count
    /// independent).
    fn merge(&self, into: &mut GroupBlock, from: &GroupBlock) {
        let n = self.n_aggs();
        match self.codec {
            KeyCodec::Dense { .. } => {
                for idx in 0..from.weight.len() {
                    if from.occupied[idx] {
                        into.occupied[idx] = true;
                        self.merge_slot(into, idx, from, idx, n);
                    }
                }
            }
            KeyCodec::Sparse => {
                for (s, key) in from.keys.iter().enumerate() {
                    let t = into.sparse_slot(key, n);
                    self.merge_slot(into, t, from, s, n);
                }
            }
        }
    }

    fn merge_slot(&self, into: &mut GroupBlock, t: usize, from: &GroupBlock, s: usize, n: usize) {
        into.weight[t] += from.weight[s];
        for (i, agg) in self.select.aggs.iter().enumerate() {
            match agg {
                // They report the group weight (see `output_value`).
                CompiledAgg::CountStar | CompiledAgg::SumWeight => {}
                CompiledAgg::Sum(_) | CompiledAgg::Avg(_) => {
                    into.sums[t * n + i] += from.sums[s * n + i]
                }
                CompiledAgg::Min(_) | CompiledAgg::Max(_) => {
                    if from.seen[s] {
                        let (cell, v) = (into.sums[t * n + i], from.sums[s * n + i]);
                        into.sums[t * n + i] = match (into.seen[t], agg) {
                            (false, _) => v,
                            (true, CompiledAgg::Min(_)) => cell.min(v),
                            (true, _) => cell.max(v),
                        };
                    }
                }
            }
        }
        into.seen[t] |= from.seen[s];
    }

    /// Decode a dense slot index back into group values.
    pub(crate) fn decode(&self, idx: usize) -> Vec<u32> {
        match &self.codec {
            KeyCodec::Dense { strides, sizes, .. } => strides
                .iter()
                .zip(sizes)
                .map(|(&stride, &size)| ((idx / stride) % size) as u32)
                .collect(),
            KeyCodec::Sparse => unreachable!("decode is dense-only"),
        }
    }

    /// Output value of aggregate `agg` for `slot` of a merged block.
    pub(crate) fn value(&self, g: &GroupBlock, slot: usize, agg: usize) -> f64 {
        output_value(
            &self.select.aggs[agg],
            g.weight[slot],
            g.sums[slot * self.n_aggs() + agg],
        )
    }

    /// Distinct groups in a merged block.
    pub(crate) fn group_count(&self, g: &GroupBlock) -> usize {
        match self.codec {
            KeyCodec::Dense { .. } => g.occupied.iter().filter(|&&o| o).count(),
            KeyCodec::Sparse => g.keys.len(),
        }
    }

    /// Drain a merged block into `(key, Accum)` pairs for
    /// [`crate::exec::finalize_groups`].
    fn entries(&self, g: GroupBlock) -> Vec<(Vec<u32>, Accum)> {
        let n = self.n_aggs();
        let accum = |s: usize| Accum {
            weight: g.weight[s],
            sums: g.sums[s * n..(s + 1) * n].to_vec(),
            seen: g.seen[s],
        };
        match self.codec {
            KeyCodec::Dense { .. } => (0..g.weight.len())
                .filter(|&idx| g.occupied[idx])
                .map(|idx| (self.decode(idx), accum(idx)))
                .collect(),
            KeyCodec::Sparse => g
                .keys
                .iter()
                .enumerate()
                .map(|(s, key)| (key.clone(), accum(s)))
                .collect(),
        }
    }

    /// Label a merged block into the shared result builder's sorted rows.
    fn finish(&self, bindings: &[(&str, &Relation)], block: GroupBlock) -> QueryResult {
        finalize_groups(&self.select, bindings, self.entries(block))
    }
}

/// One morsel's (or the merged) accumulator block: struct-of-arrays, one
/// slot per group.
pub(crate) struct GroupBlock {
    /// Which slots were ever touched (a zero-weight row still creates its
    /// group, matching the serial engine). Sparse slots are created
    /// touched.
    pub(crate) occupied: Vec<bool>,
    /// Sparse layout: key → slot, plus keys in slot-creation order.
    pub(crate) map: HashMap<Vec<u32>, usize>,
    pub(crate) keys: Vec<Vec<u32>>,
    weight: Vec<f64>,
    /// `n_aggs` accumulators per slot, slot-major.
    sums: Vec<f64>,
    /// Whether a positive-weight row reached the slot (MIN/MAX seed).
    seen: Vec<bool>,
}

impl GroupBlock {
    /// An empty block: every dense slot allocated untouched, no sparse
    /// slot yet.
    fn new(codec: &KeyCodec, n_aggs: usize) -> Self {
        let space = match codec {
            KeyCodec::Dense { space, .. } => *space,
            KeyCodec::Sparse => 0,
        };
        GroupBlock {
            occupied: vec![false; space],
            map: HashMap::new(),
            keys: Vec::new(),
            weight: vec![0.0; space],
            sums: vec![0.0; space * n_aggs],
            seen: vec![false; space],
        }
    }

    /// Slot of `key` in the sparse layout, creating it on first touch (the
    /// only time the key is copied).
    fn sparse_slot(&mut self, key: &[u32], n_aggs: usize) -> usize {
        if let Some(&s) = self.map.get(key) {
            return s;
        }
        let s = self.keys.len();
        self.map.insert(key.to_vec(), s);
        self.keys.push(key.to_vec());
        self.occupied.push(true);
        self.weight.push(0.0);
        self.sums.resize(self.sums.len() + n_aggs, 0.0);
        self.seen.push(false);
        s
    }
}

/// Collect per-morsel results, surfacing the first error **in morsel
/// order** (deterministic no matter which worker tripped first).
fn first_error_wins<T>(
    results: Result<Vec<Result<T, ExecError>>, rayon::TaskPanic>,
) -> Result<Vec<T>, ExecError> {
    results
        .map_err(task_panic_error)?
        .into_iter()
        .collect::<Result<Vec<T>, ExecError>>()
}

/// What one aggregate's accumulator loop reads, resolved against the
/// relation being scanned.
enum AggInput<'a> {
    /// COUNT(*) / SUM(weight): adds the row weight.
    Weight,
    /// SUM / AVG: adds the row weight times the value's numeric key.
    Sum { col: &'a Column, keys: &'a [f64] },
    /// MIN (`max: false`) or MAX over the numeric keys of positive-weight
    /// rows.
    Extreme {
        col: &'a Column,
        keys: &'a [f64],
        max: bool,
    },
}

/// A compiled scan bound to the columns of one relation.
struct ScanKernel<'a> {
    spec: &'a GroupSpec,
    weights: &'a [f64],
    masks: Vec<(&'a Column, &'a [bool])>,
    group_cols: Vec<&'a Column>,
    aggs: Vec<AggInput<'a>>,
}

/// Per-morsel scratch, reused by each stride of the morsel.
#[derive(Default)]
struct Stride {
    /// Selection vector: offsets (from the stride start) of the rows that
    /// pass every mask, in order. Kept at its largest length; the current
    /// stride's selection is a prefix.
    sel: Vec<u32>,
    /// What the accumulator loops write.
    loops: LoopScratch,
}

/// Scratch the accumulator loops write, per stride.
#[derive(Default)]
struct LoopScratch {
    /// Accumulator slot of each selected row.
    slots: Vec<usize>,
    /// Each selected row's slot `seen` flag before the row (MIN/MAX only).
    seen_before: Vec<bool>,
    /// Sparse layout: the selected rows' keys, row-major.
    keys: Vec<u32>,
}

impl<'a> ScanKernel<'a> {
    fn new(spec: &'a GroupSpec, rel: &'a Relation, masks: &'a [(AttrId, Vec<bool>)]) -> Self {
        let aggs = spec
            .select
            .aggs
            .iter()
            .zip(&spec.numeric)
            .map(|(agg, keys)| {
                let keys = keys.as_deref().unwrap_or_default();
                match agg {
                    CompiledAgg::CountStar | CompiledAgg::SumWeight => AggInput::Weight,
                    CompiledAgg::Sum(r) | CompiledAgg::Avg(r) => AggInput::Sum {
                        col: rel.column(r.attr),
                        keys,
                    },
                    CompiledAgg::Min(r) | CompiledAgg::Max(r) => AggInput::Extreme {
                        col: rel.column(r.attr),
                        keys,
                        max: matches!(agg, CompiledAgg::Max(_)),
                    },
                }
            })
            .collect();
        ScanKernel {
            spec,
            weights: rel.weights(),
            masks: masks
                .iter()
                .map(|(attr, mask)| (rel.column(*attr), mask.as_slice()))
                .collect(),
            group_cols: spec
                .select
                .group_cols
                .iter()
                .map(|r| rel.column(r.attr))
                .collect(),
            aggs,
        }
    }

    /// Fold the rows of `range` into `block`; returns how many passed the
    /// masks. Without masks every row is selected and the loops walk the
    /// range itself.
    fn fold_stride(&self, block: &mut GroupBlock, s: &mut Stride, range: Range<usize>) -> usize {
        if self.masks.is_empty() {
            self.accumulate(block, &mut s.loops, range.clone());
            return range.len();
        }
        let n = self.select(&mut s.sel, range.clone());
        let start = range.start;
        let rows = s.sel[..n].iter().map(|&o| start + o as usize);
        self.accumulate(block, &mut s.loops, rows);
        n
    }

    /// Write the offsets of the rows of `range` that pass every mask to the
    /// front of `sel` and return how many there are: each row's offset is
    /// written, and the cursor advances by its mask bit.
    fn select(&self, sel: &mut Vec<u32>, range: Range<usize>) -> usize {
        if sel.len() < range.len() {
            sel.resize(range.len(), 0);
        }
        let mut n = range.len();
        for (i, (col, mask)) in self.masks.iter().enumerate() {
            let sel = &mut sel[..n];
            n = match col {
                Column::U8(c) if i == 0 => select_first(&c[range.clone()], mask, sel),
                Column::U32(c) if i == 0 => select_first(&c[range.clone()], mask, sel),
                Column::U8(c) => select_more(&c[range.clone()], mask, sel),
                Column::U32(c) => select_more(&c[range.clone()], mask, sel),
            };
        }
        n
    }

    /// The accumulator loops over the selected `rows`: slots first, then
    /// the group weight, then each aggregate in SELECT order.
    fn accumulate<R>(&self, block: &mut GroupBlock, s: &mut LoopScratch, rows: R)
    where
        R: Iterator<Item = usize> + Clone,
    {
        self.assign_slots(block, s, rows.clone());
        let n = self.spec.n_aggs();
        let w = self.weights;
        let slots = &s.slots;
        for (&slot, r) in slots.iter().zip(rows.clone()) {
            block.weight[slot] += w[r];
            block.occupied[slot] = true;
        }
        let seen_before = &mut s.seen_before;
        if self.spec.extrema {
            seen_before.clear();
            for (&slot, r) in slots.iter().zip(rows.clone()) {
                seen_before.push(block.seen[slot]);
                block.seen[slot] |= w[r] > 0.0;
            }
        }
        for (a, agg) in self.aggs.iter().enumerate() {
            let selected = slots.iter().copied().zip(rows.clone());
            let cell = |slot: usize| slot * n + a;
            let sums = &mut block.sums;
            match *agg {
                // COUNT(*) and SUM(weight) report the group weight.
                AggInput::Weight => {}
                AggInput::Sum { col, keys } => match col {
                    Column::U8(c) => add_sums(sums, cell, selected, w, c, keys),
                    Column::U32(c) => add_sums(sums, cell, selected, w, c, keys),
                },
                AggInput::Extreme { col, keys, max } => {
                    let selected = selected.zip(seen_before.iter().copied());
                    match col {
                        Column::U8(c) => fold_extremes(sums, cell, selected, w, c, keys, max),
                        Column::U32(c) => fold_extremes(sums, cell, selected, w, c, keys, max),
                    }
                }
            }
        }
    }

    /// The accumulator slot of every selected row, creating sparse slots in
    /// row order.
    fn assign_slots<R>(&self, block: &mut GroupBlock, s: &mut LoopScratch, rows: R)
    where
        R: Iterator<Item = usize> + Clone,
    {
        s.slots.clear();
        match &self.spec.codec {
            KeyCodec::Dense { strides, .. } => {
                let mut cols = self.group_cols.iter().zip(strides);
                match cols.next() {
                    // Group-free: every row folds into the one scalar slot.
                    None => s.slots.extend(rows.map(|_| 0)),
                    Some((col, &stride)) => {
                        match col {
                            Column::U8(c) => first_slots(&mut s.slots, rows.clone(), c, stride),
                            Column::U32(c) => first_slots(&mut s.slots, rows.clone(), c, stride),
                        }
                        for (col, &stride) in cols {
                            match col {
                                Column::U8(c) => add_slots(&mut s.slots, rows.clone(), c, stride),
                                Column::U32(c) => add_slots(&mut s.slots, rows.clone(), c, stride),
                            }
                        }
                    }
                }
            }
            KeyCodec::Sparse => {
                // Widen the stride's keys a column at a time, then look
                // them up in row order.
                let arity = self.group_cols.len();
                s.keys.clear();
                s.keys.resize(rows.clone().count() * arity, 0);
                for (i, col) in self.group_cols.iter().enumerate() {
                    match col {
                        Column::U8(c) => widen_keys(&mut s.keys, rows.clone(), c, i, arity),
                        Column::U32(c) => widen_keys(&mut s.keys, rows.clone(), c, i, arity),
                    }
                }
                let n = self.spec.n_aggs();
                for key in s.keys.chunks_exact(arity) {
                    s.slots.push(block.sparse_slot(key, n));
                }
            }
        }
    }
}

// The scan kernel's loops, generic over the code type: each is entered once
// per column per stride, by a match on the column's width.

/// The first mask's pass of [`ScanKernel::select`]: every offset of the
/// stride's `codes` is written, and the cursor advances by its mask bit.
fn select_first<C: Code>(codes: &[C], mask: &[bool], sel: &mut [u32]) -> usize {
    let mut kept = 0;
    for (offset, &v) in codes.iter().enumerate() {
        sel[kept] = offset as u32;
        kept += usize::from(mask[v.index()]);
    }
    kept
}

/// A later mask's pass of [`ScanKernel::select`]: the offsets of `sel` whose
/// code passes, kept in order at its front.
fn select_more<C: Code>(codes: &[C], mask: &[bool], sel: &mut [u32]) -> usize {
    let mut kept = 0;
    for j in 0..sel.len() {
        let offset = sel[j];
        sel[kept] = offset;
        kept += usize::from(mask[codes[offset as usize].index()]);
    }
    kept
}

/// The dense slots of the first grouping column: `code · stride` per row.
fn first_slots<C: Code>(
    slots: &mut Vec<usize>,
    rows: impl Iterator<Item = usize>,
    codes: &[C],
    stride: usize,
) {
    slots.extend(rows.map(|r| codes[r].index() * stride));
}

/// Add a later grouping column's `code · stride` to each row's dense slot.
fn add_slots<C: Code>(
    slots: &mut [usize],
    rows: impl Iterator<Item = usize>,
    codes: &[C],
    stride: usize,
) {
    for (slot, r) in slots.iter_mut().zip(rows) {
        *slot += codes[r].index() * stride;
    }
}

/// Write grouping column `i`'s code of each row into its `arity`-wide
/// sparse key.
fn widen_keys<C: Code>(
    keys: &mut [u32],
    rows: impl Iterator<Item = usize>,
    codes: &[C],
    i: usize,
    arity: usize,
) {
    for (key, r) in keys.chunks_exact_mut(arity).zip(rows) {
        key[i] = codes[r].id();
    }
}

/// SUM / AVG: add each selected `(slot, row)`'s weight times its value's
/// numeric key to the aggregate's cell of the slot, `sums[cell(slot)]`.
fn add_sums<C: Code>(
    sums: &mut [f64],
    cell: impl Fn(usize) -> usize,
    selected: impl Iterator<Item = (usize, usize)>,
    w: &[f64],
    codes: &[C],
    keys: &[f64],
) {
    for (slot, r) in selected {
        sums[cell(slot)] += w[r] * keys[codes[r].index()];
    }
}

/// MIN / MAX over the numeric keys of the selected positive-weight rows,
/// into the aggregate's cell of each slot, `sums[cell(slot)]`; `seen` is
/// the row's slot flag as it stood before the row.
fn fold_extremes<C: Code>(
    sums: &mut [f64],
    cell: impl Fn(usize) -> usize,
    selected: impl Iterator<Item = ((usize, usize), bool)>,
    w: &[f64],
    codes: &[C],
    keys: &[f64],
    max: bool,
) {
    for ((slot, r), seen) in selected {
        if w[r] > 0.0 {
            let key = keys[codes[r].index()];
            let cell = &mut sums[cell(slot)];
            *cell = match (seen, max) {
                (false, _) => key,
                (true, false) => cell.min(key),
                (true, true) => cell.max(key),
            };
        }
    }
}

/// The per-morsel blocks of a single-table scan, in morsel order.
fn scan_morsels(
    spec: &GroupSpec,
    rel: &Relation,
    masks: &[(AttrId, Vec<bool>)],
    opts: &EngineOptions,
    guard: &QueryGuard,
) -> Result<Vec<GroupBlock>, ExecError> {
    let kernel = ScanKernel::new(spec, rel, masks);
    let morsel_rows = opts.morsel_rows.max(1);
    // Hoisted so the hot loop sees a plain bool; counters are morsel-local
    // and batched into the sink with one lock per morsel, which also makes
    // their totals independent of thread count (morsels always partition
    // the input the same way).
    let traced = opts.trace.is_enabled();
    let pool = Pool::new(opts.threads);
    first_error_wins(pool.try_par_ranges(rel.len(), morsel_rows, |range| {
        guard.at_morsel((range.start / morsel_rows) as u64)?;
        let mut meter = RowMeter::new(guard);
        let mut block = GroupBlock::new(&spec.codec, spec.n_aggs());
        let mut scratch = Stride::default();
        let rows_scanned = range.len() as u64;
        let mut rows_folded = 0u64;
        for start in range.clone().step_by(GUARD_STRIDE as usize) {
            let end = range.end.min(start + GUARD_STRIDE as usize);
            meter.tick_stride((end - start) as u64)?;
            rows_folded += kernel.fold_stride(&mut block, &mut scratch, start..end) as u64;
        }
        meter.flush()?;
        if traced {
            opts.trace.add_counts(&[
                ("guard_checks", 1 + meter.checks()),
                ("morsels", 1),
                ("rows_folded", rows_folded),
                ("rows_masked", rows_scanned - rows_folded),
                ("rows_scanned", rows_scanned),
            ]);
        }
        // Early per-morsel group check (sparse only: dense blocks are
        // bounded by DENSE_GROUP_LIMIT and scanning them per morsel would
        // cost more than it saves). A morsel's groups are a subset of the
        // final merged set, so this can only trip when the final check
        // would too.
        if matches!(spec.codec, KeyCodec::Sparse) {
            guard.check_groups(block.keys.len())?;
        }
        Ok(block)
    }))
}

/// Stable partition index for a join key (`DefaultHasher` is deterministic
/// within a process; the partition choice never affects results, only which
/// build table holds a key).
fn partition_of(key: &[u32], partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// The per-morsel probe blocks of a two-table equi-join, in morsel order.
fn join_morsels(
    spec: &GroupSpec,
    bindings: &[(&str, &Relation)],
    join_keys: &[(Resolved, Resolved)],
    masks: &[(Resolved, Vec<bool>)],
    opts: &EngineOptions,
    guard: &QueryGuard,
) -> Result<Vec<GroupBlock>, ExecError> {
    let (left, right) = (bindings[0].1, bindings[1].1);
    let morsel_rows = opts.morsel_rows.max(1);
    let traced = opts.trace.is_enabled();
    let pool = Pool::new(opts.threads);
    let partitions = pool.threads();

    // Build phase, one scan of the right side total: morsels filter rows
    // and route (key, row) pairs into per-partition buckets, then one task
    // per partition folds its buckets into a hash table, visiting morsels
    // in order. Buckets are appended in (morsel, row) order, so per-key
    // match lists come out in ascending row order — exactly the order of
    // the serial engine's single build loop.
    let right_key = |row: usize| -> Vec<u32> {
        join_keys
            .iter()
            .map(|(_, r)| right.value(row, r.attr))
            .collect()
    };
    type Bucket = Vec<(Vec<u32>, usize)>;
    let bucketed: Vec<Vec<Bucket>> =
        first_error_wins(pool.try_par_ranges(right.len(), morsel_rows, |range| {
            guard.at_morsel((range.start / morsel_rows) as u64)?;
            let mut meter = RowMeter::new(guard);
            let mut buckets: Vec<Bucket> = vec![Vec::new(); partitions];
            let rows_scanned = range.len() as u64;
            let mut rows_masked = 0u64;
            for row in range {
                meter.tick()?;
                if !side_passes(masks, right, 1, row) {
                    rows_masked += 1;
                    continue;
                }
                let key = right_key(row);
                buckets[partition_of(&key, partitions)].push((key, row));
            }
            meter.flush()?;
            if traced {
                // Guard checks in the partition-fold tasks below are *not*
                // counted: there is one per partition and partitions track
                // the pool size, so counting them would make traces differ
                // across thread counts.
                opts.trace.add_counts(&[
                    ("guard_checks", 1 + meter.checks()),
                    ("morsels", 1),
                    ("rows_masked", rows_masked),
                    ("rows_scanned", rows_scanned),
                ]);
            }
            Ok(buckets)
        }))?;
    let parts: Vec<HashMap<Vec<u32>, Vec<usize>>> =
        first_error_wins(pool.try_par_indexed(partitions, |p| {
            // Partition tasks re-visit already-charged rows, so they only
            // observe cancellation/deadline, not the row budget.
            guard.check()?;
            let mut table: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
            for morsel in &bucketed {
                for (key, row) in &morsel[p] {
                    // Clone the key only on first touch of a distinct value.
                    match table.get_mut(key) {
                        Some(rows) => rows.push(*row),
                        None => {
                            table.insert(key.clone(), vec![*row]);
                        }
                    }
                }
            }
            Ok(table)
        }))?;

    // Probe phase: morsels over the left side.
    let (lw, rw) = (left.weights(), right.weights());
    first_error_wins(pool.try_par_ranges(left.len(), morsel_rows, |range| {
        guard.at_morsel((range.start / morsel_rows) as u64)?;
        let mut meter = RowMeter::new(guard);
        let mut block = GroupBlock::new(&spec.codec, spec.n_aggs());
        let mut group_key = Vec::new();
        let rows_scanned = range.len() as u64;
        let mut rows_masked = 0u64;
        let mut pairs_folded = 0u64;
        for lrow in range {
            meter.tick()?;
            if !side_passes(masks, left, 0, lrow) {
                rows_masked += 1;
                continue;
            }
            let key: Vec<u32> = join_keys
                .iter()
                .map(|(l, _)| left.value(lrow, l.attr))
                .collect();
            if let Some(matches) = parts[partition_of(&key, partitions)].get(&key) {
                for &rrow in matches {
                    // Joined pairs are charged too: a key-skew blowup trips
                    // the row budget even when the inputs are small.
                    meter.tick()?;
                    pairs_folded += 1;
                    spec.fold(
                        &mut block,
                        bindings,
                        &[lrow, rrow],
                        lw[lrow] * rw[rrow],
                        &mut group_key,
                    );
                }
            }
        }
        meter.flush()?;
        if traced {
            opts.trace.add_counts(&[
                ("guard_checks", 1 + meter.checks()),
                ("morsels", 1),
                ("pairs_folded", pairs_folded),
                ("rows_masked", rows_masked),
                ("rows_scanned", rows_scanned),
            ]);
        }
        if matches!(spec.codec, KeyCodec::Sparse) {
            guard.check_groups(block.keys.len())?;
        }
        Ok(block)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScanPlan;
    use crate::value::Value;
    use themis_data::paper_example::{example_population, example_sample};
    use themis_data::{Attribute, Domain, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("flights", example_population());
        c.register("sample", example_sample());
        c
    }

    /// Tiny morsels + more threads than morsels, to exercise merging.
    fn opts() -> EngineOptions {
        EngineOptions {
            threads: 4,
            morsel_rows: 3,
            ..EngineOptions::default()
        }
    }

    fn run(c: &Catalog, sql: &str) -> QueryResult {
        crate::run_sql(c, sql, &opts()).unwrap()
    }

    #[test]
    fn scan_matches_serial_engine() {
        let c = catalog();
        for sql in [
            "SELECT COUNT(*) FROM flights",
            "SELECT o_st, COUNT(*) FROM flights WHERE date = '01' GROUP BY o_st",
            "SELECT o_st, MIN(date), MAX(date) FROM flights GROUP BY o_st",
            "SELECT COUNT(*) FROM flights WHERE o_st IN ('FL', 'NY')",
            "SELECT AVG(date) FROM flights WHERE date <= 1",
            "SELECT o_st, COUNT(*) AS n FROM flights GROUP BY o_st ORDER BY n DESC LIMIT 1",
        ] {
            let query = themis_sql::parse(sql).unwrap();
            let serial = crate::exec::execute(&c, &query, &opts()).unwrap();
            // Integer-valued weights ⇒ merges are exact ⇒ full equality.
            assert_eq!(run(&c, sql), serial, "{sql}");
        }
    }

    #[test]
    fn join_matches_serial_engine() {
        let c = catalog();
        for sql in [
            "SELECT COUNT(*) FROM flights t, flights s WHERE t.d_st = s.o_st",
            "SELECT t.o_st, s.d_st, COUNT(*) FROM flights t, flights s \
             WHERE t.d_st = s.o_st AND t.d_st IN ('NC') GROUP BY t.o_st, s.d_st",
        ] {
            let query = themis_sql::parse(sql).unwrap();
            let serial = crate::exec::execute(&c, &query, &opts()).unwrap();
            assert_eq!(run(&c, sql), serial, "{sql}");
        }
    }

    #[test]
    fn scalar_query_over_empty_selection_returns_zero_row() {
        let c = catalog();
        let r = run(
            &c,
            "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NC'",
        );
        assert_eq!(r.scalar(), Some(0.0));
    }

    #[test]
    fn sparse_layout_handles_large_key_spaces() {
        // One grouping domain bigger than DENSE_GROUP_LIMIT forces the
        // sparse accumulator path.
        let schema = Schema::new(vec![Attribute::new(
            "x",
            Domain::indexed("x", DENSE_GROUP_LIMIT + 10),
        )]);
        let mut rel = Relation::new(schema);
        for v in [0u32, 4100, 4100, 7, 0] {
            rel.push_row(&[v]);
        }
        let mut c = Catalog::new();
        c.register("t", rel);
        let sql = "SELECT x, COUNT(*) FROM t GROUP BY x";
        let query = themis_sql::parse(sql).unwrap();
        let serial = crate::exec::execute(&c, &query, &opts()).unwrap();
        let parallel = crate::run_sql(
            &c,
            sql,
            &EngineOptions {
                threads: 4,
                morsel_rows: 2,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(parallel.rows.len(), 3);
    }

    #[test]
    fn min_ignores_zero_weight_rows_across_morsels() {
        let mut c = Catalog::new();
        let mut s = example_sample();
        // Zero-weight rows land in different morsels (morsel size 1).
        s.set_weights(vec![0.0, 0.0, 3.0, 0.0]);
        c.register("s", s);
        let r = crate::run_sql(
            &c,
            "SELECT MIN(date) AS lo, MAX(date) AS hi FROM s",
            &EngineOptions {
                threads: 4,
                morsel_rows: 1,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.to_map()[&Vec::<String>::new()], vec![2.0, 2.0]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let c = catalog();
        let sql = "SELECT o_st, COUNT(*), AVG(date) FROM flights GROUP BY o_st ORDER BY o_st";
        let base = crate::run_sql(&c, sql, &EngineOptions::with_threads(1)).unwrap();
        for threads in [2, 3, 8] {
            let r = crate::run_sql(&c, sql, &EngineOptions::with_threads(threads)).unwrap();
            assert_eq!(r, base, "threads = {threads}");
        }
    }

    #[test]
    fn errors_match_serial_engine() {
        let c = catalog();
        for sql in [
            "SELECT COUNT(*) FROM missing",
            "SELECT COUNT(*) FROM flights WHERE nope = 1",
            "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st ORDER BY nope",
            "SELECT o_st FROM flights",
            "SELECT COUNT(*) FROM flights t, flights s",
        ] {
            let query = themis_sql::parse(sql).unwrap();
            let serial = crate::exec::execute(&c, &query, &opts()).unwrap_err();
            let parallel = execute_parallel(&c, &query, &opts()).unwrap_err();
            assert_eq!(parallel, serial, "{sql}");
        }
    }

    #[test]
    fn engine_description_names_the_configuration() {
        let d = EngineOptions::with_threads(1).describe();
        assert!(d.contains("1 thread,"), "{d}");
        let d = EngineOptions {
            threads: 4,
            morsel_rows: 512,
            ..EngineOptions::default()
        }
        .describe();
        assert!(
            d.contains("4 threads") && d.contains("512 rows/morsel"),
            "{d}"
        );
        assert!(!d.contains("limits:"), "unarmed options stay terse: {d}");
        let d = EngineOptions {
            limits: crate::guard::Limits {
                max_rows: Some(10),
                ..crate::guard::Limits::default()
            },
            ..EngineOptions::default()
        }
        .describe();
        assert!(d.contains("limits: max 10 rows"), "{d}");
    }

    /// Bit-for-bit equality of two results: same columns and arity, same
    /// rows in the same order, labels equal and numbers equal in their bits.
    fn assert_bits_eq(got: &QueryResult, want: &QueryResult, context: &str) {
        assert_eq!(got.columns, want.columns, "{context}");
        assert_eq!(got.group_arity, want.group_arity, "{context}");
        assert_eq!(got.rows.len(), want.rows.len(), "{context}");
        for (g, w) in got.rows.iter().zip(&want.rows) {
            assert_eq!(g.len(), w.len(), "{context}");
            for (x, y) in g.iter().zip(w) {
                match (x, y) {
                    (Value::Str(a), Value::Str(b)) => assert_eq!(a, b, "{context}"),
                    (Value::Num(a), Value::Num(b)) => assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{context}: {a} vs {b} in {g:?} vs {w:?}"
                    ),
                    _ => panic!("{context}: cell types differ: {x:?} vs {y:?}"),
                }
            }
        }
    }

    /// Merge one morsel's accumulator into the running one, with the morsel
    /// engine's semantics: sums add, MIN/MAX take the first seen value and
    /// then the min/max, `seen` ors. COUNT(*) and SUM(weight) keep their own
    /// sums here, so the reference can check they equal the weight.
    fn merge_accum(select: &CompiledSelect, into: &mut Accum, from: &Accum) {
        into.weight += from.weight;
        for (i, agg) in select.aggs.iter().enumerate() {
            match agg {
                CompiledAgg::Min(_) | CompiledAgg::Max(_) => {
                    if from.seen {
                        into.sums[i] = match (into.seen, agg) {
                            (false, _) => from.sums[i],
                            (true, CompiledAgg::Min(_)) => into.sums[i].min(from.sums[i]),
                            (true, _) => into.sums[i].max(from.sums[i]),
                        };
                    }
                }
                _ => into.sums[i] += from.sums[i],
            }
        }
        into.seen |= from.seen;
    }

    /// The reference the scan kernel must match bit for bit: every row
    /// that passes the masks folded through `fold_row`, in row order, into
    /// its morsel's group map; morsels merged in morsel order.
    fn reference_scan(c: &Catalog, sql: &str, morsel_rows: usize) -> QueryResult {
        use std::collections::BTreeMap;
        let query = themis_sql::parse(sql).unwrap();
        let ScanPlan {
            rel,
            bindings,
            masks,
            select,
        } = plan_scan(c, &query).unwrap();
        let numeric = agg_numeric_tables(&select, &bindings);
        let n = select.aggs.len();
        let mut merged: Option<BTreeMap<Vec<u32>, Accum>> = None;
        for start in (0..rel.len()).step_by(morsel_rows) {
            let mut block: BTreeMap<Vec<u32>, Accum> = BTreeMap::new();
            for r in start..(start + morsel_rows).min(rel.len()) {
                if masks
                    .iter()
                    .any(|(attr, mask)| !mask[rel.value(r, *attr) as usize])
                {
                    continue;
                }
                let key: Vec<u32> = select
                    .group_cols
                    .iter()
                    .map(|g| rel.value(r, g.attr))
                    .collect();
                let acc = block.entry(key).or_insert_with(|| Accum::zero(n));
                fold_row(
                    &select,
                    &bindings,
                    &numeric,
                    AccumRef {
                        weight: &mut acc.weight,
                        sums: &mut acc.sums,
                        seen: &mut acc.seen,
                    },
                    &[r],
                    rel.weights()[r],
                );
            }
            merged = Some(match merged {
                None => block,
                Some(mut into) => {
                    for (key, from) in block {
                        match into.get_mut(&key) {
                            Some(acc) => merge_accum(&select, acc, &from),
                            None => {
                                into.insert(key, from);
                            }
                        }
                    }
                    into
                }
            });
        }
        let mut groups = merged.unwrap_or_default();
        if select.group_cols.is_empty() {
            groups.entry(Vec::new()).or_insert_with(|| Accum::zero(n));
        }
        for acc in groups.values() {
            for (agg, sum) in select.aggs.iter().zip(&acc.sums) {
                if matches!(agg, CompiledAgg::CountStar | CompiledAgg::SumWeight) {
                    assert_eq!(
                        sum.to_bits(),
                        acc.weight.to_bits(),
                        "{sql}: count != weight"
                    );
                }
            }
        }
        finalize_groups(&select, &bindings, groups)
    }

    /// A random relation: `a` (6 values), `b` (numeric labels, a negative
    /// zero and a non-numeric one), `c` (5000 values, so grouping by it
    /// takes the sparse layout), `d` (300 values: stored four bytes a code
    /// but grouped densely), with weights drawn from non-dyadic values and
    /// zeros.
    fn random_relation(seed: u64, rows: usize) -> Relation {
        let b_labels = ["-2.5", "0.1", "1", "3.75", "10", "-0", "x"];
        let schema = Schema::new(vec![
            Attribute::new("a", Domain::indexed("a", 6)),
            Attribute::new("b", Domain::of("b", &b_labels)),
            Attribute::new("c", Domain::indexed("c", 5000)),
            Attribute::new("d", Domain::indexed("d", 300)),
        ]);
        let weights = [1.0 / 3.0, 0.1, 0.0, 2.0, 7.0 / 3.0];
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut rel = Relation::new(schema);
        for _ in 0..rows {
            // A skewed `a` and a small band of `c`, so groups repeat within
            // morsels and sparse groups recur across them.
            let a = if next(3) == 0 { 0 } else { next(6) } as u32;
            let b = next(b_labels.len() as u64) as u32;
            let c = (4990 + next(10)) as u32 * u32::from(next(4) != 0);
            let w = weights[next(weights.len() as u64) as usize];
            let d = next(300) as u32;
            rel.push_row_weighted(&[a, b, c, d], w);
        }
        rel
    }

    #[test]
    fn scan_kernel_is_bit_identical_to_the_per_row_fold() {
        let aggs = "COUNT(*), SUM(weight), SUM(b), AVG(b), MIN(b), MAX(b)";
        let wide = "SUM(c), AVG(d), MIN(c), MAX(d)";
        let queries = [
            format!("SELECT {aggs} FROM t"),
            format!("SELECT a, {aggs} FROM t GROUP BY a"),
            format!("SELECT a, {aggs} FROM t WHERE b = '1' GROUP BY a"),
            format!("SELECT b, a, {aggs} FROM t WHERE a IN ('0', '2', '5') GROUP BY b, a"),
            format!("SELECT a, {aggs} FROM t WHERE b <= 3.75 AND a <> '4' GROUP BY a"),
            format!("SELECT c, {aggs} FROM t GROUP BY c"),
            format!("SELECT a, c, {aggs} FROM t WHERE b > 0 GROUP BY a, c"),
            format!("SELECT {aggs} FROM t WHERE a = '9'"),
            format!("SELECT d, {wide} FROM t WHERE c >= 4995 GROUP BY d"),
            format!("SELECT a, d, {wide} FROM t WHERE b <> 'x' AND d < 150 GROUP BY a, d"),
            format!("SELECT {wide}, {aggs} FROM t WHERE d > 20 AND c <> '0' AND a <> '3'"),
        ];
        let morsel_sizes: Vec<usize> = (1..=64).chain([2048]).collect();
        for seed in [1u64, 7, 2024] {
            let rel = random_relation(seed, 300);
            // `a` and `b` take the kernel's one-byte arm, the 5,000-value
            // `c` and 300-value `d` its four-byte arm, in masks, dense and
            // sparse slots and aggregates alike.
            let schema = rel.schema().clone();
            let column = |name: &str| rel.column(schema.attr_id(name).unwrap());
            assert!(matches!(column("a"), Column::U8(_)));
            assert!(matches!(column("b"), Column::U8(_)));
            assert!(matches!(column("c"), Column::U32(_)));
            assert!(matches!(column("d"), Column::U32(_)));
            let mut c = Catalog::new();
            c.register("t", rel);
            for sql in &queries {
                let query = themis_sql::parse(sql).unwrap();
                for &morsel_rows in &morsel_sizes {
                    let want = reference_scan(&c, sql, morsel_rows);
                    for threads in [1, 2, 8] {
                        let opts = EngineOptions {
                            threads,
                            morsel_rows,
                            ..EngineOptions::default()
                        };
                        let got = execute_parallel(&c, &query, &opts).unwrap();
                        let context = format!(
                            "seed {seed}, {morsel_rows} rows/morsel, {threads} threads: {sql}"
                        );
                        assert_bits_eq(&got, &want, &context);
                    }
                }
            }
        }
    }

    #[test]
    fn group_values_are_labels() {
        let c = catalog();
        let r = run(&c, "SELECT d_st, COUNT(*) FROM flights GROUP BY d_st");
        for row in &r.rows {
            assert!(matches!(&row[0], Value::Str(_)));
            assert!(matches!(&row[1], Value::Num(_)));
        }
    }
}
