//! Weighted columnar relations.
//!
//! Themis treats every relation as a sample: each tuple `t` carries a weight
//! `w(t)` giving the number of population tuples it represents (§4.1).
//! Queries over the population are answered by translating `COUNT(*)` into
//! `SUM(weight)`. A freshly built [`Relation`] has all weights set to 1.
//!
//! # Layout
//!
//! Each attribute's values (dense domain ids, *codes*) live in one
//! [`Column`], stored as narrow as the attribute's domain allows: one byte
//! per code when the domain has at most 256 values, four otherwise. The
//! width is fixed by the schema: domains never grow (ingest rejects unknown
//! labels), so a column never has to widen. Per-value accessors
//! ([`Relation::value`], [`Relation::row`]) read `u32` whatever the width;
//! loops over whole columns match on the [`Column`] once per column (or per
//! chunk of rows) and run a body generic over [`Code`].
//!
//! The row weights sit behind an `Arc`, and every mutator copies them on
//! write. Relations drawn together can therefore share one weight column:
//! the K BN replicates of a world carry `population / size` in every row
//! and hold a single column of it between them.

use crate::schema::{AttrId, Schema};
use std::collections::HashMap;
use std::ops::{AddAssign, Range};
use std::sync::Arc;

/// A group-by key: the attribute values of one group, in the order of the
/// grouping attributes.
pub type GroupKey = Vec<u32>;

/// Largest domain whose codes are stored one byte each.
const NARROW_DOMAIN: usize = 256;

/// Rows per chunk of the column-at-a-time row loops
/// ([`Relation::for_each_key`], the point predicates): each chunk's codes
/// are matched or widened one column at a time into a small scratch.
const CHUNK_ROWS: usize = 256;

/// A stored code type: `u8` for domains of at most 256 values, `u32`
/// otherwise.
pub trait Code: Copy + Send + Sync + 'static {
    /// The code as a domain id.
    fn id(self) -> u32;
    /// The code as an index into a per-value table.
    fn index(self) -> usize;
}

impl Code for u8 {
    #[inline]
    fn id(self) -> u32 {
        u32::from(self)
    }
    #[inline]
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl Code for u32 {
    #[inline]
    fn id(self) -> u32 {
        self
    }
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// One attribute's codes, at the width its domain's size selects
/// ([`Column::for_domain`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Column {
    /// Codes of a domain with at most 256 values.
    U8(Vec<u8>),
    /// Codes of a larger domain.
    U32(Vec<u32>),
}

impl Column {
    /// An empty column for a domain of `size` values, with room for `rows`
    /// codes.
    pub fn for_domain(size: usize, rows: usize) -> Column {
        if size <= NARROW_DOMAIN {
            Column::U8(Vec::with_capacity(rows))
        } else {
            Column::U32(Vec::with_capacity(rows))
        }
    }

    /// Number of codes.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::U8(c) => c.len(),
            Column::U32(c) => c.len(),
        }
    }

    /// The code at `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub(crate) fn get(&self, row: usize) -> u32 {
        match self {
            Column::U8(c) => u32::from(c[row]),
            Column::U32(c) => c[row],
        }
    }

    /// Bytes of code storage (`len` × the code width).
    pub(crate) fn bytes(&self) -> usize {
        match self {
            Column::U8(c) => c.len(),
            Column::U32(c) => c.len() * std::mem::size_of::<u32>(),
        }
    }

    /// Append one code.
    ///
    /// # Panics
    /// Panics if `code` does not fit the column's width.
    pub(crate) fn push(&mut self, code: u32) {
        match self {
            Column::U8(c) => c.push(narrow(code)),
            Column::U32(c) => c.push(code),
        }
    }

    /// Append `codes`, narrowed to the column's width.
    ///
    /// # Panics
    /// Panics if a code does not fit the column's width.
    pub fn extend_from_codes(&mut self, codes: &[u32]) {
        match self {
            Column::U8(c) => {
                let widest = codes.iter().fold(0, |m, &v| m.max(v));
                assert!(
                    widest <= u32::from(u8::MAX),
                    "code {widest} does not fit a one-byte column"
                );
                c.extend(codes.iter().map(|&v| v as u8));
            }
            Column::U32(c) => c.extend_from_slice(codes),
        }
    }

    /// A column of the codes at `rows`, in that order.
    ///
    /// # Panics
    /// Panics if a row is out of range.
    pub(crate) fn gather(&self, rows: &[usize]) -> Column {
        match self {
            Column::U8(c) => Column::U8(rows.iter().map(|&r| c[r]).collect()),
            Column::U32(c) => Column::U32(rows.iter().map(|&r| c[r]).collect()),
        }
    }
}

/// `code` as one byte.
///
/// # Panics
/// Panics if `code` exceeds `u8::MAX`.
fn narrow(code: u32) -> u8 {
    assert!(
        code <= u32::from(u8::MAX),
        "code {code} does not fit a one-byte column"
    );
    code as u8
}

/// A weighted, column-oriented relation over a [`Schema`].
///
/// Values are dense domain ids (see [`crate::Domain`]); each row also has a
/// `f64` weight. Storage is one [`Column`] per attribute, one byte per code
/// where the domain fits, which keeps point and group-by scans cache
/// friendly; the weights are one shared, copy-on-write column (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    weights: Arc<Vec<f64>>,
}

impl Relation {
    /// Create an empty relation.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// Create an empty relation with row capacity pre-reserved.
    pub fn with_capacity(schema: Arc<Schema>, rows: usize) -> Self {
        let columns = schema
            .attributes()
            .iter()
            .map(|a| Column::for_domain(a.domain().size(), rows))
            .collect();
        Self {
            schema,
            columns,
            weights: Arc::new(Vec::with_capacity(rows)),
        }
    }

    /// Assemble a relation from whole columns (one per attribute, in schema
    /// order, each at the width [`Column::for_domain`] picks for its
    /// attribute) and their row weights. Passing an `Arc` shares the weight
    /// column with every other relation holding it.
    ///
    /// # Panics
    /// Panics if the number of columns does not match the schema arity, a
    /// column's width is not the one its domain selects, or a column's
    /// length differs from the number of weights.
    pub fn from_columns(
        schema: Arc<Schema>,
        columns: Vec<Column>,
        weights: impl Into<Arc<Vec<f64>>>,
    ) -> Self {
        let weights = weights.into();
        assert_eq!(
            columns.len(),
            schema.arity(),
            "column count mismatch: got {}, schema has {}",
            columns.len(),
            schema.arity()
        );
        for (i, col) in columns.iter().enumerate() {
            let domain = schema.attr(AttrId(i)).domain();
            assert_eq!(
                matches!(col, Column::U8(_)),
                domain.size() <= NARROW_DOMAIN,
                "column {i} width does not match its {}-value domain",
                domain.size()
            );
            assert_eq!(col.len(), weights.len(), "column {i} length mismatch");
            debug_assert!(
                (0..col.len()).all(|r| domain.contains(col.get(r))),
                "value out of domain for attribute {}",
                schema.attr(AttrId(i)).name()
            );
        }
        Self {
            schema,
            columns,
            weights,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Append a row with weight 1.
    ///
    /// # Panics
    /// Panics if `values` does not match the schema arity or contains a value
    /// outside its attribute's active domain.
    pub fn push_row(&mut self, values: &[u32]) {
        self.push_row_weighted(values, 1.0);
    }

    /// Append a row with an explicit weight.
    ///
    /// # Panics
    /// Panics if `values` does not match the schema arity or contains a value
    /// outside its attribute's active domain.
    pub fn push_row_weighted(&mut self, values: &[u32], weight: f64) {
        assert_eq!(
            values.len(),
            self.schema.arity(),
            "row arity mismatch: got {}, schema has {}",
            values.len(),
            self.schema.arity()
        );
        for (i, &v) in values.iter().enumerate() {
            let attr = self.schema.attr(AttrId(i));
            assert!(
                attr.domain().contains(v),
                "value {v} out of domain for attribute {}",
                attr.name()
            );
        }
        for (&v, col) in values.iter().zip(&mut self.columns) {
            col.push(v);
        }
        Arc::make_mut(&mut self.weights).push(weight);
    }

    /// Append a row given as labels, resolving each against its domain.
    ///
    /// Convenience for tests and examples.
    ///
    /// # Panics
    /// Panics if a label is unknown.
    pub fn push_row_labels(&mut self, labels: &[&str]) {
        let values: Vec<u32> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| {
                self.schema
                    .attr(AttrId(i))
                    .domain()
                    .id_of(l)
                    // themis-lint: allow(no-panic-in-libs) reason=documented `# Panics` convenience for tests and examples; production ingest goes through ingest_csv
                    .unwrap_or_else(|| panic!("unknown label {l} for attribute {i}"))
            })
            .collect();
        self.push_row(&values);
    }

    /// The codes of an attribute, at their stored width.
    pub fn column(&self, attr: AttrId) -> &Column {
        &self.columns[attr.0]
    }

    /// Value at `(row, attr)`.
    pub fn value(&self, row: usize, attr: AttrId) -> u32 {
        self.columns[attr.0].get(row)
    }

    /// The full row as a vector of value ids.
    pub fn row(&self, row: usize) -> Vec<u32> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Row weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mutable row weights (copied first if the column is shared).
    pub fn weights_mut(&mut self) -> &mut [f64] {
        Arc::make_mut(&mut self.weights).as_mut_slice()
    }

    /// Replace all weights.
    ///
    /// # Panics
    /// Panics if `weights.len() != self.len()`.
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(weights.len(), self.len(), "weight vector length mismatch");
        self.weights = Arc::new(weights);
    }

    /// Reset every weight to `w`.
    pub fn fill_weights(&mut self, w: f64) {
        self.weights_mut().iter_mut().for_each(|x| *x = w);
    }

    /// Sum of all weights (the relation's estimate of the population size).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Multiply every weight so that the total equals `target`.
    ///
    /// This is the sum-normalization step of §4.1.1: after learning `w(t)`,
    /// weights are rescaled so `Σ_t w(t) = n`.
    ///
    /// # Panics
    /// Panics if the current total weight is zero.
    pub fn normalize_weights_to(&mut self, target: f64) {
        let total = self.total_weight();
        assert!(total > 0.0, "cannot normalize zero total weight");
        let scale = target / total;
        self.weights_mut().iter_mut().for_each(|w| *w *= scale);
    }

    /// Weighted count of rows matching a conjunctive point predicate
    /// `A_{attrs[0]} = values[0] AND ...` — the paper's d-dimensional point
    /// query `SELECT SUM(weight) WHERE ...`.
    pub fn point_count(&self, attrs: &[AttrId], values: &[u32]) -> f64 {
        assert_eq!(attrs.len(), values.len());
        let mut total = 0.0;
        let mut sel = Vec::new();
        for start in (0..self.len()).step_by(CHUNK_ROWS) {
            let n = self.select_point(attrs, values, start, &mut sel);
            for &offset in &sel[..n] {
                total += self.weights[start + offset as usize];
            }
        }
        total
    }

    /// Whether any row matches the conjunctive point predicate.
    pub fn contains_point(&self, attrs: &[AttrId], values: &[u32]) -> bool {
        assert_eq!(attrs.len(), values.len());
        let mut sel = Vec::new();
        (0..self.len())
            .step_by(CHUNK_ROWS)
            .any(|start| self.select_point(attrs, values, start, &mut sel) > 0)
    }

    /// Write the offsets (from `start`) of the rows of the chunk at `start`
    /// that match the point predicate to the front of `sel`, in order, and
    /// return how many there are. One pass per predicate column: each
    /// candidate's offset is written, and the cursor advances on a match.
    fn select_point(
        &self,
        attrs: &[AttrId],
        values: &[u32],
        start: usize,
        sel: &mut Vec<u32>,
    ) -> usize {
        let rows = start..self.len().min(start + CHUNK_ROWS);
        sel.clear();
        sel.extend(0..rows.len() as u32);
        let mut n = rows.len();
        for (a, &v) in attrs.iter().zip(values) {
            n = match &self.columns[a.0] {
                Column::U8(c) => keep_equal(&c[rows.clone()], v, &mut sel[..n]),
                Column::U32(c) => keep_equal(&c[rows.clone()], v, &mut sel[..n]),
            };
        }
        n
    }

    /// Call `f(row, key)` for every row of `rows`, in row order, with `key`
    /// the row's codes on `attrs`. Codes are widened into a `u32` scratch a
    /// chunk of rows at a time, one column at a time.
    ///
    /// # Panics
    /// Panics if `rows` reaches past the relation's end.
    pub fn for_each_key(
        &self,
        attrs: &[AttrId],
        rows: Range<usize>,
        mut f: impl FnMut(usize, &[u32]),
    ) {
        assert!(
            rows.end <= self.len(),
            "rows {rows:?} past the relation's end"
        );
        if attrs.is_empty() {
            rows.for_each(|r| f(r, &[]));
            return;
        }
        let arity = attrs.len();
        let mut keys = vec![0u32; CHUNK_ROWS.min(rows.len()) * arity];
        for start in rows.clone().step_by(CHUNK_ROWS) {
            let chunk = start..rows.end.min(start + CHUNK_ROWS);
            let keys = &mut keys[..chunk.len() * arity];
            for (i, a) in attrs.iter().enumerate() {
                match &self.columns[a.0] {
                    Column::U8(c) => widen_into(&c[chunk.clone()], keys, i, arity),
                    Column::U32(c) => widen_into(&c[chunk.clone()], keys, i, arity),
                }
            }
            for (row, key) in chunk.zip(keys.chunks_exact(arity)) {
                f(row, key);
            }
        }
    }

    /// Weighted `GROUP BY attrs, COUNT(*)`: map from group key to
    /// `SUM(weight)`.
    pub fn group_counts(&self, attrs: &[AttrId]) -> HashMap<GroupKey, f64> {
        let mut out: HashMap<GroupKey, f64> = HashMap::new();
        self.for_each_key(attrs, 0..self.len(), |row, key| {
            add_at(&mut out, key, self.weights[row])
        });
        out
    }

    /// Unweighted `GROUP BY attrs, COUNT(*)`: map from group key to the
    /// number of sample rows in the group.
    pub fn group_row_counts(&self, attrs: &[AttrId]) -> HashMap<GroupKey, usize> {
        let mut out: HashMap<GroupKey, usize> = HashMap::new();
        self.for_each_key(attrs, 0..self.len(), |_, key| add_at(&mut out, key, 1));
        out
    }

    /// Build a new relation containing the given rows (weights preserved),
    /// gathered a column at a time.
    pub fn select_rows(&self, rows: &[usize]) -> Relation {
        Relation {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
            weights: Arc::new(rows.iter().map(|&r| self.weights[r]).collect()),
        }
    }

    /// Iterate over `(row_values, weight)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Vec<u32>, f64)> + '_ {
        (0..self.len()).map(move |r| (self.row(r), self.weights[r]))
    }
}

/// Bytes of storage `relations` hold: every relation's code columns, plus
/// each distinct weight column once (relations sharing one count it once).
pub fn storage_bytes<'a>(relations: impl IntoIterator<Item = &'a Relation>) -> usize {
    let mut counted: Vec<&Arc<Vec<f64>>> = Vec::new();
    let mut bytes = 0;
    for rel in relations {
        bytes += rel.columns.iter().map(Column::bytes).sum::<usize>();
        if !counted.iter().any(|w| Arc::ptr_eq(w, &rel.weights)) {
            counted.push(&rel.weights);
            bytes += rel.weights.len() * std::mem::size_of::<f64>();
        }
    }
    bytes
}

/// Keep the offsets of `sel` whose code in `codes` equals `value`, in
/// order, at the front of `sel`; return how many were kept.
fn keep_equal<C: Code>(codes: &[C], value: u32, sel: &mut [u32]) -> usize {
    let mut kept = 0;
    for j in 0..sel.len() {
        let offset = sel[j];
        sel[kept] = offset;
        kept += usize::from(codes[offset as usize].id() == value);
    }
    kept
}

/// Write `codes` into position `i` of consecutive `arity`-wide keys.
fn widen_into<C: Code>(codes: &[C], keys: &mut [u32], i: usize, arity: usize) {
    for (key, &c) in keys.chunks_exact_mut(arity).zip(codes) {
        key[i] = c.id();
    }
}

/// `*map.entry(key).or_default() += v`, copying the key only on its first
/// row.
fn add_at<V: Copy + Default + AddAssign>(map: &mut HashMap<GroupKey, V>, key: &[u32], v: V) {
    match map.get_mut(key) {
        Some(total) => *total += v,
        None => {
            let mut total = V::default();
            total += v;
            map.insert(key.to_vec(), total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::example_population;
    use crate::{Attribute, Domain};

    #[test]
    fn push_and_read_rows() {
        let p = example_population();
        assert_eq!(p.len(), 10);
        assert_eq!(p.row(2), vec![1, 0, 2]); // 02, FL, NY
        assert_eq!(p.value(3, AttrId(1)), 1); // NC
        assert_eq!(p.total_weight(), 10.0);
    }

    #[test]
    fn point_count_matches_example() {
        let p = example_population();
        // date = 01 has 5 flights.
        assert_eq!(p.point_count(&[AttrId(0)], &[0]), 5.0);
        // o_st = NC, d_st = NY has 3 flights.
        assert_eq!(p.point_count(&[AttrId(1), AttrId(2)], &[1, 2]), 3.0);
        // o_st = FL, d_st = NC does not occur.
        assert_eq!(p.point_count(&[AttrId(1), AttrId(2)], &[0, 1]), 0.0);
        assert!(!p.contains_point(&[AttrId(1), AttrId(2)], &[0, 1]));
        assert!(p.contains_point(&[AttrId(1), AttrId(2)], &[1, 2]));
    }

    #[test]
    fn group_counts_match_example_aggregates() {
        let p = example_population();
        let g1 = p.group_counts(&[AttrId(0)]);
        assert_eq!(g1[&vec![0]], 5.0);
        assert_eq!(g1[&vec![1]], 5.0);
        let g2 = p.group_counts(&[AttrId(1), AttrId(2)]);
        assert_eq!(g2.len(), 7);
        assert_eq!(g2[&vec![0, 0]], 2.0); // FL,FL -> 2
        assert_eq!(g2[&vec![1, 2]], 3.0); // NC,NY -> 3
    }

    #[test]
    fn weights_normalize_to_population_size() {
        let mut p = example_population();
        p.set_weights(vec![2.0; 10]);
        p.normalize_weights_to(10.0);
        assert!((p.total_weight() - 10.0).abs() < 1e-12);
        assert!(p.weights().iter().all(|&w| (w - 1.0).abs() < 1e-12));
    }

    #[test]
    fn select_rows_preserves_weights() {
        let mut p = example_population();
        p.weights_mut()[3] = 7.0;
        let s = p.select_rows(&[3, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.weights(), &[7.0, 1.0]);
        assert_eq!(s.row(0), p.row(3));
    }

    #[test]
    fn group_row_counts_ignores_weights() {
        let mut p = example_population();
        p.fill_weights(5.0);
        let g = p.group_row_counts(&[AttrId(0)]);
        assert_eq!(g[&vec![0]], 5);
        assert_eq!(g[&vec![1]], 5);
    }

    #[test]
    fn from_columns_equals_the_pushed_rows() {
        let mut p = example_population();
        p.weights_mut()[4] = 2.5;
        let columns = p.schema().attr_ids().map(|a| p.column(a).clone()).collect();
        let q = Relation::from_columns(p.schema().clone(), columns, p.weights().to_vec());
        assert_eq!(q.len(), p.len());
        assert!((0..p.len()).all(|r| q.row(r) == p.row(r)));
        assert_eq!(q.weights(), p.weights());
    }

    #[test]
    #[should_panic(expected = "column 1 length mismatch")]
    fn from_columns_rejects_ragged_columns() {
        let p = example_population();
        Relation::from_columns(
            p.schema().clone(),
            vec![
                Column::U8(vec![0; 2]),
                Column::U8(vec![0; 1]),
                Column::U8(vec![0; 2]),
            ],
            vec![1.0; 2],
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rejects_wrong_arity() {
        let mut p = example_population();
        p.push_row(&[0, 0]);
    }

    /// A two-attribute relation whose `x` has `size` values, so it is
    /// stored one byte per code at 256 and four at 257: `x` runs over its
    /// top values and 0, `y` (3 values) counts the rows.
    fn wide_or_narrow(size: usize) -> Relation {
        let schema = Schema::new(vec![
            Attribute::new("x", Domain::indexed("x", size)),
            Attribute::new("y", Domain::indexed("y", 3)),
        ]);
        let top = size as u32 - 1;
        let mut rel = Relation::new(schema);
        for (r, x) in [top, 0, top - 1, top, 0, top].into_iter().enumerate() {
            rel.push_row_weighted(&[x, r as u32 % 3], 0.5 + r as f64);
        }
        rel
    }

    #[test]
    fn both_widths_round_trip() {
        for (size, narrow) in [(256, true), (257, false)] {
            let rel = wide_or_narrow(size);
            let top = size as u32 - 1;
            let (x, y) = (AttrId(0), AttrId(1));
            assert_eq!(matches!(rel.column(x), Column::U8(_)), narrow, "{size}");
            assert!(matches!(rel.column(y), Column::U8(_)));
            assert_eq!(rel.column(x).bytes(), if narrow { 6 } else { 24 });
            assert_eq!(rel.value(0, x), top);
            assert_eq!(rel.row(2), vec![top - 1, 2]);

            let columns = vec![rel.column(x).clone(), rel.column(y).clone()];
            let rebuilt =
                Relation::from_columns(rel.schema().clone(), columns, rel.weights().to_vec());
            assert!((0..rel.len()).all(|r| rebuilt.row(r) == rel.row(r)));

            let picked = rel.select_rows(&[5, 2, 1]);
            assert_eq!(picked.row(0), vec![top, 2]);
            assert_eq!(picked.row(1), vec![top - 1, 2]);
            assert_eq!(picked.row(2), vec![0, 1]);
            assert_eq!(picked.weights(), &[5.5, 2.5, 1.5]);
            assert_eq!(picked.column(x), &rel.column(x).gather(&[5, 2, 1]));

            // Rows 0, 3 and 5 hold `top`; rows 0 and 3 also hold y = 0.
            assert_eq!(rel.point_count(&[x], &[top]), 0.5 + 3.5 + 5.5);
            assert_eq!(rel.point_count(&[x, y], &[top, 0]), 0.5 + 3.5);
            assert!(rel.contains_point(&[x, y], &[0, 1]));
            assert!(!rel.contains_point(&[x, y], &[top - 1, 0]));
            let groups = rel.group_counts(&[x]);
            assert_eq!(groups.len(), 3);
            assert_eq!(groups[&vec![top]], 0.5 + 3.5 + 5.5);
            assert_eq!(groups[&vec![0]], 1.5 + 4.5);
            assert_eq!(rel.group_row_counts(&[y, x])[&vec![0, top]], 2);
        }
    }

    #[test]
    fn row_loops_cross_chunk_boundaries() {
        // 700 rows span three chunks of the column-at-a-time loops; the
        // answers must equal the row-at-a-time definitions.
        for size in [256, 257] {
            let schema = Schema::new(vec![
                Attribute::new("x", Domain::indexed("x", size)),
                Attribute::new("y", Domain::indexed("y", 5)),
            ]);
            let mut rel = Relation::new(schema);
            for r in 0..700u32 {
                rel.push_row_weighted(&[(r * 37) % size as u32, r % 5], 1.0 / (1 + r % 7) as f64);
            }
            let attrs = [AttrId(0), AttrId(1)];
            for values in [[0, 0], [37, 1], [255, 0], [size as u32 - 1, 3]] {
                let mut want = 0.0;
                for r in 0..rel.len() {
                    if rel.row(r) == values {
                        want += rel.weights()[r];
                    }
                }
                assert_eq!(rel.point_count(&attrs, &values).to_bits(), want.to_bits());
                assert_eq!(rel.contains_point(&attrs, &values), want > 0.0);
            }
            let mut seen = Vec::new();
            rel.for_each_key(&[AttrId(1), AttrId(0)], 250..520, |row, key| {
                assert_eq!(key, [rel.value(row, AttrId(1)), rel.value(row, AttrId(0))]);
                seen.push(row);
            });
            assert_eq!(seen, (250..520).collect::<Vec<_>>());
        }
    }

    #[test]
    fn shared_weights_copy_on_write() {
        let rel = wide_or_narrow(257);
        let shared = Arc::new(rel.weights().to_vec());
        let replicate = || {
            let columns = vec![rel.column(AttrId(0)).clone(), rel.column(AttrId(1)).clone()];
            Relation::from_columns(rel.schema().clone(), columns, Arc::clone(&shared))
        };
        let mut replicates = vec![replicate(), replicate(), replicate()];
        let shares = |r: &Relation| std::ptr::eq(r.weights(), &shared[..]);
        assert!(replicates.iter().all(shares));
        // Each replicate's codes (four bytes of `x`, one of `y` per row),
        // and the weight column once.
        assert_eq!(storage_bytes(&replicates), 3 * (6 * 4 + 6) + 6 * 8);

        let bits = |r: &Relation| r.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let before = bits(&replicates[0]);
        replicates[1].weights_mut()[2] = 9.0;
        assert_eq!(replicates[1].weights()[2], 9.0);
        assert!(!shares(&replicates[1]));
        for other in [&replicates[0], &replicates[2]] {
            assert!(shares(other));
            assert_eq!(bits(other), before);
        }
        assert_eq!(storage_bytes(&replicates), 3 * (6 * 4 + 6) + 2 * 6 * 8);

        // The other mutators copy too.
        replicates[2].normalize_weights_to(1.0);
        replicates[0].fill_weights(2.0);
        replicates[0].push_row(&[1, 1]);
        assert_eq!(bits(&replicate()), before);
        assert_eq!(
            replicates[0].weights()[..],
            [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0]
        );
    }

    #[test]
    #[should_panic(expected = "value 256 out of domain for attribute x")]
    fn narrow_push_checks_the_domain() {
        wide_or_narrow(256).push_row(&[256, 0]);
    }

    #[test]
    #[should_panic(expected = "value 300 out of domain for attribute x")]
    fn wide_push_checks_the_domain() {
        wide_or_narrow(257).push_row(&[300, 0]);
    }

    #[test]
    #[should_panic(expected = "code 300 does not fit a one-byte column")]
    fn narrow_columns_reject_wide_codes() {
        Column::for_domain(256, 1).extend_from_codes(&[1, 300, 2]);
    }

    #[test]
    #[should_panic(expected = "column 0 width does not match its 257-value domain")]
    fn from_columns_rejects_the_wrong_width() {
        let rel = wide_or_narrow(257);
        Relation::from_columns(
            rel.schema().clone(),
            vec![Column::U8(vec![0; 6]), rel.column(AttrId(1)).clone()],
            rel.weights().to_vec(),
        );
    }
}
