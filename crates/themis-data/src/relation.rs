//! Weighted columnar relations.
//!
//! Themis treats every relation as a sample: each tuple `t` carries a weight
//! `w(t)` giving the number of population tuples it represents (§4.1).
//! Queries over the population are answered by translating `COUNT(*)` into
//! `SUM(weight)`. A freshly built [`Relation`] has all weights set to 1.

use crate::schema::{AttrId, Schema};
use std::collections::HashMap;
use std::sync::Arc;

/// A group-by key: the attribute values of one group, in the order of the
/// grouping attributes.
pub type GroupKey = Vec<u32>;

/// A weighted, column-oriented relation over a [`Schema`].
///
/// Values are dense domain ids (see [`crate::Domain`]); each row also has a
/// `f64` weight. Storage is one `Vec<u32>` per attribute, which keeps point
/// and group-by scans cache friendly.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    columns: Vec<Vec<u32>>,
    weights: Vec<f64>,
}

impl Relation {
    /// Create an empty relation.
    pub fn new(schema: Arc<Schema>) -> Self {
        let columns = (0..schema.arity()).map(|_| Vec::new()).collect();
        Self {
            schema,
            columns,
            weights: Vec::new(),
        }
    }

    /// Create an empty relation with row capacity pre-reserved.
    pub fn with_capacity(schema: Arc<Schema>, rows: usize) -> Self {
        let columns = (0..schema.arity())
            .map(|_| Vec::with_capacity(rows))
            .collect();
        Self {
            schema,
            columns,
            weights: Vec::with_capacity(rows),
        }
    }

    /// Assemble a relation from whole columns (one per attribute, in schema
    /// order) and their row weights.
    ///
    /// # Panics
    /// Panics if the number of columns does not match the schema arity or a
    /// column's length differs from the number of weights.
    pub fn from_columns(schema: Arc<Schema>, columns: Vec<Vec<u32>>, weights: Vec<f64>) -> Self {
        assert_eq!(
            columns.len(),
            schema.arity(),
            "column count mismatch: got {}, schema has {}",
            columns.len(),
            schema.arity()
        );
        for (i, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), weights.len(), "column {i} length mismatch");
            debug_assert!(
                col.iter()
                    .all(|&v| schema.attr(AttrId(i)).domain().contains(v)),
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
    pub fn push_row_weighted(&mut self, values: &[u32], weight: f64) {
        assert_eq!(
            values.len(),
            self.schema.arity(),
            "row arity mismatch: got {}, schema has {}",
            values.len(),
            self.schema.arity()
        );
        for (i, (&v, col)) in values.iter().zip(&mut self.columns).enumerate() {
            debug_assert!(
                self.schema.attr(AttrId(i)).domain().contains(v),
                "value {v} out of domain for attribute {}",
                self.schema.attr(AttrId(i)).name()
            );
            col.push(v);
        }
        self.weights.push(weight);
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

    /// Column of values for an attribute.
    pub fn column(&self, attr: AttrId) -> &[u32] {
        &self.columns[attr.0]
    }

    /// Value at `(row, attr)`.
    pub fn value(&self, row: usize, attr: AttrId) -> u32 {
        self.columns[attr.0][row]
    }

    /// The full row as a vector of value ids.
    pub fn row(&self, row: usize) -> Vec<u32> {
        self.columns.iter().map(|c| c[row]).collect()
    }

    /// Row weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mutable row weights.
    pub fn weights_mut(&mut self) -> &mut [f64] {
        &mut self.weights
    }

    /// Replace all weights.
    ///
    /// # Panics
    /// Panics if `weights.len() != self.len()`.
    pub fn set_weights(&mut self, weights: Vec<f64>) {
        assert_eq!(weights.len(), self.len(), "weight vector length mismatch");
        self.weights = weights;
    }

    /// Reset every weight to `w`.
    pub fn fill_weights(&mut self, w: f64) {
        self.weights.iter_mut().for_each(|x| *x = w);
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
        self.weights.iter_mut().for_each(|w| *w *= scale);
    }

    /// Weighted count of rows matching a conjunctive point predicate
    /// `A_{attrs[0]} = values[0] AND ...` — the paper's d-dimensional point
    /// query `SELECT SUM(weight) WHERE ...`.
    pub fn point_count(&self, attrs: &[AttrId], values: &[u32]) -> f64 {
        assert_eq!(attrs.len(), values.len());
        let mut total = 0.0;
        'rows: for row in 0..self.len() {
            for (a, &v) in attrs.iter().zip(values) {
                if self.columns[a.0][row] != v {
                    continue 'rows;
                }
            }
            total += self.weights[row];
        }
        total
    }

    /// Whether any row matches the conjunctive point predicate.
    pub fn contains_point(&self, attrs: &[AttrId], values: &[u32]) -> bool {
        assert_eq!(attrs.len(), values.len());
        'rows: for row in 0..self.len() {
            for (a, &v) in attrs.iter().zip(values) {
                if self.columns[a.0][row] != v {
                    continue 'rows;
                }
            }
            return true;
        }
        false
    }

    /// Weighted `GROUP BY attrs, COUNT(*)`: map from group key to
    /// `SUM(weight)`.
    pub fn group_counts(&self, attrs: &[AttrId]) -> HashMap<GroupKey, f64> {
        let mut out: HashMap<GroupKey, f64> = HashMap::new();
        let mut key = vec![0u32; attrs.len()];
        for row in 0..self.len() {
            for (i, a) in attrs.iter().enumerate() {
                key[i] = self.columns[a.0][row];
            }
            *out.entry(key.clone()).or_insert(0.0) += self.weights[row];
        }
        out
    }

    /// Unweighted `GROUP BY attrs, COUNT(*)`: map from group key to the
    /// number of sample rows in the group.
    pub fn group_row_counts(&self, attrs: &[AttrId]) -> HashMap<GroupKey, usize> {
        let mut out: HashMap<GroupKey, usize> = HashMap::new();
        let mut key = vec![0u32; attrs.len()];
        for row in 0..self.len() {
            for (i, a) in attrs.iter().enumerate() {
                key[i] = self.columns[a.0][row];
            }
            *out.entry(key.clone()).or_insert(0) += 1;
        }
        out
    }

    /// Build a new relation containing the given rows (weights preserved).
    pub fn select_rows(&self, rows: &[usize]) -> Relation {
        let mut out = Relation::with_capacity(self.schema.clone(), rows.len());
        for &r in rows {
            let vals = self.row(r);
            out.push_row_weighted(&vals, self.weights[r]);
        }
        out
    }

    /// Iterate over `(row_values, weight)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Vec<u32>, f64)> + '_ {
        (0..self.len()).map(move |r| (self.row(r), self.weights[r]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::example_population;

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
        let columns = p
            .schema()
            .attr_ids()
            .map(|a| p.column(a).to_vec())
            .collect();
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
            vec![vec![0; 2], vec![0; 1], vec![0; 2]],
            vec![1.0; 2],
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rejects_wrong_arity() {
        let mut p = example_population();
        p.push_row(&[0, 0]);
    }
}
