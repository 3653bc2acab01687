//! The incidence matrix `G^{0/1}` of §4.1.
//!
//! `G^{0/1}` has one row per aggregate group (stacked over all aggregates,
//! `Σ_i M_i` rows) and one column per sample tuple; entry `(r, c)` is 1 iff
//! sample row `c` participates in group `r`. Both reweighting techniques
//! (LinReg and IPF) are driven by this matrix, so we build it once and store
//! it sparsely: each row keeps the sorted list of participating sample-row
//! indices.

use crate::gamma::AggregateSet;
use std::collections::HashMap;
use themis_data::{GroupKey, Relation};

/// One row of the incidence matrix: an aggregate group, its target count
/// from `y`, and the sample rows participating in it.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidenceRow {
    /// Which aggregate (index into the [`AggregateSet`]) this row came from.
    pub aggregate: usize,
    /// The group's attribute values `a_{i,k}`.
    pub key: GroupKey,
    /// The group's population count `c_{i,k}` (the entry of `y`).
    pub target: f64,
    /// Sorted indices of the sample rows with `G^{0/1}[r][c] = 1`.
    pub sample_rows: Vec<u32>,
}

/// Sparse incidence matrix `G^{0/1}` together with the target vector `y`.
#[derive(Debug, Clone)]
pub struct IncidenceMatrix {
    rows: Vec<IncidenceRow>,
    n_sample: usize,
}

impl IncidenceMatrix {
    /// Build `G^{0/1}` and `y` from a sample and aggregate set. Rows appear
    /// in aggregate order, groups within an aggregate in sorted key order —
    /// matching the row-wise concatenation `Γ^C_1 ⊕ … ⊕ Γ^C_B` of the paper.
    ///
    /// Groups with no matching sample row are *kept* (IPF skips them, LinReg
    /// drops them explicitly via [`Self::rows_with_support`]).
    pub fn build(sample: &Relation, aggregates: &AggregateSet) -> Self {
        let mut rows = Vec::with_capacity(aggregates.total_groups());
        for (agg_idx, agg) in aggregates.iter().enumerate() {
            // Bucket sample rows by their value vector on this aggregate's
            // attributes.
            let mut buckets: HashMap<GroupKey, Vec<u32>> = HashMap::new();
            sample.for_each_key(agg.attrs(), 0..sample.len(), |r, key| {
                match buckets.get_mut(key) {
                    Some(rows) => rows.push(r as u32),
                    None => {
                        buckets.insert(key.to_vec(), vec![r as u32]);
                    }
                }
            });
            for (key, target) in agg.groups() {
                let sample_rows = buckets.remove(key).unwrap_or_default();
                rows.push(IncidenceRow {
                    aggregate: agg_idx,
                    key: key.clone(),
                    target: *target,
                    sample_rows,
                });
            }
        }
        Self {
            rows,
            n_sample: sample.len(),
        }
    }

    /// Extend the matrix in place for a sample grown by appended rows.
    ///
    /// `sample` must be the original sample with new tuples appended at the
    /// end (indices `self.n_sample()..sample.len()`), and `aggregates` must
    /// be the same set the matrix was built from — the targets `y` are
    /// population-side knowledge and do not move when the sample grows.
    ///
    /// Appended indices are strictly larger than every existing index, so
    /// pushing them onto each group's `sample_rows` preserves sorted order
    /// and the result is **identical** to rebuilding from scratch on the
    /// grown sample — the property the incremental-reweighting path (ingest)
    /// depends on for bit-identical IPF weights.
    ///
    /// # Panics
    /// Panics if `sample` is shorter than the matrix's column count or the
    /// aggregate set's group count doesn't match the matrix rows.
    pub fn extend(&mut self, sample: &Relation, aggregates: &AggregateSet) {
        assert!(
            sample.len() >= self.n_sample,
            "extend requires the grown sample to contain the original rows"
        );
        assert_eq!(
            self.rows.len(),
            aggregates.total_groups(),
            "aggregate set does not match the matrix"
        );
        // (aggregate, key) -> row index. Built by scanning rows in order;
        // nothing iterates this map, so no iteration order can leak.
        let mut index: HashMap<(usize, &[u32]), usize> = HashMap::new();
        for (r, row) in self.rows.iter().enumerate() {
            index.insert((row.aggregate, &row.key), r);
        }
        let mut touched: Vec<(usize, u32)> = Vec::new();
        for (agg_idx, agg) in aggregates.iter().enumerate() {
            sample.for_each_key(agg.attrs(), self.n_sample..sample.len(), |r, key| {
                // A key absent from the aggregate's groups is a combination
                // the population never reported; a cold build discards such
                // rows the same way.
                if let Some(&row_idx) = index.get(&(agg_idx, key)) {
                    touched.push((row_idx, r as u32));
                }
            });
        }
        for (row_idx, sample_row) in touched {
            self.rows[row_idx].sample_rows.push(sample_row);
        }
        self.n_sample = sample.len();
    }

    /// All rows in aggregate-major order.
    pub fn rows(&self) -> &[IncidenceRow] {
        &self.rows
    }

    /// Number of sample tuples (columns of `G^{0/1}`).
    pub fn n_sample(&self) -> usize {
        self.n_sample
    }

    /// Number of rows (`Σ_i M_i`).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Indices of rows with at least one participating sample tuple. LinReg
    /// drops the all-zero rows of `G^{0/1} X_S` (§4.1.1: "In the case an
    /// entire row ... is all zeros, which happens with missing values in S,
    /// we drop that row and its associated value in y").
    pub fn rows_with_support(&self) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&r| !self.rows[r].sample_rows.is_empty())
            .collect()
    }

    /// Dot product of row `r` with a weight vector: `G^{0/1}[r] · w`.
    ///
    /// # Panics
    /// Panics if `w.len() != self.n_sample()`.
    pub fn row_dot(&self, r: usize, w: &[f64]) -> f64 {
        assert_eq!(w.len(), self.n_sample, "weight vector length mismatch");
        self.rows[r]
            .sample_rows
            .iter()
            .map(|&c| w[c as usize])
            .sum()
    }

    /// Maximum relative constraint violation `max_r |G[r]·w − y_r| / y_r`
    /// over supported rows with positive targets — the convergence measure
    /// for IPF.
    pub fn max_relative_violation(&self, w: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for (r, row) in self.rows.iter().enumerate() {
            if row.sample_rows.is_empty() || row.target <= 0.0 {
                continue;
            }
            let v = (self.row_dot(r, w) - row.target).abs() / row.target;
            worst = worst.max(v);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::{AggregateResult, AggregateSet};
    use themis_data::paper_example::{example_population, example_sample};
    use themis_data::AttrId;

    fn example() -> (Relation, IncidenceMatrix) {
        let p = example_population();
        let s = example_sample();
        let mut set = AggregateSet::new();
        set.push(AggregateResult::compute(&p, &[AttrId(0)]));
        set.push(AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]));
        let g = IncidenceMatrix::build(&s, &set);
        (s, g)
    }

    #[test]
    fn matches_example_4_1() {
        // Example 4.1's G^{0/1} (9 rows: 2 for date, 7 for o_st/d_st).
        let (_s, g) = example();
        assert_eq!(g.n_rows(), 9);
        assert_eq!(g.n_sample(), 4);
        // Row 0: date = 01 -> sample rows 0, 1, 3.
        assert_eq!(g.rows()[0].sample_rows, vec![0, 1, 3]);
        assert_eq!(g.rows()[0].target, 5.0);
        // Row 1: date = 02 -> sample row 2.
        assert_eq!(g.rows()[1].sample_rows, vec![2]);
        // FL,FL group -> rows 0, 1.
        let flfl = g.rows().iter().find(|r| r.aggregate == 1 && r.key == vec![0, 0]).unwrap();
        assert_eq!(flfl.sample_rows, vec![0, 1]);
        assert_eq!(flfl.target, 2.0);
        // FL,NY has no support in the sample.
        let flny = g.rows().iter().find(|r| r.aggregate == 1 && r.key == vec![0, 2]).unwrap();
        assert!(flny.sample_rows.is_empty());
    }

    #[test]
    fn rows_with_support_drops_missing_groups() {
        let (_s, g) = example();
        let supported = g.rows_with_support();
        // 9 rows total; FL→NY, NC→FL, NY→FL, NY→NY have no sample support.
        assert_eq!(supported.len(), 5);
    }

    #[test]
    fn row_dot_sums_weights() {
        let (s, g) = example();
        let w = vec![1.0; s.len()];
        assert_eq!(g.row_dot(0, &w), 3.0); // date=01 has 3 sample rows
        assert_eq!(g.row_dot(1, &w), 1.0);
    }

    #[test]
    fn extend_matches_cold_build_exactly() {
        let p = example_population();
        let s = example_sample();
        let mut set = AggregateSet::new();
        set.push(AggregateResult::compute(&p, &[AttrId(0)]));
        set.push(AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]));
        // Build on the first two rows, then extend to the full sample.
        let prefix = s.select_rows(&[0, 1]);
        let mut incremental = IncidenceMatrix::build(&prefix, &set);
        incremental.extend(&s, &set);
        let cold = IncidenceMatrix::build(&s, &set);
        assert_eq!(incremental.n_sample(), cold.n_sample());
        assert_eq!(incremental.rows(), cold.rows());
        // A no-op extend changes nothing.
        let before = incremental.rows().to_vec();
        incremental.extend(&s, &set);
        assert_eq!(incremental.rows(), &before[..]);
    }

    #[test]
    fn violation_is_zero_when_constraints_met() {
        let (_s, g) = example();
        // Weights satisfying every supported constraint... date=01 needs
        // total 5 over rows {0,1,3}, date=02 needs 5 on row {2}; FL,FL needs
        // 2 over rows {0,1}; NC,NY needs 3 on row {2} — conflict with
        // date=02 (5 vs 3), so perfect satisfaction is impossible (this is
        // why IPF does not converge in Example 4.2). Check a partial one.
        let w = vec![1.0, 1.0, 5.0, 3.0];
        assert_eq!(g.row_dot(0, &w), 5.0);
        assert!(g.max_relative_violation(&w) > 0.0);
    }
}
