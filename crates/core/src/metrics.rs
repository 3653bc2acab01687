//! Error metrics (§6.3).
//!
//! The evaluation uses *percent difference*, `2·|true − est| / |true + est|`
//! (×100), rather than percent error, "to avoid over emphasizing errors
//! where the true value is small and to ensure missed and phantom groups
//! get the maximum error of 200 percent".

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// Percent difference between a true and an estimated value, in `[0, 200]`.
/// Both zero → 0 (a correctly-absent group).
pub fn percent_difference(truth: f64, estimate: f64) -> f64 {
    let denom = (truth + estimate).abs();
    if denom == 0.0 {
        return 0.0;
    }
    200.0 * (truth - estimate).abs() / denom
}

/// Average percent difference across the union of groups of a true and an
/// estimated `GROUP BY` answer, keyed by domain codes or by labels alike.
/// Groups missing from the estimate (missed) and groups present only in the
/// estimate (phantom) both score the maximum 200.
pub fn group_by_error<K: Ord + Hash>(truth: &HashMap<K, f64>, estimate: &HashMap<K, f64>) -> f64 {
    // BTreeSet, not HashSet: the f64 sum below is order-sensitive, so the
    // union must iterate in a run-independent order.
    let keys: BTreeSet<&K> = truth.keys().chain(estimate.keys()).collect();
    if keys.is_empty() {
        return 0.0;
    }
    let total: f64 = keys
        .iter()
        .map(|k| {
            percent_difference(
                truth.get(*k).copied().unwrap_or(0.0),
                estimate.get(*k).copied().unwrap_or(0.0),
            )
        })
        .sum();
    total / keys.len() as f64
}

/// Median of a slice (interpolated for even lengths). Useful for the
/// boxplot-style summaries of Figs. 3–4.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Percentile (linear interpolation between closest ranks).
///
/// # Panics
/// Panics if `values` is empty or `p` outside `[0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_data::GroupKey;

    #[test]
    fn exact_estimate_has_zero_error() {
        assert_eq!(percent_difference(10.0, 10.0), 0.0);
        assert_eq!(percent_difference(0.0, 0.0), 0.0);
    }

    #[test]
    fn missed_and_phantom_score_two_hundred() {
        assert_eq!(percent_difference(5.0, 0.0), 200.0);
        assert_eq!(percent_difference(0.0, 7.0), 200.0);
    }

    #[test]
    fn symmetric_in_arguments() {
        let a = percent_difference(3.0, 9.0);
        let b = percent_difference(9.0, 3.0);
        assert_eq!(a, b);
        assert!((a - 100.0).abs() < 1e-12); // 2·6/12
    }

    #[test]
    fn group_error_averages_over_union() {
        let truth: HashMap<GroupKey, f64> =
            [(vec![0], 10.0), (vec![1], 5.0)].into_iter().collect();
        let est: HashMap<GroupKey, f64> =
            [(vec![0], 10.0), (vec![2], 3.0)].into_iter().collect();
        // group 0: 0; group 1 missed: 200; group 2 phantom: 200 → avg 400/3.
        let e = group_by_error(&truth, &est);
        assert!((e - 400.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_answers_have_zero_error() {
        let empty: HashMap<GroupKey, f64> = HashMap::new();
        assert_eq!(group_by_error(&empty, &empty), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 25.0), 1.75);
    }
}
