//! Information-theoretic quantities computed from aggregates.
//!
//! The pruning step (§5.1) scores candidate cluster/separator pairs by
//! `I(X_C) − I(X_S)` where `I(X_C) = Σ_{i∈C} H(X_i) − H(X_C)` is the
//! *information content* of the attribute set and `H` is Shannon entropy.
//! Crucially, all of these are computed from the aggregate results alone —
//! Themis never has the population.

use crate::gamma::AggregateResult;

/// Shannon entropy (nats) of the empirical distribution defined by an
/// aggregate result.
pub fn entropy(agg: &AggregateResult) -> f64 {
    let total = agg.total();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for (_, c) in agg.groups() {
        if *c > 0.0 {
            let p = c / total;
            h -= p * p.ln();
        }
    }
    h
}

/// Information content `I(X_C) = Σ_{i∈C} H(X_i) − H(X_C)` of the attribute
/// set covered by an aggregate. For a single attribute this is zero; for a
/// pair it equals the mutual information `I(X;Y)`.
pub fn information_content(agg: &AggregateResult) -> f64 {
    let joint = entropy(agg);
    let marginal_sum: f64 = agg
        .attrs()
        .iter()
        .map(|&a| entropy(&agg.marginalize(&[a])))
        .sum();
    marginal_sum - joint
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gamma::AggregateResult;
    use themis_data::paper_example::example_population;
    use themis_data::AttrId;

    #[test]
    fn uniform_entropy_is_log_n() {
        let p = example_population();
        // date is uniform over 2 values: H = ln 2.
        let agg = AggregateResult::compute(&p, &[AttrId(0)]);
        assert!((entropy(&agg) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn single_attribute_information_is_zero() {
        let p = example_population();
        let agg = AggregateResult::compute(&p, &[AttrId(1)]);
        assert!(information_content(&agg).abs() < 1e-12);
    }

    #[test]
    fn dependent_attributes_have_positive_mi() {
        let p = example_population();
        let agg = AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]);
        // For a pair, the information content is the mutual information.
        let mi = information_content(&agg.marginalize(&[AttrId(1), AttrId(2)]));
        assert!(mi > 0.1, "o_st and d_st are clearly dependent; MI = {mi}");
    }

    #[test]
    fn independent_attributes_have_near_zero_mi() {
        // Build a product distribution explicitly.
        let agg = AggregateResult::from_groups(
            vec![AttrId(0), AttrId(1)],
            vec![
                (vec![0, 0], 6.0),
                (vec![0, 1], 6.0),
                (vec![1, 0], 4.0),
                (vec![1, 1], 4.0),
            ],
        );
        assert!(information_content(&agg).abs() < 1e-12);
    }

    #[test]
    fn mi_is_symmetric() {
        let p = example_population();
        let agg = AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]);
        let a = information_content(&agg.marginalize(&[AttrId(1), AttrId(2)]));
        let b = information_content(&agg.marginalize(&[AttrId(2), AttrId(1)]));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn information_content_bounded_by_min_marginal_entropy() {
        let p = example_population();
        let agg = AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]);
        let h1 = entropy(&agg.marginalize(&[AttrId(1)]));
        let h2 = entropy(&agg.marginalize(&[AttrId(2)]));
        let ic = information_content(&agg);
        assert!(ic <= h1.min(h2) + 1e-12);
        assert!(ic >= -1e-12);
    }
}
