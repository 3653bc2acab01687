//! fixture-path: crates/themis-bn/src/score_demo.rs
use std::collections::HashMap;
type GroupKey = Vec<u32>;
/// The same log-likelihood summed in key order.
fn family_loglik(counts: HashMap<GroupKey, f64>) -> f64 {
    let mut joint: Vec<(GroupKey, f64)> = counts.into_iter().collect();
    joint.sort_by(|a, b| a.0.cmp(&b.0));
    let mut parent_counts: HashMap<GroupKey, f64> = HashMap::new();
    for (key, c) in &joint {
        *parent_counts.entry(key[1..].to_vec()).or_insert(0.0) += c;
    }
    let mut loglik = 0.0;
    for (key, c) in &joint {
        let nk = parent_counts.get(&key[1..]).copied().unwrap_or(*c);
        loglik += c * (c / nk).ln();
    }
    loglik
}
