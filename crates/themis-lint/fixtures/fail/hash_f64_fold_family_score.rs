//! fixture-path: crates/themis-bn/src/score_demo.rs
//! expect: deterministic-iteration @ crates/themis-bn/src/score_demo.rs:9
//! expect: deterministic-iteration @ crates/themis-bn/src/score_demo.rs:16
use std::collections::HashMap;
type GroupKey = Vec<u32>;
/// A BIC family log-likelihood summed in hash order.
fn family_loglik(joint: &HashMap<GroupKey, f64>) -> f64 {
    let mut parent_counts: HashMap<GroupKey, f64> = HashMap::new();
    for (key, c) in joint {
        parent_counts
            .entry(key[1..].to_vec())
            .and_modify(|x| *x += c)
            .or_insert(*c);
    }
    let mut loglik = 0.0;
    for (key, c) in joint {
        if *c > 0.0 {
            let nk = parent_counts.get(&key[1..]).copied().unwrap_or(*c);
            loglik += c * (c / nk).ln();
        }
    }
    loglik
}
