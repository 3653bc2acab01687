//! fixture-path: crates/core/src/consensus_demo.rs
//! expect: deterministic-iteration @ crates/core/src/consensus_demo.rs:20
use std::collections::HashMap;
type GroupKey = Vec<u32>;
/// Replicate consensus in the shape of `route::replicate_consensus`: the
/// agreed map starts as `None` and is only known to be a map of f64 once
/// the first replicate arrives, so its type is written through `Option`.
fn consensus_total(replicates: &[HashMap<GroupKey, f64>]) -> f64 {
    let mut agreed: Option<HashMap<GroupKey, f64>> = None;
    for replicate in replicates {
        agreed = Some(match agreed {
            None => replicate.clone(),
            Some(mut prev) => {
                prev.retain(|k, _| replicate.contains_key(k));
                prev
            }
        });
    }
    let Some(agreed) = agreed else { return 0.0 };
    agreed.values().sum()
}
