//! fixture-path: crates/core/src/route_demo.rs
use std::collections::HashMap;
type GroupKey = Vec<u32>;
/// Agreed groups fill in the groups the answer lacks. Each one is inserted
/// under its own key, so hash order cannot change the map; the loop
/// binding named `sum` is a value, not a call to `.sum()`.
fn fill_missing(answer: &mut HashMap<GroupKey, f64>, agreed: HashMap<GroupKey, f64>, k: f64) {
    for (group, sum) in agreed {
        answer.entry(group).or_insert(sum / k);
    }
}
