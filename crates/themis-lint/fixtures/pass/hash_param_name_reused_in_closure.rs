//! fixture-path: crates/core/src/route_demo.rs
use std::collections::HashMap;
/// A closure parameter `acc` holding a `Vec`: the map parameter of the
/// same name below belongs to `intersect_into` alone.
fn bit_patterns(rows: &[Vec<f64>]) -> Vec<u64> {
    let mut out = Vec::new();
    let mut record = |acc: &Vec<f64>| out.extend(acc.iter().map(|v| v.to_bits()));
    for row in rows {
        record(row);
    }
    out
}

/// Keep the groups present in both maps, combining their values.
fn intersect_into<K: Eq + std::hash::Hash, V>(
    acc: &mut Option<HashMap<K, V>>,
    next: HashMap<K, V>,
    mut add: impl FnMut(&mut V, V),
) {
    match acc {
        None => *acc = Some(next),
        Some(prev) => {
            prev.retain(|k, _| next.contains_key(k));
            for (k, v) in next {
                if let Some(slot) = prev.get_mut(&k) {
                    add(slot, v);
                }
            }
        }
    }
}
