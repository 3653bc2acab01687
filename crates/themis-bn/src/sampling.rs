//! Forward (logic) sampling of the K BN replicates (§4.2.4).
//!
//! `GROUP BY` queries cannot be answered by a single probability lookup; the
//! paper generates `K` representative samples from the BN, uniformly scales
//! each to the population size, answers the query on each, and returns the
//! groups appearing in *all* `K` answers with the aggregate value averaged —
//! damping both variance and phantom groups (groups returned that do not
//! exist in the population). This module draws the replicates; the
//! consensus over them is `themis_core`'s, shared by every query path.

use crate::network::BayesianNetwork;
use rand::Rng;
use themis_data::Relation;

/// Draw one forward sample of `size` tuples (weights all 1).
pub fn forward_sample<R: Rng>(net: &BayesianNetwork, size: usize, rng: &mut R) -> Relation {
    // themis-lint: allow(no-panic-in-libs) reason=BayesianNetwork::new rejects cyclic structures, so a topological order always exists
    let order = net.topological_order().expect("networks are DAGs");
    let mut rel = Relation::with_capacity(net.schema().clone(), size);
    let mut values = vec![0u32; net.arity()];
    let mut parent_vals: Vec<u32> = Vec::new();
    for _ in 0..size {
        for &node in &order {
            parent_vals.clear();
            parent_vals.extend(net.parents(node).iter().map(|&p| values[p.0]));
            let cpt = net.cpt(node);
            let config = cpt.config_index(&parent_vals);
            let row = cpt.row(config);
            values[node.0] = sample_row(row, rng);
        }
        rel.push_row(&values);
    }
    rel
}

/// Draw `k` independent forward samples, each uniformly scaled so its total
/// weight equals `population_size`.
pub fn forward_samples<R: Rng>(
    net: &BayesianNetwork,
    k: usize,
    size: usize,
    population_size: f64,
    rng: &mut R,
) -> Vec<Relation> {
    (0..k)
        .map(|_| {
            let mut s = forward_sample(net, size, rng);
            s.fill_weights(population_size / size as f64);
            s
        })
        .collect()
}

fn sample_row<R: Rng>(probs: &[f64], rng: &mut R) -> u32 {
    let mut u: f64 = rng.gen();
    for (i, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i as u32;
        }
    }
    (probs.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::point_probability;
    use crate::network::Cpt;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use themis_data::paper_example::example_schema;
    use themis_data::AttrId;

    fn chain() -> BayesianNetwork {
        let schema = example_schema();
        BayesianNetwork::new(
            schema,
            vec![vec![], vec![AttrId(0)], vec![AttrId(1)]],
            vec![
                Cpt {
                    card: 2,
                    parent_cards: vec![],
                    table: vec![0.3, 0.7],
                },
                Cpt {
                    card: 3,
                    parent_cards: vec![2],
                    table: vec![0.6, 0.2, 0.2, 0.1, 0.1, 0.8],
                },
                Cpt {
                    card: 3,
                    parent_cards: vec![3],
                    table: vec![0.5, 0.25, 0.25, 0.3, 0.2, 0.5, 0.4, 0.3, 0.3],
                },
            ],
        )
    }

    #[test]
    fn empirical_marginals_match_exact() {
        let net = chain();
        let mut rng = SmallRng::seed_from_u64(5);
        let s = forward_sample(&net, 60_000, &mut rng);
        for attr in 0..3 {
            let counts = s.group_row_counts(&[AttrId(attr)]);
            for v in 0..net.schema().domain(AttrId(attr)).size() as u32 {
                let emp = counts.get(&vec![v]).copied().unwrap_or(0) as f64 / 60_000.0;
                let exact = point_probability(&net, &[AttrId(attr)], &[v]);
                assert!(
                    (emp - exact).abs() < 0.01,
                    "attr {attr} value {v}: empirical {emp} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn scaled_samples_total_population() {
        let net = chain();
        let mut rng = SmallRng::seed_from_u64(6);
        let samples = forward_samples(&net, 3, 100, 5_000.0, &mut rng);
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!((s.total_weight() - 5_000.0).abs() < 1e-6);
        }
    }
}
