//! Differential testing of the BN replicate simulation (§4.2.4):
//! `themis_bn::sampling::forward_samples` draws every value through exact
//! per-row stop thresholds, a column at a time, and must reproduce the
//! row-at-a-time subtract scan it replaced bit for bit — every column,
//! every weight, and the state the caller's RNG is left in.
//!
//! The oracle below is a test-local copy of that algorithm: per row, per
//! node in topological order, gather the parent values, look up the CPT
//! row, draw one uniform and subtract cells until the remainder is `≤ 0`.
//! It runs against random networks (0–3 parents, cardinalities 1–40 or,
//! for about one node in four, 257–300, whose codes are stored four bytes
//! each; CPTs with zero cells; K = 1 and 3) and against the flights worlds
//! the repository benchmark builds (Corners sample, four t-cherry 2-D
//! aggregates, 20,000-row replicates, K = 10) on seeds 1 and 20261017,
//! where it also pins the replicates' storage: one byte per code and one
//! weight column shared by all K.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use themis_aggregates::gamma::all_aggregates_of_dim;
use themis_aggregates::{select_tcherry, AggregateSet};
use themis_bn::sampling::forward_samples;
use themis_bn::{BayesianNetwork, Cpt};
use themis_core::{Themis, ThemisConfig};
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_data::{storage_bytes, AttrId, Attribute, Domain, Relation, Schema};

/// The subtract scan: the first cell at which `u` minus the running cells
/// reaches `≤ 0`, else the last cell.
fn scan(probs: &[f64], mut u: f64) -> u32 {
    for (i, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i as u32;
        }
    }
    (probs.len() - 1) as u32
}

/// The row-at-a-time replicate simulation the kernel replaced.
fn oracle_samples(
    net: &BayesianNetwork,
    k: usize,
    size: usize,
    population_size: f64,
    rng: &mut SmallRng,
) -> Vec<Relation> {
    let order = net.topological_order().unwrap();
    (0..k)
        .map(|_| {
            let mut rel = Relation::with_capacity(net.schema().clone(), size);
            let mut values = vec![0u32; net.arity()];
            let mut parent_vals: Vec<u32> = Vec::new();
            for _ in 0..size {
                for &node in &order {
                    parent_vals.clear();
                    parent_vals.extend(net.parents(node).iter().map(|&p| values[p.0]));
                    let cpt = net.cpt(node);
                    let row = cpt.row(cpt.config_index(&parent_vals));
                    values[node.0] = scan(row, rng.gen());
                }
                rel.push_row(&values);
            }
            rel.fill_weights(population_size / size as f64);
            rel
        })
        .collect()
}

/// Draw `k` replicates with the kernel and with the oracle from the same
/// seed; fail unless columns, weights and the next draw of each RNG agree
/// bit for bit. Returns the kernel's replicates.
fn check_bit_identical(
    net: &BayesianNetwork,
    k: usize,
    size: usize,
    population_size: f64,
    seed: u64,
) -> Result<Vec<Relation>, String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle_rng = SmallRng::seed_from_u64(seed);
    let got = forward_samples(net, k, size, population_size, &mut rng);
    let want = oracle_samples(net, k, size, population_size, &mut oracle_rng);
    if got.len() != want.len() {
        return Err(format!(
            "{} replicates, oracle drew {}",
            got.len(),
            want.len()
        ));
    }
    for (r, (g, w)) in got.iter().zip(&want).enumerate() {
        if g.len() != w.len() {
            return Err(format!(
                "replicate {r}: {} rows, oracle {}",
                g.len(),
                w.len()
            ));
        }
        for attr in net.schema().attr_ids() {
            if let Some(row) = (0..g.len()).find(|&i| g.value(i, attr) != w.value(i, attr)) {
                return Err(format!(
                    "replicate {r}, column {}, row {row}: {} vs oracle {}",
                    attr.0,
                    g.value(row, attr),
                    w.value(row, attr)
                ));
            }
        }
        let same_weights = g
            .weights()
            .iter()
            .zip(w.weights())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_weights {
            return Err(format!("replicate {r}: weights differ"));
        }
    }
    let (next, oracle_next) = (rng.gen::<u64>(), oracle_rng.gen::<u64>());
    if next != oracle_next {
        return Err(format!(
            "RNG left in another state: next draw {next} vs {oracle_next}"
        ));
    }
    Ok(got)
}

/// Largest CPT the random networks build, in cells: keeps a 3-parent node
/// of cardinality-40 parents, or a 300-value node with a wide parent, from
/// costing the debug-build suite seconds.
const MAX_CELLS: usize = 4_096;

/// A random network drawn from `seed`: 1–5 nodes of cardinality 1–40 or,
/// one in four, 257–300 (past the one-byte columns' 256 values), each
/// with up to 3 parents among the nodes before it in a random order (so
/// the topological order is not the schema order), and CPT rows with
/// about a third of their cells zero (an all-zero row stays all zero).
fn random_network(seed: u64) -> BayesianNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1..6usize);
    let cards: Vec<usize> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.25) {
                rng.gen_range(257..301usize)
            } else {
                rng.gen_range(1..41usize)
            }
        })
        .collect();
    let schema = Schema::new(
        cards
            .iter()
            .enumerate()
            .map(|(i, &c)| Attribute::new(format!("x{i}"), Domain::indexed(format!("x{i}"), c)))
            .collect(),
    );
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut parents: Vec<Vec<AttrId>> = vec![Vec::new(); n];
    for (pos, &node) in order.iter().enumerate() {
        let wanted = rng.gen_range(0..4usize).min(pos);
        let mut cells = cards[node];
        for _ in 0..wanted {
            let p = order[rng.gen_range(0..pos)];
            if !parents[node].contains(&AttrId(p)) && cells * cards[p] <= MAX_CELLS {
                cells *= cards[p];
                parents[node].push(AttrId(p));
            }
        }
    }
    let cpts = (0..n)
        .map(|node| {
            let parent_cards: Vec<usize> = parents[node].iter().map(|p| cards[p.0]).collect();
            let configs: usize = parent_cards.iter().product::<usize>().max(1);
            let mut table = Vec::with_capacity(configs * cards[node]);
            for _ in 0..configs {
                let mut row: Vec<f64> = (0..cards[node])
                    .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen() })
                    .collect();
                let sum: f64 = row.iter().sum();
                if sum > 0.0 {
                    row.iter_mut().for_each(|p| *p /= sum);
                }
                table.extend(row);
            }
            Cpt {
                card: cards[node],
                parent_cards,
                table,
            }
        })
        .collect();
    BayesianNetwork::new(schema, parents, cpts)
}

proptest! {
    /// Random networks, K = 1 and 3, up to 2,200 rows (so replicates span
    /// several of the kernel's chunks and end mid-chunk): bit-identical to
    /// the oracle.
    #[test]
    fn random_networks_match_the_row_at_a_time_scan(
        net_seed in any::<u64>(),
        rng_seed in any::<u64>(),
        size in 0usize..2_200,
    ) {
        let net = random_network(net_seed);
        for k in [1, 3] {
            if let Err(e) = check_bit_identical(&net, k, size, 12_345.0, rng_seed) {
                panic!("network seed {net_seed}, rng seed {rng_seed}, K = {k}, {size} rows: {e}");
            }
        }
    }
}

/// SplitMix64, as the repository benchmark derives its per-stream seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The benchmark's world for `seed`: a 60,000-row flights population, its
/// 100%-biased Corners sample, four t-cherry 2-D aggregates, and the
/// default IPF/BB model with 20,000-row replicates and K = 10.
fn benchmark_world(seed: u64) -> Themis {
    let dataset = FlightsDataset::generate(FlightsConfig {
        n: 60_000,
        seed: mix(seed, 1),
        ..FlightsConfig::default()
    });
    let population = &dataset.population;
    let sample = dataset.sample_corners_with_bias(1.0, &mut SmallRng::seed_from_u64(mix(seed, 2)));
    let attrs: Vec<AttrId> = population.schema().attr_ids().collect();
    let candidates = all_aggregates_of_dim(population, &attrs, 2);
    let aggregates = AggregateSet::from_results(
        select_tcherry(&candidates, 4)
            .into_iter()
            .map(|i| candidates[i].clone())
            .collect(),
    );
    let config = ThemisConfig {
        bn_sample_size: Some(20_000),
        ..ThemisConfig::default()
    };
    Themis::build(sample, aggregates, population.len() as f64, config)
}

#[test]
fn benchmark_worlds_match_the_row_at_a_time_scan() {
    for seed in [1, 20_261_017] {
        let model = benchmark_world(seed);
        let net = model.bayesian_network().unwrap();
        let config = model.config();
        assert_eq!(config.k_samples, 10);
        let size = config.bn_sample_size.unwrap();
        let replicates = check_bit_identical(
            net,
            config.k_samples,
            size,
            model.population_size(),
            config.seed,
        )
        .unwrap_or_else(|e| panic!("benchmark world, seed {seed}: {e}"));
        // Every flights domain fits one byte per code, and the K
        // replicates share one weight column: 10 × 20,000 × 5 bytes of
        // codes plus 20,000 × 8 bytes of weights. Four-byte codes and a
        // weight column each would hold 5.6 MB.
        let weights = replicates[0].weights().as_ptr();
        assert!(
            replicates.iter().all(|r| r.weights().as_ptr() == weights),
            "seed {seed}: the replicates hold more than one weight column"
        );
        let bytes = storage_bytes(&replicates);
        assert!(
            bytes <= 1_250_000,
            "seed {seed}: the replicates hold {bytes} bytes"
        );
    }
}
