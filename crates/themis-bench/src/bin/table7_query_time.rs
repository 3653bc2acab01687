//! Table 7: average point-query execution time on IMDB SR159 with 4 2-D
//! aggregates — the reweighted sample (RW: a weighted scan) versus the five
//! BN modes (exact inference).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use themis_bench::methods::{answer_point, build_model, Method};
use themis_bench::report::{banner, table};
use themis_bench::setup::{imdb_setup, Scale};
use themis_bench::workload::{pick_point_queries, random_attr_sets, Hitter};
use themis_bn::LearnMode;
use themis_data::AttrId;

fn main() {
    let scale = Scale::from_env();
    banner("Table 7", "average point-query execution time (SR159, 4 2D aggs)");
    let setup = imdb_setup(&scale);
    let n = setup.population.len() as f64;
    let aggregates = setup.aggregates_2d_set(4);
    let sample = &setup
        .samples
        .iter()
        .find(|(name, _)| *name == "SR159")
        .expect("SR159 sample")
        .1;
    let mut rng = SmallRng::seed_from_u64(7);
    let all_attrs: Vec<AttrId> = setup.population.schema().attr_ids().collect();
    let sets = random_attr_sets(&all_attrs, 3, 20, &mut rng);
    let queries = pick_point_queries(
        &setup.population,
        &sets,
        Hitter::Random,
        scale.queries,
        &mut rng,
    );

    let methods: Vec<(String, Method)> = std::iter::once(("RW".to_string(), Method::Ipf))
        .chain(LearnMode::ALL.iter().map(|&m| (m.name().to_string(), Method::Bn(m))))
        .collect();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (name, method) in methods {
        let model = build_model(sample, &aggregates, n, method);
        let start = Instant::now();
        let mut checksum = 0.0;
        for q in &queries {
            checksum += answer_point(&model, method, q);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_query_ms = elapsed / queries.len() as f64 * 1e3;
        rows.push(vec![
            name,
            format!("{per_query_ms:.3}"),
            format!("{checksum:.0}"),
        ]);
    }
    table(&["method", "ms / query", "(checksum)"], &rows);
}
