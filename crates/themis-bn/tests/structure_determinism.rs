//! Structure search is a function of its inputs: repeated searches on one
//! sample pick one parent set. Family scores are sums of f64 terms, and
//! summing them in hash-map order (which differs between maps in one
//! process) once broke near-ties differently from search to search.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use themis_aggregates::gamma::all_aggregates_of_dim;
use themis_aggregates::{select_tcherry, AggregateSet};
use themis_bn::{learn_structure, StructureOptions, StructureSource};
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_data::AttrId;

#[test]
fn repeated_searches_on_a_corners_sample_pick_one_structure() {
    for seed in [1, 20261017] {
        let data = FlightsDataset::generate(FlightsConfig {
            n: 6_000,
            seed,
            ..FlightsConfig::default()
        });
        let pop = &data.population;
        let attrs: Vec<AttrId> = pop.schema().attr_ids().collect();
        let candidates = all_aggregates_of_dim(pop, &attrs, 2);
        let aggregates = AggregateSet::from_results(
            select_tcherry(&candidates, 4)
                .into_iter()
                .map(|i| candidates[i].clone())
                .collect(),
        );
        let sample = data.sample_corners_with_bias(1.0, &mut SmallRng::seed_from_u64(seed));
        let search = || {
            learn_structure(
                &sample,
                &aggregates,
                pop.len() as f64,
                StructureSource::Both,
                &StructureOptions::default(),
            )
        };
        let first = search();
        for attempt in 1..32 {
            assert_eq!(search(), first, "seed {seed}: search {attempt} picked another structure");
        }
    }
}
