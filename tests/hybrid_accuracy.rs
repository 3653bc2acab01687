//! Accuracy-ordering integration tests mirroring the paper's headline
//! claims (§6.4, §6.6, §6.7) at test scale.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use themis_aggregates::{AggregateResult, AggregateSet};
use themis_bn::LearnMode;
use themis_core::{percent_difference, Themis, ThemisConfig, ThemisSession};
use themis_data::datasets::imdb::{ImdbConfig, ImdbDataset};

fn setup() -> (ImdbDataset, AggregateSet) {
    let dataset = ImdbDataset::generate(ImdbConfig {
        n: 30_000,
        names: 1_500,
        ..Default::default()
    });
    let a = ImdbDataset::attrs();
    let aggregates = AggregateSet::from_results(vec![
        AggregateResult::compute(&dataset.population, &[a.rg]),
        AggregateResult::compute(&dataset.population, &[a.mc]),
        AggregateResult::compute(&dataset.population, &[a.mc, a.rg]),
        AggregateResult::compute(&dataset.population, &[a.my, a.rg]),
    ]);
    (dataset, aggregates)
}

/// Average error of a closure over the *existing* ratings (the paper's
/// workloads only query existing values, §6.3).
fn ratings_error(dataset: &ImdbDataset, estimate: impl Fn(u32) -> f64) -> f64 {
    let a = ImdbDataset::attrs();
    let mut total = 0.0;
    let mut count = 0.0;
    for rating in 0..10u32 {
        let truth = dataset.population.point_count(&[a.rg], &[rating]);
        if truth > 0.0 {
            total += percent_difference(truth, estimate(rating));
            count += 1.0;
        }
    }
    total / count
}

#[test]
fn hybrid_beats_sample_only_under_support_mismatch() {
    let (dataset, aggregates) = setup();
    let n = dataset.population.len() as f64;
    let mut rng = SmallRng::seed_from_u64(10);
    let scrape = dataset.sample_r159(&mut rng); // 100% bias: ratings 1/5/9
    let a = ImdbDataset::attrs();

    let themis = Themis::build(scrape, aggregates, n, ThemisConfig::default());
    let hybrid_err = ratings_error(&dataset, |r| themis.point_query(&[a.rg], &[r]));
    let sample_err = ratings_error(&dataset, |r| themis.point_query_sample(&[a.rg], &[r]));
    assert!(
        hybrid_err < 0.3 * sample_err,
        "hybrid {hybrid_err:.1} vs sample-only {sample_err:.1}"
    );
}

#[test]
fn bb_beats_ss_with_informative_aggregates() {
    let (dataset, aggregates) = setup();
    let n = dataset.population.len() as f64;
    let mut rng = SmallRng::seed_from_u64(11);
    let sample = dataset.sample_sr159(&mut rng);
    let a = ImdbDataset::attrs();

    let build = |mode| {
        Themis::build(
            sample.clone(),
            aggregates.clone(),
            n,
            ThemisConfig {
                bn_mode: Some(mode),
                ..ThemisConfig::default()
            },
        )
    };
    let bb = build(LearnMode::BB);
    let ss = build(LearnMode::SS);
    let bb_err = ratings_error(&dataset, |r| bb.point_query_bn(&[a.rg], &[r]).expect("BN built"));
    let ss_err = ratings_error(&dataset, |r| ss.point_query_bn(&[a.rg], &[r]).expect("BN built"));
    assert!(bb_err < ss_err, "BB {bb_err:.1} vs SS {ss_err:.1}");
}

#[test]
fn ipf_answers_in_sample_tuples_despite_non_convergence() {
    // §6.7: even when IPF does not converge, in-sample queries are good.
    let (dataset, aggregates) = setup();
    let n = dataset.population.len() as f64;
    let mut rng = SmallRng::seed_from_u64(12);
    let scrape = dataset.sample_r159(&mut rng);
    let a = ImdbDataset::attrs();

    let themis = Themis::build(scrape, aggregates, n, ThemisConfig::default());
    // In-sample ratings (ids 0, 4, 8): the reweighted estimates should be
    // within 25% of the truth.
    for rating in [0u32, 4, 8] {
        let truth = dataset.population.point_count(&[a.rg], &[rating]);
        let est = themis.point_query_sample(&[a.rg], &[rating]);
        let err = percent_difference(truth, est);
        assert!(err < 25.0, "rating {rating}: err {err:.1} (est {est}, true {truth})");
    }
}

#[test]
fn group_by_recovers_missing_groups() {
    let (dataset, aggregates) = setup();
    let n = dataset.population.len() as f64;
    let mut rng = SmallRng::seed_from_u64(13);
    let scrape = dataset.sample_r159(&mut rng);
    let a = ImdbDataset::attrs();

    let themis = ThemisSession::new(Themis::build(
        scrape.clone(),
        aggregates,
        n,
        ThemisConfig {
            bn_sample_size: Some(20_000),
            ..ThemisConfig::default()
        },
    ));
    let sample_groups = scrape.group_counts(&[a.rg]);
    assert!(sample_groups.len() <= 3, "scrape holds at most ratings 1/5/9");
    let existing = dataset.population.group_counts(&[a.rg]).len();
    let hybrid_groups = themis
        .sql("SELECT rating, COUNT(*) FROM imdb GROUP BY rating")
        .expect("hybrid GROUP BY")
        .result
        .rows;
    assert!(
        hybrid_groups.len() >= existing - 1,
        "hybrid should recover most of the {existing} existing ratings, got {}",
        hybrid_groups.len()
    );
}
