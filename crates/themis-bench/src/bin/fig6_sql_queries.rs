//! Table 5 + Fig. 6: the six IDEBench-style SQL queries on the Corners
//! sample at 100% and 98% bias, reporting the average percent difference
//! across returned groups per method.
//!
//! Queries Q1–Q6 are the paper's Table 5 adapted to the synthetic flights
//! schema (`E < 120 min` becomes the lower third of elapsed-time buckets;
//! Q6's layover states use two low-traffic states).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use themis_bench::report::{banner, f, table};
use themis_bench::setup::{flights_setup, Scale};
use themis_core::{group_by_error, ReweightMethod, Themis, ThemisConfig, ThemisSession};
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_data::Relation;
use themis_query::{Catalog, EngineOptions, QueryResult};

const QUERIES: [(&str, &str); 6] = [
    ("Q1", "SELECT origin_state, AVG(elapsed_time) FROM F GROUP BY origin_state"),
    ("Q2", "SELECT origin_state, AVG(elapsed_time) FROM F WHERE dest_state = 'CA' GROUP BY origin_state"),
    ("Q3", "SELECT dest_state, AVG(elapsed_time) FROM F WHERE origin_state = 'CA' GROUP BY dest_state"),
    ("Q4", "SELECT origin_state, COUNT(*) FROM F WHERE elapsed_time < 4 GROUP BY origin_state"),
    ("Q5", "SELECT dest_state, COUNT(*) FROM F WHERE elapsed_time < 4 GROUP BY dest_state"),
    (
        "Q6",
        "SELECT t.origin_state, s.dest_state, COUNT(*) FROM F t, F s \
         WHERE t.dest_state = s.origin_state AND t.dest_state IN ('CO', 'MN') \
         GROUP BY t.origin_state, s.dest_state",
    ),
];

/// Average percent difference between a true and estimated result over the
/// union of groups (first aggregate column).
fn result_error(truth: &QueryResult, est: &QueryResult) -> f64 {
    let first_column = |result: &QueryResult| -> HashMap<Vec<String>, f64> {
        result
            .to_map()
            .into_iter()
            .map(|(group, values)| (group, values[0]))
            .collect()
    };
    group_by_error(&first_column(truth), &first_column(est))
}

fn truth_result(population: &Relation, sql: &str) -> QueryResult {
    let mut catalog = Catalog::new();
    catalog.register("F", population.clone());
    themis_query::run_sql(&catalog, sql, &EngineOptions::default()).expect("population query")
}

fn main() {
    if std::env::args().any(|a| a == "--k-sweep") {
        k_sweep();
        return;
    }
    let scale = Scale::from_env();
    banner(
        "Fig. 6 / Table 5",
        "six SQL queries on Corners (100% bias, 'C') vs SCorners-98 ('SC')",
    );
    let setup = flights_setup(&scale);
    let aggregates = setup.aggregates_2d_set(4);
    let n = setup.population.len() as f64;
    let dataset = FlightsDataset::generate(FlightsConfig {
        n: scale.flights_n,
        ..Default::default()
    });
    let mut rng = SmallRng::seed_from_u64(6);
    let bn_size = scale.bn_sample_size;

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (bias_name, bias) in [("C", 1.0), ("SC", 0.98)] {
        let sample = dataset.sample_corners_with_bias(bias, &mut rng);

        let aqp = ThemisSession::new(Themis::build(
            sample.clone(),
            aggregates.clone(),
            n,
            ThemisConfig {
                reweighting: ReweightMethod::Uniform,
                bn_mode: None,
                ..ThemisConfig::default()
            },
        ));
        let ipf = ThemisSession::new(Themis::build(
            sample.clone(),
            aggregates.clone(),
            n,
            ThemisConfig {
                bn_mode: None,
                ..ThemisConfig::default()
            },
        ));
        // One session per model: the BN replicates are simulated once and
        // shared by the BB and Hybrid rows of every query.
        let hybrid = ThemisSession::new(Themis::build(
            sample.clone(),
            aggregates.clone(),
            n,
            ThemisConfig {
                bn_sample_size: Some(bn_size),
                ..ThemisConfig::default()
            },
        ));

        for (qname, sql) in QUERIES {
            let truth = truth_result(&setup.population, sql);
            let errors: HashMap<&str, f64> = [
                ("AQP", result_error(&truth, &aqp.sql_sample_only(sql).expect("aqp").result)),
                ("IPF", result_error(&truth, &ipf.sql_sample_only(sql).expect("ipf").result)),
                ("BB", result_error(&truth, &hybrid.sql_bn_only(sql).expect("bb").result)),
                ("Hybrid", result_error(&truth, &hybrid.sql(sql).expect("hybrid").result)),
            ]
            .into_iter()
            .collect();
            rows.push(vec![
                qname.to_string(),
                bias_name.to_string(),
                f(errors["AQP"]),
                f(errors["IPF"]),
                f(errors["BB"]),
                f(errors["Hybrid"]),
            ]);
        }
    }
    table(&["query", "sample", "AQP", "IPF", "BB", "Hybrid"], &rows);
    println!("\nTable 5 queries:");
    for (name, sql) in QUERIES {
        println!("  {name}: {sql}");
    }
}

/// The §4.2.4 ablation promised in DESIGN.md: as K (the number of BN sample
/// replicates) grows, phantom groups — groups returned that do not exist in
/// the population — are damped because a group must appear in *all* K
/// replicates.
fn k_sweep() {
    let scale = Scale::from_env();
    banner(
        "Fig. 6 --k-sweep",
        "phantom groups vs the number of BN replicates K (§4.2.4)",
    );
    let setup = flights_setup(&scale);
    let aggregates = setup.aggregates_2d_set(4);
    let n = setup.population.len() as f64;
    let dataset = FlightsDataset::generate(FlightsConfig {
        n: scale.flights_n,
        ..Default::default()
    });
    let mut rng = SmallRng::seed_from_u64(46);
    let sample = dataset.sample_corners_with_bias(1.0, &mut rng);
    // A phantom-prone query: state-pair groups under a long-haul filter
    // are sparse in the population, so BN replicates can invent pairs.
    let sql = "SELECT origin_state, dest_state, COUNT(*) FROM F \
               WHERE distance >= 9 GROUP BY origin_state, dest_state";
    let truth = truth_result(&setup.population, sql).to_map();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for k in [1usize, 3, 5, 10, 20] {
        let model = ThemisSession::new(Themis::build(
            sample.clone(),
            aggregates.clone(),
            n,
            ThemisConfig {
                k_samples: k,
                bn_sample_size: Some(scale.bn_sample_size),
                ..ThemisConfig::default()
            },
        ));
        let answer = model.sql_bn_only(sql).expect("bn answer").result.to_map();
        let phantoms = answer.keys().filter(|g| !truth.contains_key(*g)).count();
        let missed = truth.keys().filter(|g| !answer.contains_key(*g)).count();
        rows.push(vec![
            k.to_string(),
            answer.len().to_string(),
            phantoms.to_string(),
            missed.to_string(),
        ]);
    }
    table(&["K", "groups returned", "phantoms", "missed"], &rows);
}
