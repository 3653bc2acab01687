//! Quickstart: the paper's running example (Example 3.1) end to end.
//!
//! ```sh
//! cargo run -p themis-examples --example quickstart --release
//! ```
//!
//! We have a 4-tuple biased sample of a 10-tuple flight population, plus two
//! published aggregates (`GROUP BY date` and `GROUP BY o_st, d_st`). Themis
//! debiases the sample and answers point queries as if they ran over the
//! population — including a query about a tuple the sample never saw.

use themis_aggregates::{AggregateResult, AggregateSet};
use themis_core::{Themis, ThemisConfig, ThemisSession};
use themis_data::paper_example::{example_population, example_sample};
use themis_data::AttrId;
use themis_query::{run_sql, Catalog, EngineOptions};

fn main() {
    // The population exists conceptually but is unavailable; we use it here
    // only to compute the aggregates and the ground truth for display.
    let population = example_population();
    let n = population.len() as f64;

    let aggregates = AggregateSet::from_results(vec![
        AggregateResult::compute(&population, &[AttrId(0)]), // Γ1: GROUP BY date
        AggregateResult::compute(&population, &[AttrId(1), AttrId(2)]), // Γ2: origins × dests
    ]);

    // 1. Insert the sample and the aggregates; build the model and open a
    //    query session over it.
    let sample = example_sample();
    println!("sample: {} tuples, population: {} tuples\n", sample.len(), n);
    let session = ThemisSession::new(Themis::build(sample, aggregates, n, ThemisConfig::default()));

    // 2. Ask open-world point queries in SQL (COUNT(*) is evaluated as
    //    SUM(weight)); each answer names the component that produced it
    //    (the reweighted sample vs the Bayesian network). The truth is the
    //    same query over the population.
    let mut population_catalog = Catalog::new();
    population_catalog.register("flights", population);
    println!("{:<42} {:>6} {:>8}  route", "WHERE", "true", "Themis");
    for filter in [
        "date = '01'",
        "o_st = 'NC' AND d_st = 'NY'",
        "o_st = 'FL' AND d_st = 'NY'",
    ] {
        let sql = format!("SELECT COUNT(*) FROM flights WHERE {filter}");
        let truth = run_sql(&population_catalog, &sql, &EngineOptions::default())
            .expect("valid SQL")
            .scalar()
            .expect("point answers are scalar");
        let answer = session.sql(&sql).expect("valid SQL");
        let est = answer.scalar().expect("point answers are scalar");
        println!("{filter:<42} {truth:>6.1} {est:>8.2}  {}", answer.route);
    }
    println!("(FL -> NY is NOT in the sample: the Bayesian network answers it.)");

    // 3. Grouped queries go hybrid, and `explain` shows the routing
    //    decision before anything runs.
    let sql = "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
    let explain = session.explain(sql).expect("valid SQL");
    println!("\n{explain}");
    let answer = session.sql(sql).expect("valid SQL");
    println!("\n{sql};\n{}-- {}", answer.result, answer.route);
}
