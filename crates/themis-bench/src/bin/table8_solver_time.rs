//! Table 8: structure (S) and parameter (P) learning times on IMDB SR159 as
//! 1-D and then 2-D aggregates are added, for LinReg, IPF, and BB.

use std::time::Instant;
use themis_bench::report::{banner, table};
use themis_bench::setup::{imdb_setup, Scale};
use themis_bn::parameters::{learn_parameters, ParamOptions, ParamSource};
use themis_bn::{learn_structure, StructureOptions, StructureSource};
use themis_reweight::{ipf_weights, linreg_weights, IpfOptions, LinRegOptions};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Table 8",
        "structure (S) and parameter (P) learning times in seconds (SR159)",
    );
    let setup = imdb_setup(&scale);
    let n = setup.population.len() as f64;
    let sample = &setup
        .samples
        .iter()
        .find(|(name, _)| *name == "SR159")
        .expect("SR159 sample")
        .1;

    let mut configs: Vec<(String, themis_aggregates::AggregateSet)> = Vec::new();
    for b in 1..=5usize {
        configs.push((format!("{b}x1D"), setup.aggregates_1d_set(b, false)));
    }
    for b in 1..=4usize {
        configs.push((format!("5x1D+{b}x2D"), setup.aggregates_1d_plus(2, b)));
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, aggs) in &configs {
        // Structure learning (BB's phase is the slowest of the modes).
        let start = Instant::now();
        let parents = learn_structure(
            sample,
            aggs,
            n,
            StructureSource::Both,
            &StructureOptions::default(),
        );
        let t_struct = start.elapsed().as_secs_f64();

        // Parameter learning: LinReg, IPF, BB-constrained.
        let start = Instant::now();
        let _ = linreg_weights(sample, aggs, n, &LinRegOptions::default());
        let t_reg = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let _ = ipf_weights(sample, aggs, &IpfOptions::default());
        let t_ipf = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let _ = learn_parameters(
            sample,
            aggs,
            n,
            parents.clone(),
            ParamSource::Both,
            &ParamOptions::default(),
        );
        let t_bb = start.elapsed().as_secs_f64();

        rows.push(vec![
            label.clone(),
            format!("{t_struct:.3}"),
            format!("{t_reg:.3}"),
            format!("{t_ipf:.3}"),
            format!("{t_bb:.3}"),
        ]);
    }
    table(
        &["aggregates", "S: BB", "P: Reg", "P: IPF", "P: BB"],
        &rows,
    );
}
