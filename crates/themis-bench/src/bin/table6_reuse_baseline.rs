//! Table 6: error ratio of Themis relative to the reuse-based AQP baseline
//! of Galakatos et al. \[33\] for `GROUP BY` queries over O-DE and DT-DE, as
//! the Corners bias decreases, with a single 1-D aggregate over O.
//!
//! For O-DE the baseline rewrites the joint with the known O distribution
//! times the sample conditional; for DT-DE it cannot use the aggregate and
//! degenerates to uniform reweighting. Themis answers both through its
//! session's hybrid SQL, so the K BN replicates are simulated once per bias.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use themis_aggregates::{AggregateResult, AggregateSet};
use themis_bench::report::{banner, table};
use themis_bench::setup::Scale;
use themis_core::baselines::{reuse_group_by, reuse_group_by_uniform};
use themis_core::{group_by_error, Themis, ThemisConfig, ThemisSession};
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_data::{AttrId, GroupKey};

/// The hybrid `GROUP BY a, b, COUNT(*)` answer, keyed by domain codes like
/// the truth and the reuse baseline.
fn hybrid_counts(session: &ThemisSession, attrs: [AttrId; 2]) -> HashMap<GroupKey, f64> {
    let model = session.model();
    let schema = model.reweighted_sample().schema();
    let [a, b] = attrs.map(|attr| schema.attr(attr).name());
    let sql = format!("SELECT {a}, {b}, COUNT(*) FROM F GROUP BY {a}, {b}");
    let answer = session.sql(&sql).expect("hybrid GROUP BY");
    answer
        .result
        .to_map()
        .into_iter()
        .map(|(labels, counts)| {
            let key = attrs
                .iter()
                .zip(&labels)
                .map(|(&attr, label)| schema.domain(attr).id_of(label).expect("a domain label"))
                .collect();
            (key, counts[0])
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Table 6",
        "error ratio Themis / reuse-baseline [33] (1 1D aggregate over O)",
    );
    let dataset = FlightsDataset::generate(FlightsConfig {
        n: scale.flights_n,
        ..Default::default()
    });
    let attrs = FlightsDataset::attrs();
    let pop = &dataset.population;
    let n = pop.len() as f64;
    let known_o = AggregateResult::compute(pop, &[attrs.o]);
    let aggregates = AggregateSet::from_results(vec![known_o.clone()]);
    let mut rng = SmallRng::seed_from_u64(66);

    let truth_ode = pop.group_counts(&[attrs.o, attrs.de]);
    let truth_dtde = pop.group_counts(&[attrs.dt, attrs.de]);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row_ode = vec!["O-DE".to_string()];
    let mut row_dtde = vec!["DT-DE".to_string()];
    let biases = [100u32, 98, 96, 94, 92, 90];
    for bias_pct in biases {
        let sample = dataset.sample_corners_with_bias(bias_pct as f64 / 100.0, &mut rng);
        let themis = ThemisSession::new(Themis::build(
            sample.clone(),
            aggregates.clone(),
            n,
            ThemisConfig {
                bn_sample_size: Some(scale.bn_sample_size),
                ..ThemisConfig::default()
            },
        ));

        // O-DE: reuse can leverage the known O distribution.
        let themis_ode = hybrid_counts(&themis, [attrs.o, attrs.de]);
        let reuse_ode = reuse_group_by(&sample, &known_o, attrs.o, attrs.de);
        let ratio_ode =
            group_by_error(&truth_ode, &themis_ode) / group_by_error(&truth_ode, &reuse_ode);
        row_ode.push(format!("{ratio_ode:.2}"));

        // DT-DE: the aggregate does not cover DT — reuse falls back to AQP.
        let themis_dtde = hybrid_counts(&themis, [attrs.dt, attrs.de]);
        let reuse_dtde = reuse_group_by_uniform(&sample, n, attrs.dt, attrs.de);
        let ratio_dtde =
            group_by_error(&truth_dtde, &themis_dtde) / group_by_error(&truth_dtde, &reuse_dtde);
        row_dtde.push(format!("{ratio_dtde:.2}"));
    }
    rows.push(row_ode);
    rows.push(row_dtde);
    let headers: Vec<String> = std::iter::once("Bias".to_string())
        .chain(biases.iter().map(|b| b.to_string()))
        .collect();
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    table(&hrefs, &rows);
    println!("\n(ratio < 1 means Themis has lower error than the reuse baseline)");
}
