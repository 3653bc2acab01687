//! The Themis model `M(Γ, S)`: building, reweighting, and the model-level
//! point estimators (§3). SQL answering with routing and provenance —
//! every hybrid `GROUP BY` included — lives on [`crate::ThemisSession`];
//! the routing internals in [`crate::route`], whose one §4.3 point rule
//! [`Themis::point_query`] shares with the session's SQL point route.

use crate::error::ThemisError;
use crate::route::{self, RouteKind};
use std::sync::Arc;
use themis_aggregates::{AggregateSet, IncidenceMatrix};
use themis_bn::{learn, point_probability, BayesianNetwork, LearnMode, LearnOptions};
use themis_data::{AttrId, Relation};
use themis_reweight::{
    ipf_on_incidence, ipf_weights, linreg_weights, uniform_weights, IpfOptions, IpfReport,
    LinRegOptions,
};

/// Which sample-reweighting technique the model uses (§4.1).
#[derive(Debug, Clone)]
pub enum ReweightMethod {
    /// Uniform `|P|/|S|` weights — the default-AQP baseline.
    Uniform,
    /// Constrained linear regression (§4.1.1).
    LinReg(LinRegOptions),
    /// Iterative Proportional Fitting (§4.1.2) — the Themis default.
    Ipf(IpfOptions),
}

/// Configuration for building a Themis model.
#[derive(Debug, Clone)]
pub struct ThemisConfig {
    /// Reweighting technique.
    pub reweighting: ReweightMethod,
    /// BN learning mode; `None` disables the probabilistic component
    /// (turning the hybrid into a pure reweighter).
    pub bn_mode: Option<LearnMode>,
    /// BN learning options.
    pub bn_options: LearnOptions,
    /// Number of replicate BN samples for `GROUP BY` answering (§4.2.4;
    /// the paper uses K = 10).
    pub k_samples: usize,
    /// Size of each replicate sample; `None` uses the input sample's size.
    pub bn_sample_size: Option<usize>,
    /// RNG seed for BN sampling.
    pub seed: u64,
}

impl Default for ThemisConfig {
    fn default() -> Self {
        Self {
            reweighting: ReweightMethod::Ipf(IpfOptions::default()),
            bn_mode: Some(LearnMode::BB),
            bn_options: LearnOptions::default(),
            k_samples: 10,
            bn_sample_size: None,
            seed: 0x7E15,
        }
    }
}

/// A built Themis model: the reweighted sample plus (optionally) the learned
/// Bayesian network of the population.
#[derive(Debug, Clone)]
pub struct Themis {
    /// Shared so query paths can bind it into catalogs by pointer bump.
    sample: Arc<Relation>,
    aggregates: AggregateSet,
    population_size: f64,
    bn: Option<BayesianNetwork>,
    config: ThemisConfig,
    ipf_report: Option<IpfReport>,
    /// The IPF incidence matrix over `sample`, carried only by models that
    /// [`Themis::grown`] made, so that the next ingest extends it instead
    /// of rebuilding it. A cold-built model carries none.
    incidence: Option<IncidenceMatrix>,
}

impl Themis {
    /// Build the model: learn tuple weights from `Γ` and (optionally) the
    /// population Bayesian network.
    pub fn build(
        sample: Relation,
        aggregates: AggregateSet,
        population_size: f64,
        config: ThemisConfig,
    ) -> Self {
        Self::fit(sample, aggregates, population_size, config, None)
    }

    /// This model grown by `rows` (labels, schema order) and refit — what
    /// `ThemisSession::ingest` swaps in. The batch is validated whole
    /// before any row is appended. Under IPF the incidence matrix this
    /// model carries is extended by the appended rows (built from the
    /// grown sample on a model's first ingest). Appended rows have
    /// strictly larger indices, so the extension equals a cold
    /// [`IncidenceMatrix::build`], and the result is bit-identical to
    /// [`Themis::build`] on the grown sample.
    pub(crate) fn grown(&self, rows: &[Vec<String>]) -> Result<Self, themis_live::IngestError> {
        let sample = themis_live::grow_relation(&self.sample, rows)?;
        let incidence = match &self.config.reweighting {
            ReweightMethod::Ipf(_) => Some(match &self.incidence {
                Some(matrix) => {
                    let mut matrix = matrix.clone();
                    matrix.extend(&sample, &self.aggregates);
                    matrix
                }
                None => IncidenceMatrix::build(&sample, &self.aggregates),
            }),
            ReweightMethod::Uniform | ReweightMethod::LinReg(_) => None,
        };
        Ok(Self::fit(
            sample,
            self.aggregates.clone(),
            self.population_size,
            self.config.clone(),
            incidence,
        ))
    }

    /// The one fit behind [`Themis::build`] and [`Themis::grown`]: reweight
    /// `sample` (§4.1; under IPF over `incidence` when given, which must
    /// cover `sample`), then learn the BN on the reweighted sample (§4.2).
    fn fit(
        mut sample: Relation,
        aggregates: AggregateSet,
        population_size: f64,
        config: ThemisConfig,
        incidence: Option<IncidenceMatrix>,
    ) -> Self {
        let mut ipf_report = None;
        let weights = match &config.reweighting {
            ReweightMethod::Uniform => uniform_weights(&sample, population_size),
            ReweightMethod::LinReg(opts) => {
                linreg_weights(&sample, &aggregates, population_size, opts).0
            }
            ReweightMethod::Ipf(opts) => {
                let (w, rep) = match &incidence {
                    Some(matrix) => ipf_on_incidence(matrix, sample.len(), opts),
                    None => ipf_weights(&sample, &aggregates, opts),
                };
                ipf_report = Some(rep);
                w
            }
        };
        sample.set_weights(weights);

        let bn = config
            .bn_mode
            .map(|mode| learn(&sample, &aggregates, population_size, mode, &config.bn_options));

        Self {
            sample: Arc::new(sample),
            aggregates,
            population_size,
            bn,
            config,
            ipf_report,
            incidence,
        }
    }

    /// Build a model from *multiple* samples of the same population — the
    /// paper's §8 future-work item "integrate multiple samples into the
    /// debiasing process". The samples are unioned into one relation (each
    /// tuple keeps its own learned weight — IPF and LinReg both treat
    /// tuples individually, so differently-biased sources coexist) and the
    /// model is built as usual.
    ///
    /// # Errors
    /// [`ThemisError::NoSamples`] if `samples` is empty;
    /// [`ThemisError::SchemaMismatch`] if the schemas differ.
    pub fn build_multi(
        samples: Vec<Relation>,
        aggregates: AggregateSet,
        population_size: f64,
        config: ThemisConfig,
    ) -> Result<Self, ThemisError> {
        let mut iter = samples.into_iter();
        let mut union = iter.next().ok_or(ThemisError::NoSamples)?;
        for (i, s) in iter.enumerate() {
            if union.schema() != s.schema() {
                return Err(ThemisError::SchemaMismatch { index: i + 1 });
            }
            for (row, _) in s.iter_rows() {
                union.push_row(&row);
            }
        }
        Ok(Self::build(union, aggregates, population_size, config))
    }

    /// The reweighted sample.
    pub fn reweighted_sample(&self) -> &Relation {
        &self.sample
    }

    /// The reweighted sample as its shared handle — what sessions bind into
    /// per-query catalogs without cloning row data.
    pub fn sample_arc(&self) -> &Arc<Relation> {
        &self.sample
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ThemisConfig {
        &self.config
    }

    /// The learned Bayesian network, if any.
    pub fn bayesian_network(&self) -> Option<&BayesianNetwork> {
        self.bn.as_ref()
    }

    /// The aggregates the model was built from.
    pub fn aggregates(&self) -> &AggregateSet {
        &self.aggregates
    }

    /// The (approximate) population size `n`.
    pub fn population_size(&self) -> f64 {
        self.population_size
    }

    /// IPF convergence report, when IPF was the reweighting method.
    pub fn ipf_report(&self) -> Option<&IpfReport> {
        self.ipf_report.as_ref()
    }

    /// Human-readable model summary: weight statistics, aggregate
    /// knowledge, and the learned network structure.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let w = self.sample.weights();
        let total: f64 = w.iter().sum();
        let max = w.iter().fold(0.0f64, |m, &x| m.max(x));
        let min = w.iter().fold(f64::INFINITY, |m, &x| m.min(x));
        out.push_str(&format!(
            "sample: {} tuples, total weight {:.1} (n = {}), w(t) in [{:.3}, {:.3}]\n",
            self.sample.len(),
            total,
            self.population_size,
            min,
            max
        ));
        out.push_str(&format!(
            "aggregates: {} ({} constraint groups)\n",
            self.aggregates.len(),
            self.aggregates.total_groups()
        ));
        if let Some(rep) = &self.ipf_report {
            out.push_str(&format!(
                "IPF: {} sweeps, violation {:.2e}, converged = {}\n",
                rep.iterations, rep.final_violation, rep.converged
            ));
        }
        match &self.bn {
            Some(bn) => {
                out.push_str(&format!(
                    "Bayesian network: {} parameters, edges:",
                    bn.parameter_count()
                ));
                let edges = bn.edges();
                if edges.is_empty() {
                    out.push_str(" (none — all attributes independent)");
                }
                for (p, c) in edges {
                    out.push_str(&format!(
                        " {} -> {},",
                        bn.schema().attr(p).name(),
                        bn.schema().attr(c).name()
                    ));
                }
                if out.ends_with(',') {
                    out.pop();
                }
                let reports = bn.fit_reports();
                if !reports.is_empty() {
                    let closed = reports.iter().filter(|r| r.outer_iterations == 0).count();
                    let unconverged = reports.iter().filter(|r| !r.converged).count();
                    out.push_str(&format!(
                        "\nBN parameters: {closed} closed-form, {} iterative ({unconverged} unconverged)",
                        reports.len() - closed
                    ));
                }
            }
            None => out.push_str("Bayesian network: disabled"),
        }
        out
    }

    /// Hybrid point query (§4.3): if the queried tuple exists in the
    /// sample, answer from the reweighted sample (`SUM(weight)`); otherwise
    /// fall back to direct BN inference, `n · Pr(X = v)`. The choice is the
    /// session's SQL point route, made by the same function.
    pub fn point_query(&self, attrs: &[AttrId], values: &[u32]) -> f64 {
        match route::point_route(self, attrs, values) {
            // The rule picks the BN only when the model has one.
            RouteKind::BayesNet => self.point_query_bn(attrs, values).unwrap_or(0.0),
            _ => self.point_query_sample(attrs, values),
        }
    }

    /// Point query answered by the reweighted sample only.
    pub fn point_query_sample(&self, attrs: &[AttrId], values: &[u32]) -> f64 {
        self.sample.point_count(attrs, values)
    }

    /// Point query answered by BN inference only.
    ///
    /// # Errors
    /// [`ThemisError::NoBayesNet`] if the model was built without a BN.
    pub fn point_query_bn(&self, attrs: &[AttrId], values: &[u32]) -> Result<f64, ThemisError> {
        let bn = self.bn.as_ref().ok_or(ThemisError::NoBayesNet)?;
        Ok(self.population_size * point_probability(bn, attrs, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_aggregates::AggregateResult;
    use themis_data::paper_example::{example_population, example_sample};

    fn build(config: ThemisConfig) -> (Relation, Themis) {
        let p = example_population();
        let aggregates = AggregateSet::from_results(vec![
            AggregateResult::compute(&p, &[AttrId(0)]),
            AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]),
        ]);
        let t = Themis::build(example_sample(), aggregates, 10.0, config);
        (p, t)
    }

    #[test]
    fn in_sample_point_query_uses_reweighted_sample() {
        let (p, t) = build(ThemisConfig::default());
        let attrs = [AttrId(1), AttrId(2)];
        // NC→NY is in the sample: hybrid answer == sample answer.
        assert_eq!(
            t.point_query(&attrs, &[1, 2]),
            t.point_query_sample(&attrs, &[1, 2])
        );
        let truth = p.point_count(&attrs, &[1, 2]);
        assert!((t.point_query(&attrs, &[1, 2]) - truth).abs() < 1.0);
    }

    #[test]
    fn missing_tuple_falls_back_to_bn() {
        let (p, t) = build(ThemisConfig::default());
        let attrs = [AttrId(1), AttrId(2)];
        // FL→NY exists in the population (count 1) but not in the sample.
        let est = t.point_query(&attrs, &[0, 2]);
        assert!(est > 0.0, "open-world estimate must be positive");
        let truth = p.point_count(&attrs, &[0, 2]);
        assert!((est - truth).abs() < 1.5, "est {est} vs truth {truth}");
    }

    #[test]
    fn without_bn_missing_tuples_are_zero() {
        let config = ThemisConfig {
            bn_mode: None,
            ..ThemisConfig::default()
        };
        let (_, t) = build(config);
        assert_eq!(t.point_query(&[AttrId(1), AttrId(2)], &[0, 2]), 0.0);
    }

    #[test]
    fn group_by_unions_bn_groups() {
        let (_, t) = build(ThemisConfig {
            bn_sample_size: Some(4_000),
            ..ThemisConfig::default()
        });
        let session = crate::ThemisSession::new(t);
        let sql = "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st";
        let sample_groups = session.sql_sample_only(sql).unwrap().result.to_map();
        let hybrid = session.sql(sql).unwrap().result.to_map();
        assert!(hybrid.len() >= sample_groups.len());
        // Sample groups keep their reweighted counts.
        for (g, c) in &sample_groups {
            assert_eq!(hybrid[g], *c);
        }
    }

    #[test]
    fn point_query_bn_requires_a_network() {
        let (_, t) = build(ThemisConfig {
            bn_mode: None,
            ..ThemisConfig::default()
        });
        assert_eq!(
            t.point_query_bn(&[AttrId(0)], &[0]),
            Err(ThemisError::NoBayesNet)
        );
    }

    #[test]
    fn uniform_config_reproduces_aqp() {
        let config = ThemisConfig {
            reweighting: ReweightMethod::Uniform,
            bn_mode: None,
            ..ThemisConfig::default()
        };
        let (_, t) = build(config);
        // Every weight is 10/4.
        assert!(t
            .reweighted_sample()
            .weights()
            .iter()
            .all(|&w| (w - 2.5).abs() < 1e-12));
    }

    #[test]
    fn ipf_report_is_exposed() {
        let (_, t) = build(ThemisConfig::default());
        let rep = t.ipf_report().expect("IPF is the default");
        assert!(!rep.converged, "Example 4.2's sample cannot converge");
    }

    #[test]
    fn describe_summarizes_the_model() {
        let (_, t) = build(ThemisConfig::default());
        let d = t.describe();
        assert!(d.contains("4 tuples"), "{d}");
        assert!(d.contains("aggregates: 2 (9 constraint groups)"), "{d}");
        assert!(d.contains("IPF:"), "{d}");
        assert!(d.contains("Bayesian network:"), "{d}");
        // date's only aggregate covers it without its parent o_st, so its
        // factor is coupled and goes through the loop.
        assert!(d.contains("edges: o_st -> date, o_st -> d_st"), "{d}");
        assert!(
            d.contains("BN parameters: 2 closed-form, 1 iterative (0 unconverged)"),
            "{d}"
        );
        let (_, t) = build(ThemisConfig {
            bn_mode: None,
            ..ThemisConfig::default()
        });
        assert!(t.describe().contains("disabled"));
    }

    #[test]
    fn describe_counts_closed_form_factors_on_a_flights_world() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use themis_aggregates::gamma::all_aggregates_of_dim;
        use themis_aggregates::select_tcherry;
        use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
        let data = FlightsDataset::generate(FlightsConfig {
            n: 6_000,
            seed: 1,
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
        let sample = data.sample_corners_with_bias(1.0, &mut SmallRng::seed_from_u64(2));
        let t = Themis::build(sample, aggregates, pop.len() as f64, ThemisConfig::default());
        // Every family is covered whole by a t-cherry aggregate and every
        // root by a marginal of one, so no factor needs the loop.
        let d = t.describe();
        assert!(
            d.contains("BN parameters: 5 closed-form, 0 iterative (0 unconverged)"),
            "{d}"
        );
    }

    #[test]
    fn multi_sample_build_unions_tuples() {
        let p = example_population();
        let aggregates = AggregateSet::from_results(vec![
            AggregateResult::compute(&p, &[AttrId(0)]),
            AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]),
        ]);
        // Two complementary biased samples: together they cover both dates.
        let mut s1 = Relation::new(p.schema().clone());
        s1.push_row_labels(&["01", "FL", "FL"]);
        s1.push_row_labels(&["01", "NY", "NC"]);
        let mut s2 = Relation::new(p.schema().clone());
        s2.push_row_labels(&["02", "NC", "NY"]);
        s2.push_row_labels(&["02", "NY", "NY"]);
        let t = Themis::build_multi(vec![s1, s2], aggregates, 10.0, ThemisConfig::default())
            .expect("matching schemas");
        assert_eq!(t.reweighted_sample().len(), 4);
        // Both dates answerable from the union (each single-source sample
        // covers only one date); IPF can recover at most the mass of the
        // group-by cells its tuples occupy (2 + 1 = 3 of the 5 date=01
        // flights), so allow that slack.
        for (date, truth) in [(0u32, 5.0), (1u32, 5.0)] {
            let est = t.point_query(&[AttrId(0)], &[date]);
            assert!(est > 2.0, "date {date}: estimate {est} too small");
            assert!((est - truth).abs() <= 2.1, "date {date}: {est} vs {truth}");
        }
    }

    #[test]
    fn multi_sample_rejects_mixed_schemas_and_empty_input() {
        let other = themis_data::Schema::new(vec![themis_data::Attribute::new(
            "x",
            themis_data::Domain::indexed("x", 2),
        )]);
        let mut s2 = Relation::new(other);
        s2.push_row(&[0]);
        let err = Themis::build_multi(
            vec![example_sample(), s2],
            AggregateSet::new(),
            10.0,
            ThemisConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ThemisError::SchemaMismatch { index: 1 });
        assert!(err.to_string().contains("sample 1"));
        assert_eq!(
            Themis::build_multi(Vec::new(), AggregateSet::new(), 10.0, ThemisConfig::default())
                .unwrap_err(),
            ThemisError::NoSamples
        );
    }
}
