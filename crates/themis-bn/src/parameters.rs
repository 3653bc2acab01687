//! Parameter learning with aggregate constraints (Eq. 2, simplified per
//! §5.2).
//!
//! BN parameters maximize the sample likelihood subject to the aggregate
//! constraints. The unsimplified problem has nonlinear constraints over
//! products of factors and is intractable (§6: "experiments did not finish
//! in under 10 hours without using the optimization"). The §5.2
//! simplification makes it tractable:
//!
//! 1. only aggregate constraints acting on a *single factor* — a child `X_i`
//!    together with (a subset of) its parents — are added; aggregates that
//!    mention other attributes are marginalized down onto the factor's
//!    attributes first (Example 5.1 turns the `(O, DE)` aggregate into one
//!    over `O` by aggregation when solving `O`),
//! 2. factors are solved in *topological order*, so every ancestor term in a
//!    constraint is an already-known constant and the constraint becomes
//!    linear in the factor's parameters.
//!
//! Each per-factor problem is a [`ConstrainedMle`]: maximize the (smoothed)
//! count likelihood over the CPT's simplex blocks subject to the linear
//! aggregate constraints.
//!
//! **Solve by aggregation, in closed form.** Taken to its limit, Example
//! 5.1's "solve by aggregation" needs no optimizer at all. When one
//! aggregate covers the child together with *all* its parents, each of its
//! groups `(v, k)` yields a single-term constraint `Pr(Pa = k)·θ_{v|k} =
//! a(v, k)/n`, which pins `θ_{v|k} = a(v, k) / a(k)`; a root's marginal
//! pins its CPT the same way. The solver's presolve sets every pinned cell
//! and gives whatever mass a parent configuration has left (none but
//! rounding, when the aggregate lists every group the population has) to
//! the unpinned cells in proportion to their counts. That is the optimum of the relaxation
//! that drops every multi-term constraint; when it also satisfies those
//! within tolerance — as it does when the aggregates are consistent — it
//! is the optimum of the whole factor problem, and the factor costs one
//! pass over its constraints. Such a CPT depends only on `Γ` and the
//! structure, never on the sample counts: an ingest that keeps the
//! structure leaves it bit-identical.
//!
//! The augmented-Lagrangian loop still runs for a factor whose constraints
//! the pins do not settle: an aggregate that covers the child but only some
//! of its parents leaves a coupled constraint `Σ_k Pr(Pa = k)·θ_{v|k} =
//! a(v)/n` (the `(O, DE)` aggregate when solving `O` with a parent it does
//! not mention), and inconsistent aggregates leave conflicting pins. Each
//! factor's [`MleReport`] is kept on the network
//! ([`BayesianNetwork::fit_reports`]): zero iterations for a closed-form
//! factor.

use crate::inference::point_probability;
use crate::network::{BayesianNetwork, Cpt};
use themis_aggregates::AggregateSet;
use themis_data::{AttrId, Relation};
use themis_solver::constrained::{ConstrainedMle, LinearConstraint, MleReport};

/// Which data source(s) drive parameter learning (the second letter of the
/// §6.6 mode names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSource {
    /// Sample only (`*S` modes): smoothed maximum likelihood.
    SampleOnly,
    /// Both (`*B` modes): constrained maximum likelihood.
    Both,
}

/// Options for parameter learning.
#[derive(Debug, Clone)]
pub struct ParamOptions {
    /// Additive (Laplace) smoothing applied to the sample counts. The
    /// paper's prototype inherits BNLearn-style smoothing; with very dense
    /// attributes (IMDB's `name`) this drives the learned marginal towards
    /// uniform — exactly the §6.4 failure mode.
    pub laplace: f64,
}

impl Default for ParamOptions {
    fn default() -> Self {
        Self { laplace: 1.0 }
    }
}

/// Learn all CPTs for a given structure.
pub fn learn_parameters(
    sample: &Relation,
    aggregates: &AggregateSet,
    population_size: f64,
    parents: Vec<Vec<AttrId>>,
    source: ParamSource,
    options: &ParamOptions,
) -> BayesianNetwork {
    let schema = sample.schema().clone();
    // Start with uniform CPTs; nodes are filled in topological order, so by
    // the time a node is solved all its ancestors carry final parameters.
    let uniform_cpts: Vec<Cpt> = schema
        .attr_ids()
        .map(|a| {
            let pcards: Vec<usize> = parents[a.0]
                .iter()
                .map(|&p| schema.domain(p).size())
                .collect();
            Cpt::uniform(schema.domain(a).size(), pcards)
        })
        .collect();
    let mut net = BayesianNetwork::new(schema.clone(), parents.clone(), uniform_cpts);

    let order = net
        .topological_order()
        // themis-lint: allow(no-panic-in-libs) reason=structure learning emits tree/forest parent sets, which are acyclic by construction
        .expect("structure learning produces DAGs");

    let mut reports = vec![None; net.arity()];
    for node in order {
        let (cpt, report) =
            solve_factor(sample, aggregates, population_size, &net, node, source, options);
        *net.cpt_mut(node) = cpt;
        reports[node.0] = Some(report);
    }
    // The topological order holds every node once, so no report is missing.
    net.set_fit_reports(reports.into_iter().flatten().collect());
    net
}

/// Solve one factor `Pr(node | Pa(node))`.
fn solve_factor(
    sample: &Relation,
    aggregates: &AggregateSet,
    population_size: f64,
    net: &BayesianNetwork,
    node: AttrId,
    source: ParamSource,
    options: &ParamOptions,
) -> (Cpt, MleReport) {
    let schema = net.schema();
    let card = schema.domain(node).size();
    let parents = net.parents(node).to_vec();
    let parent_cards: Vec<usize> = parents.iter().map(|&p| schema.domain(p).size()).collect();
    let configs: usize = parent_cards.iter().product::<usize>().max(1);

    // Smoothed counts in (config, value) order.
    let mut counts = vec![options.laplace; configs * card];
    let mut family = vec![node];
    family.extend_from_slice(&parents);
    for (key, c) in sample.group_row_counts(&family) {
        let mut config = 0usize;
        for (i, &pc) in parent_cards.iter().enumerate() {
            config = config * pc + key[1 + i] as usize;
        }
        counts[config * card + key[0] as usize] += c as f64;
    }

    let constraints = match source {
        ParamSource::SampleOnly => Vec::new(),
        ParamSource::Both => build_factor_constraints(
            aggregates,
            population_size,
            net,
            node,
            card,
            &parents,
            &parent_cards,
        ),
    };

    let problem = ConstrainedMle::new(vec![card; configs], counts, constraints);
    let (theta, report) = problem.solve();

    let mut cpt = Cpt {
        card,
        parent_cards,
        table: theta,
    };
    // Footnote 7: approximate solving can leave tiny negatives.
    cpt.clamp_and_renormalize();
    (cpt, report)
}

/// Build the linear constraints for one factor from every aggregate that
/// mentions the child. Aggregates are marginalized onto
/// `{child} ∪ (γ ∩ parents)`; ancestor joint probabilities (computed from
/// the already-solved part of the network) fold into constant coefficients.
fn build_factor_constraints(
    aggregates: &AggregateSet,
    population_size: f64,
    net: &BayesianNetwork,
    node: AttrId,
    card: usize,
    parents: &[AttrId],
    parent_cards: &[usize],
) -> Vec<LinearConstraint> {
    let configs: usize = parent_cards.iter().product::<usize>().max(1);

    // Joint probability of each full parent configuration under the solved
    // ancestors (constants by the topological solving order).
    let mut parent_probs = vec![1.0; configs];
    if !parents.is_empty() {
        let mut values = vec![0u32; parents.len()];
        for (k, pp) in parent_probs.iter_mut().enumerate() {
            let mut rem = k;
            for i in (0..parents.len()).rev() {
                values[i] = (rem % parent_cards[i]) as u32;
                rem /= parent_cards[i];
            }
            *pp = point_probability(net, parents, &values);
        }
    }

    let mut out = Vec::new();
    for agg in aggregates.iter() {
        if !agg.attrs().contains(&node) {
            continue;
        }
        // Marginalize onto the factor's attributes: child first, then the
        // covered parents in parent order.
        let covered_parents: Vec<AttrId> = parents
            .iter()
            .copied()
            .filter(|p| agg.attrs().contains(p))
            .collect();
        let mut onto = vec![node];
        onto.extend_from_slice(&covered_parents);
        let projected = agg.marginalize(&onto);

        // Positions of covered parents within the full parent list.
        let cover_pos: Vec<usize> = covered_parents
            .iter()
            // themis-lint: allow(no-panic-in-libs) reason=covered_parents is filtered from `parents` two statements up, so every element is present
            .map(|cp| parents.iter().position(|p| p == cp).expect("covered parent"))
            .collect();

        for (key, count) in projected.groups() {
            let child_value = key[0];
            debug_assert!((child_value as usize) < card);
            // All full parent configs consistent with the covered-parent
            // values contribute `Pr(parents = k) · θ_{child, k}`.
            let mut terms = Vec::new();
            let mut values = vec![0u32; parents.len()];
            for (k, &pp) in parent_probs.iter().enumerate() {
                let mut rem = k;
                for i in (0..parents.len()).rev() {
                    values[i] = (rem % parent_cards[i]) as u32;
                    rem /= parent_cards[i];
                }
                let consistent = cover_pos
                    .iter()
                    .zip(&key[1..])
                    .all(|(&pos, &v)| values[pos] == v);
                if consistent && pp > 0.0 {
                    terms.push((k * card + child_value as usize, pp));
                }
            }
            if !terms.is_empty() {
                out.push(LinearConstraint {
                    terms,
                    rhs: (count / population_size).min(1.0),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_aggregates::AggregateResult;
    use themis_data::paper_example::{example_population, example_sample};

    fn aggregates() -> AggregateSet {
        let p = example_population();
        AggregateSet::from_results(vec![
            AggregateResult::compute(&p, &[AttrId(0)]),
            AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]),
        ])
    }

    #[test]
    fn sample_only_matches_smoothed_mle() {
        let s = example_sample();
        let net = learn_parameters(
            &s,
            &AggregateSet::new(),
            10.0,
            vec![vec![], vec![], vec![]],
            ParamSource::SampleOnly,
            &ParamOptions { laplace: 0.0 },
        );
        // date: 3 of 4 rows are 01.
        assert!((net.cpt(AttrId(0)).prob(0, &[]) - 0.75).abs() < 1e-9);
        assert!((net.cpt(AttrId(0)).prob(1, &[]) - 0.25).abs() < 1e-9);
        assert!(net.is_normalized(1e-9));
    }

    #[test]
    fn laplace_smoothing_pulls_toward_uniform() {
        let s = example_sample();
        let net = learn_parameters(
            &s,
            &AggregateSet::new(),
            10.0,
            vec![vec![], vec![], vec![]],
            ParamSource::SampleOnly,
            &ParamOptions { laplace: 100.0 },
        );
        let p0 = net.cpt(AttrId(0)).prob(0, &[]);
        assert!((p0 - 0.5).abs() < 0.02, "heavy smoothing ≈ uniform, got {p0}");
    }

    #[test]
    fn root_constraint_pins_marginal_to_aggregate() {
        // The sample has date=01 three out of four times, but Γ says the
        // population is 50/50; constrained learning must follow Γ.
        let s = example_sample();
        let net = learn_parameters(
            &s,
            &aggregates(),
            10.0,
            vec![vec![], vec![], vec![]],
            ParamSource::Both,
            &ParamOptions::default(),
        );
        let p01 = net.cpt(AttrId(0)).prob(0, &[]);
        assert!((p01 - 0.5).abs() < 1e-3, "Pr(date=01) = {p01}, want 0.5");
        assert!(net.is_normalized(1e-9));
    }

    #[test]
    fn child_factor_respects_joint_aggregate() {
        // Structure o_st → d_st; the (o_st, d_st) aggregate constrains the
        // joint, so after learning, n·Pr(o=FL, d=NY) ≈ 1 even though the
        // sample has no FL→NY tuple (the open-world case).
        let s = example_sample();
        let net = learn_parameters(
            &s,
            &aggregates(),
            10.0,
            vec![vec![], vec![], vec![AttrId(1)]],
            ParamSource::Both,
            &ParamOptions::default(),
        );
        let p = point_probability(&net, &[AttrId(1), AttrId(2)], &[0, 2]);
        let expected = 1.0 / 10.0;
        assert!(
            (p - expected).abs() < 0.03,
            "Pr(FL→NY) = {p}, aggregate says {expected}"
        );
    }

    #[test]
    fn marginalized_aggregate_constrains_partially_covered_factor() {
        // Structure: date → o_st. No aggregate covers (date, o_st) jointly,
        // but the (o_st, d_st) aggregate marginalizes onto o_st and must
        // still pin the o_st *marginal*: Σ_d Pr(d) θ_{o|d}.
        let s = example_sample();
        let net = learn_parameters(
            &s,
            &aggregates(),
            10.0,
            vec![vec![], vec![AttrId(0)], vec![]],
            ParamSource::Both,
            &ParamOptions::default(),
        );
        // Population o_st marginal: FL 3, NC 4, NY 3 → 0.3/0.4/0.3.
        let p_nc = point_probability(&net, &[AttrId(1)], &[1]);
        assert!((p_nc - 0.4).abs() < 0.02, "Pr(o=NC) = {p_nc}, want 0.4");
        // Only the coupled factor needs the loop.
        let reports = net.fit_reports();
        assert_eq!(reports.len(), 3);
        assert!(reports[1].outer_iterations > 0, "{reports:?}");
        assert!(reports[1].converged, "{reports:?}");
        for i in [0, 2] {
            assert_eq!(reports[i].outer_iterations, 0, "{reports:?}");
        }
    }

    #[test]
    fn covered_families_are_solved_exactly() {
        // o_st → d_st with the (o_st, d_st) aggregate: every cell the
        // population has is pinned, so θ_{d|o} = a(o, d) / a(o) exactly,
        // and the cells the population lacks get nothing.
        let s = example_sample();
        let p = example_population();
        let net = learn_parameters(
            &s,
            &aggregates(),
            10.0,
            vec![vec![], vec![], vec![AttrId(1)]],
            ParamSource::Both,
            &ParamOptions::default(),
        );
        assert!(net.fit_reports().iter().all(|r| r.outer_iterations == 0));
        let od = [AttrId(1), AttrId(2)];
        for o in 0..3u32 {
            let a_o = p.point_count(&[AttrId(1)], &[o]);
            for d in 0..3u32 {
                let want = p.point_count(&od, &[o, d]) / a_o;
                let got = net.cpt(AttrId(2)).prob(d, &[o]);
                assert!((got - want).abs() < 1e-12, "θ(d={d}|o={o}) = {got}, want {want}");
            }
        }
    }

    #[test]
    fn cpts_are_normalized_after_constrained_solve() {
        let s = example_sample();
        let net = learn_parameters(
            &s,
            &aggregates(),
            10.0,
            vec![vec![], vec![AttrId(0)], vec![AttrId(1)]],
            ParamSource::Both,
            &ParamOptions::default(),
        );
        assert!(net.is_normalized(1e-9));
    }
}
