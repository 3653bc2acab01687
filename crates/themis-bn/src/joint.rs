//! The *unsimplified* Eq. 2 solver — ablation only.
//!
//! Without the §5.2 simplification, each aggregate constraint couples the
//! parameters of every factor through a sum over `O(Π_{j∉J} N_j)` joint
//! assignments, and the constraints are nonlinear (products of parameters
//! across factors). The paper reports that experiments without the
//! simplification "did not finish in under 10 hours". This module implements
//! the naive formulation by full joint enumeration with a quadratic-penalty
//! method so the benchmark suite can demonstrate the blow-up on small
//! networks; it refuses inputs whose joint space exceeds a hard cap.

use crate::network::BayesianNetwork;
use themis_aggregates::AggregateSet;
use themis_data::{AttrId, Relation};

/// Hard cap on the joint-assignment space; beyond this the naive method is
/// hopeless (which is the point of the ablation).
pub const MAX_JOINT_CELLS: usize = 1 << 16;

/// Report from the joint solve.
#[derive(Debug, Clone, PartialEq)]
pub struct JointReport {
    /// Gradient/objective sweeps performed.
    pub iterations: usize,
    /// Joint assignments enumerated per constraint evaluation.
    pub joint_cells: usize,
    /// Final maximum constraint violation.
    pub feasibility: f64,
}

/// Learn all CPT parameters jointly with full nonlinear constraints (penalty
/// method + mirror descent over every factor simultaneously).
///
/// # Panics
/// Panics if the schema's joint space exceeds [`MAX_JOINT_CELLS`].
pub fn learn_parameters_joint(
    sample: &Relation,
    aggregates: &AggregateSet,
    population_size: f64,
    parents: Vec<Vec<AttrId>>,
    iterations: usize,
) -> (BayesianNetwork, JointReport) {
    let schema = sample.schema().clone();
    let joint_cells = schema.joint_cells();
    assert!(
        joint_cells <= MAX_JOINT_CELLS,
        "joint space {joint_cells} exceeds the naive solver's cap — \
         this is exactly why §5.2 exists"
    );

    // Start from the smoothed sample MLE.
    let mut net = crate::parameters::learn_parameters(
        sample,
        &AggregateSet::new(),
        population_size,
        parents,
        crate::parameters::ParamSource::SampleOnly,
        &crate::parameters::ParamOptions::default(),
    );

    let cards: Vec<usize> = schema
        .attr_ids()
        .map(|a| schema.domain(a).size())
        .collect();
    let arity = cards.len();

    // Precompute, per aggregate group, the set of joint assignments that
    // participate (consistency masks would be cheaper, but clarity wins in
    // an ablation).
    let mut constraint_targets: Vec<(Vec<AttrId>, Vec<u32>, f64)> = Vec::new();
    for agg in aggregates.iter() {
        for (key, c) in agg.groups() {
            constraint_targets.push((agg.attrs().to_vec(), key.clone(), c / population_size));
        }
    }

    let mut assignment = vec![0u32; arity];
    let decode = |flat: usize, assignment: &mut [u32], cards: &[usize]| {
        let mut rem = flat;
        for i in (0..cards.len()).rev() {
            assignment[i] = (rem % cards[i]) as u32;
            rem /= cards[i];
        }
    };

    let mu = 50.0;
    let mut step: f64 = 0.02;
    let mut feasibility = f64::INFINITY;
    let mut prev_feasibility = f64::INFINITY;
    for _ in 0..iterations {
        // Evaluate constraint residuals by full enumeration.
        let mut residuals = vec![0.0f64; constraint_targets.len()];
        for flat in 0..joint_cells {
            decode(flat, &mut assignment, &cards);
            let p = net.joint_prob(&assignment);
            if p == 0.0 {
                continue;
            }
            for (r, (attrs, key, _)) in residuals.iter_mut().zip(&constraint_targets) {
                if attrs.iter().zip(key).all(|(&a, &v)| assignment[a.0] == v) {
                    *r += p;
                }
            }
        }
        for (r, (_, _, target)) in residuals.iter_mut().zip(&constraint_targets) {
            *r -= target;
        }
        feasibility = residuals.iter().fold(0.0f64, |m, r| m.max(r.abs()));
        if feasibility < 1e-6 {
            break;
        }
        // Crude step control: back off when a sweep makes feasibility worse
        // (the multiplicative updates overshoot easily).
        if feasibility > prev_feasibility {
            step *= 0.5;
        } else {
            step = (step * 1.05).min(0.05);
        }
        prev_feasibility = feasibility;

        // Penalty-gradient step on every CPT entry (gradient of the squared
        // residual w.r.t. θ_{i,j,k} again needs a joint enumeration).
        let mut grads: Vec<Vec<f64>> = (0..arity)
            .map(|i| vec![0.0; net.cpt(AttrId(i)).table.len()])
            .collect();
        for flat in 0..joint_cells {
            decode(flat, &mut assignment, &cards);
            let p = net.joint_prob(&assignment);
            for (r, (attrs, key, _)) in residuals.iter().zip(&constraint_targets) {
                if !attrs.iter().zip(key).all(|(&a, &v)| assignment[a.0] == v) {
                    continue;
                }
                let coef = 2.0 * mu * r;
                for i in 0..arity {
                    let cpt = net.cpt(AttrId(i));
                    let pv: Vec<u32> = net.parents(AttrId(i)).iter().map(|&p| assignment[p.0]).collect();
                    let config = cpt.config_index(&pv);
                    let idx = config * cpt.card + assignment[i] as usize;
                    let theta = cpt.table[idx].max(1e-12);
                    // ∂(Π θ)/∂θ_i = p / θ_i.
                    grads[i][idx] += coef * p / theta;
                }
            }
        }
        for (i, grad) in grads.iter().enumerate() {
            let cpt = net.cpt_mut(AttrId(i));
            for (t, g) in cpt.table.iter_mut().zip(grad) {
                let e = (-step * g).clamp(-1.0, 1.0);
                *t = (*t).max(1e-12) * e.exp();
            }
            for config in 0..cpt.configs() {
                let row = cpt.row_mut(config);
                let sum: f64 = row.iter().sum();
                row.iter_mut().for_each(|p| *p /= sum);
            }
        }
    }
    // The per-factor reports describe the sample-only start, not this solve.
    net.set_fit_reports(Vec::new());

    (
        net,
        JointReport {
            iterations,
            joint_cells,
            feasibility,
        },
    )
}

/// Number of CPT parameters a joint solve touches per gradient sweep —
/// used by the ablation bench to report work.
pub fn joint_work(net: &BayesianNetwork, aggregates: &AggregateSet) -> usize {
    net.schema().joint_cells() * aggregates.total_groups()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::point_probability;
    use themis_aggregates::AggregateResult;
    use themis_data::paper_example::{example_population, example_sample};

    #[test]
    fn joint_solver_moves_toward_constraints() {
        let p = example_population();
        let s = example_sample();
        let set = AggregateSet::from_results(vec![AggregateResult::compute(&p, &[AttrId(0)])]);
        let (net, report) = learn_parameters_joint(&s, &set, 10.0, vec![vec![], vec![], vec![]], 200);
        // Sample says Pr(date=01) = 0.75; aggregate says 0.5.
        let prob = point_probability(&net, &[AttrId(0)], &[0]);
        assert!(
            (prob - 0.5).abs() < 0.05,
            "penalty method should approach 0.5, got {prob} ({report:?})"
        );
    }

    #[test]
    fn work_scales_with_joint_cells() {
        let p = example_population();
        let s = example_sample();
        let set = AggregateSet::from_results(vec![
            AggregateResult::compute(&p, &[AttrId(1), AttrId(2)]),
        ]);
        let (net, report) = learn_parameters_joint(&s, &set, 10.0, vec![vec![], vec![], vec![]], 5);
        assert_eq!(report.joint_cells, 2 * 3 * 3);
        assert!(joint_work(&net, &set) >= report.joint_cells);
    }

    #[test]
    #[should_panic(expected = "exceeds the naive solver's cap")]
    fn refuses_large_joint_spaces() {
        use themis_data::{Attribute, Domain, Relation, Schema};
        let schema = Schema::new(
            (0..9)
                .map(|i| Attribute::new(format!("a{i}"), Domain::indexed(format!("a{i}"), 8)))
                .collect(),
        );
        let mut s = Relation::new(schema);
        s.push_row(&[0; 9]);
        learn_parameters_joint(&s, &AggregateSet::new(), 10.0, vec![vec![]; 9], 1);
    }
}
