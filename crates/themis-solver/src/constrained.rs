//! Constrained maximum likelihood over products of probability simplices.
//!
//! This is the optimization kernel behind Themis' Bayesian-network
//! parameter learning (Eq. 2 of the paper, simplified per §5.2). After the
//! per-factor simplification, learning the conditional probability table of
//! one node reduces to:
//!
//! ```text
//! minimize   −Σ_k counts_k · log θ_k
//! subject to each block of θ lies on the probability simplex
//!            Σ_k a_{j,k} θ_k = b_j   for each aggregate constraint j
//! ```
//!
//! where a *block* is the CPT column for one parent configuration.
//!
//! **Presolve.** [`ConstrainedMle::solve`] first solves a relaxation in
//! closed form: keep only the *single-term* constraints `a·θ_i = b`, which
//! pin `θ_i = b / a`, and give the rest of each block's mass to its free
//! cells in proportion to their counts (uniformly when they have none).
//! That is the relaxation's exact optimum. If it also satisfies every
//! constraint of the full problem — the coupled, multi-term ones included —
//! within the feasibility tolerance (`1e-6` on `‖g‖∞`), it is the full
//! problem's optimum too: the relaxation's feasible set contains the full
//! problem's, so its optimum bounds the full optimum from above, and a
//! feasible point attaining the bound is optimal. The presolve then returns
//! it with a zero-iteration [`MleReport`]. With no constraints this is the
//! classic normalized-count MLE. In Themis' BN learner every factor whose
//! family one aggregate covers whole (and every root pinned by its
//! marginal) takes this path, so its CPT is exact and depends only on the
//! aggregates.
//!
//! **Loop.** When the presolve's point breaks a constraint — a coupled
//! constraint the pins do not already satisfy (an aggregate that covers the
//! child but only some of its parents), conflicting duplicate pins, or pins
//! summing past 1 — we run an augmented-Lagrangian outer loop around a
//! mirror-descent inner loop; degenerate blocks fall back to the per-block
//! [`crate::simplex::project_simplex`].

use crate::simplex::project_simplex;

/// One linear equality constraint `Σ terms.coef · θ[terms.idx] = rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearConstraint {
    /// `(variable index, coefficient)` pairs; indices are into the flat θ.
    pub terms: Vec<(usize, f64)>,
    /// Right-hand side.
    pub rhs: f64,
}

impl LinearConstraint {
    /// Evaluate the residual `a·θ − b`.
    pub fn residual(&self, theta: &[f64]) -> f64 {
        self.terms.iter().map(|&(i, c)| c * theta[i]).sum::<f64>() - self.rhs
    }
}

/// Solver report.
#[derive(Debug, Clone, PartialEq)]
pub struct MleReport {
    /// Outer (multiplier) iterations.
    pub outer_iterations: usize,
    /// Total inner gradient steps.
    pub inner_iterations: usize,
    /// Final `‖g‖∞` over the constraints.
    pub feasibility: f64,
    /// Whether the feasibility tolerance was met.
    pub converged: bool,
}

/// A constrained MLE problem over consecutive simplex blocks.
#[derive(Debug, Clone)]
pub struct ConstrainedMle {
    /// Sizes of the consecutive simplex blocks; `Σ block_sizes` is the
    /// number of variables.
    pub block_sizes: Vec<usize>,
    /// Non-negative observation counts aligned with θ.
    pub counts: Vec<f64>,
    /// Linear equality constraints.
    pub constraints: Vec<LinearConstraint>,
}

/// Feasibility tolerance on `‖g‖∞`.
const TOL: f64 = 1e-6;
/// Maximum outer (multiplier) iterations of the augmented-Lagrangian loop.
const MAX_OUTER: usize = 40;
/// Maximum inner mirror-descent steps per outer iteration.
const MAX_INNER: usize = 300;
/// Initial penalty parameter ρ.
const RHO: f64 = 10.0;
/// Floor used inside `log` to keep the objective finite at the boundary.
const THETA_FLOOR: f64 = 1e-12;

impl ConstrainedMle {
    /// Build a problem.
    pub fn new(
        block_sizes: Vec<usize>,
        counts: Vec<f64>,
        constraints: Vec<LinearConstraint>,
    ) -> Self {
        let total: usize = block_sizes.iter().sum();
        assert_eq!(counts.len(), total, "counts must align with blocks");
        assert!(
            counts.iter().all(|&c| c >= 0.0 && c.is_finite()),
            "counts must be finite and non-negative"
        );
        for c in &constraints {
            for &(i, _) in &c.terms {
                assert!(i < total, "constraint index {i} out of range");
            }
        }
        Self {
            block_sizes,
            counts,
            constraints,
        }
    }

    /// Solve the problem. The returned θ lies on the product of simplices;
    /// when the constraints are feasible the report's `converged` is true
    /// and `feasibility ≤ 1e-6`.
    ///
    /// The closed-form presolve (see the [module docs](self)) answers
    /// first; only when its point breaks a constraint does the
    /// augmented-Lagrangian loop run.
    pub fn solve(&self) -> (Vec<f64>, MleReport) {
        self.presolve()
            .unwrap_or_else(|| self.augmented_lagrangian(TOL))
    }

    /// Closed-form optimum of the relaxation that keeps only the
    /// single-term constraints (see the module docs), returned when it
    /// satisfies every constraint of the full problem within the feasibility
    /// tolerance.
    ///
    /// The first pin of a cell wins; a conflicting duplicate fails the final
    /// check. A block whose pins sum past 1, or short of 1 with no free cell
    /// to take the rest, is scaled back onto the simplex, and the check
    /// decides whether its pins survived that.
    fn presolve(&self) -> Option<(Vec<f64>, MleReport)> {
        let mut pins: Vec<Option<f64>> = vec![None; self.counts.len()];
        for c in &self.constraints {
            if let [(i, coef)] = c.terms[..] {
                if coef != 0.0 && pins[i].is_none() {
                    pins[i] = Some(c.rhs / coef);
                }
            }
        }
        let mut theta = vec![0.0; self.counts.len()];
        let mut offset = 0;
        for &size in &self.block_sizes {
            let block = offset..offset + size;
            offset += size;
            let mut pinned = 0.0;
            let mut free = 0usize;
            let mut free_counts = 0.0;
            for i in block.clone() {
                match pins[i] {
                    Some(p) if p.is_nan() || p < 0.0 => return None,
                    Some(p) => {
                        theta[i] = p;
                        pinned += p;
                    }
                    None => {
                        free += 1;
                        free_counts += self.counts[i];
                    }
                }
            }
            let rest = (1.0 - pinned).max(0.0);
            for i in block.clone() {
                if pins[i].is_none() {
                    theta[i] = if free_counts > 0.0 {
                        rest * self.counts[i] / free_counts
                    } else {
                        rest / free as f64
                    };
                }
            }
            if pinned > 1.0 || (free == 0 && pinned != 1.0) {
                if pinned <= 0.0 {
                    return None;
                }
                theta[block].iter_mut().for_each(|t| *t /= pinned);
            }
        }
        let mut feasibility = 0.0f64;
        for c in &self.constraints {
            let r = c.residual(&theta).abs();
            if r.is_nan() || r > TOL {
                return None;
            }
            feasibility = feasibility.max(r);
        }
        Some((
            theta,
            MleReport {
                outer_iterations: 0,
                inner_iterations: 0,
                feasibility,
                converged: true,
            },
        ))
    }

    /// The augmented-Lagrangian loop, from the smoothed MLE, until every
    /// constraint holds within `tol`.
    fn augmented_lagrangian(&self, tol: f64) -> (Vec<f64>, MleReport) {
        let mut theta = self.smoothed_mle();
        // Normalize counts so gradient magnitudes are scale free.
        let total_count: f64 = self.counts.iter().sum::<f64>().max(1.0);
        let weights: Vec<f64> = self.counts.iter().map(|c| c / total_count).collect();

        let m = self.constraints.len();
        let mut lambda = vec![0.0; m];
        let mut rho = RHO;
        let mut inner_total = 0;
        let mut feas = f64::INFINITY;

        for outer in 0..MAX_OUTER {
            inner_total += self.minimize_inner(&mut theta, &weights, &lambda, rho);
            let g: Vec<f64> = self
                .constraints
                .iter()
                .map(|c| c.residual(&theta))
                .collect();
            let new_feas = g.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
            if new_feas < tol {
                return (
                    theta,
                    MleReport {
                        outer_iterations: outer + 1,
                        inner_iterations: inner_total,
                        feasibility: new_feas,
                        converged: true,
                    },
                );
            }
            for (l, &gi) in lambda.iter_mut().zip(&g) {
                *l += rho * gi;
            }
            if new_feas > 0.5 * feas {
                rho = (rho * 4.0).min(1e8);
            }
            feas = new_feas;
        }
        (
            theta,
            MleReport {
                outer_iterations: MAX_OUTER,
                inner_iterations: inner_total,
                feasibility: feas,
                converged: feas < tol,
            },
        )
    }

    /// Additive-smoothed per-block MLE used as the starting point (strictly
    /// positive).
    fn smoothed_mle(&self) -> Vec<f64> {
        let mut theta = Vec::with_capacity(self.counts.len());
        let mut offset = 0;
        for &size in &self.block_sizes {
            let c = &self.counts[offset..offset + size];
            let sum: f64 = c.iter().sum();
            for &ci in c {
                theta.push((ci + 1.0) / (sum + size as f64));
            }
            offset += size;
        }
        theta
    }

    /// Mirror-descent (multiplicative update) minimization of the augmented
    /// Lagrangian with fixed multipliers. The entropy geometry keeps every
    /// coordinate strictly positive, which is exactly what the
    /// log-likelihood objective wants. Returns the number of steps taken.
    fn minimize_inner(
        &self,
        theta: &mut Vec<f64>,
        weights: &[f64],
        lambda: &[f64],
        rho: f64,
    ) -> usize {
        let mut step = 0.5;
        let mut value = self.augmented(theta, weights, lambda, rho);
        let mut steps = 0;
        for _ in 0..MAX_INNER {
            steps += 1;
            let grad = self.augmented_grad(theta, weights, lambda, rho);
            // Backtracking line search over the mirror step
            // θ ← θ·exp(−η·g), renormalized per block.
            let mut improved = false;
            for _ in 0..40 {
                let mut cand = theta.clone();
                for (c, &g) in cand.iter_mut().zip(&grad) {
                    let e = (-step * g).clamp(-30.0, 30.0);
                    *c = (*c).max(THETA_FLOOR) * e.exp();
                }
                self.renormalize_blocks(&mut cand);
                let cand_value = self.augmented(&cand, weights, lambda, rho);
                if cand_value < value - 1e-14 * value.abs().max(1.0) {
                    *theta = cand;
                    value = cand_value;
                    improved = true;
                    step *= 1.5;
                    break;
                }
                step *= 0.5;
                if step < 1e-16 {
                    break;
                }
            }
            if !improved {
                break;
            }
        }
        steps
    }

    /// Augmented Lagrangian value.
    fn augmented(&self, theta: &[f64], weights: &[f64], lambda: &[f64], rho: f64) -> f64 {
        let mut v = 0.0;
        for (&w, &t) in weights.iter().zip(theta) {
            if w > 0.0 {
                v -= w * t.max(THETA_FLOOR).ln();
            }
        }
        for (c, &l) in self.constraints.iter().zip(lambda) {
            let g = c.residual(theta);
            v += l * g + 0.5 * rho * g * g;
        }
        v
    }

    /// Gradient of the augmented Lagrangian.
    fn augmented_grad(&self, theta: &[f64], weights: &[f64], lambda: &[f64], rho: f64) -> Vec<f64> {
        let mut grad = vec![0.0; theta.len()];
        for ((g, &w), &t) in grad.iter_mut().zip(weights).zip(theta) {
            if w > 0.0 {
                *g = -w / t.max(THETA_FLOOR);
            }
        }
        for (c, &l) in self.constraints.iter().zip(lambda) {
            let coef = l + rho * c.residual(theta);
            for &(i, a) in &c.terms {
                grad[i] += coef * a;
            }
        }
        grad
    }

    /// Renormalize each block to sum 1, projecting onto the simplex if the
    /// block has degenerated.
    fn renormalize_blocks(&self, theta: &mut [f64]) {
        let mut offset = 0;
        for &size in &self.block_sizes {
            let block = &mut theta[offset..offset + size];
            let sum: f64 = block.iter().sum();
            if sum > THETA_FLOOR && sum.is_finite() {
                block.iter_mut().for_each(|t| *t /= sum);
            } else {
                project_simplex(block);
            }
            offset += size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_blocks_on_simplex(theta: &[f64], blocks: &[usize]) {
        let mut offset = 0;
        for &size in blocks {
            let sum: f64 = theta[offset..offset + size].iter().sum();
            assert!((sum - 1.0).abs() < 1e-8, "block sum {sum}");
            assert!(theta[offset..offset + size].iter().all(|&t| t >= 0.0));
            offset += size;
        }
    }

    fn pin(i: usize, coef: f64, rhs: f64) -> LinearConstraint {
        LinearConstraint {
            terms: vec![(i, coef)],
            rhs,
        }
    }

    fn closed_form(report: &MleReport) -> bool {
        report.converged && report.outer_iterations == 0 && report.inner_iterations == 0
    }

    #[test]
    fn unconstrained_is_normalized_counts() {
        let p = ConstrainedMle::new(vec![3], vec![2.0, 6.0, 2.0], vec![]);
        let (theta, rep) = p.solve();
        assert!(rep.converged);
        assert!((theta[0] - 0.2).abs() < 1e-12);
        assert!((theta[1] - 0.6).abs() < 1e-12);
        assert!((theta[2] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn unconstrained_zero_block_is_uniformish() {
        let p = ConstrainedMle::new(vec![2, 2], vec![3.0, 1.0, 0.0, 0.0], vec![]);
        let (theta, _) = p.solve();
        assert!((theta[0] - 0.75).abs() < 1e-12);
        // Empty block falls back to the smoothed (uniform) estimate.
        assert!((theta[2] - 0.5).abs() < 1e-12);
        assert!((theta[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pinned_coordinate_redistributes_proportionally() {
        // maximize 4 log θ0 + 4 log θ1 + 2 log θ2 s.t. θ0 = 0.5.
        // Remaining mass 0.5 splits ∝ (4, 2) → (1/3, 1/6), in closed form.
        let p = ConstrainedMle::new(
            vec![3],
            vec![4.0, 4.0, 2.0],
            vec![LinearConstraint {
                terms: vec![(0, 1.0)],
                rhs: 0.5,
            }],
        );
        let (theta, rep) = p.solve();
        assert!(closed_form(&rep), "report: {rep:?}");
        assert_blocks_on_simplex(&theta, &[3]);
        assert!((theta[0] - 0.5).abs() < 1e-15, "{theta:?}");
        assert!((theta[1] - 1.0 / 3.0).abs() < 1e-15, "{theta:?}");
        assert!((theta[2] - 1.0 / 6.0).abs() < 1e-15, "{theta:?}");
    }

    #[test]
    fn cross_block_constraint_is_satisfied() {
        // Two 2-value blocks; constrain 0.5·θ0 + 0.5·θ2 = 0.7 (a marginal
        // constraint with equal ancestor mass on each config).
        let p = ConstrainedMle::new(
            vec![2, 2],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![LinearConstraint {
                terms: vec![(0, 0.5), (2, 0.5)],
                rhs: 0.7,
            }],
        );
        // The relaxation (no pins) is the normalized counts, 0.5
        // everywhere, which breaks the constraint: the loop must solve it.
        assert!(p.presolve().is_none());
        let (theta, rep) = p.solve();
        assert!(rep.converged && rep.outer_iterations > 0, "report: {rep:?}");
        assert_blocks_on_simplex(&theta, &[2, 2]);
        let lhs = 0.5 * theta[0] + 0.5 * theta[2];
        assert!((lhs - 0.7).abs() < 1e-5, "{theta:?}");
        // Symmetric problem: both blocks should move identically.
        assert!((theta[0] - theta[2]).abs() < 1e-4);
    }

    #[test]
    fn infeasible_constraint_reports_not_converged() {
        // θ0 = 1.5 is impossible on a simplex.
        let p = ConstrainedMle::new(
            vec![2],
            vec![1.0, 1.0],
            vec![LinearConstraint {
                terms: vec![(0, 1.0)],
                rhs: 1.5,
            }],
        );
        assert!(p.presolve().is_none());
        let (theta, rep) = p.solve();
        assert!(!rep.converged);
        assert_blocks_on_simplex(&theta, &[2]);
        // Best effort: θ0 pushed towards 1.
        assert!(theta[0] > 0.9);
        // Pins each below 1 that sum past it, conflicting duplicate pins:
        // no closed form, the loop runs and reports the infeasibility.
        for pins in [
            vec![pin(0, 1.0, 0.7), pin(1, 1.0, 0.6)],
            vec![pin(0, 1.0, 0.3), pin(0, 1.0, 0.4)],
        ] {
            let p = ConstrainedMle::new(vec![3], vec![1.0, 1.0, 1.0], pins);
            assert!(p.presolve().is_none());
            let (theta, rep) = p.solve();
            assert!(rep.outer_iterations > 0 && !rep.converged, "{rep:?}");
            assert_blocks_on_simplex(&theta, &[3]);
        }
        // Negative and non-finite pins have no closed form either.
        for rhs in [-0.1, f64::NAN, f64::INFINITY] {
            let p = ConstrainedMle::new(vec![2], vec![1.0, 1.0], vec![pin(0, 1.0, rhs)]);
            assert!(p.presolve().is_none(), "rhs {rhs}");
        }
    }

    #[test]
    fn zero_count_coordinate_can_receive_mass_from_constraint() {
        // The sample never saw value 1, but an aggregate says it has
        // probability 0.25 — the open-world case the BN handles.
        let p = ConstrainedMle::new(
            vec![2],
            vec![10.0, 0.0],
            vec![LinearConstraint {
                terms: vec![(1, 1.0)],
                rhs: 0.25,
            }],
        );
        let (theta, rep) = p.solve();
        assert!(rep.converged, "report: {rep:?}");
        assert!((theta[1] - 0.25).abs() < 1e-5);
        assert!((theta[0] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn presolve_returns_a_fully_pinned_point_exactly() {
        // The BN shape: Pr(parent = k)·θ_{v|k} = a(v, k)/n for every cell.
        let pp = [0.25, 0.75];
        let p = ConstrainedMle::new(
            vec![2, 2],
            vec![5.0, 1.0, 1.0, 9.0],
            vec![
                pin(0, pp[0], 0.05),
                pin(1, pp[0], 0.2),
                pin(2, pp[1], 0.375),
                pin(3, pp[1], 0.375),
            ],
        );
        let (theta, rep) = p.solve();
        assert!(closed_form(&rep), "{rep:?}");
        assert_eq!(theta, vec![0.2, 0.8, 0.5, 0.5]);
        assert!(rep.feasibility <= 1e-15, "{rep:?}");
    }

    #[test]
    fn presolve_spreads_the_remainder_uniformly_over_zero_count_cells() {
        let p = ConstrainedMle::new(
            vec![3, 2],
            vec![4.0, 0.0, 0.0, 0.0, 0.0],
            vec![pin(0, 1.0, 0.5)],
        );
        let (theta, rep) = p.solve();
        assert!(closed_form(&rep), "{rep:?}");
        assert_eq!(theta, vec![0.5, 0.25, 0.25, 0.5, 0.5]);
        // Zero-count cells beside a counted free cell get nothing.
        let p = ConstrainedMle::new(vec![3], vec![0.0, 2.0, 0.0], vec![pin(0, 1.0, 0.5)]);
        let (theta, rep) = p.solve();
        assert!(closed_form(&rep), "{rep:?}");
        assert_eq!(theta, vec![0.5, 0.5, 0.0]);
    }

    #[test]
    fn presolve_accepts_a_coupled_constraint_the_pins_satisfy() {
        // 0.5·θ0 + 0.5·θ2 = 0.7 follows from the pins θ0 = 0.5, θ2 = 0.9.
        let p = ConstrainedMle::new(
            vec![2, 2],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![
                pin(0, 1.0, 0.5),
                pin(2, 1.0, 0.9),
                LinearConstraint {
                    terms: vec![(0, 0.5), (2, 0.5)],
                    rhs: 0.7,
                },
            ],
        );
        let (theta, rep) = p.solve();
        assert!(closed_form(&rep), "{rep:?}");
        assert!((theta[3] - 0.1).abs() < 1e-15, "{theta:?}");
    }

    #[test]
    fn consistent_duplicate_pins_stay_closed_form() {
        // Two aggregates marginalizing onto one root pin its cells twice.
        let p = ConstrainedMle::new(
            vec![3],
            vec![1.0, 1.0, 1.0],
            vec![pin(0, 1.0, 0.3), pin(0, 0.5, 0.15)],
        );
        let (theta, rep) = p.solve();
        assert!(closed_form(&rep), "{rep:?}");
        assert_eq!(theta, vec![0.3, 0.35, 0.35]);
    }

    /// SplitMix64, so the differential test below is seeded without a
    /// dependency.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn presolve_agrees_with_the_loop_on_random_pinned_problems() {
        let mut rng = Mix(20261017);
        let mut compared = 0;
        for _ in 0..200 {
            let blocks: Vec<usize> = (0..1 + rng.below(3)).map(|_| 2 + rng.below(3)).collect();
            let mut counts = Vec::new();
            let mut constraints = Vec::new();
            for &size in &blocks {
                let offset = counts.len();
                // A target distribution; pin a strict subset of its cells
                // through random positive coefficients.
                let raw: Vec<f64> = (0..size).map(|_| 0.05 + rng.unit()).collect();
                let total: f64 = raw.iter().sum();
                for (j, r) in raw.iter().enumerate() {
                    counts.push(if rng.below(4) == 0 {
                        0.0
                    } else {
                        (1 + rng.below(20)) as f64
                    });
                    if j + 1 < size && rng.below(2) == 0 {
                        let coef = 0.2 + rng.unit();
                        constraints.push(pin(offset + j, coef, coef * r / total));
                    }
                }
            }
            let p = ConstrainedMle::new(blocks.clone(), counts, constraints);
            let (closed, rep) = p.solve();
            assert!(closed_form(&rep), "{rep:?}");
            // The loop's stopping rule bounds only feasibility; at the
            // default tolerance its free cells still sit up to ~5e-6 from
            // the optimum. Run it 100× tighter and it lands within `TOL`.
            let (looped, loop_rep) = p.augmented_lagrangian(TOL / 100.0);
            if !loop_rep.converged {
                continue;
            }
            compared += 1;
            for (a, b) in closed.iter().zip(&looped) {
                assert!((a - b).abs() <= TOL, "{closed:?} vs {looped:?}");
            }
        }
        assert!(
            compared >= 100,
            "the loop converged on only {compared} problems"
        );
    }
}
