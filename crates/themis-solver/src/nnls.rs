//! Non-negative least squares via the Lawson–Hanson active-set method.
//!
//! Themis' linear-regression reweighter (§4.1.1) departs from standard
//! solving by constraining the coefficient vector β to be non-negative so
//! every sample tuple receives weight `w(t) = β · t^{0/1} ≥ 0`. This module
//! implements the classic Lawson–Hanson algorithm: grow a passive set of
//! unconstrained coordinates, solve the restricted least-squares
//! subproblem, and step back towards feasibility whenever the subproblem
//! goes negative.

use crate::lstsq::lstsq;
use crate::matrix::{norm_inf, DenseMatrix};

/// Convergence information from an NNLS solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NnlsReport {
    /// Outer iterations performed.
    pub iterations: usize,
    /// Final maximum dual value over the active set (KKT optimality gap;
    /// ≤ tolerance at optimality).
    pub optimality_gap: f64,
    /// Whether the solver converged before the iteration cap.
    pub converged: bool,
}

/// Maximum outer iterations, scaled by problem size.
fn max_iterations(n: usize) -> usize {
    3 * n.max(10)
}

/// Solve `min_x ‖Ax − b‖₂ subject to x ≥ 0`.
///
/// Returns the solution together with a convergence report.
///
/// # Panics
/// Panics if `b.len() != a.rows()`.
pub fn nnls(a: &DenseMatrix, b: &[f64]) -> (Vec<f64>, NnlsReport) {
    assert_eq!(b.len(), a.rows(), "rhs length mismatch");
    let n = a.cols();
    let tol = 1e-9 * norm_inf(b).max(1.0) * (a.rows().max(1) as f64).sqrt();

    let mut x = vec![0.0; n];
    // passive[i]: coordinate i is allowed to move freely.
    let mut passive = vec![false; n];
    let mut iterations = 0;
    let cap = max_iterations(n);

    loop {
        // Dual: w = Aᵀ(b − Ax). Optimality when w_i ≤ tol for all active i.
        let mut resid = b.to_vec();
        let ax = a.matvec(&x);
        for (r, axi) in resid.iter_mut().zip(ax) {
            *r -= axi;
        }
        let w = a.matvec_t(&resid);

        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if !passive[i] && w[i] > tol && best.is_none_or(|(_, bw)| w[i] > bw) {
                best = Some((i, w[i]));
            }
        }
        let gap = (0..n)
            .filter(|&i| !passive[i])
            .fold(0.0f64, |m, i| m.max(w[i]));

        let Some((enter, _)) = best else {
            return (
                x,
                NnlsReport {
                    iterations,
                    optimality_gap: gap,
                    converged: true,
                },
            );
        };
        if iterations >= cap {
            return (
                x,
                NnlsReport {
                    iterations,
                    optimality_gap: gap,
                    converged: false,
                },
            );
        }
        iterations += 1;
        passive[enter] = true;

        // Inner loop: solve the passive-set subproblem; if any passive
        // coordinate would go non-positive, interpolate back to the boundary
        // and demote the coordinates that hit zero.
        loop {
            let p_idx: Vec<usize> = (0..n).filter(|&i| passive[i]).collect();
            let ap = a.select_columns(&p_idx);
            let z = lstsq(&ap, b);

            if z.iter().all(|&zi| zi > tol.min(1e-12)) {
                for (&i, &zi) in p_idx.iter().zip(&z) {
                    x[i] = zi;
                }
                for i in 0..n {
                    if !passive[i] {
                        x[i] = 0.0;
                    }
                }
                break;
            }

            // Step length to the first boundary crossing among coordinates
            // headed negative.
            let mut alpha = f64::INFINITY;
            for (&i, &zi) in p_idx.iter().zip(&z) {
                if zi <= tol.min(1e-12) {
                    let denom = x[i] - zi;
                    if denom > 0.0 {
                        alpha = alpha.min(x[i] / denom);
                    } else {
                        alpha = 0.0;
                    }
                }
            }
            let alpha = alpha.clamp(0.0, 1.0);
            for (&i, &zi) in p_idx.iter().zip(&z) {
                x[i] += alpha * (zi - x[i]);
            }
            // Demote coordinates that reached (numerical) zero.
            let mut demoted = false;
            for &i in &p_idx {
                if passive[i] && x[i] <= tol.clamp(1e-15, 1e-12) {
                    x[i] = 0.0;
                    passive[i] = false;
                    demoted = true;
                }
            }
            if !demoted {
                // Numerical safety: force the entering variable out to avoid
                // cycling, then re-enter the outer loop.
                passive[enter] = false;
                x[enter] = 0.0;
                break;
            }
            if passive.iter().all(|&p| !p) {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_optimum_is_returned_when_nonnegative() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let (x, rep) = nnls(&a, &[1.0, 2.0, 3.0]);
        assert!(rep.converged);
        assert!((x[0] - 1.0).abs() < 1e-8);
        assert!((x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn clamps_negative_coordinates() {
        // Unconstrained solution is x = [-1]; NNLS must return 0.
        let a = DenseMatrix::from_rows(&[vec![1.0]]);
        let (x, rep) = nnls(&a, &[-1.0]);
        assert!(rep.converged);
        assert_eq!(x, vec![0.0]);
    }

    #[test]
    fn mixed_signs_partial_clamp() {
        // b prefers x0 large negative, x1 positive; x0 clamps to 0 and x1
        // absorbs the fit on its column.
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let (x, rep) = nnls(&a, &[-5.0, 4.0]);
        assert!(rep.converged);
        assert_eq!(x[0], 0.0);
        assert!((x[1] - 4.0).abs() < 1e-8);
    }

    #[test]
    fn kkt_conditions_hold() {
        let a = DenseMatrix::from_rows(&[
            vec![0.5, 2.0, 1.0],
            vec![2.0, 0.5, 1.0],
            vec![1.0, 1.0, 2.0],
            vec![2.0, 1.0, 0.0],
        ]);
        let b = vec![1.0, -1.0, 2.0, 0.5];
        let (x, rep) = nnls(&a, &b);
        assert!(rep.converged);
        assert!(x.iter().all(|&v| v >= 0.0));
        // KKT: gradient of 0.5‖Ax-b‖² is g = Aᵀ(Ax−b); g_i ≈ 0 where x_i>0,
        // g_i ≥ 0 where x_i = 0.
        let mut r = a.matvec(&x);
        for (ri, &bi) in r.iter_mut().zip(&b) {
            *ri -= bi;
        }
        let g = a.matvec_t(&r);
        for (i, (&xi, &gi)) in x.iter().zip(&g).enumerate() {
            if xi > 1e-10 {
                assert!(gi.abs() < 1e-6, "coordinate {i}: x={xi}, g={gi}");
            } else {
                assert!(gi > -1e-6, "coordinate {i}: active but g={gi} < 0");
            }
        }
    }

    #[test]
    fn handles_wide_zero_solution() {
        // b orthogonal-ish to all columns with negative correlation: all
        // coordinates stay at zero.
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![1.0, 2.0]]);
        let (x, rep) = nnls(&a, &[-1.0, -1.0]);
        assert!(rep.converged);
        assert_eq!(x, vec![0.0, 0.0]);
    }
}
