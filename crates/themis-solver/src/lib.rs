//! # themis-solver
//!
//! Numeric substrate for Themis: all of the linear algebra and constrained
//! optimization the debiasing algorithms need, implemented from scratch so
//! the workspace has no heavyweight numeric dependencies.
//!
//! * [`matrix`] — dense row-major matrices and basic BLAS-level ops,
//! * [`mod@lstsq`] — Householder-QR least squares with a ridge fallback,
//! * [`mod@nnls`] — Lawson–Hanson non-negative least squares (used by the
//!   constrained linear-regression reweighter, §4.1.1 of the paper),
//! * [`simplex`] — Euclidean projection onto the probability simplex,
//! * [`constrained`] — maximum likelihood over products of simplices with
//!   linear equality constraints: a closed-form presolve for pinned cells,
//!   else an augmented-Lagrangian loop (used by the Bayesian-network
//!   parameter learner, §4.2.3 and §5.2).

#![forbid(unsafe_code)]

pub mod constrained;
pub mod lstsq;
pub mod matrix;
pub mod nnls;
pub mod simplex;

pub use constrained::{ConstrainedMle, LinearConstraint, MleReport};
pub use lstsq::lstsq;
pub use matrix::DenseMatrix;
pub use nnls::{nnls, NnlsReport};
pub use simplex::project_simplex;
