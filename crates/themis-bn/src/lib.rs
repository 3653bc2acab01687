//! # themis-bn
//!
//! Discrete Bayesian-network substrate for Themis (§4.2 of the paper).
//!
//! Themis cannot use off-the-shelf BN learners because the population is
//! unavailable: both the structure and the parameters must be learned from
//! the biased sample `S` *and* the population aggregates `Γ` together. This
//! crate provides:
//!
//! * [`network`] — DAGs with conditional probability tables,
//! * [`factor`] — discrete factors and the sum-product operations behind
//!   exact inference,
//! * [`inference`] — variable elimination for point-probability queries,
//! * [`score`] — decomposable BIC scoring against either data source,
//! * [`structure`] — the two-phase greedy hill climber of Alg. 2/3 (build
//!   from `Γ` first with support checks and edge locking, then from `S`),
//! * [`parameters`] — maximum-likelihood parameter learning with aggregate
//!   constraints (Eq. 2), simplified to per-factor linear constraints solved
//!   in topological order (§5.2),
//! * [`sampling`] — forward/logic sampling of the K replicates of §4.2.4,
//! * [`modes`] — the five structure/parameter source combinations evaluated
//!   in §6.6 (SS, SB, BS, AB, BB),
//! * [`joint`] — a deliberately naive *unsimplified* Eq. 2 solver used only
//!   to demonstrate why the §5.2 simplification is necessary.

#![forbid(unsafe_code)]

pub mod factor;
pub mod inference;
pub mod joint;
pub mod modes;
pub mod network;
pub mod parameters;
pub mod sampling;
pub mod score;
pub mod structure;

pub use inference::{conditional_probability, point_probability};
pub use modes::{learn, LearnMode, LearnOptions};
pub use network::{BayesianNetwork, Cpt};
pub use sampling::forward_sample;
pub use structure::{learn_structure, StructureOptions, StructureSource};
