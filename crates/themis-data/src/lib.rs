//! # themis-data
//!
//! Data model substrate for the Themis open-world database system.
//!
//! Themis (Orr, Balazinska, Suciu — SIGMOD 2020) assumes a well-defined but
//! unavailable population `P` with `m` attributes whose active domains are
//! discrete and ordered (continuous attributes are bucketized). This crate
//! provides:
//!
//! * [`Domain`] / [`Schema`] — discrete ordered active domains and relation
//!   schemas,
//! * [`Relation`] — a weighted columnar relation (every tuple carries a
//!   weight `w(t)`, the number of population tuples it represents), its
//!   codes stored one byte each where the domain fits ([`Column`]),
//! * [`bucketize`] — equi-width bucketization of real-valued attributes,
//! * [`sampling`] — biased sampling mechanisms reproducing the paper's
//!   sample designs (uniform, 90%-biased, 100%-biased selections),
//! * [`datasets`] — synthetic population generators standing in for the
//!   paper's Flights, IMDB, and CHILD datasets (see DESIGN.md §2 for the
//!   substitution rationale).

#![forbid(unsafe_code)]

pub mod bucketize;
pub mod datasets;
pub mod domain;
pub mod ingest;
pub mod paper_example;
pub mod relation;
pub mod sampling;
pub mod schema;

pub use domain::Domain;
pub use relation::{storage_bytes, Code, Column, GroupKey, Relation};
pub use schema::{AttrId, Attribute, Schema};
