//! Data-plane helpers for streaming ingest.
//!
//! `ThemisSession::ingest` (in `themis-core`) grows the model, refits it
//! through the model's own fit (reweight, relearn), and swaps it in. The
//! pieces that need neither live here: validating and appending labeled
//! rows to a [`Relation`], and deciding whether a rebuilt Bayesian network
//! actually *moved* relative to the old one (the gate on replicate
//! re-simulation).

use themis_bn::BayesianNetwork;
use themis_data::{AttrId, Relation};

/// Why an ingest batch was rejected. The whole batch is validated before
/// any row is appended, so a failed ingest leaves the world untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// A row's value count doesn't match the schema arity.
    Arity {
        /// Zero-based index of the offending row within the batch.
        row: usize,
        /// Schema arity.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A value is not a label of its column's domain (the open-world model
    /// is closed per-domain: ingest grows rows, not domains).
    UnknownLabel {
        /// Zero-based index of the offending row within the batch.
        row: usize,
        /// Attribute name.
        column: String,
        /// The unrecognized label.
        label: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Arity { row, expected, got } => {
                write!(f, "ingest row {row}: expected {expected} values, got {got}")
            }
            IngestError::UnknownLabel { row, column, label } => write!(
                f,
                "ingest row {row}: unknown label '{label}' for column {column}"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// Encode `rows` (label strings, schema order) against `base`'s schema.
/// All-or-nothing: the first bad row fails the whole batch.
fn encode_rows(base: &Relation, rows: &[Vec<String>]) -> Result<Vec<Vec<u32>>, IngestError> {
    let schema = base.schema();
    let arity = schema.arity();
    let mut encoded = Vec::with_capacity(rows.len());
    for (row_idx, row) in rows.iter().enumerate() {
        if row.len() != arity {
            return Err(IngestError::Arity {
                row: row_idx,
                expected: arity,
                got: row.len(),
            });
        }
        let mut ids = Vec::with_capacity(arity);
        for (col, label) in row.iter().enumerate() {
            let domain = schema.domain(AttrId(col));
            match domain.id_of(label) {
                Some(id) => ids.push(id),
                None => {
                    return Err(IngestError::UnknownLabel {
                        row: row_idx,
                        column: domain.name().to_string(),
                        label: label.clone(),
                    })
                }
            }
        }
        encoded.push(ids);
    }
    Ok(encoded)
}

/// A new relation holding `base`'s rows followed by `rows` (validated
/// against the schema). Existing row order is preserved exactly — the
/// incremental-marginal path depends on appended rows having strictly
/// larger indices than every existing row. Weights on the result are
/// placeholders (the base's own for its rows, 1.0 for the new ones); the
/// caller recomputes and [`Relation::set_weights`]s them.
pub fn grow_relation(base: &Relation, rows: &[Vec<String>]) -> Result<Relation, IngestError> {
    let encoded = encode_rows(base, rows)?;
    let indices: Vec<usize> = (0..base.len()).collect();
    let mut grown = base.select_rows(&indices);
    for ids in &encoded {
        grown.push_row(ids);
    }
    Ok(grown)
}

/// Did the learned parameters move between `old` and `new`? Replicates are
/// simulated *from* the BN, so if nothing moved the old replicates are
/// byte-for-byte what a re-simulation would produce and can be carried
/// over unchanged.
///
/// "Moved" means: BN appeared or disappeared, the structure (parent sets)
/// changed, or any CPT differs. CPTs are compared exactly (`f64` equality)
/// because the relearn is deterministic — an unchanged weighted sample
/// reproduces bit-identical tables, and anything else must invalidate.
pub fn bn_parameters_moved(old: Option<&BayesianNetwork>, new: Option<&BayesianNetwork>) -> bool {
    match (old, new) {
        (None, None) => false,
        (Some(a), Some(b)) => {
            if a.arity() != b.arity() {
                return true;
            }
            (0..a.arity()).any(|i| {
                let node = AttrId(i);
                a.parents(node) != b.parents(node) || a.cpt(node) != b.cpt(node)
            })
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use themis_bn::Cpt;
    use themis_data::{Attribute, Domain, Relation, Schema};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Attribute::new("a", Domain::of("a", &["x", "y"])),
            Attribute::new("b", Domain::of("b", &["p", "q", "r"])),
        ])
    }

    fn base() -> Relation {
        let mut rel = Relation::new(schema());
        rel.push_row_labels(&["x", "p"]);
        rel.push_row_labels(&["y", "q"]);
        rel
    }

    #[test]
    fn grow_appends_in_order_with_unit_weights() {
        let rel = base();
        let grown = grow_relation(
            &rel,
            &[vec!["y".into(), "r".into()], vec!["x".into(), "q".into()]],
        )
        .expect("valid batch");
        assert_eq!(grown.len(), 4);
        assert_eq!(grown.row(0), rel.row(0));
        assert_eq!(grown.row(1), rel.row(1));
        assert_eq!(grown.row(2), vec![1, 2]);
        assert_eq!(grown.row(3), vec![0, 1]);
        assert!(grown.weights().iter().all(|&w| w == 1.0));
    }

    #[test]
    fn bad_rows_fail_the_whole_batch() {
        let rel = base();
        let arity = grow_relation(&rel, &[vec!["x".into()]]).err();
        assert_eq!(
            arity,
            Some(IngestError::Arity {
                row: 0,
                expected: 2,
                got: 1
            })
        );
        let label = grow_relation(
            &rel,
            &[
                vec!["x".into(), "p".into()],
                vec!["x".into(), "nope".into()],
            ],
        )
        .err();
        assert_eq!(
            label,
            Some(IngestError::UnknownLabel {
                row: 1,
                column: "b".into(),
                label: "nope".into()
            })
        );
    }

    #[test]
    fn empty_batch_reproduces_the_base() {
        let rel = base();
        let grown = grow_relation(&rel, &[]).expect("empty batch is valid");
        assert_eq!(grown.len(), rel.len());
        for i in 0..rel.len() {
            assert_eq!(grown.row(i), rel.row(i));
        }
    }

    #[test]
    fn parameters_moved_detects_structure_and_cpt_changes() {
        let s = schema();
        let disconnected = BayesianNetwork::disconnected(Arc::clone(&s));
        let same = BayesianNetwork::disconnected(Arc::clone(&s));
        assert!(!bn_parameters_moved(Some(&disconnected), Some(&same)));
        assert!(!bn_parameters_moved(None, None));
        assert!(bn_parameters_moved(None, Some(&disconnected)));
        assert!(bn_parameters_moved(Some(&disconnected), None));

        // Edge a -> b: structure change.
        let chained = BayesianNetwork::new(
            Arc::clone(&s),
            vec![vec![], vec![AttrId(0)]],
            vec![Cpt::uniform(2, vec![]), Cpt::uniform(3, vec![2])],
        );
        assert!(bn_parameters_moved(Some(&disconnected), Some(&chained)));

        // Same structure, one CPT entry nudged: parameter change.
        let mut nudged = BayesianNetwork::disconnected(Arc::clone(&s));
        nudged.cpt_mut(AttrId(0)).table[0] = 0.75;
        nudged.cpt_mut(AttrId(0)).table[1] = 0.25;
        assert!(bn_parameters_moved(Some(&disconnected), Some(&nudged)));
    }
}
