//! Ingestion of raw tabular data (CSV-style) into discrete relations.
//!
//! Real deployments hand Themis a file of mixed categorical and numeric
//! columns. This module infers a [`Schema`]: categorical columns become
//! label domains in first-appearance order sorted lexicographically, and
//! numeric columns are equi-width bucketized (§3 footnote 2). The paper's
//! prototype preprocesses datasets exactly this way ("we preprocess the
//! datasets to remove null values and bucketize the real-valued attributes
//! into equi-width buckets", §6.2).

use crate::bucketize::Bucketizer;
use crate::domain::Domain;
use crate::relation::Relation;
use crate::schema::{Attribute, Schema};
use std::fmt;

/// How one column should be ingested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ColumnSpec {
    /// Treat values as categorical labels.
    Categorical,
    /// Parse values as `f64` and bucketize into this many equi-width
    /// buckets.
    Numeric {
        /// Number of buckets.
        buckets: usize,
    },
}

/// Ingestion error.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The input had no data rows.
    Empty,
    /// A row had the wrong number of fields.
    RaggedRow {
        /// 0-based data-row index.
        row: usize,
        /// Fields found.
        found: usize,
        /// Fields expected (header width).
        expected: usize,
    },
    /// A numeric column contained an unparsable value.
    BadNumber {
        /// Column name.
        column: String,
        /// Offending text.
        value: String,
    },
    /// A numeric column was constant, so equi-width bucketization is
    /// degenerate.
    ConstantNumeric {
        /// Column name.
        column: String,
    },
    /// A row contained a null/empty field (the paper drops such rows; we
    /// report them so callers can decide — [`ingest_csv`] drops them).
    SpecMismatch {
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Empty => write!(f, "no data rows"),
            IngestError::RaggedRow { row, found, expected } => {
                write!(f, "row {row}: {found} fields, expected {expected}")
            }
            IngestError::BadNumber { column, value } => {
                write!(f, "column {column}: cannot parse {value:?} as a number")
            }
            IngestError::ConstantNumeric { column } => {
                write!(f, "column {column}: constant numeric column cannot be bucketized")
            }
            IngestError::SpecMismatch { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Result of an ingestion: the relation plus bookkeeping.
#[derive(Debug, Clone)]
pub struct Ingested {
    /// The discrete relation (weights all 1).
    pub relation: Relation,
    /// Rows dropped because they contained empty/null fields.
    pub dropped_nulls: usize,
    /// The bucketizers used for numeric columns (by column index), for
    /// translating query constants later.
    pub bucketizers: Vec<Option<Bucketizer>>,
}

/// Parse one CSV line (no quoting — Themis inputs are machine-generated
/// extracts; a full RFC-4180 reader is out of scope).
fn split_line(line: &str) -> Vec<&str> {
    line.split(',').map(str::trim).collect()
}

/// Ingest CSV text: first line is the header, one [`ColumnSpec`] per
/// column. Rows containing empty fields are dropped (null removal, §6.2).
pub fn ingest_csv(text: &str, specs: &[ColumnSpec]) -> Result<Ingested, IngestError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<String> = match lines.next() {
        Some(h) => split_line(h).into_iter().map(str::to_string).collect(),
        None => return Err(IngestError::Empty),
    };
    if header.len() != specs.len() {
        return Err(IngestError::SpecMismatch {
            message: format!(
                "{} columns in header but {} specs",
                header.len(),
                specs.len()
            ),
        });
    }

    // First pass: collect fields, dropping null rows.
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut dropped_nulls = 0usize;
    for (i, line) in lines.enumerate() {
        let fields = split_line(line);
        if fields.len() != header.len() {
            return Err(IngestError::RaggedRow {
                row: i,
                found: fields.len(),
                expected: header.len(),
            });
        }
        if fields.iter().any(|f| f.is_empty()) {
            dropped_nulls += 1;
            continue;
        }
        rows.push(fields.into_iter().map(str::to_string).collect());
    }
    if rows.is_empty() {
        return Err(IngestError::Empty);
    }

    // Second pass: build domains / bucketizers per column.
    let mut domains: Vec<Domain> = Vec::with_capacity(specs.len());
    let mut bucketizers: Vec<Option<Bucketizer>> = Vec::with_capacity(specs.len());
    for (c, spec) in specs.iter().enumerate() {
        match spec {
            ColumnSpec::Categorical => {
                let mut labels: Vec<String> = rows.iter().map(|r| r[c].clone()).collect();
                labels.sort();
                labels.dedup();
                domains.push(Domain::labeled(header[c].clone(), labels));
                bucketizers.push(None);
            }
            ColumnSpec::Numeric { buckets } => {
                let mut values = Vec::with_capacity(rows.len());
                for r in &rows {
                    let v: f64 = r[c].parse().map_err(|_| IngestError::BadNumber {
                        column: header[c].clone(),
                        value: r[c].clone(),
                    })?;
                    values.push(v);
                }
                let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                if hi <= lo {
                    return Err(IngestError::ConstantNumeric {
                        column: header[c].clone(),
                    });
                }
                let b = Bucketizer::new(lo, hi, *buckets);
                domains.push(b.domain(header[c].clone()));
                bucketizers.push(Some(b));
            }
        }
    }

    let schema = Schema::new(
        header
            .iter()
            .zip(domains)
            .map(|(name, d)| Attribute::new(name.clone(), d))
            .collect(),
    );
    let mut relation = Relation::with_capacity(schema.clone(), rows.len());
    let mut encoded = vec![0u32; specs.len()];
    for r in &rows {
        for (c, spec) in specs.iter().enumerate() {
            encoded[c] = match spec {
                ColumnSpec::Categorical => schema
                    .attr(crate::schema::AttrId(c))
                    .domain()
                    .id_of(&r[c])
                    .ok_or_else(|| IngestError::SpecMismatch {
                        message: format!(
                            "label `{}` missing from the first-pass domain of column `{}`",
                            r[c], header[c]
                        ),
                    })?,
                ColumnSpec::Numeric { .. } => {
                    let v: f64 = r[c].parse().map_err(|_| IngestError::BadNumber {
                        column: header[c].clone(),
                        value: r[c].clone(),
                    })?;
                    bucketizers[c]
                        .as_ref()
                        .ok_or_else(|| IngestError::SpecMismatch {
                            message: format!("no bucketizer for numeric column `{}`", header[c]),
                        })?
                        .bucket(v)
                }
            };
        }
        relation.push_row(&encoded);
    }

    Ok(Ingested {
        relation,
        dropped_nulls,
        bucketizers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;

    const CSV: &str = "\
state,delay,month
CA,12.5,01
NY,3.0,02
CA,45.0,01
WA,30.0,03
";

    fn specs() -> Vec<ColumnSpec> {
        vec![
            ColumnSpec::Categorical,
            ColumnSpec::Numeric { buckets: 3 },
            ColumnSpec::Categorical,
        ]
    }

    #[test]
    fn ingests_mixed_columns() {
        let out = ingest_csv(CSV, &specs()).unwrap();
        let rel = &out.relation;
        assert_eq!(rel.len(), 4);
        assert_eq!(rel.schema().arity(), 3);
        // Categorical labels sorted: CA, NY, WA.
        let state = rel.schema().domain(AttrId(0));
        assert_eq!(state.labels(), &["CA", "NY", "WA"]);
        // Numeric column bucketized over [3, 45] into 3 buckets.
        let b = out.bucketizers[1].as_ref().unwrap();
        assert_eq!(b.buckets(), 3);
        assert_eq!(rel.value(0, AttrId(1)), b.bucket(12.5));
        assert_eq!(rel.value(2, AttrId(1)), 2); // 45 = max → last bucket
    }

    #[test]
    fn drops_null_rows() {
        let csv = "a,b\nx,1\n,2\ny,3\n";
        let out = ingest_csv(
            csv,
            &[ColumnSpec::Categorical, ColumnSpec::Numeric { buckets: 2 }],
        )
        .unwrap();
        assert_eq!(out.relation.len(), 2);
        assert_eq!(out.dropped_nulls, 1);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = ingest_csv("a,b\nx\n", &[ColumnSpec::Categorical; 2]).unwrap_err();
        assert!(matches!(err, IngestError::RaggedRow { row: 0, found: 1, expected: 2 }));
    }

    #[test]
    fn rejects_bad_numbers() {
        let err = ingest_csv(
            "a,b\nx,notanumber\n",
            &[ColumnSpec::Categorical, ColumnSpec::Numeric { buckets: 2 }],
        )
        .unwrap_err();
        assert!(matches!(err, IngestError::BadNumber { .. }));
    }

    #[test]
    fn rejects_constant_numeric() {
        let err = ingest_csv(
            "a,b\nx,5\ny,5\n",
            &[ColumnSpec::Categorical, ColumnSpec::Numeric { buckets: 2 }],
        )
        .unwrap_err();
        assert!(matches!(err, IngestError::ConstantNumeric { .. }));
    }

    #[test]
    fn empty_input_and_spec_mismatch() {
        assert!(matches!(
            ingest_csv("", &[ColumnSpec::Categorical]),
            Err(IngestError::Empty)
        ));
        assert!(matches!(
            ingest_csv("a,b\nx,y\n", &[ColumnSpec::Categorical]),
            Err(IngestError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn categorical_shortcut() {
        let out = ingest_csv("a,b\nx,p\ny,q\nx,p\n", &[ColumnSpec::Categorical; 2]).unwrap();
        assert_eq!(out.relation.len(), 3);
        assert_eq!(out.relation.group_row_counts(&[AttrId(0)]).len(), 2);
    }

    #[test]
    fn whitespace_is_trimmed() {
        let out = ingest_csv("a , b\n x , y \n", &[ColumnSpec::Categorical; 2]).unwrap();
        assert_eq!(out.relation.schema().attr(AttrId(0)).name(), "a");
        assert_eq!(out.relation.schema().domain(AttrId(0)).label(0), "x");
    }
}
