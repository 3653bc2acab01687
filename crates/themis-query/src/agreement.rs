//! Agreement across relations that share one schema: the engine half of
//! the §4.2.4 replicate consensus.
//!
//! A BN-backed answer runs the same query on each of the K forward-sample
//! replicates and keeps only the groups *every* replicate produces, with
//! their values averaged over K. The replicates share one schema, so the
//! query is compiled once ([`Agreement::compile`]) and every replicate is
//! scanned by that one plan ([`Agreement::fold`]). Groups never leave the
//! engine as labels: a replicate's merged accumulator block is intersected
//! with the groups agreed so far by **slot code** (the packed key of the
//! dense layout, or the `u32` key of the sparse one), and the survivors'
//! output values are summed in fold order. Only the groups that survive
//! every replicate are labelled, once, by [`Agreement::finish`].
//!
//! The arithmetic is exactly the label-space consensus's: each replicate's
//! per-group output value (AVG already divided by the group weight) is
//! what the morsel engine's result would hold, the running total starts at
//! the first replicate's value and adds each later replicate's in order,
//! and `finish` divides by the number of relations folded. Domain labels
//! are unique, so agreeing on codes is agreeing on labels.

use crate::catalog::Catalog;
use crate::exec::ExecError;
use crate::exec_parallel::{Compiled, EngineOptions, GroupBlock, GroupSpec, KeyCodec};
use crate::guard::QueryGuard;
use crate::value::{cmp_group_prefix, QueryResult, Value};
use std::sync::Arc;
use themis_data::{Relation, Schema};
use themis_sql::Query;

/// A grouped query folded over relations that share one schema, keeping
/// the groups all of them produce. Opaque: groups stay slot codes with
/// their running totals until [`Agreement::finish`] labels them.
pub struct Agreement {
    compiled: Compiled,
    /// The schema the plan was compiled against; every folded relation
    /// must carry it.
    schema: Arc<Schema>,
    /// FROM binding names, one per table: every table binds to the
    /// relation being folded (a self-join joins it with itself).
    tables: Vec<String>,
    /// `None` until the first relation is folded.
    agreed: Option<Agreed>,
    /// Relations folded so far (the divisor of the averages).
    folded: usize,
}

/// The groups every relation folded so far produced, in the first
/// relation's slot order, with `n_aggs` running totals each.
struct Agreed {
    codes: Codes,
    totals: Vec<f64>,
}

/// Group codes in the plan's key layout.
enum Codes {
    /// Packed dense slot indices.
    Dense(Vec<usize>),
    /// Sparse keys: the group's domain ids, in grouping-column order.
    Sparse(Vec<Vec<u32>>),
}

impl Agreement {
    /// Compile `query` once against `template`'s schema, binding every FROM
    /// table to it (so planner errors are the ones the engine reports for
    /// the template). `ORDER BY` and `LIMIT` are not applied: agreement is
    /// over complete group sets, and the caller orders the merged answer.
    pub fn compile(query: &Query, template: &Arc<Relation>) -> Result<Agreement, ExecError> {
        let mut catalog = Catalog::new();
        for table in &query.from {
            catalog.register(table.name.clone(), Arc::clone(template));
        }
        let (compiled, bindings) = Compiled::plan(&catalog, query)?;
        let tables = bindings.iter().map(|(name, _)| name.to_string()).collect();
        Ok(Agreement {
            compiled,
            schema: Arc::clone(template.schema()),
            tables,
            agreed: None,
            folded: 0,
        })
    }

    /// Scan `relation` on the morsel engine and keep only the groups it
    /// shares with every relation folded before, adding its output values
    /// to theirs.
    ///
    /// Each fold is one engine execution: it arms its own [`QueryGuard`]
    /// from `opts` (its own deadline, row budget and group budget, and
    /// fault-plan morsels numbered from 0), opens an `execute_parallel`
    /// span with the engine's counters and `groups_out`, and fails with the
    /// error [`crate::execute_parallel`] would return for the same scan.
    pub fn fold(&mut self, relation: &Relation, opts: &EngineOptions) -> Result<(), ExecError> {
        if !Arc::ptr_eq(relation.schema(), &self.schema) && **relation.schema() != *self.schema {
            return Err(ExecError::Unsupported(
                "agreement over relations with different schemas".into(),
            ));
        }
        let guard = QueryGuard::arm(opts);
        let _span = opts.trace.span("execute_parallel");
        let bindings: Vec<(&str, &Relation)> = self
            .tables
            .iter()
            .map(|name| (name.as_str(), relation))
            .collect();
        let block = self.compiled.run(&bindings, opts, &guard)?;
        let spec = &self.compiled.spec;
        let groups = spec.group_count(&block);
        guard.check_groups(groups)?;
        opts.trace.add("groups_out", groups as u64);
        self.folded += 1;
        match &mut self.agreed {
            None => self.agreed = Some(Agreed::first(spec, block)),
            Some(agreed) => agreed.intersect(spec, &block),
        }
        Ok(())
    }

    /// The agreed groups as a result sorted by group labels: one row per
    /// group every folded relation produced, each value its total divided
    /// by the number of relations folded. Empty when nothing was folded.
    pub fn finish(self) -> QueryResult {
        let spec = &self.compiled.spec;
        let select = &spec.select;
        let n = spec.n_aggs();
        let k = self.folded as f64;
        let label_row = |ids: &[u32], totals: &[f64]| -> Vec<Value> {
            let mut row: Vec<Value> = select
                .group_cols
                .iter()
                .zip(ids)
                .map(|(r, &id)| Value::Str(self.schema.domain(r.attr).label(id).to_string()))
                .collect();
            row.extend(totals.iter().map(|t| Value::Num(t / k)));
            row
        };
        let mut rows: Vec<Vec<Value>> = match &self.agreed {
            None => Vec::new(),
            Some(Agreed {
                codes: Codes::Dense(slots),
                totals,
            }) => slots
                .iter()
                .zip(totals.chunks_exact(n))
                .map(|(&slot, t)| label_row(&spec.decode(slot), t))
                .collect(),
            Some(Agreed {
                codes: Codes::Sparse(keys),
                totals,
            }) => keys
                .iter()
                .zip(totals.chunks_exact(n))
                .map(|(key, t)| label_row(key, t))
                .collect(),
        };
        let arity = select.group_cols.len();
        rows.sort_by(|a, b| cmp_group_prefix(a, b, arity));
        let mut columns = select.group_names.clone();
        columns.extend(select.agg_names.iter().cloned());
        QueryResult {
            columns,
            rows,
            group_arity: arity,
        }
    }
}

impl Agreed {
    /// The first relation's groups and output values.
    fn first(spec: &GroupSpec, block: GroupBlock) -> Agreed {
        let n = spec.n_aggs();
        let slots: Vec<usize> = match spec.codec {
            KeyCodec::Dense { .. } => (0..block.occupied.len())
                .filter(|&s| block.occupied[s])
                .collect(),
            KeyCodec::Sparse => (0..block.keys.len()).collect(),
        };
        let mut totals = Vec::with_capacity(slots.len() * n);
        for &slot in &slots {
            totals.extend((0..n).map(|a| spec.value(&block, slot, a)));
        }
        let codes = match spec.codec {
            KeyCodec::Dense { .. } => Codes::Dense(slots),
            KeyCodec::Sparse => Codes::Sparse(block.keys),
        };
        Agreed { codes, totals }
    }

    /// Keep the groups `block` also holds, in order, adding its values.
    fn intersect(&mut self, spec: &GroupSpec, block: &GroupBlock) {
        let n = spec.n_aggs();
        let totals = &mut self.totals;
        let mut kept = 0;
        // Moves group `i`'s totals to position `kept`, adding this
        // relation's values: each group's totals add up in fold order.
        let mut carry = |i: usize, kept: usize, slot: usize| {
            for a in 0..n {
                totals[kept * n + a] = totals[i * n + a] + spec.value(block, slot, a);
            }
        };
        match &mut self.codes {
            Codes::Dense(slots) => {
                for i in 0..slots.len() {
                    let slot = slots[i];
                    if block.occupied[slot] {
                        slots[kept] = slot;
                        carry(i, kept, slot);
                        kept += 1;
                    }
                }
                slots.truncate(kept);
            }
            Codes::Sparse(keys) => {
                for i in 0..keys.len() {
                    if let Some(&slot) = block.map.get(&keys[i]) {
                        keys.swap(kept, i);
                        carry(i, kept, slot);
                        kept += 1;
                    }
                }
                keys.truncate(kept);
            }
        }
        self.totals.truncate(kept * n);
    }
}
