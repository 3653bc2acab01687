//! Named relation catalog.
//!
//! Tables are stored behind [`Arc`] so registering (or re-binding) a
//! relation is a pointer bump, never a deep clone: a session can bind the
//! same reweighted sample — or the same cached BN replicate — under any
//! number of table names per query for free.

use std::collections::HashMap;
use std::sync::Arc;
use themis_data::Relation;

/// A catalog mapping table names to shared, weighted relations.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Relation>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table.
    ///
    /// Accepts either an owned [`Relation`] (moved into a fresh `Arc`) or an
    /// existing `Arc<Relation>` (reference-count bump only). Neither path
    /// copies row data.
    pub fn register(&mut self, name: impl Into<String>, relation: impl Into<Arc<Relation>>) {
        self.tables.insert(name.into(), relation.into());
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.tables.get(name).map(|r| r.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_data::paper_example::example_sample;

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        c.register("flights", example_sample());
        assert!(c.get("flights").is_some());
        assert!(c.get("missing").is_none());
    }

    #[test]
    fn register_replaces() {
        let mut c = Catalog::new();
        c.register("t", example_sample());
        let mut r2 = example_sample();
        r2.fill_weights(9.0);
        c.register("t", r2);
        assert_eq!(c.get("t").unwrap().weights()[0], 9.0);
    }

    #[test]
    fn register_is_a_pointer_bump_not_a_clone() {
        let shared = Arc::new(example_sample());
        let mut c = Catalog::new();
        c.register("a", Arc::clone(&shared));
        c.register("b", Arc::clone(&shared));
        // Two bindings + the local handle: three refs, one allocation.
        assert_eq!(Arc::strong_count(&shared), 3);
        assert!(std::ptr::eq(c.get("a").unwrap(), shared.as_ref()));
        assert!(std::ptr::eq(c.get("b").unwrap(), shared.as_ref()));
        // Dropping the catalog releases exactly the two bindings.
        drop(c);
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
