//! Live-data metrics: one [`LiveStats`] bundle per session.
//!
//! All counters live in a dedicated `themis_obs::MetricsRegistry` under
//! the `live.` prefix, so a server can merge them into its own `stats`
//! export (both exports are name-sorted; the merge stays deterministic).
//! Handles are hoisted `Arc`s — the hot paths never touch the registry
//! mutex.

use std::sync::Arc;
use themis_obs::{Counter, Gauge, MetricValue, MetricsRegistry};

/// Metric handles for the answer cache and ingest path.
#[derive(Debug)]
pub struct LiveStats {
    registry: MetricsRegistry,
    /// Cache lookups served from a resident entry.
    pub cache_hits: Arc<Counter>,
    /// Cache lookups that missed and fell through to execution.
    pub cache_misses: Arc<Counter>,
    /// Queries that skipped the cache entirely (trace / fault / cancel).
    pub cache_bypasses: Arc<Counter>,
    /// Entries evicted by capacity pressure.
    pub cache_evictions: Arc<Counter>,
    /// Entries flushed by ingests.
    pub cache_invalidations: Arc<Counter>,
    /// Resident cache entries.
    pub cache_entries: Arc<Gauge>,
    /// Ingest batches applied.
    pub ingest_batches: Arc<Counter>,
    /// Rows appended across all batches.
    pub ingest_rows: Arc<Counter>,
    /// BN replicates re-simulated because parameters moved.
    pub replicates_resimulated: Arc<Counter>,
    /// BN replicates carried over because parameters did not move.
    pub replicates_kept: Arc<Counter>,
    /// Current world generation (0 = as built).
    pub generation: Arc<Gauge>,
}

impl Default for LiveStats {
    fn default() -> Self {
        LiveStats::new()
    }
}

impl LiveStats {
    /// A fresh zeroed bundle with every metric registered.
    pub fn new() -> LiveStats {
        let registry = MetricsRegistry::new();
        let cache_hits = registry.counter("live.cache.hits");
        let cache_misses = registry.counter("live.cache.misses");
        let cache_bypasses = registry.counter("live.cache.bypasses");
        let cache_evictions = registry.counter("live.cache.evictions");
        let cache_invalidations = registry.counter("live.cache.invalidations");
        let cache_entries = registry.gauge("live.cache.entries");
        let ingest_batches = registry.counter("live.ingest.batches");
        let ingest_rows = registry.counter("live.ingest.rows");
        let replicates_resimulated = registry.counter("live.ingest.replicates_resimulated");
        let replicates_kept = registry.counter("live.ingest.replicates_kept");
        let generation = registry.gauge("live.world.generation");
        LiveStats {
            registry,
            cache_hits,
            cache_misses,
            cache_bypasses,
            cache_evictions,
            cache_invalidations,
            cache_entries,
            ingest_batches,
            ingest_rows,
            replicates_resimulated,
            replicates_kept,
            generation,
        }
    }

    /// Snapshot every counter and gauge at once.
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot {
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_bypasses: self.cache_bypasses.get(),
            cache_evictions: self.cache_evictions.get(),
            cache_invalidations: self.cache_invalidations.get(),
            cache_entries: self.cache_entries.get(),
            ingest_batches: self.ingest_batches.get(),
            ingest_rows: self.ingest_rows.get(),
            replicates_resimulated: self.replicates_resimulated.get(),
            replicates_kept: self.replicates_kept.get(),
            generation: self.generation.get(),
        }
    }

    /// The `live.*` metrics, name-sorted (delegates to the registry).
    pub fn export(&self) -> Vec<(String, MetricValue)> {
        self.registry.export()
    }
}

/// A point-in-time copy of every live metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveSnapshot {
    /// Cache lookups served from a resident entry.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Queries that skipped the cache entirely.
    pub cache_bypasses: u64,
    /// Entries evicted by capacity pressure.
    pub cache_evictions: u64,
    /// Entries flushed by ingests.
    pub cache_invalidations: u64,
    /// Resident cache entries.
    pub cache_entries: u64,
    /// Ingest batches applied.
    pub ingest_batches: u64,
    /// Rows appended across all batches.
    pub ingest_rows: u64,
    /// Replicates re-simulated.
    pub replicates_resimulated: u64,
    /// Replicates carried over.
    pub replicates_kept: u64,
    /// Current world generation.
    pub generation: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_tracks_handles() {
        let stats = LiveStats::new();
        assert_eq!(stats.snapshot(), LiveSnapshot::default());
        stats.cache_hits.add(3);
        stats.cache_misses.inc();
        stats.cache_entries.set(2);
        stats.ingest_batches.inc();
        stats.ingest_rows.add(10);
        stats.generation.set(1);
        let snap = stats.snapshot();
        assert_eq!(snap.cache_hits, 3);
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_entries, 2);
        assert_eq!(snap.ingest_batches, 1);
        assert_eq!(snap.ingest_rows, 10);
        assert_eq!(snap.generation, 1);
    }

    #[test]
    fn export_is_name_sorted_and_complete() {
        let stats = LiveStats::new();
        let export = stats.export();
        let names: Vec<&str> = export.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 11);
        assert!(names.contains(&"live.cache.hits"));
        assert!(names.contains(&"live.world.generation"));
    }
}
