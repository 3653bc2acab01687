//! The bounded answer cache: one map behind one lock, with exact LRU
//! eviction.
//!
//! Values are stored as `Arc<T>` — a hit hands back the *same* allocation
//! the populating run produced, so a cached answer is bit-identical to a
//! fresh execution by construction. The cache never transforms what it
//! stores.
//!
//! There is no per-table invalidation: a session serves its one relation
//! under every `FROM` name, so an ingest makes every entry stale, and the
//! session empties the cache with [`AnswerCache::clear`].
//!
//! ## Determinism
//!
//! Everything observable about the cache is deterministic for a fixed
//! request sequence (the wire goldens pin hit/miss/evict counts). Every
//! lookup and insert takes the next value of one counter, and an entry
//! keeps the value of its last hit or insert as its epoch. Epochs are
//! therefore unique, so the eviction victim — the minimum epoch, the least
//! recently used entry — is unique too, and the scan over the `HashMap`
//! cannot leak iteration order into *which* entry is evicted.
//!
//! Iteration order never reaches a result either way: the only values that
//! leave the cache are `Arc<T>` clones fetched by exact key.

use crate::fingerprint::Fingerprint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

struct Entry<T> {
    value: Arc<T>,
    /// Epoch of the last hit or insert; the eviction victim has the
    /// smallest.
    epoch: u64,
}

struct Inner<T> {
    entries: HashMap<String, Entry<T>>,
    /// The last epoch handed out.
    epoch: u64,
}

/// A bounded map from plan fingerprints to shared answers that evicts the
/// least recently used entry when full.
pub struct AnswerCache<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
}

impl<T> AnswerCache<T> {
    /// A cache holding at most `capacity` entries (a zero capacity still
    /// holds one entry — "disabled" is a caller-level concept).
    pub fn new(capacity: usize) -> Self {
        AnswerCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                epoch: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Poisoning is impossible to propagate usefully from a cache, so a
    /// poisoned lock keeps serving its contents.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Look up a fingerprint and bump its access epoch (the execution
    /// path). Returns a clone of the stored `Arc`.
    pub fn get(&self, fp: &Fingerprint) -> Option<Arc<T>> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.epoch += 1;
        let entry = inner.entries.get_mut(fp.key())?;
        entry.epoch = inner.epoch;
        Some(Arc::clone(&entry.value))
    }

    /// Is this fingerprint resident? Does *not* bump the epoch — the
    /// `explain` path observes without steering eviction.
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        self.lock().entries.contains_key(fp.key())
    }

    /// Insert (or replace) an entry, evicting the least recently used entry
    /// when full. Returns the number of entries evicted (0 or 1).
    pub fn insert(&self, fp: &Fingerprint, value: Arc<T>) -> usize {
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.epoch += 1;
        let mut evicted = 0;
        if !inner.entries.contains_key(fp.key()) && inner.entries.len() >= self.capacity {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.epoch)
                .map(|(k, _)| k.clone());
            if let Some(k) = victim {
                inner.entries.remove(&k);
                evicted = 1;
            }
        }
        let epoch = inner.epoch;
        inner
            .entries
            .insert(fp.key().to_string(), Entry { value, epoch });
        evicted
    }

    /// Drop every entry; returns how many were resident.
    pub fn clear(&self) -> usize {
        let mut inner = self.lock();
        let dropped = inner.entries.len();
        inner.entries.clear();
        dropped
    }

    /// Current number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> std::fmt::Debug for AnswerCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::plan_fingerprint;
    use themis_query::Limits;
    use themis_sql::parse;

    fn fp(sql: &str) -> Fingerprint {
        plan_fingerprint(&parse(sql).expect(sql), &Limits::default(), 0)
    }

    fn fp_gen(sql: &str, generation: u64) -> Fingerprint {
        plan_fingerprint(&parse(sql).expect(sql), &Limits::default(), generation)
    }

    #[test]
    fn get_returns_the_same_allocation() {
        let cache: AnswerCache<String> = AnswerCache::new(16);
        let f = fp("SELECT COUNT(*) AS n FROM t");
        assert!(cache.get(&f).is_none());
        let value = Arc::new("answer".to_string());
        assert_eq!(cache.insert(&f, Arc::clone(&value)), 0);
        let hit = cache.get(&f).expect("resident");
        assert!(Arc::ptr_eq(&hit, &value), "hit must share the allocation");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_partitions_the_key_space() {
        let cache: AnswerCache<u32> = AnswerCache::new(16);
        let old = fp_gen("SELECT COUNT(*) AS n FROM t", 0);
        let new = fp_gen("SELECT COUNT(*) AS n FROM t", 1);
        cache.insert(&old, Arc::new(1));
        assert!(cache.get(&new).is_none(), "new generation must miss");
    }

    #[test]
    fn clear_drops_every_entry() {
        let cache: AnswerCache<u32> = AnswerCache::new(16);
        let on_t = fp("SELECT COUNT(*) AS n FROM t");
        let on_u = fp("SELECT COUNT(*) AS n FROM u");
        cache.insert(&on_t, Arc::new(1));
        cache.insert(&on_u, Arc::new(2));
        assert_eq!(cache.clear(), 2);
        assert!(cache.is_empty());
        assert!(cache.get(&on_t).is_none());
        assert!(cache.get(&on_u).is_none());
        assert_eq!(cache.clear(), 0);
        // A cleared cache fills up again to its full capacity.
        cache.insert(&on_t, Arc::new(3));
        assert_eq!(cache.get(&on_t).as_deref(), Some(&3));
    }

    #[test]
    fn eviction_removes_the_exact_lru_victim() {
        let keys: Vec<Fingerprint> = (1..=5)
            .map(|n| fp(&format!("SELECT COUNT(*) AS n FROM t LIMIT {n}")))
            .collect();
        let cache: AnswerCache<usize> = AnswerCache::new(3);
        for (i, k) in keys[..3].iter().enumerate() {
            assert_eq!(cache.insert(k, Arc::new(i)), 0);
        }
        // A hit makes keys[0] the most recently used: keys[1] is the victim.
        assert!(cache.get(&keys[0]).is_some());
        assert_eq!(cache.insert(&keys[3], Arc::new(3)), 1);
        let resident = |k: &Fingerprint| cache.contains(k);
        assert!(!resident(&keys[1]));
        assert!(resident(&keys[0]) && resident(&keys[2]) && resident(&keys[3]));
        // Replacing a resident key evicts nothing and counts as a use.
        assert_eq!(cache.insert(&keys[2], Arc::new(2)), 0);
        assert_eq!(cache.insert(&keys[4], Arc::new(4)), 1);
        assert!(!resident(&keys[0]));
        assert_eq!(cache.len(), 3);
        // A zero capacity still holds one entry.
        let tiny: AnswerCache<usize> = AnswerCache::new(0);
        assert_eq!(tiny.insert(&keys[0], Arc::new(0)), 0);
        assert_eq!(tiny.insert(&keys[1], Arc::new(1)), 1);
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn contains_does_not_bump_the_epoch() {
        let cache: AnswerCache<u32> = AnswerCache::new(2);
        let a = fp("SELECT COUNT(*) AS n FROM t LIMIT 1");
        let b = fp("SELECT COUNT(*) AS n FROM t LIMIT 2");
        let c = fp("SELECT COUNT(*) AS n FROM t LIMIT 3");
        cache.insert(&a, Arc::new(1));
        cache.insert(&b, Arc::new(2));
        assert!(cache.contains(&a));
        // `a` is still the least recently used entry, so it is the victim.
        assert_eq!(cache.insert(&c, Arc::new(3)), 1);
        assert!(!cache.contains(&a));
        assert!(cache.contains(&b) && cache.contains(&c));
    }
}
