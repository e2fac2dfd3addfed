//! A thread-safe memoization cache shared by many concurrent runs.
//!
//! The per-run [`MemoCache`](crate::MemoCache) sits inside one
//! [`ExecutionEngine`](crate::ExecutionEngine) and dies with it. A
//! campaign that executes a seed × algorithm matrix over *one* problem
//! evaluates many near-identical candidate streams; promoting the cache
//! to a [`SharedCache`] lets every cell of the matrix reuse every other
//! cell's evaluations.
//!
//! Correctness contract: the evaluation closure must be a **pure
//! function of the gene vector**. Under that contract a cache hit
//! returns exactly the value the run would have computed itself, so a
//! run's results are bit-identical whether its candidates are answered
//! by the model, by its own earlier insertions, or by another run's —
//! only the *counters* (hits vs. evaluations) depend on scheduling.
//!
//! Hit accounting is deterministic **per run**: each
//! [`ExecutionEngine`](crate::ExecutionEngine) counts the hits its own
//! lookups observe in its private [`EngineStats`](crate::EngineStats),
//! with no cross-run interference. The cache additionally keeps global
//! totals ([`SharedCacheStats`]) across all handles; those totals are
//! exact but — like any contended counter — their split across runs
//! varies with thread interleaving.

use crate::cache::{CacheConfig, Key, MemoCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Global counters of a [`SharedCache`], summed over every handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedCacheStats {
    /// Lookups answered from the shared store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Values stored.
    pub inserts: u64,
}

impl SharedCacheStats {
    /// Fraction of lookups answered from the store (`0.0` when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Store<T> {
    cache: Mutex<MemoCache<T>>,
    config: CacheConfig,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

/// A cloneable handle to a memoization cache shared across threads and
/// runs. Cloning is cheap (an [`Arc`] bump); all clones address the same
/// store. Equality is identity: two handles are equal iff they share a
/// store.
pub struct SharedCache<T> {
    store: Arc<Store<T>>,
}

impl<T> Clone for SharedCache<T> {
    fn clone(&self) -> Self {
        SharedCache {
            store: Arc::clone(&self.store),
        }
    }
}

impl<T> PartialEq for SharedCache<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }
}

impl<T> std::fmt::Debug for SharedCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedCache")
            .field("config", &self.store.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<T> SharedCache<T> {
    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.store.config
    }

    /// Maps a gene vector onto its quantized cache key (lock-free; the
    /// grid is immutable).
    pub fn key_of(&self, genes: &[f64]) -> Vec<i64> {
        self.store.config.key_words(genes)
    }

    /// A snapshot of the global counters across all handles.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.store.hits.load(Ordering::Relaxed),
            misses: self.store.misses.load(Ordering::Relaxed),
            inserts: self.store.inserts.load(Ordering::Relaxed),
        }
    }
}

impl<T: Clone> SharedCache<T> {
    /// An empty shared cache with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when `config.capacity == 0` — a shared cache that can
    /// never store anything is a configuration error, not a useful
    /// degenerate case (use no cache at all instead).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.capacity > 0, "shared cache capacity must be > 0");
        SharedCache {
            store: Arc::new(Store {
                cache: Mutex::new(MemoCache::new(config.clone())),
                config,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                inserts: AtomicU64::new(0),
            }),
        }
    }

    /// A shared cache holding at most `capacity` entries at the default
    /// quantization grid.
    pub fn with_capacity(capacity: usize) -> Self {
        SharedCache::new(CacheConfig::with_capacity(capacity))
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, MemoCache<T>> {
        self.store.cache.lock().expect("shared cache poisoned")
    }

    /// Looks up a previously stored result, refreshing its recency.
    pub fn get(&self, key: &[i64]) -> Option<T> {
        let hit = self.cache().get(key);
        self.count(hit)
    }

    /// [`get`](SharedCache::get) by a built key, reading its stored hash.
    pub(crate) fn get_key(&self, key: &Key) -> Option<T> {
        let hit = self.cache().get_key(key);
        self.count(hit)
    }

    fn count(&self, hit: Option<T>) -> Option<T> {
        match &hit {
            Some(_) => self.store.hits.fetch_add(1, Ordering::Relaxed),
            None => self.store.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Stores a result, evicting the least recently used entry when
    /// full.
    pub fn insert(&self, key: Vec<i64>, value: T) {
        self.insert_key(Key::from_words(key), value);
    }

    /// [`insert`](SharedCache::insert) of a built key, which the store
    /// then shares.
    pub(crate) fn insert_key(&self, key: Key, value: T) {
        self.cache().insert_key(key, value);
        self.store.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.cache().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries from most to least recently used.
    #[cfg(test)]
    pub(crate) fn lru_entries(&self) -> Vec<(Vec<i64>, T)> {
        self.cache().lru_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_store() {
        let a: SharedCache<u32> = SharedCache::with_capacity(8);
        let b = a.clone();
        let k = a.key_of(&[1.0, 2.0]);
        a.insert(k.clone(), 7);
        assert_eq!(b.get(&k), Some(7));
        assert_eq!(a.len(), 1);
        assert_eq!(a, b);
        assert_ne!(a, SharedCache::with_capacity(8));
    }

    #[test]
    fn counters_track_hits_misses_inserts() {
        let c: SharedCache<u32> = SharedCache::with_capacity(4);
        let k = c.key_of(&[0.5]);
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), 1);
        assert_eq!(c.get(&k), Some(1));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_handles_stay_consistent() {
        let cache: SharedCache<u64> = SharedCache::with_capacity(1024);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let handle = cache.clone();
                scope.spawn(move || {
                    for i in 0..256u64 {
                        let key = handle.key_of(&[(i % 64) as f64]);
                        if handle.get(&key).is_none() {
                            handle.insert(key, t * 1000 + i);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4 * 256);
        assert!(cache.len() <= 64);
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn rejects_zero_capacity() {
        let _: SharedCache<u32> = SharedCache::with_capacity(0);
    }
}
