//! Quantized-key LRU memoization of evaluation results.

use std::collections::HashMap;

/// Configuration of the memoization cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Maximum number of retained entries; `0` disables caching.
    pub capacity: usize,
    /// Quantization grid: gene values are divided by this and rounded to
    /// the nearest integer before hashing, so any two vectors within half
    /// a grid step per gene share a cache entry.
    pub grid: f64,
}

impl CacheConfig {
    /// Default quantization grid, fine enough that distinct candidates in
    /// the unit-ish design spaces of this workspace never collide.
    pub const DEFAULT_GRID: f64 = 1e-9;

    /// A cache holding at most `capacity` entries at the default grid.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            grid: Self::DEFAULT_GRID,
        }
    }

    /// Sets the quantization grid (must be positive and finite).
    pub fn grid(mut self, grid: f64) -> Self {
        assert!(grid.is_finite() && grid > 0.0, "cache grid must be > 0");
        self.grid = grid;
        self
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::with_capacity(0)
    }
}

/// An LRU map from quantized gene vectors to evaluation results.
///
/// Recency is tracked with an intrusive doubly-linked list over a slab of
/// entries, so `get` and `insert` are O(1) hash operations plus pointer
/// updates — no shifting or reallocation on access.
#[derive(Debug)]
pub struct MemoCache<T> {
    config: CacheConfig,
    index: HashMap<Vec<i64>, usize>,
    entries: Vec<Entry<T>>,
    /// Most recently used entry, or `usize::MAX` when empty.
    head: usize,
    /// Least recently used entry, or `usize::MAX` when empty.
    tail: usize,
}

#[derive(Debug)]
struct Entry<T> {
    key: Vec<i64>,
    value: T,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<T: Clone> MemoCache<T> {
    /// An empty cache with the given configuration.
    ///
    /// The index and the slab grow with the entries rather than being
    /// reserved for the capacity: a run that fills a large cache only in
    /// part would leave megabytes of reserved, unwritten memory in the
    /// heap, and how much of it later allocations touch varies from one
    /// process to the next.
    pub fn new(config: CacheConfig) -> Self {
        MemoCache {
            config,
            index: HashMap::new(),
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maps a gene vector onto its quantized cache key.
    ///
    /// Non-finite genes saturate (`NaN` maps to 0 via the `as` cast),
    /// which is harmless: such candidates are rare and merely share an
    /// entry.
    pub fn key_of(&self, genes: &[f64]) -> Vec<i64> {
        genes
            .iter()
            .map(|&x| (x / self.config.grid).round() as i64)
            .collect()
    }

    /// Looks up a previously stored result and marks it most recently
    /// used.
    pub fn get(&mut self, key: &[i64]) -> Option<T> {
        let idx = *self.index.get(key)?;
        self.touch(idx);
        Some(self.entries[idx].value.clone())
    }

    /// Stores a result, evicting the least recently used entry when full.
    ///
    /// Inserting under an existing key refreshes its recency and replaces
    /// the value.
    pub fn insert(&mut self, key: Vec<i64>, value: T) {
        if self.config.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.index.get(&key) {
            self.entries[idx].value = value;
            self.touch(idx);
            return;
        }
        let idx = if self.entries.len() >= self.config.capacity {
            // Reuse the LRU slot: unlink it and drop its index entry.
            let idx = self.tail;
            self.unlink(idx);
            let old_key = std::mem::replace(&mut self.entries[idx].key, key.clone());
            self.index.remove(&old_key);
            self.entries[idx].value = value;
            idx
        } else {
            self.entries.push(Entry {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.entries.len() - 1
        };
        self.index.insert(key, idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> MemoCache<u32> {
        MemoCache::new(CacheConfig::with_capacity(capacity))
    }

    #[test]
    fn stores_and_retrieves() {
        let mut c = cache(4);
        let k = c.key_of(&[1.0, 2.0]);
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), 42);
        assert_eq!(c.get(&k), Some(42));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn quantization_merges_nearby_vectors() {
        let mut c = MemoCache::new(CacheConfig::with_capacity(4).grid(0.1));
        let a = c.key_of(&[1.00, 2.00]);
        let b = c.key_of(&[1.04, 1.96]); // within half a grid step per gene
        let d = c.key_of(&[1.10, 2.00]); // a full grid step away
        assert_eq!(a, b);
        assert_ne!(a, d);
        c.insert(a, 7);
        assert_eq!(c.get(&b), Some(7));
        assert!(c.get(&d).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = cache(2);
        let (k1, k2, k3) = (vec![1], vec![2], vec![3]);
        c.insert(k1.clone(), 1);
        c.insert(k2.clone(), 2);
        // Touch k1 so k2 becomes the LRU entry.
        assert_eq!(c.get(&k1), Some(1));
        c.insert(k3.clone(), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&k1), Some(1));
        assert!(c.get(&k2).is_none(), "k2 should have been evicted");
        assert_eq!(c.get(&k3), Some(3));
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = cache(2);
        c.insert(vec![1], 1);
        c.insert(vec![2], 2);
        c.insert(vec![1], 10); // refresh: now [2] is LRU
        c.insert(vec![3], 3);
        assert_eq!(c.get(&[1][..]), Some(10));
        assert!(c.get(&[2][..]).is_none());
    }

    #[test]
    fn storage_grows_with_the_entries_not_the_capacity() {
        let mut c = cache(1 << 16);
        for i in 0..10i64 {
            c.insert(vec![i], i as u32);
        }
        assert!(c.index.capacity() < 64, "index {}", c.index.capacity());
        assert!(c.entries.capacity() < 64, "slab {}", c.entries.capacity());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = cache(0);
        c.insert(vec![1], 1);
        assert!(c.is_empty());
        assert!(c.get(&[1][..]).is_none());
    }

    #[test]
    fn capacity_one_churns_correctly() {
        let mut c = cache(1);
        for i in 0..10i64 {
            c.insert(vec![i], i as u32);
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&[i][..]), Some(i as u32));
        }
    }

    #[test]
    fn nonfinite_genes_do_not_panic() {
        let c: MemoCache<u32> = cache(2);
        let k = c.key_of(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(k.len(), 3);
        assert_eq!(k[0], 0);
        assert_eq!(k[1], i64::MAX);
        assert_eq!(k[2], i64::MIN);
    }

    #[test]
    #[should_panic(expected = "grid must be > 0")]
    fn rejects_nonpositive_grid() {
        let _ = CacheConfig::with_capacity(1).grid(0.0);
    }
}
