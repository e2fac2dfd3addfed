//! Quantized-key LRU memoization of evaluation results.
//!
//! A cache key is a gene vector quantized onto the configured grid, one
//! `i64` word per gene. The engine builds each key once per submission,
//! as a [`Key`]: the words in one shared allocation, hashed once by a
//! deterministic word hasher. Every map a key passes through (the
//! session's pending map, the cache index) reads the stored hash, and
//! every holder (the session's entry, the index, the LRU slab) shares the
//! allocation.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

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

    /// One gene's key word: the gene divided by the grid, rounded half
    /// away from zero. Non-finite genes saturate (`NaN` maps to 0 via the
    /// `as` cast), which is harmless: such candidates are rare and merely
    /// share an entry.
    fn quantize(&self, x: f64) -> i64 {
        (x / self.grid).round() as i64
    }

    /// A gene vector's key words.
    pub(crate) fn key_words(&self, genes: &[f64]) -> Vec<i64> {
        genes.iter().map(|&x| self.quantize(x)).collect()
    }

    /// A gene vector's key: quantized, hashed and allocated in one pass.
    pub(crate) fn key(&self, genes: &[f64]) -> Key {
        let mut state = WordHasher::SEED;
        let words = genes
            .iter()
            .map(|&x| {
                let word = self.quantize(x);
                state = WordHasher::mix(state, word);
                word
            })
            .collect();
        Key {
            hash: WordHasher::finish_state(state),
            words,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::with_capacity(0)
    }
}

/// A quantized cache key: its words in one shared allocation, and their
/// hash, computed once.
///
/// Clones share the allocation. Equality compares the words, never the
/// hash alone; the hash only picks the bucket. A key borrows as its word
/// slice, which [`WordHash`] hashes to the same value, so a map keyed by
/// `Key` also answers lookups by `&[i64]`.
#[derive(Debug, Clone)]
pub(crate) struct Key {
    hash: u64,
    words: Arc<[i64]>,
}

impl Key {
    /// A key over words that were not built by [`CacheConfig::key`].
    pub(crate) fn from_words(words: Vec<i64>) -> Key {
        Key {
            hash: WordHash.hash_one(&words[..]),
            words: words.into(),
        }
    }

    /// A key whose stored hash is `hash`, whatever its words: for tests
    /// that make distinct keys collide. Such a key must only be looked up
    /// as a key, never by its word slice.
    #[cfg(test)]
    pub(crate) fn with_hash(words: &[i64], hash: u64) -> Key {
        Key {
            hash,
            words: words.into(),
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.words == other.words
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl Borrow<[i64]> for Key {
    fn borrow(&self) -> &[i64] {
        &self.words
    }
}

/// The hasher of every map keyed by [`Key`]: deterministic, with no
/// per-process random state.
///
/// A key hands over its stored hash (`write_u64`), which the hasher
/// passes through. A borrowed word slice hands over its words as bytes
/// (`write`; its length prefix is ignored), which are hashed exactly as
/// [`CacheConfig::key`] hashes them. Each word is folded in with a
/// rotate, an xor and an odd multiply, and a final avalanche carries
/// every word into both the low bits (the bucket) and the top bits (the
/// probe tag). The hash need not resist attack: keys come from seeded
/// optimizer streams, never from outside input, and a collision costs a
/// probe, not a wrong answer.
#[derive(Debug)]
pub(crate) struct WordHasher {
    state: u64,
    stored: Option<u64>,
}

impl WordHasher {
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(state: u64, word: i64) -> u64 {
        (state.rotate_left(5) ^ word as u64).wrapping_mul(Self::MULTIPLIER)
    }

    /// MurmurHash3's 64-bit finalizer.
    fn finish_state(mut h: u64) -> u64 {
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let words = bytes.chunks_exact(8);
        debug_assert!(words.remainder().is_empty(), "key bytes are whole words");
        for word in words {
            let word = i64::from_ne_bytes(word.try_into().expect("an 8-byte chunk"));
            self.state = Self::mix(self.state, word);
        }
    }

    fn write_usize(&mut self, _len: usize) {}

    fn write_u64(&mut self, hash: u64) {
        self.stored = Some(hash);
    }

    fn finish(&self) -> u64 {
        self.stored
            .unwrap_or_else(|| Self::finish_state(self.state))
    }
}

/// Builds a [`WordHasher`] for each map operation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordHash;

impl BuildHasher for WordHash {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher {
            state: WordHasher::SEED,
            stored: None,
        }
    }
}

/// An LRU map from quantized gene vectors to evaluation results.
///
/// Recency is tracked with an intrusive doubly-linked list over a slab of
/// entries, so `get` and `insert` are O(1) hash operations plus pointer
/// updates — no shifting or reallocation on access. The index and the
/// slab share each key's allocation.
#[derive(Debug)]
pub struct MemoCache<T> {
    config: CacheConfig,
    index: HashMap<Key, usize, WordHash>,
    entries: Vec<Entry<T>>,
    /// Most recently used entry, or `usize::MAX` when empty.
    head: usize,
    /// Least recently used entry, or `usize::MAX` when empty.
    tail: usize,
}

#[derive(Debug)]
struct Entry<T> {
    key: Key,
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
            index: HashMap::default(),
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

    /// The configuration the cache was built with.
    pub(crate) fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Maps a gene vector onto its quantized cache key.
    ///
    /// Non-finite genes saturate (`NaN` maps to 0 via the `as` cast),
    /// which is harmless: such candidates are rare and merely share an
    /// entry.
    pub fn key_of(&self, genes: &[f64]) -> Vec<i64> {
        self.config.key_words(genes)
    }

    /// Looks up a previously stored result and marks it most recently
    /// used.
    pub fn get(&mut self, key: &[i64]) -> Option<T> {
        let idx = self.index.get(key).copied();
        self.hit(idx)
    }

    /// [`get`](MemoCache::get) by a built key, reading its stored hash.
    pub(crate) fn get_key(&mut self, key: &Key) -> Option<T> {
        let idx = self.index.get(key).copied();
        self.hit(idx)
    }

    fn hit(&mut self, idx: Option<usize>) -> Option<T> {
        let idx = idx?;
        self.touch(idx);
        Some(self.entries[idx].value.clone())
    }

    /// Stores a result, evicting the least recently used entry when full.
    ///
    /// Inserting under an existing key refreshes its recency and replaces
    /// the value.
    pub fn insert(&mut self, key: Vec<i64>, value: T) {
        self.insert_key(Key::from_words(key), value);
    }

    /// [`insert`](MemoCache::insert) of a built key, which the index and
    /// the slab then share.
    pub(crate) fn insert_key(&mut self, key: Key, value: T) {
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

    /// The entries from most to least recently used.
    #[cfg(test)]
    pub(crate) fn lru_entries(&self) -> Vec<(Vec<i64>, T)> {
        let mut out = Vec::with_capacity(self.entries.len());
        let mut idx = self.head;
        while idx != NIL {
            let entry = &self.entries[idx];
            out.push((entry.key.words.to_vec(), entry.value.clone()));
            idx = entry.next;
        }
        out
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
        cache_of(capacity)
    }

    fn cache_of<T: Clone>(capacity: usize) -> MemoCache<T> {
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
    fn keys_with_equal_hashes_stay_exact() {
        // Every key stores the same hash, so all of them share one probe
        // sequence and only the word comparison tells them apart. A
        // linear-scan LRU (most recent first) is the reference.
        let key = |w: i64| Key::with_hash(&[w, -w, 7], 0x5eed_5eed);
        let mut c: MemoCache<i64> = cache_of(3);
        let mut reference: Vec<(i64, i64)> = Vec::new();
        let mut x: u64 = 12345;
        for step in 0..400i64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = (x >> 33) as i64 % 6;
            let expected = reference.iter().position(|&(k, _)| k == w).map(|pos| {
                let hit = reference.remove(pos);
                reference.insert(0, hit);
                hit.1
            });
            assert_eq!(c.get_key(&key(w)), expected, "get {w} at step {step}");
            if (x >> 20).is_multiple_of(3) {
                c.insert_key(key(w), step);
                if let Some(pos) = reference.iter().position(|&(k, _)| k == w) {
                    reference.remove(pos);
                } else if reference.len() == 3 {
                    reference.pop();
                }
                reference.insert(0, (w, step));
            }
            let entries: Vec<(Vec<i64>, i64)> = reference
                .iter()
                .map(|&(w, v)| (vec![w, -w, 7], v))
                .collect();
            assert_eq!(c.lru_entries(), entries, "after step {step}");
        }
    }

    #[test]
    fn built_keys_hash_like_their_word_slices() {
        let config = CacheConfig::with_capacity(8).grid(1e-3);
        for genes in [
            vec![],
            vec![0.0],
            vec![1.0, -2.5, 3.25],
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0],
            (0..30).map(|i| f64::from(i) * 0.0371).collect(),
        ] {
            let key = config.key(&genes);
            let words = config.key_words(&genes);
            assert_eq!(&key.words[..], &words[..]);
            // A map keyed by `Key` finds the key by its word slice.
            assert_eq!(WordHash.hash_one(&key), WordHash.hash_one(&words[..]));
        }
    }

    #[test]
    fn every_word_reaches_the_bucket_and_the_tag() {
        // Varying any one word of a 30-word key must spread the hash over
        // the low byte (the bucket) and the top seven bits (the tag).
        let base: Vec<i64> = (0..30).map(|i| 1_000_000_007 * i).collect();
        for pos in 0..base.len() {
            let mut buckets = std::collections::HashSet::new();
            let mut tags = std::collections::HashSet::new();
            for delta in 0..256 {
                let mut words = base.clone();
                words[pos] += delta;
                let hash = Key::from_words(words).hash;
                buckets.insert(hash & 0xff);
                tags.insert(hash >> 57);
            }
            // 256 uniform draws fill about 162 of 256 buckets and 111 of
            // 128 tags.
            assert!(buckets.len() > 130, "word {pos}: {} buckets", buckets.len());
            assert!(tags.len() > 90, "word {pos}: {} tags", tags.len());
        }
    }

    #[test]
    #[should_panic(expected = "grid must be > 0")]
    fn rejects_nonpositive_grid() {
        let _ = CacheConfig::with_capacity(1).grid(0.0);
    }
}
