//! A soft hash map — the SDS shape behind the paper's Redis
//! integration (§5): bucket entries live in soft memory, the bucket
//! table (metadata) lives in traditional memory.
//!
//! Reclamation evicts whole entries, in insertion order by default
//! (oldest first) or pseudo-randomly, invoking the application
//! callback with `(&K, &V)` before each eviction. A reclaimed entry
//! simply disappears: subsequent lookups return `None`, exactly the
//! "not found → client re-fetches from the database" behaviour the
//! paper reports for Redis.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::sync::Arc;

use parking_lot::Mutex;

use softmem_core::{Priority, RawHandle, SdsId, Sma, SoftResult, SoftSlot};

use crate::common::{register_with_reclaimer, ReclaimStats, SoftContainer, XorShift};

/// Deterministic hasher (no per-process randomisation, so tests and
/// simulations are reproducible).
type FixedHasher = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// Which entries a [`SoftHashMap`] gives up first under reclamation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionOrder {
    /// Oldest inserted entries first (the default; matches the soft
    /// linked list's oldest-first policy).
    #[default]
    InsertionOrder,
    /// Pseudo-random entries (deterministic seed).
    Random,
}

struct Entry<K, V> {
    key: K,
    value: V,
}

/// One bucket: `(hash, slot)` pairs.
type Bucket<K, V> = Vec<(u64, SoftSlot<Entry<K, V>>)>;

/// Pre-eviction application callback.
type EvictCallback<K, V> = Box<dyn FnMut(&K, &V) + Send>;

struct Inner<K, V> {
    buckets: Vec<Bucket<K, V>>,
    len: usize,
    /// Insertion-order index: (hash, raw handle). Stale entries (whose
    /// handle no longer matches any bucket slot) are skipped lazily.
    order: VecDeque<(u64, RawHandle)>,
    eviction: EvictionOrder,
    rng: XorShift,
    callback: Option<EvictCallback<K, V>>,
    stats: ReclaimStats,
}

/// A hash map whose entries live in revocable soft memory.
///
/// # Examples
///
/// ```
/// use softmem_core::{Priority, Sma};
/// use softmem_sds::SoftHashMap;
///
/// let sma = Sma::standalone(64);
/// let m: SoftHashMap<String, u64> = SoftHashMap::new(&sma, "index", Priority::new(3));
/// m.insert("a".into(), 1).unwrap();
/// assert_eq!(m.get("a"), Some(1));
/// // A reclaimed entry simply reads as a miss — re-fetchable, like a
/// // cache entry in the paper's Redis integration.
/// ```
pub struct SoftHashMap<K: Hash + Eq + Send + 'static, V: Send + 'static> {
    sma: Arc<Sma>,
    id: SdsId,
    inner: Arc<Mutex<Inner<K, V>>>,
    hasher: FixedHasher,
}

// SAFETY: mutex-guarded state; payload access under the SMA lock.
unsafe impl<K: Hash + Eq + Send, V: Send> Sync for SoftHashMap<K, V> {}

const INITIAL_BUCKETS: usize = 16;
/// Average entries per bucket beyond which the table doubles.
const MAX_LOAD: usize = 4;

impl<K: Hash + Eq + Send + 'static, V: Send + 'static> SoftHashMap<K, V> {
    /// Creates an empty map with oldest-first eviction.
    pub fn new(sma: &Arc<Sma>, name: &str, priority: Priority) -> Self {
        Self::with_eviction(sma, name, priority, EvictionOrder::InsertionOrder)
    }

    /// Creates an empty map with the given eviction order.
    pub fn with_eviction(
        sma: &Arc<Sma>,
        name: &str,
        priority: Priority,
        eviction: EvictionOrder,
    ) -> Self {
        let inner = Arc::new(Mutex::new(Inner {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            len: 0,
            order: VecDeque::new(),
            eviction,
            rng: XorShift::new(0x5EED_F00D),
            callback: None,
            stats: ReclaimStats::default(),
        }));
        let id = register_with_reclaimer(sma, name, priority, &inner, Self::reclaim_locked);
        SoftHashMap {
            sma: Arc::clone(sma),
            id,
            inner,
            hasher: FixedHasher::default(),
        }
    }

    /// Installs the pre-eviction callback, invoked with `(&key, &value)`
    /// just before an entry is given up to reclamation.
    pub fn set_reclaim_callback(&self, cb: impl FnMut(&K, &V) + Send + 'static) {
        self.inner.lock().callback = Some(Box::new(cb));
    }

    /// A borrowed form hashes exactly like the owned key (the
    /// `Borrow` contract), so both land in the same bucket.
    fn hash_of<Q: Hash + ?Sized>(&self, key: &Q) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reclamation counters.
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.inner.lock().stats
    }

    /// Inserts `key → value`, returning the previous value if the key
    /// was present.
    ///
    /// The entry is allocated *before* the map lock is taken (so a
    /// budget stall cannot deadlock against a concurrent reclamation of
    /// this map); on a key collision the fresh entry is consumed and
    /// the existing slot's value replaced in place.
    pub fn insert(&self, key: K, value: V) -> SoftResult<Option<V>>
    where
        K: Clone,
    {
        let hash = self.hash_of(&key);
        let probe = key.clone();
        let new_slot = self.sma.alloc_value(self.id, Entry { key, value })?;
        let mut inner = self.inner.lock();
        if let Some((b, i, ())) = Self::find_with(&self.sma, &inner, hash, &probe, |_| ()) {
            let Entry {
                value: new_value, ..
            } = self
                .sma
                .take_value(new_slot)
                .expect("freshly allocated entry is live");
            let mut new_value = Some(new_value);
            let slot = &mut inner.buckets[b][i].1;
            let old = self
                .sma
                .with_value_mut(slot, |e| {
                    std::mem::replace(&mut e.value, new_value.take().expect("runs once"))
                })
                .expect("bucket handles stay live under the map lock");
            return Ok(Some(old));
        }
        let raw = new_slot.raw();
        let b = (hash as usize) % inner.buckets.len();
        inner.buckets[b].push((hash, new_slot));
        inner.order.push_back((hash, raw));
        inner.len += 1;
        if inner.len > inner.buckets.len() * MAX_LOAD {
            Self::grow(&mut inner);
        }
        Ok(None)
    }

    /// Looks up `key` and clones the value.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Looks up `key` and applies `f` to the value. `key` may be any
    /// borrowed form of `K` (`&[u8]` for a `Vec<u8>` key), so a lookup
    /// never builds an owned key.
    ///
    /// A hit resolves its slot once: the key comparison and `f` run in
    /// the same [`Sma::with_value`] call.
    pub fn get_with<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash_of(key);
        let inner = self.inner.lock();
        Self::find_with(&self.sma, &inner, hash, key, |e| f(&e.value)).map(|(_, _, r)| r)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get_with(key, |_| ()).is_some()
    }

    /// Removes `key`, returning its value.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = self.hash_of(key);
        let mut inner = self.inner.lock();
        let (b, i, ()) = Self::find_with(&self.sma, &inner, hash, key, |_| ())?;
        let (_, slot) = inner.buckets[b].swap_remove(i);
        inner.len -= 1;
        let entry = self
            .sma
            .take_value(slot)
            .expect("bucket handles stay live under the map lock");
        Some(entry.value)
    }

    /// Drops every entry (no callbacks).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let buckets = std::mem::take(&mut inner.buckets);
        for bucket in buckets {
            for (_, slot) in bucket {
                self.sma
                    .free_value(slot)
                    .expect("bucket handles stay live under the map lock");
            }
        }
        inner.buckets = (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect();
        inner.order.clear();
        inner.len = 0;
    }

    /// Visits every entry (unspecified order).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        let inner = self.inner.lock();
        for bucket in &inner.buckets {
            for (_, slot) in bucket {
                self.sma
                    .with_value(slot, |e| f(&e.key, &e.value))
                    .expect("bucket handles stay live under the map lock");
            }
        }
    }

    /// Finds `key`'s entry: its `(bucket, index)` position and what
    /// `f` returned for it. `f` runs in the same [`Sma::with_value`]
    /// call that compares the key, so a hit resolves its slot once.
    fn find_with<Q, R>(
        sma: &Arc<Sma>,
        inner: &Inner<K, V>,
        hash: u64,
        key: &Q,
        f: impl FnOnce(&Entry<K, V>) -> R,
    ) -> Option<(usize, usize, R)>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let b = (hash as usize) % inner.buckets.len();
        let mut f = Some(f);
        inner.buckets[b]
            .iter()
            .enumerate()
            .filter(|(_, (h, _))| *h == hash)
            .find_map(|(i, (_, slot))| {
                sma.with_value(slot, |e| {
                    (e.key.borrow() == key)
                        .then(|| (b, i, f.take().expect("only the matching entry calls f")(e)))
                })
                .expect("bucket handles stay live under the map lock")
            })
    }

    fn grow(inner: &mut Inner<K, V>) {
        let new_n = inner.buckets.len() * 2;
        let mut new_buckets: Vec<Bucket<K, V>> = (0..new_n).map(|_| Vec::new()).collect();
        for bucket in inner.buckets.drain(..) {
            for (h, slot) in bucket {
                new_buckets[(h as usize) % new_n].push((h, slot));
            }
        }
        inner.buckets = new_buckets;
    }

    /// Evicts one entry; returns bytes freed (0 ⇒ nothing evictable).
    fn evict_one(sma: &Arc<Sma>, inner: &mut Inner<K, V>) -> usize {
        let victim = match inner.eviction {
            EvictionOrder::InsertionOrder => {
                let mut found = None;
                while let Some((hash, raw)) = inner.order.pop_front() {
                    let b = (hash as usize) % inner.buckets.len();
                    if let Some(i) = inner.buckets[b].iter().position(|(_, s)| s.raw() == raw) {
                        found = Some((b, i));
                        break;
                    }
                    // Stale index entry (removed/replaced earlier): skip.
                }
                found
            }
            EvictionOrder::Random => {
                if inner.len == 0 {
                    None
                } else {
                    // Pick the n-th live entry, n pseudo-random.
                    let mut n = inner.rng.next_index(inner.len);
                    let mut found = None;
                    for (b, bucket) in inner.buckets.iter().enumerate() {
                        if n < bucket.len() {
                            found = Some((b, n));
                            break;
                        }
                        n -= bucket.len();
                    }
                    found
                }
            }
        };
        let Some((b, i)) = victim else {
            return 0;
        };
        let (_, slot) = inner.buckets[b].swap_remove(i);
        inner.len -= 1;
        if let Some(cb) = inner.callback.as_mut() {
            // Contain panicking user callbacks; the eviction proceeds.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: the victim was just unlinked from its bucket
                // under the map's inner lock (still held), so the slot
                // is exclusively ours until `free_value` below — no
                // other path can free or mutate it. Running the
                // callback with the allocator unlocked keeps a slow
                // per-entry cleanup (the paper's dominant reclamation
                // cost) from stalling every other SDS's allocations.
                unsafe { sma.with_value_exclusive(&slot, |e| cb(&e.key, &e.value)) }
                    .expect("victim handle is live")
            }));
        }
        sma.free_value(slot).expect("victim handle is live");
        std::mem::size_of::<Entry<K, V>>().max(1)
    }

    fn reclaim_locked(sma: &Arc<Sma>, inner: &mut Inner<K, V>, bytes: usize) -> usize {
        let mut freed = 0usize;
        let mut evicted = 0u64;
        while freed < bytes {
            let got = match Self::evict_one(sma, inner) {
                0 => break,
                n => n,
            };
            freed += got;
            evicted += 1;
        }
        if evicted > 0 {
            inner.stats.record(evicted, freed as u64);
        }
        freed
    }
}

impl<K: Hash + Eq + Send + 'static, V: Send + 'static> SoftContainer for SoftHashMap<K, V> {
    fn sds_id(&self) -> SdsId {
        self.id
    }

    fn sma(&self) -> &Arc<Sma> {
        &self.sma
    }

    fn reclaim_now(&self, bytes: usize) -> usize {
        let mut inner = self.inner.lock();
        Self::reclaim_locked(&self.sma, &mut inner, bytes)
    }
}

impl<K: Hash + Eq + Send + 'static, V: Send + 'static> Drop for SoftHashMap<K, V> {
    fn drop(&mut self) {
        let _ = self.sma.destroy_sds(self.id);
    }
}

impl<K: Hash + Eq + Send + 'static, V: Send + 'static> std::fmt::Debug for SoftHashMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftHashMap")
            .field("id", &self.id)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(budget: usize) -> (Arc<Sma>, SoftHashMap<String, u64>) {
        let sma = Sma::standalone(budget);
        let m = SoftHashMap::new(&sma, "m", Priority::default());
        (sma, m)
    }

    #[test]
    fn insert_get_remove() {
        let (_sma, m) = map(256);
        assert_eq!(m.insert("a".into(), 1).unwrap(), None);
        assert_eq!(m.insert("b".into(), 2).unwrap(), None);
        assert_eq!(m.get("a"), Some(1));
        assert_eq!(m.insert("a".into(), 10).unwrap(), Some(1));
        assert_eq!(m.get("a"), Some(10));
        assert_eq!(m.remove("a"), Some(10));
        assert_eq!(m.get("a"), None);
        assert_eq!(m.remove("a"), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key("b"));
    }

    #[test]
    fn grows_past_initial_buckets() {
        let (_sma, m) = map(1024);
        for i in 0..1000u64 {
            m.insert(format!("key-{i}"), i).unwrap();
        }
        assert_eq!(m.len(), 1000);
        for i in (0..1000u64).step_by(97) {
            assert_eq!(m.get(&format!("key-{i}")), Some(i));
        }
    }

    #[test]
    fn behaves_like_std_hashmap() {
        let (_sma, m) = map(1024);
        let mut reference = std::collections::HashMap::new();
        // Deterministic pseudo-random op mix.
        let mut rng = XorShift::new(99);
        for _ in 0..3000 {
            let k = format!("k{}", rng.next_index(200));
            match rng.next_index(3) {
                0 => {
                    let v = rng.next_u64();
                    assert_eq!(m.insert(k.clone(), v).unwrap(), reference.insert(k, v));
                }
                1 => assert_eq!(m.get(&k), reference.get(&k).copied()),
                _ => assert_eq!(m.remove(&k), reference.remove(&k)),
            }
            assert_eq!(m.len(), reference.len());
        }
    }

    #[test]
    fn reclaim_evicts_oldest_inserted_first() {
        let (_sma, m) = map(256);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        m.set_reclaim_callback(move |k: &String, _v: &u64| seen2.lock().push(k.clone()));
        for i in 0..10u64 {
            m.insert(format!("k{i}"), i).unwrap();
        }
        let entry = std::mem::size_of::<Entry<String, u64>>();
        m.reclaim_now(3 * entry);
        assert_eq!(*seen.lock(), vec!["k0", "k1", "k2"]);
        assert_eq!(m.len(), 7);
        assert_eq!(m.get("k0"), None, "reclaimed ⇒ miss");
        assert_eq!(m.get("k3"), Some(3));
    }

    #[test]
    fn stale_order_entries_are_skipped() {
        let (_sma, m) = map(256);
        for i in 0..5u64 {
            m.insert(format!("k{i}"), i).unwrap();
        }
        // Remove the two oldest: their order-index entries go stale.
        m.remove("k0");
        m.remove("k1");
        let entry = std::mem::size_of::<Entry<String, u64>>();
        m.reclaim_now(entry);
        // k2 (the oldest live entry) is the eviction victim.
        assert_eq!(m.get("k2"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn random_eviction_empties_eventually() {
        let sma = Sma::standalone(256);
        let m: SoftHashMap<u64, u64> =
            SoftHashMap::with_eviction(&sma, "m", Priority::default(), EvictionOrder::Random);
        for i in 0..50 {
            m.insert(i, i).unwrap();
        }
        m.reclaim_now(usize::MAX);
        assert!(m.is_empty());
        assert_eq!(sma.stats().live_allocs, 0);
    }

    #[test]
    fn clear_and_reuse() {
        let (sma, m) = map(256);
        for i in 0..100u64 {
            m.insert(format!("k{i}"), i).unwrap();
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(sma.stats().live_allocs, 0);
        m.insert("x".into(), 1).unwrap();
        assert_eq!(m.get("x"), Some(1));
    }

    #[test]
    fn for_each_visits_all() {
        let (_sma, m) = map(256);
        for i in 0..20u64 {
            m.insert(format!("k{i}"), i).unwrap();
        }
        let mut sum = 0;
        m.for_each(|_, v| sum += *v);
        assert_eq!(sum, (0..20).sum::<u64>());
    }

    #[test]
    fn values_dropped_on_eviction() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Hash, PartialEq, Eq)]
        struct Probe(u32);
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let sma = Sma::standalone(64);
        let m: SoftHashMap<u32, Probe> = SoftHashMap::new(&sma, "m", Priority::default());
        for i in 0..5 {
            m.insert(i, Probe(i)).unwrap();
        }
        m.reclaim_now(usize::MAX);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }
}
