//! The command engine: a soft hash table of KV entries.
//!
//! Faithful to the paper's 25-line Redis patch: the hash-table *entry*
//! (our `Entry { key, value }`) lives in soft memory, while the actual
//! key/value byte buffers live on the traditional heap (`Vec<u8>`'s
//! backing store). When an entry is reclaimed, dropping it releases
//! those traditional buffers — the cleanup work the paper measured
//! dominating the 3.75 s reclamation (§5) — and the callback hook
//! lets the application observe each loss.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use softmem_core::tier::{ColdTier, TierHit};
use softmem_core::{Priority, Sma, SoftError, SoftResult};
use softmem_sds::{EvictionOrder, SoftContainer, SoftHashMap};

use crate::metrics::StoreMetrics;

/// Result of a TTL query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ttl {
    /// The key does not exist (Redis: `-2`).
    NoKey,
    /// The key exists but has no expiry (Redis: `-1`).
    NoExpiry,
    /// Time until the key expires.
    Remaining(Duration),
}

/// Counters describing a store's behaviour over time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// GETs that found a live entry.
    pub hits: u64,
    /// GETs that found nothing (never set, deleted, or reclaimed).
    pub misses: u64,
    /// SETs served.
    pub sets: u64,
    /// Entries lost to soft-memory reclamation.
    pub reclaimed_entries: u64,
    /// Bytes of key+value payload lost to reclamation.
    pub reclaimed_bytes: u64,
    /// SETs whose insert was denied because the daemon connection was
    /// down (fail-local degraded mode). Each one was served anyway by
    /// the local shed-and-retry path; the counter records that the
    /// store rode out an outage, not that a client saw an error.
    pub degraded_denies: u64,
    /// Evictions demoted into the cold tier instead of destroyed
    /// (0 unless the store was built with [`Store::with_tier`]).
    pub cold_demotions: u64,
    /// GETs served by promoting a value out of the cold arena.
    pub cold_hits: u64,
    /// GETs served by promoting a value off the spill log.
    pub spill_hits: u64,
    /// Arena-overflow records written to the spill log.
    pub spill_writes: u64,
    /// Cold entries discarded because their bytes failed the
    /// checksum/decode — each surfaced as a clean miss.
    pub cold_corruptions: u64,
}

impl StoreStats {
    /// Hit rate in `[0, 1]` (0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How the simulated per-entry cleanup cost is charged inside the
/// reclamation callback (see [`Store::set_reclaim_cost`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReclaimCostModel {
    /// Busy-spin for the configured duration (default): the cleanup is
    /// CPU work executing on the reclaiming core.
    #[default]
    Spin,
    /// Sleep for the configured duration: the cleanup's cost is
    /// off-CPU (I/O, unmapping syscalls, work handed to another core).
    /// On single-vCPU machines this is the model that lets benchmarks
    /// observe *stall* behaviour — a spinning callback would make every
    /// engine configuration equally CPU-bound.
    Sleep,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    sets: AtomicU64,
    reclaimed_entries: AtomicU64,
    reclaimed_bytes: AtomicU64,
    degraded_denies: AtomicU64,
    /// Simulated per-entry cleanup cost (ns busy-work in the callback).
    reclaim_cost_ns: AtomicU64,
    /// Whether the cleanup cost sleeps instead of spinning
    /// ([`ReclaimCostModel::Sleep`]).
    reclaim_cost_sleeps: std::sync::atomic::AtomicBool,
    /// Total ns spent inside the reclamation callback.
    callback_ns: AtomicU64,
}

/// A Redis-like keyspace whose entries live in soft memory.
///
/// Thread-safe: every verb is atomic per key, whichever thread calls
/// it (the reactor's shard workers, or any in-process caller).
///
/// # Examples
///
/// ```
/// use softmem_core::{Priority, Sma};
/// use softmem_kv::{Store, Ttl};
///
/// let sma = Sma::standalone(128);
/// let store = Store::new(&sma, "db0", Priority::new(4));
/// store.set(b"user:1", b"alice").unwrap();
/// assert_eq!(store.incr_by(b"visits", 1).unwrap(), 1);
/// store.expire(b"user:1", std::time::Duration::from_secs(60));
/// assert!(matches!(store.ttl(b"user:1"), Ttl::Remaining(_)));
/// ```
pub struct Store {
    sma: Arc<Sma>,
    table: SoftHashMap<Vec<u8>, Vec<u8>>,
    counters: Arc<Counters>,
    metrics: Arc<StoreMetrics>,
    /// Expiry deadlines, in traditional memory (like Redis's separate
    /// expires dict). Entries are removed lazily on access.
    expiries: Mutex<HashMap<Vec<u8>, Instant>>,
    /// `expiries.len()`, stored only while the `expiries` lock is
    /// held. While it reads 0 no key has a deadline, so lookups and
    /// writes skip that lock: a GET on a TTL-free store takes no
    /// store-level lock at all. A lookup that reads 0 while an EXPIRE
    /// is inserting orders before that EXPIRE, as it would had it won
    /// the lock. `Relaxed` suffices: the count publishes no data (a
    /// reader that sees it non-zero takes the lock), and a caller
    /// ordered after an EXPIRE reads that EXPIRE's store or a later one.
    ttl_keys: AtomicUsize,
    /// The second-chance cold tier ([`Store::with_tier`]). When
    /// present, evictions demote into it and reads fall through
    /// hot → arena → disk, promoting on access.
    tier: Option<Arc<ColdTier>>,
    /// Per-key stripes serializing every mutation of a key's
    /// *placement* (SET/DEL/expiry and cold-tier promotion). The hot
    /// table's own lock makes each operation atomic, but promotion is
    /// two operations — `tier.take` then `table.insert` — and a SET or
    /// DEL landing in between would be silently overwritten by the
    /// stale promoted value. Holding the key's stripe across both
    /// halves (and across every write) closes that window. The
    /// read-modify-write verbs (`INCRBY`/`APPEND`/`SETNX`) hold it
    /// across read→write for the same reason.
    stripes: Vec<Mutex<()>>,
}

/// Number of key stripes. Power of two, sized so 64 concurrent
/// connections rarely collide on unrelated keys.
const STRIPES: usize = 64;

/// Most shed-and-retry rounds one insert makes
/// ([`Store::shed_and_retry`]). One is enough unless a sibling shard
/// wins the race for the freed page; losing it eight times running
/// means the machine is so short that refusing is the honest answer.
const SHED_ROUNDS: usize = 8;

impl Store {
    /// Creates a store whose table is registered with `sma` as an SDS
    /// named `name` at the given reclamation priority. Reclamation
    /// evicts entries oldest-first (see [`Store::with_eviction`] for
    /// the alternative).
    pub fn new(sma: &Arc<Sma>, name: &str, priority: Priority) -> Self {
        Self::with_eviction(sma, name, priority, EvictionOrder::InsertionOrder)
    }

    /// Creates a store with an explicit reclamation-eviction order
    /// (`Random` approximates the paper's Redis, whose per-bucket
    /// eviction is effectively hash-random with respect to popularity).
    pub fn with_eviction(
        sma: &Arc<Sma>,
        name: &str,
        priority: Priority,
        eviction: EvictionOrder,
    ) -> Self {
        Self::with_eviction_labeled(sma, name, priority, eviction, "kv")
    }

    /// Like [`Store::with_eviction`], but with an explicit telemetry
    /// registry label. A sharded engine gives each shard its own label
    /// (`kv0`, `kv1`, …) so per-shard registries stay distinguishable
    /// in aggregated `STATS` output.
    pub fn with_eviction_labeled(
        sma: &Arc<Sma>,
        name: &str,
        priority: Priority,
        eviction: EvictionOrder,
        metrics_label: &str,
    ) -> Self {
        Self::build(sma, name, priority, eviction, metrics_label, None)
    }

    /// Like [`Store::with_eviction_labeled`], but with a second-chance
    /// cold tier: the eviction callback *demotes* each reclaimed entry
    /// into `tier` (compressed arena, spilling to disk under deeper
    /// pressure) instead of letting it vanish, and reads fall through
    /// hot → arena → disk, transparently promoting back on access.
    ///
    /// The store's SDS is marked demotable
    /// ([`Sma::set_demotable`]), so machine-wide reclamation prefers
    /// it within its priority class — squeezing it destroys no data.
    pub fn with_tier(
        sma: &Arc<Sma>,
        name: &str,
        priority: Priority,
        eviction: EvictionOrder,
        metrics_label: &str,
        tier: Arc<ColdTier>,
    ) -> Self {
        Self::build(sma, name, priority, eviction, metrics_label, Some(tier))
    }

    fn build(
        sma: &Arc<Sma>,
        name: &str,
        priority: Priority,
        eviction: EvictionOrder,
        metrics_label: &str,
        tier: Option<Arc<ColdTier>>,
    ) -> Self {
        let table = SoftHashMap::with_eviction(sma, name, priority, eviction);
        let counters = Arc::new(Counters::default());
        let metrics = Arc::new(StoreMetrics::new(metrics_label));
        let c = Arc::clone(&counters);
        let m = Arc::clone(&metrics);
        let t = tier.clone();
        table.set_reclaim_callback(move |k: &Vec<u8>, v: &Vec<u8>| {
            // The paper's reclamation callback: this is where Redis
            // "cleans up associated traditional memory for the
            // reclaimed entries" (the buffers are freed when the entry
            // drops, right after this hook). A configurable busy-work
            // cost stands in for that cleanup, so the Figure-2 harness
            // can reproduce the paper's callback-dominated reclamation
            // time (§5: 3.75 s "spent almost exclusively in Redis
            // code, invoked via the callback").
            let start = std::time::Instant::now();
            let cost = c.reclaim_cost_ns.load(Ordering::Relaxed);
            if c.reclaim_cost_sleeps.load(Ordering::Relaxed) {
                if cost > 0 {
                    std::thread::sleep(Duration::from_nanos(cost));
                }
            } else {
                while (start.elapsed().as_nanos() as u64) < cost {
                    std::hint::spin_loop();
                }
            }
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            c.callback_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
            c.reclaimed_entries.fetch_add(1, Ordering::Relaxed);
            c.reclaimed_bytes
                .fetch_add((k.len() + v.len()) as u64, Ordering::Relaxed);
            m.callback_ns.record(elapsed_ns);
            m.reclaimed_entries.add(1);
            m.reclaimed_bytes.add((k.len() + v.len()) as u64);
            // Second chance: demote into the cold tier instead of
            // letting the bytes vanish. The tier lock is a leaf, so
            // this is safe under the map's inner lock.
            if let Some(tier) = t.as_ref() {
                tier.demote(k, v);
                m.cold_demotions.add(1);
            }
        });
        let store = Store {
            sma: Arc::clone(sma),
            table,
            counters,
            metrics,
            expiries: Mutex::new(HashMap::new()),
            ttl_keys: AtomicUsize::new(0),
            tier,
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
        };
        if store.tier.is_some() {
            // Evicting from this SDS loses no data (the value survives
            // compressed), so reclamation should prefer it within its
            // priority class.
            let _ = store.sma.set_demotable(store.table.sds_id(), true);
        }
        store
    }

    /// The stripe guarding `key`'s placement (FNV-1a over the key).
    /// Callers hold it across any take/insert or remove/invalidate
    /// pair; it is never held while acquiring another stripe (except
    /// [`Store::flushall`], which takes all of them in index order).
    fn stripe(&self, key: &[u8]) -> &Mutex<()> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.stripes[(h as usize) % STRIPES]
    }

    /// Whether some key has a deadline (see `ttl_keys`).
    fn any_ttl(&self) -> bool {
        self.ttl_keys.load(Ordering::Relaxed) != 0
    }

    /// Updates the `expiries` map through `f` and republishes its
    /// length to `ttl_keys` under the same lock.
    fn with_expiries<R>(&self, f: impl FnOnce(&mut HashMap<Vec<u8>, Instant>) -> R) -> R {
        let mut expiries = self.expiries.lock();
        let r = f(&mut expiries);
        self.ttl_keys.store(expiries.len(), Ordering::Relaxed);
        r
    }

    /// Drops `key`'s deadline; returns whether it had one.
    fn clear_expiry(&self, key: &[u8]) -> bool {
        self.any_ttl() && self.with_expiries(|e| e.remove(key).is_some())
    }

    /// Removes `key` if its deadline has passed; returns whether it
    /// was expired (lazy expiry, as in Redis).
    fn expire_if_due(&self, key: &[u8]) -> bool {
        if !self.any_ttl() {
            return false;
        }
        let due = {
            let expiries = self.expiries.lock();
            matches!(expiries.get(key), Some(&deadline) if deadline <= Instant::now())
        };
        if due {
            let _placement = self.stripe(key).lock();
            self.clear_expiry(key);
            self.table.remove(key);
            // An expired key's cold copy is stale too — a later GET
            // must not resurrect it from the tier.
            if let Some(tier) = &self.tier {
                tier.invalidate(key);
            }
        }
        due
    }

    /// The store's cold tier, when built with [`Store::with_tier`].
    pub fn tier(&self) -> Option<&Arc<ColdTier>> {
        self.tier.as_ref()
    }

    /// The allocator this store draws soft memory from.
    pub fn sma(&self) -> &Arc<Sma> {
        &self.sma
    }

    /// The store's telemetry registry (label `kv` unless the store was
    /// built with [`Store::with_eviction_labeled`]).
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// Re-syncs the occupancy gauges (`keys`, `soft_bytes`,
    /// `soft_pages`) from the table. Reclamation changes the keyspace
    /// behind the store's back, so gauges are refreshed on demand —
    /// call this before snapshotting if point-in-time accuracy
    /// matters (`INFO`/`STATS` do it automatically).
    pub fn refresh_gauges(&self) {
        self.metrics.keys.set(self.table.len() as i64);
        self.metrics.soft_bytes.set(self.table.soft_bytes() as i64);
        self.metrics.soft_pages.set(self.table.soft_pages() as i64);
        if let Some(tier) = &self.tier {
            let t = tier.stats();
            self.metrics.cold_entries.set(t.arena_entries as i64);
            self.metrics.cold_bytes.set(t.arena_bytes as i64);
            self.metrics.spill_entries.set(t.disk_entries as i64);
            self.metrics.spill_bytes.set(t.disk_live_bytes as i64);
            self.metrics.spill_writes.set(t.spill_writes as i64);
            self.metrics.cold_corruptions.set(t.corruptions as i64);
            self.metrics
                .spill_compactions
                .set(t.spill_compactions as i64);
        }
    }

    /// Stores `value` under `key` (overwrites).
    ///
    /// When the soft budget is exhausted (the machine lent the memory
    /// elsewhere), the store behaves like Redis at `maxmemory`: it
    /// evicts a few entries (per its eviction order) to make room and
    /// retries, failing only if even that cannot free a slot.
    pub fn set(&self, key: &[u8], value: &[u8]) -> SoftResult<()> {
        let _placement = self.stripe(key).lock();
        self.set_locked(key, value)
    }

    /// [`Store::set`] with `key`'s stripe already held — the write half
    /// of the read-modify-write verbs, which keep the stripe across
    /// their read so two `INCR`s on one key cannot both read the same
    /// old value.
    fn set_locked(&self, key: &[u8], value: &[u8]) -> SoftResult<()> {
        self.counters.sets.fetch_add(1, Ordering::Relaxed);
        self.metrics.sets.add(1);
        self.clear_expiry(key);
        let result = match self.table.insert(key.to_vec(), value.to_vec()) {
            Ok(_) => Ok(()),
            Err(err @ (SoftError::BudgetExceeded { .. } | SoftError::Denied { .. })) => {
                if matches!(
                    err,
                    SoftError::Denied {
                        reason: softmem_core::error::DenyReason::Degraded
                    }
                ) {
                    self.counters
                        .degraded_denies
                        .fetch_add(1, Ordering::Relaxed);
                    self.metrics.degraded_denies.add(1);
                }
                self.shed_and_retry(key, value)
            }
            Err(e) => Err(e),
        };
        if let Some(tier) = &self.tier {
            // Drop the superseded cold copy only once the hot write
            // actually holds the key: a failed SET must leave the
            // previously readable cold value readable, not turn a cold
            // hit into a permanent miss.
            if result.is_ok() {
                tier.invalidate(key);
            }
            // The shed-and-retry path above may have demoted a page of
            // entries; their deferred spill writes happen here, outside
            // the map lock.
            tier.flush();
        }
        result
    }

    /// Makes room for an insert the budget refused: sheds one page's
    /// worth of entries (the granularity at which the allocator can
    /// actually return memory) and retries. Every shard of an engine
    /// draws on the same SMA, so a sibling can take the freed page
    /// first; the loop goes again for as long as shedding frees
    /// something, up to [`SHED_ROUNDS`]. It fails when this store has
    /// nothing left to give up.
    fn shed_and_retry(&self, key: &[u8], value: &[u8]) -> SoftResult<()> {
        let mut refused = SoftError::BudgetExceeded {
            requested_pages: 1,
            available_pages: 0,
        };
        for _ in 0..SHED_ROUNDS {
            if self.table.reclaim_now(4096) == 0 {
                break;
            }
            match self.table.insert(key.to_vec(), value.to_vec()) {
                Err(e @ (SoftError::BudgetExceeded { .. } | SoftError::Denied { .. })) => {
                    refused = e;
                }
                other => return other.map(|_| ()),
            }
        }
        Err(refused)
    }

    /// Fetches the value under `key`; `None` is a miss (absent or
    /// reclaimed).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut buf = Vec::new();
        self.get_into(key, &mut buf).then_some(buf)
    }

    /// Fetches the value under `key` directly into `buf` (appended);
    /// returns whether it was a hit. On a miss `buf` is untouched.
    ///
    /// This is the borrowed-bytes read path: the value is copied
    /// exactly once, from the guarded soft-memory borrow straight into
    /// the caller's buffer — there is no intermediate owned `Vec`, so
    /// reply loops can reuse one buffer across requests. `GET`/`MGET`
    /// rendering routes through here.
    pub fn get_into(&self, key: &[u8], buf: &mut Vec<u8>) -> bool {
        self.expire_if_due(key);
        if self.read_hot(key, buf) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            self.metrics.hits.add(1);
            return true;
        }
        // Second chance: fall through hot → arena → disk. A cold hit
        // serves the caller *and* promotes the value back into the hot
        // table (best-effort — under budget pressure the value is
        // re-demoted rather than lost).
        if let Some(tier) = &self.tier {
            // The stripe makes take→insert atomic with respect to
            // SET/DEL on the same key: without it, a write landing
            // between the two would be overwritten by the stale
            // promoted value (lost update / deleted-key resurrection).
            let _placement = self.stripe(key).lock();
            // Re-check hot under the stripe — a racing promotion or
            // SET may have landed while we waited for it.
            if self.read_hot(key, buf) {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.metrics.hits.add(1);
                return true;
            }
            if let Some((value, source)) = tier.take(key) {
                buf.reserve(value.len());
                buf.extend_from_slice(&value);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.metrics.hits.add(1);
                match source {
                    TierHit::Arena => self.metrics.cold_hits.add(1),
                    TierHit::Disk => self.metrics.spill_hits.add(1),
                }
                self.promote(key, value);
                return true;
            }
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.misses.add(1);
        false
    }

    /// Copies the hot value for `key` into `buf`; returns whether it
    /// was there. On a miss `buf` is untouched.
    fn read_hot(&self, key: &[u8], buf: &mut Vec<u8>) -> bool {
        self.table
            .get_with(key, |v| {
                buf.reserve(v.len());
                buf.extend_from_slice(v);
            })
            .is_some()
    }

    /// Reinserts a promoted value into the hot table, shedding colder
    /// entries and retrying ([`Store::shed_and_retry`]) when the budget
    /// is tight. If even that fails the value goes back to the cold
    /// tier — a promotion may be deferred, but it is never silently
    /// dropped. Runs with the key's stripe held (see
    /// [`Store::get_into`]).
    fn promote(&self, key: &[u8], value: Vec<u8>) {
        let tier = self.tier.as_ref().expect("promote requires a tier");
        let promoted = match self.table.insert(key.to_vec(), value.clone()) {
            Ok(_) => return,
            Err(SoftError::BudgetExceeded { .. } | SoftError::Denied { .. }) => {
                self.shed_and_retry(key, &value).is_ok()
            }
            Err(_) => false,
        };
        if !promoted {
            tier.demote(key, &value);
            self.metrics.cold_demotions.add(1);
        }
        // The shed (and a failed promotion's re-demotion) may have
        // queued spill work; write it out here, outside the map lock.
        tier.flush();
    }

    /// Deletes `key`; returns whether it existed (in either tier).
    pub fn del(&self, key: &[u8]) -> bool {
        let _placement = self.stripe(key).lock();
        self.clear_expiry(key);
        let hot = self.table.remove(key).is_some();
        let cold = match &self.tier {
            Some(tier) => tier.invalidate(key),
            None => false,
        };
        hot || cold
    }

    /// Whether `key` is present (hot or cold — checking the cold tier
    /// does not promote).
    pub fn exists(&self, key: &[u8]) -> bool {
        !self.expire_if_due(key)
            && (self.table.contains_key(key) || self.tier.as_ref().is_some_and(|t| t.contains(key)))
    }

    /// Sets a time-to-live on `key`; returns whether the key exists.
    pub fn expire(&self, key: &[u8], ttl: Duration) -> bool {
        if self.expire_if_due(key) || !self.table.contains_key(key) {
            return false;
        }
        self.with_expiries(|e| e.insert(key.to_vec(), Instant::now() + ttl));
        true
    }

    /// Clears any expiry on `key`; returns whether one was cleared.
    pub fn persist(&self, key: &[u8]) -> bool {
        !self.expire_if_due(key) && self.clear_expiry(key)
    }

    /// Queries the remaining time-to-live of `key`.
    pub fn ttl(&self, key: &[u8]) -> Ttl {
        if self.expire_if_due(key) || !self.table.contains_key(key) {
            return Ttl::NoKey;
        }
        if !self.any_ttl() {
            return Ttl::NoExpiry;
        }
        match self.expiries.lock().get(key) {
            Some(&deadline) => Ttl::Remaining(deadline.saturating_duration_since(Instant::now())),
            None => Ttl::NoExpiry,
        }
    }

    /// Atomically increments the integer stored at `key` by `delta`
    /// (missing keys count as 0). Fails if the value is not an
    /// integer.
    pub fn incr_by(&self, key: &[u8], delta: i64) -> Result<i64, String> {
        self.expire_if_due(key);
        let _placement = self.stripe(key).lock();
        let current = match self.table.get_with(key, |v| v.clone()) {
            Some(v) => std::str::from_utf8(&v)
                .ok()
                .and_then(|s| s.parse::<i64>().ok())
                .ok_or_else(|| "value is not an integer".to_string())?,
            None => 0,
        };
        let next = current
            .checked_add(delta)
            .ok_or_else(|| "increment would overflow".to_string())?;
        self.set_locked(key, next.to_string().as_bytes())
            .map_err(|e| format!("OOM {e}"))?;
        Ok(next)
    }

    /// Stores `value` under `key` only if the key is absent; returns
    /// whether it was stored.
    pub fn setnx(&self, key: &[u8], value: &[u8]) -> SoftResult<bool> {
        self.expire_if_due(key);
        let _placement = self.stripe(key).lock();
        if self.table.contains_key(key) {
            return Ok(false);
        }
        self.set_locked(key, value)?;
        Ok(true)
    }

    /// Fetches several keys at once (position-matched; `None` = miss).
    pub fn mget<'k>(&self, keys: impl IntoIterator<Item = &'k [u8]>) -> Vec<Option<Vec<u8>>> {
        keys.into_iter().map(|k| self.get(k)).collect()
    }

    /// Appends `suffix` to the value at `key` (creating it if absent);
    /// returns the new length.
    pub fn append(&self, key: &[u8], suffix: &[u8]) -> SoftResult<usize> {
        self.expire_if_due(key);
        let _placement = self.stripe(key).lock();
        let mut value = self.table.get_with(key, |v| v.clone()).unwrap_or_default();
        value.extend_from_slice(suffix);
        let len = value.len();
        self.set_locked(key, &value)?;
        Ok(len)
    }

    /// Number of live keys.
    pub fn dbsize(&self) -> usize {
        self.table.len()
    }

    /// Drops every key (both tiers).
    pub fn flushall(&self) {
        // Take every stripe (in index order, so concurrent flushes
        // cannot deadlock) so no promotion or write straddles the wipe.
        let _placement: Vec<_> = self.stripes.iter().map(|s| s.lock()).collect();
        self.with_expiries(HashMap::clear);
        self.table.clear();
        if let Some(tier) = &self.tier {
            tier.clear();
        }
    }

    /// Collects the keys with the given prefix (empty prefix = all).
    pub fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.table.for_each(|k, _| {
            if k.starts_with(prefix) {
                out.push(k.clone());
            }
        });
        out.sort();
        out
    }

    /// Bytes of soft memory the table holds (entry structs; the
    /// traditional key/value buffers are separate).
    pub fn soft_bytes(&self) -> usize {
        self.table.soft_bytes()
    }

    /// Pages of soft memory attached to the table's heap.
    pub fn soft_pages(&self) -> usize {
        self.table.soft_pages()
    }

    /// Changes the table's reclamation priority.
    pub fn set_priority(&self, priority: Priority) {
        self.table.set_priority(priority);
    }

    /// Manually gives up about `bytes` of soft memory (e.g. a nightly
    /// scale-down), exactly as daemon-driven reclamation would.
    pub fn shed(&self, bytes: usize) -> usize {
        let freed = self.table.reclaim_now(bytes);
        // Demotions queued by the eviction callback get their disk
        // writes now, outside the map lock.
        if let Some(tier) = &self.tier {
            tier.flush();
        }
        freed
    }

    /// Sets the simulated per-entry cleanup cost charged inside the
    /// reclamation callback (models the Redis-side traditional-memory
    /// cleanup that dominated the paper's reclamation time).
    pub fn set_reclaim_cost(&self, per_entry: std::time::Duration) {
        self.counters
            .reclaim_cost_ns
            .store(per_entry.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Chooses how the simulated cleanup cost is charged — CPU
    /// busy-work (default) or an off-CPU sleep (see
    /// [`ReclaimCostModel`]).
    pub fn set_reclaim_cost_model(&self, model: ReclaimCostModel) {
        self.counters
            .reclaim_cost_sleeps
            .store(model == ReclaimCostModel::Sleep, Ordering::Relaxed);
    }

    /// Total time spent inside the reclamation callback so far.
    pub fn callback_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.counters.callback_ns.load(Ordering::Relaxed))
    }

    /// Behaviour counters. The `cold_*`/`spill_*` fields read the cold
    /// tier's own counters (ground truth), so the telemetry mirrors
    /// can be certified against them.
    pub fn stats(&self) -> StoreStats {
        let tier = self.tier.as_ref().map(|t| t.stats()).unwrap_or_default();
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            sets: self.counters.sets.load(Ordering::Relaxed),
            reclaimed_entries: self.counters.reclaimed_entries.load(Ordering::Relaxed),
            reclaimed_bytes: self.counters.reclaimed_bytes.load(Ordering::Relaxed),
            degraded_denies: self.counters.degraded_denies.load(Ordering::Relaxed),
            cold_demotions: tier.demotions,
            cold_hits: tier.arena_hits,
            spill_hits: tier.disk_hits,
            spill_writes: tier.spill_writes,
            cold_corruptions: tier.corruptions,
        }
    }
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("keys", &self.dbsize())
            .field("soft_pages", &self.soft_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(budget_pages: usize) -> (Arc<Sma>, Store) {
        let sma = Sma::with_config(
            softmem_core::SmaConfig::for_testing(budget_pages)
                .free_pool_retain(0)
                .sds_retain(0),
        );
        let s = Store::new(&sma, "kv", Priority::new(4));
        (sma, s)
    }

    #[test]
    fn set_get_del_exists() {
        let (_sma, s) = store(256);
        s.set(b"a", b"1").unwrap();
        s.set(b"b", b"2").unwrap();
        assert_eq!(s.get(b"a"), Some(b"1".to_vec()));
        assert!(s.exists(b"b"));
        assert!(!s.exists(b"c"));
        assert!(s.del(b"a"));
        assert!(!s.del(b"a"));
        assert_eq!(s.get(b"a"), None);
        assert_eq!(s.dbsize(), 1);
    }

    #[test]
    fn degraded_denials_are_counted_and_served_locally() {
        // The budget source behaves like a UdsProcess whose daemon is
        // down: every growth attempt fails local with Degraded. The
        // store must keep serving writes from its existing budget by
        // shedding, and the outage must be visible in the counters.
        struct DegradedSource;
        impl softmem_core::BudgetSource for DegradedSource {
            fn grant_more(
                &self,
                _need: usize,
                _want: usize,
            ) -> SoftResult<softmem_core::budget::Grant> {
                Err(SoftError::Denied {
                    reason: softmem_core::error::DenyReason::Degraded,
                })
            }
        }
        let (sma, s) = store(8);
        sma.set_budget_source(Arc::new(DegradedSource));
        // Far more entries than 8 pages can hold: growth is needed,
        // denied as Degraded, and shedding makes the room instead.
        for i in 0..2000u32 {
            s.set(format!("key-{i:06}").as_bytes(), &[7u8; 32])
                .expect("in-budget writes keep working while degraded");
        }
        let stats = s.stats();
        assert!(stats.degraded_denies > 0, "outage was counted");
        assert!(stats.reclaimed_entries > 0, "room came from shedding");
        assert_eq!(s.metrics().degraded_denies.get(), stats.degraded_denies);
        assert!(sma.budget_pages() <= 8, "no growth happened");
    }

    #[test]
    fn get_into_reuses_caller_buffer_and_counts() {
        let (_sma, s) = store(256);
        s.set(b"a", b"alpha").unwrap();
        s.set(b"b", b"beta").unwrap();
        let mut buf = Vec::new();
        assert!(s.get_into(b"a", &mut buf));
        assert_eq!(buf, b"alpha");
        // A miss leaves the buffer untouched (so reply loops can reuse
        // it without clearing on the miss path).
        assert!(!s.get_into(b"missing", &mut buf));
        assert_eq!(buf, b"alpha");
        // Appends — one buffer serves a whole MGET-style reply.
        assert!(s.get_into(b"b", &mut buf));
        assert_eq!(buf, b"alphabeta");
        let st = s.stats();
        assert_eq!((st.hits, st.misses), (2, 1));
    }

    #[test]
    fn overwrite_replaces_value() {
        let (_sma, s) = store(256);
        s.set(b"k", b"old").unwrap();
        s.set(b"k", b"new").unwrap();
        assert_eq!(s.get(b"k"), Some(b"new".to_vec()));
        assert_eq!(s.dbsize(), 1);
    }

    #[test]
    fn keys_with_prefix_sorted() {
        let (_sma, s) = store(256);
        for k in ["user:2", "user:1", "item:9"] {
            s.set(k.as_bytes(), b"x").unwrap();
        }
        assert_eq!(
            s.keys_with_prefix(b"user:"),
            vec![b"user:1".to_vec(), b"user:2".to_vec()]
        );
        assert_eq!(s.keys_with_prefix(b"").len(), 3);
    }

    #[test]
    fn flushall_empties() {
        let (sma, s) = store(256);
        for i in 0..100 {
            s.set(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        s.flushall();
        assert_eq!(s.dbsize(), 0);
        assert_eq!(sma.stats().live_allocs, 0);
    }

    #[test]
    fn reclamation_turns_hits_into_misses() {
        let (sma, s) = store(64);
        // ~1000 small entries.
        for i in 0..1000 {
            s.set(format!("key-{i}").as_bytes(), &[7u8; 32]).unwrap();
        }
        let before = s.dbsize();
        // Demand more than the budget slack so live entries must go.
        let demand = sma.stats().slack_pages() + sma.held_pages() / 2;
        let report = sma.reclaim(demand);
        assert!(report.pages_released() > 0);
        let after = s.dbsize();
        assert!(after < before, "entries were reclaimed");
        let stats = s.stats();
        assert_eq!(stats.reclaimed_entries, (before - after) as u64);
        assert!(stats.reclaimed_bytes > 0);
        // Oldest keys were evicted first (insertion order policy).
        assert_eq!(s.get(b"key-0"), None);
        assert!(s.get(format!("key-{}", before - 1).as_bytes()).is_some());
    }

    #[test]
    fn hit_miss_accounting() {
        let (_sma, s) = store(256);
        s.set(b"a", b"1").unwrap();
        s.get(b"a");
        s.get(b"a");
        s.get(b"nope");
        let st = s.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.misses, 1);
        assert_eq!(st.sets, 1);
        assert!((st.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn shed_shrinks_footprint() {
        let (_sma, s) = store(4096);
        for i in 0..5000 {
            s.set(format!("key-{i:05}").as_bytes(), &[1u8; 40]).unwrap();
        }
        let pages_before = s.soft_pages();
        s.shed(s.soft_bytes() / 2);
        assert!(s.soft_pages() < pages_before);
        assert!(s.dbsize() < 5000 && s.dbsize() > 0);
    }

    #[test]
    fn ttl_lazy_expiry() {
        let (_sma, s) = store(64);
        s.set(b"k", b"v").unwrap();
        assert_eq!(s.ttl(b"k"), Ttl::NoExpiry);
        assert!(s.expire(b"k", Duration::from_millis(15)));
        assert!(matches!(s.ttl(b"k"), Ttl::Remaining(_)));
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(s.get(b"k"), None, "lazily expired on access");
        assert_eq!(s.ttl(b"k"), Ttl::NoKey);
        assert!(!s.expire(b"missing", Duration::from_millis(5)));
    }

    #[test]
    fn persist_cancels_expiry_and_set_resets_it() {
        let (_sma, s) = store(64);
        s.set(b"k", b"v").unwrap();
        s.expire(b"k", Duration::from_millis(15));
        assert!(s.persist(b"k"));
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(s.get(b"k"), Some(b"v".to_vec()), "persisted");
        // Overwriting clears a pending expiry too.
        s.expire(b"k", Duration::from_millis(15));
        s.set(b"k", b"v2").unwrap();
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(s.get(b"k"), Some(b"v2".to_vec()));
        assert!(!s.persist(b"k"), "no expiry left to cancel");
    }

    /// The `ttl_keys` mirror against the map it mirrors.
    fn ttl_keys(s: &Store) -> usize {
        let mirror = s.ttl_keys.load(Ordering::SeqCst);
        assert_eq!(mirror, s.expiries.lock().len(), "mirror drifted");
        mirror
    }

    #[test]
    fn ttl_mirror_tracks_every_transition() {
        const LONG: Duration = Duration::from_secs(3600);
        // A zero TTL is due at once: lazy expiry without a sleep.
        const DUE: Duration = Duration::ZERO;
        let (_sma, s) = store(64);
        assert_eq!(ttl_keys(&s), 0);
        s.set(b"a", b"1").unwrap();
        assert_eq!(ttl_keys(&s), 0);
        // PEXPIRE on a new key, again on the same key, on a missing key.
        assert!(s.expire(b"a", LONG));
        assert_eq!(ttl_keys(&s), 1);
        assert!(s.expire(b"a", 2 * LONG));
        assert_eq!(ttl_keys(&s), 1);
        assert!(!s.expire(b"missing", LONG));
        assert_eq!(ttl_keys(&s), 1);
        assert!(matches!(s.ttl(b"a"), Ttl::Remaining(_)));
        // PERSIST, twice.
        assert!(s.persist(b"a"));
        assert_eq!(ttl_keys(&s), 0);
        assert!(!s.persist(b"a"));
        assert_eq!(s.ttl(b"a"), Ttl::NoExpiry);
        // DEL of a TTL'd key.
        assert!(s.expire(b"a", LONG));
        assert!(s.del(b"a"));
        assert_eq!(ttl_keys(&s), 0);
        assert_eq!(s.ttl(b"a"), Ttl::NoKey);
        // SET, INCR and APPEND over a TTL'd key each clear its deadline.
        s.set(b"a", b"1").unwrap();
        s.expire(b"a", LONG);
        s.set(b"a", b"2").unwrap();
        assert_eq!(ttl_keys(&s), 0);
        assert_eq!(s.ttl(b"a"), Ttl::NoExpiry);
        s.expire(b"a", LONG);
        assert_eq!(s.incr_by(b"a", 1).unwrap(), 3);
        assert_eq!(ttl_keys(&s), 0);
        s.expire(b"a", LONG);
        assert_eq!(s.append(b"a", b"x").unwrap(), 2);
        assert_eq!(ttl_keys(&s), 0);
        assert_eq!(s.get(b"a"), Some(b"3x".to_vec()));
        // SETNX over a live TTL'd key stores nothing and keeps the
        // deadline; over a due one it stores and clears it.
        s.expire(b"a", LONG);
        assert!(!s.setnx(b"a", b"no").unwrap());
        assert_eq!(ttl_keys(&s), 1);
        s.expire(b"a", DUE);
        assert!(s.setnx(b"a", b"yes").unwrap());
        assert_eq!(ttl_keys(&s), 0);
        assert_eq!(s.get(b"a"), Some(b"yes".to_vec()));
        // Lazy expiry through GET, EXISTS and PTTL.
        for key in [b"g", b"e", b"t"] {
            s.set(key, b"v").unwrap();
            assert!(s.expire(key, DUE));
        }
        assert_eq!(ttl_keys(&s), 3);
        assert_eq!(s.get(b"g"), None);
        assert_eq!(ttl_keys(&s), 2);
        assert!(!s.exists(b"e"));
        assert_eq!(ttl_keys(&s), 1);
        assert_eq!(s.ttl(b"t"), Ttl::NoKey);
        assert_eq!(ttl_keys(&s), 0);
        assert_eq!(s.dbsize(), 1, "only `a` is left");
        // FLUSHALL drops every deadline.
        for key in [b"x", b"y"] {
            s.set(key, b"v").unwrap();
            s.expire(key, LONG);
        }
        assert_eq!(ttl_keys(&s), 2);
        s.flushall();
        assert_eq!(ttl_keys(&s), 0);
    }

    #[test]
    fn ttl_mirror_holds_under_concurrent_expire_persist_and_get() {
        const ROUNDS: usize = 2_000;
        let (_sma, s) = store(64);
        let keys: Vec<Vec<u8>> = (0..8).map(|i| format!("k{i}").into_bytes()).collect();
        for k in &keys {
            s.set(k, b"v").unwrap();
        }
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            // Two writers on disjoint halves of the keyspace.
            for half in keys.chunks(4) {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        let k = &half[round % half.len()];
                        if round % 3 == 2 {
                            s.persist(k);
                        } else {
                            assert!(s.expire(k, Duration::from_secs(3600)));
                        }
                    }
                });
            }
            let (s, start, keys) = (&s, &start, &keys);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    assert!(s.get(&keys[round % keys.len()]).is_some());
                }
            });
        });
        let left = ttl_keys(&s);
        assert!(left <= keys.len());
        assert_eq!(s.dbsize(), keys.len(), "nothing was due");
    }

    #[test]
    fn incr_semantics() {
        let (_sma, s) = store(64);
        assert_eq!(s.incr_by(b"n", 1).unwrap(), 1, "missing key counts as 0");
        assert_eq!(s.incr_by(b"n", 41).unwrap(), 42);
        assert_eq!(s.incr_by(b"n", -2).unwrap(), 40);
        assert_eq!(s.get(b"n"), Some(b"40".to_vec()));
        s.set(b"text", b"abc").unwrap();
        assert!(s.incr_by(b"text", 1).is_err());
        s.set(b"max", i64::MAX.to_string().as_bytes()).unwrap();
        assert!(s.incr_by(b"max", 1).is_err(), "overflow rejected");
    }

    #[test]
    fn setnx_and_mget() {
        let (_sma, s) = store(64);
        assert!(s.setnx(b"k", b"first").unwrap());
        assert!(!s.setnx(b"k", b"second").unwrap());
        assert_eq!(s.get(b"k"), Some(b"first".to_vec()));
        s.set(b"other", b"x").unwrap();
        let got = s.mget([b"k".as_slice(), b"missing", b"other"]);
        assert_eq!(
            got,
            vec![Some(b"first".to_vec()), None, Some(b"x".to_vec())]
        );
        // SETNX respects expiry: an expired key counts as absent.
        s.expire(b"k", Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(20));
        assert!(s.setnx(b"k", b"reborn").unwrap());
    }

    #[test]
    fn append_semantics() {
        let (_sma, s) = store(64);
        assert_eq!(s.append(b"k", b"hello").unwrap(), 5);
        assert_eq!(s.append(b"k", b" world").unwrap(), 11);
        assert_eq!(s.get(b"k"), Some(b"hello world".to_vec()));
    }

    fn tiered_store(
        budget_pages: usize,
        spill: Option<std::path::PathBuf>,
        arena_cap: usize,
    ) -> (Arc<Sma>, Store) {
        let sma = Sma::with_config(
            softmem_core::SmaConfig::for_testing(budget_pages)
                .free_pool_retain(0)
                .sds_retain(0),
        );
        let tier = Arc::new(
            ColdTier::new(softmem_core::TierConfig {
                arena_cap_bytes: arena_cap,
                segment_bytes: 4096,
                spill_path: spill,
            })
            .unwrap(),
        );
        let s = Store::with_tier(
            &sma,
            "kv",
            Priority::new(4),
            EvictionOrder::InsertionOrder,
            "kv",
            tier,
        );
        (sma, s)
    }

    fn temp_spill(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("softmem-store-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn tiered_store_turns_reclaimed_keys_into_cold_hits() {
        let (sma, s) = tiered_store(64, None, 1 << 20);
        for i in 0..1000 {
            s.set(format!("key-{i}").as_bytes(), &[7u8; 32]).unwrap();
        }
        let before = s.dbsize();
        let demand = sma.stats().slack_pages() + sma.held_pages() / 2;
        sma.reclaim(demand);
        let after = s.dbsize();
        assert!(after < before, "reclamation evicted entries");
        let st = s.stats();
        assert_eq!(
            st.cold_demotions, st.reclaimed_entries,
            "every eviction must demote"
        );
        // The oldest key was evicted — with a plain store this is a
        // miss (reclamation_turns_hits_into_misses); with the tier it
        // is a hit served from the arena and promoted back hot.
        assert_eq!(s.get(b"key-0"), Some(vec![7u8; 32]));
        let st = s.stats();
        assert!(st.cold_hits >= 1, "{st:?}");
        assert!(s.soft_bytes() > 0);
        // Promotion moved it hot: a second GET is a plain hot hit.
        let cold_hits_before = st.cold_hits;
        assert_eq!(s.get(b"key-0"), Some(vec![7u8; 32]));
        assert_eq!(s.stats().cold_hits, cold_hits_before);
        assert!(s.tier().unwrap().audit().is_empty());
    }

    #[test]
    fn tiered_store_spills_under_arena_pressure() {
        let path = temp_spill("spill");
        // Tiny arena cap so demotions overflow to disk quickly.
        let (sma, s) = tiered_store(48, Some(path.clone()), 8192);
        // Values must be incompressible-ish so the arena cap bites:
        // use the key index to vary bytes.
        for i in 0..1500u32 {
            let val: Vec<u8> = (0..48u32).map(|j| (i * 131 + j * 29) as u8).collect();
            s.set(format!("key-{i}").as_bytes(), &val).unwrap();
        }
        let demand = sma.stats().slack_pages() + sma.held_pages() / 2;
        sma.reclaim(demand);
        let st = s.stats();
        assert!(st.cold_demotions > 0);
        assert!(st.spill_writes > 0, "arena never overflowed: {st:?}");
        assert!(path.exists(), "spill log on disk");
        // Find a key that is actually on disk and promote it.
        let tier_stats = s.tier().unwrap().stats();
        assert!(tier_stats.disk_entries > 0);
        let mut disk_promotions = 0;
        for i in 0..1500u32 {
            let key = format!("key-{i}");
            if s.get(key.as_bytes()).is_some() {
                let now = s.stats();
                if now.spill_hits > disk_promotions {
                    disk_promotions = now.spill_hits;
                    let expect: Vec<u8> = (0..48u32).map(|j| (i * 131 + j * 29) as u8).collect();
                    assert_eq!(s.get(key.as_bytes()), Some(expect), "byte-identical");
                }
            }
            if disk_promotions > 4 {
                break;
            }
        }
        assert!(disk_promotions > 0, "no spill hit observed");
        assert!(s.tier().unwrap().audit().is_empty());
        drop(s);
        assert!(!path.exists(), "spill log removed on drop");
    }

    #[test]
    fn tiered_store_set_del_expire_invalidate_cold_copies() {
        let (sma, s) = tiered_store(64, None, 1 << 20);
        for i in 0..1000 {
            s.set(format!("key-{i}").as_bytes(), &[7u8; 32]).unwrap();
        }
        let demand = sma.stats().slack_pages() + sma.held_pages() / 2;
        sma.reclaim(demand);
        let tier = Arc::clone(s.tier().unwrap());
        assert!(tier.contains(b"key-0"), "oldest key demoted");
        // SET supersedes the cold copy.
        s.set(b"key-0", b"fresh").unwrap();
        assert!(!tier.contains(b"key-0"));
        assert_eq!(s.get(b"key-0"), Some(b"fresh".to_vec()));
        // DEL removes a cold-only key.
        assert!(tier.contains(b"key-1"));
        assert!(s.del(b"key-1"), "cold-only key still deletable");
        assert!(!tier.contains(b"key-1"));
        assert_eq!(s.get(b"key-1"), None);
        // EXISTS sees cold keys without promoting them.
        assert!(tier.contains(b"key-2"));
        let hits_before = s.stats().cold_hits;
        assert!(s.exists(b"key-2"));
        assert_eq!(s.stats().cold_hits, hits_before, "EXISTS must not promote");
        assert!(tier.contains(b"key-2"));
        // FLUSHALL empties both tiers.
        s.flushall();
        assert_eq!(s.dbsize(), 0);
        assert_eq!(tier.stats().arena_entries + tier.stats().disk_entries, 0);
        assert!(tier.audit().is_empty(), "{:?}", tier.audit());
    }

    #[test]
    fn tiered_store_corruption_is_a_clean_miss() {
        let (sma, s) = tiered_store(64, None, 1 << 20);
        for i in 0..1000 {
            s.set(format!("key-{i}").as_bytes(), &[0x5A; 32]).unwrap();
        }
        let demand = sma.stats().slack_pages() + sma.held_pages() / 2;
        sma.reclaim(demand);
        let tier = Arc::clone(s.tier().unwrap());
        assert!(tier.stats().arena_entries > 0);
        assert!(tier.corrupt_arena(0xBAD_5EED, 512) > 0);
        let mut misses = 0;
        for i in 0..1000 {
            match s.get(format!("key-{i}").as_bytes()) {
                None => misses += 1,
                Some(v) => assert!(
                    v.iter().all(|&b| b == 0x5A),
                    "torn data served from corrupt tier"
                ),
            }
        }
        assert!(misses > 0, "corruption never surfaced");
        let st = s.stats();
        assert!(st.cold_corruptions > 0, "{st:?}");
        assert!(tier.audit().is_empty(), "{:?}", tier.audit());
        s.refresh_gauges();
        assert_eq!(
            s.metrics().cold_corruptions.get(),
            st.cold_corruptions as i64
        );
        assert_eq!(s.metrics().cold_demotions.get(), st.cold_demotions);
        assert_eq!(s.metrics().cold_hits.get(), st.cold_hits);
    }

    #[test]
    fn deleted_key_is_never_resurrected_by_promotion() {
        // The promotion race the key stripes close: a GET finds the key
        // cold, takes it from the tier, and a DEL lands before the hot
        // reinsert. Unserialized, the promote would overwrite the
        // delete and the key would live forever. Run the pair under a
        // barrier many times — the key must be gone every time.
        let (_sma, s) = tiered_store(64, None, 1 << 20);
        for round in 0..50u32 {
            let key = format!("race-{round}");
            s.set(key.as_bytes(), &[9u8; 64]).unwrap();
            // Push it cold so the GET goes down the promotion path.
            s.shed(s.soft_bytes() + 4096);
            assert!(
                s.tier().unwrap().contains(key.as_bytes()),
                "key never went cold"
            );
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    barrier.wait();
                    let _ = s.get(key.as_bytes());
                });
                scope.spawn(|| {
                    barrier.wait();
                    s.del(key.as_bytes());
                });
            });
            assert_eq!(
                s.get(key.as_bytes()),
                None,
                "deleted key resurrected by a racing promotion"
            );
            assert!(!s.exists(key.as_bytes()));
        }
        assert!(s.tier().unwrap().audit().is_empty());
    }

    #[test]
    fn failed_set_keeps_cold_copy_readable() {
        // A SET that cannot get a hot slot must not destroy the cold
        // copy it meant to supersede: invalidation happens only after
        // the hot insert succeeds.
        struct DegradedSource;
        impl softmem_core::BudgetSource for DegradedSource {
            fn grant_more(
                &self,
                _need: usize,
                _want: usize,
            ) -> SoftResult<softmem_core::budget::Grant> {
                Err(SoftError::Denied {
                    reason: softmem_core::error::DenyReason::Degraded,
                })
            }
        }
        let sma = Sma::with_config(
            softmem_core::SmaConfig::for_testing(8)
                .free_pool_retain(0)
                .sds_retain(0),
        );
        sma.set_budget_source(Arc::new(DegradedSource));
        let tier = Arc::new(
            ColdTier::new(softmem_core::TierConfig {
                arena_cap_bytes: 1 << 20,
                segment_bytes: 4096,
                spill_path: None,
            })
            .unwrap(),
        );
        let s = Store::with_tier(
            &sma,
            "kv",
            Priority::new(4),
            EvictionOrder::InsertionOrder,
            "kv",
            Arc::clone(&tier),
        );
        s.set(b"victim", b"precious cold bytes").unwrap();
        // Demote everything, then let a sibling store starve the pool
        // so the next insert has nowhere to get a slot from.
        s.shed(s.soft_bytes() + 4096);
        assert!(tier.contains(b"victim"), "value never went cold");
        let hog = Store::new(&sma, "hog", Priority::new(4));
        for i in 0..2000u32 {
            hog.set(format!("hog-{i:06}").as_bytes(), &[7u8; 32])
                .expect("hog rides out the degraded budget by shedding");
        }
        let err = s
            .set(b"victim", b"replacement")
            .expect_err("no free page, no grant, nothing of its own to shed — this SET must fail");
        assert!(matches!(err, SoftError::BudgetExceeded { .. }), "{err:?}");
        // The failed SET left the old cold value untouched and readable.
        assert!(
            tier.contains(b"victim"),
            "failed SET destroyed the cold copy"
        );
        assert_eq!(
            s.get(b"victim"),
            Some(b"precious cold bytes".to_vec()),
            "cold value must survive a failed overwrite"
        );
    }

    #[test]
    fn paper_scale_130k_pairs_roughly_10mib() {
        // §5: "130K key-value pairs all allocated in soft memory
        // (10 MiB total)". Our entries are Vec-header structs in soft
        // memory (64 B class): 130 K × 64 B ≈ 8 MiB of slots plus the
        // order index — same order of magnitude; the bench harness
        // sizes values so the *total* footprint matches 10 MiB.
        let (sma, s) = store(1 << 16);
        for i in 0..13_000 {
            // scaled 10× down for test speed
            s.set(format!("key-{i:06}").as_bytes(), &[0u8; 16]).unwrap();
        }
        assert_eq!(s.dbsize(), 13_000);
        assert!(sma.held_pages() > 0);
    }
}
