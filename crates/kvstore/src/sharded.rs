//! The sharded command engine: N independent [`Store`]s behind one
//! keyspace.
//!
//! Redis scales past one core by running one engine per core and
//! hash-partitioning the keyspace; this module is that shape for the
//! soft-memory store. Each shard is a complete [`Store`] — its own
//! `SoftHashMap` SDS, its own telemetry registry (`kv0`, `kv1`, …),
//! its own expiry dict — so shards never contend on a data-structure
//! lock. Single-key operations route by a deterministic hash of the
//! key; cross-shard operations (`MGET`, `KEYS`, `DBSIZE`, `FLUSHALL`,
//! `SHED`, `INFO`/`STATS`) fan out and merge.
//!
//! A one-shard engine is byte-for-byte the old single store: same SDS
//! name, same `kv` metrics label, same `INFO`/`STATS` rendering — the
//! protocol-compatibility contract the existing test suite pins down.
//!
//! Reclamation interplay: every shard registers with the *same* SMA
//! (one allocator per process, as the paper prescribes), so the
//! daemon's priority ordering sees shards as distinct SDSs. The SMA's
//! tier-3 reclamation runs each shard's callback outside the global
//! allocator lock and re-acquires it only to return whole pages
//! (`softmem_core::sma`), which is what keeps a reclaim on shard A
//! from stalling `SET`s on shards B–N.

use std::sync::Arc;

use softmem_core::tier::{ColdTier, TierConfig};
use softmem_core::{Priority, Sma, SoftResult};
use softmem_sds::EvictionOrder;
use softmem_telemetry::Snapshot;

use crate::protocol::{CommandRef, Response};
use crate::store::{ReclaimCostModel, Store, StoreStats, Ttl};

/// FNV-1a over the key bytes: stable across platforms and runs, so a
/// key's shard — and therefore every routing decision, bench
/// distribution, and testkit schedule — is reproducible.
fn fnv1a(key: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A hash-partitioned keyspace of one or more [`Store`] shards.
///
/// # Examples
///
/// ```
/// use softmem_core::{Priority, Sma};
/// use softmem_kv::ShardedStore;
///
/// let sma = Sma::standalone(1024);
/// let engine = ShardedStore::new(&sma, "keyspace", Priority::new(4), 4);
/// engine.set(b"user:1", b"alice").unwrap();
/// assert_eq!(engine.get(b"user:1"), Some(b"alice".to_vec()));
/// assert_eq!(engine.dbsize(), 1);
/// assert_eq!(engine.shard_count(), 4);
/// ```
pub struct ShardedStore {
    shards: Vec<Arc<Store>>,
}

impl ShardedStore {
    /// Creates `shards` stores on `sma`, all at `priority`.
    ///
    /// With `shards == 1` the single store keeps the plain `name` and
    /// the `kv` metrics label — indistinguishable from a direct
    /// [`Store::new`]. With more, shard `i` registers its SDS as
    /// `{name}-s{i}` and labels its registry `kv{i}`.
    pub fn new(sma: &Arc<Sma>, name: &str, priority: Priority, shards: usize) -> Self {
        Self::with_eviction(sma, name, priority, EvictionOrder::InsertionOrder, shards)
    }

    /// [`ShardedStore::new`] with an explicit eviction order for every
    /// shard.
    pub fn with_eviction(
        sma: &Arc<Sma>,
        name: &str,
        priority: Priority,
        eviction: EvictionOrder,
        shards: usize,
    ) -> Self {
        let n = shards.max(1);
        let stores = (0..n)
            .map(|i| {
                let (sds_name, label) = if n == 1 {
                    (name.to_string(), "kv".to_string())
                } else {
                    (format!("{name}-s{i}"), format!("kv{i}"))
                };
                Arc::new(Store::with_eviction_labeled(
                    sma, &sds_name, priority, eviction, &label,
                ))
            })
            .collect();
        ShardedStore { shards: stores }
    }

    /// [`ShardedStore::with_eviction`] with a second-chance cold tier
    /// per shard (see [`Store::with_tier`]): each shard gets its own
    /// [`ColdTier`] built from `tier_cfg`, with the spill path (when
    /// configured) suffixed `-s{i}` on multi-shard engines so shards
    /// never share a log file.
    pub fn with_tier(
        sma: &Arc<Sma>,
        name: &str,
        priority: Priority,
        eviction: EvictionOrder,
        shards: usize,
        tier_cfg: TierConfig,
    ) -> std::io::Result<Self> {
        let n = shards.max(1);
        let mut stores = Vec::with_capacity(n);
        for i in 0..n {
            let (sds_name, label) = if n == 1 {
                (name.to_string(), "kv".to_string())
            } else {
                (format!("{name}-s{i}"), format!("kv{i}"))
            };
            let mut cfg = tier_cfg.clone();
            if n > 1 {
                cfg.spill_path = cfg.spill_path.map(|p| {
                    let mut os = p.into_os_string();
                    os.push(format!("-s{i}"));
                    os.into()
                });
            }
            let tier = Arc::new(ColdTier::new(cfg)?);
            stores.push(Arc::new(Store::with_tier(
                sma, &sds_name, priority, eviction, &label, tier,
            )));
        }
        Ok(ShardedStore { shards: stores })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (fnv1a(key) % self.shards.len() as u64) as usize
        }
    }

    /// Every shard, in index order.
    pub fn shards(&self) -> &[Arc<Store>] {
        &self.shards
    }

    fn owner(&self, key: &[u8]) -> &Store {
        &self.shards[self.shard_of(key)]
    }

    // ------------------------------------------------------------------
    // Single-key operations: route to the owning shard.
    // ------------------------------------------------------------------

    /// Stores `value` under `key` (overwrites). See [`Store::set`].
    pub fn set(&self, key: &[u8], value: &[u8]) -> SoftResult<()> {
        self.owner(key).set(key, value)
    }

    /// Fetches the value under `key`; `None` is a miss.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.owner(key).get(key)
    }

    /// Fetches the value under `key` directly into `buf` (appended);
    /// returns whether it was a hit. See [`Store::get_into`].
    pub fn get_into(&self, key: &[u8], buf: &mut Vec<u8>) -> bool {
        self.owner(key).get_into(key, buf)
    }

    /// Deletes `key`; returns whether it existed.
    pub fn del(&self, key: &[u8]) -> bool {
        self.owner(key).del(key)
    }

    /// Whether `key` is present.
    pub fn exists(&self, key: &[u8]) -> bool {
        self.owner(key).exists(key)
    }

    /// Sets a time-to-live on `key`; returns whether the key exists.
    pub fn expire(&self, key: &[u8], ttl: std::time::Duration) -> bool {
        self.owner(key).expire(key, ttl)
    }

    /// Clears any expiry on `key`; returns whether one was cleared.
    pub fn persist(&self, key: &[u8]) -> bool {
        self.owner(key).persist(key)
    }

    /// Queries the remaining time-to-live of `key`.
    pub fn ttl(&self, key: &[u8]) -> Ttl {
        self.owner(key).ttl(key)
    }

    /// Atomically increments the integer at `key` by `delta`.
    pub fn incr_by(&self, key: &[u8], delta: i64) -> Result<i64, String> {
        self.owner(key).incr_by(key, delta)
    }

    /// Stores `value` only if `key` is absent; whether it was stored.
    pub fn setnx(&self, key: &[u8], value: &[u8]) -> SoftResult<bool> {
        self.owner(key).setnx(key, value)
    }

    /// Appends `suffix` to the value at `key`; the new length.
    pub fn append(&self, key: &[u8], suffix: &[u8]) -> SoftResult<usize> {
        self.owner(key).append(key, suffix)
    }

    // ------------------------------------------------------------------
    // Cross-shard operations: fan out and merge.
    // ------------------------------------------------------------------

    /// Fetches several keys (position-matched; `None` = miss). Keys
    /// are grouped per shard, so each shard is visited once.
    pub fn mget<'k>(&self, keys: impl IntoIterator<Item = &'k [u8]>) -> Vec<Option<Vec<u8>>> {
        keys.into_iter().map(|k| self.owner(k).get(k)).collect()
    }

    /// Live keys across every shard.
    pub fn dbsize(&self) -> usize {
        self.shards.iter().map(|s| s.dbsize()).sum()
    }

    /// Drops every key on every shard.
    pub fn flushall(&self) {
        for s in &self.shards {
            s.flushall();
        }
    }

    /// Keys with the given prefix across every shard, sorted globally
    /// (each shard returns sorted keys; the merge re-sorts so the
    /// result is shard-count independent).
    pub fn keys_with_prefix(&self, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = self
            .shards
            .iter()
            .flat_map(|s| s.keys_with_prefix(prefix))
            .collect();
        out.sort();
        out
    }

    /// Manually gives up about `bytes` of soft memory, spread evenly
    /// across shards; returns the bytes actually freed.
    pub fn shed(&self, bytes: usize) -> usize {
        let n = self.shards.len();
        let per = bytes.div_ceil(n);
        self.shards.iter().map(|s| s.shed(per)).sum()
    }

    /// Bytes of soft memory across all shards' tables.
    pub fn soft_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.soft_bytes()).sum()
    }

    /// Pages of soft memory across all shards' heaps.
    pub fn soft_pages(&self) -> usize {
        self.shards.iter().map(|s| s.soft_pages()).sum()
    }

    /// Changes every shard's reclamation priority.
    pub fn set_priority(&self, priority: Priority) {
        for s in &self.shards {
            s.set_priority(priority);
        }
    }

    /// Sets the simulated per-entry cleanup cost on every shard.
    pub fn set_reclaim_cost(&self, per_entry: std::time::Duration) {
        for s in &self.shards {
            s.set_reclaim_cost(per_entry);
        }
    }

    /// Chooses the cleanup-cost model on every shard.
    pub fn set_reclaim_cost_model(&self, model: ReclaimCostModel) {
        for s in &self.shards {
            s.set_reclaim_cost_model(model);
        }
    }

    /// Total reclamation-callback time across shards.
    pub fn callback_time(&self) -> std::time::Duration {
        self.shards.iter().map(|s| s.callback_time()).sum()
    }

    /// Behaviour counters summed across shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.sets += st.sets;
            total.reclaimed_entries += st.reclaimed_entries;
            total.reclaimed_bytes += st.reclaimed_bytes;
            total.degraded_denies += st.degraded_denies;
            total.cold_demotions += st.cold_demotions;
            total.cold_hits += st.cold_hits;
            total.spill_hits += st.spill_hits;
            total.spill_writes += st.spill_writes;
            total.cold_corruptions += st.cold_corruptions;
        }
        total
    }

    /// Re-syncs every shard's occupancy gauges.
    pub fn refresh_gauges(&self) {
        for s in &self.shards {
            s.refresh_gauges();
        }
    }

    /// Point-in-time snapshots of every shard's registry, gauges
    /// refreshed, in shard order.
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.shards
            .iter()
            .map(|s| {
                s.refresh_gauges();
                s.metrics().snapshot()
            })
            .collect()
    }

    /// The `INFO` rendering for this engine.
    ///
    /// One shard renders exactly like the standalone store (the
    /// registry's flat form). Multiple shards render an aggregated machine
    /// view — ground-truth totals prefixed with the shard count, in
    /// the same field order.
    pub fn info_string(&self) -> String {
        if self.shards.len() == 1 {
            return crate::protocol::render_info(&self.shards[0]);
        }
        let s = self.stats();
        format!(
            "shards:{};keys:{};soft_bytes:{};soft_pages:{};hits:{};misses:{};sets:{};\
             reclaimed_entries:{};reclaimed_bytes:{};degraded_denies:{};\
             cold_demotions:{};cold_hits:{};spill_hits:{};spill_writes:{};\
             cold_corruptions:{}",
            self.shards.len(),
            self.dbsize(),
            self.soft_bytes(),
            self.soft_pages(),
            s.hits,
            s.misses,
            s.sets,
            s.reclaimed_entries,
            s.reclaimed_bytes,
            s.degraded_denies,
            s.cold_demotions,
            s.cold_hits,
            s.spill_hits,
            s.spill_writes,
            s.cold_corruptions,
        )
    }

    /// The `STATS` rendering: one line of JSON combining every shard's
    /// registry (`{"kv":{…}}` for one shard, `{"kv0":{…},"kv1":{…},…}`
    /// for more).
    pub fn stats_json(&self) -> String {
        softmem_telemetry::combined_json(&self.snapshots())
    }

    /// Parses and executes one request line — the whole engine behind
    /// one call, for in-process callers. (The reactor's shard workers
    /// parse once themselves and call [`Self::execute_at`] with their
    /// own shard.) A single-key command runs on the shard its key
    /// hashes to; keyless verbs take shard 0 as their home (only
    /// `PING` touches it — the cross-shard verbs merge over every
    /// shard). A line that does not parse is answered with
    /// [`Response::Error`], never an `Err`: it is the client's
    /// mistake, and the reply is what goes back on the wire.
    pub fn execute(&self, line: &str) -> Response {
        match CommandRef::parse(line) {
            Ok(cmd) => {
                let home = cmd.routing_key().map_or(0, |key| self.shard_of(key));
                self.execute_at(home, &cmd)
            }
            Err(msg) => Response::Error(msg),
        }
    }

    /// Executes a parsed command with shard `shard` as its home shard
    /// ([`Self::execute`] is the parse-and-route wrapper). Single-key
    /// commands and `PING` run on `shard`'s store — the caller routed
    /// by key, so `shard` must be [`Self::shard_of`] the key;
    /// cross-shard verbs fan out inline through the engine's merge
    /// helpers, with the same reply from any home shard.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= self.shard_count()`.
    pub fn execute_at(&self, shard: usize, cmd: &CommandRef<'_>) -> Response {
        match cmd {
            // Single-key commands (and PING, which measures one engine
            // round trip) execute on the home shard's store. The
            // caller routed by key, so `owner()` would be identity.
            CommandRef::Ping => cmd.execute(&self.shards[shard]),
            c if c.routing_key().is_some() => c.execute(&self.shards[shard]),
            // Cross-shard verbs merge inline.
            CommandRef::DbSize => Response::Int(self.dbsize() as i64),
            CommandRef::FlushAll => {
                self.flushall();
                Response::Ok("OK".into())
            }
            CommandRef::Keys { prefix } => Response::Array(self.keys_with_prefix(prefix)),
            CommandRef::Shed { bytes } => Response::Int(self.shed(*bytes) as i64),
            CommandRef::MGet { keys } => Response::Array(
                self.mget(keys.iter().copied())
                    .into_iter()
                    .map(|v| v.unwrap_or_else(|| b"(nil)".to_vec()))
                    .collect(),
            ),
            CommandRef::Info => Response::Bulk(Some(self.info_string().into_bytes())),
            CommandRef::Stats => Response::Bulk(Some(self.stats_json().into_bytes())),
            // The frontend handles connection/process teardown; the
            // engine just acknowledges.
            CommandRef::Shutdown => Response::Ok("OK".into()),
            // Every single-key variant was matched by routing_key().
            _ => unreachable!("single-key command fell through routing_key guard"),
        }
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("keys", &self.dbsize())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(shards: usize, budget_pages: usize) -> (Arc<Sma>, ShardedStore) {
        let sma = Sma::standalone(budget_pages);
        let e = ShardedStore::new(&sma, "kv", Priority::new(4), shards);
        (sma, e)
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let (_sma, e) = engine(4, 1024);
        for i in 0..64 {
            let key = format!("key-{i}");
            let s1 = e.shard_of(key.as_bytes());
            let s2 = e.shard_of(key.as_bytes());
            assert_eq!(s1, s2);
            assert!(s1 < 4);
        }
    }

    #[test]
    fn keys_land_on_their_shard_only() {
        let (_sma, e) = engine(4, 1024);
        for i in 0..100 {
            let key = format!("key-{i}");
            e.set(key.as_bytes(), b"v").unwrap();
            let owner = e.shard_of(key.as_bytes());
            for (idx, shard) in e.shards().iter().enumerate() {
                assert_eq!(
                    shard.exists(key.as_bytes()),
                    idx == owner,
                    "key {key} must live on shard {owner} only"
                );
            }
        }
        // A non-trivial spread: with 100 keys over 4 shards, every
        // shard holds something.
        for shard in e.shards() {
            assert!(shard.dbsize() > 0, "degenerate hash distribution");
        }
        assert_eq!(e.dbsize(), 100);
    }

    #[test]
    fn cross_shard_ops_merge() {
        let (_sma, e) = engine(4, 1024);
        for i in 0..20 {
            e.set(format!("user:{i}").as_bytes(), format!("u{i}").as_bytes())
                .unwrap();
        }
        e.set(b"other", b"x").unwrap();
        // MGET preserves request order regardless of shard placement.
        let got = e.mget([b"user:3".as_slice(), b"missing", b"user:11", b"other"]);
        assert_eq!(
            got,
            vec![
                Some(b"u3".to_vec()),
                None,
                Some(b"u11".to_vec()),
                Some(b"x".to_vec())
            ]
        );
        // KEYS is globally sorted.
        let keys = e.keys_with_prefix(b"user:1");
        assert_eq!(
            keys,
            vec![
                b"user:1".to_vec(),
                b"user:10".to_vec(),
                b"user:11".to_vec(),
                b"user:12".to_vec(),
                b"user:13".to_vec(),
                b"user:14".to_vec(),
                b"user:15".to_vec(),
                b"user:16".to_vec(),
                b"user:17".to_vec(),
                b"user:18".to_vec(),
                b"user:19".to_vec(),
            ]
        );
        assert_eq!(e.dbsize(), 21);
        e.flushall();
        assert_eq!(e.dbsize(), 0);
    }

    #[test]
    fn one_shard_matches_plain_store_identity() {
        let sma = Sma::standalone(256);
        let e = ShardedStore::new(&sma, "kv", Priority::new(4), 1);
        e.set(b"a", b"1").unwrap();
        e.get(b"a");
        e.get(b"nope");
        // SDS name is the plain name and the registry label is `kv`,
        // exactly like Store::new.
        assert!(
            e.stats_json().starts_with("{\"kv\":{"),
            "{}",
            e.stats_json()
        );
        let info = e.info_string();
        assert!(info.contains("keys:1"), "{info}");
        assert!(!info.contains("shards:"), "one shard renders unsharded");
        let st = e.stats();
        assert_eq!((st.hits, st.misses, st.sets), (1, 1, 1));
    }

    #[test]
    fn multi_shard_stats_aggregate_and_label() {
        let (_sma, e) = engine(2, 1024);
        for i in 0..30 {
            e.set(format!("k{i}").as_bytes(), b"v").unwrap();
            e.get(format!("k{i}").as_bytes());
        }
        let st = e.stats();
        assert_eq!(st.sets, 30);
        assert_eq!(st.hits, 30);
        let json = e.stats_json();
        assert!(json.contains("\"kv0\":{"), "{json}");
        assert!(json.contains("\"kv1\":{"), "{json}");
        assert!(!json.contains('\n'));
        let info = e.info_string();
        assert!(info.starts_with("shards:2;"), "{info}");
        assert!(info.contains("sets:30"), "{info}");
    }

    #[test]
    fn shed_spreads_across_shards() {
        let (_sma, e) = engine(4, 4096);
        for i in 0..4000 {
            e.set(format!("key-{i:05}").as_bytes(), &[1u8; 40]).unwrap();
        }
        let before = e.soft_pages();
        let freed = e.shed(e.soft_bytes() / 2);
        assert!(freed > 0);
        assert!(e.soft_pages() < before);
        // Every shard gave something up (even pressure).
        for shard in e.shards() {
            assert!(shard.stats().reclaimed_entries > 0);
        }
    }

    #[test]
    fn execute_at_merges_from_any_home_shard() {
        let (_sma, e) = engine(4, 1024);
        for i in 0..20 {
            let line = format!("SET user:{i} u{i}");
            let cmd = CommandRef::parse(&line).unwrap();
            let shard = e.shard_of(cmd.routing_key().unwrap());
            assert_eq!(e.execute_at(shard, &cmd), Response::Ok("OK".into()));
        }
        // Single-key reads land on the owning shard.
        let cmd = CommandRef::parse("GET user:3").unwrap();
        let shard = e.shard_of(b"user:3");
        assert_eq!(
            e.execute_at(shard, &cmd),
            Response::Bulk(Some(b"u3".to_vec()))
        );
        // Cross-shard verbs merge identically from *any* home shard.
        for home in 0..4 {
            assert_eq!(
                e.execute_at(home, &CommandRef::parse("DBSIZE").unwrap()),
                Response::Int(20)
            );
            let Response::Array(keys) =
                e.execute_at(home, &CommandRef::parse("KEYS user:1").unwrap())
            else {
                panic!("KEYS must return array");
            };
            assert_eq!(keys.len(), 11);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "globally sorted");
            assert_eq!(
                e.execute_at(home, &CommandRef::parse("MGET user:2 nope user:7").unwrap()),
                Response::Array(vec![b"u2".to_vec(), b"(nil)".to_vec(), b"u7".to_vec()])
            );
        }
        assert_eq!(
            e.execute_at(0, &CommandRef::parse("FLUSHALL").unwrap()),
            Response::Ok("OK".into())
        );
        assert_eq!(e.dbsize(), 0);
    }

    #[test]
    fn execute_routes_merges_and_reports_parse_errors() {
        let (_sma, e) = engine(4, 1024);
        for i in 0..40 {
            assert_eq!(
                e.execute(&format!("SET user:{i} u{i}")),
                Response::Ok("OK".into())
            );
        }
        assert_eq!(e.execute("DBSIZE"), Response::Int(40));
        // The line's key decides the shard: the value is where the
        // direct API looks for it.
        assert_eq!(e.get(b"user:7"), Some(b"u7".to_vec()));
        assert_eq!(
            e.execute("GET user:7\r\n"),
            Response::Bulk(Some(b"u7".to_vec()))
        );
        assert_eq!(e.execute("GET missing"), Response::Bulk(None));
        assert_eq!(e.execute("DEL user:7"), Response::Int(1));
        // MGET spans shards and preserves request order.
        assert_eq!(
            e.execute("MGET user:1 nope user:39"),
            Response::Array(vec![b"u1".to_vec(), b"(nil)".to_vec(), b"u39".to_vec()])
        );
        // INCR routes consistently: the counter lives on one shard.
        assert_eq!(e.execute("INCR hits"), Response::Int(1));
        assert_eq!(e.execute("INCR hits"), Response::Int(2));
        // INFO/STATS render the aggregated machine view.
        let Response::Bulk(Some(info)) = e.execute("INFO") else {
            panic!("INFO must return bulk");
        };
        let info = String::from_utf8(info).unwrap();
        assert!(info.starts_with("shards:4;"), "{info}");
        assert!(info.contains("keys:40"), "{info}");
        let Response::Bulk(Some(json)) = e.execute("STATS") else {
            panic!("STATS must return bulk");
        };
        let json = String::from_utf8(json).unwrap();
        for label in ["\"kv0\":{", "\"kv1\":{", "\"kv2\":{", "\"kv3\":{"] {
            assert!(json.contains(label), "{json}");
        }
        // Keyless verbs have no routing key; PING is answered from
        // shard 0, SHUTDOWN is only acknowledged.
        assert_eq!(e.execute("PING"), Response::Ok("PONG".into()));
        assert_eq!(e.execute("SHUTDOWN"), Response::Ok("OK".into()));
        // A line that does not parse is the client's error reply.
        for (line, want) in [
            ("WAT", "unknown command"),
            ("SET incomplete", "wrong number of arguments"),
            ("", "empty command"),
        ] {
            match e.execute(line) {
                Response::Error(msg) => assert!(msg.contains(want), "{line:?}: {msg}"),
                other => panic!("{line:?}: expected error, got {other:?}"),
            }
        }
        assert_eq!(e.execute("FLUSHALL"), Response::Ok("OK".into()));
        assert_eq!(e.dbsize(), 0);
    }

    #[test]
    fn concurrent_incr_on_one_key_loses_no_update() {
        // Nothing but the store serialises in-process callers: the
        // read and the write of an INCR must be one step per key.
        const N: i64 = 20_000;
        let (_sma, e) = engine(2, 1024);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..N {
                        assert!(matches!(e.execute("INCR ctr"), Response::Int(_)));
                    }
                });
            }
        });
        assert_eq!(e.get(b"ctr"), Some((2 * N).to_string().into_bytes()));
    }

    #[test]
    fn shards_racing_for_one_tight_budget_refuse_no_set() {
        // Two shards, one SMA, a budget far smaller than the keyspace:
        // nearly every SET sheds a page and retries. The page a shard
        // frees goes back to the shared pool, where the sibling's
        // concurrent retry can take it — one retry is not enough, and
        // a lost race must not surface as `-ERR OOM`.
        const PER_WRITER: usize = 150_000;
        let sma = Sma::with_config(
            softmem_core::SmaConfig::for_testing(48)
                .free_pool_retain(0)
                .sds_retain(0),
        );
        let e = ShardedStore::new(&sma, "kv", Priority::new(4), 2);
        // Each writer owns one shard, so the two never share a lock —
        // only the page pool.
        let keys_of = |shard: usize| -> Vec<Vec<u8>> {
            (0u32..)
                .map(|i| format!("key-{i:07}").into_bytes())
                .filter(|k| e.shard_of(k) == shard)
                .take(20_000)
                .collect()
        };
        let keys = [keys_of(0), keys_of(1)];
        // Fill the budget from one thread first, alternating shards, so
        // the race starts with the pages split about evenly. A shard
        // that holds no page at all has nothing to shed and is refused
        // until its sibling lets one go — a different failure (a late
        // starter locked out), which retrying cannot cure.
        for (a, b) in keys[0].iter().zip(&keys[1]).take(4_000) {
            e.set(a, &[7u8; 32]).unwrap();
            e.set(b, &[7u8; 32]).unwrap();
        }
        let start = std::sync::Barrier::new(2);
        let refused: usize = std::thread::scope(|scope| {
            let writers: Vec<_> = keys
                .iter()
                .map(|keys| {
                    scope.spawn(|| {
                        start.wait();
                        (0..PER_WRITER)
                            .filter(|i| e.set(&keys[i % keys.len()], &[7u8; 32]).is_err())
                            .count()
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(refused, 0, "SETs refused under a shared tight budget");
        assert!(
            e.stats().reclaimed_entries > 0,
            "the budget never forced a shed — nothing was tested"
        );
    }

    #[test]
    fn reclaim_on_shared_sma_sheds_across_shards() {
        let sma = Sma::with_config(
            softmem_core::SmaConfig::for_testing(128)
                .free_pool_retain(0)
                .sds_retain(0),
        );
        let e = ShardedStore::new(&sma, "kv", Priority::new(4), 4);
        for i in 0..2000 {
            e.set(format!("key-{i}").as_bytes(), &[7u8; 32]).unwrap();
        }
        let before = e.dbsize();
        let demand = sma.stats().slack_pages() + sma.held_pages() / 2;
        let report = sma.reclaim(demand);
        assert!(report.pages_released() > 0);
        let after = e.dbsize();
        assert!(after < before);
        assert_eq!(e.stats().reclaimed_entries, (before - after) as u64);
    }

    #[test]
    fn a_squeeze_in_one_shard_stalls_no_other_shard() {
        // Shard 0's squeeze runs its eviction callbacks under shard
        // 0's table lock, each sleeping 10 ms: emptying 128 entries
        // takes over a second. Shard 1 shares only the SMA with it,
        // so 1 000 SET+GET there finish while the squeeze still runs.
        const VICTIMS: usize = 128;
        const OPS: usize = 1_000;
        let (_sma, e) = engine(2, 4096);
        e.set_reclaim_cost(std::time::Duration::from_millis(10));
        e.set_reclaim_cost_model(ReclaimCostModel::Sleep);
        let keys_of = |shard: usize, n: usize| -> Vec<Vec<u8>> {
            (0u32..)
                .map(|i| format!("key-{i:05}").into_bytes())
                .filter(|k| e.shard_of(k) == shard)
                .take(n)
                .collect()
        };
        for key in keys_of(0, VICTIMS) {
            e.set(&key, &[7u8; 64]).unwrap();
        }
        let bystander = keys_of(1, OPS);
        let victim = &e.shards()[0];
        std::thread::scope(|scope| {
            let squeeze = scope.spawn(|| victim.shed(usize::MAX));
            // Inside the callbacks: one entry is done, the rest remain.
            while victim.callback_time().is_zero() {
                assert!(!squeeze.is_finished(), "squeeze ended before it was seen");
                std::thread::yield_now();
            }
            for (i, key) in bystander.iter().enumerate() {
                let value = format!("v{i}");
                e.set(key, value.as_bytes()).unwrap();
                assert_eq!(e.get(key), Some(value.into_bytes()));
            }
            assert!(
                !squeeze.is_finished(),
                "shard 1's ops waited for shard 0's squeeze to end"
            );
            squeeze.join().unwrap();
        });
        assert_eq!(e.shards()[0].dbsize(), 0);
        assert_eq!(e.stats().reclaimed_entries, VICTIMS as u64);
    }
}
