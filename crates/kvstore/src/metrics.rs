//! The KV server's telemetry registry.
//!
//! Mirrors of the store's behaviour counters (which the testkit's
//! metrics-consistency family certifies against ground truth), per-op
//! and reclamation-callback latency histograms, and keyspace occupancy
//! gauges refreshed before every snapshot.

use std::sync::Arc;

use softmem_telemetry::{Counter, Gauge, Histogram, Registry, Snapshot};

/// The store's metric set (registry label `kv` for a standalone store;
/// shard `i` of a sharded engine labels its registry `kv{i}`).
pub struct StoreMetrics {
    registry: Registry,
    /// Live keys (refreshed via [`crate::Store::refresh_gauges`]).
    pub keys: Arc<Gauge>,
    /// Bytes of soft memory held by the table.
    pub soft_bytes: Arc<Gauge>,
    /// Pages of soft memory attached to the table's heap.
    pub soft_pages: Arc<Gauge>,
    /// Mirror of [`crate::StoreStats::hits`].
    pub hits: Arc<Counter>,
    /// Mirror of [`crate::StoreStats::misses`].
    pub misses: Arc<Counter>,
    /// Mirror of [`crate::StoreStats::sets`].
    pub sets: Arc<Counter>,
    /// Mirror of [`crate::StoreStats::reclaimed_entries`].
    pub reclaimed_entries: Arc<Counter>,
    /// Mirror of [`crate::StoreStats::reclaimed_bytes`].
    pub reclaimed_bytes: Arc<Counter>,
    /// Mirror of [`crate::StoreStats::degraded_denies`].
    pub degraded_denies: Arc<Counter>,
    /// Mirror of [`crate::StoreStats::cold_demotions`]: evictions
    /// demoted into the cold tier (incremented at each demote site).
    pub cold_demotions: Arc<Counter>,
    /// Mirror of [`crate::StoreStats::cold_hits`]: GETs promoted out
    /// of the cold arena.
    pub cold_hits: Arc<Counter>,
    /// Mirror of [`crate::StoreStats::spill_hits`]: GETs promoted off
    /// the spill log.
    pub spill_hits: Arc<Counter>,
    /// Live entries in the cold arena (refreshed from tier stats).
    pub cold_entries: Arc<Gauge>,
    /// Cold-arena DRAM footprint in bytes.
    pub cold_bytes: Arc<Gauge>,
    /// Live entries on the spill log.
    pub spill_entries: Arc<Gauge>,
    /// Spill-log bytes referenced by live entries.
    pub spill_bytes: Arc<Gauge>,
    /// Mirror of [`crate::StoreStats::spill_writes`] (set from tier
    /// ground truth on refresh — spills happen inside the tier, out of
    /// the store's sight).
    pub spill_writes: Arc<Gauge>,
    /// Mirror of [`crate::StoreStats::cold_corruptions`] (set from
    /// tier ground truth on refresh).
    pub cold_corruptions: Arc<Gauge>,
    /// Spill-log compaction passes (set from tier ground truth on
    /// refresh).
    pub spill_compactions: Arc<Gauge>,
    /// Reclamation-callback duration (ns), one sample per entry lost.
    pub callback_ns: Arc<Histogram>,
    /// Commands executed by this store ([`crate::CommandRef::execute`]).
    pub ops: Arc<Counter>,
    /// Per-command execution latency (ns), across all verbs, sampled:
    /// one in [`softmem_telemetry::SAMPLE_EVERY`] of `ops` is timed,
    /// so at rest `op_ns.count == ops.div_ceil(SAMPLE_EVERY)`.
    pub op_ns: Arc<Histogram>,
}

impl StoreMetrics {
    pub(crate) fn new(label: &str) -> Self {
        let registry = Registry::new(label);
        StoreMetrics {
            keys: registry.gauge("keys"),
            soft_bytes: registry.gauge("soft_bytes"),
            soft_pages: registry.gauge("soft_pages"),
            hits: registry.counter("hits"),
            misses: registry.counter("misses"),
            sets: registry.counter("sets"),
            reclaimed_entries: registry.counter("reclaimed_entries"),
            reclaimed_bytes: registry.counter("reclaimed_bytes"),
            degraded_denies: registry.counter("degraded_denies"),
            cold_demotions: registry.counter("cold_demotions"),
            cold_hits: registry.counter("cold_hits"),
            spill_hits: registry.counter("spill_hits"),
            cold_entries: registry.gauge("cold_entries"),
            cold_bytes: registry.gauge("cold_bytes"),
            spill_entries: registry.gauge("spill_entries"),
            spill_bytes: registry.gauge("spill_bytes"),
            spill_writes: registry.gauge("spill_writes"),
            cold_corruptions: registry.gauge("cold_corruptions"),
            spill_compactions: registry.gauge("spill_compactions"),
            callback_ns: registry.histogram("callback_ns"),
            ops: registry.counter("ops"),
            op_ns: registry.histogram("op_ns"),
            registry,
        }
    }

    /// The underlying registry (for snapshots and rendering).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl std::fmt::Debug for StoreMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreMetrics")
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .field("sets", &self.sets.get())
            .finish_non_exhaustive()
    }
}
