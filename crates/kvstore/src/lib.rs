//! # softmem-kv — a Redis-like in-memory key-value store on soft memory
//!
//! The paper evaluates soft memory by patching Redis so that its hash
//! table stores "the elements of its buckets in soft memory, turning it
//! into an SDS", while keys and values point to traditional heap memory
//! that the reclamation callback cleans up (§5). This crate is the
//! from-scratch substitute for that patched Redis (DESIGN.md §2):
//!
//! * [`Store`] — the command engine: a soft-memory hash table of
//!   entries whose key/value buffers live on the traditional heap and
//!   are released when an entry is reclaimed. A reclaimed key simply
//!   reads as *not found*, and "in a caching setup, the client would
//!   re-fetch these entries from a database". [`ShardedStore`]
//!   hash-partitions the keyspace over several of them;
//!   [`ShardedStore::execute`] runs one request line against it.
//! * [`protocol`] — a line-oriented command protocol (`SET`/`GET`/…)
//!   with Redis-flavoured replies.
//! * `reactor` (Linux) — the one serving plane: epoll reactors frame
//!   requests and hash-route them over SPSC rings to one worker per
//!   shard, which calls [`ShardedStore::execute`]. `kv_server` is this
//!   behind a TCP port; [`client`] is the blocking client for it.
//! * [`crash`] — the no-soft-memory baseline: a store that is killed
//!   under memory pressure and restarts cold (≥ 12 ms downtime plus a
//!   refill period of elevated misses, §5).
//!
//! # Examples
//!
//! ```
//! use softmem_core::{Priority, Sma};
//! use softmem_kv::Store;
//!
//! let sma = Sma::standalone(1024);
//! let store = Store::new(&sma, "cache", Priority::new(4));
//! store.set(b"user:1", b"alice").unwrap();
//! assert_eq!(store.get(b"user:1"), Some(b"alice".to_vec()));
//! assert_eq!(store.dbsize(), 1);
//!
//! // Under pressure the SMA reclaims entries; lookups turn into
//! // cache misses instead of crashes.
//! sma.reclaim(usize::MAX / 4096);
//! assert_eq!(store.get(b"user:1"), None);
//! ```

pub mod client;
pub mod crash;
mod metrics;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
mod sharded;
mod store;
#[cfg(target_os = "linux")]
pub mod swarm;

pub use client::TcpKvClient;
pub use metrics::StoreMetrics;
pub use protocol::{CommandRef, Response};
#[cfg(target_os = "linux")]
pub use reactor::{
    NetMetrics, NetStats, ReactorConfig, ReactorFrontend, RealSysIo, SysIo, WorkerHook,
};
pub use sharded::ShardedStore;
pub use store::{ReclaimCostModel, Store, StoreStats, Ttl};
#[cfg(target_os = "linux")]
pub use swarm::{RunOpts, Swarm, SwarmReport};
