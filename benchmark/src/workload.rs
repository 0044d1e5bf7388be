//! The four workloads. Sizes, mixes and rates are fixed here, not on
//! the command line: a workload is a named, repeatable input, and two
//! runs of one name must mean the same thing.

/// How a connection is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// Closed loop: `pipeline` requests in flight per connection, the
    /// next one sent when a reply frees a slot. Callers that wait.
    Closed { pipeline: usize },
    /// Open loop: one request every `1/rate` seconds regardless of
    /// replies, latency timed from the due time. Independent users.
    Open { rate_per_s: u64 },
}

/// Where the measured server's soft memory comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memory {
    /// `kv_server --budget-mib N`: a fixed private budget.
    Budget { mib: usize },
    /// `smd_daemon --capacity-mib N` + `kv_server --smd-socket`: the
    /// machine's soft memory is shared and revocable.
    Daemon { capacity_mib: usize },
}

/// The second tenant of `tenant_squeeze`: `cycles_per_window` times per
/// window it bursts `burst_sets` SETs into its own `kv_server` (forcing
/// the daemon to take pages from the measured tenant) and later
/// `FLUSHALL`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggressor {
    pub burst_sets: u64,
    pub value_len: usize,
    pub cycles_per_window: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub keys: u64,
    pub value_len: usize,
    pub get_pct: u32,
    pub conns: usize,
    /// `kv_server --shards`: engine threads of the measured server.
    pub shards: usize,
    pub drive: Drive,
    pub memory: Memory,
    /// Keys `0..preload_keys` (the hottest) are SET during set-up.
    pub preload_keys: u64,
    pub aggressor: Option<Aggressor>,
}

/// Every server runs one reactor: with at most two shard workers and
/// two loadgen threads beside it, the run fits a 2-core box.
pub const REACTORS: &str = "1";
/// The second tenant of `tenant_squeeze` only takes bursts of SETs.
pub const AGGRESSOR_SHARDS: usize = 1;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "hot_read",
        why: "fits in budget, 95% GET, pipeline 32: protocol + store read path do all the work, reclaim none",
        keys: 200_000,
        value_len: 128,
        get_pct: 95,
        conns: 2,
        shards: 2,
        drive: Drive::Closed { pipeline: 32 },
        memory: Memory::Budget { mib: 64 },
        preload_keys: 200_000,
        aggressor: None,
    },
    Spec {
        name: "pingpong",
        why: "pipeline 1, tiny values: one syscall round trip per request, so the network plane dominates; control for store/SMA changes",
        keys: 100_000,
        value_len: 16,
        get_pct: 90,
        conns: 2,
        shards: 2,
        drive: Drive::Closed { pipeline: 1 },
        memory: Memory::Budget { mib: 64 },
        preload_keys: 100_000,
        aggressor: None,
    },
    Spec {
        name: "churn_pressure",
        why: "2M keys against a 4 MiB budget, 50% SET: nearly every SET allocates, self-reclaims and runs eviction callbacks",
        keys: 2_000_000,
        value_len: 512,
        get_pct: 50,
        conns: 2,
        // One shard, not two: two shard workers evicting against one
        // shared budget race (a page freed by one is taken by the
        // other before the retry) and a few SETs per million are
        // refused; a workload must be one on which nothing fails.
        shards: 1,
        drive: Drive::Closed { pipeline: 32 },
        memory: Memory::Budget { mib: 4 },
        preload_keys: 80_000,
        aggressor: None,
    },
    Spec {
        name: "tenant_squeeze",
        why: "open loop at a fixed rate while a second tenant's bursts make the daemon revoke this one's pages over the real UDS path",
        keys: 120_000,
        value_len: 128,
        get_pct: 90,
        conns: 1,
        shards: 2,
        drive: Drive::Open { rate_per_s: 40_000 },
        memory: Memory::Daemon { capacity_mib: 8 },
        preload_keys: 120_000,
        // Sized in the A/A study: one 100k burst per window moves as
        // many pages but in a dozen long stalls per run, and p99 then
        // swings ±25 % between runs; four 50k bursts per window keep
        // the daemon as busy (≈ 25 reclaim rounds / 20 s) in more,
        // shorter events.
        aggressor: Some(Aggressor {
            burst_sets: 50_000,
            value_len: 128,
            cycles_per_window: 4,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_consistent() {
        for w in &WORKLOADS {
            assert!(w.preload_keys <= w.keys, "{}", w.name);
            assert!(w.get_pct <= 100 && (1..=2).contains(&w.conns) && (1..=2).contains(&w.shards));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert_eq!(find(w.name), Some(w));
            // The daemon is spawned exactly when a second tenant exists.
            assert_eq!(
                matches!(w.memory, Memory::Daemon { .. }),
                w.aggressor.is_some()
            );
        }
        assert_eq!(find("nope"), None);
    }
}
