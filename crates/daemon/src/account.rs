//! Per-process accounting and the daemon↔process reclamation channel.

use std::sync::Arc;

use softmem_core::Sma;

/// How the daemon reaches into a process to observe usage and demand
/// reclamation.
///
/// The default implementation ([`DirectChannel`]) calls the process's
/// SMA synchronously — our threads-as-processes substitution. The
/// [`crate::uds`] deployment routes the same calls over a unix socket
/// instead; the daemon logic is identical either way.
pub trait ReclaimChannel: Send + Sync {
    /// Pages the process currently holds physically in soft memory.
    fn soft_pages_held(&self) -> usize;

    /// Budget pages not backed by physical pages (cheap to surrender —
    /// the "more flexible memory state" §4 biases toward).
    fn slack_pages(&self) -> usize;

    /// Demands that the process yield `pages` pages. Blocks until the
    /// process's SMA has run its reclamation protocol.
    fn demand(&self, pages: usize) -> ReclaimReply;

    /// Applies a budget grant to the process's SMA.
    ///
    /// Called by the daemon *while holding its own lock*, so that a
    /// later demand (also under that lock) can never observe a
    /// granted-but-unapplied budget — the consistency that makes the
    /// daemon "almost never deny" (§3.3) hold under concurrency.
    fn grant(&self, pages: usize);

    /// Whether the process is still reachable. Remote transports
    /// return `false` once the connection drops, letting the daemon
    /// reap the account (and reclaim its phantom budget) without
    /// waiting for an explicit deregistration.
    fn is_alive(&self) -> bool {
        true
    }

    /// When the daemon last heard from the process over this channel
    /// (any protocol line, including heartbeats).
    ///
    /// Returns `None` for transports with no lease semantics —
    /// in-process channels are exempt from lease expiry because the
    /// process cannot outlive the daemon's view of it. Remote
    /// transports return the receive time of the last line so the
    /// daemon can reap accounts whose lease TTL has lapsed. Must not
    /// take the daemon lock (it is called while that lock is held).
    fn last_activity(&self) -> Option<std::time::Instant> {
        None
    }
}

/// Result of one reclamation demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimReply {
    /// Pages the process gave up (budget slack + physical releases).
    pub yielded_pages: usize,
    /// Pages the demand fell short by.
    pub shortfall_pages: usize,
}

/// A [`ReclaimChannel`] that invokes a co-resident SMA directly.
pub struct DirectChannel {
    sma: Arc<Sma>,
}

impl DirectChannel {
    /// Wraps an SMA.
    pub fn new(sma: Arc<Sma>) -> Self {
        DirectChannel { sma }
    }
}

impl ReclaimChannel for DirectChannel {
    fn soft_pages_held(&self) -> usize {
        self.sma.held_pages()
    }

    fn slack_pages(&self) -> usize {
        self.sma.stats().slack_pages()
    }

    fn demand(&self, pages: usize) -> ReclaimReply {
        let report = self.sma.reclaim(pages);
        ReclaimReply {
            yielded_pages: report.total_yielded(),
            shortfall_pages: report.shortfall(),
        }
    }

    fn grant(&self, pages: usize) {
        self.sma.grow_budget(pages);
    }
}

/// The usage snapshot a weight policy scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcUsage {
    /// Physical soft pages held.
    pub soft_pages: usize,
    /// Traditional (non-revocable) pages, as reported by the process.
    pub traditional_pages: usize,
    /// Soft budget currently assigned.
    pub budget_pages: usize,
}

impl ProcUsage {
    /// Total memory footprint in pages.
    pub fn footprint(&self) -> usize {
        self.soft_pages + self.traditional_pages
    }
}

/// Public snapshot of one registered process (for stats and tooling).
#[derive(Debug, Clone)]
pub struct ProcSnapshot {
    /// Daemon-assigned process id.
    pub pid: u64,
    /// Registration name.
    pub name: String,
    /// Usage at snapshot time.
    pub usage: ProcUsage,
    /// Reclamation weight under the daemon's active policy.
    pub weight: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmem_core::Priority;

    #[test]
    fn direct_channel_reflects_sma_state() {
        let sma = Sma::standalone(10);
        let sds = sma.register_sds("t", Priority::default());
        let _slot = sma.alloc_value(sds, [0u8; 4096]).unwrap();
        let ch = DirectChannel::new(Arc::clone(&sma));
        assert_eq!(ch.soft_pages_held(), 1);
        assert_eq!(ch.slack_pages(), 9);
        let reply = ch.demand(5);
        assert_eq!(reply.yielded_pages, 5);
        assert_eq!(reply.shortfall_pages, 0);
        assert_eq!(sma.budget_pages(), 5);
    }

    #[test]
    fn usage_footprint() {
        let u = ProcUsage {
            soft_pages: 3,
            traditional_pages: 7,
            budget_pages: 5,
        };
        assert_eq!(u.footprint(), 10);
    }
}
