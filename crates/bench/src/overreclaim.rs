//! A4 — the §4 over-reclamation sweep.
//!
//! "The SMD demands a fixed memory percentage upon reclamation, which
//! may exceed the immediate soft memory request, in order to amortize
//! reclamation costs." This harness sweeps that percentage and
//! measures the trade-off: fewer, larger reclamations (cheaper
//! requests) versus more memory taken from the victim than strictly
//! needed (more disturbance).

use std::sync::Arc;
use std::time::Duration;

use softmem_core::{MachineMemory, Priority, SmaConfig};
use softmem_daemon::{Smd, SmdConfig, SoftProcess};
use softmem_sds::SoftQueue;

use crate::report::time;

/// Measured outcome for one over-reclamation fraction.
#[derive(Debug, Clone, Copy)]
pub struct OverReclaimOutcome {
    /// The fraction swept.
    pub fraction: f64,
    /// Pressure rounds the daemon ran (lower = better amortisation).
    pub reclaim_rounds: u64,
    /// Total pages moved from the victim.
    pub pages_moved: u64,
    /// Elements the victim lost.
    pub victim_losses: u64,
    /// Wall time of the requester's allocation sequence.
    pub elapsed: Duration,
}

impl OverReclaimOutcome {
    /// Pages moved beyond the strictly needed amount.
    pub fn overshoot_pages(&self, needed: u64) -> u64 {
        self.pages_moved.saturating_sub(needed)
    }
}

/// Runs one sweep point: a victim holds `victim_pages` of soft queue
/// data filling the machine; the requester then allocates
/// `request_pages` one page at a time (growth chunk = 1, so every page
/// is a daemon request), forcing repeated reclamation.
pub fn run_overreclaim(
    fraction: f64,
    victim_pages: usize,
    request_pages: usize,
) -> OverReclaimOutcome {
    let machine = MachineMemory::new(victim_pages * 8 + 8192);
    let smd = Smd::new(
        SmdConfig::new(&machine, victim_pages)
            .initial_budget(0)
            .over_reclaim(fraction),
    );
    let victim = SoftProcess::spawn(&smd, "victim").expect("spawn victim");
    let q: SoftQueue<[u8; 4096]> = SoftQueue::new(victim.sma(), "data", Priority::default());
    for _ in 0..victim_pages {
        q.push([0u8; 4096]).expect("fits capacity");
    }
    // The requester asks page by page: with no over-reclamation the
    // daemon must run a pressure round for every single page.
    let requester = SoftProcess::spawn_with(
        &smd,
        "requester",
        SmaConfig::new(Arc::clone(&machine), 0).auto_grow_chunk(1),
    )
    .expect("spawn requester");
    let sds = requester.sma().register_sds("data", Priority::default());
    let (elapsed, _) = time(|| {
        for _ in 0..request_pages {
            requester
                .sma()
                .alloc_bytes(sds, 4096)
                .expect("reclamation frees room");
        }
    });
    let stats = smd.stats();
    OverReclaimOutcome {
        fraction,
        reclaim_rounds: stats.reclaim_rounds_total,
        pages_moved: stats.pages_reclaimed_total,
        victim_losses: q.reclaim_stats().elements_reclaimed,
        elapsed,
    }
}

/// Sweeps the canonical fractions.
pub fn sweep(victim_pages: usize, request_pages: usize) -> Vec<OverReclaimOutcome> {
    [0.0, 0.05, 0.1, 0.25, 0.5]
        .into_iter()
        .map(|f| run_overreclaim(f, victim_pages, request_pages))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_overreclaim_runs_one_round_per_page() {
        let out = run_overreclaim(0.0, 128, 32);
        assert_eq!(out.reclaim_rounds, 32, "{out:?}");
        // Exactly the needed pages moved (within the page the queue
        // yields at a time).
        assert!(out.pages_moved >= 32 && out.pages_moved <= 40, "{out:?}");
    }

    #[test]
    fn overreclaim_amortises_rounds_at_the_cost_of_overshoot() {
        let none = run_overreclaim(0.0, 128, 10);
        let quarter = run_overreclaim(0.25, 128, 10);
        assert!(
            quarter.reclaim_rounds < none.reclaim_rounds / 2,
            "rounds {} vs {}",
            quarter.reclaim_rounds,
            none.reclaim_rounds
        );
        assert!(
            quarter.overshoot_pages(10) > none.overshoot_pages(10),
            "overshoot {} vs {}",
            quarter.overshoot_pages(10),
            none.overshoot_pages(10)
        );
    }

    #[test]
    fn sweep_covers_all_fractions() {
        let outs = sweep(64, 8);
        assert_eq!(outs.len(), 5);
        assert!(outs.windows(2).all(|w| w[0].fraction < w[1].fraction));
    }
}
