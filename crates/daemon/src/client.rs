//! The process-side runtime: gluing an SMA to the daemon.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use softmem_core::budget::Grant;
use softmem_core::{BudgetSource, Sma, SmaConfig, SoftError, SoftResult};

use crate::account::DirectChannel;
use crate::smd::{Pid, Smd};

/// The [`BudgetSource`] installed into a process's SMA: budget-growth
/// requests become daemon requests (§5 case 2 — "communication with
/// the memory daemon to increase resource budget is amortized over
/// many allocations" because the SMA requests in chunks).
struct DaemonBudgetSource {
    daemon: Weak<Smd>,
    pid: Pid,
}

impl BudgetSource for DaemonBudgetSource {
    fn grant_more(&self, need: usize, want: usize) -> SoftResult<Grant> {
        let daemon = self.daemon.upgrade().ok_or(SoftError::DaemonUnavailable)?;
        // The daemon pushes the grant into the SMA (under the daemon
        // lock) through the process's reclaim channel.
        daemon
            .request_range(self.pid, need, want)
            .map(Grant::applied)
    }
}

/// One soft-memory-enabled process: an [`Sma`] registered with the
/// machine's daemon.
///
/// Dropping the `SoftProcess` deregisters it (its budget returns to
/// the pool) and releases any traditional memory it reserved on the
/// machine model.
pub struct SoftProcess {
    sma: Arc<Sma>,
    daemon: Arc<Smd>,
    pid: Pid,
    name: String,
    traditional_pages: Mutex<usize>,
}

impl SoftProcess {
    /// Spawns a process against an in-process daemon, with the default
    /// SMA configuration on the daemon's machine.
    pub fn spawn(smd: &Arc<Smd>, name: &str) -> SoftResult<Arc<Self>> {
        let cfg = SmaConfig::new(Arc::clone(&smd.config().machine), 0);
        Self::spawn_with(smd, name, cfg)
    }

    /// Spawns a process with a custom SMA configuration.
    ///
    /// `cfg.initial_budget_pages` is ignored: the daemon's
    /// registration grant is authoritative.
    pub fn spawn_with(smd: &Arc<Smd>, name: &str, mut cfg: SmaConfig) -> SoftResult<Arc<Self>> {
        cfg.initial_budget_pages = 0;
        let sma = Sma::with_config(cfg);
        let channel = Arc::new(DirectChannel::new(Arc::clone(&sma)));
        // The daemon applies the registration grant through the
        // channel itself.
        let (pid, _grant) = smd.register(name, channel);
        sma.set_budget_source(Arc::new(DaemonBudgetSource {
            daemon: Arc::downgrade(smd),
            pid,
        }));
        Ok(Arc::new(SoftProcess {
            sma,
            daemon: Arc::clone(smd),
            pid,
            name: name.to_string(),
            traditional_pages: Mutex::new(0),
        }))
    }

    /// The process's allocator (pass to SDS constructors).
    pub fn sma(&self) -> &Arc<Sma> {
        &self.sma
    }

    /// The daemon-assigned pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The registration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Explicitly requests `pages` of budget (beyond the automatic
    /// growth the SMA performs on demand).
    pub fn request_pages(&self, pages: usize) -> SoftResult<usize> {
        // The daemon applies the grant through the reclaim channel.
        self.daemon.request_pages(self.pid, pages)
    }

    /// Voluntarily returns up to `pages` of unused budget to the
    /// daemon. Returns the pages actually released.
    pub fn release_slack(&self, pages: usize) -> SoftResult<usize> {
        let shed = self.sma.shrink_budget(pages);
        if shed > 0 {
            self.daemon.release_pages(self.pid, shed)?;
        }
        Ok(shed)
    }

    /// Models this process's traditional (non-revocable) memory: the
    /// delta is reserved/released on the machine and reported to the
    /// daemon for its weight policy.
    pub fn set_traditional_pages(&self, pages: usize) -> SoftResult<()> {
        let machine = Arc::clone(self.sma.machine());
        let mut current = self.traditional_pages.lock();
        if pages > *current {
            machine.reserve_traditional(pages - *current)?;
        } else {
            machine.release_traditional(*current - pages);
        }
        *current = pages;
        self.daemon.report_traditional(self.pid, pages)
    }

    /// Current modelled traditional footprint.
    pub fn traditional_pages(&self) -> usize {
        *self.traditional_pages.lock()
    }
}

impl Drop for SoftProcess {
    fn drop(&mut self) {
        self.sma.clear_budget_source();
        let _ = self.daemon.deregister(self.pid);
        let trad = *self.traditional_pages.lock();
        if trad > 0 {
            self.sma.machine().release_traditional(trad);
        }
    }
}

impl std::fmt::Debug for SoftProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftProcess")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("budget_pages", &self.sma.budget_pages())
            .field("held_pages", &self.sma.held_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmem_core::{MachineMemory, Priority};
    use softmem_sds::SoftQueue;

    use crate::smd::SmdConfig;

    fn setup(capacity: usize) -> (Arc<MachineMemory>, Arc<Smd>) {
        let machine = MachineMemory::new(capacity * 4);
        let smd = Smd::new(SmdConfig::new(&machine, capacity).initial_budget(4));
        (machine, smd)
    }

    #[test]
    fn spawn_registers_and_grants_initial_budget() {
        let (_m, smd) = setup(64);
        let p = SoftProcess::spawn(&smd, "svc").unwrap();
        assert_eq!(p.sma().budget_pages(), 4);
        assert_eq!(smd.stats().assigned_pages, 4);
        assert_eq!(p.name(), "svc");
    }

    #[test]
    fn allocations_grow_budget_through_daemon() {
        let (_m, smd) = setup(64);
        let p = SoftProcess::spawn(&smd, "svc").unwrap();
        let sds = p.sma().register_sds("data", Priority::default());
        for _ in 0..32 {
            p.sma().alloc_value(sds, [0u8; 4096]).unwrap();
        }
        assert!(p.sma().budget_pages() >= 32);
        assert_eq!(smd.stats().assigned_pages, p.sma().budget_pages());
    }

    #[test]
    fn cross_process_pressure_moves_memory() {
        let (_m, smd) = setup(32);
        let a = SoftProcess::spawn(&smd, "a").unwrap();
        let b = SoftProcess::spawn(&smd, "b").unwrap();
        let qa: SoftQueue<[u8; 4096]> = SoftQueue::new(a.sma(), "qa", Priority::new(1));
        for _ in 0..28 {
            qa.push([0u8; 4096]).unwrap();
        }
        // Machine-wide soft memory is nearly exhausted; b's demand
        // forces reclamation from a.
        let qb: SoftQueue<[u8; 4096]> = SoftQueue::new(b.sma(), "qb", Priority::new(1));
        for _ in 0..16 {
            qb.push([1u8; 4096]).unwrap();
        }
        assert_eq!(qb.len(), 16, "b never failed an allocation");
        assert!(qa.len() < 28, "a was reclaimed from (len {})", qa.len());
        assert!(smd.stats().pages_reclaimed_total > 0);
        assert!(qa.reclaim_stats().elements_reclaimed > 0);
    }

    #[test]
    fn denial_surfaces_to_the_allocating_process() {
        let machine = MachineMemory::new(256);
        // Tiny machine-wide soft capacity and an empty other process:
        // nothing to reclaim.
        let smd = Smd::new(SmdConfig::new(&machine, 8).initial_budget(0));
        let p = SoftProcess::spawn(&smd, "p").unwrap();
        let sds = p.sma().register_sds("data", Priority::default());
        let mut failures = 0;
        for _ in 0..12 {
            if p.sma().alloc_value(sds, [0u8; 4096]).is_err() {
                failures += 1;
            }
        }
        assert!(failures >= 4, "beyond capacity the daemon denies");
        assert!(smd.stats().denials_total > 0);
    }

    #[test]
    fn release_slack_returns_budget() {
        let (_m, smd) = setup(64);
        let p = SoftProcess::spawn(&smd, "p").unwrap();
        p.request_pages(20).unwrap();
        assert_eq!(p.sma().budget_pages(), 24);
        let shed = p.release_slack(100).unwrap();
        assert_eq!(shed, 24, "all slack returned");
        assert_eq!(smd.stats().assigned_pages, 0);
    }

    #[test]
    fn traditional_memory_is_modelled_and_reported() {
        let (machine, smd) = setup(64);
        let p = SoftProcess::spawn(&smd, "p").unwrap();
        p.set_traditional_pages(50).unwrap();
        assert_eq!(machine.stats().traditional_pages, 50);
        let snap = &smd.stats().procs[0];
        assert_eq!(snap.usage.traditional_pages, 50);
        p.set_traditional_pages(10).unwrap();
        assert_eq!(machine.stats().traditional_pages, 10);
        drop(p);
        assert_eq!(machine.stats().traditional_pages, 0);
    }

    #[test]
    fn drop_deregisters() {
        let (_m, smd) = setup(64);
        let p = SoftProcess::spawn(&smd, "p").unwrap();
        p.request_pages(10).unwrap();
        drop(p);
        let s = smd.stats();
        assert!(s.procs.is_empty());
        assert_eq!(s.assigned_pages, 0);
    }

    #[test]
    fn concurrent_processes_hammer_the_daemon() {
        let machine = MachineMemory::new(4096);
        let smd = Smd::new(SmdConfig::new(&machine, 512).initial_budget(0));
        let handles: Vec<_> = (0..4u8)
            .map(|t| {
                let smd = Arc::clone(&smd);
                std::thread::spawn(move || {
                    let p = SoftProcess::spawn(&smd, &format!("p{t}")).unwrap();
                    let q: SoftQueue<[u8; 1024]> =
                        SoftQueue::new(p.sma(), "q", Priority::new(t.into()));
                    for i in 0..400 {
                        // Push and occasionally pop to churn budget both ways.
                        q.push([t; 1024]).unwrap();
                        if i % 5 == 0 {
                            q.pop();
                        }
                    }
                    q.len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 320);
        }
        let s = smd.stats();
        assert!(s.procs.is_empty());
        assert_eq!(s.assigned_pages, 0);
    }

    #[test]
    fn orphaned_sma_fails_allocations_without_panicking() {
        let (_m, smd) = setup(64);
        let p = SoftProcess::spawn(&smd, "p").unwrap();
        let pid = p.pid();
        let sma = Arc::clone(p.sma());
        let sds = sma.register_sds("data", Priority::default());
        drop(p);
        // Deregistered: the SMA keeps the budget it was granted but can
        // no longer grow it.
        let past_budget = |sma: &Sma| {
            (0..8)
                .map(|_| sma.alloc_value(sds, [0u8; 4096]))
                .find_map(Result::err)
                .expect("allocations past the budget fail")
        };
        let exceeded = SoftError::BudgetExceeded {
            requested_pages: 1,
            available_pages: 0,
        };
        assert_eq!(past_budget(&sma), exceeded);
        drop(smd);
        assert_eq!(past_budget(&sma), exceeded);

        // A budget source captured before the process went away (an
        // allocation racing the drop) reaches the daemon itself.
        let (_m, smd) = setup(64);
        let source = DaemonBudgetSource {
            daemon: Arc::downgrade(&smd),
            pid,
        };
        assert_eq!(
            source.grant_more(1, 1).unwrap_err(),
            SoftError::UnknownProcess(pid)
        );
        drop(smd);
        assert_eq!(
            source.grant_more(1, 1).unwrap_err(),
            SoftError::DaemonUnavailable
        );
    }
}
