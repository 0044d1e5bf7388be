//! The machine-wide invariant checker.
//!
//! Five families, checked between pressure phases (with every worker
//! parked at a barrier) and again at quiesce:
//!
//! 1. **Machine-page conservation** — the machine model's used pages
//!    equal the sum of every process's physically held soft pages plus
//!    all reserved traditional pages. Pages parked on an SMR limbo
//!    list (freed while a read guard was pinned) stay charged to their
//!    SMA, so each process's limbo gauge is bounded by its held pages.
//! 2. **Budget conservation** — for every registered process, the
//!    daemon's ledger and the process's SMA agree on the budget; total
//!    assignment never exceeds daemon capacity; no SMA holds more
//!    pages than its budget.
//! 3. **Generation safety** — every live handle reads back its fill
//!    pattern; every revoked/freed handle fails with `Revoked` or
//!    `InvalidHandle`, never stale data. Guarded dwell-reads (a reader
//!    pinning an SMR guard across concurrent frees and reclamation)
//!    must observe their snapshot bytes for the whole dwell — never a
//!    later generation's payload.
//! 4. **Callback accounting** — queue elements are conserved across
//!    push/pop/reclaim, and every reclaimed element produced exactly
//!    one reclaim-callback invocation (even when callbacks panic).
//! 5. **Metrics consistency** — every telemetry counter mirror equals
//!    the checker's ground truth (SMA/SMD stats, store counters, queue
//!    callback hits) and every occupancy gauge equals the point value
//!    it claims to track — including the allocator fast path's
//!    delta-maintained depot/magazine gauges and the per-SDS
//!    `sds{i}_magazine_*` gauges, cross-checked against
//!    `Sma::all_sds_stats`. Stores with a cold tier additionally get
//!    their `cold_*`/`spill_*` counter mirrors certified and the
//!    tier's demotion conservation law audited (every demoted entry is
//!    promoted, invalidated, replaced, dropped, corrupted, or still
//!    resident). Skipped entirely when the `telemetry` feature is off.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use softmem_core::MachineMemory;
use softmem_daemon::Smd;
use softmem_kv::Store;

use crate::pool::HandlePool;
use crate::process::TkProcess;
use crate::queue::CountedQueue;

/// The five invariant families the harness checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvariantFamily {
    /// Machine-page conservation.
    MachinePages,
    /// Budget conservation across SMD accounts.
    BudgetConservation,
    /// Generation safety of handles.
    GenerationSafety,
    /// No-lost-callback accounting.
    CallbackAccounting,
    /// Telemetry counters agree with checker ground truth.
    MetricsConsistency,
    /// Network-plane conservation: once traffic ceases the reactor
    /// frontend must quiesce (`requests_total == replies_total`, no
    /// parked frames), per-connection server memory stays bounded by
    /// the configured high-water mark plus the in-flight window, a
    /// slow reader provably trips the pause machinery, and every
    /// accepted fd is eventually closed (`accepted == closed` at
    /// teardown). Checked by the net driver in scenarios that carry a
    /// [`crate::scenario::NetSpec`]; the driver's engine and process
    /// also feed the five families above.
    NetworkPlane,
    /// Conservation and availability across a daemon crash/restart:
    /// post-reconcile, the sum of client-held pages stays within
    /// machine capacity, every adopted ledger entry matches its
    /// client's SMA, and no client ever saw `DaemonUnavailable`
    /// (fail-local degraded mode absorbed the outage). Checked only by
    /// the [`crate::restart`] chaos harness.
    RestartConservation,
}

impl fmt::Display for InvariantFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantFamily::MachinePages => "machine-pages",
            InvariantFamily::BudgetConservation => "budget-conservation",
            InvariantFamily::GenerationSafety => "generation-safety",
            InvariantFamily::CallbackAccounting => "callback-accounting",
            InvariantFamily::MetricsConsistency => "metrics-consistency",
            InvariantFamily::NetworkPlane => "network-plane",
            InvariantFamily::RestartConservation => "restart-conservation",
        };
        f.write_str(s)
    }
}

/// One observed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which family failed.
    pub family: InvariantFamily,
    /// Where in the run it was observed (e.g. `after phase 1`,
    /// `quiesce`).
    pub at: String,
    /// Human-readable description with the observed numbers.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.family, self.at, self.detail)
    }
}

/// Everything the checker needs to see at a checkpoint.
pub struct CheckScope<'a> {
    /// The machine model under test.
    pub machine: &'a Arc<MachineMemory>,
    /// The daemon under test.
    pub smd: &'a Arc<Smd>,
    /// Every process ever created by the scenario (including
    /// disconnected ones — their memory is still reserved).
    pub procs: &'a [Arc<TkProcess>],
    /// Every handle pool.
    pub pools: &'a [Arc<HandlePool>],
    /// Every counted queue.
    pub queues: &'a [Arc<CountedQueue>],
    /// Every KV store (empty for scenarios without one).
    pub stores: &'a [Arc<Store>],
}

impl CheckScope<'_> {
    /// Runs all five families, labelling violations with `at`.
    pub fn check_all(&self, at: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        v.extend(self.check_machine_pages(at));
        v.extend(self.check_budget_conservation(at));
        v.extend(self.check_generation_safety(at));
        v.extend(self.check_callback_accounting(at));
        v.extend(self.check_metrics_consistency(at));
        v
    }

    /// Family 1: machine-page conservation.
    pub fn check_machine_pages(&self, at: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        let ms = self.machine.stats();
        let held: usize = self.procs.iter().map(|p| p.sma().held_pages()).sum();
        let expected = held + ms.traditional_pages;
        if ms.used_pages != expected {
            v.push(Violation {
                family: InvariantFamily::MachinePages,
                at: at.to_string(),
                detail: format!(
                    "machine used_pages {} != sum of SMA held {} + traditional {}",
                    ms.used_pages, held, ms.traditional_pages
                ),
            });
        }
        // SMR limbo conservation: a limbo'd page is still *held* —
        // charged to the owning SMA and counted in the machine sum
        // above — until the deferred flush returns it. The limbo gauge
        // can therefore never exceed held pages; if it does, a page
        // was double-parked or returned without leaving the list.
        for proc in self.procs {
            let s = proc.sma().stats();
            if s.smr_limbo_pages > s.held_pages {
                v.push(Violation {
                    family: InvariantFamily::MachinePages,
                    at: at.to_string(),
                    detail: format!(
                        "pid {} (`{}`): {} limbo page(s) exceed the {} page(s) the SMA holds",
                        proc.pid(),
                        proc.name(),
                        s.smr_limbo_pages,
                        s.held_pages
                    ),
                });
            }
        }
        let trad: usize = self.procs.iter().map(|p| p.traditional_pages()).sum();
        if ms.traditional_pages != trad {
            v.push(Violation {
                family: InvariantFamily::MachinePages,
                at: at.to_string(),
                detail: format!(
                    "machine traditional_pages {} != sum of process traditional {}",
                    ms.traditional_pages, trad
                ),
            });
        }
        v
    }

    /// Family 2: budget conservation across SMD accounts.
    pub fn check_budget_conservation(&self, at: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        let stats = self.smd.stats();
        if stats.assigned_pages > stats.capacity_pages {
            v.push(Violation {
                family: InvariantFamily::BudgetConservation,
                at: at.to_string(),
                detail: format!(
                    "daemon assigned {} pages over its capacity {}",
                    stats.assigned_pages, stats.capacity_pages
                ),
            });
        }
        let by_pid: HashMap<u64, &Arc<TkProcess>> =
            self.procs.iter().map(|p| (p.pid(), p)).collect();
        for snap in &stats.procs {
            let Some(proc) = by_pid.get(&snap.pid) else {
                continue; // a process the harness doesn't own
            };
            let sma_budget = proc.sma().budget_pages();
            if sma_budget != snap.usage.budget_pages {
                v.push(Violation {
                    family: InvariantFamily::BudgetConservation,
                    at: at.to_string(),
                    detail: format!(
                        "pid {} (`{}`): SMA budget {} != daemon ledger {}",
                        snap.pid, snap.name, sma_budget, snap.usage.budget_pages
                    ),
                });
            }
            let held = proc.sma().held_pages();
            if held > sma_budget {
                v.push(Violation {
                    family: InvariantFamily::BudgetConservation,
                    at: at.to_string(),
                    detail: format!(
                        "pid {} (`{}`): holds {} pages over its budget {}",
                        snap.pid, snap.name, held, sma_budget
                    ),
                });
            }
        }
        // Active processes must still be on the daemon's books.
        let ledger: HashMap<u64, usize> = stats
            .procs
            .iter()
            .map(|s| (s.pid, s.usage.budget_pages))
            .collect();
        for proc in self.procs {
            if proc.is_active() && !ledger.contains_key(&proc.pid()) {
                v.push(Violation {
                    family: InvariantFamily::BudgetConservation,
                    at: at.to_string(),
                    detail: format!(
                        "active pid {} (`{}`) missing from the daemon ledger",
                        proc.pid(),
                        proc.name()
                    ),
                });
            }
        }
        v
    }

    /// Family 3: generation safety.
    pub fn check_generation_safety(&self, at: &str) -> Vec<Violation> {
        self.pools
            .iter()
            .flat_map(|pool| pool.audit())
            .map(|detail| Violation {
                family: InvariantFamily::GenerationSafety,
                at: at.to_string(),
                detail,
            })
            .collect()
    }

    /// Family 4: no-lost-callback accounting.
    pub fn check_callback_accounting(&self, at: &str) -> Vec<Violation> {
        self.queues
            .iter()
            .flat_map(|queue| queue.audit())
            .map(|detail| Violation {
                family: InvariantFamily::CallbackAccounting,
                at: at.to_string(),
                detail,
            })
            .collect()
    }

    /// Family 5: metrics consistency — every telemetry mirror equals
    /// the ground-truth counter the checker trusts, and every
    /// occupancy gauge equals the point value it claims to track.
    ///
    /// Checked at quiesce points only (workers parked), because
    /// mirrors and ground truth are updated by separate atomic writes
    /// and may transiently disagree mid-operation.
    pub fn check_metrics_consistency(&self, at: &str) -> Vec<Violation> {
        let mut defects: Vec<String> = Vec::new();
        for proc in self.procs {
            let m = proc.sma().metrics();
            let s = proc.sma().stats();
            // allocs/frees totals are intentionally absent: SmaStats
            // folds in per-SDS counts that vanish when an SDS is
            // destroyed, so they are not stable ground truth.
            let counters = [
                ("reclaims_total", m.reclaims_total.get(), s.reclaims_total),
                (
                    "pages_reclaimed_total",
                    m.pages_reclaimed_total.get(),
                    s.pages_reclaimed_total,
                ),
                (
                    "budget_granted_total",
                    m.budget_granted_total.get(),
                    s.budget_granted_total,
                ),
                (
                    "magazine_refills_total",
                    m.magazine_refills_total.get(),
                    s.magazine_refills_total,
                ),
                (
                    "magazine_steal_backs_total",
                    m.magazine_steal_backs_total.get(),
                    s.magazine_steal_backs_total,
                ),
                (
                    "smr_guard_stalls_total",
                    m.smr_guard_stalls_total.get(),
                    s.smr_guard_stalls_total,
                ),
            ];
            for (name, mirror, truth) in counters {
                if mirror != truth {
                    defects.push(format!(
                        "pid {} (`{}`): sma.{name} mirror {mirror} != ground truth {truth}",
                        proc.pid(),
                        proc.name()
                    ));
                }
            }
            let gauges = [
                ("budget_pages", m.budget_pages.get(), s.budget_pages as i64),
                ("held_pages", m.held_pages.get(), s.held_pages as i64),
                ("slack_pages", m.slack_pages.get(), s.slack_pages() as i64),
                (
                    "free_pool_pages",
                    m.free_pool_pages.get(),
                    s.free_pool_pages as i64,
                ),
                (
                    "magazine_pages",
                    m.magazine_pages.get(),
                    s.magazine_pages as i64,
                ),
                (
                    "smr_limbo_pages",
                    m.smr_limbo_pages.get(),
                    s.smr_limbo_pages as i64,
                ),
            ];
            for (name, gauge, truth) in gauges {
                if gauge != truth {
                    defects.push(format!(
                        "pid {} (`{}`): sma.{name} gauge {gauge} != point value {truth}",
                        proc.pid(),
                        proc.name()
                    ));
                }
            }
            // Per-SDS magazine gauges: each live SDS publishes its
            // magazine occupancy and lifetime refill/steal-back counts
            // under `sds{i}_*`; every one must equal the SDS-level
            // ground truth. (Registry lookups are get-or-create, so a
            // missing gauge reads 0 and is caught by the comparison.)
            let reg = m.registry();
            for sds in proc.sma().all_sds_stats() {
                let i = sds.id.index();
                let per_sds = [
                    ("magazine_pages", sds.magazine_pages as i64),
                    ("magazine_refills", sds.magazine_refills as i64),
                    ("magazine_steal_backs", sds.magazine_steal_backs as i64),
                ];
                for (name, truth) in per_sds {
                    let gauge = reg.gauge(&format!("sds{i}_{name}")).get();
                    if gauge != truth {
                        defects.push(format!(
                            "pid {} (`{}`): sma.sds{i}_{name} gauge {gauge} != \
                             SDS `{}` point value {truth}",
                            proc.pid(),
                            proc.name(),
                            sds.name
                        ));
                    }
                }
            }
        }
        {
            let m = self.smd.metrics();
            let s = self.smd.stats();
            let counters = [
                ("grants_total", m.grants_total.get(), s.grants_total),
                ("denials_total", m.denials_total.get(), s.denials_total),
                (
                    "reclaim_rounds_total",
                    m.reclaim_rounds_total.get(),
                    s.reclaim_rounds_total,
                ),
                (
                    "pages_reclaimed_total",
                    m.pages_reclaimed_total.get(),
                    s.pages_reclaimed_total,
                ),
                (
                    "lease_expiries_total",
                    m.lease_expiries_total.get(),
                    s.lease_expiries_total,
                ),
                (
                    "reconciles_total",
                    m.reconciles_total.get(),
                    s.reconciles_total,
                ),
                (
                    "reconcile_adopted_pages_total",
                    m.reconcile_adopted_pages_total.get(),
                    s.reconcile_adopted_pages_total,
                ),
            ];
            for (name, mirror, truth) in counters {
                if mirror != truth {
                    defects.push(format!(
                        "smd.{name} mirror {mirror} != ground truth {truth}"
                    ));
                }
            }
            let gauges = [
                (
                    "assigned_pages",
                    m.assigned_pages.get(),
                    s.assigned_pages as i64,
                ),
                (
                    "registered_procs",
                    m.registered_procs.get(),
                    s.procs.len() as i64,
                ),
            ];
            for (name, gauge, truth) in gauges {
                if gauge != truth {
                    defects.push(format!("smd.{name} gauge {gauge} != point value {truth}"));
                }
            }
        }
        for queue in self.queues {
            defects.extend(queue.audit_telemetry());
        }
        for store in self.stores {
            let m = store.metrics();
            let s = store.stats();
            let counters = [
                ("hits", m.hits.get(), s.hits),
                ("misses", m.misses.get(), s.misses),
                ("sets", m.sets.get(), s.sets),
                (
                    "reclaimed_entries",
                    m.reclaimed_entries.get(),
                    s.reclaimed_entries,
                ),
                (
                    "reclaimed_bytes",
                    m.reclaimed_bytes.get(),
                    s.reclaimed_bytes,
                ),
                (
                    "degraded_denies",
                    m.degraded_denies.get(),
                    s.degraded_denies,
                ),
                ("cold_demotions", m.cold_demotions.get(), s.cold_demotions),
                ("cold_hits", m.cold_hits.get(), s.cold_hits),
                ("spill_hits", m.spill_hits.get(), s.spill_hits),
            ];
            for (name, mirror, truth) in counters {
                if mirror != truth {
                    defects.push(format!("kv.{name} mirror {mirror} != ground truth {truth}"));
                }
            }
            // `op_ns` times the commands whose pre-increment `ops` count
            // is a multiple of SAMPLE_EVERY: exactly ⌈ops / SAMPLE_EVERY⌉.
            let ops = m.ops.get();
            let timed = m.op_ns.count();
            let want = ops.div_ceil(softmem_telemetry::SAMPLE_EVERY);
            if timed != want {
                defects.push(format!(
                    "kv.op_ns holds {timed} sample(s) for {ops} ops (want {want})"
                ));
            }
            // Cold-tier conservation: every demoted entry is accounted
            // for — promoted, invalidated, replaced, dropped, corrupted,
            // or still resident — and the arena/spill structural
            // bookkeeping (segment live bytes, index offsets) is sound.
            if let Some(tier) = store.tier() {
                defects.extend(
                    tier.audit()
                        .into_iter()
                        .map(|d| format!("kv cold tier: {d}")),
                );
            }
        }
        defects
            .into_iter()
            .map(|detail| Violation {
                family: InvariantFamily::MetricsConsistency,
                at: at.to_string(),
                detail,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmem_core::Priority;
    use softmem_daemon::SmdConfig;

    type Fixture = (
        Arc<MachineMemory>,
        Arc<Smd>,
        Vec<Arc<TkProcess>>,
        Vec<Arc<HandlePool>>,
        Vec<Arc<CountedQueue>>,
        Vec<Arc<Store>>,
    );

    fn scope_fixture() -> Fixture {
        let machine = MachineMemory::new(256);
        let smd = Smd::new(SmdConfig::new(&machine, 128).initial_budget(8));
        let proc = TkProcess::connect(&smd, "p0", None);
        let pool = HandlePool::new(proc.sma(), "pool", Priority::new(1));
        let queue = CountedQueue::new(proc.sma(), "q", Priority::new(2), false);
        let store = Arc::new(Store::new(proc.sma(), "kv", Priority::new(3)));
        (
            machine,
            smd,
            vec![proc],
            vec![pool],
            vec![queue],
            vec![store],
        )
    }

    #[test]
    fn clean_state_passes_all_families() {
        let (machine, smd, procs, pools, queues, stores) = scope_fixture();
        pools[0].insert(1024, 0x11).unwrap();
        queues[0].push(7);
        stores[0].set(b"k", b"v").unwrap();
        stores[0].get(b"k");
        stores[0].get(b"missing");
        let scope = CheckScope {
            machine: &machine,
            smd: &smd,
            procs: &procs,
            pools: &pools,
            queues: &queues,
            stores: &stores,
        };
        let violations = scope.check_all("test");
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn each_family_detects_its_injected_fault() {
        let (machine, smd, procs, pools, queues, stores) = scope_fixture();
        pools[0].insert(1024, 0x11).unwrap();
        queues[0].push(7);

        // Family 1: leak machine pages behind the SMAs' backs.
        machine.reserve(3).unwrap();
        // Family 2: forge budget out of thin air. (This moves ground
        // truth and its telemetry mirror together, so family 5 stays
        // clean — the forgery is a *budget* crime, not a lying metric.)
        procs[0].sma().grow_budget(5);
        // Family 3: zombie handle.
        assert!(pools[0].inject_zombie());
        // Family 4: stealth queue op.
        queues[0].inject_stealth_op();
        // Family 5: a counter mirror with no event behind it.
        procs[0].sma().metrics().reclaims_total.add(1);

        let scope = CheckScope {
            machine: &machine,
            smd: &smd,
            procs: &procs,
            pools: &pools,
            queues: &queues,
            stores: &stores,
        };
        let families: std::collections::BTreeSet<_> = scope
            .check_all("test")
            .into_iter()
            .map(|v| v.family)
            .collect();
        assert!(families.contains(&InvariantFamily::MachinePages));
        assert!(families.contains(&InvariantFamily::BudgetConservation));
        assert!(families.contains(&InvariantFamily::GenerationSafety));
        assert!(families.contains(&InvariantFamily::CallbackAccounting));
        assert!(families.contains(&InvariantFamily::MetricsConsistency));
        machine.release(3); // undo the leak for a clean drop
    }

    #[test]
    fn metrics_consistency_cross_checks_every_layer() {
        let (machine, smd, procs, pools, queues, stores) = scope_fixture();
        pools[0].insert(1024, 0x11).unwrap();
        stores[0].set(b"k", b"v").unwrap();
        // One more command than a sampling period: two timed samples.
        for _ in 0..=softmem_telemetry::SAMPLE_EVERY {
            softmem_kv::CommandRef::Get { key: b"k" }.execute(&stores[0]);
        }
        let scope = CheckScope {
            machine: &machine,
            smd: &smd,
            procs: &procs,
            pools: &pools,
            queues: &queues,
            stores: &stores,
        };
        assert!(scope.check_metrics_consistency("test").is_empty());

        // One forged mirror per instrumented layer; each must surface
        // as its own metrics-consistency violation.
        procs[0].sma().metrics().pages_reclaimed_total.add(3);
        smd.metrics().grants_total.add(2);
        stores[0].metrics().hits.add(9);
        // …the cold-tier instrumentation (a hit mirror with no promote
        // behind it — the fixture store has no tier, so truth stays 0)…
        stores[0].metrics().cold_hits.add(1);
        // …a sampled-timer sample with no command behind it…
        stores[0].metrics().op_ns.record(100);
        // …plus the magazine instrumentation: an SMA-level counter
        // mirror and one per-SDS gauge (`pool` registered first → sds0).
        procs[0].sma().metrics().magazine_refills_total.add(5);
        procs[0]
            .sma()
            .metrics()
            .registry()
            .gauge("sds0_magazine_pages")
            .add(7);
        let violations = scope.check_metrics_consistency("test");
        assert_eq!(violations.len(), 7, "{violations:?}");
        assert!(violations
            .iter()
            .all(|v| v.family == InvariantFamily::MetricsConsistency));
        let details: String = violations.iter().map(|v| v.detail.as_str()).collect();
        assert!(details.contains("sma.pages_reclaimed_total"), "{details}");
        assert!(details.contains("smd.grants_total"), "{details}");
        assert!(details.contains("kv.hits"), "{details}");
        assert!(details.contains("kv.cold_hits"), "{details}");
        assert!(details.contains("kv.op_ns"), "{details}");
        assert!(details.contains("sma.magazine_refills_total"), "{details}");
        assert!(details.contains("sma.sds0_magazine_pages"), "{details}");
    }
}
