//! Daemon crash/restart chaos harness.
//!
//! Where [`crate::scenario`] stresses one daemon incarnation in
//! process, this harness runs the *real* socket deployment —
//! [`UdsSmdServer`] + [`UdsProcess`] clients — and kills the daemon
//! out from under a live workload, repeatedly. Each outage exercises
//! the full fault-tolerance path: pending calls fail local with
//! `Denied(Degraded)`, the KV stores ride out the outage on their
//! existing budgets, and when a new incarnation binds the same socket
//! every client reconnects and `RECONCILE`s its actual holdings into a
//! fresh account.
//!
//! At quiesce (workers parked, every client reconciled onto the final
//! incarnation) the checker sweeps all five invariant families from
//! [`crate::invariants`], adapted to socket clients, plus the
//! restart-specific family:
//!
//! - **Restart conservation** — post-reconcile, Σ client-held pages
//!   and Σ adopted budgets stay within machine capacity, each ledger
//!   entry equals its client's live SMA budget, and **zero**
//!   `DaemonUnavailable` errors surfaced to any worker: once a client
//!   is registered, outages degrade service, they never unplug it.
//!   (Adopted budgets may transiently over-commit the daemon's *soft*
//!   capacity — that is reconciliation's documented trade, drained by
//!   the normal pressure path, so the budget family bounds assigned
//!   pages by capacity + adopted instead of capacity alone.)
//!
//! Every run is reproducible from `(spec, seed)` modulo OS scheduling:
//! operation *streams* are seeded per worker; outage timing is wall
//! clock, so outcomes (which ops land in an outage) vary — the checked
//! invariants hold either way, which is what makes them invariants.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softmem_core::{MachineMemory, Priority, SmaConfig, SoftError};
use softmem_daemon::uds::{UdsClientConfig, UdsProcess, UdsSmdServer};
use softmem_daemon::{Smd, SmdConfig};
use softmem_kv::Store;

use crate::invariants::{InvariantFamily, Violation};
use crate::pool::HandlePool;
use crate::queue::CountedQueue;
use crate::scenario::Verdict;

/// A crash/restart chaos scenario.
#[derive(Debug, Clone)]
pub struct RestartSpec {
    /// Scenario name (printed in verdicts).
    pub name: &'static str,
    /// Socket clients, one worker thread each.
    pub clients: usize,
    /// Physical pages on the modelled machine.
    pub machine_pages: usize,
    /// Soft-memory pages the daemon may assign.
    pub capacity_pages: usize,
    /// Registration-time budget grant.
    pub initial_budget_pages: usize,
    /// Crash/restart cycles.
    pub kills: usize,
    /// How long each incarnation serves before it is killed.
    pub uptime: Duration,
    /// How long the machine runs daemonless each cycle (the degraded
    /// window the workers must ride out).
    pub outage: Duration,
    /// Daemon-side lease TTL (`None` disables lease reaping).
    pub lease_ttl: Option<Duration>,
    /// Degraded-mode budget floor for each client.
    pub orphan_budget_pages: usize,
}

impl Default for RestartSpec {
    fn default() -> Self {
        RestartSpec {
            name: "daemon-restart",
            clients: 3,
            machine_pages: 4096,
            capacity_pages: 512,
            initial_budget_pages: 8,
            kills: 2,
            uptime: Duration::from_millis(150),
            outage: Duration::from_millis(120),
            lease_ttl: Some(Duration::from_secs(5)),
            orphan_budget_pages: 4,
        }
    }
}

/// One client's worker-facing state.
struct ClientCtx {
    process: Arc<UdsProcess>,
    store: Arc<Store>,
    pool: Arc<HandlePool>,
    queue: Arc<CountedQueue>,
}

/// Shared run-wide tallies.
#[derive(Default)]
struct Tallies {
    ops_total: AtomicU64,
    alloc_failures: AtomicU64,
    /// The availability guarantee's ground truth: how many operations
    /// surfaced `DaemonUnavailable` to a worker after registration.
    daemon_unavailable: AtomicU64,
}

fn socket_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "softmem-restart-{name}-{}.sock",
        std::process::id()
    ));
    p
}

fn bind_daemon(spec: &RestartSpec, machine: &Arc<MachineMemory>) -> UdsSmdServer {
    let mut cfg =
        SmdConfig::new(machine, spec.capacity_pages).initial_budget(spec.initial_budget_pages);
    if let Some(ttl) = spec.lease_ttl {
        cfg = cfg.lease_ttl(ttl);
    }
    UdsSmdServer::bind(Smd::new(cfg), socket_path(spec.name)).expect("bind daemon socket")
}

/// Runs the crash/restart chaos scenario and returns its verdict.
/// Panics only on harness setup failures — workload and invariant
/// failures are reported in the verdict.
pub fn run_restart_chaos(spec: &RestartSpec, seed: u64) -> Verdict {
    let machine = MachineMemory::new(spec.machine_pages);
    let path = socket_path(spec.name);
    let mut server = bind_daemon(spec, &machine);

    let ccfg = UdsClientConfig {
        heartbeat_interval: Duration::from_millis(25),
        reconnect_backoff_min: Duration::from_millis(5),
        reconnect_backoff_max: Duration::from_millis(50),
        request_timeout: Duration::from_secs(5),
    };
    let mut ctxs = Vec::new();
    for i in 0..spec.clients {
        let sma_cfg = SmaConfig::new(Arc::clone(&machine), 0)
            .orphan_budget(spec.orphan_budget_pages)
            .auto_grow_chunk(16);
        let process = UdsProcess::connect_with(&path, &format!("chaos-{i}"), sma_cfg, ccfg.clone())
            .expect("initial connect");
        let store = Arc::new(Store::new(process.sma(), "kv", Priority::new(4)));
        let pool = HandlePool::new(process.sma(), "pool", Priority::new(2));
        let queue = CountedQueue::new(process.sma(), "queue", Priority::new(3), false);
        ctxs.push(Arc::new(ClientCtx {
            process,
            store,
            pool,
            queue,
        }));
    }

    let tallies = Arc::new(Tallies::default());
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = ctxs
        .iter()
        .enumerate()
        .map(|(i, ctx)| {
            let ctx = Arc::clone(ctx);
            let tallies = Arc::clone(&tallies);
            let stop = Arc::clone(&stop);
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 + i as u64));
            std::thread::spawn(move || {
                let mut key = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    tallies.ops_total.fetch_add(1, Ordering::Relaxed);
                    let roll = rng.gen_range(0u32..100);
                    let result = match roll {
                        0..=34 => {
                            key += 1;
                            let k = format!("k{}", key % 512);
                            let len = rng.gen_range(16usize..256);
                            ctx.store.set(k.as_bytes(), &vec![key as u8; len])
                        }
                        35..=54 => {
                            let k = format!("k{}", rng.gen_range(0u64..512));
                            let _ = ctx.store.get(k.as_bytes());
                            Ok(())
                        }
                        55..=69 => ctx
                            .pool
                            .insert(rng.gen_range(32usize..512), rng.gen_range(0u32..256) as u8),
                        70..=76 => {
                            ctx.pool.remove_oldest();
                            Ok(())
                        }
                        77..=83 => {
                            ctx.pool.probe(rng.gen_range(0usize..1 << 16));
                            Ok(())
                        }
                        84..=90 => {
                            ctx.queue.push(rng.gen_range(0..u64::MAX));
                            Ok(())
                        }
                        91..=95 => {
                            let _ = ctx.queue.pop();
                            Ok(())
                        }
                        _ => ctx.process.release_slack(2).map(|_| ()),
                    };
                    match result {
                        Ok(()) => {}
                        Err(SoftError::DaemonUnavailable) => {
                            // The guarantee under test: a registered
                            // client must degrade, never unplug.
                            tallies.daemon_unavailable.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // Denials (incl. Degraded) and budget
                            // exhaustion are expected under outage
                            // pressure; the stack stays consistent.
                            tallies.alloc_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();

    // The chaos driver: kill → outage → restart → reconcile, `kills`
    // times, with the workload running throughout.
    let mut violations = Vec::new();
    let mut checks = 0;
    for cycle in 0..spec.kills {
        std::thread::sleep(spec.uptime);
        server.kill_switch().fire();
        drop(server);
        std::thread::sleep(spec.outage);
        server = bind_daemon(spec, &machine);
        let epoch = server.smd().epoch();
        let deadline = Instant::now() + Duration::from_secs(20);
        for ctx in &ctxs {
            while ctx.process.epoch() != epoch || ctx.process.is_degraded() {
                if Instant::now() > deadline {
                    violations.push(Violation {
                        family: InvariantFamily::RestartConservation,
                        at: format!("cycle {cycle}"),
                        detail: format!(
                            "client `{}` failed to reconcile onto epoch {epoch} \
                             within 20s",
                            ctx.process.name()
                        ),
                    });
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        checks += 1;
    }

    // Quiesce: park the workload, then sweep every family over a
    // stable stack.
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        let _ = w.join();
    }
    checks += 1;
    violations.extend(check_quiesced(&machine, &server, &ctxs, &tallies));

    let verdict = Verdict {
        scenario: format!("{} (restart chaos)", spec.name),
        seed,
        schedule_hash: seed ^ ((spec.clients as u64) << 32) ^ spec.kills as u64,
        checks,
        ops_total: tallies.ops_total.load(Ordering::Relaxed),
        alloc_failures: tallies.alloc_failures.load(Ordering::Relaxed),
        sim_elapsed_ms: 0,
        cold_demotions: 0,
        cold_hits: 0,
        spill_hits: 0,
        spill_writes: 0,
        net_requests: 0,
        net_replies: 0,
        net_deadline_closes: 0,
        net_sheds: 0,
        net_worker_restarts: 0,
        net_injected_faults: 0,
        violations,
    };
    drop(ctxs);
    drop(server);
    let _ = std::fs::remove_file(&path);
    verdict
}

/// The five families (adapted to socket clients) plus restart
/// conservation, all at the quiesce point.
fn check_quiesced(
    machine: &Arc<MachineMemory>,
    server: &UdsSmdServer,
    ctxs: &[Arc<ClientCtx>],
    tallies: &Tallies,
) -> Vec<Violation> {
    let at = "quiesce";
    let mut v = Vec::new();
    let smd = server.smd();
    let stats = smd.stats();
    let ms = machine.stats();

    // Family 1: machine-page conservation.
    let held: usize = ctxs.iter().map(|c| c.process.sma().held_pages()).sum();
    if ms.used_pages != held + ms.traditional_pages {
        v.push(Violation {
            family: InvariantFamily::MachinePages,
            at: at.into(),
            detail: format!(
                "machine used_pages {} != sum of client held {} + traditional {}",
                ms.used_pages, held, ms.traditional_pages
            ),
        });
    }

    // Family 2: budget conservation on the *current* incarnation.
    // Adoption may transiently over-commit capacity (DESIGN.md §8) —
    // the normal pressure path drains the excess — but *grants* never
    // add to it, so assigned is bounded by capacity plus everything
    // this incarnation adopted.
    let adopted = stats.reconcile_adopted_pages_total as usize;
    if stats.assigned_pages > stats.capacity_pages + adopted {
        v.push(Violation {
            family: InvariantFamily::BudgetConservation,
            at: at.into(),
            detail: format!(
                "daemon assigned {} pages over its capacity {} + adopted {} \
                 — a grant added to the reconcile over-commit",
                stats.assigned_pages, stats.capacity_pages, adopted
            ),
        });
    }
    for ctx in ctxs {
        let pid = ctx.process.pid();
        let Some(snap) = stats.procs.iter().find(|p| p.pid == pid) else {
            v.push(Violation {
                family: InvariantFamily::BudgetConservation,
                at: at.into(),
                detail: format!(
                    "client `{}` (pid {pid}) missing from the daemon ledger",
                    ctx.process.name()
                ),
            });
            continue;
        };
        let sma_budget = ctx.process.sma().budget_pages();
        if sma_budget != snap.usage.budget_pages {
            v.push(Violation {
                family: InvariantFamily::BudgetConservation,
                at: at.into(),
                detail: format!(
                    "client `{}`: SMA budget {} != daemon ledger {}",
                    ctx.process.name(),
                    sma_budget,
                    snap.usage.budget_pages
                ),
            });
        }
        let held = ctx.process.sma().held_pages();
        if held > sma_budget {
            v.push(Violation {
                family: InvariantFamily::BudgetConservation,
                at: at.into(),
                detail: format!(
                    "client `{}`: holds {} pages over its budget {}",
                    ctx.process.name(),
                    held,
                    sma_budget
                ),
            });
        }
    }

    // Families 3 + 4: generation safety and callback accounting.
    for ctx in ctxs {
        v.extend(ctx.pool.audit().into_iter().map(|detail| Violation {
            family: InvariantFamily::GenerationSafety,
            at: at.into(),
            detail,
        }));
        v.extend(ctx.queue.audit().into_iter().map(|detail| Violation {
            family: InvariantFamily::CallbackAccounting,
            at: at.into(),
            detail,
        }));
    }

    // Family 5: metrics consistency (mirrors vs ground truth).
    let m = smd.metrics();
    let counters = [
        ("grants_total", m.grants_total.get(), stats.grants_total),
        ("denials_total", m.denials_total.get(), stats.denials_total),
        (
            "lease_expiries_total",
            m.lease_expiries_total.get(),
            stats.lease_expiries_total,
        ),
        (
            "reconciles_total",
            m.reconciles_total.get(),
            stats.reconciles_total,
        ),
        (
            "reconcile_adopted_pages_total",
            m.reconcile_adopted_pages_total.get(),
            stats.reconcile_adopted_pages_total,
        ),
    ];
    for (name, mirror, truth) in counters {
        if mirror != truth {
            v.push(Violation {
                family: InvariantFamily::MetricsConsistency,
                at: at.into(),
                detail: format!("smd.{name} mirror {mirror} != ground truth {truth}"),
            });
        }
    }
    for ctx in ctxs {
        let sm = ctx.store.metrics();
        let ss = ctx.store.stats();
        let counters = [
            ("hits", sm.hits.get(), ss.hits),
            ("misses", sm.misses.get(), ss.misses),
            ("sets", sm.sets.get(), ss.sets),
            (
                "reclaimed_entries",
                sm.reclaimed_entries.get(),
                ss.reclaimed_entries,
            ),
            (
                "degraded_denies",
                sm.degraded_denies.get(),
                ss.degraded_denies,
            ),
        ];
        for (name, mirror, truth) in counters {
            if mirror != truth {
                v.push(Violation {
                    family: InvariantFamily::MetricsConsistency,
                    at: at.into(),
                    detail: format!(
                        "client `{}` kv.{name} mirror {mirror} != ground truth {truth}",
                        ctx.process.name()
                    ),
                });
            }
        }
    }

    // Restart conservation: the cross-incarnation guarantees.
    if held > machine.capacity_pages() {
        v.push(Violation {
            family: InvariantFamily::RestartConservation,
            at: at.into(),
            detail: format!(
                "post-reconcile client-held pages {} exceed machine capacity {}",
                held,
                machine.capacity_pages()
            ),
        });
    }
    let reconciled_budget: usize = stats.procs.iter().map(|p| p.usage.budget_pages).sum();
    if reconciled_budget > machine.capacity_pages() {
        v.push(Violation {
            family: InvariantFamily::RestartConservation,
            at: at.into(),
            detail: format!(
                "sum of reconciled budgets {} exceeds machine capacity {}",
                reconciled_budget,
                machine.capacity_pages()
            ),
        });
    }
    let unavailable = tallies.daemon_unavailable.load(Ordering::Relaxed);
    if unavailable > 0 {
        v.push(Violation {
            family: InvariantFamily::RestartConservation,
            at: at.into(),
            detail: format!(
                "{unavailable} operations surfaced DaemonUnavailable — degraded \
                 mode must absorb outages for registered clients"
            ),
        });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_chaos_default_spec_is_clean() {
        let verdict = run_restart_chaos(&RestartSpec::default(), 0xD00D);
        assert!(verdict.ops_total > 0);
        assert!(verdict.checks >= 3);
        verdict.assert_clean();
    }

    #[test]
    fn lease_reaping_under_chaos_is_clean() {
        let spec = RestartSpec {
            name: "daemon-restart-lease",
            lease_ttl: Some(Duration::from_millis(80)),
            kills: 1,
            ..RestartSpec::default()
        };
        run_restart_chaos(&spec, 0xBEEF).assert_clean();
    }
}
