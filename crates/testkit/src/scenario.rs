//! The deterministic scenario runner.
//!
//! A scenario spawns N worker threads ("soft processes"), each driving
//! its own [`TkProcess`] with a seeded RNG through a sequence of
//! pressure phases. Phase boundaries are barrier-controlled: while
//! every worker is parked, the main thread advances the simulation
//! clock, applies planned chaos, and runs the machine-wide invariant
//! checker over a quiescent stack.
//!
//! Determinism: each worker's operation stream is a pure function of
//! `(seed, worker index)`, so the combined schedule hash — and, since
//! the invariants are interleaving-independent, the verdict — is
//! reproducible from the seed alone. Operation *outcomes* (a grant vs
//! a denial) may differ between runs; the checked invariants hold
//! either way, which is exactly what makes them invariants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softmem_core::{BudgetTap, MachineMemory, Priority, TierConfig};
use softmem_daemon::{Smd, SmdConfig};
use softmem_kv::{ShardedStore, Store};
use softmem_sds::EvictionOrder;
use softmem_sim::{SimClock, ZipfKeys};

use crate::fault::{CadenceDenyHook, ChaosFault, FaultPlan, NetChaos, ScriptedTap};
use crate::invariants::{CheckScope, InvariantFamily, Violation};
use crate::pool::HandlePool;
use crate::process::TkProcess;
use crate::queue::CountedQueue;

/// One pressure phase: how much work each worker does before the next
/// barrier, and how far the virtual clock advances afterwards.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Operations each worker executes in this phase.
    pub ops_per_worker: usize,
    /// Virtual milliseconds the clock advances at the phase boundary.
    pub advance_ms: u64,
}

/// Relative operation weights for a scenario's workload. A zero
/// weight disables the operation.
#[derive(Debug, Clone)]
pub struct OpMix {
    /// Pool insert (allocate + fill + track).
    pub insert: u32,
    /// Pool free-oldest.
    pub remove: u32,
    /// Pool live/stale probe.
    pub probe: u32,
    /// Pool guarded dwell-read: a reader pins an SMR guard and holds
    /// it across concurrent frees/reclamation (see
    /// [`HandlePool::guarded_probe`]).
    pub guarded: u32,
    /// Queue push.
    pub push: u32,
    /// Queue pop.
    pub pop: u32,
    /// KV set/get with Zipf keys (requires `kv` on the spec).
    pub kv: u32,
    /// KV cross-shard operation — `MGET` over several Zipf keys,
    /// `DBSIZE`, or a prefix `KEYS` scan (requires `kv`; exercises the
    /// fan-out/merge paths when `kv_shards` > 1).
    pub kv_cross: u32,
    /// Voluntary budget-slack release to the daemon.
    pub slack: u32,
    /// Traditional-memory resize.
    pub trad: u32,
    /// Pool destroy + re-register (SDS churn).
    pub recycle: u32,
}

impl Default for OpMix {
    fn default() -> Self {
        OpMix {
            insert: 6,
            remove: 3,
            probe: 3,
            guarded: 0,
            push: 4,
            pop: 3,
            kv: 0,
            kv_cross: 0,
            slack: 1,
            trad: 0,
            recycle: 0,
        }
    }
}

impl OpMix {
    fn total(&self) -> u32 {
        self.insert
            + self.remove
            + self.probe
            + self.guarded
            + self.push
            + self.pop
            + self.kv
            + self.kv_cross
            + self.slack
            + self.trad
            + self.recycle
    }
}

/// Network-plane load riding alongside a scenario: a dedicated soft
/// process + sharded engine served by a [`softmem_kv::ReactorFrontend`]
/// and hammered over real sockets by a [`softmem_kv::Swarm`] — one
/// extra barrier participant that quiesces the plane before every
/// invariant sweep (see `net.rs`). Ignored on non-Linux targets
/// (the reactor is epoll-based).
#[derive(Debug, Clone)]
pub struct NetSpec {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each live client issues per phase.
    pub requests_per_client: u64,
    /// Pipeline depth for well-behaved clients.
    pub pipeline: usize,
    /// Clients turned into slow readers before phase 0: they keep
    /// sending but never read a reply, so the server's backpressure
    /// machinery must bound their write buffers.
    pub stalled_clients: usize,
    /// Phase during which half the fleet disconnects mid-pipeline
    /// (the phase runs time-boxed so replies are in flight when the
    /// wave lands).
    pub disconnect_half_mid_phase: Option<usize>,
    /// Shards behind the reactor's engine.
    pub shards: usize,
    /// Per-connection write-buffer high-water mark (bytes).
    pub write_highwater: usize,
    /// Network-plane chaos: syscall faults, deadlines, overload
    /// limits, worker panics ([`NetChaos::none`] = a quiet plane).
    pub chaos: NetChaos,
}

/// A complete scenario description.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (printed in verdicts).
    pub name: &'static str,
    /// Worker/process count.
    pub procs: usize,
    /// Handle pools per process (≥ 1 so generation safety always has
    /// subjects).
    pub pools_per_proc: usize,
    /// Physical pages on the modelled machine.
    pub machine_pages: usize,
    /// Soft-memory pages the daemon may assign.
    pub capacity_pages: usize,
    /// Registration-time budget grant.
    pub initial_budget_pages: usize,
    /// Upper bound for the traditional-memory resize op (pages).
    pub trad_max_pages: usize,
    /// Allocation size range for pool inserts (bytes).
    pub alloc_bytes: (usize, usize),
    /// Per-SDS magazine capacity (`SmaConfig::sds_retain_pages`) for
    /// every process's allocator.
    pub sds_retain_pages: usize,
    /// Global frame-depot retention (`SmaConfig::free_pool_retain_pages`)
    /// for every process's allocator.
    pub free_pool_retain_pages: usize,
    /// Whether each process also runs a KV store.
    pub kv: bool,
    /// Shards per process KV engine (1 = the classic single store;
    /// more splits each keyspace over independent per-shard SDSs, and
    /// every shard store is fed to the invariant checker).
    pub kv_shards: usize,
    /// Cold-tier arena capacity in bytes for every KV engine. Zero
    /// (the default) builds the classic drop-on-evict store; non-zero
    /// attaches a compressed second-chance tier so reclaimed entries
    /// demote instead of vanishing, and GETs promote them back.
    pub kv_cold_arena_bytes: usize,
    /// Whether each tiered engine also spills arena overflow to a
    /// unique temp file (ignored when `kv_cold_arena_bytes` is 0).
    pub kv_spill: bool,
    /// Whether the runner ends the scenario with one forced demote →
    /// promote round trip per tiered shard (after the quiesce check,
    /// before the tier counters are read), so the verdict's
    /// `cold_demotions`/`cold_hits` do not depend on how the workers
    /// interleaved. Ignored when `kv_cold_arena_bytes` is 0.
    pub kv_tier_round_trip: bool,
    /// Operation weights.
    pub mix: OpMix,
    /// Pressure phases.
    pub phases: Vec<Phase>,
    /// Fault plan.
    pub fault: FaultPlan,
    /// Optional network-plane load (reactor frontend + socket swarm).
    pub net: Option<NetSpec>,
}

impl ScenarioSpec {
    /// A small, balanced baseline other scenarios customise.
    pub fn baseline(name: &'static str) -> Self {
        ScenarioSpec {
            name,
            procs: 3,
            pools_per_proc: 1,
            machine_pages: 512,
            capacity_pages: 160,
            initial_budget_pages: 8,
            trad_max_pages: 0,
            alloc_bytes: (128, 2048),
            sds_retain_pages: 4,
            free_pool_retain_pages: 64,
            kv: false,
            kv_shards: 1,
            kv_cold_arena_bytes: 0,
            kv_spill: false,
            kv_tier_round_trip: false,
            mix: OpMix::default(),
            phases: vec![
                Phase {
                    ops_per_worker: 200,
                    advance_ms: 1_000,
                },
                Phase {
                    ops_per_worker: 200,
                    advance_ms: 1_000,
                },
                Phase {
                    ops_per_worker: 150,
                    advance_ms: 1_000,
                },
            ],
            fault: FaultPlan::none(),
            net: None,
        }
    }
}

/// The reproducible outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Scenario name.
    pub scenario: String,
    /// The seed that produced this run.
    pub seed: u64,
    /// Order-independent hash of every worker's operation schedule.
    pub schedule_hash: u64,
    /// Invariant checkpoints executed (phases + quiesce, plus one after
    /// the forced tier round trip when the spec asks for it).
    pub checks: usize,
    /// Total operations executed across workers.
    pub ops_total: u64,
    /// Allocation/insert failures (expected under pressure faults).
    pub alloc_failures: u64,
    /// Virtual milliseconds elapsed on the simulation clock.
    pub sim_elapsed_ms: u64,
    /// Aggregate cold-tier demotions across every store at quiesce
    /// (zero for untiered scenarios).
    pub cold_demotions: u64,
    /// Aggregate promotions served from the cold arenas.
    pub cold_hits: u64,
    /// Aggregate promotions served off the spill logs.
    pub spill_hits: u64,
    /// Aggregate arena segments spilled to disk.
    pub spill_writes: u64,
    /// Frames the network plane sequenced (zero without a
    /// [`NetSpec`]).
    pub net_requests: u64,
    /// Replies the plane accounted for (== requests once quiescent).
    pub net_replies: u64,
    /// Connections the plane's deadline reaper evicted.
    pub net_deadline_closes: u64,
    /// Requests answered `ERR overloaded` by admission control.
    pub net_sheds: u64,
    /// Shard workers restarted by the panic supervisor.
    pub net_worker_restarts: u64,
    /// Syscall faults the chaos shim injected.
    pub net_injected_faults: u64,
    /// Every invariant violation observed.
    pub violations: Vec<Violation>,
}

impl Verdict {
    /// Whether no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The set of violated families.
    pub fn violated_families(&self) -> std::collections::BTreeSet<InvariantFamily> {
        self.violations.iter().map(|v| v.family).collect()
    }

    /// Panics with a reproduction-ready report if any invariant was
    /// violated.
    pub fn assert_clean(&self) {
        assert!(self.is_clean(), "{self}");
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "scenario `{}` seed {:#x}: {}",
            self.scenario,
            self.seed,
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} invariant violation(s)", self.violations.len())
            }
        )?;
        writeln!(
            f,
            "  schedule {:#018x}, {} op(s), {} alloc failure(s), {} check(s), {} sim ms",
            self.schedule_hash,
            self.ops_total,
            self.alloc_failures,
            self.checks,
            self.sim_elapsed_ms
        )?;
        if self.cold_demotions > 0 {
            writeln!(
                f,
                "  cold tier: {} demotion(s), {} arena hit(s), {} disk hit(s), {} spill write(s)",
                self.cold_demotions, self.cold_hits, self.spill_hits, self.spill_writes
            )?;
        }
        if self.net_requests > 0 {
            writeln!(
                f,
                "  network plane: {} request(s), {} reply(ies)",
                self.net_requests, self.net_replies
            )?;
        }
        if self.net_deadline_closes > 0
            || self.net_sheds > 0
            || self.net_worker_restarts > 0
            || self.net_injected_faults > 0
        {
            writeln!(
                f,
                "  net fault plane: {} deadline close(s), {} shed(s), \
                 {} worker restart(s), {} injected syscall fault(s)",
                self.net_deadline_closes,
                self.net_sheds,
                self.net_worker_restarts,
                self.net_injected_faults
            )?;
        }
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if !self.is_clean() {
            write!(
                f,
                "  reproduce with: run_scenario(&scenarios::by_name(\"{}\").unwrap(), {:#x})",
                self.scenario, self.seed
            )?;
        }
        Ok(())
    }
}

/// What each worker reports back to the runner.
struct WorkerOut {
    schedule_hash: u64,
    ops: u64,
    alloc_failures: u64,
    gen_anomalies: u64,
}

struct WorkerCtx {
    proc: Arc<TkProcess>,
    pools: Vec<Arc<HandlePool>>,
    queue: Arc<CountedQueue>,
    store: Option<Arc<ShardedStore>>,
    disconnect_phase: Option<usize>,
}

fn mix64(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x.wrapping_mul(0x94D0_49BB_1331_11EB)
}

fn hash_step(h: u64, opcode: u64, param: u64) -> u64 {
    (h ^ opcode.wrapping_add(param << 8)).wrapping_mul(0x0000_0100_0000_01B3)
}

fn worker_loop(
    ctx: WorkerCtx,
    spec: Arc<ScenarioSpec>,
    seed: u64,
    idx: usize,
    barrier: Arc<Barrier>,
) -> WorkerOut {
    let mut rng = StdRng::seed_from_u64(mix64(seed, idx as u64 + 1));
    let mut zipf = ZipfKeys::new(512, 1.05, mix64(seed, 0xE75 ^ (idx as u64)));
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325 ^ mix64(seed, (idx as u64) << 16);
    let mut out = WorkerOut {
        schedule_hash: 0,
        ops: 0,
        alloc_failures: 0,
        gen_anomalies: 0,
    };
    let mut disconnected = false;
    let (alloc_lo, alloc_hi) = spec.alloc_bytes;
    let total_weight = spec.mix.total().max(1);

    for (pi, phase) in spec.phases.iter().enumerate() {
        barrier.wait();
        if ctx.disconnect_phase == Some(pi) && !disconnected {
            ctx.proc.disconnect();
            disconnected = true;
        }
        if !disconnected {
            for _ in 0..phase.ops_per_worker {
                out.ops += 1;
                let roll = rng.gen_range(0..total_weight);
                let m = &spec.mix;
                let mut edge = m.insert;
                if roll < edge {
                    let pool = &ctx.pools[rng.gen_range(0..ctx.pools.len())];
                    let len = rng.gen_range(alloc_lo..=alloc_hi);
                    let fill = rng.gen_range(0u32..256) as u8;
                    hash = hash_step(hash, 1, (len as u64) ^ ((fill as u64) << 32));
                    if pool.insert(len, fill).is_err() {
                        out.alloc_failures += 1;
                    }
                    continue;
                }
                edge += m.remove;
                if roll < edge {
                    let pool = &ctx.pools[rng.gen_range(0..ctx.pools.len())];
                    hash = hash_step(hash, 2, 0);
                    pool.remove_oldest();
                    continue;
                }
                edge += m.probe;
                if roll < edge {
                    let pool = &ctx.pools[rng.gen_range(0..ctx.pools.len())];
                    let pick = rng.gen_range(0usize..1 << 16);
                    hash = hash_step(hash, 3, pick as u64);
                    out.gen_anomalies += pool.probe(pick);
                    continue;
                }
                edge += m.guarded;
                if roll < edge {
                    let pool = &ctx.pools[rng.gen_range(0..ctx.pools.len())];
                    let pick = rng.gen_range(0usize..1 << 16);
                    hash = hash_step(hash, 11, pick as u64);
                    out.gen_anomalies += pool.guarded_probe(pick);
                    continue;
                }
                edge += m.push;
                if roll < edge {
                    let v: u64 = rng.gen_range(0..u64::MAX);
                    hash = hash_step(hash, 4, v);
                    if !ctx.queue.push(v) {
                        out.alloc_failures += 1;
                    }
                    continue;
                }
                edge += m.pop;
                if roll < edge {
                    hash = hash_step(hash, 5, 0);
                    ctx.queue.pop();
                    continue;
                }
                edge += m.kv;
                if roll < edge {
                    if let Some(store) = &ctx.store {
                        let key = format!("key:{:06}", zipf.next_key());
                        if rng.gen_bool(0.6) {
                            let len = rng.gen_range(32usize..512);
                            hash = hash_step(hash, 6, len as u64);
                            let value = vec![0x5A_u8; len];
                            if store.set(key.as_bytes(), &value).is_err() {
                                out.alloc_failures += 1;
                            }
                        } else {
                            hash = hash_step(hash, 6, u64::MAX);
                            // Every KV value anyone writes is a 0x5A
                            // fill, so a torn read — including a bad
                            // promote out of the cold tier — is
                            // detectable on any hit.
                            if let Some(v) = store.get(key.as_bytes()) {
                                if v.iter().any(|&b| b != 0x5A) {
                                    out.gen_anomalies += 1;
                                }
                            }
                        }
                    }
                    continue;
                }
                edge += m.kv_cross;
                if roll < edge {
                    if let Some(store) = &ctx.store {
                        match rng.gen_range(0u32..3) {
                            0 => {
                                // MGET over several Zipf keys — split
                                // per shard and reassembled in order.
                                let keys: Vec<String> = (0..4)
                                    .map(|_| format!("key:{:06}", zipf.next_key()))
                                    .collect();
                                hash = hash_step(hash, 10, keys.len() as u64);
                                let _ = store.mget(keys.iter().map(|k| k.as_bytes()));
                            }
                            1 => {
                                hash = hash_step(hash, 10, u64::MAX);
                                let _ = store.dbsize();
                            }
                            _ => {
                                hash = hash_step(hash, 10, 1);
                                let _ = store.keys_with_prefix(b"key:0000");
                            }
                        }
                    }
                    continue;
                }
                edge += m.slack;
                if roll < edge {
                    let pages = rng.gen_range(1usize..=4);
                    hash = hash_step(hash, 7, pages as u64);
                    let _ = ctx.proc.release_slack(pages);
                    continue;
                }
                edge += m.trad;
                if roll < edge {
                    let pages = rng.gen_range(0..=spec.trad_max_pages.max(1));
                    hash = hash_step(hash, 8, pages as u64);
                    let _ = ctx.proc.set_traditional_pages(pages);
                    continue;
                }
                // recycle (remaining weight)
                let pool = &ctx.pools[rng.gen_range(0..ctx.pools.len())];
                hash = hash_step(hash, 9, 0);
                pool.recycle();
            }
        }
        barrier.wait();
    }
    out.schedule_hash = hash;
    out
}

/// Runs `spec` with `seed`, returning the reproducible [`Verdict`].
pub fn run_scenario(spec: &ScenarioSpec, seed: u64) -> Verdict {
    let machine = MachineMemory::new(spec.machine_pages);
    let smd = Smd::new(
        SmdConfig::new(&machine, spec.capacity_pages).initial_budget(spec.initial_budget_pages),
    );
    if let Some(every) = spec.fault.deny_every {
        smd.set_hook(Arc::new(CadenceDenyHook::new(every)));
    }
    let clock = SimClock::new();

    let mut procs = Vec::with_capacity(spec.procs);
    let mut pools = Vec::new();
    let mut queues = Vec::new();
    let mut engines: Vec<Arc<ShardedStore>> = Vec::new();
    // Every shard's store, flattened across processes — the invariant
    // checker certifies each shard's mirrors and accounting
    // individually.
    let mut stores: Vec<Arc<Store>> = Vec::new();
    for w in 0..spec.procs {
        let tap: Option<Arc<dyn BudgetTap>> = if spec.fault.budget_script.is_empty() {
            None
        } else {
            Some(Arc::new(ScriptedTap::new(spec.fault.budget_script.clone())))
        };
        let proc = TkProcess::connect_with(&smd, &format!("{}-p{w}", spec.name), tap, |cfg| {
            cfg.sds_retain(spec.sds_retain_pages)
                .free_pool_retain(spec.free_pool_retain_pages)
        });
        for k in 0..spec.pools_per_proc {
            pools.push(HandlePool::new(
                proc.sma(),
                &format!("pool-{w}-{k}"),
                Priority::new(1),
            ));
        }
        queues.push(CountedQueue::new(
            proc.sma(),
            &format!("queue-{w}"),
            Priority::new(2),
            spec.fault.panic_callbacks,
        ));
        if spec.kv {
            let engine = if spec.kv_cold_arena_bytes > 0 {
                // Unique spill path per engine: scenario runs may
                // overlap across test threads, so the name folds in a
                // process-wide run id on top of pid and worker index.
                let spill_path = spec.kv_spill.then(|| {
                    static TIER_RUN: AtomicU64 = AtomicU64::new(0);
                    let run = TIER_RUN.fetch_add(1, Ordering::Relaxed);
                    std::env::temp_dir().join(format!(
                        "softmem-tk-{}-{}-{run}-{w}.spill",
                        spec.name,
                        std::process::id()
                    ))
                });
                // Segment granularity scales with the cap so small
                // flood arenas still hold several segments — the unit
                // of spill/compaction — instead of one giant one.
                let cfg = TierConfig {
                    arena_cap_bytes: spec.kv_cold_arena_bytes,
                    segment_bytes: (spec.kv_cold_arena_bytes / 4).clamp(512, 4096),
                    spill_path,
                };
                Arc::new(
                    ShardedStore::with_tier(
                        proc.sma(),
                        &format!("kv-{w}"),
                        Priority::new(3),
                        EvictionOrder::InsertionOrder,
                        spec.kv_shards.max(1),
                        cfg,
                    )
                    .expect("create tiered KV engine"),
                )
            } else {
                Arc::new(ShardedStore::new(
                    proc.sma(),
                    &format!("kv-{w}"),
                    Priority::new(3),
                    spec.kv_shards.max(1),
                ))
            };
            stores.extend(engine.shards().iter().cloned());
            engines.push(engine);
        }
        procs.push(proc);
    }

    // The network plane (when specced) gets its own soft process and
    // engine so the checker sweeps its shards, budget and metrics like
    // any other participant; the driver thread below is one extra
    // barrier party that quiesces the plane before every sweep.
    #[cfg(target_os = "linux")]
    let net_engine: Option<Arc<ShardedStore>> = spec.net.as_ref().map(|ns| {
        let proc = TkProcess::connect_with(&smd, &format!("{}-net", spec.name), None, |cfg| {
            cfg.sds_retain(spec.sds_retain_pages)
                .free_pool_retain(spec.free_pool_retain_pages)
        });
        let engine = Arc::new(ShardedStore::new(
            proc.sma(),
            "kv-net",
            Priority::new(3),
            ns.shards.max(1),
        ));
        stores.extend(engine.shards().iter().cloned());
        procs.push(proc);
        engine
    });
    #[cfg(target_os = "linux")]
    let net_parties = net_engine.is_some() as usize;
    #[cfg(not(target_os = "linux"))]
    let net_parties = 0;

    let barrier = Arc::new(Barrier::new(spec.procs + 1 + net_parties));
    let shared_spec = Arc::new(spec.clone());
    let mut handles = Vec::with_capacity(spec.procs);
    for w in 0..spec.procs {
        let ctx = WorkerCtx {
            proc: Arc::clone(&procs[w]),
            pools: pools[w * spec.pools_per_proc..(w + 1) * spec.pools_per_proc].to_vec(),
            queue: Arc::clone(&queues[w]),
            store: engines.get(w).cloned(),
            disconnect_phase: spec
                .fault
                .disconnects
                .iter()
                .find(|&&(ww, _)| ww == w)
                .map(|&(_, p)| p),
        };
        let spec2 = Arc::clone(&shared_spec);
        let barrier2 = Arc::clone(&barrier);
        handles.push(
            std::thread::Builder::new()
                .name(format!("{}-w{w}", spec.name))
                .spawn(move || worker_loop(ctx, spec2, seed, w, barrier2))
                .expect("spawn worker"),
        );
    }

    #[cfg(target_os = "linux")]
    let net_handle = net_engine.map(|engine| {
        let spec2 = Arc::clone(&shared_spec);
        let barrier2 = Arc::clone(&barrier);
        std::thread::Builder::new()
            .name(format!("{}-net", spec.name))
            .spawn(move || crate::net::net_driver(&spec2, engine, &barrier2, seed))
            .expect("spawn net driver")
    });

    let mut violations = Vec::new();
    let mut checks = 0usize;
    for (pi, phase) in spec.phases.iter().enumerate() {
        barrier.wait(); // release workers into the phase
        barrier.wait(); // wait for every worker to finish it
        clock.advance(phase.advance_ms);
        // Reap processes that disconnected during this phase (their
        // connection "closed"; the daemon would reap them lazily, the
        // harness does it deterministically).
        for &(w, p) in &spec.fault.disconnects {
            if p == pi {
                let _ = smd.deregister(procs[w].pid());
            }
        }
        if let Some((fault, at)) = spec.fault.chaos {
            if at == pi {
                apply_chaos(fault, &machine, &procs, &pools, &queues);
            }
        }
        if spec.fault.corrupt_cold == Some(pi) {
            // Storage-level sabotage of the second-chance tier: flip
            // bytes in every cold arena and cut every spill log in
            // half. Checksums must turn the damage into clean misses,
            // so no invariant family may trip — the scenario stays
            // benign by design.
            for (si, store) in stores.iter().enumerate() {
                if let Some(tier) = store.tier() {
                    tier.corrupt_arena(mix64(seed, 0xC01D ^ si as u64), 64);
                    tier.truncate_spill();
                }
            }
        }
        let scope = CheckScope {
            machine: &machine,
            smd: &smd,
            procs: &procs,
            pools: &pools,
            queues: &queues,
            stores: &stores,
        };
        violations.extend(scope.check_all(&format!("after phase {pi}")));
        checks += 1;
    }

    let outs: Vec<WorkerOut> = handles
        .into_iter()
        .map(|h| h.join().expect("worker panicked"))
        .collect();
    // The net driver tore its frontend down (reactors and shard
    // workers joined) before returning, so the quiesce sweep below
    // sees a static engine.
    let (
        net_requests,
        net_replies,
        net_deadline_closes,
        net_sheds,
        net_worker_restarts,
        net_injected_faults,
    ) = {
        #[cfg(target_os = "linux")]
        {
            match net_handle {
                Some(h) => {
                    let out = h.join().expect("net driver panicked");
                    violations.extend(out.violations);
                    (
                        out.requests,
                        out.replies,
                        out.deadline_closes,
                        out.sheds,
                        out.worker_restarts,
                        out.injected_faults,
                    )
                }
                None => (0, 0, 0, 0, 0, 0),
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64)
        }
    };

    // Quiesce: one more full check with everything still alive…
    let scope = CheckScope {
        machine: &machine,
        smd: &smd,
        procs: &procs,
        pools: &pools,
        queues: &queues,
        stores: &stores,
    };
    violations.extend(scope.check_all("quiesce"));
    checks += 1;
    if spec.kv_tier_round_trip {
        // Force one demote → promote round trip per tiered shard, so
        // the tier's machinery fires whatever order the workers ran
        // in: store a probe (the newest entry, so the last one shed),
        // shed the whole shard into its cold tier, and read the probe
        // back. A SET the budget refuses leaves nothing to promote,
        // and the tier counters the scenario tests assert on say so.
        for store in stores.iter().filter(|s| s.tier().is_some()) {
            const PROBE: &[u8] = b"testkit-tier-probe";
            let _ = store.set(PROBE, &[0x5A; 64]);
            store.shed(usize::MAX);
            store.get(PROBE);
        }
        violations.extend(scope.check_all("after the tier round trip"));
        checks += 1;
    }
    let (mut cold_demotions, mut cold_hits, mut spill_hits, mut spill_writes) = (0, 0, 0, 0);
    for store in &stores {
        let s = store.stats();
        cold_demotions += s.cold_demotions;
        cold_hits += s.cold_hits;
        spill_hits += s.spill_hits;
        spill_writes += s.spill_writes;
    }

    // …then tear the world down and verify nothing leaks through.
    for out in &outs {
        if out.gen_anomalies > 0 {
            violations.push(Violation {
                family: InvariantFamily::GenerationSafety,
                at: "during ops".to_string(),
                detail: format!(
                    "{} generation anomaly(ies) observed by worker probes/reads",
                    outs.iter().map(|o| o.gen_anomalies).sum::<u64>()
                ),
            });
            break;
        }
    }
    drop(engines);
    drop(stores);
    drop(queues);
    drop(pools);
    for proc in &procs {
        proc.shutdown();
    }
    let assigned = smd.stats().assigned_pages;
    if assigned != 0 {
        violations.push(Violation {
            family: InvariantFamily::BudgetConservation,
            at: "teardown".to_string(),
            detail: format!("{assigned} budget page(s) still assigned after every deregistration"),
        });
    }
    drop(procs);
    let ms = machine.stats();
    if ms.used_pages != 0 {
        violations.push(Violation {
            family: InvariantFamily::MachinePages,
            at: "teardown".to_string(),
            detail: format!("machine still shows {} used page(s)", ms.used_pages),
        });
    }
    if ms.traditional_pages != 0 {
        violations.push(Violation {
            family: InvariantFamily::MachinePages,
            at: "teardown".to_string(),
            detail: format!(
                "machine still shows {} traditional page(s)",
                ms.traditional_pages
            ),
        });
    }

    Verdict {
        scenario: spec.name.to_string(),
        seed,
        schedule_hash: outs.iter().fold(0u64, |acc, o| acc ^ o.schedule_hash),
        checks,
        ops_total: outs.iter().map(|o| o.ops).sum(),
        alloc_failures: outs.iter().map(|o| o.alloc_failures).sum(),
        sim_elapsed_ms: clock.now_ms(),
        cold_demotions,
        cold_hits,
        spill_hits,
        spill_writes,
        net_requests,
        net_replies,
        net_deadline_closes,
        net_sheds,
        net_worker_restarts,
        net_injected_faults,
        violations,
    }
}

fn apply_chaos(
    fault: ChaosFault,
    machine: &Arc<MachineMemory>,
    procs: &[Arc<TkProcess>],
    pools: &[Arc<HandlePool>],
    queues: &[Arc<CountedQueue>],
) {
    match fault {
        ChaosFault::LeakMachinePages(pages) => {
            machine
                .reserve(pages)
                .expect("chaos leak needs machine headroom; size the scenario accordingly");
        }
        ChaosFault::ForgeBudget(pages) => {
            procs[0].sma().grow_budget(pages);
        }
        ChaosFault::ZombieHandle => {
            // A pool may momentarily be empty; zombify the first that
            // has a live handle.
            let injected = pools.iter().any(|p| p.inject_zombie());
            assert!(injected, "no live handle to zombify; raise insert weight");
        }
        ChaosFault::StealthQueueOp => {
            queues[0].inject_stealth_op();
        }
        ChaosFault::ForgeCounter(n) => {
            // A lying metric: the mirror advances with no reclamation
            // behind it. Ground truth (SmaStats) is untouched, so only
            // the metrics-consistency family can notice.
            procs[0].sma().metrics().pages_reclaimed_total.add(n);
        }
    }
}
