//! The named scenario registry.
//!
//! Benign scenarios must produce a clean verdict for every seed; chaos
//! scenarios deliberately break exactly one invariant family and must
//! be *caught* — they prove the checker can fail.

use softmem_core::BudgetFault;

use crate::fault::{ChaosFault, FaultPlan, NetChaos, SysIoPlan};
use crate::invariants::InvariantFamily;
use crate::scenario::{NetSpec, OpMix, Phase, ScenarioSpec};

/// Light load, no pressure: the harness itself must not invent
/// violations.
pub fn quiet_queues() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("quiet_queues");
    s.capacity_pages = 256;
    s.initial_budget_pages = 16;
    s.mix = OpMix {
        insert: 2,
        remove: 1,
        probe: 2,
        push: 6,
        pop: 5,
        ..OpMix::default()
    };
    s
}

/// SDS destroy/re-register churn while allocations continue.
pub fn register_release_churn() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("register_release_churn");
    s.pools_per_proc = 2;
    s.mix = OpMix {
        insert: 6,
        remove: 2,
        probe: 3,
        recycle: 2,
        ..OpMix::default()
    };
    s
}

/// Budgets far below demand: every worker hammers the daemon and each
/// grant forces reclamation from a peer.
pub fn demand_storm() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("demand_storm");
    s.procs = 4;
    s.capacity_pages = 96;
    s.initial_budget_pages = 4;
    s.alloc_bytes = (1024, 4096);
    s.mix = OpMix {
        insert: 10,
        remove: 2,
        probe: 2,
        push: 4,
        pop: 1,
        slack: 1,
        ..OpMix::default()
    };
    s
}

/// Grants racing reclamation: tight capacity plus voluntary slack
/// releases and traditional-memory churn.
pub fn grant_vs_reclaim_race() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("grant_vs_reclaim_race");
    s.procs = 4;
    s.capacity_pages = 80;
    s.initial_budget_pages = 4;
    s.trad_max_pages = 6;
    s.alloc_bytes = (2048, 4096);
    s.mix = OpMix {
        insert: 8,
        remove: 3,
        probe: 2,
        push: 3,
        pop: 2,
        slack: 3,
        trad: 2,
        ..OpMix::default()
    };
    s
}

/// Every queue's reclaim callback panics; reclamation (and its
/// accounting) must survive anyway.
pub fn callback_panic_storm() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("callback_panic_storm");
    s.procs = 4;
    s.capacity_pages = 96;
    s.initial_budget_pages = 4;
    s.mix = OpMix {
        insert: 6,
        remove: 2,
        probe: 2,
        push: 8,
        pop: 2,
        ..OpMix::default()
    };
    s.fault.panic_callbacks = true;
    s
}

/// A KV store per process under memory pressure, Zipf-distributed
/// keys.
pub fn kv_under_pressure() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("kv_under_pressure");
    s.kv = true;
    s.capacity_pages = 96;
    s.initial_budget_pages = 4;
    s.mix = OpMix {
        insert: 3,
        remove: 1,
        probe: 2,
        push: 2,
        pop: 1,
        kv: 8,
        slack: 1,
        ..OpMix::default()
    };
    s
}

/// The daemon forcibly denies every 5th budget request.
pub fn denial_wave() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("denial_wave");
    s.procs = 4;
    s.initial_budget_pages = 4;
    s.fault.deny_every = Some(5);
    s
}

/// Every other grant reply is dropped on the floor after the daemon
/// applied it — the classic lost-reply double-accounting trap.
pub fn dropped_grant() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("dropped_grant");
    s.initial_budget_pages = 4;
    s.fault.budget_script = vec![BudgetFault::PassThrough, BudgetFault::DropReply];
    s
}

/// Grant replies are delayed while peers keep mutating.
pub fn delayed_grant() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("delayed_grant");
    s.initial_budget_pages = 4;
    s.phases = vec![
        Phase {
            ops_per_worker: 80,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 80,
            advance_ms: 1_000,
        },
    ];
    s.fault.budget_script = vec![BudgetFault::DelayMs(1), BudgetFault::PassThrough];
    s
}

/// Processes disconnect abruptly mid-run; the daemon reaps them and
/// the survivors' accounting must stay exact.
pub fn disconnect_churn() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("disconnect_churn");
    s.procs = 4;
    s.initial_budget_pages = 4;
    s.fault.disconnects = vec![(1, 1), (3, 2)];
    s
}

/// Telemetry under maximum churn: heavy mixed load across every
/// instrumented layer, so the metrics-consistency family certifies
/// the mirrors while grants, denials and reclamation race.
pub fn telemetry_storm() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("telemetry_storm");
    s.procs = 4;
    s.capacity_pages = 96;
    s.initial_budget_pages = 4;
    s.trad_max_pages = 4;
    s.alloc_bytes = (512, 4096);
    s.mix = OpMix {
        insert: 8,
        remove: 3,
        probe: 2,
        push: 4,
        pop: 2,
        slack: 2,
        trad: 1,
        recycle: 1,
        ..OpMix::default()
    };
    s
}

/// The KV layer's telemetry mirrors (hits/misses/sets/reclaimed)
/// certified while stores shed entries under pressure.
pub fn kv_telemetry_soak() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("kv_telemetry_soak");
    s.kv = true;
    s.procs = 4;
    s.capacity_pages = 80;
    s.initial_budget_pages = 4;
    s.mix = OpMix {
        insert: 2,
        remove: 1,
        probe: 1,
        push: 2,
        pop: 1,
        kv: 10,
        slack: 1,
        ..OpMix::default()
    };
    s
}

/// Every process runs a 4-shard KV engine and hammers it with
/// single-key traffic under tight budgets: shard routing, per-shard
/// SDS registration and per-shard reclamation all race, and every
/// shard store is certified individually by all five families.
pub fn shard_storm() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("shard_storm");
    s.kv = true;
    s.kv_shards = 4;
    s.procs = 3;
    s.capacity_pages = 96;
    s.initial_budget_pages = 4;
    s.mix = OpMix {
        insert: 3,
        remove: 1,
        probe: 1,
        push: 2,
        pop: 1,
        kv: 10,
        slack: 1,
        ..OpMix::default()
    };
    s
}

/// Cross-shard operations (MGET fan-outs, DBSIZE sums, prefix scans)
/// interleaved with enough allocation pressure that reclamation keeps
/// firing mid-fan-out — merged views must never corrupt shard state.
pub fn reclaim_during_cross_shard_op() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("reclaim_during_cross_shard_op");
    s.kv = true;
    s.kv_shards = 4;
    s.procs = 3;
    s.capacity_pages = 80;
    s.initial_budget_pages = 4;
    s.alloc_bytes = (1024, 4096);
    s.mix = OpMix {
        insert: 6,
        remove: 1,
        probe: 1,
        push: 1,
        pop: 1,
        kv: 4,
        kv_cross: 6,
        slack: 1,
        ..OpMix::default()
    };
    s
}

/// Zipf keys concentrate load on whichever shards own the hot keys,
/// so shard SDSs grow wildly unevenly while the daemon squeezes the
/// shared budget — the uneven-pressure shape a real sharded cache
/// lives in.
pub fn uneven_shard_pressure() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("uneven_shard_pressure");
    s.kv = true;
    s.kv_shards = 4;
    s.procs = 2;
    s.capacity_pages = 64;
    s.initial_budget_pages = 4;
    s.alloc_bytes = (2048, 4096);
    s.mix = OpMix {
        insert: 5,
        remove: 1,
        probe: 1,
        push: 1,
        pop: 1,
        kv: 8,
        kv_cross: 2,
        slack: 2,
        ..OpMix::default()
    };
    s
}

/// Alloc/free churn sized so pages constantly cycle through the
/// per-SDS magazines and the lock-free depot: generous budgets keep
/// reclamation quiet, deep magazines and SDS recycling keep the
/// park/refill/destroy-drain paths hot, and the metrics-consistency
/// family certifies the delta-maintained magazine/depot gauges (and
/// per-SDS `sds{i}_magazine_*` gauges) at every quiescent point.
pub fn magazine_churn() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("magazine_churn");
    s.procs = 4;
    s.pools_per_proc = 2;
    s.capacity_pages = 160;
    s.initial_budget_pages = 24;
    s.sds_retain_pages = 8;
    s.free_pool_retain_pages = 16;
    s.alloc_bytes = (2048, 4096); // page-sized slots → frees vacate whole pages
    s.mix = OpMix {
        insert: 8,
        remove: 8,
        probe: 2,
        push: 1,
        pop: 1,
        recycle: 2,
        ..OpMix::default()
    };
    s
}

/// Magazines full of parked pages while budgets are squeezed hard:
/// every grant forces reclamation to steal pages back out of peer
/// magazines (and the depot) before touching live data, racing the
/// owners' lock-free re-allocation. Page conservation and the
/// steal-back counters must balance exactly.
pub fn steal_back_pressure() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("steal_back_pressure");
    s.procs = 4;
    s.capacity_pages = 80;
    s.initial_budget_pages = 4;
    s.sds_retain_pages = 8;
    s.free_pool_retain_pages = 8;
    s.alloc_bytes = (2048, 4096);
    s.mix = OpMix {
        insert: 10,
        remove: 6,
        probe: 2,
        push: 2,
        pop: 1,
        slack: 2,
        ..OpMix::default()
    };
    s
}

/// Readers hold pinned SMR guards across forced reclamation while
/// writers recycle slots: dwelling guarded reads race frees,
/// budget-squeezed reclamation passes and allocation churn. Freed
/// pages must park on the limbo list instead of being recycled under a
/// live guard, and no reader may ever observe later-generation bytes.
/// Page-scale slots make every free vacate a whole page, so limbo
/// parking (and its `smr_limbo_pages` mirror) stays hot.
pub fn guarded_reader_storm() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("guarded_reader_storm");
    s.procs = 4;
    s.capacity_pages = 96;
    s.initial_budget_pages = 4;
    s.alloc_bytes = (2048, 4096);
    s.mix = OpMix {
        insert: 8,
        remove: 6,
        probe: 2,
        guarded: 8,
        push: 2,
        pop: 1,
        slack: 2,
        ..OpMix::default()
    };
    s
}

/// Guarded dwell-reads racing SDS destroy/re-register churn: a
/// destroyed SDS's heap must park in limbo while any guard is pinned
/// (teardown defers, it never blocks the destroyer), stale handles
/// from before the recycle must stay revoked, and limbo must drain
/// back to the free pool once the guards are gone.
pub fn guarded_destroy_churn() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("guarded_destroy_churn");
    s.pools_per_proc = 2;
    s.mix = OpMix {
        insert: 6,
        remove: 2,
        probe: 2,
        guarded: 6,
        recycle: 2,
        ..OpMix::default()
    };
    s
}

/// Second-chance tiering under live reclamation: tight budgets keep
/// the last-chance callback demoting KV entries into each engine's
/// compressed cold arena while Zipf readers immediately GET them back,
/// so demote → promote → re-demote churn races ordinary set/get
/// traffic. Every hit is byte-validated (0x5A fill), and the
/// metrics-consistency family certifies the `cold_*` mirrors plus the
/// tier's demotion conservation law at every quiescent point.
pub fn demote_promote_churn() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("demote_promote_churn");
    s.kv = true;
    s.kv_cold_arena_bytes = 256 << 10;
    s.kv_tier_round_trip = true;
    s.capacity_pages = 12;
    s.initial_budget_pages = 4;
    s.mix = OpMix {
        insert: 1,
        remove: 1,
        probe: 1,
        push: 1,
        pop: 1,
        kv: 16,
        slack: 1,
        ..OpMix::default()
    };
    s.phases = vec![
        Phase {
            ops_per_worker: 500,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 500,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 400,
            advance_ms: 1_000,
        },
    ];
    s
}

/// The cold tier's disk stage under flood: arenas small enough that
/// sustained demotion pressure forces segment eviction onto the spill
/// log while readers hammer promoted keys across shards. Arena → disk
/// → hot round-trips must stay byte-exact and the spill accounting
/// must conserve.
pub fn cold_tier_flood() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("cold_tier_flood");
    s.kv = true;
    s.kv_shards = 2;
    // Below the 512-byte segment floor: the arena holds one open
    // segment, so every sealed segment goes to the spill log. The
    // testkit's values compress ~50×; at 1 KiB about every second run
    // never pushed a single segment out and spilled nothing.
    s.kv_cold_arena_bytes = 1 << 8;
    s.kv_spill = true;
    s.capacity_pages = 12;
    s.initial_budget_pages = 4;
    s.mix = OpMix {
        insert: 1,
        remove: 1,
        probe: 1,
        push: 1,
        pop: 1,
        kv: 16,
        slack: 1,
        ..OpMix::default()
    };
    s.phases = vec![
        Phase {
            ops_per_worker: 500,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 500,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 400,
            advance_ms: 1_000,
        },
    ];
    s
}

/// Cold-tier storage corruption: after phase 1 the runner flips bytes
/// in every arena and truncates every spill log, then the workers keep
/// reading. Checksums must surface every damaged entry as a clean miss
/// — never torn data, a panic, or an invariant violation — so this is
/// a *benign* scenario despite the sabotage.
pub fn cold_tier_corruption() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("cold_tier_corruption");
    s.kv = true;
    s.kv_cold_arena_bytes = 1 << 10;
    s.kv_spill = true;
    s.capacity_pages = 12;
    s.initial_budget_pages = 4;
    s.mix = OpMix {
        insert: 1,
        remove: 1,
        probe: 1,
        push: 1,
        pop: 1,
        kv: 16,
        slack: 1,
        ..OpMix::default()
    };
    s.phases = vec![
        Phase {
            ops_per_worker: 500,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 500,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 400,
            advance_ms: 1_000,
        },
    ];
    s.fault.corrupt_cold = Some(1);
    s.kv_tier_round_trip = true;
    s
}

/// A reactor frontend under slow readers: four of 64 socket clients
/// stop reading mid-pipeline while hammering a 2 KiB value, so their
/// replies pile into per-connection write buffers. The network-plane
/// family proves the buffers stayed under the high-water bound and
/// that the pause machinery actually engaged; budgets are generous so
/// the only pressure is the network plane's own. The usual memory
/// workers run alongside, and the net engine's shards, process and
/// metrics are swept by all five classic families at every barrier.
pub fn slow_reader_backpressure() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("slow_reader_backpressure");
    s.capacity_pages = 256;
    s.initial_budget_pages = 16;
    s.phases = vec![
        Phase {
            ops_per_worker: 150,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 150,
            advance_ms: 1_000,
        },
    ];
    s.net = Some(NetSpec {
        clients: 64,
        requests_per_client: 300,
        pipeline: 8,
        stalled_clients: 4,
        disconnect_half_mid_phase: None,
        shards: 4,
        // Tiny on purpose: backpressure must trip within a test-sized
        // workload.
        write_highwater: 4 << 10,
        chaos: NetChaos::none(),
    });
    s
}

/// Half of 1 000 reactor connections drop simultaneously,
/// mid-pipeline, with replies in flight. No fd may leak
/// (`accepted == closed` at teardown), no shard worker may wedge (the
/// plane must quiesce and then serve the survivors a full second
/// phase), and the quiescence counters must converge through the
/// abandoned in-flight replies.
pub fn mass_disconnect() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("mass_disconnect");
    s.capacity_pages = 256;
    s.initial_budget_pages = 16;
    s.phases = vec![
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
    ];
    s.net = Some(NetSpec {
        clients: 1_000,
        requests_per_client: 30,
        pipeline: 4,
        stalled_clients: 0,
        disconnect_half_mid_phase: Some(0),
        shards: 4,
        write_highwater: 64 << 10,
        chaos: NetChaos::none(),
    });
    s
}

/// NET FAULT: every raw syscall in the reactor misbehaves on a seeded
/// schedule — EINTR, EAGAIN, ECONNRESET, EMFILE on accept, short reads,
/// partial writes, EINTR'd epoll waits and dropped eventfd wakes. The
/// plane must retry, never tear or reorder a reply on a surviving
/// connection, and balance its reply ledger through every reset.
pub fn net_syscall_storm() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("net_syscall_storm");
    s.capacity_pages = 256;
    s.initial_budget_pages = 16;
    s.phases = vec![
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
    ];
    let mut chaos = NetChaos::none();
    chaos.sysio = SysIoPlan {
        eintr_every: 7,
        eagain_every: 11,
        reset_every: 97, // disruptive: a reset kills the connection
        short_read_cap: 129,
        short_write_cap: 57,
        accept_emfile_every: 13,
        poll_eintr_every: 19,
        drop_wake_every: 5,
    };
    s.net = Some(NetSpec {
        clients: 48,
        requests_per_client: 200,
        pipeline: 8,
        stalled_clients: 0,
        disconnect_half_mid_phase: None,
        shards: 4,
        write_highwater: 64 << 10,
        chaos,
    });
    s
}

/// NET FAULT: the deadline reaper under stalled readers. Four clients
/// stop reading mid-pipeline; the write-stall deadline must evict them
/// (`expect_deadline_closes`) while every healthy client is served in
/// full and the ledger accounts for the evicted conns' parked frames.
pub fn net_deadline_reaper() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("net_deadline_reaper");
    s.capacity_pages = 256;
    s.initial_budget_pages = 16;
    s.phases = vec![
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
    ];
    let mut chaos = NetChaos::none();
    // Short on purpose: the whole scenario runs in a few hundred wall
    // milliseconds (memory phases are simulated time), so the stall
    // bound must fire well inside one phase. Healthy clients make
    // write progress every swarm pass and keep pushing their deadline.
    chaos.write_stall_timeout_ms = Some(50);
    chaos.idle_timeout_ms = Some(2_500);
    chaos.expect_deadline_closes = true;
    s.net = Some(NetSpec {
        clients: 32,
        requests_per_client: 400,
        // Deep enough that a stalled reader's pipelined fat replies
        // overflow both shrunken kernel buffers and leave bytes stuck
        // in the server's write buffer — otherwise the kernel absorbs
        // the whole pipeline and the stall deadline disarms.
        pipeline: 16,
        stalled_clients: 4,
        disconnect_half_mid_phase: None,
        shards: 4,
        // Tiny so stalled conns hit the high-water mark (and then the
        // stall deadline) within a test-sized workload.
        write_highwater: 4 << 10,
        chaos,
    });
    s
}

/// NET FAULT: admission control brownout. Tiny rings and a low global
/// in-flight ceiling force fast `ERR overloaded` sheds under a
/// pipelined burst (`expect_sheds`), but every shed is answered in
/// order on a healthy connection — this scenario is *not* disruptive,
/// so any io error or torn reply is still a violation.
pub fn net_overload_brownout() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("net_overload_brownout");
    s.capacity_pages = 256;
    s.initial_budget_pages = 16;
    s.phases = vec![
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
    ];
    let mut chaos = NetChaos::none();
    chaos.ring_capacity = Some(8);
    chaos.shed_inflight = Some(64);
    chaos.accept_pause_inflight = Some(512);
    chaos.park_shed_after_ms = Some(50);
    chaos.expect_sheds = true;
    s.net = Some(NetSpec {
        clients: 64,
        requests_per_client: 150,
        pipeline: 16,
        stalled_clients: 0,
        disconnect_half_mid_phase: None,
        shards: 4,
        write_highwater: 64 << 10,
        chaos,
    });
    s
}

/// NET FAULT: a shard worker panics every N frames. The supervisor must
/// restart it (`expect_worker_restarts`), the aborted request must get
/// a clean error reply instead of a hung or torn connection, and the
/// other shards must keep serving throughout — also not disruptive.
pub fn net_worker_panic() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("net_worker_panic");
    s.capacity_pages = 256;
    s.initial_budget_pages = 16;
    s.phases = vec![
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
        Phase {
            ops_per_worker: 100,
            advance_ms: 1_000,
        },
    ];
    let mut chaos = NetChaos::none();
    chaos.worker_panic_every = 50;
    chaos.expect_worker_restarts = true;
    s.net = Some(NetSpec {
        clients: 16,
        requests_per_client: 200,
        pipeline: 8,
        stalled_clients: 0,
        disconnect_half_mid_phase: None,
        shards: 4,
        write_highwater: 64 << 10,
        chaos,
    });
    s
}

/// The network-plane fault campaign: each scenario arms one fault
/// family against the reactor frontend and must still produce a clean
/// verdict. Kept out of [`benign`] so the campaign sweep (and its CI
/// job) is the single place they run.
pub fn net_fault_campaign() -> Vec<ScenarioSpec> {
    vec![
        net_syscall_storm(),
        net_deadline_reaper(),
        net_overload_brownout(),
        net_worker_panic(),
    ]
}

/// CHAOS: machine pages leak behind the allocators' backs.
pub fn chaos_leak_machine_pages() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("chaos_leak_machine_pages");
    s.fault.chaos = Some((ChaosFault::LeakMachinePages(7), 1));
    s
}

/// CHAOS: a forged grant inflates one SMA's budget with no daemon
/// assignment behind it (the tap also forges, so the budget path
/// itself is corrupt).
pub fn chaos_forged_grant() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("chaos_forged_grant");
    s.fault.chaos = Some((ChaosFault::ForgeBudget(9), 1));
    s
}

/// CHAOS: a live handle is marked stale without revocation.
pub fn chaos_zombie_handle() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("chaos_zombie_handle");
    s.mix.insert = 10; // keep live handles plentiful for the zombify
    s.fault.chaos = Some((ChaosFault::ZombieHandle, 1));
    s
}

/// CHAOS: a queue element moves without its counters noticing.
pub fn chaos_stealth_pop() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("chaos_stealth_pop");
    s.mix.push = 10;
    s.fault.chaos = Some((ChaosFault::StealthQueueOp, 1));
    s
}

/// CHAOS: a telemetry counter is forged — the pages-reclaimed mirror
/// advances with no reclamation behind it.
pub fn chaos_forged_counter() -> ScenarioSpec {
    let mut s = ScenarioSpec::baseline("chaos_forged_counter");
    s.fault.chaos = Some((ChaosFault::ForgeCounter(11), 1));
    s
}

/// Every benign scenario (clean verdict expected for any seed).
pub fn benign() -> Vec<ScenarioSpec> {
    vec![
        quiet_queues(),
        register_release_churn(),
        demand_storm(),
        grant_vs_reclaim_race(),
        callback_panic_storm(),
        kv_under_pressure(),
        denial_wave(),
        dropped_grant(),
        delayed_grant(),
        disconnect_churn(),
        telemetry_storm(),
        kv_telemetry_soak(),
        shard_storm(),
        reclaim_during_cross_shard_op(),
        uneven_shard_pressure(),
        magazine_churn(),
        steal_back_pressure(),
        guarded_reader_storm(),
        guarded_destroy_churn(),
        demote_promote_churn(),
        cold_tier_flood(),
        cold_tier_corruption(),
        slow_reader_backpressure(),
        mass_disconnect(),
    ]
}

/// Every chaos scenario with the family its fault must trip.
pub fn chaos() -> Vec<(ScenarioSpec, InvariantFamily)> {
    vec![
        chaos_leak_machine_pages(),
        chaos_forged_grant(),
        chaos_zombie_handle(),
        chaos_stealth_pop(),
        chaos_forged_counter(),
    ]
    .into_iter()
    .map(|s| {
        let family = s.fault.chaos.expect("chaos scenario").0.target_family();
        (s, family)
    })
    .collect()
}

/// Looks a scenario up by name across both registries.
pub fn by_name(name: &str) -> Option<ScenarioSpec> {
    benign()
        .into_iter()
        .chain(chaos().into_iter().map(|(s, _)| s))
        .find(|s| s.name == name)
}

/// Ensures `FaultPlan::none()` really is the empty plan (guards the
/// registry's baseline assumption).
pub fn baseline_is_fault_free() -> bool {
    let f = FaultPlan::none();
    f.budget_script.is_empty()
        && f.deny_every.is_none()
        && f.disconnects.is_empty()
        && !f.panic_callbacks
        && f.chaos.is_none()
        && f.corrupt_cold.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = benign().iter().map(|s| s.name).collect();
        names.extend(chaos().iter().map(|(s, _)| s.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate scenario name");
        for name in names {
            assert!(by_name(name).is_some(), "{name} not resolvable");
        }
        assert!(by_name("no_such_scenario").is_none());
        assert!(baseline_is_fault_free());
    }

    #[test]
    fn chaos_scenarios_cover_every_checkable_family() {
        let families: std::collections::BTreeSet<_> = chaos().into_iter().map(|(_, f)| f).collect();
        assert_eq!(families.len(), 5);
    }
}
