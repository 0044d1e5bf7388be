//! Failure injection: denial, disconnection, stale handles, panicking
//! callbacks — the error surface must be errors, never UB or hangs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use softmem::core::budget::{DeniedBudget, Grant};
use softmem::core::error::DenyReason;
use softmem::core::{MachineMemory, Priority, Sma, SmaConfig, SoftError, PAGE_SIZE};
use softmem::daemon::{Smd, SmdConfig, SoftProcess};
use softmem::sds::{SoftLinkedList, SoftQueue};

#[test]
fn daemon_disconnect_degrades_to_fixed_budget() {
    let machine = MachineMemory::new(1024);
    let smd = Smd::new(SmdConfig::new(&machine, 256).initial_budget(16));
    let p = SoftProcess::spawn(&smd, "app").unwrap();
    let q: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(p.sma(), "q", Priority::new(1));
    q.push([0u8; PAGE_SIZE]).unwrap();
    // Simulate the daemon going away.
    p.sma().clear_budget_source();
    // Within the already-granted budget, life goes on…
    for _ in 0..10 {
        q.push([0u8; PAGE_SIZE]).unwrap();
    }
    // …beyond it, a clean budget error.
    let mut failed = false;
    for _ in 0..32 {
        if let Err(e) = q.push([0u8; PAGE_SIZE]) {
            assert!(matches!(e, SoftError::BudgetExceeded { .. }), "{e}");
            failed = true;
            break;
        }
    }
    assert!(failed, "fixed budget eventually exhausted");
}

#[test]
fn budget_source_that_always_denies() {
    let sma = Sma::with_config(SmaConfig::for_testing(2).auto_grow_chunk(8));
    sma.set_budget_source(Arc::new(DeniedBudget));
    let sds = sma.register_sds("d", Priority::default());
    let _a = sma.alloc_bytes(sds, PAGE_SIZE).unwrap();
    let _b = sma.alloc_bytes(sds, PAGE_SIZE).unwrap();
    assert!(matches!(
        sma.alloc_bytes(sds, PAGE_SIZE).unwrap_err(),
        SoftError::BudgetExceeded { .. }
    ));
}

#[test]
fn budget_source_granting_in_dribbles_terminates() {
    // A pathological source that grants one page at a time: the retry
    // loop must converge (or fail) rather than spin forever.
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    let sma = Sma::with_config(SmaConfig::for_testing(0).auto_grow_chunk(1));
    sma.set_budget_source(Arc::new(move |_need: usize, _want: usize| {
        calls2.fetch_add(1, Ordering::SeqCst);
        Ok(1usize)
    }));
    let sds = sma.register_sds("d", Priority::default());
    // A 3-page span needs 3 grants of 1 page.
    let h = sma.alloc_bytes(sds, 3 * PAGE_SIZE).unwrap();
    assert_eq!(h.len(), 3 * PAGE_SIZE);
    assert!(calls.load(Ordering::SeqCst) <= 8, "bounded retries");
}

#[test]
fn grant_error_propagates_through_sds_api() {
    let sma = Sma::with_config(SmaConfig::for_testing(0));
    sma.set_budget_source(Arc::new(|_need: usize, _want: usize| {
        Err(SoftError::DaemonUnavailable)
    }));
    let q: SoftQueue<u64> = SoftQueue::new(&sma, "q", Priority::default());
    assert_eq!(q.push(1).unwrap_err(), SoftError::DaemonUnavailable);
    assert!(q.is_empty(), "failed push leaves the queue unchanged");
}

#[test]
fn applied_grants_are_not_double_counted() {
    // A source that applies the grant itself (like the daemon client):
    // the SMA must not add it again.
    use softmem::core::{BudgetSource, SoftResult};
    struct ApplyingSource(std::sync::Weak<Sma>);
    impl BudgetSource for ApplyingSource {
        fn grant_more(&self, _need: usize, want: usize) -> SoftResult<Grant> {
            let sma = self.0.upgrade().expect("alive");
            sma.grow_budget(want);
            Ok(Grant::applied(want))
        }
    }
    let sma = Sma::with_config(SmaConfig::for_testing(0).auto_grow_chunk(4));
    sma.set_budget_source(Arc::new(ApplyingSource(Arc::downgrade(&sma))));
    let sds = sma.register_sds("d", Priority::default());
    let _h = sma.alloc_bytes(sds, PAGE_SIZE).unwrap();
    assert_eq!(sma.budget_pages(), 4, "exactly one application");
}

#[test]
fn machine_exhaustion_by_traditional_memory() {
    // Traditional memory can fill the machine; soft allocation then
    // fails with MachineFull even though the budget would allow it.
    let machine = MachineMemory::new(64);
    machine.reserve_traditional(60).unwrap();
    let sma = Sma::with_config(SmaConfig::new(Arc::clone(&machine), 32));
    let sds = sma.register_sds("d", Priority::default());
    let mut ok = 0;
    loop {
        match sma.alloc_bytes(sds, PAGE_SIZE) {
            Ok(_) => ok += 1,
            Err(SoftError::MachineFull { .. }) => break,
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert_eq!(ok, 4);
    machine.release_traditional(60);
}

#[test]
fn denial_reason_reaches_the_caller() {
    let machine = MachineMemory::new(256);
    let smd = Smd::new(SmdConfig::new(&machine, 8).initial_budget(0));
    let p = SoftProcess::spawn(&smd, "p").unwrap();
    let err = p.request_pages(64).unwrap_err();
    assert_eq!(
        err,
        SoftError::Denied {
            reason: DenyReason::ReclaimShortfall
        }
    );
}

#[test]
fn reclaim_during_iteration_is_serialised() {
    // A reclamation demand arriving while another thread iterates the
    // structure must serialise cleanly (locks), not tear the walk.
    // Budget exactly covers the list's pages: demands reach live data.
    let sma = Arc::new(Sma::with_config(
        SmaConfig::for_testing(32).free_pool_retain(0).sds_retain(0),
    ));
    let list = Arc::new(SoftLinkedList::<u64>::new(&sma, "l", Priority::new(0)));
    for i in 0..2000 {
        list.push_back(i).unwrap();
    }
    // The reclaimer holds off until one walk is through: left to the
    // scheduler, twenty reclaims can empty the list before the walker
    // first runs, and then nothing was walked at all.
    let walked_once = Arc::new(AtomicUsize::new(0));
    let walker = {
        let list = Arc::clone(&list);
        let walked_once = Arc::clone(&walked_once);
        std::thread::spawn(move || {
            let mut walks = 0u64;
            for _ in 0..50 {
                let mut prev = None;
                list.for_each(|&v| {
                    // Values remain strictly increasing front-to-back
                    // even while the front is being reclaimed.
                    if let Some(p) = prev {
                        assert!(v > p);
                    }
                    prev = Some(v);
                    walks += 1;
                });
                walked_once.store(1, Ordering::Release);
            }
            walks
        })
    };
    let reclaimer = {
        let sma = Arc::clone(&sma);
        std::thread::spawn(move || {
            while walked_once.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            for _ in 0..20 {
                sma.reclaim(2);
                std::thread::yield_now();
            }
        })
    };
    assert!(walker.join().unwrap() > 0);
    reclaimer.join().unwrap();
    assert!(list.len() < 2000, "reclaims landed");
}

#[test]
fn panicking_reclaim_callback_does_not_wedge_reclamation() {
    // A buggy last-chance callback panics: the SMA must treat the SDS
    // as yielding nothing and continue with the next one, and the
    // demand must still be satisfied from the healthy SDS.
    let sma = Arc::new(Sma::with_config(
        SmaConfig::for_testing(8).free_pool_retain(0).sds_retain(0),
    ));
    let broken: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(&sma, "broken", Priority::new(0));
    broken.set_reclaim_callback(|_v: &[u8; PAGE_SIZE]| panic!("buggy user callback"));
    let healthy: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(&sma, "healthy", Priority::new(5));
    for _ in 0..4 {
        broken.push([1u8; PAGE_SIZE]).unwrap();
        healthy.push([2u8; PAGE_SIZE]).unwrap();
    }
    let report = sma.reclaim(3);
    assert!(report.satisfied(), "{report:?}");
    // The panicking callback is contained per element: the broken SDS
    // still yields (it is the lowest priority), nothing leaks, and the
    // healthy SDS is untouched.
    assert_eq!(broken.len(), 1, "broken yielded its three oldest");
    assert_eq!(healthy.len(), 4, "healthy untouched");
    // Nothing leaked: the heap's live count matches the structures.
    assert_eq!(sma.stats().live_allocs, broken.len() + healthy.len());
    // Still fully usable (the budget shrank by the reclaimed pages, so
    // make room first).
    assert_eq!(healthy.pop().map(|v| v[0]), Some(2));
    healthy.push([3u8; PAGE_SIZE]).unwrap();
    assert_eq!(sma.stats().live_allocs, broken.len() + healthy.len());
}

#[test]
fn absurd_allocations_fail_early() {
    use softmem::core::MAX_ALLOC_BYTES;
    // Tiny budget: the at-limit request is rejected by the budget
    // check before any actual gigabyte allocation happens.
    let sma = Sma::standalone(8);
    let sds = sma.register_sds("d", Priority::default());
    let err = sma.alloc_bytes(sds, MAX_ALLOC_BYTES + 1).unwrap_err();
    assert_eq!(
        err,
        SoftError::AllocTooLarge {
            requested: MAX_ALLOC_BYTES + 1,
            max: MAX_ALLOC_BYTES
        }
    );
    // At the limit it is a normal (budget/machine-governed) request.
    assert!(matches!(
        sma.alloc_bytes(sds, MAX_ALLOC_BYTES),
        Ok(_) | Err(SoftError::BudgetExceeded { .. }) | Err(SoftError::MachineFull { .. })
    ));
}

#[test]
fn strict_reclaim_reports_shortfall_as_error() {
    let sma = Sma::with_config(SmaConfig::for_testing(4).free_pool_retain(0).sds_retain(0));
    let q: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(&sma, "q", Priority::new(0));
    for _ in 0..4 {
        q.push([0u8; PAGE_SIZE]).unwrap();
    }
    assert!(sma.reclaim_strict(2).is_ok());
    let err = sma.reclaim_strict(10).unwrap_err();
    assert_eq!(
        err,
        SoftError::ReclaimShortfall {
            requested_pages: 10,
            reclaimed_pages: 2, // the two pages the queue still held
        }
    );
}

#[test]
fn daemon_shutdown_denies_cleanly() {
    let machine = MachineMemory::new(256);
    let smd = Smd::new(SmdConfig::new(&machine, 64).initial_budget(4));
    let p = SoftProcess::spawn(&smd, "p").unwrap();
    assert_eq!(p.request_pages(8).unwrap(), 8);
    smd.begin_shutdown();
    let err = p.request_pages(8).unwrap_err();
    assert_eq!(
        err,
        SoftError::Denied {
            reason: DenyReason::ShuttingDown
        }
    );
    // Already-granted budget keeps working.
    let q: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(p.sma(), "q", Priority::new(1));
    for _ in 0..12 {
        q.push([0u8; PAGE_SIZE]).unwrap();
    }
}

#[test]
fn zero_page_demands_and_empty_reclaims() {
    let sma = Sma::standalone(16);
    let report = sma.reclaim(0);
    assert!(report.satisfied());
    assert_eq!(report.total_yielded(), 0);
    // Reclaim on an SMA with only empty SDSs.
    let _q: SoftQueue<u8> = SoftQueue::new(&sma, "q", Priority::default());
    let report = sma.reclaim(4);
    assert_eq!(report.from_slack, 4);
    assert!(report.from_sds.is_empty());
}

#[test]
fn daemon_death_between_credit_and_grant_reply_applies_once() {
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    use softmem::daemon::{Pid, SmdHook, UdsClientConfig, UdsKillSwitch, UdsProcess, UdsSmdServer};

    // A hook that kills the daemon immediately after a grant is
    // committed (the CREDIT line is already on the wire) but before
    // the GRANT reply is written — the narrowest crash window in the
    // protocol, where naive accounting would double-apply or leak.
    struct KillOnGrant {
        armed: AtomicBool,
        kill: UdsKillSwitch,
    }
    impl SmdHook for KillOnGrant {
        fn on_grant(&self, _pid: Pid, _pages: usize) {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.kill.fire();
            }
        }
    }

    let path = {
        let mut p = std::env::temp_dir();
        p.push(format!("softmem-credit-kill-{}.sock", std::process::id()));
        p
    };
    let machine = MachineMemory::new(1024);
    let server = UdsSmdServer::bind(
        Smd::new(SmdConfig::new(&machine, 256).initial_budget(4)),
        &path,
    )
    .unwrap();
    let ccfg = UdsClientConfig {
        heartbeat_interval: Duration::from_millis(20),
        reconnect_backoff_min: Duration::from_millis(5),
        reconnect_backoff_max: Duration::from_millis(40),
        request_timeout: Duration::from_secs(5),
    };
    let p = UdsProcess::connect_with(
        &path,
        "mid-grant",
        SmaConfig::new(Arc::clone(&machine), 0),
        ccfg,
    )
    .unwrap();
    let before = p.sma().budget_pages();
    assert_eq!(before, 4, "registration grant applied");
    server.smd().set_hook(Arc::new(KillOnGrant {
        armed: AtomicBool::new(true),
        kill: server.kill_switch(),
    }));

    // The caller sees a clean degraded-mode denial (never a hang, never
    // a phantom success)…
    let err = p.request_range(8, 8).unwrap_err();
    assert_eq!(
        err,
        SoftError::Denied {
            reason: DenyReason::Degraded
        }
    );
    drop(server);
    // …and the committed CREDIT was applied exactly once: the reader
    // drains the stream in order before surfacing the disconnect.
    assert_eq!(
        p.sma().budget_pages(),
        before + 8,
        "credit applied exactly once, no double-apply"
    );

    // A new daemon incarnation adopts the client's actual holdings via
    // RECONCILE: ledger and SMA agree exactly — nothing leaked in the
    // crash window.
    let server2 = UdsSmdServer::bind(
        Smd::new(SmdConfig::new(&machine, 256).initial_budget(4)),
        &path,
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while p.is_degraded() || p.epoch() != server2.smd().epoch() {
        assert!(Instant::now() < deadline, "client failed to reconcile");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server2.smd().stats();
    let snap = stats
        .procs
        .iter()
        .find(|s| s.name == "mid-grant")
        .expect("reconciled account");
    assert_eq!(snap.usage.budget_pages, p.sma().budget_pages());
    assert_eq!(stats.assigned_pages, snap.usage.budget_pages);
    drop(server2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn queue_survives_interleaved_push_pop_reclaim_threads() {
    let sma = Arc::new(Sma::with_config(
        SmaConfig::for_testing(4096)
            .free_pool_retain(0)
            .sds_retain(0),
    ));
    let q = Arc::new(SoftQueue::<u64>::new(&sma, "q", Priority::new(0)));
    let mut handles = Vec::new();
    for t in 0..3 {
        let q = Arc::clone(&q);
        handles.push(std::thread::spawn(move || {
            for i in 0..1500u64 {
                q.push(t * 10_000 + i).unwrap();
                if i % 3 == 0 {
                    q.pop();
                }
            }
        }));
    }
    let reclaimer = {
        let sma = Arc::clone(&sma);
        std::thread::spawn(move || {
            for _ in 0..30 {
                sma.reclaim(4);
            }
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    reclaimer.join().unwrap();
    // Drain: the queue empties cleanly and nothing leaks.
    while q.pop().is_some() {}
    assert!(q.is_empty());
    assert_eq!(sma.stats().live_allocs, 0);
}
