//! Unit tests for the Soft Memory Allocator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use super::*;
use crate::budget::{DeniedBudget, UnlimitedBudget};
use crate::error::SoftError;
use crate::page::MachineMemory;

fn sma_with_budget(pages: usize) -> Arc<Sma> {
    Sma::standalone(pages)
}

#[test]
fn value_roundtrip() {
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, [7u8; 100]).unwrap();
    assert_eq!(sma.with_value(&slot, |v| v[99]).unwrap(), 7);
    let back = sma.take_value(slot).unwrap();
    assert_eq!(back, [7u8; 100]);
    assert_eq!(sma.stats().live_allocs, 0);
}

#[test]
fn bytes_roundtrip() {
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    let h = sma.alloc_bytes(sds, 300).unwrap();
    sma.with_bytes_mut(&h, |b| b[0..4].copy_from_slice(&[1, 2, 3, 4]))
        .unwrap();
    let sum: u32 = sma
        .with_bytes(&h, |b| b[0..4].iter().map(|&x| x as u32).sum())
        .unwrap();
    assert_eq!(sum, 10);
    assert_eq!(h.len(), 300);
    sma.free_bytes(h).unwrap();
}

#[test]
fn drop_runs_on_free_value() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Probe(#[allow(dead_code)] u64);
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    DROPS.store(0, Ordering::SeqCst);
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, Probe(1)).unwrap();
    sma.free_value(slot).unwrap();
    assert_eq!(DROPS.load(Ordering::SeqCst), 1);
}

#[test]
fn take_value_skips_in_place_drop() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Probe;
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    DROPS.store(0, Ordering::SeqCst);
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, Probe).unwrap();
    let v = sma.take_value(slot).unwrap();
    assert_eq!(DROPS.load(Ordering::SeqCst), 0);
    drop(v);
    assert_eq!(DROPS.load(Ordering::SeqCst), 1);
}

#[test]
fn budget_exceeded_without_source() {
    let sma = sma_with_budget(1);
    let sds = sma.register_sds("t", Priority::default());
    // First page fits; second page exceeds the 1-page budget.
    let _a = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    let err = sma.alloc_value(sds, [0u8; 4096]).unwrap_err();
    assert!(matches!(err, SoftError::BudgetExceeded { .. }), "{err}");
}

#[test]
fn budget_source_grows_on_demand() {
    let sma = sma_with_budget(1);
    sma.set_budget_source(Arc::new(UnlimitedBudget));
    let sds = sma.register_sds("t", Priority::default());
    for _ in 0..10 {
        sma.alloc_value(sds, [0u8; 4096]).unwrap();
    }
    assert!(sma.budget_pages() >= 10);
    assert!(sma.stats().budget_granted_total > 0);
}

#[test]
fn denied_budget_surfaces_as_budget_exceeded() {
    let sma = sma_with_budget(1);
    sma.set_budget_source(Arc::new(DeniedBudget));
    let sds = sma.register_sds("t", Priority::default());
    let _a = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    let err = sma.alloc_value(sds, [0u8; 4096]).unwrap_err();
    assert!(matches!(err, SoftError::BudgetExceeded { .. }));
}

#[test]
fn budget_source_error_propagates() {
    let sma = sma_with_budget(0);
    sma.set_budget_source(Arc::new(|_need: usize, _want: usize| {
        Err(SoftError::DaemonUnavailable)
    }));
    let sds = sma.register_sds("t", Priority::default());
    assert_eq!(
        sma.alloc_bytes(sds, 8).unwrap_err(),
        SoftError::DaemonUnavailable
    );
}

#[test]
fn machine_full_is_distinct_from_budget() {
    let machine = MachineMemory::new(2);
    let cfg = crate::SmaConfig::new(machine, 100);
    let sma = Sma::with_config(cfg);
    let sds = sma.register_sds("t", Priority::default());
    let _a = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    let _b = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    let err = sma.alloc_value(sds, [0u8; 4096]).unwrap_err();
    assert!(matches!(err, SoftError::MachineFull { .. }), "{err}");
}

#[test]
fn span_allocations() {
    let sma = sma_with_budget(64);
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, [42u8; 20_000]).unwrap();
    assert_eq!(sma.with_value(&slot, |v| v[19_999]).unwrap(), 42);
    let before = sma.held_pages();
    assert!(before >= 5);
    sma.free_value(slot).unwrap();
    assert_eq!(sma.held_pages(), before - 5);
}

#[test]
fn unknown_sds_is_rejected() {
    let sma = sma_with_budget(4);
    let bogus = SdsId::from_index(7);
    assert_eq!(
        sma.alloc_bytes(bogus, 8).unwrap_err(),
        SoftError::UnknownSds(bogus)
    );
}

#[test]
fn revoked_after_free() {
    let sma = sma_with_budget(4);
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, 5u32).unwrap();
    let view = slot.shared_view();
    sma.free_value(slot).unwrap();
    assert_eq!(
        sma.with_view(&view, |v| *v).unwrap_err(),
        SoftError::Revoked
    );
    assert!(!sma.is_live(view.raw()));
}

#[test]
fn destroy_sds_releases_everything() {
    let sma = sma_with_budget(64);
    let sds = sma.register_sds("t", Priority::default());
    for i in 0..20 {
        sma.alloc_value(sds, [i as u8; 1000]).unwrap();
    }
    let held = sma.held_pages();
    assert!(held >= 5);
    sma.destroy_sds(sds).unwrap();
    let stats = sma.stats();
    assert_eq!(stats.live_allocs, 0);
    assert_eq!(stats.sds_count, 0);
    // Pages went to the free pool (retained) or back to the OS.
    assert_eq!(stats.held_pages, stats.free_pool_pages);
    // The id is dead now.
    assert_eq!(
        sma.alloc_bytes(sds, 8).unwrap_err(),
        SoftError::UnknownSds(sds)
    );
}

#[test]
fn sds_ids_are_recycled() {
    let sma = sma_with_budget(4);
    let a = sma.register_sds("a", Priority::default());
    sma.destroy_sds(a).unwrap();
    let b = sma.register_sds("b", Priority::default());
    assert_eq!(a, b, "vacant registry slots are reused");
    assert_eq!(sma.sds_stats(b).unwrap().name, "b");
}

// ---------------------------------------------------------------------
// Reclamation tiers
// ---------------------------------------------------------------------

#[test]
fn reclaim_prefers_budget_slack() {
    let sma = sma_with_budget(100);
    let sds = sma.register_sds("t", Priority::default());
    let _x = sma.alloc_value(sds, [0u8; 4096]).unwrap(); // 1 held page
    let report = sma.reclaim(50);
    assert_eq!(report.from_slack, 50);
    assert_eq!(report.pages_released(), 0);
    assert!(report.satisfied());
    assert_eq!(sma.budget_pages(), 50);
    // The live allocation is untouched.
    assert_eq!(sma.stats().live_allocs, 1);
}

#[test]
fn reclaim_releases_idle_pages_before_live_data() {
    let sma = Sma::with_config(crate::SmaConfig::for_testing(10).free_pool_retain(10));
    let sds = sma.register_sds("t", Priority::default());
    // Allocate 4 full pages then free 3: three idle pages remain held
    // (free pool / SDS free list), one page is live.
    let slots: Vec<_> = (0..4)
        .map(|_| sma.alloc_value(sds, [1u8; 4096]).unwrap())
        .collect();
    let mut slots = slots;
    let keep = slots.pop().unwrap();
    for s in slots {
        sma.free_value(s).unwrap();
    }
    assert_eq!(sma.held_pages(), 4);
    // Budget is 10: 6 slack + 3 idle = 9 yieldable without touching data.
    let report = sma.reclaim(9);
    assert_eq!(report.from_slack, 6);
    assert_eq!(report.from_idle, 3);
    assert!(report.from_sds.is_empty());
    assert!(report.satisfied());
    assert_eq!(sma.held_pages(), 1);
    assert_eq!(sma.budget_pages(), 1);
    assert!(sma.with_value(&keep, |v| v[0]).is_ok());
}

/// A reclaimable stack of page-sized allocations, used to exercise tier 3.
struct PageStack {
    sma: Arc<Sma>,
    sds: SdsId,
    slots: Mutex<Vec<SoftSlot<[u8; 4096]>>>,
    freed: AtomicUsize,
}

impl PageStack {
    fn install(sma: &Arc<Sma>, name: &str, priority: Priority, pages: usize) -> Arc<Self> {
        let sds = sma.register_sds(name, priority);
        let stack = Arc::new(PageStack {
            sma: Arc::clone(sma),
            sds,
            slots: Mutex::new(Vec::new()),
            freed: AtomicUsize::new(0),
        });
        for _ in 0..pages {
            let slot = sma.alloc_value(sds, [0u8; 4096]).unwrap();
            stack.slots.lock().push(slot);
        }
        let weak = Arc::downgrade(&stack);
        sma.set_reclaimer(
            sds,
            Arc::new(move |bytes: usize| {
                let Some(stack) = weak.upgrade() else {
                    return 0;
                };
                let mut freed = 0;
                while freed < bytes {
                    let Some(slot) = stack.slots.lock().pop() else {
                        break;
                    };
                    stack.sma.free_value(slot).unwrap();
                    stack.freed.fetch_add(1, Ordering::SeqCst);
                    freed += 4096;
                }
                freed
            }),
        )
        .unwrap();
        stack
    }
}

#[test]
fn reclaim_frees_live_allocations_lowest_priority_first() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(20)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let low = PageStack::install(&sma, "low", Priority::new(1), 8);
    let high = PageStack::install(&sma, "high", Priority::new(9), 8);
    assert_eq!(sma.held_pages(), 16);
    // Demand 10: 4 slack, then live data. Low priority must bleed first.
    let report = sma.reclaim(10);
    assert!(report.satisfied(), "{report:?}");
    assert_eq!(report.from_slack, 4);
    assert_eq!(low.freed.load(Ordering::SeqCst), 6);
    assert_eq!(high.freed.load(Ordering::SeqCst), 0);
    assert_eq!(sma.held_pages(), 10);
    assert_eq!(sma.budget_pages(), 10);
    let names: Vec<_> = report.from_sds.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["low"]);
}

#[test]
fn reclaim_cascades_to_higher_priority_when_needed() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(12)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let low = PageStack::install(&sma, "low", Priority::new(1), 4);
    let high = PageStack::install(&sma, "high", Priority::new(9), 8);
    let report = sma.reclaim(8);
    assert!(report.satisfied(), "{report:?}");
    assert_eq!(low.freed.load(Ordering::SeqCst), 4, "low exhausted");
    assert_eq!(high.freed.load(Ordering::SeqCst), 4, "high covers the rest");
}

#[test]
fn reclaim_reports_shortfall_when_everything_runs_dry() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(4)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let _stack = PageStack::install(&sma, "only", Priority::new(1), 4);
    let report = sma.reclaim(10);
    assert_eq!(report.total_yielded(), 4);
    assert_eq!(report.shortfall(), 6);
    assert!(!report.satisfied());
    assert_eq!(sma.held_pages(), 0);
}

#[test]
fn reclaim_invalidates_handles_safely() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(4)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let stack = PageStack::install(&sma, "s", Priority::new(1), 4);
    let view = stack.slots.lock()[3].shared_view();
    let report = sma.reclaim(2);
    assert!(report.satisfied());
    // The newest slot was popped first by this reclaimer; its view is
    // now revoked, not dangling.
    assert_eq!(
        sma.with_view(&view, |v| v[0]).unwrap_err(),
        SoftError::Revoked
    );
}

#[test]
fn reclaim_updates_counters() {
    let sma = sma_with_budget(10);
    let _sds = sma.register_sds("t", Priority::default());
    sma.reclaim(3);
    sma.reclaim(2);
    let s = sma.stats();
    assert_eq!(s.reclaims_total, 2);
    assert_eq!(s.pages_reclaimed_total, 5);
    assert_eq!(s.budget_pages, 5);
}

#[test]
fn stats_track_pool_interactions() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(8)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    sma.free_value(slot).unwrap();
    let s = sma.stats();
    // With zero retention the page went straight back to the OS.
    assert_eq!(s.held_pages, 0);
    assert_eq!(s.pool.released_total, 1);
    assert_eq!(s.pool.unbacked_virtual_pages, 1);
    // Allocating again re-backs the virtual page (§4).
    let _slot = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    assert_eq!(sma.stats().pool.rebacked_total, 1);
}

#[test]
fn free_pool_reuse_avoids_machine_traffic() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(8)
            .free_pool_retain(8)
            .sds_retain(0),
    );
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    sma.free_value(slot).unwrap();
    assert_eq!(sma.stats().free_pool_pages, 1);
    let _slot = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    let s = sma.stats();
    assert_eq!(s.free_pool_pages, 0);
    assert_eq!(s.pool.acquired_total, 1, "second alloc reused the frame");
}

#[test]
fn concurrent_alloc_free_smoke() {
    let sma = sma_with_budget(4096);
    let mut handles = Vec::new();
    for t in 0..4 {
        let sma = Arc::clone(&sma);
        handles.push(std::thread::spawn(move || {
            let sds = sma.register_sds(format!("t{t}"), Priority::default());
            for i in 0..2000u64 {
                let slot = sma.alloc_value(sds, i).unwrap();
                assert_eq!(sma.with_value(&slot, |v| *v).unwrap(), i);
                if i % 2 == 0 {
                    sma.free_value(slot).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(sma.stats().live_allocs, 4000);
}

#[test]
fn concurrent_reclaim_and_alloc() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(512)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let stack = PageStack::install(&sma, "s", Priority::new(1), 64);
    let reclaimer = {
        let sma = Arc::clone(&sma);
        std::thread::spawn(move || {
            for _ in 0..16 {
                sma.reclaim(2);
            }
        })
    };
    let allocator = {
        let sma = Arc::clone(&sma);
        let stack = Arc::clone(&stack);
        std::thread::spawn(move || {
            for _ in 0..64 {
                if let Ok(slot) = sma.alloc_value(stack.sds, [1u8; 4096]) {
                    stack.slots.lock().push(slot);
                }
            }
        })
    };
    reclaimer.join().unwrap();
    allocator.join().unwrap();
    // No deadlock, no panic; every remaining handle is consistent.
    let slots = stack.slots.lock();
    for slot in slots.iter() {
        match sma.with_value(slot, |v| v[0]) {
            Ok(_) | Err(SoftError::Revoked) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

/// Swaps an SDS's reclaimer for one that announces entry and then
/// parks until released — a deterministic stand-in for an expensive
/// callback (unmap storms, destructor I/O), letting tests overlap work
/// with a reclamation provably stuck mid-callback.
fn gate_reclaimer(
    stack: &Arc<PageStack>,
) -> (
    Arc<std::sync::atomic::AtomicBool>,
    Arc<std::sync::atomic::AtomicBool>,
) {
    use std::sync::atomic::AtomicBool;
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let cb_stack = Arc::clone(stack);
    let cb_entered = Arc::clone(&entered);
    let cb_release = Arc::clone(&release);
    stack
        .sma
        .set_reclaimer(
            stack.sds,
            Arc::new(move |bytes: usize| {
                cb_entered.store(true, Ordering::SeqCst);
                while !cb_release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let mut freed = 0;
                while freed < bytes {
                    let Some(slot) = cb_stack.slots.lock().pop() else {
                        break;
                    };
                    cb_stack.sma.free_value(slot).unwrap();
                    cb_stack.freed.fetch_add(1, Ordering::SeqCst);
                    freed += 4096;
                }
                freed
            }),
        )
        .unwrap();
    (entered, release)
}

#[test]
fn concurrent_reclaim_skips_guarded_sds() {
    // Shard A's callback is stuck; a second reclamation pass must not
    // queue behind it — it skips to the next SDS and satisfies its
    // demand from there.
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(16)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let a = PageStack::install(&sma, "a", Priority::new(1), 8);
    let b = PageStack::install(&sma, "b", Priority::new(2), 8);
    let (entered, release) = gate_reclaimer(&a);

    let first = {
        let sma = Arc::clone(&sma);
        std::thread::spawn(move || sma.reclaim(4))
    };
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // "a" (lowest priority) is guarded by the stuck pass, so this pass
    // must take everything from "b" — and must return promptly rather
    // than waiting for "a"'s callback.
    let second = sma.reclaim(4);
    assert!(second.satisfied(), "{second:?}");
    let names: Vec<_> = second.from_sds.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["b"]);
    assert_eq!(a.freed.load(Ordering::SeqCst), 0, "a untouched so far");
    assert_eq!(b.freed.load(Ordering::SeqCst), 4);

    release.store(true, Ordering::SeqCst);
    let first = first.join().unwrap();
    assert!(first.satisfied(), "{first:?}");
    let names: Vec<_> = first.from_sds.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["a"]);
    assert_eq!(a.freed.load(Ordering::SeqCst), 4);

    // Per-pass accounting stayed exact under concurrency: 8 pages
    // demanded and released in total, none double-counted.
    assert_eq!(sma.held_pages(), 8);
    assert_eq!(sma.budget_pages(), 8);
    assert_eq!(
        first.pages_released() + second.pages_released(),
        8,
        "first: {first:?}, second: {second:?}"
    );
}

#[test]
fn allocation_proceeds_during_slow_reclaim_callback() {
    // The whole point of the two-phase harvest: while one SDS's
    // callback grinds away (unlocked), other SDSs keep allocating and
    // freeing — they only ever wait on page-return-sized critical
    // sections.
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(16)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let slow = PageStack::install(&sma, "slow", Priority::new(1), 8);
    let app = PageStack::install(&sma, "app", Priority::new(9), 8);
    let (entered, release) = gate_reclaimer(&slow);

    let reclaim = {
        let sma = Arc::clone(&sma);
        std::thread::spawn(move || sma.reclaim(4))
    };
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // With the reclamation provably mid-callback, churn the other SDS:
    // every free and every allocation must go through.
    for i in 0..16u8 {
        let slot = app.slots.lock().pop().expect("app slot");
        sma.free_value(slot).unwrap();
        let slot = sma
            .alloc_value(app.sds, [i; 4096])
            .expect("allocation must not be blocked by the in-flight reclaim");
        app.slots.lock().push(slot);
    }
    release.store(true, Ordering::SeqCst);
    let report = reclaim.join().unwrap();
    assert!(report.satisfied(), "{report:?}");
    assert_eq!(slow.freed.load(Ordering::SeqCst), 4);
    assert_eq!(app.freed.load(Ordering::SeqCst), 0, "app kept its data");
    // The churn's own page traffic was not charged to the reclaim.
    assert_eq!(report.pages_released(), 4);
    assert_eq!(sma.held_pages(), 12);
    assert_eq!(sma.budget_pages(), 12);
    for slot in app.slots.lock().iter() {
        assert!(sma.with_value(slot, |v| v[0]).is_ok());
    }
}

// ---------------------------------------------------------------------
// Magazines, depot, and epoch-validated access
// ---------------------------------------------------------------------

#[test]
fn magazine_parks_freed_pages_for_lock_free_reuse() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(8)
            .free_pool_retain(0)
            .sds_retain(2),
    );
    let sds = sma.register_sds("t", Priority::default());
    let slots: Vec<_> = (0..3)
        .map(|_| sma.alloc_value(sds, [0u8; 4096]).unwrap())
        .collect();
    for slot in slots {
        sma.free_value(slot).unwrap();
    }
    let s = sma.stats();
    // Two pages park in the magazine (its capacity); the depot holds
    // nothing (capacity 0), so the third went back to the OS.
    assert_eq!(s.magazine_pages, 2);
    assert_eq!(s.free_pool_pages, 0);
    assert_eq!(s.held_pages, 2);
    assert_eq!(sma.sds_stats(sds).unwrap().magazine_pages, 2);
    let acquired_before = s.pool.acquired_total;
    // Re-allocation is served from the magazine: no OS traffic.
    let _slot = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    let s = sma.stats();
    assert_eq!(s.magazine_pages, 1);
    assert_eq!(s.pool.acquired_total, acquired_before);
}

#[test]
fn magazine_refills_from_depot_in_batches() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(16)
            .free_pool_retain(8)
            .sds_retain(4),
    );
    // Seed the depot: a scratch SDS's pages are recycled on destroy.
    let scratch = sma.register_sds("scratch", Priority::default());
    let slots: Vec<_> = (0..4)
        .map(|_| sma.alloc_value(scratch, [0u8; 4096]).unwrap())
        .collect();
    drop(slots);
    sma.destroy_sds(scratch).unwrap();
    assert_eq!(sma.stats().free_pool_pages, 4);

    let sds = sma.register_sds("t", Priority::default());
    let _slot = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    let s = sma.stats();
    // One refill event: one frame used by the allocation plus a batch
    // of sds_retain/2 = 2 pulled into the magazine.
    assert_eq!(s.magazine_refills_total, 1);
    assert_eq!(s.magazine_pages, 2);
    assert_eq!(s.free_pool_pages, 1);
    let per_sds = sma.sds_stats(sds).unwrap();
    assert_eq!(per_sds.magazine_refills, 1);
    assert_eq!(per_sds.magazine_pages, 2);
    // The next two allocations hit the magazine: no further refills.
    let _a = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    let _b = sma.alloc_value(sds, [0u8; 4096]).unwrap();
    assert_eq!(sma.stats().magazine_refills_total, 1);
    assert_eq!(sma.stats().magazine_pages, 0);
}

#[test]
fn reclaim_steals_magazine_pages_back() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(4)
            .free_pool_retain(0)
            .sds_retain(4),
    );
    let sds = sma.register_sds("t", Priority::default());
    let slots: Vec<_> = (0..3)
        .map(|_| sma.alloc_value(sds, [0u8; 4096]).unwrap())
        .collect();
    for slot in slots {
        sma.free_value(slot).unwrap();
    }
    assert_eq!(sma.stats().magazine_pages, 3);
    assert_eq!(sma.held_pages(), 3);
    // Demand everything: 1 page of slack, then the magazine must be
    // quiesced (steal-back) — parked pages are not allowed to hide
    // from reclamation.
    let report = sma.reclaim(4);
    assert!(report.satisfied(), "{report:?}");
    assert_eq!(report.from_slack, 1);
    assert_eq!(report.from_idle, 3);
    let s = sma.stats();
    assert_eq!(s.magazine_pages, 0);
    assert_eq!(s.magazine_steal_backs_total, 3);
    assert_eq!(s.held_pages, 0);
    assert_eq!(sma.sds_stats(sds).unwrap().magazine_steal_backs, 3);
}

#[test]
fn destroy_sds_recycles_magazine_into_depot() {
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(8)
            .free_pool_retain(8)
            .sds_retain(4),
    );
    let sds = sma.register_sds("t", Priority::default());
    let slots: Vec<_> = (0..3)
        .map(|_| sma.alloc_value(sds, [0u8; 4096]).unwrap())
        .collect();
    for slot in slots {
        sma.free_value(slot).unwrap();
    }
    assert_eq!(sma.stats().magazine_pages, 3);
    sma.destroy_sds(sds).unwrap();
    let s = sma.stats();
    assert_eq!(s.magazine_pages, 0);
    assert_eq!(s.free_pool_pages, 3, "magazine recycled into the depot");
    assert_eq!(s.held_pages, 3);
}

#[test]
fn concurrent_readers_never_observe_torn_writes() {
    // The writer-grace guarantee: a zero-copy guarded read that races
    // an in-place writer always observes a fully-written buffer — the
    // writer waits out every guard pinned before its epoch bump, so a
    // torn mix of old and new bytes is impossible.
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    let handle = sma.alloc_bytes(sds, 256).unwrap();
    sma.with_bytes_mut(&handle, |b| b.fill(0)).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let writer = {
        let sma = Arc::clone(&sma);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = 0u8;
            while !stop.load(Ordering::SeqCst) {
                i = i.wrapping_add(1);
                sma.with_bytes_mut(&handle, |b| b.fill(i)).unwrap();
            }
        })
    };
    let reader = {
        let sma = Arc::clone(&sma);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::SeqCst) {
                sma.with_bytes(&handle, |b| {
                    let first = b[0];
                    assert!(
                        b.iter().all(|&x| x == first),
                        "torn read: starts with {first}, bytes {b:?}"
                    );
                })
                .unwrap();
                reads += 1;
            }
            reads
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    writer.join().unwrap();
    let reads = reader.join().unwrap();
    assert!(reads > 0);
    sma.free_bytes(handle).unwrap();
}

#[test]
fn exclusive_read_racing_free_reports_reclaimed_exactly_once() {
    // The generation check behind `with_value_exclusive`: a slot freed
    // *while* the unlocked closure runs is reported as `Reclaimed`
    // (exactly once — the free itself succeeds normally), and the
    // closure never faults or observes a destructed value: the read
    // guard pinned before the lock was released parks the racing free
    // (or the whole destroyed heap) in limbo until the closure is
    // done.
    use std::sync::atomic::AtomicBool;
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Probe(u64);
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    for destroy_instead_of_free in [false, true] {
        DROPS.store(0, Ordering::SeqCst);
        let sma = sma_with_budget(16);
        let sds = sma.register_sds("t", Priority::default());
        let slot = sma.alloc_value(sds, Probe(0xDEAD_BEEF)).unwrap();
        let raw = slot.raw();
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));

        let reader = {
            let sma = Arc::clone(&sma);
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                // SAFETY: the racing operation is a *free*, not a
                // write — exactly the "frees are tolerated" case of
                // the contract.
                unsafe {
                    sma.with_value_exclusive(&slot, |v| {
                        entered.store(true, Ordering::SeqCst);
                        while !release.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        v.0
                    })
                }
            })
        };
        while !entered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The closure is provably in flight; revoke the slot under it.
        if destroy_instead_of_free {
            sma.destroy_sds(sds).unwrap();
        } else {
            let doomed = unsafe { SoftSlot::<Probe>::from_raw(raw) };
            sma.free_value(doomed).unwrap();
        }
        // The guard defers the destructor: the revoking call returned,
        // but the value the closure is reading must still be intact.
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            0,
            "destructor ran under an in-flight reader (destroy={destroy_instead_of_free})"
        );
        release.store(true, Ordering::SeqCst);
        let result = reader.join().unwrap();
        assert_eq!(
            result.unwrap_err(),
            SoftError::Reclaimed,
            "destroy={destroy_instead_of_free}"
        );
        // Exactly once: a fresh access through the same coordinates is
        // the ordinary stale-handle error, not `Reclaimed` again.
        if !destroy_instead_of_free {
            let stale = unsafe { SoftSlot::<Probe>::from_raw(raw) };
            assert_eq!(
                sma.with_value(&stale, |v| v.0).unwrap_err(),
                SoftError::Revoked
            );
        }
        // Guard dropped; the next flush runs the deferred destructor
        // exactly once. `reclaim(0)` flushes the parked heap of the
        // destroy arm; an alloc+free cycle on the same SDS flushes the
        // free arm's slot limbo.
        let _ = sma.reclaim(0);
        if !destroy_instead_of_free {
            let dummy = sma.alloc_value(sds, 0u8).unwrap();
            sma.free_value(dummy).unwrap();
        }
        assert_eq!(
            DROPS.load(Ordering::SeqCst),
            1,
            "deferred destructor must run exactly once (destroy={destroy_instead_of_free})"
        );
    }
}

#[test]
fn exclusive_read_without_race_revalidates_clean() {
    let sma = sma_with_budget(4);
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, 7u64).unwrap();
    // SAFETY: single-threaded; nothing races the read.
    let v = unsafe { sma.with_value_exclusive(&slot, |v| *v) }.unwrap();
    assert_eq!(v, 7);
}

// ---------------------------------------------------------------------
// Budget-source re-entrancy (single-critical-section budget ops)
// ---------------------------------------------------------------------

#[test]
fn budget_source_callback_may_reenter_the_sma() {
    // Regression test: `grant_more` runs with no SMA locks held, so a
    // budget source that re-enters the allocator — reclaiming, shrinking,
    // reading stats, growing the budget itself — must not deadlock.
    struct ReentrantSource {
        sma: std::sync::Weak<Sma>,
    }
    impl crate::budget::BudgetSource for ReentrantSource {
        fn grant_more(&self, need: usize, want: usize) -> crate::SoftResult<crate::budget::Grant> {
            let sma = self.sma.upgrade().expect("sma alive");
            // Exercise every budget-adjacent entry point from inside
            // the callback.
            let _ = sma.reclaim(1);
            let _ = sma.shrink_budget(0);
            let _ = sma.stats();
            let _ = sma.all_sds_stats();
            sma.grow_budget(need.max(want));
            Ok(crate::budget::Grant {
                pages: need.max(want),
                already_applied: true,
            })
        }
    }
    let sma = sma_with_budget(0);
    sma.set_budget_source(Arc::new(ReentrantSource {
        sma: Arc::downgrade(&sma),
    }));
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, [3u8; 4096]).expect("no deadlock");
    assert_eq!(sma.with_value(&slot, |v| v[0]).unwrap(), 3);
    assert!(sma.stats().budget_granted_total > 0);
}

#[test]
fn paper_workload_shape_977k_allocs() {
    // A miniature of §5 case (1): many 1 KiB allocations under ample
    // budget. Scaled down 100× for test speed; the bench harness runs
    // the full size.
    let n = 9_770;
    let sma = sma_with_budget(n / 4 + 64);
    let sds = sma.register_sds("stress", Priority::default());
    let mut slots = Vec::with_capacity(n);
    for i in 0..n {
        slots.push(sma.alloc_value(sds, [i as u8; 1024]).unwrap());
    }
    let s = sma.stats();
    assert_eq!(s.live_allocs, n);
    // 4 slots per page: tight packing.
    assert!(s.held_pages <= n / 4 + 1, "held {} pages", s.held_pages);
    for slot in slots {
        sma.free_value(slot).unwrap();
    }
    assert_eq!(sma.stats().live_allocs, 0);
}

// ---------------------------------------------------------------------
// SMR generation safety: guarded zero-copy reads vs frees and reclaim
// ---------------------------------------------------------------------

#[test]
fn guarded_read_never_observes_later_generation_bytes() {
    // The core generation-safety property: a reader that resolved a
    // slot keeps seeing *that generation's* bytes even if the slot is
    // freed and new allocations land while the closure runs — the
    // limbo'd slot cannot be recycled under the guard.
    use std::sync::atomic::AtomicBool;
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    let handle = sma.alloc_bytes(sds, 256).unwrap();
    sma.with_bytes_mut(&handle, |b| b.fill(0xAB)).unwrap();
    let other = sma.alloc_bytes(sds, 256).unwrap();
    sma.with_bytes_mut(&other, |b| b.fill(0x5A)).unwrap();
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let reader = {
        let sma = Arc::clone(&sma);
        let entered = Arc::clone(&entered);
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            sma.with_bytes(&handle, |b| {
                entered.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // Read *after* the free and the follow-up writes: the
                // borrow must still show generation-1 bytes.
                b.iter().filter(|&&x| x == 0xAB).count()
            })
        })
    };
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    // Free the handle under the in-flight reader (defers to limbo),
    // then allocate new memory filled with a different pattern. The
    // fills go through `alloc_value` (a fresh slot cannot be guarded,
    // so allocation never grace-waits); an in-place `with_bytes_mut`
    // here would rightly stall behind the parked reader.
    sma.free_bytes(handle).unwrap();
    for _ in 0..8 {
        let _fresh = sma.alloc_value(sds, [0xCDu8; 256]).unwrap();
    }
    // Readers do not serialise: a second guarded read, of another
    // handle, completes while the first is still parked.
    let seen = sma
        .with_bytes(&other, |b| b.iter().filter(|&&x| x == 0x5A).count())
        .unwrap();
    assert_eq!(seen, 256);
    assert!(!reader.is_finished(), "the first reader is still parked");
    release.store(true, Ordering::SeqCst);
    let intact = reader.join().unwrap().unwrap();
    assert_eq!(
        intact, 256,
        "guarded reader saw bytes from a later generation"
    );
}

#[test]
fn stalled_reader_parks_page_in_limbo_until_guard_drop() {
    // Deterministic single-threaded stalled-reader scenario (also the
    // Miri-clean variant of the campaign): a pinned guard forces a
    // full reclamation pass to park the freed page in limbo rather
    // than harvest it, and the page is freed exactly once after the
    // guard drops.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct PageProbe(#[allow(dead_code)] [u8; 4096]);
    impl Drop for PageProbe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    DROPS.store(0, Ordering::SeqCst);
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(16)
            .free_pool_retain(8)
            .sds_retain(0),
    );
    let sds = sma.register_sds("t", Priority::default());
    // A no-op reclaimer so tier 3 (and with it the deferred-harvest
    // stage) runs at all.
    sma.set_reclaimer(sds, Arc::new(|_: usize| 0usize)).unwrap();
    let slot = sma.alloc_value(sds, PageProbe([7u8; 4096])).unwrap();
    assert_eq!(sma.stats().held_pages, 1);

    let guard = sma.pin();
    sma.free_value(slot).unwrap();
    // Deferred: handle revoked, destructor and page intact.
    assert_eq!(DROPS.load(Ordering::SeqCst), 0);
    assert_eq!(sma.stats().live_allocs, 0);
    assert_eq!(sma.stats().held_pages, 1);
    assert_eq!(sma.limbo_pages(), 0, "page-level limbo only after harvest");

    // Demand everything: slack covers 15, the 16th page is the limbo'd
    // one — reclamation must park it, not harvest it.
    let report = sma.reclaim(16);
    assert_eq!(report.from_slack, 15);
    assert!(!report.satisfied());
    assert_eq!(
        report.shortfall(),
        1,
        "limbo page must not count as yielded"
    );
    assert_eq!(sma.limbo_pages(), 1);
    let s = sma.stats();
    assert_eq!(s.smr_limbo_pages, 1);
    assert!(s.smr_guard_stalls_total >= 1, "deferral must be recorded");
    assert_eq!(s.held_pages, 1, "limbo page is still held by the process");
    assert_eq!(DROPS.load(Ordering::SeqCst), 0, "destructor still deferred");

    drop(guard);
    // Nothing is freed eagerly on guard drop; the next pass flushes.
    assert_eq!(DROPS.load(Ordering::SeqCst), 0);
    let report2 = sma.reclaim(1);
    assert_eq!(DROPS.load(Ordering::SeqCst), 1, "freed exactly once");
    assert!(report2.satisfied());
    assert_eq!(sma.limbo_pages(), 0);
    let s = sma.stats();
    assert_eq!(s.smr_limbo_pages, 0);
    assert_eq!(
        s.held_pages, 0,
        "page conservation: limbo drained to the OS"
    );
}

#[test]
fn limbo_pages_are_conserved_across_guarded_reclaim() {
    // Conservation across the whole lifecycle: live + limbo + free
    // pages always sum to what the process holds — parking pages in
    // limbo neither leaks nor double-frees them.
    let sma = Sma::with_config(
        crate::SmaConfig::for_testing(8)
            .free_pool_retain(8)
            .sds_retain(0),
    );
    let sds = sma.register_sds("t", Priority::default());
    sma.set_reclaimer(sds, Arc::new(|_: usize| 0usize)).unwrap();
    let slots: Vec<_> = (0..3)
        .map(|_| sma.alloc_value(sds, [1u8; 4096]).unwrap())
        .collect();
    assert_eq!(sma.stats().held_pages, 3);

    let guard = sma.pin();
    for slot in slots {
        sma.free_value(slot).unwrap();
    }
    // All three pages are slot-limbo inside the heap: still held.
    assert_eq!(sma.stats().held_pages, 3);

    let report = sma.reclaim(8);
    // Slack (8 - 3 = 5) yields; the three limbo pages park instead.
    assert_eq!(report.from_slack, 5);
    assert_eq!(report.shortfall(), 3);
    assert_eq!(sma.limbo_pages(), 3);
    assert_eq!(
        sma.stats().held_pages,
        3,
        "conservation: limbo pages stay in held_pages"
    );

    drop(guard);
    let report2 = sma.reclaim(3);
    assert!(report2.satisfied());
    let s = sma.stats();
    assert_eq!(sma.limbo_pages(), 0);
    assert_eq!(s.held_pages, 0);
    assert_eq!(s.free_pool_pages, 0);
    assert_eq!(
        s.pages_reclaimed_total, 8,
        "every machine page yielded exactly once"
    );
}

#[test]
fn writer_grace_waits_for_cross_thread_guard() {
    // An in-place writer must not mutate bytes while another thread's
    // guard (pinned before the write) can still observe them.
    use std::sync::atomic::AtomicBool;
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    let read_handle = sma.alloc_bytes(sds, 128).unwrap();
    let write_handle = sma.alloc_bytes(sds, 128).unwrap();
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let wrote = Arc::new(AtomicBool::new(false));

    let reader = {
        let sma = Arc::clone(&sma);
        let entered = Arc::clone(&entered);
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            sma.with_bytes(&read_handle, |_| {
                entered.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        })
    };
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    let writer = {
        let sma = Arc::clone(&sma);
        let wrote = Arc::clone(&wrote);
        std::thread::spawn(move || {
            sma.with_bytes_mut(&write_handle, |b| b.fill(9)).unwrap();
            wrote.store(true, Ordering::SeqCst);
        })
    };
    // The writer must be stalled behind the reader's guard. (One-sided
    // check: a scheduling hiccup can only make this pass vacuously,
    // never fail spuriously.)
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        !wrote.load(Ordering::SeqCst),
        "writer mutated bytes while a prior guard was pinned"
    );
    release.store(true, Ordering::SeqCst);
    reader.join().unwrap();
    writer.join().unwrap();
    assert!(wrote.load(Ordering::SeqCst));
    assert!(
        sma.stats().smr_guard_stalls_total >= 1,
        "the grace wait must be recorded as a stall"
    );
}

#[test]
fn destroy_sds_under_guard_defers_heap_teardown() {
    // Non-blocking destroy: with a guard pinned, `destroy_sds` parks
    // the whole heap in limbo (destructors deferred) and returns
    // immediately; the flush after the guard drops tears it down.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Probe(#[allow(dead_code)] u64);
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    DROPS.store(0, Ordering::SeqCst);
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    for i in 0..4 {
        let _ = sma.alloc_value(sds, Probe(i)).unwrap();
    }
    let guard = sma.pin();
    sma.destroy_sds(sds).unwrap();
    assert_eq!(DROPS.load(Ordering::SeqCst), 0, "teardown must defer");
    assert!(sma.limbo_pages() >= 1);
    assert!(sma.stats().smr_guard_stalls_total >= 1);
    drop(guard);
    let _ = sma.reclaim(0); // flush trigger
    assert_eq!(DROPS.load(Ordering::SeqCst), 4, "all destructors ran once");
    assert_eq!(sma.limbo_pages(), 0);
}

#[test]
fn guard_free_fast_path_is_unchanged_without_readers() {
    // With no guard pinned, frees are immediate — byte-for-byte the
    // pre-SMR fast path: no limbo, no stalls, destructor in place.
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    struct Probe(#[allow(dead_code)] u64);
    impl Drop for Probe {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::SeqCst);
        }
    }
    DROPS.store(0, Ordering::SeqCst);
    let sma = sma_with_budget(16);
    let sds = sma.register_sds("t", Priority::default());
    let slot = sma.alloc_value(sds, Probe(1)).unwrap();
    sma.free_value(slot).unwrap();
    assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    let s = sma.stats();
    assert_eq!(s.smr_limbo_pages, 0);
    assert_eq!(s.smr_guard_stalls_total, 0);
    assert_eq!(sma.smr().current_epoch(), 1, "no retirement without guards");
}
