//! Cross-crate integration: processes, daemon, and data structures
//! under machine-wide memory pressure.

use std::sync::Arc;

use softmem::core::{MachineMemory, Priority, SoftError, PAGE_SIZE};
use softmem::daemon::{Smd, SmdConfig, SoftProcess};
use softmem::sds::{SoftHashMap, SoftLinkedList, SoftQueue};

fn setup(capacity_pages: usize) -> (Arc<MachineMemory>, Arc<Smd>) {
    let machine = MachineMemory::new(capacity_pages * 4);
    let smd = Smd::new(SmdConfig::new(&machine, capacity_pages).initial_budget(0));
    (machine, smd)
}

#[test]
fn memory_flows_to_whoever_needs_it() {
    let (_machine, smd) = setup(256);
    let a = SoftProcess::spawn(&smd, "a").unwrap();
    let b = SoftProcess::spawn(&smd, "b").unwrap();
    let qa: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(a.sma(), "qa", Priority::new(1));
    let qb: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(b.sma(), "qb", Priority::new(1));

    // A fills the whole machine, then B takes half of it back, then A
    // re-takes it: pages slosh between processes with zero failures.
    for _ in 0..240 {
        qa.push([1u8; PAGE_SIZE]).unwrap();
    }
    for _ in 0..120 {
        qb.push([2u8; PAGE_SIZE]).unwrap();
    }
    assert!(qa.len() < 240, "A was reclaimed from");
    assert_eq!(qb.len(), 120);
    for _ in 0..100 {
        qa.push([3u8; PAGE_SIZE]).unwrap();
    }
    assert!(qb.len() < 120, "B was reclaimed from in turn");
    let s = smd.stats();
    assert!(s.pages_reclaimed_total >= 200, "{s:?}");
    assert_eq!(s.denials_total, 0, "nothing was denied");
}

#[test]
fn total_machine_usage_never_exceeds_capacity() {
    let (machine, smd) = setup(128);
    let procs: Vec<_> = (0..4)
        .map(|i| SoftProcess::spawn(&smd, &format!("p{i}")).unwrap())
        .collect();
    let queues: Vec<SoftQueue<[u8; PAGE_SIZE]>> = procs
        .iter()
        .map(|p| SoftQueue::new(p.sma(), "q", Priority::new(1)))
        .collect();
    for round in 0..600 {
        let q = &queues[round % queues.len()];
        let _ = q.push([round as u8; PAGE_SIZE]);
        let soft_used: usize = procs.iter().map(|p| p.sma().held_pages()).sum();
        assert!(soft_used <= 128, "soft capacity breached: {soft_used}");
        assert!(machine.stats().used_pages <= machine.stats().capacity_pages);
    }
}

#[test]
fn budgets_mirror_between_daemon_and_processes() {
    let (_machine, smd) = setup(256);
    let procs: Vec<_> = (0..3)
        .map(|i| SoftProcess::spawn(&smd, &format!("p{i}")).unwrap())
        .collect();
    let queues: Vec<SoftQueue<[u8; PAGE_SIZE]>> = procs
        .iter()
        .map(|p| SoftQueue::new(p.sma(), "q", Priority::new(1)))
        .collect();
    for i in 0..500 {
        let _ = queues[i % 3].push([0u8; PAGE_SIZE]);
    }
    // The SMD's ledger and every SMA's own budget agree exactly.
    let stats = smd.stats();
    let mut ledger_total = 0;
    for snap in &stats.procs {
        let proc = procs.iter().find(|p| p.pid() == snap.pid).expect("known");
        assert_eq!(
            proc.sma().budget_pages(),
            snap.usage.budget_pages,
            "mirror drift for {}",
            snap.name
        );
        ledger_total += snap.usage.budget_pages;
    }
    assert_eq!(ledger_total, stats.assigned_pages);
    assert!(stats.assigned_pages <= stats.capacity_pages);
}

#[test]
fn mixed_sds_portfolio_survives_pressure() {
    let (_machine, smd) = setup(192);
    let app = SoftProcess::spawn(&smd, "app").unwrap();
    let list: SoftLinkedList<[u8; 2048]> = SoftLinkedList::new(app.sma(), "list", Priority::new(0));
    let map: SoftHashMap<u32, [u8; 1024]> = SoftHashMap::new(app.sma(), "map", Priority::new(5));
    for i in 0..64 {
        list.push_back([i as u8; 2048]).unwrap();
        map.insert(i, [i as u8; 1024]).unwrap();
    }
    // A rival takes most of the machine.
    let rival = SoftProcess::spawn(&smd, "rival").unwrap();
    let qr: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(rival.sma(), "q", Priority::new(1));
    for _ in 0..150 {
        qr.push([9u8; PAGE_SIZE]).unwrap();
    }
    // The low-priority list bled before the high-priority map.
    assert!(list.len() < 64, "list reclaimed (priority 0)");
    let surviving = (0..64).filter(|i| map.contains_key(i)).count();
    assert!(
        surviving >= map.len().min(40),
        "map largely intact: {surviving}"
    );
    // Whatever survives is fully readable.
    list.for_each(|v| assert!(v.iter().all(|&b| b == v[0])));
    map.for_each(|k, v| assert_eq!(v[0], *k as u8));
}

#[test]
fn denied_processes_fail_gracefully_not_fatally() {
    let (_machine, smd) = setup(32);
    let hog = SoftProcess::spawn(&smd, "hog").unwrap();
    // Raw allocations without a reclaimer: the daemon cannot take them
    // back.
    let sds = hog.sma().register_sds("pinned", Priority::new(1));
    let mut held = Vec::new();
    loop {
        match hog.sma().alloc_bytes(sds, PAGE_SIZE) {
            Ok(h) => held.push(h),
            Err(e) => {
                assert!(matches!(
                    e,
                    SoftError::Denied { .. } | SoftError::BudgetExceeded { .. }
                ));
                break;
            }
        }
    }
    assert_eq!(held.len(), 32, "hog got the whole capacity");
    // A newcomer is denied (nothing reclaimable) but keeps running.
    let late = SoftProcess::spawn(&smd, "late").unwrap();
    let q: SoftQueue<u64> = SoftQueue::new(late.sma(), "q", Priority::new(1));
    assert!(q.push(7).is_err());
    // The hog frees voluntarily; the newcomer recovers immediately.
    for h in held.drain(..16) {
        hog.sma().free_bytes(h).unwrap();
    }
    hog.release_slack(usize::MAX).unwrap();
    assert!(q.push(7).is_ok());
    assert_eq!(q.pop(), Some(7));
}

#[test]
fn self_reclaim_lets_a_lone_process_recycle_its_own_cache() {
    // §7 open question: "whether the SMD should let a process reclaim
    // its own (older) soft memory". With the flag on, a process that
    // fills the whole machine keeps allocating by recycling its own
    // oldest entries — cache semantics at machine scale.
    let machine = MachineMemory::new(256);
    let smd = Smd::new(
        SmdConfig::new(&machine, 64)
            .initial_budget(0)
            .self_reclaim(true),
    );
    let p = SoftProcess::spawn(&smd, "lone").unwrap();
    let q: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(p.sma(), "cache", Priority::new(1));
    for i in 0..200 {
        q.push([i as u8; PAGE_SIZE]).unwrap();
    }
    // Far more pushed than fits: the oldest were recycled.
    assert!(q.len() <= 64);
    assert!(q.reclaim_stats().elements_reclaimed >= 136);
    // FIFO semantics survive: the queue's front is a recent element.
    let front = q.peek_with(|v| v[0]).unwrap();
    assert!(front as usize >= 200 - 64 - 8, "front={front}");

    // Control: with self-reclaim off (the default), the same pattern
    // is denied instead.
    let smd2 = Smd::new(SmdConfig::new(&machine, 64).initial_budget(0));
    let p2 = SoftProcess::spawn(&smd2, "lone2").unwrap();
    let q2: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(p2.sma(), "cache", Priority::new(1));
    let mut denied = false;
    for i in 0..200 {
        if q2.push([i as u8; PAGE_SIZE]).is_err() {
            denied = true;
            break;
        }
    }
    assert!(denied, "no other process to reclaim from ⇒ denial");
    assert_eq!(q2.len(), 64);
}

#[test]
fn deregistration_returns_everything() {
    let (machine, smd) = setup(128);
    {
        let p = SoftProcess::spawn(&smd, "transient").unwrap();
        p.set_traditional_pages(40).unwrap();
        let q: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(p.sma(), "q", Priority::new(1));
        for _ in 0..64 {
            q.push([0u8; PAGE_SIZE]).unwrap();
        }
        assert!(machine.stats().used_pages >= 104);
    }
    // Process, queue and traditional memory all gone.
    assert_eq!(smd.stats().assigned_pages, 0);
    assert_eq!(machine.stats().used_pages, 0);
    assert!(smd.stats().procs.is_empty());
}
