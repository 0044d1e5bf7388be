//! Cross-crate integration: the KV store on a daemon-managed machine —
//! the paper's Redis experiment end to end, plus the crash baseline.

use softmem::core::{MachineMemory, Priority, Sma, SmaConfig, PAGE_SIZE};
use softmem::daemon::{Smd, SmdConfig, SoftProcess};
use softmem::kv::crash::CrashModel;
use softmem::kv::{Response, ShardedStore, Store};
use softmem::sds::SoftQueue;
use softmem::sim::pressure::{run_pressure, PressureConfig};

#[test]
fn figure2_scenario_shape_holds() {
    let cfg = PressureConfig::small();
    let out = run_pressure(&cfg);
    // The invariant triangle of Figure 2: kv + other = capacity after
    // the move, with the move equal to the shortfall.
    let shortfall =
        (out.kv_soft_before + cfg.other_request_bytes).saturating_sub(cfg.soft_capacity_bytes);
    assert!(out.bytes_moved() >= shortfall);
    assert!(out.other_soft_after >= cfg.other_request_bytes);
    assert_eq!(out.other_failed_allocs, 0);
    assert!(out.entries_reclaimed > 0);
    // Deterministic: a second run reproduces the same pair count and
    // byte movement.
    let out2 = run_pressure(&cfg);
    assert_eq!(out.kv_pairs, out2.kv_pairs);
    assert_eq!(out.kv_soft_before, out2.kv_soft_before);
    assert_eq!(out.bytes_moved(), out2.bytes_moved());
}

#[test]
fn store_under_daemon_pressure_serves_misses_not_errors() {
    let machine = MachineMemory::new(1024);
    let smd = Smd::new(SmdConfig::new(&machine, 128).initial_budget(0));
    let kv_proc = SoftProcess::spawn(&smd, "kv").unwrap();
    let store = Store::new(kv_proc.sma(), "table", Priority::new(4));
    for i in 0..4000u32 {
        store.set(format!("k{i}").as_bytes(), &[1u8; 32]).unwrap();
    }
    let keys_before = store.dbsize();

    let rival = SoftProcess::spawn(&smd, "rival").unwrap();
    let q: SoftQueue<[u8; PAGE_SIZE]> = SoftQueue::new(rival.sma(), "q", Priority::new(1));
    for _ in 0..96 {
        q.push([0u8; PAGE_SIZE]).unwrap();
    }
    let keys_after = store.dbsize();
    assert!(keys_after < keys_before, "entries were reclaimed");
    // Every key either hits or misses; nothing errors or crashes.
    let mut hits = 0;
    for i in 0..4000u32 {
        if store.get(format!("k{i}").as_bytes()).is_some() {
            hits += 1;
        }
    }
    assert_eq!(hits, keys_after);
    // Oldest-first eviction: the surviving keys are the newest ones.
    assert!(store.get(b"k0").is_none());
    assert!(store.get(b"k3999").is_some());
}

#[test]
fn crash_baseline_is_strictly_worse_than_reclaim() {
    let model = CrashModel::default();
    let keys: Vec<Vec<u8>> = (0..2000).map(|i| format!("k{i}").into_bytes()).collect();

    // Crash path: everything is lost.
    let sma = Sma::standalone(1 << 14);
    let store = Store::new(&sma, "kv", Priority::default());
    for k in &keys {
        store.set(k, b"v").unwrap();
    }
    let (cold, downtime) = model.crash_and_restart(store, &sma, "kv", Priority::default());
    // Read-only sweep right after each event (a refilling workload is
    // measured with a realistic Zipf stream in the
    // `table2_crash_vs_reclaim` harness; a sequential scan would
    // thrash any FIFO cache).
    let crash_misses = keys.iter().filter(|k| cold.get(k).is_none()).count();

    // Reclaim path: a quarter of the pages.
    let sma2 = Sma::with_config(
        SmaConfig::for_testing(1 << 14)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let store2 = Store::new(&sma2, "kv", Priority::default());
    for k in &keys {
        store2.set(k, b"v").unwrap();
    }
    sma2.reclaim(sma2.stats().slack_pages() + sma2.held_pages() / 4);
    let soft_misses = keys.iter().filter(|k| store2.get(k).is_none()).count();

    assert_eq!(crash_misses, 2000, "crash loses everything");
    assert!(soft_misses > 0, "reclaim loses something");
    assert!(
        soft_misses < crash_misses / 2,
        "…but far less: {soft_misses}"
    );
    assert!(downtime >= model.restart);
}

#[test]
fn engine_keeps_serving_through_reclamation() {
    let sma = Sma::with_config(
        SmaConfig::for_testing(1 << 14)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let engine = ShardedStore::new(&sma, "kv", Priority::default(), 1);
    for i in 0..3000 {
        assert_eq!(
            engine.execute(&format!("SET k{i} value")),
            Response::Ok("OK".into())
        );
    }
    // Reclaim from outside while the engine is live (the daemon
    // thread's perspective).
    let demand = sma.stats().slack_pages() + sma.held_pages() / 2;
    sma.reclaim(demand);
    // The engine still answers; some keys are gone, others live.
    let mut hits = 0;
    for i in 0..3000 {
        match engine.execute(&format!("GET k{i}")) {
            Response::Bulk(Some(_)) => hits += 1,
            Response::Bulk(None) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(hits > 0 && hits < 3000, "partial survival: {hits}");
    assert_eq!(engine.execute("DBSIZE"), Response::Int(hits));
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_clients_observe_reclamation_as_misses() {
    use softmem::kv::{ReactorConfig, ReactorFrontend, TcpKvClient};

    let sma = Sma::with_config(
        SmaConfig::for_testing(1 << 14)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let engine = ShardedStore::new(&sma, "kv", Priority::default(), 1);
    let frontend = ReactorFrontend::bind(
        "127.0.0.1:0",
        std::sync::Arc::new(engine),
        ReactorConfig::default(),
    )
    .unwrap();
    let mut client = TcpKvClient::connect(frontend.addr()).unwrap();
    for i in 0..2000 {
        assert_eq!(
            client.request(&format!("SET k{i} v{i}")).unwrap(),
            Response::Ok("OK".into())
        );
    }
    // SHED: the voluntary scale-down command.
    let freed = match client.request("SHED 40000").unwrap() {
        Response::Int(n) => n,
        other => panic!("unexpected: {other:?}"),
    };
    assert!(freed >= 40_000);
    assert_eq!(client.request("GET k0").unwrap(), Response::Bulk(None));
    assert!(matches!(
        client.request("GET k1999").unwrap(),
        Response::Bulk(Some(_))
    ));
    if let Response::Bulk(Some(info)) = client.request("INFO").unwrap() {
        let text = String::from_utf8(info).unwrap();
        assert!(text.contains("reclaimed_entries:"), "{text}");
    } else {
        panic!("INFO must return bulk");
    }
}

#[test]
fn two_stores_one_machine_share_via_daemon() {
    // Two KV-store processes (e.g. two tenants) on one machine: the
    // busy one grows at the idle one's expense.
    let machine = MachineMemory::new(1024);
    let smd = Smd::new(SmdConfig::new(&machine, 128).initial_budget(0));
    let p1 = SoftProcess::spawn(&smd, "tenant-1").unwrap();
    let p2 = SoftProcess::spawn(&smd, "tenant-2").unwrap();
    let s1 = Store::new(p1.sma(), "t1", Priority::new(3));
    let s2 = Store::new(p2.sma(), "t2", Priority::new(3));
    // Each fill is ~3/4 of the 128-page capacity, so the second fill
    // must take *data* pages from tenant-1, not just budget slack.
    for i in 0..6000u32 {
        s1.set(format!("a{i}").as_bytes(), &[0u8; 48]).unwrap();
    }
    let t1_before = p1.sma().held_pages();
    for i in 0..6000u32 {
        s2.set(format!("b{i}").as_bytes(), &[0u8; 48]).unwrap();
    }
    assert!(p1.sma().held_pages() < t1_before, "tenant-1 shrank");
    assert!(s1.stats().reclaimed_entries > 0);
    assert_eq!(s2.dbsize(), 6000, "tenant-2 stored everything");
}
