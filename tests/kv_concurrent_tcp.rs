//! Concurrent TCP clients hammering overlapping keys while machine
//! reclamation runs underneath the server.
//!
//! The properties under test, per the sharded-engine contract:
//!
//! * every reply is well-formed (a known `Response` variant — a torn
//!   frame or crossed wire would surface as an io/parse error);
//! * no lost updates: a surviving owned key holds the value of its
//!   owner's last acknowledged `SET`, never an older version or a
//!   torn mix (reclamation may delete keys, never corrupt them);
//! * shared `INCR` counters stay within the bounds acknowledged over
//!   the wire;
//! * after the run quiesces, `StoreStats` ground truth and the
//!   telemetry mirrors agree shard by shard.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use softmem::core::{Priority, Sma, SmaConfig};
use softmem::kv::{
    ReactorConfig, ReactorFrontend, ReclaimCostModel, Response, ShardedStore, TcpKvClient,
};
use softmem::telemetry::MetricValue;

const CLIENTS: usize = 4;
const OWNED_KEYS: usize = 16;
const VERSIONS: usize = 5;
const COUNTERS: usize = 4;
const INCRS_PER_COUNTER: usize = 25;

/// Runs the full scenario against an `n`-shard server and returns
/// nothing — every property is asserted inside.
fn hammer(shards: usize) {
    let sma = Sma::with_config(
        SmaConfig::for_testing(256)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let engine = ShardedStore::new(&sma, "tcp-conc", Priority::new(4), shards);
    // A small off-CPU per-entry cost widens the race window between
    // reclamation and the serving path.
    engine.set_reclaim_cost(Duration::from_micros(2));
    engine.set_reclaim_cost_model(ReclaimCostModel::Sleep);
    let engine = Arc::new(engine);
    let frontend =
        ReactorFrontend::bind("127.0.0.1:0", Arc::clone(&engine), ReactorConfig::default())
            .expect("bind");
    let addr = frontend.addr();

    // Overlapping read-only keys every client hammers.
    {
        let mut seed = TcpKvClient::connect(addr).expect("connect");
        for i in 0..OWNED_KEYS {
            let reply = seed
                .request(&format!("SET shared:{i:03} warm-{i}"))
                .expect("seed set");
            assert!(matches!(reply, Response::Ok(_)), "seed reply: {reply:?}");
        }
    }

    // Reclamation loop squeezing the keyspace for the whole run.
    let stop = Arc::new(AtomicBool::new(false));
    let reclaimer = {
        let sma = Arc::clone(&sma);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Burn slack first so every round reaches the maps.
            let slack = sma.stats().slack_pages();
            sma.reclaim(slack);
            while !stop.load(Ordering::Acquire) {
                sma.reclaim(1);
                sma.grow_budget(1);
                std::thread::yield_now();
            }
        })
    };

    // Each client interleaves versioned SETs on its own keys, INCRs on
    // shared counters, and GETs on keys everyone touches. It returns
    // the last *acknowledged* value per owned key.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = TcpKvClient::connect(addr).expect("connect");
                let mut acked: Vec<Option<String>> = vec![None; OWNED_KEYS];
                for v in 0..VERSIONS {
                    for (i, slot) in acked.iter_mut().enumerate() {
                        let value = format!("c{c}-k{i}-v{v}");
                        let reply = client
                            .request(&format!("SET own{c}:{i:03} {value}"))
                            .expect("set reply");
                        match reply {
                            Response::Ok(_) => *slot = Some(value),
                            // Budget pressure may refuse a SET; the key
                            // then keeps its previous value (or stays
                            // evicted). Anything else is malformed.
                            Response::Error(_) => {}
                            other => panic!("SET reply: {other:?}"),
                        }
                        let reply = client
                            .request(&format!("INCRBY ctr:{:03} 1", i % COUNTERS))
                            .expect("incr reply");
                        assert!(
                            matches!(reply, Response::Int(_) | Response::Error(_)),
                            "INCR reply: {reply:?}"
                        );
                        let reply = client
                            .request(&format!("GET shared:{:03}", (i + c) % OWNED_KEYS))
                            .expect("get reply");
                        match reply {
                            Response::Bulk(Some(bytes)) => {
                                let text = String::from_utf8(bytes).expect("utf8 value");
                                assert!(
                                    text.starts_with("warm-"),
                                    "shared key read a foreign value: {text}"
                                );
                            }
                            Response::Bulk(None) => {} // reclaimed — a miss, not an error
                            other => panic!("GET reply: {other:?}"),
                        }
                    }
                }
                // Drive the counters past the per-version interleave.
                for j in 0..COUNTERS {
                    for _ in 0..INCRS_PER_COUNTER {
                        let reply = client
                            .request(&format!("INCRBY ctr:{j:03} 1"))
                            .expect("incr reply");
                        assert!(
                            matches!(reply, Response::Int(_) | Response::Error(_)),
                            "INCR reply: {reply:?}"
                        );
                    }
                }
                acked
            })
        })
        .collect();
    let acked: Vec<Vec<Option<String>>> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();
    stop.store(true, Ordering::Release);
    reclaimer.join().expect("reclaim thread");

    // No lost updates: a surviving owned key holds exactly the last
    // acknowledged write of its (single) writer.
    let mut check = TcpKvClient::connect(addr).expect("connect");
    for (c, per_key) in acked.iter().enumerate() {
        for (i, last) in per_key.iter().enumerate() {
            let reply = check
                .request(&format!("GET own{c}:{i:03}"))
                .expect("final get");
            match reply {
                Response::Bulk(Some(bytes)) => {
                    let got = String::from_utf8(bytes).expect("utf8 value");
                    assert_eq!(
                        Some(&got),
                        last.as_ref(),
                        "own{c}:{i:03} survived with a value that was never \
                         the last acknowledged write"
                    );
                }
                Response::Bulk(None) => {} // reclaimed under pressure — allowed
                other => panic!("final GET reply: {other:?}"),
            }
        }
    }
    // Counters never exceed the total increments applied to them.
    let total = (CLIENTS * (INCRS_PER_COUNTER + VERSIONS * OWNED_KEYS / COUNTERS)) as i64;
    for j in 0..COUNTERS {
        match check.request(&format!("GET ctr:{j:03}")).expect("ctr get") {
            Response::Bulk(Some(bytes)) => {
                let v: i64 = String::from_utf8(bytes)
                    .expect("utf8 counter")
                    .parse()
                    .expect("integer counter");
                assert!(
                    v > 0 && v <= total,
                    "ctr:{j:03} = {v}, outside (0, {total}]"
                );
            }
            Response::Bulk(None) => {}
            other => panic!("counter GET reply: {other:?}"),
        }
    }

    // The run must actually have raced serving against reclamation —
    // otherwise the properties above were tested in a vacuum.
    assert!(
        engine.stats().reclaimed_entries > 0,
        "reclamation never landed during the run"
    );

    // Quiesced: ground-truth StoreStats and the telemetry mirrors must
    // agree shard by shard (the metrics-consistency family's contract,
    // here exercised through the full TCP stack).
    engine.refresh_gauges();
    let stats = engine.stats();
    let mut sets = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut reclaimed = 0u64;
    let mut keys = 0i64;
    for snap in engine.snapshots() {
        let counter = |name: &str| match snap.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            other => panic!("{}/{name}: {other:?}", snap.name),
        };
        sets += counter("sets");
        hits += counter("hits");
        misses += counter("misses");
        reclaimed += counter("reclaimed_entries");
        match snap.get("keys") {
            Some(MetricValue::Gauge(v)) => keys += *v,
            other => panic!("{}/keys: {other:?}", snap.name),
        }
    }
    assert_eq!(sets, stats.sets, "sets mirror diverged");
    assert_eq!(hits, stats.hits, "hits mirror diverged");
    assert_eq!(misses, stats.misses, "misses mirror diverged");
    assert_eq!(
        reclaimed, stats.reclaimed_entries,
        "reclaimed_entries mirror diverged"
    );
    assert_eq!(keys as usize, engine.dbsize(), "keys gauge diverged");

    drop(frontend);
}

#[test]
fn concurrent_tcp_clients_survive_reclamation_single_shard() {
    hammer(1);
}

#[test]
fn concurrent_tcp_clients_survive_reclamation_four_shards() {
    hammer(4);
}
