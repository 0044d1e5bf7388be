//! Telemetry baseline — drives the stress workload across every
//! instrumented layer (SMA, SMD, KV) and emits the machine-wide
//! metric snapshot as `BENCH_telemetry.json`.
//!
//! Run: `cargo run --release -p softmem-bench --bin telemetry_baseline`
//! Options: `--quick` (scaled down ~10×, the CI preset), `--n COUNT`,
//! `--out PATH` (default `BENCH_telemetry.json` in the CWD).
//!
//! The binary also times the pure-SMA allocation microbench and
//! reports ns/op, the number the instrumentation's overhead budget
//! (< 2% on the alloc path) is tracked against.

use std::time::Instant;

use softmem_bench::stress::{Block, ALLOC_BYTES};
use softmem_core::{bytes_to_pages, MachineMemory, Priority, Sma, SmaConfig, SoftSlot};
use softmem_daemon::{Smd, SmdConfig, SoftProcess};
use softmem_kv::{CommandRef, Response, Store};
use softmem_sds::SoftQueue;
use softmem_telemetry::combined_json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let n = args
        .iter()
        .position(|a| a == "--n")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if quick { 50_000 } else { 500_000 });
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_telemetry.json".to_string());

    println!("== telemetry baseline ==");
    println!("{n} allocations per phase\n");

    // --- Microbench: pure-SMA alloc cost, for overhead comparison ---
    // Warm up first so page faults and arena growth don't dominate.
    let ns_per_op = {
        let _ = alloc_microbench(n / 4);
        alloc_microbench(n)
    };
    println!("alloc microbench: {ns_per_op:.1} ns/op (budget pre-granted)\n");

    // --- The machine scenario: two processes, one daemon, one store ---
    // Process A allocates through the daemon (budget growth), then
    // process B's allocations force the daemon to reclaim from A, so
    // A's registry records reclaim + SDS-callback latency and the
    // daemon's records grants, rounds and per-target weights.
    let fill_pages = bytes_to_pages(n * ALLOC_BYTES) + 64;
    let machine = MachineMemory::new(fill_pages * 4);
    let smd = Smd::new(SmdConfig::new(&machine, fill_pages * 2).initial_budget(4));
    let proc_a = SoftProcess::spawn(&smd, "victim").expect("spawn a");
    let proc_b = SoftProcess::spawn(&smd, "aggressor").expect("spawn b");

    let qa: SoftQueue<Block> = SoftQueue::new(proc_a.sma(), "qa", Priority::default());
    for i in 0..n {
        qa.push([i as u8; ALLOC_BYTES]).expect("capacity fits");
    }
    let sds_b = proc_b.sma().register_sds("b-data", Priority::default());
    let extra = n / 2;
    let mut kept: Vec<SoftSlot<Block>> = Vec::with_capacity(n + extra);
    for i in 0..n + extra {
        // n allocations fill B's half of capacity; the extra half is
        // satisfied by reclaiming A's queue pages.
        kept.push(
            proc_b
                .sma()
                .alloc_value(sds_b, [i as u8; ALLOC_BYTES])
                .expect("reclamation frees room"),
        );
    }

    // --- KV phase: hits, misses, sets, shed-driven reclamation ---
    // Driven through the protocol layer so op_ns records end-to-end
    // command latency, not just raw store calls.
    let store = Store::new(proc_a.sma(), "kv", Priority::new(4));
    let kv_ops = n / 10;
    for i in 0..kv_ops {
        let key = format!("key-{:06}", i % 1024);
        let set = format!("SET {key} v{i}");
        let set = CommandRef::parse(&set).expect("parse SET");
        assert!(!matches!(set.execute(&store), Response::Error(_)));
        if i % 3 == 0 {
            let hit = format!("GET {key}");
            let _ = CommandRef::parse(&hit).expect("parse GET").execute(&store);
            let miss = CommandRef::parse("GET never-set").expect("parse GET");
            let _ = miss.execute(&store);
        }
    }
    let _ = store.shed(store.soft_bytes() / 2);
    store.refresh_gauges();

    let snapshots = [
        proc_a.sma().metrics().snapshot(),
        smd.metrics().snapshot(),
        store.metrics().snapshot(),
    ];
    for snap in &snapshots {
        println!("{}", snap.render_table());
    }

    let json = format!(
        "{{\"quick\":{quick},\"n\":{n},\
         \"alloc_ns_per_op\":{ns_per_op:.1},\"registries\":{}}}",
        combined_json(&snapshots),
    );
    std::fs::write(&out, format!("{json}\n")).expect("write report");
    println!("wrote {out}");

    drop(kept);
    drop(qa);
}

/// Times `count` written 1 KiB soft allocations (sufficient budget,
/// no daemon round-trips) and returns ns per allocation.
fn alloc_microbench(count: usize) -> f64 {
    let pages = bytes_to_pages(count * ALLOC_BYTES) + 64;
    let sma = Sma::with_config(SmaConfig::for_testing(pages));
    let sds = sma.register_sds("micro", Priority::default());
    let start = Instant::now();
    let mut kept: Vec<SoftSlot<Block>> = Vec::with_capacity(count);
    for i in 0..count {
        kept.push(
            sma.alloc_value(sds, [i as u8; ALLOC_BYTES])
                .expect("budget suffices"),
        );
    }
    let elapsed = start.elapsed();
    drop(kept);
    elapsed.as_nanos() as f64 / count.max(1) as f64
}
