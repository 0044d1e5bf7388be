//! `layer_drill`: replays a workload's seeded op stream single-threaded
//! through each layer's public functions, timing every call.
//!
//! This is the only code in the benchmark that links the workspace
//! crates. The functions it calls are the benchmark's ABI (listed in
//! README.md): a later change that renames or reshapes one of them must
//! update this file through a `benchmark` issue, not inside a change
//! that claims a gain.
//!
//! Each request is a `request` span with `frame`, `parse`, `execute`
//! and `encode` children — the four stages a request passes through in
//! the server (reactor framing + routing, then the shard worker's
//! parse / execute / encode), run here without sockets, rings or
//! threads, so what is left of the end-to-end latency after subtracting
//! them is the network plane's.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use softmem_core::{bytes_to_pages, MachineMemory, Priority, Sma};
use softmem_daemon::{Smd, SmdConfig, SoftProcess};
use softmem_e2e::gen::{push_key, push_value, Op, OpGen, OpKind, KEY_LEN};
use softmem_e2e::json::Json;
use softmem_e2e::spans::{self, Span};
use softmem_e2e::workload::{self, Memory, Spec};
use softmem_kv::protocol::{next_frame, routing_key_of};
use softmem_kv::{CommandRef, Response, ShardedStore};
use softmem_sds::{SoftContainer, SoftHashMap};

/// Requests replayed through the protocol + store stages.
const REPLAY_OPS: usize = 200_000;
/// Requests whose spans are written out (all of them are aggregated).
const SPANS_KEPT: usize = 2_000;
/// Frames per simulated socket read (the e2e pipelines up to 32).
const FRAMES_PER_READ: usize = 32;

/// Times closures, subtracting what reading the clock twice costs (the
/// stages here take tens of nanoseconds, the same order as the clock).
struct Stopwatch {
    origin: Instant,
    clock_ns: u64,
}

impl Stopwatch {
    fn calibrated() -> Stopwatch {
        let origin = Instant::now();
        let mut gaps: Vec<u64> = (0..10_001)
            .map(|_| {
                let a = Instant::now();
                (Instant::now() - a).as_nanos() as u64
            })
            .collect();
        gaps.sort_unstable();
        Stopwatch {
            origin,
            clock_ns: gaps[gaps.len() / 2],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`; returns its result and its cost net of the clock.
    fn time<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let a = Instant::now();
        let r = black_box(f());
        let ns = a.elapsed().as_nanos() as u64;
        (r, ns.saturating_sub(self.clock_ns))
    }
}

#[derive(Default, Clone, Copy)]
struct Mean {
    sum_ns: u64,
    n: u64,
}

impl Mean {
    fn add(&mut self, ns: u64) {
        self.sum_ns += ns;
        self.n += 1;
    }

    fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.n as f64
        }
    }
}

fn budget_pages(spec: &Spec) -> usize {
    let mib = match spec.memory {
        Memory::Budget { mib } => mib,
        Memory::Daemon { capacity_mib } => capacity_mib,
    };
    bytes_to_pages(mib * 1024 * 1024)
}

fn key_bytes(id: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(KEY_LEN);
    push_key(&mut k, id);
    k
}

fn value_bytes(id: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    push_value(&mut v, id, len);
    v
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// protocol + sharded store: the request path of a shard worker.
fn drill_requests(
    spec: &Spec,
    seed: u64,
    sw: &Stopwatch,
    kept: &mut Vec<Span>,
) -> (Metrics, Arc<Sma>, ShardedStore) {
    let sma = Sma::standalone(budget_pages(spec));
    let engine = ShardedStore::new(&sma, "keyspace", Priority::new(4), spec.shards);
    for id in 0..spec.preload_keys {
        engine
            .set(&key_bytes(id), &value_bytes(id, spec.value_len))
            .expect("preload fits by construction of the workload");
    }

    let mut gen = OpGen::new(seed, 0, spec.keys, spec.get_pct);
    let mut refills: Vec<u64> = Vec::new();
    let (mut frame_m, mut parse_m, mut encode_m) =
        (Mean::default(), Mean::default(), Mean::default());
    let (mut get_m, mut set_m) = (Mean::default(), Mean::default());
    let mut wire_in: Vec<u8> = Vec::new();
    let mut wire_out: Vec<u8> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut request: u64 = 0;

    while (request as usize) < REPLAY_OPS {
        // One simulated socket read: a run of pipelined request lines.
        wire_in.clear();
        ops.clear();
        for _ in 0..FRAMES_PER_READ {
            let op = match refills.pop() {
                Some(key) => Op {
                    kind: OpKind::Set,
                    key,
                },
                None => gen.next_op(),
            };
            op.encode(&mut wire_in, spec.value_len);
            ops.push(op);
        }
        let mut pos = 0;
        for op in &ops {
            // One clock read per stage edge; each stage's cost is the
            // gap between its edges net of that read.
            let t0 = sw.now_ns();
            let (frame, used) = next_frame(&wire_in[pos..]).expect("a full line is buffered");
            let key = routing_key_of(frame).expect("GET and SET carry a key");
            let shard = black_box(engine.shard_of(key));
            let t1 = sw.now_ns();
            let line = std::str::from_utf8(frame).expect("generated requests are ASCII");
            let cmd = black_box(CommandRef::parse(line).expect("generated requests parse"));
            let t2 = sw.now_ns();
            let response = black_box(engine.execute_at(shard, &cmd));
            let t3 = sw.now_ns();
            wire_out.clear();
            response.encode_into(&mut wire_out);
            black_box(&wire_out);
            let t4 = sw.now_ns();
            let net = |a: u64, b: u64| (b - a).saturating_sub(sw.clock_ns);
            let (frame_ns, parse_ns, exec_ns, encode_ns) =
                (net(t0, t1), net(t1, t2), net(t2, t3), net(t3, t4));
            pos += used;

            frame_m.add(frame_ns);
            parse_m.add(parse_ns);
            encode_m.add(encode_ns);
            match op.kind {
                OpKind::Get => get_m.add(exec_ns),
                OpKind::Set => set_m.add(exec_ns),
            }
            if matches!(response, Response::Bulk(None)) {
                refills.push(op.key); // cache-aside, as the e2e client does
            }
            if (request as usize) < SPANS_KEPT {
                let span = |name, parent, start_ns, end_ns| Span {
                    request,
                    name,
                    parent,
                    start_ns,
                    end_ns,
                };
                kept.extend([
                    span("request", None, t0, t4),
                    span("frame", Some("request"), t0, t1),
                    span("parse", Some("request"), t1, t2),
                    span("execute", Some("request"), t2, t3),
                    span("encode", Some("request"), t3, t4),
                ]);
            }
            request += 1;
        }
    }

    let exec_mean = (get_m.sum_ns + set_m.sum_ns) as f64 / (get_m.n + set_m.n) as f64;
    let metrics = vec![
        ("protocol.frame_ns", frame_m.get(), "ns"),
        ("protocol.parse_ns", parse_m.get(), "ns"),
        ("protocol.encode_ns", encode_m.get(), "ns"),
        ("store.exec_get_ns", get_m.get(), "ns"),
        ("store.exec_set_ns", set_m.get(), "ns"),
        (
            "drill.service_ns",
            frame_m.get() + parse_m.get() + exec_mean + encode_m.get(),
            "ns",
        ),
    ];
    (metrics, sma, engine)
}

/// sds: the soft hash map under the store, on the same key stream.
fn drill_sds(spec: &Spec, seed: u64, sw: &Stopwatch) -> Metrics {
    let sma = Sma::standalone(budget_pages(spec));
    let map: SoftHashMap<Vec<u8>, Vec<u8>> = SoftHashMap::new(&sma, "drill", Priority::new(4));
    let mut gen = OpGen::new(seed, 0, spec.keys, spec.get_pct);
    let (mut get_m, mut insert_m) = (Mean::default(), Mean::default());
    for _ in 0..REPLAY_OPS / 2 {
        let op = gen.next_op();
        let key = key_bytes(op.key);
        // A miss is refilled, so the map holds the working set the way
        // the cache does; only the call itself is timed.
        let hit = match op.kind {
            OpKind::Get => {
                let (hit, ns) = sw.time(|| map.get_with(&key, |v| v.len()).is_some());
                get_m.add(ns);
                hit
            }
            OpKind::Set => false,
        };
        if !hit {
            let value = value_bytes(op.key, spec.value_len);
            let (stored, ns) = sw.time(|| map.insert(key, value).is_ok());
            insert_m.add(ns);
            if !stored {
                // Budget exhausted: make room the way the store does.
                map.reclaim_now(4096);
            }
        }
    }
    vec![
        ("sds.get_ns", get_m.get(), "ns"),
        ("sds.insert_ns", insert_m.get(), "ns"),
    ]
}

/// core::sma: allocate / read / free entry-sized blocks, then reclaim
/// from the store the request drill left full.
fn drill_sma(spec: &Spec, sw: &Stopwatch, full: &Sma) -> Metrics {
    const LIVE: usize = 1024;
    const ROUNDS: usize = 100_000;
    let sma = Sma::standalone(budget_pages(spec).max(LIVE));
    let sds = sma.register_sds("drill", Priority::new(4));
    let (mut alloc_m, mut read_m, mut free_m) = (Mean::default(), Mean::default(), Mean::default());
    let mut live = std::collections::VecDeque::with_capacity(LIVE);
    for _ in 0..ROUNDS {
        let (handle, ns) = sw.time(|| {
            sma.alloc_bytes(sds, spec.value_len)
                .expect("LIVE blocks fit")
        });
        alloc_m.add(ns);
        let (_, ns) = sw.time(|| {
            sma.with_bytes(&handle, |b| b.len())
                .expect("just allocated")
        });
        read_m.add(ns);
        live.push_back(handle);
        if live.len() == LIVE {
            let oldest = live.pop_front().expect("non-empty");
            let (_, ns) = sw.time(|| sma.free_bytes(oldest).expect("still live"));
            free_m.add(ns);
        }
    }

    // Strip budget slack first (giving that back is free), so the timed
    // demands have to come out of idle pages and live entries.
    full.reclaim(full.budget_pages().saturating_sub(full.held_pages()));
    const ASK: usize = 32;
    let (mut asked, mut yielded, mut reclaim_ns) = (0usize, 0usize, 0u64);
    for _ in 0..8 {
        let (report, ns) = sw.time(|| full.reclaim(ASK));
        asked += ASK;
        yielded += report.total_yielded();
        reclaim_ns += ns;
    }
    vec![
        ("sma.alloc_ns", alloc_m.get(), "ns"),
        ("sma.read_ns", read_m.get(), "ns"),
        ("sma.free_ns", free_m.get(), "ns"),
        (
            "sma.reclaim_us_per_page",
            if yielded > 0 {
                reclaim_ns as f64 / 1e3 / yielded as f64
            } else {
                0.0
            },
            "us",
        ),
        ("sma.reclaim_yield", yielded as f64 / asked as f64, "ratio"),
    ]
}

/// daemon::smd: a request that can only be granted by taking pages
/// from another process (in-process channel; the e2e run measures the
/// same path over the unix socket as `smd.request_ns_*`).
fn drill_smd(spec: &Spec, sw: &Stopwatch) -> Metrics {
    let Memory::Daemon { capacity_mib } = spec.memory else {
        return vec![("smd.drill_request_us", 0.0, "us")];
    };
    let machine = MachineMemory::unbounded();
    let capacity = bytes_to_pages(capacity_mib * 1024 * 1024);
    let smd = Smd::new(SmdConfig::new(&machine, capacity).initial_budget(64));
    let victim = SoftProcess::spawn(&smd, "victim").expect("register victim");
    let store = ShardedStore::new(victim.sma(), "keyspace", Priority::new(4), spec.shards);
    // Fill until the machine has no unassigned page left.
    let mut id = 0;
    while smd.stats().assigned_pages < capacity && id < 10_000_000 {
        let _ = store.set(&key_bytes(id), &value_bytes(id, spec.value_len));
        id += 1;
    }
    let requester = SoftProcess::spawn(&smd, "requester").expect("register requester");
    const PAGES: usize = 16;
    let mut request_m = Mean::default();
    for _ in 0..50 {
        let (granted, ns) = sw.time(|| requester.request_pages(PAGES).unwrap_or(0));
        request_m.add(ns);
        // Hand the budget back to the victim's side of the ledger so
        // the next request needs a reclamation round again.
        let _ = requester.release_slack(granted);
        while smd.stats().assigned_pages < capacity && id < 10_000_000 {
            let _ = store.set(&key_bytes(id), &value_bytes(id, spec.value_len));
            id += 1;
        }
    }
    vec![("smd.drill_request_us", request_m.get() / 1e3, "us")]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let usage = "usage: layer_drill --workload W [--seed N] [--spans FILE]";
    let spec = arg("--workload")
        .and_then(|w| workload::find(&w))
        .unwrap_or_else(|| {
            eprintln!("{usage}");
            std::process::exit(2);
        });
    let seed: u64 = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);

    let sw = Stopwatch::calibrated();
    let mut kept = Vec::new();
    // `_engine` keeps the store's entries live for the reclaim drill.
    let (mut metrics, full_sma, _engine) = drill_requests(spec, seed, &sw, &mut kept);
    metrics.extend(drill_sds(spec, seed, &sw));
    metrics.extend(drill_sma(spec, &sw, &full_sma));
    metrics.extend(drill_smd(spec, &sw));
    metrics.push(("drill.clock_ns", sw.clock_ns as f64, "ns"));

    if let Some(path) = arg("--spans").map(PathBuf::from) {
        if let Err(e) = spans::write_json(&path, "layer_drill", &kept) {
            eprintln!("layer_drill: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    for (name, (self_ns, n)) in spans::self_times(&kept) {
        println!(
            "# drill span {name}: {n} spans, mean self time {:.1} ns (clock ≈ {} ns per edge)",
            self_ns as f64 / n as f64,
            sw.clock_ns
        );
    }
    let line = Json::obj(metrics.into_iter().map(|(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    println!("{}", line.render());
}
