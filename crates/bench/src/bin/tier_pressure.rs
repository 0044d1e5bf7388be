//! Hit rate under memory pressure: plain-drop eviction vs the
//! second-chance cold tier (compressed arena + spill-to-disk).
//!
//! Both stores run the *identical* deterministic op sequence against
//! the same tiny soft budget: a Zipfian GET stream over a keyspace far
//! larger than the hot tier, misses refilled like a cache, and a
//! streaming writer that constantly pushes fresh one-shot keys through
//! the budget so reclamation never stops squeezing the table. A
//! plain-drop store loses every evicted entry — each later access is a
//! miss. The tiered store's last-chance callback demotes evictions into
//! a compressed cold arena that overflows to a disk segment log, and
//! GET transparently promotes — so "evicted" stops meaning "gone".
//!
//! Every hit in both modes is verified byte-identical against the
//! deterministically derived expected value, so the bench doubles as a
//! torn-promotion check.
//!
//! Run: `cargo run --release -p softmem-bench --bin tier_pressure`
//! Options: `--quick` (CI preset), `--check` (exit nonzero unless the
//! tiered hit rate is >= 2x plain-drop under identical pressure),
//! `--out PATH` (default `BENCH_tier.json`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use softmem_core::{ColdTier, Priority, Sma, SmaConfig, TierConfig};
use softmem_kv::Store;
use softmem_sds::EvictionOrder;
use softmem_sim::ZipfKeys;

/// Bytes per value. Values are pseudo-random (incompressible), so the
/// cold arena fills for real instead of compressing the workload away.
const VALUE_BYTES: usize = 128;
/// Zipf skew of the GET stream. A moderate skew (s = 0.6) keeps the
/// popular head from fitting entirely inside the tiny budget — the
/// point of the bench is a working set the hot tier *cannot* hold.
const ZIPF_S: f64 = 0.6;
/// One streaming one-shot SET per this many GETs keeps eviction
/// pressure on even when the popular keys would otherwise fit.
const STREAM_EVERY: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Evicted entries are dropped; later access is a miss.
    PlainDrop,
    /// Evicted entries demote to the compressed cold tier + spill log.
    Tiered,
}

impl Mode {
    fn name(&self) -> &'static str {
        match self {
            Mode::PlainDrop => "plain-drop",
            Mode::Tiered => "tiered",
        }
    }
}

struct Params {
    budget_pages: usize,
    keys: usize,
    ops: usize,
}

struct RunResult {
    mode: Mode,
    gets: u64,
    hits: u64,
    refills: u64,
    stream_sets: u64,
    reclaimed_entries: u64,
    cold_demotions: u64,
    cold_hits: u64,
    spill_hits: u64,
    spill_writes: u64,
    cold_corruptions: u64,
    elapsed: Duration,
}

impl RunResult {
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.gets as f64).max(1.0)
    }
    fn ops_per_sec(&self) -> f64 {
        (self.gets + self.refills + self.stream_sets) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Deterministic incompressible value for key `k`: an LCG keyed on the
/// index, so any hit can be verified byte-for-byte.
fn value_of(k: usize) -> Vec<u8> {
    let mut x = (k as u32).wrapping_mul(2_654_435_761) | 1;
    (0..VALUE_BYTES)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 24) as u8
        })
        .collect()
}

fn run_mode(mode: Mode, p: &Params, seed: u64) -> RunResult {
    let sma = Sma::with_config(
        SmaConfig::for_testing(p.budget_pages)
            .free_pool_retain(0)
            .sds_retain(0),
    );
    let spill_path = std::env::temp_dir().join(format!(
        "softmem-bench-tier-{}-{}.spill",
        std::process::id(),
        mode.name()
    ));
    let store = match mode {
        Mode::PlainDrop => Store::with_eviction(
            &sma,
            "bench-kv",
            Priority::new(3),
            EvictionOrder::InsertionOrder,
        ),
        Mode::Tiered => {
            let tier = Arc::new(
                ColdTier::new(TierConfig {
                    arena_cap_bytes: 32 << 10,
                    segment_bytes: 4 << 10,
                    spill_path: Some(spill_path.clone()),
                })
                .expect("create cold tier"),
            );
            Store::with_tier(
                &sma,
                "bench-kv",
                Priority::new(3),
                EvictionOrder::InsertionOrder,
                "kv",
                tier,
            )
        }
    };

    // Warm fill: every key written once, oldest first, so by the time
    // the measured phase starts the budget is saturated and the tail of
    // the keyspace has already been squeezed out (dropped or demoted).
    for k in 0..p.keys {
        let key = ZipfKeys::key_name(k);
        store
            .set(key.as_bytes(), &value_of(k))
            .expect("set never fails: eviction sheds other entries");
    }

    let mut zipf = ZipfKeys::new(p.keys, ZIPF_S, seed);
    let mut gets = 0u64;
    let mut hits = 0u64;
    let mut refills = 0u64;
    let mut stream_sets = 0u64;
    let start = Instant::now();
    for op in 0..p.ops {
        if op % STREAM_EVERY == STREAM_EVERY - 1 {
            // Streaming one-shot key outside the Zipf keyspace: pure
            // eviction pressure, never read back.
            let k = p.keys + op;
            let key = ZipfKeys::key_name(k);
            store
                .set(key.as_bytes(), &value_of(k))
                .expect("streaming set");
            stream_sets += 1;
            continue;
        }
        let k = zipf.next_key();
        let key = ZipfKeys::key_name(k);
        gets += 1;
        match store.get(key.as_bytes()) {
            Some(v) => {
                assert_eq!(v, value_of(k), "hit for {key} returned wrong bytes");
                hits += 1;
            }
            None => {
                // Cache-fill on miss, same as a look-aside cache in
                // front of a database: the miss costs a refill write.
                store.set(key.as_bytes(), &value_of(k)).expect("refill set");
                refills += 1;
            }
        }
    }
    let elapsed = start.elapsed();
    let s = store.stats();
    drop(store);
    drop(sma);
    let _ = std::fs::remove_file(&spill_path);
    RunResult {
        mode,
        gets,
        hits,
        refills,
        stream_sets,
        reclaimed_entries: s.reclaimed_entries,
        cold_demotions: s.cold_demotions,
        cold_hits: s.cold_hits,
        spill_hits: s.spill_hits,
        spill_writes: s.spill_writes,
        cold_corruptions: s.cold_corruptions,
        elapsed,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_tier.json".to_string());

    let p = if quick {
        Params {
            budget_pages: 16,
            keys: 4_000,
            ops: 30_000,
        }
    } else {
        Params {
            budget_pages: 24,
            keys: 16_000,
            ops: 200_000,
        }
    };
    let seed = 0x71E4_D00D_u64;
    println!("== tier pressure: hit rate when the budget cannot hold the working set ==");
    println!(
        "{} keys x {VALUE_BYTES}B (incompressible) through a {}-page soft budget, \
         Zipf(s={ZIPF_S}) GETs with miss-refill, 1 streaming SET per {STREAM_EVERY} ops, \
         {} measured ops\n",
        p.keys, p.budget_pages, p.ops
    );

    let mut results: Vec<RunResult> = Vec::new();
    for mode in [Mode::PlainDrop, Mode::Tiered] {
        let r = run_mode(mode, &p, seed);
        println!(
            "{:>10}: {:>5.1}% hit rate  ({} gets, {} hits, {} refills, \
             {} reclaimed, {} demotions, {} arena promotes, {} disk promotes, \
             {:.0} ops/s)",
            r.mode.name(),
            r.hit_rate() * 100.0,
            r.gets,
            r.hits,
            r.refills,
            r.reclaimed_entries,
            r.cold_demotions,
            r.cold_hits,
            r.spill_hits,
            r.ops_per_sec()
        );
        assert_eq!(r.cold_corruptions, 0, "no promotion may be torn");
        results.push(r);
    }

    let plain = &results[0];
    let tiered = &results[1];
    let ratio = tiered.hit_rate() / plain.hit_rate().max(1e-9);
    println!("\ntiered vs plain-drop hit rate: {ratio:.2}x");

    let mode_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"mode\":\"{}\",\"gets\":{},\"hits\":{},\"hit_rate\":{:.4},\
                 \"refills\":{},\"stream_sets\":{},\"reclaimed_entries\":{},\
                 \"cold_demotions\":{},\"cold_hits\":{},\"spill_hits\":{},\
                 \"spill_writes\":{},\"cold_corruptions\":{},\
                 \"elapsed_ms\":{},\"ops_per_sec\":{:.0}}}",
                r.mode.name(),
                r.gets,
                r.hits,
                r.hit_rate(),
                r.refills,
                r.stream_sets,
                r.reclaimed_entries,
                r.cold_demotions,
                r.cold_hits,
                r.spill_hits,
                r.spill_writes,
                r.cold_corruptions,
                r.elapsed.as_millis(),
                r.ops_per_sec()
            )
        })
        .collect();
    let json = format!(
        "{{\"quick\":{quick},\"budget_pages\":{},\"keys\":{},\"ops\":{},\
         \"value_bytes\":{VALUE_BYTES},\"zipf_s\":{ZIPF_S},\
         \"stream_every\":{STREAM_EVERY},\"modes\":[{}],\
         \"tiered_vs_plain_hit_rate\":{ratio:.2}}}",
        p.budget_pages,
        p.keys,
        p.ops,
        mode_json.join(",")
    );
    std::fs::write(&out, format!("{json}\n")).expect("write report");
    println!("wrote {out}");

    let mut failed = false;
    if check && ratio < 2.0 {
        eprintln!(
            "CHECK FAILED: tiered hit rate is only {ratio:.2}x plain-drop \
             under identical pressure (gate: >= 2x)"
        );
        failed = true;
    }
    if check && (tiered.cold_demotions == 0 || tiered.spill_writes == 0) {
        eprintln!(
            "CHECK FAILED: the tiered run must actually demote ({}) and spill ({}) \
             or the comparison is vacuous",
            tiered.cold_demotions, tiered.spill_writes
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
