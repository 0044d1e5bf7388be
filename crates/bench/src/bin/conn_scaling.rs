//! Connection scaling — how far one process's network plane carries a
//! growing client fleet, reported as `BENCH_conn.json`.
//!
//! For each client count the harness binds a fresh 4-shard engine
//! behind the reactor frontend, dials that many real localhost sockets
//! with the multiplexed `Swarm` load generator, and drives a pipelined
//! GET/SET mix for a fixed wall-clock window, up to 8192 concurrent
//! clients. Aggregate ops/s and sampled p50/p99/p999 latency per point
//! are the evidence. (EXPERIMENTS.md §A8 keeps the last comparison
//! against a thread-per-connection frontend: 3.45× at 1024 clients.)
//!
//! Run: `cargo run --release -p softmem-bench --bin conn_scaling`
//! Options: `--quick` (CI preset: caps the sweep at 1024 clients,
//! shorter windows), `--check` (exit non-zero unless every point was
//! sustained without an I/O error or server-side close), `--out PATH`
//! (default `BENCH_conn.json`). Throughput and latency regressions of
//! the network plane are held by the `pingpong` and `hot_read`
//! workloads of the repository benchmark (BENCHMARK.json), not here.

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("conn_scaling requires Linux (epoll reactor frontend + swarm client)");
}

#[cfg(target_os = "linux")]
fn main() {
    linux::run()
}

#[cfg(target_os = "linux")]
mod linux {
    use std::sync::Arc;
    use std::time::Duration;

    use softmem_core::{Priority, Sma};
    use softmem_kv::{ReactorConfig, ReactorFrontend, RunOpts, ShardedStore, Swarm};

    /// Engine shards behind every configuration.
    const SHARDS: usize = 4;
    /// Outstanding requests per client.
    const PIPELINE: usize = 8;
    /// Shared keyspace the fleet churns.
    const KEYSPACE: u64 = 1024;
    /// Value bytes per SET.
    const VALUE_LEN: usize = 64;

    struct Point {
        clients: usize,
        sent: u64,
        received: u64,
        elapsed: Duration,
        p50_ns: u64,
        p99_ns: u64,
        p999_ns: u64,
        error_replies: u64,
        io_errors: u64,
        disconnects: u64,
    }

    impl Point {
        fn ops_per_sec(&self) -> f64 {
            self.received as f64 / self.elapsed.as_secs_f64().max(1e-9)
        }

        fn clean(&self) -> bool {
            self.io_errors == 0 && self.disconnects == 0 && self.received > 0
        }

        fn json(&self) -> String {
            format!(
                "{{\"clients\":{},\"sent\":{},\"received\":{},\
                 \"elapsed_ms\":{},\"ops_per_sec\":{:.0},\"p50_ns\":{},\"p99_ns\":{},\
                 \"p999_ns\":{},\"error_replies\":{},\"io_errors\":{},\"disconnects\":{}}}",
                self.clients,
                self.sent,
                self.received,
                self.elapsed.as_millis(),
                self.ops_per_sec(),
                self.p50_ns,
                self.p99_ns,
                self.p999_ns,
                self.error_replies,
                self.io_errors,
                self.disconnects,
            )
        }
    }

    fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    }

    /// Binds a fresh engine behind the reactor frontend and drives
    /// `clients` connections against it for `window`, returning the
    /// aggregate throughput/latency point. The swarm is single-threaded
    /// and shares the cores with the server.
    fn point(clients: usize, window: Duration) -> Point {
        let sma = Sma::standalone(2048);
        let engine = ShardedStore::new(&sma, "bench", Priority::new(4), SHARDS);
        let fe = ReactorFrontend::bind("127.0.0.1:0", Arc::new(engine), ReactorConfig::default())
            .expect("bind reactor frontend");
        let mut swarm = Swarm::connect(fe.addr(), clients).expect("swarm connect");
        let opts = RunOpts {
            per_client: u64::MAX,
            pipeline: PIPELINE,
            deadline: Some(window),
            latency_sample_every: 64,
        };
        let report = swarm.run(&opts, |client, req, out| {
            let k = ((client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ req) % KEYSPACE;
            if req % 3 == 0 {
                out.extend_from_slice(format!("GET conn:{k:04}\n").as_bytes());
            } else {
                out.extend_from_slice(format!("SET conn:{k:04} ").as_bytes());
                out.resize(out.len() + VALUE_LEN, b'v');
                out.push(b'\n');
            }
        });
        // Collect stragglers so sent == received and the elapsed
        // window (not the tail drain) is what throughput is judged on.
        let tail = swarm.drain(Duration::from_secs(10));
        let mut lats = report.latencies_ns;
        lats.extend(tail.latencies_ns);
        lats.sort_unstable();
        Point {
            clients,
            sent: report.sent + tail.sent,
            received: report.received + tail.received,
            elapsed: report.elapsed,
            p50_ns: percentile(&lats, 0.50),
            p99_ns: percentile(&lats, 0.99),
            p999_ns: percentile(&lats, 0.999),
            error_replies: report.error_replies + tail.error_replies,
            io_errors: report.io_errors + tail.io_errors,
            disconnects: report.disconnects + tail.disconnects,
        }
    }

    pub fn run() {
        let args: Vec<String> = std::env::args().collect();
        let quick = args.iter().any(|a| a == "--quick")
            || std::env::var("SOFTMEM_BENCH_QUICK").is_ok_and(|v| v == "1");
        let check = args.iter().any(|a| a == "--check");
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "BENCH_conn.json".to_string());

        let window = Duration::from_millis(if quick { 500 } else { 2000 });
        let cap = if quick { 1024 } else { usize::MAX };
        let sweep = [64usize, 256, 1024, 4096, 8192]
            .into_iter()
            .filter(|&c| c <= cap);

        println!("== connection scaling ==");
        println!(
            "{SHARDS}-shard engine, pipeline {PIPELINE}, {KEYSPACE}-key GET/SET mix, \
             {window:?} window per point\n"
        );

        let mut points = Vec::new();
        for clients in sweep {
            let p = point(clients, window);
            println!(
                "{:>4} clients: {:>9.0} ops/s  p50 {:>7} ns  p99 {:>8} ns  p999 {:>9} ns{}",
                p.clients,
                p.ops_per_sec(),
                p.p50_ns,
                p.p99_ns,
                p.p999_ns,
                if p.clean() {
                    String::new()
                } else {
                    format!(
                        "  [{} io error(s), {} disconnect(s)]",
                        p.io_errors, p.disconnects
                    )
                },
            );
            points.push(p);
        }

        let error_free = points.iter().all(Point::clean);
        println!(
            "\nswept to {} clients — {}",
            points.last().map_or(0, |p| p.clients),
            if error_free {
                "error-free: PASS"
            } else {
                "FAIL"
            }
        );

        let point_json: Vec<String> = points.iter().map(Point::json).collect();
        let json = format!(
            "{{\"quick\":{quick},\"shards\":{SHARDS},\"pipeline\":{PIPELINE},\
             \"window_ms\":{},\"points\":[{}],\"error_free\":{error_free}}}",
            window.as_millis(),
            point_json.join(","),
        );
        std::fs::write(&out, format!("{json}\n")).expect("write report");
        println!("wrote {out}");

        if check && !error_free {
            eprintln!(
                "FAIL: connection-scaling gate — every point must be sustained without \
                 a client I/O error or a server-side close (see {out})"
            );
            std::process::exit(1);
        }
    }
}
