//! `softmem-e2e`: spawns the real `kv_server` / `smd_daemon` binaries,
//! drives them over loopback, verifies every reply, and prints the
//! benchmark's metrics. See README.md for what each workload isolates.
//!
//! Usage (normally through `benchmark/run.sh`, which builds first):
//!
//! ```text
//! softmem-e2e [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs in turn. `--trace 0` (the
//! default) reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from a run with tracing on. The last line of
//! stdout for each workload is one JSON object.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use softmem_e2e::child::{self, Proc, ScratchDir};
use softmem_e2e::gen::{stream_hash, OpGen};
use softmem_e2e::hist::{median, LogHist};
use softmem_e2e::json::Json;
use softmem_e2e::load::{self, AggressorStats, Clock, ConnPlan, ConnStats};
use softmem_e2e::procfs;
use softmem_e2e::spans;
use softmem_e2e::wire;
use softmem_e2e::workload::{self, Memory, Spec, AGGRESSOR_SHARDS, REACTORS};

/// The measured phase is cut into this many windows; timing metrics
/// report the median window so one noisy-neighbour burst on a shared
/// box cannot decide a comparison.
const WINDOWS: usize = 10;
/// Set-up is repeated and its median reported; the last one is kept.
const SETUPS: usize = 3;
const BANNER_TIMEOUT: Duration = Duration::from_secs(15);
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workloads: Vec<&'static Spec>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workload::WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = workload::find(&name).ok_or(format!("unknown workload {name:?}"))?;
                args.workloads = vec![spec];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The processes of one set-up. Field order is drop order: tenants are
/// killed before the daemon they are registered with.
struct Tenants {
    main: Proc,
    main_addr: SocketAddr,
    aggressor: Option<(Proc, SocketAddr)>,
    daemon: Option<(Proc, PathBuf)>,
}

const SMD_SOCKET: &str = "smd.sock";

/// The `kv_server` command line (recorded in results.json).
fn kv_flags(shards: usize, memory: Memory) -> Vec<String> {
    let (flag, value) = match memory {
        Memory::Budget { mib } => ("--budget-mib", mib.to_string()),
        Memory::Daemon { .. } => ("--smd-socket", SMD_SOCKET.to_string()),
    };
    ["--listen", "127.0.0.1:0", "--reactors", REACTORS]
        .into_iter()
        .map(String::from)
        .chain(["--shards".into(), shards.to_string(), flag.into(), value])
        .collect()
}

fn spawn_kv(bin_dir: &Path, cwd: &Path, flags: &[String]) -> io::Result<(Proc, SocketAddr)> {
    let mut cmd = Command::new(bin_dir.join("kv_server"));
    cmd.current_dir(cwd).args(flags);
    let mut p = Proc::spawn("kv_server", cmd)?;
    let addr = p.wait_for_line(BANNER_TIMEOUT, wire::parse_kv_banner)?;
    Ok((p, addr))
}

impl Tenants {
    /// spawn → banner → preload: what `setup_s` times.
    fn start(spec: &Spec, bin_dir: &Path, scratch: &Path) -> io::Result<Tenants> {
        let daemon = match spec.memory {
            Memory::Budget { .. } => None,
            Memory::Daemon { capacity_mib } => {
                // The socket path is relative to the children's working
                // directory, so it stays far below the 108-byte
                // sun_path limit wherever the checkout lives.
                let socket = scratch.join(SMD_SOCKET);
                let _ = std::fs::remove_file(&socket);
                let mut cmd = Command::new(bin_dir.join("smd_daemon"));
                cmd.current_dir(scratch)
                    .args(["--socket", SMD_SOCKET])
                    .args(["--capacity-mib", &capacity_mib.to_string()]);
                let mut p = Proc::spawn("smd_daemon", cmd)?;
                p.wait_for_line(BANNER_TIMEOUT, |l| wire::is_smd_banner(l).then_some(()))?;
                Some((p, socket))
            }
        };
        let (main, main_addr) = spawn_kv(bin_dir, scratch, &kv_flags(spec.shards, spec.memory))?;
        let aggressor = match spec.aggressor {
            Some(_) => Some(spawn_kv(
                bin_dir,
                scratch,
                &kv_flags(AGGRESSOR_SHARDS, spec.memory),
            )?),
            None => None,
        };
        load::preload(main_addr, spec.preload_keys, spec.value_len)?;
        Ok(Tenants {
            main,
            main_addr,
            aggressor,
            daemon,
        })
    }

    fn any_exited(&mut self) -> bool {
        self.main.has_exited()
            || self.aggressor.as_mut().is_some_and(|(p, _)| p.has_exited())
            || self.daemon.as_mut().is_some_and(|(p, _)| p.has_exited())
    }
}

/// One outside-in sample of the programs under test and of ourselves.
struct Sample {
    at: Instant,
    self_cpu_us: u64,
    /// Only in traced runs.
    layers: Option<LayerSample>,
}

struct LayerSample {
    threads: std::collections::HashMap<u32, procfs::ThreadSample>,
    kv: Json,
    smd: Option<(Json, u64)>,
}

fn sample(t: &Tenants, trace: bool) -> io::Result<Sample> {
    let layers = if trace {
        Some(LayerSample {
            threads: procfs::sample_threads(t.main.pid())?,
            kv: wire::kv_stats(t.main_addr)?,
            smd: match &t.daemon {
                Some((p, socket)) => {
                    Some((wire::smd_stats(socket)?, procfs::process_cpu_us(p.pid())?))
                }
                None => None,
            },
        })
    } else {
        None
    };
    Ok(Sample {
        at: Instant::now(),
        self_cpu_us: procfs::process_cpu_us(std::process::id())?,
        layers,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;
type Joined<T> = std::thread::Result<io::Result<T>>;

/// One measured window, merged over the connections.
struct Window {
    throughput_ops_s: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
    samples: u64,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Per-window values, kept in results.json for diagnosis.
    windows: Json,
    warnings: Vec<String>,
    stream_hash: u64,
}

fn run_workload(spec: &'static Spec, args: &Args, bin_dir: &Path) -> io::Result<Outcome> {
    std::fs::create_dir_all(OUT_DIR)?;
    let scratch = ScratchDir::create(Path::new(OUT_DIR))?;

    // The zeta sum behind the zipf sampler is input generation, not
    // set-up of the system under test: do it before the clock starts.
    let plans: Vec<ConnPlan> = (0..spec.conns as u64)
        .map(|index| ConnPlan {
            index,
            gen: OpGen::new(args.seed, index, spec.keys, spec.get_pct),
            value_len: spec.value_len,
            drive: spec.drive,
            trace: args.trace,
        })
        .collect();
    let stream_hash = stream_hash(&mut plans[0].gen.clone(), 100_000);

    let mut setups = Vec::new();
    let mut tenants = None;
    for _ in 0..SETUPS {
        drop(tenants.take());
        let t0 = Instant::now();
        tenants = Some(Tenants::start(spec, bin_dir, scratch.path())?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut tenants = tenants.expect("SETUPS >= 1");

    let streams = (0..spec.conns)
        .map(|_| wire::connect(tenants.main_addr))
        .collect::<io::Result<Vec<_>>>()?;
    let clock = Clock::new(
        Instant::now() + Duration::from_millis(100),
        Duration::from_secs(args.seconds),
        WINDOWS,
    );

    let (conns, aggressor, samples) = std::thread::scope(|s| {
        let clock = &clock;
        let conn_threads: Vec<_> = streams
            .into_iter()
            .zip(plans)
            .map(|(stream, plan)| s.spawn(move || load::drive(stream, plan, clock)))
            .collect();
        let aggressor_thread = tenants.aggressor.as_ref().map(|&(_, addr)| {
            let plan = spec.aggressor.expect("aggressor process implies a plan");
            s.spawn(move || load::aggress(addr, plan, clock))
        });
        // This thread only sleeps and samples at the phase boundaries.
        let samples = (|| {
            child::sleep_until(clock.at(clock.warm_ns))?;
            let before = sample(&tenants, args.trace)?;
            child::sleep_until(clock.at(clock.end_ns()))?;
            let after = sample(&tenants, args.trace)?;
            Ok::<_, io::Error>((before, after))
        })();
        let conns: Vec<Joined<ConnStats>> = conn_threads.into_iter().map(|t| t.join()).collect();
        let aggressor: Option<Joined<AggressorStats>> = aggressor_thread.map(|t| t.join());
        (conns, aggressor, samples)
    });
    let crashed = tenants.any_exited();
    fn unpanic<T>(r: Joined<T>) -> io::Result<T> {
        r.unwrap_or_else(|_| Err(io::Error::other("load thread panicked")))
    }
    let conns = conns
        .into_iter()
        .map(unpanic)
        .collect::<io::Result<Vec<ConnStats>>>();
    let aggressor = aggressor.map(unpanic).transpose();
    if crashed {
        child::check_interrupt()?; // a signal to the group, not a crash
        return Err(io::Error::other("a server process exited during the run"));
    }
    let (conns, aggressor, (before, after)) = (conns?, aggressor?.unwrap_or_default(), samples?);

    let rss_mib = procfs::vm_hwm_kib(tenants.main.pid())? as f64 / 1024.0;
    drop(tenants); // servers down before the drill measures anything

    // ---- accounting over the whole phase ----
    let sum = |f: fn(&ConnStats) -> u64| conns.iter().map(f).sum::<u64>();
    let attempted = sum(|c| c.attempted) + aggressor.attempted;
    let failed = sum(ConnStats::failed) + aggressor.err_replies;
    let mismatches = sum(|c| c.mismatches);
    let (gets, hits) = (sum(|c| c.gets), sum(|c| c.hits));

    // ---- per-window timing, median window reported ----
    let window_s = clock.window_ns as f64 / 1e9;
    let mut win: Vec<Window> = Vec::new();
    for w in 0..WINDOWS {
        let mut lat = LogHist::default();
        let mut verified = 0;
        for c in &conns {
            lat.merge(&c.windows[w].latency);
            verified += c.windows[w].verified;
        }
        let (Some(p50), Some(p99)) = (lat.quantile(0.5), lat.supported_quantile(0.99)) else {
            return Err(io::Error::other(format!(
                "window {w} has {} samples: too few for a p99",
                lat.count()
            )));
        };
        win.push(Window {
            throughput_ops_s: verified as f64 / window_s,
            lat_p50_us: p50 / 1e3,
            lat_p99_us: p99 / 1e3,
            samples: lat.count(),
        });
    }
    let median_window = |f: fn(&Window) -> f64, keep: fn(usize) -> bool| {
        let kept = win.iter().enumerate().filter(|(i, _)| keep(*i));
        median(&kept.map(|(_, w)| f(w)).collect::<Vec<_>>())
    };
    let lat_p50_us = median_window(|w| w.lat_p50_us, |_| true);
    let windows_json = Json::Arr(
        win.iter()
            .map(|w| {
                Json::obj([
                    ("throughput_ops_s", Json::Num(w.throughput_ops_s)),
                    ("lat_p50_us", Json::Num(w.lat_p50_us)),
                    ("lat_p99_us", Json::Num(w.lat_p99_us)),
                    ("samples", Json::Num(w.samples as f64)),
                ])
            })
            .collect(),
    );

    let wall_us = (after.at - before.at).as_micros() as f64;
    let loadgen_cpu_share = (after.self_cpu_us - before.self_cpu_us) as f64 / wall_us;
    let mut gen_lag = LogHist::default();
    conns.iter().for_each(|c| gen_lag.merge(&c.gen_lag));
    let gen_lag_p99_us = gen_lag.quantile(0.99).unwrap_or(0.0) / 1e3;

    let mut warnings = Vec::new();
    if loadgen_cpu_share > 0.9 {
        warnings.push(format!(
            "INVALID: loadgen used {loadgen_cpu_share:.2} of a core (> 0.9): it may be the bottleneck"
        ));
    }
    if gen_lag_p99_us > 1000.0 {
        warnings.push(format!(
            "INVALID: open-loop generator ran {gen_lag_p99_us:.0} us late at p99 (> 1 ms)"
        ));
    }

    let metrics: Metrics = if !args.trace {
        println!(
            "# {}: {} latency samples, {} GETs, failed_share {:.6} ({} of {})",
            spec.name,
            win.iter().map(|w| w.samples).sum::<u64>(),
            gets,
            failed as f64 / attempted as f64,
            failed,
            attempted
        );
        vec![
            ("setup_s", median(&setups), "s"),
            (
                "throughput_ops_s",
                median_window(|w| w.throughput_ops_s, |_| true),
                "1/s",
            ),
            ("lat_p50_us", lat_p50_us, "us"),
            (
                "lat_p99_us",
                median_window(|w| w.lat_p99_us, |_| true),
                "us",
            ),
            ("hit_rate", hits as f64 / gets as f64, "ratio"),
            ("server_rss_mib", rss_mib, "MiB"),
        ]
    } else {
        let (b, a) = (
            before.layers.as_ref().expect("traced sample"),
            after.layers.as_ref().expect("traced sample"),
        );
        let mut m = layer_metrics(b, a);
        m.push((
            "sma.alloc_failures",
            (sum(|c| c.set_err_replies) + aggressor.err_replies) as f64,
            "count",
        ));
        m.push((
            "squeeze.burst_p50_ms",
            if aggressor.burst_ms.is_empty() {
                0.0
            } else {
                median(&aggressor.burst_ms)
            },
            "ms",
        ));
        m.push(("loadgen.cpu_share", loadgen_cpu_share, "ratio"));
        m.push(("loadgen.gen_lag_p99_us", gen_lag_p99_us, "us"));
        // Odd windows recorded client spans, even ones did not.
        let untraced = median_window(|w| w.lat_p50_us, |i| i % 2 == 0);
        let traced = median_window(|w| w.lat_p50_us, |i| i % 2 == 1);
        m.push((
            "trace.overhead_share",
            (traced - untraced) / untraced,
            "ratio",
        ));

        let client_spans: Vec<_> = conns.iter().flat_map(|c| c.spans.iter().copied()).collect();
        let path = Path::new(OUT_DIR).join(format!("trace-{}.client.json", spec.name));
        spans::write_json(&path, "softmem-e2e client", &client_spans)?;
        for (name, (self_ns, n)) in spans::self_times(&client_spans) {
            println!(
                "# client span {name}: {n} spans, mean self time {:.1} us",
                self_ns as f64 / n as f64 / 1e3
            );
        }

        let drill = run_drill(spec, args, bin_dir)?;
        let drilled = |name: &str| {
            let value = drill
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::num);
            value.ok_or_else(|| io::Error::other(format!("layer_drill did not report {name}")))
        };
        m.push((
            "reactor.rtt_residual_us",
            lat_p50_us - drilled("drill.service_ns")? / 1e3,
            "us",
        ));
        for (name, unit) in DRILL_METRICS {
            m.push((name, drilled(name)?, unit));
        }
        m
    };

    Ok(Outcome {
        correct: mismatches == 0,
        attempted,
        failed,
        metrics,
        windows: windows_json,
        warnings,
        stream_hash,
    })
}

/// The per-layer metrics read from outside: `/proc` thread deltas and
/// `STATS` deltas over exactly the measured phase.
fn layer_metrics(b: &LayerSample, a: &LayerSample) -> Metrics {
    let num = |j: &Json, path: &str| j.path(path).and_then(Json::num).unwrap_or(0.0);
    let net = |name: &str| num(&a.kv, &format!("net.{name}")) - num(&b.kv, &format!("net.{name}"));
    let replies = net("replies_total").max(1.0);

    let reactor = procfs::group_delta(&b.threads, &a.threads, "softmem-kv-reac");
    let worker = procfs::group_delta(&b.threads, &a.threads, "softmem-kv-shar");
    let mut m: Metrics = vec![
        (
            "reactor.cpu_us_per_req",
            reactor.cpu_us as f64 / replies,
            "us",
        ),
        (
            "reactor.sys_share",
            reactor.sys_us as f64 / reactor.cpu_us.max(1) as f64,
            "ratio",
        ),
        (
            "reactor.wakes_per_kreq",
            reactor.voluntary_switches as f64 * 1e3 / replies,
            "count",
        ),
        ("reactor.paused_reads", net("paused_reads_total"), "count"),
        ("reactor.route_stalls", net("route_stalls_total"), "count"),
        (
            "reactor.overload_sheds",
            net("overload_sheds_total"),
            "count",
        ),
        (
            "worker.cpu_us_per_req",
            worker.cpu_us as f64 / replies,
            "us",
        ),
        (
            "worker.wakes_per_kreq",
            worker.voluntary_switches as f64 * 1e3 / replies,
            "count",
        ),
    ];

    // Shard registries are `kv` (one shard) or `kv0`, `kv1`, …
    fn shards(stats: &Json) -> Vec<&Json> {
        let kv = stats.fields().iter().filter(|(k, _)| k.starts_with("kv"));
        kv.map(|(_, v)| v).collect()
    }
    let (sb, sa) = (shards(&b.kv), shards(&a.kv));
    let total = |side: &[&Json], name: &str| side.iter().map(|s| num(s, name)).sum::<f64>();
    let delta = |name: &str| total(&sa, name) - total(&sb, name);
    let hist_delta = |name: &str| {
        let merged = |side: &[&Json]| {
            let mut all: Vec<(u32, f64)> = Vec::new();
            for s in side {
                for (bkt, n) in wire::hist_buckets(s.get(name)) {
                    match all.iter_mut().find(|x| x.0 == bkt) {
                        Some(x) => x.1 += n,
                        None => all.push((bkt, n)),
                    }
                }
            }
            all.sort_by_key(|x| x.0);
            all
        };
        wire::bucket_delta(&merged(&sb), &merged(&sa))
    };
    let op = hist_delta("op_ns");
    let callbacks = delta("callback_ns.count");
    m.extend([
        ("store.op_ns_p50", wire::bucket_quantile(&op, 0.5), "ns"),
        ("store.op_ns_p99", wire::bucket_quantile(&op, 0.99), "ns"),
        (
            "store.callback_ns_mean",
            if callbacks > 0.0 {
                delta("callback_ns.sum") / callbacks
            } else {
                0.0
            },
            "ns",
        ),
        ("store.hits", delta("hits"), "count"),
        ("store.misses", delta("misses"), "count"),
        ("store.sets", delta("sets"), "count"),
        (
            "store.reclaimed_entries",
            delta("reclaimed_entries"),
            "count",
        ),
        ("sma.soft_pages_end", total(&sa, "soft_pages"), "count"),
    ]);

    let zero = (Json::Null, 0);
    let (smd_b, cpu_b) = b.smd.as_ref().unwrap_or(&zero);
    let (smd_a, cpu_a) = a.smd.as_ref().unwrap_or(&zero);
    let smd = |name: &str| num(smd_a, &format!("smd.{name}")) - num(smd_b, &format!("smd.{name}"));
    let rounds = smd("reclaim_rounds_total");
    let request = wire::bucket_delta(
        &wire::hist_buckets(smd_b.path("smd.request_ns")),
        &wire::hist_buckets(smd_a.path("smd.request_ns")),
    );
    m.extend([
        ("smd.grants", smd("grants_total"), "count"),
        ("smd.denials", smd("denials_total"), "count"),
        ("smd.reclaim_rounds", rounds, "count"),
        ("smd.pages_reclaimed", smd("pages_reclaimed_total"), "count"),
        (
            "smd.pages_per_round",
            if rounds > 0.0 {
                smd("pages_reclaimed_total") / rounds
            } else {
                0.0
            },
            "count",
        ),
        (
            "smd.request_ns_p50",
            wire::bucket_quantile(&request, 0.5),
            "ns",
        ),
        (
            "smd.request_ns_p99",
            wire::bucket_quantile(&request, 0.99),
            "ns",
        ),
        ("smd.cpu_ms", (cpu_a - cpu_b) as f64 / 1e3, "ms"),
    ]);
    m
}

/// What `layer_drill` measures (it also reports `drill.service_ns`,
/// the per-request sum of the four stages, and `drill.clock_ns`).
const DRILL_METRICS: [(&str, &str); 13] = [
    ("protocol.frame_ns", "ns"),
    ("protocol.parse_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("store.exec_get_ns", "ns"),
    ("store.exec_set_ns", "ns"),
    ("sds.get_ns", "ns"),
    ("sds.insert_ns", "ns"),
    ("sma.alloc_ns", "ns"),
    ("sma.read_ns", "ns"),
    ("sma.free_ns", "ns"),
    ("sma.reclaim_us_per_page", "us"),
    ("sma.reclaim_yield", "ratio"),
    ("smd.drill_request_us", "us"),
];

/// Runs `layer_drill` (the one binary that links the crates) on the
/// same seeded op stream and returns the JSON object on its last line.
fn run_drill(spec: &Spec, args: &Args, bin_dir: &Path) -> io::Result<Json> {
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.json", spec.name));
    let mut cmd = Command::new(bin_dir.join("layer_drill"));
    cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()])
        .arg("--spans")
        .arg(&trace_path);
    let mut drill = Proc::spawn("layer_drill", cmd)?;
    drill.wait_for_line(Duration::from_secs(90), |l| {
        l.starts_with('{').then(|| Json::parse(l).ok()).flatten()
    })
}

fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("softmem-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("benchmark/run.sh").exists() {
        eprintln!("softmem-e2e: run from the repository root (benchmark/run.sh does)");
        return ExitCode::from(2);
    }
    child::install_signal_handlers();
    let bin_dir = match std::env::current_exe() {
        Ok(exe) => exe.parent().map(Path::to_path_buf).unwrap_or_default(),
        Err(e) => {
            eprintln!("softmem-e2e: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut results = Vec::new();
    let mut all_correct = true;
    for spec in &args.workloads {
        println!(
            "# workload {} (seed {}, {} s, trace {}): {}",
            spec.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            spec.why
        );
        let outcome = match run_workload(spec, &args, &bin_dir) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("softmem-e2e: {}: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        };
        for (name, value, unit) in &outcome.metrics {
            println!("{:<16} {name:<28} {value:>16.4} {unit}", spec.name);
        }
        for w in &outcome.warnings {
            println!("# {}: {w}", spec.name);
        }
        all_correct &= outcome.correct;

        let metrics = Json::obj(outcome.metrics.iter().map(|&(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            )
        }));
        // The contract's result line; results.json keeps it plus context.
        let line = Json::obj([
            ("correct", Json::Bool(outcome.correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics),
        ]);
        let context = Json::obj([
            ("workload", Json::str(spec.name)),
            (
                "server_flags",
                Json::str(kv_flags(spec.shards, spec.memory).join(" ")),
            ),
            ("valid", Json::Bool(outcome.warnings.is_empty())),
            (
                "op_stream_hash",
                Json::str(format!("{:016x}", outcome.stream_hash)),
            ),
            ("windows", outcome.windows),
        ]);
        results.push(Json::Obj([context.fields(), line.fields()].concat()));
        let report = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("trace", Json::Bool(args.trace)),
            (
                "nproc",
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            (
                "kernel",
                Json::str(
                    std::fs::read_to_string("/proc/sys/kernel/osrelease")
                        .unwrap_or_default()
                        .trim(),
                ),
            ),
            ("git_sha", Json::str(git_sha())),
            ("results", Json::Arr(results.clone())),
        ]);
        if let Err(e) = std::fs::write(
            Path::new(OUT_DIR).join("results.json"),
            report.render() + "\n",
        ) {
            eprintln!("softmem-e2e: writing results.json: {e}");
            return ExitCode::FAILURE;
        }
        println!("{}", line.render());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("softmem-e2e: payload mismatches: the server returned wrong data");
        ExitCode::FAILURE
    }
}
