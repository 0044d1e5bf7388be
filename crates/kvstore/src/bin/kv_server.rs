//! A standalone soft-memory KV server over TCP.
//!
//! Runs the Redis-like store on its own soft-memory allocator with a
//! fixed budget, so the cache degrades (sheds entries) instead of
//! growing without bound — `maxmemory` semantics out of the box.
//! `--shards N` splits the keyspace over N independent engine threads
//! (one SDS and one worker each), the shard-per-core deployment shape.
//!
//! There is one network plane (DESIGN.md §3.4): a small pool of epoll
//! reactors multiplexes every client socket, frames and hash-routes
//! requests to per-shard SPSC rings, and shard workers execute them in
//! batches — thousands of idle or slow connections without a thread
//! each. `--reactors N` sizes the pool (0 = auto). Linux only.
//!
//! Flags (each takes one value): `--budget-mib`, `--shards`,
//! `--listen`, `--reactors`, `--smd-socket`, `--idle-timeout-ms`,
//! `--write-stall-timeout-ms`, `--shed-inflight`,
//! `--accept-pause-inflight`. An unknown flag or a value that does not
//! parse is an error (exit 2), never a silent default.
//!
//! ```sh
//! cargo run --release -p softmem-kv --bin kv_server -- --budget-mib 64 --shards 4
//! # in another terminal:
//! cargo run --release -p softmem-kv --bin kv_cli -- 127.0.0.1:<port>
//! ```

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("kv_server requires Linux epoll");
    std::process::exit(2);
}

#[cfg(target_os = "linux")]
fn main() {
    linux::main()
}

#[cfg(target_os = "linux")]
mod linux {
    use std::time::Duration;

    pub fn main() {
        match Opts::parse(std::env::args().skip(1)) {
            Ok(opts) => serve(opts),
            Err(msg) => {
                eprintln!("kv_server: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// The command line, checked where it enters: every field holds a
    /// parsed value or its default.
    struct Opts {
        budget_mib: usize,
        shards: usize,
        listen: String,
        reactors: usize,
        smd_socket: Option<String>,
        // Fault-plane knobs (all off by default): connection deadlines
        // and overload admission control.
        idle_timeout: Option<Duration>,
        write_stall_timeout: Option<Duration>,
        shed_inflight: Option<u64>,
        accept_pause_inflight: Option<u64>,
    }

    impl Opts {
        fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
            fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
                value
                    .parse()
                    .map_err(|_| format!("{flag}: {value:?} is not a number"))
            }
            let mut opts = Opts {
                budget_mib: 64,
                shards: 1,
                listen: "127.0.0.1:0".to_string(),
                reactors: 0,
                smd_socket: None,
                idle_timeout: None,
                write_stall_timeout: None,
                shed_inflight: None,
                accept_pause_inflight: None,
            };
            while let Some(flag) = args.next() {
                let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
                match flag.as_str() {
                    "--budget-mib" => opts.budget_mib = num(&flag, &value()?)?,
                    "--shards" => opts.shards = num::<usize>(&flag, &value()?)?.max(1),
                    "--listen" => opts.listen = value()?,
                    "--reactors" => opts.reactors = num(&flag, &value()?)?,
                    "--smd-socket" => opts.smd_socket = Some(value()?),
                    "--idle-timeout-ms" => {
                        opts.idle_timeout = Some(Duration::from_millis(num(&flag, &value()?)?))
                    }
                    "--write-stall-timeout-ms" => {
                        opts.write_stall_timeout =
                            Some(Duration::from_millis(num(&flag, &value()?)?))
                    }
                    "--shed-inflight" => opts.shed_inflight = Some(num(&flag, &value()?)?),
                    "--accept-pause-inflight" => {
                        opts.accept_pause_inflight = Some(num(&flag, &value()?)?)
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            Ok(opts)
        }
    }

    fn serve(opts: Opts) {
        use std::sync::atomic::Ordering;
        use std::sync::Arc;

        use softmem_core::{bytes_to_pages, MachineMemory, Priority, Sma, SmaConfig};
        use softmem_daemon::uds::UdsProcess;
        use softmem_kv::{ReactorConfig, ReactorFrontend, ShardedStore};

        // Two modes: a fixed standalone budget, or membership of a
        // machine-wide daemon (multiple kv_server processes then share
        // soft memory, reclaiming from each other under pressure).
        let (_daemon_membership, sma) = match &opts.smd_socket {
            Some(socket) => {
                let proc = UdsProcess::connect(
                    socket,
                    "kv-server",
                    SmaConfig::new(MachineMemory::unbounded(), 0),
                )
                .expect("connect to the soft memory daemon");
                println!("joined soft memory daemon at {socket}");
                let sma = Arc::clone(proc.sma());
                (Some(proc), sma)
            }
            None => (
                None,
                Sma::with_config(SmaConfig::new(
                    MachineMemory::unbounded(),
                    bytes_to_pages(opts.budget_mib * 1024 * 1024),
                )),
            ),
        };
        let engine = ShardedStore::new(&sma, "keyspace", Priority::new(4), opts.shards);

        let cfg = ReactorConfig {
            reactors: opts.reactors,
            idle_timeout: opts.idle_timeout,
            write_stall_timeout: opts.write_stall_timeout,
            overload_shed_inflight: opts.shed_inflight,
            overload_accept_inflight: opts.accept_pause_inflight,
            ..ReactorConfig::default()
        };
        let frontend = ReactorFrontend::bind(&opts.listen, Arc::new(engine), cfg)
            .expect("bind listen address");
        println!(
            "softmem-kv listening on {} (reactor frontend, soft budget {} MiB, {} shard{})",
            frontend.addr(),
            opts.budget_mib,
            opts.shards,
            if opts.shards == 1 { "" } else { "s" }
        );
        println!("commands: GET SET DEL EXISTS DBSIZE KEYS MGET INCR INCRBY APPEND PEXPIRE PTTL PERSIST INFO STATS SHED FLUSHALL SHUTDOWN");

        // The reactors and shard workers do all the work; the main
        // thread just waits for a client to issue SHUTDOWN.
        let stats = frontend.stats();
        while !stats.shutdown_requested.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(frontend); // flush + join reactors and workers before exiting
    }
}
