//! The standalone Soft Memory Daemon.
//!
//! Serves the SMD on a unix socket so that real processes (e.g.
//! several `kv_server` instances) share one machine's soft memory:
//!
//! ```sh
//! cargo run --release -p softmem-daemon --bin smd_daemon -- \
//!     --socket /tmp/softmem.sock --capacity-mib 64
//! # then, in other terminals:
//! cargo run --release -p softmem-kv --bin kv_server -- --smd-socket /tmp/softmem.sock
//! ```
//!
//! Prints an accounting snapshot whenever the assignment changes.
//!
//! Flags (each takes one value): `--socket` (default
//! `/tmp/softmem-smd.sock`) and `--capacity-mib` (default 64). An
//! unknown flag or a value that does not parse is an error (exit 2),
//! never a silent default.

use std::time::Duration;

use softmem_core::{bytes_to_pages, MachineMemory};
use softmem_daemon::uds::UdsSmdServer;
use softmem_daemon::{Smd, SmdConfig};

/// Pages granted to each process when it registers.
const INITIAL_BUDGET_PAGES: usize = 64;

/// The command line, checked where it enters: every field holds a
/// parsed value or its default.
struct Opts {
    socket: String,
    capacity_mib: usize,
}

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let mut opts = Opts {
            socket: "/tmp/softmem-smd.sock".to_string(),
            capacity_mib: 64,
        };
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--socket" => opts.socket = value()?,
                "--capacity-mib" => {
                    let v = value()?;
                    opts.capacity_mib = v
                        .parse()
                        .map_err(|_| format!("{flag}: {v:?} is not a number"))?;
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }
}

fn main() {
    let Opts {
        socket,
        capacity_mib,
    } = Opts::parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("smd_daemon: {msg}");
        std::process::exit(2);
    });

    let machine = MachineMemory::unbounded();
    let smd = Smd::new(
        SmdConfig::new(&machine, bytes_to_pages(capacity_mib * 1024 * 1024))
            .initial_budget(INITIAL_BUDGET_PAGES),
    );
    let server = UdsSmdServer::bind(smd, &socket).expect("bind daemon socket");
    println!("softmem-smd: serving {capacity_mib} MiB of machine soft memory on {socket}");

    // Report whenever the picture changes (simple polling console).
    let mut last = (usize::MAX, 0u64, 0u64);
    loop {
        std::thread::sleep(Duration::from_millis(500));
        let s = server.smd().stats();
        let now = (s.assigned_pages, s.pages_reclaimed_total, s.denials_total);
        if now != last {
            last = now;
            println!(
                "assigned {}/{} pages | {} procs | {} rounds moved {} pages | {} denials",
                s.assigned_pages,
                s.capacity_pages,
                s.procs.len(),
                s.reclaim_rounds_total,
                s.pages_reclaimed_total,
                s.denials_total
            );
            for p in &s.procs {
                println!(
                    "  pid {:<3} {:<16} budget {:>6} soft {:>6} trad {:>6} weight {:>8.1}",
                    p.pid,
                    p.name,
                    p.usage.budget_pages,
                    p.usage.soft_pages,
                    p.usage.traditional_pages,
                    p.weight
                );
            }
        }
    }
}
