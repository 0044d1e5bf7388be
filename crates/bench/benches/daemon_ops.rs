//! Criterion bench: daemon request latency across the two deployment
//! modes — the communication cost the paper's case (2) amortises.

use criterion::{criterion_group, criterion_main, Criterion};

use softmem_core::{MachineMemory, SmaConfig};
use softmem_daemon::uds::{UdsProcess, UdsSmdServer};
use softmem_daemon::{Smd, SmdConfig, SoftProcess};

fn bench_request_release_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("daemon_request_release");

    // In-process: a direct method call under the daemon lock.
    {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(SmdConfig::new(&machine, 1 << 20).initial_budget(0));
        let p = SoftProcess::spawn(&smd, "bench").expect("spawn");
        group.bench_function("in_process", |b| {
            b.iter(|| {
                p.request_pages(1).expect("granted");
                p.release_slack(1).expect("released");
            })
        });
    }

    // Unix socket: a real IPC round trip (write + read per call).
    {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(SmdConfig::new(&machine, 1 << 20).initial_budget(0));
        let socket =
            std::env::temp_dir().join(format!("softmem-bench-{}.sock", std::process::id()));
        let server = UdsSmdServer::bind(smd, &socket).expect("bind");
        let p = UdsProcess::connect(&socket, "bench", SmaConfig::for_testing(0)).expect("connect");
        group.bench_function("unix_socket", |b| {
            b.iter(|| {
                p.request_range(1, 1).expect("granted");
                p.release_slack(1).expect("released");
            })
        });
        drop(p);
        drop(server);
    }

    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_request_release_roundtrip
}
criterion_main!(benches);
