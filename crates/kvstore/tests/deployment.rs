//! Full-deployment integration: a unix-socket SMD plus real
//! `kv_server` **subprocesses** sharing one machine's soft memory.
//!
//! This is the paper's Figure-2 situation with nothing simulated on
//! the protocol path: separate OS processes, a daemon socket, TCP
//! clients — only the machine capacity model lives in the daemon.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use softmem_core::MachineMemory;
use softmem_daemon::uds::UdsSmdServer;
use softmem_daemon::{Smd, SmdConfig};

struct KvProc {
    child: Child,
    port: u16,
}

impl Drop for KvProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_kv(socket: &Path, port: u16) -> KvProc {
    let child = Command::new(env!("CARGO_BIN_EXE_kv_server"))
        .args([
            "--smd-socket",
            socket.to_str().expect("utf8"),
            "--listen",
            &format!("127.0.0.1:{port}"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn kv_server");
    // `KvProc::drop` kills and waits on the child in every path.
    let mut proc = KvProc { child, port };
    // Wait for the listener to come up.
    for _ in 0..100 {
        if TcpStream::connect(("127.0.0.1", port)).is_ok() {
            return proc;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = proc.child.kill();
    panic!("kv_server did not come up on port {port}");
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Self {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    }

    fn info_field(&mut self, field: &str) -> u64 {
        let info = self.request("INFO");
        info.trim_start_matches('$')
            .split(';')
            .find_map(|kv| kv.strip_prefix(&format!("{field}:")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("field {field} in {info}"))
    }
}

#[test]
fn two_kv_server_processes_share_one_machine() {
    // 6 MiB of machine soft memory; each server's fill wants ~5 MiB of
    // pages, so the second fill must reclaim from the first process.
    let socket =
        std::env::temp_dir().join(format!("softmem-deploy-test-{}.sock", std::process::id()));
    let machine = MachineMemory::unbounded();
    let smd = Smd::new(SmdConfig::new(&machine, 1536).initial_budget(16));
    let server = UdsSmdServer::bind(smd, &socket).expect("bind daemon");

    let kv1 = spawn_kv(&socket, 18101);
    let kv2 = spawn_kv(&socket, 18102);
    let mut c1 = Client::connect(kv1.port);
    let mut c2 = Client::connect(kv2.port);

    // Server 1 fills most of the machine (~1200 pages of 64 B slots).
    for i in 0..70_000 {
        let reply = c1.request(&format!("SET a{i} {}", "x".repeat(32)));
        assert!(reply.starts_with("+OK"), "{reply}");
    }
    let pages1_before = c1.info_field("soft_pages");
    assert!(pages1_before > 900, "server 1 filled up: {pages1_before}");

    // Server 2's fill forces cross-process reclamation over the
    // daemon socket.
    for i in 0..70_000 {
        let reply = c2.request(&format!("SET b{i} {}", "x".repeat(32)));
        assert!(reply.starts_with("+OK"), "{reply}");
    }
    assert_eq!(c2.info_field("keys"), 70_000);

    let reclaimed1 = c1.info_field("reclaimed_entries");
    let pages1_after = c1.info_field("soft_pages");
    assert!(
        reclaimed1 > 0,
        "server 1 lost entries to reclamation: {reclaimed1}"
    );
    assert!(
        pages1_after < pages1_before,
        "server 1 shrank: {pages1_after} vs {pages1_before}"
    );
    // Both servers still serve traffic.
    assert!(c1.request("GET a69999").starts_with('$'));
    assert!(c2.request("GET b69999").starts_with('$'));

    let stats = server.smd().stats();
    assert!(stats.pages_reclaimed_total > 0);
    assert_eq!(stats.denials_total, 0, "nobody was denied");
    assert!(
        stats.assigned_pages <= stats.capacity_pages,
        "capacity respected"
    );
    let _ = Arc::strong_count(server.smd()); // keep server alive to here
}

#[test]
fn kv_server_survives_peer_death() {
    let socket =
        std::env::temp_dir().join(format!("softmem-deploy-death-{}.sock", std::process::id()));
    let machine = MachineMemory::unbounded();
    let smd = Smd::new(SmdConfig::new(&machine, 512).initial_budget(16));
    let server = UdsSmdServer::bind(smd, &socket).expect("bind daemon");

    let kv1 = spawn_kv(&socket, 18111);
    let mut c1 = Client::connect(kv1.port);
    for i in 0..20_000 {
        assert!(c1.request(&format!("SET a{i} v")).starts_with("+OK"));
    }
    // Kill it without ceremony (no BYE): SIGKILL.
    drop(c1);
    drop(kv1);
    std::thread::sleep(Duration::from_millis(200));

    // A fresh server can take the whole machine; the daemon reaped
    // the corpse's budget.
    let kv2 = spawn_kv(&socket, 18112);
    let mut c2 = Client::connect(kv2.port);
    for i in 0..20_000 {
        assert!(c2.request(&format!("SET b{i} v")).starts_with("+OK"));
    }
    assert_eq!(c2.info_field("keys"), 20_000);
    let stats = server.smd().stats();
    assert!(stats.procs.len() <= 2);
    assert_eq!(stats.denials_total, 0);
}

#[test]
fn kv_server_rejects_bad_flags_instead_of_guessing() {
    // Each of these used to start a server on defaults: a value that
    // does not parse (`4G` silently became 64 MiB), a flag that is not
    // one (the retired `--frontend` included), a flag with no value.
    for (args, complaint) in [
        (&["--budget-mib", "4G"][..], "--budget-mib"),
        (&["--shards", "two"], "--shards"),
        (&["--frontend", "threads"], "--frontend"),
        (&["--budget-mib"], "needs a value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kv_server"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run kv_server");
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: one line: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not start serving");
    }
}
