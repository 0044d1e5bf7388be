//! A Unix-domain-socket deployment of the Soft Memory Daemon.
//!
//! The paper's SMD is "a machine-wide memory manager for soft memory
//! requests" — a daemon that *separate processes* talk to over IPC.
//! This module provides that deployment: [`UdsSmdServer`] serves an
//! [`Smd`] on a unix socket, and [`UdsProcess`] is the client runtime a
//! process links against (its own [`Sma`], its own address space; only
//! protocol messages cross the socket).
//!
//! ## Protocol (line-oriented text)
//!
//! Request-carrying verbs are tagged with a client-chosen id, echoed in
//! the reply, so a late reply can never be mistaken for the answer to a
//! newer request.
//!
//! Client → daemon:
//!
//! | line | meaning |
//! |---|---|
//! | `REGISTER <id> <name>` | join the machine |
//! | `RECONCILE <id> <name> <held> <slack>` | rejoin after a daemon restart, reporting actual holdings |
//! | `REQUEST <id> <epoch> <need> <want> <held> <slack>` | budget request + usage report |
//! | `RELEASE <id> <pages>` | return budget |
//! | `TRAD <id> <pages>` | report traditional footprint |
//! | `STATS <id>` | telemetry snapshot |
//! | `PING <epoch> <held> <slack>` | lease heartbeat (no reply unless the epoch is stale) |
//! | `YIELD <req-id> <pages> <held> <slack>` | reply to a demand |
//! | `BYE` | deregister |
//!
//! Daemon → client:
//!
//! | line | meaning |
//! |---|---|
//! | `REGISTERED <id> <pid> <pages> <epoch>` | registration/reconcile reply |
//! | `GRANT <id> <pages>` / `DENY <id> <code>` | request reply |
//! | `OK <id> <n>` / `ERR <id> <msg>` | generic replies |
//! | `STATS <id> <json>` | telemetry reply |
//! | `CREDIT <pages>` | budget pushed by the daemon (asynchronous) |
//! | `DEMAND <req-id> <pages>` | reclamation demand (asynchronous) |
//! | `EPOCH <epoch>` | heartbeat carried a stale epoch: reconcile |
//!
//! ## Ordering and consistency
//!
//! Each connection is a FIFO byte stream and the client processes
//! daemon lines on a single reader thread, applying budget grants to
//! its SMA *before* dispatching any later `DEMAND` — preserving the
//! grant-before-demand consistency the in-process mode gets from
//! applying grants under the daemon lock. Demand execution itself runs
//! on a worker thread so a long reclamation never blocks the socket.
//!
//! The daemon cannot inspect a remote process's memory, so usage
//! (held/slack pages) is piggybacked on every `REQUEST`, `PING` and
//! `YIELD`; the weight policies score the last reported values.
//!
//! ## Fault tolerance (leases, epochs, reconciliation)
//!
//! Every daemon incarnation has a distinct *epoch*, stamped on the
//! `REGISTERED` reply and presented back on every `REQUEST` and `PING`.
//! Accounts are *leased*: if [`crate::SmdConfig::lease_ttl`] is set and
//! a connection goes silent for longer, the account is reaped and its
//! budget returns to the pool as a zero-disturbance reclamation source.
//! The client heartbeats on [`UdsClientConfig::heartbeat_interval`] to
//! keep the lease fresh.
//!
//! [`UdsProcess`] supervises its connection: on a socket error, reply
//! timeout, or stale-epoch deny it fails the pending call with
//! [`DenyReason::Degraded`], tears the connection down, and retries
//! with jittered exponential backoff. On reconnect it sends
//! `RECONCILE <name> <held> <slack>` so the (possibly new) daemon
//! re-adopts its *actual* holdings into a fresh account — transient
//! over-commit is resolved by the daemon's normal pressure path, never
//! by trusting ghost ledgers. While disconnected the process runs in
//! *fail-local degraded mode*: the SMA keeps serving from its existing
//! budget and free pool, growth surfaces `Denied(Degraded)` (not
//! `DaemonUnavailable`), and the heartbeat tick voluntarily shrinks
//! slack toward the [`softmem_core::SmaConfig::orphan_budget_pages`]
//! floor so an orphan cannot silently starve the machine.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use softmem_core::budget::Grant;
use softmem_core::error::DenyReason;
use softmem_core::{BudgetSource, Sma, SmaConfig, SoftError, SoftResult};
use softmem_telemetry::{Counter, Gauge, Registry, Snapshot};

use crate::account::{ReclaimChannel, ReclaimReply};
use crate::smd::{Pid, Smd};

/// How long the daemon waits for a client to answer a demand before
/// treating it as yielding nothing (a hung process must not wedge the
/// machine).
const DEMAND_TIMEOUT: Duration = Duration::from_secs(10);

fn uds_debug() -> bool {
    std::env::var_os("SOFTMEM_UDS_DEBUG").is_some()
}

// ---------------------------------------------------------------------
// Daemon side
// ---------------------------------------------------------------------

/// The daemon side of one client connection: implements
/// [`ReclaimChannel`] by exchanging `DEMAND`/`YIELD` lines.
struct RemoteChannel {
    writer: Mutex<UnixStream>,
    /// Last usage report from the client: (held, slack).
    usage: Mutex<(usize, usize)>,
    /// Receive time of the last protocol line (the lease clock).
    /// Touched by the connection reader only — never under the daemon
    /// lock — so lease accounting can never deadlock with a pressure
    /// round that is awaiting this very connection's `YIELD`.
    last_seen: Mutex<Instant>,
    /// In-flight demands awaiting a `YIELD`.
    pending: Mutex<HashMap<u64, SyncSender<usize>>>,
    next_req: AtomicU64,
    /// Set when the client hangs up: demands resolve to zero
    /// immediately instead of riding out the timeout (deregistration
    /// may briefly trail the disconnect, and a pressure round must not
    /// stall on a corpse).
    closed: AtomicBool,
}

impl RemoteChannel {
    fn new(stream: UnixStream) -> Self {
        RemoteChannel {
            writer: Mutex::new(stream),
            usage: Mutex::new((0, 0)),
            last_seen: Mutex::new(Instant::now()),
            pending: Mutex::new(HashMap::new()),
            next_req: AtomicU64::new(1),
            closed: AtomicBool::new(false),
        }
    }

    fn send_line(&self, line: &str) -> std::io::Result<()> {
        let res = {
            let mut w = self.writer.lock();
            w.write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
        };
        if res.is_err() {
            // A failed write means the peer is gone. Mark the channel
            // dead *now* rather than waiting for the connection reader
            // to observe EOF: a pressure round holding the daemon lock
            // may consult `is_alive()` (dead-target retry) before that
            // reader thread ever gets scheduled, and a corpse that
            // still looks alive keeps its phantom budget in the ledger
            // — denying requests on a near-empty machine.
            self.fail_all_pending();
        }
        res
    }

    fn record_usage(&self, held: usize, slack: usize) {
        *self.usage.lock() = (held, slack);
    }

    /// Advances the lease clock. Called by the connection reader on
    /// every received line.
    fn touch(&self) {
        *self.last_seen.lock() = Instant::now();
    }

    fn deliver_yield(&self, req_id: u64, pages: usize) {
        if uds_debug() {
            eprintln!("[daemon] yield {req_id} pages={pages} ch={:p}", self);
        }
        if let Some(tx) = self.pending.lock().remove(&req_id) {
            let _ = tx.send(pages);
        }
    }

    /// Resolves every in-flight demand to zero yield. Called when the
    /// client hangs up, *before* deregistration: a departing client
    /// can never answer, and letting its demands ride out the timeout
    /// would stall the daemon lock for everyone.
    fn fail_all_pending(&self) {
        self.closed.store(true, Ordering::Release);
        for (_, tx) in self.pending.lock().drain() {
            let _ = tx.send(0);
        }
    }
}

impl ReclaimChannel for RemoteChannel {
    fn soft_pages_held(&self) -> usize {
        self.usage.lock().0
    }

    fn slack_pages(&self) -> usize {
        self.usage.lock().1
    }

    fn demand(&self, pages: usize) -> ReclaimReply {
        if self.closed.load(Ordering::Acquire) {
            return ReclaimReply {
                yielded_pages: 0,
                shortfall_pages: pages,
            };
        }
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        if uds_debug() {
            eprintln!("[daemon] demand {req_id} pages={pages} ch={:p}", self);
        }
        let (tx, rx) = sync_channel::<usize>(1);
        self.pending.lock().insert(req_id, tx);
        if self.send_line(&format!("DEMAND {req_id} {pages}")).is_err() {
            self.pending.lock().remove(&req_id);
            return ReclaimReply {
                yielded_pages: 0,
                shortfall_pages: pages,
            };
        }
        let yielded = rx.recv_timeout(DEMAND_TIMEOUT).unwrap_or_else(|_| {
            self.pending.lock().remove(&req_id);
            if uds_debug() {
                eprintln!("[daemon] demand {req_id} TIMED OUT");
            }
            0
        });
        ReclaimReply {
            yielded_pages: yielded,
            shortfall_pages: pages.saturating_sub(yielded),
        }
    }

    fn grant(&self, pages: usize) {
        // Sent over the same FIFO stream as any later DEMAND, and the
        // client's reader applies it before dispatching later lines,
        // so grant-before-demand ordering is preserved end to end.
        let _ = self.send_line(&format!("CREDIT {pages}"));
    }

    fn is_alive(&self) -> bool {
        !self.closed.load(Ordering::Acquire)
    }

    fn last_activity(&self) -> Option<Instant> {
        Some(*self.last_seen.lock())
    }
}

/// A cloneable remote control that severs a [`UdsSmdServer`] the way a
/// crash would: the listener stops accepting, the socket file is
/// removed, and every live connection is cut mid-stream (no `BYE`, no
/// shutdown handshake). Used by the chaos harness to kill a daemon at
/// an arbitrary protocol point; firing twice is a no-op.
#[derive(Clone)]
pub struct UdsKillSwitch {
    inner: Arc<KillInner>,
}

struct KillInner {
    path: PathBuf,
    stop: AtomicBool,
    conns: Mutex<Vec<UnixStream>>,
}

impl UdsKillSwitch {
    /// Severs the server. Safe to call from any thread — including a
    /// daemon-side [`crate::SmdHook`] callback, which is how tests kill
    /// the daemon between the CREDIT and GRANT lines of one request.
    pub fn fire(&self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop *before* removing the socket file (the
        // wake is a connect, which needs the file), then cut every
        // connection. Unix sockets flush buffered bytes on shutdown,
        // so a peer sees everything written before the cut, then EOF.
        let _ = UnixStream::connect(&self.inner.path);
        let _ = std::fs::remove_file(&self.inner.path);
        for conn in self.inner.conns.lock().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Whether [`UdsKillSwitch::fire`] has been called.
    pub fn fired(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }
}

/// A running unix-socket daemon.
pub struct UdsSmdServer {
    kill: UdsKillSwitch,
    accept_thread: Option<JoinHandle<()>>,
    smd: Arc<Smd>,
}

impl UdsSmdServer {
    /// Serves `smd` on a fresh socket at `path` (an existing file at
    /// that path is replaced — which is exactly how a restarted daemon
    /// takes over from a crashed incarnation).
    pub fn bind(smd: Arc<Smd>, path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let kill = UdsKillSwitch {
            inner: Arc::new(KillInner {
                path,
                stop: AtomicBool::new(false),
                conns: Mutex::new(Vec::new()),
            }),
        };
        let smd2 = Arc::clone(&smd);
        let kill2 = kill.clone();
        let accept_thread = std::thread::Builder::new()
            .name("softmem-smd-uds".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if kill2.inner.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    if let Ok(clone) = stream.try_clone() {
                        kill2.inner.conns.lock().push(clone);
                    }
                    let smd = Arc::clone(&smd2);
                    let _ = std::thread::Builder::new()
                        .name("softmem-smd-conn".into())
                        .spawn(move || serve_connection(smd, stream));
                }
            })?;
        Ok(UdsSmdServer {
            kill,
            accept_thread: Some(accept_thread),
            smd,
        })
    }

    /// The socket path clients connect to.
    pub fn path(&self) -> &Path {
        &self.kill.inner.path
    }

    /// The daemon being served.
    pub fn smd(&self) -> &Arc<Smd> {
        &self.smd
    }

    /// A handle that severs this server like a crash (see
    /// [`UdsKillSwitch`]). Dropping the server fires it too.
    pub fn kill_switch(&self) -> UdsKillSwitch {
        self.kill.clone()
    }
}

impl Drop for UdsSmdServer {
    fn drop(&mut self) {
        self.kill.fire();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Reads the next *complete* (newline-terminated) protocol line into
/// `buf`, terminator stripped. Returns `false` on EOF, I/O error, or a
/// truncated final line: a peer that died mid-write must not have its
/// half frame interpreted — acting on `RELEASE 10` out of a truncated
/// `RELEASE 100` would corrupt the budget ledger.
fn read_complete_line(reader: &mut impl BufRead, buf: &mut String) -> bool {
    buf.clear();
    match reader.read_line(buf) {
        Ok(0) | Err(_) => return false,
        Ok(_) => {}
    }
    if !buf.ends_with('\n') {
        return false;
    }
    while buf.ends_with(['\r', '\n']) {
        buf.pop();
    }
    true
}

/// Handles one client connection on the daemon side.
///
/// The reader must never block on daemon work: a `REQUEST` can stall
/// on the SMD lock while *this* client owes a `YIELD` to some other
/// client's in-flight reclamation, and that `YIELD` arrives on this
/// very socket. Blocking verbs therefore run on a worker thread
/// (clients serialise their own requests, so at most one is in flight
/// per connection), while `YIELD`/`PING` routing stays on the reader.
/// For the same reason the lease clock lives on the channel (touched
/// here) rather than in the daemon ledger.
fn serve_connection(smd: Arc<Smd>, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let channel = Arc::new(RemoteChannel::new(write_half));
    let mut pid: Option<Pid> = None;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while read_complete_line(&mut reader, &mut line) {
        if uds_debug() {
            eprintln!("[daemon] rx ch={:p}: {line}", &*channel);
        }
        channel.touch();
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or("");
        let args: Vec<String> = parts.map(|s| s.to_string()).collect();
        match (verb, pid) {
            ("REGISTER", None) => {
                let Some(id) = args.first().and_then(|v| v.parse::<u64>().ok()) else {
                    if channel.send_line("ERR 0 malformed REGISTER").is_err() {
                        break;
                    }
                    continue;
                };
                let name = args.get(1).map(String::as_str).unwrap_or("anonymous");
                let (new_pid, grant) =
                    smd.register(name, Arc::clone(&channel) as Arc<dyn ReclaimChannel>);
                pid = Some(new_pid);
                let epoch = smd.epoch();
                if channel
                    .send_line(&format!("REGISTERED {id} {new_pid} {grant} {epoch}"))
                    .is_err()
                {
                    break;
                }
            }
            ("RECONCILE", None) => {
                let parsed = match args.as_slice() {
                    [id, name, held, slack] => match (id.parse(), held.parse(), slack.parse()) {
                        (Ok(id), Ok(held), Ok(slack)) => Some((id, name.clone(), held, slack)),
                        _ => None,
                    },
                    _ => None,
                };
                let Some((id, name, held, slack)) = parsed else {
                    if channel.send_line("ERR 0 malformed RECONCILE").is_err() {
                        break;
                    }
                    continue;
                };
                let (id, held, slack): (u64, usize, usize) = (id, held, slack);
                channel.record_usage(held, slack);
                // Adopt the client's actual holdings; no CREDIT is
                // pushed (the client already holds that budget).
                let adopted = held + slack;
                let new_pid = smd.register_adopted(
                    &name,
                    Arc::clone(&channel) as Arc<dyn ReclaimChannel>,
                    adopted,
                );
                pid = Some(new_pid);
                let epoch = smd.epoch();
                if channel
                    .send_line(&format!("REGISTERED {id} {new_pid} {adopted} {epoch}"))
                    .is_err()
                {
                    break;
                }
            }
            ("PING", Some(_)) => {
                let parsed = match args.as_slice() {
                    [epoch, held, slack] => {
                        match (epoch.parse::<u64>(), held.parse(), slack.parse()) {
                            (Ok(e), Ok(h), Ok(s)) => Some((e, h, s)),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                let Some((epoch, held, slack)) = parsed else {
                    continue;
                };
                channel.record_usage(held, slack);
                // The line itself refreshed the lease; only a stale
                // epoch needs an answer (tells the client to
                // reconnect + reconcile). No daemon lock here.
                if epoch != smd.epoch()
                    && channel
                        .send_line(&format!("EPOCH {}", smd.epoch()))
                        .is_err()
                {
                    break;
                }
            }
            ("YIELD", Some(_)) => {
                if let Some((req_id, pages, held, slack)) = parse4(&args) {
                    channel.record_usage(held, slack);
                    channel.deliver_yield(req_id as u64, pages);
                } else if channel.send_line("ERR 0 malformed YIELD").is_err() {
                    break;
                }
            }
            ("BYE", _) => break,
            (_, None) => {
                if channel
                    .send_line(&format!("ERR 0 {verb} before REGISTER"))
                    .is_err()
                {
                    break;
                }
            }
            (verb, Some(pid)) => {
                let verb = verb.to_string();
                let smd = Arc::clone(&smd);
                let channel = Arc::clone(&channel);
                let _ = std::thread::Builder::new()
                    .name("softmem-smd-req".into())
                    .spawn(move || {
                        let reply = execute_verb(&smd, pid, &channel, &verb, &args);
                        let _ = channel.send_line(&reply);
                    });
            }
        }
    }
    // Fail in-flight demands first (no daemon lock needed), then
    // deregister (which may have to wait for the current pressure
    // round to finish — quickly, now that its demand has resolved).
    channel.fail_all_pending();
    if let Some(pid) = pid {
        let _ = smd.deregister(pid);
    }
}

/// Executes a potentially-blocking client verb against the daemon.
/// Every reply echoes the request id as its first argument.
fn execute_verb(
    smd: &Smd,
    pid: Pid,
    channel: &RemoteChannel,
    verb: &str,
    args: &[String],
) -> String {
    let Some(id) = args.first().and_then(|v| v.parse::<u64>().ok()) else {
        return format!("ERR 0 malformed {verb}");
    };
    let args = &args[1..];
    match verb {
        "REQUEST" => {
            let parsed = match args {
                [epoch, need, want, held, slack] => {
                    match (
                        epoch.parse::<u64>(),
                        need.parse(),
                        want.parse(),
                        held.parse(),
                        slack.parse(),
                    ) {
                        (Ok(e), Ok(n), Ok(w), Ok(h), Ok(s)) => Some((e, n, w, h, s)),
                        _ => None,
                    }
                }
                _ => None,
            };
            match parsed {
                Some((epoch, need, want, held, slack)) => {
                    if epoch != smd.epoch() {
                        return format!("DENY {id} {}", deny_code(DenyReason::StaleEpoch));
                    }
                    channel.record_usage(held, slack);
                    match smd.request_range(pid, need, want) {
                        Ok(granted) => format!("GRANT {id} {granted}"),
                        Err(SoftError::Denied { reason }) => {
                            format!("DENY {id} {}", deny_code(reason))
                        }
                        // The account was lease-reaped out from under a
                        // live connection: answered like a stale epoch,
                        // so the client funnels into the one recovery
                        // path (reconnect + reconcile).
                        Err(SoftError::UnknownProcess(_)) => {
                            format!("DENY {id} {}", deny_code(DenyReason::StaleEpoch))
                        }
                        Err(e) => format!("ERR {id} {e}"),
                    }
                }
                None => format!("ERR {id} malformed REQUEST"),
            }
        }
        "RELEASE" => match args.first().and_then(|v| v.parse().ok()) {
            Some(pages) => match smd.release_pages(pid, pages) {
                Ok(released) => format!("OK {id} {released}"),
                Err(SoftError::UnknownProcess(_)) => {
                    format!("DENY {id} {}", deny_code(DenyReason::StaleEpoch))
                }
                Err(e) => format!("ERR {id} {e}"),
            },
            None => format!("ERR {id} malformed RELEASE"),
        },
        "TRAD" => match args.first().and_then(|v| v.parse().ok()) {
            Some(pages) => match smd.report_traditional(pid, pages) {
                Ok(()) => format!("OK {id} 0"),
                Err(SoftError::UnknownProcess(_)) => {
                    format!("DENY {id} {}", deny_code(DenyReason::StaleEpoch))
                }
                Err(e) => format!("ERR {id} {e}"),
            },
            None => format!("ERR {id} malformed TRAD"),
        },
        // The telemetry snapshot: one line of whitespace-free JSON, so
        // the line-oriented framing carries it verbatim.
        "STATS" => format!(
            "STATS {id} {}",
            softmem_telemetry::combined_json(&[smd.metrics().snapshot()])
        ),
        other => format!("ERR {id} unknown verb {other}"),
    }
}

fn parse4(args: &[String]) -> Option<(usize, usize, usize, usize)> {
    match args {
        [a, b, c, d] => Some((
            a.parse().ok()?,
            b.parse().ok()?,
            c.parse().ok()?,
            d.parse().ok()?,
        )),
        _ => None,
    }
}

fn deny_code(reason: DenyReason) -> &'static str {
    match reason {
        DenyReason::ReclaimShortfall => "shortfall",
        DenyReason::PerProcessCap => "cap",
        DenyReason::ShuttingDown => "shutdown",
        DenyReason::StaleEpoch => "epoch",
        DenyReason::Degraded => "degraded",
        DenyReason::Injected => "injected",
    }
}

fn parse_deny(code: &str) -> DenyReason {
    match code {
        "cap" => DenyReason::PerProcessCap,
        "shutdown" => DenyReason::ShuttingDown,
        "epoch" => DenyReason::StaleEpoch,
        "degraded" => DenyReason::Degraded,
        "injected" => DenyReason::Injected,
        _ => DenyReason::ReclaimShortfall,
    }
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// Tuning for the client's supervised connection state machine.
#[derive(Debug, Clone)]
pub struct UdsClientConfig {
    /// How often the client sends `PING` while connected (keeps the
    /// daemon-side lease fresh) and sheds slack while degraded.
    pub heartbeat_interval: Duration,
    /// First reconnect backoff after a disconnect.
    pub reconnect_backoff_min: Duration,
    /// Backoff ceiling (doubles up to this, plus jitter).
    pub reconnect_backoff_max: Duration,
    /// How long a request waits for its reply before the connection is
    /// declared wedged and torn down.
    pub request_timeout: Duration,
}

impl Default for UdsClientConfig {
    fn default() -> Self {
        UdsClientConfig {
            heartbeat_interval: Duration::from_millis(200),
            reconnect_backoff_min: Duration::from_millis(20),
            reconnect_backoff_max: Duration::from_secs(1),
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// The client runtime's telemetry (registry label `uds_client`):
/// connection-supervision counters the restart chaos harness asserts
/// on, surfaced through the same registry machinery as every other
/// component (so `render_flat`/`combined_json` pick them up).
pub struct UdsClientMetrics {
    registry: Registry,
    /// Successful reconnect + reconcile cycles.
    pub reconnects_total: Arc<Counter>,
    /// `PING` heartbeats sent.
    pub heartbeats_total: Arc<Counter>,
    /// Stale-epoch signals received (`DENY … epoch` or an `EPOCH`
    /// control line): each one funnels into the reconcile path.
    pub stale_epochs_total: Arc<Counter>,
    /// Replies dropped because their id did not match the waiting
    /// request (a late reply from a previous exchange must never be
    /// delivered to the next request's slot).
    pub mismatched_replies_total: Arc<Counter>,
    /// Total degraded-mode wall time, in milliseconds (ms resolution
    /// so sub-second outages still register; the "degraded seconds"
    /// counter of the fault-tolerance design).
    pub degraded_ms_total: Arc<Counter>,
    /// 1 while the process is disconnected (degraded), else 0.
    pub degraded: Arc<Gauge>,
}

impl UdsClientMetrics {
    fn new() -> Self {
        let registry = Registry::new("uds_client");
        UdsClientMetrics {
            reconnects_total: registry.counter("reconnects_total"),
            heartbeats_total: registry.counter("heartbeats_total"),
            stale_epochs_total: registry.counter("stale_epochs_total"),
            mismatched_replies_total: registry.counter("mismatched_replies_total"),
            degraded_ms_total: registry.counter("degraded_ms_total"),
            degraded: registry.gauge("degraded"),
            registry,
        }
    }

    /// The underlying registry (for snapshots and rendering).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

/// A reply the client-side reader routes to the waiting caller.
#[derive(Debug)]
enum Reply {
    Grant(usize),
    Deny(DenyReason),
    Registered(Pid, usize, u64),
    Ok(usize),
    Err(String),
}

impl Reply {
    /// The `OK <n>` payload, if this is an acknowledgement.
    fn ok_count(&self) -> Option<usize> {
        match self {
            Reply::Ok(n) => Some(*n),
            _ => None,
        }
    }
}

/// One live connection attempt. `gen` distinguishes incarnations so a
/// stale reader (or a late credit from a dead daemon) can never act on
/// a newer connection's state.
struct Conn {
    gen: u64,
    writer: Arc<Mutex<UnixStream>>,
    /// A second handle to the same socket, kept for `shutdown` — the
    /// writer mutex may be held by a blocked write at teardown time.
    raw: UnixStream,
}

struct WaitSlot {
    id: u64,
    tx: SyncSender<Reply>,
}

struct ClientShared {
    sma: Arc<Sma>,
    name: String,
    path: PathBuf,
    ccfg: UdsClientConfig,
    /// Degraded-mode budget floor (from `SmaConfig::orphan_budget_pages`).
    orphan_floor: usize,
    /// The daemon epoch of the current registration.
    epoch: AtomicU64,
    pid: AtomicU64,
    /// Set once the initial registration succeeds: before that,
    /// connection failures are `DaemonUnavailable`; after, `Degraded`.
    registered: AtomicBool,
    shutdown: AtomicBool,
    conn: Mutex<Option<Conn>>,
    /// The single waiting request (requests are serialised by
    /// `request_lock`), tagged with its id so late replies from a
    /// previous exchange are dropped instead of mis-delivered.
    waiting: Mutex<Option<WaitSlot>>,
    /// Serialises request/reply exchanges — including the supervisor's
    /// RECONCILE, so a worker's REQUEST can never interleave with it.
    request_lock: Mutex<()>,
    next_id: AtomicU64,
    next_gen: AtomicU64,
    degraded_since: Mutex<Option<Instant>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Wakes the supervisor after a disconnect (capacity 1: coalesced).
    wake_tx: SyncSender<()>,
    metrics: UdsClientMetrics,
}

impl ClientShared {
    fn current(&self) -> Option<(Arc<Mutex<UnixStream>>, u64)> {
        self.conn
            .lock()
            .as_ref()
            .map(|c| (Arc::clone(&c.writer), c.gen))
    }

    /// Writes one protocol line as a single `write_all` (no interleave
    /// with the heartbeat or a reclaim thread's `YIELD`).
    fn write_to(writer: &Mutex<UnixStream>, line: &str) -> std::io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        writer.lock().write_all(framed.as_bytes())
    }

    /// The error surfaced for daemon-unreachable conditions: before the
    /// first successful registration there is nothing to degrade *to*,
    /// so it is `DaemonUnavailable`; afterwards the process fails local
    /// with `Denied(Degraded)` while the supervisor reconnects.
    fn unreachable_err(&self) -> SoftError {
        if self.registered.load(Ordering::SeqCst) {
            SoftError::Denied {
                reason: DenyReason::Degraded,
            }
        } else {
            SoftError::DaemonUnavailable
        }
    }

    fn clear_slot(&self, id: u64) {
        let mut w = self.waiting.lock();
        if w.as_ref().is_some_and(|s| s.id == id) {
            *w = None;
        }
    }

    /// Sends a request line (built with its assigned id) and waits for
    /// the id-matched reply. Any failure — no connection, write error,
    /// reply timeout — tears the connection down and surfaces
    /// [`ClientShared::unreachable_err`].
    fn call(&self, build: impl FnOnce(u64) -> String) -> SoftResult<Reply> {
        let Some((writer, gen)) = self.current() else {
            return Err(self.unreachable_err());
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = sync_channel(1);
        *self.waiting.lock() = Some(WaitSlot { id, tx });
        if Self::write_to(&writer, &build(id)).is_err() {
            self.clear_slot(id);
            self.mark_disconnected(gen);
            return Err(self.unreachable_err());
        }
        match rx.recv_timeout(self.ccfg.request_timeout) {
            Ok(reply) => Ok(reply),
            Err(_) => {
                self.clear_slot(id);
                self.mark_disconnected(gen);
                Err(self.unreachable_err())
            }
        }
    }

    fn usage(&self) -> (usize, usize) {
        let stats = self.sma.stats();
        (stats.held_pages, stats.slack_pages())
    }

    /// Tears down connection generation `gen` (no-op if a different
    /// generation is current): cuts the socket, fails the pending call
    /// with `Denied(Degraded)`, starts the degraded clock, and wakes
    /// the reconnect supervisor.
    fn mark_disconnected(&self, gen: u64) {
        let conn = {
            let mut guard = self.conn.lock();
            match guard.as_ref() {
                Some(c) if c.gen == gen => guard.take(),
                _ => return,
            }
        };
        if let Some(c) = conn {
            let _ = c.raw.shutdown(std::net::Shutdown::Both);
        }
        if let Some(slot) = self.waiting.lock().take() {
            let _ = slot.tx.send(Reply::Deny(DenyReason::Degraded));
        }
        if !self.shutdown.load(Ordering::SeqCst) {
            {
                let mut since = self.degraded_since.lock();
                if since.is_none() {
                    *since = Some(Instant::now());
                    self.metrics.degraded.set(1);
                }
            }
            let _ = self.wake_tx.try_send(());
        }
    }

    /// Closes out a degraded window (on successful reconcile).
    fn note_degraded_end(&self) {
        if let Some(since) = self.degraded_since.lock().take() {
            let ms = since.elapsed().as_millis().max(1) as u64;
            self.metrics.degraded_ms_total.add(ms);
        }
        self.metrics.degraded.set(0);
    }

    /// Degraded-mode slack shedding: shrink the budget toward
    /// `max(held, orphan_floor)`. Held pages are never revoked locally
    /// (`shrink_budget` only takes slack), so the KV store keeps
    /// serving reads and in-budget writes throughout the outage.
    fn shed_toward_floor(&self) {
        let budget = self.sma.budget_pages();
        let floor = self.sma.held_pages().max(self.orphan_floor);
        if budget > floor {
            self.sma.shrink_budget(budget - floor);
        }
    }
}

/// A process connected to a [`UdsSmdServer`]: its own SMA, budget
/// growth and reclamation demands wired over the socket, and a
/// supervisor that rides out daemon crashes (see the module docs).
pub struct UdsProcess {
    shared: Arc<ClientShared>,
    supervisor: Option<JoinHandle<()>>,
    heartbeat: Option<JoinHandle<()>>,
}

impl UdsProcess {
    /// Connects with default supervision tuning. See
    /// [`UdsProcess::connect_with`].
    pub fn connect(path: impl AsRef<Path>, name: &str, cfg: SmaConfig) -> SoftResult<Arc<Self>> {
        Self::connect_with(path, name, cfg, UdsClientConfig::default())
    }

    /// Connects to the daemon socket at `path` and registers as
    /// `name`, building an SMA from `cfg` (its initial budget is
    /// replaced by the daemon's registration grant). `ccfg` tunes the
    /// heartbeat and reconnect supervision.
    pub fn connect_with(
        path: impl AsRef<Path>,
        name: &str,
        mut cfg: SmaConfig,
        ccfg: UdsClientConfig,
    ) -> SoftResult<Arc<Self>> {
        cfg.initial_budget_pages = 0;
        let orphan_floor = cfg.orphan_budget_pages;
        let sma = Sma::with_config(cfg);
        let (wake_tx, wake_rx) = sync_channel(1);
        let shared = Arc::new(ClientShared {
            sma,
            name: name.to_string(),
            path: path.as_ref().to_path_buf(),
            ccfg,
            orphan_floor,
            epoch: AtomicU64::new(0),
            pid: AtomicU64::new(0),
            registered: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            conn: Mutex::new(None),
            waiting: Mutex::new(None),
            request_lock: Mutex::new(()),
            next_id: AtomicU64::new(1),
            next_gen: AtomicU64::new(1),
            degraded_since: Mutex::new(None),
            readers: Mutex::new(Vec::new()),
            wake_tx,
            metrics: UdsClientMetrics::new(),
        });

        if !open_connection(&shared) {
            return Err(SoftError::DaemonUnavailable);
        }
        let reg_name = shared.name.clone();
        let reply = shared.call(|id| format!("REGISTER {id} {reg_name}"))?;
        let Reply::Registered(pid, _grant, epoch) = reply else {
            if let Some((_, gen)) = shared.current() {
                shared.mark_disconnected(gen);
            }
            return Err(SoftError::DaemonUnavailable);
        };
        // The registration grant was already applied by the reader (the
        // daemon sends it as a CREDIT line ahead of REGISTERED).
        shared.pid.store(pid, Ordering::SeqCst);
        shared.epoch.store(epoch, Ordering::SeqCst);
        shared.registered.store(true, Ordering::SeqCst);

        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("softmem-uds-supervisor".into())
                .spawn(move || supervisor_loop(shared, wake_rx))
                .map_err(|_| SoftError::DaemonUnavailable)?
        };
        let heartbeat = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("softmem-uds-heartbeat".into())
                .spawn(move || heartbeat_loop(shared))
                .map_err(|_| SoftError::DaemonUnavailable)?
        };

        let process = Arc::new(UdsProcess {
            shared: Arc::clone(&shared),
            supervisor: Some(supervisor),
            heartbeat: Some(heartbeat),
        });
        let source = UdsBudgetSource {
            process: Arc::downgrade(&process),
        };
        process.shared.sma.set_budget_source(Arc::new(source));
        Ok(process)
    }

    /// The process's allocator.
    pub fn sma(&self) -> &Arc<Sma> {
        &self.shared.sma
    }

    /// The daemon-assigned pid (changes after a reconcile: the new
    /// daemon assigns a fresh account).
    pub fn pid(&self) -> Pid {
        self.shared.pid.load(Ordering::SeqCst)
    }

    /// The registration name (stable across reconciles).
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The daemon epoch of the current registration.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Whether the process is currently in fail-local degraded mode
    /// (disconnected; the supervisor is retrying in the background).
    pub fn is_degraded(&self) -> bool {
        self.shared.conn.lock().is_none()
    }

    /// Connection-supervision telemetry.
    pub fn metrics(&self) -> &UdsClientMetrics {
        &self.shared.metrics
    }

    /// Requests `need..=want` budget pages over the socket. The grant
    /// is applied to the SMA before this returns. While degraded this
    /// fails local with `Denied(Degraded)` — the SMA keeps serving
    /// in-budget work from what it already has.
    pub fn request_range(&self, need: usize, want: usize) -> SoftResult<usize> {
        let _serial = self.shared.request_lock.lock();
        let (held, slack) = self.shared.usage();
        let epoch = self.shared.epoch.load(Ordering::SeqCst);
        let reply = self
            .shared
            .call(|id| format!("REQUEST {id} {epoch} {need} {want} {held} {slack}"))?;
        match reply {
            // The grant was already applied by the reader: the daemon
            // pushes every grant as a CREDIT line, which precedes the
            // GRANT reply on the FIFO stream. Only report the count.
            Reply::Grant(pages) => Ok(pages),
            Reply::Deny(DenyReason::StaleEpoch) => Err(self.shared.stale_epoch()),
            Reply::Deny(reason) => Err(SoftError::Denied { reason }),
            Reply::Err(msg) => {
                if uds_debug() {
                    eprintln!("[client] daemon error reply: {msg}");
                }
                Err(self.shared.unreachable_err())
            }
            Reply::Registered(..) | Reply::Ok(_) => Err(self.shared.unreachable_err()),
        }
    }

    /// Reports the process's traditional footprint.
    pub fn report_traditional(&self, pages: usize) -> SoftResult<()> {
        let _serial = self.shared.request_lock.lock();
        match self.shared.call(|id| format!("TRAD {id} {pages}"))? {
            Reply::Ok(_) => Ok(()),
            Reply::Deny(DenyReason::StaleEpoch) => Err(self.shared.stale_epoch()),
            _ => Err(self.shared.unreachable_err()),
        }
    }

    /// Returns up to `pages` of unused budget to the daemon. The local
    /// shrink always sticks; if the daemon is unreachable (or the
    /// account was reaped) the release still counts — the next
    /// reconcile reports post-shrink holdings, squaring the ledger.
    pub fn release_slack(&self, pages: usize) -> SoftResult<usize> {
        let shed = self.shared.sma.shrink_budget(pages);
        if shed > 0 {
            let _serial = self.shared.request_lock.lock();
            match self.shared.call(|id| format!("RELEASE {id} {shed}")) {
                Ok(reply) if reply.ok_count().is_some() => return Ok(shed),
                Ok(Reply::Deny(DenyReason::StaleEpoch)) => {
                    let _ = self.shared.stale_epoch();
                    return Ok(shed);
                }
                _ => return Ok(shed),
            }
        }
        Ok(0)
    }
}

impl ClientShared {
    /// Handles a stale-epoch deny: counts it, tears the connection down
    /// (funnelling into the reconnect + reconcile path), and returns
    /// the error the caller should surface. The *request* is reported
    /// as degraded, not as a policy denial — the budget ask was never
    /// evaluated.
    fn stale_epoch(&self) -> SoftError {
        self.metrics.stale_epochs_total.add(1);
        if let Some((_, gen)) = self.current() {
            self.mark_disconnected(gen);
        }
        self.unreachable_err()
    }
}

impl Drop for UdsProcess {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.sma.clear_budget_source();
        // Polite BYE if connected, then cut the socket either way.
        if let Some((writer, _)) = self.shared.current() {
            let _ = ClientShared::write_to(&writer, "BYE");
        }
        if let Some(c) = self.shared.conn.lock().take() {
            let _ = c.raw.shutdown(std::net::Shutdown::Both);
        }
        let _ = self.shared.wake_tx.try_send(());
        if let Some(t) = self.supervisor.take() {
            let _ = t.join();
        }
        if let Some(t) = self.heartbeat.take() {
            let _ = t.join();
        }
        // Readers exit on their (now shut) streams' EOF.
        let handles: Vec<_> = self.shared.readers.lock().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }
}

/// Opens a socket to the daemon, installs it as the current connection
/// generation, and spawns its reader. Returns `false` if the connect
/// itself failed (the socket file is missing while the daemon is down).
fn open_connection(shared: &Arc<ClientShared>) -> bool {
    let Ok(stream) = UnixStream::connect(&shared.path) else {
        return false;
    };
    let (Ok(write_half), Ok(raw)) = (stream.try_clone(), stream.try_clone()) else {
        return false;
    };
    let gen = shared.next_gen.fetch_add(1, Ordering::Relaxed);
    *shared.conn.lock() = Some(Conn {
        gen,
        writer: Arc::new(Mutex::new(write_half)),
        raw,
    });
    let reader_shared = Arc::clone(shared);
    match std::thread::Builder::new()
        .name("softmem-uds-client".into())
        .spawn(move || client_reader(reader_shared, stream, gen))
    {
        Ok(handle) => {
            shared.readers.lock().push(handle);
            true
        }
        Err(_) => {
            *shared.conn.lock() = None;
            false
        }
    }
}

/// One reconnect attempt: open a fresh connection and `RECONCILE` the
/// SMA's actual holdings into a fresh account on the (possibly new)
/// daemon. Called with `request_lock` held, so no REQUEST can
/// interleave with the handshake.
fn try_reconnect(shared: &Arc<ClientShared>) -> bool {
    if !open_connection(shared) {
        return false;
    }
    let (held, slack) = shared.usage();
    let name = shared.name.clone();
    match shared.call(|id| format!("RECONCILE {id} {name} {held} {slack}")) {
        Ok(Reply::Registered(pid, _adopted, epoch)) => {
            shared.pid.store(pid, Ordering::SeqCst);
            shared.epoch.store(epoch, Ordering::SeqCst);
            shared.metrics.reconnects_total.add(1);
            shared.note_degraded_end();
            true
        }
        _ => {
            if let Some((_, gen)) = shared.current() {
                shared.mark_disconnected(gen);
            }
            false
        }
    }
}

/// Sleeps in small slices so shutdown stays prompt.
fn interruptible_sleep(shared: &ClientShared, total: Duration) {
    let mut remaining = total;
    while remaining > Duration::ZERO && !shared.shutdown.load(Ordering::SeqCst) {
        let slice = remaining.min(Duration::from_millis(20));
        std::thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

/// A tiny deterministic xorshift for backoff jitter (no external RNG
/// dependency; seeded from the process name so two clients of the same
/// daemon don't reconnect in lockstep).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// The reconnect supervisor: woken on disconnect, it retries with
/// jittered exponential backoff until a reconcile succeeds (or the
/// process shuts down). The whole attempt runs under `request_lock`.
fn supervisor_loop(shared: Arc<ClientShared>, wake_rx: Receiver<()>) {
    let seed = shared.name.bytes().fold(0x9e37_79b9_7f4a_7c15u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    });
    let mut rng = XorShift::new(seed);
    loop {
        if wake_rx.recv().is_err() || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.conn.lock().is_some() {
            continue; // spurious/coalesced wake
        }
        let mut backoff = shared.ccfg.reconnect_backoff_min;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let reconciled = {
                let _serial = shared.request_lock.lock();
                try_reconnect(&shared)
            };
            if reconciled {
                break;
            }
            let jitter_ns = rng.next() % (backoff.as_nanos() as u64 / 2 + 1);
            interruptible_sleep(&shared, backoff + Duration::from_nanos(jitter_ns));
            backoff = (backoff * 2).min(shared.ccfg.reconnect_backoff_max);
        }
    }
}

/// The heartbeat: `PING <epoch> <held> <slack>` while connected (keeps
/// the lease fresh and the usage report current); while degraded, each
/// tick sheds slack toward the orphan floor instead.
fn heartbeat_loop(shared: Arc<ClientShared>) {
    loop {
        interruptible_sleep(&shared, shared.ccfg.heartbeat_interval);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some((writer, gen)) = shared.current() {
            let (held, slack) = shared.usage();
            let epoch = shared.epoch.load(Ordering::SeqCst);
            if ClientShared::write_to(&writer, &format!("PING {epoch} {held} {slack}")).is_err() {
                shared.mark_disconnected(gen);
            } else {
                shared.metrics.heartbeats_total.add(1);
            }
        } else {
            shared.shed_toward_floor();
        }
    }
}

/// The client's reader loop: one thread per connection generation,
/// in-order processing. Credits apply only while this generation is
/// current — a credit from a dead daemon landing after a reconcile
/// would inflate the local budget above the new daemon's ledger.
fn client_reader(shared: Arc<ClientShared>, stream: UnixStream, gen: u64) {
    let writer = shared
        .conn
        .lock()
        .as_ref()
        .filter(|c| c.gen == gen)
        .map(|c| Arc::clone(&c.writer));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while read_complete_line(&mut reader, &mut line) {
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or("");
        let args: Vec<&str> = parts.collect();
        match verb {
            // Budget pushed by the daemon (e.g. ahead of a DEMAND):
            // applied here, in stream order, before any later line.
            "CREDIT" => {
                let current = shared.conn.lock().as_ref().is_some_and(|c| c.gen == gen);
                if let (true, Some(pages)) = (current, args.first().and_then(|v| v.parse().ok())) {
                    shared.sma.grow_budget(pages);
                }
            }
            "DEMAND" => {
                if uds_debug() {
                    eprintln!("[client] got DEMAND {args:?}");
                }
                let (Some(req_id), Some(pages)) = (
                    args.first().and_then(|v| v.parse::<u64>().ok()),
                    args.get(1).and_then(|v| v.parse::<usize>().ok()),
                ) else {
                    continue;
                };
                // Run the reclamation off-thread so a slow callback
                // never blocks credit/reply processing. The YIELD goes
                // back on *this* connection's writer: the req-id means
                // nothing to any other daemon incarnation.
                let Some(writer) = writer.as_ref().map(Arc::clone) else {
                    continue;
                };
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("softmem-uds-reclaim".into())
                    .spawn(move || {
                        let report = shared.sma.reclaim(pages);
                        let (held, slack) = shared.usage();
                        let _ = ClientShared::write_to(
                            &writer,
                            &format!("YIELD {req_id} {} {held} {slack}", report.total_yielded()),
                        );
                    });
            }
            // The daemon answered a heartbeat with its (newer) epoch:
            // this registration is stale; reconcile.
            "EPOCH" => {
                shared.metrics.stale_epochs_total.add(1);
                shared.mark_disconnected(gen);
            }
            "GRANT" | "DENY" | "REGISTERED" | "OK" | "ERR" | "STATS" => {
                let Some(id) = args.first().and_then(|v| v.parse::<u64>().ok()) else {
                    continue;
                };
                let body = &args[1..];
                let reply = match verb {
                    "GRANT" => body.first().and_then(|v| v.parse().ok()).map(Reply::Grant),
                    "DENY" => Some(Reply::Deny(parse_deny(body.first().copied().unwrap_or("")))),
                    "REGISTERED" => match (
                        body.first().and_then(|v| v.parse().ok()),
                        body.get(1).and_then(|v| v.parse().ok()),
                        body.get(2).and_then(|v| v.parse().ok()),
                    ) {
                        (Some(pid), Some(pages), Some(epoch)) => {
                            Some(Reply::Registered(pid, pages, epoch))
                        }
                        _ => None,
                    },
                    "OK" => Some(Reply::Ok(
                        body.first().and_then(|v| v.parse().ok()).unwrap_or(0),
                    )),
                    "ERR" | "STATS" => Some(Reply::Err(body.join(" "))),
                    _ => None,
                };
                let Some(reply) = reply else { continue };
                // Id-matched routing: a reply must answer the waiting
                // request, not whichever request happens to be waiting
                // now. Mismatches (late replies from a timed-out or
                // torn-down exchange) are counted and dropped.
                let slot = {
                    let mut w = shared.waiting.lock();
                    if w.as_ref().is_some_and(|s| s.id == id) {
                        w.take()
                    } else {
                        None
                    }
                };
                match slot {
                    Some(slot) => {
                        let _ = slot.tx.send(reply);
                    }
                    None => {
                        shared.metrics.mismatched_replies_total.add(1);
                    }
                }
            }
            _ => {}
        }
    }
    shared.mark_disconnected(gen);
}

/// Budget source wiring alloc-time growth to the socket.
struct UdsBudgetSource {
    process: std::sync::Weak<UdsProcess>,
}

impl BudgetSource for UdsBudgetSource {
    fn grant_more(&self, need: usize, want: usize) -> SoftResult<Grant> {
        let process = self.process.upgrade().ok_or(SoftError::DaemonUnavailable)?;
        // `request_range` applies the grant to the SMA itself.
        process.request_range(need, want).map(Grant::applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softmem_core::{MachineMemory, Priority};
    use softmem_sds::SoftQueue;

    use crate::smd::SmdConfig;

    fn socket_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "softmem-uds-test-{tag}-{}.sock",
            std::process::id()
        ));
        p
    }

    fn server(tag: &str, capacity: usize) -> (UdsSmdServer, PathBuf) {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(SmdConfig::new(&machine, capacity).initial_budget(4));
        let path = socket_path(tag);
        let server = UdsSmdServer::bind(smd, &path).expect("bind socket");
        (server, path)
    }

    fn client(path: &Path, name: &str) -> Arc<UdsProcess> {
        UdsProcess::connect(path, name, SmaConfig::for_testing(0)).expect("connect")
    }

    /// Supervision tuned for tests: fast heartbeats, fast reconnects.
    fn fast_ccfg() -> UdsClientConfig {
        UdsClientConfig {
            heartbeat_interval: Duration::from_millis(20),
            reconnect_backoff_min: Duration::from_millis(5),
            reconnect_backoff_max: Duration::from_millis(40),
            request_timeout: Duration::from_secs(5),
        }
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        for _ in 0..1000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for: {what}");
    }

    #[test]
    fn register_and_grow_over_the_socket() {
        let (_server, path) = server("grow", 128);
        let p = client(&path, "svc");
        assert_eq!(p.sma().budget_pages(), 4, "registration grant applied");
        let sds = p.sma().register_sds("data", Priority::default());
        for _ in 0..32 {
            p.sma().alloc_bytes(sds, 4096).expect("daemon grows budget");
        }
        assert!(p.sma().budget_pages() >= 32);
    }

    #[test]
    fn cross_process_reclaim_over_the_socket() {
        let (server, path) = server("reclaim", 64);
        let a = client(&path, "a");
        let b = client(&path, "b");
        let qa: SoftQueue<[u8; 4096]> = SoftQueue::new(a.sma(), "qa", Priority::new(1));
        for _ in 0..60 {
            qa.push([1u8; 4096]).expect("fits capacity");
        }
        // B's demand exceeds what is unassigned: the daemon sends A a
        // DEMAND over the socket; A's reader reclaims and YIELDs.
        let qb: SoftQueue<[u8; 4096]> = SoftQueue::new(b.sma(), "qb", Priority::new(1));
        for _ in 0..32 {
            qb.push([2u8; 4096]).expect("reclamation frees room");
        }
        assert_eq!(qb.len(), 32);
        assert!(qa.len() < 60, "A was reclaimed from: {}", qa.len());
        assert!(server.smd().stats().pages_reclaimed_total > 0);
    }

    #[test]
    fn explicit_request_release_and_trad() {
        let (server, path) = server("api", 64);
        let p = client(&path, "svc");
        assert_eq!(p.request_range(10, 10).expect("capacity free"), 10);
        assert_eq!(p.sma().budget_pages(), 14);
        p.report_traditional(40).expect("reported");
        assert_eq!(server.smd().stats().procs[0].usage.traditional_pages, 40);
        let released = p.release_slack(usize::MAX).expect("released");
        assert_eq!(released, 14);
        assert_eq!(server.smd().stats().assigned_pages, 0);
    }

    #[test]
    fn denial_travels_back_over_the_socket() {
        let (_server, path) = server("deny", 8);
        let p = client(&path, "greedy");
        let err = p.request_range(64, 64).unwrap_err();
        assert_eq!(
            err,
            SoftError::Denied {
                reason: DenyReason::ReclaimShortfall
            }
        );
    }

    #[test]
    fn disconnect_deregisters() {
        let (server, path) = server("bye", 64);
        {
            let p = client(&path, "transient");
            p.request_range(16, 16).expect("granted");
            assert_eq!(server.smd().stats().procs.len(), 1);
        }
        // Drop sent BYE; the daemon connection thread deregisters.
        wait_until("deregistration", || server.smd().stats().procs.is_empty());
        assert_eq!(server.smd().stats().assigned_pages, 0);
    }

    #[test]
    fn crashed_client_without_bye_is_reaped() {
        // A client that dies abruptly (no BYE — think SIGKILL) must
        // not wedge the machine: its connection EOFs, its channel is
        // marked dead, and the next pressure round reaps its budget.
        let (server, path) = server("crash", 64);
        let epoch = server.smd().epoch();
        {
            // Raw socket: register, grab budget, then vanish.
            let mut raw = UnixStream::connect(&path).expect("connect");
            raw.write_all(b"REGISTER 1 doomed\n").expect("write");
            let mut reader = BufReader::new(raw.try_clone().expect("clone"));
            let mut line = String::new();
            while !line.starts_with("REGISTERED") {
                line.clear();
                assert!(reader.read_line(&mut line).expect("read") > 0);
            }
            raw.write_all(format!("REQUEST 2 {epoch} 40 40 0 0\n").as_bytes())
                .expect("write");
            line.clear();
            while !line.starts_with("GRANT") {
                line.clear();
                assert!(reader.read_line(&mut line).expect("read") > 0);
            }
            assert_eq!(server.smd().stats().assigned_pages, 44);
            // Dropped here: abrupt close, no BYE.
        }
        // A healthy client can still get the whole machine.
        let p = client(&path, "survivor");
        assert_eq!(p.request_range(60, 60).expect("reaped the corpse"), 60);
        assert!(server.smd().stats().procs.len() <= 2);
    }

    #[test]
    fn client_crashing_mid_demand_does_not_wedge_the_round() {
        // The victim dies *while* a demand to it is in flight: the
        // daemon's connection reader EOFs, fails the pending demand to
        // zero, and the requester is served after the reap retry.
        let (server, path) = server("middemand", 64);
        let epoch = server.smd().epoch();
        let victim = std::thread::spawn({
            let path = path.clone();
            move || {
                let mut raw = UnixStream::connect(&path).expect("connect");
                raw.write_all(b"REGISTER 1 victim\n").expect("write");
                let mut reader = BufReader::new(raw.try_clone().expect("clone"));
                let mut line = String::new();
                while !line.starts_with("REGISTERED") {
                    line.clear();
                    assert!(reader.read_line(&mut line).expect("read") > 0);
                }
                raw.write_all(format!("REQUEST 2 {epoch} 56 56 0 0\n").as_bytes())
                    .expect("write");
                // Read CREDIT + GRANT, then wait for the DEMAND and die.
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    if line.starts_with("DEMAND") {
                        return; // drop both halves: simulated crash
                    }
                }
            }
        });
        wait_until("victim holds budget", || {
            server.smd().stats().assigned_pages == 60
        });
        let p = client(&path, "requester");
        // Needs more than the 0 unassigned pages: triggers a demand to
        // the victim, which crashes instead of yielding.
        let granted = p.request_range(32, 32).expect("served after the reap");
        assert_eq!(granted, 32);
        victim.join().expect("victim thread exits");
    }

    #[test]
    fn concurrent_clients_hammer_the_socket_daemon() {
        let (server, path) = server("hammer", 256);
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let path = path.clone();
            handles.push(std::thread::spawn(move || {
                let p = client(&path, &format!("p{t}"));
                let q: SoftQueue<[u8; 1024]> =
                    SoftQueue::new(p.sma(), "q", Priority::new(t as u32));
                for i in 0..300 {
                    q.push([t; 1024]).expect("daemon serves everyone");
                    if i % 4 == 0 {
                        q.pop();
                    }
                }
                q.len()
            }));
        }
        for h in handles {
            // 300 pushes − 75 pops = 225, minus whatever machine-wide
            // reclamation took from this queue along the way.
            let len = h.join().expect("no panics");
            assert!(len > 0 && len <= 225, "len={len}");
        }
        assert!(server.smd().stats().grants_total > 0);
    }

    #[test]
    fn daemon_restart_reconciles_budget() {
        let machine = MachineMemory::unbounded();
        let path = socket_path("restart");
        let server = UdsSmdServer::bind(
            Smd::new(SmdConfig::new(&machine, 128).initial_budget(4)),
            &path,
        )
        .expect("bind");
        let p = UdsProcess::connect_with(&path, "svc", SmaConfig::for_testing(0), fast_ccfg())
            .expect("connect");
        let sds = p.sma().register_sds("data", Priority::default());
        for _ in 0..16 {
            p.sma().alloc_bytes(sds, 4096).expect("grown");
        }
        let held_before = p.sma().held_pages();
        let epoch1 = p.epoch();
        drop(server); // crash: connections cut mid-stream, socket unlinked

        // A new incarnation takes over the same socket path.
        let server2 = UdsSmdServer::bind(
            Smd::new(SmdConfig::new(&machine, 128).initial_budget(4)),
            &path,
        )
        .expect("rebind");
        wait_until("reconcile onto the new daemon", || {
            !p.is_degraded() && p.epoch() != epoch1
        });
        assert!(p.metrics().reconnects_total.get() >= 1);

        // The new daemon adopted the client's *actual* holdings — no
        // pages lost, no ghost ledger, exactly one account.
        let stats = server2.smd().stats();
        assert_eq!(stats.reconciles_total, 1);
        assert!(stats.reconcile_adopted_pages_total as usize >= held_before);
        assert_eq!(stats.procs.len(), 1);
        assert!(stats.assigned_pages <= 128, "conservation across restart");

        // And the adopted account is fully usable: growth resumes.
        for _ in 0..16 {
            p.sma().alloc_bytes(sds, 4096).expect("grows on new daemon");
        }
        assert!(p.sma().held_pages() >= 32);
    }

    #[test]
    fn degraded_mode_serves_in_budget_and_sheds_slack() {
        let (server, path) = server("degraded", 128);
        let p = UdsProcess::connect_with(
            &path,
            "svc",
            SmaConfig::for_testing(0).orphan_budget(2),
            fast_ccfg(),
        )
        .expect("connect");
        let sds = p.sma().register_sds("data", Priority::default());
        p.request_range(24, 24).expect("headroom");
        for _ in 0..8 {
            p.sma().alloc_bytes(sds, 4096).expect("in budget");
        }
        drop(server); // daemon dies and never comes back
        wait_until("degraded mode entered", || p.is_degraded());

        // Fail-local: in-budget allocations keep serving from the
        // existing budget + free pool, without any daemon round trip.
        p.sma()
            .alloc_bytes(sds, 4096)
            .expect("in-budget alloc while degraded");

        // Growth fails local with Degraded — not DaemonUnavailable.
        let err = p.request_range(1000, 1000).unwrap_err();
        assert_eq!(
            err,
            SoftError::Denied {
                reason: DenyReason::Degraded
            }
        );
        assert_eq!(p.metrics().degraded.get(), 1);

        // Heartbeat ticks shed slack toward max(held, orphan_floor):
        // an orphan must not silently starve the machine.
        wait_until("slack shed toward the orphan floor", || {
            p.sma().budget_pages() <= p.sma().held_pages().max(2)
        });
        // Held pages were never revoked locally.
        assert_eq!(p.sma().held_pages(), 9);
    }

    #[test]
    fn lease_reaped_account_recovers_by_reconcile() {
        let machine = MachineMemory::unbounded();
        let path = socket_path("lease");
        let smd = Smd::new(
            SmdConfig::new(&machine, 64)
                .initial_budget(4)
                .lease_ttl(Duration::from_millis(50)),
        );
        let server = UdsSmdServer::bind(smd, &path).expect("bind");
        // A client whose heartbeat is far slower than the TTL: its
        // lease lapses between beats.
        let mut ccfg = fast_ccfg();
        ccfg.heartbeat_interval = Duration::from_secs(3600);
        let p = UdsProcess::connect_with(&path, "sleepy", SmaConfig::for_testing(0), ccfg)
            .expect("connect");
        p.request_range(8, 8).expect("granted");
        std::thread::sleep(Duration::from_millis(120)); // lease lapses

        // Another client's request runs the reap sweep.
        let fresh = client(&path, "fresh");
        fresh.request_range(8, 8).expect("granted");
        assert!(server.smd().stats().lease_expiries_total >= 1);

        // The sleepy client's next request hits the reaped account: a
        // stale-epoch deny, surfaced as Degraded (the budget ask was
        // never evaluated) and funnelled into reconnect + reconcile.
        let err = p.request_range(4, 4).unwrap_err();
        assert_eq!(
            err,
            SoftError::Denied {
                reason: DenyReason::Degraded
            }
        );
        assert!(p.metrics().stale_epochs_total.get() >= 1);
        wait_until("reconcile after the lease reap", || {
            !p.is_degraded() && server.smd().stats().reconciles_total >= 1
        });
        assert_eq!(p.request_range(4, 4).expect("recovered"), 4);
    }

    #[test]
    fn mismatched_replies_are_dropped_not_misdelivered() {
        // A scripted fake daemon answers the first REQUEST with a
        // wrong-id GRANT before the real one: the client must drop the
        // impostor (counting it) and deliver only the id-matched reply.
        let path = socket_path("mismatch");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut w = stream;
            let mut line = String::new();
            reader.read_line(&mut line).expect("REGISTER");
            let id: u64 = line
                .split_whitespace()
                .nth(1)
                .and_then(|v| v.parse().ok())
                .expect("register id");
            w.write_all(format!("CREDIT 4\nREGISTERED {id} 1 4 7\n").as_bytes())
                .expect("write");
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                if line.starts_with("REQUEST") {
                    let id: u64 = line
                        .split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse().ok())
                        .expect("request id");
                    w.write_all(format!("GRANT 999999 7\nCREDIT 8\nGRANT {id} 8\n").as_bytes())
                        .expect("write");
                    return;
                }
                // Ignore PINGs.
            }
        });
        let p = UdsProcess::connect_with(&path, "svc", SmaConfig::for_testing(0), fast_ccfg())
            .expect("connect");
        assert_eq!(p.request_range(8, 8).expect("real grant delivered"), 8);
        assert_eq!(p.metrics().mismatched_replies_total.get(), 1);
        assert_eq!(p.sma().budget_pages(), 12);
        fake.join().expect("fake daemon exits");
    }
}
