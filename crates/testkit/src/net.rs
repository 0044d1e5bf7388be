//! The network-plane driver: real sockets against a live
//! [`ReactorFrontend`] inside a scenario run.
//!
//! Scenarios that carry a [`NetSpec`] get one extra barrier
//! participant: this driver. It owns a dedicated soft process and
//! sharded engine (created by the runner so the invariant checker
//! sweeps them like any other process), binds a reactor frontend over
//! it, and drives a [`Swarm`] of multiplexed clients through every
//! phase — including deliberately misbehaving ones (slow readers that
//! stop reading mid-pipeline, mass disconnect waves).
//!
//! Before parking at each phase-exit barrier the driver runs the
//! **quiesce protocol**: drain the swarm, then wait until the plane's
//! conservation counters are stable and balanced
//! (`requests_total == replies_total`, no parked frames, and the
//! request counter unchanged across a settle window). Only then is the
//! engine guaranteed unmutated while the checker sweeps, and only then
//! are the plane's own [`InvariantFamily::NetworkPlane`] laws judged:
//!
//! * quiescence is reached within the timeout (no wedged worker);
//! * `open_conns` converges to the swarm's live client count;
//! * no connection's write buffer ever exceeded
//!   `write_highwater + in-flight window` — a slow reader costs
//!   bounded memory;
//! * a scenario with stalled clients must actually trip the pause
//!   machinery (`paused_reads_total > 0`), proving the bound above was
//!   enforced rather than never exercised;
//! * at teardown every accepted fd was closed (`accepted == closed`,
//!   `open_conns == 0`) — no fd leak through the disconnect waves.
//!
//! Scenarios whose [`NetSpec`] carries a
//! [`crate::fault::NetChaos`] plan additionally storm the plane with
//! syscall faults ([`crate::fault::ChaosSysIo`]), connection
//! deadlines, overload limits, and injected worker panics
//! ([`crate::fault::PanicEvery`]); the driver then:
//!
//! * checks the **reply ledger** at every quiescent point — every
//!   reply traces to exactly one origin
//!   (`replies == executed + shed + fatal + discarded + panic-failed`),
//!   so every offered request is accounted as completed, shed, or
//!   closed;
//! * tolerates client-side I/O errors and server-side closes only
//!   when the plan is *disruptive* (resets/deadlines) — sheds and
//!   worker panics must answer on a healthy connection;
//! * turns each `expect_*` flag into a violation if the counter it
//!   names stayed zero — a clean verdict proves the machinery fired;
//! * cross-checks the plane's telemetry mirrors
//!   ([`softmem_kv::NetMetrics`]) against the [`NetStats`] ground
//!   truth under [`InvariantFamily::MetricsConsistency`].
//!
//! [`NetSpec`]: crate::scenario::NetSpec

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use softmem_kv::{NetStats, ReactorConfig, ReactorFrontend, RunOpts, ShardedStore, Swarm};
use softmem_telemetry::MetricValue;

use crate::fault::{ChaosSysIo, PanicEvery};
use crate::invariants::{InvariantFamily, Violation};
use crate::scenario::ScenarioSpec;

/// In-flight cap the driver configures per connection. Small, so the
/// write-buffer overshoot bound (`cap × max reply size`) stays far
/// below what a broken-backpressure plane would accumulate.
const MAX_INFLIGHT: usize = 16;
/// Kernel socket buffer request for the backpressure path (the kernel
/// doubles and clamps this). Keeping both sides tiny moves reply
/// buffering out of the kernel and into the server's write buffer,
/// where the high-water machinery can see it.
const SOCK_BUF: usize = 4096;
/// Payload of the fat value slow readers hammer.
const FAT_LEN: usize = 2048;
/// Every reply to this workload fits well under this many bytes
/// (fat GET = value + framing); used for the overshoot bound.
const MAX_REPLY: usize = FAT_LEN + 64;

/// What the driver hands back to the runner.
pub(crate) struct NetOut {
    pub violations: Vec<Violation>,
    /// Frames the plane sequenced (server-side ground truth).
    pub requests: u64,
    /// Replies the plane accounted (== requests once quiescent).
    pub replies: u64,
    /// Connections evicted by the deadline reaper.
    pub deadline_closes: u64,
    /// Requests answered `ERR overloaded`.
    pub sheds: u64,
    /// Shard workers restarted by the panic supervisor.
    pub worker_restarts: u64,
    /// Syscall faults the chaos shim injected.
    pub injected_faults: u64,
}

fn violation(at: String, detail: String) -> Violation {
    Violation {
        family: InvariantFamily::NetworkPlane,
        at,
        detail,
    }
}

/// Polls `cond` until it holds or `timeout` passes.
fn await_cond(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if cond() {
            return true;
        }
        if start.elapsed() >= timeout {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits for a *stable* quiescent reading: balanced counters that stay
/// balanced (and unchanged) across a settle window, so frames the
/// reactor is still pulling out of kernel buffers can't slip past a
/// single balanced snapshot.
fn await_quiesce(stats: &NetStats, timeout: Duration) -> bool {
    let start = Instant::now();
    loop {
        if stats.quiesced() {
            let before = stats.requests_total.load(Ordering::Acquire);
            std::thread::sleep(Duration::from_millis(5));
            if stats.quiesced() && stats.requests_total.load(Ordering::Acquire) == before {
                return true;
            }
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
        if start.elapsed() >= timeout {
            return false;
        }
    }
}

pub(crate) fn net_driver(
    spec: &ScenarioSpec,
    engine: Arc<ShardedStore>,
    barrier: &Barrier,
    seed: u64,
) -> NetOut {
    let ns = spec.net.as_ref().expect("net driver requires a NetSpec");
    let chaos = &ns.chaos;
    let mut violations = Vec::new();

    // Arm the fault plane. The shim and panic hook are kept so the
    // teardown expectations can prove they actually fired.
    let sysio = chaos
        .sysio
        .is_active()
        .then(|| Arc::new(ChaosSysIo::new(chaos.sysio, seed)));
    let panics =
        (chaos.worker_panic_every > 0).then(|| Arc::new(PanicEvery::new(chaos.worker_panic_every)));
    let disruptive = chaos.disruptive();
    let mut cfg = ReactorConfig {
        reactors: 1,
        max_inflight_per_conn: MAX_INFLIGHT,
        write_highwater: ns.write_highwater,
        so_sndbuf: (ns.stalled_clients > 0).then_some(SOCK_BUF),
        idle_timeout: chaos.idle_timeout_ms.map(Duration::from_millis),
        write_stall_timeout: chaos.write_stall_timeout_ms.map(Duration::from_millis),
        overload_shed_inflight: chaos.shed_inflight,
        overload_accept_inflight: chaos.accept_pause_inflight,
        park_shed_after: chaos.park_shed_after_ms.map(Duration::from_millis),
        ..ReactorConfig::default()
    };
    if let Some(cap) = chaos.ring_capacity {
        cfg.ring_capacity = cap;
    }
    if let Some(batch) = chaos.batch_limit {
        cfg.batch_limit = batch;
    }
    if let Some(io) = &sysio {
        cfg.io = Arc::clone(io) as Arc<dyn softmem_kv::SysIo>;
    }
    if let Some(hook) = &panics {
        cfg.hook = Some(Arc::clone(hook) as Arc<dyn softmem_kv::WorkerHook>);
    }
    let setup = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).and_then(|fe| {
        let swarm = Swarm::connect(fe.addr(), ns.clients)?;
        Ok((fe, swarm))
    });
    let (fe, mut swarm) = match setup {
        Ok(pair) => pair,
        Err(e) => {
            // Still meet every barrier or the whole run deadlocks.
            violations.push(violation(
                "net setup".into(),
                format!("failed to bind frontend / connect swarm: {e}"),
            ));
            for _ in &spec.phases {
                barrier.wait();
                barrier.wait();
            }
            return NetOut {
                violations,
                requests: 0,
                replies: 0,
                deadline_closes: 0,
                sheds: 0,
                worker_restarts: 0,
                injected_faults: 0,
            };
        }
    };
    let stats = Arc::clone(fe.stats());
    if !await_cond(Duration::from_secs(10), || {
        stats.open_conns.load(Ordering::Acquire) as usize == ns.clients
    }) {
        violations.push(violation(
            "net setup".into(),
            format!(
                "only {} of {} connections registered",
                stats.open_conns.load(Ordering::Acquire),
                ns.clients
            ),
        ));
    }
    let stalled = ns.stalled_clients.min(ns.clients);
    for idx in 0..stalled {
        swarm.shrink_recv_buf(idx, SOCK_BUF);
        swarm.stall(idx);
    }

    for (pi, _phase) in spec.phases.iter().enumerate() {
        barrier.wait();
        let disconnecting = ns.disconnect_half_mid_phase == Some(pi);
        let opts = RunOpts {
            // A disconnect phase is time-boxed with an unbounded quota
            // so the wave lands mid-pipeline, with replies in flight.
            per_client: if disconnecting {
                u64::MAX
            } else {
                ns.requests_per_client
            },
            pipeline: ns.pipeline,
            deadline: Some(if disconnecting {
                Duration::from_millis(400)
            } else {
                Duration::from_secs(30)
            }),
        };
        let report = swarm.run(&opts, |client, req, out| {
            if client < stalled {
                // Slow readers prime one fat value, then request it
                // over and over: every reply lands in a write buffer
                // the client never drains. Re-primed periodically —
                // the scenario's soft-memory pressure reclaims the
                // entry, and a reclaimed key answers with a 4-byte
                // miss that exerts no write pressure at all.
                if req % 8 == 0 {
                    out.extend_from_slice(format!("SET fat:{client} ").as_bytes());
                    out.resize(out.len() + FAT_LEN, b'x');
                    out.push(b'\n');
                } else {
                    out.extend_from_slice(format!("GET fat:{client}\n").as_bytes());
                }
            } else {
                // Well-behaved clients: mixed SET/GET over a shared
                // keyspace, scattered across shards, seed-mixed so
                // runs differ but stay reproducible.
                let k = (seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ req) % 512;
                if req % 3 == 0 {
                    out.extend_from_slice(format!("GET net:{k:04}\n").as_bytes());
                } else {
                    out.extend_from_slice(format!("SET net:{k:04} ").as_bytes());
                    out.resize(out.len() + 64, b'v');
                    out.push(b'\n');
                }
            }
        });
        // Under a disruptive plan (resets, deadlines) the server is
        // *supposed* to kill connections; sheds and worker panics are
        // not a licence — they must answer on a healthy socket.
        if !disruptive && (report.io_errors > 0 || report.disconnects > 0) {
            violations.push(violation(
                format!("net phase {pi}"),
                format!(
                    "{} client io error(s), {} unexpected server-side close(s)",
                    report.io_errors, report.disconnects
                ),
            ));
        }
        if disconnecting {
            // The wave: half the fleet vanishes at once, replies still
            // in flight. The plane must reap every fd and settle its
            // conservation counters through the carnage.
            for idx in 0..ns.clients / 2 {
                swarm.disconnect(idx);
            }
        }
        swarm.drain(Duration::from_secs(10));
        if !await_quiesce(&stats, Duration::from_secs(15)) {
            violations.push(violation(
                format!("net phase {pi}"),
                format!(
                    "plane failed to quiesce: requests {} replies {} parked {}",
                    stats.requests_total.load(Ordering::Acquire),
                    stats.replies_total.load(Ordering::Acquire),
                    stats.parked_frames.load(Ordering::Acquire),
                ),
            ));
        }
        // The reply ledger: at a quiescent point every reply must
        // trace to exactly one origin (executed, shed, protocol-fatal,
        // discarded-at-close, or panic-failed) — "shed + closed +
        // completed == offered" with nothing double-counted.
        let (ledger_replies, ledger_accounted) = stats.ledger();
        if ledger_replies != ledger_accounted {
            violations.push(violation(
                format!("net phase {pi}"),
                format!(
                    "reply ledger unbalanced: {ledger_replies} replies vs \
                     {ledger_accounted} accounted (executed+shed+fatal+discarded+panic)"
                ),
            ));
        }
        // A disruptive plan evicts connections the swarm still counts
        // as live (it learns at its next I/O), so the server may run
        // *below* the swarm's count — but never above it.
        let live = swarm.live_clients() as u64;
        if !await_cond(Duration::from_secs(10), || {
            let open = stats.open_conns.load(Ordering::Acquire);
            if disruptive {
                open <= live
            } else {
                open == live
            }
        }) {
            violations.push(violation(
                format!("net phase {pi}"),
                format!(
                    "server open_conns {} never converged to {} live client(s)",
                    stats.open_conns.load(Ordering::Acquire),
                    live
                ),
            ));
        }
        let bound = (ns.write_highwater + MAX_INFLIGHT * MAX_REPLY) as u64;
        let max_buf = stats.max_write_buf_bytes.load(Ordering::Acquire);
        if max_buf > bound {
            violations.push(violation(
                format!("net phase {pi}"),
                format!(
                    "a connection's write buffer reached {max_buf} bytes, over the \
                     backpressure bound {bound} (highwater {} + {MAX_INFLIGHT}×{MAX_REPLY})",
                    ns.write_highwater
                ),
            ));
        }
        barrier.wait();
    }

    // An expected eviction races the scenario's (short) wall clock:
    // the phases can finish before the stall bound elapses. The stalled
    // conns are still connected and still not reading, so holding the
    // teardown until the reaper fires is deterministic, not a sleep.
    if chaos.expect_deadline_closes
        && !await_cond(Duration::from_secs(5), || {
            stats.conn_deadline_closes_total.load(Ordering::Acquire) > 0
        })
    {
        violations.push(violation(
            "net teardown".into(),
            "the deadline reaper never fired within 5 s of quiescence \
             (conn_deadline_closes_total == 0) though stalled clients are still connected"
                .into(),
        ));
    }
    if stalled > 0 && stats.paused_reads_total.load(Ordering::Acquire) == 0 {
        violations.push(violation(
            "net teardown".into(),
            format!(
                "{stalled} stalled client(s) never tripped the read-pause machinery \
                 (paused_reads_total == 0): the write-buffer bound was not exercised"
            ),
        ));
    }
    let requests = stats.requests_total.load(Ordering::Acquire);
    let replies = stats.replies_total.load(Ordering::Acquire);
    drop(swarm);
    if !await_cond(Duration::from_secs(10), || {
        stats.open_conns.load(Ordering::Acquire) == 0
    }) {
        violations.push(violation(
            "net teardown".into(),
            format!(
                "{} connection(s) still open after every client hung up",
                stats.open_conns.load(Ordering::Acquire)
            ),
        ));
    }
    let accepted = stats.accepted_total.load(Ordering::Acquire);
    let closed = stats.closed_total.load(Ordering::Acquire);
    if accepted != closed {
        violations.push(violation(
            "net teardown".into(),
            format!("fd leak: accepted {accepted} != closed {closed}"),
        ));
    }
    // Final ledger, with every connection torn down: closes may have
    // converted parked frames into discards since the last phase.
    let (ledger_replies, ledger_accounted) = stats.ledger();
    if ledger_replies != ledger_accounted {
        violations.push(violation(
            "net teardown".into(),
            format!(
                "reply ledger unbalanced at teardown: {ledger_replies} replies vs \
                 {ledger_accounted} accounted"
            ),
        ));
    }
    // Expectations: a chaos scenario is only proof if its machinery
    // demonstrably fired — a sweep that never sheds, never evicts, or
    // never restarts a worker would pass vacuously.
    let deadline_closes = stats.conn_deadline_closes_total.load(Ordering::Acquire);
    let sheds = stats.overload_sheds_total.load(Ordering::Acquire);
    let worker_restarts = stats.worker_restarts_total.load(Ordering::Acquire);
    let injected_faults = sysio.as_ref().map(|io| io.injected()).unwrap_or(0);
    if chaos.expect_deadline_closes && deadline_closes == 0 {
        violations.push(violation(
            "net teardown".into(),
            "the deadline reaper never fired (conn_deadline_closes_total == 0) \
             though the scenario expects evictions"
                .into(),
        ));
    }
    if chaos.expect_sheds && sheds == 0 {
        violations.push(violation(
            "net teardown".into(),
            "admission control never shed (overload_sheds_total == 0) \
             though the scenario expects brownout"
                .into(),
        ));
    }
    if chaos.expect_worker_restarts && worker_restarts == 0 {
        violations.push(violation(
            "net teardown".into(),
            "no worker was ever restarted (worker_restarts_total == 0) \
             though the scenario injects panics"
                .into(),
        ));
    }
    if chaos.sysio.is_active() && injected_faults == 0 {
        violations.push(violation(
            "net teardown".into(),
            "the syscall chaos shim was armed but injected nothing".into(),
        ));
    }
    // The telemetry mirrors must agree with the ground-truth stats —
    // the same lying-metric law the store counters live under.
    let metrics = fe.metrics();
    metrics.refresh(&stats);
    let snap = metrics.snapshot();
    let pairs: [(&str, u64); 6] = [
        (
            "accept_backoffs",
            stats.accept_backoffs_total.load(Ordering::Acquire),
        ),
        ("conn_deadline_closes", deadline_closes),
        ("overload_sheds", sheds),
        ("worker_restarts", worker_restarts),
        (
            "reactor_restarts",
            stats.reactor_restarts_total.load(Ordering::Acquire),
        ),
        (
            "panic_error_replies",
            stats.panic_error_replies_total.load(Ordering::Acquire),
        ),
    ];
    for (name, truth) in pairs {
        let mirrored = match snap.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        };
        if mirrored != Some(truth) {
            violations.push(Violation {
                family: InvariantFamily::MetricsConsistency,
                at: "net teardown".into(),
                detail: format!(
                    "net telemetry mirror `{name}` reads {mirrored:?}, \
                     ground truth is {truth}"
                ),
            });
        }
    }
    drop(fe); // joins reactors and shard workers before the runner's quiesce sweep
    NetOut {
        violations,
        requests,
        replies,
        deadline_closes,
        sheds,
        worker_restarts,
        injected_faults,
    }
}
