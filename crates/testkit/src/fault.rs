//! Declarative fault plans and the injectors that execute them.
//!
//! A [`FaultPlan`] names every fault a scenario injects, at three
//! protocol layers:
//!
//! - **budget taps** ([`ScriptedTap`], plugged into
//!   [`softmem_core::InterposedBudget`]) corrupt the SMA↔daemon
//!   budget path: denials, delays, dropped replies, forged grants;
//! - **daemon hooks** ([`CadenceDenyHook`], installed with
//!   [`softmem_daemon::Smd::set_hook`]) deny requests inside the
//!   daemon itself;
//! - **chaos faults** ([`ChaosFault`], applied by the scenario runner
//!   between phases) deliberately break one invariant family each, to
//!   prove the corresponding checker can fail;
//! - **network-plane chaos** ([`NetChaos`], carried by a
//!   [`crate::scenario::NetSpec`]) storms the reactor frontend:
//!   syscall faults by cadence through the [`softmem_kv::SysIo`] shim
//!   ([`SysIoPlan`], executed by [`ChaosSysIo`]), connection
//!   deadlines, overload limits, and injected worker panics
//!   ([`PanicEvery`]). Unlike [`ChaosFault`]s these target *no*
//!   family — the plane must absorb every injected fault and still
//!   balance its reply ledger, so the run stays benign.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use softmem_core::budget::Grant;
use softmem_core::error::DenyReason;
use softmem_core::{BudgetFault, BudgetTap, SoftResult};
use softmem_daemon::{Pid, SmdHook};

use crate::invariants::InvariantFamily;

/// One deliberate invariant break, applied once by the runner after a
/// configured phase. Each variant targets exactly one family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Reserves machine pages behind every SMA's back →
    /// [`InvariantFamily::MachinePages`].
    LeakMachinePages(usize),
    /// Grows a process's SMA budget without any daemon assignment (a
    /// forged/duplicated grant reply) →
    /// [`InvariantFamily::BudgetConservation`].
    ForgeBudget(usize),
    /// Marks a live handle stale without freeing it →
    /// [`InvariantFamily::GenerationSafety`].
    ZombieHandle,
    /// Moves a queue element without telling the counters →
    /// [`InvariantFamily::CallbackAccounting`].
    StealthQueueOp,
    /// Bumps a telemetry counter mirror with no ground-truth event
    /// behind it (a lying metric) →
    /// [`InvariantFamily::MetricsConsistency`].
    ForgeCounter(u64),
}

impl ChaosFault {
    /// The invariant family this fault breaks.
    pub fn target_family(&self) -> InvariantFamily {
        match self {
            ChaosFault::LeakMachinePages(_) => InvariantFamily::MachinePages,
            ChaosFault::ForgeBudget(_) => InvariantFamily::BudgetConservation,
            ChaosFault::ZombieHandle => InvariantFamily::GenerationSafety,
            ChaosFault::StealthQueueOp => InvariantFamily::CallbackAccounting,
            ChaosFault::ForgeCounter(_) => InvariantFamily::MetricsConsistency,
        }
    }
}

/// The complete fault configuration of one scenario.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Budget-tap script, cycled per request on every process. Empty
    /// means no tap is interposed.
    pub budget_script: Vec<BudgetFault>,
    /// Deny every Nth daemon request inside the daemon (via
    /// [`CadenceDenyHook`]); `None` installs no hook.
    pub deny_every: Option<u64>,
    /// `(worker, phase)` pairs: the worker's process disconnects
    /// abruptly at the start of that phase.
    pub disconnects: Vec<(usize, usize)>,
    /// Install panicking reclaim callbacks on every queue.
    pub panic_callbacks: bool,
    /// One deliberate invariant break, applied after the given phase.
    pub chaos: Option<(ChaosFault, usize)>,
    /// Corrupt every KV cold tier after the given phase: flip bytes in
    /// each arena and truncate each spill log. Unlike [`ChaosFault`]s,
    /// this targets *no* invariant family — the tier's checksums must
    /// absorb the damage as clean misses, so the run stays benign.
    pub corrupt_cold: Option<usize>,
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn none() -> Self {
        Self::default()
    }
}

/// A [`BudgetTap`] that cycles through a scripted fault sequence, one
/// entry per budget-growth request.
pub struct ScriptedTap {
    script: Vec<BudgetFault>,
    cursor: AtomicUsize,
    denied: AtomicU64,
    dropped: AtomicU64,
    forged_pages: AtomicU64,
}

impl ScriptedTap {
    /// A tap cycling `script` (which must be non-empty).
    pub fn new(script: Vec<BudgetFault>) -> Self {
        assert!(!script.is_empty(), "a tap needs at least one script entry");
        ScriptedTap {
            script,
            cursor: AtomicUsize::new(0),
            denied: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            forged_pages: AtomicU64::new(0),
        }
    }

    /// Requests denied at the tap.
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::SeqCst)
    }

    /// Replies dropped at the tap.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::SeqCst)
    }

    /// Budget pages forged (conservation damage done).
    pub fn forged_pages(&self) -> u64 {
        self.forged_pages.load(Ordering::SeqCst)
    }
}

impl BudgetTap for ScriptedTap {
    fn intercept(&self, _need: usize, _want: usize) -> BudgetFault {
        let i = self.cursor.fetch_add(1, Ordering::SeqCst);
        let fault = self.script[i % self.script.len()];
        match fault {
            BudgetFault::Deny => {
                self.denied.fetch_add(1, Ordering::SeqCst);
            }
            BudgetFault::DropReply => {
                self.dropped.fetch_add(1, Ordering::SeqCst);
            }
            BudgetFault::ForgeGrant(pages) => {
                self.forged_pages.fetch_add(pages as u64, Ordering::SeqCst);
            }
            BudgetFault::PassThrough | BudgetFault::DelayMs(_) => {}
        }
        fault
    }

    fn observe(&self, _need: usize, _want: usize, _outcome: &SoftResult<Grant>) {}
}

/// An [`SmdHook`] that forcibly denies every Nth budget request at
/// the daemon — the "daemon denial" fault. Grants and demands are
/// counted for assertions.
pub struct CadenceDenyHook {
    every: u64,
    requests: AtomicU64,
    denied: AtomicU64,
    grants: AtomicU64,
    demands: AtomicU64,
}

impl CadenceDenyHook {
    /// Denies request numbers `every`, `2*every`, … (1-based).
    pub fn new(every: u64) -> Self {
        CadenceDenyHook {
            every: every.max(1),
            requests: AtomicU64::new(0),
            denied: AtomicU64::new(0),
            grants: AtomicU64::new(0),
            demands: AtomicU64::new(0),
        }
    }

    /// Requests denied by this hook.
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::SeqCst)
    }

    /// Grants observed.
    pub fn grants(&self) -> u64 {
        self.grants.load(Ordering::SeqCst)
    }

    /// Reclamation demands observed.
    pub fn demands(&self) -> u64 {
        self.demands.load(Ordering::SeqCst)
    }
}

impl SmdHook for CadenceDenyHook {
    fn pre_request(&self, _pid: Pid, _need: usize, _want: usize) -> Option<DenyReason> {
        let n = self.requests.fetch_add(1, Ordering::SeqCst) + 1;
        if n.is_multiple_of(self.every) {
            self.denied.fetch_add(1, Ordering::SeqCst);
            Some(DenyReason::Injected)
        } else {
            None
        }
    }

    fn on_demand(&self, _requester: Pid, _target: Pid, _demanded: usize, _yielded: usize) {
        self.demands.fetch_add(1, Ordering::SeqCst);
    }

    fn on_grant(&self, _pid: Pid, _pages: usize) {
        self.grants.fetch_add(1, Ordering::SeqCst);
    }
}

/// Syscall fault cadences for the reactor's I/O shim. Plain data —
/// portable and `Default`-benign (all zeros = no faults); the
/// Linux-only injector that executes it is [`ChaosSysIo`]. A cadence
/// of `n` fires roughly every `n`th call of that syscall, phase-mixed
/// by the scenario seed so different seeds fault different calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SysIoPlan {
    /// Inject `EINTR` on every Nth read/write (0 = never).
    pub eintr_every: u64,
    /// Inject a spurious `EAGAIN` on every Nth read/write.
    pub eagain_every: u64,
    /// Inject `ECONNRESET` on every Nth read — kills that connection.
    pub reset_every: u64,
    /// Cap read lengths at this many bytes (0 = uncapped).
    pub short_read_cap: usize,
    /// Cap write lengths at this many bytes (0 = uncapped).
    pub short_write_cap: usize,
    /// Inject `EMFILE` on every Nth accept.
    pub accept_emfile_every: u64,
    /// Inject `EINTR` on every Nth `epoll_wait`.
    pub poll_eintr_every: u64,
    /// Silently drop every Nth eventfd wake (the reactor's poll
    /// timeout must absorb lost wakes).
    pub drop_wake_every: u64,
}

impl SysIoPlan {
    /// No syscall faults at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any cadence or cap is armed.
    pub fn is_active(&self) -> bool {
        *self != Self::default()
    }

    /// Whether the plan can forcibly kill client connections
    /// (`ECONNRESET`), so a scenario verdict must tolerate client-side
    /// I/O errors and server-side closes.
    pub fn disruptive(&self) -> bool {
        self.reset_every > 0
    }
}

/// Network-plane chaos riding on a [`crate::scenario::NetSpec`]:
/// syscall faults, connection deadlines, overload admission limits,
/// and injected worker panics — plus the *expectations* that turn a
/// clean verdict into proof the machinery actually fired (a sweep
/// that never sheds proves nothing about shedding).
#[derive(Debug, Clone, Default)]
pub struct NetChaos {
    /// Syscall fault cadences (executed by [`ChaosSysIo`]).
    pub sysio: SysIoPlan,
    /// Evict connections idle this long (reactor timer wheel).
    pub idle_timeout_ms: Option<u64>,
    /// Evict connections whose pending reply bytes make no progress
    /// for this long.
    pub write_stall_timeout_ms: Option<u64>,
    /// Shed new requests with `ERR overloaded` once global in-flight
    /// crosses this mark.
    pub shed_inflight: Option<u64>,
    /// Stop accepting once global in-flight crosses this harder mark.
    pub accept_pause_inflight: Option<u64>,
    /// Give up on a parked frame (shed it) after this long.
    pub park_shed_after_ms: Option<u64>,
    /// Override the per-shard ring capacity (tiny rings park/shed).
    pub ring_capacity: Option<usize>,
    /// Override the worker batch limit.
    pub batch_limit: Option<usize>,
    /// Panic every Nth shard-worker execution (0 = never); the
    /// supervisor must restart the worker and error its in-flight
    /// request.
    pub worker_panic_every: u64,
    /// A clean verdict requires `conn_deadline_closes_total ≥ 1`.
    pub expect_deadline_closes: bool,
    /// A clean verdict requires `overload_sheds_total ≥ 1`.
    pub expect_sheds: bool,
    /// A clean verdict requires `worker_restarts_total ≥ 1`.
    pub expect_worker_restarts: bool,
}

impl NetChaos {
    /// No network chaos at all.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether this plan can forcibly close or starve client
    /// connections (resets, deadlines). A disruptive plan makes
    /// client-side I/O errors and server-side closes *expected*, so
    /// the net driver must not flag them; sheds and worker panics are
    /// not disruptive — they answer on a healthy connection.
    pub fn disruptive(&self) -> bool {
        self.sysio.disruptive()
            || self.idle_timeout_ms.is_some()
            || self.write_stall_timeout_ms.is_some()
    }
}

/// A seeded, deterministic [`softmem_kv::SysIo`] executing a
/// [`SysIoPlan`]: every fault fires on a per-syscall counter offset by
/// the seed, so a run is reproducible and different seeds fault
/// different calls. Functionally it remains a correct transport —
/// every injected error is one the kernel could return.
#[cfg(target_os = "linux")]
pub struct ChaosSysIo {
    plan: SysIoPlan,
    seed: u64,
    reads: AtomicU64,
    writes: AtomicU64,
    accepts: AtomicU64,
    polls: AtomicU64,
    wakes: AtomicU64,
    injected: AtomicU64,
}

#[cfg(target_os = "linux")]
impl ChaosSysIo {
    /// An injector executing `plan`, phase-mixed by `seed`.
    pub fn new(plan: SysIoPlan, seed: u64) -> Self {
        ChaosSysIo {
            plan,
            seed,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Total faults injected so far — a storm scenario asserts this is
    /// non-zero, so a clean verdict proves the error paths ran.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn hit(&self, count: u64, salt: u64, every: u64) -> bool {
        if every == 0 {
            return false;
        }
        if count.wrapping_add(self.seed ^ salt).is_multiple_of(every) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

#[cfg(target_os = "linux")]
impl softmem_kv::SysIo for ChaosSysIo {
    fn read(&self, stream: &std::net::TcpStream, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.reads.fetch_add(1, Ordering::Relaxed);
        if self.hit(n, 0x01, self.plan.eintr_every) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        if self.hit(n, 0x02, self.plan.eagain_every) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        if self.hit(n, 0x03, self.plan.reset_every) {
            return Err(std::io::Error::from_raw_os_error(104)); // ECONNRESET
        }
        let cap = match self.plan.short_read_cap {
            0 => buf.len(),
            cap => buf.len().min(cap),
        };
        softmem_kv::RealSysIo.read(stream, &mut buf[..cap])
    }

    fn write(&self, stream: &std::net::TcpStream, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        if self.hit(n, 0x04, self.plan.eintr_every) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        if self.hit(n, 0x05, self.plan.eagain_every) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let cap = match self.plan.short_write_cap {
            0 => buf.len(),
            cap => buf.len().min(cap),
        };
        softmem_kv::RealSysIo.write(stream, &buf[..cap])
    }

    fn accept(
        &self,
        listener: &std::net::TcpListener,
    ) -> std::io::Result<(std::net::TcpStream, std::net::SocketAddr)> {
        let n = self.accepts.fetch_add(1, Ordering::Relaxed);
        if self.hit(n, 0x06, self.plan.accept_emfile_every) {
            return Err(std::io::Error::from_raw_os_error(24)); // EMFILE
        }
        softmem_kv::RealSysIo.accept(listener)
    }

    fn epoll_wait(
        &self,
        poller: &softmem_kv::reactor::Poller,
        out: &mut Vec<softmem_kv::reactor::Event>,
        timeout_ms: i32,
    ) -> std::io::Result<()> {
        let n = self.polls.fetch_add(1, Ordering::Relaxed);
        if self.hit(n, 0x07, self.plan.poll_eintr_every) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        softmem_kv::RealSysIo.epoll_wait(poller, out, timeout_ms)
    }

    fn wake(&self, efd: &std::fs::File) -> std::io::Result<()> {
        let n = self.wakes.fetch_add(1, Ordering::Relaxed);
        if self.hit(n, 0x08, self.plan.drop_wake_every) {
            return Ok(()); // Dropped on the floor; poll timeout covers it.
        }
        softmem_kv::RealSysIo.wake(efd)
    }
}

/// A [`softmem_kv::WorkerHook`] that panics every Nth shard-worker
/// execution, via `resume_unwind` so the harness's panic hook stays
/// quiet — the supervisor is expected to catch it either way.
#[cfg(target_os = "linux")]
pub struct PanicEvery {
    every: u64,
    count: AtomicU64,
    fired: AtomicU64,
}

#[cfg(target_os = "linux")]
impl PanicEvery {
    /// Panics on execution numbers `every`, `2*every`, … (1-based).
    pub fn new(every: u64) -> Self {
        PanicEvery {
            every: every.max(1),
            count: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Panics raised so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

#[cfg(target_os = "linux")]
impl softmem_kv::WorkerHook for PanicEvery {
    fn before_execute(&self, _shard: usize, _frame: &[u8]) {
        let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.every) {
            self.fired.fetch_add(1, Ordering::Relaxed);
            std::panic::resume_unwind(Box::new("injected worker panic"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_tap_cycles_and_counts() {
        let tap = ScriptedTap::new(vec![
            BudgetFault::PassThrough,
            BudgetFault::Deny,
            BudgetFault::ForgeGrant(7),
        ]);
        for _ in 0..6 {
            tap.intercept(1, 1);
        }
        assert_eq!(tap.denied(), 2);
        assert_eq!(tap.forged_pages(), 14);
    }

    #[test]
    fn cadence_hook_denies_every_third() {
        let hook = CadenceDenyHook::new(3);
        let outcomes: Vec<bool> = (0..9)
            .map(|_| hook.pre_request(1, 1, 1).is_some())
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(hook.denied(), 3);
    }

    #[test]
    fn chaos_faults_map_to_families() {
        assert_eq!(
            ChaosFault::LeakMachinePages(1).target_family(),
            InvariantFamily::MachinePages
        );
        assert_eq!(
            ChaosFault::ForgeBudget(1).target_family(),
            InvariantFamily::BudgetConservation
        );
        assert_eq!(
            ChaosFault::ZombieHandle.target_family(),
            InvariantFamily::GenerationSafety
        );
        assert_eq!(
            ChaosFault::StealthQueueOp.target_family(),
            InvariantFamily::CallbackAccounting
        );
        assert_eq!(
            ChaosFault::ForgeCounter(1).target_family(),
            InvariantFamily::MetricsConsistency
        );
    }
}
