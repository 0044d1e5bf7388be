//! The daemon core: accounts, grants, and the reclamation state
//! machine.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use softmem_core::error::DenyReason;
use softmem_core::{MachineMemory, SoftError, SoftResult};

use crate::account::{ProcSnapshot, ProcUsage, ReclaimChannel};
use crate::metrics::SmdMetrics;
use crate::policy::{PaperWeight, WeightPolicy};

/// Daemon-assigned process identifier.
pub type Pid = u64;

/// Configuration of a Soft Memory Daemon.
#[derive(Clone)]
pub struct SmdConfig {
    /// The machine whose memory this daemon arbitrates.
    pub machine: Arc<MachineMemory>,
    /// Total soft-memory pages the daemon may assign across processes.
    pub capacity_pages: usize,
    /// Maximum processes disturbed per reclamation ("the SMD selects a
    /// capped number of processes", §3.3). Limits the blast radius of
    /// one soft memory request.
    pub max_reclaim_targets: usize,
    /// Over-reclamation: each target is asked for at least this
    /// fraction of its held soft pages, "which may exceed the immediate
    /// soft memory request, in order to amortize reclamation costs"
    /// (§4).
    pub over_reclaim_fraction: f64,
    /// Budget granted to a process at registration.
    pub initial_budget_pages: usize,
    /// Optional hard cap on any single process's budget.
    pub per_process_cap_pages: Option<usize>,
    /// Whether the requester itself may be selected as a reclamation
    /// target (§7 leaves this open; off by default).
    pub allow_self_reclaim: bool,
    /// Lease TTL for remote accounts: an account whose channel reports
    /// no activity for longer than this is reaped (its budget returns
    /// to the pool as a zero-disturbance reclamation source — the
    /// limiting case of the §4 bias toward undisturbing targets).
    /// `None` disables lease expiry; channels whose
    /// [`ReclaimChannel::last_activity`] returns `None` are exempt.
    pub lease_ttl: Option<Duration>,
}

impl SmdConfig {
    /// A configuration with the paper-faithful defaults.
    pub fn new(machine: &Arc<MachineMemory>, capacity_pages: usize) -> Self {
        SmdConfig {
            machine: Arc::clone(machine),
            capacity_pages,
            max_reclaim_targets: 4,
            over_reclaim_fraction: 0.25,
            initial_budget_pages: 8,
            per_process_cap_pages: None,
            allow_self_reclaim: false,
            lease_ttl: None,
        }
    }

    /// Sets the reclamation-target cap.
    pub fn max_targets(mut self, n: usize) -> Self {
        self.max_reclaim_targets = n.max(1);
        self
    }

    /// Sets the over-reclamation fraction.
    pub fn over_reclaim(mut self, fraction: f64) -> Self {
        self.over_reclaim_fraction = fraction.max(0.0);
        self
    }

    /// Sets the registration-time budget grant.
    pub fn initial_budget(mut self, pages: usize) -> Self {
        self.initial_budget_pages = pages;
        self
    }

    /// Caps every process's budget.
    pub fn per_process_cap(mut self, pages: usize) -> Self {
        self.per_process_cap_pages = Some(pages);
        self
    }

    /// Allows the requester to be reclaimed from.
    pub fn self_reclaim(mut self, allow: bool) -> Self {
        self.allow_self_reclaim = allow;
        self
    }

    /// Sets the account lease TTL (see [`SmdConfig::lease_ttl`]).
    pub fn lease_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = Some(ttl);
        self
    }
}

/// Pressure rounds the decision log keeps; older rounds are dropped so
/// a daemon nobody drains ([`Smd::take_decisions`]) stays bounded.
const DECISION_LOG_CAPACITY: usize = 1024;

struct Proc {
    name: String,
    budget_pages: usize,
    traditional_pages: usize,
    channel: Arc<dyn ReclaimChannel>,
}

struct SmdInner {
    procs: HashMap<Pid, Proc>,
    next_pid: Pid,
    decisions: VecDeque<ReclaimDecision>,
    grants_total: u64,
    denials_total: u64,
    reclaim_rounds_total: u64,
    pages_reclaimed_total: u64,
    lease_expiries_total: u64,
    reconciles_total: u64,
    reconcile_adopted_pages_total: u64,
    shutting_down: bool,
}

/// Observation and fault-injection points on the daemon's protocol.
///
/// Installed with [`Smd::set_hook`]; every method has a no-op default,
/// so implementations override only the points they care about. Methods
/// are called with the daemon lock held — implementations must not call
/// back into the [`Smd`] (that would self-deadlock) and should return
/// quickly.
pub trait SmdHook: Send + Sync {
    /// Consulted before a budget request is served. Returning
    /// `Some(reason)` forcibly denies the request at the daemon —
    /// the injection point for daemon-denial faults. Note that
    /// [`Smd::request_range`] retries a shortfall denial once, so this
    /// may be consulted twice per caller-visible request.
    fn pre_request(&self, pid: Pid, need: usize, want: usize) -> Option<DenyReason> {
        let _ = (pid, need, want);
        None
    }

    /// Called after each reclamation demand in a pressure round, with
    /// the pages demanded from and yielded by the target.
    fn on_demand(&self, requester: Pid, target: Pid, demanded: usize, yielded: usize) {
        let _ = (requester, target, demanded, yielded);
    }

    /// Called after each grant is committed (registration grants
    /// included).
    fn on_grant(&self, pid: Pid, pages: usize) {
        let _ = (pid, pages);
    }
}

/// One target's part in a reclamation round.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetOutcome {
    /// The disturbed process.
    pub pid: Pid,
    /// Pages demanded from it.
    pub demanded_pages: usize,
    /// Pages it yielded.
    pub yielded_pages: usize,
    /// Whether it was picked in the low-disturbance pass (had budget
    /// slack to surrender).
    pub had_slack: bool,
    /// Its reclamation weight at selection time.
    pub weight: f64,
}

/// An audit-log record of one pressure-handling round.
#[derive(Debug, Clone, PartialEq)]
pub struct ReclaimDecision {
    /// The process whose request triggered the round.
    pub requester: Pid,
    /// Pages it requested.
    pub requested_pages: usize,
    /// Pages that had to come from reclamation (request − unassigned).
    pub need_pages: usize,
    /// The targets disturbed, in visit order.
    pub targets: Vec<TargetOutcome>,
    /// Whether the triggering request was granted afterwards.
    pub granted: bool,
}

/// Daemon-level statistics.
#[derive(Debug, Clone)]
pub struct SmdStats {
    /// Assignable soft-memory capacity (pages).
    pub capacity_pages: usize,
    /// Pages currently assigned as budgets.
    pub assigned_pages: usize,
    /// Requests granted.
    pub grants_total: u64,
    /// Requests denied.
    pub denials_total: u64,
    /// Pressure rounds run.
    pub reclaim_rounds_total: u64,
    /// Pages moved between processes by reclamation.
    pub pages_reclaimed_total: u64,
    /// Accounts reaped because their lease TTL lapsed.
    pub lease_expiries_total: u64,
    /// Accounts re-adopted via [`Smd::register_adopted`].
    pub reconciles_total: u64,
    /// Budget pages adopted across all reconciliations.
    pub reconcile_adopted_pages_total: u64,
    /// This daemon incarnation's epoch.
    pub epoch: u64,
    /// Per-process snapshots.
    pub procs: Vec<ProcSnapshot>,
}

impl SmdStats {
    /// Pages not assigned to any process.
    pub fn unassigned_pages(&self) -> usize {
        self.capacity_pages.saturating_sub(self.assigned_pages)
    }
}

/// The machine-wide Soft Memory Daemon.
///
/// The daemon "is designed to almost never deny a process's soft memory
/// request, while not unfairly burdening other processes with
/// reclamation demands" (§3.3): requests are granted from unassigned
/// capacity when possible, and otherwise trigger a bounded reclamation
/// round over the highest-weight targets.
pub struct Smd {
    cfg: SmdConfig,
    policy: Box<dyn WeightPolicy>,
    epoch: u64,
    inner: Mutex<SmdInner>,
    hook: Mutex<Option<Arc<dyn SmdHook>>>,
    metrics: SmdMetrics,
}

/// Source of daemon epochs: a process-global monotonic counter, so
/// every `Smd` incarnation in this address space gets a distinct epoch
/// (deterministic, unlike wall-clock-derived epochs — the testkit
/// replays schedules byte-for-byte).
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

impl Smd {
    /// A daemon with the paper's weight policy.
    pub fn new(cfg: SmdConfig) -> Arc<Self> {
        Self::with_policy(cfg, Box::new(PaperWeight))
    }

    /// A daemon with a custom reclamation-weight policy.
    pub fn with_policy(cfg: SmdConfig, policy: Box<dyn WeightPolicy>) -> Arc<Self> {
        Arc::new(Smd {
            cfg,
            policy,
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            inner: Mutex::new(SmdInner {
                procs: HashMap::new(),
                next_pid: 1,
                decisions: VecDeque::new(),
                grants_total: 0,
                denials_total: 0,
                reclaim_rounds_total: 0,
                pages_reclaimed_total: 0,
                lease_expiries_total: 0,
                reconciles_total: 0,
                reconcile_adopted_pages_total: 0,
                shutting_down: false,
            }),
            hook: Mutex::new(None),
            metrics: SmdMetrics::new(),
        })
    }

    /// This daemon incarnation's epoch. Grants are stamped with it;
    /// requests presenting a different epoch are denied with
    /// [`DenyReason::StaleEpoch`] so clients learn a restart happened.
    /// Immutable for the daemon's lifetime (readable without the lock).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The daemon's telemetry registry — lock-free mirrors the testkit
    /// certifies against [`Smd::stats`] ground truth, plus
    /// decision-time observability (per-target reclamation weight,
    /// over-reclaim rounds, grant round-trip latency).
    pub fn metrics(&self) -> &SmdMetrics {
        &self.metrics
    }

    /// Re-derives the occupancy gauges from ledger state (called under
    /// the daemon lock after every mutation).
    fn sync_gauges(&self, inner: &SmdInner) {
        let assigned: usize = inner.procs.values().map(|p| p.budget_pages).sum();
        self.metrics.assigned_pages.set(assigned as i64);
        self.metrics.registered_procs.set(inner.procs.len() as i64);
    }

    /// Installs a protocol hook (replacing any previous one). See
    /// [`SmdHook`] for the reentrancy rules.
    pub fn set_hook(&self, hook: Arc<dyn SmdHook>) {
        *self.hook.lock() = Some(hook);
    }

    /// Removes the protocol hook.
    pub fn clear_hook(&self) {
        *self.hook.lock() = None;
    }

    fn hook(&self) -> Option<Arc<dyn SmdHook>> {
        self.hook.lock().clone()
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &SmdConfig {
        &self.cfg
    }

    /// The active weight policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Registers a process; returns its pid and the initial budget
    /// grant (bounded by unassigned capacity).
    pub fn register(&self, name: &str, channel: Arc<dyn ReclaimChannel>) -> (Pid, usize) {
        let hook = self.hook();
        let mut inner = self.inner.lock();
        let pid = inner.next_pid;
        inner.next_pid += 1;
        let assigned: usize = inner.procs.values().map(|p| p.budget_pages).sum();
        let unassigned = self.cfg.capacity_pages.saturating_sub(assigned);
        let grant = self.cfg.initial_budget_pages.min(unassigned);
        if grant > 0 {
            channel.grant(grant);
            if let Some(h) = &hook {
                h.on_grant(pid, grant);
            }
        }
        inner.procs.insert(
            pid,
            Proc {
                name: name.to_string(),
                budget_pages: grant,
                traditional_pages: 0,
                channel,
            },
        );
        self.sync_gauges(&inner);
        (pid, grant)
    }

    /// Re-adopts a surviving client's holdings after a daemon restart
    /// (the `RECONCILE` path): a fresh account is created whose budget
    /// equals `pages` — the client's *actual* held + slack, as reported
    /// by the client itself — and **no grant is pushed** (the client
    /// already holds that budget locally; crediting it again would
    /// double-count).
    ///
    /// Adoption deliberately tolerates transient over-commit: if the
    /// sum of reconciled budgets exceeds capacity, `unassigned`
    /// saturates to zero and the normal pressure path squeezes the
    /// excess back out on the next request — ghosts are never trusted,
    /// but honest holdings are never revoked by fiat either.
    pub fn register_adopted(
        &self,
        name: &str,
        channel: Arc<dyn ReclaimChannel>,
        pages: usize,
    ) -> Pid {
        let mut inner = self.inner.lock();
        let pid = inner.next_pid;
        inner.next_pid += 1;
        inner.procs.insert(
            pid,
            Proc {
                name: name.to_string(),
                budget_pages: pages,
                traditional_pages: 0,
                channel,
            },
        );
        inner.reconciles_total += 1;
        inner.reconcile_adopted_pages_total += pages as u64;
        self.metrics.reconciles_total.add(1);
        self.metrics.reconcile_adopted_pages_total.add(pages as u64);
        self.sync_gauges(&inner);
        pid
    }

    /// Deregisters a process, returning its budget to the pool.
    pub fn deregister(&self, pid: Pid) -> SoftResult<()> {
        let mut inner = self.inner.lock();
        let removed = inner.procs.remove(&pid);
        self.sync_gauges(&inner);
        removed.map(|_| ()).ok_or(SoftError::UnknownProcess(pid))
    }

    /// Records a process's traditional-memory footprint (used by the
    /// weight policy; reported by the process/simulator).
    pub fn report_traditional(&self, pid: Pid, pages: usize) -> SoftResult<()> {
        let mut inner = self.inner.lock();
        let proc = inner
            .procs
            .get_mut(&pid)
            .ok_or(SoftError::UnknownProcess(pid))?;
        proc.traditional_pages = pages;
        Ok(())
    }

    /// Requests exactly `pages` additional budget pages for `pid`.
    ///
    /// Grants from unassigned capacity when possible; otherwise runs a
    /// reclamation round and grants if it freed enough, denying the
    /// triggering request otherwise (§3.3).
    pub fn request_pages(&self, pid: Pid, pages: usize) -> SoftResult<usize> {
        self.request_range(pid, pages, pages)
    }

    /// Requests at least `need` pages (worth triggering machine-wide
    /// reclamation for), opportunistically up to `want` pages (taken
    /// only from uncontended capacity). Returns the grant, which is
    /// ≥ `need` on success.
    pub fn request_range(&self, pid: Pid, need: usize, want: usize) -> SoftResult<usize> {
        // Grant round-trip latency as the requester experiences it:
        // fast-path grants, full reclamation rounds, and the
        // dead-target retry all land in the same histogram.
        let timer = softmem_telemetry::Timer::start();
        let result = self.request_range_inner(pid, need, want);
        timer.observe(&self.metrics.request_ns);
        self.sync_gauges(&self.inner.lock());
        result
    }

    fn request_range_inner(&self, pid: Pid, need: usize, want: usize) -> SoftResult<usize> {
        match self.request_range_once(pid, need, want) {
            Err(SoftError::Denied {
                reason: DenyReason::ReclaimShortfall,
            }) => {
                // A target may have died mid-round (remote transports),
                // leaving phantom budget that made the round fall
                // short. The corpse may be reaped *here*, or by its own
                // connection thread calling `deregister` between the
                // round releasing the lock and this block taking it —
                // so retry when reaping changes the ledger OR the
                // ledger already has room (someone else reaped).
                let retry = {
                    let mut inner = self.inner.lock();
                    let reaped = self.reap_dead_locked(&mut inner);
                    let assigned: usize = inner.procs.values().map(|p| p.budget_pages).sum();
                    let unassigned = self.cfg.capacity_pages.saturating_sub(assigned);
                    reaped || unassigned >= need
                };
                if retry {
                    self.request_range_once(pid, need, want)
                } else {
                    Err(SoftError::Denied {
                        reason: DenyReason::ReclaimShortfall,
                    })
                }
            }
            other => other,
        }
    }

    /// Begins an orderly shutdown: every subsequent budget request is
    /// denied with [`DenyReason::ShuttingDown`] (processes fall back
    /// to their already-granted budgets; nothing is revoked).
    pub fn begin_shutdown(&self) {
        self.inner.lock().shutting_down = true;
    }

    fn request_range_once(&self, pid: Pid, need: usize, want: usize) -> SoftResult<usize> {
        let want = want.max(need);
        let hook = self.hook();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if inner.shutting_down {
            inner.denials_total += 1;
            self.metrics.denials_total.add(1);
            return Err(SoftError::Denied {
                reason: DenyReason::ShuttingDown,
            });
        }
        // Reap departed and lease-expired processes first: a dead
        // client's budget is phantom capacity that would otherwise
        // force needless reclamation (or denials) until its
        // deregistration lands.
        self.reap_dead_locked(inner);
        let requester = inner
            .procs
            .get(&pid)
            .ok_or(SoftError::UnknownProcess(pid))?;
        if let Some(reason) = hook.as_ref().and_then(|h| h.pre_request(pid, need, want)) {
            inner.denials_total += 1;
            self.metrics.denials_total.add(1);
            return Err(SoftError::Denied { reason });
        }
        let mut want = want;
        if let Some(cap) = self.cfg.per_process_cap_pages {
            if requester.budget_pages + need > cap {
                inner.denials_total += 1;
                self.metrics.denials_total.add(1);
                return Err(SoftError::Denied {
                    reason: DenyReason::PerProcessCap,
                });
            }
            want = want.min(cap - requester.budget_pages);
        }
        let assigned: usize = inner.procs.values().map(|p| p.budget_pages).sum();
        let unassigned = self.cfg.capacity_pages.saturating_sub(assigned);
        if unassigned >= need {
            let grant = want.min(unassigned);
            let proc = inner.procs.get_mut(&pid).expect("checked");
            proc.budget_pages += grant;
            proc.channel.grant(grant);
            inner.grants_total += 1;
            self.metrics.grants_total.add(1);
            if let Some(h) = &hook {
                h.on_grant(pid, grant);
            }
            return Ok(grant);
        }

        // ---- Memory pressure: run a reclamation round. ----
        let need = need - unassigned;
        inner.reclaim_rounds_total += 1;
        self.metrics.reclaim_rounds_total.add(1);
        let targets = self.select_targets(inner, pid);
        let mut outcomes = Vec::new();
        let mut reclaimed = 0usize;
        let mut over_reclaimed = false;
        for (tpid, weight, had_slack, usage) in targets {
            if reclaimed >= need || outcomes.len() >= self.cfg.max_reclaim_targets {
                break;
            }
            let remaining = need - reclaimed;
            let over = (usage.soft_pages as f64 * self.cfg.over_reclaim_fraction).ceil() as usize;
            let demanded = remaining.max(over);
            over_reclaimed |= demanded > remaining;
            self.metrics
                .target_weight_milli
                .record((weight.max(0.0) * 1000.0) as u64);
            let proc = inner.procs.get_mut(&tpid).expect("selected from the map");
            let reply = proc.channel.demand(demanded);
            proc.budget_pages = proc.budget_pages.saturating_sub(reply.yielded_pages);
            if let Some(h) = &hook {
                h.on_demand(pid, tpid, demanded, reply.yielded_pages);
            }
            reclaimed += reply.yielded_pages;
            inner.pages_reclaimed_total += reply.yielded_pages as u64;
            self.metrics
                .pages_reclaimed_total
                .add(reply.yielded_pages as u64);
            outcomes.push(TargetOutcome {
                pid: tpid,
                demanded_pages: demanded,
                yielded_pages: reply.yielded_pages,
                had_slack,
                weight,
            });
        }
        if over_reclaimed {
            self.metrics.over_reclaim_rounds_total.add(1);
        }
        let assigned_now: usize = inner.procs.values().map(|p| p.budget_pages).sum();
        let unassigned_now = self.cfg.capacity_pages.saturating_sub(assigned_now);
        let granted = unassigned_now >= need + unassigned;
        if inner.decisions.len() == DECISION_LOG_CAPACITY {
            inner.decisions.pop_front();
        }
        inner.decisions.push_back(ReclaimDecision {
            requester: pid,
            requested_pages: want,
            need_pages: need,
            targets: outcomes,
            granted,
        });
        if granted {
            let grant = want.min(unassigned_now);
            let proc = inner.procs.get_mut(&pid).expect("checked");
            proc.budget_pages += grant;
            proc.channel.grant(grant);
            inner.grants_total += 1;
            self.metrics.grants_total.add(1);
            if let Some(h) = &hook {
                h.on_grant(pid, grant);
            }
            Ok(grant)
        } else {
            inner.denials_total += 1;
            self.metrics.denials_total.add(1);
            Err(SoftError::Denied {
                reason: DenyReason::ReclaimShortfall,
            })
        }
    }

    /// Removes dead and lease-expired accounts from the ledger (their
    /// budget returns to the pool without disturbing anyone — the
    /// zero-disturbance limiting case of the §4 weight bias). Counts
    /// lease expiries; returns whether the ledger changed. Called with
    /// the daemon lock held. A live requester is never reaped by its
    /// own request: the transport touches its channel's activity clock
    /// on every received line before the request reaches here.
    fn reap_dead_locked(&self, inner: &mut SmdInner) -> bool {
        let before = inner.procs.len();
        let mut expired = 0u64;
        let ttl = self.cfg.lease_ttl;
        inner.procs.retain(|_, p| {
            if !p.channel.is_alive() {
                return false;
            }
            if let (Some(ttl), Some(last)) = (ttl, p.channel.last_activity()) {
                if last.elapsed() > ttl {
                    expired += 1;
                    return false;
                }
            }
            true
        });
        if expired > 0 {
            inner.lease_expiries_total += expired;
            self.metrics.lease_expiries_total.add(expired);
        }
        before != inner.procs.len()
    }

    /// Returns `pages` of budget from `pid` to the unassigned pool.
    /// Returns the pages actually released.
    pub fn release_pages(&self, pid: Pid, pages: usize) -> SoftResult<usize> {
        let mut inner = self.inner.lock();
        let proc = inner
            .procs
            .get_mut(&pid)
            .ok_or(SoftError::UnknownProcess(pid))?;
        let released = pages.min(proc.budget_pages);
        proc.budget_pages -= released;
        self.sync_gauges(&inner);
        Ok(released)
    }

    /// Candidate targets in visit order: descending weight, with
    /// flexible targets (those with budget slack) visited first — the
    /// §4 bias "towards targets that will experience little or no
    /// disturbance from the reclamation".
    fn select_targets(&self, inner: &SmdInner, requester: Pid) -> Vec<(Pid, f64, bool, ProcUsage)> {
        let mut cands: Vec<(Pid, f64, bool, ProcUsage)> = inner
            .procs
            .iter()
            .filter(|(pid, _)| self.cfg.allow_self_reclaim || **pid != requester)
            .filter_map(|(pid, p)| {
                let usage = ProcUsage {
                    soft_pages: p.channel.soft_pages_held(),
                    traditional_pages: p.traditional_pages,
                    budget_pages: p.budget_pages,
                };
                if usage.soft_pages == 0 && p.budget_pages == 0 {
                    return None; // nothing to take
                }
                let weight = self.policy.weight(&usage);
                let slack = p.channel.slack_pages() > 0;
                Some((*pid, weight, slack, usage))
            })
            .collect();
        // Descending weight; ties by pid for determinism.
        cands.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        // Stable partition: slack-holders first, each group still in
        // weight order.
        let (flexible, inflexible): (Vec<_>, Vec<_>) =
            cands.into_iter().partition(|(_, _, slack, _)| *slack);
        flexible.into_iter().chain(inflexible).collect()
    }

    /// Drains the decision log (audit records of the most recent
    /// pressure rounds, oldest first).
    pub fn take_decisions(&self) -> Vec<ReclaimDecision> {
        std::mem::take(&mut self.inner.lock().decisions).into()
    }

    /// Snapshot of daemon accounting.
    pub fn stats(&self) -> SmdStats {
        let inner = self.inner.lock();
        let procs = inner
            .procs
            .iter()
            .map(|(pid, p)| {
                let usage = ProcUsage {
                    soft_pages: p.channel.soft_pages_held(),
                    traditional_pages: p.traditional_pages,
                    budget_pages: p.budget_pages,
                };
                ProcSnapshot {
                    pid: *pid,
                    name: p.name.clone(),
                    weight: self.policy.weight(&usage),
                    usage,
                }
            })
            .collect();
        SmdStats {
            capacity_pages: self.cfg.capacity_pages,
            assigned_pages: inner.procs.values().map(|p| p.budget_pages).sum(),
            grants_total: inner.grants_total,
            denials_total: inner.denials_total,
            reclaim_rounds_total: inner.reclaim_rounds_total,
            pages_reclaimed_total: inner.pages_reclaimed_total,
            lease_expiries_total: inner.lease_expiries_total,
            reconciles_total: inner.reconciles_total,
            reconcile_adopted_pages_total: inner.reconcile_adopted_pages_total,
            epoch: self.epoch,
            procs,
        }
    }
}

impl std::fmt::Debug for Smd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Smd")
            .field("capacity_pages", &s.capacity_pages)
            .field("assigned_pages", &s.assigned_pages)
            .field("procs", &s.procs.len())
            .field("policy", &self.policy.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::ReclaimReply;
    use parking_lot::Mutex as PlMutex;

    /// A scripted fake process for daemon-logic tests.
    struct FakeProc {
        held: PlMutex<usize>,
        slack: PlMutex<usize>,
        demands: PlMutex<Vec<usize>>,
        /// Yields min(demand, held + slack).
        yield_all: bool,
    }

    impl FakeProc {
        fn new(held: usize, slack: usize) -> Arc<Self> {
            Arc::new(FakeProc {
                held: PlMutex::new(held),
                slack: PlMutex::new(slack),
                demands: PlMutex::new(Vec::new()),
                yield_all: true,
            })
        }

        fn stingy(held: usize) -> Arc<Self> {
            Arc::new(FakeProc {
                held: PlMutex::new(held),
                slack: PlMutex::new(0),
                demands: PlMutex::new(Vec::new()),
                yield_all: false,
            })
        }
    }

    impl ReclaimChannel for FakeProc {
        fn soft_pages_held(&self) -> usize {
            *self.held.lock()
        }

        fn slack_pages(&self) -> usize {
            *self.slack.lock()
        }

        fn grant(&self, _pages: usize) {
            // Scripted fake: held/slack are set explicitly by tests.
        }

        fn demand(&self, pages: usize) -> ReclaimReply {
            self.demands.lock().push(pages);
            if !self.yield_all {
                return ReclaimReply {
                    yielded_pages: 0,
                    shortfall_pages: pages,
                };
            }
            let mut slack = self.slack.lock();
            let mut held = self.held.lock();
            let from_slack = pages.min(*slack);
            *slack -= from_slack;
            let from_held = (pages - from_slack).min(*held);
            *held -= from_held;
            let yielded = from_slack + from_held;
            ReclaimReply {
                yielded_pages: yielded,
                shortfall_pages: pages - yielded,
            }
        }
    }

    fn smd(capacity: usize) -> Arc<Smd> {
        let machine = MachineMemory::unbounded();
        Smd::new(SmdConfig::new(&machine, capacity).initial_budget(0))
    }

    #[test]
    fn grants_from_unassigned_capacity() {
        let smd = smd(100);
        let (pid, grant) = smd.register("a", FakeProc::new(0, 0));
        assert_eq!(grant, 0);
        assert_eq!(smd.request_pages(pid, 60).unwrap(), 60);
        assert_eq!(smd.request_pages(pid, 40).unwrap(), 40);
        let s = smd.stats();
        assert_eq!(s.assigned_pages, 100);
        assert_eq!(s.unassigned_pages(), 0);
        assert_eq!(s.grants_total, 2);
        assert!(smd.take_decisions().is_empty(), "no pressure yet");
    }

    #[test]
    fn decision_log_keeps_only_the_newest_rounds() {
        // No capacity and nobody to reclaim from: every request is one
        // denied pressure round.
        let smd = smd(0);
        let (pid, _) = smd.register("a", FakeProc::new(0, 0));
        let rounds = DECISION_LOG_CAPACITY + 10;
        for pages in 1..=rounds {
            assert!(smd.request_pages(pid, pages).is_err());
        }
        assert_eq!(smd.stats().reclaim_rounds_total, rounds as u64);
        let log = smd.take_decisions();
        assert_eq!(log.len(), DECISION_LOG_CAPACITY);
        assert_eq!(log[0].requested_pages, 11, "the oldest rounds were dropped");
        assert_eq!(log.last().unwrap().requested_pages, rounds);
        assert!(smd.take_decisions().is_empty(), "take drains the log");
    }

    #[test]
    fn initial_budget_grant_is_capacity_bounded() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(SmdConfig::new(&machine, 10).initial_budget(8));
        let (_, g1) = smd.register("a", FakeProc::new(0, 0));
        let (_, g2) = smd.register("b", FakeProc::new(0, 0));
        assert_eq!(g1, 8);
        assert_eq!(g2, 2, "only 2 pages were left unassigned");
    }

    #[test]
    fn pressure_reclaims_from_other_process() {
        let smd = smd(100);
        let a = FakeProc::new(0, 0);
        let (pa, _) = smd.register("a", Arc::clone(&a) as Arc<dyn ReclaimChannel>);
        smd.request_pages(pa, 90).unwrap();
        *a.held.lock() = 90;
        let b = FakeProc::new(0, 0);
        let (pb, _) = smd.register("b", b);
        // 10 unassigned; b wants 30 ⇒ reclaim 20 from a.
        assert_eq!(smd.request_pages(pb, 30).unwrap(), 30);
        let decisions = smd.take_decisions();
        assert_eq!(decisions.len(), 1);
        let d = &decisions[0];
        assert_eq!(d.requester, pb);
        assert_eq!(d.need_pages, 20);
        assert!(d.granted);
        assert_eq!(d.targets.len(), 1);
        assert_eq!(d.targets[0].pid, pa);
        // Over-reclamation: demanded ≥ max(need, 25% of 90 = 23).
        assert_eq!(d.targets[0].demanded_pages, 23);
        let s = smd.stats();
        assert_eq!(s.assigned_pages, 90 - 23 + 30);
    }

    #[test]
    fn denies_when_reclamation_falls_short() {
        let smd = smd(50);
        let a = FakeProc::stingy(40);
        let (pa, _) = smd.register("a", Arc::clone(&a) as Arc<dyn ReclaimChannel>);
        smd.request_pages(pa, 40).unwrap();
        let (pb, _) = smd.register("b", FakeProc::new(0, 0));
        let err = smd.request_pages(pb, 30).unwrap_err();
        assert_eq!(
            err,
            SoftError::Denied {
                reason: DenyReason::ReclaimShortfall
            }
        );
        let d = smd.take_decisions().pop().unwrap();
        assert!(!d.granted);
        assert_eq!(smd.stats().denials_total, 1);
        // a was disturbed but yielded nothing.
        assert_eq!(d.targets[0].yielded_pages, 0);
    }

    #[test]
    fn target_cap_limits_disturbance() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(
            SmdConfig::new(&machine, 100)
                .initial_budget(0)
                .max_targets(2)
                .over_reclaim(0.0),
        );
        // Five processes, each holding 10 pages but yielding nothing.
        for i in 0..5 {
            let p = FakeProc::stingy(10);
            let (pid, _) = smd.register(&format!("p{i}"), p);
            smd.request_pages(pid, 10).unwrap();
        }
        let (pb, _) = smd.register("req", FakeProc::new(0, 0));
        let _ = smd.request_pages(pb, 60).unwrap_err();
        let d = smd.take_decisions().pop().unwrap();
        assert_eq!(d.targets.len(), 2, "only the cap's worth of targets");
    }

    #[test]
    fn flexible_targets_are_visited_first() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(
            SmdConfig::new(&machine, 100)
                .initial_budget(0)
                .over_reclaim(0.0),
        );
        // heavy: huge weight, no slack. light: small weight, has slack.
        let heavy = FakeProc::new(60, 0);
        let (ph, _) = smd.register("heavy", Arc::clone(&heavy) as Arc<dyn ReclaimChannel>);
        smd.request_pages(ph, 60).unwrap();
        smd.report_traditional(ph, 100).unwrap();
        let light = FakeProc::new(10, 30);
        let (pl, _) = smd.register("light", Arc::clone(&light) as Arc<dyn ReclaimChannel>);
        smd.request_pages(pl, 40).unwrap();
        let (pr, _) = smd.register("req", FakeProc::new(0, 0));
        // 0 unassigned; need 20; light's slack (30) covers it without
        // touching heavy, despite heavy's larger weight (§4 bias).
        assert_eq!(smd.request_pages(pr, 20).unwrap(), 20);
        let d = smd.take_decisions().pop().unwrap();
        assert_eq!(d.targets[0].pid, pl);
        assert!(d.targets[0].had_slack);
        assert!(heavy.demands.lock().is_empty(), "heavy was not disturbed");
    }

    #[test]
    fn requester_is_not_its_own_target_by_default() {
        let smd = smd(50);
        let a = FakeProc::new(50, 0);
        let (pa, _) = smd.register("a", Arc::clone(&a) as Arc<dyn ReclaimChannel>);
        smd.request_pages(pa, 50).unwrap();
        let err = smd.request_pages(pa, 10).unwrap_err();
        assert!(matches!(err, SoftError::Denied { .. }));
        assert!(a.demands.lock().is_empty());
    }

    #[test]
    fn self_reclaim_can_be_enabled() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(
            SmdConfig::new(&machine, 50)
                .initial_budget(0)
                .self_reclaim(true),
        );
        let a = FakeProc::new(50, 0);
        let (pa, _) = smd.register("a", Arc::clone(&a) as Arc<dyn ReclaimChannel>);
        smd.request_pages(pa, 50).unwrap();
        assert_eq!(smd.request_pages(pa, 10).unwrap(), 10);
        assert!(!a.demands.lock().is_empty(), "a reclaimed its own pages");
    }

    #[test]
    fn per_process_cap_denies_early() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(
            SmdConfig::new(&machine, 100)
                .initial_budget(0)
                .per_process_cap(20),
        );
        let (pid, _) = smd.register("a", FakeProc::new(0, 0));
        smd.request_pages(pid, 20).unwrap();
        let err = smd.request_pages(pid, 1).unwrap_err();
        assert_eq!(
            err,
            SoftError::Denied {
                reason: DenyReason::PerProcessCap
            }
        );
    }

    #[test]
    fn release_returns_budget_to_pool() {
        let smd = smd(30);
        let (pid, _) = smd.register("a", FakeProc::new(0, 0));
        smd.request_pages(pid, 30).unwrap();
        assert_eq!(smd.release_pages(pid, 12).unwrap(), 12);
        assert_eq!(smd.stats().unassigned_pages(), 12);
        // Releasing more than held releases only what's there.
        assert_eq!(smd.release_pages(pid, 100).unwrap(), 18);
    }

    #[test]
    fn deregister_frees_budget() {
        let smd = smd(30);
        let (pid, _) = smd.register("a", FakeProc::new(0, 0));
        smd.request_pages(pid, 30).unwrap();
        smd.deregister(pid).unwrap();
        assert_eq!(smd.stats().unassigned_pages(), 30);
        assert_eq!(
            smd.request_pages(pid, 1).unwrap_err(),
            SoftError::UnknownProcess(pid)
        );
    }

    #[test]
    fn weight_ordering_picks_heaviest_inflexible_target() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(
            SmdConfig::new(&machine, 100)
                .initial_budget(0)
                .over_reclaim(0.0)
                .max_targets(1),
        );
        let small = FakeProc::new(20, 0);
        let big = FakeProc::new(80, 0);
        let (ps, _) = smd.register("small", Arc::clone(&small) as Arc<dyn ReclaimChannel>);
        let (pb, _) = smd.register("big", Arc::clone(&big) as Arc<dyn ReclaimChannel>);
        smd.request_pages(ps, 20).unwrap();
        smd.request_pages(pb, 80).unwrap();
        let (pr, _) = smd.register("req", FakeProc::new(0, 0));
        smd.request_pages(pr, 10).unwrap();
        let d = smd.take_decisions().pop().unwrap();
        assert_eq!(d.targets.len(), 1);
        assert_eq!(d.targets[0].pid, pb, "heaviest target picked first");
    }

    #[test]
    fn hook_observes_grants_and_demands() {
        use std::sync::atomic::{AtomicBool, Ordering};

        #[derive(Default)]
        struct Recorder {
            grants: PlMutex<Vec<(Pid, usize)>>,
            demands: PlMutex<Vec<(Pid, Pid, usize, usize)>>,
            deny: AtomicBool,
        }

        impl SmdHook for Recorder {
            fn pre_request(&self, _pid: Pid, _need: usize, _want: usize) -> Option<DenyReason> {
                if self.deny.load(Ordering::SeqCst) {
                    Some(DenyReason::Injected)
                } else {
                    None
                }
            }

            fn on_demand(&self, requester: Pid, target: Pid, demanded: usize, yielded: usize) {
                self.demands
                    .lock()
                    .push((requester, target, demanded, yielded));
            }

            fn on_grant(&self, pid: Pid, pages: usize) {
                self.grants.lock().push((pid, pages));
            }
        }

        let machine = MachineMemory::unbounded();
        let smd = Smd::new(
            SmdConfig::new(&machine, 100)
                .initial_budget(5)
                .over_reclaim(0.0),
        );
        let rec = Arc::new(Recorder::default());
        smd.set_hook(Arc::clone(&rec) as Arc<dyn SmdHook>);

        // Registration grant is observed.
        let a = FakeProc::new(0, 0);
        let (pa, g) = smd.register("a", Arc::clone(&a) as Arc<dyn ReclaimChannel>);
        assert_eq!(g, 5);
        assert_eq!(rec.grants.lock().as_slice(), &[(pa, 5)]);

        // Uncontended grant is observed.
        smd.request_pages(pa, 95).unwrap();
        *a.held.lock() = 95;
        assert_eq!(rec.grants.lock().last(), Some(&(pa, 95)));

        // A pressure round's demand and the ensuing grant are observed.
        let (pb, _) = smd.register("b", FakeProc::new(0, 0));
        smd.request_pages(pb, 10).unwrap();
        assert_eq!(rec.demands.lock().as_slice(), &[(pb, pa, 10, 10)]);
        assert_eq!(rec.grants.lock().last(), Some(&(pb, 10)));

        // pre_request can forcibly deny — and it counts as a denial.
        rec.deny.store(true, Ordering::SeqCst);
        let denials_before = smd.stats().denials_total;
        assert_eq!(
            smd.request_pages(pb, 1).unwrap_err(),
            SoftError::Denied {
                reason: DenyReason::Injected
            }
        );
        assert_eq!(smd.stats().denials_total, denials_before + 1);

        // Clearing the hook restores normal service.
        smd.clear_hook();
        smd.release_pages(pb, 5).unwrap();
        assert_eq!(smd.request_pages(pb, 1).unwrap(), 1);
    }

    /// A victim whose channel dies *during* a reclamation round and
    /// whose connection thread races the daemon to clean up the corpse.
    struct DyingVictim {
        dead: std::sync::atomic::AtomicBool,
        /// Signalled from inside `demand` so the deregister helper
        /// parks on the daemon lock while the round is still running.
        start_deregister: PlMutex<Option<std::sync::mpsc::Sender<()>>>,
        held: usize,
    }

    impl ReclaimChannel for DyingVictim {
        fn soft_pages_held(&self) -> usize {
            if self.is_alive() {
                self.held
            } else {
                0
            }
        }

        fn slack_pages(&self) -> usize {
            0
        }

        fn grant(&self, _pages: usize) {}

        fn demand(&self, pages: usize) -> ReclaimReply {
            if let Some(tx) = self.start_deregister.lock().take() {
                let _ = tx.send(());
            }
            // Let the helper thread reach the daemon lock and park.
            std::thread::sleep(std::time::Duration::from_millis(40));
            self.dead.store(true, std::sync::atomic::Ordering::SeqCst);
            ReclaimReply {
                yielded_pages: 0,
                shortfall_pages: pages,
            }
        }

        fn is_alive(&self) -> bool {
            !self.dead.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    /// Regression test for the deregister-vs-retry race: when a target
    /// dies mid-round, its own connection thread may win the daemon
    /// lock after the failed round and deregister the corpse before the
    /// requester's retry path looks at the ledger. The retry's reap
    /// then removes nothing — but the ledger already has room, so the
    /// request must still be retried, not denied.
    #[test]
    fn deregister_between_round_and_retry_is_not_a_denial() {
        for _ in 0..10 {
            let smd = smd(50);
            let victim = Arc::new(DyingVictim {
                dead: std::sync::atomic::AtomicBool::new(false),
                start_deregister: PlMutex::new(None),
                held: 40,
            });
            let (pv, _) = smd.register("victim", Arc::clone(&victim) as Arc<dyn ReclaimChannel>);
            smd.request_pages(pv, 40).unwrap();

            let (tx, rx) = std::sync::mpsc::channel();
            *victim.start_deregister.lock() = Some(tx);
            let smd2 = Arc::clone(&smd);
            let helper = std::thread::spawn(move || {
                if rx.recv().is_ok() {
                    // Races the requester's retry for the daemon lock;
                    // both orderings must end in a grant.
                    let _ = smd2.deregister(pv);
                }
            });

            let (pr, _) = smd.register("req", FakeProc::new(0, 0));
            // 10 unassigned; the round demands the other 20 from the
            // victim, which yields nothing and dies.
            assert_eq!(
                smd.request_pages(pr, 30)
                    .expect("dead victim's budget covers the request"),
                30
            );
            helper.join().unwrap();
        }
    }

    /// A channel that reports a scripted last-activity instant (lease
    /// tests). `None` until armed, then a fixed point in the past.
    struct LeasedProc {
        inner: Arc<FakeProc>,
        last: PlMutex<Option<std::time::Instant>>,
    }

    impl ReclaimChannel for LeasedProc {
        fn soft_pages_held(&self) -> usize {
            self.inner.soft_pages_held()
        }
        fn slack_pages(&self) -> usize {
            self.inner.slack_pages()
        }
        fn demand(&self, pages: usize) -> ReclaimReply {
            self.inner.demand(pages)
        }
        fn grant(&self, pages: usize) {
            self.inner.grant(pages);
        }
        fn last_activity(&self) -> Option<std::time::Instant> {
            *self.last.lock()
        }
    }

    #[test]
    fn lease_expiry_reaps_silent_accounts() {
        let machine = MachineMemory::unbounded();
        // Generous TTL: the "survives" phase must not flake under
        // scheduler noise; expiry is driven by back-dating the scripted
        // activity clock, not by sleeping.
        let smd = Smd::new(
            SmdConfig::new(&machine, 100)
                .initial_budget(0)
                .lease_ttl(Duration::from_secs(2)),
        );
        let silent = Arc::new(LeasedProc {
            inner: FakeProc::new(0, 0),
            last: PlMutex::new(None),
        });
        let (ps, _) = smd.register("silent", Arc::clone(&silent) as Arc<dyn ReclaimChannel>);
        smd.request_pages(ps, 80).unwrap();
        let (pb, _) = smd.register("live", FakeProc::new(0, 0));

        // Lease not yet expired (activity is recent): account survives.
        *silent.last.lock() = Some(std::time::Instant::now());
        smd.request_pages(pb, 10).unwrap();
        assert!(smd.stats().procs.iter().any(|p| p.pid == ps));

        // Expired lease: the next request reaps it, and its 80 pages
        // come back as zero-disturbance capacity.
        *silent.last.lock() = Some(std::time::Instant::now() - Duration::from_secs(3));
        assert_eq!(smd.request_pages(pb, 80).unwrap(), 80);
        let s = smd.stats();
        assert!(s.procs.iter().all(|p| p.pid != ps));
        assert_eq!(s.lease_expiries_total, 1);
        assert_eq!(smd.metrics().lease_expiries_total.get(), 1);
    }

    #[test]
    fn in_process_channels_are_lease_exempt() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(
            SmdConfig::new(&machine, 100)
                .initial_budget(0)
                .lease_ttl(Duration::from_millis(0)),
        );
        // FakeProc::last_activity is the default None: never expires.
        let (pa, _) = smd.register("a", FakeProc::new(0, 0));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(smd.request_pages(pa, 10).unwrap(), 10);
        assert_eq!(smd.stats().lease_expiries_total, 0);
    }

    #[test]
    fn adoption_creates_account_without_granting() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(SmdConfig::new(&machine, 100).initial_budget(0));
        let chan = FakeProc::new(30, 10);
        let pid = smd.register_adopted("survivor", chan, 40);
        let s = smd.stats();
        assert_eq!(s.assigned_pages, 40);
        assert_eq!(s.reconciles_total, 1);
        assert_eq!(s.reconcile_adopted_pages_total, 40);
        assert_eq!(s.grants_total, 0, "adoption pushes no grant");
        assert!(s.procs.iter().any(|p| p.pid == pid));
        // The adopted account is a normal account afterwards.
        assert_eq!(smd.request_pages(pid, 20).unwrap(), 20);
    }

    #[test]
    fn adoption_overcommit_resolves_through_pressure() {
        let machine = MachineMemory::unbounded();
        let smd = Smd::new(SmdConfig::new(&machine, 50).initial_budget(0));
        // Two survivors whose honest holdings sum over capacity (the
        // old daemon's assignments plus allocation raced the crash).
        let a = FakeProc::new(0, 40);
        let b = FakeProc::new(0, 30);
        let pa = smd.register_adopted("a", Arc::clone(&a) as Arc<dyn ReclaimChannel>, 40);
        let _pb = smd.register_adopted("b", Arc::clone(&b) as Arc<dyn ReclaimChannel>, 30);
        assert_eq!(smd.stats().assigned_pages, 70, "transient over-commit");
        assert_eq!(smd.stats().unassigned_pages(), 0, "saturates, no panic");
        // New demand squeezes the excess out through normal pressure.
        // Each round reclaims only the immediate need, so the 20-page
        // over-commit drains across a few denied rounds before the
        // grant lands — but it does land, without a panic or a stuck
        // ledger.
        let (pc, _) = smd.register("c", FakeProc::new(0, 0));
        let grant = (0..5).find_map(|_| smd.request_pages(pc, 10).ok());
        assert_eq!(grant, Some(10));
        let s = smd.stats();
        assert!(
            s.assigned_pages <= s.capacity_pages,
            "over-commit fully resolved: {} > {}",
            s.assigned_pages,
            s.capacity_pages
        );
        assert!(s.procs.iter().any(|p| p.pid == pa));
    }

    #[test]
    fn epochs_are_distinct_per_incarnation() {
        let machine = MachineMemory::unbounded();
        let a = Smd::new(SmdConfig::new(&machine, 10));
        let b = Smd::new(SmdConfig::new(&machine, 10));
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(a.stats().epoch, a.epoch());
    }
}
