//! The Soft Memory Allocator.
//!
//! One [`Sma`] instance manages all soft memory of one (simulated or
//! real) process: it owns the process-global frame depot, the
//! soft-memory budget granted by the daemon, and one isolated heap per
//! registered Soft Data Structure. Its headline capability — the reason
//! it exists — is [`Sma::reclaim`]: yielding pages back on demand (the
//! tiered protocol is documented on that method and its
//! `ReclaimReport`).
//!
//! # Fast path
//!
//! The allocator is sharded per SDS. Each SDS owns a shard: its heap,
//! plus a small *magazine* of wholly-free page frames, behind its own
//! lock. The common alloc/free cycle therefore touches only the owning
//! shard's lock:
//!
//! * **alloc** — carve a slot from a partial page, or pop a frame from
//!   the magazine; on a magazine miss, *refill* from the lock-free
//!   global frame depot. Only a depot miss (budget growth, fresh OS
//!   pages) takes the global allocator lock.
//! * **free** — return the slot; a page that comes wholly free parks in
//!   the magazine (up to [`SmaConfig::sds_retain_pages`]), overflows to
//!   the depot (up to [`SmaConfig::free_pool_retain_pages`]), and only
//!   then is released to the OS under the global lock.
//!
//! Byte reads are *guarded and zero-copy*: [`Sma::with_bytes`] resolves
//! the slot once under the shard lock, pins an SMR read guard (see
//! [`crate::smr`]), and hands the caller a borrowed `&[u8]` straight
//! into the slab page — no copy, no retry loop, no locked fallback.
//! Frees that race an active guard defer to a per-page *limbo* list and
//! only recycle once every reader epoch has advanced. Reclamation
//! quiesces magazines with a steal-back protocol (documented in the
//! reclaim module), so parked pages remain fully reclaimable; pages
//! readers may still observe park on the SMA's limbo list instead and
//! reach the depot after their grace period.
//!
//! Pages parked in magazines and the depot still count against
//! `held_pages`: moving a frame between a heap, a magazine, and the
//! depot never changes machine-level accounting, only its parking spot.

mod metrics;
mod reclaim_impl;

pub use metrics::SmaMetrics;
pub use reclaim_impl::{ReclaimReport, SdsContribution};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use softmem_telemetry::{Gauge, Timer};

use crate::budget::BudgetSource;
use crate::config::SmaConfig;
use crate::error::{SoftError, SoftResult};
use crate::handle::{AllocKind, Priority, RawHandle, SdsId, SoftHandle, SoftSlot, SoftView};
use crate::heap::{drop_fn_for, DropFn, FreeOutcome, HeapStats, SdsHeap, SlabPage, MAX_SLAB_ALLOC};
use crate::page::{FrameDepot, PageFrame, PagePool};
use crate::smr::{ReadGuard, SmrRegistry};
use crate::stats::SmaStats;

/// How many times an allocation retries after budget grants before
/// giving up (guards against a budget source that grants tiny amounts
/// forever).
const MAX_BUDGET_RETRIES: usize = 8;

/// Largest single allocation the SMA accepts (1 GiB). Bigger requests
/// are almost certainly arithmetic bugs; failing them early with
/// [`SoftError::AllocTooLarge`] beats asking the daemon to reclaim
/// the whole machine.
pub const MAX_ALLOC_BYTES: usize = 1 << 30;

/// A data structure's hook for SMA-driven reclamation.
///
/// The SMA's reclamation is two-tiered (§3.1): the SMA picks SDSs in
/// ascending priority order; each chosen SDS picks *which allocations*
/// to give up (oldest first, least-recently-used first, everything —
/// whatever its engineer decided) by freeing them through the normal
/// allocator API.
///
/// Implementations are called **without** any SMA lock held and free
/// through the regular `Sma` methods. They should keep freeing until
/// roughly `bytes` bytes are freed or they run out of allocations.
pub trait SdsReclaimer: Send + Sync {
    /// Frees about `bytes` bytes of this SDS's soft allocations,
    /// returning the bytes actually freed (0 ⇒ nothing left to give).
    fn reclaim(&self, bytes: usize) -> usize;
}

impl<F> SdsReclaimer for F
where
    F: Fn(usize) -> usize + Send + Sync,
{
    fn reclaim(&self, bytes: usize) -> usize {
        self(bytes)
    }
}

/// Per-SDS snapshot returned by [`Sma::sds_stats`].
#[derive(Debug, Clone)]
pub struct SdsStats {
    /// SDS id.
    pub id: SdsId,
    /// Debug name given at registration.
    pub name: String,
    /// Current reclamation priority.
    pub priority: Priority,
    /// Whether this SDS demotes evictions into a cold tier (see
    /// [`Sma::set_demotable`]) — reclamation visits it earlier within
    /// its priority class because squeezing it loses no data.
    pub demotes: bool,
    /// Heap accounting.
    pub heap: HeapStats,
    /// Wholly-free pages parked in this SDS's magazine.
    pub magazine_pages: usize,
    /// Depot→magazine refill events on this SDS's alloc fast path.
    pub magazine_refills: u64,
    /// Pages reclamation stole back out of this SDS's magazine.
    pub magazine_steal_backs: u64,
}

/// The dynamically named per-SDS gauges (`sds{i}_magazine_pages` …).
/// All writes happen under the owning shard's lock, so plain `set` is
/// race-free; the gauges are zeroed when the SDS is destroyed and when
/// its registry index is recycled.
pub(crate) struct SdsGauges {
    pub(crate) magazine_pages: Arc<Gauge>,
    pub(crate) magazine_refills: Arc<Gauge>,
    pub(crate) magazine_steal_backs: Arc<Gauge>,
}

impl SdsGauges {
    fn new(registry: &softmem_telemetry::Registry, idx: usize) -> Self {
        SdsGauges {
            magazine_pages: registry.gauge(&format!("sds{idx}_magazine_pages")),
            magazine_refills: registry.gauge(&format!("sds{idx}_magazine_refills")),
            magazine_steal_backs: registry.gauge(&format!("sds{idx}_magazine_steal_backs")),
        }
    }

    fn reset(&self) {
        self.magazine_pages.set(0);
        self.magazine_refills.set(0);
        self.magazine_steal_backs.set(0);
    }
}

/// The lock-protected half of one SDS shard.
pub(crate) struct SdsState {
    pub(crate) name: String,
    pub(crate) priority: Priority,
    /// True when this SDS's reclaimer demotes evicted values into a
    /// cold tier instead of destroying them. Evicting from such an SDS
    /// is near-zero-disturbance (the data survives, compressed), so
    /// tier-3 reclamation prefers it over non-demoting peers of the
    /// same priority.
    pub(crate) demotes: bool,
    pub(crate) heap: SdsHeap,
    /// This SDS's magazine: wholly-free frames kept for lock-free
    /// (global-lock-free) re-allocation. Capacity is
    /// [`SmaConfig::sds_retain_pages`].
    pub(crate) magazine: Vec<PageFrame>,
    pub(crate) reclaimer: Option<Arc<dyn SdsReclaimer>>,
    /// Pages this SDS's frees sent straight back to the OS (retention
    /// overflow and span releases). Tier-3 reclamation reads the delta
    /// across a callback to credit the *target* SDS exactly — a global
    /// counter would cross-attribute pages between concurrent
    /// reclamation passes and double-shrink the budget.
    pub(crate) pages_auto_released: u64,
    /// Depot→magazine refill events (alloc fast-path depot pulls).
    pub(crate) magazine_refills: u64,
    /// Pages reclamation stole back out of the magazine.
    pub(crate) magazine_steal_backs: u64,
    /// Set by [`Sma::destroy_sds`] under this lock. In-flight
    /// operations that captured the shard `Arc` before the registry
    /// entry was removed observe it and bail instead of touching a
    /// dismantled heap.
    pub(crate) dead: bool,
    pub(crate) gauges: SdsGauges,
}

/// One SDS's shard: its state lock plus the lock-free reclaim guard.
pub(crate) struct SdsShard {
    pub(crate) id: SdsId,
    /// Held (CAS true) by the reclamation pass currently squeezing this
    /// SDS in tier 3. Concurrent [`Sma::reclaim`] calls skip a guarded
    /// SDS instead of queueing behind its callback, so reclamations
    /// targeting different SDSs proceed in parallel. Lives outside the
    /// state mutex by design: it is read/written around the *unlocked*
    /// callback section.
    pub(crate) reclaim_guard: AtomicBool,
    pub(crate) state: Mutex<SdsState>,
}

/// The global slow-path state: budget arithmetic and the OS interface.
/// Taken only on depot misses, page releases, budget changes, and
/// reclamation bookkeeping — never on the alloc/free/read fast paths.
pub(crate) struct SmaInner {
    /// Current soft budget in pages (held + slack).
    pub(crate) budget_pages: usize,
    /// Pages physically held (heaps + magazines + depot).
    pub(crate) held_pages: usize,
    pub(crate) reclaims_total: u64,
    pub(crate) pages_reclaimed_total: u64,
    pub(crate) budget_granted_total: u64,
    /// The OS interface owning the frame arenas.
    pub(crate) pool: PagePool,
}

impl Drop for SmaInner {
    fn drop(&mut self) {
        // Return the machine claims of every physically held page
        // (depot + magazines + SDS heaps): the frames themselves are
        // arena leases the pool recovers, but the machine model must
        // see the capacity come back when the process exits.
        self.pool.machine().release(self.held_pages);
    }
}

/// A page detached from its heap while readers may still observe its
/// slots: recycled by [`Sma`]'s limbo flush once the SMR registry
/// clears `retire_epoch`.
struct LimboPage {
    page: SlabPage,
    retire_epoch: u64,
}

/// A whole heap detached by a non-blocking [`Sma::destroy_sds`] while
/// readers may still observe its slots: destroyed (destructors run,
/// frames recycled) by the limbo flush once the SMR registry clears
/// `retire_epoch`. Keeping the heap intact — rather than waiting for
/// the guards — means destroy never blocks behind a parked reader.
struct LimboHeap {
    heap: SdsHeap,
    /// `heap.held_pages()` at park time, for the limbo-page gauge.
    pages: usize,
    retire_epoch: u64,
}

#[derive(Default)]
struct LimboState {
    pages: Vec<LimboPage>,
    heaps: Vec<LimboHeap>,
}

/// The SMA-level limbo list. A newtype so teardown can run the parked
/// entries' deferred destructors: by the time the allocator drops, no
/// guard can be live (guards borrow the `Sma` through their closures),
/// so draining is safe.
#[derive(Default)]
struct LimboList(Mutex<LimboState>);

impl Drop for LimboList {
    fn drop(&mut self) {
        let st = self.0.get_mut();
        for lp in st.pages.drain(..) {
            let _frame = lp.page.drain_limbo_and_take_frame();
        }
        // Parked heaps drop in place: `SdsHeap::drop` runs the
        // remaining payload destructors.
        st.heaps.clear();
    }
}

/// The Soft Memory Allocator for one process.
///
/// Thread-safe: share it with `Arc<Sma>`. Access closures passed to
/// [`Sma::with_value`] and friends run under the owning SDS's shard
/// lock (not a global lock) and must not call back into the same `Sma`
/// for the same SDS; [`Sma::with_bytes`] runs its closure on a
/// borrowed slice protected by an SMR read guard, with no lock held at
/// all.
pub struct Sma {
    // Field order is drop order: shards (heaps, magazines), the depot
    // and the limbo list hold arena leases, so they must drop before
    // `inner` (the pool owning the arenas).
    registry: RwLock<Vec<Option<Arc<SdsShard>>>>,
    /// The process-global free pool: a lock-free fixed-capacity depot
    /// of idle, backed page frames.
    depot: FrameDepot,
    /// Epoch registry backing guarded zero-copy reads.
    smr: Arc<SmrRegistry>,
    /// Pages harvested from heaps while a guard could still observe
    /// them; flushed to the depot once their retirement horizon clears.
    limbo: LimboList,
    /// Mirror of `limbo`'s length, readable without the limbo lock
    /// (stats, fast emptiness checks). Updated under the limbo lock.
    limbo_len: AtomicUsize,
    pub(crate) inner: Mutex<SmaInner>,
    pub(crate) cfg: SmaConfig,
    budget_source: RwLock<Option<Arc<dyn BudgetSource>>>,
    pub(crate) metrics: SmaMetrics,
    /// Ground truth for `SmaStats::magazine_refills_total`: unlike the
    /// per-SDS counters, survives SDS destruction.
    magazine_refills_total: AtomicU64,
    /// Ground truth for `SmaStats::magazine_steal_backs_total`.
    magazine_steal_backs_total: AtomicU64,
}

impl Sma {
    /// Creates an allocator with the given configuration.
    pub fn with_config(cfg: SmaConfig) -> Arc<Self> {
        // The PagePool's own cache is disabled: the SMA's depot *is*
        // the process-level cache, and budget accounting covers it.
        let pool = PagePool::new(Arc::clone(&cfg.machine), 0);
        let depot = FrameDepot::new(cfg.free_pool_retain_pages);
        let sma = Arc::new(Sma {
            registry: RwLock::new(Vec::new()),
            depot,
            smr: Arc::new(SmrRegistry::new()),
            limbo: LimboList::default(),
            limbo_len: AtomicUsize::new(0),
            inner: Mutex::new(SmaInner {
                budget_pages: cfg.initial_budget_pages,
                held_pages: 0,
                reclaims_total: 0,
                pages_reclaimed_total: 0,
                budget_granted_total: 0,
                pool,
            }),
            cfg,
            budget_source: RwLock::new(None),
            metrics: SmaMetrics::new(),
            magazine_refills_total: AtomicU64::new(0),
            magazine_steal_backs_total: AtomicU64::new(0),
        });
        sma.metrics.sync_occupancy(&sma.inner.lock());
        sma
    }

    /// Creates an allocator on a private, effectively unbounded machine
    /// with `budget_pages` of budget — convenient for tests and
    /// standalone examples.
    pub fn standalone(budget_pages: usize) -> Arc<Self> {
        Self::with_config(SmaConfig::for_testing(budget_pages))
    }

    /// The machine model this allocator draws physical pages from.
    pub fn machine(&self) -> &Arc<crate::page::MachineMemory> {
        &self.cfg.machine
    }

    /// Attaches the budget source consulted when allocations exceed the
    /// current budget (set by the daemon client at registration).
    pub fn set_budget_source(&self, source: Arc<dyn BudgetSource>) {
        *self.budget_source.write() = Some(source);
    }

    /// Detaches the budget source (daemon disconnect).
    pub fn clear_budget_source(&self) {
        *self.budget_source.write() = None;
    }

    /// This allocator's telemetry registry — lock-free mirrors the
    /// testkit certifies against [`Sma::stats`] ground truth.
    pub fn metrics(&self) -> &SmaMetrics {
        &self.metrics
    }

    /// Adds `pages` to the soft budget (a grant pushed by the daemon).
    ///
    /// One critical section, no other locks taken: safe to call from a
    /// [`BudgetSource`] callback re-entering the SMA mid-allocation.
    pub fn grow_budget(&self, pages: usize) {
        let inner = &mut *self.inner.lock();
        inner.budget_pages += pages;
        inner.budget_granted_total += pages as u64;
        self.metrics.budget_granted_total.add(pages as u64);
        self.metrics.sync_occupancy(inner);
    }

    /// Voluntarily returns up to `pages` of unused budget (slack only;
    /// held pages are untouched). Returns the pages actually shed —
    /// the caller hands them back to the daemon.
    ///
    /// Like [`Sma::grow_budget`], a single critical section that is
    /// safe to call from a re-entrant [`BudgetSource`] callback.
    pub fn shrink_budget(&self, pages: usize) -> usize {
        let inner = &mut *self.inner.lock();
        let slack = inner.budget_pages.saturating_sub(inner.held_pages);
        let take = slack.min(pages);
        inner.budget_pages -= take;
        self.metrics.sync_occupancy(inner);
        take
    }

    /// Current budget in pages.
    pub fn budget_pages(&self) -> usize {
        self.inner.lock().budget_pages
    }

    /// Pages physically held by soft memory (heaps + magazines +
    /// depot).
    pub fn held_pages(&self) -> usize {
        self.inner.lock().held_pages
    }

    // ------------------------------------------------------------------
    // SDS registry
    // ------------------------------------------------------------------

    /// Looks up the shard for `id`. Clones the `Arc` (instead of
    /// holding the registry read lock across the operation) so a
    /// long-running shard operation never blocks `destroy_sds` on an
    /// unrelated SDS.
    pub(crate) fn shard(&self, id: SdsId) -> SoftResult<Arc<SdsShard>> {
        self.registry
            .read()
            .get(id.index() as usize)
            .and_then(|slot| slot.as_ref().map(Arc::clone))
            .ok_or(SoftError::UnknownSds(id))
    }

    /// Every live shard, in registration order.
    pub(crate) fn shards(&self) -> Vec<Arc<SdsShard>> {
        self.registry.read().iter().flatten().cloned().collect()
    }

    /// Registers a Soft Data Structure, giving it an isolated heap and
    /// an empty magazine.
    pub fn register_sds(&self, name: impl Into<String>, priority: Priority) -> SdsId {
        let mut registry = self.registry.write();
        let idx = registry
            .iter()
            .position(Option::is_none)
            .unwrap_or(registry.len());
        let id = SdsId(idx as u32);
        let gauges = SdsGauges::new(self.metrics.registry(), idx);
        gauges.reset();
        let shard = Arc::new(SdsShard {
            id,
            reclaim_guard: AtomicBool::new(false),
            state: Mutex::new(SdsState {
                name: name.into(),
                priority,
                demotes: false,
                heap: SdsHeap::new(id),
                magazine: Vec::with_capacity(self.cfg.sds_retain_pages),
                reclaimer: None,
                pages_auto_released: 0,
                magazine_refills: 0,
                magazine_steal_backs: 0,
                dead: false,
                gauges,
            }),
        });
        if idx == registry.len() {
            registry.push(Some(shard));
        } else {
            registry[idx] = Some(shard);
        }
        id
    }

    /// Installs the reclaimer invoked when the SMA orders this SDS to
    /// give up memory. SDS implementations call this from their
    /// constructors.
    pub fn set_reclaimer(&self, id: SdsId, reclaimer: Arc<dyn SdsReclaimer>) -> SoftResult<()> {
        let shard = self.shard(id)?;
        let mut st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(id));
        }
        st.reclaimer = Some(reclaimer);
        Ok(())
    }

    /// Updates an SDS's reclamation priority.
    pub fn set_priority(&self, id: SdsId, priority: Priority) -> SoftResult<()> {
        let shard = self.shard(id)?;
        let mut st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(id));
        }
        st.priority = priority;
        Ok(())
    }

    /// Marks an SDS as *demoting*: its reclaim callback moves evicted
    /// values into a cold tier instead of destroying them, so evicting
    /// from it is near-zero-disturbance. Tier-3 reclamation visits
    /// demoting SDSs before non-demoting peers of the same priority
    /// (priority itself still dominates — the paper's contract that
    /// low-priority SDSs are squeezed first is unchanged).
    pub fn set_demotable(&self, id: SdsId, demotes: bool) -> SoftResult<()> {
        let shard = self.shard(id)?;
        let mut st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(id));
        }
        st.demotes = demotes;
        Ok(())
    }

    /// Unregisters an SDS, dropping all its live allocations and
    /// recycling its pages (magazine included) into the depot / OS.
    pub fn destroy_sds(&self, id: SdsId) -> SoftResult<()> {
        let shard = {
            let mut registry = self.registry.write();
            registry
                .get_mut(id.index() as usize)
                .and_then(Option::take)
                .ok_or(SoftError::UnknownSds(id))?
        };
        let mut st = shard.state.lock();
        st.dead = true;
        let magazine: Vec<PageFrame> = st.magazine.drain(..).collect();
        self.metrics.magazine_pages.add(-(magazine.len() as i64));
        let heap = std::mem::replace(&mut st.heap, SdsHeap::new(id));
        st.gauges.reset();
        drop(st);
        // A zero-copy reader that resolved before `dead` was set may
        // still hold a borrow into this heap, and destroy must not
        // wait it out (a guard can legally be parked for a long time).
        // Under active guards the intact heap is parked in limbo
        // instead — destructors deferred, pages still held — and the
        // first flush after the guards drop finishes the teardown.
        // Magazine frames hold no observable bytes, so they recycle
        // immediately either way.
        let (frames, spans) = if self.smr.active_guards() > 0 && heap.held_pages() > 0 {
            let retire_epoch = self.smr.retire();
            self.note_guard_stall();
            self.park_limbo_heap(heap, retire_epoch);
            (Vec::new(), Vec::new())
        } else {
            heap.destroy()
        };
        let mut to_os = Vec::new();
        for frame in magazine.into_iter().chain(frames) {
            match self.depot.push(frame) {
                Ok(()) => self.metrics.free_pool_pages.add(1),
                Err(frame) => to_os.push(frame),
            }
        }
        if !to_os.is_empty() || !spans.is_empty() {
            let inner = &mut *self.inner.lock();
            for frame in to_os {
                inner.pool.release_to_os(frame);
                inner.held_pages -= 1;
            }
            for span in spans {
                inner.held_pages -= span.pages();
                inner.pool.release_span(span);
            }
            self.metrics.sync_occupancy(inner);
        }
        self.flush_limbo_pages();
        Ok(())
    }

    /// Snapshot of one SDS's accounting.
    pub fn sds_stats(&self, id: SdsId) -> SoftResult<SdsStats> {
        let shard = self.shard(id)?;
        let st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(id));
        }
        Ok(Self::snapshot_sds(&shard, &st))
    }

    /// Snapshot of every registered SDS, in registration order. The
    /// testkit's metrics-consistency family uses this to cross-check
    /// the per-SDS magazine gauges.
    pub fn all_sds_stats(&self) -> Vec<SdsStats> {
        self.shards()
            .iter()
            .filter_map(|shard| {
                let st = shard.state.lock();
                if st.dead {
                    None
                } else {
                    Some(Self::snapshot_sds(shard, &st))
                }
            })
            .collect()
    }

    fn snapshot_sds(shard: &SdsShard, st: &SdsState) -> SdsStats {
        SdsStats {
            id: shard.id,
            name: st.name.clone(),
            priority: st.priority,
            demotes: st.demotes,
            heap: st.heap.stats(),
            magazine_pages: st.magazine.len(),
            magazine_refills: st.magazine_refills,
            magazine_steal_backs: st.magazine_steal_backs,
        }
    }

    // ------------------------------------------------------------------
    // Magazine / depot plumbing
    // ------------------------------------------------------------------

    /// Pops a frame from the shard's magazine, maintaining the gauges.
    fn magazine_pop(&self, st: &mut SdsState) -> Option<PageFrame> {
        let frame = st.magazine.pop()?;
        self.metrics.magazine_pages.add(-1);
        st.gauges.magazine_pages.set(st.magazine.len() as i64);
        Some(frame)
    }

    /// Pops a frame from the global depot, maintaining its gauge.
    pub(crate) fn depot_pop(&self) -> Option<PageFrame> {
        let frame = self.depot.pop()?;
        self.metrics.free_pool_pages.add(-1);
        Some(frame)
    }

    /// Parks a harvested wholly-free frame: magazine (up to capacity) →
    /// depot → `to_os` (the caller releases those under the slow-path
    /// lock).
    fn park_frame(&self, st: &mut SdsState, frame: PageFrame, to_os: &mut Vec<PageFrame>) {
        if st.magazine.len() < self.cfg.sds_retain_pages {
            st.magazine.push(frame);
            self.metrics.magazine_pages.add(1);
            st.gauges.magazine_pages.set(st.magazine.len() as i64);
        } else {
            match self.depot.push(frame) {
                Ok(()) => self.metrics.free_pool_pages.add(1),
                Err(frame) => to_os.push(frame),
            }
        }
    }

    /// Steals up to `want` parked pages out of the shard's magazine —
    /// the reclamation *steal-back* protocol. Caller holds the shard
    /// lock and releases the frames under the slow-path lock.
    pub(crate) fn steal_magazine(&self, st: &mut SdsState, want: usize) -> Vec<PageFrame> {
        let steal = st.magazine.len().min(want);
        if steal == 0 {
            return Vec::new();
        }
        let at = st.magazine.len() - steal;
        let frames: Vec<PageFrame> = st.magazine.drain(at..).collect();
        st.magazine_steal_backs += steal as u64;
        st.gauges.magazine_pages.set(st.magazine.len() as i64);
        st.gauges
            .magazine_steal_backs
            .set(st.magazine_steal_backs as i64);
        self.metrics.magazine_pages.add(-(steal as i64));
        self.magazine_steal_backs_total
            .fetch_add(steal as u64, Ordering::Relaxed);
        self.metrics.magazine_steal_backs_total.add(steal as u64);
        frames
    }

    // ------------------------------------------------------------------
    // SMR plumbing
    // ------------------------------------------------------------------

    /// Pins an SMR read guard. While the guard lives, no slot retired
    /// at or after its epoch is recycled. [`Sma::with_bytes`] pins
    /// internally; this entry point exists for tests and harnesses
    /// that need to hold a guard across other operations (the
    /// stalled-reader campaign).
    pub fn pin(&self) -> ReadGuard {
        self.smr.pin()
    }

    /// The allocator's SMR registry (tests / diagnostics).
    pub fn smr(&self) -> &Arc<SmrRegistry> {
        &self.smr
    }

    /// Pages currently parked on the SMA limbo list (ground truth for
    /// the `smr_limbo_pages` gauge).
    pub fn limbo_pages(&self) -> usize {
        self.limbo_len.load(Ordering::Relaxed)
    }

    /// Records one guard-induced stall in both the SMR ground truth
    /// and its telemetry mirror.
    pub(crate) fn note_guard_stall(&self) {
        self.smr.note_stall();
        self.metrics.smr_guard_stalls_total.add(1);
    }

    /// Retires everything invalidated so far and blocks until no other
    /// thread's guard can observe it. Used by in-place writers (their
    /// grace period before mutating bytes a zero-copy reader may be
    /// borrowing) and by destructive paths (SDS destroy) that are
    /// about to run destructors and recycle frames without limbo
    /// indirection. One atomic load when no guard is active.
    fn synchronize_readers(&self) {
        if self.smr.active_guards() == 0 {
            return;
        }
        let e = self.smr.retire();
        if !self.smr.safe_excluding_self(e) {
            self.note_guard_stall();
        }
        self.smr.synchronize(e);
    }

    /// Parks heap-detached pages on the SMA limbo list (reclamation's
    /// deferred-harvest stage).
    pub(crate) fn park_limbo_pages(&self, pages: Vec<(SlabPage, u64)>) {
        if pages.is_empty() {
            return;
        }
        let n = pages.len() as i64;
        let mut limbo = self.limbo.0.lock();
        for (page, retire_epoch) in pages {
            limbo.pages.push(LimboPage { page, retire_epoch });
        }
        let total = Self::limbo_page_total(&limbo);
        self.limbo_len.store(total, Ordering::Relaxed);
        drop(limbo);
        self.metrics.smr_limbo_pages.add(n);
    }

    /// Parks a whole detached heap (non-blocking SDS destroy under
    /// active guards) on the SMA limbo list.
    fn park_limbo_heap(&self, heap: SdsHeap, retire_epoch: u64) {
        let pages = heap.held_pages();
        let mut limbo = self.limbo.0.lock();
        limbo.heaps.push(LimboHeap {
            heap,
            pages,
            retire_epoch,
        });
        let total = Self::limbo_page_total(&limbo);
        self.limbo_len.store(total, Ordering::Relaxed);
        drop(limbo);
        self.metrics.smr_limbo_pages.add(pages as i64);
    }

    /// Pages across both kinds of limbo entry (ground truth for the
    /// `smr_limbo_pages` gauge).
    fn limbo_page_total(limbo: &LimboState) -> usize {
        limbo.pages.len() + limbo.heaps.iter().map(|h| h.pages).sum::<usize>()
    }

    /// Returns every limbo entry whose retirement horizon has cleared
    /// to the depot (overflow goes to the OS under the global lock),
    /// running its deferred destructors. Cheap no-op when the list is
    /// empty.
    pub(crate) fn flush_limbo_pages(&self) {
        if self.limbo_len.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut freed_pages = Vec::new();
        let mut freed_heaps = Vec::new();
        {
            let mut limbo = self.limbo.0.lock();
            let mut i = 0;
            while i < limbo.pages.len() {
                if self.smr.safe_to_reclaim(limbo.pages[i].retire_epoch) {
                    freed_pages.push(limbo.pages.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            let mut i = 0;
            while i < limbo.heaps.len() {
                if self.smr.safe_to_reclaim(limbo.heaps[i].retire_epoch) {
                    freed_heaps.push(limbo.heaps.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            let total = Self::limbo_page_total(&limbo);
            self.limbo_len.store(total, Ordering::Relaxed);
        }
        if freed_pages.is_empty() && freed_heaps.is_empty() {
            return;
        }
        let cleared = freed_pages.len() + freed_heaps.iter().map(|h| h.pages).sum::<usize>();
        self.metrics.smr_limbo_pages.add(-(cleared as i64));
        let mut to_os = Vec::new();
        let mut spans = Vec::new();
        for lp in freed_pages {
            let frame = lp.page.drain_limbo_and_take_frame();
            match self.depot.push(frame) {
                Ok(()) => self.metrics.free_pool_pages.add(1),
                Err(frame) => to_os.push(frame),
            }
        }
        for lh in freed_heaps {
            let (frames, heap_spans) = lh.heap.destroy();
            for frame in frames {
                match self.depot.push(frame) {
                    Ok(()) => self.metrics.free_pool_pages.add(1),
                    Err(frame) => to_os.push(frame),
                }
            }
            spans.extend(heap_spans);
        }
        if !to_os.is_empty() || !spans.is_empty() {
            let inner = &mut *self.inner.lock();
            for frame in to_os {
                inner.pool.release_to_os(frame);
                inner.held_pages -= 1;
            }
            for span in spans {
                inner.held_pages -= span.pages();
                inner.pool.release_span(span);
            }
            self.metrics.sync_occupancy(inner);
        }
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates `len` bytes of soft memory in `sds` — the `soft_malloc`
    /// of the paper's API.
    ///
    /// If the budget is insufficient and a budget source is attached,
    /// the SMA requests more budget (in configured chunks, so daemon
    /// round-trips amortise over many allocations) and retries.
    pub fn alloc_bytes(&self, sds: SdsId, len: usize) -> SoftResult<SoftHandle> {
        let raw = self.alloc_retrying(sds, len.max(1), None, |_| {})?;
        Ok(SoftHandle { raw, len })
    }

    /// Moves `value` into soft memory in `sds`.
    ///
    /// The value is dropped in place if the allocation is later
    /// reclaimed or freed without [`Sma::take_value`].
    ///
    /// # Examples
    ///
    /// ```
    /// use softmem_core::{Priority, Sma, SoftError};
    ///
    /// let sma = Sma::standalone(16);
    /// let sds = sma.register_sds("data", Priority::default());
    /// let slot = sma.alloc_value(sds, String::from("soft"))?;
    /// assert_eq!(sma.with_value(&slot, |s| s.len())?, 4);
    /// let back = sma.take_value(slot)?;
    /// assert_eq!(back, "soft");
    /// # Ok::<(), SoftError>(())
    /// ```
    pub fn alloc_value<T: Send>(&self, sds: SdsId, value: T) -> SoftResult<SoftSlot<T>> {
        let len = std::mem::size_of::<T>().max(1);
        debug_assert!(std::mem::align_of::<T>() <= 64 || len > MAX_SLAB_ALLOC);
        let mut value = Some(value);
        let raw = self.alloc_retrying(sds, len, drop_fn_for::<T>(), |ptr| {
            // SAFETY: `ptr` addresses a fresh slot of at least
            // `size_of::<T>()` bytes, aligned to the slot size (≥ the
            // value's alignment); the value is moved in exactly once.
            unsafe { ptr.cast::<T>().write(value.take().expect("init runs once")) }
        })?;
        Ok(SoftSlot::new(raw))
    }

    /// Allocation with budget-growth retry, instrumented: counts every
    /// attempt, times one in [`softmem_telemetry::SAMPLE_EVERY`]
    /// (including any daemon round-trips the retry loop incurs), and
    /// counts terminal failures.
    fn alloc_retrying(
        &self,
        sds: SdsId,
        len: usize,
        drop_fn: Option<DropFn>,
        init: impl FnMut(*mut u8),
    ) -> SoftResult<RawHandle> {
        let timer = Timer::start_sampled(self.metrics.allocs_total.inc());
        let result = self.alloc_retrying_inner(sds, len, drop_fn, init);
        match &result {
            Ok(_) => timer.observe(&self.metrics.alloc_ns),
            Err(_) => self.metrics.alloc_failures_total.add(1),
        }
        result
    }

    /// Allocation with budget-growth retry. `init` runs under the shard
    /// lock immediately after the slot is carved out, so no reclamation
    /// can observe an uninitialised slot. The budget source is invoked
    /// with **no** SMA locks held, so a callback may re-enter the SMA
    /// (reclaim, shrink, even allocate) without deadlocking.
    fn alloc_retrying_inner(
        &self,
        sds: SdsId,
        len: usize,
        drop_fn: Option<DropFn>,
        mut init: impl FnMut(*mut u8),
    ) -> SoftResult<RawHandle> {
        let mut attempts = 0;
        loop {
            let shortfall = {
                match self.try_alloc(sds, len, drop_fn, &mut init) {
                    Ok(raw) => return Ok(raw),
                    Err(SoftError::BudgetExceeded {
                        requested_pages,
                        available_pages,
                    }) => requested_pages - available_pages.min(requested_pages),
                    Err(other) => return Err(other),
                }
            };
            attempts += 1;
            if attempts > MAX_BUDGET_RETRIES {
                return Err(SoftError::BudgetExceeded {
                    requested_pages: shortfall,
                    available_pages: 0,
                });
            }
            let source = self.budget_source.read().clone();
            let Some(source) = source else {
                return Err(SoftError::BudgetExceeded {
                    requested_pages: shortfall,
                    available_pages: 0,
                });
            };
            let want = shortfall.max(self.cfg.auto_grow_chunk_pages);
            let grant = source.grant_more(shortfall, want)?;
            if grant.pages == 0 {
                return Err(SoftError::BudgetExceeded {
                    requested_pages: shortfall,
                    available_pages: 0,
                });
            }
            if !grant.already_applied {
                self.grow_budget(grant.pages);
            }
        }
    }

    /// One allocation attempt. Fast path: the shard lock only. The
    /// global lock is taken just for budget-checked page acquisition
    /// when both the magazine and the depot miss.
    fn try_alloc(
        &self,
        sds: SdsId,
        len: usize,
        drop_fn: Option<DropFn>,
        init: &mut impl FnMut(*mut u8),
    ) -> SoftResult<RawHandle> {
        if len > MAX_ALLOC_BYTES {
            return Err(SoftError::AllocTooLarge {
                requested: len,
                max: MAX_ALLOC_BYTES,
            });
        }
        let shard = self.shard(sds)?;
        let mut st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(sds));
        }
        if len > MAX_SLAB_ALLOC {
            // Span path: spans always come from the OS interface, so
            // this path is global-locked by nature (and rare).
            let pages = SdsHeap::pages_needed(len);
            let span = {
                let inner = &mut *self.inner.lock();
                if inner.held_pages + pages > inner.budget_pages {
                    return Err(SoftError::BudgetExceeded {
                        requested_pages: pages,
                        available_pages: inner.budget_pages.saturating_sub(inner.held_pages),
                    });
                }
                let span = inner.pool.acquire_span(pages)?;
                inner.held_pages += pages;
                self.metrics.sync_occupancy(inner);
                span
            };
            let raw = st.heap.insert_span(span, len, drop_fn);
            let (ptr, _) = st.heap.resolve(raw).expect("just inserted");
            init(ptr);
            return Ok(raw);
        }
        // Slab path, tried in escalating order of cost:
        // attached partial/free pages → magazine → depot (with a batch
        // refill) → budget-checked OS acquisition under the global
        // lock.
        match st.heap.alloc_slab(len, drop_fn, None) {
            Ok(raw) => {
                let (ptr, _) = st.heap.resolve(raw).expect("just allocated");
                init(ptr);
                return Ok(raw);
            }
            Err(SoftError::BudgetExceeded { .. }) => {}
            Err(other) => return Err(other),
        }
        let frame = if let Some(frame) = self.magazine_pop(&mut st) {
            frame
        } else if let Some(frame) = self.depot_pop() {
            // Refill event: pull a small batch while we are at the
            // depot anyway, so the next few allocations stay on the
            // magazine fast path.
            let room = self.cfg.sds_retain_pages.saturating_sub(st.magazine.len());
            let batch = room.min(self.cfg.sds_retain_pages / 2);
            for _ in 0..batch {
                match self.depot_pop() {
                    Some(extra) => {
                        st.magazine.push(extra);
                        self.metrics.magazine_pages.add(1);
                    }
                    None => break,
                }
            }
            st.gauges.magazine_pages.set(st.magazine.len() as i64);
            st.magazine_refills += 1;
            st.gauges.magazine_refills.set(st.magazine_refills as i64);
            self.magazine_refills_total.fetch_add(1, Ordering::Relaxed);
            self.metrics.magazine_refills_total.add(1);
            frame
        } else {
            let inner = &mut *self.inner.lock();
            if inner.held_pages + 1 > inner.budget_pages {
                return Err(SoftError::BudgetExceeded {
                    requested_pages: 1,
                    available_pages: inner.budget_pages.saturating_sub(inner.held_pages),
                });
            }
            let frame = inner.pool.acquire()?;
            inner.held_pages += 1;
            self.metrics.sync_occupancy(inner);
            frame
        };
        let raw = st.heap.alloc_slab(len, drop_fn, Some(frame))?;
        let (ptr, _) = st.heap.resolve(raw).expect("just allocated");
        init(ptr);
        Ok(raw)
    }

    // ------------------------------------------------------------------
    // Freeing
    // ------------------------------------------------------------------

    /// Frees a byte allocation — the `soft_free` of the paper's API.
    pub fn free_bytes(&self, handle: SoftHandle) -> SoftResult<()> {
        self.free_raw(handle.raw, true).map(|_| ())
    }

    /// Frees a typed slot, dropping its value in place.
    pub fn free_value<T>(&self, slot: SoftSlot<T>) -> SoftResult<()> {
        self.free_raw(slot.raw, true).map(|_| ())
    }

    /// Moves the value out of a slot and frees it.
    pub fn take_value<T: Send>(&self, slot: SoftSlot<T>) -> SoftResult<T> {
        let shard = self.shard(slot.raw.sds)?;
        let value = {
            let mut st = shard.state.lock();
            if st.dead {
                return Err(SoftError::UnknownSds(slot.raw.sds));
            }
            let (ptr, _) = st.heap.resolve(slot.raw)?;
            // SAFETY: the slot is live (just resolved under the shard
            // lock) and holds an initialised `T` written by
            // `alloc_value`; the drop fn is disarmed before the slot is
            // freed, so the value is moved out exactly once and never
            // dropped in place.
            let value = unsafe { ptr.cast::<T>().read() };
            st.heap.disarm_drop(slot.raw).expect("slot verified live");
            value
        };
        // The handle was unique, but an SDS reclaimer may race this
        // free; the value is already moved out and its drop disarmed,
        // so losing that race is benign.
        let _ = self.free_raw(slot.raw, false);
        Ok(value)
    }

    pub(crate) fn free_raw(&self, raw: RawHandle, run_drop: bool) -> SoftResult<usize> {
        let timer = Timer::start_sampled(self.metrics.frees_total.inc());
        let shard = self.shard(raw.sds)?;
        let mut st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(raw.sds));
        }
        // Deferral decision, made under the shard lock that serialises
        // this free with every reader's resolve+pin: if any guard is
        // active the slot may be observed, so it parks in limbo (the
        // handle is revoked now; the memory and destructor wait out
        // the grace period). With no guard the free is immediate — the
        // pre-SMR fast path, byte for byte.
        let FreeOutcome {
            freed_bytes,
            released_span,
            page_now_free,
        } = if raw.kind == AllocKind::Slab && self.smr.active_guards() > 0 {
            let retire_epoch = self.smr.retire();
            st.heap.free_deferred(raw, run_drop, retire_epoch)?
        } else {
            st.heap.free(raw, run_drop)?
        };
        // Opportunistic slot-limbo flush: no-op unless earlier frees
        // deferred, in which case any slot whose readers have all
        // unpinned rejoins the free lists here.
        let flushed = if st.heap.limbo_slots() > 0 {
            let smr = &self.smr;
            st.heap.flush_limbo(&|e| smr.safe_to_reclaim(e))
        } else {
            0
        };
        let mut to_os = Vec::new();
        if page_now_free || (flushed > 0 && st.heap.wholly_free_pages() > 0) {
            for frame in st.heap.harvest_free_pages(0) {
                self.park_frame(&mut st, frame, &mut to_os);
            }
        }
        let mut auto_released = 0u64;
        if !to_os.is_empty() || released_span.is_some() {
            let inner = &mut *self.inner.lock();
            for frame in to_os {
                inner.pool.release_to_os(frame);
                inner.held_pages -= 1;
                auto_released += 1;
            }
            if let Some(span) = released_span {
                inner.held_pages -= span.pages();
                auto_released += span.pages() as u64;
                inner.pool.release_span(span);
            }
            self.metrics.sync_occupancy(inner);
        }
        st.pages_auto_released += auto_released;
        drop(st);
        // Page-level limbo drains on the same cadence (no-op when the
        // list is empty, which is the steady state).
        self.flush_limbo_pages();
        timer.observe(&self.metrics.free_ns);
        Ok(freed_bytes)
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Reads the bytes of an allocation — **zero-copy**.
    ///
    /// Slab-sized reads resolve the slot once under the shard lock,
    /// pin an SMR read guard ([`crate::smr`]), release the lock, and
    /// pass a borrowed `&[u8]` pointing straight into the slab page to
    /// `f`. No bytes are copied, there is no retry loop and no locked
    /// fallback. The guard keeps the borrow valid: a free that races
    /// the read parks the slot in limbo (revoking the handle but
    /// leaving the bytes and destructor untouched) until every guard
    /// pinned at or before the retirement has dropped, and writers
    /// wait out the same grace period before mutating in place — so a
    /// guarded reader never observes torn bytes, recycled memory, or
    /// bytes from a later generation.
    ///
    /// Consequently a read that starts on a live handle always
    /// completes: [`SoftError::Reclaimed`] is never surfaced to a
    /// guarded reader. A handle that is stale *before* the read starts
    /// fails with [`SoftError::Revoked`] as always. Span allocations
    /// use a locked read instead: span memory really is returned to
    /// the OS interface on free, so the shard lock (which serialises
    /// span frees) is the cheapest way to keep the borrow valid.
    ///
    /// Keep `f` short, and do not call back into this `Sma` from
    /// inside it: while the guard is pinned, frees anywhere on the
    /// allocator defer and in-place writers grace-wait, so a re-entrant
    /// call can deadlock against a writer already waiting on this very
    /// guard. Concurrent frees, writes, reclamation, and destroys from
    /// *other* threads are all safe — that is the point.
    pub fn with_bytes<R>(&self, handle: &SoftHandle, f: impl FnOnce(&[u8]) -> R) -> SoftResult<R> {
        let shard = self.shard(handle.raw.sds)?;
        if handle.raw.kind == AllocKind::Span {
            let st = shard.state.lock();
            if st.dead {
                return Err(SoftError::UnknownSds(handle.raw.sds));
            }
            let (ptr, len) = st.heap.resolve(handle.raw)?;
            // SAFETY: the span is live and `len` bytes long; the shard
            // lock is held for the closure's duration, so no
            // free/reclaim can race.
            let bytes = unsafe { std::slice::from_raw_parts(ptr, len) };
            return Ok(f(bytes));
        }
        let (ptr, len, _guard) = {
            let st = shard.state.lock();
            if st.dead {
                return Err(SoftError::UnknownSds(handle.raw.sds));
            }
            let (ptr, len) = st.heap.resolve(handle.raw)?;
            // Pin *before* releasing the lock: frees take this lock,
            // so any free of this slot orders after the pin and will
            // defer (or wait) on the guard.
            (ptr, len, self.smr.pin())
        };
        // SAFETY: the slot was live when resolved under the shard
        // lock and the pinned guard was published before the lock was
        // released, so every subsequent free of this slot defers to
        // limbo (bytes and destructor untouched) and every in-place
        // writer waits for the guard — the slice stays valid and
        // unaliased-by-writers for the closure's whole run.
        let bytes = unsafe { std::slice::from_raw_parts(ptr, len) };
        Ok(f(bytes))
    }

    /// Mutates the bytes of an allocation. Runs under the shard lock;
    /// if any SMR read guard is active the writer first waits out the
    /// grace period, so a guarded zero-copy reader never observes a
    /// torn buffer.
    pub fn with_bytes_mut<R>(
        &self,
        handle: &SoftHandle,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> SoftResult<R> {
        let shard = self.shard(handle.raw.sds)?;
        let st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(handle.raw.sds));
        }
        let (ptr, len) = st.heap.resolve(handle.raw)?;
        self.synchronize_readers();
        // SAFETY: the slot is live and `len` bytes long; exclusivity
        // holds because handles are unique, the shard lock blocks all
        // other locked access paths into this SDS, and the grace wait
        // above outlasts every guarded zero-copy reader that resolved
        // before we took the lock.
        let bytes = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
        Ok(f(bytes))
    }

    /// Reads a typed value. The closure runs under the owning SDS's
    /// shard lock (not a global lock): keep it short and do not call
    /// back into the same SDS.
    pub fn with_value<T, R>(&self, slot: &SoftSlot<T>, f: impl FnOnce(&T) -> R) -> SoftResult<R> {
        self.with_raw_value(slot.raw, f)
    }

    /// Reads a typed value like [`Sma::with_value`], but releases the
    /// shard lock before running `f`, so a slow reader — an eviction
    /// callback charged with per-entry cleanup cost, say — does not
    /// serialise the SDS's other operations behind it.
    ///
    /// After `f` returns, the slot's generation is revalidated under
    /// the shard lock: if the allocation was freed, reclaimed, or its
    /// SDS destroyed while `f` ran, the result is discarded and
    /// [`SoftError::Reclaimed`] is returned, so the caller can never
    /// act on data whose backing slot died mid-read.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the slot is not *written* for the
    /// duration of the call (reads of a torn value would be undefined
    /// behaviour for most `T`). In practice that means the caller
    /// exclusively owns the slot (it is unreachable from any shared
    /// structure) or holds the owning container's lock. Frees are
    /// tolerated: a guard pinned before the lock is released parks a
    /// racing free in limbo — the value and its destructor stay intact
    /// while `f` runs — and the revalidation then reports `Reclaimed`
    /// exactly once, to this caller.
    pub unsafe fn with_value_exclusive<T, R>(
        &self,
        slot: &SoftSlot<T>,
        f: impl FnOnce(&T) -> R,
    ) -> SoftResult<R> {
        let shard = self.shard(slot.raw.sds)?;
        let (ptr, guard) = {
            let st = shard.state.lock();
            if st.dead {
                return Err(SoftError::UnknownSds(slot.raw.sds));
            }
            let (ptr, _) = st.heap.resolve(slot.raw)?;
            // Pin before unlocking, exactly as `with_bytes` does: a
            // free racing `f` defers the slot to limbo instead of
            // running its destructor under the reader.
            (ptr, self.smr.pin())
        };
        // SAFETY: live slot holding an initialised `T` (written by
        // `alloc_value`). The lock is released, but the caller's
        // contract rules out concurrent writes, and the guard keeps a
        // racing free from dropping the value or recycling the slot.
        let value = unsafe { &*ptr.cast::<T>() };
        let result = f(value);
        // Drop the guard *before* re-taking the shard lock: a writer
        // may be grace-waiting on this guard while holding that lock,
        // and relocking with the guard still pinned would deadlock.
        // `f` is done, so nothing dereferences the slot past here.
        drop(guard);
        let st = shard.state.lock();
        if st.dead || st.heap.resolve(slot.raw).is_err() {
            return Err(SoftError::Reclaimed);
        }
        Ok(result)
    }

    /// Mutates a typed value. Runs under the shard lock and waits out
    /// any guarded readers (see [`Sma::with_bytes_mut`]).
    pub fn with_value_mut<T, R>(
        &self,
        slot: &mut SoftSlot<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> SoftResult<R> {
        let shard = self.shard(slot.raw.sds)?;
        let st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(slot.raw.sds));
        }
        let (ptr, _) = st.heap.resolve(slot.raw)?;
        self.synchronize_readers();
        // SAFETY: live slot holding an initialised `T` (written by
        // `alloc_value`); `&mut` exclusivity per `with_bytes_mut`.
        let value = unsafe { &mut *ptr.cast::<T>() };
        Ok(f(value))
    }

    /// Reads a typed value through a shared view.
    pub fn with_view<T, R>(&self, view: &SoftView<T>, f: impl FnOnce(&T) -> R) -> SoftResult<R> {
        self.with_raw_value(view.raw, f)
    }

    fn with_raw_value<T, R>(&self, raw: RawHandle, f: impl FnOnce(&T) -> R) -> SoftResult<R> {
        let shard = self.shard(raw.sds)?;
        let st = shard.state.lock();
        if st.dead {
            return Err(SoftError::UnknownSds(raw.sds));
        }
        let (ptr, _) = st.heap.resolve(raw)?;
        // SAFETY: live slot holding an initialised `T`; shared access
        // is sound because the shard lock excludes writers for the
        // closure's duration.
        let value = unsafe { &*ptr.cast::<T>() };
        Ok(f(value))
    }

    /// Whether the allocation behind `raw` is still live.
    pub fn is_live(&self, raw: RawHandle) -> bool {
        let Ok(shard) = self.shard(raw.sds) else {
            return false;
        };
        let st = shard.state.lock();
        !st.dead && st.heap.resolve(raw).is_ok()
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// Snapshot of the allocator's accounting. Shard locks are taken
    /// one at a time, so the snapshot is exact at quiescent points
    /// (which is when the testkit certifies it) and approximate under
    /// concurrent mutation.
    pub fn stats(&self) -> SmaStats {
        let mut live_bytes = 0;
        let mut live_allocs = 0;
        let mut allocs_total = 0;
        let mut frees_total = 0;
        let mut sds_count = 0;
        let mut magazine_pages = 0;
        for shard in self.shards() {
            let st = shard.state.lock();
            if st.dead {
                continue;
            }
            let h = st.heap.stats();
            live_bytes += h.live_bytes;
            live_allocs += h.live_allocs;
            allocs_total += h.allocs_total;
            frees_total += h.frees_total;
            magazine_pages += st.magazine.len();
            sds_count += 1;
        }
        let inner = self.inner.lock();
        SmaStats {
            budget_pages: inner.budget_pages,
            held_pages: inner.held_pages,
            free_pool_pages: self.depot.len(),
            magazine_pages,
            live_bytes,
            live_allocs,
            sds_count,
            allocs_total,
            frees_total,
            reclaims_total: inner.reclaims_total,
            pages_reclaimed_total: inner.pages_reclaimed_total,
            budget_granted_total: inner.budget_granted_total,
            magazine_refills_total: self.magazine_refills_total.load(Ordering::Relaxed),
            magazine_steal_backs_total: self.magazine_steal_backs_total.load(Ordering::Relaxed),
            smr_limbo_pages: self.limbo_len.load(Ordering::Relaxed),
            smr_guard_stalls_total: self.smr.guard_stalls(),
            pool: inner.pool.stats(),
        }
    }
}

impl std::fmt::Debug for Sma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("Sma")
            .field("budget_pages", &s.budget_pages)
            .field("held_pages", &s.held_pages)
            .field("live_bytes", &s.live_bytes)
            .field("sds_count", &s.sds_count)
            .finish()
    }
}

#[cfg(test)]
mod tests;
