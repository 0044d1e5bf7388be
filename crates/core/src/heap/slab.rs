//! Slab pages: one 4 KiB frame divided into equal-size slots.

use super::class::SizeClass;
use super::DropFn;
use crate::error::{SoftError, SoftResult};
use crate::page::PageFrame;

/// Sentinel terminating the intrusive free list.
const NO_SLOT: u16 = u16::MAX;

/// Per-slot metadata, kept out-of-band (never inside the page itself, so
/// reclaimed payload bytes can be handed back wholesale).
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    /// Generation of the allocation currently occupying the slot
    /// (0 ⇒ free). Generations come from the owning heap's monotonically
    /// increasing counter, so they are never reused.
    generation: u64,
    /// Next free slot in the intrusive free list (valid when free).
    next_free: u16,
    /// Destructor for the occupying value, if it needs one and has not
    /// been moved out.
    drop_fn: Option<DropFn>,
    /// Requested length of the occupying allocation in bytes.
    len: u32,
    /// SMR epoch the slot was retired at, valid while the slot sits on
    /// the limbo list (see [`SlabPage::free_deferred`]). Limbo slots
    /// have `generation == 0` (handles are already revoked) but keep
    /// their `drop_fn` parked until the flush proves no read guard can
    /// still observe the payload.
    retire_epoch: u64,
}

/// A 4 KiB page carved into slots of a single size class.
pub struct SlabPage {
    frame: PageFrame,
    class: SizeClass,
    slots: Box<[SlotMeta]>,
    free_head: u16,
    live: u16,
    /// Head of the limbo list: slots freed while a read guard was
    /// active, not yet reusable. Chained through `next_free`.
    limbo_head: u16,
    /// Number of slots on the limbo list.
    limbo: u16,
}

impl SlabPage {
    /// Formats `frame` as a slab of `class`-sized slots.
    pub fn new(frame: PageFrame, class: SizeClass) -> Self {
        let n = class.slots_per_page();
        let mut slots = Vec::with_capacity(n);
        for i in 0..n {
            slots.push(SlotMeta {
                generation: 0,
                next_free: if i + 1 < n { (i + 1) as u16 } else { NO_SLOT },
                drop_fn: None,
                len: 0,
                retire_epoch: 0,
            });
        }
        SlabPage {
            frame,
            class,
            slots: slots.into_boxed_slice(),
            free_head: 0,
            live: 0,
            limbo_head: NO_SLOT,
            limbo: 0,
        }
    }

    /// The page's size class.
    pub fn class(&self) -> SizeClass {
        self.class
    }

    /// Number of live allocations on the page.
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// Whether no slot is allocatable. Limbo slots count as occupied:
    /// they cannot be handed out until the flush proves them safe, so
    /// a page whose free list is empty stays off the partial lists
    /// even if some of its slots are merely in limbo.
    pub fn is_full(&self) -> bool {
        self.free_head == NO_SLOT
    }

    /// Whether no slot is occupied *or in limbo* (page is
    /// harvestable — its frame can be recycled with no grace period).
    pub fn is_wholly_free(&self) -> bool {
        self.live == 0 && self.limbo == 0
    }

    /// Number of slots parked on the limbo list.
    pub fn limbo(&self) -> usize {
        self.limbo as usize
    }

    /// Allocates a slot for `len` bytes, stamping it with `generation`.
    ///
    /// Returns the slot index, or `None` if the page is full.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `len` exceeds the slot size or `generation` is 0.
    pub fn alloc(&mut self, generation: u64, len: usize, drop_fn: Option<DropFn>) -> Option<u16> {
        debug_assert!(len <= self.class.slot_size());
        debug_assert!(generation != 0, "generation 0 is the free sentinel");
        if self.free_head == NO_SLOT {
            return None;
        }
        let slot = self.free_head;
        let meta = &mut self.slots[slot as usize];
        self.free_head = meta.next_free;
        meta.generation = generation;
        meta.drop_fn = drop_fn;
        meta.len = len as u32;
        self.live += 1;
        Some(slot)
    }

    /// Resolves a slot to its payload pointer and requested length,
    /// validating the generation.
    pub fn resolve(&self, slot: u16, generation: u64) -> SoftResult<(*mut u8, usize)> {
        let meta = self
            .slots
            .get(slot as usize)
            .ok_or(SoftError::InvalidHandle)?;
        if meta.generation == 0 {
            return Err(SoftError::Revoked);
        }
        if meta.generation != generation {
            return Err(SoftError::Revoked);
        }
        Ok((self.slot_ptr(slot), meta.len as usize))
    }

    /// Frees a slot, optionally running its destructor.
    ///
    /// `run_drop = false` is used by `take_value`, which has already moved
    /// the payload out.
    pub fn free(&mut self, slot: u16, generation: u64, run_drop: bool) -> SoftResult<usize> {
        let ptr = self.slot_ptr_checked(slot)?;
        let meta = &mut self.slots[slot as usize];
        if meta.generation == 0 || meta.generation != generation {
            return Err(SoftError::Revoked);
        }
        let len = meta.len as usize;
        if run_drop {
            if let Some(f) = meta.drop_fn {
                // SAFETY: the slot is live with a properly initialised
                // payload (invariant: `drop_fn` is recorded only by
                // `alloc` and cleared when the payload moves out), and
                // after this call the slot is marked free so the payload
                // is never touched again.
                unsafe { f(ptr) };
            }
        }
        meta.generation = 0;
        meta.drop_fn = None;
        meta.len = 0;
        meta.next_free = self.free_head;
        self.free_head = slot;
        self.live -= 1;
        Ok(len)
    }

    /// Frees a slot *deferred*: the handle is revoked immediately (the
    /// generation drops to the free sentinel, so resolution fails with
    /// `Revoked` and accounting treats the bytes as freed), but the
    /// slot is parked on the page's limbo list instead of the free
    /// list, and its destructor — if `run_drop` — is retained and only
    /// executed by [`SlabPage::flush_limbo`] once the SMR registry
    /// proves no read guard pinned at or before `retire_epoch`
    /// remains. Until then the payload bytes stay untouched, which is
    /// what keeps concurrently-borrowed `&[u8]` reads valid.
    pub fn free_deferred(
        &mut self,
        slot: u16,
        generation: u64,
        run_drop: bool,
        retire_epoch: u64,
    ) -> SoftResult<usize> {
        self.slot_ptr_checked(slot)?;
        let limbo_head = self.limbo_head;
        let meta = &mut self.slots[slot as usize];
        if meta.generation == 0 || meta.generation != generation {
            return Err(SoftError::Revoked);
        }
        let len = meta.len as usize;
        if !run_drop {
            // Payload already moved out (`take_value`): nothing to
            // defer, the slot just waits out the grace period.
            meta.drop_fn = None;
        }
        meta.generation = 0;
        meta.len = 0;
        meta.retire_epoch = retire_epoch;
        meta.next_free = limbo_head;
        self.limbo_head = slot;
        self.live -= 1;
        self.limbo += 1;
        Ok(len)
    }

    /// Moves every limbo slot whose retirement epoch satisfies
    /// `is_safe` back to the free list, running its deferred
    /// destructor. Returns the number of slots flushed.
    pub fn flush_limbo(&mut self, is_safe: &dyn Fn(u64) -> bool) -> usize {
        let mut flushed = 0;
        let mut cur = self.limbo_head;
        let mut prev = NO_SLOT;
        while cur != NO_SLOT {
            let next = self.slots[cur as usize].next_free;
            if is_safe(self.slots[cur as usize].retire_epoch) {
                let ptr = self.slot_ptr(cur);
                let meta = &mut self.slots[cur as usize];
                if let Some(f) = meta.drop_fn.take() {
                    // SAFETY: the payload was live and initialised when
                    // the slot entered limbo, has not been touched
                    // since (limbo slots are never reallocated), and is
                    // dropped exactly once here before the slot rejoins
                    // the free list.
                    unsafe { f(ptr) };
                }
                meta.retire_epoch = 0;
                meta.next_free = self.free_head;
                self.free_head = cur;
                if prev == NO_SLOT {
                    self.limbo_head = next;
                } else {
                    self.slots[prev as usize].next_free = next;
                }
                self.limbo -= 1;
                flushed += 1;
            } else {
                prev = cur;
            }
            cur = next;
        }
        flushed
    }

    /// Highest retirement epoch on the limbo list, or `None` when the
    /// list is empty. A page is safe to recycle wholesale once the SMR
    /// registry clears this horizon.
    pub fn limbo_retire_horizon(&self) -> Option<u64> {
        let mut max = None;
        let mut cur = self.limbo_head;
        while cur != NO_SLOT {
            let e = self.slots[cur as usize].retire_epoch;
            max = Some(max.map_or(e, |m: u64| m.max(e)));
            cur = self.slots[cur as usize].next_free;
        }
        max
    }

    /// Runs every deferred destructor still parked in limbo and
    /// returns the frame. The caller must have proven the grace period
    /// elapsed (or be tearing the allocator down).
    ///
    /// # Panics
    ///
    /// Panics if any slot is still live (would leak destructors) —
    /// only limbo slots are drained.
    pub fn drain_limbo_and_take_frame(mut self) -> PageFrame {
        assert!(self.live == 0, "harvesting a page with live slots");
        self.drain_limbo();
        self.frame
    }

    fn drain_limbo(&mut self) {
        let mut cur = self.limbo_head;
        while cur != NO_SLOT {
            let ptr = self.slot_ptr(cur);
            let meta = &mut self.slots[cur as usize];
            if let Some(f) = meta.drop_fn.take() {
                // SAFETY: as in `flush_limbo` — initialised payload,
                // untouched since retirement, dropped exactly once.
                unsafe { f(ptr) };
            }
            cur = meta.next_free;
        }
        self.limbo_head = NO_SLOT;
        self.limbo = 0;
    }

    /// Clears the destructor of a live slot (payload has been moved out).
    pub fn disarm_drop(&mut self, slot: u16, generation: u64) -> SoftResult<()> {
        let meta = self
            .slots
            .get_mut(slot as usize)
            .ok_or(SoftError::InvalidHandle)?;
        if meta.generation == 0 || meta.generation != generation {
            return Err(SoftError::Revoked);
        }
        meta.drop_fn = None;
        Ok(())
    }

    /// Frees every live slot (running destructors) and returns the frame
    /// for reuse. Used when an SDS is destroyed or ordered to give up an
    /// entire page's worth of allocations.
    pub fn drop_all_and_take_frame(mut self) -> PageFrame {
        for slot in 0..self.slots.len() as u16 {
            let meta = self.slots[slot as usize];
            if meta.generation != 0 {
                let gen = meta.generation;
                self.free(slot, gen, true).expect("slot verified live");
            }
        }
        // Deferred destructors parked in limbo run here too: callers
        // (SDS destroy, heap teardown) have already synchronised with
        // the SMR registry, so no guard can still observe the slots.
        self.drain_limbo();
        self.frame
    }

    /// Takes the frame of a wholly-free page.
    ///
    /// # Panics
    ///
    /// Panics if any slot is still live (would leak destructors).
    pub fn take_frame(self) -> PageFrame {
        assert!(self.is_wholly_free(), "harvesting a page with live slots");
        self.frame
    }

    /// Iterates the live slots as `(slot, generation, len)` triples.
    pub fn live_slots(&self) -> impl Iterator<Item = (u16, u64, usize)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, m)| {
            (m.generation != 0).then_some((i as u16, m.generation, m.len as usize))
        })
    }

    fn slot_ptr(&self, slot: u16) -> *mut u8 {
        let off = slot as usize * self.class.slot_size();
        debug_assert!(off + self.class.slot_size() <= crate::page::PAGE_SIZE);
        // SAFETY: `off` is within the frame's 4 KiB allocation by the
        // debug-checked invariant above (slot < slots_per_page).
        unsafe { self.frame.as_ptr().add(off) }
    }

    fn slot_ptr_checked(&self, slot: u16) -> SoftResult<*mut u8> {
        if (slot as usize) < self.slots.len() {
            Ok(self.slot_ptr(slot))
        } else {
            Err(SoftError::InvalidHandle)
        }
    }
}

impl std::fmt::Debug for SlabPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabPage")
            .field("class", &self.class.slot_size())
            .field("live", &self.live)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(size: usize) -> SlabPage {
        SlabPage::new(PageFrame::new_zeroed(), SizeClass::for_size(size).unwrap())
    }

    #[test]
    fn alloc_until_full_then_free() {
        let mut page = page_of(1024);
        let mut slots = Vec::new();
        for gen in 1..=4u64 {
            slots.push((page.alloc(gen, 1000, None).unwrap(), gen));
        }
        assert!(page.is_full());
        assert!(page.alloc(5, 1000, None).is_none());
        for (slot, gen) in slots {
            assert_eq!(page.free(slot, gen, true).unwrap(), 1000);
        }
        assert!(page.is_wholly_free());
    }

    #[test]
    fn resolve_validates_generation() {
        let mut page = page_of(64);
        let slot = page.alloc(7, 10, None).unwrap();
        assert!(page.resolve(slot, 7).is_ok());
        assert_eq!(page.resolve(slot, 8).unwrap_err(), SoftError::Revoked);
        page.free(slot, 7, true).unwrap();
        assert_eq!(page.resolve(slot, 7).unwrap_err(), SoftError::Revoked);
        // Reuse with a fresh generation: the old handle stays dead.
        let slot2 = page.alloc(9, 10, None).unwrap();
        assert_eq!(slot2, slot, "LIFO free list reuses the slot");
        assert_eq!(page.resolve(slot, 7).unwrap_err(), SoftError::Revoked);
        assert!(page.resolve(slot, 9).is_ok());
    }

    #[test]
    fn double_free_is_rejected() {
        let mut page = page_of(64);
        let slot = page.alloc(3, 8, None).unwrap();
        page.free(slot, 3, true).unwrap();
        assert_eq!(page.free(slot, 3, true).unwrap_err(), SoftError::Revoked);
    }

    #[test]
    fn out_of_range_slot_is_invalid() {
        let page = page_of(2048); // 2 slots
        assert_eq!(page.resolve(40, 1).unwrap_err(), SoftError::InvalidHandle);
    }

    #[test]
    fn free_runs_drop_fn_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let mut page = page_of(64);
        let slot = page
            .alloc(
                1,
                std::mem::size_of::<Probe>(),
                super::super::drop_fn_for::<Probe>(),
            )
            .unwrap();
        let (ptr, _) = page.resolve(slot, 1).unwrap();
        // SAFETY: the slot is live, sized and aligned for `Probe`.
        unsafe { ptr.cast::<Probe>().write(Probe) };
        page.free(slot, 1, true).unwrap();
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn disarm_prevents_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let mut page = page_of(64);
        let slot = page
            .alloc(
                1,
                std::mem::size_of::<Probe>(),
                super::super::drop_fn_for::<Probe>(),
            )
            .unwrap();
        let (ptr, _) = page.resolve(slot, 1).unwrap();
        // SAFETY: slot is live, sized and aligned for `Probe`.
        unsafe { ptr.cast::<Probe>().write(Probe) };
        // Move the value out, then disarm.
        // SAFETY: reading the live payload exactly once; drop is disarmed
        // immediately after so it is never dropped in place.
        let probe = unsafe { ptr.cast::<Probe>().read() };
        page.disarm_drop(slot, 1).unwrap();
        page.free(slot, 1, true).unwrap();
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
        drop(probe);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn live_slot_iteration() {
        let mut page = page_of(512); // 8 slots
        let s1 = page.alloc(11, 100, None).unwrap();
        let s2 = page.alloc(12, 200, None).unwrap();
        let _s3 = page.alloc(13, 300, None).unwrap();
        page.free(s2, 12, true).unwrap();
        let live: Vec<_> = page.live_slots().collect();
        assert_eq!(live.len(), 2);
        assert!(live.contains(&(s1, 11, 100)));
    }

    #[test]
    fn drop_all_returns_frame() {
        let mut page = page_of(1024);
        for gen in 1..=3u64 {
            page.alloc(gen, 512, None).unwrap();
        }
        let frame = page.drop_all_and_take_frame();
        assert_eq!(frame.as_ptr() as usize % crate::page::PAGE_SIZE, 0);
    }

    #[test]
    #[should_panic(expected = "live slots")]
    fn take_frame_with_live_slots_panics() {
        let mut page = page_of(64);
        page.alloc(1, 8, None).unwrap();
        let _ = page.take_frame();
    }

    #[test]
    fn deferred_free_parks_slot_in_limbo() {
        let mut page = page_of(1024);
        let slot = page.alloc(1, 800, None).unwrap();
        assert_eq!(page.free_deferred(slot, 1, true, 7).unwrap(), 800);
        // Handle is revoked immediately...
        assert_eq!(page.resolve(slot, 1).unwrap_err(), SoftError::Revoked);
        // ...but the slot is not reusable and the page not harvestable.
        assert_eq!(page.limbo(), 1);
        assert!(!page.is_wholly_free());
        assert_eq!(page.limbo_retire_horizon(), Some(7));
        // Unsafe epochs flush nothing.
        assert_eq!(page.flush_limbo(&|e| e > 7), 0);
        // Once safe, the slot rejoins the free list exactly once.
        assert_eq!(page.flush_limbo(&|_| true), 1);
        assert_eq!(page.limbo(), 0);
        assert!(page.is_wholly_free());
        assert_eq!(page.flush_limbo(&|_| true), 0);
        // And it can be reallocated.
        assert!(page.alloc(2, 100, None).is_some());
    }

    #[test]
    fn deferred_double_free_is_rejected() {
        let mut page = page_of(64);
        let slot = page.alloc(3, 8, None).unwrap();
        page.free_deferred(slot, 3, true, 1).unwrap();
        assert_eq!(
            page.free_deferred(slot, 3, true, 2).unwrap_err(),
            SoftError::Revoked
        );
        assert_eq!(page.free(slot, 3, true).unwrap_err(), SoftError::Revoked);
        assert_eq!(page.limbo(), 1);
    }

    #[test]
    fn limbo_keeps_page_full_until_flush() {
        let mut page = page_of(2048); // 2 slots
        let s1 = page.alloc(1, 100, None).unwrap();
        let _s2 = page.alloc(2, 100, None).unwrap();
        assert!(page.is_full());
        page.free_deferred(s1, 1, true, 5).unwrap();
        // Limbo slots are not allocatable: the page is still full.
        assert!(page.is_full());
        assert!(page.alloc(3, 100, None).is_none());
        page.flush_limbo(&|_| true);
        assert!(!page.is_full());
        assert!(page.alloc(3, 100, None).is_some());
    }

    #[test]
    fn deferred_drop_runs_at_flush_not_free() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let mut page = page_of(64);
        let slot = page
            .alloc(
                1,
                std::mem::size_of::<Probe>(),
                super::super::drop_fn_for::<Probe>(),
            )
            .unwrap();
        let (ptr, _) = page.resolve(slot, 1).unwrap();
        // SAFETY: the slot is live, sized and aligned for `Probe`.
        unsafe { ptr.cast::<Probe>().write(Probe) };
        page.free_deferred(slot, 1, true, 9).unwrap();
        assert_eq!(DROPS.load(Ordering::SeqCst), 0, "drop must be deferred");
        page.flush_limbo(&|_| true);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1, "drop runs exactly once");
    }

    #[test]
    fn drain_limbo_and_take_frame_runs_deferred_drops() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let mut page = page_of(64);
        let slot = page
            .alloc(
                1,
                std::mem::size_of::<Probe>(),
                super::super::drop_fn_for::<Probe>(),
            )
            .unwrap();
        let (ptr, _) = page.resolve(slot, 1).unwrap();
        // SAFETY: the slot is live, sized and aligned for `Probe`.
        unsafe { ptr.cast::<Probe>().write(Probe) };
        page.free_deferred(slot, 1, true, 3).unwrap();
        let _frame = page.drain_limbo_and_take_frame();
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
    }
}
