//! The per-SDS heap: a page table of slab pages and spans.

use super::class::{SizeClass, MAX_SLAB_ALLOC};
use super::slab::SlabPage;
use super::DropFn;
use crate::error::{SoftError, SoftResult};
use crate::handle::{AllocKind, RawHandle, SdsId};
use crate::page::{PageFrame, Span, PAGE_SIZE};

/// One entry in the heap's page table.
enum PageEntry {
    /// Unused entry, available for reuse.
    Vacant,
    /// A size-class slab page.
    Slab(SlabEntry),
    /// A dedicated multi-page span holding a single allocation.
    Span(SpanEntry),
}

struct SlabEntry {
    page: SlabPage,
    /// Whether the page id is currently listed in its class's partial
    /// list (lists are maintained lazily; stale entries are dropped on
    /// pop, and this flag prevents duplicates).
    in_partial: bool,
    /// Whether the page id is currently listed in `free_pages`.
    in_free: bool,
    /// Whether the page id is currently listed in `limbo_pages`.
    in_limbo: bool,
}

struct SpanEntry {
    span: Span,
    generation: u64,
    drop_fn: Option<DropFn>,
    len: usize,
}

/// Result of freeing one allocation.
#[derive(Debug, Default)]
pub struct FreeOutcome {
    /// Requested bytes the allocation occupied.
    pub freed_bytes: usize,
    /// A span released by this free (the SMA returns it to the page
    /// pool); `None` for slab frees.
    pub released_span: Option<Span>,
    /// Whether the free left a slab page wholly free (harvestable).
    pub page_now_free: bool,
}

/// Point-in-time heap accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Pages currently attached to this heap (slab pages + span pages).
    pub held_pages: usize,
    /// Sum of requested lengths of live allocations.
    pub live_bytes: usize,
    /// Live allocation count.
    pub live_allocs: usize,
    /// Wholly-free slab pages still attached (instantly harvestable).
    pub wholly_free_pages: usize,
    /// Slots freed while a read guard was active, awaiting their SMR
    /// grace period before reuse.
    pub limbo_slots: usize,
    /// Slab pages with at least one limbo slot.
    pub limbo_pages: usize,
    /// Cumulative allocations.
    pub allocs_total: u64,
    /// Cumulative frees (including reclaimed allocations).
    pub frees_total: u64,
}

/// An isolated heap serving one Soft Data Structure.
///
/// The heap never talks to the OS or the machine model itself: page
/// frames and spans are handed in by the SMA (which enforces budget and
/// machine capacity) and handed back out by frees and harvests. This
/// keeps all policy in the SMA and all mechanism here.
pub struct SdsHeap {
    id: SdsId,
    pages: Vec<PageEntry>,
    /// Vacant page-table indices available for reuse.
    vacant: Vec<u32>,
    /// Per-class lists of page ids believed to have free slots.
    partial: [Vec<u32>; SizeClass::COUNT],
    /// Page ids believed to be wholly free.
    free_pages: Vec<u32>,
    /// Page ids with at least one limbo slot (maintained eagerly via
    /// `SlabEntry::in_limbo`; detached pages are dropped on flush).
    limbo_pages: Vec<u32>,
    /// Exact count of limbo slots across all pages.
    limbo_slots: usize,
    /// Exact count of wholly-free slab pages (maintained on transitions).
    wholly_free: usize,
    /// Monotonic allocation-generation counter (never reused).
    gen_counter: u64,
    held_pages: usize,
    live_bytes: usize,
    live_allocs: usize,
    allocs_total: u64,
    frees_total: u64,
}

impl SdsHeap {
    /// An empty heap for SDS `id`.
    pub fn new(id: SdsId) -> Self {
        SdsHeap {
            id,
            pages: Vec::new(),
            vacant: Vec::new(),
            partial: Default::default(),
            free_pages: Vec::new(),
            limbo_pages: Vec::new(),
            limbo_slots: 0,
            wholly_free: 0,
            gen_counter: 0,
            held_pages: 0,
            live_bytes: 0,
            live_allocs: 0,
            allocs_total: 0,
            frees_total: 0,
        }
    }

    /// The owning SDS id.
    pub fn id(&self) -> SdsId {
        self.id
    }

    fn next_gen(&mut self) -> u64 {
        self.gen_counter += 1;
        self.gen_counter
    }

    fn push_entry(&mut self, entry: PageEntry) -> u32 {
        if let Some(id) = self.vacant.pop() {
            self.pages[id as usize] = entry;
            id
        } else {
            self.pages.push(entry);
            (self.pages.len() - 1) as u32
        }
    }

    /// Whether an allocation of `len` bytes can proceed without a new
    /// frame from the SMA.
    pub fn can_alloc_without_frame(&self, len: usize) -> bool {
        match SizeClass::for_size(len) {
            Some(class) => self.peek_partial(class).is_some() || self.peek_free_page().is_some(),
            None => false,
        }
    }

    /// Pages a request of `len` bytes would need from the SMA if it
    /// cannot be served from attached pages (1 for slab classes, the span
    /// page count otherwise).
    pub fn pages_needed(len: usize) -> usize {
        if len <= MAX_SLAB_ALLOC {
            1
        } else {
            len.div_ceil(PAGE_SIZE)
        }
    }

    fn peek_partial(&self, class: SizeClass) -> Option<u32> {
        self.partial[class.index()]
            .iter()
            .rev()
            .copied()
            .find(|&id| match &self.pages[id as usize] {
                PageEntry::Slab(e) => e.page.class() == class && !e.page.is_full(),
                _ => false,
            })
    }

    fn peek_free_page(&self) -> Option<u32> {
        self.free_pages
            .iter()
            .rev()
            .copied()
            .find(|&id| match &self.pages[id as usize] {
                PageEntry::Slab(e) => e.page.is_wholly_free(),
                _ => false,
            })
    }

    /// Allocates `len` bytes from a slab class.
    ///
    /// `extra_frame` is consumed if the attached pages cannot serve the
    /// request (the SMA acquires it under budget when
    /// [`SdsHeap::can_alloc_without_frame`] is false).
    ///
    /// # Panics
    ///
    /// Panics if `len` needs a span (callers dispatch on
    /// [`SizeClass::for_size`] first).
    pub fn alloc_slab(
        &mut self,
        len: usize,
        drop_fn: Option<DropFn>,
        extra_frame: Option<PageFrame>,
    ) -> SoftResult<RawHandle> {
        let class = SizeClass::for_size(len).expect("alloc_slab called with span-sized request");
        // 1. A partial page of the right class.
        if let Some(id) = self.pop_valid_partial(class) {
            return Ok(self.alloc_in_page(id, class, len, drop_fn));
        }
        // 2. Re-format one of our own wholly-free pages.
        if let Some(id) = self.take_valid_free_page() {
            let frame = self.remove_slab_frame(id);
            let id = self.adopt_frame(frame, class);
            return Ok(self.alloc_in_page(id, class, len, drop_fn));
        }
        // 3. A fresh frame from the SMA.
        let frame = extra_frame.ok_or(SoftError::BudgetExceeded {
            requested_pages: 1,
            available_pages: 0,
        })?;
        let id = self.adopt_frame(frame, class);
        Ok(self.alloc_in_page(id, class, len, drop_fn))
    }

    /// Pops a valid partial page id of `class`, dropping stale entries.
    fn pop_valid_partial(&mut self, class: SizeClass) -> Option<u32> {
        while let Some(&id) = self.partial[class.index()].last() {
            let valid = match &self.pages[id as usize] {
                PageEntry::Slab(e) => e.page.class() == class && !e.page.is_full(),
                _ => false,
            };
            if valid {
                return Some(id);
            }
            self.partial[class.index()].pop();
            if let PageEntry::Slab(e) = &mut self.pages[id as usize] {
                if e.page.class() == class {
                    e.in_partial = false;
                }
            }
        }
        None
    }

    /// Pops a valid wholly-free page id, dropping stale entries.
    fn take_valid_free_page(&mut self) -> Option<u32> {
        while let Some(id) = self.free_pages.pop() {
            if let PageEntry::Slab(e) = &mut self.pages[id as usize] {
                e.in_free = false;
                if e.page.is_wholly_free() {
                    return Some(id);
                }
            }
        }
        None
    }

    /// Allocates in page `id`, which must be a non-full slab of `class`
    /// currently at the top of its partial list (or freshly adopted).
    fn alloc_in_page(
        &mut self,
        id: u32,
        class: SizeClass,
        len: usize,
        drop_fn: Option<DropFn>,
    ) -> RawHandle {
        let gen = self.next_gen();
        let PageEntry::Slab(e) = &mut self.pages[id as usize] else {
            unreachable!("validated slab entry");
        };
        let was_free = e.page.is_wholly_free();
        let slot = e
            .page
            .alloc(gen, len, drop_fn)
            .expect("validated non-full page");
        if was_free {
            self.wholly_free -= 1;
        }
        let now_full = e.page.is_full();
        if now_full {
            // Drop from the partial list if listed (it is on top when we
            // came through `pop_valid_partial`; freshly adopted pages are
            // pushed by `adopt_frame`).
            if e.in_partial {
                e.in_partial = false;
                let list = &mut self.partial[class.index()];
                if list.last() == Some(&id) {
                    list.pop();
                } else if let Some(pos) = list.iter().rposition(|&p| p == id) {
                    list.swap_remove(pos);
                }
            }
        }
        self.live_bytes += len;
        self.live_allocs += 1;
        self.allocs_total += 1;
        RawHandle {
            sds: self.id,
            page: id,
            slot,
            kind: AllocKind::Slab,
            generation: gen,
        }
    }

    /// Attaches `frame` as a fresh slab page of `class`.
    fn adopt_frame(&mut self, frame: PageFrame, class: SizeClass) -> u32 {
        let entry = PageEntry::Slab(SlabEntry {
            page: SlabPage::new(frame, class),
            in_partial: true,
            in_free: false,
            in_limbo: false,
        });
        let id = self.push_entry(entry);
        self.partial[class.index()].push(id);
        self.held_pages += 1;
        self.wholly_free += 1; // no live slots yet
        id
    }

    /// Detaches slab page `id` (which must be wholly free) and returns
    /// its frame.
    fn remove_slab_frame(&mut self, id: u32) -> PageFrame {
        let entry = std::mem::replace(&mut self.pages[id as usize], PageEntry::Vacant);
        let PageEntry::Slab(e) = entry else {
            unreachable!("validated slab entry");
        };
        self.vacant.push(id);
        self.held_pages -= 1;
        self.wholly_free -= 1;
        e.page.take_frame()
    }

    /// Stores a span allocation (len > [`MAX_SLAB_ALLOC`]).
    pub fn insert_span(&mut self, span: Span, len: usize, drop_fn: Option<DropFn>) -> RawHandle {
        debug_assert!(len <= span.len());
        let gen = self.next_gen();
        let pages = span.pages();
        let id = self.push_entry(PageEntry::Span(SpanEntry {
            span,
            generation: gen,
            drop_fn,
            len,
        }));
        self.held_pages += pages;
        self.live_bytes += len;
        self.live_allocs += 1;
        self.allocs_total += 1;
        RawHandle {
            sds: self.id,
            page: id,
            slot: 0,
            kind: AllocKind::Span,
            generation: gen,
        }
    }

    /// Resolves a handle to `(payload pointer, requested length)`.
    pub fn resolve(&self, raw: RawHandle) -> SoftResult<(*mut u8, usize)> {
        let entry = self
            .pages
            .get(raw.page as usize)
            .ok_or(SoftError::InvalidHandle)?;
        match (entry, raw.kind) {
            (PageEntry::Slab(e), AllocKind::Slab) => e.page.resolve(raw.slot, raw.generation),
            (PageEntry::Span(e), AllocKind::Span) => {
                if e.generation == raw.generation {
                    Ok((e.span.as_ptr(), e.len))
                } else {
                    Err(SoftError::Revoked)
                }
            }
            (PageEntry::Vacant, _) => Err(SoftError::Revoked),
            _ => Err(SoftError::Revoked),
        }
    }

    /// Frees the allocation behind `raw`.
    ///
    /// With `run_drop = false` the payload's destructor is skipped (used
    /// by `take_value`, which moved the payload out).
    pub fn free(&mut self, raw: RawHandle, run_drop: bool) -> SoftResult<FreeOutcome> {
        let entry = self
            .pages
            .get_mut(raw.page as usize)
            .ok_or(SoftError::InvalidHandle)?;
        match (entry, raw.kind) {
            (PageEntry::Slab(e), AllocKind::Slab) => {
                let was_full = e.page.is_full();
                let len = e.page.free(raw.slot, raw.generation, run_drop)?;
                let class = e.page.class();
                let now_free = e.page.is_wholly_free();
                if now_free {
                    self.wholly_free += 1;
                    if !e.in_free {
                        e.in_free = true;
                        self.free_pages.push(raw.page);
                    }
                }
                if was_full && !e.in_partial {
                    e.in_partial = true;
                    self.partial[class.index()].push(raw.page);
                }
                self.live_bytes -= len;
                self.live_allocs -= 1;
                self.frees_total += 1;
                Ok(FreeOutcome {
                    freed_bytes: len,
                    released_span: None,
                    page_now_free: now_free,
                })
            }
            (PageEntry::Span(e), AllocKind::Span) => {
                if e.generation != raw.generation {
                    return Err(SoftError::Revoked);
                }
                if run_drop {
                    if let Some(f) = e.drop_fn {
                        // SAFETY: the span holds a live, initialised
                        // payload (invariant of `insert_span` /
                        // `disarm_drop`); the entry is vacated right
                        // after, so the payload is dropped exactly once.
                        unsafe { f(e.span.as_ptr()) };
                    }
                }
                let len = e.len;
                let entry =
                    std::mem::replace(&mut self.pages[raw.page as usize], PageEntry::Vacant);
                let PageEntry::Span(e) = entry else {
                    unreachable!("matched above");
                };
                self.vacant.push(raw.page);
                self.held_pages -= e.span.pages();
                self.live_bytes -= len;
                self.live_allocs -= 1;
                self.frees_total += 1;
                Ok(FreeOutcome {
                    freed_bytes: len,
                    released_span: Some(e.span),
                    page_now_free: false,
                })
            }
            (PageEntry::Vacant, _) => Err(SoftError::Revoked),
            _ => Err(SoftError::Revoked),
        }
    }

    /// Frees the allocation behind `raw` with its memory deferred to
    /// the SMR grace period: the handle is revoked and accounting
    /// updated immediately, but the slot parks on the page's limbo
    /// list (destructor included) until [`SdsHeap::flush_limbo`]
    /// proves no read guard pinned at or before `retire_epoch` is
    /// still active. Span handles delegate to the immediate
    /// [`SdsHeap::free`]: span reads hold the shard lock for their
    /// whole duration, so a span free is always serialised with its
    /// readers and needs no grace.
    pub fn free_deferred(
        &mut self,
        raw: RawHandle,
        run_drop: bool,
        retire_epoch: u64,
    ) -> SoftResult<FreeOutcome> {
        if raw.kind == AllocKind::Span {
            return self.free(raw, run_drop);
        }
        let entry = self
            .pages
            .get_mut(raw.page as usize)
            .ok_or(SoftError::InvalidHandle)?;
        let PageEntry::Slab(e) = entry else {
            return Err(SoftError::Revoked);
        };
        let len = e
            .page
            .free_deferred(raw.slot, raw.generation, run_drop, retire_epoch)?;
        if !e.in_limbo {
            e.in_limbo = true;
            self.limbo_pages.push(raw.page);
        }
        self.limbo_slots += 1;
        self.live_bytes -= len;
        self.live_allocs -= 1;
        self.frees_total += 1;
        // The slot went to limbo, not the free list: the page gained
        // no allocatable slot and cannot have become wholly free.
        Ok(FreeOutcome {
            freed_bytes: len,
            released_span: None,
            page_now_free: false,
        })
    }

    /// Flushes every limbo slot whose retirement epoch satisfies
    /// `is_safe` back into circulation, running deferred destructors
    /// and repairing the partial/free lists for pages that gained
    /// allocatable slots. Returns the number of slots flushed.
    pub fn flush_limbo(&mut self, is_safe: &dyn Fn(u64) -> bool) -> usize {
        if self.limbo_slots == 0 {
            return 0;
        }
        let mut flushed = 0;
        let mut i = 0;
        while i < self.limbo_pages.len() {
            let id = self.limbo_pages[i];
            let PageEntry::Slab(e) = &mut self.pages[id as usize] else {
                // Page was detached (harvest/destroy) out from under
                // the list; drop the stale entry.
                self.limbo_pages.swap_remove(i);
                continue;
            };
            let was_full = e.page.is_full();
            let n = e.page.flush_limbo(is_safe);
            if n > 0 {
                self.limbo_slots -= n;
                flushed += n;
                let class = e.page.class();
                if was_full && !e.page.is_full() && !e.in_partial {
                    e.in_partial = true;
                    self.partial[class.index()].push(id);
                }
                if e.page.is_wholly_free() {
                    self.wholly_free += 1;
                    if !e.in_free {
                        e.in_free = true;
                        self.free_pages.push(id);
                    }
                }
            }
            if e.page.limbo() == 0 {
                e.in_limbo = false;
                self.limbo_pages.swap_remove(i);
            } else {
                i += 1;
            }
        }
        flushed
    }

    /// Detaches up to `max` pages that consist solely of limbo slots
    /// (no live allocations), returning each with its retirement
    /// horizon. The SMA parks these on its limbo list and recycles the
    /// frame once the SMR registry clears the horizon — this is how
    /// reclamation makes progress on pages readers may still observe.
    pub fn harvest_limbo_pages(&mut self, max: usize) -> Vec<(SlabPage, u64)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.limbo_pages.len() && out.len() < max {
            let id = self.limbo_pages[i];
            let detachable = matches!(
                &self.pages[id as usize],
                PageEntry::Slab(e) if e.page.live() == 0 && e.page.limbo() > 0
            );
            if !detachable {
                i += 1;
                continue;
            }
            let entry = std::mem::replace(&mut self.pages[id as usize], PageEntry::Vacant);
            let PageEntry::Slab(e) = entry else {
                unreachable!("matched above");
            };
            self.vacant.push(id);
            self.held_pages -= 1;
            self.limbo_slots -= e.page.limbo();
            let horizon = e
                .page
                .limbo_retire_horizon()
                .expect("limbo page has limbo slots");
            self.limbo_pages.swap_remove(i);
            out.push((e.page, horizon));
        }
        out
    }

    /// Slots currently parked in limbo across all pages.
    pub fn limbo_slots(&self) -> usize {
        self.limbo_slots
    }

    /// Number of attached pages with at least one limbo slot — the
    /// SMD reclamation weight for deprioritising limbo-heavy SDSes.
    pub fn limbo_page_count(&self) -> usize {
        self.limbo_pages.len()
    }

    /// Clears the destructor of a live allocation (payload moved out).
    pub fn disarm_drop(&mut self, raw: RawHandle) -> SoftResult<()> {
        let entry = self
            .pages
            .get_mut(raw.page as usize)
            .ok_or(SoftError::InvalidHandle)?;
        match (entry, raw.kind) {
            (PageEntry::Slab(e), AllocKind::Slab) => e.page.disarm_drop(raw.slot, raw.generation),
            (PageEntry::Span(e), AllocKind::Span) => {
                if e.generation != raw.generation {
                    return Err(SoftError::Revoked);
                }
                e.drop_fn = None;
                Ok(())
            }
            _ => Err(SoftError::Revoked),
        }
    }

    /// Detaches wholly-free slab pages beyond `keep`, returning their
    /// frames (the reclamation harvest).
    pub fn harvest_free_pages(&mut self, keep: usize) -> Vec<PageFrame> {
        let mut frames = Vec::new();
        while self.wholly_free > keep {
            match self.take_valid_free_page() {
                Some(id) => frames.push(self.remove_slab_frame(id)),
                None => break,
            }
        }
        frames
    }

    /// Exact number of wholly-free slab pages attached.
    pub fn wholly_free_pages(&self) -> usize {
        self.wholly_free
    }

    /// Pages currently attached to the heap.
    pub fn held_pages(&self) -> usize {
        self.held_pages
    }

    /// Sum of requested lengths of live allocations.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Live allocation count.
    pub fn live_allocs(&self) -> usize {
        self.live_allocs
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            held_pages: self.held_pages,
            live_bytes: self.live_bytes,
            live_allocs: self.live_allocs,
            wholly_free_pages: self.wholly_free,
            limbo_slots: self.limbo_slots,
            limbo_pages: self.limbo_pages.len(),
            allocs_total: self.allocs_total,
            frees_total: self.frees_total,
        }
    }

    /// Destroys the heap: drops every live payload and returns all
    /// attached memory `(frames, spans)` for the SMA to release.
    pub fn destroy(mut self) -> (Vec<PageFrame>, Vec<Span>) {
        let mut frames = Vec::new();
        let mut spans = Vec::new();
        for entry in self.pages.drain(..) {
            match entry {
                PageEntry::Vacant => {}
                PageEntry::Slab(e) => frames.push(e.page.drop_all_and_take_frame()),
                PageEntry::Span(e) => {
                    if let Some(f) = e.drop_fn {
                        // SAFETY: span payload is live and initialised;
                        // dropped exactly once here, span freed after.
                        unsafe { f(e.span.as_ptr()) };
                    }
                    spans.push(e.span);
                }
            }
        }
        (frames, spans)
    }
}

impl Drop for SdsHeap {
    fn drop(&mut self) {
        // Teardown without `destroy()`: run the remaining payload
        // destructors (they release associated traditional memory, as
        // in the paper's Redis integration). Frames/spans are dropped
        // in place; arena frames are leases whose memory the page pool
        // reclaims when it drops (after the heaps — see `SmaInner`).
        for entry in self.pages.drain(..) {
            match entry {
                PageEntry::Vacant => {}
                PageEntry::Slab(e) => {
                    let _frame = e.page.drop_all_and_take_frame();
                }
                PageEntry::Span(e) => {
                    if let Some(f) = e.drop_fn {
                        // SAFETY: the span holds a live, initialised
                        // payload; it is dropped exactly once here.
                        unsafe { f(e.span.as_ptr()) };
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for SdsHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SdsHeap")
            .field("id", &self.id)
            .field("held_pages", &self.held_pages)
            .field("live_bytes", &self.live_bytes)
            .field("live_allocs", &self.live_allocs)
            .field("wholly_free", &self.wholly_free)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> SdsHeap {
        SdsHeap::new(SdsId::from_index(0))
    }

    fn frame() -> PageFrame {
        PageFrame::new_zeroed()
    }

    #[test]
    fn alloc_needs_frame_only_when_empty() {
        let mut h = heap();
        assert!(!h.can_alloc_without_frame(100));
        let a = h.alloc_slab(100, None, Some(frame())).unwrap();
        assert!(h.can_alloc_without_frame(100));
        let b = h.alloc_slab(100, None, None).unwrap();
        assert_eq!(a.page, b.page);
        assert_eq!(h.held_pages(), 1);
        assert_eq!(h.live_allocs(), 2);
    }

    #[test]
    fn alloc_without_frame_fails_cleanly() {
        let mut h = heap();
        assert_eq!(
            h.alloc_slab(100, None, None).unwrap_err(),
            SoftError::BudgetExceeded {
                requested_pages: 1,
                available_pages: 0
            }
        );
    }

    #[test]
    fn fills_page_then_requires_new_frame() {
        let mut h = heap();
        // 1024-class: 4 slots per page.
        for i in 0..4 {
            let need = if i == 0 { Some(frame()) } else { None };
            h.alloc_slab(1024, None, need).unwrap();
        }
        assert!(!h.can_alloc_without_frame(1024));
        h.alloc_slab(1024, None, Some(frame())).unwrap();
        assert_eq!(h.held_pages(), 2);
    }

    #[test]
    fn free_and_reuse_slot() {
        let mut h = heap();
        let a = h.alloc_slab(512, None, Some(frame())).unwrap();
        let out = h.free(a, true).unwrap();
        assert_eq!(out.freed_bytes, 512);
        assert!(out.page_now_free);
        assert_eq!(h.wholly_free_pages(), 1);
        // Reuse without a new frame.
        let b = h.alloc_slab(512, None, None).unwrap();
        assert_eq!(h.wholly_free_pages(), 0);
        assert_eq!(b.page, a.page);
        assert_eq!(h.resolve(a).unwrap_err(), SoftError::Revoked);
        assert!(h.resolve(b).is_ok());
    }

    #[test]
    fn free_page_reformats_for_other_class() {
        let mut h = heap();
        let a = h.alloc_slab(64, None, Some(frame())).unwrap();
        h.free(a, true).unwrap();
        // Different class: heap must re-format its own free page instead
        // of demanding a new frame.
        let b = h.alloc_slab(2048, None, None).unwrap();
        assert!(h.resolve(b).is_ok());
        assert_eq!(h.held_pages(), 1);
    }

    #[test]
    fn span_roundtrip() {
        let mut h = heap();
        let span = Span::new_zeroed(3);
        let raw = h.insert_span(span, 10_000, None);
        assert_eq!(raw.kind, AllocKind::Span);
        assert_eq!(h.held_pages(), 3);
        let (_, len) = h.resolve(raw).unwrap();
        assert_eq!(len, 10_000);
        let out = h.free(raw, true).unwrap();
        assert_eq!(out.freed_bytes, 10_000);
        assert_eq!(out.released_span.unwrap().pages(), 3);
        assert_eq!(h.held_pages(), 0);
        assert_eq!(h.resolve(raw).unwrap_err(), SoftError::Revoked);
    }

    #[test]
    fn span_generation_is_checked_after_entry_reuse() {
        let mut h = heap();
        let raw1 = h.insert_span(Span::new_zeroed(2), 8192, None);
        h.free(raw1, true).unwrap();
        // Entry index is recycled for a new span; old handle must fail.
        let raw2 = h.insert_span(Span::new_zeroed(2), 8192, None);
        assert_eq!(raw1.page, raw2.page, "entry recycled");
        assert_eq!(h.resolve(raw1).unwrap_err(), SoftError::Revoked);
        assert!(h.resolve(raw2).is_ok());
    }

    #[test]
    fn harvest_respects_keep() {
        let mut h = heap();
        let mut handles = Vec::new();
        for _ in 0..3 {
            // Full-page allocations so each free releases a page.
            handles.push(h.alloc_slab(4096, None, Some(frame())).unwrap());
        }
        for raw in handles {
            h.free(raw, true).unwrap();
        }
        assert_eq!(h.wholly_free_pages(), 3);
        let harvested = h.harvest_free_pages(1);
        assert_eq!(harvested.len(), 2);
        assert_eq!(h.wholly_free_pages(), 1);
        assert_eq!(h.held_pages(), 1);
    }

    #[test]
    fn mixed_classes_accounting() {
        let mut h = heap();
        let a = h.alloc_slab(64, None, Some(frame())).unwrap();
        let b = h.alloc_slab(1024, None, Some(frame())).unwrap();
        let c = h.insert_span(Span::new_zeroed(2), 5000, None);
        let s = h.stats();
        assert_eq!(s.held_pages, 4);
        assert_eq!(s.live_bytes, 64 + 1024 + 5000);
        assert_eq!(s.live_allocs, 3);
        h.free(b, true).unwrap();
        h.free(a, true).unwrap();
        h.free(c, true).unwrap();
        let s = h.stats();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.live_allocs, 0);
        assert_eq!(s.frees_total, 3);
        assert_eq!(s.held_pages, 2); // two wholly-free slab pages remain
        assert_eq!(s.wholly_free_pages, 2);
    }

    #[test]
    fn destroy_runs_drops_and_returns_memory() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let mut h = heap();
        for _ in 0..3 {
            let raw = h
                .alloc_slab(
                    std::mem::size_of::<Probe>().max(1),
                    super::super::drop_fn_for::<Probe>(),
                    Some(frame()),
                )
                .unwrap();
            let (ptr, _) = h.resolve(raw).unwrap();
            // SAFETY: live slot sized for `Probe`.
            unsafe { ptr.cast::<Probe>().write(Probe) };
        }
        let (frames, spans) = h.destroy();
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
        assert_eq!(frames.len(), 1); // all three probes share one 64 B page
        assert!(spans.is_empty());
    }

    #[test]
    fn pages_needed_matches_kind() {
        assert_eq!(SdsHeap::pages_needed(1), 1);
        assert_eq!(SdsHeap::pages_needed(4096), 1);
        assert_eq!(SdsHeap::pages_needed(4097), 2);
        assert_eq!(SdsHeap::pages_needed(3 * 4096 + 1), 4);
    }

    #[test]
    fn churn_preserves_invariants() {
        // Deterministic alloc/free churn across classes; checks that
        // accounting never drifts and stale list entries are tolerated.
        let mut h = heap();
        let mut live: Vec<(RawHandle, usize)> = Vec::new();
        let mut expected_bytes = 0usize;
        let sizes = [32usize, 100, 700, 1500, 3000];
        for round in 0..400 {
            let size = sizes[round % sizes.len()];
            if round % 3 == 2 && !live.is_empty() {
                let (raw, len) = live.swap_remove(round % live.len());
                let out = h.free(raw, true).unwrap();
                assert_eq!(out.freed_bytes, len);
                expected_bytes -= len;
            } else {
                let extra = if h.can_alloc_without_frame(size) {
                    None
                } else {
                    Some(frame())
                };
                let raw = h.alloc_slab(size, None, extra).unwrap();
                live.push((raw, size));
                expected_bytes += size;
            }
            assert_eq!(h.live_bytes(), expected_bytes);
            assert_eq!(h.live_allocs(), live.len());
        }
        for (raw, _) in live.drain(..) {
            h.free(raw, true).unwrap();
        }
        assert_eq!(h.live_bytes(), 0);
        assert_eq!(h.wholly_free_pages(), h.held_pages());
    }

    #[test]
    fn deferred_free_keeps_page_out_of_circulation() {
        let mut h = heap();
        let a = h.alloc_slab(4096, None, Some(frame())).unwrap();
        let out = h.free_deferred(a, true, 3).unwrap();
        assert_eq!(out.freed_bytes, 4096);
        assert!(!out.page_now_free);
        // Accounting treats the bytes as freed immediately...
        assert_eq!(h.live_bytes(), 0);
        assert_eq!(h.live_allocs(), 0);
        assert_eq!(h.stats().frees_total, 1);
        // ...but the page is neither wholly free nor harvestable.
        assert_eq!(h.wholly_free_pages(), 0);
        assert_eq!(h.limbo_slots(), 1);
        assert_eq!(h.limbo_page_count(), 1);
        assert!(h.harvest_free_pages(0).is_empty());
        assert_eq!(h.resolve(a).unwrap_err(), SoftError::Revoked);
        // An unsafe epoch flushes nothing; a safe one restores it.
        assert_eq!(h.flush_limbo(&|e| e > 3), 0);
        assert_eq!(h.flush_limbo(&|_| true), 1);
        assert_eq!(h.limbo_slots(), 0);
        assert_eq!(h.wholly_free_pages(), 1);
        assert_eq!(h.harvest_free_pages(0).len(), 1);
    }

    #[test]
    fn flush_limbo_returns_partial_page_to_allocation() {
        let mut h = heap();
        // 1024-class: 4 slots. Fill the page, defer one free.
        let mut handles = Vec::new();
        for i in 0..4 {
            let need = if i == 0 { Some(frame()) } else { None };
            handles.push(h.alloc_slab(1024, None, need).unwrap());
        }
        assert!(!h.can_alloc_without_frame(1024));
        h.free_deferred(handles[0], true, 1).unwrap();
        // The limbo slot is not allocatable: still needs a frame.
        assert!(!h.can_alloc_without_frame(1024));
        h.flush_limbo(&|_| true);
        // Flushed slot is allocatable again without a new frame.
        assert!(h.can_alloc_without_frame(1024));
        let b = h.alloc_slab(1024, None, None).unwrap();
        assert_eq!(b.page, handles[0].page);
    }

    #[test]
    fn harvest_limbo_pages_detaches_reader_pinned_pages() {
        let mut h = heap();
        let a = h.alloc_slab(4096, None, Some(frame())).unwrap();
        let b = h.alloc_slab(4096, None, Some(frame())).unwrap();
        h.free_deferred(a, true, 5).unwrap();
        h.free_deferred(b, true, 9).unwrap();
        assert_eq!(h.held_pages(), 2);
        let parked = h.harvest_limbo_pages(1);
        assert_eq!(parked.len(), 1);
        assert_eq!(h.held_pages(), 1);
        assert_eq!(h.limbo_page_count(), 1);
        let parked2 = h.harvest_limbo_pages(8);
        assert_eq!(parked2.len(), 1);
        assert_eq!(h.held_pages(), 0);
        assert_eq!(h.limbo_slots(), 0);
        let horizons: Vec<u64> = parked
            .into_iter()
            .chain(parked2)
            .map(|(page, horizon)| {
                let _ = page.drain_limbo_and_take_frame();
                horizon
            })
            .collect();
        assert_eq!(
            {
                let mut h = horizons.clone();
                h.sort_unstable();
                h
            },
            vec![5, 9]
        );
        // Flush tolerates the detached entries.
        assert_eq!(h.flush_limbo(&|_| true), 0);
    }

    #[test]
    fn span_free_deferred_is_immediate() {
        let mut h = heap();
        let raw = h.insert_span(Span::new_zeroed(2), 8192, None);
        let out = h.free_deferred(raw, true, 1).unwrap();
        assert!(out.released_span.is_some());
        assert_eq!(h.limbo_slots(), 0);
        assert_eq!(h.held_pages(), 0);
    }

    #[test]
    fn mixed_live_and_limbo_page_is_not_harvestable() {
        let mut h = heap();
        // Two 2048-slots on one page: one stays live, one goes limbo.
        let a = h.alloc_slab(2048, None, Some(frame())).unwrap();
        let b = h.alloc_slab(2048, None, None).unwrap();
        assert_eq!(a.page, b.page);
        h.free_deferred(a, true, 2).unwrap();
        assert!(
            h.harvest_limbo_pages(8).is_empty(),
            "page still has a live slot"
        );
        assert_eq!(h.limbo_page_count(), 1);
        // Free the live slot immediately: page is now all-limbo.
        h.free(b, true).unwrap();
        assert_eq!(h.harvest_limbo_pages(8).len(), 1);
    }
}
