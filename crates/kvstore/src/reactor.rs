//! The event-driven network plane: epoll reactors + batched shard
//! execution.
//!
//! This is the one path a request takes to a [`crate::Store`]. A
//! thread per client would cap a server at hundreds of connections and
//! put request parsing on the connection thread (EXPERIMENTS.md §A8
//! has the measurement). Instead a small pool of **reactor** threads
//! multiplexes every client socket through `epoll`, and parsing
//! happens on the **shard workers** so the event loop only does I/O:
//!
//! ```text
//!             ┌────────────────────────── reactor 0 ──┐
//!  clients ──▶│ epoll: accept / read / write          │
//!             │  frame (next_frame) → route            │──SPSC──▶ shard worker 0
//!             │  (routing_key_of + shard_of)           │──SPSC──▶ shard worker 1
//!             │  sequence replies → write bufs         │◀─inbox──  (batch: parse,
//!             └────────────────────────────────────────┘           execute,
//!             ┌────────────────────────── reactor 1 ──┐            encode_into)
//!  clients ──▶│            …same…                      │──SPSC──▶ …
//!             └────────────────────────────────────────┘
//! ```
//!
//! Division of labour:
//!
//! * **Reactors** own sockets. They accept (reactor 0 holds the
//!   listener and hands connections round-robin to its peers via each
//!   reactor's inbox + eventfd), read into per-connection buffers,
//!   *frame* requests with [`crate::protocol::next_frame`] (no
//!   parsing), hash-route each raw frame by
//!   [`crate::protocol::routing_key_of`] to the owning shard's SPSC
//!   ring, sequence completed replies back into per-connection write
//!   buffers, and flush them when the socket is writable.
//! * **Shard workers** (one per shard) drain their rings in batches,
//!   parse each frame once (borrowed-slice [`crate::CommandRef::parse`]),
//!   run it with their own shard as home
//!   ([`crate::ShardedStore::execute_at`]), encode replies, and post
//!   them to the owning reactor's inbox with one eventfd wake per
//!   reactor per batch.
//!
//! Backpressure is explicit and per-connection: when a connection's
//! write buffer crosses the high-water mark, its in-flight count hits
//! the cap, or its shard ring is full (the frame is *parked*), the
//! reactor drops `EPOLLIN` interest for that socket — the client's
//! sends back up into its own kernel buffers while every other
//! connection proceeds. Reads resume when the pressure clears. A
//! single slow reader therefore costs bounded server memory: one
//! read buffer, one capped write buffer, one capped in-flight window.
//!
//! Replies preserve per-connection order even though a pipelined
//! connection's frames may fan out to different shards: each frame
//! gets a per-connection sequence number at framing time, and the
//! reactor holds out-of-order completions in a per-connection reorder
//! buffer until the next expected sequence arrives.
//!
//! No external dependencies: `epoll`/`eventfd` are declared as raw
//! `extern "C"` syscalls (glibc is already linked by `std`), and the
//! SPSC rings are built here from atomics — consistent with the
//! repo's vendored-shim, zero-dep stance.
//!
//! ## The fault plane
//!
//! Robustness here is designed to be *provable*, not incidental:
//!
//! * Every raw I/O call (`read`/`write`/`accept`/`epoll_wait`/eventfd
//!   wakes) goes through the [`SysIo`] trait. Production uses
//!   [`RealSysIo`] (the plain syscalls); the testkit swaps in a seeded
//!   shim that injects `EINTR`, `EAGAIN`, `ECONNRESET`, `EMFILE`,
//!   short reads and partial writes by plan, so the error paths run on
//!   every seed-matrix sweep instead of never.
//! * Per-connection **deadlines** (idle and write-stall) ride a lazy
//!   timer wheel checked each reactor round; a slow reader is evicted
//!   after a bound (`conn_deadline_closes_total`) instead of holding
//!   its write buffer and reorder slots forever.
//! * **Overload admission control**: past a global in-flight
//!   high-water mark the reactor sheds new frames with an immediate
//!   `-ERR overloaded` reply (`overload_sheds_total`), shard-ring
//!   parks give up after a bound, and a harder limit stands the
//!   listener down — brownout, not blackout.
//! * Shard workers and reactors run **supervised** under
//!   `catch_unwind`: a panicked worker is restarted, its in-flight
//!   request answered with a clean error reply
//!   (`panic_error_replies_total`), and the other shards keep serving;
//!   a panicked reactor closes its connections and resumes accepting.
//!
//! Every one of those outcomes is a counter, and together they form a
//! ledger ([`NetStats::ledger`]): replies == executed + shed + fatal +
//! discarded + panic-failed, so an injected fault can never leave a
//! request silently unaccounted.

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, Read, Write};
use std::mem::MaybeUninit;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use softmem_telemetry::{Counter, Gauge, Registry, Snapshot};

use crate::protocol::{next_frame, routing_key_of, CommandRef, Response};
use crate::sharded::ShardedStore;

// ----------------------------------------------------------------------
// Raw syscall layer: epoll + eventfd.
// ----------------------------------------------------------------------

pub(crate) mod sys {
    //! Minimal `epoll`/`eventfd` declarations. `std` already links
    //! libc, so the symbols resolve without any crate dependency.

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_SNDBUF: i32 = 7;
    pub const SO_RCVBUF: i32 = 8;

    /// `struct epoll_event`. The kernel ABI packs this on x86-64
    /// (12 bytes); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const i32,
            optlen: u32,
        ) -> i32;
    }
}

/// Sets a socket buffer size (`SO_SNDBUF`/`SO_RCVBUF`). The kernel
/// doubles the value for bookkeeping and clamps to its own minimum,
/// so small requests land around 4–8 KiB — which is the point: the
/// backpressure machinery is only observable at test scale when the
/// kernel isn't silently absorbing megabytes per connection.
pub(crate) fn set_sock_buf(fd: RawFd, opt: i32, bytes: usize) -> io::Result<()> {
    let val = bytes as i32;
    let rc = unsafe {
        sys::setsockopt(
            fd,
            sys::SOL_SOCKET,
            opt,
            &val,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

/// A thin safe wrapper over one `epoll` instance (level-triggered).
pub struct Poller {
    epfd: OwnedFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(
        &self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut events = sys::EPOLLRDHUP;
        if readable {
            events |= sys::EPOLLIN;
        }
        if writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, readable, writable)
    }

    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, readable, writable)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument is ignored for DEL but must be non-null
        // on pre-2.6.9 kernels; pass a dummy for compatibility.
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        let rc = unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), sys::EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Waits up to `timeout_ms` and appends ready events to `out`
    /// (which is cleared first). `EINTR` returns an empty set.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                buf.as_mut_ptr(),
                buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &buf[..n as usize] {
            // Copy fields out by value (the struct is packed on
            // x86-64, so references into it would be unaligned).
            let events = ev.events;
            let data = ev.data;
            out.push(Event {
                token: data,
                readable: events & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: events & sys::EPOLLOUT != 0,
                hangup: events & (sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

/// A nonblocking `eventfd` wrapped as a `File`: any thread can wake
/// the owning reactor by writing 8 bytes; the reactor drains it on
/// wakeup. (`&File` implements `Write`, so waking needs no lock.)
pub(crate) fn new_eventfd() -> io::Result<File> {
    let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(unsafe { File::from_raw_fd(fd) })
}

// ----------------------------------------------------------------------
// Syscall shim: the reactor's only door to the kernel.
// ----------------------------------------------------------------------

/// Every raw I/O call the network plane makes, as a trait, so the
/// testkit can interpose a seeded fault injector (`EINTR`, `EAGAIN`,
/// `ECONNRESET`, `EMFILE`, short reads, partial writes) and prove the
/// error handling instead of trusting it. Production uses
/// [`RealSysIo`]; the dynamic dispatch is one vtable hop per syscall,
/// noise next to the syscall itself (the `pingpong` workload of the
/// repository benchmark, one syscall round trip per request, runs
/// with the shim in place).
///
/// Implementations must be deterministic for a fixed seed and call
/// sequence — the testkit replays failures from `(scenario, seed)`.
pub trait SysIo: Send + Sync {
    /// `read(2)` from a connected stream into `buf`.
    fn read(&self, stream: &TcpStream, buf: &mut [u8]) -> io::Result<usize>;
    /// `write(2)` of `buf` to a connected stream.
    fn write(&self, stream: &TcpStream, buf: &[u8]) -> io::Result<usize>;
    /// `accept(2)` on the listener.
    fn accept(&self, listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)>;
    /// `epoll_wait(2)` via the reactor's [`Poller`]. Unlike
    /// [`Poller::wait`], an implementation may surface `EINTR` as an
    /// error — the reactor loop must tolerate it.
    fn epoll_wait(&self, poller: &Poller, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()>;
    /// One eventfd wake (an 8-byte write). A lost wake must only cost
    /// latency, never liveness: the worker park and the reactor poll
    /// both re-check on a timeout.
    fn wake(&self, efd: &File) -> io::Result<()>;
}

/// The production [`SysIo`]: the plain syscalls, no interposition.
#[derive(Debug, Default)]
pub struct RealSysIo;

impl SysIo for RealSysIo {
    fn read(&self, stream: &TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        (&mut &*stream).read(buf)
    }

    fn write(&self, stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
        (&mut &*stream).write(buf)
    }

    fn accept(&self, listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        listener.accept()
    }

    fn epoll_wait(&self, poller: &Poller, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        poller.wait(out, timeout_ms)
    }

    fn wake(&self, efd: &File) -> io::Result<()> {
        (&mut &*efd).write_all(&1u64.to_ne_bytes())
    }
}

/// A hook called at chosen points inside worker and reactor threads.
/// The testkit's panic-injection chaos uses it to prove the
/// supervision story; the default methods do nothing, and production
/// configs carry no hook at all.
pub trait WorkerHook: Send + Sync {
    /// Called by a shard worker just before parsing + executing a
    /// frame. May panic — the worker supervisor must recover.
    fn before_execute(&self, _shard: usize, _frame: &[u8]) {}
    /// Called by a reactor at the top of each poll round. May panic —
    /// the reactor supervisor must recover.
    fn before_poll(&self, _reactor: usize) {}
}

/// Locks `m`, shrugging off poison: the network plane's shared state
/// (inboxes, park flags) is safe under a panicking peer — every
/// mutation is complete before the lock is released or trivially
/// idempotent — so a worker that panicked while a reactor held the
/// lock must not cascade-kill the whole frontend.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ----------------------------------------------------------------------
// SPSC ring: reactor → shard-worker request queue.
// ----------------------------------------------------------------------

struct SpscInner<T> {
    mask: usize,
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor: slots `[head, tail)` are initialised.
    head: AtomicUsize,
    /// Producer cursor.
    tail: AtomicUsize,
}

// One producer and one consumer touch disjoint slots, synchronised by
// the Release/Acquire pair on `tail` (push → pop) and `head` (pop →
// push reuse), so sharing the ring across the two threads is sound.
unsafe impl<T: Send> Sync for SpscInner<T> {}
unsafe impl<T: Send> Send for SpscInner<T> {}

impl<T> Drop for SpscInner<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drain any undelivered items.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut i = head;
        while i != tail {
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// The producer half (held by exactly one reactor thread).
pub(crate) struct SpscTx<T>(Arc<SpscInner<T>>);
/// The consumer half (held by exactly one shard worker).
pub(crate) struct SpscRx<T>(Arc<SpscInner<T>>);

/// A bounded single-producer/single-consumer ring of `capacity`
/// (rounded up to a power of two) slots.
pub(crate) fn spsc<T>(capacity: usize) -> (SpscTx<T>, SpscRx<T>) {
    let cap = capacity.next_power_of_two().max(2);
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(SpscInner {
        mask: cap - 1,
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (SpscTx(Arc::clone(&inner)), SpscRx(inner))
}

impl<T> SpscTx<T> {
    /// Pushes `v`, or returns it when the ring is full.
    pub fn push(&self, v: T) -> Result<(), T> {
        let tail = self.0.tail.load(Ordering::Relaxed);
        let head = self.0.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.0.mask {
            return Err(v);
        }
        unsafe { (*self.0.slots[tail & self.0.mask].get()).write(v) };
        self.0.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }
}

impl<T> SpscRx<T> {
    pub fn pop(&self) -> Option<T> {
        let head = self.0.head.load(Ordering::Relaxed);
        let tail = self.0.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let v = unsafe { (*self.0.slots[head & self.0.mask].get()).assume_init_read() };
        self.0.head.store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }
}

// ----------------------------------------------------------------------
// Shared plumbing.
// ----------------------------------------------------------------------

/// One framed request in flight from a reactor to a shard worker.
struct FramedReq {
    /// Index of the reactor that owns the connection.
    reactor: u32,
    /// Connection id (epoll token; never reused within a frontend).
    conn: u64,
    /// Per-connection sequence number, assigned at framing time.
    seq: u64,
    /// The raw request line (terminator stripped).
    frame: Vec<u8>,
}

/// One completed reply on its way back to a reactor.
struct Reply {
    conn: u64,
    seq: u64,
    bytes: Vec<u8>,
    /// Close the connection once this reply (and everything before
    /// it) has been flushed — set for `SHUTDOWN` and protocol-fatal
    /// errors.
    close_after: bool,
}

/// Cross-thread mailbox for one reactor: workers post replies here,
/// and the accepting reactor posts handed-off connections.
struct Inbox {
    replies: Vec<Reply>,
    conns: Vec<TcpStream>,
}

struct ReactorShared {
    inbox: Mutex<Inbox>,
    wake: File,
    /// The syscall shim the wake write goes through (same instance the
    /// owning reactor uses), so fault plans can drop wakes too.
    io: Arc<dyn SysIo>,
}

impl ReactorShared {
    fn wake(&self) {
        // A failed (or deliberately dropped) wake is tolerated: the
        // reactor polls on a 50 ms timeout and the workers park with a
        // 25 ms timeout, so a lost edge costs latency, not liveness.
        let _ = self.io.wake(&self.wake);
    }
}

/// Shard-worker parking: reactors set the flag and notify after
/// pushing work; the worker re-checks with a timeout so a lost wake
/// can never wedge it.
struct Park {
    flag: Mutex<bool>,
    cv: Condvar,
}

impl Park {
    fn notify(&self) {
        *lock_unpoisoned(&self.flag) = true;
        self.cv.notify_one();
    }
}

/// Frontend counters, all plain atomics (no telemetry dependency) so
/// the testkit can certify the network plane's conservation laws:
/// once traffic stops, `requests_total == replies_total` and
/// `parked_frames == 0` means the plane is quiescent, and
/// `accepted_total - closed_total == open_conns` at all times.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted_total: AtomicU64,
    /// Connections fully closed (fd released).
    pub closed_total: AtomicU64,
    /// Currently open connections (gauge).
    pub open_conns: AtomicU64,
    /// Frames assigned a sequence number (routed or parked).
    pub requests_total: AtomicU64,
    /// Replies accounted for: received from a worker, generated
    /// inline by a reactor, or discarded because their connection
    /// died first.
    pub replies_total: AtomicU64,
    /// Non-empty drain passes across all shard workers.
    pub batches_total: AtomicU64,
    /// Requests executed inside those passes (`/ batches_total` =
    /// mean batch size).
    pub batched_requests_total: AtomicU64,
    /// Transitions of a connection into the reads-paused state.
    pub paused_reads_total: AtomicU64,
    /// Frames that found their shard ring full and parked.
    pub route_stalls_total: AtomicU64,
    /// Currently parked frames (gauge; at most one per connection).
    pub parked_frames: AtomicU64,
    /// High-water mark of any single connection's write buffer.
    pub max_write_buf_bytes: AtomicU64,
    /// Times the listener stood down (fd exhaustion backoff or the
    /// hard overload limit) instead of busy-spinning on accept.
    pub accept_backoffs_total: AtomicU64,
    /// Connections evicted by the idle or write-stall deadline.
    pub conn_deadline_closes_total: AtomicU64,
    /// Frames answered with `-ERR overloaded` instead of being
    /// executed (global in-flight high water, or a park that outlived
    /// its bound).
    pub overload_sheds_total: AtomicU64,
    /// Inline protocol-fatal error replies (oversize / malformed
    /// stream) generated by a reactor without shard execution.
    pub fatal_replies_total: AtomicU64,
    /// Parked frames discarded because their connection closed before
    /// the shard ring ever had room.
    pub parked_discards_total: AtomicU64,
    /// In-flight requests answered with an error reply because their
    /// shard worker panicked mid-execution.
    pub panic_error_replies_total: AtomicU64,
    /// Shard workers restarted by the supervisor after a panic.
    pub worker_restarts_total: AtomicU64,
    /// Reactor threads restarted by the supervisor after a panic.
    pub reactor_restarts_total: AtomicU64,
    /// Set when a client issued `SHUTDOWN` (the binary watches this).
    pub shutdown_requested: AtomicBool,
}

impl NetStats {
    /// Whether the plane has no work in flight. Only meaningful once
    /// producers have stopped sending (counters are monotonic, so a
    /// quiescent reading cannot be a race once traffic has ceased).
    pub fn quiesced(&self) -> bool {
        self.parked_frames.load(Ordering::Acquire) == 0
            && self.requests_total.load(Ordering::Acquire)
                == self.replies_total.load(Ordering::Acquire)
    }

    /// The fault-accounting ledger: every reply has exactly one
    /// origin, so at quiescence
    ///
    /// ```text
    /// replies_total == batched_requests_total   (executed at a shard)
    ///                + overload_sheds_total     (shed at admission)
    ///                + fatal_replies_total      (protocol-fatal inline)
    ///                + parked_discards_total    (conn died while parked)
    ///                + panic_error_replies_total(worker panicked on it)
    /// ```
    ///
    /// Returns `(replies_total, sum-of-origins)`; the testkit's
    /// network-plane family asserts the two sides agree, which is the
    /// "shed + closed + completed == offered" law (offered ==
    /// `requests_total` == `replies_total` once quiescent).
    pub fn ledger(&self) -> (u64, u64) {
        let lhs = self.replies_total.load(Ordering::Acquire);
        let rhs = self.batched_requests_total.load(Ordering::Acquire)
            + self.overload_sheds_total.load(Ordering::Acquire)
            + self.fatal_replies_total.load(Ordering::Acquire)
            + self.parked_discards_total.load(Ordering::Acquire)
            + self.panic_error_replies_total.load(Ordering::Acquire);
        (lhs, rhs)
    }
}

/// The network plane's telemetry registry (label `net`). The
/// fault-plane *counters* are true mirrors incremented at the same
/// site as their [`NetStats`] ground truth (the metrics-consistency
/// invariant family certifies the two agree); the traffic *gauges*
/// are set from ground truth on [`NetMetrics::refresh`], which runs
/// before every `STATS` snapshot.
pub struct NetMetrics {
    registry: Registry,
    /// Mirror of [`NetStats::accept_backoffs_total`].
    pub accept_backoffs: Arc<Counter>,
    /// Mirror of [`NetStats::conn_deadline_closes_total`].
    pub conn_deadline_closes: Arc<Counter>,
    /// Mirror of [`NetStats::overload_sheds_total`].
    pub overload_sheds: Arc<Counter>,
    /// Mirror of [`NetStats::worker_restarts_total`].
    pub worker_restarts: Arc<Counter>,
    /// Mirror of [`NetStats::reactor_restarts_total`].
    pub reactor_restarts: Arc<Counter>,
    /// Mirror of [`NetStats::panic_error_replies_total`].
    pub panic_error_replies: Arc<Counter>,
    /// [`NetStats::requests_total`] at last refresh.
    pub requests: Arc<Gauge>,
    /// [`NetStats::replies_total`] at last refresh.
    pub replies: Arc<Gauge>,
    /// [`NetStats::open_conns`] at last refresh.
    pub open_conns: Arc<Gauge>,
    /// [`NetStats::parked_frames`] at last refresh.
    pub parked_frames: Arc<Gauge>,
}

impl NetMetrics {
    fn new() -> Self {
        let registry = Registry::new("net");
        NetMetrics {
            accept_backoffs: registry.counter("accept_backoffs"),
            conn_deadline_closes: registry.counter("conn_deadline_closes"),
            overload_sheds: registry.counter("overload_sheds"),
            worker_restarts: registry.counter("worker_restarts"),
            reactor_restarts: registry.counter("reactor_restarts"),
            panic_error_replies: registry.counter("panic_error_replies"),
            requests: registry.gauge("requests"),
            replies: registry.gauge("replies"),
            open_conns: registry.gauge("open_conns"),
            parked_frames: registry.gauge("parked_frames"),
            registry,
        }
    }

    /// Sets the traffic gauges from ground truth.
    pub fn refresh(&self, stats: &NetStats) {
        self.requests
            .set(stats.requests_total.load(Ordering::Acquire) as i64);
        self.replies
            .set(stats.replies_total.load(Ordering::Acquire) as i64);
        self.open_conns
            .set(stats.open_conns.load(Ordering::Acquire) as i64);
        self.parked_frames
            .set(stats.parked_frames.load(Ordering::Acquire) as i64);
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

impl std::fmt::Debug for NetMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetMetrics")
            .field("overload_sheds", &self.overload_sheds.get())
            .field("conn_deadline_closes", &self.conn_deadline_closes.get())
            .field("worker_restarts", &self.worker_restarts.get())
            .finish_non_exhaustive()
    }
}

/// Tuning for a [`ReactorFrontend`].
#[derive(Clone)]
pub struct ReactorConfig {
    /// Reactor (event-loop) threads; `0` picks
    /// `available_parallelism / 2` clamped to `1..=4`.
    pub reactors: usize,
    /// Per-connection cap on frames routed but not yet sequenced into
    /// the write buffer; reads pause at the cap.
    pub max_inflight_per_conn: usize,
    /// Per-connection write-buffer high-water mark (bytes); reads
    /// pause above it until the client drains.
    pub write_highwater: usize,
    /// Capacity of each reactor→shard request ring.
    pub ring_capacity: usize,
    /// Max requests a shard worker takes from one ring per pass.
    pub batch_limit: usize,
    /// Max request-line length; longer frames are a protocol error
    /// and close the connection (bounds read-buffer growth).
    pub max_frame_len: usize,
    /// `SO_SNDBUF` applied to every accepted socket (`None` keeps the
    /// kernel default). Shrinking it makes write-side backpressure
    /// engage at small data volumes — the testkit's slow-reader
    /// scenario depends on this; production leaves it alone.
    pub so_sndbuf: Option<usize>,
    /// Evict a connection that has sent no bytes for this long
    /// (`None` disables — the default, so embedders opt in; the
    /// `kv_server` binary enables it with `--idle-timeout-ms`).
    pub idle_timeout: Option<Duration>,
    /// Evict a connection whose pending write buffer has made no
    /// progress for this long — a paused slow reader is released
    /// after a bound instead of holding buffers forever (`None`
    /// disables).
    pub write_stall_timeout: Option<Duration>,
    /// Global in-flight high-water mark (`requests - replies`): at or
    /// above it, newly framed requests are shed with an immediate
    /// `-ERR overloaded` reply instead of being routed (`None`
    /// disables).
    pub overload_shed_inflight: Option<u64>,
    /// The harder limit: at or above this global in-flight count the
    /// listener stands down for the accept backoff (100 ms) instead
    /// of accepting more connections (`None` disables).
    pub overload_accept_inflight: Option<u64>,
    /// A frame parked on a full shard ring for longer than this is
    /// shed with `-ERR overloaded` instead of waiting forever —
    /// "the ring stays full" becomes brownout, not a wedged
    /// connection (`None` waits indefinitely).
    pub park_shed_after: Option<Duration>,
    /// The syscall shim every raw I/O call goes through. Production
    /// (the default) is [`RealSysIo`]; the testkit injects faults here.
    pub io: Arc<dyn SysIo>,
    /// Chaos hook run inside worker/reactor threads (panic
    /// injection). `None` in production.
    pub hook: Option<Arc<dyn WorkerHook>>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            reactors: 0,
            max_inflight_per_conn: 128,
            write_highwater: 256 << 10,
            ring_capacity: 4096,
            batch_limit: 256,
            max_frame_len: 1 << 20,
            so_sndbuf: None,
            idle_timeout: None,
            write_stall_timeout: None,
            overload_shed_inflight: None,
            overload_accept_inflight: None,
            park_shed_after: None,
            io: Arc::new(RealSysIo),
            hook: None,
        }
    }
}

impl std::fmt::Debug for ReactorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorConfig")
            .field("reactors", &self.reactors)
            .field("max_inflight_per_conn", &self.max_inflight_per_conn)
            .field("write_highwater", &self.write_highwater)
            .field("ring_capacity", &self.ring_capacity)
            .field("batch_limit", &self.batch_limit)
            .field("max_frame_len", &self.max_frame_len)
            .field("so_sndbuf", &self.so_sndbuf)
            .field("idle_timeout", &self.idle_timeout)
            .field("write_stall_timeout", &self.write_stall_timeout)
            .field("overload_shed_inflight", &self.overload_shed_inflight)
            .field("overload_accept_inflight", &self.overload_accept_inflight)
            .field("park_shed_after", &self.park_shed_after)
            .field("hook", &self.hook.is_some())
            .finish_non_exhaustive()
    }
}

fn auto_reactors() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get() / 2)
        .unwrap_or(1)
        .clamp(1, 4)
}

// ----------------------------------------------------------------------
// Timer wheel: connection deadlines.
// ----------------------------------------------------------------------

/// Which per-connection deadline a wheel entry tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeadlineKind {
    /// No bytes received for `idle_timeout`.
    Idle,
    /// Pending write bytes made no progress for `write_stall_timeout`.
    WriteStall,
}

const WHEEL_SLOTS: usize = 128;
const WHEEL_TICK_MS: u64 = 10;

/// A single-level lazy timer wheel. Entries are *hints*, not truth:
/// the connection itself holds the authoritative deadline, which the
/// hot path refreshes with a plain store (no wheel churn per read or
/// write). When a hint fires, the reactor compares against the
/// authoritative deadline and either evicts, re-inserts further out
/// (activity pushed the deadline), or drops the hint (disarmed or
/// closed). Deadlines beyond the wheel's 1.28 s horizon simply take a
/// few laps. At most one hint per `(connection, kind)` is live.
struct TimerWheel {
    slots: Vec<Vec<(u64, DeadlineKind)>>,
    cursor: usize,
    last_tick: Instant,
}

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            last_tick: now,
        }
    }

    fn insert(&mut self, now: Instant, deadline: Instant, id: u64, kind: DeadlineKind) {
        let delay_ms = deadline.saturating_duration_since(now).as_millis() as u64;
        // +1 so an entry never lands on the cursor's own slot (it
        // would fire a tick early); cap at the horizon.
        let ticks = (delay_ms / WHEEL_TICK_MS + 1).min(WHEEL_SLOTS as u64 - 1) as usize;
        self.slots[(self.cursor + ticks) % WHEEL_SLOTS].push((id, kind));
    }

    /// Advances the cursor past every elapsed tick, draining due
    /// hints into `out`.
    fn expire_into(&mut self, now: Instant, out: &mut Vec<(u64, DeadlineKind)>) {
        let elapsed_ms = now.saturating_duration_since(self.last_tick).as_millis() as u64;
        let ticks = elapsed_ms / WHEEL_TICK_MS;
        if ticks == 0 {
            return;
        }
        self.last_tick += Duration::from_millis(ticks * WHEEL_TICK_MS);
        // A full lap visits every slot; more laps add nothing.
        for _ in 0..ticks.min(WHEEL_SLOTS as u64) {
            self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
            out.append(&mut self.slots[self.cursor]);
        }
    }
}

// ----------------------------------------------------------------------
// Connection state machine.
// ----------------------------------------------------------------------

/// Per-connection state. Lifecycle:
///
/// ```text
/// Open ──read EOF/RDHUP──▶ Draining (answer what was pipelined)
///   │                         │ in-flight == 0 && write buf empty
///   │ write error / HUP /     ▼
///   └─────────────────────▶ Closed (fd deleted, counters settled)
/// ```
///
/// `close_after` (SHUTDOWN / protocol-fatal error) also enters
/// Draining: reads stop, queued replies flush, then the fd closes.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet framed; `read_pos` is the consumed
    /// prefix (compacted opportunistically).
    read_buf: Vec<u8>,
    read_pos: usize,
    /// A frame that found its shard ring full: retried every loop
    /// until it fits. At most one — framing stops while parked.
    parked: Option<(usize, FramedReq)>,
    /// Encoded replies awaiting the socket; `write_pos` is flushed.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Out-of-order completions held until `next_write` catches up.
    reorder: BTreeMap<u64, Reply>,
    /// Next sequence number to assign at framing.
    next_seq: u64,
    /// Next sequence number to append to `write_buf`.
    next_write: u64,
    /// Interest currently registered with epoll.
    want_read: bool,
    want_write: bool,
    /// Reads paused by backpressure (write buffer, in-flight cap, or
    /// a parked frame).
    paused: bool,
    /// Peer half-closed (EOF seen); drain and close.
    peer_closed: bool,
    /// Stop reading; close once fully flushed.
    close_after: bool,
    /// Pending re-examination by `update_conn`.
    dirty: bool,
    /// When the current park began (for the park-shed bound).
    parked_since: Option<Instant>,
    /// Authoritative idle deadline (refreshed on every read).
    idle_deadline: Option<Instant>,
    /// Authoritative write-stall deadline (refreshed on write
    /// progress; disarmed when the write buffer drains).
    write_deadline: Option<Instant>,
    /// Whether a wheel hint for each kind is outstanding (at most one).
    idle_hint: bool,
    write_hint: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            read_pos: 0,
            parked: None,
            write_buf: Vec::new(),
            write_pos: 0,
            reorder: BTreeMap::new(),
            next_seq: 0,
            next_write: 0,
            want_read: true,
            want_write: false,
            paused: false,
            peer_closed: false,
            close_after: false,
            dirty: false,
            parked_since: None,
            idle_deadline: None,
            write_deadline: None,
            idle_hint: false,
            write_hint: false,
        }
    }

    /// Frames routed (or parked) but not yet sequenced into the write
    /// buffer.
    fn inflight(&self) -> u64 {
        self.next_seq - self.next_write
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

struct Reactor {
    idx: usize,
    poller: Poller,
    /// Every reactor's mailbox (for round-robin connection handoff);
    /// `shared[idx]` is ours.
    shared: Vec<Arc<ReactorShared>>,
    listener: Option<TcpListener>,
    engine: Arc<ShardedStore>,
    /// Request ring per shard (we are the single producer).
    rings: Vec<SpscTx<FramedReq>>,
    parks: Vec<Arc<Park>>,
    conns: HashMap<u64, Conn>,
    conn_ids: Arc<AtomicU64>,
    stats: Arc<NetStats>,
    metrics: Arc<NetMetrics>,
    stop: Arc<AtomicBool>,
    cfg: ReactorConfig,
    /// Shards with new work this poll round (notified once).
    notify: Vec<bool>,
    /// Connections to re-examine this round.
    dirty: Vec<u64>,
    /// Connections with a parked frame.
    stalled: Vec<u64>,
    next_rr: usize,
    /// Set after a fatal `accept` error (EMFILE/ENFILE): the listener
    /// is deregistered until this deadline so a level-triggered epoll
    /// doesn't busy-spin on the un-acceptable readiness condition.
    accept_backoff_until: Option<Instant>,
    /// Deadline hints for idle / write-stall eviction.
    wheel: TimerWheel,
}

/// How long the listener stays deregistered after fd exhaustion
/// before retrying `accept`; closed connections free fds meanwhile.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

impl Reactor {
    /// The supervisor shell: runs the event loop under `catch_unwind`
    /// and, if it panics (a bug, or injected via
    /// [`WorkerHook::before_poll`]), recovers and goes again. A
    /// reactor panic may leave per-connection state half-mutated, so
    /// recovery closes this reactor's connections (settling every
    /// counter) and resumes with a clean table — the other reactors,
    /// the workers, and the listener keep serving throughout.
    fn run(mut self) {
        loop {
            let crashed = catch_unwind(AssertUnwindSafe(|| self.run_loop())).is_err();
            if !crashed {
                break;
            }
            self.stats
                .reactor_restarts_total
                .fetch_add(1, Ordering::Relaxed);
            self.metrics.reactor_restarts.inc();
            self.recover_after_panic();
            if self.stop.load(Ordering::Acquire) {
                break;
            }
        }
        // Teardown: release every fd and settle the gauges.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
    }

    fn run_loop(&mut self) {
        let mut events = Vec::with_capacity(256);
        loop {
            if let Some(hook) = &self.cfg.hook {
                hook.before_poll(self.idx);
            }
            match self.cfg.io.epoll_wait(&self.poller, &mut events, 50) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    // `Poller::wait` absorbs real EINTR; a shim may
                    // surface it raw. Treat as an empty round.
                    events.clear();
                }
                Err(_) => break,
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.drain_wake(),
                    id => {
                        if ev.hangup && !ev.readable {
                            self.close_conn(id);
                            continue;
                        }
                        if ev.readable {
                            self.handle_read(id);
                        }
                        if ev.writable {
                            self.mark_dirty(id);
                        }
                    }
                }
            }
            self.drain_inbox();
            self.retry_parked();
            self.flush_updates();
            self.check_deadlines();
            self.flush_notifications();
            self.maybe_resume_listener();
            if self.stop.load(Ordering::Acquire) {
                break;
            }
        }
    }

    /// Post-panic cleanup: close every connection this reactor owns
    /// (frames already at shards come back as replies for dead conn
    /// ids and are accounted normally) and reset the round-scoped
    /// scratch state, whose contents may be torn mid-update.
    fn recover_after_panic(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
        self.dirty.clear();
        self.stalled.clear();
        for n in self.notify.iter_mut() {
            *n = false;
        }
        self.wheel = TimerWheel::new(Instant::now());
    }

    /// Fires due deadline hints; evicts connections whose
    /// authoritative deadline has truly passed.
    fn check_deadlines(&mut self) {
        if self.cfg.idle_timeout.is_none() && self.cfg.write_stall_timeout.is_none() {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        self.wheel.expire_into(now, &mut due);
        for (id, kind) in due {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue; // Closed since the hint was planted.
            };
            let armed = match kind {
                DeadlineKind::Idle => {
                    conn.idle_hint = false;
                    conn.idle_deadline
                }
                DeadlineKind::WriteStall => {
                    conn.write_hint = false;
                    conn.write_deadline
                }
            };
            match armed {
                None => {} // Disarmed (e.g. the write buffer drained).
                Some(deadline) if deadline > now => {
                    // Activity pushed the deadline; re-plant the hint.
                    match kind {
                        DeadlineKind::Idle => conn.idle_hint = true,
                        DeadlineKind::WriteStall => conn.write_hint = true,
                    }
                    self.wheel.insert(now, deadline, id, kind);
                }
                Some(_) => {
                    self.stats
                        .conn_deadline_closes_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.metrics.conn_deadline_closes.inc();
                    self.close_conn(id);
                }
            }
        }
    }

    /// Global in-flight (offered but unanswered) frames, across every
    /// reactor. Relaxed loads race by a frame or two — admission
    /// control is a dam, not a turnstile.
    fn global_inflight(&self) -> u64 {
        self.stats
            .requests_total
            .load(Ordering::Relaxed)
            .saturating_sub(self.stats.replies_total.load(Ordering::Relaxed))
    }

    fn mark_dirty(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty.push(id);
            }
        }
    }

    // -- accept / handoff ------------------------------------------------

    fn accept_ready(&mut self) {
        // The hard overload limit: past it, stop accepting entirely
        // for a backoff period — the shed path below keeps existing
        // clients browned out, this keeps the accept queue from
        // feeding the fire.
        if let Some(limit) = self.cfg.overload_accept_inflight {
            if self.global_inflight() >= limit {
                self.pause_listener();
                return;
            }
        }
        loop {
            match self
                .cfg
                .io
                .accept(self.listener.as_ref().expect("listener event"))
            {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(true);
                    self.stats.accepted_total.fetch_add(1, Ordering::Relaxed);
                    let target = self.next_rr % self.shared.len();
                    self.next_rr += 1;
                    if target == self.idx {
                        self.register_conn(stream);
                    } else {
                        lock_unpoisoned(&self.shared[target].inbox)
                            .conns
                            .push(stream);
                        self.shared[target].wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE/ENFILE and friends: the pending
                    // connection stays in the accept queue, so a
                    // level-triggered listener would be re-reported
                    // readable on every `epoll_wait` and spin this
                    // reactor at 100% CPU. Stand the listener down
                    // and retry after a backoff — closing connections
                    // frees fds in the meantime.
                    self.pause_listener();
                    break;
                }
            }
        }
    }

    fn pause_listener(&mut self) {
        if self.accept_backoff_until.is_some() {
            return;
        }
        if let Some(listener) = &self.listener {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        self.stats
            .accept_backoffs_total
            .fetch_add(1, Ordering::Relaxed);
        self.metrics.accept_backoffs.inc();
        self.accept_backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
    }

    /// Re-registers a backed-off listener once its deadline passes.
    /// Called every loop round; the 50 ms `epoll_wait` timeout bounds
    /// the extra latency. If registration itself fails the backoff is
    /// extended rather than spinning on `epoll_ctl`.
    fn maybe_resume_listener(&mut self) {
        let Some(deadline) = self.accept_backoff_until else {
            return;
        };
        if Instant::now() < deadline {
            return;
        }
        self.accept_backoff_until = None;
        if let Some(listener) = &self.listener {
            if self
                .poller
                .add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)
                .is_err()
            {
                self.accept_backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        if let Some(bytes) = self.cfg.so_sndbuf {
            let _ = set_sock_buf(stream.as_raw_fd(), sys::SO_SNDBUF, bytes);
        }
        let id = self.conn_ids.fetch_add(1, Ordering::Relaxed);
        if self
            .poller
            .add(stream.as_raw_fd(), id, true, false)
            .is_err()
        {
            // Registration failure (fd exhaustion): account the
            // connection as opened-and-closed so the gauges balance.
            self.stats.closed_total.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.stats.open_conns.fetch_add(1, Ordering::Relaxed);
        let mut conn = Conn::new(stream);
        if let Some(t) = self.cfg.idle_timeout {
            let now = Instant::now();
            conn.idle_deadline = Some(now + t);
            conn.idle_hint = true;
            self.wheel.insert(now, now + t, id, DeadlineKind::Idle);
        }
        self.conns.insert(id, conn);
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 8];
        while (&self.shared[self.idx].wake).read(&mut buf).is_ok() {}
    }

    fn drain_inbox(&mut self) {
        let (replies, new_conns) = {
            let mut inbox = lock_unpoisoned(&self.shared[self.idx].inbox);
            (
                std::mem::take(&mut inbox.replies),
                std::mem::take(&mut inbox.conns),
            )
        };
        for stream in new_conns {
            self.register_conn(stream);
        }
        for reply in replies {
            self.sequence_reply(reply);
        }
    }

    // -- read / frame / route --------------------------------------------

    fn handle_read(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if !conn.want_read {
            // Stale readiness from before a pause; ignore.
            self.mark_dirty(id);
            return;
        }
        loop {
            let old = conn.read_buf.len();
            conn.read_buf.resize(old + 16 * 1024, 0);
            match self.cfg.io.read(&conn.stream, &mut conn.read_buf[old..]) {
                Ok(0) => {
                    conn.read_buf.truncate(old);
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.truncate(old + n);
                    if let Some(t) = self.cfg.idle_timeout {
                        // Authoritative deadline only — the wheel hint
                        // planted at registration re-chases it lazily.
                        conn.idle_deadline = Some(Instant::now() + t);
                    }
                    // Level-triggered: leave any remainder for the
                    // next wakeup so one chatty socket can't starve
                    // its siblings.
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.read_buf.truncate(old);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    conn.read_buf.truncate(old);
                    continue;
                }
                Err(_) => {
                    conn.read_buf.truncate(old);
                    self.close_conn(id);
                    return;
                }
            }
        }
        self.process_frames(id);
        self.mark_dirty(id);
    }

    /// Frames and routes everything complete in `read_buf`, stopping
    /// at backpressure (parked frame / in-flight cap / write-buffer
    /// high water).
    fn process_frames(&mut self, id: u64) {
        let nshards = self.rings.len() as u64;
        // Admission control, sampled once per pass: past the global
        // in-flight high water, every frame this pass is shed with an
        // immediate error reply — the connection lives (brownout),
        // the work does not.
        let shed_now = matches!(
            self.cfg.overload_shed_inflight,
            Some(limit) if self.global_inflight() >= limit
        );
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.parked.is_some()
                || conn.close_after
                || conn.inflight() >= self.cfg.max_inflight_per_conn as u64
                || conn.pending_write() >= self.cfg.write_highwater
            {
                break;
            }
            let Some((frame, used)) = next_frame(&conn.read_buf[conn.read_pos..]) else {
                // No complete line. An over-long partial line can
                // never become a valid frame — fail fast instead of
                // buffering without bound.
                if conn.read_buf.len() - conn.read_pos > self.cfg.max_frame_len {
                    self.protocol_fatal(id, "request line too long");
                }
                break;
            };
            if frame.is_empty() {
                // Blank line: skipped without a reply.
                conn.read_pos += used;
                continue;
            }
            if frame.len() > self.cfg.max_frame_len {
                self.protocol_fatal(id, "request line too long");
                break;
            }
            if shed_now {
                conn.read_pos += used;
                let seq = conn.next_seq;
                conn.next_seq += 1;
                self.stats.requests_total.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .overload_sheds_total
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics.overload_sheds.inc();
                let mut bytes = Vec::new();
                Response::Error("overloaded".into()).encode_into(&mut bytes);
                self.sequence_reply(Reply {
                    conn: id,
                    seq,
                    bytes,
                    close_after: false,
                });
                continue;
            }
            let shard = routing_key_of(frame)
                .map(|k| self.engine.shard_of(k))
                .unwrap_or((id % nshards) as usize);
            let seq = conn.next_seq;
            conn.next_seq += 1;
            self.stats.requests_total.fetch_add(1, Ordering::Relaxed);
            let req = FramedReq {
                reactor: self.idx as u32,
                conn: id,
                seq,
                frame: frame.to_vec(),
            };
            conn.read_pos += used;
            match self.rings[shard].push(req) {
                Ok(()) => self.notify[shard] = true,
                Err(req) => {
                    // Ring full: park and stop framing; retried every
                    // loop until the worker catches up (or the
                    // park-shed bound gives up on it).
                    conn.parked = Some((shard, req));
                    conn.parked_since = Some(Instant::now());
                    self.stats.parked_frames.fetch_add(1, Ordering::Relaxed);
                    self.stats
                        .route_stalls_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.stalled.push(id);
                    break;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&id) {
            // Compact the consumed prefix once it dominates the
            // buffer (or the buffer is fully consumed — the common
            // case — which makes this a free truncate).
            if conn.read_pos > 0
                && (conn.read_pos == conn.read_buf.len() || conn.read_pos >= 64 * 1024)
            {
                conn.read_buf.drain(..conn.read_pos);
                conn.read_pos = 0;
            }
        }
    }

    /// Emits an inline error reply for a malformed stream and flags
    /// the connection to close once it flushes.
    fn protocol_fatal(&mut self, id: u64, msg: &str) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // Flag the connection fatal *now*, not when the error reply
        // sequences through the reorder buffer: the malformed bytes
        // are still in `read_buf`, so every later `process_frames`
        // pass would otherwise re-trip the same condition and emit a
        // duplicate error reply per reactor round until in-flight
        // replies land. The top-of-loop `close_after` check makes
        // this a one-shot.
        conn.close_after = true;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        self.stats.requests_total.fetch_add(1, Ordering::Relaxed);
        self.stats
            .fatal_replies_total
            .fetch_add(1, Ordering::Relaxed);
        let mut bytes = Vec::new();
        Response::Error(msg.into()).encode_into(&mut bytes);
        self.sequence_reply(Reply {
            conn: id,
            seq,
            bytes,
            close_after: true,
        });
    }

    fn retry_parked(&mut self) {
        if self.stalled.is_empty() {
            return;
        }
        let stalled = std::mem::take(&mut self.stalled);
        for id in stalled {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            let Some((shard, req)) = conn.parked.take() else {
                continue;
            };
            match self.rings[shard].push(req) {
                Ok(()) => {
                    self.stats.parked_frames.fetch_sub(1, Ordering::Relaxed);
                    self.notify[shard] = true;
                    if let Some(conn) = self.conns.get_mut(&id) {
                        conn.parked_since = None;
                    }
                    // Unblocked: resume framing whatever else queued
                    // up behind the parked frame.
                    self.process_frames(id);
                    self.mark_dirty(id);
                }
                Err(req) => {
                    let Some(conn) = self.conns.get_mut(&id) else {
                        continue;
                    };
                    // The ring *stays* full: past the park-shed bound
                    // the frame is answered `-ERR overloaded` instead
                    // of waiting forever — its seq is already
                    // assigned, so the reply slots into order.
                    let give_up = matches!(
                        (self.cfg.park_shed_after, conn.parked_since),
                        (Some(bound), Some(since)) if since.elapsed() >= bound
                    );
                    if give_up {
                        conn.parked_since = None;
                        let seq = req.seq;
                        self.stats.parked_frames.fetch_sub(1, Ordering::Relaxed);
                        self.stats
                            .overload_sheds_total
                            .fetch_add(1, Ordering::Relaxed);
                        self.metrics.overload_sheds.inc();
                        let mut bytes = Vec::new();
                        Response::Error("overloaded".into()).encode_into(&mut bytes);
                        self.sequence_reply(Reply {
                            conn: id,
                            seq,
                            bytes,
                            close_after: false,
                        });
                        // The park no longer blocks framing; whatever
                        // queued behind it may now proceed (or shed).
                        self.process_frames(id);
                        self.mark_dirty(id);
                    } else {
                        conn.parked = Some((shard, req));
                        self.stalled.push(id);
                    }
                }
            }
        }
    }

    fn flush_notifications(&mut self) {
        for shard in 0..self.notify.len() {
            if self.notify[shard] {
                self.notify[shard] = false;
                self.parks[shard].notify();
            }
        }
    }

    // -- replies / writes ------------------------------------------------

    fn sequence_reply(&mut self, reply: Reply) {
        // Every reply is accounted even when its connection died
        // first — the quiescence invariant (`requests == replies`)
        // must converge through disconnects.
        self.stats.replies_total.fetch_add(1, Ordering::Relaxed);
        let id = reply.conn;
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.reorder.insert(reply.seq, reply);
        while let Some(r) = conn.reorder.remove(&conn.next_write) {
            conn.write_buf.extend_from_slice(&r.bytes);
            conn.next_write += 1;
            if r.close_after {
                conn.close_after = true;
            }
        }
        self.stats
            .max_write_buf_bytes
            .fetch_max(conn.pending_write() as u64, Ordering::Relaxed);
        self.mark_dirty(id);
    }

    /// Re-examines every touched connection: flush, resume framing,
    /// settle pause state, sync epoll interest, close when drained.
    fn flush_updates(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for id in dirty {
            self.update_conn(id);
        }
    }

    fn update_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.dirty = false;
        // Flush as much of the write buffer as the socket accepts.
        let mut broken = false;
        let mut wrote = false;
        while conn.write_pos < conn.write_buf.len() {
            match self
                .cfg
                .io
                .write(&conn.stream, &conn.write_buf[conn.write_pos..])
            {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if broken {
            self.close_conn(id);
            return;
        }
        // Write-stall deadline: armed while bytes are pending, pushed
        // forward by progress, disarmed by a drained buffer. The
        // wheel hint is only (re)planted on arming — refreshes chase
        // the authoritative deadline lazily.
        if let Some(t) = self.cfg.write_stall_timeout {
            if conn.pending_write() == 0 {
                conn.write_deadline = None;
            } else if wrote || conn.write_deadline.is_none() {
                let now = Instant::now();
                conn.write_deadline = Some(now + t);
                if !conn.write_hint {
                    conn.write_hint = true;
                    self.wheel
                        .insert(now, now + t, id, DeadlineKind::WriteStall);
                }
            }
        }
        if conn.write_pos == conn.write_buf.len() && conn.write_pos > 0 {
            conn.write_buf.clear();
            conn.write_pos = 0;
            // A burst against a slow reader can balloon the buffer;
            // give the excess back once drained.
            if conn.write_buf.capacity() > self.cfg.write_highwater * 2 {
                conn.write_buf.shrink_to(self.cfg.write_highwater);
            }
        }
        // Backpressure may have cleared (replies drained, frame
        // unparked): resume framing pipelined bytes already buffered.
        // No `paused` guard here — that flag is stale until recomputed
        // below, and gating on it can strand buffered frames forever
        // when a pause clears entirely within one pass (all in-flight
        // replies land and flush at once: no further epoll event will
        // fire for an idle, fully-drained socket). `process_frames`
        // re-checks every backpressure condition itself and returns
        // immediately if any still holds.
        if conn.read_pos < conn.read_buf.len() {
            self.process_frames(id);
        }
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        // Fully drained and told to finish → close.
        if (conn.peer_closed || conn.close_after)
            && conn.inflight() == 0
            && conn.parked.is_none()
            && conn.pending_write() == 0
        {
            self.close_conn(id);
            return;
        }
        // Settle the pause state and epoll interest.
        let paused = conn.parked.is_some()
            || conn.inflight() >= self.cfg.max_inflight_per_conn as u64
            || conn.pending_write() >= self.cfg.write_highwater;
        if paused && !conn.paused {
            self.stats
                .paused_reads_total
                .fetch_add(1, Ordering::Relaxed);
        }
        conn.paused = paused;
        let want_read = !paused && !conn.peer_closed && !conn.close_after;
        let want_write = conn.pending_write() > 0;
        if want_read != conn.want_read || want_write != conn.want_write {
            conn.want_read = want_read;
            conn.want_write = want_write;
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), id, want_read, want_write)
                .is_err()
            {
                self.close_conn(id);
            }
        }
    }

    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // A parked frame never reached its shard: account its "reply"
        // here so the quiescence counters still converge, and ledger
        // it as a discard (offered, then closed unanswered).
        if conn.parked.is_some() {
            self.stats.parked_frames.fetch_sub(1, Ordering::Relaxed);
            self.stats.replies_total.fetch_add(1, Ordering::Relaxed);
            self.stats
                .parked_discards_total
                .fetch_add(1, Ordering::Relaxed);
        }
        self.stats.closed_total.fetch_add(1, Ordering::Relaxed);
        self.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
        // Frames already at shards will come back as replies for a
        // dead conn id and be counted in `sequence_reply`; reorder
        // entries were counted when they arrived. Nothing else to do.
    }
}

// ----------------------------------------------------------------------
// Shard workers.
// ----------------------------------------------------------------------

struct WorkerCtx {
    shard: usize,
    engine: Arc<ShardedStore>,
    rings: Vec<SpscRx<FramedReq>>,
    park: Arc<Park>,
    reactors: Vec<Arc<ReactorShared>>,
    stats: Arc<NetStats>,
    metrics: Arc<NetMetrics>,
    stop: Arc<AtomicBool>,
    batch_limit: usize,
    hook: Option<Arc<dyn WorkerHook>>,
}

/// Supervisor-owned worker state, kept *outside* the `catch_unwind`
/// boundary so a panic cannot destroy it: replies already executed
/// but not yet posted, and the identity of the request that was
/// mid-execution when the roof fell in.
struct WorkerState {
    out: Vec<Vec<Reply>>,
    /// `(reactor, conn, seq)` of the in-flight request.
    inflight: Option<(u32, u64, u64)>,
}

/// The supervisor shell around [`worker_loop`]: on a panic (an engine
/// bug, or injected via [`WorkerHook::before_execute`]) it answers
/// the in-flight request with a clean error reply, posts whatever the
/// crashed pass had already completed, and restarts the loop. The
/// other shards never stop serving.
fn shard_worker(ctx: WorkerCtx) {
    let mut st = WorkerState {
        out: (0..ctx.reactors.len()).map(|_| Vec::new()).collect(),
        inflight: None,
    };
    loop {
        let crashed = catch_unwind(AssertUnwindSafe(|| worker_loop(&ctx, &mut st))).is_err();
        if !crashed {
            break;
        }
        ctx.stats
            .worker_restarts_total
            .fetch_add(1, Ordering::Relaxed);
        ctx.metrics.worker_restarts.inc();
        if let Some((reactor, conn, seq)) = st.inflight.take() {
            // The client sees a whole, correctly-sequenced error line
            // — never a torn stream or a hole in its pipeline.
            ctx.stats
                .panic_error_replies_total
                .fetch_add(1, Ordering::Relaxed);
            ctx.metrics.panic_error_replies.inc();
            let mut bytes = Vec::new();
            Response::Error("shard worker restarted; request aborted".into())
                .encode_into(&mut bytes);
            st.out[reactor as usize].push(Reply {
                conn,
                seq,
                bytes,
                close_after: false,
            });
        }
        post_replies(&ctx, &mut st.out);
    }
}

fn worker_loop(ctx: &WorkerCtx, st: &mut WorkerState) {
    loop {
        let mut drained = 0usize;
        for (r, ring) in ctx.rings.iter().enumerate() {
            let mut taken = 0usize;
            while taken < ctx.batch_limit {
                let Some(req) = ring.pop() else { break };
                debug_assert_eq!(req.reactor as usize, r);
                st.inflight = Some((req.reactor, req.conn, req.seq));
                if let Some(hook) = &ctx.hook {
                    hook.before_execute(ctx.shard, &req.frame);
                }
                let (bytes, close_after) = execute_frame(ctx, &req.frame);
                // Counted per request, not per batch: a panic
                // mid-batch must not lose the ledger's record of what
                // actually executed.
                ctx.stats
                    .batched_requests_total
                    .fetch_add(1, Ordering::Relaxed);
                st.out[r].push(Reply {
                    conn: req.conn,
                    seq: req.seq,
                    bytes,
                    close_after,
                });
                st.inflight = None;
                taken += 1;
            }
            drained += taken;
        }
        if drained > 0 {
            ctx.stats.batches_total.fetch_add(1, Ordering::Relaxed);
            post_replies(ctx, &mut st.out);
            continue;
        }
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        // Idle: park until a reactor signals, with a timeout so a
        // missed notify (or shutdown) can't wedge the worker.
        let mut flag = lock_unpoisoned(&ctx.park.flag);
        while !*flag {
            let (f, timeout) = ctx
                .park
                .cv
                .wait_timeout(flag, Duration::from_millis(25))
                .unwrap_or_else(PoisonError::into_inner);
            flag = f;
            if timeout.timed_out() {
                break;
            }
        }
        *flag = false;
    }
}

/// One lock + one wake per reactor per batch, however many replies it
/// carried.
fn post_replies(ctx: &WorkerCtx, out: &mut [Vec<Reply>]) {
    for (r, replies) in out.iter_mut().enumerate() {
        if replies.is_empty() {
            continue;
        }
        lock_unpoisoned(&ctx.reactors[r].inbox)
            .replies
            .append(replies);
        ctx.reactors[r].wake();
    }
}

/// Executes one raw frame; returns the encoded reply and whether the
/// connection should close after it flushes. The frame is parsed once
/// and runs with this worker's shard as its home
/// ([`ShardedStore::execute_at`]): the reactor routed it by
/// `routing_key_of`, which names the same key as the parse, and a
/// keyless verb stays on the shard that received it. The network plane
/// itself acts on two verbs — `SHUTDOWN` also stops the process, and
/// `STATS` gets this plane's section spliced into the engine's
/// snapshot.
fn execute_frame(ctx: &WorkerCtx, frame: &[u8]) -> (Vec<u8>, bool) {
    let mut close_after = false;
    let response = match std::str::from_utf8(frame).map(CommandRef::parse) {
        Ok(Ok(CommandRef::Stats)) => {
            // Refresh the telemetry gauges from ground truth while
            // we're here.
            ctx.metrics.refresh(&ctx.stats);
            Response::Bulk(Some(
                stats_json_with_net(&ctx.engine, &ctx.stats).into_bytes(),
            ))
        }
        Ok(Ok(cmd)) => {
            if matches!(cmd, CommandRef::Shutdown) {
                close_after = true;
                ctx.stats.shutdown_requested.store(true, Ordering::Release);
            }
            debug_assert!(
                cmd.routing_key()
                    .is_none_or(|key| ctx.engine.shard_of(key) == ctx.shard),
                "frame routed to shard {} but its key hashes elsewhere",
                ctx.shard
            );
            ctx.engine.execute_at(ctx.shard, &cmd)
        }
        Ok(Err(msg)) => Response::Error(msg),
        Err(_) => Response::Error("invalid UTF-8 in request".into()),
    };
    // Unallocated until the encoder writes: a bulk reply reserves its
    // whole payload first, so it costs one allocation, as does a
    // short status or integer reply.
    let mut bytes = Vec::new();
    response.encode_into(&mut bytes);
    (bytes, close_after)
}

/// The engine's `STATS` JSON with a `"net"` section spliced in front,
/// rendered from [`NetStats`] ground truth (hand-rolled — the repo
/// has no serde).
fn stats_json_with_net(engine: &ShardedStore, stats: &NetStats) -> String {
    let ld = |c: &AtomicU64| c.load(Ordering::Acquire);
    let net = format!(
        concat!(
            "{{\"accepted_total\":{},\"closed_total\":{},\"open_conns\":{},",
            "\"requests_total\":{},\"replies_total\":{},",
            "\"paused_reads_total\":{},\"route_stalls_total\":{},",
            "\"accept_backoffs_total\":{},\"conn_deadline_closes_total\":{},",
            "\"overload_sheds_total\":{},\"worker_restarts_total\":{},",
            "\"reactor_restarts_total\":{},\"panic_error_replies_total\":{}}}"
        ),
        ld(&stats.accepted_total),
        ld(&stats.closed_total),
        ld(&stats.open_conns),
        ld(&stats.requests_total),
        ld(&stats.replies_total),
        ld(&stats.paused_reads_total),
        ld(&stats.route_stalls_total),
        ld(&stats.accept_backoffs_total),
        ld(&stats.conn_deadline_closes_total),
        ld(&stats.overload_sheds_total),
        ld(&stats.worker_restarts_total),
        ld(&stats.reactor_restarts_total),
        ld(&stats.panic_error_replies_total),
    );
    let engine_json = engine.stats_json();
    match engine_json.strip_prefix('{') {
        Some("}") => format!("{{\"net\":{net}}}"),
        Some(rest) => format!("{{\"net\":{net},{rest}"),
        None => engine_json,
    }
}

// ----------------------------------------------------------------------
// The frontend handle.
// ----------------------------------------------------------------------

/// The event-driven TCP front-end: a pool of epoll reactors feeding
/// per-shard batch workers. See the module docs for the architecture;
/// this type owns every thread and fd, and dropping it is a clean
/// shutdown (sockets closed, all threads joined).
pub struct ReactorFrontend {
    addr: SocketAddr,
    engine: Arc<ShardedStore>,
    stats: Arc<NetStats>,
    metrics: Arc<NetMetrics>,
    stop: Arc<AtomicBool>,
    shared: Vec<Arc<ReactorShared>>,
    parks: Vec<Arc<Park>>,
    reactor_threads: Vec<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ReactorFrontend {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `engine` with `cfg`.
    pub fn bind(addr: &str, engine: Arc<ShardedStore>, cfg: ReactorConfig) -> io::Result<Self> {
        let mut cfg = cfg;
        if cfg.reactors == 0 {
            cfg.reactors = auto_reactors();
        }
        let nreactors = cfg.reactors;
        let nshards = engine.shard_count();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let stats = Arc::new(NetStats::default());
        let metrics = Arc::new(NetMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let conn_ids = Arc::new(AtomicU64::new(0));

        let shared: Vec<Arc<ReactorShared>> = (0..nreactors)
            .map(|_| {
                Ok(Arc::new(ReactorShared {
                    inbox: Mutex::new(Inbox {
                        replies: Vec::new(),
                        conns: Vec::new(),
                    }),
                    wake: new_eventfd()?,
                    io: Arc::clone(&cfg.io),
                }))
            })
            .collect::<io::Result<_>>()?;
        let parks: Vec<Arc<Park>> = (0..nshards)
            .map(|_| {
                Arc::new(Park {
                    flag: Mutex::new(false),
                    cv: Condvar::new(),
                })
            })
            .collect();

        // Ring matrix: rings[reactor][shard] — each reactor the sole
        // producer, each shard worker the sole consumer.
        let mut tx_rings: Vec<Vec<SpscTx<FramedReq>>> =
            (0..nreactors).map(|_| Vec::new()).collect();
        let mut rx_rings: Vec<Vec<SpscRx<FramedReq>>> = (0..nshards).map(|_| Vec::new()).collect();
        for tx_row in tx_rings.iter_mut() {
            for rx_col in rx_rings.iter_mut() {
                let (tx, rx) = spsc(cfg.ring_capacity);
                tx_row.push(tx);
                rx_col.push(rx);
            }
        }

        let mut worker_threads = Vec::with_capacity(nshards);
        for (shard, rings) in rx_rings.into_iter().enumerate() {
            let ctx = WorkerCtx {
                shard,
                engine: Arc::clone(&engine),
                rings,
                park: Arc::clone(&parks[shard]),
                reactors: shared.clone(),
                stats: Arc::clone(&stats),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                batch_limit: cfg.batch_limit,
                hook: cfg.hook.clone(),
            };
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("softmem-kv-shard-{shard}"))
                    .spawn(move || shard_worker(ctx))?,
            );
        }

        let mut reactor_threads = Vec::with_capacity(nreactors);
        let mut listener = Some(listener);
        for (idx, rings) in tx_rings.into_iter().enumerate() {
            let poller = Poller::new()?;
            poller.add(shared[idx].wake.as_raw_fd(), TOKEN_WAKE, true, false)?;
            let own_listener = if idx == 0 { listener.take() } else { None };
            if let Some(l) = &own_listener {
                poller.add(l.as_raw_fd(), TOKEN_LISTENER, true, false)?;
            }
            let reactor = Reactor {
                idx,
                poller,
                shared: shared.clone(),
                listener: own_listener,
                engine: Arc::clone(&engine),
                rings,
                parks: parks.clone(),
                conns: HashMap::new(),
                conn_ids: Arc::clone(&conn_ids),
                stats: Arc::clone(&stats),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                cfg: cfg.clone(),
                notify: vec![false; nshards],
                dirty: Vec::new(),
                stalled: Vec::new(),
                next_rr: 0,
                accept_backoff_until: None,
                wheel: TimerWheel::new(Instant::now()),
            };
            reactor_threads.push(
                std::thread::Builder::new()
                    .name(format!("softmem-kv-reactor-{idx}"))
                    .spawn(move || reactor.run())?,
            );
        }

        Ok(ReactorFrontend {
            addr: local,
            engine,
            stats,
            metrics,
            stop,
            shared,
            parks,
            reactor_threads,
            worker_threads,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The frontend's counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// The frontend's telemetry registry (label `net`).
    pub fn metrics(&self) -> &Arc<NetMetrics> {
        &self.metrics
    }

    /// The engine being served.
    pub fn engine(&self) -> &Arc<ShardedStore> {
        &self.engine
    }
}

impl Drop for ReactorFrontend {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        for s in &self.shared {
            s.wake();
        }
        for t in self.reactor_threads.drain(..) {
            let _ = t.join();
        }
        // Reactors are gone (their rings' producers dropped); workers
        // drain whatever remains, observe `stop`, and exit.
        for p in &self.parks {
            p.notify();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TcpKvClient;
    use softmem_core::{Priority, Sma};

    fn frontend(shards: usize) -> (Arc<Sma>, ReactorFrontend) {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), shards));
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, ReactorConfig::default()).unwrap();
        (sma, fe)
    }

    #[test]
    fn spsc_ring_roundtrip_and_drop_drains() {
        let (tx, rx) = spsc::<Vec<u8>>(4);
        assert!(rx.pop().is_none());
        for i in 0..4u8 {
            tx.push(vec![i]).unwrap();
        }
        assert!(tx.push(vec![9]).is_err(), "ring holds exactly capacity");
        assert_eq!(rx.pop(), Some(vec![0]));
        tx.push(vec![4]).unwrap();
        for want in 1..5u8 {
            assert_eq!(rx.pop(), Some(vec![want]));
        }
        // Items left in a dropped ring are freed (miri/asan clean).
        let (tx, rx) = spsc::<Vec<u8>>(8);
        tx.push(vec![1; 128]).unwrap();
        tx.push(vec![2; 128]).unwrap();
        drop(tx);
        drop(rx);
    }

    #[test]
    fn reactor_roundtrip_single_client() {
        let (_sma, fe) = frontend(4);
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        assert_eq!(
            client.request("SET a hello world").unwrap(),
            Response::Ok("OK".into())
        );
        assert_eq!(
            client.request("GET a").unwrap(),
            Response::Bulk(Some(b"hello world".to_vec()))
        );
        assert_eq!(client.request("GET missing").unwrap(), Response::Bulk(None));
        assert_eq!(client.request("DBSIZE").unwrap(), Response::Int(1));
        assert_eq!(
            client.request("MGET a nope").unwrap(),
            Response::Array(vec![b"hello world".to_vec(), b"(nil)".to_vec()])
        );
        match client.request("BANANA").unwrap() {
            Response::Error(msg) => assert!(msg.contains("unknown command"), "{msg}"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn reactor_pipeline_preserves_order_across_shards() {
        let (_sma, fe) = frontend(4);
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        // A pipelined burst whose keys scatter across shards: replies
        // must come back in request order regardless.
        let sets: Vec<String> = (0..64).map(|i| format!("SET key-{i} v{i}")).collect();
        for r in client.request_pipeline(&sets).unwrap() {
            assert_eq!(r, Response::Ok("OK".into()));
        }
        let gets: Vec<String> = (0..64).map(|i| format!("GET key-{i}")).collect();
        let replies = client.request_pipeline(&gets).unwrap();
        for (i, r) in replies.into_iter().enumerate() {
            assert_eq!(r, Response::Bulk(Some(format!("v{i}").into_bytes())), "{i}");
        }
        // The plane settles: all requests answered.
        let stats = fe.stats();
        assert!(stats.quiesced(), "{stats:?}");
    }

    #[test]
    fn reactor_many_clients_and_clean_teardown() {
        let (_sma, fe) = frontend(2);
        let addr = fe.addr();
        let mut clients: Vec<TcpKvClient> = (0..32)
            .map(|_| TcpKvClient::connect(addr).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            assert_eq!(
                c.request(&format!("SET c{i} val{i}")).unwrap(),
                Response::Ok("OK".into())
            );
        }
        for (i, c) in clients.iter_mut().enumerate() {
            assert_eq!(
                c.request(&format!("GET c{i}")).unwrap(),
                Response::Bulk(Some(format!("val{i}").into_bytes()))
            );
        }
        let stats = Arc::clone(fe.stats());
        assert_eq!(stats.accepted_total.load(Ordering::Acquire), 32);
        drop(clients);
        // Closes are asynchronous; wait for the gauges to settle.
        for _ in 0..200 {
            if stats.open_conns.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(stats.open_conns.load(Ordering::Acquire), 0);
        assert_eq!(stats.closed_total.load(Ordering::Acquire), 32);
        // Dropping the frontend must complete even though a client is
        // parked waiting for its next request, and must hang up on it.
        let mut parked = TcpKvClient::connect(addr).unwrap();
        assert_eq!(parked.request("PING").unwrap(), Response::Ok("PONG".into()));
        drop(fe);
        assert!(parked.request("PING").is_err());
    }

    #[test]
    fn reactor_shutdown_verb_flags_and_closes() {
        let (_sma, fe) = frontend(1);
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        assert_eq!(
            client.request("SHUTDOWN").unwrap(),
            Response::Ok("OK".into())
        );
        let stats = fe.stats();
        assert!(stats.shutdown_requested.load(Ordering::Acquire));
        // The server closes the connection after the reply flushes.
        for _ in 0..200 {
            if stats.open_conns.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(stats.open_conns.load(Ordering::Acquire), 0);
    }

    #[test]
    fn deep_pipeline_resumes_framing_after_pause_clears() {
        // Regression: a connection whose whole backpressure pause
        // clears within one reactor pass (all in-flight replies land
        // and flush together) must still frame the rest of the bytes
        // already sitting in its read buffer — there will be no
        // further epoll event to do it later. A tiny in-flight cap
        // forces many pause/resume cycles in a single burst.
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 2));
        let cfg = ReactorConfig {
            max_inflight_per_conn: 4,
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut stream = TcpStream::connect(fe.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        const BURST: usize = 512;
        let mut req = Vec::new();
        for i in 0..BURST {
            req.extend_from_slice(format!("GET nope-{i}\n").as_bytes());
        }
        stream.write_all(&req).unwrap();
        // Each miss is exactly one line (`$-1\n`); count newlines.
        let mut got = 0usize;
        let mut buf = [0u8; 4096];
        while got < BURST {
            let n = stream.read(&mut buf).expect("reply stream stalled");
            assert_ne!(n, 0, "server closed early after {got} replies");
            got += buf[..n].iter().filter(|&&b| b == b'\n').count();
        }
        assert_eq!(got, BURST);
        // Nothing left unframed or unanswered.
        for _ in 0..200 {
            if fe.stats().quiesced() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(fe.stats().quiesced(), "{:?}", fe.stats());
    }

    #[test]
    fn protocol_fatal_replies_exactly_once() {
        // Regression: an over-long partial line arriving behind a
        // pipelined burst must produce exactly one error reply, not
        // one per reactor round while the burst's replies are still
        // in flight.
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 2));
        let cfg = ReactorConfig {
            max_frame_len: 256,
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut stream = TcpStream::connect(fe.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut req = Vec::new();
        for i in 0..64 {
            req.extend_from_slice(format!("GET nope-{i}\n").as_bytes());
        }
        req.extend_from_slice(&vec![b'x'; 4096]); // no terminator
        stream.write_all(&req).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert_eq!(
            text.matches("-ERR").count(),
            1,
            "duplicate fatal replies: {text:?}"
        );
        assert_eq!(text.matches("$-1").count(), 64, "{text:?}");
    }

    #[test]
    fn oversize_frame_is_rejected_not_buffered() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 1));
        let cfg = ReactorConfig {
            max_frame_len: 1024,
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut stream = TcpStream::connect(fe.addr()).unwrap();
        // 1 MiB of line with no terminator: the reactor must reply
        // with an error and close, not buffer it forever.
        let junk = vec![b'x'; 1 << 20];
        let _ = stream.write_all(&junk);
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("-ERR"), "got: {text:?}");
    }

    // -- fault plane -----------------------------------------------------

    fn await_true(mut cond: impl FnMut() -> bool, what: &str) {
        for _ in 0..400 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    fn assert_ledger(stats: &NetStats) {
        let (lhs, rhs) = stats.ledger();
        assert_eq!(lhs, rhs, "reply ledger unbalanced: {stats:?}");
    }

    #[test]
    fn timer_wheel_fires_due_hints_and_holds_future_ones() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(t0, t0 + Duration::from_millis(30), 1, DeadlineKind::Idle);
        wheel.insert(
            t0,
            t0 + Duration::from_millis(900),
            2,
            DeadlineKind::WriteStall,
        );
        let mut due = Vec::new();
        wheel.expire_into(t0 + Duration::from_millis(10), &mut due);
        assert!(due.is_empty(), "nothing due yet: {due:?}");
        wheel.expire_into(t0 + Duration::from_millis(60), &mut due);
        assert_eq!(due, vec![(1, DeadlineKind::Idle)]);
        due.clear();
        // The far entry fires once its slot comes around (or after a
        // full lap for beyond-horizon deadlines) — never before its
        // own slot.
        wheel.expire_into(t0 + Duration::from_millis(2000), &mut due);
        assert_eq!(due, vec![(2, DeadlineKind::WriteStall)]);
    }

    #[test]
    fn idle_deadline_evicts_silent_connection() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 1));
        let cfg = ReactorConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        // An active client is refreshed by its own traffic...
        let mut active = TcpKvClient::connect(fe.addr()).unwrap();
        // ...while a silent one is evicted after the bound. Keep the
        // active side talking while we wait, so only the silent one
        // can go idle.
        let mut silent = TcpStream::connect(fe.addr()).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_millis(25)))
            .unwrap();
        let t0 = Instant::now();
        let mut buf = [0u8; 8];
        loop {
            assert_eq!(active.request("DBSIZE").unwrap(), Response::Int(0));
            match silent.read(&mut buf) {
                Ok(0) => break, // Evicted.
                Ok(n) => panic!("silent conn received {n} unsolicited byte(s)"),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    assert!(
                        t0.elapsed() < Duration::from_secs(10),
                        "silent connection never evicted"
                    );
                }
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(80),
            "evicted too early: {:?}",
            t0.elapsed()
        );
        let stats = fe.stats();
        // Exactly one eviction: the reaper must not touch the
        // traffic-refreshed connection.
        assert_eq!(stats.conn_deadline_closes_total.load(Ordering::Acquire), 1);
        assert_eq!(active.request("DBSIZE").unwrap(), Response::Int(0));
        assert_ledger(stats);
    }

    #[test]
    fn write_stall_deadline_evicts_slow_reader() {
        let sma = Sma::standalone(4096);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 1));
        let cfg = ReactorConfig {
            write_stall_timeout: Some(Duration::from_millis(150)),
            write_highwater: 4 << 10,
            so_sndbuf: Some(4096),
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        let fat = "v".repeat(8 << 10);
        assert_eq!(
            client.request(&format!("SET fat {fat}")).unwrap(),
            Response::Ok("OK".into())
        );
        // A raw socket that pipelines fat GETs and never reads: the
        // server's write buffer stalls, and the deadline evicts it.
        let mut stalled = TcpStream::connect(fe.addr()).unwrap();
        let _ = set_sock_buf(stalled.as_raw_fd(), sys::SO_RCVBUF, 4096);
        let mut req = Vec::new();
        for _ in 0..64 {
            req.extend_from_slice(b"GET fat\n");
        }
        stalled.write_all(&req).unwrap();
        let stats = Arc::clone(fe.stats());
        await_true(
            || stats.conn_deadline_closes_total.load(Ordering::Acquire) >= 1,
            "write-stall eviction",
        );
        await_true(|| stats.quiesced(), "quiescence after eviction");
        assert_ledger(&stats);
        // The plane is still serving.
        assert_eq!(
            client.request("DBSIZE").unwrap(),
            Response::Int(1),
            "surviving client must still be served"
        );
    }

    #[test]
    fn overload_shed_answers_err_overloaded() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 1));
        let cfg = ReactorConfig {
            // In-flight is always >= 0: every frame sheds.
            overload_shed_inflight: Some(0),
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        match client.request("GET x").unwrap() {
            Response::Error(msg) => assert!(msg.contains("overloaded"), "{msg}"),
            other => panic!("expected shed, got {other:?}"),
        }
        // Brownout, not blackout: the connection survives and keeps
        // getting (fast-failed) answers in order.
        let replies = client
            .request_pipeline(&["GET a", "GET b", "GET c"])
            .unwrap();
        assert_eq!(replies.len(), 3);
        let stats = fe.stats();
        assert_eq!(stats.overload_sheds_total.load(Ordering::Acquire), 4);
        assert_eq!(fe.metrics().overload_sheds.get(), 4);
        await_true(|| stats.quiesced(), "quiescence");
        assert_ledger(stats);
    }

    /// A hook that makes every execution much slower than the
    /// park-shed bound, so a tiny ring stays full long enough for the
    /// reactor to give up on parked frames.
    struct SlowExec;
    impl WorkerHook for SlowExec {
        fn before_execute(&self, _shard: usize, _frame: &[u8]) {
            std::thread::sleep(Duration::from_millis(150));
        }
    }

    #[test]
    fn park_shed_gives_up_on_a_ring_that_stays_full() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 1));
        let cfg = ReactorConfig {
            ring_capacity: 2,
            batch_limit: 1,
            park_shed_after: Some(Duration::from_millis(50)),
            hook: Some(Arc::new(SlowExec)),
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut stream = TcpStream::connect(fe.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        const BURST: usize = 16;
        let mut req = Vec::new();
        for _ in 0..BURST {
            req.extend_from_slice(b"GET nope\n");
        }
        stream.write_all(&req).unwrap();
        // Every request gets exactly one one-line answer — a miss
        // (`$-1`) or a shed (`-ERR overloaded`) — in order.
        let mut replies = Vec::new();
        let mut buf = [0u8; 4096];
        while replies.iter().filter(|&&b| b == b'\n').count() < BURST {
            let n = stream.read(&mut buf).expect("reply stream stalled");
            assert_ne!(n, 0, "server closed early");
            replies.extend_from_slice(&buf[..n]);
        }
        let text = String::from_utf8_lossy(&replies);
        let sheds = text.matches("-ERR overloaded").count();
        let misses = text.matches("$-1").count();
        assert_eq!(sheds + misses, BURST, "{text:?}");
        let stats = Arc::clone(fe.stats());
        assert!(
            stats.overload_sheds_total.load(Ordering::Acquire) >= 1,
            "park-shed never engaged: {stats:?}"
        );
        await_true(|| stats.quiesced(), "quiescence");
        assert_ledger(&stats);
    }

    /// Panics (quietly, via `resume_unwind`) on a marker frame.
    struct PanicOnBoom;
    impl WorkerHook for PanicOnBoom {
        fn before_execute(&self, _shard: usize, frame: &[u8]) {
            if frame == b"GET boom" {
                std::panic::resume_unwind(Box::new("injected worker panic"));
            }
        }
    }

    #[test]
    fn worker_panic_is_supervised_and_answered_cleanly() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 2));
        let cfg = ReactorConfig {
            hook: Some(Arc::new(PanicOnBoom)),
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        assert_eq!(
            client.request("SET a alive").unwrap(),
            Response::Ok("OK".into())
        );
        match client.request("GET boom").unwrap() {
            Response::Error(msg) => assert!(msg.contains("worker restarted"), "{msg}"),
            other => panic!("expected a clean error reply, got {other:?}"),
        }
        // The worker was restarted and the whole plane still serves —
        // including the shard that panicked.
        assert_eq!(
            client.request("GET a").unwrap(),
            Response::Bulk(Some(b"alive".to_vec()))
        );
        let stats = fe.stats();
        assert_eq!(stats.worker_restarts_total.load(Ordering::Acquire), 1);
        assert_eq!(stats.panic_error_replies_total.load(Ordering::Acquire), 1);
        await_true(|| stats.quiesced(), "quiescence");
        assert_ledger(stats);
    }

    /// Panics a reactor's poll loop once, when armed.
    struct PanicWhenArmed(Arc<AtomicBool>);
    impl WorkerHook for PanicWhenArmed {
        fn before_poll(&self, _reactor: usize) {
            if self.0.swap(false, Ordering::AcqRel) {
                std::panic::resume_unwind(Box::new("injected reactor panic"));
            }
        }
    }

    #[test]
    fn reactor_panic_recovers_and_accepts_new_connections() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 1));
        let arm = Arc::new(AtomicBool::new(false));
        let cfg = ReactorConfig {
            reactors: 1,
            hook: Some(Arc::new(PanicWhenArmed(Arc::clone(&arm)))),
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut before = TcpKvClient::connect(fe.addr()).unwrap();
        assert_eq!(
            before.request("SET a 1").unwrap(),
            Response::Ok("OK".into())
        );
        arm.store(true, Ordering::Release);
        let stats = Arc::clone(fe.stats());
        await_true(
            || stats.reactor_restarts_total.load(Ordering::Acquire) >= 1,
            "reactor restart",
        );
        // Recovery closes the pre-panic connection (its state may be
        // torn)...
        assert!(
            before.request("GET a").is_err(),
            "pre-panic connection should be closed"
        );
        // ...but the restarted reactor accepts and serves new ones.
        let mut after = TcpKvClient::connect(fe.addr()).unwrap();
        assert_eq!(
            after.request("GET a").unwrap(),
            Response::Bulk(Some(b"1".to_vec()))
        );
        await_true(|| stats.quiesced(), "quiescence");
        assert_ledger(&stats);
    }

    /// A deterministic, intentionally nasty [`SysIo`]: interrupts,
    /// spurious would-blocks, short reads and short writes on a fixed
    /// cadence, plus dropped wakes — while remaining a functionally
    /// correct transport.
    struct FlakyIo {
        reads: AtomicU64,
        writes: AtomicU64,
        polls: AtomicU64,
        wakes: AtomicU64,
    }

    impl FlakyIo {
        fn new() -> Self {
            FlakyIo {
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
                polls: AtomicU64::new(0),
                wakes: AtomicU64::new(0),
            }
        }
    }

    impl SysIo for FlakyIo {
        fn read(&self, stream: &TcpStream, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.reads.fetch_add(1, Ordering::Relaxed);
            if n % 7 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if n % 5 == 2 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let cap = buf.len().min(129);
            (&mut &*stream).read(&mut buf[..cap])
        }

        fn write(&self, stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
            let n = self.writes.fetch_add(1, Ordering::Relaxed);
            if n % 11 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if n % 6 == 2 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let cap = buf.len().min(57);
            (&mut &*stream).write(&buf[..cap])
        }

        fn accept(&self, listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
            listener.accept()
        }

        fn epoll_wait(
            &self,
            poller: &Poller,
            out: &mut Vec<Event>,
            timeout_ms: i32,
        ) -> io::Result<()> {
            if self.polls.fetch_add(1, Ordering::Relaxed) % 13 == 3 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            poller.wait(out, timeout_ms)
        }

        fn wake(&self, efd: &File) -> io::Result<()> {
            if self.wakes.fetch_add(1, Ordering::Relaxed) % 3 == 1 {
                return Ok(()); // Dropped on the floor.
            }
            RealSysIo.wake(efd)
        }
    }

    #[test]
    fn flaky_syscalls_never_tear_or_reorder_replies() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 4));
        let cfg = ReactorConfig {
            io: Arc::new(FlakyIo::new()),
            ..ReactorConfig::default()
        };
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, cfg).unwrap();
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        let sets: Vec<String> = (0..128).map(|i| format!("SET key-{i} v{i}")).collect();
        for r in client.request_pipeline(&sets).unwrap() {
            assert_eq!(r, Response::Ok("OK".into()));
        }
        let gets: Vec<String> = (0..128).map(|i| format!("GET key-{i}")).collect();
        for (i, r) in client
            .request_pipeline(&gets)
            .unwrap()
            .into_iter()
            .enumerate()
        {
            assert_eq!(r, Response::Bulk(Some(format!("v{i}").into_bytes())), "{i}");
        }
        let stats = Arc::clone(fe.stats());
        drop(client);
        await_true(|| stats.quiesced(), "quiescence under flaky I/O");
        assert_ledger(&stats);
    }

    /// Differential test: a 4-shard engine served by the reactor over
    /// TCP must answer exactly like one plain [`crate::Store`]
    /// executing the same lines one after another. The reference
    /// shares no framing, routing, sequencing or cross-shard merge
    /// code with the path under test — only the parser and the store.
    ///
    /// Per-key commands are pipelined (same key → same shard ring →
    /// FIFO, so their results are order-deterministic even under
    /// concurrent shard execution). Global and multi-key commands
    /// (DBSIZE, KEYS, MGET, FLUSHALL) are issued as synchronous round
    /// trips: the reactor only orders them relative to other shards'
    /// work at reply boundaries, which is exactly what a synchronous
    /// client observes.
    #[test]
    fn sharded_reactor_agrees_with_one_sequential_store() {
        use crate::protocol::CommandRef;

        let mut pipelined: Vec<String> =
            (0..30).map(|i| format!("SET user:{i} value-{i}")).collect();
        pipelined.extend(
            [
                "GET user:7",
                "GET missing",
                "INCR counter",
                "INCRBY counter 9",
                "APPEND log hello world",
                "PEXPIRE user:1 60000",
                "PERSIST user:1",
                "PTTL user:1",
                "PTTL missing",
                "SETNX user:1 other",
                "DEL user:3",
                "EXISTS user:3",
                "BANANA nope",
                "SET incomplete",
            ]
            .map(String::from),
        );
        let serial = [
            "MGET user:1 nope user:29",
            "DBSIZE",
            "KEYS user:2",
            "FLUSHALL",
            "DBSIZE",
        ];

        let reactor = {
            let (_sma, fe) = frontend(4);
            let mut c = TcpKvClient::connect(fe.addr()).unwrap();
            let mut replies = c.request_pipeline(&pipelined).unwrap();
            for line in serial {
                replies.push(c.request(line).unwrap());
            }
            replies
        };
        let sma = Sma::standalone(1024);
        let store = crate::Store::new(&sma, "kv", Priority::new(4));
        let lines = pipelined.iter().map(String::as_str).chain(serial);
        for (i, (line, got)) in lines.zip(&reactor).enumerate() {
            let want = match CommandRef::parse(line) {
                Ok(cmd) => cmd.execute(&store),
                Err(msg) => Response::Error(msg),
            };
            assert_eq!(got, &want, "reply {i} diverged ({line:?})");
        }
        assert_eq!(reactor.len(), pipelined.len() + serial.len());
    }

    #[test]
    fn stats_verb_includes_net_section() {
        let (_sma, fe) = frontend(2);
        let mut client = TcpKvClient::connect(fe.addr()).unwrap();
        let Response::Bulk(Some(json)) = client.request("STATS").unwrap() else {
            panic!("STATS should return a bulk JSON blob");
        };
        let json = String::from_utf8(json).unwrap();
        assert!(json.starts_with("{\"net\":{"), "{json}");
        for key in [
            "accept_backoffs_total",
            "conn_deadline_closes_total",
            "overload_sheds_total",
            "worker_restarts_total",
            "reactor_restarts_total",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        // The engine's own sections survive the splice.
        assert!(json.contains("\"kv0\""), "{json}");
    }

    #[test]
    fn keyless_verbs_run_on_the_receiving_workers_shard() {
        let (_sma, fe) = frontend(2);
        // Connection ids follow accept order, and a keyless frame is
        // routed by its connection id, so the first connection's PINGs
        // go to worker 0 and the second's to worker 1. The round trip
        // on `a` makes sure it was accepted before `b` connects.
        let mut a = TcpKvClient::connect(fe.addr()).unwrap();
        assert_eq!(a.request("PING").unwrap(), Response::Ok("PONG".into()));
        let mut b = TcpKvClient::connect(fe.addr()).unwrap();
        let pings = vec!["PING"; 100];
        for client in [&mut a, &mut b] {
            for reply in client.request_pipeline(&pings).unwrap() {
                assert_eq!(reply, Response::Ok("PONG".into()));
            }
        }
        let Response::Bulk(Some(json)) = a.request("STATS").unwrap() else {
            panic!("STATS should return a bulk JSON blob");
        };
        let json = String::from_utf8(json).unwrap();
        let ops = |shard: &str| -> u64 {
            let section = &json[json.find(&format!("\"{shard}\":{{")).expect(shard)..];
            let count = &section[section.find("\"ops\":").expect("ops counter") + 6..];
            let end = count.find(|c: char| !c.is_ascii_digit()).unwrap();
            count[..end].parse().unwrap()
        };
        assert!(ops("kv0") >= 100, "{json}");
        assert!(ops("kv1") >= 100, "{json}");
    }
}
