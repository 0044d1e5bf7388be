//! The load generator: one thread per connection, every reply verified.
//!
//! A request belongs to the window its *due* time falls in — the send
//! time in a closed loop, the scheduled time in an open loop — so each
//! measured request is attempted exactly once and ends up verified,
//! failed or unanswered, and a stall is charged to the requests that
//! were due during it rather than to whoever happened to come after.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::child::{check_interrupt, sleep_until};
use crate::gen::{push_key, push_value, value_matches, Op, OpGen, OpKind};
use crate::hist::LogHist;
use crate::spans::Span;
use crate::wire::{connect, LineReader};
use crate::workload::{Aggressor, Drive};

/// How long after the measured phase replies are still waited for;
/// whatever is outstanding then counts as failed.
const DRAIN: Duration = Duration::from_secs(5);

/// One request in this many gets client spans in a traced window.
const SPAN_SAMPLE: u64 = 64;

/// The run's shared timeline: a warm-up, then `windows` equal windows.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    pub warm_ns: u64,
    pub window_ns: u64,
    pub windows: usize,
}

impl Clock {
    /// Splits `measure` into `windows` windows after a warm-up of one
    /// window length (the aggressor's cycle must have run once before
    /// anything is measured). `origin` is when the warm-up starts.
    pub fn new(origin: Instant, measure: Duration, windows: usize) -> Clock {
        let window_ns = measure.as_nanos() as u64 / windows as u64;
        Clock {
            origin,
            warm_ns: window_ns,
            window_ns,
            windows,
        }
    }

    pub fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64
    }

    pub fn at(&self, ns: u64) -> Instant {
        self.origin + Duration::from_nanos(ns)
    }

    pub fn end_ns(&self) -> u64 {
        self.warm_ns + self.window_ns * self.windows as u64
    }

    /// The measured window `t_ns` falls in; `None` during warm-up and
    /// after the end.
    pub fn window_of(&self, t_ns: u64) -> Option<usize> {
        let w = (t_ns.checked_sub(self.warm_ns)? / self.window_ns) as usize;
        (w < self.windows).then_some(w)
    }
}

#[derive(Clone, Default)]
pub struct WindowStats {
    pub latency: LogHist,
    pub verified: u64,
}

/// Everything one connection saw during the measured phase.
#[derive(Default)]
pub struct ConnStats {
    pub windows: Vec<WindowStats>,
    pub attempted: u64,
    pub gets: u64,
    pub hits: u64,
    pub sets: u64,
    pub err_replies: u64,
    pub set_err_replies: u64,
    pub mismatches: u64,
    pub unanswered: u64,
    /// Open loop only: how late after its due time a request was sent.
    pub gen_lag: LogHist,
    pub spans: Vec<Span>,
}

impl ConnStats {
    pub fn failed(&self) -> u64 {
        self.err_replies + self.mismatches + self.unanswered
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Hit,
    Miss,
    Stored,
    /// The server answered `-ERR …`.
    ErrReply,
    /// Wrong payload or a reply of the wrong kind for the request at
    /// the head of the connection's FIFO (which is what an
    /// out-of-order reply looks like).
    Mismatch,
}

/// Checks `reply` against the request it must answer.
pub fn judge(op: Op, reply: &[u8], value_len: usize) -> Verdict {
    if reply.starts_with(b"-ERR") {
        return Verdict::ErrReply;
    }
    match op.kind {
        OpKind::Get if reply == b"$-1" => Verdict::Miss,
        OpKind::Get if reply.first() == Some(&b'$') => {
            if value_matches(&reply[1..], op.key, value_len) {
                Verdict::Hit
            } else {
                Verdict::Mismatch
            }
        }
        OpKind::Set if reply == b"+OK" => Verdict::Stored,
        _ => Verdict::Mismatch,
    }
}

struct Pending {
    op: Op,
    due_ns: u64,
    sent_ns: u64,
    window: Option<usize>,
}

/// What one connection thread needs to run.
pub struct ConnPlan {
    pub index: u64,
    pub gen: OpGen,
    pub value_len: usize,
    pub drive: Drive,
    /// Record client spans in odd-numbered windows.
    pub trace: bool,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Waits until `fd` is readable or `timeout` passes. `ppoll` rather
/// than a socket read timeout because the latter is rounded up to
/// scheduler ticks (milliseconds), and the open loop sends every 25 µs.
fn wait_readable(fd: i32, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, correctly laid-out (`repr(C)`,
    // matching struct pollfd / struct timespec on 64-bit Linux) locals
    // for the duration of the call; nfds is 1; a null sigmask is allowed.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

/// Drives one connection for the whole timeline and returns what the
/// measured phase saw. Errors are transport failures (server gone,
/// read timed out) — the run is then void, not merely slow.
pub fn drive(mut stream: TcpStream, mut plan: ConnPlan, clock: &Clock) -> io::Result<ConnStats> {
    let mut stats = ConnStats {
        windows: vec![WindowStats::default(); clock.windows],
        ..ConnStats::default()
    };
    let mut reader = LineReader::default();
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut refills: VecDeque<u64> = VecDeque::new();
    let end_ns = clock.end_ns();
    let drain_deadline_ns = end_ns + DRAIN.as_nanos() as u64;
    let fd = stream.as_raw_fd();
    let mut seq: u64 = 0;

    let interval_ns = match plan.drive {
        Drive::Open { rate_per_s } => {
            // SAFETY: PR_SET_TIMERSLACK takes one integer argument and
            // only changes this thread's timer slack (1 ns instead of
            // the default 50 µs, which is two send intervals).
            unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
            1_000_000_000 / rate_per_s
        }
        Drive::Closed { .. } => 0,
    };
    let mut next_due_ns: u64 = 0;

    std::thread::sleep(clock.origin.saturating_duration_since(Instant::now()));

    loop {
        check_interrupt()?;
        let now = clock.now_ns();
        let generating = now < end_ns;
        if generating {
            let free_slots = match plan.drive {
                Drive::Closed { pipeline } => pipeline.saturating_sub(inflight.len()),
                Drive::Open { .. } => 0,
            };
            let mut push = |due_ns: u64| {
                let op = match refills.pop_front() {
                    Some(key) => Op {
                        kind: OpKind::Set,
                        key,
                    },
                    None => plan.gen.next_op(),
                };
                op.encode(&mut out, plan.value_len);
                let window = clock.window_of(due_ns);
                if window.is_some() {
                    stats.attempted += 1;
                    if interval_ns > 0 {
                        stats.gen_lag.record(now - due_ns);
                    }
                }
                inflight.push_back(Pending {
                    op,
                    due_ns,
                    sent_ns: now,
                    window,
                });
            };
            match plan.drive {
                Drive::Closed { .. } => (0..free_slots).for_each(|_| push(now)),
                Drive::Open { .. } => {
                    while next_due_ns <= now {
                        push(next_due_ns);
                        next_due_ns += interval_ns;
                    }
                }
            }
        }
        if !out.is_empty() {
            stream.write_all(&out)?;
            out.clear();
        }
        if !generating {
            if inflight.is_empty() {
                break;
            }
            if now > drain_deadline_ns {
                stats.unanswered += inflight.iter().filter(|p| p.window.is_some()).count() as u64;
                break;
            }
        }

        let readable = match plan.drive {
            // Blocking read: a reply is the only thing worth waking for.
            Drive::Closed { .. } => true,
            Drive::Open { .. } => {
                let until = if generating {
                    next_due_ns
                } else {
                    drain_deadline_ns
                };
                let wait = Duration::from_nanos(until.saturating_sub(clock.now_ns()));
                wait_readable(fd, wait.min(Duration::from_millis(100)))?
            }
        };
        if !readable {
            continue;
        }
        if reader.fill(&mut stream)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-run",
            ));
        }
        let done_ns = clock.now_ns();
        while let Some(reply) = reader.next_line() {
            let Some(p) = inflight.pop_front() else {
                stats.mismatches += 1; // a reply nobody asked for
                continue;
            };
            let verdict = judge(p.op, reply, plan.value_len);
            if verdict == Verdict::Miss {
                // Cache-aside: the client refetches and stores the value.
                refills.push_back(p.op.key);
            }
            let Some(w) = p.window else { continue };
            match verdict {
                Verdict::Hit => {
                    stats.gets += 1;
                    stats.hits += 1;
                }
                Verdict::Miss => stats.gets += 1,
                Verdict::Stored => stats.sets += 1,
                Verdict::ErrReply => {
                    stats.err_replies += 1;
                    stats.set_err_replies += u64::from(p.op.kind == OpKind::Set);
                    continue;
                }
                Verdict::Mismatch => {
                    stats.mismatches += 1;
                    continue;
                }
            }
            stats.windows[w].verified += 1;
            stats.windows[w].latency.record(done_ns - p.due_ns);
            seq += 1;
            if plan.trace && w % 2 == 1 && seq.is_multiple_of(SPAN_SAMPLE) {
                let request = plan.index << 48 | seq;
                let span = |name, parent, start_ns, end_ns| Span {
                    request,
                    name,
                    parent,
                    start_ns,
                    end_ns,
                };
                stats.spans.extend([
                    span("request", None, p.due_ns, done_ns),
                    span("queue", Some("request"), p.due_ns, p.sent_ns),
                    span("wire", Some("request"), p.sent_ns, done_ns),
                ]);
            }
        }
    }
    Ok(stats)
}

/// Pipelined `SET`s of keys `0..keys`, each reply checked. Any `-ERR`
/// fails set-up: a preload that does not fit is a broken workload spec.
pub fn preload(addr: SocketAddr, keys: u64, value_len: usize) -> io::Result<()> {
    let ids: Vec<u64> = (0..keys).collect();
    let mut stream = connect(addr)?;
    match set_batch(&mut stream, &mut LineReader::default(), &ids, value_len)? {
        0 => Ok(()),
        errs => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{errs} preload SETs were refused"),
        )),
    }
}

/// Sends `SET`s for `ids` in lockstep batches and returns how many were
/// answered `-ERR`; any other non-`+OK` reply is a transport-level error.
fn set_batch(
    stream: &mut TcpStream,
    reader: &mut LineReader,
    ids: &[u64],
    value_len: usize,
) -> io::Result<u64> {
    const BATCH: usize = 256;
    let mut out = Vec::with_capacity(BATCH * (32 + value_len));
    let mut errs = 0;
    for chunk in ids.chunks(BATCH) {
        check_interrupt()?;
        out.clear();
        for &id in chunk {
            out.extend_from_slice(b"SET ");
            push_key(&mut out, id);
            out.push(b' ');
            push_value(&mut out, id, value_len);
            out.push(b'\n');
        }
        stream.write_all(&out)?;
        for _ in chunk {
            match reader.read_line(stream)?.as_slice() {
                b"+OK" => {}
                r if r.starts_with(b"-ERR") => errs += 1,
                r => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("SET answered {:?}", String::from_utf8_lossy(r)),
                    ))
                }
            }
        }
    }
    Ok(errs)
}

#[derive(Default)]
pub struct AggressorStats {
    /// Wall time of each burst that started inside a measured window.
    pub burst_ms: Vec<f64>,
    pub attempted: u64,
    pub err_replies: u64,
}

/// The second tenant: `cycles_per_window` times per window (the warm-up
/// runs the same cycles) a burst of distinct-key SETs at 20 % of the
/// cycle and `FLUSHALL` at 60 %, so every measured window sees the same
/// number of squeezes and releases.
pub fn aggress(addr: SocketAddr, plan: Aggressor, clock: &Clock) -> io::Result<AggressorStats> {
    let mut stream = connect(addr)?;
    let mut reader = LineReader::default();
    let mut stats = AggressorStats::default();
    let ids: Vec<u64> = (0..plan.burst_sets).collect();
    let cycle_ns = clock.window_ns / plan.cycles_per_window;
    for cycle in 0..clock.end_ns() / cycle_ns {
        let start_ns = cycle * cycle_ns;
        sleep_until(clock.at(start_ns + cycle_ns / 5))?;
        let measured = clock.window_of(clock.now_ns()).is_some();
        let t0 = Instant::now();
        let errs = set_batch(&mut stream, &mut reader, &ids, plan.value_len)?;
        if measured {
            stats.burst_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            stats.attempted += plan.burst_sets;
            stats.err_replies += errs;
        }
        sleep_until(clock.at(start_ns + cycle_ns * 3 / 5))?;
        stream.write_all(b"FLUSHALL\n")?;
        let reply = reader.read_line(&mut stream)?;
        if measured {
            stats.attempted += 1;
            stats.err_replies += u64::from(reply != b"+OK");
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_judged_against_the_request() {
        let get = Op {
            kind: OpKind::Get,
            key: 9,
        };
        let set = Op {
            kind: OpKind::Set,
            key: 9,
        };
        let mut hit = vec![b'$'];
        push_value(&mut hit, 9, 32);
        assert_eq!(judge(get, &hit, 32), Verdict::Hit);
        assert_eq!(judge(get, b"$-1", 32), Verdict::Miss);
        assert_eq!(judge(set, b"+OK", 32), Verdict::Stored);
        assert_eq!(judge(set, b"-ERR budget exceeded", 32), Verdict::ErrReply);
        assert_eq!(judge(get, b"-ERR x", 32), Verdict::ErrReply);
        // Another key's value, a truncated value, or a reply of the
        // wrong kind (what reordering produces) are all mismatches.
        let mut other = vec![b'$'];
        push_value(&mut other, 10, 32);
        assert_eq!(judge(get, &other, 32), Verdict::Mismatch);
        assert_eq!(judge(get, &hit[..20], 32), Verdict::Mismatch);
        assert_eq!(judge(get, b"+OK", 32), Verdict::Mismatch);
        assert_eq!(judge(set, &hit, 32), Verdict::Mismatch);
        assert_eq!(judge(set, b"", 32), Verdict::Mismatch);
    }

    #[test]
    fn clock_maps_times_to_windows() {
        let c = Clock::new(Instant::now(), Duration::from_secs(12), 4);
        assert_eq!(c.window_ns, 3_000_000_000);
        assert_eq!(c.end_ns(), 15_000_000_000);
        assert_eq!(c.window_of(0), None);
        assert_eq!(c.window_of(c.warm_ns - 1), None);
        assert_eq!(c.window_of(c.warm_ns), Some(0));
        assert_eq!(c.window_of(c.end_ns() - 1), Some(3));
        assert_eq!(c.window_of(c.end_ns()), None);
    }
}
