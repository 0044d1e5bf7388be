//! A multiplexed load-generation client for the line protocol.
//!
//! [`crate::TcpKvClient`] is one blocking socket — fine for tests,
//! useless for driving thousands of concurrent connections from one
//! thread. `Swarm` holds N nonblocking connections behind its own
//! epoll [`Poller`](crate::reactor) and pipelines requests over all of
//! them at a configurable depth, which is how the testkit's network
//! scenarios (slow-reader backpressure, mass disconnect) generate
//! traffic without a thread per simulated client.
//!
//! Misbehaving-client controls are first-class because the testkit
//! needs them: [`Swarm::stall`] turns a client into a slow reader
//! (it keeps *sending* but never reads a reply — its kernel receive
//! buffer fills, and the server's backpressure machinery is on the
//! hook for bounding memory), and [`Swarm::disconnect`] drops a
//! connection on the floor mid-pipeline.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::reactor::{Event, Poller};

/// Parameters for one [`Swarm::run`] call.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Requests each live client issues (use `u64::MAX` with a
    /// `deadline` for time-boxed runs).
    pub per_client: u64,
    /// Max outstanding (sent, unanswered) requests per client.
    /// Stalled clients ignore this — they never ack, so the cap
    /// would freeze them after one window.
    pub pipeline: usize,
    /// Stop issuing and return once this much time has elapsed.
    pub deadline: Option<Duration>,
}

/// What a [`Swarm::run`] (or [`Swarm::drain`]) observed.
#[derive(Clone, Debug, Default)]
pub struct SwarmReport {
    /// Requests generated (and queued for write).
    pub sent: u64,
    /// Complete replies received.
    pub received: u64,
    /// Replies that were protocol errors (`-ERR …`).
    pub error_replies: u64,
    /// Connections that hit an I/O error.
    pub io_errors: u64,
    /// Connections the server closed mid-run (EOF).
    pub disconnects: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

struct ClientConn {
    stream: TcpStream,
    /// Generated requests not yet written; `out_pos` is flushed.
    out: Vec<u8>,
    out_pos: usize,
    /// Reply bytes not yet framed; `in_pos` is consumed.
    in_buf: Vec<u8>,
    in_pos: usize,
    /// Remaining element lines of a partially-read `*n` array reply.
    array_extra: usize,
    /// Requests issued / replies received in the current run.
    sent: u64,
    acked: u64,
    /// Slow reader: keeps sending, never reads.
    stalled: bool,
    want_read: bool,
    want_write: bool,
}

impl ClientConn {
    fn outstanding(&self) -> u64 {
        self.sent - self.acked
    }
}

/// N multiplexed pipelined connections driven from the calling
/// thread. Indexes are stable: disconnecting client `i` leaves a
/// tombstone, it does not shift the others.
pub struct Swarm {
    poller: Poller,
    conns: Vec<Option<ClientConn>>,
}

impl Swarm {
    /// Opens `clients` connections to `addr` (serially; localhost
    /// connects are microseconds, and a serial dial keeps the
    /// server's accept backlog shallow).
    pub fn connect(addr: SocketAddr, clients: usize) -> io::Result<Swarm> {
        let poller = Poller::new()?;
        let mut conns = Vec::with_capacity(clients);
        for idx in 0..clients {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            poller.add(stream.as_raw_fd(), idx as u64, true, false)?;
            conns.push(Some(ClientConn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                in_buf: Vec::new(),
                in_pos: 0,
                array_extra: 0,
                sent: 0,
                acked: 0,
                stalled: false,
                want_read: true,
                want_write: false,
            }));
        }
        Ok(Swarm { poller, conns })
    }

    /// Connections still open.
    pub fn live_clients(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Shrinks client `idx`'s kernel receive buffer (`SO_RCVBUF`).
    /// A stalled client with the default multi-megabyte buffer can
    /// absorb an entire test workload's replies without the server
    /// ever feeling backpressure; shrinking it moves the pressure to
    /// where the scenario wants it — the server's write path.
    pub fn shrink_recv_buf(&mut self, idx: usize, bytes: usize) {
        if let Some(conn) = self.conns.get(idx).and_then(Option::as_ref) {
            let _ = crate::reactor::set_sock_buf(
                conn.stream.as_raw_fd(),
                crate::reactor::sys::SO_RCVBUF,
                bytes,
            );
        }
    }

    /// Marks client `idx` as a slow reader: it continues to send but
    /// never reads another reply.
    pub fn stall(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            conn.stalled = true;
            conn.want_read = false;
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), idx as u64, false, conn.want_write);
        }
    }

    /// Drops client `idx`'s connection immediately (mid-pipeline —
    /// outstanding requests are abandoned).
    pub fn disconnect(&mut self, idx: usize) {
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
    }

    /// Issues `opts.per_client` requests per live client at the given
    /// pipeline depth, generating each request with `gen(client,
    /// request_index, out)` (which must append exactly one
    /// `\n`-terminated line). Returns when every live, non-stalled
    /// client has its replies (or the deadline passes).
    pub fn run(
        &mut self,
        opts: &RunOpts,
        mut gen: impl FnMut(usize, u64, &mut Vec<u8>),
    ) -> SwarmReport {
        let start = Instant::now();
        let mut report = SwarmReport::default();
        for conn in self.conns.iter_mut().flatten() {
            conn.sent = 0;
            conn.acked = 0;
        }
        // Prime every pipeline, then settle into the event loop.
        for idx in 0..self.conns.len() {
            self.top_up(idx, opts, &mut gen, &mut report);
            self.flush_out(idx, &mut report);
        }
        let mut events = Vec::with_capacity(256);
        loop {
            if self.finished(opts) {
                break;
            }
            let timeout = match opts.deadline {
                Some(d) => {
                    let elapsed = start.elapsed();
                    if elapsed >= d {
                        break;
                    }
                    ((d - elapsed).as_millis() as i32).clamp(1, 50)
                }
                None => 50,
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            let round: Vec<Event> = events.clone();
            for ev in round {
                let idx = ev.token as usize;
                if ev.hangup && !ev.readable {
                    report.disconnects += 1;
                    self.disconnect(idx);
                    continue;
                }
                if ev.readable {
                    self.handle_read(idx, opts, &mut gen, &mut report);
                }
                if ev.writable {
                    self.flush_out(idx, &mut report);
                    // A drained out-buffer may free pipeline slots.
                    self.top_up(idx, opts, &mut gen, &mut report);
                    self.flush_out(idx, &mut report);
                }
            }
            self.sync_interest();
        }
        report.elapsed = start.elapsed();
        report
    }

    /// Reads until every live, non-stalled client has no outstanding
    /// requests (flushing any still-queued writes), or `timeout`
    /// passes. Returns the replies received while draining.
    pub fn drain(&mut self, timeout: Duration) -> SwarmReport {
        let opts = RunOpts {
            per_client: 0,
            pipeline: 0,
            deadline: Some(timeout),
        };
        // per_client = 0 means top_up never generates anything; the
        // loop just flushes and reads until outstanding hits zero.
        let mut gen = |_: usize, _: u64, _: &mut Vec<u8>| {};
        let start = Instant::now();
        let mut report = SwarmReport::default();
        let mut events = Vec::with_capacity(256);
        loop {
            if self.quiet() {
                break;
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                break;
            }
            let ms = ((timeout - elapsed).as_millis() as i32).clamp(1, 50);
            if self.poller.wait(&mut events, ms).is_err() {
                break;
            }
            let round: Vec<Event> = events.clone();
            for ev in round {
                let idx = ev.token as usize;
                if ev.hangup && !ev.readable {
                    report.disconnects += 1;
                    self.disconnect(idx);
                    continue;
                }
                if ev.readable {
                    self.handle_read(idx, &opts, &mut gen, &mut report);
                }
                if ev.writable {
                    self.flush_out(idx, &mut report);
                }
            }
            self.sync_interest();
        }
        report.elapsed = start.elapsed();
        report
    }

    /// Whether every live, non-stalled client is idle (nothing
    /// outstanding, nothing left to write).
    pub fn quiet(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .all(|c| c.stalled || (c.outstanding() == 0 && c.out_pos == c.out.len()))
    }

    fn finished(&self, opts: &RunOpts) -> bool {
        self.conns.iter().flatten().all(|c| {
            if c.stalled {
                // Slow readers only need to have *issued* their load.
                c.sent >= opts.per_client
            } else {
                c.sent >= opts.per_client && c.outstanding() == 0
            }
        })
    }

    fn top_up(
        &mut self,
        idx: usize,
        opts: &RunOpts,
        gen: &mut impl FnMut(usize, u64, &mut Vec<u8>),
        report: &mut SwarmReport,
    ) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let cap = if conn.stalled {
            u64::MAX
        } else {
            opts.pipeline as u64
        };
        // Don't let a stalled client's write queue grow without
        // bound either — it only needs enough to keep the socket
        // saturated.
        while conn.sent < opts.per_client && conn.outstanding() < cap && conn.out.len() < 1 << 20 {
            gen(idx, conn.sent, &mut conn.out);
            conn.sent += 1;
            report.sent += 1;
        }
    }

    fn flush_out(&mut self, idx: usize, report: &mut SwarmReport) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    report.io_errors += 1;
                    self.disconnect(idx);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    report.io_errors += 1;
                    self.disconnect(idx);
                    return;
                }
            }
        }
        if conn.out_pos == conn.out.len() && conn.out_pos > 0 {
            conn.out.clear();
            conn.out_pos = 0;
        }
    }

    fn handle_read(
        &mut self,
        idx: usize,
        opts: &RunOpts,
        gen: &mut impl FnMut(usize, u64, &mut Vec<u8>),
        report: &mut SwarmReport,
    ) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if conn.stalled {
            return;
        }
        loop {
            let old = conn.in_buf.len();
            conn.in_buf.resize(old + 16 * 1024, 0);
            match conn.stream.read(&mut conn.in_buf[old..]) {
                Ok(0) => {
                    conn.in_buf.truncate(old);
                    report.disconnects += 1;
                    self.disconnect(idx);
                    return;
                }
                Ok(n) => {
                    conn.in_buf.truncate(old + n);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.in_buf.truncate(old);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    conn.in_buf.truncate(old);
                    continue;
                }
                Err(_) => {
                    conn.in_buf.truncate(old);
                    report.io_errors += 1;
                    self.disconnect(idx);
                    return;
                }
            }
        }
        // Frame replies: one line each, except `*n` headers which
        // announce n element lines.
        while let Some(nl) = conn.in_buf[conn.in_pos..].iter().position(|&b| b == b'\n') {
            let line = &conn.in_buf[conn.in_pos..conn.in_pos + nl];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            if conn.array_extra > 0 {
                conn.array_extra -= 1;
                if conn.array_extra == 0 {
                    complete_reply(conn, report);
                }
            } else if let Some(rest) = line.strip_prefix(b"*") {
                let n: usize = std::str::from_utf8(rest)
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                if n == 0 {
                    complete_reply(conn, report);
                } else {
                    conn.array_extra = n;
                }
            } else {
                if line.first() == Some(&b'-') {
                    report.error_replies += 1;
                }
                complete_reply(conn, report);
            }
            conn.in_pos += nl + 1;
        }
        if conn.in_pos > 0 {
            conn.in_buf.drain(..conn.in_pos);
            conn.in_pos = 0;
        }
        // Freed pipeline slots: issue more load.
        self.top_up(idx, opts, gen, report);
        self.flush_out(idx, report);
    }

    fn sync_interest(&mut self) {
        for (idx, conn) in self.conns.iter_mut().enumerate() {
            let Some(conn) = conn else { continue };
            let want_read = !conn.stalled;
            let want_write = conn.out_pos < conn.out.len();
            if want_read != conn.want_read || want_write != conn.want_write {
                conn.want_read = want_read;
                conn.want_write = want_write;
                let _ =
                    self.poller
                        .modify(conn.stream.as_raw_fd(), idx as u64, want_read, want_write);
            }
        }
    }
}

fn complete_reply(conn: &mut ClientConn, report: &mut SwarmReport) {
    conn.acked += 1;
    report.received += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{ReactorConfig, ReactorFrontend};
    use crate::sharded::ShardedStore;
    use softmem_core::{Priority, Sma};
    use std::sync::Arc;

    #[test]
    fn swarm_drives_reactor_pipelined() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 2));
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, ReactorConfig::default()).unwrap();
        let mut swarm = Swarm::connect(fe.addr(), 16).unwrap();
        let opts = RunOpts {
            per_client: 50,
            pipeline: 8,
            deadline: Some(Duration::from_secs(10)),
        };
        let report = swarm.run(&opts, |client, req, out| {
            out.extend_from_slice(format!("SET k-{client}-{req} v{req}\n").as_bytes());
        });
        assert_eq!(report.sent, 16 * 50);
        assert_eq!(report.received, 16 * 50, "{report:?}");
        assert_eq!(report.error_replies, 0);
        assert_eq!(report.io_errors, 0);
        assert_eq!(fe.engine().dbsize(), 16 * 50);
        // Reads mixed with MGET (array replies) frame correctly too.
        let report = swarm.run(&opts, |client, req, out| {
            if req % 5 == 0 {
                out.extend_from_slice(
                    format!("MGET k-{client}-{req} nope k-{client}-1\n").as_bytes(),
                );
            } else {
                out.extend_from_slice(format!("GET k-{client}-{req}\n").as_bytes());
            }
        });
        assert_eq!(report.received, 16 * 50, "{report:?}");
        assert_eq!(report.error_replies, 0);
        assert!(swarm.quiet());
        assert!(fe.stats().quiesced());
    }

    #[test]
    fn swarm_disconnect_and_stall_bookkeeping() {
        let sma = Sma::standalone(1024);
        let engine = Arc::new(ShardedStore::new(&sma, "kv", Priority::new(4), 1));
        let fe = ReactorFrontend::bind("127.0.0.1:0", engine, ReactorConfig::default()).unwrap();
        let mut swarm = Swarm::connect(fe.addr(), 8).unwrap();
        swarm.disconnect(0);
        swarm.disconnect(3);
        assert_eq!(swarm.live_clients(), 6);
        swarm.stall(1);
        let opts = RunOpts {
            per_client: 20,
            pipeline: 4,
            deadline: Some(Duration::from_secs(10)),
        };
        let report = swarm.run(&opts, |client, req, out| {
            out.extend_from_slice(format!("SET s-{client}-{req} v\n").as_bytes());
        });
        // 6 live clients issued their quota; the stalled one read
        // nothing, so only 5 clients' replies came back.
        assert_eq!(report.sent, 6 * 20);
        assert_eq!(report.received, 5 * 20, "{report:?}");
    }
}
