//! The wire side of the benchmark: banner parsing, reply framing, and
//! the `STATS` scrapes (kv_server over TCP, smd_daemon over its UDS).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use crate::json::Json;

/// How long any single blocking read may wait before the run is
/// declared wedged.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// `softmem-kv listening on 127.0.0.1:37809 (reactor frontend, …)`.
pub fn parse_kv_banner(line: &str) -> Option<SocketAddr> {
    let rest = line.strip_prefix("softmem-kv listening on ")?;
    rest.split_ascii_whitespace().next()?.parse().ok()
}

/// `softmem-smd: serving 8 MiB of machine soft memory on <path>`.
pub fn is_smd_banner(line: &str) -> bool {
    line.starts_with("softmem-smd: serving ")
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Splits replies out of a byte stream one `\n`-terminated line at a
/// time. The buffer is allocated (and zeroed) once; a read costs only
/// the bytes it brings in, which matters at one read per request.
pub struct LineReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for LineReader {
    fn default() -> Self {
        LineReader {
            buf: vec![0; 1 << 17],
            start: 0,
            end: 0,
        }
    }
}

impl LineReader {
    /// One blocking `read` appended to the buffer; returns the bytes
    /// read (0 = peer closed).
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.end == self.buf.len() {
            if self.start == 0 {
                // One line longer than the buffer (a STATS snapshot).
                self.buf.resize(self.buf.len() * 2, 0);
            } else {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, self.end - self.start);
            }
        }
        loop {
            match src.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete line (terminator stripped), if one is buffered.
    pub fn next_line(&mut self) -> Option<&[u8]> {
        let pending = &self.buf[self.start..self.end];
        let len = pending.iter().position(|&b| b == b'\n')?;
        let line = &self.buf[self.start..self.start + len];
        self.start += len + 1;
        Some(line)
    }

    /// Blocks until one full line has arrived.
    pub fn read_line(&mut self, src: &mut impl Read) -> io::Result<Vec<u8>> {
        loop {
            if let Some(line) = self.next_line() {
                return Ok(line.to_vec());
            }
            if self.fill(src)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
    }
}

/// Opens a connection with the benchmark's socket settings.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(s)
}

/// Scrapes the server's `STATS` snapshot (`$<json>`) on a connection
/// of its own.
pub fn kv_stats(addr: SocketAddr) -> io::Result<Json> {
    let mut s = connect(addr)?;
    s.write_all(b"STATS\n")?;
    parse_bulk_json(&LineReader::default().read_line(&mut s)?)
}

fn parse_bulk_json(line: &[u8]) -> io::Result<Json> {
    let text = std::str::from_utf8(line).map_err(|e| invalid(e.to_string()))?;
    let body = text
        .strip_prefix('$')
        .ok_or_else(|| invalid(format!("STATS reply is not a bulk: {text:.60}")))?;
    Json::parse(body).map_err(invalid)
}

/// Scrapes the daemon's telemetry over its unix socket.
///
/// The probe joins with `RECONCILE … 0 0` — an account adopting zero
/// pages — rather than `REGISTER`, so it is never granted budget and
/// the machine's soft memory is assigned exactly as without the probe.
/// Should a pressure round still pick it as a target, it yields zero
/// at once instead of stalling the round until the demand times out.
pub fn smd_stats(socket: &Path) -> io::Result<Json> {
    let stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut tx = stream.try_clone()?;
    let mut rx = BufReader::new(stream);
    tx.write_all(b"RECONCILE 1 e2e-probe 0 0\n")?;
    let mut stats_sent = false;
    let mut line = String::new();
    loop {
        line.clear();
        if rx.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let mut words = line.split_ascii_whitespace();
        match words.next() {
            Some("REGISTERED") if !stats_sent => {
                tx.write_all(b"STATS 2\n")?;
                stats_sent = true;
            }
            Some("DEMAND") => {
                let req = words.next().unwrap_or("0");
                tx.write_all(format!("YIELD {req} 0 0 0\n").as_bytes())?;
            }
            Some("STATS") => {
                let body = line.trim_end().splitn(3, ' ').nth(2).unwrap_or("");
                let json = Json::parse(body).map_err(invalid);
                let _ = tx.write_all(b"BYE\n");
                return json;
            }
            Some("ERR") => return Err(invalid(format!("daemon: {}", line.trim_end()))),
            _ => {} // CREDIT / EPOCH pushes are not for the probe
        }
    }
}

/// A histogram out of a telemetry snapshot, as `(bucket, count)` pairs.
/// Bucket 0 holds zeros; bucket `b ≥ 1` holds `[2^(b-1), 2^b)`.
pub fn hist_buckets(hist: Option<&Json>) -> Vec<(u32, f64)> {
    let mut out: Vec<(u32, f64)> = hist
        .and_then(|h| h.get("buckets"))
        .map(Json::fields)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.parse().ok()?, v.num()?)))
        .collect();
    out.sort_by_key(|&(b, _)| b);
    out
}

/// `after − before`, bucket by bucket.
pub fn bucket_delta(before: &[(u32, f64)], after: &[(u32, f64)]) -> Vec<(u32, f64)> {
    after
        .iter()
        .map(|&(b, n)| {
            let was = before.iter().find(|&&(bb, _)| bb == b).map_or(0.0, |x| x.1);
            (b, (n - was).max(0.0))
        })
        .filter(|&(_, n)| n > 0.0)
        .collect()
}

/// Quantile of a log2-bucket histogram, interpolated linearly inside
/// the covering bucket (the buckets are a factor of two wide, so this
/// is an indicator, not a measurement to 1 %).
pub fn bucket_quantile(buckets: &[(u32, f64)], q: f64) -> f64 {
    let total: f64 = buckets.iter().map(|x| x.1).sum();
    if total == 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut seen = 0.0;
    for &(b, n) in buckets {
        if seen + n >= rank {
            if b == 0 {
                return 0.0;
            }
            let lo = 2f64.powi(b as i32 - 1);
            return lo + lo * ((rank - seen) / n);
        }
        seen += n;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banners() {
        let kv = "softmem-kv listening on 127.0.0.1:37809 (reactor frontend, soft budget 4 MiB, 2 shards)";
        assert_eq!(
            parse_kv_banner(kv),
            Some("127.0.0.1:37809".parse().unwrap())
        );
        assert_eq!(parse_kv_banner("joined soft memory daemon at x.sock"), None);
        assert_eq!(parse_kv_banner("softmem-kv listening on nowhere"), None);
        assert!(is_smd_banner(
            "softmem-smd: serving 8 MiB of machine soft memory on smd.sock"
        ));
        assert!(!is_smd_banner("assigned 0/2048 pages | 0 procs"));
    }

    #[test]
    fn line_reader_reassembles_split_lines() {
        // A reader that hands out three bytes at a time.
        struct Drip<'a>(&'a [u8]);
        impl Read for Drip<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.0.len().min(3).min(buf.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let mut src = Drip(b"+OK\n$abcdef\n$-1\n-ERR no");
        let mut r = LineReader::default();
        assert_eq!(r.read_line(&mut src).unwrap(), b"+OK");
        assert_eq!(r.read_line(&mut src).unwrap(), b"$abcdef");
        assert_eq!(r.read_line(&mut src).unwrap(), b"$-1");
        // The unterminated tail is never surfaced as a reply.
        assert_eq!(
            r.read_line(&mut src).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn line_reader_grows_for_a_line_longer_than_its_buffer() {
        let mut long = vec![b'x'; 300_000];
        long.extend_from_slice(b"\n+OK\n");
        let mut src = &long[..];
        let mut r = LineReader::default();
        assert_eq!(r.read_line(&mut src).unwrap().len(), 300_000);
        assert_eq!(r.read_line(&mut src).unwrap(), b"+OK");
    }

    #[test]
    fn stats_reply_parses_to_json() {
        let v = parse_bulk_json(br#"${"net":{"replies_total":3},"kv0":{"hits":1}}"#).unwrap();
        assert_eq!(v.path("net.replies_total").and_then(Json::num), Some(3.0));
        assert!(parse_bulk_json(b"-ERR unknown command").is_err());
        assert!(parse_bulk_json(b"${not json").is_err());
    }

    #[test]
    fn histogram_deltas_and_quantiles() {
        let snap = |text: &str| Json::parse(text).unwrap();
        let before = snap(r#"{"buckets":{"11":10,"12":2}}"#);
        let after = snap(r#"{"buckets":{"11":110,"12":2,"13":100}}"#);
        let d = bucket_delta(&hist_buckets(Some(&before)), &hist_buckets(Some(&after)));
        assert_eq!(d, vec![(11, 100.0), (13, 100.0)]);
        // Half the samples are in [1024, 2048): the median is its top.
        assert_eq!(bucket_quantile(&d, 0.5), 2048.0);
        // p99 sits 98 % of the way through [4096, 8192).
        let p99 = bucket_quantile(&d, 0.99);
        assert!((p99 - (4096.0 + 4096.0 * 0.98)).abs() < 1.0, "{p99}");
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
        assert!(hist_buckets(None).is_empty());
    }
}
