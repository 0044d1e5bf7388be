//! Per-thread CPU time and context switches, read from outside via
//! `/proc/<pid>/task/*/{stat,status}` and grouped by the thread names
//! the programs already set (`softmem-kv-reactor-*`, `softmem-kv-shard-*`;
//! the kernel keeps the first 15 bytes).

use std::collections::HashMap;
use std::fs;
use std::io;

/// `/proc` reports CPU time in USER_HZ ticks, which is 100 on every
/// Linux ABI regardless of the kernel's internal HZ.
pub const TICK_US: u64 = 10_000;

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadSample {
    pub comm: String,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub voluntary_switches: u64,
}

/// Parses one `stat` line into `(comm, utime, stime)`. The comm field
/// is parenthesised and may itself contain spaces or parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<(String, u64, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // After the comm: state is field 3, utime 14, stime 15.
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime = rest.nth(14 - 3)?.parse().ok()?;
    let stime = rest.next()?.parse().ok()?;
    Some((comm, utime, stime))
}

/// Reads a numeric `Name:   value [kB]` field out of a `status` file.
pub fn status_field(text: &str, name: &str) -> Option<u64> {
    let value = text
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))?;
    value.split_ascii_whitespace().next()?.parse().ok()
}

/// One sample of every live thread of `pid`, keyed by tid.
pub fn sample_threads(pid: u32) -> io::Result<HashMap<u32, ThreadSample>> {
    let mut out = HashMap::new();
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let dir = entry?.path();
        let Some(tid) = dir.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
            continue;
        };
        // A thread may exit between readdir and read: skip it.
        let (Ok(stat), Ok(status)) = (
            fs::read_to_string(dir.join("stat")),
            fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let Some((comm, utime_ticks, stime_ticks)) = parse_stat(&stat) else {
            continue;
        };
        out.insert(
            tid,
            ThreadSample {
                comm,
                utime_ticks,
                stime_ticks,
                voluntary_switches: status_field(&status, "voluntary_ctxt_switches").unwrap_or(0),
            },
        );
    }
    Ok(out)
}

/// What a group of threads did between two samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupDelta {
    pub cpu_us: u64,
    pub sys_us: u64,
    pub voluntary_switches: u64,
}

/// Sums the deltas of every thread whose comm starts with `prefix`.
/// A thread absent from `before` started in between and counts whole.
pub fn group_delta(
    before: &HashMap<u32, ThreadSample>,
    after: &HashMap<u32, ThreadSample>,
    prefix: &str,
) -> GroupDelta {
    let mut d = GroupDelta::default();
    for (tid, a) in after.iter().filter(|(_, a)| a.comm.starts_with(prefix)) {
        let zero = ThreadSample::default();
        let b = before.get(tid).unwrap_or(&zero);
        let user = a.utime_ticks.saturating_sub(b.utime_ticks);
        let sys = a.stime_ticks.saturating_sub(b.stime_ticks);
        d.cpu_us += (user + sys) * TICK_US;
        d.sys_us += sys * TICK_US;
        d.voluntary_switches += a.voluntary_switches.saturating_sub(b.voluntary_switches);
    }
    d
}

/// Whole-process CPU time (all threads, live and exited) in µs.
pub fn process_cpu_us(pid: u32) -> io::Result<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let (_, utime, stime) = parse_stat(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable stat"))?;
    Ok((utime + stime) * TICK_US)
}

/// Peak resident set (`VmHWM`) of `pid` in KiB.
pub fn vm_hwm_kib(pid: u32) -> io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status_field(&status, "VmHWM")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (softmem-kv-reac) S 1 4242 4242 0 -1 4194368 12 0 0 0 \
                        731 269 0 0 20 0 5 0 100 1000 200 18446744073709551615 0 0 0";

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        assert_eq!(
            parse_stat(STAT),
            Some(("softmem-kv-reac".to_string(), 731, 269))
        );
        let odd = STAT.replace("softmem-kv-reac", "a) S (b c");
        assert_eq!(parse_stat(&odd), Some(("a) S (b c".to_string(), 731, 269)));
        assert_eq!(parse_stat("1 (short) S 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tkv_server\nVmHWM:\t   12345 kB\nvoluntary_ctxt_switches:\t77\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(12345));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(77));
        assert_eq!(status_field(status, "VmRSS"), None);
    }

    #[test]
    fn group_delta_sums_matching_threads_only() {
        let t = |comm: &str, u, s, v| ThreadSample {
            comm: comm.into(),
            utime_ticks: u,
            stime_ticks: s,
            voluntary_switches: v,
        };
        let before = HashMap::from([
            (1, t("softmem-kv-shar", 10, 5, 100)),
            (2, t("softmem-kv-reac", 1, 1, 1)),
        ]);
        let after = HashMap::from([
            (1, t("softmem-kv-shar", 30, 10, 150)),
            (2, t("softmem-kv-reac", 9, 9, 9)),
            (3, t("softmem-kv-shar", 4, 1, 7)), // started in between
        ]);
        let d = group_delta(&before, &after, "softmem-kv-shar");
        assert_eq!(d.cpu_us, (20 + 5 + 4 + 1) * TICK_US);
        assert_eq!(d.sys_us, (5 + 1) * TICK_US);
        assert_eq!(d.voluntary_switches, 50 + 7);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(!sample_threads(me).unwrap().is_empty());
        assert!(vm_hwm_kib(me).unwrap() > 0);
        process_cpu_us(me).unwrap();
    }
}
