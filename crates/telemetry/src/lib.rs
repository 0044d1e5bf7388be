//! Machine-wide observability primitives for the soft-memory stack.
//!
//! Three hot-path primitives — [`Counter`], [`Gauge`], and a
//! fixed-bucket log2 [`Histogram`] — plus a labeled [`Registry`] that
//! renders point-in-time [`Snapshot`]s as single-line JSON, a human
//! table, or a flat `name:value;…` string. Everything is lock-free and
//! allocation-free on the record path: metrics are plain atomics,
//! registration (the only locking, allocating operation) happens once
//! at construction time.
//!
//! Latency is recorded in nanoseconds via [`Timer`]. For hot paths,
//! [`Timer::start_sampled`] times one in [`SAMPLE_EVERY`] operations
//! (driven by a counter the caller was bumping anyway), which keeps
//! the instrumented alloc path within its <2% overhead budget.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sampled timers fire when `n & SAMPLE_MASK == 0`.
pub const SAMPLE_MASK: u64 = 63;

/// One in this many operations is timed by [`Timer::start_sampled`].
pub const SAMPLE_EVERY: u64 = SAMPLE_MASK + 1;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b - 1]`, up to bucket 64 for the top
/// of the u64 range.
pub const BUCKETS: usize = 65;

/// The log2 bucket index for a sample.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `(low, high)` value range covered by a bucket.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    assert!(b < BUCKETS, "bucket index out of range");
    if b == 0 {
        (0, 0)
    } else if b == 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (b - 1), (1 << b) - 1)
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter {
            v: AtomicU64::new(0),
        }
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event, returning the *previous* count — the idiom that
    /// feeds [`Timer::start_sampled`] without a second atomic op.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.v.fetch_add(1, Ordering::Relaxed)
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed level (occupancy, slack, queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            v: AtomicI64::new(0),
        }
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by a delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.v.fetch_add(d, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram of u64 samples (typically
/// nanoseconds). Recording is four relaxed atomic RMW ops plus two
/// conditional min/max updates — no locks, no allocation, no floats.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Folds every sample of `other` into `self`. Because buckets are
    /// added exactly, `merge_from` is *lossless*: merging two
    /// histograms yields the same state as recording the concatenated
    /// sample streams into one.
    pub fn merge_from(&self, other: &Histogram) {
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// A consistent-enough copy of the current state. (Individual
    /// atomics are read independently; concurrent recording can skew a
    /// snapshot by in-flight samples, which is fine for telemetry and
    /// exact at the testkit's quiesce points.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect();
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        };
        let max = self.max.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            buckets,
        }
    }
}

/// A one-shot latency timer. `Timer::start()` always times;
/// [`Timer::start_sampled`] times one in [`SAMPLE_EVERY`] calls and is
/// a no-op (not even a clock read) otherwise.
#[derive(Debug)]
#[must_use = "a Timer only records when observed"]
pub struct Timer {
    start: Option<Instant>,
}

impl Timer {
    /// Starts timing unconditionally.
    #[inline]
    pub fn start() -> Self {
        Timer {
            start: Some(Instant::now()),
        }
    }

    /// Starts timing only when `n & SAMPLE_MASK == 0`; pass the
    /// previous value of a counter the call site already increments
    /// (see [`Counter::inc`]).
    #[inline]
    pub fn start_sampled(n: u64) -> Self {
        Timer {
            start: (n & SAMPLE_MASK == 0).then(Instant::now),
        }
    }

    /// A timer that never records — for paths that decide after the
    /// fact not to measure.
    #[inline]
    pub fn inactive() -> Self {
        Timer { start: None }
    }

    /// Records the elapsed nanoseconds into `hist` (if this timer was
    /// actually started).
    #[inline]
    pub fn observe(self, hist: &Histogram) {
        if let Some(start) = self.start {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Registration locks a mutex (do it at
/// construction time); reads on the registered `Arc`s are lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    name: String,
    entries: std::sync::Mutex<Vec<(String, Metric)>>,
}

impl Registry {
    /// An empty registry labelled `name` (e.g. `"sma"`, `"smd"`,
    /// `"kv"`).
    pub fn new(name: &str) -> Self {
        Registry {
            name: name.to_string(),
            entries: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The registry's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn register(&self, name: &str, metric: Metric) -> Metric {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some((_, existing)) = entries.iter().find(|(n, _)| n == name) {
            return existing.clone();
        }
        entries.push((name.to_string(), metric.clone()));
        metric
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.register(name, Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.register(name, Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.register(name, Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// A point-in-time copy of every metric, in registration order.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        Snapshot {
            name: self.name.clone(),
            metrics: entries
                .iter()
                .map(|(name, metric)| MetricSnapshot {
                    name: name.clone(),
                    value: match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

/// A frozen copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping is the caller's problem at ~584
    /// years of nanoseconds).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank percentile *bounds*: the true p-th percentile is
    /// guaranteed to lie in the returned inclusive `(low, high)`
    /// range, which is the covering bucket clamped by the observed
    /// min/max. `p` is in percent (50.0, 99.0, …).
    pub fn percentile(&self, p: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(b);
                return (lo.max(self.min), hi.min(self.max));
            }
        }
        (self.max, self.max) // unreachable when counts are consistent
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One named metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The metric's registered name.
    pub name: String,
    /// Its value.
    pub value: MetricValue,
}

/// A frozen copy of a whole registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The registry label.
    pub name: String,
    /// Every metric, in registration order.
    pub metrics: Vec<MetricSnapshot>,
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl Snapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Single-line JSON object mapping metric names to values, with no
    /// whitespace (so it survives line-oriented wire protocols
    /// verbatim). Histograms render as
    /// `{"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p99":..,"buckets":{"<idx>":n,..}}`
    /// where `p50`/`p99` are the upper percentile bounds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(&m.name, &mut out);
            out.push_str("\":");
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"buckets\":{{",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        h.mean(),
                        h.percentile(50.0).1,
                        h.percentile(99.0).1,
                    );
                    for (j, (b, n)) in h.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{b}\":{n}");
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push('}');
        out
    }

    /// A padded human-readable table, one metric per row.
    pub fn render_table(&self) -> String {
        let rows: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|m| {
                let v = match &m.value {
                    MetricValue::Counter(v) => v.to_string(),
                    MetricValue::Gauge(v) => v.to_string(),
                    MetricValue::Histogram(h) => format!(
                        "n={} mean={} min={} max={} p50<={} p99<={}",
                        h.count,
                        h.mean(),
                        h.min,
                        h.max,
                        h.percentile(50.0).1,
                        h.percentile(99.0).1,
                    ),
                };
                (m.name.clone(), v)
            })
            .collect();
        let w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = format!("[{}]\n", self.name);
        for (name, value) in rows {
            let _ = writeln!(out, "  {name:<w$}  {value}");
        }
        out
    }

    /// Flat `name:value;name:value` single line (histograms contribute
    /// `name.count` and `name.mean`) — the compact form line-oriented
    /// INFO-style commands embed.
    pub fn render_flat(&self) -> String {
        let mut parts = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            match &m.value {
                MetricValue::Counter(v) => parts.push(format!("{}:{v}", m.name)),
                MetricValue::Gauge(v) => parts.push(format!("{}:{v}", m.name)),
                MetricValue::Histogram(h) => {
                    parts.push(format!("{}.count:{}", m.name, h.count));
                    parts.push(format!("{}.mean:{}", m.name, h.mean()));
                }
            }
        }
        parts.join(";")
    }
}

/// Wraps several registry snapshots as one JSON object keyed by
/// registry label: `{"sma":{…},"smd":{…}}`. Single-line, no spaces.
pub fn combined_json(snapshots: &[Snapshot]) -> String {
    let mut out = String::from("{");
    for (i, s) in snapshots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape(&s.name, &mut out);
        out.push_str("\":");
        out.push_str(&s.to_json());
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!(bucket_index(lo), b, "low edge of bucket {b}");
            assert_eq!(bucket_index(hi), b, "high edge of bucket {b}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn registry_renders_all_shapes() {
        let reg = Registry::new("test");
        let c = reg.counter("ops_total");
        let g = reg.gauge("level");
        let h = reg.histogram("lat_ns");
        c.add(3);
        g.set(-2);
        h.record(5);
        let snap = reg.snapshot();
        let json = snap.to_json();
        assert!(!json.contains(' '), "wire JSON must be space-free: {json}");
        assert_eq!(json.lines().count(), 1);
        let table = snap.render_table();
        assert!(table.starts_with("[test]"));
        let flat = snap.render_flat();
        assert_eq!(flat.lines().count(), 1);
        assert_eq!(snap.get("ops_total"), Some(&MetricValue::Counter(3)));
        assert_eq!(snap.get("level"), Some(&MetricValue::Gauge(-2)));
        assert!(json.contains("\"ops_total\":3"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(flat.contains("ops_total:3") && flat.contains("lat_ns.count:1"));
        let combined = combined_json(&[snap]);
        assert!(combined.starts_with("{\"test\":{"), "{combined}");
    }

    #[test]
    fn registry_deduplicates_by_name() {
        let reg = Registry::new("r");
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(1);
        b.add(1);
        assert_eq!(reg.snapshot().metrics.len(), 1);
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1_000_000);
        let (lo, hi) = s.percentile(50.0);
        assert!(lo <= 100 && 100 <= hi, "p50 bounds ({lo},{hi}) miss 100");
        let (lo, hi) = s.percentile(99.0);
        assert!(
            lo <= 1_000_000 && 1_000_000 <= hi,
            "p99 bounds ({lo},{hi}) miss max"
        );
        assert_eq!(s.percentile(0.0).0, 1);
    }

    #[test]
    fn timers_record_and_sampling_skips() {
        let h = Histogram::new();
        Timer::start().observe(&h);
        assert_eq!(h.count(), 1);
        Timer::inactive().observe(&h);
        assert_eq!(h.count(), 1);
        let c = Counter::new();
        for _ in 0..(2 * SAMPLE_EVERY) {
            Timer::start_sampled(c.inc()).observe(&h);
        }
        assert_eq!(h.count(), 3, "exactly 1 in {SAMPLE_EVERY} sampled");
    }
}
