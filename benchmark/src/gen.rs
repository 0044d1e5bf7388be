//! Seeded input generation: PRNG, zipf sampler, keys, values, op stream.
//!
//! Everything the programs under test receive is a pure function of
//! `--seed` and the workload spec. Values are a function of the key
//! alone, so any GET hit can be byte-checked no matter which earlier
//! SET (preload, refill, or another connection's) stored it.

/// splitmix64: tiny, fast, and good enough for load generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipfian ranks in `[0, n)` with exponent `theta`, rank 0 hottest.
///
/// Gray et al.'s closed form ("Quickly generating billion-record
/// synthetic databases", the YCSB generator): one `powf` per sample
/// after an O(n) zeta sum at construction.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2, "zipf needs at least two items");
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// Probability of rank 0 (for tests and the README).
    pub fn p0(&self) -> f64 {
        1.0 / self.zetan
    }
}

/// Length of every key on the wire: `key:` + 8 decimal digits.
pub const KEY_LEN: usize = 12;

/// Appends the wire form of key `id`.
pub fn push_key(out: &mut Vec<u8>, id: u64) {
    debug_assert!(id < 100_000_000);
    let mut digits = [b'0'; 8];
    let mut v = id;
    for d in digits.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend_from_slice(b"key:");
    out.extend_from_slice(&digits);
}

/// The 16-byte unit a key's value repeats: lowercase hex of a hash of
/// the id (no spaces or line breaks, so it survives the line protocol).
fn value_unit(id: u64) -> [u8; 16] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let h = mix(id ^ 0x5EED_F00D_CAFE);
    let mut unit = [0u8; 16];
    for (i, b) in unit.iter_mut().enumerate() {
        *b = HEX[((h >> (4 * i)) & 0xF) as usize];
    }
    unit
}

/// Appends the `len`-byte value of key `id`.
pub fn push_value(out: &mut Vec<u8>, id: u64, len: usize) {
    let unit = value_unit(id);
    let mut left = len;
    while left > 0 {
        let n = left.min(unit.len());
        out.extend_from_slice(&unit[..n]);
        left -= n;
    }
}

/// Whether `got` is exactly the `len`-byte value of key `id`.
pub fn value_matches(got: &[u8], id: u64, len: usize) -> bool {
    let unit = value_unit(id);
    got.len() == len && got.chunks(unit.len()).all(|c| c == &unit[..c.len()])
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Set,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u64,
}

impl Op {
    /// Appends the request line for this op.
    pub fn encode(&self, out: &mut Vec<u8>, value_len: usize) {
        match self.kind {
            OpKind::Get => {
                out.extend_from_slice(b"GET ");
                push_key(out, self.key);
            }
            OpKind::Set => {
                out.extend_from_slice(b"SET ");
                push_key(out, self.key);
                out.push(b' ');
                push_value(out, self.key, value_len);
            }
        }
        out.push(b'\n');
    }
}

/// One connection's generated op stream.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    zipf: Zipf,
    get_pct: u64,
}

impl OpGen {
    /// `stream` separates the streams of one run (connection index).
    pub fn new(seed: u64, stream: u64, keys: u64, get_pct: u32) -> Self {
        OpGen {
            rng: Rng::new(mix(seed) ^ mix(stream.wrapping_add(0xC0FFEE))),
            zipf: Zipf::new(keys, 0.99),
            get_pct: u64::from(get_pct),
        }
    }

    pub fn next_op(&mut self) -> Op {
        let kind = if self.rng.next_u64() % 100 < self.get_pct {
            OpKind::Get
        } else {
            OpKind::Set
        };
        Op {
            kind,
            key: self.zipf.sample(&mut self.rng),
        }
    }
}

/// FNV-1a over the first `n` generated ops of a stream: equal seeds
/// must give equal hashes (printed in results.json, checked by tests).
pub fn stream_hash(gen: &mut OpGen, n: usize) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for _ in 0..n {
        let op = gen.next_op();
        for b in op.key.to_le_bytes().into_iter().chain([op.kind as u8]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_hash() {
        let h = |seed, stream| stream_hash(&mut OpGen::new(seed, stream, 100_000, 90), 50_000);
        assert_eq!(h(7, 0), h(7, 0));
        assert_ne!(h(7, 0), h(8, 0));
        assert_ne!(h(7, 0), h(7, 1));
    }

    #[test]
    fn zipf_is_in_range_skewed_and_matches_p0() {
        let n = 10_000u64;
        let z = Zipf::new(n, 0.99);
        let mut rng = Rng::new(42);
        let samples = 400_000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..samples {
            let r = z.sample(&mut rng);
            assert!(r < n);
            counts[r as usize] += 1;
        }
        let p0 = f64::from(counts[0]) / samples as f64;
        assert!((p0 - z.p0()).abs() < 0.01, "p0 {p0} vs {}", z.p0());
        // Rank r has mass ∝ 1/(r+1)^0.99: rank 0 ≈ 2× rank 1, and the
        // ten hottest keys take far more than a uniform share.
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((1.7..2.3).contains(&ratio), "rank0/rank1 {ratio}");
        let top10: u32 = counts[..10].iter().sum();
        assert!(f64::from(top10) / samples as f64 > 0.25);
        // The tail is reached too.
        assert!(counts[(n / 2) as usize..].iter().any(|&c| c > 0));
    }

    #[test]
    fn keys_are_fixed_width_and_values_check() {
        let mut k = Vec::new();
        push_key(&mut k, 42);
        assert_eq!(k, b"key:00000042");
        assert_eq!(k.len(), KEY_LEN);

        for len in [1, 16, 128, 500] {
            let mut v = Vec::new();
            push_value(&mut v, 42, len);
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|b| b.is_ascii_hexdigit()));
            assert!(value_matches(&v, 42, len));
            // One hex digit of another key can coincide; a full unit cannot.
            assert!(len < 16 || !value_matches(&v, 43, len));
            assert!(!value_matches(&v[..len - 1], 42, len));
        }
    }

    #[test]
    fn ops_encode_as_protocol_lines() {
        let mut out = Vec::new();
        Op {
            kind: OpKind::Get,
            key: 1,
        }
        .encode(&mut out, 16);
        Op {
            kind: OpKind::Set,
            key: 1,
        }
        .encode(&mut out, 4);
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("GET key:00000001"));
        let set = lines.next().unwrap();
        assert!(set.starts_with("SET key:00000001 ") && set.len() == 17 + 4);
    }
}
