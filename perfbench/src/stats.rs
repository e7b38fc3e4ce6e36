//! Statistics and digest helpers: nearest-rank percentiles with the
//! "at least ten samples beyond" tail rule, geometric means, the quiet
//! round selection, a content digest and the seeded generator.

/// Samples that must lie strictly above a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// A percentile as reported: which percentile was actually taken, its
/// value and how many samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// Percentile taken, in percent (may be below the one asked for).
    pub q: u32,
    /// Value at that percentile.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `q`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `1..=100`.
pub fn nearest_rank(sorted: &[f64], q: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&q), "percentile {q} outside 1..=100");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: u32) -> usize {
    (n * q as usize).div_ceil(100).max(1)
}

/// The highest percentile at or below `q` that still has at least
/// [`TAIL_SAMPLES_BEYOND`] samples above it. With too few samples for
/// any such percentile the median is reported instead (`q = 50`).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn tail(samples: &[f64], q: u32) -> Pct {
    let sorted = sorted(samples);
    let n = sorted.len();
    let mut used = q;
    while used > 50 && n - rank(n, used) < TAIL_SAMPLES_BEYOND {
        used -= 1;
    }
    Pct { q: used, value: nearest_rank(&sorted, used), n }
}

/// Nearest-rank median.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 50)
}

/// [`median`] as a [`Pct`] with its sample count.
pub fn p50(samples: &[f64]) -> Pct {
    Pct { q: 50, value: median(samples), n: samples.len() }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Geometric mean of positive values (`NaN` for an empty or non-positive
/// input, so a bad value cannot pass silently).
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Marks the operations of the quietest rounds. `ops` holds each
/// operation's `(round, host ms)`; rounds are ranked by their median
/// operation time and the fastest `share` of them (at least one) kept.
pub fn quiet(ops: &[(usize, f64)], share: f64) -> Vec<bool> {
    let mut rounds: Vec<usize> = ops.iter().map(|&(r, _)| r).collect();
    rounds.sort_unstable();
    rounds.dedup();
    let mut scored: Vec<(f64, usize)> = rounds
        .iter()
        .map(|&r| {
            let times: Vec<f64> = ops.iter().filter(|o| o.0 == r).map(|o| o.1).collect();
            (median(&times), r)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let n = ((scored.len() as f64 * share).ceil() as usize).clamp(1, scored.len().max(1));
    let kept: Vec<usize> = scored[..n.min(scored.len())].iter().map(|&(_, r)| r).collect();
    ops.iter().map(|(r, _)| kept.contains(r)).collect()
}

/// A 64-bit FNV-1a style content digest. Words are mixed whole, so
/// hashing a frame buffer costs one multiply per channel.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    const PRIME: u64 = 0x100_0000_01b3;

    /// Mixes one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
    }

    /// Mixes a byte string (length-prefixed, so concatenations differ).
    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for &x in b {
            self.word(u64::from(x));
        }
    }

    /// Mixes a frame buffer's size and the exact bits of every channel.
    pub fn frame(&mut self, fb: &gbu_render::FrameBuffer) {
        self.word(u64::from(fb.width()) << 32 | u64::from(fb.height()));
        for p in fb.pixels() {
            self.word(u64::from(p.x.to_bits()) << 32 | u64::from(p.y.to_bits()));
            self.word(u64::from(p.z.to_bits()));
        }
    }

    /// Mixes the exact bit pattern of a float.
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    /// Hex rendering of the current state.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of one frame buffer: equal exactly when the frames are
/// bit-identical (up to a 64-bit hash collision).
pub fn frame_hash(fb: &gbu_render::FrameBuffer) -> String {
    let mut d = Digest::default();
    d.frame(fb);
    d.hex()
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so equal seeds build equal inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50), 5.0);
        assert_eq!(nearest_rank(&v, 51), 6.0);
        assert_eq!(nearest_rank(&v, 90), 9.0);
        assert_eq!(nearest_rank(&v, 100), 10.0);
        assert_eq!(nearest_rank(&v, 1), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 200 samples: p95 has exactly 10 above it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 95), Pct { q: 95, value: 190.0, n: 200 });
        // 160 samples: p95 would leave 8 beyond; p93 leaves 11.
        let v: Vec<f64> = (1..=160).map(f64::from).collect();
        let p = tail(&v, 95);
        assert_eq!(p.q, 93);
        assert!(v.len() - rank(v.len(), p.q) >= TAIL_SAMPLES_BEYOND);
        assert!(v.len() - rank(v.len(), p.q + 1) < TAIL_SAMPLES_BEYOND);
        // p99 of 2000 samples stands as asked.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 99).q, 99);
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(tail(&v, 95), Pct { q: 50, value: 3.0, n: 5 });
    }

    #[test]
    fn tail_is_order_independent() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from((i * 7919) % 300)).collect();
        let a = tail(&v, 95);
        v.reverse();
        assert_eq!(a, tail(&v, 95));
    }

    #[test]
    fn quiet_keeps_the_fastest_rounds() {
        // Rounds 0..10 with medians 10, 20, ..., 100 (round 3 is fastest).
        let mut ops = Vec::new();
        for r in 0..10usize {
            let base = if r == 3 { 5.0 } else { 10.0 * (r + 1) as f64 };
            ops.extend([(r, base), (r, base + 1.0), (r, base - 1.0)]);
        }
        let keep = quiet(&ops, 0.3);
        let kept: Vec<usize> =
            ops.iter().zip(&keep).filter(|(_, k)| **k).map(|(o, _)| o.0).collect();
        assert_eq!(kept, vec![0, 0, 0, 1, 1, 1, 3, 3, 3]);
        // At least one round survives, and nothing is kept of nothing.
        assert_eq!(quiet(&[(0, 1.0)], 0.01), vec![true]);
        assert!(quiet(&[], 0.3).is_empty());
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geo_mean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geo_mean(&[]).is_nan());
        assert!(geo_mean(&[1.0, 0.0]).is_nan());
        assert!(geo_mean(&[1.0, -2.0]).is_nan());
    }

    #[test]
    fn digest_distinguishes_float_bits() {
        let mut a = Digest::default();
        a.f64(0.0);
        let mut b = Digest::default();
        b.f64(-0.0);
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn rng_is_seeded_and_stream_separated() {
        let take = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 1), take(7, 1));
        assert_ne!(take(7, 1), take(8, 1));
        assert_ne!(take(7, 1), take(7, 2));
        let mut r = Rng::new(3, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }
}
