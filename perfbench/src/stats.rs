//! Small numeric helpers: order statistics, a seeded generator and a
//! content digest. Kept dependency-free so the benchmark's own arithmetic
//! never depends on code it measures.

/// Median of `values` (mean of the middle pair for even counts); `0.0` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`: the smallest sample
/// with at least `p`% of the samples at or below it. With fewer than
/// `100 / (100 - p)` samples this is the maximum.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly above `threshold`.
pub fn count_above(values: &[f64], threshold: f64) -> usize {
    values.iter().filter(|v| **v > threshold).count()
}

/// SplitMix64: a tiny, well-mixed, fully deterministic generator. The
/// benchmark derives every input from it so one seed gives one input set.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// connection, so connection streams do not depend on interleaving).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// An incremental 64-bit content digest (word-wise multiply-rotate mix).
/// Not cryptographic: it only has to make two different byte streams
/// disagree, and it has to be fast enough to hash ~90 MB of exports per
/// checked run.
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
    len: u64,
    tail: Vec<u8>,
}

impl Default for Digest {
    fn default() -> Self {
        Digest { state: 0xcbf2_9ce4_8422_2325, len: 0, tail: Vec::new() }
    }
}

impl Digest {
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(23) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    /// Feed bytes.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if !self.tail.is_empty() {
            let need = 8 - self.tail.len();
            let take = need.min(bytes.len());
            self.tail.extend_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if self.tail.len() < 8 {
                return;
            }
            let word = u64::from_le_bytes(self.tail[..8].try_into().expect("eight bytes"));
            self.mix(word);
            self.tail.clear();
        }
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        }
        self.tail.extend_from_slice(words.remainder());
    }

    /// Feed one integer.
    pub fn update_u64(&mut self, value: u64) {
        self.update(&value.to_le_bytes());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut copy = self.clone();
        let mut last = [0u8; 8];
        last[..copy.tail.len()].copy_from_slice(&copy.tail);
        copy.mix(u64::from_le_bytes(last));
        copy.mix(copy.len);
        copy.state ^ (copy.state >> 29)
    }
}

/// Digest of `bytes` after the first newline. Sweep JSON exports open with
/// a stats header that carries wall-clock and cache fields, which differ
/// between runs by design; the records that follow must not.
pub fn digest_after_first_line(bytes: &[u8]) -> u64 {
    let body = bytes.iter().position(|b| *b == b'\n').map_or(bytes, |i| &bytes[i + 1..]);
    let mut digest = Digest::default();
    digest.update(body);
    digest.finish()
}

/// Digest of a whole byte string.
pub fn digest_all(bytes: &[u8]) -> u64 {
    let mut digest = Digest::default();
    digest.update(bytes);
    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_nearest_rank() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 100.0);
        assert_eq!(percentile(&values, 99.0), 198.0);
        assert_eq!(count_above(&values, percentile(&values, 99.0)), 2);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0], 99.0), 5.0);
    }

    #[test]
    fn digest_is_chunking_independent_and_content_sensitive() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut split = Digest::default();
        split.update(&data[..3]);
        split.update(&data[3..517]);
        split.update(&data[517..]);
        assert_eq!(split.finish(), digest_all(&data));
        let mut flipped = data.clone();
        flipped[500] ^= 1;
        assert_ne!(digest_all(&flipped), digest_all(&data));
        assert_eq!(
            digest_after_first_line(b"header 1\nbody"),
            digest_after_first_line(b"h2\nbody")
        );
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(8, 0).next_u64());
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
        let mut rng = Rng::new(1, 2);
        assert!((0..1000).all(|_| rng.below(10) < 10));
    }
}
