//! Seeded input generation: SplitMix64 streams keyed by (seed, purpose,
//! iteration), so the same seed always yields the same inputs no matter how
//! many iterations a run manages to measure.

/// A SplitMix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The stream for `purpose` in iteration `iter` of a run seeded `seed`.
    pub fn stream(seed: u64, purpose: u64, iter: u64) -> Rng {
        let mut rng = Rng {
            state: seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F),
        };
        rng.state ^= rng.next_u64() ^ iter.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform `f32` in `[-1, 1)`.
    pub fn signed_f32(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }

    /// An integer-valued `f32` in `[-4, 4]`. Sums of up to millions of
    /// these stay far below 2^24, so reductions and scans over them are
    /// exact in any association order and a host reference can be compared
    /// bit for bit.
    pub fn small_int_f32(&mut self) -> f32 {
        self.below(9) as f32 - 4.0
    }

    /// A Poisson-distributed count with the given mean (Knuth's method;
    /// fine for the small means used here).
    pub fn poisson(&mut self, mean: f64) -> usize {
        let limit = (-mean).exp();
        let mut product = self.unit();
        let mut count = 0;
        while product > limit {
            product *= self.unit();
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1, 3).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(7, 1, 3).next_u64(),
            Rng::stream(7, 1, 4).next_u64()
        );
        assert_ne!(
            Rng::stream(7, 1, 3).next_u64(),
            Rng::stream(8, 1, 3).next_u64()
        );
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut rng = Rng::stream(1, 2, 3);
        let n = 4000;
        let total: usize = (0..n).map(|_| rng.poisson(48.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 48.0).abs() < 1.0, "mean {mean}");
    }
}
