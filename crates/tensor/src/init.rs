//! Seeded pseudo-random number generation and tensor initialisers.
//!
//! The whole workspace draws randomness through [`Rng64`], a small
//! xoshiro256** generator seeded via SplitMix64. Keeping the generator
//! in-crate (rather than depending on `rand`'s evolving API) guarantees
//! bit-identical experiment runs across toolchain updates, which the
//! EXPERIMENTS.md records rely on.

use crate::tensor::Tensor;

/// Deterministic 64-bit PRNG (xoshiro256** seeded with SplitMix64).
///
/// Not cryptographically secure; statistically excellent for simulation.
#[derive(Debug, Clone)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Rng64 {
            s: [next(), next(), next(), next()],
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; used to give each component
    /// of an experiment its own stream.
    pub fn fork(&mut self) -> Rng64 {
        Rng64::new(self.next_u64())
    }

    /// Serialisable snapshot of the generator: the four xoshiro words plus
    /// the cached Box–Muller spare. Restoring it with [`Rng64::from_state`]
    /// continues the stream bit-identically — the hook training
    /// checkpoints use to resume a run mid-schedule.
    pub fn state(&self) -> ([u64; 4], Option<f64>) {
        (self.s, self.spare_normal)
    }

    /// Rebuilds a generator from a [`Rng64::state`] snapshot.
    pub fn from_state(s: [u64; 4], spare_normal: Option<f64>) -> Rng64 {
        Rng64 { s, spare_normal }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform_f32(&mut self) -> f32 {
        self.uniform() as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo <= hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform_f32()
    }

    /// Uniform `usize` in `[0, n)`. Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Multiply-shift; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Rejection-free polar-less form; u1 is bounded away from 0.
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation, as `f32`.
    pub fn normal_f32(&mut self, mean: f32, std: f32) -> f32 {
        (mean as f64 + std as f64 * self.normal()) as f32
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.below(slice.len())]
    }

    /// Index drawn according to non-negative weights (need not be
    /// normalised). Panics when all weights are zero or the slice is empty.
    pub fn weighted_choice(&mut self, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weighted_choice needs positive finite total weight"
        );
        let mut target = self.uniform_f32() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight");
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

/// Tensor with elements drawn uniformly from `[lo, hi)`.
pub fn uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng64) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.range_f32(lo, hi)).collect(), dims)
}

/// Tensor with elements drawn from `N(mean, std²)`.
pub fn normal(dims: &[usize], mean: f32, std: f32, rng: &mut Rng64) -> Tensor {
    let n: usize = dims.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.normal_f32(mean, std)).collect(), dims)
}

/// Kaiming-uniform initialisation: `U(-b, b)` with `b = sqrt(6 / fan_in)`,
/// the standard initialiser for ReLU networks.
pub fn kaiming_uniform(dims: &[usize], fan_in: usize, rng: &mut Rng64) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = (6.0 / fan_in as f32).sqrt();
    uniform(dims, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_and_independence() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = Rng64::new(43);
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(xs, zs);
    }

    #[test]
    fn state_roundtrip_continues_the_stream_bit_identically() {
        // Advance through a mix of draw kinds, snapshot mid-stream (with a
        // Box–Muller spare cached), and check the restored generator and
        // the original emit identical futures.
        let mut rng = Rng64::new(99);
        for _ in 0..17 {
            let _ = rng.next_u64();
        }
        let _ = rng.normal(); // leaves a spare cached
        let (words, spare) = rng.state();
        assert!(spare.is_some(), "normal() must cache its pair");
        let mut restored = Rng64::from_state(words, spare);
        for _ in 0..8 {
            assert_eq!(rng.normal().to_bits(), restored.normal().to_bits());
            assert_eq!(rng.next_u64(), restored.next_u64());
        }
        // A snapshot with no spare also round-trips.
        let (words, spare) = rng.state();
        let mut again = Rng64::from_state(words, spare);
        let mut v: Vec<usize> = (0..20).collect();
        let mut w = v.clone();
        rng.shuffle(&mut v);
        again.shuffle(&mut w);
        assert_eq!(v, w);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut rng = Rng64::new(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::new(11);
        let n = 40_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal();
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal var {var}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng64::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::new(5);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = Rng64::new(13);
        let w = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[rng.weighted_choice(&w)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn kaiming_bound() {
        let mut rng = Rng64::new(1);
        let t = kaiming_uniform(&[100, 64], 64, &mut rng);
        let b = (6.0f32 / 64.0).sqrt();
        assert!(t.max() <= b && t.min() >= -b);
        assert!(t.max() > 0.5 * b, "suspiciously narrow init");
    }

    #[test]
    fn fork_streams_differ() {
        let mut rng = Rng64::new(2);
        let mut a = rng.fork();
        let mut b = rng.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
