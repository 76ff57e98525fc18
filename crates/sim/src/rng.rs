//! Deterministic, named random-number streams and the paper's distributions.
//!
//! Every stochastic component of the simulation (arrival process, batch
//! sizes, job sizes, profiling noise) draws from its *own* stream, derived
//! from the experiment seed plus a stream name. This keeps results
//! bit-reproducible even when unrelated components change how many numbers
//! they draw — the standard "common random numbers" discipline for
//! variance-controlled policy comparisons.
//!
//! Distributions are implemented from first principles (Box–Muller for the
//! normal, inverse CDF for the exponential) rather than pulling in
//! `rand_distr`, keeping the approved-dependency footprint minimal and the
//! determinism auditable.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 step — the canonical seed-expansion mixer. Used to derive
/// well-separated per-stream seeds from `(experiment_seed, stream_name)`.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string; stable across platforms and Rust versions
/// (unlike `DefaultHasher`, whose algorithm is unspecified).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derives a 32-byte seed for a named stream of a given experiment seed and
/// repetition index.
pub fn derive_seed(experiment_seed: u64, repetition: u64, stream: &str) -> [u8; 32] {
    let mut state = experiment_seed
        ^ fnv1a(stream.as_bytes()).rotate_left(17)
        ^ repetition.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut out = [0u8; 32];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    out
}

/// A deterministic random stream with the distributions the paper needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a stream for `(experiment_seed, repetition, stream_name)`.
    pub fn named(experiment_seed: u64, repetition: u64, stream: &str) -> Self {
        SimRng { inner: StdRng::from_seed(derive_seed(experiment_seed, repetition, stream)) }
    }

    /// Creates a stream directly from a 64-bit seed (tests, examples).
    pub fn from_seed_u64(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi > lo, "uniform requires hi > lo");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi >= lo);
        self.inner.gen_range(lo..=hi)
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    ///
    /// Used for the paper's job inter-arrival intervals ("mean job
    /// inter-arrival interval 2.0 … 3.0 TUs").
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // 1 - U in (0,1] avoids ln(0).
        let u = 1.0 - self.uniform01();
        -mean * u.ln()
    }

    /// Standard normal draw via Box–Muller (one of the pair is discarded;
    /// the simulation draws few normals so simplicity beats caching).
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.uniform01();
        let u2 = self.uniform01();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with given mean and *variance* (the paper specifies
    /// "jobs per arrival variance 2", "job size variance 1").
    pub fn normal(&mut self, mean: f64, variance: f64) -> f64 {
        assert!(variance >= 0.0, "variance must be non-negative");
        mean + variance.sqrt() * self.standard_normal()
    }

    /// Normal draw truncated below at `floor` by resampling (fast here
    /// because the paper's floors sit ≥ 2σ below the mean).
    pub fn truncated_normal(&mut self, mean: f64, variance: f64, floor: f64) -> f64 {
        assert!(
            floor < mean,
            "truncation floor must be below the mean for resampling to terminate quickly"
        );
        loop {
            let x = self.normal(mean, variance);
            if x >= floor {
                return x;
            }
        }
    }

    /// Rounded, truncated normal for count-valued draws such as "mean jobs
    /// per arrival event 3, variance 2" — always at least `min`.
    pub fn count_normal(&mut self, mean: f64, variance: f64, min: u64) -> u64 {
        let x = self.normal(mean, variance).round();
        if x < min as f64 {
            min
        } else {
            x as u64
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// A factory handing out named streams for one `(experiment, repetition)`.
#[derive(Debug, Clone, Copy)]
pub struct RngHub {
    experiment_seed: u64,
    repetition: u64,
}

impl RngHub {
    /// Creates a hub for one repetition of one experiment.
    pub fn new(experiment_seed: u64, repetition: u64) -> Self {
        RngHub { experiment_seed, repetition }
    }

    /// A named stream; the same name always yields the same stream.
    pub fn stream(&self, name: &str) -> SimRng {
        SimRng::named(self.experiment_seed, self.repetition, name)
    }

    /// The repetition index this hub serves.
    pub fn repetition(&self) -> u64 {
        self.repetition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_stream() {
        let hub = RngHub::new(42, 0);
        let a: Vec<u64> = {
            let mut r = hub.stream("arrivals");
            (0..10).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = hub.stream("arrivals");
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_different_streams() {
        let hub = RngHub::new(42, 0);
        let a = hub.stream("arrivals").next_u64();
        let b = hub.stream("sizes").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_repetitions_differ() {
        let a = RngHub::new(42, 0).stream("x").next_u64();
        let b = RngHub::new(42, 1).stream("x").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::from_seed_u64(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(2.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.5).abs() < 0.03, "empirical mean {mean}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut r = SimRng::from_seed_u64(8);
        assert!((0..10_000).all(|_| r.exponential(0.1) >= 0.0));
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::from_seed_u64(9);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 1.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn truncated_normal_respects_floor() {
        let mut r = SimRng::from_seed_u64(10);
        assert!((0..20_000).all(|_| r.truncated_normal(5.0, 1.0, 0.5) >= 0.5));
    }

    #[test]
    fn count_normal_has_min() {
        let mut r = SimRng::from_seed_u64(11);
        // Paper: mean 3, variance 2 jobs per arrival event; at least 1.
        let counts: Vec<u64> = (0..50_000).map(|_| r.count_normal(3.0, 2.0, 1)).collect();
        assert!(counts.iter().all(|&c| c >= 1));
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn derive_seed_is_stable() {
        // Pin the derivation so refactors cannot silently change every
        // experiment in the repo.
        let s1 = derive_seed(1, 0, "arrivals");
        let s2 = derive_seed(1, 0, "arrivals");
        assert_eq!(s1, s2);
        assert_ne!(derive_seed(1, 0, "a"), derive_seed(1, 0, "b"));
        assert_ne!(derive_seed(1, 0, "a"), derive_seed(2, 0, "a"));
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::from_seed_u64(13);
        for _ in 0..10_000 {
            let x = r.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let i = r.uniform_usize(4, 6);
            assert!((4..=6).contains(&i));
        }
    }
}
