//! Deterministic, named random-number streams and the paper's distributions.
//!
//! Every stochastic component of the simulation (arrival process, batch
//! sizes, job sizes, profiling noise) draws from its *own* stream, derived
//! from the experiment seed plus a stream name. This keeps results
//! bit-reproducible even when unrelated components change how many numbers
//! they draw — the standard "common random numbers" discipline for
//! variance-controlled policy comparisons.
//!
//! The generator is xoshiro256++ (Blackman & Vigna) over a `[u64; 4]`
//! state, seeded by SplitMix64 expansion; the one degenerate state, all
//! zeros, is replaced by the SplitMix64 expansion of 0. Every result of
//! the repository is a pure function of its seed through this one
//! implementation, so the generator is part of the model. A uniform
//! `f64` takes the top 53 bits of a word, `(x >> 11) · 2⁻⁵³`; an integer
//! in a range is the word modulo the range's width.
//!
//! Distributions are implemented from first principles (Marsaglia's polar
//! method for the normal, inverse CDF for the exponential), keeping the
//! determinism auditable. The polar method draws normals in pairs, so a
//! stream keeps the second of a pair as its *spare*; the spare is part of
//! the stream's state and travels with a clone.

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

/// Four successive SplitMix64 words from `state`.
fn splitmix64_words(mut state: u64) -> [u64; 4] {
    [(); 4].map(|()| splitmix64(&mut state))
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

/// Derives the generator state for a named stream of a given experiment
/// seed and repetition index.
fn derive_seed(experiment_seed: u64, repetition: u64, stream: &str) -> [u64; 4] {
    splitmix64_words(
        experiment_seed
            ^ fnv1a(stream.as_bytes()).rotate_left(17)
            ^ repetition.wrapping_mul(0xA076_1D64_78BD_642F),
    )
}

/// A deterministic random stream with the distributions the paper needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    /// The xoshiro256++ state.
    s: [u64; 4],
    /// The second normal of the last polar pair, returned by the next
    /// [`SimRng::standard_normal`] call.
    spare: Option<f64>,
}

impl SimRng {
    /// Creates a stream for `(experiment_seed, repetition, stream_name)`.
    pub fn named(experiment_seed: u64, repetition: u64, stream: &str) -> Self {
        Self::from_state(derive_seed(experiment_seed, repetition, stream))
    }

    /// Creates a stream directly from a 64-bit seed (tests, examples).
    pub fn from_seed_u64(seed: u64) -> Self {
        Self::from_state(splitmix64_words(seed))
    }

    /// A stream starting at state `s`. An all-zero state is the one
    /// degenerate state of the xoshiro family (it stays zero forever), so
    /// it becomes the SplitMix64 expansion of 0.
    fn from_state(s: [u64; 4]) -> Self {
        let s = if s == [0; 4] { splitmix64_words(0) } else { s };
        SimRng { s, spare: None }
    }

    /// The next 64 random bits (one xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` from the top 53 bits of one word.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi > lo, "uniform requires hi > lo");
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi >= lo);
        let span = (hi - lo) as u64;
        if span == u64::MAX {
            return self.next_u64() as usize;
        }
        lo + (self.next_u64() % (span + 1)) as usize
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    ///
    /// Used for the paper's job inter-arrival intervals ("mean job
    /// inter-arrival interval 2.0 … 3.0 TUs").
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // 1 - U in (0,1] avoids ln(0).
        let u = 1.0 - self.uniform01();
        -mean * u.ln()
    }

    /// Standard normal draw by Marsaglia's polar method. A uniform point
    /// `(u, v)` of `[−1, 1)²` is redrawn until `s = u² + v²` lies in
    /// `(0, 1)`; with `f = sqrt(−2·ln s / s)`, `u·f` and `v·f` are two
    /// independent normals for one `ln`, one `sqrt` and one division.
    /// This call returns `u·f` and keeps `v·f` as the spare, which the
    /// next call returns without drawing. Uniform draws in between leave
    /// the spare alone.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform01() - 1.0;
            let v = 2.0 * self.uniform01() - 1.0;
            let s = u * u + v * v;
            // Reject the origin (ln 0) and the points outside the disc.
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * f);
                return u * f;
            }
        }
    }

    /// Normal draw with given mean and *variance* (the paper specifies
    /// "jobs per arrival variance 2", "job size variance 1").
    #[inline]
    pub fn normal(&mut self, mean: f64, variance: f64) -> f64 {
        assert!(variance >= 0.0, "variance must be non-negative");
        mean + variance.sqrt() * self.standard_normal()
    }

    /// Normal draw truncated below at `floor` by resampling (fast here
    /// because the paper's floors sit ≥ 2σ below the mean).
    #[inline]
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
    #[inline]
    pub fn count_normal(&mut self, mean: f64, variance: f64, min: u64) -> u64 {
        let x = self.normal(mean, variance).round();
        if x < min as f64 {
            min
        } else {
            x as u64
        }
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

    /// The polar sampler's shape over 2^18 draws of one stream: the
    /// first, second and fourth moments, the mass within ±1σ and ±2σ,
    /// and the correlation between consecutive draws, which pairs each
    /// normal with its partner. Every tolerance is five standard errors
    /// at this sample size.
    #[test]
    fn polar_pairs_are_independent_standard_normals() {
        let mut r = SimRng::from_seed_u64(19);
        let n = 1usize << 18;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let nf = n as f64;
        let tol = |sd: f64| 5.0 * sd / nf.sqrt();
        let moment = |k: i32| xs.iter().map(|x| x.powi(k)).sum::<f64>() / nf;
        // Var x = 1, Var x² = E x⁴ − 1 = 2, Var x⁴ = E x⁸ − 9 = 96.
        let (m1, m2, m4) = (moment(1), moment(2), moment(4));
        assert!(m1.abs() < tol(1.0), "mean {m1}");
        assert!((m2 - 1.0).abs() < tol(2f64.sqrt()), "variance {m2}");
        assert!((m4 - 3.0).abs() < tol(96f64.sqrt()), "fourth moment {m4}");
        for (k, p) in [(1.0, 0.682_689_492_137_086), (2.0, 0.954_499_736_103_642)] {
            let share = xs.iter().filter(|x| x.abs() < k).count() as f64 / nf;
            assert!((share - p).abs() < tol((p * (1.0 - p)).sqrt()), "share within ±{k}σ {share}");
        }
        let lag1 = xs.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (nf - 1.0);
        assert!(lag1.abs() < tol(1.0), "lag-1 correlation {lag1}");
    }

    /// A clone taken between the two halves of a pair carries the spare:
    /// the clone returns it without drawing from the uniform stream, and
    /// then continues exactly like its original.
    #[test]
    fn a_clone_carries_the_spare() {
        let mut original = SimRng::from_seed_u64(23);
        original.standard_normal();
        let mut clone = original.clone();
        let mut probe = original.clone();
        probe.standard_normal();
        assert_eq!(probe.next_u64(), original.clone().next_u64(), "the spare costs no draw");
        let a: Vec<u64> = (0..1_000).map(|_| original.standard_normal().to_bits()).collect();
        let b: Vec<u64> = (0..1_000).map(|_| clone.standard_normal().to_bits()).collect();
        assert_eq!(a, b);
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

    /// Known answers: the first four words and the first uniform of the
    /// `from_seed_u64` path and of the named-stream path. Every fixed-seed
    /// golden in the workspace comes from these sequences, so a slip in
    /// the step, the seeding or the 53-bit construction fails here first.
    #[test]
    fn known_answers() {
        let cases = [
            (
                SimRng::from_seed_u64(0),
                [
                    0x5317_5d61_490b_23df,
                    0x61da_6f3d_c380_d507,
                    0x5c0f_df91_ec9a_7bfc,
                    0x02ee_bf8c_3bbe_5e1a,
                ],
                0x3fd4_c5d7_5852_42c8,
            ),
            (
                RngHub::new(1, 0).stream("arrival-timing"),
                [
                    0x0512_2cdf_2303_be34,
                    0xc22e_8fe3_affa_64a0,
                    0x2d6a_0b46_d1ee_838a,
                    0x3f92_e5ca_0b9e_77f1,
                ],
                0x3f94_48b3_7c8c_0ee0,
            ),
        ];
        for (rng, words, first_uniform) in cases {
            let mut r = rng.clone();
            assert_eq!([(); 4].map(|()| r.next_u64()), words);
            assert_eq!(rng.clone().uniform01().to_bits(), first_uniform);
        }
    }

    /// The all-zero state would stay zero forever; it starts from the
    /// SplitMix64 expansion of 0 instead, i.e. where seed 0 starts.
    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = SimRng::from_state([0; 4]);
        assert_ne!(r.next_u64(), 0);
        assert_eq!(SimRng::from_state([0; 4]).s, SimRng::from_seed_u64(0).s);
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
