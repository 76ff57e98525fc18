//! Least-squares fits recovering the paper's performance models.
//!
//! §III-A.1: "we profiled GATK performance under different hardware
//! configurations and with different inputs … total execution time linearly
//! increases with the input file size". §IV-1: "The values of a_i, b_i and
//! c_i were determined for each pipeline stage by linear regression of
//! offline profiling data."
//!
//! Two fits are needed:
//!
//! * [`linear_fit`] — ordinary least squares `y = a·x + b` over
//!   `(input size, single-threaded time)` pairs, recovering `a_i, b_i`.
//! * [`amdahl_fit`] — the paper's threading model
//!   `T(t) = E·c/t + E·(1−c)` is linear in `1/t`, so OLS over
//!   `(1/t, time)` recovers `α = E·c` (slope) and `β = E·(1−c)`
//!   (intercept), giving `c = α / (α + β)` and `E = α + β`.

/// Result of an ordinary least-squares line fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 when all variance in y
    /// is explained; 1 for a perfect fit on non-degenerate data).
    pub r_squared: f64,
    /// Number of points used.
    pub n: usize,
}

impl LinearFit {
    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least squares over `(x, y)` pairs.
///
/// Returns `None` with fewer than two points or zero variance in `x`
/// (a vertical line has no OLS solution).
pub fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / nf;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0 // y is constant; the flat line explains everything.
    } else {
        (sxy * sxy / (sxx * syy)).clamp(0.0, 1.0)
    };
    Some(LinearFit { slope, intercept, r_squared, n })
}

/// Result of an Amdahl's-law fit of the paper's threading model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmdahlFit {
    /// The parallelisable fraction `c ∈ [0, 1]`.
    pub c: f64,
    /// The single-threaded execution time `E` implied by the fit.
    pub single_thread_time: f64,
    /// Goodness of the underlying linear fit in `1/t`.
    pub r_squared: f64,
    /// Number of points used.
    pub n: usize,
}

impl AmdahlFit {
    /// The threading model implied by an OLS line over `(1/t, time)`
    /// points: [`amdahl_fit`] for callers that already hold the
    /// transformed points. `None` if the implied `E` is not positive and
    /// finite.
    pub fn from_line(fit: &LinearFit) -> Option<AmdahlFit> {
        let alpha = fit.slope; // E·c
        let beta = fit.intercept; // E·(1−c)
        let e = alpha + beta;
        if !(e.is_finite() && e > 0.0) {
            return None;
        }
        let c = (alpha / e).clamp(0.0, 1.0);
        Some(AmdahlFit { c, single_thread_time: e, r_squared: fit.r_squared, n: fit.n })
    }

    /// Predicted execution time with `t` threads.
    pub fn predict(&self, threads: u32) -> f64 {
        assert!(threads >= 1);
        let e = self.single_thread_time;
        self.c * e / threads as f64 + (1.0 - self.c) * e
    }

    /// Maximum speedup achievable with unbounded threads: `1 / (1 − c)`.
    pub fn max_speedup(&self) -> f64 {
        if self.c >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - self.c)
        }
    }
}

/// Fits the paper's threading model to `(threads, time)` observations at a
/// fixed input size. Returns `None` when fewer than two distinct thread
/// counts are present or the fit degenerates (negative `E`).
///
/// The recovered `c` is clamped to `[0, 1]`: measurement noise can push the
/// raw estimate slightly outside, and downstream consumers (the scheduler's
/// plan optimiser) require a valid Amdahl fraction.
pub fn amdahl_fit(points: &[(u32, f64)]) -> Option<AmdahlFit> {
    let mut transformed: Vec<(f64, f64)> = Vec::with_capacity(points.len());
    transformed.extend(points.iter().filter(|p| p.0 >= 1).map(|&(t, y)| (1.0 / t as f64, y)));
    AmdahlFit::from_line(&linear_fit(&transformed)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 2.7 * i as f64 - 0.53)).collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 2.7).abs() < 1e-12);
        assert!((fit.intercept + 0.53).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_recovered_approximately() {
        // Deterministic pseudo-noise.
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64 / 10.0;
                let noise = ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5) * 0.2;
                (x, 1.03 * x + 17.86 + noise)
            })
            .collect();
        let fit = linear_fit(&pts).unwrap();
        assert!((fit.slope - 1.03).abs() < 0.02, "slope {}", fit.slope);
        assert!((fit.intercept - 17.86).abs() < 0.1, "intercept {}", fit.intercept);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[(1.0, 2.0)]).is_none());
        assert!(linear_fit(&[(3.0, 1.0), (3.0, 2.0)]).is_none(), "vertical line");
    }

    #[test]
    fn constant_y_has_r2_one() {
        let fit = linear_fit(&[(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn amdahl_recovers_paper_stage_5() {
        // Stage 5 of Table II: c = 0.91. Take E(d)=23.01 at d=5.
        let e = 23.01;
        let c = 0.91;
        let pts: Vec<(u32, f64)> =
            [1u32, 2, 4, 8, 16].iter().map(|&t| (t, c * e / t as f64 + (1.0 - c) * e)).collect();
        let fit = amdahl_fit(&pts).unwrap();
        assert!((fit.c - 0.91).abs() < 1e-9, "c {}", fit.c);
        assert!((fit.single_thread_time - e).abs() < 1e-9);
        assert!((fit.predict(8) - (c * e / 8.0 + (1.0 - c) * e)).abs() < 1e-9);
        assert!((fit.max_speedup() - 1.0 / 0.09).abs() < 1e-6);
    }

    #[test]
    fn amdahl_serial_stage() {
        // Stage 7: c = 0.02 — nearly flat in thread count.
        let e = 5.15;
        let pts: Vec<(u32, f64)> =
            [1u32, 2, 4, 8].iter().map(|&t| (t, 0.02 * e / t as f64 + 0.98 * e)).collect();
        let fit = amdahl_fit(&pts).unwrap();
        assert!((fit.c - 0.02).abs() < 1e-9);
        assert!(fit.max_speedup() < 1.03);
    }

    #[test]
    fn amdahl_clamps_noisy_c() {
        // Superlinear-looking noise: raw c estimate would exceed 1.
        let pts = [(1u32, 10.0), (2u32, 4.0), (4u32, 1.0)];
        let fit = amdahl_fit(&pts).unwrap();
        assert!((0.0..=1.0).contains(&fit.c));
    }

    #[test]
    fn amdahl_degenerate_rejected() {
        assert!(amdahl_fit(&[]).is_none());
        assert!(amdahl_fit(&[(4, 2.0)]).is_none());
        assert!(amdahl_fit(&[(2, 1.0), (2, 1.1)]).is_none());
        // Zero threads filtered out, leaving one point.
        assert!(amdahl_fit(&[(0, 1.0), (2, 1.1)]).is_none());
    }

    proptest! {
        /// OLS on exact lines recovers the coefficients for any slope and
        /// intercept, regardless of sample positions.
        #[test]
        fn prop_exact_line(
            a in -100.0f64..100.0,
            b in -100.0f64..100.0,
            xs in proptest::collection::btree_set(-1000i32..1000, 2..40),
        ) {
            let pts: Vec<(f64, f64)> = xs.iter().map(|&x| (x as f64, a * x as f64 + b)).collect();
            let fit = linear_fit(&pts).unwrap();
            prop_assert!((fit.slope - a).abs() < 1e-6 * a.abs().max(1.0));
            prop_assert!((fit.intercept - b).abs() < 1e-5 * b.abs().max(1.0));
        }

        /// The Amdahl fit round-trips any valid (E, c) pair.
        #[test]
        fn prop_amdahl_roundtrip(e in 0.1f64..1000.0, c in 0.0f64..1.0) {
            let pts: Vec<(u32, f64)> = [1u32, 2, 3, 4, 8, 16]
                .iter()
                .map(|&t| (t, c * e / t as f64 + (1.0 - c) * e))
                .collect();
            let fit = amdahl_fit(&pts).unwrap();
            prop_assert!((fit.c - c).abs() < 1e-6, "c: {} vs {}", fit.c, c);
            prop_assert!((fit.single_thread_time - e).abs() < 1e-6 * e.max(1.0));
        }
    }
}
