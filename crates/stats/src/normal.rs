//! The normal (Gaussian) distribution.
//!
//! The paper fits a Gaussian to the distribution of CE counts manifested by
//! randomized data patterns and uses its upper tail to estimate the
//! probability that a pattern better than the GA-discovered one exists
//! (§V-A.5, Fig. 13). This module provides the CDF, upper tail, quantile
//! function and a moment fit, with `erfc` implemented from scratch (no
//! external math crates are available offline).

use crate::descriptive::Moments;
use serde::{Deserialize, Serialize};

/// A normal distribution `N(mean, std_dev²)`.
///
/// # Examples
///
/// ```
/// use dstress_stats::Normal;
///
/// let n = Normal::new(0.0, 1.0)?;
/// assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!((n.cdf(1.96) - 0.975).abs() < 1e-4);
/// # Ok::<(), dstress_stats::normal::NormalError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

/// Error constructing a [`Normal`] distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalError {
    /// The standard deviation was zero, negative, NaN or infinite.
    InvalidStdDev,
    /// The mean was NaN or infinite.
    InvalidMean,
    /// A fit was requested over fewer than two observations.
    NotEnoughData,
}

impl std::fmt::Display for NormalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NormalError::InvalidStdDev => {
                write!(f, "standard deviation must be finite and positive")
            }
            NormalError::InvalidMean => write!(f, "mean must be finite"),
            NormalError::NotEnoughData => {
                write!(f, "fitting a normal requires at least two observations")
            }
        }
    }
}

impl std::error::Error for NormalError {}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`NormalError::InvalidStdDev`] unless `std_dev` is finite and
    /// strictly positive, and [`NormalError::InvalidMean`] unless `mean` is
    /// finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, NormalError> {
        if !mean.is_finite() {
            return Err(NormalError::InvalidMean);
        }
        if !std_dev.is_finite() || std_dev <= 0.0 {
            return Err(NormalError::InvalidStdDev);
        }
        Ok(Normal { mean, std_dev })
    }

    /// Fits by moments from accumulated observations (sample variance).
    ///
    /// # Errors
    ///
    /// Returns [`NormalError::NotEnoughData`] for fewer than two observations
    /// and [`NormalError::InvalidStdDev`] for degenerate (zero-variance) data.
    pub fn fit(moments: &Moments) -> Result<Self, NormalError> {
        if moments.count() < 2 {
            return Err(NormalError::NotEnoughData);
        }
        Normal::new(moments.mean(), moments.sample_std_dev())
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Cumulative distribution function `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * erfc(-z)
    }

    /// Upper-tail probability `P(X > x)`, computed via `erfc` so extreme
    /// tails (the paper's `4e-7`) keep full relative precision.
    pub fn sf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.std_dev * std::f64::consts::SQRT_2);
        0.5 * erfc(z)
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)` with good
/// relative accuracy in the far tail (needed for probabilities like `4e-7`).
pub fn erfc(x: f64) -> f64 {
    // Adapted from the classic continued-fraction/series split:
    // series for |x| < 2.0, Laplace continued fraction for the tail.
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 2.0 {
        1.0 - erf_series(x)
    } else {
        erfc_cf(x)
    }
}

/// Maclaurin series for erf, accurate for small |x|.
fn erf_series(x: f64) -> f64 {
    // erf(x) = 2/sqrt(pi) * sum_{n>=0} (-1)^n x^(2n+1) / (n! (2n+1))
    let mut term = x;
    let mut sum = x;
    let x2 = x * x;
    let mut n = 0u32;
    while term.abs() > 1e-17 * sum.abs() + 1e-300 {
        n += 1;
        term *= -x2 / n as f64;
        sum += term / (2 * n + 1) as f64;
        if n > 200 {
            break;
        }
    }
    sum * 2.0 / std::f64::consts::PI.sqrt()
}

/// Laplace continued fraction for erfc, accurate for x >= 2.
fn erfc_cf(x: f64) -> f64 {
    // erfc(x) = exp(-x^2)/(x*sqrt(pi)) * 1/(1 + 1/(2x^2 + 2/(1 + 3/(2x^2 + ...))))
    // Evaluate with the modified Lentz algorithm.
    let x2 = x * x;
    let mut f = x;
    let mut c = f;
    let mut d = 0.0;
    let mut numer_k = 0.5;
    // a_1 = x; subsequent: b alternates between x and adding k/ (2...) — use
    // the standard form erfc(x) = exp(-x²)/√π * K where
    // K = 1/(x + 1/2/(x + 1/(x + 3/2/(x + 2/(x + ...)))))
    for _ in 0..200 {
        let a = numer_k;
        let b = x;
        d = b + a * d;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = b + a / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
        numer_k += 0.5;
    }
    // Now f approximates the continued fraction denominator chain starting
    // from x; erfc = exp(-x²)/√π / f.
    (-x2).exp() / (std::f64::consts::PI.sqrt() * f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert!(Normal::new(0.0, 1.0).is_ok());
        assert_eq!(
            Normal::new(0.0, 0.0).unwrap_err(),
            NormalError::InvalidStdDev
        );
        assert_eq!(
            Normal::new(0.0, -1.0).unwrap_err(),
            NormalError::InvalidStdDev
        );
        assert_eq!(
            Normal::new(f64::NAN, 1.0).unwrap_err(),
            NormalError::InvalidMean
        );
    }

    #[test]
    fn erf_known_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
        ];
        for (x, want) in cases {
            let got = 1.0 - erfc(x);
            assert!((got - want).abs() < 1e-9, "erf({x}) = {got}, want {want}");
            assert!(
                (1.0 - erfc(-x) + want).abs() < 1e-9,
                "erf(-{x}) should be odd"
            );
        }
    }

    #[test]
    fn erfc_deep_tail_has_relative_accuracy() {
        // erfc(5) = 1.5374597944280348e-12 (reference).
        let got = erfc(5.0);
        let want = 1.5374597944280348e-12;
        assert!(((got - want) / want).abs() < 1e-8, "erfc(5) = {got:e}");
    }

    #[test]
    fn standard_normal_cdf_values() {
        let n = Normal::new(0.0, 1.0).unwrap();
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.0) - 0.8413447460685429).abs() < 1e-9);
        assert!((n.cdf(-1.0) - 0.15865525393145707).abs() < 1e-9);
        assert!((n.cdf(2.326347874040841) - 0.99).abs() < 1e-9);
    }

    #[test]
    fn sf_matches_one_minus_cdf_in_bulk_and_beats_it_in_tail() {
        let n = Normal::new(100.0, 15.0).unwrap();
        assert!((n.sf(110.0) - (1.0 - n.cdf(110.0))).abs() < 1e-12);
        // Deep tail: sf stays positive where 1-cdf would round to ~0.
        let tail = n.sf(100.0 + 8.0 * 15.0);
        assert!(tail > 0.0 && tail < 1e-14);
    }

    #[test]
    fn fit_recovers_moments() {
        let data = [1.0f64, 2.0, 3.0, 4.0, 5.0];
        let m: Moments = data.iter().copied().collect();
        let n = Normal::fit(&m).unwrap();
        assert!((n.mean() - 3.0).abs() < 1e-12);
        assert!((n.std_dev() - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn fit_rejects_degenerate_data() {
        let mut m = Moments::new();
        m.push(1.0);
        assert_eq!(Normal::fit(&m).unwrap_err(), NormalError::NotEnoughData);
        m.push(1.0);
        assert_eq!(Normal::fit(&m).unwrap_err(), NormalError::InvalidStdDev);
    }

    proptest! {
        #[test]
        fn cdf_is_monotone(mean in -100.0f64..100.0, sd in 0.1f64..50.0,
                           a in -500.0f64..500.0, b in -500.0f64..500.0) {
            let n = Normal::new(mean, sd).unwrap();
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(n.cdf(lo) <= n.cdf(hi) + 1e-12);
        }

        #[test]
        fn cdf_plus_sf_is_one(x in -50.0f64..50.0) {
            let n = Normal::new(0.0, 1.0).unwrap();
            prop_assert!((n.cdf(x) + n.sf(x) - 1.0).abs() < 1e-10);
        }
    }
}
