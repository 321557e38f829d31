//! Statistical primitives for the DStress framework.
//!
//! This crate collects the mathematics the paper leans on:
//!
//! * [`similarity`] — the Sokal & Michener simple-matching function used as the
//!   GA convergence criterion for binary chromosomes (paper §III-E, Eq. 2 and
//!   Table I) and the weighted Jaccard similarity used for integer/real
//!   chromosomes (Eq. 3).
//! * [`descriptive`] — running moments (mean, variance, skewness, kurtosis).
//! * [`normal`] — the normal distribution (CDF, tails, quantiles, fitting),
//!   used to estimate the probability that a better pattern than the one
//!   discovered by the GA exists (paper §V-A.5, Fig. 13).
//! * [`dagostino`] — the D'Agostino–Pearson K² omnibus normality test the
//!   paper applies to the random-pattern CE distribution.
//! * [`histogram`] — fixed-width histograms for rendering the Fig. 13 PDFs.
//!
//! # Examples
//!
//! ```
//! use dstress_stats::similarity::sokal_michener;
//!
//! let a = [true, true, false, false];
//! let b = [true, false, false, false];
//! // 3 of 4 features match.
//! assert!((sokal_michener(&a, &b) - 0.75).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod dagostino;
pub mod descriptive;
pub mod histogram;
pub mod normal;
pub mod similarity;

pub use bootstrap::{bootstrap_ci, ConfidenceInterval};
pub use dagostino::{dagostino_pearson, DagostinoPearson};
pub use descriptive::Moments;
pub use histogram::Histogram;
pub use normal::Normal;
pub use similarity::{mean_pairwise, sokal_michener, weighted_jaccard, Otu};
