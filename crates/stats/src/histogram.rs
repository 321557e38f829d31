//! Fixed-width histograms for rendering empirical PDFs (paper Fig. 13).

use serde::{Deserialize, Serialize};

/// A fixed-width histogram over a closed range `[lo, hi]`.
///
/// Used by the efficiency experiment (Fig. 13) to render the probability
/// density of CE counts under random data / access patterns.
///
/// # Examples
///
/// ```
/// use dstress_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5)?;
/// for x in [1.0, 1.5, 9.9, 5.0] {
///     h.add(x);
/// }
/// assert_eq!(h.counts()[0], 2); // 1.0 and 1.5 fall in [0,2)
/// assert_eq!(h.total(), 4);
/// # Ok::<(), dstress_stats::histogram::HistogramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    underflow: u64,
    overflow: u64,
}

/// Error constructing a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramError {
    /// `lo >= hi` or a bound was not finite.
    InvalidRange,
    /// Zero bins requested.
    NoBins,
}

impl std::fmt::Display for HistogramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistogramError::InvalidRange => {
                write!(f, "histogram range must be finite with lo < hi")
            }
            HistogramError::NoBins => write!(f, "histogram requires at least one bin"),
        }
    }
}

impl std::error::Error for HistogramError {}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`HistogramError::InvalidRange`] unless `lo < hi` and both are
    /// finite, and [`HistogramError::NoBins`] when `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, HistogramError> {
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(HistogramError::InvalidRange);
        }
        if bins == 0 {
            return Err(HistogramError::NoBins);
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            underflow: 0,
            overflow: 0,
        })
    }

    /// Builds a histogram spanning the data's own range.
    ///
    /// # Errors
    ///
    /// Propagates [`HistogramError::InvalidRange`] for empty or constant data.
    pub fn from_data(data: &[f64], bins: usize) -> Result<Self, HistogramError> {
        let lo = data.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Widen a hair so the max lands inside the top bin.
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        let mut h = Histogram::new(lo, hi + span * 1e-9, bins)?;
        for &x in data {
            h.add(x);
        }
        Ok(h)
    }

    /// Adds an observation. Values outside the range are tallied in the
    /// under/overflow counters, not in any bin.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            // The exact upper bound counts in the last bin.
            if x == self.hi {
                *self
                    .counts
                    .last_mut()
                    .expect("histogram has at least one bin") += 1;
            } else {
                self.overflow += 1;
            }
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((x - self.lo) / width) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Per-bin raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations added (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Lower bound of the range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index {i} out of bounds");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Renders a compact ASCII bar chart (one line per bin), for the
    /// figure runner.
    pub fn render_ascii(&self, max_width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(
                (c as usize * max_width)
                    .div_ceil(peak as usize)
                    .min(max_width),
            );
            out.push_str(&format!(
                "{:>12.2} | {:<6} {}\n",
                self.bin_center(i),
                c,
                bar
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert!(Histogram::new(0.0, 1.0, 4).is_ok());
        assert_eq!(
            Histogram::new(1.0, 1.0, 4).unwrap_err(),
            HistogramError::InvalidRange
        );
        assert_eq!(
            Histogram::new(2.0, 1.0, 4).unwrap_err(),
            HistogramError::InvalidRange
        );
        assert_eq!(
            Histogram::new(0.0, 1.0, 0).unwrap_err(),
            HistogramError::NoBins
        );
    }

    #[test]
    fn bins_receive_correct_values() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        for x in [0.0, 0.5, 1.0, 2.9, 3.999] {
            h.add(x);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
    }

    #[test]
    fn exact_upper_bound_lands_in_last_bin() {
        let mut h = Histogram::new(0.0, 4.0, 4).unwrap();
        h.add(4.0);
        assert_eq!(h.counts(), &[0, 0, 0, 1]);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn out_of_range_values_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.add(-1.0);
        h.add(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 2);
        assert_eq!(h.counts(), &[0, 0]);
    }

    #[test]
    fn from_data_covers_all_points() {
        let data = [3.0, 1.0, 2.0, 5.0, 4.0];
        let h = Histogram::from_data(&data, 4).unwrap();
        assert_eq!(h.underflow() + h.overflow(), 0);
        assert_eq!(h.counts().iter().sum::<u64>(), data.len() as u64);
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 3.0, 3).unwrap();
        h.add(0.5);
        let s = h.render_ascii(20);
        assert_eq!(s.lines().count(), 3);
    }

    proptest! {
        #[test]
        fn total_is_preserved(xs in proptest::collection::vec(-10.0f64..10.0, 0..200)) {
            let mut h = Histogram::new(-5.0, 5.0, 7).unwrap();
            for &x in &xs {
                h.add(x);
            }
            let binned: u64 = h.counts().iter().sum();
            prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
        }
    }
}
