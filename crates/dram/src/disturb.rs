//! Row-disturbance model (cell-to-cell interference from activations).
//!
//! Frequently activating rows drains charge from cells in nearby rows of the
//! same bank — the effect behind "rowhammer" (paper §II, citing Kim et al.).
//! The paper's access-pattern viruses exploit it *without* `clflush`, i.e. at
//! cache-limited activation rates (§V-A.4), so the model must respond to
//! moderate rates and then *saturate*: once the near rows are hammered past
//! the knee, many different access subsets reach a similar disturbance level
//! — which is exactly why the paper's access-pattern searches never converge
//! (SMF ≈ 0.5).

use crate::geometry::RowKey;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-row activation counts accumulated over one refresh window.
///
/// # Examples
///
/// ```
/// use dstress_dram::ActivationCounts;
/// use dstress_dram::geometry::RowKey;
///
/// let mut acts = ActivationCounts::new();
/// acts.add(RowKey::new(0, 0, 5), 1000);
/// acts.add(RowKey::new(0, 0, 5), 24);
/// assert_eq!(acts.get(RowKey::new(0, 0, 5)), 1024);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivationCounts {
    counts: HashMap<RowKey, u64>,
}

impl ActivationCounts {
    /// Creates an empty tally.
    pub fn new() -> Self {
        ActivationCounts::default()
    }

    /// Adds `n` activations of a row.
    pub fn add(&mut self, row: RowKey, n: u64) {
        if n > 0 {
            *self.counts.entry(row).or_insert(0) += n;
        }
    }

    /// Activations recorded for a row.
    pub fn get(&self, row: RowKey) -> u64 {
        self.counts.get(&row).copied().unwrap_or(0)
    }

    /// Iterates all `(row, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RowKey, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }

    /// Total activations across all rows.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Multiplies every count by `factor` (used when replaying a recorded
    /// access trace at a target rate).
    pub fn scale(&mut self, factor: u64) {
        for v in self.counts.values_mut() {
            *v = v.saturating_mul(factor);
        }
    }

    /// Removes all counts (the auto-refresh recharges victims, so each
    /// window starts a fresh tally).
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

impl FromIterator<(RowKey, u64)> for ActivationCounts {
    fn from_iter<I: IntoIterator<Item = (RowKey, u64)>>(iter: I) -> Self {
        let mut acts = ActivationCounts::new();
        for (row, n) in iter {
            acts.add(row, n);
        }
        acts
    }
}

/// Coefficients of the disturbance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceModel {
    /// Exponential decay length of aggressor influence, in rows.
    pub decay_rows: f64,
    /// Hammer units at the half-effect point of the sigmoid response.
    pub knee_hammer: f64,
    /// Maximum disturbance factor (added leakage multiplier at full
    /// saturation).
    pub max_factor: f64,
    /// Hill exponent of the sigmoid response. Disturbance has a
    /// threshold-like onset (ordinary streaming at a few hundred
    /// activations per window is harmless — real rowhammer needs tens of
    /// thousands) and then *saturates*, which is what denies the
    /// access-pattern searches a unique optimum (Fig. 11).
    pub hill_exponent: f64,
}

impl Default for DisturbanceModel {
    fn default() -> Self {
        DisturbanceModel {
            decay_rows: 1.5,
            knee_hammer: 2500.0,
            max_factor: 0.5,
            hill_exponent: 3.0,
        }
    }
}

impl DisturbanceModel {
    /// Accumulated "hammer units" at a victim row: activation counts of
    /// other rows in the *same rank and bank*, weighted by exponential
    /// distance decay. Activations of the victim row itself recharge it and
    /// contribute nothing.
    pub fn hammer_units(&self, victim: RowKey, acts: &ActivationCounts) -> f64 {
        let mut hammer = 0.0;
        for (row, count) in acts.iter() {
            if row.rank != victim.rank || row.bank != victim.bank || row.row == victim.row {
                continue;
            }
            let distance = (row.row as f64 - victim.row as f64).abs();
            hammer += count as f64 * (-distance / self.decay_rows).exp();
        }
        hammer
    }

    /// The disturbance factor for a victim row given this window's
    /// activations: a Hill sigmoid
    /// `max_factor · hⁿ / (hⁿ + kneeⁿ)` — negligible at streaming rates,
    /// steep around the knee, saturating beyond it.
    pub fn factor(&self, victim: RowKey, acts: &ActivationCounts) -> f64 {
        self.factor_from_hammer(self.hammer_units(victim, acts))
    }

    /// The sigmoid response applied to precomputed hammer units.
    pub fn factor_from_hammer(&self, hammer: f64) -> f64 {
        if hammer <= 0.0 {
            return 0.0;
        }
        let hn = hammer.powf(self.hill_exponent);
        let kn = self.knee_hammer.powf(self.hill_exponent);
        self.max_factor * hn / (hn + kn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> DisturbanceModel {
        DisturbanceModel::default()
    }

    #[test]
    fn activation_counts_accumulate() {
        let mut acts = ActivationCounts::new();
        let row = RowKey::new(0, 1, 2);
        acts.add(row, 10);
        acts.add(row, 5);
        acts.add(RowKey::new(0, 1, 3), 1);
        assert_eq!(acts.get(row), 15);
        assert_eq!(acts.iter().count(), 2);
        assert_eq!(acts.total(), 16);
    }

    #[test]
    fn zero_adds_are_ignored() {
        let mut acts = ActivationCounts::new();
        acts.add(RowKey::new(0, 0, 0), 0);
        assert_eq!(acts.iter().count(), 0);
    }

    #[test]
    fn scale_multiplies_counts() {
        let mut acts: ActivationCounts = [(RowKey::new(0, 0, 1), 3u64)].into_iter().collect();
        acts.scale(100);
        assert_eq!(acts.get(RowKey::new(0, 0, 1)), 300);
    }

    #[test]
    fn clear_empties() {
        let mut acts: ActivationCounts = [(RowKey::new(0, 0, 1), 3u64)].into_iter().collect();
        acts.clear();
        assert_eq!(acts.total(), 0);
    }

    #[test]
    fn nearer_aggressors_disturb_more() {
        let m = model();
        let victim = RowKey::new(0, 0, 10);
        let near: ActivationCounts = [(RowKey::new(0, 0, 11), 1000u64)].into_iter().collect();
        let far: ActivationCounts = [(RowKey::new(0, 0, 20), 1000u64)].into_iter().collect();
        assert!(m.factor(victim, &near) > m.factor(victim, &far));
    }

    #[test]
    fn own_row_activations_do_not_disturb() {
        let m = model();
        let victim = RowKey::new(0, 0, 10);
        let own: ActivationCounts = [(victim, 1_000_000u64)].into_iter().collect();
        assert_eq!(m.factor(victim, &own), 0.0);
    }

    #[test]
    fn other_bank_and_rank_do_not_disturb() {
        let m = model();
        let victim = RowKey::new(0, 0, 10);
        let other_bank: ActivationCounts = [(RowKey::new(0, 1, 11), 1_000_000u64)]
            .into_iter()
            .collect();
        let other_rank: ActivationCounts = [(RowKey::new(1, 0, 11), 1_000_000u64)]
            .into_iter()
            .collect();
        assert_eq!(m.factor(victim, &other_bank), 0.0);
        assert_eq!(m.factor(victim, &other_rank), 0.0);
    }

    #[test]
    fn factor_saturates_at_max() {
        let m = model();
        let victim = RowKey::new(0, 0, 10);
        let heavy: ActivationCounts = [(RowKey::new(0, 0, 11), 100_000_000u64)]
            .into_iter()
            .collect();
        let f = m.factor(victim, &heavy);
        assert!(f > 0.99 * m.max_factor && f <= m.max_factor);
    }

    #[test]
    fn streaming_rates_are_nearly_harmless() {
        // A few hundred activations per window (ordinary sequential
        // sweeps) must contribute almost nothing: the threshold-like
        // rowhammer onset.
        let m = model();
        let victim = RowKey::new(0, 0, 10);
        let streaming: ActivationCounts = [
            (RowKey::new(0, 0, 9), 200u64),
            (RowKey::new(0, 0, 11), 200u64),
        ]
        .into_iter()
        .collect();
        let f = m.factor(victim, &streaming);
        assert!(f < 0.05 * m.max_factor, "streaming factor {f}");
    }

    #[test]
    fn hammering_rates_land_near_saturation() {
        let m = model();
        let victim = RowKey::new(0, 0, 10);
        let hammer: ActivationCounts = [
            (RowKey::new(0, 0, 9), 5000u64),
            (RowKey::new(0, 0, 11), 5000u64),
        ]
        .into_iter()
        .collect();
        let f = m.factor(victim, &hammer);
        assert!(f > 0.6 * m.max_factor, "hammer factor {f}");
    }

    #[test]
    fn saturation_makes_subsets_indistinguishable() {
        // Two different heavy aggressor subsets reach nearly the same factor:
        // the mechanism behind the access-search non-convergence (Fig. 11).
        let m = model();
        let victim = RowKey::new(0, 0, 10);
        let a: ActivationCounts = [
            (RowKey::new(0, 0, 9), 20_000u64),
            (RowKey::new(0, 0, 11), 20_000u64),
        ]
        .into_iter()
        .collect();
        let b: ActivationCounts = [
            (RowKey::new(0, 0, 8), 40_000u64),
            (RowKey::new(0, 0, 12), 40_000u64),
            (RowKey::new(0, 0, 11), 15_000u64),
        ]
        .into_iter()
        .collect();
        let (fa, fb) = (m.factor(victim, &a), m.factor(victim, &b));
        assert!((fa - fb).abs() < 0.05 * m.max_factor, "fa={fa} fb={fb}");
    }

    proptest! {
        #[test]
        fn factor_is_bounded_and_monotone(count in 0u64..10_000_000) {
            let m = model();
            let victim = RowKey::new(0, 0, 5);
            let acts: ActivationCounts = [(RowKey::new(0, 0, 6), count)].into_iter().collect();
            let f = m.factor(victim, &acts);
            prop_assert!((0.0..=m.max_factor).contains(&f));
            let more: ActivationCounts =
                [(RowKey::new(0, 0, 6), count + 1000)].into_iter().collect();
            prop_assert!(m.factor(victim, &more) >= f);
        }
    }
}
