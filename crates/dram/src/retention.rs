//! Retention physics: how temperature, supply voltage, stored data and
//! cell-to-cell interference scale a weak cell's retention time.
//!
//! A cell manifests a retention error within a refresh window when its
//! *effective* retention time falls below the refresh period:
//!
//! ```text
//! effective = base_retention
//!           × temp_factor(T)            // Arrhenius-style, halves per ~10 °C
//!           × vdd_factor(V)             // less charge at lower supply
//!           × vrt_state                 // 1.0 or a degraded multiplier
//!           × discharged_mult           // only while discharged (charge gain)
//!           ÷ (1 + intra + inter)       // data-dependent interference
//!           ÷ (1 + disturbance)         // neighbour-row activations
//! ```
//!
//! All coefficients live in [`PhysicsParams`]; the defaults are calibrated so
//! the paper's qualitative results hold under the relaxed operating point
//! (TREFP 2.283 s, VDD 1.428 V): CEs from ≈50 °C, UEs only from ≈62 °C, and
//! the margins of Fig. 14 in plausible positions.

use crate::env::OperatingEnv;
use serde::{Deserialize, Serialize};

/// Tunable coefficients of the retention model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhysicsParams {
    /// Reference temperature (°C) at which base retention is specified.
    pub ref_temp_c: f64,
    /// Temperature increase (°C) that halves retention (Arrhenius slope;
    /// DRAM literature reports ≈10 °C, cf. Hamamoto et al.).
    pub retention_halving_c: f64,
    /// Nominal supply voltage (V) at which base retention is specified.
    pub nominal_vdd_v: f64,
    /// Exponent of the supply-voltage scaling `(V / V_nom)^k`: lower VDD
    /// stores less charge, shortening retention.
    pub vdd_exponent: f64,
    /// Retention multiplier for a *discharged* cell. Discharged cells can
    /// only fail through slow charge gain, so this is ≫ 1; it bounds the
    /// worst-/best-case pattern ratio (paper: ≈8×).
    pub discharged_retention_mult: f64,
    /// Leakage contribution of each charged physical bitline neighbour
    /// (intra-row interference).
    pub intra_row_coupling: f64,
    /// Leakage contribution of each *opposite-state* cell at the same
    /// physical column in an adjacent row of the same bank: a charged
    /// storage node facing a discharged neighbour sees the largest
    /// node-to-node field and leaks fastest (inter-row interference — what
    /// the 24 KB patterns exploit by discharging the rows around a charged
    /// victim; there is no coupling across banks, which is why 512 KB
    /// patterns gain nothing, Fig. 10).
    pub inter_row_coupling: f64,
    /// Retention multiplier applied while a VRT cell sits in its degraded
    /// state (paper §V-A.1 cites Restle et al. for VRT).
    pub vrt_degraded_mult: f64,
    /// Probability per refresh window that a VRT cell is in the degraded
    /// state.
    pub vrt_degraded_prob: f64,
    /// Fraction of the row-disturbance factor felt by clustered (UE-prone)
    /// defect pairs. Disturbance susceptibility varies orders of magnitude
    /// across cells (Kim et al.); modelling the clustered defects as
    /// comparatively hammer-resistant keeps the UE onset at ≈62 °C for
    /// access viruses too, as the paper observes (§V-A.4: "the worst-case
    /// access patterns manifested UEs only at 62 °C").
    pub pair_disturbance_mult: f64,
}

impl Default for PhysicsParams {
    fn default() -> Self {
        PhysicsParams {
            ref_temp_c: 45.0,
            retention_halving_c: 10.0,
            nominal_vdd_v: 1.5,
            vdd_exponent: 6.0,
            discharged_retention_mult: 40.0,
            intra_row_coupling: 0.10,
            inter_row_coupling: 0.075,
            vrt_degraded_mult: 0.45,
            vrt_degraded_prob: 0.30,
            pair_disturbance_mult: 0.15,
        }
    }
}

impl PhysicsParams {
    /// Temperature scaling factor: retention halves every
    /// [`Self::retention_halving_c`] degrees above the reference.
    pub fn temp_factor(&self, temp_c: f64) -> f64 {
        2f64.powf(-(temp_c - self.ref_temp_c) / self.retention_halving_c)
    }

    /// Supply-voltage scaling factor `(V / V_nom)^k`.
    pub fn vdd_factor(&self, vdd_v: f64) -> f64 {
        (vdd_v / self.nominal_vdd_v).powf(self.vdd_exponent)
    }

    /// Combined environmental scaling for an operating point.
    pub fn env_factor(&self, env: &OperatingEnv) -> f64 {
        self.temp_factor(env.temp_c) * self.vdd_factor(env.vdd_v)
    }

    /// Effective retention of a cell in seconds.
    ///
    /// * `base_s` — base retention at reference conditions;
    /// * `charged` — whether the stored value charges this cell;
    /// * `charged_intra` — number of charged physical bitline neighbours;
    /// * `charged_inter` — number of *opposite-state* (discharged)
    ///   same-column cells in adjacent rows of the same bank;
    /// * `disturbance` — accumulated row-disturbance factor (≥ 0);
    /// * `vrt_degraded` — whether the cell currently sits in its degraded
    ///   VRT state.
    ///
    /// The window loops apply this formula cell by cell with the
    /// interference factor precomputed; the tests state its physics here.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub fn effective_retention_s(
        &self,
        base_s: f64,
        env: &OperatingEnv,
        charged: bool,
        charged_intra: u32,
        charged_inter: u32,
        disturbance: f64,
        vrt_degraded: bool,
    ) -> f64 {
        let mut retention = base_s * self.env_factor(env);
        if vrt_degraded {
            retention *= self.vrt_degraded_mult;
        }
        if charged {
            let interference = 1.0
                + self.intra_row_coupling * charged_intra as f64
                + self.inter_row_coupling * charged_inter as f64;
            retention /= interference * (1.0 + disturbance);
        } else {
            // A discharged cell is immune to leakage *and* to disturbance
            // (there is no stored charge to drain); it can only fail by slow
            // charge gain.
            retention *= self.discharged_retention_mult;
        }
        retention
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> PhysicsParams {
        PhysicsParams::default()
    }

    #[test]
    fn temp_factor_halves_per_step() {
        let p = params();
        assert!((p.temp_factor(45.0) - 1.0).abs() < 1e-12);
        assert!((p.temp_factor(55.0) - 0.5).abs() < 1e-12);
        assert!((p.temp_factor(65.0) - 0.25).abs() < 1e-12);
        assert!((p.temp_factor(35.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vdd_factor_is_one_at_nominal_and_shrinks_below() {
        let p = params();
        assert!((p.vdd_factor(1.5) - 1.0).abs() < 1e-12);
        let low = p.vdd_factor(1.428);
        assert!(low < 1.0 && low > 0.5, "vdd factor {low}");
    }

    #[test]
    fn charged_cells_leak_discharged_cells_barely() {
        let p = params();
        let env = OperatingEnv::relaxed(55.0);
        let charged = p.effective_retention_s(10.0, &env, true, 0, 0, 0.0, false);
        let discharged = p.effective_retention_s(10.0, &env, false, 0, 0, 0.0, false);
        assert!(discharged / charged >= p.discharged_retention_mult * 0.99);
    }

    #[test]
    fn interference_reduces_retention_monotonically() {
        let p = params();
        let env = OperatingEnv::relaxed(60.0);
        let r0 = p.effective_retention_s(10.0, &env, true, 0, 0, 0.0, false);
        let r1 = p.effective_retention_s(10.0, &env, true, 1, 0, 0.0, false);
        let r2 = p.effective_retention_s(10.0, &env, true, 2, 1, 0.0, false);
        assert!(r0 > r1 && r1 > r2);
    }

    #[test]
    fn disturbance_only_affects_charged_cells() {
        let p = params();
        let env = OperatingEnv::relaxed(60.0);
        let quiet = p.effective_retention_s(10.0, &env, true, 0, 0, 0.0, false);
        let hammered = p.effective_retention_s(10.0, &env, true, 0, 0, 1.0, false);
        assert!((quiet / hammered - 2.0).abs() < 1e-9);
        let d_quiet = p.effective_retention_s(10.0, &env, false, 0, 0, 0.0, false);
        let d_hammer = p.effective_retention_s(10.0, &env, false, 0, 0, 1.0, false);
        assert_eq!(d_quiet, d_hammer);
    }

    #[test]
    fn vrt_degraded_state_shortens_retention() {
        let p = params();
        let env = OperatingEnv::relaxed(60.0);
        let good = p.effective_retention_s(10.0, &env, true, 0, 0, 0.0, false);
        let bad = p.effective_retention_s(10.0, &env, true, 0, 0, 0.0, true);
        assert!((bad / good - p.vrt_degraded_mult).abs() < 1e-9);
    }

    #[test]
    fn relaxed_point_is_much_more_stressful_than_nominal() {
        // The combination of 35x TREFP and lowered VDD must dominate: a cell
        // that barely survives nominal 64 ms fails hard at 2.283 s.
        let p = params();
        let nominal = OperatingEnv::nominal(55.0);
        let relaxed = OperatingEnv::relaxed(55.0);
        let base = 1.0; // a weak cell: 1 s base retention
        let eff_nom = p.effective_retention_s(base, &nominal, true, 0, 0, 0.0, false);
        let eff_rel = p.effective_retention_s(base, &relaxed, true, 0, 0, 0.0, false);
        assert!(eff_nom >= nominal.trefp_s);
        assert!(eff_rel < relaxed.trefp_s);
    }

    proptest! {
        #[test]
        fn retention_is_positive_and_monotone_in_temperature(
            base in 0.01f64..100.0, t1 in 40.0f64..80.0, t2 in 40.0f64..80.0,
        ) {
            let p = params();
            let (lo, hi) = if t1 < t2 { (t1, t2) } else { (t2, t1) };
            let env_lo = OperatingEnv::relaxed(lo);
            let env_hi = OperatingEnv::relaxed(hi);
            let r_lo = p.effective_retention_s(base, &env_lo, true, 1, 1, 0.5, false);
            let r_hi = p.effective_retention_s(base, &env_hi, true, 1, 1, 0.5, false);
            prop_assert!(r_lo > 0.0 && r_hi > 0.0);
            prop_assert!(r_hi <= r_lo + 1e-12);
        }
    }
}
