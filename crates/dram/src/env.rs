//! Operating conditions of a memory domain.

use serde::{Deserialize, Serialize};

/// Nominal DDR3 refresh period (paper §II: 64 ms).
pub const NOMINAL_TREFP_S: f64 = 0.064;
/// Maximum refresh period allowed by the X-Gene 2 platform (paper §IV:
/// 2.283 s, 35× the nominal).
pub const MAX_TREFP_S: f64 = 2.283;
/// Nominal DDR3 supply voltage (paper §IV: 1.5 V).
pub const NOMINAL_VDD_V: f64 = 1.5;
/// Minimum supply voltage the paper's vendor specifies (1.425 V; the paper
/// operates at 1.428 V).
pub const MIN_VDD_V: f64 = 1.425;

/// The operating point of one memory domain: temperature, supply voltage and
/// refresh period (paper §II "DRAM operating parameters").
///
/// # Examples
///
/// ```
/// use dstress_dram::OperatingEnv;
///
/// let env = OperatingEnv::relaxed(60.0);
/// assert_eq!(env.trefp_s, 2.283);
/// assert_eq!(env.vdd_v, 1.428);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingEnv {
    /// DIMM temperature in °C.
    pub temp_c: f64,
    /// Supply voltage in volts.
    pub vdd_v: f64,
    /// Refresh period in seconds.
    pub trefp_s: f64,
}

impl OperatingEnv {
    /// Nominal operating parameters (64 ms refresh, 1.5 V) at the given
    /// temperature.
    pub fn nominal(temp_c: f64) -> Self {
        OperatingEnv {
            temp_c,
            vdd_v: NOMINAL_VDD_V,
            trefp_s: NOMINAL_TREFP_S,
        }
    }

    /// The paper's relaxed stress point: maximum refresh period (2.283 s)
    /// and lowered supply voltage (1.428 V) at the given temperature
    /// (§V "DRAM parameters and Temperature").
    pub fn relaxed(temp_c: f64) -> Self {
        OperatingEnv {
            temp_c,
            vdd_v: 1.428,
            trefp_s: MAX_TREFP_S,
        }
    }

    /// Returns a copy with a different refresh period (for margin sweeps,
    /// Fig. 14).
    #[must_use]
    pub fn with_trefp(mut self, trefp_s: f64) -> Self {
        self.trefp_s = trefp_s;
        self
    }

    /// Validates physical plausibility of the operating point.
    pub fn validate(&self) -> Result<(), EnvError> {
        if !(self.temp_c.is_finite() && (-50.0..=150.0).contains(&self.temp_c)) {
            return Err(EnvError::Temperature(self.temp_c));
        }
        if !(self.vdd_v.is_finite() && self.vdd_v > 0.0) {
            return Err(EnvError::Voltage(self.vdd_v));
        }
        if !(self.trefp_s.is_finite() && self.trefp_s > 0.0) {
            return Err(EnvError::Refresh(self.trefp_s));
        }
        Ok(())
    }
}

/// Error validating an [`OperatingEnv`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EnvError {
    /// Temperature outside the modelled range.
    Temperature(f64),
    /// Non-positive or non-finite supply voltage.
    Voltage(f64),
    /// Non-positive or non-finite refresh period.
    Refresh(f64),
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvError::Temperature(t) => write!(f, "temperature {t} °C outside modelled range"),
            EnvError::Voltage(v) => write!(f, "supply voltage {v} V must be positive"),
            EnvError::Refresh(t) => write!(f, "refresh period {t} s must be positive"),
        }
    }
}

impl std::error::Error for EnvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_and_relaxed_constructors() {
        let n = OperatingEnv::nominal(50.0);
        assert_eq!(n.trefp_s, NOMINAL_TREFP_S);
        assert_eq!(n.vdd_v, NOMINAL_VDD_V);
        let r = OperatingEnv::relaxed(50.0);
        assert_eq!(r.trefp_s, MAX_TREFP_S);
        assert!((r.vdd_v - 1.428).abs() < 1e-12);
    }

    #[test]
    fn with_helpers_replace_fields() {
        let e = OperatingEnv::nominal(50.0).with_trefp(1.0);
        assert_eq!(e.trefp_s, 1.0);
        assert_eq!(e.temp_c, 50.0);
        assert_eq!(e.vdd_v, NOMINAL_VDD_V);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(OperatingEnv::nominal(55.0).validate().is_ok());
        assert!(matches!(
            OperatingEnv {
                temp_c: f64::NAN,
                vdd_v: 1.5,
                trefp_s: 0.064
            }
            .validate(),
            Err(EnvError::Temperature(_))
        ));
        assert!(matches!(
            OperatingEnv {
                temp_c: 50.0,
                vdd_v: 0.0,
                trefp_s: 0.064
            }
            .validate(),
            Err(EnvError::Voltage(_))
        ));
        assert!(matches!(
            OperatingEnv {
                temp_c: 50.0,
                vdd_v: 1.5,
                trefp_s: -1.0
            }
            .validate(),
            Err(EnvError::Refresh(_))
        ));
    }

    #[test]
    fn max_trefp_is_35x_nominal() {
        // Paper §IV: "2.283 s (35x more than the nominal 64 ms)".
        assert!((MAX_TREFP_S / NOMINAL_TREFP_S - 35.67).abs() < 0.1);
    }
}
