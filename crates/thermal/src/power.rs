//! Per-node power from DVFS state and measured activity.
//!
//! Dynamic power follows the classic CMOS scaling
//! `P_dyn = P_DYN_NOMINAL_W · (f/f_nom) · (V(f)/V_nom)² · duty` with a
//! linear voltage/frequency curve over the platform's DVFS range
//! ([`FREQ_RANGE_MHZ`], the paper's 10–300 MHz; `f_nom` is
//! [`NOMINAL_MHZ`]), and leakage grows exponentially with temperature
//! (`P_leak = P_LEAK_REF_W · 2^((T − LEAK_REF_C)/LEAK_DOUBLING_K)`) — the
//! positive feedback loop that makes unmanaged silicon run away.

use sirtm_centurion::{FREQ_RANGE_MHZ, NOMINAL_MHZ};

/// Dynamic power of a fully busy node at the nominal clock, in W.
pub const P_DYN_NOMINAL_W: f64 = 0.15;
/// Supply voltage at the bottom and top of the DVFS range, in volts.
pub const VOLT_RANGE_V: (f64, f64) = (0.9, 1.4);
/// Leakage power at [`LEAK_REF_C`], in W.
pub const P_LEAK_REF_W: f64 = 0.015;
/// Reference temperature for leakage, in °C.
pub const LEAK_REF_C: f64 = 25.0;
/// Temperature increase that doubles leakage, in K.
pub const LEAK_DOUBLING_K: f64 = 30.0;
/// Router + fabric baseline power per tile (independent of DVFS), W.
pub const P_UNCORE_W: f64 = 0.01;

/// Evaluates node power for the thermal network.
///
/// # Examples
///
/// ```
/// use sirtm_thermal::PowerModel;
///
/// let idle = PowerModel.power_w(100, 0.0, 50.0);
/// let busy = PowerModel.power_w(100, 1.0, 50.0);
/// let fast = PowerModel.power_w(300, 1.0, 50.0);
/// assert!(idle < busy && busy < fast);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PowerModel;

impl PowerModel {
    /// Supply voltage at `freq_mhz`, linearly interpolated over the DVFS
    /// range (clamped outside it).
    pub fn voltage_v(&self, freq_mhz: u16) -> f64 {
        let (f_lo, f_hi) = FREQ_RANGE_MHZ;
        let (v_lo, v_hi) = VOLT_RANGE_V;
        let f = freq_mhz.clamp(f_lo, f_hi) as f64;
        let frac = (f - f_lo as f64) / (f_hi - f_lo) as f64;
        v_lo + frac * (v_hi - v_lo)
    }

    /// Dynamic power at `freq_mhz` with activity `duty ∈ [0, 1]`, in W.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is not within `[0, 1]` (callers compute it as
    /// busy-cycles over window-cycles, which cannot exceed 1).
    pub fn dynamic_w(&self, freq_mhz: u16, duty: f64) -> f64 {
        assert!((0.0..=1.0).contains(&duty), "duty {duty} outside [0, 1]");
        let f_scale = freq_mhz as f64 / NOMINAL_MHZ as f64;
        let v_scale = self.voltage_v(freq_mhz) / self.voltage_v(NOMINAL_MHZ);
        P_DYN_NOMINAL_W * f_scale * v_scale * v_scale * duty
    }

    /// Leakage power at die temperature `temp_c`, in W.
    pub fn leakage_w(&self, temp_c: f64) -> f64 {
        let exponent = (temp_c - LEAK_REF_C) / LEAK_DOUBLING_K;
        P_LEAK_REF_W * exponent.exp2()
    }

    /// Total tile power: dynamic + leakage + uncore, in W.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `[0, 1]`.
    pub fn power_w(&self, freq_mhz: u16, duty: f64, temp_c: f64) -> f64 {
        self.dynamic_w(freq_mhz, duty) + self.leakage_w(temp_c) + P_UNCORE_W
    }

    /// Power of a dead tile: leakage only (the clock tree is gated, the
    /// router region is assumed power-gated with the PE).
    pub fn dead_power_w(&self, temp_c: f64) -> f64 {
        self.leakage_w(temp_c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_interpolates_endpoints() {
        let m = PowerModel;
        assert!((m.voltage_v(10) - 0.9).abs() < 1e-12);
        assert!((m.voltage_v(300) - 1.4).abs() < 1e-12);
        let mid = m.voltage_v(155);
        assert!((0.9..1.4).contains(&mid));
    }

    #[test]
    fn voltage_clamps_outside_range() {
        let m = PowerModel;
        assert_eq!(m.voltage_v(1), m.voltage_v(10));
        assert_eq!(m.voltage_v(500), m.voltage_v(300));
    }

    #[test]
    fn dynamic_power_monotone_in_frequency_and_duty() {
        let m = PowerModel;
        assert!(m.dynamic_w(300, 1.0) > m.dynamic_w(100, 1.0));
        assert!(m.dynamic_w(100, 1.0) > m.dynamic_w(100, 0.3));
        assert_eq!(m.dynamic_w(100, 0.0), 0.0);
    }

    #[test]
    fn overclocking_superlinear_via_voltage() {
        // P(300)/P(100) must exceed the pure 3x frequency ratio because
        // voltage rises with frequency.
        let m = PowerModel;
        let ratio = m.dynamic_w(300, 1.0) / m.dynamic_w(100, 1.0);
        assert!(ratio > 3.5, "got ratio {ratio}");
    }

    #[test]
    fn leakage_doubles_per_configured_interval() {
        let m = PowerModel;
        let base = m.leakage_w(25.0);
        let doubled = m.leakage_w(55.0);
        assert!((doubled / base - 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_power_includes_all_terms() {
        let m = PowerModel;
        let p = m.power_w(100, 0.5, 45.0);
        assert!((p - (m.dynamic_w(100, 0.5) + m.leakage_w(45.0) + 0.01)).abs() < 1e-15);
    }

    #[test]
    fn dead_tile_leaks_only() {
        let m = PowerModel;
        assert_eq!(m.dead_power_w(60.0), m.leakage_w(60.0));
        assert!(m.dead_power_w(60.0) < m.power_w(10, 0.0, 60.0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn duty_out_of_range_panics() {
        PowerModel.dynamic_w(100, 1.5);
    }
}
