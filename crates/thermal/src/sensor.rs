//! Ring-oscillator temperature sensors — the paper's "FPGA fabric
//! (ring oscillators)" monitor.
//!
//! A ring oscillator's frequency falls roughly linearly with die
//! temperature; counting its edges over a fixed measurement window turns
//! the local temperature into a digital word with no analogue circuitry —
//! which is exactly why FPGA platforms like Centurion use them. The model
//! here adds the two artefacts that make real RO thermometry interesting:
//! quantisation (the count is an integer) and per-instance process
//! variation (each oscillator's nominal speed is slightly different, so
//! raw counts are only comparable after calibration).

use sirtm_noc::NodeId;
use sirtm_rng::{Rng, SplitMix64};

/// Nominal edge count over one measurement window at
/// [`CALIBRATION_C`], before process variation.
pub const NOMINAL_COUNT: u32 = 4096;
/// Fractional frequency loss per kelvin (FPGA ROs: ≈ 0.1–0.3 %/K).
pub const TEMP_COEFF_PER_K: f64 = 0.002;
/// Temperature at which an ideal oscillator hits [`NOMINAL_COUNT`],
/// in °C.
pub const CALIBRATION_C: f64 = 25.0;
/// Peak-to-peak process variation of the per-instance nominal count,
/// as a fraction (0.02 = ±1 %).
pub const PROCESS_VARIATION: f64 = 0.02;

/// One ring-oscillator instance with its process-variation factor baked
/// in at construction.
///
/// # Examples
///
/// ```
/// use sirtm_thermal::RingOscillator;
///
/// let ro = RingOscillator::new(1.0);
/// let cool = ro.count(40.0);
/// let hot = ro.count(100.0);
/// assert!(hot < cool, "oscillators slow down when hot");
/// let recovered = ro.temp_from_count(ro.count(80.0));
/// assert!((recovered - 80.0).abs() < 0.5, "calibration inverts the count");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RingOscillator {
    /// This instance's actual zero-temperature-offset count (nominal ×
    /// process factor), known post-calibration.
    instance_count: f64,
}

impl RingOscillator {
    /// Creates an oscillator with multiplicative process factor
    /// `process_factor` (1.0 = a perfectly nominal instance).
    ///
    /// # Panics
    ///
    /// Panics if `process_factor` is not positive.
    pub fn new(process_factor: f64) -> Self {
        assert!(process_factor > 0.0, "process factor must be positive");
        Self {
            instance_count: NOMINAL_COUNT as f64 * process_factor,
        }
    }

    /// The measured edge count at die temperature `temp_c` (quantised).
    pub fn count(&self, temp_c: f64) -> u32 {
        let scale = 1.0 - TEMP_COEFF_PER_K * (temp_c - CALIBRATION_C);
        (self.instance_count * scale.max(0.0)).round() as u32
    }

    /// Recovers the die temperature from a `count`, using this instance's
    /// calibrated nominal — the inverse of [`RingOscillator::count`] up to
    /// quantisation error.
    pub fn temp_from_count(&self, count: u32) -> f64 {
        let scale = count as f64 / self.instance_count;
        CALIBRATION_C + (1.0 - scale) / TEMP_COEFF_PER_K
    }

    /// Worst-case quantisation error of [`RingOscillator::temp_from_count`]
    /// in kelvin (half a count step).
    pub fn quantisation_error_k(&self) -> f64 {
        0.5 / (self.instance_count * TEMP_COEFF_PER_K)
    }
}

/// A per-node bank of ring oscillators with deterministic, seeded
/// process variation.
///
/// # Examples
///
/// ```
/// use sirtm_noc::NodeId;
/// use sirtm_thermal::SensorBank;
///
/// let bank = SensorBank::new(16, 7);
/// let temps = vec![60.0; 16];
/// let reading = bank.read(NodeId::new(3), &temps);
/// let est = bank.oscillator(NodeId::new(3)).temp_from_count(reading);
/// assert!((est - 60.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensorBank {
    oscillators: Vec<RingOscillator>,
}

impl SensorBank {
    /// Creates `n` oscillators whose process factors are drawn uniformly
    /// from `1 ± PROCESS_VARIATION/2` using `seed` (bit-reproducible).
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let half = PROCESS_VARIATION / 2.0;
        let oscillators = (0..n)
            .map(|_| {
                let factor = 1.0 + (rng.unit_f64() * 2.0 - 1.0) * half;
                RingOscillator::new(factor)
            })
            .collect();
        Self { oscillators }
    }

    /// The oscillator instance at `node` (for calibrated conversions).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn oscillator(&self, node: NodeId) -> &RingOscillator {
        &self.oscillators[node.index()]
    }

    /// Reads the raw count of `node`'s sensor given the true temperature
    /// field `temps_c`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range of either the bank or `temps_c`.
    pub fn read(&self, node: NodeId, temps_c: &[f64]) -> u32 {
        self.oscillators[node.index()].count(temps_c[node.index()])
    }

    /// Calibrated temperature estimate of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range of either the bank or `temps_c`.
    pub fn estimate_c(&self, node: NodeId, temps_c: &[f64]) -> f64 {
        let ro = &self.oscillators[node.index()];
        ro.temp_from_count(ro.count(temps_c[node.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_decreases_with_temperature() {
        let ro = RingOscillator::new(1.0);
        let mut last = u32::MAX;
        for t in [0.0, 25.0, 45.0, 85.0, 110.0, 150.0] {
            let c = ro.count(t);
            assert!(c < last, "count must fall monotonically, {c} at {t}");
            last = c;
        }
    }

    #[test]
    fn calibration_inverts_within_quantisation() {
        let ro = RingOscillator::new(1.03);
        for t in [30.0, 55.5, 84.9, 109.6] {
            let est = ro.temp_from_count(ro.count(t));
            assert!(
                (est - t).abs() <= ro.quantisation_error_k() + 1e-9,
                "estimate {est} for true {t}"
            );
        }
    }

    #[test]
    fn quantisation_error_sub_kelvin_at_default() {
        let ro = RingOscillator::new(1.0);
        assert!(
            ro.quantisation_error_k() < 0.1,
            "default RO resolves <0.1 K"
        );
    }

    #[test]
    fn uncalibrated_variation_misleads_raw_counts() {
        // Two instances at the same temperature disagree by more than the
        // count step — the reason calibration exists.
        let a = RingOscillator::new(0.99);
        let b = RingOscillator::new(1.01);
        let (ca, cb) = (a.count(60.0), b.count(60.0));
        assert!(cb.abs_diff(ca) > 10, "variation visible: {ca} vs {cb}");
        // But each instance's own calibration still recovers 60 °C.
        assert!((a.temp_from_count(ca) - 60.0).abs() < 0.5);
        assert!((b.temp_from_count(cb) - 60.0).abs() < 0.5);
    }

    #[test]
    fn bank_is_deterministic_per_seed() {
        let a = SensorBank::new(32, 9);
        let b = SensorBank::new(32, 9);
        let c = SensorBank::new(32, 10);
        let temps = vec![72.0; 32];
        let read = |bank: &SensorBank| -> Vec<u32> {
            (0..32).map(|i| bank.read(NodeId::new(i), &temps)).collect()
        };
        assert_eq!(read(&a), read(&b));
        assert_ne!(read(&a), read(&c), "different seed, different instances");
    }

    #[test]
    fn bank_estimates_all_nodes() {
        let bank = SensorBank::new(8, 3);
        let temps: Vec<f64> = (0..8).map(|i| 40.0 + i as f64 * 7.0).collect();
        for i in 0..8 {
            let est = bank.estimate_c(NodeId::new(i as u16), &temps);
            assert!(
                (est - temps[i]).abs() < 0.5,
                "node {i}: {est} vs {}",
                temps[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "process factor")]
    fn non_positive_factor_rejected() {
        RingOscillator::new(0.0);
    }

    #[test]
    fn extreme_heat_floors_at_zero_count() {
        let ro = RingOscillator::new(1.0);
        assert_eq!(ro.count(1e6), 0, "scale clamps instead of going negative");
    }
}
