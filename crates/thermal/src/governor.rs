//! Stimulus–threshold thermal governors.
//!
//! The paper's thesis is that one decision fabric — impulse counters and
//! thresholds (Fig. 2b) — can drive *all* the runtime knobs, not just
//! task switching. [`ThresholdGovernor`] demonstrates that for the
//! thermal loop: the raw ring-oscillator count is compared against
//! per-instance calibrated set-points, "hot" scans excite one
//! [`ThresholdUnit`] that steps the DVFS ladder down when it fires,
//! "cool" scans excite another that steps back up, and a persistence
//! counter above the critical point shuts the node down. No floating
//! point, no PID — the same hardware idiom as the NI/FFW task models.
//!
//! [`ThresholdUnit`]: sirtm_core::stimulus::ThresholdUnit

use sirtm_core::stimulus::ThresholdUnit;

use crate::config::ThermalConfig;
use crate::sensor::RingOscillator;

/// A governor's decision for one node after one sensor scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalAction {
    /// No knob change.
    None,
    /// Set the node clock to this frequency (DVFS knob).
    SetFrequency(u16),
    /// Thermal trip: kill the node before the silicon does it for us.
    Shutdown,
}

/// Tuning of the [`ThresholdGovernor`] and how [`ThermalLoop`] builds
/// governors.
///
/// [`ThermalLoop`]: crate::coupling::ThermalLoop
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorConfig {
    /// Whether the loop runs governors at all (`false` = open loop).
    pub enabled: bool,
    /// Ascending DVFS ladder the governor steps along, in MHz.
    pub freq_ladder: Vec<u16>,
    /// Hot scans (sensor at/above warn) needed to fire a down-step.
    pub hot_fire: u32,
    /// Cool scans (sensor below recover point) needed to fire an up-step.
    /// Much larger than [`hot_fire`]: throttling must react fast,
    /// recovery may be lazy.
    ///
    /// [`hot_fire`]: GovernorConfig::hot_fire
    pub cool_fire: u32,
    /// Recovery margin below the warn temperature, in K (hysteresis band).
    pub recover_margin_k: f64,
    /// Consecutive scans at/above trip temperature before shutdown.
    pub trip_persistence: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            freq_ladder: vec![10, 25, 50, 75, 100, 150, 200, 250, 300],
            hot_fire: 3,
            cool_fire: 25,
            recover_margin_k: 10.0,
            trip_persistence: 3,
        }
    }
}

impl GovernorConfig {
    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-ascending ladder, zero firing counts or
    /// a non-positive margin — construction-time programming errors.
    pub fn validate(&self) {
        assert!(!self.freq_ladder.is_empty(), "frequency ladder is empty");
        assert!(
            self.freq_ladder.windows(2).all(|w| w[0] < w[1]),
            "frequency ladder must be strictly ascending"
        );
        assert!(self.hot_fire > 0, "hot_fire must be non-zero");
        assert!(self.cool_fire > 0, "cool_fire must be non-zero");
        assert!(
            self.recover_margin_k > 0.0,
            "recover margin must be positive"
        );
        assert!(
            self.trip_persistence > 0,
            "trip persistence must be non-zero"
        );
    }
}

/// The stimulus–threshold DVFS governor: one per node, one scan per
/// thermal window.
///
/// # Examples
///
/// ```
/// use sirtm_thermal::{
///     GovernorConfig, RingOscillator, SensorConfig, ThermalAction, ThermalConfig,
///     ThresholdGovernor,
/// };
///
/// let thermal = ThermalConfig::default();
/// let ro = RingOscillator::new(SensorConfig::default(), 1.0);
/// let mut gov = ThresholdGovernor::new(&GovernorConfig::default(), &thermal, &ro, 300);
///
/// // Three consecutive scans above the warn temperature fire a down-step.
/// let hot = ro.count(thermal.warn_temp_c + 5.0);
/// assert_eq!(gov.scan(hot), ThermalAction::None);
/// assert_eq!(gov.scan(hot), ThermalAction::None);
/// assert_eq!(gov.scan(hot), ThermalAction::SetFrequency(250));
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdGovernor {
    ladder: Vec<u16>,
    /// Highest frequency this governor will ever request (the node's
    /// frequency when the governor attached).
    ceiling_mhz: u16,
    freq_mhz: u16,
    /// Counts *at or below* these fire the respective comparators
    /// (hotter silicon → slower oscillator → smaller count).
    warn_count: u32,
    recover_count: u32,
    trip_count: u32,
    hot: ThresholdUnit,
    cool: ThresholdUnit,
    trip_run: u32,
    trip_persistence: u32,
    tripped: bool,
}

impl ThresholdGovernor {
    /// Builds a governor for one node, deriving integer count set-points
    /// from that node's own oscillator calibration (process variation is
    /// thereby cancelled, as on the real fabric).
    ///
    /// `ceiling_mhz` caps up-steps — the governor throttles and recovers
    /// but never overclocks past the node's configured frequency.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`GovernorConfig::validate`]).
    pub fn new(
        cfg: &GovernorConfig,
        thermal: &ThermalConfig,
        oscillator: &RingOscillator,
        ceiling_mhz: u16,
    ) -> Self {
        cfg.validate();
        Self {
            ladder: cfg.freq_ladder.clone(),
            ceiling_mhz,
            freq_mhz: ceiling_mhz,
            warn_count: oscillator.count(thermal.warn_temp_c),
            recover_count: oscillator.count(thermal.warn_temp_c - cfg.recover_margin_k),
            trip_count: oscillator.count(thermal.trip_temp_c),
            hot: ThresholdUnit::new(cfg.hot_fire),
            cool: ThresholdUnit::new(cfg.cool_fire),
            trip_run: 0,
            trip_persistence: cfg.trip_persistence,
            tripped: false,
        }
    }

    /// The frequency this governor believes the node is running at.
    pub fn frequency_mhz(&self) -> u16 {
        self.freq_mhz
    }

    /// Whether this governor has shut its node down.
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    fn step_down(&self) -> Option<u16> {
        self.ladder
            .iter()
            .rev()
            .find(|&&f| f < self.freq_mhz)
            .copied()
    }

    fn step_up(&self) -> Option<u16> {
        self.ladder
            .iter()
            .find(|&&f| f > self.freq_mhz && f <= self.ceiling_mhz)
            .copied()
    }

    /// Consumes one raw sensor count — exactly what the hardware AIM
    /// would read from the fabric monitor — and returns the knob
    /// decision.
    pub fn scan(&mut self, sensor_count: u32) -> ThermalAction {
        if self.tripped {
            return ThermalAction::None;
        }
        // Critical persistence counter: sustained trip-level heat kills
        // the node (controlled shutdown beats silicon failure).
        if sensor_count <= self.trip_count {
            self.trip_run += 1;
            if self.trip_run >= self.trip_persistence {
                self.tripped = true;
                return ThermalAction::Shutdown;
            }
        } else {
            self.trip_run = 0;
        }
        // Hot comparator: excite at/above warn, decay below.
        if sensor_count <= self.warn_count {
            self.hot.excite(1);
            self.cool.reset();
        } else {
            self.hot.inhibit(1);
        }
        // Cool comparator: excite only below the recovery point.
        if sensor_count > self.recover_count {
            self.cool.excite(1);
        } else {
            self.cool.inhibit(1);
        }
        if self.hot.fired() {
            self.hot.reset();
            self.cool.reset();
            if let Some(f) = self.step_down() {
                self.freq_mhz = f;
                return ThermalAction::SetFrequency(f);
            }
            return ThermalAction::None;
        }
        if self.cool.fired() {
            self.cool.reset();
            if let Some(f) = self.step_up() {
                self.freq_mhz = f;
                return ThermalAction::SetFrequency(f);
            }
        }
        ThermalAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::SensorConfig;

    fn setup() -> (ThermalConfig, RingOscillator) {
        (
            ThermalConfig::default(),
            RingOscillator::new(SensorConfig::default(), 1.0),
        )
    }

    fn gov(ceiling: u16) -> (ThresholdGovernor, ThermalConfig, RingOscillator) {
        let (thermal, ro) = setup();
        let g = ThresholdGovernor::new(&GovernorConfig::default(), &thermal, &ro, ceiling);
        (g, thermal, ro)
    }

    #[test]
    fn sustained_heat_walks_down_the_ladder() {
        let (mut g, thermal, ro) = gov(300);
        let hot = ro.count(thermal.warn_temp_c + 3.0);
        let mut freqs = Vec::new();
        for _ in 0..30 {
            if let ThermalAction::SetFrequency(f) = g.scan(hot) {
                freqs.push(f);
            }
        }
        assert!(freqs.len() >= 3, "repeated down-steps, got {freqs:?}");
        assert!(freqs.windows(2).all(|w| w[1] < w[0]), "monotone descent");
        assert_eq!(freqs[0], 250, "first step from 300 lands on 250");
    }

    #[test]
    fn ladder_floor_is_never_left() {
        let (mut g, thermal, ro) = gov(300);
        let hot = ro.count(thermal.warn_temp_c + 5.0);
        for _ in 0..200 {
            g.scan(hot);
        }
        assert_eq!(g.frequency_mhz(), 10, "pinned at the ladder floor");
    }

    #[test]
    fn recovery_steps_up_but_respects_ceiling() {
        let (mut g, thermal, ro) = gov(100);
        // Force it down two rungs first.
        let hot = ro.count(thermal.warn_temp_c + 3.0);
        for _ in 0..8 {
            g.scan(hot);
        }
        let throttled = g.frequency_mhz();
        assert!(throttled < 100);
        // Long cool phase: recovers, but never past the 100 MHz ceiling.
        let cold = ro.count(thermal.warn_temp_c - 30.0);
        for _ in 0..500 {
            g.scan(cold);
        }
        assert_eq!(g.frequency_mhz(), 100, "recovers exactly to ceiling");
    }

    #[test]
    fn hysteresis_band_blocks_up_steps() {
        let (mut g, thermal, ro) = gov(300);
        let hot = ro.count(thermal.warn_temp_c + 3.0);
        for _ in 0..4 {
            g.scan(hot);
        }
        let throttled = g.frequency_mhz();
        assert!(throttled < 300);
        // Inside the recovery band (warn - margin < T < warn): no change.
        let lukewarm = ro.count(thermal.warn_temp_c - 5.0);
        for _ in 0..500 {
            assert_eq!(g.scan(lukewarm), ThermalAction::None);
        }
        assert_eq!(g.frequency_mhz(), throttled, "held inside the band");
    }

    #[test]
    fn trip_requires_persistence() {
        let (mut g, thermal, ro) = gov(300);
        let critical = ro.count(thermal.trip_temp_c + 1.0);
        let mild = ro.count(thermal.warn_temp_c - 20.0);
        // Two critical scans, then a cool one: the run resets.
        assert_ne!(g.scan(critical), ThermalAction::Shutdown);
        assert_ne!(g.scan(critical), ThermalAction::Shutdown);
        assert_ne!(g.scan(mild), ThermalAction::Shutdown);
        assert!(!g.is_tripped());
        // Three consecutive critical scans trip.
        g.scan(critical);
        g.scan(critical);
        assert_eq!(g.scan(critical), ThermalAction::Shutdown);
        assert!(g.is_tripped());
        // A tripped governor is silent forever.
        assert_eq!(g.scan(critical), ThermalAction::None);
    }

    #[test]
    fn process_variation_cancelled_by_per_instance_setpoints() {
        // A slow-corner and a fast-corner oscillator at the same die
        // temperature must produce the same governor behaviour.
        let thermal = ThermalConfig::default();
        let slow = RingOscillator::new(SensorConfig::default(), 0.99);
        let fast = RingOscillator::new(SensorConfig::default(), 1.01);
        let cfg = GovernorConfig::default();
        let mut g_slow = ThresholdGovernor::new(&cfg, &thermal, &slow, 300);
        let mut g_fast = ThresholdGovernor::new(&cfg, &thermal, &fast, 300);
        let t = thermal.warn_temp_c + 4.0;
        for _ in 0..10 {
            assert_eq!(g_slow.scan(slow.count(t)), g_fast.scan(fast.count(t)));
        }
        assert_eq!(g_slow.frequency_mhz(), g_fast.frequency_mhz());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_ladder_rejected() {
        let (thermal, ro) = setup();
        let cfg = GovernorConfig {
            freq_ladder: vec![100, 50],
            ..GovernorConfig::default()
        };
        ThresholdGovernor::new(&cfg, &thermal, &ro, 300);
    }
}
