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

use sirtm_centurion::FREQ_RANGE_MHZ;

use crate::config::{TRIP_TEMP_C, WARN_TEMP_C};
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

/// Ascending DVFS ladder the governor steps along, in MHz. Its ends
/// are the platform's DVFS range.
pub const FREQ_LADDER_MHZ: [u16; 9] = [10, 25, 50, 75, 100, 150, 200, 250, 300];
/// Hot scans (sensor at/above warn) needed to fire a down-step.
pub const HOT_FIRE: u32 = 3;
/// Cool scans (sensor below recover point) needed to fire an up-step.
/// Much larger than [`HOT_FIRE`]: throttling must react fast, recovery
/// may be lazy.
pub const COOL_FIRE: u32 = 25;
/// Recovery margin below [`WARN_TEMP_C`], in K (hysteresis band).
pub const RECOVER_MARGIN_K: f64 = 10.0;
/// Consecutive scans at/above [`TRIP_TEMP_C`] before shutdown.
pub const TRIP_PERSISTENCE: u32 = 3;

const _: () = {
    assert!(
        FREQ_LADDER_MHZ[0] == FREQ_RANGE_MHZ.0
            && FREQ_LADDER_MHZ[FREQ_LADDER_MHZ.len() - 1] == FREQ_RANGE_MHZ.1,
        "the DVFS ladder must span the platform's DVFS range"
    );
    let mut i = 1;
    while i < FREQ_LADDER_MHZ.len() {
        assert!(
            FREQ_LADDER_MHZ[i - 1] < FREQ_LADDER_MHZ[i],
            "the DVFS ladder must be strictly ascending"
        );
        i += 1;
    }
};

/// The stimulus–threshold DVFS governor: one per node, one scan per
/// thermal window.
///
/// # Examples
///
/// ```
/// use sirtm_thermal::{RingOscillator, ThermalAction, ThresholdGovernor, WARN_TEMP_C};
///
/// let ro = RingOscillator::new(1.0);
/// let mut gov = ThresholdGovernor::new(&ro, 300);
///
/// // Three consecutive scans above the warn temperature fire a down-step.
/// let hot = ro.count(WARN_TEMP_C + 5.0);
/// assert_eq!(gov.scan(hot), ThermalAction::None);
/// assert_eq!(gov.scan(hot), ThermalAction::None);
/// assert_eq!(gov.scan(hot), ThermalAction::SetFrequency(250));
/// ```
#[derive(Debug, Clone)]
pub struct ThresholdGovernor {
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
    tripped: bool,
}

impl ThresholdGovernor {
    /// Builds a governor for one node, deriving integer count set-points
    /// from that node's own oscillator calibration (process variation is
    /// thereby cancelled, as on the real fabric).
    ///
    /// `ceiling_mhz` caps up-steps — the governor throttles and recovers
    /// but never overclocks past the node's configured frequency.
    pub fn new(oscillator: &RingOscillator, ceiling_mhz: u16) -> Self {
        Self {
            ceiling_mhz,
            freq_mhz: ceiling_mhz,
            warn_count: oscillator.count(WARN_TEMP_C),
            recover_count: oscillator.count(WARN_TEMP_C - RECOVER_MARGIN_K),
            trip_count: oscillator.count(TRIP_TEMP_C),
            hot: ThresholdUnit::new(HOT_FIRE),
            cool: ThresholdUnit::new(COOL_FIRE),
            trip_run: 0,
            tripped: false,
        }
    }

    /// The frequency this governor believes the node is running at.
    pub fn frequency_mhz(&self) -> u16 {
        self.freq_mhz
    }

    fn step_down(&self) -> Option<u16> {
        FREQ_LADDER_MHZ
            .iter()
            .rev()
            .find(|&&f| f < self.freq_mhz)
            .copied()
    }

    fn step_up(&self) -> Option<u16> {
        FREQ_LADDER_MHZ
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
            if self.trip_run >= TRIP_PERSISTENCE {
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

    fn gov(ceiling: u16) -> (ThresholdGovernor, RingOscillator) {
        let ro = RingOscillator::new(1.0);
        (ThresholdGovernor::new(&ro, ceiling), ro)
    }

    #[test]
    fn sustained_heat_walks_down_the_ladder() {
        let (mut g, ro) = gov(300);
        let hot = ro.count(WARN_TEMP_C + 3.0);
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
        let (mut g, ro) = gov(300);
        let hot = ro.count(WARN_TEMP_C + 5.0);
        for _ in 0..200 {
            g.scan(hot);
        }
        assert_eq!(g.frequency_mhz(), 10, "pinned at the ladder floor");
    }

    #[test]
    fn recovery_steps_up_but_respects_ceiling() {
        let (mut g, ro) = gov(100);
        // Force it down two rungs first.
        let hot = ro.count(WARN_TEMP_C + 3.0);
        for _ in 0..8 {
            g.scan(hot);
        }
        let throttled = g.frequency_mhz();
        assert!(throttled < 100);
        // Long cool phase: recovers, but never past the 100 MHz ceiling.
        let cold = ro.count(WARN_TEMP_C - 30.0);
        for _ in 0..500 {
            g.scan(cold);
        }
        assert_eq!(g.frequency_mhz(), 100, "recovers exactly to ceiling");
    }

    #[test]
    fn hysteresis_band_blocks_up_steps() {
        let (mut g, ro) = gov(300);
        let hot = ro.count(WARN_TEMP_C + 3.0);
        for _ in 0..4 {
            g.scan(hot);
        }
        let throttled = g.frequency_mhz();
        assert!(throttled < 300);
        // Inside the recovery band (warn - margin < T < warn): no change.
        let lukewarm = ro.count(WARN_TEMP_C - 5.0);
        for _ in 0..500 {
            assert_eq!(g.scan(lukewarm), ThermalAction::None);
        }
        assert_eq!(g.frequency_mhz(), throttled, "held inside the band");
    }

    #[test]
    fn trip_requires_persistence() {
        let (mut g, ro) = gov(300);
        let critical = ro.count(TRIP_TEMP_C + 1.0);
        let mild = ro.count(WARN_TEMP_C - 20.0);
        // Two critical scans, then a cool one: the run resets.
        assert_ne!(g.scan(critical), ThermalAction::Shutdown);
        assert_ne!(g.scan(critical), ThermalAction::Shutdown);
        assert_ne!(g.scan(mild), ThermalAction::Shutdown);
        // Three consecutive critical scans trip.
        assert_ne!(g.scan(critical), ThermalAction::Shutdown);
        assert_ne!(g.scan(critical), ThermalAction::Shutdown);
        assert_eq!(g.scan(critical), ThermalAction::Shutdown);
        // A tripped governor is silent forever.
        assert_eq!(g.scan(critical), ThermalAction::None);
    }

    #[test]
    fn process_variation_cancelled_by_per_instance_setpoints() {
        // A slow-corner and a fast-corner oscillator at the same die
        // temperature must produce the same governor behaviour.
        let slow = RingOscillator::new(0.99);
        let fast = RingOscillator::new(1.01);
        let mut g_slow = ThresholdGovernor::new(&slow, 300);
        let mut g_fast = ThresholdGovernor::new(&fast, 300);
        let t = WARN_TEMP_C + 4.0;
        for _ in 0..10 {
            assert_eq!(g_slow.scan(slow.count(t)), g_fast.scan(fast.count(t)));
        }
        assert_eq!(g_slow.frequency_mhz(), g_fast.frequency_mhz());
    }
}
