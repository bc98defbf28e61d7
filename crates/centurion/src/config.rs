//! Platform configuration and the Centurion hardware constants.

use sirtm_noc::Cycle;
use sirtm_taskgraph::GridDims;

/// Cycles between AIM scans of one node (0.1 ms at the default time
/// base). Scans are phase-staggered across nodes, as unsynchronised
/// hardware AIMs would be.
pub const AIM_PERIOD: u32 = 10;
/// Cycles between gossip directory updates.
pub const GOSSIP_PERIOD: u32 = 10;
/// Nominal node clock in MHz (task service times are specified at this
/// frequency).
pub const NOMINAL_MHZ: u16 = 100;
/// DVFS range in MHz (the paper's knob: 10–300 MHz).
pub const FREQ_RANGE_MHZ: (u16, u16) = (10, 300);
/// Work queue capacity per node, in packets; overflowing deliveries
/// bounce to another instance of the task.
pub const QUEUE_CAP: usize = 12;
/// Foreign (mis-delivered) packet buffer capacity per node.
pub const FOREIGN_CAP: usize = 16;
/// Maximum bounces before a packet is dropped.
pub const MAX_BOUNCES: u8 = 3;
/// Freshness window (cycles) of the router's recent-routed demand latch
/// as seen by the AIM; older demand evidence reads as absent (20 ms at
/// the default time base).
pub const RECENT_DEMAND_WINDOW: Cycle = 2000;
/// Work-proportional feed gain: an accepted data packet earns
/// `multiplier × service_scans` of FFW commitment, so a node stays
/// committed only while its utilisation exceeds roughly `1 / multiplier`
/// (here 50%). Acks always rearm fully.
pub const FEED_GAIN_MULTIPLIER: u32 = 2;

/// Configuration of a [`Platform`]: the two things an experiment may
/// vary. Everything else is a constant of the Centurion-V6 hardware (see
/// the crate-level constants). Defaults reproduce the paper's platform:
/// an 8×16 grid of 128 nodes and a 10 µs NoC cycle (100 cycles per
/// millisecond).
///
/// [`Platform`]: crate::Platform
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformConfig {
    /// Grid dimensions (8×16 = 128 nodes).
    pub dims: GridDims,
    /// Simulated cycles per millisecond: the time base that converts the
    /// paper's millisecond parameters to cycles.
    pub cycles_per_ms: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            dims: GridDims::new(8, 16),
            cycles_per_ms: 100,
        }
    }
}

impl PlatformConfig {
    /// Converts milliseconds of simulated time to cycles.
    pub fn ms_to_cycles(&self, ms: f64) -> Cycle {
        (ms * self.cycles_per_ms as f64).round() as Cycle
    }

    /// Converts cycles to milliseconds of simulated time.
    pub fn cycles_to_ms(&self, cycles: Cycle) -> f64 {
        cycles as f64 / self.cycles_per_ms as f64
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero time base — a construction-time programming
    /// error.
    pub fn validate(&self) {
        assert!(self.cycles_per_ms > 0, "cycles_per_ms must be non-zero");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let cfg = PlatformConfig::default();
        cfg.validate();
        assert_eq!(cfg.dims.len(), 128);
        assert_eq!(cfg.ms_to_cycles(4.0), 400, "4 ms generation period");
    }

    #[test]
    fn time_conversions_roundtrip() {
        let cfg = PlatformConfig::default();
        assert_eq!(cfg.cycles_to_ms(cfg.ms_to_cycles(500.0)), 500.0);
    }

    #[test]
    #[should_panic(expected = "cycles_per_ms")]
    fn zero_time_base_rejected() {
        let cfg = PlatformConfig {
            cycles_per_ms: 0,
            ..PlatformConfig::default()
        };
        cfg.validate();
    }
}
