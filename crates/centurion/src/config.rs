//! Platform configuration.

use sirtm_noc::{Cycle, RouterConfig};
use sirtm_taskgraph::GridDims;

/// Configuration of a [`Platform`]. Defaults reproduce the paper's
/// Centurion-V6: an 8×16 grid of 128 nodes, a 10 µs NoC cycle (100 cycles
/// per millisecond), AIM scans every 10 cycles (0.1 ms) and node clocks
/// scalable between 10 and 300 MHz around a 100 MHz nominal.
///
/// [`Platform`]: crate::Platform
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformConfig {
    /// Grid dimensions (8×16 = 128 nodes).
    pub dims: GridDims,
    /// Simulated cycles per millisecond: the time base that converts the
    /// paper's millisecond parameters to cycles.
    pub cycles_per_ms: u32,
    /// Router configuration. The platform overrides the task count from
    /// the graph, and enables task-affine opportunistic delivery exactly
    /// when the colony is adaptive (never for the No-Intelligence
    /// baseline).
    pub router: RouterConfig,
    /// Cycles between AIM scans of one node. Scans are phase-staggered
    /// across nodes, as unsynchronised hardware AIMs would be.
    pub aim_period: u32,
    /// Cycles between gossip directory updates.
    pub gossip_period: u32,
    /// Nominal node clock in MHz (task service times are specified at
    /// this frequency).
    pub nominal_mhz: u16,
    /// DVFS range in MHz (the paper's knob: 10–300 MHz).
    pub freq_range_mhz: (u16, u16),
    /// Work queue capacity per node, in packets; overflowing deliveries
    /// bounce to another instance of the task.
    pub queue_cap: usize,
    /// Foreign (mis-delivered) packet buffer capacity per node.
    pub foreign_cap: usize,
    /// Maximum bounces before a packet is dropped.
    pub max_bounces: u8,
    /// Maximum directory entry distance (staleness bound, in hops).
    pub dir_dist_max: u8,
    /// Freshness window (cycles) of the router's recent-routed demand
    /// latch as seen by the AIM; older demand evidence reads as absent.
    pub recent_demand_window: Cycle,
    /// Work-proportional feed gain: an accepted data packet earns
    /// `multiplier × service_scans` of FFW commitment, so a node stays
    /// committed only while its utilisation exceeds roughly
    /// `1 / multiplier`. Acks always rearm fully.
    pub feed_gain_multiplier: u32,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        let dims = GridDims::new(8, 16);
        Self {
            dims,
            cycles_per_ms: 100,
            router: RouterConfig::default(),
            aim_period: 10,
            gossip_period: 10,
            nominal_mhz: 100,
            freq_range_mhz: (10, 300),
            queue_cap: 12,
            foreign_cap: 16,
            max_bounces: 3,
            dir_dist_max: (dims.width() + dims.height() + 4).min(255) as u8,
            recent_demand_window: 2000, // 20 ms at the default time base
            feed_gain_multiplier: 2,    // commitment while >~50% utilised
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

    /// The paper's FFW timeout (20 ms) expressed in AIM scans under this
    /// configuration.
    pub fn ffw_timeout_scans(&self, timeout_ms: f64) -> u8 {
        let cycles = self.ms_to_cycles(timeout_ms);
        (cycles / self.aim_period as u64).min(255) as u8
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero periods or an inverted frequency range — these are
    /// construction-time programming errors.
    pub fn validate(&self) {
        assert!(self.cycles_per_ms > 0, "cycles_per_ms must be non-zero");
        assert!(self.aim_period > 0, "aim_period must be non-zero");
        assert!(self.gossip_period > 0, "gossip_period must be non-zero");
        assert!(
            self.freq_range_mhz.0 <= self.freq_range_mhz.1,
            "frequency range inverted"
        );
        assert!(
            (self.freq_range_mhz.0..=self.freq_range_mhz.1).contains(&self.nominal_mhz),
            "nominal frequency outside DVFS range"
        );
        assert!(self.queue_cap > 0, "queue_cap must be non-zero");
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
        assert_eq!(cfg.ffw_timeout_scans(20.0), 200, "20 ms FFW timeout");
    }

    #[test]
    fn time_conversions_roundtrip() {
        let cfg = PlatformConfig::default();
        assert_eq!(cfg.cycles_to_ms(cfg.ms_to_cycles(500.0)), 500.0);
    }

    #[test]
    #[should_panic(expected = "aim_period")]
    fn zero_aim_period_rejected() {
        let cfg = PlatformConfig {
            aim_period: 0,
            ..PlatformConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "frequency range")]
    fn inverted_freq_range_rejected() {
        let cfg = PlatformConfig {
            freq_range_mhz: (300, 10),
            ..PlatformConfig::default()
        };
        cfg.validate();
    }
}
