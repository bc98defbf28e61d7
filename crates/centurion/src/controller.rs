//! The experiment controller (§III of the paper).
//!
//! A larger AXI MicroBlaze outside the grid manages experiments: it can
//! inject and receive packets through the north ports of four top-row
//! routers, and it has a dedicated debug interface that reads node state
//! and sets parameters at runtime "without interfering with the NoC
//! traffic of active experiments". [`ExperimentController`] reproduces
//! both paths on top of [`Platform`].

use sirtm_noc::{NodeId, RcapCommand};
use sirtm_taskgraph::GridDims;

use crate::platform::{NodeSnapshot, Platform};

/// The experiment controller attached to the grid's north edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentController {
    taps: [NodeId; 4],
}

impl ExperimentController {
    /// Creates a controller with four evenly spaced north-edge taps
    /// (the paper attaches to four otherwise-unconnected north ports of
    /// the top row).
    ///
    /// # Panics
    ///
    /// Panics if the grid is narrower than 4 columns.
    pub fn new(dims: GridDims) -> Self {
        assert!(dims.width() >= 4, "controller needs at least 4 columns");
        let w = dims.width() as usize;
        let taps = std::array::from_fn(|i| {
            // Even spread across the top row: columns at (2i+1)·w/8.
            let col = ((2 * i + 1) * w) / 8;
            NodeId::new(col as u16)
        });
        Self { taps }
    }

    /// The four tap nodes on the top row.
    pub fn taps(&self) -> [NodeId; 4] {
        self.taps
    }

    /// Sends a configuration command in-band: injected at the tap nearest
    /// the destination column and routed to the target RCAP like any other
    /// packet (this *does* occupy NoC links).
    pub fn configure_in_band(&self, platform: &mut Platform, dest: NodeId, cmd: RcapCommand) {
        let dims = platform.config().dims;
        let (dest_x, _) = dims.xy(dest.index());
        let tap = *self
            .taps
            .iter()
            .min_by_key(|t| {
                let (tx, _) = dims.xy(t.index());
                tx.abs_diff(dest_x)
            })
            .expect("four taps exist");
        platform.send_config(tap, dest, cmd);
    }

    /// Applies a configuration out-of-band through the debug interface
    /// (no NoC traffic).
    pub fn configure_debug(&self, platform: &mut Platform, dest: NodeId, cmd: RcapCommand) {
        platform.apply_config_direct(dest, cmd);
    }

    /// Reads every node's state through the debug interface.
    pub fn scan_grid(&self, platform: &Platform) -> Vec<NodeSnapshot> {
        (0..platform.config().dims.len())
            .map(|i| platform.node_snapshot(NodeId::new(i as u16)))
            .collect()
    }

    /// Injects a fault set at runtime through the debug interface — the
    /// paper's fault-injection path ("parameters to be set at runtime
    /// (e.g. for fault injection) without interfering with the NoC
    /// traffic").
    pub fn inject_pe_faults(&self, platform: &mut Platform, nodes: &[NodeId]) {
        for &n in nodes {
            platform.kill_pe(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_core::models::ModelKind;
    use sirtm_noc::Port;
    use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
    use sirtm_taskgraph::Mapping;

    use crate::config::PlatformConfig;

    fn platform() -> Platform {
        let cfg = PlatformConfig::default();
        let g = fork_join(&ForkJoinParams::default());
        let mapping = Mapping::heuristic(&g, cfg.dims);
        Platform::new(g, &mapping, &ModelKind::NoIntelligence, cfg)
    }

    #[test]
    fn taps_are_on_the_top_row_and_spread() {
        let c = ExperimentController::new(GridDims::new(8, 16));
        let taps = c.taps();
        for t in taps {
            assert!(t.index() < 8, "tap {t} must be on row 0");
        }
        let mut sorted = taps.to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "taps are distinct");
    }

    #[test]
    fn in_band_configuration_reaches_target() {
        let mut p = platform();
        let c = ExperimentController::new(p.config().dims);
        let dest = NodeId::new(77);
        c.configure_in_band(
            &mut p,
            dest,
            RcapCommand::SetPortEnabled(Port::North, false),
        );
        p.run_ms(5.0);
        assert!(!p.router(dest).settings().port_enabled[Port::North.index()]);
    }

    #[test]
    fn debug_configuration_is_immediate_and_trafficless() {
        let mut p = platform();
        let c = ExperimentController::new(p.config().dims);
        let injected_before = p.mesh_stats().injected;
        c.configure_debug(
            &mut p,
            NodeId::new(50),
            RcapCommand::SetPortEnabled(Port::South, false),
        );
        assert!(!p.router(NodeId::new(50)).settings().port_enabled[Port::South.index()]);
        assert_eq!(p.mesh_stats().injected, injected_before, "no NoC traffic");
    }

    #[test]
    fn grid_scan_reports_every_node() {
        let p = platform();
        let c = ExperimentController::new(p.config().dims);
        let snaps = c.scan_grid(&p);
        assert_eq!(snaps.len(), 128);
        assert!(snaps.iter().all(|s| s.alive));
    }

    #[test]
    fn fault_injection_kills_exactly_the_targets() {
        let mut p = platform();
        let c = ExperimentController::new(p.config().dims);
        let victims = [NodeId::new(3), NodeId::new(64), NodeId::new(100)];
        c.inject_pe_faults(&mut p, &victims);
        assert_eq!(p.alive_count(), 125);
        for v in victims {
            assert!(!p.pe(v).is_alive());
        }
    }
}
