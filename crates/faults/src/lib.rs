//! Fault models, generators and schedules for the SIRTM platform.
//!
//! The paper's fault model is "multiple node failures" injected at 500 ms
//! through the experiment controller's debug interface — 5 faults standing
//! for local application faults, 42 (a third of Centurion) for the failure
//! of a global clock buffer, other critical global circuitry, or a thermal
//! issue. This crate provides those generators (uniform-random nodes,
//! contiguous clock regions, thermal hotspots), richer fault kinds (PE
//! dead/hang, whole tile, link down), and timed schedules that a harness
//! applies while a [`Platform`] runs.

use sirtm_centurion::Platform;
use sirtm_noc::{Cycle, Direction, NodeId, Port, RcapCommand};
use sirtm_rng::Rng;
use sirtm_taskgraph::GridDims;

/// What breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The processing element dies; its router keeps routing through
    /// traffic (the paper's node-fault model).
    PeDead,
    /// The PE hangs with state retained: it stops processing but its AIM
    /// still advertises the task — a *lying* fault, strictly harder than
    /// a clean death.
    PeHang,
    /// The whole tile dies: PE and router (global-circuitry failures).
    TileDead,
    /// One link direction is severed (the router port is disabled).
    LinkDown(Direction),
}

/// One fault to apply to one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Affected node.
    pub node: NodeId,
    /// Failure mode.
    pub kind: FaultKind,
}

impl Fault {
    /// Applies this fault to a platform through the debug interface.
    pub fn apply(&self, platform: &mut Platform) {
        match self.kind {
            FaultKind::PeDead => platform.kill_pe(self.node),
            FaultKind::PeHang => platform.hang_pe(self.node),
            FaultKind::TileDead => platform.kill_tile(self.node),
            FaultKind::LinkDown(dir) => {
                platform.apply_config_direct(
                    self.node,
                    RcapCommand::SetPortEnabled(Port::from(dir), false),
                );
            }
        }
    }
}

/// A timed set of faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection instant in cycles.
    pub at: Cycle,
    /// Faults applied at that instant.
    pub faults: Vec<Fault>,
}

/// An ordered fault schedule, applied as the simulation passes each
/// event's instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    next: usize,
}

impl FaultSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a schedule from events (sorted by time internally).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self { events, next: 0 }
    }

    /// Adds an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by_key(|e| e.at);
    }

    /// Total faults across all events.
    pub fn fault_count(&self) -> usize {
        self.events.iter().map(|e| e.faults.len()).sum()
    }

    /// Whether all events have fired.
    pub fn exhausted(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Applies every event whose instant is `<= platform.now()`; returns
    /// the number of faults applied. Call once per window (or per cycle).
    pub fn poll(&mut self, platform: &mut Platform) -> usize {
        let now = platform.now();
        let mut applied = 0;
        while self.next < self.events.len() && self.events[self.next].at <= now {
            for f in &self.events[self.next].faults {
                f.apply(platform);
                applied += 1;
            }
            self.next += 1;
        }
        applied
    }

    /// Rewinds the schedule (for replaying on a fresh platform).
    pub fn reset(&mut self) {
        self.next = 0;
    }
}

/// Generators reproducing the paper's fault scenarios.
pub mod generators {
    use super::*;

    /// `n` distinct uniformly random nodes (the paper's random node
    /// failures). Asking for more nodes than the grid holds faults the
    /// whole grid, each node once, instead of panicking. Every
    /// oversized kill request in a scenario saturates through this rule.
    pub fn random_nodes<R: Rng>(
        dims: GridDims,
        n: usize,
        kind: FaultKind,
        rng: &mut R,
    ) -> Vec<Fault> {
        rng.sample_indices(dims.len(), n.min(dims.len()))
            .into_iter()
            .map(|i| Fault {
                node: NodeId::new(i as u16),
                kind,
            })
            .collect()
    }

    /// A contiguous band of full rows — the paper's "failure of a global
    /// clock buffer \[or\] other critical global circuitry": clock spines
    /// feed contiguous regions, so the dead set is spatially correlated.
    ///
    /// # Panics
    ///
    /// Panics if the band exceeds the grid.
    pub fn clock_region(dims: GridDims, first_row: u16, rows: u16, kind: FaultKind) -> Vec<Fault> {
        assert!(
            first_row + rows <= dims.height(),
            "clock region outside grid"
        );
        let mut faults = Vec::new();
        for y in first_row..first_row + rows {
            for x in 0..dims.width() {
                faults.push(Fault {
                    node: NodeId::new(dims.index(x, y) as u16),
                    kind,
                });
            }
        }
        faults
    }

    /// All nodes within Manhattan `radius` of a centre — a thermal
    /// hotspot taking out a disc of the die.
    pub fn hotspot(dims: GridDims, centre: NodeId, radius: u32, kind: FaultKind) -> Vec<Fault> {
        (0..dims.len())
            .filter(|&i| dims.manhattan(centre.index(), i) <= radius)
            .map(|i| Fault {
                node: NodeId::new(i as u16),
                kind,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_centurion::PlatformConfig;
    use sirtm_core::models::ModelKind;
    use sirtm_rng::Xoshiro256StarStar;
    use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
    use sirtm_taskgraph::Mapping;

    fn platform() -> Platform {
        let cfg = PlatformConfig::default();
        let g = fork_join(&ForkJoinParams::default());
        let mapping = Mapping::heuristic(&g, cfg.dims);
        Platform::new(g, &mapping, &ModelKind::NoIntelligence, cfg)
    }

    #[test]
    fn random_nodes_are_distinct_and_sized() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let faults =
            generators::random_nodes(GridDims::new(8, 16), 42, FaultKind::PeDead, &mut rng);
        assert_eq!(faults.len(), 42);
        let mut nodes: Vec<_> = faults.iter().map(|f| f.node).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 42);
    }

    #[test]
    fn random_nodes_saturate_at_the_grid_size() {
        // The saturation rule every oversized kill request follows: a
        // request larger than the grid takes out every node instead of
        // panicking.
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let faults =
            generators::random_nodes(GridDims::new(4, 4), 500, FaultKind::PeDead, &mut rng);
        assert_eq!(faults.len(), 16);
        let mut nodes: Vec<_> = faults.iter().map(|f| f.node).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 16, "the whole grid, each node once");
    }

    #[test]
    fn clock_region_covers_full_rows() {
        let faults = generators::clock_region(GridDims::new(8, 16), 4, 5, FaultKind::TileDead);
        assert_eq!(faults.len(), 40, "5 rows x 8 columns");
        assert!(faults.iter().all(|f| {
            let row = f.node.index() / 8;
            (4..9).contains(&row)
        }));
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn clock_region_out_of_bounds_panics() {
        generators::clock_region(GridDims::new(8, 16), 14, 5, FaultKind::PeDead);
    }

    #[test]
    fn hotspot_is_a_manhattan_disc() {
        let dims = GridDims::new(8, 16);
        let centre = NodeId::new(dims.index(4, 8) as u16);
        let faults = generators::hotspot(dims, centre, 2, FaultKind::PeDead);
        // Manhattan disc radius 2 fully inside the grid: 13 nodes.
        assert_eq!(faults.len(), 13);
        assert!(faults
            .iter()
            .all(|f| dims.manhattan(centre.index(), f.node.index()) <= 2));
    }

    #[test]
    fn schedule_applies_at_the_right_time() {
        let mut p = platform();
        let mut schedule = FaultSchedule::from_events(vec![FaultEvent {
            at: p.config().ms_to_cycles(5.0),
            faults: vec![Fault {
                node: NodeId::new(3),
                kind: FaultKind::PeDead,
            }],
        }]);
        p.run_ms(4.0);
        assert_eq!(schedule.poll(&mut p), 0, "too early");
        assert!(p.pe(NodeId::new(3)).is_alive());
        p.run_ms(2.0);
        assert_eq!(schedule.poll(&mut p), 1);
        assert!(!p.pe(NodeId::new(3)).is_alive());
        assert!(schedule.exhausted());
        assert_eq!(schedule.poll(&mut p), 0, "events fire once");
    }

    #[test]
    fn schedule_orders_events_and_counts() {
        let mk = |at, node| FaultEvent {
            at,
            faults: vec![Fault {
                node: NodeId::new(node),
                kind: FaultKind::PeDead,
            }],
        };
        let mut s = FaultSchedule::from_events(vec![mk(500, 1), mk(100, 2)]);
        assert_eq!(s.fault_count(), 2);
        let mut p = platform();
        p.run_ms(2.0);
        assert_eq!(s.poll(&mut p), 1, "only the 100-cycle event fires");
        assert!(!p.pe(NodeId::new(2)).is_alive());
        assert!(p.pe(NodeId::new(1)).is_alive());
    }

    #[test]
    fn pe_hang_keeps_advertising() {
        let mut p = platform();
        let victim = NodeId::new(10);
        let task_before = p.pe(victim).task();
        Fault {
            node: victim,
            kind: FaultKind::PeHang,
        }
        .apply(&mut p);
        assert!(p.pe(victim).is_alive(), "hang is not death");
        assert_eq!(p.pe(victim).task(), task_before, "still advertises");
        assert!(!p.pe(victim).clock_enabled());
    }

    #[test]
    fn tile_dead_kills_router_too() {
        let mut p = platform();
        let victim = NodeId::new(20);
        Fault {
            node: victim,
            kind: FaultKind::TileDead,
        }
        .apply(&mut p);
        assert!(!p.pe(victim).is_alive());
        assert!(!p.router(victim).settings().alive);
    }

    #[test]
    fn link_down_disables_the_port() {
        let mut p = platform();
        let victim = NodeId::new(30);
        Fault {
            node: victim,
            kind: FaultKind::LinkDown(Direction::East),
        }
        .apply(&mut p);
        assert!(!p.router(victim).settings().port_enabled[Port::East.index()]);
    }
}
