//! Physics-driven fault scenarios.
//!
//! The paper motivates its 42-fault experiment as "a failure of a global
//! clock buffer, other critical global circuitry, or a thermal issue".
//! The clock-region generator in [`sirtm_faults::generators`] covers the
//! first two; this module covers the third *from physics* instead of by
//! fiat: an unmanaged, overclocked colony is run against the thermal
//! network, the tiles that exceed the critical temperature are the
//! victims, and the result is packaged as a [`FaultSchedule`] for the
//! recovery experiments. The dead set is spatially correlated the way a
//! real thermal event is — it follows the workload's power map, not a
//! uniform random draw.

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::ModelKind;
use sirtm_faults::{Fault, FaultEvent, FaultKind, FaultSchedule};
use sirtm_noc::{Cycle, NodeId};
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::{Mapping, TaskGraph};

use crate::config::{ThermalConfig, TRIP_TEMP_C};
use crate::coupling::ThermalLoop;

/// Parameters of the runaway pre-run that discovers the victim set.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalScenario {
    /// Platform configuration of the pre-run (grid must match the
    /// thermal configuration it is evaluated against).
    pub platform: PlatformConfig,
    /// Clock applied to every node during the runaway, in MHz. The
    /// default of 255 MHz burns roughly a third of the default 8×16
    /// grid — the paper's "1/3 of Centurion" fault magnitude.
    pub overclock_mhz: u16,
    /// Source generation period of the stress workload, in cycles (small
    /// values saturate the worker stage — a power virus).
    pub generation_period: u32,
    /// How long to run the unmanaged physics, in simulated ms.
    pub runaway_ms: f64,
    /// Restrict the overclock to a band of full rows `(first_row,
    /// rows)`; the rest of the die stays at its nominal clock. `None`
    /// overclocks everything. A misconfigured clock region that
    /// overvolts one spine is exactly the "global clock buffer" failure
    /// the paper pairs with its thermal case — here the two are the same
    /// physical event.
    pub overclock_rows: Option<(u16, u16)>,
}

impl Default for ThermalScenario {
    fn default() -> Self {
        Self {
            platform: PlatformConfig::default(),
            overclock_mhz: 255,
            generation_period: 40,
            runaway_ms: 600.0,
            overclock_rows: None,
        }
    }
}

/// What the runaway pre-run found.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalScenarioReport {
    /// Victims with the simulated instant (ms into the pre-run) each
    /// first crossed the trip temperature, in crossing order.
    pub victims: Vec<(f64, NodeId)>,
    /// Peak die temperature reached during the pre-run, °C.
    pub peak_temp_c: f64,
    /// Mean die temperature at the end of the pre-run, °C.
    pub final_mean_temp_c: f64,
}

impl ThermalScenarioReport {
    /// The victim set without timing, in crossing order.
    pub fn victim_nodes(&self) -> Vec<NodeId> {
        self.victims.iter().map(|&(_, n)| n).collect()
    }
}

/// The stress workload of the runaway pre-run: the Fig. 3 fork-join at
/// `generation_period`, placed with the Manhattan heuristic.
pub fn stress_graph(generation_period: u32) -> TaskGraph {
    fork_join(&ForkJoinParams {
        generation_period,
        ..ForkJoinParams::default()
    })
}

/// Runs the unmanaged runaway and converts the tiles that crossed the
/// trip temperature into a [`FaultSchedule`] firing at `fault_at` —
/// the paper's protocol (all faults injected at a single instant).
///
/// # Examples
///
/// ```
/// use sirtm_thermal::{thermal_fault_scenario, ThermalConfig, ThermalScenario};
///
/// let thermal = ThermalConfig::default();
/// let scenario = ThermalScenario::default();
/// let (schedule, report) = thermal_fault_scenario(&scenario, &thermal, 50_000);
/// assert_eq!(schedule.fault_count(), report.victims.len());
/// assert!(!report.victims.is_empty(), "an unmanaged overclock must burn");
/// ```
///
/// # Panics
///
/// Panics if the scenario's platform grid differs from `thermal.dims`,
/// or cannot hold one instance of the [`stress_graph`].
pub fn thermal_fault_scenario(
    scenario: &ThermalScenario,
    thermal: &ThermalConfig,
    fault_at: Cycle,
) -> (FaultSchedule, ThermalScenarioReport) {
    let graph = stress_graph(scenario.generation_period);
    let mapping = Mapping::heuristic(&graph, scenario.platform.dims);
    let mut platform = Platform::new(
        graph,
        &mapping,
        &ModelKind::NoIntelligence,
        scenario.platform.clone(),
    );
    for i in 0..scenario.platform.dims.len() {
        let (_, y) = scenario.platform.dims.xy(i);
        let in_region = scenario
            .overclock_rows
            .is_none_or(|(first, rows)| (first..first + rows).contains(&y));
        if in_region {
            platform.set_frequency(NodeId::new(i as u16), scenario.overclock_mhz);
        }
    }
    let mut sim = ThermalLoop::open(platform, thermal.clone());
    // Advance window by window, recording first trip-crossings per node.
    let n = thermal.dims.len();
    let mut crossed = vec![false; n];
    let mut victims = Vec::new();
    let mut elapsed = 0.0;
    while elapsed < scenario.runaway_ms {
        sim.run_ms(1.0);
        elapsed += 1.0;
        for (i, &t) in sim.grid().temps().iter().enumerate() {
            if !crossed[i] && t >= TRIP_TEMP_C {
                crossed[i] = true;
                victims.push((elapsed, NodeId::new(i as u16)));
            }
        }
    }
    let report = ThermalScenarioReport {
        peak_temp_c: sim.trace().peak_temp_c(),
        final_mean_temp_c: sim.grid().mean_temp(),
        victims: victims.clone(),
    };
    let faults = victims
        .iter()
        .map(|&(_, node)| Fault {
            node,
            kind: FaultKind::PeDead,
        })
        .collect();
    let schedule = FaultSchedule::from_events(vec![FaultEvent {
        at: fault_at,
        faults,
    }]);
    (schedule, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_taskgraph::GridDims;

    fn small() -> (ThermalScenario, ThermalConfig) {
        let dims = GridDims::new(4, 4);
        (
            ThermalScenario {
                platform: PlatformConfig {
                    dims,
                    ..PlatformConfig::default()
                },
                runaway_ms: 400.0,
                // The small grid loses more heat per tile to its idle
                // fringe; the full overclock is needed to reach trip.
                overclock_mhz: 300,
                ..ThermalScenario::default()
            },
            ThermalConfig { dims },
        )
    }

    #[test]
    fn runaway_produces_victims() {
        let (scenario, thermal) = small();
        let (schedule, report) = thermal_fault_scenario(&scenario, &thermal, 1000);
        assert!(!report.victims.is_empty(), "someone must burn");
        assert_eq!(schedule.fault_count(), report.victims.len());
        assert!(report.peak_temp_c > TRIP_TEMP_C);
    }

    #[test]
    fn victims_are_the_working_population() {
        // The stress workload loads the worker stage; dead tiles must be a
        // strict, non-empty subset (idle corners stay cooler).
        let (scenario, thermal) = small();
        let (_, report) = thermal_fault_scenario(&scenario, &thermal, 1000);
        let v = report.victims.len();
        assert!(v >= 2, "correlated region, got {v}");
        assert!(v < 16, "not the whole die, got {v}");
    }

    #[test]
    fn victims_ordered_by_crossing_time() {
        let (scenario, thermal) = small();
        let (_, report) = thermal_fault_scenario(&scenario, &thermal, 1000);
        assert!(report.victims.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn schedule_kills_exactly_the_victims() {
        let (scenario, thermal) = small();
        let (mut schedule, report) = thermal_fault_scenario(&scenario, &thermal, 200);
        let graph = fork_join(&ForkJoinParams::default());
        let mapping = Mapping::heuristic(&graph, scenario.platform.dims);
        let mut p = Platform::new(
            graph,
            &mapping,
            &ModelKind::NoIntelligence,
            scenario.platform.clone(),
        );
        p.run_ms(3.0);
        schedule.poll(&mut p);
        let dead: Vec<NodeId> = (0..16)
            .map(|i| NodeId::new(i as u16))
            .filter(|&n| !p.pe(n).is_alive())
            .collect();
        let mut expect = report.victim_nodes();
        expect.sort();
        let mut got = dead;
        got.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn regional_overclock_burns_only_near_the_region() {
        // A 4x8 die with rows 2..5 overclocked: enough hot mass to burn
        // (a 4x4 band bleeds too much heat into its cold fringe to trip).
        let dims = GridDims::new(4, 8);
        let scenario = ThermalScenario {
            platform: PlatformConfig {
                dims,
                ..PlatformConfig::default()
            },
            overclock_rows: Some((2, 3)),
            overclock_mhz: 300,
            runaway_ms: 600.0,
            ..ThermalScenario::default()
        };
        let thermal = ThermalConfig { dims };
        let (_, report) = thermal_fault_scenario(&scenario, &thermal, 1000);
        assert!(!report.victims.is_empty(), "the hot band must burn");
        // Lateral diffusion may drag an adjacent row over the edge, but
        // the far ends of the die must survive.
        for &(_, node) in &report.victims {
            let (_, y) = dims.xy(node.index());
            assert!(
                (1..=5).contains(&y),
                "victim {node} at row {y} is far outside the hot band"
            );
        }
        let victims = report.victims.len();
        assert!(
            victims < dims.len() / 2,
            "the cold fringe survives: {victims}"
        );
    }

    #[test]
    fn scenario_is_deterministic() {
        let (scenario, thermal) = small();
        let a = thermal_fault_scenario(&scenario, &thermal, 500);
        let b = thermal_fault_scenario(&scenario, &thermal, 500);
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.fault_count(), b.0.fault_count());
    }
}
