//! The named preset scenario library.
//!
//! Each preset is a ready-made [`ScenarioSpec`] reproducing a paper
//! configuration or exercising one event family; `scenarios list`
//! enumerates them and `scenarios run <name>` sweeps them. The
//! Table I/II reproductions are exposed as ready-made [`SweepSpec`]s so
//! the experiment tables are themselves just data.

use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_taskgraph::workloads::ForkJoinParams;
use sirtm_taskgraph::GridDims;

use crate::spec::{EventAction, EventSpec, ScenarioSpec, ThermalEventSpec, WorkloadSpec};
use crate::sweep::{Axis, SeedScheme, SweepSpec};

/// The preset names, in listing order.
pub const PRESET_NAMES: [&str; 7] = [
    "steady-state",
    "fault-storm",
    "thermal-throttle",
    "phase-shift",
    "churn",
    "light-4x4",
    "frontier-pinch",
];

/// One-line description of a preset.
///
/// # Panics
///
/// Panics on an unknown name (use [`preset`] for fallible lookup).
pub fn describe(name: &str) -> &'static str {
    match name {
        "steady-state" => {
            "FFW colony settling from a random topology, no perturbations (Table I row)"
        }
        "fault-storm" => "42 random PE deaths at 500 ms — the paper's 1/3-of-Centurion fault case",
        "thermal-throttle" => {
            "thermal runaway burns the hot region at 500 ms, then the die is throttled"
        }
        "phase-shift" => "source generation period halves at 500 ms — a workload phase change",
        "churn" => "repeated small kill waves every 150 ms from 300 ms on",
        "light-4x4" => "small, lightly-loaded 4x4 grid — the bench and smoke-test workhorse",
        "frontier-pinch" => {
            "fuzz-found corner-hotspot burn with no recovery runway (corpus pin 415f77c1e7e30a92)"
        }
        other => panic!("unknown preset `{other}`"),
    }
}

/// Looks up a preset scenario by name.
pub fn preset(name: &str) -> Option<ScenarioSpec> {
    let ffw = ModelKind::ForagingForWork(FfwConfig::default());
    let spec = match name {
        "steady-state" => {
            let mut s = ScenarioSpec::new("steady-state", ffw);
            s.duration_ms = 600.0;
            s
        }
        "fault-storm" => {
            let mut s = ScenarioSpec::new("fault-storm", ffw);
            s.settle_region_ms = Some(500.0);
            s.events = vec![EventSpec {
                at_ms: 500.0,
                action: EventAction::RandomPeFaults { count: 42 },
            }];
            s
        }
        "thermal-throttle" => {
            let mut s = ScenarioSpec::new("thermal-throttle", ffw);
            s.settle_region_ms = Some(500.0);
            s.events = vec![
                // The physics pre-run decides who burns; the survivors
                // are then throttled to stop the runaway recurring.
                EventSpec {
                    at_ms: 500.0,
                    action: EventAction::ThermalFaults(ThermalEventSpec::default()),
                },
                EventSpec {
                    at_ms: 500.0,
                    action: EventAction::SetFrequencyAll { mhz: 50 },
                },
            ];
            s
        }
        "phase-shift" => {
            let mut s = ScenarioSpec::new("phase-shift", ffw);
            s.settle_region_ms = Some(500.0);
            s.events = vec![EventSpec {
                at_ms: 500.0,
                action: EventAction::SetGenerationPeriod {
                    task: 0,
                    period_cycles: ForkJoinParams::default().generation_period / 2,
                },
            }];
            s
        }
        "churn" => {
            let mut s = ScenarioSpec::new("churn", ffw);
            s.settle_region_ms = Some(300.0);
            s.events = (0..4)
                .map(|i| EventSpec {
                    at_ms: 300.0 + 150.0 * i as f64,
                    action: EventAction::RandomPeFaults { count: 2 },
                })
                .collect();
            s
        }
        "light-4x4" => {
            let mut s = ScenarioSpec::new("light-4x4", ffw);
            s.platform.dims = GridDims::new(4, 4);
            s.workload = WorkloadSpec::ForkJoin(ForkJoinParams {
                generation_period: 1600, // a quarter of the paper's rate
                ..ForkJoinParams::default()
            });
            s.duration_ms = 120.0;
            s.window_ms = 4.0;
            s.settle_region_ms = Some(60.0);
            s.events = vec![EventSpec {
                at_ms: 60.0,
                action: EventAction::RandomPeFaults { count: 3 },
            }];
            s
        }
        "frontier-pinch" => {
            // Promoted from the seeded fuzz corpus (campaign 0xC0FFEE,
            // shrunk candidate 0009): a radius-2 hotspot burn at the
            // grid corner 4 ms before the horizon. The colony detects
            // the wound but half the replicates lose every live task
            // and none recover before the deadline — the minimal known
            // agent-extinction reproducer.
            let mut s = ScenarioSpec::new("frontier-pinch", ffw);
            s.platform.dims = GridDims::new(4, 4);
            s.workload = WorkloadSpec::ForkJoin(ForkJoinParams {
                generation_period: 1600,
                ..ForkJoinParams::default()
            });
            s.duration_ms = 32.0;
            s.window_ms = 4.0;
            s.settle_region_ms = Some(32.0);
            s.events = vec![EventSpec {
                at_ms: 28.0,
                action: EventAction::HotspotFaults {
                    x: 3,
                    y: 0,
                    radius: 2,
                },
            }];
            s
        }
        _ => return None,
    };
    spec.validate();
    Some(spec)
}

/// The three models of the paper's evaluation, in table order.
pub fn paper_model_kinds() -> Vec<ModelKind> {
    vec![
        ModelKind::NoIntelligence,
        ModelKind::NetworkInteraction(NiConfig::default()),
        ModelKind::ForagingForWork(FfwConfig::default()),
    ]
}

/// Table I as a sweep: the three paper models, fault-free, with the
/// historical sequential seeds (`1000 + i`).
pub fn table1_sweep(base: ScenarioSpec, replicates: usize) -> SweepSpec {
    SweepSpec {
        name: "table1".to_string(),
        base,
        axes: vec![Axis::Model(paper_model_kinds())],
        replicates,
        seeds: SeedScheme::Sequential { base: 1000 },
    }
}

/// Table II as a sweep: model × fault level at `fault_at_ms`, with the
/// historical sequential seeds (`20000 + i`).
pub fn table2_sweep(
    base: ScenarioSpec,
    fault_at_ms: f64,
    fault_levels: &[usize],
    replicates: usize,
) -> SweepSpec {
    SweepSpec {
        name: "table2".to_string(),
        base,
        axes: vec![
            Axis::Model(paper_model_kinds()),
            Axis::RandomFaults {
                at_ms: fault_at_ms,
                counts: fault_levels.to_vec(),
            },
        ],
        replicates,
        seeds: SeedScheme::Sequential { base: 20_000 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_preset_resolves_validates_and_round_trips() {
        for name in PRESET_NAMES {
            let spec = preset(name).unwrap_or_else(|| panic!("preset `{name}` must resolve"));
            assert_eq!(spec.name, name);
            assert!(!describe(name).is_empty());
            let back = ScenarioSpec::from_json_text(&spec.to_json_pretty())
                .unwrap_or_else(|e| panic!("preset `{name}` JSON round-trip: {e}"));
            assert_eq!(back, spec, "preset `{name}`");
        }
        assert_eq!(preset("no-such-preset"), None);
    }

    #[test]
    fn light_preset_runs_quickly_end_to_end() {
        let spec = preset("light-4x4").expect("known preset");
        let outcome = crate::run::run_spec(&spec, 5);
        assert_eq!(outcome.trace.samples.len(), 30);
        assert!(outcome.recovery_ms.is_some());
    }

    #[test]
    fn table_sweeps_have_the_paper_shape() {
        let base = ScenarioSpec::new("base", ModelKind::NoIntelligence);
        let t1 = table1_sweep(base.clone(), 100);
        assert_eq!(t1.cell_count(), 3);
        assert_eq!(t1.run_count(), 300);
        let t2 = table2_sweep(base, 500.0, &[0, 2, 4, 8, 16, 32], 100);
        assert_eq!(t2.cell_count(), 18);
        assert_eq!(t2.seeds.seed(0, 0), 20_000);
    }
}
