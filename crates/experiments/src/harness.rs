//! The experiment harness, as a thin legacy-shaped wrapper over the
//! scenario engine: an [`ExperimentConfig`] plus a [`RunSpec`] is
//! exactly one [`ScenarioSpec`], and every run executes through
//! [`sirtm_scenario::run_spec`]. The conversion is bit-compatible with
//! the original hand-rolled harness — same seeds, same mappings, same
//! victims, same measures — which `tests/scenario_equivalence.rs` pins.

use sirtm_centurion::PlatformConfig;
use sirtm_core::models::ModelKind;
use sirtm_scenario::{
    parallel_map, EventAction, EventSpec, MappingSpec, ScenarioSpec, WorkloadSpec,
};
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::{TaskGraph, TaskId};

use crate::detect::DetectorConfig;
use crate::recorder::RunTrace;

/// Shared configuration of a reproduction experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Run length in simulated milliseconds (the paper plots 1000 ms).
    pub duration_ms: f64,
    /// Fault injection instant (the paper injects at 500 ms).
    pub fault_at_ms: f64,
    /// Recording/detection window in milliseconds.
    pub window_ms: f64,
    /// Independent runs per configuration (the paper uses 100).
    pub runs: usize,
    /// Platform configuration.
    pub platform: PlatformConfig,
    /// Workload parameters (Fig. 3 fork-join).
    pub workload: ForkJoinParams,
    /// Settling detector configuration.
    pub detector: DetectorConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            duration_ms: 1000.0,
            fault_at_ms: 500.0,
            window_ms: 2.0,
            runs: 100,
            platform: PlatformConfig::default(),
            workload: ForkJoinParams::default(),
            detector: DetectorConfig::default(),
        }
    }
}

impl ExperimentConfig {
    /// The workload graph.
    pub fn graph(&self) -> TaskGraph {
        fork_join(&self.workload)
    }

    /// The sink task whose completions define application throughput.
    pub fn sink(&self) -> TaskId {
        TaskId::new((self.graph().len() - 1) as u8)
    }

    /// The scenario this configuration describes for `model` with
    /// `faults` random PE deaths at the injection instant — the paper's
    /// protocol as data. The settle region always ends at the injection
    /// instant, faulted or not (fault-free twins are measured over the
    /// same pre-fault region).
    pub fn scenario(&self, model: &ModelKind, faults: usize) -> ScenarioSpec {
        ScenarioSpec {
            name: format!("{}-{}f", model.name(), faults),
            platform: self.platform.clone(),
            model: model.clone(),
            workload: WorkloadSpec::ForkJoin(self.workload.clone()),
            mapping: MappingSpec::Auto,
            duration_ms: self.duration_ms,
            window_ms: self.window_ms,
            settle_region_ms: Some(self.fault_at_ms),
            detector: self.detector,
            events: if faults > 0 {
                vec![EventSpec {
                    at_ms: self.fault_at_ms,
                    action: EventAction::RandomPeFaults { count: faults },
                }]
            } else {
                Vec::new()
            },
        }
    }
}

/// One run to execute.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The task-allocation model under test.
    pub model: ModelKind,
    /// Number of PE faults injected at `fault_at_ms` (0 = fault-free).
    pub faults: usize,
    /// Seed controlling the initial mapping, clock phases and fault set.
    pub seed: u64,
}

/// Per-run measurements.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The executed spec.
    pub spec: RunSpec,
    /// Full windowed trace.
    pub trace: RunTrace,
    /// Settling time from cold start, in milliseconds (censored at the
    /// pre-fault region length).
    pub settle_ms: f64,
    /// Steady throughput before fault injection (sink completions / ms).
    pub pre_fault_rate: f64,
    /// Recovery time after fault injection, in milliseconds (`None` for
    /// fault-free runs; censored at the post-fault region length).
    pub recovery_ms: Option<f64>,
    /// Steady throughput at the end of the run.
    pub final_rate: f64,
}

/// Executes one run end to end.
pub fn run_one(spec: &RunSpec, cfg: &ExperimentConfig) -> RunResult {
    let outcome = sirtm_scenario::run_spec(&cfg.scenario(&spec.model, spec.faults), spec.seed);
    RunResult {
        spec: spec.clone(),
        trace: outcome.trace,
        settle_ms: outcome.settle_ms,
        pre_fault_rate: outcome.pre_rate,
        recovery_ms: outcome.recovery_ms,
        final_rate: outcome.final_rate,
    }
}

/// Executes many runs, fanned out over the machine's cores through the
/// sweep orchestrator's pool. Results come back in input order
/// regardless of scheduling (bit-identical to a sequential pass).
pub fn run_many(specs: &[RunSpec], cfg: &ExperimentConfig) -> Vec<RunResult> {
    parallel_map(specs.len(), 0, |i| run_one(&specs[i], cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_core::models::FfwConfig;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            duration_ms: 120.0,
            fault_at_ms: 60.0,
            window_ms: 4.0,
            runs: 2,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn fault_free_run_produces_throughput_and_settles() {
        let cfg = quick_cfg();
        let spec = RunSpec {
            model: ModelKind::NoIntelligence,
            faults: 0,
            seed: 1,
        };
        let r = run_one(&spec, &cfg);
        assert!(r.final_rate > 2.0, "baseline throughput {}", r.final_rate);
        assert!(r.recovery_ms.is_none());
        assert!(r.settle_ms <= 60.0);
        assert_eq!(r.trace.samples.len(), 30);
    }

    #[test]
    fn faulted_run_reports_recovery_and_loses_capacity() {
        let cfg = quick_cfg();
        let faulted = run_one(
            &RunSpec {
                model: ModelKind::NoIntelligence,
                faults: 32,
                seed: 2,
            },
            &cfg,
        );
        let clean = run_one(
            &RunSpec {
                model: ModelKind::NoIntelligence,
                faults: 0,
                seed: 2,
            },
            &cfg,
        );
        let rec = faulted.recovery_ms.expect("faulted run has recovery");
        assert!(rec <= 60.0);
        assert!(
            faulted.final_rate < clean.final_rate,
            "32 dead nodes must cost throughput vs the fault-free twin: {} vs {}",
            faulted.final_rate,
            clean.final_rate
        );
    }

    #[test]
    fn same_seed_same_result() {
        let cfg = quick_cfg();
        let spec = RunSpec {
            model: ModelKind::ForagingForWork(FfwConfig::default()),
            faults: 5,
            seed: 77,
        };
        let a = run_one(&spec, &cfg);
        let b = run_one(&spec, &cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.settle_ms, b.settle_ms);
    }

    #[test]
    fn run_many_matches_sequential_order() {
        let cfg = quick_cfg();
        let specs: Vec<RunSpec> = (0..4)
            .map(|i| RunSpec {
                model: ModelKind::NoIntelligence,
                faults: 0,
                seed: i,
            })
            .collect();
        let parallel = run_many(&specs, &cfg);
        let sequential: Vec<RunResult> = specs.iter().map(|s| run_one(s, &cfg)).collect();
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.trace, s.trace);
        }
    }

    #[test]
    fn scenario_conversion_mirrors_the_protocol() {
        let cfg = quick_cfg();
        let spec = cfg.scenario(&ModelKind::NoIntelligence, 5);
        assert_eq!(spec.duration_ms, 120.0);
        assert_eq!(spec.settle_region_ms, Some(60.0));
        assert_eq!(spec.events.len(), 1);
        let clean = cfg.scenario(&ModelKind::NoIntelligence, 0);
        assert!(clean.events.is_empty());
        assert_eq!(clean.settle_region_ms, Some(60.0), "paper's settle region");
    }
}
