//! The thermal extension experiment (`repro thermal`): the
//! temperature monitor → DVFS/shutdown knob loop the paper names but
//! never evaluates, regenerated as three rows — open loop, closed loop,
//! and the physics-generated "thermal issue" fault case recovered by
//! the Foraging-for-Work colony.

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_noc::NodeId;
use sirtm_scenario::ScenarioSpec;
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::Mapping;
use sirtm_thermal::{
    thermal_fault_scenario, GovernorConfig, ThermalConfig, ThermalLoop, ThermalScenario,
};

/// Everything the thermal extension measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalExtResult {
    /// Peak die temperature of the unmanaged overclock, °C.
    pub open_peak_c: f64,
    /// Completions of the unmanaged run.
    pub open_completions: u64,
    /// Peak die temperature under the threshold governor, °C.
    pub closed_peak_c: f64,
    /// Mean DVFS clock at the end of the governed run, MHz.
    pub closed_mean_freq_mhz: f64,
    /// Completions of the governed run.
    pub closed_completions: u64,
    /// Alive nodes at the end of the governed run.
    pub closed_alive: usize,
    /// The trip temperature both runs are judged against, °C.
    pub trip_c: f64,
    /// Victims of the runaway scenario (the generated fault set).
    pub scenario_victims: usize,
    /// Peak of the runaway scenario, °C.
    pub scenario_peak_c: f64,
    /// FFW sink rate before the scenario's faults land, sinks/ms.
    pub before_rate: f64,
    /// FFW sink rate after recovery, sinks/ms.
    pub after_rate: f64,
    /// Grid size (for the rendered table).
    pub nodes: usize,
}

/// The saturated, overclocked stress platform shared by both loop runs.
fn stress_platform(cfg: &PlatformConfig) -> Platform {
    let graph = fork_join(&ForkJoinParams {
        generation_period: 40,
        ..ForkJoinParams::default()
    });
    let mapping = Mapping::heuristic(&graph, cfg.dims);
    let mut platform = Platform::new(graph, &mapping, &ModelKind::NoIntelligence, cfg.clone());
    for i in 0..cfg.dims.len() {
        platform.set_frequency(NodeId::new(i as u16), 300);
    }
    platform
}

/// Runs the full thermal extension experiment (deterministic per seed).
pub fn run(seed: u64) -> ThermalExtResult {
    let platform_cfg = PlatformConfig::default();
    let thermal_cfg = ThermalConfig::default();

    let mut open = ThermalLoop::new(
        stress_platform(&platform_cfg),
        thermal_cfg.clone(),
        GovernorConfig {
            enabled: false,
            ..GovernorConfig::default()
        },
        seed,
    );
    open.run_ms(600.0);

    let mut closed = ThermalLoop::new(
        stress_platform(&platform_cfg),
        thermal_cfg.clone(),
        GovernorConfig::default(),
        seed,
    );
    closed.run_ms(600.0);
    let closed_last = closed
        .trace()
        .samples()
        .last()
        .expect("governed run records samples");

    // The physics-generated fault case, recovered by FFW. The physics
    // pre-run reports the victim set; the colony itself is built from a
    // declarative scenario spec (event-free — the precomputed schedule
    // is applied directly to avoid re-running the physics).
    let fault_at = platform_cfg.ms_to_cycles(500.0);
    let (mut schedule, report) =
        thermal_fault_scenario(&ThermalScenario::default(), &thermal_cfg, fault_at);
    let spec = ScenarioSpec::new(
        "thermal-ext-recovery",
        ModelKind::ForagingForWork(FfwConfig::default()),
    );
    let mut colony = sirtm_scenario::build_platform(&spec, seed);
    let sink = spec.sink();
    colony.run_ms(400.0);
    let before_rate = {
        let start = colony.completions(sink);
        colony.run_ms(100.0);
        (colony.completions(sink) - start) as f64 / 100.0
    };
    schedule.poll(&mut colony);
    colony.run_ms(300.0);
    let after_rate = {
        let start = colony.completions(sink);
        colony.run_ms(100.0);
        (colony.completions(sink) - start) as f64 / 100.0
    };

    ThermalExtResult {
        open_peak_c: open.trace().peak_temp_c(),
        open_completions: open.trace().total_completions(),
        closed_peak_c: closed.trace().peak_temp_c(),
        closed_mean_freq_mhz: closed_last.mean_freq_mhz,
        closed_completions: closed.trace().total_completions(),
        closed_alive: closed.platform().alive_count(),
        trip_c: thermal_cfg.trip_temp_c,
        scenario_victims: report.victims.len(),
        scenario_peak_c: report.peak_temp_c,
        before_rate,
        after_rate,
        nodes: platform_cfg.dims.len(),
    }
}

/// Renders the result as the extension's three table rows.
pub fn render(r: &ThermalExtResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Thermal extension — {} nodes, trip at {:.0} C\n",
        r.nodes, r.trip_c
    ));
    out.push_str(&format!(
        "  open loop   : peak {:6.1} C  {:>7} completions  (runaway past trip)\n",
        r.open_peak_c, r.open_completions
    ));
    out.push_str(&format!(
        "  closed loop : peak {:6.1} C  {:>7} completions  mean clock {:.0} MHz, {} alive\n",
        r.closed_peak_c, r.closed_completions, r.closed_mean_freq_mhz, r.closed_alive
    ));
    out.push_str(&format!(
        "  scenario    : {} of {} tiles burn (peak {:.1} C); FFW sink rate {:.2} -> {:.2} /ms\n",
        r.scenario_victims, r.nodes, r.scenario_peak_c, r.before_rate, r.after_rate
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_shapes_hold() {
        let r = run(2020);
        assert!(r.open_peak_c > r.trip_c, "open loop must run away");
        assert!(r.closed_peak_c < r.trip_c, "governor must hold the line");
        assert_eq!(r.closed_alive, r.nodes, "no thermal deaths when governed");
        assert!(
            (20..=70).contains(&r.scenario_victims),
            "roughly a third of Centurion burns: {}",
            r.scenario_victims
        );
        assert!(r.after_rate > 0.0, "the colony keeps producing");
        assert!(
            r.after_rate < r.before_rate,
            "losing a third costs throughput"
        );
        let rendered = render(&r);
        assert!(rendered.contains("open loop"));
        assert!(rendered.contains("closed loop"));
        assert!(rendered.contains("scenario"));
    }
}
