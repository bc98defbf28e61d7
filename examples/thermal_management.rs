//! Thermal management: the temperature half of the paper's monitor/knob
//! loop, closed by the same stimulus–threshold fabric as the task
//! allocation.
//!
//! Three runs of the same overclocked, saturated colony:
//!
//! 1. **Open loop** — no governor: the die blows through the critical
//!    temperature (the paper's "thermal issue" fault scenario).
//! 2. **Closed loop** — per-node threshold governors throttle DVFS and
//!    keep every tile alive.
//! 3. **Recovery** — the victims of run 1 are injected as a fault set at
//!    500 ms into a Foraging-for-Work colony, which re-allocates tasks
//!    around the burned region.
//!
//! Run with:
//! ```text
//! cargo run --release --example thermal_management
//! ```

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_noc::NodeId;
use sirtm_rng::Xoshiro256StarStar;
use sirtm_taskgraph::{workloads, Mapping, TaskId};
use sirtm_thermal::{
    thermal_fault_scenario, ThermalConfig, ThermalLoop, ThermalScenario, TRIP_TEMP_C,
};

/// Builds the overclocked stress platform (saturating workload).
fn stress_platform(cfg: &PlatformConfig) -> Platform {
    let graph = workloads::fork_join(&workloads::ForkJoinParams {
        generation_period: 40, // 10x the paper's rate: a power virus
        ..workloads::ForkJoinParams::default()
    });
    let mapping = Mapping::heuristic(&graph, cfg.dims);
    let mut platform = Platform::new(graph, &mapping, &ModelKind::NoIntelligence, cfg.clone());
    for i in 0..cfg.dims.len() {
        platform.set_frequency(NodeId::new(i as u16), 300);
    }
    platform
}

fn main() {
    let platform_cfg = PlatformConfig::default();
    let thermal_cfg = ThermalConfig::default();

    // ---- 1. Open loop: unmanaged silicon runs away. ----
    let mut open = ThermalLoop::open(stress_platform(&platform_cfg), thermal_cfg.clone());
    open.run_ms(600.0);
    println!(
        "open loop   : peak {:6.1} C (trip {:.0} C) — unmanaged overclock cooks the die",
        open.trace().peak_temp_c(),
        TRIP_TEMP_C,
    );

    // ---- 2. Closed loop: threshold governors hold the line. ----
    let mut closed =
        ThermalLoop::governed(stress_platform(&platform_cfg), thermal_cfg.clone(), 2020);
    closed.run_ms(600.0);
    let last = closed.trace().samples().last().expect("recorded samples");
    println!(
        "closed loop : peak {:6.1} C, mean clock {:5.1} MHz, {} alive of {} — DVFS holds the die",
        closed.trace().peak_temp_c(),
        last.mean_freq_mhz,
        closed.platform().alive_count(),
        platform_cfg.dims.len(),
    );
    println!(
        "              throughput open {} vs closed {} completions",
        open.trace().total_completions(),
        closed.trace().total_completions(),
    );

    // ---- 3. The paper's thermal fault case, generated from physics. ----
    let scenario = ThermalScenario::default();
    let fault_at = platform_cfg.ms_to_cycles(500.0);
    let (mut schedule, report) = thermal_fault_scenario(&scenario, &thermal_cfg, fault_at);
    println!(
        "scenario    : runaway burns {} of {} tiles (peak {:.1} C)",
        report.victims.len(),
        platform_cfg.dims.len(),
        report.peak_temp_c,
    );

    // Inject the burned region into an FFW colony at 500 ms and watch the
    // task topology recover.
    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let mapping = Mapping::random_uniform(&graph, platform_cfg.dims, &mut rng);
    let model = ModelKind::ForagingForWork(FfwConfig::default());
    let mut colony = Platform::new(graph, &mapping, &model, platform_cfg.clone());
    colony.randomize_phases(&mut rng);

    let sink = TaskId::new(2);
    let mut before_rate = 0.0;
    let mut last_sinks = 0;
    for window in 0..100 {
        colony.run_ms(10.0);
        schedule.poll(&mut colony);
        let sinks = colony.completions(sink);
        let rate = (sinks - last_sinks) as f64 / 10.0;
        last_sinks = sinks;
        if window == 49 {
            before_rate = rate;
        }
    }
    let after_rate = {
        let start = colony.completions(sink);
        colony.run_ms(100.0);
        (colony.completions(sink) - start) as f64 / 100.0
    };
    println!(
        "recovery    : sink rate {:.2}/ms before the burn, {:.2}/ms after re-settling \
         ({} nodes lost)",
        before_rate,
        after_rate,
        report.victims.len(),
    );
    println!(
        "              task counts after recovery: {:?}",
        colony.task_counts()
    );
}
