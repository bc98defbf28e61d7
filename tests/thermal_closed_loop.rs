//! Integration tests of the thermal substrate against the full stack:
//! the paper's temperature monitor + DVFS knob loop, and the "thermal
//! issue" fault case recovered by the adaptive colony.

use sirtm::centurion::{Platform, PlatformConfig};
use sirtm::core::models::{FfwConfig, ModelKind};
use sirtm::noc::NodeId;
use sirtm::rng::Xoshiro256StarStar;
use sirtm::taskgraph::{workloads, GridDims, Mapping, TaskId};
use sirtm::thermal::{
    thermal_fault_scenario, ThermalConfig, ThermalLoop, ThermalScenario, TRIP_TEMP_C,
};

/// A saturated, overclocked platform (the thermal stress case).
fn stress_platform(dims: GridDims, mhz: u16) -> Platform {
    let cfg = PlatformConfig {
        dims,
        ..PlatformConfig::default()
    };
    let graph = workloads::fork_join(&workloads::ForkJoinParams {
        generation_period: 40,
        ..workloads::ForkJoinParams::default()
    });
    let mapping = Mapping::heuristic(&graph, cfg.dims);
    let mut p = Platform::new(graph, &mapping, &ModelKind::NoIntelligence, cfg);
    for i in 0..dims.len() {
        p.set_frequency(NodeId::new(i as u16), mhz);
    }
    p
}

#[test]
fn governor_trades_throughput_for_survival() {
    let dims = GridDims::new(4, 4);
    let thermal = ThermalConfig { dims };
    let mut open = ThermalLoop::open(stress_platform(dims, 300), thermal.clone());
    let mut closed = ThermalLoop::governed(stress_platform(dims, 300), thermal, 1);
    open.run_ms(700.0);
    closed.run_ms(700.0);
    // Open loop cooks the die; closed loop keeps it legal and alive.
    assert!(open.trace().peak_temp_c() > TRIP_TEMP_C);
    assert!(closed.trace().peak_temp_c() < TRIP_TEMP_C);
    assert_eq!(closed.platform().alive_count(), dims.len());
    // The price of survival is throughput — but not all of it.
    let open_done = open.trace().total_completions();
    let closed_done = closed.trace().total_completions();
    assert!(
        closed_done < open_done,
        "throttling costs something: {closed_done} vs {open_done}"
    );
    assert!(
        closed_done > open_done / 4,
        "but the colony keeps computing: {closed_done} vs {open_done}"
    );
}

#[test]
fn thermal_fault_set_is_recovered_by_the_adaptive_colony() {
    // Physics decides who dies; the FFW colony reorganises around them —
    // the paper's "thermal issue" row of Table II, end to end.
    let cfg = PlatformConfig::default();
    let thermal = ThermalConfig::default();
    let fault_at = cfg.ms_to_cycles(500.0);
    let (mut schedule, report) =
        thermal_fault_scenario(&ThermalScenario::default(), &thermal, fault_at);
    let n_victims = report.victims.len();
    assert!(
        (20..=70).contains(&n_victims),
        "default scenario burns roughly a third of Centurion, got {n_victims}"
    );

    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
    let model = ModelKind::ForagingForWork(FfwConfig::default());
    let mut colony = Platform::new(graph, &mapping, &model, cfg);

    // Settle, measure, burn, recover, measure again.
    colony.run_ms(400.0);
    let sink = TaskId::new(2);
    let before = {
        let start = colony.completions(sink);
        colony.run_ms(100.0);
        (colony.completions(sink) - start) as f64 / 100.0
    };
    assert_eq!(schedule.poll(&mut colony), n_victims);
    colony.run_ms(300.0); // recovery window
    let after = {
        let start = colony.completions(sink);
        colony.run_ms(100.0);
        (colony.completions(sink) - start) as f64 / 100.0
    };
    assert_eq!(colony.alive_count(), 128 - n_victims);
    assert!(
        after > before * 0.35,
        "graceful degradation after losing {n_victims} nodes: {after:.2} vs {before:.2} sinks/ms"
    );
    // The recovered topology still covers all three tasks.
    let counts = colony.task_counts();
    assert!(
        counts.iter().all(|&c| c > 0),
        "recovered task topology covers the graph: {counts:?}"
    );
}

#[test]
fn sensor_chain_reports_what_the_grid_knows() {
    // End-to-end monitor fidelity: after a hot run, per-node calibrated
    // sensor estimates must track the true field within half a kelvin.
    let dims = GridDims::new(4, 4);
    let thermal = ThermalConfig { dims };
    let mut sim = ThermalLoop::governed(stress_platform(dims, 200), thermal, 77);
    sim.run_ms(300.0);
    let sensors = sim.sensors().expect("a governed loop has sensors");
    for i in 0..dims.len() {
        let node = NodeId::new(i as u16);
        let truth = sim.grid().temp_c(node);
        let est = sensors.estimate_c(node, sim.grid().temps());
        assert!(
            (est - truth).abs() < 0.5,
            "node {i}: sensor {est:.2} vs truth {truth:.2}"
        );
    }
}
