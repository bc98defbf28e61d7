//! Smoke test pinning the workspace's public surface: every crate the
//! `sirtm` umbrella re-exports must stay constructible through its
//! re-exported path, and a few load-bearing behaviours (RNG determinism,
//! flow analysis, an AIM scan) must keep their contracts.

use sirtm::core::io::MockAimIo;
use sirtm::core::models::{ModelKind, NiConfig};
use sirtm::rng::{Rng, Xoshiro256StarStar};
use sirtm::taskgraph::{workloads, FlowAnalysis, GridDims, Mapping, TaskId};

#[test]
fn rng_is_seed_deterministic() {
    let mut a = Xoshiro256StarStar::seed_from_u64(42);
    let mut b = Xoshiro256StarStar::seed_from_u64(42);
    let seq_a: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
    let seq_b: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
    assert_eq!(seq_a, seq_b, "same seed, same stream");
    let mut c = Xoshiro256StarStar::seed_from_u64(43);
    assert_ne!(seq_a[0], c.next_u64(), "different seed diverges");
}

#[test]
fn taskgraph_workload_flows() {
    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let flow = FlowAnalysis::analyze(&graph);
    assert_eq!(graph.len(), 3, "fork-join is task1 -> task2 -> task3");
    let alloc = flow.proportional_allocation(100);
    assert_eq!(alloc.iter().sum::<usize>(), 100);
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let mapping = Mapping::random_uniform(&graph, GridDims::new(4, 4), &mut rng);
    assert_eq!(mapping.assigned_len(), 16);
}

#[test]
fn core_network_interaction_scans() {
    let mut model = ModelKind::NetworkInteraction(NiConfig {
        threshold: 8,
        fixation_scans: 0,
        ..NiConfig::default()
    })
    .build(3);
    let mut io = MockAimIo::new(3);
    io.routed = vec![0, 9, 0];
    model.scan(&mut io);
    assert_eq!(io.switches, vec![TaskId::new(1)]);
}

#[test]
fn picoblaze_assembles_and_runs() {
    use sirtm::picoblaze::vm::{Picoblaze, SparseIo};
    let prog = sirtm::picoblaze::asm::assemble("LOAD s0, 41\nADD s0, 1\nOUTPUT s0, (0x07)\n")
        .expect("assembles");
    let mut cpu = Picoblaze::new(prog);
    let mut io = SparseIo::new();
    cpu.step_n(3, &mut io).expect("runs");
    assert_eq!(io.last_output(0x07), Some(42));
}

#[test]
fn noc_mesh_steps() {
    use sirtm::noc::{Mesh, RouterConfig};
    let mut mesh = Mesh::new(GridDims::new(3, 3), RouterConfig::default());
    for _ in 0..10 {
        mesh.step();
    }
    assert_eq!(mesh.cycle(), 10);
}

#[test]
fn centurion_platform_runs() {
    use sirtm::centurion::{Platform, PlatformConfig};
    use sirtm::core::models::FfwConfig;
    let cfg = PlatformConfig {
        dims: GridDims::new(4, 4),
        ..PlatformConfig::default()
    };
    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(2020);
    let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
    let model = ModelKind::ForagingForWork(FfwConfig::default());
    let mut platform = Platform::new(graph, &mapping, &model, cfg);
    platform.run_ms(5.0);
    assert!(platform.now_ms() >= 5.0);
    assert_eq!(platform.alive_count(), 16);
}

#[test]
fn faults_schedule_holds_events() {
    use sirtm::faults::{generators, FaultKind, FaultSchedule};
    let faults = generators::clock_region(GridDims::new(4, 4), 1, 2, FaultKind::TileDead);
    assert_eq!(faults.len(), 8, "two 4-wide rows");
    let schedule = FaultSchedule::new();
    assert!(schedule.exhausted());
}

#[test]
fn thermal_grid_heats_from_power() {
    use sirtm::thermal::{ThermalConfig, ThermalGrid};
    let cfg = ThermalConfig::default();
    let n = cfg.dims.len();
    let ambient = cfg.ambient_c;
    let mut grid = ThermalGrid::new(cfg);
    let power = vec![0.5; n];
    for _ in 0..100 {
        grid.step(0.001, &power);
    }
    assert!(grid.mean_temp() > ambient, "dissipated power warms the die");
}

#[test]
fn experiments_stats_reachable() {
    assert_eq!(sirtm::scenario::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
}
