//! Integration tests for the richer fault scenarios the paper motivates:
//! spatially correlated clock-region failures, thermal hotspots, link
//! faults and lying (hung) nodes — all recovered by the adaptive colony.

use sirtm::centurion::{render, Platform, PlatformConfig};
use sirtm::core::models::{FfwConfig, ModelKind};
use sirtm::faults::{generators, Fault, FaultKind};
use sirtm::noc::{Direction, NodeId};
use sirtm::rng::Xoshiro256StarStar;
use sirtm::scenario::{EventAction, EventSpec, ScenarioSpec};
use sirtm::taskgraph::{workloads, GridDims, Mapping, TaskId};

fn ffw_platform(seed: u64) -> Platform {
    let cfg = PlatformConfig::default();
    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
    Platform::new(
        graph,
        &mapping,
        &ModelKind::ForagingForWork(FfwConfig::default()),
        cfg,
    )
}

fn rate_over(platform: &mut Platform, ms: f64) -> f64 {
    let before = platform.completions(TaskId::new(2));
    platform.run_ms(ms);
    (platform.completions(TaskId::new(2)) - before) as f64 / ms
}

#[test]
fn clock_region_failure_is_survivable() {
    // The paper's 42-fault scenario stands for "a failure of a global
    // clock buffer": here the correlated version — 4 whole rows die,
    // routers included.
    let mut p = ffw_platform(31);
    p.run_ms(300.0);
    let before = rate_over(&mut p, 100.0);
    for f in generators::clock_region(p.config().dims, 6, 4, FaultKind::TileDead) {
        f.apply(&mut p);
    }
    p.run_ms(300.0); // recovery time
    let after = rate_over(&mut p, 100.0);
    assert_eq!(p.alive_count(), 96);
    assert!(
        after > before * 0.45,
        "the colony should retain much of its throughput: {after:.2} vs {before:.2}"
    );
    // The map shows a dead band and live regions on both sides.
    let map = render::task_map(&p);
    let dead_rows = map.lines().filter(|l| l.chars().all(|c| c == 'x')).count();
    assert_eq!(dead_rows, 4, "map:\n{map}");
}

#[test]
fn hotspot_failure_reroutes_around_the_disc() {
    let mut p = ffw_platform(32);
    p.run_ms(300.0);
    let centre = NodeId::new(p.config().dims.index(4, 8) as u16);
    for f in generators::hotspot(p.config().dims, centre, 2, FaultKind::PeDead) {
        f.apply(&mut p);
    }
    p.run_ms(300.0);
    let after = rate_over(&mut p, 100.0);
    assert_eq!(p.alive_count(), 128 - 13);
    assert!(after > 3.0, "post-hotspot rate {after:.2}");
    // Routers inside the hotspot stay alive and keep routing through.
    assert!(p.router(centre).settings().alive);
}

#[test]
fn hung_nodes_are_worse_than_dead_ones() {
    // A hung PE keeps advertising its task (a lying fault): senders keep
    // addressing it and its work is lost until the colony's starvation
    // dynamics route around it. Dead PEs are cleanly deregistered. The
    // same victim set must therefore cost at least as much when hung.
    let victims: Vec<NodeId> = {
        use sirtm::rng::Rng;
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        rng.sample_indices(128, 16)
            .into_iter()
            .map(|i| NodeId::new(i as u16))
            .collect()
    };
    let run = |kind: FaultKind| {
        let mut p = ffw_platform(33);
        p.run_ms(300.0);
        for &node in &victims {
            Fault { node, kind }.apply(&mut p);
        }
        p.run_ms(200.0);
        rate_over(&mut p, 100.0)
    };
    let dead = run(FaultKind::PeDead);
    let hung = run(FaultKind::PeHang);
    assert!(
        hung <= dead * 1.05,
        "lying faults should not outperform clean deaths: hung {hung:.2} vs dead {dead:.2}"
    );
}

#[test]
fn link_faults_leave_delivery_intact_via_detours() {
    // Cut a handful of links; XY routing cannot detour, but senders keep
    // resolving instances and deadlock recovery cleans up blocked
    // packets, so the system keeps running (with some loss).
    let mut p = ffw_platform(34);
    p.run_ms(200.0);
    for (node, dir) in [
        (20u16, Direction::East),
        (45, Direction::South),
        (70, Direction::West),
        (95, Direction::North),
    ] {
        Fault {
            node: NodeId::new(node),
            kind: FaultKind::LinkDown(dir),
        }
        .apply(&mut p);
    }
    p.run_ms(200.0);
    let after = rate_over(&mut p, 100.0);
    assert!(after > 3.0, "rate with cut links {after:.2}");
    assert_eq!(p.alive_count(), 128, "no PE died");
}

#[test]
fn kill_more_than_alive_is_consistent_across_every_layer() {
    // The same oversized kill wave must behave identically at each level
    // of the stack: the fault generator saturates at the grid size and
    // the platform running it as a scenario event ends with zero alive
    // PEs — nobody panics, everybody dies exactly once.
    let mut spec = ScenarioSpec::new("overkill", ModelKind::ForagingForWork(FfwConfig::default()));
    spec.platform.dims = GridDims::new(4, 4);
    spec.duration_ms = 40.0;
    spec.window_ms = 4.0;
    spec.events = vec![EventSpec {
        at_ms: 8.0,
        action: EventAction::RandomPeFaults { count: 10_000 },
    }];

    // Platform level: the run completes and every PE is dead.
    let outcome = sirtm::scenario::run_spec(&spec, 9);
    assert_eq!(
        outcome
            .trace
            .samples
            .last()
            .expect("windows recorded")
            .alive,
        0,
        "the whole grid dies"
    );
    assert_eq!(outcome.final_rate, 0.0, "no survivors, no throughput");

    // Generator level: the victim set clamps to the 16-node grid.
    let mut rng = Xoshiro256StarStar::seed_from_u64(1);
    let faults = generators::random_nodes(GridDims::new(4, 4), 10_000, FaultKind::PeDead, &mut rng);
    assert_eq!(faults.len(), 16);
}

#[test]
fn activity_map_shows_the_colony_working() {
    let mut p = ffw_platform(35);
    p.run_ms(200.0);
    let map = render::activity_map(&p, 20.0);
    let active = map.chars().filter(|&c| c == '#').count();
    assert!(active > 40, "most of the grid should be active:\n{map}");
}
