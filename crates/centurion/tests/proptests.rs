//! Property-based robustness tests: the platform never panics and keeps
//! its invariants under arbitrary fault/knob/retask storms, a clone
//! taken mid-storm evolves exactly as the original does, and dirty-set
//! gossip rounds reproduce full rounds.

use proptest::prelude::*;

use sirtm_centurion::directory::gossip_round;
use sirtm_centurion::{Directory, Gossip, Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_noc::{Coord, Direction, NodeId, Port, RcapCommand};
use sirtm_rng::Xoshiro256StarStar;
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::{GridDims, Mapping, TaskId};

#[derive(Debug, Clone)]
enum Action {
    Run(u8),
    KillPe(u16),
    KillTile(u16),
    Hang(u16),
    Resume(u16),
    SetFreq(u16, u16),
    Config(u16, u8),
}

fn action(nodes: u16) -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (1u8..30).prop_map(Action::Run),
        1 => (0..nodes).prop_map(Action::KillPe),
        1 => (0..nodes).prop_map(Action::KillTile),
        1 => (0..nodes).prop_map(Action::Hang),
        1 => (0..nodes).prop_map(Action::Resume),
        1 => ((0..nodes), (1u16..400)).prop_map(|(n, f)| Action::SetFreq(n, f)),
        1 => ((0..nodes), (0u8..4)).prop_map(|(n, c)| Action::Config(n, c)),
    ]
}

fn apply(platform: &mut Platform, a: &Action) {
    match *a {
        Action::Run(ms) => platform.run_ms(ms as f64),
        Action::KillPe(n) => platform.kill_pe(NodeId::new(n)),
        Action::KillTile(n) => platform.kill_tile(NodeId::new(n)),
        Action::Hang(n) => platform.hang_pe(NodeId::new(n)),
        Action::Resume(n) => {
            // Resuming a dead PE must be harmless; only hung ones revive.
            platform.resume_pe(NodeId::new(n))
        }
        Action::SetFreq(n, f) => platform.set_frequency(NodeId::new(n), f),
        Action::Config(n, c) => {
            let cmd = match c {
                0 => RcapCommand::SetPortEnabled(Port::North, false),
                1 => RcapCommand::SetPortEnabled(Port::East, true),
                2 => RcapCommand::SetPortEnabled(Port::East, false),
                _ => RcapCommand::AimWrite { reg: 2, value: 40 },
            };
            platform.apply_config_direct(NodeId::new(n), cmd);
        }
    }
}

fn build(model: ModelKind, seed: u64) -> Platform {
    let cfg = PlatformConfig {
        dims: GridDims::new(5, 5),
        ..PlatformConfig::default()
    };
    let graph = fork_join(&ForkJoinParams::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
    Platform::new(graph, &mapping, &model, cfg)
}

/// Asserts that two platforms are observably identical: counters, mesh
/// statistics, sim-plane counters, task counts and every node snapshot.
fn assert_twins(a: &Platform, b: &Platform) {
    assert_eq!(a.now(), b.now());
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.mesh_stats(), b.mesh_stats());
    assert_eq!(a.sim_counters(), b.sim_counters());
    assert_eq!(a.task_counts(), b.task_counts());
    for i in 0..25u16 {
        let node = NodeId::new(i);
        assert_eq!(a.node_snapshot(node), b.node_snapshot(node));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary storms of faults, knob twiddles and run segments never
    /// panic, and basic invariants hold throughout. At a drawn action the
    /// platform is cloned; both copies then take the remaining actions
    /// and must stay identical, so a clone carries every piece of state
    /// the run depends on (models, event tables, lazy credit, scratch).
    #[test]
    fn platform_survives_chaos(
        case in proptest::collection::vec(action(25), 1..25)
            .prop_flat_map(|actions| {
                let n = actions.len();
                (Just(actions), 0..n)
            }),
        model_pick in 0u8..5,
        seed in any::<u64>(),
    ) {
        let (actions, fork_at) = case;
        let model = match model_pick {
            0 => ModelKind::NoIntelligence,
            1 => ModelKind::NetworkInteraction(NiConfig::default()),
            2 => ModelKind::ForagingForWork(FfwConfig::default()),
            3 => ModelKind::NetworkInteractionFirmware(NiConfig::default()),
            _ => ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
        };
        let mut p = build(model, seed);
        let mut twin = None;
        for (i, a) in actions.iter().enumerate() {
            if i == fork_at {
                twin = Some(p.clone());
            }
            apply(&mut p, a);
            if let Some(t) = twin.as_mut() {
                apply(t, a);
                assert_twins(&p, t);
            }
            prop_assert!(p.alive_count() <= 25);
            let counts = p.task_counts();
            prop_assert!(counts.iter().sum::<usize>() <= p.alive_count());
            // DVFS clamp invariant.
            for i in 0..25u16 {
                let f = p.pe(NodeId::new(i)).frequency_mhz();
                prop_assert!((10..=300).contains(&f), "freq {f}");
            }
        }
        // The platform still advances time after the storm.
        let before = p.now();
        p.run_ms(5.0);
        prop_assert_eq!(p.now(), before + 500);
        let mut twin = twin.expect("the fork index lies within the actions");
        twin.run_ms(5.0);
        assert_twins(&p, &twin);
    }

    /// Killed PEs stay dead and never complete work again.
    #[test]
    fn dead_stays_dead(seed in any::<u64>(), victim in 0u16..25) {
        let mut p = build(ModelKind::ForagingForWork(FfwConfig::default()), seed);
        p.run_ms(30.0);
        p.kill_pe(NodeId::new(victim));
        let completions_at_death = p.pe(NodeId::new(victim)).stats().completions;
        p.run_ms(60.0);
        prop_assert!(!p.pe(NodeId::new(victim)).is_alive());
        prop_assert_eq!(
            p.pe(NodeId::new(victim)).stats().completions,
            completions_at_death
        );
        prop_assert!(p.pe(NodeId::new(victim)).task().is_none());
    }

    /// Hang vs resume is lossless for liveness: a hung-then-resumed PE
    /// processes work again.
    #[test]
    fn hang_resume_recovers(seed in any::<u64>()) {
        let mut p = build(ModelKind::NoIntelligence, seed);
        p.run_ms(40.0);
        // Hang every node briefly: total throughput freezes.
        for i in 0..25u16 {
            p.hang_pe(NodeId::new(i));
        }
        let frozen = p.completions_total();
        p.run_ms(20.0);
        prop_assert_eq!(p.completions_total(), frozen, "hung grid does no work");
        for i in 0..25u16 {
            p.resume_pe(NodeId::new(i));
        }
        p.run_ms(40.0);
        prop_assert!(p.completions_total() > frozen, "resumed grid works again");
    }
}

/// One step of a [`GossipCase`]; node numbers wrap onto the grid.
#[derive(Debug, Clone)]
enum GossipOp {
    /// A gossip cycle: a round unless the tables are converged.
    Round,
    /// The node advertises another task, or none.
    Switch(u16, Option<u8>),
    /// The node dies: its directory is cleared and it advertises nothing.
    Kill(u16),
}

#[derive(Debug, Clone)]
struct GossipCase {
    width: u16,
    height: u16,
    n_tasks: u8,
    dist_max: u8,
    /// Full rounds run before the dirty-set gossip takes over.
    warm_rounds: u8,
    locals: Vec<Option<u8>>,
    ops: Vec<GossipOp>,
}

fn gossip_case() -> impl Strategy<Value = GossipCase> {
    (1u16..7, 1u16..7, 1u8..4)
        .prop_flat_map(|(width, height, n_tasks)| {
            let nodes = (width * height) as usize;
            let task = proptest::option::of(0..n_tasks);
            let op = prop_oneof![
                6 => Just(GossipOp::Round),
                2 => (any::<u16>(), proptest::option::of(0..n_tasks))
                    .prop_map(|(n, t)| GossipOp::Switch(n, t)),
                1 => any::<u16>().prop_map(GossipOp::Kill),
            ];
            (
                Just(width),
                Just(height),
                Just(n_tasks),
                1u8..16,
                0u8..6,
                proptest::collection::vec(task, nodes..=nodes),
                proptest::collection::vec(op, 1..80),
            )
        })
        .prop_map(
            |(width, height, n_tasks, dist_max, warm_rounds, locals, ops)| GossipCase {
                width,
                height,
                n_tasks,
                dist_max,
                warm_rounds,
                locals,
                ops,
            },
        )
}

/// The platform's neighbour table (N, E, S, W) for `dims`.
fn grid_neighbours(dims: GridDims) -> Vec<[Option<usize>; 4]> {
    (0..dims.len())
        .map(|i| {
            let (x, y) = dims.xy(i);
            Direction::ALL.map(|d| {
                Coord::new(x, y)
                    .neighbour(d, dims)
                    .map(|c| c.node(dims).index())
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dirty-set gossip against full rounds: on random grids with random
    /// task switches and kills, every round the dirty set computes yields
    /// `gossip_round`'s tables, and the gossip reports convergence in the
    /// same round a full round first reproduces its input — whenever it
    /// skips a round, a full round would have changed nothing.
    #[test]
    fn dirty_gossip_rounds_match_full_rounds(case in gossip_case()) {
        let dims = GridDims::new(case.width, case.height);
        let neighbours = grid_neighbours(dims);
        let nt = case.n_tasks as usize;
        let mut locals: Vec<Option<TaskId>> =
            case.locals.iter().map(|t| t.map(TaskId::new)).collect();
        let mut full: Vec<Directory> = (0..dims.len()).map(|_| Directory::new(nt)).collect();
        for _ in 0..case.warm_rounds {
            full = gossip_round(&full, &locals, &neighbours, nt, case.dist_max);
        }
        let mut gossip = Gossip::new(full.clone(), nt, case.dist_max);
        for op in &case.ops {
            match *op {
                GossipOp::Round => {
                    let next = gossip_round(&full, &locals, &neighbours, nt, case.dist_max);
                    if gossip.is_converged() {
                        prop_assert!(next == full, "converged, but a full round changes tables");
                        continue;
                    }
                    gossip.round(&locals, &neighbours);
                    prop_assert!(gossip.directories() == next.as_slice(), "tables diverged");
                    prop_assert_eq!(
                        gossip.is_converged(),
                        next == full,
                        "convergence diverged"
                    );
                    full = next;
                }
                GossipOp::Switch(n, task) => {
                    let n = n as usize % dims.len();
                    locals[n] = task.map(TaskId::new);
                    gossip.task_changed(n);
                }
                GossipOp::Kill(n) => {
                    let n = n as usize % dims.len();
                    locals[n] = None;
                    full[n].clear();
                    gossip.clear(n, &neighbours);
                }
            }
        }
    }
}
