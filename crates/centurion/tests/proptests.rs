//! Property-based robustness tests: the platform never panics and keeps
//! its invariants under arbitrary fault/knob/retask storms, and a clone
//! taken mid-storm evolves exactly as the original does.

use proptest::prelude::*;

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_noc::{NodeId, Port, RcapCommand};
use sirtm_rng::Xoshiro256StarStar;
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::{GridDims, Mapping};

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
