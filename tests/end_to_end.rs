//! Cross-crate end-to-end tests: the full stack from task graph through
//! NoC, PEs, AIMs and the experiment harness.

use sirtm::centurion::{Platform, PlatformConfig};
use sirtm::core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm::noc::{NodeId, RcapCommand};
use sirtm::rng::Xoshiro256StarStar;
use sirtm::taskgraph::{workloads, GridDims, Mapping, TaskId};

fn small_cfg() -> PlatformConfig {
    PlatformConfig {
        dims: GridDims::new(6, 6),
        ..PlatformConfig::default()
    }
}

fn platform_for(model: ModelKind, seed: u64, cfg: PlatformConfig) -> Platform {
    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let mapping = if model.is_adaptive() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        Mapping::random_uniform(&graph, cfg.dims, &mut rng)
    } else {
        Mapping::heuristic(&graph, cfg.dims)
    };
    Platform::new(graph, &mapping, &model, cfg)
}

#[test]
fn every_model_sustains_the_pipeline() {
    for model in [
        ModelKind::NoIntelligence,
        ModelKind::NetworkInteraction(NiConfig::default()),
        ModelKind::ForagingForWork(FfwConfig::default()),
    ] {
        let mut p = platform_for(model.clone(), 3, small_cfg());
        p.run_ms(250.0);
        assert!(
            p.completions(TaskId::new(2)) > 50,
            "{} produced only {} sink completions",
            model.name(),
            p.completions(TaskId::new(2))
        );
    }
}

#[test]
fn firmware_and_behavioural_colonies_evolve_identically() {
    // The strongest cross-stack differential test: with identical decision
    // semantics, a platform of PicoBlaze-firmware AIMs must produce the
    // *same trajectory* as a platform of behavioural AIMs.
    let pairs = [
        (
            ModelKind::ForagingForWork(FfwConfig::default()),
            ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
        ),
        (
            ModelKind::NetworkInteraction(NiConfig::default()),
            ModelKind::NetworkInteractionFirmware(NiConfig::default()),
        ),
    ];
    for (behavioural, firmware) in pairs {
        let mut a = platform_for(behavioural.clone(), 11, small_cfg());
        let mut b = platform_for(firmware.clone(), 11, small_cfg());
        a.run_ms(150.0);
        b.run_ms(150.0);
        assert_eq!(
            a.completions_total(),
            b.completions_total(),
            "{} vs {}: completions diverged",
            behavioural.name(),
            firmware.name()
        );
        assert_eq!(a.switches_total(), b.switches_total());
        assert_eq!(a.task_counts(), b.task_counts());
        assert_eq!(a.mesh_stats(), b.mesh_stats());
    }
}

#[test]
fn rcap_retune_changes_colony_behaviour() {
    // Loosen every FFW timeout over the NoC: more eager foraging should
    // produce strictly more switching than the untouched colony.
    let run = |retune: bool| {
        let mut p = platform_for(
            ModelKind::ForagingForWork(FfwConfig::default()),
            21,
            small_cfg(),
        );
        if retune {
            for i in 0..36u16 {
                p.send_config(
                    NodeId::new(0),
                    NodeId::new(i),
                    RcapCommand::AimWrite {
                        reg: sirtm::core::models::regs::FFW_TIMEOUT,
                        value: 10, // 1 ms instead of 20 ms
                    },
                );
            }
        }
        p.run_ms(200.0);
        p.switches_total()
    };
    let baseline = run(false);
    let eager = run(true);
    assert!(
        eager > baseline,
        "eager colony should switch more: {eager} vs {baseline}"
    );
}

#[test]
fn dvfs_throttling_costs_throughput() {
    let mut fast = platform_for(ModelKind::NoIntelligence, 1, small_cfg());
    let mut slow = platform_for(ModelKind::NoIntelligence, 1, small_cfg());
    for i in 0..36u16 {
        slow.set_frequency(NodeId::new(i), 25); // quarter speed
    }
    fast.run_ms(200.0);
    slow.run_ms(200.0);
    assert!(
        slow.completions(TaskId::new(2)) < fast.completions(TaskId::new(2)),
        "throttled grid must sink less: {} vs {}",
        slow.completions(TaskId::new(2)),
        fast.completions(TaskId::new(2))
    );
}

#[test]
fn adaptive_colony_beats_baseline_after_heavy_faults() {
    // The paper's headline: under heavy fault load the adaptive colony
    // retains more performance than the static mapping. Paired fault sets.
    let cfg = PlatformConfig::default();
    let kill: Vec<NodeId> = {
        use sirtm::rng::Rng;
        let mut rng = Xoshiro256StarStar::seed_from_u64(1234);
        rng.sample_indices(128, 32)
            .into_iter()
            .map(|i| NodeId::new(i as u16))
            .collect()
    };
    let run = |model: ModelKind| {
        let mut p = platform_for(model, 5, cfg.clone());
        p.run_ms(300.0);
        for &n in &kill {
            p.kill_pe(n);
        }
        p.run_ms(300.0);
        let before = p.completions(TaskId::new(2));
        p.run_ms(100.0);
        (p.completions(TaskId::new(2)) - before) as f64 / 100.0
    };
    let baseline = run(ModelKind::NoIntelligence);
    let ffw = run(ModelKind::ForagingForWork(FfwConfig::default()));
    assert!(
        ffw > baseline,
        "FFW must retain more post-fault throughput: {ffw:.2} vs {baseline:.2}"
    );
}

#[test]
fn colony_generalises_to_other_task_graphs() {
    // The intelligence is workload-agnostic: run the pipeline and diamond
    // graphs (not in the paper) through the same machinery.
    let cfg = small_cfg();
    for graph in [workloads::pipeline(4, 300, 80), workloads::diamond(400)] {
        let sink = graph.sinks()[0];
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
        let mut p = Platform::new(
            graph,
            &mapping,
            &ModelKind::ForagingForWork(FfwConfig::default()),
            cfg.clone(),
        );
        p.run_ms(300.0);
        assert!(
            p.completions(sink) > 20,
            "sink {} completions {}",
            sink,
            p.completions(sink)
        );
    }
}

#[test]
fn full_paper_platform_is_deterministic_end_to_end() {
    let run = || {
        let mut p = platform_for(
            ModelKind::ForagingForWork(FfwConfig::default()),
            99,
            PlatformConfig::default(),
        );
        p.run_ms(120.0);
        p.kill_pe(NodeId::new(64));
        p.run_ms(80.0);
        (
            p.completions_total(),
            p.switches_total(),
            p.task_counts(),
            p.mesh_stats(),
            p.stats().clone(),
        )
    };
    assert_eq!(run(), run());
}
