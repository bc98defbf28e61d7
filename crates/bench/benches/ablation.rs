//! Ablation benches for the platform's design choices: destination
//! policy, opportunistic delivery, model thresholds, gossip radius,
//! AIM backend and multicast. Each bench's *throughput anchor* (printed
//! once per variant) is the scientifically interesting output; the
//! timing shows the cost of each variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sirtm_centurion::config::SendPolicy;
use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_experiments::harness::{run_one, ExperimentConfig, RunSpec};

/// A one-run configuration of `duration_ms`, faulting at `fault_at_ms`.
fn config(duration_ms: f64, fault_at_ms: f64) -> ExperimentConfig {
    ExperimentConfig {
        duration_ms,
        fault_at_ms,
        window_ms: 5.0,
        runs: 1,
        ..ExperimentConfig::default()
    }
}

/// The final sink throughput of one run.
fn run_with(cfg: &ExperimentConfig, model: ModelKind, faults: usize, seed: u64) -> f64 {
    run_one(
        &RunSpec {
            model,
            faults,
            seed,
        },
        cfg,
    )
    .final_rate
}

/// Nearest vs round-robin destination resolution: the starvation
/// signal FFW feeds on needs spatial work gradients, which nearest
/// resolution keeps and round-robin spreads out.
fn ablation_send_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_send_policy");
    group.sample_size(10);
    for (name, policy) in [
        ("nearest", SendPolicy::Nearest),
        ("round_robin", SendPolicy::RoundRobin),
    ] {
        let mut cfg = config(300.0, 300.0);
        cfg.platform.send_policy = policy;
        let rate = run_with(&cfg, ModelKind::ForagingForWork(FfwConfig::default()), 0, 7);
        println!("[ablation] send_policy={name}: ffw steady {rate:.2} sinks/ms");
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_with(
                    &cfg,
                    ModelKind::ForagingForWork(FfwConfig::default()),
                    0,
                    black_box(7),
                ))
            });
        });
    }
    group.finish();
}

/// Task-affine opportunistic delivery on/off: without absorption,
/// mis-delivered work is dropped instead of adopted.
fn ablation_opportunistic(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_opportunistic_delivery");
    group.sample_size(10);
    for (name, on) in [("on", true), ("off", false)] {
        let mut cfg = config(300.0, 150.0);
        cfg.platform.opportunistic_delivery = on;
        let rate = run_with(
            &cfg,
            ModelKind::ForagingForWork(FfwConfig::default()),
            16,
            7,
        );
        println!("[ablation] opportunistic={name}: ffw post-16-fault {rate:.2} sinks/ms");
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_with(
                    &cfg,
                    ModelKind::ForagingForWork(FfwConfig::default()),
                    16,
                    black_box(7),
                ))
            });
        });
    }
    group.finish();
}

/// FFW task-switch timeout sweep around the paper's 20 ms (200 scans).
fn ablation_ffw_timeout(c: &mut Criterion) {
    let cfg = config(300.0, 300.0);
    let mut group = c.benchmark_group("ablation_ffw_timeout");
    group.sample_size(10);
    for timeout in [50u8, 200, 250] {
        let model = ModelKind::ForagingForWork(FfwConfig {
            timeout_scans: timeout,
            ..FfwConfig::default()
        });
        let rate = run_with(&cfg, model.clone(), 0, 11);
        println!(
            "[ablation] ffw_timeout={}ms: steady {rate:.2} sinks/ms",
            timeout as f64 / 10.0
        );
        group.bench_with_input(BenchmarkId::from_parameter(timeout), &timeout, |b, _| {
            b.iter(|| black_box(run_with(&cfg, model.clone(), 0, black_box(11))));
        });
    }
    group.finish();
}

/// NI switch-threshold sweep.
fn ablation_ni_threshold(c: &mut Criterion) {
    let cfg = config(300.0, 300.0);
    let mut group = c.benchmark_group("ablation_ni_threshold");
    group.sample_size(10);
    for threshold in [8u8, 16, 48] {
        let model = ModelKind::NetworkInteraction(NiConfig {
            threshold,
            ..NiConfig::default()
        });
        let rate = run_with(&cfg, model.clone(), 0, 13);
        println!("[ablation] ni_threshold={threshold}: steady {rate:.2} sinks/ms");
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, _| {
                b.iter(|| black_box(run_with(&cfg, model.clone(), 0, black_box(13))));
            },
        );
    }
    group.finish();
}

/// The Fig-1 adaptive-threshold extensions (social inhibition for NI,
/// self-reinforcement for FFW) on vs off.
fn ablation_extensions(c: &mut Criterion) {
    let cfg = config(300.0, 300.0);
    let mut group = c.benchmark_group("ablation_extensions");
    group.sample_size(10);
    let variants: Vec<(&str, ModelKind)> = vec![
        (
            "ni_plain",
            ModelKind::NetworkInteraction(NiConfig::default()),
        ),
        (
            "ni_social_inhibition",
            ModelKind::NetworkInteraction(NiConfig {
                social_inhibition_gain: 4,
                ..NiConfig::default()
            }),
        ),
        (
            "ffw_plain",
            ModelKind::ForagingForWork(FfwConfig::default()),
        ),
        (
            "ffw_self_reinforcement",
            ModelKind::ForagingForWork(FfwConfig {
                reinforcement_gain: 2,
                reinforcement_cap: 50,
                ..FfwConfig::default()
            }),
        ),
    ];
    for (name, model) in variants {
        let rate = run_with(&cfg, model.clone(), 0, 17);
        println!("[ablation] {name}: steady {rate:.2} sinks/ms");
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_with(&cfg, model.clone(), 0, black_box(17))));
        });
    }
    group.finish();
}

/// Gossip staleness bound sweep: how far task advertisements may travel
/// (and therefore how stale the directory may be) before entries expire.
fn ablation_gossip_radius(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gossip_radius");
    group.sample_size(10);
    for dist_max in [8u8, 28, 64] {
        let mut cfg = config(300.0, 150.0);
        cfg.platform.dir_dist_max = dist_max;
        let model = ModelKind::ForagingForWork(FfwConfig::default());
        let rate = run_with(&cfg, model.clone(), 16, 23);
        println!("[ablation] gossip dist_max={dist_max}: post-16-fault {rate:.2} sinks/ms");
        group.bench_with_input(BenchmarkId::from_parameter(dist_max), &dist_max, |b, _| {
            b.iter(|| black_box(run_with(&cfg, model.clone(), 16, black_box(23))));
        });
    }
    group.finish();
}

/// Behavioural vs PicoBlaze-firmware AIM backends on the full platform.
fn ablation_backend(c: &mut Criterion) {
    let cfg = config(100.0, 100.0);
    let mut group = c.benchmark_group("ablation_backend");
    group.sample_size(10);
    for (name, model) in [
        (
            "ffw_behavioural",
            ModelKind::ForagingForWork(FfwConfig::default()),
        ),
        (
            "ffw_firmware",
            ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
        ),
    ] {
        let rate = run_with(&cfg, model.clone(), 0, 19);
        println!("[ablation] backend {name}: steady {rate:.2} sinks/ms");
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_with(&cfg, model.clone(), 0, black_box(19))));
        });
    }
    group.finish();
}

/// The paper's future-work multicast: fork waves as dimension-ordered
/// trees vs independent unicasts, on the static baseline (where the
/// policies are directly comparable). The anchor is fabric work per
/// delivered sink.
fn ablation_multicast(c: &mut Criterion) {
    use sirtm_centurion::{Platform, PlatformConfig};
    use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
    use sirtm_taskgraph::{Mapping, TaskId};

    let mut group = c.benchmark_group("ablation_multicast");
    group.sample_size(10);
    for (name, policy) in [
        ("unicast", SendPolicy::RoundRobin),
        ("multicast", SendPolicy::Multicast),
    ] {
        let run = || {
            let cfg = PlatformConfig {
                send_policy: policy,
                opportunistic_delivery: false,
                ..PlatformConfig::default()
            };
            let graph = fork_join(&ForkJoinParams::default());
            let mapping = Mapping::heuristic(&graph, cfg.dims);
            let mut p = Platform::new(
                graph,
                &mapping,
                &sirtm_core::models::ModelKind::NoIntelligence,
                cfg,
            );
            p.run_ms(300.0);
            let sinks = p.completions(TaskId::new(2)).max(1);
            (sinks, p.mesh_stats().flit_hops as f64 / sinks as f64)
        };
        let (sinks, hops_per_sink) = run();
        println!("[ablation] multicast={name}: {sinks} sinks, {hops_per_sink:.1} flit hops/sink");
        group.bench_function(name, |b| b.iter(|| black_box(run())));
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_send_policy,
    ablation_opportunistic,
    ablation_ffw_timeout,
    ablation_ni_threshold,
    ablation_extensions,
    ablation_gossip_radius,
    ablation_backend,
    ablation_multicast
);
criterion_main!(benches);
