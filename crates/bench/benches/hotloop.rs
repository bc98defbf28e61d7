//! The simulator hot-loop benchmark: optimized activity-gated stepping
//! ([`Platform::run_cycles`]) against the retained naive reference
//! ([`Platform::step_naive`]) across grid sizes and load levels.
//!
//! `BENCH_hotloop.json` (checked in at the repo root) is produced by the
//! `hotloop` binary in `sirtm-experiments`, which wall-clocks the same
//! configurations; this criterion target tracks the same matrix at bench
//! granularity so regressions are attributable per configuration.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_rng::Xoshiro256StarStar;
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::{GridDims, Mapping};

/// Cycles advanced per bench iteration.
const CHUNK: u64 = 1000;

/// Workload at a given load level: `light` is a quarter of the paper's
/// generation rate (long quiescent stretches), `heavy` is four times it
/// (a saturated fabric).
fn workload(light: bool) -> ForkJoinParams {
    ForkJoinParams {
        generation_period: if light { 1600 } else { 100 },
        ..ForkJoinParams::default()
    }
}

fn platform(model: &ModelKind, dims: GridDims, light: bool) -> Platform {
    let cfg = PlatformConfig {
        dims,
        ..PlatformConfig::default()
    };
    let graph = fork_join(&workload(light));
    let mut rng = Xoshiro256StarStar::seed_from_u64(9);
    let mapping = if model.is_adaptive() {
        Mapping::random_uniform(&graph, cfg.dims, &mut rng)
    } else {
        Mapping::heuristic(&graph, cfg.dims)
    };
    let mut p = Platform::new(graph, &mapping, model, cfg);
    p.randomize_phases(&mut rng);
    p.run_ms(40.0); // warm queues, scratch and the settling churn
    p
}

fn hotloop(c: &mut Criterion) {
    let grids = [
        ("4x4", GridDims::new(4, 4)),
        ("8x8", GridDims::new(8, 8)),
        ("8x16", GridDims::new(8, 16)),
    ];
    let mut group = c.benchmark_group("hotloop");
    for (grid_name, dims) in grids {
        for (load, light) in [("light", true), ("heavy", false)] {
            let model = ModelKind::NoIntelligence;
            group.bench_function(format!("optimized/{grid_name}/{load}"), |b| {
                let mut p = platform(&model, dims, light);
                b.iter(|| {
                    p.run_cycles(CHUNK);
                    black_box(p.now())
                });
            });
            group.bench_function(format!("naive/{grid_name}/{load}"), |b| {
                let mut p = platform(&model, dims, light);
                b.iter(|| {
                    for _ in 0..CHUNK {
                        p.step_naive();
                    }
                    black_box(p.now())
                });
            });
        }
    }
    // The adaptive hot path (no fast-forward jumps, but active-set
    // stepping and zero-allocation scans still apply).
    let ffw = ModelKind::ForagingForWork(FfwConfig::default());
    for (load, light) in [("light", true), ("heavy", false)] {
        group.bench_function(format!("optimized-ffw/8x16/{load}"), |b| {
            let mut p = platform(&ffw, GridDims::new(8, 16), light);
            b.iter(|| {
                p.run_cycles(CHUNK);
                black_box(p.now())
            });
        });
        group.bench_function(format!("naive-ffw/8x16/{load}"), |b| {
            let mut p = platform(&ffw, GridDims::new(8, 16), light);
            b.iter(|| {
                for _ in 0..CHUNK {
                    p.step_naive();
                }
                black_box(p.now())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, hotloop);
criterion_main!(benches);
