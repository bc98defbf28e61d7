//! Hot-loop throughput baseline: wall-clocks the optimized
//! (activity-gated) and naive (per-cycle) platform steppers across grid
//! sizes and load levels, and emits `BENCH_hotloop.json` — the repo's
//! recorded perf trajectory for the simulation core.
//!
//! ```text
//! hotloop [--out PATH] [--measure-ms N]
//! ```
//!
//! Run from the repo root (release build) to refresh the checked-in
//! artefact:
//!
//! ```text
//! cargo run --release -p sirtm-experiments --bin hotloop
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::firmware::{set_default_engine_kind, EngineKind};
use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_rng::Xoshiro256StarStar;
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::{GridDims, Mapping};

/// One measured configuration.
struct Row {
    grid: &'static str,
    load: &'static str,
    model: &'static str,
    naive_cps: f64,
    optimized_cps: f64,
}

fn workload(light: bool) -> ForkJoinParams {
    ForkJoinParams {
        // Light: a quarter of the paper's generation rate, so the grid
        // spends most cycles quiescent. Heavy: four times it.
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
    p.run_ms(40.0); // warm queues, scratch and settling churn
    p
}

/// Simulated cycles per wall-clock second of `stepper`, measured over at
/// least `budget_ms` of wall time in fixed chunks.
fn cycles_per_sec(p: &mut Platform, naive: bool, budget_ms: u64) -> f64 {
    const CHUNK: u64 = 2000;
    let started = Instant::now();
    let mut cycles = 0u64;
    while started.elapsed().as_millis() < budget_ms as u128 {
        if naive {
            for _ in 0..CHUNK {
                p.step_naive();
            }
        } else {
            p.run_cycles(CHUNK);
        }
        cycles += CHUNK;
    }
    cycles as f64 / started.elapsed().as_secs_f64()
}

fn grid_name(dims: GridDims) -> &'static str {
    match dims.len() {
        16 => "4x4",
        64 => "8x8",
        128 => "8x16",
        1024 => "32x32",
        _ => "other",
    }
}

fn measure(model: &ModelKind, name: &'static str, dims: GridDims, budget_ms: u64) -> Vec<Row> {
    let grid = grid_name(dims);
    [("light", true), ("heavy", false)]
        .into_iter()
        .map(|(load, light)| {
            let mut nv = platform(model, dims, light);
            let mut op = platform(model, dims, light);
            let naive_cps = cycles_per_sec(&mut nv, true, budget_ms);
            let optimized_cps = cycles_per_sec(&mut op, false, budget_ms);
            eprintln!(
                "  {grid:>5} {load:<5} {name:<4}  naive {naive_cps:>12.0} c/s   optimized {optimized_cps:>12.0} c/s   ({:.2}x)",
                optimized_cps / naive_cps
            );
            Row {
                grid,
                load,
                model: name,
                naive_cps,
                optimized_cps,
            }
        })
        .collect()
}

fn main() {
    let mut out = String::from("BENCH_hotloop.json");
    let mut budget_ms = 400u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next().expect("--out needs a path"),
            "--measure-ms" => {
                budget_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--measure-ms needs a number")
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    eprintln!("hotloop: cycles/sec, optimized vs naive stepper ({budget_ms} ms per point)");
    let mut rows = Vec::new();
    let baseline = ModelKind::NoIntelligence;
    for dims in [
        GridDims::new(4, 4),
        GridDims::new(8, 8),
        GridDims::new(8, 16),
        GridDims::new(32, 32),
    ] {
        rows.extend(measure(&baseline, "none", dims, budget_ms));
    }
    let ffw = ModelKind::ForagingForWork(FfwConfig::default());
    rows.extend(measure(&ffw, "ffw", GridDims::new(8, 16), budget_ms));
    // The same firmware on each execution backend: the raw-word reference
    // interpreter, the pre-decoded dispatch tier, and the tiered engine
    // with compiled blocks (the production default, so it keeps the
    // historical `ffw-fw` row name).
    let ffw_fw = ModelKind::ForagingForWorkFirmware(FfwConfig::default());
    for (kind, name) in [
        (EngineKind::Reference, "ffw-fw-ref"),
        (EngineKind::Interpreter, "ffw-fw-int"),
        (EngineKind::Tiered, "ffw-fw"),
    ] {
        set_default_engine_kind(kind);
        rows.extend(measure(&ffw_fw, name, GridDims::new(8, 16), budget_ms));
    }
    set_default_engine_kind(EngineKind::default());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"hotloop\",\n");
    json.push_str(
        "  \"description\": \"Simulated NoC cycles per wall-clock second; optimized = activity-gated Platform::run_cycles, naive = per-cycle Platform::step_naive. Light load = 1/4 of the paper's generation rate, heavy = 4x.\",\n",
    );
    json.push_str("  \"unit\": \"cycles/sec\",\n");
    json.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"grid\": \"{}\", \"load\": \"{}\", \"model\": \"{}\", \"naive_cps\": {:.0}, \"optimized_cps\": {:.0}, \"speedup\": {:.2}}}{}",
            r.grid,
            r.load,
            r.model,
            r.naive_cps,
            r.optimized_cps,
            r.optimized_cps / r.naive_cps,
            sep
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, &json).expect("write benchmark artefact");
    eprintln!("wrote {out}");
}
