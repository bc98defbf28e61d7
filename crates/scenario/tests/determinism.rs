//! The sweep determinism guarantee: a sweep produces bit-identical
//! per-run results regardless of worker-thread count and of run
//! execution order. Floating-point comparisons go through `to_bits`, so
//! "identical" means identical to the last ULP.

use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_scenario::{
    presets, run_spec, run_sweep, Axis, RunSummary, SeedScheme, SweepOptions, SweepResult,
    SweepSpec,
};

fn bits(summary: &RunSummary) -> (u64, u64, u64, Option<u64>, u64) {
    (
        summary.seed,
        summary.settle_ms.to_bits(),
        summary.pre_rate.to_bits(),
        summary.recovery_ms.map(f64::to_bits),
        summary.final_rate.to_bits(),
    )
}

fn all_bits(result: &SweepResult) -> Vec<(u64, u64, u64, Option<u64>, u64)> {
    result
        .cells
        .iter()
        .flat_map(|c| c.runs.iter().map(bits))
        .collect()
}

/// A 2-cell × 16-replicate sweep (32 runs) over the light 4x4 preset,
/// with one faulted cell so recovery paths are exercised.
fn sweep_32() -> SweepSpec {
    SweepSpec {
        name: "determinism".to_string(),
        base: presets::preset("light-4x4").expect("known preset"),
        axes: vec![Axis::RandomFaults {
            at_ms: 60.0,
            counts: vec![0, 4],
        }],
        replicates: 16,
        seeds: SeedScheme::Derived { root: 0x00DE_7E12 },
    }
}

/// `sweep_32` with the paper's paired seeds: replicate `i` of both cells
/// runs seed `base + i`, so each fault-free run and its faulted twin form
/// a fork group that shares its first 60 ms.
fn sweep_32_paired() -> SweepSpec {
    SweepSpec {
        name: "determinism-paired".to_string(),
        seeds: SeedScheme::Sequential { base: 20_000 },
        ..sweep_32()
    }
}

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    for sweep in [sweep_32(), sweep_32_paired()] {
        assert_eq!(sweep.run_count(), 32);
        let single = run_sweep(&sweep, SweepOptions { threads: 1 });
        for threads in [2, 4, 8] {
            let parallel = run_sweep(&sweep, SweepOptions { threads });
            assert_eq!(
                all_bits(&single),
                all_bits(&parallel),
                "{}: {threads}-thread sweep must match the sequential pass bit for bit",
                sweep.name
            );
            // Aggregates fold in plan order, so they match bitwise too.
            for (a, b) in single.cells.iter().zip(&parallel.cells) {
                assert_eq!(a.settle_ms.q2.to_bits(), b.settle_ms.q2.to_bits());
                assert_eq!(
                    a.final_rate_online.mean.to_bits(),
                    b.final_rate_online.mean.to_bits()
                );
                assert_eq!(
                    a.recovery_ms.map(|q| q.q2.to_bits()),
                    b.recovery_ms.map(|q| q.q2.to_bits())
                );
            }
        }
    }
}

#[test]
fn runs_are_execution_order_independent() {
    // Each run is a pure function of (spec, seed): executing the plan in
    // reverse order one run at a time, from scratch, reproduces the
    // orchestrator's results exactly, forked runs included.
    for sweep in [sweep_32(), sweep_32_paired()] {
        let orchestrated = run_sweep(&sweep, SweepOptions { threads: 4 });
        let plans = sweep.expand();
        let mut reversed: Vec<_> = plans
            .iter()
            .rev()
            .map(|p| (p.index, run_spec(&p.spec, p.seed).summary()))
            .collect();
        reversed.sort_by_key(|&(i, _)| i);
        let manual: Vec<_> = reversed.iter().map(|(_, s)| bits(s)).collect();
        assert_eq!(all_bits(&orchestrated), manual, "{}", sweep.name);
    }
}

#[test]
fn seed_derivation_is_coordinate_stable() {
    // Seeds depend only on (scheme, cell, replicate) — growing the
    // replicate count or reordering execution cannot move them.
    let scheme = SeedScheme::Derived { root: 99 };
    let small: Vec<u64> = (0..4).map(|r| scheme.seed(1, r)).collect();
    let grown: Vec<u64> = (0..4).map(|r| scheme.seed(1, r)).collect();
    assert_eq!(small, grown);
    let seq = SeedScheme::Sequential { base: 1000 };
    assert_eq!(seq.seed(0, 5), 1005);
    assert_eq!(seq.seed(7, 5), 1005, "paired across cells");
}

#[test]
fn adaptive_models_are_equally_deterministic() {
    // The FFW colony is the adaptive stressor: same spec, same seed, two
    // thread counts, one faulted run each.
    let mut base = presets::preset("light-4x4").expect("known preset");
    base.model = ModelKind::ForagingForWork(FfwConfig::default());
    let sweep = SweepSpec {
        name: "ffw-determinism".to_string(),
        base,
        axes: vec![],
        replicates: 6,
        seeds: SeedScheme::Sequential { base: 77 },
    };
    let a = run_sweep(&sweep, SweepOptions { threads: 1 });
    let b = run_sweep(&sweep, SweepOptions { threads: 6 });
    assert_eq!(all_bits(&a), all_bits(&b));
}

#[test]
fn sim_counters_are_pinned() {
    // All eight sim-plane counters of a few runs, as the per-cycle
    // stepper counted them: the lazy AIM scan path credits the cycles
    // and scans it skips, so a change to that credit shows here. The
    // runs cover a PE-fault wave (light-4x4 at 20000-20003), every
    // behavioural kind, firmware FFW and PE hangs on the 8x16 grid.
    use sirtm_core::models::NiConfig;
    use sirtm_scenario::{EventAction, EventSpec, ScenarioSpec};
    let light = presets::preset("light-4x4").expect("known preset");
    let with_model = |model: ModelKind| ScenarioSpec {
        model,
        ..light.clone()
    };
    let mut hangs = ScenarioSpec::new(
        "hangs-8x16",
        ModelKind::ForagingForWork(FfwConfig::default()),
    );
    hangs.duration_ms = 40.0;
    hangs.window_ms = 4.0;
    hangs.settle_region_ms = Some(20.0);
    hangs.events = vec![EventSpec {
        at_ms: 20.0,
        action: EventAction::RandomHangs { count: 6 },
    }];
    // cycles_stepped, cycles_fast_forwarded, messages_injected,
    // messages_delivered, flit_hops, gossip_rounds, aim_scans,
    // thermal_solves.
    let pins = [
        (
            light.clone(),
            20_000,
            [12000, 0, 112, 111, 1218, 82, 19200, 0],
        ),
        (
            light.clone(),
            20_001,
            [11424, 576, 103, 103, 1035, 76, 18624, 0],
        ),
        (
            light.clone(),
            20_002,
            [10887, 1113, 171, 171, 1830, 101, 18087, 0],
        ),
        (
            light.clone(),
            20_003,
            [10882, 1118, 105, 105, 1110, 107, 18082, 0],
        ),
        (
            with_model(ModelKind::NetworkInteraction(NiConfig::default())),
            20_000,
            [12000, 0, 45, 45, 552, 11, 19200, 0],
        ),
        (
            with_model(ModelKind::NoIntelligence),
            20_000,
            [6548, 5452, 194, 181, 2171, 9, 10489, 0],
        ),
        (
            with_model(ModelKind::ForagingForWorkFirmware(FfwConfig::default())),
            20_000,
            [12000, 0, 112, 111, 1218, 82, 19200, 0],
        ),
        (hangs, 7, [4000, 0, 2242, 2236, 24072, 49, 51200, 0]),
    ];
    for (spec, seed, want) in &pins {
        let got = run_spec(spec, *seed).sim.fields().map(|(_, v)| v);
        assert_eq!(
            &got,
            want,
            "{} {} at seed {seed}",
            spec.name,
            spec.model.name()
        );
    }
}
