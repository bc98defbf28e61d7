//! Assertions of the paper's headline result *shapes* at reduced scale.
//! The `repro` binary produces the full-scale numbers; these tests guard the
//! qualitative claims against regressions.

use sirtm::core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm::experiments::harness::{run_one, ExperimentConfig, RunSpec};
use sirtm::experiments::stats::mean;

fn cfg(duration_ms: f64, fault_at_ms: f64) -> ExperimentConfig {
    ExperimentConfig {
        duration_ms,
        fault_at_ms,
        window_ms: 5.0,
        runs: 1,
        ..ExperimentConfig::default()
    }
}

fn steady_rates(model: ModelKind, faults: usize, seeds: &[u64], c: &ExperimentConfig) -> Vec<f64> {
    seeds
        .iter()
        .map(|&seed| {
            run_one(
                &RunSpec {
                    model: model.clone(),
                    faults,
                    seed,
                },
                c,
            )
            .final_rate
        })
        .collect()
}

#[test]
fn table1_shape_ffw_beats_baseline_fault_free() {
    let c = cfg(400.0, 400.0);
    let seeds = [1, 2, 3];
    let base = mean(&steady_rates(ModelKind::NoIntelligence, 0, &seeds, &c));
    let ffw = mean(&steady_rates(
        ModelKind::ForagingForWork(FfwConfig::default()),
        0,
        &seeds,
        &c,
    ));
    assert!(
        ffw > base * 1.05,
        "FFW should clearly beat the static heuristic: {ffw:.2} vs {base:.2}"
    );
}

#[test]
fn table1_shape_ni_is_near_baseline() {
    let c = cfg(400.0, 400.0);
    let seeds = [1, 2, 3];
    let base = mean(&steady_rates(ModelKind::NoIntelligence, 0, &seeds, &c));
    let ni = mean(&steady_rates(
        ModelKind::NetworkInteraction(NiConfig::default()),
        0,
        &seeds,
        &c,
    ));
    let ratio = ni / base;
    assert!(
        (0.85..1.25).contains(&ratio),
        "NI lands near the baseline in the paper (102%); got {:.0}%",
        ratio * 100.0
    );
}

#[test]
fn table2_shape_baseline_degrades_roughly_with_capacity() {
    let c = cfg(500.0, 250.0);
    let seeds = [4, 5];
    let clean = mean(&steady_rates(ModelKind::NoIntelligence, 0, &seeds, &c));
    let faulted = mean(&steady_rates(ModelKind::NoIntelligence, 32, &seeds, &c));
    let retained = faulted / clean;
    // 32 of 128 nodes lost: the static mapping retains around 75% minus
    // chain effects (dead sources kill whole instances). Paper: 69%.
    assert!(
        (0.5..0.85).contains(&retained),
        "baseline retained {:.0}%",
        retained * 100.0
    );
}

#[test]
fn table2_shape_ffw_retains_more_than_baseline_under_faults() {
    let c = cfg(500.0, 250.0);
    let seeds = [6, 7];
    for faults in [16usize, 32] {
        let base = mean(&steady_rates(ModelKind::NoIntelligence, faults, &seeds, &c));
        let ffw = mean(&steady_rates(
            ModelKind::ForagingForWork(FfwConfig::default()),
            faults,
            &seeds,
            &c,
        ));
        assert!(
            ffw > base,
            "{faults} faults: FFW {ffw:.2} must beat baseline {base:.2}"
        );
    }
}

#[test]
fn settling_order_baseline_first() {
    let c = cfg(400.0, 400.0);
    let base = run_one(
        &RunSpec {
            model: ModelKind::NoIntelligence,
            faults: 0,
            seed: 8,
        },
        &c,
    );
    let ffw = run_one(
        &RunSpec {
            model: ModelKind::ForagingForWork(FfwConfig::default()),
            faults: 0,
            seed: 8,
        },
        &c,
    );
    assert!(
        base.settle_ms < ffw.settle_ms,
        "the static baseline only pipeline-fills: {} vs {}",
        base.settle_ms,
        ffw.settle_ms
    );
}

#[test]
fn fig4_shape_fault_drop_is_visible_in_nodes_active() {
    let c = ExperimentConfig {
        duration_ms: 400.0,
        fault_at_ms: 200.0,
        window_ms: 10.0,
        runs: 1,
        ..ExperimentConfig::default()
    };
    let r = run_one(
        &RunSpec {
            model: ModelKind::NoIntelligence,
            faults: 42,
            seed: 9,
        },
        &c,
    );
    let active = r.trace.nodes_active();
    let pre = mean(&active[10..20]);
    let post = mean(&active[30..40]);
    assert!(
        post < pre * 0.85,
        "42 dead nodes must dent the active-node series: {post:.1} vs {pre:.1}"
    );
}
