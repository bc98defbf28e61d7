//! Assertions of the paper's headline result *shapes* at reduced scale.
//! The `repro` binary produces the full-scale numbers; these tests guard the
//! qualitative claims against regressions.

use sirtm::core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm::scenario::stats::mean;
use sirtm::scenario::{run_spec, EventAction, EventSpec, RunOutcome, ScenarioSpec};

/// The paper's protocol at reduced scale: `model` for `duration_ms` in
/// `window_ms` windows, with `faults` random PE deaths at `fault_at_ms`
/// (the end of the settle region, faulted or not).
fn spec(
    model: ModelKind,
    faults: usize,
    duration_ms: f64,
    fault_at_ms: f64,
    window_ms: f64,
) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("shape", model);
    spec.duration_ms = duration_ms;
    spec.window_ms = window_ms;
    spec.settle_region_ms = Some(fault_at_ms);
    if faults > 0 {
        spec.events = vec![EventSpec {
            at_ms: fault_at_ms,
            action: EventAction::RandomPeFaults { count: faults },
        }];
    }
    spec
}

fn run(
    model: ModelKind,
    faults: usize,
    seed: u64,
    duration_ms: f64,
    fault_at_ms: f64,
) -> RunOutcome {
    run_spec(&spec(model, faults, duration_ms, fault_at_ms, 5.0), seed)
}

fn steady_rates(model: ModelKind, faults: usize, seeds: &[u64], timing: (f64, f64)) -> Vec<f64> {
    seeds
        .iter()
        .map(|&seed| run(model.clone(), faults, seed, timing.0, timing.1).final_rate)
        .collect()
}

#[test]
fn table1_shape_ffw_beats_baseline_fault_free() {
    let c = (400.0, 400.0);
    let seeds = [1, 2, 3];
    let base = mean(&steady_rates(ModelKind::NoIntelligence, 0, &seeds, c));
    let ffw = mean(&steady_rates(
        ModelKind::ForagingForWork(FfwConfig::default()),
        0,
        &seeds,
        c,
    ));
    assert!(
        ffw > base * 1.05,
        "FFW should clearly beat the static heuristic: {ffw:.2} vs {base:.2}"
    );
}

#[test]
fn table1_shape_ni_is_near_baseline() {
    let c = (400.0, 400.0);
    let seeds = [1, 2, 3];
    let base = mean(&steady_rates(ModelKind::NoIntelligence, 0, &seeds, c));
    let ni = mean(&steady_rates(
        ModelKind::NetworkInteraction(NiConfig::default()),
        0,
        &seeds,
        c,
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
    let c = (500.0, 250.0);
    let seeds = [4, 5];
    let clean = mean(&steady_rates(ModelKind::NoIntelligence, 0, &seeds, c));
    let faulted = mean(&steady_rates(ModelKind::NoIntelligence, 32, &seeds, c));
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
    let c = (500.0, 250.0);
    let seeds = [6, 7];
    for faults in [16usize, 32] {
        let base = mean(&steady_rates(ModelKind::NoIntelligence, faults, &seeds, c));
        let ffw = mean(&steady_rates(
            ModelKind::ForagingForWork(FfwConfig::default()),
            faults,
            &seeds,
            c,
        ));
        assert!(
            ffw > base,
            "{faults} faults: FFW {ffw:.2} must beat baseline {base:.2}"
        );
    }
}

#[test]
fn settling_order_baseline_first() {
    let base = run(ModelKind::NoIntelligence, 0, 8, 400.0, 400.0);
    let ffw = run(
        ModelKind::ForagingForWork(FfwConfig::default()),
        0,
        8,
        400.0,
        400.0,
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
    let r = run_spec(&spec(ModelKind::NoIntelligence, 42, 400.0, 200.0, 10.0), 9);
    let active = r.trace.nodes_active();
    let pre = mean(&active[10..20]);
    let post = mean(&active[30..40]);
    assert!(
        post < pre * 0.85,
        "42 dead nodes must dent the active-node series: {post:.1} vs {pre:.1}"
    );
}
