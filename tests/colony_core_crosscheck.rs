//! Platform against prediction: how far the embedded models' task
//! allocation sits from the Fig. 1 class-6 mean-field prediction.
//!
//! The prediction is the fixed point of [`OdeColony`] (Gordon, Goodwin &
//! Trainor's network task allocation) driven by the workload's
//! [`FlowAnalysis::instance_ratio`]: 1:3:1 on the Fig. 3 fork-join, so
//! 25.6 / 76.8 / 25.6 PEs on the default 8x16 grid. The fixed point, not
//! an integrated state: the Euler-integrated populations orbit it
//! without settling (the source swings between about 16 and 35 PEs at
//! `dt = 0.01`). The distance is [`allocation_error`], the L1 distance
//! between the normalised per-task PE counts of each recorded window and
//! the normalised prediction.
//!
//! Measured on the default spec (8x16 fork-join, 1000 ms, 2 ms windows),
//! first window → last window:
//!
//! | model | 20000 | 20001 | 20002 |
//! |---|---|---|---|
//! | `none` | 0.013 → 0.013 | 0.013 → 0.013 | 0.013 → 0.013 |
//! | `ni` | 0.497 → 0.278 | 0.606 → 0.247 | 0.622 → 0.122 |
//! | `ffw` | 0.497 → 0.288 | 0.606 → 0.241 | 0.622 → 0.288 |
//!
//! Over seeds 20000–20009 the random initial mapping sits 0.40–0.68
//! away. The last window sits 0.12–0.33 away for NI (median 0.23) and
//! 0.24–0.32 for FFW (median 0.26); FFW staffs the source with 41–46 PEs
//! where the prediction has 25.6. So the claim that a colony allocates
//! workers in proportion to demand (Ramos et al., *On Self-Regulated
//! Swarms*) does not hold for the adaptive models on this platform, and
//! nothing here asserts it. What holds, and is asserted: the baseline's
//! heuristic mapping (26 / 76 / 26) is the prediction up to rounding,
//! and both adaptive models staff every task and end closer to it than
//! the random mapping they start from.
//!
//! The runs also read the [`specialisation_index`] of the recorder's
//! per-PE work records. The baseline never switches, so its PEs are
//! complete specialists (1.0). The adaptive models switch PEs, yet each
//! PE spends most of its life on one task: NI 0.71–0.74 and FFW
//! 0.77–0.84 at seeds 20000–20002.

use sirtm::core::models::network_ode::OdeColony;
use sirtm::core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm::scenario::metrics::{allocation_error, specialisation_index};
use sirtm::scenario::{run_spec, ScenarioSpec};
use sirtm::taskgraph::FlowAnalysis;

const SEEDS: [u64; 3] = [20000, 20001, 20002];

/// The [`OdeColony`] fixed point for `spec`'s workload and grid.
fn prediction(spec: &ScenarioSpec) -> Vec<f64> {
    let ratio = FlowAnalysis::analyze(&spec.graph()).instance_ratio();
    let demand: Vec<f64> = ratio.iter().map(|&r| f64::from(r)).collect();
    OdeColony::new(demand, vec![1.0; ratio.len()], spec.grid().len() as f64).analytic_fixed_point()
}

/// One platform run of `model` on the default spec at `seed`: the
/// per-window distance from the prediction, the last window's per-task
/// PE counts, and the PEs' specialisation index.
fn run(model: ModelKind, seed: u64) -> (Vec<f64>, Vec<usize>, f64) {
    let spec = ScenarioSpec::new("crosscheck", model);
    let predicted = prediction(&spec);
    let trace = run_spec(&spec, seed).trace;
    let errors = trace
        .samples
        .iter()
        .map(|s| allocation_error(&s.task_counts, &predicted))
        .collect();
    let last = trace.samples.last().expect("windows recorded");
    let specialisation = specialisation_index(&trace.agents);
    (errors, last.task_counts.clone(), specialisation)
}

/// An adaptive model staffs every task by the last window, ends closer
/// to the prediction than the random mapping it starts from, and
/// switches PEs without making generalists of them.
fn check_adaptive(model: ModelKind) {
    let name = model.name();
    for seed in SEEDS {
        let (errors, last, specialisation) = run(model.clone(), seed);
        assert!(
            last.iter().all(|&n| n > 0),
            "{name} seed {seed}: a task is unstaffed at the end: {last:?}"
        );
        let (first, end) = (errors[0], errors[errors.len() - 1]);
        assert!(
            end < first,
            "{name} seed {seed}: distance {first:.3} -> {end:.3} did not shrink"
        );
        assert!(
            specialisation > 0.5 && specialisation < 1.0,
            "{name} seed {seed}: specialisation index {specialisation:.3}"
        );
    }
}

/// The workload's instance ratio, the [`OdeColony`] fixed point it
/// drives and the baseline platform's mapping name one allocation.
#[test]
fn three_formulations_agree_on_demand_proportions() {
    let spec = ScenarioSpec::new("crosscheck", ModelKind::NoIntelligence);
    let ratio = FlowAnalysis::analyze(&spec.graph()).instance_ratio();
    let ratio_total: f64 = ratio.iter().map(|&r| f64::from(r)).sum();
    let fixed_point = prediction(&spec);
    let total: f64 = fixed_point.iter().sum();
    for (&r, &p) in ratio.iter().zip(&fixed_point) {
        assert!((f64::from(r) / ratio_total - p / total).abs() < 1e-9);
    }
    for seed in SEEDS {
        let (errors, _, specialisation) = run(ModelKind::NoIntelligence, seed);
        for (w, e) in errors.iter().enumerate() {
            assert!(*e < 0.03, "seed {seed}, window {w}: distance {e:.3}");
        }
        assert_eq!(specialisation, 1.0, "seed {seed}");
    }
}

#[test]
fn ni_staffs_every_task_and_closes_on_the_prediction() {
    check_adaptive(ModelKind::NetworkInteraction(NiConfig::default()));
}

#[test]
fn ffw_staffs_every_task_and_closes_on_the_prediction() {
    check_adaptive(ModelKind::ForagingForWork(FfwConfig::default()));
}
