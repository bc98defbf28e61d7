//! Property tests for the recorder's per-PE work records.
//!
//! The [`Recorder`](sirtm_scenario::recorder::Recorder) keeps one
//! [`Agent`](sirtm_scenario::agent::Agent) per PE and advances it every
//! window. Two laws the division-of-labour metrics lean on:
//!
//! * Kills are monotone and safe: any run of fault waves, oversized ones
//!   included, only ever lowers the alive count, the dead records are
//!   exactly the dead PEs, and no record counts more windows than ran.
//! * Replay is deterministic: the same spec and seed give the same
//!   trace, work records included, bit for bit.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proptest::sample::select;

use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_scenario::{presets, run_spec, EventAction, EventSpec, ScenarioSpec};

fn model() -> impl Strategy<Value = ModelKind> {
    select(vec![
        ModelKind::NoIntelligence,
        ModelKind::NetworkInteraction(NiConfig::default()),
        ModelKind::ForagingForWork(FfwConfig::default()),
    ])
}

/// The light 4x4 preset (16 PEs, 4 ms windows) cut to 40 ms, running
/// `model` with PE-fault waves of `(at window, count)`.
fn spec(model: ModelKind, waves: &[(u8, usize)]) -> ScenarioSpec {
    let mut s = presets::preset("light-4x4").expect("known preset");
    s.model = model;
    s.duration_ms = 40.0;
    s.settle_region_ms = None;
    s.events = waves
        .iter()
        .map(|&(w, count)| EventSpec {
            at_ms: f64::from(w) * s.window_ms,
            action: EventAction::RandomPeFaults { count },
        })
        .collect();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Waves of up to 24 victims on 16 PEs: the alive count never rises,
    /// saturates at zero, and matches the dead work records; alive
    /// records held a task in every window.
    #[test]
    fn kills_are_monotone_and_safe(
        m in model(),
        waves in pvec((1u8..10, 0usize..24), 0..4),
        seed in 0u64..1000,
    ) {
        let s = spec(m, &waves);
        let trace = run_spec(&s, seed).trace;
        let windows = trace.samples.len() as u64;
        let alive: Vec<usize> = trace.samples.iter().map(|w| w.alive).collect();
        prop_assert!(alive.windows(2).all(|p| p[1] <= p[0]), "alive rose: {:?}", alive);
        let last = *alive.last().expect("windows");
        prop_assert_eq!(trace.agents.len(), 16);
        let dead = trace.agents.iter().filter(|a| !a.is_alive()).count();
        prop_assert_eq!(dead, 16 - last);
        for a in &trace.agents {
            let worked: u64 = a.task_times().iter().sum();
            prop_assert!(worked <= windows);
            if a.is_alive() {
                prop_assert_eq!(worked, windows);
            }
        }
    }

    /// Two runs of one spec and seed record equal traces.
    #[test]
    fn replay_determinism(
        m in model(),
        waves in pvec((1u8..10, 0usize..8), 0..3),
        seed in 0u64..1000,
    ) {
        let s = spec(m, &waves);
        prop_assert_eq!(run_spec(&s, seed).trace, run_spec(&s, seed).trace);
    }
}
