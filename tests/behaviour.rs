//! The embedded Fig. 1 classes on the platform: what holds of their
//! task allocation on the default 8x16 fork-join.
//!
//! The classes the platform runs are NI (response thresholds fed by the
//! routed-packet stream, classes 1 and 2), NI with social inhibition
//! (class 4), FFW (class 5) and FFW with self-reinforcement (class 3).
//! The workload's demand is 1:3:1 (source, middle, sink). None of the
//! classes mirrors that ratio (`colony_core_crosscheck.rs` measures the
//! distance), but each gives the 3x-demand middle task the most PEs, and
//! each re-staffs every task after a third of the grid dies.

use sirtm::core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm::scenario::{run_spec, EventAction, EventSpec, RunOutcome, ScenarioSpec};

const SEEDS: [u64; 3] = [20000, 20001, 20002];

/// The four embedded threshold classes, named.
fn threshold_classes() -> Vec<(&'static str, ModelKind)> {
    vec![
        ("ni", ModelKind::NetworkInteraction(NiConfig::default())),
        (
            "ni+inhibition",
            ModelKind::NetworkInteraction(NiConfig {
                social_inhibition_gain: 4,
                ..NiConfig::default()
            }),
        ),
        ("ffw", ModelKind::ForagingForWork(FfwConfig::default())),
        (
            "ffw+reinforcement",
            ModelKind::ForagingForWork(FfwConfig {
                reinforcement_gain: 4,
                ..FfwConfig::default()
            }),
        ),
    ]
}

/// Runs every class at every seed, `events` on the default spec cut to
/// `duration_ms`, and hands each outcome to `check`.
fn for_each_run(duration_ms: f64, events: &[EventSpec], check: impl Fn(&str, u64, &RunOutcome)) {
    for (name, model) in threshold_classes() {
        let mut spec = ScenarioSpec::new(name, model);
        spec.duration_ms = duration_ms;
        spec.events = events.to_vec();
        for seed in SEEDS {
            check(name, seed, &run_spec(&spec, seed));
        }
    }
}

/// Measured last windows at 500 ms: NI 41/60/27, 35/62/31, 35/68/25;
/// FFW 43/62/23, 41/62/25, 44/60/24 (source/middle/sink).
#[test]
fn every_threshold_class_tracks_demand_ordering() {
    for_each_run(500.0, &[], |name, seed, outcome| {
        let counts = &outcome.trace.samples.last().expect("windows").task_counts;
        assert!(
            counts[1] > counts[0] && counts[1] > counts[2],
            "{name} seed {seed}: the 3x-demand task is not the most staffed: {counts:?}"
        );
    });
}

/// 42 of 128 PEs die at 300 ms. Every class switches PEs after the wave,
/// and by 600 ms staffs every task and completes work again.
#[test]
fn every_threshold_class_reallocates_after_mass_death() {
    let wave = EventSpec {
        at_ms: 300.0,
        action: EventAction::RandomPeFaults { count: 42 },
    };
    for_each_run(600.0, &[wave], |name, seed, outcome| {
        let trace = &outcome.trace;
        let after: Vec<_> = trace.samples.iter().filter(|s| s.t_ms > 300.0).collect();
        let last = after.last().expect("windows after the wave");
        assert_eq!(last.alive, 128 - 42, "{name} seed {seed}");
        assert!(
            after.iter().map(|s| s.switches).sum::<u64>() > 0,
            "{name} seed {seed}: no PE switched after the wave"
        );
        assert!(
            last.task_counts.iter().all(|&n| n > 0),
            "{name} seed {seed}: a task is unstaffed: {:?}",
            last.task_counts
        );
        let tail = trace.samples.len();
        assert!(
            trace.mean_throughput(tail - 25, tail) > 0.0,
            "{name} seed {seed}: no completions in the last 50 ms"
        );
    });
}
