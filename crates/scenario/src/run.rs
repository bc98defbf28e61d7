//! Executing scenario runs: platform construction from the spec,
//! timeline application through the activity-gated `run_until` fast
//! path, and the paper's per-run measures.
//!
//! Runs execute in *fork groups* ([`run_group`]): runs at one seed whose
//! specs differ only in their events are one run until an event fires,
//! so a group simulates that shared prefix once and finishes each member
//! on its own copy. [`run_spec`] is the group of one.
//!
//! The construction and measurement pipeline is bit-compatible with the
//! original experiment harness: the same seed produces the same mapping,
//! clock phases, victims and windowed trace, so historical experiment
//! seeds (Table I's `1000 + i`, Table II's `20000 + i`) reproduce their
//! published aggregates through the spec path.

use sirtm_centurion::Platform;
use sirtm_rng::Xoshiro256StarStar;
use sirtm_taskgraph::Mapping;
use sirtm_telemetry::SimCounters;

use crate::detect::{settling_ms, DetectorConfig};
use crate::recorder::{Recorder, RunTrace};
use crate::spec::ScenarioSpec;
use crate::timeline::Timeline;

/// Everything one run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The run seed.
    pub seed: u64,
    /// The full windowed trace.
    pub trace: RunTrace,
    /// Settling time from cold start, ms (censored at the settle-region
    /// length).
    pub settle_ms: f64,
    /// Steady throughput inside the settle region, sinks/ms.
    pub pre_rate: f64,
    /// Re-settling time after the first timeline event, ms (`None` for
    /// event-free scenarios; censored at the post-event region length).
    pub recovery_ms: Option<f64>,
    /// Steady throughput at the end of the run, sinks/ms.
    pub final_rate: f64,
    /// Deterministic sim-plane telemetry for the run (sidecar material;
    /// deliberately absent from [`RunSummary`] so it can never reach a
    /// fingerprinted artefact).
    pub sim: SimCounters,
}

impl RunOutcome {
    /// The scalar summary (trace dropped) the sweep orchestrator streams.
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            seed: self.seed,
            settle_ms: self.settle_ms,
            pre_rate: self.pre_rate,
            recovery_ms: self.recovery_ms,
            final_rate: self.final_rate,
        }
    }
}

/// The constant-size per-run record a sweep retains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// The run seed.
    pub seed: u64,
    /// Settling time, ms.
    pub settle_ms: f64,
    /// Steady pre-event throughput, sinks/ms.
    pub pre_rate: f64,
    /// Recovery time, ms (`None` without events).
    pub recovery_ms: Option<f64>,
    /// End-of-run steady throughput, sinks/ms.
    pub final_rate: f64,
}

/// Builds the initial mapping per the spec's placement policy.
pub fn initial_mapping(
    spec: &ScenarioSpec,
    graph: &sirtm_taskgraph::TaskGraph,
    rng: &mut Xoshiro256StarStar,
) -> Mapping {
    if spec.maps_heuristically() {
        Mapping::heuristic(graph, spec.grid())
    } else {
        Mapping::random_uniform(graph, spec.grid(), rng)
    }
}

/// Builds the platform for one run of `spec` (mapping, phases, model)
/// without running it.
///
/// # Panics
///
/// Panics if the spec is internally inconsistent (see
/// [`ScenarioSpec::validate`]).
pub fn build_platform(spec: &ScenarioSpec, seed: u64) -> Platform {
    let graph = spec.graph();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mapping = initial_mapping(spec, &graph, &mut rng);
    let mut platform = Platform::new(graph, &mapping, &spec.model, spec.platform.clone());
    platform.randomize_phases(&mut rng);
    platform
}

/// Executes one run of `spec` end to end and extracts the measures.
///
/// # Panics
///
/// Panics if the spec is internally inconsistent, or its grid cannot hold
/// a graph the run places heuristically ([`ScenarioSpec::check_grid`]).
pub fn run_spec(spec: &ScenarioSpec, seed: u64) -> RunOutcome {
    let mut outcome = None;
    run_group(&[spec], seed, |_| {}, |_, o| outcome = Some(o));
    outcome.expect("a group of one finishes its run")
}

/// Executes a fork group: one run of each of `specs` at `seed`, where the
/// specs are equal once their events are cleared
/// ([`ScenarioSpec::eq_except_events`]). Each member's outcome is
/// bit-identical to [`run_spec`]'s, sim counters included.
///
/// The group builds one platform and steps whole windows while every
/// member's next event still lies in the future. A timeline is polled
/// only at window starts, so no member could have fired an event inside
/// this shared prefix. Every member but the last then finishes on a
/// clone of the prefix platform and recorder, dropped before the next
/// clone is made; the last takes the prefix state itself. A group of one
/// therefore clones nothing.
///
/// Members run one after another on the calling thread. `started(k)`
/// fires for member 0 before the prefix and for every later member right
/// before its own suffix; `finished(k, outcome)` fires after member `k`'s
/// suffix. Member 0's span therefore carries the shared prefix.
///
/// # Panics
///
/// Panics if `specs` is empty, if a spec is internally inconsistent or
/// fails [`ScenarioSpec::check_grid`], or if two members differ beyond
/// their events. All members are checked before any work starts.
pub fn run_group(
    specs: &[&ScenarioSpec],
    seed: u64,
    mut started: impl FnMut(usize),
    mut finished: impl FnMut(usize, RunOutcome),
) {
    let (&lead, _) = specs.split_first().expect("a fork group has members");
    for spec in specs {
        spec.validate();
        if let Err(e) = spec.check_grid() {
            panic!("{e}");
        }
        assert!(
            spec.eq_except_events(lead),
            "fork group members must differ only in their events"
        );
    }
    started(0);
    let mut platform = build_platform(lead, seed);
    let timelines: Vec<Timeline> = specs.iter().map(|s| Timeline::compile(s, seed)).collect();
    let mut recorder = Recorder::new(lead.window_ms, lead.sink());
    let windows = lead.total_windows();
    let mut window = 0;
    while window < windows
        && timelines
            .iter()
            .all(|t| t.next_at().is_none_or(|at| at > platform.now()))
    {
        platform.run_ms(lead.window_ms);
        recorder.sample(&platform);
        window += 1;
    }
    let last = specs.len() - 1;
    let mut prefix = Some((platform, recorder));
    for (k, timeline) in timelines.into_iter().enumerate() {
        if k > 0 {
            started(k);
        }
        let state = if k == last {
            prefix.take()
        } else {
            prefix.clone()
        };
        let (platform, recorder) = state.expect("the prefix outlives every member but the last");
        finished(
            k,
            finish(
                specs[k],
                seed,
                timeline,
                platform,
                recorder,
                windows - window,
            ),
        );
    }
}

/// Runs a member's remaining `windows` from the fork point, polling its
/// own timeline before each window, and measures the whole run.
fn finish(
    spec: &ScenarioSpec,
    seed: u64,
    mut timeline: Timeline,
    mut platform: Platform,
    mut recorder: Recorder,
    windows: usize,
) -> RunOutcome {
    recorder.run_windows(&mut platform, windows, |_, p| {
        timeline.poll(p);
    });
    let mut sim = platform.sim_counters();
    sim.thermal_solves += timeline.thermal_solves();
    measure(spec, seed, recorder.into_trace(), sim)
}

/// Extracts the paper's measures from a recorded trace.
fn measure(spec: &ScenarioSpec, seed: u64, trace: RunTrace, sim: SimCounters) -> RunOutcome {
    let cut = spec
        .settle_region_ms
        .map(|ms| (ms / spec.window_ms).round() as usize)
        .unwrap_or(trace.samples.len())
        .min(trace.samples.len());
    // A run has settled when the application throughput, the switch rate
    // AND the task distribution have all reached and held their steady
    // regions — the paper's "settling period as the task topology adapts".
    let n_tasks = trace
        .samples
        .first()
        .map(|s| s.task_counts.len())
        .unwrap_or(0);
    let count_detector = DetectorConfig {
        tolerance_frac: 0.05,
        tolerance_abs: 2.0, // nodes
        ..spec.detector
    };
    let task_series: Vec<Vec<f64>> = (0..n_tasks).map(|t| trace.task_count_series(t)).collect();
    let settle_of = |range: std::ops::Range<usize>, thr: &[f64], sw: &[f64]| -> (f64, f64) {
        let (t_ms, steady) = settling_ms(&thr[range.clone()], spec.window_ms, &spec.detector);
        let (s_ms, _) = settling_ms(&sw[range.clone()], spec.window_ms, &spec.detector);
        let mut settle = t_ms.max(s_ms);
        for series in &task_series {
            let (c_ms, _) = settling_ms(&series[range.clone()], spec.window_ms, &count_detector);
            settle = settle.max(c_ms);
        }
        (settle, steady)
    };
    let throughput = trace.throughput();
    let switch_series = trace.switches();
    let (settle_ms, pre_rate) = settle_of(0..cut, &throughput, &switch_series);
    let disruption_window = spec
        .first_event_ms()
        .filter(|_| !spec.events.is_empty())
        .map(|ms| (ms / spec.window_ms).round() as usize)
        .filter(|&w| w < trace.samples.len());
    let (recovery_ms, final_rate) = match disruption_window {
        Some(w) => {
            let (r, f) = settle_of(w..trace.samples.len(), &throughput, &switch_series);
            (Some(r), f)
        }
        None => {
            let all = trace.throughput();
            let n = all.len().min(spec.detector.steady_windows).max(1);
            let f = all[all.len() - n..].iter().sum::<f64>() / n as f64;
            (None, f)
        }
    };
    RunOutcome {
        seed,
        trace,
        settle_ms,
        pre_rate,
        recovery_ms,
        final_rate,
        sim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_core::models::{FfwConfig, ModelKind};
    use sirtm_taskgraph::GridDims;

    use crate::spec::{EventAction, EventSpec};

    fn quick(model: ModelKind, faults: usize) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("quick", model);
        spec.duration_ms = 120.0;
        spec.window_ms = 4.0;
        spec.settle_region_ms = Some(60.0);
        if faults > 0 {
            spec.events = vec![EventSpec {
                at_ms: 60.0,
                action: EventAction::RandomPeFaults { count: faults },
            }];
        }
        spec
    }

    #[test]
    fn event_free_run_settles_and_produces_throughput() {
        let outcome = run_spec(&quick(ModelKind::NoIntelligence, 0), 1);
        assert!(outcome.final_rate > 2.0, "rate {}", outcome.final_rate);
        assert!(outcome.recovery_ms.is_none());
        assert!(outcome.settle_ms <= 60.0);
        assert_eq!(outcome.trace.samples.len(), 30);
    }

    #[test]
    fn faulted_run_reports_recovery_and_loses_capacity() {
        let faulted = run_spec(&quick(ModelKind::NoIntelligence, 32), 2);
        let clean = run_spec(&quick(ModelKind::NoIntelligence, 0), 2);
        let rec = faulted.recovery_ms.expect("faulted run has recovery");
        assert!(rec <= 60.0);
        assert!(
            faulted.final_rate < clean.final_rate,
            "32 dead nodes must cost throughput: {} vs {}",
            faulted.final_rate,
            clean.final_rate
        );
    }

    #[test]
    fn same_seed_same_outcome() {
        let spec = quick(ModelKind::ForagingForWork(FfwConfig::default()), 5);
        let a = run_spec(&spec, 77);
        let b = run_spec(&spec, 77);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "differ only in their events")]
    fn fork_group_members_must_differ_only_in_their_events() {
        let none = quick(ModelKind::NoIntelligence, 5);
        let ffw = quick(ModelKind::ForagingForWork(FfwConfig::default()), 5);
        run_group(&[&none, &ffw], 1, |_| {}, |_, _| {});
    }

    #[test]
    fn settle_region_defaults_to_the_whole_run() {
        let mut spec = quick(ModelKind::NoIntelligence, 0);
        spec.settle_region_ms = None;
        let outcome = run_spec(&spec, 3);
        // The baseline pipeline-fills quickly and then never leaves its
        // band, so the full-run settle stays early.
        assert!(outcome.settle_ms <= 120.0);
        assert!(outcome.recovery_ms.is_none());
    }

    #[test]
    fn generation_period_event_shifts_the_workload_phase() {
        let mut spec = ScenarioSpec::new("phase", ModelKind::NoIntelligence);
        spec.platform.dims = GridDims::new(4, 4);
        // Lightly loaded, so the doubled source rate stays within the
        // worker stage's capacity and shows up at the sink in full.
        spec.workload =
            crate::spec::WorkloadSpec::ForkJoin(sirtm_taskgraph::workloads::ForkJoinParams {
                generation_period: 1600,
                ..sirtm_taskgraph::workloads::ForkJoinParams::default()
            });
        spec.duration_ms = 400.0;
        spec.window_ms = 10.0;
        spec.settle_region_ms = Some(200.0);
        spec.events = vec![EventSpec {
            at_ms: 200.0,
            action: EventAction::SetGenerationPeriod {
                task: 0,
                period_cycles: 800,
            },
        }];
        let outcome = run_spec(&spec, 9);
        // Twice the source rate roughly doubles sink throughput.
        assert!(
            outcome.final_rate > outcome.pre_rate * 1.5,
            "phase shift must raise the rate: {} -> {}",
            outcome.pre_rate,
            outcome.final_rate
        );
        assert!(outcome.recovery_ms.is_some(), "a shift is a perturbation");
    }
}
