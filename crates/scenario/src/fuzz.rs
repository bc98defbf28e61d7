//! Adversarial scenario search: a deterministic generate-evaluate-shrink
//! loop over typed [`ScenarioSpec`] timelines.
//!
//! The sweep engine measures scenarios we already thought of; this
//! module searches for the ones we didn't. A campaign starts from a
//! base spec, mutates copies of it with typed operators (fault waves,
//! clock-region/hotspot faults, DVFS moves, workload-phase shifts,
//! duration/grid moves), evaluates every candidate through the
//! existing sweep orchestrator, and scores each with a fitness
//! vocabulary of failure probes. Candidates at or above the frontier
//! threshold are *shrunk* — event deletion, duration bisection,
//! magnitude halving, grid collapse, the vendored proptest stub's
//! generate-and-shrink idiom with the shrinking half implemented here —
//! to minimal reproducers, pinned into a JSONL frontier corpus with the
//! embedded evaluation seed, the fitness breakdown and the spec
//! fingerprint.
//!
//! Everything is a pure function of [`FuzzConfig::fuzz_seed`]: candidate
//! generation draws from per-candidate SplitMix64 streams (the same
//! golden-ratio stream-id construction as
//! [`crate::sweep::SeedScheme::Derived`] and the timeline's per-event
//! substreams), evaluation rides [`run_sweep_observed`] which is
//! bit-identical across thread counts, and the campaign log and corpus
//! carry no wall-clock or thread facts. `scenarios fuzz --fuzz-seed S`
//! therefore produces byte-identical artefacts at any `--threads`.
//!
//! Host-side instrumentation (per-candidate spans, mutation-operator
//! census in the sim sidecar) hangs off the [`FuzzObserver`] hooks; see
//! [`crate::observe::FuzzTelemetry`]. The format and the determinism
//! contract are documented in `docs/fuzzing.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use sirtm_rng::{Rng, SplitMix64};
use sirtm_taskgraph::{GridDims, Mapping, MappingError, TaskId};
use sirtm_telemetry::SimCounters;

use crate::json::{self, Json};
use crate::run::RunOutcome;
use crate::shard;
use crate::spec::{EventAction, EventSpec, ScenarioSpec};
use crate::sweep::{
    run_sweep_observed, RunPlan, SeedScheme, SweepObserver, SweepOptions, SweepSpec,
};

/// Salt separating candidate-generation streams from every other
/// consumer of the fuzz seed.
const MUTATE_SALT: u64 = 0xD15C_0B01;
/// Salt separating per-candidate evaluation roots from mutation streams.
const EVAL_SALT: u64 = 0x5EED_CA11;
/// Golden-ratio coordinate decorrelators (same constants as
/// [`crate::sweep::SeedScheme::Derived`] and the timeline stream ids).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
const MIX: u64 = 0xBF58_476D_1CE4_E5B9;

/// Interesting-but-not-failing candidates kept as mutation parents.
const POOL_MAX: usize = 12;
/// Ceiling on mutated run length, ms (keeps campaign cost bounded).
const DURATION_CAP_MS: f64 = 600.0;

/// A fuzz campaign: where to start, how long to search, what counts as
/// a failure.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed; the entire campaign is a pure function of it.
    pub fuzz_seed: u64,
    /// Total evaluation budget (candidate evaluations + shrink trials).
    pub budget: usize,
    /// Replicates per evaluation (fitness is the replicate mean).
    pub replicates: usize,
    /// Worker threads per evaluation (0 = all cores). Never affects
    /// results, only wall time.
    pub threads: usize,
    /// Frontier threshold on the mean fitness total.
    pub threshold: f64,
    /// The spec candidates mutate away from.
    pub base: ScenarioSpec,
}

impl FuzzConfig {
    /// Campaign defaults around `base`: 60 evaluations, 2 replicates,
    /// threshold 1.0 — the CI smoke settings.
    pub fn new(base: ScenarioSpec) -> Self {
        Self {
            fuzz_seed: 0xC0FFEE,
            budget: 60,
            replicates: 2,
            threads: 0,
            threshold: 1.0,
            base,
        }
    }
}

/// The fitness vocabulary: one probe per failure mode, each normalised
/// to `[0, 1]` per run and averaged across replicates. The campaign
/// ranks candidates by [`FitnessBreakdown::total`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FitnessBreakdown {
    /// Detection/recovery latency after the first event, as a fraction
    /// of the post-event region (1.0 = the detector needed the whole
    /// region, i.e. censored).
    pub detection_latency: f64,
    /// 1.0 when the run never re-settled before the deadline (the end
    /// of the run), 0.0 otherwise.
    pub non_recovery: f64,
    /// Fraction of post-event windows whose throughput dropped below
    /// half the pre-event steady rate (missed soft deadlines).
    pub dropped_deadlines: f64,
    /// Fraction of post-event windows in which some task class had zero
    /// live agents (the colony lost a whole species).
    pub agent_extinction: f64,
    /// End-of-run capacity deficit vs the pre-event rate, scored only
    /// when the timeline contains thermal or DVFS events.
    pub thermal_violation: f64,
}

impl FitnessBreakdown {
    /// The probes as `(name, value)` pairs in canonical order.
    pub fn fields(&self) -> [(&'static str, f64); 5] {
        [
            ("detection_latency", self.detection_latency),
            ("non_recovery", self.non_recovery),
            ("dropped_deadlines", self.dropped_deadlines),
            ("agent_extinction", self.agent_extinction),
            ("thermal_violation", self.thermal_violation),
        ]
    }

    /// The scalar fitness the campaign thresholds on: the probe sum.
    pub fn total(&self) -> f64 {
        self.fields().iter().map(|(_, v)| v).sum()
    }

    fn add(&mut self, other: &FitnessBreakdown) {
        self.detection_latency += other.detection_latency;
        self.non_recovery += other.non_recovery;
        self.dropped_deadlines += other.dropped_deadlines;
        self.agent_extinction += other.agent_extinction;
        self.thermal_violation += other.thermal_violation;
    }

    fn scale(&mut self, k: f64) {
        self.detection_latency *= k;
        self.non_recovery *= k;
        self.dropped_deadlines *= k;
        self.agent_extinction *= k;
        self.thermal_violation *= k;
    }

    /// JSON object with every probe plus the total. Values use the
    /// workspace JSON writer's shortest-round-trip rendering, so a
    /// parsed corpus entry compares bit-exactly against a re-evaluation.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = self
            .fields()
            .iter()
            .map(|&(name, value)| (name, Json::Num(value)))
            .collect();
        pairs.push(("total", Json::Num(self.total())));
        Json::obj(pairs)
    }

    /// Parses a breakdown written by [`FitnessBreakdown::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let probe = |name: &str| -> Result<f64, String> {
            v.get(name)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("fitness missing probe '{name}'"))
        };
        Ok(Self {
            detection_latency: probe("detection_latency")?,
            non_recovery: probe("non_recovery")?,
            dropped_deadlines: probe("dropped_deadlines")?,
            agent_extinction: probe("agent_extinction")?,
            thermal_violation: probe("thermal_violation")?,
        })
    }

    /// Compact log rendering: `total=… detect=… …` with fixed decimals.
    fn log_line(&self) -> String {
        format!(
            "fitness={:.4} detect={:.4} norecover={:.4} deadlines={:.4} extinct={:.4} thermal={:.4}",
            self.total(),
            self.detection_latency,
            self.non_recovery,
            self.dropped_deadlines,
            self.agent_extinction,
            self.thermal_violation,
        )
    }
}

/// Scores one run against the fitness vocabulary. Event-free specs
/// score zero on every probe: the campaign hunts failures the timeline
/// *causes*, not workloads that were never viable.
pub fn score_run(spec: &ScenarioSpec, outcome: &RunOutcome) -> FitnessBreakdown {
    let Some(first_event) = spec.first_event_ms() else {
        return FitnessBreakdown::default();
    };
    let region_ms = (spec.duration_ms - first_event).max(spec.window_ms);
    let event_window =
        ((first_event / spec.window_ms).round() as usize).min(outcome.trace.samples.len());
    let post = &outcome.trace.samples[event_window..];
    let detection_latency = outcome
        .recovery_ms
        .map(|r| (r / region_ms).clamp(0.0, 1.0))
        .unwrap_or(0.0);
    let non_recovery = if outcome.recovery_ms.is_some_and(|r| r >= region_ms) {
        1.0
    } else {
        0.0
    };
    let (dropped_deadlines, agent_extinction) = if post.is_empty() {
        (0.0, 0.0)
    } else {
        let deadline = 0.5 * outcome.pre_rate;
        let dropped = post.iter().filter(|s| s.throughput < deadline).count();
        let extinct = post.iter().filter(|s| s.task_counts.contains(&0)).count();
        (
            dropped as f64 / post.len() as f64,
            extinct as f64 / post.len() as f64,
        )
    };
    let thermal_timeline = spec.events.iter().any(|e| {
        matches!(
            e.action,
            EventAction::ThermalFaults(_)
                | EventAction::SetFrequencyAll { .. }
                | EventAction::SetFrequencyRows { .. }
        )
    });
    let thermal_violation = if thermal_timeline && outcome.pre_rate > 0.0 {
        (1.0 - outcome.final_rate / outcome.pre_rate).clamp(0.0, 1.0)
    } else {
        0.0
    };
    FitnessBreakdown {
        detection_latency,
        non_recovery,
        dropped_deadlines,
        agent_extinction,
        thermal_violation,
    }
}

/// The single-cell evaluation sweep for a candidate: the spec itself,
/// no axes, `replicates` derived seeds. The corpus fingerprint is
/// [`shard::fingerprint`] over exactly this descriptor, so replay and
/// the sharded fleet machinery see the same identity.
pub fn eval_sweep(spec: &ScenarioSpec, root: u64, replicates: usize) -> SweepSpec {
    SweepSpec {
        name: spec.name.clone(),
        base: spec.clone(),
        axes: Vec::new(),
        replicates: replicates.max(1),
        seeds: SeedScheme::Derived { root },
    }
}

/// Per-run fitness collection: a [`SweepObserver`] that scores each
/// outcome as it lands (worker threads, any order) and folds in index
/// order afterwards — the same keyed-by-global-index trick as the
/// sidecar, so the folded fitness is order-independent.
struct FitnessProbe {
    scores: Mutex<BTreeMap<usize, (FitnessBreakdown, SimCounters)>>,
}

impl FitnessProbe {
    fn new() -> Self {
        Self {
            scores: Mutex::new(BTreeMap::new()),
        }
    }

    /// Mean breakdown and summed sim counters, folded in run order.
    fn fold(self) -> (FitnessBreakdown, SimCounters) {
        let scores = self.scores.into_inner().unwrap_or_else(|e| e.into_inner());
        let n = scores.len().max(1);
        let mut mean = FitnessBreakdown::default();
        let mut sim = SimCounters::default();
        for (breakdown, counters) in scores.values() {
            mean.add(breakdown);
            sim.absorb(counters);
        }
        mean.scale(1.0 / n as f64);
        (mean, sim)
    }
}

impl SweepObserver for FitnessProbe {
    fn run_finished(&self, plan: &RunPlan, outcome: &RunOutcome) {
        let breakdown = score_run(&plan.spec, outcome);
        let mut scores = self.scores.lock().unwrap_or_else(|e| e.into_inner());
        scores.insert(plan.index, (breakdown, outcome.sim));
    }
}

/// Evaluates one candidate through the sweep orchestrator: `replicates`
/// runs under [`SeedScheme::Derived`] root `root`, mean fitness and
/// summed sim counters back. Bit-identical across `threads`.
pub fn evaluate_spec(
    spec: &ScenarioSpec,
    root: u64,
    replicates: usize,
    threads: usize,
) -> (FitnessBreakdown, SimCounters) {
    let sweep = eval_sweep(spec, root, replicates);
    let probe = FitnessProbe::new();
    run_sweep_observed(&sweep, SweepOptions { threads }, &probe);
    probe.fold()
}

/// A typed mutation operator. Every operator draws all randomness from
/// the candidate's own SplitMix64 stream and must leave the spec inside
/// grid/duration bounds once [`clamp_spec`] has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// Push a random-victim fault wave (PE deaths, link cuts or hangs).
    FaultWave,
    /// Push a clock-region row-band failure.
    ClockRegion,
    /// Push a hotspot disc failure.
    Hotspot,
    /// Push a global DVFS move.
    DvfsAll,
    /// Push a row-band DVFS move.
    DvfsRows,
    /// Push a workload-phase shift (source generation period retune).
    PhaseShift,
    /// Move an existing event to a new instant.
    NudgeTime,
    /// Remove an existing event.
    DropEvent,
    /// Rescale the run length.
    StretchDuration,
    /// Move to a different grid size.
    ResizeGrid,
}

impl Operator {
    /// Every operator, in census order.
    pub const ALL: [Operator; 10] = [
        Operator::FaultWave,
        Operator::ClockRegion,
        Operator::Hotspot,
        Operator::DvfsAll,
        Operator::DvfsRows,
        Operator::PhaseShift,
        Operator::NudgeTime,
        Operator::DropEvent,
        Operator::StretchDuration,
        Operator::ResizeGrid,
    ];

    /// The operator's census/log name.
    pub fn name(self) -> &'static str {
        match self {
            Operator::FaultWave => "fault-wave",
            Operator::ClockRegion => "clock-region",
            Operator::Hotspot => "hotspot",
            Operator::DvfsAll => "dvfs-all",
            Operator::DvfsRows => "dvfs-rows",
            Operator::PhaseShift => "phase-shift",
            Operator::NudgeTime => "nudge-time",
            Operator::DropEvent => "drop-event",
            Operator::StretchDuration => "stretch-duration",
            Operator::ResizeGrid => "resize-grid",
        }
    }

    /// A random event instant on the window grid, strictly inside the
    /// run (events at the last window have no post-event region and
    /// score zero).
    fn random_at(spec: &ScenarioSpec, rng: &mut SplitMix64) -> f64 {
        let windows = spec.total_windows().max(4) as u64;
        rng.range_u64(1..windows - 1) as f64 * spec.window_ms
    }

    /// Applies the operator. Returns `false` when inapplicable (e.g.
    /// nudging an empty timeline) without consuming spec state.
    pub fn apply(self, spec: &mut ScenarioSpec, rng: &mut SplitMix64) -> bool {
        let dims = spec.grid();
        let (w, h) = (dims.width(), dims.height());
        match self {
            Operator::FaultWave => {
                let at_ms = Self::random_at(spec, rng);
                let count = 1 + rng.below_u64((dims.len() as u64 / 2).max(1)) as usize;
                let action = match rng.below_u64(3) {
                    0 => EventAction::RandomPeFaults { count },
                    1 => EventAction::RandomLinkFaults { count },
                    _ => EventAction::RandomHangs { count },
                };
                spec.events.push(EventSpec { at_ms, action });
            }
            Operator::ClockRegion => {
                let first_row = rng.below_u64(h as u64) as u16;
                let rows = 1 + rng.below_u64((h - first_row) as u64) as u16;
                spec.events.push(EventSpec {
                    at_ms: Self::random_at(spec, rng),
                    action: EventAction::ClockRegionFaults { first_row, rows },
                });
            }
            Operator::Hotspot => {
                let x = rng.below_u64(w as u64) as u16;
                let y = rng.below_u64(h as u64) as u16;
                let radius = 1 + rng.below_u64(((w + h) as u64) / 2) as u32;
                spec.events.push(EventSpec {
                    at_ms: Self::random_at(spec, rng),
                    action: EventAction::HotspotFaults { x, y, radius },
                });
            }
            Operator::DvfsAll => {
                let (lo, hi) = spec.platform.freq_range_mhz;
                let mhz = rng.range_u64(lo as u64..hi as u64 + 1) as u16;
                spec.events.push(EventSpec {
                    at_ms: Self::random_at(spec, rng),
                    action: EventAction::SetFrequencyAll { mhz },
                });
            }
            Operator::DvfsRows => {
                let (lo, hi) = spec.platform.freq_range_mhz;
                let mhz = rng.range_u64(lo as u64..hi as u64 + 1) as u16;
                let first_row = rng.below_u64(h as u64) as u16;
                let rows = 1 + rng.below_u64((h - first_row) as u64) as u16;
                spec.events.push(EventSpec {
                    at_ms: Self::random_at(spec, rng),
                    action: EventAction::SetFrequencyRows {
                        first_row,
                        rows,
                        mhz,
                    },
                });
            }
            Operator::PhaseShift => {
                // Only source tasks have a generation period to retune.
                let sources = source_tasks(spec);
                let Some(&task) = rng.choose(&sources) else {
                    return false;
                };
                const PERIODS: [u32; 5] = [200, 400, 800, 1600, 3200];
                let period_cycles = PERIODS[rng.below_u64(PERIODS.len() as u64) as usize];
                spec.events.push(EventSpec {
                    at_ms: Self::random_at(spec, rng),
                    action: EventAction::SetGenerationPeriod {
                        task,
                        period_cycles,
                    },
                });
            }
            Operator::NudgeTime => {
                if spec.events.is_empty() {
                    return false;
                }
                let at_ms = Self::random_at(spec, rng);
                let i = rng.below_u64(spec.events.len() as u64) as usize;
                spec.events[i].at_ms = at_ms;
            }
            Operator::DropEvent => {
                if spec.events.is_empty() {
                    return false;
                }
                let i = rng.below_u64(spec.events.len() as u64) as usize;
                spec.events.remove(i);
            }
            Operator::StretchDuration => {
                const FACTORS: [f64; 3] = [0.5, 2.0, 3.0];
                let factor = FACTORS[rng.below_u64(FACTORS.len() as u64) as usize];
                spec.duration_ms = (spec.duration_ms * factor).min(DURATION_CAP_MS);
            }
            Operator::ResizeGrid => {
                const GRIDS: [(u16, u16); 4] = [(4, 4), (4, 8), (6, 6), (8, 8)];
                let (gw, gh) = GRIDS[rng.below_u64(GRIDS.len() as u64) as usize];
                spec.platform.dims = GridDims::new(gw, gh);
                spec.platform.dir_dist_max = (gw + gh + 4).min(255) as u8;
            }
        }
        true
    }
}

/// The workload's source tasks (the only valid phase-shift targets).
fn source_tasks(spec: &ScenarioSpec) -> Vec<u8> {
    let graph = spec.graph();
    (0..graph.len() as u8)
        .filter(|&t| graph.spec(TaskId::new(t)).is_source())
        .collect()
}

/// Clamps every event target and magnitude (and the duration/settle
/// region) to the spec's own grid and run bounds, and grows a grid too
/// small for a heuristically placed graph, so no mutation or shrink step
/// can produce a spec that `validate`/`check_grid`/`Timeline::compile`
/// rejects. This is the mutation-layer answer to
/// `faults::random_nodes`-style saturation: out-of-range values clamp
/// instead of panicking downstream.
pub fn clamp_spec(spec: &mut ScenarioSpec) {
    // Grow the shorter side until the grid holds one instance of each
    // heuristically placed graph (the fuzzer's own grids always do).
    for (_, graph) in spec.heuristic_graphs() {
        if let Err(MappingError::GridTooSmall { needed, .. }) =
            Mapping::heuristic_checked(&graph, spec.grid())
        {
            let (mut w, mut h) = (spec.grid().width(), spec.grid().height());
            while (w as usize) * (h as usize) < needed {
                if w <= h {
                    w += 1;
                } else {
                    h += 1;
                }
            }
            spec.platform.dims = GridDims::new(w, h);
            spec.platform.dir_dist_max = (w + h + 4).min(255) as u8;
        }
    }
    let dims = spec.grid();
    let (w, h) = (dims.width(), dims.height());
    let sources = source_tasks(spec);
    // Duration: a whole number of windows, at least two of them.
    let windows = (spec.duration_ms / spec.window_ms).round().max(2.0);
    spec.duration_ms = windows * spec.window_ms;
    if let Some(region) = spec.settle_region_ms {
        spec.settle_region_ms = Some(region.clamp(spec.window_ms, spec.duration_ms));
    }
    let clamp_band = |first_row: u16, rows: u16| -> (u16, u16) {
        let first_row = first_row.min(h - 1);
        (first_row, rows.clamp(1, h - first_row))
    };
    for event in &mut spec.events {
        event.at_ms = event.at_ms.clamp(0.0, spec.duration_ms);
        match &mut event.action {
            EventAction::RandomPeFaults { count }
            | EventAction::RandomLinkFaults { count }
            | EventAction::RandomHangs { count } => *count = (*count).min(dims.len()),
            EventAction::ClockRegionFaults { first_row, rows } => {
                (*first_row, *rows) = clamp_band(*first_row, *rows);
            }
            EventAction::HotspotFaults { x, y, radius } => {
                *x = (*x).min(w - 1);
                *y = (*y).min(h - 1);
                *radius = (*radius).clamp(1, (w + h) as u32);
            }
            EventAction::ThermalFaults(t) => {
                if let Some((first_row, rows)) = t.overclock_rows {
                    t.overclock_rows = Some(clamp_band(first_row, rows));
                }
                t.runaway_ms = t.runaway_ms.max(spec.window_ms);
            }
            EventAction::SetFrequencyAll { mhz } => {
                let (lo, hi) = spec.platform.freq_range_mhz;
                *mhz = (*mhz).clamp(lo, hi);
            }
            EventAction::SetFrequencyRows {
                first_row,
                rows,
                mhz,
            } => {
                let (lo, hi) = spec.platform.freq_range_mhz;
                *mhz = (*mhz).clamp(lo, hi);
                (*first_row, *rows) = clamp_band(*first_row, *rows);
            }
            EventAction::SetGenerationPeriod {
                task,
                period_cycles,
            } => {
                // Snap non-source targets to the nearest source task (a
                // grid/workload move can invalidate an old target).
                if !sources.contains(task) {
                    *task = sources
                        .iter()
                        .copied()
                        .min_by_key(|s| s.abs_diff(*task))
                        .unwrap_or(0);
                }
                *period_cycles = (*period_cycles).max(1);
            }
        }
    }
}

/// Observation hooks around a fuzz campaign. Like [`SweepObserver`],
/// implementations are bystanders: they receive copies of deterministic
/// state and cannot influence the search.
pub trait FuzzObserver: Sync {
    /// A candidate was generated and is about to be evaluated.
    fn candidate_started(&self, _id: u64, _ops: &[&'static str]) {}

    /// A candidate finished evaluating: its evaluation root seed, mean
    /// fitness, and summed sim counters across its replicates.
    fn candidate_finished(
        &self,
        _id: u64,
        _seed: u64,
        _fitness: &FitnessBreakdown,
        _sim: &SimCounters,
    ) {
    }

    /// A shrink trial ran (one evaluation) and was accepted or rejected.
    fn shrink_step(&self, _id: u64, _pass: &'static str, _accepted: bool) {}

    /// A shrunk candidate was pinned into the frontier corpus.
    fn frontier_pinned(&self, _entry: &FrontierEntry) {}
}

/// The no-op fuzz observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullFuzzObserver;

impl FuzzObserver for NullFuzzObserver {}

/// One pinned frontier find: a minimal reproducer spec plus everything
/// needed to re-run it bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierEntry {
    /// Candidate id within its campaign.
    pub id: u64,
    /// The campaign's root seed.
    pub fuzz_seed: u64,
    /// The candidate's evaluation root ([`SeedScheme::Derived`]).
    pub seed: u64,
    /// [`shard::fingerprint`] of the evaluation sweep descriptor.
    pub fingerprint: String,
    /// Mean fitness across replicates, probe by probe.
    pub fitness: FitnessBreakdown,
    /// Mutation operators that built the candidate (pre-shrink).
    pub operators: Vec<String>,
    /// Replicates per evaluation.
    pub replicates: usize,
    /// The shrunk reproducer spec.
    pub spec: ScenarioSpec,
}

impl FrontierEntry {
    /// The JSON object form (one corpus line when rendered compact).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str("sirtm-fuzz-frontier".into())),
            ("id", Json::Num(self.id as f64)),
            // u64 seeds travel as strings: the workspace JSON number is
            // an f64, which would corrupt them above 2^53.
            ("fuzz_seed", Json::Str(self.fuzz_seed.to_string())),
            ("seed", Json::Str(self.seed.to_string())),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("replicates", Json::Num(self.replicates as f64)),
            (
                "operators",
                Json::Arr(
                    self.operators
                        .iter()
                        .map(|op| Json::Str(op.clone()))
                        .collect(),
                ),
            ),
            ("fitness", self.fitness.to_json()),
            ("spec", self.spec.to_json()),
        ])
    }

    /// Parses an entry written by [`FrontierEntry::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v.get("kind").and_then(Json::as_str) {
            Some("sirtm-fuzz-frontier") => {}
            other => return Err(format!("not a frontier entry (kind {other:?})")),
        }
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("frontier entry missing '{key}'"))
        };
        let seed_str = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("frontier entry missing '{key}'"))?
                .parse::<u64>()
                .map_err(|e| format!("bad {key}: {e}"))
        };
        let operators = v
            .get("operators")
            .and_then(Json::as_arr)
            .ok_or("frontier entry missing 'operators'")?
            .iter()
            .map(|op| {
                op.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string operator".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?;
        Ok(Self {
            id: num("id")? as u64,
            fuzz_seed: seed_str("fuzz_seed")?,
            seed: seed_str("seed")?,
            fingerprint: v
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("frontier entry missing 'fingerprint'")?
                .to_string(),
            fitness: FitnessBreakdown::from_json(
                v.get("fitness").ok_or("frontier entry missing 'fitness'")?,
            )?,
            operators,
            replicates: num("replicates")?.max(1.0) as usize,
            spec: ScenarioSpec::from_json(v.get("spec").ok_or("frontier entry missing 'spec'")?)?,
        })
    }
}

/// Renders a corpus: one compact JSON object per line.
pub fn render_corpus(entries: &[FrontierEntry]) -> String {
    let mut out = String::new();
    for entry in entries {
        out.push_str(&entry.to_json().render());
        out.push('\n');
    }
    out
}

/// Parses a JSONL frontier corpus (blank lines ignored).
pub fn parse_corpus(text: &str) -> Result<Vec<FrontierEntry>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(n, line)| {
            let v = json::parse(line).map_err(|e| format!("corpus line {}: {e}", n + 1))?;
            FrontierEntry::from_json(&v).map_err(|e| format!("corpus line {}: {e}", n + 1))
        })
        .collect()
}

/// Everything a campaign produced: the deterministic log, the corpus
/// text, the pinned entries, and the evaluations actually spent.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The campaign log — a pure function of the fuzz seed.
    pub log: String,
    /// The JSONL frontier corpus ([`render_corpus`] of `entries`).
    pub corpus: String,
    /// Pinned frontier entries, in discovery order.
    pub entries: Vec<FrontierEntry>,
    /// Evaluations consumed (candidates + shrink trials).
    pub evaluations: usize,
}

/// The per-candidate mutation stream: stream id `(fuzz_seed, id)` under
/// the workspace golden-ratio construction.
fn candidate_rng(fuzz_seed: u64, id: u64) -> SplitMix64 {
    SplitMix64::new((fuzz_seed ^ MUTATE_SALT) ^ id.wrapping_mul(GOLDEN))
}

/// The per-candidate evaluation root. Decoupled from the mutation
/// stream so adding operators never reseeds anyone's runs.
fn eval_root(fuzz_seed: u64, id: u64) -> u64 {
    SplitMix64::new((fuzz_seed ^ EVAL_SALT) ^ id.wrapping_mul(MIX)).next_u64()
}

/// Runs a fuzz campaign: generate, evaluate, shrink, pin. The result is
/// a pure function of `cfg` — `threads` affects wall time only.
///
/// # Panics
///
/// Panics if the base spec is invalid or the budget is zero.
pub fn run_campaign(cfg: &FuzzConfig, observer: &dyn FuzzObserver) -> CampaignResult {
    assert!(cfg.budget > 0, "fuzz budget must be non-zero");
    cfg.base.validate();
    let mut log = String::new();
    let _ = writeln!(
        log,
        "campaign seed={:#x} budget={} replicates={} threshold={:.2} base={}",
        cfg.fuzz_seed, cfg.budget, cfg.replicates, cfg.threshold, cfg.base.name
    );
    let mut pool: Vec<ScenarioSpec> = vec![cfg.base.clone()];
    let mut entries: Vec<FrontierEntry> = Vec::new();
    let mut seen = std::collections::BTreeSet::<String>::new();
    let mut evaluations = 0usize;
    let mut id = 0u64;
    while evaluations < cfg.budget {
        let mut rng = candidate_rng(cfg.fuzz_seed, id);
        let parent = rng.below_u64(pool.len() as u64) as usize;
        let parent_name = pool[parent].name.clone();
        let mut cand = pool[parent].clone();
        cand.name = format!("fuzz-{id:04}");
        let mut ops: Vec<&'static str> = Vec::new();
        let n_ops = 1 + rng.below_u64(3);
        for _ in 0..n_ops {
            // Draw operators until one applies; FaultWave always does,
            // so eight tries is a formality, not a loop risk.
            for _ in 0..8 {
                let op = Operator::ALL[rng.below_u64(Operator::ALL.len() as u64) as usize];
                if op.apply(&mut cand, &mut rng) {
                    ops.push(op.name());
                    break;
                }
            }
        }
        clamp_spec(&mut cand);
        let root = eval_root(cfg.fuzz_seed, id);
        observer.candidate_started(id, &ops);
        let (fitness, sim) = evaluate_spec(&cand, root, cfg.replicates, cfg.threads);
        evaluations += 1;
        observer.candidate_finished(id, root, &fitness, &sim);
        let _ = writeln!(
            log,
            "candidate {id:04} parent={parent_name} ops=[{}] events={} {}",
            ops.join(","),
            cand.events.len(),
            fitness.log_line()
        );
        if fitness.total() >= cfg.threshold {
            let (shrunk, shrunk_fitness) = shrink(
                &cand,
                fitness,
                root,
                cfg,
                id,
                &mut evaluations,
                observer,
                &mut log,
            );
            let fingerprint = shard::fingerprint(&eval_sweep(&shrunk, root, cfg.replicates));
            if seen.insert(fingerprint.clone()) {
                let entry = FrontierEntry {
                    id,
                    fuzz_seed: cfg.fuzz_seed,
                    seed: root,
                    fingerprint: fingerprint.clone(),
                    fitness: shrunk_fitness,
                    operators: ops.iter().map(|s| s.to_string()).collect(),
                    replicates: cfg.replicates,
                    spec: shrunk.clone(),
                };
                observer.frontier_pinned(&entry);
                let _ = writeln!(
                    log,
                    "pin {id:04} fingerprint={fingerprint} events={} duration={} grid={}x{} {}",
                    shrunk.events.len(),
                    shrunk.duration_ms,
                    shrunk.grid().width(),
                    shrunk.grid().height(),
                    shrunk_fitness.log_line()
                );
                entries.push(entry);
            } else {
                let _ = writeln!(log, "duplicate {id:04} fingerprint={fingerprint}");
            }
            pool.push(shrunk);
        } else if fitness.total() > 0.0 {
            pool.push(cand);
        }
        if pool.len() > POOL_MAX {
            // Oldest non-base parent retires; the base always survives.
            pool.remove(1);
        }
        id += 1;
    }
    let _ = writeln!(
        log,
        "campaign complete evaluations={evaluations} frontier={}",
        entries.len()
    );
    let corpus = render_corpus(&entries);
    CampaignResult {
        log,
        corpus,
        entries,
        evaluations,
    }
}

/// Greedy deterministic shrinking: passes run in a fixed order and
/// repeat until a whole cycle changes nothing or the budget runs out.
/// A reduction is accepted iff the mean fitness total stays at or above
/// the frontier threshold under the *same* evaluation root — the
/// timeline's per-event RNG substreams make event deletion
/// non-perturbing for the survivors, which is what makes this greedy
/// loop converge instead of chasing its own victim sets.
#[allow(clippy::too_many_arguments)]
fn shrink(
    cand: &ScenarioSpec,
    fitness: FitnessBreakdown,
    root: u64,
    cfg: &FuzzConfig,
    id: u64,
    evaluations: &mut usize,
    observer: &dyn FuzzObserver,
    log: &mut String,
) -> (ScenarioSpec, FitnessBreakdown) {
    let mut best = cand.clone();
    let mut best_fitness = fitness;
    let try_reduce = |spec: &mut ScenarioSpec,
                      pass: &'static str,
                      best: &mut ScenarioSpec,
                      best_fitness: &mut FitnessBreakdown,
                      evaluations: &mut usize,
                      log: &mut String|
     -> bool {
        if *evaluations >= cfg.budget {
            return false;
        }
        clamp_spec(spec);
        if spec == best {
            return false;
        }
        let (f, _) = evaluate_spec(spec, root, cfg.replicates, cfg.threads);
        *evaluations += 1;
        let accepted = f.total() >= cfg.threshold;
        observer.shrink_step(id, pass, accepted);
        if accepted {
            let _ = writeln!(
                log,
                "shrink {id:04} pass={pass} events={} duration={} grid={}x{} fitness={:.4}",
                spec.events.len(),
                spec.duration_ms,
                spec.grid().width(),
                spec.grid().height(),
                f.total()
            );
            *best = spec.clone();
            *best_fitness = f;
        }
        accepted
    };
    loop {
        let mut changed = false;
        // Pass 1: event deletion, left to right. On acceptance the same
        // index is retried (the next event shifted into it).
        let mut i = 0;
        while i < best.events.len() {
            let mut candidate = best.clone();
            candidate.events.remove(i);
            if try_reduce(
                &mut candidate,
                "delete-event",
                &mut best,
                &mut best_fitness,
                evaluations,
                log,
            ) {
                changed = true;
            } else {
                i += 1;
            }
        }
        // Pass 2: duration bisection toward the first event — halve the
        // post-event region while the failure still shows.
        while let Some(first) = best.first_event_ms() {
            let region = best.duration_ms - first;
            let halved = first + region / 2.0;
            let windows = (halved / best.window_ms).ceil().max(2.0);
            let target = windows * best.window_ms;
            if target >= best.duration_ms {
                break;
            }
            let mut candidate = best.clone();
            candidate.duration_ms = target;
            if !try_reduce(
                &mut candidate,
                "bisect-duration",
                &mut best,
                &mut best_fitness,
                evaluations,
                log,
            ) {
                break;
            }
            changed = true;
        }
        // Pass 3: magnitude halving, event by event, to fixpoint each.
        let mut i = 0;
        while i < best.events.len() {
            while let Some(action) = halve_magnitude(&best.events[i].action, &best) {
                let mut candidate = best.clone();
                candidate.events[i].action = action;
                if try_reduce(
                    &mut candidate,
                    "halve-magnitude",
                    &mut best,
                    &mut best_fitness,
                    evaluations,
                    log,
                ) {
                    changed = true;
                } else {
                    break;
                }
            }
            i += 1;
        }
        // Pass 4: axis collapse — halve the grid's larger dimension.
        loop {
            let dims = best.grid();
            let (w, h) = (dims.width(), dims.height());
            let (nw, nh) = if w >= h && w >= 8 {
                (w / 2, h)
            } else if h >= 8 {
                (w, h / 2)
            } else {
                break;
            };
            let mut candidate = best.clone();
            candidate.platform.dims = GridDims::new(nw, nh);
            candidate.platform.dir_dist_max = (nw + nh + 4).min(255) as u8;
            if !try_reduce(
                &mut candidate,
                "collapse-grid",
                &mut best,
                &mut best_fitness,
                evaluations,
                log,
            ) {
                break;
            }
            changed = true;
        }
        if !changed || *evaluations >= cfg.budget {
            break;
        }
    }
    (best, best_fitness)
}

/// The next magnitude-halving step for an action, or `None` when the
/// action is already minimal (or has no meaningful magnitude).
fn halve_magnitude(action: &EventAction, spec: &ScenarioSpec) -> Option<EventAction> {
    match action {
        EventAction::RandomPeFaults { count } if *count > 1 => {
            Some(EventAction::RandomPeFaults { count: count / 2 })
        }
        EventAction::RandomLinkFaults { count } if *count > 1 => {
            Some(EventAction::RandomLinkFaults { count: count / 2 })
        }
        EventAction::RandomHangs { count } if *count > 1 => {
            Some(EventAction::RandomHangs { count: count / 2 })
        }
        EventAction::ClockRegionFaults { first_row, rows } if *rows > 1 => {
            Some(EventAction::ClockRegionFaults {
                first_row: *first_row,
                rows: rows / 2,
            })
        }
        EventAction::HotspotFaults { x, y, radius } if *radius > 1 => {
            Some(EventAction::HotspotFaults {
                x: *x,
                y: *y,
                radius: radius / 2,
            })
        }
        // DVFS moves halve toward the nominal clock: magnitude is the
        // deviation, not the raw register value.
        EventAction::SetFrequencyAll { mhz } => {
            let nominal = spec.platform.nominal_mhz;
            let next = midpoint_mhz(*mhz, nominal)?;
            Some(EventAction::SetFrequencyAll { mhz: next })
        }
        EventAction::SetFrequencyRows {
            first_row,
            rows,
            mhz,
        } => {
            let nominal = spec.platform.nominal_mhz;
            let next = midpoint_mhz(*mhz, nominal)?;
            Some(EventAction::SetFrequencyRows {
                first_row: *first_row,
                rows: *rows,
                mhz: next,
            })
        }
        _ => None,
    }
}

/// The midpoint clock between `mhz` and `nominal`, or `None` once they
/// meet (integer midpoint, biased toward nominal so it terminates).
fn midpoint_mhz(mhz: u16, nominal: u16) -> Option<u16> {
    if mhz == nominal {
        return None;
    }
    let next = (mhz as i32 + nominal as i32) / 2;
    let next = next as u16;
    if next == mhz {
        None
    } else {
        Some(next)
    }
}

/// One corpus entry re-run: fingerprint recomputed and the fitness
/// re-evaluated under the recorded seed and replicate count.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The entry's candidate id.
    pub id: u64,
    /// Recomputed fingerprint of the evaluation sweep descriptor.
    pub fingerprint: String,
    /// The re-evaluated fitness breakdown.
    pub fitness: FitnessBreakdown,
}

impl ReplayReport {
    /// True iff the re-run reproduced the entry bit-exactly:
    /// fingerprint and every probe value identical.
    pub fn matches(&self, entry: &FrontierEntry) -> bool {
        self.fingerprint == entry.fingerprint && self.fitness == entry.fitness
    }
}

/// Re-runs one frontier entry bit-exactly: same spec, same derived
/// seeds, same replicate count; only `threads` (wall time) may differ.
pub fn replay_entry(entry: &FrontierEntry, threads: usize) -> ReplayReport {
    let sweep = eval_sweep(&entry.spec, entry.seed, entry.replicates);
    let fingerprint = shard::fingerprint(&sweep);
    let (fitness, _) = evaluate_spec(&entry.spec, entry.seed, entry.replicates, threads);
    ReplayReport {
        id: entry.id,
        fingerprint,
        fitness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::timeline::Timeline;

    fn base() -> ScenarioSpec {
        presets::preset("light-4x4").expect("known preset")
    }

    fn tiny_campaign(fuzz_seed: u64, budget: usize, threads: usize) -> CampaignResult {
        let cfg = FuzzConfig {
            fuzz_seed,
            budget,
            replicates: 1,
            threads,
            threshold: 0.8,
            base: base(),
        };
        run_campaign(&cfg, &NullFuzzObserver)
    }

    /// Satellite: one clamp test per mutation operator. Each operator is
    /// driven hard across many streams; every mutated spec must pass
    /// `validate` *and* compile a timeline (the panicking layer).
    fn assert_operator_stays_in_bounds(op: Operator) {
        let mut spec = base();
        for stream in 0..64u64 {
            let mut rng = SplitMix64::new(0xBAD_5EED ^ stream.wrapping_mul(GOLDEN));
            // Pile the operator onto an evolving spec so it sees
            // non-default durations, grids and timelines too.
            op.apply(&mut spec, &mut rng);
            // Cross-pressure: resize + stretch underneath so targets
            // drawn for a big grid land on a small one and vice versa.
            if stream % 7 == 3 {
                Operator::ResizeGrid.apply(&mut spec, &mut rng);
            }
            if stream % 5 == 2 {
                Operator::StretchDuration.apply(&mut spec, &mut rng);
            }
            clamp_spec(&mut spec);
            spec.validate();
            let _ = Timeline::compile(&spec, 7);
        }
    }

    #[test]
    fn fault_wave_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::FaultWave);
    }

    #[test]
    fn clock_region_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::ClockRegion);
    }

    #[test]
    fn hotspot_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::Hotspot);
    }

    #[test]
    fn dvfs_all_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::DvfsAll);
    }

    #[test]
    fn dvfs_rows_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::DvfsRows);
    }

    #[test]
    fn phase_shift_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::PhaseShift);
    }

    #[test]
    fn nudge_time_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::NudgeTime);
    }

    #[test]
    fn drop_event_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::DropEvent);
    }

    #[test]
    fn stretch_duration_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::StretchDuration);
    }

    #[test]
    fn resize_grid_mutations_stay_in_bounds() {
        assert_operator_stays_in_bounds(Operator::ResizeGrid);
    }

    #[test]
    fn clamp_rescues_a_hostile_out_of_range_spec() {
        let mut spec = base();
        spec.events = vec![
            EventSpec {
                at_ms: 9999.0,
                action: EventAction::ClockRegionFaults {
                    first_row: 40,
                    rows: 40,
                },
            },
            EventSpec {
                at_ms: -3.0,
                action: EventAction::HotspotFaults {
                    x: 99,
                    y: 99,
                    radius: 0,
                },
            },
            EventSpec {
                at_ms: 60.0,
                action: EventAction::SetGenerationPeriod {
                    task: 200,
                    period_cycles: 0,
                },
            },
            EventSpec {
                at_ms: 60.0,
                action: EventAction::SetFrequencyRows {
                    first_row: 7,
                    rows: 0,
                    mhz: 9999,
                },
            },
        ];
        clamp_spec(&mut spec);
        spec.validate();
        let _ = Timeline::compile(&spec, 3);
    }

    #[test]
    fn event_free_runs_score_zero() {
        let spec = base_without_events();
        let outcome = crate::run::run_spec(&spec, 5);
        assert_eq!(score_run(&spec, &outcome), FitnessBreakdown::default());
    }

    fn base_without_events() -> ScenarioSpec {
        let mut spec = base();
        spec.events.clear();
        spec
    }

    #[test]
    fn campaign_is_a_pure_function_of_its_seed() {
        let a = tiny_campaign(0xFEED, 4, 1);
        let b = tiny_campaign(0xFEED, 4, 1);
        assert_eq!(a.log, b.log);
        assert_eq!(a.corpus, b.corpus);
        let c = tiny_campaign(0xFEED ^ 1, 4, 1);
        assert_ne!(a.log, c.log, "different seeds explore differently");
    }

    #[test]
    fn campaign_is_identical_across_thread_counts() {
        let one = tiny_campaign(0xBEEF, 4, 1);
        let four = tiny_campaign(0xBEEF, 4, 4);
        assert_eq!(one.log, four.log);
        assert_eq!(one.corpus, four.corpus);
    }

    #[test]
    fn corpus_round_trips_and_replays_bit_exactly() {
        let result = tiny_campaign(0xF00D, 10, 0);
        assert!(
            !result.entries.is_empty(),
            "seed 0xF00D must pin at least one frontier entry:\n{}",
            result.log
        );
        let parsed = parse_corpus(&result.corpus).expect("corpus parses");
        assert_eq!(parsed, result.entries);
        let entry = &parsed[0];
        let report = replay_entry(entry, 2);
        assert!(
            report.matches(entry),
            "replay drifted: {:?} vs {:?}",
            report,
            entry.fitness
        );
    }

    #[test]
    fn shrunk_entries_never_grow_past_their_candidate() {
        let result = tiny_campaign(0xF00D, 10, 0);
        for entry in &result.entries {
            entry.spec.validate();
            assert!(entry.fitness.total() >= 0.8, "pinned below threshold");
            assert!(
                entry.spec.duration_ms <= DURATION_CAP_MS,
                "duration cap violated"
            );
        }
    }

    #[test]
    fn fitness_breakdown_json_round_trips() {
        let b = FitnessBreakdown {
            detection_latency: 0.123_456_789,
            non_recovery: 1.0,
            dropped_deadlines: 1.0 / 3.0,
            agent_extinction: 0.05,
            thermal_violation: 0.999_999_999,
        };
        let parsed = FitnessBreakdown::from_json(&b.to_json()).expect("parses");
        assert_eq!(parsed, b);
    }
}
