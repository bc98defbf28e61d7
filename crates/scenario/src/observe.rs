//! Host-plane sweep observation: the bridge between the deterministic
//! sweep engine and the two telemetry planes.
//!
//! [`SweepTelemetry`] implements [`SweepObserver`] and does the two
//! things the engine itself must never do:
//!
//! * **Sim plane** — collects each run's [`SimCounters`] into a
//!   [`SidecarCollector`]. The sidecar is a pure function of
//!   `(descriptor, seeds)`: runs are keyed by their flat run index, so
//!   the rendered artefact is byte-identical across thread counts and
//!   shard plans.
//! * **Host plane** — wall-clock `run` spans on a [`Tracer`], one per
//!   executed run, on per-worker-thread tracks. This side is runtime
//!   truth (ordering and durations vary run to run) and exists only in
//!   the trace stream, never in a fingerprinted artefact.
//!
//! This module is classified as *host-side* in `lint.toml`: it owns
//! the only clock in the sweep path. The sweep engine hands it copies
//! of deterministic state through the observer hooks and takes nothing
//! back.

use std::sync::Mutex;
use std::time::Instant;

use sirtm_telemetry::{SidecarCollector, SimCounters, Tracer};

use crate::fuzz::{FitnessBreakdown, FrontierEntry, FuzzObserver};
use crate::run::RunOutcome;
use crate::sweep::{RunPlan, SweepObserver};

/// Observer wiring a sweep into the sidecar collector and (optionally)
/// a host-plane tracer.
///
/// Clone-free by design: hand `&SweepTelemetry` to
/// [`crate::sweep::run_sweep_observed`] or
/// [`crate::shard::run_shard_observed`], then read the collector back
/// out of the same instance.
#[derive(Debug)]
pub struct SweepTelemetry {
    sidecar: SidecarCollector,
    tracer: Option<Tracer>,
    /// Start instants of in-flight runs, keyed by flat run index.
    /// Wall-clock only — feeds span durations, nothing else.
    inflight: Mutex<Vec<(usize, Instant)>>,
}

impl SweepTelemetry {
    /// A telemetry sink for the sweep named `sweep` (the name lands in
    /// the sidecar header).
    #[must_use]
    pub fn new(sweep: &str) -> Self {
        Self {
            sidecar: SidecarCollector::new(sweep),
            tracer: None,
            inflight: Mutex::new(Vec::new()),
        }
    }

    /// Attaches a host-plane tracer: every executed run emits a `run`
    /// span on the track `run-<index>`'s owning worker thread.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The sim-plane sidecar collected so far.
    pub fn sidecar(&self) -> &SidecarCollector {
        &self.sidecar
    }

    /// Renders the sim-plane sidecar artefact (see
    /// [`SidecarCollector::render`]).
    #[must_use]
    pub fn render_sidecar(&self) -> String {
        self.sidecar.render()
    }

    /// Pool-wide sim-counter totals.
    #[must_use]
    pub fn totals(&self) -> SimCounters {
        let mut totals = SimCounters::default();
        for record in self.sidecar.records() {
            totals.absorb(&record.sim);
        }
        totals
    }

    fn lock_inflight(&self) -> std::sync::MutexGuard<'_, Vec<(usize, Instant)>> {
        self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The worker-thread track name for trace events (one Chrome trace
    /// row per sweep worker thread).
    fn track() -> String {
        std::thread::current()
            .name()
            .map_or_else(|| "sweep-worker".to_string(), str::to_string)
    }
}

impl SweepObserver for SweepTelemetry {
    fn run_started(&self, plan: &RunPlan) {
        if self.tracer.is_some() {
            self.lock_inflight().push((plan.index, Instant::now()));
        }
    }

    fn run_finished(&self, plan: &RunPlan, outcome: &RunOutcome) {
        self.sidecar
            .record(plan.index as u64, plan.seed, outcome.sim);
        let Some(tracer) = &self.tracer else {
            return;
        };
        let started = {
            let mut inflight = self.lock_inflight();
            inflight
                .iter()
                .position(|(i, _)| *i == plan.index)
                .map(|at| inflight.swap_remove(at).1)
        };
        // A finish without a matched start (shouldn't happen, but the
        // trace must never panic a sweep) degrades to an instant.
        let cell = plan.cell.to_string();
        let seed = plan.seed.to_string();
        let index = plan.index.to_string();
        match started {
            Some(at) => {
                let mut span = tracer.span_started_at(&Self::track(), "run", at);
                span.arg("run", &index);
                span.arg("cell", &cell);
                span.arg("seed", &seed);
            }
            None => tracer.instant(
                &Self::track(),
                "run",
                &[("run", &index), ("cell", &cell), ("seed", &seed)],
            ),
        }
    }
}

/// Observer wiring a fuzz campaign into the two telemetry planes.
///
/// * **Sim plane** — one sidecar record per candidate (keyed by
///   candidate id, carrying the evaluation root seed and the summed
///   replicate counters) plus a census of mutation operators applied,
///   shrink passes accepted and frontier entries pinned. All of it is a
///   pure function of the fuzz seed, so the rendered sidecar is
///   byte-identical across thread counts.
/// * **Host plane** — a wall-clock `candidate` span per evaluated
///   candidate and a `pin` instant per frontier find, on per-worker
///   tracks like [`SweepTelemetry`]'s `run` spans.
#[derive(Debug)]
pub struct FuzzTelemetry {
    sidecar: SidecarCollector,
    tracer: Option<Tracer>,
    /// Start instants of in-flight candidates, keyed by candidate id.
    inflight: Mutex<Vec<(u64, Instant)>>,
}

impl FuzzTelemetry {
    /// A telemetry sink for the campaign named `campaign`.
    #[must_use]
    pub fn new(campaign: &str) -> Self {
        Self {
            sidecar: SidecarCollector::new(campaign),
            tracer: None,
            inflight: Mutex::new(Vec::new()),
        }
    }

    /// Attaches a host-plane tracer for per-candidate spans.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The sim-plane sidecar collected so far (records + census).
    pub fn sidecar(&self) -> &SidecarCollector {
        &self.sidecar
    }

    /// Renders the sim-plane sidecar artefact.
    #[must_use]
    pub fn render_sidecar(&self) -> String {
        self.sidecar.render()
    }

    fn lock_inflight(&self) -> std::sync::MutexGuard<'_, Vec<(u64, Instant)>> {
        self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl FuzzObserver for FuzzTelemetry {
    fn candidate_started(&self, id: u64, ops: &[&'static str]) {
        for op in ops {
            self.sidecar.note(&format!("mutate:{op}"));
        }
        if self.tracer.is_some() {
            self.lock_inflight().push((id, Instant::now()));
        }
    }

    fn candidate_finished(
        &self,
        id: u64,
        seed: u64,
        fitness: &FitnessBreakdown,
        sim: &SimCounters,
    ) {
        self.sidecar.record(id, seed, *sim);
        let Some(tracer) = &self.tracer else {
            return;
        };
        let started = {
            let mut inflight = self.lock_inflight();
            inflight
                .iter()
                .position(|(i, _)| *i == id)
                .map(|at| inflight.swap_remove(at).1)
        };
        let candidate = id.to_string();
        let total = format!("{:.4}", fitness.total());
        match started {
            Some(at) => {
                let mut span = tracer.span_started_at(&SweepTelemetry::track(), "candidate", at);
                span.arg("candidate", &candidate);
                span.arg("fitness", &total);
            }
            None => tracer.instant(
                &SweepTelemetry::track(),
                "candidate",
                &[("candidate", &candidate), ("fitness", &total)],
            ),
        }
    }

    fn shrink_step(&self, _id: u64, pass: &'static str, accepted: bool) {
        if accepted {
            self.sidecar.note(&format!("shrink:{pass}"));
        }
    }

    fn frontier_pinned(&self, entry: &FrontierEntry) {
        self.sidecar.note("frontier:pinned");
        if let Some(tracer) = &self.tracer {
            let candidate = entry.id.to_string();
            tracer.instant(
                &SweepTelemetry::track(),
                "pin",
                &[
                    ("candidate", &candidate),
                    ("fingerprint", &entry.fingerprint),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{run_campaign, FuzzConfig};
    use crate::presets;
    use crate::sweep::{run_sweep_observed, Axis, SeedScheme, SweepOptions, SweepSpec};

    fn tiny_sweep(name: &str) -> SweepSpec {
        SweepSpec {
            name: name.to_string(),
            base: presets::preset("light-4x4").expect("known preset"),
            axes: vec![Axis::RandomFaults {
                at_ms: 60.0,
                counts: vec![0, 2],
            }],
            replicates: 2,
            seeds: SeedScheme::Derived { root: 41 },
        }
    }

    #[test]
    fn sidecar_captures_every_run_with_nonzero_counters() {
        let sweep = tiny_sweep("observe-unit");
        let telemetry = SweepTelemetry::new(&sweep.name);
        let result = run_sweep_observed(&sweep, SweepOptions::default(), &telemetry);
        let total_runs: usize = result.cells.iter().map(|c| c.runs.len()).sum();
        assert_eq!(telemetry.sidecar().len(), total_runs);
        let totals = telemetry.totals();
        assert!(totals.cycles_stepped > 0);
        assert!(totals.messages_delivered > 0);
    }

    #[test]
    fn sidecar_is_identical_across_thread_counts() {
        let sweep = tiny_sweep("observe-threads");
        let render = |threads| {
            let telemetry = SweepTelemetry::new(&sweep.name);
            run_sweep_observed(&sweep, SweepOptions { threads }, &telemetry);
            telemetry.render_sidecar()
        };
        let one = render(1);
        assert_eq!(one, render(4));
        assert_eq!(one, render(8));
    }

    fn tiny_fuzz(threads: usize) -> FuzzConfig {
        FuzzConfig {
            fuzz_seed: 0xCAFE,
            budget: 3,
            replicates: 1,
            threads,
            threshold: 0.8,
            base: presets::preset("light-4x4").expect("known preset"),
        }
    }

    #[test]
    fn fuzz_sidecar_records_candidates_and_census() {
        let cfg = tiny_fuzz(0);
        let telemetry = FuzzTelemetry::new("fuzz-unit");
        let result = run_campaign(&cfg, &telemetry);
        assert_eq!(telemetry.sidecar().len(), 3, "one record per candidate");
        let census = telemetry.sidecar().census();
        assert!(
            census.iter().any(|(k, _)| k.starts_with("mutate:")),
            "census tracks mutation operators: {census:?}"
        );
        let doc = telemetry.render_sidecar();
        assert!(doc.contains("\"census\": {"));
        assert!(result.evaluations >= 3);
    }

    #[test]
    fn fuzz_sidecar_is_identical_across_thread_counts() {
        let render = |threads| {
            let telemetry = FuzzTelemetry::new("fuzz-threads");
            run_campaign(&tiny_fuzz(threads), &telemetry);
            telemetry.render_sidecar()
        };
        assert_eq!(render(1), render(4));
    }

    #[test]
    fn fuzz_tracer_sees_candidate_spans() {
        let cfg = tiny_fuzz(0);
        let tracer = Tracer::new(256);
        let telemetry = FuzzTelemetry::new("fuzz-trace").with_tracer(tracer.clone());
        run_campaign(&cfg, &telemetry);
        let events = tracer.events();
        let candidates = events.iter().filter(|e| e.name == "candidate").count();
        assert_eq!(candidates, 3, "one candidate span per evaluated candidate");
    }

    #[test]
    fn tracer_sees_one_run_span_per_run() {
        let sweep = tiny_sweep("observe-trace");
        let tracer = Tracer::new(64);
        let telemetry = SweepTelemetry::new(&sweep.name).with_tracer(tracer.clone());
        let result = run_sweep_observed(&sweep, SweepOptions::default(), &telemetry);
        let total_runs: usize = result.cells.iter().map(|c| c.runs.len()).sum();
        let events = tracer.events();
        assert_eq!(events.len(), total_runs);
        assert!(events.iter().all(|e| e.name == "run"));
        assert!(events.iter().all(|e| e.dur_us.is_some()));
    }
}
