//! The traced replica of a sweep: every run executes the same calls
//! `run_spec` makes (`build_platform`, `Timeline::compile`, then per
//! window `Timeline::poll`, `Platform::run_until` and `Recorder::sample`),
//! each wrapped in a host-plane span whose parent is the run's span, so
//! wall time splits by layer from the outside. The replica's sim counters
//! must render the same sidecar as the untraced sweep.

use std::sync::Mutex;

use sirtm_scenario::recorder::Recorder;
use sirtm_scenario::telemetry::{SidecarCollector, SimCounters, Tracer};
use sirtm_scenario::{build_platform, parallel_map, RunPlan, SweepSpec, Timeline};

use crate::util::thread_cpu_ns;
use crate::workload::load_width;

/// On-CPU time (ns) and call count of one traced call site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    pub ns: u64,
    pub calls: u64,
}

impl Calls {
    fn add(&mut self, other: Calls) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Mean host time per call in `unit_ns` units (0 without calls).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// Per-layer totals of one or more traced passes over a sweep.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub run: Calls,
    pub build: Calls,
    pub compile: Calls,
    pub poll: Calls,
    pub run_until: Calls,
    pub sample: Calls,
    pub sim: SimCounters,
    pub switches: u64,
    /// AIM scans per model name, for the attribution.
    pub scans_by_model: Vec<(&'static str, u64)>,
}

impl Layers {
    pub fn absorb(&mut self, other: &Layers) {
        self.run.add(other.run);
        self.build.add(other.build);
        self.compile.add(other.compile);
        self.poll.add(other.poll);
        self.run_until.add(other.run_until);
        self.sample.add(other.sample);
        self.sim.absorb(&other.sim);
        self.switches += other.switches;
        for &(model, n) in &other.scans_by_model {
            match self.scans_by_model.iter_mut().find(|(m, _)| *m == model) {
                Some((_, total)) => *total += n,
                None => self.scans_by_model.push((model, n)),
            }
        }
    }

    /// Self time of the benchmark's own code inside run spans:
    /// run time not covered by a traced layer call.
    pub fn bench_self_ns(&self) -> u64 {
        let children =
            self.build.ns + self.compile.ns + self.poll.ns + self.run_until.ns + self.sample.ns;
        self.run.ns.saturating_sub(children)
    }

    /// Self time of the `scenario` crate's calls.
    pub fn scenario_ns(&self) -> u64 {
        self.compile.ns + self.poll.ns + self.sample.ns
    }

    /// Self time of the `centurion` crate's calls (the platform build
    /// and the hot loop, which runs `noc`, `core` and `picoblaze`).
    pub fn centurion_ns(&self) -> u64 {
        self.build.ns + self.run_until.ns
    }
}

/// Times `f` into `acc` inside a span `name` on `track`, tagged with the
/// run id shared by every span of the run.
fn traced<T>(
    tracer: &Tracer,
    track: &str,
    name: &str,
    run: &str,
    acc: &mut Calls,
    f: impl FnOnce() -> T,
) -> T {
    let mut span = tracer.span(track, name);
    span.arg("run", run);
    let start = thread_cpu_ns();
    let out = f();
    acc.ns += thread_cpu_ns() - start;
    acc.calls += 1;
    drop(span);
    out
}

/// One traced run; returns its layer totals and sim counters.
fn traced_run(plan: &RunPlan, tracer: &Tracer, run_id: &str) -> Layers {
    let track = format!("{:?}", std::thread::current().id());
    let mut layers = Layers::default();
    let spec = &plan.spec;
    let started = thread_cpu_ns();
    let mut run_span = tracer.span(&track, "run");
    run_span.arg("run", run_id);
    run_span.arg("seed", &plan.seed.to_string());
    spec.validate();
    let mut platform = traced(
        tracer,
        &track,
        "build_platform",
        run_id,
        &mut layers.build,
        || build_platform(spec, plan.seed),
    );
    let mut timeline = traced(
        tracer,
        &track,
        "Timeline::compile",
        run_id,
        &mut layers.compile,
        || Timeline::compile(spec, plan.seed),
    );
    let mut recorder = Recorder::new(spec.window_ms, spec.sink());
    let window = platform.config().ms_to_cycles(spec.window_ms);
    for _ in 0..spec.total_windows() {
        traced(
            tracer,
            &track,
            "Timeline::poll",
            run_id,
            &mut layers.poll,
            || timeline.poll(&mut platform),
        );
        let target = platform.now() + window;
        traced(
            tracer,
            &track,
            "Platform::run_until",
            run_id,
            &mut layers.run_until,
            || platform.run_until(target),
        );
        traced(
            tracer,
            &track,
            "Recorder::sample",
            run_id,
            &mut layers.sample,
            || recorder.sample(&platform),
        );
    }
    let mut sim = platform.sim_counters();
    sim.thermal_solves += timeline.thermal_solves();
    layers.sim = sim;
    layers.switches = platform.switches_total();
    layers.scans_by_model = vec![(spec.model.name(), sim.aim_scans)];
    std::hint::black_box(recorder.into_trace());
    drop(run_span);
    layers.run = Calls {
        ns: thread_cpu_ns() - started,
        calls: 1,
    };
    layers
}

/// A traced pass over every run of `sweep` on the sweep thread count.
/// Returns the summed layers and the sidecar.
pub fn traced_pass(sweep: &SweepSpec, tracer: &Tracer, pass: usize) -> (Layers, SidecarCollector) {
    let plans = sweep.expand();
    let sidecar = SidecarCollector::new(&sweep.name);
    let totals = Mutex::new(Layers::default());
    parallel_map(plans.len(), load_width(), |i| {
        let plan = &plans[i];
        let layers = traced_run(plan, tracer, &format!("{pass}.{}", plan.index));
        sidecar.record(plan.index as u64, plan.seed, layers.sim);
        totals.lock().expect("layer totals").absorb(&layers);
    });
    (totals.into_inner().expect("layer totals"), sidecar)
}

/// Checks a Chrome trace-event document with the rules of `scenarios
/// trace check`: a `traceEvents` array whose events all carry `ph`,
/// `name` and `pid`; spans (`X`) carry `ts` and `dur`, instants (`i`)
/// carry `ts`, metadata (`M`) needs neither. Returns the non-metadata
/// event count.
///
/// # Errors
///
/// Describes the first malformed event.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    use sirtm_scenario::json::{parse, Json};
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no `traceEvents` array")?;
    let mut counted = 0;
    for (i, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing `ph`"))?;
        if event.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing `name`"));
        }
        if event.get("pid").and_then(Json::as_num).is_none() {
            return Err(format!("event {i}: missing `pid`"));
        }
        let has = |key: &str| event.get(key).and_then(Json::as_num).is_some();
        match ph {
            "M" => continue,
            "X" if has("ts") && has("dur") => {}
            "i" if has("ts") => {}
            other => return Err(format!("event {i}: bad `{other}` event")),
        }
        counted += 1;
    }
    Ok(counted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_export_passes_the_trace_check() {
        let tracer = Tracer::new(16);
        {
            let _run = tracer.span("t", "run");
            tracer.instant("t", "mark", &[("k", "v")]);
        }
        assert_eq!(check_chrome_trace(&tracer.chrome_json()), Ok(2));
        assert!(check_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
    }
}
