//! The three workloads and their untraced, end-to-end measurement.
//!
//! Each workload is one [`SweepSpec`] derived from the benchmark seed. A
//! *repetition* executes the whole sweep through the public entry point
//! a user would call (`run_sweep_observed`, or `dispatch` to local worker
//! processes) and renders its artefact; repetitions repeat until the run
//! length is used up, and every repetition must reproduce the first one's
//! artefact and sidecar byte for byte.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::util::{children_cpu_ns, process_cpu_ns, thread_cpu_ns};
use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_scenario::dispatch::{
    dispatch, DispatchOptions, DispatchOutcome, LocalProcess, ShardTransport,
};
use sirtm_scenario::run::RunOutcome;
use sirtm_scenario::telemetry::{SidecarCollector, SimCounters};
use sirtm_scenario::{
    presets, run_sweep_observed, Axis, RunPlan, ScenarioSpec, SeedScheme, ShardPlan, ShardResult,
    SweepObserver, SweepOptions, SweepResult, SweepSpec,
};

/// Replicates per cell of one colony repetition (6 cells).
const COLONY_REPLICATES: usize = 7;
/// Replicates per cell of one firmware repetition (2 cells).
const FIRMWARE_REPLICATES: usize = 20;
/// Runs of one dispatch repetition.
const DISPATCH_RUNS: usize = 256;
/// Shards per dispatch repetition: more shards than workers, so workers
/// steal work and every worker spawns several times.
pub const DISPATCH_SHARDS: usize = 8;
/// Sweep threads of the in-process workloads and worker processes of
/// the dispatch workload: two, or fewer on a machine with fewer cores.
pub fn load_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Artefact and sidecar digests of each workload at the default seed.
const PINS: &str = include_str!("../pins.txt");

/// The benchmark's default workload seed: Table II's historical base.
pub const DEFAULT_SEED: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II on the default 8x16 Centurion: behavioural models.
    Colony,
    /// The thermal-throttle preset with the PicoBlaze firmware models.
    Firmware,
    /// Light 4x4 replicates dispatched to local worker processes.
    Dispatch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Colony, Workload::Firmware, Workload::Dispatch];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Colony => "colony-8x16",
            Workload::Firmware => "firmware-8x16",
            Workload::Dispatch => "dispatch-4x4",
        }
    }

    /// The workload's sweep for `seed`. Replicate `i` of every cell runs
    /// seed `seed + i` (the paper's paired protocol).
    pub fn sweep(self, seed: u64) -> SweepSpec {
        let seeds = SeedScheme::Sequential { base: seed };
        match self {
            Workload::Colony => {
                let base = ScenarioSpec::new(self.name(), ModelKind::NoIntelligence);
                let mut sweep = presets::table2_sweep(base, 500.0, &[0, 42], COLONY_REPLICATES);
                sweep.name = self.name().to_string();
                sweep.seeds = seeds;
                sweep
            }
            Workload::Firmware => SweepSpec {
                name: self.name().to_string(),
                base: presets::preset("thermal-throttle").expect("shipped preset"),
                axes: vec![Axis::Model(vec![
                    ModelKind::NetworkInteractionFirmware(NiConfig::default()),
                    ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
                ])],
                replicates: FIRMWARE_REPLICATES,
                seeds,
            },
            Workload::Dispatch => SweepSpec {
                name: self.name().to_string(),
                base: presets::preset("light-4x4").expect("shipped preset"),
                axes: vec![],
                replicates: DISPATCH_RUNS,
                seeds,
            },
        }
    }

    /// `(artefact, sidecar)` digests pinned for the default seed.
    pub fn pins(self) -> Option<(String, String)> {
        PINS.lines()
            .map(str::split_whitespace)
            .filter_map(|mut f| Some((f.next()?, f.next()?, f.next()?)))
            .find(|(name, _, _)| *name == self.name())
            .map(|(_, a, s)| (a.to_string(), s.to_string()))
    }
}

/// One executed run: `(run index, seed, wall ns, CPU ns, counters)`.
pub type RunRecord = (u64, u64, u64, u64, SimCounters);

/// Sweep observer that records each run's wall and on-CPU time next to
/// its deterministic counters. Host-side only: the sweep cannot see it.
#[derive(Default)]
pub struct RunClock {
    started: Mutex<Vec<(usize, Instant, u64)>>,
    runs: Mutex<Vec<RunRecord>>,
}

impl RunClock {
    /// The records, in run-index order.
    pub fn into_records(self) -> Vec<RunRecord> {
        let mut runs = self.runs.into_inner().expect("observer lock");
        runs.sort_by_key(|r| r.0);
        runs
    }
}

impl SweepObserver for RunClock {
    fn run_started(&self, plan: &RunPlan) {
        let mut started = self.started.lock().expect("observer lock");
        started.push((plan.index, Instant::now(), thread_cpu_ns()));
    }

    fn run_finished(&self, plan: &RunPlan, outcome: &RunOutcome) {
        // Same thread as `run_started`: the sweep runs a plan on one
        // worker thread from start to finish.
        let cpu_end = thread_cpu_ns();
        let (_, wall_start, cpu_start) = {
            let mut started = self.started.lock().expect("observer lock");
            let at = started
                .iter()
                .position(|(i, _, _)| *i == plan.index)
                .expect("run finished without starting");
            started.swap_remove(at)
        };
        let wall = wall_start.elapsed().as_nanos() as u64;
        let record = (
            plan.index as u64,
            plan.seed,
            wall,
            cpu_end - cpu_start,
            outcome.sim,
        );
        self.runs.lock().expect("observer lock").push(record);
    }
}

/// The timing figures of one repetition, which the end-to-end metrics
/// are made of.
#[derive(Debug, Clone)]
pub struct Figures {
    /// Wall time from the sweep call to the rendered artefact.
    pub wall_s: f64,
    /// On-CPU time of this process and its reaped workers over the same
    /// span.
    pub cpu_s: f64,
    /// Wall time of each run.
    pub run_s: Vec<f64>,
    /// On-CPU time of each run (the thread that executed it).
    pub run_cpu_s: Vec<f64>,
    /// Peak resident set of worker processes, KiB (0 in-process).
    pub worker_rss_kb: u64,
    /// Simulated cycles, stepped plus fast-forwarded, over all runs.
    pub sim_cycles: u64,
}

impl Figures {
    pub fn runs(&self) -> usize {
        self.run_s.len()
    }

    pub fn runs_per_s(&self) -> f64 {
        self.runs() as f64 / self.wall_s
    }

    pub fn runs_per_cpu_s(&self) -> f64 {
        self.runs() as f64 / self.cpu_s
    }

    pub fn sim_cycles_per_cpu_s(&self) -> f64 {
        self.sim_cycles as f64 / self.run_cpu_s.iter().sum::<f64>()
    }
}

/// One executed repetition of a workload.
pub struct Rep {
    pub figures: Figures,
    pub artefact: String,
    pub sidecar: String,
    pub result: SweepResult,
    /// Dispatch only: shard attempts beyond the first plus in-attempt
    /// transport retries.
    pub unclean_attempts: usize,
    /// Dispatch only: busy worker time and the worker time available.
    pub busy_s: f64,
    pub available_s: f64,
    pub retries: usize,
    pub reassignments: usize,
}

impl Rep {
    /// A repetition from its run records; the dispatch-only fields start
    /// at zero.
    fn new(
        sweep: &SweepSpec,
        wall_s: f64,
        cpu_s: f64,
        records: &[RunRecord],
        artefact: String,
        result: SweepResult,
    ) -> Self {
        let sidecar = SidecarCollector::new(&sweep.name);
        let mut sim_cycles = 0;
        for &(index, seed, _, _, sim) in records {
            sidecar.record(index, seed, sim);
            sim_cycles += sim.cycles_stepped + sim.cycles_fast_forwarded;
        }
        let secs = |ns: u64| ns as f64 * 1e-9;
        Rep {
            figures: Figures {
                wall_s,
                cpu_s,
                run_s: records.iter().map(|r| secs(r.2)).collect(),
                run_cpu_s: records.iter().map(|r| secs(r.3)).collect(),
                worker_rss_kb: 0,
                sim_cycles,
            },
            artefact,
            sidecar: sidecar.render(),
            result,
            unclean_attempts: 0,
            busy_s: 0.0,
            available_s: 0.0,
            retries: 0,
            reassignments: 0,
        }
    }
}

/// On-CPU ns of this process plus its reaped children.
fn cpu_now() -> u64 {
    process_cpu_ns() + children_cpu_ns()
}

/// Runs one in-process repetition of a sweep workload.
pub fn sweep_rep(sweep: &SweepSpec) -> Rep {
    let observer = RunClock::default();
    let cpu_start = cpu_now();
    let started = Instant::now();
    let result = run_sweep_observed(
        sweep,
        SweepOptions {
            threads: load_width(),
        },
        &observer,
    );
    let artefact = result.to_json().render_pretty();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = (cpu_now() - cpu_start) as f64 * 1e-9;
    Rep::new(
        sweep,
        wall_s,
        cpu_s,
        &observer.into_records(),
        artefact,
        result,
    )
}

/// The side file a worker writes next to its shard artefact.
pub fn side_file(artefact: &Path) -> PathBuf {
    let mut name = artefact.as_os_str().to_os_string();
    name.push(".runs");
    PathBuf::from(name)
}

/// Runs one dispatch repetition in the fresh work directory `dir`:
/// `DISPATCH_SHARDS` checkpointed shards over `load_width()` local
/// worker processes (this binary in worker mode), then the merge.
///
/// # Errors
///
/// Returns the dispatcher's error or a malformed worker side file.
pub fn dispatch_rep(
    sweep: &SweepSpec,
    exe: &Path,
    dir: &Path,
    tracer: Option<sirtm_telemetry::Tracer>,
) -> Result<Rep, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut workers: Vec<Box<dyn ShardTransport>> = (0..load_width())
        .map(|i| {
            Box::new(LocalProcess::new(&format!("w{i}"), exe, dir, 1)) as Box<dyn ShardTransport>
        })
        .collect();
    let opts = DispatchOptions {
        poll_interval: Duration::from_millis(2),
        tracer,
        ..DispatchOptions::default()
    };
    let cpu_start = cpu_now();
    let started = Instant::now();
    let DispatchOutcome { result, report } = dispatch(sweep, DISPATCH_SHARDS, &mut workers, &opts)?;
    let artefact = result.to_json().render_pretty();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = (cpu_now() - cpu_start) as f64 * 1e-9;

    let mut records = Vec::with_capacity(sweep.run_count());
    let mut worker_rss_kb = 0;
    for plan in ShardPlan::all(DISPATCH_SHARDS, sweep.run_count()) {
        let path = side_file(&dir.join(ShardResult::artifact_name(&sweep.name, plan)));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (rss_kb, runs) =
            parse_side_file(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        worker_rss_kb = worker_rss_kb.max(rss_kb);
        records.extend(runs);
    }
    let retries: usize = report.workers.iter().map(|w| w.retries).sum();
    let mut rep = Rep::new(sweep, wall_s, cpu_s, &records, artefact, result);
    rep.figures.worker_rss_kb = worker_rss_kb;
    rep.unclean_attempts = report.reassignments() + retries;
    rep.busy_s = report.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
    rep.available_s = report.elapsed.as_secs_f64() * workers.len() as f64;
    rep.retries = retries;
    rep.reassignments = report.reassignments();
    Ok(rep)
}

/// Renders a worker side file: `rss_kb N`, then one `run INDEX SEED
/// WALL_NS CPU_NS COUNTERS...` line per executed run (counters in
/// sidecar order).
pub fn render_side_file(rss_kb: u64, runs: &[RunRecord]) -> String {
    let mut out = format!("rss_kb {rss_kb}\n");
    for (index, seed, wall, cpu, sim) in runs {
        out.push_str(&format!("run {index} {seed} {wall} {cpu}"));
        for (_, v) in sim.fields() {
            out.push_str(&format!(" {v}"));
        }
        out.push('\n');
    }
    out
}

/// Parses a side file into the worker's peak resident set (KiB) and its
/// run records.
fn parse_side_file(text: &str) -> Result<(u64, Vec<RunRecord>), String> {
    let mut rss_kb = 0;
    let mut runs = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| -> Result<u64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad line `{line}`"))
        };
        match f.first() {
            Some(&"rss_kb") => rss_kb = num(1)?,
            Some(&"run") => {
                let c: Vec<u64> = (5..13).map(num).collect::<Result<_, _>>()?;
                let sim = SimCounters {
                    cycles_stepped: c[0],
                    cycles_fast_forwarded: c[1],
                    messages_injected: c[2],
                    messages_delivered: c[3],
                    flit_hops: c[4],
                    gossip_rounds: c[5],
                    aim_scans: c[6],
                    thermal_solves: c[7],
                };
                runs.push((num(1)?, num(2)?, num(3)?, num(4)?, sim));
            }
            _ => return Err(format!("bad line `{line}`")),
        }
    }
    Ok((rss_kb, runs))
}

/// Colony measures of a sweep result: medians over every run of settle
/// time, recovery time (runs with a perturbation) and end-of-run sink
/// rate.
pub fn colony_measures(result: &SweepResult) -> (f64, f64, f64) {
    let runs: Vec<_> = result.cells.iter().flat_map(|c| c.runs.iter()).collect();
    let settle: Vec<f64> = runs.iter().map(|r| r.settle_ms).collect();
    let recovery: Vec<f64> = runs.iter().filter_map(|r| r.recovery_ms).collect();
    let rate: Vec<f64> = runs.iter().map(|r| r.final_rate).collect();
    (
        crate::util::median(&settle),
        crate::util::median(&recovery),
        crate::util::median(&rate),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_files_round_trip() {
        let sim = SimCounters {
            cycles_stepped: 1,
            cycles_fast_forwarded: 2,
            messages_injected: 3,
            messages_delivered: 4,
            flit_hops: 5,
            gossip_rounds: 6,
            aim_scans: 7,
            thermal_solves: 8,
        };
        let text = render_side_file(99, &[(3, 20_003, 1_500_000, 1_000_000, sim)]);
        let (rss_kb, runs) = parse_side_file(&text).expect("parses");
        assert_eq!(rss_kb, 99);
        assert_eq!(runs, vec![(3, 20_003, 1_500_000, 1_000_000, sim)]);
    }

    #[test]
    fn workloads_have_the_documented_shape() {
        let colony = Workload::Colony.sweep(DEFAULT_SEED);
        assert_eq!(colony.cell_count(), 6);
        assert_eq!(colony.base.duration_ms, 1000.0);
        assert_eq!(Workload::Firmware.sweep(1).cell_count(), 2);
        assert_eq!(Workload::Dispatch.sweep(1).run_count(), DISPATCH_RUNS);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
