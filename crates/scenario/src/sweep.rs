//! Matrix expansion and the parallel, deterministic sweep orchestrator.
//!
//! A [`SweepSpec`] is a base [`ScenarioSpec`] plus a list of [`Axis`]
//! values; the cartesian product of the axes defines the sweep's
//! *cells*, and each cell runs `replicates` independent seeds. Run
//! seeds come from a [`SeedScheme`] — a pure function of the root seed
//! and the run's coordinates — so every run is self-contained and the
//! sweep produces **bit-identical results regardless of worker count
//! and of execution order** (enforced by `tests/determinism.rs`).
//!
//! Execution is a self-scheduling `std::thread` pool: workers steal the
//! next run index from a shared atomic counter, write summaries into
//! their run's slot, and the aggregation pass then folds cells in plan
//! order (deterministic Welford accumulation, quartiles over ordered
//! samples).

use std::sync::atomic::{AtomicUsize, Ordering};

use sirtm_core::models::ModelKind;
use sirtm_rng::{Rng, SplitMix64};
use sirtm_taskgraph::GridDims;

use crate::json::Json;
use crate::run::{run_spec, RunOutcome, RunSummary};
use crate::spec::{
    grid_from_json, model_from_name, model_name, EventAction, EventSpec, ScenarioSpec,
};
use crate::stats::{OnlineStats, Quartiles};

/// One swept dimension. Applying a value mutates a copy of the base
/// spec; the cartesian product of all axes (first axis slowest) defines
/// the cell order.
#[derive(Debug, Clone)]
pub enum Axis {
    /// Sweep the task-allocation model.
    Model(Vec<ModelKind>),
    /// Sweep the random PE fault count of a single injection at `at_ms`
    /// (0 = no event, the fault-free twin). Also pins the settle region
    /// to the injection instant, per the paper's protocol.
    RandomFaults {
        /// Injection instant, ms.
        at_ms: f64,
        /// Fault counts, one cell each.
        counts: Vec<usize>,
    },
    /// Sweep the grid size.
    Grid(Vec<GridDims>),
    /// Sweep the run length.
    Duration(Vec<f64>),
}

impl Axis {
    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Model(v) => v.len(),
            Axis::RandomFaults { counts, .. } => counts.len(),
            Axis::Grid(v) => v.len(),
            Axis::Duration(v) => v.len(),
        }
    }

    /// Whether the axis is empty (an empty axis yields an empty sweep).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The axis label used in artefacts.
    pub fn label(&self) -> &'static str {
        match self {
            Axis::Model(_) => "model",
            Axis::RandomFaults { .. } => "faults",
            Axis::Grid(_) => "grid",
            Axis::Duration(_) => "duration_ms",
        }
    }

    /// The label of value `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn value_label(&self, i: usize) -> String {
        match self {
            Axis::Model(v) => model_name(&v[i]).to_string(),
            Axis::RandomFaults { counts, .. } => counts[i].to_string(),
            Axis::Grid(v) => format!("{}x{}", v[i].width(), v[i].height()),
            Axis::Duration(v) => format!("{}", v[i]),
        }
    }

    /// Applies value `i` to a spec.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn apply(&self, spec: &mut ScenarioSpec, i: usize) {
        match self {
            Axis::Model(v) => spec.model = v[i].clone(),
            Axis::RandomFaults { at_ms, counts } => {
                spec.events
                    .retain(|e| !matches!(e.action, EventAction::RandomPeFaults { .. }));
                if counts[i] > 0 {
                    spec.events.push(EventSpec {
                        at_ms: *at_ms,
                        action: EventAction::RandomPeFaults { count: counts[i] },
                    });
                }
                spec.settle_region_ms = Some(*at_ms);
            }
            Axis::Grid(v) => {
                spec.platform.dims = v[i];
                spec.platform.dir_dist_max = (v[i].width() + v[i].height() + 4).min(255) as u8;
            }
            Axis::Duration(v) => spec.duration_ms = v[i],
        }
    }
}

/// How per-run seeds derive from the sweep's root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedScheme {
    /// `base + replicate`, identical across cells — the paper's paired
    /// protocol (every model sees the same initial conditions and victim
    /// sets; Table I uses base 1000, Table II base 20000).
    Sequential {
        /// First seed.
        base: u64,
    },
    /// SplitMix64-hashed from `(root, cell, replicate)` — decorrelated
    /// streams for independent-sample sweeps.
    Derived {
        /// Root seed of the whole sweep.
        root: u64,
    },
}

impl SeedScheme {
    /// The seed of replicate `replicate` in cell `cell` — a pure
    /// function, so any worker can compute it for any run.
    pub fn seed(&self, cell: usize, replicate: usize) -> u64 {
        match self {
            SeedScheme::Sequential { base } => base + replicate as u64,
            SeedScheme::Derived { root } => {
                // Golden-ratio multiplies decorrelate the coordinates
                // before the SplitMix64 finaliser scrambles them.
                let mixed = root
                    ^ (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (replicate as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                SplitMix64::new(mixed).next_u64()
            }
        }
    }
}

/// A full sweep: base spec × axes × replicates.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (artefact labelling).
    pub name: String,
    /// The spec every cell starts from.
    pub base: ScenarioSpec,
    /// Swept dimensions (empty = a single cell).
    pub axes: Vec<Axis>,
    /// Independent runs per cell.
    pub replicates: usize,
    /// Per-run seed derivation.
    pub seeds: SeedScheme,
}

/// One concrete run of an expanded sweep.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// Flat run index (cell-major: `cell * replicates + replicate`).
    pub index: usize,
    /// Cell index in axis odometer order (first axis slowest).
    pub cell: usize,
    /// `(axis label, value label)` pairs of the cell.
    pub labels: Vec<(String, String)>,
    /// The fully-applied spec.
    pub spec: ScenarioSpec,
    /// Replicate number within the cell.
    pub replicate: usize,
    /// The derived run seed.
    pub seed: u64,
}

impl SweepSpec {
    /// Number of cells (product of axis lengths).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(Axis::len).product()
    }

    /// Total runs in the sweep.
    pub fn run_count(&self) -> usize {
        self.cell_count() * self.replicates
    }

    /// Serialises the sweep descriptor to JSON: base spec, axes,
    /// replicate count and seed scheme. `u64` seeds travel as strings
    /// (JSON numbers are `f64`, which cannot carry all 64 bits). The
    /// descriptor is the identity the sharding layer fingerprints — see
    /// [`crate::shard::fingerprint`].
    pub fn to_json(&self) -> Json {
        let seeds = match self.seeds {
            SeedScheme::Sequential { base } => Json::obj(vec![
                ("scheme", Json::Str("sequential".into())),
                ("base", Json::Str(base.to_string())),
            ]),
            SeedScheme::Derived { root } => Json::obj(vec![
                ("scheme", Json::Str("derived".into())),
                ("root", Json::Str(root.to_string())),
            ]),
        };
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("base", self.base.to_json()),
            (
                "axes",
                Json::Arr(self.axes.iter().map(axis_to_json).collect()),
            ),
            ("replicates", Json::Num(self.replicates as f64)),
            ("seeds", seeds),
        ])
    }

    /// Parses a sweep descriptor produced by [`SweepSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("sweep missing `name`")?
            .to_string();
        let base = ScenarioSpec::from_json(v.get("base").ok_or("sweep missing `base`")?)?;
        let axes = match v.get("axes") {
            None => Vec::new(),
            Some(a) => a
                .as_arr()
                .ok_or("`axes` must be an array")?
                .iter()
                .map(axis_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let replicates = v
            .get("replicates")
            .and_then(Json::as_num)
            .ok_or("sweep missing `replicates`")? as usize;
        let seeds = v.get("seeds").ok_or("sweep missing `seeds`")?;
        let seeds = match seeds.get("scheme").and_then(Json::as_str) {
            Some("sequential") => SeedScheme::Sequential {
                base: seed_u64(seeds, "base")?,
            },
            Some("derived") => SeedScheme::Derived {
                root: seed_u64(seeds, "root")?,
            },
            _ => return Err("`seeds.scheme` must be `sequential` or `derived`".to_string()),
        };
        Ok(Self {
            name,
            base,
            axes,
            replicates,
            seeds,
        })
    }

    /// Parses a sweep descriptor from JSON text.
    ///
    /// # Errors
    ///
    /// Returns JSON syntax errors and field errors alike.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        Self::from_json(&crate::json::parse(text)?)
    }

    /// Expands the matrix into the full run list, cell-major with the
    /// first axis slowest — Table II order: model × fault level.
    pub fn expand(&self) -> Vec<RunPlan> {
        let cells = self.cell_count();
        let mut plans = Vec::with_capacity(self.run_count());
        for cell in 0..cells {
            // Odometer decode: first axis has the largest stride.
            let mut rem = cell;
            let mut coords = vec![0usize; self.axes.len()];
            for (k, axis) in self.axes.iter().enumerate().rev() {
                coords[k] = rem % axis.len();
                rem /= axis.len();
            }
            let mut spec = self.base.clone();
            let mut labels = Vec::with_capacity(self.axes.len());
            for (axis, &i) in self.axes.iter().zip(&coords) {
                axis.apply(&mut spec, i);
                labels.push((axis.label().to_string(), axis.value_label(i)));
            }
            for replicate in 0..self.replicates {
                plans.push(RunPlan {
                    index: cell * self.replicates + replicate,
                    cell,
                    labels: labels.clone(),
                    spec: spec.clone(),
                    replicate,
                    seed: self.seeds.seed(cell, replicate),
                });
            }
        }
        plans
    }
}

fn axis_to_json(axis: &Axis) -> Json {
    match axis {
        Axis::Model(models) => Json::obj(vec![
            ("axis", Json::Str("model".into())),
            (
                "values",
                Json::Arr(
                    models
                        .iter()
                        .map(|m| Json::Str(model_name(m).to_string()))
                        .collect(),
                ),
            ),
        ]),
        Axis::RandomFaults { at_ms, counts } => Json::obj(vec![
            ("axis", Json::Str("faults".into())),
            ("at_ms", Json::Num(*at_ms)),
            (
                "counts",
                Json::Arr(counts.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
        ]),
        Axis::Grid(grids) => Json::obj(vec![
            ("axis", Json::Str("grid".into())),
            (
                "values",
                Json::Arr(
                    grids
                        .iter()
                        .map(|g| {
                            Json::Arr(vec![
                                Json::Num(g.width() as f64),
                                Json::Num(g.height() as f64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        Axis::Duration(values) => Json::obj(vec![
            ("axis", Json::Str("duration_ms".into())),
            (
                "values",
                Json::Arr(values.iter().map(|&d| Json::Num(d)).collect()),
            ),
        ]),
    }
}

fn axis_from_json(v: &Json) -> Result<Axis, String> {
    let values = |key: &str| -> Result<&[Json], String> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("axis missing `{key}` array"))
    };
    match v.get("axis").and_then(Json::as_str) {
        Some("model") => Ok(Axis::Model(
            values("values")?
                .iter()
                .map(|m| model_from_name(m.as_str().ok_or("model names must be strings")?))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Some("faults") => Ok(Axis::RandomFaults {
            at_ms: v
                .get("at_ms")
                .and_then(Json::as_num)
                .ok_or("faults axis missing `at_ms`")?,
            counts: values("counts")?
                .iter()
                .map(|c| {
                    c.as_num()
                        .map(|n| n as usize)
                        .ok_or("fault counts must be numbers".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
        }),
        Some("grid") => Ok(Axis::Grid(
            values("values")?
                .iter()
                .map(grid_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        )),
        Some("duration_ms") => Ok(Axis::Duration(
            values("values")?
                .iter()
                .map(|d| d.as_num().ok_or("durations must be numbers".to_string()))
                .collect::<Result<Vec<_>, _>>()?,
        )),
        _ => Err("unknown or missing `axis` kind".to_string()),
    }
}

fn seed_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("`seeds.{key}` must be a u64 string"))
}

/// Orchestrator options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 = the machine's available parallelism.
    pub threads: usize,
}

/// Aggregates of one sweep cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// `(axis label, value label)` pairs.
    pub labels: Vec<(String, String)>,
    /// The cell's spec.
    pub spec: ScenarioSpec,
    /// Per-run summaries, replicate order.
    pub runs: Vec<RunSummary>,
    /// Settling-time quartiles, ms.
    pub settle_ms: Quartiles,
    /// Recovery-time quartiles, ms (`None` when no run recovered).
    pub recovery_ms: Option<Quartiles>,
    /// End-of-run throughput quartiles, sinks/ms.
    pub final_rate: Quartiles,
    /// Streaming aggregate of the end-of-run throughput.
    pub final_rate_online: OnlineStats,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Sweep name.
    pub name: String,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Cells in axis odometer order.
    pub cells: Vec<CellResult>,
}

/// Deterministic parallel map: computes `f(0..n)` on a self-scheduling
/// worker pool and returns the results in index order, bit-identical to
/// a sequential pass (each `f(i)` must be a pure function of `i`).
///
/// # Panics
///
/// Panics if a worker panics.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = if threads == 0 {
        std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                local
            }));
        }
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("all runs filled"))
        .collect()
}

/// Observation hooks around each run of a sweep or shard.
///
/// The hooks are deliberately *clock-free*: this crate's orchestrators
/// are deterministic code, so they never read wall time themselves —
/// a host-side implementation (see [`crate::observe`]) does its own
/// timing around the callbacks and collects each run's deterministic
/// [`sirtm_telemetry::SimCounters`] from the outcome. Implementations
/// must be `Sync` (runs call in from worker threads, concurrently) and
/// must not panic: an observer is a bystander, never a participant.
pub trait SweepObserver: Sync {
    /// A run is about to execute on some worker thread.
    fn run_started(&self, _plan: &RunPlan) {}

    /// A run finished; `outcome` carries the full trace and the run's
    /// deterministic sim-plane counters (`outcome.sim`).
    fn run_finished(&self, _plan: &RunPlan, _outcome: &RunOutcome) {}
}

/// The no-op observer: [`run_sweep`] is `run_sweep_observed` with this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SweepObserver for NullObserver {}

/// Executes a sweep and aggregates per cell.
///
/// # Panics
///
/// Panics if the sweep expands to zero runs or a spec is invalid.
pub fn run_sweep(sweep: &SweepSpec, opts: SweepOptions) -> SweepResult {
    run_sweep_observed(sweep, opts, &NullObserver)
}

/// [`run_sweep`] with observation hooks around every run. The observer
/// sees runs in scheduling order (which varies with thread count); the
/// returned result is bit-identical to an unobserved sweep — observers
/// receive copies of deterministic state and cannot influence the run.
///
/// # Panics
///
/// Panics if the sweep expands to zero runs or a spec is invalid.
pub fn run_sweep_observed(
    sweep: &SweepSpec,
    opts: SweepOptions,
    observer: &dyn SweepObserver,
) -> SweepResult {
    let plans = sweep.expand();
    assert!(!plans.is_empty(), "sweep expands to zero runs");
    let threads_used = if opts.threads == 0 {
        std::thread::available_parallelism()
            .map(|w| w.get())
            .unwrap_or(1)
    } else {
        opts.threads
    }
    .min(plans.len());
    let summaries = parallel_map(plans.len(), opts.threads, |i| {
        let plan = &plans[i];
        observer.run_started(plan);
        let outcome = run_spec(&plan.spec, plan.seed);
        observer.run_finished(plan, &outcome);
        outcome.summary()
    });
    let mut result = aggregate(sweep, &plans, &summaries);
    result.threads_used = threads_used;
    result
}

/// The deterministic aggregation pass: folds per-run summaries (plan
/// order) into per-cell quartiles and online stats. Shared by
/// [`run_sweep`] and [`crate::shard::merge_shards`], so a merged shard
/// set aggregates **bit-identically** to a single-process sweep.
///
/// # Panics
///
/// Panics if `summaries` is not one summary per plan, in plan order.
pub(crate) fn aggregate(
    sweep: &SweepSpec,
    plans: &[RunPlan],
    summaries: &[RunSummary],
) -> SweepResult {
    assert_eq!(plans.len(), summaries.len(), "one summary per plan");
    let mut cells = Vec::with_capacity(sweep.cell_count());
    for cell in 0..sweep.cell_count() {
        let first = cell * sweep.replicates;
        let runs: Vec<RunSummary> = summaries[first..first + sweep.replicates].to_vec();
        let settles: Vec<f64> = runs.iter().map(|r| r.settle_ms).collect();
        let rates: Vec<f64> = runs.iter().map(|r| r.final_rate).collect();
        let recoveries: Vec<f64> = runs.iter().filter_map(|r| r.recovery_ms).collect();
        cells.push(CellResult {
            labels: plans[first].labels.clone(),
            spec: plans[first].spec.clone(),
            settle_ms: Quartiles::of(&settles),
            recovery_ms: (!recoveries.is_empty()).then(|| Quartiles::of(&recoveries)),
            final_rate: Quartiles::of(&rates),
            final_rate_online: OnlineStats::of(&rates),
            runs,
        });
    }
    SweepResult {
        name: sweep.name.clone(),
        threads_used: 1,
        cells,
    }
}

fn quartiles_json(q: &Quartiles) -> Json {
    Json::obj(vec![
        ("q1", Json::Num(q.q1)),
        ("q2", Json::Num(q.q2)),
        ("q3", Json::Num(q.q3)),
    ])
}

fn online_json(s: &OnlineStats) -> Json {
    Json::obj(vec![
        ("count", Json::Num(s.count as f64)),
        ("mean", Json::Num(s.mean)),
        ("stddev", Json::Num(s.stddev())),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
    ])
}

impl SweepResult {
    /// The artefact JSON: sweep metadata, per-cell aggregates and
    /// per-run rows. The CI smoke step re-parses this through
    /// [`crate::json::parse`]. Runtime facts (thread count, wall time)
    /// are deliberately absent, so artefacts are byte-comparable across
    /// thread counts and across sharded vs single-process execution.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("sweep", Json::Str(self.name.clone())),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                (
                                    "labels",
                                    Json::Obj(
                                        c.labels
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                            .collect(),
                                    ),
                                ),
                                ("scenario", Json::Str(c.spec.name.clone())),
                                ("runs", Json::Num(c.runs.len() as f64)),
                                ("settle_ms", quartiles_json(&c.settle_ms)),
                                (
                                    "recovery_ms",
                                    c.recovery_ms
                                        .as_ref()
                                        .map(quartiles_json)
                                        .unwrap_or(Json::Null),
                                ),
                                ("final_rate", quartiles_json(&c.final_rate)),
                                ("final_rate_online", online_json(&c.final_rate_online)),
                                (
                                    "per_run",
                                    Json::Arr(
                                        c.runs
                                            .iter()
                                            .map(|r| {
                                                Json::obj(vec![
                                                    // u64 seeds exceed f64's 53-bit
                                                    // mantissa; a string keeps every
                                                    // bit replayable.
                                                    ("seed", Json::Str(r.seed.to_string())),
                                                    ("settle_ms", Json::Num(r.settle_ms)),
                                                    ("pre_rate", Json::Num(r.pre_rate)),
                                                    (
                                                        "recovery_ms",
                                                        r.recovery_ms
                                                            .map(Json::Num)
                                                            .unwrap_or(Json::Null),
                                                    ),
                                                    ("final_rate", Json::Num(r.final_rate)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the JSON artefact atomically (temp-then-rename via
    /// [`crate::shard::atomic_write`], so a crash mid-write never
    /// leaves a torn artefact).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::shard::atomic_write(path, &self.to_json().render_pretty())
    }

    /// Writes the per-run CSV artefact (one row per run, cell labels as
    /// leading columns), atomically (temp-then-rename).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        let labels: Vec<&str> = self
            .cells
            .first()
            .map(|c| c.labels.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default();
        for l in &labels {
            out.push_str(l);
            out.push(',');
        }
        out.push_str("seed,settle_ms,pre_rate,recovery_ms,final_rate\n");
        for c in &self.cells {
            for r in &c.runs {
                for (_, v) in &c.labels {
                    out.push_str(v);
                    out.push(',');
                }
                let rec = r.recovery_ms.map(|v| format!("{v:.3}")).unwrap_or_default();
                out.push_str(&format!(
                    "{},{:.3},{:.5},{},{:.5}\n",
                    r.seed, r.settle_ms, r.pre_rate, rec, r.final_rate
                ));
            }
        }
        crate::shard::atomic_write(path, &out)
    }
}

/// Structural check of a sweep JSON artefact: parses, has at least one
/// cell, every per-run row carries finite measures. The `scenarios
/// check` CI step runs this against freshly written artefacts.
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn check_artifact(text: &str) -> Result<usize, String> {
    let v = crate::json::parse(text)?;
    v.get("sweep")
        .and_then(Json::as_str)
        .ok_or("artifact missing `sweep` name")?;
    let cells = v
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("artifact missing `cells`")?;
    if cells.is_empty() {
        return Err("artifact has zero cells".to_string());
    }
    let mut runs = 0usize;
    for (i, cell) in cells.iter().enumerate() {
        let per_run = cell
            .get("per_run")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("cell {i} missing `per_run`"))?;
        if per_run.is_empty() {
            return Err(format!("cell {i} has zero runs"));
        }
        for (j, run) in per_run.iter().enumerate() {
            run.get("seed")
                .and_then(Json::as_str)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("cell {i} run {j} `seed` is not a u64 string"))?;
            for field in ["settle_ms", "pre_rate", "final_rate"] {
                let n = run
                    .get(field)
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("cell {i} run {j} missing `{field}`"))?;
                if !n.is_finite() {
                    return Err(format!("cell {i} run {j} `{field}` is not finite"));
                }
            }
            runs += 1;
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_core::models::{FfwConfig, ModelKind};
    use sirtm_taskgraph::GridDims;

    fn tiny_base() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("tiny", ModelKind::NoIntelligence);
        spec.platform.dims = GridDims::new(4, 4);
        spec.platform.dir_dist_max = 12;
        spec.duration_ms = 60.0;
        spec.window_ms = 4.0;
        spec.settle_region_ms = Some(30.0);
        spec
    }

    #[test]
    fn expansion_is_cell_major_with_first_axis_slowest() {
        let sweep = SweepSpec {
            name: "m".into(),
            base: tiny_base(),
            axes: vec![
                Axis::Model(vec![
                    ModelKind::NoIntelligence,
                    ModelKind::ForagingForWork(FfwConfig::default()),
                ]),
                Axis::RandomFaults {
                    at_ms: 30.0,
                    counts: vec![0, 2, 4],
                },
            ],
            replicates: 2,
            seeds: SeedScheme::Sequential { base: 100 },
        };
        assert_eq!(sweep.cell_count(), 6);
        let plans = sweep.expand();
        assert_eq!(plans.len(), 12);
        // First model covers its three fault levels before the second.
        assert_eq!(
            plans[0].labels,
            vec![
                ("model".to_string(), "none".to_string()),
                ("faults".to_string(), "0".to_string())
            ]
        );
        assert_eq!(plans[2].labels[1].1, "2");
        assert_eq!(plans[6].labels[0].1, "ffw");
        // Sequential seeds repeat across cells (paired protocol).
        assert_eq!(plans[0].seed, 100);
        assert_eq!(plans[1].seed, 101);
        assert_eq!(plans[6].seed, 100);
        // Zero-fault cells carry no event; others carry exactly one.
        assert!(plans[0].spec.events.is_empty());
        assert_eq!(plans[2].spec.events.len(), 1);
    }

    #[test]
    fn sweep_descriptor_round_trips_through_json() {
        let sweep = SweepSpec {
            name: "rt".into(),
            base: tiny_base(),
            axes: vec![
                Axis::Model(vec![
                    ModelKind::NoIntelligence,
                    ModelKind::ForagingForWork(FfwConfig::default()),
                ]),
                Axis::RandomFaults {
                    at_ms: 30.0,
                    counts: vec![0, 2, 4],
                },
                Axis::Grid(vec![GridDims::new(4, 4), GridDims::new(8, 16)]),
                Axis::Duration(vec![60.0, 120.5]),
            ],
            replicates: 3,
            // A seed above 2^53 proves u64 exactness through JSON.
            seeds: SeedScheme::Derived {
                root: 0xDEAD_BEEF_CAFE_F00D,
            },
        };
        let text = sweep.to_json().render_pretty();
        let back = SweepSpec::from_json_text(&text).expect("descriptor parses");
        assert_eq!(back.name, sweep.name);
        assert_eq!(back.replicates, sweep.replicates);
        assert_eq!(back.seeds, sweep.seeds);
        // The expansion — the part the orchestrator consumes — is
        // identical: same cells, labels and seeds.
        let a = sweep.expand();
        let b = back.expand();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.labels, y.labels);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.spec, y.spec);
        }
        // Round-tripping the descriptor is idempotent (fingerprints of
        // the sharding layer rely on this).
        assert_eq!(back.to_json().render(), sweep.to_json().render());
    }

    #[test]
    fn bad_sweep_descriptors_are_rejected() {
        for (text, needle) in [
            ("{}", "name"),
            (r#"{"name": "x"}"#, "base"),
            (
                r#"{"name": "x", "base": {"name": "b", "grid": [4,4], "model": "ffw",
                    "duration_ms": 60}, "replicates": 1,
                    "seeds": {"scheme": "lottery"}}"#,
                "scheme",
            ),
            (
                r#"{"name": "x", "base": {"name": "b", "grid": [4,4], "model": "ffw",
                    "duration_ms": 60}, "replicates": 1,
                    "seeds": {"scheme": "derived", "root": 7}}"#,
                "u64 string",
            ),
            (
                r#"{"name": "x", "base": {"name": "b", "grid": [4,4], "model": "ffw",
                    "duration_ms": 60}, "replicates": 1, "axes": [{"axis": "warp"}],
                    "seeds": {"scheme": "derived", "root": "7"}}"#,
                "axis",
            ),
        ] {
            let err = SweepSpec::from_json_text(text).expect_err("must fail");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn derived_seeds_are_pure_and_decorrelated() {
        let scheme = SeedScheme::Derived { root: 42 };
        assert_eq!(scheme.seed(3, 7), scheme.seed(3, 7));
        let mut seen: Vec<u64> = (0..8)
            .flat_map(|c| (0..8).map(move |r| (c, r)))
            .map(|(c, r)| scheme.seed(c, r))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64, "no collisions over an 8x8 block");
        assert_ne!(
            SeedScheme::Derived { root: 43 }.seed(3, 7),
            scheme.seed(3, 7)
        );
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn sweep_aggregates_and_artifacts_hold_together() {
        let sweep = SweepSpec {
            name: "artifact".into(),
            base: tiny_base(),
            axes: vec![Axis::RandomFaults {
                at_ms: 30.0,
                counts: vec![0, 4],
            }],
            replicates: 3,
            seeds: SeedScheme::Derived { root: 7 },
        };
        let result = run_sweep(&sweep, SweepOptions { threads: 2 });
        assert_eq!(result.cells.len(), 2);
        assert!(result.cells[0].recovery_ms.is_none(), "fault-free cell");
        assert!(result.cells[1].recovery_ms.is_some(), "faulted cell");
        assert_eq!(result.cells[0].final_rate_online.count, 3);
        let text = result.to_json().render_pretty();
        assert_eq!(check_artifact(&text), Ok(6));
        // Seeds round-trip exactly: u64 > 2^53 would lose bits as a JSON
        // number, so the artifact carries them as strings.
        let parsed = crate::json::parse(&text).expect("artifact parses");
        let first_seed = parsed.get("cells").unwrap().as_arr().unwrap()[0]
            .get("per_run")
            .unwrap()
            .as_arr()
            .unwrap()[0]
            .get("seed")
            .unwrap()
            .as_str()
            .unwrap()
            .parse::<u64>()
            .expect("seed is a u64 string");
        assert_eq!(first_seed, result.cells[0].runs[0].seed);
        let dir = std::env::temp_dir().join("sirtm_sweep_test");
        let json_path = dir.join("sweep.json");
        let csv_path = dir.join("sweep.csv");
        result.write_json(&json_path).expect("json writes");
        result.write_csv(&csv_path).expect("csv writes");
        let csv = std::fs::read_to_string(&csv_path).expect("reads");
        assert!(csv.starts_with("faults,seed,settle_ms"));
        assert_eq!(csv.lines().count(), 7, "header + 6 runs");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn broken_artifacts_are_rejected() {
        assert!(check_artifact("{").is_err());
        assert!(check_artifact("{\"cells\": []}").is_err());
        assert!(check_artifact("{\"sweep\": \"x\", \"cells\": []}")
            .unwrap_err()
            .contains("zero cells"));
        assert!(
            check_artifact("{\"sweep\": \"x\", \"cells\": [{\"per_run\": [{\"seed\": 1}]}]}")
                .unwrap_err()
                .contains("seed"),
            "numeric seeds are rejected (precision loss)"
        );
        assert!(check_artifact(
            "{\"sweep\": \"x\", \"cells\": [{\"per_run\": [{\"seed\": \"1\"}]}]}"
        )
        .unwrap_err()
        .contains("settle_ms"));
    }
}
