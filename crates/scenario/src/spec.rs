//! Declarative, serialisable scenario specifications.
//!
//! A [`ScenarioSpec`] is the single data object that describes one
//! experiment: which workload runs, on which grid, under which
//! intelligence model, for how long, and which typed perturbation
//! events — fault injections, thermal runaways, DVFS moves,
//! workload-phase shifts — land on the platform's timeline while it
//! runs. Opening a new workload/fault/thermal combination is a data
//! change (a new spec), not a code change.
//!
//! Specs round-trip through JSON ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::from_json`]); the JSON form carries the model *class*
//! by its report name (`none`, `ni`, `ffw`, `ni-fw`, `ffw-fw`) with
//! default tuning — custom AIM register tuning stays a code-level
//! concern. Platform knobs beyond the grid size keep their Centurion
//! defaults in the JSON form.

use sirtm_centurion::PlatformConfig;
use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_taskgraph::workloads::{self, ForkJoinParams};
use sirtm_taskgraph::{GridDims, Mapping, TaskGraph, TaskId};

use crate::detect::DetectorConfig;
use crate::json::Json;

/// Which application graph the scenario runs.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The paper's Fig. 3 fork-join (ratio 1:3:1).
    ForkJoin(ForkJoinParams),
    /// A linear pipeline of `stages` tasks.
    Pipeline {
        /// Number of stages (≥ 2), source first.
        stages: u8,
        /// Source generation period in cycles.
        generation_period: u32,
        /// Service cycles per stage.
        service: u32,
    },
    /// Source → two parallel workers → join.
    Diamond {
        /// Source generation period in cycles.
        generation_period: u32,
    },
}

impl WorkloadSpec {
    /// Builds the task graph.
    pub fn graph(&self) -> TaskGraph {
        match self {
            WorkloadSpec::ForkJoin(params) => workloads::fork_join(params),
            WorkloadSpec::Pipeline {
                stages,
                generation_period,
                service,
            } => workloads::pipeline(*stages, *generation_period, *service),
            WorkloadSpec::Diamond { generation_period } => workloads::diamond(*generation_period),
        }
    }
}

/// How tasks are initially placed on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingSpec {
    /// The paper's protocol: adaptive models start from a random
    /// topology, the baseline from the fixed Manhattan heuristic.
    #[default]
    Auto,
    /// Always random-uniform (seeded).
    Random,
    /// Always the Manhattan heuristic.
    Heuristic,
}

/// Parameters of a physics-derived thermal fault event: an unmanaged
/// overclocked pre-run of the same grid discovers which tiles cross the
/// trip temperature, and exactly those die (see
/// [`sirtm_thermal::thermal_fault_scenario`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalEventSpec {
    /// Clock applied during the runaway pre-run, MHz.
    pub overclock_mhz: u16,
    /// Stress-workload generation period of the pre-run, cycles.
    pub generation_period: u32,
    /// Length of the unmanaged pre-run, simulated ms.
    pub runaway_ms: f64,
    /// Restrict the overclock to `(first_row, rows)`; `None` overclocks
    /// the whole die.
    pub overclock_rows: Option<(u16, u16)>,
}

impl Default for ThermalEventSpec {
    fn default() -> Self {
        Self {
            overclock_mhz: 255,
            generation_period: 40,
            runaway_ms: 600.0,
            overclock_rows: None,
        }
    }
}

/// What a timeline event does to the platform.
///
/// All `Random*` victim sets are drawn deterministically from the run
/// seed (`seed ^ 0x5EED_FA17`, events in listed order), shared across
/// models for paired comparison. Counts larger than the grid saturate —
/// the semantics of [`sirtm_faults::generators::random_nodes`], where
/// asking for more victims than the grid holds faults every node once.
#[derive(Debug, Clone, PartialEq)]
pub enum EventAction {
    /// `count` uniformly random distinct PE deaths (the paper's node
    /// faults).
    RandomPeFaults {
        /// Number of victims.
        count: usize,
    },
    /// `count` random link-down faults (random node, random direction).
    RandomLinkFaults {
        /// Number of severed links.
        count: usize,
    },
    /// `count` random PE hangs (lying faults: the AIM keeps advertising).
    RandomHangs {
        /// Number of hung nodes.
        count: usize,
    },
    /// A contiguous band of full rows dies, routers included (the
    /// paper's global clock buffer failure).
    ClockRegionFaults {
        /// First affected row.
        first_row: u16,
        /// Number of affected rows.
        rows: u16,
    },
    /// All PEs within Manhattan `radius` of `(x, y)` die.
    HotspotFaults {
        /// Hotspot centre, x coordinate.
        x: u16,
        /// Hotspot centre, y coordinate.
        y: u16,
        /// Manhattan radius of the dead disc.
        radius: u32,
    },
    /// Physics-derived thermal victims (see [`ThermalEventSpec`]).
    ThermalFaults(ThermalEventSpec),
    /// Global DVFS move: every node's clock is set (clamped to range).
    SetFrequencyAll {
        /// Target clock, MHz.
        mhz: u16,
    },
    /// Regional DVFS move over a band of full rows.
    SetFrequencyRows {
        /// First affected row.
        first_row: u16,
        /// Number of affected rows.
        rows: u16,
        /// Target clock, MHz.
        mhz: u16,
    },
    /// Workload-phase shift: retunes a source task's generation period.
    SetGenerationPeriod {
        /// The source task (by index).
        task: u8,
        /// New generation period, cycles.
        period_cycles: u32,
    },
}

/// One timed event on the scenario timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSpec {
    /// Instant the event fires, in simulated milliseconds.
    pub at_ms: f64,
    /// What happens.
    pub action: EventAction,
}

/// A complete, declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (artefact labelling).
    pub name: String,
    /// Platform configuration (grid size, time base, fabric knobs). Only
    /// the grid and time base survive JSON round-trips; the rest keeps
    /// Centurion defaults.
    pub platform: PlatformConfig,
    /// The task-allocation model under test.
    pub model: ModelKind,
    /// The application workload.
    pub workload: WorkloadSpec,
    /// Initial task placement policy.
    pub mapping: MappingSpec,
    /// Run length in simulated milliseconds.
    pub duration_ms: f64,
    /// Recording window in simulated milliseconds.
    pub window_ms: f64,
    /// End of the settling region in ms (`None` = the whole run). The
    /// paper's protocol measures settling strictly before the fault
    /// instant, so its specs set this to the injection time even for
    /// fault-free twins.
    pub settle_region_ms: Option<f64>,
    /// Settling/recovery detector configuration.
    pub detector: DetectorConfig,
    /// The perturbation timeline, in firing order.
    pub events: Vec<EventSpec>,
}

impl ScenarioSpec {
    /// A scenario with the paper's defaults (8×16 grid, Fig. 3 fork-join,
    /// 1000 ms, 2 ms windows, no events).
    pub fn new(name: impl Into<String>, model: ModelKind) -> Self {
        Self {
            name: name.into(),
            platform: PlatformConfig::default(),
            model,
            workload: WorkloadSpec::ForkJoin(ForkJoinParams::default()),
            mapping: MappingSpec::Auto,
            duration_ms: 1000.0,
            window_ms: 2.0,
            settle_region_ms: None,
            detector: DetectorConfig::default(),
            events: Vec::new(),
        }
    }

    /// The grid the scenario runs on.
    pub fn grid(&self) -> GridDims {
        self.platform.dims
    }

    /// Builds the workload graph.
    pub fn graph(&self) -> TaskGraph {
        self.workload.graph()
    }

    /// The sink task whose completions define application throughput
    /// (the highest-numbered task, matching the paper's task 3).
    pub fn sink(&self) -> TaskId {
        TaskId::new((self.graph().len() - 1) as u8)
    }

    /// Whether `self` and `other` are equal in every field but `events`.
    /// Runs of two such specs at one seed are the same run until the
    /// first event fires, which is the grouping key of
    /// [`run_group`](crate::run::run_group).
    pub fn eq_except_events(&self, other: &Self) -> bool {
        // Destructured, so a new field cannot be left out of the key.
        let Self {
            name,
            platform,
            model,
            workload,
            mapping,
            duration_ms,
            window_ms,
            settle_region_ms,
            detector,
            events: _,
        } = self;
        *name == other.name
            && *platform == other.platform
            && *model == other.model
            && *workload == other.workload
            && *mapping == other.mapping
            && *duration_ms == other.duration_ms
            && *window_ms == other.window_ms
            && *settle_region_ms == other.settle_region_ms
            && *detector == other.detector
    }

    /// Number of recording windows.
    pub fn total_windows(&self) -> usize {
        (self.duration_ms / self.window_ms).round() as usize
    }

    /// The instant of the first timeline event, if any — the start of
    /// the recovery measurement region.
    pub fn first_event_ms(&self) -> Option<f64> {
        self.events
            .iter()
            .map(|e| e.at_ms)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Whether the initial placement is the Manhattan heuristic: always
    /// under [`MappingSpec::Heuristic`], and for the non-adaptive baseline
    /// under [`MappingSpec::Auto`] (the paper's protocol).
    pub fn maps_heuristically(&self) -> bool {
        match self.mapping {
            MappingSpec::Auto => !self.model.is_adaptive(),
            MappingSpec::Random => false,
            MappingSpec::Heuristic => true,
        }
    }

    /// Every graph the run places with the Manhattan heuristic, labelled:
    /// the workload under a heuristic placement, and the stress workload
    /// of each thermal event's runaway pre-run.
    pub(crate) fn heuristic_graphs(&self) -> Vec<(&'static str, TaskGraph)> {
        let workload = self
            .maps_heuristically()
            .then(|| ("workload", self.graph()));
        let thermal = self.events.iter().filter_map(|e| match &e.action {
            EventAction::ThermalFaults(t) => Some((
                "thermal pre-run",
                sirtm_thermal::stress_graph(t.generation_period),
            )),
            _ => None,
        });
        workload.into_iter().chain(thermal).collect()
    }

    /// Checks that the grid holds one instance of every graph the run
    /// places with the Manhattan heuristic (see [`Self::maps_heuristically`]
    /// and the thermal events' pre-runs). [`run_spec`] asserts this; the
    /// `scenarios` CLI checks it on every loaded spec.
    ///
    /// [`run_spec`]: crate::run_spec
    ///
    /// # Errors
    ///
    /// Names the first graph the grid cannot hold.
    pub fn check_grid(&self) -> Result<(), String> {
        for (what, graph) in self.heuristic_graphs() {
            Mapping::heuristic_checked(&graph, self.grid()).map_err(|e| format!("{what}: {e}"))?;
        }
        Ok(())
    }

    /// Checks that the simulator can run the spec: a positive time base,
    /// window and duration; workload parameters the graph builders
    /// accept; events inside the run and inside the grid, with parameters
    /// the platform accepts. [`Self::from_json`] applies it to every
    /// parsed spec. Whether the grid can hold a heuristic placement is
    /// the separate [`Self::check_grid`].
    ///
    /// # Errors
    ///
    /// Describes the first violated bound.
    pub fn check(&self) -> Result<(), String> {
        if self.platform.cycles_per_ms == 0 {
            return Err("`cycles_per_ms` must be a positive integer".to_string());
        }
        if !(self.window_ms > 0.0 && self.window_ms.is_finite()) {
            return Err(format!(
                "window must be positive, not {} ms",
                self.window_ms
            ));
        }
        if !(self.duration_ms >= self.window_ms && self.duration_ms.is_finite()) {
            return Err(format!(
                "duration {} ms shorter than one {} ms window",
                self.duration_ms, self.window_ms
            ));
        }
        if self.detector.steady_windows == 0 {
            return Err("detector `steady_windows` must be non-zero".to_string());
        }
        match &self.workload {
            WorkloadSpec::ForkJoin(p) if p.branches == 0 => {
                return Err("fork-join `branches` must be non-zero".to_string())
            }
            WorkloadSpec::Pipeline { stages, .. } if *stages < 2 => {
                return Err(format!(
                    "pipeline `stages` must be at least 2, not {stages}"
                ))
            }
            WorkloadSpec::ForkJoin(ForkJoinParams {
                generation_period: 0,
                ..
            })
            | WorkloadSpec::Pipeline {
                generation_period: 0,
                ..
            }
            | WorkloadSpec::Diamond {
                generation_period: 0,
            } => return Err("workload `generation_period` must be non-zero".to_string()),
            _ => {}
        }
        if let Some(max) = self.model.max_tasks() {
            let n = self.graph().len();
            if n > max {
                return Err(format!(
                    "model `{}` supports at most {max} tasks, but the workload has {n}",
                    model_name(&self.model)
                ));
            }
        }
        let (w, h) = (self.grid().width(), self.grid().height());
        let band = |what: &str, first_row: u16, rows: u16| {
            let end = u32::from(first_row) + u32::from(rows);
            if end > u32::from(h) {
                return Err(format!(
                    "{what} rows {first_row}..{end} outside the {w}x{h} grid"
                ));
            }
            Ok(())
        };
        for e in &self.events {
            if !(e.at_ms >= 0.0 && e.at_ms <= self.duration_ms) {
                return Err(format!(
                    "event at {} ms outside the {} ms run",
                    e.at_ms, self.duration_ms
                ));
            }
            match &e.action {
                EventAction::ClockRegionFaults { first_row, rows } => {
                    band("clock region", *first_row, *rows)?
                }
                EventAction::SetFrequencyRows {
                    first_row, rows, ..
                } => band("frequency region", *first_row, *rows)?,
                EventAction::HotspotFaults { x, y, .. } if *x >= w || *y >= h => {
                    return Err(format!(
                        "hotspot centre ({x}, {y}) outside the {w}x{h} grid"
                    ))
                }
                EventAction::ThermalFaults(t) => {
                    if t.generation_period == 0 {
                        return Err("thermal `generation_period` must be non-zero".to_string());
                    }
                    if let Some((first_row, rows)) = t.overclock_rows {
                        band("thermal overclock", first_row, rows)?;
                    }
                }
                EventAction::SetGenerationPeriod {
                    task,
                    period_cycles,
                } => {
                    if *period_cycles == 0 {
                        return Err("`period_cycles` must be non-zero".to_string());
                    }
                    let graph = self.graph();
                    if usize::from(*task) >= graph.len()
                        || !graph.spec(TaskId::new(*task)).is_source()
                    {
                        return Err(format!("task {task} is not a source of the workload"));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Panicking form of [`Self::check`].
    ///
    /// # Panics
    ///
    /// Panics with [`Self::check`]'s message.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Serialises the spec to a JSON value.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            (
                "grid",
                Json::Arr(vec![
                    Json::Num(self.grid().width() as f64),
                    Json::Num(self.grid().height() as f64),
                ]),
            ),
            (
                "cycles_per_ms",
                Json::Num(self.platform.cycles_per_ms as f64),
            ),
            ("model", Json::Str(model_name(&self.model).to_string())),
            ("workload", workload_to_json(&self.workload)),
            ("mapping", Json::Str(mapping_name(self.mapping).to_string())),
            ("duration_ms", Json::Num(self.duration_ms)),
            ("window_ms", Json::Num(self.window_ms)),
        ];
        if let Some(ms) = self.settle_region_ms {
            pairs.push(("settle_region_ms", Json::Num(ms)));
        }
        pairs.push(("detector", detector_to_json(&self.detector)));
        pairs.push((
            "events",
            Json::Arr(self.events.iter().map(event_to_json).collect()),
        ));
        Json::obj(pairs)
    }

    /// Renders the spec as pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parses a spec from a JSON value. Missing optional fields take the
    /// paper defaults.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field, or
    /// of the first bound [`Self::check`] finds violated.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let name = req_str(v, "name")?.to_string();
        let dims = grid_from_json(v.get("grid").ok_or("missing `grid`")?)?;
        let mut platform = PlatformConfig {
            dims,
            ..PlatformConfig::default()
        };
        if let Some(c) = v.get("cycles_per_ms").and_then(Json::as_num) {
            platform.cycles_per_ms = c as u32;
        }
        let model = model_from_name(req_str(v, "model")?)?;
        let workload = match v.get("workload") {
            Some(w) => workload_from_json(w)?,
            None => WorkloadSpec::ForkJoin(ForkJoinParams::default()),
        };
        let mapping = match v.get("mapping").and_then(Json::as_str) {
            None | Some("auto") => MappingSpec::Auto,
            Some("random") => MappingSpec::Random,
            Some("heuristic") => MappingSpec::Heuristic,
            Some(other) => return Err(format!("unknown mapping `{other}`")),
        };
        let duration_ms = v
            .get("duration_ms")
            .and_then(Json::as_num)
            .ok_or("missing `duration_ms`")?;
        let window_ms = v.get("window_ms").and_then(Json::as_num).unwrap_or(2.0);
        let settle_region_ms = v.get("settle_region_ms").and_then(Json::as_num);
        let detector = match v.get("detector") {
            Some(d) => detector_from_json(d)?,
            None => DetectorConfig::default(),
        };
        let events = match v.get("events") {
            Some(e) => e
                .as_arr()
                .ok_or("`events` must be an array")?
                .iter()
                .map(event_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let spec = Self {
            name,
            platform,
            model,
            workload,
            mapping,
            duration_ms,
            window_ms,
            settle_region_ms,
            detector,
            events,
        };
        spec.check()?;
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns JSON syntax errors and field errors alike.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        Self::from_json(&crate::json::parse(text)?)
    }
}

/// The spec-level model name (the `ModelKind` report name).
pub fn model_name(model: &ModelKind) -> &'static str {
    model.name()
}

/// Resolves a model report name to a `ModelKind` with default tuning.
///
/// # Errors
///
/// Returns an error for unknown names.
pub fn model_from_name(name: &str) -> Result<ModelKind, String> {
    match name {
        "none" => Ok(ModelKind::NoIntelligence),
        "ni" => Ok(ModelKind::NetworkInteraction(NiConfig::default())),
        "ffw" => Ok(ModelKind::ForagingForWork(FfwConfig::default())),
        "ni-fw" => Ok(ModelKind::NetworkInteractionFirmware(NiConfig::default())),
        "ffw-fw" => Ok(ModelKind::ForagingForWorkFirmware(FfwConfig::default())),
        other => Err(format!("unknown model `{other}`")),
    }
}

fn mapping_name(mapping: MappingSpec) -> &'static str {
    match mapping {
        MappingSpec::Auto => "auto",
        MappingSpec::Random => "random",
        MappingSpec::Heuristic => "heuristic",
    }
}

fn workload_to_json(w: &WorkloadSpec) -> Json {
    match w {
        WorkloadSpec::ForkJoin(p) => Json::obj(vec![
            ("kind", Json::Str("fork-join".into())),
            ("branches", Json::Num(p.branches as f64)),
            ("generation_period", Json::Num(p.generation_period as f64)),
            ("t1_service", Json::Num(p.t1_service as f64)),
            ("t2_service", Json::Num(p.t2_service as f64)),
            ("t3_service", Json::Num(p.t3_service as f64)),
            ("data_flits", Json::Num(p.data_flits as f64)),
            ("ack_flits", Json::Num(p.ack_flits as f64)),
        ]),
        WorkloadSpec::Pipeline {
            stages,
            generation_period,
            service,
        } => Json::obj(vec![
            ("kind", Json::Str("pipeline".into())),
            ("stages", Json::Num(*stages as f64)),
            ("generation_period", Json::Num(*generation_period as f64)),
            ("service", Json::Num(*service as f64)),
        ]),
        WorkloadSpec::Diamond { generation_period } => Json::obj(vec![
            ("kind", Json::Str("diamond".into())),
            ("generation_period", Json::Num(*generation_period as f64)),
        ]),
    }
}

fn workload_from_json(v: &Json) -> Result<WorkloadSpec, String> {
    match req_str(v, "kind")? {
        "fork-join" => {
            let d = ForkJoinParams::default();
            Ok(WorkloadSpec::ForkJoin(ForkJoinParams {
                branches: opt_num(v, "branches", d.branches as f64)? as u8,
                generation_period: opt_num(v, "generation_period", d.generation_period as f64)?
                    as u32,
                t1_service: opt_num(v, "t1_service", d.t1_service as f64)? as u32,
                t2_service: opt_num(v, "t2_service", d.t2_service as f64)? as u32,
                t3_service: opt_num(v, "t3_service", d.t3_service as f64)? as u32,
                data_flits: opt_num(v, "data_flits", d.data_flits as f64)? as u8,
                ack_flits: opt_num(v, "ack_flits", d.ack_flits as f64)? as u8,
            }))
        }
        "pipeline" => Ok(WorkloadSpec::Pipeline {
            stages: req_num(v, "stages")? as u8,
            generation_period: req_num(v, "generation_period")? as u32,
            service: req_num(v, "service")? as u32,
        }),
        "diamond" => Ok(WorkloadSpec::Diamond {
            generation_period: req_num(v, "generation_period")? as u32,
        }),
        other => Err(format!("unknown workload kind `{other}`")),
    }
}

fn detector_to_json(d: &DetectorConfig) -> Json {
    Json::obj(vec![
        ("tolerance_frac", Json::Num(d.tolerance_frac)),
        ("tolerance_abs", Json::Num(d.tolerance_abs)),
        ("hold_windows", Json::Num(d.hold_windows as f64)),
        ("steady_windows", Json::Num(d.steady_windows as f64)),
        ("smooth_windows", Json::Num(d.smooth_windows as f64)),
    ])
}

fn detector_from_json(v: &Json) -> Result<DetectorConfig, String> {
    let d = DetectorConfig::default();
    Ok(DetectorConfig {
        tolerance_frac: opt_num(v, "tolerance_frac", d.tolerance_frac)?,
        tolerance_abs: opt_num(v, "tolerance_abs", d.tolerance_abs)?,
        hold_windows: opt_num(v, "hold_windows", d.hold_windows as f64)? as usize,
        steady_windows: opt_num(v, "steady_windows", d.steady_windows as f64)? as usize,
        smooth_windows: opt_num(v, "smooth_windows", d.smooth_windows as f64)? as usize,
    })
}

fn event_to_json(e: &EventSpec) -> Json {
    let mut pairs = vec![("at_ms", Json::Num(e.at_ms))];
    match &e.action {
        EventAction::RandomPeFaults { count } => {
            pairs.push(("action", Json::Str("random-pe-faults".into())));
            pairs.push(("count", Json::Num(*count as f64)));
        }
        EventAction::RandomLinkFaults { count } => {
            pairs.push(("action", Json::Str("random-link-faults".into())));
            pairs.push(("count", Json::Num(*count as f64)));
        }
        EventAction::RandomHangs { count } => {
            pairs.push(("action", Json::Str("random-hangs".into())));
            pairs.push(("count", Json::Num(*count as f64)));
        }
        EventAction::ClockRegionFaults { first_row, rows } => {
            pairs.push(("action", Json::Str("clock-region-faults".into())));
            pairs.push(("first_row", Json::Num(*first_row as f64)));
            pairs.push(("rows", Json::Num(*rows as f64)));
        }
        EventAction::HotspotFaults { x, y, radius } => {
            pairs.push(("action", Json::Str("hotspot-faults".into())));
            pairs.push(("x", Json::Num(*x as f64)));
            pairs.push(("y", Json::Num(*y as f64)));
            pairs.push(("radius", Json::Num(*radius as f64)));
        }
        EventAction::ThermalFaults(t) => {
            pairs.push(("action", Json::Str("thermal-faults".into())));
            pairs.push(("overclock_mhz", Json::Num(t.overclock_mhz as f64)));
            pairs.push(("generation_period", Json::Num(t.generation_period as f64)));
            pairs.push(("runaway_ms", Json::Num(t.runaway_ms)));
            pairs.push((
                "overclock_rows",
                match t.overclock_rows {
                    Some((first, rows)) => {
                        Json::Arr(vec![Json::Num(first as f64), Json::Num(rows as f64)])
                    }
                    None => Json::Null,
                },
            ));
        }
        EventAction::SetFrequencyAll { mhz } => {
            pairs.push(("action", Json::Str("set-frequency-all".into())));
            pairs.push(("mhz", Json::Num(*mhz as f64)));
        }
        EventAction::SetFrequencyRows {
            first_row,
            rows,
            mhz,
        } => {
            pairs.push(("action", Json::Str("set-frequency-rows".into())));
            pairs.push(("first_row", Json::Num(*first_row as f64)));
            pairs.push(("rows", Json::Num(*rows as f64)));
            pairs.push(("mhz", Json::Num(*mhz as f64)));
        }
        EventAction::SetGenerationPeriod {
            task,
            period_cycles,
        } => {
            pairs.push(("action", Json::Str("set-generation-period".into())));
            pairs.push(("task", Json::Num(*task as f64)));
            pairs.push(("period_cycles", Json::Num(*period_cycles as f64)));
        }
    }
    Json::obj(pairs)
}

fn event_from_json(v: &Json) -> Result<EventSpec, String> {
    let at_ms = req_num(v, "at_ms")?;
    let action = match req_str(v, "action")? {
        "random-pe-faults" => EventAction::RandomPeFaults {
            count: req_num(v, "count")? as usize,
        },
        "random-link-faults" => EventAction::RandomLinkFaults {
            count: req_num(v, "count")? as usize,
        },
        "random-hangs" => EventAction::RandomHangs {
            count: req_num(v, "count")? as usize,
        },
        "clock-region-faults" => EventAction::ClockRegionFaults {
            first_row: req_num(v, "first_row")? as u16,
            rows: req_num(v, "rows")? as u16,
        },
        "hotspot-faults" => EventAction::HotspotFaults {
            x: req_num(v, "x")? as u16,
            y: req_num(v, "y")? as u16,
            radius: req_num(v, "radius")? as u32,
        },
        "thermal-faults" => {
            let d = ThermalEventSpec::default();
            EventAction::ThermalFaults(ThermalEventSpec {
                overclock_mhz: opt_num(v, "overclock_mhz", d.overclock_mhz as f64)? as u16,
                generation_period: opt_num(v, "generation_period", d.generation_period as f64)?
                    as u32,
                runaway_ms: opt_num(v, "runaway_ms", d.runaway_ms)?,
                overclock_rows: match v.get("overclock_rows") {
                    None | Some(Json::Null) => None,
                    Some(Json::Arr(pair)) if pair.len() == 2 => Some((
                        num_as(pair[0].as_num(), "overclock_rows first")?,
                        num_as(pair[1].as_num(), "overclock_rows rows")?,
                    )),
                    Some(_) => return Err("`overclock_rows` must be [first, rows]".to_string()),
                },
            })
        }
        "set-frequency-all" => EventAction::SetFrequencyAll {
            mhz: req_num(v, "mhz")? as u16,
        },
        "set-frequency-rows" => EventAction::SetFrequencyRows {
            first_row: req_num(v, "first_row")? as u16,
            rows: req_num(v, "rows")? as u16,
            mhz: req_num(v, "mhz")? as u16,
        },
        "set-generation-period" => EventAction::SetGenerationPeriod {
            task: req_num(v, "task")? as u8,
            period_cycles: req_num(v, "period_cycles")? as u32,
        },
        other => return Err(format!("unknown event action `{other}`")),
    };
    Ok(EventSpec { at_ms, action })
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn req_num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing numeric field `{key}`"))
}

fn opt_num(v: &Json, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(j) => j
            .as_num()
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

/// Parses `[width, height]` grid dimensions, both non-zero.
pub(crate) fn grid_from_json(v: &Json) -> Result<GridDims, String> {
    let pair = v.as_arr().filter(|p| p.len() == 2);
    let pair = pair.ok_or("`grid` must be [width, height]")?;
    let width = num_as(pair[0].as_num(), "grid width")?;
    let height = num_as(pair[1].as_num(), "grid height")?;
    if width == 0 || height == 0 {
        return Err(format!("grid {width}x{height} has a zero dimension"));
    }
    Ok(GridDims::new(width, height))
}

fn num_as(n: Option<f64>, what: &str) -> Result<u16, String> {
    let n = n.ok_or_else(|| format!("{what} must be a number"))?;
    if n < 0.0 || n > u16::MAX as f64 || n.fract() != 0.0 {
        return Err(format!("{what} out of range: {n}"));
    }
    Ok(n as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            "fault-storm",
            ModelKind::ForagingForWork(FfwConfig::default()),
        );
        spec.settle_region_ms = Some(500.0);
        spec.events = vec![
            EventSpec {
                at_ms: 500.0,
                action: EventAction::RandomPeFaults { count: 42 },
            },
            EventSpec {
                at_ms: 700.0,
                action: EventAction::SetFrequencyRows {
                    first_row: 0,
                    rows: 4,
                    mhz: 50,
                },
            },
        ];
        spec
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = storm();
        let text = spec.to_json_pretty();
        let back = ScenarioSpec::from_json_text(&text).expect("parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn every_event_action_round_trips() {
        let actions = vec![
            EventAction::RandomPeFaults { count: 5 },
            EventAction::RandomLinkFaults { count: 3 },
            EventAction::RandomHangs { count: 2 },
            EventAction::ClockRegionFaults {
                first_row: 4,
                rows: 2,
            },
            EventAction::HotspotFaults {
                x: 3,
                y: 7,
                radius: 2,
            },
            EventAction::ThermalFaults(ThermalEventSpec {
                overclock_rows: Some((2, 3)),
                ..ThermalEventSpec::default()
            }),
            EventAction::SetFrequencyAll { mhz: 300 },
            EventAction::SetFrequencyRows {
                first_row: 1,
                rows: 2,
                mhz: 40,
            },
            EventAction::SetGenerationPeriod {
                task: 0,
                period_cycles: 200,
            },
        ];
        let mut spec = ScenarioSpec::new("all-events", ModelKind::NoIntelligence);
        spec.events = actions
            .into_iter()
            .enumerate()
            .map(|(i, action)| EventSpec {
                at_ms: 100.0 + i as f64,
                action,
            })
            .collect();
        let back = ScenarioSpec::from_json_text(&spec.to_json_pretty()).expect("parses");
        assert_eq!(back.events, spec.events);
    }

    #[test]
    fn all_workloads_and_models_round_trip() {
        for workload in [
            WorkloadSpec::ForkJoin(ForkJoinParams {
                branches: 5,
                ..ForkJoinParams::default()
            }),
            WorkloadSpec::Pipeline {
                stages: 4,
                generation_period: 300,
                service: 80,
            },
            WorkloadSpec::Diamond {
                generation_period: 250,
            },
        ] {
            for model in ["none", "ni", "ffw", "ni-fw", "ffw-fw"] {
                let mut spec =
                    ScenarioSpec::new("wl", model_from_name(model).expect("known model"));
                spec.workload = workload.clone();
                spec.mapping = MappingSpec::Heuristic;
                let back = ScenarioSpec::from_json_text(&spec.to_json_pretty()).expect("parses");
                assert_eq!(back, spec);
            }
        }
    }

    #[test]
    fn minimal_json_gets_paper_defaults() {
        let spec = ScenarioSpec::from_json_text(
            r#"{"name": "mini", "grid": [4, 4], "model": "ffw", "duration_ms": 200}"#,
        )
        .expect("parses");
        assert_eq!(spec.window_ms, 2.0);
        assert_eq!(spec.grid(), GridDims::new(4, 4));
        assert_eq!(
            spec.workload,
            WorkloadSpec::ForkJoin(ForkJoinParams::default())
        );
        assert!(spec.events.is_empty());
        assert_eq!(spec.total_windows(), 100);
        spec.validate();
    }

    #[test]
    fn bad_specs_are_rejected_with_field_errors() {
        for (text, needle) in [
            (
                r#"{"grid": [4,4], "model": "ffw", "duration_ms": 1}"#,
                "name",
            ),
            (r#"{"name": "x", "model": "ffw", "duration_ms": 1}"#, "grid"),
            (
                r#"{"name": "z", "grid": [0, 4], "model": "ffw", "duration_ms": 10}"#,
                "zero dimension",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "alien", "duration_ms": 1}"#,
                "unknown model",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw"}"#,
                "duration_ms",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 1,
                    "events": [{"at_ms": 1, "action": "warp-core-breach"}]}"#,
                "unknown event action",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "cycles_per_ms": 0}"#,
                "cycles_per_ms",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "cycles_per_ms": -5}"#,
                "cycles_per_ms",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "cycles_per_ms": 0.4}"#,
                "cycles_per_ms",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "window_ms": 0}"#,
                "window",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "window_ms": -1}"#,
                "window",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 0}"#,
                "duration",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": -10}"#,
                "duration",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "events": [{"at_ms": -5, "action": "random-pe-faults", "count": 1}]}"#,
                "outside the 10 ms run",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "workload": {"kind": "fork-join", "generation_period": 0}}"#,
                "generation_period",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "workload": {"kind": "fork-join", "branches": 0}}"#,
                "branches",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "workload": {"kind": "pipeline", "stages": 0,
                                 "generation_period": 400, "service": 50}}"#,
                "stages",
            ),
            (
                r#"{"name": "x", "grid": [8,8], "model": "ni-fw", "duration_ms": 10,
                    "workload": {"kind": "pipeline", "stages": 17,
                                 "generation_period": 400, "service": 50}}"#,
                "at most 16 tasks",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "events": [{"at_ms": 5, "action": "hotspot-faults",
                                "x": 99, "y": 99, "radius": 1}]}"#,
                "hotspot centre (99, 99) outside the 4x4 grid",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "events": [{"at_ms": 5, "action": "clock-region-faults",
                                "first_row": 9, "rows": 1}]}"#,
                "clock region rows 9..10 outside the 4x4 grid",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "events": [{"at_ms": 5, "action": "set-frequency-rows",
                                "first_row": 2, "rows": 3, "mhz": 50}]}"#,
                "frequency region rows 2..5 outside the 4x4 grid",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "events": [{"at_ms": 5, "action": "thermal-faults",
                                "generation_period": 0}]}"#,
                "thermal `generation_period`",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "events": [{"at_ms": 5, "action": "set-generation-period",
                                "task": 1, "period_cycles": 200}]}"#,
                "task 1 is not a source",
            ),
            (
                r#"{"name": "x", "grid": [4,4], "model": "ffw", "duration_ms": 10,
                    "detector": {"steady_windows": 0}}"#,
                "steady_windows",
            ),
        ] {
            let err = ScenarioSpec::from_json_text(text).expect_err("must fail");
            assert!(err.contains(needle), "`{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn firmware_models_take_at_most_sixteen_tasks() {
        let pipeline = |model: &str, stages: u8| {
            let mut spec = ScenarioSpec::new("p", model_from_name(model).expect("known model"));
            spec.workload = WorkloadSpec::Pipeline {
                stages,
                generation_period: 400,
                service: 50,
            };
            spec.check()
        };
        for model in ["ni-fw", "ffw-fw"] {
            assert_eq!(pipeline(model, 16), Ok(()), "{model}");
            let err = pipeline(model, 17).expect_err("17 tasks exceed the port map");
            assert!(err.contains("at most 16 tasks"), "{err}");
        }
        assert_eq!(
            pipeline("ni", 17),
            Ok(()),
            "behavioural models have no limit"
        );
    }

    #[test]
    fn check_grid_rejects_grids_too_small_for_a_heuristic_graph() {
        let tiny = r#"{"name": "z", "grid": [1, 1], "model": "none", "duration_ms": 10}"#;
        let mut spec = ScenarioSpec::from_json_text(tiny).expect("parses");
        let err = spec
            .check_grid()
            .expect_err("the baseline maps heuristically");
        assert!(err.starts_with("workload:"), "{err}");
        // A random placement fits any grid...
        spec.mapping = MappingSpec::Random;
        assert_eq!(spec.check_grid(), Ok(()));
        // ...but a thermal event's pre-run still maps heuristically.
        spec.events.push(EventSpec {
            at_ms: 5.0,
            action: EventAction::ThermalFaults(ThermalEventSpec::default()),
        });
        let err = spec.check_grid().expect_err("the pre-run needs 5 nodes");
        assert!(err.starts_with("thermal pre-run:"), "{err}");
        spec.platform.dims = GridDims::new(1, 5);
        assert_eq!(spec.check_grid(), Ok(()));
    }

    #[test]
    fn sink_is_the_last_task_of_every_workload() {
        let mut spec = ScenarioSpec::new("s", ModelKind::NoIntelligence);
        assert_eq!(spec.sink(), TaskId::new(2));
        spec.workload = WorkloadSpec::Pipeline {
            stages: 5,
            generation_period: 400,
            service: 50,
        };
        assert_eq!(spec.sink(), TaskId::new(4));
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn validate_rejects_events_after_the_run() {
        let mut spec = ScenarioSpec::new("s", ModelKind::NoIntelligence);
        spec.duration_ms = 100.0;
        spec.events = vec![EventSpec {
            at_ms: 500.0,
            action: EventAction::RandomPeFaults { count: 1 },
        }];
        spec.validate();
    }
}
