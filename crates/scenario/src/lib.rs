//! The scenario engine: declarative experiment specs, typed event
//! timelines and the parallel deterministic sweep orchestrator.
//!
//! The paper's evaluation is a handful of hand-coded tables; this crate
//! turns "an experiment" into data. A [`ScenarioSpec`] composes a
//! workload, a grid, an intelligence model, a duration and a timeline
//! of typed perturbation events (fault waves, thermal runaways, DVFS
//! moves, workload-phase shifts); a [`SweepSpec`] crosses axes of specs
//! into a run matrix with per-run deterministic seed derivation; and
//! [`run_sweep`] executes the matrix on a self-scheduling thread pool
//! with **bit-identical results regardless of thread count and run
//! order**, streaming constant-size summaries into online aggregates
//! and JSON/CSV artefacts.
//!
//! | Layer | Module |
//! |---|---|
//! | Declarative specs + JSON ser/de | [`spec`], [`json`] |
//! | Event compilation & application | [`timeline`] |
//! | One run: build → run → measure | [`run`] |
//! | Matrix expansion & orchestration | [`sweep`] |
//! | Sharding, checkpoint/resume, merge | [`shard`] |
//! | Multi-host shard dispatch (transports, work stealing) | [`mod@dispatch`] |
//! | Chaos harness (fault injection, retry policy) | [`chaos`] |
//! | Adversarial search (mutate, evaluate, shrink, pin) | [`fuzz`] |
//! | Host-plane sweep observation (sidecar + tracing) | [`observe`] |
//! | Named preset library | [`presets`] |
//! | Windowed recording | [`recorder`] |
//! | Per-PE work records, division-of-labour metrics | [`agent`], [`metrics`] |
//! | Settling/recovery detection | [`detect`] |
//! | Aggregation (quartiles, online) | [`stats`] |
//!
//! The determinism model, the spec JSON reference, the sharding
//! protocol and the dispatch layer are documented in the docs book at
//! the repo root (`docs/README.md` orders it): `docs/determinism.md`,
//! `docs/scenario-format.md`, `docs/sharding.md`, `docs/dispatch.md`.
//!
//! # Examples
//!
//! Run a sweep in-process:
//!
//! ```
//! use sirtm_scenario::{presets, run_sweep, SweepOptions, SweepSpec, SeedScheme};
//!
//! let sweep = SweepSpec {
//!     name: "smoke".into(),
//!     base: presets::preset("light-4x4").expect("known preset"),
//!     axes: vec![],
//!     replicates: 2,
//!     seeds: SeedScheme::Derived { root: 1 },
//! };
//! let result = run_sweep(&sweep, SweepOptions { threads: 2 });
//! assert_eq!(result.cells.len(), 1);
//! assert_eq!(result.cells[0].runs.len(), 2);
//! ```
//!
//! The same sweep, sharded: spec → sweep → per-shard run → merge, with
//! the merged artefact byte-identical to the single-process one:
//!
//! ```
//! use sirtm_scenario::{
//!     merge_shards, presets, run_shard, run_sweep, SeedScheme, ShardPlan, SweepOptions,
//!     SweepSpec,
//! };
//!
//! let sweep = SweepSpec {
//!     name: "smoke".into(),
//!     base: presets::preset("light-4x4").expect("known preset"),
//!     axes: vec![],
//!     replicates: 2,
//!     seeds: SeedScheme::Derived { root: 1 },
//! };
//! // A sweep descriptor is data: any host can reconstruct it from JSON
//! // and derive its own slice of the run list.
//! let wire = sweep.to_json().render_pretty();
//! let rebuilt = SweepSpec::from_json_text(&wire).expect("descriptor round-trips");
//! let opts = SweepOptions { threads: 1 };
//! let shards: Vec<_> = ShardPlan::all(2, rebuilt.run_count())
//!     .into_iter()
//!     .map(|plan| {
//!         run_shard(&rebuilt, plan, None, opts, None)
//!             .expect("shard runs")
//!             .result
//!             .expect("uninterrupted shard completes")
//!     })
//!     .collect();
//! let merged = merge_shards(&shards).expect("complete shard set");
//! let whole = run_sweep(&sweep, opts);
//! assert_eq!(
//!     merged.to_json().render_pretty(),
//!     whole.to_json().render_pretty(),
//! );
//! ```
//!
//! And the same walk with the shards *dispatched* — spec → sweep →
//! dispatch across two local workers → merge. The [`dispatch::Mock`]
//! transport runs shards in-process through the real checkpoint
//! journal; swap in [`dispatch::LocalProcess`] workers (or [`dispatch::Ssh`]
//! against a host manifest) and nothing else changes:
//!
//! ```
//! use std::time::Duration;
//! use sirtm_scenario::dispatch::{dispatch, DispatchOptions, Mock, ShardTransport};
//! use sirtm_scenario::{presets, run_sweep, SeedScheme, SweepOptions, SweepSpec};
//!
//! let sweep = SweepSpec {
//!     name: "smoke".into(),
//!     base: presets::preset("light-4x4").expect("known preset"),
//!     axes: vec![],
//!     replicates: 2,
//!     seeds: SeedScheme::Derived { root: 1 },
//! };
//! let dir = std::env::temp_dir().join(format!("sirtm_doctest_dispatch_{}", std::process::id()));
//! let mut workers: Vec<Box<dyn ShardTransport>> = vec![
//!     Box::new(Mock::new("w0", &dir.join("w0"))),
//!     Box::new(Mock::new("w1", &dir.join("w1"))),
//! ];
//! let opts = DispatchOptions {
//!     poll_interval: Duration::ZERO,
//!     ..DispatchOptions::default()
//! };
//! // Two shards, stolen by whichever worker is idle, merged with the
//! // fingerprint-verified merge — byte-identical to the in-process sweep.
//! let outcome = dispatch(&sweep, 2, &mut workers, &opts).expect("dispatch completes");
//! let whole = run_sweep(&sweep, SweepOptions { threads: 1 });
//! assert_eq!(
//!     outcome.result.to_json().render_pretty(),
//!     whole.to_json().render_pretty(),
//! );
//! assert_eq!(outcome.report.reassignments(), 0);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod agent;
pub mod chaos;
pub mod detect;
pub mod dispatch;
pub mod fuzz;
pub mod json;
pub mod metrics;
pub mod observe;
pub mod presets;
pub mod recorder;
pub mod run;
pub mod shard;
pub mod spec;
pub mod stats;
pub mod sweep;
pub mod timeline;

pub use chaos::{
    ChaosConfig, ChaosLedger, ChaosTransport, Fault, FaultyFs, HandoffFault, RetryPolicy,
};
pub use dispatch::{
    dispatch, parse_host_manifest, DispatchOptions, DispatchOutcome, DispatchReport, LocalProcess,
    Mock, MockBehaviour, PollStatus, ShardJob, ShardTransport, Ssh, SshHost,
};
pub use fuzz::{
    clamp_spec, evaluate_spec, parse_corpus, render_corpus, replay_entry, run_campaign,
    CampaignResult, FitnessBreakdown, FrontierEntry, FuzzConfig, FuzzObserver, NullFuzzObserver,
    Operator, ReplayReport,
};
pub use observe::{FuzzTelemetry, SweepTelemetry};
pub use run::{build_platform, run_group, run_spec, RunOutcome, RunSummary};
pub use shard::{
    journal_progress, merge_named_shards, merge_shards, run_shard, run_shard_observed,
    JournalProgress, ShardPlan, ShardResult, ShardRunReport,
};
pub use spec::{EventAction, EventSpec, MappingSpec, ScenarioSpec, ThermalEventSpec, WorkloadSpec};
pub use stats::{OnlineStats, Quartiles};
pub use sweep::{
    check_artifact, parallel_map, run_sweep, run_sweep_observed, Axis, CellResult, NullObserver,
    RunPlan, SeedScheme, SweepObserver, SweepOptions, SweepResult, SweepSpec,
};
pub use timeline::Timeline;

/// The telemetry crate, re-exported so downstream consumers (the
/// `scenarios` binary, tests) name one dependency.
pub use sirtm_telemetry as telemetry;
