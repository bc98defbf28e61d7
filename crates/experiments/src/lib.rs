//! The SIRTM reproduction harness: regenerates every table and figure of
//! the DATE 2020 paper's evaluation.
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table I (settling, no faults) | [`table1`] | `repro -- table1` |
//! | Table II (recovery vs faults) | [`table2`] | `repro -- table2` |
//! | Fig. 4 (time series, 5 & 42 faults) | [`fig4`] | `repro -- fig4` |
//!
//! Every table is a thin view over the scenario engine
//! ([`sirtm_scenario`]): each takes a base
//! [`sirtm_scenario::ScenarioSpec`] that carries the paper's protocol,
//! the tables are [`sirtm_scenario::SweepSpec`]s, and execution goes
//! through the parallel deterministic sweep orchestrator.
//! [`render`] draws ASCII tables, sparklines and CSV.
//!
//! # Examples
//!
//! One run of the paper's protocol is one spec, executed by
//! [`sirtm_scenario::run_spec`]:
//!
//! ```
//! use sirtm_core::models::ModelKind;
//! use sirtm_scenario::{run_spec, EventAction, EventSpec, ScenarioSpec};
//!
//! let mut spec = ScenarioSpec::new("quick", ModelKind::NoIntelligence);
//! spec.duration_ms = 60.0;
//! spec.window_ms = 10.0;
//! spec.settle_region_ms = Some(30.0);
//! spec.events = vec![EventSpec {
//!     at_ms: 30.0,
//!     action: EventAction::RandomPeFaults { count: 2 },
//! }];
//! let outcome = run_spec(&spec, 7);
//! assert_eq!(outcome.trace.samples.len(), 6);
//! assert!(outcome.recovery_ms.is_some());
//! ```
//!
//! Tables are sweeps, and any sweep — tables included — shards and
//! merges byte-identically to a single-process run (see
//! `docs/sharding.md`):
//!
//! ```
//! use sirtm_scenario::{merge_shards, presets, run_shard, run_sweep, ShardPlan, SweepOptions};
//!
//! // Table I's sweep shape (3 paper models, fault-free, paired seeds)
//! // over a quick 4x4 base; the real table uses the paper's 8x16 grid
//! // and 100 replicates.
//! let mut base = presets::preset("light-4x4").expect("known preset");
//! base.events.clear(); // Table I is fault-free
//! let sweep = presets::table1_sweep(base, 2);
//! assert_eq!(sweep.cell_count(), 3);
//! let opts = SweepOptions { threads: 2 };
//! let shards: Vec<_> = ShardPlan::all(2, sweep.run_count())
//!     .into_iter()
//!     .map(|plan| {
//!         run_shard(&sweep, plan, None, opts, None)
//!             .expect("shard runs")
//!             .result
//!             .expect("uninterrupted shard completes")
//!     })
//!     .collect();
//! let table = merge_shards(&shards).expect("complete shard set");
//! assert_eq!(
//!     table.to_json().render_pretty(),
//!     run_sweep(&sweep, opts).to_json().render_pretty(),
//! );
//! ```

use sirtm_scenario::ScenarioSpec;

pub mod fig4;
pub mod render;
pub mod table1;
pub mod table2;
pub mod thermal_ext;

/// The fault-injection instant of the paper's protocol over `base`: the
/// end of its settle region (the paper injects at 500 ms and measures
/// settling strictly before), or the end of the run when it has none.
pub(crate) fn fault_at_ms(base: &ScenarioSpec) -> f64 {
    base.settle_region_ms.unwrap_or(base.duration_ms)
}
