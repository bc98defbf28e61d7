//! Thermal substrate for the SIRTM many-core platform.
//!
//! The paper's AIM senses "local temperature sensing" and "signals from
//! the FPGA fabric (ring oscillators)" among its monitors, actuates
//! "node-level frequency scaling (10 MHz – 300 MHz)" among its knobs, and
//! motivates its 42-fault scenario as "a failure of a global clock
//! buffer, other critical global circuitry, or a thermal issue". The
//! original hardware gets all of this for free from physics; this crate
//! is the simulated replacement:
//!
//! * [`ThermalGrid`] — a lumped RC thermal network over the 8×16 die:
//!   every tile has a heat capacity, conducts laterally to its four
//!   neighbours and vertically into the heatsink/ambient.
//! * [`PowerModel`] — per-node power from DVFS state and measured
//!   activity: dynamic power `∝ f·V(f)²·duty` plus
//!   temperature-dependent leakage (the classic positive feedback that
//!   makes thermal runaway possible).
//! * [`RingOscillator`] / [`SensorBank`] — the paper's fabric monitor: an
//!   oscillator whose count over a measurement window falls with
//!   temperature, subject to per-node process variation, plus two-point
//!   calibration to recover °C.
//! * [`ThresholdGovernor`] — a thermal controller assembled from the same
//!   stimulus–threshold primitives as the paper's task-allocation models
//!   ([`sirtm_core::stimulus`]): hot impulses excite a "step the clock
//!   down" thresholder, cool scans excite a "step it back up" one, and a
//!   persistence counter trips a node that sits above the critical
//!   temperature.
//! * [`ThermalLoop`] — the co-simulation harness: platform slices and
//!   thermal steps interleave; sensor readings drive the governor, whose
//!   knob writes (DVFS, shutdown) feed straight back into the platform.
//! * [`scenario`] — physics-driven fault generation: running a colony
//!   hot with no governor produces the spatially correlated dead set the
//!   paper attributes to "a thermal issue", packaged as a
//!   [`sirtm_faults::FaultSchedule`] for the recovery experiments.
//!
//! # Examples
//!
//! Closed-loop thermal management of a 128-node colony:
//!
//! ```
//! use sirtm_centurion::{Platform, PlatformConfig};
//! use sirtm_core::models::{FfwConfig, ModelKind};
//! use sirtm_rng::Xoshiro256StarStar;
//! use sirtm_taskgraph::{workloads, Mapping};
//! use sirtm_thermal::{GovernorConfig, ThermalConfig, ThermalLoop};
//!
//! let cfg = PlatformConfig::default();
//! let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
//! let model = ModelKind::ForagingForWork(FfwConfig::default());
//! let platform = Platform::new(graph, &mapping, &model, cfg);
//!
//! let mut sim = ThermalLoop::new(
//!     platform,
//!     ThermalConfig::default(),
//!     GovernorConfig::default(),
//!     42, // sensor process-variation seed
//! );
//! sim.run_ms(100.0);
//! assert!(sim.grid().max_temp() < sim.thermal_config().trip_temp_c);
//! ```

pub mod config;
pub mod coupling;
pub mod governor;
pub mod grid;
pub mod power;
pub mod scenario;
pub mod sensor;

pub use config::ThermalConfig;
pub use coupling::{ThermalLoop, ThermalSample, ThermalTrace};
pub use governor::{GovernorConfig, NoGovernor, ThermalAction, ThermalGovernor, ThresholdGovernor};
pub use grid::ThermalGrid;
pub use power::{PowerModel, PowerModelConfig};
pub use scenario::{stress_graph, thermal_fault_scenario, ThermalScenario, ThermalScenarioReport};
pub use sensor::{RingOscillator, SensorBank, SensorConfig};
