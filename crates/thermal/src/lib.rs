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
//!   [`ThermalConfig`] carries the die layout; every physical value is a
//!   constant of [`config`] (`CELL_CAPACITY_J_PER_K`, `AMBIENT_C`,
//!   `WARN_TEMP_C`, `TRIP_TEMP_C`, …), as is every parameter of the
//!   power, sensor and governor models in their own modules.
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
//!   thermal steps interleave. [`ThermalLoop::open`] runs the physics
//!   alone; in [`ThermalLoop::governed`] sensor readings drive the
//!   governors, whose knob writes (DVFS, shutdown) feed straight back
//!   into the platform.
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
//! use sirtm_thermal::{ThermalConfig, ThermalLoop, TRIP_TEMP_C};
//!
//! let cfg = PlatformConfig::default();
//! let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
//! let model = ModelKind::ForagingForWork(FfwConfig::default());
//! let platform = Platform::new(graph, &mapping, &model, cfg);
//!
//! let mut sim = ThermalLoop::governed(
//!     platform,
//!     ThermalConfig::default(),
//!     42, // sensor process-variation seed
//! );
//! sim.run_ms(100.0);
//! assert!(sim.grid().max_temp() < TRIP_TEMP_C);
//! ```

pub mod config;
pub mod coupling;
pub mod governor;
pub mod grid;
pub mod power;
pub mod scenario;
pub mod sensor;

pub use config::{
    ThermalConfig, AMBIENT_C, CELL_CAPACITY_J_PER_K, DT_S, LATERAL_CONDUCTANCE_W_PER_K,
    TIME_CONSTANT_S, TRIP_TEMP_C, VERTICAL_CONDUCTANCE_W_PER_K, WARN_TEMP_C,
};
pub use coupling::{ThermalLoop, ThermalSample, ThermalTrace};
pub use governor::{
    ThermalAction, ThresholdGovernor, COOL_FIRE, FREQ_LADDER_MHZ, HOT_FIRE, RECOVER_MARGIN_K,
    TRIP_PERSISTENCE,
};
pub use grid::ThermalGrid;
pub use power::{
    PowerModel, LEAK_DOUBLING_K, LEAK_REF_C, P_DYN_NOMINAL_W, P_LEAK_REF_W, P_UNCORE_W,
    VOLT_RANGE_V,
};
pub use scenario::{stress_graph, thermal_fault_scenario, ThermalScenario, ThermalScenarioReport};
pub use sensor::{
    RingOscillator, SensorBank, CALIBRATION_C, NOMINAL_COUNT, PROCESS_VARIATION, TEMP_COEFF_PER_K,
};
