//! # SIRTM — Social Insect-Inspired Runtime Management
//!
//! Umbrella crate re-exporting the whole SIRTM stack, a from-scratch Rust
//! reproduction of *"Embedded Social Insect-Inspired Intelligence Networks
//! for System-level Runtime Management"* (Rowlings, Tyrrell & Trefzer,
//! DATE 2020).
//!
//! The stack, bottom-up:
//!
//! * [`rng`] — deterministic PRNG ([`sirtm_rng`]),
//! * [`taskgraph`] — workloads and static mappings ([`sirtm_taskgraph`]),
//! * [`picoblaze`] — the 8-bit AIM soft core ([`sirtm_picoblaze`]),
//! * [`noc`] — the wormhole network-on-chip ([`sirtm_noc`]),
//! * [`core`] — the stimulus–threshold intelligence models ([`sirtm_core`]),
//! * [`centurion`] — the 128-node platform model ([`sirtm_centurion`]),
//! * [`faults`] — fault injection ([`sirtm_faults`]),
//! * [`thermal`] — the thermal substrate: RC die model, ring-oscillator
//!   sensors, stimulus–threshold DVFS governors ([`sirtm_thermal`]),
//! * [`scenario`] — declarative scenario specs and the parallel
//!   deterministic sweep orchestrator ([`sirtm_scenario`]),
//! * [`experiments`] — the paper's tables and figures ([`sirtm_experiments`]).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use sirtm_centurion as centurion;
pub use sirtm_core as core;
pub use sirtm_experiments as experiments;
pub use sirtm_faults as faults;
pub use sirtm_noc as noc;
pub use sirtm_picoblaze as picoblaze;
pub use sirtm_rng as rng;
pub use sirtm_scenario as scenario;
pub use sirtm_taskgraph as taskgraph;
pub use sirtm_thermal as thermal;
