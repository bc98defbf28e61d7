//! The die's thermal constants and the one thing a run may vary: its
//! grid.
//!
//! Every tile is one thermal cell with heat capacity
//! [`CELL_CAPACITY_J_PER_K`], a lateral conductance
//! [`LATERAL_CONDUCTANCE_W_PER_K`] to each of its four grid neighbours,
//! and a vertical conductance [`VERTICAL_CONDUCTANCE_W_PER_K`] into an
//! infinite heatsink at [`AMBIENT_C`]. The values are calibrated so a
//! fully loaded tile at the 100 MHz nominal clock settles ≈ 20 K above
//! ambient, while an unthrottled 300 MHz tile (≈ 5× the dynamic power
//! after the voltage scaling of [`PowerModel`]) blows through
//! [`TRIP_TEMP_C`] — the regime the paper's "thermal issue" fault
//! scenario lives in.
//!
//! [`PowerModel`]: crate::power::PowerModel

use sirtm_taskgraph::GridDims;

/// Heat capacity of one tile cell, in J/K.
pub const CELL_CAPACITY_J_PER_K: f64 = 1.5e-3;
/// Conductance to each lateral neighbour, in W/K.
pub const LATERAL_CONDUCTANCE_W_PER_K: f64 = 0.010;
/// Conductance into the heatsink/ambient, in W/K.
pub const VERTICAL_CONDUCTANCE_W_PER_K: f64 = 0.0075;
/// Heatsink/ambient temperature, in °C.
pub const AMBIENT_C: f64 = 45.0;
/// Integration step of the explicit-Euler solver, in seconds. The
/// solver sub-steps longer intervals; see [`ThermalGrid::step`].
///
/// [`ThermalGrid::step`]: crate::grid::ThermalGrid::step
pub const DT_S: f64 = 1.0e-3;
/// Warning temperature (°C): governors begin throttling here.
pub const WARN_TEMP_C: f64 = 85.0;
/// Critical trip temperature (°C): sustained operation above this
/// kills the node (the thermal fault model).
pub const TRIP_TEMP_C: f64 = 110.0;

/// The thermal time constant `C / g_vertical` of an isolated cell, in
/// seconds — how fast a tile relaxes towards its own steady state.
pub const TIME_CONSTANT_S: f64 = CELL_CAPACITY_J_PER_K / VERTICAL_CONDUCTANCE_W_PER_K;

/// The largest explicit-Euler step that keeps the solver stable:
/// `C / (g_vertical + 4·g_lateral)`.
const STABLE_DT_S: f64 =
    CELL_CAPACITY_J_PER_K / (VERTICAL_CONDUCTANCE_W_PER_K + 4.0 * LATERAL_CONDUCTANCE_W_PER_K);

const _: () = assert!(
    DT_S <= STABLE_DT_S,
    "DT_S exceeds the explicit-Euler stability bound"
);
const _: () = assert!(
    WARN_TEMP_C < TRIP_TEMP_C,
    "warn temperature must be below trip temperature"
);

/// The die layout of a thermal network. Everything else about the die
/// is a constant of this module.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Die layout (must match the platform grid when coupled).
    pub dims: GridDims,
}

impl Default for ThermalConfig {
    /// The paper's 8×16 die.
    fn default() -> Self {
        Self {
            dims: GridDims::new(8, 16),
        }
    }
}

impl ThermalConfig {
    /// The largest explicit-Euler step that keeps the solver stable:
    /// `C / (g_vertical + 4·g_lateral)`, in seconds.
    pub fn stable_dt_s(&self) -> f64 {
        STABLE_DT_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(ThermalConfig::default().dims.len(), 128);
    }

    #[test]
    fn default_time_constant_is_hundreds_of_ms() {
        assert!(
            (0.05..=1.0).contains(&TIME_CONSTANT_S),
            "tau {TIME_CONSTANT_S} s should make 1000 ms experiments reach steady state"
        );
    }

    #[test]
    fn stable_dt_larger_than_default_dt() {
        assert!(DT_S < ThermalConfig::default().stable_dt_s());
    }
}
