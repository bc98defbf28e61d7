//! Property-based tests of the thermal substrate's physical and control
//! invariants.

use proptest::prelude::*;

use sirtm_noc::NodeId;
use sirtm_taskgraph::GridDims;
use sirtm_thermal::{
    PowerModel, RingOscillator, SensorBank, ThermalAction, ThermalConfig, ThermalGrid,
    ThresholdGovernor, AMBIENT_C, CELL_CAPACITY_J_PER_K, DT_S, FREQ_LADDER_MHZ,
    LATERAL_CONDUCTANCE_W_PER_K, VERTICAL_CONDUCTANCE_W_PER_K,
};

fn small_cfg() -> ThermalConfig {
    ThermalConfig {
        dims: GridDims::new(4, 4),
    }
}

proptest! {
    /// Temperatures stay finite and bounded by the maximum-principle
    /// envelope: starting from ambient, no cell can exceed the hottest
    /// possible steady state `ambient + P_max / g_vertical`.
    #[test]
    fn grid_respects_maximum_principle(
        powers in proptest::collection::vec(0.0f64..1.0, 16),
        seconds in 0.01f64..3.0,
    ) {
        let mut grid = ThermalGrid::new(small_cfg());
        grid.step(seconds, &powers);
        let p_max = powers.iter().copied().fold(0.0, f64::max);
        let ceiling = AMBIENT_C + p_max / VERTICAL_CONDUCTANCE_W_PER_K + 1e-6;
        for &t in grid.temps() {
            prop_assert!(t.is_finite());
            prop_assert!(t >= AMBIENT_C - 1e-9, "cannot cool below ambient");
            prop_assert!(t <= ceiling, "cell at {t} exceeds envelope {ceiling}");
        }
    }

    /// Splitting a duration into arbitrary sub-steps cannot change the
    /// result (the solver already sub-steps internally at dt).
    #[test]
    fn grid_step_composition_invariant(
        powers in proptest::collection::vec(0.0f64..0.5, 16),
        split_ms in 1u32..100,
    ) {
        let mut whole = ThermalGrid::new(small_cfg());
        let mut split = ThermalGrid::new(small_cfg());
        let total_s = 0.2;
        whole.step(total_s, &powers);
        let first = split_ms as f64 * 1e-3;
        // dt is 1 ms, so millisecond-aligned splits are exact.
        let first = first.min(total_s);
        split.step(first, &powers);
        split.step(total_s - first, &powers);
        for (a, b) in whole.temps().iter().zip(split.temps()) {
            prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// The steady-state solver's field is a fixed point of the network
    /// equations: re-evaluating one explicit-Euler step by hand moves no
    /// cell by more than the solver's convergence tolerance.
    #[test]
    fn steady_state_is_transient_fixed_point(
        powers in proptest::collection::vec(0.0f64..0.6, 16),
    ) {
        let cfg = small_cfg();
        let grid = ThermalGrid::new(cfg.clone());
        let field = grid.steady_state(&powers);
        let g_v = VERTICAL_CONDUCTANCE_W_PER_K;
        let g_l = LATERAL_CONDUCTANCE_W_PER_K;
        let dims = cfg.dims;
        for i in 0..field.len() {
            let (x, y) = dims.xy(i);
            let mut flux = powers[i] - g_v * (field[i] - AMBIENT_C);
            let mut neighbour = |xx: i32, yy: i32| {
                if xx >= 0 && yy >= 0 && (xx as u16) < dims.width() && (yy as u16) < dims.height() {
                    flux += g_l * (field[dims.index(xx as u16, yy as u16)] - field[i]);
                }
            };
            neighbour(x as i32 - 1, y as i32);
            neighbour(x as i32 + 1, y as i32);
            neighbour(x as i32, y as i32 - 1);
            neighbour(x as i32, y as i32 + 1);
            let drift = DT_S * flux / CELL_CAPACITY_J_PER_K;
            prop_assert!(drift.abs() < 1e-6, "cell {i} drifts by {drift}");
        }
    }

    /// Power is non-negative, finite, and monotone in duty.
    #[test]
    fn power_monotone_and_finite(
        freq in 10u16..=300,
        duty_a in 0.0f64..=1.0,
        duty_b in 0.0f64..=1.0,
        temp in -20.0f64..150.0,
    ) {
        let m = PowerModel;
        let (lo, hi) = if duty_a <= duty_b { (duty_a, duty_b) } else { (duty_b, duty_a) };
        let p_lo = m.power_w(freq, lo, temp);
        let p_hi = m.power_w(freq, hi, temp);
        prop_assert!(p_lo.is_finite() && p_lo >= 0.0);
        prop_assert!(p_hi >= p_lo, "duty {hi} must draw at least as much as {lo}");
    }

    /// Sensor calibration inverts the count within quantisation error for
    /// any in-range temperature and process corner.
    #[test]
    fn sensor_roundtrip(
        temp in 0.0f64..150.0,
        factor in 0.95f64..1.05,
    ) {
        let ro = RingOscillator::new(factor);
        let est = ro.temp_from_count(ro.count(temp));
        prop_assert!(
            (est - temp).abs() <= ro.quantisation_error_k() + 1e-9,
            "estimate {est} for true {temp}"
        );
    }

    /// Under arbitrary sensor streams the governor's frequency stays on
    /// the ladder at or below its ceiling, and a shutdown is terminal.
    #[test]
    fn governor_frequency_always_legal(
        counts in proptest::collection::vec(0u32..6000, 1..300),
        ceiling_idx in 0usize..9,
    ) {
        let ceiling = FREQ_LADDER_MHZ[ceiling_idx];
        let ro = RingOscillator::new(1.0);
        let mut g = ThresholdGovernor::new(&ro, ceiling);
        let mut shutdown_seen = false;
        for c in counts {
            let action = g.scan(c);
            match action {
                ThermalAction::SetFrequency(f) => {
                    prop_assert!(!shutdown_seen, "no actions after shutdown");
                    prop_assert!(FREQ_LADDER_MHZ.contains(&f), "{f} not on the ladder");
                    prop_assert!(f <= ceiling, "{f} exceeds ceiling {ceiling}");
                }
                ThermalAction::Shutdown => {
                    prop_assert!(!shutdown_seen, "shutdown fires once");
                    shutdown_seen = true;
                }
                ThermalAction::None => {}
            }
            prop_assert!(g.frequency_mhz() <= ceiling);
        }
    }

    /// Sensor banks with the same seed are identical; estimates track the
    /// true field within half a kelvin at any plausible temperature.
    #[test]
    fn bank_estimates_bounded_error(
        temps in proptest::collection::vec(20.0f64..130.0, 16),
        seed in 0u64..1000,
    ) {
        let bank = SensorBank::new(16, seed);
        for (i, &t) in temps.iter().enumerate() {
            let est = bank.estimate_c(NodeId::new(i as u16), &temps);
            prop_assert!((est - t).abs() < 0.5, "node {i}: {est} vs {t}");
        }
    }
}
