//! The lumped RC thermal network over the die.

use sirtm_noc::NodeId;
use sirtm_taskgraph::GridDims;

use crate::config::{
    ThermalConfig, AMBIENT_C, CELL_CAPACITY_J_PER_K, DT_S, LATERAL_CONDUCTANCE_W_PER_K,
    VERTICAL_CONDUCTANCE_W_PER_K,
};

/// Per-tile die temperatures evolved by an explicit-Euler RC network.
///
/// Each cell `i` obeys
///
/// ```text
/// C·dT_i/dt = P_i − g_v·(T_i − T_amb) + Σ_{j ∈ nb(i)} g_l·(T_j − T_i)
/// ```
///
/// with `P_i` the power injected by [`step`], `g_v` the vertical
/// conductance into the heatsink and `g_l` the lateral conductance
/// between neighbouring tiles (the constants of [`crate::config`]).
///
/// # Examples
///
/// ```
/// use sirtm_thermal::{ThermalConfig, ThermalGrid, AMBIENT_C};
///
/// let cfg = ThermalConfig::default();
/// let hot = vec![0.2; cfg.dims.len()];
/// let mut grid = ThermalGrid::new(cfg);
/// grid.step(1.0, &hot); // one simulated second at 0.2 W per tile
/// assert!(grid.max_temp() > AMBIENT_C);
/// ```
///
/// [`step`]: ThermalGrid::step
#[derive(Debug, Clone)]
pub struct ThermalGrid {
    temp_c: Vec<f64>,
    scratch: Vec<f64>,
    neighbours: Vec<[Option<u16>; 4]>,
}

impl ThermalGrid {
    /// Creates a grid at uniform ambient temperature.
    pub fn new(cfg: ThermalConfig) -> Self {
        let n = cfg.dims.len();
        Self {
            temp_c: vec![AMBIENT_C; n],
            scratch: vec![0.0; n],
            neighbours: build_neighbours(cfg.dims),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.temp_c.len()
    }

    /// Whether the grid has no cells (never true for valid dims).
    pub fn is_empty(&self) -> bool {
        self.temp_c.is_empty()
    }

    /// Temperature of `node`, in °C.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn temp_c(&self, node: NodeId) -> f64 {
        self.temp_c[node.index()]
    }

    /// All cell temperatures, row-major.
    pub fn temps(&self) -> &[f64] {
        &self.temp_c
    }

    /// Hottest cell temperature.
    pub fn max_temp(&self) -> f64 {
        self.temp_c
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean die temperature.
    pub fn mean_temp(&self) -> f64 {
        self.temp_c.iter().sum::<f64>() / self.temp_c.len() as f64
    }

    /// Overwrites every cell with `temp_c` (test/reset helper).
    pub fn set_uniform(&mut self, temp_c: f64) {
        self.temp_c.fill(temp_c);
    }

    /// Advances the network by `duration_s` seconds with constant
    /// per-cell power `power_w`, sub-stepping at [`DT_S`] so arbitrary
    /// durations stay within the stability bound.
    ///
    /// # Panics
    ///
    /// Panics if `power_w.len()` differs from the cell count, any power
    /// is negative or non-finite, or `duration_s` is negative.
    pub fn step(&mut self, duration_s: f64, power_w: &[f64]) {
        assert_eq!(
            power_w.len(),
            self.temp_c.len(),
            "power vector size mismatch"
        );
        assert!(duration_s >= 0.0, "duration must be non-negative");
        assert!(
            power_w.iter().all(|p| p.is_finite() && *p >= 0.0),
            "powers must be finite and non-negative"
        );
        let mut remaining = duration_s;
        while remaining > 0.0 {
            let dt = remaining.min(DT_S);
            self.euler_step(dt, power_w);
            remaining -= dt;
        }
    }

    fn euler_step(&mut self, dt: f64, power_w: &[f64]) {
        let g_v = VERTICAL_CONDUCTANCE_W_PER_K;
        let g_l = LATERAL_CONDUCTANCE_W_PER_K;
        let c = CELL_CAPACITY_J_PER_K;
        let amb = AMBIENT_C;
        for (i, (&p, nbs)) in power_w.iter().zip(&self.neighbours).enumerate() {
            let t = self.temp_c[i];
            let mut flux = p - g_v * (t - amb);
            for nb in nbs.iter().flatten() {
                flux += g_l * (self.temp_c[*nb as usize] - t);
            }
            self.scratch[i] = t + dt * flux / c;
        }
        std::mem::swap(&mut self.temp_c, &mut self.scratch);
    }

    /// The steady-state temperature field for constant `power_w`,
    /// computed by Gauss–Seidel iteration on the equilibrium equations
    /// (`flux = 0`), without touching the grid's transient state.
    ///
    /// # Panics
    ///
    /// Panics if `power_w.len()` differs from the cell count.
    pub fn steady_state(&self, power_w: &[f64]) -> Vec<f64> {
        assert_eq!(
            power_w.len(),
            self.temp_c.len(),
            "power vector size mismatch"
        );
        let g_v = VERTICAL_CONDUCTANCE_W_PER_K;
        let g_l = LATERAL_CONDUCTANCE_W_PER_K;
        let amb = AMBIENT_C;
        let mut t: Vec<f64> = vec![amb; self.temp_c.len()];
        // Diagonally dominant system: Gauss-Seidel converges geometrically.
        for _ in 0..10_000 {
            let mut max_delta: f64 = 0.0;
            for i in 0..t.len() {
                let mut num = power_w[i] + g_v * amb;
                let mut den = g_v;
                for nb in self.neighbours[i].iter().flatten() {
                    num += g_l * t[*nb as usize];
                    den += g_l;
                }
                let next = num / den;
                max_delta = max_delta.max((next - t[i]).abs());
                t[i] = next;
            }
            if max_delta < 1e-9 {
                break;
            }
        }
        t
    }

    /// Total heat energy stored above ambient, in joules — the
    /// conservation quantity the solver tests audit.
    pub fn stored_energy_j(&self) -> f64 {
        self.temp_c
            .iter()
            .map(|t| CELL_CAPACITY_J_PER_K * (t - AMBIENT_C))
            .sum()
    }
}

fn build_neighbours(dims: GridDims) -> Vec<[Option<u16>; 4]> {
    use sirtm_noc::{Coord, Direction};
    (0..dims.len())
        .map(|i| {
            let (x, y) = dims.xy(i);
            let coord = Coord::new(x, y);
            let mut nb = [None; 4];
            for d in Direction::ALL {
                nb[d.index()] = coord.neighbour(d, dims).map(|c| c.node(dims).raw());
            }
            nb
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TIME_CONSTANT_S;

    fn small_grid() -> ThermalGrid {
        ThermalGrid::new(ThermalConfig {
            dims: GridDims::new(4, 4),
        })
    }

    /// Steps `grid` one [`DT_S`] at a time for `steps` steps, and
    /// returns the energy the balance predicts it gains: the energy
    /// injected minus the vertical outflow, both summed from the
    /// temperatures before each step.
    fn step_and_balance(grid: &mut ThermalGrid, power: &[f64], steps: usize) -> f64 {
        let mut expected = 0.0;
        for _ in 0..steps {
            let injected: f64 = power.iter().sum::<f64>() * DT_S;
            let outflow: f64 = grid
                .temps()
                .iter()
                .map(|t| VERTICAL_CONDUCTANCE_W_PER_K * (t - AMBIENT_C) * DT_S)
                .sum();
            expected += injected - outflow;
            grid.step(DT_S, power);
        }
        expected
    }

    fn spread(grid: &ThermalGrid) -> f64 {
        grid.max_temp() - grid.temps().iter().copied().fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn idle_grid_stays_at_ambient() {
        let mut g = small_grid();
        g.step(5.0, &[0.0; 16]);
        for &t in g.temps() {
            assert!((t - AMBIENT_C).abs() < 1e-9, "idle tile at {t}");
        }
    }

    #[test]
    fn heated_grid_relaxes_back_to_ambient() {
        let mut g = small_grid();
        g.set_uniform(95.0);
        g.step(10.0 * TIME_CONSTANT_S, &[0.0; 16]);
        assert!(
            (g.max_temp() - AMBIENT_C).abs() < 0.1,
            "max {} after 10 tau",
            g.max_temp()
        );
    }

    #[test]
    fn uniform_power_reaches_analytic_steady_state() {
        let mut g = small_grid();
        let p = 0.15;
        g.step(12.0 * TIME_CONSTANT_S, &[p; 16]);
        // Uniform load: lateral terms cancel, T = amb + P/g_v everywhere.
        let expect = AMBIENT_C + p / VERTICAL_CONDUCTANCE_W_PER_K;
        for &t in g.temps() {
            assert!((t - expect).abs() < 0.1, "tile at {t}, expected {expect}");
        }
    }

    #[test]
    fn steady_state_solver_matches_long_transient() {
        let mut g = small_grid();
        let mut power = vec![0.05; 16];
        power[5] = 0.6; // an interior hotspot
        let target = g.steady_state(&power);
        g.step(20.0 * TIME_CONSTANT_S, &power);
        for (i, (&t, &s)) in g.temps().iter().zip(&target).enumerate() {
            assert!((t - s).abs() < 0.2, "cell {i}: transient {t} vs solver {s}");
        }
    }

    #[test]
    fn hotspot_spreads_to_neighbours() {
        let mut g = small_grid();
        let mut power = vec![0.0; 16];
        power[5] = 0.5;
        g.step(2.0 * TIME_CONSTANT_S, &power);
        let centre = g.temp_c(NodeId::new(5));
        let adjacent = g.temp_c(NodeId::new(6));
        let corner = g.temp_c(NodeId::new(15));
        assert!(centre > adjacent, "centre {centre} vs adjacent {adjacent}");
        assert!(adjacent > corner, "diffusion decays with distance");
        assert!(adjacent > AMBIENT_C + 1.0, "neighbour visibly warmed");
    }

    #[test]
    fn stored_energy_is_injection_minus_vertical_outflow() {
        // Every joule injected is either stored or leaves through the
        // heatsink: nothing else creates or destroys heat.
        let mut g = small_grid();
        let mut power = vec![0.1; 16];
        power[5] = 0.6;
        let expected = step_and_balance(&mut g, &power, 3000);
        let stored = g.stored_energy_j();
        assert!(expected > 0.0, "the die gained heat");
        assert!(
            (stored - expected).abs() < 1e-9 * expected,
            "stored {stored} J vs balance {expected} J"
        );
    }

    #[test]
    fn lateral_diffusion_conserves_energy() {
        // Diffusion redistributes heat but never creates or destroys it:
        // with no power, the stored energy falls by exactly the vertical
        // outflow while the field flattens.
        let mut g = small_grid();
        // Heat one corner far above the rest.
        let mut power = vec![0.0; 16];
        power[0] = 1.0;
        g.step(0.5, &power);
        let before = g.stored_energy_j();
        let spread_before = spread(&g);
        let expected = step_and_balance(&mut g, &[0.0; 16], 200);
        let after = g.stored_energy_j();
        assert!(
            (after - before - expected).abs() < 1e-9 * before,
            "{before} J -> {after} J, balance {expected} J"
        );
        assert!(
            spread(&g) < spread_before / 4.0,
            "spread {} K from {spread_before} K",
            spread(&g)
        );
    }

    #[test]
    fn step_subdivides_long_durations() {
        let mut a = small_grid();
        let mut b = small_grid();
        let power = vec![0.3; 16];
        a.step(0.25, &power);
        for _ in 0..250 {
            b.step(0.001, &power);
        }
        for (&x, &y) in a.temps().iter().zip(b.temps()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_power_length_panics() {
        let mut g = small_grid();
        g.step(0.1, &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_power_panics() {
        let mut g = small_grid();
        let mut p = vec![0.0; 16];
        p[0] = -1.0;
        g.step(0.1, &p);
    }
}
