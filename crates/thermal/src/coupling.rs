//! The thermal co-simulation loop: platform ↔ physics ↔ governor.
//!
//! The paper closes its management loop through "knobs and monitors,
//! such as packet routing events, timing violation detection, router
//! behaviour, clock frequency and temperature". [`ThermalLoop`]
//! implements the temperature half of that loop around an unmodified
//! [`Platform`]: each window the platform runs, its measured per-node
//! activity becomes power, power becomes heat, heat becomes sensor
//! counts, and the per-node governors turn counts back into DVFS and
//! shutdown knob writes.

use sirtm_centurion::{Platform, FREQ_RANGE_MHZ, NOMINAL_MHZ};
use sirtm_noc::NodeId;

use crate::config::ThermalConfig;
use crate::governor::{
    GovernorConfig, NoGovernor, ThermalAction, ThermalGovernor, ThresholdGovernor,
};
use crate::grid::ThermalGrid;
use crate::power::{PowerModel, PowerModelConfig};
use crate::sensor::{SensorBank, SensorConfig};

/// One recorded co-simulation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSample {
    /// Simulated time at the end of the window, in ms.
    pub t_ms: f64,
    /// Hottest tile, °C.
    pub max_temp_c: f64,
    /// Mean die temperature, °C.
    pub mean_temp_c: f64,
    /// Alive PEs.
    pub alive: usize,
    /// Mean DVFS frequency over alive PEs, MHz.
    pub mean_freq_mhz: f64,
    /// Application completions during this window.
    pub completions: u64,
    /// Total power drawn this window, W.
    pub power_w: f64,
}

/// The recorded history of a thermal co-simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThermalTrace {
    samples: Vec<ThermalSample>,
    trips: Vec<(f64, NodeId)>,
}

impl ThermalTrace {
    /// All recorded windows, oldest first.
    pub fn samples(&self) -> &[ThermalSample] {
        &self.samples
    }

    /// Thermal shutdowns as `(time_ms, node)`, oldest first.
    pub fn trips(&self) -> &[(f64, NodeId)] {
        &self.trips
    }

    /// Peak die temperature over the whole run, °C.
    pub fn peak_temp_c(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.max_temp_c)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Total application completions over the whole run.
    pub fn total_completions(&self) -> u64 {
        self.samples.iter().map(|s| s.completions).sum()
    }

    /// Renders the trace as CSV
    /// (`t_ms,max_temp_c,mean_temp_c,alive,mean_freq_mhz,completions,power_w`).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("t_ms,max_temp_c,mean_temp_c,alive,mean_freq_mhz,completions,power_w\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{:.3},{:.3},{},{:.1},{},{:.4}\n",
                s.t_ms,
                s.max_temp_c,
                s.mean_temp_c,
                s.alive,
                s.mean_freq_mhz,
                s.completions,
                s.power_w
            ));
        }
        out
    }
}

/// The assembled thermal co-simulation.
///
/// See the [crate docs](crate) for a runnable example.
#[derive(Debug)]
pub struct ThermalLoop {
    platform: Platform,
    thermal_cfg: ThermalConfig,
    power: PowerModel,
    grid: ThermalGrid,
    sensors: SensorBank,
    governors: Vec<Box<dyn ThermalGovernor>>,
    window_ms: f64,
    prev_busy: Vec<u64>,
    prev_completions: u64,
    power_buf: Vec<f64>,
    trace: ThermalTrace,
}

impl ThermalLoop {
    /// Builds the loop around `platform` with default sensors and a
    /// power model matched to the platform's nominal clock and DVFS
    /// range. Per-node governors follow `governor_cfg`; `sensor_seed`
    /// draws the sensors' process variation.
    ///
    /// # Panics
    ///
    /// Panics if the thermal grid dimensions differ from the platform's.
    pub fn new(
        platform: Platform,
        thermal_cfg: ThermalConfig,
        governor_cfg: GovernorConfig,
        sensor_seed: u64,
    ) -> Self {
        let pcfg = platform.config();
        let power = PowerModel::new(PowerModelConfig {
            nominal_mhz: NOMINAL_MHZ,
            freq_range_mhz: FREQ_RANGE_MHZ,
            ..PowerModelConfig::default()
        });
        let sensors = SensorBank::new(SensorConfig::default(), pcfg.dims.len(), sensor_seed);
        Self::with_parts(platform, thermal_cfg, governor_cfg, power, sensors)
    }

    /// Builds the loop from explicit parts (custom power models or
    /// sensor configurations).
    ///
    /// # Panics
    ///
    /// Panics if grid dimensions, sensor count and platform grid size
    /// disagree.
    pub fn with_parts(
        platform: Platform,
        thermal_cfg: ThermalConfig,
        governor_cfg: GovernorConfig,
        power: PowerModel,
        sensors: SensorBank,
    ) -> Self {
        let n = platform.config().dims.len();
        assert_eq!(
            thermal_cfg.dims,
            platform.config().dims,
            "thermal grid dimensions must match the platform"
        );
        assert_eq!(sensors.len(), n, "one sensor per node");
        let grid = ThermalGrid::new(thermal_cfg.clone());
        let governors: Vec<Box<dyn ThermalGovernor>> = (0..n)
            .map(|i| {
                let node = NodeId::new(i as u16);
                if governor_cfg.enabled {
                    Box::new(ThresholdGovernor::new(
                        &governor_cfg,
                        &thermal_cfg,
                        sensors.oscillator(node),
                        platform.pe(node).frequency_mhz(),
                    )) as Box<dyn ThermalGovernor>
                } else {
                    Box::new(NoGovernor::new())
                }
            })
            .collect();
        let prev_busy = (0..n)
            .map(|i| platform.busy_cycles(NodeId::new(i as u16)))
            .collect();
        Self {
            prev_completions: platform.completions_total(),
            platform,
            thermal_cfg,
            power,
            grid,
            sensors,
            governors,
            window_ms: 1.0,
            prev_busy,
            power_buf: vec![0.0; n],
            trace: ThermalTrace::default(),
        }
    }

    /// Overrides the co-simulation window (default 1 ms).
    ///
    /// # Panics
    ///
    /// Panics if `window_ms` is not positive.
    pub fn set_window_ms(&mut self, window_ms: f64) {
        assert!(window_ms > 0.0, "window must be positive");
        self.window_ms = window_ms;
    }

    /// The wrapped platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Mutable access to the wrapped platform (fault injection, RCAP).
    pub fn platform_mut(&mut self) -> &mut Platform {
        &mut self.platform
    }

    /// The thermal network.
    pub fn grid(&self) -> &ThermalGrid {
        &self.grid
    }

    /// The sensor bank.
    pub fn sensors(&self) -> &SensorBank {
        &self.sensors
    }

    /// The thermal configuration.
    pub fn thermal_config(&self) -> &ThermalConfig {
        &self.thermal_cfg
    }

    /// The recorded trace.
    pub fn trace(&self) -> &ThermalTrace {
        &self.trace
    }

    /// Nodes shut down by their governor so far, oldest first.
    pub fn tripped_nodes(&self) -> Vec<NodeId> {
        self.trace.trips.iter().map(|&(_, n)| n).collect()
    }

    /// Runs the co-simulation for `ms` simulated milliseconds.
    pub fn run_ms(&mut self, ms: f64) {
        let mut remaining = ms;
        while remaining > 1e-12 {
            let window = remaining.min(self.window_ms);
            self.step_window(window);
            remaining -= window;
        }
    }

    fn step_window(&mut self, window_ms: f64) {
        // 1. Application progress.
        self.platform.run_ms(window_ms);
        let window_cycles = self.platform.config().ms_to_cycles(window_ms).max(1);
        // 2. Activity → power.
        let mut total_power = 0.0;
        for i in 0..self.power_buf.len() {
            let node = NodeId::new(i as u16);
            let pe = self.platform.pe(node);
            let temp = self.grid.temp_c(node);
            let p = if pe.is_alive() {
                let busy = self.platform.busy_cycles(node);
                let duty =
                    ((busy - self.prev_busy[i]) as f64 / window_cycles as f64).clamp(0.0, 1.0);
                self.prev_busy[i] = busy;
                self.power.power_w(pe.frequency_mhz(), duty, temp)
            } else {
                self.prev_busy[i] = self.platform.busy_cycles(node);
                self.power.dead_power_w(temp)
            };
            self.power_buf[i] = p;
            total_power += p;
        }
        // 3. Power → heat.
        self.grid.step(window_ms / 1000.0, &self.power_buf);
        // 4. Heat → sensor counts → governor knob writes.
        for i in 0..self.governors.len() {
            let node = NodeId::new(i as u16);
            if !self.platform.pe(node).is_alive() {
                continue;
            }
            let count = self.sensors.read(node, self.grid.temps());
            match self.governors[i].scan(count) {
                ThermalAction::None => {}
                ThermalAction::SetFrequency(f) => self.platform.set_frequency(node, f),
                ThermalAction::Shutdown => {
                    self.platform.kill_pe(node);
                    self.trace.trips.push((self.platform.now_ms(), node));
                }
            }
        }
        // 5. Record.
        let alive: Vec<NodeId> = (0..self.power_buf.len())
            .map(|i| NodeId::new(i as u16))
            .filter(|&n| self.platform.pe(n).is_alive())
            .collect();
        let mean_freq = if alive.is_empty() {
            0.0
        } else {
            alive
                .iter()
                .map(|&n| self.platform.pe(n).frequency_mhz() as f64)
                .sum::<f64>()
                / alive.len() as f64
        };
        let completions_now = self.platform.completions_total();
        self.trace.samples.push(ThermalSample {
            t_ms: self.platform.now_ms(),
            max_temp_c: self.grid.max_temp(),
            mean_temp_c: self.grid.mean_temp(),
            alive: alive.len(),
            mean_freq_mhz: mean_freq,
            completions: completions_now - self.prev_completions,
            power_w: total_power,
        });
        self.prev_completions = completions_now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_centurion::PlatformConfig;
    use sirtm_core::models::ModelKind;
    use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
    use sirtm_taskgraph::{GridDims, Mapping};

    fn small_platform(freq_mhz: u16, generation_period: u32) -> Platform {
        let cfg = PlatformConfig {
            dims: GridDims::new(4, 4),
            ..PlatformConfig::default()
        };
        let g = fork_join(&ForkJoinParams {
            generation_period,
            ..ForkJoinParams::default()
        });
        let mapping = Mapping::heuristic(&g, cfg.dims);
        let mut p = Platform::new(g, &mapping, &ModelKind::NoIntelligence, cfg);
        for i in 0..16 {
            p.set_frequency(NodeId::new(i), freq_mhz);
        }
        p
    }

    /// The paper-rate workload: one wave per 4 ms.
    const NOMINAL_GEN: u32 = 400;
    /// A power-virus workload that saturates the worker stage.
    const STRESS_GEN: u32 = 40;

    fn small_thermal() -> ThermalConfig {
        ThermalConfig {
            dims: GridDims::new(4, 4),
            ..ThermalConfig::default()
        }
    }

    #[test]
    fn platform_work_heats_the_die() {
        let mut sim = ThermalLoop::new(
            small_platform(100, NOMINAL_GEN),
            small_thermal(),
            GovernorConfig {
                enabled: false,
                ..GovernorConfig::default()
            },
            1,
        );
        sim.run_ms(300.0);
        assert!(
            sim.grid().mean_temp() > sim.thermal_config().ambient_c + 1.0,
            "mean {} vs ambient",
            sim.grid().mean_temp()
        );
        assert!(sim.trace().total_completions() > 0);
    }

    #[test]
    fn open_loop_overclock_exceeds_trip_temperature() {
        let mut sim = ThermalLoop::new(
            small_platform(300, STRESS_GEN),
            small_thermal(),
            GovernorConfig {
                enabled: false,
                ..GovernorConfig::default()
            },
            1,
        );
        sim.run_ms(800.0);
        assert!(
            sim.trace().peak_temp_c() > sim.thermal_config().trip_temp_c,
            "peak {} should blow through trip — that is the scenario the \
             paper's thermal fault case models",
            sim.trace().peak_temp_c()
        );
        assert!(sim.tripped_nodes().is_empty(), "nobody there to trip");
    }

    #[test]
    fn closed_loop_keeps_the_die_below_trip() {
        let mut sim = ThermalLoop::new(
            small_platform(300, STRESS_GEN),
            small_thermal(),
            GovernorConfig::default(),
            1,
        );
        sim.run_ms(800.0);
        assert!(
            sim.trace().peak_temp_c() < sim.thermal_config().trip_temp_c,
            "peak {} must stay below trip under governance",
            sim.trace().peak_temp_c()
        );
        assert_eq!(sim.platform().alive_count(), 16, "no thermal deaths");
        // And the governor actually had to throttle to achieve it.
        let last = sim.trace().samples().last().expect("samples recorded");
        assert!(
            last.mean_freq_mhz < 300.0,
            "mean frequency {} shows throttling",
            last.mean_freq_mhz
        );
    }

    #[test]
    fn governed_run_keeps_computing() {
        let mut open = ThermalLoop::new(
            small_platform(100, NOMINAL_GEN),
            small_thermal(),
            GovernorConfig {
                enabled: false,
                ..GovernorConfig::default()
            },
            1,
        );
        let mut closed = ThermalLoop::new(
            small_platform(100, NOMINAL_GEN),
            small_thermal(),
            GovernorConfig::default(),
            1,
        );
        open.run_ms(400.0);
        closed.run_ms(400.0);
        // At nominal clock the die never reaches warn, so the governor
        // must be transparent: identical throughput.
        assert_eq!(
            open.trace().total_completions(),
            closed.trace().total_completions(),
            "governor transparent below the warn temperature"
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = ThermalLoop::new(
                small_platform(300, STRESS_GEN),
                small_thermal(),
                GovernorConfig::default(),
                9,
            );
            sim.run_ms(400.0);
            (
                sim.trace().samples().len(),
                sim.trace().peak_temp_c().to_bits(),
                sim.trace().total_completions(),
                sim.tripped_nodes(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut sim = ThermalLoop::new(
            small_platform(100, NOMINAL_GEN),
            small_thermal(),
            GovernorConfig::default(),
            1,
        );
        sim.run_ms(5.0);
        let csv = sim.trace().to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("t_ms,max_temp_c,mean_temp_c,alive,mean_freq_mhz,completions,power_w")
        );
        assert_eq!(lines.count(), 5, "one row per 1 ms window");
    }

    #[test]
    #[should_panic(expected = "match the platform")]
    fn mismatched_grid_rejected() {
        let _ = ThermalLoop::new(
            small_platform(100, NOMINAL_GEN),
            ThermalConfig::default(), // 8x16 vs the platform's 4x4
            GovernorConfig::default(),
            1,
        );
    }
}
