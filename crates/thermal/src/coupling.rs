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

use sirtm_centurion::Platform;
use sirtm_noc::NodeId;

use crate::config::ThermalConfig;
use crate::governor::{ThermalAction, ThresholdGovernor};
use crate::grid::ThermalGrid;
use crate::power::PowerModel;
use crate::sensor::SensorBank;

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
}

/// The co-simulation window, in simulated ms.
const WINDOW_MS: f64 = 1.0;

/// The assembled thermal co-simulation.
///
/// See the [crate docs](crate) for a runnable example.
#[derive(Debug)]
pub struct ThermalLoop {
    platform: Platform,
    grid: ThermalGrid,
    /// The sensor bank and one governor per node, or none in an open
    /// loop.
    control: Option<(SensorBank, Vec<ThresholdGovernor>)>,
    prev_busy: Vec<u64>,
    prev_completions: u64,
    power_buf: Vec<f64>,
    trace: ThermalTrace,
}

impl ThermalLoop {
    /// Builds an open loop around `platform`: physics only, with no
    /// sensors and no governors.
    ///
    /// # Panics
    ///
    /// Panics if the thermal grid dimensions differ from the platform's.
    pub fn open(platform: Platform, cfg: ThermalConfig) -> Self {
        let n = platform.config().dims.len();
        assert_eq!(
            cfg.dims,
            platform.config().dims,
            "thermal grid dimensions must match the platform"
        );
        let prev_busy = (0..n)
            .map(|i| platform.busy_cycles(NodeId::new(i as u16)))
            .collect();
        Self {
            prev_completions: platform.completions_total(),
            platform,
            grid: ThermalGrid::new(cfg),
            control: None,
            prev_busy,
            power_buf: vec![0.0; n],
            trace: ThermalTrace::default(),
        }
    }

    /// Builds a closed loop around `platform`: every node gets a ring
    /// oscillator, whose process variation `sensor_seed` draws, and a
    /// [`ThresholdGovernor`] capped at the node's current clock.
    ///
    /// # Panics
    ///
    /// Panics if the thermal grid dimensions differ from the platform's.
    pub fn governed(platform: Platform, cfg: ThermalConfig, sensor_seed: u64) -> Self {
        let mut sim = Self::open(platform, cfg);
        let n = sim.grid.len();
        let sensors = SensorBank::new(n, sensor_seed);
        let governors = (0..n)
            .map(|i| {
                let node = NodeId::new(i as u16);
                ThresholdGovernor::new(
                    sensors.oscillator(node),
                    sim.platform.pe(node).frequency_mhz(),
                )
            })
            .collect();
        sim.control = Some((sensors, governors));
        sim
    }

    /// The wrapped platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The thermal network.
    pub fn grid(&self) -> &ThermalGrid {
        &self.grid
    }

    /// The sensor bank of a governed loop; `None` in an open loop.
    pub fn sensors(&self) -> Option<&SensorBank> {
        self.control.as_ref().map(|(sensors, _)| sensors)
    }

    /// The recorded trace.
    pub fn trace(&self) -> &ThermalTrace {
        &self.trace
    }

    /// Runs the co-simulation for `ms` simulated milliseconds.
    pub fn run_ms(&mut self, ms: f64) {
        let mut remaining = ms;
        while remaining > 1e-12 {
            let window = remaining.min(WINDOW_MS);
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
                PowerModel.power_w(pe.frequency_mhz(), duty, temp)
            } else {
                self.prev_busy[i] = self.platform.busy_cycles(node);
                PowerModel.dead_power_w(temp)
            };
            self.power_buf[i] = p;
            total_power += p;
        }
        // 3. Power → heat.
        self.grid.step(window_ms / 1000.0, &self.power_buf);
        // 4. Heat → sensor counts → governor knob writes.
        if let Some((sensors, governors)) = &mut self.control {
            for (i, governor) in governors.iter_mut().enumerate() {
                let node = NodeId::new(i as u16);
                if !self.platform.pe(node).is_alive() {
                    continue;
                }
                let count = sensors.read(node, self.grid.temps());
                match governor.scan(count) {
                    ThermalAction::None => {}
                    ThermalAction::SetFrequency(f) => self.platform.set_frequency(node, f),
                    ThermalAction::Shutdown => {
                        self.platform.kill_pe(node);
                        self.trace.trips.push((self.platform.now_ms(), node));
                    }
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
    use crate::config::{AMBIENT_C, TRIP_TEMP_C};
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
        }
    }

    #[test]
    fn platform_work_heats_the_die() {
        let mut sim = ThermalLoop::open(small_platform(100, NOMINAL_GEN), small_thermal());
        sim.run_ms(300.0);
        assert!(
            sim.grid().mean_temp() > AMBIENT_C + 1.0,
            "mean {} vs ambient",
            sim.grid().mean_temp()
        );
        assert!(sim.trace().total_completions() > 0);
    }

    #[test]
    fn open_loop_overclock_exceeds_trip_temperature() {
        let mut sim = ThermalLoop::open(small_platform(300, STRESS_GEN), small_thermal());
        sim.run_ms(800.0);
        assert!(
            sim.trace().peak_temp_c() > TRIP_TEMP_C,
            "peak {} should blow through trip — that is the scenario the \
             paper's thermal fault case models",
            sim.trace().peak_temp_c()
        );
        assert!(sim.trace().trips().is_empty(), "nobody there to trip");
    }

    #[test]
    fn closed_loop_keeps_the_die_below_trip() {
        let mut sim = ThermalLoop::governed(small_platform(300, STRESS_GEN), small_thermal(), 1);
        sim.run_ms(800.0);
        assert!(
            sim.trace().peak_temp_c() < TRIP_TEMP_C,
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
        let mut open = ThermalLoop::open(small_platform(100, NOMINAL_GEN), small_thermal());
        let mut closed =
            ThermalLoop::governed(small_platform(100, NOMINAL_GEN), small_thermal(), 1);
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
            let mut sim =
                ThermalLoop::governed(small_platform(300, STRESS_GEN), small_thermal(), 9);
            sim.run_ms(400.0);
            (
                sim.trace().samples().len(),
                sim.trace().peak_temp_c().to_bits(),
                sim.trace().total_completions(),
                sim.trace().trips().to_vec(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn one_sample_per_window() {
        let mut sim = ThermalLoop::governed(small_platform(100, NOMINAL_GEN), small_thermal(), 1);
        sim.run_ms(5.0);
        assert_eq!(sim.trace().samples().len(), 5, "one sample per 1 ms window");
    }

    #[test]
    #[should_panic(expected = "match the platform")]
    fn mismatched_grid_rejected() {
        // 8x16 vs the platform's 4x4.
        let _ = ThermalLoop::open(small_platform(100, NOMINAL_GEN), ThermalConfig::default());
    }
}
