//! Windowed time-series recording of a running platform.

use sirtm_centurion::Platform;
use sirtm_taskgraph::TaskId;

use crate::agent::Agent;

/// One sampled window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSample {
    /// Window end time in milliseconds.
    pub t_ms: f64,
    /// Sink (task 3) completions per millisecond in this window — the
    /// application throughput.
    pub throughput: f64,
    /// Nodes that completed work during this window (the paper's "Nodes
    /// Active" series).
    pub nodes_active: usize,
    /// Nodes per task at the window end (the paper's "Task Distribution").
    pub task_counts: Vec<usize>,
    /// Task switches during this window.
    pub switches: u64,
    /// Alive nodes at the window end.
    pub alive: usize,
}

/// A recorded run: samples every `window_ms` milliseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Window length in milliseconds.
    pub window_ms: f64,
    /// Samples, oldest first.
    pub samples: Vec<WindowSample>,
    /// Each PE's work record at the last window, in node-index order:
    /// the task it held at each window end, one step per window.
    pub agents: Vec<Agent>,
}

impl RunTrace {
    /// The throughput series.
    pub fn throughput(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.throughput).collect()
    }

    /// The nodes-active series.
    pub fn nodes_active(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.nodes_active as f64).collect()
    }

    /// Per-task node-count series for task `t`.
    pub fn task_count_series(&self, t: usize) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.task_counts.get(t).copied().unwrap_or(0) as f64)
            .collect()
    }

    /// The per-window switch series.
    pub fn switches(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.switches as f64).collect()
    }

    /// Mean throughput over the window index range `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn mean_throughput(&self, from: usize, to: usize) -> f64 {
        assert!(from < to && to <= self.samples.len(), "bad window range");
        let slice = &self.samples[from..to];
        slice.iter().map(|s| s.throughput).sum::<f64>() / slice.len() as f64
    }
}

/// Incremental recorder: drive the platform yourself and call
/// [`Recorder::sample`] at window boundaries, or use
/// [`Recorder::run_windows`] to do both. A clone records on
/// independently from the window it was taken at.
#[derive(Debug, Clone)]
pub struct Recorder {
    window_ms: f64,
    sink: TaskId,
    last_sink_completions: u64,
    last_switches: u64,
    samples: Vec<WindowSample>,
    agents: Vec<Agent>,
}

impl Recorder {
    /// Creates a recorder sampling every `window_ms` simulated
    /// milliseconds; `sink` is the throughput-defining task (the paper's
    /// task 3).
    ///
    /// # Panics
    ///
    /// Panics if `window_ms <= 0`.
    pub fn new(window_ms: f64, sink: TaskId) -> Self {
        assert!(window_ms > 0.0, "window must be positive");
        Self {
            window_ms,
            sink,
            last_sink_completions: 0,
            last_switches: 0,
            samples: Vec::new(),
            agents: Vec::new(),
        }
    }

    /// Samples the platform now, closing a window.
    pub fn sample(&mut self, platform: &Platform) {
        let sink_now = platform.completions(self.sink);
        let switches_now = platform.switches_total();
        let window_cycles = platform.config().ms_to_cycles(self.window_ms);
        let since = platform.now().saturating_sub(window_cycles);
        self.samples.push(WindowSample {
            t_ms: platform.now_ms(),
            throughput: (sink_now - self.last_sink_completions) as f64 / self.window_ms,
            nodes_active: platform.nodes_active_since(since),
            task_counts: platform.task_counts(),
            switches: switches_now - self.last_switches,
            alive: platform.alive_count(),
        });
        self.last_sink_completions = sink_now;
        self.last_switches = switches_now;
        let pes = platform.pes();
        if self.agents.is_empty() {
            let n_tasks = platform.graph().len();
            self.agents = vec![Agent::new(n_tasks); pes.len()];
        }
        for (agent, pe) in self.agents.iter_mut().zip(pes) {
            if !pe.is_alive() {
                agent.kill();
                continue;
            }
            match pe.task() {
                Some(t) => agent.engage(t.index()),
                None => agent.quit(),
            }
            agent.record_step();
        }
    }

    /// Runs `n` windows, sampling after each, with an optional callback
    /// invoked *before* each window (fault injection hooks go there).
    pub fn run_windows<F>(&mut self, platform: &mut Platform, n: usize, mut before: F)
    where
        F: FnMut(usize, &mut Platform),
    {
        for w in 0..n {
            before(w, platform);
            platform.run_ms(self.window_ms);
            self.sample(platform);
        }
    }

    /// Finishes recording and returns the trace.
    pub fn into_trace(self) -> RunTrace {
        RunTrace {
            window_ms: self.window_ms,
            samples: self.samples,
            agents: self.agents,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_centurion::PlatformConfig;
    use sirtm_core::models::ModelKind;
    use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
    use sirtm_taskgraph::Mapping;

    fn platform() -> Platform {
        let cfg = PlatformConfig::default();
        let g = fork_join(&ForkJoinParams::default());
        let mapping = Mapping::heuristic(&g, cfg.dims);
        Platform::new(g, &mapping, &ModelKind::NoIntelligence, cfg)
    }

    #[test]
    fn records_expected_window_count_and_times() {
        let mut p = platform();
        let mut r = Recorder::new(5.0, TaskId::new(2));
        r.run_windows(&mut p, 10, |_, _| {});
        let trace = r.into_trace();
        assert_eq!(trace.samples.len(), 10);
        assert!((trace.samples[9].t_ms - 50.0).abs() < 1e-9);
        assert_eq!(trace.window_ms, 5.0);
    }

    #[test]
    fn throughput_matches_completion_deltas() {
        let mut p = platform();
        let mut r = Recorder::new(10.0, TaskId::new(2));
        r.run_windows(&mut p, 8, |_, _| {});
        let trace = r.into_trace();
        let total_from_trace: f64 = trace.throughput().iter().sum::<f64>() * trace.window_ms;
        assert!((total_from_trace - p.completions(TaskId::new(2)) as f64).abs() < 1e-6);
    }

    #[test]
    fn callback_runs_before_each_window() {
        let mut p = platform();
        let mut r = Recorder::new(2.0, TaskId::new(2));
        let mut seen = Vec::new();
        r.run_windows(&mut p, 3, |w, _| seen.push(w));
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn task_counts_recorded_per_window() {
        let mut p = platform();
        let mut r = Recorder::new(5.0, TaskId::new(2));
        r.run_windows(&mut p, 2, |_, _| {});
        let trace = r.into_trace();
        let counts = &trace.samples[0].task_counts;
        assert_eq!(counts.iter().sum::<usize>(), 128);
        assert_eq!(trace.task_count_series(1).len(), 2);
    }

    #[test]
    fn mean_throughput_over_range() {
        let trace = RunTrace {
            window_ms: 1.0,
            samples: (0..5)
                .map(|i| WindowSample {
                    t_ms: i as f64,
                    throughput: i as f64,
                    nodes_active: 0,
                    task_counts: vec![],
                    switches: 0,
                    alive: 128,
                })
                .collect(),
            agents: vec![],
        };
        assert_eq!(trace.mean_throughput(1, 4), 2.0);
    }

    #[test]
    #[should_panic(expected = "bad window range")]
    fn mean_throughput_bad_range_panics() {
        let trace = RunTrace {
            window_ms: 1.0,
            samples: vec![],
            agents: vec![],
        };
        trace.mean_throughput(0, 1);
    }
}
