//! Figure 4 — time series of application throughput ("Nodes Active") and
//! task distribution for 5-fault and 42-fault runs of all three models,
//! with faults injected at 500 ms over a 1000 ms horizon.

use std::path::Path;

use sirtm_scenario::recorder::RunTrace;
use sirtm_scenario::{run_group, EventAction, EventSpec, ScenarioSpec};

use crate::render::{downsample, sparkline, write_csv};
use crate::table1::paper_models;

/// The figure's two fault scenarios: 5 local faults and 42 (one third of
/// Centurion, the global-circuitry case).
pub const FIG4_FAULTS: [usize; 2] = [5, 42];

/// One model's trace within a fault panel.
#[derive(Debug, Clone)]
pub struct Fig4Trace {
    /// Model name.
    pub model: String,
    /// The recorded run.
    pub trace: RunTrace,
}

/// One fault scenario's panel (three model traces).
#[derive(Debug, Clone)]
pub struct Fig4Panel {
    /// Injected fault count.
    pub faults: usize,
    /// Traces in paper order.
    pub traces: Vec<Fig4Trace>,
}

/// The whole figure.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Panels for 5 and 42 faults.
    pub panels: Vec<Fig4Panel>,
    /// Fault injection instant in ms.
    pub fault_at_ms: f64,
}

/// Regenerates the figure's data (one representative seed; the figure in
/// the paper is likewise a typical single run). Each model runs `base`
/// with the panel's faults at the end of its settle region. A model's
/// panels differ only in the fault count, so they run as one fork group
/// ([`run_group`]) that simulates the pre-fault prefix once.
pub fn run(base: &ScenarioSpec, seed: u64) -> Fig4 {
    let fault_at_ms = crate::fault_at_ms(base);
    let mut panels: Vec<Fig4Panel> = FIG4_FAULTS
        .iter()
        .map(|&faults| Fig4Panel {
            faults,
            traces: Vec::new(),
        })
        .collect();
    for (name, model) in paper_models() {
        let specs: Vec<ScenarioSpec> = FIG4_FAULTS
            .iter()
            .map(|&faults| {
                let mut spec = base.clone();
                spec.model = model.clone();
                spec.events = vec![EventSpec {
                    at_ms: fault_at_ms,
                    action: EventAction::RandomPeFaults { count: faults },
                }];
                spec
            })
            .collect();
        let members: Vec<&ScenarioSpec> = specs.iter().collect();
        run_group(
            &members,
            seed,
            |_| {},
            |k, outcome| {
                panels[k].traces.push(Fig4Trace {
                    model: name.clone(),
                    trace: outcome.trace,
                });
            },
        );
    }
    Fig4 {
        panels,
        fault_at_ms,
    }
}

/// Renders ASCII panels mirroring the figure's layout: a throughput
/// ("nodes active") strip and a task-distribution strip per model.
pub fn render(fig: &Fig4, width: usize) -> String {
    let mut out = String::new();
    for panel in &fig.panels {
        out.push_str(&format!(
            "\n=== Fig 4 — {} faults (injected at {} ms; | marks the instant) ===\n",
            panel.faults, fig.fault_at_ms
        ));
        for t in &panel.traces {
            let total_ms = t.trace.samples.len() as f64 * t.trace.window_ms;
            let marker = ((fig.fault_at_ms / total_ms) * width as f64) as usize;
            let mark = |s: String| -> String {
                let mut chars: Vec<char> = s.chars().collect();
                if marker < chars.len() {
                    chars[marker] = '|';
                }
                chars.into_iter().collect()
            };
            out.push_str(&format!("\n[{}]\n", t.model));
            let active = downsample(&t.trace.nodes_active(), width);
            out.push_str(&format!(
                "  nodes active  {}  (min {:.0}, max {:.0})\n",
                mark(sparkline(&active)),
                active.iter().copied().fold(f64::INFINITY, f64::min),
                active.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ));
            let n_tasks = t
                .trace
                .samples
                .first()
                .map(|s| s.task_counts.len())
                .unwrap_or(0);
            for task in 0..n_tasks {
                let series = downsample(&t.trace.task_count_series(task), width);
                out.push_str(&format!(
                    "  task{} nodes   {}  (end {:.0})\n",
                    task + 1,
                    mark(sparkline(&series)),
                    series.last().copied().unwrap_or(0.0),
                ));
            }
            let switches = downsample(&t.trace.switches(), width);
            out.push_str(&format!(
                "  switches/win  {}  (total {:.0})\n",
                mark(sparkline(&switches)),
                t.trace.switches().iter().sum::<f64>(),
            ));
        }
    }
    out
}

/// Writes one CSV per model per panel (`fig4_<faults>f_<model>.csv`) with
/// the full series, for external plotting.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csvs(fig: &Fig4, dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    let mut written = Vec::new();
    for panel in &fig.panels {
        for t in &panel.traces {
            let model_slug = t.model.to_lowercase().replace(' ', "_");
            let path = dir.join(format!("fig4_{}f_{}.csv", panel.faults, model_slug));
            let n_tasks = t
                .trace
                .samples
                .first()
                .map(|s| s.task_counts.len())
                .unwrap_or(0);
            let mut headers = vec![
                "t_ms".to_string(),
                "throughput_per_ms".to_string(),
                "nodes_active".to_string(),
                "switches".to_string(),
                "alive".to_string(),
            ];
            for t in 0..n_tasks {
                headers.push(format!("task{}_nodes", t + 1));
            }
            let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
            let rows: Vec<Vec<String>> = t
                .trace
                .samples
                .iter()
                .map(|s| {
                    let mut row = vec![
                        format!("{:.1}", s.t_ms),
                        format!("{:.3}", s.throughput),
                        s.nodes_active.to_string(),
                        s.switches.to_string(),
                        s.alive.to_string(),
                    ];
                    row.extend(s.task_counts.iter().map(|c| c.to_string()));
                    row
                })
                .collect();
            write_csv(&path, &header_refs, &rows)?;
            written.push(path);
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_core::models::ModelKind;

    /// A `duration_ms` run in 10 ms windows, faulted halfway.
    fn base(duration_ms: f64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("fig4", ModelKind::NoIntelligence);
        spec.duration_ms = duration_ms;
        spec.window_ms = 10.0;
        spec.settle_region_ms = Some(duration_ms / 2.0);
        spec
    }

    #[test]
    fn fig4_panels_have_three_models_and_fault_drop() {
        let fig = run(&base(200.0), 9);
        assert_eq!(fig.panels.len(), 2);
        assert_eq!(fig.panels[0].faults, 5);
        assert_eq!(fig.panels[1].faults, 42);
        for panel in &fig.panels {
            assert_eq!(panel.traces.len(), 3);
            for t in &panel.traces {
                assert_eq!(t.trace.samples.len(), 20);
                // Alive count drops at the injection window.
                let alive_start = t.trace.samples[0].alive;
                let alive_end = t.trace.samples.last().expect("samples").alive;
                assert_eq!(alive_start, 128);
                assert_eq!(alive_end, 128 - panel.faults);
            }
        }
        let text = render(&fig, 40);
        assert!(text.contains("42 faults"));
        assert!(text.contains("nodes active"));
    }

    #[test]
    fn fig4_csvs_written() {
        let fig = run(&base(60.0), 3);
        let dir = std::env::temp_dir().join("sirtm_fig4_test");
        let files = write_csvs(&fig, &dir).expect("writes");
        assert_eq!(files.len(), 6, "2 panels x 3 models");
        let text = std::fs::read_to_string(&files[0]).expect("readable");
        assert!(text.starts_with("t_ms,"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
