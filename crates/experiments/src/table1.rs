//! Table I — settling time and relative performance without faults.
//!
//! "Performance reached — relative to highlighted case — after settling
//! time without fault injection. Shown are median (Q2) and 25th/75th
//! percentiles (Q1/Q3) for 100 independent, randomly initialised runs of
//! each experiment."
//!
//! The table is one declarative sweep: the three paper models crossed
//! with nothing, seeded `1000 + i` (see
//! [`sirtm_scenario::presets::table1_sweep`]), executed by the parallel
//! deterministic orchestrator.

use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_scenario::{presets, run_sweep, SweepOptions, SweepSpec};

use crate::harness::ExperimentConfig;
use crate::stats::Quartiles;

/// One Table I row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model name ("none", "ni", "ffw").
    pub model: String,
    /// Settling time quartiles in milliseconds.
    pub settle_ms: Quartiles,
    /// Steady throughput quartiles relative to the baseline median, in
    /// percent.
    pub relative_pct: Quartiles,
}

/// The full Table I.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Rows in paper order: No Intelligence, Network Interaction,
    /// Foraging For Work.
    pub rows: Vec<Table1Row>,
    /// The normalisation reference (baseline median rate, sinks/ms).
    pub reference_rate: f64,
    /// Independent runs per model.
    pub runs: usize,
}

/// The three models of the paper's evaluation, in table order.
pub fn paper_models() -> Vec<(String, ModelKind)> {
    vec![
        ("No Intelligence".to_string(), ModelKind::NoIntelligence),
        (
            "Network Interaction".to_string(),
            ModelKind::NetworkInteraction(NiConfig::default()),
        ),
        (
            "Foraging For Work".to_string(),
            ModelKind::ForagingForWork(FfwConfig::default()),
        ),
    ]
}

/// The display name of a model's report name (`"ffw"` → `"Foraging For
/// Work"`); unknown names pass through, so sweeps over new models still
/// render.
pub fn display_name(report: &str) -> String {
    paper_models()
        .into_iter()
        .find(|(_, kind)| kind.name() == report)
        .map(|(name, _)| name)
        .unwrap_or_else(|| report.to_string())
}

/// The model report name recorded in a sweep cell's labels.
pub(crate) fn cell_model(cell: &sirtm_scenario::CellResult) -> String {
    cell.labels
        .iter()
        .find(|(k, _)| k == "model")
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| cell.spec.model.name().to_string())
}

/// Table I as a sweep spec (fault-free, model axis, historical seeds).
pub fn sweep(cfg: &ExperimentConfig) -> SweepSpec {
    presets::table1_sweep(cfg.scenario(&ModelKind::NoIntelligence, 0), cfg.runs)
}

/// Regenerates Table I.
pub fn run(cfg: &ExperimentConfig) -> Table1 {
    let result = run_sweep(&sweep(cfg), SweepOptions::default());
    // Normalise to the baseline's own median (the paper's highlighted row).
    let reference_rate = result.cells[0].final_rate.q2.max(1e-9);
    let rows = result
        .cells
        .iter()
        .map(|cell| Table1Row {
            model: display_name(&cell_model(cell)),
            settle_ms: cell.settle_ms,
            relative_pct: cell.final_rate.scaled(100.0 / reference_rate),
        })
        .collect();
    Table1 {
        rows,
        reference_rate,
        runs: cfg.runs,
    }
}

/// Renders the table in the paper's layout.
pub fn render(table: &Table1) -> String {
    let headers = [
        "Model",
        "Settle Q1 (ms)",
        "Settle Q2 (ms)",
        "Settle Q3 (ms)",
        "Perf Q1",
        "Perf Q2",
        "Perf Q3",
    ];
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                format!("{:.0}", r.settle_ms.q1),
                format!("{:.0}", r.settle_ms.q2),
                format!("{:.0}", r.settle_ms.q3),
                format!("{:.0}%", r.relative_pct.q1),
                format!("{:.0}%", r.relative_pct.q2),
                format!("{:.0}%", r.relative_pct.q3),
            ]
        })
        .collect();
    format!(
        "Table I — settling time and relative performance, no faults \
         ({} runs, reference {:.2} sinks/ms)\n{}",
        table.runs,
        table.reference_rate,
        crate::render::ascii_table(&headers, &rows)
    )
}

/// Writes the table as CSV for external analysis.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv(table: &Table1, path: &std::path::Path) -> std::io::Result<()> {
    let headers = [
        "model",
        "settle_q1_ms",
        "settle_q2_ms",
        "settle_q3_ms",
        "perf_q1_pct",
        "perf_q2_pct",
        "perf_q3_pct",
    ];
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                format!("{:.1}", r.settle_ms.q1),
                format!("{:.1}", r.settle_ms.q2),
                format!("{:.1}", r.settle_ms.q3),
                format!("{:.1}", r.relative_pct.q1),
                format!("{:.1}", r.relative_pct.q2),
                format!("{:.1}", r.relative_pct.q3),
            ]
        })
        .collect();
    crate::render::write_csv(path, &headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_table1_has_paper_shape() {
        // A reduced-size smoke check of the full pipeline; `repro table1`
        // produces the full 100-run numbers.
        let cfg = ExperimentConfig {
            runs: 3,
            duration_ms: 250.0,
            fault_at_ms: 250.0,
            ..ExperimentConfig::default()
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[0].model, "No Intelligence");
        // The baseline row is the reference: its median is 100%.
        assert!((t.rows[0].relative_pct.q2 - 100.0).abs() < 1e-6);
        // The baseline pipeline-fills quickly; the full ordering of all
        // three medians is a statistical property checked at 100 runs
        // (`repro table1`), not in this 3-run smoke test.
        assert!(
            t.rows[0].settle_ms.q2 <= 100.0,
            "baseline settle {}ms",
            t.rows[0].settle_ms.q2
        );
        // FFW clearly outperforms the baseline even in tiny samples.
        assert!(
            t.rows[2].relative_pct.q2 > 105.0,
            "FFW relative perf {}%",
            t.rows[2].relative_pct.q2
        );
        let text = render(&t);
        assert!(text.contains("Foraging For Work"));
        assert!(
            text.starts_with(&format!(
                "Table I — settling time and relative performance, no faults \
                 (3 runs, reference {:.2} sinks/ms)\n",
                t.reference_rate
            )),
            "header: {}",
            text.lines().next().unwrap_or_default()
        );
    }
}
