//! Table II — recovery time and relative performance after fault
//! injection at 500 ms, for 0/2/4/8/16/32 faults.
//!
//! "Performance reached — relative to highlighted case — after recovery
//! time following fault injection at 500 ms. Shown are median (Q2) and
//! 25th/75th percentiles (Q1/Q3) for 100 independent, randomly
//! initialised runs of each experiment."
//!
//! The table is one declarative sweep: model × fault level (see
//! [`sirtm_scenario::presets::table2_sweep`]), seeded `20000 + i`.

use sirtm_scenario::stats::Quartiles;
use sirtm_scenario::{presets, run_sweep, ScenarioSpec, SweepOptions, SweepSpec};

/// The paper's fault sweep.
pub const FAULT_LEVELS: [usize; 6] = [0, 2, 4, 8, 16, 32];

/// One Table II row (a model × fault-count cell group).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Model name.
    pub model: String,
    /// Injected fault count.
    pub faults: usize,
    /// Recovery time quartiles in ms (`None` for the 0-fault row).
    pub recovery_ms: Option<Quartiles>,
    /// End-of-run throughput relative to the fault-free baseline median,
    /// in percent.
    pub relative_pct: Quartiles,
}

/// The full Table II.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows grouped by model, fault levels ascending within each group.
    pub rows: Vec<Table2Row>,
    /// The normalisation reference (fault-free baseline median rate).
    pub reference_rate: f64,
}

/// Table II as a sweep spec: `runs` replicates per model × fault level,
/// with the historical seeds. The faults land at the end of `base`'s
/// settle region.
pub fn sweep(base: &ScenarioSpec, runs: usize) -> SweepSpec {
    presets::table2_sweep(base.clone(), crate::fault_at_ms(base), &FAULT_LEVELS, runs)
}

/// Regenerates Table II.
pub fn run(base: &ScenarioSpec, runs: usize) -> Table2 {
    let result = run_sweep(&sweep(base, runs), SweepOptions::default());
    // First cell is the baseline, 0 faults: the highlighted row.
    let reference_rate = result.cells[0].final_rate.q2.max(1e-9);
    let rows = result
        .cells
        .iter()
        .map(|cell| Table2Row {
            // The cell's own labels are authoritative (axis order is an
            // orchestrator detail, not a contract).
            model: crate::table1::display_name(&crate::table1::cell_model(cell)),
            faults: cell
                .labels
                .iter()
                .find(|(k, _)| k == "faults")
                .and_then(|(_, v)| v.parse().ok())
                .expect("table2 cells carry a fault level"),
            recovery_ms: cell.recovery_ms,
            relative_pct: cell.final_rate.scaled(100.0 / reference_rate),
        })
        .collect();
    Table2 {
        rows,
        reference_rate,
    }
}

/// Renders the table in the paper's layout.
pub fn render(table: &Table2) -> String {
    let headers = [
        "Model",
        "Faults",
        "Rec Q1 (ms)",
        "Rec Q2 (ms)",
        "Rec Q3 (ms)",
        "Perf Q1",
        "Perf Q2",
        "Perf Q3",
    ];
    let dash = || "-".to_string();
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            let (r1, r2, r3) = match &r.recovery_ms {
                Some(q) => (
                    format!("{:.0}", q.q1),
                    format!("{:.0}", q.q2),
                    format!("{:.0}", q.q3),
                ),
                None => (dash(), dash(), dash()),
            };
            vec![
                r.model.clone(),
                r.faults.to_string(),
                r1,
                r2,
                r3,
                format!("{:.0}%", r.relative_pct.q1),
                format!("{:.0}%", r.relative_pct.q2),
                format!("{:.0}%", r.relative_pct.q3),
            ]
        })
        .collect();
    format!(
        "Table II — recovery time and relative performance after faults at 500 ms \
         (reference {:.2} sinks/ms)\n{}",
        table.reference_rate,
        crate::render::ascii_table(&headers, &rows)
    )
}

/// Writes the table as CSV for external analysis.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_csv(table: &Table2, path: &std::path::Path) -> std::io::Result<()> {
    let headers = [
        "model",
        "faults",
        "recovery_q1_ms",
        "recovery_q2_ms",
        "recovery_q3_ms",
        "perf_q1_pct",
        "perf_q2_pct",
        "perf_q3_pct",
    ];
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            let rec = |f: fn(&Quartiles) -> f64| {
                r.recovery_ms
                    .as_ref()
                    .map(|q| format!("{:.1}", f(q)))
                    .unwrap_or_default()
            };
            vec![
                r.model.clone(),
                r.faults.to_string(),
                rec(|q| q.q1),
                rec(|q| q.q2),
                rec(|q| q.q3),
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
    use sirtm_core::models::ModelKind;

    #[test]
    fn small_table2_shows_degradation_with_faults() {
        let mut base = ScenarioSpec::new("t2", ModelKind::NoIntelligence);
        base.duration_ms = 240.0;
        base.settle_region_ms = Some(120.0);
        let t = run(&base, 1);
        assert_eq!(t.rows.len(), 3 * FAULT_LEVELS.len());
        // 0-fault rows have no recovery time.
        assert!(t.rows[0].recovery_ms.is_none());
        assert!(t.rows[1].recovery_ms.is_some());
        // Baseline with 32 faults is clearly below its fault-free self.
        let base0 = &t.rows[0];
        let base32 = &t.rows[FAULT_LEVELS.len() - 1];
        assert_eq!(base32.faults, 32);
        assert!(
            base32.relative_pct.q2 < base0.relative_pct.q2,
            "32 faults must cost the baseline throughput: {} vs {}",
            base32.relative_pct.q2,
            base0.relative_pct.q2
        );
        let text = render(&t);
        assert!(text.contains("Table II"));
    }
}
