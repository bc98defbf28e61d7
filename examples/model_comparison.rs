//! Head-to-head model comparison on identical fault histories.
//!
//! Runs the paper's three models over the same seeds and fault sets and
//! prints the steady-state throughput each achieves — the quick-look
//! version of Tables I/II (use `cargo run --release -p sirtm-experiments
//! --bin repro` for the full 100-run tables).
//!
//! Run with:
//! ```text
//! cargo run --release --example model_comparison
//! ```

use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_scenario::{run_spec, EventAction, EventSpec, ScenarioSpec};

fn main() {
    let models = [
        ("No Intelligence   ", ModelKind::NoIntelligence),
        (
            "Network Interaction",
            ModelKind::NetworkInteraction(NiConfig::default()),
        ),
        (
            "Foraging For Work  ",
            ModelKind::ForagingForWork(FfwConfig::default()),
        ),
    ];
    for faults in [0usize, 5, 42] {
        println!("— {faults} faults at 300 ms —");
        let mut baseline = None;
        for (name, model) in &models {
            let mut spec = ScenarioSpec::new(name.trim(), model.clone());
            spec.duration_ms = 600.0;
            spec.window_ms = 5.0;
            spec.settle_region_ms = Some(300.0);
            if faults > 0 {
                spec.events = vec![EventSpec {
                    at_ms: 300.0,
                    action: EventAction::RandomPeFaults { count: faults },
                }];
            }
            let r = run_spec(&spec, 42);
            let b = *baseline.get_or_insert(r.final_rate);
            println!(
                "  {name}  steady {:.2} sinks/ms  ({:>5.1}% of baseline)  settle {:>3.0} ms{}",
                r.final_rate,
                r.final_rate / b * 100.0,
                r.settle_ms,
                r.recovery_ms
                    .map(|m| format!("  recovery {m:.0} ms"))
                    .unwrap_or_default(),
            );
        }
    }
}
