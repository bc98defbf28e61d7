//! The chaos harness against real processes: a seeded fault storm over
//! `ChaosTransport<LocalProcess>` workers — spawn refusals, mid-shard
//! kills, fetch errors, artefact corruption — must still converge to an
//! artefact **byte-identical** to a clean single-process sweep; and the `scenarios chaos-soak` CLI must
//! uphold the same invariant across damage/restart cycles.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use sirtm_scenario::{
    dispatch, presets, run_sweep, Axis, ChaosConfig, ChaosLedger, ChaosTransport, DispatchOptions,
    LocalProcess, RetryPolicy, SeedScheme, ShardTransport, SweepOptions, SweepSpec,
};

fn scenarios_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_scenarios"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sirtm_chaos_it_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn sweep_16() -> SweepSpec {
    SweepSpec {
        name: "chaos-it".to_string(),
        base: presets::preset("light-4x4").expect("known preset"),
        axes: vec![Axis::RandomFaults {
            at_ms: 60.0,
            counts: vec![0, 3],
        }],
        replicates: 8,
        seeds: SeedScheme::Derived { root: 0xC0A7 },
    }
}

/// A real fault storm over real worker processes. The seed is fixed, so
/// the storm is reproducible; the assertion is the tentpole invariant:
/// however many faults land, the merged artefact is the clean artefact.
#[test]
fn seeded_storm_over_local_processes_converges_byte_identical() {
    let sweep = sweep_16();
    let reference = run_sweep(&sweep, SweepOptions { threads: 2 })
        .to_json()
        .render_pretty();
    let dir = temp_dir("storm");
    let bin = scenarios_bin();
    let ledger = ChaosLedger::new();
    let cfg = ChaosConfig {
        seed: 0x57_0811,
        fault_pct: 40,
        enable_freeze: true,
    };
    let mut workers: Vec<Box<dyn ShardTransport>> = (0..2)
        .map(|i| {
            Box::new(ChaosTransport::new(
                LocalProcess::new(&format!("w{i}"), &bin, &dir, 1),
                cfg,
                ledger.clone(),
            )) as Box<dyn ShardTransport>
        })
        .collect();
    let opts = DispatchOptions {
        poll_interval: Duration::from_millis(1),
        stall_polls: 200,
        max_attempts: 25,
        worker_strikes: 1000,
        retry: RetryPolicy::persistent(cfg.seed),
        ..DispatchOptions::default()
    };
    let outcome = dispatch(&sweep, 4, &mut workers, &opts).expect("storm dispatch completes");
    assert_eq!(
        outcome.result.to_json().render_pretty(),
        reference,
        "the artefact must not carry a trace of the storm"
    );
    assert!(
        ledger.total() > 0,
        "a 40% storm over 4 shards must inject at least one fault"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// The `chaos-soak` CLI end to end: damage/restart cycles over the
/// checkpoint directory, each converging to the clean artefact, with
/// the injected-fault census in the report.
#[test]
fn chaos_soak_cli_survives_its_cycles_and_reports_the_faults() {
    let dir = temp_dir("soak_cli");
    let out = Command::new(scenarios_bin())
        .current_dir(&dir)
        .args([
            "chaos-soak",
            "light-4x4",
            "--runs",
            "4",
            "--seed",
            "11",
            "--threads",
            "1",
            "--cycles",
            "2",
            "--local",
            "2",
            "--poll-ms",
            "1",
            "--checkpoint",
            dir.join("work").to_str().expect("utf8 path"),
        ])
        .output()
        .expect("scenarios runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "chaos-soak failed: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("byte-identical"),
        "soak must report the invariant it checked: {stdout}"
    );
    let report = dir.join("target/sirtm/light-4x4.chaos-report.json");
    let report_text = std::fs::read_to_string(&report).expect("soak report written");
    assert!(report_text.contains("\"kind\": \"sirtm-dispatch-report\""));
    let _ = std::fs::remove_dir_all(dir);
}
