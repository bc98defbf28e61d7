//! Observational transparency: turning telemetry on must not move a
//! single artefact byte, and the sim-plane sidecar must itself be
//! deterministic across every execution shape.
//!
//! Two families of guarantees, both byte-level:
//!
//! * **Artefacts are blind to telemetry.** A sweep, a shard run and a
//!   dispatched merge each produce the *same rendered artefact* whether
//!   observed (sidecar collector + wall-clock tracer attached) or not.
//!   The observer hooks hand state out of the engine and take nothing
//!   back.
//! * **The sidecar is a pure function of `(descriptor, seeds)`.** The
//!   rendered sidecar is byte-identical whether the runs executed as
//!   one sweep or were split across 1/2/4 shard plans (thread-count
//!   identity is unit-tested in `sirtm_scenario::observe`).

use std::path::PathBuf;
use std::time::Duration;

use sirtm_scenario::dispatch::{dispatch, DispatchOptions, Mock, ShardTransport};
use sirtm_scenario::telemetry::{SidecarCollector, Tracer};
use sirtm_scenario::{
    presets, run_shard, run_shard_observed, run_sweep, run_sweep_observed, Axis, ChaosConfig,
    ChaosLedger, ChaosTransport, SeedScheme, ShardPlan, SweepOptions, SweepSpec, SweepTelemetry,
};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sirtm_observe_it_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A 2-cell × 2-replicate sweep (4 runs) with one faulted cell, so the
/// artefact exercises the `null`-able recovery column both ways.
fn small_sweep(name: &str) -> SweepSpec {
    SweepSpec {
        name: name.to_string(),
        base: presets::preset("light-4x4").expect("known preset"),
        axes: vec![Axis::RandomFaults {
            at_ms: 60.0,
            counts: vec![0, 3],
        }],
        replicates: 2,
        seeds: SeedScheme::Derived { root: 0x0B5 },
    }
}

#[test]
fn sweep_artefact_is_byte_identical_with_telemetry_on_and_off() {
    let sweep = small_sweep("observe-sweep");
    let opts = SweepOptions { threads: 2 };
    let plain = run_sweep(&sweep, opts).to_json().render_pretty();
    let telemetry = SweepTelemetry::new(&sweep.name).with_tracer(Tracer::new(1024));
    let observed = run_sweep_observed(&sweep, opts, &telemetry)
        .to_json()
        .render_pretty();
    assert_eq!(plain, observed, "observer must not perturb the artefact");
    // And the observer really did observe: one sidecar record per run.
    assert_eq!(telemetry.sidecar().len(), sweep.run_count());
}

#[test]
fn shard_artefact_is_byte_identical_with_telemetry_on_and_off() {
    let sweep = small_sweep("observe-shard");
    let opts = SweepOptions { threads: 1 };
    let plan = ShardPlan::all(2, sweep.run_count())[0];
    let plain = run_shard(&sweep, plan, None, opts, None)
        .expect("shard runs")
        .result
        .expect("uninterrupted shard completes");
    let telemetry = SweepTelemetry::new(&sweep.name).with_tracer(Tracer::new(1024));
    let observed = run_shard_observed(&sweep, plan, None, opts, None, &telemetry)
        .expect("observed shard runs")
        .result
        .expect("uninterrupted shard completes");
    assert_eq!(
        plain.to_json().render_pretty(),
        observed.to_json().render_pretty(),
        "observer must not perturb the shard artefact"
    );
    assert_eq!(telemetry.sidecar().len(), plan.len());
}

#[test]
fn dispatched_merge_is_byte_identical_with_tracer_on_and_off() {
    let sweep = small_sweep("observe-dispatch");
    let run = |tracer: Option<Tracer>, dir: &str| {
        let dir = temp_dir(dir);
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(Mock::new("w0", &dir)),
            Box::new(Mock::new("w1", &dir)),
        ];
        let opts = DispatchOptions {
            poll_interval: Duration::ZERO,
            tracer,
            ..DispatchOptions::default()
        };
        let outcome = dispatch(&sweep, 2, &mut workers, &opts).expect("dispatch completes");
        let _ = std::fs::remove_dir_all(&dir);
        outcome.result.to_json().render_pretty()
    };
    let plain = run(None, "plain");
    let tracer = Tracer::new(4096);
    let traced = run(Some(tracer.clone()), "traced");
    assert_eq!(plain, traced, "tracer must not perturb the merged artefact");
    // The trace saw the dispatch: one dispatch span plus one attempt
    // span per shard, all closed.
    let events = tracer.events();
    assert!(
        events.iter().any(|e| e.name == "dispatch"),
        "missing dispatch span"
    );
    assert_eq!(
        events.iter().filter(|e| e.name == "attempt").count(),
        2,
        "one attempt span per shard"
    );
    assert!(events.iter().all(|e| e.dur_us.is_some()));
}

#[test]
fn chaos_dispatch_artefact_ignores_tracer_and_counts_match_trace() {
    let sweep = small_sweep("observe-chaos");
    // Freezes stay off: the Mock transport runs in-process and this
    // dispatch runs without stall detection.
    let cfg = ChaosConfig {
        seed: 7,
        fault_pct: 80,
        enable_freeze: false,
    };
    let run = |tracer: Option<Tracer>, dir: &str| {
        let dir = temp_dir(dir);
        let ledger = ChaosLedger::new();
        let mut workers: Vec<Box<dyn ShardTransport>> = (0..2)
            .map(|i| {
                let mut t =
                    ChaosTransport::new(Mock::new(&format!("w{i}"), &dir), cfg, ledger.clone());
                if let Some(tracer) = &tracer {
                    t = t.with_tracer(tracer.clone());
                }
                Box::new(t) as Box<dyn ShardTransport>
            })
            .collect();
        let opts = DispatchOptions {
            poll_interval: Duration::ZERO,
            max_attempts: 16,
            worker_strikes: 16,
            tracer: tracer.clone(),
            ..DispatchOptions::default()
        };
        let mut outcome = dispatch(&sweep, 2, &mut workers, &opts).expect("dispatch completes");
        outcome.report.attribute_faults(&ledger);
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    };
    let plain = run(None, "chaos-plain").result.to_json().render_pretty();
    let tracer = Tracer::new(4096);
    let traced = run(Some(tracer.clone()), "chaos-traced");
    assert_eq!(
        plain,
        traced.result.to_json().render_pretty(),
        "chaos tracer must not perturb the merged artefact"
    );
    // Same seed, same fault schedule: every injected fault in the
    // report must appear as a `fault` instant on the trace — same
    // vocabulary, same multiplicity — and per-worker attribution must
    // add back up to the pool totals.
    let injected: usize = traced.report.injected.iter().map(|(_, n)| n).sum();
    assert!(injected > 0, "chaos schedule must actually fire");
    let fault_events = tracer.events().iter().filter(|e| e.name == "fault").count();
    assert_eq!(
        injected, fault_events,
        "ledger counts and trace fault instants must agree"
    );
    let attributed: usize = traced
        .report
        .workers
        .iter()
        .flat_map(|w| w.faults.iter().map(|(_, n)| n))
        .sum();
    assert_eq!(
        injected, attributed,
        "per-worker fault attribution must cover every injected fault"
    );
}

#[test]
fn sidecar_is_byte_identical_across_shard_plans() {
    let sweep = small_sweep("observe-plans");
    let opts = SweepOptions { threads: 2 };
    // Reference: the whole sweep observed in one process.
    let whole = SweepTelemetry::new(&sweep.name);
    run_sweep_observed(&sweep, opts, &whole);
    let reference = whole.render_sidecar();
    for shards in [1usize, 2, 4] {
        // Each shard runs with its own collector; absorbing them in
        // any order must reproduce the whole-sweep sidecar byte for
        // byte, because records are keyed by flat run index.
        let merged = SidecarCollector::new(&sweep.name);
        // Absorb in reverse shard order to prove order-independence.
        for plan in ShardPlan::all(shards, sweep.run_count()).into_iter().rev() {
            let telemetry = SweepTelemetry::new(&sweep.name);
            run_shard_observed(&sweep, plan, None, opts, None, &telemetry)
                .expect("shard runs")
                .result
                .expect("uninterrupted shard completes");
            merged.absorb(telemetry.sidecar());
        }
        assert_eq!(
            reference,
            merged.render(),
            "sidecar must be byte-identical under a {shards}-shard plan"
        );
    }
}
