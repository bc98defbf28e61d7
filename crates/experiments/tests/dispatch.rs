//! The dispatcher against real processes: a `LocalProcess` worker
//! killed mid-shard (SIGKILL, via the transport's chaos switch) must be
//! detected, its shard reassigned, and the merged artefact must stay
//! **byte-identical** to a single-process sweep; the `scenarios
//! dispatch` CLI must round-trip the same guarantee; and the `Ssh`
//! transport must speak the whole protocol over a loopback ssh shim —
//! no network, no daemon, just the real command/stdin/stdout plumbing.
//!
//! These tests drive the actual `scenarios` binary via
//! `CARGO_BIN_EXE_scenarios`, so they cover the `run --sweep … --shard
//! … --checkpoint …` surface the dispatcher speaks, not just the
//! library calls.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use sirtm_scenario::{
    dispatch, presets, run_sweep, Axis, DispatchOptions, LocalProcess, PollStatus, SeedScheme,
    ShardJob, ShardTransport, Ssh, SshHost, SweepOptions, SweepSpec,
};

fn scenarios_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_scenarios"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sirtm_dispatch_it_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// A 2-cell sweep with enough replicates that a shard takes many runs —
/// the chaos kill below must land mid-shard, between two checkpoint
/// appends, with wide margin.
fn sweep_24() -> SweepSpec {
    SweepSpec {
        name: "dispatch-it".to_string(),
        base: presets::preset("light-4x4").expect("known preset"),
        axes: vec![Axis::RandomFaults {
            at_ms: 60.0,
            counts: vec![0, 4],
        }],
        replicates: 12,
        seeds: SeedScheme::Derived { root: 0xD15 },
    }
}

#[test]
fn killed_local_worker_is_reassigned_and_merge_stays_byte_identical() {
    let sweep = sweep_24();
    let reference = run_sweep(&sweep, SweepOptions { threads: 2 })
        .to_json()
        .render_pretty();
    let dir = temp_dir("kill");
    let bin = scenarios_bin();
    // The victim SIGKILLs its own child as soon as the shard's
    // checkpoint shows one completed run — a real process death halfway
    // through a slice, not a simulated one. One strike retires it, so
    // the survivor must pick the orphaned shard up and resume it from
    // the shared checkpoint directory.
    let mut victim = LocalProcess::new("victim", &bin, &dir, 1);
    victim.chaos_kill_after = Some(1);
    let mut workers: Vec<Box<dyn ShardTransport>> = vec![
        Box::new(victim),
        Box::new(LocalProcess::new("survivor", &bin, &dir, 1)),
    ];
    let opts = DispatchOptions {
        poll_interval: Duration::from_millis(1),
        stall_polls: 0,
        max_attempts: 6,
        worker_strikes: 1,
        ..DispatchOptions::default()
    };
    let outcome = dispatch(&sweep, 4, &mut workers, &opts).expect("dispatch completes");
    assert!(
        outcome.report.reassignments() >= 1,
        "the chaos kill must force at least one reassignment: {:?}",
        outcome.report.shards
    );
    assert!(
        outcome
            .report
            .shards
            .iter()
            .flat_map(|s| &s.attempts)
            .any(|a| a.outcome.contains("chaos-killed")),
        "the kill must be visible in the report: {:?}",
        outcome.report.shards
    );
    assert!(
        outcome.report.workers[0].retired,
        "one strike retires the victim"
    );
    assert_eq!(
        outcome.result.to_json().render_pretty(),
        reference,
        "reassignment must not perturb a single byte of the artefact"
    );
    let _ = std::fs::remove_dir_all(dir);
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(scenarios_bin())
        .args(args)
        .output()
        .expect("scenarios runs")
}

#[test]
fn dispatch_cli_artifact_is_byte_identical_to_run_cli() {
    let dir = temp_dir("cli");
    let reference = dir.join("ref.json");
    let dispatched = dir.join("disp.json");
    let report = dir.join("report.json");
    let out = run_cli(&[
        "run",
        "light-4x4",
        "--runs",
        "6",
        "--seed",
        "77",
        "--threads",
        "1",
        "--out",
        reference.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run_cli(&[
        "dispatch",
        "light-4x4",
        "--runs",
        "6",
        "--seed",
        "77",
        "--threads",
        "1",
        "--local",
        "2",
        "--poll-ms",
        "1",
        "--checkpoint",
        dir.join("work").to_str().expect("utf8 path"),
        "--out",
        dispatched.to_str().expect("utf8 path"),
        "--report",
        report.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ref_bytes = std::fs::read(&reference).expect("reference artefact");
    let disp_bytes = std::fs::read(&dispatched).expect("dispatched artefact");
    assert_eq!(
        ref_bytes, disp_bytes,
        "CLI artefacts must be byte-identical"
    );
    let report_text = std::fs::read_to_string(&report).expect("report artefact");
    assert!(report_text.contains("\"kind\": \"sirtm-dispatch-report\""));
    assert!(report_text.contains("\"workers\""));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn zero_run_inputs_exit_2_with_a_message() {
    let dir = temp_dir("zero_runs");
    let sweep = dir.join("zero.json");
    std::fs::write(
        &sweep,
        r#"{"name": "z", "base": {"name": "b", "grid": [4,4], "model": "ffw",
            "duration_ms": 60}, "replicates": 0,
            "seeds": {"scheme": "derived", "root": "7"}}"#,
    )
    .expect("write descriptor");
    let sweep = sweep.to_str().expect("utf8 path");
    let work = dir.join("work");
    let work = work.to_str().expect("utf8 path");
    for (args, needle) in [
        (&["run", "light-4x4", "--runs", "0"][..], "--runs"),
        (&["fuzz", "--budget", "0"][..], "--budget"),
        (
            &[
                "dispatch",
                "light-4x4",
                "--runs",
                "0",
                "--local",
                "1",
                "--checkpoint",
                work,
            ][..],
            "--runs",
        ),
        (&["run", "--sweep", sweep][..], "replicates"),
    ] {
        let out = run_cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--runs", "0"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2), "repro --runs 0");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn merge_cli_names_the_offending_file_on_fingerprint_mismatch() {
    let dir = temp_dir("merge_names");
    let shard = |k: usize, out: &Path| {
        let out = run_cli(&[
            "run",
            "light-4x4",
            "--runs",
            "4",
            "--seed",
            "9",
            "--threads",
            "1",
            "--shard",
            &format!("{k}/2"),
            "--out",
            out.to_str().expect("utf8 path"),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let a = dir.join("a.json");
    let b = dir.join("tampered-b.json");
    shard(1, &a);
    shard(2, &b);
    // Forge shard B's fingerprint: merge must name the file, not just
    // report that some mismatch happened somewhere.
    let text = std::fs::read_to_string(&b).expect("shard artefact");
    let forged = text.replacen(
        text.split("\"fingerprint\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("artefact carries a fingerprint"),
        "0000000000000000",
        1,
    );
    std::fs::write(&b, forged).expect("tamper");
    let out = run_cli(&[
        "merge",
        a.to_str().expect("utf8 path"),
        b.to_str().expect("utf8 path"),
    ]);
    assert!(!out.status.success(), "merging a forged shard must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("tampered-b.json"),
        "error must name the offending file: {stderr}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// The `Ssh` transport end to end, against a loopback shim that runs
/// the "remote" command in a local shell: staging over stdin, the
/// remote `run --sweep … --shard …` invocation, `wc`-based heartbeats
/// and `cat`-based artefact fetch all exercise the exact strings a real
/// ssh client would carry.
#[cfg(unix)]
#[test]
fn ssh_transport_over_a_loopback_shim_merges_byte_identical() {
    use std::os::unix::fs::PermissionsExt;

    let sweep = sweep_24();
    let reference = run_sweep(&sweep, SweepOptions { threads: 2 })
        .to_json()
        .render_pretty();
    let dir = temp_dir("ssh");
    let shim = dir.join("fake-ssh");
    std::fs::write(
        &shim,
        "#!/bin/sh\n# fake-ssh [-o OPT]... HOST COMMAND: drop the options and HOST,\n# run COMMAND locally.\nwhile [ \"$1\" = \"-o\" ]; do shift 2; done\nshift\nexec /bin/sh -c \"$1\"\n",
    )
    .expect("shim writes");
    std::fs::set_permissions(&shim, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    let remote_dir = dir.join("remote");
    let host = SshHost {
        host: "loopback".to_string(),
        bin: scenarios_bin().to_str().expect("utf8 path").to_string(),
        dir: remote_dir.to_str().expect("utf8 path").to_string(),
        threads: 1,
    };
    let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(Ssh::with_program(
        host,
        shim.to_str().expect("utf8 path"),
    ))];
    let opts = DispatchOptions {
        poll_interval: Duration::from_millis(1),
        ..DispatchOptions::default()
    };
    let outcome = dispatch(&sweep, 2, &mut workers, &opts).expect("ssh dispatch completes");
    assert_eq!(outcome.result.to_json().render_pretty(), reference);
    assert_eq!(outcome.report.reassignments(), 0);
    // The "remote" side really staged the protocol files.
    assert!(remote_dir.join("ckpt").is_dir(), "checkpoint dir staged");
    let staged_descriptors = || {
        std::fs::read_dir(&remote_dir)
            .expect("remote dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("sweep-"))
            .count()
    };
    assert_eq!(staged_descriptors(), 1, "descriptor staged over stdin");
    // Reusing the same worker pool for a *different* sweep must
    // restage its descriptor (staging is keyed on the fingerprint, not
    // on the worker's lifetime).
    let mut sweep2 = sweep_24();
    sweep2.seeds = SeedScheme::Derived { root: 0xD16 };
    let reference2 = run_sweep(&sweep2, SweepOptions { threads: 2 })
        .to_json()
        .render_pretty();
    let outcome2 = dispatch(&sweep2, 2, &mut workers, &opts).expect("reused pool dispatches");
    assert_eq!(outcome2.result.to_json().render_pretty(), reference2);
    assert_eq!(
        staged_descriptors(),
        2,
        "second sweep staged its own descriptor"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(unix)]
fn write_shim(path: &Path, body: &str) {
    use std::os::unix::fs::PermissionsExt;
    std::fs::write(path, body).expect("shim writes");
    std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
}

/// Degraded Ssh heartbeats: when the heartbeat round trip itself fails
/// (control connection blip), `heartbeat()` must return the **last
/// observed** value — a transient ssh error reads as "no new progress",
/// not as a sudden regression to zero that would look like a restarted
/// shard. The shim drops `wc`-based heartbeat commands on the floor
/// while a marker file exists, leaving every other protocol command
/// intact.
#[cfg(unix)]
#[test]
fn ssh_heartbeat_outage_returns_the_last_observed_value() {
    let sweep = sweep_24();
    let dir = temp_dir("ssh_hb_outage");
    let marker = dir.join("link-down");
    let shim = dir.join("flaky-ssh");
    write_shim(
        &shim,
        &format!(
            "#!/bin/sh\n\
             # fake-ssh whose heartbeat round trips fail while the\n\
             # marker file exists; everything else runs locally.\n\
             while [ \"$1\" = \"-o\" ]; do shift 2; done\n\
             shift\n\
             case \"$1\" in\n\
             \"wc -l\"*) [ -e '{}' ] && exit 255 ;;\n\
             esac\n\
             exec /bin/sh -c \"$1\"\n",
            marker.display()
        ),
    );
    let host = SshHost {
        host: "loopback".to_string(),
        bin: scenarios_bin().to_str().expect("utf8 path").to_string(),
        dir: dir.join("remote").to_str().expect("utf8 path").to_string(),
        threads: 1,
    };
    let mut worker = Ssh::with_program(host, shim.to_str().expect("utf8 path"));
    // Drive the transport directly: run one 6-run shard to completion,
    // so the remote checkpoint holds a known number of rows.
    let job = ShardJob::plan_sweep(&sweep, 4).remove(0);
    worker.spawn(&job).expect("spawn over shim");
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while worker.poll() == PollStatus::Running {
        assert!(std::time::Instant::now() < deadline, "remote run timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
    let healthy = worker.heartbeat();
    assert_eq!(
        healthy,
        job.plan.len(),
        "a finished shard's checkpoint carries one row per run"
    );
    // Sever the heartbeat path: the observed value must hold steady.
    std::fs::write(&marker, "down").expect("marker writes");
    assert_eq!(
        worker.heartbeat(),
        healthy,
        "a failed round trip must return the last observed heartbeat"
    );
    assert_eq!(worker.heartbeat(), healthy, "and keep returning it");
    // The outage only degraded observation — fetch still works once the
    // link is back.
    std::fs::remove_file(&marker).expect("marker clears");
    assert_eq!(worker.heartbeat(), healthy);
    worker.fetch(&job).expect("artefact fetch after outage");
    let _ = std::fs::remove_dir_all(dir);
}

/// A dead host in the pool: every ssh invocation to it fails (exit 255,
/// like a real unreachable host), so its spawns strike out and the
/// dispatcher retires it while the healthy loopback worker finishes the
/// sweep byte-identically. A pool of *only* dead hosts must fail the
/// dispatch with an error that says so.
#[cfg(unix)]
#[test]
fn dead_ssh_host_is_retired_and_the_survivor_completes() {
    let sweep = sweep_24();
    let reference = run_sweep(&sweep, SweepOptions { threads: 2 })
        .to_json()
        .render_pretty();
    let dir = temp_dir("ssh_dead_host");
    let good_shim = dir.join("fake-ssh");
    write_shim(
        &good_shim,
        "#!/bin/sh\nwhile [ \"$1\" = \"-o\" ]; do shift 2; done\nshift\nexec /bin/sh -c \"$1\"\n",
    );
    let dead_shim = dir.join("dead-ssh");
    write_shim(
        &dead_shim,
        "#!/bin/sh\n# Unreachable host: every connection attempt fails.\nexit 255\n",
    );
    let host = |name: &str| SshHost {
        host: name.to_string(),
        bin: scenarios_bin().to_str().expect("utf8 path").to_string(),
        dir: dir.join(name).to_str().expect("utf8 path").to_string(),
        threads: 1,
    };
    let mut workers: Vec<Box<dyn ShardTransport>> = vec![
        Box::new(Ssh::with_program(
            host("dead"),
            dead_shim.to_str().expect("utf8 path"),
        )),
        Box::new(Ssh::with_program(
            host("alive"),
            good_shim.to_str().expect("utf8 path"),
        )),
    ];
    let opts = DispatchOptions {
        poll_interval: Duration::from_millis(1),
        max_attempts: 8,
        worker_strikes: 2,
        ..DispatchOptions::default()
    };
    let outcome = dispatch(&sweep, 2, &mut workers, &opts).expect("survivor completes");
    assert!(
        outcome.report.workers[0].retired,
        "the dead host must be struck out: {:?}",
        outcome.report.workers
    );
    assert!(
        !outcome.report.workers[1].retired,
        "the healthy worker stays in the pool"
    );
    assert_eq!(
        outcome.result.to_json().render_pretty(),
        reference,
        "a dead host must not perturb the artefact"
    );
    // A pool with no healthy worker cannot limp through: the dispatch
    // fails and the error names the retirements.
    let mut only_dead: Vec<Box<dyn ShardTransport>> = vec![Box::new(Ssh::with_program(
        host("dead2"),
        dead_shim.to_str().expect("utf8 path"),
    ))];
    let err = dispatch(&sweep, 2, &mut only_dead, &opts).expect_err("all-dead pool fails");
    assert!(err.contains("retired"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(dir);
}
