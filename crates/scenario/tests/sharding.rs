//! The sharded-execution guarantee: a sweep run as N shards — across
//! shard counts, per-shard thread counts, and interrupt-and-resume
//! through the checkpoint — merges to an artefact **byte-identical** to
//! the single-process sweep, and the merged artefact passes the same
//! structural check the CI smoke step applies.

use std::path::PathBuf;

use sirtm_scenario::shard::{checkpoint_file, fingerprint, load_checkpoint};
use sirtm_scenario::{
    check_artifact, merge_shards, presets, run_shard, run_sweep, Axis, SeedScheme, ShardPlan,
    ShardResult, SweepOptions, SweepSpec,
};

/// A 2-cell × 6-replicate sweep (12 runs) with one faulted cell, so
/// recovery fields (the `null`-able artefact column) are exercised.
fn sweep_12() -> SweepSpec {
    SweepSpec {
        name: "shard-matrix".to_string(),
        base: presets::preset("light-4x4").expect("known preset"),
        axes: vec![Axis::RandomFaults {
            at_ms: 60.0,
            counts: vec![0, 4],
        }],
        replicates: 6,
        seeds: SeedScheme::Derived { root: 0x5A4D },
    }
}

/// `sweep_12` with the paper's paired seeds: run `i` and run `6 + i`
/// share seed `base + i` and form a fork group whenever one invocation
/// holds both.
fn sweep_12_paired() -> SweepSpec {
    SweepSpec {
        name: "shard-matrix-paired".to_string(),
        seeds: SeedScheme::Sequential { base: 20_000 },
        ..sweep_12()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sirtm_sharding_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn shard_matrix_merges_byte_identical_to_unsharded() {
    // The paired sweep forks all six pairs when unsharded; 2, 4, 5 and 7
    // shards of 12 runs put every pair across a shard boundary, so each
    // of its runs executes alone from scratch there.
    for sweep in [sweep_12(), sweep_12_paired()] {
        let reference = run_sweep(&sweep, SweepOptions { threads: 1 })
            .to_json()
            .render_pretty();
        // Matrix: shard count × per-shard worker threads. Thread counts
        // are deliberately uneven across shards — partitioning must be a
        // pure function of the spec, not of execution resources.
        for shards in [1usize, 2, 4, 5, 7] {
            for threads in [1usize, 3] {
                let results: Vec<ShardResult> = ShardPlan::all(shards, sweep.run_count())
                    .into_iter()
                    .enumerate()
                    .map(|(k, plan)| {
                        let opts = SweepOptions {
                            threads: threads + k % 2,
                        };
                        run_shard(&sweep, plan, None, opts, None)
                            .expect("shard runs")
                            .result
                            .expect("uninterrupted shard completes")
                    })
                    .collect();
                let merged = merge_shards(&results).expect("complete shard set");
                let text = merged.to_json().render_pretty();
                assert_eq!(
                    text, reference,
                    "{}: {shards} shards × {threads} threads diverged from the single-process artefact",
                    sweep.name
                );
                // The merged artefact passes the `scenarios check` gate.
                assert_eq!(check_artifact(&text), Ok(sweep.run_count()));
            }
        }
    }
}

#[test]
fn interrupted_shard_resumes_from_its_checkpoint() {
    let sweep = sweep_12();
    let reference = run_sweep(&sweep, SweepOptions { threads: 2 })
        .to_json()
        .render_pretty();
    let dir = temp_dir("resume");
    let plans = ShardPlan::all(2, sweep.run_count());
    let opts = SweepOptions { threads: 2 };

    // Shard 1 is "killed" after 2 of its 6 runs: limit interrupts it
    // with the checkpoint intact and no artefact produced.
    let partial = run_shard(&sweep, plans[0], Some(&dir), opts, Some(2)).expect("partial runs");
    assert!(partial.result.is_none(), "interrupted shard is incomplete");
    assert_eq!((partial.resumed, partial.executed), (0, 2));
    let loaded = load_checkpoint(
        &checkpoint_file(&dir, plans[0]),
        &fingerprint(&sweep),
        plans[0],
    )
    .expect("checkpoint loads");
    assert_eq!(
        loaded.completed.len(),
        2,
        "two runs journalled before the kill"
    );
    assert_eq!(loaded.next_seq, 3, "rows are sequence-numbered from 1");

    // Resume with the same arguments: the two checkpointed runs load
    // instead of re-executing, the remaining four run now.
    let resumed = run_shard(&sweep, plans[0], Some(&dir), opts, None).expect("resume runs");
    assert_eq!((resumed.resumed, resumed.executed), (2, 4));
    let shard0 = resumed.result.expect("resumed shard completes");

    // A fully-checkpointed shard re-invocation executes nothing.
    let replay = run_shard(&sweep, plans[0], Some(&dir), opts, None).expect("replay runs");
    assert_eq!((replay.resumed, replay.executed), (6, 0));

    let shard1 = run_shard(&sweep, plans[1], Some(&dir), opts, None)
        .expect("shard 1 runs")
        .result
        .expect("completes");
    let merged = merge_shards(&[shard0, shard1]).expect("complete shard set");
    assert_eq!(
        merged.to_json().render_pretty(),
        reference,
        "resume path must not change a single byte of the artefact"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_interrupted_inside_a_fork_group_resumes_to_the_same_merge() {
    let sweep = sweep_12_paired();
    let reference = run_sweep(&sweep, SweepOptions { threads: 1 })
        .to_json()
        .render_pretty();
    let dir = temp_dir("fork-resume");
    let plan = ShardPlan::all(1, sweep.run_count())[0];
    let opts = SweepOptions { threads: 2 };
    // A limit of 8 admits runs 0..8: pairs (0, 6) and (1, 7) fork, and
    // the groups of runs 2..6 are cut before their partners 8..12.
    let partial = run_shard(&sweep, plan, Some(&dir), opts, Some(8)).expect("partial runs");
    assert!(partial.result.is_none(), "interrupted shard is incomplete");
    assert_eq!((partial.resumed, partial.executed), (0, 8));
    let resumed = run_shard(&sweep, plan, Some(&dir), opts, None).expect("resume runs");
    assert_eq!((resumed.resumed, resumed.executed), (8, 4));
    let merged = merge_shards(&[resumed.result.expect("resumed shard completes")])
        .expect("complete shard set");
    assert_eq!(merged.to_json().render_pretty(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_tail_is_dropped_and_recomputed() {
    let sweep = sweep_12();
    let dir = temp_dir("torn");
    let plan = ShardPlan::all(2, sweep.run_count())[0];
    let opts = SweepOptions { threads: 1 };
    run_shard(&sweep, plan, Some(&dir), opts, Some(3)).expect("partial runs");
    let path = checkpoint_file(&dir, plan);
    // Simulate a process killed mid-append: truncate the last line.
    let text = std::fs::read_to_string(&path).expect("checkpoint exists");
    let torn = &text[..text.len() - 20];
    std::fs::write(&path, torn).expect("writes");
    let loaded = load_checkpoint(&path, &fingerprint(&sweep), plan).expect("torn checkpoint loads");
    assert_eq!(loaded.completed.len(), 2, "the torn third line is dropped");
    // Resume recomputes the dropped run and completes the shard.
    let resumed = run_shard(&sweep, plan, Some(&dir), opts, None).expect("resume runs");
    assert_eq!(resumed.resumed, 2);
    assert_eq!(resumed.executed, 4);
    assert!(resumed.result.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_or_torn_header_checkpoints_heal_on_resume() {
    // A process killed between creating the journal and flushing the
    // header leaves an empty (or torn-header) file; resuming must start
    // the journal over instead of bricking the checkpoint.
    let sweep = sweep_12();
    let dir = temp_dir("headerless");
    let plan = ShardPlan::all(2, sweep.run_count())[0];
    let opts = SweepOptions { threads: 1 };
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = checkpoint_file(&dir, plan);
    for broken in ["", "{\"kind\":\"sirtm-shard-ch"] {
        std::fs::write(&path, broken).expect("writes");
        let loaded = load_checkpoint(&path, &fingerprint(&sweep), plan)
            .expect("broken-header checkpoint reads as empty");
        assert!(loaded.completed.is_empty());
        assert_eq!(loaded.valid_len, 0, "nothing in the journal is trusted");
        let report = run_shard(&sweep, plan, Some(&dir), opts, None).expect("heals and runs");
        assert_eq!((report.resumed, report.executed), (0, plan.len()));
        assert!(report.result.is_some());
        // The healed journal now resumes fully.
        let replay = run_shard(&sweep, plan, Some(&dir), opts, None).expect("replays");
        assert_eq!((replay.resumed, replay.executed), (plan.len(), 0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_of_an_edited_sweep_are_rejected() {
    let sweep = sweep_12();
    let dir = temp_dir("edited");
    let plan = ShardPlan::all(2, sweep.run_count())[0];
    run_shard(
        &sweep,
        plan,
        Some(&dir),
        SweepOptions { threads: 1 },
        Some(1),
    )
    .expect("runs");
    // Editing the sweep (one more replicate) changes the fingerprint;
    // resuming the old checkpoint against it must fail loudly. The plan
    // is rebuilt for the new size so the size assertion passes and the
    // fingerprint check is what fires.
    let mut edited = sweep.clone();
    edited.replicates += 1;
    let err = run_shard(
        &edited,
        ShardPlan::all(2, edited.run_count())[0],
        Some(&dir),
        SweepOptions { threads: 1 },
        None,
    )
    .expect_err("fingerprint mismatch");
    assert!(err.contains("fingerprint"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_artefacts_survive_disk_round_trips() {
    // The merge path the CLI exercises: write shard artefacts to disk,
    // read them back, merge, byte-compare with the in-memory merge.
    let sweep = sweep_12();
    let dir = temp_dir("disk");
    let opts = SweepOptions { threads: 2 };
    let in_memory: Vec<ShardResult> = ShardPlan::all(3, sweep.run_count())
        .into_iter()
        .map(|plan| {
            run_shard(&sweep, plan, None, opts, None)
                .expect("runs")
                .result
                .expect("completes")
        })
        .collect();
    let from_disk: Vec<ShardResult> = in_memory
        .iter()
        .map(|s| {
            let path = dir.join(ShardResult::artifact_name(&sweep.name, s.plan));
            s.write_json(&path).expect("writes");
            ShardResult::read(&path).expect("reads")
        })
        .collect();
    assert_eq!(from_disk, in_memory, "disk round-trip is lossless");
    let a = merge_shards(&in_memory).expect("merges");
    let b = merge_shards(&from_disk).expect("merges");
    assert_eq!(
        a.to_json().render_pretty(),
        b.to_json().render_pretty(),
        "merging read-back artefacts is byte-equal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
