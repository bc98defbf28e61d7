//! The scenario engine driver: list, inspect, run, shard, merge and
//! verify declarative scenario sweeps.
//!
//! ```text
//! scenarios list                              preset library
//! scenarios show NAME                         print a preset's spec JSON
//! scenarios run NAME [--runs N] [--threads T] [--seed S]
//!               [--out PATH] [--csv PATH]     sweep a preset
//! scenarios run --spec FILE [...]             sweep a spec loaded from JSON
//! scenarios run --sweep FILE [...]            sweep a full sweep descriptor
//! scenarios run NAME --shard K/N [--checkpoint DIR] [--limit M]
//!                                             run one shard of the sweep
//! scenarios shard-plan NAME --shards N        print the deterministic partition
//! scenarios merge SHARD.json... [--out PATH]  recombine shard artefacts
//! scenarios dispatch NAME --local N --checkpoint DIR
//!                                             fan shards out across workers
//! scenarios chaos-soak NAME --local N --checkpoint DIR
//!               [--cycles C] [--chaos-seed S] [--chaos-rate PCT]
//!                                             fault-storm dispatch soak
//! scenarios fuzz [NAME] [--budget N] [--fuzz-seed S] [--threshold X]
//!               [--runs R] [--corpus PATH] [--log PATH]
//!                                             adversarial scenario search
//! scenarios fuzz replay PATH                  re-run a frontier corpus bit-exactly
//! scenarios check PATH                        re-parse a sweep artefact
//! scenarios status --checkpoint DIR           live per-shard/per-worker progress
//! scenarios trace check PATH                  validate a trace file
//! ```
//!
//! `run` executes `--runs` replicates of the scenario on `--threads`
//! workers (0 = all cores) and writes the JSON artefact (default
//! `target/sirtm/<name>.json`); `check` exits non-zero unless the
//! artefact parses and every per-run row carries finite measures.
//!
//! With `--shard K/N` (1-based K), `run` executes only shard K of the
//! sweep's deterministic N-way partition and writes a partial shard
//! artefact. `--checkpoint DIR` journals every completed run so a killed
//! shard resumes from its last completed run when re-invoked with the
//! same arguments; `--limit M` stops after M new runs (the interrupt
//! switch the CI smoke job flips on purpose). `merge` recombines a
//! complete shard set into an artefact byte-identical to the
//! single-process sweep. See `docs/sharding.md`.
//!
//! `dispatch` runs the whole protocol at once: it partitions the sweep
//! into `--shards M` shards (default: one per worker) and fans them out
//! across `--local N` subprocess workers sharing the `--checkpoint DIR`
//! work directory, work-stealing style, with checkpoint-heartbeat stall
//! detection (`--stall-polls`), automatic reassignment of dead workers'
//! shards, a per-worker timing/retry report (`--report PATH`) and a
//! final fingerprint-verified merge — the merged artefact is
//! byte-identical to `run` in one process (the CI dispatch smoke
//! `cmp`s them). `--sweep FILE` accepts a full sweep descriptor (what
//! `SweepSpec::to_json` emits and the dispatcher ships to workers), in
//! which case `--runs`/`--seed` are ignored. See `docs/dispatch.md`.
//!
//! `chaos-soak` runs `--cycles` dispatch cycles of the same sweep under
//! seeded fault injection (spawn refusals, mid-shard kills, frozen
//! heartbeats, fetch errors, artefact corruption), damaging a surviving
//! checkpoint journal between cycles, and asserts every cycle's merged
//! artefact is byte-identical to the clean single-process sweep. The fault mix is
//! reproducible from `--chaos-seed`; injected-fault counts land in the
//! dispatch report. See `docs/chaos.md`.
//!
//! `fuzz` runs an adversarial scenario search (`docs/fuzzing.md`): a
//! deterministic generate-evaluate-shrink campaign that mutates the
//! base spec's timeline, scores candidates with the failure-probe
//! fitness vocabulary, shrinks frontier finds to minimal reproducers
//! and pins them into a JSONL corpus (`--corpus`, default
//! `target/sirtm/fuzz-<base>-corpus.jsonl`) alongside a campaign log
//! (`--log`). Both artefacts are pure functions of `--fuzz-seed`:
//! byte-identical across repeats and `--threads` counts (the CI smoke
//! job `cmp`s them). `fuzz replay PATH` re-runs every corpus entry
//! bit-exactly and exits non-zero on any fitness or fingerprint drift.
//!
//! Observability (`docs/observability.md`): `--sidecar PATH` writes the
//! deterministic sim-plane counter sidecar next to a `run`'s artefact
//! (bit-identical across thread counts and shard plans, and never part
//! of the fingerprinted artefact itself); `--trace PATH` writes a
//! Chrome trace-event JSON of host-plane spans and `--trace-jsonl PATH`
//! streams the same events live, one JSON object per line. `status`
//! reads the checkpoint journals (and, with `--trace-jsonl`, the live
//! trace stream) of a dispatch in flight and renders per-shard,
//! per-worker progress without disturbing the run. `trace check`
//! validates either trace format.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sirtm_experiments::render;
use sirtm_scenario::json::{parse, Json};
use sirtm_scenario::shard::{atomic_write, checkpoint_file, fingerprint};
use sirtm_scenario::telemetry::Tracer;
use sirtm_scenario::{
    check_artifact, dispatch, journal_progress, merge_named_shards, parse_corpus, presets,
    replay_entry, run_campaign, run_shard_observed, run_sweep, run_sweep_observed, ChaosConfig,
    ChaosLedger, ChaosTransport, DispatchOptions, FaultyFs, FuzzConfig, FuzzTelemetry,
    LocalProcess, OnlineStats, RetryPolicy, ScenarioSpec, SeedScheme, ShardPlan, ShardResult,
    ShardTransport, SweepOptions, SweepResult, SweepSpec, SweepTelemetry,
};

fn die(msg: &str) -> ! {
    eprintln!("scenarios: {msg}");
    eprintln!(
        "usage: scenarios [list|show NAME|run NAME|shard-plan NAME|merge SHARD...|dispatch NAME|\
         chaos-soak NAME|fuzz [NAME]|fuzz replay PATH|check PATH|status|trace check PATH] \
         [--spec FILE] \
         [--sweep FILE] [--runs N] [--threads T] [--seed S] [--out PATH] [--csv PATH] \
         [--shards N] [--shard K/N] [--checkpoint DIR] [--limit M] [--local N] \
         [--report PATH] [--poll-ms MS] [--stall-polls K] [--max-attempts A] [--cycles C] \
         [--chaos-seed S] [--chaos-rate PCT] [--budget N] [--fuzz-seed S] [--threshold X] \
         [--corpus PATH] [--log PATH] [--sidecar PATH] [--trace PATH] \
         [--trace-jsonl PATH]"
    );
    std::process::exit(2);
}

struct Args {
    command: String,
    targets: Vec<String>,
    spec_file: Option<PathBuf>,
    sweep_file: Option<PathBuf>,
    runs: Option<usize>,
    threads: usize,
    seed: u64,
    out: Option<PathBuf>,
    csv: Option<PathBuf>,
    shards: usize,
    shard: Option<(usize, usize)>,
    checkpoint: Option<PathBuf>,
    limit: Option<usize>,
    local: usize,
    report: Option<PathBuf>,
    poll_ms: u64,
    stall_polls: usize,
    max_attempts: usize,
    cycles: usize,
    chaos_seed: u64,
    chaos_rate: u64,
    sidecar: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_jsonl: Option<PathBuf>,
    budget: usize,
    fuzz_seed: u64,
    threshold: f64,
    corpus: Option<PathBuf>,
    log: Option<PathBuf>,
}

impl Args {
    fn target(&self) -> Option<&str> {
        self.targets.first().map(String::as_str)
    }
}

/// Parses `K/N` with 1-based K.
fn parse_shard(text: &str) -> (usize, usize) {
    fn bad() -> ! {
        die("--shard needs K/N with 1 <= K <= N, e.g. --shard 2/4")
    }
    let Some((k, n)) = text.split_once('/') else {
        bad()
    };
    let k: usize = k.parse().unwrap_or_else(|_| bad());
    let n: usize = n.parse().unwrap_or_else(|_| bad());
    if k == 0 || k > n {
        bad();
    }
    (k, n)
}

/// Parses a count that must be at least 1, or dies with `msg`.
fn parse_count(text: &str, msg: &str) -> usize {
    text.parse()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| die(msg))
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "list".to_string(),
        targets: Vec::new(),
        spec_file: None,
        sweep_file: None,
        runs: None,
        threads: 0,
        seed: 2020,
        out: None,
        csv: None,
        shards: 0,
        shard: None,
        checkpoint: None,
        limit: None,
        local: 0,
        report: None,
        poll_ms: 25,
        stall_polls: 0,
        max_attempts: 5,
        cycles: 3,
        chaos_seed: 0xC4A05,
        chaos_rate: 25,
        sidecar: None,
        trace: None,
        trace_jsonl: None,
        budget: 60,
        fuzz_seed: 0xC0FFEE,
        threshold: 1.0,
        corpus: None,
        log: None,
    };
    let mut it = std::env::args().skip(1);
    if let Some(cmd) = it.next() {
        args.command = cmd;
    }
    while let Some(flag) = it.next() {
        let mut next_val = |what: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match flag.as_str() {
            "--spec" => args.spec_file = Some(PathBuf::from(next_val("--spec"))),
            "--sweep" => args.sweep_file = Some(PathBuf::from(next_val("--sweep"))),
            "--runs" => {
                args.runs = Some(parse_count(
                    &next_val("--runs"),
                    "--runs needs a run count >= 1",
                ));
            }
            "--threads" => {
                args.threads = next_val("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("--threads needs a number"));
            }
            "--seed" => {
                args.seed = next_val("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs a number"));
            }
            "--out" => args.out = Some(PathBuf::from(next_val("--out"))),
            "--csv" => args.csv = Some(PathBuf::from(next_val("--csv"))),
            "--shards" => {
                args.shards = next_val("--shards")
                    .parse()
                    .unwrap_or_else(|_| die("--shards needs a number"));
            }
            "--shard" => args.shard = Some(parse_shard(&next_val("--shard"))),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(next_val("--checkpoint"))),
            "--limit" => {
                args.limit = Some(
                    next_val("--limit")
                        .parse()
                        .unwrap_or_else(|_| die("--limit needs a number")),
                );
            }
            "--local" => {
                args.local = next_val("--local")
                    .parse()
                    .unwrap_or_else(|_| die("--local needs a worker count"));
            }
            "--report" => args.report = Some(PathBuf::from(next_val("--report"))),
            "--poll-ms" => {
                args.poll_ms = next_val("--poll-ms")
                    .parse()
                    .unwrap_or_else(|_| die("--poll-ms needs a number"));
            }
            "--stall-polls" => {
                args.stall_polls = next_val("--stall-polls")
                    .parse()
                    .unwrap_or_else(|_| die("--stall-polls needs a number"));
            }
            "--max-attempts" => {
                args.max_attempts = next_val("--max-attempts")
                    .parse()
                    .unwrap_or_else(|_| die("--max-attempts needs a number"));
            }
            "--cycles" => {
                args.cycles =
                    parse_count(&next_val("--cycles"), "--cycles needs a cycle count >= 1");
            }
            "--chaos-seed" => {
                // Seeds are conventionally quoted in hex (0xC4A05 in the
                // docs and CI), so accept both spellings.
                let v = next_val("--chaos-seed");
                args.chaos_seed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
                    .unwrap_or_else(|_| die("--chaos-seed needs a number (decimal or 0x-hex)"));
            }
            "--chaos-rate" => {
                args.chaos_rate = next_val("--chaos-rate")
                    .parse()
                    .ok()
                    .filter(|&pct| pct <= 100)
                    .unwrap_or_else(|| die("--chaos-rate needs a percentage 0-100"));
            }
            "--budget" => {
                args.budget = parse_count(
                    &next_val("--budget"),
                    "--budget needs an evaluation count >= 1",
                );
            }
            "--fuzz-seed" => {
                // Hex-quoted like --chaos-seed (0xC0FFEE in the docs and CI).
                let v = next_val("--fuzz-seed");
                args.fuzz_seed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16))
                    .unwrap_or_else(|_| die("--fuzz-seed needs a number (decimal or 0x-hex)"));
            }
            "--threshold" => {
                args.threshold = next_val("--threshold")
                    .parse()
                    .ok()
                    .filter(|x: &f64| x.is_finite())
                    .unwrap_or_else(|| die("--threshold needs a finite fitness value"));
            }
            "--corpus" => args.corpus = Some(PathBuf::from(next_val("--corpus"))),
            "--log" => args.log = Some(PathBuf::from(next_val("--log"))),
            "--sidecar" => args.sidecar = Some(PathBuf::from(next_val("--sidecar"))),
            "--trace" => args.trace = Some(PathBuf::from(next_val("--trace"))),
            "--trace-jsonl" => args.trace_jsonl = Some(PathBuf::from(next_val("--trace-jsonl"))),
            other if !other.starts_with("--") => args.targets.push(other.to_string()),
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    // `merge` takes many shard paths; `trace` takes a subcommand plus a
    // path.
    let max_targets = match args.command.as_str() {
        "merge" => usize::MAX,
        "trace" => 2,
        // `fuzz replay PATH` is a subcommand plus a corpus path.
        "fuzz" => 2,
        _ => 1,
    };
    if args.targets.len() > max_targets {
        die(&format!(
            "`{}` got too many positional arguments: {:?}",
            args.command, args.targets
        ));
    }
    if args.limit.is_some() && args.checkpoint.is_none() {
        die("--limit without --checkpoint would discard the completed runs; add --checkpoint DIR");
    }
    args
}

fn list() {
    println!("Preset scenarios:");
    for name in presets::PRESET_NAMES {
        println!("  {name:<18} {}", presets::describe(name));
    }
}

fn resolve_spec(args: &Args) -> ScenarioSpec {
    if let Some(path) = &args.spec_file {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
        return ScenarioSpec::from_json_text(&text)
            .and_then(|spec| spec.check_grid().map(|()| spec))
            .unwrap_or_else(|e| die(&format!("bad spec {}: {e}", path.display())));
    }
    let name = args
        .target()
        .unwrap_or_else(|| die("run needs a preset name or --spec FILE"));
    presets::preset(name).unwrap_or_else(|| die(&format!("unknown preset `{name}`")))
}

/// The sweep `run`, `shard-plan`, `dispatch` and sharded `run` all
/// execute: a full descriptor loaded from `--sweep FILE`, or the
/// resolved base spec × `--runs` replicates × `--seed`-derived streams.
fn resolve_sweep(args: &Args) -> SweepSpec {
    if let Some(path) = &args.sweep_file {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
        let sweep = SweepSpec::from_json_text(&text)
            .unwrap_or_else(|e| die(&format!("bad sweep descriptor {}: {e}", path.display())));
        for plan in sweep.expand().iter().filter(|p| p.replicate == 0) {
            if let Err(e) = plan.spec.check().and_then(|()| plan.spec.check_grid()) {
                die(&format!(
                    "bad sweep descriptor {}: cell {}: {e}",
                    path.display(),
                    plan.cell
                ));
            }
        }
        return sweep;
    }
    let base = resolve_spec(args);
    SweepSpec {
        name: base.name.clone(),
        base,
        axes: vec![],
        replicates: args.runs.unwrap_or(8),
        seeds: SeedScheme::Derived { root: args.seed },
    }
}

/// Builds the host-plane tracer when `--trace`/`--trace-jsonl` asked
/// for one: a 64 Ki-event ring, plus a live JSONL sink when
/// `--trace-jsonl` names a file.
fn build_tracer(args: &Args) -> Option<Tracer> {
    if args.trace.is_none() && args.trace_jsonl.is_none() {
        return None;
    }
    const CAPACITY: usize = 65_536;
    Some(match &args.trace_jsonl {
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)
                    .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", parent.display())));
            }
            Tracer::with_sink(CAPACITY, path)
                .unwrap_or_else(|e| die(&format!("cannot open {}: {e}", path.display())))
        }
        None => Tracer::new(CAPACITY),
    })
}

/// Writes the Chrome trace (`--trace`) at command exit and reports
/// where the host-plane streams went.
fn finish_trace(args: &Args, tracer: Option<&Tracer>) {
    let Some(tracer) = tracer else {
        return;
    };
    if let Some(path) = &args.trace {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", parent.display())));
        }
        std::fs::write(path, tracer.chrome_json())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        println!("trace   : {} ({} event(s))", path.display(), tracer.len());
    }
    if let Some(path) = &args.trace_jsonl {
        println!("trace jsonl: {}", path.display());
    }
    if tracer.dropped() > 0 {
        println!(
            "note: ring buffer evicted {} event(s); the --trace-jsonl stream (if any) kept them",
            tracer.dropped()
        );
    }
}

/// Writes the sim-plane sidecar (`--sidecar`): the deterministic
/// per-run counter artefact, separate from the fingerprinted sweep
/// artefact by construction.
fn write_sidecar(args: &Args, telemetry: &SweepTelemetry) {
    let Some(path) = &args.sidecar else {
        return;
    };
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", parent.display())));
    }
    std::fs::write(path, telemetry.render_sidecar())
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
    println!(
        "sidecar : {} ({} run(s), {})",
        path.display(),
        telemetry.sidecar().len(),
        telemetry.totals()
    );
}

fn summary_table(result: &SweepResult) -> String {
    let headers = [
        "cell",
        "runs",
        "settle Q2 (ms)",
        "recovery Q2 (ms)",
        "rate Q2",
        "rate mean",
    ];
    let rows: Vec<Vec<String>> = result
        .cells
        .iter()
        .map(|c| {
            let label = if c.labels.is_empty() {
                c.spec.name.clone()
            } else {
                c.labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            vec![
                label,
                c.runs.len().to_string(),
                format!("{:.1}", c.settle_ms.q2),
                c.recovery_ms
                    .map(|q| format!("{:.1}", q.q2))
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.3}", c.final_rate.q2),
                format!("{:.3}", c.final_rate_online.mean),
            ]
        })
        .collect();
    render::ascii_table(&headers, &rows)
}

fn run(args: &Args) {
    if args.shard.is_some() {
        return run_one_shard(args);
    }
    let sweep = resolve_sweep(args);
    let name = sweep.name.clone();
    let tracer = build_tracer(args);
    let mut telemetry = SweepTelemetry::new(&name);
    if let Some(tracer) = &tracer {
        telemetry = telemetry.with_tracer(tracer.clone());
    }
    let started = Instant::now();
    let sweep_span = tracer.as_ref().map(|t| {
        let mut span = t.span("sweep", "sweep");
        span.arg("name", &name);
        span.arg("runs", &sweep.run_count().to_string());
        span
    });
    let result = run_sweep_observed(
        &sweep,
        SweepOptions {
            threads: args.threads,
        },
        &telemetry,
    );
    drop(sweep_span);
    let elapsed = started.elapsed();
    println!(
        "sweep `{name}`: {} runs on {} threads in {elapsed:.1?} ({:.1} runs/sec)",
        sweep.run_count(),
        result.threads_used,
        sweep.run_count() as f64 / elapsed.as_secs_f64()
    );
    println!("{}", summary_table(&result));
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/sirtm/{name}.json")));
    result
        .write_json(&out)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));
    println!("artefact: {}", out.display());
    if let Some(csv) = &args.csv {
        result
            .write_csv(csv)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", csv.display())));
        println!("csv     : {}", csv.display());
    }
    write_sidecar(args, &telemetry);
    finish_trace(args, tracer.as_ref());
}

/// `run NAME --shard K/N`: execute one shard of the sweep's
/// deterministic partition, checkpointing if asked, and write the
/// partial shard artefact on completion.
fn run_one_shard(args: &Args) {
    let sweep = resolve_sweep(args);
    let (k, n) = args.shard.expect("caller checked");
    if sweep.run_count() < n {
        eprintln!(
            "note: {} runs over {n} shards leaves {} shard(s) empty",
            sweep.run_count(),
            n - sweep.run_count()
        );
    }
    let plan = ShardPlan::of_sweep(&sweep, k - 1, n);
    let tracer = build_tracer(args);
    let mut telemetry = SweepTelemetry::new(&sweep.name);
    if let Some(tracer) = &tracer {
        telemetry = telemetry.with_tracer(tracer.clone());
    }
    let started = Instant::now();
    let report = run_shard_observed(
        &sweep,
        plan,
        args.checkpoint.as_deref(),
        SweepOptions {
            threads: args.threads,
        },
        args.limit,
        &telemetry,
    )
    .unwrap_or_else(|e| die(&e));
    let elapsed = started.elapsed();
    println!(
        "shard {k}/{n} of `{}`: runs {:?} — {} from checkpoint, {} executed in {elapsed:.1?}",
        sweep.name,
        plan.range(),
        report.resumed,
        report.executed,
    );
    match report.result {
        None => println!(
            "interrupted by --limit before completion; rerun the same command \
             (without --limit) to resume from the checkpoint"
        ),
        Some(result) => {
            let out = args.out.clone().unwrap_or_else(|| {
                PathBuf::from("target/sirtm").join(ShardResult::artifact_name(&sweep.name, plan))
            });
            result
                .write_json(&out)
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));
            println!("shard artefact: {}", out.display());
        }
    }
    // The sidecar covers only runs this invocation executed — runs
    // resumed from a checkpoint never re-ran, so they have no counters.
    write_sidecar(args, &telemetry);
    finish_trace(args, tracer.as_ref());
}

/// `shard-plan NAME --shards N`: print the deterministic partition as
/// JSON — which run indices each shard owns, plus the fingerprint every
/// checkpoint and shard artefact of this sweep will carry.
fn shard_plan(args: &Args) {
    let sweep = resolve_sweep(args);
    if args.shards == 0 {
        die("shard-plan needs --shards N");
    }
    let shards: Vec<Json> = ShardPlan::all(args.shards, sweep.run_count())
        .into_iter()
        .map(|plan| {
            Json::obj(vec![
                (
                    "shard",
                    Json::Str(format!("{}/{}", plan.shard + 1, plan.shards)),
                ),
                ("start", Json::Num(plan.range().start as f64)),
                ("count", Json::Num(plan.len() as f64)),
                (
                    "artifact",
                    Json::Str(ShardResult::artifact_name(&sweep.name, plan)),
                ),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("sweep", Json::Str(sweep.name.clone())),
        ("fingerprint", Json::Str(fingerprint(&sweep))),
        ("runs", Json::Num(sweep.run_count() as f64)),
        ("shards", Json::Arr(shards)),
    ]);
    print!("{}", doc.render_pretty());
}

/// `merge SHARD.json...`: recombine a complete shard set into the full
/// sweep artefact, byte-identical to a single-process run.
fn merge(args: &Args) {
    if args.targets.is_empty() {
        die("merge needs shard artefact paths");
    }
    // Each shard keeps its source path, so merge errors (fingerprint
    // mismatches above all) name the offending file.
    let shards: Vec<(String, ShardResult)> = args
        .targets
        .iter()
        .map(|p| {
            let shard = ShardResult::read(std::path::Path::new(p)).unwrap_or_else(|e| die(&e));
            (p.clone(), shard)
        })
        .collect();
    // Quick cross-shard overview from the partial stats blocks (Chan
    // merge) before the exact per-run aggregation.
    let overview = shards
        .iter()
        .map(|(_, s)| {
            let rates: Vec<f64> = s.summaries.iter().map(|(_, r)| r.final_rate).collect();
            OnlineStats::of(&rates)
        })
        .fold(OnlineStats::new(), |acc, s| acc.merge(&s));
    let merged = merge_named_shards(&shards).unwrap_or_else(|e| die(&e));
    println!(
        "merged {} shard(s), {} runs (rate mean {:.3}, min {:.3}, max {:.3})",
        shards.len(),
        overview.count,
        overview.mean,
        overview.min,
        overview.max
    );
    println!("{}", summary_table(&merged));
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/sirtm/{}.json", merged.name)));
    merged
        .write_json(&out)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));
    println!("artefact: {}", out.display());
    if let Some(csv) = &args.csv {
        merged
            .write_csv(csv)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", csv.display())));
        println!("csv     : {}", csv.display());
    }
}

/// Builds the dispatch worker pool: `--local N` subprocess workers
/// sharing the `--checkpoint` work directory.
fn build_workers(args: &Args) -> Vec<Box<dyn ShardTransport>> {
    if args.local == 0 {
        die("dispatch needs --local N");
    }
    let work_dir = args.checkpoint.clone().unwrap_or_else(|| {
        die("dispatch --local needs --checkpoint DIR (the shared work directory)")
    });
    let bin = std::env::current_exe()
        .unwrap_or_else(|e| die(&format!("cannot locate the scenarios binary: {e}")));
    (0..args.local)
        .map(|i| {
            Box::new(LocalProcess::new(
                &format!("local-{i}"),
                &bin,
                &work_dir,
                args.threads,
            )) as Box<dyn ShardTransport>
        })
        .collect()
}

/// `dispatch NAME --local N --checkpoint DIR`: fan the sweep's shards
/// out across a worker pool, reassigning dead or stalled workers'
/// shards, then merge — byte-identical to a single-process `run` — and
/// write the per-worker timing/retry report.
fn dispatch_cmd(args: &Args) {
    let sweep = resolve_sweep(args);
    let mut workers = build_workers(args);
    let shards = if args.shards > 0 {
        args.shards
    } else {
        workers.len()
    };
    let tracer = build_tracer(args);
    let opts = DispatchOptions {
        poll_interval: Duration::from_millis(args.poll_ms),
        stall_polls: args.stall_polls,
        max_attempts: args.max_attempts,
        worker_strikes: 3,
        retry: RetryPolicy::default(),
        tracer: tracer.clone(),
    };
    let outcome = dispatch(&sweep, shards, &mut workers, &opts)
        .unwrap_or_else(|e| die(&format!("dispatch of `{}` failed: {e}", sweep.name)));
    let report = &outcome.report;
    println!(
        "dispatched `{}`: {} runs as {} shard(s) over {} worker(s) in {:.1?} \
         ({} reassignment(s))",
        sweep.name,
        report.run_count,
        report.shard_count,
        report.workers.len(),
        report.elapsed,
        report.reassignments(),
    );
    let rows: Vec<Vec<String>> = report
        .workers
        .iter()
        .map(|w| {
            vec![
                w.worker.clone(),
                w.completed.to_string(),
                w.failed.to_string(),
                w.retries.to_string(),
                format!("{:.0}", w.busy.as_secs_f64() * 1e3),
                if w.retired { "yes" } else { "" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render::ascii_table(
            &[
                "worker",
                "completed",
                "failed",
                "retries",
                "busy (ms)",
                "retired"
            ],
            &rows
        )
    );
    println!("{}", summary_table(&outcome.result));
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/sirtm/{}.json", sweep.name)));
    outcome
        .result
        .write_json(&out)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));
    println!("artefact: {}", out.display());
    let report_path = args.report.clone().unwrap_or_else(|| {
        PathBuf::from(format!("target/sirtm/{}.dispatch-report.json", sweep.name))
    });
    report
        .write_json(&report_path)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", report_path.display())));
    println!("report  : {}", report_path.display());
    finish_trace(args, tracer.as_ref());
}

/// `chaos-soak NAME --local N --checkpoint DIR [--cycles C]
/// [--chaos-seed S] [--chaos-rate PCT]`: the durability drill. Runs
/// `--cycles` dispatch cycles of the same sweep under seeded fault
/// injection (spawn refusals, mid-shard kills, frozen heartbeats,
/// fetch errors, artefact corruption), damages a surviving checkpoint
/// journal between cycles
/// (alternating interior corruption and a torn tail, plus a stale
/// `.tmp`), and dies on the first cycle whose merged artefact is not
/// byte-identical to the clean single-process sweep. Injected-fault
/// counts land in the dispatch report's `injected_faults` object.
fn chaos_soak(args: &Args) {
    let sweep = resolve_sweep(args);
    if args.local == 0 {
        die("chaos-soak needs --local N (subprocess workers to torment)");
    }
    let work_dir = args
        .checkpoint
        .clone()
        .unwrap_or_else(|| die("chaos-soak needs --checkpoint DIR (the shared work directory)"));
    let bin = std::env::current_exe()
        .unwrap_or_else(|e| die(&format!("cannot locate the scenarios binary: {e}")));
    let shards = if args.shards > 0 {
        args.shards
    } else {
        args.local
    };
    let cycles = args.cycles;
    let reference = run_sweep(&sweep, SweepOptions { threads: 1 })
        .to_json()
        .render_pretty();
    let ledger = ChaosLedger::new();
    let tracer = build_tracer(args);
    let mut faulty = FaultyFs::new(args.chaos_seed ^ 0xF5);
    // LocalProcess journals under DIR/ckpt/<fingerprint>/ — damage must
    // land on the journals the workers actually resume from.
    let journal_dir = work_dir.join("ckpt").join(fingerprint(&sweep));
    let plans = ShardPlan::all(shards, sweep.run_count());
    let started = Instant::now();
    let mut last = None;
    for cycle in 0..cycles {
        if cycle > 0 {
            // The previous cycle's journals survive in the work dir, so
            // the next cycle resumes from them — damage one first, so
            // resume crosses the quarantine/torn-tail recovery paths on
            // top of the transport chaos.
            let target = checkpoint_file(&journal_dir, plans[cycle % plans.len()]);
            if target.exists() {
                let damage = if cycle % 2 == 1 {
                    match faulty.corrupt_interior(&target) {
                        Ok(Some(line)) => format!("corrupted journal line {line}"),
                        Ok(None) => "no interior row to corrupt".to_string(),
                        Err(e) => die(&format!("cannot damage {}: {e}", target.display())),
                    }
                } else {
                    match faulty.tear_tail(&target) {
                        Ok(n) => format!("tore {n} byte(s) off the tail"),
                        Err(e) => die(&format!("cannot damage {}: {e}", target.display())),
                    }
                };
                let _ = faulty.drop_stale_tmp(&target);
                println!(
                    "cycle {cycle}: {} — {damage}",
                    target.file_name().unwrap_or_default().to_string_lossy()
                );
            }
        }
        let cycle_seed = args.chaos_seed.wrapping_add(cycle as u64);
        let cfg = ChaosConfig {
            seed: cycle_seed,
            fault_pct: args.chaos_rate,
            enable_freeze: true,
        };
        let mut workers: Vec<Box<dyn ShardTransport>> = (0..args.local)
            .map(|i| {
                let mut transport = ChaosTransport::new(
                    LocalProcess::new(&format!("local-{i}"), &bin, &work_dir, args.threads),
                    cfg,
                    ledger.clone(),
                );
                if let Some(tracer) = &tracer {
                    transport = transport.with_tracer(tracer.clone());
                }
                Box::new(transport) as Box<dyn ShardTransport>
            })
            .collect();
        let opts = DispatchOptions {
            poll_interval: Duration::from_millis(args.poll_ms),
            // Freezes are in the draw, so stall detection must be on;
            // attempts and strikes get headroom because chaos burns
            // both on purpose. The default stall window is time-based
            // (~4s regardless of poll rate): heartbeats only advance
            // per completed run, so the window must comfortably exceed
            // the slowest single run or healthy workers read as hung.
            stall_polls: if args.stall_polls == 0 {
                (4000 / args.poll_ms.max(1) as usize).max(50)
            } else {
                args.stall_polls
            },
            max_attempts: args.max_attempts.max(25),
            worker_strikes: 1000,
            retry: RetryPolicy::persistent(cycle_seed),
            tracer: tracer.clone(),
        };
        let outcome = dispatch(&sweep, shards, &mut workers, &opts)
            .unwrap_or_else(|e| die(&format!("chaos-soak cycle {cycle} failed: {e}")));
        if outcome.result.to_json().render_pretty() != reference {
            die(&format!(
                "chaos-soak cycle {cycle}: merged artefact diverged from the clean \
                 single-process sweep"
            ));
        }
        println!(
            "cycle {cycle}: byte-identical ({} reassignment(s), {} injected fault(s) so far)",
            outcome.report.reassignments(),
            ledger.total(),
        );
        last = Some(outcome);
    }
    let mut outcome = last.expect("at least one cycle ran");
    outcome.report.attribute_faults(&ledger);
    println!(
        "chaos-soak `{}`: {cycles} cycle(s), {} injected fault(s), every merge byte-identical \
         in {:.1?}",
        sweep.name,
        ledger.total(),
        started.elapsed(),
    );
    for (kind, count) in ledger.counts() {
        println!("  {kind:<24} {count}");
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/sirtm/{}.json", sweep.name)));
    outcome
        .result
        .write_json(&out)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));
    println!("artefact: {}", out.display());
    let report_path = args
        .report
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/sirtm/{}.chaos-report.json", sweep.name)));
    outcome
        .report
        .write_json(&report_path)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", report_path.display())));
    println!("report  : {}", report_path.display());
    finish_trace(args, tracer.as_ref());
}

fn show(args: &Args) {
    let spec = resolve_spec(args);
    print!("{}", spec.to_json_pretty());
}

fn check(args: &Args) {
    let path = args
        .target()
        .unwrap_or_else(|| die("check needs an artefact path"));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    match check_artifact(&text) {
        Ok(runs) => println!("{path}: OK ({runs} runs)"),
        Err(e) => die(&format!("{path}: INVALID: {e}")),
    }
}

/// `status --checkpoint DIR [--trace-jsonl PATH]`: live progress of a
/// dispatch (or sharded run) in flight, read purely from the side:
/// checkpoint journals under `DIR/ckpt/<fingerprint>/` give per-shard
/// completed-run counts (tolerating torn tails — a journal being
/// appended to is normal here), and the trace JSONL stream, when one
/// is being written, gives each worker's last observed activity.
fn status_cmd(args: &Args) {
    let work_dir = args
        .checkpoint
        .clone()
        .unwrap_or_else(|| die("status needs --checkpoint DIR (the dispatch work directory)"));
    let ckpt_root = work_dir.join("ckpt");
    // `run --shard` checkpoints journal directly under --checkpoint
    // DIR; dispatch workers namespace theirs per fingerprint under
    // DIR/ckpt/. Scan both layouts.
    let mut journals: Vec<PathBuf> = Vec::new();
    let mut scan = |dir: &PathBuf| {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "ckpt") {
                journals.push(path);
            } else if path.is_dir() {
                let Ok(inner) = std::fs::read_dir(&path) else {
                    continue;
                };
                for entry in inner.flatten() {
                    let path = entry.path();
                    if path.extension().is_some_and(|e| e == "ckpt") {
                        journals.push(path);
                    }
                }
            }
        }
    };
    scan(&work_dir);
    scan(&ckpt_root);
    journals.sort();
    journals.dedup();
    if journals.is_empty() {
        println!(
            "no checkpoint journals under {} (yet) — nothing has completed a run",
            work_dir.display()
        );
    } else {
        let rows: Vec<Vec<String>> = journals
            .iter()
            .filter_map(|path| {
                let progress = match journal_progress(path) {
                    Ok(p) => p,
                    Err(e) => {
                        eprintln!("note: skipping {}: {e}", path.display());
                        return None;
                    }
                };
                let pct = if progress.expected() == 0 {
                    100.0
                } else {
                    100.0 * progress.completed as f64 / progress.expected() as f64
                };
                Some(vec![
                    format!("{}/{}", progress.plan.shard + 1, progress.plan.shards),
                    progress.fingerprint.chars().take(12).collect(),
                    format!("{}/{}", progress.completed, progress.expected()),
                    format!("{pct:.0}%"),
                    if progress.is_complete() {
                        "complete"
                    } else {
                        "in progress"
                    }
                    .to_string(),
                ])
            })
            .collect();
        println!(
            "{}",
            render::ascii_table(&["shard", "fingerprint", "runs", "%", "state"], &rows)
        );
    }
    let Some(stream) = &args.trace_jsonl else {
        return;
    };
    let text = match std::fs::read_to_string(stream) {
        Ok(text) => text,
        Err(e) => {
            println!("trace stream {}: not readable ({e})", stream.display());
            return;
        }
    };
    // Last event per track wins; a torn final line (mid-append) is
    // expected and skipped.
    let mut latest: Vec<(String, String, u64)> = Vec::new();
    for line in text.lines() {
        let Ok(event) = parse(line) else {
            continue;
        };
        let (Some(track), Some(name), Some(ts)) = (
            event.get("track").and_then(Json::as_str),
            event.get("name").and_then(Json::as_str),
            event.get("ts_us").and_then(Json::as_num),
        ) else {
            continue;
        };
        match latest.iter_mut().find(|(t, _, _)| t == track) {
            Some(slot) => *slot = (track.to_string(), name.to_string(), ts as u64),
            None => latest.push((track.to_string(), name.to_string(), ts as u64)),
        }
    }
    if latest.is_empty() {
        println!("trace stream {}: no events yet", stream.display());
        return;
    }
    latest.sort();
    let rows: Vec<Vec<String>> = latest
        .iter()
        .map(|(track, name, ts)| {
            vec![
                track.clone(),
                name.clone(),
                format!("{:.1}s", *ts as f64 / 1e6),
            ]
        })
        .collect();
    println!(
        "{}",
        render::ascii_table(&["track", "last event", "at"], &rows)
    );
}

/// `trace check PATH`: validate a host-plane trace file — either the
/// Chrome trace-event JSON `--trace` writes or the JSONL stream
/// `--trace-jsonl` writes (detected from the first byte). Exits
/// non-zero on the first malformed event.
fn trace_cmd(args: &Args) {
    let sub = args.targets.first().map(String::as_str);
    if sub != Some("check") {
        die("trace needs a subcommand: trace check PATH");
    }
    let path = args
        .targets
        .get(1)
        .unwrap_or_else(|| die("trace check needs a trace file path"));
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    // A Chrome trace is one JSON document spanning the whole file; a
    // JSONL stream is one document per line (so the whole-file parse
    // fails at line two's opening byte).
    let (format, events) = match parse(&text) {
        Ok(doc) if doc.get("traceEvents").is_some() => ("chrome", check_chrome_trace(path, &doc)),
        _ => ("jsonl", check_jsonl_trace(path, &text)),
    };
    println!("{path}: OK ({format}, {events} event(s))");
}

/// Validates a Chrome trace-event document; returns the event count.
fn check_chrome_trace(path: &str, doc: &Json) -> usize {
    let Some(events) = doc.get("traceEvents").and_then(Json::as_arr) else {
        die(&format!("{path}: INVALID: no `traceEvents` array"));
    };
    let mut counted = 0usize;
    for (i, event) in events.iter().enumerate() {
        let bad = |what: &str| -> ! { die(&format!("{path}: INVALID: event {i}: {what}")) };
        let Some(ph) = event.get("ph").and_then(Json::as_str) else {
            bad("missing `ph`");
        };
        if event.get("name").and_then(Json::as_str).is_none() {
            bad("missing `name`");
        }
        if event.get("pid").and_then(Json::as_num).is_none() {
            bad("missing `pid`");
        }
        match ph {
            "M" => continue, // metadata (track names): no timestamp
            "X" => {
                if event.get("ts").and_then(Json::as_num).is_none() {
                    bad("span without `ts`");
                }
                if event.get("dur").and_then(Json::as_num).is_none() {
                    bad("span without `dur`");
                }
            }
            "i" => {
                if event.get("ts").and_then(Json::as_num).is_none() {
                    bad("instant without `ts`");
                }
            }
            other => bad(&format!("unknown phase `{other}`")),
        }
        counted += 1;
    }
    counted
}

/// Validates a JSONL trace stream; returns the event count. A torn
/// final line (the writer was mid-append) is tolerated; torn interior
/// lines are not.
fn check_jsonl_trace(path: &str, text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let mut counted = 0usize;
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = match parse(line) {
            Ok(event) => event,
            Err(e) => {
                if i + 1 == lines.len() && !text.ends_with('\n') {
                    break; // torn tail: the writer is mid-append
                }
                die(&format!("{path}: INVALID: line {}: {e}", i + 1));
            }
        };
        let bad = |what: &str| -> ! { die(&format!("{path}: INVALID: line {}: {what}", i + 1)) };
        if event.get("ts_us").and_then(Json::as_num).is_none() {
            bad("missing `ts_us`");
        }
        if event.get("track").and_then(Json::as_str).is_none() {
            bad("missing `track`");
        }
        if event.get("name").and_then(Json::as_str).is_none() {
            bad("missing `name`");
        }
        counted += 1;
    }
    counted
}

/// `fuzz [NAME]`: run an adversarial scenario-search campaign from the
/// named preset (default `light-4x4`) or `--spec FILE`, writing the
/// deterministic campaign log and frontier corpus.
fn fuzz(args: &Args) {
    if args.target() == Some("replay") {
        return fuzz_replay(args);
    }
    let base = if args.spec_file.is_some() || args.target().is_some() {
        resolve_spec(args)
    } else {
        presets::preset("light-4x4").expect("known preset")
    };
    let cfg = FuzzConfig {
        fuzz_seed: args.fuzz_seed,
        budget: args.budget,
        replicates: args.runs.unwrap_or(2),
        threads: args.threads,
        threshold: args.threshold,
        base,
    };
    let campaign = format!("fuzz-{}", cfg.base.name);
    let tracer = build_tracer(args);
    let mut telemetry = FuzzTelemetry::new(&campaign);
    if let Some(tracer) = &tracer {
        telemetry = telemetry.with_tracer(tracer.clone());
    }
    let started = Instant::now();
    let result = run_campaign(&cfg, &telemetry);
    let elapsed = started.elapsed();
    println!(
        "campaign `{campaign}`: {} evaluation(s), {} frontier find(s) in {elapsed:.1?}",
        result.evaluations,
        result.entries.len()
    );
    let log_path = args
        .log
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/sirtm/{campaign}.log")));
    atomic_write(&log_path, &result.log)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", log_path.display())));
    println!("log     : {}", log_path.display());
    let corpus_path = args
        .corpus
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/sirtm/{campaign}-corpus.jsonl")));
    atomic_write(&corpus_path, &result.corpus)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", corpus_path.display())));
    println!(
        "corpus  : {} ({} entr{})",
        corpus_path.display(),
        result.entries.len(),
        if result.entries.len() == 1 {
            "y"
        } else {
            "ies"
        }
    );
    if let Some(path) = &args.sidecar {
        atomic_write(path, &telemetry.render_sidecar())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        println!(
            "sidecar : {} ({} candidate(s))",
            path.display(),
            telemetry.sidecar().len()
        );
    }
    finish_trace(args, tracer.as_ref());
}

/// `fuzz replay PATH`: re-run every corpus entry bit-exactly; exit
/// non-zero on any fingerprint or fitness drift.
fn fuzz_replay(args: &Args) {
    let path = args
        .targets
        .get(1)
        .cloned()
        .map(PathBuf::from)
        .or_else(|| args.corpus.clone())
        .unwrap_or_else(|| die("fuzz replay needs a corpus path (positional or --corpus)"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    let entries = parse_corpus(&text).unwrap_or_else(|e| die(&format!("{}: {e}", path.display())));
    if entries.is_empty() {
        die(&format!("{}: empty corpus", path.display()));
    }
    let mut drifted = 0usize;
    for entry in &entries {
        let report = replay_entry(entry, args.threads);
        if report.matches(entry) {
            println!(
                "replay {:04} OK fingerprint={} fitness={:.4}",
                entry.id,
                entry.fingerprint,
                entry.fitness.total()
            );
        } else {
            drifted += 1;
            eprintln!(
                "replay {:04} DRIFT fingerprint {} -> {} fitness {:?} -> {:?}",
                entry.id, entry.fingerprint, report.fingerprint, entry.fitness, report.fitness
            );
        }
    }
    if drifted > 0 {
        die(&format!(
            "{drifted} of {} corpus entr{} drifted",
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" }
        ));
    }
    println!(
        "{}: {} entr{} replayed bit-exactly",
        path.display(),
        entries.len(),
        if entries.len() == 1 { "y" } else { "ies" }
    );
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "list" => list(),
        "show" => show(&args),
        "run" => run(&args),
        "shard-plan" => shard_plan(&args),
        "merge" => merge(&args),
        "dispatch" => dispatch_cmd(&args),
        "chaos-soak" => chaos_soak(&args),
        "fuzz" => fuzz(&args),
        "check" => check(&args),
        "status" => status_cmd(&args),
        "trace" => trace_cmd(&args),
        other => die(&format!("unknown command `{other}`")),
    }
}
