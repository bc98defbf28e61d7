//! `perfbench`: the SIRTM benchmark — three workloads, end-to-end metrics
//! from untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench bench --workload NAME --seed N --seconds S --trace 0|1
//!                 [--out-dir DIR] [--revision REV] [--rustc VERSION]
//! perfbench setup-probe --workload NAME --seed N
//! perfbench run --sweep FILE --shard K/N --checkpoint DIR --threads T --out FILE
//! ```
//!
//! `bench` prints one `metric NAME = VALUE UNIT` line per metric and ends
//! with a one-line JSON result (`correct`, `attempted`, `failed`,
//! `metrics`). `setup-probe` performs one workload's set-up and prints
//! `ready` with its on-CPU nanoseconds; `bench` runs it in fresh
//! processes. `run` is the shard worker
//! the dispatch workload's `LocalProcess` transport spawns; it takes the
//! same arguments as the `scenarios` binary's `run --shard`.
//!
//! The model has no reference results in the repository (the paper's
//! tables carry no numbers to compare against), so the colony metrics are
//! unvalidated simulated quantities and carry no error figure.

mod probes;
mod traced;
mod util;
mod workload;

use std::io::{BufRead, BufReader, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use sirtm_scenario::shard::fingerprint;
use sirtm_scenario::telemetry::Tracer;
use sirtm_scenario::{
    build_platform, check_artifact, merge_shards, run_shard_observed, ShardPlan, ShardResult,
    SweepOptions, SweepResult, SweepSpec, Timeline,
};

use util::{median, Metrics};
use workload::{Figures, Rep, Workload, DEFAULT_SEED};

/// Fresh-process set-ups timed per run, at least and at most; between
/// the two, probing continues until `SETUP_PROBE_S` has passed. `setup_s`
/// is their median.
const SETUP_PROBES: (usize, usize) = (5, 41);
const SETUP_PROBE_S: f64 = 1.0;
/// Events the exported trace keeps (the newest; older ones are counted
/// as dropped).
const TRACE_EVENTS: usize = 2048;

/// Progress on standard error, stamped with seconds since `since`.
fn progress(since: Instant, what: &str) {
    eprintln!("perfbench: {:7.2} s  {what}", since.elapsed().as_secs_f64());
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// Parsed `--key value` options.
struct Opts(Vec<(String, String)>);

impl Opts {
    fn parse(args: &[String]) -> Self {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                die(&format!("unexpected argument `{key}`"));
            };
            let value = it
                .next()
                .unwrap_or_else(|| die(&format!("{key} needs a value")));
            out.push((name.to_string(), value.clone()));
        }
        Self(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn req(&self, key: &str) -> &str {
        self.get(key)
            .unwrap_or_else(|| die(&format!("missing --{key}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> T {
        match (self.get(key), default) {
            (Some(v), _) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("--{key} needs a number, got `{v}`"))),
            (None, Some(d)) => d,
            (None, None) => die(&format!("missing --{key}")),
        }
    }

    fn workload(&self) -> Workload {
        let name = self.req("workload");
        Workload::parse(name).unwrap_or_else(|| die(&format!("unknown workload `{name}`")))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench") => bench(&Opts::parse(&args[1..])),
        Some("setup-probe") => setup_probe(&Opts::parse(&args[1..])),
        Some("run") => worker(&Opts::parse(&args[1..])),
        _ => die("usage: perfbench (bench|setup-probe|run) --key value ..."),
    }
}

/// One workload's set-up, up to the moment its first run would step:
/// sweep expansion, graph and mapping, `Platform::new` (firmware
/// assembly included) and the first timeline compile (a cold thermal
/// solve for the firmware workload).
fn setup_probe(opts: &Opts) {
    let sweep = opts.workload().sweep(opts.num("seed", Some(DEFAULT_SEED)));
    let plans = sweep.expand();
    let first = &plans[0];
    let platform = build_platform(&first.spec, first.seed);
    let timeline = Timeline::compile(&first.spec, first.seed);
    std::hint::black_box((&platform, &timeline));
    println!("ready {}", util::process_cpu_ns());
}

/// Fresh processes performing the workload's set-up: the median of
/// their on-CPU time from start to the `ready` line, and the median wall
/// time from spawn to it.
fn setup_seconds(exe: &Path, workload: Workload, seed: u64) -> Result<(f64, f64), String> {
    let mut samples = Vec::new();
    let mut walls = Vec::new();
    let since = Instant::now();
    while samples.len() < SETUP_PROBES.0
        || (samples.len() < SETUP_PROBES.1 && since.elapsed().as_secs_f64() < SETUP_PROBE_S)
    {
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args(["setup-probe", "--workload", workload.name()])
            .args(["--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn set-up probe: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("set-up probe output: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
        let cpu_ns = line
            .trim()
            .strip_prefix("ready ")
            .and_then(|ns| ns.parse::<u64>().ok());
        match cpu_ns {
            Some(ns) if status.success() => samples.push(ns as f64 * 1e-9),
            _ => return Err(format!("set-up probe failed ({status})")),
        }
        walls.push(secs);
    }
    Ok((median(&samples), median(&walls)))
}

/// The shard worker: `run --sweep FILE --shard K/N --checkpoint DIR
/// --threads T --out FILE`. Writes the shard artefact and, beside it, a
/// side file with each executed run's host time and sim counters and the
/// worker's peak resident set.
fn worker(opts: &Opts) {
    let text = std::fs::read_to_string(opts.req("sweep"))
        .unwrap_or_else(|e| die(&format!("cannot read sweep: {e}")));
    let sweep = SweepSpec::from_json_text(&text).unwrap_or_else(|e| die(&e));
    let (k, n) = opts
        .req("shard")
        .split_once('/')
        .and_then(|(k, n)| Some((k.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
        .filter(|&(k, n)| k >= 1 && k <= n)
        .unwrap_or_else(|| die("--shard needs K/N"));
    let plan = ShardPlan::of_sweep(&sweep, k - 1, n);
    let observer = workload::RunClock::default();
    let report = run_shard_observed(
        &sweep,
        plan,
        Some(Path::new(opts.req("checkpoint"))),
        SweepOptions {
            threads: opts.num("threads", Some(1)),
        },
        None,
        &observer,
    )
    .unwrap_or_else(|e| die(&e));
    let out = PathBuf::from(opts.req("out"));
    let result = report.result.unwrap_or_else(|| die("shard interrupted"));
    let side = workload::render_side_file(util::peak_rss_kb(), &observer.into_records());
    sirtm_scenario::shard::atomic_write(&workload::side_file(&out), &side)
        .unwrap_or_else(|e| die(&format!("cannot write side file: {e}")));
    result
        .write_json(&out)
        .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));
}

/// Tallies operations and failures; every failure is also printed.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAIL {what}");
        }
    }

    fn runs(&mut self, n: usize) {
        self.attempted += n as u64;
    }
}

/// Checks a repetition against the first one and, at the default seed,
/// against the pinned digests.
struct Reference {
    workload: Workload,
    seed: u64,
    out_dir: PathBuf,
    artefact: Option<String>,
    sidecar: Option<String>,
}

impl Reference {
    fn check(&mut self, rep: &Rep, ledger: &mut Ledger) {
        let runs = rep.figures.runs();
        ledger.runs(runs);
        ledger.check(
            check_artifact(&rep.artefact).is_ok_and(|n| n == runs),
            "artefact structure (check_artifact)",
        );
        if rep.unclean_attempts > 0 {
            ledger.attempted += rep.unclean_attempts as u64;
            ledger.failed += rep.unclean_attempts as u64;
            println!(
                "FAIL {} shard attempt(s) not clean on the first try",
                rep.unclean_attempts
            );
        }
        match (&self.artefact, &self.sidecar) {
            (Some(a), Some(s)) => {
                ledger.check(
                    *a == rep.artefact,
                    "artefact differs from the first repetition",
                );
                ledger.check(
                    *s == rep.sidecar,
                    "sidecar differs from the first repetition",
                );
            }
            _ => {
                if self.seed == DEFAULT_SEED {
                    let (a, s) = self.workload.pins().unwrap_or_default();
                    let (da, ds) = (util::digest(&rep.artefact), util::digest(&rep.sidecar));
                    println!("digest artefact {da}");
                    println!("digest sidecar {ds}");
                    ledger.check(a == da, "artefact digest differs from the pin");
                    ledger.check(s == ds, "sidecar digest differs from the pin");
                }
                // Keep the checked artefacts for inspection.
                let stem = format!("{}-seed{}", self.workload.name(), self.seed);
                let write = |name: String, text: &str| {
                    sirtm_scenario::shard::atomic_write(&self.out_dir.join(name), text).is_ok()
                };
                ledger.check(
                    write(format!("artefact-{stem}.json"), &rep.artefact)
                        && write(format!("sidecar-{stem}.json"), &rep.sidecar),
                    "artefact and sidecar written",
                );
                self.artefact = Some(rep.artefact.clone());
                self.sidecar = Some(rep.sidecar.clone());
            }
        }
    }
}

/// Runs one repetition of the workload (untraced unless `tracer` is
/// given to the dispatcher).
fn run_rep(
    workload: Workload,
    sweep: &SweepSpec,
    exe: &Path,
    work: &Path,
    k: usize,
    tracer: Option<Tracer>,
) -> Result<Rep, String> {
    let caught = catch_unwind(AssertUnwindSafe(|| match workload {
        Workload::Dispatch => {
            let dir = work.join(format!("rep-{k}"));
            let rep = workload::dispatch_rep(sweep, exe, &dir, tracer);
            let _ = std::fs::remove_dir_all(&dir);
            rep
        }
        _ => Ok(workload::sweep_rep(sweep)),
    }));
    caught.unwrap_or_else(|_| Err("repetition panicked".to_string()))
}

fn bench(opts: &Opts) {
    let workload = opts.workload();
    let seed: u64 = opts.num("seed", Some(DEFAULT_SEED));
    let seconds: f64 = opts.num("seconds", None);
    let trace: u8 = opts.num("trace", Some(0));
    let out_dir = PathBuf::from(opts.get("out-dir").unwrap_or(".bench_build/perfbench"));
    // Provenance, written into every result.
    let machine_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let revision = opts.get("revision").unwrap_or("unknown");
    let rustc = opts.get("rustc").unwrap_or("unknown");
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("no executable: {e}")));
    let work = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).unwrap_or_else(|e| die(&format!("cannot create work dir: {e}")));
    println!(
        "provenance workload={} seed={seed} trace={trace} machine_cores={} revision={} rustc={}",
        workload.name(),
        machine_cores,
        revision,
        rustc
    );

    let sweep = workload.sweep(seed);
    // Fill the process-wide thermal victim cache before anything is
    // timed: its cold solve belongs to `setup_s`.
    for plan in sweep.expand().iter().filter(|p| p.replicate == 0) {
        std::hint::black_box(Timeline::compile(&plan.spec, plan.seed));
    }
    let mut ledger = Ledger::default();
    let mut reference = Reference {
        workload,
        seed,
        out_dir: out_dir.clone(),
        artefact: None,
        sidecar: None,
    };
    let mut notes: Vec<(String, String)> = Vec::new();
    let metrics = if trace == 0 {
        end_to_end(
            workload,
            &sweep,
            &exe,
            &work,
            seconds,
            &mut ledger,
            &mut reference,
            &mut notes,
        )
    } else {
        per_layer(
            workload,
            &sweep,
            &exe,
            &work,
            seconds,
            &mut ledger,
            &mut reference,
            &out_dir,
        )
    };
    let _ = std::fs::remove_dir_all(&work);

    for m in &metrics.0 {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_frac = {} ({} failed of {} attempted)",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        ledger.failed,
        ledger.attempted
    );
    for (k, v) in &notes {
        println!("note {k} = {v}");
    }
    let result_path = out_dir.join(format!(
        "result-{}-seed{seed}-trace{trace}.json",
        workload.name()
    ));
    let mut doc = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"seconds\": {}, \
         \"machine_cores\": {}, \"revision\": {}, \"rustc\": {}, \"attempted\": {}, \
         \"failed\": {}, \"notes\": {{",
        util::json_str(workload.name()),
        util::json_number(seconds),
        machine_cores,
        util::json_str(revision),
        util::json_str(rustc),
        ledger.attempted,
        ledger.failed,
    );
    for (i, (k, v)) in notes.iter().enumerate() {
        if i > 0 {
            doc.push_str(", ");
        }
        doc.push_str(&format!("{}: {}", util::json_str(k), util::json_str(v)));
    }
    doc.push_str(&format!("}}, \"metrics\": {}}}\n", metrics.json()));
    if let Err(e) = sirtm_scenario::shard::atomic_write(&result_path, &doc) {
        println!("FAIL cannot write {}: {e}", result_path.display());
        ledger.attempted += 1;
        ledger.failed += 1;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        metrics.json()
    );
    let _ = std::io::stdout().flush();
}

/// Untraced repetitions for `seconds`, then the end-to-end metrics.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    workload: Workload,
    sweep: &SweepSpec,
    exe: &Path,
    work: &Path,
    seconds: f64,
    ledger: &mut Ledger,
    reference: &mut Reference,
    notes: &mut Vec<(String, String)>,
) -> Metrics {
    let (setup_s, setup_wall_s) =
        setup_seconds(exe, workload, reference.seed).unwrap_or_else(|e| {
            ledger.check(false, &e);
            (0.0, 0.0)
        });
    if workload == Workload::Dispatch {
        // The merged dispatch artefact must equal the in-process sweep's.
        let inproc = workload::sweep_rep(sweep);
        reference.check(&inproc, ledger);
    }
    let started = Instant::now();
    // Only the timing figures are kept: holding every repetition's
    // artefact would grow the resident set with the repetition count.
    let mut reps: Vec<Figures> = Vec::new();
    let mut k = 0;
    // Whole repetitions only, at least two (the second checks the
    // first); stop when the next one would overrun.
    let mut last = 0.0;
    while (reps.len() < 2 && k < 4) || started.elapsed().as_secs_f64() + last <= seconds {
        let rep_started = Instant::now();
        match run_rep(workload, sweep, exe, work, k, None) {
            Ok(rep) => {
                reference.check(&rep, ledger);
                reps.push(rep.figures);
            }
            Err(e) => {
                ledger.check(false, &e);
                if reps.is_empty() && k >= 3 {
                    die("no repetition completed");
                }
            }
        }
        last = rep_started.elapsed().as_secs_f64();
        k += 1;
    }
    // A run's cost is its median over the repetitions (every repetition
    // runs the same runs, in index order): a host hiccup that slows one
    // execution does not move it.
    let costs_ms = |f: fn(&Figures) -> &Vec<f64>| -> Vec<f64> {
        (0..reps[0].runs())
            .map(|i| 1e3 * median(&reps.iter().map(|r| f(r)[i]).collect::<Vec<_>>()))
            .collect()
    };
    let (run_ms, run_cpu_ms) = (costs_ms(|r| &r.run_s), costs_ms(|r| &r.run_cpu_s));
    let (tail_pct, tail_ms) = util::tail(&run_cpu_ms);
    let rates: Vec<f64> = reps.iter().map(Figures::runs_per_cpu_s).collect();
    let wall_rates: Vec<f64> = reps.iter().map(Figures::runs_per_s).collect();
    let cycle_rates: Vec<f64> = reps.iter().map(Figures::sim_cycles_per_cpu_s).collect();
    let rss_kb = reps.iter().map(|r| r.worker_rss_kb).max().unwrap_or(0);
    let peak_rss_mb = util::peak_rss_mb().max(rss_kb as f64 / 1024.0);
    notes.push(("repetitions".into(), reps.len().to_string()));
    let listed: Vec<String> = rates.iter().map(|r| format!("{r:.4}")).collect();
    notes.push(("rep_runs_per_cpu_s".into(), listed.join(",")));
    notes.push((
        "run_cpu_ms_tail".into(),
        format!(
            "p{tail_pct} of {} runs, each the median of {} repetitions",
            run_cpu_ms.len(),
            reps.len()
        ),
    ));
    // Wall-clock twins of the on-CPU metrics: what a user waits, including
    // time the hypervisor steals from this guest.
    notes.push(("wall_setup_s".into(), format!("{setup_wall_s}")));
    notes.push(("wall_runs_per_s".into(), format!("{}", median(&wall_rates))));
    notes.push(("wall_run_ms_p50".into(), format!("{}", median(&run_ms))));

    let mut m = Metrics::default();
    m.add("setup_s", setup_s, "s");
    m.add("runs_per_cpu_s", median(&rates), "1/cpu-s");
    m.add("sim_cycles_per_cpu_s", median(&cycle_rates), "cycles/cpu-s");
    m.add("run_cpu_ms_p50", median(&run_cpu_ms), "ms");
    m.add("run_cpu_ms_tail", tail_ms, "ms");
    m.add("peak_rss_mb", peak_rss_mb, "MiB");
    m
}

/// Median on-CPU time of `f` over five calls, in `unit_s` units.
fn time_median<T>(unit_s: f64, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = util::thread_cpu_ns();
            std::hint::black_box(f());
            (util::thread_cpu_ns() - start) as f64 * 1e-9 / unit_s
        })
        .collect();
    median(&samples)
}

/// The sweep result rebuilt from `DISPATCH_SHARDS` shard artefacts of
/// `result`, as a dispatcher would receive them.
fn shards_of(sweep: &SweepSpec, result: &SweepResult) -> Vec<ShardResult> {
    let flat: Vec<_> = result.cells.iter().flat_map(|c| c.runs.iter()).collect();
    ShardPlan::all(workload::DISPATCH_SHARDS, sweep.run_count())
        .into_iter()
        .map(|plan| ShardResult {
            plan,
            sweep_json: sweep.to_json(),
            fingerprint: fingerprint(sweep),
            summaries: plan.range().map(|i| (i, *flat[i])).collect(),
        })
        .collect()
}

/// Interleaved untraced and traced repetitions for `seconds`, the
/// unit-cost probes and the attribution; returns the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: Workload,
    sweep: &SweepSpec,
    exe: &Path,
    work: &Path,
    seconds: f64,
    ledger: &mut Ledger,
    reference: &mut Reference,
    out_dir: &Path,
) -> Metrics {
    // Every layer call is traced, but the ring keeps only the newest
    // events: the workspace JSON parser the trace check shares is
    // quadratic in document size, so a full trace would take minutes to
    // check.
    let tracer = Tracer::new(TRACE_EVENTS);
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut layers = traced::Layers::default();
    let mut passes = 0usize;
    let (mut busy_s, mut available_s, mut retries, mut reassignments) = (0.0, 0.0, 0, 0);
    let mut first: Option<Rep> = None;
    let mut collector = None;
    let mut k = 0;
    // ABAB…: an untraced repetition, then a traced one, until the run
    // length is used up (at least one of each).
    let mut last = 0.0;
    while (traced.is_empty() && k < 6) || started.elapsed().as_secs_f64() + last <= seconds {
        let rep_started = Instant::now();
        let traced_arm = k % 2 == 1;
        let rep_tracer = (traced_arm && workload == Workload::Dispatch).then(|| tracer.clone());
        if traced_arm && workload != Workload::Dispatch {
            let cpu_start = util::process_cpu_ns();
            let (l, sidecar) = traced::traced_pass(sweep, &tracer, passes);
            let cpu_s = (util::process_cpu_ns() - cpu_start) as f64 * 1e-9;
            passes += 1;
            ledger.runs(sweep.run_count());
            let expected = first.as_ref().map(|r| r.sidecar.as_str());
            ledger.check(
                expected == Some(sidecar.render().as_str()),
                "traced replica's sidecar differs from the untraced sweep's",
            );
            layers.absorb(&l);
            collector = Some(sidecar);
            traced.push(sweep.run_count() as f64 / cpu_s);
        } else {
            let span = rep_tracer.as_ref().map(|t| {
                let mut s = t.span("bench", "dispatch");
                s.arg("run", &k.to_string());
                s
            });
            match run_rep(workload, sweep, exe, work, k, rep_tracer.clone()) {
                Ok(rep) => {
                    reference.check(&rep, ledger);
                    let rate = rep.figures.runs_per_cpu_s();
                    if traced_arm {
                        traced.push(rate);
                        busy_s += rep.busy_s;
                        available_s += rep.available_s;
                        retries += rep.retries;
                        reassignments += rep.reassignments;
                    } else {
                        untraced.push(rate);
                    }
                    if first.is_none() {
                        first = Some(rep);
                    }
                }
                Err(e) => ledger.check(false, &e),
            }
            drop(span);
        }
        last = rep_started.elapsed().as_secs_f64();
        k += 1;
        if first.is_none() && k > 3 {
            die("no repetition completed");
        }
    }
    let first = first.expect("loop ran an untraced repetition");
    let dispatch_reps = traced.len().max(1) as f64;
    if workload == Workload::Dispatch {
        // The layer calls of light-4x4 runs happen in the workers; one
        // traced in-process pass over the same sweep gives their costs.
        let (l, sidecar) = traced::traced_pass(sweep, &tracer, passes);
        passes += 1;
        ledger.runs(sweep.run_count());
        ledger.check(
            sidecar.render() == first.sidecar,
            "traced replica's sidecar differs from the dispatched workers'",
        );
        layers.absorb(&l);
        collector = Some(sidecar);
    }
    let per_pass = |ns: u64| ns as f64 / passes.max(1) as f64;

    progress(started, "traced repetitions done");
    // Export the trace and hold it to the trace checker's rules.
    let trace_path = out_dir.join(format!(
        "trace-{}-seed{}.json",
        workload.name(),
        reference.seed
    ));
    let doc = tracer.chrome_json();
    let written = sirtm_scenario::shard::atomic_write(&trace_path, &doc);
    ledger.check(written.is_ok(), "trace export written");
    let checked = traced::check_chrome_trace(&doc);
    ledger.check(checked.is_ok(), "Chrome trace passes the trace check");
    println!(
        "trace {} ({} events, {} dropped)",
        trace_path.display(),
        checked.unwrap_or(0),
        tracer.dropped()
    );

    progress(started, "trace exported and checked");
    // Scenario-layer costs of this workload's sweep and artefact.
    let expand_ms = time_median(1e-3, || sweep.expand());
    let render_ms = time_median(1e-3, || first.result.to_json().render_pretty());
    let shards = shards_of(sweep, &first.result);
    let merged = merge_shards(&shards).map(|r| r.to_json().render_pretty());
    ledger.check(
        merged.as_deref() == Ok(first.artefact.as_str()),
        "merge of the shard artefacts equals the sweep artefact",
    );
    let merge_ms = if workload == Workload::Dispatch {
        // Reads too: the shard artefacts round-trip through files.
        let dir = work.join("merge-probe");
        let paths: Vec<PathBuf> = shards
            .iter()
            .map(|s| dir.join(ShardResult::artifact_name(&sweep.name, s.plan)))
            .collect();
        for (s, p) in shards.iter().zip(&paths) {
            s.write_json(p).expect("merge probe writes shard artefacts");
        }
        let ms = time_median(1e-3, || {
            let read: Vec<ShardResult> = paths
                .iter()
                .map(|p| ShardResult::read(p).expect("shard artefact reads"))
                .collect();
            merge_shards(&read).expect("shards merge")
        });
        let _ = std::fs::remove_dir_all(&dir);
        ms
    } else {
        time_median(1e-3, || merge_shards(&shards).expect("shards merge"))
    };
    let collector = collector.expect("a traced pass ran");
    let sidecar_render_ms = time_median(1e-3, || collector.render());

    progress(started, "scenario-layer costs measured");
    // Unit costs.
    let scan_ns: Vec<(&'static str, f64)> = probes::model_kinds()
        .iter()
        .map(|k| (k.name(), probes::ns_per_aim_scan(k)))
        .collect();
    let ns_per_instruction = probes::ns_per_instruction();
    let ns_per_flit_hop = probes::ns_per_flit_hop();
    let ns_per_cycle = probes::ns_per_cycle();
    let (victim_solve_ms, victims) = probes::victim_solve_ms();
    let grid_step_us = probes::grid_step_us();
    let journal_append_us = probes::journal_append_us(work);
    ledger.check(victims > 0, "thermal pre-run finds victims");

    progress(started, "unit-cost probes done");
    // Attribution: predicted run_until time from counts × unit costs.
    let sim = layers.sim;
    let scans_ns: f64 = layers
        .scans_by_model
        .iter()
        .map(|(model, n)| {
            let unit = scan_ns
                .iter()
                .find(|(m, _)| m == model)
                .map_or(0.0, |x| x.1);
            *n as f64 * unit
        })
        .sum();
    let predicted_ns = sim.cycles_stepped as f64 * ns_per_cycle
        + sim.flit_hops as f64 * ns_per_flit_hop
        + scans_ns;
    let run_until_s = per_pass(layers.run_until.ns) / 1e9;
    let predicted_s = predicted_ns / passes.max(1) as f64 / 1e9;
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let count = |v: u64| v as f64 / passes.max(1) as f64;

    let (settle, recovery, sink_rate) = workload::colony_measures(&first.result);
    let mut m = Metrics::default();
    m.add("colony.settle_ms_p50", settle, "ms");
    m.add("colony.recovery_ms_p50", recovery, "ms");
    m.add("colony.sink_rate_p50", sink_rate, "sinks/ms");
    m.add("core.aim_scans", count(sim.aim_scans), "count");
    m.add("core.switches", count(layers.switches), "count");
    m.add(
        "core.switches_per_kscan",
        frac(layers.switches as f64 * 1e3, sim.aim_scans as f64),
        "1/kscan",
    );
    for (model, ns) in &scan_ns {
        m.add(&format!("core.ns_per_aim_scan.{model}"), *ns, "ns");
    }
    m.add(
        "centurion.cycles_stepped",
        count(sim.cycles_stepped),
        "count",
    );
    m.add(
        "centurion.cycles_fast_forwarded",
        count(sim.cycles_fast_forwarded),
        "count",
    );
    m.add(
        "centurion.ff_frac",
        frac(
            sim.cycles_fast_forwarded as f64,
            (sim.cycles_stepped + sim.cycles_fast_forwarded) as f64,
        ),
        "frac",
    );
    m.add("centurion.gossip_rounds", count(sim.gossip_rounds), "count");
    m.add("centurion.run_until_s", run_until_s, "s");
    m.add("centurion.ns_per_cycle", ns_per_cycle, "ns");
    m.add("centurion.build_ms", layers.build.mean(1e6), "ms");
    m.add("picoblaze.ns_per_instruction", ns_per_instruction, "ns");
    m.add(
        "picoblaze.instr_per_scan.ni",
        probes::instr_per_scan(true),
        "instr/scan",
    );
    m.add(
        "picoblaze.instr_per_scan.ffw",
        probes::instr_per_scan(false),
        "instr/scan",
    );
    m.add("noc.flit_hops", count(sim.flit_hops), "count");
    m.add(
        "noc.messages_injected",
        count(sim.messages_injected),
        "count",
    );
    m.add(
        "noc.messages_delivered",
        count(sim.messages_delivered),
        "count",
    );
    m.add(
        "noc.delivery_frac",
        frac(sim.messages_delivered as f64, sim.messages_injected as f64),
        "frac",
    );
    m.add("noc.ns_per_flit_hop", ns_per_flit_hop, "ns");
    m.add("thermal.solves", count(sim.thermal_solves), "count");
    m.add("thermal.victim_solve_ms", victim_solve_ms, "ms");
    m.add("thermal.grid_step_us", grid_step_us, "us");
    m.add("scenario.expand_ms", expand_ms, "ms");
    m.add(
        "scenario.timeline_compile_ms",
        layers.compile.mean(1e6),
        "ms",
    );
    m.add("scenario.timeline_poll_us", layers.poll.mean(1e3), "us");
    m.add("scenario.recorder_sample_us", layers.sample.mean(1e3), "us");
    m.add("scenario.render_ms", render_ms, "ms");
    m.add("scenario.journal_append_us", journal_append_us, "us");
    m.add("scenario.merge_ms", merge_ms, "ms");
    m.add(
        "scenario.dispatch_busy_frac",
        frac(busy_s, available_s),
        "frac",
    );
    m.add(
        "scenario.dispatch_worker_s",
        available_s / dispatch_reps,
        "s",
    );
    m.add("scenario.dispatch_retries", retries as f64, "count");
    m.add(
        "scenario.dispatch_reassignments",
        reassignments as f64,
        "count",
    );
    m.add("telemetry.sidecar_render_ms", sidecar_render_ms, "ms");
    m.add(
        "trace.self_s.bench",
        per_pass(layers.bench_self_ns()) / 1e9,
        "s",
    );
    m.add(
        "trace.self_s.scenario",
        per_pass(layers.scenario_ns()) / 1e9,
        "s",
    );
    m.add(
        "trace.self_s.centurion",
        per_pass(layers.centurion_ns()) / 1e9,
        "s",
    );
    m.add("attrib.predicted_s", predicted_s, "s");
    m.add(
        "attrib.residue_frac",
        1.0 - frac(predicted_s, run_until_s),
        "frac",
    );
    m.add(
        "bench.runs_per_cpu_s_untraced",
        median(&untraced),
        "1/cpu-s",
    );
    m.add("bench.runs_per_cpu_s_traced", median(&traced), "1/cpu-s");
    m.add(
        "bench.trace_overhead_frac",
        1.0 - frac(median(&traced), median(&untraced)),
        "frac",
    );
    m
}
