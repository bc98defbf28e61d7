//! Remote shard dispatch: transport-agnostic sweep scale-out.
//!
//! PR 4 made the shard the unit of distribution: a pure slice of the
//! sweep's run list, identified by nothing but the sweep descriptor and
//! `K/N` coordinates, executed with an append-only checkpoint and
//! emitted as a fingerprinted, bit-exact artefact. This module adds the
//! layer that *ships* those shards somewhere and gets the artefacts
//! back: a [`ShardTransport`] trait (spawn a shard, poll its status,
//! read its checkpoint heartbeat, fetch its artefact) and a
//! [`dispatch`] loop that hands shards to a pool of workers
//! work-stealing style, watches their checkpoints for progress, kills
//! and reassigns dead or stalled workers, and finishes with a
//! fingerprint-verified [`merge_shards`] — so the merged artefact is
//! **byte-identical** to a single-process [`crate::sweep::run_sweep`],
//! reassignments and all.
//!
//! The workers of one pool share a work directory, and a reassigned
//! shard resumes from the checkpoint journal the dead worker left there.
//! Two transports ship with the engine:
//!
//! - [`LocalProcess`] — the reference implementation: each worker is a
//!   subprocess of the `scenarios` binary (`run --sweep … --shard K/N
//!   --checkpoint …`).
//! - [`Mock`] — an in-process transport with scripted behaviours
//!   (complete, crash after *n* runs, hang, refuse to spawn) that
//!   executes shards through the real [`run_shard`] checkpoint path;
//!   the deterministic backend the dispatcher tests drive.
//!
//! Failure semantics and the exactly-once argument are documented in
//! `docs/dispatch.md`.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sirtm_telemetry::{SpanGuard, Tracer};

use crate::chaos::{ChaosLedger, RetryPolicy};
use crate::json::Json;
use crate::shard::{checkpoint_file, fingerprint, merge_shards, run_shard, ShardPlan, ShardResult};
use crate::sweep::{SweepOptions, SweepResult, SweepSpec};

/// One unit of dispatchable work: everything a worker needs to execute
/// a shard, with no side-channel. The descriptor travels as text so a
/// worker process can rebuild the `SweepSpec` (and re-derive its slice
/// and seeds) from the wire format alone.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// Sweep name (artefact file naming).
    pub sweep_name: String,
    /// The full sweep descriptor, pretty-rendered JSON.
    pub sweep_text: String,
    /// [`fingerprint`] of the descriptor; every checkpoint and artefact
    /// this job produces must carry it.
    pub fingerprint: String,
    /// Which slice of which partition to run.
    pub plan: ShardPlan,
}

impl ShardJob {
    /// The jobs of an `shard_count`-way partition of `sweep`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn plan_sweep(sweep: &SweepSpec, shard_count: usize) -> Vec<Self> {
        let text = sweep.to_json().render_pretty();
        let print = fingerprint(sweep);
        ShardPlan::all(shard_count, sweep.run_count())
            .into_iter()
            .map(|plan| ShardJob {
                sweep_name: sweep.name.clone(),
                sweep_text: text.clone(),
                fingerprint: print.clone(),
                plan,
            })
            .collect()
    }

    /// `--shard K/N` coordinates, 1-based, as the CLI spells them.
    pub fn coords(&self) -> String {
        format!("{}/{}", self.plan.shard + 1, self.plan.shards)
    }
}

/// What a poll of a busy worker observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollStatus {
    /// The shard is still executing.
    Running,
    /// The worker's process (or mock) finished. `success` means a clean
    /// exit — the artefact should now be fetchable; anything else is a
    /// crash, a kill, or a transport error described by `detail`.
    Exited {
        /// Clean exit?
        success: bool,
        /// Human-readable failure description (empty on success).
        detail: String,
    },
}

/// A worker slot the dispatcher can run shards on. One instance = one
/// worker: it executes at most one shard at a time, and the dispatcher
/// drives it through `spawn → poll/heartbeat → fetch` (or `kill`).
///
/// Implementations must be *restartable*: after an exit (clean or not)
/// or a `kill`, a new `spawn` starts the next job. The workers of one
/// pool journal into one shared checkpoint directory, so a reassigned
/// shard resumes from whatever its earlier attempts journalled.
pub trait ShardTransport {
    /// Stable worker label for reports and logs.
    fn label(&self) -> &str;

    /// Starts executing `job`. The worker is busy until [`Self::poll`]
    /// reports an exit.
    ///
    /// # Errors
    ///
    /// Returns a description when the worker cannot start the job at
    /// all (unreachable host, spawn failure); the dispatcher counts it
    /// as a failed attempt and offers the shard to another worker.
    fn spawn(&mut self, job: &ShardJob) -> Result<(), String>;

    /// Non-blocking status of the current job.
    fn poll(&mut self) -> PollStatus;

    /// Progress marker: the number of completed runs visible in the
    /// worker's checkpoint. Must be monotone within one attempt; the
    /// dispatcher declares a stall when it stops advancing.
    fn heartbeat(&mut self) -> usize;

    /// Fetches the completed shard artefact after a successful exit.
    ///
    /// # Errors
    ///
    /// Returns a description when the artefact is missing or
    /// unparsable; the dispatcher counts the attempt as failed.
    fn fetch(&mut self, job: &ShardJob) -> Result<ShardResult, String>;

    /// Kills whatever is running. Idempotent; called before every
    /// reassignment so two workers never append to one checkpoint at
    /// the same time through this dispatcher.
    fn kill(&mut self);
}

// ---------------------------------------------------------------------------
// LocalProcess: subprocess fan-out over the `scenarios` binary.
// ---------------------------------------------------------------------------

/// The reference transport: each worker is a subprocess of the
/// `scenarios` binary running `run --sweep FILE --shard K/N
/// --checkpoint DIR/ckpt --out …` inside a **shared** local work
/// directory. Because the checkpoint directory is shared, a reassigned
/// shard resumes from the dead worker's journal.
#[derive(Debug)]
pub struct LocalProcess {
    label: String,
    bin: PathBuf,
    dir: PathBuf,
    threads: usize,
    child: Option<Child>,
    current: Option<ShardJob>,
}

impl LocalProcess {
    /// A worker running `bin` (the `scenarios` binary — callers inside
    /// the binary itself pass `std::env::current_exe()`) in the shared
    /// work directory `dir` with `threads` in-process workers per shard
    /// (0 = all cores).
    pub fn new(label: &str, bin: &Path, dir: &Path, threads: usize) -> Self {
        Self {
            label: label.to_string(),
            bin: bin.to_path_buf(),
            dir: dir.to_path_buf(),
            threads,
            child: None,
            current: None,
        }
    }

    fn sweep_path(&self, job: &ShardJob) -> PathBuf {
        self.dir.join(format!("sweep-{}.json", job.fingerprint))
    }

    fn artifact_path(&self, job: &ShardJob) -> PathBuf {
        self.dir
            .join(ShardResult::artifact_name(&job.sweep_name, job.plan))
    }

    fn stderr_path(&self) -> PathBuf {
        self.dir.join(format!("{}.stderr", self.label))
    }

    fn stderr_tail(&self) -> String {
        match std::fs::read_to_string(self.stderr_path()) {
            Ok(text) => {
                let tail: String = text.chars().rev().take(400).collect();
                tail.chars().rev().collect::<String>().trim().to_string()
            }
            Err(_) => String::new(),
        }
    }
}

/// Completed-run count of a checkpoint journal: its line count minus
/// the header. Torn tail lines over-count by at most one completed run,
/// which only makes a heartbeat *advance* — never report false quiet —
/// so stall detection stays conservative.
fn journal_rows(text: &str) -> usize {
    text.lines().count().saturating_sub(1)
}

/// The fingerprint-namespaced checkpoint directory inside a work
/// directory — one namespace per sweep, so a work directory is
/// reusable across dispatches and a stale checkpoint of another sweep
/// never collides with (and is rejected by) a new run's journal.
fn namespaced_ckpt_dir(work_dir: &Path, job: &ShardJob) -> PathBuf {
    work_dir.join("ckpt").join(&job.fingerprint)
}

/// The heartbeat both transports read: completed-run count of the job's
/// journal in the shared work directory.
fn fs_heartbeat(work_dir: &Path, job: &ShardJob) -> usize {
    let path = checkpoint_file(&namespaced_ckpt_dir(work_dir, job), job.plan);
    std::fs::read_to_string(path)
        .map(|t| journal_rows(&t))
        .unwrap_or(0)
}

impl ShardTransport for LocalProcess {
    fn label(&self) -> &str {
        &self.label
    }

    fn spawn(&mut self, job: &ShardJob) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cannot create {}: {e}", self.dir.display()))?;
        // Staged unconditionally, temp-then-rename: a descriptor torn
        // by a killed dispatcher self-heals on the next spawn instead
        // of poisoning the work directory forever, and concurrent
        // writers of the same fingerprint write the same bytes.
        let sweep_path = self.sweep_path(job);
        let tmp = self
            .dir
            .join(format!("sweep-{}.json.{}.tmp", job.fingerprint, self.label));
        std::fs::write(&tmp, &job.sweep_text)
            .map_err(|e| format!("cannot stage {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &sweep_path)
            .map_err(|e| format!("cannot stage {}: {e}", sweep_path.display()))?;
        let stderr = std::fs::File::create(self.stderr_path())
            .map_err(|e| format!("cannot open worker stderr file: {e}"))?;
        let child = Command::new(&self.bin)
            .arg("run")
            .arg("--sweep")
            .arg(&sweep_path)
            .arg("--shard")
            .arg(job.coords())
            .arg("--checkpoint")
            .arg(namespaced_ckpt_dir(&self.dir, job))
            .arg("--threads")
            .arg(self.threads.to_string())
            .arg("--out")
            .arg(self.artifact_path(job))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.bin.display()))?;
        self.child = Some(child);
        self.current = Some(job.clone());
        Ok(())
    }

    fn poll(&mut self) -> PollStatus {
        let Some(child) = self.child.as_mut() else {
            return PollStatus::Exited {
                success: false,
                detail: "no child process".to_string(),
            };
        };
        match child.try_wait() {
            Ok(None) => PollStatus::Running,
            Ok(Some(status)) => {
                self.child = None;
                if status.success() {
                    PollStatus::Exited {
                        success: true,
                        detail: String::new(),
                    }
                } else {
                    let tail = self.stderr_tail();
                    PollStatus::Exited {
                        success: false,
                        detail: if tail.is_empty() {
                            format!("worker exited with {status}")
                        } else {
                            format!("worker exited with {status}: {tail}")
                        },
                    }
                }
            }
            Err(e) => {
                self.child = None;
                PollStatus::Exited {
                    success: false,
                    detail: format!("wait failed: {e}"),
                }
            }
        }
    }

    fn heartbeat(&mut self) -> usize {
        match &self.current {
            Some(job) => fs_heartbeat(&self.dir, job),
            None => 0,
        }
    }

    fn fetch(&mut self, job: &ShardJob) -> Result<ShardResult, String> {
        ShardResult::read(&self.artifact_path(job))
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------------
// Mock: deterministic in-process transport for tests and benches.
// ---------------------------------------------------------------------------

/// One scripted behaviour of a [`Mock`] worker, consumed per spawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MockBehaviour {
    /// Execute the shard to completion and exit cleanly.
    Complete,
    /// Execute this many *new* runs (checkpointed through the real
    /// [`run_shard`] journal), then report a crash — the artefact dies
    /// with the worker, the checkpoint survives.
    DieAfter(usize),
    /// Report `Running` forever with a frozen heartbeat — a hung
    /// worker, detectable only by stall detection.
    Hang,
    /// Fail the spawn call itself (an unreachable worker).
    RefuseSpawn,
}

#[derive(Debug)]
enum MockOutcome {
    Done(ShardResult),
    Crashed(String),
    Hung,
}

/// An in-process transport with a scripted failure model. Like
/// [`LocalProcess`] workers, the `Mock`s of one pool share a work
/// directory, and shard execution goes through the real [`run_shard`]
/// journal code, so a reassigned shard resumes from the journal a dead
/// worker left there. Exhausted scripts default to
/// [`MockBehaviour::Complete`].
#[derive(Debug)]
pub struct Mock {
    label: String,
    dir: PathBuf,
    script: VecDeque<MockBehaviour>,
    outcome: Option<MockOutcome>,
    current: Option<ShardJob>,
    /// Event log (shared with the test that scripted this worker):
    /// one line per spawn/kill, including resume counts.
    pub events: Vec<String>,
}

impl Mock {
    /// A well-behaved worker journalling into the work directory `dir`,
    /// shared with the other workers of its pool.
    pub fn new(label: &str, dir: &Path) -> Self {
        Self {
            label: label.to_string(),
            dir: dir.to_path_buf(),
            script: VecDeque::new(),
            outcome: None,
            current: None,
            events: Vec::new(),
        }
    }

    /// Scripts the next spawns' behaviours, in order.
    #[must_use]
    pub fn script(mut self, behaviours: impl IntoIterator<Item = MockBehaviour>) -> Self {
        self.script.extend(behaviours);
        self
    }
}

impl ShardTransport for Mock {
    fn label(&self) -> &str {
        &self.label
    }

    fn spawn(&mut self, job: &ShardJob) -> Result<(), String> {
        let behaviour = self.script.pop_front().unwrap_or(MockBehaviour::Complete);
        self.current = Some(job.clone());
        if behaviour == MockBehaviour::RefuseSpawn {
            self.events.push(format!("refused shard {}", job.coords()));
            return Err(format!("{}: mock refuses to spawn", self.label));
        }
        if behaviour == MockBehaviour::Hang {
            self.events.push(format!("hung on shard {}", job.coords()));
            self.outcome = Some(MockOutcome::Hung);
            return Ok(());
        }
        let sweep = SweepSpec::from_json_text(&job.sweep_text)
            .map_err(|e| format!("{}: bad descriptor: {e}", self.label))?;
        let limit = match behaviour {
            MockBehaviour::DieAfter(n) => Some(n),
            _ => None,
        };
        let report = run_shard(
            &sweep,
            job.plan,
            Some(&namespaced_ckpt_dir(&self.dir, job)),
            SweepOptions { threads: 1 },
            limit,
        )?;
        self.events.push(format!(
            "ran shard {}: resumed {}, executed {}",
            job.coords(),
            report.resumed,
            report.executed
        ));
        self.outcome = Some(match (behaviour, report.result) {
            // A crash loses the artefact even if the slice happened to
            // finish; the checkpoint is all that survives.
            (MockBehaviour::DieAfter(n), _) => {
                MockOutcome::Crashed(format!("mock crashed after {n} new run(s)"))
            }
            (_, Some(result)) => MockOutcome::Done(result),
            (_, None) => MockOutcome::Crashed("mock interrupted without result".to_string()),
        });
        Ok(())
    }

    fn poll(&mut self) -> PollStatus {
        match &self.outcome {
            Some(MockOutcome::Done(_)) => PollStatus::Exited {
                success: true,
                detail: String::new(),
            },
            Some(MockOutcome::Crashed(detail)) => PollStatus::Exited {
                success: false,
                detail: detail.clone(),
            },
            Some(MockOutcome::Hung) => PollStatus::Running,
            None => PollStatus::Exited {
                success: false,
                detail: "nothing spawned".to_string(),
            },
        }
    }

    fn heartbeat(&mut self) -> usize {
        match &self.current {
            Some(job) => fs_heartbeat(&self.dir, job),
            None => 0,
        }
    }

    fn fetch(&mut self, _job: &ShardJob) -> Result<ShardResult, String> {
        match &self.outcome {
            Some(MockOutcome::Done(result)) => Ok(result.clone()),
            _ => Err(format!("{}: no completed shard to fetch", self.label)),
        }
    }

    fn kill(&mut self) {
        self.events.push("killed".to_string());
        self.outcome = None;
    }
}

// ---------------------------------------------------------------------------
// The dispatcher.
// ---------------------------------------------------------------------------

/// Dispatcher tuning knobs.
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// Sleep between poll rounds ([`Duration::ZERO`] = spin; the mock
    /// tests do, real transports should not).
    pub poll_interval: Duration,
    /// Declare a busy worker stalled after this many consecutive polls
    /// without checkpoint-heartbeat progress; 0 disables stall
    /// detection (dead workers are still caught by their exit status).
    /// Must comfortably exceed the slowest single run divided by the
    /// poll interval — heartbeats only advance per *completed* run.
    pub stall_polls: usize,
    /// Give up on the whole dispatch after this many attempts on any
    /// one shard (minimum 1).
    pub max_attempts: usize,
    /// Retire a worker after this many *consecutive* failed attempts
    /// (a success resets the count; minimum 1). Retired workers get no
    /// further shards; if every worker retires with work outstanding,
    /// the dispatch fails.
    pub worker_strikes: usize,
    /// Per-op retry/backoff for transport spawn and fetch calls within
    /// one attempt. The default is a single try (no in-attempt
    /// retries); [`RetryPolicy::persistent`] rides out transient
    /// faults with deterministic backoff.
    pub retry: RetryPolicy,
    /// Host-plane tracer. When set, the dispatcher emits one `attempt`
    /// span per assignment on the worker's track plus instant events
    /// for spawn failures, in-attempt retries, heartbeat progress,
    /// stall kills and requeues. Purely observational: the
    /// merged artefact is byte-identical with or without it.
    pub tracer: Option<Tracer>,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        Self {
            poll_interval: Duration::from_millis(10),
            stall_polls: 0,
            max_attempts: 5,
            worker_strikes: 3,
            retry: RetryPolicy::default(),
            tracer: None,
        }
    }
}

/// One attempt at one shard, for the report artefact.
#[derive(Debug, Clone)]
pub struct AttemptReport {
    /// Which worker ran it.
    pub worker: String,
    /// `completed`, or a failure description (`spawn failed: …`,
    /// `stalled …`, exit details).
    pub outcome: String,
    /// Wall time of the attempt.
    pub elapsed: Duration,
}

/// Per-shard dispatch history.
#[derive(Debug, Clone)]
pub struct ShardAttempts {
    /// Shard index, `0..shard_count`.
    pub shard: usize,
    /// Runs the shard owns.
    pub runs: usize,
    /// Attempts in order; the last one completed.
    pub attempts: Vec<AttemptReport>,
}

/// Per-worker dispatch totals.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The worker's label.
    pub worker: String,
    /// Shards completed.
    pub completed: usize,
    /// Failed attempts (crashes, stalls, spawn failures).
    pub failed: usize,
    /// In-attempt transport retries: spawn/fetch tries beyond each
    /// op's first, as executed under [`RetryPolicy`].
    pub retries: usize,
    /// Injected-fault counts attributed to this worker (fault class →
    /// firings), filled from [`ChaosLedger::worker_counts`] by
    /// [`DispatchReport::attribute_faults`] when a chaos harness drove
    /// the dispatch; empty otherwise. Same vocabulary as the trace's
    /// `fault` instant events.
    pub faults: Vec<(String, usize)>,
    /// Total wall time spent on attempts.
    pub busy: Duration,
    /// Whether the worker hit its strike limit and was retired.
    pub retired: bool,
}

/// The per-worker timing/retry report a dispatch emits alongside the
/// merged artefact. Wall times make this a *runtime report*, not a
/// determinism artefact — only the merged sweep artefact is
/// byte-comparable.
#[derive(Debug, Clone)]
pub struct DispatchReport {
    /// Sweep name.
    pub sweep_name: String,
    /// Sweep descriptor fingerprint.
    pub fingerprint: String,
    /// How many shards the sweep was split into.
    pub shard_count: usize,
    /// Total runs.
    pub run_count: usize,
    /// End-to-end wall time.
    pub elapsed: Duration,
    /// Per-worker totals.
    pub workers: Vec<WorkerReport>,
    /// Per-shard attempt histories.
    pub shards: Vec<ShardAttempts>,
    /// Injected-fault counts (fault class → firings) when the dispatch
    /// ran under a [`crate::chaos::ChaosTransport`] harness; empty for
    /// a plain dispatch. Filled by the harness driver from its
    /// [`crate::chaos::ChaosLedger`] after the dispatch returns.
    pub injected: Vec<(String, usize)>,
}

impl DispatchReport {
    /// Number of reassignments: attempts beyond each shard's first.
    pub fn reassignments(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.attempts.len().saturating_sub(1))
            .sum()
    }

    /// The report artefact JSON (`kind: sirtm-dispatch-report`). An
    /// `injected_faults` object (fault class → count) appears when a
    /// chaos harness drove the dispatch.
    pub fn to_json(&self) -> Json {
        let ms = |d: Duration| Json::Num((d.as_secs_f64() * 1e3 * 10.0).round() / 10.0);
        let mut fields = vec![
            ("kind", Json::Str("sirtm-dispatch-report".into())),
            ("sweep", Json::Str(self.sweep_name.clone())),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("shards", Json::Num(self.shard_count as f64)),
            ("runs", Json::Num(self.run_count as f64)),
            ("reassignments", Json::Num(self.reassignments() as f64)),
            ("elapsed_ms", ms(self.elapsed)),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            let mut obj = vec![
                                ("worker", Json::Str(w.worker.clone())),
                                ("completed", Json::Num(w.completed as f64)),
                                ("failed", Json::Num(w.failed as f64)),
                                ("retries", Json::Num(w.retries as f64)),
                                ("busy_ms", ms(w.busy)),
                                ("retired", Json::Bool(w.retired)),
                            ];
                            if !w.faults.is_empty() {
                                obj.push((
                                    "faults",
                                    Json::Obj(
                                        w.faults
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                                            .collect(),
                                    ),
                                ));
                            }
                            Json::obj(obj)
                        })
                        .collect(),
                ),
            ),
            (
                "shard_attempts",
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("shard", Json::Num(s.shard as f64)),
                                ("runs", Json::Num(s.runs as f64)),
                                (
                                    "attempts",
                                    Json::Arr(
                                        s.attempts
                                            .iter()
                                            .map(|a| {
                                                Json::obj(vec![
                                                    ("worker", Json::Str(a.worker.clone())),
                                                    ("outcome", Json::Str(a.outcome.clone())),
                                                    ("elapsed_ms", ms(a.elapsed)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if !self.injected.is_empty() {
            fields.push((
                "injected_faults",
                Json::Obj(
                    self.injected
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }

    /// Writes the report artefact atomically (temp-then-rename via
    /// [`crate::shard::atomic_write`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        crate::shard::atomic_write(path, &self.to_json().render_pretty())
    }

    /// Fills the chaos columns from `ledger`: the pool-wide `injected`
    /// counts plus each worker's attributed `faults` slice, so the
    /// report, the ledger and the trace all count the same firings
    /// under the same fault-class names.
    pub fn attribute_faults(&mut self, ledger: &ChaosLedger) {
        self.injected = ledger.counts();
        for w in &mut self.workers {
            w.faults = ledger.worker_counts(&w.worker);
        }
    }
}

/// What a successful dispatch returns: the merged sweep result
/// (byte-identical to a single-process run) and the runtime report.
#[derive(Debug)]
pub struct DispatchOutcome {
    /// The merged sweep, through the fingerprint-verified
    /// [`merge_shards`].
    pub result: SweepResult,
    /// Per-worker / per-shard timings and retries.
    pub report: DispatchReport,
}

/// Dispatch bookkeeping: the work queue and the report under
/// construction, separated out so the poll loop stays readable.
struct Ledger {
    pending: VecDeque<usize>,
    workers: Vec<WorkerReport>,
    strikes: Vec<usize>,
    shards: Vec<ShardAttempts>,
    finished: Vec<Option<ShardResult>>,
    done: usize,
}

impl Ledger {
    /// Records a failed attempt: logs it, strikes the worker, and
    /// requeues the shard at the *front* (its checkpoint is warm).
    ///
    /// # Errors
    ///
    /// Fails the whole dispatch when the shard hits `max_attempts`.
    fn fail(
        &mut self,
        worker_idx: usize,
        label: &str,
        job: &ShardJob,
        outcome: String,
        elapsed: Duration,
        opts: &DispatchOptions,
    ) -> Result<(), String> {
        let shard = job.plan.shard;
        self.shards[shard].attempts.push(AttemptReport {
            worker: label.to_string(),
            outcome: outcome.clone(),
            elapsed,
        });
        self.workers[worker_idx].failed += 1;
        self.workers[worker_idx].busy += elapsed;
        self.strikes[worker_idx] += 1;
        if self.strikes[worker_idx] >= opts.worker_strikes.max(1) {
            self.workers[worker_idx].retired = true;
        }
        if self.shards[shard].attempts.len() >= opts.max_attempts.max(1) {
            return Err(format!(
                "shard {}/{} failed {} attempt(s); last: {outcome}",
                shard + 1,
                job.plan.shards,
                self.shards[shard].attempts.len()
            ));
        }
        if let Some(tracer) = &opts.tracer {
            tracer.instant(
                label,
                "requeue",
                &[
                    ("shard", &shard.to_string()),
                    ("attempts", &self.shards[shard].attempts.len().to_string()),
                ],
            );
        }
        self.pending.push_front(shard);
        Ok(())
    }

    /// Records a completed shard.
    fn succeed(
        &mut self,
        worker_idx: usize,
        label: &str,
        shard: usize,
        result: ShardResult,
        elapsed: Duration,
    ) {
        self.shards[shard].attempts.push(AttemptReport {
            worker: label.to_string(),
            outcome: "completed".to_string(),
            elapsed,
        });
        self.workers[worker_idx].completed += 1;
        self.workers[worker_idx].busy += elapsed;
        self.strikes[worker_idx] = 0;
        self.finished[shard] = Some(result);
        self.done += 1;
    }
}

/// State of one busy worker slot.
struct Busy {
    shard: usize,
    started: Instant,
    last_heartbeat: usize,
    quiet_polls: usize,
    /// The host-plane `attempt` span, closed (recorded) when the
    /// attempt ends; `None` when tracing is off.
    span: Option<SpanGuard>,
}

impl Busy {
    /// Ends the attempt span with its outcome arg (no-op untraced).
    fn close_span(&mut self, outcome: &str) {
        if let Some(mut span) = self.span.take() {
            span.arg("outcome", outcome);
        }
    }
}

/// Splits `sweep` into `shard_count` shards and executes them across
/// `workers`, work-stealing style: every idle worker takes the next
/// pending shard; a worker that exits dirty, loses its artefact, or
/// stalls (checkpoint heartbeat frozen for
/// [`DispatchOptions::stall_polls`] polls) is killed and the shard is
/// requeued for the next idle worker — which resumes from the
/// checkpoint in the shared work directory instead of recomputing.
/// Ends with a fingerprint-verified [`merge_shards`], so the returned
/// result is byte-identical to a single-process
/// [`crate::sweep::run_sweep`] of the same sweep.
///
/// The dispatch is *exactly-once at the run level*: a run may execute
/// more than once across attempts, but every run index lands in the
/// merged artefact exactly once, with a value independent of which
/// worker (or how many attempts) produced it. `docs/dispatch.md` makes
/// the argument in full.
///
/// # Errors
///
/// Fails when any shard exhausts [`DispatchOptions::max_attempts`],
/// when every worker retires with shards outstanding, or when the
/// final merge rejects the collected artefacts.
pub fn dispatch(
    sweep: &SweepSpec,
    shard_count: usize,
    workers: &mut [Box<dyn ShardTransport>],
    opts: &DispatchOptions,
) -> Result<DispatchOutcome, String> {
    if workers.is_empty() {
        return Err("dispatch needs at least one worker".to_string());
    }
    if shard_count == 0 {
        return Err("dispatch needs at least one shard".to_string());
    }
    // The sweep name becomes artefact file names; restrict it before
    // that can go wrong (a `/` would escape the work directory).
    let name_ok = !sweep.name.is_empty()
        && sweep
            .name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
    if !name_ok {
        return Err(format!(
            "sweep name `{}` is not dispatch-safe: use only ASCII letters, digits, \
             `.`, `_` and `-` (the name becomes file names)",
            sweep.name
        ));
    }
    let started = Instant::now();
    let jobs = ShardJob::plan_sweep(sweep, shard_count);
    let mut ledger = Ledger {
        pending: (0..shard_count).collect(),
        workers: workers
            .iter()
            .map(|w| WorkerReport {
                worker: w.label().to_string(),
                completed: 0,
                failed: 0,
                retries: 0,
                faults: Vec::new(),
                busy: Duration::ZERO,
                retired: false,
            })
            .collect(),
        strikes: vec![0; workers.len()],
        shards: jobs
            .iter()
            .map(|j| ShardAttempts {
                shard: j.plan.shard,
                runs: j.plan.len(),
                attempts: Vec::new(),
            })
            .collect(),
        finished: vec![None; shard_count],
        done: 0,
    };
    let mut busy: Vec<Option<Busy>> = workers.iter().map(|_| None).collect();
    let dispatch_span = opts.tracer.as_ref().map(|t| {
        let mut span = t.span("dispatch", "dispatch");
        span.arg("sweep", &sweep.name);
        span.arg("shards", &shard_count.to_string());
        span.arg("workers", &workers.len().to_string());
        span
    });
    if let Err(e) = dispatch_loop(&jobs, workers, opts, &mut ledger, &mut busy) {
        if let Some(mut span) = dispatch_span {
            span.arg("outcome", "failed");
        }
        // Don't leak running worker subprocesses past a failed dispatch.
        for worker in workers.iter_mut() {
            worker.kill();
        }
        return Err(e);
    }
    if let Some(mut span) = dispatch_span {
        span.arg("outcome", "completed");
    }

    let results: Vec<ShardResult> = ledger
        .finished
        .into_iter()
        .map(|r| r.expect("dispatch loop exits only when every shard finished"))
        .collect();
    let result = merge_shards(&results)?;
    Ok(DispatchOutcome {
        result,
        report: DispatchReport {
            sweep_name: sweep.name.clone(),
            fingerprint: fingerprint(sweep),
            shard_count,
            run_count: sweep.run_count(),
            elapsed: started.elapsed(),
            workers: ledger.workers,
            shards: ledger.shards,
            injected: Vec::new(),
        },
    })
}

/// Calls `call` on `worker` up to `tries` times (at least once), with
/// the deterministic backoff of `opts.retry` for `op` between tries.
/// Tries beyond the first are accumulated into `retries` and traced as
/// `retry` instants on the worker's track.
fn with_retry<T>(
    worker: &mut dyn ShardTransport,
    op: &str,
    tries: u32,
    opts: &DispatchOptions,
    retries: &mut usize,
    mut call: impl FnMut(&mut dyn ShardTransport) -> Result<T, String>,
) -> Result<T, String> {
    let tries = tries.max(1);
    let mut last = String::new();
    for t in 0..tries {
        if t > 0 {
            *retries += 1;
            if let Some(tracer) = &opts.tracer {
                tracer.instant(
                    worker.label(),
                    "retry",
                    &[("op", op), ("try", &t.to_string())],
                );
            }
        }
        let wait = opts.retry.delay(op, worker.label(), t);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        match call(worker) {
            Ok(value) => return Ok(value),
            Err(e) => last = e,
        }
    }
    if tries > 1 {
        Err(format!("{last} (after {tries} tries)"))
    } else {
        Err(last)
    }
}

/// The assignment/poll loop of [`dispatch`], separated so the caller
/// can kill the whole worker pool when it errors out.
fn dispatch_loop(
    jobs: &[ShardJob],
    workers: &mut [Box<dyn ShardTransport>],
    opts: &DispatchOptions,
    ledger: &mut Ledger,
    busy: &mut [Option<Busy>],
) -> Result<(), String> {
    let shard_count = jobs.len();
    while ledger.done < shard_count {
        // Assignment: every idle, unretired worker steals the next
        // pending shard.
        for (w, worker) in workers.iter_mut().enumerate() {
            if busy[w].is_some() || ledger.workers[w].retired {
                continue;
            }
            let Some(shard) = ledger.pending.pop_front() else {
                break;
            };
            let job = &jobs[shard];
            match with_retry(
                worker.as_mut(),
                "spawn",
                opts.retry.spawn_tries,
                opts,
                &mut ledger.workers[w].retries,
                |worker| worker.spawn(job),
            ) {
                Ok(()) => {
                    let span = opts.tracer.as_ref().map(|t| {
                        let mut span = t.span(worker.label(), "attempt");
                        span.arg("shard", &shard.to_string());
                        span
                    });
                    busy[w] = Some(Busy {
                        shard,
                        started: Instant::now(),
                        last_heartbeat: 0,
                        quiet_polls: 0,
                        span,
                    });
                }
                Err(e) => {
                    if let Some(tracer) = &opts.tracer {
                        tracer.instant(
                            worker.label(),
                            "spawn-failed",
                            &[("shard", &shard.to_string())],
                        );
                    }
                    ledger.fail(
                        w,
                        worker.label(),
                        job,
                        format!("spawn failed: {e}"),
                        Duration::ZERO,
                        opts,
                    )?;
                }
            }
        }
        if busy.iter().all(Option::is_none) {
            if ledger.done >= shard_count {
                break;
            }
            if ledger.workers.iter().all(|w| w.retired) {
                return Err(format!(
                    "all {} worker(s) retired with {} shard(s) unfinished",
                    workers.len(),
                    shard_count - ledger.done
                ));
            }
            // No worker busy, some unretired: spawns failed this round;
            // fall through to the sleep and retry.
        }
        // Polling: completions, crashes, and frozen heartbeats.
        for (w, worker) in workers.iter_mut().enumerate() {
            let Some(state) = busy[w].as_mut() else {
                continue;
            };
            let shard = state.shard;
            let job = &jobs[shard];
            match worker.poll() {
                PollStatus::Running => {
                    // Heartbeats exist only to feed stall detection, and
                    // each one reads the whole journal file — skip them
                    // entirely when it's disabled.
                    if opts.stall_polls == 0 {
                        continue;
                    }
                    let hb = worker.heartbeat();
                    if hb > state.last_heartbeat {
                        if let Some(tracer) = &opts.tracer {
                            tracer.instant(
                                worker.label(),
                                "heartbeat",
                                &[("shard", &shard.to_string()), ("runs", &hb.to_string())],
                            );
                        }
                        state.last_heartbeat = hb;
                        state.quiet_polls = 0;
                    } else {
                        state.quiet_polls += 1;
                    }
                    if state.quiet_polls >= opts.stall_polls {
                        worker.kill();
                        let elapsed = state.started.elapsed();
                        state.close_span("stalled");
                        if let Some(tracer) = &opts.tracer {
                            tracer.instant(
                                worker.label(),
                                "stall-kill",
                                &[("shard", &shard.to_string())],
                            );
                        }
                        busy[w] = None;
                        ledger.fail(
                            w,
                            worker.label(),
                            job,
                            format!(
                                "stalled: no checkpoint progress in {} poll(s)",
                                opts.stall_polls
                            ),
                            elapsed,
                            opts,
                        )?;
                    }
                }
                PollStatus::Exited { success: true, .. } => {
                    let elapsed = state.started.elapsed();
                    let Some(mut slot) = busy[w].take() else {
                        continue;
                    };
                    match with_retry(
                        worker.as_mut(),
                        "fetch",
                        opts.retry.fetch_tries,
                        opts,
                        &mut ledger.workers[w].retries,
                        |worker| worker.fetch(job),
                    ) {
                        Ok(result)
                            if result.fingerprint == job.fingerprint && result.plan == job.plan =>
                        {
                            slot.close_span("completed");
                            let label = worker.label().to_string();
                            ledger.succeed(w, &label, shard, result, elapsed);
                        }
                        Ok(result) => {
                            slot.close_span("artefact-mismatch");
                            ledger.fail(
                                w,
                                worker.label(),
                                job,
                                format!(
                                    "fetched artefact is for shard {}/{} of sweep {}, \
                                     not shard {} of {}",
                                    result.plan.shard + 1,
                                    result.plan.shards,
                                    result.fingerprint,
                                    job.coords(),
                                    job.fingerprint
                                ),
                                elapsed,
                                opts,
                            )?;
                        }
                        Err(e) => {
                            slot.close_span("fetch-failed");
                            ledger.fail(
                                w,
                                worker.label(),
                                job,
                                format!("exited cleanly but artefact fetch failed: {e}"),
                                elapsed,
                                opts,
                            )?;
                        }
                    }
                }
                PollStatus::Exited {
                    success: false,
                    detail,
                } => {
                    let elapsed = state.started.elapsed();
                    let Some(mut slot) = busy[w].take() else {
                        continue;
                    };
                    slot.close_span("crashed");
                    ledger.fail(w, worker.label(), job, detail, elapsed, opts)?;
                }
            }
        }
        if ledger.done < shard_count && opts.poll_interval > Duration::ZERO {
            std::thread::sleep(opts.poll_interval);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::presets;
    use crate::sweep::{run_sweep, Axis, SeedScheme};

    /// A 2-cell × 2-replicate sweep (4 runs), one faulted cell so the
    /// `null`-able recovery column is exercised through the wire.
    fn small_sweep() -> SweepSpec {
        SweepSpec {
            name: "dispatch-unit".to_string(),
            base: presets::preset("light-4x4").expect("known preset"),
            axes: vec![Axis::RandomFaults {
                at_ms: 60.0,
                counts: vec![0, 3],
            }],
            replicates: 2,
            seeds: SeedScheme::Derived { root: 23 },
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sirtm_dispatch_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast() -> DispatchOptions {
        DispatchOptions {
            poll_interval: Duration::ZERO,
            ..DispatchOptions::default()
        }
    }

    #[test]
    fn two_mock_workers_merge_byte_identical_to_single_process() {
        let sweep = small_sweep();
        let reference = run_sweep(&sweep, SweepOptions { threads: 1 })
            .to_json()
            .render_pretty();
        let dir = temp_dir("clean");
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(Mock::new("w0", &dir)),
            Box::new(Mock::new("w1", &dir)),
        ];
        let outcome = dispatch(&sweep, 4, &mut workers, &fast()).expect("dispatch completes");
        assert_eq!(outcome.result.to_json().render_pretty(), reference);
        assert_eq!(outcome.report.reassignments(), 0);
        assert_eq!(outcome.report.shard_count, 4);
        let completed: usize = outcome.report.workers.iter().map(|w| w.completed).sum();
        assert_eq!(completed, 4);
        // Work-stealing: with 4 shards and 2 always-idle workers, both
        // must have been used.
        assert!(
            outcome.report.workers.iter().all(|w| w.completed >= 1),
            "both workers should steal work: {:?}",
            outcome.report.workers
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn more_shards_than_runs_still_merges() {
        let sweep = small_sweep(); // 4 runs
        let reference = run_sweep(&sweep, SweepOptions { threads: 1 })
            .to_json()
            .render_pretty();
        let dir = temp_dir("empty_shards");
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(Mock::new("w0", &dir))];
        let outcome = dispatch(&sweep, 6, &mut workers, &fast()).expect("dispatch completes");
        assert_eq!(outcome.result.to_json().render_pretty(), reference);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn crashed_worker_is_reassigned_and_the_resume_skips_checkpointed_runs() {
        let sweep = small_sweep();
        let reference = run_sweep(&sweep, SweepOptions { threads: 1 })
            .to_json()
            .render_pretty();
        let dir = temp_dir("crash");
        // Worker 0 crashes after one checkpointed run of its first
        // shard and is retired on the spot (one strike); worker 1 picks
        // everything up, resuming the crashed shard from the checkpoint
        // the victim left in the shared work directory.
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(Mock::new("victim", &dir).script([MockBehaviour::DieAfter(1)])),
            Box::new(Mock::new("survivor", &dir)),
        ];
        let opts = DispatchOptions {
            worker_strikes: 1,
            ..fast()
        };
        let outcome = dispatch(&sweep, 2, &mut workers, &opts).expect("dispatch completes");
        assert_eq!(outcome.result.to_json().render_pretty(), reference);
        assert_eq!(outcome.report.reassignments(), 1);
        let victim = &outcome.report.workers[0];
        assert!(victim.retired, "one strike retires the victim");
        assert_eq!(victim.failed, 1);
        // The resume itself, replayed with concrete handles in a fresh
        // shared directory: the victim's journal survives its crash, and
        // the next worker resumes from it instead of recomputing.
        let replay = dir.join("replay");
        let job = &ShardJob::plan_sweep(&sweep, 2)[0];
        let mut victim = Mock::new("victim", &replay).script([MockBehaviour::DieAfter(1)]);
        victim.spawn(job).expect("spawn works");
        assert_eq!(victim.heartbeat(), 1, "the crash leaves one journalled run");
        let mut survivor = Mock::new("survivor", &replay);
        survivor.spawn(job).expect("spawn works");
        assert!(
            survivor
                .events
                .iter()
                .any(|e| e.contains("resumed 1, executed 1")),
            "resume must skip the checkpointed run: {:?}",
            survivor.events
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn hung_worker_is_stall_killed_and_its_shard_reassigned() {
        let sweep = small_sweep();
        let reference = run_sweep(&sweep, SweepOptions { threads: 1 })
            .to_json()
            .render_pretty();
        let dir = temp_dir("hang");
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![
            Box::new(Mock::new("hanger", &dir).script([MockBehaviour::Hang])),
            Box::new(Mock::new("worker", &dir)),
        ];
        let opts = DispatchOptions {
            stall_polls: 3,
            worker_strikes: 1,
            ..fast()
        };
        let outcome = dispatch(&sweep, 2, &mut workers, &opts).expect("dispatch completes");
        assert_eq!(outcome.result.to_json().render_pretty(), reference);
        assert!(
            outcome
                .report
                .shards
                .iter()
                .flat_map(|s| &s.attempts)
                .any(|a| a.outcome.contains("stalled")),
            "the hang must be reported as a stall: {:?}",
            outcome.report.shards
        );
        assert!(outcome.report.workers[0].retired);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn all_workers_retired_fails_the_dispatch() {
        let sweep = small_sweep();
        let dir = temp_dir("retired");
        let mut workers: Vec<Box<dyn ShardTransport>> =
            vec![Box::new(Mock::new("dud", &dir).script([
                MockBehaviour::RefuseSpawn,
                MockBehaviour::RefuseSpawn,
            ]))];
        let opts = DispatchOptions {
            worker_strikes: 1,
            max_attempts: 10,
            ..fast()
        };
        let err = dispatch(&sweep, 2, &mut workers, &opts).expect_err("must fail");
        assert!(err.contains("retired"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_shard_exhausting_max_attempts_fails_the_dispatch() {
        let sweep = small_sweep();
        let dir = temp_dir("attempts");
        let mut workers: Vec<Box<dyn ShardTransport>> =
            vec![Box::new(Mock::new("crashy", &dir).script([
                MockBehaviour::DieAfter(0),
                MockBehaviour::DieAfter(0),
                MockBehaviour::DieAfter(0),
            ]))];
        let opts = DispatchOptions {
            max_attempts: 3,
            worker_strikes: 100,
            ..fast()
        };
        let err = dispatch(&sweep, 1, &mut workers, &opts).expect_err("must fail");
        assert!(err.contains("3 attempt(s)"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dispatch_report_renders_and_counts() {
        let sweep = small_sweep();
        let dir = temp_dir("report");
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(Mock::new("solo", &dir))];
        let outcome = dispatch(&sweep, 2, &mut workers, &fast()).expect("dispatch completes");
        let text = outcome.report.to_json().render_pretty();
        let v = parse(&text).expect("report parses");
        assert_eq!(
            v.get("kind").and_then(Json::as_str),
            Some("sirtm-dispatch-report")
        );
        assert_eq!(v.get("runs").and_then(Json::as_num), Some(4.0));
        assert_eq!(
            v.get("workers").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unsafe_sweep_names_are_rejected_before_any_worker_runs() {
        let mut sweep = small_sweep();
        sweep.name = "bad name'; rm -rf /tmp/x".to_string();
        let dir = temp_dir("name");
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(Mock::new("w", &dir))];
        let err = dispatch(&sweep, 1, &mut workers, &fast()).expect_err("must fail");
        assert!(err.contains("dispatch-safe"), "unexpected error: {err}");
        let err = dispatch(
            &SweepSpec {
                name: "has/slash".to_string(),
                ..small_sweep()
            },
            1,
            &mut workers,
            &fast(),
        )
        .expect_err("must fail");
        assert!(err.contains("dispatch-safe"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
