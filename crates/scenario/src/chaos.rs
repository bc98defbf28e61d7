//! Deterministic chaos harness for the dispatch/checkpoint layer.
//!
//! Three pieces, all reproducible from a seed (`docs/chaos.md` has the
//! taxonomy and the seed scheme):
//!
//! * [`ChaosTransport`] — a decorator implementing
//!   [`ShardTransport`] around either backend
//!   ([`crate::dispatch::LocalProcess`], [`crate::dispatch::Mock`]),
//!   injecting faults from a [`SplitMix64`]-derived schedule keyed by
//!   `(chaos seed, worker label, attempt)`: spawn refusals,
//!   kill-after-N-heartbeats, frozen heartbeats, fetch errors and
//!   artefact corruption.
//! * [`FaultyFs`] — seeded file-level fault operations for the
//!   checkpoint/artefact path: tear a file mid-line, corrupt an
//!   interior journal line, leave stale `.tmp` files behind.
//! * [`RetryPolicy`] — a retry/backoff policy (bounded per-op budgets,
//!   deterministic seeded jitter) the dispatcher threads through
//!   transport spawn and fetch.
//!
//! The harness exists to *prove* an invariant, not to observe crashes:
//! whatever the schedule injects, a dispatch that completes must merge
//! to an artefact byte-identical to a clean single-process run. The
//! `scenarios chaos-soak` subcommand and the tests below assert exactly
//! that, per fault class and under randomized storms.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sirtm_rng::{Rng, SplitMix64};
use sirtm_telemetry::Tracer;

use crate::dispatch::{PollStatus, ShardJob, ShardTransport};
use crate::shard::ShardResult;

// ---------------------------------------------------------------------------
// Seed scheme.
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over `bytes` — folds worker labels and op names into
/// the chaos seed scheme.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The chaos stream for one decision point: a [`SplitMix64`] keyed by
/// `(seed, label, attempt, salt)`. Every fault decision draws from a
/// stream derived this way, so a schedule depends only on the seed and
/// the worker's own attempt history — never on wall-clock timing or on
/// what other workers did.
fn chaos_stream(seed: u64, label: &str, attempt: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(
        seed ^ fnv1a(label.as_bytes())
            ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ salt.wrapping_mul(0xa24b_aed4_963e_e407),
    )
}

/// Stream salts, one per decision point.
const SALT_FAULT: u64 = 1;
const SALT_RETRY: u64 = 3;

// ---------------------------------------------------------------------------
// Retry policy.
// ---------------------------------------------------------------------------

/// Retry/backoff policy for transport operations *within* one dispatch
/// attempt: how many times to re-try a failed `spawn` or `fetch`
/// before the attempt counts as failed, and how long to back off
/// between tries. Backoff is exponential with deterministic jitter —
/// the jitter is drawn from a [`SplitMix64`] keyed by `(jitter_seed,
/// op, worker label, try)`, so two runs with the same seed back off
/// identically. Heartbeats carry no retry budget: they are advisory
/// (an unreadable journal reads as no progress), and the dispatcher's
/// stall window absorbs a quiet stretch.
///
/// The default policy is a single try with zero delay — exactly the
/// pre-policy dispatcher behaviour, so scripted transport tests keep
/// their semantics. [`RetryPolicy::persistent`] is the
/// production-shaped policy the chaos soak runs under.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Spawn tries per attempt (minimum 1).
    pub spawn_tries: u32,
    /// Fetch tries per clean exit (minimum 1).
    pub fetch_tries: u32,
    /// Backoff before the second try; doubles per further try.
    pub base_delay: Duration,
    /// Backoff cap (per-op budget: no single wait exceeds this plus
    /// its jitter).
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            spawn_tries: 1,
            fetch_tries: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that rides out transient faults: 3 spawn tries, 2
    /// fetch tries, 5 ms base backoff capped at 80 ms.
    #[must_use]
    pub fn persistent(jitter_seed: u64) -> Self {
        Self {
            spawn_tries: 3,
            fetch_tries: 2,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(80),
            jitter_seed,
        }
    }

    /// The backoff before try number `try_idx` (0-based; the first try
    /// waits nothing): `base * 2^(try_idx-1)` capped at `max_delay`,
    /// plus up to 50% deterministic jitter.
    #[must_use]
    pub fn delay(&self, op: &str, label: &str, try_idx: u32) -> Duration {
        if try_idx == 0 || self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay
            .saturating_mul(1u32 << (try_idx - 1).min(16))
            .min(self.max_delay.max(self.base_delay));
        let mut sm = chaos_stream(self.jitter_seed, label, u64::from(try_idx), SALT_RETRY)
            .split_off(fnv1a(op.as_bytes()));
        let half = (exp.as_nanos() / 2).max(1) as u64;
        exp + Duration::from_nanos(sm.below_u64(half))
    }
}

/// Mixes an extra salt into a stream (used to fold the op name into
/// retry jitter without widening `chaos_stream`'s signature).
trait SplitOff {
    fn split_off(self, salt: u64) -> SplitMix64;
}

impl SplitOff for SplitMix64 {
    fn split_off(mut self, salt: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ salt)
    }
}

// ---------------------------------------------------------------------------
// Fault taxonomy.
// ---------------------------------------------------------------------------

/// A per-attempt transport fault. Drawn once per spawn; each fault
/// manifests at the phase it names and is recorded in the
/// [`ChaosLedger`] when it actually fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// `spawn` fails outright — an unreachable worker.
    RefuseSpawn,
    /// The worker is killed once its checkpoint heartbeat reaches this
    /// many completed runs — a mid-shard death with a warm checkpoint.
    KillAfterHeartbeats(usize),
    /// The worker reports `Running` forever with a frozen heartbeat —
    /// a hang only stall detection can catch, so schedules including
    /// this fault require [`crate::dispatch::DispatchOptions::stall_polls`] > 0.
    FreezeHeartbeat,
    /// The artefact fetch after a clean exit fails.
    FetchError,
    /// The fetched artefact arrives corrupted (mangled fingerprint
    /// envelope); the dispatcher's fetch validation must reject it.
    CorruptArtifact,
}

impl Fault {
    /// The ledger key for this fault class.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fault::RefuseSpawn => "spawn-refusal",
            Fault::KillAfterHeartbeats(_) => "kill-after-heartbeats",
            Fault::FreezeHeartbeat => "frozen-heartbeat",
            Fault::FetchError => "fetch-error",
            Fault::CorruptArtifact => "artefact-corruption",
        }
    }
}

/// Chaos schedule parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Root seed of the whole schedule.
    pub seed: u64,
    /// Percent chance (0–100) that any one spawn attempt draws a fault.
    pub fault_pct: u64,
    /// Include [`Fault::FreezeHeartbeat`] in the draw. Leave off when
    /// the dispatch runs without stall detection, or frozen workers
    /// hang the dispatch forever.
    pub enable_freeze: bool,
}

impl ChaosConfig {
    /// The default storm: a quarter of attempts fault, freezes
    /// included.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            fault_pct: 25,
            enable_freeze: true,
        }
    }
}

/// The two count maps behind a [`ChaosLedger`]: pool-wide totals and
/// the same counts attributed to the worker label whose transport
/// fired them.
#[derive(Debug, Default)]
struct LedgerInner {
    totals: BTreeMap<String, usize>,
    by_worker: BTreeMap<String, BTreeMap<String, usize>>,
}

/// Shared injected-fault counter: fault-class name → times fired,
/// pool-wide and attributed per worker label. Clone it into every
/// [`ChaosTransport`] of a pool; read the totals after the dispatch
/// for the report artefact, and the per-worker slices for
/// [`crate::dispatch::WorkerReport`] fault columns — one vocabulary
/// (the [`Fault`] names) shared by report and trace.
#[derive(Debug, Clone, Default)]
pub struct ChaosLedger(Arc<Mutex<LedgerInner>>);

impl ChaosLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerInner> {
        self.0.lock().expect("chaos ledger poisoned")
    }

    /// Counts one firing of `kind`, attributed to `worker`.
    pub fn record_for(&self, worker: &str, kind: &str) {
        let mut inner = self.lock();
        *inner.totals.entry(kind.to_string()).or_insert(0) += 1;
        *inner
            .by_worker
            .entry(worker.to_string())
            .or_default()
            .entry(kind.to_string())
            .or_insert(0) += 1;
    }

    /// All counts, sorted by fault-class name.
    #[must_use]
    pub fn counts(&self) -> Vec<(String, usize)> {
        self.lock()
            .totals
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The counts attributed to `worker`, sorted by fault-class name
    /// (empty if that worker fired nothing).
    #[must_use]
    pub fn worker_counts(&self, worker: &str) -> Vec<(String, usize)> {
        self.lock()
            .by_worker
            .get(worker)
            .map(|m| m.iter().map(|(k, v)| (k.clone(), *v)).collect())
            .unwrap_or_default()
    }

    /// Total faults fired.
    #[must_use]
    pub fn total(&self) -> usize {
        self.lock().totals.values().sum()
    }
}

// ---------------------------------------------------------------------------
// ChaosTransport.
// ---------------------------------------------------------------------------

/// A fault-injecting decorator around any [`ShardTransport`]. Each
/// spawn is one *attempt*; the attempt draws at most one [`Fault`]
/// from the seeded schedule (or from an explicit script). Everything
/// else delegates to the inner transport, so the dispatcher exercises
/// its real recovery machinery — kills, resumes, retries — against
/// real worker behaviour.
///
/// The schedule is a pure function of `(seed, label, attempt)`: with a
/// synchronous inner transport ([`crate::dispatch::Mock`]) an entire
/// dispatch replays bit-for-bit; with subprocess transports the
/// *per-attempt* decisions still replay even though the assignment
/// interleaving depends on scheduling.
#[derive(Debug)]
pub struct ChaosTransport<T> {
    inner: T,
    cfg: ChaosConfig,
    ledger: ChaosLedger,
    attempt: u64,
    active: Option<Fault>,
    freeze_recorded: bool,
    script: VecDeque<Option<Fault>>,
    tracer: Option<Tracer>,
}

impl<T: ShardTransport> ChaosTransport<T> {
    /// Wraps `inner` under the schedule `cfg`, recording fired faults
    /// into `ledger`.
    pub fn new(inner: T, cfg: ChaosConfig, ledger: ChaosLedger) -> Self {
        Self {
            inner,
            cfg,
            ledger,
            attempt: 0,
            active: None,
            freeze_recorded: false,
            script: VecDeque::new(),
            tracer: None,
        }
    }

    /// Attaches a host-plane [`Tracer`]: every fired fault also emits
    /// an instant event on the worker's track (`name = "fault"`,
    /// `kind` arg = the ledger's fault-class name), so the Chrome
    /// trace and the dispatch report count the same firings under the
    /// same vocabulary.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Records one fault firing: ledger (attributed to this worker's
    /// label) plus the optional trace instant.
    fn fire(&self, kind: &str) {
        let label = self.inner.label();
        self.ledger.record_for(label, kind);
        if let Some(tracer) = &self.tracer {
            tracer.instant(label, "fault", &[("kind", kind)]);
        }
    }

    /// Scripts the next attempts' faults explicitly (consumed before
    /// the seeded schedule; `None` = a clean attempt). The fault-class
    /// recovery tests use this to aim one exact fault at one attempt.
    #[must_use]
    pub fn script_faults(mut self, faults: impl IntoIterator<Item = Option<Fault>>) -> Self {
        self.script.extend(faults);
        self
    }

    fn draw_fault(&mut self) -> Option<Fault> {
        if let Some(scripted) = self.script.pop_front() {
            return scripted;
        }
        let mut sm = chaos_stream(self.cfg.seed, self.inner.label(), self.attempt, SALT_FAULT);
        if sm.below_u64(100) >= self.cfg.fault_pct.min(100) {
            return None;
        }
        let classes = if self.cfg.enable_freeze { 5 } else { 4 };
        Some(match sm.below_u64(classes) {
            0 => Fault::RefuseSpawn,
            1 => Fault::KillAfterHeartbeats(1 + sm.below_u64(2) as usize),
            2 => Fault::FetchError,
            3 => Fault::CorruptArtifact,
            _ => Fault::FreezeHeartbeat,
        })
    }
}

impl<T: ShardTransport> ShardTransport for ChaosTransport<T> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn spawn(&mut self, job: &ShardJob) -> Result<(), String> {
        self.attempt += 1;
        self.freeze_recorded = false;
        self.active = self.draw_fault();
        if self.active == Some(Fault::RefuseSpawn) {
            self.active = None;
            self.fire(Fault::RefuseSpawn.name());
            return Err(format!(
                "{}: chaos: spawn refused (attempt {})",
                self.inner.label(),
                self.attempt
            ));
        }
        self.inner.spawn(job)
    }

    fn poll(&mut self) -> PollStatus {
        match self.active {
            Some(Fault::FreezeHeartbeat) => {
                // The worker has gone unobservable: progress invisible,
                // exit invisible. Only the stall window ends this.
                if !self.freeze_recorded {
                    self.freeze_recorded = true;
                    self.fire(Fault::FreezeHeartbeat.name());
                }
                PollStatus::Running
            }
            Some(Fault::KillAfterHeartbeats(n)) => {
                if self.inner.heartbeat() >= n {
                    self.active = None;
                    self.fire(Fault::KillAfterHeartbeats(n).name());
                    self.inner.kill();
                    return PollStatus::Exited {
                        success: false,
                        detail: format!("chaos: killed after {n} heartbeat(s)"),
                    };
                }
                self.inner.poll()
            }
            _ => self.inner.poll(),
        }
    }

    fn heartbeat(&mut self) -> usize {
        if self.active == Some(Fault::FreezeHeartbeat) {
            return 0;
        }
        self.inner.heartbeat()
    }

    fn fetch(&mut self, job: &ShardJob) -> Result<ShardResult, String> {
        match self.active.take() {
            Some(Fault::FetchError) => {
                self.fire(Fault::FetchError.name());
                Err(format!("{}: chaos: fetch failed", self.inner.label()))
            }
            Some(Fault::CorruptArtifact) => {
                self.fire(Fault::CorruptArtifact.name());
                let mut result = self.inner.fetch(job)?;
                // Mangle the envelope: fetch validation must reject
                // this artefact and retry the shard.
                result.fingerprint = format!(
                    "xx{}",
                    &result.fingerprint[2.min(result.fingerprint.len())..]
                );
                Ok(result)
            }
            other => {
                self.active = other;
                self.inner.fetch(job)
            }
        }
    }

    fn kill(&mut self) {
        self.active = None;
        self.inner.kill();
    }
}

// ---------------------------------------------------------------------------
// FaultyFs.
// ---------------------------------------------------------------------------

/// Seeded file-level fault operations for the checkpoint/artefact
/// path: the damage a dirty power cut or a bad disk leaves behind,
/// applied deliberately so the loaders' recovery paths can be proven.
/// All randomness comes from the constructor seed.
#[derive(Debug)]
pub struct FaultyFs {
    rng: SplitMix64,
}

impl FaultyFs {
    /// A fault generator with its own deterministic stream.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// Tears the file mid final line: removes between 1 byte (just the
    /// trailing newline) and the whole final line's bytes. Returns how
    /// many bytes were removed (0 when the file is too short to tear).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn tear_tail(&mut self, path: &Path) -> std::io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let Some(last_nl) = text.rfind('\n') else {
            return Ok(0);
        };
        // Tear into the final complete line: keep its start, lose 1..=len
        // bytes off the end (losing exactly 1 byte drops just the newline).
        let line_start = text[..last_nl].rfind('\n').map_or(0, |p| p + 1);
        if line_start == 0 {
            // Only the header: tearing it would just heal to empty.
            return Ok(0);
        }
        let line_len = text.len() - line_start;
        let removed = if line_len <= 1 {
            1
        } else {
            1 + self.rng.below_u64(line_len as u64 - 1) as usize
        };
        std::fs::write(path, &text[..text.len() - removed])?;
        Ok(removed)
    }

    /// Corrupts one byte inside a random *interior* row line (never
    /// the header, never the final line), returning the 1-based file
    /// line it damaged — or `None` when the file has no interior row
    /// to corrupt. The overwritten byte becomes `#`, which cannot
    /// introduce a line break and always changes the line's CRC.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn corrupt_interior(&mut self, path: &Path) -> std::io::Result<Option<usize>> {
        let text = std::fs::read_to_string(path)?;
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        // Need header + at least two rows for an interior row to exist.
        if lines.len() < 3 {
            return Ok(None);
        }
        let row = 1 + self.rng.below_u64(lines.len() as u64 - 2) as usize;
        let start: usize = lines[..row].iter().map(|l| l.len()).sum();
        let len = lines[row].trim_end_matches('\n').len();
        if len == 0 {
            return Ok(None);
        }
        let at = start + self.rng.below_u64(len as u64) as usize;
        let mut bytes = text.into_bytes();
        bytes[at] = if bytes[at] == b'#' { b'%' } else { b'#' };
        std::fs::write(path, bytes)?;
        Ok(Some(row + 1))
    }

    /// Leaves a stale staging file behind: writes garbage to the
    /// `.tmp` sibling an interrupted [`crate::shard::atomic_write`]
    /// would abandon. Returns the tmp path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn drop_stale_tmp(&mut self, path: &Path) -> std::io::Result<PathBuf> {
        let mut name = path
            .file_name()
            .map(std::ffi::OsStr::to_os_string)
            .unwrap_or_default();
        name.push(".tmp");
        let tmp = path.with_file_name(name);
        let garbage: String = (0..16)
            .map(|_| char::from(b'a' + (self.rng.below_u64(26) as u8)))
            .collect();
        std::fs::write(&tmp, garbage)?;
        Ok(tmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{dispatch, DispatchOptions, Mock, MockBehaviour};
    use crate::presets;
    use crate::shard::{checkpoint_file, run_shard};
    use crate::sweep::{run_sweep, Axis, SeedScheme, SweepOptions, SweepSpec};

    /// A 2-cell × 2-replicate sweep (4 runs), one faulted cell so the
    /// `null`-able recovery column crosses the chaos-mangled wire too.
    fn small_sweep() -> SweepSpec {
        SweepSpec {
            name: "chaos-unit".to_string(),
            base: presets::preset("light-4x4").expect("known preset"),
            axes: vec![Axis::RandomFaults {
                at_ms: 60.0,
                counts: vec![0, 3],
            }],
            replicates: 2,
            seeds: SeedScheme::Derived { root: 31 },
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sirtm_chaos_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reference(sweep: &SweepSpec) -> String {
        run_sweep(sweep, SweepOptions { threads: 1 })
            .to_json()
            .render_pretty()
    }

    /// A schedule that injects nothing on its own: scripted tests use
    /// this so only the scripted fault fires.
    fn quiet_cfg() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            fault_pct: 0,
            enable_freeze: false,
        }
    }

    fn fast() -> DispatchOptions {
        DispatchOptions {
            poll_interval: Duration::ZERO,
            ..DispatchOptions::default()
        }
    }

    /// One scripted fault class against one Mock worker pool; returns
    /// the outcome after asserting the merged artefact is byte-identical
    /// to the clean single-process sweep — the harness invariant every
    /// fault-class test below leans on.
    fn dispatch_survives(
        workers: &mut Vec<Box<dyn ShardTransport>>,
        opts: &DispatchOptions,
    ) -> crate::dispatch::DispatchOutcome {
        let sweep = small_sweep();
        let outcome = dispatch(&sweep, 2, workers, opts).expect("dispatch completes");
        assert_eq!(
            outcome.result.to_json().render_pretty(),
            reference(&sweep),
            "recovery must reproduce the clean artefact byte-for-byte"
        );
        outcome
    }

    /// A victim `Mock` in `dir` crashes after journalling `runs` runs of
    /// `job`; returns the journal it leaves behind.
    fn crash_after(dir: &Path, job: &ShardJob, runs: usize) -> PathBuf {
        let mut victim = Mock::new("victim", dir).script([MockBehaviour::DieAfter(runs)]);
        victim.spawn(job).expect("spawn works");
        assert!(matches!(
            victim.poll(),
            PollStatus::Exited { success: false, .. }
        ));
        checkpoint_file(&dir.join("ckpt").join(&job.fingerprint), job.plan)
    }

    /// Appends an exact copy of the journal's last row: the signature of
    /// a duplicated append.
    fn double_last_row(path: &Path) {
        let text = std::fs::read_to_string(path).expect("reads");
        let last = text.lines().last().expect("has a row");
        std::fs::write(path, format!("{text}{last}\n")).expect("writes");
    }

    /// The next `Mock` in `dir` takes `job` over. Asserts it logs
    /// `resumed`/`executed` and that its shard equals a clean,
    /// uncheckpointed run of the slice.
    fn assert_next_worker_resumes(dir: &Path, job: &ShardJob, resumed: usize) {
        let mut next = Mock::new("next", dir);
        next.spawn(job).expect("spawn works");
        let executed = job.plan.len() - resumed;
        assert_eq!(
            next.events,
            vec![format!(
                "ran shard {}: resumed {resumed}, executed {executed}",
                job.coords()
            )]
        );
        let clean = run_shard(
            &small_sweep(),
            job.plan,
            None,
            SweepOptions { threads: 1 },
            None,
        )
        .expect("clean run")
        .result
        .expect("completes");
        assert_eq!(next.fetch(job).expect("shard completes"), clean);
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::persistent(7);
        assert_eq!(
            p.delay("fetch", "w0", 0),
            Duration::ZERO,
            "first try is free"
        );
        for try_idx in 1..6 {
            let a = p.delay("fetch", "w0", try_idx);
            let b = p.delay("fetch", "w0", try_idx);
            assert_eq!(a, b, "same key, same backoff");
            assert!(a >= p.base_delay, "backoff at least the base");
            assert!(
                a <= p.max_delay + p.max_delay / 2,
                "cap plus 50% jitter bounds every wait: {a:?}"
            );
        }
        assert_ne!(
            p.delay("fetch", "w0", 1),
            p.delay("spawn", "w0", 1),
            "the op folds into the jitter stream"
        );
        assert_eq!(
            RetryPolicy::default().delay("spawn", "w0", 3),
            Duration::ZERO,
            "the default policy never sleeps"
        );
    }

    #[test]
    fn spawn_refusal_is_requeued_and_recovered() {
        let dir = temp_dir("refuse");
        let ledger = ChaosLedger::new();
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(
            ChaosTransport::new(Mock::new("w0", &dir), quiet_cfg(), ledger.clone())
                .script_faults([Some(Fault::RefuseSpawn)]),
        )];
        let outcome = dispatch_survives(&mut workers, &fast());
        assert_eq!(ledger.counts(), vec![("spawn-refusal".to_string(), 1)]);
        assert_eq!(outcome.report.workers[0].failed, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn spawn_refusal_is_absorbed_by_the_retry_policy() {
        let dir = temp_dir("refuse_retry");
        let ledger = ChaosLedger::new();
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(
            ChaosTransport::new(Mock::new("w0", &dir), quiet_cfg(), ledger.clone())
                .script_faults([Some(Fault::RefuseSpawn)]),
        )];
        let opts = DispatchOptions {
            retry: RetryPolicy {
                spawn_tries: 3,
                ..RetryPolicy::default()
            },
            ..fast()
        };
        let outcome = dispatch_survives(&mut workers, &opts);
        assert_eq!(ledger.counts(), vec![("spawn-refusal".to_string(), 1)]);
        assert_eq!(
            outcome.report.workers[0].failed, 0,
            "the in-attempt retry hides the refusal from the ledger of attempts"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn mid_shard_kill_salvages_the_checkpoint_and_resumes() {
        let dir = temp_dir("kill");
        let ledger = ChaosLedger::new();
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(
            ChaosTransport::new(Mock::new("w0", &dir), quiet_cfg(), ledger.clone())
                .script_faults([Some(Fault::KillAfterHeartbeats(1))]),
        )];
        let outcome = dispatch_survives(&mut workers, &fast());
        assert_eq!(
            ledger.counts(),
            vec![("kill-after-heartbeats".to_string(), 1)]
        );
        assert_eq!(outcome.report.reassignments(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn kill_leaves_a_warm_checkpoint_a_seeded_worker_resumes_from() {
        // The kill fault driven against concrete handles, so the Mock
        // event log is inspectable: the killed worker's journal survives
        // in the shared directory, and the next worker resumes every
        // journalled run instead of recomputing.
        let sweep = small_sweep();
        let dir = temp_dir("kill_direct");
        let job = &ShardJob::plan_sweep(&sweep, 2)[0];
        let ledger = ChaosLedger::new();
        let mut chaos = ChaosTransport::new(Mock::new("victim", &dir), quiet_cfg(), ledger.clone())
            .script_faults([Some(Fault::KillAfterHeartbeats(1))]);
        chaos.spawn(job).expect("spawn survives");
        match chaos.poll() {
            PollStatus::Exited {
                success: false,
                detail,
            } => {
                assert!(detail.contains("chaos"), "unexpected detail: {detail}");
            }
            other => panic!("the kill must report a crash, got {other:?}"),
        }
        assert_eq!(ledger.total(), 1);
        assert_next_worker_resumes(&dir, job, job.plan.len());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn frozen_heartbeat_is_caught_by_stall_detection() {
        let dir = temp_dir("freeze");
        let ledger = ChaosLedger::new();
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(
            ChaosTransport::new(Mock::new("w0", &dir), quiet_cfg(), ledger.clone())
                .script_faults([Some(Fault::FreezeHeartbeat)]),
        )];
        let opts = DispatchOptions {
            stall_polls: 3,
            ..fast()
        };
        let outcome = dispatch_survives(&mut workers, &opts);
        assert_eq!(ledger.counts(), vec![("frozen-heartbeat".to_string(), 1)]);
        assert_eq!(outcome.report.reassignments(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fetch_error_fails_the_attempt_once_then_recovers() {
        let dir = temp_dir("fetch_err");
        let ledger = ChaosLedger::new();
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(
            ChaosTransport::new(Mock::new("w0", &dir), quiet_cfg(), ledger.clone())
                .script_faults([Some(Fault::FetchError)]),
        )];
        let outcome = dispatch_survives(&mut workers, &fast());
        assert_eq!(ledger.counts(), vec![("fetch-error".to_string(), 1)]);
        assert_eq!(outcome.report.workers[0].failed, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fetch_error_is_absorbed_by_the_retry_policy() {
        let dir = temp_dir("fetch_retry");
        let ledger = ChaosLedger::new();
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(
            ChaosTransport::new(Mock::new("w0", &dir), quiet_cfg(), ledger.clone())
                .script_faults([Some(Fault::FetchError)]),
        )];
        let opts = DispatchOptions {
            retry: RetryPolicy {
                fetch_tries: 2,
                ..RetryPolicy::default()
            },
            ..fast()
        };
        let outcome = dispatch_survives(&mut workers, &opts);
        assert_eq!(ledger.counts(), vec![("fetch-error".to_string(), 1)]);
        assert_eq!(
            outcome.report.workers[0].failed, 0,
            "the chaos fault is one-shot, so the second in-attempt fetch succeeds"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupted_artefact_is_rejected_by_fetch_validation() {
        let dir = temp_dir("corrupt");
        let ledger = ChaosLedger::new();
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(
            ChaosTransport::new(Mock::new("w0", &dir), quiet_cfg(), ledger.clone())
                .script_faults([Some(Fault::CorruptArtifact)]),
        )];
        let outcome = dispatch_survives(&mut workers, &fast());
        assert_eq!(
            ledger.counts(),
            vec![("artefact-corruption".to_string(), 1)]
        );
        assert_eq!(
            outcome.report.workers[0].failed, 1,
            "the mangled envelope must fail validation, not merge"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncated_handoff_checkpoint_resumes_what_survives() {
        // The worker dies after 2 journalled runs and its journal's final
        // line is torn. The torn tail is benign: the next worker resumes
        // the surviving row and recomputes the rest.
        let sweep = small_sweep();
        let dir = temp_dir("torn");
        let job = &ShardJob::plan_sweep(&sweep, 1)[0];
        let path = crash_after(&dir, job, 2);
        FaultyFs::new(3).tear_tail(&path).expect("tears");
        assert_next_worker_resumes(&dir, job, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn duplicated_handoff_checkpoint_is_collapsed_on_resume() {
        // A journal whose last row was appended twice sits in the shared
        // directory when a pool dispatches the sweep: the duplicate
        // collapses on resume and the merge stays byte-identical.
        let sweep = small_sweep();
        let dir = temp_dir("dup_dispatch");
        let job = &ShardJob::plan_sweep(&sweep, 2)[0];
        double_last_row(&crash_after(&dir, job, 1));
        let mut workers: Vec<Box<dyn ShardTransport>> = vec![Box::new(Mock::new("w0", &dir))];
        let outcome = dispatch_survives(&mut workers, &fast());
        assert_eq!(outcome.report.reassignments(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn duplicated_handoff_rows_collapse_to_one_resumed_run() {
        // The journal really does carry the row twice, and the next
        // worker resumes exactly one run.
        let sweep = small_sweep();
        let dir = temp_dir("dup_direct");
        let job = &ShardJob::plan_sweep(&sweep, 1)[0];
        let path = crash_after(&dir, job, 1);
        double_last_row(&path);
        let doubled = std::fs::read_to_string(&path).expect("reads");
        let lines: Vec<&str> = doubled.lines().collect();
        assert_eq!(lines.len(), 3, "header + the row twice");
        assert_eq!(lines[1], lines[2], "an exact duplicate, not a rewrite");
        assert_next_worker_resumes(&dir, job, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn seeded_storms_replay_bit_for_bit() {
        let sweep = small_sweep();
        let clean = reference(&sweep);
        let storm = |tag: &str| {
            let dir = temp_dir(&format!("storm_{tag}"));
            let cfg = ChaosConfig {
                seed: 0xDECAF,
                fault_pct: 60,
                enable_freeze: true,
            };
            let ledger = ChaosLedger::new();
            let mut workers: Vec<Box<dyn ShardTransport>> = (0..2)
                .map(|i| {
                    Box::new(ChaosTransport::new(
                        Mock::new(&format!("w{i}"), &dir),
                        cfg,
                        ledger.clone(),
                    )) as Box<dyn ShardTransport>
                })
                .collect();
            let opts = DispatchOptions {
                stall_polls: 3,
                max_attempts: 50,
                worker_strikes: 1000,
                ..fast()
            };
            let outcome = dispatch(&sweep, 4, &mut workers, &opts).expect("storm completes");
            assert_eq!(
                outcome.result.to_json().render_pretty(),
                clean,
                "whatever the storm injects, the merge must stay byte-identical"
            );
            let _ = std::fs::remove_dir_all(dir);
            ledger.counts()
        };
        let first = storm("a");
        let second = storm("b");
        assert!(
            !first.is_empty(),
            "a 40% storm over repeated attempts must fire at least one fault"
        );
        assert_eq!(
            first, second,
            "the schedule is a pure function of (seed, label, attempt)"
        );
    }

    #[test]
    fn faulty_fs_operations_are_seeded_and_scoped() {
        let dir = temp_dir("faultyfs");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("journal.ckpt");
        let text = "{\"header\":1}\n1 aaaaaaaa {\"row\":1}\n2 bbbbbbbb {\"row\":2}\n3 cccccccc {\"row\":3}\n";

        let mut a = FaultyFs::new(9);
        std::fs::write(&path, text).expect("writes");
        let line = a
            .corrupt_interior(&path)
            .expect("io ok")
            .expect("has an interior row");
        assert!(
            (2..=3).contains(&line),
            "never the header, never the final line: {line}"
        );
        let damaged = std::fs::read_to_string(&path).expect("reads");
        assert_eq!(damaged.len(), text.len(), "corruption edits, never resizes");
        assert_eq!(
            damaged.lines().count(),
            text.lines().count(),
            "corruption cannot introduce line breaks"
        );
        assert_ne!(damaged, text);

        // Same seed, same damage.
        let mut b = FaultyFs::new(9);
        std::fs::write(&path, text).expect("writes");
        b.corrupt_interior(&path).expect("io ok");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), damaged);

        std::fs::write(&path, text).expect("writes");
        let removed = a.tear_tail(&path).expect("io ok");
        assert!(removed >= 1, "tearing always removes at least the newline");
        assert!(
            removed <= "3 cccccccc {\"row\":3}\n".len(),
            "only the final line is torn into"
        );
        let torn = std::fs::read_to_string(&path).expect("reads");
        assert!(text.starts_with(&torn), "tearing only cuts the tail");
        let header_only = "{\"header\":1}\n";
        std::fs::write(&path, header_only).expect("writes");
        assert_eq!(a.tear_tail(&path).expect("io ok"), 0);
        assert_eq!(
            std::fs::read_to_string(&path).expect("reads"),
            header_only,
            "a bare header passes through"
        );

        let tmp = a.drop_stale_tmp(&path).expect("io ok");
        assert!(tmp.ends_with("journal.ckpt.tmp") && tmp.exists());

        // Too-short files have no interior row to corrupt.
        std::fs::write(&path, "{\"header\":1}\n1 aaaaaaaa {\"row\":1}\n").expect("writes");
        assert_eq!(a.corrupt_interior(&path).expect("io ok"), None);
        let _ = std::fs::remove_dir_all(dir);
    }
}
