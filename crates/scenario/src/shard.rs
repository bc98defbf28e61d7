//! Sharded sweep execution: deterministic partitioning, per-shard
//! checkpoint/resume, and artefact merging.
//!
//! A [`ShardPlan`] splits a sweep's expanded run list into `N`
//! self-describing contiguous slices — a pure function of the run count
//! and the shard count, independent of worker threads — so any host can
//! compute its own slice from nothing but the sweep descriptor. Each
//! shard writes an append-only *checkpoint* journal while it runs (one
//! line per completed run — a monotonic sequence number, a CRC-32 of
//! the row, then the row JSON with measures encoded as exact `f64` bit
//! patterns) and a *shard artefact* when it finishes; an interrupted
//! shard resumes from its checkpoint instead of restarting. A torn
//! tail line (a process killed mid-append) is benign and recomputed;
//! corruption anywhere *else* in the journal is detected by the CRC
//! and sequence checks, and the journal is quarantined rather than
//! silently trusted ([`load_checkpoint`]).
//! [`merge_shards`] recombines a complete shard set through the same
//! aggregation fold the single-process orchestrator uses, so the merged
//! artefact is **byte-identical** to an unsharded run
//! (`tests/sharding.rs` pins the full matrix: shard counts × thread
//! counts × interrupt-and-resume).
//!
//! Every artefact and checkpoint carries a [`fingerprint`] of the sweep
//! descriptor; mixing shards of different sweeps, or resuming a
//! checkpoint against an edited spec, is rejected rather than silently
//! merged. See `docs/sharding.md` for the formats and the protocol.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{parse, Json};
use crate::run::RunSummary;
use crate::stats::OnlineStats;
use crate::sweep::{
    aggregate, fork_groups, parallel_map, run_plan_group, NullObserver, SweepObserver,
    SweepOptions, SweepResult, SweepSpec,
};

/// One shard of a sweep: a contiguous, balanced slice of the expanded
/// run list. Pure data — two processes given the same `(shards,
/// run_count)` derive the same partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// This shard's index, `0..shards`.
    pub shard: usize,
    /// Total number of shards.
    pub shards: usize,
    /// Total runs in the sweep (all shards together).
    pub run_count: usize,
}

impl ShardPlan {
    /// The plan for shard `shard` of `shards` over `run_count` runs.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `shard` is out of range.
    pub fn new(shard: usize, shards: usize, run_count: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(shard < shards, "shard {shard} out of 0..{shards}");
        Self {
            shard,
            shards,
            run_count,
        }
    }

    /// The plan for shard `shard` of `shards` over `sweep`'s runs.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `shard` is out of range.
    pub fn of_sweep(sweep: &SweepSpec, shard: usize, shards: usize) -> Self {
        Self::new(shard, shards, sweep.run_count())
    }

    /// All `shards` plans, in shard order.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn all(shards: usize, run_count: usize) -> Vec<Self> {
        (0..shards)
            .map(|shard| Self::new(shard, shards, run_count))
            .collect()
    }

    /// The run indices this shard owns: a balanced contiguous range
    /// (the first `run_count % shards` shards carry one extra run).
    pub fn range(&self) -> std::ops::Range<usize> {
        let q = self.run_count / self.shards;
        let r = self.run_count % self.shards;
        let start = self.shard * q + self.shard.min(r);
        let len = q + usize::from(self.shard < r);
        start..start + len
    }

    /// Number of runs in this shard.
    pub fn len(&self) -> usize {
        self.range().len()
    }

    /// Whether this shard owns no runs (more shards than runs).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a 64-bit fingerprint of the sweep descriptor
/// ([`SweepSpec::to_json`], compact rendering), as 16 hex digits.
/// Checkpoints and shard artefacts carry it so shards of different
/// sweeps — or a checkpoint resumed against an edited spec — are
/// rejected instead of silently merged.
pub fn fingerprint(sweep: &SweepSpec) -> String {
    let text = sweep.to_json().render();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{hash:016x}")
}

fn bits_str(x: f64) -> Json {
    Json::Str(x.to_bits().to_string())
}

fn str_bits(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .map(f64::from_bits)
        .ok_or_else(|| format!("run row `{key}` is not a u64 bit string"))
}

/// Serialises one run row: the index plus the summary with every `f64`
/// as its exact bit pattern (decimal `u64` string), so shard artefacts
/// and checkpoints lose nothing to number formatting.
fn summary_to_json(index: usize, s: &RunSummary) -> Json {
    Json::obj(vec![
        ("index", Json::Num(index as f64)),
        ("seed", Json::Str(s.seed.to_string())),
        ("settle_ms", bits_str(s.settle_ms)),
        ("pre_rate", bits_str(s.pre_rate)),
        (
            "recovery_ms",
            s.recovery_ms.map(bits_str).unwrap_or(Json::Null),
        ),
        ("final_rate", bits_str(s.final_rate)),
    ])
}

fn summary_from_json(v: &Json) -> Result<(usize, RunSummary), String> {
    let index = v
        .get("index")
        .and_then(Json::as_num)
        .ok_or("run row missing `index`")? as usize;
    let seed = v
        .get("seed")
        .and_then(Json::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or("run row `seed` is not a u64 string")?;
    let recovery_ms = match v.get("recovery_ms") {
        None | Some(Json::Null) => None,
        Some(_) => Some(str_bits(v, "recovery_ms")?),
    };
    Ok((
        index,
        RunSummary {
            seed,
            settle_ms: str_bits(v, "settle_ms")?,
            pre_rate: str_bits(v, "pre_rate")?,
            recovery_ms,
            final_rate: str_bits(v, "final_rate")?,
        },
    ))
}

/// A completed shard: the partial artefact one shard process emits and
/// [`merge_shards`] consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// Which slice of which partition this is.
    pub plan: ShardPlan,
    /// The full sweep descriptor (so `merge` needs no side-channel).
    pub sweep_json: Json,
    /// Fingerprint of the descriptor.
    pub fingerprint: String,
    /// `(run index, summary)` rows, index order, exactly the plan's range.
    pub summaries: Vec<(usize, RunSummary)>,
}

impl ShardResult {
    /// The partial-artefact JSON. Carries the sweep descriptor, the
    /// partition coordinates, bit-exact per-run rows, and a streaming
    /// [`OnlineStats`] block over this shard's end-of-run throughput for
    /// quick inspection (merging recomputes aggregates exactly; the
    /// block is informational).
    pub fn to_json(&self) -> Json {
        let rates: Vec<f64> = self.summaries.iter().map(|(_, s)| s.final_rate).collect();
        let online = OnlineStats::of(&rates);
        Json::obj(vec![
            ("kind", Json::Str("sirtm-shard".into())),
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("shard", Json::Num(self.plan.shard as f64)),
            ("shards", Json::Num(self.plan.shards as f64)),
            ("run_count", Json::Num(self.plan.run_count as f64)),
            ("sweep", self.sweep_json.clone()),
            (
                "final_rate_online",
                Json::obj(vec![
                    ("count", Json::Num(online.count as f64)),
                    ("mean", Json::Num(online.mean)),
                    ("m2", Json::Num(online.m2)),
                    ("min", Json::Num(online.min)),
                    ("max", Json::Num(online.max)),
                ]),
            ),
            (
                "runs",
                Json::Arr(
                    self.summaries
                        .iter()
                        .map(|(i, s)| summary_to_json(*i, s))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a shard artefact.
    ///
    /// # Errors
    ///
    /// Returns syntax errors, missing fields, and rows outside the
    /// shard's declared range.
    pub fn from_json_text(text: &str) -> Result<Self, String> {
        let v = parse(text)?;
        if v.get("kind").and_then(Json::as_str) != Some("sirtm-shard") {
            return Err("not a shard artefact (missing `kind: sirtm-shard`)".to_string());
        }
        let fingerprint = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("shard artefact missing `fingerprint`")?
            .to_string();
        let num = |key: &str| -> Result<usize, String> {
            v.get(key)
                .and_then(Json::as_num)
                .map(|n| n as usize)
                .ok_or_else(|| format!("shard artefact missing `{key}`"))
        };
        let (shard, shards, run_count) = (num("shard")?, num("shards")?, num("run_count")?);
        if shards == 0 || shard >= shards {
            return Err(format!("bad shard coordinates {shard}/{shards}"));
        }
        let plan = ShardPlan::new(shard, shards, run_count);
        let sweep_json = v
            .get("sweep")
            .ok_or("shard artefact missing `sweep` descriptor")?
            .clone();
        let rows = v
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("shard artefact missing `runs`")?;
        let mut summaries = Vec::with_capacity(rows.len());
        for row in rows {
            let (index, summary) = summary_from_json(row)?;
            if !plan.range().contains(&index) {
                return Err(format!(
                    "run {index} outside shard {shard}/{shards} range {:?}",
                    plan.range()
                ));
            }
            summaries.push((index, summary));
        }
        summaries.sort_by_key(|&(i, _)| i);
        Ok(Self {
            plan,
            sweep_json,
            fingerprint,
            summaries,
        })
    }

    /// Reads a shard artefact from disk.
    ///
    /// # Errors
    ///
    /// Returns I/O and format errors as strings.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json_text(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the shard artefact atomically (see [`atomic_write`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, &self.to_json().render_pretty())
    }

    /// The conventional artefact file name: `NAME.shard-K-of-N.json`
    /// (1-based K, matching the CLI's `--shard K/N`).
    pub fn artifact_name(sweep_name: &str, plan: ShardPlan) -> String {
        format!(
            "{sweep_name}.shard-{}-of-{}.json",
            plan.shard + 1,
            plan.shards
        )
    }
}

/// Writes `contents` to `path` atomically: stage into a `.tmp` sibling
/// on the same filesystem, then rename over the target. A crash
/// mid-write leaves at worst a stale `.tmp` file — a reader of `path`
/// sees the old bytes or the new bytes, never a torn artefact. Parent
/// directories are created as needed. detlint rule R2 points bare
/// `std::fs::write` call sites on artefact paths here.
///
/// # Errors
///
/// Returns any I/O error from staging or renaming.
pub fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("cannot write {}: path has no file name", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial) of `bytes` —
/// the per-row integrity check in the checkpoint journal. Bitwise, no
/// lookup table: journal rows are a couple of hundred bytes, so table
/// throughput is irrelevant and the whole checksum stays auditable in
/// eight lines.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The conventional checkpoint file name inside a checkpoint directory:
/// `shard-K-of-N.ckpt` (1-based K).
pub fn checkpoint_file(dir: &Path, plan: ShardPlan) -> PathBuf {
    dir.join(format!("shard-{}-of-{}.ckpt", plan.shard + 1, plan.shards))
}

/// Where [`load_checkpoint`] moves a journal it refuses to trust:
/// `<journal>.quarantined`, next to the original so the evidence
/// survives for inspection while the shard recomputes from scratch.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".quarantined");
    path.with_file_name(name)
}

/// Renders one checkpoint journal row: `SEQ CRC8HEX JSON` — the
/// monotonic sequence number, the CRC-32 of the JSON text in fixed
/// 8-digit hex, then the row itself.
fn checkpoint_row(seq: u64, index: usize, summary: &RunSummary) -> String {
    let json = summary_to_json(index, summary).render();
    format!("{seq} {:08x} {json}", crc32(json.as_bytes()))
}

/// Parses and verifies one journal row line. The error string says
/// *why* the line is untrustworthy; the caller decides whether that is
/// a benign torn tail or quarantinable interior corruption.
fn parse_checkpoint_row(line: &str) -> Result<(u64, usize, RunSummary), String> {
    let (seq_tok, rest) = line
        .split_once(' ')
        .ok_or("missing sequence number field")?;
    let (crc_tok, json) = rest.split_once(' ').ok_or("missing checksum field")?;
    let seq: u64 = seq_tok
        .parse()
        .map_err(|_| format!("bad sequence number {seq_tok:?}"))?;
    if seq == 0 {
        return Err("sequence numbers start at 1".to_string());
    }
    if crc_tok.len() != 8 {
        return Err(format!("bad checksum field {crc_tok:?}"));
    }
    let crc = u32::from_str_radix(crc_tok, 16).map_err(|_| format!("bad checksum {crc_tok:?}"))?;
    let actual = crc32(json.as_bytes());
    if actual != crc {
        return Err(format!(
            "checksum mismatch (row claims {crc_tok}, content hashes to {actual:08x})"
        ));
    }
    let row = parse(json).map_err(|e| format!("bad row JSON: {e}"))?;
    let (index, summary) = summary_from_json(&row)?;
    Ok((seq, index, summary))
}

/// Why a journal's header line cannot anchor a walk.
enum HeaderFault {
    /// No complete, parseable header line: the writer was killed before
    /// its first write finished, so no run completed.
    Torn,
    /// A complete header that is not a valid shard-checkpoint header.
    Invalid(String),
}

/// The first journal line a walk did not trust.
struct BadLine {
    /// 1-based file line (the header is line 1).
    line: usize,
    /// Why the line is untrustworthy.
    reason: String,
    /// Whether it is an unverifiable *final* line: the benign signature
    /// of a process killed mid-append.
    torn_tail: bool,
}

/// One verified pass over a checkpoint journal's text: the walk
/// [`load_checkpoint`], [`journal_progress`] and [`sanitize_journal`]
/// share, so they agree on which rows a journal holds. Each caller
/// applies its own policy to [`JournalWalk::bad`].
struct JournalWalk<'a> {
    /// The header's sweep fingerprint.
    fingerprint: String,
    /// The header's shard coordinates; rows must index into its range.
    plan: ShardPlan,
    /// The header line, trailing newline included.
    header: &'a str,
    /// Trusted rows in journal order: consecutive sequence numbers from
    /// 1, distinct run indices. Each carries its line (newline included).
    rows: Vec<(usize, RunSummary, &'a str)>,
    /// Byte length of the trusted prefix: the header plus every trusted
    /// line, benign exact-duplicate rows included.
    trusted_len: usize,
    /// The first untrusted line, if the walk stopped before the end.
    bad: Option<BadLine>,
}

/// Walks `text` as a checkpoint journal: a JSON header line (`kind`,
/// `fingerprint`, shard coordinates), then `SEQ CRC JSON` run rows. The
/// walk stops at the first row that is torn, fails its CRC, breaks the
/// sequence, indexes outside the header's shard or repeats a run index
/// with a distinct row. An exact byte-for-byte repeat of the
/// immediately preceding row (a duplicated append at handoff) stays in
/// the trusted prefix but counts once.
fn walk_journal(text: &str) -> Result<JournalWalk<'_>, HeaderFault> {
    let mut segments = text.split_inclusive('\n');
    let header = segments
        .next()
        .filter(|seg| seg.ends_with('\n'))
        .ok_or(HeaderFault::Torn)?;
    let json = parse(header.trim_end_matches('\n')).map_err(|_| HeaderFault::Torn)?;
    if json.get("kind").and_then(Json::as_str) != Some("sirtm-shard-checkpoint") {
        return Err(HeaderFault::Invalid("not a shard checkpoint".to_string()));
    }
    let fingerprint = json
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(|| HeaderFault::Invalid("header missing `fingerprint`".to_string()))?
        .to_string();
    let coord = |key: &str| {
        json.get(key)
            .and_then(Json::as_num)
            .map(|n| n as usize)
            .ok_or_else(|| HeaderFault::Invalid(format!("header missing `{key}`")))
    };
    let (shard, shards, run_count) = (coord("shard")?, coord("shards")?, coord("run_count")?);
    if shards == 0 || shard >= shards {
        return Err(HeaderFault::Invalid(format!(
            "header names shard {shard}/{shards}"
        )));
    }
    let mut walk = JournalWalk {
        fingerprint,
        plan: ShardPlan::new(shard, shards, run_count),
        header,
        rows: Vec::new(),
        trusted_len: header.len(),
        bad: None,
    };
    let segs: Vec<&str> = segments.collect();
    let mut seen = BTreeSet::new();
    let mut prev: Option<&str> = None;
    for (k, &seg) in segs.iter().enumerate() {
        let fail = |reason: String, verified: bool| BadLine {
            line: k + 2,
            reason,
            torn_tail: !verified && k + 1 == segs.len(),
        };
        let verdict = match seg.strip_suffix('\n') {
            None => Err("line is torn (no trailing newline)".to_string()),
            Some(line) => parse_checkpoint_row(line),
        };
        let (seq, index, summary) = match verdict {
            Ok(row) => row,
            Err(reason) => {
                walk.bad = Some(fail(reason, false));
                break;
            }
        };
        if prev == Some(seg) {
            walk.trusted_len += seg.len();
            continue;
        }
        let expected = walk.rows.len() as u64 + 1;
        let reason = if seq != expected {
            format!("row sequence number {seq} where {expected} was expected (reordered or spliced journal)")
        } else if !walk.plan.range().contains(&index) {
            format!(
                "run index {index} outside shard range {:?}",
                walk.plan.range()
            )
        } else if !seen.insert(index) {
            format!("run {index} journalled twice with distinct rows")
        } else {
            walk.rows.push((index, summary, seg));
            walk.trusted_len += seg.len();
            prev = Some(seg);
            continue;
        };
        walk.bad = Some(fail(reason, true));
        break;
    }
    Ok(walk)
}

/// What [`load_checkpoint`] recovered from a journal.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Completed run rows, keyed by run index.
    pub completed: BTreeMap<usize, RunSummary>,
    /// The sequence number the next appended row must carry.
    pub next_seq: u64,
    /// Byte length of the trusted prefix of the journal — the header
    /// plus every verified row line, including trailing newlines. Zero
    /// means "no trustworthy content, start the journal over". The
    /// resume writer truncates the file back to this length before
    /// appending, so a torn tail never glues onto the next row.
    pub valid_len: u64,
}

impl LoadedCheckpoint {
    /// An empty checkpoint: nothing completed, journal starts over.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            completed: BTreeMap::new(),
            next_seq: 1,
            valid_len: 0,
        }
    }
}

/// Quarantines a corrupt journal (rename to [`quarantine_path`]) and
/// produces the load error naming the offending 1-based file line.
fn quarantine(path: &Path, file_line: usize, reason: &str) -> String {
    let dest = quarantine_path(path);
    let moved = std::fs::rename(path, &dest).is_ok();
    format!(
        "{}: checkpoint journal line {file_line} is corrupt: {reason}{} — \
         the shard will recompute from scratch rather than resume from a damaged journal",
        path.display(),
        if moved {
            format!(" (journal quarantined to {})", dest.display())
        } else {
            String::new()
        }
    )
}

/// Loads a shard checkpoint: a line-oriented journal whose first line
/// is a JSON header (`kind`, `fingerprint`, shard coordinates) and
/// whose remaining lines are completed run rows in `SEQ CRC JSON`
/// form. A missing file is an empty checkpoint.
///
/// Damage is classified by *where* it sits. Exactly one torn or
/// unverifiable **tail** line is the benign signature of a process
/// killed mid-append: the line is dropped and its run recomputed.
/// Anything wrong **before** the tail — a failed CRC, garbage, an
/// out-of-sequence or repeated-index row — means the journal was
/// edited, spliced, or corrupted at rest; the file is renamed to
/// [`quarantine_path`] and an error names the offending line, because
/// resuming from it could silently drop completed work. An exact
/// byte-for-byte repeat of the immediately preceding row is tolerated
/// (the harmless signature of a duplicated append at handoff).
///
/// # Errors
///
/// Returns an error if the header names a different sweep fingerprint
/// or shard coordinates (resuming against an edited spec), or on
/// interior corruption as above (after quarantining the journal).
pub fn load_checkpoint(
    path: &Path,
    fingerprint: &str,
    plan: ShardPlan,
) -> Result<LoadedCheckpoint, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(LoadedCheckpoint::empty()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let walk = match walk_journal(&text) {
        Ok(walk) => walk,
        // A torn header means no run completed: treat as empty; the
        // writer truncates and starts over.
        Err(HeaderFault::Torn) => return Ok(LoadedCheckpoint::empty()),
        Err(HeaderFault::Invalid(reason)) => return Err(format!("{}: {reason}", path.display())),
    };
    if walk.fingerprint != fingerprint {
        return Err(format!(
            "{}: checkpoint belongs to a different sweep (fingerprint mismatch) — \
             delete it or point --checkpoint elsewhere",
            path.display()
        ));
    }
    if walk.plan != plan {
        return Err(format!(
            "{}: checkpoint is for shard {}/{}, not {}/{}",
            path.display(),
            walk.plan.shard,
            walk.plan.shards,
            plan.shard,
            plan.shards
        ));
    }
    match walk.bad {
        // A single unverifiable TAIL line is the benign signature of a
        // kill mid-append: the trusted prefix excludes it, so resume
        // truncates it away and the run recomputes.
        Some(bad) if !bad.torn_tail => Err(quarantine(path, bad.line, &bad.reason)),
        _ => Ok(LoadedCheckpoint {
            next_seq: walk.rows.len() as u64 + 1,
            completed: walk.rows.into_iter().map(|(i, s, _)| (i, s)).collect(),
            valid_len: walk.trusted_len as u64,
        }),
    }
}

/// A read-only progress snapshot of one shard's checkpoint journal —
/// what `scenarios status` renders while a dispatch is live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalProgress {
    /// The shard coordinates the journal's header declares.
    pub plan: ShardPlan,
    /// The sweep fingerprint the journal belongs to.
    pub fingerprint: String,
    /// Verified completed-run rows in the trusted prefix.
    pub completed: usize,
}

impl JournalProgress {
    /// Runs this shard's slice holds in total.
    pub fn expected(&self) -> usize {
        self.plan.range().len()
    }

    /// Whether every run of the slice is journalled.
    pub fn is_complete(&self) -> bool {
        self.completed >= self.expected()
    }
}

/// Reads a checkpoint journal *without* knowing its sweep: header
/// coordinates plus a count of verified rows. Purely observational —
/// the file is never modified or quarantined, and a torn tail (the
/// writer is mid-append on a live run) simply stops the count. Intended
/// for live status views; resuming still goes through the strict
/// [`load_checkpoint`].
///
/// # Errors
///
/// Returns an error if the file is unreadable or its header is not a
/// shard-checkpoint header.
pub fn journal_progress(path: &Path) -> Result<JournalProgress, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let walk = walk_journal(&text).map_err(|fault| match fault {
        HeaderFault::Torn => format!("{}: journal has no complete header line", path.display()),
        HeaderFault::Invalid(reason) => format!("{}: {reason}", path.display()),
    })?;
    Ok(JournalProgress {
        plan: walk.plan,
        fingerprint: walk.fingerprint,
        completed: walk.rows.len(),
    })
}

/// The trusted prefix of a checkpoint journal *text*: the header plus
/// every CRC- and sequence-verified row, stopping at the first line
/// that fails verification. `None` when even the header is
/// untrustworthy or names a different sweep/shard. The dispatcher runs
/// every salvaged journal through this before caching or staging it,
/// so a journal corrupted in flight (or truncated/duplicated at
/// handoff) can never poison later attempts — the worker-side
/// quarantine in [`load_checkpoint`] stays the last line of defence
/// for corruption at rest.
#[must_use]
pub fn sanitize_journal(text: &str, fingerprint: &str, plan: ShardPlan) -> Option<String> {
    let walk = walk_journal(text).ok()?;
    if walk.fingerprint != fingerprint || walk.plan != plan {
        return None;
    }
    // Benign exact duplicates are dropped from the sanitized copy
    // rather than forwarded.
    let mut out = String::from(walk.header);
    for (_, _, line) in &walk.rows {
        out.push_str(line);
    }
    Some(out)
}

fn checkpoint_header(fingerprint: &str, plan: ShardPlan) -> Json {
    Json::obj(vec![
        ("kind", Json::Str("sirtm-shard-checkpoint".into())),
        ("fingerprint", Json::Str(fingerprint.to_string())),
        ("shard", Json::Num(plan.shard as f64)),
        ("shards", Json::Num(plan.shards as f64)),
        ("run_count", Json::Num(plan.run_count as f64)),
    ])
}

/// What [`run_shard`] did: how much came from the checkpoint, how much
/// ran now, and the finished shard (absent when `limit` interrupted the
/// shard before completion — resume with the same arguments).
#[derive(Debug)]
pub struct ShardRunReport {
    /// Runs restored from the checkpoint instead of executing.
    pub resumed: usize,
    /// Runs executed in this invocation.
    pub executed: usize,
    /// The completed shard, if every run of the slice is now done.
    pub result: Option<ShardResult>,
}

/// Executes one shard of a sweep, checkpointing each completed run.
///
/// Runs the missing slice of `sweep`'s expanded run list on the
/// orchestrator's worker pool. With `checkpoint_dir`, previously
/// completed runs load from the shard's checkpoint and each new
/// completion appends to it, so an interrupted invocation resumes from
/// its last completed run. `limit` stops after that many *new*
/// completions (the checkpoint stays valid) — the interrupt switch the
/// determinism tests and the CI smoke job flip on purpose.
///
/// # Errors
///
/// Returns checkpoint I/O and validation errors.
///
/// # Panics
///
/// Panics if the plan's run count disagrees with the sweep or a spec is
/// invalid.
pub fn run_shard(
    sweep: &SweepSpec,
    plan: ShardPlan,
    checkpoint_dir: Option<&Path>,
    opts: SweepOptions,
    limit: Option<usize>,
) -> Result<ShardRunReport, String> {
    run_shard_observed(sweep, plan, checkpoint_dir, opts, limit, &NullObserver)
}

/// [`run_shard`] with observation hooks around every freshly executed
/// run (checkpoint-restored runs are not re-observed — they did not
/// execute). Observers see the *global* run index via the plan, so a
/// sidecar collected across shards merges back to the unsharded one.
///
/// # Errors
///
/// Returns checkpoint I/O and validation errors.
///
/// # Panics
///
/// Panics if the plan's run count disagrees with the sweep or a spec is
/// invalid.
pub fn run_shard_observed(
    sweep: &SweepSpec,
    plan: ShardPlan,
    checkpoint_dir: Option<&Path>,
    opts: SweepOptions,
    limit: Option<usize>,
    observer: &dyn SweepObserver,
) -> Result<ShardRunReport, String> {
    assert_eq!(
        plan.run_count,
        sweep.run_count(),
        "shard plan is for a different sweep size"
    );
    let plans = sweep.expand();
    let print = fingerprint(sweep);
    let loaded = match checkpoint_dir {
        Some(dir) => {
            let path = checkpoint_file(dir, plan);
            let loaded = load_checkpoint(&path, &print, plan)?;
            // Integrity: a checkpoint row must describe the run the plan
            // derives (the fingerprint already pins the spec; this pins
            // the row itself).
            for (&index, summary) in &loaded.completed {
                if summary.seed != plans[index].seed {
                    return Err(format!(
                        "{}: run {index} seed {} disagrees with the plan's {}",
                        path.display(),
                        summary.seed,
                        plans[index].seed
                    ));
                }
            }
            loaded
        }
        None => LoadedCheckpoint::empty(),
    };
    let mut completed = loaded.completed;
    let resumed = completed.len();
    let mut todo: Vec<usize> = plan
        .range()
        .filter(|i| !completed.contains_key(i))
        .collect();
    let interrupted = limit.is_some_and(|l| l < todo.len());
    if let Some(l) = limit {
        todo.truncate(l);
    }
    let journal = match checkpoint_dir {
        Some(dir) if !todo.is_empty() => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let path = checkpoint_file(dir, plan);
            // A zero trusted prefix means no trustworthy journal content
            // — the file is absent, empty, or a torn header — so start
            // it over; otherwise a valid header is already on line 1
            // (rows are only recovered after the header checks pass).
            let fresh = loaded.valid_len == 0;
            let mut open = std::fs::OpenOptions::new();
            if fresh {
                open.create(true).write(true).truncate(true);
            } else {
                open.create(true).write(true);
            }
            let mut file = open
                .open(&path)
                .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
            if fresh {
                writeln!(file, "{}", checkpoint_header(&print, plan).render())
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            } else {
                // Truncate any torn tail back to the trusted prefix
                // before appending, so a half-written line never glues
                // onto the next row.
                file.set_len(loaded.valid_len)
                    .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
                file.seek(std::io::SeekFrom::End(0))
                    .map_err(|e| format!("cannot seek {}: {e}", path.display()))?;
            }
            Some(Mutex::new((file, loaded.next_seq)))
        }
        _ => None,
    };
    // Fork groups form only within this invocation's runs, so a shard
    // boundary or a `limit` cut merely splits a group.
    let groups = fork_groups(&plans, todo.iter().copied());
    let fresh = parallel_map(groups.len(), opts.threads, |g| {
        run_plan_group(&plans, &groups[g], observer, |index, summary| {
            if let Some(journal) = &journal {
                // One line per completed run, flushed immediately: the
                // checkpoint is never more than one torn line behind.
                let mut guard = journal.lock().expect("checkpoint journal poisoned");
                let (file, next_seq) = &mut *guard;
                let line = checkpoint_row(*next_seq, index, summary);
                *next_seq += 1;
                writeln!(file, "{line}").expect("checkpoint append failed");
            }
        })
    });
    let executed = todo.len();
    completed.extend(fresh.into_iter().flatten());
    let result = (!interrupted).then(|| ShardResult {
        plan,
        sweep_json: sweep.to_json(),
        fingerprint: print,
        summaries: completed.into_iter().collect(),
    });
    Ok(ShardRunReport {
        resumed,
        executed,
        result,
    })
}

/// Recombines a complete shard set into the full sweep result,
/// byte-identical to a single-process [`crate::sweep::run_sweep`] of
/// the same sweep (same aggregation fold, same artefact rendering).
/// Shards are labelled by their coordinates in error messages; when the
/// caller knows where each shard came from (a file path, a worker),
/// [`merge_named_shards`] produces errors that name the offending
/// source instead.
///
/// # Errors
///
/// Rejects empty input, mixed fingerprints or partition sizes, missing
/// or duplicate run indices, and rows whose seeds disagree with the
/// descriptor's expansion.
pub fn merge_shards(shards: &[ShardResult]) -> Result<SweepResult, String> {
    let named: Vec<(String, &ShardResult)> = shards
        .iter()
        .map(|s| (format!("shard {}/{}", s.plan.shard + 1, s.plan.shards), s))
        .collect();
    merge_impl(&named)
}

/// [`merge_shards`] with a source label per shard (typically the
/// artefact's file path): validation errors name the offending shard's
/// label, so a fingerprint mismatch in a pile of artefact files points
/// straight at the file to inspect. The `scenarios merge` command feeds
/// its input paths through here.
///
/// # Errors
///
/// The same rejections as [`merge_shards`], each prefixed with the
/// offending shard's label.
pub fn merge_named_shards(shards: &[(String, ShardResult)]) -> Result<SweepResult, String> {
    let named: Vec<(String, &ShardResult)> =
        shards.iter().map(|(label, s)| (label.clone(), s)).collect();
    merge_impl(&named)
}

fn merge_impl(shards: &[(String, &ShardResult)]) -> Result<SweepResult, String> {
    let (first_label, first) = shards.first().ok_or("no shard artefacts to merge")?;
    let sweep = SweepSpec::from_json(&first.sweep_json)
        .map_err(|e| format!("{first_label}: bad sweep descriptor: {e}"))?;
    // The fingerprint is recomputed from the embedded descriptor, not
    // trusted: a tampered descriptor with a stale fingerprint string is
    // rejected here. (Descriptor serialisation is round-trip idempotent,
    // which `sweep::tests` pins, so honest artefacts always agree.)
    if fingerprint(&sweep) != first.fingerprint {
        return Err(format!(
            "{first_label}: fingerprint {} does not match its own sweep descriptor ({}) — \
             the artefact was edited",
            first.fingerprint,
            fingerprint(&sweep)
        ));
    }
    for (label, s) in shards {
        if s.fingerprint != first.fingerprint {
            return Err(format!(
                "{label}: belongs to a different sweep than {first_label} ({} vs {})",
                s.fingerprint, first.fingerprint
            ));
        }
        if s.plan.shards != first.plan.shards || s.plan.run_count != first.plan.run_count {
            return Err(format!(
                "{label}: comes from a different partition than {first_label} \
                 ({}-way over {} runs vs {}-way over {} runs) — shards come from \
                 different partitions",
                s.plan.shards, s.plan.run_count, first.plan.shards, first.plan.run_count
            ));
        }
    }
    let plans = sweep.expand();
    if first.plan.run_count != plans.len() {
        return Err(format!(
            "descriptor expands to {} runs, shards claim {}",
            plans.len(),
            first.plan.run_count
        ));
    }
    let mut rows: Vec<Option<RunSummary>> = vec![None; plans.len()];
    for (label, s) in shards {
        for &(index, summary) in &s.summaries {
            if index >= rows.len() {
                return Err(format!("{label}: run index {index} out of range"));
            }
            if rows[index].is_some() {
                return Err(format!(
                    "{label}: run {index} appears in more than one shard"
                ));
            }
            if summary.seed != plans[index].seed {
                return Err(format!(
                    "{label}: run {index} seed {} disagrees with the descriptor's {}",
                    summary.seed, plans[index].seed
                ));
            }
            rows[index] = Some(summary);
        }
    }
    let missing: Vec<usize> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "incomplete shard set: {} of {} runs missing (first missing index {})",
            missing.len(),
            rows.len(),
            missing[0]
        ));
    }
    let summaries: Vec<RunSummary> = rows.into_iter().map(|r| r.expect("checked")).collect();
    Ok(aggregate(&sweep, &plans, &summaries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::sweep::{Axis, SeedScheme};

    fn small_sweep() -> SweepSpec {
        SweepSpec {
            name: "shard-unit".to_string(),
            base: presets::preset("light-4x4").expect("known preset"),
            axes: vec![Axis::RandomFaults {
                at_ms: 60.0,
                counts: vec![0, 3],
            }],
            replicates: 2,
            seeds: SeedScheme::Derived { root: 11 },
        }
    }

    #[test]
    fn plans_partition_exactly_and_balanced() {
        for run_count in [0, 1, 5, 12, 100] {
            for shards in [1, 2, 3, 4, 7] {
                let plans = ShardPlan::all(shards, run_count);
                let mut covered = Vec::new();
                for p in &plans {
                    covered.extend(p.range());
                }
                assert_eq!(
                    covered,
                    (0..run_count).collect::<Vec<_>>(),
                    "{shards} shards over {run_count} runs must tile the range"
                );
                let (min, max) = plans
                    .iter()
                    .map(ShardPlan::len)
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(max - min <= 1, "balanced to within one run");
            }
        }
        assert!(ShardPlan::new(2, 3, 2).is_empty(), "more shards than runs");
    }

    #[test]
    #[should_panic(expected = "out of 0..")]
    fn out_of_range_shard_panics() {
        ShardPlan::new(3, 3, 10);
    }

    #[test]
    fn fingerprint_tracks_the_descriptor() {
        let sweep = small_sweep();
        assert_eq!(fingerprint(&sweep), fingerprint(&sweep.clone()));
        let mut edited = sweep.clone();
        edited.replicates += 1;
        assert_ne!(fingerprint(&sweep), fingerprint(&edited));
        let mut reseeded = sweep;
        reseeded.seeds = SeedScheme::Derived { root: 12 };
        assert_ne!(fingerprint(&reseeded), fingerprint(&small_sweep()));
    }

    #[test]
    fn summary_rows_round_trip_bit_exactly() {
        let summary = RunSummary {
            seed: u64::MAX - 3,
            settle_ms: 1.0 / 3.0,
            pre_rate: f64::MIN_POSITIVE,
            recovery_ms: Some(-0.0),
            final_rate: 1e300,
        };
        let (index, back) = summary_from_json(&summary_to_json(7, &summary)).expect("parses");
        assert_eq!(index, 7);
        assert_eq!(back.seed, summary.seed);
        assert_eq!(back.settle_ms.to_bits(), summary.settle_ms.to_bits());
        assert_eq!(back.pre_rate.to_bits(), summary.pre_rate.to_bits());
        assert_eq!(
            back.recovery_ms.map(f64::to_bits),
            summary.recovery_ms.map(f64::to_bits),
            "-0.0 survives (plain JSON numbers would drop the sign)"
        );
        assert_eq!(back.final_rate.to_bits(), summary.final_rate.to_bits());
    }

    #[test]
    fn shard_artefact_round_trips() {
        let sweep = small_sweep();
        let plan = ShardPlan::of_sweep(&sweep, 0, 2);
        let report =
            run_shard(&sweep, plan, None, SweepOptions { threads: 2 }, None).expect("shard runs");
        let result = report.result.expect("uninterrupted shard completes");
        assert_eq!(report.executed, plan.len());
        assert_eq!(report.resumed, 0);
        let text = result.to_json().render_pretty();
        let back = ShardResult::from_json_text(&text).expect("artefact parses");
        assert_eq!(back, result);
    }

    #[test]
    fn merge_rejects_broken_shard_sets() {
        let sweep = small_sweep();
        let plans = ShardPlan::all(2, sweep.run_count());
        let opts = SweepOptions { threads: 1 };
        let a = run_shard(&sweep, plans[0], None, opts, None)
            .expect("runs")
            .result
            .expect("completes");
        let b = run_shard(&sweep, plans[1], None, opts, None)
            .expect("runs")
            .result
            .expect("completes");
        assert!(merge_shards(&[]).unwrap_err().contains("no shard"));
        assert!(
            merge_shards(std::slice::from_ref(&a))
                .unwrap_err()
                .contains("missing"),
            "half a sweep is not a sweep"
        );
        assert!(merge_shards(&[a.clone(), a.clone()])
            .unwrap_err()
            .contains("more than one shard"));
        let mut foreign = b.clone();
        foreign.fingerprint = "0000000000000000".to_string();
        assert!(merge_shards(&[a.clone(), foreign])
            .unwrap_err()
            .contains("different sweep"));
        let mut tampered = a.clone();
        // Edit the embedded descriptor but keep the fingerprint string:
        // the recomputed fingerprint must expose the edit.
        tampered.sweep_json = {
            let mut edited = small_sweep();
            edited.name = "not-the-same-sweep".to_string();
            edited.to_json()
        };
        assert!(merge_shards(&[tampered, b.clone()])
            .unwrap_err()
            .contains("edited"));
        let mut forged = b;
        forged.summaries[0].1.seed ^= 1;
        assert!(merge_shards(&[a, forged])
            .unwrap_err()
            .contains("disagrees"));
    }

    #[test]
    fn merge_errors_name_the_offending_shard_source() {
        let sweep = small_sweep();
        let plans = ShardPlan::all(2, sweep.run_count());
        let opts = SweepOptions { threads: 1 };
        let a = run_shard(&sweep, plans[0], None, opts, None)
            .expect("runs")
            .result
            .expect("completes");
        let b = run_shard(&sweep, plans[1], None, opts, None)
            .expect("runs")
            .result
            .expect("completes");
        // A fingerprint mismatch names the file it came from, not just
        // the shard coordinates.
        let mut foreign = b.clone();
        foreign.fingerprint = "0000000000000000".to_string();
        let err = merge_named_shards(&[
            ("out/a.shard-1-of-2.json".to_string(), a.clone()),
            ("out/b.shard-2-of-2.json".to_string(), foreign),
        ])
        .unwrap_err();
        assert!(
            err.contains("out/b.shard-2-of-2.json"),
            "error must name the offending file: {err}"
        );
        assert!(err.contains("different sweep"), "unexpected error: {err}");
        // So does a duplicated artefact passed twice under two names.
        let err = merge_named_shards(&[
            ("out/a.json".to_string(), a.clone()),
            ("dup/a.json".to_string(), a),
        ])
        .unwrap_err();
        assert!(
            err.contains("dup/a.json") && err.contains("more than one shard"),
            "error must name the duplicate: {err}"
        );
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sirtm_shard_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The IEEE 802.3 check value — any table/bitwise variant that
        // disagrees here is not CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn checkpoint_rows_round_trip_and_reject_damage() {
        let summary = RunSummary {
            seed: 42,
            settle_ms: 1.5,
            pre_rate: 2.0,
            recovery_ms: None,
            final_rate: 3.0,
        };
        let row = checkpoint_row(7, 3, &summary);
        let (seq, index, back) = parse_checkpoint_row(&row).expect("round-trips");
        assert_eq!((seq, index), (7, 3));
        assert_eq!(back.seed, summary.seed);
        // Any single-byte edit breaks the CRC.
        let mut bytes = row.clone().into_bytes();
        let at = bytes.len() - 2;
        bytes[at] ^= 1;
        let edited = String::from_utf8(bytes).expect("still utf8");
        assert!(
            parse_checkpoint_row(&edited).is_err(),
            "edit must fail the CRC"
        );
        assert!(
            parse_checkpoint_row("1 zzzz {}").is_err(),
            "malformed CRC token"
        );
        assert!(
            parse_checkpoint_row("{\"index\":0}").is_err(),
            "pre-CRC format rows are not trusted"
        );
    }

    #[test]
    fn atomic_write_stages_next_to_the_target_and_cleans_up() {
        let dir = temp_dir("atomic");
        let path = dir.join("nested").join("artefact.json");
        atomic_write(&path, "first").expect("writes");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), "first");
        let tmp = path.with_file_name("artefact.json.tmp");
        assert!(!tmp.exists(), "the staging file is consumed by the rename");
        // A stale staging file from an interrupted writer is simply
        // overwritten by the next write — never read, never merged.
        std::fs::write(&tmp, "stale garbage").expect("writes");
        atomic_write(&path, "second").expect("writes");
        assert_eq!(std::fs::read_to_string(&path).expect("reads"), "second");
        assert!(!tmp.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_journal_corruption_quarantines_and_recomputes() {
        let sweep = small_sweep();
        let dir = temp_dir("quarantine");
        let plan = ShardPlan::all(1, sweep.run_count())[0];
        let opts = SweepOptions { threads: 1 };
        run_shard(&sweep, plan, Some(&dir), opts, Some(3)).expect("partial runs");
        let path = checkpoint_file(&dir, plan);
        let text = std::fs::read_to_string(&path).expect("reads");
        // Damage one byte of the first row (file line 2) — interior
        // corruption, not a torn tail, so skipping it would silently
        // lose a journalled run.
        let header_len = text
            .split_inclusive('\n')
            .next()
            .expect("has a header")
            .len();
        let mut bytes = text.into_bytes();
        bytes[header_len] = b'#';
        std::fs::write(&path, bytes).expect("writes");
        let err = load_checkpoint(&path, &fingerprint(&sweep), plan)
            .expect_err("interior damage must not load");
        assert!(
            err.contains("line 2") && err.contains("quarantined"),
            "the error names the damaged line and the quarantine: {err}"
        );
        assert!(!path.exists(), "the damaged journal is moved aside");
        assert!(quarantine_path(&path).exists(), "the evidence survives");
        // The shard recomputes from scratch, byte-identical to a clean
        // uncheckpointed run.
        let report = run_shard(&sweep, plan, Some(&dir), opts, None).expect("recomputes");
        assert_eq!((report.resumed, report.executed), (0, plan.len()));
        let clean = run_shard(&sweep, plan, None, opts, None)
            .expect("clean runs")
            .result
            .expect("completes");
        assert_eq!(report.result.expect("completes"), clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reordered_journal_rows_are_rejected() {
        let sweep = small_sweep();
        let dir = temp_dir("reorder");
        let plan = ShardPlan::all(1, sweep.run_count())[0];
        let opts = SweepOptions { threads: 1 };
        run_shard(&sweep, plan, Some(&dir), opts, Some(3)).expect("partial runs");
        let path = checkpoint_file(&dir, plan);
        let text = std::fs::read_to_string(&path).expect("reads");
        let mut segs: Vec<&str> = text.split_inclusive('\n').collect();
        assert!(segs.len() >= 4, "header + 3 rows");
        segs.swap(1, 2);
        std::fs::write(&path, segs.concat()).expect("writes");
        let err = load_checkpoint(&path, &fingerprint(&sweep), plan)
            .expect_err("a spliced journal must not load");
        assert!(err.contains("reordered"), "unexpected error: {err}");
        assert!(quarantine_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_truncates_the_torn_tail_before_appending() {
        // The glue hazard: an append-mode resume would write its first
        // new row onto the torn fragment, turning a benign tear into
        // interior corruption. The writer must truncate to the trusted
        // prefix first, so the healed journal re-loads cleanly.
        let sweep = small_sweep();
        let dir = temp_dir("tail_heal");
        let plan = ShardPlan::all(1, sweep.run_count())[0];
        let opts = SweepOptions { threads: 1 };
        run_shard(&sweep, plan, Some(&dir), opts, Some(2)).expect("partial runs");
        let path = checkpoint_file(&dir, plan);
        let text = std::fs::read_to_string(&path).expect("reads");
        std::fs::write(&path, &text[..text.len() - 7]).expect("tears");
        let resumed = run_shard(&sweep, plan, Some(&dir), opts, None).expect("resumes");
        assert_eq!((resumed.resumed, resumed.executed), (1, plan.len() - 1));
        let loaded = load_checkpoint(&path, &fingerprint(&sweep), plan)
            .expect("the healed journal loads cleanly");
        assert_eq!(loaded.completed.len(), plan.len());
        assert!(!quarantine_path(&path).exists(), "nothing was quarantined");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicated_journal_rows_are_collapsed_on_load() {
        let sweep = small_sweep();
        let dir = temp_dir("dup_row");
        let plan = ShardPlan::all(1, sweep.run_count())[0];
        let opts = SweepOptions { threads: 1 };
        run_shard(&sweep, plan, Some(&dir), opts, Some(2)).expect("partial runs");
        let path = checkpoint_file(&dir, plan);
        let text = std::fs::read_to_string(&path).expect("reads");
        let last = text.lines().last().expect("has rows");
        std::fs::write(&path, format!("{text}{last}\n")).expect("writes");
        let loaded = load_checkpoint(&path, &fingerprint(&sweep), plan)
            .expect("an exact duplicate is a handoff artefact, not corruption");
        assert_eq!(loaded.completed.len(), 2, "the duplicate collapses");
        let resumed = run_shard(&sweep, plan, Some(&dir), opts, None).expect("resumes");
        assert_eq!((resumed.resumed, resumed.executed), (2, plan.len() - 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_journal_reader_agrees_on_a_run_journalled_twice() {
        // Run 0 journalled twice with distinct rows: resuming must not
        // trust it, and no reader may count it as two completed runs.
        let sweep = small_sweep();
        let plan = ShardPlan::all(1, sweep.run_count())[0];
        let fp = fingerprint(&sweep);
        let summary = |seed| RunSummary {
            seed,
            settle_ms: 1.0,
            pre_rate: 2.0,
            recovery_ms: None,
            final_rate: 3.0,
        };
        let header = format!("{}\n", checkpoint_header(&fp, plan).render());
        let first = format!("{}\n", checkpoint_row(1, 0, &summary(1)));
        let text = format!("{header}{first}{}\n", checkpoint_row(2, 0, &summary(2)));
        let dir = temp_dir("twice");
        std::fs::create_dir_all(&dir).expect("creates");
        let path = checkpoint_file(&dir, plan);
        std::fs::write(&path, &text).expect("writes");
        assert_eq!(
            journal_progress(&path).expect("reads").completed,
            1,
            "status counts distinct verified runs"
        );
        assert_eq!(
            sanitize_journal(&text, &fp, plan),
            Some(format!("{header}{first}"))
        );
        let err = load_checkpoint(&path, &fp, plan).expect_err("must not resume");
        assert!(err.contains("line 3") && err.contains("twice"), "{err}");
        assert!(quarantine_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sanitize_journal_trims_to_the_trusted_prefix() {
        let sweep = small_sweep();
        let dir = temp_dir("sanitize");
        let plan = ShardPlan::all(1, sweep.run_count())[0];
        run_shard(
            &sweep,
            plan,
            Some(&dir),
            SweepOptions { threads: 1 },
            Some(3),
        )
        .expect("partial runs");
        let path = checkpoint_file(&dir, plan);
        let text = std::fs::read_to_string(&path).expect("reads");
        let fp = fingerprint(&sweep);
        let header = text.split_inclusive('\n').next().expect("has a header");
        assert_eq!(
            sanitize_journal(&text, &fp, plan).as_deref(),
            Some(text.as_str()),
            "a clean journal passes through untouched"
        );
        // A torn tail trims to the complete rows.
        let sane = sanitize_journal(&text[..text.len() - 7], &fp, plan).expect("salvages");
        assert!(sane.ends_with('\n') && text.starts_with(&sane) && sane.len() < text.len());
        // A duplicated last row collapses.
        let last = text.lines().last().expect("has rows");
        assert_eq!(
            sanitize_journal(&format!("{text}{last}\n"), &fp, plan).as_deref(),
            Some(text.as_str())
        );
        // Interior corruption: nothing after the damage is trusted.
        let mut bytes = text.clone().into_bytes();
        bytes[header.len()] = b'#';
        let corrupt = String::from_utf8(bytes).expect("still utf8");
        assert_eq!(
            sanitize_journal(&corrupt, &fp, plan).as_deref(),
            Some(header),
            "damage in the first row leaves only the header"
        );
        // A journal for a different sweep salvages nothing.
        assert_eq!(sanitize_journal(&text, "0000000000000000", plan), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
