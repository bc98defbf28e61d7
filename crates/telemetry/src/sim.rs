//! Sim plane: deterministic, cycle-stamped counters and the sidecar
//! artefact they are emitted into.
//!
//! Everything in this module is a pure function of the simulation state:
//! no clocks, no hostnames, no thread identity. A [`SimCounters`] value
//! for a given `(spec, seed)` pair is bit-identical on every machine,
//! at every thread count, under every shard plan — which is what lets
//! the sidecar ride next to the fingerprinted sweep artefact without
//! ever being folded into it.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use crate::escape_json;

/// Deterministic per-run counters accumulated inside the simulation.
///
/// All fields are monotone counts; [`SimCounters::absorb`] sums two
/// snapshots field-wise. The field set (and its render order in
/// [`SidecarCollector::render`]) is part of the sidecar format
/// documented in `docs/observability.md`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SimCounters {
    /// Cycles advanced through the full per-cycle pipeline.
    pub cycles_stepped: u64,
    /// Cycles skipped by the settled-state fast-forward path.
    pub cycles_fast_forwarded: u64,
    /// Messages injected into the NoC mesh.
    pub messages_injected: u64,
    /// Messages delivered by the NoC mesh.
    pub messages_delivered: u64,
    /// Total flit-hops routed (distance-weighted traffic).
    pub flit_hops: u64,
    /// Directory gossip rounds computed. Rounds the optimized stepper
    /// skips at a proven fixpoint are not counted.
    pub gossip_rounds: u64,
    /// Staggered AIM (Artificial Intelligence Module) scans executed,
    /// one per node whose scan falls due, passive models included.
    pub aim_scans: u64,
    /// Thermal victim-set resolutions requested by timeline compilation.
    pub thermal_solves: u64,
}

impl SimCounters {
    /// Field-wise sum of `other` into `self`.
    pub fn absorb(&mut self, other: &SimCounters) {
        self.cycles_stepped += other.cycles_stepped;
        self.cycles_fast_forwarded += other.cycles_fast_forwarded;
        self.messages_injected += other.messages_injected;
        self.messages_delivered += other.messages_delivered;
        self.flit_hops += other.flit_hops;
        self.gossip_rounds += other.gossip_rounds;
        self.aim_scans += other.aim_scans;
        self.thermal_solves += other.thermal_solves;
    }

    /// True if every counter is zero (nothing was observed).
    pub fn is_zero(&self) -> bool {
        *self == SimCounters::default()
    }

    /// The counters as `(name, value)` pairs in canonical render order.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("cycles_stepped", self.cycles_stepped),
            ("cycles_fast_forwarded", self.cycles_fast_forwarded),
            ("messages_injected", self.messages_injected),
            ("messages_delivered", self.messages_delivered),
            ("flit_hops", self.flit_hops),
            ("gossip_rounds", self.gossip_rounds),
            ("aim_scans", self.aim_scans),
            ("thermal_solves", self.thermal_solves),
        ]
    }

    fn render_into(&self, out: &mut String, indent: &str) {
        out.push('{');
        for (i, (name, value)) in self.fields().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(indent);
            out.push_str("  \"");
            out.push_str(name);
            out.push_str("\": ");
            // Exact u64 digits: the workspace JSON type stores numbers
            // as f64, which would corrupt counters above 2^53.
            out.push_str(&value.to_string());
        }
        out.push('\n');
        out.push_str(indent);
        out.push('}');
    }
}

impl fmt::Display for SimCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, value) in self.fields() {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        Ok(())
    }
}

/// One recorded run in a sidecar: global run index, the seed it ran
/// under, and its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// Global run index within the expanded sweep (cell-major order).
    pub index: u64,
    /// The seed the run executed under.
    pub seed: u64,
    /// The run's deterministic counters.
    pub sim: SimCounters,
}

/// Collects per-run [`SimCounters`] keyed by *global* run index and
/// renders them as the sidecar artefact.
///
/// Keying by global index is what makes the sidecar shard-transparent:
/// two shards of a sweep each record their own slice, and a collector
/// that has absorbed both renders byte-identically to one that observed
/// the unsharded sweep. Recording is thread-safe (the sweep runner
/// records from its worker threads); rendering is ordered by index, so
/// record order never shows through.
pub struct SidecarCollector {
    sweep: String,
    runs: Mutex<BTreeMap<u64, RunRecord>>,
    census: Mutex<BTreeMap<String, u64>>,
}

impl SidecarCollector {
    /// Creates an empty collector for the named sweep.
    pub fn new(sweep: &str) -> Self {
        Self {
            sweep: sweep.to_string(),
            runs: Mutex::new(BTreeMap::new()),
            census: Mutex::new(BTreeMap::new()),
        }
    }

    /// Increments the named census bucket by one.
    ///
    /// The census is a deterministic tally of discrete producer-side
    /// events (e.g. the fuzz engine's mutation-operator counts). Like
    /// the run records it must be a pure function of the producing
    /// computation's seed — never of thread identity or wall clock —
    /// so it can live in the fingerprint-stable sidecar.
    pub fn note(&self, key: &str) {
        self.note_by(key, 1);
    }

    /// Increments the named census bucket by `n`.
    pub fn note_by(&self, key: &str, n: u64) {
        let mut census = self.census.lock().unwrap_or_else(|e| e.into_inner());
        *census.entry(key.to_string()).or_insert(0) += n;
    }

    /// Snapshot of the census, ordered by bucket name.
    pub fn census(&self) -> Vec<(String, u64)> {
        let census = self.census.lock().unwrap_or_else(|e| e.into_inner());
        census.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Records one run's counters. Re-recording the same index (e.g. a
    /// checkpoint-resumed run re-executed) overwrites: counters are a
    /// pure function of `(spec, seed)`, so the value cannot differ.
    pub fn record(&self, index: u64, seed: u64, sim: SimCounters) {
        let record = RunRecord { index, seed, sim };
        let mut runs = self.runs.lock().unwrap_or_else(|e| e.into_inner());
        runs.insert(index, record);
    }

    /// Copies every record from `other` into `self` (shard merge).
    /// Census buckets are summed: each shard tallies its own slice.
    pub fn absorb(&self, other: &SidecarCollector) {
        let theirs: Vec<RunRecord> = other.records();
        let mut runs = self.runs.lock().unwrap_or_else(|e| e.into_inner());
        for r in theirs {
            runs.insert(r.index, r);
        }
        drop(runs);
        for (key, n) in other.census() {
            self.note_by(&key, n);
        }
    }

    /// Snapshot of the recorded runs, ordered by global index.
    pub fn records(&self) -> Vec<RunRecord> {
        let runs = self.runs.lock().unwrap_or_else(|e| e.into_inner());
        runs.values().copied().collect()
    }

    /// Number of runs recorded so far.
    pub fn len(&self) -> usize {
        self.runs.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True if no runs have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the sidecar artefact: a deterministic JSON document with
    /// runs ordered by global index and a field-wise total.
    ///
    /// The output is a pure function of the recorded set — identical
    /// across thread counts, shard plans and record order.
    pub fn render(&self) -> String {
        let records = self.records();
        let mut totals = SimCounters::default();
        for r in &records {
            totals.absorb(&r.sim);
        }
        let mut out = String::with_capacity(256 + records.len() * 256);
        out.push_str("{\n");
        out.push_str("  \"kind\": \"sirtm-sim-sidecar\",\n");
        out.push_str("  \"sweep\": \"");
        out.push_str(&escape_json(&self.sweep));
        out.push_str("\",\n");
        out.push_str("  \"run_count\": ");
        out.push_str(&records.len().to_string());
        out.push_str(",\n");
        out.push_str("  \"totals\": ");
        totals.render_into(&mut out, "  ");
        out.push_str(",\n");
        // The census section only appears when buckets exist, so
        // sidecars from producers that never call `note` render exactly
        // as they did before the census existed.
        let census = self.census();
        if !census.is_empty() {
            out.push_str("  \"census\": {");
            for (i, (key, n)) in census.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    \"");
                out.push_str(&escape_json(key));
                out.push_str("\": ");
                out.push_str(&n.to_string());
            }
            out.push_str("\n  },\n");
        }
        out.push_str("  \"runs\": [");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"index\": ");
            out.push_str(&r.index.to_string());
            out.push_str(",\n      \"seed\": ");
            out.push_str(&r.seed.to_string());
            out.push_str(",\n      \"sim\": ");
            r.sim.render_into(&mut out, "      ");
            out.push_str("\n    }");
        }
        if !records.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

impl fmt::Debug for SidecarCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SidecarCollector")
            .field("sweep", &self.sweep)
            .field("runs", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(base: u64) -> SimCounters {
        SimCounters {
            cycles_stepped: base,
            cycles_fast_forwarded: base + 1,
            messages_injected: base + 2,
            messages_delivered: base + 3,
            flit_hops: base + 4,
            gossip_rounds: base + 5,
            aim_scans: base + 6,
            thermal_solves: base + 7,
        }
    }

    #[test]
    fn absorb_sums_field_wise() {
        let mut a = counters(10);
        a.absorb(&counters(100));
        assert_eq!(a.cycles_stepped, 110);
        assert_eq!(a.thermal_solves, 124);
    }

    #[test]
    fn render_is_order_independent() {
        let fwd = SidecarCollector::new("s");
        fwd.record(0, 11, counters(1));
        fwd.record(1, 22, counters(2));
        fwd.record(2, 33, counters(3));
        let rev = SidecarCollector::new("s");
        rev.record(2, 33, counters(3));
        rev.record(0, 11, counters(1));
        rev.record(1, 22, counters(2));
        assert_eq!(fwd.render(), rev.render());
    }

    #[test]
    fn absorb_merges_shard_slices() {
        let whole = SidecarCollector::new("s");
        for i in 0..4u64 {
            whole.record(i, i * 7, counters(i));
        }
        let lo = SidecarCollector::new("s");
        lo.record(0, 0, counters(0));
        lo.record(1, 7, counters(1));
        let hi = SidecarCollector::new("s");
        hi.record(2, 14, counters(2));
        hi.record(3, 21, counters(3));
        let merged = SidecarCollector::new("s");
        merged.absorb(&hi);
        merged.absorb(&lo);
        assert_eq!(merged.render(), whole.render());
    }

    #[test]
    fn large_counters_render_exact_digits() {
        let big = SimCounters {
            cycles_stepped: u64::MAX,
            ..SimCounters::default()
        };
        let c = SidecarCollector::new("big");
        c.record(0, 1, big);
        let doc = c.render();
        assert!(
            doc.contains("\"cycles_stepped\": 18446744073709551615"),
            "u64::MAX must render with exact digits:\n{doc}"
        );
    }

    #[test]
    fn empty_collector_renders_stable_shell() {
        let c = SidecarCollector::new("empty");
        let doc = c.render();
        assert!(doc.contains("\"run_count\": 0"));
        assert!(doc.contains("\"runs\": []"));
    }

    #[test]
    fn census_renders_sorted_and_absorb_sums() {
        let a = SidecarCollector::new("s");
        a.note("mutate:hotspot");
        a.note("mutate:dvfs");
        a.note("mutate:hotspot");
        let b = SidecarCollector::new("s");
        b.note_by("mutate:hotspot", 3);
        b.note("shrink:delete-event");
        a.absorb(&b);
        assert_eq!(
            a.census(),
            vec![
                ("mutate:dvfs".to_string(), 1),
                ("mutate:hotspot".to_string(), 5),
                ("shrink:delete-event".to_string(), 1),
            ]
        );
        let doc = a.render();
        assert!(doc.contains("\"census\": {"));
        assert!(doc.contains("\"mutate:hotspot\": 5"));
    }

    #[test]
    fn empty_census_leaves_render_unchanged() {
        let c = SidecarCollector::new("plain");
        c.record(0, 1, counters(1));
        assert!(!c.render().contains("census"));
    }

    #[test]
    fn display_is_compact_key_value() {
        let c = counters(1);
        let s = c.to_string();
        assert!(s.starts_with("cycles_stepped=1 "));
        assert!(s.ends_with("thermal_solves=8"));
    }
}
