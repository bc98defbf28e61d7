//! The Centurion platform: routers, processing elements, AIMs, gossip
//! directories and the simulation loop that binds them.

use sirtm_core::io::AimIo;
use sirtm_core::models::{Model, ModelKind};
use sirtm_noc::{Cycle, Mesh, MeshStats, NodeId, Packet, PacketKind, Port, Router, RouterConfig};
use sirtm_taskgraph::{Mapping, TaskGraph, TaskId};
use sirtm_telemetry::SimCounters;

use crate::config::{
    PlatformConfig, AIM_PERIOD, FEED_GAIN_MULTIPLIER, FOREIGN_CAP, FREQ_RANGE_MHZ, GOSSIP_PERIOD,
    MAX_BOUNCES, NOMINAL_MHZ, QUEUE_CAP, RECENT_DEMAND_WINDOW,
};
use crate::directory::{gossip_round, gossip_round_into, Directory};
use crate::pe::{Accept, PeStats, ProcessingElement};

/// "Never" sentinel for the per-PE event table.
const NEVER: Cycle = Cycle::MAX;

/// Platform-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlatformStats {
    /// Packets sent to a resolved task instance.
    pub sends: u64,
    /// Emissions with no known instance of the target task; the packet is
    /// self-addressed so the work stays visible to the local AIM.
    pub send_failures: u64,
    /// Mis-delivered packets re-injected towards another instance.
    pub bounces: u64,
    /// Packets dropped after exhausting their bounce budget.
    pub bounce_drops: u64,
    /// Task switches actually applied (task changed).
    pub task_switches: u64,
    /// Completions per task since construction.
    pub completions_per_task: Vec<u64>,
}

/// Snapshot of one node, as read through the debug interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The node.
    pub node: NodeId,
    /// Whether the PE is alive.
    pub alive: bool,
    /// Current task.
    pub task: Option<TaskId>,
    /// Work queue length in packets.
    pub queue_len: usize,
    /// Foreign buffer length in packets.
    pub foreign_len: usize,
    /// PE counters.
    pub pe: PeStats,
    /// DVFS frequency in MHz.
    pub frequency_mhz: u16,
    /// Cumulative cycles the PE spent executing work (activity integral;
    /// thermal models difference this across windows for duty cycles).
    pub busy_cycles: u64,
}

/// The assembled 128-node platform (grid size configurable).
///
/// # Examples
///
/// ```
/// use sirtm_centurion::{Platform, PlatformConfig};
/// use sirtm_core::models::{FfwConfig, ModelKind};
/// use sirtm_rng::Xoshiro256StarStar;
/// use sirtm_taskgraph::{workloads, Mapping};
///
/// let cfg = PlatformConfig::default();
/// let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
/// let model = ModelKind::ForagingForWork(FfwConfig::default());
/// let mut platform = Platform::new(graph, &mapping, &model, cfg);
/// platform.run_ms(50.0);
/// assert!(platform.completions_total() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    cfg: PlatformConfig,
    graph: TaskGraph,
    n_tasks: usize,
    mesh: Mesh,
    pes: Vec<ProcessingElement>,
    models: Vec<Model>,
    dirs: Vec<Directory>,
    neighbours: Vec<[Option<usize>; 4]>,
    /// Gossip staleness bound in hops, derived from the grid.
    dir_dist_max: u8,
    cycle: Cycle,
    stats: PlatformStats,
    /// Deterministic sim-plane telemetry (cycle/scan/gossip counters);
    /// NoC message counters are merged in from the mesh on snapshot.
    sim: SimCounters,

    // ---- activity-gating state (see README: "Performance architecture")
    /// `!model.is_adaptive()`: the baseline's scan reads nothing and
    /// decides nothing, so the hot loop elides its assembly.
    passive: bool,
    /// Next cycle at which stepping PE `idx` could change state
    /// ([`NEVER`] = quiescent until an external event re-arms it).
    pe_next: Vec<Cycle>,
    /// For a PE that is mid-work, alive and un-gated, the first cycle
    /// whose busy time the stepper has not yet added to its integral.
    /// The owed cycles are credited lazily, when the PE is next stepped,
    /// killed, hung or switched ([`Platform::busy_cycles`] adds them on
    /// read), so neither the per-cycle PE pass nor a fast-forward touches
    /// PEs that are not due.
    owed_since: Vec<Option<Cycle>>,
    /// Incrementally maintained copy of every node's advertised task —
    /// what the naive stepper recomputes per gossip round.
    locals: Vec<Option<TaskId>>,
    /// Gossip double buffer: the next round is computed here, then
    /// swapped with `dirs`.
    dirs_next: Vec<Directory>,
    /// Set once a gossip round reproduces its input exactly; the round is
    /// then a provable fixpoint and is skipped until an advertised task
    /// or directory changes.
    gossip_converged: bool,
    /// `scan_buckets[now % AIM_PERIOD]` = nodes whose staggered AIM scan
    /// is due at that residue (ascending node order).
    scan_buckets: Vec<Vec<u32>>,
    /// Per-residue count of alive nodes whose scans can decide (none on a
    /// passive platform) — the scan events the fast-forward must stop
    /// for.
    scan_residue_live: Vec<u32>,
    /// AIM register writes this platform has drained from routers;
    /// compared against the mesh's arrival counter to detect outstanding
    /// writes.
    aim_writes_drained: u64,
    /// Set by the naive stepper: the event tables above may be stale and
    /// are rebuilt before the next optimized step.
    events_stale: bool,
    // Reused per-step scratch (hoisted so steady-state stepping never
    // touches the heap).
    delivery_scratch: Vec<u16>,
    edge_scratch: Vec<(TaskId, u8, u8, sirtm_taskgraph::EdgeKind)>,
    evict_scratch: Vec<Packet>,
}

impl Platform {
    /// Builds a platform running `model` on every node, with tasks
    /// initially placed per `mapping`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping's grid differs from the configuration's, or
    /// if the configuration is invalid.
    pub fn new(
        graph: TaskGraph,
        mapping: &Mapping,
        model: &ModelKind,
        cfg: PlatformConfig,
    ) -> Self {
        cfg.validate();
        assert_eq!(mapping.dims(), cfg.dims, "mapping grid mismatch");
        let n_tasks = graph.len();
        let models = (0..cfg.dims.len()).map(|_| model.build(n_tasks)).collect();
        // One rule for the baseline: its scans are elided and its routers
        // never deliver task-affine packets opportunistically.
        let passive = !model.is_adaptive();
        let router_cfg = RouterConfig {
            n_tasks,
            opportunistic_delivery: !passive,
        };
        let mut mesh = Mesh::new(cfg.dims, router_cfg);
        let mut pes = Vec::with_capacity(cfg.dims.len());
        for idx in 0..cfg.dims.len() {
            let node = NodeId::new(idx as u16);
            let mut pe = ProcessingElement::new(node, NOMINAL_MHZ, QUEUE_CAP, FOREIGN_CAP);
            if let Some(task) = mapping.task_of(idx) {
                pe.switch_task(task, &graph, 0, false);
                mesh.router_mut(node).settings_mut().local_task = Some(task);
            }
            pes.push(pe);
        }
        let neighbours = build_neighbours(cfg.dims);
        let mut dirs: Vec<Directory> = (0..cfg.dims.len())
            .map(|_| Directory::new(n_tasks))
            .collect();
        // Pre-warm the gossip directories: the loaded mapping is known to
        // every node at t = 0, exactly as a freshly configured platform
        // would be. Adaptation churn still updates them live afterwards.
        // The staleness bound covers the grid's diameter plus slack, so
        // every node learns of every task instance.
        let (w, h) = (u32::from(cfg.dims.width()), u32::from(cfg.dims.height()));
        let dir_dist_max = (w + h + 4).min(255) as u8;
        let locals: Vec<Option<TaskId>> = pes.iter().map(ProcessingElement::task).collect();
        for _ in 0..dir_dist_max {
            dirs = gossip_round(&dirs, &locals, &neighbours, n_tasks, dir_dist_max);
        }
        let n = cfg.dims.len();
        let period = AIM_PERIOD as usize;
        let mut scan_buckets = vec![Vec::new(); period];
        let mut scan_residue_live = vec![0u32; period];
        for idx in 0..n {
            let r = scan_residue(idx, period as u64) as usize;
            scan_buckets[r].push(idx as u32);
            if !passive {
                scan_residue_live[r] += 1;
            }
        }
        Self {
            stats: PlatformStats {
                completions_per_task: vec![0; n_tasks],
                ..PlatformStats::default()
            },
            graph,
            n_tasks,
            mesh,
            pes,
            models,
            dirs_next: dirs.clone(),
            dirs,
            neighbours,
            dir_dist_max,
            cycle: 0,
            sim: SimCounters::default(),
            cfg,
            passive,
            pe_next: vec![0; n],
            owed_since: vec![None; n],
            locals,
            gossip_converged: false,
            scan_buckets,
            scan_residue_live,
            aim_writes_drained: 0,
            events_stale: false,
            delivery_scratch: Vec::with_capacity(n),
            edge_scratch: Vec::new(),
            evict_scratch: Vec::new(),
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.cfg
    }

    /// The application task graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.cfg.cycles_to_ms(self.cycle)
    }

    /// Platform counters.
    pub fn stats(&self) -> &PlatformStats {
        &self.stats
    }

    /// NoC fabric counters.
    pub fn mesh_stats(&self) -> MeshStats {
        self.mesh.stats()
    }

    /// Snapshot of the deterministic sim-plane counters: the platform's
    /// own cycle/scan/gossip counts merged with the mesh's message
    /// counters. A pure function of the simulation — bit-identical for
    /// a given build sequence regardless of host, thread or shard.
    pub fn sim_counters(&self) -> SimCounters {
        let m = self.mesh.stats();
        SimCounters {
            messages_injected: m.injected,
            messages_delivered: m.delivered,
            flit_hops: m.flit_hops,
            ..self.sim
        }
    }

    /// Immutable access to the fabric (for advanced inspection).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Immutable access to a node's PE.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn pe(&self, node: NodeId) -> &ProcessingElement {
        &self.pes[node.index()]
    }

    /// Immutable access to a node's router.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn router(&self, node: NodeId) -> &Router {
        self.mesh.router(node)
    }

    /// Number of alive nodes currently mapped to each task.
    pub fn task_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_tasks];
        for pe in &self.pes {
            if pe.is_alive() {
                if let Some(t) = pe.task() {
                    counts[t.index()] += 1;
                }
            }
        }
        counts
    }

    /// Cumulative completions of `task`.
    pub fn completions(&self, task: TaskId) -> u64 {
        self.stats.completions_per_task[task.index()]
    }

    /// Cumulative completions per task, as a borrow — readers sampling
    /// every window (recorders, thermal models, render paths) index this
    /// slice instead of cloning the counter vector.
    pub fn completions_per_task(&self) -> &[u64] {
        &self.stats.completions_per_task
    }

    /// Cumulative completions across all tasks.
    pub fn completions_total(&self) -> u64 {
        self.completions_per_task().iter().sum()
    }

    /// Number of alive nodes that completed work at or after `since` —
    /// the paper's "Nodes Active" throughput proxy.
    pub fn nodes_active_since(&self, since: Cycle) -> usize {
        self.pes
            .iter()
            .filter(|pe| pe.is_alive() && pe.last_completion().is_some_and(|c| c >= since))
            .count()
    }

    /// Total task switches applied since construction.
    pub fn switches_total(&self) -> u64 {
        self.stats.task_switches
    }

    /// Number of alive PEs.
    pub fn alive_count(&self) -> usize {
        self.pes.iter().filter(|pe| pe.is_alive()).count()
    }

    /// Reads one node's state through the debug interface (no NoC
    /// traffic perturbation).
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn node_snapshot(&self, node: NodeId) -> NodeSnapshot {
        let pe = &self.pes[node.index()];
        NodeSnapshot {
            node,
            alive: pe.is_alive(),
            task: pe.task(),
            queue_len: pe.queue_len(),
            foreign_len: pe.foreign_len(),
            pe: pe.stats(),
            frequency_mhz: pe.frequency_mhz(),
            busy_cycles: self.busy_cycles(node),
        }
    }

    /// Cumulative cycles `node`'s PE spent executing work — the activity
    /// integral thermal models difference across windows. Unlike
    /// [`ProcessingElement::busy_cycles`] this includes the busy time the
    /// activity-gated stepper has not yet credited to a mid-work PE.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn busy_cycles(&self, node: NodeId) -> u64 {
        let idx = node.index();
        let owed = self.owed_since[idx].map_or(0, |since| self.cycle - since);
        self.pes[idx].busy_cycles() + owed
    }

    /// Credits PE `idx` the busy time it owes for the cycles before
    /// `upto`.
    fn settle_busy(&mut self, idx: usize, upto: Cycle) {
        if let Some(since) = self.owed_since[idx] {
            self.pes[idx].credit_busy(upto - since);
            self.owed_since[idx] = Some(upto);
        }
    }

    /// Kills a node's processing element (the paper's node-fault model):
    /// the PE stops, its AIM goes silent, the internal port closes, but
    /// the router keeps routing through traffic.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn kill_pe(&mut self, node: NodeId) {
        let idx = node.index();
        let was_alive = self.pes[idx].is_alive();
        self.settle_busy(idx, self.cycle);
        self.pes[idx].kill();
        let router = self.mesh.router_mut(node);
        router.settings_mut().local_task = None;
        router.settings_mut().port_enabled[Port::Internal.index()] = false;
        self.dirs[idx].clear();
        // Event-table upkeep: a dead PE never has events, its scan can no
        // longer decide anything, and the directories must re-converge.
        self.pe_next[idx] = NEVER;
        self.owed_since[idx] = None;
        self.locals[idx] = None;
        self.gossip_converged = false;
        if was_alive && !self.passive {
            let r = scan_residue(idx, AIM_PERIOD as u64) as usize;
            self.scan_residue_live[r] -= 1;
        }
    }

    /// Kills the whole tile: PE and router (global-circuitry faults).
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn kill_tile(&mut self, node: NodeId) {
        self.kill_pe(node);
        self.mesh.router_mut(node).kill();
    }

    /// Hangs the PE (clock gated, state retained): it stops processing
    /// but still advertises its task — a lying fault, unlike a clean kill.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn hang_pe(&mut self, node: NodeId) {
        self.settle_busy(node.index(), self.cycle);
        self.pes[node.index()].set_clock_enabled(false);
        // A gated PE's steps are no-ops (and it accrues no busy time).
        self.pe_next[node.index()] = NEVER;
        self.owed_since[node.index()] = None;
    }

    /// Resumes a hung PE.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn resume_pe(&mut self, node: NodeId) {
        self.pes[node.index()].set_clock_enabled(true);
        // Due immediately: the next step re-derives the real event.
        self.pe_next[node.index()] = self.cycle;
    }

    /// DVFS knob: sets a node's clock, clamped to the platform range.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn set_frequency(&mut self, node: NodeId, mhz: u16) {
        let (lo, hi) = FREQ_RANGE_MHZ;
        self.pes[node.index()].set_frequency_mhz(mhz.clamp(lo, hi));
    }

    /// DVFS knob over the whole grid: sets every node's clock, clamped to
    /// the platform range (a global throttle / overclock event).
    pub fn set_frequency_all(&mut self, mhz: u16) {
        for i in 0..self.pes.len() {
            self.set_frequency(NodeId::new(i as u16), mhz);
        }
    }

    /// Workload-phase knob: retunes the spontaneous generation period of
    /// source task `task` to `period_cycles`. The change takes effect
    /// from each source node's next generation instant (the pending phase
    /// is kept, so randomised clock phases survive the shift).
    ///
    /// # Panics
    ///
    /// Panics if `task` is not a source task of the running graph, or if
    /// `period_cycles` is zero.
    pub fn set_generation_period(&mut self, task: TaskId, period_cycles: u32) {
        assert!(period_cycles > 0, "generation period must be non-zero");
        assert!(
            self.graph.spec(task).is_source(),
            "task {task} is not a source"
        );
        self.graph.spec_mut(task).generation_period = Some(period_cycles);
        // Re-arm affected PEs: their cached next event may now be wrong
        // in either direction; due-now re-derivation is always safe.
        for idx in 0..self.pes.len() {
            if self.pes[idx].task() == Some(task) {
                self.pe_next[idx] = self.pe_next[idx].min(self.cycle);
            }
        }
    }

    /// Sends a configuration packet through the NoC to a router's RCAP
    /// (the experiment controller's in-band path).
    pub fn send_config(&mut self, from: NodeId, to: NodeId, cmd: sirtm_noc::RcapCommand) {
        self.mesh.send_config(from, to, cmd);
    }

    /// Applies a configuration command directly (debug interface).
    pub fn apply_config_direct(&mut self, node: NodeId, cmd: sirtm_noc::RcapCommand) {
        self.mesh.apply_config_direct(node, cmd);
    }

    /// Randomises the generation phases of all source nodes — distinct
    /// runs of the same mapping then differ, as unsynchronised hardware
    /// clock domains would (the paper's 100 "randomly initialised" runs
    /// include the fixed-mapping baseline).
    pub fn randomize_phases<R: sirtm_rng::Rng>(&mut self, rng: &mut R) {
        let now = self.cycle;
        for (idx, pe) in self.pes.iter_mut().enumerate() {
            if let Some(task) = pe.task() {
                if let Some(period) = self.graph.spec(task).generation_period {
                    pe.set_generation_phase(now + 1 + rng.below_u64(period as u64));
                    // Re-arm: the next step re-derives the new phase.
                    self.pe_next[idx] = now;
                }
            }
        }
    }

    /// Runs for `ms` milliseconds of simulated time through the
    /// activity-gated stepper (fast-forwarding quiescent stretches).
    pub fn run_ms(&mut self, ms: f64) {
        let target = self.cycle + self.cfg.ms_to_cycles(ms);
        self.run_until(target);
    }

    /// Runs for `cycles` cycles through the activity-gated stepper.
    pub fn run_cycles(&mut self, cycles: Cycle) {
        self.run_until(self.cycle + cycles);
    }

    /// Advances to `target` with the optimized stepper, fast-forwarding
    /// whole stretches in which the fabric is settled-idle, no PE has a
    /// due event, no adaptive AIM scan is due and the gossip directories
    /// are at a proven fixpoint. Never advances past `target`, so
    /// windowed observers sample the same instants as a per-cycle loop.
    pub fn run_until(&mut self, target: Cycle) {
        while self.cycle < target {
            self.step();
            if self.cycle >= target || !self.mesh.is_settled_idle() {
                continue;
            }
            if self.mesh.aim_writes_enqueued() > self.aim_writes_drained {
                // Undrained remote register writes pin the scan schedule.
                continue;
            }
            let mut next = target;
            for &e in &self.pe_next {
                if e < next {
                    next = e;
                }
            }
            if let Some(s) = self.next_scan_event() {
                next = next.min(s);
            }
            if !self.gossip_converged {
                next = next.min(next_multiple(self.cycle, GOSSIP_PERIOD as u64));
            }
            if next > self.cycle {
                // A PE that stays mid-work over the jump (its completion
                // bounds it) owes the whole stretch as busy time, which
                // its lazy credit already counts.
                let dt = next - self.cycle;
                self.mesh.skip_idle_cycles(dt);
                self.sim.cycles_fast_forwarded += dt;
                self.cycle = next;
            }
        }
    }

    /// The next cycle (at or after the current one) at which any alive
    /// node's staggered AIM scan is due on an adaptive platform; `None`
    /// when no such node remains and scans cannot change a decision.
    fn next_scan_event(&self) -> Option<Cycle> {
        let period = AIM_PERIOD as u64;
        (self.cycle..self.cycle + period)
            .find(|t| self.scan_residue_live[(t % period) as usize] > 0)
    }

    /// Advances the platform by one cycle with the activity-gated hot
    /// loop: fabric-reported deliveries → due PEs (skipped PEs provably
    /// change nothing) → bucketed AIM scans → gossip (elided at fixpoint)
    /// → NoC. Decision-for-decision identical to
    /// [`Platform::step_naive`], which `tests/differential.rs` enforces.
    pub fn step(&mut self) {
        if self.events_stale {
            self.rebuild_event_state();
        }
        let now = self.cycle;
        // 1. Deliveries from the fabric into the PEs. Only nodes the
        // fabric delivered to during the last cycle can hold packets, and
        // the mesh hands us exactly that set (ascending, like the naive
        // full scan).
        if !self.mesh.fresh_delivered().is_empty() {
            let mut list = std::mem::take(&mut self.delivery_scratch);
            list.clear();
            list.extend_from_slice(self.mesh.fresh_delivered());
            for &raw in &list {
                let idx = raw as usize;
                let node = NodeId::new(raw);
                while let Some(pkt) = self.mesh.pop_delivered(node) {
                    self.deliver(idx, pkt);
                }
            }
            self.delivery_scratch = list;
        }
        // 2. PE work; completions emit packets along the task graph. A PE
        // whose next event lies ahead is either inert or mid-work, and is
        // skipped outright: a mid-work PE's busy cycles accrue as lazy
        // credit, settled here once it is due again.
        for idx in 0..self.pes.len() {
            if self.pe_next[idx] <= now {
                self.settle_busy(idx, now);
                if let Some(task) = self.pes[idx].step(now, &self.graph) {
                    self.stats.completions_per_task[task.index()] += 1;
                    self.emit_outputs(idx, task);
                }
                let pe = &self.pes[idx];
                self.pe_next[idx] = pe.next_event().unwrap_or(NEVER);
                self.owed_since[idx] =
                    (pe.is_busy() && pe.is_alive() && pe.clock_enabled()).then_some(now + 1);
            }
        }
        // 3. Phase-staggered AIM scans (unsynchronised hardware AIMs),
        // via the precomputed residue buckets instead of 128 modulo
        // tests.
        let r = (now % AIM_PERIOD as u64) as usize;
        self.sim.aim_scans += self.scan_buckets[r].len() as u64;
        for k in 0..self.scan_buckets[r].len() {
            let idx = self.scan_buckets[r][k] as usize;
            self.scan_fast(idx, now);
        }
        // 4. Gossip directory round, double-buffered; once a round
        // reproduces its input it is a fixpoint and is skipped until an
        // advertised task or directory changes.
        if now.is_multiple_of(GOSSIP_PERIOD as u64) && !self.gossip_converged {
            self.sim.gossip_rounds += 1;
            let mut next = std::mem::take(&mut self.dirs_next);
            gossip_round_into(
                &self.dirs,
                &self.locals,
                &self.neighbours,
                self.n_tasks,
                self.dir_dist_max,
                &mut next,
            );
            if next == self.dirs {
                self.gossip_converged = true;
                self.dirs_next = next;
            } else {
                self.dirs_next = std::mem::replace(&mut self.dirs, next);
            }
        }
        // 5. Fabric cycle.
        self.mesh.step();
        self.sim.cycles_stepped += 1;
        self.cycle += 1;
    }

    /// Advances the platform by one cycle with the original exhaustive
    /// loop: every router drained and stepped ([`Mesh::step_naive`]),
    /// every PE stepped, every scan condition tested, every gossip round
    /// recomputed from scratch. Retained as the differential oracle for
    /// [`Platform::step`]; it makes no use of the activity-gating state.
    pub fn step_naive(&mut self) {
        // The naive PE pass credits busy time itself, every cycle: settle
        // what the optimized stepper still owes and stop the lazy credit.
        for idx in 0..self.pes.len() {
            self.settle_busy(idx, self.cycle);
            self.owed_since[idx] = None;
        }
        self.events_stale = true;
        let now = self.cycle;
        // 1. Deliveries from the fabric into the PEs.
        for idx in 0..self.pes.len() {
            let node = NodeId::new(idx as u16);
            if self.mesh.router(node).delivered_len() == 0 {
                continue;
            }
            for pkt in self.mesh.take_delivered(node) {
                self.deliver(idx, pkt);
            }
        }
        // 2. PE work; completions emit packets along the task graph.
        for idx in 0..self.pes.len() {
            if let Some(task) = self.pes[idx].step(now, &self.graph) {
                self.stats.completions_per_task[task.index()] += 1;
                self.emit_outputs(idx, task);
            }
        }
        // 3. Phase-staggered AIM scans (unsynchronised hardware AIMs).
        let period = AIM_PERIOD as u64;
        for idx in 0..self.pes.len() {
            if (now + idx as u64 * 7).is_multiple_of(period) {
                self.sim.aim_scans += 1;
                self.scan(idx, now);
            }
        }
        // 4. Gossip directory round.
        if now.is_multiple_of(GOSSIP_PERIOD as u64) {
            self.sim.gossip_rounds += 1;
            let locals: Vec<Option<TaskId>> = self
                .pes
                .iter()
                .map(|pe| pe.is_alive().then(|| pe.task()).flatten())
                .collect();
            self.dirs = gossip_round(
                &self.dirs,
                &locals,
                &self.neighbours,
                self.n_tasks,
                self.dir_dist_max,
            );
        }
        // 5. Fabric cycle, every router stepped.
        self.mesh.step_naive();
        self.sim.cycles_stepped += 1;
        self.cycle += 1;
    }

    /// Rebuilds the activity-gating tables after naive stepping (which
    /// bypasses their upkeep): every PE is marked due so its state
    /// re-derives itself, and gossip convergence is re-proven.
    fn rebuild_event_state(&mut self) {
        for (idx, pe) in self.pes.iter().enumerate() {
            self.pe_next[idx] = self.cycle;
            self.owed_since[idx] =
                (pe.is_busy() && pe.is_alive() && pe.clock_enabled()).then_some(self.cycle);
        }
        self.gossip_converged = false;
        self.events_stale = false;
    }

    fn deliver(&mut self, idx: usize, pkt: Packet) {
        // A delivery can make the PE runnable: re-arm it for this cycle's
        // PE pass (spurious re-arms are harmless — the naive stepper
        // steps every PE every cycle).
        self.pe_next[idx] = self.pe_next[idx].min(self.cycle);
        let (accept, displaced) = self.pes[idx].deliver(pkt);
        match accept {
            Accept::Overflow => {
                if let Some(p) = displaced {
                    self.bounce(idx, p);
                }
            }
            Accept::Dead => {
                // In-flight delivery raced a kill; the packet is lost, as
                // it would be in hardware.
            }
            Accept::Queued | Accept::Consumed | Accept::Foreign => {}
        }
    }

    /// Re-injects a mis-delivered packet towards another instance of its
    /// task, or drops it when the bounce budget is spent / nobody else
    /// runs the task.
    fn bounce(&mut self, idx: usize, pkt: Packet) {
        if pkt.bounces >= MAX_BOUNCES {
            self.stats.bounce_drops += 1;
            return;
        }
        let node = NodeId::new(idx as u16);
        let mut dest = None;
        for _ in 0..crate::directory::SLOTS {
            match self.dirs[idx].pick(pkt.task) {
                Some(d) if d != node => {
                    dest = Some(d);
                    break;
                }
                Some(_) => continue,
                None => break,
            }
        }
        match dest {
            Some(d) => {
                self.mesh.reinject(node, pkt, d);
                self.stats.bounces += 1;
            }
            None => self.stats.bounce_drops += 1,
        }
    }

    /// Emits the output packets of a completed `task` work item at `idx`.
    fn emit_outputs(&mut self, idx: usize, task: TaskId) {
        let node = NodeId::new(idx as u16);
        let mut edges = std::mem::take(&mut self.edge_scratch);
        edges.clear();
        edges.extend(
            self.graph
                .outputs(task)
                .map(|e| (e.to, e.count, e.payload_flits, e.kind)),
        );
        for &(to, count, payload, kind) in &edges {
            let pkt_kind = match kind {
                sirtm_taskgraph::EdgeKind::Data => PacketKind::Data,
                sirtm_taskgraph::EdgeKind::Feedback => PacketKind::Ack,
            };
            for _ in 0..count {
                // Data flows to the nearest instance (locality builds the
                // spatial work gradients the models forage on); feedback
                // acks round-robin over the known instances so the
                // colony's success signal reaches the whole source
                // population, not just the closest member.
                let resolved = match pkt_kind {
                    PacketKind::Ack => self.dirs[idx].pick(to),
                    _ => self.dirs[idx].pick_nearest(to),
                };
                match resolved {
                    Some(dest) => {
                        self.mesh.inject(node, dest, to, pkt_kind, payload);
                        self.stats.sends += 1;
                    }
                    None => {
                        // No known instance anywhere: address the packet
                        // to ourselves so the unserved work remains
                        // visible to the local AIM as foraging stimulus.
                        self.mesh.inject(node, node, to, pkt_kind, payload);
                        self.stats.send_failures += 1;
                    }
                }
            }
        }
        self.edge_scratch = edges;
    }

    /// One AIM scan of node `idx`, eliding the sense/decide assembly on a
    /// passive platform: a baseline scan reads nothing and decides nothing,
    /// so the only platform state the full path would touch is the
    /// reset-on-read feed counters (and any pending register writes) —
    /// which this shortcut touches identically.
    fn scan_fast(&mut self, idx: usize, now: Cycle) {
        if !self.passive {
            self.scan(idx, now);
            return;
        }
        self.drain_aim_writes(idx);
        if !self.pes[idx].is_alive() {
            return;
        }
        let _ = self.pes[idx].take_feed_counts();
    }

    /// Drains remote AIM register writes that arrived through RCAP into
    /// the node's model, without disturbing the mesh's settled state when
    /// there is nothing to drain.
    fn drain_aim_writes(&mut self, idx: usize) {
        let node = NodeId::new(idx as u16);
        if self.mesh.router(node).aim_write_backlog() == 0 {
            return;
        }
        while let Some((reg, value)) = self.mesh.aim_router_mut(node).pop_aim_write() {
            self.aim_writes_drained += 1;
            self.models[idx].configure(reg, value);
        }
    }

    /// One AIM scan of node `idx`.
    fn scan(&mut self, idx: usize, now: Cycle) {
        let node = NodeId::new(idx as u16);
        self.drain_aim_writes(idx);
        if !self.pes[idx].is_alive() {
            return;
        }
        let mut nb = [None; 4];
        for (d, slot) in nb.iter_mut().enumerate() {
            if let Some(m) = self.neighbours[idx][d] {
                if self.pes[m].is_alive() {
                    *slot = self.pes[m].task();
                }
            }
        }
        // Work-proportional feed: data packets earn commitment scans
        // proportional to their task's service time; acks rearm fully.
        let feed = {
            let (data, acks) = self.pes[idx].take_feed_counts();
            let gain = self.pes[idx].task().map_or(1, |t| {
                let service_scans = (self.graph.spec(t).service_cycles / AIM_PERIOD).max(1);
                service_scans * FEED_GAIN_MULTIPLIER
            });
            data.saturating_mul(gain)
                .saturating_add(acks.saturating_mul(255))
        };
        let mut io = NodeAimIo {
            // The scan only resets monitors and reads state — it creates
            // no router work, so it must not disturb the settled proof.
            router: self.mesh.aim_router_mut(node),
            pe: &self.pes[idx],
            neighbours: nb,
            now,
            period: AIM_PERIOD as u64,
            n_tasks: self.n_tasks,
            recent_window: RECENT_DEMAND_WINDOW,
            feed,
            switch_to: None,
        };
        self.models[idx].scan(&mut io);
        let request = io.switch_to;
        if let Some(task) = request {
            self.apply_switch(idx, task, now);
        }
    }

    fn apply_switch(&mut self, idx: usize, task: TaskId, now: Cycle) {
        if !self.pes[idx].is_alive() || self.pes[idx].task() == Some(task) {
            return;
        }
        self.stats.task_switches += 1;
        // Switching abandons a work item; the PE pass of `now` has run.
        self.settle_busy(idx, now + 1);
        let mut evicted = std::mem::take(&mut self.evict_scratch);
        evicted.clear();
        self.pes[idx].switch_task_into(task, &self.graph, now, true, &mut evicted);
        let node = NodeId::new(idx as u16);
        // Settings-only update: no router work is created.
        self.mesh.aim_router_mut(node).settings_mut().local_task = Some(task);
        for pkt in evicted.drain(..) {
            self.bounce(idx, pkt);
        }
        self.evict_scratch = evicted;
        // Event-table upkeep: the advertised task changed (gossip must
        // re-converge) and the PE may now be runnable.
        self.locals[idx] = Some(task);
        self.gossip_converged = false;
        self.pe_next[idx] = now;
        self.owed_since[idx] = None;
    }
}

/// Per-node AIM view, assembled fresh for each scan.
#[derive(Debug)]
struct NodeAimIo<'a> {
    router: &'a mut Router,
    pe: &'a ProcessingElement,
    neighbours: [Option<TaskId>; 4],
    now: Cycle,
    period: Cycle,
    n_tasks: usize,
    recent_window: Cycle,
    feed: u32,
    switch_to: Option<TaskId>,
}

impl AimIo for NodeAimIo<'_> {
    fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    fn now(&self) -> Cycle {
        self.now
    }

    fn scan_period(&self) -> Cycle {
        self.period
    }

    fn read_routed(&mut self, buf: &mut [u32]) {
        self.router.monitors_mut().take_routed_into(buf);
    }

    fn read_internal(&mut self, buf: &mut [u32]) {
        self.router.monitors_mut().take_internal_into(buf);
    }

    fn oldest_waiting(&self) -> Option<(TaskId, Cycle)> {
        let router_wait = self.router.oldest_waiting_app_packet(self.now);
        let foreign_wait = self.pe.oldest_foreign(self.now);
        match (router_wait, foreign_wait) {
            (Some(a), Some(b)) => Some(if a.1 >= b.1 { a } else { b }),
            (a, b) => a.or(b),
        }
    }

    fn recent_demand(&self) -> Option<(TaskId, Cycle)> {
        let (task, when) = self.router.monitors().recent_routed?;
        let age = self.now.saturating_sub(when);
        (age <= self.recent_window).then_some((task, age))
    }

    fn local_task(&self) -> Option<TaskId> {
        self.pe.task()
    }

    fn neighbour_task(&self, dir: usize) -> Option<TaskId> {
        self.neighbours[dir]
    }

    fn pe_busy(&self) -> bool {
        self.pe.is_busy()
    }

    fn feed_amount(&mut self) -> u32 {
        std::mem::take(&mut self.feed)
    }

    fn switch_task(&mut self, task: TaskId) {
        self.switch_to = Some(task);
    }
}

/// Residue class (mod `period`) at which node `idx`'s phase-staggered AIM
/// scan fires: `(now + idx·7) ≡ 0 (mod period)` ⟺ `now ≡ this (mod
/// period)`.
fn scan_residue(idx: usize, period: u64) -> u64 {
    (period - (idx as u64 * 7) % period) % period
}

/// Smallest multiple of `step` at or after `at`.
fn next_multiple(at: Cycle, step: u64) -> Cycle {
    at.next_multiple_of(step)
}

/// Builds the per-node neighbour index table (N, E, S, W).
fn build_neighbours(dims: sirtm_taskgraph::GridDims) -> Vec<[Option<usize>; 4]> {
    use sirtm_noc::Direction;
    (0..dims.len())
        .map(|i| {
            let (x, y) = dims.xy(i);
            let coord = sirtm_noc::Coord::new(x, y);
            let mut nb = [None; 4];
            for d in Direction::ALL {
                nb[d.index()] = coord.neighbour(d, dims).map(|c| c.node(dims).index());
            }
            nb
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_core::models::{FfwConfig, NiConfig};
    use sirtm_rng::Xoshiro256StarStar;
    use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
    use sirtm_taskgraph::{GridDims, Mapping};

    fn small_cfg() -> PlatformConfig {
        PlatformConfig {
            dims: GridDims::new(4, 4),
            ..PlatformConfig::default()
        }
    }

    fn graph() -> TaskGraph {
        fork_join(&ForkJoinParams::default())
    }

    fn heuristic_platform(model: ModelKind) -> Platform {
        let cfg = small_cfg();
        let g = graph();
        let mapping = Mapping::heuristic(&g, cfg.dims);
        Platform::new(g, &mapping, &model, cfg)
    }

    #[test]
    fn baseline_platform_processes_the_pipeline() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        p.run_ms(100.0);
        // Sources fire every 4 ms; 16 nodes at ratio 1:3:1 hold ~3 sources.
        let t1 = p.completions(TaskId::new(0));
        assert!(t1 >= 60, "t1 completions {t1}");
        let t2 = p.completions(TaskId::new(1));
        assert!(t2 > 100, "t2 completions {t2}");
        let t3 = p.completions(TaskId::new(2));
        assert!(t3 > 30, "t3 joins {t3}");
        assert_eq!(p.switches_total(), 0, "baseline never switches");
    }

    #[test]
    fn baseline_counts_stay_static() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        let before = p.task_counts();
        p.run_ms(60.0);
        assert_eq!(p.task_counts(), before);
    }

    #[test]
    fn ffw_platform_from_random_mapping_reaches_sink() {
        let cfg = small_cfg();
        let g = graph();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mapping = Mapping::random_uniform(&g, cfg.dims, &mut rng);
        let model = ModelKind::ForagingForWork(FfwConfig::default());
        let mut p = Platform::new(g, &mapping, &model, cfg);
        p.run_ms(200.0);
        assert!(
            p.completions(TaskId::new(2)) > 10,
            "sink completions {} (stats {:?})",
            p.completions(TaskId::new(2)),
            p.stats()
        );
    }

    #[test]
    fn ni_platform_switches_tasks() {
        let cfg = small_cfg();
        let g = graph();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mapping = Mapping::random_uniform(&g, cfg.dims, &mut rng);
        let model = ModelKind::NetworkInteraction(NiConfig::default());
        let mut p = Platform::new(g, &mapping, &model, cfg);
        p.run_ms(200.0);
        assert!(p.switches_total() > 0, "NI must adapt the mapping");
        assert!(p.completions(TaskId::new(2)) > 0);
    }

    #[test]
    fn kill_pe_keeps_router_routing() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        p.run_ms(20.0);
        let victim = NodeId::new(5);
        p.kill_pe(victim);
        assert!(!p.pe(victim).is_alive());
        assert!(
            p.router(victim).settings().alive,
            "router survives PE death"
        );
        let before = p.completions_total();
        p.run_ms(40.0);
        assert!(p.completions_total() > before, "system keeps working");
        assert_eq!(p.alive_count(), 15);
    }

    #[test]
    fn nodes_active_tracks_recent_work() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        p.run_ms(50.0);
        let since = p.now() - p.config().ms_to_cycles(10.0);
        let active = p.nodes_active_since(since);
        assert!(active > 4, "active nodes {active}");
        assert!(active <= 16);
    }

    #[test]
    fn snapshot_reflects_state() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        p.run_ms(30.0);
        let snap = p.node_snapshot(NodeId::new(0));
        assert!(snap.alive);
        assert!(snap.task.is_some());
        assert_eq!(snap.frequency_mhz, 100);
    }

    #[test]
    fn dvfs_clamps_to_range() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        p.set_frequency(NodeId::new(0), 5);
        assert_eq!(p.pe(NodeId::new(0)).frequency_mhz(), 10);
        p.set_frequency(NodeId::new(0), 900);
        assert_eq!(p.pe(NodeId::new(0)).frequency_mhz(), 300);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let cfg = small_cfg();
            let g = graph();
            let mut rng = Xoshiro256StarStar::seed_from_u64(11);
            let mapping = Mapping::random_uniform(&g, cfg.dims, &mut rng);
            let model = ModelKind::ForagingForWork(FfwConfig::default());
            let mut p = Platform::new(g, &mapping, &model, cfg);
            p.run_ms(120.0);
            (
                p.completions_total(),
                p.switches_total(),
                p.task_counts(),
                p.mesh_stats(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn generation_period_shift_changes_the_source_rate() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        p.run_ms(40.0);
        let rate = |p: &mut Platform, ms: f64| {
            let before = p.completions(TaskId::new(0));
            p.run_ms(ms);
            (p.completions(TaskId::new(0)) - before) as f64 / ms
        };
        let before = rate(&mut p, 40.0);
        // Halve the period: the sources fire twice as often.
        p.set_generation_period(TaskId::new(0), 200);
        p.run_ms(8.0); // absorb the pending old-phase generation
        let after = rate(&mut p, 40.0);
        assert!(
            after > before * 1.6,
            "doubled source rate: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    #[should_panic(expected = "not a source")]
    fn generation_period_rejects_workers() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        p.set_generation_period(TaskId::new(1), 100);
    }

    #[test]
    fn set_frequency_all_clamps_every_node() {
        let mut p = heuristic_platform(ModelKind::NoIntelligence);
        p.set_frequency_all(900);
        for i in 0..16 {
            assert_eq!(p.pe(NodeId::new(i)).frequency_mhz(), 300);
        }
    }

    #[test]
    fn rcap_aim_write_reconfigures_model_in_flight() {
        let mut p = heuristic_platform(ModelKind::NetworkInteraction(NiConfig {
            threshold: 200,
            ..NiConfig::default()
        }));
        // Remotely retune node 9 via config packets: drop its switch
        // threshold AND clear its task-fixation gate so it follows the
        // traffic stimulus immediately.
        for (reg, value) in [
            (sirtm_core::models::regs::NI_THRESHOLD, 2),
            (sirtm_core::models::regs::NI_FIXATION, 0),
        ] {
            p.send_config(
                NodeId::new(0),
                NodeId::new(9),
                sirtm_noc::RcapCommand::AimWrite { reg, value },
            );
        }
        p.run_ms(100.0);
        // With threshold 2 and no fixation, node 9 must have fired while
        // the rest (threshold 200, fixated) did not.
        assert!(p.switches_total() >= 1, "reconfigured node adapts");
    }
}
