//! The mesh fabric: routers wired into a 2-D grid, stepped cycle by cycle.
//!
//! [`Mesh::step`] advances the whole network by one clock cycle in two
//! phases: every router first *plans* its crossbar traversals against a
//! start-of-cycle snapshot of downstream buffer occupancy (credit-based
//! flow control), then all moves are *applied*. Each input buffer has a
//! single upstream writer and each output port moves at most one flit per
//! cycle, so the phases cannot conflict and the result is independent of
//! router iteration order — a requirement for reproducibility.
//!
//! Only routers on the *worklist* are stepped: a router joins it when a
//! packet is injected there, when it is mutably borrowed, or when a flit
//! arrives over a link, and leaves it once it holds no work. The worklist
//! is a bitset over node indices, so it is visited in ascending node
//! order without sorting.
//! [`Mesh::step_naive`] keeps the exhaustive all-router loop as the
//! oracle the worklist is tested against.

use sirtm_taskgraph::{GridDims, TaskId};

use crate::packet::{Flit, Packet, PacketId, PacketKind, RcapCommand};
use crate::router::{set_bits, OutPort, Router, RouterConfig, RouterPlan};
use crate::types::{Coord, Cycle, Direction, NodeId};

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Packets accepted into injection queues.
    pub injected: u64,
    /// Application packets delivered through internal ports.
    pub delivered: u64,
    /// Packets discarded by deadlock recovery.
    pub dropped: u64,
    /// Config packets consumed by RCAP ports.
    pub config_consumed: u64,
    /// Sum of delivery latencies in cycles (delivered packets only).
    pub latency_sum: u64,
    /// Maximum observed delivery latency in cycles.
    pub latency_max: u64,
    /// Total flits moved through any crossbar.
    pub flit_hops: u64,
}

impl MeshStats {
    /// Mean delivery latency in cycles, if anything was delivered.
    pub fn mean_latency(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.latency_sum as f64 / self.delivered as f64)
    }

    /// Packets currently inside the fabric (injected but not yet
    /// delivered, consumed or dropped).
    pub fn in_flight(&self) -> u64 {
        self.injected - self.delivered - self.dropped - self.config_consumed
    }
}

/// A rectangular mesh of wormhole routers.
///
/// # Examples
///
/// ```
/// use sirtm_noc::{Mesh, NodeId, PacketKind, RouterConfig};
/// use sirtm_taskgraph::{GridDims, TaskId};
///
/// let mut mesh = Mesh::new(GridDims::new(4, 4), RouterConfig::default());
/// mesh.inject(NodeId::new(0), NodeId::new(15), TaskId::new(0), PacketKind::Data, 2);
/// for _ in 0..40 {
///     mesh.step();
/// }
/// let delivered = mesh.take_delivered(NodeId::new(15));
/// assert_eq!(delivered.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    dims: GridDims,
    routers: Vec<Router>,
    cycle: Cycle,
    next_packet_id: u64,
    stats: MeshStats,
    /// Reusable per-router plan buffers (avoids per-cycle allocation).
    plans: Vec<RouterPlan>,
    /// Neighbour node index of each router in N, E, S, W order (`None`
    /// at the grid edge), so link credit and transfers skip coordinate
    /// arithmetic.
    neighbours: Vec<[Option<u16>; 4]>,
    /// Routers that may hold work, as a bitset over node indices (bit
    /// `i % 64` of word `i / 64`): every router with buffered flits or
    /// queued injections is in it, and [`Mesh::step`] steps only these.
    worklist: Vec<u64>,
    /// Routers that received a link flit during the current apply phase,
    /// in the same layout; merged into `worklist` once every planned
    /// router has applied, so no router applies a plan it did not make.
    arrivals: Vec<u64>,
    /// Nodes that completed a packet delivery during the most recent
    /// [`Mesh::step`], ascending and deduplicated — the platform's
    /// activity-gated delivery pass iterates exactly this set instead of
    /// scanning every router.
    fresh_delivered: Vec<u16>,
    /// `true` once a step found every router quiescent and no
    /// packet has been injected (and no router mutably borrowed) since.
    /// While set, [`Mesh::step`] is O(1) and the fabric is provably
    /// inert, which is what licenses the platform's fast-forward jumps.
    settled: bool,
    /// Cumulative `AimWrite` commands that reached any router (via RCAP
    /// consumption or the direct debug path). The platform differences
    /// this against its own drain count to know whether register writes
    /// are still outstanding anywhere.
    aim_writes_enqueued: u64,
}

impl Mesh {
    /// Builds a mesh of `dims` routers, all using `config`.
    pub fn new(dims: GridDims, config: RouterConfig) -> Self {
        let routers = (0..dims.len())
            .map(|i| {
                let (x, y) = dims.xy(i);
                let mut r = Router::new(NodeId::new(i as u16), Coord::new(x, y), &config);
                r.set_grid_width(dims.width());
                r
            })
            .collect();
        let neighbours = (0..dims.len())
            .map(|i| {
                let (x, y) = dims.xy(i);
                Direction::ALL.map(|d| {
                    Coord::new(x, y)
                        .neighbour(d, dims)
                        .map(|c| c.node(dims).raw())
                })
            })
            .collect();
        Self {
            plans: vec![RouterPlan::default(); dims.len()],
            neighbours,
            worklist: vec![0; dims.len().div_ceil(64)],
            arrivals: vec![0; dims.len().div_ceil(64)],
            fresh_delivered: Vec::with_capacity(dims.len()),
            settled: false,
            aim_writes_enqueued: 0,
            dims,
            routers,
            cycle: 0,
            next_packet_id: 0,
            stats: MeshStats::default(),
        }
    }

    /// Grid dimensions.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Current cycle count.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Fabric statistics.
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// Immutable access to a router.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.index()]
    }

    /// Mutable access to a router (AIM / debug interface path).
    ///
    /// Conservatively clears the settled flag and puts the router on the
    /// worklist: arbitrary router mutation (e.g. a direct
    /// `enqueue_inject`) may create work.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn router_mut(&mut self, node: NodeId) -> &mut Router {
        self.settled = false;
        self.enlist(node.index());
        &mut self.routers[node.index()]
    }

    /// Mutable router access for the AIM scan path: monitor
    /// reset-on-read, register-write drains and settings updates. The
    /// caller must not create router *work* through this borrow (no
    /// `enqueue_inject`); in exchange, unlike [`Mesh::router_mut`], the
    /// settled proof stays intact — an idle fabric keeps its O(1) step
    /// while the platform's scans run every cycle.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn aim_router_mut(&mut self, node: NodeId) -> &mut Router {
        &mut self.routers[node.index()]
    }

    /// Iterates over all routers in node order.
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    /// Injects a packet at `src` bound for `dest`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dest` are off-grid.
    pub fn inject(
        &mut self,
        src: NodeId,
        dest: NodeId,
        task: TaskId,
        kind: PacketKind,
        payload_flits: u8,
    ) -> PacketId {
        assert!(src.index() < self.dims.len(), "src off-grid");
        assert!(dest.index() < self.dims.len(), "dest off-grid");
        let id = PacketId::new(self.next_packet_id);
        self.next_packet_id += 1;
        let pkt = Packet {
            id,
            src,
            dest,
            task,
            kind,
            payload_flits,
            created_cycle: self.cycle,
            bounces: 0,
        };
        self.routers[src.index()].enqueue_inject(pkt);
        self.stats.injected += 1;
        self.settled = false;
        self.enlist(src.index());
        id
    }

    /// Re-injects a previously delivered packet from `src` towards a new
    /// destination ("bouncing" a mis-delivered packet after its task
    /// instance moved). The packet keeps its creation cycle — so its age
    /// keeps accumulating towards opportunistic absorption — and its
    /// bounce count increments.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dest` are off-grid.
    pub fn reinject(&mut self, src: NodeId, pkt: Packet, dest: NodeId) -> PacketId {
        assert!(src.index() < self.dims.len(), "src off-grid");
        assert!(dest.index() < self.dims.len(), "dest off-grid");
        let id = PacketId::new(self.next_packet_id);
        self.next_packet_id += 1;
        let bounced = Packet {
            id,
            src,
            dest,
            bounces: pkt.bounces.saturating_add(1),
            ..pkt
        };
        self.routers[src.index()].enqueue_inject(bounced);
        self.stats.injected += 1;
        self.settled = false;
        self.enlist(src.index());
        id
    }

    /// Sends an RCAP configuration packet through the network.
    pub fn send_config(&mut self, src: NodeId, dest: NodeId, cmd: RcapCommand) -> PacketId {
        self.inject(src, dest, TaskId::new(0), PacketKind::Config(cmd), 0)
    }

    /// Applies a configuration command directly, bypassing the network —
    /// the platform's out-of-band debug interface.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn apply_config_direct(&mut self, node: NodeId, cmd: RcapCommand) {
        if matches!(cmd, RcapCommand::AimWrite { .. }) {
            self.aim_writes_enqueued += 1;
        }
        self.routers[node.index()].apply_config(cmd);
    }

    /// Drains packets delivered to `node`.
    ///
    /// Allocates; the platform hot loop uses [`Mesh::pop_delivered`].
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Packet> {
        self.routers[node.index()].take_delivered()
    }

    /// Pops the oldest packet delivered to `node` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn pop_delivered(&mut self, node: NodeId) -> Option<Packet> {
        self.routers[node.index()].pop_delivered()
    }

    /// Nodes that received a completed packet delivery during the most
    /// recent [`Mesh::step`], ascending and deduplicated. Queues drained
    /// every cycle (as the platform does) therefore hold packets only for
    /// nodes in this list.
    pub fn fresh_delivered(&self) -> &[u16] {
        &self.fresh_delivered
    }

    /// Cumulative `AimWrite` commands that have reached any router.
    pub fn aim_writes_enqueued(&self) -> u64 {
        self.aim_writes_enqueued
    }

    /// `true` when the fabric is provably inert: the last step found
    /// every router quiescent (no buffered flit, no queued
    /// injection, not even deadlock-recovery drainage in progress) and
    /// nothing has been injected or mutably touched since. Deliberately
    /// *not* derived from [`MeshStats::in_flight`]: a killed tile
    /// discards packets without delivering or dropping them, which would
    /// pin that counter above zero — and fast-forwarding — forever.
    pub fn is_settled_idle(&self) -> bool {
        self.settled
    }

    /// Advances the clock by `cycles` without stepping — the platform's
    /// fast-forward over provably idle stretches. Each skipped cycle is
    /// exactly equivalent to a [`Mesh::step`] call in the settled state.
    ///
    /// # Panics
    ///
    /// Panics unless [`Mesh::is_settled_idle`] holds.
    pub fn skip_idle_cycles(&mut self, cycles: Cycle) {
        assert!(self.is_settled_idle(), "fast-forward on an active fabric");
        self.cycle += cycles;
    }

    /// `true` when no flits or packets remain anywhere in the fabric.
    pub fn is_idle(&self) -> bool {
        self.stats.in_flight() == 0
    }

    /// Steps until the fabric is idle or `max_cycles` have elapsed;
    /// returns `true` if the fabric drained.
    pub fn quiesce(&mut self, max_cycles: Cycle) -> bool {
        for _ in 0..max_cycles {
            if self.is_idle() {
                return true;
            }
            self.step();
        }
        self.is_idle()
    }

    /// Puts router `idx` on the worklist (no-op if already there).
    fn enlist(&mut self, idx: usize) {
        self.worklist[idx / 64] |= 1 << (idx % 64);
    }

    /// Whether the link output of `router` in direction `dir` can accept a
    /// flit this cycle (neighbour exists, its input port enabled,
    /// neighbour alive, downstream buffer has a free slot). The router's
    /// own output enable is checked by its planner before asking.
    fn link_credit(&self, router: usize, dir: Direction) -> bool {
        let Some(n) = self.neighbours[router][dir.index()] else {
            return false;
        };
        let to = &self.routers[n as usize];
        let in_port = crate::types::Port::from(dir.opposite());
        to.settings().alive
            && to.settings().port_enabled[in_port.index()]
            && to.input_free(dir.opposite()) > 0
    }

    /// Advances the fabric by one cycle, stepping only the worklist.
    ///
    /// Decision-for-decision identical to [`Mesh::step_naive`]. Routers
    /// off the worklist are dead or hold no flits, and a router's blocked
    /// counters are non-zero only on inputs holding a head, so planning,
    /// applying or ageing them would change nothing. A router that
    /// receives a flit joins the worklist before the blocked pass, which
    /// ages the new head in its arrival cycle exactly as the exhaustive
    /// loop does.
    pub fn step(&mut self) {
        let now = self.cycle;
        self.fresh_delivered.clear();
        // O(1) fast path: the previous step found every router quiescent
        // and nothing has been injected since, so this cycle is a pure
        // clock tick.
        if self.settled {
            self.cycle += 1;
            return;
        }
        // Phase 1: drop routers without work, plan the rest against
        // start-of-cycle state.
        let mut any_work = false;
        for w in 0..self.worklist.len() {
            let mut word = self.worklist[w];
            for bit in set_bits(word) {
                let idx = w * 64 + bit;
                if self.routers[idx].has_work() {
                    self.plan(idx, now);
                } else {
                    word &= !(1 << bit);
                }
            }
            self.worklist[w] = word;
            any_work |= word != 0;
        }
        if !any_work {
            self.settled = true;
            self.cycle += 1;
            return;
        }
        // Phase 2: apply, in ascending order so `fresh_delivered` stays
        // sorted.
        for w in 0..self.worklist.len() {
            for bit in set_bits(self.worklist[w]) {
                self.apply(w * 64 + bit, now);
            }
        }
        for (word, arrived) in self.worklist.iter_mut().zip(&mut self.arrivals) {
            *word |= std::mem::take(arrived);
        }
        // Phase 3: head-of-line blocking accounting and deadlock recovery,
        // over the planned routers and every router that just received a
        // flit.
        for w in 0..self.worklist.len() {
            for bit in set_bits(self.worklist[w]) {
                let dropped = self.routers[w * 64 + bit].update_blocked_and_recover_marked();
                self.stats.dropped += dropped;
            }
        }
        self.cycle += 1;
    }

    /// Advances the fabric by one cycle with the exhaustive loop: every
    /// router planned, applied and aged, with no settled shortcut. The
    /// differential oracle for [`Mesh::step`]; it keeps `settled`,
    /// `fresh_delivered` and the worklist up to date, so the two steppers
    /// can be mixed on one mesh.
    pub fn step_naive(&mut self) {
        let now = self.cycle;
        self.fresh_delivered.clear();
        let mut any_work = false;
        for idx in 0..self.routers.len() {
            any_work |= self.routers[idx].has_work();
            self.plan(idx, now);
        }
        self.settled = !any_work;
        for idx in 0..self.routers.len() {
            self.apply(idx, now);
        }
        for router in &mut self.routers {
            self.stats.dropped += router.update_blocked_and_recover_marked();
        }
        self.arrivals.fill(0);
        self.worklist.fill(0);
        for idx in 0..self.routers.len() {
            if self.routers[idx].has_work() {
                self.enlist(idx);
            }
        }
        self.cycle += 1;
    }

    /// Plans router `idx`'s crossbar traversals for this cycle.
    fn plan(&mut self, idx: usize, now: Cycle) {
        let mut plan = std::mem::take(&mut self.plans[idx]);
        self.routers[idx].plan_into(now, |d| self.link_credit(idx, d), &mut plan);
        self.plans[idx] = plan;
    }

    /// Applies router `idx`'s plan: pops its inputs, delivers or consumes
    /// locally and pushes link flits straight into the neighbours' input
    /// buffers. That is safe mid-phase because every buffer has one
    /// upstream writer whose credit was checked against start-of-cycle
    /// occupancy, and a push lands behind the head the neighbour planned
    /// to pop. Callers go in ascending router order, which keeps
    /// `fresh_delivered` sorted.
    fn apply(&mut self, idx: usize, now: Cycle) {
        let plan = &self.plans[idx];
        if plan.is_empty() {
            return;
        }
        let router = &mut self.routers[idx];
        for input in plan.consumes() {
            let flit = router.pop_input(input);
            if flit.is_tail() {
                router.clear_dropping(input);
            }
            router.mark_moved(input);
        }
        for m in plan.moves() {
            let router = &mut self.routers[idx];
            let flit = router.pop_input(m.input);
            router.commit_move(m, &flit, now);
            router.mark_moved(m.input);
            self.stats.flit_hops += 1;
            match m.output {
                OutPort::Link(d) => {
                    let to = self.neighbours[idx][d.index()]
                        .expect("planned link move must have a neighbour")
                        as usize;
                    self.routers[to].accept_link_flit(d.opposite(), flit);
                    self.arrivals[to / 64] |= 1 << (to % 64);
                }
                OutPort::Internal => {
                    if let Some(pkt) = router.receive_internal(flit) {
                        let latency = now.saturating_sub(pkt.created_cycle) + 1;
                        self.stats.delivered += 1;
                        self.stats.latency_sum += latency;
                        self.stats.latency_max = self.stats.latency_max.max(latency);
                        if self.fresh_delivered.last() != Some(&(idx as u16)) {
                            self.fresh_delivered.push(idx as u16);
                        }
                    }
                }
                OutPort::Rcap => {
                    if let Flit::Head { pkt, .. } = flit {
                        if let PacketKind::Config(cmd) = pkt.kind {
                            if matches!(cmd, RcapCommand::AimWrite { .. }) {
                                self.aim_writes_enqueued += 1;
                            }
                            router.apply_config(cmd);
                        }
                        self.stats.config_consumed += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use sirtm_taskgraph::GridDims;

    fn mesh() -> Mesh {
        Mesh::new(GridDims::new(4, 4), crate::router::RouterConfig::default())
    }

    #[test]
    fn stats_accessors() {
        let mut m = mesh();
        assert_eq!(m.stats().mean_latency(), None);
        assert_eq!(m.stats().in_flight(), 0);
        m.inject(
            NodeId::new(0),
            NodeId::new(3),
            TaskId::new(0),
            PacketKind::Data,
            0,
        );
        assert_eq!(m.stats().in_flight(), 1);
        assert!(m.quiesce(100));
        let stats = m.stats();
        assert_eq!(stats.delivered, 1);
        assert!(stats.mean_latency().expect("delivered") >= 3.0);
    }

    #[test]
    fn reinject_preserves_age_and_counts_bounces() {
        let mut m = mesh();
        m.inject(
            NodeId::new(0),
            NodeId::new(1),
            TaskId::new(0),
            PacketKind::Data,
            0,
        );
        assert!(m.quiesce(100));
        let pkt = m.take_delivered(NodeId::new(1)).remove(0);
        let arrived = m.cycle();
        for _ in 0..50 {
            m.step();
        }
        let id2 = m.reinject(NodeId::new(1), pkt, NodeId::new(5));
        assert_ne!(pkt.id, id2, "re-injection allocates a fresh id");
        assert!(m.quiesce(200));
        let bounced = m.take_delivered(NodeId::new(5)).remove(0);
        assert_eq!(bounced.bounces, 1);
        assert_eq!(
            bounced.created_cycle, pkt.created_cycle,
            "age accumulates across bounces"
        );
        assert!(m.cycle() > arrived, "time moved on");
        assert_eq!(m.stats().injected, 2, "both injections counted");
    }

    #[test]
    fn cycle_advances_even_when_idle() {
        let mut m = mesh();
        for _ in 0..10 {
            m.step();
        }
        assert_eq!(m.cycle(), 10);
    }

    #[test]
    #[should_panic(expected = "off-grid")]
    fn inject_off_grid_panics() {
        let mut m = mesh();
        m.inject(
            NodeId::new(99),
            NodeId::new(0),
            TaskId::new(0),
            PacketKind::Data,
            0,
        );
    }
}
