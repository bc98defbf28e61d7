//! The mesh fabric: routers wired into a 2-D grid, stepped cycle by cycle.
//!
//! A cycle has three parts: every router *plans* its crossbar traversals
//! against the state the cycle started with (credit-based flow control
//! over downstream buffer occupancy), *applies* them, and *ages* its
//! blocked heads (deadlock recovery). Each input buffer has a single
//! upstream writer and each output port moves at most one flit per
//! cycle, so the result is independent of router iteration order — a
//! requirement for reproducibility. [`Mesh::step_naive`] runs the three
//! parts as separate loops over every router; [`Mesh::step`] runs them
//! router by router in one walk, and keeps the start-of-cycle view each
//! plan needs (see its docs).
//!
//! Only routers on the *worklist* are stepped: a router joins it when a
//! packet is injected there or when a flit arrives over a link, and
//! leaves it once it holds no work. The worklist is a bitset over node
//! indices, so it is visited in ascending node order without sorting.
//! The exhaustive loop is the oracle the walk is tested against.
//!
//! Flits are 4-byte handles into the mesh's packet slab, which holds each
//! packet's header once. Link credit reads two dense per-mesh masks —
//! which link inputs accept flits and which have a free slot — that the
//! mesh updates on every push, pop, port change and kill, so planning a
//! router never touches its neighbours' state.

use sirtm_taskgraph::{GridDims, TaskId};

use crate::packet::{Packet, PacketId, PacketKind, PacketSlab, RcapCommand};
use crate::router::{
    set_bits, InPort, OutPort, Router, RouterConfig, RouterIo, RouterMonitors, RouterPlan,
};
use crate::types::{Coord, Cycle, Direction, NodeId, Port};

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
    /// Each router's per-cycle state, dense in node order.
    routers: Vec<Router>,
    /// Each router's cold state: monitors and queues.
    io: Vec<RouterIo>,
    /// Headers of every packet in the fabric, by slot.
    slab: PacketSlab,
    /// Per router, the link inputs (bit [`Direction::index`]) that accept
    /// flits: the tile is alive and the port enabled.
    accept: Vec<u8>,
    /// Per router, the link inputs with a free buffer slot.
    room: Vec<u8>,
    /// Link credit as it stood at the start of the step being taken:
    /// per router, `accept & room` before any router applied its plan.
    credit: Vec<u8>,
    /// Per-router marks of [`Mesh::step`]'s walk over the worklist.
    walk: Vec<WalkMark>,
    cycle: Cycle,
    next_packet_id: u64,
    stats: MeshStats,
    /// Per-router plans of [`Mesh::step_naive`], which plans every router
    /// before it applies any.
    plans: Vec<RouterPlan>,
    /// Neighbour node index of each router in N, E, S, W order (`None`
    /// at the grid edge), so link credit and transfers skip coordinate
    /// arithmetic.
    neighbours: Vec<[Option<u16>; 4]>,
    /// Routers that may hold work, as a bitset over node indices (bit
    /// `i % 64` of word `i / 64`): every router with buffered flits or
    /// queued injections is in it, and [`Mesh::step`] steps only these.
    worklist: Vec<u64>,
    /// Routers that received a link flit during the current step, in the
    /// same layout; merged into `worklist` after the walk, so a router
    /// that had no work when the step began takes no turn in it.
    arrivals: Vec<u64>,
    /// Nodes that completed a packet delivery during the most recent
    /// [`Mesh::step`], ascending and deduplicated — the platform's
    /// activity-gated delivery pass iterates exactly this set instead of
    /// scanning every router.
    fresh_delivered: Vec<u16>,
    /// `true` once a step found every router quiescent and no
    /// packet has been injected since. While set, [`Mesh::step`] is O(1)
    /// and the fabric is provably inert, which is what licenses the
    /// platform's fast-forward jumps.
    settled: bool,
    /// `AimWrite` commands that reached a router (via RCAP consumption
    /// or the direct debug path) and have not been popped yet, over all
    /// routers: the platform's scans drain them while any is pending.
    aim_writes_pending: u64,
}

/// What [`Mesh::step`]'s walk has done to one router in the step taken
/// at `cycle`; marks from an earlier step read as empty.
#[derive(Debug, Clone, Copy, Default)]
struct WalkMark {
    cycle: Cycle,
    /// Inputs that were empty at the start of the step and have since
    /// received a flit: the router's plan must not see them.
    fresh: u8,
    /// The inputs occupied at the start of the step, once the router has
    /// planned, applied and aged.
    start: Option<u8>,
}

/// Two meshes are equal when they hold the same fabric state: routers,
/// their monitors and queues, packets, link-credit masks, clock,
/// statistics, fresh deliveries and the settled flag. The worklist is
/// left out — it is a superset of the routers with work, and the two
/// steppers keep different supersets — and so is per-step scratch
/// (plans, credit snapshot, walk marks).
impl PartialEq for Mesh {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims
            && self.routers == other.routers
            && self.io == other.io
            && self.slab == other.slab
            && self.accept == other.accept
            && self.room == other.room
            && self.cycle == other.cycle
            && self.next_packet_id == other.next_packet_id
            && self.stats == other.stats
            && self.fresh_delivered == other.fresh_delivered
            && self.settled == other.settled
            && self.aim_writes_pending == other.aim_writes_pending
    }
}

impl Eq for Mesh {}

impl Mesh {
    /// Builds a mesh of `dims` routers, all using `config`.
    pub fn new(dims: GridDims, config: RouterConfig) -> Self {
        let routers: Vec<Router> = (0..dims.len())
            .map(|i| {
                let (x, y) = dims.xy(i);
                Router::new(
                    NodeId::new(i as u16),
                    Coord::new(x, y),
                    dims.width(),
                    &config,
                )
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
            io: (0..dims.len()).map(|_| RouterIo::new(&config)).collect(),
            // One packet per router before the slab first grows: an 8x16
            // colony run peaks at a few dozen.
            slab: PacketSlab::with_capacity(dims.len()),
            accept: routers.iter().map(Router::accepting).collect(),
            room: routers.iter().map(Router::room).collect(),
            credit: vec![0; dims.len()],
            walk: vec![WalkMark::default(); dims.len()],
            plans: vec![RouterPlan::default(); dims.len()],
            neighbours,
            worklist: vec![0; dims.len().div_ceil(64)],
            arrivals: vec![0; dims.len().div_ceil(64)],
            fresh_delivered: Vec::with_capacity(dims.len()),
            settled: false,
            aim_writes_pending: 0,
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

    /// Iterates over all routers in node order.
    pub fn routers(&self) -> impl Iterator<Item = &Router> {
        self.routers.iter()
    }

    /// A router's monitors.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn monitors(&self, node: NodeId) -> &RouterMonitors {
        &self.io[node.index()].monitors
    }

    /// Mutable access to a router's monitors (reset-on-read by the AIM).
    /// Creates no router work, so an idle fabric stays settled.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn monitors_mut(&mut self, node: NodeId) -> &mut RouterMonitors {
        &mut self.io[node.index()].monitors
    }

    /// The oldest *application* packet at a head-of-line position in
    /// `node`'s router (FFW's "next packet in the routing queue"): its
    /// task and age at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn oldest_waiting_app_packet(&self, node: NodeId, now: Cycle) -> Option<(TaskId, Cycle)> {
        self.routers[node.index()].oldest_waiting_app_packet(&self.slab, now)
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
        self.enqueue(Packet {
            id: PacketId::new(0),
            src,
            dest,
            task,
            kind,
            payload_flits,
            created_cycle: self.cycle,
            bounces: 0,
        })
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
        self.enqueue(Packet {
            src,
            dest,
            bounces: pkt.bounces.saturating_add(1),
            ..pkt
        })
    }

    /// Gives `pkt` a fresh id, stores it in the slab and queues it at its
    /// source.
    fn enqueue(&mut self, mut pkt: Packet) -> PacketId {
        assert!(pkt.src.index() < self.dims.len(), "src off-grid");
        assert!(pkt.dest.index() < self.dims.len(), "dest off-grid");
        pkt.id = PacketId::new(self.next_packet_id);
        self.next_packet_id += 1;
        let src = pkt.src.index();
        let slot = self.slab.alloc(pkt);
        self.routers[src].enqueue_inject(&mut self.io[src], slot, pkt.wire_flits() as u16);
        self.stats.injected += 1;
        self.settled = false;
        self.enlist(src);
        pkt.id
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
        self.configure(node.index(), cmd);
    }

    /// Applies an RCAP command at router `idx`. AIM writes are queued for
    /// the platform instead of being interpreted here.
    fn configure(&mut self, idx: usize, cmd: RcapCommand) {
        match cmd {
            RcapCommand::SetPortEnabled(port, on) => {
                self.set_port_enabled(NodeId::new(idx as u16), port, on)
            }
            RcapCommand::AimWrite { reg, value } => {
                self.aim_writes_pending += 1;
                self.io[idx].aim_writes.push_back((reg, value));
            }
        }
    }

    /// Enables or disables one of `node`'s ports (link fault model, power
    /// gating, a dead PE's closed internal port). Creates no router work.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn set_port_enabled(&mut self, node: NodeId, port: Port, on: bool) {
        let router = &mut self.routers[node.index()];
        router.set_port_enabled(port, on);
        self.accept[node.index()] = router.accepting();
    }

    /// Sets the task `node`'s processing element performs, which the
    /// router uses for task-affine opportunistic delivery. Creates no
    /// router work, so an idle fabric stays settled.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn set_local_task(&mut self, node: NodeId, task: Option<TaskId>) {
        self.routers[node.index()].set_local_task(task);
    }

    /// Kills `node`'s tile: the router goes dead with every port
    /// disabled, and discards its buffered and queued traffic, freeing
    /// the packets it held entirely.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn kill(&mut self, node: NodeId) {
        let idx = node.index();
        self.routers[idx].kill(&mut self.io[idx], &mut self.slab);
        self.accept[idx] = self.routers[idx].accepting();
        self.room[idx] = self.routers[idx].room();
    }

    /// Drains packets delivered to `node`.
    ///
    /// Allocates; the platform hot loop uses [`Mesh::pop_delivered`].
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Packet> {
        self.io[node.index()].delivered.drain(..).collect()
    }

    /// Pops the oldest packet delivered to `node` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn pop_delivered(&mut self, node: NodeId) -> Option<Packet> {
        self.io[node.index()].delivered.pop_front()
    }

    /// Pops the oldest AIM register write `node` received through RCAP.
    /// Creates no router work, so an idle fabric stays settled.
    ///
    /// # Panics
    ///
    /// Panics if `node` is off-grid.
    pub fn pop_aim_write(&mut self, node: NodeId) -> Option<(u8, u8)> {
        let write = self.io[node.index()].aim_writes.pop_front();
        self.aim_writes_pending -= u64::from(write.is_some());
        write
    }

    /// Nodes that received a completed packet delivery during the most
    /// recent [`Mesh::step`], ascending and deduplicated. Queues drained
    /// every cycle (as the platform does) therefore hold packets only for
    /// nodes in this list.
    pub fn fresh_delivered(&self) -> &[u16] {
        &self.fresh_delivered
    }

    /// `AimWrite` commands that have reached a router and not yet been
    /// popped, over all routers.
    pub fn aim_writes_pending(&self) -> u64 {
        self.aim_writes_pending
    }

    /// Packet-slab slots currently holding a packet, ascending.
    pub fn live_slots(&self) -> Vec<u32> {
        self.slab.live_slots().collect()
    }

    /// Packet-slab slots some router still references — through a
    /// buffered flit, its injection queue, the packet its internal port
    /// is receiving or a packet an input is discarding — ascending and
    /// deduplicated. Equals [`Mesh::live_slots`] whenever no slot is
    /// freed while referenced and none leaks.
    pub fn referenced_slots(&self) -> Vec<u32> {
        let mut slots: Vec<u32> = self
            .routers
            .iter()
            .zip(&self.io)
            .flat_map(|(r, io)| r.referenced_slots(&io.backlog))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        slots
    }

    /// `true` when the fabric is provably inert: the last step found
    /// every router quiescent (no buffered flit, no queued
    /// injection, not even deadlock-recovery drainage in progress) and
    /// nothing has been injected since. Deliberately *not* derived from
    /// [`MeshStats::in_flight`]: a killed tile discards packets without
    /// delivering or dropping them, which would pin that counter above
    /// zero — and fast-forwarding — forever.
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

    /// Advances the fabric by one cycle, stepping only the worklist.
    ///
    /// Decision-for-decision identical to [`Mesh::step_naive`], in one
    /// ascending walk that plans, applies and ages each router in turn.
    /// Routers off the worklist are dead or hold no flits, and a router's
    /// blocked counters are non-zero only on inputs holding a head, so
    /// planning, applying or ageing them would change nothing. Each
    /// router plans against the state the cycle started with: link
    /// credit comes from a snapshot taken before the walk, and a flit an
    /// earlier router pushed into one of its empty inputs stays hidden
    /// (a push into a non-empty input lands behind the head and changes
    /// no plan). A push made after the receiver's turn, or into a router
    /// that takes none, can only change the receiver's blocked pass by
    /// making a new head in an input that was empty at the start of the
    /// cycle; the push ages that head for its arrival cycle, exactly as
    /// the exhaustive loop's separate pass does.
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
        self.snapshot_credit();
        // Ascending, so `fresh_delivered` stays sorted and a push knows
        // whether its receiver has had its turn.
        let mut any_work = false;
        for w in 0..self.worklist.len() {
            let mut word = self.worklist[w];
            for bit in set_bits(word) {
                let idx = w * 64 + bit;
                let start = self.start_occupancy(idx, now);
                if start == 0 {
                    word &= !(1 << bit);
                    continue;
                }
                let mut plan = RouterPlan::default();
                self.plan(idx, now, start, &mut plan);
                self.apply(idx, &plan, now, true);
                self.walk[idx] = WalkMark {
                    cycle: now,
                    fresh: 0,
                    start: Some(start),
                };
            }
            self.worklist[w] = word;
            any_work |= word != 0;
        }
        self.settled = !any_work;
        for (word, arrived) in self.worklist.iter_mut().zip(&mut self.arrivals) {
            *word |= std::mem::take(arrived);
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
        self.snapshot_credit();
        let mut any_work = false;
        for idx in 0..self.routers.len() {
            any_work |= self.routers[idx].has_work();
            let mut plan = RouterPlan::default();
            self.plan(idx, now, self.routers[idx].occupied(), &mut plan);
            self.plans[idx] = plan;
        }
        self.settled = !any_work;
        for idx in 0..self.routers.len() {
            let plan = self.plans[idx];
            self.apply(idx, &plan, now, false);
        }
        for idx in 0..self.routers.len() {
            self.age(idx);
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

    /// Records every router's link credit for the step about to run.
    fn snapshot_credit(&mut self) {
        for ((c, a), r) in self.credit.iter_mut().zip(&self.accept).zip(&self.room) {
            *c = a & r;
        }
    }

    /// The inputs router `idx` held a flit in when the step at `now`
    /// started, or none if it is dead.
    fn start_occupancy(&self, idx: usize, now: Cycle) -> u8 {
        let router = &self.routers[idx];
        if !router.settings().alive {
            return 0;
        }
        let mark = &self.walk[idx];
        let fresh = if mark.cycle == now { mark.fresh } else { 0 };
        router.occupied() & !fresh
    }

    /// Plans router `idx`'s crossbar traversals for this cycle over the
    /// `occupied` inputs. A link output has credit when the neighbour's
    /// facing input accepted flits and had a free slot at the start of the
    /// step.
    fn plan(&self, idx: usize, now: Cycle, occupied: u8, plan: &mut RouterPlan) {
        let (neighbours, credit) = (&self.neighbours[idx], &self.credit);
        let credit = |d: Direction| {
            neighbours[d.index()]
                .is_some_and(|n| credit[n as usize] & (1 << d.opposite().index()) != 0)
        };
        self.routers[idx].plan_into(now, occupied, &self.slab, credit, plan);
    }

    /// Applies router `idx`'s plan: pops its inputs, delivers or consumes
    /// locally and pushes link flits straight into the neighbours' input
    /// buffers. That is safe mid-step because every buffer has one
    /// upstream writer whose credit was checked against start-of-cycle
    /// occupancy, and a push lands behind any head the neighbour plans to
    /// pop. Callers go in ascending router order, which keeps
    /// `fresh_delivered` sorted. With `walk`, as part of [`Mesh::step`]'s
    /// walk, the router then runs its blocked pass, and each push marks
    /// or ages the head it makes.
    fn apply(&mut self, idx: usize, plan: &RouterPlan, now: Cycle, walk: bool) {
        for input in plan.consumes() {
            let router = &mut self.routers[idx];
            let flit = router.pop_input(input, &mut self.io[idx], &self.slab);
            router.commit_consume(input, flit, &mut self.slab);
            self.popped(idx, input);
        }
        for m in plan.moves() {
            let router = &mut self.routers[idx];
            let flit = router.pop_input(m.input, &mut self.io[idx], &self.slab);
            router.commit_move(m, flit);
            self.popped(idx, m.input);
            self.stats.flit_hops += 1;
            match m.output {
                OutPort::Link(d) => {
                    if flit.is_head() {
                        let pkt = self.slab.get(flit.slot());
                        self.io[idx].monitors.record_routed(pkt, now);
                    }
                    let to = self.neighbours[idx][d.index()]
                        .expect("planned link move must have a neighbour")
                        as usize;
                    let facing = d.opposite();
                    let unseen = walk && self.new_head_unseen(to, facing, now);
                    let to_router = &mut self.routers[to];
                    to_router.accept_link_flit(facing, flit);
                    if unseen {
                        to_router.age_arrival(facing);
                    }
                    if to_router.input_free(facing) == 0 {
                        self.room[to] &= !(1 << facing.index());
                    }
                    self.arrivals[to / 64] |= 1 << (to % 64);
                }
                OutPort::Internal => {
                    let router = &mut self.routers[idx];
                    if let Some(pkt) = router.receive_internal(flit, &mut self.slab) {
                        self.io[idx].deliver(pkt);
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
                    if flit.is_head() {
                        if let PacketKind::Config(cmd) = self.slab.get(flit.slot()).kind {
                            self.configure(idx, cmd);
                        }
                        self.stats.config_consumed += 1;
                    }
                    self.slab.release(flit.slot(), 1);
                }
            }
        }
        if walk {
            self.age(idx);
        }
    }

    /// In [`Mesh::step`]'s walk, called before router `from` pushes a
    /// flit into router `to`'s input `facing`: marks a flit landing in an
    /// empty input as fresh, hidden from `to`'s plan, and returns whether
    /// it is a new head that `to`'s blocked pass will not see. That is
    /// so when `to` has had its turn and the input was empty when it
    /// planned, or when `to` takes no turn this step because it had no
    /// work at the start. A router still to plan later in the walk ages
    /// the head itself.
    fn new_head_unseen(&mut self, to: usize, facing: Direction, now: Cycle) -> bool {
        if self.routers[to].input_occupancy(facing) > 0 {
            return false;
        }
        let bit = 1 << facing.index();
        let unseen = match self.walk[to] {
            WalkMark {
                cycle,
                start: Some(start),
                ..
            } if cycle == now => start & bit == 0,
            _ => self.start_occupancy(to, now) == 0,
        };
        let mark = &mut self.walk[to];
        if mark.cycle != now {
            *mark = WalkMark {
                cycle: now,
                ..WalkMark::default()
            };
        }
        mark.fresh |= bit;
        unseen
    }

    /// Records that router `idx` popped a flit from `input`: a link input
    /// then has a free slot.
    fn popped(&mut self, idx: usize, input: InPort) {
        if let InPort::Link(d) = input {
            self.room[idx] |= 1 << d.index();
        }
    }

    /// Ages router `idx`'s blocked heads and runs deadlock recovery.
    fn age(&mut self, idx: usize) {
        let dropped = self.routers[idx].age_blocked(&mut self.io[idx], &mut self.slab);
        if dropped > 0 {
            self.stats.dropped += dropped;
            self.room[idx] = self.routers[idx].room();
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
