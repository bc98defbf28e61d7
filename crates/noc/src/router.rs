//! The Centurion 5-channel wormhole router (Fig. 2a of the paper).
//!
//! Each router has four cardinal link ports, an internal port to its
//! processing element, and a Router Configuration Access Port (RCAP)
//! through which router and AIM settings can be changed remotely. Up to
//! five concurrent wormhole connections can be active; input and output
//! interfaces are independent, giving full-duplex channels.
//!
//! The router exposes *monitors* (routing events and internal
//! deliveries per task, the latest application packet routed) and *knobs*
//! (local task register, opportunistic delivery, port enables) — the
//! sensor/actuator surface the embedded intelligence uses. Routing is
//! dimension-ordered (XY), and the deadlock-recovery and redirect
//! timeouts are the fixed [`DEADLOCK_TIMEOUT`] and [`REDIRECT_AGE`].
//!
//! A [`Router`] holds only what the mesh reads or writes every cycle it
//! steps the router: input rings of 4-byte flit handles, the occupancy
//! mask, circuits, allocation, arbitration and blocked state, and the
//! knobs. Packet headers live in the mesh's packet slab, and the state a
//! router touches at most once per packet — monitors, the injection
//! backlog, delivered packets and AIM writes — sits apart in its
//! `RouterIo`, so the routers the mesh walks stay small and dense.

use std::collections::VecDeque;

use sirtm_taskgraph::TaskId;

use crate::buffer::FlitBuffer;
use crate::packet::{Flit, Packet, PacketKind, PacketSlab};
use crate::types::{Coord, Cycle, Direction, NodeId, Port};

/// Head-of-line blocking cycles after which the basic deadlock recovery
/// drops a blocked packet.
pub const DEADLOCK_TIMEOUT: Cycle = 200;

/// Where a blocked counter stops: recovery only asks whether a head has
/// been blocked for more than [`DEADLOCK_TIMEOUT`] cycles, so a byte
/// holds every count it can tell apart.
const BLOCKED_CAP: u8 = DEADLOCK_TIMEOUT as u8 + 1;
const _: () = assert!(DEADLOCK_TIMEOUT < u8::MAX as Cycle - 1);

/// Occupancy bit of the injection queue ([`InPort::Inject`]).
const INJECT_BIT: u8 = 1 << 4;

/// Minimum packet age before a router running the packet's task may
/// absorb it (task-affine opportunistic delivery).
pub const REDIRECT_AGE: Cycle = 150;

/// Input side of the crossbar: the four link buffers plus the local
/// injection queue (the internal port's input half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InPort {
    /// A cardinal link input buffer.
    Link(Direction),
    /// The processing element's injection queue.
    Inject,
}

impl InPort {
    /// All five inputs, link ports first.
    pub const ALL: [InPort; 5] = [
        InPort::Link(Direction::North),
        InPort::Link(Direction::East),
        InPort::Link(Direction::South),
        InPort::Link(Direction::West),
        InPort::Inject,
    ];

    /// Dense index in `0..5`.
    pub fn index(self) -> usize {
        match self {
            InPort::Link(d) => d.index(),
            InPort::Inject => 4,
        }
    }
}

/// Output side of the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutPort {
    /// A cardinal link towards the neighbouring router.
    Link(Direction),
    /// Delivery to the local processing element.
    Internal,
    /// Consumption by the configuration port.
    Rcap,
}

impl OutPort {
    /// All six outputs in N, E, S, W, Internal, RCAP order — the order
    /// the planner grants them in.
    pub const ALL: [OutPort; 6] = [
        OutPort::Link(Direction::North),
        OutPort::Link(Direction::East),
        OutPort::Link(Direction::South),
        OutPort::Link(Direction::West),
        OutPort::Internal,
        OutPort::Rcap,
    ];

    /// Dense index in `0..6`.
    pub fn index(self) -> usize {
        match self {
            OutPort::Link(d) => d.index(),
            OutPort::Internal => 4,
            OutPort::Rcap => 5,
        }
    }

    /// The corresponding six-port identifier.
    pub fn port(self) -> Port {
        match self {
            OutPort::Link(d) => Port::from(d),
            OutPort::Internal => Port::Internal,
            OutPort::Rcap => Port::Rcap,
        }
    }
}

/// Router knobs — every field is runtime-settable, locally by the AIM or
/// remotely through RCAP config packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterSettings {
    /// Task the local processing element currently performs. Used for
    /// task-affine opportunistic delivery and read by neighbouring AIMs.
    pub local_task: Option<TaskId>,
    /// Enables task-affine opportunistic delivery: a packet at least
    /// [`REDIRECT_AGE`] old may be absorbed by any node whose task matches.
    pub opportunistic_delivery: bool,
    /// Per-port enables (N, E, S, W, Internal, RCAP order).
    pub port_enabled: [bool; 6],
    /// Cleared when the whole tile is failed (router-dead fault model).
    pub alive: bool,
}

impl RouterSettings {
    fn new(config: &RouterConfig) -> Self {
        Self {
            local_task: None,
            opportunistic_delivery: config.opportunistic_delivery,
            port_enabled: [true; 6],
            alive: true,
        }
    }
}

/// Router monitors — the sensing surface offered to the AIM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterMonitors {
    routed_per_task: Vec<u32>,
    internal_per_task: Vec<u32>,
    /// Task and cycle of the most recent application head flit forwarded
    /// towards any link — a latched "demand passing by" register the FFW
    /// model forages from when no packet is actually queued.
    pub recent_routed: Option<(TaskId, Cycle)>,
}

impl RouterMonitors {
    fn new(n_tasks: usize) -> Self {
        Self {
            routed_per_task: vec![0; n_tasks],
            internal_per_task: vec![0; n_tasks],
            ..Self::default()
        }
    }

    /// Per-task counts of head flits routed since the last
    /// [`RouterMonitors::take_routed_into`] (non-destructive view).
    pub fn routed_per_task(&self) -> &[u32] {
        &self.routed_per_task
    }

    /// Per-task counts of internal deliveries since the last take
    /// (non-destructive view).
    pub fn internal_per_task(&self) -> &[u32] {
        &self.internal_per_task
    }

    /// Reads and clears the per-task routed counters into `buf` (the
    /// AIM's reset-on-read impulse counters feed from this).
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the task count.
    pub fn take_routed_into(&mut self, buf: &mut [u32]) {
        assert_eq!(
            buf.len(),
            self.routed_per_task.len(),
            "buffer size mismatch"
        );
        for (b, c) in buf.iter_mut().zip(self.routed_per_task.iter_mut()) {
            *b = std::mem::take(c);
        }
    }

    /// Counts a head flit forwarded towards a link.
    pub(crate) fn record_routed(&mut self, pkt: &Packet, now: Cycle) {
        if let Some(c) = self.routed_per_task.get_mut(pkt.task.index()) {
            *c += 1;
        }
        if pkt.kind.is_application() {
            self.recent_routed = Some((pkt.task, now));
        }
    }

    /// Reads and clears the per-task internal-delivery counters into
    /// `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the task count.
    pub fn take_internal_into(&mut self, buf: &mut [u32]) {
        assert_eq!(
            buf.len(),
            self.internal_per_task.len(),
            "buffer size mismatch"
        );
        for (b, c) in buf.iter_mut().zip(self.internal_per_task.iter_mut()) {
            *b = std::mem::take(c);
        }
    }
}

/// Static configuration of a router, fixed at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of application tasks (sizes the per-task monitor banks).
    pub n_tasks: usize,
    /// Whether opportunistic delivery starts enabled.
    pub opportunistic_delivery: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            n_tasks: 3,
            opportunistic_delivery: false,
        }
    }
}

/// A planned crossbar traversal for this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Move {
    pub input: InPort,
    pub output: OutPort,
}

/// Reusable per-router plan buffer: at most one move per output port and
/// one consume per input port, so fixed arrays avoid per-cycle heap work.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RouterPlan {
    moves: [Option<Move>; 6],
    n_moves: u8,
    consumes: [Option<InPort>; 5],
    n_consumes: u8,
}

impl RouterPlan {
    /// Resets the plan for reuse.
    fn clear(&mut self) {
        self.n_moves = 0;
        self.n_consumes = 0;
    }

    fn push_move(&mut self, m: Move) {
        self.moves[self.n_moves as usize] = Some(m);
        self.n_moves += 1;
    }

    fn push_consume(&mut self, i: InPort) {
        self.consumes[self.n_consumes as usize] = Some(i);
        self.n_consumes += 1;
    }

    pub(crate) fn moves(&self) -> impl Iterator<Item = Move> + '_ {
        self.moves[..self.n_moves as usize]
            .iter()
            .flatten()
            .copied()
    }

    pub(crate) fn consumes(&self) -> impl Iterator<Item = InPort> + '_ {
        self.consumes[..self.n_consumes as usize]
            .iter()
            .flatten()
            .copied()
    }
}

/// A router's cold state, touched at most once per packet: the monitors
/// the AIM reads, the injection queue behind its front packet (as slab
/// slots), packets delivered to the local node and AIM register writes
/// received through RCAP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RouterIo {
    pub(crate) monitors: RouterMonitors,
    pub(crate) backlog: VecDeque<u32>,
    pub(crate) delivered: VecDeque<Packet>,
    pub(crate) aim_writes: VecDeque<(u8, u8)>,
}

impl RouterIo {
    pub(crate) fn new(config: &RouterConfig) -> Self {
        Self {
            monitors: RouterMonitors::new(config.n_tasks),
            // Room for a short backlog up front: one that first forms late
            // in a run then does not allocate in the steady-state step.
            backlog: VecDeque::with_capacity(4),
            delivered: VecDeque::new(),
            aim_writes: VecDeque::new(),
        }
    }

    /// Hands a completed packet to the local node.
    pub(crate) fn deliver(&mut self, pkt: Packet) {
        if let Some(c) = self.monitors.internal_per_task.get_mut(pkt.task.index()) {
            *c += 1;
        }
        self.delivered.push_back(pkt);
    }
}

/// The wormhole router tile's per-cycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router {
    node: NodeId,
    coord: Coord,
    /// Width of the owning grid and `ceil(2^32 / width)`, to derive
    /// coordinates from row-major node ids without dividing
    /// ([`Router::xy_of`]).
    width: u16,
    width_recip: u64,
    settings: RouterSettings,
    inputs: [FlitBuffer; 4],
    /// Inputs holding a head-of-line flit (bit `i` for
    /// [`InPort::ALL`]`[i]`), kept in step with every push and pop.
    occupied: u8,
    /// The injection queue's front packet — its slab slot, the flits
    /// already sent and its wire length — valid while [`INJECT_BIT`] is
    /// set in `occupied`. The packets behind it wait in the
    /// [`RouterIo`] backlog.
    inject_slot: u32,
    inject_sent: u16,
    inject_wire: u16,
    /// Per-input wormhole circuit (input → allocated output).
    circuits: [Option<OutPort>; 5],
    /// Per-output allocation (output → granted input).
    out_alloc: [Option<InPort>; 6],
    /// Round-robin arbitration pointer per output.
    rr: [u8; 6],
    /// Head-of-line blocked cycle counts per input, capped at
    /// [`BLOCKED_CAP`].
    blocked: [u8; 5],
    /// Bitmask of inputs that moved a flit this cycle (cleared by the
    /// blocked pass).
    moved: u8,
    /// Slot of the packet each input is discarding (deadlock recovery).
    dropping: [Option<u32>; 5],
    /// Slot of the packet the internal port is receiving.
    rx: Option<u32>,
}

impl Router {
    /// Creates a router for `node` at `coord` on a grid `width` columns
    /// wide.
    pub(crate) fn new(node: NodeId, coord: Coord, width: u16, config: &RouterConfig) -> Self {
        Self {
            node,
            coord,
            width,
            width_recip: (1u64 << 32).div_ceil(u64::from(width)),
            settings: RouterSettings::new(config),
            inputs: std::array::from_fn(|_| FlitBuffer::new()),
            occupied: 0,
            inject_slot: 0,
            inject_sent: 0,
            inject_wire: 0,
            circuits: [None; 5],
            out_alloc: [None; 6],
            rr: [0; 6],
            blocked: [0; 5],
            moved: 0,
            dropping: [None; 5],
            rx: None,
        }
    }

    /// This router's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This router's grid coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Immutable view of the knobs. They change through the mesh, which
    /// keeps its link-credit arrays in step.
    pub fn settings(&self) -> &RouterSettings {
        &self.settings
    }

    pub(crate) fn set_local_task(&mut self, task: Option<TaskId>) {
        self.settings.local_task = task;
    }

    pub(crate) fn set_port_enabled(&mut self, port: Port, on: bool) {
        self.settings.port_enabled[port.index()] = on;
    }

    /// Occupancy of the input buffer for link direction `dir`.
    pub fn input_occupancy(&self, dir: Direction) -> usize {
        self.inputs[dir.index()].len()
    }

    /// Free flit slots in the input buffer for link direction `dir`.
    pub fn input_free(&self, dir: Direction) -> usize {
        self.inputs[dir.index()].free()
    }

    /// Inputs holding a flit (bit `i` for [`InPort::ALL`]`[i]`).
    pub(crate) fn occupied(&self) -> u8 {
        self.occupied
    }

    /// Link inputs (bit `d` for [`Direction::index`]) that accept flits
    /// from upstream: the tile is alive and the port enabled.
    pub(crate) fn accepting(&self) -> u8 {
        let mut mask = 0;
        for d in 0..4 {
            mask |= u8::from(self.settings.alive && self.settings.port_enabled[d]) << d;
        }
        mask
    }

    /// Link inputs with a free buffer slot.
    pub(crate) fn room(&self) -> u8 {
        let mut mask = 0;
        for (d, b) in self.inputs.iter().enumerate() {
            mask |= u8::from(!b.is_full()) << d;
        }
        mask
    }

    /// The oldest *application* packet currently waiting at a head-of-line
    /// position in this router (FFW's "next packet in the routing queue").
    /// Returns its task and age.
    pub(crate) fn oldest_waiting_app_packet(
        &self,
        slab: &PacketSlab,
        now: Cycle,
    ) -> Option<(TaskId, Cycle)> {
        let mut best: Option<(TaskId, Cycle)> = None;
        for idx in 0..5 {
            let Some(flit) = self.head_flit(idx).filter(|f| f.is_head()) else {
                continue;
            };
            let pkt = slab.get(flit.slot());
            if pkt.kind.is_application() {
                let age = pkt.age(now);
                if best.is_none_or(|(_, a)| age > a) {
                    best = Some((pkt.task, age));
                }
            }
        }
        best
    }

    /// Whether a packet waits at the injection queue's front.
    pub(crate) fn has_queued_inject(&self) -> bool {
        self.occupied & INJECT_BIT != 0
    }

    /// Queues the packet in `slot` (`wire` flits long) for injection.
    pub(crate) fn enqueue_inject(&mut self, io: &mut RouterIo, slot: u32, wire: u16) {
        if self.occupied & INJECT_BIT == 0 {
            self.set_inject_front(slot, wire);
        } else {
            io.backlog.push_back(slot);
        }
    }

    fn set_inject_front(&mut self, slot: u32, wire: u16) {
        self.inject_slot = slot;
        self.inject_sent = 0;
        self.inject_wire = wire;
        self.occupied |= INJECT_BIT;
    }

    /// Moves the next queued packet, if any, to the injection front.
    fn advance_inject(&mut self, io: &mut RouterIo, slab: &PacketSlab) {
        self.occupied &= !INJECT_BIT;
        if let Some(slot) = io.backlog.pop_front() {
            self.set_inject_front(slot, slab.get(slot).wire_flits() as u16);
        }
    }

    /// Kills the tile: marks it dead, disables all ports and discards all
    /// buffered and queued traffic, blocked counts and the packets it was
    /// receiving or discarding (router-dead fault model). Every discarded
    /// flit and hold gives up its slab reference, so a packet this router
    /// held entirely is freed.
    pub(crate) fn kill(&mut self, io: &mut RouterIo, slab: &mut PacketSlab) {
        self.settings.alive = false;
        self.settings.port_enabled = [false; 6];
        self.settings.local_task = None;
        for b in &mut self.inputs {
            for flit in b.iter() {
                slab.release(flit.slot(), 1);
            }
            b.clear();
        }
        if self.occupied & INJECT_BIT != 0 {
            slab.release(self.inject_slot, self.inject_wire - self.inject_sent);
        }
        for slot in io.backlog.drain(..) {
            slab.release(slot, slab.get(slot).wire_flits() as u16);
        }
        self.occupied = 0;
        self.circuits = [None; 5];
        self.out_alloc = [None; 6];
        self.blocked = [0; 5];
        for slot in self.dropping.iter_mut().chain([&mut self.rx]) {
            if let Some(slot) = slot.take() {
                slab.release(slot, 1);
            }
        }
    }

    /// The head-of-line flit of input `idx` ([`InPort::ALL`] order),
    /// synthesising the injection queue's next flit.
    fn head_flit(&self, idx: usize) -> Option<Flit> {
        if idx < 4 {
            return self.inputs[idx].head();
        }
        (self.occupied & INJECT_BIT != 0).then(|| {
            Flit::of_packet(
                self.inject_slot,
                self.inject_sent.into(),
                self.inject_wire.into(),
            )
        })
    }

    /// The output a head packet requests: its local port at its
    /// destination or when aged and task-affine, else the XY link.
    fn route(&self, pkt: &Packet, now: Cycle) -> OutPort {
        if pkt.dest == self.node {
            return match pkt.kind {
                PacketKind::Config(_) => OutPort::Rcap,
                _ => OutPort::Internal,
            };
        }
        // Task-affine opportunistic absorption of aged packets.
        if self.settings.opportunistic_delivery
            && pkt.kind.is_application()
            && self.settings.local_task == Some(pkt.task)
            && pkt.age(now) >= REDIRECT_AGE
        {
            return OutPort::Internal;
        }
        // Destination coordinate is derivable from the id because ids are
        // row-major; the mesh guarantees dest is on-grid.
        let (x, y) = self.xy_of(pkt.dest);
        let dx = i32::from(x) - i32::from(self.coord.x);
        let dy = i32::from(y) - i32::from(self.coord.y);
        debug_assert!(dx != 0 || dy != 0, "a remote destination is off this tile");
        OutPort::Link(if dx > 0 {
            Direction::East
        } else if dx < 0 {
            Direction::West
        } else if dy > 0 {
            Direction::South
        } else {
            Direction::North
        })
    }

    /// The grid coordinate of `node`, by multiplying with the stored
    /// reciprocal of the width. With `m = ceil(2^32 / w) = (2^32 + e) / w`
    /// and `0 <= e < w`, `n * m / 2^32 = n / w + n * e / (w * 2^32)`, and
    /// the error term stays below `1 / w` because `n * e < 2^16 * 2^16`,
    /// so the floor is exactly `n / w` for every 16-bit `n`.
    fn xy_of(&self, node: NodeId) -> (u16, u16) {
        let n = u64::from(node.raw());
        let y = ((n * self.width_recip) >> 32) as u16;
        (node.raw() - y * self.width, y)
    }

    /// Whether `output` could be granted to a *new* head this cycle.
    fn output_available(&self, output: OutPort, credit: &impl Fn(Direction) -> bool) -> bool {
        self.out_alloc[output.index()].is_none() && self.output_flowing(output, credit)
    }

    /// Whether an already-allocated circuit over `output` can advance.
    fn output_flowing(&self, output: OutPort, credit: &impl Fn(Direction) -> bool) -> bool {
        match output {
            OutPort::Link(d) => self.settings.port_enabled[Port::from(d).index()] && credit(d),
            OutPort::Internal => self.settings.port_enabled[Port::Internal.index()],
            OutPort::Rcap => self.settings.port_enabled[Port::Rcap.index()],
        }
    }

    /// Whether any flit or queued packet could possibly move this cycle —
    /// the mesh drops routers without work from its worklist (the common
    /// case on a lightly loaded grid).
    pub fn has_work(&self) -> bool {
        self.settings.alive && self.occupied != 0
    }

    /// Planning: decides which flits traverse the crossbar this cycle.
    /// Pure with respect to router state; the mesh then applies the plan.
    /// `occupied` names the inputs the cycle started with (a flit that
    /// arrived since is not planned), `slab` resolves head flits to their
    /// headers and `credit` answers whether a link output can accept a
    /// flit.
    ///
    /// One pass over the occupied inputs finds each free head's request:
    /// its route's output, if that output is available. Availability
    /// reads only start-of-cycle state, so the request is the same for
    /// every output, and requests are gathered into one bitmask of
    /// inputs per output. A second pass visits the allocated
    /// or requested outputs in N, E, S, W, Internal, RCAP order: an
    /// allocated output advances its circuit, a free one grants the
    /// lowest requesting input of its mask rotated by the round-robin
    /// pointer.
    pub(crate) fn plan_into(
        &self,
        now: Cycle,
        occupied: u8,
        slab: &PacketSlab,
        credit: impl Fn(Direction) -> bool,
        plan: &mut RouterPlan,
    ) {
        plan.clear();
        if !self.settings.alive || occupied == 0 {
            return;
        }
        let mut granted = 0u8;
        let mut requests = [0u8; 6];
        let mut outputs = 0u8;
        for idx in set_bits(occupied.into()) {
            let Some(flit) = self.head_flit(idx) else {
                continue;
            };
            if let Some(dropping) = self.dropping[idx] {
                // Inputs discarding a recovered packet consume
                // unconditionally and request nothing.
                if flit.slot() == dropping {
                    plan.push_consume(InPort::ALL[idx]);
                    granted |= 1 << idx;
                }
                continue;
            }
            if self.circuits[idx].is_some() || !flit.is_head() {
                continue;
            }
            let o = self.route(slab.get(flit.slot()), now);
            if self.output_available(o, &credit) {
                requests[o.index()] |= 1 << idx;
                outputs |= 1 << o.index();
            }
        }
        for (o, alloc) in self.out_alloc.iter().enumerate() {
            outputs |= u8::from(alloc.is_some()) << o;
        }
        for o in set_bits(outputs.into()) {
            let output = OutPort::ALL[o];
            if let Some(input) = self.out_alloc[o] {
                // Active circuit: advance it if the downstream can accept.
                let bit = 1 << input.index();
                if granted & bit == 0 && occupied & bit != 0 && self.output_flowing(output, &credit)
                {
                    plan.push_move(Move { input, output });
                    granted |= bit;
                }
                continue;
            }
            let candidates = requests[o] & !granted;
            if candidates != 0 {
                let idx = round_robin_pick(candidates, self.rr[o]);
                plan.push_move(Move {
                    input: InPort::ALL[idx],
                    output,
                });
                granted |= 1 << idx;
            }
        }
    }

    /// Removes and returns the head-of-line flit of `input`, refilling
    /// the injection front from the backlog once its tail is sent.
    ///
    /// # Panics
    ///
    /// Panics if the input has no flit (a planning bug).
    pub(crate) fn pop_input(
        &mut self,
        input: InPort,
        io: &mut RouterIo,
        slab: &PacketSlab,
    ) -> Flit {
        match input {
            InPort::Link(d) => self.pop_link(d.index()),
            InPort::Inject => {
                let flit = self
                    .head_flit(4)
                    .expect("planned move from empty inject queue");
                self.inject_sent += 1;
                if flit.is_tail() {
                    self.advance_inject(io, slab);
                }
                flit
            }
        }
    }

    fn pop_link(&mut self, d: usize) -> Flit {
        let b = &mut self.inputs[d];
        let flit = b.pop().expect("planned move from empty buffer");
        self.occupied &= !(u8::from(b.is_empty()) << d);
        flit
    }

    /// Updates circuits, allocation, arbitration pointers and blocked
    /// marks for a committed move.
    pub(crate) fn commit_move(&mut self, m: Move, flit: Flit) {
        match (flit.is_head(), flit.is_tail()) {
            (true, false) => {
                self.circuits[m.input.index()] = Some(m.output);
                self.out_alloc[m.output.index()] = Some(m.input);
            }
            (_, true) => {
                self.circuits[m.input.index()] = None;
                self.out_alloc[m.output.index()] = None;
            }
            _ => {}
        }
        self.rr[m.output.index()] = ((m.input.index() + 1) % 5) as u8;
        self.blocked[m.input.index()] = 0;
        self.moved |= 1 << m.input.index();
    }

    /// Discards a flit popped from `input` while it drops a recovered
    /// packet; the tail ends the drop and its hold on the slot.
    pub(crate) fn commit_consume(&mut self, input: InPort, flit: Flit, slab: &mut PacketSlab) {
        let idx = input.index();
        slab.release(flit.slot(), 1);
        if flit.is_tail() {
            self.dropping[idx] = None;
            slab.release(flit.slot(), 1);
        }
        self.moved |= 1 << idx;
    }

    /// Accepts a flit arriving over a link into the input buffer facing
    /// direction `dir`.
    ///
    /// # Panics
    ///
    /// Panics on buffer overrun (a flow-control bug).
    pub(crate) fn accept_link_flit(&mut self, dir: Direction, flit: Flit) {
        self.inputs[dir.index()].push(flit);
        self.occupied |= 1 << dir.index();
    }

    /// Ages a head that just arrived in the empty input facing `dir`
    /// after this router's blocked pass for the cycle ran (or when the
    /// router runs none): it is blocked for its arrival cycle, as the
    /// pass would have counted.
    pub(crate) fn age_arrival(&mut self, dir: Direction) {
        self.blocked[dir.index()] = 1;
    }

    /// Handles a flit consumed by the internal port; returns the packet
    /// when its tail completes reassembly. A multi-flit packet's head
    /// hands its slab reference to `rx` until the tail arrives.
    pub(crate) fn receive_internal(&mut self, flit: Flit, slab: &mut PacketSlab) -> Option<Packet> {
        let slot = flit.slot();
        match (flit.is_head(), flit.is_tail()) {
            (true, false) => {
                debug_assert!(self.rx.is_none(), "internal port allocated twice");
                self.rx = Some(slot);
                None
            }
            (true, true) => {
                let pkt = *slab.get(slot);
                slab.release(slot, 1);
                Some(pkt)
            }
            (false, true) => {
                let rx = self.rx.take().expect("tail without head on internal port");
                debug_assert_eq!(rx, slot, "tail of another packet");
                let pkt = *slab.get(slot);
                slab.release(slot, 2);
                Some(pkt)
            }
            (false, false) => {
                slab.release(slot, 1);
                None
            }
        }
    }

    /// The blocked pass: advances blocked counters for stalled heads
    /// and performs the basic deadlock recovery (drop a head that has been
    /// blocked for longer than the timeout). Returns the number of packets
    /// dropped this cycle. Consumes the per-cycle `moved` marks; when
    /// every occupied input moved it only clears the counters.
    ///
    /// As in the Centurion hardware this recovery is deliberately *not*
    /// comprehensive: a packet blocked mid-stream (circuit established) is
    /// never dropped here; it resolves only when its head finally drains
    /// downstream.
    pub(crate) fn age_blocked(&mut self, io: &mut RouterIo, slab: &mut PacketSlab) -> u64 {
        let stalled = self.occupied & !std::mem::take(&mut self.moved);
        if stalled == 0 || !self.settings.alive {
            self.blocked = [0; 5];
            return 0;
        }
        let mut dropped = 0u64;
        for idx in 0..5 {
            if stalled & (1 << idx) == 0 {
                self.blocked[idx] = 0;
                continue;
            }
            self.blocked[idx] = (self.blocked[idx] + 1).min(BLOCKED_CAP);
            if self.blocked[idx] == BLOCKED_CAP
                && self.circuits[idx].is_none()
                && self.dropping[idx].is_none()
            {
                // Blocked new head: discard the packet.
                if idx < 4 {
                    let flit = self.pop_link(idx);
                    if flit.is_tail() {
                        slab.release(flit.slot(), 1);
                    } else {
                        // The flit's reference becomes the drop's hold.
                        self.dropping[idx] = Some(flit.slot());
                    }
                } else {
                    debug_assert_eq!(self.inject_sent, 0);
                    slab.release(self.inject_slot, self.inject_wire);
                    self.advance_inject(io, slab);
                }
                dropped += 1;
                self.blocked[idx] = 0;
            }
        }
        dropped
    }

    /// Every slab slot this router references: its buffered flits, its
    /// injection queue (front and `backlog`), `rx` and `dropping`.
    pub(crate) fn referenced_slots<'a>(
        &'a self,
        backlog: &'a VecDeque<u32>,
    ) -> impl Iterator<Item = u32> + 'a {
        let front = (self.occupied & INJECT_BIT != 0).then_some(self.inject_slot);
        self.inputs
            .iter()
            .flat_map(|b| b.iter().map(Flit::slot))
            .chain(front)
            .chain(backlog.iter().copied())
            .chain(self.rx)
            .chain(self.dropping.iter().flatten().copied())
    }
}

/// The set bits of `word`, lowest first.
pub(crate) fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// The first input of the non-empty 5-input mask `candidates` at or
/// cyclically after input `start` — round-robin arbitration as one
/// rotate and one trailing-zero count.
fn round_robin_pick(candidates: u8, start: u8) -> usize {
    debug_assert!(candidates != 0 && candidates < 1 << 5 && start < 5);
    let rotated = ((candidates >> start) | (candidates << (5 - start))) & 0x1f;
    (start as usize + rotated.trailing_zeros() as usize) % 5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Mesh;
    use crate::packet::{PacketId, RcapCommand};
    use sirtm_taskgraph::GridDims;

    fn config() -> RouterConfig {
        RouterConfig::default()
    }

    fn router() -> Router {
        Router::new(NodeId::new(9), Coord::new(1, 1), 8, &config())
    }

    fn packet(dest: u16, task: u8, payload: u8) -> Packet {
        Packet {
            id: PacketId::new(1),
            src: NodeId::new(9),
            dest: NodeId::new(dest),
            task: TaskId::new(task),
            kind: PacketKind::Data,
            payload_flits: payload,
            created_cycle: 0,
            bounces: 0,
        }
    }

    #[test]
    fn xy_preferences() {
        let r = router();
        // Router at (1,1) on an 8-wide grid. Node 12 is (4,1): go east.
        assert_eq!(
            r.route(&packet(12, 0, 0), 0),
            OutPort::Link(Direction::East)
        );
        // Node 26 is (2,3): x first, so east before south.
        assert_eq!(
            r.route(&packet(26, 0, 0), 0),
            OutPort::Link(Direction::East)
        );
        // Node 1 is (1,0): x aligned, go north.
        assert_eq!(
            r.route(&packet(1, 0, 0), 0),
            OutPort::Link(Direction::North)
        );
        // Node 9 is self: internal.
        assert_eq!(r.route(&packet(9, 0, 0), 0), OutPort::Internal);
    }

    #[test]
    fn reciprocal_coordinates_match_division() {
        for width in 1..=130u16 {
            let r = Router::new(NodeId::new(0), Coord::new(0, 0), width, &config());
            for n in (0..8192u16).chain([u16::MAX - 1, u16::MAX]) {
                let want = (n % width, n / width);
                assert_eq!(r.xy_of(NodeId::new(n)), want, "node {n} on width {width}");
            }
        }
    }

    #[test]
    fn config_packets_route_to_rcap() {
        let r = router();
        let mut p = packet(9, 0, 0);
        p.kind = PacketKind::Config(RcapCommand::AimWrite { reg: 0, value: 5 });
        assert_eq!(r.route(&p, 0), OutPort::Rcap);
    }

    #[test]
    fn opportunistic_absorption_requires_all_conditions() {
        let mut r = router();
        r.settings.opportunistic_delivery = true;
        r.settings.local_task = Some(TaskId::new(2));
        let p = packet(30, 2, 0); // not for us, task matches
        let east = OutPort::Link(Direction::East);
        // Too young: routed normally.
        assert_eq!(r.route(&p, REDIRECT_AGE - 1), east);
        // Old enough: absorbed.
        assert_eq!(r.route(&p, REDIRECT_AGE), OutPort::Internal);
        // Wrong task: routed normally.
        let q = packet(30, 1, 0);
        assert_eq!(r.route(&q, REDIRECT_AGE), east);
        // Feature off: routed normally.
        r.settings.opportunistic_delivery = false;
        assert_eq!(r.route(&p, REDIRECT_AGE), east);
    }

    #[test]
    fn apply_config_updates_settings() {
        let mut m = Mesh::new(GridDims::new(8, 4), config());
        let node = NodeId::new(9);
        m.apply_config_direct(node, RcapCommand::SetPortEnabled(Port::East, false));
        assert!(!m.router(node).settings().port_enabled[Port::East.index()]);
        assert_eq!(m.router(node).accepting(), 0b1101, "east input closed");
        m.apply_config_direct(node, RcapCommand::AimWrite { reg: 2, value: 7 });
        m.apply_config_direct(node, RcapCommand::AimWrite { reg: 3, value: 1 });
        assert_eq!(m.aim_write_backlog(node), 2);
        assert_eq!(m.pop_aim_write(node), Some((2, 7)));
        assert_eq!(m.pop_aim_write(node), Some((3, 1)));
        assert_eq!(m.pop_aim_write(node), None);
    }

    #[test]
    fn kill_clears_everything() {
        let mut m = Mesh::new(GridDims::new(8, 4), config());
        let node = NodeId::new(9);
        for payload in [2, 0] {
            m.inject(
                node,
                NodeId::new(12),
                TaskId::new(0),
                PacketKind::Data,
                payload,
            );
        }
        assert_eq!(m.inject_backlog(node), 2);
        m.kill(node);
        let r = m.router(node);
        assert!(!r.settings().alive);
        assert!(!r.has_work());
        assert_eq!(m.inject_backlog(node), 0);
        assert!(r.settings().port_enabled.iter().all(|&e| !e));
        assert!(m.live_slots().is_empty(), "discarded packets are freed");
    }

    #[test]
    fn monitors_take_resets() {
        let mut m = RouterMonitors::new(3);
        m.routed_per_task[1] = 5;
        m.internal_per_task[2] = 4;
        assert_eq!(m.routed_per_task(), &[0, 5, 0]);
        let mut buf = [9; 3];
        m.take_routed_into(&mut buf);
        assert_eq!(buf, [0, 5, 0]);
        assert_eq!(m.routed_per_task(), &[0, 0, 0]);
        m.take_internal_into(&mut buf);
        assert_eq!(buf, [0, 0, 4]);
        assert_eq!(m.internal_per_task(), &[0, 0, 0]);
    }

    /// The hot structs' sizes on a 64-bit target, so a new field cannot
    /// silently regrow the state the mesh walks every cycle.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn hot_structs_stay_small() {
        use std::mem::size_of;
        assert!(
            size_of::<Packet>() <= 32,
            "Packet is {}",
            size_of::<Packet>()
        );
        assert!(size_of::<Flit>() <= 8, "Flit is {}", size_of::<Flit>());
        assert!(
            size_of::<Router>() <= 400,
            "Router is {}",
            size_of::<Router>()
        );
    }

    /// The nested-loop planner the one-pass [`Router::plan_into`]
    /// replaced: for every output it re-derives each input's request from
    /// scratch. Kept as the reference the planner is checked against.
    fn plan_reference(
        r: &Router,
        now: Cycle,
        slab: &PacketSlab,
        credit: &impl Fn(Direction) -> bool,
        plan: &mut RouterPlan,
    ) {
        plan.clear();
        if !r.settings.alive {
            return;
        }
        let mut granted = [false; 5];
        for i in InPort::ALL {
            if let Some(slot) = r.dropping[i.index()] {
                if let Some(f) = r.head_flit(i.index()) {
                    if f.slot() == slot {
                        plan.push_consume(i);
                        granted[i.index()] = true;
                    }
                }
            }
        }
        for o in OutPort::ALL {
            if let Some(i) = r.out_alloc[o.index()] {
                if granted[i.index()] {
                    continue;
                }
                if r.head_flit(i.index()).is_some() && r.output_flowing(o, credit) {
                    plan.push_move(Move {
                        input: i,
                        output: o,
                    });
                    granted[i.index()] = true;
                }
                continue;
            }
            if !r.output_available(o, credit) {
                continue;
            }
            let mut candidate = [false; 5];
            let mut any = false;
            for i in InPort::ALL {
                if granted[i.index()]
                    || r.circuits[i.index()].is_some()
                    || r.dropping[i.index()].is_some()
                {
                    continue;
                }
                let Some(f) = r.head_flit(i.index()).filter(|f| f.is_head()) else {
                    continue;
                };
                if r.route(slab.get(f.slot()), now) == o {
                    candidate[i.index()] = true;
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let start = r.rr[o.index()] as usize;
            let pick = (0..5)
                .map(|k| (start + k) % 5)
                .find(|&idx| candidate[idx])
                .expect("at least one candidate exists");
            plan.push_move(Move {
                input: InPort::ALL[pick],
                output: o,
            });
            granted[pick] = true;
        }
    }

    /// splitmix64: a dependency-free source of random router states.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// A random router state and the slab holding its packets: heads (or
    /// body flits) on any of the five inputs, circuits, dropping inputs,
    /// port enables, `rr` pointers and opportunistic delivery. Heads are
    /// biased towards a few destinations so inputs often contend for an
    /// output. Body flits name slots 0 to 3, which may or may not be a
    /// buffered head's.
    fn random_router(rng: &mut Mix) -> (Router, PacketSlab) {
        let (w, h) = (2 + rng.below(6) as u16, 2 + rng.below(6) as u16);
        let (x, y) = (rng.below(w as u64) as u16, rng.below(h as u64) as u16);
        let node = y * w + x;
        let mut r = Router::new(NodeId::new(node), Coord::new(x, y), w, &config());
        let mut slab = PacketSlab::default();
        let mut io = RouterIo::new(&config());
        let n = (w * h) as u64;
        let hot = [rng.below(n) as u16, rng.below(n) as u16, node];
        let mut next_id = 0u64;
        let mut packet = |rng: &mut Mix, slab: &mut PacketSlab| {
            next_id += 1;
            let dest = if rng.chance(70) {
                hot[rng.below(3) as usize]
            } else {
                rng.below(n) as u16
            };
            let kind = if rng.chance(20) {
                PacketKind::Config(RcapCommand::AimWrite { reg: 0, value: 1 })
            } else {
                PacketKind::Data
            };
            let pkt = Packet {
                id: PacketId::new(next_id),
                src: NodeId::new(rng.below(n) as u16),
                dest: NodeId::new(dest),
                task: TaskId::new(rng.below(3) as u8),
                kind,
                payload_flits: rng.below(4) as u8,
                created_cycle: rng.below(200),
                bounces: 0,
            };
            (slab.alloc(pkt), pkt.wire_flits())
        };
        let s = &mut r.settings;
        s.alive = rng.chance(95);
        s.opportunistic_delivery = rng.chance(50);
        s.local_task = rng.chance(70).then(|| TaskId::new(rng.below(3) as u8));
        for e in &mut s.port_enabled {
            *e = rng.chance(85);
        }
        for d in Direction::ALL {
            for _ in 0..rng.below(4) {
                let flit = if rng.chance(60) {
                    let (slot, _) = packet(rng, &mut slab);
                    Flit::of_packet(slot, 0, if rng.chance(30) { 1 } else { 2 })
                } else {
                    let slot = rng.below(4) as u32;
                    Flit::of_packet(slot, 1, if rng.chance(30) { 2 } else { 3 })
                };
                r.accept_link_flit(d, flit);
            }
        }
        for _ in 0..rng.below(3) {
            let (slot, wire) = packet(rng, &mut slab);
            r.enqueue_inject(&mut io, slot, wire as u16);
        }
        if r.occupied & INJECT_BIT != 0 && rng.chance(30) {
            r.inject_sent = rng.below(r.inject_wire.into()) as u16;
        }
        // Circuits pair inputs with distinct outputs, as commit_move does.
        for i in InPort::ALL {
            if rng.chance(25) {
                let o = OutPort::ALL[rng.below(6) as usize];
                if r.out_alloc[o.index()].is_none() {
                    r.circuits[i.index()] = Some(o);
                    r.out_alloc[o.index()] = Some(i);
                }
            }
            if rng.chance(15) {
                let slot = match r.head_flit(i.index()) {
                    Some(f) if rng.chance(70) => f.slot(),
                    _ => rng.below(4) as u32,
                };
                r.dropping[i.index()] = Some(slot);
            }
        }
        for p in &mut r.rr {
            *p = rng.below(5) as u8;
        }
        (r, slab)
    }

    #[test]
    fn one_pass_planner_matches_the_nested_loop_reference() {
        let mut rng = Mix(0x51A7_C0DE);
        let (mut contended, mut moves) = (0, 0);
        for case in 0..20_000 {
            let (r, slab) = random_router(&mut rng);
            let credits: [bool; 4] = std::array::from_fn(|_| rng.chance(75));
            let credit = |d: Direction| credits[d.index()];
            let now = 100 + rng.below(200);
            let (mut got, mut want) = (RouterPlan::default(), RouterPlan::default());
            r.plan_into(now, r.occupied, &slab, credit, &mut got);
            plan_reference(&r, now, &slab, &credit, &mut want);
            let view = |p: &RouterPlan| {
                (
                    p.consumes().collect::<Vec<_>>(),
                    p.moves().collect::<Vec<_>>(),
                )
            };
            assert_eq!(view(&got), view(&want), "case {case}: {r:?}");
            moves += got.moves().count();
            let heads = (0..5)
                .filter(|&i| r.head_flit(i).is_some_and(Flit::is_head))
                .count();
            contended += usize::from(heads >= 3);
        }
        // The generator must actually exercise arbitration.
        assert!(contended > 2_000, "only {contended} contended states");
        assert!(moves > 10_000, "only {moves} moves planned");
    }

    #[test]
    fn inject_head_flit_synthesis() {
        let mut r = router();
        let mut io = RouterIo::new(&config());
        let mut slab = PacketSlab::default();
        assert!(r.head_flit(4).is_none());
        let pkt = packet(12, 1, 1);
        let slot = slab.alloc(pkt);
        r.enqueue_inject(&mut io, slot, pkt.wire_flits() as u16);
        let head = r.head_flit(4).expect("queued packet");
        assert!(head.is_head() && !head.is_tail());
        assert_eq!(slab.get(head.slot()).dest, NodeId::new(12));
        assert_eq!(r.pop_input(InPort::Inject, &mut io, &slab), head);
        let tail = r.head_flit(4).expect("body flit still queued");
        assert!(!tail.is_head() && tail.is_tail());
        r.pop_input(InPort::Inject, &mut io, &slab);
        assert!(r.head_flit(4).is_none() && !r.has_work());
    }
}
